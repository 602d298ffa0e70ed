//! Core configuration (the processor half of the paper's Table III).

/// A deliberately broken pipeline variant, injected via
/// [`CoreConfig::injected_bug`] for fuzzer self-tests: the differential
/// oracle must *detect* these, proving it would also catch an accidental
/// bug of the same shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedBug {
    /// The retire gate reopens on *any* SB commit instead of only on the
    /// commit matching the closing key — the §III key match dropped. A
    /// forwarded load whose store sits behind older SB entries then
    /// retires as soon as the oldest unrelated store commits, exposing
    /// non-store-atomic outcomes on the `370-SLFSoS-key` config.
    GateKeyMatch,
    /// SLF loads never close the retire gate at all: `370-SLFSoS` /
    /// `370-SLFSoS-key` silently degrade to x86 forwarding behavior.
    GateNoClose,
}

impl InjectedBug {
    /// Parses the `--mutate` spelling (`gate-key`, `gate-no-close`).
    pub fn parse(s: &str) -> Option<InjectedBug> {
        match s {
            "gate-key" => Some(InjectedBug::GateKeyMatch),
            "gate-no-close" => Some(InjectedBug::GateNoClose),
            _ => None,
        }
    }

    /// The `--mutate` spelling.
    pub fn label(&self) -> &'static str {
        match self {
            InjectedBug::GateKeyMatch => "gate-key",
            InjectedBug::GateNoClose => "gate-no-close",
        }
    }

    /// All injectable bugs.
    pub const ALL: [InjectedBug; 2] = [InjectedBug::GateKeyMatch, InjectedBug::GateNoClose];
}

/// Error from [`CoreConfig::check`]: a parameter combination the
/// pipeline's invariants reject. The `Display` text matches the panic
/// messages [`CoreConfig::validate`] historically produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreConfigError {
    /// `width == 0`.
    ZeroWidth,
    /// `rob_entries == 0`.
    EmptyRob,
    /// `lq_entries == 0`.
    EmptyLq,
    /// `sq_sb_entries < 2`.
    SqSbTooSmall,
    /// `sched_window == 0`.
    ZeroSchedWindow,
    /// `load_ports == 0 || store_ports == 0`.
    NoAguPorts,
    /// `sq_sb_entries` does not fit the 16-bit key position field.
    KeyPositionOverflow,
    /// `gate_keys == 0`.
    NoGateKeys,
}

impl std::fmt::Display for CoreConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreConfigError::ZeroWidth => write!(f, "width must be positive"),
            CoreConfigError::EmptyRob => write!(f, "ROB must be non-empty"),
            CoreConfigError::EmptyLq => write!(f, "LQ must be non-empty"),
            CoreConfigError::SqSbTooSmall => write!(f, "SQ/SB needs at least two entries"),
            CoreConfigError::ZeroSchedWindow => write!(f, "scheduler window must be positive"),
            CoreConfigError::NoAguPorts => write!(f, "need AGU ports"),
            CoreConfigError::KeyPositionOverflow => write!(f, "key position bits limited to 16"),
            CoreConfigError::NoGateKeys => write!(f, "gate needs at least one key register"),
        }
    }
}

impl std::error::Error for CoreConfigError {}

/// Out-of-order core parameters. Defaults are the paper's Skylake-like
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Dispatch/issue/retire width (5).
    pub width: usize,
    /// Reorder-buffer entries (224).
    pub rob_entries: usize,
    /// Load-queue entries (72).
    pub lq_entries: usize,
    /// Combined store-queue + store-buffer entries (56).
    pub sq_sb_entries: usize,
    /// Oldest non-completed instructions eligible for issue each cycle
    /// (reservation-station window).
    pub sched_window: usize,
    /// Loads that can begin execution per cycle (load AGU ports).
    pub load_ports: usize,
    /// Store addresses that can resolve per cycle (store AGU port).
    pub store_ports: usize,
    /// Fetch-redirect penalty after a branch mispredict, in cycles.
    pub redirect_penalty: u64,
    /// Pipeline-refill penalty after a memory-order/store-atomicity
    /// squash, in cycles.
    pub squash_penalty: u64,
    /// How many retired stores beyond the SB head prefetch ownership
    /// (RFO) concurrently (counted from the SQ/SB head; addresses known
    /// pre-retirement prefetch too).
    pub rfo_depth: usize,
    /// Enable the StoreSet memory-dependence predictor (Table III).
    pub storeset: bool,
    /// Pipeline SB commits at one store per cycle instead of
    /// serializing them at the L1 write latency (an ablation; the
    /// baseline drain is serialized).
    pub commit_pipelined: bool,
    /// Cycles one SB-head store occupies the L1 write path when it
    /// commits (the GEMS-style L1 store access cost; the paper's drain
    /// behavior implies a serialized, non-trivial commit cost).
    pub sb_commit_cycles: u64,
    /// Key registers in the retire gate. 1 is the paper's design; more
    /// lets further SLF loads retire through a closed gate (the
    /// multi-key extension, see `results/ablation.txt`).
    pub gate_keys: usize,
    /// Deliberately broken pipeline variant for fuzzer self-tests
    /// (`None` in every real configuration).
    pub injected_bug: Option<InjectedBug>,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig {
            width: 5,
            rob_entries: 224,
            lq_entries: 72,
            sq_sb_entries: 56,
            sched_window: 97,
            load_ports: 2,
            store_ports: 1,
            redirect_penalty: 12,
            squash_penalty: 12,
            rfo_depth: 32,
            storeset: true,
            commit_pipelined: false,
            sb_commit_cycles: 8,
            gate_keys: 1,
            injected_bug: None,
        }
    }
}

impl CoreConfig {
    /// Checks invariants the pipeline relies on, returning the first
    /// violation as a typed error.
    pub fn check(&self) -> Result<(), CoreConfigError> {
        if self.width == 0 {
            return Err(CoreConfigError::ZeroWidth);
        }
        if self.rob_entries == 0 {
            return Err(CoreConfigError::EmptyRob);
        }
        if self.lq_entries == 0 {
            return Err(CoreConfigError::EmptyLq);
        }
        if self.sq_sb_entries < 2 {
            return Err(CoreConfigError::SqSbTooSmall);
        }
        if self.sched_window == 0 {
            return Err(CoreConfigError::ZeroSchedWindow);
        }
        if self.load_ports == 0 || self.store_ports == 0 {
            return Err(CoreConfigError::NoAguPorts);
        }
        if self.sq_sb_entries > u16::MAX as usize {
            return Err(CoreConfigError::KeyPositionOverflow);
        }
        if self.gate_keys == 0 {
            return Err(CoreConfigError::NoGateKeys);
        }
        Ok(())
    }

    /// Validates invariants the pipeline relies on.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized structures or widths; [`CoreConfig::check`]
    /// is the non-panicking form.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Extra storage (bits) the paper's mechanism adds for this geometry
    /// (§IV-D): per-LQ-entry SLF bit + key, the gate register, and one
    /// sorting bit per SQ/SB entry.
    pub fn sa_storage_bits(&self) -> usize {
        let pos_bits = usize::BITS as usize - (self.sq_sb_entries - 1).leading_zeros() as usize;
        let key_bits = pos_bits + 1; // position + sorting bit
        let per_lq = 1 + key_bits; // SLF bit + key copy
        let gate = 1 + key_bits; // open/closed bit + key register
        self.lq_entries * per_lq + gate + self.sq_sb_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_iii() {
        let c = CoreConfig::default();
        assert_eq!(c.width, 5);
        assert_eq!(c.rob_entries, 224);
        assert_eq!(c.lq_entries, 72);
        assert_eq!(c.sq_sb_entries, 56);
        assert_eq!(c.injected_bug, None);
        c.validate();
        assert!(c.check().is_ok());
    }

    #[test]
    fn storage_overhead_matches_section_iv_d() {
        // 72-entry LQ, 56-entry SQ/SB: 8 bits/LQ entry + 8-bit gate
        // (1 + 7) + 56 sorting bits = 576 + 8 + 56 = 640 bits (80 bytes).
        let c = CoreConfig::default();
        assert_eq!(c.sa_storage_bits(), 640);
        assert_eq!(c.sa_storage_bits() / 8, 80);
    }

    #[test]
    #[should_panic(expected = "width")]
    fn zero_width_rejected() {
        CoreConfig {
            width: 0,
            ..CoreConfig::default()
        }
        .validate();
    }

    #[test]
    fn check_returns_typed_errors() {
        let bad = |f: fn(&mut CoreConfig)| {
            let mut c = CoreConfig::default();
            f(&mut c);
            c.check().unwrap_err()
        };
        assert_eq!(bad(|c| c.width = 0), CoreConfigError::ZeroWidth);
        assert_eq!(bad(|c| c.rob_entries = 0), CoreConfigError::EmptyRob);
        assert_eq!(bad(|c| c.sq_sb_entries = 1), CoreConfigError::SqSbTooSmall);
        assert_eq!(
            bad(|c| c.sq_sb_entries = 70_000),
            CoreConfigError::KeyPositionOverflow
        );
        assert_eq!(bad(|c| c.gate_keys = 0), CoreConfigError::NoGateKeys);
        assert_eq!(
            bad(|c| c.load_ports = 0).to_string(),
            "need AGU ports",
            "Display matches the historical panic text"
        );
    }

    #[test]
    fn injected_bug_parse_roundtrip() {
        for bug in InjectedBug::ALL {
            assert_eq!(InjectedBug::parse(bug.label()), Some(bug));
        }
        assert_eq!(InjectedBug::parse("no-such-bug"), None);
    }
}
