//! Full-system configuration — the paper's Table III.

use sa_coherence::{MemConfig, MemConfigError, Topology};
use sa_isa::ConsistencyModel;
use sa_ooo::{CoreConfig, CoreConfigError};

/// How `Multicore::run` advances simulated time. All three engines are
/// cycle-exact with one another (enforced by `tests/engine_equivalence`
/// and `tests/parallel_equivalence`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Tick every unfinished core every cycle, never skipping one (the
    /// mode every traced serial run takes).
    Lockstep,
    /// Jump over cycles in which no core can make progress.
    EventDriven,
    /// Shard cores across `threads` worker threads that advance
    /// independently inside epoch barriers bounded by the minimum
    /// cross-shard link latency (conservative-lookahead PDES).
    Parallel {
        /// Number of worker threads (shards). `1` is valid and runs the
        /// sharded engine on the calling thread.
        threads: usize,
    },
}

impl Default for EngineMode {
    /// The event-driven engine.
    fn default() -> EngineMode {
        EngineMode::EventDriven
    }
}

impl EngineMode {
    /// Parses the CLI / job-spec syntax: `lockstep`, `event`, or
    /// `parallel:<threads>` (`parallel` alone means one thread).
    pub fn parse(s: &str) -> Result<EngineMode, String> {
        match s {
            "lockstep" => Ok(EngineMode::Lockstep),
            "event" => Ok(EngineMode::EventDriven),
            "parallel" => Ok(EngineMode::Parallel { threads: 1 }),
            _ => {
                if let Some(t) = s.strip_prefix("parallel:") {
                    let threads: usize = t
                        .parse()
                        .map_err(|_| format!("bad thread count in engine spec {s:?}"))?;
                    Ok(EngineMode::Parallel { threads })
                } else {
                    Err(format!(
                        "unknown engine {s:?} (expected lockstep, event, or parallel:<threads>)"
                    ))
                }
            }
        }
    }
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineMode::Lockstep => write!(f, "lockstep"),
            EngineMode::EventDriven => write!(f, "event"),
            EngineMode::Parallel { threads } => write!(f, "parallel:{threads}"),
        }
    }
}

/// Parses the CLI / job-spec topology syntax: `fc` (fully connected) or
/// `mesh:<width>`.
pub fn parse_topology(s: &str) -> Result<Topology, String> {
    match s {
        "fc" | "fully-connected" => Ok(Topology::FullyConnected),
        _ => {
            if let Some(w) = s.strip_prefix("mesh:") {
                let width: usize = w
                    .parse()
                    .map_err(|_| format!("bad mesh width in topology spec {s:?}"))?;
                Ok(Topology::Mesh2D { width })
            } else {
                Err(format!(
                    "unknown topology {s:?} (expected fc or mesh:<width>)"
                ))
            }
        }
    }
}

/// Error from [`SimConfigBuilder::build`] / [`SimConfig::check`]: an
/// inconsistent parameter combination, reported as a typed value instead
/// of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The core half failed [`CoreConfig::check`].
    Core(CoreConfigError),
    /// The memory half failed [`MemConfig::check`].
    Mem(MemConfigError),
    /// A nonzero sampling interval with a zero-capacity sample ring:
    /// sampling is requested but every sample would be dropped.
    ZeroSampleCapacity,
    /// A mesh topology with zero grid columns.
    ZeroMeshWidth,
    /// A mesh whose core count is not an integer number of `width`-column
    /// rows (`width` must divide `cores` so `width x height = cores`).
    MeshNotRectangular {
        /// Configured core count.
        cores: usize,
        /// Configured mesh width.
        width: usize,
    },
    /// `EngineMode::Parallel` with zero worker threads.
    ZeroEngineThreads,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Core(e) => write!(f, "core config: {e}"),
            ConfigError::Mem(e) => write!(f, "memory config: {e}"),
            ConfigError::ZeroSampleCapacity => {
                write!(f, "sampling enabled with a zero-capacity sample ring")
            }
            ConfigError::ZeroMeshWidth => write!(f, "mesh width must be positive"),
            ConfigError::MeshNotRectangular { cores, width } => write!(
                f,
                "mesh width {width} does not divide {cores} cores into full rows"
            ),
            ConfigError::ZeroEngineThreads => {
                write!(f, "parallel engine needs at least one thread")
            }
        }
    }
}

impl std::error::Error for ConfigError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ConfigError::Core(e) => Some(e),
            ConfigError::Mem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreConfigError> for ConfigError {
    fn from(e: CoreConfigError) -> ConfigError {
        ConfigError::Core(e)
    }
}

impl From<MemConfigError> for ConfigError {
    fn from(e: MemConfigError) -> ConfigError {
        ConfigError::Mem(e)
    }
}

/// Complete configuration of the simulated multicore.
///
/// Defaults reproduce Table III: 8 Skylake-like cores (5-wide, 224-entry
/// ROB, 72-entry LQ, 56-entry SQ/SB, StoreSet, TAGE-style branch
/// prediction), private 32 KB L1 + 128 KB L2, shared 8×1 MB L3 with
/// directory, fully-connected network, 160-cycle memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Per-core microarchitecture.
    pub core: CoreConfig,
    /// Memory hierarchy and interconnect.
    pub mem: MemConfig,
    /// Which of the five consistency implementations to run.
    pub model: ConsistencyModel,
    /// Interval, in cycles, between time-series samples (0 disables the
    /// sampler).
    pub sample_interval: u64,
    /// Bounded capacity of the sample ring (oldest samples drop first).
    pub sample_capacity: usize,
    /// Which engine `Multicore::run` drives the simulation with. All
    /// modes are cycle-exact with one another (enforced by
    /// `tests/engine_equivalence` and `tests/parallel_equivalence`).
    pub engine: EngineMode,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            core: CoreConfig::default(),
            mem: MemConfig::default(),
            model: ConsistencyModel::X86,
            sample_interval: 10_000,
            sample_capacity: 4096,
            engine: EngineMode::EventDriven,
        }
    }
}

/// Builder for [`SimConfig`] whose [`build`](SimConfigBuilder::build)
/// validates the assembled configuration and returns typed
/// [`ConfigError`]s instead of panicking — the front door for drivers
/// that accept user-controlled parameters (the bench CLI, the fuzzer).
#[derive(Debug, Clone, Default)]
pub struct SimConfigBuilder {
    cfg: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the consistency model.
    pub fn model(mut self, model: ConsistencyModel) -> SimConfigBuilder {
        self.cfg.model = model;
        self
    }

    /// Sets the number of cores.
    pub fn cores(mut self, n: usize) -> SimConfigBuilder {
        self.cfg.mem.n_cores = n;
        self
    }

    /// Replaces the whole per-core microarchitecture.
    pub fn core(mut self, core: CoreConfig) -> SimConfigBuilder {
        self.cfg.core = core;
        self
    }

    /// Replaces the whole memory hierarchy (keeps the core count already
    /// set via [`cores`](SimConfigBuilder::cores) callers must re-apply).
    pub fn mem(mut self, mem: MemConfig) -> SimConfigBuilder {
        self.cfg.mem = mem;
        self
    }

    /// Sets the time-series sampling interval in cycles (0 disables).
    pub fn sample_interval(mut self, interval: u64) -> SimConfigBuilder {
        self.cfg.sample_interval = interval;
        self
    }

    /// Sets the bounded capacity of the sample ring.
    pub fn sample_capacity(mut self, capacity: usize) -> SimConfigBuilder {
        self.cfg.sample_capacity = capacity;
        self
    }

    /// Sets the interconnect topology.
    pub fn topology(mut self, topology: Topology) -> SimConfigBuilder {
        self.cfg.mem.topology = topology;
        self
    }

    /// Sets the simulation engine.
    pub fn engine(mut self, engine: EngineMode) -> SimConfigBuilder {
        self.cfg.engine = engine;
        self
    }

    /// Injects a deliberately broken pipeline variant (fuzzer self-test).
    pub fn injected_bug(mut self, bug: Option<sa_ooo::InjectedBug>) -> SimConfigBuilder {
        self.cfg.core.injected_bug = bug;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        self.cfg.check()?;
        Ok(self.cfg)
    }
}

impl SimConfig {
    /// Starts a validating builder from the Table III defaults.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder::default()
    }

    /// Sets the consistency model.
    pub fn with_model(mut self, model: ConsistencyModel) -> SimConfig {
        self.model = model;
        self
    }

    /// Sets the number of cores.
    pub fn with_cores(mut self, n: usize) -> SimConfig {
        self.mem.n_cores = n;
        self
    }

    /// Sets the time-series sampling interval in cycles (0 disables).
    pub fn with_sample_interval(mut self, interval: u64) -> SimConfig {
        self.sample_interval = interval;
        self
    }

    /// Sets the interconnect topology.
    pub fn with_topology(mut self, topology: Topology) -> SimConfig {
        self.mem.topology = topology;
        self
    }

    /// Sets the simulation engine.
    pub fn with_engine(mut self, engine: EngineMode) -> SimConfig {
        self.engine = engine;
        self
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.mem.n_cores
    }

    /// Checks the whole configuration, returning the first violation as
    /// a typed error.
    pub fn check(&self) -> Result<(), ConfigError> {
        self.core.check()?;
        self.mem.check()?;
        if self.sample_interval > 0 && self.sample_capacity == 0 {
            return Err(ConfigError::ZeroSampleCapacity);
        }
        if let Topology::Mesh2D { width } = self.mem.topology {
            if width == 0 {
                return Err(ConfigError::ZeroMeshWidth);
            }
            if !self.mem.n_cores.is_multiple_of(width) {
                return Err(ConfigError::MeshNotRectangular {
                    cores: self.mem.n_cores,
                    width,
                });
            }
        }
        if let EngineMode::Parallel { threads: 0 } = self.engine {
            return Err(ConfigError::ZeroEngineThreads);
        }
        Ok(())
    }

    /// Validates both halves.
    ///
    /// # Panics
    ///
    /// Panics if either the core or memory configuration is invalid;
    /// [`SimConfig::check`] is the non-panicking form.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Renders the configuration as the paper's Table III.
    pub fn render_table3(&self) -> String {
        let c = &self.core;
        let m = &self.mem;
        let mut s = String::new();
        s.push_str("System configuration (Table III)\n");
        s.push_str("Processor (Skylake-like)\n");
        s.push_str(&format!(
            "  Issue / Retire width        {} instructions\n",
            c.width
        ));
        s.push_str(&format!(
            "  Reorder buffer              {} entries\n",
            c.rob_entries
        ));
        s.push_str(&format!(
            "  Load queue                  {} entries\n",
            c.lq_entries
        ));
        s.push_str(&format!(
            "  Store queue + store buffer  {} entries\n",
            c.sq_sb_entries
        ));
        s.push_str("  Memory dep. predictor       StoreSet\n");
        s.push_str("  Branch predictor            TAGE (L-TAGE class)\n");
        s.push_str("Memory\n");
        s.push_str(&format!(
            "  Private L1 D cache          {}KB, {} ways, {} hit cycles, stride prefetcher: {}\n",
            m.l1_bytes / 1024,
            m.l1_assoc,
            m.l1_latency,
            if m.prefetch { "on" } else { "off" }
        ));
        s.push_str(&format!(
            "  Private L2 cache            {}KB, {} ways, {} hit cycles\n",
            m.l2_bytes / 1024,
            m.l2_assoc,
            m.l2_latency
        ));
        s.push_str(&format!(
            "  Shared L3 cache ({} banks)   {}MB per bank, {} ways, {} hit cycles\n",
            m.l3_banks,
            m.l3_bytes_per_bank / (1024 * 1024),
            m.l3_assoc,
            m.l3_latency
        ));
        s.push_str(&format!(
            "  Memory access time          {} cycles\n",
            m.mem_latency
        ));
        s.push_str("Network\n");
        match m.topology {
            Topology::FullyConnected => {
                s.push_str("  Topology                    Fully connected\n");
            }
            Topology::Mesh2D { width } => {
                s.push_str(&format!(
                    "  Topology                    2D mesh, {width} columns\n"
                ));
            }
        }
        s.push_str(&format!(
            "  Data / Control msg size     {} / {} flits\n",
            m.data_flits, m.ctrl_flits
        ));
        s.push_str(&format!(
            "  Switch-to-switch time       {} cycles\n",
            m.hop_latency
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_match_paper() {
        let cfg = SimConfig::default();
        cfg.validate();
        assert_eq!(cfg.n_cores(), 8);
        assert_eq!(cfg.core.rob_entries, 224);
        assert_eq!(cfg.mem.mem_latency, 160);
        assert_eq!(cfg.model, ConsistencyModel::X86);
    }

    #[test]
    fn builder_methods_chain() {
        let cfg = SimConfig::default()
            .with_model(ConsistencyModel::Ibm370SlfSosKey)
            .with_cores(2);
        assert_eq!(cfg.model, ConsistencyModel::Ibm370SlfSosKey);
        assert_eq!(cfg.n_cores(), 2);
        cfg.validate();
    }

    #[test]
    fn validating_builder_accepts_good_configs() {
        let cfg = SimConfig::builder()
            .model(ConsistencyModel::Ibm370SlfSos)
            .cores(4)
            .sample_interval(0)
            .engine(EngineMode::Lockstep)
            .build()
            .expect("valid config");
        assert_eq!(cfg.model, ConsistencyModel::Ibm370SlfSos);
        assert_eq!(cfg.n_cores(), 4);
        assert_eq!(cfg.engine, EngineMode::Lockstep);
        // The chainable wrappers and the builder agree.
        let legacy = SimConfig::default()
            .with_model(ConsistencyModel::Ibm370SlfSos)
            .with_cores(4)
            .with_sample_interval(0)
            .with_engine(EngineMode::Lockstep);
        assert_eq!(cfg, legacy);
    }

    #[test]
    fn topology_and_engine_are_builder_axes() {
        let cfg = SimConfig::builder()
            .cores(64)
            .topology(Topology::Mesh2D { width: 8 })
            .engine(EngineMode::Parallel { threads: 4 })
            .build()
            .expect("64-core mesh cell");
        assert_eq!(cfg.mem.topology, Topology::Mesh2D { width: 8 });
        assert_eq!(cfg.engine, EngineMode::Parallel { threads: 4 });
        assert!(cfg.render_table3().contains("2D mesh, 8 columns"));
    }

    #[test]
    fn engine_and_topology_specs_parse() {
        assert_eq!(EngineMode::parse("lockstep"), Ok(EngineMode::Lockstep));
        assert_eq!(EngineMode::parse("event"), Ok(EngineMode::EventDriven));
        assert_eq!(
            EngineMode::parse("parallel:4"),
            Ok(EngineMode::Parallel { threads: 4 })
        );
        assert_eq!(
            EngineMode::parse("parallel"),
            Ok(EngineMode::Parallel { threads: 1 })
        );
        assert!(EngineMode::parse("warp").is_err());
        assert_eq!(
            EngineMode::Parallel { threads: 4 }.to_string(),
            "parallel:4"
        );
        assert_eq!(parse_topology("fc"), Ok(Topology::FullyConnected));
        assert_eq!(parse_topology("mesh:8"), Ok(Topology::Mesh2D { width: 8 }));
        assert!(parse_topology("torus:4").is_err());
        assert!(parse_topology("mesh:x").is_err());
    }

    #[test]
    fn validating_builder_returns_typed_errors() {
        let zero_width = SimConfig::builder()
            .core(CoreConfig {
                width: 0,
                ..CoreConfig::default()
            })
            .build()
            .unwrap_err();
        assert_eq!(
            zero_width,
            ConfigError::Core(CoreConfigError::ZeroWidth),
            "zero-width core"
        );
        let too_many = SimConfig::builder()
            .cores(sa_isa::MAX_CORES + 1)
            .build()
            .unwrap_err();
        assert_eq!(
            too_many,
            ConfigError::Mem(MemConfigError::CoreCountUnsupported)
        );
        assert!(
            SimConfig::builder().cores(1024).build().is_ok(),
            "the cap is now topology feasibility, not 64 cores"
        );
        let bad_sampler = SimConfig::builder()
            .sample_interval(100)
            .sample_capacity(0)
            .build()
            .unwrap_err();
        assert_eq!(bad_sampler, ConfigError::ZeroSampleCapacity);
        assert!(zero_width.to_string().contains("width must be positive"));
        let ragged = SimConfig::builder()
            .cores(8)
            .topology(Topology::Mesh2D { width: 3 })
            .build()
            .unwrap_err();
        assert_eq!(
            ragged,
            ConfigError::MeshNotRectangular { cores: 8, width: 3 }
        );
        assert!(ragged.to_string().contains("does not divide"));
        let flat = SimConfig::builder()
            .topology(Topology::Mesh2D { width: 0 })
            .build()
            .unwrap_err();
        assert_eq!(flat, ConfigError::ZeroMeshWidth);
        let idle = SimConfig::builder()
            .engine(EngineMode::Parallel { threads: 0 })
            .build()
            .unwrap_err();
        assert_eq!(idle, ConfigError::ZeroEngineThreads);
    }

    #[test]
    fn injected_bug_flows_into_core_config() {
        let cfg = SimConfig::builder()
            .model(ConsistencyModel::Ibm370SlfSosKey)
            .injected_bug(Some(sa_ooo::InjectedBug::GateKeyMatch))
            .build()
            .expect("bugs are valid configs");
        assert_eq!(
            cfg.core.injected_bug,
            Some(sa_ooo::InjectedBug::GateKeyMatch)
        );
        assert_eq!(SimConfig::default().core.injected_bug, None);
    }

    #[test]
    fn table3_rendering_mentions_key_parameters() {
        let s = SimConfig::default().render_table3();
        for needle in [
            "5 instructions",
            "224 entries",
            "72 entries",
            "56 entries",
            "32KB, 8 ways, 4 hit cycles",
            "128KB, 8 ways, 12 hit cycles",
            "1MB per bank, 8 ways, 35 hit cycles",
            "160 cycles",
            "Fully connected",
            "5 / 1 flits",
            "6 cycles",
            "StoreSet",
        ] {
            assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
        }
    }
}
