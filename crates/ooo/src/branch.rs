//! TAGE-style conditional branch predictor (stand-in for the paper's
//! L-TAGE, Seznec 2007).
//!
//! A bimodal base predictor plus four tagged tables indexed with
//! geometrically increasing global-history lengths. The longest-history
//! hit provides the prediction; allocation on mispredicts follows the
//! classic TAGE policy (one new entry in a longer-history table with a
//! weakly-correct counter).
//!
//! The tables are allocated by the first [`Tage::update`]. Until then
//! every counter would read zero and no tag would match (tags are never
//! zero), so [`Tage::predict`] answers "taken" without them: a trace
//! without conditional branches never pays for 20 KB of tables.

const BASE_BITS: usize = 12; // 4096-entry bimodal
const TABLE_BITS: usize = 10; // 1024 entries per tagged table
const TAG_BITS: u32 = 8;
const HIST_LENGTHS: [u32; 4] = [8, 16, 32, 64];
const TABLES: usize = HIST_LENGTHS.len();

#[derive(Debug, Clone, Copy, Default)]
struct TaggedEntry {
    tag: u16,
    ctr: i8, // -4..=3, taken when >= 0
    useful: u8,
}

/// The predictor.
#[derive(Debug)]
pub struct Tage {
    /// 2-bit counters, -2..=1, taken when >= 0. Empty, like `tagged`,
    /// until the first update.
    base: Vec<i8>,
    /// The tagged tables back to back, `1 << TABLE_BITS` entries each.
    tagged: Vec<TaggedEntry>,
    ghist: u64,
    predictions: u64,
    mispredicts: u64,
    alloc_tick: u64,
}

impl Default for Tage {
    fn default() -> Self {
        Tage::new()
    }
}

impl Tage {
    /// Creates an empty predictor; its tables are allocated by the
    /// first update.
    pub fn new() -> Tage {
        Tage {
            base: Vec::new(),
            tagged: Vec::new(),
            ghist: 0,
            predictions: 0,
            mispredicts: 0,
            alloc_tick: 0,
        }
    }

    fn fold(history: u64, bits: u32, out_bits: u32) -> u64 {
        let h = if bits >= 64 {
            history
        } else {
            history & ((1u64 << bits) - 1)
        };
        let mut folded = 0u64;
        let mut rest = h;
        let mask = (1u64 << out_bits) - 1;
        while rest != 0 {
            folded ^= rest & mask;
            rest >>= out_bits;
        }
        folded
    }

    /// Position of `pc`'s entry of tagged table `t` in `tagged`.
    fn index(&self, pc: u64, t: usize) -> usize {
        let h = Self::fold(self.ghist, HIST_LENGTHS[t], TABLE_BITS as u32);
        let i = (((pc >> 2) ^ (pc >> (5 + t as u64)) ^ h) as usize) & ((1 << TABLE_BITS) - 1);
        (t << TABLE_BITS) | i
    }

    fn tag(&self, pc: u64, t: usize) -> u16 {
        let h = Self::fold(self.ghist, HIST_LENGTHS[t], TAG_BITS);
        ((((pc >> 2) ^ (pc >> 11) ^ (h << 1)) & ((1 << TAG_BITS) - 1)) as u16) | 1
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & ((1 << BASE_BITS) - 1)
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        if self.base.is_empty() {
            // Untrained: a zero base counter, and no tag matches.
            return true;
        }
        for t in (0..TABLES).rev() {
            let e = &self.tagged[self.index(pc, t)];
            if e.tag == self.tag(pc, t) {
                return e.ctr >= 0;
            }
        }
        self.base[self.base_index(pc)] >= 0
    }

    /// Updates with the architectural outcome; returns `true` when the
    /// prediction made *before* this update was correct.
    pub fn update(&mut self, pc: u64, taken: bool) -> bool {
        let predicted = self.predict(pc);
        let correct = predicted == taken;
        if self.base.is_empty() {
            self.base = vec![0; 1 << BASE_BITS];
            self.tagged = vec![TaggedEntry::default(); TABLES << TABLE_BITS];
        }
        self.predictions += 1;
        if !correct {
            self.mispredicts += 1;
        }

        // Find the provider (longest hitting table).
        let mut provider: Option<usize> = None;
        for t in (0..TABLES).rev() {
            let idx = self.index(pc, t);
            if self.tagged[idx].tag == self.tag(pc, t) {
                provider = Some(t);
                break;
            }
        }

        match provider {
            Some(t) => {
                let idx = self.index(pc, t);
                let e = &mut self.tagged[idx];
                e.ctr = (e.ctr + if taken { 1 } else { -1 }).clamp(-4, 3);
                if correct {
                    e.useful = e.useful.saturating_add(1).min(3);
                } else if e.useful > 0 {
                    e.useful -= 1;
                }
            }
            None => {
                let idx = self.base_index(pc);
                let c = &mut self.base[idx];
                *c = (*c + if taken { 1 } else { -1 }).clamp(-2, 1);
            }
        }

        // Allocate a longer-history entry on mispredicts.
        if !correct {
            let start = provider.map_or(0, |t| t + 1);
            self.alloc_tick += 1;
            let mut allocated = false;
            for t in start..TABLES {
                let idx = self.index(pc, t);
                let tag = self.tag(pc, t);
                let e = &mut self.tagged[idx];
                if e.useful == 0 {
                    *e = TaggedEntry {
                        tag,
                        ctr: if taken { 0 } else { -1 },
                        useful: 0,
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated && self.alloc_tick.is_multiple_of(8) {
                // Gracefully age useful bits so allocation can't starve.
                for t in start..TABLES {
                    let idx = self.index(pc, t);
                    let e = &mut self.tagged[idx];
                    if e.useful > 0 {
                        e.useful -= 1;
                    }
                }
            }
        }

        self.ghist = (self.ghist << 1) | u64::from(taken);
        correct
    }

    /// Fraction of mispredicted branches so far (0 when none predicted).
    pub fn mispredict_rate(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.predictions as f64
        }
    }

    /// Branches predicted so far.
    pub fn predictions(&self) -> u64 {
        self.predictions
    }

    /// Mispredictions so far.
    pub fn mispredicts(&self) -> u64 {
        self.mispredicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken() {
        let mut p = Tage::new();
        for _ in 0..64 {
            p.update(0x400, true);
        }
        let before = p.mispredicts();
        for _ in 0..100 {
            p.update(0x400, true);
        }
        assert_eq!(
            p.mispredicts(),
            before,
            "steady-state always-taken is perfect"
        );
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        let mut p = Tage::new();
        let mut flip = false;
        // Warm up.
        for _ in 0..600 {
            p.update(0x400, flip);
            flip = !flip;
        }
        let before = p.mispredicts();
        for _ in 0..200 {
            p.update(0x400, flip);
            flip = !flip;
        }
        let wrong = p.mispredicts() - before;
        assert!(
            wrong < 20,
            "alternating should be nearly perfect, got {wrong}/200"
        );
    }

    #[test]
    fn random_pattern_near_half() {
        let mut p = Tage::new();
        // A fixed pseudo-random sequence.
        let mut x = 0x12345678u64;
        let mut wrong = 0u64;
        for _ in 0..4000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (x >> 62) & 1 == 1;
            if !p.update(0x400, taken) {
                wrong += 1;
            }
        }
        let rate = wrong as f64 / 4000.0;
        assert!(rate > 0.3, "cannot predict random, rate={rate}");
    }

    #[test]
    fn distinct_pcs_do_not_alias_in_base() {
        let mut p = Tage::new();
        for _ in 0..64 {
            p.update(0x400, true);
            p.update(0x800, false);
        }
        assert!(p.predict(0x400));
        assert!(!p.predict(0x800));
    }

    #[test]
    fn mispredict_rate_bounds() {
        let p = Tage::new();
        assert_eq!(p.mispredict_rate(), 0.0);
        let mut p = Tage::new();
        for i in 0..100u64 {
            p.update(0x40 + i * 4, i % 3 == 0);
        }
        let r = p.mispredict_rate();
        assert!((0.0..=1.0).contains(&r));
        assert_eq!(p.predictions(), 100);
    }
}
