//! Seeded random litmus-program generation for the differential fuzzer.
//!
//! Programs are drawn from a small, deliberately adversarial space:
//! 2–8 threads, a handful of operations each, over at most a few shared
//! variables — exactly the regime in which store-buffer forwarding,
//! fences and the retire gate interact. The mix is biased so that loads
//! preferentially target variables the same thread already stored to
//! (making store-to-load forwarding, the paper's whole subject, a
//! frequent event) and so that a forwarded load often has *older*
//! unrelated stores sitting in front of its forwarding store in the SB —
//! the shape that distinguishes the key-matched gate reopen from "any
//! commit reopens" (the `gate-key` mutation).
//!
//! Everything is driven by the caller's [`Xoshiro256`], so a fuzzing run
//! is reproducible from one `u64` seed.

use sa_isa::rng::Xoshiro256;

use crate::ast::{LOp, LitmusTest, Var};

/// Knobs for the program generator. The defaults keep the state space of
/// the exhaustive oracle small (a state is every thread's pc and drained
/// store count plus memory and the loaded values, so total operation
/// count is the budget that matters) while still covering 2–8 threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenConfig {
    /// Maximum thread count (clamped to 2..=8; the draw is biased toward
    /// 2–3 threads, where interesting interleavings are densest).
    pub max_threads: usize,
    /// Total operation budget across all threads.
    pub total_ops: usize,
    /// Number of shared variables (`x`, `y`, `z`, ...).
    pub vars: u8,
    /// Store/RMW values are drawn from `1..=max_value`.
    pub max_value: u64,
    /// Include RMWs in the mix.
    pub rmw: bool,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            max_threads: 8,
            total_ops: 10,
            vars: 3,
            max_value: 2,
            rmw: true,
        }
    }
}

/// Draws a thread count in `2..=max`, biased toward small counts.
fn draw_threads(rng: &mut Xoshiro256, max: usize) -> usize {
    let max = max.clamp(2, 8);
    // Roughly: 2 threads 45%, 3 threads 30%, then a thinning tail.
    let weights = [45u64, 30, 12, 6, 4, 2, 1];
    let avail = &weights[..max - 1];
    let total: u64 = avail.iter().sum();
    let mut roll = rng.gen_range_u64(0, total);
    for (i, w) in avail.iter().enumerate() {
        if roll < *w {
            return i + 2;
        }
        roll -= w;
    }
    2
}

/// One random operation for a thread that has already issued
/// `stored_vars` stores (used to bias loads toward forwardable
/// addresses).
fn draw_op(rng: &mut Xoshiro256, cfg: &GenConfig, stored_vars: &[Var]) -> LOp {
    let var = |rng: &mut Xoshiro256| Var(rng.gen_range_u64(0, u64::from(cfg.vars)) as u8);
    let val = |rng: &mut Xoshiro256| rng.gen_range_inclusive_u64(1, cfg.max_value);
    let rmw_w = if cfg.rmw { 10 } else { 0 };
    // St 40 / Ld 42 / Fence 8 / Rmw 10 (out of 100).
    match rng.gen_range_u64(0, 90 + rmw_w) {
        0..=39 => LOp::St(var(rng), val(rng)),
        40..=81 => {
            // 60% of loads re-read a variable this thread stored to,
            // when one exists — the forwarding bias.
            let v = if !stored_vars.is_empty() && rng.gen_range_u64(0, 10) < 6 {
                stored_vars[rng.gen_range_usize(0, stored_vars.len())]
            } else {
                var(rng)
            };
            LOp::Ld(v)
        }
        82..=89 => LOp::Fence,
        _ => LOp::Rmw(var(rng), val(rng)),
    }
}

/// Generates one random litmus program from `rng`.
///
/// The budget in `cfg.total_ops` is split across the drawn thread count
/// (every thread gets at least one operation); per-thread order is
/// preserved as generated.
pub fn generate(rng: &mut Xoshiro256, cfg: &GenConfig) -> LitmusTest {
    let n_threads = draw_threads(rng, cfg.max_threads);
    let budget = cfg.total_ops.max(n_threads);
    // Split the budget: each thread gets 1 plus a random share.
    let mut lens = vec![1usize; n_threads];
    for _ in 0..budget - n_threads {
        let t = rng.gen_range_usize(0, n_threads);
        lens[t] += 1;
    }
    let threads = lens
        .iter()
        .map(|&len| {
            let mut stored: Vec<Var> = Vec::new();
            (0..len)
                .map(|_| {
                    let op = draw_op(rng, cfg, &stored);
                    if let LOp::St(v, _) | LOp::Rmw(v, _) = op {
                        if !stored.contains(&v) {
                            stored.push(v);
                        }
                    }
                    op
                })
                .collect()
        })
        .collect();
    LitmusTest::new("gen", threads)
}

/// An unbounded, seed-deterministic stream of generated programs — the
/// resident generator behind both batch corpora ([`generate_corpus`])
/// and sa-serve's continuous fuzzing farm. Each program gets its own
/// [`Xoshiro256`] stream derived from the master seed, so program `i` is
/// stable regardless of how many programs are ultimately drawn (and
/// regardless of worker scheduling).
#[derive(Debug, Clone)]
pub struct CorpusStream {
    sm: sa_isa::rng::SplitMix64,
    cfg: GenConfig,
    drawn: u64,
}

impl CorpusStream {
    /// A stream reproducible from `seed`.
    pub fn new(seed: u64, cfg: GenConfig) -> CorpusStream {
        CorpusStream {
            sm: sa_isa::rng::SplitMix64::new(seed),
            cfg,
            drawn: 0,
        }
    }

    /// Programs drawn so far.
    pub fn drawn(&self) -> u64 {
        self.drawn
    }
}

impl Iterator for CorpusStream {
    type Item = LitmusTest;

    /// Never returns `None`; the stream is infinite.
    fn next(&mut self) -> Option<LitmusTest> {
        let mut rng = Xoshiro256::seed_from_u64(self.sm.next_u64());
        self.drawn += 1;
        Some(generate(&mut rng, &self.cfg))
    }
}

/// Generates `n` programs from one seed — the corpus of a fuzzing run.
/// Program `i` equals the `i`-th draw of [`CorpusStream`] with the same
/// seed and config.
pub fn generate_corpus(seed: u64, n: usize, cfg: &GenConfig) -> Vec<LitmusTest> {
    CorpusStream::new(seed, cfg.clone()).take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_budget_and_thread_bounds() {
        let cfg = GenConfig::default();
        let mut rng = Xoshiro256::seed_from_u64(1);
        for _ in 0..200 {
            let t = generate(&mut rng, &cfg);
            assert!((2..=8).contains(&t.threads.len()));
            assert_eq!(t.total_ops(), cfg.total_ops);
            assert!(t.threads.iter().all(|ops| !ops.is_empty()));
            for op in t.threads.iter().flatten() {
                match op {
                    LOp::St(v, val) | LOp::Rmw(v, val) => {
                        assert!(v.0 < cfg.vars);
                        assert!((1..=cfg.max_value).contains(val));
                    }
                    LOp::Ld(v) => assert!(v.0 < cfg.vars),
                    LOp::Fence => {}
                }
            }
        }
    }

    #[test]
    fn deterministic_from_seed() {
        let cfg = GenConfig::default();
        let a = generate_corpus(4, 50, &cfg);
        let b = generate_corpus(4, 50, &cfg);
        assert_eq!(a, b);
        // Program i is stable under a longer run.
        let c = generate_corpus(4, 10, &cfg);
        assert_eq!(&a[..10], &c[..]);
    }

    #[test]
    fn stream_matches_corpus_and_counts_draws() {
        let cfg = GenConfig::default();
        let mut stream = CorpusStream::new(4, cfg.clone());
        let from_stream: Vec<LitmusTest> = stream.by_ref().take(20).collect();
        assert_eq!(from_stream, generate_corpus(4, 20, &cfg));
        assert_eq!(stream.drawn(), 20);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = GenConfig::default();
        assert_ne!(generate_corpus(1, 20, &cfg), generate_corpus(2, 20, &cfg));
    }

    #[test]
    fn rmw_can_be_disabled() {
        let cfg = GenConfig {
            rmw: false,
            ..GenConfig::default()
        };
        let progs = generate_corpus(7, 100, &cfg);
        assert!(progs
            .iter()
            .flat_map(|t| t.threads.iter().flatten())
            .all(|op| !matches!(op, LOp::Rmw(..))));
    }

    #[test]
    fn generated_programs_explore_quickly() {
        // The default budget must keep the exhaustive oracle tractable.
        let cfg = GenConfig::default();
        let mut rng = Xoshiro256::seed_from_u64(99);
        for _ in 0..20 {
            let t = generate(&mut rng, &cfg);
            let set = crate::machine::explore(&t, crate::machine::ForwardPolicy::X86);
            assert!(!set.is_empty());
        }
    }
}
