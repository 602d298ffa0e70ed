//! Cross-validation of the cycle-level simulator against the exhaustive
//! operational model: for every litmus test, every consistency
//! configuration, and a spread of core skews, the cycle-level outcome
//! must lie inside the corresponding model's allowed-outcome set.
//!
//! This is the strongest correctness statement in the repository: the
//! detailed microarchitecture (OoO window, retire gate, MESI directory,
//! network timing) never produces an execution its memory model forbids.

use sa_isa::{ConsistencyModel, CoreId, Reg};
use sa_litmus::{explore, suite, ForwardPolicy, LitmusTest, Outcome};
use sa_sim::{Multicore, SimConfig};

fn run_cycle_level(test: &LitmusTest, model: ConsistencyModel, pads: &[usize]) -> Outcome {
    let traces = test.to_traces_padded(pads);
    let cfg = SimConfig::default()
        .with_model(model)
        .with_cores(traces.len());
    let mut sim = Multicore::new(cfg, traces);
    sim.run(5_000_000)
        .unwrap_or_else(|e| panic!("{} under {model}: {e}", test.name));
    let regs = (0..test.threads.len())
        .map(|t| {
            (0..test.loads_in(t))
                .map(|slot| {
                    sim.core(CoreId::from_index(t))
                        .arch_reg(Reg::new(slot as u8))
                })
                .collect()
        })
        .collect();
    let mem = test
        .vars()
        .into_iter()
        .map(|v| (v, sim.memory().read(LitmusTest::var_addr(v), 8)))
        .collect();
    Outcome { regs, mem }
}

fn pad_patterns(n_threads: usize) -> Vec<Vec<usize>> {
    let mut pats = vec![vec![0; n_threads]];
    for skew in [25usize, 60, 120, 300] {
        for t in 0..n_threads {
            let mut p = vec![0; n_threads];
            p[t] = skew;
            pats.push(p.clone());
            // And the complementary pattern: everyone else skewed.
            let q: Vec<usize> = (0..n_threads)
                .map(|i| if i == t { 0 } else { skew })
                .collect();
            pats.push(q);
        }
    }
    pats
}

#[test]
fn cycle_level_outcomes_are_model_allowed() {
    for ct in suite::all() {
        let x86_set = explore(&ct.test, ForwardPolicy::X86);
        let ibm_set = explore(&ct.test, ForwardPolicy::StoreAtomic370);
        for model in ConsistencyModel::ALL {
            let allowed = if model.is_store_atomic() {
                &ibm_set
            } else {
                &x86_set
            };
            for pads in pad_patterns(ct.test.threads.len()) {
                let o = run_cycle_level(&ct.test, model, &pads);
                assert!(
                    allowed.contains(&o),
                    "{} under {model} with pads {pads:?} produced {o}, which the \
                     memory model forbids",
                    ct.test.name
                );
            }
        }
    }
}

/// The simulator's sequential semantics: a single-threaded store/load
/// chain produces the unique architectural result under every model.
#[test]
fn single_thread_unique_outcome() {
    use sa_litmus::ast::{LOp::*, X, Y};
    let t = LitmusTest::new("seq", vec![vec![St(X, 3), Ld(X), St(Y, 4), Ld(Y), Ld(X)]]);
    for model in ConsistencyModel::ALL {
        let o = run_cycle_level(&t, model, &[0]);
        assert_eq!(o.regs[0], vec![3, 4, 3], "{model}");
        assert_eq!(o.mem[&X], 3, "{model}");
        assert_eq!(o.mem[&Y], 4, "{model}");
    }
}

mod fuzz {
    use super::*;
    use sa_isa::rng::Xoshiro256;
    use sa_litmus::ast::{LOp, Var};

    fn random_op(rng: &mut Xoshiro256) -> LOp {
        match rng.gen_range_u64(0, 9) {
            0..=3 => LOp::St(Var(rng.gen_range_u64(0, 2) as u8), rng.gen_range_u64(1, 3)),
            4..=7 => LOp::Ld(Var(rng.gen_range_u64(0, 2) as u8)),
            _ => LOp::Fence,
        }
    }

    fn random_program(rng: &mut Xoshiro256) -> LitmusTest {
        let threads = (0..2)
            .map(|_| {
                let len = rng.gen_range_usize(1, 4);
                (0..len).map(|_| random_op(rng)).collect()
            })
            .collect();
        LitmusTest::new("fuzz", threads)
    }

    /// Randomized cross-validation: on random 2-thread programs, the
    /// cycle-level machine only ever produces outcomes its memory
    /// model's exhaustive operational exploration allows.
    #[test]
    fn random_programs_stay_model_allowed() {
        let mut rng = Xoshiro256::seed_from_u64(0xF022_0001);
        for _ in 0..24 {
            let t = random_program(&mut rng);
            let pad0 = rng.gen_range_usize(0, 120);
            let pad1 = rng.gen_range_usize(0, 120);
            let x86_set = explore(&t, ForwardPolicy::X86);
            let ibm_set = explore(&t, ForwardPolicy::StoreAtomic370);
            for model in [
                ConsistencyModel::X86,
                ConsistencyModel::Ibm370NoSpec,
                ConsistencyModel::Ibm370SlfSosKey,
            ] {
                let allowed = if model.is_store_atomic() {
                    &ibm_set
                } else {
                    &x86_set
                };
                let o = run_cycle_level(&t, model, &[pad0, pad1]);
                assert!(
                    allowed.contains(&o),
                    "{model} with pads ({pad0},{pad1}) produced {o}"
                );
            }
        }
    }
}
