//! Cycle-level execution of litmus programs — the simulation half of a
//! differential check. Shared by the sa-bench fuzzer and the service's
//! workers (sa-bench re-exports these from `sa_bench::fuzz`).

use sa_isa::rng::Xoshiro256;
use sa_isa::{ConsistencyModel, CoreId, Reg};
use sa_litmus::{LitmusTest, Outcome};
use sa_ooo::InjectedBug;
use sa_sim::{Multicore, SimConfig};

/// Runs `test` on the cycle-level simulator and extracts its outcome in
/// the oracle's format (one register per load in program order, plus
/// final memory).
pub fn run_on_sim(
    test: &LitmusTest,
    model: ConsistencyModel,
    pads: &[usize],
    bug: Option<InjectedBug>,
) -> Outcome {
    let traces = test.to_traces_padded(pads);
    let cfg = SimConfig::builder()
        .model(model)
        .cores(traces.len())
        .injected_bug(bug)
        .build()
        .expect("litmus sim config is valid");
    let mut sim = Multicore::new(cfg, traces);
    sim.run(5_000_000)
        .unwrap_or_else(|e| panic!("{} under {model}: {e}", test.name));
    // RMWs desugar to an extra load slot in both the lowering and the
    // explorer, so slot counts come from the desugared form.
    let desugared = test.desugared();
    let regs = (0..test.threads.len())
        .map(|t| {
            (0..desugared.loads_in(t))
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

/// The skew patterns a program is swept over. Every program gets the
/// aligned start plus single-thread skews; with `probe_sweep` set (the
/// engineered `probe_*` programs) every thread additionally sweeps the
/// §III-A window (the 150–280 range `tests/window_of_vulnerability.rs`
/// established — at retire width 5, a pad of `p` shifts a thread ~`p/5`
/// cycles against the common cold-miss alignment point), plus two random
/// patterns from the per-program stream.
pub fn pad_patterns(test: &LitmusTest, probe_sweep: bool, rng: &mut Xoshiro256) -> Vec<Vec<usize>> {
    let n = test.threads.len();
    let mut pats = vec![vec![0; n]];
    for skew in [60usize, 180, 260] {
        for t in 0..n {
            let mut p = vec![0; n];
            p[t] = skew;
            pats.push(p);
        }
    }
    if probe_sweep {
        for t in 0..n {
            for pad in (140..=300).step_by(10) {
                let mut p = vec![0; n];
                p[t] = pad;
                pats.push(p);
            }
        }
    }
    for _ in 0..2 {
        pats.push((0..n).map(|_| rng.gen_range_usize(0, 301)).collect());
    }
    pats
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_litmus::{policy_for, suite, Oracle};

    #[test]
    fn clean_sim_outcomes_are_oracle_contained() {
        let mut oracle = Oracle::new();
        for ct in [suite::n6(), suite::sb()] {
            for model in ConsistencyModel::ALL {
                let pads = vec![0; ct.test.threads.len()];
                let o = run_on_sim(&ct.test, model, &pads, None);
                assert!(
                    oracle.allowed(&ct.test, policy_for(model)).contains(&o),
                    "{} under {model}: {o}",
                    ct.test.name
                );
            }
        }
    }

    #[test]
    fn pad_patterns_shape() {
        let n6 = suite::n6().test;
        let mut rng = Xoshiro256::seed_from_u64(3);
        let plain = pad_patterns(&n6, false, &mut rng);
        // Aligned + 3 skews × 2 threads + 2 random.
        assert_eq!(plain.len(), 9);
        let probe = pad_patterns(&n6, true, &mut rng);
        assert!(probe.len() > plain.len(), "probe sweep adds the window");
        assert!(plain.iter().all(|p| p.len() == 2));
    }
}
