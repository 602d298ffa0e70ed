//! The event-driven engine's contract: cycle skipping is an
//! optimization, not a semantic change. For every workload and every
//! consistency configuration, the skipping engine must produce a
//! [`Report`] bit-identical to the lockstep engine and to the
//! per-cycle [`Multicore::step`] reference — same final cycle count,
//! same per-core statistics and CPI stacks, same time-series samples —
//! and identical architectural outcomes (registers and memory).

use sa_isa::{ConsistencyModel, CoreId, Reg, Trace};
use sa_litmus::{suite, LitmusTest};
use sa_sim::{EngineMode, Multicore, Report, SimConfig};

/// Runs the same machine three ways — event-driven, lockstep, and a
/// plain [`Multicore::step`] loop — and returns the first two
/// simulators after asserting the three reports are identical.
fn run_both(cfg: SimConfig, traces: Vec<Trace>, label: &str) -> (Multicore, Multicore) {
    let mut skip = Multicore::new(
        cfg.clone().with_engine(EngineMode::EventDriven),
        traces.clone(),
    );
    let mut lock = Multicore::new(
        cfg.clone().with_engine(EngineMode::Lockstep),
        traces.clone(),
    );
    let mut reference = Multicore::new(cfg, traces);
    let rs: Report = skip.run(u64::MAX).expect("event engine completes");
    let rl: Report = lock.run(u64::MAX).expect("lockstep engine completes");
    while !reference.finished() {
        reference.step();
    }
    let rr = reference.report();
    assert_eq!(rs.cycles, rr.cycles, "{label}: final cycle counts differ");
    assert_eq!(rs, rr, "{label}: event-driven and step() reports differ");
    assert_eq!(rl, rr, "{label}: lockstep and step() reports differ");
    (skip, lock)
}

/// Litmus programs (with deliberate skews so cores sleep at different
/// times) across all five configurations: identical reports and
/// identical architectural outcomes.
#[test]
fn litmus_outcomes_and_reports_match() {
    for ct in [suite::n6(), suite::mp(), suite::sb()] {
        let n = ct.test.threads.len();
        let pads: Vec<Vec<usize>> = vec![vec![0; n], {
            let mut p = vec![0; n];
            p[0] = 120;
            p
        }];
        for model in ConsistencyModel::ALL {
            for pad in &pads {
                let traces = ct.test.to_traces_padded(pad);
                let cfg = SimConfig::default()
                    .with_model(model)
                    .with_cores(traces.len());
                let label = format!("{} under {model} pads {pad:?}", ct.test.name);
                let (skip, lock) = run_both(cfg, traces, &label);
                for t in 0..n {
                    for slot in 0..ct.test.loads_in(t) {
                        let r = Reg::new(slot as u8);
                        assert_eq!(
                            skip.core(CoreId::from_index(t)).arch_reg(r),
                            lock.core(CoreId::from_index(t)).arch_reg(r),
                            "{label}: thread {t} r{slot}"
                        );
                    }
                }
                for v in ct.test.vars() {
                    let a = LitmusTest::var_addr(v);
                    assert_eq!(
                        skip.memory().read(a, 8),
                        lock.memory().read(a, 8),
                        "{label}: var {v:?}"
                    );
                }
            }
        }
    }
}

/// 8-core parallel workloads with a fine sampling interval: the
/// skipping engine must land a sample on every interval boundary the
/// per-cycle loops do, with identical contents. radix and canneal fill
/// the MSHRs (each cell books about a million rejections), so cores
/// sleep through memoized rejections and must wake when their reject
/// stamp moves.
#[test]
fn sampler_series_identical_under_skipping() {
    for name in ["dedup", "radix", "canneal"] {
        let w = sa_workloads::by_name(name).expect("workload exists");
        for model in ConsistencyModel::ALL {
            let cfg = SimConfig::default()
                .with_model(model)
                .with_cores(8)
                .with_sample_interval(64);
            let (skip, _) = run_both(
                cfg,
                w.generate(8, 1_500, 99),
                &format!("{name} under {model}"),
            );
            assert!(
                !skip.report().samples.is_empty(),
                "{name} under {model}: a 64-cycle interval must produce samples"
            );
        }
    }
}

/// Single-core runs (long memory stalls, the deepest skips) stay
/// cycle-exact too. These cells must book MSHR rejections, so the
/// memoized-rejection sleep stays covered here.
#[test]
fn single_core_workload_matches() {
    let w = sa_workloads::by_name("505.mcf").expect("505.mcf exists");
    for model in ConsistencyModel::ALL {
        let cfg = SimConfig::default().with_model(model).with_cores(1);
        let (skip, _) = run_both(
            cfg,
            w.generate(1, 1_000, 7),
            &format!("505.mcf under {model}"),
        );
        let rejects: u64 = skip
            .report()
            .mem
            .per_core
            .iter()
            .map(|c| c.mshr_rejects)
            .sum();
        assert!(rejects > 0, "505.mcf under {model}: no MSHR rejections");
    }
}
