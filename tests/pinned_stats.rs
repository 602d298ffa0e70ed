//! Exact simulated statistics of the pinned suite
//! ([`sa_bench::pinned_suite`]: two litmus tests, three parallel
//! workloads and two SPEC workloads), each under all five consistency
//! configurations at scale 2000, seed 42 — the cells `perf` profiles and
//! `forensics` analyses.
//!
//! Every row pins the same five numbers as `perfbench/expected`: final
//! cycles, retired instructions, squashes, gate-closed cycles and SB
//! commits. A change that moves any of them in any cell, even one
//! squash with the cycle count unchanged, fails here. After an
//! intentional timing change, copy the observed rows the failure prints
//! into [`EXPECTED`].

use sa_bench::{pinned_suite, suite_cores, PINNED_LITMUS};
use sa_isa::{ConsistencyModel, Trace};
use sa_sim::{Multicore, SimConfig};

/// Instructions per core of the workload cells.
const SCALE: usize = 2_000;
/// Trace-generation seed of the workload cells.
const SEED: u64 = 42;

/// `cell  cycles  retired  squashes  gate_closed_cycles  sb_commits`,
/// one row per (benchmark, configuration), in suite order.
const EXPECTED: &str = "\
n6.x86                     266      5   0      0     3
n6.370-NoSpec              289      5   1      0     3
n6.370-SLFSpec             289      5   1      0     3
n6.370-SLFSoS              289      5   1    232     3
n6.370-SLFSoS-key          289      5   1    232     3
mp.x86                     266      4   0      0     2
mp.370-NoSpec              266      4   0      0     2
mp.370-SLFSpec             266      4   0      0     2
mp.370-SLFSoS              266      4   0      0     2
mp.370-SLFSoS-key          266      4   0      0     2
barnes.x86                3321  16000   0      0  2890
barnes.370-NoSpec         3477  16000   0      0  2890
barnes.370-SLFSpec        3635  16000   0      0  2890
barnes.370-SLFSoS         3443  16000   0  21569  2890
barnes.370-SLFSoS-key     3339  16000   0  21211  2890
radix.x86                 8702  16000   8      0  3902
radix.370-NoSpec          8745  16000   8      0  3902
radix.370-SLFSpec         8710  16000   8      0  3902
radix.370-SLFSoS          8680  16000   7  26887  3902
radix.370-SLFSoS-key      8705  16000   8  24640  3902
x264.x86                  3866  16001  25      0  1574
x264.370-NoSpec           4802  16001  28      0  1574
x264.370-SLFSpec          4812  16001  49      0  1574
x264.370-SLFSoS           4591  16001  43  14328  1574
x264.370-SLFSoS-key       4604  16001  31  12274  1574
505.mcf.x86               7955   2000  14      0   175
505.mcf.370-NoSpec        7924   2000   6      0   175
505.mcf.370-SLFSpec       7930   2000  10      0   175
505.mcf.370-SLFSoS        8053   2000  16    586   175
505.mcf.370-SLFSoS-key    7970   2000  16    359   175
557.xz_2.x86              2306   2000   2      0   190
557.xz_2.370-NoSpec       2401   2000   2      0   190
557.xz_2.370-SLFSpec      2344   2000   2      0   190
557.xz_2.370-SLFSoS       2339   2000   2    679   190
557.xz_2.370-SLFSoS-key   2331   2000   2    603   190
";

/// The programs of one pinned benchmark on its machine: litmus tests on
/// one core per thread, parallel workloads on 8 cores, SPEC on 1.
fn traces(name: &str) -> Vec<Trace> {
    if PINNED_LITMUS.contains(&name) {
        let ct = sa_litmus::suite::by_name(name).expect("pinned litmus test exists");
        return ct.test.to_traces();
    }
    let w = sa_workloads::by_name(name).expect("pinned workload exists");
    w.generate(suite_cores(&w), SCALE, SEED)
}

/// One cell's row, in [`EXPECTED`]'s format.
fn observe(name: &str, model: ConsistencyModel) -> String {
    let traces = traces(name);
    let cfg = SimConfig::default()
        .with_model(model)
        .with_cores(traces.len());
    let report = Multicore::new(cfg, traces)
        .run(u64::MAX)
        .unwrap_or_else(|e| panic!("{name} under {model}: {e}"));
    let total = report.total();
    format!(
        "{:<24}{:>6}{:>7}{:>4}{:>7}{:>6}",
        format!("{name}.{}", model.label()),
        report.cycles,
        total.retired_instrs,
        total.squashes.iter().sum::<u64>(),
        total.gate_closed_cycles,
        total.sb_commits,
    )
}

#[test]
fn pinned_suite_statistics_are_exact() {
    let cells: Vec<(&str, ConsistencyModel)> = pinned_suite()
        .flat_map(|n| ConsistencyModel::ALL.map(|m| (n, m)))
        .collect();
    let expected: Vec<&str> = EXPECTED.lines().collect();
    let listed: Vec<String> = cells
        .iter()
        .map(|(n, m)| format!("{n}.{}", m.label()))
        .collect();
    let rows: Vec<&str> = expected
        .iter()
        .map(|row| row.split_whitespace().next().unwrap_or(""))
        .collect();
    assert_eq!(
        rows, listed,
        "EXPECTED holds one row per pinned cell, in order"
    );
    let observed: Vec<String> = cells.iter().map(|&(n, m)| observe(n, m)).collect();
    let fields = |row: &str| row.split_whitespace().map(String::from).collect::<Vec<_>>();
    let wrong: Vec<String> = observed
        .iter()
        .zip(&expected)
        .filter(|(o, e)| fields(o) != fields(e))
        .map(|(o, e)| format!("  expected {e}\n  observed {o}"))
        .collect();
    assert!(
        wrong.is_empty(),
        "{} of {} pinned cells differ:\n{}\nall observed rows:\n{}",
        wrong.len(),
        observed.len(),
        wrong.join("\n"),
        observed.join("\n"),
    );
}
