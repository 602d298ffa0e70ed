//! Benches mirroring the paper's tables and figures at reduced scale —
//! one group per artifact, so `cargo bench` exercises every experiment
//! end-to-end on the in-tree timing harness. The full-size outputs come
//! from `reproduce`, which writes every artifact into `results/`.

use sa_bench::harness::Group;
use sa_isa::ConsistencyModel;
use sa_litmus::{explore, suite, ForwardPolicy};
use sa_sim::{Multicore, SimConfig};
use sa_workloads::Suite;

const SCALE: usize = 1_500;

fn run(name: &str, model: ConsistencyModel) -> u64 {
    let w = sa_workloads::by_name(name).expect("known benchmark");
    let n = if w.suite == Suite::Parallel { 8 } else { 1 };
    let cfg = SimConfig::default().with_model(model).with_cores(n);
    let mut sim = Multicore::new(cfg, w.generate(n, SCALE, 42));
    sim.run(u64::MAX).expect("completes").cycles
}

fn main() {
    // Table II / Figures 1,2,3,5: exhaustive litmus exploration.
    let g = Group::new("table2_litmus");
    for ct in [suite::n6(), suite::fig5(), suite::iriw()] {
        g.bench(&format!("x86/{}", ct.test.name), || {
            explore(&ct.test, ForwardPolicy::X86).len()
        });
        g.bench(&format!("370/{}", ct.test.name), || {
            explore(&ct.test, ForwardPolicy::StoreAtomic370).len()
        });
    }

    // Table IV: the characterization run (SLFSoS-key on a
    // forwarding-heavy and an eviction-heavy benchmark).
    let g = Group::new("table4_characterization");
    for name in ["barnes", "505.mcf"] {
        g.bench(name, || run(name, ConsistencyModel::Ibm370SlfSosKey));
    }

    // Figure 9 / Figure 10: the five-configuration comparison on one
    // benchmark (stall attribution and execution time come from the
    // same runs).
    let g = Group::new("fig9_fig10_models");
    for model in ConsistencyModel::ALL {
        g.bench(model.label(), || run("water_spatial", model));
    }
}
