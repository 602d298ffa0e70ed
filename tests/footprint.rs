//! Construction-cost guard: a litmus-scale machine allocates in
//! proportion to what its run touches. Every allocation made while the
//! n6 machine is built, run and dropped under each configuration is
//! counted by a process-wide counting allocator, and the totals must
//! stay under bounds set from the current layout plus headroom, so a
//! structure that goes back to allocating its full geometry up front
//! fails here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use sa_isa::ConsistencyModel;
use sa_sim::{Multicore, SimConfig};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the measuring thread counts (the test harness allocates on
    /// its own threads).
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.with(Cell::get)
}

fn note_alloc(size: usize) {
    if counting() {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(size as u64, Relaxed);
        LIVE.fetch_add(size as u64, Relaxed);
    }
}

fn note_free(size: usize) {
    if counting() {
        LIVE.fetch_sub(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping around the
// calls only touches atomics and a const-initialised thread-local
// `Cell`, neither of which allocates or unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_free(layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_free(layout.size());
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` made by `f`, counted on this thread.
fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let (a0, b0) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (r, ALLOCS.load(Relaxed) - a0, BYTES.load(Relaxed) - b0)
}

#[test]
fn n6_machine_footprint_is_bounded() {
    // Measured on the two-core n6 machine: 67 allocations / 123,768
    // bytes to build, 74–86 allocations / 33–35 KB to run, in every
    // configuration. The bounds leave ~20% headroom. Before the
    // lazy-storage layout a build took 127 allocations / 239,000 bytes
    // and a run 72–92 allocations / ~130 KB.
    const BUILD_ALLOCS: u64 = 80;
    const BUILD_BYTES: u64 = 150_000;
    const RUN_ALLOCS: u64 = 105;
    const RUN_BYTES: u64 = 45_000;

    let n6 = sa_litmus::suite::by_name("n6").expect("n6 in suite").test;
    let pads = vec![0; n6.threads.len()];
    for model in ConsistencyModel::ALL {
        let live0 = LIVE.load(Relaxed);
        // Built the way the service builds a litmus machine: traces and
        // configuration count as construction.
        let (mut sim, build_allocs, build_bytes) = measure(|| {
            let traces = n6.to_traces_padded(&pads);
            let cfg = SimConfig::builder()
                .model(model)
                .cores(traces.len())
                .build()
                .expect("litmus config");
            Multicore::new(cfg, traces)
        });
        // The report is dropped inside the window, so everything the
        // run allocates is freed again by the end of the teardown.
        let (r, run_allocs, run_bytes) = measure(|| sim.run(5_000_000).map(drop));
        r.expect("n6 finishes");
        measure(|| drop(sim));
        let leaked = LIVE.load(Relaxed) - live0;
        println!(
            "{model}: build {build_allocs} allocs / {build_bytes} B, \
             run {run_allocs} allocs / {run_bytes} B"
        );
        assert!(
            build_allocs <= BUILD_ALLOCS && build_bytes <= BUILD_BYTES,
            "{model}: build made {build_allocs} allocations / {build_bytes} bytes \
             (bound {BUILD_ALLOCS} / {BUILD_BYTES})"
        );
        assert!(
            run_allocs <= RUN_ALLOCS && run_bytes <= RUN_BYTES,
            "{model}: run made {run_allocs} allocations / {run_bytes} bytes \
             (bound {RUN_ALLOCS} / {RUN_BYTES})"
        );
        assert_eq!(
            leaked, 0,
            "{model}: {leaked} bytes still allocated after drop"
        );
    }
}
