//! Zero-allocation assertion for the multi-core run loop: after
//! warm-up, `SmpSim::run` must process a whole arrival stream —
//! steering, batching, shared-L2 charging, hand-offs, metrics
//! recording — without touching the heap. The allocating report
//! assembly is deliberately split into `SmpSim::outcome`, which runs
//! outside the measured window.
//!
//! A counting global allocator (this test binary only) measures exact
//! allocation counts around the steady-state loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ldlp::{BatchPolicy, Discipline};
use simnet::traffic::{PoissonSource, TrafficSource};
use simnet::{tag_flows, DispatchPolicy, FlowArrival, SmpConfig, SmpSim};

struct CountingAlloc;

// Per-thread count, so a measurement window only sees its own test's
// allocations — the harness runs tests (and its own bookkeeping) on
// concurrent threads. `Cell<u64>` has no destructor and const init, so
// the allocator never recurses or touches torn-down TLS.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: pure pass-through to the System allocator; the only extra
// work is bumping a no-destructor, const-initialised thread-local
// counter, which never allocates, never unwinds, and never re-enters
// the allocator — so System's layout/aliasing contracts are preserved
// verbatim.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: delegates to System.alloc with the caller's layout.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    // SAFETY: delegates to System.dealloc; `ptr`/`layout` obligations
    // pass straight through from the caller.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: delegates to System.realloc; `ptr`/`layout`/`new_size`
    // obligations pass straight through from the caller.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn steady_state_allocs(dispatch: DispatchPolicy, metrics: bool) -> u64 {
    let duration_s = 0.02;
    let cfg = SmpConfig {
        duration_s,
        ..SmpConfig::new(4, dispatch, Discipline::Ldlp(BatchPolicy::DCacheFit))
    };
    let raw = PoissonSource::new(4000.0, 552, 7).take_until(duration_s);
    let arrivals: Vec<FlowArrival> = tag_flows(&raw, 32, 7);

    let mut sim = SmpSim::new(&cfg);
    if metrics {
        // Interning happens here, outside the measurement window; the
        // per-batch fold must then be allocation-free.
        sim.set_sinks(false);
    }

    // Warm up: grow the sample vectors, scratch buffers, replay memo
    // tables, steering map, and the coherence directory to their fixed
    // points. The data-sweep memo keys on D-cache + DTLB state, so under
    // flow-hash steering its state graph takes ~75 runs to close; 150
    // leaves margin.
    for _ in 0..150 {
        sim.run(&arrivals);
    }

    let before = ALLOCS.with(|c| c.get());
    for _ in 0..100 {
        sim.run(&arrivals);
    }
    ALLOCS.with(|c| c.get()) - before
}

#[test]
fn flow_hash_run_loop_does_not_allocate() {
    assert_eq!(
        steady_state_allocs(DispatchPolicy::FlowHash, false),
        0,
        "steady-state multi-core runs must reuse preallocated state"
    );
}

#[test]
fn round_robin_run_loop_does_not_allocate() {
    assert_eq!(
        steady_state_allocs(DispatchPolicy::RoundRobin, false),
        0,
        "steady-state multi-core runs must reuse preallocated state"
    );
}

#[test]
fn layer_affinity_run_loop_does_not_allocate() {
    assert_eq!(
        steady_state_allocs(DispatchPolicy::LayerAffinity, false),
        0,
        "pipelined hand-offs must reuse preallocated queues"
    );
}

#[test]
fn metrics_sink_run_loop_does_not_allocate() {
    // Metrics mode (no span collection) folds every per-core event into
    // preallocated accumulators: observing must not add heap traffic.
    assert_eq!(
        steady_state_allocs(DispatchPolicy::LayerAffinity, true),
        0,
        "metrics-mode observation must not allocate per batch"
    );
}
