//! Heap-profiling assertion for the iteration-workspace contract: after a
//! warm-up pass sizes every reusable buffer, an engine's `iterate` — the
//! Algorithm-4 iteration `EggSync::cluster` runs: grid refresh,
//! EGG-update, exact-termination check, finish pass and swap, stage
//! clocks included — performs **zero heap allocations**.
//!
//! The test binary installs a counting `#[global_allocator]`, so it lives
//! in its own integration-test target to leave every other test unaffected.
//! Most checks drive the sequential executor, which isolates the
//! engine's own buffers; the host engine's check also runs over four pool
//! workers, whose dispatch allocates nothing either.
//!
//! The counter is process-wide, so the binary holds a single libtest test
//! that runs every check in turn. libtest's main thread allocates whenever
//! a test of the binary finishes (recording its result, spawning the next
//! test's thread), and with several tests that bookkeeping can land in
//! whichever measured window is open at the time. With one test the
//! harness stays parked until the end, and no other test's warm-up or
//! teardown can overlap a window either. The counter stays global rather
//! than thread-local because the pooled check must also see its worker
//! threads' allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use egg_gpu_sim::{Device, DeviceConfig};
use egg_sync_core::egg::algorithm::{DeviceEngine, Engine, HostEngine};
use egg_sync_core::egg::shard::ShardedEngine;
use egg_sync_core::egg::update::UpdateOptions;
use egg_sync_core::exec::Executor;
use egg_sync_core::grid::{GridGeometry, GridVariant, ShardPlan};
use egg_sync_core::instrument::StageTimings;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The binary's only test: every steady-state check, one after another
/// (see the module docs for why they share one test).
#[test]
fn steady_state_loops_do_not_allocate() {
    steady_state_iterations_do_not_allocate();
    incremental_steady_state_does_not_allocate();
    device_steady_state_does_not_allocate();
    pooled_dispatch_does_not_allocate();
    sharded_steady_state_does_not_allocate();
}

/// Heap allocations made by `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// Run `warm_up` iterations of `engine`, which size every buffer (the
/// second and later while points are still in motion), then return the
/// allocations of `window` more.
fn steady_allocations(
    engine: &mut impl Engine,
    exec: &Executor,
    warm_up: usize,
    window: usize,
) -> u64 {
    let mut stages = StageTimings::default();
    for _ in 0..warm_up {
        engine.iterate(exec, &mut stages);
    }
    allocations(|| {
        for _ in 0..window {
            engine.iterate(exec, &mut stages);
        }
    })
}

fn cloud(n: usize, dim: usize) -> Vec<f64> {
    (0..n * dim)
        .map(|i| ((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 1000.0)
        .collect()
}

const N: usize = 3000;
const DIM: usize = 2;
const EPS: f64 = 0.05;

/// The single-grid host engine over [`cloud`], rebuilding its grid every
/// iteration or maintaining it incrementally.
fn host_engine(incremental: bool) -> HostEngine {
    let geometry = GridGeometry::new(DIM, EPS, N, GridVariant::Auto);
    let options = UpdateOptions {
        use_incremental: incremental,
        ..UpdateOptions::default()
    };
    HostEngine::new(geometry, EPS, options, &cloud(N, DIM))
}

fn steady_state_iterations_do_not_allocate() {
    // the once-per-run workspace: ping-pong coordinates, the reusable
    // grid (CSR arrays, summaries, trig tables) and the update scratch —
    // on one worker, and fanned out over 4 pool workers, whose dispatch
    // allocates nothing either (`pooled_dispatch_does_not_allocate`)
    for workers in [1, 4] {
        let mut engine = host_engine(false);
        let exec = Executor::new(Some(workers));
        assert_eq!(
            steady_allocations(&mut engine, &exec, 2, 5),
            0,
            "steady-state iterations on {workers} workers must not touch the heap"
        );
    }
}

fn incremental_steady_state_does_not_allocate() {
    // same contract for the incremental pipeline: grid refresh driven by
    // the mover flags, skip-aware update, confinement-narrowed second term
    let exec = Executor::sequential();
    let mut engine = host_engine(true);
    let mut stages = StageTimings::default();

    // whether the iteration's refresh re-binned points incrementally: only
    // that path swaps the lane tables with their previous copies
    let mut iterate_rebins = |engine: &mut HostEngine| {
        engine.iterate(&exec, &mut stages);
        let stats = engine.last_refresh();
        stats.rebinned_points > 0 && !stats.full_rebuild
    };

    // warm-up: size every reusable buffer, including the incremental
    // scratch (changer lists, merge buffers, flag vectors, previous lane
    // tables)
    let rebins = (0..3).filter(|_| iterate_rebins(&mut engine)).count();
    assert!(rebins > 0, "the warm-up must run a re-binning refresh");

    let mut rebins = 0;
    let allocated = allocations(|| {
        rebins = (0..5).filter(|_| iterate_rebins(&mut engine)).count();
    });
    assert!(rebins > 0, "the window must run a re-binning refresh");
    assert_eq!(
        allocated, 0,
        "incremental steady-state iterations must not touch the heap"
    );
}

fn device_steady_state_does_not_allocate() {
    // same contract for the simulated-GPU engine: the per-cell table
    // writer must reuse the workspace's lane and summary buffers rather
    // than staging through fresh allocations. The device runs
    // single-threaded (the bitwise-deterministic simulator config), so no
    // `thread::scope` spawns dilute the measurement, and the kernel log is
    // reserved ahead of the measured window.
    let n = 2000;
    let device = Device::new(DeviceConfig {
        host_threads: Some(1),
        ..DeviceConfig::default()
    });
    let geometry = GridGeometry::new(DIM, EPS, n, GridVariant::Auto);
    let options = UpdateOptions {
        use_incremental: false,
        ..UpdateOptions::default()
    };
    let mut engine = DeviceEngine::new(&device, geometry, EPS, options, &cloud(n, DIM));
    device.reserve_kernel_log(4096);
    assert_eq!(
        steady_allocations(&mut engine, &Executor::sequential(), 2, 5),
        0,
        "device steady-state iterations must not touch the heap"
    );
}

fn pooled_dispatch_does_not_allocate() {
    // the worker-pool contract: after construction spawns the long-lived
    // workers, a parallel dispatch is pure synchronization — publishing
    // the shared closure pointer and blocking on a condvar — so repeated
    // dispatches must never touch the heap
    let exec = Executor::new(Some(4));
    let mut out = vec![0usize; 64];

    // warm-up: first dispatches size nothing, but let lazy thread-local
    // or lock state settle before the measured window
    let mut dispatch = || {
        exec.map_ranges_into(4096, 128, &mut out, |r| r.sum::<usize>());
        exec.all(4096, 128, |i| i < 4096);
    };
    (0..3).for_each(|_| dispatch());
    let allocated = allocations(|| (0..100).for_each(|_| dispatch()));
    assert_eq!(allocated, 0, "pooled dispatch must not touch the heap");
}

fn sharded_steady_state_does_not_allocate() {
    // the sharding contract's steady-state clause: once converged, member
    // lists are stable, the exchange buffer stays empty, and a full
    // synchronized iteration across all shards is allocation-free
    let exec = Executor::sequential();
    let geometry = GridGeometry::new(DIM, EPS, N, GridVariant::Auto);
    let plan = ShardPlan::new(&geometry, 4);
    assert_eq!(plan.count(), 4, "domain must be wide enough for 4 shards");
    let options = UpdateOptions::default();
    let mut engine = ShardedEngine::new(geometry, plan, EPS, options, &cloud(N, DIM));
    let mut stages = StageTimings::default();

    // run to convergence: every buffer reaches its steady size no later
    // than the converged pass (member lists stop changing strictly before)
    let converged = (0..10_000).any(|_| engine.iterate(&exec, &mut stages).done);
    assert!(
        converged,
        "run must converge before the steady-state window"
    );
    assert_eq!(
        steady_allocations(&mut engine, &exec, 0, 5),
        0,
        "sharded steady-state iterations must not touch the heap"
    );
}
