//! Heap-profiling assertion for the iteration-workspace contract: after a
//! warm-up pass sizes every reusable buffer, the Host-backend iteration
//! loop — grid rebuild, EGG-update, exact-termination check, ping-pong
//! swap — performs **zero heap allocations**.
//!
//! The test binary installs a counting `#[global_allocator]`, so it lives
//! in its own integration-test target to leave every other test unaffected.
//! Most checks drive the sequential executor, which isolates the
//! algorithm's own buffers; the pooled check runs the same loop over four
//! pool workers, whose dispatch allocates nothing either.
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

use egg_sync_core::egg::termination::second_term_holds_host;
use egg_sync_core::egg::update::{egg_update_host, IncrementalState, UpdateOptions};
use egg_sync_core::exec::Executor;
use egg_sync_core::grid::{CellGrid, GridGeometry, GridVariant};
use egg_sync_core::instrument::UpdateCounters;

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
    pooled_dispatch_steady_state_does_not_allocate();
    sharded_steady_state_does_not_allocate();
}

fn cloud(n: usize, dim: usize) -> Vec<f64> {
    (0..n * dim)
        .map(|i| ((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 1000.0)
        .collect()
}

fn steady_state_iterations_do_not_allocate() {
    let (n, dim, eps) = (3000, 2, 0.05);
    let exec = Executor::sequential();
    let geometry = GridGeometry::new(dim, eps, n, GridVariant::Auto);

    // the once-per-run workspace: ping-pong coordinates, the reusable
    // grid (CSR arrays, summaries, trig tables) and the update scratch
    let mut coords_cur = cloud(n, dim);
    let mut coords_next = vec![0.0f64; n * dim];
    let mut grid = CellGrid::new(geometry);
    let mut chunk_stats: Vec<(bool, UpdateCounters)> = Vec::new();

    let mut iterate = |coords_cur: &mut Vec<f64>, coords_next: &mut Vec<f64>| {
        grid.rebuild(&exec, coords_cur);
        let (first_term, _) = egg_update_host(
            &exec,
            &grid,
            coords_cur,
            coords_next,
            eps,
            UpdateOptions::default(),
            &mut chunk_stats,
            None,
            None,
        );
        if first_term {
            second_term_holds_host(&exec, &grid, coords_cur, eps, None, true);
        }
        std::mem::swap(coords_cur, coords_next);
    };

    // warm-up: the first pass sizes every buffer (and the second verifies
    // the sizes hold while points are still in motion)
    for _ in 0..2 {
        iterate(&mut coords_cur, &mut coords_next);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..5 {
        iterate(&mut coords_cur, &mut coords_next);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "steady-state iterations must not touch the heap"
    );
}

fn incremental_steady_state_does_not_allocate() {
    // same contract for the incremental pipeline: grid refresh driven by
    // the mover flags, skip-aware update, confinement-narrowed second term
    let (n, dim, eps) = (3000, 2, 0.05);
    let exec = Executor::sequential();
    let geometry = GridGeometry::new(dim, eps, n, GridVariant::Auto);

    let mut coords_cur = cloud(n, dim);
    let mut coords_next = vec![0.0f64; n * dim];
    let mut grid = CellGrid::new(geometry);
    let mut chunk_stats: Vec<(bool, UpdateCounters)> = Vec::new();
    let mut state = IncrementalState::new();

    // returns whether the refresh re-binned points incrementally: only
    // that path swaps the lane tables with their previous copies
    let mut iterate = |coords_cur: &mut Vec<f64>, coords_next: &mut Vec<f64>| {
        let stats = grid.refresh(&exec, coords_cur, state.moved_flags());
        let (first_term, _) = egg_update_host(
            &exec,
            &grid,
            coords_cur,
            coords_next,
            eps,
            UpdateOptions::default(),
            &mut chunk_stats,
            Some(&mut state),
            None,
        );
        if first_term {
            second_term_holds_host(&exec, &grid, coords_cur, eps, state.confined_flags(), true);
        }
        state.finish_pass(&geometry, coords_cur, coords_next);
        std::mem::swap(coords_cur, coords_next);
        stats.rebinned_points > 0 && !stats.full_rebuild
    };

    // warm-up: size every reusable buffer, including the incremental
    // scratch (changer lists, merge buffers, flag vectors, previous lane
    // tables)
    let rebins = (0..3)
        .filter(|_| iterate(&mut coords_cur, &mut coords_next))
        .count();
    assert!(rebins > 0, "the warm-up must run a re-binning refresh");

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let rebins = (0..5)
        .filter(|_| iterate(&mut coords_cur, &mut coords_next))
        .count();
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert!(rebins > 0, "the window must run a re-binning refresh");
    assert_eq!(
        after - before,
        0,
        "incremental steady-state iterations must not touch the heap"
    );
}

fn device_steady_state_does_not_allocate() {
    // same contract for the simulated-GPU backend: the per-cell table
    // writer must reuse the workspace's lane and summary buffers rather
    // than staging through fresh allocations. The device runs
    // single-threaded (the bitwise-deterministic simulator config), so no
    // `thread::scope` spawns dilute the measurement, and the kernel log is
    // reserved ahead of the measured window.
    use egg_gpu_sim::{Device, DeviceBuffer, DeviceConfig};
    use egg_sync_core::egg::termination::second_term_holds;
    use egg_sync_core::egg::update::{egg_update, COUNTER_SLOTS};
    use egg_sync_core::grid::GridWorkspace;

    let (n, dim, eps) = (2000, 2, 0.05);
    let device = Device::new(DeviceConfig {
        host_threads: Some(1),
        ..DeviceConfig::default()
    });
    let geometry = GridGeometry::new(dim, eps, n, GridVariant::Auto);
    let options = UpdateOptions::default();

    let mut coords_cur = device.alloc_from_slice::<f64>(&cloud(n, dim));
    let mut coords_next = device.alloc::<f64>(n * dim);
    let sync_flag = device.alloc::<u64>(1);
    let counters = device.alloc::<u64>(COUNTER_SLOTS);
    let mut workspace = GridWorkspace::new(&device, geometry, n);

    let mut iterate = |cur: &mut DeviceBuffer<f64>, nxt: &mut DeviceBuffer<f64>| {
        let (grid, pre, _stats) = workspace.refresh(cur, None);
        sync_flag.store(0, 1);
        egg_update(
            &device, &grid, &pre, cur, nxt, &sync_flag, &counters, n, eps, options, None,
        );
        if sync_flag.load(0) == 1 {
            second_term_holds(&device, &grid, &pre, cur, &sync_flag, n, eps, None);
        }
        std::mem::swap(cur, nxt);
    };

    // warm-up: size every device buffer and scratch list
    for _ in 0..2 {
        iterate(&mut coords_cur, &mut coords_next);
    }
    device.reserve_kernel_log(4096);

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..5 {
        iterate(&mut coords_cur, &mut coords_next);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "device steady-state iterations must not touch the heap"
    );
}

fn pooled_dispatch_steady_state_does_not_allocate() {
    // the worker-pool contract: after construction spawns the long-lived
    // workers, a parallel dispatch is pure synchronization — publishing
    // the shared closure pointer and blocking on a condvar — so repeated
    // dispatches must never touch the heap
    let exec = Executor::new(Some(4));
    let mut out = vec![0usize; 64];

    // warm-up: first dispatches size nothing, but let lazy thread-local
    // or lock state settle before the measured window
    for _ in 0..3 {
        exec.map_ranges_into(4096, 128, &mut out, |r| r.sum::<usize>());
        exec.all(4096, 128, |i| i < 4096);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..100 {
        exec.map_ranges_into(4096, 128, &mut out, |r| r.sum::<usize>());
        exec.all(4096, 128, |i| i < 4096);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(after - before, 0, "pooled dispatch must not touch the heap");

    // and the whole iteration loop inherits the guarantee: grid rebuild,
    // update and termination stay allocation-free while fanning out over
    // 4 pool workers
    let (n, dim, eps) = (3000, 2, 0.05);
    let geometry = GridGeometry::new(dim, eps, n, GridVariant::Auto);
    let mut coords_cur = cloud(n, dim);
    let mut coords_next = vec![0.0f64; n * dim];
    let mut grid = CellGrid::new(geometry);
    let mut chunk_stats: Vec<(bool, UpdateCounters)> = Vec::new();

    let mut iterate = |coords_cur: &mut Vec<f64>, coords_next: &mut Vec<f64>| {
        grid.rebuild(&exec, coords_cur);
        let (first_term, _) = egg_update_host(
            &exec,
            &grid,
            coords_cur,
            coords_next,
            eps,
            UpdateOptions::default(),
            &mut chunk_stats,
            None,
            None,
        );
        if first_term {
            second_term_holds_host(&exec, &grid, coords_cur, eps, None, true);
        }
        std::mem::swap(coords_cur, coords_next);
    };

    for _ in 0..2 {
        iterate(&mut coords_cur, &mut coords_next);
    }

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..5 {
        iterate(&mut coords_cur, &mut coords_next);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "pooled steady-state iterations must not touch the heap"
    );
}

fn sharded_steady_state_does_not_allocate() {
    // the sharding contract's steady-state clause: once converged, member
    // lists are stable, the exchange buffer stays empty, and a full
    // synchronized iteration across all shards is allocation-free
    use egg_sync_core::egg::shard::ShardedEngine;
    use egg_sync_core::grid::ShardPlan;
    use egg_sync_core::instrument::StageTimings;

    let (n, dim, eps) = (3000, 2, 0.05);
    let exec = Executor::sequential();
    let geometry = GridGeometry::new(dim, eps, n, GridVariant::Auto);
    let plan = ShardPlan::new(&geometry, 4);
    assert_eq!(plan.count(), 4, "domain must be wide enough for 4 shards");

    let coords = cloud(n, dim);
    let mut engine = ShardedEngine::new(geometry, plan, eps, UpdateOptions::default(), &coords);
    let mut stages = StageTimings::default();

    // run to convergence: every buffer reaches its steady size no later
    // than the converged pass (member lists stop changing strictly before)
    let mut converged = false;
    for _ in 0..10_000 {
        if engine.iterate(&exec, &mut stages).done {
            converged = true;
            break;
        }
    }
    assert!(
        converged,
        "run must converge before the steady-state window"
    );

    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..5 {
        engine.iterate(&exec, &mut stages);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);

    assert_eq!(
        after - before,
        0,
        "sharded steady-state iterations must not touch the heap"
    );
}
