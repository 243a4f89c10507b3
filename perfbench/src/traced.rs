//! The traced re-drive of Algorithm 4 and the per-layer metrics it yields.
//!
//! [`traced_solve`] repeats what `EggSync::cluster` does — the host
//! single-grid loop, the sharded loop or the simulated-device loop — but
//! calls the engine's public layer functions itself and wraps each call in
//! a [`Span`]. Spans nest solve → iteration → layer call. The re-drive must
//! reproduce `cluster()` bit for bit (the equivalence test below and the
//! harness's runtime check both enforce it); otherwise its layer numbers
//! would describe a different computation than the timed solves.

use std::time::Instant;

use egg_data::Dataset;
use egg_gpu_sim::Device;
use egg_sync_core::egg::gather::gather_labels;
use egg_sync_core::egg::shard::ShardedEngine;
use egg_sync_core::egg::termination::{second_term_holds, second_term_holds_host};
use egg_sync_core::egg::update::{
    counters_from_device, egg_update, egg_update_host, DeviceIncrementalState, IncrementalState,
    COUNTER_SLOTS,
};
use egg_sync_core::grid::{CellGrid, GridGeometry, GridWorkspace, ShardPlan};
use egg_sync_core::instrument::{KernelSummary, Stage, StageTimings, UpdateCounters};
use egg_sync_core::{Backend, EggSync, Executor};

/// Per-layer metrics `--trace 1` reports, `(name, unit)`, in output order.
/// Times and counts are per solve (medians over the run's traced solves).
pub const PER_LAYER: [(&str, &str); 41] = [
    ("solver.iterations", "count"),
    ("exec.dispatches", "count"),
    ("exec.dispatch_s", "s"),
    ("grid.refresh_s", "s"),
    ("grid.refresh_calls", "count"),
    ("grid.dirty_cells", "count"),
    ("grid.cells", "count"),
    ("grid.bytes_peak", "bytes"),
    ("update.s", "s"),
    ("update.point_pairs", "count"),
    ("update.pairs_per_s", "1/s"),
    ("update.summary_cells", "count"),
    ("update.summary_cells_per_s", "1/s"),
    ("update.cells_skipped", "count"),
    ("update.skip_ratio", "ratio"),
    ("update.moved_points", "count"),
    ("kernels.simd_lanes", "count"),
    ("kernels.lane_util", "ratio"),
    ("kernels.lanes_per_s", "1/s"),
    ("termination.s", "s"),
    ("termination.calls", "count"),
    ("incremental.finish_s", "s"),
    ("gather.s", "s"),
    ("shard.new_s", "s"),
    ("shard.iterate_s", "s"),
    ("shard.halo_s", "s"),
    ("shard.overlap_s", "s"),
    ("shard.halo_movers", "count"),
    ("shard.halo_cells", "count"),
    ("shard.max_grid_bytes", "bytes"),
    ("gpusim.solve_s", "s"),
    ("gpusim.build_s", "s"),
    ("gpusim.update_s", "s"),
    ("gpusim.check_s", "s"),
    ("gpusim.launches", "count"),
    ("gpusim.mem_bytes", "bytes"),
    ("gpusim.coalesced_frac", "ratio"),
    ("gpusim.atomics", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
];

/// Spans reserved up front, enough for several traced solves of the
/// longest workload (~100 iterations × 6 spans), so recording a span does
/// not reallocate mid-solve.
const SPAN_CAPACITY: usize = 1 << 14;

/// One timed interval: a solve, an iteration or a call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer (or `solve` / `iteration`).
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a solve.
    pub parent: Option<usize>,
    /// Which traced solve of the run the span belongs to.
    pub solve: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records spans into a preallocated buffer.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    solve: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAPACITY),
            open: Vec::with_capacity(8),
            solve: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            solve: self.solve,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        let id = self.open.pop().expect("close without a matching open");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let value = f();
        self.close();
        value
    }

    /// Every span recorded so far, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the time its children
/// cover (children of one span never overlap).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_ns - s.start_ns;
        }
    }
    own
}

/// Counts and clocks the layers report themselves, gathered alongside the
/// spans of one traced solve.
#[derive(Debug, Default)]
pub struct Layers {
    /// The run went through the sharded engine, whose layer calls happen
    /// inside `ShardedEngine::iterate`; its stage clock stands in for the
    /// grid, update and termination spans.
    pub sharded: bool,
    /// Executor dispatches and their publication cost.
    pub exec_dispatches: u64,
    /// Seconds inside the executor's dispatch machinery.
    pub exec_dispatch_s: f64,
    /// Grid refreshes (one per shard per iteration when sharded).
    pub refresh_calls: u64,
    /// Σ over iterations of the grid's non-empty cells (unsharded only).
    pub cells: u64,
    /// Largest grid footprint seen (all shards together when sharded).
    pub bytes_peak: u64,
    /// Largest single shard grid seen.
    pub max_shard_bytes: u64,
    /// Engine work counters, as `RunTrace::update_counters` reports them.
    pub counters: UpdateCounters,
    /// Second-term checks run (iterations whose first term held).
    pub termination_calls: u64,
    /// The sharded engine's stage clock.
    pub stages: StageTimings,
    /// Cost-model results of a simulated-device run.
    pub sim: Option<SimLayers>,
}

/// Cost-model output of a simulated-device run.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimLayers {
    /// Simulated seconds of the whole solve.
    pub solve_s: f64,
    /// Simulated seconds of grid refreshes.
    pub build_s: f64,
    /// Simulated seconds of skip marking plus the update kernel.
    pub update_s: f64,
    /// Simulated seconds of second-term checks.
    pub check_s: f64,
    /// Launch and memory-traffic totals.
    pub kernel: KernelSummary,
}

/// Output of one traced solve.
#[derive(Debug)]
pub struct TracedRun {
    /// Cluster labels, densely relabeled in first-seen order exactly as
    /// `Clustering::labels` is.
    pub labels: Vec<u32>,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether both termination terms held before the iteration cap.
    pub converged: bool,
    /// Final positions, row-major.
    pub final_coords: Vec<f64>,
    /// Layer counts and clocks.
    pub layers: Layers,
    /// Indices of this solve's spans in [`Tracer::spans`], `solve` first.
    pub spans: std::ops::Range<usize>,
}

/// Remap labels to `0..k` in first-seen order.
pub fn dense_relabel(labels: &[u32]) -> Vec<u32> {
    let mut map = std::collections::HashMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = map.len() as u32;
            *map.entry(l).or_insert(next)
        })
        .collect()
}

/// Solve `data` with `algo` the way `algo.cluster(data)` does, recording a
/// `solve` span with the iteration and layer spans inside it.
pub fn traced_solve(algo: &EggSync, data: &Dataset, tr: &mut Tracer) -> TracedRun {
    assert!(
        !data.is_empty(),
        "the benchmark never solves an empty input"
    );
    let first = tr.spans.len();
    tr.open("solve");
    let mut run = match algo.backend {
        Backend::Host => host(algo, data, tr),
        Backend::SimulatedGpu => device(algo, data, tr),
    };
    tr.close();
    tr.solve += 1;
    run.labels = dense_relabel(&run.labels);
    run.spans = first..tr.spans.len();
    run
}

/// The single-grid host loop of `EggSync::cluster_host`.
fn host(algo: &EggSync, data: &Dataset, tr: &mut Tracer) -> TracedRun {
    let (dim, n) = (data.dim(), data.len());
    let (eps, options) = (algo.epsilon, algo.options);
    let (exec, geometry) = tr.span("alloc", || {
        (
            Executor::with_mode(algo.threads, options.use_pooled_exec),
            GridGeometry::new(dim, eps, n, algo.variant),
        )
    });
    if options.num_shards > 1 {
        let plan = ShardPlan::new(&geometry, options.num_shards);
        if plan.count() > 1 {
            return sharded(algo, data, tr, exec, geometry, plan);
        }
    }

    let use_inc = options.use_incremental;
    let (mut cur, mut next, mut grid, mut chunk_stats, mut state) = tr.span("alloc", || {
        (
            data.coords().to_vec(),
            vec![0.0f64; n * dim],
            CellGrid::new(geometry),
            Vec::new(),
            IncrementalState::new(),
        )
    });
    let mut layers = Layers::default();
    let mut iterations = 0usize;
    let mut converged = false;
    while iterations < algo.max_iterations {
        tr.open("iteration");
        let stats = tr.span("grid.refresh", || {
            grid.refresh(
                &exec,
                &cur,
                if use_inc { state.moved_flags() } else { None },
            )
        });
        layers.refresh_calls += 1;
        layers.counters.dirty_cells += stats.dirty_cells;
        layers.cells += grid.num_cells() as u64;
        layers.bytes_peak = layers.bytes_peak.max(grid.memory_bytes() as u64);

        let (first_term, counters) = tr.span("update", || {
            egg_update_host(
                &exec,
                &grid,
                &cur,
                &mut next,
                eps,
                options,
                &mut chunk_stats,
                if use_inc { Some(&mut state) } else { None },
                None,
            )
        });
        layers.counters.merge(&counters);

        let mut done = false;
        if first_term {
            layers.termination_calls += 1;
            done = tr.span("termination", || {
                second_term_holds_host(
                    &exec,
                    &grid,
                    &cur,
                    eps,
                    if use_inc {
                        state.confined_flags()
                    } else {
                        None
                    },
                    options.use_simd,
                )
            });
        }
        if use_inc {
            tr.span("incremental.finish", || {
                state.finish_pass(&geometry, &cur, &next)
            });
        }
        std::mem::swap(&mut cur, &mut next);
        iterations += 1;
        tr.close();
        if done {
            converged = true;
            break;
        }
    }

    let labels = tr.span("gather", || grid.point_cell().to_vec());
    tr.span("free", || drop((grid, chunk_stats, next)));
    layers.exec_dispatches = exec.dispatch_count();
    layers.exec_dispatch_s = exec.dispatch_overhead_seconds();
    TracedRun {
        labels,
        iterations,
        converged,
        final_coords: cur,
        layers,
        spans: 0..0,
    }
}

/// The sharded host loop of `cluster_host_sharded`.
fn sharded(
    algo: &EggSync,
    data: &Dataset,
    tr: &mut Tracer,
    exec: Executor,
    geometry: GridGeometry,
    plan: ShardPlan,
) -> TracedRun {
    let mut engine = tr.span("shard.new", || {
        ShardedEngine::new(geometry, plan, algo.epsilon, algo.options, data.coords())
    });
    let mut layers = Layers {
        sharded: true,
        ..Layers::default()
    };
    let mut iterations = 0usize;
    let mut converged = false;
    while iterations < algo.max_iterations {
        tr.open("iteration");
        let checked = layers.stages.get(Stage::ExtraCheck);
        let outcome = tr.span("shard.iterate", || {
            engine.iterate(&exec, &mut layers.stages)
        });
        // `iterate` clocks the second term only on iterations that ran it
        layers.termination_calls += u64::from(layers.stages.get(Stage::ExtraCheck) > checked);
        layers.counters.merge(&outcome.counters);
        layers.refresh_calls += engine.shard_count() as u64;
        layers.bytes_peak = layers.bytes_peak.max(outcome.total_grid_bytes as u64);
        layers.max_shard_bytes = layers
            .max_shard_bytes
            .max(outcome.max_shard_grid_bytes as u64);
        iterations += 1;
        tr.close();
        if outcome.done {
            converged = true;
            break;
        }
    }

    let labels = tr.span("gather", || engine.gather());
    let final_coords = engine.take_final_coords();
    layers.counters.shard_count = engine.shard_count() as u64;
    tr.span("free", || drop(engine));
    layers.exec_dispatches = exec.dispatch_count();
    layers.exec_dispatch_s = exec.dispatch_overhead_seconds();
    TracedRun {
        labels,
        iterations,
        converged,
        final_coords,
        layers,
        spans: 0..0,
    }
}

/// Simulated seconds since `mark`, advancing `mark`.
fn sim_lap(device: &Device, mark: &mut u64) -> f64 {
    let now = device.sim_kernel_nanos();
    let lap = (now - *mark) as f64 / 1e9;
    *mark = now;
    lap
}

/// The simulated-device loop of `EggSync::cluster_device`.
fn device(algo: &EggSync, data: &Dataset, tr: &mut Tracer) -> TracedRun {
    let (dim, n) = (data.dim(), data.len());
    let (eps, options) = (algo.epsilon, algo.options);
    let use_inc = options.use_incremental;
    let (device, geometry, mut cur, mut next, flag, counters, mut workspace, mut inc) =
        tr.span("alloc", || {
            let mut config = algo.device_config.clone();
            if algo.threads.is_some() {
                config.host_threads = algo.threads;
            }
            let device = Device::new(config);
            let geometry = GridGeometry::new(dim, eps, n, algo.variant);
            let cur = device.alloc_from_slice::<f64>(data.coords());
            let next = device.alloc::<f64>(n * dim);
            let flag = device.alloc::<u64>(1);
            let counters = device.alloc::<u64>(COUNTER_SLOTS);
            let mut workspace = GridWorkspace::new(&device, geometry, n);
            workspace.set_fused(options.use_fused_kernels);
            let inc = DeviceIncrementalState::new(&device, &geometry, n);
            (device, geometry, cur, next, flag, counters, workspace, inc)
        });
    let mut layers = Layers::default();
    let mut sim = SimLayers::default();
    let mut mark = device.sim_kernel_nanos();
    layers.bytes_peak = device.memory_used();

    let mut iterations = 0usize;
    let mut converged = false;
    let mut last_grid = None;
    while iterations < algo.max_iterations {
        tr.open("iteration");
        sim_lap(&device, &mut mark);
        let (grid, pre, stats) = tr.span("grid.refresh", || {
            workspace.refresh(&cur, if use_inc { inc.moved_flags() } else { None })
        });
        sim.build_s += sim_lap(&device, &mut mark);
        counters.atomic_add(4, stats.dirty_cells);
        layers.refresh_calls += 1;
        layers.cells += grid.num_inner as u64;
        layers.bytes_peak = layers.bytes_peak.max(device.memory_used());

        let first_term = tr.span("update", || {
            flag.store(0, 1);
            if use_inc {
                inc.mark_skips(&device, &grid);
            }
            egg_update(
                &device,
                &grid,
                &pre,
                &cur,
                &next,
                &flag,
                &counters,
                n,
                eps,
                options,
                use_inc.then_some(&inc),
            );
            flag.load(0) == 1
        });
        sim.update_s += sim_lap(&device, &mut mark);

        let mut done = false;
        if first_term {
            layers.termination_calls += 1;
            done = tr.span("termination", || {
                second_term_holds(
                    &device,
                    &grid,
                    &pre,
                    &cur,
                    &flag,
                    n,
                    eps,
                    use_inc.then_some(&inc.confined),
                )
            });
            sim.check_s += sim_lap(&device, &mut mark);
        }
        if use_inc {
            tr.span("incremental.finish", || {
                inc.finish_pass(&device, &geometry, &cur, &next, n)
            });
        }
        std::mem::swap(&mut cur, &mut next);
        iterations += 1;
        last_grid = Some(grid);
        tr.close();
        if done {
            converged = true;
            break;
        }
    }

    let (labels, final_coords) = tr.span("gather", || {
        (
            last_grid.as_ref().map(gather_labels).unwrap_or_default(),
            cur.to_vec(),
        )
    });
    layers.counters = counters_from_device(&counters);
    layers.bytes_peak = layers.bytes_peak.max(device.memory_used());
    sim.kernel = KernelSummary::from_report(&device.report());
    sim.solve_s = device.sim_kernel_nanos() as f64 / 1e9;
    layers.sim = Some(sim);
    tr.span("free", || drop((workspace, last_grid, next)));
    TracedRun {
        labels,
        iterations,
        converged,
        final_coords,
        layers,
        spans: 0..0,
    }
}

/// The [`PER_LAYER`] values of one traced solve, from the tracer's spans
/// and the run's own counts. `trace.overhead_s` is left at zero — it needs
/// the untraced solve time, which the harness owns.
pub fn layer_metrics(all: &[Span], run: &TracedRun) -> Vec<f64> {
    let spans = &all[run.spans.clone()];
    let layers = &run.layers;
    let wall = spans[0].seconds();
    // `+ 0.0` turns the empty sum's -0.0 into 0
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum::<f64>()
            + 0.0
    };
    // top-level layer calls: the children of the solve and iteration frames
    let covered: f64 = spans
        .iter()
        .filter(|s| {
            s.name != "iteration"
                && s.parent
                    .is_some_and(|p| matches!(all[p].name, "solve" | "iteration"))
        })
        .map(Span::seconds)
        .sum();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let (refresh_s, update_s, check_s) = if layers.sharded {
        let st = &layers.stages;
        (
            st.get(Stage::BuildStructure),
            st.get(Stage::Update),
            st.get(Stage::ExtraCheck),
        )
    } else {
        (total("grid.refresh"), total("update"), total("termination"))
    };
    let c = &layers.counters;
    let sim = layers.sim.unwrap_or_default();
    let values: Vec<f64> = vec![
        run.iterations as f64,
        layers.exec_dispatches as f64,
        layers.exec_dispatch_s,
        refresh_s,
        layers.refresh_calls as f64,
        c.dirty_cells as f64,
        layers.cells as f64,
        layers.bytes_peak as f64,
        update_s,
        c.point_pairs as f64,
        ratio(c.point_pairs as f64, update_s),
        c.summary_cells as f64,
        ratio(c.summary_cells as f64, update_s),
        c.cells_skipped as f64,
        ratio(c.cells_skipped as f64, layers.cells as f64),
        c.moved_points as f64,
        c.simd_lanes as f64,
        if c.simd_lanes > 0 {
            1.0 - c.simd_remainder_lanes as f64 / c.simd_lanes as f64
        } else {
            0.0
        },
        ratio(c.simd_lanes as f64, update_s),
        check_s,
        layers.termination_calls as f64,
        total("incremental.finish"),
        total("gather"),
        total("shard.new"),
        total("shard.iterate"),
        layers.stages.get(Stage::HaloExchange),
        layers.stages.get(Stage::HaloOverlap),
        c.halo_movers as f64,
        c.halo_cells as f64,
        layers.max_shard_bytes as f64,
        sim.solve_s,
        sim.build_s,
        sim.update_s,
        sim.check_s,
        sim.kernel.launches as f64,
        (sim.kernel.mem_words * 8) as f64,
        sim.kernel.coalesced_fraction(),
        sim.kernel.atomics as f64,
        wall,
        0.0,
        ratio(covered, wall),
    ];
    debug_assert_eq!(values.len(), PER_LAYER.len());
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use egg_sync_core::ClusterAlgorithm;

    #[test]
    fn traced_redrive_reproduces_cluster_bitwise_on_every_workload() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut tr = Tracer::default();
        for w in &WORKLOADS {
            let data = w.generate(w.check_n, 1);
            let algo = w.engine();
            let plain = algo.cluster(&data);
            let traced = traced_solve(&algo, &data, &mut tr);
            assert!(plain.converged && traced.converged, "{}", w.name);
            assert_eq!(traced.labels, plain.labels, "{}", w.name);
            assert_eq!(traced.iterations, plain.iterations, "{}", w.name);
            assert_eq!(
                bits(&traced.final_coords),
                bits(plain.final_coords.coords()),
                "{}",
                w.name
            );
            // the layer counts are the engine's own, not a re-derivation
            let (a, b) = (&traced.layers.counters, &plain.trace.update_counters);
            let work = |c: &UpdateCounters| {
                [
                    c.summary_cells,
                    c.point_pairs,
                    c.moved_points,
                    c.dirty_cells,
                    c.cells_skipped,
                    c.simd_lanes,
                    c.simd_remainder_lanes,
                    c.shard_count,
                    c.halo_movers,
                    c.halo_cells,
                ]
            };
            assert_eq!(work(a), work(b), "{}", w.name);
            assert_eq!(traced.layers.sharded, w.num_shards > 1, "{}", w.name);
            if let Some(sim) = traced.layers.sim {
                let expected = plain.trace.total_sim_seconds.unwrap();
                assert!(
                    (sim.solve_s - expected).abs() <= 1e-9 * expected,
                    "{}",
                    w.name
                );
            }
            let m = layer_metrics(tr.spans(), &traced);
            assert_eq!(m.len(), PER_LAYER.len());
            assert!(
                m.iter().all(|v| v.is_finite() && *v >= 0.0),
                "{}: {m:?}",
                w.name
            );
        }
    }

    #[test]
    fn spans_nest_and_self_times_subtract_children() {
        let mut tr = Tracer::default();
        tr.open("solve");
        tr.open("iteration");
        tr.span("update", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        tr.close();
        tr.span("gather", || ());
        tr.close();
        let spans = tr.spans();
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), Some(0)]);
        let own = self_times_ns(spans);
        let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1) - dur(3));
        assert_eq!(own[1], dur(1) - dur(2));
        assert_eq!(own[2], dur(2));
        assert!(dur(2) >= 2_000_000);
    }

    #[test]
    fn relabel_is_first_seen_dense() {
        assert_eq!(dense_relabel(&[7, 7, 42, 7, 9]), [0, 0, 1, 0, 2]);
    }
}
