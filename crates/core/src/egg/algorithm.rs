//! EGG-SynC — Algorithm 4: one driver over three engines.
//!
//! Per iteration: (re)construct the grid and its summaries from the
//! current positions (Algorithm 2, §4.3.1), precompute the non-empty
//! surrounding cells (§4.2.5), run the EGG-update (Algorithm 3, which also
//! certifies the first term of Definition 4.2), and — only when the first
//! term survived — run the second-term check (§4.3.3). When both hold the
//! synchronization criterion is met, neighborhoods can never change again
//! (Theorem 4.7), and the non-empty grid cells are returned as the final
//! clustering.
//!
//! Each backend is an [`Engine`] whose [`Engine::iterate`] runs that one
//! iteration: the single-grid [`HostEngine`], the sharded
//! [`ShardedEngine`] and the simulated-GPU [`DeviceEngine`]. One loop,
//! `drive`, owns the rest of a run for all three: the iteration records,
//! the stop and the cap, gather and free timing and the trace totals.
//!
//! There is **no λ parameter**: termination is exact, which is the paper's
//! headline correctness contribution.

use egg_data::Dataset;
use egg_gpu_sim::{Device, DeviceBuffer, DeviceConfig};

use crate::exec::{threads_default, Executor};
use crate::grid::{
    CellGrid, DeviceGrid, GridGeometry, GridRefreshStats, GridVariant, GridWorkspace, ShardPlan,
};
use crate::instrument::{
    timed, IterationRecord, KernelSummary, RunTrace, Stage, StageTimings, UpdateCounters,
};
use crate::result::{ClusterAlgorithm, Clustering};

use super::gather::gather_labels;
use super::shard::ShardedEngine;
use super::termination::{second_term_holds, second_term_holds_host};
use super::update::{
    counters_from_device, egg_update, egg_update_host, DeviceIncrementalState, IncrementalState,
    UpdateOptions, COUNTER_SLOTS,
};

/// Execution backend for [`EggSync`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The paper's device algorithm on the simulated GPU (default).
    #[default]
    SimulatedGpu,
    /// The host execution engine: the same grid/update/termination
    /// pipeline fanned over an [`Executor`]'s worker threads, bit-for-bit
    /// deterministic for any thread count.
    Host,
}

/// Exact GPU-parallelized Grid-based clustering by Synchronization.
#[derive(Debug, Clone)]
pub struct EggSync {
    /// Neighborhood radius ε — the algorithm's only model parameter.
    pub epsilon: f64,
    /// Safety cap on iterations (the exact criterion terminates on its
    /// own; the cap guards pathological floating-point stalemates). A cap
    /// of 0 runs no iteration: the clusters are then the grid cells of the
    /// input positions, and the run reports itself unconverged.
    pub max_iterations: usize,
    /// Grid access strategy (§4.2.2–4.2.4). `Auto` is the paper's mixed
    /// heuristic.
    pub variant: GridVariant,
    /// Optimization toggles for the ablation benches.
    pub options: UpdateOptions,
    /// Simulated-device configuration.
    pub device_config: DeviceConfig,
    /// Where the pipeline executes.
    pub backend: Backend,
    /// Worker threads for the execution engine (`None` = the
    /// `EGG_THREADS` override when set, else the host's available
    /// parallelism). On the [`Backend::SimulatedGpu`] backend it sizes the
    /// simulator: it overrides [`DeviceConfig::host_threads`] when set, and
    /// `EGG_THREADS` applies only when neither is set.
    pub threads: Option<usize>,
}

impl EggSync {
    /// EGG-SynC with the given ε, mixed-access grid, all optimizations on,
    /// on the default simulated RTX 3090.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        Self {
            epsilon,
            max_iterations: 10_000,
            variant: GridVariant::Auto,
            options: UpdateOptions::default(),
            device_config: DeviceConfig::default(),
            backend: Backend::default(),
            threads: None,
        }
    }

    /// Same as [`EggSync::new`] with an explicit grid variant.
    pub fn with_variant(epsilon: f64, variant: GridVariant) -> Self {
        Self {
            variant,
            ..Self::new(epsilon)
        }
    }

    /// EGG-SynC on the host execution engine with the given worker count
    /// (`None` = the `EGG_THREADS` override when set, else the host's
    /// available parallelism).
    pub fn host(epsilon: f64, threads: Option<usize>) -> Self {
        Self {
            backend: Backend::Host,
            threads,
            ..Self::new(epsilon)
        }
    }

    /// Algorithm 4's loop, the same for every engine: time `build` as
    /// [`Stage::Allocating`], iterate until both termination terms hold or
    /// `max_iterations` ran, then gather, finish and free, and total the
    /// trace.
    fn drive<E: Engine>(
        &self,
        exec: &Executor,
        mut trace: RunTrace,
        dim: usize,
        build: impl FnOnce() -> E,
    ) -> Clustering {
        let (mut engine, alloc_secs) = timed(build);
        trace.stages.add(Stage::Allocating, alloc_secs);

        let mut iterations = 0usize;
        let mut converged = false;
        while iterations < self.max_iterations {
            let (outcome, seconds) = timed(|| engine.iterate(exec, &mut trace.stages));
            trace.update_counters.merge(&outcome.counters);
            trace.observe_structure_bytes(outcome.total_grid_bytes);
            trace.observe_shard_structure_bytes(outcome.max_shard_grid_bytes);
            trace.iterations.push(IterationRecord {
                iteration: iterations,
                seconds,
                sim_seconds: outcome.sim_seconds,
                rc: None,
            });
            iterations += 1;
            if outcome.done {
                converged = true;
                break;
            }
        }

        // --- gather: non-empty cells of the certified grid are clusters ------
        let (labels, gather_secs) = timed(|| engine.gather());
        trace.stages.add(Stage::Clustering, gather_secs);
        let final_coords = Dataset::from_coords(engine.finish(&mut trace), dim);
        let (_, free_secs) = timed(|| drop(engine));
        trace.stages.add(Stage::FreeMemory, free_secs);
        trace
            .stages
            .add(Stage::ExecDispatch, exec.dispatch_overhead_seconds());
        trace.update_counters.exec_dispatches = exec.dispatch_count();
        trace.total_seconds = trace.stages.total();
        Clustering::from_labels(labels, iterations, converged, final_coords, trace)
    }
}

/// What one [`Engine::iterate`] did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Iteration {
    /// Both termination terms held — the run is converged.
    pub done: bool,
    /// Work counters of the iteration (zero on the device, which keeps
    /// them in device memory until [`Engine::finish`]).
    pub counters: UpdateCounters,
    /// Bytes of the grid structures: the one grid, the sum of all shard
    /// grids, or all device memory in use.
    pub total_grid_bytes: usize,
    /// Bytes of the largest single grid (0 on the device).
    pub max_shard_grid_bytes: usize,
    /// Simulated GPU seconds of the iteration (device only).
    pub sim_seconds: Option<f64>,
}

/// One backend of Algorithm 4: a run's state, advanced one iteration at
/// a time by [`EggSync`]'s driver.
pub trait Engine {
    /// Run one iteration: refresh the grid and its summaries to state
    /// `t`, update `t → t+1` certifying the first term, check the second
    /// term only when the first held, finish the incremental pass and
    /// swap. Adds its stage seconds to `stages`.
    fn iterate(&mut self, exec: &Executor, stages: &mut StageTimings) -> Iteration;

    /// The clustering: each point's cell in the last refreshed grid.
    fn gather(&self) -> Vec<u32>;

    /// End the run: record the engine's own totals in `trace` and hand
    /// over the final positions.
    fn finish(&mut self, trace: &mut RunTrace) -> Vec<f64>;
}

/// The single-grid host engine: one [`CellGrid`] and the update scratch,
/// allocated once, so steady-state iterations allocate nothing.
pub struct HostEngine {
    epsilon: f64,
    options: UpdateOptions,
    coords_cur: Vec<f64>,
    coords_next: Vec<f64>,
    grid: CellGrid,
    chunk_stats: Vec<(bool, UpdateCounters)>,
    state: IncrementalState,
    last_refresh: GridRefreshStats,
}

impl HostEngine {
    /// Allocate the run's workspace over the initial positions `coords`.
    pub fn new(geo: GridGeometry, eps: f64, options: UpdateOptions, coords: &[f64]) -> Self {
        Self {
            epsilon: eps,
            options,
            coords_cur: coords.to_vec(),
            coords_next: vec![0.0; coords.len()],
            grid: CellGrid::new(geo),
            chunk_stats: Vec::new(),
            state: IncrementalState::new(),
            last_refresh: GridRefreshStats::default(),
        }
    }

    /// What the last iteration's grid refresh did.
    pub fn last_refresh(&self) -> GridRefreshStats {
        self.last_refresh
    }
}

impl Engine for HostEngine {
    fn iterate(&mut self, exec: &Executor, stages: &mut StageTimings) -> Iteration {
        // with `use_incremental` off the state is never handed out, so it
        // stays inactive and its flags `None`
        let use_inc = self.options.use_incremental;
        // bring grid + summaries + lane tables up to date with state t, in
        // place; the incremental path touches only what moved
        let moved = self.state.moved_flags();
        let (stats, build_secs) = timed(|| self.grid.refresh(exec, &self.coords_cur, moved));
        stages.add(Stage::BuildStructure, build_secs);
        self.last_refresh = stats;

        // update t → t+1, certifying the first term on state t
        let (grid, cur, eps, options) = (&self.grid, &self.coords_cur, self.epsilon, self.options);
        let (next, scratch) = (&mut self.coords_next, &mut self.chunk_stats);
        let state = use_inc.then_some(&mut self.state);
        let ((first_term, mut counters), update_secs) =
            timed(|| egg_update_host(exec, grid, cur, next, eps, options, scratch, state, None));
        stages.add(Stage::Update, update_secs);
        counters.dirty_cells += stats.dirty_cells;

        // second term, only when the first survived (state t!) — the
        // previous pass's confinement flags narrow the partner scans
        let done = first_term && {
            let confined = self.state.confined_flags();
            let (second, check_secs) =
                timed(|| second_term_holds_host(exec, grid, cur, eps, confined, options.use_simd));
            stages.add(Stage::ExtraCheck, check_secs);
            second
        };

        if use_inc {
            self.state
                .finish_pass(grid.geometry(), cur, &self.coords_next);
        }
        std::mem::swap(&mut self.coords_cur, &mut self.coords_next);
        let bytes = self.grid.memory_bytes();
        Iteration {
            done,
            counters,
            total_grid_bytes: bytes,
            max_shard_grid_bytes: bytes,
            sim_seconds: None,
        }
    }

    fn gather(&self) -> Vec<u32> {
        self.grid.point_cell().to_vec()
    }

    fn finish(&mut self, _trace: &mut RunTrace) -> Vec<f64> {
        std::mem::take(&mut self.coords_cur)
    }
}

/// The simulated-GPU engine: the paper's kernels on a [`Device`], every
/// array allocated once, each stage's cost-model seconds beside its
/// wall-clock ones. It ignores the executor it is handed.
pub struct DeviceEngine {
    device: Device,
    epsilon: f64,
    options: UpdateOptions,
    n: usize,
    coords_cur: DeviceBuffer<f64>,
    coords_next: DeviceBuffer<f64>,
    sync_flag: DeviceBuffer<u64>,
    counters: DeviceBuffer<u64>,
    workspace: GridWorkspace,
    inc_state: DeviceIncrementalState,
    /// The last iteration's grid, which gather reads.
    last_grid: Option<DeviceGrid>,
    /// Simulated seconds per stage, and the device clock at the last lap.
    sim_stages: StageTimings,
    sim_mark: u64,
}

impl DeviceEngine {
    /// Allocate the run's device arrays over the initial positions
    /// `coords`, charging their simulated cost to [`Stage::Allocating`].
    pub fn new(
        device: &Device,
        geometry: GridGeometry,
        epsilon: f64,
        options: UpdateOptions,
        coords: &[f64],
    ) -> Self {
        let n = coords.len() / geometry.dim;
        let sim_mark = device.sim_kernel_nanos();
        let mut engine = Self {
            device: device.clone(),
            epsilon,
            options,
            n,
            coords_cur: device.alloc_from_slice(coords),
            coords_next: device.alloc(coords.len()),
            sync_flag: device.alloc(1),
            counters: device.alloc(COUNTER_SLOTS),
            workspace: GridWorkspace::new(device, geometry, n),
            inc_state: DeviceIncrementalState::new(device, &geometry, n),
            last_grid: None,
            sim_stages: StageTimings::default(),
            sim_mark,
        };
        engine.lap(Stage::Allocating);
        engine
    }

    /// Charge the simulated seconds since the last lap to `stage`.
    fn lap(&mut self, stage: Stage) {
        let now = self.device.sim_kernel_nanos();
        self.sim_stages
            .add(stage, (now - self.sim_mark) as f64 / 1e9);
        self.sim_mark = now;
    }
}

impl Engine for DeviceEngine {
    fn iterate(&mut self, _exec: &Executor, stages: &mut StageTimings) -> Iteration {
        let (use_inc, n) = (self.options.use_incremental, self.n);
        let sim_start = self.device.sim_kernel_nanos();

        // bring grid + summaries + preGrid up to date with state t; the
        // incremental path touches only what moved
        // (with `use_incremental` off the state never arms: no flags)
        let moved = self.inc_state.moved_flags();
        let ((grid, pre, stats), build_secs) =
            timed(|| self.workspace.refresh(&self.coords_cur, moved));
        stages.add(Stage::BuildStructure, build_secs);
        self.lap(Stage::BuildStructure);
        let total_grid_bytes = self.device.memory_used() as usize;
        self.counters.atomic_add(4, stats.dirty_cells);

        // update t → t+1, certifying the first term on state t
        let (first_term, update_secs) = timed(|| {
            self.sync_flag.store(0, 1);
            if use_inc {
                self.inc_state.mark_skips(&self.device, &grid);
            }
            egg_update(
                &self.device,
                &grid,
                &pre,
                &self.coords_cur,
                &self.coords_next,
                &self.sync_flag,
                &self.counters,
                n,
                self.epsilon,
                self.options,
                use_inc.then_some(&self.inc_state),
            );
            self.sync_flag.load(0) == 1
        });
        stages.add(Stage::Update, update_secs);
        self.lap(Stage::Update);

        // second term, only when the first survived (state t!) — the
        // first-term verdict is already read, so the flag is reusable;
        // the pass's confinement flags narrow the partner scans
        let done = first_term && {
            let confined = use_inc.then_some(&self.inc_state.confined);
            let (second, check_secs) = timed(|| {
                let (dev, cur, eps) = (&self.device, &self.coords_cur, self.epsilon);
                second_term_holds(dev, &grid, &pre, cur, &self.sync_flag, n, eps, confined)
            });
            stages.add(Stage::ExtraCheck, check_secs);
            self.lap(Stage::ExtraCheck);
            second
        };

        if use_inc {
            let (cur, next) = (&self.coords_cur, &self.coords_next);
            self.inc_state
                .finish_pass(&self.device, &grid.geometry, cur, next, n);
            // the finish pass maintains the grid's incremental state
            self.lap(Stage::BuildStructure);
        }
        std::mem::swap(&mut self.coords_cur, &mut self.coords_next);
        self.last_grid = Some(grid);
        let sim_nanos = self.device.sim_kernel_nanos() - sim_start;
        Iteration {
            done,
            total_grid_bytes,
            sim_seconds: Some(sim_nanos as f64 / 1e9),
            ..Iteration::default()
        }
    }

    fn gather(&self) -> Vec<u32> {
        self.last_grid
            .as_ref()
            .map(gather_labels)
            .unwrap_or_default()
    }

    fn finish(&mut self, trace: &mut RunTrace) -> Vec<f64> {
        self.lap(Stage::Clustering);
        let coords = self.coords_cur.to_vec();
        trace.update_counters = counters_from_device(&self.counters);
        trace.kernel_summary = Some(KernelSummary::from_report(&self.device.report()));
        trace.observe_structure_bytes(self.device.memory_used() as usize);
        trace.total_sim_seconds = Some(self.sim_stages.total());
        trace.sim_stages = Some(self.sim_stages);
        coords
    }
}

impl ClusterAlgorithm for EggSync {
    fn name(&self) -> &'static str {
        match self.backend {
            Backend::SimulatedGpu => "EGG-SynC",
            Backend::Host => "EGG-SynC (host)",
        }
    }

    fn cluster(&self, data: &Dataset) -> Clustering {
        let (dim, n, coords) = (data.dim(), data.len(), data.coords());
        if self.max_iterations == 0 && n > 0 {
            // no iteration runs, so the clusters are the cells of the input:
            // the grid iteration 1 would build and gather would read
            let geometry = GridGeometry::new(dim, self.epsilon, n, self.variant);
            let grid = CellGrid::build(&Executor::sequential(), geometry, coords);
            let labels = grid.point_cell().to_vec();
            return Clustering::from_labels(labels, 0, false, data.clone(), RunTrace::default());
        }
        let host = self.backend == Backend::Host;
        // the device ignores its executor: one worker starts no pool and
        // counts no dispatch
        let exec = Executor::new(if host { self.threads } else { Some(1) });
        let mut trace = RunTrace {
            engine_threads: host.then(|| exec.workers()),
            ..RunTrace::default()
        };
        if n == 0 {
            return Clustering::from_labels(Vec::new(), 0, true, data.clone(), trace);
        }
        let (eps, options) = (self.epsilon, self.options);
        let geometry = GridGeometry::new(dim, eps, n, self.variant);
        if !host {
            let device = Device::new(DeviceConfig {
                // with none of the three, `Device::new` takes the host's
                // available parallelism
                host_threads: self
                    .threads
                    .or(self.device_config.host_threads)
                    .or_else(threads_default),
                ..self.device_config.clone()
            });
            trace.engine_threads = Some(device.workers());
            return self.drive(&exec, trace, dim, || {
                DeviceEngine::new(&device, geometry, eps, options, coords)
            });
        }
        // a plan clamped to one shard (degenerate leading dimension) runs
        // the single grid — it IS that path
        let plan = (options.num_shards > 1)
            .then(|| ShardPlan::new(&geometry, options.num_shards))
            .filter(|plan| plan.count() > 1);
        match plan {
            Some(plan) => self.drive(&exec, trace, dim, || {
                ShardedEngine::new(geometry, plan, eps, options, coords)
            }),
            None => self.drive(&exec, trace, dim, || {
                HostEngine::new(geometry, eps, options, coords)
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::egg::reference::ExactSync;
    use egg_data::generator::{bridged_clusters, GaussianSpec};
    use egg_data::metrics::{purity, same_partition};

    fn blobs(n: usize, k: usize, seed: u64) -> (Dataset, Vec<u32>) {
        GaussianSpec {
            n,
            clusters: k,
            std_dev: 3.0,
            seed,
            ..GaussianSpec::default()
        }
        .generate_normalized()
    }

    #[test]
    fn matches_exact_oracle() {
        let (data, _) = blobs(200, 3, 77);
        let oracle = ExactSync::new(0.05).cluster(&data);
        let egg = EggSync::new(0.05).cluster(&data);
        assert!(egg.converged);
        // the cell-based first-term check is stricter than Definition 4.2's
        // term 1, so EGG may run a few extra iterations — never fewer
        assert!(egg.iterations >= oracle.iterations, "iteration count");
        assert!(
            same_partition(&oracle.labels, &egg.labels),
            "partitions differ: oracle {} vs egg {} clusters",
            oracle.num_clusters,
            egg.num_clusters
        );
    }

    #[test]
    fn all_grid_variants_agree() {
        let (data, _) = blobs(150, 3, 13);
        let reference = EggSync::new(0.05).cluster(&data);
        for variant in [
            GridVariant::Sequential,
            GridVariant::RandomAccess,
            GridVariant::Mixed(1),
        ] {
            let other = EggSync::with_variant(0.05, variant).cluster(&data);
            assert!(
                same_partition(&reference.labels, &other.labels),
                "variant {variant:?} diverged"
            );
            assert_eq!(
                reference.iterations, other.iterations,
                "variant {variant:?}"
            );
        }
    }

    #[test]
    fn ablation_toggles_do_not_change_results() {
        let (data, _) = blobs(150, 3, 19);
        let reference = EggSync::new(0.05).cluster(&data);
        for bits in 0u8..16 {
            let options = UpdateOptions {
                use_summaries: bits & 1 != 0,
                use_pregrid: bits & 2 != 0,
                use_incremental: bits & 4 != 0,
                use_simd: bits & 8 != 0,
                ..UpdateOptions::default()
            };
            let mut algo = EggSync::new(0.05);
            algo.options = options;
            let other = algo.cluster(&data);
            assert!(
                same_partition(&reference.labels, &other.labels),
                "{options:?} diverged"
            );
        }
    }

    #[test]
    fn recovers_ground_truth_blobs() {
        // purity is not exactly 1: points in overlapping Gaussian tails
        // legitimately synchronize with the nearer cluster
        let (data, truth) = blobs(300, 5, 3);
        let result = EggSync::new(0.05).cluster(&data);
        assert!(result.converged);
        assert!(purity(&truth, &result.labels) > 0.95);
    }

    #[test]
    fn bridge_merges_into_single_cluster() {
        let (data, eps) = bridged_clusters(60, 12, 9);
        let result = EggSync::new(eps).cluster(&data);
        assert!(result.converged);
        assert_eq!(result.num_clusters, 1);
    }

    /// The trace `drive` fills, on each engine: one record per iteration
    /// at its index, a total that is the sum of the wall-clock stages, the
    /// engine's thread count and structure peaks, and simulated times on
    /// the device only.
    #[test]
    fn every_engine_fills_the_trace_contract() {
        let (data, _) = blobs(120, 2, 1);
        let host = |shards| EggSync {
            options: UpdateOptions {
                num_shards: shards,
                ..UpdateOptions::default()
            },
            ..EggSync::host(0.05, Some(3))
        };
        for (name, algo) in [
            ("host S=1", host(1)),
            ("host S=2", host(2)),
            ("device", EggSync::new(0.05)),
        ] {
            let run = algo.cluster(&data);
            let trace = &run.trace;
            assert!(run.converged, "{name}");
            assert_eq!(trace.iterations.len(), run.iterations, "{name}");
            for (i, record) in trace.iterations.iter().enumerate() {
                assert_eq!(record.iteration, i, "{name}");
            }
            // diagnostic stages must not inflate the wall-clock total
            let wall = Stage::ALL[..Stage::WALL_CLOCK].iter();
            let wall: f64 = wall.map(|&s| trace.stages.get(s)).sum();
            assert!((trace.total_seconds - wall).abs() < 1e-12, "{name}");
            assert!(trace.stages.get(Stage::BuildStructure) > 0.0, "{name}");
            assert!(trace.stages.get(Stage::Update) > 0.0, "{name}");
            assert!(trace.peak_structure_bytes > 0, "{name}");
            let device = algo.backend == Backend::SimulatedGpu;
            assert!(trace.engine_threads.is_some(), "{name}");
            assert!(device || trace.engine_threads == Some(3), "{name}");
            assert_eq!(trace.sim_stages.is_some(), device, "{name}");
            assert_eq!(trace.total_sim_seconds.is_some(), device, "{name}");
            assert_eq!(trace.kernel_summary.is_some(), device, "{name}");
            for record in &trace.iterations {
                assert_eq!(record.sim_seconds.is_some(), device, "{name}");
            }
            let (peak, shard_peak) = (trace.peak_structure_bytes, trace.peak_shard_structure_bytes);
            match name {
                "host S=1" => assert_eq!(shard_peak, peak),
                "host S=2" => {
                    assert_eq!(trace.update_counters.shard_count, 2);
                    assert!(
                        0 < shard_peak && shard_peak < peak,
                        "{shard_peak} of {peak}"
                    );
                }
                _ => {
                    assert_eq!(shard_peak, 0);
                    assert!(trace.total_sim_seconds.unwrap() > 0.0);
                    // gather launches no kernel: the finish passes are
                    // the grid's maintenance, charged to BuildStructure
                    let sim = trace.sim_stages.unwrap();
                    assert_eq!(sim.get(Stage::Clustering), 0.0);
                    // no worker pool, and no dispatch to charge
                    assert_eq!(trace.stages.get(Stage::ExecDispatch), 0.0);
                    assert_eq!(trace.update_counters.exec_dispatches, 0);
                }
            }
        }
    }

    #[test]
    fn every_engine_handles_empty_single_and_duplicate_inputs() {
        let mut sharded = EggSync::host(0.05, Some(2));
        sharded.options.num_shards = 2;
        for algo in [EggSync::new(0.05), EggSync::host(0.05, Some(2)), sharded] {
            let name = format!("{:?} S={}", algo.backend, algo.options.num_shards);
            assert_eq!(algo.cluster(&Dataset::empty(2)).num_clusters, 0, "{name}");
            let single = algo.cluster(&Dataset::from_coords(vec![0.4, 0.6], 2));
            assert!(single.converged, "{name}");
            assert_eq!(single.num_clusters, 1, "{name}");
            let dup = algo.cluster(&Dataset::from_coords([0.5, 0.5].repeat(7), 2));
            assert!(dup.converged, "{name}");
            assert_eq!(dup.num_clusters, 1, "{name}");
            assert_eq!(dup.labels, vec![0; 7], "{name}");
        }
    }

    #[test]
    fn host_backend_matches_device_partition() {
        let (data, _) = blobs(200, 3, 77);
        let device = EggSync::new(0.05).cluster(&data);
        let host = EggSync::host(0.05, None).cluster(&data);
        assert!(host.converged);
        assert!(
            same_partition(&device.labels, &host.labels),
            "device {} vs host {} clusters",
            device.num_clusters,
            host.num_clusters
        );
        // The simulator counts every kernel's memory traffic exactly at any
        // worker count. Compared on one iteration of the random-access
        // grid, whose work depends on the input alone: with several
        // workers, atomic slot claims order the points within a cell, which
        // steers the mixed grid's slot searches and, from the second
        // iteration on, the last bits of the coordinates.
        let kernels = |threads| {
            let run = EggSync {
                threads: Some(threads),
                max_iterations: 1,
                ..EggSync::with_variant(0.05, GridVariant::RandomAccess)
            }
            .cluster(&data);
            let k = run
                .trace
                .kernel_summary
                .expect("device run records kernels");
            (k.launches, k.mem_words, k.coalesced_words, k.atomics)
        };
        assert_eq!(kernels(4), kernels(1));
    }

    #[test]
    fn device_threads_follow_the_env_override() {
        // no count on the engine or its device configuration
        let run = EggSync::new(0.05).cluster(&Dataset::from_coords(vec![0.4, 0.6], 2));
        let want = threads_default()
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        assert_eq!(run.trace.engine_threads, Some(want));
    }

    #[test]
    fn host_backend_is_identical_across_thread_counts() {
        let (data, _) = blobs(250, 4, 21);
        let reference = EggSync::host(0.05, Some(1)).cluster(&data);
        for threads in [Some(4), None] {
            let run = EggSync::host(0.05, threads).cluster(&data);
            assert_eq!(run.labels, reference.labels, "threads {threads:?}");
            assert_eq!(run.iterations, reference.iterations);
            // not merely close: the engine promises bitwise equality
            assert_eq!(
                run.final_coords.coords(),
                reference.final_coords.coords(),
                "threads {threads:?}"
            );
        }
    }

    #[test]
    fn high_dimensional_run() {
        let (data, truth) = GaussianSpec {
            n: 150,
            dim: 10,
            clusters: 3,
            std_dev: 3.0,
            seed: 4,
            ..GaussianSpec::default()
        }
        .generate_normalized();
        let result = EggSync::new(0.4).cluster(&data);
        assert!(result.converged);
        assert!(purity(&truth, &result.labels) > 0.95);
    }

    #[test]
    fn sharded_host_matches_oracle_on_blobs() {
        let (data, _) = blobs(400, 3, 7);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for workers in [Some(1), Some(4), None] {
            let mut oracle = EggSync::host(0.05, workers);
            oracle.options.num_shards = 1;
            let oracle = oracle.cluster(&data);
            for shards in [2usize, 4, 8] {
                let mut algo = EggSync::host(0.05, workers);
                algo.options.num_shards = shards;
                let run = algo.cluster(&data);
                assert_eq!(run.labels, oracle.labels, "S={shards} {workers:?}");
                assert_eq!(run.iterations, oracle.iterations, "S={shards} {workers:?}");
                assert_eq!(
                    bits(run.final_coords.coords()),
                    bits(oracle.final_coords.coords()),
                    "S={shards} {workers:?}"
                );
                assert_eq!(run.trace.update_counters.shard_count, shards as u64);
                // points cross shard borders, so the membership splice runs
                assert!(
                    run.trace.update_counters.halo_movers > 0,
                    "S={shards} {workers:?}: no halo movers"
                );
                // each shard's grid must be a real fraction of the whole
                assert!(
                    run.trace.peak_shard_structure_bytes < oracle.trace.peak_structure_bytes,
                    "S={shards}: per-shard grid should shrink below the single grid"
                );
            }
        }
    }

    #[test]
    fn dispatch_instrumentation_reaches_the_trace() {
        // large enough that the owned windows span several point chunks —
        // sub-chunk inputs take the executor's inline path, which by
        // design does not count as a dispatch
        let (data, _) = blobs(5000, 3, 5);
        let mut algo = EggSync::host(0.05, Some(4));
        algo.options.num_shards = 2;
        let run = algo.cluster(&data);
        assert!(run.trace.update_counters.exec_dispatches > 0);
        assert!(run.trace.stages.get(Stage::ExecDispatch) > 0.0);
    }

    #[test]
    fn sharding_degrades_gracefully_on_degenerate_domains() {
        // constant leading dimension: every point shares leading cell 0,
        // so all but the first shard own empty regions — the sharded run
        // must still match the oracle bitwise instead of panicking on
        // empty member lists or empty owned windows
        let coords: Vec<f64> = (0..300)
            .flat_map(|i| [0.0, ((i as u64 * 2654435761) % 1000) as f64 / 1000.0])
            .collect();
        let data = Dataset::from_coords(coords, 2);
        let mut oracle = EggSync::host(0.05, Some(1));
        oracle.options.num_shards = 1;
        let oracle = oracle.cluster(&data);
        for shards in [4usize, 8] {
            let mut algo = EggSync::host(0.05, Some(2));
            algo.options.num_shards = shards;
            let run = algo.cluster(&data);
            assert_eq!(run.labels, oracle.labels, "S={shards}");
            assert_eq!(run.iterations, oracle.iterations, "S={shards}");
            assert_eq!(run.final_coords.coords(), oracle.final_coords.coords());
        }

        // huge ε collapses the grid to a single cell per dimension: the
        // plan clamps to one shard and the run degrades to the single-grid
        // path (shard_count counter stays 0 — it never forked)
        let mut algo = EggSync::host(3.0, Some(2));
        algo.options.num_shards = 8;
        let run = algo.cluster(&data);
        assert!(run.converged);
        assert_eq!(run.trace.update_counters.shard_count, 0);
    }
}
