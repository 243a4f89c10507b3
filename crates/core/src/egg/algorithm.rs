//! EGG-SynC — Algorithm 4, the full driver.
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
//! There is **no λ parameter**: termination is exact, which is the paper's
//! headline correctness contribution.

use egg_data::Dataset;
use egg_gpu_sim::{Device, DeviceConfig};

use crate::exec::{threads_default, Executor};
use crate::grid::{CellGrid, GridGeometry, GridVariant, GridWorkspace, ShardPlan};
use crate::instrument::{timed, IterationRecord, RunTrace, Stage, StageTimings};
use crate::result::{ClusterAlgorithm, Clustering};

use super::gather::gather_labels;
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
    /// (`None` = the host's available parallelism).
    pub fn host(epsilon: f64, threads: Option<usize>) -> Self {
        Self {
            backend: Backend::Host,
            threads,
            ..Self::new(epsilon)
        }
    }

    /// Algorithm 4 on the host execution engine: identical pipeline and
    /// classification logic to the device path, with [`CellGrid`] as the
    /// grid structure and no simulated-GPU cost accounting.
    fn cluster_host(&self, data: &Dataset) -> Clustering {
        let dim = data.dim();
        let n = data.len();
        let exec = Executor::with_mode(self.threads, self.options.use_pooled_exec);
        let mut trace = RunTrace {
            engine_threads: Some(exec.workers()),
            ..RunTrace::default()
        };
        if n == 0 {
            return Clustering::from_labels(Vec::new(), 0, true, data.clone(), trace);
        }

        let geometry = GridGeometry::new(dim, self.epsilon, n, self.variant);
        if self.options.num_shards > 1 {
            let plan = ShardPlan::new(&geometry, self.options.num_shards);
            // a clamped-to-1 plan (degenerate leading dimension) falls
            // through to the single-grid path below — it IS that path
            if plan.count() > 1 {
                return super::shard::cluster_host_sharded(self, data, exec, trace, geometry, plan);
            }
        }

        // --- allocate the iteration workspace once: ping-pong coordinate
        // buffers, the reusable grid (CSR arrays, summaries, lane tables)
        // and the per-chunk update scratch. The loop below only ever
        // *reuses* these, so steady-state iterations are allocation-free.
        let use_inc = self.options.use_incremental;
        let ((mut coords_cur, mut coords_next, mut grid, mut chunk_stats, mut state), alloc_secs) =
            timed(|| {
                (
                    data.coords().to_vec(),
                    vec![0.0f64; n * dim],
                    CellGrid::new(geometry),
                    Vec::new(),
                    IncrementalState::new(),
                )
            });
        trace.stages.add(Stage::Allocating, alloc_secs);

        let mut iterations = 0usize;
        let mut converged = false;
        while iterations < self.max_iterations {
            let iter_start = std::time::Instant::now();

            // bring grid + summaries + lane tables up to date with state t,
            // in place; the incremental path touches only what moved
            let (stats, build_secs) = timed(|| {
                grid.refresh(
                    &exec,
                    &coords_cur,
                    if use_inc { state.moved_flags() } else { None },
                )
            });
            trace.stages.add(Stage::BuildStructure, build_secs);
            trace.update_counters.dirty_cells += stats.dirty_cells;
            trace.observe_structure_bytes(grid.memory_bytes());
            trace.observe_shard_structure_bytes(grid.memory_bytes());

            // update t → t+1, certifying the first term on state t
            let ((first_term, counters), update_secs) = timed(|| {
                egg_update_host(
                    &exec,
                    &grid,
                    &coords_cur,
                    &mut coords_next,
                    self.epsilon,
                    self.options,
                    &mut chunk_stats,
                    if use_inc { Some(&mut state) } else { None },
                    None,
                )
            });
            trace.stages.add(Stage::Update, update_secs);
            trace.update_counters.merge(&counters);

            // second term, only when the first survived (state t!) — the
            // previous pass's confinement flags narrow the partner scans
            let mut done = false;
            if first_term {
                let (second, check_secs) = timed(|| {
                    second_term_holds_host(
                        &exec,
                        &grid,
                        &coords_cur,
                        self.epsilon,
                        if use_inc {
                            state.confined_flags()
                        } else {
                            None
                        },
                        self.options.use_simd,
                    )
                });
                trace.stages.add(Stage::ExtraCheck, check_secs);
                done = second;
            }

            if use_inc {
                state.finish_pass(&geometry, &coords_cur, &coords_next);
            }
            std::mem::swap(&mut coords_cur, &mut coords_next);
            iterations += 1;
            trace.iterations.push(IterationRecord {
                iteration: iterations - 1,
                seconds: iter_start.elapsed().as_secs_f64(),
                sim_seconds: None,
                rc: None,
            });
            if done {
                converged = true;
                break;
            }
        }

        // --- gather: non-empty cells of the certified grid are clusters --
        let (labels, gather_secs) = timed(|| grid.point_cell().to_vec());
        trace.stages.add(Stage::Clustering, gather_secs);

        let final_coords = Dataset::from_coords(coords_cur, dim);
        let (_, free_secs) = timed(|| {
            drop(grid);
            drop(chunk_stats);
            drop(coords_next);
        });
        trace.stages.add(Stage::FreeMemory, free_secs);
        trace
            .stages
            .add(Stage::ExecDispatch, exec.dispatch_overhead_seconds());
        trace.update_counters.exec_dispatches = exec.dispatch_count();
        trace.total_seconds = trace.stages.total();
        Clustering::from_labels(labels, iterations, converged, final_coords, trace)
    }

    /// Algorithm 4 on the simulated GPU.
    fn cluster_device(&self, data: &Dataset) -> Clustering {
        let dim = data.dim();
        let n = data.len();
        let mut trace = RunTrace::default();
        if n == 0 {
            return Clustering::from_labels(Vec::new(), 0, true, data.clone(), trace);
        }
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
        let mut sim_stages = StageTimings::default();
        let mut sim_mark = 0u64;
        let mut take_sim = |device: &Device, stages: &mut StageTimings, stage: Stage| {
            let now = device.sim_kernel_nanos();
            stages.add(stage, (now - sim_mark) as f64 / 1e9);
            sim_mark = now;
        };

        // --- allocate everything once (Algorithm 4 reuses all arrays) ----
        let use_inc = self.options.use_incremental;
        let geometry = GridGeometry::new(dim, self.epsilon, n, self.variant);
        let (
            (mut coords_cur, mut coords_next, sync_flag, counters, mut workspace, mut inc_state),
            alloc_secs,
        ) = timed(|| {
            let coords = device.alloc_from_slice::<f64>(data.coords());
            let next = device.alloc::<f64>(n * dim);
            let flag = device.alloc::<u64>(1);
            let counters = device.alloc::<u64>(COUNTER_SLOTS);
            let workspace = GridWorkspace::new(&device, geometry, n);
            let inc_state = DeviceIncrementalState::new(&device, &geometry, n);
            (coords, next, flag, counters, workspace, inc_state)
        });
        trace.stages.add(Stage::Allocating, alloc_secs);
        take_sim(&device, &mut sim_stages, Stage::Allocating);
        trace.observe_structure_bytes(device.memory_used() as usize);
        workspace.set_fused(self.options.use_fused_kernels);

        let mut iterations = 0usize;
        let mut converged = false;
        let mut last_grid = None;
        while iterations < self.max_iterations {
            let iter_start = std::time::Instant::now();
            let sim_iter_start = device.sim_kernel_nanos();

            // bring grid + summaries + preGrid up to date with state t; the
            // incremental path touches only what moved
            let ((grid, pre, stats), build_secs) = timed(|| {
                workspace.refresh(
                    &coords_cur,
                    if use_inc {
                        inc_state.moved_flags()
                    } else {
                        None
                    },
                )
            });
            trace.stages.add(Stage::BuildStructure, build_secs);
            take_sim(&device, &mut sim_stages, Stage::BuildStructure);
            trace.observe_structure_bytes(device.memory_used() as usize);
            counters.atomic_add(4, stats.dirty_cells);

            // update t → t+1, certifying the first term on state t
            let (first_term, update_secs) = timed(|| {
                sync_flag.store(0, 1);
                if use_inc {
                    inc_state.mark_skips(&device, &grid);
                }
                egg_update(
                    &device,
                    &grid,
                    &pre,
                    &coords_cur,
                    &coords_next,
                    &sync_flag,
                    &counters,
                    n,
                    self.epsilon,
                    self.options,
                    use_inc.then_some(&inc_state),
                );
                sync_flag.load(0) == 1
            });
            trace.stages.add(Stage::Update, update_secs);
            take_sim(&device, &mut sim_stages, Stage::Update);

            // second term, only when the first survived (state t!) — the
            // first-term verdict is already read, so the flag is reusable;
            // the pass's confinement flags narrow the partner scans
            let mut done = false;
            if first_term {
                let (second, check_secs) = timed(|| {
                    second_term_holds(
                        &device,
                        &grid,
                        &pre,
                        &coords_cur,
                        &sync_flag,
                        n,
                        self.epsilon,
                        use_inc.then_some(&inc_state.confined),
                    )
                });
                trace.stages.add(Stage::ExtraCheck, check_secs);
                take_sim(&device, &mut sim_stages, Stage::ExtraCheck);
                done = second;
            }

            if use_inc {
                inc_state.finish_pass(&device, &geometry, &coords_cur, &coords_next, n);
            }
            std::mem::swap(&mut coords_cur, &mut coords_next);
            iterations += 1;
            trace.iterations.push(IterationRecord {
                iteration: iterations - 1,
                seconds: iter_start.elapsed().as_secs_f64(),
                sim_seconds: Some((device.sim_kernel_nanos() - sim_iter_start) as f64 / 1e9),
                rc: None,
            });
            last_grid = Some(grid);
            if done {
                converged = true;
                break;
            }
        }

        // --- gather: non-empty cells of the certified grid are clusters --
        let (labels, gather_secs) =
            timed(|| last_grid.as_ref().map(gather_labels).unwrap_or_default());
        trace.stages.add(Stage::Clustering, gather_secs);
        take_sim(&device, &mut sim_stages, Stage::Clustering);

        let final_coords = Dataset::from_coords(coords_cur.to_vec(), dim);
        trace.update_counters = counters_from_device(&counters);
        trace.kernel_summary = Some(crate::instrument::KernelSummary::from_report(
            &device.report(),
        ));
        trace.observe_structure_bytes(device.memory_used() as usize);
        let (_, free_secs) = timed(|| {
            drop(workspace);
            drop(last_grid);
            drop(coords_next);
        });
        trace.stages.add(Stage::FreeMemory, free_secs);
        trace.total_seconds = trace.stages.total();
        trace.total_sim_seconds = Some(sim_stages.total());
        trace.sim_stages = Some(sim_stages);
        Clustering::from_labels(labels, iterations, converged, final_coords, trace)
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
        if self.max_iterations == 0 && !data.is_empty() {
            // no iteration runs, so the clusters are the cells of the input:
            // the grid iteration 1 would build and gather would read
            let geometry = GridGeometry::new(data.dim(), self.epsilon, data.len(), self.variant);
            let grid = CellGrid::build(&Executor::sequential(), geometry, data.coords());
            let labels = grid.point_cell().to_vec();
            return Clustering::from_labels(labels, 0, false, data.clone(), RunTrace::default());
        }
        match self.backend {
            Backend::SimulatedGpu => self.cluster_device(data),
            Backend::Host => self.cluster_host(data),
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
        for bits in 0u8..32 {
            let options = UpdateOptions {
                use_summaries: bits & 1 != 0,
                use_pregrid: bits & 2 != 0,
                use_incremental: bits & 4 != 0,
                use_simd: bits & 8 != 0,
                use_fused_kernels: bits & 16 != 0,
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

    #[test]
    fn stage_timings_are_populated() {
        let (data, _) = blobs(120, 2, 1);
        let result = EggSync::new(0.05).cluster(&data);
        let st = &result.trace.stages;
        assert!(st.get(Stage::BuildStructure) > 0.0);
        assert!(st.get(Stage::Update) > 0.0);
        assert!(result.trace.total_sim_seconds.unwrap() > 0.0);
        assert!(result.trace.peak_structure_bytes > 0);
        assert_eq!(result.trace.iterations.len(), result.iterations);
    }

    #[test]
    fn empty_single_duplicate_inputs() {
        assert_eq!(
            EggSync::new(0.05).cluster(&Dataset::empty(2)).num_clusters,
            0
        );
        let single = EggSync::new(0.05).cluster(&Dataset::from_coords(vec![0.4, 0.6], 2));
        assert!(single.converged);
        assert_eq!(single.num_clusters, 1);
        let dup = EggSync::new(0.05).cluster(&Dataset::from_coords([0.5, 0.5].repeat(7), 2));
        assert!(dup.converged);
        assert_eq!(dup.num_clusters, 1);
        assert_eq!(dup.labels, vec![0; 7]);
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

    /// Fusion's cost claims, on one simulator thread: the fused tables
    /// writer launches fewer kernels, moves fewer words, issues fewer
    /// atomics (it has no f64 summary scatter) and takes less simulated
    /// build+update time than the unfused oracle, for the same run.
    #[test]
    fn fused_pipeline_costs_less_than_the_unfused_oracle() {
        let data = GaussianSpec {
            n: 600,
            dim: 4,
            ..GaussianSpec::default()
        }
        .generate_normalized()
        .0;
        let run = |fused: bool| {
            let mut algo = EggSync {
                threads: Some(1),
                ..EggSync::new(0.25)
            };
            algo.options.use_fused_kernels = fused;
            algo.cluster(&data)
        };
        let (fused, unfused) = (run(true), run(false));
        let bits = |r: &Clustering| {
            r.final_coords
                .coords()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(fused.labels, unfused.labels);
        assert_eq!(fused.iterations, unfused.iterations);
        assert_eq!(bits(&fused), bits(&unfused));
        let cost = |r: &Clustering| {
            let k = r.trace.kernel_summary.expect("device run records kernels");
            let sim = r.trace.sim_stages.as_ref().expect("simulated stages");
            let build_update = sim.get(Stage::BuildStructure) + sim.get(Stage::Update);
            (k.launches, k.mem_words, k.atomics, build_update)
        };
        let (f, u) = (cost(&fused), cost(&unfused));
        assert!(f.0 < u.0, "launches: fused {} vs unfused {}", f.0, u.0);
        assert!(f.1 < u.1, "words: fused {} vs unfused {}", f.1, u.1);
        assert!(f.2 < u.2, "atomics: fused {} vs unfused {}", f.2, u.2);
        assert!(f.3 < u.3, "sim time: fused {} vs unfused {}", f.3, u.3);
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
    fn host_backend_trace_reports_engine_threads() {
        let (data, _) = blobs(120, 2, 1);
        let result = EggSync::host(0.05, Some(3)).cluster(&data);
        let trace = &result.trace;
        assert_eq!(trace.engine_threads, Some(3));
        assert!(trace.sim_stages.is_none() && trace.total_sim_seconds.is_none());
        assert!(trace.stages.get(Stage::BuildStructure) > 0.0);
        assert!(trace.stages.get(Stage::Update) > 0.0);
        assert!(trace.peak_structure_bytes > 0);
        assert_eq!(trace.iterations.len(), result.iterations);
    }

    #[test]
    fn host_backend_edge_inputs() {
        let algo = EggSync::host(0.05, Some(2));
        assert_eq!(algo.cluster(&Dataset::empty(2)).num_clusters, 0);
        let single = algo.cluster(&Dataset::from_coords(vec![0.4, 0.6], 2));
        assert!(single.converged);
        assert_eq!(single.num_clusters, 1);
        let dup = algo.cluster(&Dataset::from_coords([0.5, 0.5].repeat(7), 2));
        assert!(dup.converged);
        assert_eq!(dup.labels, vec![0; 7]);
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
    fn pooled_and_scoped_dispatch_are_bitwise_identical() {
        let (data, _) = blobs(300, 3, 42);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let run_with = |pooled: bool| {
            let mut algo = EggSync::host(0.05, Some(4));
            algo.options.num_shards = 4;
            algo.options.use_pooled_exec = pooled;
            algo.cluster(&data)
        };
        // oracle: scoped dispatch
        let oracle = run_with(false);
        let run = run_with(true);
        assert_eq!(run.labels, oracle.labels);
        assert_eq!(run.iterations, oracle.iterations);
        assert_eq!(
            bits(run.final_coords.coords()),
            bits(oracle.final_coords.coords())
        );
        // the dispatch mode must not perturb the work counters either,
        // down to the number of dispatches issued
        assert_eq!(run.trace.update_counters, oracle.trace.update_counters);
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
        // diagnostic stages must not inflate the wall-clock total
        let wall: f64 = [
            Stage::Allocating,
            Stage::BuildStructure,
            Stage::Update,
            Stage::ExtraCheck,
            Stage::Clustering,
            Stage::FreeMemory,
            Stage::HaloExchange,
        ]
        .iter()
        .map(|&s| run.trace.stages.get(s))
        .sum();
        assert!((run.trace.total_seconds - wall).abs() < 1e-12);
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
