//! GPU-SynC — the paper's straightforward GPU-parallel baseline, as
//! simulated-device kernels.
//!
//! Same model and λ-termination as [`crate::Sync`]: one device thread per
//! point computes the Kuramoto update with a brute-force scan of global
//! memory and accumulates its `r_c` contribution with an atomic add.
//! Cluster gathering also runs on the device, in the style of G-DBSCAN's
//! parallel cluster growing: labels start as point ids and a min-label
//! propagation kernel is relaunched until a fixed point — which is exactly
//! why the paper's Table 1 shows GPU-SynC spending a large share of its
//! time in the `Clustering` stage.
//!
//! All runtime measurements include host↔device transfer, as in the paper.

use std::sync::Arc;

use egg_data::Dataset;
use egg_gpu_sim::{grid_for, Device, DeviceConfig};

use crate::exec::Executor;
use crate::instrument::{timed, IterationRecord, RunTrace, Stage};
use crate::model::SyncParams;
use crate::result::{ClusterAlgorithm, Clustering};

/// Threads per block; the paper runs all CUDA experiments with 128.
pub(crate) const BLOCK: usize = 128;

/// Maximum supported dimensionality of the kernel-side stack buffers.
pub(crate) const MAX_DIM: usize = 64;

/// Brute-force GPU-parallel SynC with λ-termination.
#[derive(Debug, Clone)]
pub struct GpuSync {
    /// Hyper-parameters (ε, λ, γ, iteration cap).
    pub params: SyncParams,
    /// Simulated-device configuration. The device runs its launches on an
    /// [`Executor`] of the `EGG_THREADS` override's width when it is set,
    /// else of the host's available parallelism.
    pub device_config: DeviceConfig,
}

impl GpuSync {
    /// GPU-SynC with the given ε on the default simulated RTX 3090.
    pub fn new(epsilon: f64) -> Self {
        Self {
            params: SyncParams::new(epsilon),
            device_config: DeviceConfig::default(),
        }
    }

    /// GPU-SynC with explicit parameters and device configuration.
    pub fn with_params(params: SyncParams, device_config: DeviceConfig) -> Self {
        Self {
            params,
            device_config,
        }
    }
}

impl ClusterAlgorithm for GpuSync {
    fn name(&self) -> &'static str {
        "GPU-SynC"
    }

    fn cluster(&self, data: &Dataset) -> Clustering {
        let dim = data.dim();
        let n = data.len();
        assert!(
            dim <= MAX_DIM,
            "GPU kernels support at most {MAX_DIM} dimensions"
        );
        let mut trace = RunTrace::default();
        if n == 0 {
            return Clustering::from_labels(Vec::new(), 0, true, data.clone(), trace);
        }
        let eps_sq = self.params.epsilon * self.params.epsilon;
        let runner = Arc::new(Executor::new(None));
        let device = Device::with_runner(self.device_config.clone(), runner);

        // --- allocate & upload -------------------------------------------
        let ((coords, next, rc_buf, sin_t, cos_t), alloc_secs) = timed(|| {
            let coords = device.alloc_from_slice::<f64>(data.coords());
            let next = device.alloc::<f64>(n * dim);
            let rc_buf = device.alloc::<f64>(1);
            // per-point trig tables, refilled each iteration: the pairwise
            // loop below consumes them through the angle-addition identity
            // instead of evaluating sin(q−p) per pair per dimension
            let sin_t = device.alloc::<f64>(n * dim);
            let cos_t = device.alloc::<f64>(n * dim);
            (coords, next, rc_buf, sin_t, cos_t)
        });
        trace.stages.add(Stage::Allocating, alloc_secs);
        trace.observe_structure_bytes(device.memory_used() as usize);

        // --- synchronize -------------------------------------------------
        let mut coords_cur = coords;
        let mut coords_next = next;
        let mut iterations = 0usize;
        let mut converged = false;
        let mut sim_stages = crate::instrument::StageTimings::default();
        while iterations < self.params.max_iterations {
            let sim_before = device.sim_kernel_nanos();
            let (rc, secs) = timed(|| {
                rc_buf.store(0, 0.0);
                let cur = &coords_cur;
                let nxt = &coords_next;
                let rc_ref = &rc_buf;
                let (sin_t, cos_t) = (&sin_t, &cos_t);
                // refill the trig tables from the current positions: n·d
                // transcendental pairs total, instead of one per candidate
                // pair per dimension in the O(n²) loop below
                device.launch("gpu_sync_trig", grid_for(n, BLOCK), BLOCK, |t| {
                    let p_idx = t.global_id();
                    if p_idx >= n {
                        return;
                    }
                    for i in 0..dim {
                        let x = cur.load(p_idx * dim + i);
                        sin_t.store(p_idx * dim + i, x.sin());
                        cos_t.store(p_idx * dim + i, x.cos());
                    }
                });
                device.launch("gpu_sync_update", grid_for(n, BLOCK), BLOCK, |t| {
                    let p_idx = t.global_id();
                    if p_idx >= n {
                        return;
                    }
                    let mut p = [0.0f64; MAX_DIM];
                    let (mut sin_p, mut cos_p) = ([0.0f64; MAX_DIM], [0.0f64; MAX_DIM]);
                    for i in 0..dim {
                        p[i] = cur.load(p_idx * dim + i);
                        sin_p[i] = sin_t.load(p_idx * dim + i);
                        cos_p[i] = cos_t.load(p_idx * dim + i);
                    }
                    let mut sums = [0.0f64; MAX_DIM];
                    let mut count = 0usize;
                    let mut rc_acc = 0.0;
                    // every thread in the warp scans the same q at each
                    // step, so these reads are a broadcast served by one
                    // transaction — charged at peak bandwidth
                    for q_idx in 0..n {
                        let mut dist_sq = 0.0;
                        let mut q = [0.0f64; MAX_DIM];
                        for i in 0..dim {
                            q[i] = cur.load_coalesced(q_idx * dim + i);
                            let d = q[i] - p[i];
                            dist_sq += d * d;
                        }
                        if dist_sq <= eps_sq {
                            count += 1;
                            rc_acc += (-dist_sq.sqrt()).exp();
                            // sin(q−p) = sin q · cos p − cos q · sin p
                            for i in 0..dim {
                                sums[i] += sin_t.load_coalesced(q_idx * dim + i) * cos_p[i]
                                    - cos_t.load_coalesced(q_idx * dim + i) * sin_p[i];
                            }
                        }
                    }
                    let inv = 1.0 / count as f64;
                    for i in 0..dim {
                        nxt.store(p_idx * dim + i, p[i] + sums[i] * inv);
                    }
                    rc_ref.atomic_add(0, rc_acc * inv);
                });
                rc_buf.load(0) / n as f64
            });
            std::mem::swap(&mut coords_cur, &mut coords_next);
            let sim_secs = (device.sim_kernel_nanos() - sim_before) as f64 / 1e9;
            trace.stages.add(Stage::Update, secs);
            sim_stages.add(Stage::Update, sim_secs);
            trace.iterations.push(IterationRecord {
                iteration: iterations,
                seconds: secs,
                sim_seconds: Some(sim_secs),
                rc: Some(rc),
            });
            iterations += 1;
            if rc >= self.params.lambda {
                converged = true;
                break;
            }
        }

        // --- gather clusters on the device (min-label propagation) -------
        let sim_before = device.sim_kernel_nanos();
        let (labels, secs) =
            timed(|| gpu_gather_labels(&device, &coords_cur, n, dim, self.params.gamma));
        trace.stages.add(Stage::Clustering, secs);
        sim_stages.add(
            Stage::Clustering,
            (device.sim_kernel_nanos() - sim_before) as f64 / 1e9,
        );

        let final_coords = Dataset::from_coords(coords_cur.to_vec(), dim);
        trace.observe_structure_bytes(device.memory_used() as usize);
        trace.kernel_summary = Some(crate::instrument::KernelSummary::from_report(
            &device.report(),
        ));
        let (_, free_secs) = timed(|| drop(device));
        trace.stages.add(Stage::FreeMemory, free_secs);
        trace.total_seconds = trace.stages.total();
        trace.total_sim_seconds = Some(sim_stages.total());
        trace.sim_stages = Some(sim_stages);
        Clustering::from_labels(labels, iterations, converged, final_coords, trace)
    }
}

/// Device-side transitive γ-gathering: initialize `labels[p] = p`, then
/// relaunch a min-label propagation kernel until no label changes.
pub(crate) fn gpu_gather_labels(
    device: &Device,
    coords: &egg_gpu_sim::DeviceBuffer<f64>,
    n: usize,
    dim: usize,
    gamma: f64,
) -> Vec<u32> {
    let gamma_sq = gamma * gamma;
    let labels = device.alloc::<u64>(n);
    let changed = device.alloc::<u64>(1);
    device.launch("gather_init", grid_for(n, BLOCK), BLOCK, |t| {
        let p = t.global_id();
        if p < n {
            labels.store(p, p as u64);
        }
    });
    loop {
        changed.store(0, 0);
        device.launch("gather_propagate", grid_for(n, BLOCK), BLOCK, |t| {
            let p_idx = t.global_id();
            if p_idx >= n {
                return;
            }
            let mut p = [0.0f64; MAX_DIM];
            for i in 0..dim {
                p[i] = coords.load(p_idx * dim + i);
            }
            let mut my = labels.load(p_idx);
            // q-side reads are a warp-wide broadcast, as in the update scan
            for q_idx in 0..n {
                let mut dist_sq = 0.0;
                for i in 0..dim {
                    let d = coords.load_coalesced(q_idx * dim + i) - p[i];
                    dist_sq += d * d;
                }
                if dist_sq <= gamma_sq {
                    let lq = labels.load_coalesced(q_idx);
                    if lq < my {
                        my = lq;
                    }
                }
            }
            if my < labels.load(p_idx) {
                labels.store(p_idx, my);
                changed.store(0, 1);
            }
        });
        if changed.load(0) == 0 {
            break;
        }
    }
    labels.to_vec().into_iter().map(|l| l as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::sync::Sync;
    use egg_data::generator::GaussianSpec;
    use egg_data::metrics::same_partition;

    fn blobs(n: usize, seed: u64) -> Dataset {
        GaussianSpec {
            n,
            clusters: 3,
            std_dev: 3.0,
            seed,
            ..GaussianSpec::default()
        }
        .generate_normalized()
        .0
    }

    #[test]
    fn matches_cpu_sync_partition() {
        let data = blobs(200, 41);
        let cpu = Sync::new(0.05).cluster(&data);
        let gpu = GpuSync::new(0.05).cluster(&data);
        assert_eq!(cpu.iterations, gpu.iterations);
        assert!(same_partition(&cpu.labels, &gpu.labels));
    }

    #[test]
    fn reports_simulated_time() {
        let data = blobs(100, 2);
        let result = GpuSync::new(0.05).cluster(&data);
        let sim = result.trace.total_sim_seconds.expect("sim time recorded");
        assert!(sim > 0.0);
        assert!(result
            .trace
            .iterations
            .iter()
            .all(|r| r.sim_seconds.unwrap() > 0.0));
    }

    #[test]
    fn memory_is_tracked_and_freed() {
        let data = blobs(100, 2);
        let result = GpuSync::new(0.05).cluster(&data);
        // coords + next + rc + labels + changed at minimum
        assert!(result.trace.peak_structure_bytes >= 100 * 2 * 8 * 2);
    }

    #[test]
    fn empty_dataset() {
        let result = GpuSync::new(0.05).cluster(&Dataset::empty(2));
        assert!(result.converged);
        assert!(result.labels.is_empty());
    }

    #[test]
    fn single_point() {
        let data = Dataset::from_coords(vec![0.25, 0.75], 2);
        let result = GpuSync::new(0.05).cluster(&data);
        assert!(result.converged);
        assert_eq!(result.num_clusters, 1);
    }
}
