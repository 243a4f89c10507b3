//! The simulated device: allocation, kernel launch, performance log.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::Serialize;

use crate::buffer::{BufferInner, DeviceBuffer};
use crate::cost::CostModel;
use crate::counters::{GlobalCounters, KernelStats, PerfReport};
use crate::launch::{BlockCtx, ThreadCtx};
use crate::word::DeviceWord;

/// Hardware parameters of the simulated device.
///
/// The defaults model the paper's evaluation GPU, a GeForce RTX 3090
/// (82 SMs × 128 cores at ~1.7 GHz, 24 GB of GDDR6X at ~936 GB/s).
#[derive(Debug, Clone, Serialize)]
pub struct DeviceConfig {
    /// Human-readable device name (appears in reports).
    pub name: String,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// CUDA cores per SM.
    pub cores_per_sm: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Global-memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Fraction of peak bandwidth achieved by typical kernel access
    /// patterns (derates for imperfect coalescing).
    pub coalescing_efficiency: f64,
    /// Device-wide atomic throughput in Gops/s.
    pub atomic_throughput_gops: f64,
    /// Fixed kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Host↔device (PCIe) bandwidth in GB/s.
    pub pcie_bandwidth_gbps: f64,
    /// Device memory capacity in bytes; allocations beyond it fail with
    /// [`DeviceError::OutOfMemory`].
    pub memory_bytes: u64,
    /// Maximum threads per block accepted by `launch`.
    pub max_threads_per_block: usize,
    /// Ignored: a device runs its blocks on the [`BlockRunner`] it was built
    /// with. Stays only because `perfbench/src/traced.rs` writes it.
    #[doc(hidden)]
    pub host_threads: Option<usize>,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self {
            name: "Simulated GeForce RTX 3090".to_owned(),
            sm_count: 82,
            cores_per_sm: 128,
            clock_ghz: 1.695,
            mem_bandwidth_gbps: 936.0,
            coalescing_efficiency: 0.5,
            atomic_throughput_gops: 2.0,
            launch_overhead_us: 5.0,
            pcie_bandwidth_gbps: 16.0,
            memory_bytes: 24 * 1024 * 1024 * 1024,
            max_threads_per_block: 1024,
            host_threads: None,
        }
    }
}

/// Errors surfaced by the simulated device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// An allocation would exceed [`DeviceConfig::memory_bytes`].
    OutOfMemory {
        /// Bytes the allocation asked for.
        requested: u64,
        /// Bytes still available on the device.
        available: u64,
    },
    /// A launch configuration is invalid (zero or over-limit block size).
    InvalidLaunch(String),
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "device out of memory: requested {requested} bytes, {available} available"
            ),
            DeviceError::InvalidLaunch(msg) => write!(f, "invalid launch: {msg}"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// Runs the blocks of a kernel launch on host threads, for example on a
/// pool of workers that outlives the launch.
///
/// `run(tasks, body)` calls `body` on disjoint ranges that together cover
/// `0..tasks` once each, from any of its threads, and returns after every
/// call returned. A panic in `body` reaches the caller of `run`. A device
/// never calls `run` from a thread that is running a launch's blocks: a
/// launch issued from inside a kernel runs its blocks on the launching
/// thread, so a runner need not be re-entrant.
pub trait BlockRunner: Send + Sync {
    /// Call `body` on ranges covering `0..tasks`; see the trait docs.
    fn run(&self, tasks: usize, body: &(dyn Fn(Range<usize>) + Sync));
}

struct DeviceInner {
    config: DeviceConfig,
    cost: CostModel,
    counters: Arc<GlobalCounters>,
    mem_used: Arc<AtomicU64>,
    kernel_log: Mutex<Vec<KernelStats>>,
    /// Runs each launch's blocks; `None` runs them in order on the
    /// launching thread.
    runner: Option<Arc<dyn BlockRunner>>,
}

/// The simulated GPU. Cheaply cloneable handle; clones share memory
/// accounting, counters and the kernel log.
#[derive(Clone)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

impl Device {
    /// Create a device with the given hardware parameters that runs each
    /// launch's blocks in order on the launching thread.
    pub fn new(config: DeviceConfig) -> Self {
        Self::build(config, None)
    }

    /// Create a device that runs each launch's blocks through `runner`.
    pub fn with_runner(config: DeviceConfig, runner: Arc<dyn BlockRunner>) -> Self {
        Self::build(config, Some(runner))
    }

    fn build(config: DeviceConfig, runner: Option<Arc<dyn BlockRunner>>) -> Self {
        let cost = CostModel::from_config(&config);
        Self {
            inner: Arc::new(DeviceInner {
                config,
                cost,
                counters: Arc::new(GlobalCounters::default()),
                mem_used: Arc::new(AtomicU64::new(0)),
                kernel_log: Mutex::new(Vec::new()),
                runner,
            }),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.inner.config
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.inner.cost
    }

    /// Allocate a zero-initialised buffer of `len` elements, panicking on
    /// device OOM. See [`Device::try_alloc`] for the fallible variant.
    pub fn alloc<T: DeviceWord>(&self, len: usize) -> DeviceBuffer<T> {
        self.try_alloc(len).expect("device allocation failed")
    }

    /// Allocate a zero-initialised buffer of `len` elements. A request
    /// whose byte count does not fit in a `u64` is out of memory too.
    pub fn try_alloc<T: DeviceWord>(&self, len: usize) -> Result<DeviceBuffer<T>, DeviceError> {
        let capacity = self.inner.config.memory_bytes;
        let bytes = (len as u64).checked_mul(8);
        let reserve = |used: u64| bytes?.checked_add(used).filter(|&total| total <= capacity);
        let mem_used = &self.inner.mem_used;
        if let Err(used) = mem_used.fetch_update(Ordering::Relaxed, Ordering::Relaxed, reserve) {
            return Err(DeviceError::OutOfMemory {
                requested: bytes.unwrap_or(u64::MAX),
                available: capacity.saturating_sub(used),
            });
        }
        let words: Box<[AtomicU64]> = (0..len).map(|_| AtomicU64::new(0)).collect();
        Ok(DeviceBuffer::from_inner(Arc::new(BufferInner {
            words,
            counters: Arc::clone(&self.inner.counters),
            mem_used: Arc::clone(&self.inner.mem_used),
        })))
    }

    /// Allocate a buffer and upload `data` into it (counted as a
    /// host-to-device transfer).
    pub fn alloc_from_slice<T: DeviceWord>(&self, data: &[T]) -> DeviceBuffer<T> {
        let buf = self.alloc(data.len());
        buf.copy_from_slice(data);
        buf
    }

    /// Bytes of device memory currently allocated.
    pub fn memory_used(&self) -> u64 {
        self.inner.mem_used.load(Ordering::Relaxed)
    }

    /// Launch a thread-granular kernel: `f` runs once per thread over
    /// `grid_dim × block_dim` threads, blocks distributed by the device's
    /// [`BlockRunner`].
    ///
    /// This is the analogue of `kernel<<<grid_dim, block_dim>>>(…)`. The
    /// closure must bounds-check its global id against the problem size, as
    /// CUDA kernels do, because the launch is rounded up to whole blocks.
    pub fn launch<F>(&self, name: &'static str, grid_dim: usize, block_dim: usize, f: F)
    where
        F: Fn(&ThreadCtx) + Sync,
    {
        self.validate(block_dim);
        self.timed(name, grid_dim, block_dim, || {
            self.run_blocks(grid_dim, |block_idx| {
                for thread_idx in 0..block_dim {
                    f(&ThreadCtx {
                        block_idx,
                        thread_idx,
                        block_dim,
                        grid_dim,
                    });
                }
            });
        });
    }

    /// Launch a block-granular kernel: `f` runs once per *block* and drives
    /// its threads in barrier-delimited phases via
    /// [`BlockCtx::for_each_thread`]. Use this for kernels that need
    /// simulated shared memory / `__syncthreads()`.
    pub fn launch_blocks<F>(&self, name: &'static str, grid_dim: usize, block_dim: usize, f: F)
    where
        F: Fn(&BlockCtx) + Sync,
    {
        self.validate(block_dim);
        self.timed(name, grid_dim, block_dim, || {
            self.run_blocks(grid_dim, |block_idx| {
                f(&BlockCtx {
                    block_idx,
                    block_dim,
                    grid_dim,
                });
            });
        });
    }

    fn validate(&self, block_dim: usize) {
        assert!(
            block_dim > 0 && block_dim <= self.inner.config.max_threads_per_block,
            "invalid block size {block_dim} (max {})",
            self.inner.config.max_threads_per_block
        );
    }

    /// Execute `per_block` for every block index through the device's
    /// runner, or in order on this thread when it has none or when this
    /// thread is already running a launch's blocks (a launch from inside a
    /// kernel, whose runner may be busy with the outer launch). Each range
    /// of blocks counts its memory traffic in one batch on the thread that
    /// runs it, flushed into the device counters before this returns (or
    /// unwinds).
    fn run_blocks<G>(&self, grid_dim: usize, per_block: G)
    where
        G: Fn(usize) + Sync,
    {
        let counters = &*self.inner.counters;
        let blocks = |range: Range<usize>| {
            let _batch = counters.open_batch();
            range.for_each(&per_block);
        };
        match &self.inner.runner {
            Some(runner) if !crate::counters::batch_open() => runner.run(grid_dim, &blocks),
            _ => blocks(0..grid_dim),
        }
    }

    fn timed(&self, name: &'static str, grid_dim: usize, block_dim: usize, body: impl FnOnce()) {
        let before = self.inner.counters.snapshot();
        let start = Instant::now();
        body();
        let host_nanos = start.elapsed().as_nanos() as u64;
        let after = self.inner.counters.snapshot();
        let threads = (grid_dim * block_dim) as u64;
        let reads = after.reads - before.reads;
        let writes = after.writes - before.writes;
        let coalesced_reads = after.coalesced_reads - before.coalesced_reads;
        let coalesced_writes = after.coalesced_writes - before.coalesced_writes;
        let atomics = after.atomics - before.atomics;
        let sim = self.inner.cost.kernel_time(
            threads,
            reads,
            writes,
            atomics,
            coalesced_reads + coalesced_writes,
        );
        self.inner.kernel_log.lock().unwrap().push(KernelStats {
            name,
            grid_dim,
            block_dim,
            threads,
            reads,
            writes,
            coalesced_reads,
            coalesced_writes,
            atomics,
            host_nanos,
            sim_nanos: sim.nanos,
        });
    }

    /// Reserve capacity for `additional` further kernel-log entries.
    ///
    /// Logging a kernel is otherwise allocation-free (`KernelStats` holds a
    /// static name), but a `Vec` push can still reallocate; callers with an
    /// allocation-free steady-state contract reserve ahead of the measured
    /// window.
    pub fn reserve_kernel_log(&self, additional: usize) {
        self.inner.kernel_log.lock().unwrap().reserve(additional);
    }

    /// Produce a report over all kernels since the last [`Device::reset`],
    /// including simulated PCIe time for host↔device copies.
    pub fn report(&self) -> PerfReport {
        let kernels = self.inner.kernel_log.lock().unwrap().clone();
        let snap = self.inner.counters.snapshot();
        let mut report = PerfReport {
            total_threads: kernels.iter().map(|k| k.threads).sum(),
            total_reads: kernels.iter().map(|k| k.reads).sum(),
            total_writes: kernels.iter().map(|k| k.writes).sum(),
            total_coalesced_reads: kernels.iter().map(|k| k.coalesced_reads).sum(),
            total_coalesced_writes: kernels.iter().map(|k| k.coalesced_writes).sum(),
            total_atomics: kernels.iter().map(|k| k.atomics).sum(),
            h2d_words: snap.h2d_words,
            d2h_words: snap.d2h_words,
            total_host_nanos: kernels.iter().map(|k| k.host_nanos).sum(),
            total_sim_nanos: kernels.iter().map(|k| k.sim_nanos).sum(),
            kernels,
        };
        report.total_sim_nanos += self
            .inner
            .cost
            .transfer_time(snap.h2d_words + snap.d2h_words)
            .nanos;
        report
    }

    /// Total simulated GPU nanoseconds across all kernels since the last
    /// [`Device::reset`], excluding host↔device transfer time. Cheap —
    /// intended for per-iteration deltas during a run (unlike
    /// [`Device::report`], which clones the kernel log).
    pub fn sim_kernel_nanos(&self) -> u64 {
        self.inner
            .kernel_log
            .lock()
            .unwrap()
            .iter()
            .map(|k| k.sim_nanos)
            .sum()
    }

    /// Clear the kernel log and all operation counters. (Allocations and
    /// memory accounting are unaffected.)
    pub fn reset(&self) {
        self.inner.kernel_log.lock().unwrap().clear();
        let c = &self.inner.counters;
        c.reads.store(0, Ordering::Relaxed);
        c.writes.store(0, Ordering::Relaxed);
        c.coalesced_reads.store(0, Ordering::Relaxed);
        c.coalesced_writes.store(0, Ordering::Relaxed);
        c.atomics.store(0, Ordering::Relaxed);
        c.h2d_words.store(0, Ordering::Relaxed);
        c.d2h_words.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("name", &self.inner.config.name)
            .field("runner", &self.inner.runner.is_some())
            .field("memory_used", &self.memory_used())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoped_runner::ScopedRunner;

    fn dev() -> Device {
        Device::new(DeviceConfig::default())
    }

    #[test]
    fn launch_runs_every_thread_once() {
        let d = dev();
        let hits = d.alloc::<u64>(1000);
        d.launch("mark", crate::grid_for(1000, 128), 128, |t| {
            let i = t.global_id();
            if i < hits.len() {
                hits.atomic_inc(i);
            }
        });
        assert!(hits.to_vec().iter().all(|&h| h == 1));
    }

    #[test]
    fn kernel_stats_recorded() {
        let d = dev();
        let buf = d.alloc::<f64>(256);
        d.reset();
        d.launch("touch", 2, 128, |t| {
            buf.store(t.global_id(), 1.0);
        });
        let report = d.report();
        assert_eq!(report.launches(), 1);
        let k = &report.kernels[0];
        assert_eq!(k.name, "touch");
        assert_eq!(k.threads, 256);
        assert_eq!(k.writes, 256);
        assert_eq!(k.reads, 0);
        assert_eq!(k.coalesced_writes, 0);
        assert!(k.sim_nanos > 0);
    }

    /// A device that runs its blocks on `threads` scoped threads per
    /// launch, or on the launching thread when `threads` is 1.
    fn with_threads(threads: usize) -> Device {
        let config = DeviceConfig::default();
        match threads {
            1 => Device::new(config),
            _ => Device::with_runner(config, Arc::new(ScopedRunner(threads))),
        }
    }

    /// `(name, threads, reads, writes, coalesced_reads, coalesced_writes,
    /// atomics)` of every kernel in the log.
    fn kernel_counts(d: &Device) -> Vec<(&'static str, u64, u64, u64, u64, u64, u64)> {
        d.report()
            .kernels
            .iter()
            .map(|k| {
                (
                    k.name,
                    k.threads,
                    k.reads,
                    k.writes,
                    k.coalesced_reads,
                    k.coalesced_writes,
                    k.atomics,
                )
            })
            .collect()
    }

    #[test]
    fn coalesced_accesses_feed_both_channels() {
        let mut reference_sim_nanos = None;
        for threads in [1, 2, 3, 8] {
            let d = with_threads(threads);
            let buf = d.alloc::<f64>(256);
            let acc = d.alloc::<u64>(5);
            acc.store(2, u64::MAX);
            d.reset();
            d.launch("coalesced-touch", 2, 128, |t| {
                let i = t.global_id();
                buf.store_coalesced(i, 1.0);
                let _ = buf.load_coalesced(i);
                let _ = buf.load(i);
            });
            d.launch("atomics", 16, 16, |t| {
                let i = t.global_id() as u64;
                acc.atomic_add(0, 1);
                acc.atomic_max(1, i);
                acc.atomic_min(2, i);
                acc.atomic_cas(3, i, i + 1);
                acc.atomic_exchange(4, i);
            });
            d.launch_blocks("two-phase", 4, 64, |b| {
                b.for_each_thread(|t| buf.store(t.global_id(), t.thread_idx as f64));
                b.for_each_thread(|t| {
                    if t.thread_idx == 0 {
                        let sum: f64 = (0..64).map(|j| buf.load_coalesced(t.global_id() + j)).sum();
                        buf.store_coalesced(t.global_id(), sum);
                    }
                });
            });
            assert_eq!(
                kernel_counts(&d),
                vec![
                    ("coalesced-touch", 256, 512, 256, 256, 256, 0),
                    ("atomics", 256, 0, 0, 0, 0, 5 * 256),
                    ("two-phase", 256, 256, 260, 256, 4, 0),
                ],
                "threads {threads}"
            );
            let r = d.report();
            assert_eq!(r.total_reads, 768);
            assert_eq!(r.total_writes, 516);
            assert_eq!(r.total_coalesced_reads, 512);
            assert_eq!(r.total_coalesced_writes, 260);
            assert_eq!(r.total_atomics, 1280);
            assert!((r.coalesced_fraction() - 772.0 / 1284.0).abs() < 1e-12);
            // the cost model sees the same counts at every worker count
            let sim_nanos: Vec<u64> = r.kernels.iter().map(|k| k.sim_nanos).collect();
            assert_eq!(
                &sim_nanos,
                reference_sim_nanos.get_or_insert_with(|| sim_nanos.clone()),
                "threads {threads}"
            );
            assert_eq!(acc.to_vec()[..3], [256, 255, 0]);
            assert_eq!(buf.load(64), (0..64).sum::<usize>() as f64);
        }
    }

    #[test]
    fn kernel_counts_only_its_own_device() {
        for threads in [1, 2] {
            let a = with_threads(threads);
            let b = with_threads(threads);
            let on_a = a.alloc::<u64>(256);
            let on_b = b.alloc::<u64>(256);
            let b_before = b.inner.counters.snapshot();
            a.launch("cross-device", 4, 64, |t| {
                let i = t.global_id();
                on_b.store(i, on_b.load(i) + 1);
                on_b.atomic_inc(0);
                on_a.store_coalesced(i, 1);
            });
            assert_eq!(
                kernel_counts(&a),
                vec![("cross-device", 256, 0, 256, 0, 256, 0)],
                "threads {threads}"
            );
            // device B's traffic went straight to B's own counters
            let b_after = b.inner.counters.snapshot();
            assert_eq!(b_after.reads - b_before.reads, 256);
            assert_eq!(b_after.writes - b_before.writes, 256);
            assert_eq!(b_after.atomics - b_before.atomics, 256);
            assert_eq!(b_after.coalesced_writes, b_before.coalesced_writes);
            assert_eq!(b.report().launches(), 0);
        }
    }

    #[test]
    fn panicking_kernel_leaves_later_counts_exact() {
        for threads in [1, 2] {
            let a = with_threads(threads);
            let b = with_threads(threads);
            let on_a = a.alloc::<u64>(256);
            let on_b = b.alloc::<u64>(256);
            let faulted = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                a.launch("faults", 4, 64, |t| {
                    on_a.store(t.global_id(), 1);
                    assert!(t.global_id() != 100, "simulated kernel fault");
                });
            }));
            assert!(faulted.is_err());
            // the faulting launch flushed what it counted and closed its
            // batch: host code on this thread is counted on A's atomics
            let flushed = a.inner.counters.snapshot();
            assert!(flushed.writes > 0);
            let _ = on_a.load(0);
            assert_eq!(a.inner.counters.snapshot().reads, flushed.reads + 1);
            let touch = |t: &ThreadCtx, buf: &DeviceBuffer<u64>| {
                let i = t.global_id();
                buf.store(i, buf.load(i) + 1);
                buf.atomic_inc(0);
            };
            a.launch("after-a", 4, 64, |t| touch(t, &on_a));
            b.launch("after-b", 4, 64, |t| touch(t, &on_b));
            assert_eq!(
                kernel_counts(&a),
                vec![("after-a", 256, 256, 256, 0, 0, 256)],
                "threads {threads}"
            );
            assert_eq!(
                kernel_counts(&b),
                vec![("after-b", 256, 256, 256, 0, 0, 256)],
                "threads {threads}"
            );
        }
    }

    #[test]
    fn coalesced_layout_is_cheaper_in_simulated_time() {
        // same logical traffic, one kernel through the coalesced path — the
        // cost model must reward the layout (memory-bound kernel)
        let d = dev();
        let n = 1 << 16;
        let buf = d.alloc::<f64>(n);
        d.reset();
        d.launch("scattered", crate::grid_for(n, 128), 128, |t| {
            let i = t.global_id();
            if i < n {
                for _ in 0..64 {
                    let _ = buf.load(i);
                }
            }
        });
        d.launch("blocked", crate::grid_for(n, 128), 128, |t| {
            let i = t.global_id();
            if i < n {
                for _ in 0..64 {
                    let _ = buf.load_coalesced(i);
                }
            }
        });
        let r = d.report();
        let scattered = r.kernels.iter().find(|k| k.name == "scattered").unwrap();
        let blocked = r.kernels.iter().find(|k| k.name == "blocked").unwrap();
        assert_eq!(scattered.reads, blocked.reads);
        assert!(
            blocked.sim_nanos < scattered.sim_nanos,
            "coalesced kernel must be cheaper: {} vs {}",
            blocked.sim_nanos,
            scattered.sim_nanos
        );
    }

    #[test]
    fn memory_accounting_tracks_alloc_and_drop() {
        let d = dev();
        assert_eq!(d.memory_used(), 0);
        let a = d.alloc::<f64>(1024);
        assert_eq!(d.memory_used(), 8192);
        let b = d.alloc::<u32>(10);
        assert_eq!(d.memory_used(), 8192 + 80);
        drop(a);
        assert_eq!(d.memory_used(), 80);
        drop(b);
        assert_eq!(d.memory_used(), 0);
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        let d = Device::new(DeviceConfig {
            memory_bytes: 1024,
            ..DeviceConfig::default()
        });
        let ok = d.try_alloc::<u64>(100);
        assert!(ok.is_ok());
        let err = d.try_alloc::<u64>(100).unwrap_err();
        match err {
            DeviceError::OutOfMemory { requested, .. } => assert_eq!(requested, 800),
            other => panic!("expected OOM, got {other:?}"),
        }
        assert_eq!(d.memory_used(), 800);
        drop(ok);
        // byte counts that overflow u64, alone or added to the 128 bytes in use
        let _held = d.alloc::<u64>(16);
        for len in [(1usize << 61) + 1, (1 << 61) - 1] {
            match d.try_alloc::<u64>(len) {
                Err(DeviceError::OutOfMemory { available, .. }) => assert_eq!(available, 896),
                other => panic!("expected OOM for {len} words, got {other:?}"),
            }
            assert_eq!(d.memory_used(), 128, "{len} words");
        }
    }

    #[test]
    #[should_panic(expected = "invalid block size")]
    fn zero_block_dim_rejected() {
        dev().launch("bad", 1, 0, |_| {});
    }

    #[test]
    #[should_panic(expected = "invalid block size")]
    fn oversize_block_dim_rejected() {
        dev().launch("bad", 1, 2048, |_| {});
    }

    #[test]
    fn launch_blocks_phases_are_ordered() {
        let d = dev();
        let data = d.alloc::<u64>(64);
        let sums = d.alloc::<u64>(1);
        d.launch_blocks("two-phase", 1, 64, |b| {
            // phase 1: every thread writes its id
            b.for_each_thread(|t| data.store(t.thread_idx, t.thread_idx as u64));
            // barrier; phase 2: thread 0 reduces — must observe phase 1
            b.for_each_thread(|t| {
                if t.thread_idx == 0 {
                    let total: u64 = (0..64).map(|i| data.load(i)).sum();
                    sums.store(0, total);
                }
            });
        });
        assert_eq!(sums.load(0), (0..64u64).sum());
    }

    #[test]
    fn multiworker_execution_matches_sequential() {
        for d in [with_threads(1), with_threads(4)] {
            let acc = d.alloc::<u64>(1);
            d.launch("sum-ids", 8, 32, |t| {
                acc.atomic_add(0, t.global_id() as u64);
            });
            assert_eq!(acc.load(0), (0..256u64).sum());
        }
    }

    #[test]
    fn reset_clears_log_and_counters() {
        let d = dev();
        let b = d.alloc::<f64>(16);
        d.launch("w", 1, 16, |t| b.store(t.thread_idx, 0.0));
        assert_eq!(d.report().launches(), 1);
        d.reset();
        let r = d.report();
        assert_eq!(r.launches(), 0);
        assert_eq!(r.total_writes, 0);
    }

    #[test]
    fn report_includes_transfer_time() {
        let d = dev();
        d.reset();
        let b = d.alloc_from_slice::<f64>(&vec![1.0; 100_000]);
        let _ = b.to_vec();
        let r = d.report();
        assert_eq!(r.h2d_words, 100_000);
        assert_eq!(r.d2h_words, 100_000);
        assert!(r.total_sim_nanos > 0);
    }
}
