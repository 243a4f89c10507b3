//! # egg-gpu-sim — a CUDA-style GPU execution-model simulator
//!
//! The EGG-SynC paper (EDBT 2023) implements its algorithms as CUDA kernels
//! on an RTX 3090. This crate provides the substrate that stands in for CUDA
//! in this reproduction: a software device that exposes the *computational
//! model* the paper designs for, so the clustering kernels in
//! `egg-sync-core` are faithful ports of the paper's kernels rather than
//! CPU re-imaginations.
//!
//! The simulated model mirrors CUDA:
//!
//! * **Global memory**: [`DeviceBuffer`] allocations owned by a [`Device`],
//!   with word-granular loads/stores and atomic read-modify-write operations
//!   ([`DeviceBuffer::atomic_add`], [`DeviceBuffer::atomic_inc`], CAS, …).
//!   Concurrent racy access is well defined at word granularity, exactly as
//!   on real GPU global memory.
//! * **Kernel launches**: [`Device::launch`] executes a closure once per
//!   thread over a `(grid_dim, block_dim)` configuration, and
//!   [`Device::launch_blocks`] executes a closure once per *block* for
//!   algorithms that need simulated shared memory and intra-block phases
//!   (the moral equivalent of `__syncthreads()` boundaries).
//! * **Warps**: threads are grouped in warps of [`WARP_SIZE`];
//!   [`ThreadCtx::warp_id`] / [`ThreadCtx::lane_id`] expose the grouping.
//! * **Device-wide primitives**: inclusive/exclusive scan, reduce, fill and
//!   stream compaction implemented as multi-pass kernel pipelines (size →
//!   scan → populate), the list-construction idiom of §4.2.1 of the paper.
//! * **Performance accounting**: every kernel records threads launched,
//!   global-memory transactions and atomic operations; an analytic
//!   [`CostModel`] derived from the paper's RTX 3090 turns those counters
//!   into *simulated GPU time*, which the benchmark harnesses report next
//!   to host wall-clock time.
//!
//! A device runs each launch's blocks through the [`BlockRunner`] it was
//! built with ([`Device::with_runner`]), such as a pool of host workers that
//! outlives the launch, or in order on the launching thread
//! ([`Device::new`]). The crate starts no thread of its own. Either way the
//! kernel structure — and therefore the simulated timing — is the same.
//!
//! ```
//! use egg_gpu_sim::{Device, DeviceConfig};
//!
//! let device = Device::new(DeviceConfig::default());
//! let xs = device.alloc_from_slice::<f64>(&[1.0, 2.0, 3.0, 4.0]);
//! let ys = device.alloc::<f64>(4);
//! device.launch("double", egg_gpu_sim::grid_for(xs.len(), 128), 128, |t| {
//!     let i = t.global_id();
//!     if i < xs.len() {
//!         ys.store(i, 2.0 * xs.load(i));
//!     }
//! });
//! assert_eq!(ys.to_vec(), vec![2.0, 4.0, 6.0, 8.0]);
//! ```

#![warn(missing_docs)]

mod buffer;
mod cost;
mod counters;
mod device;
mod launch;
pub mod primitives;
#[cfg(test)]
#[path = "../tests/support/scoped_runner.rs"]
mod scoped_runner;
mod word;

pub use buffer::{DeviceBuffer, WordArith};
pub use cost::{CostModel, SimulatedTime};
pub use counters::{KernelStats, PerfReport};
pub use device::{BlockRunner, Device, DeviceConfig, DeviceError};
pub use launch::{BlockCtx, Dim, ThreadCtx, WARP_SIZE};
pub use word::DeviceWord;

/// Convenience: smallest grid dimension covering `n` items with `block`
/// threads per block, i.e. `ceil(n / block)` with a minimum of one block so
/// that zero-sized launches are still well-formed.
#[inline]
pub fn grid_for(n: usize, block: usize) -> usize {
    n.div_ceil(block).max(1)
}
