//! EGG-SynC (§4 of the paper): the exact, grid-based, GPU-parallel
//! algorithm for clustering by synchronization.
//!
//! * [`update`] — Algorithm 3: the summarized-grid Kuramoto update with the
//!   inlined first-term synchronization check;
//! * [`termination`] — §4.3.3: the grid-accelerated second-term check of
//!   Definition 4.2 (can anything still be dragged into a neighborhood?);
//! * [`gather`] — §4.3.4: once the criterion holds, every non-empty grid
//!   cell *is* a final cluster;
//! * [`algorithm`] — Algorithm 4: [`crate::EggSync`] and its one loop over
//!   an [`algorithm::Engine`], the single-grid host or the simulated-GPU
//!   engine, each running one iteration per `iterate` call;
//! * [`shard`] — the third engine, [`shard::ShardedEngine`]: the host
//!   iteration over per-shard grids with an ε-halo exchange;
//! * `reference` — [`crate::ExactSync`], a brute-force CPU oracle with
//!   the same exact termination criterion, used by tests to certify the
//!   grid/GPU implementation.

pub mod algorithm;
pub mod gather;
pub mod reference;
pub mod shard;
pub mod termination;
pub mod update;
