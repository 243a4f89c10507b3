//! The repository benchmark for EGG-SynC.
//!
//! Five seeded workloads, each solved to an exact clustering through the
//! stable [`egg_sync_core::ClusterAlgorithm::cluster`] API in its own
//! process ([`harness`]), plus a traced mode that re-drives Algorithm 4
//! from the engine's public layer functions and reports per-layer numbers
//! ([`traced`]). See `README.md` for the workloads, metrics and how to run
//! them.

pub mod harness;
pub mod traced;
pub mod workloads;
