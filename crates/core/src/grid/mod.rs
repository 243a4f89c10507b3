//! The GPU-friendly grid structure of §4.2.
//!
//! A fixed-cell-width grid over `[0, 1]^d` with cell width
//! `c_w ≤ √((ε/2)²/d) = ε/(2√d)`, chosen so the cell *diagonal* is at most
//! ε/2. That bound is what makes the grid double as the termination
//! checker: the cell containing `p` is then fully inside `N_{ε/2}(p)`, so
//! `|cell(p)| = |N_ε(p)|` certifies the first term of Definition 4.2.
//!
//! Three access strategies are described in the paper; all three are
//! special cases of the *mixed* structure implemented in [`device`]:
//!
//! * **sequential access** (§4.2.3) — outer dimensionality `d' = 0`: one
//!   outer bucket holding the compacted list of all non-empty cells;
//! * **random access** (§4.2.2) — `d' = d` (feasible only while `w^d`
//!   fits in memory): every full-dimensional cell directly addressable;
//! * **mixed access** (§4.2.4) — `0 < d' < d` chosen so `w^{d'} ≤ n·d`:
//!   a dense outer directory over the first `d'` dimensions, each bucket
//!   holding the compacted non-empty full-dimensional cells inside it.
//!
//! [`GridGeometry`] centralizes the shared cell math; [`HostGrid`] is a
//! simple hash-map reference used by tests and the CPU oracle; the
//! simulated-GPU construction (Algorithm 2) lives in [`device`].

pub mod device;
mod geometry;
mod host;

pub use device::{DeviceGrid, DeviceRefreshStats, GridWorkspace, PreGrid};
pub use geometry::{GridGeometry, GridVariant, ShardPlan, MAX_OUTER_CELLS, MAX_SURROUND_ENUM};
pub(crate) use host::{same_bits, ReachMemo, RUN_LIST};
pub use host::{CellGrid, GridRefreshStats, HostGrid};
