//! The EGG-update kernel (Algorithm 3).
//!
//! One device thread per entry of the grid-sorted point array
//! (`i_points`, §4.2.6). Each thread walks the precomputed non-empty
//! surrounding outer cells of its point's outer cell (§4.2.5) and, for
//! every inner cell, classifies it against the ε-ball:
//!
//! * **fully inside** (farthest corner of its point MBR within ε): consume
//!   the cell's precomputed Σsin/Σcos via the angle-addition identity — no
//!   point access at all (§4.3.1);
//! * **partially overlapping** (nearest corner within ε): fall back to the
//!   points of that cell — through the lane-blocked trig table and the same
//!   angle-addition identity, so the inner loop is pure multiply-add with
//!   no transcendentals;
//! * **disjoint**: skip.
//!
//! The kernel simultaneously evaluates the *first term* of the exact
//! termination criterion: thanks to the cell-diagonal ≤ ε/2 width, the
//! whole neighborhood coincides with the point's own cell iff
//! `|N_ε(p)| = |cell(p)|`; any point that observes a difference clears the
//! shared synchronization flag (Algorithm 3, lines 14–15).

use egg_gpu_sim::{grid_for, primitives, Device, DeviceBuffer};

use crate::algorithms::gpu_sync::{BLOCK, MAX_DIM};
use crate::exec::{Executor, ScatterWriter, CELL_CHUNK, POINT_CHUNK};
use crate::grid::{same_bits, CellGrid, DeviceGrid, GridGeometry, PreGrid, ReachMemo, RUN_LIST};
use crate::instrument::UpdateCounters;
#[cfg(target_arch = "x86_64")]
use crate::kernels::avx2_available;
use crate::kernels::{pair_term_cell, F64x4, LANES};

use super::super::grid::device::{seg_start, LaneTables};

/// Number of `u64` slots in the device-side update-counter buffer consumed
/// by [`egg_update`] and the grid refresh: `[summary_cells, point_pairs,
/// sin_calls_avoided, moved_points, dirty_cells, cells_skipped,
/// simd_lanes, simd_remainder_lanes]`.
pub const COUNTER_SLOTS: usize = 8;

/// Read an [`UpdateCounters`] back from a device counter buffer of
/// [`COUNTER_SLOTS`] slots.
pub fn counters_from_device(buf: &DeviceBuffer<u64>) -> UpdateCounters {
    UpdateCounters {
        summary_cells: buf.load(0),
        point_pairs: buf.load(1),
        sin_calls_avoided: buf.load(2),
        moved_points: buf.load(3),
        dirty_cells: buf.load(4),
        cells_skipped: buf.load(5),
        simd_lanes: buf.load(6),
        simd_remainder_lanes: buf.load(7),
        // Sharding counters: the device backend runs a single grid, so
        // these stay zero and host/device counter-equality is preserved.
        ..UpdateCounters::default()
    }
}

/// Options toggling the paper's individual optimizations — the ablation
/// switches of the `ablation_egg` bench.
#[derive(Debug, Clone, Copy)]
pub struct UpdateOptions {
    /// Use per-cell Σsin/Σcos for fully covered cells (§4.3.1). When off,
    /// every overlapping cell is processed point-by-point.
    pub use_summaries: bool,
    /// Walk only the precomputed non-empty surrounding cells (§4.2.5).
    /// When off, enumerate all geometric surroundings and test emptiness
    /// inline.
    pub use_pregrid: bool,
    /// Maintain the grid incrementally across iterations (re-bin only
    /// cell-changing movers, recompute lane rows only for movers and
    /// summaries only for dirty cells, patch the preGrid only on
    /// emptiness flips) and skip the update of cells whose whole ε-reach
    /// saw zero movers, reusing their cached positions and first-term
    /// confinement flags. Results are
    /// bitwise identical to the full-rebuild path; toggling this only
    /// changes how much work each iteration performs.
    pub use_incremental: bool,
    /// Drive the partial-cell pair term through the 4-lane SIMD kernels
    /// ([`crate::kernels`]) on the host path, striping four grid-sorted
    /// lane-table rows per step. Neighbor predicates and counts stay
    /// **exact** (lane distances accumulate dimension-major, matching the
    /// scalar chain bitwise); only the pair-term sum is reassociated
    /// across lanes, so results agree with the scalar oracle to ~1e-9.
    /// Output is still bitwise identical across worker counts. It also
    /// selects the candidate walk compiled for AVX2 where the CPU has it
    /// ([`CandidateWalk::visit`]), bitwise identical to the portable walk.
    /// Defaults to on unless the `EGG_FORCE_SCALAR` environment variable
    /// is set.
    pub use_simd: bool,
    /// Shard the host engine's domain along the leading grid dimension
    /// into this many regions, each owning its own [`CellGrid`] over its
    /// resident (owned + ε-halo) points, with halo movers exchanged
    /// between iterations through a deterministic sorted buffer. `1`
    /// (the default) is today's single-grid path, which stays the
    /// oracle; any larger count is bitwise-invisible in the output —
    /// like the worker count — and only bounds the largest resident
    /// grid by ~1/S. Clamped to the grid width; ignored by the device
    /// backend. Defaults to the `EGG_NUM_SHARDS` environment variable
    /// when set (the CI leg that exercises sharding end to end); a value
    /// that is not a positive integer panics.
    pub num_shards: usize,
    /// Ignored; stays only because `perfbench/src/traced.rs` reads it.
    #[doc(hidden)]
    pub use_fused_kernels: bool,
    /// Ignored; stays only because `perfbench/src/traced.rs` reads it.
    #[doc(hidden)]
    pub use_pooled_exec: bool,
}

/// Process-wide default for [`UpdateOptions::use_simd`]: on, unless the
/// `EGG_FORCE_SCALAR` environment variable is set (the CI leg that
/// exercises the scalar oracle end to end). Cached so that
/// `UpdateOptions::default()` stays allocation-free on the steady path.
fn simd_default() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var_os("EGG_FORCE_SCALAR").is_none())
}

/// Process-wide default for [`UpdateOptions::num_shards`]: the
/// `EGG_NUM_SHARDS` environment variable when set, else 1. Cached like
/// [`simd_default`] so defaults stay allocation-free.
///
/// # Panics
/// If `EGG_NUM_SHARDS` is set to anything but a positive integer.
fn shards_default() -> usize {
    static COUNT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *COUNT.get_or_init(|| crate::exec::env_count("EGG_NUM_SHARDS").unwrap_or(1))
}

impl Default for UpdateOptions {
    fn default() -> Self {
        Self {
            use_summaries: true,
            use_pregrid: true,
            use_incremental: true,
            use_simd: simd_default(),
            num_shards: shards_default(),
            use_fused_kernels: true,
            use_pooled_exec: true,
        }
    }
}

/// Cross-iteration state of the incremental host path: which points moved
/// in the last pass, which were confined to their own cell (the first term
/// of Definition 4.2, cached for reuse), which outer cells contain a
/// mover's old or new position, and the per-cell skip verdicts derived
/// from them.
///
/// The engine keeps one state per host grid. It starts inactive (the first
/// pass processes everything and seeds the flags), and is advanced by
/// [`IncrementalState::finish_pass`] after every update. All buffers keep
/// their capacity, so steady-state iterations allocate nothing.
#[derive(Debug, Default)]
pub struct IncrementalState {
    /// Per point: did the last pass change its position bitwise?
    /// (`pub(crate)`: the sharded engine seeds these from its global
    /// mirror and reads the pass's results back out.)
    pub(crate) moved: Vec<bool>,
    /// Per point: was its ε-neighborhood confined to its own cell when the
    /// point was last processed? Still valid for skipped points — a
    /// skippable cell's neighborhoods are unchanged by construction.
    pub(crate) confined: Vec<bool>,
    /// Per cell of the current grid: can the coming pass skip it?
    pub(crate) cell_skip: Vec<bool>,
    /// Per outer cell: does it contain a mover's old or new position?
    pub(crate) outer_dirty: Vec<bool>,
    /// Whether a pass has completed (i.e. the flags describe real history).
    pub(crate) active: bool,
}

impl IncrementalState {
    /// Fresh, inactive state — the first pass will process every point.
    pub fn new() -> Self {
        Self::default()
    }

    /// `moved` flags of the last completed pass — the mover work-list for
    /// [`CellGrid::refresh`]. `None` until a pass has completed.
    pub fn moved_flags(&self) -> Option<&[bool]> {
        self.active.then_some(self.moved.as_slice())
    }

    /// First-term confinement flags, valid for the positions of the pass
    /// that last wrote them. `None` until a pass has run.
    pub fn confined_flags(&self) -> Option<&[bool]> {
        (!self.confined.is_empty()).then_some(self.confined.as_slice())
    }

    /// Record the pass that moved `cur` into `next`: mark the outer cells
    /// of every mover's **old and new** position dirty (a mover can leave
    /// its old reach entirely, so both ends must invalidate skips) and
    /// arm the skip logic for the next pass.
    pub fn finish_pass(&mut self, geo: &GridGeometry, cur: &[f64], next: &[f64]) {
        mark_moved_outers(&mut self.outer_dirty, geo, &self.moved, cur, next);
        self.active = true;
    }
}

/// Reset `outer_dirty` to one clear flag per outer cell of `geo`, then set
/// the flags of the outer cells holding the old (`cur`) and the new
/// (`next`) position of every point flagged in `moved`, in point-index
/// order. A mover whose old (new) row repeats the bits of the last old
/// (new) row marked has its outer cell flagged already, and skips it.
pub(crate) fn mark_moved_outers(
    outer_dirty: &mut Vec<bool>,
    geo: &GridGeometry,
    moved: &[bool],
    cur: &[f64],
    next: &[f64],
) {
    let dim = geo.dim;
    outer_dirty.clear();
    outer_dirty.resize(geo.outer_cells, false);
    let (mut last_cur, mut last_next) = (None, None);
    for (p, &m) in moved.iter().enumerate() {
        if !m {
            continue;
        }
        for (rows, last) in [(cur, &mut last_cur), (next, &mut last_next)] {
            let row = &rows[p * dim..(p + 1) * dim];
            if !last.is_some_and(|q: usize| same_bits(&rows[q * dim..(q + 1) * dim], row)) {
                outer_dirty[geo.outer_id_of_point(row)] = true;
                *last = Some(p);
            }
        }
    }
}

/// Device-side counterpart of [`IncrementalState`]: the same four flag
/// arrays as device buffers (`1`/`0` words), allocated once per run.
pub struct DeviceIncrementalState {
    /// Per point: did the last pass change its position bitwise?
    pub moved: DeviceBuffer<u64>,
    /// Per point: cached first-term confinement verdict.
    pub confined: DeviceBuffer<u64>,
    /// Per compacted inner cell: can the coming pass skip it?
    pub cell_skip: DeviceBuffer<u64>,
    /// Per outer cell: does it contain a mover's old or new position?
    pub outer_dirty: DeviceBuffer<u64>,
    /// Whether a pass has completed.
    pub active: bool,
}

impl DeviceIncrementalState {
    /// Allocate the flag buffers for `n` points under `geometry`.
    pub fn new(device: &Device, geometry: &GridGeometry, n: usize) -> Self {
        Self {
            moved: device.alloc(n.max(1)),
            confined: device.alloc(n.max(1)),
            cell_skip: device.alloc(n.max(1)),
            outer_dirty: device.alloc(geometry.outer_cells.max(1)),
            active: false,
        }
    }

    /// `moved` flags of the last completed pass — the mover work-list for
    /// `GridWorkspace::refresh`. `None` until a pass has completed.
    pub fn moved_flags(&self) -> Option<&DeviceBuffer<u64>> {
        self.active.then_some(&self.moved)
    }

    /// Compute the per-cell skip verdicts for the coming pass: a cell may
    /// be skipped iff no outer cell in the surround of its own outer cell
    /// is dirty — then no mover's old or new position lies within the
    /// ε-reach of any of its points.
    pub fn mark_skips(&self, device: &Device, grid: &DeviceGrid) {
        if !self.active {
            primitives::fill(device, &self.cell_skip, 0u64);
            return;
        }
        let geo = grid.geometry;
        let dim = geo.dim;
        let num_inner = grid.num_inner;
        let (cell_skip, outer_dirty, i_ids) = (&self.cell_skip, &self.outer_dirty, &grid.i_ids);
        device.launch("egg_mark_skips", grid_for(num_inner, BLOCK), BLOCK, |t| {
            let c = t.global_id();
            if c >= num_inner {
                return;
            }
            let mut key = [0u64; MAX_DIM];
            for i in 0..dim {
                key[i] = i_ids.load(c * dim + i);
            }
            let oid = geo.outer_id_of_coords(&key[..dim]);
            let mut dirty = false;
            geo.for_each_surrounding_outer(oid, |o| {
                if outer_dirty.load(o) == 1 {
                    dirty = true;
                }
            });
            cell_skip.store(c, u64::from(!dirty));
        });
    }

    /// Record the pass that moved `cur` into `next`: mark the outer cells
    /// of every mover's old and new position dirty, and arm the skip logic.
    pub fn finish_pass(
        &mut self,
        device: &Device,
        geo: &GridGeometry,
        cur: &DeviceBuffer<f64>,
        next: &DeviceBuffer<f64>,
        n: usize,
    ) {
        primitives::fill(device, &self.outer_dirty, 0u64);
        let dim = geo.dim;
        let geo = *geo;
        let (moved, outer_dirty) = (&self.moved, &self.outer_dirty);
        device.launch("egg_mark_moved_outers", grid_for(n, BLOCK), BLOCK, |t| {
            let p = t.global_id();
            if p >= n || moved.load(p) == 0 {
                return;
            }
            // racing 1-stores are benign: every writer stores the same flag
            let mut buf = [0.0f64; MAX_DIM];
            for i in 0..dim {
                buf[i] = cur.load(p * dim + i);
            }
            outer_dirty.store(geo.outer_id_of_point(&buf[..dim]), 1);
            for i in 0..dim {
                buf[i] = next.load(p * dim + i);
            }
            outer_dirty.store(geo.outer_id_of_point(&buf[..dim]), 1);
        });
        self.active = true;
    }
}

/// Launch the EGG-update kernel: move every point of `coords` into `next`
/// and clear `sync_flag[0]` if any point's neighborhood extends beyond its
/// own grid cell. `sync_flag[0]` must be pre-set to 1 by the caller, and
/// `counters` must hold [`COUNTER_SLOTS`] zero-initialized slots (the
/// kernel accumulates into them, so a caller may carry one buffer across
/// iterations).
///
/// With `inc` present the kernel records per-point `moved`/`confined`
/// flags, and — once the state is active and `mark_skips` ran against this
/// grid — skips whole cells whose ε-reach saw zero movers: their points'
/// positions are copied forward and their cached confinement flags feed
/// the first-term verdict, bitwise identical to recomputation because
/// nothing in those neighborhoods changed.
#[allow(clippy::too_many_arguments)]
pub fn egg_update(
    device: &Device,
    grid: &DeviceGrid,
    pre: &PreGrid,
    coords: &DeviceBuffer<f64>,
    next: &DeviceBuffer<f64>,
    sync_flag: &DeviceBuffer<u64>,
    counters: &DeviceBuffer<u64>,
    n: usize,
    epsilon: f64,
    options: UpdateOptions,
    inc: Option<&DeviceIncrementalState>,
) {
    let geo = grid.geometry;
    let dim = geo.dim;
    let eps_sq = epsilon * epsilon;
    device.launch("egg_update", grid_for(n, BLOCK), BLOCK, |t| {
        let entry = t.global_id();
        if entry >= n {
            return;
        }
        // grid-sorted execution order: warps handle co-located points
        let p_idx = grid.i_points.load(entry) as usize;
        let c_cell = grid.point_cell.load(p_idx) as usize;
        if let Some(s) = inc {
            if s.active && s.cell_skip.load(c_cell) == 1 {
                // zero movers in this cell's whole ε-reach: the pass would
                // recompute exactly the cached position and verdict
                for i in 0..dim {
                    next.store(p_idx * dim + i, coords.load(p_idx * dim + i));
                }
                s.moved.store(p_idx, 0);
                if s.confined.load(p_idx) == 0 {
                    sync_flag.store(0, 0);
                }
                if entry as u64 == grid.cell_start(c_cell) {
                    counters.atomic_add(5, 1);
                }
                return;
            }
        }
        // the point and its partners are read through the lane-blocked
        // slot-major tables: coalesced, since the grid-sorted order makes
        // them warp-contiguous
        let (mut p, mut sin_p, mut cos_p) = ([0.0f64; MAX_DIM], [0.0; MAX_DIM], [0.0; MAX_DIM]);
        for i in 0..dim {
            let at = LaneTables::at(entry, dim, i);
            p[i] = grid.lanes.coords.load_coalesced(at);
            sin_p[i] = grid.lanes.sin.load_coalesced(at);
            cos_p[i] = grid.lanes.cos.load_coalesced(at);
        }
        let c_oid = geo.outer_id_of_point(&p[..dim]);

        let mut sums = [0.0f64; MAX_DIM];
        let mut neighbors = 0u64;
        let mut local = UpdateCounters::default();

        let mut visit_outer = |oid: usize| {
            let cells_lo = seg_start(&grid.o_ends, oid) as usize;
            let cells_hi = grid.o_ends.load(oid) as usize;
            for c in cells_lo..cells_hi {
                // classify against the cell's point MBR: tighter than its
                // grid box and still exact, since its points lie inside
                let (mut lo, mut hi) = ([0.0f64; MAX_DIM], [0.0f64; MAX_DIM]);
                for i in 0..dim {
                    lo[i] = grid.c_bounds.load(c * 2 * dim + i);
                    hi[i] = grid.c_bounds.load(c * 2 * dim + dim + i);
                }
                if GridGeometry::min_sq_dist_to_bounds(&p[..dim], &lo[..dim], &hi[..dim]) > eps_sq {
                    continue;
                }
                let fully_within = options.use_summaries
                    && GridGeometry::max_sq_dist_to_bounds(&p[..dim], &lo[..dim], &hi[..dim])
                        <= eps_sq;
                if fully_within {
                    for i in 0..dim {
                        sums[i] += cos_p[i] * grid.sin_sums.load(c * dim + i)
                            - sin_p[i] * grid.cos_sums.load(c * dim + i);
                    }
                    let size = grid.cell_size(c);
                    neighbors += size;
                    local.summary_cells += 1;
                    local.sin_calls_avoided += dim as u64 * size;
                } else {
                    let pts_lo = grid.cell_start(c) as usize;
                    let pts_hi = grid.i_ends.load(c) as usize;
                    local.point_pairs += (pts_hi - pts_lo) as u64;
                    if options.use_simd {
                        // Lane accounting mirrors the host SIMD path: on a
                        // real GPU every pair occupies a SIMD lane. Counted
                        // as the minimal whole 4-lane blocks covering the
                        // cell — a pure function of the cell's *size*, so
                        // host and device totals match even though their
                        // CSR layouts align cells differently.
                        let len = pts_hi - pts_lo;
                        let lanes = (len.div_ceil(4) * 4) as u64;
                        local.simd_lanes += lanes;
                        local.simd_remainder_lanes += lanes - len as u64;
                    }
                    // partners are addressed by grid-sorted slot, with no
                    // `i_points` indirection
                    for e in pts_lo..pts_hi {
                        let mut dist_sq = 0.0;
                        for i in 0..dim {
                            let q = grid.lanes.coords.load_coalesced(LaneTables::at(e, dim, i));
                            let d = q - p[i];
                            dist_sq += d * d;
                        }
                        if dist_sq <= eps_sq {
                            neighbors += 1;
                            // sin(q−p) = sin q · cos p − cos q · sin p
                            for i in 0..dim {
                                let at = LaneTables::at(e, dim, i);
                                sums[i] += grid.lanes.sin.load_coalesced(at) * cos_p[i]
                                    - grid.lanes.cos.load_coalesced(at) * sin_p[i];
                            }
                            local.sin_calls_avoided += dim as u64;
                        }
                    }
                }
            }
        };

        if options.use_pregrid {
            let k = pre.index_of.load(c_oid) as usize;
            let lo = seg_start(&pre.ends, k) as usize;
            let hi = pre.ends.load(k) as usize;
            for s in lo..hi {
                visit_outer(pre.cells.load(s) as usize);
            }
        } else {
            geo.for_each_surrounding_outer(c_oid, |oid| {
                if grid.o_sizes.load(oid) > 0 {
                    visit_outer(oid);
                }
            });
        }

        let inv = 1.0 / neighbors as f64;
        let mut any_moved = false;
        for i in 0..dim {
            let v = p[i] + sums[i] * inv;
            next.store(p_idx * dim + i, v);
            any_moved |= v.to_bits() != p[i].to_bits();
        }
        // first term of Definition 4.2 (Algorithm 3, lines 14–15)
        let confined = neighbors == grid.cell_size(c_cell);
        if !confined {
            sync_flag.store(0, 0);
        }
        if let Some(s) = inc {
            s.moved.store(p_idx, u64::from(any_moved));
            s.confined.store(p_idx, u64::from(confined));
            if any_moved {
                counters.atomic_add(3, 1);
            }
        }
        if local.summary_cells != 0 {
            counters.atomic_add(0, local.summary_cells);
        }
        if local.point_pairs != 0 {
            counters.atomic_add(1, local.point_pairs);
        }
        if local.sin_calls_avoided != 0 {
            counters.atomic_add(2, local.sin_calls_avoided);
        }
        if local.simd_lanes != 0 {
            counters.atomic_add(6, local.simd_lanes);
        }
        if local.simd_remainder_lanes != 0 {
            counters.atomic_add(7, local.simd_remainder_lanes);
        }
    });
}

/// One shard's slice of a sharded update pass, handed to
/// [`egg_update_host`] by the sharded engine (`egg::shard`).
///
/// The grid, `coords`/`next`, and incremental state passed alongside are
/// all *shard-local* (indexed by the shard's resident points), while the
/// pass must compute results only for **owned** points — residents whose
/// cell's leading coordinate falls in the shard's owned range. Owned
/// cells are contiguous in the grid's sorted cell order, so the owned
/// points occupy the contiguous grid-sorted slot window `slots`; ghost
/// rows of `next` are left untouched (their owners compute them).
pub struct ShardPass<'a> {
    /// Grid-sorted slot window of the shard's owned points.
    pub slots: std::ops::Range<usize>,
    /// Global outer-dirty flags (geometry-indexed, so shareable across
    /// shards read-only) driving the cell-skip logic, or `None` on
    /// passes where skips must not run (first pass, incremental off).
    /// Replaces the shard-local `IncrementalState::outer_dirty`, which
    /// cannot see movers outside the shard's residents.
    pub outer_dirty: Option<&'a [bool]>,
}

/// Host-engine counterpart of [`egg_update`]: move every point of `coords`
/// into `next` on `exec`'s workers, and return whether the *first term* of
/// Definition 4.2 held (every neighborhood confined to its own cell),
/// together with the work counters of the pass.
///
/// Every point consumes the same cells on the same paths as in the device
/// kernel, with the same counters. Points are processed in the grid-sorted
/// order of [`CellGrid::point_order`] (the host edition of `i_points`,
/// §4.2.6), so consecutive points share cells; results are scattered back
/// to each point's original row. `options.use_pregrid` is not consulted
/// here. The preGrid's job is to skip empty outer cells, and the host walk
/// does that by binary searching the sorted index of *non-empty* outer
/// ranges ([`CellGrid::for_each_cell_in_reach`]).
///
/// The classification against the ε-ball is shared per grid cell. For each
/// run of consecutive points in one inner cell, a `ReachMemo` on the
/// chunk's stack walks the reach once and tests every reach cell's point
/// MBR against the run cell's point MBR, four cells per step
/// ([`CellGrid::classify_reach`]). A cell no point of the run can
/// reach leaves the run's candidate list. A cell inside every run point's
/// ε-ball is flagged, and each point consumes its summary with no test of
/// its own. Only the straddling cells are still classified per point. The
/// box-vs-box distances bound every run point's computed distances bit for
/// bit ([`GridGeometry`]'s `*_between_bounds`), so each cell takes the path
/// the per-point test would give it, in the same order, and output bits and
/// counters are those of a per-point walk. A run with more candidates than
/// the list holds takes that per-point walk. Each point then consumes its
/// candidates in one [`CandidateWalk::visit`] call.
///
/// Coincident points walk once per chunk. A point's walk is a pure
/// function of its row's bits: they fix its cell, and with it the
/// candidate list, and its `sin`/`cos`. So a point whose row repeats the
/// bits of the last point its chunk walked takes that point's next row,
/// first-term verdict, `moved` flag and counter deltas instead of walking
/// again. Rows compare by `f64::to_bits`: `-0.0` and `0.0` differ there,
/// and a `-0.0` point can move (to `0.0`) while its `0.0` twin does not.
/// The memo holds one row on the chunk's stack, after the cell-skip
/// branch, so the results and the counters stay those of a per-point walk
/// for any worker count, chunk layout or shard count. A collapsed cluster,
/// whose points share their bits, costs one walk per chunk.
///
/// `chunk_stats` is reusable per-chunk scratch (`(first-term, counters)`
/// slots): it is resized to the chunk count and keeps its capacity, so a
/// caller looping over iterations allocates nothing after the first call.
///
/// With `state` present the pass records per-point `moved`/`confined`
/// flags into it and — once the state is active — skips whole cells whose
/// ε-reach saw zero movers since their flags were written: their points'
/// positions are copied forward and their cached confinement flags feed
/// the first-term verdict, bitwise identical to recomputation.
///
/// Determinism: points are processed in fixed [`POINT_CHUNK`]-entry chunks
/// of the grid-sorted order and each point walks cells in the grid's
/// sorted order, so `next` is bit-for-bit identical for any worker count.
/// The skip verdicts are a pure function of the mover history, never of
/// the worker count, so this extends to the incremental path.
///
/// With `shard` present the pass runs one shard of a sharded execution:
/// only the grid-sorted slot window `shard.slots` is processed (the
/// shard's owned points), chunked identically to an unsharded pass over
/// that window, and the cell-skip logic is driven by the *global*
/// `shard.outer_dirty` flags instead of the shard-local state's. Since
/// each owned point sees bit-identical neighborhoods in its shard grid
/// (residents cover the full ε-reach of owned cells), the computed rows
/// of `next` match the single-grid oracle bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn egg_update_host(
    exec: &Executor,
    grid: &CellGrid,
    coords: &[f64],
    next: &mut [f64],
    epsilon: f64,
    options: UpdateOptions,
    chunk_stats: &mut Vec<(bool, UpdateCounters)>,
    state: Option<&mut IncrementalState>,
    shard: Option<&ShardPass>,
) -> (bool, UpdateCounters) {
    update_host::<RUN_LIST>(
        exec,
        grid,
        coords,
        next,
        epsilon,
        options,
        chunk_stats,
        state,
        shard,
    )
}

/// [`egg_update_host`] with a per-run candidate list of `LIST` cells; tests
/// shorten the list to force its overflow fallback.
#[allow(clippy::too_many_arguments)]
fn update_host<const LIST: usize>(
    exec: &Executor,
    grid: &CellGrid,
    coords: &[f64],
    next: &mut [f64],
    epsilon: f64,
    options: UpdateOptions,
    chunk_stats: &mut Vec<(bool, UpdateCounters)>,
    state: Option<&mut IncrementalState>,
    shard: Option<&ShardPass>,
) -> (bool, UpdateCounters) {
    let geo = *grid.geometry();
    let dim = geo.dim;
    let eps_sq = epsilon * epsilon;
    let n = next.len() / dim.max(1);
    let order = grid.point_order();
    debug_assert_eq!(order.len(), n);
    let slots = shard.map_or(0..n, |sh| sh.slots.clone());
    debug_assert!(slots.start <= slots.end && slots.end <= n);
    chunk_stats.clear();
    chunk_stats.resize(
        slots.len().div_ceil(POINT_CHUNK),
        (true, UpdateCounters::default()),
    );
    // `(active, cell_skip, moved writer, confined writer)` when incremental
    let inc = match state {
        Some(s) => {
            s.moved.resize(n, false);
            s.confined.resize(n, false);
            let num_cells = grid.num_cells();
            s.cell_skip.clear();
            s.cell_skip.resize(num_cells, false);
            // Sharded passes see movers outside their resident set only
            // through the global dirty flags, so those override the
            // shard-local history (which is never armed).
            let (skip_active, outer_dirty): (bool, &[bool]) = match shard {
                Some(sh) => (sh.outer_dirty.is_some(), sh.outer_dirty.unwrap_or(&[])),
                None => (s.active, &s.outer_dirty),
            };
            if skip_active {
                // a cell may be skipped iff no outer cell in the surround
                // of its own outer cell is dirty — then no mover's old or
                // new position lies within the ε-reach of any of its points
                let skips = ScatterWriter::new(&mut s.cell_skip);
                let skips = &skips;
                exec.map_ranges(num_cells, CELL_CHUNK, |range| {
                    for c in range {
                        let oid = geo.outer_id_of_coords(grid.cell_key(c));
                        let mut dirty = false;
                        geo.for_each_surrounding_outer(oid, |o| {
                            if outer_dirty[o] {
                                dirty = true;
                            }
                        });
                        // each cell occurs in exactly one chunk
                        unsafe {
                            skips.row_mut(c, 1)[0] = !dirty;
                        }
                    }
                });
            }
            let IncrementalState {
                moved,
                confined,
                cell_skip,
                ..
            } = s;
            Some((
                skip_active,
                &cell_skip[..],
                ScatterWriter::new(moved),
                ScatterWriter::new(confined),
            ))
        }
        None => None,
    };
    let inc = &inc;
    let walk = CandidateWalk::new(grid, coords, eps_sq, options);
    let writer = ScatterWriter::new(next);
    let writer = &writer;
    let slot_base = slots.start;
    exec.map_ranges_into(slots.len(), POINT_CHUNK, chunk_stats, |range| {
        let mut all_local = true;
        let mut counters = UpdateCounters::default();
        // grid-sorted points come in runs sharing a cell: classify the
        // run's reach once, replay the verdicts for each of its points
        let mut reach = ReachMemo::<LIST>::new(grid, eps_sq, options.use_summaries);
        // per-point sums, sized once per chunk: a point uses `[..dim]`
        let mut acc = PointSums::new();
        // the last point walked, whose results a coincident point takes
        let mut last = Walked::new();
        for off in range {
            // chunking is over the processed window, so the chunk layout
            // (hence the reduction order) matches an unsharded pass over
            // the same points; `entry` stays the grid-sorted slot index
            let entry = slot_base + off;
            let p_idx = order[entry] as usize;
            let c_cell = grid.point_cell()[p_idx] as usize;
            let p = &coords[p_idx * dim..(p_idx + 1) * dim];
            if let Some((active, cell_skip, moved_w, confined_w)) = inc {
                if *active && cell_skip[c_cell] {
                    // zero movers in this cell's whole ε-reach: the pass
                    // would recompute exactly the cached position/verdict
                    let out = unsafe { writer.row_mut(p_idx * dim, dim) };
                    out.copy_from_slice(p);
                    // each point index occurs in exactly one chunk
                    unsafe {
                        moved_w.row_mut(p_idx, 1)[0] = false;
                        all_local &= confined_w.row_mut(p_idx, 1)[0];
                    }
                    if entry == grid.cell_range(c_cell).start {
                        counters.cells_skipped += 1;
                    }
                    continue;
                }
            }
            // the walk is a pure function of the row's bits, which also fix
            // its cell: a row repeating the last walked one's takes its
            // results, counters included
            if !last
                .src
                .is_some_and(|q| same_bits(&coords[q * dim..(q + 1) * dim], p))
            {
                let mut walked = UpdateCounters::default();
                acc.reset(dim);
                reach.for_each_candidate(c_cell, |candidates| {
                    // the AVX2 walk wherever the CPU has it
                    walk.visit(entry, candidates, &mut acc, &mut walked, true);
                });
                let sums = &mut acc.sums[..dim];
                if options.use_simd {
                    // one ordered cross-lane fold per dimension — the sole
                    // reassociation relative to the scalar oracle
                    for (s, lanes) in sums.iter_mut().zip(&acc.lanes) {
                        *s += lanes.reduce_sum();
                    }
                }
                let inv = 1.0 / acc.neighbors as f64;
                for i in 0..dim {
                    last.out[i] = p[i] + sums[i] * inv;
                }
                last.src = Some(p_idx);
                last.cell = c_cell;
                last.moved = !same_bits(&last.out[..dim], p);
                // first term of Definition 4.2, host edition
                last.confined = acc.neighbors == grid.cell_len(c_cell) as u64;
                last.counters = walked;
            }
            debug_assert_eq!(last.cell, c_cell, "equal rows share a cell");
            counters.merge(&last.counters);
            // disjoint rows: `order` is a permutation of the point indices
            let out = unsafe { writer.row_mut(p_idx * dim, dim) };
            out.copy_from_slice(&last.out[..dim]);
            all_local &= last.confined;
            if let Some((_, _, moved_w, confined_w)) = inc {
                // each point index occurs in exactly one chunk
                unsafe {
                    moved_w.row_mut(p_idx, 1)[0] = last.moved;
                    confined_w.row_mut(p_idx, 1)[0] = last.confined;
                }
                if last.moved {
                    counters.moved_points += 1;
                }
            }
        }
        (all_local, counters)
    });
    let mut first_term = true;
    let mut totals = UpdateCounters::default();
    for (all_local, counters) in chunk_stats.iter() {
        first_term &= *all_local;
        totals.merge(counters);
    }
    (first_term, totals)
}

/// The results of the last point one chunk of the host update walked,
/// taken by each later point of the chunk whose row holds the same bits.
struct Walked {
    /// The point walked, `None` before the chunk's first walk.
    src: Option<usize>,
    /// Its cell, whose candidate list it walked.
    cell: usize,
    /// Its next position (`[..dim]` live).
    out: [f64; MAX_DIM],
    /// Whether `out` differs from its position bitwise.
    moved: bool,
    /// Whether its ε-neighborhood is its own cell.
    confined: bool,
    /// The walk's work counters.
    counters: UpdateCounters,
}

impl Walked {
    fn new() -> Self {
        Self {
            src: None,
            cell: 0,
            out: [0.0; MAX_DIM],
            moved: false,
            confined: false,
            counters: UpdateCounters::default(),
        }
    }
}

/// The running sums of one point's update, carried across the
/// [`CandidateWalk::visit`] calls of its reach walk.
#[derive(Debug, Clone)]
pub struct PointSums {
    /// Σ of the summary terms and the scalar pair terms, per dimension
    /// (`[..dim]` live).
    sums: [f64; MAX_DIM],
    /// The SIMD pair term's per-dimension lane accumulators, folded into
    /// `sums` once after the walk.
    lanes: [F64x4; MAX_DIM],
    /// Neighbors counted so far.
    neighbors: u64,
}

impl PointSums {
    /// All zero: the start of a point's walk.
    pub fn new() -> Self {
        Self {
            sums: [0.0; MAX_DIM],
            lanes: [F64x4::ZERO; MAX_DIM],
            neighbors: 0,
        }
    }

    /// Zero the `dim` live entries for the next point.
    pub fn reset(&mut self, dim: usize) {
        self.sums[..dim].fill(0.0);
        self.lanes[..dim].fill(F64x4::ZERO);
        self.neighbors = 0;
    }
}

impl Default for PointSums {
    fn default() -> Self {
        Self::new()
    }
}

/// One host update pass's view for consuming a point's candidate cells:
/// the grid, the positions it was built from, ε² and the options.
#[derive(Debug, Clone, Copy)]
pub struct CandidateWalk<'a> {
    grid: &'a CellGrid,
    coords: &'a [f64],
    eps_sq: f64,
    options: UpdateOptions,
}

impl<'a> CandidateWalk<'a> {
    /// The walk of a pass at radius² `eps_sq` over `grid`, built from the
    /// row-major positions `coords`; it reads `options.use_summaries` and
    /// `options.use_simd`.
    pub fn new(grid: &'a CellGrid, coords: &'a [f64], eps_sq: f64, options: UpdateOptions) -> Self {
        Self {
            grid,
            coords,
            eps_sq,
            options,
        }
    }

    /// Consume `candidates` — a run's candidate list, or one reach cell of
    /// the per-point walk — for the point in grid-sorted slot `slot`,
    /// adding to `acc` and `counters`. A covered cell's summary is
    /// consumed outright; any other cell is classified against the point's
    /// position first, then consumed through its summary if it lies
    /// inside the ε-ball, through the pair term if it straddles it, or
    /// skipped.
    ///
    /// Under `use_simd`, `use_avx2` requests the walk compiled for AVX2,
    /// taken where the CPU has it, and specialized on `dim` for 1–8: the
    /// running sums stay in registers across the whole list, the summary
    /// update vectorizes across dimensions, and [`pair_term_cell`] is
    /// compiled inside it, with its lane accumulators in registers for a
    /// whole cell. Both editions run the same source, so every sum sees the
    /// same operations in the same order and they give the same bits.
    /// `false` runs the portable compilation of the same walk.
    pub fn visit(
        &self,
        slot: usize,
        candidates: &[(u32, bool)],
        acc: &mut PointSums,
        counters: &mut UpdateCounters,
        use_avx2: bool,
    ) {
        #[cfg(target_arch = "x86_64")]
        if use_avx2 && self.options.use_simd && avx2_available() {
            macro_rules! by_dim {
                ($($d:literal)*) => {
                    match self.grid.geometry().dim {
                        $($d => self.visit_avx2::<$d>(slot, candidates, acc, counters),)*
                        _ => self.visit_avx2::<0>(slot, candidates, acc, counters),
                    }
                };
            }
            // SAFETY: AVX2 was detected at runtime, and every arm passes
            // `D = dim` or `D = 0`
            return unsafe { by_dim!(1 2 3 4 5 6 7 8) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = use_avx2;
        self.walk::<0>(slot, candidates, acc, counters, self.options.use_simd);
    }

    /// [`CandidateWalk::walk`] compiled with AVX2 enabled.
    ///
    /// # Safety
    /// Requires AVX2, and `D` 0 or `dim`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn visit_avx2<const D: usize>(
        &self,
        slot: usize,
        candidates: &[(u32, bool)],
        acc: &mut PointSums,
        counters: &mut UpdateCounters,
    ) {
        self.walk::<D>(slot, candidates, acc, counters, true);
    }

    /// The walk behind [`CandidateWalk::visit`], for `D` = `dim`, or
    /// `D = 0` to read `dim` at run time; the portable edition is the
    /// oracle. `lanes` runs straddling cells through [`pair_term_cell`],
    /// else through the scalar pair loop. The sums and the hot counts are
    /// carried in locals and stored back once at the end, so split calls
    /// (the per-point walk's one cell each) chain.
    #[inline(always)]
    fn walk<const D: usize>(
        &self,
        slot: usize,
        candidates: &[(u32, bool)],
        acc: &mut PointSums,
        counters: &mut UpdateCounters,
        lanes: bool,
    ) {
        let Self {
            grid,
            coords,
            eps_sq,
            options,
        } = *self;
        let dim = if D == 0 { grid.geometry().dim } else { D };
        debug_assert_eq!(grid.geometry().dim, dim);
        let order = grid.point_order();
        let p_idx = order[slot] as usize;
        let p = &coords[p_idx * dim..(p_idx + 1) * dim];
        // the point's sin/cos, gathered from its lane, and its sums as
        // locals, which the compiler can keep in registers across the list
        let (mut sin_p, mut cos_p, mut sums) = ([0.0; MAX_DIM], [0.0; MAX_DIM], [0.0; MAX_DIM]);
        let (sin_p, cos_p, sums) = (&mut sin_p[..dim], &mut cos_p[..dim], &mut sums[..dim]);
        let (lane_sin, lane_cos) = (grid.lane_sin(), grid.lane_cos());
        let at = grid.slot_lane(slot);
        for i in 0..dim {
            sin_p[i] = lane_sin[at + i * LANES];
            cos_p[i] = lane_cos[at + i * LANES];
        }
        sums.copy_from_slice(&acc.sums[..dim]);
        // the neighbor count in a local; every candidate the walk neither
        // skips nor pairs is a summary cell, so only those are counted
        let (mut neighbors, mut not_summaries) = (acc.neighbors, 0);
        for &(c, covered) in candidates {
            let c = c as usize;
            // a straddling cell is classified against p itself
            let fully_within = covered || {
                if grid.min_sq_dist_to_cell(c, p) > eps_sq {
                    not_summaries += 1;
                    continue;
                }
                options.use_summaries && grid.max_sq_dist_to_cell(c, p) <= eps_sq
            };
            if fully_within {
                let (sin_c, cos_c) = grid.summary_rows()[2 * c * dim..][..2 * dim].split_at(dim);
                for i in 0..dim {
                    sums[i] += cos_p[i] * sin_c[i] - sin_p[i] * cos_c[i];
                }
                neighbors += grid.cell_len(c) as u64;
                continue;
            }
            not_summaries += 1;
            if lanes {
                let slots = grid.cell_range(c);
                counters.point_pairs += slots.len() as u64;
                // stripe the cell's slot range in whole lane blocks of the
                // lane-blocked tables; the first/last block mask off slots
                // outside the range. Lane distances are exact, so the
                // neighbor count matches the scalar path bit for bit —
                // only the pair-term sum reassociates. (Lane counters use
                // the minimal covering block count, a pure function of the
                // cell size shared with the device kernel; a straddling
                // range may touch one extra block.)
                let lanes = (slots.len().div_ceil(LANES) * LANES) as u64;
                counters.simd_lanes += lanes;
                counters.simd_remainder_lanes += lanes - slots.len() as u64;
                // slot s lives at lane index lane_phase + s; a sharded grid
                // sets the phase so lane-block boundaries match the single
                // grid's (see CellGrid::set_lane_phase)
                let lane_phase = grid.lane_phase();
                let hits = pair_term_cell::<D>(
                    grid.lane_coords(),
                    lane_sin,
                    lane_cos,
                    dim,
                    lane_phase + slots.start,
                    lane_phase + slots.end,
                    p,
                    sin_p,
                    cos_p,
                    eps_sq,
                    &mut acc.lanes[..dim],
                );
                neighbors += u64::from(hits);
            } else {
                let slots = grid.cell_range(c);
                counters.point_pairs += slots.len() as u64;
                // walk the cell by slot: q's coordinates are looked up
                // through the order permutation, its sin/cos in its lane
                for slot in slots {
                    let q_idx = order[slot] as usize;
                    let q = &coords[q_idx * dim..(q_idx + 1) * dim];
                    let mut dist_sq = 0.0;
                    for i in 0..dim {
                        let d = q[i] - p[i];
                        dist_sq += d * d;
                    }
                    if dist_sq <= eps_sq {
                        neighbors += 1;
                        let at = grid.slot_lane(slot);
                        // sin(q−p) = sin q · cos p − cos q · sin p
                        for i in 0..dim {
                            let k = at + i * LANES;
                            sums[i] += lane_sin[k] * cos_p[i] - lane_cos[k] * sin_p[i];
                        }
                    }
                }
            }
        }
        counters.summary_cells += candidates.len() as u64 - not_summaries;
        // every neighbor, on every path, saves `dim` sin evaluations
        counters.sin_calls_avoided += dim as u64 * (neighbors - acc.neighbors);
        acc.sums[..dim].copy_from_slice(sums);
        acc.neighbors = neighbors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{GridGeometry, GridVariant, GridWorkspace};
    use crate::model::update_point;
    use egg_gpu_sim::DeviceConfig;

    fn cloud(n: usize, dim: usize) -> Vec<f64> {
        (0..n * dim)
            .map(|i| ((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 1000.0)
            .collect()
    }

    /// `EGG_NUM_SHARDS` takes a positive integer after trimming and
    /// refuses anything else, naming the variable and its value.
    #[test]
    fn shards_env_parse() {
        let parse = |value: &str| crate::exec::parse_count("EGG_NUM_SHARDS", value.as_ref());
        assert_eq!(parse("4"), Ok(4));
        assert_eq!(parse(" 12 "), Ok(12));
        for value in ["0", "-3", "many", ""] {
            let refusal = format!("EGG_NUM_SHARDS={value:?}: want a positive integer");
            assert_eq!(parse(value), Err(refusal));
        }
    }

    fn run_update(
        coords: &[f64],
        dim: usize,
        eps: f64,
        variant: GridVariant,
        options: UpdateOptions,
    ) -> (Vec<f64>, bool) {
        let (next, flag, _) = run_update_counting(coords, dim, eps, variant, options);
        (next, flag)
    }

    fn run_update_counting(
        coords: &[f64],
        dim: usize,
        eps: f64,
        variant: GridVariant,
        options: UpdateOptions,
    ) -> (Vec<f64>, bool, UpdateCounters) {
        let n = coords.len() / dim;
        let device = Device::new(DeviceConfig::default());
        let geo = GridGeometry::new(dim, eps, n, variant);
        let mut ws = GridWorkspace::new(&device, geo, n);
        let buf = device.alloc_from_slice(coords);
        let next = device.alloc::<f64>(coords.len());
        let flag = device.alloc::<u64>(1);
        flag.store(0, 1);
        let counters = device.alloc::<u64>(COUNTER_SLOTS);
        let grid = ws.construct(&buf);
        let pre = ws.build_pregrid(&grid);
        egg_update(
            &device, &grid, &pre, &buf, &next, &flag, &counters, n, eps, options, None,
        );
        (
            next.to_vec(),
            flag.load(0) == 1,
            counters_from_device(&counters),
        )
    }

    fn brute_force_update(coords: &[f64], dim: usize, eps: f64) -> Vec<f64> {
        let n = coords.len() / dim;
        let mut next = vec![0.0; coords.len()];
        for p in 0..n {
            let out = &mut next[p * dim..(p + 1) * dim];
            update_point(coords, dim, p, eps, out);
        }
        next
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "coordinate {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_brute_force_with_all_optimizations() {
        let coords = cloud(300, 2);
        let expected = brute_force_update(&coords, 2, 0.08);
        let (got, _) = run_update(
            &coords,
            2,
            0.08,
            GridVariant::Auto,
            UpdateOptions::default(),
        );
        assert_close(&got, &expected, 1e-9);
    }

    #[test]
    fn matches_brute_force_without_summaries() {
        let coords = cloud(200, 2);
        let expected = brute_force_update(&coords, 2, 0.08);
        let (got, _) = run_update(
            &coords,
            2,
            0.08,
            GridVariant::Auto,
            UpdateOptions {
                use_summaries: false,
                use_pregrid: true,
                ..UpdateOptions::default()
            },
        );
        assert_close(&got, &expected, 1e-12);
    }

    #[test]
    fn matches_brute_force_without_pregrid() {
        let coords = cloud(200, 2);
        let expected = brute_force_update(&coords, 2, 0.08);
        let (got, _) = run_update(
            &coords,
            2,
            0.08,
            GridVariant::Auto,
            UpdateOptions {
                use_summaries: true,
                use_pregrid: false,
                ..UpdateOptions::default()
            },
        );
        assert_close(&got, &expected, 1e-9);
    }

    #[test]
    fn counters_report_summary_and_point_work() {
        let coords = cloud(300, 2);
        let (_, _, on) = run_update_counting(
            &coords,
            2,
            0.08,
            GridVariant::Auto,
            UpdateOptions::default(),
        );
        assert!(on.summary_cells > 0, "dense cloud must hit summaries");
        assert!(on.point_pairs > 0, "boundary cells must hit the point path");
        assert!(on.sin_calls_avoided > 0);
        let (_, _, off) = run_update_counting(
            &coords,
            2,
            0.08,
            GridVariant::Auto,
            UpdateOptions {
                use_summaries: false,
                use_pregrid: true,
                ..UpdateOptions::default()
            },
        );
        assert_eq!(off.summary_cells, 0);
        assert!(off.point_pairs > on.point_pairs);
    }

    #[test]
    fn matches_brute_force_on_all_grid_variants() {
        let coords = cloud(150, 3);
        let expected = brute_force_update(&coords, 3, 0.15);
        for variant in [
            GridVariant::Auto,
            GridVariant::Sequential,
            GridVariant::RandomAccess,
            GridVariant::Mixed(1),
        ] {
            let (got, _) = run_update(&coords, 3, 0.15, variant, UpdateOptions::default());
            assert_close(&got, &expected, 1e-9);
        }
    }

    #[test]
    fn matches_brute_force_high_dim() {
        let coords = cloud(120, 8);
        let expected = brute_force_update(&coords, 8, 0.4);
        let (got, _) = run_update(&coords, 8, 0.4, GridVariant::Auto, UpdateOptions::default());
        assert_close(&got, &expected, 1e-9);
    }

    #[test]
    fn sync_flag_clear_when_neighbors_outside_cell() {
        // two points within ε but farther than the cell diagonal apart
        let eps = 0.1;
        let coords = vec![0.50, 0.50, 0.58, 0.50];
        let (_, flag) = run_update(&coords, 2, eps, GridVariant::Auto, UpdateOptions::default());
        assert!(!flag, "first term must fail while neighbors span cells");
    }

    #[test]
    fn sync_flag_set_when_all_neighborhoods_are_cell_local() {
        // two isolated points, far beyond ε of each other
        let coords = vec![0.1, 0.1, 0.9, 0.9];
        let (_, flag) = run_update(
            &coords,
            2,
            0.05,
            GridVariant::Auto,
            UpdateOptions::default(),
        );
        assert!(flag);
    }

    fn run_update_host(
        coords: &[f64],
        dim: usize,
        eps: f64,
        workers: usize,
        options: UpdateOptions,
    ) -> (Vec<f64>, bool) {
        let n = coords.len() / dim;
        let exec = Executor::new(Some(workers));
        let geo = GridGeometry::new(dim, eps, n, GridVariant::Auto);
        let grid = CellGrid::build(&exec, geo, coords);
        let mut next = vec![0.0; coords.len()];
        let mut stats = Vec::new();
        let (first_term, _) = egg_update_host(
            &exec, &grid, coords, &mut next, eps, options, &mut stats, None, None,
        );
        (next, first_term)
    }

    #[test]
    fn host_matches_brute_force_with_all_optimizations() {
        let coords = cloud(300, 2);
        let expected = brute_force_update(&coords, 2, 0.08);
        let (got, _) = run_update_host(&coords, 2, 0.08, 4, UpdateOptions::default());
        assert_close(&got, &expected, 1e-9);
    }

    #[test]
    fn host_matches_brute_force_without_summaries() {
        let coords = cloud(200, 3);
        let expected = brute_force_update(&coords, 3, 0.15);
        let (got, _) = run_update_host(
            &coords,
            3,
            0.15,
            4,
            UpdateOptions {
                use_summaries: false,
                use_pregrid: true,
                ..UpdateOptions::default()
            },
        );
        assert_close(&got, &expected, 1e-12);
    }

    #[test]
    fn host_is_bitwise_identical_across_worker_counts() {
        let coords = cloud(2000, 2);
        let (reference, ref_flag) = run_update_host(&coords, 2, 0.05, 1, UpdateOptions::default());
        for workers in [2, 3, 8] {
            let (got, flag) = run_update_host(&coords, 2, 0.05, workers, UpdateOptions::default());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&reference), "workers = {workers}");
            assert_eq!(flag, ref_flag);
        }
    }

    #[test]
    fn host_counters_match_device_counters() {
        let coords = cloud(300, 2);
        let exec = Executor::new(Some(4));
        let geo = GridGeometry::new(2, 0.08, 150, GridVariant::Auto);
        let grid = CellGrid::build(&exec, geo, &coords);
        let mut next = vec![0.0; coords.len()];
        let mut stats = Vec::new();
        let (_, host) = egg_update_host(
            &exec,
            &grid,
            &coords,
            &mut next,
            0.08,
            UpdateOptions::default(),
            &mut stats,
            None,
            None,
        );
        // the device pipeline must report exactly the host engine's work
        // counters
        let (_, _, device) = run_update_counting(
            &coords,
            2,
            0.08,
            GridVariant::Auto,
            UpdateOptions::default(),
        );
        assert_eq!(host, device);
    }

    #[test]
    fn host_first_term_agrees_with_device_flag() {
        for (coords, eps) in [
            (vec![0.50, 0.50, 0.58, 0.50], 0.1),
            (vec![0.1, 0.1, 0.9, 0.9], 0.05),
        ] {
            let (_, device_flag) =
                run_update(&coords, 2, eps, GridVariant::Auto, UpdateOptions::default());
            let (_, host_flag) = run_update_host(&coords, 2, eps, 2, UpdateOptions::default());
            assert_eq!(host_flag, device_flag, "eps = {eps}");
        }
    }

    /// Multi-pass incremental engines on both backends, over a scenario
    /// engineered to stay on the no-rebin fast path: a synchronizing pair
    /// confined to the interior of a single cell (each Kuramoto step keeps
    /// both points inside the pair's bounding box), plus stationary clumps
    /// of coincident duplicates far away whose cells must be skipped from
    /// pass 2 on. All six work counters — including `moved_points`,
    /// `dirty_cells` and `cells_skipped` — must match exactly between the
    /// host engine and the single-threaded simulated device.
    #[test]
    fn incremental_counters_match_host_vs_device() {
        use crate::egg::algorithm::{DeviceEngine, Engine, HostEngine};
        use crate::instrument::{RunTrace, StageTimings};
        let (dim, eps, passes) = (2usize, 0.1f64, 3usize);
        let probe = GridGeometry::new(dim, eps, 16, GridVariant::Auto);
        let w = probe.cell_width;
        // pair inside one cell, at 30% and 70% of the cell's span per dim
        let k = (0.5 / w).floor();
        let (a, b) = (k * w + 0.3 * w, k * w + 0.7 * w);
        let mut coords = vec![a, a, b, b];
        for clump in [[0.1, 0.1], [0.9, 0.1], [0.1, 0.9]] {
            for _ in 0..4 {
                coords.extend_from_slice(&clump);
            }
        }
        let n = coords.len() / dim;
        let geo = GridGeometry::new(dim, eps, n, GridVariant::Auto);

        // --- host engine, k passes ---------------------------------------
        let exec = Executor::new(Some(3));
        let mut host = HostEngine::new(geo, eps, UpdateOptions::default(), &coords);
        let mut host_total = UpdateCounters::default();
        for _ in 0..passes {
            host_total.merge(&host.iterate(&exec, &mut StageTimings::default()).counters);
        }

        // the scenario must actually exercise the machinery
        assert!(host_total.moved_points > 0, "pair should keep moving");
        assert!(host_total.cells_skipped > 0, "clumps should be skipped");
        assert!(host_total.dirty_cells > 0);

        // --- device engine on the single-threaded simulator, same passes —
        // the counters (cells_skipped, dirty_cells, simd lanes, summary
        // cells, ...) must match the host engine exactly
        let device = Device::new(DeviceConfig {
            host_threads: Some(1),
            ..DeviceConfig::default()
        });
        let mut dev = DeviceEngine::new(&device, geo, eps, UpdateOptions::default(), &coords);
        for _ in 0..passes {
            dev.iterate(&Executor::sequential(), &mut StageTimings::default());
        }
        let mut trace = RunTrace::default();
        dev.finish(&mut trace);
        assert_eq!(host_total, trace.update_counters);
    }

    /// Points around three centers per dimension, spread `spread` wide:
    /// runs whose reach holds covered, straddling and unreachable cells.
    fn blobs(n: usize, dim: usize, spread: f64) -> Vec<f64> {
        let centers = [0.3, 0.7, 0.5];
        cloud(n, dim)
            .iter()
            .enumerate()
            .map(|(i, u)| centers[(i / dim % 3 + i % dim) % 3] + (u - 0.5) * spread)
            .collect()
    }

    /// Coincident rows on `geo`'s grid, over [`blobs`] in `geo.dim`
    /// dimensions: each of 500 blob rows one to four times at consecutive
    /// indices, seven rows alternating by index between two positions of
    /// one cell, and four rows alternating `0.0`, `-0.0` in dimension 0,
    /// alone within ε. Over 1 024 rows, so runs meet a chunk border.
    fn coincident(geo: &GridGeometry) -> Vec<f64> {
        let (dim, w) = (geo.dim, geo.cell_width);
        let mut coords = Vec::new();
        for (k, row) in blobs(500, dim, 0.3).chunks_exact(dim).enumerate() {
            for _ in 0..=k % 4 {
                coords.extend_from_slice(row);
            }
        }
        let (a, b) = (vec![3.3 * w; dim], vec![3.6 * w; dim]);
        for k in 0..7 {
            coords.extend_from_slice([&a, &b][k % 2]);
        }
        for k in 0..4 {
            let mut twin = vec![0.95; dim];
            twin[0] = [0.0, -0.0][k % 2];
            coords.extend(twin);
        }
        coords
    }

    /// One host update pass over `grid`, checked against a per-slot
    /// reference that walks every point itself: [`ReachMemo`] candidates,
    /// one [`CandidateWalk::visit`] per batch and the same lane fold. Both
    /// must give the same next rows, bit for bit, the same first-term
    /// verdict, `moved`/`confined` flags and counters. The reference
    /// reads the pass's own cell-skip verdicts and replays skipped cells
    /// from the flags `state` held before it. Returns the next rows.
    #[allow(clippy::too_many_arguments)]
    fn check_against_per_point_walk(
        exec: &Executor,
        grid: &CellGrid,
        coords: &[f64],
        eps: f64,
        options: UpdateOptions,
        state: &mut IncrementalState,
        shard: Option<&ShardPass>,
        tag: &str,
    ) -> Vec<f64> {
        let (dim, eps_sq) = (grid.geometry().dim, eps * eps);
        let n = coords.len() / dim;
        // rows the pass must not write keep this pattern
        let untouched = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut want_moved = state.moved.clone();
        let mut want_confined = state.confined.clone();
        want_moved.resize(n, false);
        want_confined.resize(n, false);
        let mut got = vec![untouched; n * dim];
        let (first_term, counters) = egg_update_host(
            exec,
            grid,
            coords,
            &mut got,
            eps,
            options,
            &mut Vec::new(),
            Some(state),
            shard,
        );

        let mut want = vec![untouched; n * dim];
        let (mut want_first, mut want_counters) = (true, UpdateCounters::default());
        let walk = CandidateWalk::new(grid, coords, eps_sq, options);
        let mut reach = ReachMemo::<RUN_LIST>::new(grid, eps_sq, options.use_summaries);
        for slot in shard.map_or(0..n, |sh| sh.slots.clone()) {
            let p_idx = grid.point_order()[slot] as usize;
            let c = grid.point_cell()[p_idx] as usize;
            let p = &coords[p_idx * dim..(p_idx + 1) * dim];
            let out = &mut want[p_idx * dim..(p_idx + 1) * dim];
            if state.cell_skip[c] {
                out.copy_from_slice(p);
                want_moved[p_idx] = false;
                want_first &= want_confined[p_idx];
                want_counters.cells_skipped += u64::from(slot == grid.cell_range(c).start);
                continue;
            }
            let mut acc = PointSums::new();
            reach.for_each_candidate(c, |candidates| {
                walk.visit(slot, candidates, &mut acc, &mut want_counters, true);
            });
            if options.use_simd {
                for i in 0..dim {
                    acc.sums[i] += acc.lanes[i].reduce_sum();
                }
            }
            let inv = 1.0 / acc.neighbors as f64;
            for i in 0..dim {
                out[i] = p[i] + acc.sums[i] * inv;
            }
            let moved = !same_bits(out, p);
            let confined = acc.neighbors == grid.cell_len(c) as u64;
            want_first &= confined;
            (want_moved[p_idx], want_confined[p_idx]) = (moved, confined);
            want_counters.moved_points += u64::from(moved);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "{tag}: next rows");
        assert_eq!(first_term, want_first, "{tag}: first term");
        assert_eq!(state.moved, want_moved, "{tag}: moved");
        assert_eq!(state.confined, want_confined, "{tag}: confined");
        assert_eq!(counters, want_counters, "{tag}: counters");
        got
    }

    /// Points whose rows hold the same bits share their update walk inside
    /// a chunk. The pass must match a per-point walk bit for bit on inputs
    /// where that matters ([`coincident`]): runs of equal rows, some
    /// crossing a chunk border; rows alternating `a, b, a, b` by index
    /// inside one cell; and `±0.0` twins, equal under `==`, of which only
    /// the `-0.0` one moves (to `0.0`) on the first pass. Checked at 1 and
    /// 3 workers, over incremental passes with their cell skips, and
    /// through a [`ShardPass`] window of the middle third of the cells.
    #[test]
    fn coincident_points_match_the_per_point_walk_bitwise() {
        for (dim, eps) in [(2usize, 0.05f64), (3, 0.1)] {
            let geo = GridGeometry::new(dim, eps, 1500, GridVariant::Auto);
            let coords = coincident(&geo);
            let n = coords.len() / dim;
            assert!(n > POINT_CHUNK, "runs must meet a chunk border");
            for options in [
                UpdateOptions::default(),
                UpdateOptions {
                    use_simd: false,
                    ..UpdateOptions::default()
                },
            ] {
                for workers in [1, 3] {
                    let exec = Executor::new(Some(workers));
                    let (mut grid, mut state) = (CellGrid::new(geo), IncrementalState::new());
                    let mut cur = coords.clone();
                    let mut repeats = 0;
                    for pass in 0..3 {
                        let tag = format!("d={dim} workers {workers} pass {pass} {options:?}");
                        grid.refresh(&exec, &cur, state.moved_flags());
                        let order = grid.point_order();
                        repeats += (1..n)
                            .filter(|&s| {
                                let (p, q) = (order[s - 1] as usize, order[s] as usize);
                                same_bits(
                                    &cur[p * dim..(p + 1) * dim],
                                    &cur[q * dim..(q + 1) * dim],
                                )
                            })
                            .count();
                        if pass == 0 {
                            // the alternating rows share a cell
                            let (a, b) = (n - 11, n - 10);
                            assert_eq!(grid.point_cell()[a], grid.point_cell()[b], "{tag}");
                        }
                        let cells = grid.num_cells();
                        let window = ShardPass {
                            slots: grid.slots_of_cells(cells / 3..2 * cells / 3),
                            outer_dirty: state.active.then_some(&state.outer_dirty[..]),
                        };
                        check_against_per_point_walk(
                            &exec,
                            &grid,
                            &cur,
                            eps,
                            options,
                            &mut IncrementalState::new(),
                            Some(&window),
                            &format!("{tag} window"),
                        );
                        let next = check_against_per_point_walk(
                            &exec, &grid, &cur, eps, options, &mut state, None, &tag,
                        );
                        if pass == 0 {
                            let twins = [n - 4, n - 3].map(|p| state.moved[p]);
                            assert_eq!(twins, [false, true], "{tag}: ±0.0 twins");
                        }
                        state.finish_pass(&geo, &cur, &next);
                        cur = next;
                    }
                    assert!(repeats > 0, "d={dim}: no equal rows in slot order");
                }
            }
        }
    }

    /// One incremental host pipeline (refresh → update → finish_pass).
    struct Pipeline {
        grid: CellGrid,
        state: IncrementalState,
        cur: Vec<f64>,
        next: Vec<f64>,
        stats: Vec<(bool, UpdateCounters)>,
    }

    impl Pipeline {
        fn new(geo: GridGeometry, coords: &[f64]) -> Self {
            Self {
                grid: CellGrid::new(geo),
                state: IncrementalState::new(),
                cur: coords.to_vec(),
                next: vec![0.0; coords.len()],
                stats: Vec::new(),
            }
        }

        /// One pass with a `LIST`-cell candidate list: the new position
        /// bits, the first-term verdict and the pass's counters.
        fn step<const LIST: usize>(
            &mut self,
            exec: &Executor,
            eps: f64,
            options: UpdateOptions,
        ) -> (Vec<u64>, bool, UpdateCounters) {
            let refreshed = self.grid.refresh(exec, &self.cur, self.state.moved_flags());
            let (first_term, mut counters) = update_host::<LIST>(
                exec,
                &self.grid,
                &self.cur,
                &mut self.next,
                eps,
                options,
                &mut self.stats,
                Some(&mut self.state),
                None,
            );
            counters.dirty_cells += refreshed.dirty_cells;
            self.state
                .finish_pass(self.grid.geometry(), &self.cur, &self.next);
            std::mem::swap(&mut self.cur, &mut self.next);
            let bits = self.cur.iter().map(|x| x.to_bits()).collect();
            (bits, first_term, counters)
        }
    }

    /// The candidate walk compiled for AVX2 must reproduce the portable
    /// walk bit for bit, for every `dim` it is specialized on (1–8) and
    /// for `dim` 9, which reads `dim` at run time: the summary sums, the
    /// pair term's lanes, the neighbor count and every counter, from
    /// seeded starting sums (the per-point walk chains one call per cell),
    /// with summaries on and off. Grids are built at every lane phase, so
    /// the pair term's first- and last-block masks of both compilations
    /// meet every lane offset.
    #[test]
    fn avx2_walk_is_bitwise_identical_to_the_scalar_walk() {
        for (dim, phase) in (1..=9).flat_map(|dim| (0..LANES).map(move |phase| (dim, phase))) {
            let n = 300;
            let coords = blobs(n, dim, 0.3);
            let eps = 0.06 * (dim as f64).sqrt();
            let eps_sq = eps * eps;
            let exec = Executor::sequential();
            let mut grid = CellGrid::new(GridGeometry::new(dim, eps, n, GridVariant::Auto));
            grid.set_lane_phase(phase);
            grid.rebuild(&exec, &coords);
            assert_eq!(grid.lane_phase(), phase);
            let mut seen = UpdateCounters::default();
            for use_summaries in [true, false] {
                let options = UpdateOptions {
                    use_summaries,
                    use_simd: true,
                    ..UpdateOptions::default()
                };
                let walk = CandidateWalk::new(&grid, &coords, eps_sq, options);
                let mut reach = ReachMemo::<RUN_LIST>::new(&grid, eps_sq, use_summaries);
                let mut seed = PointSums::new();
                for i in 0..dim {
                    seed.sums[i] = 0.125 * (i + 1) as f64;
                    seed.lanes[i] = F64x4([0.5, -0.25, 1.0, -2.0]);
                }
                seed.neighbors = 3;
                for slot in 0..n {
                    let run = grid.point_cell()[grid.point_order()[slot] as usize] as usize;
                    reach.for_each_candidate(run, |candidates| {
                        let (mut fast, mut oracle) = (seed.clone(), seed.clone());
                        let (mut fast_c, mut oracle_c) =
                            (UpdateCounters::default(), UpdateCounters::default());
                        walk.visit(slot, candidates, &mut fast, &mut fast_c, true);
                        walk.visit(slot, candidates, &mut oracle, &mut oracle_c, false);
                        let case = format!(
                            "dim {dim} phase {phase} slot {slot} summaries={use_summaries}"
                        );
                        for i in 0..dim {
                            assert_eq!(
                                fast.sums[i].to_bits(),
                                oracle.sums[i].to_bits(),
                                "{case}: sum {i}"
                            );
                            for j in 0..LANES {
                                assert_eq!(
                                    fast.lanes[i].0[j].to_bits(),
                                    oracle.lanes[i].0[j].to_bits(),
                                    "{case}: dim {i} lane {j}"
                                );
                            }
                        }
                        assert_eq!(fast.neighbors, oracle.neighbors, "{case}");
                        assert_eq!(fast_c, oracle_c, "{case}");
                        seen.merge(&oracle_c);
                    });
                }
            }
            // both paths of the walk ran
            assert!(
                seen.summary_cells > 0 && seen.point_pairs > 0,
                "dim {dim} phase {phase}: {seen:?}"
            );
        }
    }

    /// The per-run candidate list must reproduce the per-point walk bit
    /// for bit. A list of 0 cells overflows on every run, which is that
    /// walk; a list of 8 cells fits some runs and overflows on the rest.
    /// Both must match the production list in next positions, first-term
    /// verdict and every counter, under each classification ablation and
    /// across incremental passes, on blobs and on [`coincident`] rows.
    #[test]
    fn run_list_overflow_matches_the_full_list_bitwise() {
        let ablations = [
            UpdateOptions::default(),
            UpdateOptions {
                use_summaries: false,
                ..UpdateOptions::default()
            },
            UpdateOptions {
                use_simd: false,
                ..UpdateOptions::default()
            },
        ];
        let exec = Executor::new(Some(3));
        // d = 5 has a partial second vector per summary half, d = 9 reads
        // `dim` at run time; spread 0 stands for the coincident input
        for &(n, dim, eps, spread) in &[
            (600usize, 2usize, 0.05f64, 0.2f64),
            (400, 3, 0.1, 0.25),
            (300, 5, 0.2, 0.3),
            (300, 8, 0.3, 0.3),
            (200, 9, 0.35, 0.3),
            (1500, 2, 0.05, 0.0),
        ] {
            let geo = GridGeometry::new(dim, eps, n, GridVariant::Auto);
            let coords = if spread > 0.0 {
                blobs(n, dim, spread)
            } else {
                coincident(&geo)
            };
            for options in ablations {
                let mut full = Pipeline::new(geo, &coords);
                let mut short = Pipeline::new(geo, &coords);
                let mut none = Pipeline::new(geo, &coords);
                for pass in 0..3 {
                    let want = full.step::<RUN_LIST>(&exec, eps, options);
                    let tag = format!("d={dim} pass {pass} {options:?}");
                    assert_eq!(short.step::<8>(&exec, eps, options), want, "{tag}");
                    assert_eq!(none.step::<0>(&exec, eps, options), want, "{tag}");
                }
            }
        }
    }
}
