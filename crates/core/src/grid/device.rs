//! Simulated-GPU construction of the mixed-access grid (Algorithm 2),
//! the precomputed surrounding-cell lists (§4.2.5) and the per-cell
//! sin/cos summaries (§4.3.1).
//!
//! The construction follows the paper's multi-pass parallel recipe
//! verbatim — every step is a kernel or a device-wide scan, shared state is
//! only ever touched through atomics, and all buffers are allocated once
//! per run and reused across iterations:
//!
//! 1. count points per *outer* cell (atomic increments);
//! 2. inclusive-scan the counts into outer end-offsets;
//! 3. scatter each point's full-dimensional cell id into its outer
//!    bucket (duplicates accepted for now);
//! 4. for each point, find the *first* occurrence of its cell id within
//!    the bucket, mark it included, and count the cell's points;
//! 5. inclusive-scan the inclusion flags into compacted cell indices;
//! 6. inclusive-scan the cell sizes into point end-offsets;
//! 7. scatter the points into their cells (atomic slot claims) — this
//!    also yields the grid-sorted execution order of §4.2.6;
//! 8. repack cell ids and end-offsets into the compacted layout;
//! 9. rewrite the outer end-offsets against the compacted cell array.
//!
//! One per-cell kernel then fills the per-point lane tables
//! ([`LaneTables`]: `sin`, `cos` and the coordinates of every grid-sorted
//! slot, the device's only copy of them), the per-cell Σsin/Σcos summaries
//! and the cell MBRs, with no atomic. It serves both the construct and the
//! in-place refresh.

use egg_gpu_sim::{grid_for, primitives, Device, DeviceBuffer};

use super::geometry::GridGeometry;
use crate::algorithms::gpu_sync::{BLOCK, MAX_DIM};
use crate::kernels::{lane_pad, LANES};

/// Read `getStart(ends, i)` — 0 for the first list, else the previous end.
#[inline]
pub(crate) fn seg_start(ends: &DeviceBuffer<u64>, i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        ends.load(i - 1)
    }
}

/// The device grid's per-point tables, lane-blocked like
/// [`super::CellGrid`]'s host lane layout ([`super::CellGrid::lane_sin`]):
/// for grid-sorted slot `s = 4b + j`, dimension `i` lives at
/// `(b·dim + i)·LANES + j`. Four consecutive slots of one cell therefore
/// occupy four *adjacent* words per dimension — the warp-contiguous
/// pattern the simulator's coalesced access path models at full
/// bandwidth. They are the device's only copy of each point's `sin` and
/// `cos` and of its slot-ordered coordinates: one writer fills them, and
/// the update and termination kernels read every partner through
/// them. Padding lanes past `n` are never written and stay zero, exactly
/// like the host tables.
#[derive(Clone)]
pub struct LaneTables {
    /// Lane-blocked `sin(pᵢ)` per grid-sorted slot.
    pub sin: DeviceBuffer<f64>,
    /// Lane-blocked `cos(pᵢ)` per grid-sorted slot.
    pub cos: DeviceBuffer<f64>,
    /// Lane-blocked coordinates per grid-sorted slot.
    pub coords: DeviceBuffer<f64>,
}

impl LaneTables {
    /// Word index of dimension `i` of grid-sorted slot `s` (kernel-safe).
    #[inline]
    pub fn at(s: usize, dim: usize, i: usize) -> usize {
        (s / LANES * dim + i) * LANES + s % LANES
    }
}

/// A constructed grid: cheap buffer handles into the workspace, plus the
/// number of compacted non-empty cells. Valid until the workspace's next
/// `construct` or `refresh` call.
#[derive(Clone)]
pub struct DeviceGrid {
    /// Cell geometry used for construction.
    pub geometry: GridGeometry,
    /// Points per outer cell (`m` entries) — also the non-emptiness test.
    pub o_sizes: DeviceBuffer<u64>,
    /// Per outer cell, end offset into the compacted inner-cell array.
    pub o_ends: DeviceBuffer<u64>,
    /// Compacted inner-cell ids, `dim` words per cell.
    pub i_ids: DeviceBuffer<u64>,
    /// Per compacted inner cell, end offset into `i_points`.
    pub i_ends: DeviceBuffer<u64>,
    /// Point indices grouped by inner cell (the grid-sorted order).
    pub i_points: DeviceBuffer<u64>,
    /// Per point, its compacted inner-cell index.
    pub point_cell: DeviceBuffer<u64>,
    /// Per-cell Σ sin(qᵢ) (`num_inner × dim`), for the summarized update.
    pub sin_sums: DeviceBuffer<f64>,
    /// Per-cell Σ cos(qᵢ) (`num_inner × dim`).
    pub cos_sums: DeviceBuffer<f64>,
    /// Per-cell point MBR, `2·dim` words per compacted inner cell
    /// (`[lo_0.. lo_{d-1}, hi_0.. hi_{d-1}]`) — the tight bounds the
    /// update kernel classifies cells with (exact: points ⊆ MBR ⊆ box).
    pub c_bounds: DeviceBuffer<f64>,
    /// Per-slot `sin`, `cos` and coordinates — the iteration's trig table,
    /// shared by the summaries and the update kernel's angle-addition
    /// identity, read through the coalesced path.
    pub lanes: LaneTables,
    /// Number of compacted non-empty inner cells.
    pub num_inner: usize,
}

impl DeviceGrid {
    /// Number of points in compacted cell `c` (kernel-safe).
    #[inline]
    pub fn cell_size(&self, c: usize) -> u64 {
        self.i_ends.load(c) - seg_start(&self.i_ends, c)
    }

    /// Start offset of compacted cell `c` in `i_points` (kernel-safe).
    #[inline]
    pub fn cell_start(&self, c: usize) -> u64 {
        seg_start(&self.i_ends, c)
    }
}

/// Precomputed non-empty surrounding outer cells (§4.2.5): for every
/// non-empty outer cell, the list of non-empty outer cells within the
/// geometry's reach (including itself).
pub struct PreGrid {
    /// Dense outer id → index into `ends`/`cells` lists, `u64::MAX` for
    /// empty outer cells.
    pub index_of: DeviceBuffer<u64>,
    /// Per non-empty outer cell, end offset into `cells`.
    pub ends: DeviceBuffer<u64>,
    /// Concatenated surrounding-cell lists (dense outer ids).
    pub cells: DeviceBuffer<u64>,
    /// Number of non-empty outer cells.
    pub count: usize,
}

/// All grid buffers for a run, allocated once and reused every iteration
/// (the paper: "all arrays are allocated at the beginning ... and reused in
/// all iterations to avoid expensive memory allocations").
pub struct GridWorkspace {
    device: Device,
    geometry: GridGeometry,
    n: usize,
    o_sizes: DeviceBuffer<u64>,
    o_ends: DeviceBuffer<u64>,
    o_ends2: DeviceBuffer<u64>,
    o_fill: DeviceBuffer<u64>,
    i_ids: DeviceBuffer<u64>,
    i_ids2: DeviceBuffer<u64>,
    i_incl: DeviceBuffer<u64>,
    i_idxs: DeviceBuffer<u64>,
    i_sizes: DeviceBuffer<u64>,
    i_ends: DeviceBuffer<u64>,
    i_ends2: DeviceBuffer<u64>,
    i_points: DeviceBuffer<u64>,
    point_slot: DeviceBuffer<u64>,
    point_cell: DeviceBuffer<u64>,
    cell_fill: DeviceBuffer<u64>,
    sin_sums: DeviceBuffer<f64>,
    cos_sums: DeviceBuffer<f64>,
    lane_sin: DeviceBuffer<f64>,
    lane_cos: DeviceBuffer<f64>,
    lane_coords: DeviceBuffer<f64>,
    c_bounds: DeviceBuffer<f64>,
    pre_list: DeviceBuffer<u64>,
    pre_index: DeviceBuffer<u64>,
    pre_sizes: DeviceBuffer<u64>,
    pre_ends: DeviceBuffer<u64>,
    pre_cells: DeviceBuffer<u64>,
    /// Snapshot of every point's cell coordinates as of the last
    /// construct/refresh — the incremental path's change detector.
    point_keys: DeviceBuffer<u64>,
    /// Snapshot of the outer-cell emptiness pattern the current preGrid
    /// was built from (the preGrid depends on nothing else).
    pre_empty: DeviceBuffer<u64>,
    /// Single-slot change/count scratch for the refresh kernels.
    chg_flag: DeviceBuffer<u64>,
    /// Block-sum levels for every per-iteration prefix scan, sized for
    /// `max(n, outer_cells)` once at allocation time so the steady-state
    /// construct/refresh path never touches the heap.
    scan_scratch: primitives::ScanScratch,
    /// Scanned-flag positions for the occupied-list compaction.
    compact_pos: DeviceBuffer<u64>,
    /// Whether the snapshots describe a previously constructed grid.
    state_valid: bool,
    /// Compacted cell count of the last construct (the fast path reuses
    /// the CSR arrays without re-deriving it).
    last_num_inner: usize,
    /// Non-empty outer count of the last preGrid build.
    last_pre_count: usize,
}

/// What one [`GridWorkspace::refresh`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceRefreshStats {
    /// Cells whose Σsin/Σcos summaries were recomputed (every cell when
    /// the CSR layout was rebuilt).
    pub dirty_cells: u64,
    /// Whether the CSR arrays were rebuilt from scratch (a mover crossed a
    /// cell boundary, or no prior state existed).
    pub layout_rebuilt: bool,
    /// Whether the preGrid was rebuilt (the outer emptiness pattern
    /// flipped somewhere).
    pub pregrid_rebuilt: bool,
}

impl GridWorkspace {
    /// Allocate every buffer for `n` points under `geometry`.
    pub fn new(device: &Device, geometry: GridGeometry, n: usize) -> Self {
        assert!(
            geometry.dim <= MAX_DIM,
            "kernels support at most {MAX_DIM} dimensions"
        );
        let m = geometry.outer_cells;
        let nd = n * geometry.dim;
        Self {
            device: device.clone(),
            geometry,
            n,
            o_sizes: device.alloc(m),
            o_ends: device.alloc(m),
            o_ends2: device.alloc(m),
            o_fill: device.alloc(m),
            i_ids: device.alloc(nd),
            i_ids2: device.alloc(nd),
            i_incl: device.alloc(n),
            i_idxs: device.alloc(n),
            i_sizes: device.alloc(n),
            i_ends: device.alloc(n),
            i_ends2: device.alloc(n),
            i_points: device.alloc(n),
            point_slot: device.alloc(n),
            point_cell: device.alloc(n),
            cell_fill: device.alloc(n),
            // lane-padded to a LANES multiple; the padding is
            // zero-initialized and never written
            sin_sums: device.alloc(lane_pad(nd)),
            cos_sums: device.alloc(lane_pad(nd)),
            // lane-blocked slot-major tables, sized like the host grid's
            // lane tables (`lane_pad(n)` slots × dim)
            lane_sin: device.alloc(lane_pad(n) * geometry.dim),
            lane_cos: device.alloc(lane_pad(n) * geometry.dim),
            lane_coords: device.alloc(lane_pad(n) * geometry.dim),
            c_bounds: device.alloc(2 * nd),
            pre_list: device.alloc(m.max(1)),
            pre_index: device.alloc(m),
            pre_sizes: device.alloc(m.max(1)),
            pre_ends: device.alloc(m.max(1)),
            pre_cells: device.alloc(1),
            point_keys: device.alloc(nd),
            pre_empty: device.alloc(m),
            chg_flag: device.alloc(1),
            scan_scratch: primitives::ScanScratch::new(device, n.max(m)),
            compact_pos: device.alloc(m.max(1)),
            state_valid: false,
            last_num_inner: 0,
            last_pre_count: 0,
        }
    }

    /// Total bytes of the workspace's device buffers (Fig. 3h accounting).
    pub fn bytes(&self) -> usize {
        [
            self.o_sizes.len(),
            self.o_ends.len(),
            self.o_ends2.len(),
            self.o_fill.len(),
            self.i_ids.len(),
            self.i_ids2.len(),
            self.i_incl.len(),
            self.i_idxs.len(),
            self.i_sizes.len(),
            self.i_ends.len(),
            self.i_ends2.len(),
            self.i_points.len(),
            self.point_slot.len(),
            self.point_cell.len(),
            self.cell_fill.len(),
            self.sin_sums.len(),
            self.cos_sums.len(),
            self.lane_sin.len(),
            self.lane_cos.len(),
            self.lane_coords.len(),
            self.c_bounds.len(),
            self.pre_list.len(),
            self.pre_index.len(),
            self.pre_sizes.len(),
            self.pre_ends.len(),
            self.pre_cells.len(),
            self.point_keys.len(),
            self.pre_empty.len(),
            self.chg_flag.len(),
            self.scan_scratch.words(),
            self.compact_pos.len(),
        ]
        .iter()
        .sum::<usize>()
            * 8
    }

    /// Does nothing; stays only because `perfbench/src/traced.rs` calls it.
    #[doc(hidden)]
    pub fn set_fused(&mut self, _fused: bool) {}

    /// Run Algorithm 2 over `coords` (`n × dim`, device-resident), then
    /// write the lane tables, the per-cell sin/cos summaries and the cell
    /// MBRs. Returns handle views.
    pub fn construct(&mut self, coords: &DeviceBuffer<f64>) -> DeviceGrid {
        let geo = self.geometry;
        let dim = geo.dim;
        let n = self.n;
        let m = geo.outer_cells;
        let dev = self.device.clone();
        debug_assert_eq!(coords.len(), n * dim);

        // -- 1: count points per outer cell ------------------------------
        primitives::fill(&dev, &self.o_sizes, 0u64);
        {
            let o_sizes = &self.o_sizes;
            dev.launch("grid_count_outer", grid_for(n, BLOCK), BLOCK, |t| {
                let p = t.global_id();
                if p >= n {
                    return;
                }
                let mut point = [0.0f64; MAX_DIM];
                for i in 0..dim {
                    point[i] = coords.load(p * dim + i);
                }
                o_sizes.atomic_inc(geo.outer_id_of_point(&point[..dim]));
            });
        }

        // -- 2: outer end offsets ----------------------------------------
        self.scan_scratch.scan(&dev, &self.o_sizes, &self.o_ends, m);

        // -- 3: scatter cell ids into outer buckets (with duplicates) ----
        primitives::fill(&dev, &self.o_fill, 0u64);
        {
            let (o_ends, o_fill, i_ids) = (&self.o_ends, &self.o_fill, &self.i_ids);
            dev.launch("grid_scatter_ids", grid_for(n, BLOCK), BLOCK, |t| {
                let p = t.global_id();
                if p >= n {
                    return;
                }
                let mut point = [0.0f64; MAX_DIM];
                for i in 0..dim {
                    point[i] = coords.load(p * dim + i);
                }
                let oid = geo.outer_id_of_point(&point[..dim]);
                let slot = seg_start(o_ends, oid) + o_fill.atomic_inc(oid);
                let slot = slot as usize;
                for i in 0..dim {
                    i_ids.store(slot * dim + i, geo.cell_coord(point[i]));
                }
            });
        }

        // -- 4: mark first occurrences, count cell sizes ------------------
        primitives::fill(&dev, &self.i_incl, 0u64);
        primitives::fill(&dev, &self.i_sizes, 0u64);
        {
            let (o_ends, i_ids, i_incl, i_sizes, point_slot) = (
                &self.o_ends,
                &self.i_ids,
                &self.i_incl,
                &self.i_sizes,
                &self.point_slot,
            );
            dev.launch("grid_mark_first", grid_for(n, BLOCK), BLOCK, |t| {
                let p = t.global_id();
                if p >= n {
                    return;
                }
                let mut point = [0.0f64; MAX_DIM];
                let mut mine = [0u64; MAX_DIM];
                for i in 0..dim {
                    point[i] = coords.load(p * dim + i);
                    mine[i] = geo.cell_coord(point[i]);
                }
                let oid = geo.outer_id_of_point(&point[..dim]);
                let seg_lo = seg_start(o_ends, oid) as usize;
                let seg_hi = o_ends.load(oid) as usize;
                let mut first = usize::MAX;
                'slots: for slot in seg_lo..seg_hi {
                    for i in 0..dim {
                        if i_ids.load(slot * dim + i) != mine[i] {
                            continue 'slots;
                        }
                    }
                    first = slot;
                    break;
                }
                debug_assert_ne!(first, usize::MAX, "own cell id must be present");
                i_incl.store(first, 1);
                i_sizes.atomic_inc(first);
                point_slot.store(p, first as u64);
            });
        }

        // -- 5 & 6: compaction indices and point end offsets --------------
        self.scan_scratch.scan(&dev, &self.i_incl, &self.i_idxs, n);
        self.scan_scratch.scan(&dev, &self.i_sizes, &self.i_ends, n);
        let num_inner = if n == 0 {
            0
        } else {
            self.i_idxs.load(n - 1) as usize
        };

        // -- 7: populate cells with points, record compacted cell ---------
        primitives::fill(&dev, &self.cell_fill, 0u64);
        {
            let (i_ends, i_idxs, i_points, point_slot, point_cell, cell_fill) = (
                &self.i_ends,
                &self.i_idxs,
                &self.i_points,
                &self.point_slot,
                &self.point_cell,
                &self.cell_fill,
            );
            dev.launch("grid_populate", grid_for(n, BLOCK), BLOCK, |t| {
                let p = t.global_id();
                if p >= n {
                    return;
                }
                let slot = point_slot.load(p) as usize;
                let pos = seg_start(i_ends, slot) + cell_fill.atomic_inc(slot);
                i_points.store(pos as usize, p as u64);
                point_cell.store(p, i_idxs.load(slot) - 1);
            });
        }

        // -- 8: repack ids and ends into the compacted layout -------------
        {
            let (i_incl, i_idxs, i_ids, i_ids2, i_ends, i_ends2) = (
                &self.i_incl,
                &self.i_idxs,
                &self.i_ids,
                &self.i_ids2,
                &self.i_ends,
                &self.i_ends2,
            );
            dev.launch("grid_repack", grid_for(n, BLOCK), BLOCK, |t| {
                let slot = t.global_id();
                if slot >= n || i_incl.load(slot) == 0 {
                    return;
                }
                let c = (i_idxs.load(slot) - 1) as usize;
                i_ends2.store(c, i_ends.load(slot));
                for i in 0..dim {
                    i_ids2.store(c * dim + i, i_ids.load(slot * dim + i));
                }
            });
        }

        // -- 9: outer ends against the compacted cell array ---------------
        {
            let (o_ends, o_ends2, i_idxs) = (&self.o_ends, &self.o_ends2, &self.i_idxs);
            dev.launch("grid_outer_ends", grid_for(m, BLOCK), BLOCK, |t| {
                let oid = t.global_id();
                if oid >= m {
                    return;
                }
                let e = o_ends.load(oid) as usize;
                let compacted = if e == 0 { 0 } else { i_idxs.load(e - 1) };
                o_ends2.store(oid, compacted);
            });
        }

        // -- 10: swap into place ------------------------------------------
        std::mem::swap(&mut self.i_ids, &mut self.i_ids2);
        std::mem::swap(&mut self.i_ends, &mut self.i_ends2);
        std::mem::swap(&mut self.o_ends, &mut self.o_ends2);

        self.write_tables(coords, num_inner, None);
        self.last_num_inner = num_inner;
        self.current_grid()
    }

    /// Write the lane tables, the Σsin/Σcos summaries and the cell MBRs
    /// of the current layout's `num_inner` cells from `coords`: one thread
    /// per cell walks its slots once, writing their lane rows, the cell's
    /// summaries and its MBR with no f64 atomic.
    ///
    /// Without `moved` (a construct) every cell and every lane row is
    /// written. With `moved` (an in-place refresh, in which no mover left
    /// its cell) only the cells flagged in `cell_fill` are, each counted
    /// into `chg_flag`: movers' lane rows are recomputed and stayers' read
    /// back. Each cell sums its slots in slot order, which on one
    /// simulator thread is ascending point id (`grid_populate` claims
    /// slots in thread order), so either caller writes the bits of a fresh
    /// construct.
    fn write_tables(
        &self,
        coords: &DeviceBuffer<f64>,
        num_inner: usize,
        moved: Option<&DeviceBuffer<u64>>,
    ) {
        let dim = self.geometry.dim;
        let (i_ends, i_points, cell_fill, chg_flag) = (
            &self.i_ends,
            &self.i_points,
            &self.cell_fill,
            &self.chg_flag,
        );
        let (sin_sums, cos_sums, c_bounds) = (&self.sin_sums, &self.cos_sums, &self.c_bounds);
        let (lane_sin, lane_cos, lane_coords) = (&self.lane_sin, &self.lane_cos, &self.lane_coords);
        self.device.launch(
            "fused_cell_tables",
            grid_for(num_inner, BLOCK),
            BLOCK,
            |t| {
                let c = t.global_id();
                // an in-place refresh rewrites only the cells holding a mover
                if c >= num_inner || moved.is_some() && cell_fill.load(c) != 1 {
                    return;
                }
                if moved.is_some() {
                    chg_flag.atomic_add(0, 1);
                }
                let lo = seg_start(i_ends, c) as usize;
                let hi = i_ends.load(c) as usize;
                let mut acc_sin = [0.0f64; MAX_DIM];
                let mut acc_cos = [0.0f64; MAX_DIM];
                let mut b_lo = [f64::INFINITY; MAX_DIM];
                let mut b_hi = [f64::NEG_INFINITY; MAX_DIM];
                for s in lo..hi {
                    let p = i_points.load(s) as usize;
                    let fresh = moved.is_none_or(|m| m.load(p) == 1);
                    for i in 0..dim {
                        let at = LaneTables::at(s, dim, i);
                        // the grid's only sin/cos calls
                        let (x, sn, cs) = if fresh {
                            let x = coords.load(p * dim + i);
                            let (sn, cs) = (x.sin(), x.cos());
                            lane_sin.store_coalesced(at, sn);
                            lane_cos.store_coalesced(at, cs);
                            lane_coords.store_coalesced(at, x);
                            (x, sn, cs)
                        } else {
                            (
                                lane_coords.load_coalesced(at),
                                lane_sin.load_coalesced(at),
                                lane_cos.load_coalesced(at),
                            )
                        };
                        acc_sin[i] += sn;
                        acc_cos[i] += cs;
                        b_lo[i] = b_lo[i].min(x);
                        b_hi[i] = b_hi[i].max(x);
                    }
                }
                for i in 0..dim {
                    sin_sums.store(c * dim + i, acc_sin[i]);
                    cos_sums.store(c * dim + i, acc_cos[i]);
                    c_bounds.store(c * 2 * dim + i, b_lo[i]);
                    c_bounds.store(c * 2 * dim + dim + i, b_hi[i]);
                }
            },
        );
    }

    /// Precompute the non-empty surrounding outer cells of every non-empty
    /// outer cell (§4.2.5). All buffers are owned by the workspace: the
    /// `m`-sized arrays are pre-allocated, and the concatenated-list buffer
    /// grows geometrically and is kept, so in steady state (the occupied
    /// outer cells settling as points converge) this re-allocates nothing.
    pub fn build_pregrid(&mut self, grid: &DeviceGrid) -> PreGrid {
        let geo = self.geometry;
        let m = geo.outer_cells;
        let dev = self.device.clone();

        // flags → compacted list of non-empty outer cells
        let flags = &self.o_fill;
        {
            let o_sizes = &grid.o_sizes;
            dev.launch("pregrid_flags", grid_for(m, BLOCK), BLOCK, |t| {
                let oid = t.global_id();
                if oid < m {
                    flags.store(oid, u64::from(o_sizes.load(oid) > 0));
                }
            });
        }
        let list = &self.pre_list;
        let count = primitives::compact_indices_with(
            &dev,
            flags,
            list,
            m,
            &self.compact_pos,
            &self.scan_scratch,
        );

        // dense id → list index
        let index_of = &self.pre_index;
        primitives::fill(&dev, index_of, u64::MAX);
        {
            dev.launch("pregrid_index", grid_for(count, BLOCK), BLOCK, |t| {
                let k = t.global_id();
                if k < count {
                    index_of.store(list.load(k) as usize, k as u64);
                }
            });
        }

        // count non-empty surrounding cells per non-empty cell
        let sizes = &self.pre_sizes;
        {
            let (list, sizes, o_sizes) = (list, sizes, &grid.o_sizes);
            dev.launch("pregrid_count", grid_for(count, BLOCK), BLOCK, |t| {
                let k = t.global_id();
                if k >= count {
                    return;
                }
                let oid = list.load(k) as usize;
                let mut cnt = 0u64;
                geo.for_each_surrounding_outer(oid, |sid| {
                    if o_sizes.load(sid) > 0 {
                        cnt += 1;
                    }
                });
                sizes.store(k, cnt);
            });
        }
        let ends = &self.pre_ends;
        self.scan_scratch.scan(&dev, sizes, ends, count);
        let total = if count == 0 {
            0
        } else {
            ends.load(count - 1) as usize
        };

        // populate the concatenated surrounding lists, growing the kept
        // buffer geometrically when the occupied volume expands
        if self.pre_cells.len() < total {
            self.pre_cells = dev.alloc::<u64>(total.next_power_of_two());
        }
        {
            let (list, cells, o_sizes) = (&self.pre_list, &self.pre_cells, &grid.o_sizes);
            let ends = &self.pre_ends;
            dev.launch("pregrid_fill", grid_for(count, BLOCK), BLOCK, |t| {
                let k = t.global_id();
                if k >= count {
                    return;
                }
                let oid = list.load(k) as usize;
                let mut cursor = seg_start(ends, k) as usize;
                geo.for_each_surrounding_outer(oid, |sid| {
                    if o_sizes.load(sid) > 0 {
                        cells.store(cursor, sid as u64);
                        cursor += 1;
                    }
                });
            });
        }

        PreGrid {
            index_of: self.pre_index.clone(),
            ends: self.pre_ends.clone(),
            cells: self.pre_cells.clone(),
            count,
        }
    }

    /// Record every point's current cell coordinates into `point_keys` —
    /// the change detector consulted by the next `refresh`.
    fn snapshot_keys(&self, coords: &DeviceBuffer<f64>) {
        let geo = self.geometry;
        let dim = geo.dim;
        let n = self.n;
        let point_keys = &self.point_keys;
        self.device
            .launch("grid_snapshot_keys", grid_for(n, BLOCK), BLOCK, |t| {
                let p = t.global_id();
                if p >= n {
                    return;
                }
                for i in 0..dim {
                    point_keys.store(p * dim + i, geo.cell_coord(coords.load(p * dim + i)));
                }
            });
    }

    /// Record the outer-cell emptiness pattern the current preGrid was
    /// built from.
    fn snapshot_emptiness(&self) {
        let m = self.geometry.outer_cells;
        let (o_sizes, pre_empty) = (&self.o_sizes, &self.pre_empty);
        self.device
            .launch("grid_snapshot_empty", grid_for(m, BLOCK), BLOCK, |t| {
                let oid = t.global_id();
                if oid < m {
                    pre_empty.store(oid, u64::from(o_sizes.load(oid) > 0));
                }
            });
    }

    /// Hand out views of the buffers as last written, without running any
    /// kernel.
    fn current_grid(&self) -> DeviceGrid {
        DeviceGrid {
            geometry: self.geometry,
            o_sizes: self.o_sizes.clone(),
            o_ends: self.o_ends.clone(),
            i_ids: self.i_ids.clone(),
            i_ends: self.i_ends.clone(),
            i_points: self.i_points.clone(),
            point_cell: self.point_cell.clone(),
            sin_sums: self.sin_sums.clone(),
            cos_sums: self.cos_sums.clone(),
            c_bounds: self.c_bounds.clone(),
            lanes: LaneTables {
                sin: self.lane_sin.clone(),
                cos: self.lane_cos.clone(),
                coords: self.lane_coords.clone(),
            },
            num_inner: self.last_num_inner,
        }
    }

    /// The preGrid as last built, re-wrapped without running any kernel.
    fn current_pregrid(&self) -> PreGrid {
        PreGrid {
            index_of: self.pre_index.clone(),
            ends: self.pre_ends.clone(),
            cells: self.pre_cells.clone(),
            count: self.last_pre_count,
        }
    }

    /// Construct from scratch and snapshot the incremental state.
    fn full_refresh(&mut self, coords: &DeviceBuffer<f64>) -> (DeviceGrid, PreGrid) {
        let grid = self.construct(coords);
        self.snapshot_keys(coords);
        let pre = self.build_pregrid(&grid);
        self.snapshot_emptiness();
        self.last_pre_count = pre.count;
        self.state_valid = true;
        (grid, pre)
    }

    /// Bring the grid up to date with `coords`, doing as little work as the
    /// movement pattern allows (§4.2 structures, maintained incrementally).
    ///
    /// `moved` is a per-point flag buffer (1 = position changed since the
    /// last refresh). With `None` — or on the first call — this degrades to
    /// a full [`construct`](Self::construct) + preGrid build.
    ///
    /// When no mover crossed a cell boundary, the CSR layout, grid-sorted
    /// order and preGrid are reused as-is, and the tables writer that
    /// `construct` calls rewrites only the cells containing movers: the
    /// movers' lane rows, and each such cell's summaries and MBR from its
    /// full membership in slot order. So results are bitwise identical to
    /// a fresh construct under a single-threaded simulator. When a mover does cross a boundary the layout is rebuilt
    /// by `construct`, but the preGrid is still reused unless some outer
    /// cell's emptiness flipped (it depends on nothing else).
    pub fn refresh(
        &mut self,
        coords: &DeviceBuffer<f64>,
        moved: Option<&DeviceBuffer<u64>>,
    ) -> (DeviceGrid, PreGrid, DeviceRefreshStats) {
        let geo = self.geometry;
        let dim = geo.dim;
        let n = self.n;
        let m = geo.outer_cells;
        let dev = self.device.clone();

        let moved = match moved {
            Some(f) if self.state_valid => f,
            _ => {
                let (grid, pre) = self.full_refresh(coords);
                let stats = DeviceRefreshStats {
                    dirty_cells: grid.num_inner as u64,
                    layout_rebuilt: true,
                    pregrid_rebuilt: true,
                };
                return (grid, pre, stats);
            }
        };

        // -- did any mover cross a cell boundary? ------------------------
        self.chg_flag.store(0, 0);
        {
            let (point_keys, chg_flag) = (&self.point_keys, &self.chg_flag);
            dev.launch("grid_detect_changers", grid_for(n, BLOCK), BLOCK, |t| {
                let p = t.global_id();
                if p >= n || moved.load(p) == 0 {
                    return;
                }
                for i in 0..dim {
                    if geo.cell_coord(coords.load(p * dim + i)) != point_keys.load(p * dim + i) {
                        chg_flag.store(0, 1);
                        return;
                    }
                }
            });
        }

        if self.chg_flag.load(0) != 0 {
            // -- layout rebuild; the preGrid survives unless the outer
            // emptiness pattern flipped somewhere -------------------------
            let grid = self.construct(coords);
            self.snapshot_keys(coords);
            self.chg_flag.store(0, 0);
            {
                let (o_sizes, pre_empty, chg_flag) =
                    (&self.o_sizes, &self.pre_empty, &self.chg_flag);
                dev.launch("grid_detect_empty_flip", grid_for(m, BLOCK), BLOCK, |t| {
                    let oid = t.global_id();
                    if oid < m && u64::from(o_sizes.load(oid) > 0) != pre_empty.load(oid) {
                        chg_flag.store(0, 1);
                    }
                });
            }
            let pregrid_rebuilt = self.chg_flag.load(0) != 0;
            let pre = if pregrid_rebuilt {
                let pre = self.build_pregrid(&grid);
                self.snapshot_emptiness();
                self.last_pre_count = pre.count;
                pre
            } else {
                self.current_pregrid()
            };
            let stats = DeviceRefreshStats {
                dirty_cells: grid.num_inner as u64,
                layout_rebuilt: true,
                pregrid_rebuilt,
            };
            return (grid, pre, stats);
        }

        // -- in place: layout and preGrid reused as-is; rewrite the cells
        // containing a mover
        primitives::fill(&dev, &self.cell_fill, 0u64);
        {
            let (point_cell, cell_fill) = (&self.point_cell, &self.cell_fill);
            dev.launch("grid_mark_dirty", grid_for(n, BLOCK), BLOCK, |t| {
                let p = t.global_id();
                if p < n && moved.load(p) == 1 {
                    cell_fill.store(point_cell.load(p) as usize, 1);
                }
            });
        }

        self.chg_flag.store(0, 0);
        self.write_tables(coords, self.last_num_inner, Some(moved));

        // no mover crossed a boundary, so `point_keys` is already current
        let stats = DeviceRefreshStats {
            dirty_cells: self.chg_flag.load(0),
            layout_rebuilt: false,
            pregrid_rebuilt: false,
        };
        (self.current_grid(), self.current_pregrid(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::super::geometry::GridVariant;
    use super::super::host::HostGrid;
    use super::*;
    use egg_gpu_sim::DeviceConfig;
    use egg_spatial::distance::row;

    fn cloud(n: usize, dim: usize) -> Vec<f64> {
        (0..n * dim)
            .map(|i| ((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 1000.0)
            .collect()
    }

    fn build(
        coords: &[f64],
        dim: usize,
        eps: f64,
        variant: GridVariant,
    ) -> (Device, DeviceGrid, GridWorkspace) {
        let n = coords.len() / dim;
        let device = Device::new(DeviceConfig::default());
        let geo = GridGeometry::new(dim, eps, n, variant);
        let mut ws = GridWorkspace::new(&device, geo, n);
        let buf = device.alloc_from_slice(coords);
        let grid = ws.construct(&buf);
        (device, grid, ws)
    }

    fn check_against_host(coords: &[f64], dim: usize, eps: f64, variant: GridVariant) {
        let n = coords.len() / dim;
        let (_, grid, _ws) = build(coords, dim, eps, variant);
        let geo = grid.geometry;
        let host = HostGrid::build(&geo, coords);

        // same number of non-empty cells
        assert_eq!(
            grid.num_inner,
            host.num_cells(),
            "cell count mismatch ({variant:?})"
        );

        // every point's device cell holds exactly the host cell's members
        let point_cell = grid.point_cell.to_vec();
        let i_points = grid.i_points.to_vec();
        let i_ends = grid.i_ends.to_vec();
        for p in 0..n {
            let c = point_cell[p] as usize;
            let lo = if c == 0 { 0 } else { i_ends[c - 1] as usize };
            let hi = i_ends[c] as usize;
            let mut dev_members: Vec<u32> = i_points[lo..hi].iter().map(|&x| x as u32).collect();
            dev_members.sort_unstable();
            let mut host_members = host.cell_of(row(coords, dim, p)).to_vec();
            host_members.sort_unstable();
            assert_eq!(
                dev_members, host_members,
                "cell members differ for point {p}"
            );
        }

        // summaries equal the direct per-cell sums
        let sin_sums = grid.sin_sums.to_vec();
        let cos_sums = grid.cos_sums.to_vec();
        for (cell_coords, members) in host.iter_cells() {
            // find the compacted index through any member
            let c = point_cell[members[0] as usize] as usize;
            for i in 0..dim {
                let expect_sin: f64 = members
                    .iter()
                    .map(|&q| coords[q as usize * dim + i].sin())
                    .sum();
                let expect_cos: f64 = members
                    .iter()
                    .map(|&q| coords[q as usize * dim + i].cos())
                    .sum();
                assert!(
                    (sin_sums[c * dim + i] - expect_sin).abs() < 1e-9,
                    "sin summary mismatch in cell {cell_coords:?}"
                );
                assert!(
                    (cos_sums[c * dim + i] - expect_cos).abs() < 1e-9,
                    "cos summary mismatch in cell {cell_coords:?}"
                );
            }
        }
    }

    #[test]
    fn construction_matches_host_grid_auto() {
        check_against_host(&cloud(300, 2), 2, 0.07, GridVariant::Auto);
    }

    #[test]
    fn construction_matches_host_grid_sequential() {
        check_against_host(&cloud(150, 2), 2, 0.07, GridVariant::Sequential);
    }

    #[test]
    fn construction_matches_host_grid_random_access() {
        check_against_host(&cloud(200, 2), 2, 0.1, GridVariant::RandomAccess);
    }

    #[test]
    fn construction_matches_host_grid_higher_dim() {
        check_against_host(&cloud(200, 5), 5, 0.3, GridVariant::Auto);
    }

    #[test]
    fn i_points_is_a_permutation() {
        let coords = cloud(500, 3);
        let (_, grid, _ws) = build(&coords, 3, 0.2, GridVariant::Auto);
        let mut pts = grid.i_points.to_vec();
        pts.sort_unstable();
        assert_eq!(pts, (0..500u64).collect::<Vec<_>>());
    }

    #[test]
    fn reconstruction_after_movement_is_consistent() {
        let mut coords = cloud(200, 2);
        let device = Device::new(DeviceConfig::default());
        let geo = GridGeometry::new(2, 0.05, 100, GridVariant::Auto);
        let mut ws = GridWorkspace::new(&device, geo, 100);
        let buf = device.alloc_from_slice(&coords[..200]);
        let g1 = ws.construct(&buf);
        let n1 = g1.num_inner;
        assert!(n1 > 0);
        // move the points and rebuild with the same workspace
        for c in coords.iter_mut() {
            *c = (*c * 0.5) + 0.25;
        }
        buf.copy_from_slice(&coords[..200]);
        let g2 = ws.construct(&buf);
        let host = HostGrid::build(&geo, &coords[..200]);
        assert_eq!(g2.num_inner, host.num_cells());
    }

    #[test]
    fn pregrid_lists_nonempty_surroundings_exactly() {
        let coords = cloud(250, 2);
        let (_, grid, mut ws) = build(&coords, 2, 0.08, GridVariant::Auto);
        let geo = grid.geometry;
        let pre = ws.build_pregrid(&grid);
        let o_sizes = grid.o_sizes.to_vec();
        let index_of = pre.index_of.to_vec();
        let ends = pre.ends.to_vec();
        let cells = pre.cells.to_vec();

        let nonempty: Vec<usize> = (0..geo.outer_cells).filter(|&o| o_sizes[o] > 0).collect();
        assert_eq!(pre.count, nonempty.len());
        for &oid in &nonempty {
            let k = index_of[oid] as usize;
            assert_ne!(k, u64::MAX as usize);
            let lo = if k == 0 { 0 } else { ends[k - 1] as usize };
            let hi = ends[k] as usize;
            let mut got: Vec<usize> = cells[lo..hi].iter().map(|&x| x as usize).collect();
            got.sort_unstable();
            let mut expected = Vec::new();
            geo.for_each_surrounding_outer(oid, |sid| {
                if o_sizes[sid] > 0 {
                    expected.push(sid);
                }
            });
            expected.sort_unstable();
            assert_eq!(got, expected, "surroundings of outer cell {oid}");
        }
        // empty cells are unindexed
        for o in 0..geo.outer_cells {
            if o_sizes[o] == 0 {
                assert_eq!(index_of[o], u64::MAX);
            }
        }
    }

    #[test]
    fn empty_input_constructs_empty_grid() {
        let device = Device::new(DeviceConfig::default());
        let geo = GridGeometry::new(2, 0.05, 0, GridVariant::Auto);
        let mut ws = GridWorkspace::new(&device, geo, 0);
        let buf = device.alloc::<f64>(0);
        let grid = ws.construct(&buf);
        assert_eq!(grid.num_inner, 0);
    }

    /// Single-threaded simulator: f64 atomic accumulation is sequential,
    /// so refresh-vs-construct equality can be asserted bitwise.
    fn single_threaded() -> DeviceConfig {
        DeviceConfig {
            host_threads: Some(1),
            ..DeviceConfig::default()
        }
    }

    fn bits(v: Vec<f64>) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Assert two grids hold the same point order and bitwise the same
    /// summaries, MBRs and lane tables.
    fn assert_same_tables(tag: &str, dim: usize, a: &DeviceGrid, b: &DeviceGrid) {
        let ni = b.num_inner;
        assert_eq!(a.num_inner, ni, "{tag}: cell count");
        assert_eq!(a.i_points.to_vec(), b.i_points.to_vec(), "{tag}: order");
        assert_eq!(
            bits(a.sin_sums.to_vec())[..ni * dim],
            bits(b.sin_sums.to_vec())[..ni * dim],
            "{tag}: sin summaries"
        );
        assert_eq!(
            bits(a.cos_sums.to_vec())[..ni * dim],
            bits(b.cos_sums.to_vec())[..ni * dim],
            "{tag}: cos summaries"
        );
        assert_eq!(
            bits(a.c_bounds.to_vec())[..ni * 2 * dim],
            bits(b.c_bounds.to_vec())[..ni * 2 * dim],
            "{tag}: cell bounds"
        );
        assert_eq!(
            bits(a.lanes.sin.to_vec()),
            bits(b.lanes.sin.to_vec()),
            "{tag}: lane sin"
        );
        assert_eq!(
            bits(a.lanes.cos.to_vec()),
            bits(b.lanes.cos.to_vec()),
            "{tag}: lane cos"
        );
        assert_eq!(
            bits(a.lanes.coords.to_vec()),
            bits(b.lanes.coords.to_vec()),
            "{tag}: lane coords"
        );
    }

    /// Assert a refreshed grid + preGrid is bitwise identical to a fresh
    /// construct + preGrid build on the same coordinates.
    fn assert_refresh_equals_fresh(
        tag: &str,
        geo: GridGeometry,
        coords: &[f64],
        grid: &DeviceGrid,
        pre: &PreGrid,
    ) {
        let dim = geo.dim;
        let n = coords.len() / dim;
        let device = Device::new(single_threaded());
        let mut ws = GridWorkspace::new(&device, geo, n);
        let buf = device.alloc_from_slice(coords);
        let fresh = ws.construct(&buf);
        let fresh_pre = ws.build_pregrid(&fresh);

        assert_same_tables(tag, dim, grid, &fresh);
        let ni = fresh.num_inner;
        assert_eq!(
            grid.i_ids.to_vec()[..ni * dim],
            fresh.i_ids.to_vec()[..ni * dim],
            "{tag}: cell ids"
        );
        assert_eq!(
            grid.i_ends.to_vec()[..ni],
            fresh.i_ends.to_vec()[..ni],
            "{tag}: cell ends"
        );
        assert_eq!(
            grid.point_cell.to_vec(),
            fresh.point_cell.to_vec(),
            "{tag}: point cells"
        );
        assert_eq!(
            grid.o_sizes.to_vec(),
            fresh.o_sizes.to_vec(),
            "{tag}: outer sizes"
        );
        assert_eq!(
            grid.o_ends.to_vec(),
            fresh.o_ends.to_vec(),
            "{tag}: outer ends"
        );

        assert_eq!(pre.count, fresh_pre.count, "{tag}: preGrid count");
        assert_eq!(
            pre.index_of.to_vec(),
            fresh_pre.index_of.to_vec(),
            "{tag}: preGrid index"
        );
        let ends = pre.ends.to_vec();
        let fresh_ends = fresh_pre.ends.to_vec();
        assert_eq!(
            ends[..pre.count],
            fresh_ends[..pre.count],
            "{tag}: preGrid ends"
        );
        let total = if pre.count == 0 {
            0
        } else {
            ends[pre.count - 1] as usize
        };
        assert_eq!(
            pre.cells.to_vec()[..total],
            fresh_pre.cells.to_vec()[..total],
            "{tag}: preGrid lists"
        );
    }

    /// Move about a quarter of the points (chosen by `round`) by `step`
    /// per coordinate, wrapping into [0, 1). With `stay_in_cell`, a move
    /// that would cross a cell boundary is reverted, so the refresh stays
    /// in place. Returns the movers' flags.
    fn nudge(
        geo: &GridGeometry,
        coords: &mut [f64],
        round: u64,
        step: f64,
        stay_in_cell: bool,
    ) -> Vec<u64> {
        let dim = geo.dim;
        let n = coords.len() / dim;
        let mut moved = vec![0u64; n];
        for p in 0..n {
            let h = (p as u64 ^ round.wrapping_mul(0x9e3779b97f4a7c15)).wrapping_mul(2654435761);
            if !h.is_multiple_of(4) {
                continue;
            }
            let old: Vec<f64> = coords[p * dim..(p + 1) * dim].to_vec();
            let mut crossed = false;
            for i in 0..dim {
                let x = &mut coords[p * dim + i];
                let next = (*x + step).fract();
                crossed |= geo.cell_coord(next) != geo.cell_coord(*x);
                *x = next;
            }
            if crossed && stay_in_cell {
                coords[p * dim..(p + 1) * dim].copy_from_slice(&old);
            } else {
                moved[p] = 1;
            }
        }
        moved
    }

    #[test]
    fn refresh_fast_path_is_bitwise_identical_to_construct() {
        let (n, dim, eps) = (300, 2, 0.07);
        let mut coords = cloud(n, dim);
        let device = Device::new(single_threaded());
        let geo = GridGeometry::new(dim, eps, n, GridVariant::Auto);
        let mut ws = GridWorkspace::new(&device, geo, n);
        let buf = device.alloc_from_slice(&coords);
        let moved_buf = device.alloc::<u64>(n);
        let (_, _, stats) = ws.refresh(&buf, None);
        assert!(stats.layout_rebuilt && stats.pregrid_rebuilt);

        for round in 0..4u64 {
            // nudge a quarter of the points, none across a cell boundary,
            // so the fast path must engage
            let moved = nudge(&geo, &mut coords, round, 2e-4, true);
            buf.copy_from_slice(&coords);
            moved_buf.copy_from_slice(&moved);
            let (grid, pre, stats) = ws.refresh(&buf, Some(&moved_buf));
            assert!(!stats.layout_rebuilt, "round {round}: fast path expected");
            assert!(!stats.pregrid_rebuilt, "round {round}");
            if moved.contains(&1) {
                assert!(stats.dirty_cells > 0, "round {round}");
            }
            assert!(stats.dirty_cells <= grid.num_inner as u64, "round {round}");
            assert_refresh_equals_fresh(&format!("fast round {round}"), geo, &coords, &grid, &pre);
        }
    }

    /// The construct writes each slot's lanes as `sin`, `cos` and the
    /// coordinates of its own point, and leaves the pad lanes zero.
    #[test]
    fn construct_writes_each_slot_lanes_from_its_own_point() {
        for &(n, dim, eps, variant) in &[
            (300usize, 2usize, 0.07f64, GridVariant::Auto),
            (150, 2, 0.07, GridVariant::Sequential),
            (200, 2, 0.1, GridVariant::RandomAccess),
            (200, 5, 0.3, GridVariant::Auto),
            (150, 8, 0.5, GridVariant::Auto),
        ] {
            let coords = cloud(n, dim);
            let (_, grid, _ws) = build(&coords, dim, eps, variant);
            let tag = format!("n={n} dim={dim} {variant:?}");
            let i_points = grid.i_points.to_vec();
            let (ls, lc, lx) = (
                grid.lanes.sin.to_vec(),
                grid.lanes.cos.to_vec(),
                grid.lanes.coords.to_vec(),
            );
            for s in 0..n {
                let p = i_points[s] as usize;
                for i in 0..dim {
                    let at = LaneTables::at(s, dim, i);
                    let x = coords[p * dim + i];
                    assert_eq!(ls[at].to_bits(), x.sin().to_bits(), "{tag}: sin");
                    assert_eq!(lc[at].to_bits(), x.cos().to_bits(), "{tag}: cos");
                    assert_eq!(lx[at].to_bits(), x.to_bits(), "{tag}: coords");
                }
            }
            // padding lanes past n are never written and stay zero
            for s in n..lane_pad(n) {
                for i in 0..dim {
                    let at = LaneTables::at(s, dim, i);
                    assert_eq!([ls[at], lc[at], lx[at]], [0.0; 3], "{tag}: padding");
                }
            }
        }
    }

    /// Step one workspace through movement rounds that alternate the
    /// in-place refresh and the re-binning rebuild, and assert every round
    /// equals a fresh construct.
    #[test]
    fn alternating_in_place_and_rebinning_refreshes_match_construct() {
        let (n, dim, eps) = (240, 3, 0.12);
        let mut coords = cloud(n, dim);
        let device = Device::new(single_threaded());
        let geo = GridGeometry::new(dim, eps, n, GridVariant::Auto);
        let mut ws = GridWorkspace::new(&device, geo, n);
        let buf = device.alloc_from_slice(&coords);
        let moved_buf = device.alloc::<u64>(n);
        ws.refresh(&buf, None);

        for round in 0..6u64 {
            // odd rounds force a layout rebuild
            let big = round % 2 == 1;
            let step = if big { 0.13 } else { 2e-4 };
            let moved = nudge(&geo, &mut coords, round, step, !big);
            buf.copy_from_slice(&coords);
            moved_buf.copy_from_slice(&moved);
            let (grid, pre, stats) = ws.refresh(&buf, Some(&moved_buf));
            assert_eq!(stats.layout_rebuilt, big, "round {round}");
            assert_refresh_equals_fresh(&format!("round {round}"), geo, &coords, &grid, &pre);
        }
    }

    #[test]
    fn refresh_after_rebinning_is_bitwise_identical_to_construct() {
        let (n, dim, eps) = (250, 2, 0.08);
        let mut coords = cloud(n, dim);
        let device = Device::new(single_threaded());
        let geo = GridGeometry::new(dim, eps, n, GridVariant::Auto);
        let mut ws = GridWorkspace::new(&device, geo, n);
        let buf = device.alloc_from_slice(&coords);
        let moved_buf = device.alloc::<u64>(n);
        ws.refresh(&buf, None);

        for round in 0..4u64 {
            // large jumps: movers cross cell (and outer-cell) boundaries
            let mut moved = vec![0u64; n];
            for p in 0..n {
                let h =
                    (p as u64 ^ round.wrapping_mul(0x9e3779b97f4a7c15)).wrapping_mul(2654435761);
                if h.is_multiple_of(3) {
                    for i in 0..dim {
                        let x = &mut coords[p * dim + i];
                        *x = (*x + 0.13).fract();
                    }
                    moved[p] = 1;
                }
            }
            buf.copy_from_slice(&coords);
            moved_buf.copy_from_slice(&moved);
            let (grid, pre, stats) = ws.refresh(&buf, Some(&moved_buf));
            assert!(stats.layout_rebuilt, "round {round}: rebuild expected");
            assert_eq!(stats.dirty_cells, grid.num_inner as u64);
            assert_refresh_equals_fresh(&format!("rebin round {round}"), geo, &coords, &grid, &pre);
        }
    }
}
