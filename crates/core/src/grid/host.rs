//! Host-side grids.
//!
//! Two structures live here:
//!
//! * [`HostGrid`] — the reference implementation of the grid semantics:
//!   tests cross-check the simulated-GPU construction (Algorithm 2)
//!   against this, and the CPU oracle uses it for neighborhood queries.
//!   Deliberately simple — a `HashMap` from full-dimensional cell
//!   coordinates to point lists.
//! * [`CellGrid`] — the host execution engine's production grid:
//!   flattened CSR arrays plus the per-cell Σsin/Σcos summaries of
//!   §4.3.1, constructed in parallel on an [`Executor`] with a
//!   deterministic layout for any worker count.

use std::collections::HashMap;

use egg_spatial::distance::{row, within_sq};

use crate::algorithms::gpu_sync::MAX_DIM;
use crate::exec::{Executor, ScatterWriter, CELL_CHUNK, POINT_CHUNK};
#[cfg(target_arch = "x86_64")]
use crate::kernels::avx2_available;
use crate::kernels::{accumulate_row, lane_pad, F64x4, LANES};

use super::geometry::{max_sq_dist_to_box, min_sq_dist_to_box, GridGeometry, MAX_SURROUND_ENUM};

/// Host-side grid: full-dimensional cell coordinates → indices of the
/// points inside.
#[derive(Debug)]
pub struct HostGrid<'a> {
    geometry: &'a GridGeometry,
    coords: &'a [f64],
    cells: HashMap<Vec<u64>, Vec<u32>>,
}

impl<'a> HostGrid<'a> {
    /// Bucket every point of `coords` (row-major, `geometry.dim` columns).
    pub fn build(geometry: &'a GridGeometry, coords: &'a [f64]) -> Self {
        let dim = geometry.dim;
        let n = coords.len() / dim;
        let mut cells: HashMap<Vec<u64>, Vec<u32>> = HashMap::new();
        let mut key = vec![0u64; dim];
        for p_idx in 0..n {
            geometry.cell_coords_of(row(coords, dim, p_idx), &mut key);
            cells.entry(key.clone()).or_default().push(p_idx as u32);
        }
        Self {
            geometry,
            coords,
            cells,
        }
    }

    /// Number of non-empty cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// The points in the cell containing `p` (empty slice view if the cell
    /// is unoccupied, which cannot happen for `p` taken from the dataset).
    pub fn cell_of(&self, p: &[f64]) -> &[u32] {
        let mut key = vec![0u64; self.geometry.dim];
        self.geometry.cell_coords_of(p, &mut key);
        self.cells.get(&key).map_or(&[], Vec::as_slice)
    }

    /// Iterate over `(cell_coords, point_indices)` of every non-empty cell.
    pub fn iter_cells(&self) -> impl Iterator<Item = (&Vec<u64>, &Vec<u32>)> {
        self.cells.iter()
    }

    /// Indices of all points within the closed `radius`-ball around `p`,
    /// found by scanning the cells within the geometry's reach whose boxes
    /// intersect the ball. Allocates a fresh result `Vec` per call; hot
    /// loops should prefer [`HostGrid::ball_indices_into`].
    pub fn ball_indices(&self, p: &[f64], radius: f64) -> Vec<u32> {
        let mut out = Vec::new();
        self.ball_indices_into(p, radius, &mut out);
        out
    }

    /// Allocation-free edition of [`HostGrid::ball_indices`]: clear `out`
    /// and fill it with the indices of all points within the closed
    /// `radius`-ball around `p`. The per-dimension range cursors live on
    /// the stack and the cell lookup borrows the key slice, so a caller
    /// reusing `out` performs no heap allocation per query once `out`'s
    /// capacity has settled.
    pub fn ball_indices_into(&self, p: &[f64], radius: f64, out: &mut Vec<u32>) {
        out.clear();
        let dim = self.geometry.dim;
        debug_assert!(dim <= MAX_DIM);
        let radius_sq = radius * radius;
        // enumerate candidate cell coordinate ranges per dimension
        let (mut lo, mut hi) = ([0i64; MAX_DIM], [0i64; MAX_DIM]);
        for i in 0..dim {
            lo[i] = ((p[i] - radius) / self.geometry.cell_width).floor() as i64;
            hi[i] = ((p[i] + radius) / self.geometry.cell_width).floor() as i64;
        }
        let mut cursor = lo;
        let mut key = [0u64; MAX_DIM];
        loop {
            if cursor[..dim]
                .iter()
                .all(|&c| c >= 0 && c < self.geometry.width as i64)
            {
                for i in 0..dim {
                    key[i] = cursor[i] as u64;
                }
                // `Vec<u64>: Borrow<[u64]>` — the lookup borrows the key
                if let Some(points) = self.cells.get(&key[..dim]) {
                    for &q_idx in points {
                        // blocked early-exit predicate; exact, so the
                        // result set matches the full-distance scan
                        if within_sq(p, row(self.coords, dim, q_idx as usize), radius_sq) {
                            out.push(q_idx);
                        }
                    }
                }
            }
            // odometer increment
            let mut d = 0;
            loop {
                if d == dim {
                    return;
                }
                cursor[d] += 1;
                if cursor[d] <= hi[d] {
                    break;
                }
                cursor[d] = lo[d];
                d += 1;
            }
        }
    }
}

/// Flattened host grid with per-cell trigonometric summaries and a
/// per-point trig table — the host execution engine's counterpart of the
/// device grid (§4.2 + §4.3.1).
///
/// The structure is **rebuilt in place** every iteration via
/// [`CellGrid::rebuild`]: all arrays retain their capacity across
/// rebuilds, so the steady-state iteration loop performs no heap
/// allocations. Construction is parallel over an [`Executor`] yet
/// **deterministic for any worker count**: the per-point cell keys and
/// trig rows are computed independently, the grid-sorted point order is a
/// sequential in-place sort under the total order
/// `(outer id, cell coordinates, point index)`, and each cell's summary is
/// accumulated sequentially in point order.
#[derive(Debug)]
pub struct CellGrid {
    geometry: GridGeometry,
    /// Cell coordinates, `num_cells × dim`, in sorted cell order.
    cell_keys: Vec<u64>,
    /// CSR offsets into `cell_points`, length `num_cells + 1`.
    cell_starts: Vec<u32>,
    /// Point indices grouped by cell, ascending within each cell — the
    /// host edition of the device's grid-sorted `i_points` order (§4.2.6).
    cell_points: Vec<u32>,
    /// Compacted cell index of every point.
    point_cell: Vec<u32>,
    /// Per-cell `[Σsin_0.. Σsin_{d-1}, Σcos_0.. Σcos_{d-1}]`, rows padded
    /// to [`CellGrid::trig_stride`] with zeros so the accumulation runs in
    /// whole [`LANES`]-wide steps.
    trig_sums: Vec<f64>,
    /// `[sin_0.. sin_{d-1}, cos_0.. cos_{d-1}]` of the raw coordinates,
    /// **in grid-sorted slot order** (row `s` belongs to point
    /// `cell_points[s]`) — the iteration's trig table, shared by the
    /// summary construction and the update kernel's angle-addition fast
    /// path. Slot order makes both consumers stream it sequentially: a
    /// cell's rows are one contiguous block. Rows are padded to
    /// [`CellGrid::trig_stride`]; the pad elements are never written, so
    /// they stay zero from the initial sizing.
    point_trig: Vec<f64>,
    /// Lane-blocked sin table for the SIMD pair-term kernel: block `b`
    /// covers **lane indices** `4b..4b+4`, where slot `s` lives at lane
    /// index `lane_phase + s`, and `lane_sin[(b·dim + i)·4 + j]` is `sin`
    /// of dimension `i` of the point at lane index `4b + j` (zero in the
    /// `lane_phase` leading pad lanes and the padding lanes past the last
    /// point). A pure relayout of `point_trig`, refreshed by copy — never
    /// by recomputing transcendentals — so it is bitwise consistent with
    /// the trig table by construction.
    lane_sin: Vec<f64>,
    /// Lane-blocked cos table, same layout as `lane_sin`.
    lane_cos: Vec<f64>,
    /// Lane-blocked raw coordinates in grid-sorted slot order, same layout
    /// as `lane_sin` — the distance side of the SIMD kernels reads four
    /// neighbors contiguously instead of gathering through the order
    /// permutation.
    lane_coords: Vec<f64>,
    /// Leading pad lanes of the lane-blocked tables, in `0..LANES`. The
    /// lane index of grid-sorted slot `s` is `lane_phase + s`, so block
    /// boundaries fall where `lane_phase + s ≡ 0 (mod LANES)`. A sharded
    /// engine sets this to the shard's global slot base mod `LANES`
    /// ([`CellGrid::set_lane_phase`]), which makes the SIMD pair-term's
    /// lane grouping — and therefore its reduction order — identical to
    /// the single grid's for every cell. 0 for a standalone grid.
    lane_phase: usize,
    /// Per-cell point MBRs in lane blocks of four cells, the layout of
    /// `lane_sin` with cells for slots: block `b` holds cells `4b..4b+4`,
    /// `dim` lane rows of low corners then `dim` lane rows of high
    /// corners, so `cell_bounds[(b·2·dim + i)·4 + j]` is `lo_i` and
    /// `cell_bounds[(b·2·dim + dim + i)·4 + j]` is `hi_i` of cell
    /// `4b + j` (zero in the pad lanes past the last cell). Recomputed
    /// from the final CSR layout and raw coordinates after every
    /// rebuild/refresh — a pure function of both, so the table is
    /// identical whichever maintenance path produced the layout, and for
    /// any worker count. The update classifies cells against the ε-ball
    /// through these bounds (exact: points ⊆ MBR ⊆ cell box), four cells
    /// per step for a run's reach ([`ReachMemo`]), which keeps tightly
    /// clustered cells on the O(1) summary path even when their grid box
    /// straddles the ball.
    cell_bounds: Vec<f64>,
    /// `(outer id, lo, hi)` cell ranges in sorted cell order, ascending by
    /// outer id (binary-searched by [`CellGrid::for_each_cell_in_reach`]).
    outer_index: Vec<(u64, u32, u32)>,
    /// Scratch: per-point full-dimensional cell coordinates, `n × dim`.
    point_keys: Vec<u64>,
    /// Scratch: per-point dense outer id.
    point_outer: Vec<u64>,
    /// Grid-sorted slot of every point (the inverse of `cell_points`) —
    /// lets the incremental refresh relocate a stayer's trig row without
    /// recomputing its transcendentals.
    point_slot: Vec<u32>,
    /// Whether the arrays describe a previously built grid, making
    /// [`CellGrid::refresh`] eligible for the incremental path.
    has_state: bool,
    // --- incremental-refresh scratch, sized once and reused -------------
    /// Movers whose cell key changed, sorted by the grid total order.
    changers: Vec<u32>,
    /// Per point: did its cell key change this refresh?
    is_changer: Vec<bool>,
    /// Per (new) cell: must its summary be recomputed?
    cell_dirty: Vec<bool>,
    /// Per (new) clean cell: the old compacted cell id to copy sums from.
    clean_src: Vec<u32>,
    /// Double buffers swapped against the live arrays by the refresh.
    merge_scratch: Vec<u32>,
    starts_scratch: Vec<u32>,
    point_cell_scratch: Vec<u32>,
    point_slot_scratch: Vec<u32>,
    trig_scratch: Vec<f64>,
    sums_scratch: Vec<f64>,
}

/// What one [`CellGrid::refresh`] did — the grid-maintenance half of the
/// iteration's work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GridRefreshStats {
    /// Points whose position changed since the grid was last built.
    pub moved_points: u64,
    /// Movers whose cell key changed, i.e. points actually re-binned.
    pub rebinned_points: u64,
    /// Cells whose summaries/trig rows were recomputed (every cell on a
    /// full rebuild).
    pub dirty_cells: u64,
    /// Whether the refresh fell back to a full rebuild.
    pub full_rebuild: bool,
}

impl CellGrid {
    /// An empty grid under `geometry`, ready for [`CellGrid::rebuild`].
    pub fn new(geometry: GridGeometry) -> Self {
        Self {
            geometry,
            cell_keys: Vec::new(),
            cell_starts: Vec::new(),
            cell_points: Vec::new(),
            point_cell: Vec::new(),
            trig_sums: Vec::new(),
            point_trig: Vec::new(),
            lane_sin: Vec::new(),
            lane_cos: Vec::new(),
            lane_coords: Vec::new(),
            lane_phase: 0,
            cell_bounds: Vec::new(),
            outer_index: Vec::new(),
            point_keys: Vec::new(),
            point_outer: Vec::new(),
            point_slot: Vec::new(),
            has_state: false,
            changers: Vec::new(),
            is_changer: Vec::new(),
            cell_dirty: Vec::new(),
            clean_src: Vec::new(),
            merge_scratch: Vec::new(),
            starts_scratch: Vec::new(),
            point_cell_scratch: Vec::new(),
            point_slot_scratch: Vec::new(),
            trig_scratch: Vec::new(),
            sums_scratch: Vec::new(),
        }
    }

    /// Bucket every point of `coords` (row-major, `geometry.dim` columns)
    /// and compute the per-point trig table and per-cell summaries, fanning
    /// the per-point passes over `exec`'s workers. Convenience wrapper over
    /// [`CellGrid::new`] + [`CellGrid::rebuild`].
    pub fn build(exec: &Executor, geometry: GridGeometry, coords: &[f64]) -> Self {
        let mut grid = Self::new(geometry);
        grid.rebuild(exec, coords);
        grid
    }

    /// Rebuild the grid from the current `coords`, reusing every buffer.
    /// After the first call on a given problem size, subsequent rebuilds
    /// allocate nothing.
    pub fn rebuild(&mut self, exec: &Executor, coords: &[f64]) {
        let geometry = self.geometry;
        let dim = geometry.dim;
        debug_assert!(dim <= MAX_DIM);
        let n = coords.len() / dim;
        // every per-point array (CSR entries, slots, inversions) is u32
        assert!(
            u32::try_from(n).is_ok(),
            "CellGrid indexes points with u32: n = {n} exceeds u32::MAX"
        );

        // Pass 1 — per-point cell key and outer id, all independent,
        // scattered into pre-sized buffers.
        self.point_keys.resize(n * dim, 0);
        self.point_outer.resize(n, 0);
        {
            let keys = ScatterWriter::new(&mut self.point_keys);
            let outer = ScatterWriter::new(&mut self.point_outer);
            let (keys, outer) = (&keys, &outer);
            exec.map_ranges(n, POINT_CHUNK, |range| {
                for p_idx in range {
                    let p = row(coords, dim, p_idx);
                    // each point index occurs in exactly one chunk
                    let key = unsafe { keys.row_mut(p_idx * dim, dim) };
                    geometry.cell_coords_of(p, key);
                    unsafe {
                        outer.row_mut(p_idx, 1)[0] = geometry.outer_id_of_coords(key) as u64;
                    }
                }
            });
        }

        // Pass 2 — grid-sorted point order: sort point indices in place
        // under the deterministic total order (outer, key, point index).
        self.cell_points.clear();
        self.cell_points.extend(0..n as u32);
        {
            let keys = &self.point_keys;
            let outer = &self.point_outer;
            self.cell_points.sort_unstable_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                outer[a]
                    .cmp(&outer[b])
                    .then_with(|| keys[a * dim..(a + 1) * dim].cmp(&keys[b * dim..(b + 1) * dim]))
                    .then(a.cmp(&b))
            });
        }

        // Pass 3 — trig rows in grid-sorted slot order: slot `s` holds
        // sin/cos of point `cell_points[s]`, so a cell's rows form one
        // contiguous block that the summary pass and the update's pair
        // loop stream sequentially. Rows are lane-padded; only the live
        // `2·dim` prefix is ever written, so the pad stays zero.
        let ts = self.trig_stride();
        self.point_trig.resize(n * ts, 0.0);
        {
            let order = &self.cell_points;
            let trig = ScatterWriter::new(&mut self.point_trig);
            let trig = &trig;
            exec.map_ranges(n, POINT_CHUNK, |range| {
                for slot in range {
                    let p = row(coords, dim, order[slot] as usize);
                    // each slot occurs in exactly one chunk
                    let t = unsafe { trig.row_mut(slot * ts, ts) };
                    for i in 0..dim {
                        t[i] = p[i].sin();
                        t[dim + i] = p[i].cos();
                    }
                }
            });
        }

        // Pass 4 — walk the sorted order once to cut cell boundaries and
        // outer ranges, and invert into the per-point cell index.
        // No eager `reserve` here: pre-reserving the worst case (n cells)
        // allocates n·dim u64 keys up front — a 160 MB spike at the paper
        // envelope's 1M×20 — while the realistic cell count is far below
        // n. Amortized growth reaches the actual size instead, and the
        // capacity persists across iterations, so the steady state still
        // allocates nothing.
        self.cell_keys.clear();
        self.cell_starts.clear();
        self.outer_index.clear();
        self.point_cell.resize(n, 0);
        self.point_slot.resize(n, 0);
        self.cell_starts.push(0);
        for e in 0..n {
            let p = self.cell_points[e] as usize;
            let new_cell = e == 0 || {
                let prev = self.cell_points[e - 1] as usize;
                self.point_keys[prev * dim..(prev + 1) * dim]
                    != self.point_keys[p * dim..(p + 1) * dim]
            };
            if new_cell {
                if e > 0 {
                    self.cell_starts.push(e as u32);
                }
                let c = self.cell_starts.len() as u32 - 1;
                self.cell_keys
                    .extend_from_slice(&self.point_keys[p * dim..(p + 1) * dim]);
                let oid = self.point_outer[p];
                match self.outer_index.last_mut() {
                    Some((last_oid, _, hi)) if *last_oid == oid => *hi = c + 1,
                    _ => self.outer_index.push((oid, c, c + 1)),
                }
            }
            self.point_cell[p] = self.cell_starts.len() as u32 - 1;
            self.point_slot[p] = e as u32;
        }
        if n > 0 {
            self.cell_starts.push(n as u32);
        }
        let num_cells = self.cell_starts.len().saturating_sub(1);

        // Pass 5 — per-cell Σsin/Σcos from the trig table, parallel over
        // cells; each cell's contiguous slot rows are accumulated
        // sequentially in slot order, so the sums are bitwise-reproducible
        // (the lane-wide `accumulate_row` keeps every element's addition
        // chain identical to the scalar loop).
        self.trig_sums.clear();
        self.trig_sums.resize(num_cells * ts, 0.0);
        {
            let cell_starts = &self.cell_starts;
            let point_trig = &self.point_trig;
            exec.map_chunks_mut(&mut self.trig_sums, CELL_CHUNK * ts, |offset, chunk| {
                let first = offset / ts;
                for (r, sums) in chunk.chunks_exact_mut(ts).enumerate() {
                    let c = first + r;
                    let lo = cell_starts[c] as usize;
                    let hi = cell_starts[c + 1] as usize;
                    for t in point_trig[lo * ts..hi * ts].chunks_exact(ts) {
                        accumulate_row(sums, t);
                    }
                }
            });
        }
        self.rebuild_lane_tables(exec, coords);
        self.rebuild_cell_bounds(exec, coords);
        self.has_state = true;
    }

    /// Bring the grid up to date with `coords`, rebuilding **only what
    /// moved**. `moved[p]` must be `true` iff point `p`'s coordinates
    /// changed (bitwise) since the grid was last built; passing `None`
    /// (or calling on a grid with no prior state) falls back to
    /// [`CellGrid::rebuild`].
    ///
    /// The incremental path re-derives cell keys only for movers,
    /// partitions them into *stayers* (same cell key) and *changers*,
    /// splices the sorted changers back into the grid-sorted order with a
    /// sequential merge, and recomputes trig rows and Σsin/Σcos summaries
    /// only for dirty cells — cells that gained or lost a member or
    /// contain a mover. Summaries of dirty cells are recomputed from the
    /// cell's full membership (never subtract/add-adjusted) in slot order,
    /// so **every array is bitwise identical to a fresh
    /// [`CellGrid::rebuild`]** on the same coordinates: the merge
    /// reproduces the total order `(outer, key, point index)` exactly, and
    /// clean cells copy rows whose inputs did not change. The layout is a
    /// pure function of the membership — never of worker count or of which
    /// iteration the points moved in.
    ///
    /// All scratch buffers are owned by the grid and sized once, so
    /// steady-state refreshes allocate nothing.
    pub fn refresh(
        &mut self,
        exec: &Executor,
        coords: &[f64],
        moved: Option<&[bool]>,
    ) -> GridRefreshStats {
        let geometry = self.geometry;
        let dim = geometry.dim;
        let n = coords.len() / dim.max(1);
        let valid = self.has_state && self.point_outer.len() == n && self.point_slot.len() == n;
        let Some(moved) = moved.filter(|m| valid && m.len() == n) else {
            self.rebuild(exec, coords);
            return GridRefreshStats {
                moved_points: n as u64,
                rebinned_points: n as u64,
                dirty_cells: self.num_cells() as u64,
                full_rebuild: true,
            };
        };

        // Pass 1 — re-derive keys for movers only and flag cell changers,
        // in parallel; stayers' rows are untouched.
        self.is_changer.clear();
        self.is_changer.resize(n, false);
        {
            let keys = ScatterWriter::new(&mut self.point_keys);
            let outer = ScatterWriter::new(&mut self.point_outer);
            let chg = ScatterWriter::new(&mut self.is_changer);
            let (keys, outer, chg) = (&keys, &outer, &chg);
            exec.map_ranges(n, POINT_CHUNK, |range| {
                let mut new_key = [0u64; MAX_DIM];
                for p_idx in range {
                    if !moved[p_idx] {
                        continue;
                    }
                    geometry.cell_coords_of(row(coords, dim, p_idx), &mut new_key[..dim]);
                    // each point index occurs in exactly one chunk
                    let old = unsafe { keys.row_mut(p_idx * dim, dim) };
                    if old != &new_key[..dim] {
                        old.copy_from_slice(&new_key[..dim]);
                        unsafe {
                            outer.row_mut(p_idx, 1)[0] =
                                geometry.outer_id_of_coords(&new_key[..dim]) as u64;
                            chg.row_mut(p_idx, 1)[0] = true;
                        }
                    }
                }
            });
        }

        // Pass 2 — partition: collect the changer work-list (ascending
        // point index) and count movers.
        self.changers.clear();
        self.changers.reserve(n);
        let mut moved_points = 0u64;
        for p in 0..n {
            if moved[p] {
                moved_points += 1;
                if self.is_changer[p] {
                    self.changers.push(p as u32);
                }
            }
        }

        if self.changers.is_empty() {
            let dirty_cells = self.refresh_in_place(exec, coords, moved);
            return GridRefreshStats {
                moved_points,
                rebinned_points: 0,
                dirty_cells,
                full_rebuild: false,
            };
        }
        let dirty_cells = self.refresh_rebin(exec, coords, moved);
        GridRefreshStats {
            moved_points,
            rebinned_points: self.changers.len() as u64,
            dirty_cells,
            full_rebuild: false,
        }
    }

    /// Incremental refresh when **no cell key changed**: the CSR layout is
    /// already correct, so only the trig rows of movers and the summaries
    /// of cells containing movers are recomputed, in place.
    fn refresh_in_place(&mut self, exec: &Executor, coords: &[f64], moved: &[bool]) -> u64 {
        let dim = self.geometry.dim;
        let ts = self.trig_stride();
        let n = moved.len();
        let num_cells = self.num_cells();

        // trig rows of movers, at their (unchanged) grid-sorted slots
        {
            let order = &self.cell_points;
            let trig = ScatterWriter::new(&mut self.point_trig);
            let trig = &trig;
            exec.map_ranges(n, POINT_CHUNK, |range| {
                for slot in range {
                    let p_idx = order[slot] as usize;
                    if !moved[p_idx] {
                        continue;
                    }
                    let p = row(coords, dim, p_idx);
                    // each slot occurs in exactly one chunk
                    let t = unsafe { trig.row_mut(slot * ts, ts) };
                    for i in 0..dim {
                        t[i] = p[i].sin();
                        t[dim + i] = p[i].cos();
                    }
                }
            });
        }

        // dirty set: cells containing at least one mover
        self.cell_dirty.clear();
        self.cell_dirty.resize(num_cells, false);
        let mut dirty_cells = 0u64;
        for p in 0..n {
            if moved[p] {
                let c = self.point_cell[p] as usize;
                if !self.cell_dirty[c] {
                    self.cell_dirty[c] = true;
                    dirty_cells += 1;
                }
            }
        }

        // recompute dirty summaries from full membership, in slot order —
        // bitwise identical to the fresh-build accumulation
        {
            let cell_starts = &self.cell_starts;
            let point_trig = &self.point_trig;
            let cell_dirty = &self.cell_dirty;
            exec.map_chunks_mut(&mut self.trig_sums, CELL_CHUNK * ts, |offset, chunk| {
                let first = offset / ts;
                for (r, sums) in chunk.chunks_exact_mut(ts).enumerate() {
                    let c = first + r;
                    if !cell_dirty[c] {
                        continue;
                    }
                    sums.fill(0.0);
                    let lo = cell_starts[c] as usize;
                    let hi = cell_starts[c + 1] as usize;
                    for t in point_trig[lo * ts..hi * ts].chunks_exact(ts) {
                        accumulate_row(sums, t);
                    }
                }
            });
        }
        self.rebuild_lane_tables(exec, coords);
        self.rebuild_cell_bounds(exec, coords);
        dirty_cells
    }

    /// Incremental refresh with changers: splice the re-binned points back
    /// into the grid-sorted order and recompute only dirty cells.
    fn refresh_rebin(&mut self, exec: &Executor, coords: &[f64], moved: &[bool]) -> u64 {
        let dim = self.geometry.dim;
        let n = moved.len();

        // sort the changers under the grid total order (their new keys)
        {
            let keys = &self.point_keys;
            let outer = &self.point_outer;
            self.changers.sort_unstable_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                outer[a]
                    .cmp(&outer[b])
                    .then_with(|| keys[a * dim..(a + 1) * dim].cmp(&keys[b * dim..(b + 1) * dim]))
                    .then(a.cmp(&b))
            });
        }

        // merge stayers (already sorted: their keys are unchanged) with the
        // sorted changers — reproduces the fresh sort's permutation exactly,
        // because the order (outer, key, index) is total and strict
        self.merge_scratch.clear();
        self.merge_scratch.reserve(n);
        {
            let keys = &self.point_keys;
            let outer = &self.point_outer;
            let less = |a: u32, b: u32| {
                let (a, b) = (a as usize, b as usize);
                outer[a]
                    .cmp(&outer[b])
                    .then_with(|| keys[a * dim..(a + 1) * dim].cmp(&keys[b * dim..(b + 1) * dim]))
                    .then(a.cmp(&b))
                    .is_lt()
            };
            let mut ci = 0usize;
            for &pt in &self.cell_points {
                if self.is_changer[pt as usize] {
                    continue; // re-emitted from the changer list instead
                }
                while ci < self.changers.len() && less(self.changers[ci], pt) {
                    self.merge_scratch.push(self.changers[ci]);
                    ci += 1;
                }
                self.merge_scratch.push(pt);
            }
            self.merge_scratch.extend_from_slice(&self.changers[ci..]);
            debug_assert_eq!(self.merge_scratch.len(), n);
        }

        // cut pass over the merged order: new cell boundaries, outer index,
        // per-point cell/slot (into scratch — the old inversion is still
        // needed below), and the dirty/clean classification per new cell.
        // A cell is clean iff it contains no changer and no mover and its
        // membership is unchanged (same old cell, same size) — then both
        // its trig rows and its summary row are bitwise reusable.
        // The per-point scratch reserves here are u32-sized (a few MB even
        // at the 1M envelope) and guarantee the zero-alloc steady state;
        // only `rebuild`'s n·dim key reserve was a real memory spike.
        self.cell_keys.clear();
        self.outer_index.clear();
        self.starts_scratch.clear();
        self.starts_scratch.reserve(n + 1);
        self.cell_dirty.clear();
        self.cell_dirty.reserve(n);
        self.clean_src.clear();
        self.clean_src.reserve(n);
        self.point_cell_scratch.resize(n, 0);
        self.point_slot_scratch.resize(n, 0);
        let mut dirty_cells = 0u64;
        {
            let order = &self.merge_scratch;
            self.starts_scratch.push(0);
            let mut cell_first = 0usize;
            let mut cur_dirty = false;
            let close_cell = |this: &mut Vec<bool>,
                              clean_src: &mut Vec<u32>,
                              lo: usize,
                              hi: usize,
                              cur_dirty: bool| {
                let mut dirty = cur_dirty;
                let mut src = 0u32;
                if !dirty {
                    // no changers in the cell ⇒ its first member is a
                    // stayer; equal size ⇒ identical membership
                    let c_old = self.point_cell[order[lo] as usize] as usize;
                    let old_len = (self.cell_starts[c_old + 1] - self.cell_starts[c_old]) as usize;
                    if old_len == hi - lo {
                        src = c_old as u32;
                    } else {
                        dirty = true;
                    }
                }
                this.push(dirty);
                clean_src.push(src);
                dirty as u64
            };
            for e in 0..n {
                let p = order[e] as usize;
                let new_cell = e == 0 || {
                    let prev = order[e - 1] as usize;
                    self.point_keys[prev * dim..(prev + 1) * dim]
                        != self.point_keys[p * dim..(p + 1) * dim]
                };
                if new_cell {
                    if e > 0 {
                        dirty_cells += close_cell(
                            &mut self.cell_dirty,
                            &mut self.clean_src,
                            cell_first,
                            e,
                            cur_dirty,
                        );
                        self.starts_scratch.push(e as u32);
                    }
                    cell_first = e;
                    cur_dirty = false;
                    let c = self.starts_scratch.len() as u32 - 1;
                    self.cell_keys
                        .extend_from_slice(&self.point_keys[p * dim..(p + 1) * dim]);
                    let oid = self.point_outer[p];
                    match self.outer_index.last_mut() {
                        Some((last_oid, _, hi)) if *last_oid == oid => *hi = c + 1,
                        _ => self.outer_index.push((oid, c, c + 1)),
                    }
                }
                if moved[p] {
                    cur_dirty = true;
                }
                self.point_cell_scratch[p] = self.starts_scratch.len() as u32 - 1;
                self.point_slot_scratch[p] = e as u32;
            }
            if n > 0 {
                dirty_cells += close_cell(
                    &mut self.cell_dirty,
                    &mut self.clean_src,
                    cell_first,
                    n,
                    cur_dirty,
                );
                self.starts_scratch.push(n as u32);
            }
        }
        let num_cells = self.starts_scratch.len().saturating_sub(1);

        // trig pass into the double buffer: movers are recomputed, stayers'
        // rows are relocated from their old slots — bitwise the same values
        // a fresh build would compute from the same coordinates
        let ts = self.trig_stride();
        self.trig_scratch.resize(n * ts, 0.0);
        {
            let order = &self.merge_scratch;
            let old_slot = &self.point_slot;
            let old_trig = &self.point_trig;
            let trig = ScatterWriter::new(&mut self.trig_scratch);
            let trig = &trig;
            exec.map_ranges(n, POINT_CHUNK, |range| {
                for slot in range {
                    let p_idx = order[slot] as usize;
                    // each slot occurs in exactly one chunk
                    let t = unsafe { trig.row_mut(slot * ts, ts) };
                    if moved[p_idx] {
                        let p = row(coords, dim, p_idx);
                        for i in 0..dim {
                            t[i] = p[i].sin();
                            t[dim + i] = p[i].cos();
                        }
                    } else {
                        let s = old_slot[p_idx] as usize;
                        t.copy_from_slice(&old_trig[s * ts..(s + 1) * ts]);
                    }
                }
            });
        }

        // summary pass into the double buffer: dirty cells re-accumulate
        // their full membership in slot order, clean cells copy their old
        // row (identical membership, identical rows ⇒ identical bits)
        self.sums_scratch.clear();
        self.sums_scratch.resize(num_cells * ts, 0.0);
        {
            let cell_starts = &self.starts_scratch;
            let point_trig = &self.trig_scratch;
            let cell_dirty = &self.cell_dirty;
            let clean_src = &self.clean_src;
            let old_sums = &self.trig_sums;
            exec.map_chunks_mut(&mut self.sums_scratch, CELL_CHUNK * ts, |offset, chunk| {
                let first = offset / ts;
                for (r, sums) in chunk.chunks_exact_mut(ts).enumerate() {
                    let c = first + r;
                    if cell_dirty[c] {
                        let lo = cell_starts[c] as usize;
                        let hi = cell_starts[c + 1] as usize;
                        for t in point_trig[lo * ts..hi * ts].chunks_exact(ts) {
                            accumulate_row(sums, t);
                        }
                    } else {
                        let src = clean_src[c] as usize;
                        sums.copy_from_slice(&old_sums[src * ts..(src + 1) * ts]);
                    }
                }
            });
        }

        // promote the double buffers
        std::mem::swap(&mut self.cell_points, &mut self.merge_scratch);
        std::mem::swap(&mut self.cell_starts, &mut self.starts_scratch);
        std::mem::swap(&mut self.point_cell, &mut self.point_cell_scratch);
        std::mem::swap(&mut self.point_slot, &mut self.point_slot_scratch);
        std::mem::swap(&mut self.point_trig, &mut self.trig_scratch);
        std::mem::swap(&mut self.trig_sums, &mut self.sums_scratch);
        self.rebuild_lane_tables(exec, coords);
        self.rebuild_cell_bounds(exec, coords);
        dirty_cells
    }

    /// Recompute the per-cell point MBRs from the final grid-sorted order
    /// — an O(n·d) pass, within the same per-iteration envelope as the
    /// lane-table relayout that precedes it. Each cell scans its own
    /// contiguous slot range once, sequentially, into its lane of its
    /// block, so the table is a pure function of the CSR layout and the
    /// coordinates: bitwise identical for any worker count and for either
    /// maintenance path. Chunks hold [`CELL_CHUNK`] cells, as every other
    /// per-cell pass.
    fn rebuild_cell_bounds(&mut self, exec: &Executor, coords: &[f64]) {
        let dim = self.geometry.dim;
        let num_cells = self.num_cells();
        let bs = 2 * dim * LANES;
        self.cell_bounds.clear();
        self.cell_bounds.resize(num_cells.div_ceil(LANES) * bs, 0.0);
        let cell_starts = &self.cell_starts;
        let order = &self.cell_points;
        exec.map_chunks_mut(
            &mut self.cell_bounds,
            CELL_CHUNK / LANES * bs,
            |offset, chunk| {
                let first = offset / bs;
                for (r, block) in chunk.chunks_exact_mut(bs).enumerate() {
                    let (b_lo, b_hi) = block.split_at_mut(dim * LANES);
                    for j in 0..LANES {
                        let c = (first + r) * LANES + j;
                        if c >= num_cells {
                            break;
                        }
                        let lo = cell_starts[c] as usize;
                        let hi = cell_starts[c + 1] as usize;
                        let q = row(coords, dim, order[lo] as usize);
                        for i in 0..dim {
                            b_lo[i * LANES + j] = q[i];
                            b_hi[i * LANES + j] = q[i];
                        }
                        for slot in lo + 1..hi {
                            let q = row(coords, dim, order[slot] as usize);
                            for i in 0..dim {
                                let (l, h) = (&mut b_lo[i * LANES + j], &mut b_hi[i * LANES + j]);
                                *l = l.min(q[i]);
                                *h = h.max(q[i]);
                            }
                        }
                    }
                }
            },
        );
    }

    /// Rebuild the lane-blocked SoA tables (`lane_sin`, `lane_cos`,
    /// `lane_coords`) from the freshly maintained trig table and the
    /// grid-sorted order. A pure relayout — block `b` copies the rows of
    /// lane indices `4b..4b+4` (slot `s` lives at lane `lane_phase + s`)
    /// into dimension-major lane groups, the leading `lane_phase` pad
    /// lanes and the padding lanes past `n` stay zero — so the tables are
    /// bitwise consistent with `point_trig`/`coords` whether the grid was
    /// rebuilt or refreshed, and the pass is deterministic for any worker
    /// count.
    fn rebuild_lane_tables(&mut self, exec: &Executor, coords: &[f64]) {
        let dim = self.geometry.dim;
        let ts = self.trig_stride();
        let n = self.cell_points.len();
        let phase = self.lane_phase;
        let n_blocks = (phase + n).div_ceil(LANES);
        let len = n_blocks * dim * LANES;
        self.lane_sin.clear();
        self.lane_sin.resize(len, 0.0);
        self.lane_cos.clear();
        self.lane_cos.resize(len, 0.0);
        self.lane_coords.clear();
        self.lane_coords.resize(len, 0.0);
        let order = &self.cell_points;
        let trig = &self.point_trig;
        let sin_w = ScatterWriter::new(&mut self.lane_sin);
        let cos_w = ScatterWriter::new(&mut self.lane_cos);
        let xyz_w = ScatterWriter::new(&mut self.lane_coords);
        let (sin_w, cos_w, xyz_w) = (&sin_w, &cos_w, &xyz_w);
        exec.map_ranges(n_blocks, CELL_CHUNK, |range| {
            for b in range {
                // each block occurs in exactly one chunk
                let (sins, coss, xyzs) = unsafe {
                    (
                        sin_w.row_mut(b * dim * LANES, dim * LANES),
                        cos_w.row_mut(b * dim * LANES, dim * LANES),
                        xyz_w.row_mut(b * dim * LANES, dim * LANES),
                    )
                };
                for j in 0..LANES {
                    let lane = b * LANES + j;
                    if lane < phase {
                        continue;
                    }
                    let slot = lane - phase;
                    if slot >= n {
                        break;
                    }
                    let t = &trig[slot * ts..(slot + 1) * ts];
                    let p = row(coords, dim, order[slot] as usize);
                    for i in 0..dim {
                        sins[i * LANES + j] = t[i];
                        coss[i * LANES + j] = t[dim + i];
                        xyzs[i * LANES + j] = p[i];
                    }
                }
            }
        });
    }

    /// The geometry the grid was built under.
    pub fn geometry(&self) -> &GridGeometry {
        &self.geometry
    }

    /// Padded length of a trig-table or summary row: `2·dim` live elements
    /// (`sin` then `cos` per dimension) rounded up to a [`LANES`] multiple,
    /// so row accumulation runs in whole vector steps.
    pub fn trig_stride(&self) -> usize {
        lane_pad(2 * self.geometry.dim)
    }

    /// Lane-blocked `sin` table: `lane_sin()[(b·dim + i)·LANES + j]` is
    /// `sin` of dimension `i` of the point at lane index `4b + j`, where
    /// slot `s` lives at lane index [`CellGrid::lane_phase`]` + s` (zero
    /// in the pad lanes). The SIMD pair-term kernel's row layout.
    pub fn lane_sin(&self) -> &[f64] {
        &self.lane_sin
    }

    /// Leading pad lanes of the lane-blocked tables: the lane index of
    /// grid-sorted slot `s` is `lane_phase() + s`. Consumers striping a
    /// slot range through the lane tables must offset by this.
    pub fn lane_phase(&self) -> usize {
        self.lane_phase
    }

    /// Set the lane phase (taken mod [`LANES`]) used by the next rebuild
    /// or refresh. A sharded engine passes its shard's global grid-sorted
    /// slot base, so lane-block boundaries — and with them the SIMD
    /// pair-term's reduction grouping — land exactly where the single
    /// grid's would for every resident cell, keeping the lane sums
    /// bitwise invariant under sharding. Must be set **before** the
    /// [`CellGrid::rebuild`]/[`CellGrid::refresh`] that should honor it.
    pub fn set_lane_phase(&mut self, global_slot_base: usize) {
        self.lane_phase = global_slot_base % LANES;
    }

    /// Lane-blocked `cos` table, same layout as [`CellGrid::lane_sin`].
    pub fn lane_cos(&self) -> &[f64] {
        &self.lane_cos
    }

    /// Lane-blocked raw coordinates in grid-sorted slot order, same layout
    /// as [`CellGrid::lane_sin`] — lets the SIMD distance kernel load four
    /// neighbors contiguously instead of gathering through
    /// [`CellGrid::point_order`].
    pub fn lane_coords(&self) -> &[f64] {
        &self.lane_coords
    }

    /// Number of non-empty cells.
    pub fn num_cells(&self) -> usize {
        self.cell_starts.len().saturating_sub(1)
    }

    /// Full-dimensional coordinates of compacted cell `c`.
    pub fn cell_key(&self, c: usize) -> &[u64] {
        let dim = self.geometry.dim;
        &self.cell_keys[c * dim..(c + 1) * dim]
    }

    /// Point indices inside compacted cell `c` (ascending).
    pub fn cell_points(&self, c: usize) -> &[u32] {
        &self.cell_points[self.cell_starts[c] as usize..self.cell_starts[c + 1] as usize]
    }

    /// Number of points in compacted cell `c`.
    pub fn cell_len(&self, c: usize) -> usize {
        (self.cell_starts[c + 1] - self.cell_starts[c]) as usize
    }

    /// Compacted cell index of every point — the cluster labels once the
    /// synchronization criterion holds (§4.3.4).
    pub fn point_cell(&self) -> &[u32] {
        &self.point_cell
    }

    /// Per-dimension Σsin over the points of cell `c`.
    pub fn sin_sums(&self, c: usize) -> &[f64] {
        let dim = self.geometry.dim;
        let ts = self.trig_stride();
        &self.trig_sums[c * ts..c * ts + dim]
    }

    /// Per-dimension Σcos over the points of cell `c`.
    pub fn cos_sums(&self, c: usize) -> &[f64] {
        let dim = self.geometry.dim;
        let ts = self.trig_stride();
        &self.trig_sums[c * ts + dim..c * ts + 2 * dim]
    }

    /// `(lo_i, hi_i)` of compacted cell `c`'s point MBR, per dimension,
    /// read in place from its lane of the lane-blocked table.
    #[inline(always)]
    fn mbr(&self, c: usize) -> impl Iterator<Item = (f64, f64)> + '_ {
        let dim = self.geometry.dim;
        let bs = 2 * dim * LANES;
        let (lo, hi) = self.cell_bounds[c / LANES * bs..][..bs].split_at(dim * LANES);
        let j = c % LANES;
        lo.chunks_exact(LANES)
            .zip(hi.chunks_exact(LANES))
            .map(move |(lo, hi)| (lo[j], hi[j]))
    }

    /// Squared distance from `p` to the closest point of compacted cell
    /// `c`'s point MBR: [`GridGeometry::min_sq_dist_to_bounds`] with the
    /// cell's bounds, bit for bit. No point of the cell is nearer to `p`.
    #[inline]
    pub fn min_sq_dist_to_cell(&self, c: usize, p: &[f64]) -> f64 {
        min_sq_dist_to_box(p, self.mbr(c))
    }

    /// Squared distance from `p` to the farthest point of compacted cell
    /// `c`'s point MBR: [`GridGeometry::max_sq_dist_to_bounds`] with the
    /// cell's bounds, bit for bit. No point of the cell is farther from
    /// `p`.
    #[inline]
    pub fn max_sq_dist_to_cell(&self, c: usize, p: &[f64]) -> f64 {
        max_sq_dist_to_box(p, self.mbr(c))
    }

    /// Box-versus-box verdicts for a run of points that share cell `run`:
    /// classify the cells `lo..hi` of every range in `ranges`, in order,
    /// four per step, and write each cell that some point of the run may
    /// reach to `list` as `(cell, covered)`. Returns the number of
    /// candidates written, or `None` when they do not fit `list`.
    ///
    /// With box `a` the run cell's point MBR and `b` a reach cell's, each
    /// of the four lanes folds the dimensions in order, with separate
    /// multiply and add:
    ///
    /// * `g = max(max(b_lo − a_hi, a_lo − b_hi), 0)`, `min += g·g`;
    /// * `f = max(a_hi − b_lo, b_hi − a_lo)`, `max += f·f`;
    ///
    /// where `max(x, y)` is `x` if `x > y`, else `y` ([`F64x4::larger`],
    /// `maxpd`'s rule). These are the computations of
    /// `GridGeometry::{min,max}_sq_dist_between_bounds`, so every lane's
    /// sums carry their bits. A cell is unreachable iff `min > eps_sq`,
    /// and covered iff `use_summaries` and `max ≤ eps_sq`.
    ///
    /// `use_avx2` requests the same loop compiled for AVX2, taken only
    /// when [`avx2_available`](crate::kernels::avx2_available) confirms
    /// the CPU has it; it runs the whole range list in one call, so the
    /// dispatch is paid once per run.
    ///
    /// # Panics
    /// If `run` or a range reaches past the last lane block of cells.
    pub fn classify_reach(
        &self,
        run: usize,
        ranges: &[(u32, u32)],
        eps_sq: f64,
        use_summaries: bool,
        list: &mut [(u32, bool)],
        use_avx2: bool,
    ) -> Option<usize> {
        let (bounds, dim) = (&self.cell_bounds[..], self.geometry.dim);
        let covered_mask = if use_summaries { 0xF } else { 0 };
        #[cfg(target_arch = "x86_64")]
        if use_avx2 && avx2_available() {
            // SAFETY: AVX2 was detected at runtime
            return unsafe {
                classify_blocks_avx2(bounds, dim, run, ranges, eps_sq, covered_mask, list)
            };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = use_avx2;
        classify_blocks::<0>(bounds, dim, run, ranges, eps_sq, covered_mask, list)
    }

    /// Every cell's Σsin/Σcos row, [`CellGrid::trig_stride`] apart: cell
    /// `c`'s [`CellGrid::sin_sums`] then [`CellGrid::cos_sums`] start at
    /// `c · trig_stride()`.
    pub(crate) fn summary_rows(&self) -> &[f64] {
        &self.trig_sums
    }

    /// All point indices in grid-sorted order — the host edition of the
    /// device's `i_points` (§4.2.6). Processing points in this order makes
    /// consecutive points share cells, so their reach walks touch the same
    /// cache lines.
    pub fn point_order(&self) -> &[u32] {
        &self.cell_points
    }

    /// Slot range of compacted cell `c` in the grid-sorted order — the
    /// indices into [`CellGrid::point_order`] (and the trig-table rows)
    /// occupied by the cell's points.
    pub fn cell_range(&self, c: usize) -> std::ops::Range<usize> {
        self.cell_starts[c] as usize..self.cell_starts[c + 1] as usize
    }

    /// Compacted-cell range whose *leading* cell coordinate lies in
    /// `c0_range`, half-open. Contiguous by construction: the grid's
    /// total cell order is (outer id, full key lex), the outer id is
    /// row-major with dimension 0 most significant, and the key
    /// comparison starts at dimension 0 — so compacted cells are sorted
    /// primarily by their leading coordinate under **every** variant,
    /// including `d' = 0`. This is the lookup the sharded engine uses to
    /// find a shard's owned cells inside its resident grid.
    pub fn cells_with_leading_coord(
        &self,
        c0_range: std::ops::Range<u64>,
    ) -> std::ops::Range<usize> {
        self.leading_coord_lower_bound(c0_range.start)..self.leading_coord_lower_bound(c0_range.end)
    }

    /// First compacted cell whose leading coordinate is ≥ `bound`.
    fn leading_coord_lower_bound(&self, bound: u64) -> usize {
        let (mut lo, mut hi) = (0usize, self.num_cells());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.cell_key(mid)[0] < bound {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Grid-sorted slot range covered by a contiguous compacted-cell
    /// range — the owned-slot window the sharded update pass iterates.
    pub fn slots_of_cells(&self, cells: std::ops::Range<usize>) -> std::ops::Range<usize> {
        self.cell_starts[cells.start] as usize..self.cell_starts[cells.end] as usize
    }

    /// Per-dimension `sin` of the raw coordinates of the point in
    /// grid-sorted slot `s` (i.e. of point `point_order()[s]`), from the
    /// iteration's trig table.
    pub fn slot_sin(&self, s: usize) -> &[f64] {
        let dim = self.geometry.dim;
        let ts = self.trig_stride();
        &self.point_trig[s * ts..s * ts + dim]
    }

    /// Per-dimension `cos` of the raw coordinates of the point in
    /// grid-sorted slot `s`, from the iteration's trig table.
    pub fn slot_cos(&self, s: usize) -> &[f64] {
        let dim = self.geometry.dim;
        let ts = self.trig_stride();
        &self.point_trig[s * ts + dim..s * ts + 2 * dim]
    }

    /// Invoke `f` with the compacted index of every non-empty cell in the
    /// outer cells surrounding (and including) outer cell `oid` — the
    /// host analogue of the preGrid walk (§4.2.5): empty outer buckets
    /// are skipped by a binary search over the sorted non-empty outer
    /// ranges instead of a precomputed list. The host update, which visits
    /// the reach of many points in grid-sorted order, goes through a
    /// `ReachMemo` instead: it resolves the reach once per outer cell and
    /// classifies it once per inner cell into a candidate list that every
    /// point of the cell replays, in this walk's order.
    pub fn for_each_cell_in_reach(&self, oid: usize, mut f: impl FnMut(usize)) {
        self.for_each_range_in_reach(oid, |lo, hi| {
            for c in lo..hi {
                f(c as usize);
            }
        });
    }

    /// The walk behind [`CellGrid::for_each_cell_in_reach`] and
    /// [`ReachMemo`]: invoke `f` with the compacted cell range `lo..hi` of
    /// every non-empty outer cell in the reach of `oid`, in visit order.
    fn for_each_range_in_reach(&self, oid: usize, mut f: impl FnMut(u32, u32)) {
        let geo = &self.geometry;
        let d = geo.outer_dims;
        let v = geo.surround_per_dim();
        // When far fewer outer cells are occupied than the surround volume
        // v^d' — narrow cells, high reach, or a converged dataset collapsed
        // into a handful of cells — enumerating offsets wastes a binary
        // search per empty bucket (729 probes per point for 3 cells on the
        // converged Skin workload). Instead, filter the occupied list by
        // the reach box and replay it in the exact offset-enumeration
        // order, so every caller sees the identical visit sequence (the
        // summary accumulation order is part of the bitwise contract).
        const SMALL_OCCUPANCY: usize = 64;
        let occupied = self.outer_index.len();
        if d > 0 && occupied <= SMALL_OCCUPANCY && occupied < v.pow(d as u32) {
            let mut base = [0u64; 64];
            geo.outer_coords_of_id(oid, &mut base[..d]);
            // (offset-enumeration key k, outer_index entry); dim 0 is k's
            // least-significant digit, exactly as in the offset loop
            let mut in_reach = [(0u64, 0u32); SMALL_OCCUPANCY];
            let mut len = 0usize;
            let mut coords = [0u64; 64];
            'entries: for (e, &(id, _, _)) in self.outer_index.iter().enumerate() {
                geo.outer_coords_of_id(id as usize, &mut coords[..d]);
                let mut k = 0u64;
                for i in (0..d).rev() {
                    let off = coords[i] as i64 - base[i] as i64;
                    if off.unsigned_abs() as usize > geo.reach {
                        continue 'entries;
                    }
                    k = k * v as u64 + (off + geo.reach as i64) as u64;
                }
                in_reach[len] = (k, e as u32);
                len += 1;
            }
            in_reach[..len].sort_unstable();
            for &(_, e) in &in_reach[..len] {
                let (_, lo, hi) = self.outer_index[e as usize];
                f(lo, hi);
            }
            return;
        }
        geo.for_each_surrounding_outer(oid, |o| {
            let o = o as u64;
            if let Ok(e) = self.outer_index.binary_search_by_key(&o, |&(id, _, _)| id) {
                let (_, lo, hi) = self.outer_index[e];
                f(lo, hi);
            }
        });
    }

    /// Approximate heap footprint of the structure in bytes (Figure 3h's
    /// accounting for the host backend), scratch buffers included.
    pub fn memory_bytes(&self) -> usize {
        self.cell_keys.len() * 8
            + self.cell_starts.len() * 4
            + self.cell_points.len() * 4
            + self.point_cell.len() * 4
            + self.trig_sums.len() * 8
            + self.point_trig.len() * 8
            + self.lane_sin.len() * 8
            + self.lane_cos.len() * 8
            + self.lane_coords.len() * 8
            + self.cell_bounds.len() * 8
            + self.outer_index.len() * 16
            + self.point_keys.len() * 8
            + self.point_outer.len() * 8
            + self.point_slot.len() * 4
            + self.changers.len() * 4
            + self.is_changer.len()
            + self.cell_dirty.len()
            + self.clean_src.len() * 4
            + self.merge_scratch.len() * 4
            + self.starts_scratch.len() * 4
            + self.point_cell_scratch.len() * 4
            + self.point_slot_scratch.len() * 4
            + self.trig_scratch.len() * 8
            + self.sums_scratch.len() * 8
    }
}

/// Capacity of [`ReachMemo`]'s per-run candidate list in production: 32 KiB
/// of a worker's stack. The longest list of the benchmark workloads at
/// seed 1 holds 559 cells, from a `blobs8d` reach of ~1 220 occupied cells.
pub(crate) const RUN_LIST: usize = 4096;

/// The reach of one outer cell and the classified candidates of one inner
/// cell, each resolved once and replayed for every point that shares it:
/// the host edition of the per-cell preGrid list the paper's update
/// threads share (§4.2.5), extended to the per-cell verdicts. Points
/// processed in grid-sorted order ([`CellGrid::point_order`]) come in runs
/// that share an inner cell, and every point of a run walks the same
/// reach. The memo keeps that reach as a list of compacted cell ranges and
/// the run's verdicts as a list of cells, both on the stack, so the
/// steady-state loop allocates nothing.
///
/// The verdicts compare boxes: the run cell's point MBR against each
/// reach cell's, four reach cells per step
/// ([`CellGrid::classify_reach`]). A cell no point of the run can reach
/// leaves the list. A cell inside every run point's ε-ball is flagged
/// covered, and each point consumes its summary without a test of its
/// own. The rest straddle: each point classifies them against its own
/// position.
///
/// The range list holds [`MAX_SURROUND_ENUM`] ranges, one per non-empty
/// outer cell of the reach. [`GridVariant::Auto`] never exceeds it; under
/// an explicit `Mixed` or `RandomAccess` variant a reach that does is
/// walked afresh for every point, unclassified. The candidate list holds
/// `LIST` cells; a run with more candidates replays its whole reach with
/// every cell straddling. Either way each point classifies every reach
/// cell itself, which is the per-point walk.
///
/// [`GridVariant::Auto`]: super::GridVariant::Auto
pub(crate) struct ReachMemo<'g, const LIST: usize> {
    grid: &'g CellGrid,
    /// ε² of the pass the verdicts serve.
    eps_sq: f64,
    /// Whether covered cells are flagged (the summary ablation).
    use_summaries: bool,
    /// Outer cell whose reach `ranges[..len]` holds, once resolved.
    oid: Option<usize>,
    /// The reach of `oid` did not fit the range list.
    overflow: bool,
    len: usize,
    ranges: [(u32, u32); MAX_SURROUND_ENUM],
    /// Inner cell whose candidates `list[..list_len]` holds, once built.
    run: Option<usize>,
    /// The candidates of `run` did not fit the list.
    list_overflow: bool,
    list_len: usize,
    /// `(cell, covered)` per candidate, in reach order.
    list: [(u32, bool); LIST],
}

impl<'g, const LIST: usize> ReachMemo<'g, LIST> {
    /// An empty memo over `grid` for a pass at radius² `eps_sq`, flagging
    /// covered cells iff `use_summaries`; the first call resolves a reach.
    pub fn new(grid: &'g CellGrid, eps_sq: f64, use_summaries: bool) -> Self {
        Self {
            grid,
            eps_sq,
            use_summaries,
            oid: None,
            overflow: false,
            len: 0,
            ranges: [(0, 0); MAX_SURROUND_ENUM],
            run: None,
            list_overflow: false,
            list_len: 0,
            list: [(0, false); LIST],
        }
    }

    /// Hand `f` the cells `c` in the reach of inner cell `run`'s outer cell
    /// that some point of the run may reach, in
    /// [`CellGrid::for_each_cell_in_reach`]'s order, as `(c, covered)`
    /// pairs with `covered` set for cells inside every run point's ε-ball.
    /// `f` gets the whole list in one call. The list is built when `run`
    /// differs from the previous call's. A run whose candidates overflow
    /// the list, or whose reach overflows the range list, instead hands
    /// `f` every reach cell, one call each, unflagged: the per-point walk.
    ///
    /// Exactness rests on the verdicts: a cell left out must be one no
    /// point of the run would consume, and a covered cell one every point
    /// would consume whole. The box-vs-box distances bound every run
    /// point's computed distances bit for bit
    /// (`GridGeometry::*_between_bounds`), so dropping the first kind and
    /// deciding the second early keeps each point's consumed cells, their
    /// paths and their order, and the accumulated sums and counters keep
    /// their bits.
    pub fn for_each_candidate(&mut self, run: usize, mut f: impl FnMut(&[(u32, bool)])) {
        let grid = self.grid;
        let oid = grid.geometry.outer_id_of_coords(grid.cell_key(run));
        if self.oid != Some(oid) {
            self.resolve(oid);
        }
        let ranges = (!self.overflow).then_some(&self.ranges[..self.len]);
        if self.run != Some(run) {
            let verdicts = ranges.and_then(|ranges| {
                // the AVX2 loop wherever the CPU has it
                grid.classify_reach(
                    run,
                    ranges,
                    self.eps_sq,
                    self.use_summaries,
                    &mut self.list,
                    true,
                )
            });
            (self.run, self.list_len, self.list_overflow) =
                (Some(run), verdicts.unwrap_or(0), verdicts.is_none());
        }
        if !self.list_overflow {
            f(&self.list[..self.list_len]);
        } else if let Some(ranges) = ranges {
            for &(lo, hi) in ranges {
                for c in lo..hi {
                    f(&[(c, false)]);
                }
            }
        } else {
            grid.for_each_cell_in_reach(oid, |c| f(&[(c as u32, false)]));
        }
    }

    fn resolve(&mut self, oid: usize) {
        let (ranges, mut len, mut overflow) = (&mut self.ranges, 0, false);
        self.grid
            .for_each_range_in_reach(oid, |lo, hi| match ranges.get_mut(len) {
                Some(slot) => {
                    *slot = (lo, hi);
                    len += 1;
                }
                None => overflow = true,
            });
        (self.oid, self.len, self.overflow) = (Some(oid), len, overflow);
    }
}

/// [`CellGrid::classify_reach`]'s loop compiled with AVX2 enabled, `D` =
/// `dim` for `dim` 1–8 and read at run time above that.
///
/// # Safety
/// Requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn classify_blocks_avx2(
    bounds: &[f64],
    dim: usize,
    run: usize,
    ranges: &[(u32, u32)],
    eps_sq: f64,
    covered_mask: u32,
    list: &mut [(u32, bool)],
) -> Option<usize> {
    macro_rules! by_dim {
        ($($d:literal)*) => {
            match dim {
                $($d => classify_blocks::<$d>(bounds, dim, run, ranges, eps_sq, covered_mask, list),)*
                _ => classify_blocks::<0>(bounds, dim, run, ranges, eps_sq, covered_mask, list),
            }
        };
    }
    by_dim!(1 2 3 4 5 6 7 8)
}

/// The loop behind [`CellGrid::classify_reach`] over the lane-blocked MBR
/// table `bounds` (see [`CellGrid`]'s `cell_bounds`), for `D` = `dim`, or
/// `D = 0` to read `dim` at run time. `covered_mask` is `0xF`, or 0 to
/// flag no cell covered.
#[inline(always)]
fn classify_blocks<const D: usize>(
    bounds: &[f64],
    dim: usize,
    run: usize,
    ranges: &[(u32, u32)],
    eps_sq: f64,
    covered_mask: u32,
    list: &mut [(u32, bool)],
) -> Option<usize> {
    let dim = if D == 0 { dim } else { D };
    let bs = 2 * dim * LANES;
    // the run cell's box, gathered once from its lane
    let (mut a_lo, mut a_hi) = ([0.0; MAX_DIM], [0.0; MAX_DIM]);
    let run_block = &bounds[run / LANES * bs..][..bs];
    for i in 0..dim {
        a_lo[i] = run_block[i * LANES + run % LANES];
        a_hi[i] = run_block[(dim + i) * LANES + run % LANES];
    }
    let eps = F64x4::splat(eps_sq);
    let mut len = 0;
    for &(lo, hi) in ranges {
        for b in lo as usize / LANES..(hi as usize).div_ceil(LANES) {
            let block = &bounds[b * bs..(b + 1) * bs];
            let (mut min, mut max) = (F64x4::ZERO, F64x4::ZERO);
            for i in 0..dim {
                let (b_lo, b_hi) = (
                    F64x4::load(&block[i * LANES..]),
                    F64x4::load(&block[(dim + i) * LANES..]),
                );
                let (a_lo, a_hi) = (F64x4::splat(a_lo[i]), F64x4::splat(a_hi[i]));
                let g = (b_lo - a_hi).larger(a_lo - b_hi).larger(F64x4::ZERO);
                min += g * g;
                let f = (a_hi - b_lo).larger(b_hi - a_lo);
                max += f * f;
            }
            let reach = min.gt(eps).bits() ^ 0xF;
            let covered = max.le(eps).bits() & covered_mask;
            len = push_candidates(list, len, b, lo, hi, reach, covered)?;
        }
    }
    Some(len)
}

/// Write the cells of lane block `b` that lie in `lo..hi` and have their
/// `reach` bit set to `list[len..]`, in lane order, each with its
/// `covered` bit. Returns the new length, or `None` once `list` is full.
#[inline(always)]
fn push_candidates(
    list: &mut [(u32, bool)],
    len: usize,
    b: usize,
    lo: u32,
    hi: u32,
    reach: u32,
    covered: u32,
) -> Option<usize> {
    let first = (b * LANES) as u32;
    // lanes outside `lo..hi` hold other ranges' cells, or none
    let (below, above) = (
        lo.saturating_sub(first).min(LANES as u32),
        (first + LANES as u32).saturating_sub(hi).min(LANES as u32),
    );
    let reach = reach & (0xF << below) & (0xF >> above);
    let mut len = len;
    if len + LANES <= list.len() {
        // branch-free: every lane is written, only kept ones advance
        for j in 0..LANES {
            list[len] = (first + j as u32, covered >> j & 1 != 0);
            len += (reach >> j & 1) as usize;
        }
    } else {
        for j in 0..LANES {
            if reach >> j & 1 != 0 {
                *list.get_mut(len)? = (first + j as u32, covered >> j & 1 != 0);
                len += 1;
            }
        }
    }
    Some(len)
}

#[cfg(test)]
mod tests {
    use super::super::geometry::GridVariant;
    use super::*;
    use egg_spatial::distance::squared_euclidean;

    fn grid_fixture(coords: &[f64], dim: usize, eps: f64) -> (GridGeometry, Vec<f64>) {
        let g = GridGeometry::new(dim, eps, coords.len() / dim, GridVariant::Auto);
        (g, coords.to_vec())
    }

    #[test]
    fn every_point_is_in_exactly_one_cell() {
        let coords: Vec<f64> = (0..200).map(|i| (i as f64 * 0.005) % 1.0).collect();
        let (g, coords) = grid_fixture(&coords, 2, 0.05);
        let grid = HostGrid::build(&g, &coords);
        let total: usize = grid.iter_cells().map(|(_, pts)| pts.len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn cell_of_contains_the_point() {
        let coords = [0.5, 0.5, 0.51, 0.5, 0.9, 0.9];
        let (g, coords) = grid_fixture(&coords, 2, 0.1);
        let grid = HostGrid::build(&g, &coords);
        assert!(grid.cell_of(&[0.9, 0.9]).contains(&2));
    }

    #[test]
    fn ball_query_matches_brute_force() {
        // pseudo-random but deterministic point cloud
        let coords: Vec<f64> = (0..600)
            .map(|i| ((i * 2654435761u64 as usize) % 1000) as f64 / 1000.0)
            .collect();
        let dim = 2;
        let (g, coords) = grid_fixture(&coords, dim, 0.07);
        let grid = HostGrid::build(&g, &coords);
        for p_idx in [0usize, 17, 123, 299] {
            let p = row(&coords, dim, p_idx);
            for radius in [0.0, 0.03, 0.07] {
                let mut got = grid.ball_indices(p, radius);
                got.sort_unstable();
                let expected: Vec<u32> = (0..coords.len() / dim)
                    .filter(|&q| squared_euclidean(p, row(&coords, dim, q)) <= radius * radius)
                    .map(|q| q as u32)
                    .collect();
                assert_eq!(got, expected, "p={p_idx} r={radius}");
            }
        }
    }

    #[test]
    fn points_in_same_cell_are_within_half_epsilon() {
        let coords: Vec<f64> = (0..400)
            .map(|i| ((i * 48271) % 997) as f64 / 997.0)
            .collect();
        let eps = 0.1;
        let (g, coords) = grid_fixture(&coords, 2, eps);
        let grid = HostGrid::build(&g, &coords);
        for (_, pts) in grid.iter_cells() {
            for (a, &i) in pts.iter().enumerate() {
                for &j in &pts[a + 1..] {
                    // radius-only comparison: no sqrt needed
                    assert!(
                        egg_spatial::distance::within(
                            row(&coords, 2, i as usize),
                            row(&coords, 2, j as usize),
                            eps / 2.0 + 1e-12,
                        ),
                        "cell mates {i},{j} farther than ε/2 apart"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_grid() {
        let (g, coords) = grid_fixture(&[], 3, 0.05);
        let grid = HostGrid::build(&g, &coords);
        assert_eq!(grid.num_cells(), 0);
        assert!(grid.ball_indices(&[0.5, 0.5, 0.5], 0.2).is_empty());
    }

    fn pseudo_cloud(n: usize, dim: usize) -> Vec<f64> {
        (0..n * dim)
            .map(|i| ((i as u64).wrapping_mul(2654435761) % 1000) as f64 / 1000.0)
            .collect()
    }

    #[test]
    fn cell_grid_agrees_with_host_grid() {
        let coords = pseudo_cloud(400, 2);
        let g = GridGeometry::new(2, 0.07, 200, GridVariant::Auto);
        let reference = HostGrid::build(&g, &coords);
        let grid = CellGrid::build(&Executor::sequential(), g, &coords);
        assert_eq!(grid.num_cells(), reference.num_cells());
        for c in 0..grid.num_cells() {
            let mut expected: Vec<u32> = reference
                .cell_of(row(&coords, 2, grid.cell_points(c)[0] as usize))
                .to_vec();
            expected.sort_unstable();
            assert_eq!(grid.cell_points(c), &expected[..], "cell {c}");
            assert_eq!(grid.cell_len(c), expected.len());
            for &p in grid.cell_points(c) {
                assert_eq!(grid.point_cell()[p as usize] as usize, c);
            }
        }
    }

    #[test]
    fn cell_grid_summaries_match_brute_force() {
        let coords = pseudo_cloud(300, 3);
        let g = GridGeometry::new(3, 0.12, 100, GridVariant::Auto);
        let grid = CellGrid::build(&Executor::new(Some(4)), g, &coords);
        for c in 0..grid.num_cells() {
            for i in 0..3 {
                let sin: f64 = grid
                    .cell_points(c)
                    .iter()
                    .map(|&p| coords[p as usize * 3 + i].sin())
                    .sum();
                let cos: f64 = grid
                    .cell_points(c)
                    .iter()
                    .map(|&p| coords[p as usize * 3 + i].cos())
                    .sum();
                assert!((grid.sin_sums(c)[i] - sin).abs() < 1e-12);
                assert!((grid.cos_sums(c)[i] - cos).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cell_grid_layout_is_identical_across_worker_counts() {
        let coords = pseudo_cloud(5000, 2);
        let g = GridGeometry::new(2, 0.04, 2500, GridVariant::Auto);
        let reference = CellGrid::build(&Executor::sequential(), g, &coords);
        for workers in [2, 3, 8] {
            let grid = CellGrid::build(&Executor::new(Some(workers)), g, &coords);
            assert_eq!(grid.cell_keys, reference.cell_keys, "workers = {workers}");
            assert_eq!(grid.cell_starts, reference.cell_starts);
            assert_eq!(grid.cell_points, reference.cell_points);
            assert_eq!(grid.point_cell, reference.point_cell);
            // summaries must be bitwise identical, not just close
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&grid.trig_sums), bits(&reference.trig_sums));
        }
    }

    /// The lane-blocked tables must be an exact relayout of the trig table
    /// and the grid-sorted coordinates — including after incremental
    /// refreshes, whose lane pass copies rather than recomputes — with
    /// zeroed padding lanes.
    #[test]
    fn lane_tables_mirror_trig_table_and_coords() {
        let (n, dim) = (519, 3); // deliberately not a lane multiple
        let g = GridGeometry::new(dim, 0.12, n, GridVariant::Auto);
        let exec = Executor::new(Some(3));
        let mut coords = pseudo_cloud(n, dim);
        let mut grid = CellGrid::new(g);
        grid.refresh(&exec, &coords, None);
        fn check(grid: &CellGrid, coords: &[f64], n: usize, dim: usize) {
            let n_blocks = n.div_ceil(LANES);
            assert_eq!(grid.lane_sin().len(), n_blocks * dim * LANES);
            for b in 0..n_blocks {
                for j in 0..LANES {
                    let slot = b * LANES + j;
                    for i in 0..dim {
                        let at = (b * dim + i) * LANES + j;
                        let (s, c, x) = if slot < n {
                            let p = grid.point_order()[slot] as usize;
                            (
                                grid.slot_sin(slot)[i],
                                grid.slot_cos(slot)[i],
                                coords[p * dim + i],
                            )
                        } else {
                            (0.0, 0.0, 0.0) // padding lanes
                        };
                        assert_eq!(grid.lane_sin()[at].to_bits(), s.to_bits());
                        assert_eq!(grid.lane_cos()[at].to_bits(), c.to_bits());
                        assert_eq!(grid.lane_coords()[at].to_bits(), x.to_bits());
                    }
                }
            }
        }
        for round in 0..3u64 {
            check(&grid, &coords, n, dim);
            let moved = perturb(&mut coords, dim, round);
            grid.refresh(&exec, &coords, Some(&moved));
            check(&grid, &coords, n, dim);
        }
    }

    /// A suffix grid whose lane phase is set to the suffix's global slot
    /// base must drive `pair_term_cell` to bitwise the accumulation the
    /// full grid produces for the shared cells: lane-block boundaries
    /// line up, so the SIMD reduction associates identically. This is the
    /// invariant the sharded engine relies on for S=1 bitwise parity.
    #[test]
    fn phased_suffix_grid_matches_global_pair_term_bitwise() {
        use crate::kernels::{pair_term_cell, F64x4};
        let (n, dim) = (700, 3);
        let eps = 0.12;
        let g = GridGeometry::new(dim, eps, n, GridVariant::Auto);
        let exec = Executor::sequential();
        let coords = pseudo_cloud(n, dim);
        let full = CellGrid::build(&exec, g, &coords);
        let probe = row(&coords, dim, 0);
        let sin_p: Vec<f64> = probe.iter().map(|x| x.sin()).collect();
        let cos_p: Vec<f64> = probe.iter().map(|x| x.cos()).collect();
        let eps_sq = eps * eps;
        let mut phases_seen = [false; LANES];
        // split at cell boundaries, as the shard planner does
        for k in 1..full.num_cells().min(32) {
            let base = full.cell_starts[k] as usize;
            phases_seen[base % LANES] = true;
            // suffix points in ascending global index order (the member-
            // list order the sharded engine feeds its local grids)
            let mut idxs: Vec<u32> = full.cell_points[base..].to_vec();
            idxs.sort_unstable();
            let sub_coords: Vec<f64> = idxs
                .iter()
                .flat_map(|&p| {
                    coords[p as usize * dim..(p as usize + 1) * dim]
                        .iter()
                        .copied()
                })
                .collect();
            let mut sub = CellGrid::new(g);
            sub.set_lane_phase(base);
            sub.refresh(&exec, &sub_coords, None);
            assert_eq!(sub.num_cells(), full.num_cells() - k, "split at cell {k}");
            for c in 0..sub.num_cells() {
                let full_slots = full.cell_range(c + k);
                let sub_slots = sub.cell_range(c);
                assert_eq!(full_slots.len(), sub_slots.len());
                let mut acc_full = vec![F64x4::splat(0.0); dim];
                let hits_full = pair_term_cell::<0>(
                    full.lane_coords(),
                    full.lane_sin(),
                    full.lane_cos(),
                    dim,
                    full_slots.start,
                    full_slots.end,
                    probe,
                    &sin_p,
                    &cos_p,
                    eps_sq,
                    &mut acc_full,
                );
                let mut acc_sub = vec![F64x4::splat(0.0); dim];
                let phase = sub.lane_phase();
                let hits_sub = pair_term_cell::<0>(
                    sub.lane_coords(),
                    sub.lane_sin(),
                    sub.lane_cos(),
                    dim,
                    phase + sub_slots.start,
                    phase + sub_slots.end,
                    probe,
                    &sin_p,
                    &cos_p,
                    eps_sq,
                    &mut acc_sub,
                );
                assert_eq!(hits_full, hits_sub, "split {k} cell {c}");
                for i in 0..dim {
                    for j in 0..LANES {
                        assert_eq!(
                            acc_full[i].0[j].to_bits(),
                            acc_sub[i].0[j].to_bits(),
                            "split {k} cell {c} dim {i} lane {j}"
                        );
                    }
                }
            }
        }
        assert!(phases_seen.iter().all(|&s| s), "want every phase covered");
    }

    #[test]
    fn cell_grid_reach_covers_epsilon_ball() {
        let coords = pseudo_cloud(600, 2);
        let eps = 0.08;
        let g = GridGeometry::new(2, eps, 300, GridVariant::Auto);
        let grid = CellGrid::build(&Executor::sequential(), g, &coords);
        // every ε-neighbor of p must live in a cell enumerated by
        // for_each_cell_in_reach of p's outer cell
        for p_idx in [0usize, 57, 123, 299] {
            let p = row(&coords, 2, p_idx);
            let oid = g.outer_id_of_point(p);
            let mut seen = Vec::new();
            grid.for_each_cell_in_reach(oid, |c| seen.extend_from_slice(grid.cell_points(c)));
            for q_idx in 0..300 {
                if squared_euclidean(p, row(&coords, 2, q_idx)) <= eps * eps {
                    assert!(seen.contains(&(q_idx as u32)), "p={p_idx} misses q={q_idx}");
                }
            }
        }
    }

    /// Compacted cell `c`'s point MBR as `(lo, hi)` vectors.
    fn cell_mbr(grid: &CellGrid, c: usize) -> (Vec<f64>, Vec<f64>) {
        grid.mbr(c).unzip()
    }

    /// Drive one [`ReachMemo`] with a `LIST`-cell candidate list over
    /// every `stride`-th point of `grid` — in grid-sorted order (runs, as
    /// the update visits them), then in index order (the cell changes at
    /// almost every step) — at the grid's ε, flagging covered cells iff
    /// `use_summaries`. Each point must replay
    /// [`CellGrid::for_each_cell_in_reach`]'s visit sequence: the cells the
    /// scalar box distances (`GridGeometry::*_between_bounds`) keep for
    /// the run, flagged when covered, or every cell unflagged when the
    /// run's candidates overflow the list or its reach overflows the range
    /// list. Returns `(points checked, points whose reach overflowed the
    /// range list, points whose run overflowed the candidate list, reach
    /// cells judged [unreachable, straddling, covered])`.
    fn assert_memo_replays_walk<const LIST: usize>(
        grid: &CellGrid,
        coords: &[f64],
        stride: usize,
        use_summaries: bool,
    ) -> (usize, usize, usize, [usize; 3]) {
        let geo = *grid.geometry();
        let n = coords.len() / geo.dim;
        let eps_sq = geo.epsilon * geo.epsilon;
        // 0 unreachable, 1 straddling, 2 covered
        let verdict = |run: usize, c: usize| {
            let ((a_lo, a_hi), (b_lo, b_hi)) = (cell_mbr(grid, run), cell_mbr(grid, c));
            if GridGeometry::min_sq_dist_between_bounds(&a_lo, &a_hi, &b_lo, &b_hi) > eps_sq {
                0
            } else if use_summaries
                && GridGeometry::max_sq_dist_between_bounds(&a_lo, &a_hi, &b_lo, &b_hi) <= eps_sq
            {
                2
            } else {
                1
            }
        };
        let mut memo = ReachMemo::<LIST>::new(grid, eps_sq, use_summaries);
        let (mut walked, mut replayed) = (Vec::new(), Vec::new());
        let (mut checked, mut overflowed, mut list_overflowed) = (0, 0, 0);
        let mut kinds = [0; 3];
        let sorted = grid.point_order().iter().map(|&p| p as usize);
        for p_idx in sorted.step_by(stride).chain((0..n).step_by(stride)) {
            let run = grid.point_cell()[p_idx] as usize;
            let oid = geo.outer_id_of_point(row(coords, geo.dim, p_idx));
            walked.clear();
            replayed.clear();
            grid.for_each_cell_in_reach(oid, |c| walked.push(c));
            memo.for_each_candidate(run, |batch| replayed.push(batch.to_vec()));
            let verdicts: Vec<usize> = walked.iter().map(|&c| verdict(run, c)).collect();
            for &v in &verdicts {
                kinds[v] += 1;
            }
            let kept: Vec<(u32, bool)> = walked
                .iter()
                .zip(&verdicts)
                .filter(|&(_, &v)| v > 0)
                .map(|(&c, &v)| (c as u32, v == 2))
                .collect();
            let fits = !memo.overflow && kept.len() <= LIST;
            assert_eq!(memo.list_overflow, !fits, "point {p_idx}");
            // the whole list in one call, or each reach cell alone
            let want: Vec<Vec<(u32, bool)>> = if fits {
                vec![kept]
            } else {
                walked.iter().map(|&c| vec![(c as u32, false)]).collect()
            };
            assert_eq!(replayed, want, "point {p_idx} (outer cell {oid})");
            checked += 1;
            overflowed += usize::from(memo.overflow);
            list_overflowed += usize::from(memo.list_overflow);
        }
        (checked, overflowed, list_overflowed, kinds)
    }

    #[test]
    fn reach_memo_replays_the_walk_for_every_point() {
        let exec = Executor::sequential();
        // (dim, eps, variant, points): Auto picks d' = 2 here; Sequential
        // walks one bucket; the rest enumerate offsets over many occupied
        // outer cells
        let mut mixed = false;
        let mut kinds = [0; 3];
        for (dim, eps, variant, n) in [
            (2, 0.05, GridVariant::Auto, 3000),
            (2, 0.05, GridVariant::Sequential, 600),
            (2, 0.05, GridVariant::RandomAccess, 3000),
            (3, 0.03, GridVariant::Mixed(1), 1500),
        ] {
            let coords = pseudo_cloud(n, dim);
            let grid = CellGrid::build(&exec, GridGeometry::new(dim, eps, n, variant), &coords);
            let occupied = grid.outer_index.len();
            assert!(
                occupied > 64 || grid.geometry().outer_dims == 0,
                "{variant:?}"
            );
            for use_summaries in [true, false] {
                let (checked, overflowed, list_overflowed, seen) =
                    assert_memo_replays_walk::<RUN_LIST>(&grid, &coords, 1, use_summaries);
                assert_eq!(
                    (checked, overflowed, list_overflowed),
                    (2 * n, 0, 0),
                    "{variant:?}"
                );
                assert!(use_summaries || seen[2] == 0, "covered without summaries");
                for k in 0..3 {
                    kinds[k] += seen[k];
                }
            }
            // a short candidate list: the replay must hold both for runs
            // that fit it and for runs that overflow it
            let (checked, _, list_overflowed, _) =
                assert_memo_replays_walk::<8>(&grid, &coords, 1, true);
            assert!(list_overflowed > 0, "{variant:?}");
            mixed |= list_overflowed < checked;
        }
        assert!(mixed, "no grid mixes fitting and overflowing runs");
        assert!(
            kinds.iter().all(|&k| k > 0),
            "verdict kinds seen: {kinds:?}"
        );

        // few occupied outer cells: the sorted-occupancy replay path
        let coords = pseudo_cloud(40, 2);
        let g = GridGeometry::new(2, 0.05, 40, GridVariant::RandomAccess);
        let grid = CellGrid::build(&exec, g, &coords);
        let v = g.surround_per_dim();
        assert!(grid.outer_index.len() <= 64 && grid.outer_index.len() < v * v);
        let (checked, overflowed, list_overflowed, _) =
            assert_memo_replays_walk::<RUN_LIST>(&grid, &coords, 1, true);
        assert_eq!((checked, overflowed, list_overflowed), (80, 0, 0));

        // a reach with more non-empty outer cells than the memo holds: a
        // 4-d lattice, one point per cell, every cell within the reach
        // (±5 cells at d = 4) of the lattice's center cell but not of its
        // corners. Each walk enumerates 11⁴ offsets, so only a spread of
        // points is checked, mixing overflowing and fitting reaches.
        let g = GridGeometry::new(4, 0.2, 4374, GridVariant::RandomAccess);
        assert_eq!(g.reach, 5);
        let side = [9usize, 9, 9, 6];
        let mut coords = Vec::new();
        for a in 0..side[0] {
            for b in 0..side[1] {
                for c in 0..side[2] {
                    for d in 0..side[3] {
                        for k in [a, b, c, d] {
                            coords.push((k + 5) as f64 * g.cell_width + g.cell_width / 2.0);
                        }
                    }
                }
            }
        }
        assert!(coords.len() / 4 > MAX_SURROUND_ENUM);
        let grid = CellGrid::build(&exec, g, &coords);
        let (checked, overflowed, _, _) =
            assert_memo_replays_walk::<RUN_LIST>(&grid, &coords, 97, true);
        assert!(
            0 < overflowed && overflowed < checked,
            "{overflowed} of {checked} overflowed"
        );
    }

    /// The lane-blocked MBR table of `boxes`, one `(lo, hi)` per cell.
    fn mbr_table(boxes: &[(Vec<f64>, Vec<f64>)], dim: usize) -> Vec<f64> {
        let bs = 2 * dim * LANES;
        let mut table = vec![0.0; boxes.len().div_ceil(LANES) * bs];
        for (c, (lo, hi)) in boxes.iter().enumerate() {
            let at = c / LANES * bs + c % LANES;
            for i in 0..dim {
                table[at + i * LANES] = lo[i];
                table[at + (dim + i) * LANES] = hi[i];
            }
        }
        table
    }

    /// [`CellGrid::classify_reach`]'s candidates, one cell at a time
    /// through the scalar `GridGeometry::*_between_bounds`.
    fn scalar_verdicts(
        boxes: &[(Vec<f64>, Vec<f64>)],
        run: usize,
        ranges: &[(u32, u32)],
        eps_sq: f64,
        use_summaries: bool,
    ) -> Vec<(u32, bool)> {
        let (a_lo, a_hi) = &boxes[run];
        let mut out = Vec::new();
        for &(lo, hi) in ranges {
            for c in lo..hi {
                let (b_lo, b_hi) = &boxes[c as usize];
                if GridGeometry::min_sq_dist_between_bounds(a_lo, a_hi, b_lo, b_hi) > eps_sq {
                    continue;
                }
                let covered = use_summaries
                    && GridGeometry::max_sq_dist_between_bounds(a_lo, a_hi, b_lo, b_hi) <= eps_sq;
                out.push((c, covered));
            }
        }
        out
    }

    #[test]
    fn classify_reach_matches_the_scalar_box_distances_bitwise() {
        use rand::{Rng, SeedableRng, StdRng};
        const CELLS: usize = 23;
        let mut rng = StdRng::seed_from_u64(0xb10c);
        // reach ranges: everything, one cell, ranges that start or end
        // mid-block, adjacent ranges sharing a block
        let range_sets: [&[(u32, u32)]; 5] = [
            &[(0, CELLS as u32)],
            &[(6, 7)],
            &[(1, 3), (5, 10), (13, 22)],
            &[(3, 4), (4, 9), (9, 13)],
            &[(0, 4), (17, 18), (20, 23)],
        ];
        for dim in 1..=12 {
            for round in 0..8 {
                // the run box, and boxes around it: single points, boxes
                // touching it, boxes with signed-zero faces, random ones
                let mut boxes: Vec<(Vec<f64>, Vec<f64>)> = Vec::with_capacity(CELLS);
                let pool = [0.0f64, -0.0, 0.25, 0.5];
                for c in 0..CELLS {
                    let (mut lo, mut hi) = (vec![0.0; dim], vec![0.0; dim]);
                    for i in 0..dim {
                        let (x, y) = match (c + round) % 4 {
                            0 => {
                                let x = pool[rng.gen_range(0..pool.len())];
                                (x, x)
                            }
                            1 if c > 0 => {
                                // touching cell 0's high face
                                let face = boxes[0].1[i];
                                (face, face + rng.gen_range(0.0..0.1))
                            }
                            2 => (-0.0, pool[rng.gen_range(0..pool.len())].abs()),
                            _ => {
                                let x = rng.gen_range(-0.3..0.6);
                                (x, x + rng.gen_range(0.0..0.2))
                            }
                        };
                        (lo[i], hi[i]) = (x, y);
                    }
                    boxes.push((lo, hi));
                }
                // a grid holding nothing but these boxes' MBR table
                let mut grid = CellGrid::new(GridGeometry::new(dim, 0.1, CELLS, GridVariant::Auto));
                grid.cell_bounds = mbr_table(&boxes, dim);
                for run in [0, 5, CELLS - 1] {
                    // radii at the box distances of a few cells, and one
                    // ulp either side of them
                    let mut radii = vec![0.0, rng.gen_range(0.0..0.5)];
                    for c in [1, 2, 7, 11, 19] {
                        let ((a_lo, a_hi), (b_lo, b_hi)) = (&boxes[run], &boxes[c]);
                        for r in [
                            GridGeometry::min_sq_dist_between_bounds(a_lo, a_hi, b_lo, b_hi),
                            GridGeometry::max_sq_dist_between_bounds(a_lo, a_hi, b_lo, b_hi),
                        ] {
                            radii.extend([r, r.next_up(), r.next_down()]);
                        }
                    }
                    for (&eps_sq, ranges) in radii.iter().zip(range_sets.iter().cycle()) {
                        for use_summaries in [true, false] {
                            let want = scalar_verdicts(&boxes, run, ranges, eps_sq, use_summaries);
                            for use_avx2 in [false, true] {
                                let case = format!(
                                    "dim {dim} round {round} run {run} eps² {eps_sq:e} \
                                     {ranges:?} summaries={use_summaries} avx2={use_avx2}"
                                );
                                let classify = |list: &mut [(u32, bool)]| {
                                    grid.classify_reach(
                                        run,
                                        ranges,
                                        eps_sq,
                                        use_summaries,
                                        list,
                                        use_avx2,
                                    )
                                };
                                let mut list = [(0, false); CELLS];
                                let len = classify(&mut list).expect("23 cells fit");
                                assert_eq!(&list[..len], &want[..], "{case}");
                                // a list exactly as long fits, one shorter
                                // overflows
                                let mut exact = vec![(0, false); want.len()];
                                assert_eq!(classify(&mut exact), Some(want.len()), "{case}");
                                if let Some(short) = want.len().checked_sub(1) {
                                    let mut short = vec![(0, false); short];
                                    assert_eq!(classify(&mut short), None, "{case}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cell_grid_empty_input() {
        let g = GridGeometry::new(2, 0.05, 0, GridVariant::Auto);
        let grid = CellGrid::build(&Executor::new(Some(4)), g, &[]);
        assert_eq!(grid.num_cells(), 0);
        assert!(grid.point_cell().is_empty());
        let mut visited = 0;
        grid.for_each_cell_in_reach(0, |_| visited += 1);
        assert_eq!(visited, 0);
    }

    /// Move roughly a quarter of the points — some by a hair (staying in
    /// their cell), some across cell boundaries — returning the flags.
    fn perturb(coords: &mut [f64], dim: usize, round: u64) -> Vec<bool> {
        let n = coords.len() / dim;
        let mut moved = vec![false; n];
        for (p, flag) in moved.iter_mut().enumerate() {
            let h = (p as u64 ^ round.wrapping_mul(0x9e3779b97f4a7c15)).wrapping_mul(2654435761);
            if h.is_multiple_of(4) {
                let delta = if h.is_multiple_of(8) { 0.0005 } else { 0.06 };
                for i in 0..dim {
                    let x = &mut coords[p * dim + i];
                    *x = (*x + delta).fract();
                }
                *flag = true;
            }
        }
        moved
    }

    #[test]
    fn incremental_refresh_is_bitwise_identical_to_rebuild() {
        let (n, dim) = (800, 3);
        let g = GridGeometry::new(dim, 0.12, n, GridVariant::Auto);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for workers in [1usize, 2, 3, 8] {
            let exec = Executor::new(Some(workers));
            let mut coords = pseudo_cloud(n, dim);
            let mut grid = CellGrid::new(g);
            let stats = grid.refresh(&exec, &coords, None);
            assert!(stats.full_rebuild, "first refresh has no prior state");
            for round in 0..6u64 {
                let moved = perturb(&mut coords, dim, round);
                let stats = grid.refresh(&exec, &coords, Some(&moved));
                assert!(!stats.full_rebuild, "workers {workers} round {round}");
                assert_eq!(
                    stats.moved_points,
                    moved.iter().filter(|&&m| m).count() as u64
                );
                let fresh = CellGrid::build(&Executor::sequential(), g, &coords);
                let tag = format!("workers {workers} round {round}");
                assert_eq!(grid.cell_keys, fresh.cell_keys, "{tag}");
                assert_eq!(grid.cell_starts, fresh.cell_starts, "{tag}");
                assert_eq!(grid.cell_points, fresh.cell_points, "{tag}");
                assert_eq!(grid.point_cell, fresh.point_cell, "{tag}");
                assert_eq!(grid.point_slot, fresh.point_slot, "{tag}");
                assert_eq!(grid.outer_index, fresh.outer_index, "{tag}");
                // summaries and trig tables bitwise, not merely close
                assert_eq!(bits(&grid.trig_sums), bits(&fresh.trig_sums), "{tag}");
                assert_eq!(bits(&grid.point_trig), bits(&fresh.point_trig), "{tag}");
                assert_eq!(bits(&grid.cell_bounds), bits(&fresh.cell_bounds), "{tag}");
            }
        }
    }

    /// The lane-blocked MBRs hold each cell's tight point bounds in its
    /// lane, zeros in the pad lanes past the last cell, and the in-place
    /// distance reads give `GridGeometry`'s box distances bit for bit.
    #[test]
    fn cell_bounds_are_tight_point_mbrs() {
        let dim = 3;
        let coords = pseudo_cloud(290, dim);
        let g = GridGeometry::new(dim, 0.12, 100, GridVariant::Auto);
        let grid = CellGrid::build(&Executor::new(Some(4)), g, &coords);
        let num_cells = grid.num_cells();
        assert!(
            num_cells > 1 && !num_cells.is_multiple_of(LANES),
            "{num_cells} cells"
        );
        assert_eq!(
            grid.cell_bounds.len(),
            num_cells.div_ceil(LANES) * 2 * dim * LANES
        );
        let probes = [[0.5, 0.5, 0.5], [0.0, 1.0, 0.25], [0.31, 0.07, 0.9]];
        for c in 0..num_cells {
            let (lo, hi) = cell_mbr(&grid, c);
            for i in 0..dim {
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                for &p in grid.cell_points(c) {
                    min = min.min(coords[p as usize * dim + i]);
                    max = max.max(coords[p as usize * dim + i]);
                }
                assert_eq!(lo[i].to_bits(), min.to_bits(), "cell {c} dim {i}");
                assert_eq!(hi[i].to_bits(), max.to_bits(), "cell {c} dim {i}");
            }
            let first = row(&coords, dim, grid.cell_points(c)[0] as usize);
            for p in probes.iter().map(|p| &p[..]).chain([first]) {
                assert_eq!(
                    grid.min_sq_dist_to_cell(c, p).to_bits(),
                    GridGeometry::min_sq_dist_to_bounds(p, &lo, &hi).to_bits()
                );
                assert_eq!(
                    grid.max_sq_dist_to_cell(c, p).to_bits(),
                    GridGeometry::max_sq_dist_to_bounds(p, &lo, &hi).to_bits()
                );
            }
        }
        for c in num_cells..num_cells.next_multiple_of(LANES) {
            assert!(grid.mbr(c).all(|(lo, hi)| lo == 0.0 && hi == 0.0));
        }
    }

    #[test]
    fn refresh_without_movers_recomputes_nothing() {
        let exec = Executor::new(Some(4));
        let coords = pseudo_cloud(300, 2);
        let g = GridGeometry::new(2, 0.05, 300, GridVariant::Auto);
        let mut grid = CellGrid::new(g);
        grid.refresh(&exec, &coords, None);
        let stats = grid.refresh(&exec, &coords, Some(&vec![false; 300]));
        assert_eq!(
            stats,
            GridRefreshStats {
                moved_points: 0,
                rebinned_points: 0,
                dirty_cells: 0,
                full_rebuild: false,
            }
        );
    }

    #[test]
    fn refresh_with_stale_flags_falls_back_to_rebuild() {
        let exec = Executor::new(Some(2));
        let coords = pseudo_cloud(200, 2);
        let g = GridGeometry::new(2, 0.05, 200, GridVariant::Auto);
        let mut grid = CellGrid::new(g);
        // no prior state → rebuild even with flags supplied
        let stats = grid.refresh(&exec, &coords, Some(&[false; 200]));
        assert!(stats.full_rebuild);
        // wrong flag length → rebuild
        let stats = grid.refresh(&exec, &coords, Some(&[false; 199]));
        assert!(stats.full_rebuild);
    }
}
