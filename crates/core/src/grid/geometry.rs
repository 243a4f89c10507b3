//! Shared cell math for every grid variant.

use serde::Serialize;

use crate::model::delta;

/// Which outer-grid dimensionality the mixed structure uses (§4.2.2–4.2.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum GridVariant {
    /// Pick the largest `d'` with `w^{d'} ≤ max(n·d, 64)` — the paper's
    /// mixed-access heuristic. The default.
    Auto,
    /// `d' = 0`: the sequential-access structure of §4.2.3.
    Sequential,
    /// `d' = d`: the random-access structure of §4.2.2. Construction
    /// panics if the dense directory would exceed the hard cell cap.
    RandomAccess,
    /// Explicit `d'` (clamped to `d`).
    Mixed(usize),
}

/// Hard cap on dense outer-directory cells (2²⁴ ≈ 16.7M, 128 MiB of u64
/// counters) — the memory-feasibility line for [`GridVariant::RandomAccess`].
pub const MAX_OUTER_CELLS: usize = 1 << 24;

/// Cap on the surround-enumeration volume `v^{d'}` (`v = 2·reach + 1`)
/// that [`GridVariant::Auto`] will accept. Every reach walk — the update
/// kernel, the preGrid build, the incremental skip marking — enumerates
/// `v^{d'}` outer offsets per cell or point, so past a few thousand ids
/// the directory's pruning no longer pays for its own enumeration. At
/// high `d` the paper's pure-memory heuristic `w^{d'} ≤ n·d` keeps
/// growing `d'` long after `v^{d'}` has exploded (d = 20, ε = 0.05 gives
/// v = 21, so `d' = 3` already walks 9261 offsets per point); this cap is
/// what keeps the mixed structure usable across the paper's d = 2–20
/// envelope.
pub const MAX_SURROUND_ENUM: usize = 4096;

/// Cell geometry shared by grid construction, the update kernel, the
/// termination check and the gatherer. `Copy`, so kernel closures can
/// capture it by value the way CUDA kernels take it by parameter.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct GridGeometry {
    /// Point dimensionality `d`.
    pub dim: usize,
    /// Neighborhood radius ε.
    pub epsilon: f64,
    /// Cell width `c_w = ε/(2√d)` — cell diagonal exactly ε/2.
    pub cell_width: f64,
    /// Cells per dimension, `w = ⌈1/c_w⌉`.
    pub width: usize,
    /// Outer-grid dimensionality `d'`.
    pub outer_dims: usize,
    /// Dense outer-directory size `m = w^{d'}`.
    pub outer_cells: usize,
    /// Cell-index radius covering ε+δ: surrounding cells per dimension are
    /// `c ± reach` (the paper's `v = 2·reach + 1`).
    pub reach: usize,
}

impl GridGeometry {
    /// Build the geometry for `n` points of dimensionality `dim` under
    /// radius `epsilon`, choosing `d'` per `variant`.
    ///
    /// # Panics
    /// Panics if `dim == 0`, `epsilon <= 0`, or `variant` is
    /// `RandomAccess` and the dense directory would exceed
    /// [`MAX_OUTER_CELLS`].
    pub fn new(dim: usize, epsilon: f64, n: usize, variant: GridVariant) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        assert!(epsilon > 0.0, "epsilon must be positive");
        assert!(epsilon.is_finite(), "epsilon must be finite");
        let cell_width = epsilon / (2.0 * (dim as f64).sqrt());
        // Degenerate-domain guard: a non-finite or absurdly small ε would
        // truncate `w = ⌈1/c_w⌉` to 0 (every cell_coord clamp then panics
        // deep in the kernels) or saturate it past any allocatable
        // directory. Normalized data collapses zero-extent dimensions to
        // the constant 0.0, which is fine — every point lands in cell 0 of
        // that dimension and `w` stays 1-or-more — so the only way to a
        // zero- or overflow-width grid is a broken ε; reject it here with
        // a message naming the parameter instead of panicking mid-kernel.
        let width_f = (1.0 / cell_width).ceil();
        assert!(
            width_f >= 1.0 && width_f <= u32::MAX as f64,
            "epsilon {epsilon} yields a degenerate grid ({width_f} cells \
             per dimension on the unit domain); expected 1..=u32::MAX"
        );
        let width = width_f as usize;
        let reach = ((epsilon + delta(epsilon)) / cell_width).ceil() as usize;

        // Auto's directory budget is the paper's `w^{d'} ≤ n·d`, clamped to
        // the hard directory cap so the heuristic can never select a `d'`
        // the construction below would refuse (reachable on the paper
        // envelope: n = 1M, d = 20 gives a 20M budget > MAX_OUTER_CELLS).
        let budget = (n.saturating_mul(dim)).clamp(64, MAX_OUTER_CELLS);
        let v = 2 * reach + 1;
        let outer_dims = match variant {
            GridVariant::Sequential => 0,
            GridVariant::RandomAccess => dim,
            GridVariant::Mixed(d_prime) => d_prime.min(dim),
            GridVariant::Auto => {
                let mut d_prime = 0usize;
                let mut cells = 1usize;
                let mut surround = 1usize;
                while d_prime < dim {
                    let next_surround = surround.checked_mul(v);
                    match (cells.checked_mul(width), next_surround) {
                        (Some(next), Some(ns)) if next <= budget && ns <= MAX_SURROUND_ENUM => {
                            cells = next;
                            surround = ns;
                            d_prime += 1;
                        }
                        _ => break,
                    }
                }
                d_prime
            }
        };
        let mut outer_cells = 1usize;
        for _ in 0..outer_dims {
            outer_cells = outer_cells
                .checked_mul(width)
                .filter(|&m| m <= MAX_OUTER_CELLS)
                .unwrap_or_else(|| {
                    panic!(
                        "outer directory w^d' = {width}^{outer_dims} exceeds the \
                         {MAX_OUTER_CELLS}-cell cap; use GridVariant::Auto or Mixed"
                    )
                });
        }
        Self {
            dim,
            epsilon,
            cell_width,
            width,
            outer_dims,
            outer_cells,
            reach,
        }
    }

    /// Per-dimension cell coordinate of scalar `x ∈ [0, 1]` (values at the
    /// upper boundary land in the last cell).
    #[inline]
    pub fn cell_coord(&self, x: f64) -> u64 {
        let c = (x / self.cell_width) as i64;
        c.clamp(0, self.width as i64 - 1) as u64
    }

    /// Write the full-dimensional cell coordinates of point `p` into `out`.
    #[inline]
    pub fn cell_coords_of(&self, p: &[f64], out: &mut [u64]) {
        debug_assert_eq!(p.len(), self.dim);
        for (o, &x) in out.iter_mut().zip(p) {
            *o = self.cell_coord(x);
        }
    }

    /// Dense outer-directory index of point `p` (row-major over the first
    /// `d'` cell coordinates; 0 when `d' = 0`).
    #[inline]
    pub fn outer_id_of_point(&self, p: &[f64]) -> usize {
        let mut id = 0usize;
        for i in 0..self.outer_dims {
            id = id * self.width + self.cell_coord(p[i]) as usize;
        }
        id
    }

    /// Dense outer-directory index from full-dimensional cell coordinates.
    #[inline]
    pub fn outer_id_of_coords(&self, coords: &[u64]) -> usize {
        let mut id = 0usize;
        for i in 0..self.outer_dims {
            id = id * self.width + coords[i] as usize;
        }
        id
    }

    /// Decode a dense outer id back into its `d'` cell coordinates.
    #[inline]
    pub fn outer_coords_of_id(&self, mut id: usize, out: &mut [u64]) {
        for i in (0..self.outer_dims).rev() {
            out[i] = (id % self.width) as u64;
            id /= self.width;
        }
    }

    /// Squared distance from `p` to the closest point of the axis-aligned
    /// box `[lo, hi]` (0 when `p` is inside). With a cell's *point* MBR as
    /// the box this is a tighter — still conservative — edition of the
    /// distance to the cell's grid box: the points are inside the MBR, so
    /// a cell whose MBR lies beyond ε provably holds no neighbor.
    #[inline]
    pub fn min_sq_dist_to_bounds(p: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        min_sq_dist_to_box(p, lo.iter().copied().zip(hi.iter().copied()))
    }

    /// Squared distance from `p` to the farthest point of the box
    /// `[lo, hi]` — the MBR edition of Algorithm 3's "cell fully within the
    /// ε-ball" test. When this is ≤ ε² every point of the cell is within ε
    /// of `p` (points ⊆ MBR), so consuming the cell's Σsin/Σcos summary
    /// stays **exact** even though the grid box itself straddles the
    /// ε-ball. This is what collapses the pair term on tightly clustered
    /// data, where late-stage cells hold near-coincident points whose
    /// spread is far below the cell width.
    #[inline]
    pub fn max_sq_dist_to_bounds(p: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        max_sq_dist_to_box(p, lo.iter().copied().zip(hi.iter().copied()))
    }

    /// Squared distance between the closest points of the boxes
    /// `[a_lo, a_hi]` and `[b_lo, b_hi]`: a lower bound, in computed bits,
    /// on [`GridGeometry::min_sq_dist_to_bounds`]`(p, b_lo, b_hi)` for
    /// every `p` inside box `a`. Per dimension the gap is
    /// `max(b_lo − a_hi, a_lo − b_hi, 0)`, which is `p`'s gap
    /// `max(b_lo − p, p − b_hi, 0)` with `a_hi ≥ p` and `a_lo ≤ p` in
    /// `p`'s place. Rounding is monotone, so each computed term is at most
    /// `p`'s, and the squares and the sum, taken in the same order, keep
    /// that. A box `b` this far beyond `r²` is beyond `r²` from every `p`
    /// of `a` under the very comparison a per-point test makes.
    ///
    /// The scalar oracle of [`super::CellGrid::classify_reach`], whose lanes
    /// compute the same fold four cells at a time.
    #[cfg(test)]
    pub(crate) fn min_sq_dist_between_bounds(
        a_lo: &[f64],
        a_hi: &[f64],
        b_lo: &[f64],
        b_hi: &[f64],
    ) -> f64 {
        let mut acc = 0.0;
        for (((&al, &ah), &bl), &bh) in a_lo.iter().zip(a_hi).zip(b_lo).zip(b_hi) {
            let d = larger(larger(bl - ah, al - bh), 0.0);
            acc += d * d;
        }
        acc
    }

    /// Squared distance between the farthest points of the boxes
    /// `[a_lo, a_hi]` and `[b_lo, b_hi]`: an upper bound, in computed bits,
    /// on [`GridGeometry::max_sq_dist_to_bounds`]`(p, b_lo, b_hi)` for
    /// every `p` inside box `a`. Per dimension the far side is
    /// `max(a_hi − b_lo, b_hi − a_lo)`; with `a_lo ≤ p ≤ a_hi` and
    /// `b_lo ≤ b_hi`, monotone rounding puts both `|p − b_lo|` and
    /// `|p − b_hi|` at or below it. A box `b` within `r²` of this is
    /// within `r²` of every `p` of `a`. The scalar oracle of
    /// [`super::CellGrid::classify_reach`], like its `min` twin.
    #[cfg(test)]
    pub(crate) fn max_sq_dist_between_bounds(
        a_lo: &[f64],
        a_hi: &[f64],
        b_lo: &[f64],
        b_hi: &[f64],
    ) -> f64 {
        let mut acc = 0.0;
        for (((&al, &ah), &bl), &bh) in a_lo.iter().zip(a_hi).zip(b_lo).zip(b_hi) {
            let d = larger(ah - bl, bh - al);
            acc += d * d;
        }
        acc
    }

    /// Number of surrounding outer cells per dimension (`v = 2·reach + 1`).
    #[inline]
    pub fn surround_per_dim(&self) -> usize {
        2 * self.reach + 1
    }

    /// Enumerate the dense ids of all in-bounds outer cells within `reach`
    /// of the outer cell `oid` (including `oid` itself), invoking `f` for
    /// each. With `d' = 0` this is just the single bucket.
    pub fn for_each_surrounding_outer(&self, oid: usize, mut f: impl FnMut(usize)) {
        if self.outer_dims == 0 {
            f(0);
            return;
        }
        let mut base = [0u64; 64];
        self.outer_coords_of_id(oid, &mut base[..self.outer_dims]);
        let v = self.surround_per_dim();
        let total = v.pow(self.outer_dims as u32);
        'offsets: for k in 0..total {
            let mut rem = k;
            let mut id = 0usize;
            for i in 0..self.outer_dims {
                let off = (rem % v) as i64 - self.reach as i64;
                rem /= v;
                let c = base[i] as i64 + off;
                if c < 0 || c >= self.width as i64 {
                    continue 'offsets;
                }
                id = id * self.width + c as usize;
            }
            f(id);
        }
    }
}

/// [`GridGeometry::min_sq_dist_to_bounds`] over a box given as one
/// `(lo_i, hi_i)` pair per dimension: the fold the lane-blocked cell MBRs
/// of [`super::CellGrid`] are read through too, so both give the same
/// bits.
#[inline(always)]
pub(crate) fn min_sq_dist_to_box(p: &[f64], bounds: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut acc = 0.0;
    for (&x, (lo, hi)) in p.iter().zip(bounds) {
        let d = gap(x, lo, hi);
        acc += d * d;
    }
    acc
}

/// [`GridGeometry::max_sq_dist_to_bounds`] over a box given as one
/// `(lo_i, hi_i)` pair per dimension, like [`min_sq_dist_to_box`].
#[inline(always)]
pub(crate) fn max_sq_dist_to_box(p: &[f64], bounds: impl Iterator<Item = (f64, f64)>) -> f64 {
    let mut acc = 0.0;
    for (&x, (lo, hi)) in p.iter().zip(bounds) {
        let d = (x - lo).abs().max((x - hi).abs());
        acc += d * d;
    }
    acc
}

/// Distance from `x` to the interval `[lo, hi]`, 0 inside it. Branch-free:
/// for finite input with `lo ≤ hi` at most one of `lo − x` and `x − hi` is
/// positive, so `max(lo − x, x − hi, 0)` picks the value the tests `x < lo`
/// and `x > hi` would pick, up to the sign of a zero, which squares away.
#[inline]
fn gap(x: f64, lo: f64, hi: f64) -> f64 {
    larger(larger(lo - x, x - hi), 0.0)
}

/// The larger of `a` and `b` as one compare-and-select, a single `maxsd`
/// on x86-64 where `f64::max`'s NaN rule costs five more instructions.
/// It differs from `f64::max` only on NaN input and in the sign of a zero
/// result.
#[inline]
fn larger(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// Partition of the leading cell dimension into `S` contiguous shard
/// regions with ε-halo ghost zones — the domain decomposition behind
/// `UpdateOptions::num_shards`.
///
/// Shard `s` **owns** leading cell coordinates `[s·w/S, (s+1)·w/S)`
/// (integer fenceposts, so owned ranges tile `0..w` exactly and every
/// cell has one owner). Its **resident** (member) range widens by
/// `reach` cells on each side — precisely the leading-coordinate radius
/// the update kernel's reach walk can touch from an owned cell, so a
/// shard grid built over its residents sees bit-identical neighborhoods
/// for every owned point.
///
/// The requested shard count is clamped to `[1, w]`: with at most one
/// shard per leading slab every owned range is non-empty, and a
/// degenerate domain (all points sharing their leading coordinate, or a
/// huge ε collapsing the dimension to a single cell) degrades to the
/// single-grid path instead of manufacturing empty shards.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Effective shard count after clamping.
    count: usize,
    /// Cells per dimension of the underlying geometry.
    width: usize,
    /// ε+δ cell reach of the underlying geometry.
    reach: usize,
    /// `count + 1` ownership fenceposts: shard `s` owns `bounds[s]..bounds[s+1]`.
    bounds: Vec<u64>,
}

impl ShardPlan {
    /// Plan `requested` shards over `geometry`'s leading dimension.
    pub fn new(geometry: &GridGeometry, requested: usize) -> Self {
        let count = requested.clamp(1, geometry.width);
        let bounds = (0..=count)
            .map(|s| (s * geometry.width / count) as u64)
            .collect();
        Self {
            count,
            width: geometry.width,
            reach: geometry.reach,
            bounds,
        }
    }

    /// Effective shard count (requested count clamped to the grid width).
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Leading-coordinate range owned by shard `s`, half-open.
    #[inline]
    pub fn owned(&self, s: usize) -> std::ops::Range<u64> {
        self.bounds[s]..self.bounds[s + 1]
    }

    /// Resident (owned + ε-halo) leading-coordinate range of shard `s`.
    ///
    /// The halo is `reach + 1` cells wide, not `reach`: `reach` covers
    /// every cell the update's surround walk visits, but the sequential
    /// variant's termination scan walks *all* cells and prunes on
    /// `min_dist > ε+δ` — a cell exactly `reach + 1` steps out can sit at
    /// box distance exactly `ε+δ` when `c_w` divides `ε+δ`, surviving the
    /// strict prune. One guard cell keeps every cell the single-grid scan
    /// can touch resident; at `reach + 2` steps the minimum distance
    /// exceeds `ε+δ` by a full cell width, beyond any rounding slack.
    #[inline]
    pub fn resident(&self, s: usize) -> std::ops::Range<u64> {
        let halo = self.reach as u64 + 1;
        let lo = self.bounds[s].saturating_sub(halo);
        let hi = (self.bounds[s + 1] + halo).min(self.width as u64);
        lo..hi
    }

    /// Whether leading coordinate `c0` lies in shard `s`'s resident range.
    #[inline]
    pub fn is_resident(&self, s: usize, c0: u64) -> bool {
        self.resident(s).contains(&c0)
    }

    /// The shard owning leading coordinate `c0`.
    #[inline]
    pub fn owner_of(&self, c0: u64) -> usize {
        debug_assert!(c0 < self.width as u64);
        // bounds is sorted; the owner is the last fencepost at or below c0.
        self.bounds[1..self.count].partition_point(|&b| b <= c0)
    }

    /// Invoke `f` for every shard whose resident range contains `c0`.
    #[inline]
    pub fn for_each_resident_shard(&self, c0: u64, mut f: impl FnMut(usize)) {
        for s in 0..self.count {
            if self.is_resident(s, c0) {
                f(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng, StdRng};

    #[test]
    fn cell_diagonal_is_at_most_half_epsilon() {
        for dim in [1, 2, 3, 8, 32] {
            for eps in [0.01, 0.05, 0.3] {
                let g = GridGeometry::new(dim, eps, 1000, GridVariant::Auto);
                let diagonal = (dim as f64).sqrt() * g.cell_width;
                assert!(
                    diagonal <= eps / 2.0 + 1e-12,
                    "diagonal {diagonal} > ε/2 for d={dim}, ε={eps}"
                );
            }
        }
    }

    #[test]
    fn reach_covers_epsilon_plus_delta() {
        let g = GridGeometry::new(2, 0.05, 1000, GridVariant::Auto);
        assert!(g.reach as f64 * g.cell_width >= g.epsilon + delta(g.epsilon));
    }

    #[test]
    fn cell_coord_clamps_boundaries() {
        let g = GridGeometry::new(2, 0.05, 1000, GridVariant::Auto);
        assert_eq!(g.cell_coord(0.0), 0);
        assert_eq!(g.cell_coord(1.0), g.width as u64 - 1);
        assert_eq!(g.cell_coord(-0.1), 0); // defensive clamp
        assert_eq!(g.cell_coord(1.1), g.width as u64 - 1);
    }

    #[test]
    fn outer_id_roundtrip() {
        let g = GridGeometry::new(3, 0.1, 100_000, GridVariant::Mixed(2));
        assert_eq!(g.outer_dims, 2);
        for oid in [0, 1, g.width, g.outer_cells - 1] {
            let mut coords = [0u64; 3];
            g.outer_coords_of_id(oid, &mut coords[..2]);
            assert_eq!(g.outer_id_of_coords(&coords), oid);
        }
    }

    #[test]
    fn variant_dimensionalities() {
        let n = 10_000;
        assert_eq!(
            GridGeometry::new(4, 0.05, n, GridVariant::Sequential).outer_dims,
            0
        );
        assert_eq!(
            GridGeometry::new(2, 0.05, n, GridVariant::RandomAccess).outer_dims,
            2
        );
        let auto = GridGeometry::new(16, 0.05, n, GridVariant::Auto);
        assert!(auto.outer_dims < 16);
        assert!(auto.outer_cells <= (n * 16).max(64));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn random_access_infeasible_in_high_dim() {
        GridGeometry::new(16, 0.05, 10_000, GridVariant::RandomAccess);
    }

    #[test]
    fn sequential_variant_has_single_bucket() {
        let g = GridGeometry::new(5, 0.05, 1000, GridVariant::Sequential);
        assert_eq!(g.outer_cells, 1);
        assert_eq!(g.outer_id_of_point(&[0.3, 0.4, 0.5, 0.6, 0.7]), 0);
        let mut seen = Vec::new();
        g.for_each_surrounding_outer(0, |id| seen.push(id));
        assert_eq!(seen, vec![0]);
    }

    #[test]
    fn auto_budget_is_clamped_to_the_directory_cap() {
        // n·d = 20.5M exceeds MAX_OUTER_CELLS; the uncapped heuristic
        // would pick a directory in the (cap, budget] window and the
        // construction would panic. The clamp keeps Auto total.
        let g = GridGeometry::new(20, 0.035, 1_024_000, GridVariant::Auto);
        assert!(g.outer_cells <= MAX_OUTER_CELLS);
    }

    #[test]
    fn auto_caps_surround_enumeration_at_high_dim() {
        for (dim, eps) in [(16, 0.05), (20, 0.05), (20, 0.01)] {
            let g = GridGeometry::new(dim, eps, 1_024_000, GridVariant::Auto);
            let v = g.surround_per_dim();
            assert!(
                v.pow(g.outer_dims as u32) <= MAX_SURROUND_ENUM,
                "d={dim} ε={eps}: v^d' = {v}^{} over the enumeration cap",
                g.outer_dims
            );
        }
    }

    #[test]
    fn bounds_distances_are_tighter_than_cell_distances() {
        let g = GridGeometry::new(2, 0.1, 1000, GridVariant::Auto);
        let cw = g.cell_width;
        // the grid box of cell (3, 4), and points huddled in its middle 20%
        let (box_lo, box_hi) = ([3.0 * cw, 4.0 * cw], [4.0 * cw, 5.0 * cw]);
        let lo = [3.4 * cw, 4.4 * cw];
        let hi = [3.6 * cw, 4.6 * cw];
        let p = [1.0 * cw, 4.5 * cw];
        let min_b = GridGeometry::min_sq_dist_to_bounds(&p, &lo, &hi);
        let max_b = GridGeometry::max_sq_dist_to_bounds(&p, &lo, &hi);
        assert!(min_b >= GridGeometry::min_sq_dist_to_bounds(&p, &box_lo, &box_hi));
        assert!(max_b <= GridGeometry::max_sq_dist_to_bounds(&p, &box_lo, &box_hi));
        assert!((min_b.sqrt() - 2.4 * cw).abs() < 1e-12);
        assert!((max_b.sqrt() - (2.6f64 * 2.6 + 0.1 * 0.1).sqrt() * cw).abs() < 1e-12);
        // a point inside the MBR is at distance 0
        assert_eq!(
            GridGeometry::min_sq_dist_to_bounds(&[3.5 * cw, 4.5 * cw], &lo, &hi),
            0.0
        );
    }

    /// The branchy per-dimension gap the branch-free [`gap`] replaced:
    /// the oracle its bits are held to.
    fn branchy_min_sq_dist(p: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
        let mut acc = 0.0;
        for i in 0..p.len() {
            let d = if p[i] < lo[i] {
                lo[i] - p[i]
            } else if p[i] > hi[i] {
                p[i] - hi[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// `fresh` half of the time, otherwise a value from `pool`.
    fn pick(rng: &mut StdRng, pool: &[f64], fresh: f64) -> f64 {
        if rng.gen_range(0..2u32) == 0 {
            fresh
        } else {
            pool[rng.gen_range(0..pool.len())]
        }
    }

    #[test]
    fn branch_free_min_distances_keep_the_branchy_bits() {
        let bits = |x: f64| x.to_bits();
        // boundary-exact points: on either face, one ulp to either side,
        // signed zeros, over proper, degenerate and subnormal intervals
        for (lo, hi) in [
            (0.25f64, 0.5f64),
            (0.0, 0.5),
            (-0.0, 0.0),
            (0.0, -0.0),
            (0.5, 0.5),
            (1e-310, 3e-310),
        ] {
            for p in [
                lo,
                hi,
                lo.next_down(),
                lo.next_up(),
                hi.next_down(),
                hi.next_up(),
                0.0,
                -0.0,
                1.0,
            ] {
                let (p, lo, hi) = ([p], [lo], [hi]);
                assert_eq!(
                    bits(GridGeometry::min_sq_dist_to_bounds(&p, &lo, &hi)),
                    bits(branchy_min_sq_dist(&p, &lo, &hi)),
                    "p {p:?} in [{lo:?}, {hi:?}]"
                );
            }
        }
        // random boxes and points in 1–8 dimensions, mixed with the same
        // boundary values
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let (mut p, mut lo, mut hi) = ([0.0; 8], [0.0; 8], [0.0; 8]);
        for _ in 0..20_000 {
            let dim = rng.gen_range(1..=8usize);
            for i in 0..dim {
                let (a, b) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
                (lo[i], hi[i]) = (a.min(b), a.max(b));
                let pool = [lo[i], hi[i], lo[i].next_down(), hi[i].next_up(), 0.0, -0.0];
                let fresh = rng.gen_range(0.0..1.0);
                p[i] = pick(&mut rng, &pool, fresh);
            }
            let (p, lo, hi) = (&p[..dim], &lo[..dim], &hi[..dim]);
            assert_eq!(
                bits(GridGeometry::min_sq_dist_to_bounds(p, lo, hi)),
                bits(branchy_min_sq_dist(p, lo, hi)),
                "p {p:?} in {lo:?}..{hi:?}"
            );
        }
    }

    #[test]
    fn box_distances_bound_every_point_of_the_box() {
        let mut rng = StdRng::seed_from_u64(0xb0c5);
        let (mut a_lo, mut a_hi, mut b_lo, mut b_hi) = ([0.0; 8], [0.0; 8], [0.0; 8], [0.0; 8]);
        let mut p = [0.0; 8];
        for _ in 0..4_000 {
            let dim = rng.gen_range(1..=8usize);
            // A: a point MBR, often only ulps wide so that rounding
            // matters; B: a nearby box of any size
            for i in 0..dim {
                let x = rng.gen_range(0.0..1.0);
                let width = [0.0, 1e-15, 1e-3, 0.1][rng.gen_range(0..4usize)];
                (a_lo[i], a_hi[i]) = (x, x + width * rng.gen_range(0.0..1.0));
                let (u, v) = (x + rng.gen_range(-0.1..0.1), x + rng.gen_range(-0.1..0.1));
                (b_lo[i], b_hi[i]) = (u.min(v), u.max(v));
            }
            let (a_lo, a_hi) = (&a_lo[..dim], &a_hi[..dim]);
            let (b_lo, b_hi) = (&b_lo[..dim], &b_hi[..dim]);
            let box_min = GridGeometry::min_sq_dist_between_bounds(a_lo, a_hi, b_lo, b_hi);
            let box_max = GridGeometry::max_sq_dist_between_bounds(a_lo, a_hi, b_lo, b_hi);
            // radii on both sides of each bound, and a random one
            let radii_sq = [
                box_min,
                box_min.next_down(),
                box_max,
                box_max.next_up(),
                rng.gen_range(0.0..0.1),
            ];
            // every corner of A, then points inside A, some an ulp from a face
            let corners = 1usize << dim;
            for k in 0..corners + 32 {
                for i in 0..dim {
                    p[i] = if k < corners {
                        [a_lo[i], a_hi[i]][k >> i & 1]
                    } else {
                        let pool = [a_lo[i], a_hi[i], a_lo[i].next_up(), a_hi[i].next_down()];
                        let inside = a_lo[i] + rng.gen_range(0.0..1.0) * (a_hi[i] - a_lo[i]);
                        pick(&mut rng, &pool, inside).clamp(a_lo[i], a_hi[i])
                    };
                }
                let p = &p[..dim];
                let min_p = GridGeometry::min_sq_dist_to_bounds(p, b_lo, b_hi);
                let max_p = GridGeometry::max_sq_dist_to_bounds(p, b_lo, b_hi);
                for r_sq in radii_sq {
                    if box_min > r_sq {
                        assert!(min_p > r_sq, "p {p:?}: min {min_p:e} ≤ r² {r_sq:e}");
                    }
                    if box_max <= r_sq {
                        assert!(max_p <= r_sq, "p {p:?}: max {max_p:e} > r² {r_sq:e}");
                    }
                }
            }
        }
    }

    #[test]
    fn huge_epsilon_collapses_to_a_single_cell_without_division_blowups() {
        // ε far above the unit-domain diagonal: the whole domain is one
        // cell per dimension; cell_coord must stay well-defined.
        let g = GridGeometry::new(3, 10.0, 1000, GridVariant::Auto);
        assert_eq!(g.width, 1);
        assert_eq!(g.cell_coord(0.0), 0);
        assert_eq!(g.cell_coord(1.0), 0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_epsilon_is_rejected() {
        GridGeometry::new(2, f64::INFINITY, 1000, GridVariant::Auto);
    }

    #[test]
    #[should_panic(expected = "degenerate grid")]
    fn vanishing_epsilon_is_rejected_before_width_saturates() {
        GridGeometry::new(2, 1e-12, 1000, GridVariant::Auto);
    }

    #[test]
    fn shard_plan_owned_ranges_tile_the_width() {
        let g = GridGeometry::new(2, 0.05, 10_000, GridVariant::Auto);
        for s_count in [1, 2, 3, 4, 7, 8] {
            let plan = ShardPlan::new(&g, s_count);
            assert_eq!(plan.count(), s_count.min(g.width));
            let mut next = 0u64;
            for s in 0..plan.count() {
                let owned = plan.owned(s);
                assert_eq!(owned.start, next, "gap before shard {s}");
                assert!(!owned.is_empty(), "empty shard {s}");
                for c0 in owned.clone() {
                    assert_eq!(plan.owner_of(c0), s);
                }
                next = owned.end;
            }
            assert_eq!(next, g.width as u64);
        }
    }

    #[test]
    fn shard_plan_resident_range_is_owned_plus_reach() {
        let g = GridGeometry::new(2, 0.05, 10_000, GridVariant::Auto);
        let plan = ShardPlan::new(&g, 4);
        for s in 0..plan.count() {
            let owned = plan.owned(s);
            let resident = plan.resident(s);
            let halo = g.reach as u64 + 1;
            assert_eq!(resident.start, owned.start.saturating_sub(halo));
            assert_eq!(resident.end, (owned.end + halo).min(g.width as u64));
            // residency query and enumeration agree
            for c0 in 0..g.width as u64 {
                let mut hit = false;
                plan.for_each_resident_shard(c0, |rs| hit |= rs == s);
                assert_eq!(hit, plan.is_resident(s, c0));
            }
        }
    }

    #[test]
    fn shard_plan_clamps_to_degenerate_single_cell_domains() {
        // ε so large the leading dimension has one cell: 8 requested
        // shards clamp to 1 and the single shard owns everything.
        let g = GridGeometry::new(2, 10.0, 1000, GridVariant::Auto);
        let plan = ShardPlan::new(&g, 8);
        assert_eq!(plan.count(), 1);
        assert_eq!(plan.owned(0), 0..1);
        assert_eq!(plan.resident(0), 0..1);
        assert_eq!(plan.owner_of(0), 0);
    }

    #[test]
    fn surrounding_enumeration_is_within_bounds_and_complete() {
        let g = GridGeometry::new(2, 0.2, 5000, GridVariant::Auto);
        assert!(g.outer_dims >= 1);
        let oid = g.outer_id_of_coords(&[1, 1]);
        let mut seen = Vec::new();
        g.for_each_surrounding_outer(oid, |id| seen.push(id));
        // all unique, all in range
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seen.len());
        assert!(seen.iter().all(|&id| id < g.outer_cells));
        assert!(seen.contains(&oid));
        // corner cell sees fewer cells than an interior one
        let corner = g.outer_id_of_coords(&[0, 0]);
        let mut corner_seen = 0usize;
        g.for_each_surrounding_outer(corner, |_| corner_seen += 1);
        let interior_coord = (g.reach as u64).min(g.width as u64 - 1);
        if interior_coord > 0 && g.width > 2 * g.reach {
            let interior = g.outer_id_of_coords(&[interior_coord, interior_coord]);
            let mut interior_seen = 0usize;
            g.for_each_surrounding_outer(interior, |_| interior_seen += 1);
            assert!(corner_seen < interior_seen);
        }
    }
}
