//! Grid-accelerated check of the second term of Definition 4.2 (§4.3.3).
//!
//! Only launched in iterations where the first term already holds (every
//! neighborhood is confined to its own grid cell — checked for free inside
//! the update kernel). For every point `p`, the kernel scans the
//! surrounding cells for points `q₁` in the `(ε, ε+δ]` shell; for each
//! such `q₁` it scans `q₁`'s surroundings for `q₂ ∈ N_{ε/2}(q₁)` and tests
//! whether the MBR of the pair intersects the ε-ball of `p` — the
//! conservative "could `q₁` be dragged in?" test of Lemma 4.6.

use egg_gpu_sim::{grid_for, Device, DeviceBuffer};

use crate::algorithms::gpu_sync::{BLOCK, MAX_DIM};
use crate::exec::{Executor, POINT_CHUNK};
use crate::grid::device::{seg_start, LaneTables};
use crate::grid::{CellGrid, DeviceGrid, GridGeometry, PreGrid};
use crate::kernels::{distance_sq_lanes, LANES};
use crate::model::delta;

/// Launch the second-term kernel over the state `coords` (the positions the
/// grid was built from). Returns `true` when no point can be dragged into
/// any neighborhood — together with a surviving first-term flag this
/// certifies Definition 4.2 and the algorithm may gather and stop.
///
/// `flag` is a caller-owned single-slot scratch buffer (its prior contents
/// are overwritten), so a run loop can allocate it once.
///
/// `confined` optionally carries the first-term confinement verdicts the
/// update pass just computed on the same state: when `confined[q₁] = 1`,
/// `N_ε(q₁) = cell(q₁)` (cell ⊆ ε-ball by the ≤ ε/2 diagonal, equality by
/// cardinality), hence `N_{ε/2}(q₁) ⊆ cell(q₁)` and the partner scan for
/// that shell point narrows from `q₁`'s whole reach to its own cell.
#[allow(clippy::too_many_arguments)]
pub fn second_term_holds(
    device: &Device,
    grid: &DeviceGrid,
    pre: &PreGrid,
    coords: &DeviceBuffer<f64>,
    flag: &DeviceBuffer<u64>,
    n: usize,
    epsilon: f64,
    confined: Option<&DeviceBuffer<u64>>,
) -> bool {
    let geo = grid.geometry;
    let dim = geo.dim;
    let eps_sq = epsilon * epsilon;
    let shell = epsilon + delta(epsilon);
    let shell_sq = shell * shell;
    let half_sq = (epsilon / 2.0) * (epsilon / 2.0);
    flag.store(0, 1);
    {
        device.launch("egg_second_term", grid_for(n, BLOCK), BLOCK, |t| {
            let p_idx = t.global_id();
            if p_idx >= n || flag.load(0) == 0 {
                return;
            }
            let mut p = [0.0f64; MAX_DIM];
            for i in 0..dim {
                p[i] = coords.load(p_idx * dim + i);
            }
            let c_oid = geo.outer_id_of_point(&p[..dim]);
            let k = pre.index_of.load(c_oid) as usize;

            let lo = seg_start(&pre.ends, k) as usize;
            let hi = pre.ends.load(k) as usize;
            for s in lo..hi {
                let oid = pre.cells.load(s) as usize;
                let cells_lo = seg_start(&grid.o_ends, oid) as usize;
                let cells_hi = grid.o_ends.load(oid) as usize;
                for c in cells_lo..cells_hi {
                    // prune through the cell's point MBR — tighter than the
                    // grid box and still conservative, so the verdict is
                    // unchanged (skipped cells provably hold no shell point):
                    // beyond the shell no point reaches it, and entirely
                    // inside the ε-ball every point is a plain ε-neighbor
                    if min_sq_dist_to_cell_points(grid, c, &p[..dim], dim) > shell_sq
                        || max_sq_dist_to_cell_points(grid, c, &p[..dim], dim) <= eps_sq
                    {
                        continue;
                    }
                    let pts_lo = grid.cell_start(c) as usize;
                    let pts_hi = grid.i_ends.load(c) as usize;
                    for e in pts_lo..pts_hi {
                        let q1_idx = grid.i_points.load(e) as usize;
                        let q1 = lane_point(grid, e, dim);
                        let mut d_sq = 0.0;
                        for i in 0..dim {
                            let d = q1[i] - p[i];
                            d_sq += d * d;
                        }
                        if d_sq <= eps_sq || d_sq > shell_sq {
                            continue;
                        }
                        // q1 hovers in the shell: can one of its
                        // ε/2-neighbors drag it towards p?
                        let dragged = match confined {
                            // confined shell point: every ε/2-neighbor is a
                            // cell mate, so scan only q1's own cell
                            Some(conf) if conf.load(q1_idx) == 1 => {
                                let c1 = grid.point_cell.load(q1_idx) as usize;
                                let lo1 = grid.cell_start(c1) as usize;
                                let hi1 = grid.i_ends.load(c1) as usize;
                                (lo1..hi1).any(|e2| {
                                    let q2 = lane_point(grid, e2, dim);
                                    pair_drags(&p[..dim], &q1[..dim], &q2[..dim], eps_sq, half_sq)
                                })
                            }
                            _ => shell_pair_reaches(
                                grid,
                                pre,
                                &geo,
                                &p[..dim],
                                &q1[..dim],
                                eps_sq,
                                half_sq,
                                dim,
                            ),
                        };
                        if dragged {
                            flag.store(0, 0);
                            return;
                        }
                    }
                }
            }
        });
    }
    flag.load(0) == 1
}

/// The coordinates of grid-sorted slot `s`, read through the coalesced
/// lane-blocked table.
#[inline]
fn lane_point(grid: &DeviceGrid, s: usize, dim: usize) -> [f64; MAX_DIM] {
    let mut q = [0.0f64; MAX_DIM];
    for i in 0..dim {
        q[i] = grid.lanes.coords.load_coalesced(LaneTables::at(s, dim, i));
    }
    q
}

/// Squared distance from `p` to the point MBR of compacted cell `c` of a
/// device grid — the tight cell prune of the termination scans.
#[inline]
fn min_sq_dist_to_cell_points(grid: &DeviceGrid, c: usize, p: &[f64], dim: usize) -> f64 {
    let (mut lo, mut hi) = ([0.0f64; MAX_DIM], [0.0f64; MAX_DIM]);
    for i in 0..dim {
        lo[i] = grid.c_bounds.load(c * 2 * dim + i);
        hi[i] = grid.c_bounds.load(c * 2 * dim + dim + i);
    }
    GridGeometry::min_sq_dist_to_bounds(p, &lo[..dim], &hi[..dim])
}

/// Squared distance from `p` to the farthest corner of the point MBR of
/// compacted cell `c` — cells entirely inside the ε-ball hold no shell
/// point, which collapses the termination scan on converged clusters.
#[inline]
fn max_sq_dist_to_cell_points(grid: &DeviceGrid, c: usize, p: &[f64], dim: usize) -> f64 {
    let (mut lo, mut hi) = ([0.0f64; MAX_DIM], [0.0f64; MAX_DIM]);
    for i in 0..dim {
        lo[i] = grid.c_bounds.load(c * 2 * dim + i);
        hi[i] = grid.c_bounds.load(c * 2 * dim + dim + i);
    }
    GridGeometry::max_sq_dist_to_bounds(p, &lo[..dim], &hi[..dim])
}

/// The per-partner predicate of Lemma 4.6: is `q₂` an ε/2-neighbor of `q₁`
/// whose pair-MBR with `q₁` intersects the ε-ball of `p`?
fn pair_drags(p: &[f64], q1: &[f64], q2: &[f64], eps_sq: f64, half_sq: f64) -> bool {
    let mut d_sq = 0.0;
    for i in 0..p.len() {
        let d = q2[i] - q1[i];
        d_sq += d * d;
    }
    if d_sq > half_sq {
        return false;
    }
    // MBR of {q1, q2} against the ε-ball of p
    let mut mbr_sq = 0.0;
    for i in 0..p.len() {
        let lo_i = q1[i].min(q2[i]);
        let hi_i = q1[i].max(q2[i]);
        let d = if p[i] < lo_i {
            lo_i - p[i]
        } else if p[i] > hi_i {
            p[i] - hi_i
        } else {
            0.0
        };
        mbr_sq += d * d;
    }
    mbr_sq <= eps_sq
}

/// Scan `q₁`'s surrounding cells for a partner `q₂ ∈ N_{ε/2}(q₁)` whose
/// pair-MBR with `q₁` intersects the ε-ball of `p`.
#[allow(clippy::too_many_arguments)]
fn shell_pair_reaches(
    grid: &DeviceGrid,
    pre: &PreGrid,
    geo: &crate::grid::GridGeometry,
    p: &[f64],
    q1: &[f64],
    eps_sq: f64,
    half_sq: f64,
    dim: usize,
) -> bool {
    let q1_oid = geo.outer_id_of_point(q1);
    let k1 = pre.index_of.load(q1_oid) as usize;
    let lo = seg_start(&pre.ends, k1) as usize;
    let hi = pre.ends.load(k1) as usize;
    for s in lo..hi {
        let oid = pre.cells.load(s) as usize;
        let cells_lo = seg_start(&grid.o_ends, oid) as usize;
        let cells_hi = grid.o_ends.load(oid) as usize;
        for c in cells_lo..cells_hi {
            if min_sq_dist_to_cell_points(grid, c, q1, dim) > half_sq {
                continue;
            }
            let pts_lo = grid.cell_start(c) as usize;
            let pts_hi = grid.i_ends.load(c) as usize;
            for e in pts_lo..pts_hi {
                let q2 = lane_point(grid, e, dim);
                if pair_drags(p, q1, &q2[..dim], eps_sq, half_sq) {
                    return true;
                }
            }
        }
    }
    false
}

/// Host-engine counterpart of [`second_term_holds`]: evaluate the second
/// term of Definition 4.2 over `exec`'s workers, visiting points in the
/// grid-sorted order of [`CellGrid::point_order`] so consecutive checks
/// walk the same cells on warm cache lines. Each point is a pure
/// predicate, so the verdict equals the sequential evaluation —
/// [`Executor::all`] only short-circuits *how much* work runs once a
/// draggable pair is found, never the outcome.
///
/// `confined` optionally carries the first-term confinement verdicts of
/// the update pass on the same state: a confined shell point's
/// ε/2-neighbors are all cell mates, so its partner scan narrows from the
/// whole reach walk to its own cell (see [`second_term_holds`]).
///
/// With `use_simd` the shell scan computes four `q₁` distances per step
/// through [`distance_sq_lanes`] over the grid's lane-blocked coordinate
/// table. The lane distances reproduce the scalar accumulation chain bit
/// for bit, so every shell-membership verdict — and hence the returned
/// predicate — is identical to the scalar scan; the partner scans stay
/// scalar (they short-circuit on the first hit and are rarely reached).
pub fn second_term_holds_host(
    exec: &Executor,
    grid: &CellGrid,
    coords: &[f64],
    epsilon: f64,
    confined: Option<&[bool]>,
    use_simd: bool,
) -> bool {
    let n = coords.len() / grid.geometry().dim;
    second_term_holds_host_range(exec, grid, coords, epsilon, confined, use_simd, 0..n)
}

/// [`second_term_holds_host`] restricted to the grid-sorted slot window
/// `slots` — one shard's owned points in a sharded execution, where
/// `grid`/`coords`/`confined` are the shard's resident-local structures.
///
/// The verdict for every owned point matches the single-grid oracle:
/// the second term only ever runs after the *first* term held globally,
/// so every shell point `q1` is confined — its ε/2-partners are cell
/// mates, resident by construction — and the shell scan itself only
/// visits cells within the reach of an owned cell, which the resident
/// range covers in full.
#[allow(clippy::too_many_arguments)]
pub fn second_term_holds_host_range(
    exec: &Executor,
    grid: &CellGrid,
    coords: &[f64],
    epsilon: f64,
    confined: Option<&[bool]>,
    use_simd: bool,
    slots: std::ops::Range<usize>,
) -> bool {
    let geo = *grid.geometry();
    let dim = geo.dim;
    let eps_sq = epsilon * epsilon;
    let shell = epsilon + delta(epsilon);
    let shell_sq = shell * shell;
    let half_sq = (epsilon / 2.0) * (epsilon / 2.0);
    let order = grid.point_order();
    let lane_coords = grid.lane_coords();
    // slot s lives at lane index lane_phase + s (see CellGrid::set_lane_phase)
    let lane_phase = grid.lane_phase();
    // q1 hovers in the shell: can one of its ε/2-neighbors drag it
    // towards p? (the per-shell-point partner scan, shared by both paths)
    let q1_dragged = |p: &[f64], q1_idx: usize| -> bool {
        let q1 = &coords[q1_idx * dim..(q1_idx + 1) * dim];
        match confined {
            // confined shell point: every ε/2-neighbor is a cell mate, so
            // scan only q1's own cell
            Some(conf) if conf[q1_idx] => grid
                .cell_points(grid.point_cell()[q1_idx] as usize)
                .iter()
                .any(|&q2_idx| {
                    let q2 = &coords[q2_idx as usize * dim..(q2_idx as usize + 1) * dim];
                    pair_drags(p, q1, q2, eps_sq, half_sq)
                }),
            _ => shell_pair_reaches_host(grid, coords, &geo, p, q1, eps_sq, half_sq, dim),
        }
    };
    debug_assert!(slots.end <= order.len());
    let slot_base = slots.start;
    exec.all(slots.len(), POINT_CHUNK, |off| {
        let p_idx = order[slot_base + off] as usize;
        let p = &coords[p_idx * dim..(p_idx + 1) * dim];
        let mut dragged = false;
        grid.for_each_cell_in_reach(geo.outer_id_of_point(p), |c| {
            // tight MBR prune — conservative, so the verdict is unchanged:
            // past the shell no cell point reaches it, and entirely inside
            // the ε-ball every cell point is a plain ε-neighbor, never a
            // shell point (this collapses the scan on converged clusters)
            if dragged
                || grid.min_sq_dist_to_cell(c, p) > shell_sq
                || grid.max_sq_dist_to_cell(c, p) <= eps_sq
            {
                return;
            }
            if use_simd {
                // four shell-membership distances per step; exact lanes, so
                // the accepted slots match the scalar scan one for one
                let slots = grid.cell_range(c);
                let (lo, hi) = (lane_phase + slots.start, lane_phase + slots.end);
                for b in lo / LANES..=(hi - 1) / LANES {
                    let at = b * dim * LANES;
                    let d_sq = distance_sq_lanes(&lane_coords[at..at + dim * LANES], p).to_array();
                    for (j, &d2) in d_sq.iter().enumerate() {
                        let lane = b * LANES + j;
                        if lane < lo || lane >= hi || d2 <= eps_sq || d2 > shell_sq {
                            continue;
                        }
                        if q1_dragged(p, order[lane - lane_phase] as usize) {
                            dragged = true;
                            return;
                        }
                    }
                }
            } else {
                for &q1_idx in grid.cell_points(c) {
                    let q1 = &coords[q1_idx as usize * dim..(q1_idx as usize + 1) * dim];
                    let mut d_sq = 0.0;
                    for i in 0..dim {
                        let d = q1[i] - p[i];
                        d_sq += d * d;
                    }
                    if d_sq <= eps_sq || d_sq > shell_sq {
                        continue;
                    }
                    if q1_dragged(p, q1_idx as usize) {
                        dragged = true;
                        return;
                    }
                }
            }
        });
        !dragged
    })
}

/// Host analogue of [`shell_pair_reaches`]: scan `q₁`'s surrounding cells
/// for a partner `q₂ ∈ N_{ε/2}(q₁)` whose pair-MBR with `q₁` intersects
/// the ε-ball of `p`.
#[allow(clippy::too_many_arguments)]
fn shell_pair_reaches_host(
    grid: &CellGrid,
    coords: &[f64],
    geo: &GridGeometry,
    p: &[f64],
    q1: &[f64],
    eps_sq: f64,
    half_sq: f64,
    dim: usize,
) -> bool {
    let mut reaches = false;
    grid.for_each_cell_in_reach(geo.outer_id_of_point(q1), |c| {
        if reaches || grid.min_sq_dist_to_cell(c, q1) > half_sq {
            return;
        }
        for &q2_idx in grid.cell_points(c) {
            let q2 = &coords[q2_idx as usize * dim..(q2_idx as usize + 1) * dim];
            if pair_drags(p, q1, q2, eps_sq, half_sq) {
                reaches = true;
                return;
            }
        }
    });
    reaches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{GridGeometry, GridVariant, GridWorkspace};
    use crate::model::criterion_term2_met;
    use egg_gpu_sim::DeviceConfig;

    /// Evaluate the device second-term kernel on BOTH the fused (lane
    /// tables) and the unfused pipeline, assert their verdicts agree, and
    /// return the shared verdict — so every device test below covers both.
    fn device_second_term(coords: &[f64], dim: usize, eps: f64) -> bool {
        let run = |fused: bool| {
            let n = coords.len() / dim;
            let device = Device::new(DeviceConfig::default());
            let geo = GridGeometry::new(dim, eps, n, GridVariant::Auto);
            let mut ws = GridWorkspace::new(&device, geo, n);
            ws.set_fused(fused);
            let buf = device.alloc_from_slice(coords);
            let grid = ws.construct(&buf);
            let pre = ws.build_pregrid(&grid);
            let flag = device.alloc::<u64>(1);
            second_term_holds(&device, &grid, &pre, &buf, &flag, n, eps, None)
        };
        let (fused, unfused) = (run(true), run(false));
        assert_eq!(fused, unfused, "fused/unfused termination verdicts");
        fused
    }

    #[test]
    fn matches_brute_force_on_draggable_configuration() {
        // the hand-built violation from the model tests
        let coords = vec![0.50, 0.50, 0.601, 0.50, 0.59, 0.545];
        assert!(!criterion_term2_met(&coords, 2, 0.1));
        assert!(!device_second_term(&coords, 2, 0.1));
    }

    #[test]
    fn matches_brute_force_on_clean_configuration() {
        let coords = vec![0.10, 0.10, 0.12, 0.10, 0.90, 0.90, 0.88, 0.90];
        assert!(criterion_term2_met(&coords, 2, 0.1));
        assert!(device_second_term(&coords, 2, 0.1));
    }

    #[test]
    fn matches_brute_force_on_random_clouds() {
        for seed in 0..6u64 {
            let coords: Vec<f64> = (0..120)
                .map(|i| ((i as u64 + seed * 977).wrapping_mul(2654435761) % 1009) as f64 / 1009.0)
                .collect();
            let eps = 0.06 + seed as f64 * 0.01;
            assert_eq!(
                device_second_term(&coords, 2, eps),
                criterion_term2_met(&coords, 2, eps),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn empty_and_single_point_hold_trivially() {
        assert!(device_second_term(&[], 2, 0.05));
        assert!(device_second_term(&[0.5, 0.5], 2, 0.05));
    }

    fn host_second_term(coords: &[f64], dim: usize, eps: f64, workers: usize) -> bool {
        let n = coords.len() / dim;
        let exec = Executor::new(Some(workers));
        let geo = GridGeometry::new(dim, eps, n, GridVariant::Auto);
        let grid = CellGrid::build(&exec, geo, coords);
        let scalar = second_term_holds_host(&exec, &grid, coords, eps, None, false);
        let simd = second_term_holds_host(&exec, &grid, coords, eps, None, true);
        assert_eq!(
            scalar, simd,
            "SIMD shell scan must match the scalar verdict"
        );
        scalar
    }

    #[test]
    fn host_matches_brute_force_on_hand_built_configurations() {
        let violation = vec![0.50, 0.50, 0.601, 0.50, 0.59, 0.545];
        let clean = vec![0.10, 0.10, 0.12, 0.10, 0.90, 0.90, 0.88, 0.90];
        for workers in [1, 4] {
            assert!(!host_second_term(&violation, 2, 0.1, workers));
            assert!(host_second_term(&clean, 2, 0.1, workers));
        }
    }

    #[test]
    fn host_matches_brute_force_on_random_clouds() {
        for seed in 0..6u64 {
            let coords: Vec<f64> = (0..120)
                .map(|i| ((i as u64 + seed * 977).wrapping_mul(2654435761) % 1009) as f64 / 1009.0)
                .collect();
            let eps = 0.06 + seed as f64 * 0.01;
            let expected = criterion_term2_met(&coords, 2, eps);
            for workers in [1, 3, 8] {
                assert_eq!(
                    host_second_term(&coords, 2, eps, workers),
                    expected,
                    "seed {seed} workers {workers}"
                );
            }
        }
    }

    #[test]
    fn host_empty_and_single_point_hold_trivially() {
        assert!(host_second_term(&[], 2, 0.05, 4));
        assert!(host_second_term(&[0.5, 0.5], 2, 0.05, 4));
    }
}
