//! Sharded multi-grid execution with ε-halo exchange: [`ShardedEngine`],
//! the [`Engine`] `EggSync` runs on the host when `num_shards > 1`.
//!
//! Splits the domain along the leading grid dimension into `S` shard
//! regions (see [`ShardPlan`]). Each shard owns a contiguous range of
//! leading cell coordinates and keeps its own [`CellGrid`] over its
//! *resident* points: the points of its owned cells plus an ε-halo ghost
//! zone mirroring the boundary cells of its neighbors. Because the grid's
//! global cell order sorts primarily by the leading coordinate (the outer
//! id is row-major with dimension 0 most significant, and the sequential
//! variant's single bucket sorts cells by their full key), a shard's owned
//! cells form a contiguous run of its local compacted cell list and its
//! owned points a contiguous grid-sorted slot window — so the EGG-update
//! runs per shard over exactly that window ([`ShardPass`]) and every
//! surround walk it performs sees precisely the cells, memberships and
//! slot orders of the single-grid run.
//!
//! # Why the output is bitwise identical to the single-grid path
//!
//! * **Update.** A point's update only reads cells within `reach` of its
//!   own in the first `d'` dimensions; for an owned point those all lie in
//!   the resident range, with identical membership and identical local
//!   ordering (the same `(outer, key, index)` comparator over a subset
//!   closed under it). The sequential variant walks every cell, but cells
//!   outside the resident range are at leading-axis distance > ε+δ and are
//!   discarded by the same min-distance prune in both runs, before they
//!   contribute to any sum or counter.
//! * **Termination.** The second-term shell scan runs per shard over the
//!   owned window; the halo is one cell wider than `reach`
//!   ([`ShardPlan::resident`]) so even boundary-exact shell distances stay
//!   resident. Shell partners' drag scans need only *cell mates* once the
//!   first term holds globally (every point is then confined), so the
//!   truncated local walk returns the oracle's verdict.
//! * **Reductions.** The only cross-point reductions are the first-term
//!   AND and the integer counter sums — both order-independent — so the
//!   per-shard chunk layout cannot perturb the result.
//! * **Lane phase.** The SIMD pair term accumulates a cell's partners in
//!   lane blocks of four, so its floating-point association depends on
//!   where block boundaries fall. A shard's resident points are one
//!   contiguous global slot interval, but its local slots restart at 0 —
//!   so each local grid's lane tables are phased by the interval's global
//!   slot base mod `LANES` ([`CellGrid::set_lane_phase`], recomputed
//!   every refresh) to reproduce the single grid's block boundaries, and
//!   with them its exact reduction order.
//!
//! Between iterations only *halo movers* cross shards: points whose
//! updated position enters or leaves a shard's resident range. They are
//! exchanged through a buffer sorted by `(shard, point index)` and spliced
//! into the (ascending) member lists by a sequential merge, so shard
//! count — like worker count — is invisible in the output. In the
//! converged steady state the exchange is empty, member lists are stable,
//! and an iteration allocates nothing.
//!
//! Skip logic under sharding uses **global** outer-dirty flags computed by
//! the engine (the same rule as [`IncrementalState::finish_pass`], over
//! all points): a shard-local history cannot see movers just outside its
//! resident set, whose old or new position still dirties cells it owns.

use crate::exec::Executor;
use crate::grid::{CellGrid, GridGeometry, ShardPlan};
use crate::instrument::{RunTrace, Stage, StageTimings, UpdateCounters};

use super::algorithm::{Engine, Iteration};
use super::termination::second_term_holds_host_range;
use super::update::{
    egg_update_host, mark_moved_outers, IncrementalState, ShardPass, UpdateOptions,
};

/// One membership edit queued for a shard: insert or remove global point
/// `point` from shard `shard`'s member list. The derived order —
/// `(shard, point, insert)` — is the deterministic application order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ExchangeEntry {
    shard: u32,
    point: u32,
    insert: bool,
}

/// Per-shard state: the shard-local coordinate mirrors and the shard's own
/// grid + incremental history. (Member lists live on the engine —
/// [`ShardedEngine::members`] — next to the exchange buffer that edits
/// them.) Local point index `i` is `members[s][i]`; keeping members
/// sorted makes the local within-cell order (by local index) match the
/// global within-cell order (by global index), which the update's
/// slot-ordered accumulations rely on for bitwise equality.
struct Shard {
    /// Local mirror of the residents' current positions.
    coords: Vec<f64>,
    /// Local update output; ghost rows are never written or read.
    next: Vec<f64>,
    grid: CellGrid,
    state: IncrementalState,
    chunk_stats: Vec<(bool, UpdateCounters)>,
    /// Compacted-cell range of the owned cells in `grid`, this iteration.
    owned_cells: std::ops::Range<usize>,
    /// Grid-sorted slot window of the owned points, this iteration.
    owned_slots: std::ops::Range<usize>,
    /// Member list changed since the grid was last built — forces a full
    /// rebuild (local indices shifted, so mover flags are meaningless).
    membership_changed: bool,
}

impl Shard {
    fn new(geometry: GridGeometry) -> Self {
        Self {
            coords: Vec::new(),
            next: Vec::new(),
            grid: CellGrid::new(geometry),
            state: IncrementalState::new(),
            chunk_stats: Vec::new(),
            owned_cells: 0..0,
            owned_slots: 0..0,
            membership_changed: true,
        }
    }
}

/// The sharded host engine: global ping-pong coordinate buffers plus `S`
/// shards, advanced one synchronized iteration at a time.
pub struct ShardedEngine {
    geometry: GridGeometry,
    plan: ShardPlan,
    epsilon: f64,
    options: UpdateOptions,
    dim: usize,
    n: usize,
    coords_cur: Vec<f64>,
    coords_next: Vec<f64>,
    /// Leading cell coordinate of every point's *current* position — the
    /// residency key. Updated by the owning shard's scatter.
    point_c0: Vec<u32>,
    /// Global mirrors of the per-point incremental flags (owner-written).
    global_moved: Vec<bool>,
    global_confined: Vec<bool>,
    /// Global outer-dirty flags driving skip logic, recomputed each
    /// iteration from *all* movers (shard-local history is blind to
    /// movers outside the resident set).
    outer_dirty: Vec<bool>,
    /// Whether `outer_dirty` describes a completed pass.
    dirty_armed: bool,
    exchange: Vec<ExchangeEntry>,
    /// Per-shard resident points, ascending global indices.
    members: Vec<Vec<u32>>,
    /// Per-shard resident-window start (leading cell coordinate), hoisted
    /// from the plan for the lane-phase pass.
    resident_starts: Vec<u64>,
    /// Scratch: per-shard count of points strictly left of the resident
    /// window — the shard's global slot base, whose value mod `LANES`
    /// phases its grid's lane tables (see [`CellGrid::set_lane_phase`]).
    phase_counts: Vec<u64>,
    /// Merge scratch of [`Self::apply_exchange`]: after each splice it
    /// holds the shard's previous member list, reused by the next shard.
    merge_scratch: Vec<u32>,
    shards: Vec<Shard>,
}

impl ShardedEngine {
    /// Build the engine over the initial positions: assign every point to
    /// each shard whose resident range contains its leading coordinate.
    pub fn new(
        geometry: GridGeometry,
        plan: ShardPlan,
        epsilon: f64,
        options: UpdateOptions,
        coords: &[f64],
    ) -> Self {
        let dim = geometry.dim;
        let n = coords.len() / dim.max(1);
        let point_c0: Vec<u32> = (0..n)
            .map(|p| geometry.cell_coord(coords[p * dim]) as u32)
            .collect();
        let shards: Vec<Shard> = (0..plan.count()).map(|_| Shard::new(geometry)).collect();
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); plan.count()];
        for (p, &c0) in point_c0.iter().enumerate() {
            plan.for_each_resident_shard(c0 as u64, |s| members[s].push(p as u32));
        }
        let resident_starts: Vec<u64> = (0..plan.count()).map(|s| plan.resident(s).start).collect();
        let use_inc = options.use_incremental;
        Self {
            geometry,
            plan,
            epsilon,
            options,
            dim,
            n,
            coords_cur: coords.to_vec(),
            coords_next: vec![0.0; n * dim],
            point_c0,
            global_moved: vec![false; if use_inc { n } else { 0 }],
            global_confined: vec![false; if use_inc { n } else { 0 }],
            outer_dirty: Vec::new(),
            dirty_armed: false,
            exchange: Vec::new(),
            members,
            phase_counts: vec![0; resident_starts.len()],
            resident_starts,
            merge_scratch: Vec::new(),
            shards,
        }
    }

    /// Effective shard count.
    pub fn shard_count(&self) -> usize {
        self.plan.count()
    }

    /// Run one synchronized iteration across all shards, adding stage
    /// timings to `stages`: the [`Engine::iterate`] step of the
    /// single-grid engine (refresh → update and first term → second term
    /// → finish pass → swap) on every shard, with the halo bookkeeping
    /// accounted under [`Stage::HaloExchange`].
    pub fn iterate(&mut self, exec: &Executor, stages: &mut StageTimings) -> Iteration {
        let dim = self.dim;
        let use_inc = self.options.use_incremental;

        // --- apply the previous iteration's membership exchange first:
        // member lists must stay aligned with the *built* grids until the
        // iteration ends, so gather() (which may run on a capped,
        // unconverged run) reads consistent local indices.
        let t_apply = std::time::Instant::now();
        self.apply_exchange();
        stages.add(Stage::HaloExchange, t_apply.elapsed().as_secs_f64());

        let t_sync = std::time::Instant::now();
        self.sync_shards();
        stages.add(Stage::HaloExchange, t_sync.elapsed().as_secs_f64());

        let mut counters = UpdateCounters::default();
        let t_build = std::time::Instant::now();
        let (total_grid_bytes, max_shard_grid_bytes) = self.refresh_shards(exec, &mut counters);
        stages.add(Stage::BuildStructure, t_build.elapsed().as_secs_f64());

        // --- update t → t+1 over each shard's owned window ---------------
        let mut first_term = true;
        let t_update = std::time::Instant::now();
        for sh in &mut self.shards {
            let pass = ShardPass {
                slots: sh.owned_slots.clone(),
                outer_dirty: (use_inc && self.dirty_armed).then_some(&self.outer_dirty[..]),
            };
            let (ft, c) = egg_update_host(
                exec,
                &sh.grid,
                &sh.coords,
                &mut sh.next,
                self.epsilon,
                self.options,
                &mut sh.chunk_stats,
                if use_inc { Some(&mut sh.state) } else { None },
                Some(&pass),
            );
            first_term &= ft;
            counters.merge(&c);
        }
        stages.add(Stage::Update, t_update.elapsed().as_secs_f64());

        // --- second term on state t, only when the first survived --------
        let mut done = false;
        if first_term {
            let t_check = std::time::Instant::now();
            let second = self.shards.iter().all(|sh| {
                second_term_holds_host_range(
                    exec,
                    &sh.grid,
                    &sh.coords,
                    self.epsilon,
                    if use_inc {
                        Some(&sh.state.confined[..])
                    } else {
                        None
                    },
                    self.options.use_simd,
                    sh.owned_slots.clone(),
                )
            });
            stages.add(Stage::ExtraCheck, t_check.elapsed().as_secs_f64());
            done = second;
        }

        // --- scatter owned results to the global buffers and detect halo
        // movers; then rebuild the global dirty flags and apply the
        // membership exchange in deterministic (shard, point) order.
        let t_exchange = std::time::Instant::now();
        self.exchange.clear();
        for (s, sh) in self.shards.iter().enumerate() {
            for slot in sh.owned_slots.clone() {
                let lp = sh.grid.point_order()[slot] as usize;
                let g = self.members[s][lp] as usize;
                let row = &sh.next[lp * dim..(lp + 1) * dim];
                self.coords_next[g * dim..(g + 1) * dim].copy_from_slice(row);
                if use_inc {
                    self.global_moved[g] = sh.state.moved[lp];
                    self.global_confined[g] = sh.state.confined[lp];
                }
                let new_c0 = self.geometry.cell_coord(row[0]) as u32;
                let old_c0 = self.point_c0[g];
                if new_c0 != old_c0 {
                    self.point_c0[g] = new_c0;
                    for s2 in 0..self.plan.count() {
                        let was = self.plan.is_resident(s2, old_c0 as u64);
                        let is = self.plan.is_resident(s2, new_c0 as u64);
                        if was != is {
                            self.exchange.push(ExchangeEntry {
                                shard: s2 as u32,
                                point: g as u32,
                                insert: is,
                            });
                        }
                    }
                }
            }
        }
        self.rebuild_outer_dirty();
        counters.halo_movers += self.exchange.len() as u64;
        self.exchange.sort_unstable();
        std::mem::swap(&mut self.coords_cur, &mut self.coords_next);
        stages.add(Stage::HaloExchange, t_exchange.elapsed().as_secs_f64());

        Iteration {
            done,
            counters,
            total_grid_bytes,
            max_shard_grid_bytes,
            sim_seconds: None,
        }
    }

    /// Mirror global state into each shard's locals. With a stable member
    /// list and an armed mover history only movers' rows can differ from
    /// the local copy, so only those are rewritten.
    fn sync_shards(&mut self) {
        let dim = self.dim;
        let use_inc = self.options.use_incremental;
        for (s, sh) in self.shards.iter_mut().enumerate() {
            let n_s = self.members[s].len();
            sh.coords.resize(n_s * dim, 0.0);
            sh.next.resize(n_s * dim, 0.0);
            if use_inc {
                sh.state.moved.resize(n_s, false);
                sh.state.confined.resize(n_s, false);
            }
            let movers_only = use_inc && self.dirty_armed && !sh.membership_changed;
            for (i, &g) in self.members[s].iter().enumerate() {
                let g = g as usize;
                if use_inc {
                    sh.state.moved[i] = self.global_moved[g];
                    sh.state.confined[i] = self.global_confined[g];
                }
                if !movers_only || self.global_moved[g] {
                    sh.coords[i * dim..(i + 1) * dim]
                        .copy_from_slice(&self.coords_cur[g * dim..(g + 1) * dim]);
                }
            }
        }
    }

    /// Per-shard grid refresh + owned-window resolution; returns
    /// `(total, max)` grid bytes across shards.
    fn refresh_shards(&mut self, exec: &Executor, counters: &mut UpdateCounters) -> (usize, usize) {
        let use_inc = self.options.use_incremental;
        let mut total_grid_bytes = 0usize;
        let mut max_shard_grid_bytes = 0usize;
        // Phase the lane tables: the global grid order sorts points by
        // leading cell coordinate first, so a shard's resident set is one
        // contiguous global slot interval starting at the number of points
        // strictly left of its resident window. Aligning each local grid's
        // lane blocks to the *global* slot numbering makes the SIMD
        // pair-term reductions associate exactly like the single grid's —
        // the sharded result stays bitwise equal to the S=1 oracle.
        self.phase_counts.fill(0);
        for &c0 in &self.point_c0 {
            for (s, &start) in self.resident_starts.iter().enumerate() {
                if (c0 as u64) < start {
                    self.phase_counts[s] += 1;
                }
            }
        }
        for (s, sh) in self.shards.iter_mut().enumerate() {
            let moved = (use_inc && self.dirty_armed && !sh.membership_changed)
                .then_some(&sh.state.moved[..]);
            sh.grid.set_lane_phase(self.phase_counts[s] as usize);
            let stats = sh.grid.refresh(exec, &sh.coords, moved);
            counters.dirty_cells += stats.dirty_cells;
            sh.owned_cells = sh.grid.cells_with_leading_coord(self.plan.owned(s));
            sh.owned_slots = sh.grid.slots_of_cells(sh.owned_cells.clone());
            counters.halo_cells += (sh.grid.num_cells() - sh.owned_cells.len()) as u64;
            let bytes = sh.grid.memory_bytes();
            total_grid_bytes += bytes;
            max_shard_grid_bytes = max_shard_grid_bytes.max(bytes);
            sh.membership_changed = false;
        }
        (total_grid_bytes, max_shard_grid_bytes)
    }

    /// Rebuild the global outer-dirty flags from the complete mover set —
    /// the rule of `IncrementalState::finish_pass`, over ALL points.
    fn rebuild_outer_dirty(&mut self) {
        if !self.options.use_incremental {
            return;
        }
        mark_moved_outers(
            &mut self.outer_dirty,
            &self.geometry,
            &self.global_moved,
            &self.coords_cur,
            &self.coords_next,
        );
        self.dirty_armed = true;
    }

    /// Splice the pending (sorted) exchange buffer into the member lists:
    /// a sequential merge per shard, in `(shard, point)` order, so the
    /// resulting lists are a pure function of the iteration's movers —
    /// never of worker count or enumeration order.
    fn apply_exchange(&mut self) {
        let mut i = 0usize;
        for (s, sh) in self.shards.iter_mut().enumerate() {
            let lo = i;
            while i < self.exchange.len() && self.exchange[i].shard as usize == s {
                i += 1;
            }
            let edits = &self.exchange[lo..i];
            if edits.is_empty() {
                continue;
            }
            sh.membership_changed = true;
            let members = &mut self.members[s];
            let scratch = &mut self.merge_scratch;
            scratch.clear();
            let mut mi = 0usize;
            for e in edits {
                while mi < members.len() && members[mi] < e.point {
                    scratch.push(members[mi]);
                    mi += 1;
                }
                if e.insert {
                    debug_assert!(mi >= members.len() || members[mi] != e.point);
                    scratch.push(e.point);
                } else {
                    debug_assert!(mi < members.len() && members[mi] == e.point);
                    mi += 1;
                }
            }
            scratch.extend_from_slice(&members[mi..]);
            std::mem::swap(members, scratch);
        }
        self.exchange.clear();
    }

    /// Gather: non-empty cells of the certified grids are the clusters.
    /// Walking shards in order and their owned cells in local order visits
    /// the global compacted cell list in its exact global order (cells
    /// sort primarily by leading coordinate, shards own ascending
    /// disjoint leading-coordinate ranges), so `base + local offset`
    /// reproduces the single-grid `point_cell` labels verbatim.
    pub fn gather(&self) -> Vec<u32> {
        let mut labels = vec![0u32; self.n];
        let mut base = 0u32;
        for (s, sh) in self.shards.iter().enumerate() {
            for c in sh.owned_cells.clone() {
                let label = base + (c - sh.owned_cells.start) as u32;
                for &lp in sh.grid.cell_points(c) {
                    labels[self.members[s][lp as usize] as usize] = label;
                }
            }
            base += sh.owned_cells.len() as u32;
        }
        labels
    }

    /// Take the converged positions out of the engine (leaves it drained).
    pub fn take_final_coords(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.coords_cur)
    }
}

impl Engine for ShardedEngine {
    fn iterate(&mut self, exec: &Executor, stages: &mut StageTimings) -> Iteration {
        ShardedEngine::iterate(self, exec, stages)
    }

    fn gather(&self) -> Vec<u32> {
        ShardedEngine::gather(self)
    }

    fn finish(&mut self, trace: &mut RunTrace) -> Vec<f64> {
        trace.update_counters.shard_count = self.shard_count() as u64;
        self.take_final_coords()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::egg::algorithm::EggSync;
    use crate::grid::GridVariant;
    use crate::result::{ClusterAlgorithm, Clustering};
    use egg_data::Dataset;

    /// Three blobs strung along the leading axis, so each of three shards
    /// owns points and ghosts its neighbors' edges.
    fn strung_blobs(n: usize, dim: usize) -> Vec<f64> {
        let val = |k: usize| (k as f64 * 0.618_033_988_749_895).fract();
        (0..n * dim)
            .map(|k| {
                let (p, i) = (k / dim, k % dim);
                let center = if i == 0 { [0.2, 0.5, 0.8][p % 3] } else { 0.5 };
                center + (val(k) - 0.5) * 0.2
            })
            .collect()
    }

    /// A 3-shard run whose shard grids sit at nonzero lane phases matches
    /// the single grid bit for bit, through the box classifier and the
    /// candidate walk: final positions, labels, iterations and every
    /// size-based counter.
    #[test]
    fn three_shards_at_nonzero_lane_phases_match_the_single_grid_bitwise() {
        for (dim, eps, n) in [
            (2usize, 0.05f64, 1_501usize),
            (3, 0.1, 1_003),
            (8, 0.3, 601),
        ] {
            let coords = strung_blobs(n, dim);
            let run = |shards: usize| {
                let mut algo = EggSync::host(eps, Some(2));
                algo.max_iterations = 5;
                algo.options.use_simd = true;
                algo.options.num_shards = shards;
                algo.cluster(&Dataset::from_coords(coords.clone(), dim))
            };
            let (single, sharded) = (run(1), run(3));
            let tag = format!("dim {dim}");
            let bits = |c: &Clustering| {
                let coords = c.final_coords.coords();
                coords.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(&sharded), bits(&single), "{tag}");
            assert_eq!(sharded.labels, single.labels, "{tag}");
            assert_eq!(sharded.iterations, single.iterations, "{tag}");
            let (a, b) = (sharded.trace.update_counters, single.trace.update_counters);
            assert_eq!(
                (a.summary_cells, a.point_pairs, a.sin_calls_avoided),
                (b.summary_cells, b.point_pairs, b.sin_calls_avoided),
                "{tag}"
            );
            assert_eq!(
                (a.simd_lanes, a.moved_points, a.cells_skipped),
                (b.simd_lanes, b.moved_points, b.cells_skipped),
                "{tag}"
            );
            assert_eq!(a.shard_count, 3, "{tag}");
            assert!(a.halo_cells > 0, "{tag}: no ghost cells");

            // the shard grids really are phased
            let geo = GridGeometry::new(dim, eps, n, GridVariant::Auto);
            let options = UpdateOptions {
                use_simd: true,
                num_shards: 3,
                ..UpdateOptions::default()
            };
            let mut engine =
                ShardedEngine::new(geo, ShardPlan::new(&geo, 3), eps, options, &coords);
            engine.iterate(&Executor::new(Some(2)), &mut StageTimings::default());
            assert!(
                engine.shards.iter().any(|sh| sh.grid.lane_phase() != 0),
                "{tag}: every shard grid at lane phase 0: {:?}",
                engine.phase_counts
            );
        }
    }
}
