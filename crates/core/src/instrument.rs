//! Run instrumentation: stage timings, per-iteration traces, space usage.
//!
//! The paper's evaluation needs more than end-to-end runtimes: Table 1
//! breaks every run into six stages, Figure 3g plots per-iteration times
//! and Figure 3h plots structure memory. Every algorithm in this crate
//! fills a [`RunTrace`] so the benchmark harnesses can print those
//! breakdowns for any run.

use std::time::Instant;

use serde::Serialize;

/// The six pipeline stages of Table 1, plus the sharded-execution halo
/// stage (zero whenever `num_shards == 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Stage {
    /// Device/host buffer allocation.
    Allocating,
    /// Building the grid (or R-Tree) structure, including summaries.
    BuildStructure,
    /// The point-update kernel/loop (Equation 1).
    Update,
    /// The extra synchronization check (Definition 4.2 term 2) — EGG only.
    ExtraCheck,
    /// Gathering the final clustering.
    Clustering,
    /// Releasing memory.
    FreeMemory,
    /// Sharded execution only: mirroring global state into per-shard
    /// locals, scattering owned results back, and the halo-mover
    /// membership exchange between iterations.
    HaloExchange,
    /// Diagnostic: seconds spent inside the executor's dispatch machinery
    /// (the pool's job publication; waits are other workers working and
    /// are not charged) — *contained in* the wall-clock stages above, so
    /// excluded from [`StageTimings::total`]. The number the persistent
    /// pool shrinks.
    ExecDispatch,
    /// Diagnostic with no producer: always zero, because the sharded
    /// iteration is bulk-synchronous. Its only reader is
    /// `perfbench/src/traced.rs`, which reports it as `shard.overlap_s`.
    /// Excluded from [`StageTimings::total`].
    HaloOverlap,
}

impl Stage {
    /// All stages: Table 1 column order, the sharding extras, then the
    /// diagnostic (non-wall-clock) stages.
    pub const ALL: [Stage; 9] = [
        Stage::Allocating,
        Stage::BuildStructure,
        Stage::Update,
        Stage::ExtraCheck,
        Stage::Clustering,
        Stage::FreeMemory,
        Stage::HaloExchange,
        Stage::ExecDispatch,
        Stage::HaloOverlap,
    ];

    /// The wall-clock stages that partition a run's elapsed time; the
    /// diagnostic tail of [`Stage::ALL`] (dispatch overhead, halo overlap)
    /// is measured *inside* these and would double-count.
    pub const WALL_CLOCK: usize = 7;

    /// Column header as printed in Table 1.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Allocating => "Allocating",
            Stage::BuildStructure => "Build structure",
            Stage::Update => "Update",
            Stage::ExtraCheck => "Extra check",
            Stage::Clustering => "Clustering",
            Stage::FreeMemory => "Free Memory",
            Stage::HaloExchange => "Halo exchange",
            Stage::ExecDispatch => "Exec dispatch",
            Stage::HaloOverlap => "Halo overlap",
        }
    }
}

/// Accumulated seconds per stage.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct StageTimings {
    seconds: [f64; 9],
}

impl StageTimings {
    /// Add `seconds` to a stage's accumulator.
    pub fn add(&mut self, stage: Stage, seconds: f64) {
        self.seconds[stage as usize] += seconds;
    }

    /// Accumulated seconds for a stage.
    pub fn get(&self, stage: Stage) -> f64 {
        self.seconds[stage as usize]
    }

    /// Sum over the wall-clock stages. The diagnostic stages
    /// ([`Stage::ExecDispatch`], [`Stage::HaloOverlap`]) are contained in
    /// or overlapped with the wall-clock ones and are deliberately left
    /// out — including them would double-count elapsed time.
    pub fn total(&self) -> f64 {
        self.seconds[..Stage::WALL_CLOCK].iter().sum()
    }
}

/// Work counters of the EGG-update hot loop, accumulated over all
/// iterations of a run. They quantify what the structural optimizations
/// buy: how much of the neighborhood volume was consumed through per-cell
/// summaries versus per-point distance tests, and how many `sin`
/// evaluations the angle-addition fast paths (per-cell Σsin/Σcos and the
/// per-point trig tables) eliminated from the innermost loop.
///
/// The update counts are those of a per-point walk. The host engine walks
/// each run of points whose rows hold the same bits only once, and the
/// run adds `k ×` the counter deltas of that walk for its `k` points: a
/// coincident point still counts the cells, pairs and lanes of its own
/// walk. So the counters are equal on both backends, for any worker,
/// chunk or shard count, and no field counts the reuse itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct UpdateCounters {
    /// Fully-covered cells consumed via their Σsin/Σcos summary (§4.3.1),
    /// with no point access at all.
    pub summary_cells: u64,
    /// Candidate pairs examined on the point path (partially overlapping
    /// cells): one distance computation each.
    pub point_pairs: u64,
    /// Per-dimension `sin` evaluations avoided by the summary and
    /// trig-table fast paths, compared to a per-pair `sin(q_i − p_i)`
    /// implementation.
    pub sin_calls_avoided: u64,
    /// Points whose position changed bitwise during the update passes —
    /// the work-list of the incremental grid maintenance.
    pub moved_points: u64,
    /// Cells whose Σsin/Σcos summaries (and trig rows) were recomputed by
    /// the incremental grid refresh; a full rebuild counts every cell.
    pub dirty_cells: u64,
    /// Cells whose whole ε-reach saw zero movers, so the update pass
    /// reused their cached positions and confinement flags outright.
    pub cells_skipped: u64,
    /// f64 lanes processed by the SIMD pair-term kernel: every visited
    /// partial cell contributes the minimal whole lane blocks covering its
    /// size. A pure function of the visited cell sizes — host and device
    /// backends count identically.
    pub simd_lanes: u64,
    /// The subset of `simd_lanes` that were padding: lanes of a partial
    /// cell's last block that fall beyond its size and are masked off.
    /// High values mean many tiny cells and little lane utilization.
    pub simd_remainder_lanes: u64,
    /// Effective shard count of the run (0 on paths that predate
    /// sharding: the device backend and the unsharded host fast path).
    /// Merging takes the maximum, so per-shard counter merges inside a
    /// sharded run don't sum the constant.
    pub shard_count: u64,
    /// Halo movers exchanged between iterations: membership insertions
    /// plus removals applied to shard member lists because a point's
    /// updated position entered or left a shard's ε-halo region.
    pub halo_movers: u64,
    /// Ghost (halo) cells resident across all shards, accumulated per
    /// iteration — the memory overhead sharding pays for locality.
    pub halo_cells: u64,
    /// Parallel dispatches issued by the host execution engine over the
    /// whole run (inline single-chunk fast paths don't count). Each one is
    /// a pool wakeup — the multiplier on per-dispatch overhead.
    pub exec_dispatches: u64,
}

impl UpdateCounters {
    /// Accumulate another counter set into this one.
    pub fn merge(&mut self, other: &UpdateCounters) {
        self.summary_cells += other.summary_cells;
        self.point_pairs += other.point_pairs;
        self.sin_calls_avoided += other.sin_calls_avoided;
        self.moved_points += other.moved_points;
        self.dirty_cells += other.dirty_cells;
        self.cells_skipped += other.cells_skipped;
        self.simd_lanes += other.simd_lanes;
        self.simd_remainder_lanes += other.simd_remainder_lanes;
        self.shard_count = self.shard_count.max(other.shard_count);
        self.halo_movers += other.halo_movers;
        self.halo_cells += other.halo_cells;
        self.exec_dispatches += other.exec_dispatches;
    }
}

/// Kernel-level totals of a simulated-device run: how many kernels were
/// launched and how many global-memory words they moved, split into the
/// coalesced subset (lane-blocked / broadcast access charged at peak
/// bandwidth by the cost model) and the rest. `fig3b_speedup`'s device
/// evidence cell records them in the ledger.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct KernelSummary {
    /// Kernels launched over the whole run.
    pub launches: u64,
    /// Global-memory words read + written by all kernels.
    pub mem_words: u64,
    /// The subset of `mem_words` issued through the coalesced path.
    pub coalesced_words: u64,
    /// Atomic read-modify-write operations across all kernels.
    pub atomics: u64,
}

impl KernelSummary {
    /// Summarize a device performance report.
    pub fn from_report(report: &egg_gpu_sim::PerfReport) -> Self {
        Self {
            launches: report.kernels.len() as u64,
            mem_words: report.total_mem_words(),
            coalesced_words: report.total_coalesced_reads + report.total_coalesced_writes,
            atomics: report.total_atomics,
        }
    }

    /// Fraction of memory words that went through the coalesced path.
    pub fn coalesced_fraction(&self) -> f64 {
        if self.mem_words == 0 {
            0.0
        } else {
            self.coalesced_words as f64 / self.mem_words as f64
        }
    }
}

/// One iteration's timing record (Figure 3g's series).
#[derive(Debug, Clone, Serialize)]
pub struct IterationRecord {
    /// Iteration index, starting at 0.
    pub iteration: usize,
    /// Host wall-clock seconds spent in this iteration.
    pub seconds: f64,
    /// Simulated GPU seconds for this iteration (GPU-backed algorithms).
    pub sim_seconds: Option<f64>,
    /// Cluster order parameter after the iteration, for λ-terminated runs.
    pub rc: Option<f64>,
}

/// Full instrumentation of one clustering run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct RunTrace {
    /// Host wall-clock seconds per stage.
    pub stages: StageTimings,
    /// Simulated GPU seconds per stage (GPU-backed algorithms only).
    pub sim_stages: Option<StageTimings>,
    /// Per-iteration records, in order.
    pub iterations: Vec<IterationRecord>,
    /// Peak bytes used by auxiliary structures (index/grid, buffers),
    /// excluding the input data itself — Figure 3h's series. Under
    /// sharded execution this is the sum over all resident shard grids.
    pub peak_structure_bytes: usize,
    /// Peak bytes of the single largest resident grid structure: equals
    /// `peak_structure_bytes` on the unsharded host path, and the
    /// largest per-shard grid under sharded execution — the number that
    /// must drop ~1/S for sharding to unlock beyond-RAM scale. Zero on
    /// paths that don't track it (device backend, non-grid algorithms).
    pub peak_shard_structure_bytes: usize,
    /// Total host wall-clock seconds for the run.
    pub total_seconds: f64,
    /// Total simulated GPU seconds (GPU-backed algorithms only).
    pub total_sim_seconds: Option<f64>,
    /// Worker threads of the host execution engine that produced this run
    /// (engine-backed algorithms only) — the x-axis of thread sweeps.
    pub engine_threads: Option<usize>,
    /// EGG-update work counters summed over all iterations (EGG paths
    /// only; zero elsewhere).
    pub update_counters: UpdateCounters,
    /// Kernel-level launch/word totals (simulated-GPU backends only).
    pub kernel_summary: Option<KernelSummary>,
}

impl RunTrace {
    /// Record a candidate peak for structure memory.
    pub fn observe_structure_bytes(&mut self, bytes: usize) {
        self.peak_structure_bytes = self.peak_structure_bytes.max(bytes);
    }

    /// Record a candidate peak for the largest single resident grid.
    pub fn observe_shard_structure_bytes(&mut self, bytes: usize) {
        self.peak_shard_structure_bytes = self.peak_shard_structure_bytes.max(bytes);
    }
}

/// Time a closure, returning its value and elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_accumulation() {
        let mut t = StageTimings::default();
        t.add(Stage::Update, 1.5);
        t.add(Stage::Update, 0.5);
        t.add(Stage::Clustering, 0.25);
        assert_eq!(t.get(Stage::Update), 2.0);
        assert_eq!(t.get(Stage::Allocating), 0.0);
        assert_eq!(t.total(), 2.25);
        // diagnostic stages accumulate but never inflate the total
        t.add(Stage::ExecDispatch, 0.5);
        t.add(Stage::HaloOverlap, 0.75);
        assert_eq!(t.get(Stage::ExecDispatch), 0.5);
        assert_eq!(t.get(Stage::HaloOverlap), 0.75);
        assert_eq!(t.total(), 2.25);
    }

    #[test]
    fn stage_names_match_table1() {
        assert_eq!(Stage::BuildStructure.name(), "Build structure");
        assert_eq!(Stage::ALL.len(), 9);
        // The first six are Table 1's columns; HaloExchange is the
        // sharding extra, then the diagnostic (non-wall-clock) stages.
        assert_eq!(Stage::ALL[6], Stage::HaloExchange);
        assert_eq!(Stage::HaloExchange.name(), "Halo exchange");
        assert_eq!(Stage::WALL_CLOCK, 7);
        assert_eq!(Stage::ALL[7], Stage::ExecDispatch);
        assert_eq!(Stage::ExecDispatch.name(), "Exec dispatch");
        assert_eq!(Stage::ALL[8], Stage::HaloOverlap);
        assert_eq!(Stage::HaloOverlap.name(), "Halo overlap");
    }

    #[test]
    fn timed_measures_and_returns() {
        let (v, secs) = timed(|| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(secs >= 0.004, "measured {secs}");
    }

    #[test]
    fn update_counters_merge_sums_fields() {
        let mut a = UpdateCounters {
            summary_cells: 3,
            point_pairs: 10,
            sin_calls_avoided: 40,
            moved_points: 7,
            dirty_cells: 2,
            cells_skipped: 1,
            simd_lanes: 16,
            simd_remainder_lanes: 6,
            shard_count: 4,
            halo_movers: 9,
            halo_cells: 12,
            exec_dispatches: 20,
        };
        a.merge(&UpdateCounters {
            summary_cells: 1,
            point_pairs: 5,
            sin_calls_avoided: 2,
            moved_points: 3,
            dirty_cells: 4,
            cells_skipped: 5,
            simd_lanes: 8,
            simd_remainder_lanes: 1,
            shard_count: 2,
            halo_movers: 1,
            halo_cells: 3,
            exec_dispatches: 5,
        });
        assert_eq!(a.summary_cells, 4);
        assert_eq!(a.point_pairs, 15);
        assert_eq!(a.sin_calls_avoided, 42);
        assert_eq!(a.moved_points, 10);
        assert_eq!(a.dirty_cells, 6);
        assert_eq!(a.cells_skipped, 6);
        assert_eq!(a.simd_lanes, 24);
        assert_eq!(a.simd_remainder_lanes, 7);
        // shard_count merges by max (a run-wide constant, not a sum)
        assert_eq!(a.shard_count, 4);
        assert_eq!(a.halo_movers, 10);
        assert_eq!(a.halo_cells, 15);
        assert_eq!(a.exec_dispatches, 25);
    }

    #[test]
    fn kernel_summary_fraction() {
        let s = KernelSummary {
            launches: 3,
            mem_words: 200,
            coalesced_words: 50,
            atomics: 7,
        };
        assert_eq!(s.coalesced_fraction(), 0.25);
        assert_eq!(KernelSummary::default().coalesced_fraction(), 0.0);
    }

    #[test]
    fn peak_bytes_keeps_maximum() {
        let mut trace = RunTrace::default();
        trace.observe_structure_bytes(100);
        trace.observe_structure_bytes(50);
        trace.observe_structure_bytes(200);
        assert_eq!(trace.peak_structure_bytes, 200);
    }
}
