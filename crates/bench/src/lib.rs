//! Shared infrastructure for the paper-figure benchmark harnesses.
//!
//! Every figure and table of the EGG-SynC paper's evaluation has a bench
//! target in `benches/` that regenerates it: a workload generator, the
//! parameter sweep, and a printer that emits the same rows/series the
//! paper reports. Each harness prints a human-readable table to stdout
//! and writes a machine-readable JSON series to
//! `target/paper_results/<experiment>.json`.
//!
//! Host context: this reproduction runs on a single CPU core with a
//! *simulated* GPU, so two time columns are reported — `wall` (host
//! seconds, which cannot show device parallelism) and `sim` (the cost
//! model's estimate on the paper's RTX 3090, which carries the paper's
//! relative shape for the GPU algorithms). Dataset sizes are scaled down
//! accordingly; EXPERIMENTS.md records paper-vs-measured per figure.

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

use egg_data::Dataset;
use egg_sync_core::instrument::{KernelSummary, Stage, StageTimings, UpdateCounters};
use egg_sync_core::{ClusterAlgorithm, Clustering};
use serde::Serialize;

/// One measured run: the unit every figure's series is built from.
#[derive(Debug, Clone, Serialize)]
pub struct Measurement {
    /// Algorithm display name.
    pub algorithm: String,
    /// Sweep coordinate (n, d, k, σ, ε, … — the figure's x-axis).
    pub x: f64,
    /// Host wall-clock seconds.
    pub wall_seconds: f64,
    /// Simulated-GPU seconds (None for CPU algorithms).
    pub sim_seconds: Option<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Clusters found.
    pub clusters: usize,
    /// Peak auxiliary-structure bytes.
    pub structure_bytes: usize,
    /// Per-stage host wall-clock breakdown of the run.
    pub stages: StageTimings,
    /// Per-stage simulated-GPU breakdown (GPU-backed algorithms only).
    pub sim_stages: Option<StageTimings>,
    /// Kernel launch/word totals (GPU-backed algorithms only).
    pub kernel: Option<KernelSummary>,
    /// Host execution-engine worker threads, when the engine ran.
    pub engine_threads: Option<usize>,
    /// EGG-update work counters (zero for non-EGG algorithms).
    pub counters: UpdateCounters,
}

/// Run one algorithm on one dataset and record a [`Measurement`].
pub fn measure(algo: &dyn ClusterAlgorithm, data: &Dataset, x: f64) -> Measurement {
    let start = Instant::now();
    let result = algo.cluster(data);
    let wall = start.elapsed().as_secs_f64();
    measurement_from(algo.name(), x, wall, &result)
}

/// Build a [`Measurement`] from an existing clustering result.
pub fn measurement_from(name: &str, x: f64, wall: f64, result: &Clustering) -> Measurement {
    Measurement {
        algorithm: name.to_owned(),
        x,
        wall_seconds: wall,
        sim_seconds: result.trace.total_sim_seconds,
        iterations: result.iterations,
        clusters: result.num_clusters,
        structure_bytes: result.trace.peak_structure_bytes,
        stages: result.trace.stages,
        sim_stages: result.trace.sim_stages,
        kernel: result.trace.kernel_summary,
        engine_threads: result.trace.engine_threads,
        counters: result.trace.update_counters,
    }
}

fn secs_to_ns(seconds: f64) -> u64 {
    (seconds * 1e9).round().max(0.0) as u64
}

/// One row of the cross-PR benchmark ledger `BENCH_egg.json`: which
/// experiment and method produced the run, its workload shape (n, d,
/// threads), a unix-milliseconds timestamp (rows appended later must not
/// go backwards — the regression checker validates monotonicity per
/// group), the per-stage nanoseconds that trend dashboards diff across
/// commits, and the EGG-update work counters (all-zero for non-EGG
/// methods).
#[allow(clippy::too_many_arguments)]
pub fn bench_ledger_row(
    experiment: &str,
    method: &str,
    n: usize,
    d: usize,
    threads: usize,
    iterations: usize,
    wall_seconds: f64,
    stages: &StageTimings,
    counters: &UpdateCounters,
) -> serde_json::Value {
    let stages_ns = serde_json::json!({
        "allocating": secs_to_ns(stages.get(Stage::Allocating)),
        "build_structure": secs_to_ns(stages.get(Stage::BuildStructure)),
        "update": secs_to_ns(stages.get(Stage::Update)),
        "extra_check": secs_to_ns(stages.get(Stage::ExtraCheck)),
        "clustering": secs_to_ns(stages.get(Stage::Clustering)),
        "free_memory": secs_to_ns(stages.get(Stage::FreeMemory)),
        "halo_exchange": secs_to_ns(stages.get(Stage::HaloExchange)),
        "exec_dispatch": secs_to_ns(stages.get(Stage::ExecDispatch)),
    });
    let counters_json = serde_json::json!({
        "summary_cells": counters.summary_cells,
        "point_pairs": counters.point_pairs,
        "sin_calls_avoided": counters.sin_calls_avoided,
        "moved_points": counters.moved_points,
        "dirty_cells": counters.dirty_cells,
        "cells_skipped": counters.cells_skipped,
        "simd_lanes": counters.simd_lanes,
        "simd_remainder_lanes": counters.simd_remainder_lanes,
        "shard_count": counters.shard_count,
        "halo_movers": counters.halo_movers,
        "halo_cells": counters.halo_cells,
        "exec_dispatches": counters.exec_dispatches,
    });
    let timestamp_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    serde_json::json!({
        "experiment": experiment,
        "method": method,
        "n": n,
        "d": d,
        "threads": threads,
        "iterations": iterations,
        "timestamp_ms": timestamp_ms,
        "wall_ns": secs_to_ns(wall_seconds),
        "stages_ns": stages_ns,
        "counters": counters_json,
    })
}

/// Ledger row built from a [`Measurement`]: the base
/// [`bench_ledger_row`] plus, for GPU-backed runs, the deterministic
/// simulated-time stage breakdown (`sim_*` keys inside `stages_ns` —
/// tracked by `scripts/check_bench_regression.py` like the host stages,
/// but noise-free because the cost model is a pure function of the
/// kernels' operation counts) and the kernel-level launch/word totals.
pub fn bench_ledger_row_for(experiment: &str, m: &Measurement, d: usize) -> serde_json::Value {
    let mut row = bench_ledger_row(
        experiment,
        &m.algorithm,
        m.x as usize,
        d,
        m.engine_threads.unwrap_or(1),
        m.iterations,
        m.wall_seconds,
        &m.stages,
        &m.counters,
    );
    let serde_json::Value::Object(entries) = &mut row else {
        return row;
    };
    if let Some(sim) = &m.sim_stages {
        if let Some((_, serde_json::Value::Object(stages))) =
            entries.iter_mut().find(|(k, _)| k == "stages_ns")
        {
            for (key, stage) in [
                ("sim_allocating", Stage::Allocating),
                ("sim_build_structure", Stage::BuildStructure),
                ("sim_update", Stage::Update),
                ("sim_extra_check", Stage::ExtraCheck),
                ("sim_clustering", Stage::Clustering),
            ] {
                let ns = secs_to_ns(sim.get(stage));
                stages.push((key.to_owned(), serde_json::to_value(&ns)));
            }
        }
    }
    if let Some(k) = &m.kernel {
        for (key, v) in [
            ("kernel_launches", k.launches),
            ("kernel_mem_words", k.mem_words),
            ("kernel_coalesced_words", k.coalesced_words),
            ("kernel_atomics", k.atomics),
        ] {
            entries.push((key.to_owned(), serde_json::to_value(&v)));
        }
    }
    row
}

/// Append ledger rows to the JSON array at `path`, creating the file if
/// needed. The in-tree `serde_json` shim is write-only, so existing
/// content is preserved by splicing the new rows in front of the array's
/// closing bracket instead of parse-and-rewrite.
pub fn append_bench_ledger_at(
    path: &std::path::Path,
    rows: &[serde_json::Value],
) -> std::io::Result<()> {
    let mut text = std::fs::read_to_string(path).unwrap_or_default();
    if text.rfind(']').is_none() {
        text = "[\n]\n".to_owned();
    }
    let insert_at = text.rfind(']').expect("array close ensured above");
    let has_rows = text[..insert_at].contains('}');
    let mut payload = String::new();
    for (i, row) in rows.iter().enumerate() {
        if has_rows || i > 0 {
            payload.push(',');
        }
        payload.push('\n');
        payload.push_str(&serde_json::to_string(row).expect("serializable"));
    }
    payload.push('\n');
    text.insert_str(insert_at, &payload);
    std::fs::write(path, text)
}

/// Append rows to the default ledger `target/paper_results/BENCH_egg.json`
/// and return its path.
pub fn append_bench_ledger(rows: &[serde_json::Value]) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("BENCH_egg.json");
    append_bench_ledger_at(&path, rows)?;
    Ok(path)
}

/// Collects an experiment's measurements, prints the paper-style table and
/// persists the JSON series.
pub struct Experiment {
    /// Experiment id, e.g. `fig3a_scalability`.
    pub name: String,
    /// Label of the sweep coordinate, e.g. `n` or `epsilon`.
    pub x_label: String,
    rows: Vec<Measurement>,
}

impl Experiment {
    /// Start an experiment.
    pub fn new(name: &str, x_label: &str) -> Self {
        println!("=== {name} ===");
        Self {
            name: name.to_owned(),
            x_label: x_label.to_owned(),
            rows: Vec::new(),
        }
    }

    /// Record (and echo) one measurement.
    pub fn push(&mut self, m: Measurement) {
        let sim = m
            .sim_seconds
            .map_or_else(|| "      -".to_owned(), |s| format!("{s:>9.6}"));
        println!(
            "  {:<10} {}={:<9} wall {:>9.3}s  sim {}s  iters {:>5}  clusters {:>5}",
            m.algorithm, self.x_label, m.x, m.wall_seconds, sim, m.iterations, m.clusters
        );
        self.rows.push(m);
    }

    /// All measurements so far.
    pub fn rows(&self) -> &[Measurement] {
        &self.rows
    }

    /// Wall-clock seconds of the named series at a given x, if measured.
    pub fn wall_of(&self, algorithm: &str, x: f64) -> Option<f64> {
        self.rows
            .iter()
            .find(|m| m.algorithm == algorithm && m.x == x)
            .map(|m| m.wall_seconds)
    }

    /// Print the final grouped table and write the JSON series.
    pub fn finish(self) {
        // grouped summary, one line per (algorithm, x)
        println!("\n{} summary ({} on the x-axis):", self.name, self.x_label);
        let mut algorithms: Vec<&str> = Vec::new();
        for m in &self.rows {
            if !algorithms.contains(&m.algorithm.as_str()) {
                algorithms.push(m.algorithm.as_str());
            }
        }
        for algo in algorithms {
            let series: Vec<String> = self
                .rows
                .iter()
                .filter(|m| m.algorithm == algo)
                .map(|m| format!("{}={} → {:.3}s", self.x_label, m.x, m.wall_seconds))
                .collect();
            println!("  {:<10} {}", algo, series.join(", "));
        }
        if let Err(e) = self.write_json() {
            eprintln!("warning: could not persist results: {e}");
        }
    }

    fn write_json(&self) -> std::io::Result<()> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.json", self.name));
        let mut file = std::fs::File::create(&path)?;
        let payload = serde_json::json!({
            "experiment": self.name,
            "x_label": self.x_label,
            "rows": self.rows,
        });
        file.write_all(
            serde_json::to_string_pretty(&payload)
                .expect("serializable")
                .as_bytes(),
        )?;
        println!("(series written to {})\n", path.display());
        Ok(())
    }
}

/// Directory where all figure harnesses persist their JSON series:
/// `<workspace>/target/paper_results`. Bench binaries run with the crate
/// directory as CWD, so the path is anchored at this crate's manifest and
/// resolved to the workspace's target directory (or `CARGO_TARGET_DIR`).
pub fn results_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target"));
    target.join("paper_results")
}

/// The paper's default synthetic workload at size `n` (2-D, 5 Gaussian
/// clusters, σ = 5), normalized.
pub fn default_synthetic(n: usize) -> Dataset {
    egg_data::generator::GaussianSpec {
        n,
        ..egg_data::generator::GaussianSpec::default()
    }
    .generate_normalized()
    .0
}

/// Scale factor for quick runs: set `EGG_BENCH_SCALE` (e.g. `0.25`) to
/// shrink every harness's dataset sizes.
///
/// # Panics
/// If `EGG_BENCH_SCALE` is set to anything but a finite number above 0:
/// a mistyped scale would otherwise run a harness at some other size.
pub fn scaled(n: usize) -> usize {
    static FACTOR: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    let factor = *FACTOR.get_or_init(|| match std::env::var_os("EGG_BENCH_SCALE") {
        None => 1.0,
        Some(value) => value
            .to_str()
            .and_then(parse_scale)
            .unwrap_or_else(|| panic!("EGG_BENCH_SCALE={value:?}: want a finite number above 0")),
    });
    ((n as f64 * factor) as usize).max(64)
}

/// Parse an `EGG_BENCH_SCALE` value: a finite number above 0, or `None`.
fn parse_scale(value: &str) -> Option<f64> {
    value
        .trim()
        .parse::<f64>()
        .ok()
        .filter(|f| f.is_finite() && *f > 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use egg_sync_core::EggSync;

    #[test]
    fn measure_records_everything() {
        let data = default_synthetic(200);
        let m = measure(&EggSync::new(0.05), &data, 200.0);
        assert_eq!(m.algorithm, "EGG-SynC");
        assert!(m.wall_seconds > 0.0);
        assert!(m.sim_seconds.unwrap() > 0.0);
        assert!(m.clusters >= 1);
    }

    #[test]
    fn experiment_lookup() {
        let data = default_synthetic(150);
        let mut exp = Experiment::new("unit_test", "n");
        exp.push(measure(&EggSync::new(0.05), &data, 150.0));
        assert!(exp.wall_of("EGG-SynC", 150.0).is_some());
        assert!(exp.wall_of("EGG-SynC", 99.0).is_none());
        assert!(exp.wall_of("SynC", 150.0).is_none());
    }

    #[test]
    fn scaled_respects_floor() {
        assert!(scaled(10) >= 64);
    }

    #[test]
    fn scale_env_parse() {
        assert_eq!(parse_scale("0.25"), Some(0.25));
        assert_eq!(parse_scale(" 2 "), Some(2.0));
        assert_eq!(parse_scale("1e-3"), Some(1e-3));
        assert_eq!(parse_scale("0,25"), None);
        assert_eq!(parse_scale("0"), None);
        assert_eq!(parse_scale("-0.5"), None);
        assert_eq!(parse_scale("nan"), None);
        assert_eq!(parse_scale("inf"), None);
        assert_eq!(parse_scale(""), None);
    }

    #[test]
    fn ledger_append_creates_then_splices() {
        let path = std::env::temp_dir().join(format!("egg_ledger_{}.json", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let stages = StageTimings::default();
        let counters = UpdateCounters::default();
        let row = |m: &str| bench_ledger_row("unit", m, 100, 2, 1, 3, 0.5, &stages, &counters);
        append_bench_ledger_at(&path, &[row("a"), row("b")]).unwrap();
        append_bench_ledger_at(&path, &[row("c")]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        // three rows survive two appends, in a well-formed array
        assert_eq!(text.matches("\"experiment\":").count(), 3);
        assert_eq!(text.matches('[').count(), 1);
        assert!(text.trim_end().ends_with(']'));
        for m in ["\"a\"", "\"b\"", "\"c\""] {
            assert!(text.contains(m), "missing row {m}");
        }
        assert!(text.contains("\"wall_ns\":500000000"));
    }

    #[test]
    fn measurement_row_carries_sim_stages_and_kernel_totals() {
        let data = default_synthetic(150);
        let gpu = measure(&EggSync::new(0.05), &data, 150.0);
        let text = serde_json::to_string(&bench_ledger_row_for("unit", &gpu, 2)).unwrap();
        for key in [
            "\"sim_build_structure\":",
            "\"sim_update\":",
            "\"sim_extra_check\":",
            "\"kernel_launches\":",
            "\"kernel_mem_words\":",
            "\"kernel_coalesced_words\":",
        ] {
            assert!(text.contains(key), "missing {key} in {text}");
        }
        // host runs carry neither a simulated clock nor kernels
        let host = measure(&EggSync::host(0.05, Some(1)), &data, 150.0);
        let htext = serde_json::to_string(&bench_ledger_row_for("unit", &host, 2)).unwrap();
        assert!(!htext.contains("sim_update"));
        assert!(!htext.contains("kernel_launches"));
        assert!(htext.contains("\"update\":"));
    }

    #[test]
    fn ledger_row_reports_stage_nanos() {
        let mut stages = StageTimings::default();
        stages.add(Stage::Update, 0.25);
        let counters = UpdateCounters {
            moved_points: 9,
            dirty_cells: 4,
            cells_skipped: 2,
            ..UpdateCounters::default()
        };
        let row = bench_ledger_row("unit", "EGG-SynC", 1000, 4, 2, 7, 1.0, &stages, &counters);
        let text = serde_json::to_string(&row).unwrap();
        assert!(text.contains("\"update\":250000000"));
        assert!(text.contains("\"exec_dispatch\":"));
        assert!(text.contains("\"exec_dispatches\":"));
        assert!(text.contains("\"threads\":2"));
        assert!(text.contains("\"d\":4"));
        assert!(text.contains("\"moved_points\":9"));
        assert!(text.contains("\"dirty_cells\":4"));
        assert!(text.contains("\"cells_skipped\":2"));
    }
}
