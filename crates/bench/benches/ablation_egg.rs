//! Ablation — EGG-SynC's individual optimizations.
//!
//! Toggles the structural optimizations DESIGN.md calls out:
//!
//! * the per-cell sin/cos **summaries** (§4.3.1) that let fully covered
//!   cells be consumed without touching their points,
//! * the **precomputed surrounding non-empty cells** (§4.2.5) that stop
//!   threads from probing empty space,
//! * the **incremental grid maintenance** that re-bins only movers and
//!   skips cells whose whole ε-reach is stationary, and
//! * the **SIMD lane kernels** that stripe four trig-table rows per step
//!   through the partial-cell pair term.
//!
//! All combinations produce identical clusterings (enforced by the test
//! suite); this bench quantifies what each trick buys. The later groups
//! isolate single toggles on the paper-scale n=100k, d=4 workload (shrunk
//! by `EGG_BENCH_SCALE` in quick mode) on the host engine, where every
//! cost is purely wall-clock.

use criterion::{criterion_group, criterion_main, Criterion};
use egg_bench::{append_bench_ledger, bench_ledger_row, default_synthetic, measure, scaled};
use egg_data::Dataset;
use egg_sync_core::egg::algorithm::{Engine, HostEngine};
use egg_sync_core::egg::update::UpdateOptions;
use egg_sync_core::exec::Executor;
use egg_sync_core::grid::{GridGeometry, GridVariant};
use egg_sync_core::instrument::{RunTrace, Stage, StageTimings};
use egg_sync_core::{ClusterAlgorithm, EggSync};

/// The single-grid host engine over `data`, the engine
/// `EggSync::host(eps, _)` runs with `options`.
fn host_engine(data: &Dataset, eps: f64, options: UpdateOptions) -> HostEngine {
    let geometry = GridGeometry::new(data.dim(), eps, data.len(), GridVariant::Auto);
    HostEngine::new(geometry, eps, options, data.coords())
}

/// Iterate `engine` until both termination terms hold or `cap` iterations
/// ran. Returns the iterations run and the stage seconds of all but the
/// first `warm_up` of them.
fn run(
    engine: &mut HostEngine,
    exec: &Executor,
    warm_up: usize,
    cap: usize,
) -> (usize, StageTimings) {
    let mut stages = StageTimings::default();
    for iterations in 1..=cap {
        let done = engine.iterate(exec, &mut stages).done;
        if iterations == warm_up {
            stages = StageTimings::default();
        }
        if done {
            return (iterations, stages);
        }
    }
    (cap, stages)
}

/// The bits of the engine's final positions.
fn final_bits(engine: &mut HostEngine) -> Vec<u64> {
    let coords = engine.finish(&mut RunTrace::default());
    coords.iter().map(|x| x.to_bits()).collect()
}

fn bench_toggles(c: &mut Criterion) {
    let data = default_synthetic(scaled(2_000));
    let mut group = c.benchmark_group("egg_ablation");
    group.sample_size(10);
    for (label, use_summaries, use_pregrid) in [
        ("full", true, true),
        ("no_summaries", false, true),
        ("no_pregrid", true, false),
        ("none", false, false),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut algo = EggSync::new(0.05);
                algo.options = UpdateOptions {
                    use_summaries,
                    use_pregrid,
                    ..UpdateOptions::default()
                };
                algo.cluster(&data)
            })
        });
    }
    group.finish();
}

/// Incremental grid maintenance vs full per-iteration rebuild on the
/// paper-scale n=100k, d=4 workload, host engine.
///
/// Besides the criterion timings, this harness drives the host engine one
/// iteration at a time to isolate the *grid-maintenance* cost after
/// warm-up (every iteration past the first, which is a full build either
/// way) from the engine's stage clock, asserts
/// the two modes produce bitwise-identical clusterings at every tested
/// worker count, and appends a ledger row per mode to `BENCH_egg.json`.
fn bench_incremental_grid_100k_d4(c: &mut Criterion) {
    let n = scaled(100_000);
    let dim = 4;
    let data = egg_data::generator::GaussianSpec {
        n,
        dim,
        ..egg_data::generator::GaussianSpec::default()
    }
    .generate_normalized()
    .0;
    // small enough that synchronization takes many iterations — the
    // regime incremental maintenance targets: late passes where the
    // collapsed clusters are stationary and only stragglers still move
    // (ε=0.2 collapses this workload in ~4 passes and never reaches
    // that regime)
    let eps = 0.02;

    // post-warm-up grid-maintenance seconds of one full clustering run,
    // plus the final coordinate bits and labels for the identity check
    let maintenance_run = |threads: usize, incremental: bool| {
        let options = UpdateOptions {
            use_incremental: incremental,
            ..UpdateOptions::default()
        };
        let mut engine = host_engine(&data, eps, options);
        // the first refresh is a full build either way: leave it out
        let (iterations, stages) = run(&mut engine, &Executor::new(Some(threads)), 1, 10_000);
        let labels = engine.gather();
        let maintenance_secs = stages.get(Stage::BuildStructure);
        (
            maintenance_secs,
            final_bits(&mut engine),
            labels,
            iterations,
        )
    };

    println!("=== egg_incremental_100k_d4 (n={n}, d={dim}) ===");
    for threads in [1, 2, 4] {
        let (full_secs, full_bits, full_labels, iters) = maintenance_run(threads, false);
        let (inc_secs, inc_bits, inc_labels, inc_iters) = maintenance_run(threads, true);
        assert_eq!(
            full_bits, inc_bits,
            "threads {threads}: incremental final coordinates diverged"
        );
        assert_eq!(
            full_labels, inc_labels,
            "threads {threads}: incremental clustering diverged"
        );
        assert_eq!(iters, inc_iters, "threads {threads}: iteration counts");
        let ratio = if inc_secs > 0.0 {
            full_secs / inc_secs
        } else {
            f64::INFINITY
        };
        println!(
            "  t{threads}: grid maintenance post-warm-up  full {full_secs:.4}s  \
             incremental {inc_secs:.4}s  ({ratio:.1}x reduction, {iters} iterations)"
        );
    }

    // criterion group + ledger rows over whole clustering runs
    let mut group = c.benchmark_group("egg_incremental_100k_d4");
    group.sample_size(10);
    let mut ledger_rows = Vec::new();
    for (label, use_incremental) in [("full_rebuild", false), ("incremental", true)] {
        let mut algo = EggSync::host(eps, Some(1));
        algo.options = UpdateOptions {
            use_incremental,
            ..UpdateOptions::default()
        };
        let m = measure(&algo, &data, n as f64);
        ledger_rows.push(bench_ledger_row(
            "ablation_incremental",
            &format!("EGG-host/{label}"),
            n,
            dim,
            m.engine_threads.unwrap_or(1),
            m.iterations,
            m.wall_seconds,
            &m.stages,
            &m.counters,
        ));
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut algo = EggSync::host(eps, Some(1));
                algo.options = UpdateOptions {
                    use_incremental,
                    ..UpdateOptions::default()
                };
                algo.cluster(&data)
            })
        });
    }
    group.finish();
    match append_bench_ledger(&ledger_rows) {
        Ok(ledger) => println!("(ledger appended to {})", ledger.display()),
        Err(e) => eprintln!("warning: could not append BENCH_egg.json: {e}"),
    }
}

/// SIMD lane kernels vs the scalar oracle on the paper-scale n=100k, d=4
/// workload, host engine.
///
/// Besides the criterion timings, this harness drives the host engine one
/// iteration at a time to isolate the *pair-term stage* the lane kernels
/// target, read from the engine's stage clock: the
/// update runs with summaries off, so every overlapping cell goes through
/// the partial-cell pair term (with summaries on the fully-covered fast
/// path consumes most cells and the pair term is a sliver of the update).
/// The loop is capped at [`SIMD_STAGE_ITERS`] iterations — per-iteration
/// cost is stationary, and the cap keeps the full-scale (n=100k,
/// summaries-off) configuration bounded. The harness asserts the SIMD
/// output is bitwise identical across 1/4/8 workers and within 1e-9 of
/// the scalar oracle, prints the simd-off/simd-on ratio, and appends a
/// ledger row per mode to `BENCH_egg.json`.
fn bench_simd_update_100k_d4(c: &mut Criterion) {
    /// Iteration cap of the hand-driven pair-term stage measurement.
    const SIMD_STAGE_ITERS: usize = 12;

    let n = scaled(100_000);
    let dim = 4;
    let data = egg_data::generator::GaussianSpec {
        n,
        dim,
        ..egg_data::generator::GaussianSpec::default()
    }
    .generate_normalized()
    .0;
    let eps = 0.2;

    // update-stage seconds of one full clustering run, plus the final
    // coordinate bits for the identity/tolerance checks
    let update_run = |threads: usize, use_simd: bool| {
        let options = UpdateOptions {
            use_simd,
            use_incremental: false,
            use_summaries: false,
            ..UpdateOptions::default()
        };
        let mut engine = host_engine(&data, eps, options);
        let exec = Executor::new(Some(threads));
        let (iterations, stages) = run(&mut engine, &exec, 0, SIMD_STAGE_ITERS);
        (
            stages.get(Stage::Update),
            final_bits(&mut engine),
            iterations,
        )
    };

    println!("=== egg_simd_100k_d4 (n={n}, d={dim}) ===");
    let (scalar_secs, scalar_bits, scalar_iters) = update_run(1, false);
    let mut simd_bits_t1: Option<Vec<u64>> = None;
    for threads in [1, 4, 8] {
        let (simd_secs, bits, iters) = update_run(threads, true);
        assert_eq!(scalar_iters, iters, "threads {threads}: iteration counts");
        match &simd_bits_t1 {
            None => {
                let ratio = if simd_secs > 0.0 {
                    scalar_secs / simd_secs
                } else {
                    f64::INFINITY
                };
                println!(
                    "  t1: pair-term stage (summaries off)  scalar {scalar_secs:.4}s  \
                     simd {simd_secs:.4}s  ({ratio:.2}x, {iters} iterations)"
                );
                // scalar stays the oracle: lane reassociation only
                for (a, b) in scalar_bits.iter().zip(&bits) {
                    let (a, b) = (f64::from_bits(*a), f64::from_bits(*b));
                    assert!(
                        (a - b).abs() <= 1e-9,
                        "simd diverged from scalar: {a} vs {b}"
                    );
                }
                simd_bits_t1 = Some(bits);
            }
            Some(reference) => assert_eq!(
                reference, &bits,
                "threads {threads}: SIMD output is not worker-count invariant"
            ),
        }
    }

    // criterion group + ledger rows over whole clustering runs
    let mut group = c.benchmark_group("egg_simd_100k_d4");
    group.sample_size(10);
    let mut ledger_rows = Vec::new();
    for (label, use_simd) in [("simd", true), ("scalar", false)] {
        let mut algo = EggSync::host(eps, Some(1));
        algo.options = UpdateOptions {
            use_simd,
            ..UpdateOptions::default()
        };
        let m = measure(&algo, &data, n as f64);
        ledger_rows.push(bench_ledger_row(
            "ablation_simd",
            &format!("EGG-host/{label}"),
            n,
            dim,
            m.engine_threads.unwrap_or(1),
            m.iterations,
            m.wall_seconds,
            &m.stages,
            &m.counters,
        ));
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut algo = EggSync::host(eps, Some(1));
                algo.options = UpdateOptions {
                    use_simd,
                    ..UpdateOptions::default()
                };
                algo.cluster(&data)
            })
        });
    }
    group.finish();
    match append_bench_ledger(&ledger_rows) {
        Ok(ledger) => println!("(ledger appended to {})", ledger.display()),
        Err(e) => eprintln!("warning: could not append BENCH_egg.json: {e}"),
    }
}

criterion_group!(
    benches,
    bench_toggles,
    bench_simd_update_100k_d4,
    bench_incremental_grid_100k_d4
);
criterion_main!(benches);
