//! Figure 3b — EGG-SynC's speedup over SynC and FSynC as n grows, on the
//! paper's doubling envelope (n = 2 000 → 1 024 000).
//!
//! Paper shape: EGG-SynC is the fastest method and both speedup curves
//! *grow* with n (the summarized cells absorb ever more of the
//! neighborhood as density grows). EGG-SynC runs the full envelope on the
//! simulated device and is compared by its simulated-device time — the
//! number that carries the paper's RTX 3090 shape. The O(n²) baselines
//! are measured up to a cap and extrapolated quadratically beyond it
//! (per-iteration cost is Θ(n²) while iteration counts stay flat);
//! extrapolated cells are marked `~` in the table and never enter the
//! BENCH_egg.json ledger.
//!
//! A fused-pipeline evidence cell (n = 100 000, d = 4) runs the device
//! backend with `use_fused_kernels` on and off, which chooses how the
//! lane tables, summaries and cell MBRs are written: the fused per-cell
//! writer must launch fewer kernels, move fewer memory words, issue fewer
//! atomics (it has no f64 summary scatter) and spend less simulated time
//! in build+update per iteration, while producing the same clustering.
//! Its per-stage simulated times and kernel totals are appended to the
//! ledger as d = 4 rows.

use egg_bench::{
    append_bench_ledger, bench_ledger_row_for, default_synthetic, measure, scaled, Experiment,
    Measurement,
};
use egg_sync_core::instrument::Stage;
use egg_sync_core::{EggSync, FSync, Sync};

/// One sweep cell: baseline seconds plus whether they were measured
/// (`true`) or extrapolated from the last measured anchor (`false`).
struct SpeedupRow {
    n: usize,
    egg_sim: f64,
    sync_secs: (f64, bool),
    fsync_secs: (f64, bool),
}

fn main() {
    let mut exp = Experiment::new("fig3b_speedup", "n");
    // the paper's doubling sweep, 2 000 → 1 024 000
    let sweep = [
        2_000, 4_000, 8_000, 16_000, 32_000, 64_000, 128_000, 256_000, 512_000, 1_024_000,
    ];
    let brute_cap = scaled(8_000);
    let mut rows: Vec<SpeedupRow> = Vec::new();
    // last measured (n, wall) of each O(n²) baseline: the extrapolation
    // anchor for the envelope beyond the cap
    let mut sync_anchor: Option<(usize, f64)> = None;
    let mut fsync_anchor: Option<(usize, f64)> = None;
    let mut last_n = 0usize;
    for &raw_n in &sweep {
        let n = scaled(raw_n);
        if n == last_n {
            continue; // deep downscale collapsed onto the 64-point floor
        }
        last_n = n;
        let data = default_synthetic(n);
        let brute = |algo: &dyn egg_sync_core::ClusterAlgorithm,
                     anchor: &mut Option<(usize, f64)>,
                     exp: &mut Experiment| {
            if n <= brute_cap {
                let m = measure(algo, &data, n as f64);
                let wall = m.wall_seconds;
                *anchor = Some((n, wall));
                exp.push(m);
                (wall, true)
            } else {
                let (n0, w0) = anchor.expect("anchor measured before the cap");
                (w0 * (n as f64 / n0 as f64).powi(2), false)
            }
        };
        let sync_secs = brute(&Sync::new(0.05), &mut sync_anchor, &mut exp);
        let fsync_secs = brute(&FSync::new(0.05), &mut fsync_anchor, &mut exp);
        let egg = measure(&EggSync::new(0.05), &data, n as f64);
        let egg_sim = egg.sim_seconds.expect("device backend records sim time");
        exp.push(egg);
        rows.push(SpeedupRow {
            n,
            egg_sim,
            sync_secs,
            fsync_secs,
        });
    }

    let fmt = |(secs, measured): (f64, bool), egg_sim: f64| {
        let mark = if measured { "" } else { "~" };
        format!("{mark}{:.1}x", secs / egg_sim)
    };
    println!("\nEGG-SynC simulated-device speedup (~ = extrapolated baseline):");
    println!(
        "{:>9} {:>13} {:>12} {:>12}",
        "n", "EGG sim", "vs SynC", "vs FSynC"
    );
    for r in &rows {
        println!(
            "{:>9} {:>12.6}s {:>12} {:>12}",
            r.n,
            r.egg_sim,
            fmt(r.sync_secs, r.egg_sim),
            fmt(r.fsync_secs, r.egg_sim),
        );
    }
    // the paper's relative ordering: EGG-SynC is fastest at scale and its
    // advantage over both O(n²) baselines grows with n
    let (first, last) = (
        rows.first().expect("sweep ran"),
        rows.last().expect("sweep ran"),
    );
    assert!(
        last.sync_secs.0 / last.egg_sim > 1.0 && last.fsync_secs.0 / last.egg_sim > 1.0,
        "EGG-SynC must be fastest at n={}",
        last.n
    );
    assert!(
        last.sync_secs.0 / last.egg_sim > first.sync_secs.0 / first.egg_sim
            && last.fsync_secs.0 / last.egg_sim > first.fsync_secs.0 / first.egg_sim,
        "speedup must grow with n"
    );

    // sweep rows (all 2-D) enter the ledger before the d = 4 evidence cell
    let mut ledger_rows: Vec<_> = exp
        .rows()
        .iter()
        .map(|m| bench_ledger_row_for("fig3b_speedup", m, 2))
        .collect();

    // --- fused-pipeline evidence cell: n = 100 000, d = 4 ---------------
    let n4 = scaled(100_000);
    let data4 = egg_data::generator::GaussianSpec {
        n: n4,
        dim: 4,
        ..egg_data::generator::GaussianSpec::default()
    }
    .generate_normalized()
    .0;
    let run = |fused: bool| -> Measurement {
        let mut algo = EggSync::new(0.25);
        algo.options.use_fused_kernels = fused;
        let mut m = measure(&algo, &data4, n4 as f64);
        m.algorithm = if fused {
            "EGG-fused".to_owned()
        } else {
            "EGG-unfused".to_owned()
        };
        m
    };
    let fused = run(true);
    let unfused = run(false);
    let per_iter = |m: &Measurement| {
        let k = m.kernel.expect("device kernels recorded");
        let sim = m.sim_stages.expect("sim stages recorded");
        let iters = m.iterations.max(1) as f64;
        (
            k.launches as f64 / iters,
            k.mem_words as f64 / iters,
            k.coalesced_fraction(),
            k.atomics as f64 / iters,
            (sim.get(Stage::BuildStructure) + sim.get(Stage::Update)) / iters,
        )
    };
    let (fl, fw, ff, fa, ft) = per_iter(&fused);
    let (ul, uw, uf, ua, ut) = per_iter(&unfused);
    println!("\nFused vs unfused device pipeline (n={n4}, d=4, per iteration):");
    println!(
        "{:>10} {:>10} {:>14} {:>10} {:>12} {:>16}",
        "", "launches", "mem words", "coalesced", "atomics", "sim build+upd"
    );
    for (name, l, w, f, a, t) in [
        ("fused", fl, fw, ff, fa, ft),
        ("unfused", ul, uw, uf, ua, ut),
    ] {
        println!(
            "{name:>10} {l:>10.1} {w:>14.0} {f:>9.1}% {a:>12.0} {t:>15.6}s",
            f = f * 100.0
        );
    }
    assert_eq!(
        fused.clusters, unfused.clusters,
        "fusion changed the clustering"
    );
    assert!(
        fl < ul,
        "fused pipeline must launch fewer kernels ({fl} vs {ul})"
    );
    assert!(
        fw < uw,
        "fused pipeline must move fewer words ({fw} vs {uw})"
    );
    assert!(
        fa < ua,
        "fused pipeline must issue fewer atomics ({fa} vs {ua})"
    );
    assert!(
        ft < ut,
        "fused build+update must be cheaper in simulated time ({ft} vs {ut})"
    );
    ledger_rows.push(bench_ledger_row_for("fig3b_speedup", &fused, 4));
    ledger_rows.push(bench_ledger_row_for("fig3b_speedup", &unfused, 4));
    exp.push(fused);
    exp.push(unfused);

    match append_bench_ledger(&ledger_rows) {
        Ok(ledger) => println!("(ledger appended to {})", ledger.display()),
        Err(e) => eprintln!("warning: could not append BENCH_egg.json: {e}"),
    }
    exp.finish();
}
