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
//! A device evidence cell (n = 100 000, d = 4) prints the device
//! pipeline's kernel launches, memory words, coalesced fraction, atomics
//! and simulated build+update time per iteration. Its per-stage simulated
//! times and kernel totals are appended to the ledger as a d = 4 row.

use egg_bench::{
    append_bench_ledger, bench_ledger_row_for, default_synthetic, measure, scaled, Experiment,
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

    // --- device evidence cell: n = 100 000, d = 4 -----------------------
    let n4 = scaled(100_000);
    let data4 = egg_data::generator::GaussianSpec {
        n: n4,
        dim: 4,
        ..egg_data::generator::GaussianSpec::default()
    }
    .generate_normalized()
    .0;
    let mut cell = measure(&EggSync::new(0.25), &data4, n4 as f64);
    // the cell's ledger group, which the gate diffs against earlier rows
    cell.algorithm = "EGG-fused".to_owned();
    let k = cell.kernel.expect("device kernels recorded");
    let sim = cell.sim_stages.expect("sim stages recorded");
    let iters = cell.iterations.max(1) as f64;
    println!("\nDevice pipeline (n={n4}, d=4, per iteration):");
    println!(
        "{:>10} {:>14} {:>10} {:>12} {:>16}",
        "launches", "mem words", "coalesced", "atomics", "sim build+upd"
    );
    println!(
        "{:>10.1} {:>14.0} {:>9.1}% {:>12.0} {:>15.6}s",
        k.launches as f64 / iters,
        k.mem_words as f64 / iters,
        k.coalesced_fraction() * 100.0,
        k.atomics as f64 / iters,
        (sim.get(Stage::BuildStructure) + sim.get(Stage::Update)) / iters,
    );
    ledger_rows.push(bench_ledger_row_for("fig3b_speedup", &cell, 4));
    exp.push(cell);

    match append_bench_ledger(&ledger_rows) {
        Ok(ledger) => println!("(ledger appended to {})", ledger.display()),
        Err(e) => eprintln!("warning: could not append BENCH_egg.json: {e}"),
    }
    exp.finish();
}
