//! Shard scaling — runtime and per-shard grid footprint vs shard count
//! (default synthetic workload: 2-D, 5 Gaussian clusters, σ = 5,
//! ε = 0.05, the paper envelope's n = 1 024 000).
//!
//! Sharding is a memory-scaling lever, not a speedup lever: the update
//! work is identical (the output is bitwise identical — asserted here
//! against the S = 1 oracle), each shard's resident grid shrinks to
//! roughly 1/S of the single grid plus the ε-halo, and the halo-exchange
//! bookkeeping is the price. The regression gate catches either the
//! update stage slowing down or the exchange stage growing. Set
//! `EGG_BENCH_SCALE` (e.g. `0.25`) for CI quick mode.

use egg_bench::{
    append_bench_ledger, bench_ledger_row, default_synthetic, measurement_from, scaled, Experiment,
};
use egg_sync_core::{ClusterAlgorithm, EggSync};
use std::time::Instant;

fn main() {
    let mut exp = Experiment::new("fig_shard_scaling", "shards");
    let n = scaled(1_024_000);
    let data = default_synthetic(n);

    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut oracle: Option<(Vec<u32>, Vec<u64>, usize)> = None;
    for shards in [1usize, 2, 4, 8] {
        let mut algo = EggSync::host(0.05, None);
        algo.options.num_shards = shards;
        let start = Instant::now();
        let result = algo.cluster(&data);
        let wall = start.elapsed().as_secs_f64();

        // the shard count may not show in the output
        let coords = bits(result.final_coords.coords());
        match &oracle {
            None => oracle = Some((result.labels.clone(), coords, result.iterations)),
            Some((labels, oracle_coords, iterations)) => {
                assert_eq!(&result.labels, labels, "S={shards}: labels diverged");
                assert_eq!(&coords, oracle_coords, "S={shards}: coordinates diverged");
                assert_eq!(
                    result.iterations, *iterations,
                    "S={shards}: iterations diverged"
                );
            }
        }
        println!(
            "S={shards}: total grid {:.1} MiB, largest shard grid {:.1} MiB",
            result.trace.peak_structure_bytes as f64 / (1 << 20) as f64,
            result.trace.peak_shard_structure_bytes as f64 / (1 << 20) as f64,
        );
        exp.push(measurement_from(
            &format!("{} S={shards}", algo.name()),
            shards as f64,
            wall,
            &result,
        ));
    }

    let ledger_rows: Vec<_> = exp
        .rows()
        .iter()
        .map(|m| {
            bench_ledger_row(
                "fig_shard_scaling",
                &m.algorithm,
                n,
                2,
                m.engine_threads.unwrap_or(1),
                m.iterations,
                m.wall_seconds,
                &m.stages,
                &m.counters,
            )
        })
        .collect();
    match append_bench_ledger(&ledger_rows) {
        Ok(ledger) => println!("(ledger appended to {})", ledger.display()),
        Err(e) => eprintln!("warning: could not append BENCH_egg.json: {e}"),
    }
    exp.finish();
}
