//! Micro — the simulated device's parallel primitives (§4.2.1's
//! size → scan → populate idiom): inclusive scan, reduction, stream
//! compaction, and the raw atomic-increment list-claim pattern — plus the
//! raw cost gaps the two fast paths exploit: per-pair `sin(q − p)` vs.
//! the angle-addition FMA over precomputed sin/cos tables, and the scalar
//! pair-term/distance loops vs. their 4-lane kernel editions — and the
//! host update's run classification and candidate walk against the scalar
//! loops they replaced.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use egg_data::generator::GaussianSpec;
use egg_gpu_sim::{grid_for, primitives, Device, DeviceConfig};
use egg_sync_core::egg::update::{CandidateWalk, PointSums, UpdateOptions};
use egg_sync_core::exec::Executor;
use egg_sync_core::grid::{CellGrid, GridGeometry, GridVariant};
use egg_sync_core::instrument::UpdateCounters;
use egg_sync_core::kernels::{
    avx2_available, distance_sq_lanes, pair_term_block, pair_term_cell, F64x4, Mask4, LANES,
};

fn bench_primitives(c: &mut Criterion) {
    let device = Device::new(DeviceConfig::default());
    let n = 100_000usize;
    let input = device.alloc_from_slice::<u64>(&(0..n as u64).map(|i| i % 7).collect::<Vec<_>>());
    let output = device.alloc::<u64>(n);

    let mut group = c.benchmark_group("device_primitives");
    group.sample_size(20);
    group.bench_function("inclusive_scan_100k", |b| {
        b.iter(|| primitives::inclusive_scan(&device, &input, &output, n))
    });
    group.bench_function("reduce_sum_100k", |b| {
        b.iter(|| primitives::reduce_sum(&device, &input, n))
    });
    group.bench_function("compact_100k", |b| {
        let flags = device.alloc_from_slice::<u64>(
            &(0..n as u64)
                .map(|i| u64::from(i % 3 == 0))
                .collect::<Vec<_>>(),
        );
        let out = device.alloc::<u64>(n);
        b.iter(|| primitives::compact_indices(&device, &flags, &out, n))
    });
    group.bench_function("atomic_list_claims_100k", |b| {
        let counters = device.alloc::<u64>(64);
        b.iter_batched(
            || primitives::fill(&device, &counters, 0),
            |()| {
                device.launch("claims", grid_for(n, 128), 128, |t| {
                    let i = t.global_id();
                    if i < n {
                        counters.atomic_inc(i % 64);
                    }
                });
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// Per-call dispatch overhead of the execution engine: 1k tiny
/// `map_ranges_into` fan-outs (32 near-empty chunks each) through the
/// persistent worker pool against the scoped per-call-spawn fallback.
/// The work per chunk is a trivial sum, so the measurement is almost
/// pure dispatch machinery — exactly what a high-iteration run (hundreds
/// of sub-millisecond passes) pays per iteration. The pool's condvar
/// hand-off is expected to beat the 4-thread spawn+join by well over 5×.
fn bench_dispatch_latency(c: &mut Criterion) {
    const DISPATCHES: usize = 1_000;
    const N: usize = 2_048; // 32 chunks of 64 — a real fan-out, tiny work
    let mut out = vec![0usize; 32];

    let mut group = c.benchmark_group("dispatch_latency_1k");
    group.sample_size(10);
    for (label, pooled) in [
        ("pooled_1k_dispatches", true),
        ("scoped_1k_dispatches", false),
    ] {
        let exec = Executor::with_mode(Some(4), pooled);
        assert_eq!(exec.is_pooled(), pooled);
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut acc = 0usize;
                for _ in 0..DISPATCHES {
                    exec.map_ranges_into(N, 64, &mut out, |r| r.sum::<usize>());
                    acc = acc.wrapping_add(out[0]);
                }
                acc
            })
        });
        println!(
            "{label}: {} parallel dispatches, {:.1} us mean overhead",
            exec.dispatch_count(),
            exec.dispatch_overhead_seconds() * 1e6 / exec.dispatch_count().max(1) as f64
        );
    }
    group.finish();
}

/// 1e6 pairwise sine terms, the unit of work in the partial-cell path:
/// direct `sin(q − p)` against `sin q · cos p − cos q · sin p` with the
/// tables built once up front (n·d transcendentals amortized over all
/// pairs, as the EGG-update does per iteration).
fn bench_pair_sin(c: &mut Criterion) {
    const PAIRS: usize = 1_000_000;
    // 1k distinct coordinates → 1e6 ordered pairs, like a dense cell walk
    let side = 1_000usize;
    let coords: Vec<f64> = (0..side)
        .map(|i| (i as u64).wrapping_mul(2654435761) as f64 / u32::MAX as f64)
        .collect();
    assert_eq!(side * side, PAIRS);

    let mut group = c.benchmark_group("pairwise_sin_1e6");
    group.sample_size(20);
    group.bench_function("per_pair_sin", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for &p in &coords {
                for &q in &coords {
                    acc += (q - p).sin();
                }
            }
            acc
        })
    });
    group.bench_function("trig_table_fma", |b| {
        b.iter(|| {
            let sin_t: Vec<f64> = coords.iter().map(|x| x.sin()).collect();
            let cos_t: Vec<f64> = coords.iter().map(|x| x.cos()).collect();
            let mut acc = 0.0f64;
            for (&sin_p, &cos_p) in sin_t.iter().zip(&cos_t) {
                for (&sin_q, &cos_q) in sin_t.iter().zip(&cos_t) {
                    acc += sin_q.mul_add(cos_p, -(cos_q * sin_p));
                }
            }
            acc
        })
    });
    group.finish();
}

/// The lane kernels against their scalar equivalents on a synthetic
/// d=4 workload shaped like the partial-cell hot loop: 4096 neighbor rows
/// in lane-blocked layout, every block masked fully in-range (the common
/// case away from cell boundaries).
fn bench_lane_kernels(c: &mut Criterion) {
    const DIM: usize = 4;
    const ROWS: usize = 4096;
    let blocks = ROWS / LANES;
    // dimension-major lane blocks, deterministic pseudo-random contents
    let val = |k: usize| (k as u64).wrapping_mul(2654435761) as f64 / u32::MAX as f64;
    let coords: Vec<f64> = (0..blocks * DIM * LANES).map(val).collect();
    let sins: Vec<f64> = coords.iter().map(|x| x.sin()).collect();
    let coss: Vec<f64> = coords.iter().map(|x| x.cos()).collect();
    let p = [0.41f64, 0.43, 0.47, 0.53];
    let (sin_p, cos_p) = (p.map(f64::sin), p.map(f64::cos));
    let eps_sq = 0.04f64;

    let mut group = c.benchmark_group("lane_kernels_4k_rows_d4");
    group.sample_size(20);
    group.bench_function("pair_term_scalar", |b| {
        b.iter(|| {
            let mut sums = [0.0f64; DIM];
            let mut hits = 0u32;
            for r in 0..ROWS {
                let (blk, j) = (r / LANES, r % LANES);
                let at = blk * DIM * LANES;
                let mut d_sq = 0.0;
                for i in 0..DIM {
                    let d = coords[at + i * LANES + j] - p[i];
                    d_sq += d * d;
                }
                if d_sq <= eps_sq {
                    hits += 1;
                    for (i, s) in sums.iter_mut().enumerate() {
                        let k = at + i * LANES + j;
                        *s += sins[k] * cos_p[i] - coss[k] * sin_p[i];
                    }
                }
            }
            (sums, hits)
        })
    });
    for (label, use_avx2) in [("pair_term_lanes", false), ("pair_term_lanes_avx2", true)] {
        if use_avx2 && !avx2_available() {
            continue;
        }
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut acc = [F64x4::ZERO; DIM];
                let mut hits = 0u32;
                for blk in 0..blocks {
                    let at = blk * DIM * LANES;
                    hits += pair_term_block(
                        &coords[at..at + DIM * LANES],
                        &sins[at..at + DIM * LANES],
                        &coss[at..at + DIM * LANES],
                        &p,
                        &sin_p,
                        &cos_p,
                        eps_sq,
                        Mask4([true; LANES]),
                        &mut acc,
                        use_avx2,
                    );
                }
                (acc, hits)
            })
        });
    }
    // one dispatch per "cell" (all rows at once) — the hot loop's form;
    // contrast with the per-block cases above, where the `#[target_feature]`
    // call boundary costs a real function call every 4 rows
    for (label, use_avx2) in [("pair_term_cell", false), ("pair_term_cell_avx2", true)] {
        if use_avx2 && !avx2_available() {
            continue;
        }
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut acc = [F64x4::ZERO; DIM];
                let hits = pair_term_cell(
                    &coords, &sins, &coss, DIM, 0, ROWS, &p, &sin_p, &cos_p, eps_sq, &mut acc,
                    use_avx2,
                );
                (acc, hits)
            })
        });
    }
    group.bench_function("distance_sq_scalar", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for r in 0..ROWS {
                let (blk, j) = (r / LANES, r % LANES);
                let at = blk * DIM * LANES;
                let mut d_sq = 0.0;
                for i in 0..DIM {
                    let d = coords[at + i * LANES + j] - p[i];
                    d_sq += d * d;
                }
                acc += d_sq;
            }
            acc
        })
    });
    group.bench_function("distance_sq_lanes", |b| {
        b.iter(|| {
            let mut acc = F64x4::ZERO;
            for blk in 0..blocks {
                let at = blk * DIM * LANES;
                acc += distance_sq_lanes(&coords[at..at + DIM * LANES], &p);
            }
            acc.reduce_sum()
        })
    });
    group.finish();
}

/// The larger of `a` and `b`, `maxpd`'s rule: the scalar classifier's
/// per-dimension max.
fn larger(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// The grid of a `blobs8d`-shaped input: 3 000 points of the paper's
/// Gaussian blobs in d = 8, at ε = 0.2.
fn blobs8d_grid() -> (CellGrid, Vec<f64>, f64) {
    const DIM: usize = 8;
    let eps = 0.2;
    let (data, _) = GaussianSpec {
        n: 3_000,
        dim: DIM,
        seed: 1,
        ..GaussianSpec::default()
    }
    .generate_normalized();
    let geo = GridGeometry::new(DIM, eps, data.len(), GridVariant::Auto);
    let grid = CellGrid::build(&Executor::sequential(), geo, data.coords());
    (grid, data.coords().to_vec(), eps)
}

/// A run's reach classification over a `blobs8d`-shaped grid, every cell
/// of it in the reach (~1 260 cells, d = 8): the per-cell scalar box test
/// over row-major MBRs (`[lo.., hi..]` per cell) against
/// `CellGrid::classify_reach`, four cells per step, portable and AVX2.
fn bench_run_classification(c: &mut Criterion) {
    let (grid, coords, eps) = blobs8d_grid();
    let (dim, cells) = (grid.geometry().dim, grid.num_cells());
    let eps_sq = eps * eps;
    // the same boxes row-major, for the scalar loop
    let mut rows = vec![0.0f64; cells * 2 * dim];
    for cell in 0..cells {
        let (lo, hi) = rows[cell * 2 * dim..(cell + 1) * 2 * dim].split_at_mut(dim);
        lo.fill(f64::INFINITY);
        hi.fill(f64::NEG_INFINITY);
        for &p in grid.cell_points(cell) {
            let p = &coords[p as usize * dim..(p as usize + 1) * dim];
            for i in 0..dim {
                lo[i] = lo[i].min(p[i]);
                hi[i] = hi[i].max(p[i]);
            }
        }
    }
    let run = grid.point_cell()[0] as usize;
    let ranges = [(0u32, cells as u32)];
    let mut list = vec![(0u32, false); cells];

    let mut group = c.benchmark_group("run_classification_1260_cells_d8");
    group.sample_size(20);
    group.bench_function("classify_scalar", |b| {
        b.iter(|| {
            let (a_lo, a_hi) = rows[run * 2 * dim..(run + 1) * 2 * dim].split_at(dim);
            let mut len = 0;
            for cell in 0..cells {
                let (b_lo, b_hi) = rows[cell * 2 * dim..(cell + 1) * 2 * dim].split_at(dim);
                let (mut min, mut max) = (0.0, 0.0);
                for i in 0..dim {
                    let g = larger(larger(b_lo[i] - a_hi[i], a_lo[i] - b_hi[i]), 0.0);
                    min += g * g;
                    let f = larger(a_hi[i] - b_lo[i], b_hi[i] - a_lo[i]);
                    max += f * f;
                }
                if min > eps_sq {
                    continue;
                }
                list[len] = (cell as u32, max <= eps_sq);
                len += 1;
            }
            len
        })
    });
    for (label, use_avx2) in [("classify_reach", false), ("classify_reach_avx2", true)] {
        if use_avx2 && !avx2_available() {
            continue;
        }
        group.bench_function(label, |b| {
            b.iter(|| grid.classify_reach(run, &ranges, eps_sq, true, &mut list, use_avx2))
        });
    }
    group.finish();
}

/// One point's candidate walk over ~275 covered cells of a `blobs8d`-shaped
/// grid (its per-point summary count): the portable walk against the walk
/// compiled for AVX2, which keeps the Σ accumulators in registers.
fn bench_candidate_walk(c: &mut Criterion) {
    const COVERED: u32 = 275;
    let (grid, coords, eps) = blobs8d_grid();
    let dim = grid.geometry().dim;
    assert!(grid.num_cells() >= COVERED as usize);
    let candidates: Vec<(u32, bool)> = (0..COVERED).map(|cell| (cell, true)).collect();
    let options = UpdateOptions {
        use_simd: true,
        ..UpdateOptions::default()
    };
    let walk = CandidateWalk::new(&grid, &coords, eps * eps, options);
    let mut acc = PointSums::new();

    let mut group = c.benchmark_group("candidate_walk_275_covered_d8");
    group.sample_size(20);
    for (label, use_avx2) in [("walk_scalar", false), ("walk_avx2", true)] {
        if use_avx2 && !avx2_available() {
            continue;
        }
        group.bench_function(label, |b| {
            b.iter(|| {
                acc.reset(dim);
                let mut counters = UpdateCounters::default();
                walk.visit(0, &candidates, &mut acc, &mut counters, use_avx2);
                black_box(&acc);
                counters
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_primitives,
    bench_dispatch_latency,
    bench_pair_sin,
    bench_lane_kernels,
    bench_run_classification,
    bench_candidate_walk
);
criterion_main!(benches);
