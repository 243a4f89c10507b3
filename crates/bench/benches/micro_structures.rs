//! Micro — index-structure construction and query costs: the simulated-GPU
//! grid (Algorithm 2) vs the R-Tree (FSynC's index), both of which are
//! rebuilt every iteration by their algorithms, the host grid's three
//! maintenance paths (full build, in-place refresh and re-binning
//! refresh), the in-place refresh of a collapsed input whose points sit at
//! three distinct positions, and the device grid's in-place refresh with
//! the tables written by either pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use egg_bench::default_synthetic;
use egg_gpu_sim::{Device, DeviceConfig};
use egg_spatial::RTree;
use egg_sync_core::exec::Executor;
use egg_sync_core::grid::{CellGrid, GridGeometry, GridRefreshStats, GridVariant, GridWorkspace};

/// A grid built at `from` whose buffers a refresh to `to` and one back
/// have sized, each flagging `moved`: the timed refresh to `to` then runs
/// in the steady state. Returns the grid and the last refresh's stats.
fn warmed(
    exec: &Executor,
    geo: GridGeometry,
    from: &[f64],
    to: &[f64],
    moved: &[bool],
) -> (CellGrid, GridRefreshStats) {
    let mut grid = CellGrid::build(exec, geo, from);
    grid.refresh(exec, to, Some(moved));
    let stats = grid.refresh(exec, from, Some(moved));
    assert!(!stats.full_rebuild, "the refresh must be incremental");
    (grid, stats)
}

fn bench_structures(c: &mut Criterion) {
    let data = default_synthetic(10_000);
    let coords = data.coords();
    let n = data.len();
    let eps = 0.05;

    let mut group = c.benchmark_group("structures");
    group.sample_size(10);

    group.bench_function("grid_construct_10k", |b| {
        let device = Device::new(DeviceConfig::default());
        let geo = GridGeometry::new(2, eps, n, GridVariant::Auto);
        let mut ws = GridWorkspace::new(&device, geo, n);
        let buf = device.alloc_from_slice(coords);
        b.iter(|| ws.construct(&buf))
    });

    group.bench_function("grid_construct_plus_pregrid_10k", |b| {
        let device = Device::new(DeviceConfig::default());
        let geo = GridGeometry::new(2, eps, n, GridVariant::Auto);
        let mut ws = GridWorkspace::new(&device, geo, n);
        let buf = device.alloc_from_slice(coords);
        b.iter(|| {
            let grid = ws.construct(&buf);
            ws.build_pregrid(&grid)
        })
    });

    // the host grid on one worker
    let exec = Executor::sequential();
    let geo = GridGeometry::new(2, eps, n, GridVariant::Auto);
    group.bench_function("cell_grid_build_10k", |b| {
        let mut grid = CellGrid::build(&exec, geo, coords);
        b.iter(|| grid.rebuild(&exec, coords))
    });

    // every point halfway to its cell's center: new bits, same cells
    let mut nudged = coords.to_vec();
    let mut key = [0u64; 2];
    for p in nudged.chunks_exact_mut(2) {
        geo.cell_coords_of(p, &mut key);
        for (x, &k) in p.iter_mut().zip(&key) {
            *x = (*x + (k as f64 + 0.5) * geo.cell_width) / 2.0;
        }
    }
    let all = vec![true; n];
    group.bench_function("cell_grid_refresh_in_place_10k", |b| {
        let (mut grid, stats) = warmed(&exec, geo, coords, &nudged, &all);
        assert_eq!(stats.rebinned_points, 0, "every point keeps its cell");
        b.iter(|| grid.refresh(&exec, &nudged, Some(&all)))
    });

    // the converged regime: every point snapped onto the nearest of three
    // cell centers, then all moved by the same step inside their cells,
    // so each refresh re-derives 10 000 movers at three distinct positions
    let center = |x: f64| ((x / geo.cell_width).floor() + 0.5) * geo.cell_width;
    let anchors = [[0.25, 0.25], [0.5, 0.75], [0.75, 0.25]].map(|a| a.map(center));
    let snapped: Vec<f64> = coords
        .chunks_exact(2)
        .flat_map(|p| {
            let dist = |a: &[f64; 2]| (a[0] - p[0]).powi(2) + (a[1] - p[1]).powi(2);
            *anchors
                .iter()
                .min_by(|a, b| dist(a).total_cmp(&dist(b)))
                .expect("three anchors")
        })
        .collect();
    let stepped: Vec<f64> = snapped.iter().map(|x| x + geo.cell_width / 8.0).collect();
    group.bench_function("cell_grid_refresh_collapsed_10k", |b| {
        let (mut grid, stats) = warmed(&exec, geo, &snapped, &stepped, &all);
        assert_eq!(stats.rebinned_points, 0, "every point keeps its cell");
        assert_eq!(grid.num_cells(), 3, "three positions, three cells");
        b.iter(|| grid.refresh(&exec, &stepped, Some(&all)))
    });

    // the same moves on the device grid, on one simulator thread
    group.bench_function("grid_refresh_in_place_10k", |b| {
        let device = Device::new(DeviceConfig {
            host_threads: Some(1),
            ..DeviceConfig::default()
        });
        let mut ws = GridWorkspace::new(&device, geo, n);
        let to = device.alloc_from_slice(&nudged);
        let moved = device.alloc_from_slice(&vec![1u64; n]);
        ws.refresh(&device.alloc_from_slice(coords), None);
        let (_, _, stats) = ws.refresh(&to, Some(&moved));
        assert!(!stats.layout_rebuilt, "every point keeps its cell");
        b.iter(|| ws.refresh(&to, Some(&moved)))
    });

    // every fourth point one cell width along x, across a cell border;
    // the rest unmoved
    let mut shifted = coords.to_vec();
    let mut quarter = vec![false; n];
    for (p, flag) in quarter.iter_mut().enumerate().step_by(4) {
        let x = &mut shifted[2 * p];
        *x += if *x + geo.cell_width < 1.0 {
            geo.cell_width
        } else {
            -geo.cell_width
        };
        *flag = true;
    }
    group.bench_function("cell_grid_refresh_rebin_10k", |b| {
        let (mut grid, stats) = warmed(&exec, geo, coords, &shifted, &quarter);
        assert!(stats.rebinned_points > 0, "points cross cell borders");
        b.iter(|| grid.refresh(&exec, &shifted, Some(&quarter)))
    });

    group.bench_function("rtree_bulk_load_10k", |b| {
        b.iter(|| RTree::bulk_load(coords, 2, 100))
    });

    group.bench_function("rtree_insert_10k", |b| {
        b.iter(|| {
            let mut tree = RTree::new(2, 100);
            for p in coords.chunks_exact(2) {
                tree.insert(p);
            }
            tree
        })
    });

    group.bench_function("rtree_1k_ball_queries", |b| {
        let tree = RTree::bulk_load(coords, 2, 100);
        b.iter(|| {
            let mut total = 0usize;
            for p in coords.chunks_exact(2).take(1_000) {
                tree.for_each_in_ball(p, eps, |_, _| total += 1);
            }
            total
        })
    });
    group.finish();
}

criterion_group!(benches, bench_structures);
criterion_main!(benches);
