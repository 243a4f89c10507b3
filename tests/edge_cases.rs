//! Edge-case and robustness tests across all algorithms: degenerate
//! inputs, boundary geometry, extreme parameters.

use egg_sync::core::grid::{GridGeometry, GridVariant};
use egg_sync::core::instrument::Stage;
use egg_sync::prelude::*;

fn all_algorithms(eps: f64) -> Vec<Box<dyn ClusterAlgorithm>> {
    vec![
        Box::new(Sync::new(eps)),
        Box::new(FSync::new(eps)),
        Box::new(MpSync::new(eps)),
        Box::new(GpuSync::new(eps)),
        Box::new(EggSync::new(eps)),
        Box::new(ExactSync::new(eps)),
    ]
}

#[test]
fn every_algorithm_handles_empty_input() {
    for algo in all_algorithms(0.05) {
        let result = algo.cluster(&Dataset::empty(3));
        assert!(result.converged, "{}", algo.name());
        assert_eq!(result.num_clusters, 0, "{}", algo.name());
        assert!(result.labels.is_empty(), "{}", algo.name());
    }
}

#[test]
fn every_algorithm_handles_single_point() {
    let data = Dataset::from_coords(vec![0.5, 0.5, 0.5], 3);
    for algo in all_algorithms(0.05) {
        let result = algo.cluster(&data);
        assert!(result.converged, "{}", algo.name());
        assert_eq!(result.num_clusters, 1, "{}", algo.name());
    }
}

#[test]
fn every_algorithm_handles_all_identical_points() {
    let data = Dataset::from_coords([0.25, 0.75].repeat(20), 2);
    for algo in all_algorithms(0.05) {
        let result = algo.cluster(&data);
        assert!(result.converged, "{}", algo.name());
        assert_eq!(result.num_clusters, 1, "{}", algo.name());
        assert!(result.labels.iter().all(|&l| l == 0), "{}", algo.name());
    }
}

#[test]
fn one_dimensional_data() {
    // three groups on a line
    let mut coords = Vec::new();
    for i in 0..20 {
        coords.push(0.1 + i as f64 * 1e-3);
        coords.push(0.5 + i as f64 * 1e-3);
        coords.push(0.9 + i as f64 * 1e-3);
    }
    let data = Dataset::from_coords(coords, 1);
    for algo in all_algorithms(0.05) {
        let result = algo.cluster(&data);
        assert!(result.converged, "{}", algo.name());
        assert_eq!(result.num_clusters, 3, "{}", algo.name());
    }
}

#[test]
fn points_on_unit_cube_corners() {
    // exactly at the normalization boundaries — grid cell clamping paths
    let data = Dataset::from_coords(
        vec![
            0.0, 0.0, //
            0.0, 1.0, //
            1.0, 0.0, //
            1.0, 1.0, //
        ],
        2,
    );
    let result = EggSync::new(0.1).cluster(&data);
    assert!(result.converged);
    assert_eq!(result.num_clusters, 4);
}

#[test]
fn epsilon_larger_than_the_domain_merges_everything() {
    let (data, _) = GaussianSpec {
        n: 120,
        clusters: 4,
        std_dev: 10.0,
        seed: 5,
        ..GaussianSpec::default()
    }
    .generate_normalized();
    // ε > √2 ⇒ every point neighbors every other point from iteration 0
    let result = EggSync::new(1.5).cluster(&data);
    assert!(result.converged);
    assert_eq!(result.num_clusters, 1);
    let oracle = ExactSync::new(1.5).cluster(&data);
    assert_eq!(oracle.num_clusters, 1);
}

#[test]
fn tiny_epsilon_isolates_everything() {
    let (data, _) = GaussianSpec {
        n: 60,
        clusters: 3,
        std_dev: 8.0,
        seed: 31,
        ..GaussianSpec::default()
    }
    .generate_normalized();
    let result = EggSync::new(1e-6).cluster(&data);
    assert!(result.converged);
    // with overwhelming probability every generated point is unique
    assert_eq!(result.num_clusters, data.len());
    assert_eq!(result.iterations, 1);
}

#[test]
fn points_straddling_cell_borders() {
    // pairs placed symmetrically around multiples of the cell width so
    // members of one ε-neighborhood start in different cells
    let eps = 0.1;
    let cw = eps / (2.0 * 2.0_f64.sqrt());
    let mut coords = Vec::new();
    for k in 1..6 {
        let border = k as f64 * 5.0 * cw;
        coords.extend_from_slice(&[border - 1e-4, 0.5, border + 1e-4, 0.5]);
    }
    let data = Dataset::from_coords(coords, 2);
    let egg = EggSync::new(eps).cluster(&data);
    let oracle = ExactSync::new(eps).cluster(&data);
    assert!(egg.converged);
    assert!(metrics::same_partition(&egg.labels, &oracle.labels));
    assert_eq!(egg.num_clusters, 5);
}

#[test]
fn sequential_variant_handles_dense_single_bucket() {
    // d' = 0 puts every cell in one bucket; the first-occurrence scan must
    // still be correct when that bucket holds everything
    let (data, _) = GaussianSpec {
        n: 300,
        clusters: 2,
        std_dev: 3.0,
        seed: 2,
        ..GaussianSpec::default()
    }
    .generate_normalized();
    let seq = EggSync::with_variant(0.05, GridVariant::Sequential).cluster(&data);
    let auto = EggSync::new(0.05).cluster(&data);
    assert!(metrics::same_partition(&seq.labels, &auto.labels));
}

#[test]
fn duplicate_heavy_dataset() {
    // 10 distinct locations, each duplicated 30 times
    let mut coords = Vec::new();
    for k in 0..10 {
        let x = 0.05 + k as f64 * 0.1;
        for _ in 0..30 {
            coords.extend_from_slice(&[x, 0.5]);
        }
    }
    let data = Dataset::from_coords(coords, 2);
    let result = EggSync::new(0.04).cluster(&data);
    assert!(result.converged);
    assert_eq!(result.num_clusters, 10);
    assert!(result.cluster_sizes().iter().all(|&s| s == 30));
}

#[test]
fn max_iterations_zero_returns_unconverged_input() {
    let (data, _) = GaussianSpec {
        n: 50,
        seed: 3,
        ..GaussianSpec::default()
    }
    .generate_normalized();
    // no iteration runs, so the clusters are the grid cells of the input
    let geometry = GridGeometry::new(2, 0.05, data.len(), GridVariant::Auto);
    let cell_of = |p: usize| {
        let mut key = [0u64; 2];
        geometry.cell_coords_of(data.point(p), &mut key);
        key
    };
    let mut sharded = EggSync::host(0.05, Some(2));
    sharded.options.num_shards = 3;
    for mut egg in [EggSync::new(0.05), EggSync::host(0.05, Some(2)), sharded] {
        // the trace of a capped run reports what an uncapped one does: its
        // engine's threads, and the grid build as building structure
        let uncapped = egg.cluster(&data).trace.engine_threads;
        egg.max_iterations = 0;
        let result = egg.cluster(&data);
        assert!(!result.converged);
        assert_eq!(result.iterations, 0);
        assert!(uncapped.is_some(), "{:?}", egg.backend);
        assert_eq!(result.trace.engine_threads, uncapped, "{:?}", egg.backend);
        let build = result.trace.stages.get(Stage::BuildStructure);
        assert!(build > 0.0, "{:?}", egg.backend);
        assert_eq!(result.trace.total_seconds, build, "{:?}", egg.backend);
        assert_eq!(result.labels.len(), data.len(), "one label per point");
        for p in 0..data.len() {
            for q in 0..data.len() {
                assert_eq!(
                    result.labels[p] == result.labels[q],
                    cell_of(p) == cell_of(q),
                    "points {p} and {q}"
                );
            }
        }
    }
}

#[test]
fn high_dimensional_cap_is_enforced() {
    let result = std::panic::catch_unwind(|| {
        let data = Dataset::from_coords(vec![0.1; 65 * 2], 65);
        EggSync::new(0.5).cluster(&data)
    });
    assert!(result.is_err(), "dim > 64 must be rejected loudly");
}
