//! The reproduction's central guarantee: EGG-SynC computes *exactly* the
//! clustering of the brute-force exact-criterion oracle, under every grid
//! variant and every optimization toggle, and the λ-terminated baselines
//! all agree with each other (they share model and termination).

use egg_sync::core::egg::update::UpdateOptions;
use egg_sync::core::grid::GridVariant;
use egg_sync::prelude::*;

fn blobs(n: usize, dim: usize, k: usize, seed: u64) -> Dataset {
    GaussianSpec {
        n,
        dim,
        clusters: k,
        std_dev: 3.0,
        seed,
        ..GaussianSpec::default()
    }
    .generate_normalized()
    .0
}

#[test]
fn egg_equals_oracle_across_seeds() {
    for seed in [1u64, 2, 3, 4, 5] {
        let data = blobs(160, 2, 3, seed);
        let oracle = ExactSync::new(0.05).cluster(&data);
        let egg = EggSync::new(0.05).cluster(&data);
        assert!(oracle.converged && egg.converged, "seed {seed}");
        // EGG's cell-based first-term check is deliberately stricter than
        // Definition 4.2's term 1, so it may iterate a little longer — but
        // never less, and the partition must be identical.
        assert!(egg.iterations >= oracle.iterations, "seed {seed}");
        assert!(
            metrics::same_partition(&oracle.labels, &egg.labels),
            "seed {seed}: oracle {} vs egg {} clusters",
            oracle.num_clusters,
            egg.num_clusters
        );
    }
}

#[test]
fn egg_equals_oracle_across_dimensionalities() {
    for (dim, eps) in [(1usize, 0.05), (3, 0.1), (6, 0.3), (12, 0.5)] {
        let data = blobs(120, dim, 3, 7);
        let oracle = ExactSync::new(eps).cluster(&data);
        let egg = EggSync::new(eps).cluster(&data);
        assert!(egg.iterations >= oracle.iterations, "dim {dim}");
        assert!(
            metrics::same_partition(&oracle.labels, &egg.labels),
            "dim {dim} diverged"
        );
    }
}

#[test]
fn egg_equals_oracle_across_epsilons() {
    let data = blobs(140, 2, 4, 11);
    for eps in [0.02, 0.05, 0.1, 0.2] {
        let oracle = ExactSync::new(eps).cluster(&data);
        let egg = EggSync::new(eps).cluster(&data);
        assert!(
            metrics::same_partition(&oracle.labels, &egg.labels),
            "ε = {eps} diverged"
        );
    }
}

#[test]
fn every_grid_variant_is_exact() {
    let data = blobs(150, 3, 3, 23);
    let eps = 0.12;
    let oracle = ExactSync::new(eps).cluster(&data);
    for variant in [
        GridVariant::Auto,
        GridVariant::Sequential,
        GridVariant::RandomAccess,
        GridVariant::Mixed(1),
        GridVariant::Mixed(2),
    ] {
        let egg = EggSync::with_variant(eps, variant).cluster(&data);
        assert!(
            metrics::same_partition(&oracle.labels, &egg.labels),
            "variant {variant:?} is not exact"
        );
    }
}

#[test]
fn every_optimization_toggle_is_exact() {
    let data = blobs(150, 2, 3, 29);
    let oracle = ExactSync::new(0.05).cluster(&data);
    for bits in 0u8..16 {
        let options = UpdateOptions {
            use_summaries: bits & 1 != 0,
            use_pregrid: bits & 2 != 0,
            use_incremental: bits & 4 != 0,
            use_simd: bits & 8 != 0,
            ..UpdateOptions::default()
        };
        let mut algo = EggSync::new(0.05);
        algo.options = options;
        let egg = algo.cluster(&data);
        assert!(
            metrics::same_partition(&oracle.labels, &egg.labels),
            "{options:?} not exact"
        );
    }
}

#[test]
fn lambda_baselines_agree_with_each_other() {
    let data = blobs(220, 2, 4, 31);
    let sync = Sync::new(0.05).cluster(&data);
    let fsync = FSync::new(0.05).cluster(&data);
    let mp = MpSync::new(0.05).cluster(&data);
    let gpu = GpuSync::new(0.05).cluster(&data);
    for (name, other) in [("FSynC", &fsync), ("MP-SynC", &mp), ("GPU-SynC", &gpu)] {
        assert!(
            metrics::same_partition(&sync.labels, &other.labels),
            "{name} disagrees with SynC"
        );
        assert_eq!(sync.iterations, other.iterations, "{name} iteration count");
    }
}

#[test]
fn on_well_separated_data_everyone_agrees() {
    // when clusters are tight and far apart, λ-termination is also right,
    // so all six algorithms find the same partition
    let data = blobs(200, 2, 4, 37);
    let reference = ExactSync::new(0.05).cluster(&data);
    let algorithms: Vec<Box<dyn ClusterAlgorithm>> = vec![
        Box::new(Sync::new(0.05)),
        Box::new(FSync::new(0.05)),
        Box::new(MpSync::new(0.05)),
        Box::new(GpuSync::new(0.05)),
        Box::new(EggSync::new(0.05)),
    ];
    for algo in &algorithms {
        let result = algo.cluster(&data);
        assert!(
            metrics::nmi(&reference.labels, &result.labels) > 0.99,
            "{} diverges from the exact result on easy data",
            algo.name()
        );
    }
}

#[test]
fn terminated_state_satisfies_definition_4_2() {
    use egg_sync::core::model::criterion_met;
    let data = blobs(150, 2, 3, 41);
    let egg = EggSync::new(0.05).cluster(&data);
    assert!(egg.converged);
    assert!(criterion_met(
        egg.final_coords.coords(),
        egg.final_coords.dim(),
        0.05
    ));
}
