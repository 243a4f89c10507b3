//! Property-based tests (proptest) over the model's invariants and the
//! equivalence of the structural shortcuts with their brute-force
//! definitions.

use egg_sync::core::grid::{GridGeometry, GridVariant, HostGrid};
use egg_sync::core::model::{brute_force_neighborhood, criterion_met, delta, update_point};
use egg_sync::prelude::*;
use egg_sync::spatial::distance::{euclidean, row};
use egg_sync::spatial::{Mbr, RTree};
use proptest::prelude::*;

/// Random point cloud in [0,1]^dim as a flat row-major vector.
fn cloud(dim: usize, max_n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..=1.0, dim..=dim * max_n).prop_map(move |mut v| {
        v.truncate(v.len() / dim * dim);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn update_never_leaves_unit_cube(coords in cloud(2, 40)) {
        // the Kuramoto update moves each point towards the hull of its
        // neighbors, so normalized data stays normalized
        let dim = 2;
        let n = coords.len() / dim;
        let mut out = vec![0.0; dim];
        for p in 0..n {
            update_point(&coords, dim, p, 0.1, &mut out);
            for &x in &out {
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&x), "left the cube: {x}");
            }
        }
    }

    #[test]
    fn update_is_contractive_for_shared_neighborhoods(
        a in 0.3f64..0.45, b in 0.45f64..0.6, y in 0.4f64..0.6
    ) {
        // Lemma 4.4: two points with identical neighborhoods move closer
        let eps = 0.4; // big enough that {p,q} see exactly each other
        let coords = vec![a, y, b, y];
        let mut pa = vec![0.0; 2];
        let mut pb = vec![0.0; 2];
        update_point(&coords, 2, 0, eps, &mut pa);
        update_point(&coords, 2, 1, eps, &mut pb);
        let before = euclidean(&coords[0..2], &coords[2..4]);
        let after = euclidean(&pa, &pb);
        prop_assert!(after <= before + 1e-15);
    }

    #[test]
    fn grid_ball_query_equals_brute_force(coords in cloud(2, 60), eps in 0.02f64..0.3) {
        let dim = 2;
        let n = coords.len() / dim;
        prop_assume!(n > 0);
        let geo = GridGeometry::new(dim, eps, n, GridVariant::Auto);
        let grid = HostGrid::build(&geo, &coords);
        for p_idx in 0..n.min(8) {
            let p = row(&coords, dim, p_idx);
            let mut got = grid.ball_indices(p, eps);
            got.sort_unstable();
            let expected: Vec<u32> = brute_force_neighborhood(&coords, dim, p_idx, eps)
                .into_iter().map(|i| i as u32).collect();
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn rtree_ball_query_equals_brute_force(coords in cloud(3, 50), eps in 0.05f64..0.5) {
        let dim = 3;
        let n = coords.len() / dim;
        prop_assume!(n > 0);
        let tree = RTree::bulk_load(&coords, dim, 8);
        for p_idx in 0..n.min(8) {
            let p = row(&coords, dim, p_idx);
            let mut got = tree.ball_indices(p, eps);
            got.sort_unstable();
            let expected: Vec<u32> = brute_force_neighborhood(&coords, dim, p_idx, eps)
                .into_iter().map(|i| i as u32).collect();
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn rtree_insert_equals_bulk_load_results(coords in cloud(2, 40), eps in 0.05f64..0.4) {
        let dim = 2;
        let n = coords.len() / dim;
        prop_assume!(n > 0);
        let bulk = RTree::bulk_load(&coords, dim, 5);
        let mut incremental = RTree::new(dim, 5);
        for p in coords.chunks_exact(dim) {
            incremental.insert(p);
        }
        let center = row(&coords, dim, 0);
        let mut a = bulk.ball_indices(center, eps);
        let mut b = incremental.ball_indices(center, eps);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn mbr_min_dist_is_a_lower_bound(
        coords in prop::collection::vec(0.0f64..=1.0, 4..40),
        px in 0.0f64..=1.0, py in 0.0f64..=1.0
    ) {
        let pts: Vec<f64> = coords[..coords.len() / 2 * 2].to_vec();
        let mbr = Mbr::from_points(&pts, 2).unwrap();
        let p = [px, py];
        let lower = mbr.min_dist_to_point(&p);
        for q in pts.chunks_exact(2) {
            prop_assert!(lower <= euclidean(&p, q) + 1e-12);
        }
    }

    #[test]
    fn delta_margin_properties(eps in 0.001f64..1.0) {
        let d = delta(eps);
        prop_assert!(d > 0.0);
        prop_assert!(d < eps);
    }

    #[test]
    fn metrics_axioms(labels in prop::collection::vec(0u32..5, 1..60)) {
        // identity scores
        prop_assert!((metrics::nmi(&labels, &labels) - 1.0).abs() < 1e-9);
        prop_assert!((metrics::ari(&labels, &labels) - 1.0).abs() < 1e-9);
        prop_assert!(metrics::same_partition(&labels, &labels));
        // permuting label names preserves everything
        let renamed: Vec<u32> = labels.iter().map(|&l| (l + 3) % 5 + 10).collect();
        prop_assert!(metrics::same_partition(&labels, &renamed));
        prop_assert!((metrics::nmi(&labels, &renamed) - 1.0).abs() < 1e-9);
    }
}

proptest! {
    // the expensive end-to-end property gets fewer cases
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn egg_equals_oracle_on_random_clouds(coords in cloud(2, 30), eps in 0.03f64..0.15) {
        let n = coords.len() / 2;
        prop_assume!(n > 0);
        let data = Dataset::from_coords(coords, 2);
        let oracle = ExactSync::new(eps).cluster(&data);
        let egg = EggSync::new(eps).cluster(&data);
        prop_assume!(oracle.converged && egg.converged);
        prop_assert!(
            metrics::same_partition(&oracle.labels, &egg.labels),
            "partitions diverged: {} vs {}", oracle.num_clusters, egg.num_clusters
        );
    }

    #[test]
    fn converged_states_satisfy_the_criterion(coords in cloud(2, 25), eps in 0.05f64..0.2) {
        let n = coords.len() / 2;
        prop_assume!(n > 0);
        let data = Dataset::from_coords(coords, 2);
        let result = ExactSync::new(eps).cluster(&data);
        prop_assume!(result.converged);
        // the state at which gathering happened certifies Definition 4.2's
        // fixed-point: clusters are ε-separated, internally ≤ ε/2
        let f = result.final_coords.coords();
        for i in 0..n {
            for j in (i + 1)..n {
                let d = euclidean(row(f, 2, i), row(f, 2, j));
                if result.labels[i] == result.labels[j] {
                    prop_assert!(d <= eps / 2.0 + 1e-12);
                } else {
                    prop_assert!(d > eps);
                }
            }
        }
        let _ = criterion_met(f, 2, eps); // must not panic on any state
    }
}

proptest! {
    // determinism of the host execution engine (8 end-to-end cases)
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn host_engine_is_thread_count_invariant(coords in cloud(2, 30), eps in 0.03f64..0.15) {
        // the engine's contract: identical cluster assignments AND
        // bit-identical final coordinates for any worker count
        let n = coords.len() / 2;
        prop_assume!(n > 0);
        let data = Dataset::from_coords(coords, 2);
        let reference = EggSync::host(eps, Some(1)).cluster(&data);
        for threads in [Some(4), None] {
            let run = EggSync::host(eps, threads).cluster(&data);
            prop_assert_eq!(&run.labels, &reference.labels, "threads {:?}", threads);
            prop_assert_eq!(run.iterations, reference.iterations, "threads {:?}", threads);
            prop_assert_eq!(
                run.final_coords.coords(),
                reference.final_coords.coords(),
                "threads {:?}", threads
            );
        }
    }

    #[test]
    fn mp_sync_is_thread_count_invariant(coords in cloud(2, 30), eps in 0.04f64..0.15) {
        let n = coords.len() / 2;
        prop_assume!(n > 0);
        let data = Dataset::from_coords(coords, 2);
        let reference = MpSync::with_params(SyncParams::new(eps), Some(1)).cluster(&data);
        for threads in [Some(4), None] {
            let run = MpSync::with_params(SyncParams::new(eps), threads).cluster(&data);
            prop_assert_eq!(&run.labels, &reference.labels, "threads {:?}", threads);
            prop_assert_eq!(run.iterations, reference.iterations, "threads {:?}", threads);
            prop_assert_eq!(
                run.final_coords.coords(),
                reference.final_coords.coords(),
                "threads {:?}", threads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn trig_table_update_matches_equation_1_across_dims_and_variants(
        raw in prop::collection::vec(0.0f64..=1.0, 16..=320),
        dim in 2usize..=8,
        eps_scale in 0.5f64..1.5,
    ) {
        // the host update, whose pair term takes sin(q−p) from the trig
        // table through the angle-addition identity, must agree within
        // 1e-9 with Equation 1 evaluated pair by pair with a direct sin,
        // for every dimensionality and every grid access variant
        use egg_sync::core::egg::update::{egg_update_host, UpdateOptions};
        use egg_sync::core::exec::Executor;
        use egg_sync::core::grid::{CellGrid, MAX_OUTER_CELLS};
        use egg_sync::core::model::update_point;
        let coords: Vec<f64> = raw[..raw.len() / dim * dim].to_vec();
        let n = coords.len() / dim;
        prop_assume!(n > 0);
        // scale ε with √d so neighborhoods keep a few members in high dims
        let eps = eps_scale * 0.1 * (dim as f64).sqrt();
        let probe = GridGeometry::new(dim, eps, n, GridVariant::Auto);
        let dense_feasible = (probe.width as u64)
            .checked_pow(dim as u32)
            .is_some_and(|m| m <= MAX_OUTER_CELLS as u64);
        let mut variants = vec![
            GridVariant::Auto,
            GridVariant::Sequential,
            GridVariant::Mixed(1),
        ];
        if dense_feasible {
            variants.push(GridVariant::RandomAccess);
        }
        let mut direct = vec![0.0; coords.len()];
        for (p, out) in direct.chunks_exact_mut(dim).enumerate() {
            update_point(&coords, dim, p, eps, out);
        }
        for variant in variants {
            let geo = GridGeometry::new(dim, eps, n, variant);
            let exec = Executor::new(Some(2));
            let grid = CellGrid::build(&exec, geo, &coords);
            let mut stats = Vec::new();
            let mut tabled = vec![0.0; coords.len()];
            egg_update_host(
                &exec, &grid, &coords, &mut tabled, eps,
                UpdateOptions::default(), &mut stats, None, None,
            );
            for (i, (t, d)) in tabled.iter().zip(&direct).enumerate() {
                prop_assert!(
                    (t - d).abs() <= 1e-9,
                    "{:?} dim {} coordinate {}: {} vs {}", variant, dim, i, t, d
                );
            }
        }
    }

    #[test]
    fn trig_table_update_is_worker_count_invariant(
        raw in prop::collection::vec(0.0f64..=1.0, 16..=320),
        dim in 2usize..=8,
    ) {
        // the fast path inherits the engine's bitwise determinism contract
        use egg_sync::core::egg::update::{egg_update_host, UpdateOptions};
        use egg_sync::core::exec::Executor;
        use egg_sync::core::grid::CellGrid;
        let coords: Vec<f64> = raw[..raw.len() / dim * dim].to_vec();
        let n = coords.len() / dim;
        prop_assume!(n > 0);
        let eps = 0.1 * (dim as f64).sqrt();
        let geo = GridGeometry::new(dim, eps, n, GridVariant::Auto);
        let run = |workers: usize| {
            let exec = Executor::new(Some(workers));
            let grid = CellGrid::build(&exec, geo, &coords);
            let mut next = vec![0.0; coords.len()];
            let mut stats = Vec::new();
            egg_update_host(
                &exec, &grid, &coords, &mut next, eps,
                UpdateOptions::default(), &mut stats, None, None,
            );
            next.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let reference = run(1);
        for workers in [2, 4, 8] {
            prop_assert_eq!(run(workers), reference.clone(), "workers {}", workers);
        }
    }

    #[test]
    fn simd_update_matches_scalar_oracle_across_dims_and_variants(
        raw in prop::collection::vec(0.0f64..=1.0, 16..=320),
        dim in 2usize..=8,
        eps_scale in 0.5f64..1.5,
    ) {
        // the lane-striped pair term must agree with the scalar oracle
        // within 1e-9 (the only divergence is the cross-lane fold) and
        // reproduce its first-term verdict and counters exactly, for
        // every dimensionality and grid access variant
        use egg_sync::core::egg::update::{egg_update_host, UpdateOptions};
        use egg_sync::core::exec::Executor;
        use egg_sync::core::grid::{CellGrid, MAX_OUTER_CELLS};
        let coords: Vec<f64> = raw[..raw.len() / dim * dim].to_vec();
        let n = coords.len() / dim;
        prop_assume!(n > 0);
        let eps = eps_scale * 0.1 * (dim as f64).sqrt();
        let probe = GridGeometry::new(dim, eps, n, GridVariant::Auto);
        let dense_feasible = (probe.width as u64)
            .checked_pow(dim as u32)
            .is_some_and(|m| m <= MAX_OUTER_CELLS as u64);
        let mut variants = vec![
            GridVariant::Auto,
            GridVariant::Sequential,
            GridVariant::Mixed(1),
        ];
        if dense_feasible {
            variants.push(GridVariant::RandomAccess);
        }
        for variant in variants {
            let geo = GridGeometry::new(dim, eps, n, variant);
            let exec = Executor::new(Some(2));
            let grid = CellGrid::build(&exec, geo, &coords);
            let mut stats = Vec::new();
            let mut scalar = vec![0.0; coords.len()];
            let (first_scalar, counters_scalar) = egg_update_host(
                &exec, &grid, &coords, &mut scalar, eps,
                UpdateOptions { use_simd: false, ..UpdateOptions::default() },
                &mut stats, None, None,
            );
            let mut simd = vec![0.0; coords.len()];
            let (first_simd, counters_simd) = egg_update_host(
                &exec, &grid, &coords, &mut simd, eps,
                UpdateOptions { use_simd: true, ..UpdateOptions::default() },
                &mut stats, None, None,
            );
            // exact lane distances: identical neighborhoods, hence an
            // identical first-term verdict and identical work counters
            prop_assert_eq!(first_simd, first_scalar, "{:?}", variant);
            prop_assert_eq!(counters_simd.point_pairs, counters_scalar.point_pairs);
            prop_assert_eq!(
                counters_simd.sin_calls_avoided,
                counters_scalar.sin_calls_avoided
            );
            prop_assert!(counters_simd.simd_lanes >= counters_simd.point_pairs);
            for (i, (s, d)) in simd.iter().zip(&scalar).enumerate() {
                prop_assert!(
                    (s - d).abs() <= 1e-9,
                    "{:?} dim {} coordinate {}: {} vs {}", variant, dim, i, s, d
                );
            }
        }
    }

    #[test]
    fn simd_update_is_worker_count_invariant(
        raw in prop::collection::vec(0.0f64..=1.0, 16..=320),
        dim in 2usize..=8,
    ) {
        // lane striping and the cross-lane fold are pure functions of the
        // grid layout, so the SIMD path inherits the engine's bitwise
        // determinism contract
        use egg_sync::core::egg::update::{egg_update_host, UpdateOptions};
        use egg_sync::core::exec::Executor;
        use egg_sync::core::grid::CellGrid;
        let coords: Vec<f64> = raw[..raw.len() / dim * dim].to_vec();
        let n = coords.len() / dim;
        prop_assume!(n > 0);
        let eps = 0.1 * (dim as f64).sqrt();
        let geo = GridGeometry::new(dim, eps, n, GridVariant::Auto);
        let run = |workers: usize| {
            let exec = Executor::new(Some(workers));
            let grid = CellGrid::build(&exec, geo, &coords);
            let mut next = vec![0.0; coords.len()];
            let mut stats = Vec::new();
            egg_update_host(
                &exec, &grid, &coords, &mut next, eps,
                UpdateOptions { use_simd: true, ..UpdateOptions::default() },
                &mut stats, None, None,
            );
            next.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let reference = run(1);
        for workers in [4, 8] {
            prop_assert_eq!(run(workers), reference.clone(), "workers {}", workers);
        }
    }

    #[test]
    fn ball_query_matches_brute_force_neighborhoods(
        raw in prop::collection::vec(0.0f64..=1.0, 12..=240),
        dim in 2usize..=6,
        eps_scale in 0.5f64..1.5,
    ) {
        // the grid ball query (with its blocked early-exit predicate) must
        // return exactly the brute-force closed-ball neighborhood, and the
        // reusable output buffer must not leak state across queries
        use egg_sync::core::grid::HostGrid;
        use egg_sync::spatial::distance::{row, squared_euclidean};
        let coords: Vec<f64> = raw[..raw.len() / dim * dim].to_vec();
        let n = coords.len() / dim;
        prop_assume!(n > 0);
        let eps = eps_scale * 0.1 * (dim as f64).sqrt();
        let geo = GridGeometry::new(dim, eps, n, GridVariant::Auto);
        let grid = HostGrid::build(&geo, &coords);
        let mut out = Vec::new();
        for p_idx in 0..n {
            let p = row(&coords, dim, p_idx);
            // the same buffer is reused across every query
            grid.ball_indices_into(p, eps, &mut out);
            let mut got = out.clone();
            got.sort_unstable();
            let expected: Vec<u32> = (0..n as u32)
                .filter(|&q| squared_euclidean(p, row(&coords, dim, q as usize)) <= eps * eps)
                .collect();
            prop_assert_eq!(got, expected, "dim {} point {}", dim, p_idx);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn parallel_termination_matches_sequential_reference(
        coords in cloud(2, 40), eps in 0.03f64..0.2
    ) {
        // the short-circuiting parallel check must agree with the
        // brute-force Definition 4.2 term-2 evaluation for every width
        use egg_sync::core::egg::termination::second_term_holds_host;
        use egg_sync::core::exec::Executor;
        use egg_sync::core::grid::CellGrid;
        use egg_sync::core::model::criterion_term2_met;
        let n = coords.len() / 2;
        prop_assume!(n > 0);
        let expected = criterion_term2_met(&coords, 2, eps);
        let geo = GridGeometry::new(2, eps, n, GridVariant::Auto);
        for workers in [1, 4] {
            let exec = Executor::new(Some(workers));
            let grid = CellGrid::build(&exec, geo, &coords);
            prop_assert_eq!(
                second_term_holds_host(&exec, &grid, &coords, eps, None, true),
                expected,
                "workers {}", workers
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn incremental_grid_equals_fresh_rebuild_after_random_steps(
        raw in prop::collection::vec(0.0f64..=1.0, 32..=240),
        dim in 2usize..=8,
        steps in 1usize..=4,
    ) {
        // after k real EGG-update steps the incrementally maintained grid
        // — CSR layout, Σsin/Σcos summaries, lane tables — must be bitwise
        // identical to a from-scratch rebuild on the same coordinates, for
        // every grid variant and worker count
        use egg_sync::core::egg::update::{egg_update_host, IncrementalState, UpdateOptions};
        use egg_sync::core::exec::Executor;
        use egg_sync::core::grid::{CellGrid, MAX_OUTER_CELLS};
        let coords: Vec<f64> = raw[..raw.len() / dim * dim].to_vec();
        let n = coords.len() / dim;
        prop_assume!(n > 0);
        let eps = 0.1 * (dim as f64).sqrt();
        let probe = GridGeometry::new(dim, eps, n, GridVariant::Auto);
        let dense_feasible = (probe.width as u64)
            .checked_pow(dim as u32)
            .is_some_and(|m| m <= MAX_OUTER_CELLS as u64);
        let mut variants = vec![
            GridVariant::Auto,
            GridVariant::Sequential,
            GridVariant::Mixed(1),
        ];
        if dense_feasible {
            variants.push(GridVariant::RandomAccess);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for variant in variants {
            let geo = GridGeometry::new(dim, eps, n, variant);
            for workers in [1usize, 4, 8] {
                let exec = Executor::new(Some(workers));
                let mut grid = CellGrid::new(geo);
                let mut state = IncrementalState::new();
                let mut cur = coords.clone();
                let mut next = vec![0.0; coords.len()];
                let mut chunk_stats = Vec::new();
                for _ in 0..steps {
                    grid.refresh(&exec, &cur, state.moved_flags());
                    egg_update_host(
                        &exec, &grid, &cur, &mut next, eps,
                        UpdateOptions::default(), &mut chunk_stats,
                        Some(&mut state), None,
                    );
                    state.finish_pass(&geo, &cur, &next);
                    std::mem::swap(&mut cur, &mut next);
                }
                // bring the grid up to the final positions incrementally,
                // then diff against a from-scratch build
                grid.refresh(&exec, &cur, state.moved_flags());
                let fresh = CellGrid::build(&Executor::sequential(), geo, &cur);
                let tag = format!("{variant:?} workers {workers}");
                prop_assert_eq!(grid.num_cells(), fresh.num_cells(), "{}", tag);
                prop_assert_eq!(grid.point_cell(), fresh.point_cell(), "{}", tag);
                prop_assert_eq!(grid.point_order(), fresh.point_order(), "{}", tag);
                for c in 0..grid.num_cells() {
                    prop_assert_eq!(grid.cell_key(c), fresh.cell_key(c), "{} cell {}", tag, c);
                    prop_assert_eq!(grid.cell_points(c), fresh.cell_points(c), "{} cell {}", tag, c);
                    prop_assert_eq!(
                        bits(grid.sin_sums(c)), bits(fresh.sin_sums(c)),
                        "{} cell {} sin", tag, c
                    );
                    prop_assert_eq!(
                        bits(grid.cos_sums(c)), bits(fresh.cos_sums(c)),
                        "{} cell {} cos", tag, c
                    );
                }
                prop_assert_eq!(bits(grid.lane_sin()), bits(fresh.lane_sin()), "{}", tag);
                prop_assert_eq!(bits(grid.lane_cos()), bits(fresh.lane_cos()), "{}", tag);
                prop_assert_eq!(bits(grid.lane_coords()), bits(fresh.lane_coords()), "{}", tag);
            }
        }
    }

    #[test]
    fn clustering_is_identical_with_incremental_on_and_off(
        raw in prop::collection::vec(0.0f64..=1.0, 32..=160),
        dim in 2usize..=4,
    ) {
        // the work-skipping machinery must be invisible in the output:
        // same labels, same iteration count, bitwise-identical final
        // coordinates, at every worker count
        use egg_sync::core::egg::update::UpdateOptions;
        let coords: Vec<f64> = raw[..raw.len() / dim * dim].to_vec();
        let n = coords.len() / dim;
        prop_assume!(n > 0);
        let data = Dataset::from_coords(coords, dim);
        let eps = 0.1 * (dim as f64).sqrt();
        for workers in [1usize, 4, 8] {
            let mut on = EggSync::host(eps, Some(workers));
            on.options = UpdateOptions { use_incremental: true, ..UpdateOptions::default() };
            let mut off = EggSync::host(eps, Some(workers));
            off.options = UpdateOptions { use_incremental: false, ..UpdateOptions::default() };
            let run_on = on.cluster(&data);
            let run_off = off.cluster(&data);
            prop_assert_eq!(run_on.labels, run_off.labels, "workers {}", workers);
            prop_assert_eq!(run_on.iterations, run_off.iterations, "workers {}", workers);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(run_on.final_coords.coords()),
                bits(run_off.final_coords.coords()),
                "workers {}", workers
            );
        }
    }
}

proptest! {
    // sharded multi-grid execution (6 end-to-end cases, 28 runs each)
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn sharded_execution_is_shard_and_worker_count_invariant(
        raw in prop::collection::vec(0.0f64..=1.0, 48..=240),
        dim in 2usize..=6,
        variant_pick in 0usize..=3,
    ) {
        // the sharding contract: for any shard count, any worker count,
        // any grid variant and the incremental machinery on or off, the
        // output is bitwise identical to the single-grid oracle — labels,
        // iteration count, final coordinates, and every size-based
        // counter (dirty_cells legitimately differs: halo cells are
        // refreshed once per resident shard, not once globally)
        use egg_sync::core::egg::update::UpdateOptions;
        use egg_sync::core::grid::{ShardPlan, MAX_OUTER_CELLS};
        let coords: Vec<f64> = raw[..raw.len() / dim * dim].to_vec();
        let n = coords.len() / dim;
        prop_assume!(n > 0);
        let eps = 0.12 * (dim as f64).sqrt();
        let mut variant = match variant_pick {
            0 => GridVariant::Auto,
            1 => GridVariant::Sequential,
            2 => GridVariant::Mixed(1),
            _ => GridVariant::RandomAccess,
        };
        let width = GridGeometry::new(dim, eps, n, GridVariant::Sequential).width;
        if variant == GridVariant::RandomAccess
            && width.checked_pow(dim as u32).is_none_or(|m| m > MAX_OUTER_CELLS)
        {
            variant = GridVariant::Auto; // dense directory infeasible
        }
        let data = Dataset::from_coords(coords, dim);
        let geo = GridGeometry::new(dim, eps, n, variant);
        for inc in [true, false] {
            let run_with = |shards: usize, workers: usize| {
                let mut algo = EggSync::host(eps, Some(workers));
                algo.variant = variant;
                algo.options = UpdateOptions {
                    use_incremental: inc,
                    num_shards: shards,
                    ..UpdateOptions::default()
                };
                algo.cluster(&data)
            };
            let oracle = run_with(1, 1);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for shards in [2usize, 3, 4] {
                for workers in [1usize, 4] {
                    let run = run_with(shards, workers);
                    let ctx = format!("S={shards} workers={workers} inc={inc} {variant:?}");
                    prop_assert_eq!(&run.labels, &oracle.labels, "labels {}", &ctx);
                    prop_assert_eq!(run.iterations, oracle.iterations, "iterations {}", &ctx);
                    prop_assert_eq!(
                        bits(run.final_coords.coords()),
                        bits(oracle.final_coords.coords()),
                        "coords {}", &ctx
                    );
                    // size-based counters are exact across shard counts
                    let (a, b) = (&run.trace.update_counters, &oracle.trace.update_counters);
                    prop_assert_eq!(a.point_pairs, b.point_pairs, "point_pairs {}", &ctx);
                    prop_assert_eq!(a.summary_cells, b.summary_cells, "summary_cells {}", &ctx);
                    prop_assert_eq!(
                        a.sin_calls_avoided, b.sin_calls_avoided,
                        "sin_calls_avoided {}", &ctx
                    );
                    prop_assert_eq!(a.moved_points, b.moved_points, "moved_points {}", &ctx);
                    prop_assert_eq!(a.cells_skipped, b.cells_skipped, "cells_skipped {}", &ctx);
                    prop_assert_eq!(a.simd_lanes, b.simd_lanes, "simd_lanes {}", &ctx);
                    prop_assert_eq!(
                        a.simd_remainder_lanes, b.simd_remainder_lanes,
                        "simd_remainder_lanes {}", &ctx
                    );
                    let expected_shards = ShardPlan::new(&geo, shards).count() as u64;
                    prop_assert_eq!(a.shard_count, expected_shards, "shard_count {}", &ctx);
                }
            }
        }
    }

    /// Host half of [`retired_oracle_switches_change_nothing`]: for every
    /// shard count, worker count and grid variant, flipping
    /// `use_pooled_exec` leaves labels, iteration count, final coordinate
    /// bits and every work counter untouched.
    fn host_pooled_switch_changes_nothing(
        raw in prop::collection::vec(0.0f64..=1.0, 48..=240),
        dim in 2usize..=6,
        variant_pick in 0usize..=3,
    ) {
        use egg_sync::core::egg::update::UpdateOptions;
        use egg_sync::core::grid::MAX_OUTER_CELLS;
        let coords: Vec<f64> = raw[..raw.len() / dim * dim].to_vec();
        let n = coords.len() / dim;
        prop_assume!(n > 0);
        let eps = 0.12 * (dim as f64).sqrt();
        let mut variant = match variant_pick {
            0 => GridVariant::Auto,
            1 => GridVariant::Sequential,
            2 => GridVariant::Mixed(1),
            _ => GridVariant::RandomAccess,
        };
        let width = GridGeometry::new(dim, eps, n, GridVariant::Sequential).width;
        if variant == GridVariant::RandomAccess
            && width.checked_pow(dim as u32).is_none_or(|m| m > MAX_OUTER_CELLS)
        {
            variant = GridVariant::Auto; // dense directory infeasible
        }
        let data = Dataset::from_coords(coords, dim);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for shards in [1usize, 2, 4] {
            for workers in [1usize, 4, 8] {
                let run_with = |pooled: bool| {
                    let mut algo = EggSync::host(eps, Some(workers));
                    algo.variant = variant;
                    algo.options = UpdateOptions {
                        num_shards: shards,
                        use_pooled_exec: pooled,
                        ..UpdateOptions::default()
                    };
                    algo.cluster(&data)
                };
                let (on, off) = (run_with(true), run_with(false));
                let ctx = format!("S={shards} workers={workers} {variant:?}");
                prop_assert_eq!(&on.labels, &off.labels, "labels {}", &ctx);
                prop_assert_eq!(on.iterations, off.iterations, "iterations {}", &ctx);
                prop_assert_eq!(
                    bits(on.final_coords.coords()),
                    bits(off.final_coords.coords()),
                    "coords {}", &ctx
                );
                prop_assert_eq!(
                    on.trace.update_counters,
                    off.trace.update_counters,
                    "counters {}", &ctx
                );
            }
        }
    }
}

/// `UpdateOptions::use_pooled_exec` and `use_fused_kernels` are ignored:
/// flipping either changes no label, iteration, final-coordinate bit or
/// work counter, and on the simulated device no kernel total either.
#[test]
fn retired_oracle_switches_change_nothing() {
    use egg_sync::core::instrument::KernelSummary;
    use egg_sync::core::Backend;

    host_pooled_switch_changes_nothing();

    // device half: one fixed input on one simulator thread, where the
    // device's bits and kernel totals repeat exactly
    let data = GaussianSpec {
        n: 200,
        dim: 2,
        seed: 1,
        ..GaussianSpec::default()
    }
    .generate_normalized()
    .0;
    let run_with = |fused: bool| {
        let mut algo = EggSync::new(0.05);
        algo.backend = Backend::SimulatedGpu;
        algo.threads = Some(1);
        algo.options.use_fused_kernels = fused;
        algo.cluster(&data)
    };
    let (on, off) = (run_with(true), run_with(false));
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let kernels = |run: &Clustering| {
        let KernelSummary {
            launches,
            mem_words,
            coalesced_words,
            atomics,
        } = run
            .trace
            .kernel_summary
            .expect("device run records kernels");
        [launches, mem_words, coalesced_words, atomics]
    };
    assert_eq!(on.labels, off.labels, "labels");
    assert_eq!(on.iterations, off.iterations, "iterations");
    assert_eq!(
        bits(on.final_coords.coords()),
        bits(off.final_coords.coords()),
        "coords"
    );
    assert_eq!(
        on.trace.update_counters, off.trace.update_counters,
        "counters"
    );
    assert_eq!(kernels(&on), kernels(&off), "kernel totals");
}
