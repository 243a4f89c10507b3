//! ExactSync — the brute-force CPU oracle for exact synchronization.
//!
//! Same clustering definition and termination criterion as EGG-SynC
//! (Definition 4.2), implemented with `O(n²)` scans and no grid, no GPU,
//! no summaries. It exists for trust: every structural trick in EGG-SynC
//! must reproduce *exactly* this algorithm's output, and the integration
//! tests enforce that.
//!
//! The iteration structure mirrors Algorithm 4 so iteration counts are
//! comparable: the criterion is evaluated on state `t` while the update to
//! `t+1` is also performed, and the loop exits after that update. The
//! loop stays its own, outside `EggSync`'s driver: an oracle that shared
//! the loop could not catch a bug in it.

use egg_data::Dataset;

use crate::instrument::{timed, IterationRecord, RunTrace, Stage};
use crate::model::{criterion_met, gather_exact, update_point};
use crate::result::{ClusterAlgorithm, Clustering};

/// Brute-force CPU clustering by synchronization with the exact
/// termination criterion.
#[derive(Debug, Clone)]
pub struct ExactSync {
    /// Neighborhood radius ε.
    pub epsilon: f64,
    /// Safety cap on iterations.
    pub max_iterations: usize,
}

impl ExactSync {
    /// Oracle with the given ε and a 10 000-iteration safety cap.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        Self {
            epsilon,
            max_iterations: 10_000,
        }
    }
}

impl ClusterAlgorithm for ExactSync {
    fn name(&self) -> &'static str {
        "ExactSynC"
    }

    fn cluster(&self, data: &Dataset) -> Clustering {
        let dim = data.dim();
        let n = data.len();
        let mut trace = RunTrace::default();
        if n == 0 {
            return Clustering::from_labels(Vec::new(), 0, true, data.clone(), trace);
        }
        let mut coords = data.coords().to_vec();
        let mut next = vec![0.0f64; coords.len()];
        let mut iterations = 0usize;
        let mut converged = false;
        while iterations < self.max_iterations {
            let (met, secs) = timed(|| {
                let met = criterion_met(&coords, dim, self.epsilon);
                for p_idx in 0..n {
                    let out = &mut next[p_idx * dim..(p_idx + 1) * dim];
                    update_point(&coords, dim, p_idx, self.epsilon, out);
                }
                met
            });
            std::mem::swap(&mut coords, &mut next);
            trace.stages.add(Stage::Update, secs);
            trace.iterations.push(IterationRecord {
                iteration: iterations,
                seconds: secs,
                sim_seconds: None,
                rc: None,
            });
            iterations += 1;
            if met {
                converged = true;
                break;
            }
        }
        let (labels, secs) = timed(|| gather_exact(&coords, dim, self.epsilon));
        trace.stages.add(Stage::Clustering, secs);
        trace.total_seconds = trace.stages.total();
        Clustering::from_labels(
            labels,
            iterations,
            converged,
            Dataset::from_coords(coords, dim),
            trace,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egg_data::generator::GaussianSpec;
    use egg_data::metrics::purity;

    #[test]
    fn recovers_separated_blobs_exactly() {
        let (data, truth) = GaussianSpec {
            n: 150,
            clusters: 3,
            std_dev: 3.0,
            seed: 17,
            ..GaussianSpec::default()
        }
        .generate_normalized();
        let result = ExactSync::new(0.05).cluster(&data);
        assert!(result.converged);
        assert!(purity(&truth, &result.labels) > 0.99);
    }

    #[test]
    fn terminated_state_satisfies_criterion() {
        let (data, _) = GaussianSpec {
            n: 80,
            clusters: 2,
            std_dev: 2.0,
            seed: 5,
            ..GaussianSpec::default()
        }
        .generate_normalized();
        let result = ExactSync::new(0.05).cluster(&data);
        assert!(result.converged);
        assert!(criterion_met(
            result.final_coords.coords(),
            result.final_coords.dim(),
            0.05
        ));
    }

    #[test]
    fn clusters_are_epsilon_separated_internally_synchronized() {
        let (data, _) = GaussianSpec {
            n: 100,
            clusters: 2,
            std_dev: 2.5,
            seed: 23,
            ..GaussianSpec::default()
        }
        .generate_normalized();
        let result = ExactSync::new(0.05).cluster(&data);
        let coords = result.final_coords.coords();
        let dim = result.final_coords.dim();
        for i in 0..data.len() {
            for j in (i + 1)..data.len() {
                // radius-only comparisons: within() skips the square root
                let (a, b) = (
                    egg_spatial::distance::row(coords, dim, i),
                    egg_spatial::distance::row(coords, dim, j),
                );
                if result.labels[i] == result.labels[j] {
                    assert!(
                        egg_spatial::distance::within(a, b, 0.05 / 2.0),
                        "same cluster but points {i} and {j} are apart"
                    );
                } else {
                    assert!(
                        !egg_spatial::distance::within(a, b, 0.05),
                        "different clusters but points {i} and {j} are close"
                    );
                }
            }
        }
    }

    #[test]
    fn single_and_empty() {
        assert_eq!(
            ExactSync::new(0.05)
                .cluster(&Dataset::from_coords(vec![0.3, 0.3], 2))
                .num_clusters,
            1
        );
        assert_eq!(
            ExactSync::new(0.05)
                .cluster(&Dataset::empty(2))
                .num_clusters,
            0
        );
    }

    #[test]
    fn bridge_is_resolved_into_one_cluster() {
        // the Figure-1 construction: exact termination must keep iterating
        // until the bridge has pulled everything together
        let (data, eps) = egg_data::generator::bridged_clusters(60, 12, 9);
        let result = ExactSync::new(eps).cluster(&data);
        assert!(result.converged);
        assert_eq!(result.num_clusters, 1, "bridge must merge the blobs");
    }
}
