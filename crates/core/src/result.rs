//! Clustering results and the common algorithm interface.

use egg_data::Dataset;
use serde::Serialize;

use crate::instrument::RunTrace;

/// The outcome of a synchronization-clustering run.
#[derive(Debug, Clone, Serialize)]
pub struct Clustering {
    /// One cluster label per input point. Labels are dense from 0.
    pub labels: Vec<u32>,
    /// Number of distinct clusters in `labels`.
    pub num_clusters: usize,
    /// Synchronization iterations executed.
    pub iterations: usize,
    /// Whether the algorithm's termination criterion fired before
    /// `max_iterations`.
    pub converged: bool,
    /// The synchronized point locations at termination.
    pub final_coords: Dataset,
    /// Stage and iteration instrumentation.
    pub trace: RunTrace,
}

impl Clustering {
    /// Build a result from raw labels, relabeling them densely from 0.
    pub(crate) fn from_labels(
        labels: Vec<u32>,
        iterations: usize,
        converged: bool,
        final_coords: Dataset,
        trace: RunTrace,
    ) -> Self {
        debug_assert_eq!(labels.len(), final_coords.len());
        let (labels, num_clusters) = dense_relabel(labels);
        Self {
            labels,
            num_clusters,
            iterations,
            converged,
            final_coords,
            trace,
        }
    }

    /// Number of points in cluster `label`.
    pub fn cluster_size(&self, label: u32) -> usize {
        self.labels.iter().filter(|&&l| l == label).count()
    }

    /// Indices of points whose cluster is a singleton — SynC's natural
    /// outliers (points that synchronized with nobody).
    pub fn outliers(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_clusters];
        for &l in &self.labels {
            counts[l as usize] += 1;
        }
        self.labels
            .iter()
            .enumerate()
            .filter(|(_, &l)| counts[l as usize] == 1)
            .map(|(i, _)| i)
            .collect()
    }

    /// Cluster sizes indexed by label.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.num_clusters];
        for &l in &self.labels {
            counts[l as usize] += 1;
        }
        counts
    }
}

/// Remap arbitrary labels to a dense `0..k` range (first-seen order) and
/// return the new labels with `k`.
fn dense_relabel(labels: Vec<u32>) -> (Vec<u32>, usize) {
    let mut map = std::collections::HashMap::new();
    let mut next = 0u32;
    let labels = labels
        .into_iter()
        .map(|l| {
            *map.entry(l).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            })
        })
        .collect();
    (labels, next as usize)
}

/// The interface every synchronization-clustering algorithm implements.
pub trait ClusterAlgorithm {
    /// Short display name used by the benchmark harnesses ("SynC",
    /// "EGG-SynC", …).
    fn name(&self) -> &'static str;

    /// Cluster a min/max-normalized dataset.
    fn cluster(&self, data: &Dataset) -> Clustering;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(labels: Vec<u32>) -> Clustering {
        let n = labels.len();
        Clustering::from_labels(
            labels,
            3,
            true,
            Dataset::from_coords(vec![0.0; n], 1),
            RunTrace::default(),
        )
    }

    #[test]
    fn labels_are_densified() {
        let c = mk(vec![7, 7, 42, 7, 9]);
        assert_eq!(c.labels, vec![0, 0, 1, 0, 2]);
        assert_eq!(c.num_clusters, 3);
    }

    #[test]
    fn sizes_and_outliers() {
        let c = mk(vec![0, 0, 5, 0, 6]);
        assert_eq!(c.cluster_sizes(), vec![3, 1, 1]);
        assert_eq!(c.cluster_size(0), 3);
        assert_eq!(c.outliers(), vec![2, 4]);
    }

    #[test]
    fn empty_clustering() {
        let c = mk(vec![]);
        assert_eq!(c.num_clusters, 0);
        assert!(c.outliers().is_empty());
    }
}
