//! Recursive CART tree construction.

use super::splitter::best_split;
use crate::node::{Node, NodeId};
use crate::tree::DecisionTree;
use flint_data::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How many features to consider at each split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaxFeatures {
    /// All features (single decision trees).
    All,
    /// `ceil(sqrt(n_features))` — scikit-learn's random forest default.
    Sqrt,
    /// `ceil(log2(n_features))`.
    Log2,
    /// A fixed count (clamped to `n_features`).
    Count(usize),
}

impl MaxFeatures {
    /// Resolves to a concrete count for `n_features`.
    pub fn resolve(self, n_features: usize) -> usize {
        let n = n_features.max(1);
        match self {
            MaxFeatures::All => n,
            MaxFeatures::Sqrt => (n as f64).sqrt().ceil() as usize,
            MaxFeatures::Log2 => (n as f64).log2().ceil().max(1.0) as usize,
            MaxFeatures::Count(c) => c.clamp(1, n),
        }
        .clamp(1, n)
    }
}

/// CART training hyperparameters.
///
/// Defaults match the paper's setup: no hyperparameter tuning, depth
/// limited externally per experiment, scikit-learn defaults otherwise
/// (`min_samples_split = 2`, `min_samples_leaf = 1`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Maximal tree depth (`None` = unbounded). The paper sweeps
    /// {1, 5, 10, 15, 20, 30, 50}.
    pub max_depth: Option<usize>,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum number of samples in each child.
    pub min_samples_leaf: usize,
    /// Feature subsampling per split.
    pub max_features: MaxFeatures,
    /// RNG seed for feature subsampling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            max_depth: None,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: MaxFeatures::All,
            seed: 0,
        }
    }
}

impl TrainConfig {
    /// Convenience: the default configuration with a depth limit.
    #[must_use]
    pub fn with_max_depth(depth: usize) -> Self {
        Self {
            max_depth: Some(depth),
            ..Self::default()
        }
    }
}

/// Error training a tree or a forest.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TrainError {
    /// The training set is empty.
    EmptyDataset,
    /// The training data contains NaN feature values.
    NanFeature,
    /// The forest configuration asks for zero trees.
    EmptyForest,
}

impl core::fmt::Display for TrainError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::EmptyDataset => write!(f, "cannot train on an empty dataset"),
            Self::NanFeature => write!(f, "training data contains NaN feature values"),
            Self::EmptyForest => write!(f, "a forest needs at least one tree"),
        }
    }
}

impl std::error::Error for TrainError {}

/// Trains a single CART decision tree on `data`.
///
/// # Errors
///
/// [`TrainError::EmptyDataset`] for zero samples,
/// [`TrainError::NanFeature`] if any feature value is NaN (split
/// ordering would be undefined — and FLInt thresholds reject NaN).
///
/// # Examples
///
/// ```
/// use flint_forest::train::{train_tree, TrainConfig};
/// use flint_data::synth::SynthSpec;
///
/// # fn main() -> Result<(), flint_forest::train::TrainError> {
/// let data = SynthSpec::new(120, 4, 2).cluster_std(0.3).generate();
/// let tree = train_tree(&data, &TrainConfig::with_max_depth(5))?;
/// assert!(tree.depth() <= 5);
/// # Ok(())
/// # }
/// ```
pub fn train_tree(data: &Dataset, config: &TrainConfig) -> Result<DecisionTree, TrainError> {
    if data.n_samples() == 0 {
        return Err(TrainError::EmptyDataset);
    }
    if data.features_flat().iter().any(|v| v.is_nan()) {
        return Err(TrainError::NanFeature);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let samples: Vec<usize> = (0..data.n_samples()).collect();
    let mut nodes = Vec::new();
    build(data, config, &mut rng, samples, 0, &mut nodes);
    DecisionTree::new(nodes, data.n_features(), data.n_classes())
        .map_err(|_| TrainError::EmptyDataset) // unreachable: builder emits valid trees
}

/// Recursively builds the subtree for `samples`, appending nodes to the
/// arena and returning the new subtree's root id.
fn build(
    data: &Dataset,
    config: &TrainConfig,
    rng: &mut StdRng,
    samples: Vec<usize>,
    depth: usize,
    nodes: &mut Vec<Node>,
) -> NodeId {
    let counts = class_counts(data, &samples);
    let majority = argmax(&counts);
    let depth_exhausted = config.max_depth.is_some_and(|d| depth >= d);
    let too_small = samples.len() < config.min_samples_split;
    let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
    let make_leaf = |nodes: &mut Vec<Node>| -> NodeId {
        let id = NodeId(nodes.len() as u32);
        nodes.push(Node::Leaf {
            class: majority,
            counts: counts.clone(),
        });
        id
    };
    if depth_exhausted || too_small || pure {
        return make_leaf(nodes);
    }
    // Feature subsample (without replacement), like sklearn.
    let k = config.max_features.resolve(data.n_features());
    let mut features: Vec<u32> = (0..data.n_features() as u32).collect();
    features.shuffle(rng);
    features.truncate(k);
    let Some(split) = best_split(data, &samples, &features, config.min_samples_leaf) else {
        return make_leaf(nodes);
    };
    let f = split.feature as usize;
    let (left_samples, right_samples): (Vec<usize>, Vec<usize>) = samples
        .into_iter()
        .partition(|&i| data.sample(i)[f] <= split.threshold);
    debug_assert!(!left_samples.is_empty() && !right_samples.is_empty());
    // Reserve this node's slot before recursing so the root stays at 0.
    let id = NodeId(nodes.len() as u32);
    nodes.push(Node::Leaf {
        class: majority,
        counts: counts.clone(),
    }); // placeholder
    let left = build(data, config, rng, left_samples, depth + 1, nodes);
    let right = build(data, config, rng, right_samples, depth + 1, nodes);
    nodes[id.index()] = Node::Split {
        feature: split.feature,
        threshold: split.threshold,
        left,
        right,
    };
    id
}

fn class_counts(data: &Dataset, samples: &[usize]) -> Vec<u32> {
    let mut counts = vec![0u32; data.n_classes()];
    for &i in samples {
        counts[data.label(i) as usize] += 1;
    }
    counts
}

fn argmax(counts: &[u32]) -> u32 {
    counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(i, _)| i as u32)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_data::synth::SynthSpec;

    fn easy_data() -> Dataset {
        SynthSpec::new(200, 4, 3)
            .cluster_std(0.2)
            .seed(5)
            .generate()
    }

    #[test]
    fn perfectly_fits_separable_data() {
        let data = easy_data();
        let tree = train_tree(&data, &TrainConfig::default()).expect("trainable");
        let correct = (0..data.n_samples())
            .filter(|&i| tree.predict(data.sample(i)) == data.label(i))
            .count();
        assert_eq!(correct, data.n_samples(), "unbounded tree memorizes");
    }

    #[test]
    fn respects_max_depth() {
        let data = easy_data();
        for d in [0, 1, 2, 5] {
            let tree = train_tree(&data, &TrainConfig::with_max_depth(d)).expect("trainable");
            assert!(tree.depth() <= d, "depth {d}: got {}", tree.depth());
        }
    }

    #[test]
    fn depth_zero_is_majority_leaf() {
        let data = easy_data();
        let tree = train_tree(&data, &TrainConfig::with_max_depth(0)).expect("trainable");
        assert_eq!(tree.n_nodes(), 1);
        // Classes are balanced; prediction must still be a valid class.
        assert!(tree.predict(data.sample(0)) < 3);
    }

    #[test]
    fn rejects_empty_and_nan() {
        let empty = Dataset::from_rows(1, 2, vec![]).expect("empty ok to build");
        assert_eq!(
            train_tree(&empty, &TrainConfig::default()).unwrap_err(),
            TrainError::EmptyDataset
        );
        let nan =
            Dataset::from_rows(1, 2, vec![(vec![f32::NAN], 0), (vec![1.0], 1)]).expect("builds");
        assert_eq!(
            train_tree(&nan, &TrainConfig::default()).unwrap_err(),
            TrainError::NanFeature
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let data = easy_data();
        let cfg = TrainConfig {
            max_features: MaxFeatures::Sqrt,
            seed: 11,
            ..TrainConfig::default()
        };
        let a = train_tree(&data, &cfg).expect("trainable");
        let b = train_tree(&data, &cfg).expect("trainable");
        assert_eq!(a, b);
    }

    #[test]
    fn max_features_resolution() {
        assert_eq!(MaxFeatures::All.resolve(10), 10);
        assert_eq!(MaxFeatures::Sqrt.resolve(10), 4); // ceil(3.16)
        assert_eq!(MaxFeatures::Sqrt.resolve(128), 12); // ceil(11.3)
        assert_eq!(MaxFeatures::Log2.resolve(10), 4); // ceil(3.32)
        assert_eq!(MaxFeatures::Count(3).resolve(10), 3);
        assert_eq!(MaxFeatures::Count(99).resolve(10), 10);
        assert_eq!(MaxFeatures::Count(0).resolve(10), 1);
        assert_eq!(MaxFeatures::All.resolve(0), 1);
    }

    #[test]
    fn min_samples_leaf_limits_leaf_sizes() {
        let data = easy_data();
        let cfg = TrainConfig {
            min_samples_leaf: 10,
            ..TrainConfig::default()
        };
        let tree = train_tree(&data, &cfg).expect("trainable");
        for node in tree.nodes() {
            if let Node::Leaf { counts, .. } = node {
                let total: u32 = counts.iter().sum();
                assert!(total >= 10, "leaf with {total} samples");
            }
        }
    }

    #[test]
    fn single_class_data_yields_single_leaf() {
        let data = Dataset::from_rows(1, 2, vec![(vec![1.0], 1), (vec![2.0], 1), (vec![3.0], 1)])
            .expect("valid");
        let tree = train_tree(&data, &TrainConfig::default()).expect("trainable");
        assert_eq!(tree.n_nodes(), 1);
        assert_eq!(tree.predict(&[9.0]), 1);
    }
}
