//! Random forest ensembles: bootstrap bagging over CART trees.

use crate::train::{train_tree, MaxFeatures, TrainConfig, TrainError};
use crate::tree::DecisionTree;
use flint_data::Dataset;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random forest hyperparameters.
///
/// Defaults mirror scikit-learn's `RandomForestClassifier` with the
/// paper's sweeps layered on top: `n_trees` from
/// {1, 5, 10, 15, 20, 30, 50, 80, 100} and `max_depth` from
/// {1, 5, 10, 15, 20, 30, 50}.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForestConfig {
    /// Ensemble size.
    pub n_trees: usize,
    /// Depth cap per tree (`None` = unbounded).
    pub max_depth: Option<usize>,
    /// Bootstrap resampling of the training set per tree.
    pub bootstrap: bool,
    /// Features considered per split ([`MaxFeatures::Sqrt`] is the
    /// sklearn default).
    pub max_features: MaxFeatures,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples per child.
    pub min_samples_leaf: usize,
    /// Master seed; per-tree seeds derive from it.
    pub seed: u64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 10,
            max_depth: None,
            bootstrap: true,
            max_features: MaxFeatures::Sqrt,
            min_samples_split: 2,
            min_samples_leaf: 1,
            seed: 0,
        }
    }
}

impl ForestConfig {
    /// The paper's grid point: `n_trees` trees capped at `max_depth`.
    #[must_use]
    pub fn grid(n_trees: usize, max_depth: usize) -> Self {
        Self {
            n_trees,
            max_depth: Some(max_depth),
            ..Self::default()
        }
    }
}

/// A trained random forest.
///
/// Prediction averages the per-leaf class distributions of all trees
/// (scikit-learn's soft voting), breaking ties toward the lower class
/// index.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_features: usize,
    n_classes: usize,
}

impl RandomForest {
    /// Trains a forest on `data`.
    ///
    /// # Errors
    ///
    /// [`TrainError::EmptyForest`] if `config.n_trees` is 0, and
    /// [`TrainError`] from tree training (empty data, NaN features).
    ///
    /// # Examples
    ///
    /// ```
    /// use flint_forest::forest::{ForestConfig, RandomForest};
    /// use flint_data::synth::SynthSpec;
    ///
    /// # fn main() -> Result<(), flint_forest::train::TrainError> {
    /// let data = SynthSpec::new(150, 4, 2).cluster_std(0.3).generate();
    /// let forest = RandomForest::fit(&data, &ForestConfig::grid(5, 8))?;
    /// assert_eq!(forest.n_trees(), 5);
    /// let class = forest.predict(data.sample(0));
    /// assert!(class < 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn fit(data: &Dataset, config: &ForestConfig) -> Result<Self, TrainError> {
        if config.n_trees == 0 {
            return Err(TrainError::EmptyForest);
        }
        if data.n_samples() == 0 {
            return Err(TrainError::EmptyDataset);
        }
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut trees = Vec::with_capacity(config.n_trees);
        for t in 0..config.n_trees {
            let tree_seed = rng.gen::<u64>() ^ (t as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let tree_cfg = TrainConfig {
                max_depth: config.max_depth,
                min_samples_split: config.min_samples_split,
                min_samples_leaf: config.min_samples_leaf,
                max_features: config.max_features,
                seed: tree_seed,
            };
            let tree = if config.bootstrap {
                let indices: Vec<usize> = (0..data.n_samples())
                    .map(|_| rng.gen_range(0..data.n_samples()))
                    .collect();
                train_tree(&data.subset(&indices), &tree_cfg)?
            } else {
                train_tree(data, &tree_cfg)?
            };
            trees.push(tree);
        }
        Ok(Self {
            trees,
            n_features: data.n_features(),
            n_classes: data.n_classes(),
        })
    }

    /// Wraps pre-trained trees into a forest.
    ///
    /// # Panics
    ///
    /// Panics if `trees` is empty or trees disagree on
    /// feature/class counts.
    pub fn from_trees(trees: Vec<DecisionTree>) -> Self {
        assert!(!trees.is_empty(), "a forest needs at least one tree");
        let n_features = trees[0].n_features();
        let n_classes = trees[0].n_classes();
        for t in &trees {
            assert_eq!(t.n_features(), n_features, "inconsistent feature counts");
            assert_eq!(t.n_classes(), n_classes, "inconsistent class counts");
        }
        Self {
            trees,
            n_features,
            n_classes,
        }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Expected feature vector length.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The trees of the ensemble.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Total node count across all trees.
    pub fn n_nodes(&self) -> usize {
        self.trees.iter().map(|t| t.n_nodes()).sum()
    }

    /// Maximum tree depth in the ensemble.
    pub fn depth(&self) -> usize {
        self.trees.iter().map(|t| t.depth()).max().unwrap_or(0)
    }

    /// Averaged class probabilities over all trees.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    pub fn predict_proba(&self, features: &[f32]) -> Vec<f64> {
        let mut probs = vec![0.0f64; self.n_classes];
        for tree in &self.trees {
            let (_, counts) = tree.predict_leaf(features);
            let total: u32 = counts.iter().sum();
            if total > 0 {
                for (p, &c) in probs.iter_mut().zip(counts) {
                    *p += f64::from(c) / f64::from(total);
                }
            }
        }
        for p in &mut probs {
            *p /= self.trees.len() as f64;
        }
        probs
    }

    /// Predicted class: argmax of [`predict_proba`](Self::predict_proba).
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    pub fn predict(&self, features: &[f32]) -> u32 {
        let probs = self.predict_proba(features);
        probs
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("probabilities are finite"))
            .map(|(i, _)| i as u32)
            .expect("n_classes >= 1")
    }

    /// Batch prediction over a dataset.
    pub fn predict_dataset(&self, data: &Dataset) -> Vec<u32> {
        (0..data.n_samples())
            .map(|i| self.predict(data.sample(i)))
            .collect()
    }

    /// Majority vote over the per-tree predicted classes, ties broken
    /// to the lower class index.
    ///
    /// This is the aggregation every compiled inference engine in the
    /// workspace implements (if-else backends, the batch engine,
    /// QuickScorer, the codegen VM), so it is the reference for their
    /// bit-identical-predictions differential tests. It can differ from
    /// [`predict`](Self::predict), which argmaxes *averaged leaf class
    /// distributions* rather than counting one vote per tree.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    pub fn predict_majority(&self, features: &[f32]) -> u32 {
        crate::metrics::majority_vote(&self.predict_votes(features))
    }

    /// Per-class vote histogram over the per-tree predicted classes:
    /// `votes[c]` trees predicted class `c`, summing to
    /// [`n_trees`](Self::n_trees).
    ///
    /// This is the partial result a forest *shard* contributes in
    /// distributed inference: histograms from disjoint tree spans (see
    /// [`tree_span`](Self::tree_span)) merge by element-wise addition
    /// into exactly the histogram the whole forest would have produced,
    /// so `majority_vote(merged)` is bit-identical to single-node
    /// [`predict_majority`](Self::predict_majority). Merging shard
    /// *classes* instead of histograms would not be: two shards can
    /// disagree in a way the summed histogram settles differently than
    /// any per-shard winner.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    pub fn predict_votes(&self, features: &[f32]) -> Vec<u32> {
        let mut votes = vec![0u32; self.n_classes];
        for tree in &self.trees {
            votes[tree.predict(features) as usize] += 1;
        }
        votes
    }

    /// The sub-forest holding trees `start..end` of this ensemble, for
    /// sharded serving: each shard loads the same model file and keeps
    /// only its span, so disjoint covering spans partition the vote.
    ///
    /// # Panics
    ///
    /// Panics if the span is empty or out of bounds.
    pub fn tree_span(&self, start: usize, end: usize) -> Self {
        assert!(
            start < end && end <= self.trees.len(),
            "tree span {start}..{end} invalid for {} trees",
            self.trees.len()
        );
        Self::from_trees(self.trees[start..end].to_vec())
    }

    /// Partitions this forest's trees into at most `n_shards`
    /// contiguous `(start, end)` spans for
    /// [`tree_span`](Self::tree_span) — the same `div_ceil` span
    /// template the batch scorer uses for worker spans. The spans
    /// cover every tree exactly once and are never empty, so the
    /// returned count can be below `n_shards` when there are more
    /// shards than trees (or the ceiling division leaves a trailing
    /// span nothing falls into).
    pub fn plan_spans(&self, n_shards: usize) -> Vec<(usize, usize)> {
        plan_spans(self.trees.len(), n_shards)
    }

    /// Batch [`predict_majority`](Self::predict_majority) over a
    /// dataset.
    pub fn predict_dataset_majority(&self, data: &Dataset) -> Vec<u32> {
        (0..data.n_samples())
            .map(|i| self.predict_majority(data.sample(i)))
            .collect()
    }

    /// Mean Gini feature importances across the ensemble, normalized to
    /// sum to 1 (scikit-learn semantics).
    pub fn feature_importances(&self) -> Vec<f64> {
        let mut sums = vec![0.0f64; self.n_features];
        for tree in &self.trees {
            for (s, v) in sums.iter_mut().zip(tree.feature_importances()) {
                *s += v;
            }
        }
        let total: f64 = sums.iter().sum();
        if total > 0.0 {
            for s in &mut sums {
                *s /= total;
            }
        }
        sums
    }
}

/// Partitions `n_trees` into at most `n_shards` contiguous
/// `(start, end)` spans: ceiling-divided so earlier spans are never
/// smaller than later ones, covering every tree exactly once with no
/// empty spans. This is the shard-assignment side of the workspace's
/// one span-partitioning template (the batch scorer applies the same
/// shape to output rows).
///
/// # Panics
///
/// Panics when `n_trees` is zero — there is nothing to shard.
pub fn plan_spans(n_trees: usize, n_shards: usize) -> Vec<(usize, usize)> {
    assert!(n_trees > 0, "cannot shard an empty forest");
    let shards = n_shards.clamp(1, n_trees);
    let span = n_trees.div_ceil(shards);
    (0..shards)
        .map(|s| (s * span, ((s + 1) * span).min(n_trees)))
        .filter(|(start, end)| start < end)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use flint_data::synth::SynthSpec;
    use flint_data::train_test_split;

    fn data() -> Dataset {
        SynthSpec::new(300, 5, 3)
            .cluster_std(0.5)
            .seed(2)
            .generate()
    }

    #[test]
    fn plan_spans_covers_every_tree_exactly_once() {
        for (n_trees, n_shards) in [(5, 1), (5, 2), (5, 5), (5, 9), (10, 3), (10, 6), (1, 4)] {
            let spans = plan_spans(n_trees, n_shards);
            assert!(spans.len() <= n_shards.max(1), "{n_trees}/{n_shards}");
            assert_eq!(spans.first().map(|s| s.0), Some(0));
            assert_eq!(spans.last().map(|s| s.1), Some(n_trees));
            for pair in spans.windows(2) {
                assert_eq!(pair[0].1, pair[1].0, "spans must tile: {spans:?}");
            }
            for (start, end) in &spans {
                assert!(start < end, "no empty spans: {spans:?}");
            }
        }
        assert_eq!(plan_spans(5, 2), vec![(0, 3), (3, 5)]);
        assert_eq!(plan_spans(5, 0), vec![(0, 5)]);
    }

    #[test]
    fn forest_learns_separable_data() {
        let ds = data();
        let split = train_test_split(&ds, 0.25, 0);
        let forest =
            RandomForest::fit(&split.train, &ForestConfig::grid(10, 12)).expect("trainable");
        let preds = forest.predict_dataset(&split.test);
        let acc = accuracy(&preds, split.test.labels());
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = data();
        let a = RandomForest::fit(&ds, &ForestConfig::grid(3, 5)).expect("trainable");
        let b = RandomForest::fit(&ds, &ForestConfig::grid(3, 5)).expect("trainable");
        assert_eq!(a, b);
        let c = RandomForest::fit(
            &ds,
            &ForestConfig {
                seed: 99,
                ..ForestConfig::grid(3, 5)
            },
        )
        .expect("trainable");
        assert_ne!(a, c);
    }

    #[test]
    fn bootstrap_trees_differ() {
        let ds = data();
        let forest = RandomForest::fit(&ds, &ForestConfig::grid(5, 10)).expect("trainable");
        let distinct = forest.trees().iter().any(|t| t != &forest.trees()[0]);
        assert!(distinct, "bootstrap should diversify trees");
    }

    #[test]
    fn majority_vote_counts_one_vote_per_tree() {
        let ds = data();
        let forest = RandomForest::fit(&ds, &ForestConfig::grid(7, 9)).expect("trainable");
        for i in 0..ds.n_samples() {
            let x = ds.sample(i);
            let mut votes = vec![0u32; forest.n_classes()];
            for tree in forest.trees() {
                votes[tree.predict(x) as usize] += 1;
            }
            let want = crate::metrics::majority_vote(&votes);
            assert_eq!(forest.predict_majority(x), want, "sample {i}");
        }
        assert_eq!(
            forest.predict_dataset_majority(&ds),
            (0..ds.n_samples())
                .map(|i| forest.predict_majority(ds.sample(i)))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn probabilities_sum_to_one() {
        let ds = data();
        let forest = RandomForest::fit(&ds, &ForestConfig::grid(4, 6)).expect("trainable");
        for i in 0..10 {
            let p = forest.predict_proba(ds.sample(i));
            let sum: f64 = p.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn respects_depth_cap() {
        let ds = data();
        let forest = RandomForest::fit(&ds, &ForestConfig::grid(5, 3)).expect("trainable");
        assert!(forest.depth() <= 3);
    }

    #[test]
    fn from_trees_roundtrip() {
        let ds = data();
        let forest = RandomForest::fit(&ds, &ForestConfig::grid(3, 4)).expect("trainable");
        let rebuilt = RandomForest::from_trees(forest.trees().to_vec());
        assert_eq!(rebuilt.predict(ds.sample(0)), forest.predict(ds.sample(0)));
        assert_eq!(rebuilt.n_nodes(), forest.n_nodes());
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn from_trees_rejects_empty() {
        let _ = RandomForest::from_trees(vec![]);
    }

    #[test]
    fn sharded_votes_merge_to_the_single_node_answer() {
        let ds = data();
        let forest = RandomForest::fit(&ds, &ForestConfig::grid(7, 8)).expect("trainable");
        // Ragged split on purpose: spans 0..3, 3..4, 4..7.
        let spans = [(0, 3), (3, 4), (4, 7)];
        let shards: Vec<_> = spans.iter().map(|&(a, b)| forest.tree_span(a, b)).collect();
        for i in 0..ds.n_samples() {
            let x = ds.sample(i);
            let full = forest.predict_votes(x);
            assert_eq!(full.iter().sum::<u32>() as usize, forest.n_trees());
            let mut merged = vec![0u32; forest.n_classes()];
            for shard in &shards {
                crate::votes::merge_votes(&mut merged, &shard.predict_votes(x));
            }
            assert_eq!(merged, full, "sample {i}");
            assert_eq!(
                crate::metrics::majority_vote(&merged),
                forest.predict_majority(x)
            );
        }
    }

    #[test]
    #[should_panic(expected = "tree span")]
    fn tree_span_rejects_out_of_bounds() {
        let ds = data();
        let forest = RandomForest::fit(&ds, &ForestConfig::grid(3, 4)).expect("trainable");
        let _ = forest.tree_span(1, 5);
    }

    #[test]
    fn importances_find_the_informative_features() {
        // 2 informative + 3 noise features: the informative ones must
        // collect the bulk of the importance mass.
        let ds = SynthSpec::new(400, 5, 2)
            .informative(2)
            .cluster_std(0.5)
            .seed(9)
            .generate();
        let forest = RandomForest::fit(&ds, &ForestConfig::grid(10, 8)).expect("trainable");
        let imp = forest.feature_importances();
        assert_eq!(imp.len(), 5);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let informative: f64 = imp[..2].iter().sum();
        assert!(
            informative > 0.7,
            "informative mass {informative} of {imp:?}"
        );
    }

    #[test]
    fn empty_dataset_rejected() {
        let empty = Dataset::from_rows(1, 2, vec![]).expect("builds");
        assert_eq!(
            RandomForest::fit(&empty, &ForestConfig::default()).unwrap_err(),
            TrainError::EmptyDataset
        );
    }

    #[test]
    fn zero_trees_rejected_as_the_reader_does() {
        let ds = SynthSpec::new(40, 3, 2).seed(3).generate();
        let err = RandomForest::fit(&ds, &ForestConfig::grid(0, 4)).unwrap_err();
        assert_eq!(err, TrainError::EmptyForest);
        // `fit` refuses what `read_forest` would refuse, in its words.
        let empty_model = "flint-forest v1\nforest n_features=3 n_classes=2 n_trees=0\nend\n";
        let read = crate::io::read_forest(empty_model.as_bytes()).unwrap_err();
        assert!(
            read.to_string().ends_with(&err.to_string()),
            "{read} vs {err}"
        );
    }
}
