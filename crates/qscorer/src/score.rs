//! The QuickScorer traversal and forest-level scoring.

use crate::bitset::LeafBitset;
use crate::build::QsTree;
use flint_core::order_key;
use flint_forest::RandomForest;

/// Which comparison the per-feature threshold scan uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QsCompare {
    /// IEEE float comparisons (the original algorithm).
    Float,
    /// FLInt integer order-key comparisons — no float instruction in
    /// the scan.
    Flint,
}

impl QsTree {
    /// Scores one feature vector: returns the exit leaf's class.
    ///
    /// Walks every feature's ascending threshold list, clearing the
    /// left-leaf range of each *false* node (`threshold < x`), then
    /// reads the lowest surviving leaf.
    ///
    /// In [`QsCompare::Flint`] mode features are keyed with the
    /// NaN-total [`order_key`], so a NaN feature routes as in every
    /// FLInt engine: a positive NaN pattern goes right at every node, a
    /// negative one left.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` is smaller than the tree's feature
    /// count.
    pub fn score(&self, features: &[f32], compare: QsCompare, scratch: &mut LeafBitset) -> u32 {
        debug_assert_eq!(scratch.len(), self.n_leaves(), "scratch bitset size");
        scratch.reset_all_set();
        match compare {
            QsCompare::Float => {
                for (f, conditions) in self.by_feature.iter().enumerate() {
                    let x = features[f];
                    for c in conditions {
                        if c.threshold < x {
                            scratch.clear_range(c.leaf_start as usize, c.leaf_end as usize);
                        } else {
                            break; // sorted ascending: the rest are true
                        }
                    }
                }
            }
            QsCompare::Flint => {
                for (f, conditions) in self.by_feature.iter().enumerate() {
                    let x_key = order_key(features[f]);
                    for c in conditions {
                        if c.threshold_key < x_key {
                            scratch.clear_range(c.leaf_start as usize, c.leaf_end as usize);
                        } else {
                            break;
                        }
                    }
                }
            }
        }
        let exit = scratch
            .first_set()
            .expect("QuickScorer invariant: at least one leaf survives");
        self.leaf_class(exit)
    }
}

/// Reusable per-forest scoring state: one reachability bitset per tree
/// plus one vote accumulator, allocated once and reused across
/// predictions so the hot loop performs no allocation at all.
///
/// Build with [`QsForest::scratch`]; feed to
/// [`QsForest::votes_with_scratch`].
#[derive(Debug, Clone)]
pub struct QsScratch {
    bitsets: Vec<LeafBitset>,
    votes: Vec<u32>,
}

/// A whole forest compiled for QuickScorer traversal with majority-vote
/// aggregation (same tie-breaking as `flint-exec`).
///
/// # Examples
///
/// ```
/// use flint_data::synth::SynthSpec;
/// use flint_forest::{ForestConfig, RandomForest};
/// use flint_qscorer::{QsCompare, QsForest};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = SynthSpec::new(120, 4, 2).generate();
/// let forest = RandomForest::fit(&data, &ForestConfig::grid(4, 6))?;
/// let qs = QsForest::build(&forest);
/// let class = qs.predict(data.sample(0), QsCompare::Flint);
/// assert!(class < 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QsForest {
    trees: Vec<QsTree>,
    n_classes: usize,
    n_features: usize,
}

impl QsForest {
    /// Compiles every tree of `forest`.
    pub fn build(forest: &RandomForest) -> Self {
        Self {
            trees: forest.trees().iter().map(QsTree::build).collect(),
            n_classes: forest.n_classes(),
            n_features: forest.n_features(),
        }
    }

    /// The compiled trees.
    pub fn trees(&self) -> &[QsTree] {
        &self.trees
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Expected feature vector length.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Allocates scoring state sized for this forest, reusable across
    /// any number of predictions.
    pub fn scratch(&self) -> QsScratch {
        QsScratch {
            bitsets: self
                .trees
                .iter()
                .map(|t| LeafBitset::all_set(t.n_leaves()))
                .collect(),
            votes: vec![0u32; self.n_classes],
        }
    }

    /// Majority-vote prediction (ties to the lower class index).
    ///
    /// Allocates a fresh [`QsScratch`] per call; hot paths should hold
    /// one and use [`QsForest::votes_with_scratch`].
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features`.
    pub fn predict(&self, features: &[f32], compare: QsCompare) -> u32 {
        flint_forest::metrics::majority_vote(self.votes_with_scratch(
            features,
            compare,
            &mut self.scratch(),
        ))
    }

    /// Fills `scratch.votes` with the per-class vote histogram (one
    /// vote per tree) and returns it — the partial a forest shard
    /// reports for distributed merge.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features`, or if `scratch` was
    /// built for a different forest (debug builds).
    pub fn votes_with_scratch<'s>(
        &self,
        features: &[f32],
        compare: QsCompare,
        scratch: &'s mut QsScratch,
    ) -> &'s [u32] {
        assert_eq!(features.len(), self.n_features, "feature vector length");
        debug_assert_eq!(
            scratch.bitsets.len(),
            self.trees.len(),
            "scratch forest size"
        );
        scratch.votes.fill(0);
        for (tree, bitset) in self.trees.iter().zip(&mut scratch.bitsets) {
            scratch.votes[tree.score(features, compare, bitset) as usize] += 1;
        }
        &scratch.votes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_forest::example_tree;

    #[test]
    fn example_tree_scoring() {
        let tree = example_tree();
        let qs = QsTree::build(&tree);
        let mut scratch = LeafBitset::all_set(qs.n_leaves());
        for input in [
            [0.0f32, -2.0],
            [0.0, 0.0],
            [1.0, 0.0],
            [0.5, -1.25],
            [-3.0, 7.0],
        ] {
            let want = tree.predict(&input);
            assert_eq!(
                qs.score(&input, QsCompare::Float, &mut scratch),
                want,
                "{input:?}"
            );
            assert_eq!(
                qs.score(&input, QsCompare::Flint, &mut scratch),
                want,
                "{input:?}"
            );
        }
    }

    #[test]
    fn forest_agrees_with_reference_majority() {
        use flint_data::synth::SynthSpec;
        use flint_forest::ForestConfig;
        let data = SynthSpec::new(250, 5, 3)
            .negative_fraction(0.5)
            .seed(31)
            .generate();
        let forest = RandomForest::fit(&data, &ForestConfig::grid(6, 9)).expect("trains");
        let qs = QsForest::build(&forest);
        let reference = |x: &[f32]| -> u32 {
            let mut votes = vec![0u32; forest.n_classes()];
            for tree in forest.trees() {
                votes[tree.predict(x) as usize] += 1;
            }
            votes
                .iter()
                .enumerate()
                .max_by_key(|&(i, &v)| (v, core::cmp::Reverse(i)))
                .map(|(i, _)| i as u32)
                .expect("non-empty")
        };
        for i in 0..data.n_samples() {
            let x = data.sample(i);
            let want = reference(x);
            assert_eq!(qs.predict(x, QsCompare::Float), want, "sample {i}");
            assert_eq!(qs.predict(x, QsCompare::Flint), want, "sample {i}");
        }
    }

    #[test]
    fn reused_scratch_never_leaks_state_between_samples() {
        use flint_data::synth::SynthSpec;
        use flint_forest::ForestConfig;
        let data = SynthSpec::new(90, 3, 3).seed(9).generate();
        let forest = RandomForest::fit(&data, &ForestConfig::grid(4, 6)).expect("trains");
        let qs = QsForest::build(&forest);
        let mut scratch = qs.scratch();
        for compare in [QsCompare::Float, QsCompare::Flint] {
            for i in 0..data.n_samples() {
                let x = data.sample(i);
                let fresh = qs
                    .votes_with_scratch(x, compare, &mut qs.scratch())
                    .to_vec();
                assert_eq!(
                    qs.votes_with_scratch(x, compare, &mut scratch),
                    fresh,
                    "sample {i} ({compare:?})"
                );
            }
        }
    }

    #[test]
    fn boundary_inputs_agree_with_reference() {
        let tree = example_tree();
        let qs = QsTree::build(&tree);
        let mut scratch = LeafBitset::all_set(qs.n_leaves());
        let specials = [
            0.0f32,
            -0.0,
            0.5,
            -1.25,
            f32::MAX,
            f32::MIN,
            1e-40,
            -1e-40,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        for &a in &specials {
            for &b in &specials {
                let input = [a, b];
                let want = tree.predict(&input);
                assert_eq!(
                    qs.score(&input, QsCompare::Float, &mut scratch),
                    want,
                    "float ({a:e}, {b:e})"
                );
                assert_eq!(
                    qs.score(&input, QsCompare::Flint, &mut scratch),
                    want,
                    "flint ({a:e}, {b:e})"
                );
            }
        }
    }
}
