//! The four measured forest inference configurations of the paper's
//! evaluation (Section V-A), plus the software float baseline.

use crate::compile::{self, CompileTreeError, FlatNode, FloatNode, FloatTree, IntNode, IntTree};
use flint_core::order_key;
use flint_data::Dataset;
use flint_forest::RandomForest;
use flint_layout::{LayoutStrategy, TreeLayout, TreeProfile};

/// Which comparison the compiled trees execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareMode {
    /// Native hardware float `<=` (the paper's baseline trees).
    NativeFloat,
    /// FLInt integer comparison with offline-resolved thresholds.
    Flint,
    /// Software float comparison (unpack-and-branch) — the no-FPU
    /// fallback FLInt renders unnecessary.
    SoftFloat,
}

/// One of the evaluation's backend configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Standard if-else trees with float comparisons ("Naive").
    Naive,
    /// CAGS-laid-out trees with float comparisons ("CAGS").
    Cags,
    /// Standard layout with FLInt comparisons ("FLInt").
    Flint,
    /// CAGS layout with FLInt comparisons ("CAGS (FLInt)").
    CagsFlint,
    /// Standard layout with software float comparisons (motivational
    /// baseline for FPU-less systems; not in the paper's figures).
    SoftFloat,
}

impl BackendKind {
    /// The four configurations of Fig. 3, in the paper's legend order.
    pub const PAPER_SET: [BackendKind; 4] = [
        BackendKind::Naive,
        BackendKind::Cags,
        BackendKind::Flint,
        BackendKind::CagsFlint,
    ];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Naive => "Naive",
            BackendKind::Cags => "CAGS",
            BackendKind::Flint => "FLInt",
            BackendKind::CagsFlint => "CAGS (FLInt)",
            BackendKind::SoftFloat => "SoftFloat",
        }
    }

    /// The comparison mode this configuration uses.
    pub fn compare_mode(self) -> CompareMode {
        match self {
            BackendKind::Naive | BackendKind::Cags => CompareMode::NativeFloat,
            BackendKind::Flint | BackendKind::CagsFlint => CompareMode::Flint,
            BackendKind::SoftFloat => CompareMode::SoftFloat,
        }
    }

    /// The layout strategy this configuration uses.
    pub fn layout_strategy(self) -> LayoutStrategy {
        match self {
            BackendKind::Naive | BackendKind::Flint | BackendKind::SoftFloat => {
                LayoutStrategy::ArenaOrder
            }
            BackendKind::Cags | BackendKind::CagsFlint => LayoutStrategy::Cags { block_nodes: 4 },
        }
    }
}

/// A compiled forest's nodes: every tree's flat array back to back, in
/// forest order, with child positions forest-global (a tree laid at
/// position `base` has its root there and every child index moved up by
/// `base`). The compare family picks the variant.
pub(crate) enum Nodes {
    Float(Vec<FloatNode>),
    Int(Vec<IntNode>),
    Soft(Vec<FloatNode>),
}

impl core::fmt::Debug for Nodes {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Nodes::Float(n) => write!(f, "Float({} nodes)", n.len()),
            Nodes::Int(n) => write!(f, "Int({} nodes)", n.len()),
            Nodes::Soft(n) => write!(f, "Soft({} nodes)", n.len()),
        }
    }
}

/// Appends `tree` to the forest-wide array `nodes`, child positions
/// moved to where it lands, and returns its root. The forest's node
/// count fits `u32` (checked by [`CompiledForest::compile`]).
fn lay_out<N: FlatNode>(nodes: &mut Vec<N>, tree: &[N]) -> u32 {
    let root = nodes.len() as u32;
    nodes.extend(tree.iter().map(|n| n.rebased(root)));
    root
}

/// A random forest compiled for one backend configuration.
///
/// The forest is one node array: each tree is compiled to its own flat
/// array ([`FloatTree`] / [`IntTree`]) in its layout's order, then laid
/// after the previous tree with forest-global child positions, and its
/// root recorded. Every engine over a `CompiledForest` holds this one
/// copy of the nodes: the scalar walk starts at each root in turn, the
/// blocked walk ([`crate::BatchEngine`]) and the f32 lane engines index
/// the same array from the roots.
///
/// Prediction is a majority vote over per-tree leaf classes (ties break
/// to the lower class index) — the aggregation an if-else-tree code
/// generator emits, identical across all backends so the paper's
/// "accuracy unchanged" claim is checkable prediction-for-prediction.
///
/// # Examples
///
/// ```
/// use flint_data::synth::SynthSpec;
/// use flint_exec::{BackendKind, CompiledForest};
/// use flint_forest::{ForestConfig, RandomForest};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = SynthSpec::new(150, 4, 2).cluster_std(0.4).generate();
/// let forest = RandomForest::fit(&data, &ForestConfig::grid(5, 6))?;
/// let naive = CompiledForest::compile(&forest, BackendKind::Naive, None)?;
/// let flint = CompiledForest::compile(&forest, BackendKind::Flint, None)?;
/// for i in 0..data.n_samples() {
///     assert_eq!(naive.predict(data.sample(i)), flint.predict(data.sample(i)));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CompiledForest {
    kind: BackendKind,
    nodes: Nodes,
    /// Each tree's root position in `nodes`, in forest order.
    roots: Vec<u32>,
    n_classes: usize,
    n_features: usize,
}

impl CompiledForest {
    /// Compiles `forest` for the given backend. CAGS configurations
    /// profile branch probabilities on `profile_data` (pass the
    /// training set, as the paper does); `None` falls back to uniform
    /// probabilities.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileTreeError`] from FLInt threshold
    /// preparation; [`CompileTreeError::TooManyNodes`] if the forest
    /// has more nodes than `u32` positions index.
    pub fn compile(
        forest: &RandomForest,
        kind: BackendKind,
        profile_data: Option<&Dataset>,
    ) -> Result<Self, CompileTreeError> {
        let strategy = kind.layout_strategy();
        let n_nodes = forest.n_nodes();
        if u32::try_from(n_nodes).is_err() {
            return Err(CompileTreeError::TooManyNodes {
                nodes: n_nodes,
                max: u32::MAX as usize,
            });
        }
        let mut nodes = match kind.compare_mode() {
            CompareMode::NativeFloat => Nodes::Float(Vec::with_capacity(n_nodes)),
            CompareMode::SoftFloat => Nodes::Soft(Vec::with_capacity(n_nodes)),
            CompareMode::Flint => Nodes::Int(Vec::with_capacity(n_nodes)),
        };
        let mut roots = Vec::with_capacity(forest.n_trees());
        for tree in forest.trees() {
            let profile = match profile_data {
                Some(data) => TreeProfile::collect(tree, data),
                None => TreeProfile::uniform(tree),
            };
            let layout = TreeLayout::compute(tree, &profile, strategy);
            roots.push(match &mut nodes {
                Nodes::Int(nodes) => lay_out(nodes, IntTree::compile(tree, &layout)?.nodes()),
                Nodes::Float(nodes) | Nodes::Soft(nodes) => {
                    lay_out(nodes, FloatTree::compile(tree, &layout).nodes())
                }
            });
        }
        Ok(Self {
            kind,
            nodes,
            roots,
            n_classes: forest.n_classes(),
            n_features: forest.n_features(),
        })
    }

    /// The backend configuration.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Expected feature vector length.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of compiled trees.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Number of nodes over all trees: the length of the forest-wide
    /// node array.
    pub(crate) fn n_nodes(&self) -> usize {
        match &self.nodes {
            Nodes::Float(n) | Nodes::Soft(n) => n.len(),
            Nodes::Int(n) => n.len(),
        }
    }

    /// The forest-wide node array, for the batch and lane walks.
    pub(crate) fn nodes(&self) -> &Nodes {
        &self.nodes
    }

    /// Each tree's root position in [`nodes`](Self::nodes), in forest
    /// order.
    pub(crate) fn roots(&self) -> &[u32] {
        &self.roots
    }

    /// Predicts the majority-vote class of `features`.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    pub fn predict(&self, features: &[f32]) -> u32 {
        flint_forest::metrics::majority_vote(&self.predict_votes(features))
    }

    /// The per-class vote histogram behind [`predict`](Self::predict):
    /// one vote per compiled tree, the partial a forest shard reports
    /// for distributed merge. Trees are walked one at a time, each from
    /// its root: the paper's scalar shape.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    pub fn predict_votes(&self, features: &[f32]) -> Vec<u32> {
        assert_eq!(features.len(), self.n_features, "feature vector length");
        let mut votes = vec![0u32; self.n_classes];
        let mut tally = |class: u32| votes[class as usize] += 1;
        match &self.nodes {
            Nodes::Float(nodes) => {
                for &root in &self.roots {
                    tally(compile::walk(nodes, root, |f, t| features[f] <= t));
                }
            }
            Nodes::Soft(nodes) => {
                for &root in &self.roots {
                    tally(compile::walk(nodes, root, |f, t| {
                        flint_softfloat::soft_le(features[f], t)
                    }));
                }
            }
            Nodes::Int(nodes) => {
                // Key the row once; each node is then one signed compare.
                let keys: Vec<i32> = features.iter().map(|&x| order_key(x)).collect();
                for &root in &self.roots {
                    tally(compile::walk(nodes, root, |f, key| keys[f] <= key));
                }
            }
        }
        votes
    }

    /// Batch prediction over a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset's feature count differs from the model's.
    pub fn predict_dataset(&self, data: &Dataset) -> Vec<u32> {
        (0..data.n_samples())
            .map(|i| self.predict(data.sample(i)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_data::synth::SynthSpec;
    use flint_forest::ForestConfig;

    fn setup() -> (Dataset, RandomForest) {
        let data = SynthSpec::new(250, 5, 3)
            .cluster_std(1.0)
            .negative_fraction(0.5)
            .seed(4)
            .generate();
        let forest = RandomForest::fit(&data, &ForestConfig::grid(7, 8)).expect("trainable");
        (data, forest)
    }

    #[test]
    fn all_backends_agree_on_every_sample() {
        let (data, forest) = setup();
        let backends: Vec<CompiledForest> = [
            BackendKind::Naive,
            BackendKind::Cags,
            BackendKind::Flint,
            BackendKind::CagsFlint,
            BackendKind::SoftFloat,
        ]
        .iter()
        .map(|&k| CompiledForest::compile(&forest, k, Some(&data)).expect("compilable"))
        .collect();
        let reference = backends[0].predict_dataset(&data);
        for backend in &backends[1..] {
            assert_eq!(
                backend.predict_dataset(&data),
                reference,
                "{} diverges from Naive",
                backend.kind().name()
            );
        }
    }

    #[test]
    fn backend_metadata() {
        let (data, forest) = setup();
        let b = CompiledForest::compile(&forest, BackendKind::CagsFlint, Some(&data))
            .expect("compilable");
        assert_eq!(b.kind(), BackendKind::CagsFlint);
        assert_eq!(b.n_trees(), 7);
        assert_eq!(b.n_classes(), 3);
        assert_eq!(b.n_features(), 5);
    }

    #[test]
    fn every_backend_reports_its_compare_mode() {
        for (kind, mode) in [
            (BackendKind::Naive, CompareMode::NativeFloat),
            (BackendKind::Cags, CompareMode::NativeFloat),
            (BackendKind::Flint, CompareMode::Flint),
            (BackendKind::CagsFlint, CompareMode::Flint),
            (BackendKind::SoftFloat, CompareMode::SoftFloat),
        ] {
            assert_eq!(kind.compare_mode(), mode, "{}", kind.name());
        }
    }

    #[test]
    fn paper_set_names() {
        let names: Vec<&str> = BackendKind::PAPER_SET.iter().map(|b| b.name()).collect();
        assert_eq!(names, ["Naive", "CAGS", "FLInt", "CAGS (FLInt)"]);
    }

    #[test]
    fn cags_without_profile_data_still_works() {
        let (data, forest) = setup();
        let with =
            CompiledForest::compile(&forest, BackendKind::Cags, Some(&data)).expect("compilable");
        let without =
            CompiledForest::compile(&forest, BackendKind::Cags, None).expect("compilable");
        // Layouts differ but predictions must not.
        assert_eq!(with.predict_dataset(&data), without.predict_dataset(&data));
    }

    #[test]
    fn majority_tie_breaks_to_lower_class() {
        use flint_forest::{DecisionTree, Node};
        // Two single-leaf trees voting for different classes.
        let leaf = |class: u32| {
            DecisionTree::new(
                vec![Node::Leaf {
                    class,
                    counts: vec![1, 1],
                }],
                1,
                2,
            )
            .expect("valid")
        };
        let forest = RandomForest::from_trees(vec![leaf(1), leaf(0)]);
        let b = CompiledForest::compile(&forest, BackendKind::Naive, None).expect("compilable");
        assert_eq!(b.predict(&[0.0]), 0);
    }
}
