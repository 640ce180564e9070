//! Equivalence suite for the batch engine: for every backend
//! configuration, every block size (including degenerate and
//! larger-than-dataset) and every thread count, batched predictions
//! must be **bit-identical** to the scalar one-sample-at-a-time loop.
//! The QuickScorer engine's batch path gets the same treatment for both
//! of its comparison modes.

use flint_data::synth::SynthSpec;
use flint_data::{Dataset, FeatureMatrix};
use flint_exec::batch::IN_FLIGHT;
use flint_exec::{
    BackendKind, BatchEngine, BatchOptions, CompiledForest, EngineBuilder, EngineKind, Sink,
};
use flint_forest::{DecisionTree, ForestConfig, Node, RandomForest};
use flint_qscorer::{QsCompare, QsForest};
use proptest::prelude::*;

const BLOCKS: [usize; 4] = [1, 7, 64, 10_000]; // 10_000 > every test dataset
const THREADS: [usize; 2] = [1, 4];
const BACKENDS: [BackendKind; 5] = [
    BackendKind::Naive,
    BackendKind::Cags,
    BackendKind::Flint,
    BackendKind::CagsFlint,
    BackendKind::SoftFloat,
];

/// The classes the blocked walk scores for every sample of `matrix`.
fn classes(backend: &CompiledForest, opts: BatchOptions, matrix: &FeatureMatrix) -> Vec<u32> {
    let mut out = vec![0; matrix.n_samples()];
    BatchEngine::new(backend, opts).score(matrix, Sink::Classes(&mut out));
    out
}

fn trained(seed: u64, n: usize, depth: usize) -> (Dataset, RandomForest) {
    let data = SynthSpec::new(n, 5, 3)
        .cluster_std(1.1)
        .negative_fraction(0.5)
        .seed(seed)
        .generate();
    let forest = RandomForest::fit(&data, &ForestConfig::grid(6, depth)).expect("trainable");
    (data, forest)
}

#[test]
fn batched_equals_scalar_for_every_backend() {
    let (data, forest) = trained(5, 240, 9);
    for kind in BACKENDS {
        let backend = CompiledForest::compile(&forest, kind, Some(&data)).expect("compilable");
        let want = backend.predict_dataset(&data);
        let matrix = FeatureMatrix::from_dataset(&data);
        for block in BLOCKS {
            for threads in THREADS {
                let opts = BatchOptions::default()
                    .block_samples(block)
                    .threads(threads);
                assert_eq!(
                    classes(&backend, opts, &matrix),
                    want,
                    "{} block {block} threads {threads}",
                    kind.name()
                );
            }
        }
    }
}

/// `n_trees` depth-3 trees over `data`, every fourth of them (from the
/// fourth) a single leaf: such a walk votes in its first round.
fn shallow_forest(data: &Dataset, n_trees: usize) -> RandomForest {
    let trained = RandomForest::fit(data, &ForestConfig::grid(n_trees, 3)).expect("trainable");
    let trees = trained
        .trees()
        .iter()
        .enumerate()
        .map(|(i, tree)| {
            if i % 4 == 3 {
                let leaf = Node::Leaf {
                    class: (i % data.n_classes()) as u32,
                    counts: vec![1; data.n_classes()],
                };
                DecisionTree::new(vec![leaf], data.n_features(), data.n_classes()).expect("valid")
            } else {
                tree.clone()
            }
        })
        .collect();
    RandomForest::from_trees(trees)
}

/// A block of `b` rows walks groups of `IN_FLIGHT.div_ceil(b)` trees, so
/// forests around and past one group's size, at fills of one to three
/// rows and around a full block, cross every tree-group boundary: each
/// tree must vote exactly once per row.
#[test]
fn tree_group_boundaries_keep_one_vote_per_tree() {
    assert_eq!(
        IN_FLIGHT, 64,
        "the forest sizes below straddle 64-walk groups"
    );
    let (data, _) = trained(29, 120, 3);
    let matrix = FeatureMatrix::from_dataset(&data);
    for n_trees in [1, 63, 64, 65, 130] {
        let forest = shallow_forest(&data, n_trees);
        let builder = EngineBuilder::new(&forest).profile_data(&data);
        for kind in BACKENDS {
            let backend = CompiledForest::compile(&forest, kind, Some(&data)).expect("compilable");
            let want = backend.predict_dataset(&data);
            for block in [1, 2, 3, 63, 64, 65] {
                let opts = BatchOptions::default().block_samples(block);
                assert_eq!(
                    classes(&backend, opts, &matrix),
                    want,
                    "{} trees, {} block {block}",
                    n_trees,
                    kind.name()
                );
            }
            let blocked = builder.build(EngineKind::Blocked(kind)).expect("builds");
            for i in 0..data.n_samples() {
                assert_eq!(
                    blocked.predict_votes(data.sample(i)),
                    forest.predict_votes(data.sample(i)),
                    "{} trees, {} votes of row {i}",
                    n_trees,
                    blocked.name()
                );
            }
        }
    }
}

#[test]
fn quickscorer_batch_equals_single_for_both_modes() {
    let (data, forest) = trained(23, 180, 8);
    let qs = QsForest::build(&forest);
    let matrix = FeatureMatrix::from_dataset(&data);
    for compare in [QsCompare::Float, QsCompare::Flint] {
        let engine = EngineBuilder::new(&forest)
            .build(EngineKind::QuickScorer(compare))
            .expect("builds");
        for threads in THREADS {
            let opts = BatchOptions::default().block_samples(7).threads(threads);
            let batch = engine.predict_batch(&matrix, &opts);
            for (i, &label) in batch.iter().enumerate() {
                assert_eq!(
                    label,
                    qs.predict(data.sample(i), compare),
                    "sample {i} ({compare:?}, threads {threads})"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any forest, any dataset, any options in the practical envelope:
    /// the batch engine is indistinguishable from the scalar loop.
    #[test]
    fn batched_equals_scalar_under_random_options(
        seed in 0u64..64,
        depth in 1usize..9,
        block in 1usize..300,
        threads in 1usize..6,
    ) {
        let (data, forest) = trained(seed, 120, depth);
        let backend = CompiledForest::compile(&forest, BackendKind::CagsFlint, Some(&data))
            .expect("compilable");
        let opts = BatchOptions {
            block_samples: block,
            threads,
        };
        prop_assert_eq!(
            classes(&backend, opts, &FeatureMatrix::from_dataset(&data)),
            backend.predict_dataset(&data)
        );
    }
}
