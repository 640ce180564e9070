//! Equivalence suite for the batch engine: for every backend
//! configuration, every block size (including degenerate and
//! larger-than-dataset) and every thread count, batched predictions
//! must be **bit-identical** to the scalar one-sample-at-a-time loop.
//! The QuickScorer batch path gets the same treatment for both of its
//! comparison modes.

use flint_data::synth::SynthSpec;
use flint_data::{Dataset, FeatureMatrix};
use flint_exec::{BackendKind, BatchEngine, BatchOptions, CompiledForest};
use flint_forest::{ForestConfig, RandomForest};
use flint_qscorer::{QsCompare, QsForest};
use proptest::prelude::*;

const BLOCKS: [usize; 4] = [1, 7, 64, 10_000]; // 10_000 > every test dataset
const THREADS: [usize; 2] = [1, 4];

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
    for kind in [
        BackendKind::Naive,
        BackendKind::Cags,
        BackendKind::Flint,
        BackendKind::CagsFlint,
        BackendKind::SoftFloat,
    ] {
        let backend = CompiledForest::compile(&forest, kind, Some(&data)).expect("compilable");
        let want = backend.predict_dataset(&data);
        let matrix = FeatureMatrix::from_dataset(&data);
        for block in BLOCKS {
            for threads in THREADS {
                let opts = BatchOptions::default()
                    .block_samples(block)
                    .threads(threads);
                assert_eq!(
                    BatchEngine::new(&backend, opts).predict(&matrix),
                    want,
                    "{} block {block} threads {threads}",
                    kind.name()
                );
                assert_eq!(
                    backend.predict_dataset_batched(&data, opts),
                    want,
                    "{} wrapper block {block} threads {threads}",
                    kind.name()
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
        let batch = qs.predict_batch(&matrix, compare);
        let rows = qs.predict_rows((0..data.n_samples()).map(|i| data.sample(i)), compare);
        for (i, &label) in batch.iter().enumerate() {
            assert_eq!(
                label,
                qs.predict(data.sample(i), compare),
                "sample {i} ({compare:?})"
            );
        }
        assert_eq!(batch, rows, "({compare:?})");
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
            backend.predict_dataset_batched(&data, opts),
            backend.predict_dataset(&data)
        );
    }
}
