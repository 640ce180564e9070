//! The paper's central correctness claim, tested at forest scale:
//! replacing float comparisons with FLInt integer comparisons (and
//! re-laying out nodes with CAGS) changes **no prediction**, on any
//! input, including adversarial bit patterns.

use flint_data::synth::SynthSpec;
use flint_data::uci::{Scale, UciDataset};
use flint_exec::{BackendKind, CompiledForest, EngineBuilder, EngineKind};
use flint_forest::{ForestConfig, RandomForest};
use proptest::prelude::*;

#[test]
fn paper_backends_agree_on_all_uci_datasets() {
    // The paper's Fig. 3 configurations plus the softfloat baseline,
    // selected from the engine registry (the full-registry sweep,
    // including blocked/QuickScorer/VM engines, lives in
    // `tests/engine_equivalence.rs`).
    for ds in UciDataset::ALL {
        let data = ds.generate(Scale::Tiny);
        let forest = RandomForest::fit(&data, &ForestConfig::grid(5, 10)).expect("trainable");
        let builder = EngineBuilder::new(&forest).profile_data(&data);
        let reference = forest.predict_dataset_majority(&data);
        for kind in EngineKind::PAPER_SET
            .into_iter()
            .chain([EngineKind::Scalar(BackendKind::SoftFloat)])
        {
            let engine = builder.build(kind).expect("builds");
            assert_eq!(
                engine.predict_dataset(&data),
                reference,
                "{} diverges on {}",
                engine.name(),
                ds.name()
            );
        }
    }
}

#[test]
fn accuracy_is_bit_identical_across_backends() {
    use flint_forest::metrics::accuracy;
    let data = UciDataset::Magic.generate(Scale::Tiny);
    let split = flint_data::train_test_split(&data, 0.25, 0);
    let forest = RandomForest::fit(&split.train, &ForestConfig::grid(10, 15)).expect("trainable");
    let builder = EngineBuilder::new(&forest).profile_data(&split.train);
    let mut accs = Vec::new();
    for kind in EngineKind::PAPER_SET {
        let engine = builder.build(kind).expect("builds");
        let preds = engine.predict_dataset(&split.test);
        accs.push(accuracy(&preds, split.test.labels()));
    }
    assert!(accs.windows(2).all(|w| w[0] == w[1]), "accuracies {accs:?}");
}

/// Feature vectors drawn over raw bit patterns (excluding NaN): zeros of
/// both signs, denormals and infinities all appear.
fn bit_level_features(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(
        any::<u32>()
            .prop_map(f32::from_bits)
            .prop_filter("NaN", |v| !v.is_nan()),
        n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn backends_agree_on_adversarial_bit_patterns(
        seed in 0u64..32,
        features in bit_level_features(4),
    ) {
        let data = SynthSpec::new(120, 4, 3)
            .negative_fraction(0.6)
            .seed(seed)
            .generate();
        let forest = RandomForest::fit(&data, &ForestConfig::grid(4, 12)).expect("trainable");
        let naive = CompiledForest::compile(&forest, BackendKind::Naive, None).expect("compilable");
        let flint = CompiledForest::compile(&forest, BackendKind::Flint, None).expect("compilable");
        let cags_flint =
            CompiledForest::compile(&forest, BackendKind::CagsFlint, Some(&data)).expect("compilable");
        let want = naive.predict(&features);
        prop_assert_eq!(flint.predict(&features), want);
        prop_assert_eq!(cags_flint.predict(&features), want);
    }

    #[test]
    fn per_tree_decisions_agree_with_arena_reference(
        seed in 0u64..16,
        features in bit_level_features(3),
    ) {
        use flint_exec::{FloatTree, IntTree};
        use flint_layout::{LayoutStrategy, TreeLayout, TreeProfile};
        let data = SynthSpec::new(90, 3, 2).seed(seed).generate();
        let forest = RandomForest::fit(&data, &ForestConfig::grid(1, 10)).expect("trainable");
        let tree = &forest.trees()[0];
        let profile = TreeProfile::collect(tree, &data);
        for strategy in [
            LayoutStrategy::ArenaOrder,
            LayoutStrategy::BreadthFirst,
            LayoutStrategy::HotPathDfs,
            LayoutStrategy::Cags { block_nodes: 4 },
        ] {
            let layout = TreeLayout::compute(tree, &profile, strategy);
            let ft = FloatTree::compile(tree, &layout);
            let it = IntTree::compile(tree, &layout).expect("compilable");
            let want = tree.predict(&features);
            prop_assert_eq!(ft.predict(&features), want);
            prop_assert_eq!(it.predict(&features), want);
            prop_assert_eq!(ft.predict_softfloat(&features), want);
        }
    }
}
