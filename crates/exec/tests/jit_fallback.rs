//! Fallback-path suite for the template JIT: whatever prevents emitted
//! code from running — a target other than x86-64 Linux, or the
//! executable mapping failing at runtime — the `jit`/`jit-float`
//! engines must still build and answer **bit-identically** through the
//! interpreter fallback tier, and say so through `describe()`.
//!
//! The runtime-failure leg is driven by the [`FORCE_FALLBACK_ENV`]
//! knob, which makes the W^X `mmap` allocation report failure. Setting
//! process environment races sibling tests, so this file is its own
//! test binary: every test here runs with the knob set, and no other
//! suite shares the process.

use flint_data::{synth::SynthSpec, FeatureMatrix};
use flint_exec::{
    jit_supported, EngineBuilder, EngineKind, JitCompare, JitForest, JitTier, TieredJit,
    FORCE_FALLBACK_ENV,
};
use flint_forest::{ForestConfig, RandomForest};

fn force_fallback() {
    // Safe in edition 2021; confined to this single-binary suite.
    std::env::set_var(FORCE_FALLBACK_ENV, "1");
}

fn model() -> (flint_data::Dataset, RandomForest) {
    let data = SynthSpec::new(220, 4, 3)
        .negative_fraction(0.5)
        .seed(17)
        .generate();
    let forest = RandomForest::fit(&data, &ForestConfig::grid(5, 8)).expect("trainable");
    (data, forest)
}

/// With compilation forced to fail, a hot engine lands on the fallback
/// tier — and every answer it ever gave is bit-identical to the
/// forest's majority vote.
#[test]
fn forced_fallback_serves_bit_identically_and_reports_its_tier() {
    force_fallback();
    let (data, forest) = model();
    let matrix = FeatureMatrix::from_dataset(&data);
    let reference = forest.predict_dataset_majority(&data);
    let builder = EngineBuilder::new(&forest).profile_data(&data);
    for kind in [
        EngineKind::Jit(JitCompare::Flint),
        EngineKind::Jit(JitCompare::Float),
    ] {
        let engine = builder
            .build(kind)
            .expect("builds even when the JIT cannot");
        assert!(
            engine.describe().contains("cold tier"),
            "{}: {}",
            engine.name(),
            engine.describe()
        );
        // 220 samples cross the default hot threshold mid-batch, so the
        // compile attempt fires — and fails — inside this call.
        assert_eq!(
            engine.predict_matrix(&matrix),
            reference,
            "{}",
            engine.name()
        );
        assert!(
            engine
                .describe()
                .contains("fallback tier: interpreter (JIT unavailable)"),
            "{} should report the fallback tier after a failed compile: {}",
            engine.name(),
            engine.describe()
        );
        // Still bit-identical once permanently on the fallback tier.
        assert_eq!(
            engine.predict_matrix(&matrix),
            reference,
            "{}",
            engine.name()
        );
    }
}

/// The tier state machine under forced failure: cold below the hot
/// threshold, a single (failed) compile attempt at the threshold, then
/// permanent fallback.
#[test]
fn forced_fallback_tier_transition_is_cold_then_fallback() {
    force_fallback();
    let (data, forest) = model();
    let tiered = TieredJit::with_hot_after(&forest, JitCompare::Flint, 3);
    assert_eq!(tiered.tier(), JitTier::Cold);
    for i in 0..8 {
        let class = tiered.predict(data.sample(i));
        assert_eq!(class, forest.predict_majority(data.sample(i)), "sample {i}");
        let expected = if i < 3 {
            JitTier::Cold
        } else {
            JitTier::Fallback
        };
        assert_eq!(tiered.tier(), expected, "after sample {i}");
    }
    assert_eq!(tiered.scored(), 8);
}

/// Direct `JitForest` compilation honours the knob (on supported
/// builds) or the platform gate (everywhere else) — either way, no
/// executable mapping is created.
#[test]
fn forced_fallback_refuses_direct_compilation() {
    force_fallback();
    let (_, forest) = model();
    let err = JitForest::compile(&forest, JitCompare::Flint).unwrap_err();
    if jit_supported() {
        assert_eq!(err, flint_exec::JitError::ForcedFallback);
    } else {
        assert_eq!(err, flint_exec::JitError::UnsupportedPlatform);
    }
}

/// `jit_supported()` is a build-time fact and must match the target
/// this test binary was compiled with: every x86-64 Linux build can
/// run emitted code.
#[test]
fn jit_supported_reflects_the_build() {
    let expected = cfg!(all(target_arch = "x86_64", target_os = "linux"));
    assert_eq!(jit_supported(), expected);
}
