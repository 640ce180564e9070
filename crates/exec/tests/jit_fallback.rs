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

/// With compilation forced to fail, the engine is built on the
/// fallback tier, says so — and why — before it scores a row, and every
/// answer is bit-identical to the forest's majority vote.
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
        // The knob is checked after the platform gate, so a build that
        // cannot run emitted code names the platform instead.
        let reason = if jit_supported() {
            FORCE_FALLBACK_ENV
        } else {
            "this platform cannot run emitted code"
        };
        assert!(
            engine.describe().contains("fallback tier: interpreter (")
                && engine.describe().contains(reason),
            "{} should report the fallback tier and {reason} once built: {}",
            engine.name(),
            engine.describe()
        );
        assert_eq!(
            engine.predict_matrix(&matrix),
            reference,
            "{}",
            engine.name()
        );
        for i in (0..data.n_samples()).step_by(11) {
            assert_eq!(
                engine.predict_votes(data.sample(i)),
                forest.predict_votes(data.sample(i)),
                "{} sample {i}",
                engine.name()
            );
        }
    }
    assert_eq!(
        TieredJit::new(&forest, JitCompare::Flint).tier(),
        JitTier::Fallback
    );
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
