//! Structured exhaustive-ish sweep: every f32 exponent value crossed
//! with extreme mantissas and both signs — ~2.3 million ordered pairs
//! covering all normal/denormal/zero/infinity boundaries, validated
//! against the paper's order.

use flint_core::half::Half;
use flint_core::{flint_eq, flint_ge, order_key, FloatBits, PreparedThreshold};

/// All exponent fields 0..=254 (255 = NaN/inf band handled separately)
/// with mantissa in {0, 1, max} and both signs, plus infinities.
fn boundary_values() -> Vec<f32> {
    let mut values = Vec::with_capacity(255 * 3 * 2 + 2);
    for exp in 0u32..=254 {
        for man in [0u32, 1, 0x007f_ffff] {
            let bits = (exp << 23) | man;
            values.push(f32::from_bits(bits));
            values.push(f32::from_bits(bits | 0x8000_0000));
        }
    }
    values.push(f32::INFINITY);
    values.push(f32::NEG_INFINITY);
    values
}

/// The paper's order on non-NaN floats.
fn paper_ge(x: f32, y: f32) -> bool {
    if x == y && x == 0.0 {
        !(x.is_sign_negative() && y.is_sign_positive())
    } else {
        x >= y
    }
}

#[test]
fn flint_ge_on_all_boundary_pairs() {
    let values = boundary_values();
    for &x in &values {
        for &y in &values {
            assert_eq!(
                flint_ge(x, y),
                paper_ge(x, y),
                "ge({x:e} [{:#010x}], {y:e} [{:#010x}])",
                x.to_bits(),
                y.to_bits()
            );
        }
    }
}

#[test]
fn flint_eq_on_all_boundary_pairs() {
    let values = boundary_values();
    for &x in &values {
        for &y in &values {
            assert_eq!(flint_eq(x, y), x.to_bits() == y.to_bits());
        }
    }
}

#[test]
fn prepared_thresholds_on_all_boundary_pairs() {
    // The full IEEE-agreement guarantee over the boundary lattice.
    let values = boundary_values();
    for &split in &values {
        let t = PreparedThreshold::new(split).expect("non-NaN");
        for &x in &values {
            assert_eq!(
                t.le(x),
                x <= split,
                "le({x:e}) vs split {split:e} [{:#010x}]",
                split.to_bits()
            );
        }
    }
}

/// The keyed compare of the binary16 FLInt walks against Theorem 2's
/// `le_bits`: every feature pattern (NaN included) against every 64th
/// threshold pattern plus the format's boundaries — ±0, ±min and ±max
/// subnormal, ±min normal, ±max, ±inf.
#[test]
fn binary16_keyed_compare_equals_le_bits_for_every_feature_pattern() {
    let boundaries = [
        0x0000u16, 0x8000, 0x0001, 0x8001, 0x03ff, 0x83ff, 0x0400, 0x8400, 0x7bff, 0xfbff, 0x7c00,
        0xfc00,
    ];
    let thresholds = (0..=u16::MAX)
        .step_by(64)
        .chain(boundaries)
        .map(Half::from_bits)
        .filter(|t| !t.is_nan_value());
    for t in thresholds {
        let prepared = PreparedThreshold::new(t).expect("non-NaN split");
        let node_key = prepared.order_key();
        assert_eq!(
            node_key,
            order_key(prepared.split_value()),
            "t={:#06x}",
            t.to_bits()
        );
        if prepared.flips_sign() {
            assert_eq!(node_key, !prepared.key(), "t={:#06x}", t.to_bits());
        }
        for xb in 0..=u16::MAX {
            let x = Half::from_bits(xb);
            assert_eq!(
                order_key(x) <= node_key,
                prepared.le_bits(x.to_signed_bits()),
                "x={xb:#06x} t={:#06x}",
                t.to_bits()
            );
        }
    }
}
