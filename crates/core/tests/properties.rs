//! Property-based validation of the FLInt operators against the host's
//! IEEE-754 hardware semantics, over the full non-NaN bit space.

use flint_core::compare::{ge_bits, ge_bits_cases, ge_bits_sign_flip};
use flint_core::{flint_eq, flint_ge, flint_gt, flint_le, flint_lt};
use flint_core::{order_key, FlintOrd, FloatBits, PreparedThreshold};
use proptest::prelude::*;

/// Arbitrary non-NaN f32 drawn uniformly over *bit patterns*, so
/// denormals, both zeros and infinities appear with realistic density.
fn non_nan_f32() -> impl Strategy<Value = f32> {
    any::<u32>()
        .prop_map(f32::from_bits)
        .prop_filter("NaN", |v| !v.is_nan())
}

fn non_nan_f64() -> impl Strategy<Value = f64> {
    any::<u64>()
        .prop_map(f64::from_bits)
        .prop_filter("NaN", |v| !v.is_nan())
}

/// The paper's order: IEEE `>=` except that `-0.0 < +0.0`.
fn paper_ge<F: FloatBits + PartialOrd>(x: F, y: F) -> bool {
    if x == y {
        // equal by IEEE; break ties by sign bit (only ±0 pairs differ)
        !x.sign_bit() || y.sign_bit()
    } else {
        x >= y
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn theorem1_equals_paper_order_f32(x in non_nan_f32(), y in non_nan_f32()) {
        prop_assert_eq!(flint_ge(x, y), paper_ge(x, y));
    }

    #[test]
    fn theorem1_equals_paper_order_f64(x in non_nan_f64(), y in non_nan_f64()) {
        prop_assert_eq!(flint_ge(x, y), paper_ge(x, y));
    }

    #[test]
    fn formulations_agree_f32(x in non_nan_f32(), y in non_nan_f32()) {
        let (xb, yb) = (x.to_signed_bits(), y.to_signed_bits());
        let t1 = ge_bits::<f32>(xb, yb);
        prop_assert_eq!(t1, ge_bits_cases::<f32>(xb, yb));
        prop_assert_eq!(t1, ge_bits_sign_flip::<f32>(xb, yb));
    }

    #[test]
    fn formulations_agree_f64(x in non_nan_f64(), y in non_nan_f64()) {
        let (xb, yb) = (x.to_signed_bits(), y.to_signed_bits());
        let t1 = ge_bits::<f64>(xb, yb);
        prop_assert_eq!(t1, ge_bits_cases::<f64>(xb, yb));
        prop_assert_eq!(t1, ge_bits_sign_flip::<f64>(xb, yb));
    }

    #[test]
    fn relations_are_a_total_order_f32(x in non_nan_f32(), y in non_nan_f32(), z in non_nan_f32()) {
        // antisymmetry + totality
        prop_assert!(flint_ge(x, y) || flint_ge(y, x));
        if flint_ge(x, y) && flint_ge(y, x) {
            prop_assert!(flint_eq(x, y));
        }
        // transitivity
        if flint_ge(x, y) && flint_ge(y, z) {
            prop_assert!(flint_ge(x, z));
        }
        // trichotomy
        let ways = u8::from(flint_lt(x, y)) + u8::from(flint_eq(x, y)) + u8::from(flint_gt(x, y));
        prop_assert_eq!(ways, 1);
        // duality
        prop_assert_eq!(flint_le(x, y), flint_ge(y, x));
    }

    #[test]
    fn lemma1_equality_is_bit_equality(x in non_nan_f32(), y in non_nan_f32()) {
        prop_assert_eq!(flint_eq(x, y), x.to_bits() == y.to_bits());
    }

    /// The headline guarantee of Section IV-B: after preparation the
    /// integer-only node test equals the naive IEEE `<=` for every
    /// split/feature pair.
    #[test]
    fn prepared_threshold_equals_ieee_le_f32(split in non_nan_f32(), x in non_nan_f32()) {
        let t = PreparedThreshold::new(split).expect("non-NaN split");
        prop_assert_eq!(t.le(x), x <= split);
        prop_assert_eq!(t.gt(x), x > split);
    }

    #[test]
    fn prepared_threshold_equals_ieee_le_f64(split in non_nan_f64(), x in non_nan_f64()) {
        let t = PreparedThreshold::new(split).expect("non-NaN split");
        prop_assert_eq!(t.le(x), x <= split);
    }

    /// Negative splits must flip; positive splits must not; the stored
    /// immediate must always have a clear sign bit after folding.
    #[test]
    fn threshold_key_always_nonnegative(split in non_nan_f32()) {
        let t = PreparedThreshold::new(split).expect("non-NaN split");
        prop_assert!(t.key() >= 0, "folded immediate must be a positive pattern");
        if split.is_sign_negative() && split != 0.0 {
            prop_assert!(t.flips_sign());
        } else {
            prop_assert!(!t.flips_sign());
        }
    }

    /// The keyed compare of the data-driven FLInt walks decides exactly
    /// as Theorem 2's `le_bits` for arbitrary feature bit patterns, NaN
    /// kept (a quarter of the draws are forced to NaN patterns of either
    /// sign), and the node key is the split's own order key.
    #[test]
    fn keyed_compare_equals_le_bits_f32(
        bits in any::<u32>(),
        force_nan in 0u32..4,
        split in non_nan_f32(),
    ) {
        let bits = if force_nan == 0 {
            (bits & 0x8000_0000) | 0x7f80_0000 | (bits & 0x007f_ffff).max(1)
        } else {
            bits
        };
        let x = f32::from_bits(bits);
        let t = PreparedThreshold::new(split).expect("non-NaN split");
        prop_assert_eq!(order_key(x) <= t.order_key(), t.le_bits(x.to_signed_bits()));
        prop_assert_eq!(t.order_key(), order_key(t.split_value()));
        if x.is_nan() {
            // Positive NaN goes right, negative NaN goes left.
            prop_assert_eq!(t.le(x), x.is_sign_negative());
        }
    }

    #[test]
    fn flint_ord_matches_total_cmp(x in non_nan_f32(), y in non_nan_f32()) {
        let cmp = FlintOrd::new(x).cmp(&FlintOrd::new(y));
        prop_assert_eq!(cmp, x.total_cmp(&y));
    }

    #[test]
    fn flint_ord_key_monotone(x in non_nan_f32(), y in non_nan_f32()) {
        let (kx, ky) = (FlintOrd::new(x).order_key(), FlintOrd::new(y).order_key());
        prop_assert_eq!(kx < ky, FlintOrd::new(x) < FlintOrd::new(y));
    }

    #[test]
    fn sorting_with_flint_matches_total_cmp(mut xs in proptest::collection::vec(non_nan_f32(), 0..64)) {
        let mut wrapped: Vec<FlintOrd<f32>> = xs.iter().map(|&v| FlintOrd::new(v)).collect();
        wrapped.sort();
        xs.sort_by(|a, b| a.total_cmp(b));
        let got: Vec<u32> = wrapped.iter().map(|w| w.value().to_bits()).collect();
        let want: Vec<u32> = xs.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want);
    }
}
