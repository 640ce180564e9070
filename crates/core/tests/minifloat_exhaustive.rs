//! Exhaustive verification of the paper's lemmas on a miniature float
//! format, independent of the host's floating point hardware.
//!
//! The paper defines its format generically for a k-bit vector with a
//! j-bit exponent and x-bit mantissa (Definition 3); IEEE-754 single and
//! double precision are instances. We instantiate a *tiny* instance —
//! k = 8, j = 4, x = 3 — decode `FP(B)` from first principles as exact
//! rationals (here: f64, which represents every mini-float value
//! exactly), and check **every lemma, the corollary and both theorems
//! over all 2^8 × 2^8 = 65 536 bit-vector pairs**. This is as close to
//! mechanizing the paper's proofs as a test suite gets.

/// Mini float: 1 sign bit, 4 exponent bits (bias 7), 3 mantissa bits.
const EXP_BITS: u32 = 4;
const MAN_BITS: u32 = 3;
const BIAS: i32 = (1 << (EXP_BITS - 1)) - 1; // 7

/// `SI(B)` for the 8-bit vector (two's complement, Definition 2).
fn si(b: u8) -> i8 {
    b as i8
}

/// `FP(B)` per Definition 3 with the denormal extension. Returns None
/// for NaN patterns (exponent all ones, mantissa non-zero), which the
/// paper excludes; infinities decode to +/- infinity as the "largest
/// representable" stand-ins the paper describes.
fn fp(b: u8) -> Option<f64> {
    let sign = if b & 0x80 != 0 { -1.0 } else { 1.0 };
    let exp = u32::from((b >> MAN_BITS) & 0x0f);
    let man = u32::from(b & 0x07);
    if exp == (1 << EXP_BITS) - 1 {
        return if man == 0 {
            Some(sign * f64::INFINITY)
        } else {
            None // NaN: excluded from the ordering lemmas
        };
    }
    let (unbiased, implicit) = if exp == 0 {
        (1 - BIAS, 0.0)
    } else {
        (exp as i32 - BIAS, 1.0)
    };
    let mantissa = implicit + man as f64 / (1u32 << MAN_BITS) as f64;
    Some(sign * mantissa * 2f64.powi(unbiased))
}

/// The paper's float order on decoded values: ordinary numeric order,
/// refined so that the -0.0 pattern sorts strictly below +0.0
/// (Section III-A: "we assume -0.0 < 0.0").
fn paper_ge(xb: u8, yb: u8, x: f64, y: f64) -> bool {
    if x == y && x == 0.0 {
        // ±0 pair: order by sign bit.
        !(xb & 0x80 != 0 && yb & 0x80 == 0)
    } else {
        x >= y
    }
}

/// Theorem 1 transcribed for the 8-bit instance.
fn flint_ge8(xb: u8, yb: u8) -> bool {
    let (x, y) = (si(xb), si(yb));
    (x >= y) ^ (x < 0 && y < 0 && x != y)
}

/// Corollary 1 transcribed for the 8-bit instance.
fn corollary1_ge8(xb: u8, yb: u8) -> bool {
    let (x, y) = (si(xb), si(yb));
    if x < 0 && y < 0 && x != y {
        x < y
    } else {
        x >= y
    }
}

/// Theorem 2 transcribed for the 8-bit instance (sign flip via XOR).
fn theorem2_ge8(xb: u8, yb: u8) -> bool {
    let (x, y) = (si(xb), si(yb));
    if x < 0 {
        si(yb ^ 0x80) >= si(xb ^ 0x80)
    } else {
        x >= y
    }
}

/// The FLInt order key for the 8-bit instance: `s ^ ((s >> 7) & i8::MAX)`
/// with an arithmetic shift, the bit-level map of
/// `flint_core::order_key`.
fn key8(b: u8) -> i8 {
    let s = si(b);
    s ^ ((s >> 7) & i8::MAX)
}

fn all_non_nan() -> Vec<u8> {
    (0u8..=255).filter(|&b| fp(b).is_some()).collect()
}

#[test]
fn lemma1_equality_iff_bit_equality() {
    // FP(X) = FP(Y) <=> X = Y <=> SI(X) = SI(Y), with the paper's
    // -0 != +0 convention making FP injective.
    for &xb in &all_non_nan() {
        for &yb in &all_non_nan() {
            let (x, y) = (fp(xb).unwrap(), fp(yb).unwrap());
            let fp_equal = x == y && (x != 0.0 || (xb & 0x80) == (yb & 0x80));
            assert_eq!(fp_equal, xb == yb, "xb={xb:#04x} yb={yb:#04x}");
            assert_eq!(xb == yb, si(xb) == si(yb));
        }
    }
}

#[test]
fn lemma2_absolute_value_monotone_same_sign() {
    for &xb in &all_non_nan() {
        for &yb in &all_non_nan() {
            if (xb & 0x80) != (yb & 0x80) {
                continue;
            }
            let (ax, ay) = (fp(xb).unwrap().abs(), fp(yb).unwrap().abs());
            // |FP(X)| > |FP(Y)| <=> SI(X) > SI(Y) ... for negative sign
            // the SI order runs with |value|, for positive likewise.
            if xb & 0x80 == 0 {
                assert_eq!(ax > ay, si(xb) > si(yb), "pos xb={xb:#04x} yb={yb:#04x}");
            } else {
                // both negative: SI grows with magnitude too (more bits
                // set below the sign bit = larger magnitude = larger UI
                // = larger SI within the negative range).
                assert_eq!(ax > ay, si(xb) > si(yb), "neg xb={xb:#04x} yb={yb:#04x}");
            }
        }
    }
}

#[test]
fn lemma3_positive_pairs_order_preserving() {
    for &xb in &all_non_nan() {
        for &yb in &all_non_nan() {
            if xb & 0x80 != 0 || yb & 0x80 != 0 {
                continue;
            }
            let (x, y) = (fp(xb).unwrap(), fp(yb).unwrap());
            assert_eq!(x > y, si(xb) > si(yb), "xb={xb:#04x} yb={yb:#04x}");
        }
    }
}

#[test]
fn lemma4_and_6_negative_pairs_order_inverting() {
    for &xb in &all_non_nan() {
        for &yb in &all_non_nan() {
            if xb & 0x80 == 0 || yb & 0x80 == 0 {
                continue;
            }
            let (x, y) = (fp(xb).unwrap(), fp(yb).unwrap());
            // Lemma 6 strict form, using the paper's order (bit-level
            // for the -0 pattern).
            let gt = paper_ge(xb, yb, x, y) && xb != yb;
            assert_eq!(gt, si(xb) < si(yb), "xb={xb:#04x} yb={yb:#04x}");
        }
    }
}

#[test]
fn lemma5_mixed_signs() {
    for &xb in &all_non_nan() {
        for &yb in &all_non_nan() {
            if (xb & 0x80) == (yb & 0x80) {
                continue;
            }
            let (x, y) = (fp(xb).unwrap(), fp(yb).unwrap());
            let gt = paper_ge(xb, yb, x, y) && xb != yb;
            assert_eq!(gt, si(xb) > si(yb), "xb={xb:#04x} yb={yb:#04x}");
        }
    }
}

#[test]
fn corollary1_theorem1_theorem2_exhaustive() {
    for &xb in &all_non_nan() {
        for &yb in &all_non_nan() {
            let (x, y) = (fp(xb).unwrap(), fp(yb).unwrap());
            let want = paper_ge(xb, yb, x, y);
            assert_eq!(flint_ge8(xb, yb), want, "T1 xb={xb:#04x} yb={yb:#04x}");
            assert_eq!(corollary1_ge8(xb, yb), want, "C1 xb={xb:#04x} yb={yb:#04x}");
            assert_eq!(theorem2_ge8(xb, yb), want, "T2 xb={xb:#04x} yb={yb:#04x}");
        }
    }
}

#[test]
fn keyed_compare_equals_theorem2_on_every_pattern_nan_included() {
    // A data-driven FLInt walk decides `x <= t` as key(x) <= key(t).
    // Theorem 2's decision for the same test is `t >= x` with the sign
    // flip folded for negative `t`. Both are bit-level maps, so they
    // must agree on all 65 536 pairs, NaN patterns included.
    for xb in 0u8..=255 {
        for tb in 0u8..=255 {
            assert_eq!(
                key8(xb) <= key8(tb),
                theorem2_ge8(tb, xb),
                "xb={xb:#04x} tb={tb:#04x}"
            );
        }
    }
    for tb in 0u8..=255 {
        // Node-key identity: a negative split stores the inverted
        // Listing 4 immediate, `!SI(-t)`.
        if si(tb) < 0 {
            assert_eq!(key8(tb), !si(tb ^ 0x80), "tb={tb:#04x}");
        } else {
            assert_eq!(key8(tb), si(tb), "tb={tb:#04x}");
        }
    }
    // NaN routing against every non-NaN split: positive NaN patterns go
    // right, negative ones go left.
    for &tb in &all_non_nan() {
        for xb in (0u8..=255).filter(|&b| fp(b).is_none()) {
            assert_eq!(
                key8(xb) <= key8(tb),
                xb & 0x80 != 0,
                "xb={xb:#04x} tb={tb:#04x}"
            );
        }
    }
}

#[test]
fn mini_format_sanity() {
    assert_eq!(fp(0x00), Some(0.0));
    assert_eq!(fp(0x80), Some(-0.0)); // -0.0 == 0.0 numerically
    assert!(fp(0x80).unwrap().is_sign_negative());
    assert_eq!(fp(0x38), Some(1.0)); // exp=7 (unbiased 0), man=0
    assert_eq!(fp(0x78), Some(f64::INFINITY));
    assert_eq!(fp(0xf8), Some(f64::NEG_INFINITY));
    assert_eq!(fp(0x79), None); // NaN
    assert_eq!(fp(0x01), Some(2f64.powi(-9))); // smallest denormal: 2^-6 * 1/8
}
