//! Software floating point comparison — the routine FLInt replaces.
//!
//! Written the way portable softfloat libraries (and compiler runtime
//! support like `__lesf2`) write it: unpack both operands, handle NaN,
//! handle the `-0.0 == +0.0` identification, then branch on sign and
//! compare magnitudes. Counting the work here against the one or two
//! instructions of a prepared FLInt threshold is exactly the contrast
//! the paper's motivation draws.

use crate::format::SoftFloatFormat;
use core::cmp::Ordering;

/// IEEE-754 comparison: `None` when either operand is NaN (unordered),
/// `-0.0 == +0.0`.
///
/// # Examples
///
/// ```
/// use flint_softfloat::soft_cmp;
/// use core::cmp::Ordering;
///
/// assert_eq!(soft_cmp(1.0f32, 2.0f32), Some(Ordering::Less));
/// assert_eq!(soft_cmp(-0.0f64, 0.0f64), Some(Ordering::Equal));
/// assert_eq!(soft_cmp(f32::NAN, f32::NAN), None);
/// ```
pub fn soft_cmp<F: SoftFloatFormat>(a: F, b: F) -> Option<Ordering> {
    let (ab, bb) = (a.bits64(), b.bits64());
    let exp_all = (F::EXP_MAX as u64) << F::MAN_BITS;
    let abs_mask = (1u64 << F::SIGN_SHIFT) - 1;
    let (aa, ba) = (ab & abs_mask, bb & abs_mask);
    // NaN: exponent all ones and non-zero fraction.
    if (aa & exp_all) == exp_all && (aa & F::MAN_MASK) != 0 {
        return None;
    }
    if (ba & exp_all) == exp_all && (ba & F::MAN_MASK) != 0 {
        return None;
    }
    // ±0 are equal.
    if aa == 0 && ba == 0 {
        return Some(Ordering::Equal);
    }
    let a_neg = ab >> F::SIGN_SHIFT != 0;
    let b_neg = bb >> F::SIGN_SHIFT != 0;
    Some(match (a_neg, b_neg) {
        (false, true) => Ordering::Greater,
        (true, false) => Ordering::Less,
        // Same sign: magnitude order is the unsigned order of the
        // sign-cleared pattern (exponent field dominates the fraction),
        // inverted for negatives.
        (false, false) => aa.cmp(&ba),
        (true, true) => ba.cmp(&aa),
    })
}

/// IEEE `==` (false for NaN operands; `-0.0 == +0.0`).
///
/// ```
/// assert!(flint_softfloat::soft_eq(-0.0f32, 0.0f32));
/// assert!(!flint_softfloat::soft_eq(f64::NAN, f64::NAN));
/// ```
#[inline]
pub fn soft_eq<F: SoftFloatFormat>(a: F, b: F) -> bool {
    soft_cmp(a, b) == Some(Ordering::Equal)
}

/// IEEE `<` (false if unordered).
///
/// ```
/// assert!(flint_softfloat::soft_lt(1.0f32, 2.0f32));
/// assert!(!flint_softfloat::soft_lt(f32::NAN, 2.0f32));
/// ```
#[inline]
pub fn soft_lt<F: SoftFloatFormat>(a: F, b: F) -> bool {
    soft_cmp(a, b) == Some(Ordering::Less)
}

/// IEEE `<=` (false if unordered).
///
/// ```
/// assert!(flint_softfloat::soft_le(2.0f32, 2.0f32));
/// ```
#[inline]
pub fn soft_le<F: SoftFloatFormat>(a: F, b: F) -> bool {
    matches!(soft_cmp(a, b), Some(Ordering::Less | Ordering::Equal))
}

/// IEEE `>` (false if unordered).
///
/// ```
/// assert!(flint_softfloat::soft_gt(3.0f64, 2.0f64));
/// ```
#[inline]
pub fn soft_gt<F: SoftFloatFormat>(a: F, b: F) -> bool {
    soft_cmp(a, b) == Some(Ordering::Greater)
}

/// IEEE `>=` (false if unordered).
///
/// ```
/// assert!(flint_softfloat::soft_ge(2.0f32, 2.0f32));
/// ```
#[inline]
pub fn soft_ge<F: SoftFloatFormat>(a: F, b: F) -> bool {
    matches!(soft_cmp(a, b), Some(Ordering::Greater | Ordering::Equal))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probes_f32() -> Vec<f32> {
        vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1.0,
            -1.0,
            1.5,
            -2.935417,
            10.074347,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ]
    }

    #[test]
    fn cmp_matches_hardware_f32() {
        for &a in &probes_f32() {
            for &b in &probes_f32() {
                assert_eq!(soft_cmp(a, b), a.partial_cmp(&b), "cmp({a}, {b})");
                assert_eq!(soft_eq(a, b), a == b, "eq({a}, {b})");
                assert_eq!(soft_lt(a, b), a < b, "lt({a}, {b})");
                assert_eq!(soft_le(a, b), a <= b, "le({a}, {b})");
                assert_eq!(soft_gt(a, b), a > b, "gt({a}, {b})");
                assert_eq!(soft_ge(a, b), a >= b, "ge({a}, {b})");
            }
        }
    }

    #[test]
    fn cmp_matches_hardware_f64() {
        let probes = [
            0.0f64,
            -0.0,
            1.0,
            -1.0,
            f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for &a in &probes {
            for &b in &probes {
                assert_eq!(soft_cmp(a, b), a.partial_cmp(&b), "cmp({a}, {b})");
            }
        }
    }
}
