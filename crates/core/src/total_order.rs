//! A total order on floats realized with integer operations.
//!
//! The paper's lemmas imply that the map
//!
//! ```text
//! key(B) = SI(B)                 if sign bit clear
//!          SIGN_MASK - SI(B)... // equivalently: invert all bits below
//! ```
//!
//! more precisely `key(B) = SI(B) ^ SIGN_MASK` for positive patterns and
//! `!SI(B)` (bitwise NOT) for negative patterns — applied on the
//! *unsigned* view — is strictly monotone from the paper's float order
//! (`-0.0 < +0.0`, NaN excluded) into the unsigned integers. [`FlintOrd`]
//! wraps a float together with this property, providing `Ord`/`Eq` so
//! floats can be sorted, put in `BTreeMap`s, or binary-searched using
//! integer comparisons only. [`order_key`] is the same map on the
//! signed view, as a bit-level function defined on every pattern, NaN
//! included: the key the data-driven FLInt tree walks compare.
//!
//! This goes slightly beyond the paper (which needs only `>=`), but is
//! the natural library generalization: it is the same trick, resolved
//! once per value instead of once per comparison, and it is what a
//! downstream user wants when they ask "can I sort with FLInt?".

use crate::bits::FloatBits;
use crate::compare::ge_bits;
use core::cmp::Ordering;

/// A float wrapper that is totally ordered by integer comparisons,
/// following the paper's order (`-0.0 < +0.0`; infinities at the
/// extremes).
///
/// # Panics
///
/// [`FlintOrd::new`] panics on NaN input in debug builds (NaN has no
/// place in the paper's order); use [`FlintOrd::try_new`] for checked
/// construction.
///
/// # Examples
///
/// ```
/// use flint_core::FlintOrd;
///
/// let mut xs = vec![
///     FlintOrd::new(1.5f32),
///     FlintOrd::new(-2.0),
///     FlintOrd::new(0.0),
///     FlintOrd::new(-0.0),
/// ];
/// xs.sort(); // integer comparisons only
/// let vals: Vec<f32> = xs.iter().map(|x| x.value()).collect();
/// assert_eq!(vals[0], -2.0);
/// assert!(vals[1].is_sign_negative() && vals[1] == 0.0); // -0.0 first
/// assert_eq!(vals[3], 1.5);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FlintOrd<F: FloatBits>(F);

impl<F: FloatBits> FlintOrd<F> {
    /// Wraps a non-NaN float.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `value` is not NaN.
    #[inline]
    pub fn new(value: F) -> Self {
        debug_assert!(!value.is_nan_value(), "FlintOrd does not order NaN");
        Self(value)
    }

    /// Checked constructor: `None` for NaN.
    #[inline]
    pub fn try_new(value: F) -> Option<Self> {
        if value.is_nan_value() {
            None
        } else {
            Some(Self(value))
        }
    }

    /// The wrapped float value.
    #[inline]
    pub fn value(self) -> F {
        self.0
    }

    /// The order key: a signed integer whose natural order equals the
    /// paper's float order ([`order_key`] of the wrapped value).
    #[inline]
    pub fn order_key(self) -> F::Signed {
        order_key(self.0)
    }
}

/// The FLInt order key of `value`'s bit pattern: a signed integer whose
/// natural order is the paper's float order.
///
/// `key(s) = s ^ ((s >> (k - 1)) & iN::MAX)` on the signed pattern `s`,
/// with an arithmetic shift. Non-negative patterns keep `SI(B)`, which
/// is already order-preserving (Lemma 3). Negative patterns
/// (order-inverted per Lemma 6) have every bit below the sign inverted,
/// mapping `[-inf, -0.0]` monotonically onto `[iN::MIN, -1]`, strictly
/// below every non-negative key. One shift, one AND and one XOR; no
/// branch and no float instruction.
///
/// Defined on every bit pattern, NaN included: positive NaN patterns
/// key above `+inf`, negative ones below `-inf`. So for any split `t`,
/// `order_key(x) <= PreparedThreshold::new(t)?.order_key()` decides
/// exactly as [`PreparedThreshold::le_bits`](crate::PreparedThreshold::le_bits)
/// does: a data-driven tree walk keys each feature once and then pays
/// one signed compare per node.
///
/// ```
/// use flint_core::order_key;
///
/// assert!(order_key(-2.0f32) < order_key(-1.0f32));
/// assert!(order_key(-0.0f32) < order_key(0.0f32));
/// assert!(order_key(f32::INFINITY) < order_key(f32::NAN));
/// assert!(order_key(-f32::NAN) < order_key(f32::NEG_INFINITY));
/// ```
#[inline]
pub fn order_key<F: FloatBits>(value: F) -> F::Signed {
    let s = value.to_signed_bits();
    s ^ ((s >> (F::TOTAL_BITS - 1)) & !F::SIGN_MASK_SIGNED)
}

impl<F: FloatBits> PartialEq for FlintOrd<F> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        // Lemma 1: float equality (in the paper's order) is bit equality.
        self.0.to_signed_bits() == other.0.to_signed_bits()
    }
}

impl<F: FloatBits> Eq for FlintOrd<F> {}

impl<F: FloatBits> PartialOrd for FlintOrd<F> {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<F: FloatBits> Ord for FlintOrd<F> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        let (x, y) = (self.0.to_signed_bits(), other.0.to_signed_bits());
        if x == y {
            Ordering::Equal
        } else if ge_bits::<F>(x, y) {
            Ordering::Greater
        } else {
            Ordering::Less
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "std")]
    #[test]
    fn sorts_like_ieee_with_signed_zero_refinement() {
        let mut xs: Vec<f32> = vec![
            3.5,
            -1.0,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            2.0,
            -2.0,
            1e-40,
            -1e-40,
        ];
        let mut wrapped: Vec<FlintOrd<f32>> = xs.iter().map(|&v| FlintOrd::new(v)).collect();
        wrapped.sort();
        // IEEE total_cmp agrees with the paper's order on non-NaN values.
        xs.sort_by(|a, b| a.total_cmp(b));
        let got: Vec<u32> = wrapped.iter().map(|w| w.value().to_bits()).collect();
        let want: Vec<u32> = xs.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn ord_is_consistent_with_flint_ge() {
        let probes = [0.0f32, -0.0, 1.0, -1.0, f32::MAX, f32::MIN, 1e-40, -1e-40];
        for &a in &probes {
            for &b in &probes {
                let (wa, wb) = (FlintOrd::new(a), FlintOrd::new(b));
                assert_eq!(wa >= wb, crate::flint_ge(a, b), "({a}, {b})");
                assert_eq!(wa == wb, a.to_bits() == b.to_bits());
            }
        }
    }

    #[test]
    fn order_key_is_monotone() {
        let seq = [
            f32::NEG_INFINITY,
            f32::MIN,
            -1.0,
            -1e-40,
            -0.0,
            0.0,
            1e-40,
            1.0,
            f32::MAX,
            f32::INFINITY,
        ];
        for w in seq.windows(2) {
            let (a, b) = (FlintOrd::new(w[0]), FlintOrd::new(w[1]));
            assert!(
                a.order_key() < b.order_key(),
                "key({}) < key({})",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn try_new_rejects_nan() {
        assert!(FlintOrd::try_new(f32::NAN).is_none());
        assert!(FlintOrd::try_new(f64::NAN).is_none());
        assert!(FlintOrd::try_new(1.0f32).is_some());
    }

    #[test]
    fn f64_ordering() {
        let a = FlintOrd::new(-2.935417f64);
        let b = FlintOrd::new(-2.935416f64);
        assert!(a < b);
        assert!(FlintOrd::new(0.0f64) > FlintOrd::new(-0.0f64));
    }
}
