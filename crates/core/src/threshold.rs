//! Offline-resolved decision tree thresholds (Section IV-B of the paper).
//!
//! During random forest inference, every comparison has the shape
//! `feature <= split` where `split` is a constant fixed at training
//! time. Theorem 2 lets a code generator resolve the negative-operand
//! special case *offline*:
//!
//! * **positive (or +0.0) split** — the test compiles to a single signed
//!   integer comparison of the feature's bit pattern against the split's
//!   bit pattern as an integer immediate (Listing 2):
//!   `SI(x) <= SI(split)`;
//! * **negative split** — both operands are "multiplied by −1" by
//!   flipping their sign bits and the comparison is reversed
//!   (Listing 4): `SI(-split) <= SI(x) ^ SIGN_MASK` — one XOR plus one
//!   signed comparison, and `-split` is folded into the immediate;
//! * **`-0.0` split** — rewritten to `+0.0` so that FLInt's
//!   `-0.0 < +0.0` total order coincides with IEEE semantics for every
//!   `<=` decision.
//!
//! [`PreparedThreshold`] is the runtime object a compiled tree node
//! stores; [`PreparedThreshold::le`] is the entire per-node decision.

use crate::bits::{BitInt, FloatBits};
use crate::error::PrepareThresholdError;

/// A decision tree split value, preprocessed per Theorem 2 so that the
/// runtime test `feature <= split` needs at most one XOR and exactly one
/// signed integer comparison.
///
/// Construction rejects NaN (NaN split values cannot be produced by
/// CART training and have no defined ordering). `-0.0` is rewritten to
/// `+0.0`, making every decision bit-identical to the IEEE `<=` a naive
/// float implementation computes — for **all** inputs including `-0.0`
/// features.
///
/// # Examples
///
/// ```
/// use flint_core::PreparedThreshold;
///
/// # fn main() -> Result<(), flint_core::PrepareThresholdError> {
/// // Positive split: direct integer compare (Listing 2).
/// let pos = PreparedThreshold::new(10.074347f32)?;
/// assert!(pos.le(10.074347));
/// assert!(!pos.le(10.1));
///
/// // Negative split: sign-flip form (Listing 4).
/// let neg = PreparedThreshold::new(-2.935417f32)?;
/// assert!(neg.le(-3.0));
/// assert!(!neg.le(-2.9));
/// assert!(!neg.le(0.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PreparedThreshold<F: FloatBits> {
    /// The integer immediate: `SI(split)` for positive splits,
    /// `SI(-split)` (sign bit cleared) for negative splits.
    key: F::Signed,
    /// Whether the feature word's sign bit must be flipped before the
    /// comparison (true exactly for negative splits).
    flip: bool,
}

impl<F: FloatBits> PreparedThreshold<F> {
    /// Prepares a split value for integer-only evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`PrepareThresholdError::NanSplit`] if `split` is NaN.
    pub fn new(split: F) -> Result<Self, PrepareThresholdError> {
        if split.is_nan_value() {
            return Err(PrepareThresholdError::NanSplit);
        }
        let bits = split.to_signed_bits();
        // -0.0 -> +0.0 rewrite: the only pattern that is negative by
        // sign bit yet IEEE-equal to a non-negative value.
        if bits == F::SIGN_MASK_SIGNED {
            return Ok(Self {
                key: F::Signed::ZERO,
                flip: false,
            });
        }
        if bits < F::Signed::ZERO {
            Ok(Self {
                key: bits ^ F::SIGN_MASK_SIGNED, // fold -1 * split offline
                flip: true,
            })
        } else {
            Ok(Self {
                key: bits,
                flip: false,
            })
        }
    }

    /// Evaluates `feature <= split` from the feature's raw bit pattern.
    ///
    /// This is the entire runtime work of one tree node: for positive
    /// splits one signed comparison; for negative splits one XOR plus
    /// one signed comparison. Matches Listings 2 and 4 of the paper
    /// instruction-for-instruction.
    #[inline]
    pub fn le_bits(&self, feature_bits: F::Signed) -> bool {
        if self.flip {
            self.key <= (feature_bits ^ F::SIGN_MASK_SIGNED)
        } else {
            feature_bits <= self.key
        }
    }

    /// Evaluates `feature <= split` on a float value (free bit cast then
    /// [`le_bits`](Self::le_bits)).
    #[inline]
    pub fn le(&self, feature: F) -> bool {
        self.le_bits(feature.to_signed_bits())
    }

    /// Evaluates `feature > split` — the negation of [`le`](Self::le),
    /// i.e. the "go right" decision of a tree node.
    #[inline]
    pub fn gt(&self, feature: F) -> bool {
        !self.le(feature)
    }

    /// The integer immediate stored in the compiled node (the hex
    /// constant of Listings 2/4). For negative splits this is the
    /// pattern of `-split`.
    #[inline]
    pub fn key(&self) -> F::Signed {
        self.key
    }

    /// The split's FLInt order key: [`key`](Self::key) for non-negative
    /// splits, `!key()` for negative ones — the
    /// [`order_key`](crate::order_key) of the effective split value.
    ///
    /// This is Theorem 2's sign-flip case folded into the key, for
    /// walks over node arrays that key each feature once:
    /// `order_key(x) <= t.order_key()` decides exactly as
    /// [`le_bits`](Self::le_bits) for every bit pattern of `x`, NaN
    /// included (positive NaN goes right, negative NaN goes left).
    #[inline]
    pub fn order_key(&self) -> F::Signed {
        if self.flip {
            !self.key
        } else {
            self.key
        }
    }

    /// Whether this node flips the feature's sign bit before comparing
    /// (true exactly for negative split values).
    #[inline]
    pub fn flips_sign(&self) -> bool {
        self.flip
    }

    /// Reconstructs the effective float split value this threshold
    /// tests against (after the `-0.0 -> +0.0` rewrite).
    pub fn split_value(&self) -> F {
        if self.flip {
            F::from_signed_bits(self.key ^ F::SIGN_MASK_SIGNED)
        } else {
            F::from_signed_bits(self.key)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probes() -> [f32; 18] {
        [
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1.0,
            -1.0,
            10.074347,
            -2.935417,
            2.935417,
            10430.507,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.5,
            -0.5,
        ]
    }

    #[test]
    fn matches_ieee_le_for_all_probe_pairs() {
        // After the -0.0 rewrite, every decision must equal IEEE <=.
        for &split in &probes() {
            let t = PreparedThreshold::new(split).expect("non-NaN");
            for &x in &probes() {
                assert_eq!(
                    t.le(x),
                    x <= split,
                    "le({x}) vs split {split} [{:#010x}]",
                    split.to_bits()
                );
                assert_eq!(t.gt(x), x > split);
            }
        }
    }

    #[test]
    fn negative_zero_split_is_rewritten() {
        let t = PreparedThreshold::new(-0.0f32).expect("non-NaN");
        assert!(!t.flips_sign());
        assert_eq!(t.key(), 0);
        assert_eq!(t.split_value().to_bits(), 0.0f32.to_bits());
        // IEEE: -0.0 <= -0.0 and 0.0 <= -0.0 are both true.
        assert!(t.le(-0.0));
        assert!(t.le(0.0));
        assert!(!t.le(f32::MIN_POSITIVE));
    }

    #[test]
    fn listing4_immediate_reproduced() {
        // Listing 3/4: the split whose pattern is 0xc03bddde (printed as
        // -2.935417) compiles to immediate 0x403bddde with a sign flip
        // on the feature word.
        let split = f32::from_bits(0xc03b_ddde);
        let t = PreparedThreshold::new(split).expect("non-NaN");
        assert!(t.flips_sign());
        assert_eq!(t.key() as u32, 0x403b_ddde);
    }

    #[test]
    fn listing2_immediates_reproduced() {
        // Splits taken from the paper's hex immediates: a positive split
        // must compile to its own bit pattern with no sign flip.
        for imm in [0x4121_3087u32, 0x413f_986e, 0x4622_fa08] {
            let split = f32::from_bits(imm);
            let t = PreparedThreshold::new(split).expect("non-NaN");
            assert!(!t.flips_sign());
            assert_eq!(t.key() as u32, imm);
        }
    }

    #[test]
    fn nan_split_rejected() {
        assert_eq!(
            PreparedThreshold::new(f32::NAN).unwrap_err(),
            PrepareThresholdError::NanSplit
        );
        assert!(PreparedThreshold::new(f64::NAN).is_err());
    }

    #[test]
    fn f64_thresholds_work() {
        let t = PreparedThreshold::new(-2.935417f64).expect("non-NaN");
        assert!(t.flips_sign());
        for x in [-10.0f64, -2.935418, -2.935417, -2.935416, 0.0, 3.0] {
            assert_eq!(t.le(x), x <= -2.935417f64, "x={x}");
        }
    }

    #[test]
    fn split_value_round_trips() {
        for &split in &probes() {
            let t = PreparedThreshold::new(split).expect("non-NaN");
            if split.to_bits() == (-0.0f32).to_bits() {
                assert_eq!(t.split_value().to_bits(), 0.0f32.to_bits());
            } else {
                assert_eq!(t.split_value().to_bits(), split.to_bits());
            }
        }
    }

    #[test]
    fn denormal_boundary_decisions() {
        // Split exactly at the smallest positive denormal.
        let tiny = f32::from_bits(1);
        let t = PreparedThreshold::new(tiny).expect("non-NaN");
        assert!(t.le(0.0));
        assert!(t.le(-0.0));
        assert!(t.le(tiny));
        assert!(!t.le(f32::from_bits(2)));
        // Negative denormal split.
        let nt = PreparedThreshold::new(-tiny).expect("non-NaN");
        assert!(nt.le(-tiny));
        assert!(!nt.le(-0.0));
        assert!(!nt.le(0.0));
    }
}
