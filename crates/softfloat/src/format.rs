//! Width-generic access to IEEE-754 binary formats.
//!
//! Both supported widths are funnelled through `u64` bit carriers so
//! the comparison ([`crate::cmp`]) is written once. The widening is
//! free on 64-bit hosts and keeps the implementation honest: nothing in
//! this crate ever calls a float instruction.

/// An IEEE-754 binary interchange format with its bit pattern exposed
/// as a `u64` (the `f32` pattern occupies the low 32 bits).
///
/// # Examples
///
/// ```
/// use flint_softfloat::SoftFloatFormat;
///
/// assert_eq!(<f32 as SoftFloatFormat>::EXP_BITS, 8);
/// assert_eq!(<f64 as SoftFloatFormat>::MAN_BITS, 52);
/// assert_eq!(1.0f32.bits64(), 0x3f80_0000);
/// assert_eq!(1.0f64.bits64(), 0x3ff0_0000_0000_0000);
/// ```
pub trait SoftFloatFormat: Copy + PartialEq + core::fmt::Debug {
    /// Exponent field width (8 / 11).
    const EXP_BITS: u32;
    /// Mantissa (fraction) field width (23 / 52).
    const MAN_BITS: u32;

    /// All-ones exponent field (infinity / NaN marker).
    const EXP_MAX: u32 = (1 << Self::EXP_BITS) - 1;
    /// Bit position of the sign bit.
    const SIGN_SHIFT: u32 = Self::EXP_BITS + Self::MAN_BITS;
    /// Mask of the mantissa field.
    const MAN_MASK: u64 = (1u64 << Self::MAN_BITS) - 1;

    /// The raw bit pattern, widened to `u64`.
    fn bits64(self) -> u64;
}

impl SoftFloatFormat for f32 {
    const EXP_BITS: u32 = 8;
    const MAN_BITS: u32 = 23;

    #[inline]
    fn bits64(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl SoftFloatFormat for f64 {
    const EXP_BITS: u32 = 11;
    const MAN_BITS: u32 = 52;

    #[inline]
    fn bits64(self) -> u64 {
        self.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_constants() {
        assert_eq!(<f32 as SoftFloatFormat>::EXP_MAX, 255);
        assert_eq!(<f64 as SoftFloatFormat>::EXP_MAX, 2047);
        assert_eq!(<f32 as SoftFloatFormat>::SIGN_SHIFT, 31);
        assert_eq!(<f64 as SoftFloatFormat>::SIGN_SHIFT, 63);
        assert_eq!(<f32 as SoftFloatFormat>::MAN_MASK, (1 << 23) - 1);
    }

    #[test]
    fn bits_round_trip() {
        for v in [0.0f32, -0.0, 1.0, -1.0, f32::MAX, f32::MIN_POSITIVE] {
            assert_eq!(f32::from_bits(v.bits64() as u32).to_bits(), v.to_bits());
        }
        for v in [0.0f64, -0.0, 1.0, -1.0, f64::MAX] {
            assert_eq!(f64::from_bits(v.bits64()).to_bits(), v.to_bits());
        }
    }
}
