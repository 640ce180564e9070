//! Property tests: the software comparison must agree with the host's
//! IEEE-754 hardware on uniformly random bit patterns (which hit
//! denormals, zeros, infinities and NaNs).

use flint_softfloat::{soft_cmp, soft_eq, soft_ge, soft_gt, soft_le, soft_lt};
use proptest::prelude::*;

fn any_f32() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

fn any_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8192))]

    #[test]
    fn cmp_matches_hardware_f32(a in any_f32(), b in any_f32()) {
        prop_assert_eq!(soft_cmp(a, b), a.partial_cmp(&b));
        prop_assert_eq!(soft_eq(a, b), a == b);
        prop_assert_eq!(soft_lt(a, b), a < b);
        prop_assert_eq!(soft_le(a, b), a <= b);
        prop_assert_eq!(soft_gt(a, b), a > b);
        prop_assert_eq!(soft_ge(a, b), a >= b);
    }

    #[test]
    fn cmp_matches_hardware_f64(a in any_f64(), b in any_f64()) {
        prop_assert_eq!(soft_cmp(a, b), a.partial_cmp(&b));
        prop_assert_eq!(soft_le(a, b), a <= b);
    }
}
