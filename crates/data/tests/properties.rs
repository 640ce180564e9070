//! Property-based tests for the dataset substrate.

use flint_data::{csv, synth::SynthSpec, train_test_split, Dataset};
use proptest::prelude::*;

fn finite_f32() -> impl Strategy<Value = f32> {
    any::<u32>()
        .prop_map(f32::from_bits)
        .prop_filter("finite", |v| v.is_finite())
}

/// Finite bit patterns and, one draw in eight, the quiet NaN of the
/// drawn sign: the NaNs text carries.
fn finite_or_nan_f32() -> impl Strategy<Value = f32> {
    (finite_f32(), 0u32..8).prop_map(|(v, pick)| if pick == 0 { f32::NAN.copysign(v) } else { v })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// CSV round-trips arbitrary finite bit patterns exactly, including
    /// signed zeros and denormals, and NaNs of both signs.
    #[test]
    fn csv_round_trips_bit_exactly(
        rows in proptest::collection::vec(
            (proptest::collection::vec(finite_or_nan_f32(), 3), 0u32..4),
            1..30,
        )
    ) {
        let ds = Dataset::from_rows(3, 4, rows).expect("consistent");
        let mut buf = Vec::new();
        csv::write_csv(&ds, &mut buf).expect("write");
        let back = csv::read_csv(&buf[..], 4).expect("read");
        prop_assert_eq!(back.n_samples(), ds.n_samples());
        for i in 0..ds.n_samples() {
            prop_assert_eq!(back.label(i), ds.label(i));
            for (a, b) in back.sample(i).iter().zip(ds.sample(i)) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    /// Splits partition: sizes add up, no sample lost or duplicated,
    /// for every fraction and seed.
    #[test]
    fn split_partitions(
        n in 1usize..200,
        frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let ds = SynthSpec::new(n, 2, 2).seed(seed).generate();
        let s = train_test_split(&ds, frac, seed);
        prop_assert_eq!(s.train.n_samples() + s.test.n_samples(), n);
        let expected_test = ((n as f64) * frac).round() as usize;
        prop_assert_eq!(s.test.n_samples(), expected_test.min(n));
    }

    /// Generators are pure functions of their spec.
    #[test]
    fn generator_determinism(seed in any::<u64>(), n in 10usize..100) {
        let a = SynthSpec::new(n, 3, 2).seed(seed).generate();
        let b = SynthSpec::new(n, 3, 2).seed(seed).generate();
        prop_assert_eq!(a, b);
    }

    /// Generated data never contains NaN or infinities (training and
    /// FLInt preparation both require this).
    #[test]
    fn generated_data_is_finite(seed in any::<u64>()) {
        let ds = SynthSpec::new(80, 4, 3).cluster_std(3.0).seed(seed).generate();
        prop_assert!(ds.features_flat().iter().all(|v| v.is_finite()));
    }

    /// Subset with arbitrary (possibly repeating) indices preserves
    /// rows positionally.
    #[test]
    fn subset_preserves_rows(
        seed in any::<u64>(),
        indices in proptest::collection::vec(0usize..50, 1..80),
    ) {
        let ds = SynthSpec::new(50, 3, 2).seed(seed).generate();
        let sub = ds.subset(&indices);
        prop_assert_eq!(sub.n_samples(), indices.len());
        for (k, &i) in indices.iter().enumerate() {
            prop_assert_eq!(sub.sample(k), ds.sample(i));
            prop_assert_eq!(sub.label(k), ds.label(i));
        }
    }
}
