//! Micro-benchmark of the comparison operators themselves: hardware
//! float `<=`, FLInt Theorem 1 (XOR form), FLInt Theorem 2
//! (offline-prepared threshold), and the software float comparison —
//! the per-node costs whose differences drive every other result.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use flint_core::compare::{ge_bits, ge_bits_sign_flip};
use flint_core::{FloatBits, PreparedThreshold};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn inputs(n: usize) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..n).map(|_| rng.gen_range(-100.0f32..100.0)).collect()
}

fn bench_compare(c: &mut Criterion) {
    let xs = inputs(4096);
    let threshold = -2.935417f32;
    let prepared = PreparedThreshold::new(threshold).expect("non-NaN");
    let threshold_bits = threshold.to_signed_bits();

    let mut group = c.benchmark_group("single_comparison");
    group.bench_function("hardware_float_le", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &x in &xs {
                acc += u32::from(black_box(x) <= threshold);
            }
            acc
        })
    });
    group.bench_function("flint_theorem1_xor_form", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &x in &xs {
                acc += u32::from(ge_bits::<f32>(
                    threshold_bits,
                    black_box(x).to_signed_bits(),
                ));
            }
            acc
        })
    });
    group.bench_function("flint_theorem2_runtime_sign_test", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &x in &xs {
                acc += u32::from(ge_bits_sign_flip::<f32>(
                    threshold_bits,
                    black_box(x).to_signed_bits(),
                ));
            }
            acc
        })
    });
    group.bench_function("flint_prepared_threshold", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &x in &xs {
                acc += u32::from(prepared.le(black_box(x)));
            }
            acc
        })
    });
    group.bench_function("softfloat_le", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for &x in &xs {
                acc += u32::from(flint_softfloat::soft_le(black_box(x), threshold));
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench_compare);
criterion_main!(benches);
