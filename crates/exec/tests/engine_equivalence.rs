//! Cross-engine differential suite: every engine of the registry —
//! scalar and blocked if-else backends, QuickScorer in both comparison
//! modes, the three codegen VM variants, the SIMD lane engines (f32
//! and binary16), and the tiered template JIT — must return
//! **bit-identical** labels to its comparison family's scalar
//! reference, on every dataset, for every batch shape and thread
//! count.
//!
//! This is the workspace-wide generalization of the paper's claim: not
//! only is FLInt a drop-in replacement for float comparison inside one
//! traversal, but *every* registered execution strategy is a drop-in
//! replacement for every other of the same precision.
//!
//! For the full-precision engines ([`EngineKind::is_exact`]) the
//! reference is [`RandomForest::predict_majority`] (one vote per tree,
//! ties to the lower class index) — the aggregation every engine
//! implements. `RandomForest::predict` is *not* the reference: it
//! argmaxes averaged leaf class distributions, which is a different
//! (probability-weighted) aggregation and can legitimately disagree
//! with a vote count on close calls. The binary16 engines quantize
//! thresholds and features to half precision, so their reference is an
//! independently compiled [`HalfForest`] walked scalar node by node —
//! the same per-family pattern the NaN suites below established.

use flint_codegen::{VmForest, VmVariant};
use flint_data::synth::SynthSpec;
use flint_data::uci::{Scale, UciDataset};
use flint_data::{Dataset, FeatureMatrix};
use flint_exec::{
    BackendKind, BatchOptions, BuildEngineError, CompileTreeError, CompiledForest, EngineBuilder,
    EngineKind, HalfCompare, HalfForest, JitCompare, SimdCompare, Sink, FORCE_FALLBACK_ENV,
    LANE_CROSSOVER,
};
use flint_forest::metrics::majority_vote;
use flint_forest::{DecisionTree, ForestConfig, Node, NodeId, RandomForest};
use flint_qscorer::QsCompare;
use proptest::prelude::*;

/// The scalar reference of `kind`'s comparison family over explicit
/// rows: the f32 majority vote for exact engines, a freshly compiled
/// binary16 forest's scalar walk for the f16 engines.
fn family_reference(forest: &RandomForest, kind: EngineKind, rows: &[Vec<f32>]) -> Vec<u32> {
    match kind {
        EngineKind::SimdF16(compare) => {
            let half = HalfForest::compile(forest, compare).expect("compiles");
            rows.iter().map(|r| half.predict(r)).collect()
        }
        _ => rows.iter().map(|r| forest.predict_majority(r)).collect(),
    }
}

/// [`family_reference`] over a dataset's samples.
fn family_reference_dataset(forest: &RandomForest, kind: EngineKind, data: &Dataset) -> Vec<u32> {
    let rows: Vec<Vec<f32>> = (0..data.n_samples())
        .map(|i| data.sample(i).to_vec())
        .collect();
    family_reference(forest, kind, &rows)
}

#[test]
fn all_registered_engines_agree_on_all_uci_datasets() {
    for ds in UciDataset::ALL {
        let data = ds.generate(Scale::Tiny);
        let forest = RandomForest::fit(&data, &ForestConfig::grid(5, 10)).expect("trainable");
        let matrix = FeatureMatrix::from_dataset(&data);
        let builder = EngineBuilder::new(&forest).profile_data(&data);
        for engine in builder.build_all().expect("all engines build") {
            let reference = family_reference_dataset(&forest, engine.kind(), &data);
            assert_eq!(
                engine.predict_matrix(&matrix),
                reference,
                "{} diverges on {}",
                engine.name(),
                ds.name()
            );
        }
    }
}

#[test]
fn all_registered_engines_agree_across_batch_shapes_and_threads() {
    let data = SynthSpec::new(230, 5, 3)
        .cluster_std(1.0)
        .negative_fraction(0.5)
        .seed(13)
        .generate();
    let forest = RandomForest::fit(&data, &ForestConfig::grid(6, 9)).expect("trainable");
    let matrix = FeatureMatrix::from_dataset(&data);
    let builder = EngineBuilder::new(&forest).profile_data(&data);
    for engine in builder.build_all().expect("all engines build") {
        let reference = family_reference_dataset(&forest, engine.kind(), &data);
        // 10_000 exceeds the dataset; 1 degenerates to per-sample spans.
        for block in [1usize, 7, 64, 10_000] {
            for threads in [1usize, 4] {
                let opts = BatchOptions::default()
                    .block_samples(block)
                    .threads(threads);
                assert_eq!(
                    engine.predict_batch(&matrix, &opts),
                    reference,
                    "{} block {block} threads {threads}",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn predict_one_matches_predict_batch_for_every_engine() {
    let data = SynthSpec::new(160, 4, 3).seed(7).generate();
    let forest = RandomForest::fit(&data, &ForestConfig::grid(5, 8)).expect("trainable");
    let matrix = FeatureMatrix::from_dataset(&data);
    let builder = EngineBuilder::new(&forest).profile_data(&data);
    for engine in builder.build_all().expect("all engines build") {
        let batch = engine.predict_matrix(&matrix);
        for (i, &label) in batch.iter().enumerate() {
            assert_eq!(
                engine.predict_one(data.sample(i)),
                label,
                "{} sample {i}",
                engine.name()
            );
        }
    }
}

/// A model whose split values are harvested below for threshold-equal
/// probing, trained on data that spans both signs so negative (flipped)
/// FLInt thresholds are present.
fn adversarial_model(seed: u64) -> (Dataset, RandomForest) {
    let data = SynthSpec::new(140, 4, 3)
        .cluster_std(1.1)
        .negative_fraction(0.5)
        .seed(seed)
        .generate();
    let forest = RandomForest::fit(&data, &ForestConfig::grid(5, 9)).expect("trainable");
    (data, forest)
}

/// Builds a row-major [`FeatureMatrix`] from explicit rows.
fn matrix_of(rows: &[Vec<f32>], n_features: usize) -> FeatureMatrix {
    let flat: Vec<f32> = rows.iter().flatten().copied().collect();
    FeatureMatrix::from_row_major(rows.len(), n_features, &flat)
}

/// Every non-NaN adversarial bit pattern — ±inf, both zeros, boundary
/// subnormals, extreme magnitudes, and every harvested split value with
/// its ±1-ulp neighbours — injected into every feature column. FLInt's
/// Theorem 2 covers the whole non-NaN f32 line, so **every** registered
/// engine (lane-parallel SIMD included) must route these bit-identically
/// to the forest's own majority vote, at every block size.
#[test]
fn engines_agree_on_non_nan_adversarial_columns() {
    let (data, forest) = adversarial_model(41);
    let n_features = forest.n_features();
    let mut specials: Vec<f32> = vec![
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::from_bits(1),           // smallest positive subnormal
        -f32::from_bits(1),          // smallest negative subnormal
        f32::from_bits(0x007f_ffff), // largest subnormal
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        1.0e-40, // mid-range subnormal
    ];
    // Exact split values and their one-ulp neighbours: the boundary the
    // `<=` decision pivots on, where a lane kernel that computed `<`
    // or an unordered compare would flip a child selection.
    for t in forest.trees().iter().flat_map(|t| t.thresholds()).take(24) {
        specials.push(t);
        specials.push(f32::from_bits(t.to_bits().wrapping_add(1)));
        specials.push(f32::from_bits(t.to_bits().wrapping_sub(1)));
    }
    specials.retain(|v| !v.is_nan());

    // One row per (special, column): a clean baseline row with the
    // special planted in exactly one column, plus rows that are the
    // special in every column.
    let mut rows: Vec<Vec<f32>> = Vec::new();
    for (i, &s) in specials.iter().enumerate() {
        let mut row = data.sample(i % data.n_samples()).to_vec();
        row[i % n_features] = s;
        rows.push(row);
        rows.push(vec![s; n_features]);
    }
    let matrix = matrix_of(&rows, n_features);

    let builder = EngineBuilder::new(&forest).profile_data(&data);
    for engine in builder.build_all().expect("all engines build") {
        let reference = family_reference(&forest, engine.kind(), &rows);
        for block in [1usize, 8, 64] {
            let opts = BatchOptions::default().block_samples(block);
            assert_eq!(
                engine.predict_batch(&matrix, &opts),
                reference,
                "{} diverges on non-NaN adversarial columns at block {block}",
                engine.name()
            );
        }
    }
}

/// The scalar engine whose decisions are the NaN reference for `kind`,
/// or `None` where no registered engine shares its NaN contract.
///
/// NaN sits outside FLInt's ordering theorem: IEEE `<=` is false for
/// every NaN operand, while the integer order ranks negative-NaN bit
/// patterns below everything — so FLInt engines legitimately route NaN
/// differently from float engines, and `predict_majority` cannot be a
/// universal reference. What *must* hold is that every execution
/// strategy agrees with the scalar walk of its own comparison family —
/// exactly the property a lane kernel with subtly different compare
/// semantics (`_CMP_LE_OQ` vs `_CMP_LE_OS` vs `!(>)`) would break.
/// Every FLInt engine, QuickScorer's FLInt mode included, compares
/// NaN-total order keys, which rank positive NaN patterns above `+inf`
/// and negative ones below `-inf`: its reference is scalar `flint`.
/// `vm-float` faithfully models the hardware `fcmp; b.gt` idiom of the
/// paper's assembly backend, whose GT flag is false on unordered
/// operands — NaN falls through to the *left* child, unlike the IEEE
/// `<=`-is-false walk; `jit-float`'s `ucomiss; ja` encodes exactly the
/// same contract (`ja` is never taken on unordered operands), and
/// `quickscorer-float`'s per-feature `threshold < x` scan stops at the
/// first unordered compare, leaving every node true, so all three
/// send NaN left at every node. The binary16 engines map to
/// `None` here because their family reference is not a registered
/// scalar engine but the [`HalfForest`] walk — the dedicated
/// `f16_engines_match_their_scalar_walk_on_adversarial_and_nan_columns`
/// suite below diffs them (NaN columns included) against it.
fn nan_reference(kind: EngineKind) -> Option<EngineKind> {
    match kind {
        EngineKind::Scalar(b) | EngineKind::Blocked(b) => Some(EngineKind::Scalar(b)),
        EngineKind::Simd(SimdCompare::Flint) => Some(EngineKind::Scalar(BackendKind::Flint)),
        EngineKind::Simd(SimdCompare::Float) => Some(EngineKind::Scalar(BackendKind::Naive)),
        EngineKind::Vm(VmVariant::Flint) => Some(EngineKind::Scalar(BackendKind::Flint)),
        EngineKind::Vm(VmVariant::SoftFloat) => Some(EngineKind::Scalar(BackendKind::SoftFloat)),
        EngineKind::Jit(JitCompare::Flint) => Some(EngineKind::Scalar(BackendKind::Flint)),
        EngineKind::Jit(JitCompare::Float) => Some(EngineKind::Vm(VmVariant::NativeFloat)),
        EngineKind::QuickScorer(QsCompare::Flint) => Some(EngineKind::Scalar(BackendKind::Flint)),
        EngineKind::QuickScorer(QsCompare::Float) => Some(EngineKind::Vm(VmVariant::NativeFloat)),
        EngineKind::Vm(VmVariant::NativeFloat) | EngineKind::SimdF16(_) => None,
    }
}

/// NaN feature columns (quiet, signalling, negative, all-ones): every
/// engine stays bit-identical to the scalar engine of its comparison
/// family, at every block size and thread count.
#[test]
fn nan_features_stay_bit_identical_within_each_compare_family() {
    let (data, forest) = adversarial_model(43);
    let n_features = forest.n_features();
    let nans = [
        f32::NAN,
        f32::from_bits(0x7f80_0001), // signalling NaN
        f32::from_bits(0xffc0_0000), // negative quiet NaN
        f32::from_bits(0xffff_ffff), // all-ones payload
    ];
    let mut rows: Vec<Vec<f32>> = Vec::new();
    for (i, &s) in nans.iter().enumerate() {
        for f in 0..n_features {
            let mut row = data
                .sample((i * n_features + f) % data.n_samples())
                .to_vec();
            row[f] = s;
            rows.push(row);
        }
        rows.push(vec![s; n_features]);
    }
    let matrix = matrix_of(&rows, n_features);

    let builder = EngineBuilder::new(&forest).profile_data(&data);
    for kind in EngineKind::ALL {
        let Some(reference_kind) = nan_reference(kind) else {
            continue;
        };
        let engine = builder.build(kind).expect("builds");
        let reference = builder
            .build(reference_kind)
            .expect("builds")
            .predict_matrix(&matrix);
        for block in [1usize, 7, 64] {
            for threads in [1usize, 2] {
                let opts = BatchOptions::default()
                    .block_samples(block)
                    .threads(threads);
                assert_eq!(
                    engine.predict_batch(&matrix, &opts),
                    reference,
                    "{} diverges from {} on NaN columns (block {block}, threads {threads})",
                    engine.name(),
                    reference_kind.name()
                );
            }
        }
    }
}

/// The binary16 engines' own adversarial battery: harvested split
/// values with ±1-ulp f32 neighbours (which straddle f16 rounding
/// boundaries), signed zeros, subnormals (all of which quantize to
/// f16 zero), infinities, f16-overflow magnitudes, and four NaN
/// payloads — planted column-wise. The lane walk (portable or AVX2,
/// whatever dispatch chose) must stay bit-identical to the family's
/// scalar reference, the [`HalfForest`] walk, at every block size and
/// thread count. This is the f16 mirror of the per-family NaN suite
/// above: quantization happens through the identical `Half::from_f32`
/// on both sides, so any divergence is a kernel bug, not rounding.
#[test]
fn f16_engines_match_their_scalar_walk_on_adversarial_and_nan_columns() {
    let (data, forest) = adversarial_model(59);
    let n_features = forest.n_features();
    let mut specials: Vec<f32> = vec![
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::MIN_POSITIVE,
        65504.0,  // f16::MAX
        65520.0,  // rounds to f16 infinity
        -65520.0, // rounds to f16 -infinity
        6.104e-5, // just above the f16 normal/subnormal boundary
        5.96e-8,  // smallest positive f16 subnormal, roughly
        f32::NAN,
        f32::from_bits(0x7f80_0001), // signalling NaN
        f32::from_bits(0xffc0_0000), // negative quiet NaN
        f32::from_bits(0xffff_ffff), // all-ones payload
    ];
    for t in forest.trees().iter().flat_map(|t| t.thresholds()).take(24) {
        specials.push(t);
        specials.push(f32::from_bits(t.to_bits().wrapping_add(1)));
        specials.push(f32::from_bits(t.to_bits().wrapping_sub(1)));
    }
    let mut rows: Vec<Vec<f32>> = Vec::new();
    for (i, &s) in specials.iter().enumerate() {
        let mut row = data.sample(i % data.n_samples()).to_vec();
        row[i % n_features] = s;
        rows.push(row);
        rows.push(vec![s; n_features]);
    }
    let matrix = matrix_of(&rows, n_features);

    let builder = EngineBuilder::new(&forest).profile_data(&data);
    for compare in [HalfCompare::Flint, HalfCompare::Float] {
        let half = HalfForest::compile(&forest, compare).expect("compiles");
        let reference: Vec<u32> = rows.iter().map(|r| half.predict(r)).collect();
        let engine = builder.build(EngineKind::SimdF16(compare)).expect("builds");
        for block in [1usize, 7, 64] {
            for threads in [1usize, 2] {
                let opts = BatchOptions::default()
                    .block_samples(block)
                    .threads(threads);
                assert_eq!(
                    engine.predict_batch(&matrix, &opts),
                    reference,
                    "{} diverges from its scalar f16 walk (block {block}, threads {threads})",
                    engine.name()
                );
            }
        }
    }
}

/// Ragged-tail coverage at every lane boundary: sample counts straddling
/// multiples of the 8-wide lane group × block sizes {1, 8,
/// [`LANE_CROSSOVER`], 64} drive the zero-padded
/// `FeatureMatrix::gather_lanes` path through every live-lane count. A
/// lane engine takes its lane kernel only on a block of at least
/// `LANE_CROSSOVER` rows, so the counts from 15 up (21 and 23: two full
/// groups and a ragged third) are the ones that reach it. All registered
/// engines run (the SIMD kinds are the target; the rest prove the
/// reference labels are shape-independent).
#[test]
fn tail_blocks_agree_at_every_lane_boundary() {
    let (data, forest) = adversarial_model(47);
    let n_features = forest.n_features();
    let builder = EngineBuilder::new(&forest).profile_data(&data);
    let engines = builder.build_all().expect("all engines build");
    for n_samples in [1usize, 7, 8, 9, 15, 16, 17, 21, 23] {
        let rows: Vec<Vec<f32>> = (0..n_samples).map(|i| data.sample(i).to_vec()).collect();
        let matrix = matrix_of(&rows, n_features);
        for engine in &engines {
            let reference = family_reference(&forest, engine.kind(), &rows);
            for block in [1usize, 8, LANE_CROSSOVER, 64] {
                for threads in [1usize, 2] {
                    let opts = BatchOptions::default()
                        .block_samples(block)
                        .threads(threads);
                    assert_eq!(
                        engine.predict_batch(&matrix, &opts),
                        reference,
                        "{} diverges at n={n_samples} block={block} threads={threads}",
                        engine.name()
                    );
                }
            }
        }
    }
}

/// The adversarial rows of the suites above in one pool: infinities,
/// both zeros, subnormals, extreme and binary16-edge magnitudes,
/// harvested split values with their ±1-ulp neighbours, and four NaN
/// payloads, each planted in one column of a clean row and in every
/// column.
fn adversarial_pool(data: &Dataset, forest: &RandomForest) -> Vec<Vec<f32>> {
    let n_features = forest.n_features();
    let mut specials: Vec<f32> = vec![
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        65504.0,
        65520.0,
        -65520.0,
        f32::NAN,
        f32::from_bits(0x7f80_0001),
        f32::from_bits(0xffc0_0000),
        f32::from_bits(0xffff_ffff),
    ];
    for t in forest.trees().iter().flat_map(|t| t.thresholds()).take(24) {
        specials.push(t);
        specials.push(f32::from_bits(t.to_bits().wrapping_add(1)));
        specials.push(f32::from_bits(t.to_bits().wrapping_sub(1)));
    }
    let mut rows = Vec::new();
    for (i, &s) in specials.iter().enumerate() {
        let mut row = data.sample(i % data.n_samples()).to_vec();
        row[i % n_features] = s;
        rows.push(row);
        rows.push(vec![s; n_features]);
    }
    rows
}

/// A scalar walk's vote histogram of one row.
type RowVotes = Box<dyn Fn(&[f32]) -> Vec<u32>>;

/// `kind`'s family reference on each row of `rows`: its class and its
/// vote histogram. The f16 engines answer for [`HalfForest`]; every
/// other engine for [`RandomForest::predict_majority`] and
/// [`RandomForest::predict_votes`], except on NaN rows, which answer
/// for the scalar walk of the engine's NaN family ([`nan_reference`];
/// `vm-float` is its own).
fn sink_reference(
    forest: &RandomForest,
    data: &Dataset,
    kind: EngineKind,
    rows: &[Vec<f32>],
) -> (Vec<u32>, Vec<Vec<u32>>) {
    let half = match kind {
        EngineKind::SimdF16(compare) => {
            Some(HalfForest::compile(forest, compare).expect("compiles"))
        }
        _ => None,
    };
    let nan_walk: RowVotes = match nan_reference(kind) {
        Some(EngineKind::Scalar(backend)) => {
            let scalar = CompiledForest::compile(forest, backend, Some(data)).expect("compiles");
            Box::new(move |row| scalar.predict_votes(row))
        }
        Some(EngineKind::Vm(VmVariant::NativeFloat)) | None => {
            let vm = VmForest::compile(forest, VmVariant::NativeFloat);
            Box::new(move |row| vm.run_votes(row).expect("runs").0)
        }
        Some(other) => unreachable!("{other} is no scalar reference"),
    };
    rows.iter()
        .map(|row| match &half {
            Some(half) => (half.predict(row), half.predict_votes(row)),
            None if row.iter().any(|x| x.is_nan()) => {
                let votes = nan_walk(row);
                (majority_vote(&votes), votes)
            }
            None => (forest.predict_majority(row), forest.predict_votes(row)),
        })
        .unzip()
}

/// Both sink forms of every registry engine equal the family reference
/// at every block fill that matters: one and two rows, either side of
/// [`LANE_CROSSOVER`] (where the lane engines switch from the per-row
/// walk to the lane kernel) and around a full 64-row block, at one and
/// three threads. Each matrix is three blocks of `fill` rows plus a
/// one-row tail, so a worker span mixes a full block with a lone row.
#[test]
fn both_sinks_equal_the_family_reference_at_every_fill() {
    let (data, forest) = adversarial_model(67);
    let pool = adversarial_pool(&data, &forest);
    let n_classes = forest.n_classes();
    let builder = EngineBuilder::new(&forest).profile_data(&data);
    let fills = [
        1,
        2,
        LANE_CROSSOVER - 1,
        LANE_CROSSOVER,
        LANE_CROSSOVER + 1,
        63,
        64,
        65,
    ];
    for engine in builder.build_all().expect("all engines build") {
        let (classes, votes) = sink_reference(&forest, &data, engine.kind(), &pool);
        for fill in fills {
            let pick: Vec<usize> = (0..3 * fill + 1)
                .map(|i| (fill * 7 + i) % pool.len())
                .collect();
            let rows: Vec<Vec<f32>> = pick.iter().map(|&i| pool[i].clone()).collect();
            let matrix = matrix_of(&rows, forest.n_features());
            let want_classes: Vec<u32> = pick.iter().map(|&i| classes[i]).collect();
            let want_votes: Vec<u32> = pick.iter().flat_map(|&i| votes[i].clone()).collect();
            for threads in [1usize, 3] {
                let opts = BatchOptions::default().block_samples(fill).threads(threads);
                let mut got = vec![u32::MAX; rows.len()];
                engine.score(&matrix, &opts, Sink::Classes(&mut got));
                assert_eq!(
                    got,
                    want_classes,
                    "{} classes at fill {fill}, threads {threads}",
                    engine.name()
                );
                let mut got = vec![u32::MAX; rows.len() * n_classes];
                engine.score(&matrix, &opts, Sink::Votes(&mut got));
                assert_eq!(
                    got,
                    want_votes,
                    "{} votes at fill {fill}, threads {threads}",
                    engine.name()
                );
            }
        }
    }
}

/// Trees that fit the f32 node formats but not binary16's 16-bit
/// fields: the f16 engines refuse to build and name the offending node,
/// while `flint` and `simd` build and answer as `predict_majority`.
#[test]
fn binary16_compile_errors_name_the_offending_node() {
    let leaf = |class: u32| Node::Leaf {
        class,
        counts: if class == 0 { vec![1, 0] } else { vec![0, 1] },
    };
    // A split on feature 65 535 collides with the binary16 leaf marker.
    let wide = DecisionTree::new(
        vec![
            Node::Split {
                feature: 65_535,
                threshold: 0.0,
                left: NodeId(1),
                right: NodeId(2),
            },
            leaf(0),
            leaf(1),
        ],
        65_536,
        2,
    )
    .expect("valid tree");
    let wide_rows: Vec<Vec<f32>> = [-1.0f32, 1.0]
        .iter()
        .map(|&x| {
            let mut row = vec![0.0; 65_536];
            row[65_535] = x;
            row
        })
        .collect();
    // A full depth-16 tree in heap order: 131 071 nodes, node i's
    // children at 2i + 1 and 2i + 2, so node 32 767 is the first whose
    // child position (65 535) does not fit below the 16-bit leaf marker.
    const DEPTH: u32 = 16;
    let internal = (1u32 << DEPTH) - 1;
    let nodes = (0..2 * internal + 1)
        .map(|i| {
            if i < internal {
                Node::Split {
                    feature: (i + 1).ilog2(),
                    threshold: 0.0,
                    left: NodeId(2 * i + 1),
                    right: NodeId(2 * i + 2),
                }
            } else {
                leaf(i % 2)
            }
        })
        .collect();
    let deep = DecisionTree::new(nodes, DEPTH as usize, 2).expect("valid tree");
    let mut state = 0x2545_f491_u32;
    let deep_rows: Vec<Vec<f32>> = (0..64)
        .map(|_| {
            (0..DEPTH)
                .map(|_| {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    if state >> 31 == 0 {
                        -1.0
                    } else {
                        1.0
                    }
                })
                .collect()
        })
        .collect();
    for (tree, rows, offending) in [
        (
            wide,
            wide_rows,
            CompileTreeError::FeatureTooLarge { node: NodeId(0) },
        ),
        (
            deep,
            deep_rows,
            CompileTreeError::IndexOverflow {
                node: NodeId(32_767),
            },
        ),
    ] {
        let forest = RandomForest::from_trees(vec![tree]);
        let builder = EngineBuilder::new(&forest);
        for compare in [HalfCompare::Flint, HalfCompare::Float] {
            match builder.build(EngineKind::SimdF16(compare)) {
                Err(BuildEngineError::Compile(e)) => assert_eq!(e, offending, "{compare:?}"),
                other => panic!("{compare:?}: expected {offending}, got {other:?}"),
            }
        }
        let matrix = matrix_of(&rows, forest.n_features());
        let reference: Vec<u32> = rows.iter().map(|r| forest.predict_majority(r)).collect();
        for name in ["flint", "simd"] {
            let engine = builder
                .build(EngineKind::parse(name).expect("registered"))
                .expect("f32 node formats hold the tree");
            assert_eq!(engine.predict_matrix(&matrix), reference, "{name}");
        }
    }
}

/// The two JIT registry kinds, targeted explicitly below. The generic
/// registry-driven tests above already cover them; these tests add the
/// JIT's own failure surfaces: rel32 patch distances, page-boundary
/// crossings, degenerate programs, and the tier fixed at build.
const JIT_KINDS: [EngineKind; 2] = [
    EngineKind::Jit(JitCompare::Flint),
    EngineKind::Jit(JitCompare::Float),
];

/// The tier a JIT engine must report straight after build: native on
/// x86-64 Linux, fallback under [`FORCE_FALLBACK_ENV`]; `None`
/// elsewhere, where only the fallback tier exists.
fn expected_tier() -> Option<&'static str> {
    let forced = std::env::var_os(FORCE_FALLBACK_ENV).is_some_and(|v| !v.is_empty());
    cfg!(all(target_arch = "x86_64", target_os = "linux")).then_some(if forced {
        "fallback tier"
    } else {
        "native tier"
    })
}

/// Deep model: thousands of split nodes, so emitted programs run far
/// past 255 instructions, rel32 branch fixups span whole subtrees, and
/// the packed forest code crosses 4 KiB page boundaries.
fn deep_model(seed: u64) -> (Dataset, RandomForest) {
    let data = SynthSpec::new(700, 6, 4)
        .cluster_std(1.6)
        .negative_fraction(0.5)
        .seed(seed)
        .generate();
    let forest = RandomForest::fit(&data, &ForestConfig::grid(8, 14)).expect("trainable");
    (data, forest)
}

/// Deep unbalanced programs, scored twice: the first pass runs the
/// freshly built code cold (every page and branch executed for the
/// first time), the second hot. The engine must report the tier this
/// build and environment call for before it scores a row (native code
/// on x86-64 Linux, interpreter fallback elsewhere or under
/// [`FORCE_FALLBACK_ENV`]), and both passes must be bit-identical to
/// the forest's majority vote.
#[test]
fn jit_kinds_agree_on_deep_programs_cold_and_hot() {
    let (data, forest) = deep_model(51);
    let total_nodes: usize = forest.trees().iter().map(|t| t.nodes().len()).sum();
    assert!(
        total_nodes > 255,
        "model too small to cross instruction/page boundaries: {total_nodes} nodes"
    );
    let matrix = FeatureMatrix::from_dataset(&data);
    let reference = forest.predict_dataset_majority(&data);
    let builder = EngineBuilder::new(&forest).profile_data(&data);
    for kind in JIT_KINDS {
        let engine = builder.build(kind).expect("builds");
        if let Some(tier) = expected_tier() {
            assert!(
                engine.describe().contains(tier),
                "{} should serve the {tier} once built: {}",
                engine.name(),
                engine.describe()
            );
        }
        let cold_pass = engine.predict_matrix(&matrix);
        assert_eq!(cold_pass, reference, "{} cold pass", engine.name());
        let hot_pass = engine.predict_matrix(&matrix);
        assert_eq!(hot_pass, reference, "{} hot pass", engine.name());
    }
}

/// Single-node, leaf-only trees: training data whose every label is
/// the same class leaves no split with gain, so every tree collapses to
/// a bare `Ret` program — the smallest emittable function (no loads, no
/// compares, no branches to patch).
#[test]
fn jit_kinds_handle_leaf_only_trees() {
    let rows: Vec<(Vec<f32>, u32)> = (0..60)
        .map(|i| (vec![i as f32, -(i as f32), 0.5 * i as f32], 1))
        .collect();
    let one_class = Dataset::from_rows(3, 2, rows).expect("consistent rows");
    let forest = RandomForest::fit(&one_class, &ForestConfig::grid(3, 4)).expect("trainable");
    assert!(
        forest.trees().iter().all(|t| t.nodes().len() == 1),
        "pure training data must collapse to leaf-only trees"
    );
    let matrix = FeatureMatrix::from_dataset(&one_class);
    let reference = forest.predict_dataset_majority(&one_class);
    let builder = EngineBuilder::new(&forest).profile_data(&one_class);
    for kind in JIT_KINDS {
        let engine = builder.build(kind).expect("builds");
        assert_eq!(
            engine.predict_matrix(&matrix),
            reference,
            "{}",
            engine.name()
        );
    }
}

/// The adversarial-column battery aimed at the compiled JIT tier:
/// threshold ±1-ulp neighbours, signed zeros, subnormals and
/// infinities, scored where the engine was built native, so the
/// emitted compare/branch templates (not the interpreter) decide every
/// boundary.
#[test]
fn jit_kinds_agree_on_adversarial_columns_when_hot() {
    let (data, forest) = adversarial_model(53);
    let n_features = forest.n_features();
    let mut specials: Vec<f32> = vec![
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
    ];
    for t in forest.trees().iter().flat_map(|t| t.thresholds()).take(32) {
        specials.push(t);
        specials.push(f32::from_bits(t.to_bits().wrapping_add(1)));
        specials.push(f32::from_bits(t.to_bits().wrapping_sub(1)));
    }
    specials.retain(|v| !v.is_nan());
    let mut rows: Vec<Vec<f32>> = Vec::new();
    for (i, &s) in specials.iter().enumerate() {
        let mut row = data.sample(i % data.n_samples()).to_vec();
        row[i % n_features] = s;
        rows.push(row);
        rows.push(vec![s; n_features]);
    }
    let matrix = matrix_of(&rows, n_features);
    let reference: Vec<u32> = rows.iter().map(|r| forest.predict_majority(r)).collect();
    let builder = EngineBuilder::new(&forest).profile_data(&data);
    for kind in JIT_KINDS {
        let engine = builder.build(kind).expect("builds");
        if let Some(tier) = expected_tier() {
            assert!(engine.describe().contains(tier), "{}", engine.name());
        }
        for block in [1usize, 8, 64] {
            let opts = BatchOptions::default().block_samples(block);
            assert_eq!(
                engine.predict_batch(&matrix, &opts),
                reference,
                "{} diverges hot at block {block}",
                engine.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any forest, any dataset, any batch options in the practical
    /// envelope: every registered engine is indistinguishable from the
    /// forest's majority vote.
    #[test]
    fn every_engine_is_bit_identical_under_random_options(
        seed in 0u64..64,
        depth in 1usize..9,
        n_trees in 1usize..8,
        block in 1usize..200,
        threads in 1usize..6,
    ) {
        let data = SynthSpec::new(90, 4, 3)
            .cluster_std(1.1)
            .negative_fraction(0.5)
            .seed(seed)
            .generate();
        let forest =
            RandomForest::fit(&data, &ForestConfig::grid(n_trees, depth)).expect("trainable");
        let matrix = FeatureMatrix::from_dataset(&data);
        let opts = BatchOptions {
            block_samples: block,
            threads,
        };
        let builder = EngineBuilder::new(&forest).profile_data(&data).options(opts);
        for engine in builder.build_all().expect("all engines build") {
            let reference = family_reference_dataset(&forest, engine.kind(), &data);
            prop_assert_eq!(
                engine.predict_matrix(&matrix),
                reference,
                "{}",
                engine.name()
            );
        }
    }

    /// Adversarial bit patterns (both zeros, denormals, infinities):
    /// engines agree sample-for-sample through `predict_one`.
    #[test]
    fn engines_agree_on_adversarial_bit_patterns(
        seed in 0u64..32,
        raw in proptest::collection::vec(any::<u32>(), 4),
    ) {
        let features: Vec<f32> = raw
            .iter()
            .map(|&b| {
                let v = f32::from_bits(b);
                if v.is_nan() { 0.0 } else { v }
            })
            .collect();
        let data = SynthSpec::new(100, 4, 3)
            .negative_fraction(0.6)
            .seed(seed)
            .generate();
        let forest = RandomForest::fit(&data, &ForestConfig::grid(4, 10)).expect("trainable");
        let want = forest.predict_majority(&features);
        let builder = EngineBuilder::new(&forest).profile_data(&data);
        for engine in builder.build_all().expect("all engines build") {
            // `predict_one` on the f16 engines *is* the family's
            // scalar reference, so diffing it against itself proves
            // nothing — the exact engines are the ones under test.
            if engine.kind().is_exact() {
                prop_assert_eq!(engine.predict_one(&features), want, "{}", engine.name());
            }
        }
    }

    /// Features biased toward *exact split values* (and their ±1-ulp
    /// neighbours): every sample lands on or next to a comparison
    /// boundary, so an engine whose compare is `<` instead of `<=` —
    /// or whose lane blend picks the wrong child on equality — cannot
    /// hide. The whole batch goes through `predict_batch`; a lane
    /// engine runs its lane kernel only on a block of at least
    /// [`LANE_CROSSOVER`] rows, which block 64 gives a batch of 14 to
    /// 47 rows.
    #[test]
    fn engines_agree_on_threshold_equal_batches(
        seed in 0u64..12,
        picks in proptest::collection::vec(
            proptest::collection::vec((0usize..1_000_000, -1i32..=1), 4),
            1..48,
        ),
    ) {
        let (data, forest) = adversarial_model(seed);
        let thresholds: Vec<f32> = forest
            .trees()
            .iter()
            .flat_map(|t| t.thresholds())
            .collect();
        prop_assume!(!thresholds.is_empty());
        let rows: Vec<Vec<f32>> = picks
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&(i, ulp)| {
                        let t = thresholds[i % thresholds.len()];
                        let v = f32::from_bits(t.to_bits().wrapping_add_signed(ulp));
                        // A ulp step off ±MAX or a subnormal edge can
                        // land on inf (fine) but never on NaN here; keep
                        // the guard anyway so the reference stays IEEE.
                        if v.is_nan() { t } else { v }
                    })
                    .collect()
            })
            .collect();
        let matrix = matrix_of(&rows, forest.n_features());
        let builder = EngineBuilder::new(&forest).profile_data(&data);
        for engine in builder.build_all().expect("all engines build") {
            let reference = family_reference(&forest, engine.kind(), &rows);
            for block in [1usize, 8, 64] {
                let opts = BatchOptions::default().block_samples(block);
                prop_assert_eq!(
                    engine.predict_batch(&matrix, &opts),
                    reference.clone(),
                    "{} at block {}",
                    engine.name(),
                    block
                );
            }
        }
    }
}
