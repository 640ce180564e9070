//! The unified inference engine layer: one [`Predictor`] trait over
//! every prediction path in the workspace, and the [`EngineKind`]
//! registry that names, describes and builds them.
//!
//! The paper's point is that FLInt is a *drop-in replacement*: swapping
//! float comparisons for integer comparisons changes no prediction.
//! Before this module, demonstrating that required five incompatible
//! APIs (`CompiledForest::predict`, the [`BatchEngine`] blocked walk,
//! `QsForest` QuickScorer traversal, the `VmForest` instruction-level
//! interpreter, plus the softfloat baseline), and every consumer — CLI,
//! benches, examples, equivalence tests — re-implemented the wiring.
//! Here they are all one thing:
//!
//! * [`Predictor`] — `predict_votes`, the one scoring method an engine
//!   writes, plus `name` / `describe` metadata; every engine answers by
//!   the same majority vote over those votes
//!   ([`flint_forest::RandomForest::predict_majority`]), so all
//!   registered engines are interchangeable prediction-for-prediction;
//! * [`EngineKind`] — the engine space: the five [`BackendKind`]
//!   if-else configurations × {scalar, blocked}, QuickScorer in both
//!   comparison modes, the three codegen VM variants, the 8-wide
//!   SIMD lane engine in both comparison modes, the template JIT
//!   in both comparison modes, and the half-precision lane engine in
//!   both comparison modes (21 engines;
//!   [`BackendKind::PAPER_SET`] maps to [`EngineKind::PAPER_SET`], a
//!   subset of this space);
//! * [`EngineBuilder`] — turns `(RandomForest, EngineKind,
//!   BatchOptions)` into a boxed engine, owning its compiled artifacts.
//!
//! This is the seam consumers plug into: `flint serve` scores each
//! chunk of arrived rows as one [`FeatureMatrix`] through any
//! `Predictor`; the SIMD lane kernels arrived as the
//! `simd`/`simd-float` `EngineKind`s with zero consumer changes; a
//! `flint route` shard builds any engine on a tree span and answers
//! with its `predict_votes` histogram.
//!
//! ```
//! use flint_data::{synth::SynthSpec, FeatureMatrix};
//! use flint_exec::engine::{EngineBuilder, EngineKind};
//! use flint_forest::{ForestConfig, RandomForest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = SynthSpec::new(150, 4, 3).generate();
//! let forest = RandomForest::fit(&data, &ForestConfig::grid(5, 7))?;
//! let matrix = FeatureMatrix::from_dataset(&data);
//! let builder = EngineBuilder::new(&forest).profile_data(&data);
//! let reference = forest.predict_dataset_majority(&data);
//! for kind in EngineKind::ALL {
//!     let engine = builder.build(kind)?;
//!     // `is_exact` engines are bit-identical to the f32 majority
//!     // vote; the f16 engines answer for their own binary16 family.
//!     if kind.is_exact() {
//!         assert_eq!(engine.predict_matrix(&matrix), reference, "{}", engine.name());
//!     }
//! }
//! # Ok(())
//! # }
//! ```

use crate::backend::{BackendKind, CompiledForest};
// `score_spans` is the batch module's span partitioner: reusing it here
// means every engine parallelizes over identical worker boundaries by
// construction.
use crate::batch::{score_spans, BatchEngine, BatchOptions};
use crate::compile::CompileTreeError;
use crate::dispatch::KernelPath;
use crate::f16::{HalfCompare, HalfForest};
use crate::jit::{JitCompare, TieredJit};
use crate::simd::{LaneEngine, SimdCompare};
use flint_codegen::{VmForest, VmVariant};
use flint_data::{Dataset, FeatureMatrix};
use flint_forest::RandomForest;
use flint_qscorer::{QsCompare, QsForest};

/// A forest inference engine: one of the registered prediction paths,
/// compiled and ready to score.
///
/// All engines implement the same majority-vote aggregation (ties to
/// the lower class index), so any two registered engines of the same
/// precision built from the same forest return bit-identical labels on
/// every input — the workspace-wide generalization of the paper's
/// "accuracy unchanged" claim, asserted by
/// `tests/engine_equivalence.rs`. The binary16 engines
/// ([`EngineKind::is_exact`] is false) answer for their own f16
/// comparison family instead: bit-identical to [`HalfForest::predict`].
///
/// `Send + Sync` are explicit supertraits: `predict_batch` shares one
/// engine across its scoring workers, so thread-unsafe engines are
/// ruled out at the trait boundary, not discovered at a spawn site.
pub trait Predictor: core::fmt::Debug + Send + Sync {
    /// Which registry entry this engine is.
    fn kind(&self) -> EngineKind;

    /// Expected feature vector length.
    fn n_features(&self) -> usize;

    /// Number of classes.
    fn n_classes(&self) -> usize;

    /// The batch options this engine was built with (used by
    /// [`predict_matrix`](Self::predict_matrix)).
    fn options(&self) -> BatchOptions;

    /// The per-class vote histogram of one feature vector: `votes[c]`
    /// trees voted for class `c`, summing to the engine's tree count.
    /// The one scoring method every engine writes.
    ///
    /// This is the sharding seam of distributed inference: an engine
    /// built on a tree span reports its histogram, disjoint spans merge
    /// by element-wise addition, and the canonical
    /// `flint_forest::metrics::majority_vote` tie-break over the merged
    /// histogram is bit-identical to the single-node answer.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    fn predict_votes(&self, features: &[f32]) -> Vec<u32>;

    /// Scores one feature vector: the majority vote of
    /// [`predict_votes`](Self::predict_votes), so the two agree by
    /// construction.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    fn predict_one(&self, features: &[f32]) -> u32 {
        flint_forest::metrics::majority_vote(&self.predict_votes(features))
    }

    /// Scores every sample of `matrix` under explicit batch options,
    /// returning one class per sample: by default row by row through
    /// [`predict_one`](Self::predict_one), over the worker spans that
    /// `threads` and `block_samples` define. Only the engines with a
    /// batch kernel (blocked, lane, QuickScorer) override it.
    ///
    /// # Panics
    ///
    /// Panics if `matrix.n_features()` differs from the model's.
    fn predict_batch(&self, matrix: &FeatureMatrix, opts: &BatchOptions) -> Vec<u32> {
        assert_eq!(
            matrix.n_features(),
            self.n_features(),
            "feature matrix width"
        );
        let mut out = vec![0u32; matrix.n_samples()];
        score_spans(opts, &mut out, |start, span| {
            let mut row = vec![0.0f32; matrix.n_features()];
            for (k, slot) in span.iter_mut().enumerate() {
                matrix.gather_row(start + k, &mut row);
                *slot = self.predict_one(&row);
            }
        });
        out
    }

    /// The engine's registry name (stable, CLI-addressable).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// One-line human-readable description of the execution strategy.
    fn describe(&self) -> &'static str {
        self.kind().describe()
    }

    /// [`predict_batch`](Self::predict_batch) under the engine's own
    /// [`options`](Self::options).
    fn predict_matrix(&self, matrix: &FeatureMatrix) -> Vec<u32> {
        self.predict_batch(matrix, &self.options())
    }

    /// Convenience: transpose `data` and run
    /// [`predict_matrix`](Self::predict_matrix).
    ///
    /// # Panics
    ///
    /// Panics if the dataset's feature count differs from the model's.
    fn predict_dataset(&self, data: &Dataset) -> Vec<u32> {
        self.predict_matrix(&FeatureMatrix::from_dataset(data))
    }
}

/// One entry of the engine registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// One of the five if-else configurations, scored one sample at a
    /// time through [`CompiledForest::predict`].
    Scalar(BackendKind),
    /// The same configuration through the blocked, fill-aware
    /// [`BatchEngine`] walk.
    Blocked(BackendKind),
    /// QuickScorer per-feature threshold scans over leaf bitsets.
    QuickScorer(QsCompare),
    /// The instruction-level tree VM of `flint-codegen` (the executable
    /// stand-in for the paper's assembly backend).
    Vm(VmVariant),
    /// The 8-wide lane-parallel SIMD traversal ([`crate::simd`]): lane
    /// groups of samples descend each tree through branchless
    /// compare/blend steps, with AVX2 kernels on x86-64 picked at run
    /// time.
    Simd(SimdCompare),
    /// The template JIT ([`TieredJit`]): tree programs emitted as
    /// x86-64 machine code in executable pages when the engine is built
    /// (x86-64 Linux), falling back to the interpreter bit-identically
    /// where emitted code cannot run.
    Jit(JitCompare),
    /// The half-precision lane engine ([`crate::f16`]): the same
    /// wave-interleaved branchless walk over 8-byte binary16 nodes and
    /// `u16` feature slabs — half the memory traffic per level. Its
    /// own comparison family: bit-identical to the scalar f16 walk
    /// ([`HalfForest::predict`]), *not* to the f32 majority vote
    /// (see [`EngineKind::is_exact`]).
    SimdF16(HalfCompare),
}

impl EngineKind {
    /// Every registered engine, in registry order: the five scalar
    /// if-else configurations, their blocked counterparts, QuickScorer
    /// in both comparison modes, the three VM variants, the SIMD
    /// lane engine in both comparison modes, the template JIT in
    /// both comparison modes, and the half-precision lane engine in
    /// both comparison modes.
    pub const ALL: [EngineKind; 21] = [
        EngineKind::Scalar(BackendKind::Naive),
        EngineKind::Scalar(BackendKind::Cags),
        EngineKind::Scalar(BackendKind::Flint),
        EngineKind::Scalar(BackendKind::CagsFlint),
        EngineKind::Scalar(BackendKind::SoftFloat),
        EngineKind::Blocked(BackendKind::Naive),
        EngineKind::Blocked(BackendKind::Cags),
        EngineKind::Blocked(BackendKind::Flint),
        EngineKind::Blocked(BackendKind::CagsFlint),
        EngineKind::Blocked(BackendKind::SoftFloat),
        EngineKind::QuickScorer(QsCompare::Flint),
        EngineKind::QuickScorer(QsCompare::Float),
        EngineKind::Vm(VmVariant::Flint),
        EngineKind::Vm(VmVariant::NativeFloat),
        EngineKind::Vm(VmVariant::SoftFloat),
        EngineKind::Simd(SimdCompare::Flint),
        EngineKind::Simd(SimdCompare::Float),
        EngineKind::Jit(JitCompare::Flint),
        EngineKind::Jit(JitCompare::Float),
        EngineKind::SimdF16(HalfCompare::Flint),
        EngineKind::SimdF16(HalfCompare::Float),
    ];

    /// The four configurations of the paper's Fig. 3, as engines —
    /// [`BackendKind::PAPER_SET`] embedded in the engine space.
    pub const PAPER_SET: [EngineKind; 4] = [
        EngineKind::Scalar(BackendKind::Naive),
        EngineKind::Scalar(BackendKind::Cags),
        EngineKind::Scalar(BackendKind::Flint),
        EngineKind::Scalar(BackendKind::CagsFlint),
    ];

    /// The stable registry name (what the CLI accepts).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Scalar(BackendKind::Naive) => "naive",
            EngineKind::Scalar(BackendKind::Cags) => "cags",
            EngineKind::Scalar(BackendKind::Flint) => "flint",
            EngineKind::Scalar(BackendKind::CagsFlint) => "cags-flint",
            EngineKind::Scalar(BackendKind::SoftFloat) => "softfloat",
            EngineKind::Blocked(BackendKind::Naive) => "naive-blocked",
            EngineKind::Blocked(BackendKind::Cags) => "cags-blocked",
            EngineKind::Blocked(BackendKind::Flint) => "flint-blocked",
            EngineKind::Blocked(BackendKind::CagsFlint) => "cags-flint-blocked",
            EngineKind::Blocked(BackendKind::SoftFloat) => "softfloat-blocked",
            EngineKind::QuickScorer(QsCompare::Flint) => "quickscorer",
            EngineKind::QuickScorer(QsCompare::Float) => "quickscorer-float",
            EngineKind::Vm(VmVariant::Flint) => "vm-flint",
            EngineKind::Vm(VmVariant::NativeFloat) => "vm-float",
            EngineKind::Vm(VmVariant::SoftFloat) => "vm-softfloat",
            EngineKind::Simd(SimdCompare::Flint) => "simd",
            EngineKind::Simd(SimdCompare::Float) => "simd-float",
            EngineKind::Jit(JitCompare::Flint) => "jit",
            EngineKind::Jit(JitCompare::Float) => "jit-float",
            EngineKind::SimdF16(HalfCompare::Flint) => "simd-f16",
            EngineKind::SimdF16(HalfCompare::Float) => "simd-f16-float",
        }
    }

    /// One-line description of the execution strategy.
    pub fn describe(self) -> &'static str {
        match self {
            EngineKind::Scalar(BackendKind::Naive) => {
                "scalar if-else trees, float compares, arena layout"
            }
            EngineKind::Scalar(BackendKind::Cags) => {
                "scalar if-else trees, float compares, CAGS cache-aware layout"
            }
            EngineKind::Scalar(BackendKind::Flint) => {
                "scalar if-else trees, FLInt integer compares, arena layout"
            }
            EngineKind::Scalar(BackendKind::CagsFlint) => {
                "scalar if-else trees, FLInt integer compares, CAGS layout"
            }
            EngineKind::Scalar(BackendKind::SoftFloat) => {
                "scalar if-else trees, software float compares (no-FPU baseline)"
            }
            EngineKind::Blocked(BackendKind::Naive) => {
                "tree-block x sample-block interleaved walk, float compares"
            }
            EngineKind::Blocked(BackendKind::Cags) => {
                "tree-block x sample-block interleaved walk, float compares, CAGS layout"
            }
            EngineKind::Blocked(BackendKind::Flint) => {
                "tree-block x sample-block interleaved walk, FLInt integer compares"
            }
            EngineKind::Blocked(BackendKind::CagsFlint) => {
                "tree-block x sample-block interleaved walk, FLInt compares, CAGS layout"
            }
            EngineKind::Blocked(BackendKind::SoftFloat) => {
                "tree-block x sample-block interleaved walk, software float compares"
            }
            EngineKind::QuickScorer(QsCompare::Flint) => {
                "QuickScorer per-feature threshold scans, FLInt order-key compares"
            }
            EngineKind::QuickScorer(QsCompare::Float) => {
                "QuickScorer per-feature threshold scans, float compares"
            }
            EngineKind::Vm(VmVariant::Flint) => {
                "instruction-level tree VM, integer loads and compares only"
            }
            EngineKind::Vm(VmVariant::NativeFloat) => {
                "instruction-level tree VM, float loads and fcmp"
            }
            EngineKind::Vm(VmVariant::SoftFloat) => {
                "instruction-level tree VM, software float comparison calls"
            }
            EngineKind::Simd(SimdCompare::Flint) => {
                "8-wide SIMD lane traversal, FLInt integer compares, branchless blend"
            }
            EngineKind::Simd(SimdCompare::Float) => {
                "8-wide SIMD lane traversal, float compares, branchless blend"
            }
            EngineKind::Jit(JitCompare::Flint) => {
                "tiered template JIT to x86-64 machine code, FLInt integer compares"
            }
            EngineKind::Jit(JitCompare::Float) => {
                "tiered template JIT to x86-64 machine code, float ucomiss compares"
            }
            EngineKind::SimdF16(HalfCompare::Flint) => {
                "8-wide lane traversal over 8-byte binary16 nodes, FLInt 16-bit compares"
            }
            EngineKind::SimdF16(HalfCompare::Float) => {
                "8-wide lane traversal over 8-byte binary16 nodes, widen-to-f32 compares"
            }
        }
    }

    /// Whether the engine is bit-identical to the f32 forest's
    /// majority vote on every input — true for all full-precision
    /// engines (the workspace-wide form of the paper's "accuracy
    /// unchanged" claim), false for the binary16 engines, which
    /// quantize thresholds and features to half precision and are
    /// instead bit-identical to their own scalar f16 reference
    /// ([`HalfForest::predict`]). Differential suites use this to pick
    /// the right reference per engine.
    pub fn is_exact(self) -> bool {
        !matches!(self, EngineKind::SimdF16(_))
    }

    /// Looks a registry name up (the inverse of
    /// [`name`](Self::name)), ignoring ASCII case. Returns `None` for
    /// unknown names; use the [`FromStr`](core::str::FromStr) impl
    /// when the caller needs an error that lists every valid name.
    pub fn parse(name: &str) -> Option<EngineKind> {
        EngineKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }
}

/// Error parsing an engine name: the offending input plus the full
/// registry, so a CLI typo comes back with every valid choice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseEngineKindError {
    /// The name that matched nothing.
    pub unknown: String,
}

impl core::fmt::Display for ParseEngineKindError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let names: Vec<&str> = EngineKind::ALL.iter().map(|k| k.name()).collect();
        write!(
            f,
            "unknown engine {:?} (registered engines: {})",
            self.unknown,
            names.join("|")
        )
    }
}

impl std::error::Error for ParseEngineKindError {}

impl core::str::FromStr for EngineKind {
    type Err = ParseEngineKindError;

    /// Case-insensitive registry lookup; the error message lists every
    /// registered name.
    fn from_str(name: &str) -> Result<Self, Self::Err> {
        EngineKind::parse(name).ok_or_else(|| ParseEngineKindError {
            unknown: name.to_owned(),
        })
    }
}

impl core::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error building an engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum BuildEngineError {
    /// FLInt threshold preparation failed while compiling the if-else
    /// trees.
    Compile(CompileTreeError),
}

impl core::fmt::Display for BuildEngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Compile(e) => write!(f, "engine compilation failed: {e}"),
        }
    }
}

impl std::error::Error for BuildEngineError {}

impl From<CompileTreeError> for BuildEngineError {
    fn from(e: CompileTreeError) -> Self {
        Self::Compile(e)
    }
}

/// The engine registry's constructor: binds a trained forest (plus
/// optional CAGS profiling data and default batch options) and builds
/// any [`EngineKind`] into a boxed [`Predictor`] owning its compiled
/// artifacts — the borrowed forest can be dropped afterwards.
///
/// # Examples
///
/// ```
/// use flint_data::synth::SynthSpec;
/// use flint_exec::engine::{EngineBuilder, EngineKind};
/// use flint_exec::BatchOptions;
/// use flint_forest::{ForestConfig, RandomForest};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = SynthSpec::new(120, 4, 2).generate();
/// let forest = RandomForest::fit(&data, &ForestConfig::grid(4, 6))?;
/// let engine = EngineBuilder::new(&forest)
///     .profile_data(&data)
///     .options(BatchOptions::default().threads(2))
///     .build(EngineKind::parse("flint-blocked").expect("registered"))?;
/// assert_eq!(engine.predict_one(data.sample(0)), forest.predict_majority(data.sample(0)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct EngineBuilder<'f> {
    forest: &'f RandomForest,
    profile: Option<&'f Dataset>,
    opts: BatchOptions,
}

impl<'f> EngineBuilder<'f> {
    /// Binds `forest` with no profiling data and default options.
    pub fn new(forest: &'f RandomForest) -> Self {
        Self {
            forest,
            profile: None,
            opts: BatchOptions::default(),
        }
    }

    /// Sets the dataset CAGS layouts profile branch probabilities on
    /// (pass the training set, as the paper does).
    #[must_use]
    pub fn profile_data(mut self, data: &'f Dataset) -> Self {
        self.profile = Some(data);
        self
    }

    /// Sets the default batch options engines are bound to.
    #[must_use]
    pub fn options(mut self, opts: BatchOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Builds one engine.
    ///
    /// # Errors
    ///
    /// [`BuildEngineError`] if FLInt threshold preparation fails.
    pub fn build(&self, kind: EngineKind) -> Result<Box<dyn Predictor>, BuildEngineError> {
        Ok(match kind {
            EngineKind::Scalar(backend) => Box::new(ScalarEngine {
                forest: CompiledForest::compile(self.forest, backend, self.profile)?,
                opts: self.opts,
            }),
            EngineKind::Blocked(backend) => Box::new(BlockedEngine {
                forest: CompiledForest::compile(self.forest, backend, self.profile)?,
                opts: self.opts,
            }),
            EngineKind::QuickScorer(compare) => Box::new(QuickScorerEngine {
                qs: QsForest::build(self.forest),
                compare,
                opts: self.opts,
            }),
            EngineKind::Vm(variant) => Box::new(VmEngine {
                vm: VmForest::compile(self.forest, variant),
                variant,
                n_features: self.forest.n_features(),
                opts: self.opts,
            }),
            // The lane engines resolve their kernel path (and any
            // FLINT_KERNEL override) once here, at engine build time.
            EngineKind::Simd(compare) => {
                Box::new(LaneEngine::simd(self.forest, compare, self.opts)?)
            }
            EngineKind::Jit(compare) => Box::new(JitEngine {
                tiered: TieredJit::new(self.forest, compare),
                opts: self.opts,
            }),
            EngineKind::SimdF16(compare) => Box::new(LaneEngine::simd_f16(
                HalfForest::compile(self.forest, compare)?,
                self.opts,
            )),
        })
    }

    /// Builds every engine of the registry, in registry order.
    ///
    /// # Errors
    ///
    /// [`BuildEngineError`] from the first engine that fails to build.
    pub fn build_all(&self) -> Result<Vec<Box<dyn Predictor>>, BuildEngineError> {
        EngineKind::ALL.iter().map(|&k| self.build(k)).collect()
    }
}

/// [`EngineKind::Scalar`]: the paper's measured shape — one sample at a
/// time through the flat if-else node arrays.
#[derive(Debug)]
struct ScalarEngine {
    forest: CompiledForest,
    opts: BatchOptions,
}

impl Predictor for ScalarEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Scalar(self.forest.kind())
    }

    fn n_features(&self) -> usize {
        self.forest.n_features()
    }

    fn n_classes(&self) -> usize {
        self.forest.n_classes()
    }

    fn options(&self) -> BatchOptions {
        self.opts
    }

    fn predict_votes(&self, features: &[f32]) -> Vec<u32> {
        self.forest.predict_votes(features)
    }
}

/// [`EngineKind::Blocked`]: the cache-blocked, fill-aware
/// [`BatchEngine`] walk. Classes and vote histograms come from the same
/// kernel: `predict_votes` is the walk over a one-row block, whose
/// trees it walks in groups.
#[derive(Debug)]
struct BlockedEngine {
    forest: CompiledForest,
    opts: BatchOptions,
}

impl Predictor for BlockedEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Blocked(self.forest.kind())
    }

    fn n_features(&self) -> usize {
        self.forest.n_features()
    }

    fn n_classes(&self) -> usize {
        self.forest.n_classes()
    }

    fn options(&self) -> BatchOptions {
        self.opts
    }

    fn predict_votes(&self, features: &[f32]) -> Vec<u32> {
        BatchEngine::new(&self.forest, self.opts).predict_votes(features)
    }

    fn predict_batch(&self, matrix: &FeatureMatrix, opts: &BatchOptions) -> Vec<u32> {
        BatchEngine::new(&self.forest, *opts).predict(matrix)
    }
}

/// [`EngineKind::QuickScorer`]: per-feature ascending threshold scans
/// over leaf reachability bitsets, with reusable scratch per worker.
#[derive(Debug)]
struct QuickScorerEngine {
    qs: QsForest,
    compare: QsCompare,
    opts: BatchOptions,
}

impl Predictor for QuickScorerEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::QuickScorer(self.compare)
    }

    fn n_features(&self) -> usize {
        self.qs.n_features()
    }

    fn n_classes(&self) -> usize {
        self.qs.n_classes()
    }

    fn options(&self) -> BatchOptions {
        self.opts
    }

    fn predict_votes(&self, features: &[f32]) -> Vec<u32> {
        self.qs
            .votes_with_scratch(features, self.compare, &mut self.qs.scratch())
            .to_vec()
    }

    fn predict_batch(&self, matrix: &FeatureMatrix, opts: &BatchOptions) -> Vec<u32> {
        assert_eq!(
            matrix.n_features(),
            self.qs.n_features(),
            "feature matrix width"
        );
        let mut out = vec![0u32; matrix.n_samples()];
        score_spans(opts, &mut out, |start, span| {
            // Per-worker scratch: bitsets, votes and the row buffer are
            // allocated once per span, not per sample.
            let mut scratch = self.qs.scratch();
            let mut row = vec![0.0f32; self.qs.n_features()];
            for (k, slot) in span.iter_mut().enumerate() {
                matrix.gather_row(start + k, &mut row);
                *slot = self
                    .qs
                    .predict_with_scratch(&row, self.compare, &mut scratch);
            }
        });
        out
    }
}

/// [`EngineKind::Vm`]: majority vote over per-tree bytecode programs
/// interpreted instruction by instruction (slow by design — it models
/// the paper's assembly backend for the cost simulator, but it is a
/// real prediction path and must agree with all the others).
#[derive(Debug)]
struct VmEngine {
    vm: VmForest,
    variant: VmVariant,
    n_features: usize,
    opts: BatchOptions,
}

impl Predictor for VmEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Vm(self.variant)
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn n_classes(&self) -> usize {
        self.vm.n_classes()
    }

    fn options(&self) -> BatchOptions {
        self.opts
    }

    fn predict_votes(&self, features: &[f32]) -> Vec<u32> {
        assert_eq!(features.len(), self.n_features, "feature vector length");
        // Programs compiled from validated trees never fault on a
        // correctly sized feature vector.
        self.vm
            .run_votes(features)
            .expect("compiled VM programs run to a return")
            .0
    }
}

/// [`EngineKind::Simd`] and [`EngineKind::SimdF16`]: the lane engine of
/// [`crate::simd`] — lane groups of samples walk each tree through
/// branchless compare/blend steps over 16-byte f32, 8-byte binary16 or
/// 4-byte heap nodes. `predict_votes` runs the family's scalar
/// reference; [`describe`](Predictor::describe) reports the kernel path
/// dispatched at build time. The other methods answer through
/// `LaneEngine`'s inherent methods of the same name.
impl Predictor for LaneEngine {
    fn kind(&self) -> EngineKind {
        LaneEngine::kind(self)
    }

    fn n_features(&self) -> usize {
        LaneEngine::n_features(self)
    }

    fn n_classes(&self) -> usize {
        LaneEngine::n_classes(self)
    }

    fn options(&self) -> BatchOptions {
        LaneEngine::options(self)
    }

    fn describe(&self) -> &'static str {
        lane_describe(LaneEngine::kind(self), self.kernel_path())
    }

    fn predict_votes(&self, features: &[f32]) -> Vec<u32> {
        LaneEngine::predict_votes(self, features)
    }

    fn predict_batch(&self, matrix: &FeatureMatrix, opts: &BatchOptions) -> Vec<u32> {
        self.predict(matrix, opts)
    }
}

/// The dispatch-aware description of a lane engine: its kind's
/// strategy line with the resolved kernel path appended in the stable
/// `[kernel <path>]` suffix log scrapers key on.
fn lane_describe(kind: EngineKind, path: KernelPath) -> &'static str {
    let [portable, avx2, neon] = match kind {
        EngineKind::Simd(SimdCompare::Flint) => [
            "8-wide SIMD lane traversal, FLInt integer compares, branchless blend [kernel portable]",
            "8-wide SIMD lane traversal, FLInt integer compares, branchless blend [kernel avx2]",
            "8-wide SIMD lane traversal, FLInt integer compares, branchless blend [kernel neon]",
        ],
        EngineKind::Simd(SimdCompare::Float) => [
            "8-wide SIMD lane traversal, float compares, branchless blend [kernel portable]",
            "8-wide SIMD lane traversal, float compares, branchless blend [kernel avx2]",
            "8-wide SIMD lane traversal, float compares, branchless blend [kernel neon]",
        ],
        EngineKind::SimdF16(HalfCompare::Flint) => [
            "8-wide lane traversal over 8-byte binary16 nodes, FLInt 16-bit compares [kernel portable]",
            "8-wide lane traversal over 8-byte binary16 nodes, FLInt 16-bit compares [kernel avx2]",
            "8-wide lane traversal over 8-byte binary16 nodes, FLInt 16-bit compares [kernel neon]",
        ],
        EngineKind::SimdF16(HalfCompare::Float) => [
            "8-wide lane traversal over 8-byte binary16 nodes, widen-to-f32 compares [kernel portable]",
            "8-wide lane traversal over 8-byte binary16 nodes, widen-to-f32 compares [kernel avx2]",
            "8-wide lane traversal over 8-byte binary16 nodes, widen-to-f32 compares [kernel neon]",
        ],
        _ => unreachable!("{kind} is not a lane engine"),
    };
    match path {
        KernelPath::Portable => portable,
        KernelPath::Avx2 => avx2,
        KernelPath::Neon => neon,
    }
}

/// [`EngineKind::Jit`]: the template JIT — the forest is compiled to
/// native x86-64 code when the engine is built, or served by the
/// interpreter where emitted code cannot run. Like the lane engines,
/// [`describe`](Predictor::describe) reports the path fixed at build:
/// the tier, so callers (and the fallback tests) can see whether
/// answers come from native code or the interpreter.
#[derive(Debug)]
struct JitEngine {
    tiered: TieredJit,
    opts: BatchOptions,
}

impl Predictor for JitEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Jit(self.tiered.compare())
    }

    fn n_features(&self) -> usize {
        self.tiered.n_features()
    }

    fn n_classes(&self) -> usize {
        self.tiered.n_classes()
    }

    fn options(&self) -> BatchOptions {
        self.opts
    }

    fn describe(&self) -> &'static str {
        self.tiered.describe()
    }

    fn predict_votes(&self, features: &[f32]) -> Vec<u32> {
        self.tiered.predict_votes(features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_data::synth::SynthSpec;
    use flint_forest::ForestConfig;

    fn setup() -> (Dataset, RandomForest) {
        let data = SynthSpec::new(180, 4, 3)
            .cluster_std(1.0)
            .negative_fraction(0.5)
            .seed(21)
            .generate();
        let forest = RandomForest::fit(&data, &ForestConfig::grid(5, 7)).expect("trainable");
        (data, forest)
    }

    /// Every engine's vote histogram sums to one vote per tree, feeds
    /// the canonical tie-break back to its own `predict_one`, and — for
    /// the exact engines — equals the reference forest's histogram. And
    /// the sharding contract: engines of the same kind built on a
    /// ragged tree-span partition produce histograms whose element-wise
    /// merge equals the full engine's, so a distributed merge is
    /// bit-identical to single-node inference.
    #[test]
    fn every_engine_votes_consistently_and_shards_merge_exactly() {
        let (data, forest) = setup();
        let builder = EngineBuilder::new(&forest).profile_data(&data);
        // Ragged on purpose: 5 trees split 2/1/2.
        let spans = [(0usize, 2usize), (2, 3), (3, 5)];
        let shard_forests: Vec<RandomForest> =
            spans.iter().map(|&(a, b)| forest.tree_span(a, b)).collect();
        for kind in EngineKind::ALL {
            let engine = builder.build(kind).expect("buildable");
            let shards: Vec<Box<dyn Predictor>> = shard_forests
                .iter()
                .map(|f| {
                    EngineBuilder::new(f)
                        .profile_data(&data)
                        .build(kind)
                        .expect("buildable")
                })
                .collect();
            for i in 0..40 {
                let x = data.sample(i);
                let votes = engine.predict_votes(x);
                assert_eq!(votes.len(), forest.n_classes(), "{}", kind.name());
                assert_eq!(
                    votes.iter().sum::<u32>() as usize,
                    forest.n_trees(),
                    "{} sample {i}",
                    kind.name()
                );
                assert_eq!(
                    flint_forest::metrics::majority_vote(&votes),
                    engine.predict_one(x),
                    "{} sample {i}",
                    kind.name()
                );
                if kind.is_exact() {
                    assert_eq!(votes, forest.predict_votes(x), "{} sample {i}", kind.name());
                }
                let mut merged = vec![0u32; forest.n_classes()];
                for shard in &shards {
                    flint_forest::votes::merge_votes(&mut merged, &shard.predict_votes(x));
                }
                assert_eq!(merged, votes, "{} sharded merge sample {i}", kind.name());
            }
        }
    }

    #[test]
    fn registry_names_are_unique_and_parse_round_trips() {
        let mut seen = std::collections::BTreeSet::new();
        for kind in EngineKind::ALL {
            assert!(seen.insert(kind.name()), "duplicate name {}", kind.name());
            assert_eq!(EngineKind::parse(kind.name()), Some(kind));
            assert!(!kind.describe().is_empty());
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(EngineKind::parse("warp-drive"), None);
    }

    /// The anti-drift guard for the hand-maintained `ALL` array. The
    /// `match` below enumerates every `(outer, inner)` combination
    /// with **no wildcard at any level**, so growing `EngineKind` *or*
    /// any of its payload enums (`BackendKind`, `QsCompare`,
    /// `VmVariant`, `SimdCompare`, `HalfCompare`) refuses to compile here until the
    /// new engine is added to the match — and the match arms double as
    /// the reconstruction of the full engine space that `ALL` and
    /// `parse` are then checked against, so forgetting to register the
    /// new engine fails the assertions below instead of silently
    /// shrinking every registry-driven differential suite.
    #[test]
    fn registry_covers_the_entire_engine_space() {
        fn in_space(kind: EngineKind) {
            match kind {
                EngineKind::Scalar(BackendKind::Naive)
                | EngineKind::Scalar(BackendKind::Cags)
                | EngineKind::Scalar(BackendKind::Flint)
                | EngineKind::Scalar(BackendKind::CagsFlint)
                | EngineKind::Scalar(BackendKind::SoftFloat)
                | EngineKind::Blocked(BackendKind::Naive)
                | EngineKind::Blocked(BackendKind::Cags)
                | EngineKind::Blocked(BackendKind::Flint)
                | EngineKind::Blocked(BackendKind::CagsFlint)
                | EngineKind::Blocked(BackendKind::SoftFloat)
                | EngineKind::QuickScorer(QsCompare::Flint)
                | EngineKind::QuickScorer(QsCompare::Float)
                | EngineKind::Vm(VmVariant::Flint)
                | EngineKind::Vm(VmVariant::NativeFloat)
                | EngineKind::Vm(VmVariant::SoftFloat)
                | EngineKind::Simd(SimdCompare::Flint)
                | EngineKind::Simd(SimdCompare::Float)
                | EngineKind::Jit(JitCompare::Flint)
                | EngineKind::Jit(JitCompare::Float)
                | EngineKind::SimdF16(HalfCompare::Flint)
                | EngineKind::SimdF16(HalfCompare::Float) => {}
            }
        }
        let space = [
            EngineKind::Scalar(BackendKind::Naive),
            EngineKind::Scalar(BackendKind::Cags),
            EngineKind::Scalar(BackendKind::Flint),
            EngineKind::Scalar(BackendKind::CagsFlint),
            EngineKind::Scalar(BackendKind::SoftFloat),
            EngineKind::Blocked(BackendKind::Naive),
            EngineKind::Blocked(BackendKind::Cags),
            EngineKind::Blocked(BackendKind::Flint),
            EngineKind::Blocked(BackendKind::CagsFlint),
            EngineKind::Blocked(BackendKind::SoftFloat),
            EngineKind::QuickScorer(QsCompare::Flint),
            EngineKind::QuickScorer(QsCompare::Float),
            EngineKind::Vm(VmVariant::Flint),
            EngineKind::Vm(VmVariant::NativeFloat),
            EngineKind::Vm(VmVariant::SoftFloat),
            EngineKind::Simd(SimdCompare::Flint),
            EngineKind::Simd(SimdCompare::Float),
            EngineKind::Jit(JitCompare::Flint),
            EngineKind::Jit(JitCompare::Float),
            EngineKind::SimdF16(HalfCompare::Flint),
            EngineKind::SimdF16(HalfCompare::Float),
        ];
        assert_eq!(space.len(), EngineKind::ALL.len());
        for kind in space {
            in_space(kind);
            assert!(
                EngineKind::ALL.contains(&kind),
                "{} missing from EngineKind::ALL",
                kind.name()
            );
            assert_eq!(EngineKind::parse(kind.name()), Some(kind));
        }
        for kind in EngineKind::ALL {
            in_space(kind); // ALL ⊆ space; with equal lengths, equal sets
        }
    }

    #[test]
    fn parse_ignores_ascii_case() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::parse(&kind.name().to_uppercase()), Some(kind));
            assert_eq!(kind.name().parse::<EngineKind>(), Ok(kind));
        }
        assert_eq!(
            "QuickScorer".parse::<EngineKind>(),
            Ok(EngineKind::QuickScorer(QsCompare::Flint))
        );
    }

    #[test]
    fn parse_error_lists_every_registered_name() {
        let err = "warp-drive".parse::<EngineKind>().unwrap_err();
        let message = err.to_string();
        assert!(message.contains("warp-drive"), "{message}");
        for kind in EngineKind::ALL {
            assert!(message.contains(kind.name()), "{message}");
        }
    }

    #[test]
    fn boxed_engines_are_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn Predictor>();
        assert_send_sync::<Box<dyn Predictor>>();
        // The serve layer's exact shape: one engine, many workers.
        let (data, forest) = setup();
        let engine: std::sync::Arc<dyn Predictor> = std::sync::Arc::from(
            EngineBuilder::new(&forest)
                .build(EngineKind::Blocked(BackendKind::Flint))
                .expect("builds"),
        );
        let reference = forest.predict_dataset_majority(&data);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let engine = std::sync::Arc::clone(&engine);
                let data = &data;
                let reference = &reference;
                scope.spawn(move || {
                    assert_eq!(&engine.predict_dataset(data), reference);
                });
            }
        });
    }

    #[test]
    fn paper_set_is_a_subset_of_the_registry() {
        for (engine, backend) in EngineKind::PAPER_SET.iter().zip(BackendKind::PAPER_SET) {
            assert_eq!(*engine, EngineKind::Scalar(backend));
            assert!(EngineKind::ALL.contains(engine));
        }
    }

    /// The family reference the registry promises for `kind`: the f32
    /// majority vote for exact engines, the scalar f16 walk for the
    /// binary16 family.
    fn family_reference(forest: &RandomForest, kind: EngineKind, data: &Dataset) -> Vec<u32> {
        match kind {
            EngineKind::SimdF16(compare) => {
                let half = HalfForest::compile(forest, compare).expect("compiles");
                (0..data.n_samples())
                    .map(|i| half.predict(data.sample(i)))
                    .collect()
            }
            _ => forest.predict_dataset_majority(data),
        }
    }

    #[test]
    fn every_engine_agrees_with_its_family_reference() {
        let (data, forest) = setup();
        let matrix = FeatureMatrix::from_dataset(&data);
        let builder = EngineBuilder::new(&forest).profile_data(&data);
        for engine in builder.build_all().expect("all engines build") {
            let reference = family_reference(&forest, engine.kind(), &data);
            assert_eq!(engine.n_features(), forest.n_features());
            assert_eq!(engine.n_classes(), forest.n_classes());
            assert_eq!(
                engine.predict_matrix(&matrix),
                reference,
                "{}",
                engine.name()
            );
            assert_eq!(
                engine.predict_dataset(&data),
                reference,
                "{}",
                engine.name()
            );
            for i in (0..data.n_samples()).step_by(37) {
                assert_eq!(
                    engine.predict_one(data.sample(i)),
                    reference[i],
                    "{} sample {i}",
                    engine.name()
                );
            }
        }
    }

    #[test]
    fn exactness_partitions_the_registry_by_precision() {
        for kind in EngineKind::ALL {
            let is_f16 = kind.name().contains("f16");
            assert_eq!(kind.is_exact(), !is_f16, "{}", kind.name());
        }
    }

    #[test]
    fn describe_reports_the_dispatched_kernel_path() {
        let (data, forest) = setup();
        let builder = EngineBuilder::new(&forest).profile_data(&data);
        let dispatch_aware = ["simd", "simd-float", "simd-f16", "simd-f16-float"];
        for engine in builder.build_all().expect("all engines build") {
            let description = engine.describe();
            assert!(!description.is_empty(), "{}", engine.name());
            if dispatch_aware.contains(&engine.name()) {
                let expected = match engine.name() {
                    "simd" | "simd-float" => crate::simd::lane_policy().select(),
                    _ => {
                        let compare = match engine.kind() {
                            EngineKind::SimdF16(c) => c,
                            _ => unreachable!(),
                        };
                        crate::f16::f16_policy(compare).select()
                    }
                };
                let suffix = format!("[kernel {}]", expected.name());
                assert!(
                    description.ends_with(&suffix),
                    "{}: {description:?} should end with {suffix:?}",
                    engine.name()
                );
            }
        }
    }

    #[test]
    fn engines_honor_thread_and_block_options() {
        let (data, forest) = setup();
        let matrix = FeatureMatrix::from_dataset(&data);
        let reference = forest.predict_dataset_majority(&data);
        let builder = EngineBuilder::new(&forest).profile_data(&data);
        for kind in [
            EngineKind::Scalar(BackendKind::Flint),
            EngineKind::Blocked(BackendKind::CagsFlint),
            EngineKind::QuickScorer(QsCompare::Flint),
            EngineKind::Vm(VmVariant::Flint),
        ] {
            let engine = builder.build(kind).expect("builds");
            for block in [1usize, 7, 1000] {
                for threads in [1usize, 3] {
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
    fn builder_options_bind_the_default_batch_shape() {
        let (data, forest) = setup();
        let opts = BatchOptions::default().block_samples(17).threads(2);
        let engine = EngineBuilder::new(&forest)
            .options(opts)
            .build(EngineKind::Blocked(BackendKind::Flint))
            .expect("builds");
        assert_eq!(engine.options(), opts);
        assert_eq!(
            engine.predict_matrix(&FeatureMatrix::from_dataset(&data)),
            forest.predict_dataset_majority(&data)
        );
    }

    #[test]
    fn empty_batch_is_empty_for_every_engine() {
        let (data, forest) = setup();
        let empty = FeatureMatrix::from_row_major(0, forest.n_features(), &[]);
        let builder = EngineBuilder::new(&forest).profile_data(&data);
        for engine in builder.build_all().expect("all engines build") {
            assert_eq!(engine.predict_matrix(&empty), Vec::<u32>::new());
        }
    }

    #[test]
    #[should_panic(expected = "feature matrix width")]
    fn wrong_width_panics_through_the_trait() {
        let (_, forest) = setup();
        let engine = EngineBuilder::new(&forest)
            .build(EngineKind::QuickScorer(QsCompare::Flint))
            .expect("builds");
        let bad = FeatureMatrix::from_row_major(1, 1, &[0.0]);
        let _ = engine.predict_matrix(&bad);
    }
}
