//! # flint-exec — random forest inference backends
//!
//! The paper's evaluation measures four configurations (Fig. 3):
//! standard if-else trees ("Naive"), cache-aware CAGS trees, FLInt
//! trees, and CAGS+FLInt trees. This crate compiles a trained
//! [`flint_forest::RandomForest`] into flat, layout-ordered node arrays
//! for each configuration and executes them:
//!
//! * [`compile::FloatNode`] / [`compile::IntNode`] — the 16-byte node
//!   formats (float threshold vs the threshold's FLInt order key, one
//!   signed compare against a row keyed once), compiled per tree by
//!   [`compile::FloatTree`] / [`compile::IntTree`];
//! * [`backend::CompiledForest`] — the forest-level backends with
//!   majority-vote aggregation, identical across configurations so the
//!   "accuracy unchanged" claim is testable bit-for-bit. Each holds one
//!   forest-wide node array (forest-global child positions, one root
//!   per tree) that its scalar, blocked and f32 lane walks all index;
//! * a software float backend as the no-FPU motivational baseline;
//! * [`batch::BatchEngine`] — throughput-oriented batch inference over
//!   a structure-of-arrays `FeatureMatrix`: a fill-aware interleaved
//!   walk that keeps about [`batch::IN_FLIGHT`] (tree, row) walks in
//!   flight at every block fill (one tree at a time over a full block,
//!   a group of trees over a one-row request), reusable per-worker
//!   scratch buffers, and scoped-thread data parallelism over sample
//!   blocks. Its one entry point writes classes or vote histograms
//!   into a caller-owned [`Sink`]. Predictions are bit-identical to the
//!   scalar path for every [`BackendKind`];
//! * [`mod@simd`] — the 8-wide lane-parallel traversal behind the
//!   `simd`/`simd-float` and `simd-f16`/`simd-f16-float` engines:
//!   samples descend each tree in lane groups through branchless
//!   compare/blend steps (portable lane loops on every target, plus
//!   `std::arch` AVX2 kernels on x86-64, picked at run time). One
//!   wave loop and one span scorer serve every node format; ragged
//!   tails read zero-padded lanes from
//!   [`flint_data::FeatureMatrix::gather_lanes`] instead of branching.
//!   A block below [`LANE_CROSSOVER`] rows (a lone request included)
//!   takes the family's per-row scalar walk instead, which is faster
//!   there;
//! * [`dispatch`] — the unified kernel-dispatch layer: host
//!   capabilities ([`dispatch::KernelCaps`]) probed once per process,
//!   a per-engine-family [`dispatch::KernelPolicy`], the
//!   `FLINT_KERNEL` environment override, and a recorded
//!   [`dispatch::KernelPath`] that every dispatch-aware engine reports
//!   through [`engine::Predictor::describe`];
//! * [`mod@f16`] — half-precision node formats: forests re-compiled
//!   with `f16` thresholds ([`flint_core::half::Half`], monotone
//!   round-to-nearest-even) into 8-byte nodes — or, on the AVX2 path
//!   when every tree is at most 15 deep, 4-byte implicit-child heap
//!   words — that the lane walker reads at half the node bytes per
//!   wave or less. Quantization legitimately changes decisions near
//!   thresholds, so these engines form their own comparison family,
//!   pinned to their scalar f16 walk rather than the f32 majority
//!   vote;
//! * [`jit::TieredJit`] — the in-process template JIT: the same tree
//!   programs the VM interprets, emitted as x86-64 machine code into
//!   `mmap`'d W^X pages (x86-64 Linux) when the engine is built and
//!   called directly; where emitted code cannot run, the engine
//!   interprets them instead, bit-identically;
//! * [`engine`] — the unified engine layer: the [`Predictor`] trait
//!   over **every** prediction path in the workspace (scalar and
//!   blocked if-else backends, the SIMD lane engine, QuickScorer, the
//!   codegen VM, the template JIT) plus the [`EngineKind`] registry and
//!   [`EngineBuilder`]. An engine writes one method,
//!   [`Predictor::score`], which scores a matrix into a [`Sink`] of
//!   classes or vote histograms; every other scoring method is a call
//!   to it. Consumers — CLI, benches, examples, differential tests —
//!   select engines by name from one registry instead of hand-wiring
//!   five APIs:
//!
//!   ```
//!   use flint_data::{synth::SynthSpec, FeatureMatrix};
//!   use flint_exec::{EngineBuilder, EngineKind};
//!   use flint_forest::{ForestConfig, RandomForest};
//!
//!   # fn main() -> Result<(), Box<dyn std::error::Error>> {
//!   let data = SynthSpec::new(100, 3, 2).generate();
//!   let forest = RandomForest::fit(&data, &ForestConfig::grid(3, 5))?;
//!   let engine = EngineBuilder::new(&forest)
//!       .build(EngineKind::parse("quickscorer").expect("registered"))?;
//!   let labels = engine.predict_matrix(&FeatureMatrix::from_dataset(&data));
//!   assert_eq!(labels, forest.predict_dataset_majority(&data));
//!   # Ok(())
//!   # }
//!   ```
//!
//! ```
//! use flint_data::synth::SynthSpec;
//! use flint_exec::{BackendKind, CompiledForest};
//! use flint_forest::{ForestConfig, RandomForest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = SynthSpec::new(100, 3, 2).generate();
//! let forest = RandomForest::fit(&data, &ForestConfig::grid(3, 5))?;
//! let backend = CompiledForest::compile(&forest, BackendKind::Flint, None)?;
//! let class = backend.predict(data.sample(0));
//! assert!(class < 2);
//! # Ok(())
//! # }
//! ```
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]
// The two unsafe islands (AVX2 kernels, JIT executable memory) opt in
// with `#[allow(unsafe_code)]`; inside them, every unsafe operation
// must still sit in an explicit `unsafe {}` block with its own SAFETY
// comment — an `unsafe fn` signature alone discharges nothing.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod backend;
pub mod batch;
pub mod compile;
pub mod dispatch;
pub mod engine;
pub mod f16;
pub mod jit;
pub mod simd;

pub use backend::{BackendKind, CompareMode, CompiledForest};
pub use batch::{BatchEngine, BatchOptions, Sink};
pub use compile::{CompileTreeError, FloatNode, FloatTree, IntNode, IntTree};
pub use dispatch::{KernelCaps, KernelPath, KernelPolicy, KERNEL_ENV};
pub use engine::{BuildEngineError, EngineBuilder, EngineKind, ParseEngineKindError, Predictor};
pub use f16::{f16_policy, HalfCompare, HalfForest};
pub use jit::{
    jit_supported, EmittedCode, JitCompare, JitError, JitForest, JitTier, TieredJit,
    FORCE_FALLBACK_ENV,
};
pub use simd::{lane_policy, SimdCompare, LANES, LANE_CROSSOVER};
