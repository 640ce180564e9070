//! Half-precision node slabs: the `simd-f16` / `simd-f16-float`
//! lane engines.
//!
//! The lane walk in [`crate::simd`] is bandwidth-bound on large
//! forests: every level gathers 16-byte nodes and 4-byte feature
//! lanes. This module halves both. Forests are re-compiled with
//! binary16 thresholds ([`flint_core::half::Half`], converted once per
//! model with monotone round-to-nearest-even) into **8-byte nodes**
//! ([`HalfFloatNode`] / [`HalfIntNode`] — four 16-bit fields), and
//! features are quantized once per sample block into `u16` lane slabs
//! ([`flint_data::FeatureMatrix::gather_lanes_f16`] — bulk-converted
//! by `VCVTPS2PH` on the AVX2+F16C path, bit-identically). Each
//! traversal level then moves half the node bytes and half the
//! feature bytes of the f32 walk — on the AVX2 path, one 64-bit
//! gather pair fetches all eight nodes whole where the f32 kernels
//! spend four 32-bit-word gathers.
//!
//! **f16 engines are their own comparison family.** Quantizing
//! thresholds and features to binary16 legitimately changes decisions
//! for samples within half an f16 ULP of a split, so these engines are
//! *not* bit-identical to the f32 majority vote (and
//! [`crate::EngineKind::is_exact`] says so). Their correctness
//! contract — the per-compare-family pattern the NaN suites
//! established — is instead:
//!
//! * bit-identical to their own scalar f16 walk
//!   ([`HalfForest::predict`]) across every batch shape, thread count,
//!   kernel path and adversarial column set;
//! * accuracy drift vs the f32 engines bounded on realistic data
//!   (measured in EXPERIMENTS.md).
//!
//! Both compare modes exist, mirroring the paper's split:
//! [`HalfCompare::Flint`] prepares each binary16 threshold offline
//! into an `i16` key + flip bit ([`flint_core::PreparedThreshold`] is
//! generic over the float width — Theorem 2 applies unchanged) and
//! compares feature *bit patterns* with 16-bit integer order;
//! [`HalfCompare::Float`] widens both sides to `f32` and uses IEEE
//! `<=` (on AVX2 via F16C `vcvtph2ps`, so that path additionally
//! requires the `f16c` CPU capability — [`f16_policy`] encodes this).
//!
//! ```
//! use flint_data::{synth::SynthSpec, FeatureMatrix};
//! use flint_exec::f16::{HalfCompare, HalfForest, SimdF16Engine};
//! use flint_exec::BatchOptions;
//! use flint_forest::{ForestConfig, RandomForest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = SynthSpec::new(200, 4, 3).generate();
//! let forest = RandomForest::fit(&data, &ForestConfig::grid(5, 7))?;
//! let half = HalfForest::compile(&forest, HalfCompare::Flint)?;
//!
//! let matrix = FeatureMatrix::from_dataset(&data);
//! let engine = SimdF16Engine::new(half, BatchOptions::default());
//! let batch = engine.predict(&matrix);
//! // The engine's contract: bit-identical to its own scalar f16 walk.
//! for i in 0..data.n_samples() {
//!     assert_eq!(batch[i], engine.forest().predict(data.sample(i)));
//! }
//! # Ok(())
//! # }
//! ```

use crate::batch::{score_spans, BatchOptions};
use crate::compile::CompileTreeError;
use crate::dispatch::{KernelPath, KernelPolicy};
use crate::simd::{vote_group, F32x8, U32x8, WAVE};
use flint_core::half::Half;
use flint_core::PreparedThreshold;
use flint_data::{FeatureMatrix, LANES};
use flint_forest::{DecisionTree, Node, NodeId, RandomForest};
use flint_layout::{LayoutStrategy, TreeLayout, TreeProfile};

/// Marker stored in the feature field of half-precision leaf nodes.
pub const LEAF_MARKER_F16: u16 = u16::MAX;

/// Flip bit in [`HalfIntNode::feature_and_flip`] ("XOR the feature's
/// sign bit before comparing"). Feature indices must stay below it.
pub const FLIP_BIT_F16: u16 = 1 << 15;

// The AVX2 kernels fetch whole nodes with cursor-indexed 64-bit
// gathers and split them into two 32-bit words, which is only sound
// while both formats stay exactly eight bytes.
const _: () = assert!(core::mem::size_of::<HalfFloatNode>() == 8);
const _: () = assert!(core::mem::size_of::<HalfIntNode>() == 8);

/// An 8-byte node with a binary16 threshold and IEEE comparisons.
///
/// `repr(C)`: the AVX2 path gathers the node as two 32-bit words —
/// word 0 is `feature | threshold << 16`, word 1 is
/// `left | right << 16` (little-endian) — so the field order is
/// load-bearing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct HalfFloatNode {
    /// Feature index, or [`LEAF_MARKER_F16`] for leaves.
    pub feature: u16,
    /// Split value as raw binary16 bits (unused for leaves).
    pub threshold: u16,
    /// Flat position of the left child; for leaves, the class.
    pub left: u16,
    /// Flat position of the right child (unused for leaves).
    pub right: u16,
}

/// An 8-byte node with the FLInt-prepared binary16 threshold.
///
/// `repr(C)` for the same word-gather reason as [`HalfFloatNode`];
/// word 0 is `feature_and_flip | (key as u16) << 16`, so an
/// arithmetic right shift by 16 recovers the sign-extended key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct HalfIntNode {
    /// Feature index with [`FLIP_BIT_F16`] possibly set, or
    /// [`LEAF_MARKER_F16`] for leaves.
    pub feature_and_flip: u16,
    /// The prepared 16-bit integer immediate
    /// ([`PreparedThreshold::key`] over [`Half`]).
    pub key: i16,
    /// Flat position of the left child; for leaves, the class.
    pub left: u16,
    /// Flat position of the right child (unused for leaves).
    pub right: u16,
}

/// The f16 engines' comparison mode — the binary16 mirror of
/// [`crate::SimdCompare`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HalfCompare {
    /// FLInt 16-bit integer compares on prepared keys (registry name
    /// `simd-f16`).
    Flint,
    /// IEEE compares after widening both sides to `f32` (registry name
    /// `simd-f16-float`).
    Float,
}

/// The f16 families' dispatch policy: AVX2 kernels behind the
/// `simd-avx2` feature on x86-64 (the float family additionally needs
/// F16C for `vcvtph2ps`); portable elsewhere — including aarch64,
/// where the autovectorized walk is the NEON story for now.
pub fn f16_policy(compare: HalfCompare) -> KernelPolicy {
    KernelPolicy {
        avx2: cfg!(all(feature = "simd-avx2", target_arch = "x86_64")),
        f16c_required: matches!(compare, HalfCompare::Float),
        neon: false,
    }
}

/// A tree compiled to flat 8-byte float-comparison nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HalfFloatTree {
    nodes: Vec<HalfFloatNode>,
}

/// A tree compiled to flat 8-byte FLInt-comparison nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HalfIntTree {
    nodes: Vec<HalfIntNode>,
}

/// Converts a layout position to the 16-bit field width, or fails
/// compilation: f16 trees must stay under [`LEAF_MARKER_F16`] nodes.
fn pos16(position: u32, at: NodeId) -> Result<u16, CompileTreeError> {
    if position >= u32::from(LEAF_MARKER_F16) {
        return Err(CompileTreeError::IndexOverflow { node: at });
    }
    Ok(position as u16)
}

impl HalfFloatTree {
    /// Compiles `tree` in layout order, quantizing every threshold to
    /// binary16 once (round-to-nearest-even — monotone, so tree
    /// structure survives).
    ///
    /// # Errors
    ///
    /// [`CompileTreeError::FeatureTooLarge`] if a feature index
    /// collides with the leaf marker,
    /// [`CompileTreeError::IndexOverflow`] if a node position or class
    /// exceeds 16 bits.
    pub fn compile(tree: &DecisionTree, layout: &TreeLayout) -> Result<Self, CompileTreeError> {
        assert_eq!(layout.len(), tree.n_nodes(), "layout must cover the tree");
        let mut nodes = Vec::with_capacity(layout.len());
        for k in 0..layout.len() {
            let id = layout.node_at(k);
            let node = match &tree.nodes()[id.index()] {
                Node::Leaf { class, .. } => HalfFloatNode {
                    feature: LEAF_MARKER_F16,
                    threshold: 0,
                    left: pos16(*class, id)?,
                    right: 0,
                },
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    if *feature >= u32::from(LEAF_MARKER_F16) {
                        return Err(CompileTreeError::FeatureTooLarge { node: id });
                    }
                    HalfFloatNode {
                        feature: *feature as u16,
                        threshold: Half::from_f32(*threshold).to_bits(),
                        left: pos16(layout.position_of(*left), id)?,
                        right: pos16(layout.position_of(*right), id)?,
                    }
                }
            };
            nodes.push(node);
        }
        Ok(Self { nodes })
    }

    /// The scalar f16 reference walk: features quantize through the
    /// identical [`Half::from_f32`] the lane slabs use, then IEEE `<=`
    /// on the widened values (NaN goes right, like every float
    /// family). Quantizes at every visited node; the oracle of
    /// [`predict_bits`](Self::predict_bits).
    #[inline]
    pub fn predict(&self, features: &[f32]) -> u32 {
        self.walk(|feature| Half::from_f32(features[feature]).to_bits())
    }

    /// [`predict`](Self::predict) over a row already quantized to
    /// binary16 bits (`bits[f] == Half::from_f32(features[f]).to_bits()`).
    #[inline]
    pub fn predict_bits(&self, bits: &[u16]) -> u32 {
        self.walk(|feature| bits[feature])
    }

    #[inline]
    fn walk(&self, feature_bits: impl Fn(usize) -> u16) -> u32 {
        let mut idx = 0u16;
        loop {
            let node = &self.nodes[idx as usize];
            if node.feature == LEAF_MARKER_F16 {
                return u32::from(node.left);
            }
            let x = Half::from_bits(feature_bits(node.feature as usize)).to_f32();
            let t = Half::from_bits(node.threshold).to_f32();
            idx = if x <= t { node.left } else { node.right };
        }
    }

    /// The flat node array.
    pub fn nodes(&self) -> &[HalfFloatNode] {
        &self.nodes
    }
}

impl HalfIntTree {
    /// Compiles `tree` in layout order: thresholds quantize to
    /// binary16, then [`PreparedThreshold`] resolves each one offline
    /// into an `i16` key + flip bit (Theorem 2 at 16-bit width).
    ///
    /// # Errors
    ///
    /// [`CompileTreeError::NanThreshold`] for NaN split values,
    /// [`CompileTreeError::FeatureTooLarge`] if a feature index
    /// collides with the flip bit,
    /// [`CompileTreeError::IndexOverflow`] if a node position or class
    /// exceeds 16 bits.
    pub fn compile(tree: &DecisionTree, layout: &TreeLayout) -> Result<Self, CompileTreeError> {
        assert_eq!(layout.len(), tree.n_nodes(), "layout must cover the tree");
        let mut nodes = Vec::with_capacity(layout.len());
        for k in 0..layout.len() {
            let id = layout.node_at(k);
            let node = match &tree.nodes()[id.index()] {
                Node::Leaf { class, .. } => HalfIntNode {
                    feature_and_flip: LEAF_MARKER_F16,
                    key: 0,
                    left: pos16(*class, id)?,
                    right: 0,
                },
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    if *feature >= u32::from(FLIP_BIT_F16) {
                        return Err(CompileTreeError::FeatureTooLarge { node: id });
                    }
                    let prepared = PreparedThreshold::new(Half::from_f32(*threshold))
                        .map_err(|_| CompileTreeError::NanThreshold { node: id })?;
                    let flip = if prepared.flips_sign() {
                        FLIP_BIT_F16
                    } else {
                        0
                    };
                    HalfIntNode {
                        feature_and_flip: *feature as u16 | flip,
                        key: prepared.key(),
                        left: pos16(layout.position_of(*left), id)?,
                        right: pos16(layout.position_of(*right), id)?,
                    }
                }
            };
            nodes.push(node);
        }
        Ok(Self { nodes })
    }

    /// The scalar f16 reference walk: the feature's binary16 bit
    /// pattern against the prepared key — one optional sign-bit XOR
    /// plus one signed 16-bit compare, exactly
    /// [`PreparedThreshold::le_bits`]. Quantizes at every visited
    /// node; the oracle of [`predict_bits`](Self::predict_bits).
    #[inline]
    pub fn predict(&self, features: &[f32]) -> u32 {
        self.walk(|feature| Half::from_f32(features[feature]).to_bits())
    }

    /// [`predict`](Self::predict) over a row already quantized to
    /// binary16 bits (`bits[f] == Half::from_f32(features[f]).to_bits()`).
    #[inline]
    pub fn predict_bits(&self, bits: &[u16]) -> u32 {
        self.walk(|feature| bits[feature])
    }

    #[inline]
    fn walk(&self, feature_bits: impl Fn(usize) -> u16) -> u32 {
        let mut idx = 0u16;
        loop {
            let node = &self.nodes[idx as usize];
            if node.feature_and_flip == LEAF_MARKER_F16 {
                return u32::from(node.left);
            }
            let feature = (node.feature_and_flip & !FLIP_BIT_F16) as usize;
            let bits = feature_bits(feature) as i16;
            let go_left = if node.feature_and_flip & FLIP_BIT_F16 != 0 {
                node.key <= (bits ^ i16::MIN)
            } else {
                bits <= node.key
            };
            idx = if go_left { node.left } else { node.right };
        }
    }

    /// The flat node array.
    pub fn nodes(&self) -> &[HalfIntNode] {
        &self.nodes
    }
}

/// The compiled trees of one compare mode.
#[derive(Debug, Clone)]
enum HalfTrees {
    Float(Vec<HalfFloatTree>),
    Int(Vec<HalfIntTree>),
}

/// A forest re-compiled with binary16 thresholds — the model the
/// `simd-f16` engines walk, and (through [`HalfForest::predict`]) the
/// scalar reference of the f16 comparison family.
#[derive(Debug, Clone)]
pub struct HalfForest {
    compare: HalfCompare,
    trees: HalfTrees,
    n_classes: usize,
    n_features: usize,
}

impl HalfForest {
    /// Compiles every tree of `forest` into 8-byte nodes (arena order;
    /// CAGS reordering buys nothing when all lanes move in lock-step).
    ///
    /// # Errors
    ///
    /// Propagates [`CompileTreeError`] from per-tree compilation.
    pub fn compile(forest: &RandomForest, compare: HalfCompare) -> Result<Self, CompileTreeError> {
        let mut float_trees = Vec::new();
        let mut int_trees = Vec::new();
        for tree in forest.trees() {
            let profile = TreeProfile::uniform(tree);
            let layout = TreeLayout::compute(tree, &profile, LayoutStrategy::ArenaOrder);
            match compare {
                HalfCompare::Float => float_trees.push(HalfFloatTree::compile(tree, &layout)?),
                HalfCompare::Flint => int_trees.push(HalfIntTree::compile(tree, &layout)?),
            }
        }
        let trees = match compare {
            HalfCompare::Float => HalfTrees::Float(float_trees),
            HalfCompare::Flint => HalfTrees::Int(int_trees),
        };
        Ok(Self {
            compare,
            trees,
            n_classes: forest.n_classes(),
            n_features: forest.n_features(),
        })
    }

    /// The comparison mode the forest was compiled for.
    pub fn compare(&self) -> HalfCompare {
        self.compare
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The scalar reference prediction of the f16 family: per tree,
    /// the plain branchy walk with the same per-value quantization the
    /// lane slabs apply; majority vote across trees with the canonical
    /// tie-break.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    pub fn predict(&self, features: &[f32]) -> u32 {
        flint_forest::metrics::majority_vote(&self.predict_votes(features))
    }

    /// Per-class vote histogram (one vote per quantized tree) behind
    /// [`predict`](Self::predict) — the partial a forest shard of the
    /// f16 family reports for distributed merge. Shard histograms sum
    /// to the full-forest f16 histogram because quantization is
    /// per-tree. The row is quantized once, then every tree walks its
    /// bits ([`HalfIntTree::predict_bits`]).
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    pub fn predict_votes(&self, features: &[f32]) -> Vec<u32> {
        assert_eq!(features.len(), self.n_features, "feature vector length");
        let bits: Vec<u16> = features
            .iter()
            .map(|&x| Half::from_f32(x).to_bits())
            .collect();
        let mut votes = vec![0u32; self.n_classes];
        match &self.trees {
            HalfTrees::Float(trees) => {
                for tree in trees {
                    votes[tree.predict_bits(&bits) as usize] += 1;
                }
            }
            HalfTrees::Int(trees) => {
                for tree in trees {
                    votes[tree.predict_bits(&bits) as usize] += 1;
                }
            }
        }
        votes
    }
}

/// Deepest tree the 4-byte heap re-layout accepts: a full heap of
/// depth 15 is `2^16 - 1` words (256 KiB), past which the padding
/// overwhelms the gather savings and the engine stays on the 8-byte
/// explicit-child walk.
#[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
const HEAP_MAX_DEPTH: u32 = 15;

/// Max heap depth of `nodes` rooted at flat position 0, or `None` if
/// it exceeds [`HEAP_MAX_DEPTH`]. `child` maps a non-leaf node to its
/// (left, right) flat positions; leaves return `None`.
#[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
fn heap_depth<N>(nodes: &[N], child: impl Fn(&N) -> Option<(u16, u16)>) -> Option<u32> {
    let mut depth = 0;
    let mut stack = vec![(0u16, 0u32)];
    while let Some((flat, level)) = stack.pop() {
        if level > HEAP_MAX_DEPTH {
            return None;
        }
        depth = depth.max(level);
        if let Some((left, right)) = child(&nodes[flat as usize]) {
            stack.push((left, level + 1));
            stack.push((right, level + 1));
        }
    }
    Some(depth)
}

/// Re-lays a compiled tree into the implicit-child heap slab the AVX2
/// fast path walks: one `u32` word per heap position `p` — for splits
/// `feature | payload << 16` with children at `2p + 1` / `2p + 2`, for
/// leaves `LEAF_MARKER_F16 | class << 16`. Unreachable padding slots
/// hold a class-0 leaf word and are never gathered (cursors only ever
/// advance out of real split nodes). Returns `None` for trees deeper
/// than [`HEAP_MAX_DEPTH`].
#[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
fn heapify<N>(
    nodes: &[N],
    word: impl Fn(&N) -> u32,
    child: impl Fn(&N) -> Option<(u16, u16)>,
) -> Option<Vec<u32>> {
    let depth = heap_depth(nodes, &child)?;
    let mut heap = vec![u32::from(LEAF_MARKER_F16); (1usize << (depth + 1)) - 1];
    let mut stack = vec![(0u16, 0usize)];
    while let Some((flat, pos)) = stack.pop() {
        let node = &nodes[flat as usize];
        heap[pos] = word(node);
        if let Some((left, right)) = child(node) {
            stack.push((left, 2 * pos + 1));
            stack.push((right, 2 * pos + 2));
        }
    }
    Some(heap)
}

/// Builds the per-tree heap slabs for a compiled forest, or `None` if
/// any tree is too deep for the heap layout.
#[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
fn heapify_forest(trees: &HalfTrees) -> Option<Vec<Vec<u32>>> {
    match trees {
        HalfTrees::Float(trees) => trees
            .iter()
            .map(|t| {
                heapify(
                    t.nodes(),
                    |n| {
                        if n.feature == LEAF_MARKER_F16 {
                            u32::from(LEAF_MARKER_F16) | u32::from(n.left) << 16
                        } else {
                            u32::from(n.feature) | u32::from(n.threshold) << 16
                        }
                    },
                    |n| (n.feature != LEAF_MARKER_F16).then_some((n.left, n.right)),
                )
            })
            .collect(),
        HalfTrees::Int(trees) => trees
            .iter()
            .map(|t| {
                heapify(
                    t.nodes(),
                    |n| {
                        if n.feature_and_flip == LEAF_MARKER_F16 {
                            u32::from(LEAF_MARKER_F16) | u32::from(n.left) << 16
                        } else {
                            u32::from(n.feature_and_flip) | u32::from(n.key as u16) << 16
                        }
                    },
                    |n| (n.feature_and_flip != LEAF_MARKER_F16).then_some((n.left, n.right)),
                )
            })
            .collect(),
    }
}

/// The half-precision lane engine: the wave-interleaved branchless
/// walk of [`crate::simd`] over 8-byte nodes and `u16` feature slabs.
///
/// Owns its [`HalfForest`]; the kernel path is selected once at
/// construction through [`f16_policy`] (honoring the `FLINT_KERNEL`
/// override) and reported by the registry engine's `describe()`.
///
/// On the AVX2 path the engine additionally re-lays each tree into a
/// **4-byte implicit-child heap slab** (`heapify`): dropping the
/// stored child indices halves the node word again and removes one of
/// the two node gathers per level, so an AVX2 traversal level costs
/// two gathers (node word + feature) against the f32 kernels' five.
/// Trees deeper than `HEAP_MAX_DEPTH` (15) fall back to the 8-byte
/// explicit-child gather walk. Both walks are bit-identical to the
/// scalar reference — the heap slab stores the same binary16
/// threshold bits and prepared keys, only addressed differently.
#[derive(Debug, Clone)]
pub struct SimdF16Engine {
    forest: HalfForest,
    opts: BatchOptions,
    path: KernelPath,
    #[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
    heap: Option<Vec<Vec<u32>>>,
}

impl SimdF16Engine {
    /// Binds `forest` to the given options and selects the kernel
    /// path (building the heap slabs when that path is AVX2).
    pub fn new(forest: HalfForest, opts: BatchOptions) -> Self {
        let path = f16_policy(forest.compare()).select();
        #[allow(clippy::needless_update)]
        let mut engine = Self {
            forest,
            opts,
            path,
            #[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
            heap: None,
        };
        engine.rebuild_heap();
        engine
    }

    /// Overrides the dispatched kernel path (the differential suites
    /// pin accelerated paths against portable this way). Forcing a
    /// path that is not compiled in silently runs portable; forcing a
    /// compiled-in path on a CPU without the ISA panics at predict
    /// time.
    pub fn with_kernel(mut self, path: KernelPath) -> Self {
        self.path = path;
        self.rebuild_heap();
        self
    }

    /// (Re)builds the AVX2 heap slabs to match the current kernel
    /// path: present exactly when the engine dispatches to AVX2 and
    /// every tree fits the heap layout.
    fn rebuild_heap(&mut self) {
        #[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
        {
            self.heap = if self.path == KernelPath::Avx2 {
                heapify_forest(&self.forest.trees)
            } else {
                None
            };
        }
    }

    /// The kernel path this engine dispatches to.
    pub fn kernel_path(&self) -> KernelPath {
        self.path
    }

    /// The compiled binary16 forest (also the family's scalar
    /// reference via [`HalfForest::predict`]).
    pub fn forest(&self) -> &HalfForest {
        &self.forest
    }

    /// The bound options (clamping applied at use, not here).
    pub fn options(&self) -> BatchOptions {
        self.opts
    }

    /// Scores every sample of `matrix`, returning one class per
    /// sample. Bit-identical to [`HalfForest::predict`] per row.
    ///
    /// # Panics
    ///
    /// Panics if `matrix.n_features()` differs from the model's.
    pub fn predict(&self, matrix: &FeatureMatrix) -> Vec<u32> {
        self.predict_with(matrix, &self.opts)
    }

    /// [`predict`](Self::predict) under explicit batch options instead
    /// of the bound ones (the registry's `predict_batch` seam).
    ///
    /// # Panics
    ///
    /// Panics if `matrix.n_features()` differs from the model's.
    pub fn predict_with(&self, matrix: &FeatureMatrix, opts: &BatchOptions) -> Vec<u32> {
        assert_eq!(
            matrix.n_features(),
            self.forest.n_features,
            "feature matrix width"
        );
        let mut out = vec![0u32; matrix.n_samples()];
        score_spans(opts, &mut out, |start, span| {
            self.score_span(matrix, start, span, self.path, opts.block_samples);
        });
        out
    }

    fn score_span(
        &self,
        matrix: &FeatureMatrix,
        start: usize,
        out: &mut [u32],
        path: KernelPath,
        block_samples: usize,
    ) {
        let block = block_samples.max(1);
        let n_features = self.forest.n_features;
        let n_classes = self.forest.n_classes;
        let group_stride = n_features * LANES;
        let cap = block.min(out.len());
        // Per-worker scratch: quantized u16 lane slabs, an f32 staging
        // slab for the F16C bulk converter, and the flat vote
        // accumulator. The single trailing element backs the AVX2 u16
        // gathers, which read 4 bytes at the slab's last index — each
        // group's slab is carved one element past its stride.
        let mut lanes = vec![0u16; cap.div_ceil(LANES) * group_stride + 1];
        let mut scratch = vec![0f32; group_stride];
        let mut votes = vec![0u32; cap * n_classes];
        let mut offset = 0;
        while offset < out.len() {
            let len = block.min(out.len() - offset);
            let n_groups = len.div_ceil(LANES);
            for g in 0..n_groups {
                quantize_group(
                    matrix,
                    start + offset + g * LANES,
                    &mut scratch,
                    &mut lanes[g * group_stride..(g + 1) * group_stride],
                    path,
                );
            }
            let votes = &mut votes[..len * n_classes];
            votes.fill(0);
            // Heap slabs exist exactly when the engine dispatched to
            // AVX2 and every tree fits the implicit-child layout; a
            // heap-walked tree's leaf word carries the class in its
            // high half.
            #[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
            let heaps: &[Vec<u32>] = self.heap.as_deref().unwrap_or(&[]);
            #[cfg(not(all(feature = "simd-avx2", target_arch = "x86_64")))]
            let heaps: &[Vec<u32>] = &[];
            match &self.forest.trees {
                HalfTrees::Float(trees) => {
                    for (ti, tree) in trees.iter().enumerate() {
                        if let Some(heap) = heaps.get(ti) {
                            each_wave_f16(
                                &lanes,
                                n_groups,
                                group_stride,
                                |slabs, cursors| walk_float_heap(heap, slabs, cursors),
                                |g, cursor| {
                                    vote_group(votes, n_classes, len, g, |i| {
                                        heap[cursor.0[i] as usize] >> 16
                                    });
                                },
                            );
                            continue;
                        }
                        let nodes = tree.nodes();
                        each_wave_f16(
                            &lanes,
                            n_groups,
                            group_stride,
                            |slabs, cursors| walk_float(nodes, slabs, cursors, path),
                            |g, cursor| {
                                vote_group(votes, n_classes, len, g, |i| {
                                    u32::from(nodes[cursor.0[i] as usize].left)
                                });
                            },
                        );
                    }
                }
                HalfTrees::Int(trees) => {
                    for (ti, tree) in trees.iter().enumerate() {
                        if let Some(heap) = heaps.get(ti) {
                            each_wave_f16(
                                &lanes,
                                n_groups,
                                group_stride,
                                |slabs, cursors| walk_int_heap(heap, slabs, cursors),
                                |g, cursor| {
                                    vote_group(votes, n_classes, len, g, |i| {
                                        heap[cursor.0[i] as usize] >> 16
                                    });
                                },
                            );
                            continue;
                        }
                        let nodes = tree.nodes();
                        each_wave_f16(
                            &lanes,
                            n_groups,
                            group_stride,
                            |slabs, cursors| walk_int(nodes, slabs, cursors, path),
                            |g, cursor| {
                                vote_group(votes, n_classes, len, g, |i| {
                                    u32::from(nodes[cursor.0[i] as usize].left)
                                });
                            },
                        );
                    }
                }
            }
            for (k, slot) in out[offset..offset + len].iter_mut().enumerate() {
                *slot = flint_forest::metrics::majority_vote(
                    &votes[k * n_classes..(k + 1) * n_classes],
                );
            }
            offset += len;
        }
    }
}

/// Quantizes one sample group's features into its u16 lane slab — via
/// the F16C bulk converter when the engine dispatched to the AVX2 path
/// on a CPU with F16C, via the scalar
/// [`FeatureMatrix::gather_lanes_f16`] loop otherwise. The two routes
/// are bit-identical: [`Half::from_f32`] pins the `VCVTPS2PH` hardware
/// mapping (round-to-nearest-even, quiet-bit-forced NaN payloads).
#[inline]
fn quantize_group(
    matrix: &FeatureMatrix,
    first_sample: usize,
    scratch: &mut [f32],
    slab: &mut [u16],
    path: KernelPath,
) {
    #[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
    if path == KernelPath::Avx2 && crate::dispatch::KernelCaps::get().f16c {
        matrix.gather_lanes(first_sample, scratch);
        avx2::convert_lanes(scratch, slab);
        return;
    }
    #[cfg(not(all(feature = "simd-avx2", target_arch = "x86_64")))]
    let _ = (scratch, path);
    matrix.gather_lanes_f16(first_sample, slab);
}

/// The u16-slab counterpart of the f32 walk's wave carver: each
/// group's slab is `group_stride + 1` elements — one element past its
/// live lanes — so the AVX2 u16 gathers (4-byte reads at 2-byte
/// granularity) stay in bounds at the slab's final index.
#[inline]
fn each_wave_f16(
    lanes: &[u16],
    n_groups: usize,
    group_stride: usize,
    mut walk: impl FnMut(&[&[u16]], &mut [U32x8]),
    mut sink: impl FnMut(usize, U32x8),
) {
    for wave_start in (0..n_groups).step_by(WAVE) {
        let k = WAVE.min(n_groups - wave_start);
        let mut slabs: [&[u16]; WAVE] = [&[]; WAVE];
        for (j, slab) in slabs[..k].iter_mut().enumerate() {
            let g = wave_start + j;
            *slab = &lanes[g * group_stride..(g + 1) * group_stride + 1];
        }
        let mut cursors = [U32x8::ZERO; WAVE];
        walk(&slabs[..k], &mut cursors[..k]);
        for (j, &cursor) in cursors[..k].iter().enumerate() {
            sink(wave_start + j, cursor);
        }
    }
}

/// f16 float-comparison wave walk, dispatched on the engine's
/// [`KernelPath`].
#[inline]
fn walk_float(nodes: &[HalfFloatNode], slabs: &[&[u16]], cursors: &mut [U32x8], path: KernelPath) {
    match path {
        #[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
        KernelPath::Avx2 => avx2::walk_float(nodes, slabs, cursors),
        _ => walk_float_portable(nodes, slabs, cursors),
    }
}

/// f16 FLInt-comparison wave walk, dispatched on the engine's
/// [`KernelPath`].
#[inline]
fn walk_int(nodes: &[HalfIntNode], slabs: &[&[u16]], cursors: &mut [U32x8], path: KernelPath) {
    match path {
        #[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
        KernelPath::Avx2 => avx2::walk_int(nodes, slabs, cursors),
        _ => walk_int_portable(nodes, slabs, cursors),
    }
}

/// Float-family wave walk over a 4-byte implicit-child heap slab.
/// Only ever invoked with a heap present, which [`SimdF16Engine`]
/// builds exactly when it dispatched to AVX2.
fn walk_float_heap(heap: &[u32], slabs: &[&[u16]], cursors: &mut [U32x8]) {
    #[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
    {
        avx2::walk_float_heap(heap, slabs, cursors);
    }
    #[cfg(not(all(feature = "simd-avx2", target_arch = "x86_64")))]
    {
        let _ = (heap, slabs, cursors);
        unreachable!("heap slabs are only built on the AVX2 path");
    }
}

/// FLInt-family wave walk over a 4-byte implicit-child heap slab.
/// Only ever invoked with a heap present, which [`SimdF16Engine`]
/// builds exactly when it dispatched to AVX2.
fn walk_int_heap(heap: &[u32], slabs: &[&[u16]], cursors: &mut [U32x8]) {
    #[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
    {
        avx2::walk_int_heap(heap, slabs, cursors);
    }
    #[cfg(not(all(feature = "simd-avx2", target_arch = "x86_64")))]
    {
        let _ = (heap, slabs, cursors);
        unreachable!("heap slabs are only built on the AVX2 path");
    }
}

/// Portable f16 float walk: widen the u16 lane bits and the node's
/// binary16 threshold to `f32` (exact) and compare with IEEE `<=` —
/// the same per-level blend structure as the f32 walk.
#[inline]
fn walk_float_portable(nodes: &[HalfFloatNode], slabs: &[&[u16]], cursors: &mut [U32x8]) {
    debug_assert_eq!(slabs.len(), cursors.len());
    let mut done = [false; WAVE];
    loop {
        let mut remaining = false;
        for (gi, &slab) in slabs.iter().enumerate() {
            if done[gi] {
                continue;
            }
            let cursor = cursors[gi];
            let mut feature = [0u32; LANES];
            let mut threshold = [0.0f32; LANES];
            let mut left = [0u32; LANES];
            let mut right = [0u32; LANES];
            for i in 0..LANES {
                let node = &nodes[cursor.0[i] as usize];
                feature[i] = u32::from(node.feature);
                threshold[i] = Half::from_bits(node.threshold).to_f32();
                left[i] = u32::from(node.left);
                right[i] = u32::from(node.right);
            }
            let feature = U32x8(feature);
            let is_leaf = feature.eq_mask(U32x8::splat(u32::from(LEAF_MARKER_F16)));
            if is_leaf.all_set() {
                done[gi] = true;
                continue;
            }
            remaining = true;
            let fsafe = U32x8::blend(is_leaf, U32x8::ZERO, feature);
            let mut x = [0.0f32; LANES];
            for i in 0..LANES {
                x[i] = Half::from_bits(slab[fsafe.0[i] as usize * LANES + i]).to_f32();
            }
            let go_left = F32x8(x).le(F32x8(threshold));
            let next = U32x8::blend(go_left, U32x8(left), U32x8(right));
            cursors[gi] = U32x8::blend(is_leaf, cursor, next);
        }
        if !remaining {
            break;
        }
    }
}

/// Portable f16 FLInt walk: the 16-bit prepared test evaluated in
/// sign-extended 32-bit lanes (sign extension preserves `i16` order,
/// so the compare domain is unchanged). The XOR happens in the 16-bit
/// domain *before* widening — exactly [`PreparedThreshold::le_bits`].
#[inline]
fn walk_int_portable(nodes: &[HalfIntNode], slabs: &[&[u16]], cursors: &mut [U32x8]) {
    debug_assert_eq!(slabs.len(), cursors.len());
    let mut done = [false; WAVE];
    loop {
        let mut remaining = false;
        for (gi, &slab) in slabs.iter().enumerate() {
            if done[gi] {
                continue;
            }
            let cursor = cursors[gi];
            let mut ff = [0u32; LANES];
            let mut key = [0u32; LANES];
            let mut left = [0u32; LANES];
            let mut right = [0u32; LANES];
            for i in 0..LANES {
                let node = &nodes[cursor.0[i] as usize];
                ff[i] = u32::from(node.feature_and_flip);
                key[i] = node.key as i32 as u32; // sign-extended
                left[i] = u32::from(node.left);
                right[i] = u32::from(node.right);
            }
            let ffv = U32x8(ff);
            let is_leaf = ffv.eq_mask(U32x8::splat(u32::from(LEAF_MARKER_F16)));
            if is_leaf.all_set() {
                done[gi] = true;
                continue;
            }
            remaining = true;
            let mut flip = [0u32; LANES];
            let mut bx = [0u32; LANES];
            for i in 0..LANES {
                let flips = ff[i] & u32::from(FLIP_BIT_F16) != 0;
                flip[i] = if flips { u32::MAX } else { 0 };
                // Leaf lanes read slot 0 (their ff is the all-ones
                // marker); the step is blended away below.
                let f = if ff[i] == u32::from(LEAF_MARKER_F16) {
                    0
                } else {
                    (ff[i] & !u32::from(FLIP_BIT_F16)) as usize
                };
                let x16 = slab[f * LANES + i] ^ if flips { 0x8000 } else { 0 };
                bx[i] = x16 as i16 as i32 as u32; // sign-extended
            }
            let flip = U32x8(flip);
            let key = U32x8(key);
            let bx = U32x8(bx);
            // go right: flip ? key > bx : bx > key (signed) — the
            // negation of PreparedThreshold::le_bits at 16-bit width.
            let go_right = U32x8::blend(flip, key.gt_signed(bx), bx.gt_signed(key));
            let next = U32x8::blend(go_right, U32x8(right), U32x8(left));
            cursors[gi] = U32x8::blend(is_leaf, cursor, next);
        }
        if !remaining {
            break;
        }
    }
}

/// The `std::arch` AVX2 kernels for the 8-byte node formats: one
/// **64-bit gather pair** per level fetches all eight nodes whole
/// (half the gather µops of the f32 kernels' four 32-bit-word
/// gathers), plus one 2-byte-scaled feature gather — the bandwidth
/// halving this module exists for. The float path additionally bulk-
/// quantizes feature slabs with `VCVTPS2PH` ([`convert_lanes`]).
///
/// The heap walks ([`walk_float_heap`]/[`walk_int_heap`]) go further:
/// a tree heapified into 4-byte implicit-child words needs only **one
/// 32-bit node gather** per level — children live at `2p + 1`/`2p + 2`
/// and are reached by shift-add arithmetic instead of a second stored
/// word — cutting the per-level gather count to two (node + feature)
/// against the f32 kernels' five.
///
/// Soundness argument (this island mirrors `simd::avx2`):
///
/// * the entry wrappers assert the required CPU features before
///   entering the `#[target_feature]` functions;
/// * node gathers use scale 8 over the node base with the cursor as
///   the index, and `cursor` only ever holds root (0) or an in-tree
///   child index, so each lane reads exactly one in-bounds 8-byte
///   node (both formats are exactly eight bytes — statically asserted
///   at module top);
/// * heap gathers use scale 4 over a `(1 << (depth + 1)) - 1`-word
///   heap; cursor lanes hold heap positions of real nodes (root 0, or
///   a child slot of a split node at depth `< depth`), and a split
///   node's children `2p + 1`/`2p + 2` always fit because
///   [`super::heapify`] sizes the vector for the full depth;
/// * feature gathers use scale 2 over u16 elements at index
///   `feature * 8 + lane < group_stride`; each 4-byte read therefore
///   ends at byte `2 * (group_stride - 1) + 4` at most, which the
///   one-element slab overhang of [`each_wave_f16`] keeps in bounds;
/// * the F16C slab converter walks equal-length exact chunks of its
///   two slices.
#[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod avx2 {
    use super::{HalfFloatNode, HalfIntNode, U32x8, FLIP_BIT_F16, LEAF_MARKER_F16, WAVE};
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_andnot_si256, _mm256_blendv_epi8,
        _mm256_castps_si256, _mm256_castsi256_ps, _mm256_castsi256_si128, _mm256_cmp_ps,
        _mm256_cmpeq_epi32, _mm256_cmpgt_epi32, _mm256_cvtph_ps, _mm256_cvtps_ph,
        _mm256_extracti128_si256, _mm256_i32gather_epi32, _mm256_i32gather_epi64,
        _mm256_load_si256, _mm256_loadu_ps, _mm256_movemask_epi8, _mm256_permute4x64_epi64,
        _mm256_set1_epi32, _mm256_setr_epi32, _mm256_shuffle_ps, _mm256_slli_epi32,
        _mm256_srai_epi32, _mm256_srli_epi32, _mm256_store_si256, _mm256_sub_epi32,
        _mm256_xor_si256, _mm_packus_epi32, _mm_storeu_si128, _CMP_LE_OQ,
        _MM_FROUND_TO_NEAREST_INT,
    };

    /// Dispatch-checked entry for the f16 float wave walk (needs AVX2
    /// for the gathers *and* F16C for `vcvtph2ps`; [`super::f16_policy`]
    /// only hands out this path when both are present).
    #[inline]
    pub fn walk_float(nodes: &[HalfFloatNode], slabs: &[&[u16]], cursors: &mut [U32x8]) {
        assert!(
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("f16c"),
            "f16 AVX2 kernel entered without AVX2+F16C support"
        );
        debug_assert!(!nodes.is_empty());
        debug_assert_eq!(slabs.len(), cursors.len());
        // SAFETY: AVX2+F16C verified above; gather bounds per module
        // docs.
        unsafe { walk_float_avx2(nodes, slabs, cursors) }
    }

    /// Dispatch-checked entry for the f16 FLInt wave walk (integer
    /// compares only — AVX2 suffices, no F16C needed).
    #[inline]
    pub fn walk_int(nodes: &[HalfIntNode], slabs: &[&[u16]], cursors: &mut [U32x8]) {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "f16 AVX2 kernel entered without AVX2 support"
        );
        debug_assert!(!nodes.is_empty());
        debug_assert_eq!(slabs.len(), cursors.len());
        // SAFETY: AVX2 verified above; gather bounds per module docs.
        unsafe { walk_int_avx2(nodes, slabs, cursors) }
    }

    /// Dispatch-checked entry for the float wave walk over an
    /// implicit-child heap slab (AVX2 for the gathers, F16C for
    /// `vcvtph2ps`).
    #[inline]
    pub fn walk_float_heap(heap: &[u32], slabs: &[&[u16]], cursors: &mut [U32x8]) {
        assert!(
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("f16c"),
            "f16 AVX2 heap kernel entered without AVX2+F16C support"
        );
        debug_assert!(!heap.is_empty());
        debug_assert_eq!(slabs.len(), cursors.len());
        // SAFETY: AVX2+F16C verified above; gather bounds per module
        // docs.
        unsafe { walk_float_heap_avx2(heap, slabs, cursors) }
    }

    /// Dispatch-checked entry for the FLInt wave walk over an
    /// implicit-child heap slab (integer compares only — AVX2
    /// suffices).
    #[inline]
    pub fn walk_int_heap(heap: &[u32], slabs: &[&[u16]], cursors: &mut [U32x8]) {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "f16 AVX2 heap kernel entered without AVX2 support"
        );
        debug_assert!(!heap.is_empty());
        debug_assert_eq!(slabs.len(), cursors.len());
        // SAFETY: AVX2 verified above; gather bounds per module docs.
        unsafe { walk_int_heap_avx2(heap, slabs, cursors) }
    }

    /// Bulk-quantizes a gathered f32 lane slab into binary16 bit
    /// patterns with `VCVTPS2PH` (round-to-nearest-even) —
    /// bit-identical to the scalar
    /// [`Half::from_f32`](flint_core::half::Half::from_f32) loop in
    /// [`FeatureMatrix::gather_lanes_f16`](flint_data::FeatureMatrix::gather_lanes_f16),
    /// whose NaN payload mapping is pinned to the hardware rule.
    ///
    /// # Panics
    ///
    /// Panics if AVX2+F16C are unavailable, the slices differ in
    /// length, or the length is not a multiple of the lane width.
    #[inline]
    pub fn convert_lanes(src: &[f32], dst: &mut [u16]) {
        assert!(
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("f16c"),
            "f16 conversion kernel entered without AVX2+F16C support"
        );
        assert_eq!(src.len(), dst.len());
        assert_eq!(
            src.len() % 8,
            0,
            "lane slabs are a multiple of the lane width"
        );
        // SAFETY: AVX2+F16C verified above.
        unsafe { convert_lanes_f16c(src, dst) }
    }

    #[target_feature(enable = "avx2,f16c")]
    fn convert_lanes_f16c(src: &[f32], dst: &mut [u16]) {
        const RNE: i32 = _MM_FROUND_TO_NEAREST_INT;
        for (s, d) in src.chunks_exact(8).zip(dst.chunks_exact_mut(8)) {
            // SAFETY: each exact chunk is eight elements, so the
            // 32-byte load and 16-byte store stay inside them.
            unsafe {
                let v = _mm256_loadu_ps(s.as_ptr());
                _mm_storeu_si128(d.as_mut_ptr().cast(), _mm256_cvtps_ph::<RNE>(v));
            }
        }
    }

    /// Packs eight u32 lanes holding u16-range values into the
    /// `__m128i` shape `vcvtph2ps` consumes (packus is exact for
    /// values already in `0..=0xffff`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn pack_u16(v: __m256i) -> core::arch::x86_64::__m128i {
        _mm_packus_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v))
    }

    /// Fetches all eight 8-byte nodes of a wave group with two 64-bit
    /// gathers (four nodes each from the cursor's 128-bit halves) and
    /// deinterleaves them into the lane-ordered low words
    /// (`feature | payload << 16`) and high words
    /// (`left | right << 16`).
    ///
    /// The shuffle picks the even (resp. odd) dwords of both gathers
    /// — quads `[lo-even, hi-even, lo-odd, hi-odd]` per 128-bit lane —
    /// and the `0xD8` permute (0, 2, 1, 3) restores lane order.
    ///
    /// # Safety
    ///
    /// Every cursor lane must index a node inside `base`'s slice.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gather_nodes(base: *const i64, cursor: __m256i) -> (__m256i, __m256i) {
        // SAFETY: scale 8 over the node base reads exactly one 8-byte
        // node per lane at the caller-guaranteed in-bounds index.
        let lo = unsafe { _mm256_i32gather_epi64::<8>(base, _mm256_castsi256_si128(cursor)) };
        let hi =
            unsafe { _mm256_i32gather_epi64::<8>(base, _mm256_extracti128_si256::<1>(cursor)) };
        let (lo, hi) = (_mm256_castsi256_ps(lo), _mm256_castsi256_ps(hi));
        let evens = _mm256_castps_si256(_mm256_shuffle_ps::<0b10_00_10_00>(lo, hi));
        let odds = _mm256_castps_si256(_mm256_shuffle_ps::<0b11_01_11_01>(lo, hi));
        (
            _mm256_permute4x64_epi64::<0xD8>(evens),
            _mm256_permute4x64_epi64::<0xD8>(odds),
        )
    }

    #[target_feature(enable = "avx2,f16c")]
    unsafe fn walk_float_avx2(nodes: &[HalfFloatNode], slabs: &[&[u16]], cursors: &mut [U32x8]) {
        let base = nodes.as_ptr().cast::<i64>();
        let low16 = _mm256_set1_epi32(0xffff);
        let leaf = _mm256_set1_epi32(i32::from(LEAF_MARKER_F16));
        let lane_off = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut done = [false; WAVE];
        loop {
            let mut remaining = false;
            for (gi, &slab) in slabs.iter().enumerate() {
                if done[gi] {
                    continue;
                }
                // SAFETY: U32x8 is #[repr(align(32))], so the cursor
                // slot is a valid aligned 32-byte load source.
                let cursor = unsafe { _mm256_load_si256(cursors[gi].0.as_ptr().cast()) };
                // SAFETY: every cursor lane is root (0) or an in-tree
                // child index (per the module soundness argument).
                let (w0, w1) = unsafe { gather_nodes(base, cursor) };
                let feature = _mm256_and_si256(w0, low16);
                let is_leaf = _mm256_cmpeq_epi32(feature, leaf);
                if _mm256_movemask_epi8(is_leaf) == -1 {
                    done[gi] = true;
                    continue;
                }
                remaining = true;
                // word 0 high half: the binary16 threshold bits.
                let t16 = _mm256_srli_epi32::<16>(w0);
                let left = _mm256_and_si256(w1, low16);
                let right = _mm256_srli_epi32::<16>(w1);
                // Leaf lanes gather lane slot 0 (feature clamped by andnot).
                let fsafe = _mm256_andnot_si256(is_leaf, feature);
                let xidx = _mm256_add_epi32(_mm256_slli_epi32::<3>(fsafe), lane_off);
                // SAFETY: xidx = feature*8 + lane < group_stride over
                // u16 elements (scale 2); the 4-byte read at the
                // maximal index ends inside the slab's one-element
                // overhang (per the module soundness argument).
                let xg = unsafe { _mm256_i32gather_epi32::<2>(slab.as_ptr().cast(), xidx) };
                let x16 = _mm256_and_si256(xg, low16);
                // Widen both sides binary16 -> f32 (exact) and compare
                // with LE_OQ: false on NaN, identical to the scalar
                // reference walk.
                let xs = _mm256_cvtph_ps(pack_u16(x16));
                let ts = _mm256_cvtph_ps(pack_u16(t16));
                let go_left = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(xs, ts));
                let next = _mm256_blendv_epi8(right, left, go_left);
                let next = _mm256_blendv_epi8(next, cursor, is_leaf);
                // SAFETY: same aligned cursor slot as the load above,
                // borrowed mutably — a valid 32-byte store target.
                unsafe { _mm256_store_si256(cursors[gi].0.as_mut_ptr().cast(), next) };
            }
            if !remaining {
                break;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn walk_int_avx2(nodes: &[HalfIntNode], slabs: &[&[u16]], cursors: &mut [U32x8]) {
        let base = nodes.as_ptr().cast::<i64>();
        let low16 = _mm256_set1_epi32(0xffff);
        let leaf = _mm256_set1_epi32(i32::from(LEAF_MARKER_F16));
        let sign16 = _mm256_set1_epi32(i32::from(FLIP_BIT_F16));
        let feat_mask = _mm256_set1_epi32(i32::from(!FLIP_BIT_F16));
        let lane_off = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let mut done = [false; WAVE];
        loop {
            let mut remaining = false;
            for (gi, &slab) in slabs.iter().enumerate() {
                if done[gi] {
                    continue;
                }
                // SAFETY: U32x8 is #[repr(align(32))], so the cursor
                // slot is a valid aligned 32-byte load source.
                let cursor = unsafe { _mm256_load_si256(cursors[gi].0.as_ptr().cast()) };
                // SAFETY: every cursor lane is root (0) or an in-tree
                // child index (per the module soundness argument).
                let (w0, w1) = unsafe { gather_nodes(base, cursor) };
                let ff = _mm256_and_si256(w0, low16);
                let is_leaf = _mm256_cmpeq_epi32(ff, leaf);
                if _mm256_movemask_epi8(is_leaf) == -1 {
                    done[gi] = true;
                    continue;
                }
                remaining = true;
                // word 0 high half, arithmetic shift: the sign-extended
                // i16 prepared key.
                let key = _mm256_srai_epi32::<16>(w0);
                let left = _mm256_and_si256(w1, low16);
                let right = _mm256_srli_epi32::<16>(w1);
                // Flip mask: broadcast bit 15 of feature_and_flip.
                let flip = _mm256_srai_epi32::<31>(_mm256_slli_epi32::<16>(ff));
                let fsafe = _mm256_andnot_si256(is_leaf, _mm256_and_si256(ff, feat_mask));
                let xidx = _mm256_add_epi32(_mm256_slli_epi32::<3>(fsafe), lane_off);
                // SAFETY: xidx = feature*8 + lane < group_stride over
                // u16 elements (scale 2); the 4-byte read at the
                // maximal index ends inside the slab's one-element
                // overhang (per the module soundness argument).
                let xg = unsafe { _mm256_i32gather_epi32::<2>(slab.as_ptr().cast(), xidx) };
                let x16 = _mm256_and_si256(xg, low16);
                // XOR in the 16-bit domain, then sign-extend — exactly
                // the portable walk's order of operations.
                let bx16 = _mm256_xor_si256(x16, _mm256_and_si256(flip, sign16));
                let bx = _mm256_srai_epi32::<16>(_mm256_slli_epi32::<16>(bx16));
                // go right: flip ? key > bx : bx > key — the negation
                // of PreparedThreshold::le_bits, lane-wise.
                let go_right = _mm256_blendv_epi8(
                    _mm256_cmpgt_epi32(bx, key),
                    _mm256_cmpgt_epi32(key, bx),
                    flip,
                );
                let next = _mm256_blendv_epi8(left, right, go_right);
                let next = _mm256_blendv_epi8(next, cursor, is_leaf);
                // SAFETY: same aligned cursor slot as the load above,
                // borrowed mutably — a valid 32-byte store target.
                unsafe { _mm256_store_si256(cursors[gi].0.as_mut_ptr().cast(), next) };
            }
            if !remaining {
                break;
            }
        }
    }

    #[target_feature(enable = "avx2,f16c")]
    unsafe fn walk_float_heap_avx2(heap: &[u32], slabs: &[&[u16]], cursors: &mut [U32x8]) {
        let base = heap.as_ptr().cast::<i32>();
        let low16 = _mm256_set1_epi32(0xffff);
        let leaf = _mm256_set1_epi32(i32::from(LEAF_MARKER_F16));
        let lane_off = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let one = _mm256_set1_epi32(1);
        let mut done = [false; WAVE];
        loop {
            let mut remaining = false;
            for (gi, &slab) in slabs.iter().enumerate() {
                if done[gi] {
                    continue;
                }
                // SAFETY: U32x8 is #[repr(align(32))], so the cursor
                // slot is a valid aligned 32-byte load source.
                let cursor = unsafe { _mm256_load_si256(cursors[gi].0.as_ptr().cast()) };
                // SAFETY: every cursor lane is a heap position of a
                // real node — root (0) or a child slot `2p + 1`/`2p + 2`
                // of a split node, which the full-depth heap always
                // allocates (per the module soundness argument) — so
                // each 4-byte gather at scale 4 stays in bounds.
                let w0 = unsafe { _mm256_i32gather_epi32::<4>(base, cursor) };
                let feature = _mm256_and_si256(w0, low16);
                let is_leaf = _mm256_cmpeq_epi32(feature, leaf);
                if _mm256_movemask_epi8(is_leaf) == -1 {
                    done[gi] = true;
                    continue;
                }
                remaining = true;
                // High half of the node word: the binary16 threshold.
                let t16 = _mm256_srli_epi32::<16>(w0);
                // Leaf lanes gather lane slot 0 (feature clamped by andnot).
                let fsafe = _mm256_andnot_si256(is_leaf, feature);
                let xidx = _mm256_add_epi32(_mm256_slli_epi32::<3>(fsafe), lane_off);
                // SAFETY: xidx = feature*8 + lane < group_stride over
                // u16 elements (scale 2); the 4-byte read at the
                // maximal index ends inside the slab's one-element
                // overhang (per the module soundness argument).
                let xg = unsafe { _mm256_i32gather_epi32::<2>(slab.as_ptr().cast(), xidx) };
                let x16 = _mm256_and_si256(xg, low16);
                let xs = _mm256_cvtph_ps(pack_u16(x16));
                let ts = _mm256_cvtph_ps(pack_u16(t16));
                let go_left = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(xs, ts));
                // Implicit children: left at 2c+1, right one further.
                let lchild = _mm256_add_epi32(_mm256_slli_epi32::<1>(cursor), one);
                let next = _mm256_add_epi32(lchild, _mm256_andnot_si256(go_left, one));
                let next = _mm256_blendv_epi8(next, cursor, is_leaf);
                // SAFETY: same aligned cursor slot as the load above,
                // borrowed mutably — a valid 32-byte store target.
                unsafe { _mm256_store_si256(cursors[gi].0.as_mut_ptr().cast(), next) };
            }
            if !remaining {
                break;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn walk_int_heap_avx2(heap: &[u32], slabs: &[&[u16]], cursors: &mut [U32x8]) {
        let base = heap.as_ptr().cast::<i32>();
        let low16 = _mm256_set1_epi32(0xffff);
        let leaf = _mm256_set1_epi32(i32::from(LEAF_MARKER_F16));
        let sign16 = _mm256_set1_epi32(i32::from(FLIP_BIT_F16));
        let feat_mask = _mm256_set1_epi32(i32::from(!FLIP_BIT_F16));
        let lane_off = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let one = _mm256_set1_epi32(1);
        let mut done = [false; WAVE];
        loop {
            let mut remaining = false;
            for (gi, &slab) in slabs.iter().enumerate() {
                if done[gi] {
                    continue;
                }
                // SAFETY: U32x8 is #[repr(align(32))], so the cursor
                // slot is a valid aligned 32-byte load source.
                let cursor = unsafe { _mm256_load_si256(cursors[gi].0.as_ptr().cast()) };
                // SAFETY: every cursor lane is a heap position of a
                // real node — root (0) or a child slot `2p + 1`/`2p + 2`
                // of a split node, which the full-depth heap always
                // allocates (per the module soundness argument) — so
                // each 4-byte gather at scale 4 stays in bounds.
                let w0 = unsafe { _mm256_i32gather_epi32::<4>(base, cursor) };
                let ff = _mm256_and_si256(w0, low16);
                let is_leaf = _mm256_cmpeq_epi32(ff, leaf);
                if _mm256_movemask_epi8(is_leaf) == -1 {
                    done[gi] = true;
                    continue;
                }
                remaining = true;
                // High half of the node word, arithmetic shift: the
                // sign-extended i16 prepared key.
                let key = _mm256_srai_epi32::<16>(w0);
                // Flip mask: broadcast bit 15 of feature_and_flip.
                let flip = _mm256_srai_epi32::<31>(_mm256_slli_epi32::<16>(ff));
                let fsafe = _mm256_andnot_si256(is_leaf, _mm256_and_si256(ff, feat_mask));
                let xidx = _mm256_add_epi32(_mm256_slli_epi32::<3>(fsafe), lane_off);
                // SAFETY: xidx = feature*8 + lane < group_stride over
                // u16 elements (scale 2); the 4-byte read at the
                // maximal index ends inside the slab's one-element
                // overhang (per the module soundness argument).
                let xg = unsafe { _mm256_i32gather_epi32::<2>(slab.as_ptr().cast(), xidx) };
                let x16 = _mm256_and_si256(xg, low16);
                // XOR in the 16-bit domain, then sign-extend — exactly
                // the portable walk's order of operations.
                let bx16 = _mm256_xor_si256(x16, _mm256_and_si256(flip, sign16));
                let bx = _mm256_srai_epi32::<16>(_mm256_slli_epi32::<16>(bx16));
                // go right: flip ? key > bx : bx > key — the negation
                // of PreparedThreshold::le_bits, lane-wise.
                let go_right = _mm256_blendv_epi8(
                    _mm256_cmpgt_epi32(bx, key),
                    _mm256_cmpgt_epi32(key, bx),
                    flip,
                );
                // Implicit children: left at 2c+1; subtracting the
                // all-ones go-right mask lands on 2c+2.
                let lchild = _mm256_add_epi32(_mm256_slli_epi32::<1>(cursor), one);
                let next = _mm256_sub_epi32(lchild, go_right);
                let next = _mm256_blendv_epi8(next, cursor, is_leaf);
                // SAFETY: same aligned cursor slot as the load above,
                // borrowed mutably — a valid 32-byte store target.
                unsafe { _mm256_store_si256(cursors[gi].0.as_mut_ptr().cast(), next) };
            }
            if !remaining {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flint_data::synth::SynthSpec;
    use flint_data::Dataset;
    use flint_forest::{ForestConfig, RandomForest};

    fn setup(compare: HalfCompare) -> (Dataset, HalfForest) {
        let data = SynthSpec::new(230, 5, 3)
            .cluster_std(1.0)
            .negative_fraction(0.5)
            .seed(11)
            .generate();
        let forest = RandomForest::fit(&data, &ForestConfig::grid(6, 8)).expect("trainable");
        let half = HalfForest::compile(&forest, compare).expect("compiles");
        (data, half)
    }

    #[test]
    fn node_sizes_stay_compact() {
        assert_eq!(core::mem::size_of::<HalfFloatNode>(), 8);
        assert_eq!(core::mem::size_of::<HalfIntNode>(), 8);
    }

    #[test]
    fn lane_walk_matches_the_scalar_f16_reference() {
        for compare in [HalfCompare::Flint, HalfCompare::Float] {
            let (data, half) = setup(compare);
            let want: Vec<u32> = (0..data.n_samples())
                .map(|i| half.predict(data.sample(i)))
                .collect();
            let matrix = FeatureMatrix::from_dataset(&data);
            for block in [1usize, 7, 64, 1024] {
                for threads in [1usize, 4] {
                    let opts = BatchOptions::default()
                        .block_samples(block)
                        .threads(threads);
                    let engine = SimdF16Engine::new(half.clone(), opts);
                    assert_eq!(
                        engine.predict(&matrix),
                        want,
                        "{compare:?} block {block} threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn both_compare_families_agree_away_from_thresholds() {
        // The two f16 families quantize identically, so they decide
        // identically on every non-NaN input.
        let (data, flint) = setup(HalfCompare::Flint);
        let (_, float) = setup(HalfCompare::Float);
        for i in 0..data.n_samples() {
            let x = data.sample(i);
            assert_eq!(flint.predict(x), float.predict(x), "sample {i}");
        }
    }

    #[test]
    fn avx2_and_portable_f16_paths_agree() {
        if !crate::simd::avx2_enabled() {
            return; // feature off or CPU without AVX2
        }
        let caps = crate::dispatch::KernelCaps::get();
        for compare in [HalfCompare::Flint, HalfCompare::Float] {
            if matches!(compare, HalfCompare::Float) && !caps.f16c {
                continue; // the float kernel additionally needs F16C
            }
            let (data, half) = setup(compare);
            let matrix = FeatureMatrix::from_dataset(&data);
            let engine = SimdF16Engine::new(half, BatchOptions::default().block_samples(13));
            let accelerated = engine
                .clone()
                .with_kernel(KernelPath::Avx2)
                .predict(&matrix);
            let portable = engine.with_kernel(KernelPath::Portable).predict(&matrix);
            assert_eq!(accelerated, portable, "{compare:?}");
        }
    }

    #[test]
    fn empty_batch_and_wrong_width() {
        let (_, half) = setup(HalfCompare::Flint);
        let empty = FeatureMatrix::from_row_major(0, half.n_features(), &[]);
        let engine = SimdF16Engine::new(half, BatchOptions::default().threads(3));
        assert_eq!(engine.predict(&empty), Vec::<u32>::new());
    }

    #[test]
    #[should_panic(expected = "feature matrix width")]
    fn wrong_width_panics() {
        let (_, half) = setup(HalfCompare::Flint);
        let bad = FeatureMatrix::from_row_major(1, 2, &[0.0, 0.0]);
        let _ = SimdF16Engine::new(half, BatchOptions::default()).predict(&bad);
    }

    #[test]
    fn quantization_drift_is_small_on_realistic_data() {
        // The f16 engines may legitimately flip samples within half an
        // f16 ULP of a split; on well-separated clusters that must
        // stay a small minority of decisions.
        let (data, half) = setup(HalfCompare::Flint);
        let forest = RandomForest::fit(&data, &ForestConfig::grid(6, 8)).expect("trainable");
        let drift = (0..data.n_samples())
            .filter(|&i| half.predict(data.sample(i)) != forest.predict_majority(data.sample(i)))
            .count();
        assert!(
            drift * 50 <= data.n_samples(),
            "f16 drift {drift}/{} exceeds 2%",
            data.n_samples()
        );
    }

    /// Feature values that sit on the edges of binary16 quantization
    /// for `forest`: NaN payloads of both signs (quiet and signalling),
    /// ±inf, ±0, f32 and binary16 subnormals, the binary16 overflow
    /// boundary, and for every split `t`: `t` and its f32 neighbours,
    /// `t` quantized and widened back, the binary16 values one ulp to
    /// either side, and the rounding ties between them ±1 f32 ulp.
    fn quantization_edges(forest: &RandomForest) -> Vec<f32> {
        let neighbours = |x: f32| {
            [
                x,
                f32::from_bits(x.to_bits().wrapping_add(1)),
                f32::from_bits(x.to_bits().wrapping_sub(1)),
            ]
        };
        let mut values = vec![
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xff80_2000),
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffff_ffff),
            f32::INFINITY,
            f32::NEG_INFINITY,
            65_504.0,
            65_520.0,
            -65_520.0,
            f32::MAX,
            f32::MIN,
        ];
        for x in [0.0f32, f32::from_bits(0x007f_ffff), 5.96e-8, 6.1e-5] {
            values.extend(neighbours(x));
            values.extend(neighbours(-x));
        }
        for tree in forest.trees() {
            for node in tree.nodes() {
                if let Node::Split { threshold, .. } = node {
                    let h = Half::from_f32(*threshold).to_bits();
                    values.extend(neighbours(*threshold));
                    for bits in [h, h.wrapping_add(1), h.wrapping_sub(1)] {
                        values.push(Half::from_bits(bits).to_f32());
                    }
                    for side in [h.wrapping_add(1), h.wrapping_sub(1)] {
                        let tie =
                            (Half::from_bits(h).to_f32() + Half::from_bits(side).to_f32()) / 2.0;
                        values.extend(neighbours(tie));
                    }
                }
            }
        }
        values
    }

    /// Every tree's quantize-once walk against its quantize-per-node
    /// oracle on `row`, plus the forest histogram built from them.
    fn assert_walks_agree(half: &HalfForest, row: &[f32]) {
        let bits: Vec<u16> = row.iter().map(|&x| Half::from_f32(x).to_bits()).collect();
        let (per_node, once): (Vec<u32>, Vec<u32>) = match &half.trees {
            HalfTrees::Float(trees) => trees
                .iter()
                .map(|t| (t.predict(row), t.predict_bits(&bits)))
                .unzip(),
            HalfTrees::Int(trees) => trees
                .iter()
                .map(|t| (t.predict(row), t.predict_bits(&bits)))
                .unzip(),
        };
        assert_eq!(per_node, once, "{:?} row {row:?}", half.compare());
        let mut votes = vec![0u32; half.n_classes()];
        for class in per_node {
            votes[class as usize] += 1;
        }
        assert_eq!(
            half.predict_votes(row),
            votes,
            "{:?} row {row:?}",
            half.compare()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// The quantize-once walk behind `predict_votes` is
        /// bit-identical to the per-node walk on rows mixing
        /// quantization edges with raw bit patterns, in both compare
        /// families.
        #[test]
        fn quantize_once_walk_matches_the_per_node_walk(
            seed in 0u64..12,
            picks in proptest::collection::vec(proptest::prelude::any::<u32>(), 5),
            raw_mask in 0u32..32,
        ) {
            let data = SynthSpec::new(160, 5, 3)
                .cluster_std(1.0)
                .negative_fraction(0.5)
                .seed(seed)
                .generate();
            let forest = RandomForest::fit(&data, &ForestConfig::grid(5, 8)).expect("trainable");
            let edges = quantization_edges(&forest);
            let row: Vec<f32> = picks
                .iter()
                .enumerate()
                .map(|(f, &p)| {
                    if raw_mask & (1 << f) != 0 {
                        f32::from_bits(p)
                    } else {
                        edges[p as usize % edges.len()]
                    }
                })
                .collect();
            for compare in [HalfCompare::Flint, HalfCompare::Float] {
                let half = HalfForest::compile(&forest, compare).expect("compiles");
                assert_walks_agree(&half, &row);
                // Each edge value on its own, broadcast to every
                // feature, so no edge depends on being drawn.
                if seed == 0 {
                    for &x in &edges {
                        assert_walks_agree(&half, &[x; 5]);
                    }
                }
            }
        }
    }
}
