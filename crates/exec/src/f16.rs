//! Half-precision node slabs: the binary16 node formats of the
//! `simd-f16` / `simd-f16-float` lane engines.
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
//! On the AVX2 path the engine goes further when **every** tree of the
//! forest is at most 15 levels deep: it re-lays each tree into a
//! **4-byte implicit-child heap slab**, which drops the stored child
//! indices, so a traversal level costs two gathers (node word +
//! feature) against the f32 kernels' five. The decision is made once
//! per forest: one deeper tree keeps the whole forest on 8-byte nodes.
//! Both layouts store the same threshold bits and order keys, only
//! addressed differently. Either way the engine is the one lane walker
//! of [`crate::simd`]; this module supplies the node formats, their
//! 16-bit slab fills and their per-path steps.
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
//! into its `i16` order key ([`flint_core::PreparedThreshold`] is
//! generic over the float width — Theorem 2 applies unchanged, its
//! negative-split case folded into the key), keys each quantized
//! feature once per row or lane group ([`flint_core::order_key`] at
//! 16 bits, `i16` slabs), and compares keys with one signed 16-bit
//! integer compare per node;
//! [`HalfCompare::Float`] widens both sides to `f32` and uses IEEE
//! `<=` (on AVX2 via F16C `vcvtph2ps`, so that path additionally
//! requires the `f16c` CPU capability — [`f16_policy`] encodes this).
//!
//! ```
//! use flint_data::{synth::SynthSpec, FeatureMatrix};
//! use flint_exec::f16::{HalfCompare, HalfForest};
//! use flint_exec::{EngineBuilder, EngineKind};
//! use flint_forest::{ForestConfig, RandomForest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = SynthSpec::new(200, 4, 3).generate();
//! let forest = RandomForest::fit(&data, &ForestConfig::grid(5, 7))?;
//! let half = HalfForest::compile(&forest, HalfCompare::Flint)?;
//!
//! let engine = EngineBuilder::new(&forest).build(EngineKind::SimdF16(HalfCompare::Flint))?;
//! let batch = engine.predict_matrix(&FeatureMatrix::from_dataset(&data));
//! // The engine's contract: bit-identical to its own scalar f16 walk.
//! for i in 0..data.n_samples() {
//!     assert_eq!(batch[i], half.predict(data.sample(i)));
//! }
//! # Ok(())
//! # }
//! ```

use crate::compile::CompileTreeError;
use crate::dispatch::{KernelPath, KernelPolicy};
use crate::simd::{step_portable, walk_wave, F32x8, Lane, LaneTree, U32x8};
use flint_core::half::Half;
use flint_core::{order_key, PreparedThreshold};
use flint_data::FeatureMatrix;
use flint_forest::{DecisionTree, Node, NodeId, RandomForest};
use flint_layout::{LayoutStrategy, TreeLayout, TreeProfile};

/// Marker stored in the feature field of half-precision leaf nodes.
pub const LEAF_MARKER_F16: u16 = u16::MAX;

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

/// An 8-byte node with the binary16 threshold's FLInt order key: a row
/// goes left iff its quantized feature's order key is `<= key`.
///
/// `repr(C)` for the same word-gather reason as [`HalfFloatNode`];
/// word 0 is `feature | (key as u16) << 16`, so an arithmetic right
/// shift by 16 recovers the sign-extended key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct HalfIntNode {
    /// Feature index, or [`LEAF_MARKER_F16`] for leaves.
    pub feature: u16,
    /// The split's 16-bit order key ([`PreparedThreshold::order_key`]
    /// over [`Half`]).
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
    /// FLInt 16-bit integer compares on order keys (registry name
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
    /// into its `i16` order key (Theorem 2 at 16-bit width).
    ///
    /// # Errors
    ///
    /// [`CompileTreeError::NanThreshold`] for NaN split values,
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
                Node::Leaf { class, .. } => HalfIntNode {
                    feature: LEAF_MARKER_F16,
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
                    if *feature >= u32::from(LEAF_MARKER_F16) {
                        return Err(CompileTreeError::FeatureTooLarge { node: id });
                    }
                    let prepared = PreparedThreshold::new(Half::from_f32(*threshold))
                        .map_err(|_| CompileTreeError::NanThreshold { node: id })?;
                    HalfIntNode {
                        feature: *feature as u16,
                        key: prepared.order_key(),
                        left: pos16(layout.position_of(*left), id)?,
                        right: pos16(layout.position_of(*right), id)?,
                    }
                }
            };
            nodes.push(node);
        }
        Ok(Self { nodes })
    }

    /// The scalar f16 reference walk: the feature's binary16 order key
    /// against the node's — one signed 16-bit compare, the decision of
    /// [`PreparedThreshold::le_bits`]. Quantizes and keys at every
    /// visited node; the oracle of [`predict_keys`](Self::predict_keys).
    #[inline]
    pub fn predict(&self, features: &[f32]) -> u32 {
        self.walk(|feature| order_key(Half::from_f32(features[feature])))
    }

    /// [`predict`](Self::predict) over a row quantized and keyed once
    /// (`keys[f] == order_key(Half::from_f32(features[f]))`).
    #[inline]
    pub fn predict_keys(&self, keys: &[i16]) -> u32 {
        self.walk(|feature| keys[feature])
    }

    #[inline]
    fn walk(&self, key: impl Fn(usize) -> i16) -> u32 {
        let mut idx = 0u16;
        loop {
            let node = &self.nodes[idx as usize];
            if node.feature == LEAF_MARKER_F16 {
                return u32::from(node.left);
            }
            idx = if key(node.feature as usize) <= node.key {
                node.left
            } else {
                node.right
            };
        }
    }

    /// The flat node array.
    pub fn nodes(&self) -> &[HalfIntNode] {
        &self.nodes
    }
}

/// The compiled trees of one compare mode.
#[derive(Debug, Clone)]
pub(crate) enum HalfTrees {
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

    /// The compiled trees, for the lane engine.
    pub(crate) fn trees(&self) -> &HalfTrees {
        &self.trees
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
    /// per-tree. The row is quantized (and, for FLInt, keyed) once,
    /// then every tree walks it ([`HalfFloatTree::predict_bits`],
    /// [`HalfIntTree::predict_keys`]).
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    pub fn predict_votes(&self, features: &[f32]) -> Vec<u32> {
        assert_eq!(features.len(), self.n_features, "feature vector length");
        let halves = features.iter().map(|&x| Half::from_f32(x));
        let mut votes = vec![0u32; self.n_classes];
        match &self.trees {
            HalfTrees::Float(trees) => {
                let bits: Vec<u16> = halves.map(Half::to_bits).collect();
                for tree in trees {
                    votes[tree.predict_bits(&bits) as usize] += 1;
                }
            }
            HalfTrees::Int(trees) => {
                let keys: Vec<i16> = halves.map(order_key).collect();
                for tree in trees {
                    votes[tree.predict_keys(&keys) as usize] += 1;
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
/// it exceeds [`HEAP_MAX_DEPTH`]. `fields` maps a node to its
/// `[feature, payload, left, right]` words.
#[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
fn heap_depth<N>(nodes: &[N], fields: impl Fn(&N) -> [u16; 4]) -> Option<u32> {
    let mut depth = 0;
    let mut stack = vec![(0u16, 0u32)];
    while let Some((flat, level)) = stack.pop() {
        if level > HEAP_MAX_DEPTH {
            return None;
        }
        depth = depth.max(level);
        let [feature, _, left, right] = fields(&nodes[flat as usize]);
        if feature != LEAF_MARKER_F16 {
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
fn heapify<N>(nodes: &[N], fields: impl Fn(&N) -> [u16; 4]) -> Option<Vec<u32>> {
    let depth = heap_depth(nodes, &fields)?;
    let mut heap = vec![u32::from(LEAF_MARKER_F16); (1usize << (depth + 1)) - 1];
    let mut stack = vec![(0u16, 0usize)];
    while let Some((flat, pos)) = stack.pop() {
        let [feature, payload, left, right] = fields(&nodes[flat as usize]);
        if feature == LEAF_MARKER_F16 {
            heap[pos] = u32::from(LEAF_MARKER_F16) | u32::from(left) << 16;
        } else {
            heap[pos] = u32::from(feature) | u32::from(payload) << 16;
            stack.push((left, 2 * pos + 1));
            stack.push((right, 2 * pos + 2));
        }
    }
    Some(heap)
}

/// A float-comparison tree heapified by [`heapify`]: word payloads are
/// binary16 threshold bits.
#[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
#[derive(Debug, Clone)]
pub(crate) struct FloatHeap(Vec<u32>);

/// An FLInt-comparison tree heapified by [`heapify`]: word payloads are
/// `i16` order keys.
#[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
#[derive(Debug, Clone)]
pub(crate) struct IntHeap(Vec<u32>);

/// How a lane engine lays out a [`HalfForest`]'s nodes — decided once
/// per forest by [`HalfLayout::select`].
#[derive(Debug, Clone)]
pub(crate) enum HalfLayout {
    /// The forest's own 8-byte explicit-child nodes.
    Nodes,
    /// Every float-comparison tree as a 4-byte heap slab.
    #[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
    FloatHeap(Vec<FloatHeap>),
    /// Every FLInt-comparison tree as a 4-byte heap slab.
    #[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
    IntHeap(Vec<IntHeap>),
}

impl HalfLayout {
    /// The heap slabs when `path` is AVX2 (only its kernels walk them)
    /// and every tree fits the heap layout; otherwise — one tree deeper
    /// than `HEAP_MAX_DEPTH` is enough — the 8-byte nodes.
    pub(crate) fn select(forest: &HalfForest, path: KernelPath) -> Self {
        #[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
        if path == KernelPath::Avx2 {
            let heaps = match &forest.trees {
                HalfTrees::Float(trees) => trees
                    .iter()
                    .map(|t| {
                        heapify(&t.nodes, |n| [n.feature, n.threshold, n.left, n.right])
                            .map(FloatHeap)
                    })
                    .collect::<Option<_>>()
                    .map(HalfLayout::FloatHeap),
                HalfTrees::Int(trees) => trees
                    .iter()
                    .map(|t| {
                        heapify(&t.nodes, |n| [n.feature, n.key as u16, n.left, n.right])
                            .map(IntHeap)
                    })
                    .collect::<Option<_>>()
                    .map(HalfLayout::IntHeap),
            };
            if let Some(heaps) = heaps {
                return heaps;
            }
        }
        #[cfg(not(all(feature = "simd-avx2", target_arch = "x86_64")))]
        let _ = (forest, path);
        HalfLayout::Nodes
    }
}

impl Lane for u16 {
    /// The AVX2 u16 gathers read 4 bytes at 2-byte granularity, so the
    /// read at a slab's final index needs one element past it.
    const OVERHANG: usize = 1;

    /// Quantizes the group's features into binary16 bits — via the
    /// F16C bulk converter when the engine dispatched to the AVX2 path
    /// on a CPU with F16C, via the scalar
    /// [`FeatureMatrix::gather_lanes_f16`] loop otherwise. The two
    /// routes are bit-identical: [`Half::from_f32`] pins the
    /// `VCVTPS2PH` hardware mapping (round-to-nearest-even,
    /// quiet-bit-forced NaN payloads).
    #[inline]
    fn fill(
        matrix: &FeatureMatrix,
        first: usize,
        slab: &mut [u16],
        scratch: &mut [f32],
        path: KernelPath,
    ) {
        #[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
        if path == KernelPath::Avx2 && crate::dispatch::KernelCaps::get().f16c {
            matrix.gather_lanes(first, scratch);
            avx2::convert_lanes(scratch, slab);
            return;
        }
        #[cfg(not(all(feature = "simd-avx2", target_arch = "x86_64")))]
        let _ = (scratch, path);
        matrix.gather_lanes_f16(first, slab);
    }
}

/// The FLInt binary16 slab: each lane's feature quantized and keyed
/// ([`order_key`] at 16 bits) once per group, so every node the group
/// visits is one signed compare.
impl Lane for i16 {
    /// The same 4-byte reads at 2-byte granularity as the `u16` slab.
    const OVERHANG: usize = 1;

    /// Gathers the group's f32 lanes, then quantizes and keys them —
    /// via `VCVTPS2PH` plus a vector key on the AVX2 path with F16C,
    /// via [`Half::from_f32`] and [`order_key`] otherwise; the routes
    /// are bit-identical, as for the `u16` slab.
    #[inline]
    fn fill(
        matrix: &FeatureMatrix,
        first: usize,
        slab: &mut [i16],
        scratch: &mut [f32],
        path: KernelPath,
    ) {
        matrix.gather_lanes(first, scratch);
        #[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
        if path == KernelPath::Avx2 && crate::dispatch::KernelCaps::get().f16c {
            avx2::convert_keys(scratch, slab);
            return;
        }
        #[cfg(not(all(feature = "simd-avx2", target_arch = "x86_64")))]
        let _ = path;
        for (key, &x) in slab.iter_mut().zip(scratch.iter()) {
            *key = order_key(Half::from_f32(x));
        }
    }
}

impl LaneTree for HalfFloatTree {
    type Lane = u16;

    #[inline]
    fn walk(&self, slabs: &[&[u16]], cursors: &mut [U32x8], path: KernelPath) {
        match path {
            #[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
            KernelPath::Avx2 => avx2::walk_float(&self.nodes, slabs, cursors),
            _ => walk_wave(slabs, cursors, |slab, cursor| {
                let fields = |n: &HalfFloatNode| [n.feature, n.threshold, n.left, n.right];
                let widen = |bits: u32| Half::from_bits(bits as u16).to_f32();
                let leaf = u32::from(LEAF_MARKER_F16);
                step_portable(
                    &self.nodes,
                    slab,
                    cursor,
                    |n| fields(n).map(u32::from),
                    leaf,
                    |t, x| {
                        // Widen both sides binary16 -> f32 (exact), then
                        // IEEE `<=`, like the scalar reference walk.
                        F32x8(x.map(|b| widen(u32::from(b)))).le(F32x8(t.0.map(widen)))
                    },
                )
            }),
        }
    }

    #[inline]
    fn leaf_class(&self, cursor: u32) -> u32 {
        u32::from(self.nodes[cursor as usize].left)
    }
}

impl LaneTree for HalfIntTree {
    type Lane = i16;

    #[inline]
    fn walk(&self, slabs: &[&[i16]], cursors: &mut [U32x8], path: KernelPath) {
        match path {
            #[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
            KernelPath::Avx2 => avx2::walk_int(&self.nodes, slabs, cursors),
            _ => walk_wave(slabs, cursors, |slab, cursor| {
                // Keys sign-extend to 32 bits, which preserves i16 order.
                let wide = |k: i16| i32::from(k) as u32;
                let fields = |n: &HalfIntNode| {
                    [
                        u32::from(n.feature),
                        wide(n.key),
                        u32::from(n.left),
                        u32::from(n.right),
                    ]
                };
                let leaf = u32::from(LEAF_MARKER_F16);
                step_portable(&self.nodes, slab, cursor, fields, leaf, |key, x| {
                    // Left where key(x) <= node key: one signed compare.
                    U32x8(x.map(wide))
                        .gt_signed(key)
                        .xor(U32x8::splat(u32::MAX))
                })
            }),
        }
    }

    #[inline]
    fn leaf_class(&self, cursor: u32) -> u32 {
        u32::from(self.nodes[cursor as usize].left)
    }
}

/// Heap slabs exist only on the AVX2 path ([`HalfLayout::select`]), so
/// they have no other kernel; a leaf word carries its class in the high
/// half.
#[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
impl LaneTree for FloatHeap {
    type Lane = u16;

    #[inline]
    fn walk(&self, slabs: &[&[u16]], cursors: &mut [U32x8], _: KernelPath) {
        avx2::walk_float_heap(&self.0, slabs, cursors);
    }

    #[inline]
    fn leaf_class(&self, cursor: u32) -> u32 {
        self.0[cursor as usize] >> 16
    }
}

#[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
impl LaneTree for IntHeap {
    type Lane = i16;

    #[inline]
    fn walk(&self, slabs: &[&[i16]], cursors: &mut [U32x8], _: KernelPath) {
        avx2::walk_int_heap(&self.0, slabs, cursors);
    }

    #[inline]
    fn leaf_class(&self, cursor: u32) -> u32 {
        self.0[cursor as usize] >> 16
    }
}

/// The `std::arch` AVX2 kernels for the 8-byte node formats: one
/// **64-bit gather pair** per level fetches all eight nodes whole
/// (half the gather µops of the f32 kernels' four 32-bit-word
/// gathers), plus one 2-byte-scaled feature gather — the bandwidth
/// halving this module exists for. The float path additionally bulk-
/// quantizes feature slabs with `VCVTPS2PH` ([`convert_lanes`]).
///
/// The heap walks (`walk_float_heap`/`walk_int_heap`) go further:
/// a tree heapified into 4-byte implicit-child words needs only **one
/// 32-bit node gather** per level — children live at `2p + 1`/`2p + 2`
/// and are reached by shift-add arithmetic instead of a second stored
/// word — cutting the per-level gather count to two (node + feature)
/// against the f32 kernels' five. Every kernel is a step run by the
/// shared [`walk_wave`] loop.
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
/// * feature gathers use scale 2 over 2-byte elements (binary16 bits
///   or their `i16` order keys) at index
///   `feature * 8 + lane < group_stride`; each 4-byte read therefore
///   ends at byte `2 * (group_stride - 1) + 4` at most, which the
///   one-element overhang every group's slab is carved with (the
///   `u16`/`i16` `Lane::OVERHANG`, applied by the shared span scorer)
///   keeps in bounds;
/// * the F16C slab converters walk equal-length exact chunks of their
///   two slices, whose destination elements are 2 bytes (asserted at
///   compile time).
#[cfg(all(feature = "simd-avx2", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod avx2 {
    use super::{walk_wave, HalfFloatNode, HalfIntNode, U32x8, LEAF_MARKER_F16};
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_andnot_si256, _mm256_blendv_epi8,
        _mm256_castps_si256, _mm256_castsi256_ps, _mm256_castsi256_si128, _mm256_cmp_ps,
        _mm256_cmpeq_epi32, _mm256_cmpgt_epi32, _mm256_cvtph_ps, _mm256_cvtps_ph,
        _mm256_extracti128_si256, _mm256_i32gather_epi32, _mm256_i32gather_epi64,
        _mm256_load_si256, _mm256_loadu_ps, _mm256_movemask_epi8, _mm256_permute4x64_epi64,
        _mm256_set1_epi32, _mm256_setr_epi32, _mm256_shuffle_ps, _mm256_slli_epi32,
        _mm256_srai_epi32, _mm256_srli_epi32, _mm256_store_si256, _mm256_sub_epi32, _mm_and_si128,
        _mm_packus_epi32, _mm_set1_epi16, _mm_srai_epi16, _mm_storeu_si128, _mm_xor_si128,
        _CMP_LE_OQ, _MM_FROUND_TO_NEAREST_INT,
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

    /// Dispatch-checked entry for the f16 FLInt wave walk over order
    /// keys (integer compares only — AVX2 suffices, no F16C needed).
    #[inline]
    pub fn walk_int(nodes: &[HalfIntNode], slabs: &[&[i16]], cursors: &mut [U32x8]) {
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
    pub fn walk_int_heap(heap: &[u32], slabs: &[&[i16]], cursors: &mut [U32x8]) {
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
        convert::<false, u16>(src, dst);
    }

    /// [`convert_lanes`], then each lane's 16-bit FLInt order key
    /// (`h ^ ((h >> 15) & 0x7fff)`, arithmetic shift) — bit-identical to
    /// [`order_key`](flint_core::order_key) over
    /// [`Half::from_f32`](flint_core::half::Half::from_f32).
    ///
    /// # Panics
    ///
    /// As [`convert_lanes`].
    #[inline]
    pub fn convert_keys(src: &[f32], dst: &mut [i16]) {
        convert::<true, i16>(src, dst);
    }

    #[inline]
    fn convert<const KEY: bool, T>(src: &[f32], dst: &mut [T]) {
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
        unsafe { convert_f16c::<KEY, T>(src, dst) }
    }

    #[target_feature(enable = "avx2,f16c")]
    fn convert_f16c<const KEY: bool, T>(src: &[f32], dst: &mut [T]) {
        const { assert!(core::mem::size_of::<T>() == 2) };
        const RNE: i32 = _MM_FROUND_TO_NEAREST_INT;
        for (s, d) in src.chunks_exact(8).zip(dst.chunks_exact_mut(8)) {
            // SAFETY: each exact chunk is eight elements (4-byte
            // sources, 2-byte destinations), so the 32-byte load and
            // 16-byte store stay inside them.
            unsafe {
                let h = _mm256_cvtps_ph::<RNE>(_mm256_loadu_ps(s.as_ptr()));
                let h = if KEY {
                    let below_sign = _mm_and_si128(_mm_srai_epi16::<15>(h), _mm_set1_epi16(0x7fff));
                    _mm_xor_si128(h, below_sign)
                } else {
                    h
                };
                _mm_storeu_si128(d.as_mut_ptr().cast(), h);
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

    /// Each lane's 4-byte slab read at element `feature * 8 + lane` (a
    /// 2-byte-scaled gather): the lane's 2-byte element in the low
    /// half.
    ///
    /// # Safety
    ///
    /// Every `feature` lane must be a valid feature index of the
    /// group's slab (leaf lanes clamped to 0), and the slab must run
    /// one element past its last lane value. Slab elements are 2 bytes
    /// (asserted at compile time).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gather16<T>(slab: &[T], feature: __m256i) -> __m256i {
        const { assert!(core::mem::size_of::<T>() == 2) };
        let lane_off = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let xidx = _mm256_add_epi32(_mm256_slli_epi32::<3>(feature), lane_off);
        // SAFETY: xidx = feature*8 + lane < group_stride over 2-byte
        // elements (scale 2); the 4-byte read at the maximal index ends
        // inside the slab's one-element overhang (per the module
        // soundness argument and the caller's guarantee).
        unsafe { _mm256_i32gather_epi32::<2>(slab.as_ptr().cast(), xidx) }
    }

    /// The binary16 feature bits of each lane, zero-extended.
    ///
    /// # Safety
    ///
    /// As [`gather16`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gather_x16(slab: &[u16], feature: __m256i) -> __m256i {
        // SAFETY: forwarded from the caller.
        _mm256_and_si256(
            unsafe { gather16(slab, feature) },
            _mm256_set1_epi32(0xffff),
        )
    }

    /// The `i16` order key of each lane, sign-extended (which preserves
    /// its order) for the 32-bit signed compare.
    ///
    /// # Safety
    ///
    /// As [`gather16`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gather_key16(slab: &[i16], feature: __m256i) -> __m256i {
        // SAFETY: forwarded from the caller.
        let word = unsafe { gather16(slab, feature) };
        _mm256_srai_epi32::<16>(_mm256_slli_epi32::<16>(word))
    }

    /// The float family's compare: widen both sides binary16 -> f32
    /// (exact) and take LE_OQ — false on NaN, identical to the scalar
    /// reference walk. All-ones lanes go left.
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    fn le_f16(x16: __m256i, t16: __m256i) -> __m256i {
        let xs = _mm256_cvtph_ps(pack_u16(x16));
        let ts = _mm256_cvtph_ps(pack_u16(t16));
        _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(xs, ts))
    }

    #[target_feature(enable = "avx2,f16c")]
    unsafe fn walk_float_avx2(nodes: &[HalfFloatNode], slabs: &[&[u16]], cursors: &mut [U32x8]) {
        let base = nodes.as_ptr().cast::<i64>();
        let low16 = _mm256_set1_epi32(0xffff);
        let leaf = _mm256_set1_epi32(i32::from(LEAF_MARKER_F16));
        walk_wave(slabs, cursors, |slab, slot| {
            // SAFETY: U32x8 is #[repr(align(32))], so the cursor slot
            // is a valid aligned 32-byte load source.
            let cursor = unsafe { _mm256_load_si256(slot.0.as_ptr().cast()) };
            // SAFETY: every cursor lane is root (0) or an in-tree child
            // index (per the module soundness argument).
            let (w0, w1) = unsafe { gather_nodes(base, cursor) };
            let feature = _mm256_and_si256(w0, low16);
            let is_leaf = _mm256_cmpeq_epi32(feature, leaf);
            if _mm256_movemask_epi8(is_leaf) == -1 {
                return false;
            }
            // Leaf lanes gather lane slot 0 (feature clamped by andnot).
            // SAFETY: split lanes hold valid feature indices, and the
            // span scorer carves every u16 slab with its overhang.
            let x16 = unsafe { gather_x16(slab, _mm256_andnot_si256(is_leaf, feature)) };
            // word 0 high half: the binary16 threshold bits.
            let go_left = le_f16(x16, _mm256_srli_epi32::<16>(w0));
            let left = _mm256_and_si256(w1, low16);
            let right = _mm256_srli_epi32::<16>(w1);
            let next = _mm256_blendv_epi8(right, left, go_left);
            let next = _mm256_blendv_epi8(next, cursor, is_leaf);
            // SAFETY: same aligned cursor slot as the load above,
            // borrowed mutably — a valid 32-byte store target.
            unsafe { _mm256_store_si256(slot.0.as_mut_ptr().cast(), next) };
            true
        });
    }

    #[target_feature(enable = "avx2")]
    unsafe fn walk_int_avx2(nodes: &[HalfIntNode], slabs: &[&[i16]], cursors: &mut [U32x8]) {
        let base = nodes.as_ptr().cast::<i64>();
        let low16 = _mm256_set1_epi32(0xffff);
        let leaf = _mm256_set1_epi32(i32::from(LEAF_MARKER_F16));
        walk_wave(slabs, cursors, |slab, slot| {
            // SAFETY: U32x8 is #[repr(align(32))], so the cursor slot
            // is a valid aligned 32-byte load source.
            let cursor = unsafe { _mm256_load_si256(slot.0.as_ptr().cast()) };
            // SAFETY: every cursor lane is root (0) or an in-tree child
            // index (per the module soundness argument).
            let (w0, w1) = unsafe { gather_nodes(base, cursor) };
            let feature = _mm256_and_si256(w0, low16);
            let is_leaf = _mm256_cmpeq_epi32(feature, leaf);
            if _mm256_movemask_epi8(is_leaf) == -1 {
                return false;
            }
            // Leaf lanes gather lane slot 0 (feature clamped by andnot).
            // SAFETY: split lanes hold valid feature indices, and the
            // span scorer carves every i16 slab with its overhang.
            let x = unsafe { gather_key16(slab, _mm256_andnot_si256(is_leaf, feature)) };
            // word 0 high half, arithmetic shift: the sign-extended i16
            // order key. Right where key(x) > node key: one signed
            // compare.
            let go_right = _mm256_cmpgt_epi32(x, _mm256_srai_epi32::<16>(w0));
            let left = _mm256_and_si256(w1, low16);
            let right = _mm256_srli_epi32::<16>(w1);
            let next = _mm256_blendv_epi8(left, right, go_right);
            let next = _mm256_blendv_epi8(next, cursor, is_leaf);
            // SAFETY: same aligned cursor slot as the load above,
            // borrowed mutably — a valid 32-byte store target.
            unsafe { _mm256_store_si256(slot.0.as_mut_ptr().cast(), next) };
            true
        });
    }

    #[target_feature(enable = "avx2,f16c")]
    unsafe fn walk_float_heap_avx2(heap: &[u32], slabs: &[&[u16]], cursors: &mut [U32x8]) {
        let base = heap.as_ptr().cast::<i32>();
        let low16 = _mm256_set1_epi32(0xffff);
        let leaf = _mm256_set1_epi32(i32::from(LEAF_MARKER_F16));
        let one = _mm256_set1_epi32(1);
        walk_wave(slabs, cursors, |slab, slot| {
            // SAFETY: U32x8 is #[repr(align(32))], so the cursor slot
            // is a valid aligned 32-byte load source.
            let cursor = unsafe { _mm256_load_si256(slot.0.as_ptr().cast()) };
            // SAFETY: every cursor lane is a heap position of a real
            // node — root (0) or a child slot `2p + 1`/`2p + 2` of a
            // split node, which the full-depth heap always allocates
            // (per the module soundness argument) — so each 4-byte
            // gather at scale 4 stays in bounds.
            let w0 = unsafe { _mm256_i32gather_epi32::<4>(base, cursor) };
            let feature = _mm256_and_si256(w0, low16);
            let is_leaf = _mm256_cmpeq_epi32(feature, leaf);
            if _mm256_movemask_epi8(is_leaf) == -1 {
                return false;
            }
            // Leaf lanes gather lane slot 0 (feature clamped by andnot).
            // SAFETY: split lanes hold valid feature indices, and the
            // span scorer carves every u16 slab with its overhang.
            let x16 = unsafe { gather_x16(slab, _mm256_andnot_si256(is_leaf, feature)) };
            // High half of the node word: the binary16 threshold.
            let go_left = le_f16(x16, _mm256_srli_epi32::<16>(w0));
            // Implicit children: left at 2c+1, right one further.
            let lchild = _mm256_add_epi32(_mm256_slli_epi32::<1>(cursor), one);
            let next = _mm256_add_epi32(lchild, _mm256_andnot_si256(go_left, one));
            let next = _mm256_blendv_epi8(next, cursor, is_leaf);
            // SAFETY: same aligned cursor slot as the load above,
            // borrowed mutably — a valid 32-byte store target.
            unsafe { _mm256_store_si256(slot.0.as_mut_ptr().cast(), next) };
            true
        });
    }

    #[target_feature(enable = "avx2")]
    unsafe fn walk_int_heap_avx2(heap: &[u32], slabs: &[&[i16]], cursors: &mut [U32x8]) {
        let base = heap.as_ptr().cast::<i32>();
        let low16 = _mm256_set1_epi32(0xffff);
        let leaf = _mm256_set1_epi32(i32::from(LEAF_MARKER_F16));
        let one = _mm256_set1_epi32(1);
        walk_wave(slabs, cursors, |slab, slot| {
            // SAFETY: U32x8 is #[repr(align(32))], so the cursor slot
            // is a valid aligned 32-byte load source.
            let cursor = unsafe { _mm256_load_si256(slot.0.as_ptr().cast()) };
            // SAFETY: every cursor lane is a heap position of a real
            // node — root (0) or a child slot `2p + 1`/`2p + 2` of a
            // split node, which the full-depth heap always allocates
            // (per the module soundness argument) — so each 4-byte
            // gather at scale 4 stays in bounds.
            let w0 = unsafe { _mm256_i32gather_epi32::<4>(base, cursor) };
            let feature = _mm256_and_si256(w0, low16);
            let is_leaf = _mm256_cmpeq_epi32(feature, leaf);
            if _mm256_movemask_epi8(is_leaf) == -1 {
                return false;
            }
            // Leaf lanes gather lane slot 0 (feature clamped by andnot).
            // SAFETY: split lanes hold valid feature indices, and the
            // span scorer carves every i16 slab with its overhang.
            let x = unsafe { gather_key16(slab, _mm256_andnot_si256(is_leaf, feature)) };
            // High half of the node word, arithmetic shift: the
            // sign-extended i16 order key. Right where key(x) > node
            // key: one signed compare.
            let go_right = _mm256_cmpgt_epi32(x, _mm256_srai_epi32::<16>(w0));
            // Implicit children: left at 2c+1; subtracting the all-ones
            // go-right mask lands on 2c+2.
            let lchild = _mm256_add_epi32(_mm256_slli_epi32::<1>(cursor), one);
            let next = _mm256_sub_epi32(lchild, go_right);
            let next = _mm256_blendv_epi8(next, cursor, is_leaf);
            // SAFETY: same aligned cursor slot as the load above,
            // borrowed mutably — a valid 32-byte store target.
            unsafe { _mm256_store_si256(slot.0.as_mut_ptr().cast(), next) };
            true
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchOptions;
    use crate::dispatch::KernelCaps;
    use crate::simd::{LaneEngine, SimdCompare};
    use crate::CompiledForest;
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
                    let engine = LaneEngine::simd_f16(half.clone(), opts);
                    assert_eq!(
                        engine.predict(&matrix, &opts),
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

    /// The AVX2 heap kernels against the portable 8-byte walk (the
    /// 8-byte AVX2 kernels are pinned by the deep-forest test below).
    #[test]
    fn avx2_and_portable_f16_paths_agree() {
        for compare in [HalfCompare::Flint, HalfCompare::Float] {
            // Feature off, CPU without AVX2, or (float) without F16C.
            if f16_policy(compare).select_with(KernelCaps::get(), None) != KernelPath::Avx2 {
                continue;
            }
            let (data, half) = setup(compare);
            assert!(!matches!(
                HalfLayout::select(&half, KernelPath::Avx2),
                HalfLayout::Nodes
            ));
            let matrix = FeatureMatrix::from_dataset(&data);
            let opts = BatchOptions::default().block_samples(13);
            let engine = LaneEngine::simd_f16(half.clone(), opts);
            let accelerated = engine.with_kernel(KernelPath::Avx2).predict(&matrix, &opts);
            let engine = LaneEngine::simd_f16(half, opts);
            let portable = engine
                .with_kernel(KernelPath::Portable)
                .predict(&matrix, &opts);
            assert_eq!(accelerated, portable, "{compare:?}");
        }
    }

    #[test]
    fn empty_batch_and_wrong_width() {
        let (_, half) = setup(HalfCompare::Flint);
        let empty = FeatureMatrix::from_row_major(0, half.n_features(), &[]);
        let opts = BatchOptions::default().threads(3);
        let engine = LaneEngine::simd_f16(half, opts);
        assert_eq!(engine.predict(&empty, &opts), Vec::<u32>::new());
    }

    #[test]
    #[should_panic(expected = "feature matrix width")]
    fn wrong_width_panics() {
        let (_, half) = setup(HalfCompare::Flint);
        let bad = FeatureMatrix::from_row_major(1, 2, &[0.0, 0.0]);
        let opts = BatchOptions::default();
        let _ = LaneEngine::simd_f16(half, opts).predict(&bad, &opts);
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
        let halves = row.iter().map(|&x| Half::from_f32(x));
        let (per_node, once): (Vec<u32>, Vec<u32>) = match &half.trees {
            HalfTrees::Float(trees) => {
                let bits: Vec<u16> = halves.map(Half::to_bits).collect();
                trees
                    .iter()
                    .map(|t| (t.predict(row), t.predict_bits(&bits)))
                    .unzip()
            }
            HalfTrees::Int(trees) => {
                let keys: Vec<i16> = halves.map(order_key).collect();
                trees
                    .iter()
                    .map(|t| (t.predict(row), t.predict_keys(&keys)))
                    .unzip()
            }
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

    /// A forest whose first tree is a vine deeper than the heap layout
    /// accepts, plus two shallow trees, with request rows that land at
    /// every vine depth and on the NaN/infinity/signed-zero edges.
    fn deep_vine_forest(with_vine: bool) -> (RandomForest, Vec<Vec<f32>>) {
        const DEPTH: u32 = 20;
        let leaf = |class: u32| Node::Leaf {
            class,
            counts: (0..3).map(|c| u32::from(c == class)).collect(),
        };
        let split = |feature: u32, threshold: f32, left: u32, right: u32| Node::Split {
            feature,
            threshold,
            left: NodeId(left),
            right: NodeId(right),
        };
        // Split k sits at index 2k with a leaf on its left and the next
        // split on its right; row value v leaves the vine at depth
        // ceil(2v), so the grid below reaches every level.
        let mut vine = Vec::new();
        for k in 0..DEPTH {
            vine.push(split(k % 2, k as f32 / 2.0, 2 * k + 1, 2 * k + 2));
            vine.push(leaf(k % 3));
        }
        vine.push(leaf(2));
        let shallow_a = vec![
            split(0, 3.0, 1, 2),
            leaf(0),
            split(1, -1.0, 3, 4),
            leaf(1),
            leaf(2),
        ];
        let shallow_b = vec![split(1, 5.0, 1, 2), leaf(1), leaf(0)];
        let mut trees = Vec::new();
        if with_vine {
            trees.push(DecisionTree::new(vine, 2, 3).expect("valid vine"));
        }
        trees.push(DecisionTree::new(shallow_a, 2, 3).expect("valid tree"));
        trees.push(DecisionTree::new(shallow_b, 2, 3).expect("valid tree"));
        let mut rows: Vec<Vec<f32>> = (0..=92)
            .flat_map(|i| {
                let v = -1.0 + 0.25 * i as f32;
                [vec![v, v], vec![v, -v], vec![v, 10.0 - v]]
            })
            .collect();
        for x in [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
        ] {
            rows.push(vec![x, 0.0]);
            rows.push(vec![0.0, x]);
            rows.push(vec![x, x]);
        }
        (RandomForest::from_trees(trees), rows)
    }

    /// The 8-byte walk behind any forest with a tree deeper than the
    /// heap layout: on every kernel path the host offers, `simd-f16`
    /// and `simd-f16-float` match their scalar reference and `simd`
    /// and `simd-float` the f32 majority vote, at every block size.
    /// One deep tree keeps the whole forest on 8-byte nodes; the same
    /// forest without it takes the heap on AVX2.
    #[test]
    fn deep_forest_takes_the_8_byte_walk_on_every_path() {
        let (forest, rows) = deep_vine_forest(true);
        assert!(forest.depth() > 15, "the vine must exceed the heap depth");
        let matrix = FeatureMatrix::from_row_major(rows.len(), 2, &rows.concat());
        let caps = KernelCaps::get();
        for compare in [HalfCompare::Flint, HalfCompare::Float] {
            let half = HalfForest::compile(&forest, compare).expect("compiles");
            let want: Vec<u32> = rows.iter().map(|r| half.predict(r)).collect();
            let auto = f16_policy(compare).select_with(caps, None);
            for block in [1usize, 7, 64] {
                let opts = BatchOptions::default().block_samples(block);
                for path in [KernelPath::Portable, auto] {
                    let layout = HalfLayout::select(&half, path);
                    assert!(
                        matches!(layout, HalfLayout::Nodes),
                        "{compare:?} {path}: heap built"
                    );
                    let engine = LaneEngine::simd_f16(half.clone(), opts).with_kernel(path);
                    assert_eq!(
                        engine.predict(&matrix, &opts),
                        want,
                        "{compare:?} {path} block {block}"
                    );
                }
            }
            let (shallow, _) = deep_vine_forest(false);
            let half = HalfForest::compile(&shallow, compare).expect("compiles");
            let layout = HalfLayout::select(&half, auto);
            assert_eq!(
                matches!(layout, HalfLayout::Nodes),
                auto != KernelPath::Avx2,
                "{compare:?}"
            );
        }
        // The f32 lane engines answer for the f32 majority vote; on NaN
        // rows each compare family keeps its own scalar decision.
        let auto = crate::simd::lane_policy().select_with(caps, None);
        for compare in [SimdCompare::Flint, SimdCompare::Float] {
            let backend =
                CompiledForest::compile(&forest, compare.backend(), None).expect("compiles");
            let want: Vec<u32> = rows.iter().map(|r| backend.predict(r)).collect();
            for (row, &class) in rows.iter().zip(&want) {
                if !row.iter().any(|x| x.is_nan()) {
                    assert_eq!(class, forest.predict_majority(row), "{compare:?} {row:?}");
                }
            }
            for block in [1usize, 7, 64] {
                let opts = BatchOptions::default().block_samples(block);
                for path in [KernelPath::Portable, auto] {
                    let engine = LaneEngine::simd(&forest, compare, opts)
                        .expect("compiles")
                        .with_kernel(path);
                    assert_eq!(
                        engine.predict(&matrix, &opts),
                        want,
                        "{compare:?} {path} block {block}"
                    );
                }
            }
        }
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
