//! 8-wide SIMD lane-parallel forest traversal: the one lane walker
//! behind the `simd`, `simd-float`, `simd-f16` and `simd-f16-float`
//! engines.
//!
//! The blocked walk in [`crate::batch`] already keeps a block of
//! independent per-sample load chains in flight, but every
//! node-compare/child-select step is still scalar control flow: one
//! branchy `if le { left } else { right }` per sample per level. This
//! module lifts that step onto explicit 8-wide lanes:
//!
//! * [`F32x8`] / [`U32x8`] — fixed 8-lane vectors over `[f32; 8]` /
//!   `[u32; 8]`, written as plain lane loops that stable Rust
//!   autovectorizes reliably (no nightly `std::simd`), plus `std::arch`
//!   AVX2 kernels on x86-64 and NEON kernels on aarch64, selected once
//!   per engine at run time through [`lane_policy`];
//! * **branchless select** — a lane group of 8 samples descends one
//!   tree together; each level gathers the 8 current nodes, compares
//!   all lanes at once and blends left/right child indices by mask.
//!   Lanes that reach a leaf hold position (a leaf blends to itself)
//!   until the whole group has landed, so the walk has **no per-lane
//!   branches at all** — the single loop exit is "all lanes at
//!   leaves";
//! * **padded gathers** — sample blocks come out of
//!   [`FeatureMatrix::gather_lanes`] as feature-major, zero-padded
//!   lane slabs, so ragged tail groups execute the identical
//!   branch-free code path and the pad lanes' results are simply never
//!   read back;
//! * **wave interleaving** — lane groups descend each tree in waves of
//!   eight: one lock-step group's per-level node loads form a single
//!   dependent chain (gather → compare → blend → next gather), so a
//!   lone group is bound by memory latency; round-robin stepping keeps
//!   several independent chains in flight per tree, the lane-engine
//!   analogue of the blocked walk's interleaved per-sample loads;
//! * **one walker for every node format** — the wave loop and the span
//!   scorer (fill lane slabs → walk each tree in waves → vote →
//!   majority vote) are shared by the 16-byte f32 nodes of this module
//!   and the 8-byte binary16 and 4-byte heap nodes of [`crate::f16`].
//!   A format supplies only its slab element and, per kernel path, the
//!   step that advances one lane group a level; FLInt vs float is the
//!   compare inside that step;
//! * **span parallelism** — batches are split over the same
//!   `score_spans` partitioning (in [`crate::batch`]) every other
//!   engine uses, so thread boundaries (and therefore results) are
//!   identical by construction.
//!
//! Traversal decisions are bit-identical to the scalar backends for
//! every input: the float kernel uses the same IEEE `<=` (NaN compares
//! false, `-0.0 <= 0.0` true) and the FLInt kernel reads `i32` slabs
//! keyed once per lane group ([`flint_core::order_key`]), so each node
//! is one signed compare against the node's order key — the decision
//! of [`flint_core::PreparedThreshold::le_bits`] for every bit pattern,
//! NaN included — lane-wise. The differential suites
//! (`tests/engine_equivalence.rs`, `flint-serve/tests/differential.rs`)
//! assert this across adversarial bit patterns and every tail shape.
//!
//! ```
//! use flint_data::{synth::SynthSpec, FeatureMatrix};
//! use flint_exec::{BackendKind, BatchOptions, CompiledForest, EngineBuilder, EngineKind};
//! use flint_forest::{ForestConfig, RandomForest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = SynthSpec::new(200, 4, 3).generate();
//! let forest = RandomForest::fit(&data, &ForestConfig::grid(5, 7))?;
//! let backend = CompiledForest::compile(&forest, BackendKind::Flint, None)?;
//!
//! let engine = EngineBuilder::new(&forest)
//!     .options(BatchOptions::default().block_samples(64))
//!     .build(EngineKind::parse("simd").expect("registered"))?;
//! let matrix = FeatureMatrix::from_dataset(&data);
//! assert_eq!(engine.predict_matrix(&matrix), backend.predict_dataset(&data));
//! # Ok(())
//! # }
//! ```

use crate::backend::{BackendKind, CompiledForest, Nodes};
use crate::batch::{score_spans, BatchOptions};
use crate::compile::{CompileTreeError, FloatNode, IntNode, LEAF_MARKER};
use crate::dispatch::{KernelPath, KernelPolicy};
use crate::engine::EngineKind;
use crate::f16::{f16_policy, HalfForest, HalfLayout, HalfTrees};
use flint_core::order_key;
use flint_data::FeatureMatrix;
pub use flint_data::LANES;
use flint_forest::metrics::majority_vote;
use flint_forest::RandomForest;

// The AVX2 kernels gather node fields by 32-bit word offset, which is
// only sound while both node formats stay exactly four words.
const _: () = assert!(core::mem::size_of::<FloatNode>() == 16);
const _: () = assert!(core::mem::size_of::<IntNode>() == 16);

/// The most nodes a forest-wide 16-byte node array may hold for the
/// lane kernels: the AVX2 kernels gather node words at the `i32` offset
/// `cursor * 4 + {0..3}`, which must not overflow for any node.
const MAX_LANE_NODES: usize = i32::MAX as usize / 4;

/// Checks that an `n_nodes` forest-wide array fits the lane kernels'
/// gather offsets ([`MAX_LANE_NODES`]).
fn check_lane_nodes(n_nodes: usize) -> Result<(), CompileTreeError> {
    if n_nodes > MAX_LANE_NODES {
        return Err(CompileTreeError::TooManyNodes {
            nodes: n_nodes,
            max: MAX_LANE_NODES,
        });
    }
    Ok(())
}

/// Eight `f32` lanes. The portable operations are plain lane loops —
/// the shape LLVM's autovectorizer turns into single 256-bit
/// instructions on any x86-64/AArch64 target — and the layout
/// (`repr(C)`, 32-byte aligned) is loadable as one AVX2 register.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, align(32))]
pub struct F32x8(pub [f32; LANES]);

/// Eight `u32` lanes; doubles as the mask type (a lane is all-ones or
/// all-zeros) produced by compares and consumed by
/// [`U32x8::blend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, align(32))]
pub struct U32x8(pub [u32; LANES]);

impl F32x8 {
    /// Lane-wise IEEE `<=` mask (NaN lanes compare false, exactly like
    /// the scalar operator and AVX2's `_CMP_LE_OQ`).
    #[inline]
    pub fn le(self, rhs: Self) -> U32x8 {
        let mut out = [0u32; LANES];
        for (slot, (x, t)) in out.iter_mut().zip(self.0.into_iter().zip(rhs.0)) {
            *slot = if x <= t { u32::MAX } else { 0 };
        }
        U32x8(out)
    }
}

impl U32x8 {
    /// All lanes zero.
    pub const ZERO: U32x8 = U32x8([0; LANES]);

    /// Broadcasts `v` to every lane.
    #[inline]
    pub fn splat(v: u32) -> Self {
        Self([v; LANES])
    }

    /// Lane-wise equality mask.
    #[inline]
    pub fn eq_mask(self, rhs: Self) -> U32x8 {
        let mut out = [0u32; LANES];
        for (slot, (a, b)) in out.iter_mut().zip(self.0.into_iter().zip(rhs.0)) {
            *slot = if a == b { u32::MAX } else { 0 };
        }
        U32x8(out)
    }

    /// Lane-wise signed `>` mask (lanes reinterpreted as `i32` — the
    /// FLInt comparison domain and AVX2's `_mm256_cmpgt_epi32`).
    #[inline]
    pub fn gt_signed(self, rhs: Self) -> U32x8 {
        let mut out = [0u32; LANES];
        for (slot, (a, b)) in out.iter_mut().zip(self.0.into_iter().zip(rhs.0)) {
            *slot = if (a as i32) > (b as i32) { u32::MAX } else { 0 };
        }
        U32x8(out)
    }

    /// Lane-wise XOR.
    #[inline]
    pub fn xor(self, rhs: Self) -> U32x8 {
        let mut out = [0u32; LANES];
        for (slot, (a, b)) in out.iter_mut().zip(self.0.into_iter().zip(rhs.0)) {
            *slot = a ^ b;
        }
        U32x8(out)
    }

    /// Branchless select: lane `i` of the result is `t` where `mask`
    /// lane `i` is all-ones, else `f` (AVX2's `blendv`).
    #[inline]
    pub fn blend(mask: U32x8, t: U32x8, f: U32x8) -> U32x8 {
        let mut out = [0u32; LANES];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = (t.0[i] & mask.0[i]) | (f.0[i] & !mask.0[i]);
        }
        U32x8(out)
    }

    /// Whether every lane is all-ones (the walk-termination test).
    #[inline]
    pub fn all_set(self) -> bool {
        self.0.iter().fold(u32::MAX, |acc, &v| acc & v) == u32::MAX
    }
}

/// The f32 lane family's dispatch policy: AVX2 kernels exist on every
/// x86-64 build, NEON kernels on aarch64, and the portable
/// autovectorized walk everywhere.
pub fn lane_policy() -> KernelPolicy {
    KernelPolicy {
        avx2: cfg!(target_arch = "x86_64"),
        f16c_required: false,
        neon: cfg!(target_arch = "aarch64"),
    }
}

/// The SIMD engine's comparison mode — the lane-level mirror of the
/// paper's FLInt/float backend split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdCompare {
    /// FLInt integer compares: lanes keyed once per group, then one
    /// signed lane compare per node (registry name `simd`).
    Flint,
    /// Native IEEE float compares (registry name `simd-float`).
    Float,
}

impl SimdCompare {
    /// The backend configuration whose compiled trees this mode walks
    /// (arena layout in both cases; CAGS reordering buys nothing when
    /// all lanes move in lock-step).
    pub fn backend(self) -> BackendKind {
        match self {
            SimdCompare::Flint => BackendKind::Flint,
            SimdCompare::Float => BackendKind::Naive,
        }
    }
}

/// Lane groups walked concurrently per tree. One lock-step group's
/// per-level node loads form a single dependent chain (gather →
/// compare → blend → next gather), so the walk is bound by memory
/// latency, not throughput; a wave of independent groups keeps several
/// such chains in flight — the lane-engine analogue of the blocked
/// walk's interleaved per-sample load chains.
pub(crate) const WAVE: usize = 8;

/// A lane slab element: what a node format's lane groups read their
/// feature values from — `f32` features for the 16-byte float nodes,
/// `i32` order keys for the 16-byte FLInt nodes, binary16 bits or their
/// `i16` order keys for the binary16 formats.
pub(crate) trait Lane: Copy + Default + Send + Sync {
    /// Elements past a group's last lane value that its kernels may
    /// read: each group's slab is carved this much longer.
    const OVERHANG: usize;

    /// Fills `slab` (`n_features * LANES` elements, feature-major,
    /// zero-padded) with the lane group starting at sample `first`;
    /// `scratch` is an f32 slab of the same length for fills that
    /// convert, and `path` the engine's kernel path.
    fn fill(
        matrix: &FeatureMatrix,
        first: usize,
        slab: &mut [Self],
        scratch: &mut [f32],
        path: KernelPath,
    );
}

impl Lane for f32 {
    const OVERHANG: usize = 0;

    #[inline]
    fn fill(matrix: &FeatureMatrix, first: usize, slab: &mut [f32], _: &mut [f32], _: KernelPath) {
        matrix.gather_lanes(first, slab);
    }
}

/// The FLInt slab: each lane's feature order key, computed once per
/// group so every node the group visits is one signed compare.
impl Lane for i32 {
    const OVERHANG: usize = 0;

    #[inline]
    fn fill(
        matrix: &FeatureMatrix,
        first: usize,
        slab: &mut [i32],
        scratch: &mut [f32],
        _: KernelPath,
    ) {
        matrix.gather_lanes(first, scratch);
        for (key, &x) in slab.iter_mut().zip(scratch.iter()) {
            *key = order_key(x);
        }
    }
}

/// One compiled tree in a node format the lane walker can traverse.
pub(crate) trait LaneTree: Sync {
    /// The slab element the format's kernels compare against.
    type Lane: Lane;

    /// The tree's root position: where every lane's cursor starts. `0`
    /// for a tree with its own node array.
    fn root(&self) -> u32 {
        0
    }

    /// Walks a wave of lane groups from cursors set to
    /// [`root`](Self::root) until every lane sits on a leaf, through
    /// `path`'s kernel; on return each cursor holds its group's leaf
    /// positions.
    fn walk(&self, slabs: &[&[Self::Lane]], cursors: &mut [U32x8], path: KernelPath);

    /// The class of the leaf at position `cursor`.
    fn leaf_class(&self, cursor: u32) -> u32;
}

/// The wave loop every portable and AVX2 kernel runs. `step` advances
/// one group's cursors one level in place and returns `true`, or
/// returns `false` once every lane of the group sits on a leaf (leaf
/// lanes blend back to themselves, so that is a group's only branch).
/// Groups step round-robin — their per-level load chains are
/// independent, which is what hides the node-gather latency — until
/// all of them have landed.
#[inline(always)]
pub(crate) fn walk_wave<L>(
    slabs: &[&[L]],
    cursors: &mut [U32x8],
    mut step: impl FnMut(&[L], &mut U32x8) -> bool,
) {
    debug_assert_eq!(slabs.len(), cursors.len());
    let mut done = [false; WAVE];
    loop {
        let mut remaining = false;
        for ((done, &slab), cursor) in done.iter_mut().zip(slabs).zip(cursors.iter_mut()) {
            if !*done {
                *done = !step(slab, cursor);
                remaining |= !*done;
            }
        }
        if !remaining {
            break;
        }
    }
}

/// One tree of a [`CompiledForest`]'s forest-wide 16-byte node array:
/// the whole array and the tree's root. Lanes start at the root and
/// follow forest-global child positions.
#[derive(Debug, Clone, Copy)]
struct ForestTree<'a, N> {
    nodes: &'a [N],
    root: u32,
}

/// Every tree of a forest-wide node array, in forest order.
fn forest_trees<'a, N>(nodes: &'a [N], roots: &[u32]) -> Vec<ForestTree<'a, N>> {
    roots
        .iter()
        .map(|&root| ForestTree { nodes, root })
        .collect()
}

/// The node format a lane engine walks, chosen once per forest.
#[derive(Debug)]
enum LaneForest {
    /// The forest-wide 16-byte f32 node array of a `Naive` or `Flint`
    /// compiled forest.
    F32(CompiledForest),
    /// Binary16 nodes, in the layout the kernel path allows.
    F16(HalfForest, HalfLayout),
}

/// The lane engine behind `simd`, `simd-float`, `simd-f16` and
/// `simd-f16-float`: one span scorer over whichever node format it
/// holds. The kernel path is selected once at build time through the
/// family's policy ([`lane_policy`] or [`f16_policy`], honoring the
/// `FLINT_KERNEL` override) and stays fixed for the engine's lifetime.
/// Single rows (`predict_votes`) run the family's scalar reference.
#[derive(Debug)]
pub(crate) struct LaneEngine {
    kind: EngineKind,
    forest: LaneForest,
    opts: BatchOptions,
    path: KernelPath,
}

impl LaneEngine {
    /// `simd` / `simd-float`: compiles `forest` into 16-byte nodes for
    /// `compare`.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileTreeError`] from FLInt threshold preparation;
    /// [`CompileTreeError::TooManyNodes`] if the forest has more than
    /// `i32::MAX / 4` nodes, past the AVX2 gathers' word offsets.
    pub(crate) fn simd(
        forest: &RandomForest,
        compare: SimdCompare,
        opts: BatchOptions,
    ) -> Result<Self, CompileTreeError> {
        let compiled = CompiledForest::compile(forest, compare.backend(), None)?;
        check_lane_nodes(compiled.n_nodes())?;
        Ok(Self {
            kind: EngineKind::Simd(compare),
            forest: LaneForest::F32(compiled),
            opts,
            path: lane_policy().select(),
        })
    }

    /// `simd-f16` / `simd-f16-float` over `forest`'s binary16 nodes:
    /// 4-byte heap words when the AVX2 path is selected and every tree
    /// fits the heap layout, else the 8-byte nodes.
    pub(crate) fn simd_f16(forest: HalfForest, opts: BatchOptions) -> Self {
        let path = f16_policy(forest.compare()).select();
        Self {
            kind: EngineKind::SimdF16(forest.compare()),
            forest: LaneForest::F16(forest, HalfLayout::Nodes),
            opts,
            path,
        }
        .with_kernel(path)
    }

    /// Overrides the dispatched kernel path (the differential tests pin
    /// accelerated paths against portable this way), re-choosing the
    /// binary16 layout to match. Forcing a path whose kernels are not
    /// compiled in silently runs portable; forcing a compiled-in path
    /// on a CPU without the ISA panics at predict time (the kernel
    /// entries re-assert support).
    pub(crate) fn with_kernel(mut self, path: KernelPath) -> Self {
        self.path = path;
        if let LaneForest::F16(half, layout) = &mut self.forest {
            *layout = HalfLayout::select(half, path);
        }
        self
    }

    /// Which registry entry this engine is.
    pub(crate) fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The kernel path this engine dispatches to.
    pub(crate) fn kernel_path(&self) -> KernelPath {
        self.path
    }

    /// The bound batch options.
    pub(crate) fn options(&self) -> BatchOptions {
        self.opts
    }

    /// Expected feature vector length.
    pub(crate) fn n_features(&self) -> usize {
        match &self.forest {
            LaneForest::F32(forest) => forest.n_features(),
            LaneForest::F16(half, _) => half.n_features(),
        }
    }

    /// Number of classes.
    pub(crate) fn n_classes(&self) -> usize {
        match &self.forest {
            LaneForest::F32(forest) => forest.n_classes(),
            LaneForest::F16(half, _) => half.n_classes(),
        }
    }

    /// The family's scalar reference histogram for one row.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != n_features()`.
    pub(crate) fn predict_votes(&self, features: &[f32]) -> Vec<u32> {
        match &self.forest {
            LaneForest::F32(forest) => forest.predict_votes(features),
            LaneForest::F16(half, _) => half.predict_votes(features),
        }
    }

    /// Scores every sample of `matrix` under `opts`, one class per
    /// sample — bit-identical to the family's scalar reference per row.
    ///
    /// # Panics
    ///
    /// Panics if `matrix.n_features()` differs from the model's.
    pub(crate) fn predict(&self, matrix: &FeatureMatrix, opts: &BatchOptions) -> Vec<u32> {
        assert_eq!(
            matrix.n_features(),
            self.n_features(),
            "feature matrix width"
        );
        let block = opts.block_samples;
        let mut out = vec![0u32; matrix.n_samples()];
        score_spans(opts, &mut out, |start, span| match &self.forest {
            LaneForest::F32(forest) => match forest.nodes() {
                Nodes::Float(nodes) => {
                    let trees = forest_trees(nodes, forest.roots());
                    self.score_span(&trees, matrix, start, span, block)
                }
                Nodes::Int(nodes) => {
                    let trees = forest_trees(nodes, forest.roots());
                    self.score_span(&trees, matrix, start, span, block)
                }
                Nodes::Soft(_) => unreachable!("lane engines compile Naive or Flint trees"),
            },
            LaneForest::F16(half, HalfLayout::Nodes) => match half.trees() {
                HalfTrees::Float(trees) => self.score_span(trees, matrix, start, span, block),
                HalfTrees::Int(trees) => self.score_span(trees, matrix, start, span, block),
            },
            #[cfg(target_arch = "x86_64")]
            LaneForest::F16(_, HalfLayout::FloatHeap(trees)) => {
                self.score_span(trees, matrix, start, span, block)
            }
            #[cfg(target_arch = "x86_64")]
            LaneForest::F16(_, HalfLayout::IntHeap(trees)) => {
                self.score_span(trees, matrix, start, span, block)
            }
        });
        out
    }

    /// The one span scorer: scores samples `start..start + out.len()`
    /// into `out`, block by block — fill the block's lane slabs, walk
    /// each tree over them in waves, vote, majority vote.
    ///
    /// Tree-major within the block, as in the blocked engine: each
    /// tree's nodes stay hot while every resident lane group descends
    /// it, in waves of [`WAVE`] groups.
    fn score_span<T: LaneTree>(
        &self,
        trees: &[T],
        matrix: &FeatureMatrix,
        start: usize,
        out: &mut [u32],
        block: usize,
    ) {
        let block = block.max(1);
        let n_classes = self.n_classes();
        let group_stride = matrix.n_features() * LANES;
        let overhang = T::Lane::OVERHANG;
        let cap = block.min(out.len());
        // Per-worker scratch, reused across blocks: the lane slabs, an
        // f32 staging slab for converting fills, and the flat vote
        // accumulator.
        let mut lanes = vec![T::Lane::default(); cap.div_ceil(LANES) * group_stride + overhang];
        let mut scratch = vec![0f32; group_stride];
        let mut votes = vec![0u32; cap * n_classes];
        let mut offset = 0;
        while offset < out.len() {
            let len = block.min(out.len() - offset);
            let n_groups = len.div_ceil(LANES);
            for g in 0..n_groups {
                T::Lane::fill(
                    matrix,
                    start + offset + g * LANES,
                    &mut lanes[g * group_stride..(g + 1) * group_stride],
                    &mut scratch,
                    self.path,
                );
            }
            let votes = &mut votes[..len * n_classes];
            votes.fill(0);
            for tree in trees {
                for wave_start in (0..n_groups).step_by(WAVE) {
                    let k = WAVE.min(n_groups - wave_start);
                    // Each group's slab runs `overhang` elements past its
                    // stride, into the next group's (or the spare tail).
                    let mut slabs: [&[T::Lane]; WAVE] = [&[]; WAVE];
                    for (j, slab) in slabs[..k].iter_mut().enumerate() {
                        let g = wave_start + j;
                        *slab = &lanes[g * group_stride..(g + 1) * group_stride + overhang];
                    }
                    let mut cursors = [U32x8::splat(tree.root()); WAVE];
                    tree.walk(&slabs[..k], &mut cursors[..k], self.path);
                    for (j, cursor) in cursors[..k].iter().enumerate() {
                        let g = wave_start + j;
                        // Pad lanes past `len` are never read back.
                        for (i, &at) in cursor.0[..LANES.min(len - g * LANES)].iter().enumerate() {
                            votes[(g * LANES + i) * n_classes + tree.leaf_class(at) as usize] += 1;
                        }
                    }
                }
            }
            for (k, slot) in out[offset..offset + len].iter_mut().enumerate() {
                *slot = majority_vote(&votes[k * n_classes..(k + 1) * n_classes]);
            }
            offset += len;
        }
    }
}

impl LaneTree for ForestTree<'_, FloatNode> {
    type Lane = f32;

    fn root(&self) -> u32 {
        self.root
    }

    #[inline]
    fn walk(&self, slabs: &[&[f32]], cursors: &mut [U32x8], path: KernelPath) {
        let nodes = self.nodes;
        match path {
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx2 => avx2::walk_float(nodes, slabs, cursors),
            #[cfg(target_arch = "aarch64")]
            KernelPath::Neon => neon::walk_float(nodes, slabs, cursors),
            _ => walk_wave(slabs, cursors, |slab, cursor| {
                let fields = |n: &FloatNode| [n.feature, n.threshold.to_bits(), n.left, n.right];
                step_portable(nodes, slab, cursor, fields, LEAF_MARKER, |t, x| {
                    // IEEE `<=`: NaN lanes compare false, like the scalar walk.
                    F32x8(x).le(F32x8(t.0.map(f32::from_bits)))
                })
            }),
        }
    }

    #[inline]
    fn leaf_class(&self, cursor: u32) -> u32 {
        self.nodes[cursor as usize].left
    }
}

impl LaneTree for ForestTree<'_, IntNode> {
    type Lane = i32;

    fn root(&self) -> u32 {
        self.root
    }

    #[inline]
    fn walk(&self, slabs: &[&[i32]], cursors: &mut [U32x8], path: KernelPath) {
        let nodes = self.nodes;
        match path {
            #[cfg(target_arch = "x86_64")]
            KernelPath::Avx2 => avx2::walk_int(nodes, slabs, cursors),
            #[cfg(target_arch = "aarch64")]
            KernelPath::Neon => neon::walk_int(nodes, slabs, cursors),
            _ => walk_wave(slabs, cursors, |slab, cursor| {
                let fields = |n: &IntNode| [n.feature, n.key as u32, n.left, n.right];
                step_portable(nodes, slab, cursor, fields, LEAF_MARKER, |key, x| {
                    // Left where key(x) <= node key: one signed compare.
                    let go_right = U32x8(x.map(|k| k as u32)).gt_signed(key);
                    go_right.xor(U32x8::splat(u32::MAX))
                })
            }),
        }
    }

    #[inline]
    fn leaf_class(&self, cursor: u32) -> u32 {
        self.nodes[cursor as usize].left
    }
}

/// The portable step every node format shares: gathers the group's 8
/// current nodes as `[feature, payload, left, right]` lanes (`fields`),
/// masks leaves (feature `leaf`), reads each split lane's slab value at
/// its feature index (leaf lanes read slot 0; their step is blended
/// away) and blends child indices by `go_left(payload, x)` — the
/// compare family's decision, the one part FLInt and float steps do
/// not share.
#[inline(always)]
pub(crate) fn step_portable<N, L: Copy>(
    nodes: &[N],
    slab: &[L],
    cursor: &mut U32x8,
    fields: impl Fn(&N) -> [u32; 4],
    leaf: u32,
    go_left: impl Fn(U32x8, [L; LANES]) -> U32x8,
) -> bool {
    let mut lanes = [[0u32; LANES]; 4];
    for i in 0..LANES {
        let node = fields(&nodes[cursor.0[i] as usize]);
        for (lane, word) in lanes.iter_mut().zip(node) {
            lane[i] = word;
        }
    }
    let [feature, payload, left, right] = lanes.map(U32x8);
    let is_leaf = feature.eq_mask(U32x8::splat(leaf));
    if is_leaf.all_set() {
        return false;
    }
    let fsafe = U32x8::blend(is_leaf, U32x8::ZERO, feature);
    let x = core::array::from_fn(|i| slab[fsafe.0[i] as usize * LANES + i]);
    let next = U32x8::blend(go_left(payload, x), left, right);
    *cursor = U32x8::blend(is_leaf, *cursor, next);
    true
}

/// The `std::arch` AVX2 kernels: one step for both 16-byte node formats
/// with hardware gathers (`vpgatherdd`) for the node fields and lane
/// values, the compare family's one go-right compare (`vcmpps` for
/// float thresholds, `vpcmpgtd` for FLInt order keys) and `vpblendvb`
/// selects, run by the shared [`walk_wave`] loop.
///
/// This is the one `unsafe` island of the crate. Soundness argument:
///
/// * the wrappers assert AVX2 via CPUID before entering the
///   `#[target_feature]` functions;
/// * node gathers index `cursor * 4 + {0..3}` 32-bit words, and
///   `cursor` only ever holds a tree's root or a child index inside the
///   forest array, so every access is inside the node slice (both node
///   formats are exactly four words — statically asserted above); the
///   engine refuses forests of more than `i32::MAX / 4` nodes
///   (`check_lane_nodes`), so no word offset overflows `i32`;
/// * lane gathers index `feature * 8 + lane` with `feature` either a
///   valid feature index or clamped to 0 for leaf lanes, always inside
///   the `n_features * LANES` slab of 4-byte elements (`f32` features
///   or `i32` order keys).
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::{walk_wave, U32x8};
    use crate::compile::{FloatNode, IntNode, LEAF_MARKER};
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_andnot_si256, _mm256_blendv_epi8, _mm256_castps_si256,
        _mm256_castsi256_ps, _mm256_cmp_ps, _mm256_cmpeq_epi32, _mm256_cmpgt_epi32,
        _mm256_i32gather_epi32, _mm256_load_si256, _mm256_movemask_epi8, _mm256_set1_epi32,
        _mm256_setr_epi32, _mm256_slli_epi32, _mm256_store_si256, _CMP_NLE_UQ,
    };

    /// Dispatch-checked entry for the float wave walk.
    #[inline]
    pub fn walk_float(nodes: &[FloatNode], slabs: &[&[f32]], cursors: &mut [U32x8]) {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "AVX2 kernel entered without CPUID support"
        );
        debug_assert!(!nodes.is_empty());
        debug_assert_eq!(slabs.len(), cursors.len());
        // SAFETY: AVX2 verified above; gather bounds per module docs.
        unsafe { walk_float_avx2(nodes, slabs, cursors) }
    }

    /// Dispatch-checked entry for the FLInt wave walk over order keys.
    #[inline]
    pub fn walk_int(nodes: &[IntNode], slabs: &[&[i32]], cursors: &mut [U32x8]) {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "AVX2 kernel entered without CPUID support"
        );
        debug_assert!(!nodes.is_empty());
        debug_assert_eq!(slabs.len(), cursors.len());
        // SAFETY: AVX2 verified above; gather bounds per module docs.
        unsafe { walk_int_avx2(nodes, slabs, cursors) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn walk_float_avx2(nodes: &[FloatNode], slabs: &[&[f32]], cursors: &mut [U32x8]) {
        // NLE_UQ: true where !(x <= t), NaN included — the negation of
        // the scalar `<=`, so NaN goes right.
        let go_right = |x, t| {
            _mm256_castps_si256(_mm256_cmp_ps::<_CMP_NLE_UQ>(
                _mm256_castsi256_ps(x),
                _mm256_castsi256_ps(t),
            ))
        };
        // SAFETY: the caller's node slice and lane slabs satisfy the
        // module soundness argument.
        unsafe { walk_nodes(nodes.as_ptr().cast(), slabs, cursors, go_right) }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn walk_int_avx2(nodes: &[IntNode], slabs: &[&[i32]], cursors: &mut [U32x8]) {
        // Right where key(x) > node key: one signed compare.
        let go_right = |x, key| _mm256_cmpgt_epi32(x, key);
        // SAFETY: the caller's node slice and lane slabs satisfy the
        // module soundness argument.
        unsafe { walk_nodes(nodes.as_ptr().cast(), slabs, cursors, go_right) }
    }

    /// The wave walk over four-word nodes at `base`: gather each lane's
    /// node words and slab value, then blend children by
    /// `go_right(x, payload)`.
    ///
    /// # Safety
    ///
    /// `base` must point at the node slice every cursor lane indexes,
    /// per the module soundness argument. Slab elements are 4 bytes
    /// (asserted at compile time).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn walk_nodes<L>(
        base: *const i32,
        slabs: &[&[L]],
        cursors: &mut [U32x8],
        go_right: impl Fn(__m256i, __m256i) -> __m256i,
    ) {
        const { assert!(core::mem::size_of::<L>() == 4) };
        let leaf = _mm256_set1_epi32(LEAF_MARKER as i32);
        let lane_off = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        walk_wave(slabs, cursors, |slab, slot| {
            // SAFETY: U32x8 is #[repr(align(32))], so the cursor slot
            // is a valid aligned 32-byte load source.
            let cursor = unsafe { _mm256_load_si256(slot.0.as_ptr().cast()) };
            // Node word index: each node is four 32-bit words.
            let word = _mm256_slli_epi32::<2>(cursor);
            // SAFETY: every cursor lane is a tree's root or a child
            // index inside the forest array, so word+0 indexes inside
            // the four-word node slice (per the module soundness
            // argument).
            let feature = unsafe { _mm256_i32gather_epi32::<4>(base, word) };
            let is_leaf = _mm256_cmpeq_epi32(feature, leaf);
            if _mm256_movemask_epi8(is_leaf) == -1 {
                return false;
            }
            // SAFETY: word+1..word+3 index the threshold-or-key/left/right
            // words of the same in-bounds node.
            let payload = unsafe {
                _mm256_i32gather_epi32::<4>(base, _mm256_add_epi32(word, _mm256_set1_epi32(1)))
            };
            // SAFETY: as above (word+2 of an in-bounds node).
            let left = unsafe {
                _mm256_i32gather_epi32::<4>(base, _mm256_add_epi32(word, _mm256_set1_epi32(2)))
            };
            // SAFETY: as above (word+3 of an in-bounds node).
            let right = unsafe {
                _mm256_i32gather_epi32::<4>(base, _mm256_add_epi32(word, _mm256_set1_epi32(3)))
            };
            // Leaf lanes gather lane slot 0 (feature clamped by andnot).
            let fsafe = _mm256_andnot_si256(is_leaf, feature);
            let xidx = _mm256_add_epi32(_mm256_slli_epi32::<3>(fsafe), lane_off);
            // SAFETY: xidx = feature*8 + lane with feature a valid index
            // (or clamped to 0 for leaf lanes), inside the
            // n_features*LANES slab of 4-byte elements.
            let x = unsafe { _mm256_i32gather_epi32::<4>(slab.as_ptr().cast(), xidx) };
            let next = _mm256_blendv_epi8(left, right, go_right(x, payload));
            let next = _mm256_blendv_epi8(next, cursor, is_leaf);
            // SAFETY: same aligned cursor slot as the load above,
            // borrowed mutably — a valid 32-byte store target.
            unsafe { _mm256_store_si256(slot.0.as_mut_ptr().cast(), next) };
            true
        });
    }
}

/// The `std::arch` NEON kernels for aarch64: the node-field and lane
/// gathers stay scalar (AdvSIMD has no hardware gather), but the
/// per-level compare + child-select — the work the walk repeats at
/// every node — runs on explicit 128-bit vectors (`vcleq_f32` on
/// features / `vcgtq_s32` on order keys, `vbslq_u32` selects) over the
/// group's two 4-lane halves.
///
/// This island is only reachable through [`KernelPath::Neon`], which
/// [`lane_policy`] hands out solely on aarch64 hosts; the entry
/// wrappers still re-assert NEON support before entering the
/// `#[target_feature]` functions. All memory access happens through
/// plain slice indexing and unaligned `vld1q`/`vst1q` on local
/// arrays, so the soundness argument is confined to the feature gate.
#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod neon {
    use super::{U32x8, LANES, WAVE};
    use crate::compile::{FloatNode, IntNode, LEAF_MARKER};
    use core::arch::aarch64::{
        vbslq_u32, vcgtq_s32, vcleq_f32, vdupq_n_u32, vld1q_f32, vld1q_u32, vreinterpretq_s32_u32,
        vst1q_u32,
    };

    /// Dispatch-checked entry for the float wave walk.
    #[inline]
    pub fn walk_float(nodes: &[FloatNode], slabs: &[&[f32]], cursors: &mut [U32x8]) {
        assert!(
            std::arch::is_aarch64_feature_detected!("neon"),
            "NEON kernel entered without AdvSIMD support"
        );
        debug_assert!(!nodes.is_empty());
        debug_assert_eq!(slabs.len(), cursors.len());
        // SAFETY: NEON verified above; all loads/stores are on local
        // arrays per the module docs.
        unsafe { walk_float_neon(nodes, slabs, cursors) }
    }

    /// Dispatch-checked entry for the FLInt wave walk over order keys.
    #[inline]
    pub fn walk_int(nodes: &[IntNode], slabs: &[&[i32]], cursors: &mut [U32x8]) {
        assert!(
            std::arch::is_aarch64_feature_detected!("neon"),
            "NEON kernel entered without AdvSIMD support"
        );
        debug_assert!(!nodes.is_empty());
        debug_assert_eq!(slabs.len(), cursors.len());
        // SAFETY: NEON verified above; all loads/stores are on local
        // arrays per the module docs.
        unsafe { walk_int_neon(nodes, slabs, cursors) }
    }

    #[target_feature(enable = "neon")]
    unsafe fn walk_float_neon(nodes: &[FloatNode], slabs: &[&[f32]], cursors: &mut [U32x8]) {
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
                let mut x = [0.0f32; LANES];
                let mut all_leaves = true;
                for i in 0..LANES {
                    let node = &nodes[cursor.0[i] as usize];
                    feature[i] = node.feature;
                    threshold[i] = node.threshold;
                    left[i] = node.left;
                    right[i] = node.right;
                    let is_leaf = node.feature == LEAF_MARKER;
                    all_leaves &= is_leaf;
                    // Leaf lanes read slot 0; the result is blended away.
                    let f = if is_leaf { 0 } else { node.feature as usize };
                    x[i] = slab[f * LANES + i];
                }
                if all_leaves {
                    done[gi] = true;
                    continue;
                }
                remaining = true;
                let leaf = vdupq_n_u32(LEAF_MARKER);
                let mut next = [0u32; LANES];
                for h in [0usize, 4] {
                    // SAFETY: every load reads 4 lanes of an 8-lane
                    // local array at offset 0 or 4; the store writes
                    // the same shape. vld1q/vst1q are unaligned.
                    unsafe {
                        let f_v = vld1q_u32(feature.as_ptr().add(h));
                        let is_leaf = core::arch::aarch64::vceqq_u32(f_v, leaf);
                        // IEEE <=: NaN lanes compare false, exactly
                        // like the scalar operator and _CMP_LE_OQ.
                        let go_left = vcleq_f32(
                            vld1q_f32(x.as_ptr().add(h)),
                            vld1q_f32(threshold.as_ptr().add(h)),
                        );
                        let stepped = vbslq_u32(
                            go_left,
                            vld1q_u32(left.as_ptr().add(h)),
                            vld1q_u32(right.as_ptr().add(h)),
                        );
                        let out = vbslq_u32(is_leaf, vld1q_u32(cursor.0.as_ptr().add(h)), stepped);
                        vst1q_u32(next.as_mut_ptr().add(h), out);
                    }
                }
                cursors[gi] = U32x8(next);
            }
            if !remaining {
                break;
            }
        }
    }

    #[target_feature(enable = "neon")]
    unsafe fn walk_int_neon(nodes: &[IntNode], slabs: &[&[i32]], cursors: &mut [U32x8]) {
        let mut done = [false; WAVE];
        loop {
            let mut remaining = false;
            for (gi, &slab) in slabs.iter().enumerate() {
                if done[gi] {
                    continue;
                }
                let cursor = cursors[gi];
                let mut feature = [0u32; LANES];
                let mut key = [0u32; LANES];
                let mut left = [0u32; LANES];
                let mut right = [0u32; LANES];
                let mut x = [0u32; LANES];
                let mut all_leaves = true;
                for i in 0..LANES {
                    let node = &nodes[cursor.0[i] as usize];
                    feature[i] = node.feature;
                    key[i] = node.key as u32;
                    left[i] = node.left;
                    right[i] = node.right;
                    let is_leaf = node.feature == LEAF_MARKER;
                    all_leaves &= is_leaf;
                    // Leaf lanes read slot 0; the result is blended away.
                    let f = if is_leaf { 0 } else { node.feature as usize };
                    x[i] = slab[f * LANES + i] as u32;
                }
                if all_leaves {
                    done[gi] = true;
                    continue;
                }
                remaining = true;
                let leaf = vdupq_n_u32(LEAF_MARKER);
                let mut next = [0u32; LANES];
                for h in [0usize, 4] {
                    // SAFETY: every load reads 4 lanes of an 8-lane
                    // local array at offset 0 or 4; the store writes
                    // the same shape. vld1q/vst1q are unaligned.
                    unsafe {
                        let f_v = vld1q_u32(feature.as_ptr().add(h));
                        let is_leaf = core::arch::aarch64::vceqq_u32(f_v, leaf);
                        // Right where key(x) > node key: one signed
                        // compare on the order keys.
                        let go_right = vcgtq_s32(
                            vreinterpretq_s32_u32(vld1q_u32(x.as_ptr().add(h))),
                            vreinterpretq_s32_u32(vld1q_u32(key.as_ptr().add(h))),
                        );
                        let stepped = vbslq_u32(
                            go_right,
                            vld1q_u32(right.as_ptr().add(h)),
                            vld1q_u32(left.as_ptr().add(h)),
                        );
                        let out = vbslq_u32(is_leaf, vld1q_u32(cursor.0.as_ptr().add(h)), stepped);
                        vst1q_u32(next.as_mut_ptr().add(h), out);
                    }
                }
                cursors[gi] = U32x8(next);
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
    use crate::dispatch::KernelCaps;
    use crate::engine::Predictor;
    use flint_data::synth::SynthSpec;
    use flint_data::Dataset;
    use flint_forest::ForestConfig;

    #[test]
    fn lane_ops_match_scalar_semantics() {
        let a = F32x8([1.0, -0.0, f32::NAN, f32::INFINITY, -1.5, 0.0, 2.0, -2.0]);
        let b = F32x8([1.0, 0.0, 1.0, f32::INFINITY, -1.5, -0.0, 1.0, 3.0]);
        let le = a.le(b);
        for i in 0..LANES {
            assert_eq!(le.0[i] == u32::MAX, a.0[i] <= b.0[i], "lane {i}");
            assert!(le.0[i] == 0 || le.0[i] == u32::MAX);
        }
        let u = U32x8([0, 1, u32::MAX, 7, 1 << 31, 3, 9, 100]);
        let v = U32x8([0, 2, u32::MAX, 6, 0, 3, 8, 100]);
        let eq = u.eq_mask(v);
        let gt = u.gt_signed(v);
        for i in 0..LANES {
            assert_eq!(eq.0[i] == u32::MAX, u.0[i] == v.0[i], "lane {i}");
            assert_eq!(
                gt.0[i] == u32::MAX,
                (u.0[i] as i32) > (v.0[i] as i32),
                "lane {i}"
            );
        }
        let blended = U32x8::blend(eq, u, v);
        for i in 0..LANES {
            let want = if u.0[i] == v.0[i] { u.0[i] } else { v.0[i] };
            assert_eq!(blended.0[i], want, "lane {i}");
        }
        assert!(U32x8::splat(u32::MAX).all_set());
        assert!(!eq.all_set());
    }

    fn setup() -> (Dataset, RandomForest) {
        let data = SynthSpec::new(230, 5, 3)
            .cluster_std(1.0)
            .negative_fraction(0.5)
            .seed(11)
            .generate();
        let forest = RandomForest::fit(&data, &ForestConfig::grid(6, 8)).expect("trainable");
        (data, forest)
    }

    fn engine(forest: &RandomForest, compare: SimdCompare, opts: BatchOptions) -> LaneEngine {
        LaneEngine::simd(forest, compare, opts).expect("compiles")
    }

    /// The scalar reference of `compare`'s family.
    fn reference(forest: &RandomForest, compare: SimdCompare, data: &Dataset) -> Vec<u32> {
        CompiledForest::compile(forest, compare.backend(), None)
            .expect("compiles")
            .predict_dataset(data)
    }

    #[test]
    fn lane_walk_matches_scalar_for_every_compare_mode() {
        let (data, forest) = setup();
        let matrix = FeatureMatrix::from_dataset(&data);
        for compare in [SimdCompare::Flint, SimdCompare::Float] {
            let want = reference(&forest, compare, &data);
            for block in [1usize, 7, 64, 1024] {
                for threads in [1usize, 4] {
                    let opts = BatchOptions::default()
                        .block_samples(block)
                        .threads(threads);
                    assert_eq!(
                        engine(&forest, compare, opts).predict(&matrix, &opts),
                        want,
                        "{compare:?} block {block} threads {threads}"
                    );
                }
            }
        }
    }

    /// The AVX2 kernels gather a node's last word at `cursor * 4 + 3`:
    /// the largest accepted forest keeps that inside `i32`, one more node
    /// is refused.
    #[test]
    fn lane_node_bound_keeps_gather_offsets_inside_i32() {
        let max = i32::MAX as usize / 4;
        assert!((max - 1) * 4 + 3 <= i32::MAX as usize);
        assert_eq!(check_lane_nodes(0), Ok(()));
        assert_eq!(check_lane_nodes(max), Ok(()));
        assert_eq!(
            check_lane_nodes(max + 1),
            Err(CompileTreeError::TooManyNodes {
                nodes: max + 1,
                max
            })
        );
    }

    #[test]
    fn dataset_wrapper_and_degenerate_options() {
        let (data, forest) = setup();
        let opts = BatchOptions::default().block_samples(0).threads(0);
        assert_eq!(
            engine(&forest, SimdCompare::Flint, opts).predict_dataset(&data),
            reference(&forest, SimdCompare::Flint, &data)
        );
    }

    #[test]
    fn empty_batch_is_empty() {
        let (_, forest) = setup();
        let empty = FeatureMatrix::from_row_major(0, forest.n_features(), &[]);
        let opts = BatchOptions::default().threads(3);
        let engine = engine(&forest, SimdCompare::Flint, opts);
        assert_eq!(engine.predict(&empty, &opts), Vec::<u32>::new());
    }

    #[test]
    #[should_panic(expected = "feature matrix width")]
    fn wrong_width_panics() {
        let (_, forest) = setup();
        let bad = FeatureMatrix::from_row_major(1, 2, &[0.0, 0.0]);
        let opts = BatchOptions::default();
        let _ = engine(&forest, SimdCompare::Flint, opts).predict(&bad, &opts);
    }

    /// On an x86-64 CPU with AVX2, the portable and intrinsic paths
    /// must agree bit-for-bit (the portable path is the reference the
    /// differential suites pin to the scalar engines).
    #[test]
    fn avx2_and_portable_paths_agree() {
        if lane_policy().select_with(KernelCaps::get(), None) != KernelPath::Avx2 {
            return; // not x86-64, or a CPU without AVX2: nothing to cross-check
        }
        let (data, forest) = setup();
        let matrix = FeatureMatrix::from_dataset(&data);
        let opts = BatchOptions::default();
        for compare in [SimdCompare::Flint, SimdCompare::Float] {
            let accelerated = engine(&forest, compare, opts).with_kernel(KernelPath::Avx2);
            let portable = engine(&forest, compare, opts).with_kernel(KernelPath::Portable);
            assert_eq!(
                accelerated.predict(&matrix, &opts),
                portable.predict(&matrix, &opts),
                "{compare:?}"
            );
        }
    }

    /// The engine's auto-selected path obeys the family policy and the
    /// live capability snapshot.
    #[test]
    fn build_time_path_matches_policy() {
        let (_, forest) = setup();
        let engine = engine(&forest, SimdCompare::Flint, BatchOptions::default());
        // The unit-test process may or may not have FLINT_KERNEL set;
        // re-running the policy must reproduce the engine's choice.
        assert_eq!(engine.kernel_path(), lane_policy().select());
        assert_eq!(
            engine.with_kernel(KernelPath::Portable).kernel_path(),
            KernelPath::Portable
        );
    }
}
