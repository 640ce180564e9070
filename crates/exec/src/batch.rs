//! Batched, multi-threaded forest inference.
//!
//! The scalar path ([`CompiledForest::predict`]) walks every tree for
//! one sample, allocating a fresh vote vector per call; over a dataset
//! that means the whole forest's node arrays are streamed through the
//! cache once **per sample**. This module inverts the loop structure:
//!
//! * **sample blocking** — samples are processed in blocks (default
//!   64); a block is transposed out of the structure-of-arrays
//!   [`FeatureMatrix`] into a row-major scratch that stays resident in
//!   L1/L2 while every tree traverses it;
//! * **fill-aware interleaved walks** — every (tree, row) walk is
//!   independent, so the walk advances a whole set of them one level
//!   per round and keeps about [`IN_FLIGHT`] dependent node-load chains
//!   in flight instead of one. A full block walks one tree at a time
//!   (each tree's nodes are loaded once per block of samples instead of
//!   once per sample); a block of a few rows walks a balanced group of
//!   trees at once, so a one-row request hides the load chain too. The
//!   forest's nodes are one array with forest-global child positions
//!   ([`CompiledForest`]), so an in-flight walk is just a (row, node)
//!   pair;
//! * **scratch reuse** — the per-block row buffer, the vote
//!   accumulator and the in-flight walk list are allocated once per
//!   worker and reused across blocks, removing every per-sample
//!   allocation;
//! * **data parallelism** — sample blocks are distributed over
//!   [`std::thread::scope`] workers (no runtime dependency, no unsafe
//!   code); each worker writes a disjoint span of the output, so
//!   results are deterministic regardless of scheduling.
//!
//! Per (tree, row), the walk makes the scalar path's decisions, and
//! votes and tie-breaking are the same, so predictions are
//! **bit-identical** for every [`BackendKind`](crate::BackendKind) —
//! asserted by `tests/batch.rs` across block sizes, thread counts and
//! tree-group boundaries. [`BatchEngine::score`] is the one entry
//! point: it writes a block's classes or its vote histograms ([`Sink`])
//! from the same walk, so the blocked engine answers both through one
//! kernel at every fill, a one-row `votes:` request included.
//!
//! ```
//! use flint_data::{synth::SynthSpec, FeatureMatrix};
//! use flint_exec::{BackendKind, BatchEngine, BatchOptions, CompiledForest, Sink};
//! use flint_forest::{ForestConfig, RandomForest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = SynthSpec::new(200, 4, 3).generate();
//! let forest = RandomForest::fit(&data, &ForestConfig::grid(5, 7))?;
//! let backend = CompiledForest::compile(&forest, BackendKind::Flint, None)?;
//!
//! let matrix = FeatureMatrix::from_dataset(&data);
//! let engine = BatchEngine::new(&backend, BatchOptions::default().threads(2));
//! let mut classes = vec![0; data.n_samples()];
//! engine.score(&matrix, Sink::Classes(&mut classes));
//! assert_eq!(classes, backend.predict_dataset(&data));
//! # Ok(())
//! # }
//! ```

use crate::backend::{CompiledForest, Nodes};
use crate::compile::{FlatNode, LEAF_MARKER};
use flint_core::order_key;
use flint_data::FeatureMatrix;
use std::ops::Range;

/// The number of (tree, row) walks the blocked walk keeps in flight.
/// Each round advances every in-flight walk one level, and their node
/// loads are independent, so this many load chains overlap. A block of
/// `len` rows walks groups of `IN_FLIGHT.div_ceil(len)` trees: one tree
/// at a time for a full 64-row block, every tree of a small forest at
/// once for a one-row request. Picked by measurement (EXPERIMENTS.md
/// "Fill-aware blocked walk").
pub const IN_FLIGHT: usize = 64;

/// Tuning knobs for the batch engine. All values are clamped to at
/// least 1 when used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOptions {
    /// Samples per block (the unit of cache blocking and of thread
    /// work distribution).
    pub block_samples: usize,
    /// Worker threads. `1` runs inline on the calling thread.
    pub threads: usize,
}

impl Default for BatchOptions {
    /// 64-sample blocks, single-threaded.
    fn default() -> Self {
        Self {
            block_samples: 64,
            threads: 1,
        }
    }
}

impl BatchOptions {
    /// Sets the sample block size.
    #[must_use]
    pub fn block_samples(mut self, n: usize) -> Self {
        self.block_samples = n;
        self
    }

    /// Sets the worker thread count.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }
}

/// Where a scoring call writes its answers: a caller-owned buffer with
/// one slot per row of the scored matrix, in row order. Every engine
/// scores into either form through the same kernel
/// ([`crate::Predictor::score`]).
#[derive(Debug)]
pub enum Sink<'a> {
    /// One majority-vote class per row (ties to the lower class index).
    Classes(&'a mut [u32]),
    /// One vote histogram per row: row `i`'s votes for class `c` at
    /// `i * n_classes + c`, summing to the engine's tree count. This is
    /// the form a tree-span shard reports, and disjoint spans merge by
    /// addition.
    Votes(&'a mut [u32]),
}

impl Sink<'_> {
    /// The rows this sink holds for a forest of `n_classes` classes.
    pub(crate) fn rows(&self, n_classes: usize) -> usize {
        match self {
            Sink::Classes(out) => out.len(),
            Sink::Votes(out) => out.len() / n_classes,
        }
    }

    /// Writes the flat histograms `votes` (`n_classes` per row) of the
    /// rows from `row` on.
    pub(crate) fn put(&mut self, row: usize, votes: &[u32], n_classes: usize) {
        match self {
            Sink::Classes(out) => {
                for (slot, votes) in out[row..].iter_mut().zip(votes.chunks_exact(n_classes)) {
                    *slot = flint_forest::metrics::majority_vote(votes);
                }
            }
            Sink::Votes(out) => out[row * n_classes..][..votes.len()].copy_from_slice(votes),
        }
    }
}

/// One in-flight walk: a block row and the node it stands on.
#[derive(Debug, Clone, Copy)]
struct Walk {
    row: u32,
    node: u32,
}

/// Per-worker scratch: one transposed sample block (plus its order
/// keys for FLInt forests), one flat vote accumulator and the in-flight
/// walks, allocated once and reused for every block the worker scores.
#[derive(Debug)]
struct BlockScratch {
    /// Row-major block: `block_samples * n_features`.
    rows: Vec<f32>,
    /// The block's FLInt order keys, the shape of `rows`; empty unless
    /// the forest compares keys.
    keys: Vec<i32>,
    /// Flat votes: `block_samples * n_classes`.
    votes: Vec<u32>,
    /// The walks of the current tree group still descending.
    walks: Vec<Walk>,
}

impl BlockScratch {
    fn new(forest: &CompiledForest, block_samples: usize) -> Self {
        let cells = block_samples * forest.n_features();
        let keyed = matches!(forest.nodes(), Nodes::Int(_));
        Self {
            rows: vec![0.0; cells],
            keys: vec![0; if keyed { cells } else { 0 }],
            votes: vec![0; block_samples * forest.n_classes()],
            // A group of `IN_FLIGHT.div_ceil(len)` trees over `len` rows
            // holds fewer walks than this.
            walks: Vec::with_capacity(IN_FLIGHT + block_samples),
        }
    }
}

/// A compiled forest bound to batch-execution options.
///
/// The engine borrows the forest; compile once, then score any number
/// of [`FeatureMatrix`] batches through it.
#[derive(Debug, Clone, Copy)]
pub struct BatchEngine<'f> {
    forest: &'f CompiledForest,
    opts: BatchOptions,
}

impl<'f> BatchEngine<'f> {
    /// Binds `forest` to the given options.
    pub fn new(forest: &'f CompiledForest, opts: BatchOptions) -> Self {
        Self { forest, opts }
    }

    /// Scores every sample of `matrix` into `sink`: classes or vote
    /// histograms from the same walk, bit-identical to
    /// [`CompiledForest::predict_votes`] per row.
    ///
    /// # Panics
    ///
    /// Panics if `matrix.n_features()` differs from the model's, or if
    /// `sink` does not hold one class or one histogram per sample.
    pub fn score(&self, matrix: &FeatureMatrix, sink: Sink<'_>) {
        let forest = self.forest;
        let (n_features, n_classes) = (forest.n_features(), forest.n_classes());
        // Walks index block rows as `u32`.
        let block = self.opts.block_samples.clamp(1, u32::MAX as usize);
        let shape = (n_features, n_classes);
        score_spans(matrix, shape, &self.opts, sink, |start, mut span| {
            let n_rows = span.rows(n_classes);
            let mut scratch = BlockScratch::new(forest, block.min(n_rows));
            let mut offset = 0;
            while offset < n_rows {
                let len = block.min(n_rows - offset);
                matrix.gather_block(start + offset, len, &mut scratch.rows[..len * n_features]);
                span.put(offset, block_votes(forest, &mut scratch, len), n_classes);
                offset += len;
            }
        });
    }
}

/// Votes the first `len` rows of `scratch.rows` through every tree of
/// `forest` and returns their flat `len * n_classes` histograms.
fn block_votes<'s>(
    forest: &CompiledForest,
    scratch: &'s mut BlockScratch,
    len: usize,
) -> &'s [u32] {
    let n_features = forest.n_features();
    let n_classes = forest.n_classes();
    let rows = &scratch.rows[..len * n_features];
    let votes = &mut scratch.votes[..len * n_classes];
    votes.fill(0);
    let roots = forest.roots();
    let walks = &mut scratch.walks;
    match forest.nodes() {
        Nodes::Float(nodes) => walk_block(nodes, roots, rows, len, votes, walks, |x, t| x <= t),
        Nodes::Soft(nodes) => walk_block(
            nodes,
            roots,
            rows,
            len,
            votes,
            walks,
            flint_softfloat::soft_le,
        ),
        Nodes::Int(nodes) => {
            // Key the block once; every node is then one signed compare.
            let keys = &mut scratch.keys[..rows.len()];
            for (key, &x) in keys.iter_mut().zip(rows) {
                *key = order_key(x);
            }
            walk_block(nodes, roots, keys, len, votes, walks, |x, key| x <= key);
        }
    }
    votes
}

/// The tree groups a block of `len` rows walks, in forest order: as few
/// groups as keep at most `IN_FLIGHT.div_ceil(len)` trees each, their
/// sizes balanced to differ by at most one.
fn tree_groups(n_trees: usize, len: usize) -> impl Iterator<Item = Range<usize>> {
    let per_group = IN_FLIGHT.div_ceil(len.max(1));
    let n_groups = n_trees.div_ceil(per_group).max(1);
    (0..n_groups).map(move |g| g * n_trees / n_groups..(g + 1) * n_trees / n_groups)
}

/// Walks every row of the block down every tree, a tree group at a
/// time (see [`tree_groups`]): each round advances every walk still
/// descending one level, so the group's rows × trees independent node
/// loads are in flight at once (memory-level parallelism the
/// one-walk-at-a-time loop cannot express). Walks that reach a leaf
/// vote and drop out.
///
/// One walk serves every node format: `rows` holds the block's `len`
/// rows in the split's domain — features for float nodes, order keys
/// for FLInt nodes — `votes` their flat histograms, and `le` is the
/// compare family's `x <= split`. Each walk makes the decisions of the
/// format's scalar walk ([`crate::compile::FloatTree::predict`],
/// [`crate::compile::IntTree::predict`]), so vote counts — and
/// therefore predictions — cannot diverge.
#[inline]
fn walk_block<N: FlatNode>(
    nodes: &[N],
    roots: &[u32],
    rows: &[N::Split],
    len: usize,
    votes: &mut [u32],
    walks: &mut Vec<Walk>,
    le: impl Fn(N::Split, N::Split) -> bool,
) {
    let (n_features, n_classes) = (rows.len() / len, votes.len() / len);
    for group in tree_groups(roots.len(), len) {
        walks.clear();
        for &root in &roots[group] {
            walks.extend((0..len as u32).map(|row| Walk { row, node: root }));
        }
        while !walks.is_empty() {
            let mut kept = 0;
            for r in 0..walks.len() {
                let Walk { row, node } = walks[r];
                let (feature, split, left, right) = nodes[node as usize].parts();
                if feature == LEAF_MARKER {
                    votes[row as usize * n_classes + left as usize] += 1;
                } else {
                    let x = rows[row as usize * n_features + feature as usize];
                    let node = if le(x, split) { left } else { right };
                    walks[kept] = Walk { row, node };
                    kept += 1;
                }
            }
            walks.truncate(kept);
        }
    }
}

/// Checks that `sink` holds one answer per row of `matrix` for a model
/// of `(n_features, n_classes)`, splits it into contiguous spans of
/// whole sample blocks and runs `score(first_row, span)` on each —
/// inline when one worker suffices, otherwise over
/// [`std::thread::scope`] workers. Every span is disjoint, so workers
/// never share output cells and results are deterministic regardless
/// of scheduling.
///
/// This is the one span-partitioning implementation in the crate:
/// every engine scores through it, so every registered engine
/// parallelizes over identical boundaries by construction.
pub(crate) fn score_spans(
    matrix: &FeatureMatrix,
    (n_features, n_classes): (usize, usize),
    opts: &BatchOptions,
    sink: Sink<'_>,
    score: impl Fn(usize, Sink<'_>) + Sync,
) {
    assert_eq!(matrix.n_features(), n_features, "feature matrix width");
    let n = matrix.n_samples();
    let cells = match &sink {
        Sink::Classes(out) => (out.len(), n),
        Sink::Votes(out) => (out.len(), n * n_classes),
    };
    assert_eq!(cells.0, cells.1, "sink size");
    if n == 0 {
        return;
    }
    let block = opts.block_samples.max(1);
    let threads = opts.threads.max(1).min(n.div_ceil(block));
    if threads == 1 {
        score(0, sink);
    } else {
        let span = n.div_ceil(block).div_ceil(threads) * block;
        let spans: Vec<Sink<'_>> = match sink {
            Sink::Classes(out) => out.chunks_mut(span).map(Sink::Classes).collect(),
            Sink::Votes(out) => out.chunks_mut(span * n_classes).map(Sink::Votes).collect(),
        };
        std::thread::scope(|scope| {
            for (w, part) in spans.into_iter().enumerate() {
                let score = &score;
                scope.spawn(move || score(w * span, part));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::engine::{EngineBuilder, EngineKind};
    use flint_data::synth::SynthSpec;
    use flint_data::Dataset;
    use flint_forest::{ForestConfig, RandomForest};

    fn trained() -> (Dataset, RandomForest) {
        let data = SynthSpec::new(230, 5, 3)
            .cluster_std(1.0)
            .negative_fraction(0.5)
            .seed(11)
            .generate();
        let forest = RandomForest::fit(&data, &ForestConfig::grid(6, 8)).expect("trainable");
        (data, forest)
    }

    fn setup() -> (Dataset, CompiledForest) {
        let (data, forest) = trained();
        let backend = CompiledForest::compile(&forest, BackendKind::Flint, None).expect("compiles");
        (data, backend)
    }

    /// The classes `engine` scores for every sample of `matrix`.
    fn classes(engine: BatchEngine<'_>, matrix: &FeatureMatrix) -> Vec<u32> {
        let mut out = vec![0; matrix.n_samples()];
        engine.score(matrix, Sink::Classes(&mut out));
        out
    }

    #[test]
    fn engine_matches_scalar_loop() {
        let (data, backend) = setup();
        let want = backend.predict_dataset(&data);
        let matrix = FeatureMatrix::from_dataset(&data);
        for block in [1usize, 7, 64, 1024] {
            for threads in [1usize, 4] {
                let opts = BatchOptions::default()
                    .block_samples(block)
                    .threads(threads);
                assert_eq!(
                    classes(BatchEngine::new(&backend, opts), &matrix),
                    want,
                    "block {block} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn tree_groups_cover_the_forest_in_balanced_order() {
        for n_trees in [1usize, 3, 24, 63, 64, 65, 130] {
            for len in [1usize, 2, 3, 21, 22, 63, 64, 65, 1000] {
                let groups: Vec<Range<usize>> = tree_groups(n_trees, len).collect();
                let mut next = 0;
                for g in &groups {
                    assert_eq!(g.start, next, "{n_trees} trees, {len} rows: {groups:?}");
                    assert!(g.len() <= IN_FLIGHT.div_ceil(len));
                    next = g.end;
                }
                assert_eq!(next, n_trees);
                let sizes = groups.iter().map(Range::len);
                let (min, max) = (sizes.clone().min(), sizes.max());
                assert!(max.unwrap() - min.unwrap() <= 1, "{groups:?}");
            }
        }
        // The 24-tree magic forest: every tree at once for one row, two
        // groups of 12 (not 22 + 2) for three, one tree at a time for a
        // full block.
        assert!(tree_groups(24, 1).eq(std::iter::once(0..24)));
        assert!(tree_groups(24, 3).eq([0..12, 12..24]));
        assert!(tree_groups(24, 64).eq((0..24).map(|t| t..t + 1)));
    }

    /// The blocked engine's dataset wrapper
    /// ([`Predictor::predict_dataset`](crate::Predictor::predict_dataset)).
    #[test]
    fn dataset_wrapper_matches() {
        let (data, forest) = trained();
        let engine = EngineBuilder::new(&forest)
            .build(EngineKind::Blocked(BackendKind::Flint))
            .expect("builds");
        let (_, backend) = setup();
        assert_eq!(
            engine.predict_dataset(&data),
            backend.predict_dataset(&data)
        );
    }

    #[test]
    fn zero_and_degenerate_options_are_clamped() {
        let (data, backend) = setup();
        let want = backend.predict_dataset(&data);
        let opts = BatchOptions::default().block_samples(0).threads(0);
        let matrix = FeatureMatrix::from_dataset(&data);
        assert_eq!(classes(BatchEngine::new(&backend, opts), &matrix), want);
    }

    #[test]
    fn empty_batch_is_empty() {
        let (_, backend) = setup();
        let empty = FeatureMatrix::from_row_major(0, backend.n_features(), &[]);
        let engine = BatchEngine::new(&backend, BatchOptions::default().threads(3));
        assert_eq!(classes(engine, &empty), Vec::<u32>::new());
    }

    #[test]
    #[should_panic(expected = "feature matrix width")]
    fn wrong_width_panics() {
        let (_, backend) = setup();
        let bad = FeatureMatrix::from_row_major(1, 2, &[0.0, 0.0]);
        let _ = classes(BatchEngine::new(&backend, BatchOptions::default()), &bad);
    }
}
