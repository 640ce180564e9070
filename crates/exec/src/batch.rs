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
//! * **tree-major walks** — every tree traverses the whole resident
//!   sample block before the next tree starts, so each tree's flat node
//!   array is loaded once per block of samples instead of once per
//!   sample;
//! * **scratch reuse** — the per-block row buffer and the vote
//!   accumulator are allocated once per worker and reused across
//!   blocks, removing every per-sample allocation;
//! * **data parallelism** — sample blocks are distributed over
//!   [`std::thread::scope`] workers (no runtime dependency, no unsafe
//!   code); each worker writes a disjoint span of the output, so
//!   results are deterministic regardless of scheduling.
//!
//! Votes, tie-breaking and traversal order per tree are byte-identical
//! to the scalar path, so predictions are **bit-identical** for every
//! [`BackendKind`](crate::BackendKind) — asserted by `tests/batch.rs`
//! across block sizes and thread counts.
//!
//! ```
//! use flint_data::{synth::SynthSpec, FeatureMatrix};
//! use flint_exec::{BackendKind, BatchEngine, BatchOptions, CompiledForest};
//! use flint_forest::{ForestConfig, RandomForest};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = SynthSpec::new(200, 4, 3).generate();
//! let forest = RandomForest::fit(&data, &ForestConfig::grid(5, 7))?;
//! let backend = CompiledForest::compile(&forest, BackendKind::Flint, None)?;
//!
//! let matrix = FeatureMatrix::from_dataset(&data);
//! let engine = BatchEngine::new(&backend, BatchOptions::default().threads(2));
//! assert_eq!(engine.predict(&matrix), backend.predict_dataset(&data));
//! # Ok(())
//! # }
//! ```

use crate::backend::{CompiledForest, Trees};
use crate::compile::{FloatNode, IntNode, LEAF_MARKER};
use flint_core::order_key;
use flint_data::{Dataset, FeatureMatrix};

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

/// Per-worker scratch: one transposed sample block (plus its order
/// keys for FLInt forests), one flat vote accumulator and the
/// interleaved-traversal cursors, allocated once and reused for every
/// block the worker scores.
#[derive(Debug)]
struct BlockScratch {
    /// Row-major block: `block_samples * n_features`.
    rows: Vec<f32>,
    /// The block's FLInt order keys, the shape of `rows`; empty unless
    /// the forest compares keys.
    keys: Vec<i32>,
    /// Flat votes: `block_samples * n_classes`.
    votes: Vec<u32>,
    /// Current node position per in-flight sample.
    cursor: Vec<u32>,
    /// Samples still traversing the current tree.
    active: Vec<u32>,
}

impl BlockScratch {
    fn new(block_samples: usize, n_features: usize, n_classes: usize, keyed: bool) -> Self {
        let cells = block_samples * n_features;
        Self {
            rows: vec![0.0; cells],
            keys: vec![0; if keyed { cells } else { 0 }],
            votes: vec![0; block_samples * n_classes],
            cursor: vec![0; block_samples],
            active: Vec::with_capacity(block_samples),
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

    /// The bound options (clamping applied at use, not here).
    pub fn options(&self) -> BatchOptions {
        self.opts
    }

    /// Scores every sample of `matrix`, returning one class per sample.
    ///
    /// Bit-identical to calling [`CompiledForest::predict`] per row.
    ///
    /// # Panics
    ///
    /// Panics if `matrix.n_features()` differs from the model's.
    pub fn predict(&self, matrix: &FeatureMatrix) -> Vec<u32> {
        assert_eq!(
            matrix.n_features(),
            self.forest.n_features(),
            "feature matrix width"
        );
        let mut out = vec![0u32; matrix.n_samples()];
        score_spans(&self.opts, &mut out, |start, span| {
            self.score_span(matrix, start, span)
        });
        out
    }

    /// Scores samples `start..start + out.len()` into `out`.
    fn score_span(&self, matrix: &FeatureMatrix, start: usize, out: &mut [u32]) {
        let block = self.opts.block_samples.max(1);
        let n_features = self.forest.n_features();
        let n_classes = self.forest.n_classes();
        let keyed = matches!(self.forest.trees(), Trees::Int(_));
        let mut scratch = BlockScratch::new(block.min(out.len()), n_features, n_classes, keyed);
        let mut offset = 0;
        while offset < out.len() {
            let len = block.min(out.len() - offset);
            self.score_block(
                matrix,
                start + offset,
                len,
                &mut scratch,
                &mut out[offset..offset + len],
            );
            offset += len;
        }
    }

    /// Scores one sample block through every tree of the forest.
    fn score_block(
        &self,
        matrix: &FeatureMatrix,
        start: usize,
        len: usize,
        scratch: &mut BlockScratch,
        out: &mut [u32],
    ) {
        let n_features = self.forest.n_features();
        let n_classes = self.forest.n_classes();
        let rows = &mut scratch.rows[..len * n_features];
        matrix.gather_block(start, len, rows);
        let votes = &mut scratch.votes[..len * n_classes];
        votes.fill(0);
        // Tree-major within the block: each tree's node array stays hot
        // while it traverses all `len` resident samples, and the
        // interleaved walk below keeps `len` independent load chains in
        // flight instead of one.
        let (cursor, active) = (&mut scratch.cursor, &mut scratch.active);
        let float = |n: &FloatNode| (n.feature, n.threshold, n.left, n.right);
        match self.forest.trees() {
            Trees::Float(trees) => {
                for tree in trees {
                    walk_interleaved(
                        tree.nodes(),
                        float,
                        rows,
                        n_features,
                        n_classes,
                        votes,
                        cursor,
                        active,
                        |x, threshold| x <= threshold,
                    );
                }
            }
            Trees::Soft(trees) => {
                for tree in trees {
                    walk_interleaved(
                        tree.nodes(),
                        float,
                        rows,
                        n_features,
                        n_classes,
                        votes,
                        cursor,
                        active,
                        flint_softfloat::soft_le,
                    );
                }
            }
            Trees::Int(trees) => {
                // Key the block once; every node is then one signed compare.
                let keys = &mut scratch.keys[..rows.len()];
                for (key, &x) in keys.iter_mut().zip(rows.iter()) {
                    *key = order_key(x);
                }
                for tree in trees {
                    walk_interleaved(
                        tree.nodes(),
                        |n: &IntNode| (n.feature, n.key, n.left, n.right),
                        keys,
                        n_features,
                        n_classes,
                        votes,
                        cursor,
                        active,
                        |x, key| x <= key,
                    );
                }
            }
        }
        for (k, slot) in out.iter_mut().enumerate() {
            *slot =
                flint_forest::metrics::majority_vote(&votes[k * n_classes..(k + 1) * n_classes]);
        }
    }
}

/// Splits `out` into contiguous spans of whole sample blocks and runs
/// `score(start, span)` on each — inline when one worker suffices,
/// otherwise over [`std::thread::scope`] workers. Every span is
/// disjoint, so workers never share output cells and results are
/// deterministic regardless of scheduling.
///
/// This is the one span-partitioning implementation in the crate: the
/// engine layer's row-wise adapters reuse it, so every registered
/// engine parallelizes over identical boundaries by construction.
pub(crate) fn score_spans(
    opts: &BatchOptions,
    out: &mut [u32],
    score: impl Fn(usize, &mut [u32]) + Sync,
) {
    let n = out.len();
    if n == 0 {
        return;
    }
    let block = opts.block_samples.max(1);
    let threads = opts.threads.max(1).min(n.div_ceil(block));
    if threads == 1 {
        score(0, out);
    } else {
        let span = n.div_ceil(block).div_ceil(threads) * block;
        std::thread::scope(|scope| {
            for (w, chunk) in out.chunks_mut(span).enumerate() {
                let score = &score;
                scope.spawn(move || score(w * span, chunk));
            }
        });
    }
}

/// Walks every sample of the block down one tree simultaneously: each
/// round advances all still-traversing samples one level, so up to
/// `block` independent node loads are in flight at once (memory-level
/// parallelism the one-sample-at-a-time loop cannot express). Samples
/// that reach a leaf vote and drop out of the active list.
///
/// One walk serves every node format: `split` reads a node's
/// `(feature, threshold, left, right)`, `rows` holds the block in the
/// threshold's domain — features for float nodes, order keys for FLInt
/// nodes — and `le` is the compare family's `x <= threshold`. The
/// decisions are those of the format's scalar walk
/// ([`crate::compile::FloatTree::predict`],
/// [`crate::compile::IntTree::predict_keys`]), so vote counts — and
/// therefore predictions — cannot diverge.
#[allow(clippy::too_many_arguments)]
#[inline]
fn walk_interleaved<N, X: Copy>(
    nodes: &[N],
    split: impl Fn(&N) -> (u32, X, u32, u32),
    rows: &[X],
    n_features: usize,
    n_classes: usize,
    votes: &mut [u32],
    cursor: &mut [u32],
    active: &mut Vec<u32>,
    le: impl Fn(X, X) -> bool,
) {
    let len = votes.len() / n_classes.max(1);
    active.clear();
    active.extend(0..len as u32);
    for slot in cursor[..len].iter_mut() {
        *slot = 0;
    }
    while !active.is_empty() {
        let mut kept = 0;
        for r in 0..active.len() {
            let k = active[r] as usize;
            let (feature, threshold, left, right) = split(&nodes[cursor[k] as usize]);
            if feature == LEAF_MARKER {
                votes[k * n_classes + left as usize] += 1;
            } else {
                let x = rows[k * n_features + feature as usize];
                cursor[k] = if le(x, threshold) { left } else { right };
                active[kept] = k as u32;
                kept += 1;
            }
        }
        active.truncate(kept);
    }
}

impl CompiledForest {
    /// Batch prediction over a dataset through the blocked,
    /// optionally multi-threaded engine. Convenience wrapper that
    /// transposes `data` and runs [`BatchEngine::predict`];
    /// bit-identical to [`CompiledForest::predict_dataset`].
    ///
    /// # Panics
    ///
    /// Panics if the dataset's feature count differs from the model's.
    pub fn predict_dataset_batched(&self, data: &Dataset, opts: BatchOptions) -> Vec<u32> {
        let matrix = FeatureMatrix::from_dataset(data);
        BatchEngine::new(self, opts).predict(&matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use flint_data::synth::SynthSpec;
    use flint_forest::{ForestConfig, RandomForest};

    fn setup() -> (Dataset, CompiledForest) {
        let data = SynthSpec::new(230, 5, 3)
            .cluster_std(1.0)
            .negative_fraction(0.5)
            .seed(11)
            .generate();
        let forest = RandomForest::fit(&data, &ForestConfig::grid(6, 8)).expect("trainable");
        let backend = CompiledForest::compile(&forest, BackendKind::Flint, None).expect("compiles");
        (data, backend)
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
                let engine = BatchEngine::new(&backend, opts);
                assert_eq!(
                    engine.predict(&matrix),
                    want,
                    "block {block} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn dataset_wrapper_matches() {
        let (data, backend) = setup();
        assert_eq!(
            backend.predict_dataset_batched(&data, BatchOptions::default()),
            backend.predict_dataset(&data),
        );
    }

    #[test]
    fn zero_and_degenerate_options_are_clamped() {
        let (data, backend) = setup();
        let want = backend.predict_dataset(&data);
        let opts = BatchOptions::default().block_samples(0).threads(0);
        assert_eq!(backend.predict_dataset_batched(&data, opts), want);
    }

    #[test]
    fn empty_batch_is_empty() {
        let (_, backend) = setup();
        let empty = FeatureMatrix::from_row_major(0, backend.n_features(), &[]);
        let engine = BatchEngine::new(&backend, BatchOptions::default().threads(3));
        assert_eq!(engine.predict(&empty), Vec::<u32>::new());
    }

    #[test]
    #[should_panic(expected = "feature matrix width")]
    fn wrong_width_panics() {
        let (_, backend) = setup();
        let bad = FeatureMatrix::from_row_major(1, 2, &[0.0, 0.0]);
        let _ = BatchEngine::new(&backend, BatchOptions::default()).predict(&bad);
    }
}
