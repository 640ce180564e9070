//! The benchmark's two forests and their request rows. Training happens
//! here, in the benchmark, and is never timed: the system under test
//! only ever receives the model text and request rows.
//!
//! Each forest is trained from a fixed seed, and the run's seed draws
//! the traffic: which rows are sent, in which order. Forests trained
//! from different seeds differ in size and path length enough to move
//! rows/s by up to 40%, more than any regression bound could absorb, so
//! runs with different seeds must score the same model to compare.

use flint_bench::ForestShape;
use flint_data::synth::SynthSpec;
use flint_data::Dataset;
use flint_exec::f16::HalfIntNode;
use flint_exec::{FloatNode, HalfCompare, HalfForest, IntNode};
use flint_forest::{ForestConfig, RandomForest};

/// Training rows of the magic stand-in: `UciDataset::Magic` at
/// `Scale::Small` (19 020 / 5).
const MAGIC_TRAIN_ROWS: usize = 3804;
/// Held-out magic rows scored by `score-magic` and sent by
/// `serve-magic`.
pub const MAGIC_SCORE_ROWS: usize = 8192;
/// Held-out magic rows the run's seed draws [`MAGIC_SCORE_ROWS`] from.
const MAGIC_POOL_ROWS: usize = 4 * MAGIC_SCORE_ROWS;
/// Seed of both forests' training data and training: the
/// `UciDataset::Magic` generator's own seed.
const MODEL_SEED: u64 = 103;
/// Deepest tree the `simd-f16` AVX2 kernel re-lays into 4-byte heap
/// nodes; a forest with any deeper tree keeps 8-byte nodes throughout.
const F16_HEAP_MAX_DEPTH: usize = 15;

/// A trained forest with the rows the benchmark sends it.
#[derive(Debug)]
pub struct Bench {
    /// Short name used in provenance lines.
    pub name: &'static str,
    /// The trained forest.
    pub forest: RandomForest,
    /// Request rows, row-major.
    pub rows: Vec<f32>,
    /// Features per row.
    pub n_features: usize,
}

impl Bench {
    /// Number of request rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len() / self.n_features
    }

    /// Request row `i`.
    pub fn row(&self, i: usize) -> &[f32] {
        &self.rows[i * self.n_features..(i + 1) * self.n_features]
    }

    /// The model file the system under test loads.
    pub fn model_text(&self) -> Vec<u8> {
        let mut text = Vec::new();
        flint_forest::io::write_forest(&self.forest, &mut text).expect("in-memory write");
        text
    }

    /// The correct class of every row for the exact engines.
    pub fn exact_refs(&self) -> Vec<u32> {
        (0..self.n_rows())
            .map(|i| self.forest.predict_majority(self.row(i)))
            .collect()
    }

    /// The correct class of every row for `simd-f16`: its own binary16
    /// scalar reference.
    pub fn f16_refs(&self) -> Vec<u32> {
        let half = HalfForest::compile(&self.forest, HalfCompare::Flint).expect("f16 compile");
        (0..self.n_rows())
            .map(|i| half.predict(self.row(i)))
            .collect()
    }

    /// Bytes of one node as `engine` stores it: 16-byte f32 or FLInt
    /// nodes, and for `simd-f16` 8-byte binary16 nodes, or 4-byte heap
    /// words when every tree fits the AVX2 heap layout.
    pub fn node_bytes(&self, engine: &str) -> usize {
        match engine {
            "naive-blocked" => std::mem::size_of::<FloatNode>(),
            "simd-f16" if self.forest.depth() <= F16_HEAP_MAX_DEPTH => 4,
            "simd-f16" => std::mem::size_of::<HalfIntNode>(),
            _ => std::mem::size_of::<IntNode>(),
        }
    }

    /// Mean nodes visited per row over all trees (each tree's
    /// root-to-leaf path, leaf included).
    pub fn path_nodes_per_row(&self, rows: usize) -> f64 {
        let rows = rows.min(self.n_rows());
        let visited: usize = (0..rows)
            .map(|i| {
                let row = self.row(i);
                self.forest
                    .trees()
                    .iter()
                    .map(|t| t.trace(row).len())
                    .sum::<usize>()
            })
            .sum();
        visited as f64 / rows as f64
    }

    /// Provenance: the forest's shape and its size in each node format.
    pub fn describe(&self, model_bytes: usize) -> String {
        let f = &self.forest;
        let nodes = f.n_nodes();
        let heap_words: usize = f
            .trees()
            .iter()
            .map(|t| (1usize << (t.depth() + 1)) - 1)
            .sum();
        format!(
            "forest={} trees={} nodes={} depth={} features={} classes={} model_bytes={} \
             f32_node_bytes={} f16_node_bytes={} f16_heap_bytes={} request_rows={}",
            self.name,
            f.n_trees(),
            nodes,
            f.depth(),
            f.n_features(),
            f.n_classes(),
            model_bytes,
            nodes * std::mem::size_of::<IntNode>(),
            nodes * std::mem::size_of::<HalfIntNode>(),
            if f.depth() <= F16_HEAP_MAX_DEPTH {
                heap_words * 4
            } else {
                0
            },
            self.n_rows()
        )
    }
}

/// The magic forest: the `UciDataset::Magic` generator, 24 trees capped
/// at depth 16 on its first 3 804 rows, sent 8 192 of the held-out rows
/// drawn after them, chosen and ordered by `seed`.
pub fn magic(seed: u64) -> Bench {
    let data = SynthSpec::new(MAGIC_TRAIN_ROWS + MAGIC_POOL_ROWS, 10, 2)
        .informative(10)
        .clusters_per_class(3)
        .cluster_std(1.8)
        .class_sep(1.5)
        .negative_fraction(0.4)
        .seed(MODEL_SEED)
        .name("magic")
        .generate();
    let train = data.subset(&(0..MAGIC_TRAIN_ROWS).collect::<Vec<_>>());
    let config = ForestConfig {
        seed: MODEL_SEED,
        ..ForestConfig::grid(24, 16)
    };
    let forest = RandomForest::fit(&train, &config).expect("magic stand-in trains");
    let pool: Vec<usize> = (MAGIC_TRAIN_ROWS..data.n_samples()).collect();
    let picked = &shuffled(pool, seed)[..MAGIC_SCORE_ROWS];
    Bench {
        name: "magic",
        forest,
        rows: picked
            .iter()
            .flat_map(|&i| data.sample(i).to_vec())
            .collect(),
        n_features: 10,
    }
}

/// The ranking forest: `ForestShape::Ranking` (600 trees, depth cap 6,
/// 32 features), sent its own workload's rows in an order drawn by
/// `seed`.
pub fn ranking(seed: u64) -> Bench {
    let shape = ForestShape::Ranking;
    let data: Dataset = shape.dataset(MODEL_SEED);
    let forest = shape.train(&data, MODEL_SEED);
    let order = shuffled((0..data.n_samples()).collect(), seed);
    Bench {
        name: "ranking",
        forest,
        rows: order
            .iter()
            .flat_map(|&i| data.sample(i).to_vec())
            .collect(),
        n_features: shape.n_features(),
    }
}

/// `items` in a seeded Fisher-Yates order (splitmix64 draws).
fn shuffled(mut items: Vec<usize>, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items
}

#[cfg(test)]
mod tests {
    use super::shuffled;

    #[test]
    fn shuffles_are_seeded_permutations() {
        let a = shuffled((0..100).collect(), 7);
        assert_eq!(a, shuffled((0..100).collect(), 7), "same seed, same order");
        assert_ne!(
            a,
            shuffled((0..100).collect(), 8),
            "another seed, another order"
        );
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
