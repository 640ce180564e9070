//! The experiment grid of the paper's evaluation (Section V) and the
//! aggregation used by its figures and tables.

use flint_data::uci::{Scale, UciDataset};
use flint_data::{train_test_split, Dataset, FeatureMatrix, TrainTestSplit};
use flint_exec::{BatchOptions, BuildEngineError, EngineBuilder, EngineKind, HalfForest};
use flint_forest::{ForestConfig, RandomForest};
use flint_sim::{simulate_forest, Machine, SimConfig, SimulateError};
use std::collections::BTreeMap;
use std::time::Instant;

/// Ensemble sizes swept by the paper.
pub const PAPER_TREES: [usize; 9] = [1, 5, 10, 15, 20, 30, 50, 80, 100];
/// Maximal depths swept by the paper.
pub const PAPER_DEPTHS: [usize; 7] = [1, 5, 10, 15, 20, 30, 50];

/// How much of the paper's grid to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridScale {
    /// Reduced grid on tiny datasets — seconds, for CI and smoke runs.
    Quick,
    /// The paper's full grid on small-scale datasets — minutes.
    Paper,
}

impl GridScale {
    /// The ensemble sizes of this grid.
    pub fn trees(self) -> &'static [usize] {
        match self {
            GridScale::Quick => &[1, 5, 10, 20],
            GridScale::Paper => &PAPER_TREES,
        }
    }

    /// The depth sweep of this grid.
    pub fn depths(self) -> &'static [usize] {
        match self {
            GridScale::Quick => &[1, 5, 10, 20, 30],
            GridScale::Paper => &PAPER_DEPTHS,
        }
    }

    /// The dataset size used. Both grids run on the tiny dataset scale:
    /// the full paper grid (9 ensemble sizes × 7 depths × 5 datasets ×
    /// 4 machines × 5 configurations) already takes minutes there, and
    /// the normalized-time aggregates are insensitive to sample count
    /// (they are ratios of per-inference costs).
    pub fn dataset_scale(self) -> Scale {
        match self {
            GridScale::Quick | GridScale::Paper => Scale::Tiny,
        }
    }
}

/// One trained grid point, reused across configurations and machines.
#[derive(Debug)]
pub struct GridPoint {
    /// Which dataset.
    pub dataset: UciDataset,
    /// Ensemble size.
    pub n_trees: usize,
    /// Depth cap.
    pub max_depth: usize,
    /// Train/test split (75/25 like the paper).
    pub split: TrainTestSplit,
    /// The trained forest.
    pub forest: RandomForest,
}

/// Trains every `(dataset, n_trees, depth)` point of the grid once.
///
/// # Panics
///
/// Panics if training fails (generated datasets are never empty or
/// NaN-bearing).
pub fn train_grid(scale: GridScale) -> Vec<GridPoint> {
    let mut points = Vec::new();
    for dataset in UciDataset::ALL {
        let data = dataset.generate(scale.dataset_scale());
        let split = train_test_split(&data, 0.25, 42);
        for &n_trees in scale.trees() {
            for &max_depth in scale.depths() {
                let forest =
                    RandomForest::fit(&split.train, &ForestConfig::grid(n_trees, max_depth))
                        .expect("synthetic data always trains");
                points.push(GridPoint {
                    dataset,
                    n_trees,
                    max_depth,
                    split: TrainTestSplit {
                        train: split.train.clone(),
                        test: split.test.clone(),
                    },
                    forest,
                });
            }
        }
    }
    points
}

/// Geometric mean of strictly positive values (1.0 for empty input).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Population variance (0.0 for fewer than two values).
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64
}

/// One Fig. 3 data point: normalized time of one configuration at one
/// maximal depth, aggregated over datasets and ensemble sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthPoint {
    /// The maximal depth (x axis).
    pub max_depth: usize,
    /// Geometric-mean normalized execution time (y axis).
    pub mean: f64,
    /// Variance across datasets × ensemble sizes.
    pub variance: f64,
}

/// Fig. 3 for one machine: per configuration, the depth series of
/// normalized execution times.
///
/// # Errors
///
/// Propagates [`SimulateError`] (cannot occur for FPU machines).
pub fn fig3_series(
    machine: Machine,
    grid: &[GridPoint],
    configs: &[SimConfig],
) -> Result<BTreeMap<&'static str, Vec<DepthPoint>>, SimulateError> {
    // ratios[config name][depth] -> Vec of normalized times
    let mut ratios: BTreeMap<&'static str, BTreeMap<usize, Vec<f64>>> = BTreeMap::new();
    for point in grid {
        let naive = simulate_forest(
            machine,
            &point.forest,
            &point.split.train,
            &point.split.test,
            &SimConfig::naive(),
        )?;
        for config in configs {
            let report = simulate_forest(
                machine,
                &point.forest,
                &point.split.train,
                &point.split.test,
                config,
            )?;
            ratios
                .entry(config.name())
                .or_default()
                .entry(point.max_depth)
                .or_default()
                .push(report.total_cycles() / naive.total_cycles());
        }
    }
    Ok(ratios
        .into_iter()
        .map(|(name, by_depth)| {
            let series = by_depth
                .into_iter()
                .map(|(max_depth, values)| DepthPoint {
                    max_depth,
                    mean: geometric_mean(&values),
                    variance: variance(&values),
                })
                .collect();
            (name, series)
        })
        .collect())
}

/// One Table II / Table III row: overall geometric mean and the
/// deep-tree (`D >= 20`) geometric mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregateRow {
    /// Geometric mean over the full grid.
    pub overall: f64,
    /// Geometric mean over grid points with `max_depth >= 20`.
    pub deep: f64,
}

/// Aggregates normalized times for `config` on `machine` over the grid
/// (Table II's "all" and "D ≥ 20" cells).
///
/// # Errors
///
/// Propagates [`SimulateError`].
pub fn aggregate(
    machine: Machine,
    grid: &[GridPoint],
    config: &SimConfig,
) -> Result<AggregateRow, SimulateError> {
    let mut all = Vec::new();
    let mut deep = Vec::new();
    for point in grid {
        let naive = simulate_forest(
            machine,
            &point.forest,
            &point.split.train,
            &point.split.test,
            &SimConfig::naive(),
        )?;
        let report = simulate_forest(
            machine,
            &point.forest,
            &point.split.train,
            &point.split.test,
            config,
        )?;
        let ratio = report.total_cycles() / naive.total_cycles();
        all.push(ratio);
        if point.max_depth >= 20 {
            deep.push(ratio);
        }
    }
    Ok(AggregateRow {
        overall: geometric_mean(&all),
        deep: geometric_mean(&deep),
    })
}

/// One row of the batch-throughput table: one registered engine's
/// measured scoring rate over a fixed workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputRow {
    /// Which engine.
    pub kind: EngineKind,
    /// Median wall-clock seconds per full scoring pass.
    pub median_secs: f64,
    /// Samples scored per second (workload size / median).
    pub samples_per_sec: f64,
    /// Speedup relative to the table's first row (>1 = faster).
    pub speedup_vs_first: f64,
}

/// The most rows whose vote histograms [`batch_throughput_table`]
/// checks per engine.
const VOTE_CHECK_ROWS: usize = 256;

/// Measures the batch-throughput table over registered engines — the
/// engine table the `flint bench` CLI subcommand prints.
///
/// Every engine is built from the registry with `opts` bound, its
/// predictions are asserted bit-identical to its comparison family's
/// scalar reference — the forest's majority vote for exact engines,
/// the binary16 forest's scalar walk for the f16 engines (a throughput
/// number for a wrong result is worthless) — and so are its
/// `predict_votes` histograms of up to [`VOTE_CHECK_ROWS`] rows spread
/// over the matrix, since a vote moved between classes can leave every
/// class as it was. Then `runs` scoring passes are timed; the median is
/// reported. Rows come back in the order of `kinds`, each with its
/// speedup relative to the first row (pass a scalar baseline first to
/// read speedups against it).
///
/// # Errors
///
/// [`BuildEngineError`] if an engine fails to build.
///
/// # Panics
///
/// Panics if `kinds` is empty, the matrix width differs from the
/// model's, or an engine's predictions diverge from its reference.
pub fn batch_throughput_table(
    forest: &RandomForest,
    profile: Option<&Dataset>,
    matrix: &FeatureMatrix,
    opts: BatchOptions,
    kinds: &[EngineKind],
    runs: usize,
) -> Result<Vec<ThroughputRow>, BuildEngineError> {
    assert!(!kinds.is_empty(), "at least one engine");
    let mut builder = EngineBuilder::new(forest).options(opts);
    if let Some(data) = profile {
        builder = builder.profile_data(data);
    }
    let rows_of = |predict: &mut dyn FnMut(&[f32]) -> u32| {
        let mut row = vec![0.0f32; matrix.n_features()];
        (0..matrix.n_samples())
            .map(|i| {
                matrix.gather_row(i, &mut row);
                predict(&row)
            })
            .collect::<Vec<u32>>()
    };
    let step = matrix.n_samples().div_ceil(VOTE_CHECK_ROWS).max(1);
    let sample: Vec<usize> = (0..matrix.n_samples()).step_by(step).collect();
    let votes_of = |votes: &dyn Fn(&[f32]) -> Vec<u32>| {
        let mut row = vec![0.0f32; matrix.n_features()];
        sample
            .iter()
            .map(|&i| {
                matrix.gather_row(i, &mut row);
                votes(&row)
            })
            .collect::<Vec<Vec<u32>>>()
    };
    let exact_reference = (
        rows_of(&mut |row| forest.predict_majority(row)),
        votes_of(&|row| forest.predict_votes(row)),
    );
    // The binary16 engines answer for their own comparison family;
    // their reference is compiled lazily, once per compare mode.
    let mut f16_references: BTreeMap<&'static str, (Vec<u32>, Vec<Vec<u32>>)> = BTreeMap::new();
    let runs = runs.max(1);
    let n = matrix.n_samples() as f64;
    let mut rows = Vec::with_capacity(kinds.len());
    let mut first_secs = None;
    for &kind in kinds {
        let engine = builder.build(kind)?;
        let (classes, votes) = match kind {
            EngineKind::SimdF16(compare) => {
                &*f16_references.entry(kind.name()).or_insert_with(|| {
                    let half = HalfForest::compile(forest, compare).expect("f16 forests compile");
                    (
                        rows_of(&mut |row| half.predict(row)),
                        votes_of(&|row| half.predict_votes(row)),
                    )
                })
            }
            _ => &exact_reference,
        };
        assert_eq!(
            &engine.predict_matrix(matrix),
            classes,
            "{} diverges from its comparison family's scalar reference",
            engine.name()
        );
        let mut row = vec![0.0f32; matrix.n_features()];
        for (&i, want) in sample.iter().zip(votes) {
            matrix.gather_row(i, &mut row);
            assert_eq!(
                &engine.predict_votes(&row),
                want,
                "{} votes of row {i} diverge from its comparison family's scalar reference",
                engine.name()
            );
        }
        let mut secs: Vec<f64> = (0..runs)
            .map(|_| {
                let start = Instant::now();
                let out = engine.predict_matrix(matrix);
                let took = start.elapsed().as_secs_f64();
                debug_assert_eq!(out.len(), matrix.n_samples());
                took
            })
            .collect();
        secs.sort_by(f64::total_cmp);
        let median = secs[secs.len() / 2].max(f64::MIN_POSITIVE);
        let first = *first_secs.get_or_insert(median);
        rows.push(ThroughputRow {
            kind,
            median_secs: median,
            samples_per_sec: n / median,
            speedup_vs_first: first / median,
        });
    }
    Ok(rows)
}

/// The Fig. 2 data series: evenly sampled 32-bit patterns (NaN and the
/// infinities excluded) as `(SI(B), FP(B))` pairs.
pub fn fig2_series(n_points: usize) -> Vec<(i32, f32)> {
    let n = n_points.max(2) as u64;
    let mut series: Vec<(i32, f32)> = (0..n)
        .map(|k| (k * (u32::MAX as u64) / (n - 1)) as u32)
        .map(f32::from_bits)
        .filter(|v| v.is_finite())
        .map(|v| (v.to_bits() as i32, v))
        .collect();
    series.sort_by_key(|&(si, _)| si);
    series.dedup_by_key(|&mut (si, _)| si);
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 1.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn variance_basics() {
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert!((variance(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fig2_series_is_monotone_in_float_order() {
        let series = fig2_series(4096);
        assert!(series.len() > 1000);
        // Sorted by SI; FP must then follow the paper's V-shape: strictly
        // decreasing over the negative half and increasing over the
        // positive half.
        let neg: Vec<f32> = series
            .iter()
            .filter(|(si, _)| *si < 0)
            .map(|&(_, v)| v)
            .collect();
        let pos: Vec<f32> = series
            .iter()
            .filter(|(si, _)| *si >= 0)
            .map(|&(_, v)| v)
            .collect();
        assert!(
            neg.windows(2).all(|w| w[0] >= w[1]),
            "negative half decreasing"
        );
        assert!(
            pos.windows(2).all(|w| w[0] <= w[1]),
            "positive half increasing"
        );
    }

    #[test]
    fn throughput_table_covers_requested_engines() {
        let data = UciDataset::Wine.generate(Scale::Tiny);
        let forest = RandomForest::fit(&data, &ForestConfig::grid(4, 8)).expect("trains");
        let matrix = FeatureMatrix::from_dataset(&data);
        let kinds = [
            EngineKind::parse("flint").expect("registered"),
            EngineKind::parse("flint-blocked").expect("registered"),
            EngineKind::parse("quickscorer").expect("registered"),
        ];
        let rows = batch_throughput_table(
            &forest,
            Some(&data),
            &matrix,
            BatchOptions::default(),
            &kinds,
            3,
        )
        .expect("builds and measures");
        assert_eq!(rows.len(), kinds.len());
        for (row, kind) in rows.iter().zip(kinds) {
            assert_eq!(row.kind, kind);
            assert!(row.median_secs > 0.0);
            assert!(row.samples_per_sec > 0.0);
            assert!(row.speedup_vs_first > 0.0);
        }
        assert_eq!(rows[0].speedup_vs_first, 1.0, "first row is the baseline");
    }

    #[test]
    fn tiny_grid_trains_and_aggregates() {
        // A micro-grid: one dataset, small sweeps — just the plumbing.
        let data = UciDataset::Wine.generate(Scale::Tiny);
        let split = train_test_split(&data, 0.25, 42);
        let mut grid = Vec::new();
        for (n_trees, depth) in [(1, 5), (5, 20)] {
            let forest = RandomForest::fit(&split.train, &ForestConfig::grid(n_trees, depth))
                .expect("trains");
            grid.push(GridPoint {
                dataset: UciDataset::Wine,
                n_trees,
                max_depth: depth,
                split: TrainTestSplit {
                    train: split.train.clone(),
                    test: split.test.clone(),
                },
                forest,
            });
        }
        let row = aggregate(Machine::X86Server, &grid, &SimConfig::flint()).expect("simulates");
        assert!(row.overall < 1.0 && row.overall > 0.3);
        assert!(row.deep < 1.0);
        let series =
            fig3_series(Machine::X86Server, &grid, &[SimConfig::flint()]).expect("simulates");
        let flint = &series["FLInt"];
        assert_eq!(flint.len(), 2); // depths 5 and 20
        assert!(flint.iter().all(|p| p.mean < 1.0));
    }
}
