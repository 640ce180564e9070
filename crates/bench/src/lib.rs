//! # flint-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation:
//!
//! | Artifact | Function / target |
//! |---|---|
//! | Table I (machines) | [`report::table1`] |
//! | Fig. 2 (SI vs FP map) | [`report::fig2`] |
//! | Fig. 3 (4 configs × 4 machines vs depth) | [`report::fig3_panel`]; on the host, the `native_bench` binary |
//! | Table II (aggregate normalized times) | [`report::table2`] |
//! | Fig. 4 (C vs ASM vs depth) | [`report::fig4`] |
//! | Table III (ASM aggregates) | [`report::table3`] |
//! | No-FPU ablation (ours) | [`report::ablation_nofpu`] |
//! | Batch throughput (ours) | [`experiments::batch_throughput_table`], `flint bench` |
//!
//! The `figures` binary prints any of them:
//! `cargo run -p flint-bench --bin figures -- table2`.
//!
//! Host-side throughput experiments run over the `flint-exec` engine
//! registry ([`flint_exec::EngineKind`]): every registered prediction
//! path — scalar/blocked if-else backends, QuickScorer, the codegen
//! VM — is measured through the one [`flint_exec::Predictor`] API, and
//! every engine is checked against its comparison family's reference
//! before any timing. The `flint bench` CLI subcommand prints that
//! table through [`experiments::batch_throughput_table`].
//!
//! Simulated numbers come from `flint-sim` cost models (the four paper
//! machines are not available). Host wall-clock shape comes from
//! `flint bench` (the engine table) and `native_bench` (gcc-compiled
//! if-else trees, the paper's Fig. 3 setup); speed claims come from
//! the separate perfbench harness. `EXPERIMENTS.md` records
//! paper-vs-measured for both.
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod experiments;
pub mod report;
pub mod shapes;

pub use shapes::ForestShape;

pub use experiments::{
    aggregate, batch_throughput_table, fig2_series, fig3_series, geometric_mean, train_grid,
    variance, AggregateRow, DepthPoint, GridPoint, GridScale, ThroughputRow, PAPER_DEPTHS,
    PAPER_TREES,
};
