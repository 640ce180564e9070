//! # flint-serve — the inference server
//!
//! The paper's integer-arithmetic forests exist to make inference cheap
//! at the edge and at scale; this crate is the serving layer that turns
//! **single-sample requests** into the **batched [`FeatureMatrix`]
//! blocks** where the blocked / QuickScorer / VM engines actually earn
//! their throughput. Its only coupling to the rest of the workspace is
//! the engine registry seam: it takes a `Box<dyn `[`Predictor`]`>` and
//! serves it.
//!
//! [`FeatureMatrix`]: flint_data::FeatureMatrix
//! [`Predictor`]: flint_exec::Predictor
//!
//! Layers, bottom up:
//!
//! * [`metrics`] — [`ServeMetrics`]: request/batch counters, mean
//!   batch fill and a p50/p99 latency reservoir, snapshotted by the
//!   `stats` command;
//! * [`protocol`] — the newline-delimited request/response format
//!   (bare CSV rows or `{"features":[...]}` lines in, one JSON object
//!   per line out), including [`ProtocolMachine`], the sans-io framing
//!   state machine every front end drives — chunk boundaries can never
//!   change the response stream;
//! * [`event_loop`] — [`EpollServer`], the TCP front end (Linux): one
//!   thread that accepts, reads, scores and writes. Each loop iteration
//!   batches the rows that have already arrived — never waiting for
//!   more — scores them in chunks of at most `max_batch`, and answers
//!   through ordered per-connection response slots, under explicit
//!   admission control ([`EventLoopConfig`]) that sheds overload with
//!   `busy` responses instead of queueing it invisibly;
//! * [`server`] — [`serve_lines`], the stdin/stdout front end (every
//!   platform), which scores each read's rows through the event loop's
//!   chunk scorer, and the control verbs (`stats`, `health`,
//!   `shutdown`, error lines) both front ends answer through;
//! * [`batcher`] — [`Batcher`], a collector thread and worker pool that
//!   coalesce blocking per-request calls under a max-batch / linger
//!   policy. It is on no `flint` path; the benchmark's layer probes
//!   still drive it in process.
//!
//! Everything is plain `std`: no async runtime, no serde — the crate
//! works in the vendored-offline workspace and anywhere the rest of
//! the toolchain builds. All `unsafe` lives behind the vendored
//! `epoll` crate's safe API.
//!
//! ```
//! use flint_data::synth::SynthSpec;
//! use flint_exec::{EngineBuilder, EngineKind};
//! use flint_forest::{ForestConfig, RandomForest};
//! use flint_serve::serve_lines;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = SynthSpec::new(120, 4, 3).generate();
//! let forest = RandomForest::fit(&data, &ForestConfig::grid(4, 6))?;
//! let engine = EngineBuilder::new(&forest)
//!     .build(EngineKind::parse("flint-blocked").expect("registered"))?;
//!
//! // Three rows in one read score as one batch; `stats` sees them.
//! let mut input = String::new();
//! for i in 0..3 {
//!     let row: Vec<String> = data.sample(i).iter().map(f32::to_string).collect();
//!     input.push_str(&(row.join(",") + "\n"));
//! }
//! input.push_str("stats\n");
//! let mut out = Vec::new();
//! let stats = serve_lines(&*engine, 64, input.as_bytes(), &mut out)?;
//! let text = String::from_utf8(out)?;
//! for (i, line) in text.lines().take(3).enumerate() {
//!     let class = forest.predict_majority(data.sample(i));
//!     assert!(line.starts_with(&format!("{{\"class\":{class},")), "{line}");
//! }
//! assert_eq!((stats.requests, stats.batches), (3, 1));
//! # Ok(())
//! # }
//! ```
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod batcher;
pub mod event_loop;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use batcher::{BatchHandle, BatchPolicy, Batcher, Prediction, ServeError};
pub use event_loop::{Conn, EpollServer, EventLoopConfig};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use protocol::{
    parse_request, render_busy, render_error, render_prediction, render_votes, FramedLine,
    LineMachine, ParseRequestError, ProtocolMachine, Request, WireEvent, MAX_LINE_BYTES,
};
pub use server::serve_lines;
