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
//! * [`event_loop`] — [`EpollServer`], the readiness event-loop front
//!   end (`--front-end epoll`, the default on Linux): one thread that
//!   accepts, reads, scores and writes. Each loop iteration batches
//!   the rows that have already arrived — never waiting for more —
//!   scores them in chunks of at most `max_batch`, and answers through
//!   ordered per-connection response slots, under explicit admission
//!   control ([`EventLoopConfig`]) that sheds overload with `busy`
//!   responses instead of queueing it invisibly;
//! * [`batcher`] — [`Batcher`], for front ends that block per request:
//!   a collector thread coalesces queued rows under a max-batch /
//!   max-linger policy (bounded queue, backpressure, graceful
//!   shutdown-with-drain), a worker pool scores closed batches through
//!   the shared engine, and per-sample results fan back to their
//!   callers over oneshot channels;
//! * [`server`] — [`Server`], the thread-per-connection TCP front end
//!   over the batcher (`--front-end threads`), [`serve_lines`] for
//!   stdin/stdout serving, the [`FrontEnd`] selector, and the control
//!   verbs (`stats`, `health`, `shutdown`, error lines) every front end
//!   answers through.
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
//! use flint_serve::{BatchPolicy, Batcher};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = SynthSpec::new(120, 4, 3).generate();
//! let forest = RandomForest::fit(&data, &ForestConfig::grid(4, 6))?;
//! let engine = EngineBuilder::new(&forest)
//!     .build(EngineKind::parse("flint-blocked").expect("registered"))?;
//!
//! let batcher = Batcher::start(engine, BatchPolicy::default().workers(2));
//! let handle = batcher.handle();
//! let served = handle.predict(data.sample(0))?.class;
//! assert_eq!(served, forest.predict_majority(data.sample(0)));
//! batcher.shutdown();
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

pub use batcher::{BatchHandle, BatchPolicy, Batcher, Prediction, ServeError, VotesReply};
pub use event_loop::{Conn, EpollServer, EventLoopConfig};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use protocol::{
    parse_request, render_busy, render_error, render_prediction, render_votes, FramedLine,
    LineMachine, ParseRequestError, ProtocolMachine, Request, WireEvent, MAX_LINE_BYTES,
};
pub use server::{serve_lines, FrontEnd, ParseFrontEndError, Server};
