//! # flint-suite — umbrella crate for the FLInt reproduction
//!
//! Re-exports every crate of the workspace under one roof so that the
//! examples and integration tests can exercise the whole system:
//!
//! * [`core`] — the FLInt operator (the paper's contribution),
//! * [`softfloat`] — software IEEE-754 comparison (no-FPU baseline),
//! * [`data`] — synthetic UCI-shaped datasets,
//! * [`forest`] — CART training and random forests,
//! * [`layout`] — the CAGS cache-aware layout optimization,
//! * [`qscorer`] — QuickScorer interleaved traversal with a FLInt mode,
//! * [`exec`] — the measured inference backends and the unified engine
//!   layer (`Predictor` trait + `EngineKind` registry) every
//!   prediction path plugs into,
//! * [`codegen`] — C/ASM/Rust emitters and the integer-only tree VM,
//! * [`sim`] — machine cost models and cycle accounting,
//! * [`serve`] — the inference server over any registered engine: an
//!   epoll TCP front end and a stdin front end, both batching and
//!   scoring on their one serving thread through the same chunk scorer.
//!
//! See `ROADMAP.md` for the system's open items and `EXPERIMENTS.md`
//! for the paper-vs-measured record of every table and figure.

pub use flint_codegen as codegen;
pub use flint_core as core;
pub use flint_data as data;
pub use flint_exec as exec;
pub use flint_forest as forest;
pub use flint_layout as layout;
pub use flint_qscorer as qscorer;
pub use flint_serve as serve;
pub use flint_sim as sim;
pub use flint_softfloat as softfloat;
