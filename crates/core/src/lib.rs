//! # flint-core — floating point comparison with integer arithmetic
//!
//! This crate implements **FLInt**, the operator introduced in
//! *"FLInt: Exploiting Floating Point Enabled Integer Arithmetic for
//! Efficient Random Forest Inference"* (Hakert, Chen, Chen — DATE 2024).
//!
//! FLInt evaluates the `>=` relation (and, by operand exchange and
//! negation, all of `<=`, `>`, `<`) between two IEEE-754 floating point
//! numbers using **only two's complement signed integer comparisons and
//! logic operations** on the raw bit patterns. This removes every use of
//! floating point hardware (or software float emulation) from workloads
//! whose only float operation is comparison — most prominently decision
//! tree and random forest inference.
//!
//! The key observation (Section III of the paper): reinterpreting an
//! IEEE-754 bit pattern as a two's complement signed integer preserves
//! the ordering of the encoded float values when both operands share a
//! sign, and *inverts* it when both are negative. [`compare::ge_bits`]
//! encodes exactly the paper's Theorem 1:
//!
//! ```text
//! FP(X) >= FP(Y)  <=>  (SI(X) >= SI(Y)) XOR (SI(X) < 0 && SI(Y) < 0 && SI(X) != SI(Y))
//! ```
//!
//! When one operand is a compile-time constant — always the case for the
//! split values of a trained decision tree — the sign test is resolved
//! *offline* (Theorem 2): a positive split value compiles to a single
//! signed integer comparison against an integer immediate, a negative
//! split value to one XOR (sign-bit flip of the feature word) plus one
//! signed comparison. [`threshold::PreparedThreshold`] packages this.
//!
//! ## Semantics and special cases
//!
//! * The operators implement the paper's convention `-0.0 < +0.0`
//!   (a *total* order on non-NaN floats), which differs from IEEE-754's
//!   `-0.0 == +0.0`. [`threshold::PreparedThreshold`] rewrites a split
//!   value of `-0.0` to `+0.0` at preparation time, after which every
//!   `<=`/`>` decision agrees bit-for-bit with IEEE semantics for all
//!   non-NaN inputs (Section IV-B of the paper).
//! * NaN does not occur in random forests; [`threshold::PreparedThreshold::new`]
//!   rejects NaN split values with [`PrepareThresholdError`]. The raw
//!   bit-level operators are still *defined* on NaN patterns (they order
//!   them by bit pattern) — see the per-function docs.
//! * Infinities need no special handling: they are encoded as the
//!   largest-magnitude patterns and order correctly.
//!
//! ## Quickstart
//!
//! ```
//! use flint_core::{flint_ge, flint_le, PreparedThreshold};
//!
//! # fn main() -> Result<(), flint_core::PrepareThresholdError> {
//! // Direct comparison, integer ops only:
//! assert!(flint_ge(10.5f32, 10.074347f32));
//! assert!(flint_le(-2.935417f32, -1.0f32));
//!
//! // Offline-prepared decision tree split (Theorem 2):
//! let node = PreparedThreshold::new(10.074347f32)?;
//! assert!(node.le(9.9f32));      // feature <= split  -> take left child
//! assert!(!node.le(11.0f32));    //                  -> take right child
//! # Ok(())
//! # }
//! ```
//!
//! The crate is `no_std`-compatible (disable the default `std` feature),
//! so it runs unmodified on FPU-less embedded targets — the deployment
//! scenario that motivates the paper.
#![cfg_attr(not(feature = "std"), no_std)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod bits;
pub mod compare;
pub mod half;
pub mod threshold;
pub mod total_order;

mod error;

pub use bits::FloatBits;
pub use compare::{
    flint_clamp, flint_eq, flint_ge, flint_gt, flint_le, flint_lt, flint_max, flint_min,
};
pub use error::PrepareThresholdError;
pub use threshold::PreparedThreshold;
pub use total_order::{order_key, FlintOrd};
