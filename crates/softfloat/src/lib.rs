//! # flint-softfloat — software IEEE-754 comparison
//!
//! A from-scratch software floating point comparison for `f32` and
//! `f64` that uses **integer operations only**.
//!
//! ## Role in the FLInt reproduction
//!
//! The FLInt paper motivates its operator with devices that lack a
//! hardware floating point unit: such systems fall back to *software
//! floats*, whose comparison routine unpacks both operands and walks a
//! chain of sign/exponent/mantissa branches. This crate is that
//! baseline: the no-FPU engines and the VM's soft-float variant call
//! it, and `flint-sim` charges realistic instruction counts to the
//! "software float" configuration.
//!
//! [`soft_cmp`] is deliberately written the way portable softfloat
//! libraries write it — unpack, classify, branch — rather than via the
//! FLInt trick, because it is the *contrast* to FLInt: FLInt replaces
//! this entire routine with one or two integer instructions.
//!
//! ## IEEE semantics
//!
//! Unlike `flint-core`, this crate follows IEEE-754 exactly:
//! `-0.0 == +0.0`, and NaN is unordered (comparisons return
//! `false`/`None`).
//!
//! ## Quickstart
//!
//! ```
//! use flint_softfloat::{soft_cmp, soft_eq, soft_le};
//! use core::cmp::Ordering;
//!
//! assert!(soft_le(-2.935417f32, 10.074347f32));
//! assert!(soft_eq(-0.0f64, 0.0f64));
//! assert_eq!(soft_cmp(1.0f32, 2.0f32), Some(Ordering::Less));
//! assert_eq!(soft_cmp(f32::NAN, 1.0f32), None); // unordered
//! ```
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_code)]

pub mod cmp;
pub mod format;

pub use cmp::{soft_cmp, soft_eq, soft_ge, soft_gt, soft_le, soft_lt};
pub use format::SoftFloatFormat;
