//! # dyser-workloads
//!
//! The benchmark suite for the SPARC-DySER evaluation.
//!
//! The paper evaluates microbenchmarks plus throughput kernels (regular)
//! and irregular codes; the originals are bound to the authors' toolchain,
//! so this crate re-expresses equivalent kernels in the mini-IR (the
//! substitution is recorded in `DESIGN.md`). Each [`Kernel`] carries:
//!
//! * an IR builder producing the kernel function,
//! * a deterministic input generator and a Rust *reference implementation*
//!   that computes the expected outputs (bit-exact: the reference applies
//!   the same IEEE operations in the same order as the IR),
//! * a [`Category`] (micro / regular / irregular) and per-kernel compiler
//!   knobs.
//!
//! [`suite`] returns every kernel; [`manual`] holds the hand-optimised
//! DySER implementations used by the manual-vs-compiler experiment (E4);
//! [`shapes`] exposes the E8 control-flow shapes (early-exit,
//! nested-control, speculative-window) as reusable constructors.


#![warn(missing_docs)]
pub mod kernels;
pub mod manual;
pub mod programs;
pub mod shapes;

pub use kernels::{program_inner_kernels, suite, Category, Kernel, SizeError};
pub use shapes::ShapeCase;

/// Base address of the first data buffer.
pub const BUF_A: u64 = 0x20_0000;
/// Base address of the second data buffer.
pub const BUF_B: u64 = 0x30_0000;
/// Base address of the output buffer.
pub const BUF_C: u64 = 0x40_0000;
/// Base address of the auxiliary buffer.
pub const BUF_D: u64 = 0x50_0000;
/// Words each data buffer holds before the next one begins (the 1 MiB
/// spacing of `BUF_A..BUF_D`). A case whose buffers outgrow it would
/// overlap its neighbour.
pub const BUF_WORDS: usize = ((BUF_B - BUF_A) / 8) as usize;
