//! # dyser-compiler
//!
//! The co-designed DySER compiler, rebuilt from scratch on a small SSA IR
//! (the original prototype implements these passes inside LLVM; the
//! substitution is documented in `DESIGN.md`).
//!
//! The pipeline mirrors the paper's compiler:
//!
//! 1. **Front end** — kernels are written against the [`ir`] builder API
//!    (or parsed from the textual form) as ordinary loops over memory.
//! 2. **Middle end** — [`analysis`] (CFG, dominators, natural loops) and
//!    [`opt`] (constant folding, DCE, *if-conversion* into `select`,
//!    loop unrolling).
//! 3. **Region selection & slicing** — [`dyser`] finds acceleratable
//!    inner-loop regions, classifies their *control-flow shape* (the
//!    paper's finding: two shapes curtail the compiler), and slices each
//!    region into an **access slice** (addresses, loads, stores, loop
//!    control — stays on the core) and a **compute slice** (pure dataflow
//!    — moves to the fabric).
//! 4. **Spatial scheduling** — [`schedule`] places and routes the compute
//!    slice onto the fabric, producing a [`dyser_fabric::FabricConfig`].
//! 5. **Code generation** — [`codegen`] emits SPARC machine code twice
//!    from the same IR: a scalar **baseline** binary and a **DySER**
//!    binary in which each accelerated region becomes a send/compute/recv
//!    loop whose store-only outputs are software-pipelined to a depth
//!    chosen from the spatial schedule's critical path.
//!
//! The top-level driver is [`compile`]; see [`CompiledProgram`].


#![warn(missing_docs)]
pub mod analysis;
pub mod codegen;
pub mod dyser;
pub mod ir;
pub mod opt;
pub mod pipeline;
pub mod schedule;

pub use codegen::{Program, CODE_BASE, POOL_BASE, SPILL_BASE};
pub use dyser::{classify_loops, LoopShape, Region, RegionOptions, ShapeReport, ShapeSummary};
pub use ir::{BinOp, Block, CmpOp, Function, FunctionBuilder, Module, Terminator, Type, UnOp, Value};
pub use opt::{Pass, PassSpec};
pub use pipeline::{
    compile, compile_attempt, Attempt, CompileError, CompiledProgram, CompilerOptions, RegionFate,
    RegionReport,
};
pub use schedule::{schedule_region, Schedule, ScheduleError, ScheduleOptions};
