//! # dyser-core
//!
//! The SPARC-DySER system: the paper's primary contribution, assembled.
//!
//! [`System`] wires the OpenSPARC-T1-like pipeline (`dyser-sparc`), the
//! DySER fabric (`dyser-fabric`), and the blocking cache hierarchy
//! (`dyser-mem`) into one lock-step cycle-level machine. The pipeline's
//! decode/execute stages reach the fabric through the coprocessor
//! interface exactly as the prototype's ISA extension does: `dinit`
//! streams a configuration, `dsend`/`dload` feed input ports,
//! `drecv`/`dstore` drain output ports, and `dfence` waits for the fabric
//! to empty.
//!
//! [`harness`] builds on the system to run whole *experiments*: it takes
//! a kernel (IR + inputs + expected outputs), compiles it with
//! `dyser-compiler` into the baseline and accelerated binaries, runs both
//! on identically configured systems, **checks both outputs against the
//! reference**, and reports cycles, speedup, instruction mixes, stalls,
//! and energy — the raw rows of every table and figure in the evaluation.
//!
//! ```
//! use dyser_core::{System, SystemConfig};
//! use dyser_isa::{Assembler, Instr, AluOp, Op2, regs};
//!
//! let mut asm = Assembler::new();
//! asm.push(Instr::mov_imm(regs::O0, 21));
//! asm.push(Instr::alu(AluOp::Add, regs::O0, regs::O0, Op2::Reg(regs::O0)));
//! asm.push(Instr::Halt);
//!
//! let mut sys = System::new(SystemConfig::default());
//! sys.load_raw(0x10000, &asm.assemble()?);
//! sys.run(10_000)?;
//! assert_eq!(sys.cpu().regs().read(regs::O0), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```


#![warn(missing_docs)]
pub mod harness;
pub mod report;
pub mod system;

pub use harness::{
    backend_override, compile_cache_misses, compile_cached, default_workers, parallel_map,
    run_kernel, run_kernel_traced, run_kernels, run_program, run_program_case, run_program_traced,
    run_whole_program, set_backend_override, set_trace_capacity, sink_trace, take_traces,
    trace_capacity, Backend, HarnessError, KernelCase, KernelJob, KernelResult, ProgramCase,
    ProgramRun, RunArtifacts, RunConfig,
};
pub use system::{RunStats, SpeedStats, SysError, System, SystemConfig, HEAP_BASE, STACK_BASE};
