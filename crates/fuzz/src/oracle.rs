//! The multi-way oracle: every fuzz case must satisfy *all* of
//!
//! 1. IR interpreter == compiled baseline binary == compiled DySER binary
//!    (bit-exact output buffers, IEEE specials included);
//! 2. `System::run` (fast-forwarding), `System::run_stepped` (per-cycle
//!    reference), and `System::run_compiled` (block-translated thunks)
//!    produce bit-identical `RunStats`;
//! 3. every run's cycle attribution is balanced — `sum(buckets) ==
//!    cycles` — and the `MemMiss` bucket equals the memory hierarchy's
//!    own stall count;
//! 4. mid-run timeouts are typed (`SysError::Timeout`) and identical on
//!    both simulation paths;
//! 5. invalid system descriptions fail with a typed
//!    `SysError::InvalidConfig` before any simulation starts;
//! 6. a DySER run whose port FIFOs never held as many values as its depth
//!    when a capacity check read them (its FIFO high-water mark is below
//!    the depth) has bit-identical `RunStats` at a depth just above the
//!    mark: the rule by which `dyser_core::LegMemo` replays legs;
//! 7. nothing panics (the campaign runs each case inside
//!    `catch_unwind`).
//!
//! Any violation is a simulator or compiler bug, reported as a
//! [`FuzzFailure`] whose `kind` the shrinker preserves while minimizing.

use std::fmt;

use dyser_compiler::ir::interp::{interpret, InterpMem};
use dyser_compiler::Program;
use dyser_core::{compile_cached, RunStats, SysError, System, SystemConfig};
use dyser_fabric::Fabric;
use dyser_sparc::CycleBucket;

use crate::gen::{build_case, compiler_options, system_config, BuiltCase, Recipe, RunMode};

/// Interpreter step budget per case.
const INTERP_STEPS: u64 = 10_000_000;
/// Simulation cycle budget per run — generous for kernels this small, so
/// hitting it is itself a finding.
const MAX_CYCLES: u64 = 2_000_000;
/// Trace ring capacity for traced-mode runs.
const TRACE_CAP: usize = 4096;

/// One oracle violation. `Debug` doubles as the campaign's detail line.
#[derive(Debug, Clone)]
pub enum FuzzFailure {
    /// The grammar emitted IR the verifier rejected — a fuzzer bug.
    Generator(String),
    /// The interpreter itself faulted on generated IR.
    Interp(String),
    /// Compilation failed; the pipeline is supposed to degrade, not fail.
    Compile(String),
    /// A zero-FIFO recipe did not produce a typed `InvalidConfig`.
    ExpectedInvalidConfig(String),
    /// A run that should complete returned an error.
    Run {
        /// Which engine (`"baseline"`, `"dyser"`, `"dyser-stepped"`,
        /// `"dyser-compiled"`), or `"dyser-depth"` for the DySER run at
        /// another FIFO depth.
        which: &'static str,
        /// The typed error's rendering.
        detail: String,
    },
    /// An output word disagreed with the interpreter.
    OutputMismatch {
        /// Which engine.
        which: &'static str,
        /// Address of the first mismatching word.
        addr: u64,
        /// Interpreter's bits.
        expected: u64,
        /// Engine's bits.
        got: u64,
    },
    /// Fast-forwarded and stepped stats were not bit-identical.
    StatsDiverge(String),
    /// A run's cycle attribution failed the balance identity.
    UnbalancedAccount {
        /// Which engine.
        which: &'static str,
        /// What went out of balance.
        detail: String,
    },
    /// The half-budget timeout sweep diverged between paths.
    TimeoutDiverge(String),
    /// A DySER run's stats changed at another FIFO depth above its FIFO
    /// high-water mark.
    DepthDiverge(String),
    /// Traced mode produced no trace.
    MissingTrace,
    /// The case panicked (caught by the campaign driver).
    Panic(String),
}

impl FuzzFailure {
    /// Stable failure class; the shrinker only accepts candidates that
    /// fail with the *same* kind, so minimization never wanders onto a
    /// different bug.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            FuzzFailure::Generator(_) => "generator",
            FuzzFailure::Interp(_) => "interp",
            FuzzFailure::Compile(_) => "compile",
            FuzzFailure::ExpectedInvalidConfig(_) => "expected-invalid-config",
            FuzzFailure::Run { .. } => "run",
            FuzzFailure::OutputMismatch { .. } => "output-mismatch",
            FuzzFailure::StatsDiverge(_) => "stats-diverge",
            FuzzFailure::UnbalancedAccount { .. } => "unbalanced-account",
            FuzzFailure::TimeoutDiverge(_) => "timeout-diverge",
            FuzzFailure::DepthDiverge(_) => "depth-diverge",
            FuzzFailure::MissingTrace => "missing-trace",
            FuzzFailure::Panic(_) => "panic",
        }
    }
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuzzFailure::Generator(d) => write!(f, "generator bug: {d}"),
            FuzzFailure::Interp(d) => write!(f, "interpreter fault: {d}"),
            FuzzFailure::Compile(d) => write!(f, "compile failure: {d}"),
            FuzzFailure::ExpectedInvalidConfig(d) => {
                write!(f, "invalid config not rejected with a typed error: {d}")
            }
            FuzzFailure::Run { which, detail } => write!(f, "{which} run failed: {detail}"),
            FuzzFailure::OutputMismatch { which, addr, expected, got } => write!(
                f,
                "{which} output mismatch at {addr:#x}: expected {expected:#018x}, got {got:#018x}"
            ),
            FuzzFailure::StatsDiverge(d) => write!(f, "run vs run_stepped stats diverge: {d}"),
            FuzzFailure::UnbalancedAccount { which, detail } => {
                write!(f, "{which} cycle account unbalanced: {detail}")
            }
            FuzzFailure::TimeoutDiverge(d) => write!(f, "timeout sweep diverged: {d}"),
            FuzzFailure::DepthDiverge(d) => write!(f, "FIFO depth above the mark diverged: {d}"),
            FuzzFailure::MissingTrace => write!(f, "traced run produced no trace"),
            FuzzFailure::Panic(d) => write!(f, "panic: {d}"),
        }
    }
}

/// What a passing case looked like — fed into campaign aggregates.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseOutcome {
    /// Whether any region actually ran on the fabric.
    pub accelerated: bool,
    /// Total simulated cycles across all of the case's runs.
    pub cycles: u64,
    /// The case was a deliberately invalid configuration, checked for a
    /// typed rejection and nothing more.
    pub invalid_config: bool,
}

/// The synthetic-miscompile hook: when armed, any recipe whose resolved
/// DAG contains an integer multiply gets its expected output perturbed,
/// simulating a miscompiled `Mul`. Test-only by construction — the
/// campaign only arms it when explicitly asked — it proves end to end
/// that the oracle detects single-op miscompiles and that the shrinker
/// minimizes them while preserving the failure.
#[derive(Debug, Clone, Copy)]
pub struct Sabotage;

impl Sabotage {
    /// Whether the recipe's resolved DAG contains the trigger op.
    #[must_use]
    pub fn trips(&self, r: &Recipe) -> bool {
        use crate::gen::{bin_choice, dag_types, BinChoice, Node};
        use dyser_compiler::{BinOp, Type};
        let has_int_mul = |nodes: &[Node], a_fp: bool, b_fp: bool| {
            let tys = dag_types(nodes, a_fp, b_fp);
            nodes.iter().any(|n| match n {
                Node::Bin(tag, x, y) => {
                    bin_choice(*tag, tys[*x], tys[*y]) == BinChoice::Int(BinOp::Mul)
                }
                _ => false,
            })
        };
        if has_int_mul(&r.nodes, r.a_fp, r.b_fp) {
            return true;
        }
        if r.second.is_empty() {
            return false;
        }
        // Loop 2's streams: loop 1's stored type, then stream A.
        let stored_fp =
            *dag_types(&r.nodes, r.a_fp, r.b_fp).last().expect("non-empty DAG") == Type::F64;
        has_int_mul(&r.second, stored_fp, r.a_fp)
    }
}

/// Checks one recipe against the full oracle stack.
///
/// # Errors
///
/// Returns the first [`FuzzFailure`] encountered.
pub fn check_case(r: &Recipe) -> Result<CaseOutcome, FuzzFailure> {
    check_case_with(r, None)
}

/// [`check_case`] with an optional synthetic-miscompile hook armed.
///
/// # Errors
///
/// Returns the first [`FuzzFailure`] encountered.
pub fn check_case_with(
    r: &Recipe,
    sabotage: Option<&Sabotage>,
) -> Result<CaseOutcome, FuzzFailure> {
    let built = build_case(r).map_err(FuzzFailure::Generator)?;

    // Ground truth: the IR interpreter.
    let mut imem = InterpMem::new();
    for (addr, words) in &built.init {
        imem.write_u64_slice(*addr, words);
    }
    interpret(&built.function, &built.args, &mut imem, INTERP_STEPS)
        .map_err(|e| FuzzFailure::Interp(format!("{e:?}")))?;
    let mut expected: Vec<(u64, Vec<u64>)> =
        built.outputs.iter().map(|&(addr, len)| (addr, imem.read_u64_slice(addr, len))).collect();

    if let Some(s) = sabotage {
        if s.trips(r) {
            // Simulate a miscompiled multiply: one wrong output bit.
            expected[0].1[0] ^= 1;
        }
    }

    let sys_cfg = system_config(r);

    // Deliberately impossible hardware must be rejected with a typed
    // error — from both the validator and the constructor — and that is
    // the whole case.
    if r.fifo_depth == 0 {
        if sys_cfg.validate().is_ok() {
            return Err(FuzzFailure::ExpectedInvalidConfig(
                "SystemConfig::validate accepted a zero FIFO depth".into(),
            ));
        }
        return match System::try_new(sys_cfg) {
            Err(SysError::InvalidConfig(_)) => {
                Ok(CaseOutcome { invalid_config: true, ..CaseOutcome::default() })
            }
            Err(other) => {
                Err(FuzzFailure::ExpectedInvalidConfig(format!("wrong error class: {other}")))
            }
            Ok(_) => Err(FuzzFailure::ExpectedInvalidConfig(
                "System::try_new accepted a zero FIFO depth".into(),
            )),
        };
    }

    let opts = compiler_options(r);
    let compiled =
        compile_cached(&built.function, &opts).map_err(|e| FuzzFailure::Compile(e.to_string()))?;

    let mut cycles = 0u64;

    // Baseline binary against the interpreter.
    let (base_stats, _) =
        exec("baseline", &compiled.baseline, &built, &expected, &sys_cfg, Engine::Fast, false)?;
    cycles += base_stats.cycles;

    // DySER binary: the fast-forwarding path (traced when the recipe says
    // so), the per-cycle reference path, and the block-translated compiled
    // path — all three must agree bit-for-bit in both outputs and
    // statistics.
    let traced = r.mode == RunMode::Traced;
    let (ff_stats, mut ff_sys) =
        exec("dyser", &compiled.accelerated, &built, &expected, &sys_cfg, Engine::Fast, traced)?;
    let (st_stats, _) = exec(
        "dyser-stepped",
        &compiled.accelerated,
        &built,
        &expected,
        &sys_cfg,
        Engine::Stepped,
        false,
    )?;
    let (cp_stats, _) = exec(
        "dyser-compiled",
        &compiled.accelerated,
        &built,
        &expected,
        &sys_cfg,
        Engine::Compiled,
        false,
    )?;
    cycles += ff_stats.cycles + st_stats.cycles + cp_stats.cycles;
    if ff_stats != st_stats {
        return Err(FuzzFailure::StatsDiverge(format!(
            "fast-forward {ff_stats:?} vs stepped {st_stats:?}"
        )));
    }
    if ff_stats != cp_stats {
        return Err(FuzzFailure::StatsDiverge(format!(
            "fast-forward {ff_stats:?} vs compiled {cp_stats:?}"
        )));
    }
    if traced && ff_sys.take_trace().is_none() {
        return Err(FuzzFailure::MissingTrace);
    }

    // A run whose FIFO high-water mark is below its depth must run the
    // same at every other depth above the mark (`LegMemo` replays legs on
    // this): check the shallowest such depth.
    let mark = ff_sys.fabric().map_or(0, Fabric::fifo_high_water);
    if mark < sys_cfg.fifo_depth {
        let depth = if mark + 1 == sys_cfg.fifo_depth { mark + 2 } else { mark + 1 };
        let other = SystemConfig { fifo_depth: depth, ..sys_cfg.clone() };
        let (stats, _) = exec(
            "dyser-depth",
            &compiled.accelerated,
            &built,
            &expected,
            &other,
            Engine::Fast,
            false,
        )?;
        if stats != ff_stats {
            return Err(FuzzFailure::DepthDiverge(format!(
                "mark {mark}: depth {} {ff_stats:?} vs depth {depth} {stats:?}",
                sys_cfg.fifo_depth
            )));
        }
        cycles += stats.cycles;
    }

    // Mid-run timeout sweep: every path must report the same typed
    // Timeout at the same cycle under a half budget.
    if r.timeout_check {
        let budget = ff_stats.cycles / 2;
        let t_ff = run_to_timeout(&compiled.accelerated, &built, &sys_cfg, Engine::Fast, budget)?;
        let t_st =
            run_to_timeout(&compiled.accelerated, &built, &sys_cfg, Engine::Stepped, budget)?;
        let t_cp =
            run_to_timeout(&compiled.accelerated, &built, &sys_cfg, Engine::Compiled, budget)?;
        if t_ff != t_st || t_ff != t_cp {
            return Err(FuzzFailure::TimeoutDiverge(format!(
                "budget {budget}: fast-forward timed out at {t_ff}, stepped at {t_st}, \
                 compiled at {t_cp}"
            )));
        }
        cycles += t_ff + t_st + t_cp;
    }

    Ok(CaseOutcome { accelerated: compiled.accelerated_any, cycles, invalid_config: false })
}

/// Which execution engine drives a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    /// [`System::run`] — interpreted, with quiescent fast-forwarding.
    Fast,
    /// [`System::run_stepped`] — the per-cycle reference.
    Stepped,
    /// [`System::run_compiled`] — block-translated execution thunks.
    Compiled,
}

impl Engine {
    fn run(self, sys: &mut System, budget: u64) -> Result<RunStats, SysError> {
        match self {
            Engine::Fast => sys.run(budget),
            Engine::Stepped => sys.run_stepped(budget),
            Engine::Compiled => sys.run_compiled(budget),
        }
    }
}

/// Builds a system, runs one engine, checks the balance identity, the
/// `MemMiss` cross-check, and the output buffers against the interpreter.
/// Returns the stats and the finished system.
fn exec(
    which: &'static str,
    program: &Program,
    built: &BuiltCase,
    expected: &[(u64, Vec<u64>)],
    sys_cfg: &SystemConfig,
    engine: Engine,
    trace: bool,
) -> Result<(RunStats, System), FuzzFailure> {
    let mut sys = setup(which, program, built, sys_cfg)?;
    if trace {
        sys.enable_trace(TRACE_CAP);
    }
    let run = engine.run(&mut sys, MAX_CYCLES);
    let stats = run.map_err(|e| FuzzFailure::Run { which, detail: e.to_string() })?;
    let acct = stats.cycle_account();
    if !acct.balanced() {
        return Err(FuzzFailure::UnbalancedAccount {
            which,
            detail: format!("sum(buckets) {} != cycles {}", acct.sum(), stats.cycles),
        });
    }
    if acct.get(CycleBucket::MemMiss) != stats.mem_miss_stall_cycles() {
        return Err(FuzzFailure::UnbalancedAccount {
            which,
            detail: format!(
                "MemMiss bucket {} != memory stall count {}",
                acct.get(CycleBucket::MemMiss),
                stats.mem_miss_stall_cycles()
            ),
        });
    }
    for (addr, words) in expected {
        for (i, want) in words.iter().enumerate() {
            let a = addr + 8 * i as u64;
            let got = sys.memory().read_u64(a);
            if got != *want {
                return Err(FuzzFailure::OutputMismatch { which, addr: a, expected: *want, got });
            }
        }
    }
    Ok((stats, sys))
}

/// Runs one engine under an insufficient budget; the result must be a
/// typed `Timeout`, whose cycle count is returned.
fn run_to_timeout(
    program: &Program,
    built: &BuiltCase,
    sys_cfg: &SystemConfig,
    engine: Engine,
    budget: u64,
) -> Result<u64, FuzzFailure> {
    let mut sys = setup("timeout-sweep", program, built, sys_cfg)?;
    let run = engine.run(&mut sys, budget);
    match run {
        Err(SysError::Timeout { cycles }) => Ok(cycles),
        Err(other) => Err(FuzzFailure::TimeoutDiverge(format!(
            "budget {budget} produced a non-timeout error: {other}"
        ))),
        Ok(stats) => Err(FuzzFailure::TimeoutDiverge(format!(
            "budget {budget} (half of the full run) completed in {} cycles",
            stats.cycles
        ))),
    }
}

fn setup(
    which: &'static str,
    program: &Program,
    built: &BuiltCase,
    sys_cfg: &SystemConfig,
) -> Result<System, FuzzFailure> {
    let mut sys = System::try_new(sys_cfg.clone())
        .map_err(|e| FuzzFailure::Run { which, detail: e.to_string() })?;
    sys.load_program(program).map_err(|e| FuzzFailure::Run { which, detail: e.to_string() })?;
    for (addr, words) in &built.init {
        sys.memory_mut().write_u64_slice(*addr, words);
    }
    sys.set_args(&built.args);
    Ok(sys)
}
