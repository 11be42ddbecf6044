//! The experiment harness: compile a kernel both ways, run both systems,
//! verify both outputs, and report the measurements.
//!
//! This is the software equivalent of the paper's evaluation flow: the
//! same source is compiled for OpenSPARC (baseline) and SPARC-DySER
//! (accelerated), both run the same inputs on identically configured
//! machines, and correctness is established by comparing every output
//! buffer against a reference computed independently.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread;

use dyser_compiler::{
    compile, CompileError, CompiledProgram, CompilerOptions, Function, Program, RegionReport,
};
use dyser_trace::TraceRun;

use crate::system::{RunStats, SpeedStats, SysError, System, SystemConfig};

/// A runnable kernel instance: IR, arguments, input memory, and the
/// reference outputs.
#[derive(Debug, Clone)]
pub struct KernelCase {
    /// Display name.
    pub name: String,
    /// The kernel function.
    pub function: Function,
    /// Arguments passed in `%o0..%o5` (buffer addresses, sizes, scalars).
    pub args: Vec<u64>,
    /// Initial memory contents: `(address, words)`.
    pub init: Vec<(u64, Vec<u64>)>,
    /// Expected memory after the run: `(address, words)`.
    pub expected: Vec<(u64, Vec<u64>)>,
}

/// Which execution engine drives a simulation run.
///
/// All backends produce bit-identical [`RunStats`]; they differ only in
/// how much simulator work they spend per simulated cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Fetch, decode, and execute every issue, fast-forwarding counted
    /// stalls (`System::run`).
    #[default]
    Interpreted,
    /// Translate straight-line spans once and dispatch pre-decoded block
    /// thunks (`System::run_compiled`).
    Compiled,
}

impl Backend {
    /// Parses a CLI spelling.
    ///
    /// # Errors
    ///
    /// Returns the unrecognised input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "interpreted" | "interp" => Ok(Backend::Interpreted),
            "compiled" => Ok(Backend::Compiled),
            other => Err(format!("unknown backend {other:?} (interpreted|compiled)")),
        }
    }

    /// The canonical CLI spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Backend::Interpreted => "interpreted",
            Backend::Compiled => "compiled",
        }
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// System parameters (shared by both runs).
    pub system: SystemConfig,
    /// Compiler parameters.
    pub compiler: CompilerOptions,
    /// Cycle budget per run.
    pub max_cycles: u64,
    /// Use the per-cycle reference path (`System::run_stepped`) instead
    /// of the stall fast-forwarding default. The two paths produce
    /// bit-identical `RunStats` — this switch exists so the equivalence
    /// tests can prove it through the full harness. Takes precedence
    /// over `backend`.
    pub stepped: bool,
    /// Execution engine for non-stepped runs (overridable process-wide
    /// with [`set_backend_override`]).
    pub backend: Backend,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            system: SystemConfig::default(),
            compiler: CompilerOptions::default(),
            max_cycles: 50_000_000,
            stepped: false,
            backend: Backend::Interpreted,
        }
    }
}

impl RunConfig {
    /// Sets the fabric geometry on both the system and the compiler.
    ///
    /// The two copies must agree or the scheduler targets hardware that
    /// does not exist; every sweep that varies geometry should go through
    /// here rather than assigning the fields separately.
    pub fn set_geometry(&mut self, geometry: dyser_fabric::FabricGeometry) {
        self.system.geometry = geometry;
        self.compiler.geometry = geometry;
    }

    /// Sets explicit per-site FU kinds on both the system and the
    /// compiler (`None` restores the default heterogeneous pattern).
    pub fn set_kinds(&mut self, kinds: Option<Vec<dyser_fabric::FuKind>>) {
        self.system.kinds = kinds.clone();
        self.compiler.kinds = kinds;
    }

    /// Makes every FU site a [`dyser_fabric::FuKind::Universal`] unit on
    /// the current geometry (used by idealised sweeps).
    pub fn set_universal_fus(&mut self) {
        let kinds = vec![dyser_fabric::FuKind::Universal; self.system.geometry.fu_count()];
        self.set_kinds(Some(kinds));
    }
}

/// The outcome of one kernel experiment.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Kernel name.
    pub name: String,
    /// Baseline run statistics.
    pub baseline: RunStats,
    /// Accelerated run statistics.
    pub dyser: RunStats,
    /// Baseline cycles / accelerated cycles.
    pub speedup: f64,
    /// Whether any region was actually accelerated.
    pub accelerated_any: bool,
    /// Compiler region reports.
    pub regions: Vec<RegionReport>,
    /// Static code sizes (baseline, accelerated).
    pub code_sizes: (usize, usize),
}

impl KernelResult {
    /// Dynamic instruction reduction: `1 - dyser/baseline`.
    pub fn instr_reduction(&self) -> f64 {
        if self.baseline.core.instructions == 0 {
            0.0
        } else {
            1.0 - self.dyser.core.instructions as f64 / self.baseline.core.instructions as f64
        }
    }
}

/// Harness failures.
#[derive(Debug)]
pub enum HarnessError {
    /// Compilation failed.
    Compile(CompileError),
    /// A run faulted or timed out.
    Run {
        /// `"baseline"` or `"dyser"`.
        which: &'static str,
        /// The underlying error.
        source: SysError,
    },
    /// An output buffer mismatched the reference.
    Mismatch {
        /// `"baseline"` or `"dyser"`.
        which: &'static str,
        /// Address of the first mismatching word.
        addr: u64,
        /// Expected bits.
        expected: u64,
        /// Observed bits.
        got: u64,
    },
    /// A whole-program run's captured stdout differed from the reference.
    StdoutMismatch {
        /// `"baseline"` or `"dyser"`.
        which: &'static str,
        /// Expected bytes.
        expected: Vec<u8>,
        /// Observed bytes.
        got: Vec<u8>,
    },
    /// A whole-program run exited with the wrong code.
    ExitMismatch {
        /// `"baseline"` or `"dyser"`.
        which: &'static str,
        /// Expected exit code.
        expected: u64,
        /// Observed exit code.
        got: u64,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Compile(e) => write!(f, "compile: {e}"),
            HarnessError::Run { which, source } => write!(f, "{which} run: {source}"),
            HarnessError::Mismatch { which, addr, expected, got } => write!(
                f,
                "{which} output mismatch at {addr:#x}: expected {expected:#018x}, got {got:#018x}"
            ),
            HarnessError::StdoutMismatch { which, expected, got } => write!(
                f,
                "{which} stdout mismatch: expected {:?}, got {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(got)
            ),
            HarnessError::ExitMismatch { which, expected, got } => {
                write!(f, "{which} exit code mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<CompileError> for HarnessError {
    fn from(e: CompileError) -> Self {
        HarnessError::Compile(e)
    }
}

/// Process-wide backend override: 0 = none (use each job's `RunConfig`),
/// 1 = interpreted, 2 = compiled. Lets the CLI's `--backend` flag reach
/// every run without threading through each experiment constructor.
static BACKEND_OVERRIDE: AtomicU64 = AtomicU64::new(0);

/// Forces every subsequent [`run_program`] call in this process onto the
/// given backend (`None` restores per-job configuration).
pub fn set_backend_override(backend: Option<Backend>) {
    let v = match backend {
        None => 0,
        Some(Backend::Interpreted) => 1,
        Some(Backend::Compiled) => 2,
    };
    BACKEND_OVERRIDE.store(v, Ordering::Relaxed);
}

/// The backend override currently in force (see [`set_backend_override`]).
///
/// Exposed so callers that memoize results keyed on effective
/// configuration (the `repro` table cache) can fold the override into
/// their keys.
#[must_use]
pub fn backend_override() -> Option<Backend> {
    match BACKEND_OVERRIDE.load(Ordering::Relaxed) {
        1 => Some(Backend::Interpreted),
        2 => Some(Backend::Compiled),
        _ => None,
    }
}

/// Ring-buffer capacity for event tracing in [`run_program`] and
/// [`run_whole_program`]; zero (the default) disables tracing entirely.
static TRACE_CAP: AtomicUsize = AtomicUsize::new(0);

/// Completed traces awaiting collection by [`take_traces`].
static TRACE_SINK: Mutex<Vec<TraceRun>> = Mutex::new(Vec::new());

/// Enables (capacity > 0) or disables (capacity == 0) event tracing for
/// subsequent [`run_program`] and [`run_whole_program`] calls in this
/// process. Each run traces into per-component ring buffers of
/// `capacity` events.
pub fn set_trace_capacity(capacity: usize) {
    TRACE_CAP.store(capacity, Ordering::Relaxed);
}

/// The event-tracing ring capacity currently in force (zero = disabled).
/// Result caches consult this: a memoized replay would silently drop the
/// trace the original run produced, so caching is bypassed while tracing.
#[must_use]
pub fn trace_capacity() -> usize {
    TRACE_CAP.load(Ordering::Relaxed)
}

/// Drains every trace recorded since the last call, in run-completion
/// order.
#[must_use]
pub fn take_traces() -> Vec<TraceRun> {
    std::mem::take(&mut *TRACE_SINK.lock().expect("trace sink lock"))
}

/// Everything one simulated job produces beyond its verdict: the run
/// statistics, the per-run issue-path cache counters, and (when the
/// caller asked for one) the run's own trace — owned by the caller, not
/// deposited in the process-global sink. The serve daemon's shard
/// workers rely on this ownership: concurrent jobs must never interleave
/// their artifacts through shared process state.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// The run's statistics (bit-identical across backends).
    pub stats: RunStats,
    /// This run's issue-path cache counters (decode and block caches).
    pub speed: SpeedStats,
    /// The run's trace, if `trace_capacity > 0` was requested.
    pub trace: Option<TraceRun>,
}

/// Deposits a finished run's trace, if it has one, in the process-wide
/// sink that [`take_traces`] drains. [`run_program`] and
/// [`run_whole_program`] pass every trace through here; callers of
/// [`run_program_traced`] that trace at [`trace_capacity`] do the same.
pub fn sink_trace(trace: Option<TraceRun>) {
    if let Some(run) = trace {
        TRACE_SINK.lock().expect("trace sink lock").push(run);
    }
}

/// Runs a loaded `sys` to completion on the engine `config` selects,
/// tracing into per-component rings of `trace_capacity` events when that
/// is nonzero, and returns the run's statistics and trace.
fn run_loaded(
    sys: &mut System,
    which: &'static str,
    config: &RunConfig,
    trace_capacity: usize,
) -> Result<(RunStats, Option<TraceRun>), HarnessError> {
    if trace_capacity > 0 {
        sys.enable_trace(trace_capacity);
    }
    let run = if config.stepped {
        sys.run_stepped(config.max_cycles)
    } else {
        match backend_override().unwrap_or(config.backend) {
            Backend::Interpreted => sys.run(config.max_cycles),
            Backend::Compiled => sys.run_compiled(config.max_cycles),
        }
    };
    let stats = run.map_err(|source| HarnessError::Run { which, source })?;
    debug_assert!(
        stats.cycle_account().balanced(),
        "{which}: attribution buckets do not sum to the run's {} cycles",
        stats.cycles
    );
    let trace = sys
        .take_trace()
        .map(|(events, dropped)| TraceRun { label: which.to_string(), events, dropped });
    Ok((stats, trace))
}

/// Runs one already-compiled program and verifies its outputs, returning
/// every artifact to the caller ([`RunArtifacts`]).
///
/// `trace_capacity > 0` enables event tracing into per-component ring
/// buffers of that many events; the merged trace comes back in the
/// artifacts instead of the process-global sink, so concurrent callers
/// each own exactly their job's events. Debug builds check every run
/// against the attribution identity `sum(buckets) == cycles`.
///
/// # Errors
///
/// Fails on core faults, timeouts, invalid configurations, or output
/// mismatches.
pub fn run_program_traced(
    which: &'static str,
    program: &Program,
    args: &[u64],
    init: &[(u64, Vec<u64>)],
    expected: &[(u64, Vec<u64>)],
    config: &RunConfig,
    trace_capacity: usize,
) -> Result<RunArtifacts, HarnessError> {
    let mut sys =
        System::try_new(config.system.clone()).map_err(|source| HarnessError::Run { which, source })?;
    sys.load_program(program)
        .map_err(|source| HarnessError::Run { which, source })?;
    for (addr, words) in init {
        sys.memory_mut().write_u64_slice(*addr, words);
    }
    sys.try_set_args(args).map_err(|source| HarnessError::Run { which, source })?;
    let (stats, trace) = run_loaded(&mut sys, which, config, trace_capacity)?;
    verify_expected(&sys, expected, which)?;
    Ok(RunArtifacts { stats, speed: sys.speed_stats(), trace })
}

/// Runs one already-compiled program (IR not required — manual DySER
/// implementations use this too) and verifies its outputs.
///
/// Tracing follows the process-wide capacity ([`set_trace_capacity`]);
/// any recorded trace lands in the global sink for [`take_traces`]. Use
/// [`run_program_traced`] to own the artifacts per call instead.
///
/// # Errors
///
/// Fails on core faults, timeouts, or output mismatches.
pub fn run_program(
    which: &'static str,
    program: &Program,
    args: &[u64],
    init: &[(u64, Vec<u64>)],
    expected: &[(u64, Vec<u64>)],
    config: &RunConfig,
) -> Result<RunStats, HarnessError> {
    let artifacts =
        run_program_traced(which, program, args, init, expected, config, trace_capacity())?;
    sink_trace(artifacts.trace);
    Ok(artifacts.stats)
}

/// One compile-cache entry. Its lock is held while the key compiles, so
/// a caller racing on the same key waits for that result instead of
/// compiling it again.
type CompileSlot = Arc<Mutex<Option<Arc<CompiledProgram>>>>;

/// Process-global cache of compiled programs.
///
/// Experiment sweeps compile the same `(kernel, options)` pair dozens of
/// times — every experiment rebuilds the suite from scratch. Compilation
/// is deterministic, so the result can be shared: the cache key is the
/// exhaustive `Debug` rendering of both inputs (structural equality by
/// construction, no `Hash`/`Eq` impls required on compiler types).
#[derive(Default)]
struct CompileCache {
    slots: Mutex<HashMap<String, CompileSlot>>,
    /// Compilations run (see [`compile_cache_misses`]).
    misses: AtomicU64,
}

static COMPILE_CACHE: OnceLock<CompileCache> = OnceLock::new();

/// Compiles `function` under `options`, memoising the result for the
/// lifetime of the process.
///
/// Each key compiles at most once at a time: the map lock is held only to
/// find the key's slot, and the slot's lock while compiling, so parallel
/// workers compile *different* kernels concurrently while a worker racing
/// on the same key waits and shares the first result. A poisoned slot
/// (a compile that panicked) is recovered and compiled afresh.
///
/// # Errors
///
/// Propagates [`CompileError`]; failures are not cached, so the next
/// call for the key compiles again.
pub fn compile_cached(
    function: &Function,
    options: &CompilerOptions,
) -> Result<Arc<CompiledProgram>, CompileError> {
    let key = format!("{function:?}\u{1f}{options:?}");
    let cache = COMPILE_CACHE.get_or_init(CompileCache::default);
    // Recovering either lock from poison is sound: the map only ever
    // gains empty slots, and a slot holds `None` or a finished program.
    let slot = Arc::clone(
        cache.slots.lock().unwrap_or_else(PoisonError::into_inner).entry(key).or_default(),
    );
    let mut entry = slot.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(hit) = entry.as_ref() {
        return Ok(Arc::clone(hit));
    }
    cache.misses.fetch_add(1, Ordering::Relaxed);
    let compiled = Arc::new(compile(function, options)?);
    *entry = Some(Arc::clone(&compiled));
    Ok(compiled)
}

/// How many compilations [`compile_cached`] has run in this process: one
/// per key it compiled, plus one per failed attempt.
#[must_use]
pub fn compile_cache_misses() -> u64 {
    COMPILE_CACHE.get().map_or(0, |c| c.misses.load(Ordering::Relaxed))
}

/// Compiles `case` and runs it both ways, returning the compiled program
/// and each leg's caller-owned [`RunArtifacts`], baseline first.
///
/// The baseline leg runs first, then the DySER leg, both on the calling
/// thread and each traced at `trace_capacity` ([`run_program_traced`]):
/// callers that want parallelism fan whole jobs out through
/// [`run_kernels`] / [`parallel_map`], whose workers would only be
/// oversubscribed by a second thread per job. A baseline error is
/// reported before the DySER leg runs.
///
/// # Errors
///
/// Fails on compile errors, run faults, or verification mismatches —
/// a mismatch is a simulator or compiler bug, never tolerated.
pub fn run_kernel_traced(
    case: &KernelCase,
    config: &RunConfig,
    trace_capacity: usize,
) -> Result<(Arc<CompiledProgram>, [RunArtifacts; 2]), HarnessError> {
    let compiled = compile_cached(&case.function, &config.compiler)?;
    let leg = |which, program| {
        let (args, init, expected) = (&case.args, &case.init, &case.expected);
        run_program_traced(which, program, args, init, expected, config, trace_capacity)
    };
    let legs = [leg("baseline", &compiled.baseline)?, leg("dyser", &compiled.accelerated)?];
    Ok((compiled, legs))
}

/// Compiles and runs `case` both ways ([`run_kernel_traced`]); verifies
/// both runs. Tracing follows the process-wide capacity and both traces
/// land in the sink, like [`run_program`].
///
/// # Errors
///
/// As [`run_kernel_traced`].
pub fn run_kernel(case: &KernelCase, config: &RunConfig) -> Result<KernelResult, HarnessError> {
    let (compiled, [base, dyser]) = run_kernel_traced(case, config, trace_capacity())?;
    sink_trace(base.trace);
    sink_trace(dyser.trace);
    let CompiledProgram { baseline, accelerated, regions, accelerated_any, .. } = &*compiled;
    Ok(KernelResult {
        name: case.name.clone(),
        speedup: base.stats.cycles as f64 / dyser.stats.cycles.max(1) as f64,
        accelerated_any: *accelerated_any,
        regions: regions.clone(),
        code_sizes: (baseline.len(), accelerated.len()),
        baseline: base.stats,
        dyser: dyser.stats,
    })
}

/// One queued kernel experiment: the case plus the configuration to run
/// it under.
pub type KernelJob = (KernelCase, RunConfig);

/// Worker count for [`run_kernels`]: the host's available parallelism.
#[must_use]
pub fn default_workers() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Maps `f` over `items` on `threads` scoped worker threads.
///
/// Workers claim items from a shared atomic index and write each outcome
/// into the slot matching its input position, so the returned vector is
/// in item order — bit-identical to mapping serially — no matter which
/// worker finished first. `threads` is clamped to `1..=items.len()`.
/// This is the work-stealing pool behind [`run_kernels`] and the fuzz
/// campaign driver.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                *slots[i].lock().expect("result slot lock") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot lock").expect("worker filled the slot"))
        .collect()
}

/// Runs every job, fanning them across `threads` scoped worker threads
/// via [`parallel_map`]; results are in job order.
pub fn run_kernels(jobs: &[KernelJob], threads: usize) -> Vec<Result<KernelResult, HarnessError>> {
    parallel_map(jobs, threads, |(case, config)| run_kernel(case, config))
}

/// A whole emulated process: program text for both legs (hand-assembled,
/// DySER-accelerated inner regions in the `accelerated` leg), the process
/// inputs (argv, envp, stdin, initial memory), and the reference outputs
/// — captured stdout bytes and the exit code, plus optional memory
/// expectations.
#[derive(Debug, Clone)]
pub struct ProgramCase {
    /// Display name (`p1`..`p3` in the experiment suite).
    pub name: String,
    /// Scalar-baseline program.
    pub baseline: Program,
    /// DySER-accelerated program.
    pub accelerated: Program,
    /// Process arguments (argv\[0\] included).
    pub argv: Vec<String>,
    /// Process environment strings (`KEY=value`).
    pub envp: Vec<String>,
    /// Bytes served to `read` on fd 0.
    pub stdin: Vec<u8>,
    /// Initial memory contents: `(address, words)`.
    pub init: Vec<(u64, Vec<u64>)>,
    /// Expected memory after the run: `(address, words)`.
    pub expected: Vec<(u64, Vec<u64>)>,
    /// Reference stdout, compared byte-for-byte.
    pub expected_stdout: Vec<u8>,
    /// Reference exit code.
    pub expected_exit: u64,
}

/// Everything one whole-program run produces: the (backend-bit-identical)
/// run statistics and the process outputs.
#[derive(Debug, Clone)]
pub struct ProgramRun {
    /// The run's statistics.
    pub stats: RunStats,
    /// Captured stdout bytes.
    pub stdout: Vec<u8>,
    /// Captured stderr bytes.
    pub stderr: Vec<u8>,
    /// The `exit` syscall's code (0 if the program halted without one).
    pub exit_code: u64,
}

/// Runs one leg of a [`ProgramCase`] as an emulated process — startup
/// stack, proxy kernel, trap-and-emulate syscalls — and verifies its
/// memory, stdout, and exit code against the references.
///
/// The backend and tracing follow `config` and the process-wide capacity
/// exactly like [`run_program`], and the trace lands in the same sink.
///
/// # Errors
///
/// Fails on core faults, timeouts, unknown syscalls, or any output
/// mismatch (memory, stdout, or exit code).
pub fn run_whole_program(
    which: &'static str,
    program: &Program,
    case: &ProgramCase,
    config: &RunConfig,
) -> Result<ProgramRun, HarnessError> {
    let as_run = |source| HarnessError::Run { which, source };
    let mut sys = System::try_new(config.system.clone()).map_err(as_run)?;
    sys.load_program(program).map_err(as_run)?;
    for (addr, words) in &case.init {
        sys.memory_mut().write_u64_slice(*addr, words);
    }
    let argv: Vec<&str> = case.argv.iter().map(String::as_str).collect();
    let envp: Vec<&str> = case.envp.iter().map(String::as_str).collect();
    sys.setup_process(&argv, &envp, &case.stdin);
    let (stats, trace) = run_loaded(&mut sys, which, config, trace_capacity())?;
    verify_expected(&sys, &case.expected, which)?;
    let got_exit = sys.kernel().exit_code().unwrap_or(0);
    if got_exit != case.expected_exit {
        return Err(HarnessError::ExitMismatch {
            which,
            expected: case.expected_exit,
            got: got_exit,
        });
    }
    if sys.kernel().stdout() != case.expected_stdout.as_slice() {
        return Err(HarnessError::StdoutMismatch {
            which,
            expected: case.expected_stdout.clone(),
            got: sys.kernel().stdout().to_vec(),
        });
    }
    sink_trace(trace);
    Ok(ProgramRun {
        stats,
        stdout: sys.kernel().stdout().to_vec(),
        stderr: sys.kernel().stderr().to_vec(),
        exit_code: got_exit,
    })
}

/// Runs both legs of a [`ProgramCase`], baseline then DySER on the
/// calling thread like [`run_kernel`], and reports the comparison in the
/// same [`KernelResult`] shape the experiment tables consume.
///
/// # Errors
///
/// Baseline errors take priority: the DySER leg runs only after the
/// baseline leg verified.
pub fn run_program_case(
    case: &ProgramCase,
    config: &RunConfig,
) -> Result<KernelResult, HarnessError> {
    let base = run_whole_program("baseline", &case.baseline, case, config)?;
    let dyser = run_whole_program("dyser", &case.accelerated, case, config)?;
    let speedup = base.stats.cycles as f64 / dyser.stats.cycles.max(1) as f64;
    Ok(KernelResult {
        name: case.name.clone(),
        speedup,
        accelerated_any: true,
        regions: Vec::new(),
        code_sizes: (case.baseline.len(), case.accelerated.len()),
        baseline: base.stats,
        dyser: dyser.stats,
    })
}

/// Checks every expected output buffer against the system's memory,
/// mirroring the verification in [`run_program_traced`].
fn verify_expected(
    sys: &System,
    expected: &[(u64, Vec<u64>)],
    which: &'static str,
) -> Result<(), HarnessError> {
    for (addr, words) in expected {
        for (i, want) in words.iter().enumerate() {
            let a = addr + 8 * i as u64;
            let got = sys.memory().read_u64(a);
            if got != *want {
                return Err(HarnessError::Mismatch { which, addr: a, expected: *want, got });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyser_compiler::{BinOp, CmpOp, FunctionBuilder, Type};

    /// c[i] = (a[i] + b[i]) * a[i] over f64, n elements.
    fn case(n: usize) -> KernelCase {
        let mut b = FunctionBuilder::new(
            "fma_ish",
            &[("a", Type::Ptr), ("b", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64)],
        );
        let (a, bb, c, nn) = (b.param(0), b.param(1), b.param(2), b.param(3));
        let zero = b.const_i(0);
        let one = b.const_i(1);
        let body = b.block("body");
        let exit = b.block("exit");
        let entry = b.current();
        b.br(body);
        b.switch_to(body);
        let i = b.phi(Type::I64);
        let pa = b.gep(a, i, 8);
        let pb = b.gep(bb, i, 8);
        let va = b.load(pa, Type::F64);
        let vb = b.load(pb, Type::F64);
        let sum = b.bin(BinOp::Fadd, va, vb);
        let prod = b.bin(BinOp::Fmul, sum, va);
        let pc = b.gep(c, i, 8);
        b.store(prod, pc);
        let i2 = b.bin(BinOp::Add, i, one);
        b.add_incoming(i, entry, zero);
        b.add_incoming(i, body, i2);
        let cond = b.cmp(CmpOp::Slt, i2, nn);
        b.cond_br(cond, body, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.build().unwrap();

        let (pa, pb, pc) = (0x20_0000u64, 0x30_0000u64, 0x40_0000u64);
        let av: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 + 1.0).collect();
        let bv: Vec<f64> = (0..n).map(|i| (i as f64) * -0.25 + 2.0).collect();
        let cv: Vec<u64> =
            av.iter().zip(&bv).map(|(x, y)| ((x + y) * x).to_bits()).collect();
        KernelCase {
            name: "fma_ish".into(),
            function: f,
            args: vec![pa, pb, pc, n as u64],
            init: vec![
                (pa, av.iter().map(|x| x.to_bits()).collect()),
                (pb, bv.iter().map(|x| x.to_bits()).collect()),
            ],
            expected: vec![(pc, cv)],
        }
    }

    #[test]
    fn baseline_and_dyser_both_verify() {
        let result = run_kernel(&case(37), &RunConfig::default()).expect("kernel verifies");
        assert!(result.accelerated_any, "{:?}", result.regions);
        assert!(result.baseline.cycles > 0);
        assert!(result.dyser.cycles > 0);
        assert!(
            result.speedup > 1.0,
            "fp kernel should speed up, got {:.2} (base {} vs dyser {})",
            result.speedup,
            result.baseline.cycles,
            result.dyser.cycles
        );
        // A 2-op kernel trades its compute instructions for interface
        // instructions roughly one-for-one; large reductions show up on
        // compute-heavy kernels (experiment E5).
        assert!(
            result.instr_reduction() > -0.5,
            "interface overhead out of bounds: {:.2}",
            result.instr_reduction()
        );
        assert!(result.dyser.fabric.fu_fires() > 0);
        assert_eq!(result.baseline.fabric.fu_fires(), 0);
    }

    #[test]
    fn odd_and_even_trip_counts_verify() {
        // Exercises the unroll epilogue paths end to end.
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 31] {
            let r = run_kernel(&case(n), &RunConfig::default())
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert!(r.baseline.halted && r.dyser.halted);
        }
    }

    #[test]
    fn no_unroll_still_verifies() {
        let mut rc = RunConfig::default();
        rc.compiler.unroll_factor = 1;
        let r = run_kernel(&case(23), &rc).unwrap();
        assert!(r.accelerated_any);
    }

    #[test]
    fn lag_disabled_still_verifies() {
        let mut rc = RunConfig::default();
        rc.compiler.codegen.lag_stores = false;
        let r = run_kernel(&case(23), &rc).unwrap();
        assert!(r.accelerated_any);
    }
}
