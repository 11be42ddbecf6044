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
use dyser_isa::InstrClass;
use dyser_mem::MemConfig;
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
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
    /// Execution engine for non-stepped runs.
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

/// Everything one simulated job produces beyond its verdict: the run
/// statistics, the per-run issue-path cache counters, and (when the
/// caller asked for one) the run's own trace, all owned by the caller, so
/// concurrent jobs never interleave their artifacts.
#[derive(Debug, Clone)]
pub struct RunArtifacts {
    /// The run's statistics (bit-identical across backends).
    pub stats: RunStats,
    /// This run's issue-path cache counters (decode and block caches).
    pub speed: SpeedStats,
    /// The run's trace, if `trace_capacity > 0` was requested.
    pub trace: Option<TraceRun>,
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
        match config.backend {
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
/// artifacts. Debug builds check every run against the attribution
/// identity `sum(buckets) == cycles`.
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
/// implementations use this too) and verifies its outputs, untraced
/// ([`run_program_traced`] returns a trace too).
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
    run_program_traced(which, program, args, init, expected, config, 0).map(|run| run.stats)
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

/// The one process-wide static of the workspace. Sharing it cannot
/// change a result, and every caller of [`compile_cached`] (the serve
/// shards, DSE sweeps, perfbench's warm-up) gains from it, so it stays
/// process state rather than a field of a session.
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

/// Compiles `case` and runs it both ways, returning the
/// [`KernelResult`] and each leg's caller-owned [`RunArtifacts`],
/// baseline first.
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
) -> Result<(KernelResult, [RunArtifacts; 2]), HarnessError> {
    let mut legs = Vec::with_capacity(2);
    let result = run_kernel_with(case, config, |which, program| {
        let (args, init, expected) = (&case.args, &case.init, &case.expected);
        let leg = run_program_traced(which, program, args, init, expected, config, trace_capacity)?;
        let stats = leg.stats.clone();
        legs.push(leg);
        Ok(stats)
    })?;
    Ok((result, legs.try_into().expect("run_kernel_with runs two legs")))
}

/// Compiles and runs `case` both ways, baseline first, on the calling
/// thread; verifies both runs. Each leg is an untraced [`run_program`]
/// call.
///
/// # Errors
///
/// As [`run_kernel_traced`].
pub fn run_kernel(case: &KernelCase, config: &RunConfig) -> Result<KernelResult, HarnessError> {
    run_kernel_with(case, config, |which, program| {
        run_program(which, program, &case.args, &case.init, &case.expected, config)
    })
}

/// Compiles `case`, runs its baseline leg and then its DySER leg through
/// `leg`, and assembles the [`KernelResult`]: the code [`run_kernel`],
/// [`run_kernel_traced`] and [`LegMemo::run_kernel`] share.
fn run_kernel_with(
    case: &KernelCase,
    config: &RunConfig,
    mut leg: impl FnMut(&'static str, &Program) -> Result<RunStats, HarnessError>,
) -> Result<KernelResult, HarnessError> {
    let compiled = compile_cached(&case.function, &config.compiler)?;
    let CompiledProgram { baseline, accelerated, regions, accelerated_any, .. } = &*compiled;
    let base = leg("baseline", baseline)?;
    let dyser = leg("dyser", accelerated)?;
    Ok(KernelResult {
        name: case.name.clone(),
        speedup: base.cycles as f64 / dyser.cycles.max(1) as f64,
        accelerated_any: *accelerated_any,
        regions: regions.clone(),
        code_sizes: (baseline.len(), accelerated.len()),
        baseline: base,
        dyser,
    })
}

/// Whether `program` can never touch the fabric: it loads no fabric
/// configuration and no word of its code decodes to a DySER-class
/// instruction. Such a leg runs the same on every geometry, FU mix and
/// FIFO depth.
fn is_scalar(program: &Program) -> bool {
    program.configs.is_empty()
        && program
            .code
            .iter()
            .all(|&word| dyser_isa::decode(word).is_ok_and(|i| i.class() != InstrClass::Dyser))
}

/// Everything a scalar leg's run reads. Fabric geometry, FU kinds and
/// FIFO depth are absent on purpose (see [`is_scalar`]); whether a
/// fabric is attached stays, since an attached fabric counts its idle
/// ticks.
#[derive(PartialEq, Eq, Hash)]
struct LegKey {
    code: Vec<u32>,
    entry: u64,
    pool: Vec<u64>,
    args: Vec<u64>,
    init: Vec<(u64, Vec<u64>)>,
    expected: Vec<(u64, Vec<u64>)>,
    mem: MemConfig,
    has_fabric: bool,
    max_cycles: u64,
    stepped: bool,
    engine: Backend,
}

/// One leg-memo entry; its lock is held while the leg simulates, like a
/// [`compile_cached`] slot.
type LegSlot = Arc<Mutex<Option<RunStats>>>;

/// A memo of scalar legs for one sweep: each distinct scalar leg
/// simulates once and is replayed for every other fabric geometry, FU
/// mix and FIFO depth.
///
/// [`LegMemo::run_kernel`] behaves like [`run_kernel`], so it never
/// traces. A leg is memoised when its program is scalar (no fabric
/// configuration, no DySER-class instruction). It is keyed on
/// everything else its run reads: the program's code, entry and pool,
/// the case's args, init and expected outputs, the memory hierarchy,
/// whether a fabric is attached, the cycle cap, and the engine. Only
/// verified runs are stored, so a hit replays stats that already passed
/// verification against the same expected outputs. Legs that use the
/// fabric always simulate.
///
/// The memo is a value, not process state: its scope is whatever owns
/// it (`run_dse` makes one per sweep), so runs outside that scope still
/// simulate every leg.
#[derive(Default)]
pub struct LegMemo {
    slots: Mutex<HashMap<LegKey, LegSlot>>,
}

impl LegMemo {
    /// Compiles and runs `case` both ways like [`run_kernel`], replaying
    /// each scalar leg this memo has already verified.
    ///
    /// # Errors
    ///
    /// As [`run_kernel`]; failed legs are not stored, so the next call
    /// with the same key runs again.
    pub fn run_kernel(
        &self,
        case: &KernelCase,
        config: &RunConfig,
    ) -> Result<KernelResult, HarnessError> {
        run_kernel_with(case, config, |which, program| self.leg(which, program, case, config))
    }

    /// How many verified scalar legs the memo holds.
    #[cfg(test)]
    fn stored_legs(&self) -> usize {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots
            .values()
            .filter(|slot| slot.lock().unwrap_or_else(PoisonError::into_inner).is_some())
            .count()
    }

    fn leg(
        &self,
        which: &'static str,
        program: &Program,
        case: &KernelCase,
        config: &RunConfig,
    ) -> Result<RunStats, HarnessError> {
        let run = || run_program(which, program, &case.args, &case.init, &case.expected, config);
        if !is_scalar(program) {
            return run();
        }
        let key = LegKey {
            code: program.code.clone(),
            entry: program.entry,
            pool: program.pool.clone(),
            args: case.args.clone(),
            init: case.init.clone(),
            expected: case.expected.clone(),
            mem: config.system.mem,
            has_fabric: config.system.has_fabric,
            max_cycles: config.max_cycles,
            stepped: config.stepped,
            engine: config.backend,
        };
        // Recovering from poison is sound for the same reason as in
        // `compile_cached`: a slot holds `None` or verified stats.
        let slot = Arc::clone(
            self.slots.lock().unwrap_or_else(PoisonError::into_inner).entry(key).or_default(),
        );
        let mut entry = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = entry.as_ref() {
            return Ok(hit.clone());
        }
        let stats = run()?;
        *entry = Some(stats.clone());
        Ok(stats)
    }
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
    /// The run's trace, if `trace_capacity > 0` was requested.
    pub trace: Option<TraceRun>,
}

/// Runs one leg of a [`ProgramCase`] as an emulated process — startup
/// stack, proxy kernel, trap-and-emulate syscalls — and verifies its
/// memory, stdout, and exit code against the references.
///
/// The engine follows `config`, and tracing follows `trace_capacity`,
/// exactly like [`run_program_traced`].
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
    trace_capacity: usize,
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
    let (stats, trace) = run_loaded(&mut sys, which, config, trace_capacity)?;
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
    Ok(ProgramRun {
        stats,
        stdout: sys.kernel().stdout().to_vec(),
        stderr: sys.kernel().stderr().to_vec(),
        exit_code: got_exit,
        trace,
    })
}

/// Runs both legs of a [`ProgramCase`], baseline then DySER on the
/// calling thread like [`run_kernel`], untraced, and reports the
/// comparison in the same [`KernelResult`] shape the experiment tables
/// consume.
///
/// # Errors
///
/// As [`run_program_case_traced`].
pub fn run_program_case(
    case: &ProgramCase,
    config: &RunConfig,
) -> Result<KernelResult, HarnessError> {
    run_program_case_traced(case, config, 0).map(|(result, _)| result)
}

/// [`run_program_case`] that also returns each leg's [`ProgramRun`],
/// baseline first, each traced at `trace_capacity`.
///
/// # Errors
///
/// Baseline errors take priority: the DySER leg runs only after the
/// baseline leg verified.
pub fn run_program_case_traced(
    case: &ProgramCase,
    config: &RunConfig,
    trace_capacity: usize,
) -> Result<(KernelResult, [ProgramRun; 2]), HarnessError> {
    let base = run_whole_program("baseline", &case.baseline, case, config, trace_capacity)?;
    let dyser = run_whole_program("dyser", &case.accelerated, case, config, trace_capacity)?;
    let result = KernelResult {
        name: case.name.clone(),
        speedup: base.stats.cycles as f64 / dyser.stats.cycles.max(1) as f64,
        accelerated_any: true,
        regions: Vec::new(),
        code_sizes: (case.baseline.len(), case.accelerated.len()),
        baseline: base.stats.clone(),
        dyser: dyser.stats.clone(),
    };
    Ok((result, [base, dyser]))
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

    /// A run configuration for `rows x cols`, with a universal grid when
    /// `universal` is set, and the given FIFO depth.
    fn fabric(rows: usize, cols: usize, universal: bool, fifo_depth: usize) -> RunConfig {
        let mut rc = RunConfig::default();
        rc.set_geometry(dyser_fabric::FabricGeometry::new(rows, cols));
        if universal {
            rc.set_universal_fus();
        }
        rc.system.fifo_depth = fifo_depth;
        rc
    }

    /// Every word of `case`'s buffers and `program`'s code and pool.
    fn memory_image(sys: &System, program: &Program, case: &KernelCase) -> Vec<u64> {
        let mut regions: Vec<(u64, usize)> = vec![
            (program.entry, program.code.len().div_ceil(2)),
            (dyser_compiler::POOL_BASE, program.pool.len()),
        ];
        regions.extend(case.init.iter().chain(&case.expected).map(|(a, w)| (*a, w.len())));
        let mut image = vec![sys.memory().resident_pages() as u64];
        for (addr, words) in regions {
            image.extend(sys.memory().read_u64_slice(addr, words));
        }
        image
    }

    #[test]
    fn scalar_program_runs_the_same_on_every_fabric() {
        let case = case(29);
        let compiled = compile_cached(&case.function, &RunConfig::default().compiler).unwrap();
        let program = &compiled.baseline;
        assert!(is_scalar(program) && !is_scalar(&compiled.accelerated));
        let runs: Vec<(RunStats, Vec<u64>)> =
            [fabric(8, 8, false, 4), fabric(2, 6, true, 1), fabric(16, 3, false, 8)]
                .iter()
                .map(|rc| {
                    let mut sys = System::new(rc.system.clone());
                    sys.load_program(program).unwrap();
                    for (addr, words) in &case.init {
                        sys.memory_mut().write_u64_slice(*addr, words);
                    }
                    sys.set_args(&case.args);
                    let stats = sys.run(rc.max_cycles).unwrap();
                    (stats, memory_image(&sys, program, &case))
                })
                .collect();
        assert!(runs[0].0.fabric.cycles > 0, "an attached fabric ticks");
        for run in &runs[1..] {
            assert_eq!(run.0, runs[0].0, "stats differ across fabrics");
            assert_eq!(run.1, runs[0].1, "memory images differ across fabrics");
        }
    }

    #[test]
    fn memo_hits_equal_fresh_runs_for_every_key_class() {
        let case = case(31);
        let check = |memo: &LegMemo, rc: &RunConfig| {
            let fresh = run_kernel(&case, rc).unwrap();
            let replayed = memo.run_kernel(&case, rc).unwrap();
            assert_eq!(replayed.baseline, fresh.baseline, "baseline leg");
            assert_eq!(replayed.dyser, fresh.dyser, "dyser leg");
            assert_eq!(replayed.speedup.to_bits(), fresh.speedup.to_bits());
            fresh
        };

        // The scalar baseline leg simulates once, then replays on every
        // geometry, FU mix and FIFO depth. The DySER legs map regions,
        // use the fabric, and are never stored.
        let memo = LegMemo::default();
        for rc in [fabric(8, 8, false, 4), fabric(4, 4, true, 1), fabric(6, 8, false, 8)] {
            assert!(check(&memo, &rc).accelerated_any);
            assert_eq!(memo.stored_legs(), 1);
        }
        let again = check(&memo, &fabric(8, 8, false, 4));
        assert!(again.dyser.fabric.fu_fires() > 0, "the fabric leg simulated");
        assert_eq!(memo.stored_legs(), 1, "fabric legs are never stored");

        // A DySER leg that maps no region is the scalar program: it hits
        // the baseline leg's key.
        let memo = LegMemo::default();
        let mut unmapped = fabric(4, 4, false, 2);
        unmapped.compiler.region.min_compute_ops = usize::MAX;
        assert!(!check(&memo, &unmapped).accelerated_any);
        assert_eq!(memo.stored_legs(), 1, "both legs share one key");

        // The memory hierarchy is part of the key.
        unmapped.system.mem = dyser_mem::MemConfig::tiny();
        check(&memo, &unmapped);
        assert_eq!(memo.stored_legs(), 2);

        // A failed leg is not stored, so it fails again.
        let memo = LegMemo::default();
        let mut starved = fabric(8, 8, false, 4);
        starved.max_cycles = 10;
        for _ in 0..2 {
            let err = memo.run_kernel(&case, &starved).unwrap_err();
            assert!(matches!(err, HarnessError::Run { which: "baseline", .. }), "{err}");
        }
        assert_eq!(memo.stored_legs(), 0);
    }
}
