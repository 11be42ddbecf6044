//! The integrated SPARC-DySER machine.

use std::fmt;

use dyser_compiled::{run_block, BlockCache, BlockCacheStats};
use dyser_compiler::Program;
use dyser_fabric::{ConfigError, Fabric, FabricConfig, FabricConfigError, FabricGeometry, FuKind};
use dyser_mem::{Hierarchy, MemConfig, MemStats, Memory};
use dyser_sparc::bus::{read_sized, write_sized};
use dyser_sparc::coproc::CoprocError;
use dyser_sparc::syscall::{write_startup_stack, SysOutcome, SyscallHandler};
use dyser_sparc::{Bus, Coproc, CoreError, CoreStats, CycleAccount, Pipeline, ProxyKernel};
use dyser_trace::TraceEvent;

/// Base of the process-startup image (argc/argv/envp) that
/// [`System::setup_process`] writes — above the workloads' data buffers,
/// below the heap.
pub const STACK_BASE: u64 = 0x60_0000;

/// Initial program break of an emulated process: `brk` grows the heap
/// upward from here.
pub const HEAP_BASE: u64 = 0x70_0000;

/// Configuration of a whole system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Fabric geometry.
    pub geometry: FabricGeometry,
    /// Per-site fabric kinds (row-major); `None` = default pattern.
    pub kinds: Option<Vec<FuKind>>,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// Port FIFO depth.
    pub fifo_depth: usize,
    /// Whether a fabric is attached at all (the pure-baseline system of
    /// experiment E10 sets this to `false`).
    pub has_fabric: bool,
}

impl SystemConfig {
    /// Validates the hardware description without building a system.
    ///
    /// # Errors
    ///
    /// Returns the [`FabricConfigError`] a fabric constructor would
    /// report: a kinds vector that does not match the grid, or a zero
    /// FIFO depth.
    pub fn validate(&self) -> Result<(), FabricConfigError> {
        if let Some(kinds) = &self.kinds {
            if kinds.len() != self.geometry.fu_count() {
                return Err(FabricConfigError::KindCountMismatch {
                    expected: self.geometry.fu_count(),
                    got: kinds.len(),
                });
            }
        }
        if self.has_fabric && self.fifo_depth == 0 {
            return Err(FabricConfigError::ZeroFifoDepth);
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            geometry: FabricGeometry::new(8, 8),
            kinds: None,
            mem: MemConfig::default(),
            fifo_depth: 4,
            has_fabric: true,
        }
    }
}

/// Aggregated run statistics.
///
/// `PartialEq` compares every counter bit-for-bit — the form the
/// fast-forward equivalence tests use to assert that bulk cycle advance
/// (see [`System::run`]) changes nothing observable.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Total cycles.
    pub cycles: u64,
    /// Core statistics (instruction mix, stall breakdown).
    pub core: CoreStats,
    /// Memory statistics.
    pub mem: MemStats,
    /// Fabric statistics.
    pub fabric: dyser_fabric::FabricStats,
    /// Whether the program executed `halt`.
    pub halted: bool,
    /// Memory-latency cycles still queued but unpaid when the run ended —
    /// nonzero only when the core halts with a fetch or data miss in
    /// flight (typically the halt instruction's own fetch miss).
    pub pending_mem_stalls: u64,
}

impl RunStats {
    /// Converts the run's counters into the energy model's activity form.
    pub fn activity(&self) -> dyser_energy::Activity {
        use dyser_isa::InstrClass as C;
        dyser_energy::Activity {
            cycles: self.cycles,
            core_int_ops: self.core.class_count(C::IntAlu),
            core_muldiv_ops: self.core.class_count(C::IntMulDiv),
            core_fp_ops: self.core.class_count(C::Fp),
            core_loads: self.core.class_count(C::Load),
            core_stores: self.core.class_count(C::Store),
            core_branches: self.core.class_count(C::Branch),
            core_dyser_ops: self.core.class_count(C::Dyser),
            core_other_ops: self.core.class_count(C::Other),
            l1_accesses: self.mem.l1i.accesses + self.mem.l1d.accesses,
            l2_accesses: self.mem.l2.accesses,
            dram_accesses: self.mem.dram_accesses,
            fabric_int_ops: self.fabric.int_fu_fires,
            fabric_fp_ops: self.fabric.fp_fu_fires,
            fabric_switch_hops: self.fabric.switch_hops + self.fabric.fanout_copies,
            fabric_port_transfers: self.fabric.port_in + self.fabric.port_out,
            fabric_config_bits: self.fabric.config_bits,
        }
    }

    /// Estimates this run's energy with the given model.
    pub fn energy(&self, model: &dyser_energy::EnergyModel) -> dyser_energy::EnergyReport {
        model.estimate(&self.activity())
    }

    /// Attributes every cycle of the run to an exclusive
    /// [`dyser_sparc::CycleBucket`], with `sum(buckets) == cycles`.
    pub fn cycle_account(&self) -> CycleAccount {
        self.core.cycle_account()
    }

    /// The memory hierarchy's own estimate of the stall cycles it caused,
    /// reconciled with the core: total access latency, minus the one base
    /// cycle each L1 access overlaps with issue, minus the latency still
    /// queued but unpaid when the run ended (`pending_mem_stalls`). With
    /// hit latencies of at least one cycle (all shipped [`MemConfig`]s),
    /// this equals the account's `MemMiss` bucket exactly — the
    /// cross-check the attribution property tests assert.
    pub fn mem_miss_stall_cycles(&self) -> u64 {
        self.mem.miss_stall_cycles().saturating_sub(self.pending_mem_stalls)
    }
}

/// Fatal system errors.
#[derive(Debug, Clone)]
pub enum SysError {
    /// The core faulted.
    Core(CoreError),
    /// A configuration in the program's table failed to load at start-up
    /// validation.
    Config(ConfigError),
    /// The [`SystemConfig`] describes impossible hardware.
    InvalidConfig(FabricConfigError),
    /// The cycle budget elapsed without `halt`.
    Timeout {
        /// Cycles executed.
        cycles: u64,
    },
    /// The program trapped with a syscall number outside the emulated
    /// ABI — a typed error, never a panic. The core is left halted.
    UnknownSyscall {
        /// The trap number.
        code: u16,
    },
    /// More arguments were passed than fit in `%o0..%o5`.
    TooManyArgs {
        /// The number of arguments passed.
        count: usize,
    },
}

impl fmt::Display for SysError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SysError::Core(e) => write!(f, "core fault: {e}"),
            SysError::Config(e) => write!(f, "configuration error: {e}"),
            SysError::InvalidConfig(e) => write!(f, "invalid system configuration: {e}"),
            SysError::Timeout { cycles } => write!(f, "no halt after {cycles} cycles"),
            SysError::UnknownSyscall { code } => write!(f, "unknown syscall number {code}"),
            SysError::TooManyArgs { count } => {
                write!(f, "{count} arguments passed, but at most six fit in %o0..%o5")
            }
        }
    }
}

impl std::error::Error for SysError {}

impl From<CoreError> for SysError {
    fn from(e: CoreError) -> Self {
        SysError::Core(e)
    }
}

/// The memory side of the system (functional store + timing hierarchy).
#[derive(Debug)]
struct SysBus {
    memory: Memory,
    hierarchy: Hierarchy,
}

impl Bus for SysBus {
    fn fetch_instr(&mut self, addr: u64) -> (u32, u64) {
        let lat = self.hierarchy.fetch(addr);
        (self.memory.read_u32(addr), lat)
    }

    fn fetch_repeat(&mut self, addr: u64) -> u64 {
        self.hierarchy.fetch_repeat(addr)
    }

    fn peek_instr(&self, addr: u64) -> u32 {
        self.memory.read_u32(addr)
    }

    fn code_page_generation(&self, addr: u64) -> u64 {
        self.memory.page_generation(addr)
    }

    fn load(&mut self, addr: u64, bytes: u64, signed: bool) -> (u64, u64) {
        let lat = self.hierarchy.load(addr);
        (read_sized(&self.memory, addr, bytes, signed), lat)
    }

    fn store(&mut self, addr: u64, bytes: u64, value: u64) -> u64 {
        let lat = self.hierarchy.store(addr);
        write_sized(&mut self.memory, addr, bytes, value);
        lat
    }
}

/// Entries the configuration cache can hold (the prototype keeps recently
/// used configurations close to the fabric for fast switching).
const CONFIG_CACHE_WAYS: usize = 4;

/// How much faster a cached configuration restores compared to streaming
/// the full frame over the configuration bus.
const CONFIG_CACHE_SPEEDUP: u64 = 4;

/// The accelerator side of the system.
#[derive(Debug)]
struct SysCoproc {
    fabric: Option<Fabric>,
    configs: Vec<FabricConfig>,
    /// Index of the currently loaded configuration.
    active: Option<usize>,
    /// LRU list of recently loaded configuration ids (most recent last).
    cache: Vec<usize>,
}

impl Coproc for SysCoproc {
    fn cp_send(&mut self, port: usize, value: u64) -> bool {
        self.fabric.as_mut().is_some_and(|f| f.try_send(port, value))
    }

    fn cp_recv(&mut self, port: usize) -> Option<u64> {
        self.fabric.as_mut()?.try_recv(port)
    }

    fn cp_init(&mut self, config: usize) -> Result<u64, CoprocError> {
        let Some(fabric) = self.fabric.as_mut() else {
            return Err(CoprocError::NoAccelerator);
        };
        let Some(cfg) = self.configs.get(config) else {
            return Err(CoprocError::UnknownConfig { config });
        };
        if self.active == Some(config) {
            // The active configuration needs no work at all.
            return Ok(0);
        }
        fabric
            .load_config(cfg)
            .map_err(|e| CoprocError::LoadFailed { reason: e.to_string() })?;
        self.active = Some(config);
        // Configuration cache: a recently used configuration restores much
        // faster than streaming its frame over the configuration bus.
        let full = fabric.config_load_cycles(cfg);
        let hit = self.cache.contains(&config);
        self.cache.retain(|&c| c != config);
        self.cache.push(config);
        if self.cache.len() > CONFIG_CACHE_WAYS {
            self.cache.remove(0);
        }
        Ok(if hit { full.div_ceil(CONFIG_CACHE_SPEEDUP) } else { full })
    }

    fn cp_in_flight(&self) -> usize {
        self.fabric.as_ref().map_or(0, Fabric::in_flight)
    }

    fn cp_vec_in(&self, vp: usize) -> &[usize] {
        self.fabric.as_ref().map_or(&[], |f| f.vec_in_ports(vp))
    }

    fn cp_vec_out(&self, vp: usize) -> &[usize] {
        self.fabric.as_ref().map_or(&[], |f| f.vec_out_ports(vp))
    }

    fn cp_catch_up(&mut self, ticks: u64) {
        if let Some(fabric) = &mut self.fabric {
            fabric.tick_n(ticks);
        }
    }
}

/// Simulator-speed counters of the two issue-path caches. Pure
/// observability: deliberately outside [`RunStats`], whose bit-for-bit
/// equality the backends must preserve while taking different paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpeedStats {
    /// Decoded-instruction cache hits (the interpreted issue path).
    pub decode_hits: u64,
    /// Decoded-instruction cache misses.
    pub decode_misses: u64,
    /// Translated-block cache counters (the compiled issue path).
    pub blocks: BlockCacheStats,
}

/// The machine's execution state — core, memory hierarchy, accelerator,
/// proxy kernel — as a plain value owned by [`System`].
///
/// The advance methods are *slices*: each consumes up to a budget of
/// cycles and stops at halt, fault, a pending syscall, or budget
/// exhaustion, without deciding whether the run as a whole timed out.
/// The `System::run*` entry points call them in a loop, servicing a
/// syscall between slices. Because the core's bulk stall drain
/// ([`Pipeline::tick_n`]) and the fabric's bulk advance
/// ([`Fabric::tick_n`]) are both additive, an advance of `a + b` cycles
/// is bit-identical to an advance of `a` followed by an advance of `b`,
/// so where a slice ends is unobservable.
#[derive(Debug)]
struct MachineState {
    cpu: Pipeline,
    bus: SysBus,
    coproc: SysCoproc,
    /// The proxy kernel servicing `ta` traps (captured streams, program
    /// break, virtual clock).
    kernel: ProxyKernel,
}

impl MachineState {
    /// Services the core's pending syscall, if any: reads `%o0..%o5`,
    /// dispatches through the [`SyscallHandler`], and either resumes the
    /// core with the return value and the deterministic service latency,
    /// halts it (`exit`), or reports [`SysError::UnknownSyscall`].
    ///
    /// Servicing consumes no cycles itself — the latency is charged as a
    /// counted [`dyser_sparc::StallCause::Syscall`] stall the engines
    /// drain like any other — so every backend that stops at the trap
    /// boundary resumes into a bit-identical machine.
    ///
    /// Returns whether a syscall was serviced.
    fn service_syscall(&mut self) -> Result<bool, SysError> {
        let Some(code) = self.cpu.pending_syscall() else {
            return Ok(false);
        };
        let mut args = [0u64; 6];
        for (i, a) in args.iter_mut().enumerate() {
            *a = self.cpu.regs().read(dyser_isa::Reg::new(8 + i as u8));
        }
        let now = self.cpu.stats().cycles;
        match self.kernel.syscall(code, args, now, &mut self.bus.memory) {
            SysOutcome::Done { retval, stall } => {
                self.cpu.complete_syscall(retval, stall);
                Ok(true)
            }
            SysOutcome::Exit { .. } => {
                self.cpu.force_halt();
                Ok(true)
            }
            SysOutcome::Unknown => {
                self.cpu.force_halt();
                Err(SysError::UnknownSyscall { code })
            }
        }
    }

    /// Advances one cycle (core and fabric in lock step).
    fn tick(&mut self, tracing: bool) -> Result<(), SysError> {
        if self.cpu.pending_syscall().is_some() {
            // The core is frozen at a trap: the fabric must not tick
            // either, or the lockstep (and bit-identity across engines)
            // breaks. The driver services the syscall and retries.
            return Ok(());
        }
        if tracing {
            // Stamp the hierarchy with the cycle the core is about to
            // execute (the pipeline's 0-based trace timestamp).
            self.bus.hierarchy.set_now(self.cpu.stats().cycles);
        }
        self.cpu.tick(&mut self.bus, &mut self.coproc)?;
        if let Some(fabric) = &mut self.coproc.fabric {
            fabric.tick();
        }
        Ok(())
    }

    /// Advances up to `budget` cycles on the fast-forwarding interpreted
    /// path (the engine behind [`System::run`]), stopping early at halt
    /// or fault.
    fn advance_fast(&mut self, budget: u64, tracing: bool) -> Result<(), SysError> {
        let mut remaining = budget;
        while remaining > 0 && !self.cpu.halted() && self.cpu.pending_syscall().is_none() {
            let skip = if tracing { 0 } else { self.cpu.skip_horizon().min(remaining) };
            if skip > 0 {
                self.cpu.tick_n(skip);
                if let Some(fabric) = &mut self.coproc.fabric {
                    fabric.tick_n(skip);
                }
                remaining -= skip;
            } else {
                self.tick(tracing)?;
                remaining -= 1;
            }
        }
        Ok(())
    }

    /// Advances up to `budget` cycles one tick at a time (the engine
    /// behind [`System::run_stepped`]), stopping early at halt or fault.
    fn advance_stepped(&mut self, budget: u64, tracing: bool) -> Result<(), SysError> {
        for _ in 0..budget {
            if self.cpu.halted() || self.cpu.pending_syscall().is_some() {
                break;
            }
            self.tick(tracing)?;
        }
        Ok(())
    }

    /// Advances up to `budget` cycles on the compiled backend (the engine
    /// behind [`System::run_compiled`]), stopping early at halt or fault.
    ///
    /// Fabric ticks stay *deferred*: `fabric_ticks` is the running count
    /// of coprocessor ticks already paid, and the caller must
    /// [`MachineState::settle_fabric`] once it stops slicing — the
    /// deferral survives across slices, which is what makes compiled
    /// slices compose.
    fn advance_compiled(
        &mut self,
        budget: u64,
        blocks: &mut BlockCache,
        line_bytes: u64,
        fabric_ticks: &mut u64,
    ) -> Result<(), SysError> {
        let mut remaining = budget;
        loop {
            if self.cpu.halted() || remaining == 0 || self.cpu.pending_syscall().is_some() {
                break Ok(());
            }
            if self.cpu.has_pending() {
                let skip = self.cpu.skip_horizon().min(remaining);
                if skip > 0 {
                    // Counted stalls advance the core in bulk; the fabric
                    // owes the same cycles and pays at the next settle.
                    self.cpu.tick_n(skip);
                    remaining -= skip;
                } else {
                    // The front micro-state polls the coprocessor every
                    // cycle: settle and fall back to lockstep ticking.
                    let owed = self.cpu.stats().cycles - *fabric_ticks;
                    self.coproc.cp_catch_up(owed);
                    *fabric_ticks = self.cpu.stats().cycles;
                    match self.tick(false) {
                        Ok(()) => *fabric_ticks += 1,
                        Err(e) => break Err(e),
                    }
                    remaining -= 1;
                }
                continue;
            }
            let block = blocks.lookup(&self.bus, self.cpu.pc(), line_bytes);
            if block.instrs.is_empty() {
                // The entry word does not decode: one interpreted cycle
                // raises the identical fault.
                let owed = self.cpu.stats().cycles - *fabric_ticks;
                self.coproc.cp_catch_up(owed);
                *fabric_ticks = self.cpu.stats().cycles;
                match self.tick(false) {
                    Ok(()) => *fabric_ticks += 1,
                    Err(e) => break Err(e),
                }
                remaining -= 1;
                continue;
            }
            match run_block(
                &mut self.cpu,
                &mut self.bus,
                &mut self.coproc,
                block,
                remaining,
                fabric_ticks,
            ) {
                Ok(run) => remaining -= run.cycles,
                Err(e) => break Err(e.into()),
            }
        }
    }

    /// Pays the fabric ticks deferred by [`MachineState::advance_compiled`].
    /// A faulting cycle never pays its fabric tick (the interpreter
    /// raises before the fabric's half-cycle), so the target on a core
    /// error is one short.
    fn settle_fabric(&mut self, fabric_ticks: u64, faulted: bool) {
        let target = if faulted { self.cpu.stats().cycles - 1 } else { self.cpu.stats().cycles };
        self.coproc.cp_catch_up(target.saturating_sub(fabric_ticks));
    }

    /// Statistics so far (the body behind [`System::stats`]).
    fn run_stats(&self) -> RunStats {
        RunStats {
            cycles: self.cpu.stats().cycles,
            core: self.cpu.stats().clone(),
            mem: self.bus.hierarchy.stats(),
            fabric: self
                .coproc
                .fabric
                .as_ref()
                .map(|f| *f.stats())
                .unwrap_or_default(),
            halted: self.cpu.halted(),
            pending_mem_stalls: self.cpu.pending_stall_cycles(dyser_sparc::StallCause::ICache)
                + self.cpu.pending_stall_cycles(dyser_sparc::StallCause::DCache),
        }
    }
}

/// The integrated machine: core, fabric, and memory in lock step.
#[derive(Debug)]
pub struct System {
    state: MachineState,
    config: SystemConfig,
    tracing: bool,
    /// Translated blocks for [`System::run_compiled`]; keyed by PC and
    /// validated against code-page write generations, so it never holds
    /// stale text. Allocated by the first compiled run, so a system that
    /// never runs compiled never builds it.
    blocks: Option<BlockCache>,
}

impl System {
    /// Creates a system with no program loaded (entry `0x10000`).
    ///
    /// # Panics
    ///
    /// Panics if the configuration describes impossible hardware (see
    /// [`SystemConfig::validate`]); use [`System::try_new`] to handle the
    /// error instead.
    pub fn new(config: SystemConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates a system, reporting malformed configurations as errors.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::InvalidConfig`] when
    /// [`SystemConfig::validate`] rejects the hardware description.
    pub fn try_new(config: SystemConfig) -> Result<Self, SysError> {
        config.validate().map_err(SysError::InvalidConfig)?;
        let fabric = match (config.has_fabric, &config.kinds) {
            (false, _) => None,
            (true, Some(kinds)) => {
                let mut f = Fabric::with_kinds(config.geometry, kinds.clone())
                    .map_err(SysError::InvalidConfig)?;
                f.set_fifo_depth(config.fifo_depth).map_err(SysError::InvalidConfig)?;
                Some(f)
            }
            (true, None) => {
                let mut f = Fabric::new(config.geometry);
                f.set_fifo_depth(config.fifo_depth).map_err(SysError::InvalidConfig)?;
                Some(f)
            }
        };
        Ok(System {
            state: MachineState {
                cpu: Pipeline::new(dyser_compiler::CODE_BASE),
                bus: SysBus { memory: Memory::new(), hierarchy: Hierarchy::new(config.mem) },
                coproc: SysCoproc { fabric, configs: Vec::new(), active: None, cache: Vec::new() },
                kernel: ProxyKernel::new(),
            },
            config,
            tracing: false,
            blocks: None,
        })
    }

    /// Enables event tracing on every component, each into its own ring
    /// buffer of `capacity` events (newest kept on overflow).
    ///
    /// When tracing is off — the default — the only cost on the hot path
    /// is one branch per would-be event.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.state.cpu.enable_trace(capacity);
        self.state.bus.hierarchy.enable_trace(capacity);
        if let Some(fabric) = &mut self.state.coproc.fabric {
            fabric.enable_trace(capacity);
        }
        self.tracing = true;
    }

    /// Detaches all trace buffers and returns the merged events ordered by
    /// cycle, together with the total number of events dropped to ring
    /// overflow. Returns `None` when tracing was never enabled.
    pub fn take_trace(&mut self) -> Option<(Vec<TraceEvent>, u64)> {
        if !self.tracing {
            return None;
        }
        self.tracing = false;
        let mut events = Vec::new();
        let mut dropped = 0;
        let buffers = [
            self.state.cpu.take_trace(),
            self.state.bus.hierarchy.take_trace(),
            self.state.coproc.fabric.as_mut().and_then(|f| f.take_trace()),
        ];
        for buf in buffers.into_iter().flatten() {
            dropped += buf.dropped();
            events.extend(buf.into_ordered());
        }
        events.sort_by_key(|e| e.cycle);
        Some((events, dropped))
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The core.
    pub fn cpu(&self) -> &Pipeline {
        &self.state.cpu
    }

    /// Mutable access to the core (argument set-up).
    pub fn cpu_mut(&mut self) -> &mut Pipeline {
        &mut self.state.cpu
    }

    /// The functional memory.
    pub fn memory(&self) -> &Memory {
        &self.state.bus.memory
    }

    /// Mutable access to the functional memory (input set-up).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.state.bus.memory
    }

    /// The fabric, if attached.
    pub fn fabric(&self) -> Option<&Fabric> {
        self.state.coproc.fabric.as_ref()
    }

    /// Loads a compiled program: code, constant pool, configuration table.
    ///
    /// # Errors
    ///
    /// Validates every configuration against the fabric geometry up front.
    pub fn load_program(&mut self, program: &Program) -> Result<(), SysError> {
        self.state.bus.memory.write_code(program.entry, &program.code);
        self.state.bus.memory.write_u64_slice(dyser_compiler::POOL_BASE, &program.pool);
        if let Some(fabric) = &self.state.coproc.fabric {
            for cfg in &program.configs {
                if cfg.geometry() != fabric.geometry() {
                    return Err(SysError::Config(ConfigError::GeometryMismatch {
                        config: cfg.geometry(),
                        fabric: fabric.geometry(),
                    }));
                }
                cfg.validate().map_err(SysError::Config)?;
            }
        }
        self.state.coproc.configs = program.configs.clone();
        self.state.coproc.active = None;
        self.state.coproc.cache.clear();
        self.state.cpu.reset(program.entry);
        self.state.kernel = ProxyKernel::new();
        self.clear_blocks();
        Ok(())
    }

    /// Loads raw instruction words at `addr` and sets the entry there.
    pub fn load_raw(&mut self, addr: u64, words: &[u32]) {
        self.state.bus.memory.write_code(addr, words);
        self.state.cpu.reset(addr);
        self.state.kernel = ProxyKernel::new();
        self.clear_blocks();
    }

    /// Drops every translated block, if any were ever translated.
    fn clear_blocks(&mut self) {
        if let Some(blocks) = &mut self.blocks {
            blocks.clear();
        }
    }

    /// Writes the kernel arguments into `%o0..%o5`.
    ///
    /// # Panics
    ///
    /// Panics if more than six arguments are supplied; use
    /// [`System::try_set_args`] to handle the error instead.
    pub fn set_args(&mut self, args: &[u64]) {
        self.try_set_args(args).unwrap_or_else(|e| panic!("{e}"));
    }

    /// Writes the kernel arguments into `%o0..%o5`, reporting an argument
    /// list that does not fit as an error.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::TooManyArgs`] for more than six arguments,
    /// leaving the registers untouched.
    pub fn try_set_args(&mut self, args: &[u64]) -> Result<(), SysError> {
        if args.len() > 6 {
            return Err(SysError::TooManyArgs { count: args.len() });
        }
        for (i, a) in args.iter().enumerate() {
            self.state.cpu.regs_mut().write(dyser_isa::Reg::new(8 + i as u8), *a);
        }
        Ok(())
    }

    /// Sets up an emulated process on top of the loaded code: writes the
    /// FASE-style startup image (argc, argv, envp, string bytes) at
    /// [`STACK_BASE`], seeds `%o0`/`%o1`/`%o2` with argc/argv/envp and
    /// `%sp` with the stack pointer, points the proxy kernel's program
    /// break at [`HEAP_BASE`], and installs `stdin`.
    ///
    /// Call after [`System::load_program`] / [`System::load_raw`] (both
    /// reset the kernel) and before running.
    pub fn setup_process(&mut self, argv: &[&str], envp: &[&str], stdin: &[u8]) {
        let stack = write_startup_stack(&mut self.state.bus.memory, STACK_BASE, argv, envp);
        let regs = self.state.cpu.regs_mut();
        regs.write(dyser_isa::regs::O0, stack.argc);
        regs.write(dyser_isa::regs::O1, stack.argv);
        regs.write(dyser_isa::regs::O2, stack.envp);
        regs.write(dyser_isa::regs::SP, stack.sp);
        self.state.kernel.set_heap_base(HEAP_BASE);
        self.state.kernel.set_stdin(stdin);
    }

    /// The proxy kernel (captured stdout/stderr, exit code, break).
    pub fn kernel(&self) -> &ProxyKernel {
        &self.state.kernel
    }

    /// Mutable access to the proxy kernel (stdin installation, heap base).
    pub fn kernel_mut(&mut self) -> &mut ProxyKernel {
        &mut self.state.kernel
    }

    /// Advances the machine one cycle (core and fabric in lock step).
    ///
    /// # Errors
    ///
    /// Propagates core faults.
    pub fn tick(&mut self) -> Result<(), SysError> {
        self.state.tick(self.tracing)
    }

    /// Runs until `halt` or `max_cycles`, fast-forwarding through
    /// quiescent stretches.
    ///
    /// When the core's only work is draining a counted stall
    /// ([`Pipeline::skip_horizon`] > 0), those cycles touch neither the
    /// bus nor the fabric ports, so core and fabric advance together in
    /// one arithmetic step — clamped to the remaining cycle budget, so a
    /// timeout lands on exactly the same cycle as the stepped path. The
    /// fabric bulk-advances only while quiescent and steps otherwise
    /// (see [`dyser_fabric::Fabric::tick_n`]). Every `RunStats` counter
    /// is bit-identical to [`System::run_stepped`]; with tracing enabled
    /// the per-cycle path is used throughout so event timestamps and the
    /// hierarchy's trace clock stay exact.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::Timeout`] if the budget elapses, or a core
    /// fault.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunStats, SysError> {
        let start = self.state.cpu.stats().cycles;
        loop {
            let used = self.state.cpu.stats().cycles - start;
            self.state.advance_fast(max_cycles - used, self.tracing)?;
            if !self.try_service(start, max_cycles)? {
                break;
            }
        }
        self.finish()
    }

    /// Services a pending syscall at an engine-slice boundary, if budget
    /// remains; returns whether the engine should resume.
    ///
    /// The budget rule is part of the determinism contract: a trap that
    /// retires on the very cycle the budget runs out is *not* serviced —
    /// the run times out — and since cycle counters are bit-identical
    /// across engines, every engine makes the same call. Servicing itself
    /// consumes zero cycles; the latency arrives as a counted
    /// [`dyser_sparc::StallCause::Syscall`] stall drained on resume.
    fn try_service(&mut self, start: u64, max_cycles: u64) -> Result<bool, SysError> {
        let used = self.state.cpu.stats().cycles - start;
        if self.state.cpu.pending_syscall().is_some() && used < max_cycles {
            self.state.service_syscall()?;
            return Ok(!self.state.cpu.halted());
        }
        Ok(false)
    }

    fn finish(&self) -> Result<RunStats, SysError> {
        if !self.state.cpu.halted() {
            return Err(SysError::Timeout { cycles: self.state.cpu.stats().cycles });
        }
        Ok(self.stats())
    }

    /// Runs until `halt` or `max_cycles`, one [`System::tick`] per cycle —
    /// the reference path [`System::run`] must match bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::Timeout`] if the budget elapses, or a core
    /// fault.
    pub fn run_stepped(&mut self, max_cycles: u64) -> Result<RunStats, SysError> {
        let start = self.state.cpu.stats().cycles;
        loop {
            let used = self.state.cpu.stats().cycles - start;
            self.state.advance_stepped(max_cycles - used, self.tracing)?;
            if !self.try_service(start, max_cycles)? {
                break;
            }
        }
        self.finish()
    }

    /// Runs until `halt` or `max_cycles` on the compiled backend:
    /// straight-line spans execute as pre-decoded thunks out of the block
    /// cache (see [`dyser_compiled`]), and fabric ticks are paid lazily —
    /// settled to the core's cycle count immediately before anything
    /// observes the fabric, which commutes with core-only activity.
    ///
    /// Every `RunStats` counter is bit-identical to [`System::run`] and
    /// [`System::run_stepped`]. With tracing enabled the interpreted path
    /// is used throughout, since per-event timestamps require the
    /// per-cycle interleaving.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::Timeout`] if the budget elapses, or a core
    /// fault.
    pub fn run_compiled(&mut self, max_cycles: u64) -> Result<RunStats, SysError> {
        if self.tracing {
            return self.run(max_cycles);
        }
        let line_bytes = self.config.mem.l1i.line_bytes;
        // Fabric ticks paid so far. The interpreter's invariant: one
        // fabric tick per core cycle, paid after the core's half-cycle —
        // so during cycle T the coprocessor sees T-1 fabric ticks. The
        // deferral persists across syscall service: the proxy kernel never
        // touches the fabric, so service commutes with the settlement.
        let mut fabric_ticks = self.state.cpu.stats().cycles;
        let start = self.state.cpu.stats().cycles;
        let result = loop {
            let used = self.state.cpu.stats().cycles - start;
            let sliced = self.state.advance_compiled(
                max_cycles - used,
                self.blocks.get_or_insert_with(BlockCache::new),
                line_bytes,
                &mut fabric_ticks,
            );
            if sliced.is_err() {
                break sliced;
            }
            match self.try_service(start, max_cycles) {
                Ok(true) => continue,
                Ok(false) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        self.state
            .settle_fabric(fabric_ticks, matches!(&result, Err(SysError::Core(_))));
        result?;
        self.finish()
    }

    /// Simulator-speed counters of the issue-path caches (see
    /// [`SpeedStats`]).
    pub fn speed_stats(&self) -> SpeedStats {
        let (decode_hits, decode_misses) = self.state.cpu.decode_cache_stats();
        let blocks = self.blocks.as_ref().map(BlockCache::stats).unwrap_or_default();
        SpeedStats { decode_hits, decode_misses, blocks }
    }

    /// Statistics so far.
    pub fn stats(&self) -> RunStats {
        self.state.run_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyser_isa::{regs, AluOp, Assembler, Instr, Op2};

    #[test]
    fn raw_program_runs() {
        let mut asm = Assembler::new();
        asm.push(Instr::mov_imm(regs::O0, 5));
        asm.push(Instr::alu(AluOp::Mulx, regs::O0, regs::O0, Op2::Imm(8)));
        asm.push(Instr::Halt);
        let mut sys = System::new(SystemConfig::default());
        sys.load_raw(0x10000, &asm.assemble().unwrap());
        let stats = sys.run(1000).unwrap();
        assert!(stats.halted);
        assert_eq!(sys.cpu().regs().read(regs::O0), 40);
        assert!(stats.cycles > 3, "fetch misses cost cycles");
    }

    #[test]
    fn timeout_reported() {
        let mut asm = Assembler::new();
        asm.label("spin");
        asm.branch(dyser_isa::ICond::Always, "spin");
        asm.push(Instr::Nop);
        let mut sys = System::new(SystemConfig::default());
        sys.load_raw(0x10000, &asm.assemble().unwrap());
        assert!(matches!(sys.run(100), Err(SysError::Timeout { .. })));
    }

    #[test]
    fn fabric_free_system_runs_plain_code() {
        let mut asm = Assembler::new();
        asm.push(Instr::mov_imm(regs::O1, 7));
        asm.push(Instr::Halt);
        let cfg = SystemConfig { has_fabric: false, ..Default::default() };
        let mut sys = System::new(cfg);
        sys.load_raw(0x10000, &asm.assemble().unwrap());
        sys.run(1000).unwrap();
        assert_eq!(sys.cpu().regs().read(regs::O1), 7);
        assert!(sys.fabric().is_none());
    }

    #[test]
    fn set_args_lands_in_out_registers() {
        let mut sys = System::new(SystemConfig::default());
        sys.set_args(&[1, 2, 3]);
        assert_eq!(sys.cpu().regs().read(regs::O0), 1);
        assert_eq!(sys.cpu().regs().read(regs::O2), 3);
    }

    /// Loading resets the core in place and empties the block cache, so
    /// the speed counters of a reloaded system's run read as a fresh
    /// system's do, on both engines. (The hierarchy and the fabric keep
    /// their state across a load, so the run's own statistics may not.)
    #[test]
    fn a_reloaded_system_counts_speed_afresh() {
        let mut asm = Assembler::new();
        asm.push(Instr::mov_imm(regs::L0, 50));
        asm.label("loop");
        asm.push(Instr::alu(AluOp::Add, regs::O1, regs::O1, Op2::Imm(3)));
        asm.push(Instr::alu(AluOp::SubCc, regs::L0, regs::L0, Op2::Imm(1)));
        asm.branch(dyser_isa::ICond::Ne, "loop");
        asm.push(Instr::Nop);
        asm.push(Instr::Halt);
        let code = asm.assemble().unwrap();
        let run = |sys: &mut System, compiled: bool| {
            sys.load_raw(0x10000, &code);
            let stats = if compiled { sys.run_compiled(10_000) } else { sys.run(10_000) };
            assert!(stats.unwrap().halted);
            assert_eq!(sys.cpu().regs().read(regs::O1), 150, "registers start from zero");
            let speed = sys.speed_stats();
            (speed.decode_hits, speed.decode_misses, speed.blocks)
        };
        for compiled in [false, true] {
            let fresh = run(&mut System::new(SystemConfig::default()), compiled);
            let mut sys = System::new(SystemConfig::default());
            run(&mut sys, !compiled);
            assert_eq!(run(&mut sys, compiled), fresh, "compiled: {compiled}");
            assert_eq!(run(&mut sys, compiled), fresh, "compiled: {compiled}, reloaded again");
            let (decoded, translated) = (fresh.0 + fresh.1, fresh.2.hits + fresh.2.misses);
            assert!(if compiled { translated > 0 } else { decoded > 0 && translated == 0 });
        }
    }

    #[test]
    fn seven_args_are_a_typed_error() {
        let mut sys = System::new(SystemConfig::default());
        let err = sys.try_set_args(&[1, 2, 3, 4, 5, 6, 7]).unwrap_err();
        assert!(matches!(err, SysError::TooManyArgs { count: 7 }), "got {err}");
        assert_eq!(sys.cpu().regs().read(regs::O0), 0, "registers untouched");
        sys.try_set_args(&[9; 6]).expect("six arguments fit");
        assert_eq!(sys.cpu().regs().read(regs::O5), 9);
    }
}
