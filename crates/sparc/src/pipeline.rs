//! The timed in-order pipeline.
//!
//! Execution follows SPARC's architectural `PC`/`nPC` pair, which gives
//! delay-slot semantics for free: a taken control transfer replaces `nPC`,
//! so the instruction after the branch (the delay slot) always executes.
//!
//! Timing model: each retired instruction consumes one base cycle; every
//! additional cycle before the next instruction issues is a *stall*
//! attributed to a [`StallCause`]. Stalls are queued as micro-states
//! (cache fill, long-latency occupancy, DySER port waits) and drained one
//! cycle per [`Pipeline::tick`], which keeps the core in lockstep with the
//! fabric the system crate ticks alongside it.

use std::collections::VecDeque;
use std::fmt;

use dyser_isa::{
    decode, AluOp, DecodeError, DyserInstr, FReg, Fcc, FpOp, Icc, Instr, LoadKind, Op2, Reg,
    StoreKind,
};
use dyser_trace::{EventKind, TraceBuffer, TraceEvent};

use crate::bus::Bus;
use crate::coproc::{Coproc, CoprocError};
use crate::regfile::{FRegFile, RegFile};
use crate::stats::{CoreStats, StallCause};

/// How many scalar values a vector port transfer moves per cycle.
pub const VECTOR_WIDTH: usize = 2;

/// Fatal simulation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An undecodable instruction word was fetched.
    Decode {
        /// The fetch address.
        pc: u64,
        /// The underlying decode error.
        source: DecodeError,
    },
    /// A coprocessor operation failed.
    Coproc {
        /// The instruction address.
        pc: u64,
        /// The underlying coprocessor error.
        source: CoprocError,
    },
    /// A vector transfer's register count does not match its port map.
    VecLengthMismatch {
        /// The instruction address.
        pc: u64,
        /// Registers named by the instruction.
        regs: usize,
        /// Scalar ports behind the vector port.
        ports: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Decode { pc, source } => write!(f, "at pc 0x{pc:x}: {source}"),
            CoreError::Coproc { pc, source } => write!(f, "at pc 0x{pc:x}: {source}"),
            CoreError::VecLengthMismatch { pc, regs, ports } => write!(
                f,
                "at pc 0x{pc:x}: vector transfer of {regs} registers over {ports} scalar ports"
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Decode { source, .. } => Some(source),
            CoreError::Coproc { source, .. } => Some(source),
            CoreError::VecLengthMismatch { .. } => None,
        }
    }
}

/// Where a pending DySER receive delivers its value.
#[derive(Debug, Clone, Copy)]
enum RecvDest {
    Int(Reg),
    Fp(FReg),
    /// `dstore`: write the received value to memory at this address.
    Mem(u64),
}

/// A queued micro-state consuming cycles after an instruction issues.
#[derive(Debug, Clone)]
enum Pending {
    /// A counted stall.
    Stall { cause: StallCause, remaining: u64 },
    /// Retry a port send until the FIFO accepts.
    Send { port: usize, value: u64 },
    /// Retry a port receive until a value arrives.
    Recv { port: usize, dest: RecvDest },
    /// Remaining scalar sends of a vector transfer.
    VecSend { pairs: VecDeque<(usize, u64)> },
    /// Remaining scalar receives of a vector transfer.
    VecRecv { pairs: VecDeque<(usize, Reg)> },
    /// Wait until the fabric drains.
    Fence,
}

/// Slots in the direct-mapped decoded-instruction cache. Purely a
/// simulator-speed artefact with no timing meaning: entries are
/// validated against the fetched word on every hit, so even
/// self-modifying code decodes correctly.
const DECODE_SLOTS: usize = 1024;

/// A decode-cache slot that holds no entry.
const EMPTY_DECODE: (u64, u32, Instr) = (u64::MAX, 0, Instr::Nop);

/// The in-order, single-issue core.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug)]
pub struct Pipeline {
    pc: u64,
    npc: u64,
    regs: RegFile,
    fregs: FRegFile,
    icc: Icc,
    fcc: Fcc,
    pending: VecDeque<Pending>,
    last_load_int: Option<Reg>,
    last_load_fp: Option<FReg>,
    halted: bool,
    /// Syscall number of a retired `ta` trap awaiting harness-side
    /// service. While set, the core is frozen: [`Pipeline::tick`] is a
    /// no-op and no cycles elapse, so every backend observes the trap at
    /// the exact same cycle regardless of how it slices execution.
    pending_syscall: Option<u16>,
    stats: CoreStats,
    simcall_log: Vec<(u16, u64)>,
    /// `(pc, word, decoded)` triples indexed by `(pc >> 2) % DECODE_SLOTS`;
    /// `pc == u64::MAX` marks an empty slot.
    decoded: Vec<(u64, u32, Instr)>,
    /// Decode-cache probes that found a valid entry. Simulator
    /// observability only — deliberately outside [`CoreStats`], whose
    /// bit-for-bit equality the backends must preserve while taking
    /// different decode paths.
    decode_hits: u64,
    /// Decode-cache probes that had to decode the fetched word.
    decode_misses: u64,
    /// `None` unless tracing was enabled for this run: the disabled path
    /// is a single branch at retire, preserving the allocation-free hot
    /// path (see DESIGN.md, "Observability").
    tracer: Option<Box<TraceBuffer>>,
}

impl Pipeline {
    /// Creates a core that will start fetching at `entry`.
    pub fn new(entry: u64) -> Self {
        Self::with_decode_cache(entry, vec![EMPTY_DECODE; DECODE_SLOTS])
    }

    /// Returns the core to the state [`Pipeline::new`] creates, fetching
    /// at `entry` (tracing off), keeping the decode cache's allocation.
    /// Only a decode miss fills a slot, so a cache that never missed
    /// since the last reset is still empty and is not swept again.
    pub fn reset(&mut self, entry: u64) {
        let mut decoded = std::mem::take(&mut self.decoded);
        if self.decode_misses > 0 {
            decoded.fill(EMPTY_DECODE);
        }
        *self = Self::with_decode_cache(entry, decoded);
    }

    /// A fresh core over an empty decode cache of `DECODE_SLOTS` slots.
    fn with_decode_cache(entry: u64, decoded: Vec<(u64, u32, Instr)>) -> Self {
        debug_assert_eq!(decoded.len(), DECODE_SLOTS);
        Pipeline {
            pc: entry,
            npc: entry + 4,
            regs: RegFile::new(),
            fregs: FRegFile::new(),
            icc: Icc::default(),
            fcc: Fcc::default(),
            pending: VecDeque::new(),
            last_load_int: None,
            last_load_fp: None,
            halted: false,
            pending_syscall: None,
            stats: CoreStats::default(),
            simcall_log: Vec::new(),
            decoded,
            decode_hits: 0,
            decode_misses: 0,
            tracer: None,
        }
    }

    /// Enables instruction-retire tracing into a ring buffer of at most
    /// `capacity` events. Tracing is off by default and costs one branch
    /// per retired instruction when enabled-but-unused paths are ticked.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Some(Box::new(TraceBuffer::new(capacity)));
    }

    /// Takes the trace buffer (disabling further tracing), if any.
    pub fn take_trace(&mut self) -> Option<Box<TraceBuffer>> {
        self.tracer.take()
    }

    /// The integer register file.
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// Mutable access to the integer register file (argument set-up).
    pub fn regs_mut(&mut self) -> &mut RegFile {
        &mut self.regs
    }

    /// The floating-point register file.
    pub fn fregs(&self) -> &FRegFile {
        &self.fregs
    }

    /// Mutable access to the floating-point register file.
    pub fn fregs_mut(&mut self) -> &mut FRegFile {
        &mut self.fregs
    }

    /// The current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Whether the core has executed `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The syscall number of a retired `ta` trap awaiting service, if any.
    /// While set, the core is frozen (ticks are no-ops) until
    /// [`Pipeline::complete_syscall`] or [`Pipeline::force_halt`].
    pub fn pending_syscall(&self) -> Option<u16> {
        self.pending_syscall
    }

    /// Completes a pending syscall: writes the return value to `%o0`,
    /// queues `stall` counted cycles of [`StallCause::Syscall`] service
    /// latency, and unfreezes the core.
    ///
    /// The stall is a plain counted stall, so the fast-forwarding and
    /// compiled engines skip it through [`Pipeline::tick_n`] exactly like
    /// any other latency.
    pub fn complete_syscall(&mut self, retval: u64, stall: u64) {
        debug_assert!(self.pending_syscall.is_some(), "complete_syscall without a pending trap");
        self.pending_syscall = None;
        self.regs.write(dyser_isa::regs::O0, retval);
        self.push_stall(StallCause::Syscall, stall);
    }

    /// Halts the core from outside the instruction stream — the `exit`
    /// syscall and fatal syscall errors. Clears any pending trap.
    pub fn force_halt(&mut self) {
        self.pending_syscall = None;
        self.halted = true;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Values recorded by `simcall` instructions, in program order.
    pub fn simcall_log(&self) -> &[(u16, u64)] {
        &self.simcall_log
    }

    /// `(hits, misses)` of the decoded-instruction cache — a simulator
    /// speed counter, not an architectural statistic (see the field
    /// comments on `decode_hits`).
    pub fn decode_cache_stats(&self) -> (u64, u64) {
        (self.decode_hits, self.decode_misses)
    }

    /// Whether any micro-state (stall, port retry, fence) is queued ahead
    /// of the next instruction issue.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    fn op2_value(&self, op2: Op2) -> u64 {
        match op2 {
            Op2::Reg(r) => self.regs.read(r),
            Op2::Imm(i) => i as i64 as u64,
        }
    }

    /// Whether `instr` reads integer register `reg` (the load-use check).
    fn int_uses(instr: &Instr, reg: Reg) -> bool {
        let op2_is = |op2: &Op2| matches!(op2, Op2::Reg(r) if *r == reg);
        match instr {
            Instr::Alu { rs1, op2, .. } => *rs1 == reg || op2_is(op2),
            Instr::MovCc { op2, .. } => op2_is(op2),
            Instr::Load { rs1, op2, .. } | Instr::LoadF { rs1, op2, .. } => {
                *rs1 == reg || op2_is(op2)
            }
            Instr::Store { rs, rs1, op2, .. } => *rs == reg || *rs1 == reg || op2_is(op2),
            Instr::StoreF { rs1, op2, .. } => *rs1 == reg || op2_is(op2),
            Instr::BranchReg { rs1, .. } => *rs1 == reg,
            Instr::Jmpl { rs1, op2, .. } => *rs1 == reg || op2_is(op2),
            Instr::Dyser(d) => match d {
                DyserInstr::Send { rs, .. } => *rs == reg,
                DyserInstr::Load { rs1, op2, .. } | DyserInstr::Store { rs1, op2, .. } => {
                    *rs1 == reg || op2_is(op2)
                }
                DyserInstr::SendVec { base, count, .. } => {
                    let base = base.index() as u16;
                    let r = reg.index() as u16;
                    r >= base && r < base + u16::from(*count)
                }
                _ => false,
            },
            _ => false,
        }
    }

    /// Whether `instr` reads floating-point register `reg`.
    fn fp_uses(instr: &Instr, reg: FReg) -> bool {
        match instr {
            Instr::Fpu { op, rs1, rs2, .. } => {
                (!op.is_unary() && *rs1 == reg) || *rs2 == reg
            }
            Instr::FCmp { rs1, rs2 } => *rs1 == reg || *rs2 == reg,
            Instr::StoreF { rs, .. } => *rs == reg,
            Instr::Dyser(DyserInstr::SendF { rs, .. }) => *rs == reg,
            _ => false,
        }
    }

    /// Stall cycles of the given cause still queued but not yet paid —
    /// nonzero only when the core halts with latency in flight (e.g. the
    /// halt instruction's own fetch miss). Lets observers reconcile the
    /// memory hierarchy's latency counters with the paid stall cycles.
    pub fn pending_stall_cycles(&self, cause: StallCause) -> u64 {
        self.pending
            .iter()
            .map(|p| match p {
                Pending::Stall { cause: c, remaining } if *c == cause => *remaining,
                _ => 0,
            })
            .sum()
    }

    fn push_stall(&mut self, cause: StallCause, cycles: u64) {
        if cycles > 0 {
            self.pending.push_back(Pending::Stall { cause, remaining: cycles });
        }
    }

    /// How many cycles the core can burn with no externally visible event:
    /// the front [`Pending::Stall`]'s remaining count, zero otherwise.
    ///
    /// A counted stall only decrements its own counter — it touches
    /// neither the bus nor the coprocessor and cannot halt the core — so
    /// those cycles can be charged in bulk by [`Pipeline::tick_n`].
    /// Everything else at the front of the queue is externally visible:
    /// an empty queue means the next tick fetches and decodes, and a
    /// `Send`/`Recv`/`VecSend`/`VecRecv`/`Fence` polls the coprocessor
    /// every cycle.
    pub fn skip_horizon(&self) -> u64 {
        if self.halted || self.pending_syscall.is_some() {
            return 0;
        }
        match self.pending.front() {
            Some(Pending::Stall { remaining, .. }) => *remaining,
            _ => 0,
        }
    }

    /// Charges `n` cycles of the front counted stall in one arithmetic
    /// step: `stats.cycles`, the per-cause stall counter, and the pending
    /// queue end up bit-identical to `n` calls of [`Pipeline::tick`].
    ///
    /// `n` must not exceed [`Pipeline::skip_horizon`]; in release builds
    /// excess cycles are clamped to the horizon (debug builds assert).
    pub fn tick_n(&mut self, n: u64) {
        debug_assert!(n <= self.skip_horizon(), "tick_n beyond the skip horizon");
        if n == 0 || self.halted {
            return;
        }
        let Some(Pending::Stall { cause, remaining }) = self.pending.front_mut() else {
            return;
        };
        let n = n.min(*remaining);
        let cause = *cause;
        *remaining -= n;
        if *remaining == 0 {
            self.pending.pop_front();
        }
        self.stats.cycles += n;
        self.stats.stall(cause, n);
    }

    /// Advances the core by exactly one cycle.
    ///
    /// # Errors
    ///
    /// Returns an error on undecodable instructions, coprocessor failures,
    /// or malformed vector transfers; the core is left halted.
    pub fn tick<B: Bus, C: Coproc>(&mut self, bus: &mut B, coproc: &mut C) -> Result<(), CoreError> {
        if self.halted || self.pending_syscall.is_some() {
            return Ok(());
        }
        self.stats.cycles += 1;

        if let Some(front) = self.pending.pop_front() {
            let keep = match front {
                Pending::Stall { cause, remaining } => {
                    self.stats.stall(cause, 1);
                    (remaining > 1).then_some(Pending::Stall { cause, remaining: remaining - 1 })
                }
                Pending::Send { port, value } => {
                    self.stats.stall(StallCause::DyserSend, 1);
                    (!coproc.cp_send(port, value)).then_some(Pending::Send { port, value })
                }
                Pending::Recv { port, dest } => {
                    self.stats.stall(StallCause::DyserRecv, 1);
                    match coproc.cp_recv(port) {
                        Some(v) => {
                            self.finish_recv(bus, dest, v);
                            None
                        }
                        None => Some(Pending::Recv { port, dest }),
                    }
                }
                Pending::VecSend { mut pairs } => {
                    self.stats.stall(StallCause::DyserSend, 1);
                    let mut sent = 0;
                    while sent < VECTOR_WIDTH {
                        let Some(&(port, value)) = pairs.front() else { break };
                        if !coproc.cp_send(port, value) {
                            break;
                        }
                        pairs.pop_front();
                        sent += 1;
                    }
                    (!pairs.is_empty()).then_some(Pending::VecSend { pairs })
                }
                Pending::VecRecv { mut pairs } => {
                    self.stats.stall(StallCause::DyserRecv, 1);
                    let mut received = 0;
                    while received < VECTOR_WIDTH {
                        let Some(&(port, rd)) = pairs.front() else { break };
                        let Some(v) = coproc.cp_recv(port) else { break };
                        self.regs.write(rd, v);
                        pairs.pop_front();
                        received += 1;
                    }
                    (!pairs.is_empty()).then_some(Pending::VecRecv { pairs })
                }
                Pending::Fence => {
                    self.stats.stall(StallCause::DyserFence, 1);
                    (coproc.cp_in_flight() != 0).then_some(Pending::Fence)
                }
            };
            if let Some(p) = keep {
                self.pending.push_front(p);
            }
            return Ok(());
        }

        self.issue(bus, coproc)
    }

    fn finish_recv<B: Bus>(&mut self, bus: &mut B, dest: RecvDest, value: u64) {
        match dest {
            RecvDest::Int(rd) => self.regs.write(rd, value),
            RecvDest::Fp(rd) => self.fregs.write(rd, value),
            RecvDest::Mem(addr) => {
                let lat = bus.store(addr, 8, value);
                self.push_stall(StallCause::DCache, lat.saturating_sub(1));
            }
        }
    }

    /// Fetches, decodes, executes, and retires one instruction, queueing
    /// any stall cycles it incurs.
    fn issue<B: Bus, C: Coproc>(&mut self, bus: &mut B, coproc: &mut C) -> Result<(), CoreError> {
        let pc = self.pc;
        let (word, fetch_lat) = bus.fetch_instr(pc);
        self.push_stall(StallCause::ICache, fetch_lat.saturating_sub(1));
        let slot = ((pc >> 2) as usize) & (DECODE_SLOTS - 1);
        let cached = self.decoded[slot];
        let instr = if cached.0 == pc && cached.1 == word {
            self.decode_hits += 1;
            cached.2
        } else {
            self.decode_misses += 1;
            let instr = decode(word).map_err(|source| {
                self.halted = true;
                CoreError::Decode { pc, source }
            })?;
            self.decoded[slot] = (pc, word, instr);
            instr
        };
        self.execute_decoded(instr, bus, coproc)
    }

    /// Issues one pre-decoded instruction as one cycle, charging the given
    /// fetch latency — the compiled backend's issue path. The caller must
    /// ensure the pending queue is empty, the core is not halted, and
    /// `instr` is what [`Bus::fetch_instr`] at the current `pc` would
    /// decode to; then every counter and register moves bit-identically
    /// to [`Pipeline::tick`].
    ///
    /// # Errors
    ///
    /// As [`Pipeline::tick`]: coprocessor failures or malformed vector
    /// transfers leave the core halted.
    pub fn step_decoded<B: Bus, C: Coproc>(
        &mut self,
        instr: Instr,
        fetch_lat: u64,
        bus: &mut B,
        coproc: &mut C,
    ) -> Result<(), CoreError> {
        debug_assert!(!self.halted, "step_decoded on a halted core");
        debug_assert!(self.pending.is_empty(), "step_decoded with micro-state queued");
        self.stats.cycles += 1;
        self.push_stall(StallCause::ICache, fetch_lat.saturating_sub(1));
        self.execute_decoded(instr, bus, coproc)
    }

    /// The post-decode half of an issue cycle: interlocks, retire,
    /// execute, and the PC/nPC update.
    fn execute_decoded<B: Bus, C: Coproc>(
        &mut self,
        instr: Instr,
        bus: &mut B,
        coproc: &mut C,
    ) -> Result<(), CoreError> {
        let pc = self.pc;

        // Load-use interlock against the previous instruction.
        let mut load_use = false;
        if let Some(last) = self.last_load_int {
            if Self::int_uses(&instr, last) {
                load_use = true;
            }
        }
        if let Some(last) = self.last_load_fp {
            if Self::fp_uses(&instr, last) {
                load_use = true;
            }
        }
        if load_use {
            self.push_stall(StallCause::LoadUse, 1);
        }
        self.last_load_int = None;
        self.last_load_fp = None;

        self.stats.retire(instr.class());
        if let Some(tracer) = self.tracer.as_deref_mut() {
            let detail = instr.class().index() as u32;
            tracer.record(TraceEvent {
                cycle: self.stats.cycles - 1,
                kind: EventKind::InstrRetire,
                arg: pc,
                detail,
            });
        }

        // Default control flow; CTIs overwrite `next_npc`.
        let next_pc = self.npc;
        let mut next_npc = self.npc.wrapping_add(4);
        let branch_target = |disp: i32| pc.wrapping_add((disp as i64 as u64).wrapping_mul(4));

        match instr {
            Instr::Alu { op, rd, rs1, op2 } => {
                let a = self.regs.read(rs1);
                let b = self.op2_value(op2);
                let (res, icc) = op.eval(a, b);
                self.regs.write(rd, res);
                if let Some(icc) = icc {
                    self.icc = icc;
                }
                let extra = u64::from(op.latency().saturating_sub(1));
                if matches!(op, AluOp::Mulx | AluOp::Sdivx | AluOp::Udivx) {
                    self.push_stall(StallCause::IntMulDiv, extra);
                }
            }
            Instr::Sethi { rd, imm22 } => {
                self.regs.write(rd, u64::from(imm22) << 10);
            }
            Instr::MovCc { cond, rd, op2 } => {
                if cond.eval(self.icc) {
                    let v = self.op2_value(op2);
                    self.regs.write(rd, v);
                }
            }
            Instr::Load { kind, rd, rs1, op2 } => {
                let addr = self.regs.read(rs1).wrapping_add(self.op2_value(op2));
                let signed = matches!(kind, LoadKind::Ldsw);
                let (value, lat) = bus.load(addr, kind.bytes(), signed);
                self.regs.write(rd, value);
                self.push_stall(StallCause::DCache, lat.saturating_sub(1));
                self.last_load_int = Some(rd);
            }
            Instr::Store { kind, rs, rs1, op2 } => {
                let addr = self.regs.read(rs1).wrapping_add(self.op2_value(op2));
                let lat = bus.store(addr, kind.bytes(), self.regs.read(rs));
                self.push_stall(StallCause::DCache, lat.saturating_sub(1));
                let _ = StoreKind::Stx; // (kind only selects the width)
            }
            Instr::LoadF { rd, rs1, op2 } => {
                let addr = self.regs.read(rs1).wrapping_add(self.op2_value(op2));
                let (value, lat) = bus.load(addr, 8, false);
                self.fregs.write(rd, value);
                self.push_stall(StallCause::DCache, lat.saturating_sub(1));
                self.last_load_fp = Some(rd);
            }
            Instr::StoreF { rs, rs1, op2 } => {
                let addr = self.regs.read(rs1).wrapping_add(self.op2_value(op2));
                let lat = bus.store(addr, 8, self.fregs.read(rs));
                self.push_stall(StallCause::DCache, lat.saturating_sub(1));
            }
            Instr::Fpu { op, rd, rs1, rs2 } => {
                let a = self.fregs.read(rs1);
                let b = self.fregs.read(rs2);
                // Unary operations read rs2, matching FpOp::eval.
                self.fregs.write(rd, op.eval(a, b));
                self.push_stall(StallCause::Fp, u64::from(op.latency().saturating_sub(1)));
                let _ = FpOp::Addd;
            }
            Instr::FCmp { rs1, rs2 } => {
                self.fcc = Fcc::compare(self.fregs.read_f64(rs1), self.fregs.read_f64(rs2));
            }
            Instr::Branch { cond, disp } => {
                if cond.eval(self.icc) {
                    next_npc = branch_target(disp);
                    self.push_stall(StallCause::Branch, 1);
                }
            }
            Instr::BranchF { cond, disp } => {
                if cond.eval(self.fcc) {
                    next_npc = branch_target(disp);
                    self.push_stall(StallCause::Branch, 1);
                }
            }
            Instr::BranchReg { cond, rs1, disp } => {
                if cond.eval(self.regs.read(rs1)) {
                    next_npc = branch_target(disp);
                    self.push_stall(StallCause::Branch, 1);
                }
            }
            Instr::Call { disp } => {
                self.regs.write(dyser_isa::regs::O7, pc);
                next_npc = branch_target(disp);
                self.push_stall(StallCause::Branch, 1);
            }
            Instr::Jmpl { rd, rs1, op2 } => {
                let target = self.regs.read(rs1).wrapping_add(self.op2_value(op2));
                self.regs.write(rd, pc);
                next_npc = target;
                self.push_stall(StallCause::Branch, 1);
            }
            Instr::Dyser(d) => {
                self.execute_dyser(pc, d, bus, coproc)?;
            }
            Instr::Nop => {}
            Instr::Halt => {
                self.halted = true;
                return Ok(());
            }
            Instr::SimCall { code } => {
                let value = match code {
                    1 => self.fregs.read(FReg::new(0)),
                    _ => self.regs.read(dyser_isa::regs::O0),
                };
                self.simcall_log.push((code, value));
            }
            Instr::Trap { code } => {
                // The trap retires as one ordinary cycle; the core then
                // freezes (tick becomes a no-op) until the harness-side
                // handler services the call.
                self.pending_syscall = Some(code);
            }
        }

        self.pc = next_pc;
        self.npc = next_npc;
        Ok(())
    }

    fn execute_dyser<B: Bus, C: Coproc>(
        &mut self,
        pc: u64,
        d: DyserInstr,
        bus: &mut B,
        coproc: &mut C,
    ) -> Result<(), CoreError> {
        match d {
            DyserInstr::Init { config } => {
                let cycles = coproc.cp_init(config.index()).map_err(|source| {
                    self.halted = true;
                    CoreError::Coproc { pc, source }
                })?;
                self.push_stall(StallCause::DyserConfig, cycles);
            }
            DyserInstr::Send { port, rs } => {
                let value = self.regs.read(rs);
                if !coproc.cp_send(port.index(), value) {
                    self.pending.push_back(Pending::Send { port: port.index(), value });
                }
            }
            DyserInstr::SendF { port, rs } => {
                let value = self.fregs.read(rs);
                if !coproc.cp_send(port.index(), value) {
                    self.pending.push_back(Pending::Send { port: port.index(), value });
                }
            }
            DyserInstr::Recv { port, rd } => match coproc.cp_recv(port.index()) {
                Some(v) => self.regs.write(rd, v),
                None => self
                    .pending
                    .push_back(Pending::Recv { port: port.index(), dest: RecvDest::Int(rd) }),
            },
            DyserInstr::RecvF { port, rd } => match coproc.cp_recv(port.index()) {
                Some(v) => self.fregs.write(rd, v),
                None => self
                    .pending
                    .push_back(Pending::Recv { port: port.index(), dest: RecvDest::Fp(rd) }),
            },
            DyserInstr::Load { port, rs1, op2 } => {
                let addr = self.regs.read(rs1).wrapping_add(self.op2_value(op2));
                let (value, lat) = bus.load(addr, 8, false);
                self.push_stall(StallCause::DCache, lat.saturating_sub(1));
                if !coproc.cp_send(port.index(), value) {
                    self.pending.push_back(Pending::Send { port: port.index(), value });
                }
            }
            DyserInstr::Store { port, rs1, op2 } => {
                let addr = self.regs.read(rs1).wrapping_add(self.op2_value(op2));
                match coproc.cp_recv(port.index()) {
                    Some(v) => {
                        let lat = bus.store(addr, 8, v);
                        self.push_stall(StallCause::DCache, lat.saturating_sub(1));
                    }
                    None => self.pending.push_back(Pending::Recv {
                        port: port.index(),
                        dest: RecvDest::Mem(addr),
                    }),
                }
            }
            DyserInstr::SendVec { vport, base, count } => {
                let ports = coproc.cp_vec_in(vport.index());
                if ports.len() != count as usize {
                    self.halted = true;
                    return Err(CoreError::VecLengthMismatch {
                        pc,
                        regs: count as usize,
                        ports: ports.len(),
                    });
                }
                let mut pairs: VecDeque<(usize, u64)> = ports
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| {
                        let r = Reg::try_new(base.index() as u8 + i as u8)
                            .unwrap_or(dyser_isa::regs::G0);
                        (p, self.regs.read(r))
                    })
                    .collect();
                // First beat happens this cycle.
                let mut sent = 0;
                while sent < VECTOR_WIDTH {
                    let Some(&(p, v)) = pairs.front() else { break };
                    if !coproc.cp_send(p, v) {
                        break;
                    }
                    pairs.pop_front();
                    sent += 1;
                }
                if !pairs.is_empty() {
                    self.pending.push_back(Pending::VecSend { pairs });
                }
            }
            DyserInstr::RecvVec { vport, base, count } => {
                let ports = coproc.cp_vec_out(vport.index());
                if ports.len() != count as usize {
                    self.halted = true;
                    return Err(CoreError::VecLengthMismatch {
                        pc,
                        regs: count as usize,
                        ports: ports.len(),
                    });
                }
                let mut pairs: VecDeque<(usize, Reg)> = ports
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| {
                        let r = Reg::try_new(base.index() as u8 + i as u8)
                            .unwrap_or(dyser_isa::regs::G0);
                        (p, r)
                    })
                    .collect();
                let mut received = 0;
                while received < VECTOR_WIDTH {
                    let Some(&(p, rd)) = pairs.front() else { break };
                    let Some(v) = coproc.cp_recv(p) else { break };
                    self.regs.write(rd, v);
                    pairs.pop_front();
                    received += 1;
                }
                if !pairs.is_empty() {
                    self.pending.push_back(Pending::VecRecv { pairs });
                }
            }
            DyserInstr::Fence => {
                if coproc.cp_in_flight() != 0 {
                    self.pending.push_back(Pending::Fence);
                }
            }
        }
        Ok(())
    }

    /// Runs until `halt` or until `max_cycles` elapse; returns whether the
    /// core halted.
    ///
    /// Counted stalls are fast-forwarded in bulk via
    /// [`Pipeline::tick_n`] — statistics stay bit-identical to stepping
    /// every cycle, because a counted stall has no externally visible
    /// effect (see [`Pipeline::skip_horizon`]).
    ///
    /// # Errors
    ///
    /// Propagates the first [`CoreError`] raised by [`Pipeline::tick`].
    pub fn run<B: Bus, C: Coproc>(
        &mut self,
        bus: &mut B,
        coproc: &mut C,
        max_cycles: u64,
    ) -> Result<bool, CoreError> {
        let mut remaining = max_cycles;
        while remaining > 0 && !self.halted && self.pending_syscall.is_none() {
            let skip = self.skip_horizon().min(remaining);
            if skip > 0 {
                self.tick_n(skip);
                remaining -= skip;
            } else {
                self.tick(bus, coproc)?;
                remaining -= 1;
            }
        }
        Ok(self.halted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::SimpleBus;
    use crate::coproc::NullCoproc;
    use dyser_isa::{regs, Assembler, ICond, RCond};

    const ENTRY: u64 = 0x1000;

    fn run_asm(build: impl FnOnce(&mut Assembler)) -> (Pipeline, SimpleBus) {
        let mut asm = Assembler::new();
        build(&mut asm);
        let words = asm.assemble().expect("test programs assemble");
        let mut bus = SimpleBus::new();
        bus.memory_mut().write_code(ENTRY, &words);
        let mut cpu = Pipeline::new(ENTRY);
        cpu.run(&mut bus, &mut NullCoproc, 100_000).expect("no core errors");
        assert!(cpu.halted(), "program must halt");
        (cpu, bus)
    }

    #[test]
    fn arithmetic_and_halt() {
        let (cpu, _) = run_asm(|asm| {
            asm.push(Instr::mov_imm(regs::O0, 40));
            asm.push(Instr::alu(AluOp::Add, regs::O0, regs::O0, Op2::Imm(2)));
            asm.push(Instr::Halt);
        });
        assert_eq!(cpu.regs().read(regs::O0), 42);
        assert_eq!(cpu.stats().instructions, 3);
    }

    #[test]
    fn sethi_or_builds_large_constants() {
        let (cpu, _) = run_asm(|asm| {
            asm.push(Instr::Sethi { rd: regs::O1, imm22: 0x12345 });
            asm.push(Instr::alu(AluOp::Or, regs::O1, regs::O1, Op2::Imm(0x1FF)));
            asm.push(Instr::Halt);
        });
        assert_eq!(cpu.regs().read(regs::O1), (0x12345 << 10) | 0x1FF);
    }

    #[test]
    fn loads_and_stores() {
        let (cpu, bus) = run_asm(|asm| {
            asm.push(Instr::mov_imm(regs::O0, 0x200));
            asm.push(Instr::mov_imm(regs::O1, 99));
            asm.push(Instr::Store {
                kind: StoreKind::Stx,
                rs: regs::O1,
                rs1: regs::O0,
                op2: Op2::Imm(8),
            });
            asm.push(Instr::Load {
                kind: LoadKind::Ldx,
                rd: regs::O2,
                rs1: regs::O0,
                op2: Op2::Imm(8),
            });
            asm.push(Instr::Halt);
        });
        assert_eq!(cpu.regs().read(regs::O2), 99);
        assert_eq!(bus.memory().read_u64(0x208), 99);
    }

    #[test]
    fn delay_slot_executes_on_taken_branch() {
        let (cpu, _) = run_asm(|asm| {
            asm.push(Instr::mov_imm(regs::O0, 0));
            asm.branch(ICond::Always, "skip");
            asm.push(Instr::mov_imm(regs::O0, 1)); // delay slot: executes
            asm.push(Instr::mov_imm(regs::O0, 2)); // skipped
            asm.label("skip");
            asm.push(Instr::Halt);
        });
        assert_eq!(cpu.regs().read(regs::O0), 1, "delay slot ran, skipped instr did not");
    }

    #[test]
    fn counted_loop_runs_correct_iterations() {
        let (cpu, _) = run_asm(|asm| {
            asm.push(Instr::mov_imm(regs::O0, 10)); // counter
            asm.push(Instr::mov_imm(regs::O1, 0)); // accumulator
            asm.label("loop");
            asm.push(Instr::alu(AluOp::Add, regs::O1, regs::O1, Op2::Imm(3)));
            asm.push(Instr::alu(AluOp::SubCc, regs::O0, regs::O0, Op2::Imm(1)));
            asm.branch(ICond::Ne, "loop");
            asm.push(Instr::Nop); // delay slot
            asm.push(Instr::Halt);
        });
        assert_eq!(cpu.regs().read(regs::O1), 30);
    }

    #[test]
    fn branch_reg_loop() {
        let (cpu, _) = run_asm(|asm| {
            asm.push(Instr::mov_imm(regs::O0, 5));
            asm.push(Instr::mov_imm(regs::O1, 0));
            asm.label("loop");
            asm.push(Instr::alu(AluOp::Add, regs::O1, regs::O1, Op2::Imm(1)));
            asm.push(Instr::alu(AluOp::Sub, regs::O0, regs::O0, Op2::Imm(1)));
            asm.branch_reg(RCond::NonZero, regs::O0, "loop");
            asm.push(Instr::Nop);
            asm.push(Instr::Halt);
        });
        assert_eq!(cpu.regs().read(regs::O1), 5);
    }

    #[test]
    fn fp_pipeline() {
        let (cpu, _) = run_asm(|asm| {
            // Build 2.0 and 0.5 in fp regs via memory-free conversion path:
            asm.push(Instr::mov_imm(regs::O0, 2));
            asm.push(Instr::mov_imm(regs::O1, 0x300));
            asm.push(Instr::Store {
                kind: StoreKind::Stx,
                rs: regs::O0,
                rs1: regs::O1,
                op2: Op2::Imm(0),
            });
            asm.push(Instr::LoadF { rd: FReg::new(0), rs1: regs::O1, op2: Op2::Imm(0) });
            asm.push(Instr::Fpu {
                op: FpOp::Xtod,
                rd: FReg::new(1),
                rs1: FReg::new(0),
                rs2: FReg::new(0),
            });
            // f1 = 2.0; f2 = f1 + f1 = 4.0; f3 = sqrt(f2) = 2.0
            asm.push(Instr::Fpu {
                op: FpOp::Addd,
                rd: FReg::new(2),
                rs1: FReg::new(1),
                rs2: FReg::new(1),
            });
            asm.push(Instr::Fpu {
                op: FpOp::Sqrtd,
                rd: FReg::new(3),
                rs1: FReg::new(3),
                rs2: FReg::new(2),
            });
            asm.push(Instr::Halt);
        });
        assert_eq!(cpu.fregs().read_f64(FReg::new(2)), 4.0);
        assert_eq!(cpu.fregs().read_f64(FReg::new(3)), 2.0);
        assert!(cpu.stats().stall_count(StallCause::Fp) > 0, "fp latency charged");
    }

    #[test]
    fn fcmp_and_fbranch() {
        let (cpu, _) = run_asm(|asm| {
            asm.push(Instr::mov_imm(regs::O0, 1));
            asm.push(Instr::mov_imm(regs::O1, 0x300));
            asm.push(Instr::Store {
                kind: StoreKind::Stx,
                rs: regs::O0,
                rs1: regs::O1,
                op2: Op2::Imm(0),
            });
            asm.push(Instr::LoadF { rd: FReg::new(0), rs1: regs::O1, op2: Op2::Imm(0) });
            asm.push(Instr::Fpu {
                op: FpOp::Xtod,
                rd: FReg::new(0),
                rs1: FReg::new(0),
                rs2: FReg::new(0),
            }); // f0 = 1.0
            asm.push(Instr::Fpu {
                op: FpOp::Addd,
                rd: FReg::new(1),
                rs1: FReg::new(0),
                rs2: FReg::new(0),
            }); // f1 = 2.0
            asm.push(Instr::FCmp { rs1: FReg::new(0), rs2: FReg::new(1) }); // 1.0 < 2.0
            asm.branch_f(dyser_isa::FCond::Lt, "less");
            asm.push(Instr::Nop);
            asm.push(Instr::mov_imm(regs::O5, 111)); // skipped
            asm.label("less");
            asm.push(Instr::mov_imm(regs::O4, 222));
            asm.push(Instr::Halt);
        });
        assert_eq!(cpu.regs().read(regs::O4), 222);
        assert_eq!(cpu.regs().read(regs::O5), 0);
    }

    #[test]
    fn movcc_selects() {
        let (cpu, _) = run_asm(|asm| {
            asm.push(Instr::mov_imm(regs::O0, 3));
            asm.push(Instr::cmp(regs::O0, Op2::Imm(5))); // 3 < 5
            asm.push(Instr::mov_imm(regs::O1, 100));
            asm.push(Instr::MovCc { cond: ICond::Lt, rd: regs::O1, op2: Op2::Imm(7) });
            asm.push(Instr::MovCc { cond: ICond::Gt, rd: regs::O1, op2: Op2::Imm(9) });
            asm.push(Instr::Halt);
        });
        assert_eq!(cpu.regs().read(regs::O1), 7, "only the true-condition move lands");
    }

    #[test]
    fn call_and_return() {
        let (cpu, _) = run_asm(|asm| {
            asm.push(Instr::mov_imm(regs::O0, 1));
            asm.call("f");
            asm.push(Instr::Nop); // delay slot
            asm.push(Instr::alu(AluOp::Add, regs::O0, regs::O0, Op2::Imm(10)));
            asm.push(Instr::Halt);
            asm.label("f");
            asm.push(Instr::alu(AluOp::Add, regs::O0, regs::O0, Op2::Imm(100)));
            // Return: jmpl %o7 + 8, %g0 (skip call + delay slot).
            asm.push(Instr::Jmpl { rd: regs::G0, rs1: regs::O7, op2: Op2::Imm(8) });
            asm.push(Instr::Nop); // delay slot
        });
        assert_eq!(cpu.regs().read(regs::O0), 111, "call body and fall-through both ran");
    }

    #[test]
    fn load_use_stall_charged() {
        let (cpu, _) = run_asm(|asm| {
            asm.push(Instr::mov_imm(regs::O0, 0x400));
            asm.push(Instr::Load {
                kind: LoadKind::Ldx,
                rd: regs::O1,
                rs1: regs::O0,
                op2: Op2::Imm(0),
            });
            asm.push(Instr::alu(AluOp::Add, regs::O2, regs::O1, Op2::Imm(1))); // uses loaded value
            asm.push(Instr::Halt);
        });
        assert_eq!(cpu.stats().stall_count(StallCause::LoadUse), 1);
    }

    #[test]
    fn no_load_use_stall_with_gap() {
        let (cpu, _) = run_asm(|asm| {
            asm.push(Instr::mov_imm(regs::O0, 0x400));
            asm.push(Instr::Load {
                kind: LoadKind::Ldx,
                rd: regs::O1,
                rs1: regs::O0,
                op2: Op2::Imm(0),
            });
            asm.push(Instr::Nop);
            asm.push(Instr::alu(AluOp::Add, regs::O2, regs::O1, Op2::Imm(1)));
            asm.push(Instr::Halt);
        });
        assert_eq!(cpu.stats().stall_count(StallCause::LoadUse), 0);
    }

    #[test]
    fn taken_branch_costs_more_than_fallthrough() {
        let taken = run_asm(|asm| {
            asm.push(Instr::cmp(regs::G0, Op2::Imm(0))); // equal
            asm.branch(ICond::Eq, "t");
            asm.push(Instr::Nop);
            asm.label("t");
            asm.push(Instr::Halt);
        })
        .0;
        let untaken = run_asm(|asm| {
            asm.push(Instr::cmp(regs::G0, Op2::Imm(0)));
            asm.branch(ICond::Ne, "t");
            asm.push(Instr::Nop);
            asm.label("t");
            asm.push(Instr::Halt);
        })
        .0;
        assert!(taken.stats().cycles > untaken.stats().cycles);
        assert_eq!(taken.stats().stall_count(StallCause::Branch), 1);
        assert_eq!(untaken.stats().stall_count(StallCause::Branch), 0);
    }

    #[test]
    fn muldiv_occupancy_charged() {
        let (cpu, _) = run_asm(|asm| {
            asm.push(Instr::mov_imm(regs::O0, 6));
            asm.push(Instr::alu(AluOp::Mulx, regs::O1, regs::O0, Op2::Imm(7)));
            asm.push(Instr::alu(AluOp::Sdivx, regs::O2, regs::O1, Op2::Imm(6)));
            asm.push(Instr::Halt);
        });
        assert_eq!(cpu.regs().read(regs::O1), 42);
        assert_eq!(cpu.regs().read(regs::O2), 7);
        let expected = u64::from(AluOp::Mulx.latency() - 1 + AluOp::Sdivx.latency() - 1);
        assert_eq!(cpu.stats().stall_count(StallCause::IntMulDiv), expected);
    }

    #[test]
    fn simcall_logs_o0() {
        let (cpu, _) = run_asm(|asm| {
            asm.push(Instr::mov_imm(regs::O0, 55));
            asm.push(Instr::SimCall { code: 0 });
            asm.push(Instr::Halt);
        });
        assert_eq!(cpu.simcall_log(), &[(0, 55)]);
    }

    #[test]
    fn cycle_accounting_is_exact_for_straightline_code() {
        // n ALU instructions + halt on a 1-cycle bus: exactly n + 1 cycles.
        let (cpu, _) = run_asm(|asm| {
            for _ in 0..10 {
                asm.push(Instr::alu(AluOp::Add, regs::O0, regs::O0, Op2::Imm(1)));
            }
            asm.push(Instr::Halt);
        });
        assert_eq!(cpu.stats().cycles, 11);
        assert_eq!(cpu.stats().cpi(), 1.0);
    }

    #[test]
    fn dyser_instr_without_accelerator_fails() {
        let mut asm = Assembler::new();
        asm.push(Instr::Dyser(DyserInstr::Init { config: dyser_isa::ConfigId::new(0) }));
        asm.push(Instr::Halt);
        let words = asm.assemble().unwrap();
        let mut bus = SimpleBus::new();
        bus.memory_mut().write_code(ENTRY, &words);
        let mut cpu = Pipeline::new(ENTRY);
        let err = cpu.run(&mut bus, &mut NullCoproc, 100).unwrap_err();
        assert!(matches!(err, CoreError::Coproc { .. }));
        assert!(cpu.halted(), "core halts on fatal errors");
    }

    #[test]
    fn illegal_instruction_faults() {
        let mut bus = SimpleBus::new();
        bus.memory_mut().write_u32(ENTRY, 0x0000_0000); // op=00, op2=0: illegal
        let mut cpu = Pipeline::new(ENTRY);
        let err = cpu.run(&mut bus, &mut NullCoproc, 10).unwrap_err();
        assert!(matches!(err, CoreError::Decode { pc: ENTRY, .. }));
    }

    #[test]
    fn icache_latency_charged() {
        let mut asm = Assembler::new();
        asm.push(Instr::Nop);
        asm.push(Instr::Halt);
        let words = asm.assemble().unwrap();
        let mut bus = SimpleBus::new();
        bus.fetch_latency = 3;
        bus.memory_mut().write_code(ENTRY, &words);
        let mut cpu = Pipeline::new(ENTRY);
        cpu.run(&mut bus, &mut NullCoproc, 100).unwrap();
        assert_eq!(cpu.stats().stall_count(StallCause::ICache), 2, "nop's extra fetch cycles");
    }
}
