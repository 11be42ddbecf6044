//! Code generation: from IR to SPARC-DySER machine code.
//!
//! One back end serves both evaluation binaries:
//!
//! * **baseline** — every instruction lowered to scalar SPARC code;
//! * **accelerated** — each selected region's compute slice is deleted
//!   from the instruction stream and replaced by the DySER interface
//!   protocol: `dinit` in the loop preheader, `dload`/`dsend` where the
//!   inputs arise, `drecv` where core-consumed results were defined, and
//!   `dstore` for store-only results — *software-pipelined several
//!   iterations deep* (the depth picked per region from the spatial
//!   schedule's critical path) so consecutive fabric invocations overlap.
//!
//! Lowering details:
//!
//! * linear-scan register allocation over SSA values with spilling to a
//!   fixed frame (`%g6` holds the frame base; `%g5`/`%g7`/`%f30`/`%f31`
//!   are reserved scratch),
//! * phi elimination by parallel copies at predecessor ends (cycles broken
//!   through scratch),
//! * compare-and-branch fusion for single-use conditions,
//! * `f64` constants in a constant pool loaded at a fixed address,
//! * SPARC delay slots filled with `nop` (a deliberate simplification —
//!   both binaries pay it equally).

use std::collections::{HashMap, HashSet};
use std::fmt;

use dyser_fabric::FabricConfig;
use dyser_isa::{
    regs, AluOp, AsmError, Assembler, ConfigId, DyserInstr, FCond, FReg, ICond, Instr, LoadKind,
    Op2, Port, RCond, Reg, StoreKind,
};

use crate::analysis::Cfg;
use crate::dyser::region::{OutputKind, Region, RegionInput};
use crate::ir::{BinOp, Block, CmpOp, Function, Inst, Terminator, Type, UnOp, Value, ValueKind};
use crate::schedule::Schedule;

/// Where generated code is placed in physical memory.
pub const CODE_BASE: u64 = 0x1_0000;
/// Where the `f64` constant pool is placed.
pub const POOL_BASE: u64 = 0xC000;
/// Where the spill frame is placed (`%g6` points here).
pub const SPILL_BASE: u64 = 0x8000;

/// Spill slot 0 is the int<->fp conversion staging slot.
const CONV_SLOT: i16 = 0;

/// A compiled program image.
#[derive(Debug, Clone)]
pub struct Program {
    /// Encoded instruction words, to be written at [`Program::entry`].
    pub code: Vec<u32>,
    /// The resolved instruction listing (disassembly view of `code`).
    pub listing: Vec<Instr>,
    /// Entry address.
    pub entry: u64,
    /// Constant-pool words, to be written at [`POOL_BASE`].
    pub pool: Vec<u64>,
    /// Number of spill slots used (8 bytes each at [`SPILL_BASE`]).
    pub spill_slots: usize,
    /// Fabric configuration table (`dinit N` loads `configs[N]`).
    pub configs: Vec<FabricConfig>,
}

impl Program {
    /// Static instruction count.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// A human-readable listing.
    pub fn disassemble(&self) -> String {
        let mut s = String::new();
        for (i, instr) in self.listing.iter().enumerate() {
            s.push_str(&format!("{:#08x}:  {instr}\n", self.entry + 4 * i as u64));
        }
        s
    }
}

/// Code-generation failures.
#[derive(Debug, Clone, PartialEq)]
pub enum CodegenError {
    /// More than six parameters (the `%o0..%o5` convention).
    TooManyParams {
        /// The function name.
        function: String,
    },
    /// The spill frame overflowed its addressable range.
    FrameOverflow,
    /// Internal assembler failure (a codegen bug).
    Asm(AsmError),
    /// A region references state codegen cannot honour.
    BadRegion(String),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::TooManyParams { function } => {
                write!(f, "function `{function}` has more than 6 parameters")
            }
            CodegenError::FrameOverflow => write!(f, "spill frame exceeds the imm13 range"),
            CodegenError::Asm(e) => write!(f, "assembler error: {e}"),
            CodegenError::BadRegion(m) => write!(f, "bad region: {m}"),
        }
    }
}

impl std::error::Error for CodegenError {}

impl From<AsmError> for CodegenError {
    fn from(e: AsmError) -> Self {
        CodegenError::Asm(e)
    }
}

/// Where a value lives at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    IReg(Reg),
    FReg(FReg),
    Spill(i16),
    /// Pure fabric-internal value: no core location.
    None,
}

/// Scratch registers (never allocated).
const SCRATCH_A: Reg = regs::G7;
const SCRATCH_B: Reg = regs::G5;
const FRAME: Reg = regs::G6;
const FSCRATCH_A: FReg = FReg::new(30);
const FSCRATCH_B: FReg = FReg::new(31);

fn int_pool() -> Vec<Reg> {
    // l0-l7, i0-i5, g1-g4 (o-regs are the parameter registers, g5-g7
    // reserved). Listed in allocation preference order.
    let mut v = Vec::new();
    for i in 16..24 {
        v.push(Reg::new(i)); // locals
    }
    for i in 24..30 {
        v.push(Reg::new(i)); // ins
    }
    for i in 1..5 {
        v.push(Reg::new(i)); // globals 1-4
    }
    v
}

fn fp_pool() -> Vec<FReg> {
    (0..30).map(FReg::new).collect()
}

/// Per-region codegen state.
struct RegionCtx {
    region: Region,
    config_id: u16,
    /// Store-only outputs software-pipelined `lag_depth` iterations deep:
    /// `(output port, store ptr value, rotating address registers)` where
    /// `prevs[0]` holds the newest deferred address and `prevs[D-1]` the
    /// oldest.
    lagged: Vec<(usize, Value, Vec<Reg>)>,
    /// Store-only outputs stored immediately (lagging disabled):
    /// `store value -> output index`.
    immediate_stores: HashMap<Value, usize>,
    /// Counts down from `lag_depth`; zero once the pipeline is full.
    warmup: Reg,
    /// The lag depth in use for this region.
    lag_depth: usize,
    /// Input port by IR value.
    input_port: HashMap<Value, usize>,
    /// Output port by IR value.
    output_port: HashMap<Value, usize>,
    /// Values in the compute slice.
    compute: HashSet<Value>,
    /// Compute values received into core registers.
    core_use: HashSet<Value>,
}

/// Options for code generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CodegenOptions {
    /// Lag store-only outputs behind the sends (requires the kernel's
    /// loads and stores to be independent across `lag_depth` adjacent
    /// iterations — guaranteed by the workload suite; see `DESIGN.md`).
    pub lag_stores: bool,
    /// Upper bound on how many iterations deep to pipeline store-only
    /// outputs (1..=4). The code generator picks the actual depth per
    /// region from the spatial schedule's critical-path estimate: deep
    /// fabric pipelines need deep lag to stay full, while shallow ones
    /// only pay rotation overhead for it.
    pub lag_depth: usize,
}

impl Default for CodegenOptions {
    fn default() -> Self {
        CodegenOptions { lag_stores: true, lag_depth: 4 }
    }
}

/// Generates the scalar baseline program.
///
/// # Errors
///
/// Returns a [`CodegenError`] on convention violations or internal
/// assembly failures.
pub fn codegen_baseline(f: &Function) -> Result<Program, CodegenError> {
    FnCodegen::new(f, Vec::new(), CodegenOptions::default())?.run()
}

/// Generates the DySER-accelerated program: each `(region, schedule)`
/// pair's compute slice is replaced by interface code.
///
/// # Errors
///
/// Returns a [`CodegenError`] on convention violations, inconsistent
/// regions, or internal assembly failures.
pub fn codegen_accel(
    f: &Function,
    regions: Vec<(Region, Schedule)>,
    options: CodegenOptions,
) -> Result<Program, CodegenError> {
    FnCodegen::new(f, regions, options)?.run()
}

struct FnCodegen<'f> {
    f: &'f Function,
    order: Vec<Block>,
    cfg: Cfg,
    /// Linear index of every reachable block's start and end, by block
    /// index.
    block_range: Vec<Option<(usize, usize)>>,
    /// Definition index of every instruction value in a reachable block,
    /// by value index.
    def_idx: Vec<usize>,
    /// Location of every value, by value index.
    loc: Vec<Loc>,
    regions: HashMap<Block, RegionCtx>,
    spill_slots: usize,
    pool: Vec<u64>,
    pool_index: HashMap<u64, usize>,
    asm: Assembler,
    label_counter: usize,
    /// Conditions fused into their block's terminator.
    fused: HashMap<Block, Value>,
    configs: Vec<FabricConfig>,
}

impl<'f> FnCodegen<'f> {
    fn new(
        f: &'f Function,
        region_scheds: Vec<(Region, Schedule)>,
        options: CodegenOptions,
    ) -> Result<Self, CodegenError> {
        if f.params().len() > 6 {
            return Err(CodegenError::TooManyParams { function: f.name().to_owned() });
        }
        let cfg = Cfg::compute(f);
        let order: Vec<Block> = cfg.rpo().to_vec();

        // Linear indices: one slot per instruction, plus one slot for each
        // block start (phi defs) and end (copies/terminator).
        let mut idx = 0usize;
        let mut block_range = vec![None; f.block_count()];
        let mut def_idx = vec![0; f.value_count()];
        for &b in &order {
            let start = idx;
            idx += 1; // block start slot
            for &v in &f.block(b).insts {
                def_idx[v.index()] = idx;
                idx += 1;
            }
            let end = idx;
            idx += 1; // block end slot
            block_range[b.index()] = Some((start, end));
        }

        // Reserve region registers from the back of the int pool.
        let mut pool = int_pool();
        let mut regions = HashMap::new();
        let mut configs = Vec::new();
        for (region, schedule) in region_scheds {
            let mut lagged = Vec::new();
            let mut immediate_stores = HashMap::new();
            let mut output_port = HashMap::new();
            let mut core_use = HashSet::new();
            // Depth heuristic: one extra iteration of lag per ~32 cycles of
            // fabric critical path, bounded by the option.
            let depth = ((schedule.depth_estimate as usize + 16) / 32)
                .clamp(1, options.lag_depth.clamp(1, 4));
            // Lagging reorders store-only outputs relative to every other
            // store in the body — other lagged outputs, but also plain
            // core-side `stx`s (e.g. a folded value that never enters the
            // fabric). When any two stores in the body go through the same
            // pointer value the hazard is statically visible, and lag
            // reordering would let the earlier store win — fall back to
            // immediate in-order `dstore`s for the whole region.
            let mut store_ptrs = HashSet::new();
            let mut stores_may_alias = false;
            for &v in &f.block(region.body).insts {
                if let Some(Inst::Store { ptr, .. }) = f.as_inst(v) {
                    stores_may_alias |= !store_ptrs.insert(*ptr);
                }
            }
            let lag_ok = options.lag_stores && !stores_may_alias;
            for (j, out) in region.outputs.iter().enumerate() {
                output_port.insert(out.value, schedule.output_ports[j]);
                match &out.kind {
                    OutputKind::StoreOnly { stores } => {
                        // One fabric output value arrives per invocation, so
                        // `dstore` can consume it exactly once. The common
                        // single-store case is lagged (software-pipelined);
                        // it falls back to an immediate dstore when the pool
                        // cannot spare rotation registers. A value stored to
                        // *several* locations is received into a register
                        // instead — two dstores on one port would each wait
                        // for their own value and deadlock.
                        if stores.len() != 1 {
                            core_use.insert(out.value);
                        } else if lag_ok && pool.len() > depth + 4 {
                            let store = stores[0];
                            let Some(Inst::Store { ptr, .. }) = f.as_inst(store) else {
                                return Err(CodegenError::BadRegion(
                                    "store-only output without a store".into(),
                                ));
                            };
                            let prevs: Vec<Reg> =
                                (0..depth).map(|_| pool.pop().expect("len checked")).collect();
                            lagged.push((schedule.output_ports[j], *ptr, prevs));
                        } else {
                            immediate_stores.insert(stores[0], schedule.output_ports[j]);
                        }
                    }
                    OutputKind::CoreUse => {
                        core_use.insert(out.value);
                    }
                }
            }
            let warmup = pool.pop().ok_or(CodegenError::FrameOverflow)?;
            let mut input_port = HashMap::new();
            for (i, input) in region.inputs.iter().enumerate() {
                input_port.insert(input.value(), schedule.input_ports[i]);
            }
            let config_id = configs.len() as u16;
            configs.push(schedule.config.clone());
            let compute: HashSet<Value> = region.compute.iter().copied().collect();
            regions.insert(
                region.body,
                RegionCtx {
                    region,
                    config_id,
                    lagged,
                    immediate_stores,
                    warmup,
                    lag_depth: depth,
                    input_port,
                    output_port,
                    compute,
                    core_use,
                },
            );
        }

        let mut cg = FnCodegen {
            f,
            order,
            cfg,
            block_range,
            def_idx,
            loc: vec![Loc::None; f.value_count()],
            regions,
            spill_slots: 1, // slot 0 = conversion staging
            pool: Vec::new(),
            pool_index: HashMap::new(),
            asm: Assembler::new(),
            label_counter: 0,
            fused: HashMap::new(),
            configs,
        };
        cg.allocate(pool)?;
        cg.find_fusions();
        Ok(cg)
    }

    // ---------------- register allocation ----------------

    /// Values that never need a core location.
    fn needs_no_loc(&self, v: Value) -> bool {
        if self.f.ty(v) == Type::Unit || self.f.is_const(v) {
            return true;
        }
        for ctx in self.regions.values() {
            if ctx.compute.contains(&v) && !ctx.core_use.contains(&v) {
                return true;
            }
            if let Some(Inst::Load { .. }) = self.f.as_inst(v) {
                if matches!(
                    ctx.region.inputs.iter().find(|i| i.value() == v),
                    Some(RegionInput::Load { .. })
                ) {
                    return true;
                }
            }
        }
        false
    }

    fn allocate(&mut self, ipool: Vec<Reg>) -> Result<(), CodegenError> {
        // Build live intervals.
        #[derive(Debug, Clone, Copy)]
        struct Interval {
            start: usize,
            end: usize,
        }
        // By value index; `None` for values never defined or used.
        let mut intervals: Vec<Option<Interval>> = vec![None; self.f.value_count()];
        let touch = |map: &mut Vec<Option<Interval>>, v: Value, at: usize| {
            let e = map[v.index()].get_or_insert(Interval { start: at, end: at });
            e.start = e.start.min(at);
            e.end = e.end.max(at);
        };

        // Params are defined at index 0.
        for i in 0..self.f.params().len() {
            touch(&mut intervals, self.f.param(i), 0);
        }
        for &b in &self.order {
            let (bstart, bend) =
                self.block_range[b.index()].expect("blocks in order are reachable");
            for &v in &self.f.block(b).insts {
                let at = self.def_idx[v.index()];
                let Some(inst) = self.f.as_inst(v) else { continue };
                if matches!(inst, Inst::Phi { .. }) {
                    // Phi defined at block start; copy points handled below.
                    touch(&mut intervals, v, bstart);
                } else {
                    touch(&mut intervals, v, at);
                    for o in self.f.operands(v) {
                        if !self.f.is_const(o) {
                            touch(&mut intervals, o, at);
                        }
                    }
                }
            }
            // Terminator condition used at block end.
            if let Terminator::CondBr { cond, .. } = &self.f.block(b).term {
                if !self.f.is_const(*cond) {
                    touch(&mut intervals, *cond, bend);
                }
            }
            if let Terminator::Ret(Some(v)) = &self.f.block(b).term {
                if !self.f.is_const(*v) {
                    touch(&mut intervals, *v, bend);
                }
            }
            // Phi copies: at the end of each predecessor, the incoming
            // value is read and the phi location written.
            for &s in self.cfg.succs(b) {
                for &pv in &self.f.block(s).insts {
                    if let Some(Inst::Phi { incomings }) = self.f.as_inst(pv) {
                        for (pred, iv) in incomings {
                            if *pred == b {
                                if !self.f.is_const(*iv) {
                                    touch(&mut intervals, *iv, bend);
                                }
                                touch(&mut intervals, pv, bend);
                            }
                        }
                    }
                }
            }
            // Region extras: lagged store addresses are read at block end
            // (the rotation move) and in the exit block (the drain).
            if let Some(ctx) = self.regions.get(&b) {
                for (_, ptr, _) in &ctx.lagged {
                    touch(&mut intervals, *ptr, bend);
                }
            }
        }

        // Values live into a loop stay live across its back edge: extend
        // their intervals to the loop's end, or the allocator would hand
        // their registers to loop-local values and clobber them on the
        // second iteration.
        {
            let dom = crate::analysis::DomTree::compute(self.f, &self.cfg);
            let forest = crate::analysis::LoopForest::compute(self.f, &self.cfg, &dom);
            let spans: Vec<(usize, usize)> = forest
                .loops()
                .iter()
                .filter_map(|l| {
                    let mut lo = usize::MAX;
                    let mut hi = 0usize;
                    for b in &l.blocks {
                        let Some((s, e)) = self.block_range[b.index()] else { continue };
                        lo = lo.min(s);
                        hi = hi.max(e);
                    }
                    (lo != usize::MAX).then_some((lo, hi))
                })
                .collect();
            let mut changed = true;
            while changed {
                changed = false;
                for iv in intervals.iter_mut().flatten() {
                    for &(lo, hi) in &spans {
                        if iv.start < lo && iv.end >= lo && iv.end < hi {
                            iv.end = hi;
                            changed = true;
                        }
                    }
                }
            }
        }

        // Linear scan, separate int and fp pools.
        let mut items: Vec<(Value, Interval)> = intervals
            .into_iter()
            .enumerate()
            .filter_map(|(i, iv)| Some((Value(i as u32), iv?)))
            .filter(|(v, _)| !self.needs_no_loc(*v))
            .collect();
        items.sort_by_key(|(v, i)| (i.start, v.index()));

        let mut free_i = ipool;
        let mut free_f = fp_pool();
        let mut active: Vec<(Value, Interval)> = Vec::new();

        for (v, iv) in items {
            // Expire.
            let mut still_active = Vec::new();
            for (av, ai) in active.drain(..) {
                if ai.end < iv.start {
                    match self.loc[av.index()] {
                        Loc::IReg(r) => free_i.push(r),
                        Loc::FReg(r) => free_f.push(r),
                        _ => {}
                    }
                } else {
                    still_active.push((av, ai));
                }
            }
            active = still_active;

            let is_fp = self.f.ty(v) == Type::F64;
            let assigned = if is_fp {
                free_f.pop().map(Loc::FReg)
            } else {
                free_i.pop().map(Loc::IReg)
            };
            match assigned {
                Some(loc) => {
                    self.loc[v.index()] = loc;
                    active.push((v, iv));
                }
                None => {
                    // Spill the active interval (same class) ending last.
                    let victim = active
                        .iter()
                        .enumerate()
                        .filter(|(_, (av, _))| (self.f.ty(*av) == Type::F64) == is_fp)
                        .max_by_key(|(_, (_, ai))| ai.end)
                        .map(|(k, _)| k);
                    match victim {
                        Some(k) if active[k].1.end > iv.end => {
                            let (vv, _) = active.remove(k);
                            let freed = self.loc[vv.index()];
                            let slot = self.new_spill()?;
                            self.loc[vv.index()] = slot;
                            self.loc[v.index()] = freed;
                            active.push((v, iv));
                        }
                        _ => {
                            let slot = self.new_spill()?;
                            self.loc[v.index()] = slot;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn new_spill(&mut self) -> Result<Loc, CodegenError> {
        let slot = self.spill_slots as i16;
        self.spill_slots += 1;
        if 8 * (slot as i64) > i64::from(Op2::IMM_MAX) {
            return Err(CodegenError::FrameOverflow);
        }
        Ok(Loc::Spill(slot))
    }

    /// Finds compare instructions fusible into their block terminator.
    fn find_fusions(&mut self) {
        // Count uses of every value.
        let mut uses: HashMap<Value, usize> = HashMap::new();
        for b in self.f.blocks() {
            for &v in &self.f.block(b).insts {
                for o in self.f.operands(v) {
                    *uses.entry(o).or_insert(0) += 1;
                }
            }
            match &self.f.block(b).term {
                Terminator::CondBr { cond, .. } => *uses.entry(*cond).or_insert(0) += 1,
                Terminator::Ret(Some(v)) => *uses.entry(*v).or_insert(0) += 1,
                _ => {}
            }
        }
        for &b in &self.order {
            let Terminator::CondBr { cond, .. } = self.f.block(b).term else { continue };
            if uses.get(&cond) != Some(&1) {
                continue;
            }
            if !self.f.block(b).insts.contains(&cond) {
                continue;
            }
            if !matches!(self.f.as_inst(cond), Some(Inst::Cmp { .. })) {
                continue;
            }
            // Compute-slice conditions are received, not computed.
            if self.regions.get(&b).is_some_and(|ctx| ctx.compute.contains(&cond)) {
                continue;
            }
            self.fused.insert(b, cond);
        }
    }

    // ---------------- emission helpers ----------------

    fn loc_of(&self, v: Value) -> Loc {
        self.loc[v.index()]
    }

    fn fresh_label(&mut self, what: &str) -> String {
        self.label_counter += 1;
        format!("{}_{}", what, self.label_counter)
    }

    fn block_label(b: Block) -> String {
        format!("blk{}", b.index())
    }

    fn emit(&mut self, i: Instr) {
        self.asm.push(i);
    }

    /// Loads slot `slot` into `rd`.
    fn emit_reload_int(&mut self, rd: Reg, slot: i16) {
        self.emit(Instr::Load {
            kind: LoadKind::Ldx,
            rd,
            rs1: FRAME,
            op2: Op2::Imm(slot * 8),
        });
    }

    fn emit_spill_int(&mut self, rs: Reg, slot: i16) {
        self.emit(Instr::Store { kind: StoreKind::Stx, rs, rs1: FRAME, op2: Op2::Imm(slot * 8) });
    }

    fn emit_reload_fp(&mut self, rd: FReg, slot: i16) {
        self.emit(Instr::LoadF { rd, rs1: FRAME, op2: Op2::Imm(slot * 8) });
    }

    fn emit_spill_fp(&mut self, rs: FReg, slot: i16) {
        self.emit(Instr::StoreF { rs, rs1: FRAME, op2: Op2::Imm(slot * 8) });
    }

    /// Materialises an arbitrary 64-bit constant into `rd`.
    fn emit_materialize(&mut self, rd: Reg, c: u64) {
        if Op2::fits_imm(c as i64) {
            self.emit(Instr::mov_imm(rd, c as i64 as i16));
        } else if c < (1u64 << 32) {
            self.emit(Instr::Sethi { rd, imm22: (c >> 10) as u32 });
            let low = (c & 0x3FF) as i16;
            if low != 0 {
                self.emit(Instr::alu(AluOp::Or, rd, rd, Op2::Imm(low)));
            }
        } else {
            // General path: six 11-bit chunks, shift-or.
            self.emit(Instr::mov_imm(rd, 0));
            for k in (0..6).rev() {
                self.emit(Instr::alu(AluOp::Sllx, rd, rd, Op2::Imm(11)));
                let chunk = ((c >> (11 * k)) & 0x7FF) as i16;
                if chunk != 0 {
                    self.emit(Instr::alu(AluOp::Or, rd, rd, Op2::Imm(chunk)));
                }
            }
        }
    }

    /// Ensures `v` is in an integer register; reloads/materialises into
    /// `scratch` when needed.
    fn int_reg(&mut self, v: Value, scratch: Reg) -> Reg {
        if let Some(c) = self.const_bits(v) {
            self.emit_materialize(scratch, c);
            return scratch;
        }
        match self.loc_of(v) {
            Loc::IReg(r) => r,
            Loc::Spill(slot) => {
                self.emit_reload_int(scratch, slot);
                scratch
            }
            other => panic!("int_reg on {v:?} with location {other:?}"),
        }
    }

    /// Second ALU operand for `v`: an immediate when possible, else a
    /// register via `scratch`.
    fn int_op2(&mut self, v: Value, scratch: Reg) -> Op2 {
        if let Some(c) = self.const_bits(v) {
            if Op2::fits_imm(c as i64) {
                return Op2::Imm(c as i64 as i16);
            }
        }
        Op2::Reg(self.int_reg(v, scratch))
    }

    fn const_bits(&self, v: Value) -> Option<u64> {
        match self.f.value(v).kind {
            ValueKind::ConstI(c) => Some(c as u64),
            ValueKind::ConstF(c) => Some(c.to_bits()),
            _ => None,
        }
    }

    /// The pool address of an f64 constant.
    fn pool_slot(&mut self, bits: u64) -> u64 {
        let next = self.pool.len();
        let off = *self.pool_index.entry(bits).or_insert(next);
        if off == self.pool.len() {
            self.pool.push(bits);
        }
        POOL_BASE + 8 * off as u64
    }

    /// Ensures `v` is in an fp register; reloads into `scratch` (clobbers
    /// `SCRATCH_A` for pool addressing).
    fn fp_reg(&mut self, v: Value, scratch: FReg) -> FReg {
        if let Some(c) = self.const_bits(v) {
            let addr = self.pool_slot(c);
            self.emit_materialize(SCRATCH_A, addr);
            self.emit(Instr::LoadF { rd: scratch, rs1: SCRATCH_A, op2: Op2::Imm(0) });
            return scratch;
        }
        match self.loc_of(v) {
            Loc::FReg(r) => r,
            Loc::Spill(slot) => {
                self.emit_reload_fp(scratch, slot);
                scratch
            }
            other => panic!("fp_reg on {v:?} with location {other:?}"),
        }
    }

    /// Destination staging: `(reg to compute into, spill slot to write)`.
    fn int_dest(&self, v: Value) -> (Reg, Option<i16>) {
        match self.loc_of(v) {
            Loc::IReg(r) => (r, None),
            Loc::Spill(slot) => (SCRATCH_A, Some(slot)),
            other => panic!("int_dest on {v:?} with location {other:?}"),
        }
    }

    fn fp_dest(&self, v: Value) -> (FReg, Option<i16>) {
        match self.loc_of(v) {
            Loc::FReg(r) => (r, None),
            Loc::Spill(slot) => (FSCRATCH_A, Some(slot)),
            other => panic!("fp_dest on {v:?} with location {other:?}"),
        }
    }

    fn finish_int_dest(&mut self, spill: Option<i16>) {
        if let Some(slot) = spill {
            self.emit_spill_int(SCRATCH_A, slot);
        }
    }

    fn finish_fp_dest(&mut self, spill: Option<i16>) {
        if let Some(slot) = spill {
            self.emit_spill_fp(FSCRATCH_A, slot);
        }
    }

    fn cmp_icond(op: CmpOp) -> ICond {
        match op {
            CmpOp::Eq => ICond::Eq,
            CmpOp::Ne => ICond::Ne,
            CmpOp::Slt => ICond::Lt,
            CmpOp::Sle => ICond::Le,
            CmpOp::Sgt => ICond::Gt,
            CmpOp::Sge => ICond::Ge,
            CmpOp::Ult => ICond::Ltu,
            _ => unreachable!("fp compare mapped separately"),
        }
    }

    fn cmp_fcond(op: CmpOp) -> FCond {
        match op {
            CmpOp::Feq => FCond::Eq,
            CmpOp::Flt => FCond::Lt,
            CmpOp::Fle => FCond::Le,
            _ => unreachable!("int compare mapped separately"),
        }
    }

    fn alu_for_bin(op: BinOp) -> Option<AluOp> {
        Some(match op {
            BinOp::Add => AluOp::Add,
            BinOp::Sub => AluOp::Sub,
            BinOp::Mul => AluOp::Mulx,
            BinOp::Sdiv => AluOp::Sdivx,
            BinOp::And => AluOp::And,
            BinOp::Or => AluOp::Or,
            BinOp::Xor => AluOp::Xor,
            BinOp::Shl => AluOp::Sllx,
            BinOp::Lshr => AluOp::Srlx,
            BinOp::Ashr => AluOp::Srax,
            _ => return None,
        })
    }

    fn fpu_for_bin(op: BinOp) -> Option<dyser_isa::FpOp> {
        use dyser_isa::FpOp;
        Some(match op {
            BinOp::Fadd => FpOp::Addd,
            BinOp::Fsub => FpOp::Subd,
            BinOp::Fmul => FpOp::Muld,
            BinOp::Fdiv => FpOp::Divd,
            BinOp::Fmax => FpOp::Maxd,
            BinOp::Fmin => FpOp::Mind,
            _ => return None,
        })
    }

    // ---------------- instruction emission ----------------

    fn emit_inst(&mut self, b: Block, v: Value) {
        let inst = self.f.as_inst(v).expect("emit_inst on an instruction").clone();
        match inst {
            Inst::Phi { .. } => { /* handled by predecessor copies */ }
            Inst::Bin { op, a, b: rhs } => self.emit_bin(v, op, a, rhs),
            Inst::Un { op, a } => self.emit_un(v, op, a),
            Inst::Cmp { op, a, b: rhs } => {
                if self.fused.get(&b) == Some(&v) {
                    // Emitted with the terminator.
                    return;
                }
                self.emit_cmp_materialize(v, op, a, rhs);
            }
            Inst::Select { cond, on_true, on_false } => {
                self.emit_select(v, cond, on_true, on_false)
            }
            Inst::Load { ptr } => {
                let addr = self.int_reg(ptr, SCRATCH_A);
                if self.f.ty(v) == Type::F64 {
                    let (rd, spill) = self.fp_dest(v);
                    self.emit(Instr::LoadF { rd, rs1: addr, op2: Op2::Imm(0) });
                    self.finish_fp_dest(spill);
                } else {
                    let (rd, spill) = self.int_dest(v);
                    // Reuse of SCRATCH_A as both address and destination is
                    // safe: the address is consumed before the write-back.
                    self.emit(Instr::Load { kind: LoadKind::Ldx, rd, rs1: addr, op2: Op2::Imm(0) });
                    self.finish_int_dest(spill);
                }
            }
            Inst::Store { ptr, value } => {
                if self.f.ty(value) == Type::F64 {
                    let vs = self.fp_reg(value, FSCRATCH_A);
                    let addr = self.int_reg(ptr, SCRATCH_A);
                    self.emit(Instr::StoreF { rs: vs, rs1: addr, op2: Op2::Imm(0) });
                } else {
                    let vs = self.int_reg(value, SCRATCH_B);
                    let addr = self.int_reg(ptr, SCRATCH_A);
                    self.emit(Instr::Store {
                        kind: StoreKind::Stx,
                        rs: vs,
                        rs1: addr,
                        op2: Op2::Imm(0),
                    });
                }
            }
            Inst::Gep { base, index, scale } => self.emit_gep(v, base, index, scale),
        }
    }

    fn emit_bin(&mut self, v: Value, op: BinOp, a: Value, rhs: Value) {
        if let Some(alu) = Self::alu_for_bin(op) {
            let ra = self.int_reg(a, SCRATCH_A);
            let o2 = self.int_op2(rhs, SCRATCH_B);
            let (rd, spill) = self.int_dest(v);
            self.emit(Instr::Alu { op: alu, rd, rs1: ra, op2: o2 });
            self.finish_int_dest(spill);
            return;
        }
        if let Some(fop) = Self::fpu_for_bin(op) {
            let fa = self.fp_reg(a, FSCRATCH_A);
            let fb = self.fp_reg(rhs, FSCRATCH_B);
            let (rd, spill) = self.fp_dest(v);
            self.emit(Instr::Fpu { op: fop, rd, rs1: fa, rs2: fb });
            self.finish_fp_dest(spill);
            return;
        }
        match op {
            BinOp::Smax | BinOp::Smin => {
                // rd = a; cmp a, b; mov<cond> rd, b
                let ra = self.int_reg(a, SCRATCH_A);
                let o2 = self.int_op2(rhs, SCRATCH_B);
                let (rd, spill) = self.int_dest(v);
                self.emit(Instr::cmp(ra, o2));
                if rd != ra {
                    self.emit(Instr::mov(rd, ra));
                }
                let cond = if op == BinOp::Smax { ICond::Lt } else { ICond::Gt };
                self.emit(Instr::MovCc { cond, rd, op2: o2 });
                self.finish_int_dest(spill);
            }
            _ => unreachable!("all binary ops covered"),
        }
    }

    fn emit_un(&mut self, v: Value, op: UnOp, a: Value) {
        use dyser_isa::FpOp;
        match op {
            UnOp::Fneg | UnOp::Fabs | UnOp::Fsqrt => {
                let fa = self.fp_reg(a, FSCRATCH_A);
                let (rd, spill) = self.fp_dest(v);
                let fop = match op {
                    UnOp::Fneg => FpOp::Negd,
                    UnOp::Fabs => FpOp::Absd,
                    _ => FpOp::Sqrtd,
                };
                self.emit(Instr::Fpu { op: fop, rd, rs1: rd, rs2: fa });
                self.finish_fp_dest(spill);
            }
            UnOp::Itof => {
                // Through the conversion staging slot.
                let ra = self.int_reg(a, SCRATCH_A);
                self.emit_spill_int(ra, CONV_SLOT);
                let (rd, spill) = self.fp_dest(v);
                self.emit_reload_fp(rd, CONV_SLOT);
                self.emit(Instr::Fpu { op: FpOp::Xtod, rd, rs1: rd, rs2: rd });
                self.finish_fp_dest(spill);
            }
            UnOp::Ftoi => {
                let fa = self.fp_reg(a, FSCRATCH_A);
                self.emit(Instr::Fpu {
                    op: FpOp::Dtox,
                    rd: FSCRATCH_B,
                    rs1: FSCRATCH_B,
                    rs2: fa,
                });
                self.emit_spill_fp(FSCRATCH_B, CONV_SLOT);
                let (rd, spill) = self.int_dest(v);
                self.emit_reload_int(rd, CONV_SLOT);
                self.finish_int_dest(spill);
            }
            UnOp::Not => {
                // rd = (a == 0) ? 1 : 0
                let ra = self.int_reg(a, SCRATCH_A);
                let (rd, spill) = self.int_dest(v);
                self.emit(Instr::cmp(ra, Op2::Imm(0)));
                self.emit(Instr::mov_imm(rd, 0));
                self.emit(Instr::MovCc { cond: ICond::Eq, rd, op2: Op2::Imm(1) });
                self.finish_int_dest(spill);
            }
        }
    }

    fn emit_cmp_materialize(&mut self, v: Value, op: CmpOp, a: Value, rhs: Value) {
        if op.is_fp() {
            let fa = self.fp_reg(a, FSCRATCH_A);
            let fb = self.fp_reg(rhs, FSCRATCH_B);
            let (rd, spill) = self.int_dest(v);
            self.emit(Instr::FCmp { rs1: fa, rs2: fb });
            self.emit(Instr::mov_imm(rd, 1));
            let skip = self.fresh_label("fset");
            self.asm.branch_f(Self::cmp_fcond(op), skip.clone());
            self.emit(Instr::Nop);
            self.emit(Instr::mov_imm(rd, 0));
            self.asm.label(skip);
            self.finish_int_dest(spill);
        } else {
            let ra = self.int_reg(a, SCRATCH_A);
            let o2 = self.int_op2(rhs, SCRATCH_B);
            let (rd, spill) = self.int_dest(v);
            self.emit(Instr::cmp(ra, o2));
            self.emit(Instr::mov_imm(rd, 0));
            self.emit(Instr::MovCc { cond: Self::cmp_icond(op), rd, op2: Op2::Imm(1) });
            self.finish_int_dest(spill);
        }
    }

    fn emit_select(&mut self, v: Value, cond: Value, on_true: Value, on_false: Value) {
        if self.f.ty(v) == Type::F64 {
            // FP arms must be loaded before the integer condition test so
            // pool addressing (which clobbers SCRATCH_A) cannot disturb it.
            let ft = self.fp_reg(on_true, FSCRATCH_A);
            let ff = self.fp_reg(on_false, FSCRATCH_B);
            let rc = self.int_reg(cond, SCRATCH_A);
            let (rd, spill) = self.fp_dest(v);
            let skip = self.fresh_label("fsel");
            use dyser_isa::FpOp;
            if rd == ft {
                // Keep the true arm unless the condition is false.
                self.emit(Instr::cmp(rc, Op2::Imm(0)));
                self.asm.branch(ICond::Ne, skip.clone());
                self.emit(Instr::Nop);
                self.emit(Instr::Fpu { op: FpOp::Movd, rd, rs1: rd, rs2: ff });
            } else {
                if rd != ff {
                    self.emit(Instr::Fpu { op: FpOp::Movd, rd, rs1: rd, rs2: ff });
                }
                self.emit(Instr::cmp(rc, Op2::Imm(0)));
                self.asm.branch(ICond::Eq, skip.clone());
                self.emit(Instr::Nop);
                self.emit(Instr::Fpu { op: FpOp::Movd, rd, rs1: rd, rs2: ft });
            }
            self.asm.label(skip);
            self.finish_fp_dest(spill);
        } else {
            let rc = self.int_reg(cond, SCRATCH_A);
            self.emit(Instr::cmp(rc, Op2::Imm(0)));
            let (rd, spill) = self.int_dest(v);
            let t_is_rd = matches!(self.loc_of(on_true), Loc::IReg(r) if r == rd);
            if t_is_rd {
                let fo = self.int_op2(on_false, SCRATCH_B);
                self.emit(Instr::MovCc { cond: ICond::Eq, rd, op2: fo });
            } else {
                // rd <- false arm, overwritten when the condition holds.
                match self.int_op2(on_false, rd) {
                    Op2::Imm(i) => self.emit(Instr::mov_imm(rd, i)),
                    Op2::Reg(r) if r == rd => {}
                    Op2::Reg(r) => self.emit(Instr::mov(rd, r)),
                }
                let to = self.int_op2(on_true, SCRATCH_B);
                self.emit(Instr::MovCc { cond: ICond::Ne, rd, op2: to });
            }
            self.finish_int_dest(spill);
        }
    }

    fn emit_gep(&mut self, v: Value, base: Value, index: Value, scale: u64) {
        if let Some(ci) = self.const_bits(index) {
            let off = (ci as i64).wrapping_mul(scale as i64);
            let rb = self.int_reg(base, SCRATCH_A);
            let (rd, spill) = self.int_dest(v);
            if Op2::fits_imm(off) {
                self.emit(Instr::alu(AluOp::Add, rd, rb, Op2::Imm(off as i16)));
            } else {
                self.emit_materialize(SCRATCH_B, off as u64);
                self.emit(Instr::alu(AluOp::Add, rd, rb, Op2::Reg(SCRATCH_B)));
            }
            self.finish_int_dest(spill);
            return;
        }
        let ri = self.int_reg(index, SCRATCH_A);
        let scaled = if scale == 1 {
            ri
        } else if scale.is_power_of_two() {
            let shift = scale.trailing_zeros() as i16;
            self.emit(Instr::alu(AluOp::Sllx, SCRATCH_A, ri, Op2::Imm(shift)));
            SCRATCH_A
        } else {
            self.emit_materialize(SCRATCH_B, scale);
            self.emit(Instr::alu(AluOp::Mulx, SCRATCH_A, ri, Op2::Reg(SCRATCH_B)));
            SCRATCH_A
        };
        let rb = self.int_reg(base, SCRATCH_B);
        let (rd, spill) = self.int_dest(v);
        self.emit(Instr::alu(AluOp::Add, rd, rb, Op2::Reg(scaled)));
        self.finish_int_dest(spill);
    }

    // ---------------- phi copies ----------------

    /// Emits the parallel copies for the edge `pred -> succ`.
    fn emit_phi_copies(&mut self, pred: Block, succ: Block) {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Src {
            Loc(Loc),
            Const(u64),
        }
        let mut moves: Vec<(Loc, Src, Type)> = Vec::new();
        for &pv in &self.f.block(succ).insts {
            let Some(Inst::Phi { incomings }) = self.f.as_inst(pv) else { continue };
            let Some((_, iv)) = incomings.iter().find(|(bb, _)| *bb == pred) else { continue };
            let dst = self.loc_of(pv);
            if dst == Loc::None {
                continue;
            }
            let src = match self.const_bits(*iv) {
                Some(c) => Src::Const(c),
                None => Src::Loc(self.loc_of(*iv)),
            };
            if Src::Loc(dst) == src {
                continue;
            }
            moves.push((dst, src, self.f.ty(pv)));
        }

        // Sequentialise: emit moves whose destination is not a pending
        // source; break cycles through scratch.
        while !moves.is_empty() {
            let ready = moves.iter().position(|(dst, _, _)| {
                !moves.iter().any(|(_, src, _)| *src == Src::Loc(*dst))
            });
            match ready {
                Some(k) => {
                    let (dst, src, ty) = moves.remove(k);
                    self.emit_move(dst, src_to_parts(src), ty);
                }
                None => {
                    // Cycle: rotate through scratch.
                    let (dst, src, ty) = moves[0];
                    let scratch = if ty == Type::F64 {
                        Loc::FReg(FSCRATCH_B)
                    } else {
                        Loc::IReg(SCRATCH_B)
                    };
                    self.emit_move(scratch, src_to_parts(src), ty);
                    for (_, s, _) in &mut moves {
                        if *s == src {
                            *s = Src::Loc(scratch);
                        }
                    }
                    let _ = dst;
                }
            }
        }

        fn src_to_parts(s: Src) -> Result<Loc, u64> {
            match s {
                Src::Loc(l) => Ok(l),
                Src::Const(c) => Err(c),
            }
        }
    }

    /// Emits one location-to-location move.
    fn emit_move(&mut self, dst: Loc, src: Result<Loc, u64>, ty: Type) {
        use dyser_isa::FpOp;
        match (dst, src) {
            (Loc::IReg(d), Ok(Loc::IReg(s))) => self.emit(Instr::mov(d, s)),
            (Loc::IReg(d), Ok(Loc::Spill(slot))) => self.emit_reload_int(d, slot),
            (Loc::IReg(d), Err(c)) => self.emit_materialize(d, c),
            (Loc::Spill(slot), Ok(Loc::IReg(s))) => self.emit_spill_int(s, slot),
            (Loc::Spill(slot), Ok(Loc::Spill(s))) => {
                if ty == Type::F64 {
                    self.emit_reload_fp(FSCRATCH_B, s);
                    self.emit_spill_fp(FSCRATCH_B, slot);
                } else {
                    self.emit_reload_int(SCRATCH_B, s);
                    self.emit_spill_int(SCRATCH_B, slot);
                }
            }
            (Loc::Spill(slot), Err(c)) => {
                if ty == Type::F64 {
                    let addr = self.pool_slot(c);
                    self.emit_materialize(SCRATCH_A, addr);
                    self.emit(Instr::LoadF { rd: FSCRATCH_B, rs1: SCRATCH_A, op2: Op2::Imm(0) });
                    self.emit_spill_fp(FSCRATCH_B, slot);
                } else {
                    self.emit_materialize(SCRATCH_B, c);
                    self.emit_spill_int(SCRATCH_B, slot);
                }
            }
            (Loc::Spill(slot), Ok(Loc::FReg(s))) => self.emit_spill_fp(s, slot),
            (Loc::FReg(d), Ok(Loc::FReg(s))) => {
                self.emit(Instr::Fpu { op: FpOp::Movd, rd: d, rs1: d, rs2: s })
            }
            (Loc::FReg(d), Ok(Loc::Spill(slot))) => self.emit_reload_fp(d, slot),
            (Loc::FReg(d), Err(c)) => {
                let addr = self.pool_slot(c);
                self.emit_materialize(SCRATCH_A, addr);
                self.emit(Instr::LoadF { rd: d, rs1: SCRATCH_A, op2: Op2::Imm(0) });
            }
            (a, b) => panic!("impossible move {a:?} <- {b:?}"),
        }
    }

    // ---------------- region interface emission ----------------

    fn emit_send_of(&mut self, ctx_block: Block, v: Value) {
        let ctx = &self.regions[&ctx_block];
        let Some(&port) = ctx.input_port.get(&v) else { return };
        let port = Port::new(port as u8);
        if self.f.ty(v) == Type::F64 {
            let fs = self.fp_reg(v, FSCRATCH_A);
            self.emit(Instr::Dyser(DyserInstr::SendF { port, rs: fs }));
        } else {
            let rs = self.int_reg(v, SCRATCH_A);
            self.emit(Instr::Dyser(DyserInstr::Send { port, rs }));
        }
    }

    /// Sends for inputs available at the top of the body: phis of the body
    /// and values defined outside it.
    fn emit_top_sends(&mut self, b: Block) {
        let Some(ctx) = self.regions.get(&b) else { return };
        let body_insts: HashSet<Value> = self.f.block(b).insts.iter().copied().collect();
        let inputs: Vec<Value> = ctx.region.inputs.iter().map(|i| i.value()).collect();
        for v in inputs {
            let is_body_phi = body_insts.contains(&v)
                && matches!(self.f.as_inst(v), Some(Inst::Phi { .. }));
            let outside = !body_insts.contains(&v);
            if is_body_phi || outside {
                self.emit_send_of(b, v);
            }
        }
    }

    /// Region epilogue at the bottom of the body: while the software
    /// pipeline warms up, deferred stores are skipped; afterwards the
    /// oldest deferred invocation's outputs are stored and every rotation
    /// register shifts by one.
    fn emit_body_bottom(&mut self, b: Block) {
        let Some(ctx) = self.regions.get(&b) else { return };
        let warmup = ctx.warmup;
        let lagged = ctx.lagged.clone();
        if lagged.is_empty() {
            self.emit(Instr::mov_imm(warmup, 0));
            return;
        }
        let do_recv = self.fresh_label("dorecv");
        let rotate = self.fresh_label("rotate");
        self.asm.branch_reg(RCond::Zero, warmup, do_recv.clone());
        self.emit(Instr::Nop);
        self.emit(Instr::alu(AluOp::Sub, warmup, warmup, Op2::Imm(1)));
        self.asm.branch(ICond::Always, rotate.clone());
        self.emit(Instr::Nop);
        self.asm.label(do_recv);
        for (port, _, prevs) in &lagged {
            let oldest = *prevs.last().expect("lag depth >= 1");
            self.emit(Instr::Dyser(DyserInstr::Store {
                port: Port::new(*port as u8),
                rs1: oldest,
                op2: Op2::Imm(0),
            }));
        }
        self.asm.label(rotate);
        for (_, ptr, prevs) in &lagged {
            for j in (1..prevs.len()).rev() {
                self.emit(Instr::mov(prevs[j], prevs[j - 1]));
            }
            let cur = self.int_reg(*ptr, SCRATCH_A);
            self.emit(Instr::mov(prevs[0], cur));
        }
    }

    /// Drain in the region's exit block: consume every still-deferred
    /// invocation's outputs (oldest first), then fence. Rotation slot `j`
    /// holds a valid address iff at least `j + 1` iterations ran, i.e. iff
    /// the warm-up counter fell below `depth - j`.
    fn emit_exit_drain(&mut self, body: Block) {
        let ctx = &self.regions[&body];
        let warmup = ctx.warmup;
        let depth = ctx.lag_depth;
        let lagged = ctx.lagged.clone();
        for j in (0..depth).rev() {
            if lagged.is_empty() {
                break;
            }
            let skip = self.fresh_label("skipdrain");
            // Skip slot j when warmup > depth - 1 - j.
            self.emit(Instr::cmp(warmup, Op2::Imm((depth - 1 - j) as i16)));
            self.asm.branch(ICond::Gt, skip.clone());
            self.emit(Instr::Nop);
            for (port, _, prevs) in &lagged {
                self.emit(Instr::Dyser(DyserInstr::Store {
                    port: Port::new(*port as u8),
                    rs1: prevs[j],
                    op2: Op2::Imm(0),
                }));
            }
            self.asm.label(skip);
        }
        self.emit(Instr::Dyser(DyserInstr::Fence));
    }

    /// Whether the CFG edge `pred -> succ` carries region-boundary work:
    /// the drain + fence of a region whose loop finishes on this edge, or
    /// the `dinit` + warm-up initialisation of a region it enters.
    ///
    /// A region body is a single-block self-loop, so its entry edge
    /// (`outside_pred -> body`) and exit edge (`body -> exit`) are unique.
    /// The material must live *on the edge*: the blocks at either end can
    /// have other roles (`outside_pred` may itself be a loop body whose
    /// iterations must not reconfigure the fabric; `exit` may be another
    /// region's body whose back-edge must not re-drain).
    fn edge_has_region_material(&self, pred: Block, succ: Block) -> bool {
        self.regions.get(&pred).is_some_and(|c| c.region.exit == succ)
            || self.regions.get(&succ).is_some_and(|c| c.region.outside_pred == pred)
    }

    /// Emits the region-boundary work of edge `pred -> succ` (see
    /// [`Self::edge_has_region_material`]): first the finishing region's
    /// drain while its configuration is still active, then the entered
    /// region's `dinit` + warm-up initialisation.
    fn emit_edge_material(&mut self, pred: Block, succ: Block) {
        if self.regions.get(&pred).is_some_and(|c| c.region.exit == succ) {
            self.emit_exit_drain(pred);
        }
        let entered = self
            .regions
            .get(&succ)
            .filter(|c| c.region.outside_pred == pred)
            .map(|c| (c.config_id, c.warmup, c.lag_depth));
        if let Some((config_id, warmup, depth)) = entered {
            self.emit(Instr::Dyser(DyserInstr::Init { config: ConfigId::new(config_id) }));
            self.emit(Instr::mov_imm(warmup, depth as i16));
        }
    }

    // ---------------- block and terminator emission ----------------

    fn run(mut self) -> Result<Program, CodegenError> {
        // Prologue: frame base, then copy parameters out of %o registers.
        self.emit_materialize(FRAME, SPILL_BASE);
        for i in 0..self.f.params().len() {
            let pv = self.f.param(i);
            let src = Reg::new(8 + i as u8); // %o0..%o5
            match self.loc_of(pv) {
                Loc::IReg(d) => self.emit(Instr::mov(d, src)),
                Loc::FReg(d) => {
                    // An f64 parameter arrives as raw bits in %oN.
                    self.emit_spill_int(src, CONV_SLOT);
                    self.emit_reload_fp(d, CONV_SLOT);
                }
                Loc::Spill(slot) => self.emit_spill_int(src, slot),
                Loc::None => {}
            }
        }

        let order = self.order.clone();
        for (k, &b) in order.iter().enumerate() {
            self.asm.label(Self::block_label(b));
            self.emit_top_sends(b);

            let is_region_body = self.regions.contains_key(&b);
            let insts = self.f.block(b).insts.clone();
            for v in insts {
                if is_region_body {
                    self.emit_region_inst(b, v);
                } else {
                    self.emit_inst(b, v);
                }
            }
            if is_region_body {
                self.emit_body_bottom(b);
            }

            let next = order.get(k + 1).copied();
            self.emit_terminator(b, next)?;
        }

        let listing = self.asm.resolve()?;
        let code = listing.iter().map(dyser_isa::encode).collect();
        Ok(Program {
            code,
            listing,
            entry: CODE_BASE,
            pool: self.pool,
            spill_slots: self.spill_slots,
            configs: self.configs,
        })
    }

    /// Emits one instruction of a region body, applying the slice rules.
    fn emit_region_inst(&mut self, b: Block, v: Value) {
        let ctx = &self.regions[&b];
        // Compute-slice values: receive if core-used, else skip entirely.
        if ctx.compute.contains(&v) {
            if ctx.core_use.contains(&v) {
                let port = Port::new(ctx.output_port[&v] as u8);
                if self.f.ty(v) == Type::F64 {
                    let (rd, spill) = self.fp_dest(v);
                    self.emit(Instr::Dyser(DyserInstr::RecvF { port, rd }));
                    self.finish_fp_dest(spill);
                } else {
                    let (rd, spill) = self.int_dest(v);
                    self.emit(Instr::Dyser(DyserInstr::Recv { port, rd }));
                    self.finish_int_dest(spill);
                }
            }
            return;
        }
        // Loads that feed only the fabric: dload.
        if let Some(Inst::Load { ptr }) = self.f.as_inst(v) {
            let is_dload = matches!(
                ctx.region.inputs.iter().find(|i| i.value() == v),
                Some(RegionInput::Load { .. })
            );
            if is_dload {
                let port = Port::new(ctx.input_port[&v] as u8);
                let ptr = *ptr;
                let addr = self.int_reg(ptr, SCRATCH_A);
                self.emit(Instr::Dyser(DyserInstr::Load { port, rs1: addr, op2: Op2::Imm(0) }));
                return;
            }
        }
        // Stores of store-only outputs: lagged (skip here) or immediate.
        if let Some(Inst::Store { .. }) = self.f.as_inst(v) {
            if let Some(&port) = ctx.immediate_stores.get(&v) {
                let Some(Inst::Store { ptr, .. }) = self.f.as_inst(v) else { unreachable!() };
                let ptr = *ptr;
                let addr = self.int_reg(ptr, SCRATCH_A);
                self.emit(Instr::Dyser(DyserInstr::Store {
                    port: Port::new(port as u8),
                    rs1: addr,
                    op2: Op2::Imm(0),
                }));
                return;
            }
            let lagged = ctx.lagged.iter().any(|(_, _, _)| {
                matches!(self.f.as_inst(v), Some(Inst::Store { value, .. })
                    if ctx.output_port.contains_key(value)
                        && !ctx.core_use.contains(value)
                        && !ctx.immediate_stores.contains_key(&v))
            });
            if lagged {
                return; // handled at the body bottom / drain
            }
        }
        // Ordinary core instruction.
        self.emit_inst(b, v);
        // If it is a fabric input computed mid-body, send it now.
        if self.regions[&b].input_port.contains_key(&v) {
            let body_insts_has_phi =
                matches!(self.f.as_inst(v), Some(Inst::Phi { .. }));
            if !body_insts_has_phi {
                self.emit_send_of(b, v);
            }
        }
    }

    fn emit_terminator(&mut self, b: Block, next: Option<Block>) -> Result<(), CodegenError> {
        match self.f.block(b).term.clone() {
            Terminator::None => {}
            Terminator::Ret(v) => {
                if let Some(v) = v {
                    if self.f.ty(v) == Type::F64 {
                        let fs = self.fp_reg(v, FSCRATCH_A);
                        if fs != FReg::new(0) {
                            self.emit(Instr::Fpu {
                                op: dyser_isa::FpOp::Movd,
                                rd: FReg::new(0),
                                rs1: FReg::new(0),
                                rs2: fs,
                            });
                        }
                    } else {
                        let rs = self.int_reg(v, SCRATCH_A);
                        if rs != regs::O0 {
                            self.emit(Instr::mov(regs::O0, rs));
                        }
                    }
                }
                self.emit(Instr::Halt);
            }
            Terminator::Br(t) => {
                self.emit_edge_material(b, t);
                self.emit_phi_copies(b, t);
                if next != Some(t) {
                    self.asm.branch(ICond::Always, Self::block_label(t));
                    self.emit(Instr::Nop);
                }
            }
            Terminator::CondBr { cond, then_bb, else_bb } => {
                let then_needs_stub =
                    self.edge_has_copies(b, then_bb) || self.edge_has_region_material(b, then_bb);
                let else_needs_stub =
                    self.edge_has_copies(b, else_bb) || self.edge_has_region_material(b, else_bb);

                // Emit the test.
                enum Test {
                    Icc(ICond),
                    Fcc(FCond),
                    Reg(Reg),
                }
                let test = if self.fused.get(&b) == Some(&cond) {
                    match self.f.as_inst(cond).cloned() {
                        Some(Inst::Cmp { op, a, b: rhs }) if op.is_fp() => {
                            let fa = self.fp_reg(a, FSCRATCH_A);
                            let fb = self.fp_reg(rhs, FSCRATCH_B);
                            self.emit(Instr::FCmp { rs1: fa, rs2: fb });
                            Test::Fcc(Self::cmp_fcond(op))
                        }
                        Some(Inst::Cmp { op, a, b: rhs }) => {
                            let ra = self.int_reg(a, SCRATCH_A);
                            let o2 = self.int_op2(rhs, SCRATCH_B);
                            self.emit(Instr::cmp(ra, o2));
                            Test::Icc(Self::cmp_icond(op))
                        }
                        _ => unreachable!("fused conditions are compares"),
                    }
                } else {
                    Test::Reg(self.int_reg(cond, SCRATCH_A))
                };

                // Branch to the then-edge (stub if it needs copies).
                let then_target = if then_needs_stub {
                    self.fresh_label("edge")
                } else {
                    Self::block_label(then_bb)
                };
                match &test {
                    Test::Icc(c) => {
                        self.asm.branch(*c, then_target.clone());
                    }
                    Test::Fcc(c) => {
                        self.asm.branch_f(*c, then_target.clone());
                    }
                    Test::Reg(r) => {
                        self.asm.branch_reg(RCond::NonZero, *r, then_target.clone());
                    }
                }
                self.emit(Instr::Nop);

                // Fallthrough: else edge.
                if else_needs_stub {
                    self.emit_edge_material(b, else_bb);
                    self.emit_phi_copies(b, else_bb);
                }
                if next != Some(else_bb) || then_needs_stub {
                    // When a then-stub follows, the else path must jump
                    // over it even if else is "next".
                    if next != Some(else_bb) || then_needs_stub {
                        self.asm.branch(ICond::Always, Self::block_label(else_bb));
                        self.emit(Instr::Nop);
                    }
                }
                if then_needs_stub {
                    self.asm.label(then_target);
                    self.emit_edge_material(b, then_bb);
                    self.emit_phi_copies(b, then_bb);
                    self.asm.branch(ICond::Always, Self::block_label(then_bb));
                    self.emit(Instr::Nop);
                }
            }
        }
        Ok(())
    }

    fn edge_has_copies(&self, pred: Block, succ: Block) -> bool {
        self.f.block(succ).insts.iter().any(|&pv| {
            if let Some(Inst::Phi { incomings }) = self.f.as_inst(pv) {
                if self.loc_of(pv) == Loc::None {
                    return false;
                }
                if let Some((_, iv)) = incomings.iter().find(|(bb, _)| *bb == pred) {
                    let src = match self.const_bits(*iv) {
                        Some(_) => None,
                        None => Some(self.loc_of(*iv)),
                    };
                    return src != Some(self.loc_of(pv));
                }
            }
            false
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{FunctionBuilder, Type};

    fn simple_fn() -> Function {
        let mut b = FunctionBuilder::new("f", &[("x", Type::I64), ("y", Type::I64)]);
        let x = b.param(0);
        let y = b.param(1);
        let s = b.bin(BinOp::Add, x, y);
        b.ret(Some(s));
        b.build().unwrap()
    }

    #[test]
    fn baseline_emits_code() {
        let f = simple_fn();
        let p = codegen_baseline(&f).unwrap();
        assert!(!p.is_empty());
        assert_eq!(p.entry, CODE_BASE);
        assert!(p.listing.iter().any(|i| matches!(i, Instr::Halt)));
        assert!(p.disassemble().contains("halt"));
    }

    #[test]
    fn too_many_params_rejected() {
        let names = ["a", "b", "c", "d", "e", "f", "g"];
        let params: Vec<(&str, Type)> =
            names.iter().map(|n| (*n, Type::I64)).collect();
        let mut b = FunctionBuilder::new("many", &params);
        b.ret(None);
        let f = b.build().unwrap();
        assert!(matches!(
            codegen_baseline(&f),
            Err(CodegenError::TooManyParams { .. })
        ));
    }

    #[test]
    fn materialize_small_and_large_constants() {
        let mut b = FunctionBuilder::new("c", &[("p", Type::Ptr)]);
        let p = b.param(0);
        let big = b.const_i(0x1234_5678_9ABC);
        let small = b.const_i(42);
        let s = b.bin(BinOp::Add, big, small);
        b.store(s, p);
        b.ret(None);
        // Note: constfold would fold this; bypass it to exercise
        // materialisation.
        let f = b.build().unwrap();
        let prog = codegen_baseline(&f).unwrap();
        assert!(prog.len() > 8, "large constants need several instructions");
    }

    #[test]
    fn fp_constants_land_in_pool() {
        let mut b = FunctionBuilder::new("fp", &[("p", Type::Ptr)]);
        let p = b.param(0);
        let c = b.const_f(3.5);
        let c2 = b.const_f(3.5); // same value: shared slot
        let s = b.bin(BinOp::Fadd, c, c2);
        b.store(s, p);
        b.ret(None);
        let f = b.build().unwrap();
        let prog = codegen_baseline(&f).unwrap();
        assert_eq!(prog.pool, vec![3.5f64.to_bits()]);
    }
}
