//! Whole-program workloads (`p1`..`p3`): emulated processes.
//!
//! Unlike the kernel suite, these are *programs*: they read their input
//! from stdin through the FASE-style syscall layer (`ta` traps to the
//! proxy kernel), allocate with `brk`, format results with a hand-written
//! decimal printer, report on stdout with `write`, and terminate with
//! `exit`. Each has two hand-assembled legs — a scalar baseline and a
//! DySER-accelerated variant whose inner region runs on the fabric — and
//! both must produce byte-identical stdout and the same exit code.
//!
//! * `p1` — string matcher: counts 8-byte-aligned occurrences of the
//!   pattern named by `argv[1]`; exits 0 when found, 1 otherwise.
//! * `p2` — tiny JSON tokenizer pipeline: counts `:` tokens byte-wise,
//!   copies the payload into `brk`-allocated heap, then hashes it.
//! * `p3` — image-kernel pipeline: 1D 3-tap stencil, then an XOR
//!   checksum, with a `gettime` liveness probe on the virtual clock.
//!
//! The inner regions are also exposed as plain IR kernels for the DSE
//! sweep — see [`crate::kernels::program_inner_kernels`].

use dyser_compiler::{Program, CODE_BASE};
use dyser_core::ProgramCase;
use dyser_fabric::{ConfigBuilder, FabricConfig, FabricGeometry, FuOp};
use dyser_isa::{
    regs, AluOp, Assembler, ConfigId, DyserInstr, ICond, Instr, LoadKind, Op2, Port, RCond, Reg,
    StoreKind,
};
use dyser_rng::Rng64;
use dyser_sparc::syscall::{SYS_BRK, SYS_EXIT, SYS_GETTIME, SYS_READ, SYS_WRITE};

use crate::{BUF_A, BUF_C};

/// The wrapping multiplier of `p2`'s payload hash (golden-ratio mix).
pub const P2_HASH_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// End of the decimal printer's scratch buffer (digits build backward).
const SCRATCH_END: i16 = 0xE20;

/// Read-buffer capacity passed to the `read` syscall.
const READ_CAP: u64 = 65_536;

/// The largest stdin size, in 8-byte words, a program reads whole: one
/// `read` of `READ_CAP` bytes. A longer input is cut short, so its
/// reference stdout cannot match.
pub const MAX_N: usize = (READ_CAP / 8) as usize;

/// Emits `rd = value` as `mov` plus shift/or chunks (any 64-bit value).
fn set64(asm: &mut Assembler, rd: Reg, value: u64) {
    if value < 0x1000 {
        asm.push(Instr::mov_imm(rd, value as i16));
        return;
    }
    // Six 12-bit chunks cover 64 bits; skip leading zeros.
    let chunks: Vec<i16> = (0..6).rev().map(|i| ((value >> (12 * i)) & 0xFFF) as i16).collect();
    let first = chunks.iter().position(|&c| c != 0).unwrap_or(5);
    asm.push(Instr::mov_imm(rd, chunks[first]));
    for &c in &chunks[first + 1..] {
        asm.push(Instr::alu(AluOp::Sllx, rd, rd, Op2::Imm(12)));
        if c != 0 {
            asm.push(Instr::alu(AluOp::Or, rd, rd, Op2::Imm(c)));
        }
    }
}

/// Emits the `print_dec` subroutine: prints `%o0` in decimal plus a
/// newline to stdout. Clobbers `%o0..%o2` and `%l0..%l4`; returns via
/// `jmpl %o7 + 8`. Call with [`Assembler::call`].
fn emit_print_dec(asm: &mut Assembler) {
    asm.label("print_dec");
    asm.push(Instr::mov_imm(regs::L0, SCRATCH_END));
    asm.push(Instr::mov(regs::L1, regs::O0));
    asm.push(Instr::mov_imm(regs::L4, 10));
    // '\n' is byte 10 — the divisor doubles as the terminator byte.
    asm.push(Instr::alu(AluOp::Sub, regs::L0, regs::L0, Op2::Imm(1)));
    asm.push(Instr::Store { kind: StoreKind::Stb, rs: regs::L4, rs1: regs::L0, op2: Op2::Imm(0) });
    asm.label("pd_loop");
    asm.push(Instr::alu(AluOp::Udivx, regs::L2, regs::L1, Op2::Imm(10)));
    asm.push(Instr::alu(AluOp::Mulx, regs::L3, regs::L2, Op2::Imm(10)));
    asm.push(Instr::alu(AluOp::Sub, regs::L3, regs::L1, Op2::Reg(regs::L3)));
    asm.push(Instr::alu(AluOp::Add, regs::L3, regs::L3, Op2::Imm(48)));
    asm.push(Instr::alu(AluOp::Sub, regs::L0, regs::L0, Op2::Imm(1)));
    asm.push(Instr::Store { kind: StoreKind::Stb, rs: regs::L3, rs1: regs::L0, op2: Op2::Imm(0) });
    asm.push(Instr::mov(regs::L1, regs::L2));
    asm.branch_reg(RCond::NonZero, regs::L1, "pd_loop");
    asm.push(Instr::Nop);
    asm.push(Instr::mov_imm(regs::O0, 1));
    asm.push(Instr::mov(regs::O1, regs::L0));
    asm.push(Instr::mov_imm(regs::O2, SCRATCH_END));
    asm.push(Instr::alu(AluOp::Sub, regs::O2, regs::O2, Op2::Reg(regs::L0)));
    asm.push(Instr::Trap { code: SYS_WRITE });
    asm.push(Instr::Jmpl { rd: regs::G0, rs1: regs::O7, op2: Op2::Imm(8) });
    asm.push(Instr::Nop);
}

/// Emits `read(0, BUF_A, READ_CAP)`; leaves bytes read in `%i0` and the
/// 8-byte word count in `%i2`.
fn emit_read_stdin(asm: &mut Assembler) {
    asm.push(Instr::mov_imm(regs::O0, 0));
    set64(asm, regs::O1, BUF_A);
    set64(asm, regs::O2, READ_CAP);
    asm.push(Instr::Trap { code: SYS_READ });
    asm.push(Instr::mov(regs::I0, regs::O0));
    asm.push(Instr::alu(AluOp::Srlx, regs::I2, regs::I0, Op2::Imm(3)));
}

/// Emits `exit(%o0-as-set-by-caller)` with a defensive trailing halt.
fn emit_exit(asm: &mut Assembler) {
    asm.push(Instr::Trap { code: SYS_EXIT });
    asm.push(Instr::Halt);
}

fn finish(asm: &Assembler, configs: Vec<FabricConfig>) -> Program {
    let listing = asm.resolve().expect("program assembles");
    let code = asm.assemble().expect("program assembles");
    Program { code, listing, entry: CODE_BASE, pool: Vec::new(), spill_slots: 1, configs }
}

// ------------------------------------------------------------------ p1

/// Deterministic `p1` input: `n` 8-byte words of printable noise, with
/// the key planted at pseudo-random positions (at least one).
fn p1_input(n: usize, key: u64, seed: u64) -> (Vec<u8>, u64) {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut bytes = Vec::with_capacity(n * 8);
    let mut count = 0u64;
    for i in 0..n {
        if i == 3 || rng.gen_range(0..8u64) == 0 {
            bytes.extend_from_slice(&key.to_be_bytes());
            count += 1;
        } else {
            for _ in 0..8 {
                bytes.push(rng.gen_range(0x20..0x7Fu64) as u8);
            }
        }
    }
    (bytes, count)
}

/// `p1`: counts 8-byte-aligned occurrences of the pattern in `argv[1]`
/// within the stdin text; prints the count, exits 0 if found else 1.
///
/// The accelerated leg compares four words per fabric invocation
/// (`ICmpEq` lanes plus an `IAdd` tree); the key streams in through a
/// fifth port — it is only known at run time, from argv. Needs 5 input
/// ports and 1 output port; returns `None` on smaller geometries.
/// `n` must be a positive multiple of 4.
pub fn p1(geometry: FabricGeometry, n: usize, seed: u64) -> Option<ProgramCase> {
    assert!(n.is_multiple_of(4) && n > 0, "p1 handles positive multiples of 4");
    if geometry.input_ports() < 5 || geometry.output_ports() < 1 {
        return None;
    }
    let pattern = "NEEDLE!!";
    let key = u64::from_be_bytes(pattern.as_bytes().try_into().unwrap());
    let (stdin, count) = p1_input(n, key, seed);

    // Shared head: stash argv, read stdin, load the key from argv[1].
    let head = |asm: &mut Assembler| {
        asm.push(Instr::mov(regs::I1, regs::O1));
        emit_read_stdin(asm);
        asm.push(Instr::Load { kind: LoadKind::Ldx, rd: regs::L5, rs1: regs::I1, op2: Op2::Imm(8) });
        asm.push(Instr::Load { kind: LoadKind::Ldx, rd: regs::L5, rs1: regs::L5, op2: Op2::Imm(0) });
        asm.push(Instr::mov_imm(regs::I4, 0));
        set64(asm, regs::L6, BUF_A);
        asm.push(Instr::mov(regs::L7, regs::I2));
    };
    // Shared tail: print the count, exit 0 if nonzero else 1.
    let tail = |asm: &mut Assembler| {
        asm.push(Instr::mov(regs::O0, regs::I4));
        asm.call("print_dec");
        asm.push(Instr::Nop);
        asm.branch_reg(RCond::NonZero, regs::I4, "found");
        asm.push(Instr::Nop);
        asm.push(Instr::mov_imm(regs::O0, 1));
        emit_exit(asm);
        asm.label("found");
        asm.push(Instr::mov_imm(regs::O0, 0));
        emit_exit(asm);
        emit_print_dec(asm);
    };

    let mut base = Assembler::new();
    head(&mut base);
    base.label("loop");
    base.push(Instr::Load { kind: LoadKind::Ldx, rd: regs::L0, rs1: regs::L6, op2: Op2::Imm(0) });
    base.push(Instr::alu(AluOp::SubCc, regs::G0, regs::L0, Op2::Reg(regs::L5)));
    base.branch(ICond::Ne, "miss");
    base.push(Instr::Nop);
    base.push(Instr::alu(AluOp::Add, regs::I4, regs::I4, Op2::Imm(1)));
    base.label("miss");
    base.push(Instr::alu(AluOp::Add, regs::L6, regs::L6, Op2::Imm(8)));
    base.push(Instr::alu(AluOp::SubCc, regs::L7, regs::L7, Op2::Imm(1)));
    base.branch(ICond::Ne, "loop");
    base.push(Instr::Nop);
    tail(&mut base);

    let mut b = ConfigBuilder::new(geometry);
    b.set_name("p1::match4");
    let k = b.input_value(4);
    let mut hits = Vec::new();
    for lane in 0..4 {
        let x = b.input_value(lane);
        hits.push(b.op(FuOp::ICmpEq, &[x, k]));
    }
    let s01 = b.op(FuOp::IAdd, &[hits[0], hits[1]]);
    let s23 = b.op(FuOp::IAdd, &[hits[2], hits[3]]);
    let s = b.op(FuOp::IAdd, &[s01, s23]);
    b.output_value(s, 0);
    let config = b.build().ok()?;

    let mut acc = Assembler::new();
    head(&mut acc);
    acc.push(Instr::Dyser(DyserInstr::Init { config: ConfigId::new(0) }));
    acc.label("loop");
    for lane in 0..4i16 {
        acc.push(Instr::Dyser(DyserInstr::Load {
            port: Port::new(lane as u8),
            rs1: regs::L6,
            op2: Op2::Imm(8 * lane),
        }));
    }
    acc.push(Instr::Dyser(DyserInstr::Send { port: Port::new(4), rs: regs::L5 }));
    acc.push(Instr::Dyser(DyserInstr::Recv { port: Port::new(0), rd: regs::L0 }));
    acc.push(Instr::alu(AluOp::Add, regs::I4, regs::I4, Op2::Reg(regs::L0)));
    acc.push(Instr::alu(AluOp::Add, regs::L6, regs::L6, Op2::Imm(32)));
    acc.push(Instr::alu(AluOp::SubCc, regs::L7, regs::L7, Op2::Imm(4)));
    acc.branch(ICond::Ne, "loop");
    acc.push(Instr::Nop);
    acc.push(Instr::Dyser(DyserInstr::Fence));
    tail(&mut acc);

    Some(ProgramCase {
        name: "p1".into(),
        baseline: finish(&base, Vec::new()),
        accelerated: finish(&acc, vec![config]),
        argv: vec!["p1".into(), pattern.into()],
        envp: vec!["SIM=dyser".into()],
        stdin,
        init: Vec::new(),
        expected: Vec::new(),
        expected_stdout: format!("{count}\n").into_bytes(),
        expected_exit: u64::from(count == 0),
    })
}

// ------------------------------------------------------------------ p2

/// Deterministic `p2` input: `n` words of JSON-ish ASCII with `:` tokens
/// sprinkled in.
fn p2_input(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng64::seed_from_u64(seed);
    let alphabet = b"{}[]\",abcdefgh0123456789 ";
    (0..n * 8)
        .map(|_| {
            if rng.gen_range(0..10u64) == 0 {
                b':'
            } else {
                alphabet[rng.gen_range(0..alphabet.len() as u64) as usize]
            }
        })
        .collect()
}

/// `p2` reference: (`:`-token count, wrapping payload hash).
fn p2_reference(stdin: &[u8]) -> (u64, u64) {
    let tokens = stdin.iter().filter(|&&b| b == b':').count() as u64;
    let hash = stdin
        .chunks_exact(8)
        .map(|c| u64::from_be_bytes(c.try_into().unwrap()).wrapping_mul(P2_HASH_MULT))
        .fold(0u64, u64::wrapping_add);
    (tokens, hash)
}

/// `p2`: a tiny tokenizer pipeline. Stage 1 counts `:` tokens byte-wise
/// and copies the payload into `brk`-allocated heap; stage 2 hashes the
/// heap copy word-wise (`w * M` summed, wrapping). Prints the token
/// count then the hash; exits 0.
///
/// The accelerated leg hashes four words per fabric invocation (`IMul`
/// by a baked constant plus an `IAdd` tree). Needs 4 input ports and 1
/// output port. `n` must be a positive multiple of 4.
pub fn p2(geometry: FabricGeometry, n: usize, seed: u64) -> Option<ProgramCase> {
    assert!(n.is_multiple_of(4) && n > 0, "p2 handles positive multiples of 4");
    if geometry.input_ports() < 4 || geometry.output_ports() < 1 {
        return None;
    }
    let stdin = p2_input(n, seed);
    let (tokens, hash) = p2_reference(&stdin);

    // Shared head: read stdin, brk-allocate the copy buffer, count ':'
    // bytes into %i5, copy the payload words into the heap at %i3.
    let head = |asm: &mut Assembler| {
        emit_read_stdin(asm);
        // heap base = brk(0); grow by READ_CAP.
        asm.push(Instr::mov_imm(regs::O0, 0));
        asm.push(Instr::Trap { code: SYS_BRK });
        asm.push(Instr::mov(regs::I3, regs::O0));
        set64(asm, regs::L0, READ_CAP);
        asm.push(Instr::alu(AluOp::Add, regs::O0, regs::I3, Op2::Reg(regs::L0)));
        asm.push(Instr::Trap { code: SYS_BRK });
        // Stage 1a: token count.
        asm.push(Instr::mov_imm(regs::I5, 0));
        set64(asm, regs::L6, BUF_A);
        asm.push(Instr::mov(regs::L7, regs::I0));
        asm.label("bloop");
        asm.push(Instr::Load {
            kind: LoadKind::Ldub,
            rd: regs::L0,
            rs1: regs::L6,
            op2: Op2::Imm(0),
        });
        asm.push(Instr::alu(AluOp::SubCc, regs::G0, regs::L0, Op2::Imm(i16::from(b':'))));
        asm.branch(ICond::Ne, "bskip");
        asm.push(Instr::Nop);
        asm.push(Instr::alu(AluOp::Add, regs::I5, regs::I5, Op2::Imm(1)));
        asm.label("bskip");
        asm.push(Instr::alu(AluOp::Add, regs::L6, regs::L6, Op2::Imm(1)));
        asm.push(Instr::alu(AluOp::SubCc, regs::L7, regs::L7, Op2::Imm(1)));
        asm.branch(ICond::Ne, "bloop");
        asm.push(Instr::Nop);
        // Stage 1b: copy words into the heap.
        set64(asm, regs::L6, BUF_A);
        asm.push(Instr::mov(regs::L5, regs::I3));
        asm.push(Instr::mov(regs::L7, regs::I2));
        asm.label("cloop");
        asm.push(Instr::Load { kind: LoadKind::Ldx, rd: regs::L0, rs1: regs::L6, op2: Op2::Imm(0) });
        asm.push(Instr::Store { kind: StoreKind::Stx, rs: regs::L0, rs1: regs::L5, op2: Op2::Imm(0) });
        asm.push(Instr::alu(AluOp::Add, regs::L6, regs::L6, Op2::Imm(8)));
        asm.push(Instr::alu(AluOp::Add, regs::L5, regs::L5, Op2::Imm(8)));
        asm.push(Instr::alu(AluOp::SubCc, regs::L7, regs::L7, Op2::Imm(1)));
        asm.branch(ICond::Ne, "cloop");
        asm.push(Instr::Nop);
        // Stage 2 setup: hash accumulator, heap cursor, word count.
        asm.push(Instr::mov_imm(regs::I4, 0));
        asm.push(Instr::mov(regs::L6, regs::I3));
        asm.push(Instr::mov(regs::L7, regs::I2));
    };
    let tail = |asm: &mut Assembler| {
        asm.push(Instr::mov(regs::O0, regs::I5));
        asm.call("print_dec");
        asm.push(Instr::Nop);
        asm.push(Instr::mov(regs::O0, regs::I4));
        asm.call("print_dec");
        asm.push(Instr::Nop);
        asm.push(Instr::mov_imm(regs::O0, 0));
        emit_exit(asm);
        emit_print_dec(asm);
    };

    let mut base = Assembler::new();
    head(&mut base);
    set64(&mut base, regs::L5, P2_HASH_MULT);
    base.label("hloop");
    base.push(Instr::Load { kind: LoadKind::Ldx, rd: regs::L0, rs1: regs::L6, op2: Op2::Imm(0) });
    base.push(Instr::alu(AluOp::Mulx, regs::L0, regs::L0, Op2::Reg(regs::L5)));
    base.push(Instr::alu(AluOp::Add, regs::I4, regs::I4, Op2::Reg(regs::L0)));
    base.push(Instr::alu(AluOp::Add, regs::L6, regs::L6, Op2::Imm(8)));
    base.push(Instr::alu(AluOp::SubCc, regs::L7, regs::L7, Op2::Imm(1)));
    base.branch(ICond::Ne, "hloop");
    base.push(Instr::Nop);
    tail(&mut base);

    let mut b = ConfigBuilder::new(geometry);
    b.set_name("p2::hash4");
    let m = b.const_value(P2_HASH_MULT);
    let mut terms = Vec::new();
    for lane in 0..4 {
        let x = b.input_value(lane);
        terms.push(b.op(FuOp::IMul, &[x, m]));
    }
    let s01 = b.op(FuOp::IAdd, &[terms[0], terms[1]]);
    let s23 = b.op(FuOp::IAdd, &[terms[2], terms[3]]);
    let s = b.op(FuOp::IAdd, &[s01, s23]);
    b.output_value(s, 0);
    let config = b.build().ok()?;

    let mut acc = Assembler::new();
    head(&mut acc);
    acc.push(Instr::Dyser(DyserInstr::Init { config: ConfigId::new(0) }));
    acc.label("hloop");
    for lane in 0..4i16 {
        acc.push(Instr::Dyser(DyserInstr::Load {
            port: Port::new(lane as u8),
            rs1: regs::L6,
            op2: Op2::Imm(8 * lane),
        }));
    }
    acc.push(Instr::Dyser(DyserInstr::Recv { port: Port::new(0), rd: regs::L0 }));
    acc.push(Instr::alu(AluOp::Add, regs::I4, regs::I4, Op2::Reg(regs::L0)));
    acc.push(Instr::alu(AluOp::Add, regs::L6, regs::L6, Op2::Imm(32)));
    acc.push(Instr::alu(AluOp::SubCc, regs::L7, regs::L7, Op2::Imm(4)));
    acc.branch(ICond::Ne, "hloop");
    acc.push(Instr::Nop);
    acc.push(Instr::Dyser(DyserInstr::Fence));
    tail(&mut acc);

    Some(ProgramCase {
        name: "p2".into(),
        baseline: finish(&base, Vec::new()),
        accelerated: finish(&acc, vec![config]),
        argv: vec!["p2".into()],
        envp: vec!["SIM=dyser".into()],
        stdin,
        init: Vec::new(),
        expected: Vec::new(),
        expected_stdout: format!("{tokens}\n{hash}\n").into_bytes(),
        expected_exit: 0,
    })
}

// ------------------------------------------------------------------ p3

/// Deterministic `p3` input: `n` words of raw pixel-ish data.
fn p3_input(n: usize, seed: u64) -> Vec<u8> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..n * 8).map(|_| rng.gen_range(0..256u64) as u8).collect()
}

/// `p3` reference: XOR checksum over the 3-tap stencil of the input row.
fn p3_reference(stdin: &[u8]) -> u64 {
    let words: Vec<u64> =
        stdin.chunks_exact(8).map(|c| u64::from_be_bytes(c.try_into().unwrap())).collect();
    let mut checksum = 0u64;
    for i in 1..words.len().saturating_sub(1) {
        let s = words[i - 1]
            .wrapping_add(words[i] << 1)
            .wrapping_add(words[i + 1]);
        checksum ^= s;
    }
    checksum
}

/// `p3`: an image-kernel pipeline. Stage 1 runs a 1D 3-tap stencil
/// (`a[i-1] + 2*a[i] + a[i+1]`, wrapping) over the stdin row into
/// `BUF_C`; stage 2 XOR-folds the result. Prints the checksum and a
/// virtual-clock liveness flag (`gettime() > 0`, always `1`); exits with
/// `checksum & 63`.
///
/// The accelerated leg computes one stencil tap per fabric invocation
/// (shift-add tree). Needs 3 input ports and 1 output port. `n >= 3`.
pub fn p3(geometry: FabricGeometry, n: usize, seed: u64) -> Option<ProgramCase> {
    assert!(n >= 3, "p3 needs at least one interior element");
    if geometry.input_ports() < 3 || geometry.output_ports() < 1 {
        return None;
    }
    let stdin = p3_input(n, seed);
    let checksum = p3_reference(&stdin);

    // Shared head: read stdin; cursors for the stencil loop.
    let head = |asm: &mut Assembler| {
        emit_read_stdin(asm);
        set64(asm, regs::L6, BUF_A + 8);
        set64(asm, regs::L5, BUF_C);
        // interior count = nwords - 2
        asm.push(Instr::alu(AluOp::Sub, regs::L7, regs::I2, Op2::Imm(2)));
    };
    // Shared mid: XOR checksum over BUF_C, gettime probe.
    let tail = |asm: &mut Assembler| {
        asm.push(Instr::mov_imm(regs::I4, 0));
        set64(asm, regs::L6, BUF_C);
        asm.push(Instr::alu(AluOp::Sub, regs::L7, regs::I2, Op2::Imm(2)));
        asm.label("xloop");
        asm.push(Instr::Load { kind: LoadKind::Ldx, rd: regs::L0, rs1: regs::L6, op2: Op2::Imm(0) });
        asm.push(Instr::alu(AluOp::Xor, regs::I4, regs::I4, Op2::Reg(regs::L0)));
        asm.push(Instr::alu(AluOp::Add, regs::L6, regs::L6, Op2::Imm(8)));
        asm.push(Instr::alu(AluOp::SubCc, regs::L7, regs::L7, Op2::Imm(1)));
        asm.branch(ICond::Ne, "xloop");
        asm.push(Instr::Nop);
        // Virtual clock: cycles are nonzero by now on every backend.
        asm.push(Instr::Trap { code: SYS_GETTIME });
        asm.push(Instr::mov_imm(regs::I5, 0));
        asm.branch_reg(RCond::Zero, regs::O0, "tdone");
        asm.push(Instr::Nop);
        asm.push(Instr::mov_imm(regs::I5, 1));
        asm.label("tdone");
        asm.push(Instr::mov(regs::O0, regs::I4));
        asm.call("print_dec");
        asm.push(Instr::Nop);
        asm.push(Instr::mov(regs::O0, regs::I5));
        asm.call("print_dec");
        asm.push(Instr::Nop);
        asm.push(Instr::alu(AluOp::And, regs::O0, regs::I4, Op2::Imm(63)));
        emit_exit(asm);
        emit_print_dec(asm);
    };

    let mut base = Assembler::new();
    head(&mut base);
    base.label("sloop");
    base.push(Instr::Load { kind: LoadKind::Ldx, rd: regs::L0, rs1: regs::L6, op2: Op2::Imm(-8) });
    base.push(Instr::Load { kind: LoadKind::Ldx, rd: regs::L1, rs1: regs::L6, op2: Op2::Imm(0) });
    base.push(Instr::Load { kind: LoadKind::Ldx, rd: regs::L2, rs1: regs::L6, op2: Op2::Imm(8) });
    base.push(Instr::alu(AluOp::Sllx, regs::L1, regs::L1, Op2::Imm(1)));
    base.push(Instr::alu(AluOp::Add, regs::L0, regs::L0, Op2::Reg(regs::L1)));
    base.push(Instr::alu(AluOp::Add, regs::L0, regs::L0, Op2::Reg(regs::L2)));
    base.push(Instr::Store { kind: StoreKind::Stx, rs: regs::L0, rs1: regs::L5, op2: Op2::Imm(0) });
    base.push(Instr::alu(AluOp::Add, regs::L6, regs::L6, Op2::Imm(8)));
    base.push(Instr::alu(AluOp::Add, regs::L5, regs::L5, Op2::Imm(8)));
    base.push(Instr::alu(AluOp::SubCc, regs::L7, regs::L7, Op2::Imm(1)));
    base.branch(ICond::Ne, "sloop");
    base.push(Instr::Nop);
    tail(&mut base);

    let mut b = ConfigBuilder::new(geometry);
    b.set_name("p3::stencil3");
    let x = b.input_value(0);
    let y = b.input_value(1);
    let z = b.input_value(2);
    let one = b.const_value(1);
    let y2 = b.op(FuOp::IShl, &[y, one]);
    let s1 = b.op(FuOp::IAdd, &[x, y2]);
    let s = b.op(FuOp::IAdd, &[s1, z]);
    b.output_value(s, 0);
    let config = b.build().ok()?;

    let mut acc = Assembler::new();
    head(&mut acc);
    acc.push(Instr::Dyser(DyserInstr::Init { config: ConfigId::new(0) }));
    acc.label("sloop");
    acc.push(Instr::Dyser(DyserInstr::Load { port: Port::new(0), rs1: regs::L6, op2: Op2::Imm(-8) }));
    acc.push(Instr::Dyser(DyserInstr::Load { port: Port::new(1), rs1: regs::L6, op2: Op2::Imm(0) }));
    acc.push(Instr::Dyser(DyserInstr::Load { port: Port::new(2), rs1: regs::L6, op2: Op2::Imm(8) }));
    acc.push(Instr::Dyser(DyserInstr::Store { port: Port::new(0), rs1: regs::L5, op2: Op2::Imm(0) }));
    acc.push(Instr::alu(AluOp::Add, regs::L6, regs::L6, Op2::Imm(8)));
    acc.push(Instr::alu(AluOp::Add, regs::L5, regs::L5, Op2::Imm(8)));
    acc.push(Instr::alu(AluOp::SubCc, regs::L7, regs::L7, Op2::Imm(1)));
    acc.branch(ICond::Ne, "sloop");
    acc.push(Instr::Nop);
    acc.push(Instr::Dyser(DyserInstr::Fence));
    tail(&mut acc);

    Some(ProgramCase {
        name: "p3".into(),
        baseline: finish(&base, Vec::new()),
        accelerated: finish(&acc, vec![config]),
        argv: vec!["p3".into()],
        envp: vec!["SIM=dyser".into()],
        stdin,
        init: Vec::new(),
        expected: Vec::new(),
        expected_stdout: format!("{checksum}\n1\n").into_bytes(),
        expected_exit: checksum & 63,
    })
}

/// All whole-program workloads available for `geometry` at size `n`
/// (words of stdin).
pub fn all(geometry: FabricGeometry, n: usize, seed: u64) -> Vec<ProgramCase> {
    [p1(geometry, n, seed), p2(geometry, n, seed), p3(geometry, n, seed)]
        .into_iter()
        .flatten()
        .collect()
}

/// A program constructor: `(geometry, n, seed)` to a built case, or
/// `None` when the program's inner region does not fit the geometry.
pub type ProgramBuild = fn(FabricGeometry, usize, u64) -> Option<ProgramCase>;

/// The program constructor registered under `name`, if any.
pub fn by_name(name: &str) -> Option<ProgramBuild> {
    match name {
        "p1" => Some(p1),
        "p2" => Some(p2),
        "p3" => Some(p3),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyser_core::{run_whole_program, Backend, RunConfig};

    fn geometry() -> FabricGeometry {
        FabricGeometry::new(8, 8)
    }

    fn check_all_engines(case: &ProgramCase) {
        // Interpreted, stepped, and compiled must agree bit-for-bit on
        // stats and byte-for-byte on stdout for both legs.
        let mut rc = RunConfig::default();
        rc.system.geometry = geometry();
        let interp = run_whole_program("dyser", &case.accelerated, case, &rc, 0)
            .unwrap_or_else(|e| panic!("{} interpreted: {e}", case.name));
        let base = run_whole_program("baseline", &case.baseline, case, &rc, 0)
            .unwrap_or_else(|e| panic!("{} baseline: {e}", case.name));
        assert_eq!(base.stdout, interp.stdout, "{}: legs disagree on stdout", case.name);
        assert_eq!(base.exit_code, interp.exit_code, "{}: legs disagree on exit", case.name);

        let mut stepped_rc = rc.clone();
        stepped_rc.stepped = true;
        let stepped = run_whole_program("dyser", &case.accelerated, case, &stepped_rc, 0)
            .unwrap_or_else(|e| panic!("{} stepped: {e}", case.name));
        assert_eq!(stepped.stats, interp.stats, "{}: stepped diverged", case.name);

        let mut compiled_rc = rc;
        compiled_rc.backend = Backend::Compiled;
        let compiled = run_whole_program("dyser", &case.accelerated, case, &compiled_rc, 0)
            .unwrap_or_else(|e| panic!("{} compiled: {e}", case.name));
        assert_eq!(compiled.stats, interp.stats, "{}: compiled diverged", case.name);
        assert_eq!(compiled.stdout, interp.stdout, "{}: compiled stdout diverged", case.name);
    }

    #[test]
    fn p1_runs_identically_everywhere() {
        check_all_engines(&p1(geometry(), 32, 11).unwrap());
    }

    #[test]
    fn p2_runs_identically_everywhere() {
        check_all_engines(&p2(geometry(), 24, 12).unwrap());
    }

    #[test]
    fn p3_runs_identically_everywhere() {
        check_all_engines(&p3(geometry(), 26, 13).unwrap());
    }

    #[test]
    fn accelerated_legs_use_the_fabric() {
        let mut rc = RunConfig::default();
        rc.system.geometry = geometry();
        for case in all(geometry(), 32, 5) {
            let run = run_whole_program("dyser", &case.accelerated, &case, &rc, 0)
                .unwrap_or_else(|e| panic!("{}: {e}", case.name));
            assert!(run.stats.fabric.fu_fires() > 0, "{}: fabric idle", case.name);
        }
    }

    #[test]
    fn too_small_geometry_returns_none() {
        let tiny = FabricGeometry::new(1, 1);
        assert!(p1(tiny, 8, 0).is_none());
    }
}
