//! Syscall-ABI conformance suite.
//!
//! Table-driven machine-level tests of the FASE-style proxy kernel:
//! every syscall in the ABI (`exit`, `read`, `write`, `brk`, `gettime`)
//! is exercised through real trap instructions on full systems, on every
//! engine — `run`, `run_stepped`, and `run_compiled` — and each case
//! asserts that stats, captured streams, exit codes, and scratch memory
//! are bit-identical everywhere. Error paths
//! (bad fds, brk shrink, reads past EOF, unknown trap numbers) are part
//! of the table, and the process-startup image (argv/envp layout) is
//! checked byte by byte, both from the host side and as the guest
//! program observes it.

use dyser_core::{SysError, System, SystemConfig, HEAP_BASE, STACK_BASE};
use dyser_isa::{regs, AluOp, Assembler, Instr, LoadKind, Op2, RCond, StoreKind};
use dyser_sparc::syscall::{
    service_cost, SYS_BRK, SYS_ERR, SYS_EXIT, SYS_GETTIME, SYS_READ, SYS_WRITE,
};

/// Where every case stores its observable results (`Stx` cells).
const OUT: i16 = 0xE00;
/// Data buffer used by read/write cases.
const BUF: i16 = 0xF00;
/// The scratch window compared byte-for-byte across engines.
const SCRATCH_BASE: u64 = 0xE00;
const SCRATCH_LEN: u64 = 0x200;

const MAX: u64 = 200_000;

/// Emits `store %o0 -> [OUT + 8*slot]`.
fn save(asm: &mut Assembler, slot: i16) {
    asm.push(Instr::mov_imm(regs::L7, OUT + 8 * slot));
    asm.push(Instr::Store { kind: StoreKind::Stx, rs: regs::O0, rs1: regs::L7, op2: Op2::Imm(0) });
}

fn exit0(asm: &mut Assembler) {
    asm.push(Instr::mov_imm(regs::O0, 0));
    asm.push(Instr::Trap { code: SYS_EXIT });
    asm.push(Instr::Halt);
}

fn assemble(build: impl Fn(&mut Assembler)) -> Vec<u32> {
    let mut asm = Assembler::new();
    build(&mut asm);
    asm.assemble().expect("conformance program assembles")
}

/// Builds a fresh system with `words` loaded and the process set up.
fn fresh(words: &[u32], stdin: &[u8]) -> System {
    let mut sys = System::new(SystemConfig::default());
    sys.load_raw(0x10000, words);
    sys.setup_process(&["prog", "arg1"], &["K=V"], stdin);
    sys
}

/// Runs the same program on every engine; asserts every observable —
/// result (stats or typed error), stdout, stderr, exit code, program
/// break, and the scratch memory window — is identical; returns the
/// reference run's system and result.
fn conformant(
    name: &str,
    words: &[u32],
    stdin: &[u8],
) -> (System, Result<dyser_core::RunStats, SysError>) {
    let mut runs: Vec<(&'static str, System, Result<dyser_core::RunStats, SysError>)> = Vec::new();
    let mut s = fresh(words, stdin);
    let r = s.run(MAX);
    runs.push(("run", s, r));
    let mut s = fresh(words, stdin);
    let r = s.run_stepped(MAX);
    runs.push(("stepped", s, r));
    let mut s = fresh(words, stdin);
    let r = s.run_compiled(MAX);
    runs.push(("compiled", s, r));
    let reference = format!("{:?}", runs[0].2);
    for (label, sys, result) in &runs[1..] {
        assert_eq!(
            format!("{result:?}"),
            reference,
            "{name}: {label} result diverged from `run`"
        );
        assert_eq!(
            sys.kernel().stdout(),
            runs[0].1.kernel().stdout(),
            "{name}: {label} stdout diverged"
        );
        assert_eq!(
            sys.kernel().stderr(),
            runs[0].1.kernel().stderr(),
            "{name}: {label} stderr diverged"
        );
        assert_eq!(
            sys.kernel().exit_code(),
            runs[0].1.kernel().exit_code(),
            "{name}: {label} exit code diverged"
        );
        assert_eq!(sys.kernel().brk(), runs[0].1.kernel().brk(), "{name}: {label} brk diverged");
        assert_eq!(
            sys.memory().read_bytes(SCRATCH_BASE, SCRATCH_LEN as usize),
            runs[0].1.memory().read_bytes(SCRATCH_BASE, SCRATCH_LEN as usize),
            "{name}: {label} scratch memory diverged"
        );
    }
    let (_, sys, result) = runs.swap_remove(0);
    (sys, result)
}

/// One syscall-conformance case: a program, its stdin, and the checks.
struct Case {
    name: &'static str,
    stdin: &'static [u8],
    build: fn(&mut Assembler),
    check: fn(&System),
}

fn out_cell(sys: &System, slot: u64) -> u64 {
    sys.memory().read_u64(SCRATCH_BASE + 8 * slot)
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "write_stdout",
            stdin: b"",
            build: |asm| {
                asm.push(Instr::mov_imm(regs::L0, BUF));
                asm.push(Instr::mov_imm(regs::L1, i16::from(b'h')));
                asm.push(Instr::Store {
                    kind: StoreKind::Stb,
                    rs: regs::L1,
                    rs1: regs::L0,
                    op2: Op2::Imm(0),
                });
                asm.push(Instr::mov_imm(regs::L1, i16::from(b'i')));
                asm.push(Instr::Store {
                    kind: StoreKind::Stb,
                    rs: regs::L1,
                    rs1: regs::L0,
                    op2: Op2::Imm(1),
                });
                asm.push(Instr::mov_imm(regs::O0, 1));
                asm.push(Instr::mov_imm(regs::O1, BUF));
                asm.push(Instr::mov_imm(regs::O2, 2));
                asm.push(Instr::Trap { code: SYS_WRITE });
                save(asm, 0);
                exit0(asm);
            },
            check: |sys| {
                assert_eq!(out_cell(sys, 0), 2, "write returns the byte count");
                assert_eq!(sys.kernel().stdout(), b"hi");
                assert_eq!(sys.kernel().stderr(), b"");
            },
        },
        Case {
            name: "write_stderr",
            stdin: b"",
            build: |asm| {
                asm.push(Instr::mov_imm(regs::L0, BUF));
                asm.push(Instr::mov_imm(regs::L1, i16::from(b'!')));
                asm.push(Instr::Store {
                    kind: StoreKind::Stb,
                    rs: regs::L1,
                    rs1: regs::L0,
                    op2: Op2::Imm(0),
                });
                asm.push(Instr::mov_imm(regs::O0, 2));
                asm.push(Instr::mov_imm(regs::O1, BUF));
                asm.push(Instr::mov_imm(regs::O2, 1));
                asm.push(Instr::Trap { code: SYS_WRITE });
                save(asm, 0);
                exit0(asm);
            },
            check: |sys| {
                assert_eq!(out_cell(sys, 0), 1);
                assert_eq!(sys.kernel().stdout(), b"");
                assert_eq!(sys.kernel().stderr(), b"!");
            },
        },
        Case {
            name: "write_bad_fd",
            stdin: b"",
            build: |asm| {
                asm.push(Instr::mov_imm(regs::O0, 7));
                asm.push(Instr::mov_imm(regs::O1, BUF));
                asm.push(Instr::mov_imm(regs::O2, 3));
                asm.push(Instr::Trap { code: SYS_WRITE });
                save(asm, 0);
                exit0(asm);
            },
            check: |sys| {
                assert_eq!(out_cell(sys, 0), SYS_ERR, "bad fd returns -1");
                assert_eq!(sys.kernel().stdout(), b"");
                assert_eq!(sys.kernel().stderr(), b"");
            },
        },
        Case {
            name: "read_then_eof",
            stdin: b"abcde",
            build: |asm| {
                // First read: 3 bytes land in BUF.
                asm.push(Instr::mov_imm(regs::O0, 0));
                asm.push(Instr::mov_imm(regs::O1, BUF));
                asm.push(Instr::mov_imm(regs::O2, 3));
                asm.push(Instr::Trap { code: SYS_READ });
                save(asm, 0);
                // Second read asks for 99: only 2 remain.
                asm.push(Instr::mov_imm(regs::O0, 0));
                asm.push(Instr::mov_imm(regs::O1, BUF + 8));
                asm.push(Instr::mov_imm(regs::O2, 99));
                asm.push(Instr::Trap { code: SYS_READ });
                save(asm, 1);
                // Third read: EOF reads 0 bytes.
                asm.push(Instr::mov_imm(regs::O0, 0));
                asm.push(Instr::mov_imm(regs::O1, BUF + 16));
                asm.push(Instr::mov_imm(regs::O2, 1));
                asm.push(Instr::Trap { code: SYS_READ });
                save(asm, 2);
                exit0(asm);
            },
            check: |sys| {
                assert_eq!(out_cell(sys, 0), 3);
                assert_eq!(out_cell(sys, 1), 2, "short read at end of stdin");
                assert_eq!(out_cell(sys, 2), 0, "EOF reads 0");
                assert_eq!(sys.memory().read_bytes(BUF as u64, 3), b"abc");
                assert_eq!(sys.memory().read_bytes(BUF as u64 + 8, 2), b"de");
            },
        },
        Case {
            name: "read_bad_fd",
            stdin: b"abc",
            build: |asm| {
                asm.push(Instr::mov_imm(regs::O0, 3));
                asm.push(Instr::mov_imm(regs::O1, BUF));
                asm.push(Instr::mov_imm(regs::O2, 3));
                asm.push(Instr::Trap { code: SYS_READ });
                save(asm, 0);
                exit0(asm);
            },
            check: |sys| {
                assert_eq!(out_cell(sys, 0), SYS_ERR, "only fd 0 is readable");
            },
        },
        Case {
            name: "brk_query_grow_shrink",
            stdin: b"",
            build: |asm| {
                // Query: brk(0) returns the heap base.
                asm.push(Instr::mov_imm(regs::O0, 0));
                asm.push(Instr::Trap { code: SYS_BRK });
                save(asm, 0);
                asm.push(Instr::mov(regs::L5, regs::O0));
                // Grow by 0x800.
                asm.push(Instr::alu(AluOp::Add, regs::O0, regs::L5, Op2::Imm(0x800)));
                asm.push(Instr::Trap { code: SYS_BRK });
                save(asm, 1);
                // Shrink attempt back to base+0x100: refused, break stays.
                asm.push(Instr::alu(AluOp::Add, regs::O0, regs::L5, Op2::Imm(0x100)));
                asm.push(Instr::Trap { code: SYS_BRK });
                save(asm, 2);
                exit0(asm);
            },
            check: |sys| {
                assert_eq!(out_cell(sys, 0), HEAP_BASE, "brk(0) queries the heap base");
                assert_eq!(out_cell(sys, 1), HEAP_BASE + 0x800, "brk grows");
                assert_eq!(out_cell(sys, 2), HEAP_BASE + 0x800, "brk never shrinks");
                assert_eq!(sys.kernel().brk(), HEAP_BASE + 0x800);
            },
        },
        Case {
            name: "gettime_virtual_clock",
            stdin: b"",
            build: |asm| {
                asm.push(Instr::Trap { code: SYS_GETTIME });
                save(asm, 0);
                // Spin a little, then read the clock again.
                asm.push(Instr::mov_imm(regs::L0, 32));
                asm.label("spin");
                asm.push(Instr::alu(AluOp::Sub, regs::L0, regs::L0, Op2::Imm(1)));
                asm.branch_reg(RCond::NonZero, regs::L0, "spin");
                asm.push(Instr::Nop);
                asm.push(Instr::Trap { code: SYS_GETTIME });
                save(asm, 1);
                exit0(asm);
            },
            check: |sys| {
                let (t0, t1) = (out_cell(sys, 0), out_cell(sys, 1));
                assert!(t0 > 0, "the virtual clock has advanced by the first trap");
                assert!(t1 > t0, "the virtual clock is monotonic: {t0} -> {t1}");
            },
        },
        Case {
            name: "argv_envp_as_the_guest_sees_them",
            stdin: b"",
            build: |asm| {
                // The loader seeded %o0=argc, %o1=argv, %o2=envp.
                save(asm, 0); // argc
                // argv[1] string bytes, loaded through the pointer array.
                asm.push(Instr::Load {
                    kind: LoadKind::Ldx,
                    rd: regs::L0,
                    rs1: regs::O1,
                    op2: Op2::Imm(8),
                });
                asm.push(Instr::Load {
                    kind: LoadKind::Ldub,
                    rd: regs::L1,
                    rs1: regs::L0,
                    op2: Op2::Imm(0),
                });
                asm.push(Instr::mov(regs::O0, regs::L1));
                save(asm, 1); // argv[1][0]
                // argv terminator.
                asm.push(Instr::Load {
                    kind: LoadKind::Ldx,
                    rd: regs::O0,
                    rs1: regs::O1,
                    op2: Op2::Imm(16),
                });
                save(asm, 2);
                // envp[0] first byte and the envp terminator.
                asm.push(Instr::Load {
                    kind: LoadKind::Ldx,
                    rd: regs::L0,
                    rs1: regs::O2,
                    op2: Op2::Imm(0),
                });
                asm.push(Instr::Load {
                    kind: LoadKind::Ldub,
                    rd: regs::O0,
                    rs1: regs::L0,
                    op2: Op2::Imm(0),
                });
                save(asm, 3);
                asm.push(Instr::Load {
                    kind: LoadKind::Ldx,
                    rd: regs::O0,
                    rs1: regs::O2,
                    op2: Op2::Imm(8),
                });
                save(asm, 4);
                exit0(asm);
            },
            check: |sys| {
                assert_eq!(out_cell(sys, 0), 2, "argc");
                assert_eq!(out_cell(sys, 1), u64::from(b'a'), "argv[1] = \"arg1\"");
                assert_eq!(out_cell(sys, 2), 0, "argv NULL terminator");
                assert_eq!(out_cell(sys, 3), u64::from(b'K'), "envp[0] = \"K=V\"");
                assert_eq!(out_cell(sys, 4), 0, "envp NULL terminator");
            },
        },
    ]
}

#[test]
fn every_syscall_conforms_on_every_engine() {
    for case in cases() {
        let words = assemble(case.build);
        let (sys, result) = conformant(case.name, &words, case.stdin);
        let stats = result.unwrap_or_else(|e| panic!("{}: {e}", case.name));
        assert!(stats.cycles > 0);
        assert_eq!(sys.kernel().exit_code(), Some(0), "{}: clean exit", case.name);
        (case.check)(&sys);
    }
}

#[test]
fn exit_code_propagates_through_every_engine() {
    for code in [0u64, 1, 42, 255] {
        let words = assemble(|asm| {
            asm.push(Instr::mov_imm(regs::O0, code as i16));
            asm.push(Instr::Trap { code: SYS_EXIT });
            asm.push(Instr::Halt);
        });
        let (sys, result) = conformant("exit", &words, b"");
        result.unwrap_or_else(|e| panic!("exit({code}): {e}"));
        assert_eq!(sys.kernel().exit_code(), Some(code));
        assert!(sys.cpu().halted(), "exit halts the core");
    }
}

#[test]
fn unknown_trap_numbers_are_typed_errors_never_panics() {
    // Trap numbers are a 12-bit field; 4095 is the largest encodable code.
    for bad in [0u16, 2, 5, 100, 999, 4095] {
        let words = assemble(|asm| {
            asm.push(Instr::Trap { code: bad });
            asm.push(Instr::Halt);
        });
        let (sys, result) = conformant("unknown", &words, b"");
        match result {
            Err(SysError::UnknownSyscall { code }) => assert_eq!(code, bad),
            other => panic!("ta {bad}: expected UnknownSyscall, got {other:?}"),
        }
        assert_eq!(sys.kernel().exit_code(), None);
    }
}

#[test]
fn startup_stack_layout_bytes() {
    // Host-side view of the exact startup image `setup_process` wrote.
    let words = assemble(|asm| {
        asm.push(Instr::Halt);
    });
    let sys = fresh(&words, b"");
    let mem = sys.memory();
    assert_eq!(mem.read_u64(STACK_BASE), 2, "argc cell");
    let argv = STACK_BASE + 8;
    let envp = argv + 8 * 3; // two argv cells + NULL
    let a0 = mem.read_u64(argv);
    let a1 = mem.read_u64(argv + 8);
    assert_eq!(mem.read_u64(argv + 16), 0, "argv NULL");
    let e0 = mem.read_u64(envp);
    assert_eq!(mem.read_u64(envp + 8), 0, "envp NULL");
    assert_eq!(a0, envp + 16, "string pool starts after the envp terminator");
    assert_eq!(mem.read_bytes(a0, 5), b"prog\0");
    assert_eq!(a1, a0 + 5, "strings are packed NUL-to-NUL");
    assert_eq!(mem.read_bytes(a1, 5), b"arg1\0");
    assert_eq!(mem.read_bytes(e0, 4), b"K=V\0");
    // Register seeds.
    assert_eq!(sys.cpu().regs().read(regs::O0), 2);
    assert_eq!(sys.cpu().regs().read(regs::O1), argv);
    assert_eq!(sys.cpu().regs().read(regs::O2), envp);
    assert_eq!(sys.cpu().regs().read(regs::SP), STACK_BASE, "%sp");
}

#[test]
fn service_cost_scales_with_bytes_moved() {
    // The deterministic latency model: base cost plus one cycle per
    // eight bytes. A long write must cost more cycles than a short one
    // by exactly the documented amount.
    assert_eq!(service_cost(0), 40);
    assert_eq!(service_cost(8), 41);
    assert_eq!(service_cost(64), 48);
    let short = assemble(|asm| {
        asm.push(Instr::mov_imm(regs::O0, 1));
        asm.push(Instr::mov_imm(regs::O1, BUF));
        asm.push(Instr::mov_imm(regs::O2, 8));
        asm.push(Instr::Trap { code: SYS_WRITE });
        exit0(asm);
    });
    let long = assemble(|asm| {
        asm.push(Instr::mov_imm(regs::O0, 1));
        asm.push(Instr::mov_imm(regs::O1, BUF));
        asm.push(Instr::mov_imm(regs::O2, 8 + 64));
        asm.push(Instr::Trap { code: SYS_WRITE });
        exit0(asm);
    });
    let (_, short_result) = conformant("short_write", &short, b"");
    let (_, long_result) = conformant("long_write", &long, b"");
    let short_cycles = short_result.expect("short write runs").cycles;
    let long_cycles = long_result.expect("long write runs").cycles;
    assert_eq!(
        long_cycles - short_cycles,
        service_cost(72) - service_cost(8),
        "the extra bytes cost exactly the documented service latency"
    );
}
