//! Equivalence of the execution backends: `RunStats` — cycles, per-cause
//! stalls, cycle buckets, memory and fabric counters — must be
//! bit-identical between `System::run` (stall fast-forwarding),
//! `System::run_stepped` (the per-cycle reference), and
//! `System::run_compiled` (translated-block thunks) for every workload,
//! including DySER-active ones with port transfers in flight, under both
//! the serial and the parallel harness, and across mid-stall timeouts
//! (exact `Timeout` cycles, stats, and memory images).

use dyser_bench::experiments::SEED;
use dyser_core::{
    run_kernel, run_kernels, Backend, KernelJob, KernelResult, RunConfig, SysError, System,
    SystemConfig,
};
use dyser_fabric::FuKind;
use dyser_isa::{regs, AluOp, Assembler, Instr, LoadKind, Op2, StoreKind};
use dyser_workloads::suite;

/// The three execution paths under test.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Stepped,
    Fast,
    Compiled,
}

impl Mode {
    fn apply(self, config: &mut RunConfig) {
        config.stepped = self == Mode::Stepped;
        config.backend =
            if self == Mode::Compiled { Backend::Compiled } else { Backend::Interpreted };
    }
}

/// Every suite kernel at a small size — plus ablation-style variants
/// (FIFO depth, perfect memory, universal FUs, no unroll) that shift
/// which stall causes dominate — each under its own compiler options.
fn equivalence_jobs(mode: Mode) -> Vec<KernelJob> {
    let mut jobs: Vec<KernelJob> = suite()
        .iter()
        .map(|k| {
            let n = (k.default_n / 16).max(8) / 4 * 4;
            let mut config = RunConfig::default();
            config.compiler = k.compiler_options(config.system.geometry);
            mode.apply(&mut config);
            (k.case(n, SEED), config)
        })
        .collect();
    #[allow(clippy::type_complexity)]
    let variants: [(&str, fn(&mut RunConfig)); 4] = [
        ("poly6", |c| c.system.fifo_depth = 2),
        ("saxpy", |c| c.system.mem = dyser_mem::MemConfig::perfect()),
        ("fir4", |c| {
            let g = c.system.geometry;
            let kinds = vec![FuKind::Universal; g.fu_count()];
            c.system.kinds = Some(kinds.clone());
            c.compiler.kinds = Some(kinds);
        }),
        ("stencil3", |c| c.compiler.unroll_factor = 1),
    ];
    for (name, tweak) in variants {
        let k = suite().into_iter().find(|k| k.name == name).expect("kernel in suite");
        let mut config = RunConfig::default();
        config.compiler = k.compiler_options(config.system.geometry);
        mode.apply(&mut config);
        tweak(&mut config);
        jobs.push((k.case(32, SEED), config));
    }
    jobs
}

/// Asserts every observable field of two results matches bit-for-bit.
fn assert_identical(name: &str, label: &str, got: &KernelResult, want: &KernelResult) {
    for (which, g, w) in
        [("baseline", &got.baseline, &want.baseline), ("dyser", &got.dyser, &want.dyser)]
    {
        assert_eq!(g, w, "{name} ({which}): RunStats diverged between {label} and stepped runs");
        assert_eq!(
            g.cycle_account(),
            w.cycle_account(),
            "{name} ({which}): cycle buckets diverged ({label})"
        );
    }
    assert_eq!(
        format!("{got:?}"),
        format!("{want:?}"),
        "{name}: results diverged outside the stats ({label})"
    );
}

#[test]
fn backends_are_bit_identical_serial_and_parallel() {
    let fast_jobs = equivalence_jobs(Mode::Fast);
    let compiled_jobs = equivalence_jobs(Mode::Compiled);
    let stepped_jobs = equivalence_jobs(Mode::Stepped);

    // Serial: one kernel at a time, all paths back to back. The dyser
    // runs keep port sends/receives in flight while counted stalls are
    // skipped, so this covers DySER-active fabric states, not just
    // scalar code.
    let stepped_serial: Vec<KernelResult> = stepped_jobs
        .iter()
        .map(|(case, config)| {
            run_kernel(case, config).unwrap_or_else(|e| panic!("stepped {}: {e}", case.name))
        })
        .collect();
    for ((case, config), want) in fast_jobs.iter().zip(&stepped_serial) {
        let fast =
            run_kernel(case, config).unwrap_or_else(|e| panic!("fast {}: {e}", case.name));
        assert!(
            fast.dyser.fabric.port_in > 0 || !fast.accelerated_any || !config.system.has_fabric,
            "{}: accelerated run exercised no port traffic",
            case.name
        );
        assert_identical(&case.name, "fast-forwarded", &fast, want);
    }
    for ((case, config), want) in compiled_jobs.iter().zip(&stepped_serial) {
        let compiled =
            run_kernel(case, config).unwrap_or_else(|e| panic!("compiled {}: {e}", case.name));
        assert_identical(&case.name, "compiled", &compiled, want);
    }

    // Parallel: the same jobs fanned across workers must agree with the
    // stepped serial reference too.
    for (jobs, label) in [
        (&fast_jobs, "fast-forwarded"),
        (&compiled_jobs, "compiled"),
        (&stepped_jobs, "stepped"),
    ] {
        for ((case, _), (want, got)) in
            jobs.iter().zip(stepped_serial.iter().zip(&run_kernels(jobs, 4)))
        {
            let got = got.as_ref().unwrap_or_else(|e| panic!("parallel {}: {e}", case.name));
            assert_identical(&case.name, label, got, want);
        }
    }
}

/// An endless loop that keeps long-latency stalls in flight —
/// cache-missing loads, an 8-cycle multiply, a 40-cycle divide — and
/// stores every quotient, so most budgets cut the run mid-stall and the
/// memory image depends on exactly how many iterations completed.
fn stally_spin_with_stores() -> Vec<u32> {
    let mut asm = Assembler::new();
    asm.push(Instr::Sethi { rd: regs::O0, imm22: 0x800 }); // %o0 = 0x20_0000
    asm.push(Instr::Sethi { rd: regs::O4, imm22: 0xc00 }); // %o4 = 0x30_0000
    asm.label("spin");
    asm.push(Instr::Load { kind: LoadKind::Ldx, rd: regs::O1, rs1: regs::O0, op2: Op2::Imm(0) });
    asm.push(Instr::alu(AluOp::Mulx, regs::O2, regs::O1, Op2::Imm(3)));
    asm.push(Instr::alu(AluOp::Sdivx, regs::O3, regs::O2, Op2::Imm(7)));
    asm.push(Instr::Store { kind: StoreKind::Stx, rs: regs::O3, rs1: regs::O4, op2: Op2::Imm(0) });
    asm.push(Instr::alu(AluOp::Add, regs::O0, regs::O0, Op2::Imm(64)));
    asm.push(Instr::alu(AluOp::Add, regs::O4, regs::O4, Op2::Imm(8)));
    asm.branch(dyser_isa::ICond::Always, "spin");
    asm.push(Instr::Nop);
    asm.assemble().expect("spin assembles")
}

/// The array `stally_spin_with_stores` loads from, one word per 64-byte
/// line; seeded nonzero so every stored quotient is nonzero too.
const LOAD_BASE: u64 = 0x20_0000;
/// The store region `stally_spin_with_stores` writes: enough words to
/// cover every iteration any budget in the sweep can complete.
const STORE_BASE: u64 = 0x30_0000;
const STORE_WORDS: usize = 64;

#[test]
fn timeout_mid_stall_reports_identical_cycles_all_ways() {
    let words = stally_spin_with_stores();
    // Sweep budgets across a couple of loop iterations so some cut the
    // run mid-stall and some on an issue cycle; a bulk skip must never
    // overshoot the budget on any path, and every store retired before
    // the budget ran out must be in memory on every path. The
    // fabric-free system (E10's pure baseline) takes the same fast
    // paths, so cover both.
    let inputs: Vec<u64> = (1..=8 * STORE_WORDS as u64).map(|i| i * 1000 + 7).collect();
    for has_fabric in [true, false] {
        let mut stored = false;
        for max_cycles in (40..=160).step_by(7) {
            let run_one = |mode: Mode| -> (u64, dyser_core::RunStats, Vec<u64>) {
                let mut sys = System::new(SystemConfig { has_fabric, ..SystemConfig::default() });
                sys.load_raw(0x10000, &words);
                sys.memory_mut().write_u64_slice(LOAD_BASE, &inputs);
                let err = match mode {
                    Mode::Stepped => sys.run_stepped(max_cycles),
                    Mode::Fast => sys.run(max_cycles),
                    Mode::Compiled => sys.run_compiled(max_cycles),
                }
                .expect_err("spin loop never halts");
                let SysError::Timeout { cycles } = err else {
                    panic!("expected timeout, got {err}");
                };
                (cycles, sys.stats(), sys.memory().read_u64_slice(STORE_BASE, STORE_WORDS))
            };
            let (stepped_cycles, stepped_stats, stepped_image) = run_one(Mode::Stepped);
            assert_eq!(stepped_cycles, max_cycles, "stepped timeout off the budget");
            stored |= stepped_image.iter().any(|&w| w != 0);
            for (mode, label) in [(Mode::Fast, "fast-forwarded"), (Mode::Compiled, "compiled")] {
                let (cycles, stats, image) = run_one(mode);
                assert_eq!(cycles, max_cycles, "{label} timeout overshot or undershot");
                assert_eq!(
                    stats, stepped_stats,
                    "max_cycles={max_cycles}: {label} stats diverged at timeout"
                );
                assert_eq!(
                    image, stepped_image,
                    "max_cycles={max_cycles} (fabric={has_fabric}): {label} memory image \
                     diverged at timeout"
                );
            }
        }
        assert!(stored, "no budget in the ladder retired a store (fabric={has_fabric})");
    }
}
