//! The core's calibrated operation latencies, measured back through the
//! whole system: a loop of back-to-back operations must cost exactly the
//! cycles per operation that DESIGN.md "Calibration" lists. A changed
//! latency constant fails here by name, not only as changed golden bytes.

use dyser_core::{System, SystemConfig};
use dyser_isa::{regs, AluOp, Assembler, FReg, FpOp, ICond, Instr, Op2};
use dyser_mem::MemConfig;

/// Loop trips per measurement.
const TRIPS: u64 = 16;

/// Operations per trip in the measured loop.
const OPS_PER_TRIP: u64 = 4;

/// Cycles of a `TRIPS`-trip loop whose body holds `copies` back-to-back
/// copies of `op`, on a hierarchy where every access hits, so only the
/// operations themselves differ between two loop bodies.
fn loop_cycles(op: Instr, copies: u64) -> u64 {
    let mut asm = Assembler::new();
    asm.push(Instr::mov_imm(regs::L0, TRIPS as i16));
    asm.push(Instr::mov_imm(regs::O1, 1000));
    asm.label("loop");
    for _ in 0..copies {
        asm.push(op);
    }
    asm.push(Instr::alu(AluOp::SubCc, regs::L0, regs::L0, Op2::Imm(1)));
    asm.branch(ICond::Ne, "loop");
    asm.push(Instr::Nop);
    asm.push(Instr::Halt);
    let config = SystemConfig { mem: MemConfig::perfect(), ..SystemConfig::default() };
    let mut sys = System::new(config);
    sys.load_raw(dyser_compiler::CODE_BASE, &asm.assemble().expect("loop assembles"));
    sys.run(1_000_000).expect("loop halts").cycles
}

fn fpu(op: FpOp) -> Instr {
    Instr::Fpu { op, rd: FReg::new(2), rs1: FReg::new(4), rs2: FReg::new(6) }
}

fn alu(op: AluOp) -> Instr {
    Instr::alu(op, regs::O2, regs::O1, Op2::Imm(3))
}

#[test]
fn core_latencies_match_the_calibration_table() {
    // (the constant, an operation it times, DESIGN.md's cycles per op)
    let table = [
        ("FpOp::Addd.latency()", fpu(FpOp::Addd), 8),
        ("FpOp::Muld.latency()", fpu(FpOp::Muld), 10),
        ("FpOp::Divd.latency()", fpu(FpOp::Divd), 32),
        ("FpOp::Sqrtd.latency()", fpu(FpOp::Sqrtd), 36),
        ("AluOp::Mulx.latency()", alu(AluOp::Mulx), 8),
        ("AluOp::Sdivx.latency()", alu(AluOp::Sdivx), 40),
    ];
    let empty = loop_cycles(Instr::Nop, 0);
    for (constant, op, calibrated) in table {
        let ops = TRIPS * OPS_PER_TRIP;
        let spent = loop_cycles(op, OPS_PER_TRIP) - empty;
        assert_eq!(
            spent,
            calibrated * ops,
            "{constant}: back-to-back `{op}` costs {} cycles per op; DESIGN.md \
             \"Calibration\" says {calibrated}",
            spent as f64 / ops as f64
        );
    }
}
