//! The spatial scheduler: mapping a compute slice onto the fabric.
//!
//! The mechanism (placement + breadth-first routing) lives in
//! `dyser_fabric::ConfigBuilder`; this module supplies the policy:
//!
//! * translating IR operations into fabric operations (including operand
//!   normalisation — `sgt` becomes a swapped `ICmpSLt`, `fneg` becomes
//!   `0.0 - x`),
//! * assigning interface values to ports in a deterministic order,
//! * a seeded random-restart refinement loop that re-places the graph
//!   with different hints and keeps the configuration with the fewest
//!   routed registers (a light-weight stand-in for the original
//!   scheduler's simulated annealing), skipped when the graph fails the
//!   builder's capacity check and so cannot place under any hints.

use std::collections::HashMap;

use dyser_fabric::{
    BuildError, BuildScratch, ConfigBuilder, FabricConfig, FabricConfigError, FabricGeometry,
    FuId, FuKind, FuOp, ValueId,
};
use dyser_isa::Port;
use dyser_rng::Rng64;

use crate::dyser::region::Region;
use crate::ir::{BinOp, CmpOp, Function, Inst, UnOp, Value};

/// A scheduled region: the configuration plus its port assignment.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// The fabric configuration implementing the compute slice.
    pub config: FabricConfig,
    /// `input_ports[i]` is the fabric input port for `region.inputs[i]`.
    pub input_ports: Vec<usize>,
    /// `output_ports[j]` is the fabric output port for `region.outputs[j]`.
    pub output_ports: Vec<usize>,
    /// Estimated dataflow critical path through the fabric, in cycles.
    pub depth_estimate: u64,
}

/// Errors from scheduling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// The compute slice needs more interface ports than the geometry has
    /// or the ISA can name.
    TooManyPorts {
        /// Inputs required.
        inputs: usize,
        /// Outputs required.
        outputs: usize,
        /// The usable limits: the geometry's ports, capped at
        /// [`Port::COUNT`].
        available: (usize, usize),
    },
    /// Placement or routing failed even after refinement restarts.
    Unmappable(BuildError),
    /// An IR operation has no fabric equivalent (should not happen for
    /// values region selection admits).
    Unsupported(String),
    /// The caller-supplied hardware description is malformed (e.g. a
    /// kinds vector whose length does not match the geometry).
    BadHardware(FabricConfigError),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::TooManyPorts { inputs, outputs, available } => write!(
                f,
                "region needs {inputs} input / {outputs} output ports; fabric has {}/{}",
                available.0, available.1
            ),
            ScheduleError::Unmappable(e) => write!(f, "cannot map region: {e}"),
            ScheduleError::Unsupported(op) => write!(f, "no fabric operation for {op}"),
            ScheduleError::BadHardware(e) => write!(f, "invalid hardware description: {e}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Scheduling policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduleOptions {
    /// Random-restart refinement rounds (0 = greedy only).
    pub refinement_rounds: usize,
    /// RNG seed for deterministic refinement.
    pub seed: u64,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions { refinement_rounds: 12, seed: 0xD75E_2015 }
    }
}

fn fabric_bin_op(op: BinOp) -> FuOp {
    match op {
        BinOp::Add => FuOp::IAdd,
        BinOp::Sub => FuOp::ISub,
        BinOp::Mul => FuOp::IMul,
        BinOp::Sdiv => FuOp::IDiv,
        BinOp::And => FuOp::IAnd,
        BinOp::Or => FuOp::IOr,
        BinOp::Xor => FuOp::IXor,
        BinOp::Shl => FuOp::IShl,
        BinOp::Lshr => FuOp::IShrL,
        BinOp::Ashr => FuOp::IShrA,
        BinOp::Smax => FuOp::IMax,
        BinOp::Smin => FuOp::IMin,
        BinOp::Fadd => FuOp::FAdd,
        BinOp::Fsub => FuOp::FSub,
        BinOp::Fmul => FuOp::FMul,
        BinOp::Fdiv => FuOp::FDiv,
        BinOp::Fmax => FuOp::FMax,
        BinOp::Fmin => FuOp::FMin,
    }
}

/// Fabric comparison op plus whether operands must swap.
fn fabric_cmp_op(op: CmpOp) -> (FuOp, bool) {
    match op {
        CmpOp::Eq => (FuOp::ICmpEq, false),
        CmpOp::Ne => (FuOp::ICmpNe, false),
        CmpOp::Slt => (FuOp::ICmpSLt, false),
        CmpOp::Sle => (FuOp::ICmpSLe, false),
        CmpOp::Sgt => (FuOp::ICmpSLt, true),
        CmpOp::Sge => (FuOp::ICmpSLe, true),
        CmpOp::Ult => (FuOp::ICmpULt, false),
        CmpOp::Feq => (FuOp::FCmpEq, false),
        CmpOp::Flt => (FuOp::FCmpLt, false),
        CmpOp::Fle => (FuOp::FCmpLe, false),
    }
}

/// Port lists plus op-node handles returned by graph construction.
type GraphPorts = (Vec<usize>, Vec<usize>, Vec<ValueId>);

/// Builds the dataflow graph into a `ConfigBuilder`; returns the op node
/// ids (one per compute value, in region order) so refinement can hint
/// their placement.
fn build_graph(
    f: &Function,
    region: &Region,
    builder: &mut ConfigBuilder,
) -> Result<GraphPorts, ScheduleError> {
    let mut value_map: HashMap<Value, ValueId> = HashMap::new();

    // Inputs occupy ports 0..k in region order.
    let input_ports: Vec<usize> = (0..region.inputs.len()).collect();
    for (i, input) in region.inputs.iter().enumerate() {
        let vid = builder.input_value(i);
        value_map.insert(input.value(), vid);
    }

    // Compute nodes in body (topological) order.
    let mut op_nodes: Vec<ValueId> = Vec::new();
    for &cv in &region.compute {
        let arg = |v: Value, builder: &mut ConfigBuilder| -> Result<ValueId, ScheduleError> {
            if let Some(&vid) = value_map.get(&v) {
                return Ok(vid);
            }
            if let Some(c) = f.as_const_i(v) {
                let vid = builder.const_value(c as u64);
                return Ok(vid);
            }
            if let Some(c) = f.as_const_f(v) {
                let vid = builder.const_value(c.to_bits());
                return Ok(vid);
            }
            Err(ScheduleError::Unsupported(format!(
                "operand {} reached the fabric without an input port",
                f.value_name(v)
            )))
        };
        let inst = f.as_inst(cv).expect("compute values are instructions").clone();
        let vid = match inst {
            Inst::Bin { op, a, b } => {
                let (na, nb) = (arg(a, builder)?, arg(b, builder)?);
                builder.op(fabric_bin_op(op), &[na, nb])
            }
            Inst::Un { op, a } => {
                let na = arg(a, builder)?;
                match op {
                    UnOp::Fneg => builder.op(FuOp::FNeg, &[na]),
                    UnOp::Fabs => builder.op(FuOp::FAbs, &[na]),
                    UnOp::Fsqrt => builder.op(FuOp::FSqrt, &[na]),
                    UnOp::Itof => builder.op(FuOp::IToF, &[na]),
                    UnOp::Ftoi => builder.op(FuOp::FToI, &[na]),
                    UnOp::Not => builder.op(FuOp::PredNot, &[na]),
                }
            }
            Inst::Cmp { op, a, b } => {
                let (fu, swap) = fabric_cmp_op(op);
                let (na, nb) = (arg(a, builder)?, arg(b, builder)?);
                if swap {
                    builder.op(fu, &[nb, na])
                } else {
                    builder.op(fu, &[na, nb])
                }
            }
            Inst::Select { cond, on_true, on_false } => {
                let nc = arg(cond, builder)?;
                let nt = arg(on_true, builder)?;
                let nf = arg(on_false, builder)?;
                builder.op(FuOp::Select, &[nt, nf, nc])
            }
            other => {
                return Err(ScheduleError::Unsupported(format!("{other:?}")));
            }
        };
        value_map.insert(cv, vid);
        op_nodes.push(vid);
    }

    // Outputs occupy ports 0..m in region order.
    let output_ports: Vec<usize> = (0..region.outputs.len()).collect();
    for (j, out) in region.outputs.iter().enumerate() {
        let vid = *value_map
            .get(&out.value)
            .expect("outputs are compute values already mapped");
        builder.output_value(vid, j);
    }

    Ok((input_ports, output_ports, op_nodes))
}

/// Estimated critical path: longest path over compute ops, each op costing
/// its latency plus an average two-hop route.
fn estimate_depth(f: &Function, region: &Region) -> u64 {
    let mut depth: HashMap<Value, u64> = HashMap::new();
    let mut max = 0;
    for &cv in &region.compute {
        let op_latency = match f.as_inst(cv) {
            Some(Inst::Bin { op, .. }) => fabric_bin_op(*op).latency(),
            Some(Inst::Cmp { .. }) => 1,
            Some(Inst::Un { op, .. }) => match op {
                UnOp::Fsqrt => FuOp::FSqrt.latency(),
                UnOp::Itof | UnOp::Ftoi => 3,
                _ => 1,
            },
            _ => 1,
        };
        let in_depth = f
            .operands(cv)
            .iter()
            .map(|o| depth.get(o).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        let d = in_depth + op_latency + 2; // + average route hops
        depth.insert(cv, d);
        max = max.max(d);
    }
    max
}

/// Schedules `region` onto a fabric of the given geometry and kinds.
///
/// # Errors
///
/// Fails if the interface exceeds the ports the geometry has or the ISA
/// can name ([`Port::COUNT`]), or if no placement routes after the
/// refinement budget.
pub fn schedule_region(
    f: &Function,
    region: &Region,
    geometry: FabricGeometry,
    kinds: &[FuKind],
    options: &ScheduleOptions,
) -> Result<Schedule, ScheduleError> {
    let available = (
        geometry.input_ports().min(Port::COUNT),
        geometry.output_ports().min(Port::COUNT),
    );
    if region.inputs.len() > available.0 || region.outputs.len() > available.1 {
        return Err(ScheduleError::TooManyPorts {
            inputs: region.inputs.len(),
            outputs: region.outputs.len(),
            available,
        });
    }

    let mut builder = ConfigBuilder::with_kinds(geometry, kinds.to_vec())
        .map_err(ScheduleError::BadHardware)?;
    builder.set_name(region.name.clone());
    let (input_ports, output_ports, op_nodes) = build_graph(f, region, &mut builder)?;

    // Greedy first. Every build of the region reuses one set of placer
    // buffers, and only a configuration about to be kept is validated.
    let mut scratch = BuildScratch::default();
    let mut best = builder
        .build_within(&mut scratch, usize::MAX)
        .and_then(|greedy| {
            let greedy = greedy.expect("an unbounded build completes");
            greedy.validate()?;
            Ok(greedy)
        })
        .map_err(ScheduleError::Unmappable);
    let mut best_cost = best.as_ref().ok().map(config_cost);

    // Random-restart refinement: hint a random subset of ops to random
    // sites (the builder passes over taken or incompatible ones), keep
    // improvements. Hints only move ops between sites, so a graph that
    // fails the capacity check fails every round and the greedy error
    // stands. A round draws its hints before it builds, and its build
    // stops once it cannot cost less than the best so far, so the
    // bound changes neither the random stream nor which candidate wins.
    if builder.fits() {
        let mut rng = Rng64::seed_from_u64(options.seed);
        let sites: Vec<FuId> = geometry.fus().collect();
        for _ in 0..options.refinement_rounds {
            builder.clear_hints();
            for &node in &op_nodes {
                if rng.gen_bool(0.5) {
                    builder.hint(node, sites[rng.gen_range(0..sites.len())]);
                }
            }
            // A build the bound lets finish costs less than the best.
            let bound = best_cost.unwrap_or(usize::MAX);
            if let Ok(Some(candidate)) = builder.build_within(&mut scratch, bound) {
                if candidate.validate().is_ok() {
                    best_cost = Some(config_cost(&candidate));
                    best = Ok(candidate);
                }
            }
        }
    }

    Ok(Schedule {
        config: best?,
        input_ports,
        output_ports,
        depth_estimate: estimate_depth(f, region),
    })
}

/// Cost of a configuration: total routed registers (wire length proxy).
fn config_cost(config: &FabricConfig) -> usize {
    config.configured_routes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dyser::region::{select_regions, RegionOptions};
    use crate::ir::{FunctionBuilder, Type};
    use dyser_fabric::Fabric;

    /// Builds c[i] = (a[i] + b[i]) * (a[i] - b[i]) and returns its region.
    fn kernel_and_region() -> (Function, Region) {
        let mut b = FunctionBuilder::new(
            "k",
            &[("a", Type::Ptr), ("b", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64)],
        );
        let (a, bb, c, n) = (b.param(0), b.param(1), b.param(2), b.param(3));
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
        let va = b.load(pa, Type::I64);
        let vb = b.load(pb, Type::I64);
        let sum = b.bin(BinOp::Add, va, vb);
        let diff = b.bin(BinOp::Sub, va, vb);
        let prod = b.bin(BinOp::Mul, sum, diff);
        let pc = b.gep(c, i, 8);
        b.store(prod, pc);
        let i2 = b.bin(BinOp::Add, i, one);
        b.add_incoming(i, entry, zero);
        b.add_incoming(i, body, i2);
        let cond = b.cmp(CmpOp::Slt, i2, n);
        b.cond_br(cond, body, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.build().unwrap();
        let r = select_regions(&f, &RegionOptions::default()).remove(0);
        (f, r)
    }

    fn default_kinds(geom: FabricGeometry) -> Vec<FuKind> {
        geom.fus().map(|fu| FuKind::default_pattern(fu.row, fu.col)).collect()
    }

    #[test]
    fn schedules_and_executes_correctly() {
        let (f, r) = kernel_and_region();
        let geom = FabricGeometry::new(4, 4);
        let sched = schedule_region(&f, &r, geom, &default_kinds(geom), &Default::default())
            .expect("region schedules");
        assert_eq!(sched.input_ports.len(), 2);
        assert_eq!(sched.output_ports.len(), 1);
        assert!(sched.depth_estimate > 0);

        // Execute the configuration: (7+3)*(7-3) = 40.
        let mut fabric = Fabric::new(geom);
        fabric.load_config(&sched.config).unwrap();
        assert!(fabric.try_send(sched.input_ports[0], 7));
        assert!(fabric.try_send(sched.input_ports[1], 3));
        let out = fabric.run_until_output(sched.output_ports[0], 300).unwrap();
        assert_eq!(out, 40);
    }

    #[test]
    fn refinement_is_deterministic() {
        let (f, r) = kernel_and_region();
        let geom = FabricGeometry::new(4, 4);
        let opts = ScheduleOptions { refinement_rounds: 8, seed: 42 };
        let s1 = schedule_region(&f, &r, geom, &default_kinds(geom), &opts).unwrap();
        let s2 = schedule_region(&f, &r, geom, &default_kinds(geom), &opts).unwrap();
        assert_eq!(s1.config, s2.config);
    }

    #[test]
    fn too_small_fabric_rejected() {
        let (f, r) = kernel_and_region();
        // A 1x1 fabric has 3 input ports but only one FU for three ops.
        let geom = FabricGeometry::new(1, 1);
        let err = schedule_region(&f, &r, geom, &[FuKind::Universal], &Default::default())
            .unwrap_err();
        assert!(matches!(err, ScheduleError::Unmappable(_)), "got {err}");
    }

    /// The `poly6` suite kernel's body: Horner's rule for a degree-6
    /// polynomial, a 12-op slice of six `fmul` and six `fadd`.
    fn horner_and_region() -> (Function, Region) {
        let mut b =
            FunctionBuilder::new("poly6", &[("a", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64)]);
        let (a, c, n) = (b.param(0), b.param(1), b.param(2));
        let zero = b.const_i(0);
        let one = b.const_i(1);
        let coef: Vec<_> =
            [0.5, -1.25, 0.75, 2.0, -0.5, 1.5, -2.25].iter().map(|&k| b.const_f(k)).collect();
        let body = b.block("body");
        let exit = b.block("exit");
        let entry = b.current();
        b.br(body);
        b.switch_to(body);
        let i = b.phi(Type::I64);
        let pa = b.gep(a, i, 8);
        let x = b.load(pa, Type::F64);
        let mut acc = coef[0];
        for &k in &coef[1..] {
            let m = b.bin(BinOp::Fmul, acc, x);
            acc = b.bin(BinOp::Fadd, m, k);
        }
        let pc = b.gep(c, i, 8);
        b.store(acc, pc);
        let i2 = b.bin(BinOp::Add, i, one);
        b.add_incoming(i, entry, zero);
        b.add_incoming(i, body, i2);
        let cond = b.cmp(CmpOp::Slt, i2, n);
        b.cond_br(cond, body, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.build().unwrap();
        let r = select_regions(&f, &RegionOptions::default()).remove(0);
        (f, r)
    }

    #[test]
    fn a_graph_that_cannot_fit_keeps_the_greedy_error() {
        // Twelve ops on four sites, six of them `FMul` on one FpMul site:
        // refinement is skipped, and the error is the greedy build's.
        let (f, r) = horner_and_region();
        assert_eq!(r.compute.len(), 12);
        let geom = FabricGeometry::new(2, 2);
        let kinds = default_kinds(geom);
        let refined =
            schedule_region(&f, &r, geom, &kinds, &ScheduleOptions::default()).unwrap_err();
        let greedy_only = ScheduleOptions { refinement_rounds: 0, ..ScheduleOptions::default() };
        let greedy = schedule_region(&f, &r, geom, &kinds, &greedy_only).unwrap_err();
        assert!(matches!(refined, ScheduleError::Unmappable(_)), "got {refined}");
        assert_eq!(refined, greedy);
    }

    #[test]
    fn port_overflow_detected() {
        let (f, mut r) = kernel_and_region();
        // Pretend the region needs 99 inputs.
        let v = r.inputs[0].clone();
        while r.inputs.len() < 99 {
            r.inputs.push(v.clone());
        }
        let geom = FabricGeometry::new(2, 2);
        let err = schedule_region(&f, &r, geom, &default_kinds(geom), &Default::default())
            .unwrap_err();
        assert!(matches!(err, ScheduleError::TooManyPorts { .. }));
    }

    use crate::ir::{BinOp, CmpOp};
}
