//! Acceleratable-region selection and access/execute slicing.
//!
//! A region is an innermost, single-block loop body (the shape loops take
//! after if-conversion and unrolling). Its instructions are partitioned:
//!
//! * the **access slice** stays on the core: phis, address arithmetic
//!   (`gep` chains), loads, stores, and the loop-exit test;
//! * the **compute slice** moves to the fabric: every remaining pure
//!   operation.
//!
//! The slice boundary defines the fabric interface:
//!
//! * **inputs** — loads consumed only by compute (they become `dload`,
//!   the memory-to-fabric fast path), and core values consumed by compute
//!   (loop-carried phis, shared loads, loop invariants — they become
//!   `dsend`);
//! * **outputs** — compute values consumed by the core. A value consumed
//!   *only* by stores becomes a `dstore` (and the code generator lags it
//!   one iteration to pipeline invocations); anything else is received
//!   into a register (`drecv`).

use crate::analysis::{Cfg, DomTree, LoopForest};
use crate::ir::{Block, Function, Inst, Terminator, Value};

/// Options controlling region selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionOptions {
    /// Minimum number of compute-slice operations for a region to be
    /// worth configuring (the paper's compiler applies a similar
    /// profitability threshold).
    pub min_compute_ops: usize,
    /// Adaptive mechanism for data-dependent exits (E8): allow the
    /// loop-exit condition's dataflow to move into the fabric, received
    /// back each iteration. Serializes invocations, but offloads the
    /// comparison work.
    pub offload_exit_condition: bool,
    /// Restrict selection to this block (the unrolled main body), if set.
    pub only_block: Option<Block>,
}

impl Default for RegionOptions {
    fn default() -> Self {
        RegionOptions { min_compute_ops: 2, offload_exit_condition: false, only_block: None }
    }
}

/// One fabric input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegionInput {
    /// A load consumed only by the compute slice: becomes `dload`.
    Load {
        /// The load instruction.
        load: Value,
    },
    /// A core value consumed by the compute slice: becomes `dsend`.
    CoreValue {
        /// The value sent.
        value: Value,
    },
}

impl RegionInput {
    /// The IR value this input carries.
    pub fn value(&self) -> Value {
        match self {
            RegionInput::Load { load } => *load,
            RegionInput::CoreValue { value } => *value,
        }
    }
}

/// How a fabric output is consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutputKind {
    /// Consumed only by stores in the body. With a single store it becomes
    /// a `dstore`, software-pipelined by the code generator; with several
    /// stores the code generator receives the value into a register first
    /// (one output value arrives per invocation).
    StoreOnly {
        /// The store instructions consuming it.
        stores: Vec<Value>,
    },
    /// Consumed by the core (phi updates, live-outs, the offloaded exit
    /// condition): becomes `drecv`.
    CoreUse,
}

/// One fabric output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionOutput {
    /// The compute-slice value leaving the fabric.
    pub value: Value,
    /// How the core consumes it.
    pub kind: OutputKind,
}

/// An acceleratable region with its slices and interface.
#[derive(Debug, Clone)]
pub struct Region {
    /// Region name (used as the configuration name).
    pub name: String,
    /// The single-block loop body.
    pub body: Block,
    /// The block the loop exits to.
    pub exit: Block,
    /// The loop's unique outside predecessor (`dinit` goes here).
    pub outside_pred: Block,
    /// Compute-slice instructions, in body order.
    pub compute: Vec<Value>,
    /// Fabric inputs, in deterministic order (port `i` = `inputs[i]`).
    pub inputs: Vec<RegionInput>,
    /// Fabric outputs, in deterministic order (port `j` = `outputs[j]`).
    pub outputs: Vec<RegionOutput>,
    /// Whether the exit condition was offloaded (adaptive mechanism).
    pub exit_condition_offloaded: bool,
}

impl Region {
    /// Whether `v` is in the compute slice.
    pub fn is_compute(&self, v: Value) -> bool {
        self.compute.contains(&v)
    }
}

/// Selects acceleratable regions in `f`.
///
/// Returns one [`Region`] per qualifying innermost single-block loop, in
/// block order.
pub fn select_regions(f: &Function, options: &RegionOptions) -> Vec<Region> {
    let cfg = Cfg::compute(f);
    let dom = DomTree::compute(f, &cfg);
    let forest = LoopForest::compute(f, &cfg, &dom);

    let mut regions = Vec::new();
    let mut candidates: Vec<(Block, Block, Block)> = Vec::new(); // (body, exit, outside)
    for l in forest.innermost() {
        if l.blocks.len() != 1 {
            continue;
        }
        let body = l.header;
        if let Some(only) = options.only_block {
            if body != only {
                continue;
            }
        }
        let Terminator::CondBr { then_bb, else_bb, .. } = f.block(body).term else { continue };
        let exit = if then_bb == body {
            else_bb
        } else if else_bb == body {
            then_bb
        } else {
            continue;
        };
        let outside: Vec<Block> =
            cfg.preds(body).iter().copied().filter(|&p| p != body).collect();
        let [outside_pred] = outside.as_slice() else { continue };
        candidates.push((body, exit, *outside_pred));
    }
    candidates.sort();

    for (body, exit, outside_pred) in candidates {
        if let Some(region) = slice_body(f, body, exit, outside_pred, options) {
            regions.push(region);
        }
    }
    regions
}

/// Whether an instruction is a pure compute candidate.
fn is_pure_compute(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Bin { .. } | Inst::Un { .. } | Inst::Cmp { .. } | Inst::Select { .. }
    )
}

fn slice_body(
    f: &Function,
    body: Block,
    exit: Block,
    outside_pred: Block,
    options: &RegionOptions,
) -> Option<Region> {
    let insts = &f.block(body).insts;
    // Value sets and maps below are indexed by value.
    let mut in_body = vec![false; f.value_count()];
    for &v in insts {
        in_body[v.index()] = true;
    }
    let Terminator::CondBr { cond, .. } = f.block(body).term else { return None };

    // Seed the core-required set: gep operands and (unless offloaded) the
    // exit condition. Close transitively over pure feeders inside the body.
    let mut core_required = vec![false; f.value_count()];
    let mut work: Vec<Value> = Vec::new();
    for &v in insts {
        match f.as_inst(v) {
            Some(Inst::Gep { base, index, .. }) => {
                work.push(*base);
                work.push(*index);
            }
            Some(Inst::Store { ptr, .. }) => work.push(*ptr),
            _ => {}
        }
    }
    if !options.offload_exit_condition {
        work.push(cond);
    }
    while let Some(v) = work.pop() {
        if !in_body[v.index()] || core_required[v.index()] {
            continue;
        }
        if let Some(inst) = f.as_inst(v) {
            if is_pure_compute(inst) {
                core_required[v.index()] = true;
                work.extend(f.operands(v));
            }
        }
    }

    // Compute slice: pure ops in the body not required on the core.
    let compute: Vec<Value> = insts
        .iter()
        .copied()
        .filter(|&v| {
            f.as_inst(v).is_some_and(is_pure_compute) && !core_required[v.index()]
        })
        .collect();
    if compute.len() < options.min_compute_ops {
        return None;
    }
    let mut compute_set = vec![false; f.value_count()];
    for &v in &compute {
        compute_set[v.index()] = true;
    }

    // Uses of every value, to classify loads and outputs. Collect across
    // the whole function (live-outs count as core uses). Terminator and
    // return uses are tracked separately: they are always core uses.
    let mut users: Vec<Vec<Value>> = vec![Vec::new(); f.value_count()];
    let mut control_users = vec![false; f.value_count()];
    for b in f.blocks() {
        for &v in &f.block(b).insts {
            for o in f.operands(v) {
                users[o.index()].push(v);
            }
        }
        match &f.block(b).term {
            Terminator::CondBr { cond: c, .. } | Terminator::Ret(Some(c)) => {
                control_users[c.index()] = true;
            }
            _ => {}
        }
    }

    // Helper: is this value consumed by anything outside the compute slice?
    let externally_used = |v: Value| -> bool {
        control_users[v.index()] || users[v.index()].iter().any(|u| !compute_set[u.index()])
    };

    // Inputs: distinct non-compute, non-constant operands of compute insts.
    let mut inputs: Vec<RegionInput> = Vec::new();
    let mut seen_inputs = vec![false; f.value_count()];
    for &cv in &compute {
        for o in f.operands(cv) {
            if compute_set[o.index()] || seen_inputs[o.index()] || f.is_const(o) {
                continue;
            }
            seen_inputs[o.index()] = true;
            let is_body_load =
                in_body[o.index()] && matches!(f.as_inst(o), Some(Inst::Load { .. }));
            if is_body_load {
                let us = &users[o.index()];
                let only_compute = !control_users[o.index()]
                    && !us.is_empty()
                    && us.iter().all(|u| compute_set[u.index()]);
                if only_compute {
                    inputs.push(RegionInput::Load { load: o });
                    continue;
                }
            }
            inputs.push(RegionInput::CoreValue { value: o });
        }
    }

    // Outputs: compute values consumed outside the compute slice.
    let mut outputs: Vec<RegionOutput> = Vec::new();
    for &cv in &compute {
        if !externally_used(cv) {
            continue;
        }
        let external: Vec<Value> =
            users[cv.index()].iter().copied().filter(|u| !compute_set[u.index()]).collect();
        let all_stores_of_value = !control_users[cv.index()]
            && !external.is_empty()
            && external.iter().all(|&u| {
                in_body[u.index()]
                    && matches!(f.as_inst(u), Some(Inst::Store { value, .. }) if *value == cv)
            });
        let kind = if all_stores_of_value {
            OutputKind::StoreOnly { stores: external }
        } else {
            OutputKind::CoreUse
        };
        outputs.push(RegionOutput { value: cv, kind });
    }
    if outputs.is_empty() {
        return None;
    }

    let offloaded = options.offload_exit_condition && compute_set[cond.index()];
    Some(Region {
        name: format!("{}::{}", f.name(), f.block(body).name),
        body,
        exit,
        outside_pred,
        compute,
        inputs,
        outputs,
        exit_condition_offloaded: offloaded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, CmpOp, FunctionBuilder, Type};

    /// c[i] = a[i]*b[i] + k, with a reduction acc += a[i].
    fn rich_kernel() -> (Function, Block) {
        let mut b = FunctionBuilder::new(
            "rich",
            &[("a", Type::Ptr), ("b", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64), ("k", Type::F64)],
        );
        let (a, bb, c, n, k) = (b.param(0), b.param(1), b.param(2), b.param(3), b.param(4));
        let zero = b.const_i(0);
        let one = b.const_i(1);
        let body = b.block("body");
        let exit = b.block("exit");
        let entry = b.current();
        b.br(body);
        b.switch_to(body);
        let i = b.phi(Type::I64);
        let acc = b.phi(Type::F64);
        let pa = b.gep(a, i, 8);
        let pb = b.gep(bb, i, 8);
        let va = b.load(pa, Type::F64);
        let vb = b.load(pb, Type::F64);
        let prod = b.bin(BinOp::Fmul, va, vb);
        let shifted = b.bin(BinOp::Fadd, prod, k);
        let pc = b.gep(c, i, 8);
        b.store(shifted, pc);
        let acc2 = b.bin(BinOp::Fadd, acc, va);
        let i2 = b.bin(BinOp::Add, i, one);
        let zf = b.const_f(0.0);
        b.add_incoming(i, entry, zero);
        b.add_incoming(i, body, i2);
        b.add_incoming(acc, entry, zf);
        b.add_incoming(acc, body, acc2);
        let cond = b.cmp(CmpOp::Slt, i2, n);
        b.cond_br(cond, body, exit);
        b.switch_to(exit);
        let pacc = b.gep(c, n, 8);
        b.store(acc2, pacc);
        b.ret(None);
        (b.build().unwrap(), body)
    }

    #[test]
    fn selects_and_slices_rich_kernel() {
        let (f, body) = rich_kernel();
        let regions = select_regions(&f, &RegionOptions::default());
        assert_eq!(regions.len(), 1);
        let r = &regions[0];
        assert_eq!(r.body, body);
        // Compute slice: fmul, fadd(+k), fadd(acc). The iv add and the cmp
        // stay on the core.
        assert_eq!(r.compute.len(), 3, "{:?}", r.compute);
    }

    #[test]
    fn load_classification() {
        let (f, _) = rich_kernel();
        let r = &select_regions(&f, &RegionOptions::default())[0];
        // vb feeds only fmul -> dload. va feeds fmul AND acc-fadd, both
        // compute -> also dload. k is a param -> core value send.
        let loads = r.inputs.iter().filter(|i| matches!(i, RegionInput::Load { .. })).count();
        let sends = r
            .inputs
            .iter()
            .filter(|i| matches!(i, RegionInput::CoreValue { .. }))
            .count();
        assert_eq!(loads, 2, "both loads feed only compute: {:?}", r.inputs);
        // k (param) and acc (phi) are core-value inputs.
        assert_eq!(sends, 2, "{:?}", r.inputs);
    }

    #[test]
    fn output_classification() {
        let (f, _) = rich_kernel();
        let r = &select_regions(&f, &RegionOptions::default())[0];
        assert_eq!(r.outputs.len(), 2);
        let store_only = r
            .outputs
            .iter()
            .filter(|o| matches!(o.kind, OutputKind::StoreOnly { .. }))
            .count();
        let core_use =
            r.outputs.iter().filter(|o| o.kind == OutputKind::CoreUse).count();
        assert_eq!(store_only, 1, "shifted value feeds only the in-body store");
        // acc2 feeds the phi and a store OUTSIDE the body -> core use.
        assert_eq!(core_use, 1);
    }

    #[test]
    fn threshold_rejects_tiny_regions() {
        let (f, _) = rich_kernel();
        let opts = RegionOptions { min_compute_ops: 10, ..Default::default() };
        assert!(select_regions(&f, &opts).is_empty());
    }

    #[test]
    fn only_block_restriction() {
        let (f, body) = rich_kernel();
        let opts = RegionOptions { only_block: Some(body), ..Default::default() };
        assert_eq!(select_regions(&f, &opts).len(), 1);
        let opts2 = RegionOptions { only_block: Some(f.entry()), ..Default::default() };
        assert!(select_regions(&f, &opts2).is_empty());
    }

    #[test]
    fn exit_condition_offload() {
        // while (a[i] < limit): the exit test is data-dependent.
        let mut b = FunctionBuilder::new("scan", &[("a", Type::Ptr), ("limit", Type::I64)]);
        let a = b.param(0);
        let limit = b.param(1);
        let zero = b.const_i(0);
        let one = b.const_i(1);
        let body = b.block("body");
        let exit = b.block("exit");
        let entry = b.current();
        b.br(body);
        b.switch_to(body);
        let i = b.phi(Type::I64);
        let p = b.gep(a, i, 8);
        let x = b.load(p, Type::I64);
        let dx = b.bin(BinOp::Mul, x, x);
        let i2 = b.bin(BinOp::Add, i, one);
        b.add_incoming(i, entry, zero);
        b.add_incoming(i, body, i2);
        let c = b.cmp(CmpOp::Slt, dx, limit);
        b.cond_br(c, body, exit);
        b.switch_to(exit);
        let pr = b.gep(a, zero, 8);
        b.store(i2, pr);
        b.ret(None);
        let f = b.build().unwrap();

        // Without offloading: the condition chain (mul, cmp) is core-
        // required, leaving no compute slice.
        assert!(select_regions(&f, &RegionOptions::default()).is_empty());

        // With the adaptive mechanism the chain moves to the fabric and the
        // condition is received back.
        let opts = RegionOptions { offload_exit_condition: true, min_compute_ops: 1, ..Default::default() };
        let regions = select_regions(&f, &opts);
        assert_eq!(regions.len(), 1);
        let r = &regions[0];
        assert!(r.exit_condition_offloaded);
        assert!(r.outputs.iter().any(|o| o.kind == OutputKind::CoreUse));
    }

    #[test]
    fn no_region_without_outputs() {
        // A body whose pure ops all feed addresses has nothing to ship.
        let mut b = FunctionBuilder::new("addr", &[("a", Type::Ptr), ("n", Type::I64)]);
        let a = b.param(0);
        let n = b.param(1);
        let zero = b.const_i(0);
        let one = b.const_i(1);
        let two = b.const_i(2);
        let body = b.block("body");
        let exit = b.block("exit");
        let entry = b.current();
        b.br(body);
        b.switch_to(body);
        let i = b.phi(Type::I64);
        let j = b.bin(BinOp::Mul, i, two); // feeds gep: core-required
        let p = b.gep(a, j, 8);
        b.store(i, p);
        let i2 = b.bin(BinOp::Add, i, one);
        b.add_incoming(i, entry, zero);
        b.add_incoming(i, body, i2);
        let c = b.cmp(CmpOp::Slt, i2, n);
        b.cond_br(c, body, exit);
        b.switch_to(exit);
        b.ret(None);
        let f = b.build().unwrap();
        assert!(select_regions(&f, &RegionOptions::default()).is_empty());
    }
}
