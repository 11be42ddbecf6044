//! Dead-code elimination.

use crate::ir::{Function, Inst, Terminator, Value};

/// Removes pure instructions whose results are never used, iterating to a
/// fixpoint. Returns the number of instructions removed.
pub fn dce(f: &mut Function) -> usize {
    let mut removed = 0;
    loop {
        // By value index.
        let mut used = vec![false; f.value_count()];
        for b in f.blocks() {
            for &v in &f.block(b).insts {
                for o in f.operands(v) {
                    used[o.index()] = true;
                }
            }
            match &f.block(b).term {
                Terminator::CondBr { cond: v, .. } | Terminator::Ret(Some(v)) => {
                    used[v.index()] = true;
                }
                _ => {}
            }
        }

        let mut dead: Vec<(crate::ir::Block, Value)> = Vec::new();
        for b in f.blocks() {
            for &v in &f.block(b).insts {
                let Some(inst) = f.as_inst(v) else { continue };
                let pure = !matches!(inst, Inst::Store { .. });
                if pure && !used[v.index()] {
                    dead.push((b, v));
                }
            }
        }
        if dead.is_empty() {
            return removed;
        }
        removed += dead.len();
        for (b, v) in dead {
            f.block_mut(b).insts.retain(|&x| x != v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, FunctionBuilder, Type};

    #[test]
    fn removes_unused_chain() {
        let mut b = FunctionBuilder::new("f", &[("x", Type::I64)]);
        let x = b.param(0);
        let one = b.const_i(1);
        let dead1 = b.bin(BinOp::Add, x, one);
        let _dead2 = b.bin(BinOp::Mul, dead1, dead1);
        let live = b.bin(BinOp::Sub, x, one);
        b.ret(Some(live));
        let mut f = b.build().unwrap();
        let n = dce(&mut f);
        assert_eq!(n, 2, "both dead instructions removed (fixpoint)");
        assert_eq!(f.block(f.entry()).insts.len(), 1);
    }

    #[test]
    fn keeps_stores() {
        let mut b = FunctionBuilder::new("f", &[("p", Type::Ptr)]);
        let p = b.param(0);
        let one = b.const_i(1);
        b.store(one, p);
        b.ret(None);
        let mut f = b.build().unwrap();
        assert_eq!(dce(&mut f), 0);
        assert_eq!(f.block(f.entry()).insts.len(), 1);
    }

    #[test]
    fn keeps_values_feeding_stores_and_terminators() {
        let mut b = FunctionBuilder::new("f", &[("p", Type::Ptr), ("x", Type::I64)]);
        let p = b.param(0);
        let x = b.param(1);
        let one = b.const_i(1);
        let y = b.bin(BinOp::Add, x, one);
        b.store(y, p);
        let c = b.cmp(crate::ir::CmpOp::Slt, x, one);
        let t = b.block("t");
        let e = b.block("e");
        b.cond_br(c, t, e);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        let mut f = b.build().unwrap();
        assert_eq!(dce(&mut f), 0);
    }

    #[test]
    fn phi_keeps_its_operands_alive() {
        let mut b = FunctionBuilder::new("f", &[("n", Type::I64)]);
        let n = b.param(0);
        let zero = b.const_i(0);
        let one = b.const_i(1);
        let body = b.block("body");
        let exit = b.block("exit");
        let entry = b.current();
        b.br(body);
        b.switch_to(body);
        let i = b.phi(Type::I64);
        let i2 = b.bin(BinOp::Add, i, one);
        b.add_incoming(i, entry, zero);
        b.add_incoming(i, body, i2);
        let c = b.cmp(crate::ir::CmpOp::Slt, i2, n);
        b.cond_br(c, body, exit);
        b.switch_to(exit);
        b.ret(Some(i2));
        let mut f = b.build().unwrap();
        assert_eq!(dce(&mut f), 0, "loop-carried values stay alive");
    }
}
