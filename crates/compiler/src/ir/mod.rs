//! The compiler's SSA intermediate representation.
//!
//! A deliberately small, LLVM-flavoured IR: typed SSA values, basic blocks
//! with explicit terminators, `phi` nodes, `select`, and a `gep`
//! address-arithmetic instruction that keeps address computation visible
//! to the access/execute slicer. Kernels are built with
//! [`FunctionBuilder`]; the textual form produced by `Display` can be
//! parsed back with [`parse_module`](crate::ir::parser::parse_module).

pub mod interp;
pub(crate) use interp::{eval_bin as interp_eval_bin, eval_cmp as interp_eval_cmp, eval_un as interp_eval_un};
pub mod parser;
pub mod verify;

use std::fmt;
use std::hash::{Hash, Hasher};

/// Value types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit integer.
    I64,
    /// 64-bit double.
    F64,
    /// Pointer (64-bit address).
    Ptr,
    /// Boolean (0 or 1 in a 64-bit word).
    I1,
    /// No value (result type of `store`).
    Unit,
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Type::I64 => "i64",
            Type::F64 => "f64",
            Type::Ptr => "ptr",
            Type::I1 => "i1",
            Type::Unit => "unit",
        };
        f.write_str(s)
    }
}

/// A reference to an SSA value within one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Value(pub(crate) u32);

impl Value {
    /// The value's index in the function's value table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A reference to a basic block within one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Block(pub(crate) u32);

impl Block {
    /// The block's index in the function's block table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer add.
    Add,
    /// Integer subtract.
    Sub,
    /// Integer multiply.
    Mul,
    /// Signed integer divide (`x / 0 = 0`, matching the machine model).
    Sdiv,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Logical shift right.
    Lshr,
    /// Arithmetic shift right.
    Ashr,
    /// Signed maximum.
    Smax,
    /// Signed minimum.
    Smin,
    /// Double add.
    Fadd,
    /// Double subtract.
    Fsub,
    /// Double multiply.
    Fmul,
    /// Double divide.
    Fdiv,
    /// Double maximum.
    Fmax,
    /// Double minimum.
    Fmin,
}

impl BinOp {
    /// Whether the operation works on doubles.
    pub fn is_fp(self) -> bool {
        matches!(
            self,
            BinOp::Fadd | BinOp::Fsub | BinOp::Fmul | BinOp::Fdiv | BinOp::Fmax | BinOp::Fmin
        )
    }

    /// Result (and operand) type.
    pub fn ty(self) -> Type {
        if self.is_fp() {
            Type::F64
        } else {
            Type::I64
        }
    }

    /// The textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Sdiv => "sdiv",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Lshr => "lshr",
            BinOp::Ashr => "ashr",
            BinOp::Smax => "smax",
            BinOp::Smin => "smin",
            BinOp::Fadd => "fadd",
            BinOp::Fsub => "fsub",
            BinOp::Fmul => "fmul",
            BinOp::Fdiv => "fdiv",
            BinOp::Fmax => "fmax",
            BinOp::Fmin => "fmin",
        }
    }
}

/// Unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Double negation.
    Fneg,
    /// Double absolute value.
    Fabs,
    /// Double square root.
    Fsqrt,
    /// Signed integer to double.
    Itof,
    /// Double to signed integer (truncating).
    Ftoi,
    /// Boolean not (operand and result are `i1`).
    Not,
}

impl UnOp {
    /// Result type.
    pub fn ty(self) -> Type {
        match self {
            UnOp::Fneg | UnOp::Fabs | UnOp::Fsqrt | UnOp::Itof => Type::F64,
            UnOp::Ftoi => Type::I64,
            UnOp::Not => Type::I1,
        }
    }

    /// The textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Fneg => "fneg",
            UnOp::Fabs => "fabs",
            UnOp::Fsqrt => "fsqrt",
            UnOp::Itof => "itof",
            UnOp::Ftoi => "ftoi",
            UnOp::Not => "not",
        }
    }
}

/// Comparison operations (result type `i1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Integer equal.
    Eq,
    /// Integer not equal.
    Ne,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
    /// Unsigned less-than.
    Ult,
    /// Double equal.
    Feq,
    /// Double less-than.
    Flt,
    /// Double less-or-equal.
    Fle,
}

impl CmpOp {
    /// Whether the comparison is on doubles.
    pub fn is_fp(self) -> bool {
        matches!(self, CmpOp::Feq | CmpOp::Flt | CmpOp::Fle)
    }

    /// The textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Slt => "slt",
            CmpOp::Sle => "sle",
            CmpOp::Sgt => "sgt",
            CmpOp::Sge => "sge",
            CmpOp::Ult => "ult",
            CmpOp::Feq => "feq",
            CmpOp::Flt => "flt",
            CmpOp::Fle => "fle",
        }
    }
}

/// An instruction (the `Inst` variant of a value's defining kind).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `a op b`.
    Bin {
        /// The operation.
        op: BinOp,
        /// Left operand.
        a: Value,
        /// Right operand.
        b: Value,
    },
    /// `op a`.
    Un {
        /// The operation.
        op: UnOp,
        /// Operand.
        a: Value,
    },
    /// `a op b -> i1`.
    Cmp {
        /// The comparison.
        op: CmpOp,
        /// Left operand.
        a: Value,
        /// Right operand.
        b: Value,
    },
    /// `cond ? on_true : on_false`.
    Select {
        /// The `i1` condition.
        cond: Value,
        /// Value when true.
        on_true: Value,
        /// Value when false.
        on_false: Value,
    },
    /// 64-bit load from `ptr` (the value's type selects int/double view).
    Load {
        /// The address.
        ptr: Value,
    },
    /// 64-bit store of `value` to `ptr`.
    Store {
        /// The address.
        ptr: Value,
        /// The stored value.
        value: Value,
    },
    /// `base + index * scale` (pointer arithmetic, kept explicit for the
    /// access/execute slicer).
    Gep {
        /// Base pointer.
        base: Value,
        /// Element index.
        index: Value,
        /// Element size in bytes.
        scale: u64,
    },
    /// SSA phi.
    Phi {
        /// `(predecessor, value)` incomings.
        incomings: Vec<(Block, Value)>,
    },
}

/// How a value comes into existence.
///
/// Double constants compare and hash by bit pattern, so `0.0` and `-0.0`
/// differ and a NaN equals itself: equal functions compile to the same
/// code.
#[derive(Debug, Clone)]
pub enum ValueKind {
    /// The `index`-th function parameter.
    Param {
        /// Parameter position.
        index: usize,
    },
    /// An integer (or pointer/bool) constant.
    ConstI(i64),
    /// A double constant.
    ConstF(f64),
    /// An instruction result.
    Inst(Inst),
}

impl PartialEq for ValueKind {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ValueKind::Param { index: a }, ValueKind::Param { index: b }) => a == b,
            (ValueKind::ConstI(a), ValueKind::ConstI(b)) => a == b,
            (ValueKind::ConstF(a), ValueKind::ConstF(b)) => a.to_bits() == b.to_bits(),
            (ValueKind::Inst(a), ValueKind::Inst(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for ValueKind {}

impl Hash for ValueKind {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            ValueKind::Param { index } => index.hash(state),
            ValueKind::ConstI(c) => c.hash(state),
            ValueKind::ConstF(c) => c.to_bits().hash(state),
            ValueKind::Inst(inst) => inst.hash(state),
        }
    }
}

/// A value's definition: kind, type, and optional name.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ValueData {
    /// How the value is produced.
    pub kind: ValueKind,
    /// Its type.
    pub ty: Type,
    /// Optional name used in the textual form.
    pub name: Option<String>,
}

/// A basic-block terminator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Unconditional branch.
    Br(Block),
    /// Two-way conditional branch on an `i1`.
    CondBr {
        /// The condition.
        cond: Value,
        /// Target when true.
        then_bb: Block,
        /// Target when false.
        else_bb: Block,
    },
    /// Function return.
    Ret(Option<Value>),
    /// Block still under construction (rejected by the verifier).
    None,
}

/// A basic block: ordered instructions plus a terminator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BlockData {
    /// Block label.
    pub name: String,
    /// Instruction values in execution order.
    pub insts: Vec<Value>,
    /// The terminator.
    pub term: Terminator,
}

/// A function: parameters, a value table, and basic blocks.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Function {
    name: String,
    params: Vec<(String, Type)>,
    values: Vec<ValueData>,
    blocks: Vec<BlockData>,
}

impl Function {
    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter list.
    pub fn params(&self) -> &[(String, Type)] {
        &self.params
    }

    /// The value handle of parameter `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn param(&self, index: usize) -> Value {
        assert!(index < self.params.len(), "parameter {index} out of range");
        Value(index as u32)
    }

    /// The entry block.
    pub fn entry(&self) -> Block {
        Block(0)
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Iterates over all block handles in index order.
    pub fn blocks(&self) -> impl Iterator<Item = Block> {
        (0..self.blocks.len() as u32).map(Block)
    }

    /// The data of block `b`.
    pub fn block(&self, b: Block) -> &BlockData {
        &self.blocks[b.index()]
    }

    /// Mutable access to the data of block `b`.
    pub fn block_mut(&mut self, b: Block) -> &mut BlockData {
        &mut self.blocks[b.index()]
    }

    /// Number of values (params + constants + instructions).
    pub fn value_count(&self) -> usize {
        self.values.len()
    }

    /// The definition of value `v`.
    pub fn value(&self, v: Value) -> &ValueData {
        &self.values[v.index()]
    }

    /// Mutable access to the definition of value `v`.
    pub fn value_mut(&mut self, v: Value) -> &mut ValueData {
        &mut self.values[v.index()]
    }

    /// The type of value `v`.
    pub fn ty(&self, v: Value) -> Type {
        self.values[v.index()].ty
    }

    /// The constant integer behind `v`, if it is one.
    pub fn as_const_i(&self, v: Value) -> Option<i64> {
        match self.values[v.index()].kind {
            ValueKind::ConstI(c) => Some(c),
            _ => None,
        }
    }

    /// The constant double behind `v`, if it is one.
    pub fn as_const_f(&self, v: Value) -> Option<f64> {
        match self.values[v.index()].kind {
            ValueKind::ConstF(c) => Some(c),
            _ => None,
        }
    }

    /// Whether `v` is any constant.
    pub fn is_const(&self, v: Value) -> bool {
        matches!(self.values[v.index()].kind, ValueKind::ConstI(_) | ValueKind::ConstF(_))
    }

    /// The instruction behind `v`, if it is an instruction result.
    pub fn as_inst(&self, v: Value) -> Option<&Inst> {
        match &self.values[v.index()].kind {
            ValueKind::Inst(i) => Some(i),
            _ => None,
        }
    }

    /// The operand values of `v` (empty for params/constants).
    pub fn operands(&self, v: Value) -> Vec<Value> {
        match &self.values[v.index()].kind {
            ValueKind::Inst(inst) => match inst {
                Inst::Bin { a, b, .. } | Inst::Cmp { a, b, .. } => vec![*a, *b],
                Inst::Un { a, .. } => vec![*a],
                Inst::Select { cond, on_true, on_false } => vec![*cond, *on_true, *on_false],
                Inst::Load { ptr } => vec![*ptr],
                Inst::Store { ptr, value } => vec![*ptr, *value],
                Inst::Gep { base, index, .. } => vec![*base, *index],
                Inst::Phi { incomings } => incomings.iter().map(|(_, v)| *v).collect(),
            },
            _ => Vec::new(),
        }
    }

    /// A printable name for `v` (its given name or `%N`).
    pub fn value_name(&self, v: Value) -> String {
        match &self.values[v.index()] {
            ValueData { name: Some(n), .. } => format!("%{n}"),
            ValueData { kind: ValueKind::ConstI(c), .. } => format!("{c}"),
            ValueData { kind: ValueKind::ConstF(c), .. } => format_f64(*c),
            _ => format!("%v{}", v.index()),
        }
    }

    /// Raw access to the value table (for in-place rewriting passes).
    pub(crate) fn values_mut(&mut self) -> &mut Vec<ValueData> {
        &mut self.values
    }

    /// Raw access to the block table (for in-place rewriting passes).
    pub(crate) fn blocks_mut(&mut self) -> &mut Vec<BlockData> {
        &mut self.blocks
    }

    /// Replaces every use of `from` with `to` across instructions and
    /// terminators (used by the optimisation passes).
    pub fn replace_uses(&mut self, from: Value, to: Value) {
        for vd in &mut self.values {
            if let ValueKind::Inst(inst) = &mut vd.kind {
                let subst = |v: &mut Value| {
                    if *v == from {
                        *v = to;
                    }
                };
                match inst {
                    Inst::Bin { a, b, .. } | Inst::Cmp { a, b, .. } => {
                        subst(a);
                        subst(b);
                    }
                    Inst::Un { a, .. } => subst(a),
                    Inst::Select { cond, on_true, on_false } => {
                        subst(cond);
                        subst(on_true);
                        subst(on_false);
                    }
                    Inst::Load { ptr } => subst(ptr),
                    Inst::Store { ptr, value } => {
                        subst(ptr);
                        subst(value);
                    }
                    Inst::Gep { base, index, .. } => {
                        subst(base);
                        subst(index);
                    }
                    Inst::Phi { incomings } => {
                        for (_, v) in incomings {
                            subst(v);
                        }
                    }
                }
            }
        }
        for bd in &mut self.blocks {
            match &mut bd.term {
                Terminator::CondBr { cond, .. } if *cond == from => *cond = to,
                Terminator::Ret(Some(v)) if *v == from => bd.term = Terminator::Ret(Some(to)),
                _ => {}
            }
        }
    }
}

fn format_f64(c: f64) -> String {
    if c == c.trunc() && c.is_finite() && c.abs() < 1e15 {
        format!("{c:.1}")
    } else {
        format!("{c}")
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "func @{}(", self.name)?;
        for (i, (n, t)) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "%{n}: {t}")?;
        }
        writeln!(f, ") {{")?;
        for b in self.blocks() {
            let bd = self.block(b);
            writeln!(f, "{}:", bd.name)?;
            for &v in &bd.insts {
                let vd = self.value(v);
                let ValueKind::Inst(inst) = &vd.kind else { continue };
                write!(f, "  ")?;
                if vd.ty != Type::Unit {
                    write!(f, "{} = ", self.value_name(v))?;
                }
                match inst {
                    Inst::Bin { op, a, b } => write!(
                        f,
                        "{} {}, {}",
                        op.mnemonic(),
                        self.value_name(*a),
                        self.value_name(*b)
                    )?,
                    Inst::Un { op, a } => {
                        write!(f, "{} {}", op.mnemonic(), self.value_name(*a))?
                    }
                    Inst::Cmp { op, a, b } => write!(
                        f,
                        "cmp {} {}, {}",
                        op.mnemonic(),
                        self.value_name(*a),
                        self.value_name(*b)
                    )?,
                    Inst::Select { cond, on_true, on_false } => write!(
                        f,
                        "select {}, {}, {}",
                        self.value_name(*cond),
                        self.value_name(*on_true),
                        self.value_name(*on_false)
                    )?,
                    Inst::Load { ptr } => {
                        write!(f, "load {}, {}", self.value_name(*ptr), vd.ty)?
                    }
                    Inst::Store { ptr, value } => write!(
                        f,
                        "store {}, {}",
                        self.value_name(*value),
                        self.value_name(*ptr)
                    )?,
                    Inst::Gep { base, index, scale } => write!(
                        f,
                        "gep {}, {}, {}",
                        self.value_name(*base),
                        self.value_name(*index),
                        scale
                    )?,
                    Inst::Phi { incomings } => {
                        write!(f, "phi {}", vd.ty)?;
                        for (bb, v) in incomings {
                            write!(f, " [{}, {}]", self.value_name(*v), self.block(*bb).name)?;
                        }
                    }
                }
                writeln!(f)?;
            }
            match &bd.term {
                Terminator::Br(t) => writeln!(f, "  br {}", self.block(*t).name)?,
                Terminator::CondBr { cond, then_bb, else_bb } => writeln!(
                    f,
                    "  condbr {}, {}, {}",
                    self.value_name(*cond),
                    self.block(*then_bb).name,
                    self.block(*else_bb).name
                )?,
                Terminator::Ret(None) => writeln!(f, "  ret")?,
                Terminator::Ret(Some(v)) => writeln!(f, "  ret {}", self.value_name(*v))?,
                Terminator::None => writeln!(f, "  <no terminator>")?,
            }
        }
        writeln!(f, "}}")
    }
}

/// A compilation unit: a list of functions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// The functions, in definition order.
    pub functions: Vec<Function>,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, func) in self.functions.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{func}")?;
        }
        Ok(())
    }
}

/// Incrementally builds a [`Function`] in SSA form.
///
/// ```
/// use dyser_compiler::ir::{FunctionBuilder, Type, BinOp};
///
/// // fn add1(x: i64) -> i64 { x + 1 }
/// let mut b = FunctionBuilder::new("add1", &[("x", Type::I64)]);
/// let x = b.param(0);
/// let one = b.const_i(1);
/// let sum = b.bin(BinOp::Add, x, one);
/// b.ret(Some(sum));
/// let f = b.build().unwrap();
/// assert_eq!(f.name(), "add1");
/// ```
#[derive(Debug, Clone)]
pub struct FunctionBuilder {
    func: Function,
    current: Block,
}

impl FunctionBuilder {
    /// Starts a function with the given name and parameters; an `entry`
    /// block is created and selected.
    pub fn new(name: &str, params: &[(&str, Type)]) -> Self {
        let values = params
            .iter()
            .enumerate()
            .map(|(i, (n, t))| ValueData {
                kind: ValueKind::Param { index: i },
                ty: *t,
                name: Some((*n).to_owned()),
            })
            .collect();
        let func = Function {
            name: name.to_owned(),
            params: params.iter().map(|(n, t)| ((*n).to_owned(), *t)).collect(),
            values,
            blocks: vec![BlockData {
                name: "entry".to_owned(),
                insts: Vec::new(),
                term: Terminator::None,
            }],
        };
        FunctionBuilder { func, current: Block(0) }
    }

    /// The value handle of parameter `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn param(&self, index: usize) -> Value {
        self.func.param(index)
    }

    /// Creates a new (empty, unterminated) block.
    pub fn block(&mut self, name: &str) -> Block {
        self.func.blocks.push(BlockData {
            name: name.to_owned(),
            insts: Vec::new(),
            term: Terminator::None,
        });
        Block((self.func.blocks.len() - 1) as u32)
    }

    /// Selects the block subsequent instructions append to.
    pub fn switch_to(&mut self, b: Block) {
        self.current = b;
    }

    /// The currently selected block.
    pub fn current(&self) -> Block {
        self.current
    }

    fn add_value(&mut self, kind: ValueKind, ty: Type) -> Value {
        self.func.values.push(ValueData { kind, ty, name: None });
        Value((self.func.values.len() - 1) as u32)
    }

    fn add_inst(&mut self, inst: Inst, ty: Type) -> Value {
        let v = self.add_value(ValueKind::Inst(inst), ty);
        self.func.blocks[self.current.index()].insts.push(v);
        v
    }

    /// Names a value for readable printouts.
    pub fn name(&mut self, v: Value, name: &str) {
        self.func.values[v.index()].name = Some(name.to_owned());
    }

    /// An integer constant.
    pub fn const_i(&mut self, c: i64) -> Value {
        self.add_value(ValueKind::ConstI(c), Type::I64)
    }

    /// A boolean constant.
    pub fn const_bool(&mut self, c: bool) -> Value {
        self.add_value(ValueKind::ConstI(i64::from(c)), Type::I1)
    }

    /// A double constant.
    pub fn const_f(&mut self, c: f64) -> Value {
        self.add_value(ValueKind::ConstF(c), Type::F64)
    }

    /// A binary operation.
    pub fn bin(&mut self, op: BinOp, a: Value, b: Value) -> Value {
        self.add_inst(Inst::Bin { op, a, b }, op.ty())
    }

    /// A unary operation.
    pub fn un(&mut self, op: UnOp, a: Value) -> Value {
        self.add_inst(Inst::Un { op, a }, op.ty())
    }

    /// A comparison.
    pub fn cmp(&mut self, op: CmpOp, a: Value, b: Value) -> Value {
        self.add_inst(Inst::Cmp { op, a, b }, Type::I1)
    }

    /// A select.
    pub fn select(&mut self, cond: Value, on_true: Value, on_false: Value) -> Value {
        let ty = self.func.ty(on_true);
        self.add_inst(Inst::Select { cond, on_true, on_false }, ty)
    }

    /// A 64-bit load producing `ty` (`i64`, `f64`, or `ptr`).
    pub fn load(&mut self, ptr: Value, ty: Type) -> Value {
        self.add_inst(Inst::Load { ptr }, ty)
    }

    /// A 64-bit store.
    pub fn store(&mut self, value: Value, ptr: Value) {
        self.add_inst(Inst::Store { ptr, value }, Type::Unit);
    }

    /// Pointer arithmetic: `base + index * scale`.
    pub fn gep(&mut self, base: Value, index: Value, scale: u64) -> Value {
        self.add_inst(Inst::Gep { base, index, scale }, Type::Ptr)
    }

    /// An empty phi of type `ty`; fill it with
    /// [`FunctionBuilder::add_incoming`].
    pub fn phi(&mut self, ty: Type) -> Value {
        self.add_inst(Inst::Phi { incomings: Vec::new() }, ty)
    }

    /// Adds an incoming edge to a phi.
    ///
    /// # Panics
    ///
    /// Panics if `phi` is not a phi instruction.
    pub fn add_incoming(&mut self, phi: Value, pred: Block, value: Value) {
        match &mut self.func.values[phi.index()].kind {
            ValueKind::Inst(Inst::Phi { incomings }) => incomings.push((pred, value)),
            _ => panic!("add_incoming on a non-phi value"),
        }
    }

    /// Terminates the current block with an unconditional branch.
    pub fn br(&mut self, target: Block) {
        self.func.blocks[self.current.index()].term = Terminator::Br(target);
    }

    /// Terminates the current block with a conditional branch.
    pub fn cond_br(&mut self, cond: Value, then_bb: Block, else_bb: Block) {
        self.func.blocks[self.current.index()].term =
            Terminator::CondBr { cond, then_bb, else_bb };
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Value>) {
        self.func.blocks[self.current.index()].term = Terminator::Ret(value);
    }

    /// Finishes and verifies the function.
    ///
    /// # Errors
    ///
    /// Returns the first verification failure (see [`verify::verify`]).
    pub fn build(self) -> Result<Function, verify::VerifyError> {
        verify::verify(&self.func)?;
        Ok(self.func)
    }

    /// Finishes without verification (used by passes that construct
    /// temporarily ill-formed functions).
    pub fn build_unverified(self) -> Function {
        self.func
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// vecadd: for i in 0..n { c[i] = a[i] + b[i] } — the canonical kernel.
    pub(crate) fn build_vecadd() -> Function {
        let mut b = FunctionBuilder::new(
            "vecadd",
            &[("a", Type::Ptr), ("b", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64)],
        );
        let (a, bb, c, n) = (b.param(0), b.param(1), b.param(2), b.param(3));
        let zero = b.const_i(0);
        let one = b.const_i(1);
        let loop_bb = b.block("loop");
        let exit_bb = b.block("exit");
        let entry = b.current();
        b.br(loop_bb);

        b.switch_to(loop_bb);
        let i = b.phi(Type::I64);
        b.name(i, "i");
        let pa = b.gep(a, i, 8);
        let pb = b.gep(bb, i, 8);
        let va = b.load(pa, Type::F64);
        let vb = b.load(pb, Type::F64);
        let sum = b.bin(BinOp::Fadd, va, vb);
        let pc = b.gep(c, i, 8);
        b.store(sum, pc);
        let i2 = b.bin(BinOp::Add, i, one);
        let cond = b.cmp(CmpOp::Slt, i2, n);
        b.add_incoming(i, entry, zero);
        b.add_incoming(i, loop_bb, i2);
        b.cond_br(cond, loop_bb, exit_bb);

        b.switch_to(exit_bb);
        b.ret(None);
        b.build().expect("vecadd is well-formed")
    }

    #[test]
    fn builder_produces_wellformed_function() {
        let f = build_vecadd();
        assert_eq!(f.name(), "vecadd");
        assert_eq!(f.params().len(), 4);
        assert_eq!(f.block_count(), 3);
        assert!(f.value_count() > 10);
    }

    #[test]
    fn display_contains_structure() {
        let f = build_vecadd();
        let text = f.to_string();
        assert!(text.contains("func @vecadd"));
        assert!(text.contains("loop:"));
        assert!(text.contains("phi i64"));
        assert!(text.contains("fadd"));
        assert!(text.contains("condbr"));
        assert!(text.contains("gep"));
    }

    #[test]
    fn operands_reported() {
        let f = build_vecadd();
        let loop_bb = Block(1);
        let insts = &f.block(loop_bb).insts;
        // The fadd has two operands; the store has two; the phi has two.
        let fadd = insts
            .iter()
            .find(|&&v| matches!(f.as_inst(v), Some(Inst::Bin { op: BinOp::Fadd, .. })))
            .unwrap();
        assert_eq!(f.operands(*fadd).len(), 2);
    }

    #[test]
    fn replace_uses_rewrites_operands() {
        let mut b = FunctionBuilder::new("t", &[("x", Type::I64)]);
        let x = b.param(0);
        let one = b.const_i(1);
        let y = b.bin(BinOp::Add, x, one);
        let z = b.bin(BinOp::Mul, y, y);
        b.ret(Some(z));
        let mut f = b.build().unwrap();
        f.replace_uses(y, x);
        let ops = f.operands(z);
        assert_eq!(ops, vec![x, x]);
    }

    #[test]
    fn const_accessors() {
        let mut b = FunctionBuilder::new("t", &[]);
        let ci = b.const_i(-5);
        let cf = b.const_f(2.5);
        b.ret(None);
        let f = b.build_unverified();
        assert_eq!(f.as_const_i(ci), Some(-5));
        assert_eq!(f.as_const_f(cf), Some(2.5));
        assert!(f.is_const(ci));
        assert_eq!(f.as_const_i(cf), None);
    }

    #[test]
    fn module_lookup() {
        let mut m = Module::new();
        m.functions.push(build_vecadd());
        assert!(m.function("vecadd").is_some());
        assert!(m.function("nope").is_none());
        assert!(m.to_string().contains("@vecadd"));
    }
}
