//! The kernel suite: builders, input generators, reference outputs.

use std::fmt;
use std::ops::RangeInclusive;

use dyser_compiler::{
    BinOp, CmpOp, CompilerOptions, Function, FunctionBuilder, Type, UnOp,
};
use dyser_core::KernelCase;
use dyser_fabric::FabricGeometry;
use dyser_rng::Rng64;

use crate::{BUF_A, BUF_B, BUF_C, BUF_D, BUF_WORDS};

/// Workload category, mirroring the paper's grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Compute-intense microbenchmark (experiment E2).
    Micro,
    /// Regular throughput kernel (experiment E3).
    Regular,
    /// Irregular-control kernel (experiments E3/E8).
    Irregular,
}

impl Category {
    /// A short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Category::Micro => "micro",
            Category::Regular => "regular",
            Category::Irregular => "irregular",
        }
    }
}

/// Pre-baked run data for one kernel instance.
struct CaseData {
    args: Vec<u64>,
    init: Vec<(u64, Vec<u64>)>,
    expected: Vec<(u64, Vec<u64>)>,
}

impl From<crate::shapes::ShapeCase> for CaseData {
    fn from(c: crate::shapes::ShapeCase) -> Self {
        CaseData { args: c.args, init: c.init, expected: c.expected }
    }
}

/// One benchmark kernel.
pub struct Kernel {
    /// Kernel name.
    pub name: &'static str,
    /// Category.
    pub category: Category,
    /// One-line description.
    pub description: &'static str,
    /// Default problem size.
    pub default_n: usize,
    /// Suggested unroll factor.
    pub unroll: usize,
    /// Whether store lagging is safe (no cross-iteration aliasing).
    pub lag_stores: bool,
    /// Whether the adaptive exit-condition offload applies (E8).
    pub offload_exit: bool,
    /// Problem sizes a case can hold: the case builder's minimum up to
    /// the largest `n` whose buffers fit [`BUF_WORDS`].
    pub sizes: RangeInclusive<usize>,
    build: fn() -> Function,
    case_data: fn(n: usize, seed: u64) -> CaseData,
}

impl std::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kernel")
            .field("name", &self.name)
            .field("category", &self.category)
            .finish()
    }
}

impl Kernel {
    /// Builds the kernel's IR.
    pub fn function(&self) -> Function {
        (self.build)()
    }

    /// Checks `n` against [`Kernel::sizes`]; callers with untrusted sizes
    /// check before [`Kernel::case`].
    ///
    /// # Errors
    ///
    /// Returns a [`SizeError`] naming the kernel and its size range.
    pub fn check_n(&self, n: usize) -> Result<(), SizeError> {
        if self.sizes.contains(&n) {
            Ok(())
        } else {
            Err(SizeError { kernel: self.name, n, sizes: self.sizes.clone() })
        }
    }

    /// Builds a runnable case of size `n` with deterministic inputs.
    ///
    /// # Panics
    ///
    /// May panic, or build a case whose buffers overlap, when `n` is
    /// outside [`Kernel::sizes`] (see [`Kernel::check_n`]).
    pub fn case(&self, n: usize, seed: u64) -> KernelCase {
        let data = (self.case_data)(n, seed);
        KernelCase {
            name: self.name.to_owned(),
            function: self.function(),
            args: data.args,
            init: data.init,
            expected: data.expected,
        }
    }

    /// Compiler options tailored to this kernel for `geometry`.
    pub fn compiler_options(&self, geometry: FabricGeometry) -> CompilerOptions {
        let mut o = CompilerOptions::for_geometry(geometry);
        o.unroll_factor = self.unroll;
        o.codegen.lag_stores = self.lag_stores;
        o.region.offload_exit_condition = self.offload_exit;
        if self.offload_exit {
            o.region.min_compute_ops = 1;
        }
        o
    }
}

/// A problem size outside a kernel's [`Kernel::sizes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SizeError {
    /// The kernel's name.
    pub kernel: &'static str,
    /// The rejected size.
    pub n: usize,
    /// The sizes the kernel can hold.
    pub sizes: RangeInclusive<usize>,
}

impl fmt::Display for SizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel `{}` needs n in {}..={}, got {}",
            self.kernel,
            self.sizes.start(),
            self.sizes.end(),
            self.n
        )
    }
}

impl std::error::Error for SizeError {}

/// Every buffer holds `n` words (at most [`BUF_WORDS`]).
const ONE_WORD_PER_ELEMENT: RangeInclusive<usize> = 1..=BUF_WORDS;

fn f64s(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn rand_f64s(n: usize, rng: &mut Rng64) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-4.0..4.0)).collect()
}

// ---------------------------------------------------------------- micro

/// Horner evaluation of a degree-6 polynomial: heavy fp chain.
fn build_poly6() -> Function {
    let mut b = FunctionBuilder::new("poly6", &[("a", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64)]);
    let (a, c, n) = (b.param(0), b.param(1), b.param(2));
    let zero = b.const_i(0);
    let one = b.const_i(1);
    let coef: Vec<_> = [0.5, -1.25, 0.75, 2.0, -0.5, 1.5, -2.25]
        .iter()
        .map(|&k| b.const_f(k))
        .collect();
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
    b.build().expect("poly6 is well-formed")
}

fn poly6_ref(x: f64) -> f64 {
    let coef = [0.5, -1.25, 0.75, 2.0, -0.5, 1.5, -2.25];
    let mut acc = coef[0];
    for &k in &coef[1..] {
        acc = acc * x + k;
    }
    acc
}

fn case_poly6(n: usize, seed: u64) -> CaseData {
    let mut rng = Rng64::seed_from_u64(seed);
    let a = rand_f64s(n, &mut rng);
    let c: Vec<f64> = a.iter().map(|&x| poly6_ref(x)).collect();
    CaseData {
        args: vec![BUF_A, BUF_C, n as u64],
        init: vec![(BUF_A, f64s(&a))],
        expected: vec![(BUF_C, f64s(&c))],
    }
}

/// Euclidean norm per element: exercises the long-latency sqrt pipeline.
fn build_dist() -> Function {
    let mut b = FunctionBuilder::new(
        "dist",
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
    let x = b.load(pa, Type::F64);
    let y = b.load(pb, Type::F64);
    let xx = b.bin(BinOp::Fmul, x, x);
    let yy = b.bin(BinOp::Fmul, y, y);
    let s = b.bin(BinOp::Fadd, xx, yy);
    let d = b.un(UnOp::Fsqrt, s);
    let pc = b.gep(c, i, 8);
    b.store(d, pc);
    let i2 = b.bin(BinOp::Add, i, one);
    b.add_incoming(i, entry, zero);
    b.add_incoming(i, body, i2);
    let cond = b.cmp(CmpOp::Slt, i2, n);
    b.cond_br(cond, body, exit);
    b.switch_to(exit);
    b.ret(None);
    b.build().expect("dist is well-formed")
}

fn case_dist(n: usize, seed: u64) -> CaseData {
    let mut rng = Rng64::seed_from_u64(seed);
    let a = rand_f64s(n, &mut rng);
    let bv = rand_f64s(n, &mut rng);
    let c: Vec<f64> = a.iter().zip(&bv).map(|(x, y)| (x * x + y * y).sqrt()).collect();
    CaseData {
        args: vec![BUF_A, BUF_B, BUF_C, n as u64],
        init: vec![(BUF_A, f64s(&a)), (BUF_B, f64s(&bv))],
        expected: vec![(BUF_C, f64s(&c))],
    }
}

/// An integer mixing function (xorshift-multiply avalanche), 10 int ops.
fn build_hashmix() -> Function {
    let mut b = FunctionBuilder::new("hashmix", &[("a", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64)]);
    let (a, c, n) = (b.param(0), b.param(1), b.param(2));
    let zero = b.const_i(0);
    let one = b.const_i(1);
    let s33 = b.const_i(33);
    let s29 = b.const_i(29);
    let s27 = b.const_i(27);
    let m1 = b.const_i(0x3C79_AC49);
    let m2 = b.const_i(0x1C69_B3F7);
    let body = b.block("body");
    let exit = b.block("exit");
    let entry = b.current();
    b.br(body);
    b.switch_to(body);
    let i = b.phi(Type::I64);
    let pa = b.gep(a, i, 8);
    let x0 = b.load(pa, Type::I64);
    let t1 = b.bin(BinOp::Lshr, x0, s33);
    let x1 = b.bin(BinOp::Xor, x0, t1);
    let x2 = b.bin(BinOp::Mul, x1, m1);
    let t2 = b.bin(BinOp::Lshr, x2, s29);
    let x3 = b.bin(BinOp::Xor, x2, t2);
    let x4 = b.bin(BinOp::Mul, x3, m2);
    let t3 = b.bin(BinOp::Lshr, x4, s27);
    let x5 = b.bin(BinOp::Xor, x4, t3);
    let pc = b.gep(c, i, 8);
    b.store(x5, pc);
    let i2 = b.bin(BinOp::Add, i, one);
    b.add_incoming(i, entry, zero);
    b.add_incoming(i, body, i2);
    let cond = b.cmp(CmpOp::Slt, i2, n);
    b.cond_br(cond, body, exit);
    b.switch_to(exit);
    b.ret(None);
    b.build().expect("hashmix is well-formed")
}

fn hashmix_ref(x0: u64) -> u64 {
    let x1 = x0 ^ (x0 >> 33);
    let x2 = x1.wrapping_mul(0x3C79_AC49);
    let x3 = x2 ^ (x2 >> 29);
    let x4 = x3.wrapping_mul(0x1C69_B3F7);
    x4 ^ (x4 >> 27)
}

fn case_hashmix(n: usize, seed: u64) -> CaseData {
    let mut rng = Rng64::seed_from_u64(seed);
    let a: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let c: Vec<u64> = a.iter().map(|&x| hashmix_ref(x)).collect();
    CaseData {
        args: vec![BUF_A, BUF_C, n as u64],
        init: vec![(BUF_A, a)],
        expected: vec![(BUF_C, c)],
    }
}

// -------------------------------------------------------------- regular

/// c[i] = a[i] + b[i].
fn build_vecadd() -> Function {
    let mut b = FunctionBuilder::new(
        "vecadd",
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
    let x = b.load(pa, Type::F64);
    let y = b.load(pb, Type::F64);
    let s = b.bin(BinOp::Fadd, x, y);
    // A second op keeps the region above the profitability threshold,
    // matching the microbenchmark the prototype uses (add + scale).
    let two = b.const_f(1.0);
    let s2 = b.bin(BinOp::Fmul, s, two);
    let pc = b.gep(c, i, 8);
    b.store(s2, pc);
    let i2 = b.bin(BinOp::Add, i, one);
    b.add_incoming(i, entry, zero);
    b.add_incoming(i, body, i2);
    let cond = b.cmp(CmpOp::Slt, i2, n);
    b.cond_br(cond, body, exit);
    b.switch_to(exit);
    b.ret(None);
    b.build().expect("vecadd is well-formed")
}

fn case_vecadd(n: usize, seed: u64) -> CaseData {
    let mut rng = Rng64::seed_from_u64(seed);
    let a = rand_f64s(n, &mut rng);
    let bv = rand_f64s(n, &mut rng);
    let c: Vec<f64> = a.iter().zip(&bv).map(|(x, y)| (x + y) * 1.0).collect();
    CaseData {
        args: vec![BUF_A, BUF_B, BUF_C, n as u64],
        init: vec![(BUF_A, f64s(&a)), (BUF_B, f64s(&bv))],
        expected: vec![(BUF_C, f64s(&c))],
    }
}

/// c[i] = 2.5 * a[i] + b[i].
fn build_saxpy() -> Function {
    let mut b = FunctionBuilder::new(
        "saxpy",
        &[("a", Type::Ptr), ("b", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64)],
    );
    let (a, bb, c, n) = (b.param(0), b.param(1), b.param(2), b.param(3));
    let zero = b.const_i(0);
    let one = b.const_i(1);
    let alpha = b.const_f(2.5);
    let body = b.block("body");
    let exit = b.block("exit");
    let entry = b.current();
    b.br(body);
    b.switch_to(body);
    let i = b.phi(Type::I64);
    let pa = b.gep(a, i, 8);
    let pb = b.gep(bb, i, 8);
    let x = b.load(pa, Type::F64);
    let y = b.load(pb, Type::F64);
    let ax = b.bin(BinOp::Fmul, x, alpha);
    let s = b.bin(BinOp::Fadd, ax, y);
    let pc = b.gep(c, i, 8);
    b.store(s, pc);
    let i2 = b.bin(BinOp::Add, i, one);
    b.add_incoming(i, entry, zero);
    b.add_incoming(i, body, i2);
    let cond = b.cmp(CmpOp::Slt, i2, n);
    b.cond_br(cond, body, exit);
    b.switch_to(exit);
    b.ret(None);
    b.build().expect("saxpy is well-formed")
}

fn case_saxpy(n: usize, seed: u64) -> CaseData {
    let mut rng = Rng64::seed_from_u64(seed);
    let a = rand_f64s(n, &mut rng);
    let bv = rand_f64s(n, &mut rng);
    let c: Vec<f64> = a.iter().zip(&bv).map(|(x, y)| x * 2.5 + y).collect();
    CaseData {
        args: vec![BUF_A, BUF_B, BUF_C, n as u64],
        init: vec![(BUF_A, f64s(&a)), (BUF_B, f64s(&bv))],
        expected: vec![(BUF_C, f64s(&c))],
    }
}

/// d[0] = sum a[i] * b[i] — a serial reduction (the accumulator round-trips
/// the fabric every iteration, bounding the achievable speedup).
fn build_dot() -> Function {
    let mut b = FunctionBuilder::new(
        "dot",
        &[("a", Type::Ptr), ("b", Type::Ptr), ("d", Type::Ptr), ("n", Type::I64)],
    );
    let (a, bb, d, n) = (b.param(0), b.param(1), b.param(2), b.param(3));
    let zero = b.const_i(0);
    let one = b.const_i(1);
    let zf = b.const_f(0.0);
    let body = b.block("body");
    let exit = b.block("exit");
    let entry = b.current();
    b.br(body);
    b.switch_to(body);
    let i = b.phi(Type::I64);
    let acc = b.phi(Type::F64);
    let pa = b.gep(a, i, 8);
    let pb = b.gep(bb, i, 8);
    let x = b.load(pa, Type::F64);
    let y = b.load(pb, Type::F64);
    let m = b.bin(BinOp::Fmul, x, y);
    let acc2 = b.bin(BinOp::Fadd, acc, m);
    let i2 = b.bin(BinOp::Add, i, one);
    b.add_incoming(i, entry, zero);
    b.add_incoming(i, body, i2);
    b.add_incoming(acc, entry, zf);
    b.add_incoming(acc, body, acc2);
    let cond = b.cmp(CmpOp::Slt, i2, n);
    b.cond_br(cond, body, exit);
    b.switch_to(exit);
    let pd = b.gep(d, zero, 8);
    b.store(acc2, pd);
    b.ret(None);
    b.build().expect("dot is well-formed")
}

fn case_dot(n: usize, seed: u64) -> CaseData {
    let mut rng = Rng64::seed_from_u64(seed);
    let a = rand_f64s(n, &mut rng);
    let bv = rand_f64s(n, &mut rng);
    let mut acc = 0.0f64;
    for (x, y) in a.iter().zip(&bv) {
        acc += x * y;
    }
    CaseData {
        args: vec![BUF_A, BUF_B, BUF_D, n as u64],
        init: vec![(BUF_A, f64s(&a)), (BUF_B, f64s(&bv))],
        expected: vec![(BUF_D, vec![acc.to_bits()])],
    }
}

/// Dense matrix multiply, row-major `n x n` (the inner product loop is
/// the accelerated region).
fn build_mm() -> Function {
    let mut b = FunctionBuilder::new(
        "mm",
        &[("a", Type::Ptr), ("b", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64)],
    );
    let (a, bb, c, n) = (b.param(0), b.param(1), b.param(2), b.param(3));
    let zero = b.const_i(0);
    let one = b.const_i(1);
    let zf = b.const_f(0.0);
    let iloop = b.block("iloop");
    let jloop = b.block("jloop");
    let kloop = b.block("kloop");
    let jlatch = b.block("jlatch");
    let ilatch = b.block("ilatch");
    let exit = b.block("exit");
    let entry = b.current();
    b.br(iloop);

    b.switch_to(iloop);
    let i = b.phi(Type::I64);
    let in_base = b.bin(BinOp::Mul, i, n); // i*n
    b.br(jloop);

    b.switch_to(jloop);
    let j = b.phi(Type::I64);
    b.br(kloop);

    b.switch_to(kloop);
    let k = b.phi(Type::I64);
    let acc = b.phi(Type::F64);
    let aidx = b.bin(BinOp::Add, in_base, k);
    let kn = b.bin(BinOp::Mul, k, n);
    let bidx = b.bin(BinOp::Add, kn, j);
    let pa = b.gep(a, aidx, 8);
    let pb = b.gep(bb, bidx, 8);
    let x = b.load(pa, Type::F64);
    let y = b.load(pb, Type::F64);
    let m = b.bin(BinOp::Fmul, x, y);
    let acc2 = b.bin(BinOp::Fadd, acc, m);
    let k2 = b.bin(BinOp::Add, k, one);
    b.add_incoming(k, jloop, zero);
    b.add_incoming(k, kloop, k2);
    b.add_incoming(acc, jloop, zf);
    b.add_incoming(acc, kloop, acc2);
    let ck = b.cmp(CmpOp::Slt, k2, n);
    b.cond_br(ck, kloop, jlatch);

    b.switch_to(jlatch);
    let cidx = b.bin(BinOp::Add, in_base, j);
    let pc = b.gep(c, cidx, 8);
    b.store(acc2, pc);
    let j2 = b.bin(BinOp::Add, j, one);
    b.add_incoming(j, iloop, zero);
    b.add_incoming(j, jlatch, j2);
    let cj = b.cmp(CmpOp::Slt, j2, n);
    b.cond_br(cj, jloop, ilatch);

    b.switch_to(ilatch);
    let i2 = b.bin(BinOp::Add, i, one);
    b.add_incoming(i, entry, zero);
    b.add_incoming(i, ilatch, i2);
    let ci = b.cmp(CmpOp::Slt, i2, n);
    b.cond_br(ci, iloop, exit);

    b.switch_to(exit);
    b.ret(None);
    b.build().expect("mm is well-formed")
}

fn case_mm(n: usize, seed: u64) -> CaseData {
    let mut rng = Rng64::seed_from_u64(seed);
    let a = rand_f64s(n * n, &mut rng);
    let bv = rand_f64s(n * n, &mut rng);
    let mut c = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0f64;
            for k in 0..n {
                acc += a[i * n + k] * bv[k * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    CaseData {
        args: vec![BUF_A, BUF_B, BUF_C, n as u64],
        init: vec![(BUF_A, f64s(&a)), (BUF_B, f64s(&bv))],
        expected: vec![(BUF_C, f64s(&c))],
    }
}

/// 3-point stencil: c[i] = 0.25*a[i-1] + 0.5*a[i] + 0.25*a[i+1], for
/// i in 1..n-1.
fn build_stencil3() -> Function {
    let mut b =
        FunctionBuilder::new("stencil3", &[("a", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64)]);
    let (a, c, n) = (b.param(0), b.param(1), b.param(2));
    let one = b.const_i(1);
    let minus1 = b.const_i(-1);
    let kq = b.const_f(0.25);
    let kh = b.const_f(0.5);
    let body = b.block("body");
    let exit = b.block("exit");
    let entry = b.current();
    let bound = b.bin(BinOp::Add, n, minus1); // n-1
    b.br(body);
    b.switch_to(body);
    let i = b.phi(Type::I64);
    let im1 = b.bin(BinOp::Add, i, minus1);
    let ip1 = b.bin(BinOp::Add, i, one);
    let pl = b.gep(a, im1, 8);
    let pm = b.gep(a, i, 8);
    let pr = b.gep(a, ip1, 8);
    let l = b.load(pl, Type::F64);
    let m = b.load(pm, Type::F64);
    let r = b.load(pr, Type::F64);
    let lq = b.bin(BinOp::Fmul, l, kq);
    let mh = b.bin(BinOp::Fmul, m, kh);
    let rq = b.bin(BinOp::Fmul, r, kq);
    let s1 = b.bin(BinOp::Fadd, lq, mh);
    let s2 = b.bin(BinOp::Fadd, s1, rq);
    let pc = b.gep(c, i, 8);
    b.store(s2, pc);
    let i2 = b.bin(BinOp::Add, i, one);
    b.add_incoming(i, entry, one);
    b.add_incoming(i, body, i2);
    let cond = b.cmp(CmpOp::Slt, i2, bound);
    b.cond_br(cond, body, exit);
    b.switch_to(exit);
    b.ret(None);
    b.build().expect("stencil3 is well-formed")
}

fn case_stencil3(n: usize, seed: u64) -> CaseData {
    let mut rng = Rng64::seed_from_u64(seed);
    let a = rand_f64s(n, &mut rng);
    let mut c = vec![0.0f64; n];
    for i in 1..n - 1 {
        c[i] = a[i - 1] * 0.25 + a[i] * 0.5 + a[i + 1] * 0.25;
    }
    CaseData {
        args: vec![BUF_A, BUF_C, n as u64],
        init: vec![(BUF_A, f64s(&a))],
        expected: vec![(BUF_C + 8, f64s(&c[1..n - 1]))],
    }
}

/// Indirect gather with compute: c[i] = x[idx[i]]^2 + a[i].
fn build_gather() -> Function {
    let mut b = FunctionBuilder::new(
        "gather",
        &[("a", Type::Ptr), ("idx", Type::Ptr), ("x", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64)],
    );
    let (a, idx, x, c, n) = (b.param(0), b.param(1), b.param(2), b.param(3), b.param(4));
    let zero = b.const_i(0);
    let one = b.const_i(1);
    let body = b.block("body");
    let exit = b.block("exit");
    let entry = b.current();
    b.br(body);
    b.switch_to(body);
    let i = b.phi(Type::I64);
    let pidx = b.gep(idx, i, 8);
    let iv = b.load(pidx, Type::I64);
    let px = b.gep(x, iv, 8);
    let xv = b.load(px, Type::F64);
    let pa = b.gep(a, i, 8);
    let av = b.load(pa, Type::F64);
    let sq = b.bin(BinOp::Fmul, xv, xv);
    let s = b.bin(BinOp::Fadd, sq, av);
    let pc = b.gep(c, i, 8);
    b.store(s, pc);
    let i2 = b.bin(BinOp::Add, i, one);
    b.add_incoming(i, entry, zero);
    b.add_incoming(i, body, i2);
    let cond = b.cmp(CmpOp::Slt, i2, n);
    b.cond_br(cond, body, exit);
    b.switch_to(exit);
    b.ret(None);
    b.build().expect("gather is well-formed")
}

fn case_gather(n: usize, seed: u64) -> CaseData {
    let mut rng = Rng64::seed_from_u64(seed);
    let a = rand_f64s(n, &mut rng);
    let x = rand_f64s(n, &mut rng);
    let idx: Vec<u64> = (0..n).map(|_| rng.gen_range(0..n as u64)).collect();
    let c: Vec<f64> =
        (0..n).map(|i| x[idx[i] as usize] * x[idx[i] as usize] + a[i]).collect();
    CaseData {
        args: vec![BUF_A, BUF_B, BUF_D, BUF_C, n as u64],
        init: vec![(BUF_A, f64s(&a)), (BUF_B, idx), (BUF_D, f64s(&x))],
        expected: vec![(BUF_C, f64s(&c))],
    }
}


/// 4-tap FIR filter: c[i] = sum_k h[k] * a[i+k] — four loads and seven
/// fp ops per output, high ILP for the fabric.
fn build_fir4() -> Function {
    let mut b = FunctionBuilder::new("fir4", &[("a", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64)]);
    let (a, c, n) = (b.param(0), b.param(1), b.param(2));
    let zero = b.const_i(0);
    let one = b.const_i(1);
    let taps: Vec<_> = [0.25, 0.5, -0.125, 0.375].iter().map(|&h| b.const_f(h)).collect();
    let body = b.block("body");
    let exit = b.block("exit");
    let entry = b.current();
    b.br(body);
    b.switch_to(body);
    let i = b.phi(Type::I64);
    let mut acc: Option<dyser_compiler::Value> = None;
    for (k, tap) in taps.iter().enumerate() {
        let ik = if k == 0 {
            i
        } else {
            let off = b.const_i(k as i64);
            b.bin(BinOp::Add, i, off)
        };
        let p = b.gep(a, ik, 8);
        let x = b.load(p, Type::F64);
        let term = b.bin(BinOp::Fmul, x, *tap);
        acc = Some(match acc {
            None => term,
            Some(prev) => b.bin(BinOp::Fadd, prev, term),
        });
    }
    let pc = b.gep(c, i, 8);
    b.store(acc.expect("taps non-empty"), pc);
    let i2 = b.bin(BinOp::Add, i, one);
    b.add_incoming(i, entry, zero);
    b.add_incoming(i, body, i2);
    let cond = b.cmp(CmpOp::Slt, i2, n);
    b.cond_br(cond, body, exit);
    b.switch_to(exit);
    b.ret(None);
    b.build().expect("fir4 is well-formed")
}

fn case_fir4(n: usize, seed: u64) -> CaseData {
    let mut rng = Rng64::seed_from_u64(seed);
    let a = rand_f64s(n + 3, &mut rng);
    let taps = [0.25, 0.5, -0.125, 0.375];
    let c: Vec<f64> = (0..n)
        .map(|i| {
            let mut acc = a[i] * taps[0];
            for (k, &h) in taps.iter().enumerate().skip(1) {
                acc += a[i + k] * h;
            }
            acc
        })
        .collect();
    CaseData {
        args: vec![BUF_A, BUF_C, n as u64],
        init: vec![(BUF_A, f64s(&a))],
        expected: vec![(BUF_C, f64s(&c))],
    }
}

// ------------------------------------------------------------ irregular

/// Clamp with branches: if (x < 0) 0 else if (x > hi) hi else x.
/// Irregular but if-convertible — the compiler predicates it.
fn build_relu_clamp() -> Function {
    let mut b =
        FunctionBuilder::new("relu_clamp", &[("a", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64)]);
    let (a, c, n) = (b.param(0), b.param(1), b.param(2));
    let zero = b.const_i(0);
    let one = b.const_i(1);
    let zf = b.const_f(0.0);
    let hi = b.const_f(2.0);
    let head = b.block("head");
    let neg = b.block("neg");
    let pos = b.block("pos");
    let big = b.block("big");
    let ok = b.block("ok");
    let join2 = b.block("join2");
    let join = b.block("join");
    let exit = b.block("exit");
    let entry = b.current();
    b.br(head);

    b.switch_to(head);
    let i = b.phi(Type::I64);
    let pa = b.gep(a, i, 8);
    let x = b.load(pa, Type::F64);
    let is_neg = b.cmp(CmpOp::Flt, x, zf);
    b.cond_br(is_neg, neg, pos);

    b.switch_to(neg);
    let zneg = b.bin(BinOp::Fmul, x, zf);
    b.br(join);

    b.switch_to(pos);
    let is_big = b.cmp(CmpOp::Flt, hi, x);
    b.cond_br(is_big, big, ok);
    b.switch_to(big);
    let chigh = b.bin(BinOp::Fadd, hi, zf);
    b.br(join2);
    b.switch_to(ok);
    let cx = b.bin(BinOp::Fadd, x, zf);
    b.br(join2);
    b.switch_to(join2);
    let inner = b.phi(Type::F64);
    b.add_incoming(inner, big, chigh);
    b.add_incoming(inner, ok, cx);
    b.br(join);

    b.switch_to(join);
    let res = b.phi(Type::F64);
    b.add_incoming(res, neg, zneg);
    b.add_incoming(res, join2, inner);
    let pc = b.gep(c, i, 8);
    b.store(res, pc);
    let i2 = b.bin(BinOp::Add, i, one);
    b.add_incoming(i, entry, zero);
    b.add_incoming(i, join, i2);
    let cond = b.cmp(CmpOp::Slt, i2, n);
    b.cond_br(cond, head, exit);

    b.switch_to(exit);
    b.ret(None);
    b.build().expect("relu_clamp is well-formed")
}

fn case_relu_clamp(n: usize, seed: u64) -> CaseData {
    let mut rng = Rng64::seed_from_u64(seed);
    let a = rand_f64s(n, &mut rng);
    let c: Vec<f64> = a
        .iter()
        .map(|&x| {
            if x < 0.0 {
                x * 0.0 // preserves the sign of -0.0 exactly as the IR does
            } else if 2.0 < x {
                2.0 + 0.0
            } else {
                x + 0.0
            }
        })
        .collect();
    CaseData {
        args: vec![BUF_A, BUF_C, n as u64],
        init: vec![(BUF_A, f64s(&a))],
        expected: vec![(BUF_C, f64s(&c))],
    }
}

/// Reduction with data-dependent select: d[0] = max_i |a[i]|.
fn build_absmax() -> Function {
    let mut b = FunctionBuilder::new("absmax", &[("a", Type::Ptr), ("d", Type::Ptr), ("n", Type::I64)]);
    let (a, d, n) = (b.param(0), b.param(1), b.param(2));
    let zero = b.const_i(0);
    let one = b.const_i(1);
    let zf = b.const_f(0.0);
    let body = b.block("body");
    let exit = b.block("exit");
    let entry = b.current();
    b.br(body);
    b.switch_to(body);
    let i = b.phi(Type::I64);
    let m = b.phi(Type::F64);
    let pa = b.gep(a, i, 8);
    let x = b.load(pa, Type::F64);
    let ax = b.un(UnOp::Fabs, x);
    let gt = b.cmp(CmpOp::Flt, m, ax);
    let m2 = b.select(gt, ax, m);
    let i2 = b.bin(BinOp::Add, i, one);
    b.add_incoming(i, entry, zero);
    b.add_incoming(i, body, i2);
    b.add_incoming(m, entry, zf);
    b.add_incoming(m, body, m2);
    let cond = b.cmp(CmpOp::Slt, i2, n);
    b.cond_br(cond, body, exit);
    b.switch_to(exit);
    let pd = b.gep(d, zero, 8);
    b.store(m2, pd);
    b.ret(None);
    b.build().expect("absmax is well-formed")
}

fn case_absmax(n: usize, seed: u64) -> CaseData {
    let mut rng = Rng64::seed_from_u64(seed);
    let a = rand_f64s(n, &mut rng);
    let mut m = 0.0f64;
    for &x in &a {
        let ax = x.abs();
        if m < ax {
            m = ax;
        }
    }
    CaseData {
        args: vec![BUF_A, BUF_D, n as u64],
        init: vec![(BUF_A, f64s(&a))],
        expected: vec![(BUF_D, vec![m.to_bits()])],
    }
}

/// Early-exit search (control-flow shape A): d[0] = first i with
/// a[i] == key, else n. Not acceleratable — the paper's finding.
/// The IR and case live in [`crate::shapes`].
fn build_find_first() -> Function {
    crate::shapes::early_exit_search()
}

fn case_find_first(n: usize, seed: u64) -> CaseData {
    crate::shapes::early_exit_search_case(n, seed).into()
}

/// Conditional store (control-flow shape B): if a[i] < 0, c[i] = 0.
/// The store under a branch defeats if-conversion — not acceleratable.
/// The IR and case live in [`crate::shapes`].
fn build_cond_store() -> Function {
    crate::shapes::nested_control_store()
}

fn case_cond_store(n: usize, seed: u64) -> CaseData {
    crate::shapes::nested_control_store_case(n, seed).into()
}

/// Data-dependent-exit scan: advance while `3*a[i]^2 + a[i] < limit`;
/// store the stopping index. Acceleratable only with the adaptive
/// exit-condition offload (experiment E8).
fn build_scan_poly() -> Function {
    let mut b = FunctionBuilder::new(
        "scan_poly",
        &[("a", Type::Ptr), ("d", Type::Ptr), ("limit", Type::I64)],
    );
    let (a, d, limit) = (b.param(0), b.param(1), b.param(2));
    let zero = b.const_i(0);
    let one = b.const_i(1);
    let three = b.const_i(3);
    let body = b.block("body");
    let exit = b.block("exit");
    let entry = b.current();
    b.br(body);
    b.switch_to(body);
    let i = b.phi(Type::I64);
    let pa = b.gep(a, i, 8);
    let x = b.load(pa, Type::I64);
    let xx = b.bin(BinOp::Mul, x, x);
    let x3 = b.bin(BinOp::Mul, xx, three);
    let y = b.bin(BinOp::Add, x3, x);
    let i2 = b.bin(BinOp::Add, i, one);
    b.add_incoming(i, entry, zero);
    b.add_incoming(i, body, i2);
    let cond = b.cmp(CmpOp::Slt, y, limit);
    b.cond_br(cond, body, exit);
    b.switch_to(exit);
    let pd = b.gep(d, zero, 8);
    b.store(i2, pd);
    b.ret(None);
    b.build().expect("scan_poly is well-formed")
}

fn case_scan_poly(n: usize, seed: u64) -> CaseData {
    let mut rng = Rng64::seed_from_u64(seed);
    // Strictly increasing positives so the scan always terminates in range.
    let mut a: Vec<u64> = Vec::with_capacity(n);
    let mut v = 1i64;
    for _ in 0..n {
        v += rng.gen_range(1i64..4);
        a.push(v as u64);
    }
    // Stop roughly 70% in.
    let stop = (n * 7 / 10).max(1).min(n - 1);
    let xs = a[stop] as i64;
    let limit = 3 * xs * xs + xs; // y(stop) == limit, so slt fails there
    let mut i = 0usize;
    loop {
        let x = a[i] as i64;
        let y = 3 * x * x + x;
        i += 1;
        if y >= limit {
            break;
        }
    }
    CaseData {
        args: vec![BUF_A, BUF_D, limit as u64],
        init: vec![(BUF_A, a)],
        expected: vec![(BUF_D, vec![i as u64])],
    }
}

// ---------------------------------------------------------------- suite

/// The full suite in evaluation order.
pub fn suite() -> Vec<Kernel> {
    vec![
        Kernel {
            name: "poly6",
            category: Category::Micro,
            description: "degree-6 Horner polynomial per element",
            default_n: 512,
            unroll: 4,
            lag_stores: true,
            offload_exit: false,
            sizes: ONE_WORD_PER_ELEMENT,
            build: build_poly6,
            case_data: case_poly6,
        },
        Kernel {
            name: "dist",
            category: Category::Micro,
            description: "2D Euclidean norm per element (sqrt-heavy)",
            default_n: 512,
            unroll: 4,
            lag_stores: true,
            offload_exit: false,
            sizes: ONE_WORD_PER_ELEMENT,
            build: build_dist,
            case_data: case_dist,
        },
        Kernel {
            name: "hashmix",
            category: Category::Micro,
            description: "64-bit avalanche hash per element (int-heavy)",
            default_n: 512,
            unroll: 4,
            lag_stores: true,
            offload_exit: false,
            sizes: ONE_WORD_PER_ELEMENT,
            build: build_hashmix,
            case_data: case_hashmix,
        },
        Kernel {
            name: "vecadd",
            category: Category::Regular,
            description: "elementwise vector add (memory-bound)",
            default_n: 1024,
            unroll: 4,
            lag_stores: true,
            offload_exit: false,
            sizes: ONE_WORD_PER_ELEMENT,
            build: build_vecadd,
            case_data: case_vecadd,
        },
        Kernel {
            name: "saxpy",
            category: Category::Regular,
            description: "scaled vector add",
            default_n: 1024,
            unroll: 4,
            lag_stores: true,
            offload_exit: false,
            sizes: ONE_WORD_PER_ELEMENT,
            build: build_saxpy,
            case_data: case_saxpy,
        },
        Kernel {
            name: "dot",
            category: Category::Regular,
            description: "dot product (serial reduction)",
            default_n: 1024,
            unroll: 4,
            lag_stores: true,
            offload_exit: false,
            sizes: ONE_WORD_PER_ELEMENT,
            build: build_dot,
            case_data: case_dot,
        },
        Kernel {
            name: "mm",
            category: Category::Regular,
            description: "dense matrix multiply (n x n)",
            default_n: 12,
            unroll: 4,
            lag_stores: true,
            offload_exit: false,
            sizes: 1..=BUF_WORDS.isqrt(),
            build: build_mm,
            case_data: case_mm,
        },
        Kernel {
            name: "stencil3",
            category: Category::Regular,
            description: "1D 3-point stencil",
            default_n: 1024,
            unroll: 4,
            lag_stores: true,
            offload_exit: false,
            sizes: 3..=BUF_WORDS,
            build: build_stencil3,
            case_data: case_stencil3,
        },
        Kernel {
            name: "fir4",
            category: Category::Regular,
            description: "4-tap FIR filter (high-ILP fp)",
            default_n: 512,
            unroll: 4,
            lag_stores: true,
            offload_exit: false,
            sizes: 1..=BUF_WORDS - 3,
            build: build_fir4,
            case_data: case_fir4,
        },
        Kernel {
            name: "gather",
            category: Category::Regular,
            description: "indirect gather with square-accumulate",
            default_n: 512,
            unroll: 4,
            lag_stores: true,
            offload_exit: false,
            sizes: ONE_WORD_PER_ELEMENT,
            build: build_gather,
            case_data: case_gather,
        },
        Kernel {
            name: "relu_clamp",
            category: Category::Irregular,
            description: "two-level clamp (if-convertible irregular control)",
            default_n: 512,
            unroll: 4,
            lag_stores: true,
            offload_exit: false,
            sizes: ONE_WORD_PER_ELEMENT,
            build: build_relu_clamp,
            case_data: case_relu_clamp,
        },
        Kernel {
            name: "absmax",
            category: Category::Irregular,
            description: "running |max| reduction with select",
            default_n: 512,
            unroll: 4,
            lag_stores: true,
            offload_exit: false,
            sizes: ONE_WORD_PER_ELEMENT,
            build: build_absmax,
            case_data: case_absmax,
        },
        Kernel {
            name: "find_first",
            category: Category::Irregular,
            description: "early-exit linear search (shape A: not acceleratable)",
            default_n: 512,
            unroll: 1,
            lag_stores: true,
            offload_exit: false,
            sizes: ONE_WORD_PER_ELEMENT,
            build: build_find_first,
            case_data: case_find_first,
        },
        Kernel {
            name: "cond_store",
            category: Category::Irregular,
            description: "conditional store (shape B: not acceleratable)",
            default_n: 512,
            unroll: 1,
            lag_stores: true,
            offload_exit: false,
            sizes: ONE_WORD_PER_ELEMENT,
            build: build_cond_store,
            case_data: case_cond_store,
        },
        Kernel {
            name: "scan_poly",
            category: Category::Irregular,
            description: "data-dependent-exit scan (adaptive offload, E8)",
            default_n: 512,
            unroll: 1,
            lag_stores: true,
            offload_exit: true,
            sizes: ONE_WORD_PER_ELEMENT,
            build: build_scan_poly,
            case_data: case_scan_poly,
        },
    ]
}

// --------------------------------------------- whole-program inner regions

/// The pattern word `p1` searches for, as a big-endian 64-bit integer.
pub const P1_KEY: u64 = u64::from_be_bytes(*b"NEEDLE!!");

/// Wrapping multiplier of `p2`'s payload hash (see `programs::P2_HASH_MULT`).
const P2_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// `p1`'s inner region: c[i] = (a[i] == key) ? 1 : 0.
fn build_p1_match() -> Function {
    let mut b =
        FunctionBuilder::new("p1_match", &[("a", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64)]);
    let (a, c, n) = (b.param(0), b.param(1), b.param(2));
    let zero = b.const_i(0);
    let one = b.const_i(1);
    let key = b.const_i(P1_KEY as i64);
    let body = b.block("body");
    let exit = b.block("exit");
    let entry = b.current();
    b.br(body);
    b.switch_to(body);
    let i = b.phi(Type::I64);
    let pa = b.gep(a, i, 8);
    let x = b.load(pa, Type::I64);
    let hit = b.cmp(CmpOp::Eq, x, key);
    let flag = b.select(hit, one, zero);
    let pc = b.gep(c, i, 8);
    b.store(flag, pc);
    let i2 = b.bin(BinOp::Add, i, one);
    b.add_incoming(i, entry, zero);
    b.add_incoming(i, body, i2);
    let cond = b.cmp(CmpOp::Slt, i2, n);
    b.cond_br(cond, body, exit);
    b.switch_to(exit);
    b.ret(None);
    b.build().expect("p1_match is well-formed")
}

fn case_p1_match(n: usize, seed: u64) -> CaseData {
    let mut rng = Rng64::seed_from_u64(seed);
    let a: Vec<u64> =
        (0..n).map(|i| if i % 5 == 3 { P1_KEY } else { rng.next_u64() }).collect();
    let c: Vec<u64> = a.iter().map(|&x| u64::from(x == P1_KEY)).collect();
    CaseData {
        args: vec![BUF_A, BUF_C, n as u64],
        init: vec![(BUF_A, a)],
        expected: vec![(BUF_C, c)],
    }
}

/// `p2`'s inner region: c[i] = a[i] * M (wrapping golden-ratio mix).
fn build_p2_hash() -> Function {
    let mut b =
        FunctionBuilder::new("p2_hash", &[("a", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64)]);
    let (a, c, n) = (b.param(0), b.param(1), b.param(2));
    let zero = b.const_i(0);
    let one = b.const_i(1);
    let m = b.const_i(P2_MULT as i64);
    let body = b.block("body");
    let exit = b.block("exit");
    let entry = b.current();
    b.br(body);
    b.switch_to(body);
    let i = b.phi(Type::I64);
    let pa = b.gep(a, i, 8);
    let x = b.load(pa, Type::I64);
    let h = b.bin(BinOp::Mul, x, m);
    let pc = b.gep(c, i, 8);
    b.store(h, pc);
    let i2 = b.bin(BinOp::Add, i, one);
    b.add_incoming(i, entry, zero);
    b.add_incoming(i, body, i2);
    let cond = b.cmp(CmpOp::Slt, i2, n);
    b.cond_br(cond, body, exit);
    b.switch_to(exit);
    b.ret(None);
    b.build().expect("p2_hash is well-formed")
}

fn case_p2_hash(n: usize, seed: u64) -> CaseData {
    let mut rng = Rng64::seed_from_u64(seed);
    let a: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let c: Vec<u64> = a.iter().map(|&x| x.wrapping_mul(P2_MULT)).collect();
    CaseData {
        args: vec![BUF_A, BUF_C, n as u64],
        init: vec![(BUF_A, a)],
        expected: vec![(BUF_C, c)],
    }
}

/// `p3`'s inner region: c[i] = a[i-1] + 2*a[i] + a[i+1] (wrapping int),
/// for i in 1..n-1.
fn build_p3_stencil() -> Function {
    let mut b = FunctionBuilder::new(
        "p3_stencil",
        &[("a", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64)],
    );
    let (a, c, n) = (b.param(0), b.param(1), b.param(2));
    let one = b.const_i(1);
    let minus1 = b.const_i(-1);
    let body = b.block("body");
    let exit = b.block("exit");
    let entry = b.current();
    let bound = b.bin(BinOp::Add, n, minus1);
    b.br(body);
    b.switch_to(body);
    let i = b.phi(Type::I64);
    let im1 = b.bin(BinOp::Add, i, minus1);
    let ip1 = b.bin(BinOp::Add, i, one);
    let pl = b.gep(a, im1, 8);
    let pm = b.gep(a, i, 8);
    let pr = b.gep(a, ip1, 8);
    let l = b.load(pl, Type::I64);
    let m = b.load(pm, Type::I64);
    let r = b.load(pr, Type::I64);
    let m2 = b.bin(BinOp::Shl, m, one);
    let s1 = b.bin(BinOp::Add, l, m2);
    let s2 = b.bin(BinOp::Add, s1, r);
    let pc = b.gep(c, i, 8);
    b.store(s2, pc);
    let i2 = b.bin(BinOp::Add, i, one);
    b.add_incoming(i, entry, one);
    b.add_incoming(i, body, i2);
    let cond = b.cmp(CmpOp::Slt, i2, bound);
    b.cond_br(cond, body, exit);
    b.switch_to(exit);
    b.ret(None);
    b.build().expect("p3_stencil is well-formed")
}

fn case_p3_stencil(n: usize, seed: u64) -> CaseData {
    let mut rng = Rng64::seed_from_u64(seed);
    let a: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let mut c = vec![0u64; n];
    for i in 1..n.saturating_sub(1) {
        c[i] = a[i - 1].wrapping_add(a[i] << 1).wrapping_add(a[i + 1]);
    }
    CaseData {
        args: vec![BUF_A, BUF_C, n as u64],
        // Pre-fill BUF_C so the untouched edge words are well-defined.
        init: vec![(BUF_A, a), (BUF_C, vec![0u64; n])],
        expected: vec![(BUF_C, c)],
    }
}

/// The inner regions of the whole-program workloads (`p1`..`p3`) as
/// standalone IR kernels, so the DSE sweep can explore them alongside
/// the main suite.
pub fn program_inner_kernels() -> Vec<Kernel> {
    vec![
        Kernel {
            name: "p1_match",
            category: Category::Regular,
            description: "p1 inner region: 8-byte pattern match flags",
            default_n: 512,
            unroll: 4,
            lag_stores: true,
            offload_exit: false,
            sizes: ONE_WORD_PER_ELEMENT,
            build: build_p1_match,
            case_data: case_p1_match,
        },
        Kernel {
            name: "p2_hash",
            category: Category::Regular,
            description: "p2 inner region: wrapping multiply hash",
            default_n: 512,
            unroll: 4,
            lag_stores: true,
            offload_exit: false,
            sizes: ONE_WORD_PER_ELEMENT,
            build: build_p2_hash,
            case_data: case_p2_hash,
        },
        Kernel {
            name: "p3_stencil",
            category: Category::Regular,
            description: "p3 inner region: integer 3-tap stencil",
            default_n: 512,
            unroll: 4,
            lag_stores: true,
            offload_exit: false,
            sizes: 3..=BUF_WORDS,
            build: build_p3_stencil,
            case_data: case_p3_stencil,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyser_compiler::ir::interp::{interpret, InterpMem};

    /// Interprets a kernel's IR against its case and checks the expected
    /// outputs — validating builder + reference agreement before any
    /// machine-level runs.
    fn check_against_interpreter(k: &Kernel, n: usize) {
        let case = k.case(n, 7);
        let mut mem = InterpMem::new();
        for (addr, words) in &case.init {
            mem.write_u64_slice(*addr, words);
        }
        interpret(&case.function, &case.args, &mut mem, 50_000_000)
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        for (addr, words) in &case.expected {
            for (i, w) in words.iter().enumerate() {
                let got = mem.read_u64(addr + 8 * i as u64);
                assert_eq!(
                    got,
                    *w,
                    "{}: word {} at {:#x}: got {:#x} want {:#x}",
                    k.name,
                    i,
                    addr + 8 * i as u64,
                    got,
                    w
                );
            }
        }
    }

    #[test]
    fn every_kernel_matches_its_reference_in_the_interpreter() {
        for k in suite() {
            let n = match k.name {
                "mm" => 6,
                _ => 33,
            };
            check_against_interpreter(&k, n);
        }
    }

    #[test]
    fn program_inner_kernels_match_their_references_in_the_interpreter() {
        for k in program_inner_kernels() {
            check_against_interpreter(&k, 33);
        }
    }

    #[test]
    fn suite_covers_all_categories() {
        let s = suite();
        assert!(s.iter().any(|k| k.category == Category::Micro));
        assert!(s.iter().any(|k| k.category == Category::Regular));
        assert!(s.iter().any(|k| k.category == Category::Irregular));
        assert!(s.len() >= 14);
    }

    #[test]
    fn kernel_names_unique() {
        let s = suite();
        let names: std::collections::HashSet<_> = s.iter().map(|k| k.name).collect();
        assert_eq!(names.len(), s.len());
    }

    #[test]
    fn shape_classification_matches_intent() {
        use dyser_compiler::{classify_loops, LoopShape};
        let s = suite();
        let find = |name: &str| s.iter().find(|k| k.name == name).unwrap().function();

        let shapes = classify_loops(&find("find_first"));
        assert!(shapes.iter().any(|r| r.shape == LoopShape::EarlyExit));

        let shapes = classify_loops(&find("cond_store"));
        assert!(shapes.iter().any(|r| r.shape == LoopShape::NestedControl));

        let shapes = classify_loops(&find("relu_clamp"));
        assert!(shapes.iter().any(|r| r.shape == LoopShape::IfConvertible), "{shapes:?}");

        let shapes = classify_loops(&find("vecadd"));
        assert!(shapes.iter().all(|r| r.shape == LoopShape::Regular));
    }

    #[test]
    fn deterministic_cases() {
        let k = &suite()[0];
        let c1 = k.case(16, 42);
        let c2 = k.case(16, 42);
        assert_eq!(c1.init, c2.init);
        assert_eq!(c1.expected, c2.expected);
        let c3 = k.case(16, 43);
        assert_ne!(c1.init, c3.init, "different seeds, different data");
    }

    /// Each kernel's sizes are what its case builder and the buffer
    /// layout allow: the smallest builds a case that verifies, and at
    /// the largest every region stays inside its own buffer.
    #[test]
    fn size_ranges_fit_the_builders_and_the_buffer_layout() {
        let buffer_bytes = 8 * BUF_WORDS as u64;
        for k in suite().into_iter().chain(program_inner_kernels()) {
            let (min, max) = (*k.sizes.start(), *k.sizes.end());
            assert!(k.check_n(min - 1).is_err(), "{} below its range", k.name);
            assert!(k.check_n(max + 1).is_err(), "{} above its range", k.name);
            check_against_interpreter(&k, min);
            let case = k.case(max, 7);
            for (addr, words) in case.init.iter().chain(&case.expected) {
                let buffer_end = BUF_A + ((addr - BUF_A) / buffer_bytes + 1) * buffer_bytes;
                let end = addr + 8 * words.len() as u64;
                assert!(end <= buffer_end, "{} at n = {max}: {addr:#x}..{end:#x}", k.name);
            }
        }
    }
}
