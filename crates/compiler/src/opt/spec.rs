//! A declarative pass-pipeline specification.
//!
//! The paper's concluding observation is that bringing up an ISA-exposed
//! accelerator urgently needs *"declarative tools for quickly specifying
//! combinations of known compiler transforms"*. This module is that tool
//! for this compiler: a tiny textual language naming the middle-end
//! transforms, parsed into a [`PassSpec`] and applied to a function.
//!
//! ```text
//! ifconv, unroll(4), cse, constfold, dce
//! cleanup                      # the fixpoint bundle
//! unroll(2), cleanup
//! ```
//!
//! ```
//! use dyser_compiler::opt::spec::PassSpec;
//! let spec: PassSpec = "ifconv, unroll(4), cleanup".parse().unwrap();
//! assert_eq!(spec.passes().len(), 3);
//! ```

use std::fmt;
use std::str::FromStr;

use crate::ir::Function;
use crate::opt::{
    cleanup, const_fold, cse, dce, if_convert, licm, unroll_innermost, UnrollOutcome,
};

/// One named transform, possibly parameterised.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pass {
    /// If-conversion to a fixpoint.
    IfConvert,
    /// Unroll the innermost canonical loop by the given factor.
    Unroll(usize),
    /// Constant folding.
    ConstFold,
    /// Common-subexpression elimination.
    Cse,
    /// Dead-code elimination.
    Dce,
    /// Loop-invariant code motion.
    Licm,
    /// The fold + CSE + DCE fixpoint bundle.
    Cleanup,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pass::IfConvert => write!(f, "ifconv"),
            Pass::Unroll(n) => write!(f, "unroll({n})"),
            Pass::ConstFold => write!(f, "constfold"),
            Pass::Cse => write!(f, "cse"),
            Pass::Dce => write!(f, "dce"),
            Pass::Licm => write!(f, "licm"),
            Pass::Cleanup => write!(f, "cleanup"),
        }
    }
}

/// A parse failure with the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecParseError {
    /// The token that failed to parse.
    pub token: String,
}

impl fmt::Display for SpecParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown or malformed pass `{}`", self.token)
    }
}

impl std::error::Error for SpecParseError {}

/// What running a spec did, pass by pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecReport {
    /// `(pass, simplifications)` — the count is pass-specific (rewrites,
    /// removed instructions, or 1/0 for unrolling).
    pub steps: Vec<(Pass, usize)>,
}

/// An ordered list of transforms.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PassSpec {
    passes: Vec<Pass>,
}

impl PassSpec {
    /// Builds a spec from an explicit pass list.
    pub fn from_passes(passes: Vec<Pass>) -> Self {
        PassSpec { passes }
    }

    /// The passes, in application order.
    pub fn passes(&self) -> &[Pass] {
        &self.passes
    }

    /// Applies every pass in order; returns per-pass activity counts.
    pub fn apply(&self, f: &mut Function) -> SpecReport {
        let mut steps = Vec::new();
        for pass in &self.passes {
            let count = match pass {
                Pass::IfConvert => if_convert(f),
                Pass::Unroll(factor) => {
                    if *factor >= 2 {
                        match unroll_innermost(f, *factor) {
                            UnrollOutcome::Unrolled { .. } => 1,
                            UnrollOutcome::NoCanonicalLoop => 0,
                        }
                    } else {
                        0
                    }
                }
                Pass::ConstFold => const_fold(f),
                Pass::Cse => cse(f),
                Pass::Dce => dce(f),
                Pass::Licm => licm(f),
                Pass::Cleanup => {
                    cleanup(f);
                    1
                }
            };
            steps.push((pass.clone(), count));
        }
        SpecReport { steps }
    }
}

impl fmt::Display for PassSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.passes.iter().map(Pass::to_string).collect();
        write!(f, "{}", parts.join(", "))
    }
}

impl FromStr for PassSpec {
    type Err = SpecParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut passes = Vec::new();
        for raw in s.split(',') {
            let token = raw.split('#').next().unwrap_or("").trim();
            if token.is_empty() {
                continue;
            }
            let pass = if let Some(rest) = token.strip_prefix("unroll") {
                let inner = rest.trim().trim_start_matches('(').trim_end_matches(')').trim();
                let factor: usize = inner
                    .parse()
                    .map_err(|_| SpecParseError { token: token.to_owned() })?;
                if factor < 2 {
                    return Err(SpecParseError { token: token.to_owned() });
                }
                Pass::Unroll(factor)
            } else {
                match token {
                    "ifconv" | "if-convert" => Pass::IfConvert,
                    "constfold" | "fold" => Pass::ConstFold,
                    "cse" => Pass::Cse,
                    "dce" => Pass::Dce,
                    "licm" => Pass::Licm,
                    "cleanup" => Pass::Cleanup,
                    _ => return Err(SpecParseError { token: token.to_owned() }),
                }
            };
            passes.push(pass);
        }
        Ok(PassSpec { passes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::interp::{interpret, InterpMem};
    use crate::ir::{BinOp, CmpOp, FunctionBuilder, Type};

    fn loopy() -> Function {
        let mut b = FunctionBuilder::new("k", &[("a", Type::Ptr), ("n", Type::I64)]);
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
        let p = b.gep(a, i, 8);
        let x = b.load(p, Type::I64);
        let y = b.bin(BinOp::Mul, x, two);
        let y2 = b.bin(BinOp::Mul, x, two); // CSE fodder
        let s = b.bin(BinOp::Add, y, y2);
        b.store(s, p);
        let i2 = b.bin(BinOp::Add, i, one);
        b.add_incoming(i, entry, zero);
        b.add_incoming(i, body, i2);
        let c = b.cmp(CmpOp::Slt, i2, n);
        b.cond_br(c, body, exit);
        b.switch_to(exit);
        b.ret(None);
        b.build().unwrap()
    }

    #[test]
    fn parses_and_displays() {
        let spec: PassSpec = "ifconv, unroll(4), cse, constfold, dce".parse().unwrap();
        assert_eq!(spec.passes().len(), 5);
        assert_eq!(spec.to_string(), "ifconv, unroll(4), cse, constfold, dce");
        let round: PassSpec = spec.to_string().parse().unwrap();
        assert_eq!(round, spec);
    }

    #[test]
    fn comments_and_whitespace_tolerated() {
        let spec: PassSpec = " cleanup ,  unroll( 2 ) # trailing comment".parse().unwrap();
        assert_eq!(spec.passes(), &[Pass::Cleanup, Pass::Unroll(2)]);
    }

    #[test]
    fn rejects_unknown_and_bad_factors() {
        assert!("frobnicate".parse::<PassSpec>().is_err());
        assert!("unroll(1)".parse::<PassSpec>().is_err());
        assert!("unroll(x)".parse::<PassSpec>().is_err());
    }

    #[test]
    fn apply_reports_activity_and_preserves_semantics() {
        let f0 = loopy();
        let mut f1 = f0.clone();
        let spec: PassSpec = "cse, constfold, dce, unroll(2), cleanup".parse().unwrap();
        let report = spec.apply(&mut f1);
        let cse_count = report.steps.iter().find(|(p, _)| *p == Pass::Cse).unwrap().1;
        assert!(cse_count >= 1, "duplicate multiply merged");
        let unrolled = report.steps.iter().find(|(p, _)| matches!(p, Pass::Unroll(_))).unwrap().1;
        assert_eq!(unrolled, 1);

        // Semantics preserved for a few sizes.
        for n in [1u64, 3, 8] {
            let mut m0 = InterpMem::new();
            m0.write_u64_slice(0x100, &(0..n).map(|i| i + 5).collect::<Vec<_>>());
            let mut m1 = m0.clone();
            interpret(&f0, &[0x100, n], &mut m0, 100_000).unwrap();
            interpret(&f1, &[0x100, n], &mut m1, 100_000).unwrap();
            assert_eq!(
                m0.read_u64_slice(0x100, n as usize),
                m1.read_u64_slice(0x100, n as usize),
                "n={n}"
            );
        }
    }

    #[test]
    fn empty_spec_is_identity() {
        let spec: PassSpec = "".parse().unwrap();
        let f0 = loopy();
        let mut f1 = f0.clone();
        let report = spec.apply(&mut f1);
        assert!(report.steps.is_empty());
        assert_eq!(f0, f1);
    }
}
