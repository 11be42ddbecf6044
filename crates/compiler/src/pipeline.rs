//! The top-level compilation driver.
//!
//! [`compile`] runs the full co-designed pipeline on one kernel and
//! returns **both** evaluation binaries — the scalar baseline and the
//! DySER-accelerated program — generated from the *same* optimised IR, so
//! any speedup is attributable to the execution model rather than to
//! middle-end differences (mirroring the paper's methodology of comparing
//! OpenSPARC against SPARC-DySER on identically compiled sources).

use std::fmt;

use dyser_fabric::{FabricGeometry, FuKind};

use crate::codegen::{codegen_accel, codegen_baseline, CodegenError, CodegenOptions, Program};
use crate::dyser::region::{select_regions, RegionOptions};
use crate::dyser::shapes::{classify_loops, ShapeReport};
use crate::ir::Function;
use crate::opt::{cleanup, if_convert, licm, unroll_innermost, Pass, PassSpec, UnrollOutcome};
use crate::schedule::{schedule_region, Schedule, ScheduleError, ScheduleOptions};

/// Options for the whole pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompilerOptions {
    /// Apply if-conversion before region selection.
    pub if_convert: bool,
    /// Unroll the innermost canonical loop by this factor (1 = off).
    pub unroll_factor: usize,
    /// Region-selection knobs.
    pub region: RegionOptions,
    /// Spatial-scheduling knobs.
    pub schedule: ScheduleOptions,
    /// Code-generation knobs.
    pub codegen: CodegenOptions,
    /// Target fabric geometry.
    pub geometry: FabricGeometry,
    /// Per-site hardware kinds (row-major); `None` = the default pattern.
    pub kinds: Option<Vec<FuKind>>,
    /// Declarative middle-end override: when set, this pass combination
    /// replaces the built-in `ifconv + licm + cleanup + unroll + cleanup`
    /// sequence entirely (the `if_convert`/`unroll_factor` knobs are then
    /// ignored, except that `unroll` passes in the spec still drive the
    /// region-selection restriction and resource fallback).
    pub middle_end: Option<PassSpec>,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            if_convert: true,
            unroll_factor: 4,
            region: RegionOptions::default(),
            schedule: ScheduleOptions::default(),
            codegen: CodegenOptions::default(),
            geometry: FabricGeometry::new(8, 8),
            kinds: None,
            middle_end: None,
        }
    }
}

impl CompilerOptions {
    /// Options for a given geometry with everything else default.
    pub fn for_geometry(geometry: FabricGeometry) -> Self {
        CompilerOptions { geometry, ..Default::default() }
    }
}

/// Why a selected region was not accelerated.
#[derive(Debug, Clone)]
pub enum RegionFate {
    /// Mapped onto the fabric.
    Accelerated,
    /// The spatial scheduler could not map it.
    Unmapped(ScheduleError),
}

/// Per-region report for the evaluation tables.
#[derive(Debug, Clone)]
pub struct RegionReport {
    /// Region name.
    pub name: String,
    /// Compute-slice operations.
    pub compute_ops: usize,
    /// Fabric inputs.
    pub inputs: usize,
    /// Fabric outputs.
    pub outputs: usize,
    /// Whether the exit condition was offloaded (adaptive mechanism).
    pub exit_condition_offloaded: bool,
    /// What happened to the region.
    pub fate: RegionFate,
}

/// The result of compiling one kernel.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The scalar baseline binary.
    pub baseline: Program,
    /// The DySER-accelerated binary (identical to `baseline` when no
    /// region was accelerated).
    pub accelerated: Program,
    /// Region reports.
    pub regions: Vec<RegionReport>,
    /// Control-flow shape classification of the *original* function.
    pub shapes: Vec<ShapeReport>,
    /// Whether any region was accelerated.
    pub accelerated_any: bool,
}

/// Compilation failures.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// Code generation failed.
    Codegen(CodegenError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Codegen(e) => write!(f, "codegen: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<CodegenError> for CompileError {
    fn from(e: CodegenError) -> Self {
        CompileError::Codegen(e)
    }
}

/// The outcome of one [`compile_attempt`].
#[derive(Debug)]
pub enum Attempt {
    /// Every selected region mapped at the requested unroll factor, or
    /// the factor was already 1.
    Compiled(CompiledProgram),
    /// A region did not map at a factor above 1. Compiling the attempted
    /// options is exactly compiling these, which ask for half the factor.
    Lowered(CompilerOptions),
}

/// Compiles `f` into baseline and accelerated programs.
///
/// The compiler picks the largest unroll factor, up to the one `options`
/// asks for, at which the spatial scheduler maps every region, halving
/// on failure (the prototype's compiler applies the same resource-driven
/// degradation): this drives [`compile_attempt`] until it compiles.
///
/// # Errors
///
/// Returns an error when code generation fails; scheduling failures
/// degrade gracefully (the region is left on the core and reported).
pub fn compile(f: &Function, options: &CompilerOptions) -> Result<CompiledProgram, CompileError> {
    let mut attempt = compile_attempt(f, options)?;
    loop {
        match attempt {
            Attempt::Compiled(program) => return Ok(program),
            Attempt::Lowered(lowered) => attempt = compile_attempt(f, &lowered)?,
        }
    }
}

/// Compiles `f` at the one unroll factor `options` asks for: the
/// `unroll_factor` knob, or the largest `unroll` pass of a declarative
/// middle end. When a region does not map and that factor is above 1,
/// returns the options for half the factor instead of a program, so a
/// caller that memoises by options ([`compile`] does not) can share one
/// result between the two.
///
/// # Errors
///
/// As [`compile`].
pub fn compile_attempt(f: &Function, options: &CompilerOptions) -> Result<Attempt, CompileError> {
    let kinds: Vec<FuKind> = options.kinds.clone().unwrap_or_else(|| {
        options.geometry.fus().map(|fu| FuKind::default_pattern(fu.row, fu.col)).collect()
    });
    let factor = requested_factor(options);

    // Shared middle end: both binaries see the same optimised IR.
    let mut opt = f.clone();
    let mut region_opts = options.region;
    match &options.middle_end {
        Some(spec) => {
            for pass in spec.passes() {
                if let Pass::Unroll(n) = pass {
                    // At factor 1 every unroll pass is off; otherwise none
                    // unrolls past the factor.
                    if factor > 1 {
                        if let UnrollOutcome::Unrolled { body, .. } =
                            unroll_innermost(&mut opt, (*n).min(factor).max(2))
                        {
                            region_opts.only_block = Some(body);
                        }
                    }
                } else {
                    PassSpec::from_passes(vec![pass.clone()]).apply(&mut opt);
                }
            }
        }
        None => {
            if options.if_convert {
                if_convert(&mut opt);
            }
            licm(&mut opt);
            cleanup(&mut opt);
            if factor > 1 {
                if let UnrollOutcome::Unrolled { body, .. } = unroll_innermost(&mut opt, factor) {
                    region_opts.only_block = Some(body);
                }
                cleanup(&mut opt);
            }
        }
    }

    let mut reports = Vec::new();
    let mut scheduled: Vec<(crate::dyser::region::Region, Schedule)> = Vec::new();
    let mut any_unmapped = false;
    for region in select_regions(&opt, &region_opts) {
        let report_base = RegionReport {
            name: region.name.clone(),
            compute_ops: region.compute.len(),
            inputs: region.inputs.len(),
            outputs: region.outputs.len(),
            exit_condition_offloaded: region.exit_condition_offloaded,
            fate: RegionFate::Accelerated,
        };
        match schedule_region(&opt, &region, options.geometry, &kinds, &options.schedule) {
            Ok(schedule) => {
                scheduled.push((region, schedule));
                reports.push(report_base);
            }
            Err(e) => {
                any_unmapped = true;
                reports.push(RegionReport { fate: RegionFate::Unmapped(e), ..report_base });
            }
        }
    }

    if any_unmapped && factor > 1 {
        return Ok(Attempt::Lowered(with_factor(options, factor / 2)));
    }

    let baseline = codegen_baseline(&opt)?;
    let accelerated_any = !scheduled.is_empty();
    let accelerated = if accelerated_any {
        codegen_accel(&opt, scheduled, options.codegen)?
    } else {
        baseline.clone()
    };
    Ok(Attempt::Compiled(CompiledProgram {
        baseline,
        accelerated,
        regions: reports,
        shapes: classify_loops(f),
        accelerated_any,
    }))
}

/// The unroll factor `options` asks for, at least 1.
fn requested_factor(options: &CompilerOptions) -> usize {
    let requested = match &options.middle_end {
        Some(spec) => spec
            .passes()
            .iter()
            .filter_map(|p| match p {
                Pass::Unroll(n) => Some(*n),
                _ => None,
            })
            .max()
            .unwrap_or(1),
        None => options.unroll_factor,
    };
    requested.max(1)
}

/// `options` asking for `factor`, which is below the factor they ask
/// for, with nothing else changed: the `unroll_factor` knob, or a
/// middle end whose unroll passes run as [`compile_attempt`] runs them
/// at `factor` (none at factor 1).
fn with_factor(options: &CompilerOptions, factor: usize) -> CompilerOptions {
    let mut lowered = options.clone();
    match &mut lowered.middle_end {
        Some(spec) => {
            let passes = spec.passes().iter().filter_map(|p| match p {
                Pass::Unroll(_) if factor == 1 => None,
                Pass::Unroll(n) => Some(Pass::Unroll((*n).min(factor).max(2))),
                other => Some(other.clone()),
            });
            *spec = PassSpec::from_passes(passes.collect());
        }
        None => lowered.unroll_factor = factor,
    }
    lowered
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, CmpOp, FunctionBuilder, Type};

    fn saxpyish() -> Function {
        let mut b = FunctionBuilder::new(
            "saxpy",
            &[("a", Type::Ptr), ("b", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64)],
        );
        let (a, bb, c, n) = (b.param(0), b.param(1), b.param(2), b.param(3));
        let zero = b.const_i(0);
        let one = b.const_i(1);
        let two = b.const_f(2.0);
        let body = b.block("body");
        let exit = b.block("exit");
        let entry = b.current();
        b.br(body);
        b.switch_to(body);
        let i = b.phi(Type::I64);
        let pa = b.gep(a, i, 8);
        let pb = b.gep(bb, i, 8);
        let va = b.load(pa, Type::F64);
        let vb = b.load(pb, Type::F64);
        let scaled = b.bin(BinOp::Fmul, va, two);
        let sum = b.bin(BinOp::Fadd, scaled, vb);
        let pc = b.gep(c, i, 8);
        b.store(sum, pc);
        let i2 = b.bin(BinOp::Add, i, one);
        b.add_incoming(i, entry, zero);
        b.add_incoming(i, body, i2);
        let cond = b.cmp(CmpOp::Slt, i2, n);
        b.cond_br(cond, body, exit);
        b.switch_to(exit);
        b.ret(None);
        b.build().unwrap()
    }

    #[test]
    fn full_pipeline_produces_both_binaries() {
        let f = saxpyish();
        let out = compile(&f, &CompilerOptions::default()).unwrap();
        assert!(out.accelerated_any, "{:?}", out.regions);
        assert!(!out.baseline.is_empty());
        assert!(!out.accelerated.is_empty());
        assert_eq!(out.accelerated.configs.len(), 1);
        assert!(out.baseline.configs.is_empty());
        // The accelerated binary must actually contain DySER instructions.
        let has_dyser = out
            .accelerated
            .listing
            .iter()
            .any(|i| matches!(i, dyser_isa::Instr::Dyser(_)));
        assert!(has_dyser);
        let base_has_dyser = out
            .baseline
            .listing
            .iter()
            .any(|i| matches!(i, dyser_isa::Instr::Dyser(_)));
        assert!(!base_has_dyser);
    }

    #[test]
    fn unrolling_multiplies_compute_ops() {
        let f = saxpyish();
        let o1 = CompilerOptions { unroll_factor: 1, ..Default::default() };
        let o4 = CompilerOptions { unroll_factor: 4, ..Default::default() };
        let r1 = compile(&f, &o1).unwrap();
        let r4 = compile(&f, &o4).unwrap();
        let ops1: usize = r1.regions.iter().map(|r| r.compute_ops).sum();
        let ops4: usize = r4.regions.iter().map(|r| r.compute_ops).sum();
        assert!(ops4 >= 4 * ops1, "unroll x4 should ~quadruple the slice: {ops1} -> {ops4}");
    }

    #[test]
    fn shape_reports_present() {
        let f = saxpyish();
        let out = compile(&f, &CompilerOptions::default()).unwrap();
        assert_eq!(out.shapes.len(), 1);
        assert!(out.shapes[0].shape.acceleratable());
    }

    #[test]
    fn tiny_fabric_degrades_gracefully() {
        let f = saxpyish();
        let opts = CompilerOptions {
            geometry: FabricGeometry::new(1, 1),
            kinds: Some(vec![FuKind::IntSimple]),
            ..Default::default()
        };
        let out = compile(&f, &opts).unwrap();
        assert!(!out.accelerated_any);
        assert!(out
            .regions
            .iter()
            .all(|r| matches!(r.fate, RegionFate::Unmapped(_))));
        // Accelerated binary falls back to the baseline.
        assert_eq!(out.accelerated.code, out.baseline.code);
    }
}
