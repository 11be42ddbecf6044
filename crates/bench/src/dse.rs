//! Design-space exploration (`repro dse`): sweep fabric geometry, FU
//! mix, FIFO depth, cache parameters, and unroll factor across thousands
//! of configurations, prune with a coarse-grain analytic estimator, and
//! simulate only the survivors.
//!
//! The paper's E1–E10 experiments are point measurements on one fabric
//! geometry; the question they circle — when do DySER's configuration
//! overhead, FIFO depth, and grid size pay off — is a surface over the
//! configuration space. This module generalizes the experiments into
//! that surface:
//!
//! 1. **Enumerate** every point of a [`DsePlan`] (geometry × FU mix ×
//!    FIFO depth × memory preset × unroll factor, per kernel).
//! 2. **Estimate** each point with a closed-form counter model over the
//!    compiled region reports (op counts, port pressure, config-load
//!    cost) — compilation goes through the process-wide compile cache,
//!    so the sweep pays one compile per distinct (kernel, geometry,
//!    kinds, unroll) combination, not one per point.
//! 3. **Prune** points whose estimate is dominated by another point of
//!    the same kernel with a [`PRUNE_MARGIN`] safety factor on every
//!    axis, so a point is only discarded when it is *provably* worse
//!    than a survivor under the documented estimator error band.
//! 4. **Simulate** the survivors through the parallel harness (Compiled
//!    backend by default; each distinct scalar leg simulates once per
//!    sweep, see [`run_dse`]) and report cycles, energy
//!    ([`EnergyModel::estimate_for_geometry`]), config-load overhead,
//!    and the estimated-vs-simulated accuracy of every survivor.
//! 5. **Emit** the three-axis Pareto front (cycles / energy /
//!    config-load cycles) as `BENCH_dse.json` plus a CSV table.
//!
//! The estimator's absolute error is bounded by the accuracy suite
//! (`tests/dse_estimator.rs`) to the band
//! [`EST_BAND_LOW`]..[`EST_BAND_HIGH`]; pruning only compares estimates
//! *between* points of the same kernel, where the systematic component
//! of the error cancels.

use std::fmt;

use dyser_core::{
    compile_cached, default_workers, parallel_map, Backend, KernelResult, LegMemo, RunConfig,
};
use dyser_energy::{Activity, EnergyModel};
use dyser_fabric::{FabricConfigError, FabricGeometry, DEFAULT_CONFIG_BUS_BITS};
use std::collections::HashMap;
use dyser_mem::MemConfig;
use dyser_sparc::StallCause;
use dyser_workloads::{program_inner_kernels, suite, Kernel, SizeError};

use crate::experiments::SEED;
use crate::table::{ExpTable, TableError};

/// Lower edge of the documented estimator error band: the analytic
/// estimate of a point's cycles is asserted to be at least
/// `EST_BAND_LOW` × the simulated cycles.
pub const EST_BAND_LOW: f64 = 0.2;

/// Upper edge of the documented estimator error band (see
/// [`EST_BAND_LOW`]).
pub const EST_BAND_HIGH: f64 = 5.0;

/// Safety factor applied on every axis before pruning: point `p` is
/// discarded only when some point `q` of the same kernel satisfies
/// `est(q) * PRUNE_MARGIN <= est(p)` on cycles *and* energy, and
/// `est_config(q) <= est_config(p)`. The margin covers the estimator's
/// point-to-point ranking error; the Pareto-safety test
/// (`tests/dse_estimator.rs`) checks it empirically on an exhaustive
/// grid.
pub const PRUNE_MARGIN: f64 = 3.0;

/// Startup cycles every run pays before the steady state: prologue,
/// constant-pool setup, and cold instruction misses.
const STARTUP_CYCLES: f64 = 150.0;

// ------------------------------------------------------------ axes

/// The memory-hierarchy presets a sweep can select (the `MemConfig`
/// constructors the ablation study already exercises).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemPreset {
    /// The default hierarchy (32 B L1 lines, 64 B L2, 8-cycle DRAM).
    Default,
    /// `MemConfig::tiny()`: small caches that miss often.
    Tiny,
    /// `MemConfig::perfect()`: every access hits.
    Perfect,
}

impl MemPreset {
    /// All presets, in sweep order.
    pub const ALL: [MemPreset; 3] = [MemPreset::Default, MemPreset::Tiny, MemPreset::Perfect];

    /// Parses a CLI spelling.
    ///
    /// # Errors
    ///
    /// Returns the unrecognised input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "default" => Ok(MemPreset::Default),
            "tiny" => Ok(MemPreset::Tiny),
            "perfect" => Ok(MemPreset::Perfect),
            other => Err(format!("unknown memory preset {other:?} (default|tiny|perfect)")),
        }
    }

    /// The canonical CLI spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MemPreset::Default => "default",
            MemPreset::Tiny => "tiny",
            MemPreset::Perfect => "perfect",
        }
    }

    /// The hierarchy this preset selects.
    #[must_use]
    pub fn config(self) -> MemConfig {
        match self {
            MemPreset::Default => MemConfig::default(),
            MemPreset::Tiny => MemConfig::tiny(),
            MemPreset::Perfect => MemConfig::perfect(),
        }
    }

    /// Average extra latency per sequential 8-byte access beyond the L1
    /// hit: every `line/8` accesses miss into the next level. This is
    /// the estimator's whole memory model.
    fn extra_latency_per_word(self) -> f64 {
        let m = self.config();
        let l1_line = m.l1d.line_bytes.max(8) as f64;
        let l2_line = m.l2.line_bytes.max(8) as f64;
        (8.0 / l1_line) * m.l2.hit_latency as f64 + (8.0 / l2_line) * m.dram_latency as f64
    }
}

/// The FU-mix axis: the default heterogeneous checkerboard or the
/// idealised all-universal grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuMix {
    /// `FuKind::default_pattern` per site.
    Default,
    /// Every site a `FuKind::Universal` unit.
    Universal,
}

impl FuMix {
    /// All mixes, in sweep order.
    pub const ALL: [FuMix; 2] = [FuMix::Default, FuMix::Universal];

    /// Parses a CLI spelling.
    ///
    /// # Errors
    ///
    /// Returns the unrecognised input.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "default" => Ok(FuMix::Default),
            "universal" => Ok(FuMix::Universal),
            other => Err(format!("unknown FU mix {other:?} (default|universal)")),
        }
    }

    /// The canonical CLI spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FuMix::Default => "default",
            FuMix::Universal => "universal",
        }
    }
}

// ------------------------------------------------------------ points

/// One point of the design space: every swept knob, for one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct DsePoint {
    /// Suite kernel name.
    pub kernel: String,
    /// Fabric rows.
    pub rows: usize,
    /// Fabric columns.
    pub cols: usize,
    /// FU mix.
    pub mix: FuMix,
    /// Port FIFO depth.
    pub fifo_depth: usize,
    /// Memory preset.
    pub mem: MemPreset,
    /// Requested unroll factor.
    pub unroll: usize,
}

impl fmt::Display for DsePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}x{}/{} fifo{} mem:{} u{}",
            self.kernel,
            self.rows,
            self.cols,
            self.mix.label(),
            self.fifo_depth,
            self.mem.label(),
            self.unroll
        )
    }
}

impl DsePoint {
    /// Builds the point's harness configuration (system and compiler in
    /// sync via the `RunConfig` plumbing helpers).
    ///
    /// # Errors
    ///
    /// Returns [`FabricConfigError`] for degenerate geometry or FIFO
    /// depth — the same validation the CLI applies at parse time, so a
    /// point built from checked axes cannot fail deep in scheduling.
    pub fn run_config(&self, kernel: &Kernel, backend: Option<Backend>) -> Result<RunConfig, FabricConfigError> {
        let geometry = FabricGeometry::try_new(self.rows, self.cols)?;
        if self.fifo_depth == 0 {
            return Err(FabricConfigError::ZeroFifoDepth);
        }
        let mut rc =
            RunConfig { compiler: kernel.compiler_options(geometry), ..RunConfig::default() };
        rc.set_geometry(geometry);
        if self.mix == FuMix::Universal {
            rc.set_universal_fus();
        }
        rc.system.fifo_depth = self.fifo_depth;
        rc.system.mem = self.mem.config();
        rc.compiler.unroll_factor = self.unroll;
        if let Some(b) = backend {
            rc.backend = b;
        }
        rc.system.validate()?;
        Ok(rc)
    }
}

// ------------------------------------------------------------ plan

/// The swept axes. [`DsePlan::default`] is the full committed sweep;
/// the CLI narrows it with `--kernels`, `--dims`, … flags.
#[derive(Debug, Clone, PartialEq)]
pub struct DsePlan {
    /// Suite kernels to sweep.
    pub kernels: Vec<String>,
    /// Grid dimensions; geometries are the full `dims x dims` cross
    /// product (non-square included).
    pub dims: Vec<usize>,
    /// FU mixes.
    pub mixes: Vec<FuMix>,
    /// FIFO depths.
    pub fifos: Vec<usize>,
    /// Memory presets.
    pub mems: Vec<MemPreset>,
    /// Unroll factors.
    pub unrolls: Vec<usize>,
    /// Problem size per kernel.
    pub n: usize,
    /// Whether analytic pre-pruning is enabled (`--no-prune` disables).
    pub prune: bool,
    /// Backend for survivor simulation; `None` = harness default.
    pub backend: Option<Backend>,
}

/// Every kernel a sweep may name: the full suite plus the inner
/// regions of the whole-program workloads (`p1_match`, `p2_hash`,
/// `p3_stencil`). The default plan still sweeps only suite kernels, so
/// reference sweep reports are unchanged; the program regions opt in
/// via `--kernels`.
#[must_use]
pub fn dse_kernels() -> Vec<Kernel> {
    let mut kernels = suite();
    kernels.extend(program_inner_kernels());
    kernels
}

impl Default for DsePlan {
    fn default() -> Self {
        DsePlan {
            kernels: vec!["poly6".into(), "saxpy".into()],
            dims: vec![2, 4, 6, 8],
            mixes: FuMix::ALL.to_vec(),
            fifos: vec![1, 2, 4, 8],
            mems: MemPreset::ALL.to_vec(),
            unrolls: vec![1, 2, 4, 8],
            n: 256,
            prune: true,
            backend: Some(Backend::Compiled),
        }
    }
}

/// A typed failure validating or running a sweep. Every variant renders
/// a one-line message; the CLI exits nonzero with it instead of
/// panicking somewhere inside scheduling.
#[derive(Debug, Clone, PartialEq)]
pub enum DseError {
    /// A kernel name not in the workload suite.
    UnknownKernel(String),
    /// A degenerate geometry or FIFO depth, caught at validation time.
    Config(FabricConfigError),
    /// An axis with no values (the sweep would be empty).
    EmptyAxis(&'static str),
    /// A value listed twice on one axis (the sweep would simulate the
    /// same point more than once).
    DuplicateValue {
        /// The axis.
        axis: &'static str,
        /// The repeated value, as spelled on the command line.
        value: String,
    },
    /// An unroll factor outside `1..=MAX_UNROLL`.
    BadUnroll(usize),
    /// A problem size a swept kernel cannot hold.
    BadSize(SizeError),
    /// A survivor failed compilation or simulation.
    Run(String),
    /// A report row could not be assembled.
    Table(TableError),
}

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseError::UnknownKernel(k) => write!(f, "unknown kernel {k:?} (see `dyser-workloads`)"),
            DseError::Config(e) => write!(f, "invalid sweep point: {e}"),
            DseError::EmptyAxis(axis) => write!(f, "sweep axis `{axis}` has no values"),
            DseError::DuplicateValue { axis, value } => {
                write!(f, "sweep axis `{axis}` lists {value} more than once")
            }
            DseError::BadUnroll(u) => {
                write!(f, "unroll factor {u} is outside 1..={MAX_UNROLL}")
            }
            DseError::BadSize(e) => write!(f, "invalid problem size: {e}"),
            DseError::Run(e) => write!(f, "survivor simulation failed: {e}"),
            DseError::Table(e) => write!(f, "report assembly failed: {e}"),
        }
    }
}

impl std::error::Error for DseError {}

impl From<FabricConfigError> for DseError {
    fn from(e: FabricConfigError) -> Self {
        DseError::Config(e)
    }
}

impl From<TableError> for DseError {
    fn from(e: TableError) -> Self {
        DseError::Table(e)
    }
}

/// The largest unroll factor a sweep or a served point may request: the
/// FU count of the largest fabric. The compiler halves any factor whose
/// slice the fabric cannot hold, so a larger request buys nothing but
/// compile time, which grows with the square of the factor.
pub const MAX_UNROLL: usize = FabricGeometry::MAX_DIM * FabricGeometry::MAX_DIM;

/// The one unroll-factor check, shared by [`DsePlan::validate`] and the
/// daemon's `dse-point` jobs.
///
/// # Errors
///
/// Returns [`DseError::BadUnroll`] unless `1 <= unroll <= MAX_UNROLL`.
pub fn check_unroll(unroll: usize) -> Result<(), DseError> {
    if (1..=MAX_UNROLL).contains(&unroll) {
        Ok(())
    } else {
        Err(DseError::BadUnroll(unroll))
    }
}

impl DsePlan {
    /// Validates every axis value up front: no axis empty or listing a
    /// value twice, kernel names against the suite, the problem size
    /// against each kernel's [`Kernel::sizes`], geometry dimensions
    /// through [`FabricGeometry::try_new`], FIFO depths against the
    /// zero-depth error, unroll factors through [`check_unroll`]. This is
    /// the CLI's parse-time gate — after it passes, no point of the sweep
    /// can hit a construction panic.
    ///
    /// # Errors
    ///
    /// Returns the first offending axis value as a typed [`DseError`].
    pub fn validate(&self) -> Result<(), DseError> {
        let spelled = |values: &[usize]| values.iter().map(ToString::to_string).collect();
        let axes: [(&'static str, Vec<String>); 6] = [
            ("kernels", self.kernels.clone()),
            ("dims", spelled(&self.dims)),
            ("mixes", self.mixes.iter().map(|m| m.label().to_owned()).collect()),
            ("fifos", spelled(&self.fifos)),
            ("mems", self.mems.iter().map(|m| m.label().to_owned()).collect()),
            ("unrolls", spelled(&self.unrolls)),
        ];
        for (axis, values) in axes {
            if values.is_empty() {
                return Err(DseError::EmptyAxis(axis));
            }
            let repeat = values.iter().enumerate().find(|(i, v)| values[..*i].contains(v));
            if let Some((_, value)) = repeat {
                return Err(DseError::DuplicateValue { axis, value: value.clone() });
            }
        }
        let known = dse_kernels();
        for name in &self.kernels {
            let kernel = known
                .iter()
                .find(|k| k.name == *name)
                .ok_or_else(|| DseError::UnknownKernel(name.clone()))?;
            kernel.check_n(self.n).map_err(DseError::BadSize)?;
        }
        for &d in &self.dims {
            FabricGeometry::try_new(d, d)?;
        }
        for &f in &self.fifos {
            if f == 0 {
                return Err(DseError::Config(FabricConfigError::ZeroFifoDepth));
            }
        }
        self.unrolls.iter().try_for_each(|&u| check_unroll(u))
    }

    /// Enumerates every point, in deterministic nested-axis order.
    #[must_use]
    pub fn points(&self) -> Vec<DsePoint> {
        let mut out = Vec::new();
        for kernel in &self.kernels {
            for &rows in &self.dims {
                for &cols in &self.dims {
                    for &mix in &self.mixes {
                        for &fifo_depth in &self.fifos {
                            for &mem in &self.mems {
                                for &unroll in &self.unrolls {
                                    out.push(DsePoint {
                                        kernel: kernel.clone(),
                                        rows,
                                        cols,
                                        mix,
                                        fifo_depth,
                                        mem,
                                        unroll,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

// ------------------------------------------------------------ estimator

/// The coarse-grain analytic score of one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated accelerated-run cycles.
    pub cycles: f64,
    /// Estimated accelerated-run energy (nJ).
    pub energy_nj: f64,
    /// Estimated config-load cycles (exact frame bits over the config
    /// bus — the one term the estimator knows precisely).
    pub config_cycles: u64,
    /// Whether any region mapped onto the fabric at this point.
    pub accelerated: bool,
    /// The scalar-core fallback model's cycles, computed for every point
    /// (it equals `cycles` on unaccelerated points). Calibration anchors
    /// it separately against the anchor's *baseline* run, because the
    /// scalar model's systematic error (FP latencies the counter model
    /// ignores) differs from the accelerated model's.
    pub scalar_cycles: f64,
}

/// Scores one point analytically: compile (through the shared cache),
/// then a closed-form pass over the region reports. No simulation runs.
///
/// The model, per accelerated invocation of the region(s):
///
/// * **core feed** — two core instructions per fabric input/output (the
///   load+send and recv+store pairs) plus loop overhead;
/// * **port pressure** — an invocation cannot retire faster than its
///   values cross the edge ports, `inputs / input_ports` cycles;
/// * **memory** — each input/output word pays the preset's average
///   beyond-L1 latency ([`MemPreset::extra_latency_per_word`]).
///
/// The invocation count is `n / u` where the *effective* unroll `u` is
/// recovered by comparing the point's region op count against a
/// reference compile at unroll 1 — the compiler silently falls back to
/// lower factors on small fabrics, and trusting the requested factor
/// would undercount invocations there. Unmapped points fall back to a
/// scalar-core model over the same reference op counts.
///
/// # Errors
///
/// Returns [`DseError::Run`] if compilation fails.
pub fn estimate_point(kernel: &Kernel, point: &DsePoint, n: usize) -> Result<Estimate, DseError> {
    let rc = point.run_config(kernel, None)?;
    let compiled = compile_cached(&kernel.function(), &rc.compiler)
        .map_err(|e| DseError::Run(format!("{point}: {e}")))?;

    // Reference compile at unroll 1 on the same fabric: per-iteration op
    // counts. Cached process-wide, so the sweep pays for it once per
    // (kernel, geometry, kinds).
    let mut ref_rc = rc.clone();
    ref_rc.compiler.unroll_factor = 1;
    let reference = compile_cached(&kernel.function(), &ref_rc.compiler)
        .map_err(|e| DseError::Run(format!("{point} (reference): {e}")))?;

    let sum_accel = |c: &dyser_compiler::CompiledProgram| {
        let mut ops = 0usize;
        let mut ins = 0usize;
        let mut outs = 0usize;
        for r in &c.regions {
            if matches!(r.fate, dyser_compiler::RegionFate::Accelerated) {
                ops += r.compute_ops;
                ins += r.inputs;
                outs += r.outputs;
            }
        }
        (ops, ins, outs)
    };
    let (ops, ins, outs) = sum_accel(&compiled);
    let (ref_ops, _, _) = sum_accel(&reference);
    // The scalar model counts every region's ops whether or not it
    // mapped — an unmapped region still executes its ops on the core.
    let mut scalar_ops = 0usize;
    let mut scalar_ins = 0usize;
    let mut scalar_outs = 0usize;
    for r in &reference.regions {
        scalar_ops += r.compute_ops;
        scalar_ins += r.inputs;
        scalar_outs += r.outputs;
    }
    // Per-iteration op count; region reports may be empty when no
    // candidate region exists at all.
    let ops_per_iter = ref_ops.max(1);
    let scalar_ops = scalar_ops.max(1);

    let config_bits: u64 = compiled.accelerated.configs.iter().map(|c| c.frame_bits()).sum();
    let config_cycles: u64 = compiled
        .accelerated
        .configs
        .iter()
        .map(|c| c.frame_bits().div_ceil(DEFAULT_CONFIG_BUS_BITS))
        .sum();

    let geometry = FabricGeometry::new(point.rows, point.cols);
    let mem_extra = point.mem.extra_latency_per_word();
    let model = EnergyModel::default();

    // The scalar-core model, always computed: CPI ~1.5 over the
    // per-iteration op count plus loop and memory overhead.
    let scalar_io = (scalar_ins + scalar_outs).max(2) as f64;
    let scalar_cycles = STARTUP_CYCLES
        + n as f64 * (scalar_ops as f64 * 1.5 + scalar_io + 4.0 + mem_extra * scalar_io);

    let (cycles, activity) = if compiled.accelerated_any && ops > 0 {
        // Effective unroll from the op-count ratio (>=1).
        let u = (ops as f64 / ops_per_iter as f64).max(1.0);
        let invocations = (n as f64 / u).ceil().max(1.0);
        let io = (ins + outs) as f64;
        let core_feed = 2.0 * io + 4.0;
        let port_pressure = (ins as f64 / geometry.input_ports() as f64)
            .max(outs as f64 / geometry.output_ports() as f64);
        // Shallow FIFOs serialize the producer/consumer handoff; depth 1
        // costs roughly an extra half-cycle per transferred value.
        let fifo_penalty = if point.fifo_depth == 1 { 0.5 * io } else { 0.0 };
        let per_inv = core_feed.max(port_pressure) + mem_extra * io + fifo_penalty;
        let cycles = STARTUP_CYCLES + config_cycles as f64 + invocations * per_inv;

        let inv = invocations as u64;
        let act = Activity {
            cycles: cycles as u64,
            core_int_ops: inv * 4,
            core_loads: inv * ins as u64,
            core_stores: inv * outs as u64,
            core_branches: inv,
            core_dyser_ops: inv * (ins + outs) as u64,
            l1_accesses: inv * (2 * (ins + outs) + 5) as u64,
            l2_accesses: (invocations * io * 8.0 / 32.0) as u64,
            dram_accesses: (invocations * io * 8.0 / 64.0) as u64,
            fabric_int_ops: inv * ops as u64,
            fabric_switch_hops: inv * (3 * ops + ins + outs) as u64,
            fabric_port_transfers: inv * (ins + outs) as u64,
            fabric_config_bits: config_bits,
            ..Default::default()
        };
        (cycles, act)
    } else {
        // Scalar fallback: nothing mapped, so the accelerated binary is
        // the scalar loop.
        let io = scalar_io;
        let cycles = scalar_cycles;
        let n64 = n as u64;
        let act = Activity {
            cycles: cycles as u64,
            core_int_ops: n64 * (scalar_ops as u64 + 2),
            core_loads: n64 * scalar_ins.max(1) as u64,
            core_stores: n64 * scalar_outs.max(1) as u64,
            core_branches: n64,
            l1_accesses: n64 * (scalar_ops as u64 + 6),
            l2_accesses: (n as f64 * io * 8.0 / 32.0) as u64,
            dram_accesses: (n as f64 * io * 8.0 / 64.0) as u64,
            ..Default::default()
        };
        (cycles, act)
    };

    let energy_nj = model.estimate_for_geometry(&activity, geometry.fu_count()).total_nj
        + model.config_load_energy_nj(config_bits);
    Ok(Estimate {
        cycles,
        energy_nj,
        config_cycles,
        accelerated: compiled.accelerated_any && ops > 0,
        scalar_cycles,
    })
}

/// The per-kernel calibration point: the default system geometry and
/// FIFO depth, the default FU mix and memory hierarchy, no unrolling.
/// [`run_dse_with`] simulates this one point per kernel before
/// estimating anything and scales the analytic model by the observed
/// estimated/simulated ratio — anchoring cancels the model's systematic
/// error (unmodelled FP latencies, pipeline depth) while leaving the
/// *relative* ranking between points, and therefore the pruning
/// decisions, untouched.
#[must_use]
pub fn anchor_point(kernel: &str) -> DsePoint {
    let default = RunConfig::default();
    DsePoint {
        kernel: kernel.to_owned(),
        rows: default.system.geometry.rows(),
        cols: default.system.geometry.cols(),
        mix: FuMix::Default,
        fifo_depth: default.system.fifo_depth,
        mem: MemPreset::Default,
        unroll: 1,
    }
}

/// Whether estimate `q` prunes estimate `p` (same kernel): `q` must be
/// at least [`PRUNE_MARGIN`] times better on cycles *and* energy and no
/// worse on config load — only then is `p` worse beyond the estimator's
/// ranking error on every axis at once.
fn prunes(q: &Estimate, p: &Estimate) -> bool {
    q.cycles * PRUNE_MARGIN <= p.cycles
        && q.energy_nj * PRUNE_MARGIN <= p.energy_nj
        && q.config_cycles <= p.config_cycles
}

// ------------------------------------------------------------ outcome

/// The simulated measurements of one survivor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointSim {
    /// Baseline (no-DySER) cycles.
    pub baseline_cycles: u64,
    /// Accelerated cycles.
    pub cycles: u64,
    /// Accelerated-run energy (nJ), leakage scaled to the point's grid.
    pub energy_nj: f64,
    /// Cycles the core stalled on configuration loads.
    pub config_cycles: u64,
}

/// Extracts the DSE metrics from a harness result for a point's
/// geometry — shared by the local sweep and the `dyser-serve` job path
/// so both report identical numbers.
#[must_use]
pub fn point_sim(result: &KernelResult, fu_sites: usize) -> PointSim {
    let model = EnergyModel::default();
    let energy = model.estimate_for_geometry(&result.dyser.activity(), fu_sites);
    PointSim {
        baseline_cycles: result.baseline.cycles,
        cycles: result.dyser.cycles,
        energy_nj: energy.total_nj,
        config_cycles: result.dyser.core.stall_count(StallCause::DyserConfig),
    }
}

/// One survivor's full record: the point, its estimate, and its
/// simulated measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct DseRecord {
    /// The design point.
    pub point: DsePoint,
    /// The analytic estimate that admitted it.
    pub est: Estimate,
    /// The simulated measurements.
    pub sim: PointSim,
    /// Whether the point is on its kernel's simulated Pareto front
    /// (cycles / energy / config-load axes).
    pub pareto: bool,
}

impl DseRecord {
    /// Estimated over simulated cycles — the estimator-accuracy ratio
    /// reported for every survivor.
    #[must_use]
    pub fn accuracy_ratio(&self) -> f64 {
        self.est.cycles / self.sim.cycles.max(1) as f64
    }
}

/// The result of a sweep.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    /// The plan that produced it.
    pub plan: DsePlan,
    /// Points enumerated.
    pub points_total: usize,
    /// Points discarded by the analytic pre-prune.
    pub points_pruned: usize,
    /// Every simulated survivor, in enumeration order.
    pub records: Vec<DseRecord>,
}

impl DseOutcome {
    /// The survivors on a simulated Pareto front, in enumeration order.
    pub fn pareto(&self) -> impl Iterator<Item = &DseRecord> {
        self.records.iter().filter(|r| r.pareto)
    }

    /// The worst under- and over-estimate across all survivors, as
    /// (min, max) estimated/simulated cycle ratios.
    #[must_use]
    pub fn accuracy(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for r in &self.records {
            let ratio = r.accuracy_ratio();
            lo = lo.min(ratio);
            hi = hi.max(ratio);
        }
        if self.records.is_empty() {
            (1.0, 1.0)
        } else {
            (lo, hi)
        }
    }

    /// Renders the Pareto front as a table (summary counts and accuracy
    /// in the notes). Rows go through the typed-arity path so a
    /// malformed row surfaces as an error, not a mid-sweep panic.
    ///
    /// # Errors
    ///
    /// Returns [`TableError`] if a row cannot be assembled.
    pub fn table(&self) -> Result<ExpTable, TableError> {
        let mut t = ExpTable::new(
            "DSE: Pareto front (cycles / energy / config-load)",
            &[
                "kernel", "geometry", "mix", "fifo", "mem", "unroll", "cycles", "energy uJ",
                "config cyc", "est cyc", "est/sim", "speedup",
            ],
        );
        for r in self.pareto() {
            let p = &r.point;
            t.try_row(vec![
                p.kernel.clone(),
                format!("{}x{}", p.rows, p.cols),
                p.mix.label().into(),
                p.fifo_depth.to_string(),
                p.mem.label().into(),
                p.unroll.to_string(),
                r.sim.cycles.to_string(),
                format!("{:.2}", r.sim.energy_nj / 1000.0),
                r.sim.config_cycles.to_string(),
                format!("{:.0}", r.est.cycles),
                format!("{:.2}", r.accuracy_ratio()),
                format!("{:.2}x", r.sim.baseline_cycles as f64 / r.sim.cycles.max(1) as f64),
            ])?;
        }
        let (lo, hi) = self.accuracy();
        t.note(format!(
            "{} points, {} pruned analytically, {} simulated, {} on the front",
            self.points_total,
            self.points_pruned,
            self.records.len(),
            self.pareto().count()
        ));
        t.note(format!(
            "estimator accuracy over survivors: est/sim cycles in [{lo:.2}, {hi:.2}] \
             (documented band [{EST_BAND_LOW}, {EST_BAND_HIGH}])"
        ));
        t.note(format!("n = {} per kernel; prune margin {PRUNE_MARGIN}", self.plan.n));
        Ok(t)
    }

    /// Renders the full outcome as the `BENCH_dse.json` document. The
    /// output is deterministic for a given plan (no wall-clock fields),
    /// so CI can diff two invocations byte-for-byte.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"bench\": \"repro dse\",");
        let kernels: Vec<String> =
            self.plan.kernels.iter().map(|k| format!("\"{k}\"")).collect();
        let _ = writeln!(s, "  \"kernels\": [{}],", kernels.join(", "));
        let _ = writeln!(s, "  \"n\": {},", self.plan.n);
        let _ = writeln!(s, "  \"points_total\": {},", self.points_total);
        let _ = writeln!(s, "  \"points_pruned\": {},", self.points_pruned);
        let _ = writeln!(s, "  \"points_simulated\": {},", self.records.len());
        let (lo, hi) = self.accuracy();
        let _ = writeln!(
            s,
            "  \"estimator\": {{\"band_low\": {EST_BAND_LOW}, \"band_high\": {EST_BAND_HIGH}, \
             \"prune_margin\": {PRUNE_MARGIN}, \"worst_under\": {lo:.4}, \"worst_over\": {hi:.4}}},"
        );
        let entry = |r: &DseRecord| {
            let p = &r.point;
            format!(
                "    {{\"kernel\": \"{}\", \"rows\": {}, \"cols\": {}, \"mix\": \"{}\", \
                 \"fifo\": {}, \"mem\": \"{}\", \"unroll\": {}, \"cycles\": {}, \
                 \"baseline_cycles\": {}, \"energy_nj\": {:.1}, \"config_cycles\": {}, \
                 \"est_cycles\": {:.0}, \"est_energy_nj\": {:.1}, \"pareto\": {}}}",
                p.kernel,
                p.rows,
                p.cols,
                p.mix.label(),
                p.fifo_depth,
                p.mem.label(),
                p.unroll,
                r.sim.cycles,
                r.sim.baseline_cycles,
                r.sim.energy_nj,
                r.sim.config_cycles,
                r.est.cycles,
                r.est.energy_nj,
                r.pareto,
            )
        };
        let front: Vec<String> = self.pareto().map(entry).collect();
        let _ = writeln!(s, "  \"pareto\": [\n{}\n  ],", front.join(",\n"));
        let all: Vec<String> = self.records.iter().map(entry).collect();
        let _ = writeln!(s, "  \"survivors\": [\n{}\n  ]", all.join(",\n"));
        s.push_str("}\n");
        s
    }
}

/// The report path for a sweep of `plan`: only the full committed sweep
/// ([`DsePlan::default`], bit for bit) may rebaseline `BENCH_dse.json`;
/// any filtered or modified plan writes `BENCH_dse.partial.json`
/// (gitignored), so a narrowed sweep can never poison the committed
/// surface.
#[must_use]
pub fn dse_path(plan: &DsePlan) -> &'static str {
    if *plan == DsePlan::default() {
        "BENCH_dse.json"
    } else {
        "BENCH_dse.partial.json"
    }
}

// ------------------------------------------------------------ driver

/// Marks each record that no other record of the same kernel dominates
/// on (cycles, energy, config): `q` dominates `p` when `q` is no worse
/// everywhere and strictly better somewhere.
fn mark_pareto(records: &mut [DseRecord]) {
    let dominates = |q: &PointSim, p: &PointSim| {
        let no_worse = q.cycles <= p.cycles
            && q.energy_nj <= p.energy_nj
            && q.config_cycles <= p.config_cycles;
        let better = q.cycles < p.cycles
            || q.energy_nj < p.energy_nj
            || q.config_cycles < p.config_cycles;
        no_worse && better
    };
    let same = |q: &PointSim, p: &PointSim| {
        q.cycles == p.cycles
            && q.energy_nj.to_bits() == p.energy_nj.to_bits()
            && q.config_cycles == p.config_cycles
    };
    for i in 0..records.len() {
        // An identical sim tuple earlier in enumeration order also
        // displaces `i`: the front keeps one representative of each
        // measurement, not every degenerate knob setting that produced it.
        let dominated = records.iter().enumerate().any(|(j, q)| {
            j != i
                && q.point.kernel == records[i].point.kernel
                && (dominates(&q.sim, &records[i].sim)
                    || (j < i && same(&q.sim, &records[i].sim)))
        });
        records[i].pareto = !dominated;
    }
}

/// Runs the sweep: enumerate, estimate, prune, simulate survivors
/// locally through the parallel harness, mark the Pareto front.
///
/// Points run through one [`LegMemo`] for the whole sweep, so each
/// distinct scalar leg (every baseline leg, and the DySER leg of a point
/// that maps no region) simulates once and is replayed for every other
/// geometry, FU mix and FIFO depth. The report is byte-identical to
/// simulating every leg ([`run_dse_with`] over [`dyser_core::run_kernel`]).
///
/// # Errors
///
/// Returns a typed [`DseError`] for invalid plans, compile failures, or
/// survivor simulation failures.
pub fn run_dse(plan: &DsePlan) -> Result<DseOutcome, DseError> {
    let legs = LegMemo::default();
    run_dse_with(plan, |kernel, point, rc| {
        let case = kernel.case(plan.n, SEED);
        let result = legs.run_kernel(&case, rc).map_err(|e| format!("{point}: {e}"))?;
        Ok(point_sim(&result, rc.system.geometry.fu_count()))
    })
}

/// [`run_dse`] with a caller-supplied per-point survivor runner — the
/// `--serve` client fans survivors out to a daemon through this hook,
/// and tests substitute reference backends. Points fan out across
/// worker threads with one hook call each.
///
/// # Errors
///
/// See [`run_dse`].
pub fn run_dse_with(
    plan: &DsePlan,
    simulate: impl Fn(&Kernel, &DsePoint, &RunConfig) -> Result<PointSim, String> + Sync,
) -> Result<DseOutcome, DseError> {
    run_dse_with_many(plan, |requests| {
        parallel_map(requests, default_workers(), |(kernel, point, rc)| {
            simulate(kernel, point, rc)
        })
    })
}

/// One survivor-simulation request handed to the [`run_dse_with_many`]
/// hook: the suite kernel, the design point, and its resolved run
/// configuration.
pub type DseRequest<'a> = (&'a Kernel, DsePoint, RunConfig);

/// The generalized sweep driver: enumerate, calibrate, estimate, prune,
/// then hand *all* survivors to `simulate_many` in one call, so the hook
/// decides how to schedule them ([`run_dse_with`] fans them out one
/// point per task). The hook must return one result per request, in
/// request order.
///
/// # Errors
///
/// See [`run_dse`].
pub fn run_dse_with_many(
    plan: &DsePlan,
    simulate_many: impl Fn(&[DseRequest<'_>]) -> Vec<Result<PointSim, String>>,
) -> Result<DseOutcome, DseError> {
    plan.validate()?;
    let kernels = dse_kernels();
    let kernel_of = |name: &str| {
        kernels
            .iter()
            .find(|k| k.name == name)
            .expect("validated against the suite")
    };
    let points = plan.points();
    let points_total = points.len();

    // Calibration: one simulated anchor per kernel scales the analytic
    // model's absolute level. The anchors go through the same compile
    // cache and simulate hook as the survivors, in one hook call.
    let mut anchor_requests: Vec<DseRequest<'_>> = Vec::with_capacity(plan.kernels.len());
    for name in &plan.kernels {
        let kernel = kernel_of(name);
        let anchor = anchor_point(name);
        let rc = anchor.run_config(kernel, plan.backend)?;
        anchor_requests.push((kernel, anchor, rc));
    }
    let anchor_sims = simulate_many(&anchor_requests);
    let mut scales: HashMap<String, (f64, f64, f64)> = HashMap::new();
    for ((kernel, anchor, _), sim) in anchor_requests.iter().zip(anchor_sims) {
        let est = estimate_point(kernel, anchor, plan.n)?;
        let sim = sim.map_err(DseError::Run)?;
        scales.insert(
            kernel.name.to_owned(),
            (
                sim.cycles.max(1) as f64 / est.cycles.max(1.0),
                sim.baseline_cycles.max(1) as f64 / est.scalar_cycles.max(1.0),
                sim.energy_nj.max(1.0) / est.energy_nj.max(1.0),
            ),
        );
    }

    // Estimation: compile-bound, so parallelize over points; the compile
    // cache dedupes the (kernel, geometry, kinds, unroll) combinations.
    let estimates: Vec<Result<Estimate, DseError>> =
        parallel_map(&points, default_workers(), |p| {
            estimate_point(kernel_of(&p.kernel), p, plan.n)
        });
    let mut scored: Vec<(DsePoint, Estimate)> = Vec::with_capacity(points_total);
    for (p, e) in points.into_iter().zip(estimates) {
        let mut e = e?;
        let (accel_scale, scalar_scale, energy_scale) = scales[&p.kernel];
        e.cycles *= if e.accelerated { accel_scale } else { scalar_scale };
        e.energy_nj *= energy_scale;
        scored.push((p, e));
    }

    // Prune: a point survives unless a same-kernel point beats it by the
    // safety margin on every axis.
    let survivors: Vec<(DsePoint, Estimate)> = if plan.prune {
        scored
            .iter()
            .filter(|(p, e)| {
                !scored
                    .iter()
                    .any(|(q, qe)| q.kernel == p.kernel && q != p && prunes(qe, e))
            })
            .cloned()
            .collect()
    } else {
        scored.clone()
    };
    let points_pruned = points_total - survivors.len();

    // Simulate survivors: one hook call over the whole set.
    let mut requests: Vec<DseRequest<'_>> = Vec::with_capacity(survivors.len());
    for (p, _) in &survivors {
        let kernel = kernel_of(&p.kernel);
        let rc = p.run_config(kernel, plan.backend)?;
        requests.push((kernel, p.clone(), rc));
    }
    let sims = simulate_many(&requests);
    let mut records = Vec::with_capacity(survivors.len());
    for ((p, e), sim) in survivors.into_iter().zip(sims) {
        let sim = sim.map_err(DseError::Run)?;
        records.push(DseRecord { point: p, est: e, sim, pareto: false });
    }
    mark_pareto(&mut records);
    Ok(DseOutcome { plan: plan.clone(), points_total, points_pruned, records })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan() -> DsePlan {
        DsePlan {
            kernels: vec!["poly6".into()],
            dims: vec![2, 8],
            mixes: vec![FuMix::Default],
            fifos: vec![4],
            mems: vec![MemPreset::Default],
            unrolls: vec![1, 4],
            n: 64,
            prune: true,
            backend: Some(Backend::Compiled),
        }
    }

    #[test]
    fn default_plan_is_a_thousand_plus_points() {
        let plan = DsePlan::default();
        plan.validate().expect("default plan is valid");
        assert!(plan.points().len() >= 1000, "{}", plan.points().len());
    }

    #[test]
    fn validation_rejects_degenerate_axes() {
        let mut plan = tiny_plan();
        plan.dims = vec![0];
        assert!(matches!(
            plan.validate(),
            Err(DseError::Config(FabricConfigError::BadGeometry { rows: 0, cols: 0 }))
        ));
        let mut plan = tiny_plan();
        plan.dims = vec![17];
        assert!(matches!(plan.validate(), Err(DseError::Config(_))));
        let mut plan = tiny_plan();
        plan.fifos = vec![0];
        assert_eq!(
            plan.validate(),
            Err(DseError::Config(FabricConfigError::ZeroFifoDepth))
        );
        let mut plan = tiny_plan();
        plan.kernels = vec!["warp-drive".into()];
        assert_eq!(plan.validate(), Err(DseError::UnknownKernel("warp-drive".into())));
        let mut plan = tiny_plan();
        plan.mems.clear();
        assert_eq!(plan.validate(), Err(DseError::EmptyAxis("mems")));
        for unroll in [0, MAX_UNROLL + 1, 1_000_000] {
            let mut plan = tiny_plan();
            plan.unrolls = vec![1, unroll];
            assert_eq!(plan.validate(), Err(DseError::BadUnroll(unroll)));
        }
        let mut plan = tiny_plan();
        plan.unrolls = vec![1, MAX_UNROLL];
        assert_eq!(plan.validate(), Ok(()));
        // A repeated value would simulate the same point more than once.
        let mut plan = tiny_plan();
        plan.dims = vec![2, 2];
        assert_eq!(
            plan.validate(),
            Err(DseError::DuplicateValue { axis: "dims", value: "2".into() })
        );
        let mut plan = tiny_plan();
        plan.mems = vec![MemPreset::Tiny, MemPreset::Default, MemPreset::Tiny];
        assert_eq!(
            plan.validate(),
            Err(DseError::DuplicateValue { axis: "mems", value: "tiny".into() })
        );
        let mut plan = tiny_plan();
        plan.kernels = vec!["poly6".into(), "poly6".into()];
        assert!(matches!(plan.validate(), Err(DseError::DuplicateValue { axis: "kernels", .. })));
        // Problem sizes a kernel cannot hold, checked before any case is
        // built: `stencil3` needs an interior element, `mm` an n x n
        // matrix inside one buffer.
        for (kernel, n) in [("stencil3", 1), ("scan_poly", 0), ("mm", 363), ("saxpy", 140_000)] {
            let mut plan = tiny_plan();
            plan.kernels = vec![kernel.into()];
            plan.n = n;
            assert!(
                matches!(plan.validate(), Err(DseError::BadSize(ref e)) if e.kernel == kernel),
                "{kernel} at n = {n}: {:?}",
                plan.validate()
            );
        }
    }

    /// One memo per sweep replays scalar legs without changing a byte:
    /// `run_dse` must equal simulating every leg afresh, on a plan whose
    /// scalar legs repeat across geometries, memory presets and unroll
    /// factors, and where some points map no region.
    #[test]
    fn memoised_sweep_matches_fresh_legs() {
        let plan = DsePlan {
            kernels: vec!["poly6".into()],
            dims: vec![2, 4],
            mixes: vec![FuMix::Default],
            fifos: vec![4],
            mems: vec![MemPreset::Default, MemPreset::Tiny],
            unrolls: vec![1, 2],
            n: 24,
            prune: false,
            backend: Some(Backend::Compiled),
        };
        let fresh = run_dse_with(&plan, |kernel, point, rc| {
            let result = dyser_core::run_kernel(&kernel.case(plan.n, SEED), rc)
                .map_err(|e| format!("{point}: {e}"))?;
            Ok(point_sim(&result, rc.system.geometry.fu_count()))
        })
        .expect("fresh sweep");
        let unmapped = fresh.records.iter().filter(|r| !r.est.accelerated).count();
        assert!(unmapped > 0, "the plan must have unmapped survivors");
        assert_eq!(run_dse(&plan).expect("memoised sweep").to_json(), fresh.to_json());
    }

    #[test]
    fn tiny_sweep_runs_and_marks_a_front() {
        let outcome = run_dse(&tiny_plan()).expect("sweep");
        assert_eq!(outcome.points_total, 8);
        assert!(!outcome.records.is_empty(), "survivors must exist");
        assert!(outcome.pareto().count() >= 1, "the front is never empty");
        // The front is a subset of the survivors and non-dominated.
        for r in outcome.pareto() {
            let dominated = outcome.records.iter().any(|q| {
                q.point != r.point
                    && q.point.kernel == r.point.kernel
                    && q.sim.cycles <= r.sim.cycles
                    && q.sim.energy_nj <= r.sim.energy_nj
                    && q.sim.config_cycles <= r.sim.config_cycles
                    && (q.sim.cycles < r.sim.cycles
                        || q.sim.energy_nj < r.sim.energy_nj
                        || q.sim.config_cycles < r.sim.config_cycles)
            });
            assert!(!dominated, "{:?} is on the front but dominated", r.point);
        }
        let table = outcome.table().expect("table assembles");
        assert!(table.to_string().contains("Pareto"));
        let json = outcome.to_json();
        dyser_trace::validate_json(&json).expect("well-formed JSON");
        assert!(json.contains("\"pareto\": ["));
    }

    #[test]
    fn program_inner_kernels_sweep_by_name() {
        let plan = DsePlan {
            kernels: vec!["p2_hash".into(), "p3_stencil".into()],
            dims: vec![4],
            mixes: vec![FuMix::Default],
            fifos: vec![4],
            mems: vec![MemPreset::Default],
            unrolls: vec![1],
            n: 32,
            prune: false,
            backend: Some(Backend::Compiled),
        };
        plan.validate().expect("program inner kernels are known to the sweep");
        let outcome = run_dse(&plan).expect("sweep");
        assert_eq!(outcome.records.len(), 2, "one record per program region");
        for r in &outcome.records {
            assert!(r.sim.cycles > 0, "{:?} never simulated", r.point);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = run_dse(&tiny_plan()).expect("first run").to_json();
        let b = run_dse(&tiny_plan()).expect("second run").to_json();
        assert_eq!(a, b, "same plan, same bytes");
    }

    #[test]
    fn point_display_and_errors_render() {
        let p = DsePoint {
            kernel: "poly6".into(),
            rows: 2,
            cols: 4,
            mix: FuMix::Universal,
            fifo_depth: 1,
            mem: MemPreset::Tiny,
            unroll: 8,
        };
        assert_eq!(p.to_string(), "poly6 2x4/universal fifo1 mem:tiny u8");
        assert!(DseError::UnknownKernel("x".into()).to_string().contains("x"));
        assert!(MemPreset::parse("bogus").is_err());
        assert!(FuMix::parse("bogus").is_err());
        for m in MemPreset::ALL {
            assert_eq!(MemPreset::parse(m.label()), Ok(m));
        }
        for m in FuMix::ALL {
            assert_eq!(FuMix::parse(m.label()), Ok(m));
        }
    }
}
