//! The traced face of the simulator: the steps `dyser_core`'s harness
//! takes for one leg (construct the `System`, load it, run it, verify it),
//! made one public call at a time so each sits in its own span, plus the
//! counters a pass accumulates from the values those calls return.

use std::sync::Arc;

use dyser_compiler::{CompiledProgram, CompilerOptions, Function, Program, RegionFate};
use dyser_core::{
    compile_cached, Backend, KernelCase, KernelResult, ProgramCase, RunConfig, RunStats,
    SpeedStats, System,
};
use dyser_sparc::CycleBucket;

use crate::trace::Tracer;

/// Modelled statistics of one pass, summed over every leg it ran. These
/// describe the simulated machine, so they repeat exactly for a seed and
/// a change that only speeds up the simulator leaves them unchanged.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Model {
    /// Simulated cycles, both legs of every case.
    pub sim_cycles: u64,
    /// Cycles per attribution bucket, in `CycleBucket::ALL` order.
    pub buckets: [u64; 9],
    /// Retired instructions.
    pub instructions: u64,
    /// L1D accesses and misses.
    pub l1d: (u64, u64),
    /// L2 accesses and misses.
    pub l2: (u64, u64),
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// Fabric FU firings.
    pub fu_fires: u64,
    /// Fabric ticked and active cycles.
    pub fabric_cycles: (u64, u64),
    /// Fabric configurations loaded.
    pub configs_loaded: u64,
    /// Baseline over accelerated cycles, one per case, in case order.
    pub speedups: Vec<f64>,
}

impl Model {
    /// Adds one leg's statistics.
    pub fn add_leg(&mut self, s: &RunStats) {
        self.sim_cycles += s.cycles;
        let account = s.cycle_account();
        for (slot, bucket) in self.buckets.iter_mut().zip(CycleBucket::ALL) {
            *slot += account.get(bucket);
        }
        self.instructions += s.core.instructions;
        self.l1d.0 += s.mem.l1d.accesses;
        self.l1d.1 += s.mem.l1d.misses;
        self.l2.0 += s.mem.l2.accesses;
        self.l2.1 += s.mem.l2.misses;
        self.dram_accesses += s.mem.dram_accesses;
        self.fu_fires += s.fabric.fu_fires();
        self.fabric_cycles.0 += s.fabric.cycles;
        self.fabric_cycles.1 += s.fabric.active_cycles;
        self.configs_loaded += s.fabric.configs_loaded;
    }

    /// Adds both legs of a case and its speedup.
    pub fn add_case(&mut self, r: &KernelResult) {
        self.add_leg(&r.baseline);
        self.add_leg(&r.dyser);
        self.speedups.push(r.speedup);
    }

    /// Geometric mean of the per-case speedups.
    pub fn speedup_geomean(&self) -> f64 {
        geomean(&self.speedups)
    }
}

/// Geometric mean (1 for an empty list).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Everything a traced pass counts besides host time.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Modelled statistics.
    pub model: Model,
    /// Issue-path cache counters of every leg.
    pub decode: (u64, u64),
    /// Translated-block cache hits, misses, invalidations.
    pub blocks: (u64, u64, u64),
    /// `compile_cached` calls made.
    pub compiles: u64,
    /// Regions reported by those compiles, and how many were mapped.
    pub regions: (u64, u64),
}

impl Counts {
    fn add_speed(&mut self, s: &SpeedStats) {
        self.decode.0 += s.decode_hits;
        self.decode.1 += s.decode_misses;
        self.blocks.0 += s.blocks.hits;
        self.blocks.1 += s.blocks.misses;
        self.blocks.2 += s.blocks.invalidations;
    }
}

/// Compiles through the shared cache inside a `compiler` span.
pub fn compile(
    t: &mut Tracer,
    counts: &mut Counts,
    function: &Function,
    options: &CompilerOptions,
) -> Result<Arc<CompiledProgram>, String> {
    let compiled = t
        .span("compiler", || compile_cached(function, options))
        .map_err(|e| e.to_string())?;
    counts.compiles += 1;
    counts.regions.0 += compiled.regions.len() as u64;
    counts.regions.1 += compiled
        .regions
        .iter()
        .filter(|r| matches!(r.fate, RegionFate::Accelerated))
        .count() as u64;
    Ok(compiled)
}

/// What one leg starts from and must end with.
struct Leg<'a> {
    which: &'static str,
    program: &'a Program,
    args: &'a [u64],
    init: &'a [(u64, Vec<u64>)],
    expected: &'a [(u64, Vec<u64>)],
    /// A whole-program leg: process start-up, stdout and exit code.
    process: Option<&'a ProgramCase>,
}

/// Runs one leg as `run_program`/`run_whole_program` do, one span per step.
fn run_leg(
    t: &mut Tracer,
    counts: &mut Counts,
    leg: &Leg<'_>,
    config: &RunConfig,
) -> Result<RunStats, String> {
    let fail = |e: dyser_core::SysError| format!("{} run: {e}", leg.which);
    let mut sys = t
        .span("core.system_new", || System::try_new(config.system.clone()))
        .map_err(fail)?;
    t.span("core.load", || {
        sys.load_program(leg.program)?;
        for (addr, words) in leg.init {
            sys.memory_mut().write_u64_slice(*addr, words);
        }
        match leg.process {
            Some(p) => {
                let argv: Vec<&str> = p.argv.iter().map(String::as_str).collect();
                let envp: Vec<&str> = p.envp.iter().map(String::as_str).collect();
                sys.setup_process(&argv, &envp, &p.stdin);
            }
            None => sys.set_args(leg.args),
        }
        Ok(())
    })
    .map_err(fail)?;
    let stats = t
        .span("core.run", || match config.backend {
            Backend::Interpreted => sys.run(config.max_cycles),
            Backend::Compiled => sys.run_compiled(config.max_cycles),
        })
        .map_err(fail)?;
    counts.add_speed(&sys.speed_stats());
    t.span("core.verify", || verify(&sys, leg))?;
    Ok(stats)
}

/// Checks memory, and for a whole program its exit code and stdout.
fn verify(sys: &System, leg: &Leg<'_>) -> Result<(), String> {
    for (addr, words) in leg.expected {
        for (i, want) in words.iter().enumerate() {
            let a = addr + 8 * i as u64;
            let got = sys.memory().read_u64(a);
            if got != *want {
                return Err(format!("{} output mismatch at {a:#x}", leg.which));
            }
        }
    }
    if let Some(p) = leg.process {
        if sys.kernel().exit_code().unwrap_or(0) != p.expected_exit {
            return Err(format!("{} exit code mismatch", leg.which));
        }
        if sys.kernel().stdout() != p.expected_stdout.as_slice() {
            return Err(format!("{} stdout mismatch", leg.which));
        }
    }
    Ok(())
}

/// [`dyser_core::run_kernel`], one span per layer call.
pub fn run_kernel(
    t: &mut Tracer,
    counts: &mut Counts,
    case: &KernelCase,
    config: &RunConfig,
) -> Result<KernelResult, String> {
    let compiled = compile(t, counts, &case.function, &config.compiler)?;
    let leg = |which, program| Leg {
        which,
        program,
        args: &case.args,
        init: &case.init,
        expected: &case.expected,
        process: None,
    };
    let baseline = run_leg(t, counts, &leg("baseline", &compiled.baseline), config)?;
    let dyser = run_leg(t, counts, &leg("dyser", &compiled.accelerated), config)?;
    let result = KernelResult {
        name: case.name.clone(),
        speedup: baseline.cycles as f64 / dyser.cycles.max(1) as f64,
        accelerated_any: compiled.accelerated_any,
        regions: compiled.regions.clone(),
        code_sizes: (compiled.baseline.len(), compiled.accelerated.len()),
        baseline,
        dyser,
    };
    counts.model.add_case(&result);
    Ok(result)
}

/// [`dyser_core::run_program_case`], one span per layer call.
pub fn run_program_case(
    t: &mut Tracer,
    counts: &mut Counts,
    case: &ProgramCase,
    config: &RunConfig,
) -> Result<KernelResult, String> {
    let leg = |which, program| Leg {
        which,
        program,
        args: &[],
        init: &case.init,
        expected: &case.expected,
        process: Some(case),
    };
    let baseline = run_leg(t, counts, &leg("baseline", &case.baseline), config)?;
    let dyser = run_leg(t, counts, &leg("dyser", &case.accelerated), config)?;
    let result = KernelResult {
        name: case.name.clone(),
        speedup: baseline.cycles as f64 / dyser.cycles.max(1) as f64,
        accelerated_any: true,
        regions: Vec::new(),
        code_sizes: (case.baseline.len(), case.accelerated.len()),
        baseline,
        dyser,
    };
    counts.model.add_case(&result);
    Ok(result)
}
