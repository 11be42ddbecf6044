//! `suite`: long simulations. All fifteen suite kernels and the three
//! whole programs, baseline and DySER legs, on the default `RunConfig`
//! (8x8 fabric, default memory, interpreted engine). Streaming kernels
//! run at four times their default size, so their arrays overrun the
//! 16 KiB L1D and live in the 256 KiB L2. Compilation is warmed in
//! set-up, so the timed passes are almost all engine work.

use std::time::Instant;

use dyser_core::{
    compile_cached, parallel_map, run_kernels, run_program_case, KernelJob, KernelResult,
    ProgramCase, RunConfig,
};
use dyser_fabric::FabricGeometry;
use dyser_workloads::{programs, suite};

use crate::host;
use crate::layers::{self, Counts, Model};
use crate::report::{PassTrace, Timed};
use crate::trace::Tracer;
use crate::{clients, setup_samples, traced_outcome, window, Opts, Outcome, Scale};

/// Kernel sizes as a multiple of each kernel's default.
const KERNEL_SCALE: usize = 4;

/// Whole-program stdin size, in 8-byte words.
const PROGRAM_N: usize = 1024;

/// One request of the workload.
pub enum Case {
    Kernel(KernelJob),
    Program(Box<ProgramCase>, RunConfig),
}

/// Builds every case from the seed and compiles every kernel, so the
/// compile cache is warm. Like `run_kernels`, the work is spread over the
/// client threads.
pub fn setup(opts: &Opts) -> Result<Vec<Case>, String> {
    let smoke = opts.scale == Scale::Smoke;
    let kernels = parallel_map(&suite(), clients(), |k| {
        // `mm` is cubic in its size; the streaming kernels are linear.
        let n = match (smoke, k.name) {
            (true, _) => (k.default_n / 8).max(4),
            (false, "mm") => k.default_n,
            (false, _) => k.default_n * KERNEL_SCALE,
        };
        let mut config = RunConfig::default();
        config.compiler = k.compiler_options(config.system.geometry);
        let case = k.case(n, opts.seed);
        compile_cached(&case.function, &config.compiler).map_err(|e| e.to_string())?;
        Ok(Case::Kernel((case, config)))
    });
    let geometry = FabricGeometry::new(8, 8);
    let mut config = RunConfig::default();
    config.system.geometry = geometry;
    let n = if smoke { 32 } else { PROGRAM_N };
    let programs = parallel_map(&["p1", "p2", "p3"], clients(), |name| {
        let build = programs::by_name(name).ok_or("missing program")?;
        let case = build(geometry, n, opts.seed).ok_or("program does not fit the 8x8 fabric")?;
        Ok(Case::Program(Box::new(case), config.clone()))
    });
    kernels.into_iter().chain(programs).collect()
}

/// One untraced pass through the public entry points, from up to two
/// client threads; returns the pass's model and per-case latencies.
fn public_pass(cases: &[Case]) -> Result<(Model, Vec<f64>), String> {
    let outcomes = parallel_map(cases, clients(), |c| {
        let start = Instant::now();
        let result = match c {
            Case::Kernel(job) => run_kernels(std::slice::from_ref(job), 1)
                .pop()
                .expect("one result per job")
                .map_err(|e| e.to_string()),
            Case::Program(p, config) => run_program_case(p, config).map_err(|e| e.to_string()),
        };
        (result, start.elapsed().as_secs_f64() * 1e3)
    });
    let mut model = Model::default();
    let mut latencies = Vec::with_capacity(outcomes.len());
    for (result, ms) in outcomes {
        let r: KernelResult = result?;
        model.add_case(&r);
        latencies.push(ms);
    }
    Ok((model, latencies))
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let cases = setup(opts)?;
    let (reference, _) = public_pass(&cases)?;
    let same = |m: &Model| {
        if *m == reference {
            Ok(())
        } else {
            Err("a pass's modelled statistics differ from the first pass at this seed".to_owned())
        }
    };

    if opts.trace {
        let mut traced = Vec::new();
        let mut untraced = Vec::new();
        window(opts.seconds, 2, |i| {
            let tracing = i % 2 == 0;
            let mut t = Tracer::new(tracing);
            let mut counts = Counts::default();
            let cpu = host::cpu()?;
            let start = Instant::now();
            t.enter("pass");
            for c in &cases {
                match c {
                    Case::Kernel((case, config)) => {
                        layers::run_kernel(&mut t, &mut counts, case, config)?;
                    }
                    Case::Program(p, config) => {
                        layers::run_program_case(&mut t, &mut counts, p, config)?;
                    }
                }
            }
            t.exit();
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            same(&counts.model)?;
            if tracing {
                let sys_s = host::cpu()?.since(cpu).sys;
                let pass = PassTrace {
                    layers: t.layers().clone(),
                    counts,
                    sys_s,
                    ..Default::default()
                };
                traced.push(pass.metrics());
            } else {
                untraced.push(wall_ms);
            }
            Ok(())
        })?;
        let passes = traced.len() + untraced.len();
        return traced_outcome((passes * cases.len()) as u64, &traced, &untraced);
    }

    let mut timed = Timed {
        setup_s: setup_samples(opts)?,
        points_per_pass: cases.len() as f64,
        ..Default::default()
    };
    let cpu = host::cpu()?;
    timed.window_s = window(opts.seconds, 3, |_| {
        let start = Instant::now();
        let (model, latencies) = public_pass(&cases)?;
        timed.pass_wall_s.push(start.elapsed().as_secs_f64());
        same(&model)?;
        timed.latencies_ms.extend(latencies);
        Ok(())
    })?;
    timed.cpu_s = host::cpu()?.since(cpu).total();
    timed.setup_s.extend(setup_samples(opts)?);
    timed.peak_rss_mb = host::peak_rss_mb()?;
    timed.sim_cycles = reference.sim_cycles;
    timed.speedup_geomean = reference.speedup_geomean();
    Ok(Outcome {
        attempted: timed.latencies_ms.len() as u64,
        metrics: timed.metrics(),
    })
}
