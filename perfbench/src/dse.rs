//! `dse`: many short design points with a cold compile cache, as a
//! `repro dse` user pays them. `run_dse` sweeps {poly6, saxpy, dot} x
//! dims {2,4,8}^2 x both FU mixes x fifos {1,4} x mems {default, tiny,
//! perfect} x unrolls {1,2,4} at n = 128 (972 points); survivors run on
//! the compiled engine. Each sweep runs in a fresh child process, since
//! the compile cache lives as long as the process does.
//!
//! The sweep's kernel inputs are fixed by `run_dse` itself; the seed
//! permutes the plan's axis order, which changes enumeration and
//! scheduling order but not the set of points.

use std::cell::RefCell;
use std::collections::HashSet;
use std::time::Instant;

use dyser_bench::dse::{
    anchor_point, dse_kernels, point_sim, run_dse, run_dse_with_many, DseOutcome, DsePlan, FuMix,
    MemPreset,
};
use dyser_bench::experiments::SEED;
use dyser_core::Backend;
use dyser_rng::Rng64;

use crate::host;
use crate::layers::{self, geomean, Counts};
use crate::report::{median, DseFigures, PassTrace, Timed};
use crate::trace::Tracer;
use crate::{
    child, field, metrics_from_line, print_child_line, setup_samples, traced_outcome, window, Opts,
    Outcome, Scale,
};

/// The sweep for this seed.
fn plan(opts: &Opts) -> DsePlan {
    let mut plan = match opts.scale {
        Scale::Full => DsePlan {
            kernels: vec!["poly6".into(), "saxpy".into(), "dot".into()],
            dims: vec![2, 4, 8],
            mixes: FuMix::ALL.to_vec(),
            fifos: vec![1, 4],
            mems: MemPreset::ALL.to_vec(),
            unrolls: vec![1, 2, 4],
            n: 128,
            prune: true,
            backend: Some(Backend::Compiled),
        },
        Scale::Smoke => DsePlan {
            kernels: vec!["poly6".into(), "saxpy".into()],
            dims: vec![2, 4],
            mixes: vec![FuMix::Default],
            fifos: vec![4],
            mems: vec![MemPreset::Default, MemPreset::Tiny],
            unrolls: vec![1, 2],
            n: 32,
            prune: true,
            backend: Some(Backend::Compiled),
        },
    };
    let mut rng = Rng64::seed_from_u64(opts.seed);
    rng.shuffle(&mut plan.kernels);
    rng.shuffle(&mut plan.dims);
    rng.shuffle(&mut plan.unrolls);
    plan
}

/// The whole of this workload's set-up: build, check and enumerate the
/// plan. Everything else a `repro dse` user pays is inside the sweep.
fn setup(opts: &Opts) -> Result<(), String> {
    let plan = plan(opts);
    plan.validate().map_err(|e| e.to_string())?;
    std::hint::black_box(plan.points());
    Ok(())
}

/// FNV-1a of the sweep's deterministic report: equal digests mean equal
/// survivors, measurements and Pareto front.
fn digest(outcome: &DseOutcome) -> String {
    let hash = outcome
        .to_json()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
    format!("{hash:016x}")
}

/// Simulated cycles (both legs) and geometric-mean speedup of the survivors.
fn figures(outcome: &DseOutcome) -> (u64, f64) {
    let cycles = outcome
        .records
        .iter()
        .map(|r| r.sim.baseline_cycles + r.sim.cycles)
        .sum();
    let speedups: Vec<f64> = outcome
        .records
        .iter()
        .map(|r| r.sim.baseline_cycles as f64 / r.sim.cycles.max(1) as f64)
        .collect();
    (cycles, geomean(&speedups))
}

/// Compiles every configuration the sweep's estimator and simulations
/// will ask for, once each, so compile time lands in `compiler` spans.
fn precompile(plan: &DsePlan, t: &mut Tracer, counts: &mut Counts) -> Result<(), String> {
    let kernels = dse_kernels();
    let mut seen = HashSet::new();
    let anchors = plan.kernels.iter().map(|k| anchor_point(k));
    for point in plan.points().into_iter().chain(anchors) {
        let kernel = kernels
            .iter()
            .find(|k| k.name == point.kernel)
            .ok_or("unknown kernel")?;
        let config = point.run_config(kernel, None).map_err(|e| e.to_string())?;
        let mut reference = config.compiler.clone();
        reference.unroll_factor = 1;
        for options in [config.compiler, reference] {
            if seen.insert(format!("{}|{options:?}", kernel.name)) {
                layers::compile(t, counts, &kernel.function(), &options)?;
            }
        }
    }
    Ok(())
}

/// One sweep through `run_dse_with_many`, simulating each survivor one
/// layer call at a time; prints the pass's per-layer metrics.
fn layered_child(opts: &Opts, tracing: bool) -> Result<(), String> {
    let plan = plan(opts);
    let tracer = RefCell::new(Tracer::new(tracing));
    let counts = RefCell::new(Counts::default());
    let cpu = host::cpu()?;
    let start = Instant::now();
    tracer.borrow_mut().enter("pass");
    precompile(&plan, &mut tracer.borrow_mut(), &mut counts.borrow_mut())?;
    tracer.borrow_mut().enter("dse");
    let outcome = run_dse_with_many(&plan, |requests| {
        let (t, c) = (&mut *tracer.borrow_mut(), &mut *counts.borrow_mut());
        requests
            .iter()
            .map(|(kernel, point, config)| {
                let case = t.span("workloads", || kernel.case(plan.n, SEED));
                let result =
                    layers::run_kernel(t, c, &case, config).map_err(|e| format!("{point}: {e}"))?;
                Ok(point_sim(&result, config.system.geometry.fu_count()))
            })
            .collect()
    })
    .map_err(|e| e.to_string())?;
    tracer.borrow_mut().exit();
    tracer.borrow_mut().exit();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let pass = PassTrace {
        layers: tracer.borrow().layers().clone(),
        counts: counts.into_inner(),
        sys_s: host::cpu()?.since(cpu).sys,
        dse: DseFigures {
            points: outcome.points_total as u64,
            pruned: outcome.points_pruned as u64,
        },
        ..Default::default()
    };
    print_child_line(
        &[
            ("wall_ms", format!("{wall_ms:?}")),
            ("digest", digest(&outcome)),
        ],
        &pass.metrics(),
    );
    Ok(())
}

/// One sweep through the public `run_dse`, timed.
fn public_child(opts: &Opts) -> Result<(), String> {
    let plan = plan(opts);
    let cpu = host::cpu()?;
    let start = Instant::now();
    let outcome = run_dse(&plan).map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu = host::cpu()?.since(cpu);
    let (sim_cycles, speedup) = figures(&outcome);
    print_child_line(
        &[
            ("wall_s", format!("{wall_s:?}")),
            ("cpu_s", format!("{:?}", cpu.total())),
            ("rss_mb", format!("{:?}", host::peak_rss_mb()?)),
            ("points", outcome.points_total.to_string()),
            ("sim_cycles", sim_cycles.to_string()),
            ("speedup_geomean", format!("{speedup:?}")),
            ("digest", digest(&outcome)),
        ],
        &[],
    );
    Ok(())
}

/// Entry point of a `dse` child process.
pub fn child_main(opts: &Opts, role: &str) -> Result<(), String> {
    match role {
        "setup" => setup(opts),
        "pass" => public_child(opts),
        "traced" => layered_child(opts, true),
        "untraced" => layered_child(opts, false),
        other => Err(format!("dse has no child role {other:?}")),
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    setup(opts)?;
    let digest_of = |line: &std::collections::BTreeMap<String, String>| {
        line.get("digest")
            .cloned()
            .ok_or_else(|| "child line lacks a digest".to_owned())
    };

    if opts.trace {
        // The layered sweep must reproduce the public one exactly.
        let expected = digest_of(&child(opts, "pass")?)?;
        let template = PassTrace::default().metrics();
        let mut traced = Vec::new();
        let mut untraced = Vec::new();
        window(opts.seconds, 2, |i| {
            let line = child(opts, if i % 2 == 0 { "traced" } else { "untraced" })?;
            if digest_of(&line)? != expected {
                return Err("the layered sweep differs from run_dse".into());
            }
            if i % 2 == 0 {
                traced.push(metrics_from_line(&line, &template)?);
            } else {
                untraced.push(field(&line, "wall_ms")?);
            }
            Ok(())
        })?;
        return traced_outcome((traced.len() + untraced.len()) as u64, &traced, &untraced);
    }

    let mut timed = Timed {
        setup_s: setup_samples(opts)?,
        ..Default::default()
    };
    let mut expected = None;
    let mut rss = Vec::new();
    timed.window_s = window(opts.seconds, 3, |_| {
        let line = child(opts, "pass")?;
        let d = digest_of(&line)?;
        if *expected.get_or_insert_with(|| d.clone()) != d {
            return Err("a sweep differs from the first sweep at this seed".into());
        }
        let wall = field(&line, "wall_s")?;
        timed.pass_wall_s.push(wall);
        timed.latencies_ms.push(wall * 1e3);
        timed.cpu_s += field(&line, "cpu_s")?;
        rss.push(field(&line, "rss_mb")?);
        timed.points_per_pass = field(&line, "points")?;
        timed.sim_cycles = field(&line, "sim_cycles")? as u64;
        timed.speedup_geomean = field(&line, "speedup_geomean")?;
        Ok(())
    })?;
    timed.peak_rss_mb = median(&rss);
    timed.setup_s.extend(setup_samples(opts)?);
    Ok(Outcome {
        attempted: timed.latencies_ms.len() as u64,
        metrics: timed.metrics(),
    })
}
