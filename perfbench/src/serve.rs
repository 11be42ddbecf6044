//! `serve`: the daemon with two shards on loopback, driven by two
//! closed-loop clients (each sends its next job only after the reply to
//! the last), as `repro --serve` and `dse --serve` do. The job mix:
//! every suite kernel as IR text with seeded inputs at small n, the
//! whole programs p1-p3, and `dse-point` jobs on default and tiny memory
//! (`perfect` is left to `dse`, so the tail measures the service and not
//! the allocator). The seed draws the IR inputs and the job order.

use std::time::{Duration, Instant};

use dyser_bench::serve::{
    envelope_json, http_exchange, parse_envelope, submit, JobRequest, JobResult, RunSpec,
    SystemSpec, DEFAULT_JOB_CYCLES,
};
use dyser_core::parallel_map;
use dyser_fabric::FabricGeometry;
use dyser_rng::Rng64;
use dyser_serve::{execute_job, ServeConfig, Server};
use dyser_sparc::CycleBucket;
use dyser_workloads::{programs, suite};

use crate::host;
use crate::layers::{Counts, Model};
use crate::report::{KindTimes, PassTrace, ServeFigures, Timed};
use crate::trace::Tracer;
use crate::{clients, setup_samples, traced_outcome, window, Opts, Outcome, Scale};

/// Worker shards of the daemon.
const SHARDS: usize = 2;

/// Stdin words of the whole-program jobs.
const PROGRAM_N: usize = 512;

/// `dse-point` jobs: (kernel, rows, cols, universal, fifo, mem, unroll).
const POINTS: [(&str, usize, usize, bool, usize, &str, usize); 6] = [
    ("poly6", 4, 4, false, 4, "default", 2),
    ("poly6", 8, 8, true, 1, "tiny", 4),
    ("saxpy", 2, 4, false, 4, "tiny", 1),
    ("saxpy", 8, 8, false, 4, "default", 2),
    ("dot", 4, 8, true, 1, "default", 4),
    ("dot", 8, 4, false, 4, "tiny", 1),
];

/// Problem size of the `dse-point` jobs.
const POINT_N: usize = 64;

/// One job of the mix and what its reply must show.
struct Job {
    kind: &'static str,
    request: JobRequest,
    /// For whole programs: the reference stdout and exit code.
    program: Option<(String, u64)>,
}

/// Builds the job list from the seed.
fn jobs(opts: &Opts) -> Result<Vec<Job>, String> {
    let smoke = opts.scale == Scale::Smoke;
    let mut out = Vec::new();
    for k in suite() {
        let n = if k.default_n < 64 {
            k.default_n / 2
        } else {
            k.default_n / 8
        };
        let case = k.case(if smoke { n.min(16) } else { n }, opts.seed);
        out.push(Job {
            kind: "ir",
            request: JobRequest::Ir {
                text: case.function.to_string(),
                function: None,
                args: case.args,
                init: case.init,
                expected: case.expected,
                run: RunSpec::default(),
                system: SystemSpec::default(),
            },
            program: None,
        });
    }
    let n = if smoke { 16 } else { PROGRAM_N };
    for name in ["p1", "p2", "p3"] {
        let build = programs::by_name(name).ok_or("missing program")?;
        // The daemon builds programs from the repository's fixed seed.
        let case = build(FabricGeometry::new(8, 8), n, dyser_bench::experiments::SEED)
            .ok_or("program does not fit the 8x8 fabric")?;
        out.push(Job {
            kind: "program",
            request: JobRequest::Program {
                name: name.into(),
                n: Some(n),
                run: RunSpec::default(),
            },
            program: Some((
                String::from_utf8_lossy(&case.expected_stdout).into_owned(),
                case.expected_exit,
            )),
        });
    }
    for (kernel, rows, cols, universal, fifo_depth, mem, unroll) in POINTS {
        out.push(Job {
            kind: "dse_point",
            request: JobRequest::DsePoint {
                kernel: kernel.into(),
                n: if smoke { 16 } else { POINT_N },
                rows,
                cols,
                universal,
                fifo_depth,
                mem: mem.into(),
                unroll,
                run: RunSpec::default(),
            },
            program: None,
        });
    }
    Rng64::seed_from_u64(opts.seed).shuffle(&mut out);
    Ok(out)
}

/// Checks that a reply is the typed envelope this job must produce.
fn check(job: &Job, reply: Result<JobResult, String>) -> Result<JobResult, String> {
    let result = reply?;
    let ok = match (&result, job.kind, &job.program) {
        (JobResult::Run { .. }, "ir", _) | (JobResult::DsePoint { .. }, "dse_point", _) => true,
        (
            JobResult::Program {
                stdout, exit_code, ..
            },
            "program",
            Some((want, exit)),
        ) => stdout == want && exit_code == exit,
        _ => false,
    };
    if ok {
        Ok(result)
    } else {
        Err(format!(
            "unexpected reply to a {} job: {result:?}",
            job.kind
        ))
    }
}

/// Modelled figures of one pass's results, in job order.
fn model(results: &[JobResult]) -> Model {
    let mut m = Model::default();
    for r in results {
        let (base, accel) = match r {
            JobResult::Run {
                baseline_cycles,
                dyser_cycles,
                buckets,
                ..
            } => {
                for (slot, bucket) in m.buckets.iter_mut().zip(CycleBucket::ALL) {
                    let label = bucket.label();
                    *slot += buckets
                        .iter()
                        .find(|(l, _)| l == label)
                        .map_or(0, |(_, c)| *c);
                }
                (*baseline_cycles, *dyser_cycles)
            }
            JobResult::Program {
                baseline_cycles,
                dyser_cycles,
                ..
            } => (*baseline_cycles, *dyser_cycles),
            JobResult::DsePoint {
                baseline_cycles,
                cycles,
                ..
            } => (*baseline_cycles, *cycles),
            JobResult::Experiment { .. } => (0, 0),
        };
        m.sim_cycles += base + accel;
        m.speedups.push(base as f64 / accel.max(1) as f64);
    }
    m
}

/// A running daemon and the job mix.
pub struct Service {
    url: String,
    jobs: Vec<Job>,
}

/// Starts the daemon, builds the jobs and runs them once, so the compile
/// cache is warm; returns the first results as the reference.
pub fn setup(opts: &Opts) -> Result<(Service, Vec<JobResult>), String> {
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: SHARDS,
        ..ServeConfig::default()
    };
    let url = Server::bind(config).map_err(|e| e.to_string())?.spawn();
    let service = Service {
        url,
        jobs: jobs(opts)?,
    };
    let (results, _) = public_pass(&service)?;
    Ok((service, results))
}

/// One pass over the mix from two closed-loop clients through
/// `serve::submit`; returns the checked results and latencies in job order.
fn public_pass(service: &Service) -> Result<(Vec<JobResult>, Vec<f64>), String> {
    let replies = parallel_map(&service.jobs, clients(), |job| {
        let start = Instant::now();
        let reply = submit(&service.url, &job.request).map_err(|e| e.to_string());
        (check(job, reply), start.elapsed().as_secs_f64() * 1e3)
    });
    let mut results = Vec::with_capacity(replies.len());
    let mut latencies = Vec::with_capacity(replies.len());
    for (result, ms) in replies {
        results.push(result?);
        latencies.push(ms);
    }
    Ok((results, latencies))
}

/// One serial pass, each job in a `serve.request` span (the exchange
/// `submit` performs, split so the reply size is visible), followed by
/// the same jobs through `execute_job` in-process. Returns the results,
/// the pass's wall time and its figures.
fn layered_pass(
    service: &Service,
    t: &mut Tracer,
) -> Result<(Vec<JobResult>, Duration, ServeFigures), String> {
    let mut figures = ServeFigures::default();
    let mut results = Vec::with_capacity(service.jobs.len());
    let start = Instant::now();
    t.enter("pass");
    for job in &service.jobs {
        let (reply, latency) = t.span("serve.request", || {
            let begun = Instant::now();
            let reply = http_exchange(&service.url, "POST", "/job", &job.request.to_json());
            (reply, begun.elapsed())
        });
        let body = reply.map_err(|e| e.to_string())?;
        figures.reply_bytes += body.len() as u64;
        results.push(check(
            job,
            parse_envelope(&body).map_err(|e| e.to_string()),
        )?);
        let k = figures
            .kinds
            .entry(job.kind)
            .or_insert_with(KindTimes::default);
        k.jobs += 1;
        k.latency += latency;
    }
    t.exit();
    let wall = start.elapsed();
    for (job, served) in service.jobs.iter().zip(&results) {
        let begun = Instant::now();
        let local = execute_job(&job.request, DEFAULT_JOB_CYCLES);
        figures
            .kinds
            .get_mut(job.kind)
            .expect("kind seen above")
            .exec += begun.elapsed();
        // Compare in wire form: the envelope rounds `speedup`.
        if parse_envelope(&envelope_json(&local)).as_ref() != Ok(served) {
            return Err(format!(
                "a {} job served differs from execute_job in-process",
                job.kind
            ));
        }
    }
    Ok((results, wall, figures))
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let (service, reference) = setup(opts)?;
    let same = |results: &[JobResult]| {
        if results == reference.as_slice() {
            Ok(())
        } else {
            Err("a reply differs from the first pass at this seed".to_owned())
        }
    };
    let reference_model = model(&reference);

    if opts.trace {
        let mut traced = Vec::new();
        let mut untraced = Vec::new();
        window(opts.seconds, 2, |i| {
            let tracing = i % 2 == 0;
            let mut t = Tracer::new(tracing);
            let cpu = host::cpu()?;
            let (results, wall, serve) = layered_pass(&service, &mut t)?;
            same(&results)?;
            if tracing {
                let pass = PassTrace {
                    layers: t.layers().clone(),
                    counts: Counts {
                        model: reference_model.clone(),
                        ..Default::default()
                    },
                    sys_s: host::cpu()?.since(cpu).sys,
                    serve,
                    ..Default::default()
                };
                traced.push(pass.metrics());
            } else {
                untraced.push(wall.as_secs_f64() * 1e3);
            }
            Ok(())
        })?;
        let passes = traced.len() + untraced.len();
        return traced_outcome((passes * service.jobs.len()) as u64, &traced, &untraced);
    }

    let mut timed = Timed {
        setup_s: setup_samples(opts)?,
        points_per_pass: service.jobs.len() as f64,
        ..Default::default()
    };
    let cpu = host::cpu()?;
    timed.window_s = window(opts.seconds, 3, |_| {
        let start = Instant::now();
        let (results, latencies) = public_pass(&service)?;
        timed.pass_wall_s.push(start.elapsed().as_secs_f64());
        same(&results)?;
        timed.latencies_ms.extend(latencies);
        Ok(())
    })?;
    timed.cpu_s = host::cpu()?.since(cpu).total();
    timed.setup_s.extend(setup_samples(opts)?);
    timed.peak_rss_mb = host::peak_rss_mb()?;
    timed.sim_cycles = reference_model.sim_cycles;
    timed.speedup_geomean = reference_model.speedup_geomean();
    Ok(Outcome {
        attempted: timed.latencies_ms.len() as u64,
        metrics: timed.metrics(),
    })
}
