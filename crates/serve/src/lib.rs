//! # dyser-serve
//!
//! Simulation-as-a-service: a daemon that accepts compile+simulate jobs
//! over a socket JSON API and multiplexes them across a pool of worker
//! shards, all sharing the process-wide compile cache — the software
//! analogue of time-sharing one FPGA prototype board among many users.
//!
//! The wire protocol (requests, results, typed errors, the blocking
//! client) lives in `dyser_bench::serve`; this crate is the server side:
//!
//! * [`Server`] — a TCP listener, a bounded admission queue, and
//!   `shards` worker threads draining it. A full queue turns into a
//!   structured `overloaded` reply, not a hung connection.
//! * [`execute_job`] — runs one [`JobRequest`] to completion. Every
//!   failure mode (unknown kernel, impossible hardware description,
//!   compile error, mid-run cycle-budget timeout, output mismatch, even
//!   a worker panic) comes back as a typed [`JobError`]; a job can never
//!   take its shard down.
//!
//! Jobs are bit-identical to in-process runs: a kernel job produces the
//! same `RunStats` (compared by exhaustive `Debug` rendering) as
//! `run_kernel` under the same configuration, and an experiment job
//! returns the exact table text `repro` prints. The integration tests
//! prove both under concurrency.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread;

use dyser_bench::dse::{check_unroll, point_sim, DsePoint, FuMix, MemPreset};
use dyser_bench::experiments::{run_experiment_scaled, PROGRAM_N, SEED, TRACE_EVENTS};
use dyser_bench::serve::{
    envelope_json, read_http_request, write_http_response, JobError, JobRequest, JobResult,
    RunSpec, SystemSpec, DEFAULT_JOB_CYCLES,
};
use dyser_bench::{stats_attribution, Scale, Session, EXPERIMENT_IDS};
use dyser_compiler::ir::parser::parse_module;
use dyser_compiler::CompilerOptions;
use dyser_core::{run_kernel_traced, run_program_case_traced, KernelCase, RunConfig};
use dyser_fabric::FabricGeometry;
use dyser_sparc::CycleBucket;
use dyser_trace::{chrome_trace_json, TraceRun};
use dyser_workloads::programs::MAX_N as MAX_PROGRAM_N;
use dyser_workloads::suite;

// ------------------------------------------------------- configuration

/// Daemon parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker-shard count: jobs executing concurrently.
    pub shards: usize,
    /// Admission-queue depth: accepted connections waiting for a shard.
    /// Beyond this the daemon replies `overloaded` immediately.
    pub queue_depth: usize,
    /// Upper bound on any job's cycle budget. Requests asking for more
    /// are clamped, so one job cannot monopolize a shard indefinitely —
    /// the budget is enforced mid-run by the system's own `Timeout`
    /// plumbing.
    pub max_cycles_cap: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".into(),
            shards: 4,
            queue_depth: 64,
            max_cycles_cap: DEFAULT_JOB_CYCLES,
        }
    }
}

// ---------------------------------------------------- job execution

/// Renders a caught panic payload.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_owned()
    }
}

/// Runs `f`, turning a panic inside it into [`JobError::Internal`].
fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, JobError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| JobError::Internal(panic_message(&*p)))
}

/// Builds the `RunConfig` for a kernel or IR job, validating the
/// hardware description up front so impossible configurations (a
/// zero-depth FIFO, a 0×0 or 17×17 fabric) come back as typed
/// `invalid-config` errors instead of construction panics.
fn build_run_config(
    run: &RunSpec,
    system: &SystemSpec,
    max_cycles_cap: u64,
) -> Result<RunConfig, JobError> {
    let mut rc = RunConfig::default();
    let rows = system.rows.unwrap_or(rc.system.geometry.rows());
    let cols = system.cols.unwrap_or(rc.system.geometry.cols());
    rc.system.geometry = FabricGeometry::try_new(rows, cols)
        .map_err(|e| JobError::InvalidConfig(e.to_string()))?;
    if let Some(depth) = system.fifo_depth {
        rc.system.fifo_depth = depth;
    }
    if let Some(has_fabric) = system.has_fabric {
        rc.system.has_fabric = has_fabric;
    }
    rc.system.validate().map_err(|e| JobError::InvalidConfig(e.to_string()))?;
    rc.max_cycles = run.max_cycles.unwrap_or(DEFAULT_JOB_CYCLES).clamp(1, max_cycles_cap);
    rc.stepped = run.stepped;
    if let Some(b) = run.backend {
        rc.backend = b;
    }
    Ok(rc)
}

/// Runs `case` both ways through the shared compile cache on the calling
/// thread ([`run_kernel_traced`]), with caller-owned artifacts so
/// concurrent jobs never interleave traces.
fn dual_run(case: &KernelCase, config: &RunConfig, trace: bool) -> Result<JobResult, JobError> {
    let capacity = if trace { TRACE_EVENTS } else { 0 };
    let (result, [base, dyser]) =
        run_kernel_traced(case, config, capacity).map_err(|e| JobError::from_harness(&e))?;

    let account = result.dyser.core.cycle_account();
    let mut buckets: Vec<(String, u64)> = CycleBucket::ALL
        .iter()
        .map(|b| (b.label().to_owned(), account.get(*b)))
        .collect();
    buckets.push(("total".to_owned(), account.total_cycles));

    let trace_json = if trace {
        let runs: Vec<TraceRun> =
            [base.trace, dyser.trace].into_iter().flatten().collect();
        Some(chrome_trace_json(&runs))
    } else {
        None
    };

    Ok(JobResult::Run {
        name: result.name,
        baseline_cycles: result.baseline.cycles,
        dyser_cycles: result.dyser.cycles,
        speedup: result.speedup,
        baseline_stats: format!("{:?}", result.baseline),
        dyser_stats: format!("{:?}", result.dyser),
        buckets,
        trace_json,
    })
}

/// Executes one job to completion.
///
/// # Errors
///
/// Every failure mode maps to a [`JobError`]; this function never
/// panics on malformed or impossible jobs (panics from simulator bugs
/// are caught and surfaced as [`JobError::Internal`]).
pub fn execute_job(job: &JobRequest, max_cycles_cap: u64) -> Result<JobResult, JobError> {
    match job {
        JobRequest::Experiment { id, csv, scale, backend } => {
            if id != "stats" && !EXPERIMENT_IDS.contains(&id.as_str()) {
                return Err(JobError::UnknownExperiment(id.clone()));
            }
            if !(*scale > 0.0 && *scale <= 1.0) {
                return Err(JobError::InvalidRequest(format!(
                    "scale {scale} is outside (0, 1]"
                )));
            }
            let scale = Scale(*scale);
            guarded(|| {
                let mut session = Session::new(backend.unwrap_or_default());
                let table = if id == "stats" {
                    stats_attribution(&mut session, scale)
                } else {
                    run_experiment_scaled(&mut session, id, scale)
                };
                if *csv {
                    table.to_csv()
                } else {
                    table.to_string()
                }
            })
            .map(|text| JobResult::Experiment { text })
        }
        JobRequest::Kernel { name, n, run, system } => {
            let Some(kernel) = suite().into_iter().find(|k| k.name == name) else {
                return Err(JobError::UnknownKernel(name.clone()));
            };
            let n = n.unwrap_or(kernel.default_n);
            kernel.check_n(n).map_err(|e| JobError::InvalidRequest(e.to_string()))?;
            let mut rc = build_run_config(run, system, max_cycles_cap)?;
            rc.compiler = kernel.compiler_options(rc.system.geometry);
            guarded(|| dual_run(&kernel.case(n, SEED), &rc, run.trace))?
        }
        JobRequest::Ir { text, function, args, init, expected, run, system } => {
            let module = parse_module(text)
                .map_err(|e| JobError::Compile(format!("line {}: {}", e.line, e.message)))?;
            let func = match function {
                Some(name) => module.function(name).ok_or_else(|| {
                    JobError::Compile(format!("module has no function `{name}`"))
                })?,
                None => module
                    .functions
                    .first()
                    .ok_or_else(|| JobError::Compile("module has no functions".into()))?,
            };
            let mut rc = build_run_config(run, system, max_cycles_cap)?;
            rc.compiler = CompilerOptions::for_geometry(rc.system.geometry);
            let case = KernelCase {
                name: func.name().to_owned(),
                function: func.clone(),
                args: args.clone(),
                init: init.clone(),
                expected: expected.clone(),
            };
            guarded(|| dual_run(&case, &rc, run.trace))?
        }
        JobRequest::Program { name, n, run } => {
            let Some(build) = dyser_workloads::programs::by_name(name) else {
                return Err(JobError::UnknownKernel(name.clone()));
            };
            let n = n.unwrap_or(PROGRAM_N);
            if n < 8 || n % 4 != 0 || n > MAX_PROGRAM_N {
                return Err(JobError::InvalidRequest(format!(
                    "program `n` must be a multiple of 4 in 8..={MAX_PROGRAM_N}, got {n}"
                )));
            }
            let mut rc = build_run_config(run, &SystemSpec::default(), max_cycles_cap)?;
            rc.system.geometry = FabricGeometry::new(8, 8);
            let outcome = guarded(|| {
                let Some(case) = build(rc.system.geometry, n, SEED) else {
                    return Err(JobError::InvalidConfig(format!(
                        "fabric too small for program `{name}`"
                    )));
                };
                run_program_case_traced(&case, &rc, 0).map_err(|e| JobError::from_harness(&e))
            })?;
            let (result, [_, dyser]) = outcome?;
            Ok(JobResult::Program {
                name: name.clone(),
                baseline_cycles: result.baseline.cycles,
                dyser_cycles: result.dyser.cycles,
                speedup: result.speedup,
                stdout: String::from_utf8_lossy(&dyser.stdout).into_owned(),
                exit_code: dyser.exit_code,
            })
        }
        JobRequest::DsePoint { kernel, n, rows, cols, universal, fifo_depth, mem, unroll, run } => {
            let Some(k) = suite().into_iter().find(|s| s.name == kernel) else {
                return Err(JobError::UnknownKernel(kernel.clone()));
            };
            let mem = MemPreset::parse(mem).map_err(JobError::InvalidRequest)?;
            check_unroll(*unroll).map_err(|e| JobError::InvalidRequest(e.to_string()))?;
            k.check_n(*n).map_err(|e| JobError::InvalidRequest(e.to_string()))?;
            let point = DsePoint {
                kernel: kernel.clone(),
                rows: *rows,
                cols: *cols,
                mix: if *universal { FuMix::Universal } else { FuMix::Default },
                fifo_depth: *fifo_depth,
                mem,
                unroll: *unroll,
            };
            let mut rc = point
                .run_config(&k, run.backend)
                .map_err(|e| JobError::InvalidConfig(e.to_string()))?;
            rc.max_cycles = run.max_cycles.unwrap_or(DEFAULT_JOB_CYCLES).clamp(1, max_cycles_cap);
            let result = guarded(|| dyser_core::run_kernel(&k.case(*n, SEED), &rc))?
                .map_err(|e| JobError::from_harness(&e))?;
            let sim = point_sim(&result, rc.system.geometry.fu_count());
            Ok(JobResult::DsePoint {
                kernel: kernel.clone(),
                baseline_cycles: sim.baseline_cycles,
                cycles: sim.cycles,
                energy_nj: sim.energy_nj,
                config_cycles: sim.config_cycles,
            })
        }
    }
}

// -------------------------------------------------------------- server

/// The bounded hand-off between the acceptor and the worker shards.
struct AdmissionQueue {
    slots: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    depth: usize,
}

impl AdmissionQueue {
    fn new(depth: usize) -> AdmissionQueue {
        AdmissionQueue {
            slots: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Enqueues a connection, or hands it back if the queue is full.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        if slots.len() >= self.depth {
            return Err(stream);
        }
        slots.push_back(stream);
        drop(slots);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a connection is available.
    fn pop(&self) -> TcpStream {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(stream) = slots.pop_front() {
                return stream;
            }
            slots = self.ready.wait(slots).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The daemon's health document; `jobs_done` counts this daemon's jobs.
fn health_json(config: &ServeConfig, jobs_done: u64) -> String {
    format!(
        "{{\"ok\": true, \"shards\": {}, \"queue_depth\": {}, \"max_cycles_cap\": {}, \
         \"jobs_done\": {jobs_done}}}\n",
        config.shards, config.queue_depth, config.max_cycles_cap,
    )
}

/// Writes the outcome envelope; a failed write is ignored (the peer is
/// gone and the shard moves on).
fn respond(stream: &mut TcpStream, outcome: &Result<JobResult, JobError>) {
    let status = outcome.as_ref().map_or_else(JobError::http_status, |_| 200);
    let _ = write_http_response(stream, status, &envelope_json(outcome));
}

/// Services one accepted connection end to end. `jobs_done` is the
/// running daemon's count of completed jobs (successes and typed
/// failures alike), reported by `GET /health`.
fn handle_connection(mut stream: TcpStream, config: &ServeConfig, jobs_done: &AtomicU64) {
    let request = match read_http_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            respond(&mut stream, &Err(e));
            return;
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => {
            let health = health_json(config, jobs_done.load(Ordering::Relaxed));
            let _ = write_http_response(&mut stream, 200, &health);
        }
        ("POST", "/job") => {
            let outcome = JobRequest::parse(&request.body)
                .and_then(|job| execute_job(&job, config.max_cycles_cap));
            jobs_done.fetch_add(1, Ordering::Relaxed);
            respond(&mut stream, &outcome);
        }
        (_, "/job") => {
            respond(&mut stream, &Err(JobError::Protocol("use POST for /job".into())));
        }
        (_, path) => {
            respond(&mut stream, &Err(JobError::Protocol(format!("no such endpoint `{path}`"))));
        }
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
}

impl Server {
    /// Binds the listen socket (use port 0 in `config.addr` to let the
    /// OS pick — [`Server::url`] reports the resolved address).
    ///
    /// # Errors
    ///
    /// [`JobError::Io`] when the address cannot be bound.
    pub fn bind(config: ServeConfig) -> Result<Server, JobError> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| JobError::Io(format!("bind {}: {e}", config.addr)))?;
        Ok(Server { listener, config })
    }

    /// The resolved listen address.
    ///
    /// # Panics
    ///
    /// Panics if the socket has no local address (cannot happen for a
    /// successfully bound listener).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has a local address")
    }

    /// The service URL clients pass to `submit` / `repro --serve`.
    #[must_use]
    pub fn url(&self) -> String {
        format!("http://{}", self.local_addr())
    }

    /// The daemon's configuration.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Runs the accept loop and worker shards forever (until the
    /// process exits).
    pub fn run(self) {
        let queue = AdmissionQueue::new(self.config.queue_depth);
        let config = &self.config;
        let jobs_done = AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..config.shards.max(1) {
                s.spawn(|| loop {
                    handle_connection(queue.pop(), config, &jobs_done);
                });
            }
            for conn in self.listener.incoming() {
                let Ok(stream) = conn else { continue };
                if let Err(mut rejected) = queue.push(stream) {
                    let err = JobError::Overloaded(format!(
                        "admission queue of depth {} is full",
                        config.queue_depth
                    ));
                    let _ = write_http_response(
                        &mut rejected,
                        err.http_status(),
                        &envelope_json(&Err(err)),
                    );
                }
            }
        });
    }

    /// Starts the daemon on a detached thread and returns its URL —
    /// the in-process form the integration tests (and embedders) use.
    #[must_use]
    pub fn spawn(self) -> String {
        let url = self.url();
        thread::Builder::new()
            .name("dyser-serve".into())
            .spawn(move || self.run())
            .expect("spawn server thread");
        url
    }
}
