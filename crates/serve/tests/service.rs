//! End-to-end tests of the simulation service: concurrent jobs over the
//! shared compile cache must be byte-identical to serial in-process
//! runs, budgets must be enforced mid-job, and malformed or impossible
//! jobs must come back as typed errors without taking a worker down.

use std::sync::Mutex;
use std::thread;

use dyser_bench::dse::{
    anchor_point, dse_kernels, parse_dse_args, point_sim, render_dse, DsePoint, FuMix, MemPreset,
};
use dyser_bench::experiments::{run_experiment_scaled, SEED};
use dyser_bench::serve::{
    http_exchange, parse_envelope, submit, JobError, JobRequest, JobResult, RunSpec, SystemSpec,
};
use dyser_bench::{stats_attribution, Scale, Session, EXPERIMENT_IDS};
use dyser_core::{run_kernel, Backend, RunConfig};
use dyser_serve::{execute_job, ServeConfig, Server};
use dyser_workloads::suite;

/// Experiment scale for the service tests: small enough for debug-mode
/// CI, large enough that every kernel actually simulates.
const SCALE: f64 = 0.08;

/// The tests in this file share the process-wide compile cache; run them
/// one at a time so each test's concurrency is exactly the concurrency it
/// arranged itself.
static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The `jobs_done` count of the daemon at `url`.
fn jobs_done(url: &str) -> u64 {
    let health = dyser_bench::serve::health(url).expect("health");
    dyser_trace::parse_json(&health)
        .expect("health is JSON")
        .get("jobs_done")
        .and_then(dyser_trace::JsonValue::as_u64)
        .unwrap_or_else(|| panic!("no jobs_done in {health}"))
}

/// Boots an in-process daemon on an OS-assigned port.
fn spawn_server(shards: usize) -> String {
    let config = ServeConfig { addr: "127.0.0.1:0".into(), shards, ..ServeConfig::default() };
    Server::bind(config).expect("bind test server").spawn()
}

/// Submits `jobs` from `clients` concurrent client threads, preserving
/// job order in the returned outcomes.
fn submit_concurrently(
    url: &str,
    jobs: &[JobRequest],
    clients: usize,
) -> Vec<Result<JobResult, JobError>> {
    let slots: Vec<Mutex<Option<Result<JobResult, JobError>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    thread::scope(|s| {
        for c in 0..clients {
            let slots = &slots;
            s.spawn(move || {
                for (i, job) in jobs.iter().enumerate() {
                    if i % clients == c {
                        *slots[i].lock().expect("slot") = Some(submit(url, job));
                    }
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("slot").expect("every job submitted"))
        .collect()
}

#[test]
fn concurrent_experiment_jobs_are_byte_identical_to_serial_runs() {
    let _g = lock();
    // Serial in-process reference: the exact text `repro --csv` renders.
    let mut session = Session::default();
    let expected: Vec<String> = EXPERIMENT_IDS
        .iter()
        .map(|id| run_experiment_scaled(&mut session, id, Scale(SCALE)).to_csv())
        .collect();

    let url = spawn_server(4);
    let experiment = |ids: &[&str], backend| JobRequest::Experiment {
        ids: ids.iter().map(|id| (*id).to_owned()).collect(),
        csv: true,
        scale: SCALE,
        backend: Some(backend),
    };
    let (mut jobs, mut wants) = (Vec::new(), Vec::new());
    for backend in [Backend::Interpreted, Backend::Compiled] {
        for (id, want) in EXPERIMENT_IDS.iter().zip(&expected) {
            jobs.push(experiment(&[id], backend));
            wants.push(want.clone());
        }
    }
    // One job carrying every id, as `repro all --serve` sends: its text
    // is the tables joined as `repro` prints them.
    jobs.push(experiment(&EXPERIMENT_IDS, Backend::Compiled));
    wants.push(expected.join("\n"));

    let outcomes = submit_concurrently(&url, &jobs, 4);
    for (i, (outcome, want)) in outcomes.into_iter().zip(&wants).enumerate() {
        match outcome {
            Ok(JobResult::Experiment { text, report: None }) => {
                assert_eq!(
                    &text, want,
                    "job {i} ({:?}) diverged from the serial in-process run",
                    jobs[i]
                );
            }
            other => panic!("job {i} ({:?}) failed: {other:?}", jobs[i]),
        }
    }
}

#[test]
fn stats_job_matches_in_process_sweep() {
    let _g = lock();
    let url = spawn_server(2);
    let job = JobRequest::Experiment {
        ids: vec!["stats".into()],
        csv: false,
        scale: SCALE,
        backend: None,
    };
    // The served sweep sums only the speed counters its own runs return,
    // so its notes must equal a local sweep's.
    let served = match submit(&url, &job) {
        Ok(JobResult::Experiment { text, report: None }) => text,
        other => panic!("stats job failed: {other:?}"),
    };
    let local = stats_attribution(&mut Session::default(), Scale(SCALE)).to_string();
    assert_eq!(served, local, "served stats sweep diverged from the in-process sweep");
}

#[test]
fn concurrent_kernel_jobs_are_bit_identical_to_run_kernel() {
    let _g = lock();
    let kernels: Vec<_> = suite().into_iter().take(3).collect();
    let sizes: Vec<usize> =
        kernels.iter().map(|k| (k.default_n / 16).max(8) / 4 * 4).collect();

    // Serial in-process reference under the same configurations.
    let mut expected = Vec::new();
    for (backend, stepped) in
        [(Backend::Interpreted, false), (Backend::Compiled, false), (Backend::Interpreted, true)]
    {
        for (k, n) in kernels.iter().zip(&sizes) {
            let mut config = RunConfig::default();
            config.compiler = k.compiler_options(config.system.geometry);
            config.backend = backend;
            config.stepped = stepped;
            let r = run_kernel(&k.case(*n, SEED), &config)
                .unwrap_or_else(|e| panic!("in-process {}: {e}", k.name));
            expected.push((format!("{:?}", r.baseline), format!("{:?}", r.dyser)));
        }
    }

    let url = spawn_server(4);
    let jobs: Vec<JobRequest> = [(Backend::Interpreted, false), (Backend::Compiled, false), (Backend::Interpreted, true)]
        .iter()
        .flat_map(|(backend, stepped)| {
            kernels.iter().zip(&sizes).map(move |(k, n)| JobRequest::Kernel {
                name: k.name.to_owned(),
                n: Some(*n),
                run: RunSpec { backend: Some(*backend), stepped: *stepped, ..RunSpec::default() },
                system: SystemSpec::default(),
            })
        })
        .collect();

    let outcomes = submit_concurrently(&url, &jobs, 4);
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(JobResult::Run { baseline_stats, dyser_stats, baseline_cycles, dyser_cycles, .. }) => {
                assert_eq!(
                    (&baseline_stats, &dyser_stats),
                    (&expected[i].0, &expected[i].1),
                    "job {i} ({:?}) stats diverged from run_kernel",
                    jobs[i]
                );
                assert!(baseline_cycles > 0 && dyser_cycles > 0);
            }
            other => panic!("job {i} ({:?}) failed: {other:?}", jobs[i]),
        }
    }
}

#[test]
fn mid_job_cycle_budget_is_enforced() {
    let _g = lock();
    let url = spawn_server(1);
    let job = JobRequest::Kernel {
        name: suite()[0].name.to_owned(),
        n: None,
        run: RunSpec { max_cycles: Some(64), ..RunSpec::default() },
        system: SystemSpec::default(),
    };
    match submit(&url, &job) {
        Err(JobError::Timeout { cycles }) => {
            assert!(cycles >= 1, "timeout must report the cycles it ran");
        }
        other => panic!("expected a timeout, got {other:?}"),
    }
    // The worker survived the budgeted job and still serves.
    match submit(&url, &JobRequest::Kernel {
        name: suite()[0].name.to_owned(),
        n: Some(8),
        run: RunSpec::default(),
        system: SystemSpec::default(),
    }) {
        Ok(JobResult::Run { .. }) => {}
        other => panic!("follow-up job failed: {other:?}"),
    }
}

#[test]
fn impossible_and_malformed_jobs_return_typed_errors() {
    let _g = lock();
    let url = spawn_server(1);

    // Impossible hardware: the fuzzer's zero-depth FIFO configuration.
    let zero_fifo = JobRequest::Kernel {
        name: suite()[0].name.to_owned(),
        n: Some(8),
        run: RunSpec::default(),
        system: SystemSpec { fifo_depth: Some(0), ..SystemSpec::default() },
    };
    match submit(&url, &zero_fifo) {
        Err(JobError::InvalidConfig(_)) => {}
        other => panic!("expected invalid-config, got {other:?}"),
    }

    // A geometry the fabric cannot represent.
    let huge = JobRequest::Kernel {
        name: suite()[0].name.to_owned(),
        n: Some(8),
        run: RunSpec::default(),
        system: SystemSpec { rows: Some(99), ..SystemSpec::default() },
    };
    match submit(&url, &huge) {
        Err(JobError::InvalidConfig(_)) => {}
        other => panic!("expected invalid-config, got {other:?}"),
    }

    match submit(&url, &JobRequest::Kernel {
        name: "no-such-kernel".into(),
        n: None,
        run: RunSpec::default(),
        system: SystemSpec::default(),
    }) {
        Err(JobError::UnknownKernel(_)) => {}
        other => panic!("expected unknown-kernel, got {other:?}"),
    }

    // An unknown id anywhere in the list refuses the whole job, and so
    // do an empty list and a repeated id, however long the list: a job
    // runs each experiment at most once.
    let experiment = |ids: &[&str]| JobRequest::Experiment {
        ids: ids.iter().map(|id| (*id).to_owned()).collect(),
        csv: false,
        scale: SCALE,
        backend: None,
    };
    for ids in [&["e99"][..], &["e2", "e99"], &["e99", "e2"]] {
        match submit(&url, &experiment(ids)) {
            Err(JobError::UnknownExperiment(m)) => assert!(m.contains("e99"), "{m}"),
            other => panic!("{ids:?}: expected unknown-experiment, got {other:?}"),
        }
    }
    let long = vec!["stats"; 1 << 16];
    for ids in [&[][..], &["e2", "e2"], &long] {
        match submit(&url, &experiment(ids)) {
            Err(JobError::InvalidRequest(_)) => {}
            other => panic!("{} ids: expected invalid-request, got {other:?}", ids.len()),
        }
    }

    // `ids` must be an array of strings; the single-id `id` field is gone.
    for body in [
        r#"{"kind": "experiment", "ids": ["e2", 3]}"#,
        r#"{"kind": "experiment", "ids": "e2"}"#,
        r#"{"kind": "experiment", "id": "e2"}"#,
    ] {
        let reply = http_exchange(&url, "POST", "/job", body).expect("exchange");
        match parse_envelope(&reply) {
            Err(JobError::InvalidRequest(m)) => assert!(m.contains("`ids`"), "{body}: {m}"),
            other => panic!("{body}: expected invalid-request, got {other:?}"),
        }
    }

    // A field of the wrong type is refused, naming its key, instead of
    // running with the field's default.
    for (body, key) in [
        (r#"{"kind": "kernel", "name": "saxpy", "n": "16"}"#, "n"),
        (r#"{"kind": "program", "name": "p1", "n": -4}"#, "n"),
        (r#"{"kind": "kernel", "name": "saxpy", "n": 8, "max_cycles": 1.5}"#, "max_cycles"),
        (r#"{"kind": "kernel", "name": "saxpy", "n": 8, "stepped": "yes"}"#, "stepped"),
        (r#"{"kind": "experiment", "ids": ["e2"], "scale": "0.5"}"#, "scale"),
        (
            r#"{"kind": "dse-point", "kernel": "saxpy", "n": 16, "rows": 2, "cols": 2,
                "fifo_depth": 2, "unroll": 1, "mem": 7}"#,
            "mem",
        ),
        (
            r#"{"kind": "dse-point", "kernel": "saxpy", "n": 16, "rows": 2, "cols": 2,
                "fifo_depth": 2, "unroll": 1, "universal": "yes"}"#,
            "universal",
        ),
        (r#"{"kind": "kernel", "name": "saxpy", "n": 8, "backend": 7}"#, "backend"),
        (r#"{"kind": "kernel", "name": "saxpy", "n": 8, "system": [4]}"#, "system"),
        (r#"{"kind": "dse", "args": "--csv"}"#, "args"),
    ] {
        let reply = http_exchange(&url, "POST", "/job", body).expect("exchange");
        match parse_envelope(&reply) {
            Err(JobError::InvalidRequest(m)) => {
                assert!(m.starts_with(&format!("`{key}` must be")), "{body}: {m}");
            }
            other => panic!("{body}: expected invalid-request, got {other:?}"),
        }
    }
    // Unknown keys are still ignored.
    let body = r#"{"kind": "kernel", "name": "saxpy", "n": 8, "colour": 7}"#;
    let reply = http_exchange(&url, "POST", "/job", body).expect("exchange");
    assert!(matches!(parse_envelope(&reply), Ok(JobResult::Run { .. })), "{reply}");

    // A body that is not JSON at all.
    let reply = http_exchange(&url, "POST", "/job", "this is not json").expect("exchange");
    match parse_envelope(&reply) {
        Err(JobError::InvalidRequest(_)) => {}
        other => panic!("expected invalid-request, got {other:?}"),
    }

    // An unknown endpoint.
    let reply = http_exchange(&url, "GET", "/nope", "").expect("exchange");
    match parse_envelope(&reply) {
        Err(JobError::Protocol(_)) => {}
        other => panic!("expected protocol error, got {other:?}"),
    }

    // After all of that, the single worker still serves real jobs —
    // no panic escaped.
    match submit(&url, &JobRequest::Kernel {
        name: suite()[0].name.to_owned(),
        n: Some(8),
        run: RunSpec::default(),
        system: SystemSpec::default(),
    }) {
        Ok(JobResult::Run { .. }) => {}
        other => panic!("worker did not survive: {other:?}"),
    }

    let health = dyser_bench::serve::health(&url).expect("health");
    assert!(health.contains("\"ok\": true"), "health reply: {health}");
}

#[test]
fn health_counts_only_its_own_daemons_jobs() {
    let _g = lock();
    let busy = spawn_server(1);
    let idle = spawn_server(1);
    let job = JobRequest::Kernel {
        name: suite()[0].name.to_owned(),
        n: Some(8),
        run: RunSpec::default(),
        system: SystemSpec::default(),
    };
    for _ in 0..3 {
        match submit(&busy, &job) {
            Ok(JobResult::Run { .. }) => {}
            other => panic!("expected a run, got {other:?}"),
        }
    }
    assert_eq!(jobs_done(&busy), 3);
    assert_eq!(jobs_done(&idle), 0);
}

/// A daemon whose cap is 0 runs every job for one cycle: each gets a
/// typed `timeout`, its one shard keeps serving, and `/health` reports
/// the cap in force.
#[test]
fn a_zero_cycle_cap_times_jobs_out() {
    let _g = lock();
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        shards: 1,
        max_cycles_cap: 0,
        ..ServeConfig::default()
    };
    let url = Server::bind(config).expect("bind test server").spawn();
    let dse_point = JobRequest::DsePoint {
        kernel: "saxpy".into(),
        n: 16,
        rows: 2,
        cols: 2,
        universal: false,
        fifo_depth: 2,
        mem: "default".into(),
        unroll: 1,
        run: RunSpec::default(),
    };
    for job in [kernel_job("saxpy", 8), dse_point] {
        for outcome in [execute_job(&job, 0), submit(&url, &job)] {
            match outcome {
                Err(JobError::Timeout { cycles }) => assert_eq!(cycles, 1, "{job:?}"),
                other => panic!("{job:?}: expected a timeout, got {other:?}"),
            }
        }
    }
    let health = dyser_bench::serve::health(&url).expect("health answers");
    assert!(health.contains("\"jobs_done\": 2"), "health reply: {health}");
    assert!(health.contains("\"max_cycles_cap\": 1,"), "health reply: {health}");
}

#[test]
fn traced_job_returns_a_chrome_trace_artifact() {
    let _g = lock();
    let url = spawn_server(1);
    let job = JobRequest::Kernel {
        name: suite()[0].name.to_owned(),
        n: Some(8),
        run: RunSpec { trace: true, ..RunSpec::default() },
        system: SystemSpec::default(),
    };
    match submit(&url, &job) {
        Ok(JobResult::Run { trace_json: Some(trace), .. }) => {
            dyser_trace::validate_json(&trace).expect("trace artifact must be valid JSON");
            assert!(trace.contains("traceEvents"));
        }
        other => panic!("expected a traced run, got {other:?}"),
    }
}

#[test]
fn ir_jobs_compile_and_run_through_the_service() {
    let _g = lock();
    let url = spawn_server(1);
    // Execute a direct in-process job first to pin the expected shape.
    let bad_ir = JobRequest::Ir {
        text: "this is not ir".into(),
        function: None,
        args: vec![],
        init: vec![],
        expected: vec![],
        run: RunSpec::default(),
        system: SystemSpec::default(),
    };
    match execute_job(&bad_ir, 1_000_000) {
        Err(JobError::Compile(_)) => {}
        other => panic!("expected a compile error, got {other:?}"),
    }
    match submit(&url, &bad_ir) {
        Err(JobError::Compile(_)) => {}
        other => panic!("expected a compile error over the wire, got {other:?}"),
    }
    // `%o0..%o5` hold six arguments: a seventh is a malformed request,
    // not a worker panic, in-process and over the wire.
    let ir_job = |args: Vec<u64>| JobRequest::Ir {
        text: "func @one(%x: i64) {\nentry:\n  ret %x\n}\n".into(),
        function: None,
        args,
        init: vec![],
        expected: vec![],
        run: RunSpec::default(),
        system: SystemSpec::default(),
    };
    let seven = ir_job(vec![1; 7]);
    for outcome in [execute_job(&seven, 1_000_000), submit(&url, &seven)] {
        match outcome {
            Err(JobError::InvalidRequest(m)) => assert!(m.contains("at most six"), "{m}"),
            other => panic!("expected invalid-request for seven arguments, got {other:?}"),
        }
    }
    match submit(&url, &ir_job(vec![1])) {
        Ok(JobResult::Run { .. }) => {}
        other => panic!("the same function with one argument must run, got {other:?}"),
    }
}

#[test]
fn program_jobs_match_in_process_whole_program_runs() {
    let _g = lock();
    let url = spawn_server(2);
    let geometry = dyser_fabric::FabricGeometry::new(8, 8);
    let n = 24;
    for (name, backend) in
        [("p1", Backend::Interpreted), ("p2", Backend::Compiled), ("p3", Backend::Interpreted)]
    {
        // In-process reference under the same configuration.
        let build = dyser_workloads::programs::by_name(name).expect("known program");
        let case = build(geometry, n, SEED).expect("8x8 fits every program");
        let mut rc = RunConfig::default();
        rc.system.geometry = geometry;
        rc.backend = backend;
        let base = dyser_core::run_whole_program("baseline", &case.baseline, &case, &rc, 0)
            .unwrap_or_else(|e| panic!("in-process {name} baseline: {e}"));
        let dyser = dyser_core::run_whole_program("dyser", &case.accelerated, &case, &rc, 0)
            .unwrap_or_else(|e| panic!("in-process {name} dyser: {e}"));

        let job = JobRequest::Program {
            name: name.into(),
            n: Some(n),
            run: RunSpec { backend: Some(backend), ..RunSpec::default() },
        };
        match submit(&url, &job) {
            Ok(JobResult::Program {
                name: served_name,
                baseline_cycles,
                dyser_cycles,
                stdout,
                exit_code,
                ..
            }) => {
                assert_eq!(served_name, name);
                assert_eq!(baseline_cycles, base.stats.cycles, "{name}: baseline cycles");
                assert_eq!(dyser_cycles, dyser.stats.cycles, "{name}: dyser cycles");
                assert_eq!(stdout.as_bytes(), &dyser.stdout[..], "{name}: served stdout");
                assert_eq!(exit_code, dyser.exit_code, "{name}: served exit code");
            }
            other => panic!("{name} program job failed: {other:?}"),
        }
    }
    // Unknown programs and invalid sizes come back as typed errors.
    let unknown =
        JobRequest::Program { name: "p9".into(), n: Some(16), run: RunSpec::default() };
    match submit(&url, &unknown) {
        Err(JobError::UnknownKernel(_)) => {}
        other => panic!("expected unknown-kernel, got {other:?}"),
    }
    let odd = JobRequest::Program { name: "p1".into(), n: Some(7), run: RunSpec::default() };
    match submit(&url, &odd) {
        Err(JobError::InvalidRequest(_)) => {}
        other => panic!("expected invalid-request, got {other:?}"),
    }
}

#[test]
fn dse_point_jobs_match_in_process_sweep_metrics() {
    let _g = lock();
    let url = spawn_server(2);
    // An unrolled suite kernel, one whose energy needs more than four
    // decimals, and a program region only `repro dse --kernels` reaches:
    // the job honours `unroll` and looks kernels up where the sweep does.
    let point = |kernel: &str, rows, cols, mix, fifo_depth, mem, unroll| DsePoint {
        kernel: kernel.into(),
        rows,
        cols,
        mix,
        fifo_depth,
        mem,
        unroll,
    };
    for (point, n) in [
        (point("saxpy", 4, 4, FuMix::Universal, 2, MemPreset::Perfect, 2), 48),
        (point("saxpy", 2, 4, FuMix::Default, 4, MemPreset::Tiny, 1), 48),
        (point("p1_match", 4, 4, FuMix::Universal, 2, MemPreset::Perfect, 1), 32),
    ] {
        // In-process reference: the exact metrics `run_dse` would record.
        let kernel =
            dse_kernels().into_iter().find(|k| k.name == point.kernel).expect("a DSE kernel");
        let rc = point.run_config(&kernel, Some(Backend::Compiled)).expect("valid point");
        let expected = point_sim(
            &run_kernel(&kernel.case(n, SEED), &rc).expect("in-process run"),
            rc.system.geometry.fu_count(),
        );
        let job = JobRequest::DsePoint {
            kernel: point.kernel.clone(),
            n,
            rows: point.rows,
            cols: point.cols,
            universal: point.mix == FuMix::Universal,
            fifo_depth: point.fifo_depth,
            mem: point.mem.label().into(),
            unroll: point.unroll,
            run: RunSpec { backend: Some(Backend::Compiled), ..RunSpec::default() },
        };
        match submit(&url, &job) {
            Ok(JobResult::DsePoint {
                kernel, baseline_cycles, cycles, energy_nj, config_cycles
            }) => {
                assert_eq!(kernel, point.kernel);
                assert_eq!(baseline_cycles, expected.baseline_cycles, "{point}");
                assert_eq!(cycles, expected.cycles, "{point}");
                assert_eq!(config_cycles, expected.config_cycles, "{point}");
                assert_eq!(
                    energy_nj.to_bits(),
                    expected.energy_nj.to_bits(),
                    "{point}: served energy {energy_nj} vs in-process {}",
                    expected.energy_nj
                );
            }
            other => panic!("{point}: dse-point job failed: {other:?}"),
        }
    }

    // Degenerate geometry comes back as a typed invalid-config error.
    let degenerate = JobRequest::DsePoint {
        kernel: "saxpy".into(),
        n: 16,
        rows: 0,
        cols: 4,
        universal: false,
        fifo_depth: 2,
        mem: "default".into(),
        unroll: 1,
        run: RunSpec::default(),
    };
    match submit(&url, &degenerate) {
        Err(JobError::InvalidConfig(_)) => {}
        other => panic!("expected invalid-config, got {other:?}"),
    }

    // Unknown kernels and memory presets are typed errors too.
    let unknown = JobRequest::DsePoint {
        kernel: "warp-drive".into(),
        n: 16,
        rows: 4,
        cols: 4,
        universal: false,
        fifo_depth: 2,
        mem: "default".into(),
        unroll: 1,
        run: RunSpec::default(),
    };
    match submit(&url, &unknown) {
        Err(JobError::UnknownKernel(_)) => {}
        other => panic!("expected unknown-kernel, got {other:?}"),
    }
    let bad_mem = JobRequest::DsePoint {
        kernel: "saxpy".into(),
        n: 16,
        rows: 4,
        cols: 4,
        universal: false,
        fifo_depth: 2,
        mem: "bogus".into(),
        unroll: 1,
        run: RunSpec::default(),
    };
    match submit(&url, &bad_mem) {
        Err(JobError::InvalidRequest(_)) => {}
        other => panic!("expected invalid-request, got {other:?}"),
    }
}

/// A 16x16 fabric has 33 ports on each side but the ISA names only 32.
/// A point whose unrolled slice needs all 33 must fall back to a smaller
/// unroll and answer, not fail inside code generation.
#[test]
fn dse_point_on_the_widest_fabric_stays_within_isa_ports() {
    let _g = lock();
    let url = spawn_server(2);
    let job = JobRequest::DsePoint {
        kernel: "dot".into(),
        n: 64,
        rows: 16,
        cols: 16,
        universal: true,
        fifo_depth: 4,
        mem: "default".into(),
        unroll: 16,
        run: RunSpec::default(),
    };
    match submit(&url, &job) {
        Ok(JobResult::DsePoint { kernel, cycles, .. }) => {
            assert_eq!(kernel, "dot");
            assert!(cycles > 0);
        }
        other => panic!("16x16 dse-point job failed: {other:?}"),
    }
}

/// Unroll factors outside `1..=256` are refused as typed errors before
/// anything compiles: compile time grows with the square of the factor.
#[test]
fn dse_point_unrolls_out_of_bounds_are_rejected_before_compiling() {
    let _g = lock();
    let url = spawn_server(1);
    let misses = dyser_core::compile_cache_misses();
    for unroll in [0, 1_000_000] {
        let job = JobRequest::DsePoint {
            kernel: "saxpy".into(),
            n: 16,
            rows: 2,
            cols: 2,
            universal: false,
            fifo_depth: 2,
            mem: "default".into(),
            unroll,
            run: RunSpec::default(),
        };
        match submit(&url, &job) {
            Err(JobError::InvalidRequest(m)) => assert!(m.contains("unroll factor"), "{m}"),
            other => panic!("unroll {unroll}: expected invalid-request, got {other:?}"),
        }
    }
    assert_eq!(dyser_core::compile_cache_misses(), misses, "a rejected point compiled");
}

/// A single-shard daemon flooded with `DsePoint` jobs (one worker, many
/// queued connections) must answer every job with metrics bit-identical
/// to an in-process `run_kernel` of the same point.
#[test]
fn queued_dse_point_jobs_stay_bit_identical() {
    let _g = lock();

    let kernel = suite().into_iter().find(|k| k.name == "saxpy").expect("saxpy in suite");
    let points: Vec<DsePoint> = [1usize, 2, 4, 8]
        .iter()
        .map(|&fifo| DsePoint {
            kernel: "saxpy".into(),
            rows: 4,
            cols: 4,
            mix: FuMix::Default,
            fifo_depth: fifo,
            mem: MemPreset::Default,
            unroll: 1,
        })
        .collect();
    let expected: Vec<_> = points
        .iter()
        .map(|p| {
            let rc = p.run_config(&kernel, Some(Backend::Compiled)).expect("valid point");
            point_sim(
                &run_kernel(&kernel.case(48, SEED), &rc).expect("in-process run"),
                rc.system.geometry.fu_count(),
            )
        })
        .collect();

    // One shard: while it works the first job, the rest pile up in the
    // admission queue and wait their turn.
    let url = spawn_server(1);
    let jobs: Vec<JobRequest> = points
        .iter()
        .map(|p| JobRequest::DsePoint {
            kernel: "saxpy".into(),
            n: 48,
            rows: p.rows,
            cols: p.cols,
            universal: false,
            fifo_depth: p.fifo_depth,
            mem: "default".into(),
            unroll: p.unroll,
            run: RunSpec { backend: Some(Backend::Compiled), ..RunSpec::default() },
        })
        .collect();
    let outcomes = submit_concurrently(&url, &jobs, jobs.len());
    for (outcome, want) in outcomes.into_iter().zip(&expected) {
        match outcome {
            Ok(JobResult::DsePoint { baseline_cycles, cycles, config_cycles, .. }) => {
                assert_eq!(baseline_cycles, want.baseline_cycles);
                assert_eq!(cycles, want.cycles);
                assert_eq!(config_cycles, want.config_cycles);
            }
            other => panic!("queued dse-point job failed: {other:?}"),
        }
    }
}

// ------------------------------------------------------------ dse jobs

/// A `dse` job carrying `args`.
fn dse_job(args: &[&str]) -> JobRequest {
    JobRequest::Dse { args: args.iter().map(|a| (*a).to_owned()).collect() }
}

/// A served sweep is one job that returns what `repro dse` prints and
/// writes: the same text, human or CSV, and the same report as an
/// in-process render of the same arguments, for suite kernels and for a
/// program region.
#[test]
fn dse_jobs_return_the_local_text_and_report() {
    let _g = lock();
    let url = spawn_server(2);
    let smoke = [
        "--kernels", "saxpy", "--dims", "2,4", "--fifos", "1,4", "--mems", "default,perfect",
        "--unrolls", "1,2", "--n", "48",
    ];
    let csv = [&smoke[..], &["--csv"]].concat();
    let program = ["--kernels", "p1_match", "--dims", "2,4", "--unrolls", "1", "--n", "32"];
    for args in [&smoke[..], &csv, &program] {
        let (plan, csv) = parse_dse_args(args).expect("a valid plan");
        let (text, report) = render_dse(&plan, csv, u64::MAX).expect("in-process sweep");
        match submit(&url, &dse_job(args)) {
            Ok(JobResult::Experiment { text: served, report: Some(served_report) }) => {
                assert_eq!(served, text, "{args:?}: text");
                assert_eq!(served_report, report, "{args:?}: report");
            }
            other => panic!("{args:?}: expected a sweep, got {other:?}"),
        }
    }
    assert_eq!(jobs_done(&url), 3, "one job per served sweep");
}

/// The daemon's cycle cap applies to every leg of a served sweep. A cap
/// below the calibration anchor's run fails the sweep naming the
/// anchor; a cap the anchor fits but a survivor on tiny caches does not
/// names the survivor. Either way the shard answers `/health` afterwards.
#[test]
fn capped_dse_jobs_name_the_failed_point() {
    let _g = lock();
    let anchor = anchor_point("saxpy");
    let kernel = dse_kernels().into_iter().find(|k| k.name == "saxpy").expect("saxpy");
    let rc = anchor.run_config(&kernel, None).expect("valid anchor");
    let run = run_kernel(&kernel.case(48, SEED), &rc).expect("the anchor runs");
    let anchor_cycles = run.baseline.cycles.max(run.dyser.cycles);
    let args = [
        "--kernels", "saxpy", "--dims", "2", "--mixes", "default", "--fifos", "4", "--mems",
        "tiny", "--unrolls", "1", "--n", "48",
    ];
    for (cap, failed) in [
        (anchor_cycles - 1, format!("calibration anchor failed: {anchor}: ")),
        (anchor_cycles, "survivor simulation failed: saxpy 2x2/default fifo4 mem:tiny u1: ".into()),
    ] {
        let config = ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 1,
            max_cycles_cap: cap,
            ..ServeConfig::default()
        };
        let url = Server::bind(config).expect("bind test server").spawn();
        match submit(&url, &dse_job(&args)) {
            Err(JobError::Run(m)) => assert!(m.starts_with(&failed), "cap {cap}: {m}"),
            other => panic!("cap {cap}: expected a failed run, got {other:?}"),
        }
        assert_eq!(jobs_done(&url), 1, "cap {cap}");
    }
}

/// A plan the sweep refuses answers `invalid-request` with the message
/// `repro dse` prints for it, in-process and over the wire, before
/// anything compiles: a bad flag, a repeated value, and a plan of
/// 7,077,888 points.
#[test]
fn unsweepable_dse_jobs_are_invalid_requests() {
    let _g = lock();
    let url = spawn_server(1);
    let misses = dyser_core::compile_cache_misses();
    let joined = |values: Vec<String>| values.join(",");
    let kernels = joined(dse_kernels().iter().map(|k| k.name.to_owned()).collect());
    let dims = joined((1..=16).map(|d: usize| d.to_string()).collect());
    let unrolls = joined((1..=256).map(|u: usize| u.to_string()).collect());
    let oversized =
        ["--kernels", &kernels, "--dims", &dims, "--fifos", "4", "--unrolls", &unrolls];
    for args in [&oversized[..], &["--bogus"], &["--dims", "2,2"], &["--serve", "x"]] {
        let refusal = parse_dse_args(args).expect_err("refused").to_string();
        for outcome in [execute_job(&dse_job(args), 1_000_000), submit(&url, &dse_job(args))] {
            match outcome {
                Err(JobError::InvalidRequest(m)) => assert_eq!(m, refusal, "{args:?}"),
                other => panic!("{args:?}: expected invalid-request, got {other:?}"),
            }
        }
    }
    assert!(
        parse_dse_args(&oversized).expect_err("refused").to_string().contains("7077888 points"),
        "the oversized plan is refused for its size"
    );
    assert_eq!(dyser_core::compile_cache_misses(), misses, "a refused plan compiled");
}

// ------------------------------------------------------- problem sizes

/// A kernel job of size `n` on the default system.
fn kernel_job(name: &str, n: usize) -> JobRequest {
    JobRequest::Kernel {
        name: name.into(),
        n: Some(n),
        run: RunSpec::default(),
        system: SystemSpec::default(),
    }
}

/// Expects `job` to be refused as `invalid-request` naming `what`.
fn assert_size_refused(job: &JobRequest, what: &str) {
    match execute_job(job, 1_000_000) {
        Err(JobError::InvalidRequest(m)) => assert!(m.contains(what), "{job:?}: {m}"),
        other => panic!("{job:?}: expected invalid-request, got {other:?}"),
    }
}

/// `stencil3` needs one interior element: its case builder used to
/// panic at `n = 1`, outside the shard's panic guard.
#[test]
fn stencil3_below_its_minimum_is_refused() {
    assert_size_refused(&kernel_job("stencil3", 1), "stencil3");
}

/// `scan_poly` and `find_first` used to panic building an empty case.
#[test]
fn empty_scan_and_search_cases_are_refused() {
    assert_size_refused(&kernel_job("scan_poly", 0), "scan_poly");
    assert_size_refused(&kernel_job("find_first", 0), "find_first");
}

/// A size whose inputs cannot be allocated used to abort the daemon.
#[test]
fn unallocatable_saxpy_is_refused() {
    assert_size_refused(&kernel_job("saxpy", 100_000_000_000_000), "saxpy");
}

/// `saxpy` past the 1 MiB buffer spacing used to overlap its input
/// buffers and report a false `mismatch`.
#[test]
fn saxpy_past_its_buffers_is_refused() {
    assert_size_refused(&kernel_job("saxpy", 140_000), "saxpy");
    let fits = dyser_workloads::BUF_WORDS;
    let dse_point = JobRequest::DsePoint {
        kernel: "saxpy".into(),
        n: fits + 1,
        rows: 2,
        cols: 2,
        universal: false,
        fifo_depth: 2,
        mem: "default".into(),
        unroll: 1,
        run: RunSpec::default(),
    };
    assert_size_refused(&dse_point, "saxpy");
}

/// `p1` past one `read` of stdin used to report a false stdout
/// `mismatch`; a size it cannot allocate used to abort the daemon.
#[test]
fn programs_past_one_read_are_refused() {
    for n in [16_384, 100_000_000_000] {
        let job = JobRequest::Program { name: "p1".into(), n: Some(n), run: RunSpec::default() };
        assert_size_refused(&job, "8192");
    }
}

/// Two jobs that used to panic their shards leave a 2-shard daemon
/// serving jobs and `/health`.
#[test]
fn refused_sizes_leave_every_shard_serving() {
    let _g = lock();
    let url = spawn_server(2);
    for _ in 0..2 {
        match submit(&url, &kernel_job("stencil3", 1)) {
            Err(JobError::InvalidRequest(m)) => assert!(m.contains("stencil3"), "{m}"),
            other => panic!("expected invalid-request, got {other:?}"),
        }
    }
    match submit(&url, &kernel_job("stencil3", 16)) {
        Ok(JobResult::Run { .. }) => {}
        other => panic!("a later job got no run: {other:?}"),
    }
    let health = dyser_bench::serve::health(&url).expect("health answers");
    assert!(health.contains("\"ok\": true"), "health reply: {health}");
}
