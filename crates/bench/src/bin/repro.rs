//! Reproduces the evaluation's tables and figures.
//!
//! ```text
//! cargo run -p dyser-bench --release --bin repro -- all          # e1..e10, p1..p3, ablation
//! cargo run -p dyser-bench --release --bin repro -- e2 e6
//! cargo run -p dyser-bench --release --bin repro -- e2 --csv     # machine-readable
//! cargo run -p dyser-bench --release --bin repro -- p1 --csv     # whole program (argv+stdin+syscalls)
//! cargo run -p dyser-bench --release --bin repro -- all --backend compiled
//! cargo run -p dyser-bench --release --bin repro -- stats        # cycle attribution
//! cargo run -p dyser-bench --release --bin repro -- e2 --trace t.json
//! cargo run -p dyser-bench --release --bin repro -- dse                # full sweep, BENCH_dse.json
//! cargo run -p dyser-bench --release --bin repro -- dse --kernels saxpy --dims 2,4 --n 64
//! cargo run -p dyser-bench --release --bin repro -- dse --no-prune --csv
//! cargo run -p dyser-bench --release --bin repro -- fuzz --cases 10000 --seed 0xD75E --shrink
//! cargo run -p dyser-bench --release --bin repro -- all --csv --serve http://127.0.0.1:7878
//! ```
//!
//! Host performance is measured by `perfbench/` (see `BENCHMARK.json`),
//! not by `repro`. A closed stdout (`repro all --csv | head -1`) ends the
//! run quietly.

use std::fmt::Display;
use std::io::{self, Write};

use dyser_bench::experiments::TRACE_EVENTS;
use dyser_bench::serve::{self, JobError, JobRequest, JobResult};
use dyser_bench::{
    check_experiment_ids, render_experiments, run_fuzz_cli, Scale, Session, EXPERIMENT_IDS,
};

/// Default campaign size for `repro fuzz` when `--cases` is absent.
const FUZZ_CASES: u64 = 1000;

/// Default campaign seed for `repro fuzz` — the same fixed seed the CI
/// smoke job and the acceptance campaign use.
const FUZZ_SEED: u64 = 0xD75E;

/// Parses a `--flag value` pair out of `args`, removing both tokens.
/// Exits with a one-line usage error, the parser's own message, when the
/// value is missing or the parser rejects it.
fn take_value<T>(
    args: &mut Vec<String>,
    flag: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let parsed = args.get(i + 1).map_or_else(|| Err("a value is required".into()), |v| parse(v));
    match parsed {
        Ok(v) => {
            args.drain(i..=i + 1);
            Some(v)
        }
        Err(e) => {
            eprintln!("{flag}: {e}");
            std::process::exit(2);
        }
    }
}

/// Accepts `123` or `0x7b` seeds/counts.
fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("{s:?}: {e}"))
}

/// Writes `contents` to `path`, exiting with a typed [`JobError::Io`]
/// message and a nonzero status on failure — file-system trouble is a
/// reportable outcome of user input, not a panic.
fn write_or_exit(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("repro: {}", JobError::Io(format!("write {path}: {e}")));
        std::process::exit(1);
    }
}

/// Ends the process after a failed stdout write. A closed stdout means
/// the reader has all it wanted, so that exits quietly with status 0;
/// any other failure is reported as a typed [`JobError::Io`].
fn stdout_failed(e: &io::Error) -> ! {
    if e.kind() == io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("repro: {}", JobError::Io(format!("write stdout: {e}")));
    std::process::exit(1);
}

/// Writes `text` and a newline to stdout (see [`stdout_failed`]).
fn say(text: impl Display) {
    if let Err(e) = writeln!(io::stdout(), "{text}") {
        stdout_failed(&e);
    }
}

/// `repro dse [--kernels a,b] [--dims 2,4] [--mixes default,universal]
/// [--fifos 1,4] [--mems default,tiny] [--unrolls 1,8] [--n N]
/// [--no-prune] [--csv] [--backend B] [--serve URL]`: the design-space
/// exploration driver. Survivors run one harness task per point. Axis
/// values are validated up front (a `--dims 0` or `--fifos 0` sweep
/// exits with the fabric's own typed configuration error); any filter
/// flag redirects the report to
/// `BENCH_dse.partial.json`. Never returns.
fn dse_main(mut args: Vec<String>) -> ! {
    use dyser_bench::dse::{self, DsePlan, FuMix, MemPreset, PointSim};
    let mut plan = DsePlan::default();
    let parse_usizes = |v: &str| -> Result<Vec<usize>, String> {
        v.split(',').map(|s| s.trim().parse().map_err(|e| format!("{s:?}: {e}"))).collect()
    };
    if let Some(k) = take_value(&mut args, "--kernels", |v| {
        Ok(v.split(',').map(|s| s.trim().to_owned()).collect::<Vec<_>>())
    }) {
        plan.kernels = k;
    }
    if let Some(d) = take_value(&mut args, "--dims", parse_usizes) {
        plan.dims = d;
    }
    if let Some(f) = take_value(&mut args, "--fifos", parse_usizes) {
        plan.fifos = f;
    }
    if let Some(u) = take_value(&mut args, "--unrolls", parse_usizes) {
        plan.unrolls = u;
    }
    if let Some(m) = take_value(&mut args, "--mems", |v| {
        v.split(',').map(|s| MemPreset::parse(s.trim())).collect::<Result<Vec<_>, _>>()
    }) {
        plan.mems = m;
    }
    if let Some(m) = take_value(&mut args, "--mixes", |v| {
        v.split(',').map(|s| FuMix::parse(s.trim())).collect::<Result<Vec<_>, _>>()
    }) {
        plan.mixes = m;
    }
    if let Some(n) = take_value(&mut args, "--n", |v| match v.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{v:?} is not a positive size")),
    }) {
        plan.n = n;
    }
    if let Some(b) = take_value(&mut args, "--backend", dyser_core::Backend::parse) {
        plan.backend = Some(b);
    }
    let serve_url = take_value(&mut args, "--serve", |v| Ok(v.to_owned()));
    let csv = args.iter().any(|a| a == "--csv");
    if args.iter().any(|a| a == "--no-prune") {
        plan.prune = false;
    }
    args.retain(|a| a != "--csv" && a != "--no-prune");
    if let Some(stray) = args.first() {
        eprintln!(
            "unknown dse argument `{stray}`; valid: --kernels --dims --mixes --fifos \
             --mems --unrolls --n N --no-prune --csv --backend B --serve URL"
        );
        std::process::exit(2);
    }
    if let Err(e) = plan.validate() {
        eprintln!("repro dse: {e}");
        std::process::exit(2);
    }
    let outcome = match &serve_url {
        Some(url) => dse::run_dse_with(&plan, |_, p, _| {
            let job = JobRequest::DsePoint {
                kernel: p.kernel.clone(),
                n: plan.n,
                rows: p.rows,
                cols: p.cols,
                universal: p.mix == FuMix::Universal,
                fifo_depth: p.fifo_depth,
                mem: p.mem.label().into(),
                unroll: p.unroll,
                run: serve::RunSpec { backend: plan.backend, ..Default::default() },
            };
            match serve::submit(url, &job) {
                Ok(JobResult::DsePoint {
                    baseline_cycles, cycles, energy_nj, config_cycles, ..
                }) => Ok(PointSim { baseline_cycles, cycles, energy_nj, config_cycles }),
                Ok(other) => Err(format!("{p} via {url}: unexpected result {other:?}")),
                Err(e) => Err(format!("{p} via {url}: {e}")),
            }
        }),
        None => dse::run_dse(&plan),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("repro dse: {e}");
            std::process::exit(1);
        }
    };
    match outcome.table() {
        Ok(table) => {
            if csv {
                say(table.to_csv());
            } else {
                say(table);
            }
        }
        Err(e) => {
            eprintln!("repro dse: {e}");
            std::process::exit(1);
        }
    }
    let path = dse::dse_path(&plan);
    write_or_exit(path, &outcome.to_json());
    say(format_args!("wrote {path}"));
    std::process::exit(0);
}

/// `repro fuzz [--cases N] [--seed S] [--shrink]`: the
/// differential-fuzzing campaign driver. Never returns.
fn fuzz_main(mut args: Vec<String>) -> ! {
    let cases = take_value(&mut args, "--cases", parse_u64).unwrap_or(FUZZ_CASES);
    let seed = take_value(&mut args, "--seed", parse_u64).unwrap_or(FUZZ_SEED);
    let shrink = args.iter().any(|a| a == "--shrink");
    args.retain(|a| a != "--shrink");
    if let Some(stray) = args.first() {
        eprintln!("unknown fuzz argument `{stray}`; valid: --cases N --seed S --shrink");
        std::process::exit(2);
    }
    match run_fuzz_cli(&mut io::stdout(), cases, seed, shrink) {
        Ok(code) => std::process::exit(code),
        Err(e) => stdout_failed(&e),
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("fuzz") {
        fuzz_main(args.split_off(1));
    }
    if args.first().map(String::as_str) == Some("dse") {
        dse_main(args.split_off(1));
    }
    let backend = take_value(&mut args, "--backend", dyser_core::Backend::parse);
    let serve_url = take_value(&mut args, "--serve", |v| Ok(v.to_owned()));
    let trace_path = take_value(&mut args, "--trace", |v| Ok(v.to_owned()));
    let csv = args.iter().any(|a| a == "--csv");
    args.retain(|a| a != "--csv");
    if let Some(flag) = args.iter().find(|a| a.starts_with("--")) {
        eprintln!("unknown argument `{flag}`; valid: --csv --trace PATH --backend B --serve URL");
        std::process::exit(2);
    }
    let ids: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        EXPERIMENT_IDS.map(str::to_owned).into()
    } else {
        args
    };
    if let Err(e) = check_experiment_ids(&ids) {
        eprintln!("{e}; valid: {EXPERIMENT_IDS:?} or `stats`, each at most once");
        std::process::exit(2);
    }
    if serve_url.is_some() && trace_path.is_some() {
        eprintln!("--serve does not support --trace; run it locally");
        std::process::exit(2);
    }
    let engine = backend.unwrap_or_default();
    let mut session = match trace_path {
        Some(_) => Session::traced(engine, TRACE_EVENTS),
        None => Session::new(engine),
    };
    let outcome = match &serve_url {
        Some(url) => serve::submit(url, &JobRequest::Experiment { ids, csv, scale: 1.0, backend })
            .and_then(|reply| match reply {
                JobResult::Experiment { text } => Ok(text),
                other => Err(JobError::Protocol(format!("unexpected result {other:?}"))),
            })
            .map(say),
        None => render_experiments(&mut session, &ids, Scale(1.0), csv, say),
    };
    if let Err(e) = outcome {
        let via = serve_url.map(|url| format!(" via {url}")).unwrap_or_default();
        eprintln!("repro{via}: {e}");
        std::process::exit(1);
    }
    if let Some(path) = trace_path {
        let runs = session.into_traces();
        let events: usize = runs.iter().map(|r| r.events.len()).sum();
        let json = dyser_trace::chrome_trace_json(&runs);
        write_or_exit(&path, &json);
        say(format_args!(
            "wrote {path}: {} runs, {events} events (chrome://tracing format)",
            runs.len()
        ));
    }
}
