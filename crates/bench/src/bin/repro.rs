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
//! cargo run -p dyser-bench --release --bin repro -- dse --serve http://127.0.0.1:7878
//! cargo run -p dyser-bench --release --bin repro -- fuzz --cases 10000 --seed 0xD75E --shrink
//! cargo run -p dyser-bench --release --bin repro -- all --csv --serve http://127.0.0.1:7878
//! ```
//!
//! Host performance is measured by `perfbench/` (see `BENCHMARK.json`),
//! not by `repro`. A closed stdout (`repro all --csv | head -1`) ends the
//! run quietly.

use std::fmt::Display;
use std::io::{self, Write};

use dyser_bench::dse;
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
/// exploration driver. The arguments are checked up front by
/// [`dse::parse_dse_args`] (a `--dims 0` or `--fifos 0` sweep exits 2 with
/// the fabric's own typed configuration error); any filter flag
/// redirects the report to `BENCH_dse.partial.json`. `--serve URL` sends
/// the other arguments to a daemon as one `dse` job, which parses them
/// the same way and returns what a local sweep prints and writes. Never
/// returns.
fn dse_main(mut args: Vec<String>) -> ! {
    let serve_url = take_value(&mut args, "--serve", |v| Ok(v.to_owned()));
    let (plan, csv) = dse::parse_dse_args(&args).unwrap_or_else(|e| {
        eprintln!("repro dse: {e}");
        std::process::exit(2);
    });
    let rendered = match &serve_url {
        Some(url) => serve::submit(url, &JobRequest::Dse { args })
            .and_then(|reply| match reply {
                JobResult::Experiment { text, report: Some(report) } => Ok((text, report)),
                other => Err(JobError::Protocol(format!("unexpected result {other:?}"))),
            })
            .map_err(|e| e.to_string()),
        None => dse::render_dse(&plan, csv, u64::MAX).map_err(|e| e.to_string()),
    };
    let (text, report) = rendered.unwrap_or_else(|e| {
        let via = serve_url.map(|url| format!(" via {url}")).unwrap_or_default();
        eprintln!("repro dse{via}: {e}");
        std::process::exit(1);
    });
    say(text);
    let path = dse::dse_path(&plan);
    write_or_exit(path, &report);
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
                JobResult::Experiment { text, report: None } => Ok(text),
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
