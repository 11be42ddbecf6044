//! The repository benchmark: three workloads over the SPARC-DySER
//! reproduction, each measured end to end with tracing off, or split by
//! layer with tracing on.
//!
//! ```text
//! perfbench --workload suite|dse|serve --seed N --seconds S --trace 0|1 [--scale full|smoke]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Everything else goes to standard
//! error. See `README.md` in this directory for what each workload and
//! metric means.

mod dse;
mod host;
mod layers;
mod report;
mod serve;
mod suite;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use report::{fold, result_json, Metric};

/// Set-up is timed as the whole life of a fresh child process that only
/// sets up: process start, inputs, warm-up, exit. Each sample starts as
/// cold as a user's process does. A run samples set-up before and after
/// its measuring window, each time at least `SETUP_SAMPLES.0` and at most
/// `SETUP_SAMPLES.1` samples, stopping at the first of those past
/// `SETUP_BUDGET_S` seconds; the median of all samples is reported.
const SETUP_SAMPLES: (usize, usize) = (3, 8);
const SETUP_BUDGET_S: f64 = 1.0;

/// Input sizes: `Full` for measurement, `Smoke` for the benchmark's own
/// tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Tiny sizes that finish in well under a second.
    Smoke,
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// `suite`, `dse` or `serve`.
    pub workload: String,
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    /// Report per-layer metrics from traced passes.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Internal: the role of a child process (`setup`, or a `dse` pass).
    pub child: Option<String>,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| {
        kv.get(k)
            .copied()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = get("workload")?.to_owned();
    if !["suite", "dse", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (suite|dse|serve)"));
    }
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Opts {
        workload,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be an unsigned integer")?,
        seconds,
        trace: match kv.get("trace").copied().unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
        scale: match kv.get("scale").copied().unwrap_or("full") {
            "full" => Scale::Full,
            "smoke" => Scale::Smoke,
            other => return Err(format!("--scale must be full or smoke, got {other:?}")),
        },
        child: kv.get("child").map(|c| (*c).to_owned()),
    })
}

/// Runs this binary as a child in `role` and parses its `key=value` line.
pub fn child(opts: &Opts, role: &str) -> Result<BTreeMap<String, String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let scale = if opts.scale == Scale::Smoke {
        "smoke"
    } else {
        "full"
    };
    let out = Command::new(exe)
        .args([
            "--workload",
            &opts.workload,
            "--seed",
            &opts.seed.to_string(),
        ])
        .args([
            "--seconds",
            &opts.seconds.to_string(),
            "--scale",
            scale,
            "--child",
            role,
        ])
        .output()
        .map_err(|e| format!("spawn {role} child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{role} child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or_default();
    Ok(line
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect())
}

/// Reads a numeric field of a child's line.
pub fn field(line: &BTreeMap<String, String>, key: &str) -> Result<f64, String> {
    line.get(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("child line lacks a numeric `{key}`"))
}

/// Prints a `key=value` line for the parent, metrics as `name=value`.
pub fn print_child_line(fields: &[(&str, String)], metrics: &[Metric]) {
    let mut parts: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    parts.extend(metrics.iter().map(|m| format!("{}={:?}", m.name, m.value)));
    println!("{}", parts.join(" "));
}

/// Rebuilds a metric set printed by [`print_child_line`], using `like`
/// for names and units.
pub fn metrics_from_line(
    line: &BTreeMap<String, String>,
    like: &[Metric],
) -> Result<Vec<Metric>, String> {
    like.iter()
        .map(|m| {
            Ok(Metric {
                value: field(line, &m.name)?,
                ..m.clone()
            })
        })
        .collect()
}

/// Times set-up in fresh child processes.
pub fn setup_samples(opts: &Opts) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < SETUP_SAMPLES.0
        || (samples.len() < SETUP_SAMPLES.1 && start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let spawned = Instant::now();
        child(opts, "setup")?;
        samples.push(spawned.elapsed().as_secs_f64());
    }
    Ok(samples)
}

/// Client threads that generate load: the host's parallelism, at most 2.
pub fn clients() -> usize {
    dyser_core::default_workers().clamp(1, 2)
}

/// Calls `pass(i)` for i = 0, 1, … until `seconds` have passed and at
/// least `min` passes ran; returns the window's wall seconds.
pub fn window(
    seconds: f64,
    min: usize,
    mut pass: impl FnMut(usize) -> Result<(), String>,
) -> Result<f64, String> {
    let start = Instant::now();
    let mut i = 0;
    while i < min || start.elapsed().as_secs_f64() < seconds {
        pass(i)?;
        i += 1;
    }
    Ok(start.elapsed().as_secs_f64())
}

/// What a workload run reports. A request that fails or is refused
/// fails the whole run, so a reported run has no failures.
pub struct Outcome {
    /// Requests attempted (cases, sweeps or jobs).
    pub attempted: u64,
    /// The metric set of the requested mode.
    pub metrics: Vec<Metric>,
}

/// Adds the untraced comparison to folded traced-pass metrics.
pub fn traced_outcome(
    attempted: u64,
    traced: &[Vec<Metric>],
    untraced_ms: &[f64],
) -> Result<Outcome, String> {
    let mut metrics = fold(traced)?;
    let untraced = untraced_ms.iter().sum::<f64>() / untraced_ms.len().max(1) as f64;
    let total = metrics
        .iter()
        .find(|m| m.name == "trace.total_ms")
        .map_or(0.0, |m| m.value);
    metrics.insert(
        1,
        Metric {
            name: "trace.untraced_ms".into(),
            value: untraced,
            unit: "ms",
        },
    );
    metrics.insert(
        2,
        Metric {
            name: "trace.overhead_ratio".into(),
            value: total / untraced - 1.0,
            unit: "ratio",
        },
    );
    Ok(Outcome { attempted, metrics })
}

fn run(opts: &Opts) -> Result<Option<Outcome>, String> {
    match (opts.workload.as_str(), opts.child.as_deref()) {
        ("suite", None) => suite::run(opts).map(Some),
        ("suite", Some("setup")) => suite::setup(opts).map(|_| None),
        ("dse", None) => dse::run(opts).map(Some),
        ("dse", Some(role)) => dse::child_main(opts, role).map(|()| None),
        ("serve", None) => serve::run(opts).map(Some),
        ("serve", Some("setup")) => serve::setup(opts).map(|_| None),
        (w, role) => Err(format!("workload {w:?} has no role {role:?}")),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(outcome)) => {
            for m in &outcome.metrics {
                eprintln!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
            }
            if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
                eprintln!("perfbench: {} is not a finite number", bad.name);
                println!("{}", result_json(false, outcome.attempted, 0, &[]));
                return ExitCode::FAILURE;
            }
            println!(
                "{}",
                result_json(true, outcome.attempted, 0, &outcome.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            if opts.child.is_none() {
                println!("{}", result_json(false, 1, 1, &[]));
            }
            ExitCode::FAILURE
        }
    }
}
