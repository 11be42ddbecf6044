//! Tiny-scale smoke of every workload, in both modes: the result line
//! carries exactly the metrics `BENCHMARK.json` names, with their units;
//! the modelled metrics repeat at one seed; two seeds both verify; and
//! the traced layers account for the traced total.

use std::collections::BTreeMap;
use std::process::Command;

use dyser_trace::{parse_json, JsonValue};

/// Largest share of a traced pass the layers may leave unattributed.
const UNATTRIBUTED_TOLERANCE: f64 = 0.10;

/// Per-layer self times that partition a traced pass with
/// `trace.unattributed_ms`; `serve.exec_ms + serve.transport_ms` is the
/// time spent in `serve.request` spans.
const SELF_TIMES: [&str; 9] = [
    "compiler.ms",
    "core.system_new_ms",
    "core.load_ms",
    "core.run_ms",
    "core.verify_ms",
    "workloads.ms",
    "dse.estimate_ms",
    "serve.exec_ms",
    "serve.transport_ms",
];

type Metrics = BTreeMap<String, (f64, String)>;

fn run(workload: &str, seed: u64, trace: bool) -> Metrics {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "0.5",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "smoke"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let v = parse_json(last).expect("the result line is JSON");
    assert_eq!(
        v.get("correct").and_then(JsonValue::as_bool),
        Some(true),
        "{last}"
    );
    assert!(
        v.get("attempted")
            .and_then(JsonValue::as_u64)
            .is_some_and(|n| n >= 1),
        "{last}"
    );
    assert_eq!(
        v.get("failed").and_then(JsonValue::as_u64),
        Some(0),
        "{last}"
    );
    let Some(JsonValue::Object(members)) = v.get("metrics") else {
        panic!("no metrics: {last}")
    };
    members
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .expect("numeric value");
            let unit = m
                .get("unit")
                .and_then(JsonValue::as_str)
                .expect("a unit")
                .to_owned();
            (name.clone(), (value, unit))
        })
        .collect()
}

/// `(name, unit)` of every metric of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let v = parse_json(&text).expect("BENCHMARK.json is JSON");
    v.get(section)
        .and_then(JsonValue::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("string field")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_declared(metrics: &Metrics, section: &str, workload: &str) {
    let want = declared(section);
    for (name, unit) in &want {
        let (_, got) = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} missing"));
        assert_eq!(got, unit, "{workload}: unit of {name}");
    }
    assert_eq!(
        metrics.len(),
        want.len(),
        "{workload}: extra metrics in {metrics:?}"
    );
}

fn exact<'a>(metrics: &'a Metrics, names: &[&str]) -> Vec<(&'a str, f64)> {
    metrics
        .iter()
        .filter(|(n, _)| names.iter().any(|p| n.starts_with(p)))
        .map(|(n, (v, _))| (n.as_str(), *v))
        .collect()
}

fn end_to_end(workload: &str) {
    let first = run(workload, 1, false);
    assert_declared(&first, "end_to_end", workload);
    for (name, (value, _)) in &first {
        assert!(*value > 0.0, "{workload}: {name} reads {value}");
    }
    let again = run(workload, 1, false);
    let modelled = ["sim_cycles", "speedup_geomean"];
    assert_eq!(
        exact(&first, &modelled),
        exact(&again, &modelled),
        "{workload} at one seed"
    );
    run(workload, 2, false);
}

fn per_layer(workload: &str) {
    let first = run(workload, 1, true);
    assert_declared(&first, "per_layer", workload);
    let again = run(workload, 1, true);
    let modelled = ["cycles.", "sparc.instructions", "mem.", "fabric."];
    assert_eq!(
        exact(&first, &modelled),
        exact(&again, &modelled),
        "{workload} at one seed"
    );

    let total = first["trace.total_ms"].0;
    let unattributed = first["trace.unattributed_ms"].0;
    let layers: f64 = SELF_TIMES.iter().map(|n| first[*n].0).sum();
    assert!(
        ((layers + unattributed) - total).abs() <= 1e-6 * total,
        "{workload}: layers {layers} + unattributed {unattributed} != total {total}"
    );
    assert!(
        unattributed <= UNATTRIBUTED_TOLERANCE * total,
        "{workload}: {unattributed} ms of {total} ms unattributed"
    );
}

#[test]
fn suite_end_to_end() {
    end_to_end("suite");
}

#[test]
fn suite_per_layer() {
    per_layer("suite");
}

#[test]
fn dse_end_to_end() {
    end_to_end("dse");
}

#[test]
fn dse_per_layer() {
    per_layer("dse");
}

#[test]
fn serve_end_to_end() {
    end_to_end("serve");
}

#[test]
fn serve_per_layer() {
    per_layer("serve");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1"][..],
        &["--seed", "x"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("run");
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
