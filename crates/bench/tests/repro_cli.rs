//! End-to-end checks of the `repro` binary's output paths: a traced
//! whole-program run records both legs, a traced suite run writes the
//! same bytes every time with each run named after its kernel, a closed
//! stdout ends a run quietly, and an unknown flag or a bad flag value is
//! a one-line usage error.

use std::process::{Command, Stdio};

use dyser_trace::{parse_json, JsonValue};

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[test]
fn traced_p1_records_both_legs() {
    let path = std::env::temp_dir().join(format!("repro-p1-trace-{}.json", std::process::id()));
    let out = repro().args(["p1", "--trace"]).arg(&path).output().expect("run repro");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(": 2 runs,"), "{stdout}");
    let text = std::fs::read_to_string(&path).expect("trace written");
    std::fs::remove_file(&path).expect("remove trace");

    let doc = parse_json(&text).expect("trace is JSON");
    let events = doc.get("traceEvents").and_then(JsonValue::as_array).expect("traceEvents");
    let field = |e: &JsonValue, key: &str| e.get(key).and_then(JsonValue::as_str).map(str::to_owned);
    let labels = process_names(&doc);
    assert_eq!(labels, ["p1 baseline", "p1 dyser"]);
    for pid in [1, 2] {
        let recorded = events
            .iter()
            .filter(|e| e.get("pid").and_then(JsonValue::as_u64) == Some(pid))
            .filter(|e| field(e, "ph").as_deref() != Some("M"))
            .count();
        assert!(recorded > 0, "run {pid} ({}) recorded no events", labels[pid as usize - 1]);
    }
}

/// The process names of a Chrome trace, in pid order.
fn process_names(doc: &JsonValue) -> Vec<String> {
    let events = doc.get("traceEvents").and_then(JsonValue::as_array).expect("traceEvents");
    let field =
        |e: &JsonValue, key: &str| e.get(key).and_then(JsonValue::as_str).map(str::to_owned);
    events
        .iter()
        .filter(|e| field(e, "name").as_deref() == Some("process_name"))
        .filter_map(|e| e.get("args").and_then(|a| field(a, "name")))
        .collect()
}

#[test]
fn traced_suite_is_deterministic_and_names_each_kernel() {
    let traces: Vec<String> = (0..2)
        .map(|i| {
            let path = std::env::temp_dir()
                .join(format!("repro-e3-trace-{}-{i}.json", std::process::id()));
            let out = repro().args(["e3", "--trace"]).arg(&path).output().expect("run repro");
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
            let text = std::fs::read_to_string(&path).expect("trace written");
            std::fs::remove_file(&path).expect("remove trace");
            text
        })
        .collect();
    assert!(traces[0] == traces[1], "two traced runs of e3 wrote different bytes");

    let names = process_names(&parse_json(&traces[0]).expect("trace is JSON"));
    assert_eq!(names.len(), 30, "{names:?}");
    for (name, leg) in names.iter().zip(["baseline", "dyser"].iter().cycle()) {
        let kernel = name.strip_suffix(leg).and_then(|k| k.strip_suffix(' '));
        assert!(
            kernel.is_some_and(|k| dyser_workloads::suite().iter().any(|s| s.name == k)),
            "process `{name}` does not name a suite kernel and its {leg} leg"
        );
    }
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = repro()
        .args(["e2", "--csv"])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.is_empty(), "expected a quiet exit, got: {stderr}");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn unknown_flags_are_one_line_usage_errors() {
    let cases: [(&[&str], &str); 5] = [
        (&["e2", "--time"], "`--time`"),
        (&["fuzz", "--time"], "`--time`"),
        (&["e2", "--backend", "bogus"], "\"bogus\""),
        (&["dse", "--mems", "bogus"], "\"bogus\""),
        (&["dse", "--mixes", "bogus"], "\"bogus\""),
    ];
    for (args, culprit) in cases {
        let out = repro().args(args).output().expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains("unknown") && stderr.contains(culprit), "{stderr}");
    }
}
