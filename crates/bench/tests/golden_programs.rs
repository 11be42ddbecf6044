//! Byte-for-byte golden snapshots of the whole-program workloads.
//!
//! `p1`–`p3` run as emulated processes (startup stack, proxy kernel,
//! trap-and-emulate syscalls), and everything they produce is
//! deterministic: stdout bytes, exit codes, and cycle counts. Two
//! snapshots pin that down:
//!
//! * `programs_stdout.txt` — each program's exit code and exact stdout,
//!   captured on the interpreted backend and asserted bit-identical on
//!   the compiled backend (and between the scalar and DySER legs) before
//!   comparing;
//! * `programs_experiments.csv` — the `repro p1|p2|p3 --csv` rows,
//!   asserted byte-identical in a compiled-engine session before
//!   comparing.
//!
//! Regenerate with `BLESS=1 cargo test -p dyser-bench --test
//! golden_programs` after an intentional change, and review the diff
//! like any other code change.

use dyser_bench::experiments::{PROGRAM_N, SEED};
use dyser_bench::{render_experiments, Scale, Session};
use dyser_core::{run_whole_program, Backend, RunConfig};
use dyser_fabric::FabricGeometry;
use dyser_workloads::programs;

const STDOUT_SNAPSHOT: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/snapshots/programs_stdout.txt");
const CSV_SNAPSHOT: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/snapshots/programs_experiments.csv");

const PROGRAMS: [&str; 3] = ["p1", "p2", "p3"];

fn check_snapshot(path: &str, got: &str, what: &str) {
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, got).expect("write snapshot");
        return;
    }
    let want =
        std::fs::read_to_string(path).expect("snapshot missing; regenerate with BLESS=1");
    if got != want {
        let mismatch = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .map(|(i, (g, w))| format!("line {}:\n  got:  {g}\n  want: {w}", i + 1))
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: got {}, want {}",
                    got.lines().count(),
                    want.lines().count()
                )
            });
        panic!(
            "{what} drifted from the golden snapshot (first {mismatch}\n\
             bless with BLESS=1 if the change is intentional)"
        );
    }
}

/// Runs one program on one backend; returns (stdout, exit code), after
/// the harness has already verified both legs against the case's
/// references and each other.
fn run_on(name: &str, backend: Backend) -> (Vec<u8>, u64) {
    let build = programs::by_name(name).expect("known program");
    let geometry = FabricGeometry::new(8, 8);
    let case = build(geometry, PROGRAM_N, SEED).expect("8x8 fits every program");
    let mut config = RunConfig::default();
    config.set_geometry(geometry);
    config.backend = backend;
    let base = run_whole_program("baseline", &case.baseline, &case, &config, 0)
        .unwrap_or_else(|e| panic!("{name} baseline ({backend:?}): {e}"));
    let dyser = run_whole_program("dyser", &case.accelerated, &case, &config, 0)
        .unwrap_or_else(|e| panic!("{name} dyser ({backend:?}): {e}"));
    assert_eq!(base.stdout, dyser.stdout, "{name}: legs disagree on stdout");
    assert_eq!(base.exit_code, dyser.exit_code, "{name}: legs disagree on exit code");
    (dyser.stdout, dyser.exit_code)
}

#[test]
fn program_stdout_is_byte_identical_on_both_backends_and_matches_snapshot() {
    let mut got = String::new();
    for name in PROGRAMS {
        let (out_i, exit_i) = run_on(name, Backend::Interpreted);
        let (out_c, exit_c) = run_on(name, Backend::Compiled);
        assert_eq!(out_i, out_c, "{name}: backends disagree on stdout bytes");
        assert_eq!(exit_i, exit_c, "{name}: backends disagree on exit code");
        let text = String::from_utf8(out_i).expect("program stdout is ASCII");
        got.push_str(&format!("== {name} n={PROGRAM_N} exit={exit_i}\n{text}"));
    }
    check_snapshot(STDOUT_SNAPSHOT, &got, "whole-program stdout");
}

#[test]
fn program_experiment_csv_matches_snapshot_on_both_backends() {
    let csv = |engine| {
        let mut out = String::new();
        render_experiments(&mut Session::new(engine), &PROGRAMS, Scale(1.0), true, |t| {
            out += &(t + "\n");
        })
        .expect("every id is an experiment");
        out
    };
    let got: String = csv(Backend::Interpreted);
    let compiled: String = csv(Backend::Compiled);
    assert_eq!(got, compiled, "program experiment CSV differs between backends");

    check_snapshot(CSV_SNAPSHOT, &got, "program experiment CSV");
}
