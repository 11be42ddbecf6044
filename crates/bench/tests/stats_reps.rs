//! Regression tests: `repro stats` must report each invocation's own
//! sweep. Its decode/block-cache notes sum the counters its own runs
//! return, so a repeated sweep in the same session (`repro e2 stats`, a
//! long-lived serve daemon), another experiment, or simulation running
//! on another thread at the same time must not change a single byte.
//! Nor may one session's engine reach runs outside it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;

use dyser_bench::experiments::run_experiment_scaled;
use dyser_bench::{stats_attribution, Scale, Session};
use dyser_core::{run_kernel, run_kernel_traced, Backend, RunConfig};
use dyser_workloads::suite;

#[test]
fn stats_attribution_is_identical_across_reps() {
    let scale = Scale(0.05);
    let mut session = Session::default();
    let first = stats_attribution(&mut session, scale).to_string();
    let second = stats_attribution(&mut session, scale).to_string();
    assert_eq!(
        first, second,
        "a repeated stats sweep must not inflate the speed-stat notes"
    );

    // Unrelated simulation between sweeps (an experiment run of its own)
    // must not leak into the next report either.
    run_experiment_scaled(&mut session, "e2", scale);
    let third = stats_attribution(&mut session, scale).to_string();
    assert_eq!(first, third, "other runs in the process must not leak into the stats notes");
}

/// Sets the flag when dropped, so a panicking sweep still stops the
/// background thread and the scope can join it.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

#[test]
fn stats_attribution_ignores_concurrent_simulation() {
    let scale = Scale(0.25);
    let solo = stats_attribution(&mut Session::default(), scale).to_string();

    let kernel = suite().into_iter().find(|k| k.name == "saxpy").expect("saxpy in suite");
    let mut config = RunConfig::default();
    config.compiler = kernel.compiler_options(config.system.geometry);
    let case = kernel.case(64, 1);
    let stop = AtomicBool::new(false);
    let background_runs = AtomicU64::new(0);
    let (reports, overlapped) = thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                run_kernel(&case, &config).expect("background kernel verifies");
                background_runs.fetch_add(1, Ordering::SeqCst);
            }
        });
        let _stop = StopOnDrop(&stop);
        // Sweep until two background runs finish inside one sweep: the
        // second started and ended while the sweep was counting.
        let mut reports = Vec::new();
        let mut overlapped = false;
        while !overlapped && reports.len() < 20 {
            let before = background_runs.load(Ordering::SeqCst);
            reports.push(stats_attribution(&mut Session::default(), scale).to_string());
            overlapped = background_runs.load(Ordering::SeqCst) >= before + 2;
        }
        (reports, overlapped)
    });
    assert!(overlapped, "the background thread never simulated during a sweep");
    for report in reports {
        assert_eq!(solo, report, "simulation on another thread leaked into the stats notes");
    }
}

#[test]
fn a_compiled_session_leaves_other_threads_interpreted() {
    let kernel = suite().into_iter().find(|k| k.name == "saxpy").expect("saxpy in suite");
    let mut config = RunConfig::default();
    config.compiler = kernel.compiler_options(config.system.geometry);
    let case = kernel.case(64, 1);
    let stop = AtomicBool::new(false);
    let sweeps = AtomicU64::new(0);
    let report = thread::scope(|s| {
        let compiled = s.spawn(|| {
            let mut report = String::new();
            while !stop.load(Ordering::SeqCst) {
                let mut session = Session::new(Backend::Compiled);
                report = stats_attribution(&mut session, Scale(0.05)).to_string();
                sweeps.fetch_add(1, Ordering::SeqCst);
            }
            report
        });
        let stop_guard = StopOnDrop(&stop);
        // Run interpreted legs until two compiled sweeps have finished:
        // the second started and ended while these legs were running.
        let start = sweeps.load(Ordering::SeqCst);
        let mut runs = 0;
        while sweeps.load(Ordering::SeqCst) < start + 2 && runs < 10_000 {
            let (_, legs) = run_kernel_traced(&case, &config, 0).expect("saxpy verifies");
            for leg in legs {
                let lookups = leg.speed.blocks.hits + leg.speed.blocks.misses;
                assert_eq!(lookups, 0, "an interpreted leg used the block cache");
            }
            runs += 1;
        }
        assert!(sweeps.load(Ordering::SeqCst) >= start + 2, "the compiled sweeps never finished");
        drop(stop_guard);
        compiled.join().expect("compiled sweeps")
    });
    assert!(
        !report.contains("block cache (compiled issue path): 0 hits"),
        "the session's sweep did not run compiled: {report}"
    );
}
