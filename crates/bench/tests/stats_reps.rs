//! Regression tests: `repro stats` must report each invocation's own
//! sweep. Its decode/block-cache notes sum the counters its own runs
//! return, so a repeated sweep in the same process (`repro e2 stats`, a
//! long-lived serve daemon), another experiment, or simulation running
//! on another thread at the same time must not change a single byte.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;

use dyser_bench::experiments::run_experiment_scaled;
use dyser_bench::{stats_attribution, Scale};
use dyser_core::{run_kernel, RunConfig};
use dyser_workloads::suite;

#[test]
fn stats_attribution_is_identical_across_reps() {
    let scale = Scale(0.05);
    let first = stats_attribution(scale).to_string();
    let second = stats_attribution(scale).to_string();
    assert_eq!(
        first, second,
        "a repeated stats sweep must not inflate the speed-stat notes"
    );

    // Unrelated simulation between sweeps (an experiment run of its own)
    // must not leak into the next report either.
    run_experiment_scaled("e2", scale);
    let third = stats_attribution(scale).to_string();
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
    let solo = stats_attribution(scale).to_string();

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
            reports.push(stats_attribution(scale).to_string());
            overlapped = background_runs.load(Ordering::SeqCst) >= before + 2;
        }
        (reports, overlapped)
    });
    assert!(overlapped, "the background thread never simulated during a sweep");
    for report in reports {
        assert_eq!(solo, report, "simulation on another thread leaked into the stats notes");
    }
}
