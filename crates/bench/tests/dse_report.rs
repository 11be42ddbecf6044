//! Regression tests for the `BENCH_dse.json` report path: a filtered or
//! otherwise modified sweep writes `BENCH_dse.partial.json`, so it can
//! never clobber the committed full-sweep surface.

use dyser_bench::dse::{dse_path, DsePlan, FuMix, MemPreset};
use dyser_core::Backend;

#[test]
fn only_the_full_default_plan_rebaselines_bench_dse() {
    assert_eq!(dse_path(&DsePlan::default()), "BENCH_dse.json");

    let filtered: Vec<DsePlan> = vec![
        DsePlan { kernels: vec!["saxpy".into()], ..DsePlan::default() },
        DsePlan { dims: vec![2, 4], ..DsePlan::default() },
        DsePlan { mixes: vec![FuMix::Universal], ..DsePlan::default() },
        DsePlan { fifos: vec![4], ..DsePlan::default() },
        DsePlan { mems: vec![MemPreset::Perfect], ..DsePlan::default() },
        DsePlan { unrolls: vec![1], ..DsePlan::default() },
        DsePlan { n: 64, ..DsePlan::default() },
        DsePlan { prune: false, ..DsePlan::default() },
        DsePlan { backend: Some(Backend::Interpreted), ..DsePlan::default() },
        DsePlan { backend: None, ..DsePlan::default() },
    ];
    for plan in &filtered {
        assert_eq!(
            dse_path(plan),
            "BENCH_dse.partial.json",
            "modified plan must not rebaseline: {plan:?}"
        );
    }
}

#[test]
fn the_committed_full_sweep_is_at_least_a_thousand_points() {
    let plan = DsePlan::default();
    assert!(
        plan.points().len() >= 1000,
        "the committed sweep covers {} points",
        plan.points().len()
    );
    plan.validate().expect("the committed sweep is valid");
}

/// `repro dse` refuses unroll factors outside `1..=256` at parse time:
/// exit code 2, one line on stderr, and nothing compiled or written.
#[test]
fn out_of_range_unrolls_exit_2_before_the_sweep() {
    for unroll in ["0", "1000000"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["dse", "--kernels", "saxpy", "--dims", "2", "--unrolls", unroll])
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--unrolls {unroll}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "--unrolls {unroll}: {stderr}");
        assert!(stderr.contains(&format!("unroll factor {unroll} is outside 1..=256")), "{stderr}");
        assert!(out.stdout.is_empty(), "--unrolls {unroll} printed a report");
    }
}

/// `repro dse` refuses what it cannot sweep before anything compiles:
/// exit code 2, one line on stderr naming the problem, and no report.
#[test]
fn unsweepable_plans_exit_2_before_the_sweep() {
    let point = ["--mixes", "default", "--fifos", "4", "--mems", "default", "--unrolls", "1"];
    for (args, message) in [
        // `stencil3` needs an interior element; its case builder panicked.
        (["--kernels", "stencil3", "--dims", "4", "--n", "1"], "kernel `stencil3` needs n in 3..="),
        // A repeated value simulated the same point four times.
        (
            ["--kernels", "saxpy", "--dims", "2,2", "--n", "16"],
            "axis `dims` lists 2 more than once",
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
            .arg("dse")
            .args(args)
            .args(point)
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a report");
    }
}
