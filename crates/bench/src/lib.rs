//! # dyser-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! reconstructed ISPASS 2015 evaluation (experiments E1–E10; the index
//! lives in `DESIGN.md`, the measured results in `EXPERIMENTS.md`).
//!
//! Entry points:
//!
//! * `cargo run -p dyser-bench --release --bin repro -- <e1..e10|all>`
//!   prints each experiment's rows (`--csv` for machine-readable output,
//!   `--time` to record wall-clock and throughput to `BENCH_repro.json`),
//! * `cargo bench -p dyser-bench` runs the same experiments (at reduced
//!   sizes) under a dependency-free timing loop.


#![warn(missing_docs)]
pub mod dse;
pub mod experiments;
pub mod fuzzcli;
pub mod serve;
pub mod table;
pub mod timing;

pub use dse::{dse_path, run_dse, DseOutcome, DsePlan};
pub use experiments::{
    clear_result_memo, result_memo_stats, run_experiment, stats_attribution, Scale, EXPERIMENT_IDS,
};
pub use fuzzcli::{run_fuzz_cli, time_fuzz};
pub use table::{ExpTable, TableError};
pub use timing::{load_reference, time_experiments, timing_json, Reference, Timing};
