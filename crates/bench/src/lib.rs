//! # dyser-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! reconstructed ISPASS 2015 evaluation (experiments E1–E10; the index
//! lives in `DESIGN.md`, the measured results in `EXPERIMENTS.md`).
//!
//! The entry point, `cargo run -p dyser-bench --release --bin repro --
//! <e1..e10|all>`, prints each experiment's rows (`--csv` for
//! machine-readable output).
//!
//! Host performance is measured by the repository benchmark in
//! `perfbench/` (declared in `BENCHMARK.json`), not by this crate.


#![warn(missing_docs)]
pub mod dse;
pub mod experiments;
pub mod fuzzcli;
pub mod serve;
pub mod table;

pub use dse::{dse_path, run_dse, DseOutcome, DsePlan};
pub use experiments::{run_experiment, stats_attribution, Scale, Session, EXPERIMENT_IDS};
pub use fuzzcli::run_fuzz_cli;
pub use table::{ExpTable, TableError};
