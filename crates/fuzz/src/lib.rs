//! # dyser-fuzz
//!
//! The differential fuzzing subsystem: an adversarial, grammar-based
//! kernel generator with a multi-engine oracle and automatic shrinking.
//!
//! The workload suite and the hand-written tests establish that the
//! simulator is right on the kernels we thought of. This crate is the
//! standing adversary for everything else: it draws random [`gen::Recipe`]s
//! — nested/sequential/reduction loops, early-exit and guarded-store
//! control flow, aliasing stores, mixed int/fp DAGs, randomized compiler
//! options, fabric geometries, cache configurations, and run modes — and
//! demands that every engine in the stack agrees:
//!
//! * the IR **interpreter** (ground truth),
//! * the compiled **baseline** binary on the cycle-level core,
//! * the compiled **DySER** binary on core + fabric,
//! * the **fast-forwarding** and **per-cycle** simulation paths
//!   (bit-identical `RunStats`),
//! * the **cycle-attribution identity** on every run, and
//! * **typed errors** — never panics — for timeouts and invalid
//!   configurations.
//!
//! Failures shrink automatically ([`shrink::shrink`]) and render as both
//! a JSON corpus entry and a ready-to-paste Rust test
//! ([`corpus::rust_repro`]). The checked-in corpus under
//! `crates/fuzz/corpus/` replays on every `cargo test`.
//!
//! Drive a campaign from the command line:
//!
//! ```text
//! cargo run --release -p dyser-bench --bin repro -- fuzz --cases 10000 --seed 0xD75E
//! ```

#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod shrink;
pub mod sysprog;

use dyser_rng::Rng64;

pub use gen::{GenStats, Recipe};
pub use oracle::{CaseOutcome, FuzzFailure, Sabotage};
pub use sysprog::{run_sys_campaign, SysCampaignReport, SysRecipe};

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of cases to draw.
    pub cases: u64,
    /// Campaign seed; each case derives an independent sub-seed, so a
    /// `(seed, index)` pair pinpoints a case without replaying the
    /// campaign.
    pub seed: u64,
    /// Shrink failures before reporting.
    pub shrink: bool,
    /// Worker threads.
    pub threads: usize,
    /// Arm the synthetic-miscompile hook (test-only; proves the oracle
    /// and shrinker end to end).
    pub sabotage: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            cases: 1000,
            seed: 0xD75E,
            shrink: true,
            threads: dyser_core::default_workers(),
            sabotage: false,
        }
    }
}

/// One campaign failure, with its shrunken form when shrinking ran.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Case index within the campaign.
    pub index: u64,
    /// What the oracle rejected.
    pub failure: FuzzFailure,
    /// The original recipe.
    pub recipe: Recipe,
    /// The minimized recipe (same failure kind), if shrinking ran.
    pub shrunk: Option<Recipe>,
}

/// Aggregate campaign results.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Cases drawn.
    pub cases: u64,
    /// Generator self-statistics over every drawn recipe.
    pub gen_stats: GenStats,
    /// Passing cases where at least one region ran on the fabric.
    pub accelerated: u64,
    /// Deliberately invalid configurations, each rejected with a typed
    /// error.
    pub invalid_config: u64,
    /// Total simulated cycles across all runs of all passing cases.
    pub sim_cycles: u64,
    /// Oracle violations.
    pub failures: Vec<CaseFailure>,
}

impl CampaignReport {
    /// Zero oracle mismatches and zero panics.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The recipe a `(campaign seed, case index)` pair denotes. Each case
/// gets its own SplitMix64 stream, so cases are independent and any one
/// of them replays in isolation.
#[must_use]
pub fn case_recipe(seed: u64, index: u64) -> Recipe {
    let mut rng = Rng64::seed_from_u64(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    gen::generate(&mut rng)
}

/// [`oracle::check_case_with`] hardened against panics: any panic in the
/// compiler or simulator becomes a [`FuzzFailure::Panic`] finding instead
/// of tearing down the campaign.
pub fn checked(r: &Recipe, sabotage: Option<&Sabotage>) -> Result<CaseOutcome, FuzzFailure> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        oracle::check_case_with(r, sabotage)
    })) {
        Ok(result) => result,
        Err(payload) => {
            let detail = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(FuzzFailure::Panic(detail))
        }
    }
}

/// Shrink cap per campaign: failures usually repeat one root cause, and
/// each shrink re-runs the oracle hundreds of times.
const MAX_SHRINKS: usize = 10;

/// Runs a fuzz campaign: draws `cases` recipes, checks each against the
/// full oracle on a worker pool (reusing the harness's [`parallel_map`]
/// and the process-wide compile cache), and shrinks up to [`MAX_SHRINKS`]
/// failures.
///
/// [`parallel_map`]: dyser_core::parallel_map
#[must_use]
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    // Panics are findings here, not crashes; silence the default hook's
    // stderr spew while the campaign (and shrinking) runs.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));

    let indices: Vec<u64> = (0..cfg.cases).collect();
    let sabotage = if cfg.sabotage { Some(Sabotage) } else { None };
    let results: Vec<(Recipe, Result<CaseOutcome, FuzzFailure>)> =
        dyser_core::parallel_map(&indices, cfg.threads, |&i| {
            let recipe = case_recipe(cfg.seed, i);
            let outcome = checked(&recipe, sabotage.as_ref());
            (recipe, outcome)
        });

    let mut report = CampaignReport { cases: cfg.cases, ..CampaignReport::default() };
    for (index, (recipe, outcome)) in results.into_iter().enumerate() {
        report.gen_stats.record(&recipe);
        match outcome {
            Ok(o) => {
                report.accelerated += u64::from(o.accelerated);
                report.invalid_config += u64::from(o.invalid_config);
                report.sim_cycles += o.cycles;
            }
            Err(failure) => {
                let shrunk = (cfg.shrink && report.failures.len() < MAX_SHRINKS).then(|| {
                    let kind = failure.kind();
                    shrink::shrink(&recipe, |cand| {
                        checked(cand, sabotage.as_ref())
                            .err()
                            .is_some_and(|f| f.kind() == kind)
                    })
                });
                report.failures.push(CaseFailure {
                    index: index as u64,
                    failure,
                    recipe,
                    shrunk,
                });
            }
        }
    }

    std::panic::set_hook(prev_hook);
    report
}
