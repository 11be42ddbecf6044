//! The `repro fuzz` subcommand: drives a [`dyser_fuzz`] campaign from
//! the command line and reports findings (shrunken, with ready-to-paste
//! repros).

use std::io::{self, Write};

use dyser_fuzz::corpus::{recipe_json, rust_repro};
use dyser_fuzz::sysprog::{run_sys_campaign, sys_recipe_json};
use dyser_fuzz::{run_campaign, CampaignConfig, CampaignReport};

/// Directory (under the working directory) where shrunken failure
/// entries are written, ready to be moved into `crates/fuzz/corpus/`.
pub const FAILURE_DIR: &str = "fuzz-failures";

/// Runs a campaign and writes the human report to `out`. Returns the
/// process exit code: zero only for a clean campaign. The report holds
/// simulated quantities only, so one case count and seed always write
/// the same bytes.
///
/// # Errors
///
/// Propagates a failed write to `out` (a closed stdout, for one).
pub fn run_fuzz_cli(out: &mut impl Write, cases: u64, seed: u64, shrink: bool) -> io::Result<i32> {
    let report = run_campaign(&CampaignConfig { cases, seed, shrink, ..CampaignConfig::default() });
    write_report(out, &report, seed)?;

    // The syscall leg: trap-sequence programs checked for identical
    // stdout/stderr bytes, exit codes, and cycle buckets on every
    // engine. Scaled down — each case already runs three engine legs.
    let sys_cases = (cases / 4).max(25);
    let sys_report = run_sys_campaign(sys_cases, seed);
    writeln!(
        out,
        "fuzz-sys: {} trap programs, seed {seed:#x}: {} ok, {} failures ({:.1} Mcycles)",
        sys_report.cases,
        sys_report.cases - sys_report.failures.len() as u64,
        sys_report.failures.len(),
        sys_report.sim_cycles as f64 / 1e6,
    )?;
    for f in &sys_report.failures {
        writeln!(out)?;
        writeln!(out, "FAIL sys case {} ({}): {}", f.index, f.failure.kind, f.failure)?;
        let name = format!("sys-case-{}-{}.json", f.index, f.failure.kind);
        let json = sys_recipe_json(&f.shrunk, Some(f.failure.kind));
        if std::fs::create_dir_all(FAILURE_DIR)
            .and_then(|()| std::fs::write(format!("{FAILURE_DIR}/{name}"), &json))
            .is_ok()
        {
            writeln!(out, "  shrunk corpus entry written to {FAILURE_DIR}/{name}")?;
        } else {
            writeln!(out, "  shrunk recipe JSON:\n{json}")?;
        }
    }

    if report.clean() && sys_report.clean() {
        return Ok(0);
    }
    if report.clean() {
        return Ok(1);
    }
    for f in &report.failures {
        writeln!(out)?;
        writeln!(out, "FAIL case {} ({}): {}", f.index, f.failure.kind(), f.failure)?;
        writeln!(out, "  recipe: {} IR nodes, form {:?}", f.recipe.ir_nodes(), f.recipe.form)?;
        if let Some(small) = &f.shrunk {
            writeln!(out, "  shrunk: {} IR nodes", small.ir_nodes())?;
            let name = format!("case-{}-{}.json", f.index, f.failure.kind());
            let json = recipe_json(small, Some(f.failure.kind()));
            if std::fs::create_dir_all(FAILURE_DIR)
                .and_then(|()| std::fs::write(format!("{FAILURE_DIR}/{name}"), &json))
                .is_ok()
            {
                writeln!(out, "  corpus entry written to {FAILURE_DIR}/{name}")?;
            }
            let test = rust_repro(small, &format!("case_{}", f.index));
            writeln!(out, "  ready-to-paste test:\n{test}")?;
        } else {
            writeln!(out, "  (not shrunk; rerun with --shrink)")?;
            writeln!(out, "  recipe JSON:\n{}", recipe_json(&f.recipe, Some(f.failure.kind())))?;
        }
    }
    Ok(1)
}

fn write_report(out: &mut impl Write, report: &CampaignReport, seed: u64) -> io::Result<()> {
    let ok = report.cases - report.failures.len() as u64;
    writeln!(
        out,
        "fuzz: {} cases, seed {seed:#x}: {ok} ok ({} accelerated, {} invalid-config rejected), \
         {} failures",
        report.cases,
        report.accelerated,
        report.invalid_config,
        report.failures.len()
    )?;
    writeln!(out, "      {:.1} Mcycles simulated", report.sim_cycles as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_case_count_and_seed_write_the_same_bytes() {
        let report = || {
            let mut out = Vec::new();
            assert_eq!(run_fuzz_cli(&mut out, 8, 0xD75E, false).expect("write to a Vec"), 0);
            String::from_utf8(out).expect("UTF-8 report")
        };
        let first = report();
        assert!(first.starts_with("fuzz: 8 cases, seed 0xd75e"), "{first}");
        assert_eq!(first, report());
    }
}
