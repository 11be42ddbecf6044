//! Self-timing mode: wall-clock and simulated-cycle throughput per
//! experiment, recorded to `BENCH_repro.json` so harness speed is
//! tracked across changes (`repro --time`).

use std::fmt::Write as _;
use std::time::Instant;

use dyser_core::{cycle_bucket_totals, simulated_cycles};
use dyser_sparc::CycleBucket;

use crate::experiments::run_experiment;

/// Pre-change reference medians in milliseconds — `repro e2` (the micro
/// suite) and `repro all` measured on the same machine with the same
/// warmup-plus-median scheme before the allocation-free engine, compile
/// cache, and parallel harness landed. Kept in the report so every
/// `BENCH_repro.json` carries its point of comparison.
pub const PRE_CHANGE_E2_MS: f64 = 70.0;
/// Pre-change `repro all` median (see [`PRE_CHANGE_E2_MS`]).
pub const PRE_CHANGE_ALL_MS: f64 = 1940.0;

/// The medians a timing report compares itself against.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Reference `repro e2` median in milliseconds.
    pub e2_ms: f64,
    /// Reference `repro all` median in milliseconds.
    pub all_ms: f64,
    /// Where the medians came from: `"reference"` for the built-in
    /// pre-change constants, `"previous-run"` when read back from an
    /// earlier `BENCH_repro.json` on this machine.
    pub machine: String,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            e2_ms: PRE_CHANGE_E2_MS,
            all_ms: PRE_CHANGE_ALL_MS,
            machine: "reference".into(),
        }
    }
}

/// Extracts the number following `"key":` in a hand-written JSON
/// document. Good enough for the fixed shape `timing_json` emits; not a
/// general JSON parser.
fn json_number_after(text: &str, key: &str) -> Option<f64> {
    let at = text.find(&format!("\"{key}\":"))?;
    let rest = text[at..].split_once(':')?.1;
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Loads reference medians from a previous `BENCH_repro.json` at `path`,
/// so successive `repro --time` runs on one machine compare against their
/// own history rather than the built-in pre-change constants.
///
/// Falls back to [`Reference::default`] (labelled `"reference"`) when the
/// file is absent or either median cannot be extracted. The `repro all`
/// median is only trusted when the previous run timed the full sweep
/// (its report carries `total_wall_ms_median` over every experiment,
/// marked by the `all_improvement` key).
#[must_use]
pub fn load_reference(path: &str) -> Reference {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Reference::default();
    };
    let e2 = text
        .find("\"id\": \"e2\"")
        .and_then(|at| json_number_after(&text[at..], "wall_ms_median"));
    let all = if text.contains("\"all_improvement\"") {
        json_number_after(&text, "total_wall_ms_median")
    } else {
        None
    };
    match (e2, all) {
        (Some(e2_ms), Some(all_ms)) if e2_ms > 0.0 && all_ms > 0.0 => {
            Reference { e2_ms, all_ms, machine: "previous-run".into() }
        }
        _ => Reference::default(),
    }
}

/// One experiment's timing measurement.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Experiment id (`e1`..`e10`, `ablation`).
    pub id: String,
    /// Median wall-clock over the measured repetitions.
    pub wall_ms_median: f64,
    /// Fastest repetition.
    pub wall_ms_min: f64,
    /// Simulated cycles per repetition (identical across repetitions —
    /// the experiments are deterministic).
    pub sim_cycles: u64,
    /// Simulation throughput at the median wall time.
    pub mcycles_per_sec: f64,
    /// The experiment ran no simulation (e.g. `e1` renders tables from
    /// static configurations), so cycle counts and throughput are
    /// structurally zero rather than a measurement.
    pub config_only: bool,
}

/// Times each experiment: one untimed warmup run (fills the compile
/// cache and pages the binary in), then `reps` measured repetitions;
/// the median is the headline number.
///
/// The cross-table result memo is emptied before the warmup and before
/// every repetition: a timed run must measure real simulation, not a
/// replay of a previous repetition's cached results. (Hits *within* one
/// experiment still count — that reuse is genuine harness speed.)
///
/// # Panics
///
/// Panics on unknown ids or experiment failures, like
/// [`run_experiment`].
pub fn time_experiments(ids: &[&str], reps: usize) -> Vec<Timing> {
    let reps = reps.max(1);
    ids.iter()
        .map(|&id| {
            crate::experiments::clear_result_memo();
            run_experiment(id);
            let mut walls = Vec::with_capacity(reps);
            let mut cycles = 0;
            for _ in 0..reps {
                crate::experiments::clear_result_memo();
                let c0 = simulated_cycles();
                let t0 = Instant::now();
                run_experiment(id);
                walls.push(t0.elapsed().as_secs_f64() * 1e3);
                cycles = simulated_cycles() - c0;
            }
            walls.sort_by(f64::total_cmp);
            let median = median_sorted(&walls);
            let throughput =
                if median > 0.0 { cycles as f64 / 1e6 / (median / 1e3) } else { 0.0 };
            Timing {
                id: id.to_owned(),
                wall_ms_median: median,
                wall_ms_min: walls[0],
                sim_cycles: cycles,
                mcycles_per_sec: throughput,
                config_only: cycles == 0,
            }
        })
        .collect()
}

/// Median of an ascending-sorted sample; even counts have no middle
/// sample, so the two central ones are averaged like any textbook
/// median.
fn median_sorted(walls: &[f64]) -> f64 {
    let mid = walls.len() / 2;
    if walls.len().is_multiple_of(2) { (walls[mid - 1] + walls[mid]) / 2.0 } else { walls[mid] }
}

/// Renders the measurements as the `BENCH_repro.json` document.
///
/// The `reference` block restates `reference`'s medians and, when the
/// matching ids were timed, the improvement factors — the numbers the
/// acceptance gate and future PRs compare against. The `cycle_buckets`
/// block snapshots the process-wide cycle attribution accumulated across
/// every simulated run so far (see [`cycle_bucket_totals`]).
/// `fuzz_cases_per_sec` (from `repro fuzz --time`) tracks differential
/// fuzz throughput alongside kernel throughput.
#[must_use]
pub fn timing_json(
    timings: &[Timing],
    reps: usize,
    reference: &Reference,
    fuzz_cases_per_sec: Option<f64>,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"repro timing mode\",");
    let _ = writeln!(s, "  \"reps\": {reps},");
    s.push_str("  \"experiments\": [\n");
    for (i, t) in timings.iter().enumerate() {
        if t.config_only {
            // No simulation ran; a zero throughput would read as a
            // measurement, so say what the experiment actually is.
            let _ = write!(
                s,
                "    {{\"id\": \"{}\", \"wall_ms_median\": {:.3}, \"wall_ms_min\": {:.3}, \
                 \"config_only\": true}}",
                t.id, t.wall_ms_median, t.wall_ms_min
            );
        } else {
            let _ = write!(
                s,
                "    {{\"id\": \"{}\", \"wall_ms_median\": {:.3}, \"wall_ms_min\": {:.3}, \
                 \"sim_cycles\": {}, \"mcycles_per_sec\": {:.3}}}",
                t.id, t.wall_ms_median, t.wall_ms_min, t.sim_cycles, t.mcycles_per_sec
            );
        }
        s.push_str(if i + 1 < timings.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let total: f64 = timings.iter().map(|t| t.wall_ms_median).sum();
    let _ = writeln!(s, "  \"total_wall_ms_median\": {total:.3},");
    if let Some(cps) = fuzz_cases_per_sec {
        let _ = writeln!(s, "  \"fuzz_cases_per_sec\": {cps:.1},");
    }
    let acct = cycle_bucket_totals();
    s.push_str("  \"cycle_buckets\": {\n");
    for bucket in CycleBucket::ALL {
        let _ = writeln!(s, "    \"{}\": {},", bucket.label(), acct.get(bucket));
    }
    let _ = writeln!(s, "    \"total\": {}", acct.total_cycles);
    s.push_str("  },\n");
    s.push_str("  \"reference\": {\n");
    s.push_str(
        "    \"note\": \"reference medians, same repetition scheme; \
         improvement = reference / measured\",\n",
    );
    let _ = writeln!(s, "    \"machine\": \"{}\",", reference.machine);
    let _ = writeln!(s, "    \"e2_pre_change_ms\": {:.1},", reference.e2_ms);
    let _ = write!(s, "    \"all_pre_change_ms\": {:.1}", reference.all_ms);
    if let Some(e2) = timings.iter().find(|t| t.id == "e2") {
        let _ = write!(s, ",\n    \"e2_improvement\": {:.2}", reference.e2_ms / e2.wall_ms_median);
    }
    if crate::EXPERIMENT_IDS.iter().all(|id| timings.iter().any(|t| t.id == *id)) {
        let _ = write!(s, ",\n    \"all_improvement\": {:.2}", reference.all_ms / total);
    }
    s.push_str("\n  }\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_measures_and_renders_json() {
        let timings = time_experiments(&["e1"], 1);
        assert_eq!(timings.len(), 1);
        assert_eq!(timings[0].id, "e1");
        assert!(timings[0].wall_ms_median >= timings[0].wall_ms_min);
        assert!(timings[0].config_only, "e1 renders static tables; it simulates nothing");
        let json = timing_json(&timings, 1, &Reference::default(), None);
        assert!(!json.contains("fuzz_cases_per_sec"), "no fuzz timing was supplied");
        assert!(json.contains("\"id\": \"e1\""));
        assert!(json.contains("\"config_only\": true"));
        assert!(
            !json.contains("\"mcycles_per_sec\": 0.000"),
            "config-only experiments must not report a zero throughput: {json}"
        );
        assert!(json.contains("\"e2_pre_change_ms\""));
        assert!(json.contains("\"machine\": \"reference\""));
        assert!(json.contains("\"cycle_buckets\""));
        assert!(json.contains("\"core-compute\""));
        assert!(!json.contains("e2_improvement"), "e2 was not timed");
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
        dyser_trace::validate_json(&json).expect("report is well-formed JSON");
    }

    #[test]
    fn even_rep_median_averages_middle_samples() {
        // Indirect check via a quick two-rep timing: the median must lie
        // between (inclusive) the min and the max sample.
        let timings = time_experiments(&["e1"], 2);
        let t = &timings[0];
        assert!(t.wall_ms_median >= t.wall_ms_min);
    }

    #[test]
    fn reference_round_trips_through_the_report() {
        let all_ids: Vec<&str> = crate::EXPERIMENT_IDS.to_vec();
        let timings: Vec<Timing> = all_ids
            .iter()
            .enumerate()
            .map(|(i, id)| Timing {
                id: (*id).to_owned(),
                wall_ms_median: 10.0 + i as f64,
                wall_ms_min: 9.0,
                sim_cycles: 1000,
                mcycles_per_sec: 1.0,
                config_only: false,
            })
            .collect();
        let json = timing_json(&timings, 3, &Reference::default(), Some(123.45));
        assert!(json.contains("\"fuzz_cases_per_sec\": 123.5"), "{json}");
        let dir = std::env::temp_dir().join("dyser-timing-roundtrip");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_repro.json");
        std::fs::write(&path, &json).expect("write report");
        let reloaded = load_reference(path.to_str().expect("utf8 path"));
        assert_eq!(reloaded.machine, "previous-run");
        assert!((reloaded.e2_ms - 11.0).abs() < 1e-6, "{reloaded:?}");
        let total: f64 = timings.iter().map(|t| t.wall_ms_median).sum();
        assert!((reloaded.all_ms - total).abs() < 1e-3, "{reloaded:?}");
        assert_eq!(load_reference("/nonexistent/BENCH_repro.json"), Reference::default());
    }
}
