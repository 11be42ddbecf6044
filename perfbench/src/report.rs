//! Metric assembly and the result line.
//!
//! Every workload produces the same two metric sets: the end-to-end set
//! from its untraced passes and the per-layer set from its traced ones.
//! Metrics a workload does not exercise read zero.

use std::collections::BTreeMap;
use std::time::Duration;

use dyser_sparc::CycleBucket;

use crate::layers::Counts;
use crate::trace::Layer;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Metrics whose value is a property of the modelled design, not of the
/// host: they must read the same in every pass of a run.
pub fn is_exact(name: &str) -> bool {
    name == "sim_cycles"
        || name == "speedup_geomean"
        || [
            "cycles.",
            "sparc.instructions",
            "sparc.ipc",
            "mem.",
            "fabric.",
            "dse.points",
            "dse.prune",
        ]
        .iter()
        .any(|p| name.starts_with(p))
}

/// The median (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-th percentile.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What the untraced passes of one run measured.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Set-up samples, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each pass, seconds (their mean is reported: pass
    /// times are multimodal, as the two clients pair cases differently).
    pub pass_wall_s: Vec<f64>,
    /// CPU seconds (user + system) over all passes.
    pub cpu_s: f64,
    /// Wall seconds of the whole measuring window.
    pub window_s: f64,
    /// Per-request latencies, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Design points evaluated per pass.
    pub points_per_pass: f64,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// Simulated cycles of one pass (every pass must match).
    pub sim_cycles: u64,
    /// Geometric-mean speedup of one pass (every pass must match).
    pub speedup_geomean: f64,
}

impl Timed {
    /// The end-to-end metric set.
    pub fn metrics(&self) -> Vec<Metric> {
        let passes = self.pass_wall_s.len().max(1) as f64;
        let wall = self.pass_wall_s.iter().sum::<f64>() / passes;
        let cpu = self.cpu_s / passes;
        vec![
            metric("wall_s", wall, "s"),
            metric("cpu_s", cpu, "s"),
            metric("setup_s", median(&self.setup_s), "s"),
            metric(
                "sim_mcycles_per_cpu_s",
                self.sim_cycles as f64 / 1e6 / cpu,
                "Mcycles/s",
            ),
            metric("points_per_s", self.points_per_pass / wall, "1/s"),
            metric(
                "jobs_per_s",
                self.latencies_ms.len() as f64 / self.window_s,
                "1/s",
            ),
            metric("latency_p50_ms", percentile(&self.latencies_ms, 50.0), "ms"),
            metric("latency_p99_ms", percentile(&self.latencies_ms, 99.0), "ms"),
            metric("peak_rss_mb", self.peak_rss_mb, "MiB"),
            metric("sim_cycles", self.sim_cycles as f64, "cycles"),
            metric("speedup_geomean", self.speedup_geomean, "x"),
        ]
    }
}

/// Sweep figures of a traced `dse` pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct DseFigures {
    /// Points enumerated.
    pub points: u64,
    /// Points pruned by the estimator.
    pub pruned: u64,
}

/// Per job kind of a traced `serve` pass: jobs, summed client latency,
/// summed in-process `execute_job` time.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindTimes {
    /// Jobs of this kind.
    pub jobs: u64,
    /// Summed client latency.
    pub latency: Duration,
    /// Summed in-process execution time.
    pub exec: Duration,
}

/// Service figures of a traced `serve` pass, by kind (`ir`, `program`,
/// `dse_point`), plus the reply bytes received.
#[derive(Debug, Clone, Default)]
pub struct ServeFigures {
    /// Times per job kind.
    pub kinds: BTreeMap<&'static str, KindTimes>,
    /// Reply body bytes.
    pub reply_bytes: u64,
}

/// Job kinds of the `serve` mix, in report order.
pub const JOB_KINDS: [&str; 3] = ["ir", "program", "dse_point"];

/// Everything one traced pass recorded.
#[derive(Debug, Clone, Default)]
pub struct PassTrace {
    /// Spans by layer; the root span is `pass`.
    pub layers: BTreeMap<&'static str, Layer>,
    /// Counters accumulated from returned values.
    pub counts: Counts,
    /// System CPU seconds the pass consumed.
    pub sys_s: f64,
    /// Sweep figures (`dse` only).
    pub dse: DseFigures,
    /// Service figures (`serve` only).
    pub serve: ServeFigures,
}

impl PassTrace {
    fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// The per-layer metric set of this pass, except the untraced
    /// comparison, which needs the untraced passes.
    pub fn metrics(&self) -> Vec<Metric> {
        let c = &self.counts;
        let m = &c.model;
        let root = self.layer("pass");
        let run = self.layer("core.run");
        let mut out = vec![
            metric("trace.total_ms", ms(root.total), "ms"),
            metric("trace.unattributed_ms", ms(root.self_time), "ms"),
            metric("compiler.calls", c.compiles as f64, "count"),
            metric("compiler.ms", ms(self.layer("compiler").self_time), "ms"),
            metric(
                "compiler.mapped_ratio",
                ratio(c.regions.1, c.regions.0),
                "ratio",
            ),
            metric(
                "core.system_new_calls",
                self.layer("core.system_new").calls as f64,
                "count",
            ),
            metric(
                "core.system_new_ms",
                ms(self.layer("core.system_new").self_time),
                "ms",
            ),
            metric("core.load_ms", ms(self.layer("core.load").self_time), "ms"),
            metric("core.run_ms", ms(run.self_time), "ms"),
            metric(
                "core.ns_per_sim_cycle",
                if run.calls == 0 {
                    0.0
                } else {
                    run.self_time.as_nanos() as f64 / m.sim_cycles as f64
                },
                "ns",
            ),
            metric(
                "core.verify_ms",
                ms(self.layer("core.verify").self_time),
                "ms",
            ),
            metric("workloads.ms", ms(self.layer("workloads").self_time), "ms"),
            metric("host.sys_s", self.sys_s, "s"),
            metric("sparc.instructions", m.instructions as f64, "count"),
            metric("sparc.ipc", ratio(m.instructions, m.sim_cycles), "ratio"),
            metric(
                "sparc.decode_hit_ratio",
                ratio(c.decode.0, c.decode.0 + c.decode.1),
                "ratio",
            ),
            metric(
                "compiled.block_hit_ratio",
                ratio(c.blocks.0, c.blocks.0 + c.blocks.1),
                "ratio",
            ),
            metric("compiled.block_invalidations", c.blocks.2 as f64, "count"),
            metric("mem.l1d_miss_ratio", ratio(m.l1d.1, m.l1d.0), "ratio"),
            metric("mem.l2_miss_ratio", ratio(m.l2.1, m.l2.0), "ratio"),
            metric("mem.dram_accesses", m.dram_accesses as f64, "count"),
            metric("fabric.fu_fires", m.fu_fires as f64, "count"),
            metric(
                "fabric.occupancy",
                ratio(m.fabric_cycles.1, m.fabric_cycles.0),
                "ratio",
            ),
            metric("fabric.configs_loaded", m.configs_loaded as f64, "count"),
        ];
        for (bucket, cycles) in CycleBucket::ALL.iter().zip(m.buckets) {
            out.push(metric(
                format!("cycles.{}", bucket.label()),
                cycles as f64,
                "cycles",
            ));
        }
        out.push(metric("dse.points_total", self.dse.points as f64, "count"));
        out.push(metric(
            "dse.prune_ratio",
            ratio(self.dse.pruned, self.dse.points),
            "ratio",
        ));
        out.push(metric(
            "dse.estimate_ms",
            ms(self.layer("dse").self_time),
            "ms",
        ));
        let kinds = &self.serve.kinds;
        // Transport is what the request spans took beyond execution. The
        // two are measured in separate phases, so under contention the
        // difference can read below zero.
        let exec = ms(kinds.values().map(|k| k.exec).sum());
        let requests = ms(self.layer("serve.request").self_time);
        out.push(metric("serve.exec_ms", exec, "ms"));
        out.push(metric("serve.transport_ms", requests - exec, "ms"));
        let jobs: u64 = kinds.values().map(|k| k.jobs).sum();
        out.push(metric(
            "serve.reply_kb",
            if jobs == 0 {
                0.0
            } else {
                self.serve.reply_bytes as f64 / 1024.0 / jobs as f64
            },
            "KiB",
        ));
        for kind in JOB_KINDS {
            let k = kinds.get(kind).copied().unwrap_or_default();
            let per_job = |total_ms: f64| total_ms / k.jobs.max(1) as f64;
            let exec = ms(k.exec);
            out.push(metric(format!("serve.{kind}.exec_ms"), per_job(exec), "ms"));
            out.push(metric(
                format!("serve.{kind}.transport_ms"),
                per_job(ms(k.latency) - exec),
                "ms",
            ));
        }
        out
    }
}

/// Folds per-pass metric sets into one: times and counts are averaged
/// over passes (so self times still add up to the total), and metrics
/// that must repeat exactly are checked to do so.
///
/// # Errors
///
/// Names the first exact metric that differed between passes.
pub fn fold(passes: &[Vec<Metric>]) -> Result<Vec<Metric>, String> {
    let first = passes.first().ok_or("no pass to report")?;
    let mut out = first.clone();
    for m in out.iter_mut().filter(|m| !is_exact(&m.name)) {
        m.value = 0.0;
    }
    for pass in passes {
        for (acc, (m, f)) in out.iter_mut().zip(pass.iter().zip(first)) {
            if m.name != f.name {
                return Err(format!("pass metric order differs at {}", m.name));
            }
            if !is_exact(&m.name) {
                acc.value += m.value;
            } else if m.value.to_bits() != f.value.to_bits() {
                return Err(format!("{} differs between passes at one seed", m.name));
            }
        }
    }
    for m in out.iter_mut().filter(|m| !is_exact(&m.name)) {
        m.value /= passes.len() as f64;
    }
    Ok(out)
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn fold_rejects_a_drifting_exact_metric() {
        let pass = |c: f64| vec![metric("sim_cycles", c, "cycles"), metric("wall_s", c, "s")];
        assert!(fold(&[pass(1.0), pass(1.0)]).is_ok());
        assert!(fold(&[pass(1.0), pass(2.0)]).is_err());
    }
}
