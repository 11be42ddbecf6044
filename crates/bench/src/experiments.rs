//! The experiments: E1–E10, each regenerating one reconstructed
//! table/figure of the evaluation (see `DESIGN.md` for the index).

use std::collections::HashMap;

use dyser_compiler::LoopShape;
use dyser_core::{
    default_workers, parallel_map, run_kernel_traced, run_program_case_traced, run_program_traced,
    Backend, HarnessError, KernelJob, KernelResult, RunArtifacts, RunConfig, RunStats, SpeedStats,
};
use dyser_energy::EnergyModel;
use dyser_fabric::{FabricGeometry, FuKind, StructuralStats};
use dyser_sparc::{CycleBucket, StallCause};
use dyser_trace::TraceRun;
use dyser_workloads::{manual, suite, Category, Kernel};

use crate::table::ExpTable;

/// All experiment ids, in order (`ablation` is this reproduction's own
/// design-choice study, not a paper exhibit; `p1`..`p3` are the
/// whole-program workloads run through the syscall-emulation layer).
pub const EXPERIMENT_IDS: [&str; 14] =
    ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "p1", "p2", "p3", "ablation"];

/// The seed used for all experiment inputs.
pub const SEED: u64 = 0xD75E;

/// Size scale: 1.0 = the full evaluation sizes used by `repro`;
/// smaller values shrink inputs for tests and scaled service jobs.
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub f64);

impl Scale {
    fn n(&self, full: usize) -> usize {
        let scaled = ((full as f64) * self.0) as usize;
        scaled.max(8) / 4 * 4 // keep it a positive multiple of 4
    }
}

/// Per-component ring-buffer capacity of a traced run (`repro --trace`,
/// a daemon job with `"trace": true`). Big enough to keep a whole
/// microbenchmark run; longer runs keep the newest events.
pub const TRACE_EVENTS: usize = 65_536;

/// What one `repro` invocation or one daemon experiment job shares: the
/// engine every run uses, the trace ring capacity and the traces recorded
/// so far, and the results of the runs so far.
///
/// Several tables re-simulate the same (kernel, size, config) job — e3,
/// e5 and e6 each sweep the suite e2 already ran — so a session pays for
/// each distinct simulation once and later tables replay the stored
/// [`KernelResult`]. The experiments are deterministic, so a replay is
/// bit-identical to a re-run. A traced session stores and replays
/// nothing, since a replay records no events; it records each run's
/// trace in job order, labelled `<case> <leg>`.
#[derive(Default)]
pub struct Session {
    /// The configuration every run starts from; it carries the engine.
    base: RunConfig,
    trace_capacity: usize,
    traces: Vec<TraceRun>,
    results: HashMap<String, KernelResult>,
}

impl Session {
    /// An untraced session whose runs use `engine`.
    #[must_use]
    pub fn new(engine: Backend) -> Session {
        let mut session = Session::default();
        session.base.backend = engine;
        session
    }

    /// A session whose runs use `engine` and each record a trace into
    /// per-component rings of `capacity` events.
    #[must_use]
    pub fn traced(engine: Backend, capacity: usize) -> Session {
        Session { trace_capacity: capacity, ..Session::new(engine) }
    }

    /// The configuration every run of the session starts from.
    fn run_config(&self) -> RunConfig {
        self.base.clone()
    }

    /// The traces recorded so far, in job order.
    #[must_use]
    pub fn into_traces(self) -> Vec<TraceRun> {
        self.traces
    }

    /// The stored result for `key`; always `None` while tracing.
    fn recall(&self, key: &str) -> Option<KernelResult> {
        if self.trace_capacity > 0 {
            return None;
        }
        self.results.get(key).cloned()
    }

    fn store(&mut self, key: String, result: &KernelResult) {
        if self.trace_capacity == 0 {
            self.results.insert(key, result.clone());
        }
    }

    /// Records `case`'s traces, labelling each `<case> <leg>`.
    fn record(&mut self, case: &str, traces: impl IntoIterator<Item = Option<TraceRun>>) {
        for mut run in traces.into_iter().flatten() {
            run.label = format!("{case} {}", run.label);
            self.traces.push(run);
        }
    }

    /// Records the trace of one program leg of `case` and returns its
    /// statistics.
    fn leg(&mut self, case: &str, run: Result<RunArtifacts, HarnessError>) -> RunStats {
        let run = run.unwrap_or_else(|e| panic!("{case}: {e}"));
        self.record(case, [run.trace]);
        run.stats
    }
}

/// Runs one experiment by id at full size.
///
/// # Panics
///
/// Panics on an unknown id (callers use [`EXPERIMENT_IDS`]) or if any
/// kernel fails verification — a failed experiment is a bug, not a result.
pub fn run_experiment(session: &mut Session, id: &str) -> ExpTable {
    run_experiment_scaled(session, id, Scale(1.0))
}

/// Runs one experiment at a given size scale.
///
/// # Panics
///
/// Panics on unknown ids or verification failures.
pub fn run_experiment_scaled(session: &mut Session, id: &str, scale: Scale) -> ExpTable {
    match id {
        "e1" => e1_fabric_resources(),
        "e2" => e2_micro_speedup(session, scale),
        "e3" => e3_suite_speedup(session, scale),
        "e4" => e4_manual_vs_compiler(session, scale),
        "e5" => e5_instruction_reduction(session, scale),
        "e6" => e6_energy(session, scale),
        "e7" => e7_config_overhead(session, scale),
        "e8" => e8_control_flow_shapes(session, scale),
        "e9" => e9_fabric_sweep(session, scale),
        "e10" => e10_integration_overhead(session, scale),
        "p1" | "p2" | "p3" => program_experiment(session, id, scale),
        "ablation" => ablation(session, scale),
        other => panic!("unknown experiment `{other}`"),
    }
}

/// The result key: everything that can change a run's outcome.
fn memo_key(kernel: &str, n: usize, config: &RunConfig) -> String {
    format!("{kernel}|{n}|{config:?}")
}

fn kernel_by_name(name: &str) -> Kernel {
    suite()
        .into_iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("kernel `{name}` in suite"))
}

fn job_for(
    session: &Session,
    k: &Kernel,
    n: usize,
    config_mut: impl FnOnce(&mut RunConfig),
) -> KernelJob {
    let mut config = session.run_config();
    config.compiler = k.compiler_options(config.system.geometry);
    config_mut(&mut config);
    (k.case(n, SEED), config)
}

/// Runs every `(n, job)` pair, fanned across the harness's worker pool,
/// and returns the results in job order. A job the session has a result
/// for replays it; fresh results are stored and their traces recorded in
/// job order.
fn run_jobs(session: &mut Session, jobs: &[(usize, KernelJob)]) -> Vec<KernelResult> {
    let shared = &*session;
    let outcomes = parallel_map(jobs, default_workers(), |(n, (case, config))| {
        let key = memo_key(&case.name, *n, config);
        match shared.recall(&key) {
            Some(r) => Ok((r, None)),
            None => run_kernel_traced(case, config, shared.trace_capacity)
                .map(|(r, legs)| (r, Some((key, legs)))),
        }
    });
    let mut results = Vec::with_capacity(jobs.len());
    for ((n, (case, _)), outcome) in jobs.iter().zip(outcomes) {
        let (r, fresh) = outcome.unwrap_or_else(|e| panic!("{} (n={n}): {e}", case.name));
        if let Some((key, [base, dyser])) = fresh {
            session.record(&case.name, [base.trace, dyser.trace]);
            session.store(key, &r);
        }
        results.push(r);
    }
    results
}

fn run_one(
    session: &mut Session,
    k: &Kernel,
    n: usize,
    config_mut: impl FnOnce(&mut RunConfig),
) -> KernelResult {
    let job = job_for(session, k, n, config_mut);
    run_jobs(session, &[(n, job)]).pop().expect("one result")
}

/// Runs every kernel at its scaled default size; results come back in
/// input order.
fn run_suite(
    session: &mut Session,
    kernels: Vec<Kernel>,
    scale: Scale,
) -> Vec<(Kernel, usize, KernelResult)> {
    let jobs: Vec<(usize, KernelJob)> = kernels
        .iter()
        .map(|k| {
            let n = scale.n(k.default_n);
            (n, job_for(session, k, n, |_| {}))
        })
        .collect();
    let results = run_jobs(session, &jobs);
    kernels.into_iter().zip(jobs).zip(results).map(|((k, (n, _)), r)| (k, n, r)).collect()
}

/// The attribution bucket labels, used as CSV-only column headers on the
/// per-kernel tables and as the `repro stats` breakdown columns.
fn bucket_labels() -> [&'static str; 9] {
    CycleBucket::ALL.map(CycleBucket::label)
}

/// The accelerated run's cycle attribution as raw per-bucket cycle
/// counts, with the identity `sum(buckets) == cycles` asserted (in every
/// build, not just debug) before the numbers enter a report.
fn attribution_extras(r: &KernelResult) -> Vec<String> {
    let acct = r.dyser.cycle_account();
    assert!(
        acct.balanced(),
        "{}: attribution identity violated ({} bucket cycles vs {} total)",
        r.name,
        acct.sum(),
        acct.total_cycles
    );
    CycleBucket::ALL.iter().map(|b| acct.get(*b).to_string()).collect()
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

// ------------------------------------------------------------------ E1

/// E1 (resource table): structural statistics per fabric geometry — the
/// simulator-level stand-in for the paper's FPGA utilisation table.
pub fn e1_fabric_resources() -> ExpTable {
    let mut t = ExpTable::new(
        "E1: fabric structural resources by geometry",
        &["geometry", "FUs", "int", "intmul", "fpadd", "fpmul", "switches", "links", "in", "out", "cfg bits"],
    );
    for dim in [2usize, 4, 6, 8] {
        let geom = FabricGeometry::new(dim, dim);
        let kinds: Vec<FuKind> =
            geom.fus().map(|f| FuKind::default_pattern(f.row, f.col)).collect();
        let s = StructuralStats::compute(geom, &kinds);
        t.row(vec![
            geom.to_string(),
            s.fus.to_string(),
            s.int_simple.to_string(),
            s.int_mul.to_string(),
            s.fp_add.to_string(),
            s.fp_mul.to_string(),
            s.switches.to_string(),
            s.links.to_string(),
            s.input_ports.to_string(),
            s.output_ports.to_string(),
            s.frame_bits.to_string(),
        ]);
    }
    t.note("substitutes structural counts for the paper's LUT/BRAM table (DESIGN.md E1)");
    t
}

// ------------------------------------------------------------------ E2

/// E2 (microbenchmark speedup figure): SPARC-DySER vs OpenSPARC cycles on
/// the compute-intense microbenchmarks — the paper's headline 6x claim.
pub fn e2_micro_speedup(session: &mut Session, scale: Scale) -> ExpTable {
    let mut t = ExpTable::new(
        "E2: microbenchmark speedup (SPARC-DySER vs OpenSPARC)",
        &["kernel", "n", "base cycles", "dyser cycles", "speedup"],
    );
    t.csv_extra_headers(&bucket_labels());
    let mut speedups = Vec::new();
    let mut peak: f64 = 0.0;
    let micro: Vec<Kernel> =
        suite().into_iter().filter(|k| k.category == Category::Micro).collect();
    for (k, n, r) in run_suite(session, micro, scale) {
        speedups.push(r.speedup);
        peak = peak.max(r.speedup);
        let extras = attribution_extras(&r);
        t.row_with_extras(
            vec![
                k.name.into(),
                n.to_string(),
                r.baseline.cycles.to_string(),
                r.dyser.cycles.to_string(),
                format!("{:.2}x", r.speedup),
            ],
            extras,
        );
    }
    t.row(vec![
        "geomean".into(),
        String::new(),
        String::new(),
        String::new(),
        format!("{:.2}x", geomean(&speedups)),
    ]);
    t.note(format!("peak speedup {peak:.2}x (paper headline: ~6x on microbenchmarks)"));
    t
}

// ------------------------------------------------------------------ E3

/// E3 (suite speedup figure): speedups across the full kernel suite,
/// grouped by category — regular vs irregular.
pub fn e3_suite_speedup(session: &mut Session, scale: Scale) -> ExpTable {
    let mut t = ExpTable::new(
        "E3: full-suite speedup by category",
        &["kernel", "category", "n", "speedup", "accelerated"],
    );
    let mut by_cat: Vec<(Category, Vec<f64>)> = vec![
        (Category::Micro, Vec::new()),
        (Category::Regular, Vec::new()),
        (Category::Irregular, Vec::new()),
    ];
    t.csv_extra_headers(&bucket_labels());
    for (k, n, r) in run_suite(session, suite(), scale) {
        by_cat.iter_mut().find(|(c, _)| *c == k.category).expect("category").1.push(r.speedup);
        let extras = attribution_extras(&r);
        t.row_with_extras(
            vec![
                k.name.into(),
                k.category.label().into(),
                n.to_string(),
                format!("{:.2}x", r.speedup),
                if r.accelerated_any { "yes".into() } else { "no".into() },
            ],
            extras,
        );
    }
    for (cat, xs) in by_cat {
        t.note(format!("{} geomean: {:.2}x over {} kernels", cat.label(), geomean(&xs), xs.len()));
    }
    t
}

// --------------------------------------------------------------- stats

/// `repro stats`: per-kernel cycle attribution for both runs of every
/// suite kernel — where each cycle of the evaluation goes.
///
/// The human-facing table shows each bucket as a percentage of the run's
/// cycles; the CSV rendering appends the raw per-bucket cycle counts.
/// Every row is checked against the attribution identity
/// `sum(buckets) == cycles`, and the `mem-miss` bucket is cross-checked
/// against the memory hierarchy's own stall accounting.
///
/// # Panics
///
/// Panics if any kernel fails verification or any attribution check
/// fails — an unbalanced account is a simulator bug, not a result.
pub fn stats_attribution(session: &mut Session, scale: Scale) -> ExpTable {
    let mut headers: Vec<&str> = vec!["kernel", "run", "cycles"];
    headers.extend(bucket_labels());
    let mut t = ExpTable::new("Stats: cycle attribution by bucket (% of run cycles)", &headers);
    let raw_headers: Vec<String> =
        bucket_labels().iter().map(|l| format!("{l}-cycles")).collect();
    t.csv_extra_headers(&raw_headers.iter().map(String::as_str).collect::<Vec<_>>());
    // A stats sweep diagnoses the simulation hot path, so it simulates
    // every leg itself, without the session's stored results (a replayed
    // sweep would show an idle decode cache). Its cache notes sum the
    // counters its own runs return, so other simulation in the process
    // never leaks in.
    let kernels = suite();
    let sizes: Vec<usize> = kernels.iter().map(|k| scale.n(k.default_n)).collect();
    let jobs: Vec<KernelJob> =
        kernels.iter().zip(&sizes).map(|(k, &n)| job_for(session, k, n, |_| {})).collect();
    let capacity = session.trace_capacity;
    let swept = parallel_map(&jobs, default_workers(), |(case, config)| {
        run_kernel_traced(case, config, capacity)
    });
    let mut speed = SpeedStats::default();
    for ((k, n), swept) in kernels.iter().zip(sizes).zip(swept) {
        let (_, legs) = swept.unwrap_or_else(|e| panic!("{} (n={n}): {e}", k.name));
        for (run, leg) in ["baseline", "dyser"].into_iter().zip(legs) {
            speed.decode_hits += leg.speed.decode_hits;
            speed.decode_misses += leg.speed.decode_misses;
            speed.blocks.hits += leg.speed.blocks.hits;
            speed.blocks.misses += leg.speed.blocks.misses;
            speed.blocks.invalidations += leg.speed.blocks.invalidations;
            session.record(k.name, [leg.trace]);
            let stats = &leg.stats;
            let acct = stats.cycle_account();
            assert!(
                acct.balanced(),
                "{} ({run}): attribution identity violated ({} vs {})",
                k.name,
                acct.sum(),
                acct.total_cycles
            );
            assert_eq!(
                acct.get(CycleBucket::MemMiss),
                stats.mem_miss_stall_cycles(),
                "{} ({run}): core and hierarchy disagree on memory stalls",
                k.name
            );
            let mut cells = vec![k.name.to_string(), run.into(), acct.total_cycles.to_string()];
            cells.extend(
                CycleBucket::ALL.iter().map(|b| format!("{:.1}%", 100.0 * acct.fraction(*b))),
            );
            t.row_with_extras(
                cells,
                CycleBucket::ALL.iter().map(|b| acct.get(*b).to_string()).collect(),
            );
        }
    }
    t.note("buckets are exclusive and exhaustive: each row's buckets sum to its cycle count");
    t.note("mem-miss equals the hierarchy's own stall count on every row (cross-checked)");
    t.note(format!(
        "decode cache (interpreted issue path): {} hits / {} misses ({:.1}% hit rate)",
        speed.decode_hits,
        speed.decode_misses,
        percent(speed.decode_hits, speed.decode_hits + speed.decode_misses),
    ));
    t.note(format!(
        "block cache (compiled issue path): {} hits / {} misses / {} invalidations \
         ({:.1}% hit rate)",
        speed.blocks.hits,
        speed.blocks.misses,
        speed.blocks.invalidations,
        percent(speed.blocks.hits, speed.blocks.hits + speed.blocks.misses),
    ));
    t
}

/// `part` as a percentage of `whole`; zero when nothing was counted.
fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

// ------------------------------------------------------------------ E4

/// E4 (manual-vs-compiler figure): hand-optimised DySER code against
/// compiler-generated DySER code on the kernels with manual mappings.
pub fn e4_manual_vs_compiler(session: &mut Session, scale: Scale) -> ExpTable {
    let mut t = ExpTable::new(
        "E4: manual vs compiler-generated DySER code",
        &["kernel", "n", "base", "compiler", "manual", "compiler x", "manual x", "compiler/manual"],
    );
    let geometry = FabricGeometry::new(8, 8);
    for m in manual::all(geometry, scale.n(512), SEED) {
        let k = kernel_by_name(m.name);
        let n = scale.n(512);
        let r = run_one(session, &k, n, |_| {});
        let mut rc = session.run_config();
        rc.system.geometry = geometry;
        let (args, init, expected) = (&m.args, &m.init, &m.expected);
        let capacity = session.trace_capacity;
        let manual = run_program_traced("manual", &m.program, args, init, expected, &rc, capacity);
        let manual_stats = session.leg(m.name, manual);
        let compiler_x = r.speedup;
        let manual_x = r.baseline.cycles as f64 / manual_stats.cycles.max(1) as f64;
        t.row(vec![
            m.name.into(),
            n.to_string(),
            r.baseline.cycles.to_string(),
            r.dyser.cycles.to_string(),
            manual_stats.cycles.to_string(),
            format!("{compiler_x:.2}x"),
            format!("{manual_x:.2}x"),
            format!("{:.0}%", 100.0 * compiler_x / manual_x),
        ]);
    }
    t.note("manual mappings use pointer-increment addressing, vector ports, and tree reductions");
    t
}

// ------------------------------------------------------------------ E5

/// E5 (dynamic instruction figure): instructions executed by the core,
/// baseline vs accelerated, with the offloaded fraction.
pub fn e5_instruction_reduction(session: &mut Session, scale: Scale) -> ExpTable {
    let mut t = ExpTable::new(
        "E5: dynamic core instructions, baseline vs DySER",
        &["kernel", "base instrs", "dyser instrs", "reduction", "base fp+mul", "dyser fp+mul", "fabric ops"],
    );
    use dyser_isa::InstrClass as C;
    for (k, _n, r) in run_suite(session, suite(), scale) {
        let heavy = |s: &dyser_core::RunStats| {
            s.core.class_count(C::Fp) + s.core.class_count(C::IntMulDiv)
        };
        t.row(vec![
            k.name.into(),
            r.baseline.core.instructions.to_string(),
            r.dyser.core.instructions.to_string(),
            format!("{:+.0}%", -100.0 * r.instr_reduction()),
            heavy(&r.baseline).to_string(),
            heavy(&r.dyser).to_string(),
            r.dyser.fabric.fu_fires().to_string(),
        ]);
    }
    t.note("negative = fewer core instructions; heavy arithmetic moves to the fabric");
    t
}

// ------------------------------------------------------------------ E6

/// E6 (power/energy table): the energy model's view of both runs —
/// fabric power near the prototype's 200 mW, energy and EDP ratios.
pub fn e6_energy(session: &mut Session, scale: Scale) -> ExpTable {
    let mut t = ExpTable::new(
        "E6: energy and power (activity model, 50 MHz)",
        &["kernel", "base uJ", "dyser uJ", "energy ratio", "fabric mW", "EDP gain"],
    );
    let model = EnergyModel::default();
    let mut fabric_powers = Vec::new();
    for (k, _n, r) in run_suite(session, suite(), scale) {
        let eb = r.baseline.energy(&model);
        let ed = r.dyser.energy(&model);
        if r.accelerated_any {
            fabric_powers.push(ed.fabric_power_mw);
        }
        t.row(vec![
            k.name.into(),
            format!("{:.1}", eb.total_nj / 1000.0),
            format!("{:.1}", ed.total_nj / 1000.0),
            format!("{:.2}x", eb.total_nj / ed.total_nj),
            format!("{:.0}", ed.fabric_power_mw),
            format!("{:.2}x", eb.edp / ed.edp),
        ]);
    }
    let avg = fabric_powers.iter().sum::<f64>() / fabric_powers.len().max(1) as f64;
    t.note(format!(
        "mean fabric power across accelerated kernels: {avg:.0} mW (prototype: ~200 mW)"
    ));
    t
}

// ------------------------------------------------------------------ E7

/// E7 (configuration-overhead figure): speedup versus invocation count —
/// the configuration load amortises as the loop runs longer.
pub fn e7_config_overhead(session: &mut Session, scale: Scale) -> ExpTable {
    let mut t = ExpTable::new(
        "E7: configuration-overhead amortisation (saxpy)",
        &["n", "config cycles", "base cycles", "dyser cycles", "speedup"],
    );
    let k = kernel_by_name("saxpy");
    let base_sizes = [8usize, 16, 32, 64, 128, 256, 512, 1024];
    for &n0 in &base_sizes {
        let n = scale.n(n0).max(8);
        let r = run_one(session, &k, n, |_| {});
        let config_cycles = r.dyser.core.stall_count(StallCause::DyserConfig);
        t.row(vec![
            n.to_string(),
            config_cycles.to_string(),
            r.baseline.cycles.to_string(),
            r.dyser.cycles.to_string(),
            format!("{:.2}x", r.speedup),
        ]);
    }
    t.note("speedup rises with trip count as the fixed configuration cost amortises");
    t
}

// ------------------------------------------------------------------ E8

/// E8 (control-flow-shape study): the two shapes that curtail the
/// compiler, plus the adaptive exit-condition offload.
pub fn e8_control_flow_shapes(session: &mut Session, scale: Scale) -> ExpTable {
    let mut t = ExpTable::new(
        "E8: control-flow shapes and the adaptive mechanism",
        &["kernel", "shape", "acceleratable", "speedup", "note"],
    );
    let shape_of = |k: &Kernel| -> LoopShape {
        let shapes = dyser_compiler::classify_loops(&k.function());
        shapes
            .iter()
            .map(|r| r.shape)
            .max_by_key(|s| match s {
                LoopShape::Regular => 0,
                LoopShape::IfConvertible => 1,
                LoopShape::EarlyExit => 2,
                LoopShape::NestedControl => 3,
            })
            .expect("kernels have loops")
    };
    for name in ["relu_clamp", "find_first", "cond_store"] {
        let k = kernel_by_name(name);
        let n = scale.n(k.default_n);
        let r = run_one(session, &k, n, |_| {});
        let shape = shape_of(&k);
        let note = match shape {
            LoopShape::IfConvertible => "predicated into selects and accelerated",
            LoopShape::EarlyExit => "shape A: side exit blocks pipelined invocations",
            LoopShape::NestedControl => "shape B: conditional store defeats predication",
            LoopShape::Regular => "",
        };
        t.row(vec![
            name.into(),
            shape.label().into(),
            if shape.acceleratable() { "yes".into() } else { "no".into() },
            format!("{:.2}x", r.speedup),
            note.into(),
        ]);
    }
    // Adaptive mechanism 1: speculative window checking for shape-A
    // early-exit loops (hand implementation of the paper's sketch).
    {
        let k = kernel_by_name("find_first");
        let n = scale.n(k.default_n);
        let base = run_one(session, &k, n, |_| {});
        if let Some(m) =
            dyser_workloads::shapes::speculative_window(FabricGeometry::new(8, 8), n, SEED)
        {
            let rc = session.run_config();
            let (args, init, expected) = (&m.args, &m.init, &m.expected);
            let capacity = session.trace_capacity;
            let spec =
                run_program_traced("speculative", &m.program, args, init, expected, &rc, capacity);
            let spec = session.leg(k.name, spec);
            let x = base.baseline.cycles as f64 / spec.cycles.max(1) as f64;
            t.row(vec![
                "find_first (speculative)".into(),
                "early-exit (shape A)".into(),
                "adaptive".into(),
                format!("{x:.2}x"),
                "windows checked in-fabric one iteration ahead; rescan on hit".into(),
            ]);
        }
    }

    // Adaptive mechanism 2: exit-condition offload, on and off.
    let k = kernel_by_name("scan_poly");
    let n = scale.n(k.default_n);
    let off = run_one(session, &k, n, |c| {
        c.compiler.region.offload_exit_condition = false;
    });
    let on = run_one(session, &k, n, |_| {});
    t.row(vec![
        "scan_poly (no offload)".into(),
        "data-dependent exit".into(),
        "no".into(),
        format!("{:.2}x", off.speedup),
        "exit test keeps the whole chain on the core".into(),
    ]);
    t.row(vec![
        "scan_poly (offload)".into(),
        "data-dependent exit".into(),
        "adaptive".into(),
        format!("{:.2}x", on.speedup),
        "condition computed in-fabric, received every iteration".into(),
    ]);
    t.note("speculative window checking recovers shape-A loops (adaptive mechanism 1)");
    t.note("the exit-condition offload trades recv latency for offloaded arithmetic; on");
    t.note("this non-compute-intense scan it does not pay — the paper's finding ii");
    t
}

// ------------------------------------------------------------------ E9

/// E9 (fabric-size sensitivity figure): speedup versus fabric geometry.
pub fn e9_fabric_sweep(session: &mut Session, scale: Scale) -> ExpTable {
    let mut t = ExpTable::new(
        "E9: speedup vs fabric geometry",
        &["kernel", "2x2", "4x4", "6x6", "8x8"],
    );
    for name in ["poly6", "fir4", "stencil3", "saxpy"] {
        let k = kernel_by_name(name);
        let n = scale.n(k.default_n / 2);
        let mut cells = vec![name.to_owned()];
        for dim in [2usize, 4, 6, 8] {
            let r = run_one(session, &k, n, |c| c.set_geometry(FabricGeometry::new(dim, dim)));
            cells.push(format!("{:.2}x", r.speedup));
        }
        t.row(cells);
    }
    t.note("larger fabrics admit deeper unrolling; small fabrics fall back to lower factors");
    t
}

// ------------------------------------------------------------------ E10

/// E10 (integration-overhead table): a DySER-equipped system running the
/// unaccelerated binary must cost exactly the same cycles as a system
/// with no fabric at all — integration introduces no overhead.
pub fn e10_integration_overhead(session: &mut Session, scale: Scale) -> ExpTable {
    let mut t = ExpTable::new(
        "E10: integration overhead (baseline binary, fabric present vs absent)",
        &["kernel", "no-fabric cycles", "fabric-idle cycles", "delta"],
    );
    for k in suite().into_iter().take(6) {
        let n = scale.n(k.default_n / 2);
        let case = k.case(n, SEED);
        let compiled = dyser_core::compile_cached(
            &case.function,
            &k.compiler_options(FabricGeometry::new(8, 8)),
        )
        .expect("compiles");

        let (program, args, init, expected) =
            (&compiled.baseline, &case.args, &case.init, &case.expected);
        let capacity = session.trace_capacity;
        let mut rc_none = session.run_config();
        rc_none.system.has_fabric = false;
        let none = session.leg(
            k.name,
            run_program_traced("no-fabric", program, args, init, expected, &rc_none, capacity),
        );
        let rc_idle = session.run_config();
        let idle = session.leg(
            k.name,
            run_program_traced("fabric-idle", program, args, init, expected, &rc_idle, capacity),
        );

        t.row(vec![
            k.name.into(),
            none.cycles.to_string(),
            idle.cycles.to_string(),
            (idle.cycles as i64 - none.cycles as i64).to_string(),
        ]);
    }
    t.note("delta 0 everywhere: the DySER integration adds no cycles when unused (finding i)");
    t
}

// ------------------------------------------------------- whole programs

/// Default stdin size (in 8-byte words) for the whole-program workloads
/// at scale 1.0 (shared with the serve daemon's `program` jobs).
pub const PROGRAM_N: usize = 256;

/// P1–P3 (whole-program workloads): one emulated process — argv/envp
/// startup stack, stdin via `read`, heap via `brk`, results via `write`,
/// termination via `exit` — run as a baseline and a DySER-accelerated
/// leg. Both legs must produce byte-identical stdout and the same exit
/// code (the harness verifies this on every run).
pub fn program_experiment(session: &mut Session, name: &str, scale: Scale) -> ExpTable {
    let build = dyser_workloads::programs::by_name(name)
        .unwrap_or_else(|| panic!("unknown program `{name}`"));
    let n = scale.n(PROGRAM_N);
    let geometry = FabricGeometry::new(8, 8);
    let case = build(geometry, n, SEED).expect("the 8x8 fabric fits every program");
    let mut config = session.run_config();
    config.system.geometry = geometry;
    let key = memo_key(&case.name, n, &config);
    let r = session.recall(&key).unwrap_or_else(|| {
        let (r, [base, dyser]) = run_program_case_traced(&case, &config, session.trace_capacity)
            .unwrap_or_else(|e| panic!("{name} (n={n}): {e}"));
        session.record(name, [base.trace, dyser.trace]);
        session.store(key, &r);
        r
    });
    let mut t = ExpTable::new(
         match name {
            "p1" => "P1: whole-program string matcher (argv key, stdin text)",
            "p2" => "P2: whole-program JSON tokenizer pipeline (brk heap, hash)",
            _ => "P3: whole-program image-kernel pipeline (stencil + checksum)",
        },
        &["program", "n", "base cycles", "dyser cycles", "speedup", "stdout B", "exit"],
    );
    t.csv_extra_headers(&bucket_labels());
    let extras = attribution_extras(&r);
    t.row_with_extras(
        vec![
            name.into(),
            n.to_string(),
            r.baseline.cycles.to_string(),
            r.dyser.cycles.to_string(),
            format!("{:.2}x", r.speedup),
            case.expected_stdout.len().to_string(),
            case.expected_exit.to_string(),
        ],
        extras,
    );
    t.note(format!(
        "syscall stall cycles: baseline {}, dyser {} (trap service at the core interface)",
        r.baseline.core.stall_count(StallCause::Syscall),
        r.dyser.core.stall_count(StallCause::Syscall),
    ));
    t.note("both legs produced byte-identical stdout and the same exit code (verified)");
    t
}

// ------------------------------------------------------------- ablation

/// Ablation of the compiler's design choices (DESIGN.md): unroll factor,
/// store-lag depth, and if-conversion, on one compute-heavy and one
/// memory-heavy kernel.
pub fn ablation(session: &mut Session, scale: Scale) -> ExpTable {
    let mut t = ExpTable::new(
        "Ablation: compiler design choices",
        &["kernel", "variant", "dyser cycles", "speedup"],
    );
    for name in ["poly6", "saxpy"] {
        let k = kernel_by_name(name);
        let n = scale.n(k.default_n / 2);
        type Variant = (&'static str, Box<dyn Fn(&mut RunConfig)>);
        let variants: Vec<Variant> = vec![
            ("default (unroll 4, lag 2)", Box::new(|_: &mut RunConfig| {})),
            ("no unroll", Box::new(|c: &mut RunConfig| c.compiler.unroll_factor = 1)),
            ("unroll 8", Box::new(|c: &mut RunConfig| c.compiler.unroll_factor = 8)),
            ("lag depth 1", Box::new(|c: &mut RunConfig| c.compiler.codegen.lag_depth = 1)),
            ("lag depth 4", Box::new(|c: &mut RunConfig| c.compiler.codegen.lag_depth = 4)),
            ("no store lag", Box::new(|c: &mut RunConfig| c.compiler.codegen.lag_stores = false)),
            (
                "no scheduler refinement",
                Box::new(|c: &mut RunConfig| c.compiler.schedule.refinement_rounds = 0),
            ),
            (
                "perfect memory",
                Box::new(|c: &mut RunConfig| c.system.mem = dyser_mem::MemConfig::perfect()),
            ),
            ("fifo depth 2", Box::new(|c: &mut RunConfig| c.system.fifo_depth = 2)),
            ("fifo depth 8", Box::new(|c: &mut RunConfig| c.system.fifo_depth = 8)),
            ("universal FUs", Box::new(|c: &mut RunConfig| c.set_universal_fus())),
        ];
        for (label, tweak) in variants {
            let r = run_one(session, &k, n, |c| tweak(c));
            t.row(vec![
                name.into(),
                label.into(),
                r.dyser.cycles.to_string(),
                format!("{:.2}x", r.speedup),
            ]);
        }
    }
    t.note("the `lag depth N` rows set the CAP; the per-region auto-tuner picks the depth");
    t.note("unrolling and store lagging carry the compute-heavy kernel; perfect memory shows the residual memory sensitivity");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Scale = Scale(0.08);

    #[test]
    fn e1_has_four_geometries() {
        let t = e1_fabric_resources();
        assert_eq!(t.rows.len(), 4);
        assert!(t.to_string().contains("8x8"));
    }

    #[test]
    fn e2_reports_micro_kernels_and_geomean() {
        let t = e2_micro_speedup(&mut Session::default(), TINY);
        assert_eq!(t.rows.len(), 3 + 1);
        assert!(t.rows.last().unwrap()[0] == "geomean");
    }

    #[test]
    fn e4_covers_all_manual_kernels() {
        let t = e4_manual_vs_compiler(&mut Session::default(), TINY);
        assert_eq!(t.rows.len(), 3);
    }

    #[test]
    fn e7_speedup_grows_with_n() {
        let t = e7_config_overhead(&mut Session::default(), Scale(0.5));
        let col = &t.headers[4];
        let first: f64 = t.parse_cell(0, col).expect("first row speedup");
        let last: f64 = t.parse_cell(t.rows.len() - 1, col).expect("last row speedup");
        assert!(last > first, "amortisation: {first} -> {last}");
    }

    #[test]
    fn e10_deltas_are_zero() {
        let t = e10_integration_overhead(&mut Session::default(), TINY);
        for row in &t.rows {
            assert_eq!(row[3], "0", "{row:?}");
        }
    }

    #[test]
    fn ablation_defaults_not_slower_than_no_lag() {
        let t = ablation(&mut Session::default(), Scale(0.25));
        // poly6's default variant must beat its no-store-lag variant.
        let cycles = |variant: &str| -> u64 {
            let row = t
                .rows
                .iter()
                .position(|r| r[0] == "poly6" && r[1] == variant)
                .unwrap_or_else(|| panic!("no poly6 / {variant} row"));
            t.parse_cell(row, "dyser cycles").expect("cycle cell")
        };
        assert!(cycles("default (unroll 4, lag 2)") <= cycles("no store lag"));
    }

    #[test]
    fn result_memo_replays_bit_identically() {
        let mut session = Session::default();
        let k = kernel_by_name("saxpy");
        let n = TINY.n(k.default_n);
        let tweak = |c: &mut RunConfig| c.system.fifo_depth = 7;
        let first = run_one(&mut session, &k, n, tweak);
        let key = memo_key(k.name, n, &job_for(&session, &k, n, tweak).1);
        assert!(
            session.results.contains_key(&key),
            "a finished run must be stored in the session's result map"
        );
        let again = run_one(&mut session, &k, n, tweak);
        assert_eq!(again.baseline.cycles, first.baseline.cycles);
        assert_eq!(again.dyser.cycles, first.dyser.cycles);
        assert_eq!(again.speedup, first.speedup);
    }

    #[test]
    fn memoized_tables_render_identically() {
        // e3/e5/e6 re-sweep the suite e2 already ran in `repro all`; the
        // replay must not change a single cell. Rendering the same table
        // twice in one session (cold, then warm) checks exactly that path.
        let mut session = Session::default();
        let cold = e2_micro_speedup(&mut session, TINY);
        let warm = e2_micro_speedup(&mut session, TINY);
        assert_eq!(cold.to_csv(), warm.to_csv());
    }

    #[test]
    fn traced_session_records_every_run_in_job_order() {
        let mut session = Session::traced(Backend::Interpreted, 256);
        let first = e2_micro_speedup(&mut session, TINY);
        let second = e2_micro_speedup(&mut session, TINY);
        assert_eq!(first.to_csv(), second.to_csv());
        let labels: Vec<String> = session.into_traces().into_iter().map(|run| run.label).collect();
        let micro: Vec<&str> =
            suite().into_iter().filter(|k| k.category == Category::Micro).map(|k| k.name).collect();
        let once: Vec<String> = micro
            .iter()
            .flat_map(|name| [format!("{name} baseline"), format!("{name} dyser")])
            .collect();
        assert_eq!(labels, [once.clone(), once].concat(), "a traced session replays nothing");
    }

    #[test]
    fn all_experiments_run_at_tiny_scale() {
        let mut session = Session::default();
        for id in EXPERIMENT_IDS {
            let t = run_experiment_scaled(&mut session, id, TINY);
            assert!(!t.rows.is_empty(), "{id}");
        }
    }
}
