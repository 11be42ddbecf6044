//! End-to-end tests of the fuzzing subsystem itself: generator coverage,
//! a real (small) campaign through the full oracle, the synthetic
//! miscompile → shrink → repro pipeline, corpus replay, and typed-error
//! handling for invalid configurations.

use dyser_fuzz::corpus::{corpus_dir, load_corpus, recipe_from_json, recipe_json, rust_repro};
use dyser_fuzz::gen::{GenStats, LoopForm, MemKind, Node, Recipe, RunMode};
use dyser_fuzz::oracle::{check_case, Sabotage};
use dyser_fuzz::shrink::shrink;
use dyser_fuzz::{case_recipe, checked, run_campaign, CampaignConfig};

/// The generator provably exercises all three run modes and both E8
/// control-flow shape families (plus the adversarial extras) — the
/// acceptance criterion's self-stats assertion.
#[test]
fn generator_exercises_modes_and_shape_families() {
    let mut stats = GenStats::default();
    for i in 0..400 {
        stats.record(&case_recipe(0xD75E, i));
    }
    assert_eq!(stats.total, 400);
    assert!(stats.exercises_all_modes(), "run modes missing: {stats:?}");
    assert!(stats.exercises_shape_families(), "shape families missing: {stats:?}");
    // Every loop form appears.
    assert!(stats.forms.iter().all(|&c| c > 0), "loop form missing: {stats:?}");
    // The adversarial extras appear too.
    assert!(stats.alias_store > 0, "{stats:?}");
    assert!(stats.double_store > 0, "{stats:?}");
    assert!(stats.mixed_types > 0, "{stats:?}");
    assert!(stats.timeout_checks > 0, "{stats:?}");
    assert!(stats.unrolled > 0, "{stats:?}");
    assert!(stats.nondefault_mem > 0, "{stats:?}");
}

/// A small but real campaign — every case runs the interpreter, both
/// binaries, both simulation paths, and the attribution identity — must
/// be clean. The CI smoke job and the 10k acceptance campaign scale this
/// up through `repro fuzz`.
#[test]
fn small_campaign_is_clean() {
    let report = run_campaign(&CampaignConfig {
        cases: 60,
        seed: 0xD75E,
        shrink: false,
        sabotage: false,
        ..CampaignConfig::default()
    });
    assert_eq!(report.cases, 60);
    assert!(
        report.clean(),
        "oracle failures: {:?}",
        report.failures.iter().map(|f| f.failure.to_string()).collect::<Vec<_>>()
    );
    assert!(report.accelerated > 0, "no case was ever accelerated: {report:?}");
    assert!(report.sim_cycles > 0);
}

/// Forcing a synthetic miscompile (the test-only sabotage hook) must
/// yield a detected failure, and shrinking must reduce it to ≤ 8 IR
/// nodes while preserving the failure class — the acceptance criterion
/// for the shrinker. The shrunken recipe round-trips through both repro
/// formats.
#[test]
fn sabotage_shrinks_to_a_small_preserved_repro() {
    let sab = Sabotage;
    // First sabotage-tripping, otherwise-valid recipe in the fixed stream.
    let recipe = (0..)
        .map(|i| case_recipe(0x5AB0_7A6E, i))
        .find(|r| r.fifo_depth != 0 && sab.trips(r))
        .expect("the grammar draws integer multiplies");

    let failure = checked(&recipe, Some(&sab)).expect_err("sabotage must be detected");
    assert_eq!(failure.kind(), "output-mismatch", "{failure}");

    let kind = failure.kind();
    let small = shrink(&recipe, |cand| {
        checked(cand, Some(&sab)).err().is_some_and(|f| f.kind() == kind)
    });
    assert!(small.ir_nodes() <= 8, "shrunk to {} nodes: {small:?}", small.ir_nodes());
    let still = checked(&small, Some(&sab)).expect_err("shrunk recipe still fails");
    assert_eq!(still.kind(), kind, "shrinking changed the failure class");
    // Without the hook the shrunken recipe passes: the failure really was
    // the synthetic miscompile, not a latent bug.
    checked(&small, None).expect("shrunken recipe is otherwise clean");

    // Both repro formats are faithful.
    let json = recipe_json(&small, Some(kind));
    assert_eq!(recipe_from_json(&json).expect("round trip"), small);
    let code = rust_repro(&small, "sabotage_min");
    assert!(code.contains("fn fuzz_repro_sabotage_min()"));
    assert!(code.contains("check_case(&recipe)"));
}

/// Every checked-in corpus entry replays clean through the full oracle —
/// the regression gate for previously found (and fixed) bugs.
#[test]
fn corpus_replays_clean() {
    let entries = load_corpus(&corpus_dir()).expect("corpus loads");
    assert!(!entries.is_empty(), "corpus must not be empty");
    for (name, recipe) in entries {
        checked(&recipe, None).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Every checked-in syscall corpus entry replays clean through the
/// stream/exit/stats oracle on all three engine runs.
#[test]
fn sys_corpus_replays_clean() {
    use dyser_fuzz::sysprog::{checked_sys, load_sys_corpus, sys_corpus_dir};
    let entries = load_sys_corpus(&sys_corpus_dir()).expect("syscall corpus loads");
    assert!(!entries.is_empty(), "syscall corpus must not be empty");
    for (name, recipe) in entries {
        checked_sys(&recipe).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Deliberately impossible hardware descriptions produce typed errors —
/// `SysError::InvalidConfig` — never panics, and the oracle counts them
/// as their own outcome class.
#[test]
fn invalid_configs_fail_typed() {
    let recipe = Recipe {
        form: LoopForm::Canonical,
        a_fp: false,
        b_fp: false,
        nodes: vec![Node::Leaf(0, 0), Node::Bin(0, 0, 0)],
        second: vec![],
        n: 4,
        inner: 0,
        alias_store: false,
        double_store: false,
        input_seed: 1,
        unroll: 1,
        lag_depth: 1,
        lag_stores: false,
        if_convert: false,
        refinement_rounds: 0,
        offload_exit: false,
        rows: 4,
        cols: 4,
        universal_fus: false,
        fifo_depth: 0, // impossible hardware
        mem: MemKind::Default,
        mode: RunMode::FastForward,
        timeout_check: false,
    };
    let outcome = check_case(&recipe).expect("typed rejection is a pass");
    assert!(outcome.invalid_config);
    assert_eq!(outcome.cycles, 0);
}

/// Tiny fabrics that cannot fit any region must degrade gracefully: the
/// compiler falls back toward the baseline, everything still verifies.
#[test]
fn tiny_fabrics_degrade_gracefully() {
    for i in 0..8 {
        let mut r = case_recipe(0x7139, i);
        r.fifo_depth = r.fifo_depth.max(1);
        r.rows = 2;
        r.cols = 2;
        checked(&r, None).unwrap_or_else(|e| panic!("case {i}: {e}\n{r:?}"));
    }
}
