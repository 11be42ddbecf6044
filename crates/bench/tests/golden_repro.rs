//! Byte-for-byte golden snapshot of `repro all --csv`, and the docs that
//! quote `repro all`.
//!
//! The simulation is fully deterministic (see `determinism.rs`), so the
//! machine-readable rendering of the whole evaluation can be pinned
//! exactly: any change to kernel cycle counts, table columns, or CSV
//! escaping shows up as a diff here instead of silently shifting the
//! reported results. Regenerate with `BLESS=1 cargo test -p dyser-bench
//! --test golden_repro` after an intentional change, and review the diff
//! like any other code change. The human tables are checked against the
//! docs that quote them, which `BLESS` does not rewrite: update
//! EXPERIMENTS.md's "Full measured output" block and README's E2 example
//! by hand.
//!
//! Every simulated run of the sweep also passes the harness's debug-build
//! check of the attribution identity `sum(buckets) == cycles`.

use dyser_bench::{render_experiments, Scale, Session, EXPERIMENT_IDS};

const SNAPSHOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/snapshots/repro_all.csv");

/// A document at the repository root.
fn doc(name: &str) -> String {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// The body of the first `text` code block after `heading` in `doc`.
fn text_block<'a>(doc: &'a str, heading: &str) -> &'a str {
    let fence = "```text\n";
    let after = &doc[doc.find(heading).unwrap_or_else(|| panic!("no {heading:?}"))..];
    let body = &after[after.find(fence).expect("a text block") + fence.len()..];
    &body[..body.find("```").expect("a closed block")]
}

/// Every table of `repro all`, rendered as CSV and then as the human
/// tables in one session (the second rendering replays every leg).
fn all_tables() -> (Vec<String>, Vec<String>) {
    let mut session = Session::default();
    let mut render = |csv| {
        let mut tables = Vec::new();
        render_experiments(&mut session, &EXPERIMENT_IDS, Scale(1.0), csv, |t| tables.push(t))
            .expect("every id is an experiment");
        tables
    };
    (render(true), render(false))
}

/// What `repro all` writes to stdout: each table followed by the blank
/// line `println!` appends.
fn stdout(tables: &[String]) -> String {
    tables.iter().map(|t| format!("{t}\n")).collect()
}

#[test]
fn repro_all_matches_its_snapshot_and_the_docs() {
    let (csv, human) = all_tables();
    let got = stdout(&csv);
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(SNAPSHOT, &got).expect("write snapshot");
        return;
    }
    let want = std::fs::read_to_string(SNAPSHOT)
        .expect("snapshot missing; regenerate with BLESS=1");
    if got != want {
        let mismatch = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .map(|(i, (g, w))| format!("line {}:\n  got:  {g}\n  want: {w}", i + 1))
            .unwrap_or_else(|| {
                format!("line counts differ: got {}, want {}", got.lines().count(), want.lines().count())
            });
        panic!(
            "repro all --csv drifted from the golden snapshot (first {mismatch}\n\
             bless with BLESS=1 if the change is intentional)"
        );
    }

    // The block holds `repro all`'s stdout up to its final newline.
    let experiments = doc("EXPERIMENTS.md");
    let block = text_block(&experiments, "## Full measured output");
    assert!(
        format!("{block}\n") == stdout(&human),
        "EXPERIMENTS.md's \"Full measured output\" differs from `repro all`"
    );
    let e2 = human.iter().find(|t| t.starts_with("== E2:")).expect("an E2 table");
    let readme = doc("README.md");
    let example = text_block(&readme, "Example output (E2");
    assert!(e2.contains(example), "README's E2 example is not in the E2 table:\n{e2}");
}
