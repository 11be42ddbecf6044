//! Byte-for-byte golden snapshot of `repro all --csv`.
//!
//! The simulation is fully deterministic (see `determinism.rs`), so the
//! machine-readable rendering of the whole evaluation can be pinned
//! exactly: any change to kernel cycle counts, table columns, or CSV
//! escaping shows up as a diff here instead of silently shifting the
//! reported results. Regenerate with `BLESS=1 cargo test -p dyser-bench
//! --test golden_repro` after an intentional change, and review the diff
//! like any other code change.
//!
//! Every simulated run of the sweep also passes the harness's debug-build
//! check of the attribution identity `sum(buckets) == cycles`.

use dyser_bench::{run_experiment, Session, EXPERIMENT_IDS};

const SNAPSHOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/snapshots/repro_all.csv");

/// Exactly what `repro all --csv` writes to stdout: each table's CSV
/// followed by the blank line `println!` appends, all from one session.
fn full_csv() -> String {
    let mut session = Session::default();
    EXPERIMENT_IDS.iter().map(|id| run_experiment(&mut session, id).to_csv() + "\n").collect()
}

#[test]
fn repro_all_csv_is_byte_identical_to_snapshot() {
    let got = full_csv();
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
}
