//! The leg memo replays a DySER leg at another port-FIFO depth when the
//! stored run's FIFO high-water mark is below both depths. These tests
//! check that rule on real legs: every kernel a sweep can name, on a few
//! geometries, at the depths the committed DSE plan sweeps.

use dyser_bench::dse::{dse_kernels, DsePoint, FuMix, MemPreset};
use dyser_bench::experiments::SEED;
use dyser_core::{compile_cached, KernelCase, LegMemo, RunConfig, RunStats, System};

const DEPTHS: [usize; 4] = [1, 2, 4, 8];
const GEOMETRIES: [(usize, usize); 3] = [(2, 2), (4, 4), (8, 8)];
const N: usize = 16;

/// A fresh run of `case`'s DySER leg: its stats and FIFO high-water mark.
fn fresh(case: &KernelCase, rc: &RunConfig) -> (RunStats, usize) {
    let compiled = compile_cached(&case.function, &rc.compiler).expect("compiles");
    let mut sys = System::new(rc.system.clone());
    sys.load_program(&compiled.accelerated).expect("loads");
    for (addr, words) in &case.init {
        sys.memory_mut().write_u64_slice(*addr, words);
    }
    sys.set_args(&case.args);
    let stats = sys.run(rc.max_cycles).expect("runs");
    (stats, sys.fabric().expect("a fabric is attached").fifo_high_water())
}

/// For each stored run `(d0, m)` and requested depth `d`, the memo's rule
/// (`d == d0`, or `m < d0` and `m < d`) allows a replay only where a
/// fresh run at `d` equals the stored one; and some run at a depth at or
/// below a stored mark differs, so the guard is needed. A memo fed the
/// depths in either order returns the fresh legs.
#[test]
fn replays_equal_fresh_runs_wherever_the_rule_allows() {
    let (mut replays, mut guarded) = (0, 0);
    for kernel in dse_kernels() {
        let case = kernel.case(N, SEED);
        for (rows, cols) in GEOMETRIES {
            let config = |fifo_depth| {
                let point = DsePoint {
                    kernel: kernel.name.into(),
                    rows,
                    cols,
                    mix: FuMix::Default,
                    fifo_depth,
                    mem: MemPreset::Default,
                    unroll: kernel.unroll,
                };
                point.run_config(&kernel, None).expect("valid point")
            };
            let runs: Vec<(RunStats, usize)> =
                DEPTHS.iter().map(|&depth| fresh(&case, &config(depth))).collect();
            for (stored, &d0) in runs.iter().zip(&DEPTHS) {
                let mark = stored.1;
                for (other, &d) in runs.iter().zip(&DEPTHS).filter(|&(_, &d)| d != d0) {
                    if mark < d0 && mark < d {
                        let at = format!("{} {rows}x{cols} depth {d0} -> {d}", kernel.name);
                        assert_eq!(other.0, stored.0, "{at}: the rule replays a different run");
                        assert_eq!(other.1, mark, "{at}: the replayed run's mark differs");
                        replays += 1;
                    } else if mark >= d && other.0 != stored.0 {
                        guarded += 1;
                    }
                }
            }
            for order in [DEPTHS, [8, 4, 2, 1]] {
                let memo = LegMemo::default();
                for depth in order {
                    let result = memo.run_kernel(&case, &config(depth)).expect("verifies");
                    let want = &runs[DEPTHS.iter().position(|&d| d == depth).expect("swept")].0;
                    assert_eq!(
                        &result.dyser, want,
                        "{} {rows}x{cols} depth {depth} after {order:?}: memo differs from a fresh run",
                        kernel.name
                    );
                }
            }
        }
    }
    assert!(replays > 0, "the rule replayed no run");
    assert!(guarded > 0, "no run at or below a stored mark differs: the guard is untested");
}
