//! A `LegMemo` holds each distinct program and case once, however many
//! legs refer to them. Its keys name both by interned id, so a stored leg
//! retains its key, its slot and its `RunStats`, and no copy of code,
//! fabric configurations or case arrays: keys built from such copies
//! doubled a DSE sweep's peak RSS.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dyser_compiler::{BinOp, CmpOp, FunctionBuilder, Type};
use dyser_core::{KernelCase, LegMemo, RunConfig};

/// The system allocator, counting the bytes it hands out and takes back.
struct Counting;

thread_local! {
    /// Bytes allocated and freed by this thread, so tests running in
    /// parallel do not count each other's allocations.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    static FREED: Cell<usize> = const { Cell::new(0) };
}

fn add(counter: &'static std::thread::LocalKey<Cell<usize>>, bytes: usize) {
    counter.with(|c| c.set(c.get() + bytes));
}

fn allocated() -> usize {
    ALLOCATED.with(Cell::get)
}

/// Bytes this thread holds: allocated and not yet freed.
fn live() -> usize {
    allocated() - FREED.with(Cell::get)
}

// SAFETY: forwards every call to `System` unchanged; the counters have no
// effect on the memory returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(&ALLOCATED, layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(&ALLOCATED, layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(&ALLOCATED, new_size);
        add(&FREED, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(&FREED, layout.size());
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Kernel runs that each store a baseline and a DySER leg: one per cycle
/// cap. The cap is part of a leg's key, and every cap here is above the
/// run's length, so each run simulates and verifies.
const RUNS: usize = 32;

/// Stored legs.
const LEGS: usize = 2 * RUNS;

/// The cycle cap of the first run; run `i` gets `CAP + i`.
const CAP: u64 = 1 << 20;

/// Bytes one stored leg may retain: its slot and stored run (`RunStats`,
/// FIFO depth and mark: about 0.6 KiB on x86-64) and its share of the key
/// map (about 0.2 KiB). A copy of the DySER program's 122 code words alone
/// would add 0.5 KiB to each DySER leg, 0.25 KiB over every stored leg, of
/// its fabric configuration several KiB, and of the case arrays (three
/// 256-word buffers) 6 KiB.
const PER_LEG_BUDGET: usize = 1 << 10;

/// Bytes one fully replayed kernel run may allocate: its result (about
/// 0.1 KiB), but no `System` (a simulated run allocates about 340 KiB).
const REPLAY_BUDGET: usize = 64 << 10;

/// c[i] = (a[i] + b[i]) * a[i] over f64, n elements.
fn case(n: usize) -> KernelCase {
    let mut b = FunctionBuilder::new(
        "fma_ish",
        &[("a", Type::Ptr), ("b", Type::Ptr), ("c", Type::Ptr), ("n", Type::I64)],
    );
    let (a, bb, c, nn) = (b.param(0), b.param(1), b.param(2), b.param(3));
    let zero = b.const_i(0);
    let one = b.const_i(1);
    let body = b.block("body");
    let exit = b.block("exit");
    let entry = b.current();
    b.br(body);
    b.switch_to(body);
    let i = b.phi(Type::I64);
    let pa = b.gep(a, i, 8);
    let pb = b.gep(bb, i, 8);
    let va = b.load(pa, Type::F64);
    let vb = b.load(pb, Type::F64);
    let sum = b.bin(BinOp::Fadd, va, vb);
    let prod = b.bin(BinOp::Fmul, sum, va);
    let pc = b.gep(c, i, 8);
    b.store(prod, pc);
    let i2 = b.bin(BinOp::Add, i, one);
    b.add_incoming(i, entry, zero);
    b.add_incoming(i, body, i2);
    let cond = b.cmp(CmpOp::Slt, i2, nn);
    b.cond_br(cond, body, exit);
    b.switch_to(exit);
    b.ret(None);
    let function = b.build().expect("valid IR");

    let (pa, pb, pc) = (0x20_0000u64, 0x30_0000u64, 0x40_0000u64);
    let av: Vec<f64> = (0..n).map(|i| i as f64 * 0.5 + 1.0).collect();
    let bv: Vec<f64> = (0..n).map(|i| i as f64 * -0.25 + 2.0).collect();
    let cv = av.iter().zip(&bv).map(|(x, y)| ((x + y) * x).to_bits()).collect();
    KernelCase {
        name: "fma_ish".into(),
        function,
        args: vec![pa, pb, pc, n as u64],
        init: vec![
            (pa, av.iter().map(|x| x.to_bits()).collect()),
            (pb, bv.iter().map(|x| x.to_bits()).collect()),
        ],
        expected: vec![(pc, cv)],
    }
}

#[test]
fn stored_dyser_legs_hold_no_program_or_case_copies() {
    let case = case(256);
    let config = |run: usize| RunConfig { max_cycles: CAP + run as u64, ..RunConfig::default() };
    let memo = LegMemo::default();
    // The first run compiles the kernel and interns its programs and case.
    let first = memo.run_kernel(&case, &config(0)).expect("verifies");
    assert!(first.dyser.fabric.fu_fires() > 0, "the DySER leg uses the fabric");
    assert!(first.baseline.cycles.max(first.dyser.cycles) < CAP, "every cap is above the run");
    let stored = memo.stored_legs();

    let before = live();
    for run in 1..=RUNS {
        memo.run_kernel(&case, &config(run)).expect("verifies");
    }
    let per_leg = (live() - before) / LEGS;
    assert_eq!(memo.stored_legs() - stored, LEGS, "each run stores both of its legs");

    // Every leg was stored: replaying all of them builds no `System`.
    let before = allocated();
    for run in 1..=RUNS {
        memo.run_kernel(&case, &config(run)).expect("replays");
    }
    let per_replay = (allocated() - before) / RUNS;

    assert!(
        per_replay < REPLAY_BUDGET,
        "a replayed run allocated {per_replay} bytes, budget {REPLAY_BUDGET}: legs were not stored"
    );
    assert!(
        per_leg < PER_LEG_BUDGET,
        "each stored leg retains {per_leg} bytes, budget {PER_LEG_BUDGET}"
    );
    assert!(per_leg > 0, "stored legs retain their stats");
}
