//! An idealised perfect-memory hierarchy allocates for the sets its
//! working set touches, not for its nominal capacity: 3 levels x 64K
//! sets x 8 ways of dense line storage would be ~27 MB per hierarchy,
//! and dense set directories alone 768 KiB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dyser_mem::{Hierarchy, MemConfig};

/// The system allocator, counting every byte it hands out.
struct Counting;

thread_local! {
    /// Bytes allocated by this thread, so tests running in parallel do
    /// not count each other's allocations.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCATED.with(|a| a.set(a.get() + bytes));
}

fn allocated() -> usize {
    ALLOCATED.with(Cell::get)
}

// SAFETY: forwards every call to `System` unchanged; the counter has no
// effect on the memory returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Total bytes a perfect-memory hierarchy may allocate over its
/// construction and a kernel-sized run.
const BUDGET: usize = 2 << 20;

/// Bytes a perfect-memory hierarchy may allocate just to exist: its
/// up-front line reservations plus a page index per level, but no set
/// directory.
const CONSTRUCTION_BUDGET: usize = 256 << 10;

#[test]
fn perfect_hierarchy_construction_allocates_no_directory() {
    let before = allocated();
    let hier = Hierarchy::new(MemConfig::perfect());
    let bytes = allocated() - before;
    drop(hier);
    assert!(
        bytes < CONSTRUCTION_BUDGET,
        "construction allocated {bytes} bytes, budget {CONSTRUCTION_BUDGET}"
    );
}

#[test]
fn perfect_hierarchy_allocates_for_its_working_set() {
    let before = allocated();
    let mut hier = Hierarchy::new(MemConfig::perfect());
    // A kernel-shaped stream: a 1 KiB code loop reading two 16 KiB
    // arrays and writing a third, plus a few scattered stack words.
    for i in 0..4096u64 {
        hier.fetch(0x1_0000 + (i * 4) % 1024);
        let word = (i * 8) % (16 << 10);
        hier.load(0x10_0000 + word);
        hier.load(0x20_0000 + word);
        hier.store(0x30_0000 + word);
        if i % 64 == 0 {
            hier.store(0x60_0000 - 8 * (i / 64));
        }
    }
    let bytes = allocated() - before;
    let s = hier.stats();
    assert_eq!(s.l1d.accesses, 3 * 4096 + 64);
    assert_eq!(s.l2.misses, s.l1i.misses + s.l1d.misses, "only cold misses");
    assert!(bytes < BUDGET, "allocated {bytes} bytes, budget {BUDGET}");
}
