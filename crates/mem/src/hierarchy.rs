//! The L1I / L1D / L2 / DRAM hierarchy with blocking-access timing.
//!
//! The OpenSPARC T1's memory path (at one thread, as in the prototype's
//! measurements) behaves as a blocking hierarchy: a miss stalls the pipeline
//! until the fill completes. [`Hierarchy::fetch`]/[`load`]/[`store`] return
//! the total stall latency of one access; the pipeline model adds it to the
//! cycle count.
//!
//! [`load`]: Hierarchy::load
//! [`store`]: Hierarchy::store

use crate::cache::{Cache, CacheConfig, CacheStats};
use dyser_trace::{detail, EventKind, TraceBuffer, TraceEvent};

/// Configuration of the whole hierarchy.
///
/// Defaults approximate the prototype's FPGA system *relative to its slow
/// core clock* (OpenSPARC at ~50 MHz): 16 KiB 4-way L1s with 32-byte
/// lines, a 256 KiB 8-way unified L2 at 3 cycles, and ~8-cycle DRAM —
/// DDR latency measured in 20 ns core cycles is small, which is exactly
/// why the prototype's speedups are not memory-bound (see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemConfig {
    /// Instruction L1.
    pub l1i: CacheConfig,
    /// Data L1.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Latency of a DRAM access in cycles.
    pub dram_latency: u64,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            l1i: CacheConfig { sets: 128, ways: 4, line_bytes: 32, hit_latency: 1 },
            l1d: CacheConfig { sets: 128, ways: 4, line_bytes: 32, hit_latency: 1 },
            l2: CacheConfig { sets: 512, ways: 8, line_bytes: 64, hit_latency: 3 },
            dram_latency: 8,
        }
    }
}

impl MemConfig {
    /// A tiny configuration that misses often; useful in tests.
    pub fn tiny() -> Self {
        MemConfig {
            l1i: CacheConfig { sets: 4, ways: 1, line_bytes: 16, hit_latency: 1 },
            l1d: CacheConfig { sets: 4, ways: 1, line_bytes: 16, hit_latency: 1 },
            l2: CacheConfig { sets: 16, ways: 2, line_bytes: 32, hit_latency: 4 },
            dram_latency: 30,
        }
    }

    /// An idealised configuration where every access hits in one cycle.
    ///
    /// Used by the ablation benches to separate compute from memory effects.
    pub fn perfect() -> Self {
        // Giant single-level caches make every non-cold access a hit; with
        // zero fill cost the cold misses cost the L1 latency only.
        MemConfig {
            l1i: CacheConfig { sets: 1 << 16, ways: 8, line_bytes: 64, hit_latency: 1 },
            l1d: CacheConfig { sets: 1 << 16, ways: 8, line_bytes: 64, hit_latency: 1 },
            l2: CacheConfig { sets: 1 << 16, ways: 8, line_bytes: 64, hit_latency: 0 },
            dram_latency: 0,
        }
    }
}

/// Aggregated statistics for the hierarchy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Instruction-L1 counters.
    pub l1i: CacheStats,
    /// Data-L1 counters.
    pub l1d: CacheStats,
    /// Unified-L2 counters.
    pub l2: CacheStats,
    /// Number of DRAM accesses (L2 misses).
    pub dram_accesses: u64,
    /// Total stall cycles charged to instruction fetch.
    pub fetch_cycles: u64,
    /// Total stall cycles charged to data accesses.
    pub data_cycles: u64,
}

impl MemStats {
    /// Stall cycles the hierarchy believes it caused: total access latency
    /// minus the one base cycle per L1 access that overlaps with issue.
    ///
    /// With hit latencies of at least one cycle (all shipped
    /// [`MemConfig`]s) this equals the pipeline's `MemMiss` attribution
    /// bucket exactly; the attribution property tests assert the
    /// cross-check.
    pub fn miss_stall_cycles(&self) -> u64 {
        (self.fetch_cycles + self.data_cycles)
            .saturating_sub(self.l1i.accesses + self.l1d.accesses)
    }
}

/// The blocking L1I/L1D/L2/DRAM hierarchy.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    config: MemConfig,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    dram_accesses: u64,
    fetch_cycles: u64,
    data_cycles: u64,
    /// Event tracer; `None` (the default) keeps the hot path to a single
    /// branch per access.
    tracer: Option<Box<TraceBuffer>>,
    /// Timestamp for trace events, advanced by the owner via [`set_now`].
    ///
    /// [`set_now`]: Hierarchy::set_now
    now: u64,
}

impl Hierarchy {
    /// Creates an empty hierarchy.
    pub fn new(config: MemConfig) -> Self {
        Hierarchy {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            dram_accesses: 0,
            fetch_cycles: 0,
            data_cycles: 0,
            tracer: None,
            now: 0,
        }
    }

    /// Enables cache-miss tracing into a ring buffer of `capacity` events.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Some(Box::new(TraceBuffer::new(capacity)));
    }

    /// Detaches the trace buffer, disabling tracing.
    pub fn take_trace(&mut self) -> Option<Box<TraceBuffer>> {
        self.tracer.take()
    }

    /// Sets the cycle timestamp used for subsequent trace events.
    ///
    /// The hierarchy has no clock of its own; the owning system calls this
    /// once per core tick when tracing is enabled.
    pub fn set_now(&mut self, cycle: u64) {
        self.now = cycle;
    }

    #[inline]
    fn trace_miss(&mut self, addr: u64, which: u32) {
        if let Some(tracer) = self.tracer.as_deref_mut() {
            tracer.record(TraceEvent {
                cycle: self.now,
                kind: EventKind::CacheMiss,
                arg: addr,
                detail: which,
            });
        }
    }

    /// This hierarchy's configuration.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Latency of refilling from L2 (and DRAM beyond it) after an L1 miss.
    fn refill(&mut self, addr: u64, write: bool) -> u64 {
        let out = self.l2.access(addr, write);
        let mut cycles = self.config.l2.hit_latency;
        if !out.hit {
            self.dram_accesses += 1;
            cycles += self.config.dram_latency;
            self.trace_miss(addr, detail::MISS_L2);
        }
        if out.evicted_dirty {
            // Writebacks to DRAM are buffered; they consume bandwidth but
            // not demand latency, so they are counted, not charged.
            self.dram_accesses += 1;
        }
        cycles
    }

    /// Performs an instruction fetch and returns its latency in cycles.
    pub fn fetch(&mut self, addr: u64) -> u64 {
        let out = self.l1i.access(addr, false);
        let mut cycles = self.config.l1i.hit_latency;
        if !out.hit {
            self.trace_miss(addr, detail::MISS_L1I);
            cycles += self.refill(addr, false);
        }
        self.fetch_cycles += cycles;
        cycles
    }

    /// Performs an instruction fetch the caller has proven must hit in
    /// L1I (the line was fetched by this hierarchy since, and only fetch
    /// traffic can evict L1I lines). Returns the hit latency.
    ///
    /// State- and stats-equivalent to [`Hierarchy::fetch`] on a hitting
    /// address, but skips the refill machinery; the compiled backend uses
    /// it for the non-leading instructions of a translated block.
    pub fn fetch_repeat(&mut self, addr: u64) -> u64 {
        self.l1i.repeat_hit(addr);
        let cycles = self.config.l1i.hit_latency;
        self.fetch_cycles += cycles;
        cycles
    }

    /// Performs a data load and returns its latency in cycles.
    pub fn load(&mut self, addr: u64) -> u64 {
        self.data_access(addr, false)
    }

    /// Performs a data store and returns its latency in cycles.
    pub fn store(&mut self, addr: u64) -> u64 {
        self.data_access(addr, true)
    }

    fn data_access(&mut self, addr: u64, write: bool) -> u64 {
        let out = self.l1d.access(addr, write);
        let mut cycles = self.config.l1d.hit_latency;
        if !out.hit {
            self.trace_miss(addr, detail::MISS_L1D);
            cycles += self.refill(addr, write);
        }
        if out.evicted_dirty {
            // L1 dirty victims are written into L2 (allocate, no demand
            // latency — the writeback buffer hides it).
            self.l2.access(addr, true);
        }
        self.data_cycles += cycles;
        cycles
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MemStats {
        MemStats {
            l1i: *self.l1i.stats(),
            l1d: *self.l1d.stats(),
            l2: *self.l2.stats(),
            dram_accesses: self.dram_accesses,
            fetch_cycles: self.fetch_cycles,
            data_cycles: self.data_cycles,
        }
    }

    /// Invalidates all cache levels (statistics are kept).
    pub fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_fetch_costs_more_than_warm() {
        let mut h = Hierarchy::new(MemConfig::default());
        let cold = h.fetch(0x1000);
        let warm = h.fetch(0x1000);
        assert!(cold > warm);
        assert_eq!(warm, h.config().l1i.hit_latency);
        assert_eq!(cold, 1 + 3 + 8, "L1 + L2 + DRAM on a fully cold access");
    }

    #[test]
    fn l2_catches_l1_misses() {
        let mut h = Hierarchy::new(MemConfig::tiny());
        // Touch enough lines to overflow the 64-byte L1 but stay in L2.
        for i in 0..8u64 {
            h.load(i * 16);
        }
        // Re-touch the first line: L1 miss (evicted), L2 hit.
        let lat = h.load(0);
        assert_eq!(lat, 1 + 4, "L1 miss latency plus L2 hit latency");
        let s = h.stats();
        assert!(s.l1d.misses >= 8);
        assert!(s.l2.hits >= 1);
    }

    #[test]
    fn dram_counter_tracks_l2_misses() {
        let mut h = Hierarchy::new(MemConfig::tiny());
        h.load(0);
        h.load(0x10_0000);
        assert_eq!(h.stats().dram_accesses, 2);
    }

    #[test]
    fn fetch_and_data_paths_are_separate() {
        let mut h = Hierarchy::new(MemConfig::default());
        h.fetch(0x2000);
        let lat = h.load(0x2000);
        assert!(lat > h.config().l1d.hit_latency, "L1I fill does not warm L1D");
        // But both hit in the now-warm L2.
        assert_eq!(h.stats().l2.hits, 1);
    }

    #[test]
    fn stats_accumulate_cycles() {
        let mut h = Hierarchy::new(MemConfig::default());
        h.fetch(0);
        h.load(64);
        h.store(64);
        let s = h.stats();
        assert!(s.fetch_cycles > 0);
        assert!(s.data_cycles > 0);
        assert_eq!(s.l1d.accesses, 2);
    }

    #[test]
    fn flush_forces_misses_again() {
        let mut h = Hierarchy::new(MemConfig::default());
        h.load(0);
        h.flush();
        let lat = h.load(0);
        assert!(lat > h.config().l1d.hit_latency);
    }

    #[test]
    fn fetch_repeat_matches_fetch_on_warm_line() {
        let mut via_fetch = Hierarchy::new(MemConfig::default());
        let mut via_repeat = Hierarchy::new(MemConfig::default());
        via_fetch.fetch(0x1000);
        via_repeat.fetch(0x1000);
        for _ in 0..4 {
            let a = via_fetch.fetch(0x1004);
            let b = via_repeat.fetch_repeat(0x1004);
            assert_eq!(a, b);
        }
        assert_eq!(via_fetch.stats(), via_repeat.stats());
    }

    #[test]
    fn perfect_config_is_flat_after_warmup() {
        let mut h = Hierarchy::new(MemConfig::perfect());
        h.load(0);
        assert_eq!(h.load(0), 1);
        assert_eq!(h.load(8), 1, "same line");
    }
}
