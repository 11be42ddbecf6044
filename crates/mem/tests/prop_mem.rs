//! Randomized tests for the memory substrate, driven by the seeded
//! in-workspace PRNG so runs are reproducible everywhere.

use dyser_mem::cache::AccessOutcome;
use dyser_mem::{Cache, CacheConfig, CacheStats, Hierarchy, MemConfig, MemStats, Memory};
use dyser_rng::Rng64;

#[test]
fn memory_readback_u64() {
    let mut rng = Rng64::seed_from_u64(0x3E3_0001);
    for _ in 0..200 {
        let count = rng.gen_range(1usize..50);
        let mut mem = Memory::new();
        // Align to 8 so later writes can't partially overlap earlier ones
        // in a way the model under test shouldn't have to disambiguate.
        let mut last = std::collections::HashMap::new();
        for _ in 0..count {
            let a = rng.gen_range(0u64..0x10_0000) & !7;
            let val = rng.next_u64();
            mem.write_u64(a, val);
            last.insert(a, val);
        }
        for (a, v) in last {
            assert_eq!(mem.read_u64(a), v);
        }
    }
}

#[test]
fn memory_bytes_compose_words() {
    let mut rng = Rng64::seed_from_u64(0x3E3_0002);
    for _ in 0..500 {
        let addr = rng.gen_range(0u64..0x1_0000);
        let val = rng.next_u64();
        let mut mem = Memory::new();
        mem.write_u64(addr, val);
        let mut rebuilt = 0u64;
        for i in 0..8 {
            rebuilt = (rebuilt << 8) | u64::from(mem.read_u8(addr + i));
        }
        assert_eq!(rebuilt, val, "big-endian byte composition");
    }
}

#[test]
fn cache_counters_are_consistent() {
    let mut rng = Rng64::seed_from_u64(0x3E3_0003);
    for _ in 0..100 {
        let count = rng.gen_range(1usize..200);
        let mut c = Cache::new(CacheConfig { sets: 8, ways: 2, line_bytes: 32, hit_latency: 1 });
        for i in 0..count {
            let a = rng.gen_range(0u64..0x4000);
            c.access(a, i % 2 == 0);
        }
        let s = c.stats();
        assert_eq!(s.accesses, count as u64);
        assert_eq!(s.hits + s.misses, s.accesses);
        assert!(s.writebacks <= s.misses, "only misses can evict");
    }
}

#[test]
fn cache_repeat_access_hits() {
    let mut rng = Rng64::seed_from_u64(0x3E3_0004);
    for _ in 0..500 {
        let addr = rng.gen_range(0u64..0x10_0000);
        let mut c = Cache::new(CacheConfig { sets: 8, ways: 2, line_bytes: 32, hit_latency: 1 });
        c.access(addr, false);
        assert!(c.access(addr, false).hit);
    }
}

#[test]
fn hierarchy_latency_is_bounded() {
    let mut rng = Rng64::seed_from_u64(0x3E3_0005);
    for _ in 0..50 {
        let count = rng.gen_range(1usize..100);
        let cfg = MemConfig::default();
        let max = cfg.l1d.hit_latency + cfg.l2.hit_latency + cfg.dram_latency;
        let mut h = Hierarchy::new(cfg);
        for _ in 0..count {
            let a = rng.gen_range(0u64..0x10_0000);
            let lat = h.load(a);
            assert!(lat >= cfg.l1d.hit_latency && lat <= max, "latency {lat} out of bounds");
        }
    }
}

#[test]
fn hierarchy_is_deterministic() {
    let mut rng = Rng64::seed_from_u64(0x3E3_0006);
    for _ in 0..50 {
        let count = rng.gen_range(1usize..100);
        let addrs: Vec<u64> = (0..count).map(|_| rng.gen_range(0u64..0x10_0000)).collect();
        let mut h1 = Hierarchy::new(MemConfig::tiny());
        let mut h2 = Hierarchy::new(MemConfig::tiny());
        for a in &addrs {
            assert_eq!(h1.load(*a), h2.load(*a));
        }
    }
}

// ---------------------------------------------------------------------
// Equivalence with the dense layout. `Cache` gives a set its lines on
// first touch; the oracle below is the layout it replaced, with every
// set's lines allocated up front and indexed `set * ways + way`. Both
// must produce the same outcome and counters at every access.

/// The dense structure-of-arrays cache: same LRU and victim rules.
struct DenseCache {
    config: CacheConfig,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    tick: u64,
    stats: CacheStats,
}

impl DenseCache {
    fn new(config: CacheConfig) -> Self {
        let lines = config.sets * config.ways;
        DenseCache {
            config,
            tags: vec![0; lines],
            stamps: vec![0; lines],
            dirty: vec![false; lines],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The set's line indices and the address's tag.
    fn lines(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line = addr / self.config.line_bytes;
        let set = (line as usize) & (self.config.sets - 1);
        let base = set * self.config.ways;
        (base..base + self.config.ways, line / self.config.sets as u64)
    }

    fn find(&self, addr: u64) -> Option<usize> {
        let (lines, tag) = self.lines(addr);
        lines.into_iter().find(|&i| self.stamps[i] != 0 && self.tags[i] == tag)
    }

    fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.tick += 1;
        self.stats.accesses += 1;
        if let Some(i) = self.find(addr) {
            self.stamps[i] = self.tick;
            self.dirty[i] |= write;
            self.stats.hits += 1;
            return AccessOutcome { hit: true, evicted_dirty: false };
        }
        self.stats.misses += 1;
        let (lines, tag) = self.lines(addr);
        let victim = lines.min_by_key(|&i| self.stamps[i]).expect("ways > 0");
        let evicted_dirty = self.stamps[victim] != 0 && self.dirty[victim];
        self.stats.writebacks += u64::from(evicted_dirty);
        self.tags[victim] = tag;
        self.dirty[victim] = write;
        self.stamps[victim] = self.tick;
        AccessOutcome { hit: false, evicted_dirty }
    }

    fn repeat_hit(&mut self, addr: u64) {
        self.tick += 1;
        self.stats.accesses += 1;
        self.stats.hits += 1;
        let i = self.find(addr).expect("repeat_hit on a resident line");
        self.stamps[i] = self.tick;
    }

    fn probe(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    fn flush(&mut self) {
        self.stamps.fill(0);
    }
}

/// The blocking hierarchy over dense caches, as `Hierarchy` composes it.
struct DenseHierarchy {
    config: MemConfig,
    l1i: DenseCache,
    l1d: DenseCache,
    l2: DenseCache,
    dram_accesses: u64,
    fetch_cycles: u64,
    data_cycles: u64,
}

impl DenseHierarchy {
    fn new(config: MemConfig) -> Self {
        DenseHierarchy {
            config,
            l1i: DenseCache::new(config.l1i),
            l1d: DenseCache::new(config.l1d),
            l2: DenseCache::new(config.l2),
            dram_accesses: 0,
            fetch_cycles: 0,
            data_cycles: 0,
        }
    }

    fn refill(&mut self, addr: u64, write: bool) -> u64 {
        let out = self.l2.access(addr, write);
        let mut cycles = self.config.l2.hit_latency;
        if !out.hit {
            self.dram_accesses += 1;
            cycles += self.config.dram_latency;
        }
        self.dram_accesses += u64::from(out.evicted_dirty);
        cycles
    }

    fn fetch(&mut self, addr: u64) -> u64 {
        let mut cycles = self.config.l1i.hit_latency;
        if !self.l1i.access(addr, false).hit {
            cycles += self.refill(addr, false);
        }
        self.fetch_cycles += cycles;
        cycles
    }

    fn fetch_repeat(&mut self, addr: u64) -> u64 {
        self.l1i.repeat_hit(addr);
        self.fetch_cycles += self.config.l1i.hit_latency;
        self.config.l1i.hit_latency
    }

    fn data(&mut self, addr: u64, write: bool) -> u64 {
        let out = self.l1d.access(addr, write);
        let mut cycles = self.config.l1d.hit_latency;
        if !out.hit {
            cycles += self.refill(addr, write);
        }
        if out.evicted_dirty {
            self.l2.access(addr, true);
        }
        self.data_cycles += cycles;
        cycles
    }

    fn stats(&self) -> MemStats {
        MemStats {
            l1i: self.l1i.stats,
            l1d: self.l1d.stats,
            l2: self.l2.stats,
            dram_accesses: self.dram_accesses,
            fetch_cycles: self.fetch_cycles,
            data_cycles: self.data_cycles,
        }
    }

    fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
    }
}

/// A direct-mapped hierarchy: every conflict evicts.
fn one_way() -> MemConfig {
    MemConfig {
        l1i: CacheConfig { sets: 64, ways: 1, line_bytes: 32, hit_latency: 1 },
        l1d: CacheConfig { sets: 64, ways: 1, line_bytes: 32, hit_latency: 1 },
        l2: CacheConfig { sets: 256, ways: 1, line_bytes: 64, hit_latency: 3 },
        dram_latency: 8,
    }
}

/// The hierarchies under test, with a label for failure messages.
fn geometries() -> [(&'static str, MemConfig); 4] {
    [
        ("default", MemConfig::default()),
        ("tiny", MemConfig::tiny()),
        ("perfect", MemConfig::perfect()),
        ("one-way", one_way()),
    ]
}

/// Draws addresses half from a few hot sets of `outer` — more distinct
/// lines than its ways, so LRU eviction and dirty writebacks occur — and
/// half uniformly, landing in sets touched for the first time.
fn address(rng: &mut Rng64, outer: &CacheConfig) -> u64 {
    let stride = outer.sets as u64 * outer.line_bytes;
    if rng.gen_bool(0.5) {
        let set = rng.gen_range(0u64..3) * 5 % outer.sets as u64;
        let way = rng.gen_range(0..outer.ways as u64 + 3);
        way * stride + set * outer.line_bytes + rng.gen_range(0..outer.line_bytes)
    } else {
        rng.gen_range(0..16 * stride)
    }
}

#[test]
fn cache_matches_the_dense_layout() {
    for (seed, (label, mem)) in geometries().into_iter().enumerate() {
        for config in [mem.l1d, mem.l2] {
            let mut rng = Rng64::seed_from_u64(0x3E3_0100 + seed as u64);
            let mut cache = Cache::new(config);
            let mut oracle = DenseCache::new(config);
            let mut touched = Vec::new();
            let mut repeats = 0;
            for step in 0..6000 {
                let at = format!("{label} {config:?} step {step}");
                let addr = address(&mut rng, &config);
                match rng.gen_range(0u32..100) {
                    0..=69 => {
                        let write = rng.gen_bool(0.4);
                        assert_eq!(cache.access(addr, write), oracle.access(addr, write), "{at}");
                        touched.push(addr);
                    }
                    70..=84 => {
                        // Repeat a recent line, if the oracle still holds it.
                        let back = rng.gen_range(0..8usize);
                        if let Some(&prev) = touched.iter().rev().nth(back) {
                            if oracle.probe(prev) {
                                cache.repeat_hit(prev);
                                oracle.repeat_hit(prev);
                                repeats += 1;
                            }
                        }
                    }
                    85..=98 => assert_eq!(cache.probe(addr), oracle.probe(addr), "{at}"),
                    _ => {
                        cache.flush();
                        oracle.flush();
                    }
                }
                assert_eq!(cache.stats(), &oracle.stats, "{at}");
            }
            assert!(oracle.stats.writebacks > 0, "{label}: dirty evictions occurred");
            assert!(repeats > 100, "{label}: only {repeats} repeat hits");
        }
    }
}

#[test]
fn hierarchy_matches_the_dense_layout() {
    for (seed, (label, mem)) in geometries().into_iter().enumerate() {
        let mut rng = Rng64::seed_from_u64(0x3E3_0200 + seed as u64);
        let mut hier = Hierarchy::new(mem);
        let mut oracle = DenseHierarchy::new(mem);
        let mut fetched = 0;
        let mut repeats = 0;
        for step in 0..6000 {
            let at = format!("{label} step {step}");
            let addr = address(&mut rng, &mem.l2);
            let (got, want) = match rng.gen_range(0u32..100) {
                0..=29 => {
                    fetched = addr;
                    (hier.fetch(addr), oracle.fetch(addr))
                }
                // The next word of the last fetch, while its line is resident.
                30..=44 if oracle.l1i.probe(fetched + 4) => {
                    fetched += 4;
                    repeats += 1;
                    (hier.fetch_repeat(fetched), oracle.fetch_repeat(fetched))
                }
                30..=64 => (hier.load(addr), oracle.data(addr, false)),
                65..=98 => (hier.store(addr), oracle.data(addr, true)),
                _ => {
                    hier.flush();
                    oracle.flush();
                    (0, 0)
                }
            };
            assert_eq!(got, want, "{at}: latency");
            assert_eq!(hier.stats(), oracle.stats(), "{at}");
        }
        assert!(oracle.l2.stats.writebacks > 0, "{label}: L2 evicted dirty lines");
        assert!(repeats > 100, "{label}: only {repeats} repeated fetches");
    }
}
