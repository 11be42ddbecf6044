//! A timing-only set-associative cache model.
//!
//! The cache tracks tags, dirtiness, and true-LRU recency; it does not hold
//! data (the functional store is [`crate::Memory`]). An access reports
//! whether it hit and whether a dirty victim was evicted; the
//! [`crate::Hierarchy`] turns those outcomes into latencies.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u64,
    /// Latency of a hit, in cycles.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }
}

/// Outcome of a single cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// The access hit in this level.
    pub hit: bool,
    /// A dirty line was evicted to make room (miss only).
    pub evicted_dirty: bool,
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; zero when there were no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Lines reserved at construction: every set of the shipped default and
/// tiny geometries fits, so those caches allocate their lines once.
const RESERVED_LINES: usize = 4096;

/// Sets per directory page. A cache with fewer sets has one page of
/// `sets` entries.
const PAGE_SETS: usize = 1024;

/// A set-associative, write-back, write-allocate cache with true LRU.
///
/// Lines are stored structure-of-arrays in flat per-field vectors; a line
/// is valid iff its recency stamp is nonzero (the tick counter
/// pre-increments, so live stamps start at 1). A set owns no lines until
/// it is first touched: its directory entry holds one past the index of
/// its first line, zero meaning never touched, and a first touch appends
/// `ways` invalid lines. The directory itself is paged the same way: a
/// page of [`PAGE_SETS`] entries is appended on the first touch of any of
/// its sets, and `pages` maps each page to one past its offset in `dir`.
/// Construction therefore costs a `u32` per page plus a small up-front
/// line reservation, and the huge idealised configurations
/// (`MemConfig::perfect`, 64K sets x 8 ways) only ever hold the pages and
/// sets their working set maps to. A dense directory would cost 256 KiB
/// per such cache, and dense lines ~9 MB, on every construction: the
/// allocator recycles freed blocks, so it zeroes them rather than handing
/// back untouched zero pages.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// Per-page offset into `dir` plus one; zero marks a page none of
    /// whose sets has been touched.
    pages: Vec<u32>,
    /// Directory pages: per-set line offset plus one; zero marks a set
    /// never touched.
    dir: Vec<u32>,
    /// Line tags; meaningful only where `stamps` is nonzero.
    tags: Vec<u64>,
    /// Recency stamps (larger = more recent); zero marks an invalid way.
    stamps: Vec<u64>,
    /// Dirty flags; meaningful only where `stamps` is nonzero.
    dirty: Vec<u8>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line_bytes` is not a power of two, if any
    /// dimension is zero, or if `sets * ways` does not fit in a `u32`.
    pub fn new(config: CacheConfig) -> Self {
        assert!(config.sets.is_power_of_two(), "set count must be a power of two");
        assert!(config.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(config.ways > 0, "associativity must be non-zero");
        let lines = config
            .sets
            .checked_mul(config.ways)
            .filter(|&n| u32::try_from(n).is_ok())
            .expect("sets * ways must fit in a u32");
        let reserve = lines.min(RESERVED_LINES);
        Cache {
            config,
            pages: vec![0; config.sets.div_ceil(PAGE_SETS)],
            dir: Vec::new(),
            tags: Vec::with_capacity(reserve),
            stamps: Vec::with_capacity(reserve),
            dirty: Vec::with_capacity(reserve),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// This cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The line-aligned address of the line containing `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.config.line_bytes - 1)
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        // Both sizes are powers of two (checked in `new`): shift, don't divide.
        let line = addr >> self.config.line_bytes.trailing_zeros();
        let set = (line as usize) & (self.config.sets - 1);
        let tag = line >> self.config.sets.trailing_zeros();
        (set, tag)
    }

    /// The index of `set`'s directory entry, if its page exists.
    fn slot(&self, set: usize) -> Option<usize> {
        let page = (self.pages[set / PAGE_SETS] as usize).checked_sub(1)?;
        Some(page + set % PAGE_SETS)
    }

    /// The index of `set`'s first line, if the set has been touched.
    fn base(&self, set: usize) -> Option<usize> {
        (self.dir[self.slot(set)?] as usize).checked_sub(1)
    }

    /// Gives a never-touched `set` its `ways` invalid lines, and its
    /// directory page if that is new too; returns the index of the first
    /// line.
    #[cold]
    fn alloc_set(&mut self, set: usize) -> usize {
        let slot = self.slot(set).unwrap_or_else(|| {
            let page = self.dir.len();
            self.dir.resize(page + self.config.sets.min(PAGE_SETS), 0);
            // `new` bounds sets by u32::MAX, so page + 1 fits.
            self.pages[set / PAGE_SETS] = page as u32 + 1;
            page + set % PAGE_SETS
        });
        let base = self.stamps.len();
        let end = base + self.config.ways;
        self.tags.resize(end, 0);
        self.stamps.resize(end, 0);
        self.dirty.resize(end, 0);
        // `new` bounds sets * ways by u32::MAX, so base + 1 fits.
        self.dir[slot] = base as u32 + 1;
        base
    }

    /// The index of the resident line holding `tag` in the set at `base`.
    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        (base..base + self.config.ways).find(|&i| self.stamps[i] != 0 && self.tags[i] == tag)
    }

    /// Performs one access, allocating the line on a miss.
    pub fn access(&mut self, addr: u64, write: bool) -> AccessOutcome {
        self.tick += 1;
        self.stats.accesses += 1;
        let (set_idx, tag) = self.set_and_tag(addr);
        let base = self.base(set_idx).unwrap_or_else(|| self.alloc_set(set_idx));

        if let Some(i) = self.find(base, tag) {
            self.stamps[i] = self.tick;
            self.dirty[i] |= u8::from(write);
            self.stats.hits += 1;
            return AccessOutcome { hit: true, evicted_dirty: false };
        }

        self.stats.misses += 1;
        // Invalid ways carry stamp zero — below every live stamp — and
        // ties break toward the lower index, so this picks the first
        // invalid way when one exists and the true LRU line otherwise.
        let victim = (base..base + self.config.ways)
            .min_by_key(|&i| self.stamps[i])
            .expect("associativity is non-zero");
        let evicted_dirty = self.stamps[victim] != 0 && self.dirty[victim] != 0;
        if evicted_dirty {
            self.stats.writebacks += 1;
        }
        self.tags[victim] = tag;
        self.dirty[victim] = u8::from(write);
        self.stamps[victim] = self.tick;
        AccessOutcome { hit: false, evicted_dirty }
    }

    /// Records one access that the caller has proven must hit (the line
    /// was touched by this cache since, and nothing in between could have
    /// evicted it). State- and stats-equivalent to calling
    /// [`Cache::access`] with `write = false`: the tick advances, the hit
    /// is counted, and the line's recency stamp moves to the new tick —
    /// intermediate stamps of a run of repeats are unobservable because
    /// only the final stamp participates in later LRU decisions.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the line is not resident.
    pub fn repeat_hit(&mut self, addr: u64) {
        self.tick += 1;
        self.stats.accesses += 1;
        self.stats.hits += 1;
        let (set_idx, tag) = self.set_and_tag(addr);
        let line = self.base(set_idx).and_then(|base| self.find(base, tag));
        debug_assert!(line.is_some(), "repeat_hit on non-resident line {addr:#x}");
        if let Some(i) = line {
            self.stamps[i] = self.tick;
        }
    }

    /// Whether the line containing `addr` is currently resident (no state
    /// change; useful for tests and warm-up checks).
    pub fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.set_and_tag(addr);
        self.base(set_idx).and_then(|base| self.find(base, tag)).is_some()
    }

    /// Invalidates all lines and forgets dirtiness (no writeback modelling;
    /// used between benchmark runs).
    pub fn flush(&mut self) {
        self.stamps.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig { sets: 4, ways: 2, line_bytes: 16, hit_latency: 1 })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x10F, false).hit, "same line");
        assert!(!c.access(0x110, false).hit, "next line");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = sets*line = 64).
        let (a, b, d) = (0x000, 0x040, 0x080);
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is now most recent
        c.access(d, false); // evicts b (LRU)
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = small();
        let (a, b, d) = (0x000, 0x040, 0x080);
        c.access(a, true); // dirty
        c.access(b, false);
        let out = c.access(d, false); // evicts a (LRU, dirty)
        assert!(out.evicted_dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        let (a, b, d) = (0x000, 0x040, 0x080);
        c.access(a, false);
        c.access(a, true); // dirty via write hit
        c.access(b, false);
        c.access(b, false); // b most recent; a is LRU
        let out = c.access(d, false);
        assert!(out.evicted_dirty, "write-hit dirtied the line");
    }

    #[test]
    fn repeat_hit_equivalent_to_access() {
        let mut via_access = small();
        let mut via_repeat = small();
        for c in [&mut via_access, &mut via_repeat] {
            c.access(0x000, false);
            c.access(0x040, false);
        }
        for _ in 0..3 {
            via_access.access(0x044, false);
            via_repeat.repeat_hit(0x044);
        }
        assert_eq!(via_access.stats(), via_repeat.stats());
        // Recency must match too: 0x000 is LRU in both, so a conflicting
        // fill evicts the same victim.
        via_access.access(0x080, false);
        via_repeat.access(0x080, false);
        assert_eq!(via_access.probe(0x000), via_repeat.probe(0x000));
        assert_eq!(via_access.probe(0x040), via_repeat.probe(0x040));
    }

    #[test]
    fn stats_are_consistent() {
        let mut c = small();
        for i in 0..100u64 {
            c.access(i * 8, i % 3 == 0);
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, s.accesses);
        assert!(s.miss_rate() > 0.0 && s.miss_rate() <= 1.0);
    }

    #[test]
    fn flush_empties() {
        let mut c = small();
        c.access(0, false);
        assert!(c.probe(0));
        c.flush();
        assert!(!c.probe(0));
    }

    #[test]
    fn sets_get_lines_on_first_touch_only() {
        let cfg = CacheConfig { sets: 1 << 16, ways: 8, line_bytes: 64, hit_latency: 1 };
        let mut c = Cache::new(cfg);
        assert!(c.tags.capacity() <= RESERVED_LINES);
        assert_eq!(c.pages.len(), (1 << 16) / PAGE_SETS);
        assert!(!c.probe(0x40));
        assert!(c.stamps.is_empty() && c.dir.is_empty(), "probes allocate nothing");
        c.access(0x40, false);
        assert_eq!(c.dir.len(), PAGE_SETS, "the first touch brings in one page");
        c.access(0x40 + (64 << 16), true); // same set, next tag
        c.access(0x80, false); // next set, same page
        assert_eq!(c.stamps.len(), 2 * 8);
        assert_eq!(c.dir.len(), PAGE_SETS, "a page's later sets reuse it");
        let far = 64 * PAGE_SETS as u64 * 5; // set 5 * PAGE_SETS: page 5
        assert!(!c.probe(far));
        assert_eq!(c.dir.len(), PAGE_SETS, "probing an absent page allocates nothing");
        c.access(far, false);
        c.access(far + 64, false); // next set, same page
        assert_eq!(c.dir.len(), 2 * PAGE_SETS);
        assert_eq!(c.stamps.len(), 4 * 8);
        assert!(c.probe(0x40) && c.probe(0x40 + (64 << 16)) && c.probe(0x80));
        assert!(c.probe(far) && c.probe(far + 64) && !c.probe(far + 128));
    }

    #[test]
    fn small_caches_use_one_short_page() {
        let mut c = small();
        assert_eq!(c.pages.len(), 1);
        c.access(0x30, false); // set 3
        assert_eq!(c.dir.len(), 4, "a page never outgrows the set count");
    }

    #[test]
    fn capacity() {
        let cfg = CacheConfig { sets: 64, ways: 4, line_bytes: 32, hit_latency: 1 };
        assert_eq!(cfg.capacity(), 8192);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        let _ = Cache::new(CacheConfig { sets: 3, ways: 1, line_bytes: 16, hit_latency: 1 });
    }
}
