//! Set-associative LRU caches and miss-status holding registers.
//!
//! Timing-only (tags, no data). One [`Cache`] type serves both the per-SM
//! L1 (32 KB, 8-way) and the per-partition L2 slice (128 KB, 16-way) of
//! Table II. The [`Mshr`] merges concurrent misses to the same line; the
//! waiter type is generic so the L1 can track (warp, load) pairs and the
//! L2 can track original request identities.

use ldsim_types::config::CacheConfig;
use ldsim_util::FnvHashMap;

#[derive(Debug, Clone, Copy, Default)]
struct TagEntry {
    line: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub dirty_evictions: u64,
}

/// A tag-only set-associative LRU cache, addressed by line number.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    ways: usize,
    tags: Vec<TagEntry>,
    tick: u64,
    pub stats: CacheStats,
}

impl Cache {
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Self {
            sets,
            ways: cfg.ways,
            tags: vec![TagEntry::default(); sets * cfg.ways],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line as usize) & (self.sets - 1)
    }

    /// Probe for `line`; on hit, refresh LRU and optionally mark dirty.
    pub fn probe(&mut self, line: u64, mark_dirty: bool) -> bool {
        self.tick += 1;
        let s = self.set_of(line);
        let base = s * self.ways;
        for e in &mut self.tags[base..base + self.ways] {
            if e.valid && e.line == line {
                e.lru = self.tick;
                e.dirty |= mark_dirty;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Account a probe the caller has already classified as a miss (via
    /// [`Self::contains`], with no intervening mutation): advances the LRU
    /// clock and the miss counter exactly as the miss path of
    /// [`Self::probe`] would — including the clock tick, which future
    /// hits/fills embed in their recency stamps — without re-scanning the
    /// set.
    #[inline]
    pub fn probe_known_miss(&mut self, line: u64) {
        debug_assert!(!self.contains(line), "probe_known_miss on a resident line");
        let _ = line;
        self.tick += 1;
        self.stats.misses += 1;
    }

    /// Probe without updating LRU or stats (lookup-only).
    pub fn contains(&self, line: u64) -> bool {
        let s = self.set_of(line);
        let base = s * self.ways;
        self.tags[base..base + self.ways]
            .iter()
            .any(|e| e.valid && e.line == line)
    }

    /// Insert `line`, evicting the LRU way if the set is full. Returns the
    /// evicted line and its dirty bit, if any.
    pub fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        self.tick += 1;
        let s = self.set_of(line);
        let base = s * self.ways;
        // Already present (e.g. two in-flight fills to one line): refresh.
        for e in &mut self.tags[base..base + self.ways] {
            if e.valid && e.line == line {
                e.lru = self.tick;
                e.dirty |= dirty;
                return None;
            }
        }
        // Prefer a free way; otherwise evict the LRU way.
        let mut victim = base;
        let mut best = u64::MAX;
        for (i, e) in self.tags[base..base + self.ways].iter().enumerate() {
            if !e.valid {
                victim = base + i;
                break;
            }
            if e.lru < best {
                best = e.lru;
                victim = base + i;
            }
        }
        let old = self.tags[victim];
        self.tags[victim] = TagEntry {
            line,
            valid: true,
            dirty,
            lru: self.tick,
        };
        if old.valid {
            self.stats.evictions += 1;
            if old.dirty {
                self.stats.dirty_evictions += 1;
            }
            Some((old.line, old.dirty))
        } else {
            None
        }
    }

    /// Drop `line` if present (store-invalidate in the L1).
    pub fn invalidate(&mut self, line: u64) {
        let s = self.set_of(line);
        let base = s * self.ways;
        for e in &mut self.tags[base..base + self.ways] {
            if e.valid && e.line == line {
                e.valid = false;
                return;
            }
        }
    }
}

/// Outcome of registering a miss with the MSHR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// New entry allocated: the caller must send the request downstream.
    Allocated,
    /// Merged into an in-flight entry: no downstream request.
    Merged,
    /// MSHR full: the access must be retried later.
    Full,
}

/// Waiters on one in-flight line. The single-waiter case — the vast
/// majority, since merges are the exception — stays inline, so registering
/// a miss allocates nothing; a `Vec` appears only once a second waiter
/// merges in.
#[derive(Debug, Clone)]
enum Waiters<W> {
    One(W),
    Many(Vec<W>),
}

impl<W> Waiters<W> {
    fn as_slice(&self) -> &[W] {
        match self {
            Waiters::One(w) => std::slice::from_ref(w),
            Waiters::Many(v) => v,
        }
    }
}

/// Draining iterator over a filled line's waiters (see [`Mshr::fill`]).
pub struct FillIter<W>(FillInner<W>);

enum FillInner<W> {
    Empty,
    One(Option<W>),
    Many(std::vec::IntoIter<W>),
}

impl<W> Iterator for FillIter<W> {
    type Item = W;

    fn next(&mut self) -> Option<W> {
        match &mut self.0 {
            FillInner::Empty => None,
            FillInner::One(w) => w.take(),
            FillInner::Many(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.0 {
            FillInner::Empty => 0,
            FillInner::One(w) => usize::from(w.is_some()),
            FillInner::Many(it) => it.len(),
        };
        (n, Some(n))
    }
}

impl<W> ExactSizeIterator for FillIter<W> {}

/// Miss-status holding registers: one entry per in-flight missed line, each
/// holding the waiters to notify on fill.
#[derive(Debug, Clone)]
pub struct Mshr<W> {
    capacity: usize,
    /// Keyed lookups only — never iterated, so the cheap deterministic
    /// hasher cannot influence simulation results.
    entries: FnvHashMap<u64, Waiters<W>>,
    pub merges: u64,
}

impl<W> Mshr<W> {
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: FnvHashMap::with_capacity_and_hasher(capacity, Default::default()),
            merges: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Would registering a miss on `line` need a new entry, and is there
    /// room? (Query without mutation, for all-or-nothing load issue.)
    pub fn can_accept(&self, line: u64) -> bool {
        self.entries.contains_key(&line) || self.entries.len() < self.capacity
    }

    pub fn in_flight(&self, line: u64) -> bool {
        self.entries.contains_key(&line)
    }

    /// Register a miss on `line` with `waiter`.
    pub fn register(&mut self, line: u64, waiter: W) -> MshrOutcome {
        let full = self.entries.len() >= self.capacity;
        match self.entries.entry(line) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                match e.get_mut() {
                    Waiters::Many(v) => v.push(waiter),
                    slot => {
                        let Waiters::One(first) =
                            std::mem::replace(slot, Waiters::Many(Vec::with_capacity(2)))
                        else {
                            unreachable!()
                        };
                        let Waiters::Many(v) = slot else {
                            unreachable!()
                        };
                        v.push(first);
                        v.push(waiter);
                    }
                }
                self.merges += 1;
                MshrOutcome::Merged
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                if full {
                    return MshrOutcome::Full;
                }
                v.insert(Waiters::One(waiter));
                MshrOutcome::Allocated
            }
        }
    }

    /// The line's data arrived: pop and drain every waiter. Allocation-free
    /// for the common single-waiter entry.
    pub fn fill(&mut self, line: u64) -> FillIter<W> {
        FillIter(match self.entries.remove(&line) {
            None => FillInner::Empty,
            Some(Waiters::One(w)) => FillInner::One(Some(w)),
            Some(Waiters::Many(v)) => FillInner::Many(v.into_iter()),
        })
    }

    /// Current waiters on an in-flight line (empty slice if none).
    pub fn waiters(&self, line: u64) -> &[W] {
        self.entries.get(&line).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldsim_types::config::CacheConfig;

    fn small() -> Cache {
        Cache::new(&CacheConfig {
            size_bytes: 4 * 128 * 2, // 2 sets x 4 ways
            line_bytes: 128,
            ways: 4,
            mshr_entries: 4,
            latency: 1,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small();
        assert!(!c.probe(10, false));
        c.fill(10, false);
        assert!(c.probe(10, false));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Fill one set (lines = 2k for set 0): 4 ways.
        for i in 0..4u64 {
            c.fill(i * 2, false);
        }
        // Touch lines 0,2,4 so 6 is LRU.
        c.probe(0, false);
        c.probe(2, false);
        c.probe(4, false);
        let evicted = c.fill(8, false).unwrap();
        assert_eq!(evicted, (6, false));
        assert!(!c.contains(6));
        assert!(c.contains(8));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = small();
        for i in 0..4u64 {
            c.fill(i * 2, i == 0);
        }
        // Evict them all by filling 4 new lines in the same set.
        let mut dirty_seen = 0;
        for i in 4..8u64 {
            if let Some((_, d)) = c.fill(i * 2, false) {
                if d {
                    dirty_seen += 1;
                }
            }
        }
        assert_eq!(dirty_seen, 1);
        assert_eq!(c.stats.dirty_evictions, 1);
    }

    #[test]
    fn probe_mark_dirty_persists() {
        let mut c = small();
        c.fill(10, false);
        assert!(c.probe(10, true));
        // Evict it and observe the dirty bit.
        for i in 0..4u64 {
            c.fill(10 + (i + 1) * 2, false);
        }
        assert_eq!(c.stats.dirty_evictions, 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.fill(10, true);
        c.invalidate(10);
        assert!(!c.contains(10));
        // Invalidation is not an eviction.
        assert_eq!(c.stats.evictions, 0);
    }

    #[test]
    fn mshr_merge_and_fill() {
        let mut m: Mshr<u32> = Mshr::new(2);
        assert_eq!(m.register(5, 1), MshrOutcome::Allocated);
        assert_eq!(m.register(5, 2), MshrOutcome::Merged);
        assert_eq!(m.register(6, 3), MshrOutcome::Allocated);
        assert_eq!(m.register(7, 4), MshrOutcome::Full);
        assert!(m.can_accept(5), "existing line always accepts");
        assert!(!m.can_accept(7));
        assert_eq!(m.waiters(5), &[1, 2]);
        assert_eq!(m.fill(5).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(m.fill(5).count(), 0);
        assert_eq!(m.merges, 1);
        assert_eq!(m.len(), 1);
        assert_eq!(m.waiters(6), &[3]);
        assert_eq!(m.fill(6).collect::<Vec<_>>(), vec![3]);
    }
}
