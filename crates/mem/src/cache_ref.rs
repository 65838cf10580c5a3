//! Reference caches: the executable specifications the fast-path
//! [`SetAssocCache`](crate::cache::SetAssocCache) and the lazily warmed
//! [`DirectMappedCache`](crate::cache::DirectMappedCache) are proven
//! against.
//!
//! This is the original array-of-structs implementation, retained
//! verbatim (the same pattern as `StepMode::Reference` and
//! `ExecMode::Reference`): a flat `Line` array, a linear way scan per
//! access, and two 64-bit divisions per address split. The
//! differential proptests (`crates/mem/tests/mem_fast_path.rs`) drive
//! random access streams through both models under every
//! [`VictimPolicy`] and assert access-for-access equality of results
//! and counters; the `mem_path` microbench times the two against each
//! other so the fast path's speedup is a measured number, not a claim.
//!
//! [`DirectMappedCacheRef`] keeps the eager warm-up: one table entry per
//! prefilled line. The lazy model answers untouched sets from warm
//! intervals instead; `crates/mem/tests/cache_properties.rs` drives both
//! through random prefills, access streams and invalidations.

use crate::cache::{AccessResult, VictimPolicy};
use lightwsp_ir::fxhash::FxHashMap;

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_use: u64,
}

/// The specification cache model (array-of-structs, full way scans).
#[derive(Clone, Debug)]
pub struct SetAssocCacheRef {
    lines: Vec<Line>,
    num_sets: usize,
    ways: usize,
    line_bytes: u64,
    tick: u64,
    hits: u64,
    misses: u64,
    snoops: u64,
    conflicts: u64,
}

impl SetAssocCacheRef {
    /// Creates a cache with `sets` sets of `ways` lines of `line_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(sets: usize, ways: usize, line_bytes: u64) -> SetAssocCacheRef {
        assert!(
            sets > 0 && ways > 0 && line_bytes > 0,
            "cache dimensions must be positive"
        );
        SetAssocCacheRef {
            lines: vec![Line::default(); sets * ways],
            num_sets: sets,
            ways,
            line_bytes,
            tick: 0,
            hits: 0,
            misses: 0,
            snoops: 0,
            conflicts: 0,
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes;
        (
            (line % self.num_sets as u64) as usize,
            line / self.num_sets as u64,
        )
    }

    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        (tag * self.num_sets as u64 + set as u64) * self.line_bytes
    }

    fn set_lines(&self, set: usize) -> &[Line] {
        &self.lines[set * self.ways..(set + 1) * self.ways]
    }

    fn set_lines_mut(&mut self, set: usize) -> &mut [Line] {
        &mut self.lines[set * self.ways..(set + 1) * self.ways]
    }

    /// Accesses `addr`; the specification for
    /// [`SetAssocCache::access`](crate::cache::SetAssocCache::access).
    pub fn access(
        &mut self,
        addr: u64,
        is_write: bool,
        policy: VictimPolicy,
        mut conflicts_with_buffer: impl FnMut(u64) -> bool,
    ) -> AccessResult {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        let ways = self.ways;
        let tick = self.tick;

        if let Some(line) = self
            .set_lines_mut(set)
            .iter_mut()
            .find(|l| l.valid && l.tag == tag)
        {
            line.last_use = tick;
            line.dirty |= is_write;
            self.hits += 1;
            return AccessResult {
                hit: true,
                evicted: None,
                conflict_delayed: false,
            };
        }
        self.misses += 1;

        // Invalid way, if any.
        if let Some(idx) = self.set_lines(set).iter().position(|l| !l.valid) {
            self.set_lines_mut(set)[idx] = Line {
                tag,
                valid: true,
                dirty: is_write,
                last_use: tick,
            };
            return AccessResult {
                hit: false,
                evicted: None,
                conflict_delayed: false,
            };
        }

        // LRU-ordered victim candidates (ways ≤ 16: stack insertion sort).
        let mut order = [0usize; 16];
        debug_assert!(ways <= 16);
        for (i, slot) in order.iter_mut().enumerate().take(ways) {
            *slot = i;
        }
        let order = &mut order[..ways];
        order.sort_unstable_by_key(|&i| self.set_lines(set)[i].last_use);

        let scan = match policy {
            VictimPolicy::Full => ways,
            VictimPolicy::Half => ways.div_ceil(2),
            VictimPolicy::Zero | VictimPolicy::StaleLoad => 1,
        };
        let mut chosen = order[0];
        let mut delayed = false;
        if policy != VictimPolicy::StaleLoad {
            // Only dirty victims can conflict (clean lines carry no
            // pending store data).
            let mut found = None;
            for &cand in order.iter().take(scan) {
                let line = self.set_lines(set)[cand];
                let la = self.line_addr(set, line.tag);
                if line.dirty {
                    self.snoops += 1;
                    if conflicts_with_buffer(la) {
                        self.conflicts += 1;
                        continue;
                    }
                }
                found = Some(cand);
                break;
            }
            match found {
                Some(c) => chosen = c,
                None => {
                    delayed = true;
                    chosen = order[0];
                }
            }
        }

        let victim = self.set_lines(set)[chosen];
        let evicted = Some((self.line_addr(set, victim.tag), victim.dirty));
        self.set_lines_mut(set)[chosen] = Line {
            tag,
            valid: true,
            dirty: is_write,
            last_use: tick,
        };
        AccessResult {
            hit: false,
            evicted,
            conflict_delayed: delayed,
        }
    }

    /// True if the line containing `addr` is present.
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.set_lines(set).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Invalidates every line (power failure: caches are volatile).
    pub fn invalidate_all(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
            line.dirty = false;
        }
    }

    /// `(hits, misses)` counters.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// `(snoops, conflicts)` counters.
    pub fn snoop_stats(&self) -> (u64, u64) {
        (self.snoops, self.conflicts)
    }
}

/// The specification direct-mapped cache: a sparse `set → (tag, dirty)`
/// table whose warm-up inserts every prefilled line one by one.
#[derive(Clone, Debug)]
pub struct DirectMappedCacheRef {
    lines: FxHashMap<u64, (u64, bool)>,
    num_sets: u64,
    line_bytes: u64,
    hits: u64,
    misses: u64,
}

impl DirectMappedCacheRef {
    /// Creates a direct-mapped cache of `capacity_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is smaller than one line.
    pub fn new(capacity_bytes: u64, line_bytes: u64) -> DirectMappedCacheRef {
        assert!(capacity_bytes >= line_bytes, "capacity below one line");
        DirectMappedCacheRef {
            lines: FxHashMap::default(),
            num_sets: capacity_bytes / line_bytes,
            line_bytes,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`; returns `(hit, evicted_dirty_line_addr)`.
    pub fn access(&mut self, addr: u64, is_write: bool) -> (bool, Option<u64>) {
        let line = addr / self.line_bytes;
        let (set, tag) = (line % self.num_sets, line / self.num_sets);
        match self.lines.get_mut(&set) {
            Some((t, dirty)) if *t == tag => {
                *dirty |= is_write;
                self.hits += 1;
                (true, None)
            }
            Some(entry) => {
                self.misses += 1;
                let evicted_dirty = entry
                    .1
                    .then(|| (entry.0 * self.num_sets + set) * self.line_bytes);
                *entry = (tag, is_write);
                (false, evicted_dirty)
            }
            None => {
                self.misses += 1;
                self.lines.insert(set, (tag, is_write));
                (false, None)
            }
        }
    }

    /// Inserts every line of `[start, end)` as present and clean.
    pub fn prefill_range(&mut self, start: u64, end: u64) {
        let mut line = start / self.line_bytes;
        let last = end.div_ceil(self.line_bytes);
        while line < last {
            let set = line % self.num_sets;
            let tag = line / self.num_sets;
            self.lines.insert(set, (tag, false));
            line += 1;
        }
    }

    /// Invalidates everything (power failure).
    pub fn invalidate_all(&mut self) {
        self.lines.clear();
    }

    /// `(hits, misses)` counters.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}
