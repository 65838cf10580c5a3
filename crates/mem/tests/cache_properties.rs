//! Property-based cache tests: the set-associative model must agree
//! with a straightforward reference LRU implementation on hit/miss
//! behaviour, and the direct-mapped model with a reference map and
//! with the eagerly warmed [`DirectMappedCacheRef`].

use lightwsp_mem::cache::{DirectMappedCache, SetAssocCache, VictimPolicy};
use lightwsp_mem::cache_ref::DirectMappedCacheRef;
use proptest::prelude::*;
use std::collections::VecDeque;

/// Reference LRU cache: per set, a recency-ordered list of tags.
struct RefLru {
    sets: Vec<VecDeque<u64>>,
    ways: usize,
    line: u64,
}

impl RefLru {
    fn new(sets: usize, ways: usize, line: u64) -> RefLru {
        RefLru {
            sets: vec![VecDeque::new(); sets],
            ways,
            line,
        }
    }

    /// Returns true on hit.
    fn access(&mut self, addr: u64) -> bool {
        let l = addr / self.line;
        let set = (l % self.sets.len() as u64) as usize;
        let tag = l / self.sets.len() as u64;
        let q = &mut self.sets[set];
        if let Some(pos) = q.iter().position(|&t| t == tag) {
            q.remove(pos);
            q.push_back(tag);
            true
        } else {
            if q.len() == self.ways {
                q.pop_front();
            }
            q.push_back(tag);
            false
        }
    }
}

proptest! {
    /// With snooping disabled (no conflicts), the model's hit/miss trace
    /// matches the reference LRU exactly.
    #[test]
    fn set_assoc_matches_reference_lru(
        addrs in prop::collection::vec(0u64..(1 << 14), 1..400),
        sets_log2 in 1u32..5,
        ways in 1usize..8,
    ) {
        let sets = 1usize << sets_log2;
        let mut model = SetAssocCache::new(sets, ways, 64);
        let mut reference = RefLru::new(sets, ways, 64);
        for &a in &addrs {
            let r = model.access(a, false, VictimPolicy::StaleLoad, |_| false);
            let want = reference.access(a);
            prop_assert_eq!(r.hit, want, "divergence at addr {:#x}", a);
        }
        let (h, m) = model.hit_miss();
        prop_assert_eq!((h + m) as usize, addrs.len());
    }

    /// Dirty data is never silently lost: every line written is either
    /// still present or was reported evicted as dirty.
    #[test]
    fn dirty_lines_are_tracked(
        writes in prop::collection::vec(0u64..(1 << 13), 1..200),
    ) {
        let mut model = SetAssocCache::new(4, 2, 64);
        let mut dirty_out = std::collections::BTreeSet::new();
        let mut written = std::collections::BTreeSet::new();
        for &a in &writes {
            let line = a & !63;
            written.insert(line);
            let r = model.access(a, true, VictimPolicy::StaleLoad, |_| false);
            if let Some((ev, true)) = r.evicted {
                dirty_out.insert(ev);
            }
        }
        for &line in &written {
            prop_assert!(
                model.probe(line) || dirty_out.contains(&line),
                "dirty line {:#x} vanished",
                line
            );
        }
    }

    /// The direct-mapped cache hits iff the reference map says so.
    #[test]
    fn direct_mapped_matches_reference(
        addrs in prop::collection::vec(0u64..(1 << 16), 1..300),
        capacity_lines in 1u64..64,
    ) {
        let mut model = DirectMappedCache::new(capacity_lines * 64, 64);
        let mut reference: Vec<Option<u64>> = vec![None; capacity_lines as usize];
        for &a in &addrs {
            let line = a / 64;
            let set = (line % capacity_lines) as usize;
            let (hit, _) = model.access(a, false);
            prop_assert_eq!(hit, reference[set] == Some(line), "addr {:#x}", a);
            reference[set] = Some(line);
        }
    }

    /// Lazy warm tags are access-for-access equivalent to the eager
    /// line-by-line prefill: random (overlapping, set-wrapping, longer
    /// than the cache) warm ranges, interleaved with read/write streams
    /// aimed at the warmed region and power-failure invalidations, on
    /// power-of-two and non-power-of-two geometries.
    #[test]
    fn lazy_warm_tags_match_eager_prefill(
        line_bytes in prop_oneof![Just(64u64), Just(48u64)],
        capacity_lines in 1u64..48,
        ops in prop::collection::vec((0u32..16, 0u64..(1 << 13), 0u64..200, any::<bool>()), 1..400),
    ) {
        let mut lazy = DirectMappedCache::new(capacity_lines * line_bytes, line_bytes);
        let mut eager = DirectMappedCacheRef::new(capacity_lines * line_bytes, line_bytes);
        for (i, &(kind, addr, len, write)) in ops.iter().enumerate() {
            match kind {
                0 | 1 => {
                    // Byte range of up to ~4× the cache, unaligned ends.
                    let end = addr + len * line_bytes * capacity_lines / 50 + len;
                    lazy.prefill_range(addr, end);
                    eager.prefill_range(addr, end);
                }
                2 => {
                    lazy.invalidate_all();
                    eager.invalidate_all();
                }
                _ => {
                    let got = lazy.access(addr, write);
                    let want = eager.access(addr, write);
                    prop_assert_eq!(got, want, "op {} access {:#x} write {}", i, addr, write);
                }
            }
            prop_assert_eq!(lazy.hit_miss(), eager.hit_miss(), "op {}", i);
        }
    }
}
