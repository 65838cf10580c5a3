//! Property tests for the WPQ's O(1) per-region count index.
//!
//! The event-driven stepper trusts `count_region`/`has_region`/
//! `has_boundary_for` to answer from the `region_counts` index without
//! walking the queue; a stale index would silently corrupt flush
//! scheduling, deadlock detection and the skip-ahead event scan. These properties drive the queue through
//! random mutator sequences and recount from the raw entry list
//! ([`Wpq::entries`]) after every step.

use lightwsp_mem::wpq::{Wpq, WpqEntry};
use proptest::prelude::*;

/// A randomly chosen queue mutation.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Insert an entry of the given region (skipped when full).
    Insert { region: u64, boundary: bool },
    /// `take_one_of_region(region)`.
    TakeOneOfRegion { region: u64 },
    /// `take_one_oldest()`.
    TakeOneOldest,
    /// `take_region(region, max)`.
    TakeRegion { region: u64, max: usize },
    /// `take_oldest(max)`.
    TakeOldest { max: usize },
    /// `drain_all()`.
    DrainAll,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Region IDs drawn from a tiny pool so mutators actually collide.
    prop_oneof![
        (1u64..6, any::<bool>()).prop_map(|(region, boundary)| Op::Insert { region, boundary }),
        (1u64..6).prop_map(|region| Op::TakeOneOfRegion { region }),
        Just(Op::TakeOneOldest),
        (1u64..6, 0usize..5).prop_map(|(region, max)| Op::TakeRegion { region, max }),
        (0usize..5).prop_map(|max| Op::TakeOldest { max }),
        Just(Op::DrainAll),
    ]
}

/// Recounts per-region occupancy from the raw entry list.
fn recount(q: &Wpq, region: u64) -> usize {
    q.entries().iter().filter(|e| e.region == region).count()
}

fn entry(addr: u64, region: u64, boundary: bool) -> WpqEntry {
    WpqEntry {
        addr,
        val: addr ^ 0x5555,
        region,
        is_boundary: boundary,
        home: addr.is_multiple_of(16),
        core: (addr % 4) as usize,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// After every mutation, the O(1) index agrees with a full recount
    /// for every region (present or not), and the removal paths return
    /// exactly what the index said was available.
    #[test]
    fn count_index_matches_recount(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut q = Wpq::new(16);
        let mut next_addr = 0u64;
        for op in ops {
            match op {
                Op::Insert { region, boundary } => {
                    if q.has_room() {
                        q.insert(entry(next_addr, region, boundary));
                        next_addr += 8;
                    }
                }
                Op::TakeOneOfRegion { region } => {
                    let had = q.count_region(region);
                    let got = q.take_one_of_region(region);
                    prop_assert_eq!(got.is_some(), had > 0);
                    if let Some(e) = got {
                        prop_assert_eq!(e.region, region);
                    }
                }
                Op::TakeOneOldest => {
                    let was_empty = q.is_empty();
                    prop_assert_eq!(q.take_one_oldest().is_none(), was_empty);
                }
                Op::TakeRegion { region, max } => {
                    let had = q.count_region(region);
                    let got = q.take_region(region, max);
                    prop_assert_eq!(got.len(), had.min(max));
                    prop_assert!(got.iter().all(|e| e.region == region));
                }
                Op::TakeOldest { max } => {
                    let had = q.len();
                    let got = q.take_oldest(max);
                    prop_assert_eq!(got.len(), had.min(max));
                }
                Op::DrainAll => {
                    let had = q.len();
                    prop_assert_eq!(q.drain_all().len(), had);
                    prop_assert!(q.is_empty());
                }
            }
            // The index and the raw list must agree for every region in
            // the pool — including absent ones (has_region false).
            for region in 0..8u64 {
                let actual = recount(&q, region);
                prop_assert_eq!(
                    q.count_region(region), actual,
                    "index diverged for region {} after {:?}", region, op
                );
                prop_assert_eq!(q.has_region(region), actual > 0);
                let boundary = q.entries().iter().any(|e| e.is_boundary && e.region == region);
                prop_assert_eq!(q.has_boundary_for(region), boundary, "region {}", region);
            }
            prop_assert!(q.len() <= q.capacity());
        }
    }
}
