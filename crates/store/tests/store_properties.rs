//! Property tests for the result store.
//!
//! Two contracts matter to the incremental re-bench machinery and are
//! pinned here:
//!
//! 1. **Last-writer-wins durability** — any interleaving of puts,
//!    flushes and reopens (replaying the log from disk) yields exactly
//!    the contents of last-writer-wins over a `BTreeMap`: replay and
//!    the open-time rewrite of superseded records are invisible.
//! 2. **Digest invalidation exactness** — perturbing one configuration
//!    knob invalidates exactly the cells whose config digest includes
//!    that knob, and perturbing the code digest invalidates every cell
//!    at once (that is the contract the warm/cold CI job relies on).

use lightwsp_store::{digest_debug, ResultStore, StoreKey};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A compact op language: put (key-index, value-tag), flush, reopen.
#[derive(Clone, Debug)]
enum Op {
    Put(u8, u16),
    Flush,
    Reopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Put(k % 24, v)),
        Just(Op::Flush),
        Just(Op::Reopen),
    ]
}

/// Key space: three kinds, a few workloads/schemes, point from index.
fn key(i: u8) -> StoreKey {
    let kinds = ["run", "crashcell", "steptime"];
    let workloads = ["bzip2", "hmmer", "queue"];
    StoreKey::new(
        kinds[(i % 3) as usize],
        workloads[(i / 3 % 3) as usize],
        if i.is_multiple_of(2) {
            "LightWSP"
        } else {
            "Capri"
        },
        u64::from(i / 6),
        u64::from(i % 5),
        0xC0DE,
    )
}

proptest! {
    /// Contract 1: the store equals last-writer-wins over a `BTreeMap`,
    /// whatever the put/flush/reopen interleaving.
    #[test]
    fn interleaved_ops_match_btreemap_model(ops in prop::collection::vec(op_strategy(), 1..120)) {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "lwsp-store-props-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ResultStore::open_with(&dir, 0xC0DE).unwrap();
        let mut model: BTreeMap<StoreKey, String> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    model.insert(key(*k), format!("v{v}"));
                    store.put(key(*k), format!("v{v}"));
                }
                Op::Flush => store.flush().unwrap(),
                Op::Reopen => {
                    drop(store);
                    store = ResultStore::open_with(&dir, 0xC0DE).unwrap();
                }
            }
        }
        for i in 0..24 {
            let k = key(i);
            prop_assert_eq!(store.get(&k), model.get(&k).cloned(), "key {}", k);
        }
        prop_assert_eq!(store.stats().resident_entries, model.len() as u64);
        drop(store);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Contract 2: knob perturbation invalidates exactly the cells
    /// whose config digest includes that knob; code-digest perturbation
    /// invalidates everything.
    #[test]
    fn digest_perturbation_invalidates_exactly_affected_cells(
        knob_a in any::<u32>(),
        knob_b in any::<u32>(),
        delta in 1u32..1000,
    ) {
        let code = 0xC0DEu64;
        let workloads = ["bzip2", "hmmer", "queue", "btree"];
        // Scheme "narrow" depends only on knob_a; scheme "wide" on both.
        let keys_for = |a: u32, b: u32, code: u64| -> BTreeMap<StoreKey, &'static str> {
            let mut m = BTreeMap::new();
            for w in workloads {
                m.insert(
                    StoreKey::new("run", w, "narrow", digest_debug(&a), 0, code),
                    w,
                );
                m.insert(
                    StoreKey::new("run", w, "wide", digest_debug(&(a, b)), 0, code),
                    w,
                );
            }
            m
        };

        let store = ResultStore::in_memory_with(code);
        for (k, w) in keys_for(knob_a, knob_b, code) {
            store.put(k, format!("result-{w}"));
        }

        // Unchanged knobs: every cell is served.
        for k in keys_for(knob_a, knob_b, code).keys() {
            prop_assert!(store.get(k).is_some());
        }
        // Perturb knob_b: exactly the "wide" cells miss.
        for (k, _) in keys_for(knob_a, knob_b.wrapping_add(delta), code) {
            let hit = store.get(&k).is_some();
            prop_assert_eq!(hit, k.scheme == "narrow", "key {}", k);
        }
        // Perturb knob_a: every cell misses (both schemes depend on it).
        for k in keys_for(knob_a.wrapping_add(delta), knob_b, code).keys() {
            prop_assert!(store.get(k).is_none(), "key {}", k);
        }
        // Perturb the code digest: every cell misses.
        for k in keys_for(knob_a, knob_b, code ^ u64::from(delta)).keys() {
            prop_assert!(store.get(k).is_none(), "key {}", k);
        }
    }
}
