//! Crash safety of the record log.
//!
//! A power cut can leave the last append half written. Opening must
//! then serve exactly the records written in full, never fail, and
//! drop the torn tail so later appends start on a clean line. A log
//! dominated by superseded records is rewritten at open and shrinks.

use lightwsp_store::{ResultStore, StoreKey, LOG_FILE};
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

fn key(n: u64) -> StoreKey {
    StoreKey::new("crashcell", format!("w {n}"), "LightWSP", n % 3, n, 0xC0DE)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lwsp-log-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn log_len(dir: &std::path::Path) -> u64 {
    fs::metadata(dir.join(LOG_FILE)).unwrap().len()
}

/// Asserts `store` holds exactly `model` over the keys `0..n`.
fn assert_matches(store: &ResultStore, model: &BTreeMap<StoreKey, String>, n: u64, ctx: &str) {
    for i in 0..n {
        let k = key(i);
        assert_eq!(store.get(&k), model.get(&k).cloned(), "{ctx}: key {k}");
    }
    assert_eq!(store.stats().resident_entries, model.len() as u64, "{ctx}");
}

#[test]
fn torn_tail_at_every_offset_serves_whole_records() {
    let dir = tmp_dir("torn");
    let store = ResultStore::open_with(&dir, 0xC0DE).unwrap();
    // First flush: keys 0..6. Second flush: overwrites 2 and 4, adds
    // 6..9; each entry remembers the log length once it was appended.
    let mut first = BTreeMap::new();
    for n in 0..6 {
        store.put(key(n), format!("first\t{n}"));
        first.insert(key(n), format!("first\t{n}"));
    }
    store.flush().unwrap();
    let flushed = log_len(&dir);
    let mut second = Vec::new();
    for n in [2, 6, 4, 7, 8] {
        let value = format!("second, value\n{n}");
        store.put(key(n), value.clone());
        second.push((key(n), value, log_len(&dir)));
    }
    store.flush().unwrap();
    drop(store);
    let full = fs::read(dir.join(LOG_FILE)).unwrap();
    assert_eq!(full.len() as u64, second.last().unwrap().2);

    for cut in flushed..full.len() as u64 {
        let ctx = format!("cut at byte {cut}");
        let case = dir.join(format!("cut-{cut}"));
        fs::create_dir_all(&case).unwrap();
        fs::write(case.join(LOG_FILE), &full[..cut as usize]).unwrap();

        let mut model = first.clone();
        for (k, v, end) in &second {
            if *end <= cut {
                model.insert(k.clone(), v.clone());
            }
        }
        let store = ResultStore::open_with(&case, 0xC0DE).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_matches(&store, &model, 9, &ctx);

        // The torn tail is gone: a new record round-trips through a
        // flush and a reopen.
        store.put(key(100), "after".into());
        store.flush().unwrap();
        drop(store);
        model.insert(key(100), "after".into());
        let store = ResultStore::open_with(&case, 0xC0DE).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert_eq!(store.get(&key(100)).as_deref(), Some("after"), "{ctx}");
        assert_matches(&store, &model, 9, &ctx);
        drop(store);
        fs::remove_dir_all(&case).unwrap();
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn superseded_records_are_rewritten_at_open() {
    let dir = tmp_dir("supersede");
    let store = ResultStore::open_with(&dir, 0xC0DE).unwrap();
    let mut model = BTreeMap::new();
    for round in 0..4 {
        for n in 0..20 {
            // Keys 0..5 are written once; the rest every round.
            if round == 0 || n >= 5 {
                store.put(key(n), format!("round {round}"));
                model.insert(key(n), format!("round {round}"));
            }
        }
    }
    drop(store);
    let before = log_len(&dir);

    let store = ResultStore::open_with(&dir, 0xC0DE).unwrap();
    assert_eq!(store.stats().loaded_entries, 20 + 3 * 15);
    let after = log_len(&dir);
    assert!(after < before, "log did not shrink: {before} -> {after}");
    assert_matches(&store, &model, 20, "rewritten");
    drop(store);

    // The rewritten log holds one line per live key, in key order, and
    // replays to the same contents.
    let text = fs::read_to_string(dir.join(LOG_FILE)).unwrap();
    assert_eq!(text.lines().count(), model.len());
    let workloads: Vec<&str> = text
        .lines()
        .map(|l| l.split('\t').nth(1).unwrap())
        .collect();
    assert!(workloads.is_sorted(), "{workloads:?}");
    let store = ResultStore::open_with(&dir, 0xC0DE).unwrap();
    assert_eq!(store.stats().loaded_entries, model.len() as u64);
    assert_matches(&store, &model, 20, "reopened");
    drop(store);
    fs::remove_dir_all(&dir).unwrap();
}
