//! The durable result store: one append-only record log per directory
//! ([`LOG_FILE`]) plus an in-memory last-writer-wins index.
//!
//! Each log line is one record: the six [`StoreKey`] fields and the
//! value, tab-separated, strings escaped by the codec's escaper so a
//! record never spans lines. Opening replays the log; a later line for
//! a key supersedes an earlier one. As with LightWSP's WPQ redo
//! buffer, only records written in full count: a final line without
//! its newline is a torn append, dropped and truncated away. Any other
//! malformed line is an `InvalidData` error naming the file and line.
//! When superseded records outnumber live ones, open rewrites the log
//! (live records in key order, temp file renamed into place).

use crate::codec::{escape_into, unescape};
use crate::digest::code_digest_from_env;
use crate::key::StoreKey;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// The record log's file name inside a store directory.
pub const LOG_FILE: &str = "records.log";

/// Point-in-time counters of one store's activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing (the caller then computes + puts).
    pub misses: u64,
    /// Records written this session.
    pub puts: u64,
    /// Complete records replayed from the log at open.
    pub loaded_entries: u64,
    /// Distinct keys currently held.
    pub resident_entries: u64,
}

#[derive(Default)]
struct State {
    index: HashMap<StoreKey, String>,
    stats: CacheStats,
    /// Log path and append handle; `None` for in-memory stores.
    log: Option<(PathBuf, File)>,
    /// The first write error. Nothing is appended after it, and every
    /// later sync reports it.
    failed: Option<(io::ErrorKind, String)>,
}

impl State {
    fn sync(&self) -> io::Result<()> {
        match (&self.failed, &self.log) {
            (Some((kind, msg)), _) => Err(io::Error::new(*kind, msg.clone())),
            (None, Some((_, file))) => file.sync_data(),
            (None, None) => Ok(()),
        }
    }
}

impl Drop for State {
    /// The last handle out syncs the log; `Drop` cannot return the
    /// error, so it is printed rather than dropped.
    fn drop(&mut self) {
        if let (Err(e), Some((path, _))) = (self.sync(), &self.log) {
            eprintln!("warning: result store {}: {e}", path.display());
        }
    }
}

/// A digest-keyed result store. Cheap to clone (shared handle); safe
/// to use from campaign worker threads.
#[derive(Clone)]
pub struct ResultStore {
    dir: Option<PathBuf>,
    code: u64,
    state: Arc<Mutex<State>>,
}

/// Appends one log line (newline included) for `key` → `value`.
fn push_line(out: &mut String, key: &StoreKey, value: &str) {
    for s in [&key.kind, &key.workload, &key.scheme] {
        escape_into(out, s);
        out.push('\t');
    }
    let _ = write!(
        out,
        "{:016x}\t{}\t{:016x}\t",
        key.config, key.point, key.code
    );
    escape_into(out, value);
    out.push('\n');
}

/// Parses one log line (newline stripped).
fn parse_line(line: &str) -> Result<(StoreKey, String), String> {
    let fields: Vec<&str> = line.split('\t').collect();
    let [kind, workload, scheme, config, point, code, value] = fields[..] else {
        return Err(format!("expected 7 fields, got {}", fields.len()));
    };
    let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|e| format!("{e}: {s:?}"));
    let key = StoreKey {
        kind: unescape(kind),
        workload: unescape(workload),
        scheme: unescape(scheme),
        config: hex(config)?,
        point: point.parse().map_err(|e| format!("{e}: {point:?}"))?,
        code: hex(code)?,
    };
    Ok((key, unescape(value)))
}

/// Replaces the log at `path` with the live records in key order:
/// written to `tmp`, synced, then renamed over the log.
fn rewrite(path: &Path, tmp: &Path, index: &HashMap<StoreKey, String>) -> io::Result<()> {
    let mut live: Vec<_> = index.iter().collect();
    live.sort();
    let mut text = String::new();
    for (key, value) in live {
        push_line(&mut text, key, value);
    }
    let mut file = File::create(tmp)?;
    file.write_all(text.as_bytes())?;
    file.sync_all()?;
    fs::rename(tmp, path)?;
    sync_parent(path);
    Ok(())
}

/// Persists a create or rename of `path` where directories can be synced.
fn sync_parent(path: &Path) {
    if let Some(dir) = path.parent() {
        let _ = File::open(dir).and_then(|d| d.sync_all());
    }
}

impl ResultStore {
    /// Opens (or creates) the store at `dir` with the environment's
    /// code digest (`LIGHTWSP_DIGEST_SALT` applied).
    ///
    /// # Errors
    ///
    /// Propagates directory/IO errors; a malformed log line is an
    /// `InvalidData` error naming the file and line.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ResultStore> {
        ResultStore::open_with(dir, code_digest_from_env())
    }

    /// Opens (or creates) the store at `dir` with an explicit code
    /// digest (tests use this to model code changes without touching
    /// the environment).
    ///
    /// # Errors
    ///
    /// Propagates directory/IO errors and log parse failures.
    pub fn open_with(dir: impl Into<PathBuf>, code: u64) -> io::Result<ResultStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let path = dir.join(LOG_FILE);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        // Only newline-terminated records were written in full.
        let whole = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let mut index = HashMap::new();
        let mut loaded = 0;
        for (n, line) in bytes[..whole].split_inclusive(|&b| b == b'\n').enumerate() {
            let bad = |msg: String| {
                let msg = format!("{}:{}: {msg}", path.display(), n + 1);
                io::Error::new(io::ErrorKind::InvalidData, msg)
            };
            let line =
                std::str::from_utf8(&line[..line.len() - 1]).map_err(|e| bad(e.to_string()))?;
            let (key, value) = parse_line(line).map_err(bad)?;
            index.insert(key, value);
            loaded += 1;
        }
        // A leftover of an interrupted rewrite; the log itself is
        // still whole, because the rename is the commit point.
        let tmp = dir.join(format!("{LOG_FILE}.tmp"));
        let _ = fs::remove_file(&tmp);
        if loaded > 2 * index.len() as u64 {
            rewrite(&path, &tmp, &index)?;
        } else if whole < bytes.len() {
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(whole as u64)?;
            file.sync_all()?;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        sync_parent(&path);
        let state = State {
            index,
            stats: CacheStats {
                loaded_entries: loaded,
                ..CacheStats::default()
            },
            log: Some((path, file)),
            failed: None,
        };
        Ok(ResultStore {
            dir: Some(dir),
            code,
            state: Arc::new(Mutex::new(state)),
        })
    }

    /// A store with no backing directory (session-local caching and
    /// tests; records live only in memory).
    pub fn in_memory() -> ResultStore {
        ResultStore::in_memory_with(code_digest_from_env())
    }

    /// [`ResultStore::in_memory`] with an explicit code digest.
    pub fn in_memory_with(code: u64) -> ResultStore {
        ResultStore {
            dir: None,
            code,
            state: Arc::default(),
        }
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a thread panicked while holding the store lock")
    }

    /// The code digest this store keys new records under.
    pub fn code(&self) -> u64 {
        self.code
    }

    /// The backing directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Looks up `key`, counting a hit or miss.
    pub fn get(&self, key: &StoreKey) -> Option<String> {
        let mut state = self.state();
        let found = state.index.get(key).cloned();
        match found {
            Some(_) => state.stats.hits += 1,
            None => state.stats.misses += 1,
        }
        found
    }

    /// Records `key` → `value`, appending one line to the log. A write
    /// error stops further appends and is returned by the next
    /// [`flush`](ResultStore::flush).
    pub fn put(&self, key: StoreKey, value: String) {
        let mut line = String::new();
        push_line(&mut line, &key, &value);
        let mut guard = self.state();
        let state = &mut *guard;
        if let (Some((_, file)), None) = (&mut state.log, &state.failed) {
            if let Err(e) = file.write_all(line.as_bytes()) {
                state.failed = Some((e.kind(), e.to_string()));
            }
        }
        state.index.insert(key, value);
        state.stats.puts += 1;
    }

    /// Serves `key` from the store or computes, records, and returns
    /// it. The boolean is `true` on a store hit.
    pub fn memo(&self, key: &StoreKey, compute: impl FnOnce() -> String) -> (String, bool) {
        if let Some(v) = self.get(key) {
            return (v, true);
        }
        let v = compute();
        self.put(key.clone(), v.clone());
        (v, false)
    }

    /// Makes every record put so far durable.
    ///
    /// # Errors
    ///
    /// The sync's error, or the write error that stopped appending.
    pub fn flush(&self) -> io::Result<()> {
        self.state().sync()
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let state = self.state();
        CacheStats {
            resident_entries: state.index.len() as u64,
            ..state.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> StoreKey {
        StoreKey::new("run", format!("w{n}"), "LightWSP", n, 0, 7)
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lwsp-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memo_hits_after_put_and_counts() {
        let s = ResultStore::in_memory_with(1);
        let (v, hit) = s.memo(&key(1), || "computed".into());
        assert_eq!((v.as_str(), hit), ("computed", false));
        let (v, hit) = s.memo(&key(1), || unreachable!("must be served"));
        assert_eq!((v.as_str(), hit), ("computed", true));
        let st = s.stats();
        assert_eq!((st.hits, st.misses, st.puts), (1, 1, 1));
    }

    #[test]
    fn overwrites_are_last_writer_wins_across_flushes() {
        let dir = tmp_dir("lww");
        let s = ResultStore::open_with(&dir, 7).unwrap();
        for n in 0..10 {
            s.put(key(n), "old".into());
        }
        s.flush().unwrap();
        s.put(key(5), "new".into());
        assert_eq!(s.get(&key(5)).as_deref(), Some("new"));
        drop(s); // syncs the unflushed put
        let s = ResultStore::open_with(&dir, 7).unwrap();
        assert_eq!(s.get(&key(5)).as_deref(), Some("new"));
        assert_eq!(s.get(&key(9)).as_deref(), Some("old"));
        let st = s.stats();
        assert_eq!((st.loaded_entries, st.resident_entries), (11, 10));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persists_across_open_and_prunes_covered_files() {
        let dir = tmp_dir("persist");
        let s = ResultStore::open_with(&dir, 7).unwrap();
        for n in 0..4 {
            s.put(key(n), format!("v{n}"));
        }
        s.flush().unwrap();
        drop(s);
        // A rewrite cut before its rename leaves a temp file whose
        // records the log still covers.
        let tmp = dir.join(format!("{LOG_FILE}.tmp"));
        fs::write(&tmp, "partial rewrite").unwrap();
        let s = ResultStore::open_with(&dir, 7).unwrap();
        assert!(!tmp.exists(), "covered temp file survived open");
        for n in 0..4 {
            assert_eq!(s.get(&key(n)), Some(format!("v{n}")));
        }
        assert_eq!(s.stats().loaded_entries, 4);
        drop(s);
        let mut files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        files.sort();
        assert_eq!(files, [LOG_FILE]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_sorts_and_dedupes_last_writer_wins() {
        let dir = tmp_dir("rewrite");
        fs::create_dir_all(&dir).unwrap();
        let mut index = HashMap::new();
        for (n, v) in [(3, "a"), (1, "b"), (3, "c"), (2, "d"), (1, "e")] {
            index.insert(key(n), v.to_string());
        }
        let path = dir.join(LOG_FILE);
        rewrite(&path, &dir.join("rewrite.tmp"), &index).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let records: Vec<_> = text.lines().map(|l| parse_line(l).unwrap()).collect();
        let expected: Vec<_> = [(1, "e"), (2, "d"), (3, "c")]
            .map(|(n, v)| (key(n), v.to_string()))
            .into();
        assert_eq!(records, expected);
        assert!(!dir.join("rewrite.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn encode_decode_roundtrip_with_nasty_strings() {
        let mut k = StoreKey::new("run", "w\tname", "s\\x", u64::MAX, 3, 11);
        k.kind = "a b,c\nd".into();
        let value = "line1\nline2\\tail\tend, with spaces\\s";
        let mut line = String::new();
        push_line(&mut line, &k, value);
        assert_eq!(line.matches(['\t', '\n']).count(), 7, "{line:?}");
        let (dk, dv) = parse_line(line.strip_suffix('\n').unwrap()).unwrap();
        assert_eq!((dk, dv.as_str()), (k, value));
    }

    #[test]
    fn open_rejects_malformed_lines() {
        let dir = tmp_dir("malformed");
        fs::create_dir_all(&dir).unwrap();
        let mut good = String::new();
        push_line(&mut good, &key(1), "v");
        for bad in ["only\tthree\tfields", "run\tw\ts\tnothex\t0\t07\tv"] {
            fs::write(dir.join(LOG_FILE), format!("{good}{bad}\n{good}")).unwrap();
            let err = ResultStore::open_with(&dir, 7)
                .err()
                .expect("malformed line");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(&format!("{LOG_FILE}:2:")), "{err}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
