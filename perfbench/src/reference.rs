//! Reference outputs the benchmark checks every pass against.
//!
//! `reference.tsv` (next to this package's manifest) holds one line per
//! op output for the default seed and for one held-out seed, recorded by
//! `perfbench --record-reference`. Each line is
//! `workload <TAB> seed <TAB> key <TAB> digest`. The simulation cells'
//! Fig. 7 rows are also checked against the committed `BENCH_eval.json`,
//! so the reference is not only self-recorded.

use crate::cells::threads_of;
use lightwsp_core::{Job, RunResult};
use std::collections::HashMap;

/// The seed whose specs are the paper's own (no perturbation).
pub const DEFAULT_SEED: u64 = 0;

/// The seed held out of tuning, recorded alongside the default.
pub const HELD_OUT_SEED: u64 = 97;

const REFERENCE: &str = include_str!("../reference.tsv");
const BENCH_EVAL: &str = include_str!("../../BENCH_eval.json");

/// 64-bit FNV-1a.
pub fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A cell's reference key: workload, scheme, threads and budget.
pub fn cell_key(job: &Job) -> String {
    format!(
        "{}/{}/t{}/i{}",
        job.spec.name,
        job.scheme.name(),
        threads_of(job),
        job.opts.insts_per_thread
    )
}

/// A cell's output digest: completion, every `SimStats` counter, and
/// the slowdown (which pins the Baseline run it was normalised by).
pub fn cell_digest(slowdown: f64, r: &RunResult) -> String {
    format!(
        "{:016x}",
        fnv1a(&format!(
            "{:?} {:016x} {}",
            r.completion,
            slowdown.to_bits(),
            r.stats.encode_record()
        ))
    )
}

/// The recorded reference outputs, by (workload, seed, key).
pub struct Reference {
    digests: HashMap<(String, u64, String), String>,
    eval_cycles: HashMap<(String, String, usize), u64>,
    eval_budget: u64,
}

impl Reference {
    /// Parses the recorded file and the committed `BENCH_eval.json`.
    pub fn load() -> Reference {
        let mut digests = HashMap::new();
        for line in REFERENCE.lines().filter(|l| !l.trim().is_empty()) {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 4, "malformed reference line {line:?}");
            let seed = f[1].parse().expect("reference seed is an integer");
            digests.insert((f[0].to_string(), seed, f[2].to_string()), f[3].to_string());
        }
        let (eval_cycles, eval_budget) = parse_bench_eval(BENCH_EVAL);
        Reference {
            digests,
            eval_cycles,
            eval_budget,
        }
    }

    /// True if `seed` has recorded outputs for `workload`.
    pub fn covers(&self, workload: &str, seed: u64) -> bool {
        self.digests
            .keys()
            .any(|(w, s, _)| w == workload && *s == seed)
    }

    /// The recorded digest of one op output.
    pub fn digest(&self, workload: &str, seed: u64, key: &str) -> Option<&str> {
        self.digests
            .get(&(workload.to_string(), seed, key.to_string()))
            .map(String::as_str)
    }

    /// The committed `BENCH_eval.json` cycles of a cell, if a Fig. 7 row
    /// has the same workload, scheme, threads and budget. Only the
    /// paper's own specs (the default seed) can coincide.
    pub fn eval_cycles(&self, job: &Job, seed: u64) -> Option<u64> {
        if seed != DEFAULT_SEED || job.opts.insts_per_thread != self.eval_budget {
            return None;
        }
        let key = (
            job.spec.name.to_string(),
            job.scheme.name().to_string(),
            threads_of(job),
        );
        self.eval_cycles.get(&key).copied()
    }
}

/// The `runs` rows of `BENCH_eval.json` (one JSON object per line, as
/// `all_figures` writes them) and the budget they were simulated at:
/// `paper_default`'s unless the file is a `--quick` run.
fn parse_bench_eval(text: &str) -> (HashMap<(String, String, usize), u64>, u64) {
    let quick = text.contains("\"quick\": true");
    let budget = if quick {
        lightwsp_core::ExperimentOptions::quick().insts_per_thread
    } else {
        lightwsp_core::ExperimentOptions::paper_default().insts_per_thread
    };
    let mut rows = HashMap::new();
    let Some(start) = text.find("\"runs\": [") else {
        return (rows, budget);
    };
    for line in text[start..].lines().skip(1) {
        let line = line.trim();
        if !line.starts_with('{') {
            break;
        }
        let field = |name: &str| -> Option<&str> {
            let at = line.find(&format!("\"{name}\": "))? + name.len() + 4;
            let rest = &line[at..];
            let end = rest.find([',', '}'])?;
            Some(rest[..end].trim().trim_matches('"'))
        };
        if let (Some(w), Some(s), Some(c), Some(t)) = (
            field("workload"),
            field("scheme"),
            field("cycles").and_then(|v| v.parse().ok()),
            field("threads").and_then(|v| v.parse().ok()),
        ) {
            rows.insert((w.to_string(), s.to_string(), t), c);
        }
    }
    (rows, budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_eval_rows_parse() {
        let (rows, budget) = parse_bench_eval(BENCH_EVAL);
        assert_eq!(budget, 60_000);
        assert_eq!(rows.len(), 117, "39 Fig. 7 workloads x 3 schemes");
        assert_eq!(rows[&("bzip2".into(), "Capri".into(), 1)], 622_993);
    }
}
