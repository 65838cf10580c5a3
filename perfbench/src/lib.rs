//! Benchmark of the LightWSP reproduction's pipelines.
//!
//! Three workloads run through the production entry points with no
//! tracing for the end-to-end numbers; a separate traced pass recomposes
//! the same work from each layer's public functions for the per-layer
//! numbers. See `README.md` next to this package's manifest.

pub mod cells;
pub mod kv;
pub mod reference;
pub mod trace;

use lightwsp_core::{Completion, Job, RunResult, Scheme};
use lightwsp_workloads::geomean;
use trace::Trace;

/// Campaign workers of every pass. One worker keeps passes steady on a
/// small shared host and makes a traced pass's span times sum to its
/// wall time.
pub const WORKERS: usize = 1;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every single-threaded Fig. 7 cell under all four schemes.
    Fig7Dense,
    /// One workload per multi-threaded suite at 8 and 64 threads.
    Fig16Mt,
    /// The crash-audited KV/queue service.
    KvCrash,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Fig7Dense, Workload::Fig16Mt, Workload::KvCrash];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7Dense => "fig7-dense",
            Workload::Fig16Mt => "fig16-mt",
            Workload::KvCrash => "kv-crash",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A workload's inputs, built during set-up.
pub enum Inputs {
    /// The jobs of a simulation workload, in groups that share no
    /// campaign cache entry (see [`cells::groups`]).
    Cells(Vec<Vec<Job>>),
    /// The crash audit's inputs.
    Kv(Box<kv::KvCrash>),
}

impl Inputs {
    /// Groups a pass is made of; each is timed on its own.
    pub fn groups(&self) -> usize {
        match self {
            Inputs::Cells(groups) => groups.len(),
            Inputs::Kv(_) => 1,
        }
    }

    /// Every job, in pass order (empty for the crash audit).
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        let groups: &[Vec<Job>] = match self {
            Inputs::Cells(groups) => groups,
            Inputs::Kv(_) => &[],
        };
        groups.iter().flatten()
    }
}

/// Builds `workload`'s inputs from `seed`.
pub fn setup(workload: Workload, seed: u64) -> Inputs {
    match workload {
        Workload::Fig7Dense => Inputs::Cells(cells::groups(cells::fig7_dense_jobs(seed))),
        Workload::Fig16Mt => Inputs::Cells(cells::groups(cells::fig16_mt_jobs(seed))),
        Workload::KvCrash => Inputs::Kv(Box::new(kv::setup(seed))),
    }
}

/// One output that must match across passes and against the reference.
#[derive(Clone, Debug, PartialEq)]
pub struct Digest {
    /// What produced it (a cell key, or `report` for the crash audit).
    pub key: String,
    /// The digest.
    pub value: String,
    /// Simulated cycles of a cell (0 for the crash audit).
    pub cycles: u64,
    /// Ops that fail if it mismatches.
    pub ops: u64,
}

/// What one group, or a whole pass, produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Ops attempted: cells, or audited crash points.
    pub attempted: u64,
    /// Ops that failed a check of their own (a cell that did not
    /// finish; a crash point with a violation).
    pub failed: u64,
    /// The pass's outputs.
    pub digests: Vec<Digest>,
    /// Each cell's scheme and slowdown.
    pub slowdowns: Vec<(Scheme, f64)>,
}

impl Outcome {
    /// Appends another group's outcome.
    pub fn extend(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.digests.extend(other.digests);
        self.slowdowns.extend(other.slowdowns);
    }

    /// Geomean slowdown of `scheme`'s cells (0 if it has none).
    pub fn slowdown(&self, scheme: Scheme) -> f64 {
        let s: Vec<f64> = self
            .slowdowns
            .iter()
            .filter(|(sc, _)| *sc == scheme)
            .map(|(_, v)| *v)
            .collect();
        if s.is_empty() {
            0.0
        } else {
            geomean(s)
        }
    }
}

/// Runs group `g` of a pass; with `trace`, its traced recomposition.
pub fn run_group(inputs: &Inputs, g: usize, trace: Option<&mut Trace>) -> Outcome {
    match inputs {
        Inputs::Cells(groups) => {
            let jobs = &groups[g];
            let results = match trace {
                Some(t) => cells::run_pass_traced(jobs, t),
                None => cells::run_pass(jobs, WORKERS),
            };
            cells_outcome(jobs, &results)
        }
        Inputs::Kv(kv) => {
            let report = match trace {
                Some(t) => kv.run_pass_traced(WORKERS, t),
                None => kv.run_pass(WORKERS),
            };
            // Name what failed: the result line only counts it.
            let gate = report.gate_violations.iter().map(|v| format!("{v:?}"));
            for v in gate.chain(report.ds_violations.iter().cloned()).take(4) {
                eprintln!("perfbench: kv-crash violation: {v}");
            }
            Outcome {
                attempted: report.audited as u64,
                failed: (report.violations() as u64).min(report.audited as u64),
                digests: vec![Digest {
                    key: "report".into(),
                    value: kv::report_digest(&report),
                    cycles: 0,
                    ops: report.audited as u64,
                }],
                ..Outcome::default()
            }
        }
    }
}

/// Runs a whole untraced pass, group by group.
pub fn run_pass(inputs: &Inputs) -> Outcome {
    let mut out = Outcome::default();
    for g in 0..inputs.groups() {
        out.extend(run_group(inputs, g, None));
    }
    out
}

fn cells_outcome(jobs: &[Job], results: &[(f64, RunResult)]) -> Outcome {
    Outcome {
        attempted: jobs.len() as u64,
        failed: results
            .iter()
            .filter(|(_, r)| r.completion != Completion::Finished)
            .count() as u64,
        digests: jobs
            .iter()
            .zip(results)
            .map(|(j, (slowdown, r))| Digest {
                key: reference::cell_key(j),
                value: reference::cell_digest(*slowdown, r),
                cycles: r.cycles(),
                ops: 1,
            })
            .collect(),
        slowdowns: results.iter().map(|(s, r)| (r.scheme, *s)).collect(),
    }
}

/// Ops whose digest differs from `want`'s (matched by position; a
/// length mismatch fails every op).
pub fn mismatched_ops(got: &[Digest], want: &[Digest]) -> u64 {
    if got.len() != want.len() {
        return got.iter().map(|d| d.ops).sum();
    }
    got.iter()
        .zip(want)
        .filter(|(g, w)| g != w)
        .map(|(g, _)| g.ops)
        .sum()
}

/// The end-to-end metrics an untraced run reports, with their units, in
/// `BENCHMARK.json` order: the low-decile set-up, the low-decile pass,
/// and the peak resident set of the first round.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics a traced run reports, with their units, in
/// `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_s", "s"),
    ("workloads.kv_spec_s", "s"),
    ("compiler.instrument_s", "s"),
    ("compiler.boundaries_inserted", "count"),
    ("compiler.checkpoints_inserted", "count"),
    ("sim.machine_new_s", "s"),
    ("sim.run_s.baseline", "s"),
    ("sim.run_s.capri", "s"),
    ("sim.run_s.ppa", "s"),
    ("sim.run_s.lightwsp", "s"),
    ("sim.run_s.t8", "s"),
    ("sim.run_s.t64", "s"),
    ("sim.host_ns_per_inst", "ns"),
    ("sim.host_ns_per_core_cycle.t8", "ns"),
    ("sim.host_ns_per_core_cycle.t64", "ns"),
    ("sim.insts", "count"),
    ("sim.cycles", "count"),
    ("sim.instrumentation_insts", "count"),
    ("sim.stall_sb_full", "share"),
    ("sim.stall_load_miss", "share"),
    ("sim.stall_boundary_wait", "share"),
    ("sim.stall_lock_spin", "share"),
    ("sim.regions_committed", "count"),
    ("mem.l1_hits", "count"),
    ("mem.l1_misses", "count"),
    ("mem.l2_misses", "count"),
    ("mem.dram_misses", "count"),
    ("mem.snoops", "count"),
    ("mem.snoop_conflicts", "count"),
    ("mem.persist_stores", "count"),
    ("mem.hol_blocked_cycles", "count"),
    ("mem.wpq_mean_occupancy", "entries"),
    ("mem.wpq_max_occupancy", "entries"),
    ("mem.wpq_overflows", "count"),
    ("mem.wpq_load_hits", "count"),
    ("crash.traced_run_s", "s"),
    ("crash.golden_run_s", "s"),
    ("crash.advance_s", "s"),
    ("crash.fork_s", "s"),
    ("crash.power_cut_s", "s"),
    ("crash.check_capture_s", "s"),
    ("crash.resume_s", "s"),
    ("ds.check_image_s", "s"),
    ("ds.check_final_s", "s"),
    ("crash.points", "count"),
    ("crash.audited", "count"),
    ("crash.resumed", "count"),
    ("crash.resume_mcycles", "Mcycle"),
    ("crash.golden_cycles", "count"),
    ("sim_minsts_per_s", "Minst/s"),
    ("sim_mcycles_per_s", "Mcycle/s"),
    ("audit_points_per_s", "1/s"),
    ("slowdown_lightwsp", "ratio"),
    ("slowdown_ppa", "ratio"),
    ("slowdown_capri", "ratio"),
    ("campaign.workers", "count"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// What a traced run reports from: each group's low-decile traced run,
/// set against the untraced pass time.
pub struct TracedRun<'a> {
    /// The spans and counts of each group's low-decile traced run, merged.
    pub trace: &'a Trace,
    /// Those runs' summed wall time, seconds.
    pub traced_wall_s: f64,
    /// The untraced pass time (`wall_s`), seconds.
    pub untraced_wall_s: f64,
    /// The low-decile set-up, seconds.
    pub setup_s: f64,
    /// The workload.
    pub workload: Workload,
    /// The first untraced pass's outcome (the slowdowns' source).
    pub outcome: &'a Outcome,
}

/// Computes every per-layer metric of a traced run, in `PER_LAYER`
/// order. Layers a workload never enters read 0.
pub fn per_layer(run: &TracedRun) -> Vec<(&'static str, &'static str, f64)> {
    let t = run.trace;
    let c = |name: &str| t.get_count(name);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let run_s: f64 = PER_LAYER
        .iter()
        .filter(|(k, _)| k.starts_with("sim.run_s."))
        .map(|(k, _)| t.time(k))
        .sum();
    let core_cycles = c("sim.core_cycles");
    let is_kv = run.workload == Workload::KvCrash;
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "workloads.kv_spec_s" => {
                    if is_kv {
                        run.setup_s
                    } else {
                        0.0
                    }
                }
                "sim.host_ns_per_inst" => ratio(run_s * 1e9, c("sim.insts")),
                "sim.host_ns_per_core_cycle.t8" => {
                    ratio(t.time("sim.run_s.t8") * 1e9, c("sim.core_cycles.t8"))
                }
                "sim.host_ns_per_core_cycle.t64" => {
                    ratio(t.time("sim.run_s.t64") * 1e9, c("sim.core_cycles.t64"))
                }
                "sim.stall_sb_full"
                | "sim.stall_load_miss"
                | "sim.stall_boundary_wait"
                | "sim.stall_lock_spin" => ratio(c(name), core_cycles),
                "mem.wpq_mean_occupancy" => ratio(c("mem.wpq_occupancy_sum"), c("sim.runs")),
                "crash.resume_mcycles" => c("crash.resume_cycles") / 1e6,
                "sim_minsts_per_s" => ratio(c("sim.insts") / 1e6, run.untraced_wall_s),
                "sim_mcycles_per_s" => ratio(c("sim.cycles") / 1e6, run.untraced_wall_s),
                "audit_points_per_s" => ratio(c("crash.audited"), run.untraced_wall_s),
                "slowdown_lightwsp" => run.outcome.slowdown(Scheme::LightWsp),
                "slowdown_ppa" => run.outcome.slowdown(Scheme::Ppa),
                "slowdown_capri" => run.outcome.slowdown(Scheme::Capri),
                "campaign.workers" => WORKERS as f64,
                "trace.unattributed_s" => (run.traced_wall_s - t.attributed_s()).max(0.0),
                "trace.overhead_ratio" => ratio(run.traced_wall_s, run.untraced_wall_s),
                _ if unit == "s" => t.time(name),
                _ => c(name),
            };
            (name, unit, v)
        })
        .collect()
}
