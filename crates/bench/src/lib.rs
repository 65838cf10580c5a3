//! # lightwsp-bench — the evaluation harness
//!
//! One binary per paper artifact regenerates the rows/series of that
//! figure or table (see `DESIGN.md` §4 for the full index):
//!
//! | binary | artifact |
//! |---|---|
//! | `fig07_slowdown` | Fig. 7 — Capri/PPA/LightWSP slowdown, 39 entries |
//! | `fig08_efficiency` | Fig. 8 — region-level persistence efficiency |
//! | `fig09_psp_vs_wsp` | Fig. 9 — ideal PSP vs LightWSP, memory-intensive |
//! | `fig10_cwsp` | Fig. 10 — cWSP vs LightWSP per suite (no NPB) |
//! | `fig11_wpq_size` | Fig. 11 — WPQ 256/128/64 sensitivity |
//! | `fig12_threshold` | Fig. 12 — store threshold 16/32/64 |
//! | `fig13_victim` | Fig. 13 — victim-selection policies |
//! | `fig14_missrate` | Fig. 14 — L1 miss rate incl. stale-load |
//! | `fig15_bandwidth` | Fig. 15 — persist-path bandwidth 4/2/1 GB/s |
//! | `fig16_threads` | Fig. 16 + §V-F5 — 8/16/32/64 threads, overflow |
//! | `fig17_cxl` | Fig. 17 + Table III — CXL devices |
//! | `fig18_wpq_hits` | Fig. 18 — WPQ hit rate per WPQ size |
//! | `tab02_conflicts` | Table II — buffer-conflict rate |
//! | `tab_cam_latency` | §V-G2 — CAM search latency |
//! | `tab_region_stats` | §V-G3 — instruction count & region statistics |
//! | `tab_hw_cost` | §V-G4 — hardware cost comparison |
//! | `tab_jit_energy` | §II-C1 — JIT-checkpointing feasibility per PSU class vs LightWSP's battery |
//! | `ablations` | DESIGN.md §5 — LRPO vs sfence, region extension, pruning, combining |
//! | `mc_scaling` | extension — 1 to 4 memory controllers, Capri vs LightWSP |
//! | `recovery_check` | §IV-F — crash-consistency validation sweep |
//! | `crash_audit` | `RECOVERY.md` — seeded & derived crash-point audit, `BENCH_crash.json` |
//! | `model_litmus` | LRPO model litmus/fuzz differential sweep, fork-vs-rerun timing |
//! | `ds_service` | `docs/DATASTRUCTURES.md` — recoverable-DS + KV/queue service crash audit, `BENCH_ds.json` |
//! | `sweep_smoke` | CI perf gate: fork-mode crash sweep must beat rerun |
//! | `exec_smoke` | CI perf gate: decoded engine ≥2x geomean on compute-dense Fig. 7 cells |
//! | `step_smoke` | CI perf gate: skip-ahead must beat the per-cycle stepper on Fig. 7/11 cells and on Fig. 16 cells at 8 and 64 cores |
//! | `mem_smoke` | CI perf gate: fast-path cache model and dense-cell floors |
//! | `all_figures` | every figure and table above, into `results/` and `BENCH_eval.json` |
//!
//! Every binary accepts `--quick` (reduced instruction budget for smoke
//! runs) and writes both stdout and `results/<id>.txt`.

use lightwsp_core::report::Figure;
use lightwsp_core::{Campaign, Experiment, ExperimentOptions, ResultStore};
use std::fs;
use std::path::PathBuf;

/// Opens the campaign result store named by the `LIGHTWSP_STORE`
/// environment variable (a directory path, created on demand), or
/// returns `None` when the variable is unset. An unopenable store is a
/// warning, not an error — every bin degrades to compute-everything.
pub fn store() -> Option<ResultStore> {
    let dir = std::env::var("LIGHTWSP_STORE").ok()?;
    if dir.is_empty() {
        return None;
    }
    match ResultStore::open(&dir) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("warning: could not open result store {dir}: {e}");
            None
        }
    }
}

/// Cell selection for `all_figures`: comma-separated patterns from
/// `--filter=<p,p,...>` (or the `LIGHTWSP_FILTER` environment variable;
/// the flag wins). A bare pattern selects every section whose id
/// contains it (`fig07`, `fig11`, `tab02`, `cam`, `regions`, `hwcost`,
/// `runs`, `stepmode`, `execmode`); a `w:<pat>` pattern additionally
/// narrows the per-run benchmark matrix to workloads whose name
/// contains `<pat>`. No patterns → everything runs.
#[derive(Clone, Debug, Default)]
pub struct Filter {
    sections: Vec<String>,
    workloads: Vec<String>,
}

impl Filter {
    /// Parses a comma-separated pattern list.
    pub fn parse(spec: &str) -> Filter {
        let mut f = Filter::default();
        for pat in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if let Some(w) = pat.strip_prefix("w:") {
                f.workloads.push(w.to_string());
            } else {
                f.sections.push(pat.to_string());
            }
        }
        f
    }

    /// Builds the filter from `--filter=` CLI flags and
    /// `LIGHTWSP_FILTER`.
    pub fn from_env_args() -> Filter {
        let spec = std::env::args()
            .find_map(|a| a.strip_prefix("--filter=").map(str::to_string))
            .or_else(|| std::env::var("LIGHTWSP_FILTER").ok())
            .unwrap_or_default();
        Filter::parse(&spec)
    }

    /// True when section `id` should run.
    pub fn section(&self, id: &str) -> bool {
        self.sections.is_empty() || self.sections.iter().any(|p| id.contains(p.as_str()))
    }

    /// True when workload `name` belongs in the per-run matrix.
    pub fn workload(&self, name: &str) -> bool {
        self.workloads.is_empty() || self.workloads.iter().any(|p| name.contains(p.as_str()))
    }

    /// Canonical rendering (sorted, deduplicated) — the part of the
    /// memoization keys that must not depend on pattern order.
    pub fn normalized(&self) -> String {
        let mut sections = self.sections.clone();
        let mut workloads: Vec<String> = self.workloads.iter().map(|w| format!("w:{w}")).collect();
        sections.sort();
        sections.dedup();
        workloads.sort();
        workloads.dedup();
        sections.extend(workloads);
        sections.join(",")
    }
}

/// Parses the common CLI flags (`--quick`) and the
/// `LIGHTWSP_STEP_MODE` (`skip`/`reference`) and `LIGHTWSP_EXEC_MODE`
/// (`decoded`/`ref`) environment overrides — results are bit-identical
/// under every combination, so the overrides exist purely for timing
/// comparisons and differential bisection.
pub fn common_options() -> ExperimentOptions {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut opts = if quick {
        ExperimentOptions::quick()
    } else {
        ExperimentOptions::paper_default()
    };
    if let Ok(v) = std::env::var("LIGHTWSP_STEP_MODE") {
        if let Some(mode) = lightwsp_sim::StepMode::from_env_str(&v) {
            opts.sim.step_mode = mode;
        }
    }
    if let Ok(v) = std::env::var("LIGHTWSP_EXEC_MODE") {
        if let Some(mode) = lightwsp_sim::ExecMode::from_env_str(&v) {
            opts.sim.exec_mode = mode;
        }
    }
    opts
}

/// Creates an [`Experiment`] from the common CLI flags.
pub fn experiment() -> Experiment {
    Experiment::new(common_options())
}

/// Creates the parallel [`Campaign`] runner the figure generators fan
/// out over (worker count: `LIGHTWSP_THREADS` env or all cores).
pub fn campaign() -> Campaign {
    Campaign::new()
}

/// The `results/` output directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Prints a rendered figure and persists it under `results/<id>.txt`.
pub fn emit(figure: &Figure) {
    let text = figure.render();
    print!("{text}");
    let path = results_dir().join(format!("{}.txt", figure.id));
    if let Err(e) = fs::write(&path, &text) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// Prints free-form table text and persists it under `results/<id>.txt`.
pub fn emit_text(id: &str, text: &str) {
    print!("{text}");
    let path = results_dir().join(format!("{id}.txt"));
    if let Err(e) = fs::write(&path, text) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}
pub mod evalrun;
pub mod execmode;
pub mod figures;
pub mod mempath;
pub mod stepmode;
pub mod sweepmode;
