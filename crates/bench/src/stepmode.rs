//! Step-mode timing harness: the Fig. 7 + Fig. 11 single-thread cells
//! and a set of Fig. 16 multi-core cells, timed under
//! [`StepMode::Reference`] and [`StepMode::SkipAhead`], with a
//! cycle-count cross-check on every cell. Three consumers share it:
//! `all_figures` (the `step_mode` section of `BENCH_eval.json`), the
//! `step_loop` microbench, and the `step_smoke` CI perf gate.
//!
//! Timing covers [`Machine::run`] only — compilation and DRAM warm-up
//! are identical between modes and amortized by the campaign across a
//! figure's cells, so including them would only dilute the measured
//! stepper speedup with constant-cost noise.
//!
//! [`Machine::run`]: lightwsp_sim::Machine::run

use lightwsp_core::{record_codec, Experiment, ExperimentOptions, Scheme, WorkloadSpec};
use lightwsp_sim::StepMode;
use lightwsp_workloads::{all_workloads, suite_workloads, Suite};

/// Core (= thread) counts of [`fig16_cells`].
pub const FIG16_CORES: [usize; 2] = [8, 64];
use std::time::Instant;

/// One (workload, scheme, options) cell of the Fig. 7 / Fig. 11 matrix.
pub struct Cell {
    /// The owning figure series (`fig07`, `fig11-wpq256`, ...).
    pub figure: String,
    /// The workload to run.
    pub spec: WorkloadSpec,
    /// The persistence scheme.
    pub scheme: Scheme,
    /// Fully-resolved options (WPQ size and store threshold applied).
    pub opts: ExperimentOptions,
}

/// Both-mode timing of one cell.
pub struct CellTiming {
    /// The owning figure series.
    pub figure: String,
    /// Workload name.
    pub workload: &'static str,
    /// The persistence scheme.
    pub scheme: Scheme,
    /// Simulated cycles (asserted identical between modes).
    pub cycles: u64,
    /// Best-of-reps wall seconds under [`StepMode::Reference`].
    pub reference_s: f64,
    /// Best-of-reps wall seconds under [`StepMode::SkipAhead`].
    pub skip_ahead_s: f64,
}

impl CellTiming {
    /// Reference / skip-ahead wall-time ratio.
    pub fn speedup(&self) -> f64 {
        self.reference_s / self.skip_ahead_s.max(1e-12)
    }
}

record_codec! {
    /// Aggregates over a timed cell set.
    pub struct Summary {
        /// Number of cells.
        pub cells: usize,
        /// Total reference wall seconds (sum of per-cell bests).
        pub reference_s: f64,
        /// Total skip-ahead wall seconds.
        pub skip_ahead_s: f64,
        /// Batch wall-time ratio (time-weighted speedup).
        pub batch_speedup: f64,
        /// Geometric mean of the per-cell speedups.
        pub geomean_speedup: f64,
    }
}

/// The single-thread cells behind Fig. 7 (every workload × Baseline,
/// Capri, PPA, LightWSP — the baseline normalizer runs are part of the
/// figure's cost) and Fig. 11 (the WPQ 256/128/64 sweep of LightWSP
/// with `store_threshold = WPQ/2`).
pub fn fig07_fig11_cells(opts: &ExperimentOptions) -> Vec<Cell> {
    let mut cells = Vec::new();
    let fig07_schemes = [
        Scheme::Baseline,
        Scheme::Capri,
        Scheme::Ppa,
        Scheme::LightWsp,
    ];
    for w in all_workloads().iter().filter(|w| w.threads == 1) {
        for &scheme in &fig07_schemes {
            cells.push(Cell {
                figure: "fig07".to_string(),
                spec: w.clone(),
                scheme,
                opts: opts.clone(),
            });
        }
    }
    for wpq in [256usize, 128, 64] {
        let mut o = opts.clone();
        o.sim.mem = o.sim.mem.with_wpq_entries(wpq);
        o.compiler.store_threshold = (wpq / 2) as u32;
        for suite in Suite::all() {
            for w in suite_workloads(suite) {
                if w.threads != 1 {
                    continue;
                }
                cells.push(Cell {
                    figure: format!("fig11-wpq{wpq}"),
                    spec: w.clone(),
                    scheme: Scheme::LightWsp,
                    opts: o.clone(),
                });
            }
        }
    }
    cells
}

/// Fig. 16 cells at 8 and 64 cores (one core per thread, as the figure
/// maps them): the first workload of each multi-threaded suite under
/// Baseline and LightWSP, on Fig. 16's budget rule (the per-thread
/// budget shrinks above 8 threads, floored at 4,000 instructions).
pub fn fig16_cells(opts: &ExperimentOptions) -> Vec<Cell> {
    let mut cells = Vec::new();
    for cores in FIG16_CORES {
        let mut o = opts.clone();
        o.threads = Some(cores);
        if cores > 8 {
            o.insts_per_thread = (o.insts_per_thread * 8 / cores as u64).max(4_000);
        }
        for suite in [Suite::Stamp, Suite::Npb, Suite::Splash3, Suite::Whisper] {
            let w = suite_workloads(suite).remove(0);
            for scheme in [Scheme::Baseline, Scheme::LightWsp] {
                cells.push(Cell {
                    figure: format!("fig16-{cores}c"),
                    spec: w.clone(),
                    scheme,
                    opts: o.clone(),
                });
            }
        }
    }
    cells
}

/// Best-of-`reps` wall time of [`Machine::run`] for `cell` under
/// `mode`, plus the simulated cycle count (for the parity cross-check).
/// Compilation and machine construction happen outside the timer.
///
/// [`Machine::run`]: lightwsp_sim::Machine::run
pub fn time_cell(cell: &Cell, mode: StepMode, reps: u32) -> (f64, u64) {
    let mut o = cell.opts.clone();
    o.sim.step_mode = mode;
    let e = Experiment::new(o);
    let mut best = f64::INFINITY;
    let mut cycles = 0;
    for _ in 0..reps.max(1) {
        let mut m = e.machine_for(&cell.spec, cell.scheme);
        let t0 = Instant::now();
        m.run();
        best = best.min(t0.elapsed().as_secs_f64());
        cycles = m.stats().cycles;
    }
    (best, cycles)
}

/// Times every cell in both modes (best-of-`reps` each) and
/// cross-checks that the two modes simulate the same number of cycles.
///
/// # Panics
///
/// Panics if any cell's cycle counts differ between modes — a parity
/// bug that would make the timing comparison meaningless.
pub fn compare_cells(cells: &[Cell], reps: u32) -> Vec<CellTiming> {
    cells
        .iter()
        .map(|cell| {
            let (reference_s, ref_cycles) = time_cell(cell, StepMode::Reference, reps);
            let (skip_ahead_s, skip_cycles) = time_cell(cell, StepMode::SkipAhead, reps);
            assert_eq!(
                ref_cycles, skip_cycles,
                "step-mode cycle mismatch: {} {} {:?}",
                cell.figure, cell.spec.name, cell.scheme
            );
            CellTiming {
                figure: cell.figure.clone(),
                workload: cell.spec.name,
                scheme: cell.scheme,
                cycles: ref_cycles,
                reference_s,
                skip_ahead_s,
            }
        })
        .collect()
}

/// Batch and geomean speedups over a timed cell set.
pub fn summarize(timings: &[CellTiming]) -> Summary {
    let reference_s: f64 = timings.iter().map(|t| t.reference_s).sum();
    let skip_ahead_s: f64 = timings.iter().map(|t| t.skip_ahead_s).sum();
    let ln_sum: f64 = timings.iter().map(|t| t.speedup().ln()).sum();
    Summary {
        cells: timings.len(),
        reference_s,
        skip_ahead_s,
        batch_speedup: reference_s / skip_ahead_s.max(1e-12),
        geomean_speedup: if timings.is_empty() {
            1.0
        } else {
            (ln_sum / timings.len() as f64).exp()
        },
    }
}
