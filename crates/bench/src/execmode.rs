//! Exec-mode timing harness: the Fig. 7 single-thread cells timed
//! under [`ExecMode::Reference`] (tree-walking interpreter) and
//! [`ExecMode::Decoded`] (pre-decoded micro-op engine), with a
//! cycles-and-instructions cross-check on every cell. Three consumers
//! share it: `all_figures` (the `exec_mode` section of
//! `BENCH_eval.json`), the `dispatch_loop` microbench docs, and the
//! `exec_smoke` CI perf gate.
//!
//! The harness measures at **two levels**, because profiling shows they
//! answer different questions (see `EXPERIMENTS.md` for the numbers):
//!
//! * **Dispatch level** ([`dispatch_kernels`]): the two engines run
//!   bare — no timing simulator — on the *pure-compute variants* of the
//!   compute-dense workloads (memory operations folded into the ALU
//!   mix). This isolates the cost the tentpole attacks, instruction
//!   dispatch, and is where the ROADMAP open-item-2 ≥ 2× acceptance
//!   bar is enforced.
//! * **Machine level** ([`compare_cells`]): full Fig. 7 cells under
//!   both exec modes. Here wall time is dominated by costs *shared*
//!   between the engines — persist-path machinery events, cache and
//!   memory modelling, per-load/store event plumbing — so the
//!   achievable speedup is Amdahl-capped well below the dispatch-level
//!   ratio. The machine-level gate is therefore exact parity plus a
//!   no-regression floor, not the 2× bar.
//!
//! Timing covers [`Machine::run`] only — compilation and (for the
//! decoded mode) the one-shot `DecodedProgram::decode` pass happen in
//! machine construction, outside the timer, exactly as the campaign
//! amortizes them across a figure's cells.
//!
//! [`Machine::run`]: lightwsp_sim::Machine::run
//! [`ExecMode::Reference`]: lightwsp_sim::ExecMode::Reference
//! [`ExecMode::Decoded`]: lightwsp_sim::ExecMode::Decoded

use crate::stepmode::Cell;
use lightwsp_core::{record_codec, Experiment, ExperimentOptions, Scheme};
use lightwsp_ir::{DecodedProgram, DynEvent, Interp, Memory, Program};
use lightwsp_sim::ExecMode;
use lightwsp_workloads::{all_workloads, workload, WorkloadSpec};
use std::time::Instant;

/// The compute-dense half of the Fig. 7 matrix: high ALU density and
/// cache-resident working sets. These are the workloads whose
/// pure-compute kernel variants carry the dispatch-level gate, and
/// whose full cells carry the machine-level no-regression floor.
pub const COMPUTE_DENSE: [&str; 7] = [
    "hmmer", "h264ref", "namd", "imagick", "leela", "nab", "namd17",
];

/// Whether `workload` belongs to the gated compute-dense subset.
pub fn is_compute_dense(workload: &str) -> bool {
    COMPUTE_DENSE.contains(&workload)
}

/// Both-mode timing of one cell.
pub struct CellTiming {
    /// The owning figure series (always `fig07` here).
    pub figure: String,
    /// Workload name.
    pub workload: &'static str,
    /// The persistence scheme.
    pub scheme: Scheme,
    /// True if the cell is in the gated compute-dense subset.
    pub compute_dense: bool,
    /// Simulated cycles (asserted identical between modes).
    pub cycles: u64,
    /// Best-of-reps wall seconds under [`ExecMode::Reference`].
    pub reference_s: f64,
    /// Best-of-reps wall seconds under [`ExecMode::Decoded`].
    pub decoded_s: f64,
}

impl CellTiming {
    /// Reference / decoded wall-time ratio.
    pub fn speedup(&self) -> f64 {
        self.reference_s / self.decoded_s.max(1e-12)
    }
}

record_codec! {
    /// Aggregates over a timed cell set.
    pub struct Summary {
        /// Number of cells.
        pub cells: usize,
        /// Total reference wall seconds (sum of per-cell bests).
        pub reference_s: f64,
        /// Total decoded wall seconds.
        pub decoded_s: f64,
        /// Batch wall-time ratio (time-weighted speedup).
        pub batch_speedup: f64,
        /// Geometric mean of the per-cell speedups, all cells.
        pub geomean_speedup: f64,
        /// Number of compute-dense cells.
        pub dense_cells: usize,
        /// Geometric mean over the compute-dense subset — the gated number.
        pub dense_geomean_speedup: f64,
    }
}

/// The single-thread cells of Fig. 7 (every workload × Baseline,
/// Capri, PPA, LightWSP), the matrix the exec-mode comparison is
/// recorded and gated on.
pub fn fig07_cells(opts: &ExperimentOptions) -> Vec<Cell> {
    let schemes = [
        Scheme::Baseline,
        Scheme::Capri,
        Scheme::Ppa,
        Scheme::LightWsp,
    ];
    let mut cells = Vec::new();
    for w in all_workloads().iter().filter(|w| w.threads == 1) {
        for &scheme in &schemes {
            cells.push(Cell {
                figure: "fig07".to_string(),
                spec: w.clone(),
                scheme,
                opts: opts.clone(),
            });
        }
    }
    cells
}

/// Best-of-`reps` wall time of [`Machine::run`] for `cell` under
/// `mode`, plus `(cycles, insts)` for the parity cross-check.
/// Compilation, decoding, and machine construction happen outside the
/// timer.
///
/// [`Machine::run`]: lightwsp_sim::Machine::run
pub fn time_cell(cell: &Cell, mode: ExecMode, reps: u32) -> (f64, u64, u64) {
    // Sub-millisecond cells are vulnerable to scheduler-noise bursts
    // that outlast a handful of reps, so on top of the requested rep
    // count, keep repeating until enough total measured time has
    // accumulated for best-of-N to dodge a burst (capped to bound the
    // gate's runtime on slow cells).
    const MIN_TOTAL_S: f64 = 0.008;
    const MAX_REPS: u32 = 60;
    let mut o = cell.opts.clone();
    o.sim.exec_mode = mode;
    let e = Experiment::new(o);
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    let (mut cycles, mut insts) = (0, 0);
    let mut rep = 0;
    while rep < reps.max(1) || (total < MIN_TOTAL_S && rep < MAX_REPS) {
        let mut m = e.machine_for(&cell.spec, cell.scheme);
        let t0 = Instant::now();
        m.run();
        let dt = t0.elapsed().as_secs_f64();
        best = best.min(dt);
        total += dt;
        cycles = m.stats().cycles;
        insts = m.stats().insts;
        rep += 1;
    }
    (best, cycles, insts)
}

/// Times every cell in both modes (best-of-`reps` each, reps
/// *interleaved* between the modes so a scheduler-noise burst degrades
/// both sides equally instead of poisoning whichever mode it landed
/// on) and cross-checks that the two engines simulate the same number
/// of cycles *and* retire the same number of instructions.
///
/// # Panics
///
/// Panics on any cycle or instruction-count mismatch — a parity bug
/// that would make the timing comparison meaningless.
pub fn compare_cells(cells: &[Cell], reps: u32) -> Vec<CellTiming> {
    cells
        .iter()
        .map(|cell| {
            let time_one = |mode: ExecMode| {
                let mut o = cell.opts.clone();
                o.sim.exec_mode = mode;
                let e = Experiment::new(o);
                move || {
                    let mut m = e.machine_for(&cell.spec, cell.scheme);
                    let t0 = Instant::now();
                    m.run();
                    (
                        t0.elapsed().as_secs_f64(),
                        m.stats().cycles,
                        m.stats().insts,
                    )
                }
            };
            // Same burst-dodging policy as `time_cell`: at least `reps`
            // interleaved pairs, continuing on sub-millisecond cells
            // until enough total measured time has accumulated.
            const MIN_TOTAL_S: f64 = 0.008;
            const MAX_REPS: u32 = 60;
            let run_ref = time_one(ExecMode::Reference);
            let run_dec = time_one(ExecMode::Decoded);
            let (mut reference_s, mut decoded_s) = (f64::INFINITY, f64::INFINITY);
            let (mut ref_cycles, mut ref_insts) = (0, 0);
            let (mut dec_cycles, mut dec_insts) = (0, 0);
            let mut total = 0.0;
            let mut rep = 0;
            while rep < reps.max(1) || (total < MIN_TOTAL_S && rep < MAX_REPS) {
                let (dt, c, n) = run_ref();
                reference_s = reference_s.min(dt);
                total += dt;
                (ref_cycles, ref_insts) = (c, n);
                let (dt, c, n) = run_dec();
                decoded_s = decoded_s.min(dt);
                total += dt;
                (dec_cycles, dec_insts) = (c, n);
                rep += 1;
            }
            assert_eq!(
                (ref_cycles, ref_insts),
                (dec_cycles, dec_insts),
                "exec-mode parity break: {} {} {:?}",
                cell.figure,
                cell.spec.name,
                cell.scheme
            );
            CellTiming {
                figure: cell.figure.clone(),
                workload: cell.spec.name,
                scheme: cell.scheme,
                compute_dense: is_compute_dense(cell.spec.name),
                cycles: ref_cycles,
                reference_s,
                decoded_s,
            }
        })
        .collect()
}

/// Batch and geomean speedups, overall and on the compute-dense
/// subset.
pub fn summarize(timings: &[CellTiming]) -> Summary {
    let reference_s: f64 = timings.iter().map(|t| t.reference_s).sum();
    let decoded_s: f64 = timings.iter().map(|t| t.decoded_s).sum();
    let geomean = |ts: &[&CellTiming]| -> f64 {
        if ts.is_empty() {
            return 1.0;
        }
        let ln_sum: f64 = ts.iter().map(|t| t.speedup().ln()).sum();
        (ln_sum / ts.len() as f64).exp()
    };
    let all: Vec<&CellTiming> = timings.iter().collect();
    let dense: Vec<&CellTiming> = timings.iter().filter(|t| t.compute_dense).collect();
    Summary {
        cells: timings.len(),
        reference_s,
        decoded_s,
        batch_speedup: reference_s / decoded_s.max(1e-12),
        geomean_speedup: geomean(&all),
        dense_cells: dense.len(),
        dense_geomean_speedup: geomean(&dense),
    }
}

/// Bare-engine timing of one pure-compute kernel: the tree-walking
/// interpreter against the decoded engine, no timing simulator in the
/// loop.
pub struct KernelTiming {
    /// The dense workload this kernel is derived from.
    pub workload: &'static str,
    /// Dynamic instructions retired (asserted identical between
    /// engines).
    pub insts: u64,
    /// Best-of-reps wall seconds of the tree-walker.
    pub tree_s: f64,
    /// Best-of-reps wall seconds of the decoded engine.
    pub decoded_s: f64,
}

impl KernelTiming {
    /// Tree / decoded wall-time ratio.
    pub fn speedup(&self) -> f64 {
        self.tree_s / self.decoded_s.max(1e-12)
    }
}

/// The pure-compute variant of a dense workload: loads and stores are
/// folded into the ALU mix (per-iteration instruction count preserved),
/// leaving the loop/call/branch structure intact. This is the
/// dispatch-bound regime the micro-op engine targets — every
/// instruction retires locally, so wall time *is* dispatch.
fn pure_variant(name: &str) -> WorkloadSpec {
    let mut spec = workload(name).expect("compute-dense workload exists");
    spec.alu_per_iter += spec.loads_per_iter + spec.stores_per_iter;
    spec.loads_per_iter = 0;
    spec.stores_per_iter = 0;
    spec
}

fn run_tree(p: &Program) -> u64 {
    let mut mem = Memory::new();
    let mut t = Interp::new(p, 0);
    while !t.finished() {
        t.step(p, &mut mem);
    }
    t.insts_executed()
}

fn run_decoded_bare(p: &Program, dec: &DecodedProgram) -> u64 {
    let mut mem = Memory::new();
    let mut t = Interp::new(p, 0);
    while !t.finished() {
        if let (_, Some(DynEvent::Halt)) = t.step_batch(dec, &mut mem, u32::MAX >> 1) {
            break;
        }
    }
    t.insts_executed()
}

/// Times the pure-compute kernels of every [`COMPUTE_DENSE`] workload
/// under both engines, best-of-`reps`, scaled to `target_insts` dynamic
/// instructions. The decoded engine runs with an unbounded batch
/// budget: this measures the engine, not the retire-width-limited
/// in-machine configuration.
///
/// # Panics
///
/// Panics if the two engines retire different instruction counts on
/// any kernel (a parity break).
pub fn dispatch_kernels(target_insts: u64, reps: u32) -> Vec<KernelTiming> {
    COMPUTE_DENSE
        .iter()
        .map(|&name| {
            let p = pure_variant(name).scaled_to(target_insts).generate();
            let dec = DecodedProgram::decode(&p);
            let mut tree_s = f64::INFINITY;
            let mut decoded_s = f64::INFINITY;
            let (mut tree_insts, mut dec_insts) = (0, 0);
            for _ in 0..reps.max(1) {
                let t0 = Instant::now();
                tree_insts = run_tree(&p);
                tree_s = tree_s.min(t0.elapsed().as_secs_f64());
                let t0 = Instant::now();
                dec_insts = run_decoded_bare(&p, &dec);
                decoded_s = decoded_s.min(t0.elapsed().as_secs_f64());
            }
            assert_eq!(
                tree_insts, dec_insts,
                "bare-engine parity break on kernel {name}"
            );
            KernelTiming {
                workload: name,
                insts: tree_insts,
                tree_s,
                decoded_s,
            }
        })
        .collect()
}

/// Geometric mean of the per-kernel speedups — the number the ≥ 2×
/// dispatch-level gate is enforced on.
pub fn dispatch_geomean(kernels: &[KernelTiming]) -> f64 {
    if kernels.is_empty() {
        return 1.0;
    }
    let ln_sum: f64 = kernels.iter().map(|k| k.speedup().ln()).sum();
    (ln_sum / kernels.len() as f64).exp()
}
