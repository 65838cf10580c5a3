//! The two simulation workloads, `fig7-dense` and `fig16-mt`.
//!
//! Untraced, a pass is one `Campaign::slowdown_many` call over the
//! workload's jobs on a fresh campaign, exactly as the figure binaries
//! drive it. Traced, the same pass is recomposed from the layers' public
//! functions in the order a one-worker campaign calls them: generate,
//! instrument, build the machine, run it, with the campaign's compile
//! and baseline caches mirrored so the traced pass does the same work.

use crate::trace::Trace;
use lightwsp_compiler::instrument;
use lightwsp_compiler::prune::RecoveryRecipes;
use lightwsp_core::{Campaign, ExperimentOptions, Job, RunResult, Scheme};
use lightwsp_ir::Program;
use lightwsp_sim::Machine;
use lightwsp_workloads::{all_workloads, workload, WorkloadSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// Instructions per thread of every `fig7-dense` cell: the
/// `paper_default` budget, so the Capri, PPA and LightWSP cells are the
/// very cells of the committed `BENCH_eval.json` Fig. 7 rows.
pub const FIG7_INSTS: u64 = 60_000;

/// Base instructions per thread of `fig16-mt`, before Fig. 16's own
/// rule scales it down above 8 threads.
pub const FIG16_INSTS: u64 = 20_000;

/// One workload per multi-threaded suite (STAMP, NPB, SPLASH-3, WHISPER).
pub const FIG16_WORKLOADS: [&str; 4] = ["intruder", "ep", "raytrace", "tatp"];

/// Thread counts of `fig16-mt`; Fig. 16 maps one core per thread.
pub const FIG16_THREADS: [usize; 2] = [8, 64];

/// The benchmark seed's effect on a workload: it perturbs the generator
/// seed only, and seed 0 leaves the paper's specs untouched.
pub fn perturb(spec: &WorkloadSpec, seed: u64) -> WorkloadSpec {
    let mut s = spec.clone();
    s.seed = s
        .seed
        .wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    s
}

/// Fig. 7's own jobs for every single-threaded entry: Capri, PPA and
/// LightWSP, spec-major. The campaign simulates each workload's
/// Baseline once to normalise them, so every cell of all four schemes
/// runs exactly once per pass.
pub fn fig7_dense_jobs(seed: u64) -> Vec<Job> {
    let mut opts = ExperimentOptions::paper_default();
    opts.insts_per_thread = FIG7_INSTS;
    let schemes = [Scheme::Capri, Scheme::Ppa, Scheme::LightWsp];
    all_workloads()
        .iter()
        .filter(|w| !w.suite.is_multithreaded())
        .flat_map(|w| {
            let w = perturb(w, seed);
            let opts = &opts;
            schemes.iter().map(move |&s| Job::new(opts, &w, s))
        })
        .collect()
}

/// Fig. 16's own jobs for one workload per multi-threaded suite at 8
/// and 64 threads: LightWSP, normalised by one Baseline run per
/// workload and thread count. Fig. 16's budget rule (`figures::fig16`)
/// shrinks the per-thread budget above 8 threads to keep total work
/// bounded, floored at 4,000 instructions.
pub fn fig16_mt_jobs(seed: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for threads in FIG16_THREADS {
        let mut o = ExperimentOptions::paper_default();
        o.insts_per_thread = FIG16_INSTS;
        o.threads = Some(threads);
        if threads > 8 {
            o.insts_per_thread = (o.insts_per_thread * 8 / threads as u64).max(4_000);
        }
        for name in FIG16_WORKLOADS {
            let w = perturb(&workload(name).expect("known workload"), seed);
            jobs.push(Job::new(&o, &w, Scheme::LightWsp));
        }
    }
    jobs
}

/// Splits spec-major jobs into groups of consecutive jobs on the same
/// workload, budget and thread count. A campaign's compile and baseline
/// caches are keyed by exactly these, so running each group on a fresh
/// campaign simulates the same cells, the same number of times, as one
/// campaign over all jobs.
pub fn groups(jobs: Vec<Job>) -> Vec<Vec<Job>> {
    let key = |j: &Job| (j.spec.name, j.opts.insts_per_thread, threads_of(j));
    let mut groups: Vec<Vec<Job>> = Vec::new();
    for job in jobs {
        match groups.last_mut() {
            Some(g) if key(&g[0]) == key(&job) => g.push(job),
            _ => groups.push(vec![job]),
        }
    }
    groups
}

/// Threads a job simulates (the options override, else the spec's).
pub fn threads_of(job: &Job) -> usize {
    job.opts.threads.unwrap_or(job.spec.threads)
}

/// One untraced pass through the production entry point.
pub fn run_pass(jobs: &[Job], workers: usize) -> Vec<(f64, RunResult)> {
    Campaign::with_workers(workers).slowdown_many(jobs)
}

/// The run-time span a simulation is charged to: single-thread runs by
/// scheme, multi-thread runs by thread count.
fn run_span(scheme: Scheme, threads: usize) -> &'static str {
    match (threads, scheme) {
        (1, Scheme::Baseline) => "sim.run_s.baseline",
        (1, Scheme::Capri) => "sim.run_s.capri",
        (1, Scheme::Ppa) => "sim.run_s.ppa",
        (1, Scheme::LightWsp) => "sim.run_s.lightwsp",
        (8, _) => "sim.run_s.t8",
        (64, _) => "sim.run_s.t64",
        _ => unreachable!("no run span for {threads}-thread {} cells", scheme.name()),
    }
}

type Compiled = (Arc<Program>, Arc<RecoveryRecipes>);

/// One traced pass: the same simulations `run_pass` makes, in the same
/// order, each call timed from outside.
pub fn run_pass_traced(jobs: &[Job], trace: &mut Trace) -> Vec<(f64, RunResult)> {
    let mut compiled: HashMap<(&'static str, u64, bool), Compiled> = HashMap::new();
    let mut baselines: HashMap<(&'static str, u64, usize), u64> = HashMap::new();
    let mut simulate = |job: &Job, trace: &mut Trace| -> RunResult {
        let threads = threads_of(job);
        let instrumented = job.scheme.is_instrumented();
        let key = (job.spec.name, job.opts.insts_per_thread, instrumented);
        let (program, recipes) = compiled
            .entry(key)
            .or_insert_with(|| {
                let program = trace.span("workloads.generate_s", || {
                    job.spec
                        .clone()
                        .scaled_to(job.opts.insts_per_thread)
                        .generate()
                });
                if !instrumented {
                    return (Arc::new(program), Arc::new(RecoveryRecipes::default()));
                }
                let c = trace.span("compiler.instrument_s", || {
                    instrument(&program, &job.opts.compiler)
                });
                trace.count(
                    "compiler.boundaries_inserted",
                    c.stats.boundaries_inserted as f64,
                );
                trace.count(
                    "compiler.checkpoints_inserted",
                    c.stats.checkpoints_inserted as f64,
                );
                (Arc::new(c.program), Arc::new(c.recipes))
            })
            .clone();
        let mut cfg = job.opts.sim.clone();
        cfg.scheme = job.scheme;
        cfg.num_cores = threads;
        let window = job.spec.working_set.next_power_of_two();
        let heap = lightwsp_ir::layout::HEAP_BASE;
        cfg.warm_dram = vec![(heap - 0x8000, heap + window * threads as u64)];
        let mut machine = trace.span("sim.machine_new_s", || {
            Machine::new(program, recipes, cfg, threads)
        });
        let completion = trace.span(run_span(job.scheme, threads), || machine.run());
        let r = RunResult {
            workload: job.spec.name,
            scheme: job.scheme,
            threads,
            completion,
            stats: machine.stats().clone(),
        };
        count_run(trace, &r);
        r
    };
    let mut out = Vec::with_capacity(jobs.len());
    for job in jobs {
        let bkey = (job.spec.name, job.opts.insts_per_thread, threads_of(job));
        let base = match baselines.get(&bkey) {
            Some(&c) => c,
            None => {
                let base_job = Job {
                    scheme: Scheme::Baseline,
                    ..job.clone()
                };
                let c = simulate(&base_job, trace).cycles().max(1);
                baselines.insert(bkey, c);
                c
            }
        };
        let r = simulate(job, trace);
        out.push((r.cycles() as f64 / base as f64, r));
    }
    out
}

/// Adds one simulation's exact counts to the trace.
fn count_run(trace: &mut Trace, r: &RunResult) {
    let s = &r.stats;
    let core_cycles = (s.cycles * r.threads as u64) as f64;
    trace.count("sim.runs", 1.0);
    trace.count("sim.insts", s.insts as f64);
    trace.count("sim.cycles", s.cycles as f64);
    trace.count("sim.core_cycles", core_cycles);
    match r.threads {
        8 => trace.count("sim.core_cycles.t8", core_cycles),
        64 => trace.count("sim.core_cycles.t64", core_cycles),
        _ => {}
    }
    trace.count("sim.instrumentation_insts", s.instrumentation_insts as f64);
    trace.count("sim.stall_sb_full", s.stall_sb_full as f64);
    trace.count("sim.stall_load_miss", s.stall_load_miss as f64);
    trace.count("sim.stall_boundary_wait", s.stall_boundary_wait as f64);
    trace.count("sim.stall_lock_spin", s.stall_lock_spin as f64);
    trace.count("sim.regions_committed", s.regions_committed as f64);
    trace.count("mem.l1_hits", s.l1_hits as f64);
    trace.count("mem.l1_misses", s.l1_misses as f64);
    trace.count("mem.l2_misses", s.l2_misses as f64);
    trace.count("mem.dram_misses", s.dram_misses as f64);
    trace.count("mem.snoops", s.snoops as f64);
    trace.count("mem.snoop_conflicts", s.snoop_conflicts as f64);
    trace.count("mem.persist_stores", s.persist_stores as f64);
    trace.count("mem.hol_blocked_cycles", s.hol_blocked_cycles as f64);
    trace.count("mem.wpq_occupancy_sum", s.wpq_mean_occupancy);
    trace.count_max("mem.wpq_max_occupancy", s.wpq_max_occupancy as f64);
    trace.count("mem.wpq_overflows", s.wpq_overflows as f64);
    trace.count("mem.wpq_load_hits", s.wpq_load_hits as f64);
}
