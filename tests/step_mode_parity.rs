//! Cycle-exactness parity suite for the event-driven skip-ahead core.
//!
//! `StepMode::Reference` ticks every cycle and is the executable
//! specification; `StepMode::SkipAhead` (the default) jumps over
//! provably-idle intervals using the per-component `next_event`
//! horizons. These tests pin the two together: **every** statistic, the
//! durable PM image, the I/O log, the final cycle count, and each MC's
//! crash-time `FailureResolution` must be bit-identical — across all six
//! schemes, several machine configurations (including multi-MC and
//! multithreaded ones), randomized workloads, and arbitrary crash
//! cycles. The multi-core cases cover the regime where skip-ahead parks
//! cores: Fig. 16's one-core-per-thread cells at 64 cores, threads ≫
//! cores under every preemption quantum, tiny WPQs that force
//! head-of-line retries and the overflow fallback, and `run_until`
//! landings (and a power cut) inside stall-heavy windows.

use lightwsp_compiler::{instrument, Compiled, CompilerConfig};
use lightwsp_core::{cell_config, Experiment, ExperimentOptions};
use lightwsp_sim::{Machine, Scheme, SimConfig, StepMode};
use lightwsp_workloads::{workload, Suite, WorkloadSpec};
use proptest::prelude::*;

const ALL_SCHEMES: [Scheme; 6] = [
    Scheme::Baseline,
    Scheme::LightWsp,
    Scheme::PspIdeal,
    Scheme::Capri,
    Scheme::Ppa,
    Scheme::Cwsp,
];

fn compiled_for(spec: &WorkloadSpec, insts: u64, scheme: Scheme) -> Compiled {
    let program = spec.clone().scaled_to(insts).generate();
    if scheme.is_instrumented() {
        instrument(&program, &CompilerConfig::default())
    } else {
        Compiled {
            program,
            recipes: Default::default(),
            stats: Default::default(),
        }
    }
}

/// Builds the two machines for `spec`/`cfg` differing only in step mode:
/// `(reference, skip_ahead)`.
fn machine_pair(
    spec: &WorkloadSpec,
    insts: u64,
    cfg: &SimConfig,
    threads: usize,
) -> (Machine, Machine) {
    let compiled = compiled_for(spec, insts, cfg.scheme);
    let mut rcfg = cfg.clone();
    rcfg.step_mode = StepMode::Reference;
    let mut scfg = cfg.clone();
    scfg.step_mode = StepMode::SkipAhead;
    let reference = Machine::new(
        compiled.program.clone(),
        compiled.recipes.clone(),
        rcfg,
        threads,
    );
    let skip = Machine::new(compiled.program, compiled.recipes, scfg, threads);
    (reference, skip)
}

/// Runs both machines to completion and asserts every observable is
/// bit-identical.
fn assert_run_parity(spec: &WorkloadSpec, insts: u64, cfg: &SimConfig, threads: usize) {
    let (mut reference, mut skip) = machine_pair(spec, insts, cfg, threads);
    let rc = reference.run();
    let sc = skip.run();
    let label = format!("{} / {:?} / {} MCs", spec.name, cfg.scheme, cfg.mem.num_mcs);
    assert_eq!(rc, sc, "completion differs: {label}");
    assert_eq!(reference.now(), skip.now(), "final cycle differs: {label}");
    assert_eq!(reference.stats(), skip.stats(), "stats differ: {label}");
    assert!(
        reference.pm_contents().same_contents(skip.pm_contents()),
        "PM image differs: {label} (first diff {:?})",
        reference.pm_contents().first_difference(skip.pm_contents())
    );
    assert_eq!(
        reference.io_log(),
        skip.io_log(),
        "I/O log differs: {label}"
    );
}

/// Every scheme, single-threaded SPEC-style workloads, default machine:
/// full `SimStats` equality through the high-level `Experiment` harness
/// (warm DRAM, scaled caches — exactly what the figures run).
#[test]
fn all_schemes_bit_identical_via_experiment() {
    for scheme in ALL_SCHEMES {
        for name in ["hmmer", "mcf"] {
            let w = workload(name).unwrap();
            let mut ropts = ExperimentOptions::quick();
            ropts.sim.step_mode = StepMode::Reference;
            let mut sopts = ExperimentOptions::quick();
            sopts.sim.step_mode = StepMode::SkipAhead;
            let r = Experiment::new(ropts).run(&w, scheme);
            let s = Experiment::new(sopts).run(&w, scheme);
            assert_eq!(r.completion, s.completion, "{name}/{scheme:?}");
            assert_eq!(r.stats, s.stats, "{name}/{scheme:?}");
        }
    }
}

/// Config matrix: single MC, many MCs with a tiny WPQ (overflow-fallback
/// pressure), and a multithreaded run with spin locks and preemption —
/// the states where skip decisions are most delicate.
#[test]
fn config_matrix_parity() {
    // 1 MC — no boundary-broadcast skew at all.
    let mut one_mc = SimConfig::new(Scheme::LightWsp);
    one_mc.mem.num_mcs = 1;
    assert_run_parity(&workload("bzip2").unwrap(), 10_000, &one_mc, 1);

    // 4 MCs + tiny WPQ: deadlock detection, overflow mode, HOL retries.
    let mut tiny_wpq = SimConfig::new(Scheme::LightWsp);
    tiny_wpq.mem.num_mcs = 4;
    tiny_wpq.mem.wpq_entries = 8;
    assert_run_parity(&workload("mcf").unwrap(), 10_000, &tiny_wpq, 1);

    // Capri stop-and-wait across 2 MCs (boundary-wait interval skips).
    let capri = SimConfig::new(Scheme::Capri);
    assert_run_parity(&workload("hmmer").unwrap(), 10_000, &capri, 1);

    // PPA drain waits under the immediate flush mode.
    let ppa = SimConfig::new(Scheme::Ppa);
    assert_run_parity(&workload("lbm").unwrap(), 10_000, &ppa, 1);

    // Multithreaded with locks: spin wake-ups, timeslice rotation, and
    // two threads sharing one core.
    let mut vac = workload("vacation").unwrap();
    vac.threads = 4;
    let mt = SimConfig::new(Scheme::LightWsp).with_cores(2);
    assert_run_parity(&vac, 8_000, &mt, 4);
}

/// The unified termination path: `run_until` beyond the cycle cap stops
/// exactly at `max_cycles` (the latent overshoot fixed alongside the
/// skip-ahead core), folds final stats, and behaves identically in both
/// modes; within the cap it lands on exactly the requested cycle.
#[test]
fn run_until_respects_cap_and_lands_exactly() {
    let w = workload("mcf").unwrap();
    for mode in [StepMode::Reference, StepMode::SkipAhead] {
        let mut cfg = SimConfig::new(Scheme::LightWsp);
        cfg.max_cycles = 2_000;
        cfg.step_mode = mode;
        let compiled = compiled_for(&w, 10_000, cfg.scheme);
        let mut m = Machine::new(compiled.program, compiled.recipes, cfg, 1);
        assert!(!m.run_until(u64::MAX), "cannot complete by the cap");
        assert_eq!(m.now(), 2_000, "{mode:?}: capped exactly at max_cycles");
        assert_eq!(m.stats().cycles, 2_000, "{mode:?}: stats folded at cap");
    }
    // Arbitrary in-run targets land exactly (the crash injector's
    // contract), and the machine states agree at each stop.
    let cfg = SimConfig::new(Scheme::LightWsp);
    let (mut reference, mut skip) = machine_pair(&w, 10_000, &cfg, 1);
    for target in [1, 37, 1_000, 4_321, 20_000] {
        assert!(!reference.run_until(target));
        assert!(!skip.run_until(target));
        assert_eq!(reference.now(), target);
        assert_eq!(skip.now(), target);
        assert_eq!(
            reference.stats().stall_load_miss,
            skip.stats().stall_load_miss
        );
        assert_eq!(
            reference.stats().stall_boundary_wait,
            skip.stats().stall_boundary_wait
        );
    }
}

/// Crash-audit parity: power cut at identical, arbitrary cycles yields
/// identical `FailureResolution`s (entry-by-entry), identical survivable
/// sets, identical pre-resolution PM images — and the resumed runs
/// complete with identical stats.
#[test]
fn crash_resolutions_identical_at_identical_cycles() {
    for (name, scheme) in [("hmmer", Scheme::LightWsp), ("mcf", Scheme::Capri)] {
        let w = workload(name).unwrap();
        let cfg = SimConfig::new(scheme);
        let (mut reference, mut skip) = machine_pair(&w, 8_000, &cfg, 1);
        for target in [211, 1_009, 3_500, 9_999] {
            assert!(!reference.run_until(target));
            assert!(!skip.run_until(target));
            let rc = reference.inject_power_failure_audited();
            let sc = skip.inject_power_failure_audited();
            let label = format!("{name}/{scheme:?}@{target}");
            assert_eq!(rc.at_cycle, sc.at_cycle, "{label}");
            assert_eq!(rc.commit_frontier, sc.commit_frontier, "{label}");
            assert_eq!(rc.survivable, sc.survivable, "{label}");
            assert_eq!(rc.per_mc, sc.per_mc, "resolutions differ: {label}");
            assert!(
                rc.pm_before.same_contents(&sc.pm_before),
                "pre-resolution PM differs: {label}"
            );
            assert_eq!(rc.report.resume_points, sc.report.resume_points, "{label}");
        }
        // Resume after the last failure and finish: still identical.
        let rcomp = reference.run();
        let scomp = skip.run();
        assert_eq!(rcomp, scomp);
        assert_eq!(
            reference.stats(),
            skip.stats(),
            "{name}/{scheme:?} post-recovery"
        );
        assert!(reference.pm_contents().same_contents(skip.pm_contents()));
    }
}

/// Fig. 16-shape cells: one core per thread at 64 threads on the
/// figure's 4k floor budget, built exactly as the campaign builds them
/// (warm DRAM window, scaled caches). Both modes must agree on every
/// statistic, the PM image and the I/O log.
#[test]
fn fig16_cells_64_cores_step_identically() {
    for name in ["intruder", "tatp"] {
        for scheme in [Scheme::Baseline, Scheme::LightWsp] {
            let mut w = workload(name).unwrap();
            w.threads = 64;
            let cfg = cell_config(
                &ExperimentOptions::paper_default().sim,
                &w,
                scheme,
                w.threads,
            );
            assert_run_parity(&w, 4_000, &cfg, w.threads);
        }
    }
}

/// Threads ≫ cores: 16 and 64 threads multiplexed on 8 cores, with the
/// quantum at 0 (rotate every retire slot), the default, and 10⁶
/// (never preempt at a safe point).
#[test]
fn threads_oversubscribing_cores_step_identically() {
    for threads in [16, 64] {
        for timeslice in [0, SimConfig::new(Scheme::LightWsp).timeslice, 1_000_000] {
            let mut w = workload("intruder").unwrap();
            w.threads = threads;
            let mut cfg = SimConfig::new(Scheme::LightWsp).with_cores(8);
            cfg.timeslice = timeslice;
            assert_run_parity(&w, 1_500, &cfg, threads);
        }
    }
}

/// 1 and 4 MCs behind an 8-entry WPQ, 16 cores: full queues turn most
/// deliveries into head-of-line retries and trip the overflow
/// fallback, the states where skip-ahead parks path heads.
#[test]
fn tiny_wpq_hol_and_overflow_step_identically() {
    for num_mcs in [1, 4] {
        let mut w = workload("tatp").unwrap();
        w.threads = 16;
        let mut cfg = SimConfig::new(Scheme::LightWsp).with_cores(16);
        cfg.mem.num_mcs = num_mcs;
        cfg.mem.wpq_entries = 8;
        assert_run_parity(&w, 3_000, &cfg, 16);
        let (mut reference, _) = machine_pair(&w, 3_000, &cfg, 16);
        reference.run();
        let s = reference.stats();
        assert!(s.hol_blocked_cycles > 0, "{num_mcs} MCs: no HOL retries");
        assert!(s.wpq_overflows > 0, "{num_mcs} MCs: no overflow fallback");
    }
}

/// A `run_until` ladder through a stall-heavy 16-core window: landing
/// every 97 cycles, the full `SimStats` agree at each stop — the parked
/// cores' and heads' deferred charges are folded at every landing. Then
/// a power cut taken mid-stall yields identical captures, and the
/// resumed runs finish identically.
#[test]
fn run_until_ladder_and_power_cut_while_parked() {
    let mut w = workload("intruder").unwrap();
    w.threads = 16;
    let mut cfg = SimConfig::new(Scheme::LightWsp).with_cores(16);
    cfg.mem.wpq_entries = 16;
    let (mut reference, mut skip) = machine_pair(&w, 3_000, &cfg, 16);
    let mut target = 0;
    let mut stalls_before_last = 0;
    while target < 6_000 {
        stalls_before_last = skip.stats().stall_load_miss;
        target += 97;
        assert_eq!(reference.run_until(target), skip.run_until(target));
        assert_eq!(reference.now(), skip.now(), "landing {target}");
        assert_eq!(reference.stats(), skip.stats(), "stats at {target}");
    }
    assert!(
        skip.stats().stall_load_miss > stalls_before_last,
        "the cut must land while load-miss stalls accrue"
    );
    let rc = reference.inject_power_failure_audited();
    let sc = skip.inject_power_failure_audited();
    assert_eq!(rc.at_cycle, sc.at_cycle);
    assert_eq!(rc.survivable, sc.survivable);
    assert_eq!(rc.per_mc, sc.per_mc, "resolutions differ");
    assert!(rc.pm_before.same_contents(&sc.pm_before));
    assert_eq!(rc.report.resume_points, sc.report.resume_points);
    assert_eq!(reference.stats(), skip.stats(), "stats after the cut");
    assert_eq!(reference.run(), skip.run());
    assert_eq!(reference.now(), skip.now());
    assert_eq!(reference.stats(), skip.stats(), "stats after resume");
    assert!(reference.stats().hol_blocked_cycles > 0, "no HOL retries");
    assert!(reference.pm_contents().same_contents(skip.pm_contents()));
}

fn arbitrary_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        1u32..4,                                          // loads
        1u32..4,                                          // stores
        0u32..8,                                          // alu
        12u64..18,                                        // log2 working set
        0.0f64..1.0,                                      // seq fraction
        1u32..4,                                          // phases
        20u32..60,                                        // iters per phase
        prop_oneof![Just(0u32), Just(8u32), Just(16u32)], // sync_every
        0u64..u64::MAX,                                   // seed
    )
        .prop_map(
            |(loads, stores, alu, ws_log2, seq, phases, iters, sync_every, seed)| WorkloadSpec {
                name: "prop",
                suite: Suite::Cpu2006,
                seed,
                loads_per_iter: loads,
                stores_per_iter: stores,
                alu_per_iter: alu,
                working_set: 1 << ws_log2,
                seq_fraction: seq,
                phases,
                iters_per_phase: iters,
                call_every: 2,
                sync_every,
                threads: 1,
                locks: 4,
                seq_stride: 8,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// Randomized-seed sweep: any program shape, any seed stream, any
    /// scheme and MC count — both step modes agree on everything.
    #[test]
    fn random_workloads_step_identically(
        spec in arbitrary_spec(),
        scheme_idx in 0usize..6,
        num_mcs in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
    ) {
        let mut cfg = SimConfig::new(ALL_SCHEMES[scheme_idx]);
        cfg.mem.num_mcs = num_mcs;
        let (mut reference, mut skip) = machine_pair(&spec, 8_000, &cfg, 1);
        let rc = reference.run();
        let sc = skip.run();
        prop_assert_eq!(rc, sc);
        prop_assert_eq!(reference.now(), skip.now());
        prop_assert_eq!(reference.stats(), skip.stats());
        prop_assert!(reference.pm_contents().same_contents(skip.pm_contents()));
    }
}
