//! The traced pass measures the same work as the untraced one, the
//! recorded references hold, and `BENCHMARK.json` names what the binary
//! reports. Run with `cargo test --release` (the passes simulate
//! millions of cycles).

use lightwsp_core::DsAuditReport;
use lightwsp_perfbench::reference::{self, Reference, DEFAULT_SEED, HELD_OUT_SEED};
use lightwsp_perfbench::trace::Trace;
use lightwsp_perfbench::{
    cells, kv, run_pass, setup, Inputs, Workload, END_TO_END, PER_LAYER, WORKERS,
};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

fn cells_agree(jobs: &[lightwsp_core::Job]) {
    let untraced = cells::run_pass(jobs, WORKERS);
    let mut trace = Trace::default();
    let traced = cells::run_pass_traced(jobs, &mut trace);
    assert_eq!(untraced.len(), traced.len());
    for ((su, ru), (st, rt)) in untraced.iter().zip(&traced) {
        assert_eq!(ru.stats, rt.stats, "{} {}", ru.workload, ru.scheme.name());
        assert_eq!(ru.completion, rt.completion);
        assert_eq!(su.to_bits(), st.to_bits(), "slowdown of {}", ru.workload);
    }
    assert!(trace.time("sim.machine_new_s") > 0.0);
}

/// Timing a pass group by group simulates what one campaign over every
/// job simulates.
fn groups_agree(workload: Workload, jobs: &[lightwsp_core::Job]) {
    let whole = cells::run_pass(jobs, WORKERS);
    let grouped = run_pass(&setup(workload, DEFAULT_SEED));
    assert_eq!(grouped.digests.len(), whole.len());
    for (d, (s, r)) in grouped.digests.iter().zip(&whole) {
        assert_eq!(d.value, reference::cell_digest(*s, r), "{}", d.key);
    }
}

#[test]
fn traced_fig7_dense_reproduces_campaign_stats() {
    let jobs = cells::fig7_dense_jobs(DEFAULT_SEED);
    cells_agree(&jobs);
    groups_agree(Workload::Fig7Dense, &jobs);
}

#[test]
fn traced_fig16_mt_reproduces_campaign_stats() {
    let jobs = cells::fig16_mt_jobs(DEFAULT_SEED);
    cells_agree(&jobs);
    groups_agree(Workload::Fig16Mt, &jobs);
}

fn same_report(a: &DsAuditReport, b: &DsAuditReport) {
    assert_eq!(a.name, b.name);
    assert_eq!(
        (
            a.points,
            a.audited,
            a.beyond_end,
            a.resumed,
            a.golden_cycles
        ),
        (
            b.points,
            b.audited,
            b.beyond_end,
            b.resumed,
            b.golden_cycles
        )
    );
    assert_eq!(a.gate_violations.len(), b.gate_violations.len());
    assert_eq!(a.ds_violations.len(), b.ds_violations.len());
}

#[test]
fn traced_kv_crash_reproduces_the_audit_report() {
    let k = kv::setup(DEFAULT_SEED);
    let untraced = k.run_pass(WORKERS);
    let mut trace = Trace::default();
    let traced = k.run_pass_traced(WORKERS, &mut trace);
    same_report(&untraced, &traced);
    assert!(untraced.audited > 0 && untraced.resumed > 0);
    assert_eq!(untraced.violations(), 0);
    assert_eq!(trace.get_count("crash.audited"), untraced.audited as f64);
    assert!(trace.time("crash.resume_s") > 0.0);
    // The recomposition cuts chunks as a wider campaign would too.
    let wide = k.run_pass(2);
    let mut trace = Trace::default();
    same_report(&wide, &k.run_pass_traced(2, &mut trace));
}

#[test]
fn default_and_held_out_seeds_match_the_reference() {
    let reference = Reference::load();
    for workload in Workload::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            assert!(reference.covers(workload.name(), seed));
            let inputs = setup(workload, seed);
            let out = run_pass(&inputs);
            assert_eq!(out.failed, 0, "{} seed {seed}", workload.name());
            for d in &out.digests {
                assert_eq!(
                    reference.digest(workload.name(), seed, &d.key),
                    Some(d.value.as_str()),
                    "{} seed {seed} {}",
                    workload.name(),
                    d.key
                );
            }
            if let Inputs::Cells(_) = &inputs {
                let jobs: Vec<_> = inputs.jobs().collect();
                let checked = jobs
                    .iter()
                    .zip(&out.digests)
                    .filter_map(|(j, d)| reference.eval_cycles(j, seed).map(|c| (c, d.cycles)))
                    .inspect(|(want, got)| assert_eq!(want, got))
                    .count();
                if workload == Workload::Fig7Dense && seed == DEFAULT_SEED {
                    assert_eq!(
                        checked,
                        jobs.len(),
                        "every Fig. 7 cell has a BENCH_eval row"
                    );
                }
            }
        }
    }
}

/// The `"name"` values of one `BENCHMARK.json` array, in order.
fn names_in(section: &str) -> Vec<String> {
    let start = BENCHMARK
        .find(&format!("\"{section}\": ["))
        .expect("section");
    let body = &BENCHMARK[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn benchmark_json_names_what_the_binary_reports() {
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names_in("workloads"), workloads);
    let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names_in("per_layer"), layers);
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names_in("end_to_end"), e2e);
}
