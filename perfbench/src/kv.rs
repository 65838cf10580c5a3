//! The crash workload, `kv-crash`: the 8-client KV/queue service,
//! scaled down, crash-audited at derived plus seeded points with
//! sampled resume-to-completion.
//!
//! Untraced, a pass is one `dsaudit::audit_recoverable_ds` call on a
//! fresh campaign. Traced, the same audit is recomposed step by step
//! from the layers' public functions: the traced run behind
//! `CrashInjector::derived_points`, `golden_run`, and per point the
//! `Machine::run_until` / `Machine::fork` /
//! `inject_power_failure_audited` sequence `CrashSweeper::cut_at`
//! composes, followed by the checks and the sampled resume.

use crate::trace::Trace;
use lightwsp_compiler::{instrument, CompilerConfig};
use lightwsp_core::{audit_recoverable_ds, Campaign, DsAuditBudget, DsAuditReport, Scheme};
use lightwsp_ir::layout::is_checkpoint_addr;
use lightwsp_sim::consistency::golden_run;
use lightwsp_sim::crash::check_capture;
use lightwsp_sim::{Completion, CrashInjector, Machine, SimConfig};
use lightwsp_workloads::ds::service::KvServiceSpec;
use lightwsp_workloads::RecoverableDs;

/// Operations per client of the scaled-down service (8 clients).
pub const OPS_PER_CLIENT: u64 = 512;

/// The audit's inputs.
pub struct KvCrash {
    /// The service (its constructor replays every client's op stream).
    pub spec: KvServiceSpec,
    /// Simulator configuration (the evaluation's, under LightWSP).
    pub cfg: SimConfig,
    /// Crash points and resume sampling.
    pub budget: DsAuditBudget,
}

/// Builds the audit's inputs; `seed` perturbs the crash-point seed only.
pub fn setup(seed: u64) -> KvCrash {
    let spec = KvServiceSpec::new(8, OPS_PER_CLIENT, 64, 1024, 16, 64);
    let mut cfg = lightwsp_core::ExperimentOptions::paper_default().sim;
    cfg.scheme = Scheme::LightWsp;
    let budget = DsAuditBudget {
        seed: DsAuditBudget::full().seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        seeded: 48,
        derived_per_kind: 8,
        resume_every: 12,
    };
    KvCrash { spec, cfg, budget }
}

impl KvCrash {
    /// One untraced pass through the production entry point.
    pub fn run_pass(&self, workers: usize) -> DsAuditReport {
        audit_recoverable_ds(
            &self.spec,
            &self.cfg,
            &CompilerConfig::default(),
            &self.budget,
            &Campaign::with_workers(workers),
        )
        .expect("the service's failure-free run completes")
    }

    /// One traced pass: the audit `run_pass` makes, recomposed from the
    /// layers' functions. Chunks are cut as a `workers`-wide campaign
    /// cuts them and swept in chunk order, so the report is identical.
    pub fn run_pass_traced(&self, workers: usize, trace: &mut Trace) -> DsAuditReport {
        let ds = &self.spec;
        let program = trace.span("workloads.generate_s", || ds.program());
        let compiled = trace.span("compiler.instrument_s", || {
            instrument(&program, &CompilerConfig::default())
        });
        trace.count(
            "compiler.boundaries_inserted",
            compiled.stats.boundaries_inserted as f64,
        );
        trace.count(
            "compiler.checkpoints_inserted",
            compiled.stats.checkpoints_inserted as f64,
        );
        let threads = ds.threads();
        let mut cfg = self.cfg.clone();
        cfg.num_cores = threads;

        let injector = trace.span("sim.machine_new_s", || {
            CrashInjector::new(&compiled, cfg.clone(), threads)
        });
        let (mut points, horizon) = trace.span("crash.traced_run_s", || {
            injector.derived_points(self.budget.derived_per_kind)
        });
        points.extend(injector.seeded_points(self.budget.seed, self.budget.seeded, horizon));
        let points = CrashInjector::prepare_points(&points);
        let (golden, golden_cycles) = trace
            .span("crash.golden_run_s", || {
                golden_run(&compiled, &cfg, threads)
            })
            .expect("the service's failure-free run completes");
        let mut report = DsAuditReport {
            name: ds.name().to_string(),
            golden_cycles,
            ..DsAuditReport::default()
        };
        for v in trace.span("ds.check_final_s", || ds.check_final(&golden)) {
            report.ds_violations.push(format!("golden image: {v}"));
        }

        let chunk_len = points.len().div_ceil(workers.max(1)).max(1);
        for (c, chunk) in points.chunks(chunk_len).enumerate() {
            // The sweeper forks the injector's private cycle-0 template,
            // which is out of reach here; an identically built machine
            // stands in. The audit never makes this build, so it is left
            // out of every span and lands in `trace.unattributed_s`.
            let mut mainline = Machine::new(
                compiled.program.clone(),
                compiled.recipes.clone(),
                cfg.clone(),
                threads,
            );
            let mut finished = false;
            report.points += chunk.len();
            for (i, &p) in chunk.iter().enumerate() {
                finished =
                    finished || trace.span("crash.advance_s", || mainline.run_until(p.cycle));
                if finished {
                    report.beyond_end += 1;
                    continue;
                }
                let mut m = trace.span("crash.fork_s", || mainline.fork());
                let cap = trace.span("crash.power_cut_s", || m.inject_power_failure_audited());
                report.audited += 1;
                trace.span("crash.check_capture_s", || {
                    check_capture(&cap, m.pm_contents(), p, &mut report.gate_violations)
                });
                for v in trace.span("ds.check_image_s", || ds.check_image(m.pm_contents())) {
                    report.ds_violations.push(format!(
                        "{v} at cycle {} ({})",
                        p.cycle,
                        p.kind.name()
                    ));
                }
                let global = c * chunk_len + i;
                if self.budget.resume_every == 0 || !global.is_multiple_of(self.budget.resume_every)
                {
                    continue;
                }
                report.resumed += 1;
                m.set_max_cycles(p.cycle.saturating_add(cfg.max_cycles));
                let done = trace.span("crash.resume_s", || m.run());
                trace.count("crash.resume_cycles", (m.now() - p.cycle) as f64);
                if done != Completion::Finished {
                    report.ds_violations.push(format!(
                        "[resume-completes] recovered run stalled at cycle {} after crash at {}",
                        m.now(),
                        p.cycle
                    ));
                    continue;
                }
                for v in trace.span("ds.check_final_s", || ds.check_final(m.pm_contents())) {
                    report.ds_violations.push(format!(
                        "recovered run: {v} after crash at {} ({})",
                        p.cycle,
                        p.kind.name()
                    ));
                }
                let diverged = ds.deterministic_final()
                    && trace.span("ds.check_final_s", || {
                        golden
                            .first_difference_where(m.pm_contents(), |a| !is_checkpoint_addr(a))
                            .is_some()
                    });
                if diverged {
                    report.ds_violations.push(format!(
                        "[recovery-converges] recovered image diverges after crash at {}",
                        p.cycle
                    ));
                }
            }
        }
        trace.count("crash.points", report.points as f64);
        trace.count("crash.audited", report.audited as f64);
        trace.count("crash.resumed", report.resumed as f64);
        trace.count("crash.golden_cycles", report.golden_cycles as f64);
        report
    }
}

/// The part of a report two passes must agree on: point, audit and
/// resume counts, the golden run's length and the violation counts.
pub fn report_digest(r: &DsAuditReport) -> String {
    format!(
        "points={} audited={} beyond_end={} resumed={} golden_cycles={} gate_violations={} ds_violations={}",
        r.points,
        r.audited,
        r.beyond_end,
        r.resumed,
        r.golden_cycles,
        r.gate_violations.len(),
        r.ds_violations.len()
    )
}
