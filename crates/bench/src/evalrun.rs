//! The `all_figures` evaluation driver, factored out of the bin so the
//! incremental-re-bench regression test can run cold/warm passes
//! in-process.
//!
//! Every simulation goes through one shared [`Campaign`] with an
//! optional [`ResultStore`] attached: per-run cells are served from the
//! store when the (workload, scheme, config-digest, code-digest) key
//! matches, and the coarse timing sections (step-mode, exec-mode, the
//! figure wall-clocks) are memoized as whole records — wall-clock
//! numbers are stored as `f64` bit patterns, so a warm re-run on
//! unchanged code regenerates `BENCH_eval.json` byte-for-byte except
//! for the single-line `"cache"` meta field (mask with
//! `grep -v '"cache":'` when comparing).

use crate::{emit, emit_text, execmode, figures, mempath, stepmode, Filter};
use lightwsp_core::{
    digest_debug, memo_value, record_codec, Campaign, ExperimentOptions, Job, JsonWriter,
    ResultStore, Scheme, StoreKey,
};
use lightwsp_workloads::all_workloads;
use std::fmt::Write as _;
use std::time::Instant;

/// Serial, pre-optimization (SipHash maps, per-word memory, no shared
/// caches, one thread, per-cycle stepping) wall-clock of the
/// fig07+fig11 `--quick` subset on the reference container (1 core):
/// 4.39 s + 5.29 s. The acceptance speedup in `BENCH_eval.json` is
/// measured against this.
pub const SERIAL_SEED_FIG07_FIG11_QUICK_S: f64 = 9.68;

/// Inputs of one evaluation pass.
pub struct EvalOptions {
    /// Experiment configuration (budget, sim knobs).
    pub opts: ExperimentOptions,
    /// Reduced-budget smoke mode.
    pub quick: bool,
    /// Section/workload selection.
    pub filter: Filter,
    /// Result store, or `None` to compute everything.
    pub store: Option<ResultStore>,
}

impl EvalOptions {
    /// Builds the options from the CLI flags (`--quick`,
    /// `--filter=`) and environment (`LIGHTWSP_FILTER`,
    /// `LIGHTWSP_STORE`, mode overrides).
    pub fn from_env_args() -> EvalOptions {
        EvalOptions {
            opts: crate::common_options(),
            quick: std::env::args().any(|a| a == "--quick"),
            filter: Filter::from_env_args(),
            store: crate::store(),
        }
    }
}

/// Outputs of one evaluation pass.
pub struct EvalSummary {
    /// The `BENCH_eval.json` document.
    pub json: String,
    /// Real elapsed wall-clock of this pass (not the memoized value
    /// reported inside `json`).
    pub wall_s: f64,
    /// Cells simulated this pass: store misses when a store is
    /// attached (every record kind), otherwise campaign-level
    /// simulation count.
    pub cells_simulated: u64,
    /// Cells served from the store (or campaign slot caches).
    pub cells_served: u64,
    /// One-line human summary for stderr.
    pub headline: String,
}

/// Serves the stored wall-clock for `name`, or measures and records
/// it (a full run's quick-subset timing is itself a multi-second
/// simulation pass, so the measurement is lazy).
fn memo_wall(
    store: Option<&ResultStore>,
    name: &str,
    config: u64,
    measure: impl FnOnce() -> f64,
) -> f64 {
    let key = StoreKey::new(
        "metawall",
        name,
        "wall",
        config,
        0,
        store.map_or(0, ResultStore::code),
    );
    memo_value(store, &key, measure).0
}

fn section_key(store: Option<&ResultStore>, name: &str, config: u64) -> StoreKey {
    StoreKey::new(
        "section",
        name,
        "timing",
        config,
        0,
        store.map_or(0, ResultStore::code),
    )
}

record_codec! {
    /// The memoized step-mode section: its summary plus the
    /// pre-rendered JSON rows.
    struct StepSection {
        summary: stepmode::Summary,
        rows: String,
    }
}

record_codec! {
    /// The memoized dispatch-kernel half of the exec-mode section.
    struct ExecKernels {
        dispatch_geomean: f64,
        rows: String,
    }
}

record_codec! {
    /// The memoized Fig. 7 cell half of the exec-mode section.
    struct ExecCells {
        summary: execmode::Summary,
        rows: String,
    }
}

record_codec! {
    /// The memoized memory-path micro-stream section.
    struct MemSection {
        streams: usize,
        stream_geomean: f64,
        rows: String,
    }
}

/// Runs the (filtered) evaluation and assembles `BENCH_eval.json`.
pub fn run_eval(eo: &EvalOptions) -> EvalSummary {
    let mut c = Campaign::new();
    if let Some(s) = &eo.store {
        c.attach_store(s.clone());
    }
    let store = eo.store.as_ref();
    let opts = &eo.opts;
    let f = &eo.filter;
    let cfg_digest = digest_debug(&(opts, eo.quick));
    let t0 = Instant::now();

    let mut fig07_s = None;
    if f.section("fig07") {
        let t = Instant::now();
        emit(&figures::fig07(&c, opts));
        fig07_s = Some(memo_wall(store, "fig07-wall", cfg_digest, || {
            t.elapsed().as_secs_f64()
        }));
    }
    let mut fig11_s = None;
    if f.section("fig11") {
        let t = Instant::now();
        emit(&figures::fig11(&c, opts));
        fig11_s = Some(memo_wall(store, "fig11-wall", cfg_digest, || {
            t.elapsed().as_secs_f64()
        }));
    }
    if f.section("fig08") {
        emit(&figures::fig08(&c, opts));
    }
    if f.section("fig09") {
        emit(&figures::fig09(&c, opts));
    }
    if f.section("fig10") {
        emit(&figures::fig10(&c, opts));
    }
    if f.section("fig12") {
        emit(&figures::fig12(&c, opts));
    }
    if f.section("fig13") {
        emit(&figures::fig13(&c, opts));
    }
    if f.section("fig14") {
        emit(&figures::fig14(&c, opts));
    }
    if f.section("fig15") {
        emit(&figures::fig15(&c, opts));
    }
    if f.section("fig16") {
        let (fig16, overflow) = figures::fig16(&c, opts);
        emit(&fig16);
        emit_text("secVF5_overflow", &overflow);
    }
    if f.section("fig17") {
        emit(&figures::fig17(&c, opts));
    }
    if f.section("fig18") {
        emit(&figures::fig18(&c, opts));
    }
    if f.section("tab02") {
        emit(&figures::tab02(&c, opts));
    }
    if f.section("cam") {
        emit_text("secVG2_cam", &figures::tab_cam());
    }
    if f.section("regions") {
        emit_text("secVG3_regions", &figures::tab_region_stats(&c, opts));
    }
    if f.section("hwcost") {
        emit_text("secVG4_hwcost", &figures::tab_hw_cost());
    }

    // Per-run benchmark records over the Fig. 7 matrix. With a store
    // attached each cell is served directly (bit-identical stats and
    // stored wall-clock); otherwise the campaign's slot caches are warm
    // from the figure passes, so these wall-clocks reflect the
    // simulate-only cost of each (workload, scheme) cell.
    let timed = f.section("runs").then(|| {
        let schemes = [Scheme::Capri, Scheme::Ppa, Scheme::LightWsp];
        let jobs: Vec<Job> = all_workloads()
            .iter()
            .filter(|w| f.workload(w.name))
            .flat_map(|w| schemes.iter().map(|&s| Job::new(opts, w, s)))
            .collect();
        c.run_many_timed(&jobs)
    });

    // The serial-seed acceptance baseline was captured on the `--quick`
    // fig07+fig11 subset; in a full run that subset is measured
    // separately (a few extra seconds, memoized) so the field is never
    // null. Only meaningful when both figures ran.
    let quick_subset_s = match (fig07_s, fig11_s) {
        (Some(a), Some(b)) if eo.quick => Some(a + b),
        (Some(_), Some(_)) => Some(memo_wall(
            store,
            "quick-subset-wall",
            cfg_digest,
            quick_subset_wall_s,
        )),
        _ => None,
    };

    // Step-mode comparison: every Fig. 7 / Fig. 11 single-thread cell
    // timed under the per-cycle reference stepper and the event-driven
    // skip-ahead core. The whole section is one memoized record — the
    // cell timings are only meaningful measured together cold.
    let step = f.section("stepmode").then(|| {
        eprintln!("timing step modes over the fig07+fig11 single-thread cells...");
        let key = section_key(store, "stepmode", cfg_digest);
        memo_value(store, &key, || {
            let cells = stepmode::fig07_fig11_cells(opts);
            let timings = stepmode::compare_cells(&cells, 5);
            let summary = stepmode::summarize(&timings);
            let mut rows = Vec::with_capacity(timings.len());
            for t in &timings {
                rows.push(format!(
                    "    {{\"figure\": \"{}\", \"workload\": \"{}\", \"scheme\": \"{}\", \
                         \"cycles\": {}, \"reference_ms\": {:.3}, \"skip_ahead_ms\": {:.3}, \
                         \"speedup\": {:.2}}}",
                    t.figure,
                    t.workload,
                    t.scheme.name(),
                    t.cycles,
                    t.reference_s * 1e3,
                    t.skip_ahead_s * 1e3,
                    t.speedup(),
                ));
            }
            StepSection {
                summary,
                rows: rows.join(",\n"),
            }
        })
        .0
    });

    // Exec-mode comparison: dispatch-level kernels plus every Fig. 7
    // single-thread cell under both exec modes, each half memoized as
    // its own record.
    let exec = f.section("execmode").then(|| {
        eprintln!("timing exec modes (dispatch kernels + fig07 single-thread cells)...");
        let kernels_key = section_key(store, "execmode-kernels", cfg_digest);
        let kernels_rec = memo_value(store, &kernels_key, || {
            let kernels = execmode::dispatch_kernels(60_000, 20);
            let mut rows = Vec::with_capacity(kernels.len());
            for k in &kernels {
                rows.push(format!(
                    "    {{\"workload\": \"{}\", \"insts\": {}, \"tree_ms\": {:.3}, \
                         \"decoded_ms\": {:.3}, \"speedup\": {:.2}}}",
                    k.workload,
                    k.insts,
                    k.tree_s * 1e3,
                    k.decoded_s * 1e3,
                    k.speedup(),
                ));
            }
            ExecKernels {
                dispatch_geomean: execmode::dispatch_geomean(&kernels),
                rows: rows.join(",\n"),
            }
        })
        .0;
        let cells_key = section_key(store, "execmode-cells", cfg_digest);
        let cells_rec = memo_value(store, &cells_key, || {
            let cells = execmode::fig07_cells(opts);
            let timings = execmode::compare_cells(&cells, 5);
            let summary = execmode::summarize(&timings);
            let mut rows = Vec::with_capacity(timings.len());
            for t in &timings {
                rows.push(format!(
                    "    {{\"figure\": \"{}\", \"workload\": \"{}\", \"scheme\": \"{}\", \
                         \"compute_dense\": {}, \"cycles\": {}, \"reference_ms\": {:.3}, \
                         \"decoded_ms\": {:.3}, \"speedup\": {:.2}}}",
                    t.figure,
                    t.workload,
                    t.scheme.name(),
                    t.compute_dense,
                    t.cycles,
                    t.reference_s * 1e3,
                    t.decoded_s * 1e3,
                    t.speedup(),
                ));
            }
            ExecCells {
                summary,
                rows: rows.join(",\n"),
            }
        })
        .0;
        (kernels_rec, cells_rec)
    });

    // Memory-path micro streams: the fast-path cache model (+ residency
    // filter) vs its executable specification on the standard stream
    // set, one memoized record.
    let mem = f.section("mem_path").then(|| {
        eprintln!("timing memory-path micro streams (fast vs reference cache models)...");
        let key = section_key(store, "mem_path", cfg_digest);
        memo_value(store, &key, || {
            let n = if eo.quick { 20_000 } else { 200_000 };
            let timings: Vec<_> = mempath::micro_streams(n)
                .iter()
                .map(|s| mempath::time_stream(s, 5))
                .collect();
            let mut rows = Vec::with_capacity(timings.len());
            for t in &timings {
                rows.push(format!(
                    "    {{\"stream\": \"{}\", \"what\": \"{}\", \"accesses\": {}, \
                         \"fast_ns_per_access\": {:.2}, \"reference_ns_per_access\": {:.2}, \
                         \"speedup\": {:.2}}}",
                    t.name,
                    t.what,
                    t.accesses,
                    t.fast_ns(),
                    t.reference_ns(),
                    t.speedup(),
                ));
            }
            MemSection {
                streams: timings.len(),
                stream_geomean: mempath::stream_geomean(&timings),
                rows: rows.join(",\n"),
            }
        })
        .0
    });

    let wall_s = t0.elapsed().as_secs_f64();
    let total_s = memo_wall(
        store,
        "total-wall",
        digest_debug(&(opts, eo.quick, f.normalized())),
        || wall_s,
    );

    // Assemble the document. Every value below is either memoized or
    // derived from memoized values, so a warm pass is byte-identical —
    // except the one-line "cache" field, which reports *this* pass.
    let mut w = JsonWriter::new();
    w.object("meta");
    w.field("threads", c.workers());
    w.field("quick", eo.quick);
    w.field_str("filter", &f.normalized());
    w.field("total_wall_s", format_args!("{total_s:.3}"));
    if let Some(v) = fig07_s {
        w.field("fig07_wall_s", format_args!("{v:.3}"));
    }
    if let Some(v) = fig11_s {
        w.field("fig11_wall_s", format_args!("{v:.3}"));
    }
    if let Some(qs) = quick_subset_s {
        w.field(
            "serial_seed_fig07_fig11_quick_s",
            format_args!("{SERIAL_SEED_FIG07_FIG11_QUICK_S:.2}"),
        );
        w.field("quick_subset_wall_s", format_args!("{qs:.3}"));
        w.field(
            "speedup_fig07_fig11_vs_serial_seed",
            format_args!("{:.2}", SERIAL_SEED_FIG07_FIG11_QUICK_S / qs.max(1e-9)),
        );
    }
    if let Some(StepSection { summary: s, .. }) = &step {
        w.field("stepmode_cells", s.cells);
        w.field(
            "stepmode_fig07_fig11_reference_s",
            format_args!("{:.3}", s.reference_s),
        );
        w.field(
            "stepmode_fig07_fig11_skip_ahead_s",
            format_args!("{:.3}", s.skip_ahead_s),
        );
        w.field(
            "skip_ahead_speedup_fig07_fig11",
            format_args!("{:.2}", s.batch_speedup),
        );
        w.field(
            "skip_ahead_geomean_speedup_cells",
            format_args!("{:.2}", s.geomean_speedup),
        );
    }
    if let Some((kernels, ExecCells { summary: s, .. })) = &exec {
        w.field(
            "exec_dispatch_geomean_speedup",
            format_args!("{:.2}", kernels.dispatch_geomean),
        );
        w.field("execmode_cells", s.cells);
        w.field(
            "execmode_fig07_reference_s",
            format_args!("{:.3}", s.reference_s),
        );
        w.field(
            "execmode_fig07_decoded_s",
            format_args!("{:.3}", s.decoded_s),
        );
        w.field(
            "decoded_geomean_speedup_cells",
            format_args!("{:.2}", s.geomean_speedup),
        );
        w.field(
            "decoded_dense_geomean_speedup",
            format_args!("{:.2}", s.dense_geomean_speedup),
        );
    }
    if let Some(rec) = &mem {
        w.field("mem_path_streams", rec.streams);
        w.field(
            "mem_path_stream_geomean_speedup",
            format_args!("{:.2}", rec.stream_geomean),
        );
    }
    w.field("cache", cache_line(&c));
    w.close();
    if let Some(timed) = &timed {
        w.array("runs");
        for (r, wall_ms) in timed {
            w.elem(&format!(
                "{{\"workload\": \"{}\", \"scheme\": \"{}\", \"cycles\": {}, \
                 \"wall_ms\": {:.3}, \"threads\": {}}}",
                r.workload,
                r.scheme.name(),
                r.stats.cycles,
                wall_ms,
                r.threads,
            ));
        }
        w.close();
    }
    if let Some(rec) = &step {
        w.array("step_mode_runs");
        w.elems_block(&rec.rows);
        w.close();
    }
    if let Some((kernels, cells)) = &exec {
        w.array("exec_dispatch_kernels");
        w.elems_block(&kernels.rows);
        w.close();
        w.array("exec_mode_runs");
        w.elems_block(&cells.rows);
        w.close();
    }
    if let Some(rec) = &mem {
        w.array("mem_path_runs");
        w.elems_block(&rec.rows);
        w.close();
    }
    let json = w.finish();

    let stats = c.cache_stats();
    let (cells_simulated, cells_served) = match &stats.store {
        Some(s) => (s.misses, s.hits),
        None => (stats.simulated, stats.served),
    };
    let mut headline = format!(
        "all figures regenerated in {wall_s:.1}s ({} workers; {cells_simulated} cells simulated, \
         {cells_served} served",
        c.workers(),
    );
    if let Some(StepSection { summary: s, .. }) = &step {
        let _ = write!(
            headline,
            "; skip-ahead {:.2}x batch / {:.2}x geomean over {} cells",
            s.batch_speedup, s.geomean_speedup, s.cells,
        );
    }
    if let Some((kernels, cells)) = &exec {
        let _ = write!(
            headline,
            "; decoded dispatch {:.2}x geomean, dense cells {:.2}x geomean",
            kernels.dispatch_geomean, cells.summary.dense_geomean_speedup,
        );
    }
    if let Some(rec) = &mem {
        let _ = write!(
            headline,
            "; mem-path micro {:.2}x geomean over {} streams",
            rec.stream_geomean, rec.streams,
        );
    }
    headline.push(')');

    EvalSummary {
        json,
        wall_s,
        cells_simulated,
        cells_served,
        headline,
    }
}

/// Renders the per-pass cache statistics as a one-line JSON object —
/// the only part of `BENCH_eval.json` that differs between a cold and
/// a warm pass (mask with `grep -v '"cache":'` when comparing).
pub fn cache_line(c: &Campaign) -> String {
    let stats = c.cache_stats();
    let mut line = format!(
        "{{\"served\": {}, \"simulated\": {}",
        stats.served, stats.simulated
    );
    if let Some(s) = &stats.store {
        let _ = write!(
            line,
            ", \"store_hits\": {}, \"store_misses\": {}, \"store_puts\": {}, \
             \"loaded_entries\": {}, \"resident_entries\": {}",
            s.hits, s.misses, s.puts, s.loaded_entries, s.resident_entries,
        );
    }
    line.push('}');
    line
}

/// Wall-clock of the fig07+fig11 generators at the `--quick` budget on
/// a fresh, store-less campaign — the subset the serial-seed baseline
/// recorded. Memoized by the caller; a warm pass never re-measures.
fn quick_subset_wall_s() -> f64 {
    let opts = ExperimentOptions::quick();
    let c = Campaign::new();
    let t0 = Instant::now();
    let _ = figures::fig07(&c, &opts);
    let _ = figures::fig11(&c, &opts);
    t0.elapsed().as_secs_f64()
}
