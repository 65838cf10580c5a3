//! CI perf gate for the event-driven skip-ahead core: times the
//! Fig. 7/Fig. 11 single-thread cells, and Fig. 16 Baseline/LightWSP
//! cells at 8 and 64 cores, under both step modes on the `--quick`
//! budget (or `paper_default` without the flag) and **fails** if
//! skip-ahead is slower than [`StepMode::Reference`] on either batch —
//! a regression in the `next_event` horizons, or in the parking of
//! idle cores, would silently turn the skip loop into pure overhead.
//! Also cross-checks cycle counts on every cell, so a parity break
//! fails the gate too.
//!
//! [`StepMode::Reference`]: lightwsp_sim::StepMode::Reference

use lightwsp_bench::stepmode;

fn main() {
    let opts = lightwsp_bench::common_options();
    let reps = 3;
    let batches = [
        ("single-thread", stepmode::fig07_fig11_cells(&opts)),
        ("multi-core", stepmode::fig16_cells(&opts)),
    ];
    let mut failed = false;
    for (batch, cells) in &batches {
        let timings = stepmode::compare_cells(cells, reps);
        for t in &timings {
            println!(
                "{:>13} {:>12} {:>9}: ref {:>8.2}ms skip {:>8.2}ms speedup {:>5.2}x ({} cycles)",
                t.figure,
                t.workload,
                t.scheme.name(),
                t.reference_s * 1e3,
                t.skip_ahead_s * 1e3,
                t.speedup(),
                t.cycles,
            );
        }
        let s = stepmode::summarize(&timings);
        println!(
            "{batch} batch: ref {:.2}s skip {:.2}s -> {:.2}x (geomean {:.2}x over {} cells)",
            s.reference_s, s.skip_ahead_s, s.batch_speedup, s.geomean_speedup, s.cells
        );
        if s.batch_speedup < 1.0 {
            eprintln!(
                "FAIL: skip-ahead slower than the reference stepper on the {batch} batch ({:.2}x)",
                s.batch_speedup
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
