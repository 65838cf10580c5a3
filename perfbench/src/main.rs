//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds the workload's inputs from the seed (set-up, timed several
//! times), then runs passes until `--seconds` have elapsed and prints
//! one JSON object as the last line of standard output: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Every pass is checked: against the first pass, against the traced
//! pass, and, at the default and held-out seeds, against the recorded
//! reference.
//!
//! `perfbench --record-reference` prints the reference file instead.

use lightwsp_perfbench::reference::{Reference, DEFAULT_SEED, HELD_OUT_SEED};
use lightwsp_perfbench::trace::Trace;
use lightwsp_perfbench::{
    mismatched_ops, per_layer, run_group, run_pass, setup, Outcome, TracedRun, Workload,
    END_TO_END, WORKERS,
};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Rounds a run makes at least, however long they take.
const MIN_ROUNDS: usize = 3;

/// Set-up samples per round; the low decile of all is reported.
const SETUP_REPS: usize = 5;

/// A set-up sample repeats the set-up until this much time has passed
/// and counts the mean of one; a single microsecond-long set-up is too
/// short to time steadily.
const SETUP_SAMPLE: Duration = Duration::from_millis(2);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s| s > 0)
                        .ok_or(format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Index of the low decile (nearest rank below) in `n` sorted samples.
fn low_decile_rank(n: usize) -> usize {
    (n - 1) / 10
}

/// The low decile of `v` (sorts it in place). Contention from other
/// tenants of a shared host only ever slows a sample, and it comes and
/// goes within a run, so the fast end of the samples follows the
/// program and not its neighbours; the decile, unlike the minimum,
/// still takes several samples to move.
fn low_decile(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[low_decile_rank(v.len())]
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn record_reference() {
    for workload in Workload::ALL {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let out = run_pass(&setup(workload, seed));
            for d in out.digests {
                println!("{}\t{seed}\t{}\t{}", workload.name(), d.key, d.value);
            }
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--record-reference"] {
        record_reference();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The simulator's engine and worker knobs would change what a pass
    // measures; refuse rather than report numbers of another setup.
    let knob = std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("LIGHTWSP_"));
    if let Some((k, _)) = knob {
        eprintln!("perfbench: unset {k:?}; the benchmark runs the default engines");
        return ExitCode::from(2);
    }
    let name = args.workload.name();

    // Each round builds the inputs afresh (set-up, `SETUP_REPS` timed
    // samples), then runs every group of the pass untraced and, with
    // `--trace 1`, traced. Rounds repeat until `--seconds` have passed,
    // so every kind of sample is spread over the whole run.
    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut inputs = setup(args.workload, args.seed);
    let groups = inputs.groups();
    let mut setup_times = Vec::new();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); groups];
    let mut traced: Vec<Vec<(f64, Trace)>> = (0..groups).map(|_| Vec::new()).collect();
    let mut passes: Vec<Outcome> = Vec::new();
    let mut peak_rss = 0.0;
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < deadline {
        rounds += 1;
        for _ in 0..SETUP_REPS {
            let t0 = Instant::now();
            let mut builds = 0;
            while builds == 0 || t0.elapsed() < SETUP_SAMPLE {
                inputs = black_box(setup(args.workload, args.seed));
                builds += 1;
            }
            setup_times.push(t0.elapsed().as_secs_f64() / f64::from(builds));
        }
        let mut pass = Outcome::default();
        let mut traced_pass = Outcome::default();
        for g in 0..groups {
            let t0 = Instant::now();
            pass.extend(run_group(&inputs, g, None));
            walls[g].push(t0.elapsed().as_secs_f64());
            if args.trace {
                let mut trace = Trace::default();
                let t0 = Instant::now();
                traced_pass.extend(run_group(&inputs, g, Some(&mut trace)));
                traced[g].push((t0.elapsed().as_secs_f64(), trace));
            }
        }
        if rounds == 1 {
            // What one run of the pipeline holds at its peak; later
            // rounds only add allocator fragmentation.
            peak_rss = peak_rss_mb();
        }
        passes.push(pass);
        if args.trace {
            passes.push(traced_pass);
        }
    }

    // Checks: every pass against the first, and the first against the
    // reference where the seed has one.
    let first = &passes[0];
    let reference = Reference::load();
    let mut failed = 0;
    let mut attempted = 0;
    for out in &passes {
        attempted += out.attempted;
        failed += (out.failed + mismatched_ops(&out.digests, &first.digests)).min(out.attempted);
    }
    if reference.covers(name, args.seed) {
        for d in &first.digests {
            if reference.digest(name, args.seed, &d.key) != Some(d.value.as_str()) {
                eprintln!(
                    "perfbench: {name} {}: output differs from the reference",
                    d.key
                );
                failed += d.ops;
            }
        }
    }
    for (job, d) in inputs.jobs().zip(&first.digests) {
        let Some(want) = reference.eval_cycles(job, args.seed) else {
            continue;
        };
        if d.cycles != want {
            eprintln!(
                "perfbench: {}: {} cycles, BENCH_eval.json has {want}",
                d.key, d.cycles
            );
            failed += 1;
        }
    }
    let failed = failed.min(attempted);

    // Each group's time is its low decile over the rounds, and a pass
    // is the sum over its groups; set-up is the low decile of every
    // set-up sample.
    let setup_s = low_decile(&mut setup_times);
    let wall_s: f64 = walls.iter_mut().map(|w| low_decile(w)).sum();
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        // Each group's low-decile traced run: its spans, counts and wall.
        let mut trace = Trace::default();
        let mut traced_wall_s = 0.0;
        for runs in &mut traced {
            runs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let (wall, t) = &runs[low_decile_rank(runs.len())];
            traced_wall_s += wall;
            trace.merge(t);
        }
        per_layer(&TracedRun {
            trace: &trace,
            traced_wall_s,
            untraced_wall_s: wall_s,
            setup_s,
            workload: args.workload,
            outcome: first,
        })
    } else {
        let values = [setup_s, wall_s, peak_rss];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, unit, v))
            .collect()
    };
    eprintln!(
        "perfbench: {name} seed={} rounds={rounds} groups={groups} traced={} workers={} \
         attempted={attempted} failed={failed}",
        args.seed, args.trace, WORKERS,
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, u, v)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", v))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
