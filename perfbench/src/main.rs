//! The repository benchmark: one workload per process, driven in-process by
//! one closed-loop client through the public serving path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zipf_warm|novel_repair|learn_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Any failed check
//! makes the process exit with code 1. See `perfbench/README.md`.

mod inputs;
mod layers;
mod run;
mod selftest;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use clara_server::Registry;

use inputs::Plan;
use layers::Metric;
use run::{build_stores, end_to_end, Checker, Runner};
use stats::{median, peak_rss_mb, quantile, ratio};
use trace::Tracer;

/// Cold builds timed in a run: one before the passes, the others spread
/// evenly between them. `setup_s` is their median, so a burst of host noise
/// over a few builds does not move it.
const SETUP_BUILDS: usize = 15;

/// Passes of each phase of the traced run, untraced and traced alike; few,
/// so the written span file stays small.
const TRACED_PASSES: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => args.trace = value()? == "1",
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut checker = Checker::default();
    let plan = match args.workload.as_str() {
        "zipf_warm" => Plan::zipf_warm(args.seed),
        "novel_repair" => Plan::novel_repair(args.seed),
        "learn_mix" => Plan::learn_mix(args.seed),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (zipf_warm, novel_repair, learn_mix)");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "{}: {} problems, {} distinct submissions, {} requests and {} learn probes per pass",
        args.workload,
        plan.problems.len(),
        plan.subs.len(),
        plan.ops.len(),
        plan.probes.len()
    );

    let mut build_seconds = Vec::new();
    let mut timed_build = || {
        let start = Instant::now();
        let stores = build_stores(&plan);
        build_seconds.push(start.elapsed().as_secs_f64());
        stores
    };
    let stores = timed_build();
    let insertions: usize = plan.pools.iter().map(Vec::len).sum();
    let clusters: usize = stores.iter().map(|s| s.engine().clusters().len()).sum();

    let metrics = if args.trace {
        for _ in 1..SETUP_BUILDS {
            drop(timed_build());
        }
        traced_run(&args, &plan, &stores, &mut checker, median(&build_seconds), insertions, clusters)
    } else {
        let mut runner = Runner::new(&plan, &stores);
        let passes = plan.passes(args.seconds);
        let spread = SETUP_BUILDS - 1;
        let measured = runner.run(passes, None, |pass| {
            for _ in spread * pass / passes..spread * (pass + 1) / passes {
                drop(timed_build());
            }
        });
        eprintln!(
            "{passes} passes; {} of {} reads answered by a repair search",
            measured.reads.1, measured.reads.0
        );
        let mut metrics = end_to_end(&plan, &measured, &runner.tally);
        checker = std::mem::take(&mut runner.checker);
        metrics.insert(0, ("setup_s".into(), median(&build_seconds), "s"));
        metrics.insert(1, ("peak_rss_mb".into(), peak_rss_mb(), "MB"));
        metrics
    };
    report(&checker, metrics)
}

/// The traced run: untraced passes, then traced passes (their difference is
/// the tracing overhead), the probe pass and the exact-count self-test.
fn traced_run(
    args: &Args,
    plan: &Plan,
    stores: &[clara_server::ClusterStore],
    checker: &mut Checker,
    build_s: f64,
    insertions: usize,
    clusters: usize,
) -> Vec<Metric> {
    let mut runner = Runner::new(plan, stores);
    let untraced = runner.run(TRACED_PASSES, None, |_| {});
    let mut tracer = Tracer::new();
    let before = Registry::global().dump(0);
    let traced = runner.run(TRACED_PASSES, Some(&mut tracer), |_| {});
    let after = Registry::global().dump(0);
    let figure = |measured, name: &str| {
        end_to_end(plan, measured, &runner.tally)
            .into_iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |m| m.1)
    };
    let mut metrics = layers::request_path(&tracer, &traced, &before, &after);
    metrics.push((
        "trace.overhead_p50_ratio".into(),
        ratio(figure(&traced, "latency_p50_ms"), figure(&untraced, "latency_p50_ms")) - 1.0,
        "ratio",
    ));
    metrics.push((
        "trace.overhead_throughput_ratio".into(),
        1.0 - ratio(figure(&traced, "throughput_rps"), figure(&untraced, "throughput_rps")),
        "ratio",
    ));
    metrics.push(("pass.throughput_rps".into(), quantile(&untraced.pass_rates(), 0.75), "1/s"));
    metrics.push(("check.feedback_reordered_count".into(), runner.reordered as f64, "count"));
    *checker = std::mem::take(&mut runner.checker);
    drop(runner);

    metrics.extend(layers::probe(plan, stores, &mut tracer, checker));
    metrics.push(("store.insert_ms_mean".into(), build_s * 1e3 / insertions.max(1) as f64, "ms"));
    metrics.push(("store.clusters".into(), clusters as f64, "count"));
    metrics.extend(layers::self_times(&tracer));

    let summary = selftest::run(args.seed, checker);
    eprintln!("self-test counts: {summary}");
    let path = PathBuf::from("perfbench/out").join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
    match tracer.write(&path) {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => checker.record(Some(format!("writing {}: {e}", path.display()))),
    }
    metrics
}

/// Prints the per-metric table to stderr and the result object as the last
/// line of stdout; exits 1 when any check failed.
fn report(checker: &Checker, metrics: Vec<Metric>) -> ExitCode {
    for message in &checker.messages {
        eprintln!("FAILED: {message}");
    }
    let mut body = Vec::new();
    for (name, value, unit) in &metrics {
        eprintln!("{name:<36} {value:>14.4} {unit}");
        let value = if value.is_finite() { *value } else { 0.0 };
        body.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    let correct = checker.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.attempted.max(1),
        checker.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
