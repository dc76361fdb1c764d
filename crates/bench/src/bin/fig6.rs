//! Regenerates **Figure 6** of the paper: the histogram of relative repair
//! sizes (tree-edit-distance of the repair divided by the AST size of the
//! attempt) over all repaired MOOC attempts.

#![forbid(unsafe_code)]

use clara_bench::{emit_json_report, run_clara, RunMode};
use clara_corpus::mooc::all_mooc_problems;
use serde::Serialize;

#[derive(Serialize)]
struct Fig6Report {
    buckets: Vec<(String, usize)>,
    total_repaired: usize,
    share_below_0_3: f64,
    share_below_0_2: f64,
    share_below_0_1: f64,
}

fn main() {
    let mode = RunMode::from_env_and_args();
    let scale = mode.scale();
    let mut sizes: Vec<f64> = Vec::new();
    for problem in mode.problems(all_mooc_problems()) {
        let dataset = mode.dataset(&problem, scale, 0xC1A7A);
        let run = run_clara(&dataset);
        sizes.extend(run.attempts.iter().filter_map(|a| a.relative_size));
    }

    // Buckets: [0.0,0.1), [0.1,0.2), ..., [0.9,1.0), >=1.0, ∞.
    let mut buckets: Vec<(String, usize)> =
        (0..10).map(|i| (format!("[{:.1},{:.1})", i as f64 / 10.0, (i + 1) as f64 / 10.0), 0usize)).collect();
    buckets.push((">=1.0".to_owned(), 0));
    buckets.push(("inf".to_owned(), 0));

    for &size in &sizes {
        let index = if size.is_infinite() {
            11
        } else if size >= 1.0 {
            10
        } else {
            ((size * 10.0).floor() as usize).min(9)
        };
        buckets[index].1 += 1;
    }

    let total = sizes.len().max(1);
    let share = |limit: f64| {
        100.0 * sizes.iter().filter(|s| s.is_finite() && **s < limit).count() as f64 / total as f64
    };

    println!(
        "Figure 6 — histogram of relative repair sizes ({} repaired attempts, {}):",
        sizes.len(),
        mode.corpus_label(scale)
    );
    let max_count = buckets.iter().map(|(_, c)| *c).max().unwrap_or(1).max(1);
    for (label, count) in &buckets {
        let bar_length = (50 * count).div_ceil(max_count);
        println!("{label:>10} | {:<50} {count}", "█".repeat(bar_length));
    }
    println!();
    println!(
        "share of repairs with relative size < 0.3: {:.0}%   < 0.2: {:.0}%   < 0.1: {:.0}%",
        share(0.3),
        share(0.2),
        share(0.1)
    );
    println!("Paper: 68% < 0.3, 53% < 0.2, 25% < 0.1; the ∞ bar is caused by empty attempts.");

    emit_json_report(
        "fig6",
        mode,
        &Fig6Report {
            buckets,
            total_repaired: sizes.len(),
            share_below_0_3: share(0.3),
            share_below_0_2: share(0.2),
            share_below_0_1: share(0.1),
        },
    );
}
