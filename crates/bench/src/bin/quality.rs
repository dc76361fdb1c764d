//! Automated stand-in for the manual repair-quality inspection of §6.2 (3).
//!
//! The paper's authors manually inspected 100 randomly selected repairs and
//! judged 81% to be of good quality (72% "smallest, most natural repair" + 9%
//! "almost smallest"). Human judgement cannot be reproduced mechanically;
//! instead this binary classifies each generated repair with a proxy:
//!
//! * **small-and-targeted** — the repair is verified, non-trivial, and its
//!   cost is within a small slack of the number of injected faults;
//! * **larger-than-needed** — verified but noticeably larger than the
//!   injected fault count;
//! * **rewrite** — the attempt was empty or so far gone that the repair is a
//!   whole-program rewrite (the paper's category (d));
//! * **not-repaired** — no repair was produced.

#![forbid(unsafe_code)]

use clara_bench::{emit_json_report, run_clara, RunMode};
use clara_corpus::mooc::all_mooc_problems;
use serde::Serialize;

#[derive(Serialize, Default)]
struct QualityReport {
    sampled: usize,
    small_and_targeted: usize,
    larger_than_needed: usize,
    rewrite: usize,
    not_repaired: usize,
}

fn main() {
    let mode = RunMode::from_env_and_args();
    let scale = mode.scale();
    let mut report = QualityReport::default();

    for problem in mode.problems(all_mooc_problems()) {
        let dataset = mode.dataset(&problem, scale, 0x5EED5);
        let run = run_clara(&dataset);
        for attempt in &run.attempts {
            report.sampled += 1;
            if !attempt.repaired {
                report.not_repaired += 1;
                continue;
            }
            let cost = attempt.cost.unwrap_or(0);
            let relative = attempt.relative_size.unwrap_or(f64::INFINITY);
            if relative.is_infinite() || relative > 1.0 {
                report.rewrite += 1;
            } else if cost as usize <= attempt.fault_count.max(1) * 4 {
                report.small_and_targeted += 1;
            } else {
                report.larger_than_needed += 1;
            }
        }
    }

    let pct = |n: usize| 100.0 * n as f64 / report.sampled.max(1) as f64;
    println!(
        "Repair-quality proxy over {} incorrect attempts ({}):",
        report.sampled,
        mode.corpus_label(scale)
    );
    println!(
        "  small and targeted (≈ paper's 'smallest, most natural'): {:>4}  ({:.0}%)",
        report.small_and_targeted,
        pct(report.small_and_targeted)
    );
    println!(
        "  larger than needed (≈ paper's 'almost smallest'/(c))   : {:>4}  ({:.0}%)",
        report.larger_than_needed,
        pct(report.larger_than_needed)
    );
    println!(
        "  whole-program rewrite (≈ paper's category (d))         : {:>4}  ({:.0}%)",
        report.rewrite,
        pct(report.rewrite)
    );
    println!(
        "  not repaired                                            : {:>4}  ({:.0}%)",
        report.not_repaired,
        pct(report.not_repaired)
    );
    println!();
    println!("Paper (manual inspection of 100 repairs): 72% smallest, 9% almost smallest,");
    println!("11% different from the student's idea, 8% student idea indeterminable.");

    emit_json_report("quality", mode, &report);
}
