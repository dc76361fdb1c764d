//! Pins the repairs of the synthetic datasets' incorrect attempts.
//!
//! Among the repairs of minimal cost the ILP solver returns one fixed
//! optimum, and the feedback a student reads depends on which one: two
//! repairs of equal cost can read "change `c` to `a + b`" or "add a new
//! variable … `a + b`". `repaired_attempts_match_the_pinned_digest` repairs
//! every incorrect attempt of the default datasets of all twelve problems
//! (`rhombus`, with the largest ILPs, among them) against clusters of the
//! dataset's correct solutions, and fixes each status, cost and ordered
//! list of feedback lines to one FNV-1a digest.

use std::fmt::Write as _;

use clara_core::{Clara, ClaraConfig};
use clara_corpus::{all_problems_all_langs, generate_dataset_for, DatasetConfig};

/// The digest of the default datasets' repairs. A change here means some
/// attempt is repaired differently: find out why before updating it.
const PINNED_DIGEST: u64 = 0x325f_f3fe_0344_1bbd;

/// The number of attempts behind [`PINNED_DIGEST`], and how many of them
/// were repaired.
const PINNED_ATTEMPTS: usize = 480;
const PINNED_REPAIRED: usize = 457;

/// FNV-1a over bytes: fixed by its specification, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[test]
fn repaired_attempts_match_the_pinned_digest() {
    let mut digest = Fnv::new();
    let mut line = String::new();
    let (mut attempts, mut repaired) = (0usize, 0usize);
    for problem in all_problems_all_langs() {
        let dataset = generate_dataset_for(&problem, DatasetConfig::default());
        let mut engine = Clara::new_in(problem.lang, problem.entry, problem.inputs(), ClaraConfig::default());
        for solution in &dataset.correct {
            engine.add_correct_solution(&solution.source).expect("correct solutions analyse");
        }
        for attempt in &dataset.incorrect {
            attempts += 1;
            line.clear();
            write!(line, "{}|", problem.name).unwrap();
            match engine.repair_source(&attempt.source) {
                Err(_) => line.push_str("unanalysable"),
                Ok(outcome) => {
                    match (&outcome.result.best, outcome.result.failure) {
                        (Some(repair), _) => {
                            repaired += 1;
                            write!(line, "repaired {}", repair.total_cost).unwrap();
                        }
                        (None, Some(failure)) => line.push_str(failure.as_str()),
                        (None, None) => line.push_str("no repair, no failure"),
                    }
                    for feedback in outcome.feedback.lines() {
                        write!(line, "|{feedback}").unwrap();
                    }
                }
            }
            line.push('\n');
            digest.bytes(line.as_bytes());
        }
    }
    assert_eq!((attempts, repaired), (PINNED_ATTEMPTS, PINNED_REPAIRED));
    assert_eq!(digest.0, PINNED_DIGEST, "repair digest {:#018x}", digest.0);
}
