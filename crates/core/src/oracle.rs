//! The differential repair oracle: soundness checking for claimed repairs.
//!
//! Theorem 5.3 of the paper guarantees that a decoded repair is dynamically
//! equivalent to the cluster representative — which is *correct* — so any
//! repair the pipeline claims must make the assignment's specification pass.
//! This module turns that guarantee into an executable check: run the full
//! cluster → match → repair pipeline on an incorrect attempt, then execute
//! the repaired model program on every test of the specification and demand
//! it passes. A claimed repair that fails a test is a **soundness
//! violation** — a bug in matching, the ILP encoding or the decoder, never
//! an acceptable answer — and the `mutation_quality` harness fails CI on
//! any occurrence.
//!
//! The oracle is *differential*: it is pointed at generated buggy variants
//! (the surface-IR mutation engine of `clara-corpus`) whose ground truth is
//! known by construction, so repair rate and patch size can be reported per
//! mutation operator without any manual labelling.

use clara_lang::ProblemSpec;
use clara_model::frontend::{grading_fuel, model_passes, Lang};

use crate::frontends::frontend;
use crate::repair::RepairFailure;
use crate::{Clara, ClaraConfig};

/// The verdict of the oracle on one attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum OracleVerdict {
    /// The attempt cannot be analysed (parse error or unsupported
    /// construct) — no claim was made, so nothing to check.
    Unsupported,
    /// The pipeline produced no repair.
    NotRepaired {
        /// Why, when the pipeline reported a reason.
        failure: Option<RepairFailure>,
    },
    /// The pipeline claimed a repair; `sound` records whether the repaired
    /// program actually passes the specification.
    Repaired(RepairCheck),
}

/// The checked properties of one claimed repair.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairCheck {
    /// Whether the repaired model program passes every test of the
    /// specification (the Theorem 5.3 obligation). `false` is a soundness
    /// violation.
    pub sound: bool,
    /// Total repair cost (tree edit distance).
    pub cost: i64,
    /// Cost relative to the attempt's AST size (`f64::INFINITY` for empty
    /// attempts).
    pub relative_size: f64,
    /// Number of modified expressions.
    pub modified_expressions: usize,
    /// Whether the repair is the whole-program rewrite fallback.
    pub is_rewrite: bool,
    /// Whether the repair was found through the flexible-alignment fallback
    /// (the attempt's control flow matched no cluster until normalization;
    /// see [`crate::align`]).
    pub realigned: bool,
}

impl OracleVerdict {
    /// `true` when the verdict is a claimed repair that fails the spec.
    pub fn is_soundness_violation(&self) -> bool {
        matches!(self, OracleVerdict::Repaired(check) if !check.sound)
    }
}

/// A reference pool plus specification, ready to judge attempts.
pub struct DifferentialOracle {
    clara: Clara,
    spec: ProblemSpec,
}

impl DifferentialOracle {
    /// Builds the oracle for an assignment: ingest `correct_sources` into a
    /// fresh engine for `lang` (clustering them like production traffic) and
    /// keep `spec` for the soundness obligation. Returns the oracle plus the
    /// number of reference solutions that were actually usable.
    pub fn new<'a>(
        lang: Lang,
        spec: ProblemSpec,
        correct_sources: impl IntoIterator<Item = &'a str>,
        config: ClaraConfig,
    ) -> (Self, usize) {
        let mut clara = Clara::new_in(lang, spec.entry.clone(), spec.inputs(), config);
        let mut usable = 0usize;
        for source in correct_sources {
            if clara.add_correct_solution(source).is_ok() {
                usable += 1;
            }
        }
        (DifferentialOracle { clara, spec }, usable)
    }

    /// The engine the oracle judges with (e.g. to inspect clusters).
    pub fn engine(&self) -> &Clara {
        &self.clara
    }

    /// Runs the full pipeline on `source` and checks any claimed repair
    /// against the specification. The source is parsed exactly once; the
    /// same parse serves analysis and the relative-patch-size denominator.
    pub fn check(&self, source: &str) -> OracleVerdict {
        let Ok(parsed) = frontend(self.clara.lang()).parse(source) else {
            return OracleVerdict::Unsupported;
        };
        // The production path: analysis and surface IR from this one parse.
        let Ok(outcome) = self.clara.repair_parsed(parsed.as_ref()) else {
            return OracleVerdict::Unsupported;
        };
        let realigned = outcome.result.realigned;
        match outcome.result.best {
            None => OracleVerdict::NotRepaired { failure: outcome.result.failure },
            Some(repair) => {
                // Theorem 5.3 made executable: the repaired model program
                // must pass the specification it was repaired against.
                let sound =
                    model_passes(&repair.repaired, &self.spec) || model_passes_with_fuel(&repair, &self.spec);
                OracleVerdict::Repaired(RepairCheck {
                    sound,
                    cost: repair.total_cost,
                    relative_size: repair.relative_size(parsed.ast_size()),
                    modified_expressions: repair.modified_expression_count(),
                    is_rewrite: repair.is_rewrite,
                    realigned,
                })
            }
        }
    }
}

/// Second soundness attempt under the spec's own (usually larger) grading
/// step budget — a repair must not be flagged unsound just because the
/// default model fuel is tighter than the grader's.
fn model_passes_with_fuel(repair: &crate::repair::ClusterRepair, spec: &ProblemSpec) -> bool {
    let fuel = grading_fuel(spec);
    spec.tests.iter().all(|test| clara_model::frontend::model_passes_test(&repair.repaired, test, fuel))
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENTRY: &str = "f";

    fn spec() -> ProblemSpec {
        use clara_lang::{TestCase, Value};
        ProblemSpec::new(
            "double_or_zero",
            ENTRY,
            vec![
                TestCase::returning(vec![Value::Int(0)], Value::Int(0)),
                TestCase::returning(vec![Value::Int(3)], Value::Int(6)),
                TestCase::returning(vec![Value::Int(-2)], Value::Int(0)),
            ],
        )
    }

    fn oracle() -> DifferentialOracle {
        let correct = [
            "def f(x):\n    if x > 0:\n        return x * 2\n    return 0\n",
            "def f(y):\n    if y <= 0:\n        return 0\n    return y + y\n",
        ];
        let (oracle, usable) = DifferentialOracle::new(Lang::MiniPy, spec(), correct, ClaraConfig::default());
        assert_eq!(usable, 2);
        oracle
    }

    #[test]
    fn claimed_repairs_are_sound() {
        let oracle = oracle();
        for buggy in [
            "def f(x):\n    if x > 0:\n        return x * 3\n    return 0\n",
            "def f(x):\n    if x < 0:\n        return x * 2\n    return 0\n",
            "def f(x):\n    if x > 0:\n        return x * 2\n    return 1\n",
        ] {
            match oracle.check(buggy) {
                OracleVerdict::Repaired(check) => {
                    assert!(check.sound, "unsound repair for:\n{buggy}");
                    assert!(check.cost > 0);
                    assert!(check.relative_size > 0.0);
                }
                other => panic!("expected a repair for:\n{buggy}\ngot {other:?}"),
            }
        }
    }

    #[test]
    fn unsupported_and_unrepairable_attempts_are_classified() {
        let oracle = oracle();
        assert_eq!(oracle.check("def f(:\n"), OracleVerdict::Unsupported);
        // Control flow (a loop) no reference shares: not repaired, not a
        // violation.
        let loopy =
            "def f(x):\n    t = 0\n    while x > 0:\n        t = t + 2\n        x = x - 1\n    return t\n";
        match oracle.check(loopy) {
            OracleVerdict::NotRepaired { failure } => {
                assert_eq!(failure, Some(RepairFailure::NoMatchingControlFlow));
            }
            OracleVerdict::Repaired(check) => {
                // If a future matcher learns to bridge this, it must do so
                // soundly.
                assert!(check.sound);
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn correct_attempts_come_back_as_zero_cost_sound_repairs() {
        let oracle = oracle();
        match oracle.check("def f(a):\n    if a > 0:\n        return a * 2\n    return 0\n") {
            OracleVerdict::Repaired(check) => {
                assert!(check.sound);
                assert_eq!(check.cost, 0);
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn minic_attempts_are_judged_through_the_c_frontend() {
        use clara_lang::{TestCase, Value};
        let spec = ProblemSpec::new(
            "fib_c",
            "fib",
            vec![
                TestCase::printing(vec![Value::Int(1)], "2\n"),
                TestCase::printing(vec![Value::Int(8)], "6\n"),
                TestCase::printing(vec![Value::Int(20)], "7\n"),
            ],
        );
        let correct = [
            "int fib(int k) {\n    int a = 1;\n    int b = 1;\n    int n = 1;\n    while (b <= k) {\n        int c = a + b;\n        a = b;\n        b = c;\n        n = n + 1;\n    }\n    printf(\"%d\\n\", n);\n    return 0;\n}\n",
            "int fib(int k) {\n    int prev = 1;\n    int cur = 1;\n    int count = 1;\n    while (cur <= k) {\n        int temp = cur;\n        cur = cur + prev;\n        prev = temp;\n        count = count + 1;\n    }\n    printf(\"%d\\n\", count);\n    return 0;\n}\n",
        ];
        let (oracle, usable) = DifferentialOracle::new(Lang::MiniC, spec, correct, ClaraConfig::default());
        assert_eq!(usable, 2);
        let buggy = "int fib(int k) {\n    int a = 1;\n    int b = 1;\n    int n = 1;\n    while (b < k) {\n        int c = a + b;\n        a = b;\n        b = c;\n        n = n + 1;\n    }\n    printf(\"%d\\n\", n);\n    return 0;\n}\n";
        match oracle.check(buggy) {
            OracleVerdict::Repaired(check) => {
                assert!(check.sound, "C repair must satisfy the spec");
                assert!(check.cost > 0);
            }
            other => panic!("expected a repair, got {other:?}"),
        }
    }
}
