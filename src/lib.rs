//! # clara — automated clustering and program repair for introductory programming assignments
//!
//! A from-scratch Rust reproduction of *"Automated Clustering and Program
//! Repair for Introductory Programming Assignments"* (Gulwani, Radiček,
//! Zuleger — PLDI 2018), the system known as **Clara**.
//!
//! The key idea is to use the *wisdom of the crowd*: the many correct student
//! solutions that already exist for an assignment are clustered by **dynamic
//! equivalence**, and an incorrect attempt is repaired by finding the minimal
//! set of expression modifications that makes it equivalent to some cluster,
//! mining replacement expressions from the cluster members and selecting a
//! consistent minimal-cost subset with a 0-1 ILP.
//!
//! This facade crate re-exports the individual components:
//!
//! | crate | contents |
//! |---|---|
//! | [`lang`] | MiniPy — the student-program language (lexer, parser, AST, values, interpreter, grading) |
//! | [`c`] | MiniC — the C90-ish second frontend, lowering into the same model |
//! | [`model`] | the Clara program model: locations, update expressions, traces (§3), the language-neutral surface IR and the `Frontend` abstraction |
//! | [`ted`] | Zhang–Shasha tree edit distance (the repair cost metric) |
//! | [`ilp`] | exact 0-1 ILP branch-and-bound solver (Definition 5.5) |
//! | [`core`] | matching, clustering, repair and feedback (§4–§5, the paper's contribution) |
//! | [`autograder`] | the AutoGrader-style rewrite-rule baseline (§6.2.1) |
//! | [`corpus`] | the synthetic student-submission corpus (assignments of Appendix A) and the serving traffic model |
//! | [`server`] | the serving layer: persistent cluster index, result cache, worker pool, NDJSON/HTTP front ends |
//!
//! ## Quick start
//!
//! ```rust
//! use clara::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Describe the assignment: entry function + grading inputs.
//! let problem = clara::corpus::mooc::derivatives();
//! let mut engine = Clara::new(problem.entry, problem.inputs(), ClaraConfig::default());
//!
//! // 2. Feed it the existing correct solutions (they are clustered on the fly).
//! for seed in &problem.seeds {
//!     engine.add_correct_solution(seed)?;
//! }
//!
//! // 3. Repair an incorrect attempt and show the generated feedback.
//! let attempt = "def computeDeriv(poly):\n    new = []\n    for i in xrange(1,len(poly)):\n        new.append(float(i*poly[i]))\n    if new==[]:\n        return 0.0\n    return new\n";
//! let outcome = engine.repair_source(attempt)?;
//! for line in outcome.feedback.lines() {
//!     println!("{line}");
//! }
//! assert!(outcome.result.best.is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use clara_autograder as autograder;
pub use clara_c as c;
pub use clara_core as core;
pub use clara_corpus as corpus;
pub use clara_ilp as ilp;
pub use clara_lang as lang;
pub use clara_model as model;
pub use clara_server as server;
pub use clara_ted as ted;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use clara_autograder::{AutoGrader, AutoGraderConfig, ErrorModel};
    pub use clara_core::{
        cluster_programs, find_matching, frontend, repair_attempt, AnalyzedProgram, Clara, ClaraConfig,
        Cluster, Feedback, FeedbackOptions, RepairAction, RepairConfig, RepairResult,
    };
    pub use clara_corpus::{generate_dataset, generate_dataset_for, Dataset, DatasetConfig, Problem};
    pub use clara_lang::{parse_program, ProblemSpec, SourceProgram, TestCase, Value};
    pub use clara_model::{execute, lower_entry, Fuel, Lang, Program, Trace};
    pub use clara_ted::expr_edit_distance;
}
