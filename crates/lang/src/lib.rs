//! # clara-lang — MiniPy, the student-program language of `clara-rs`
//!
//! This crate provides everything needed to go from the *text* of a student
//! submission to something the Clara algorithms can work with:
//!
//! * an indentation-aware [`lexer`] and recursive-descent [`parser`] for a
//!   Python-like imperative language ("MiniPy"),
//! * the shared [`ast`] used both for surface programs and for the
//!   expressions of the Clara program model,
//! * the dynamic [`value`] domain and a pure expression [`eval`]uator
//!   (the `⟦·⟧` function of the paper, Definition 3.4),
//! * a direct [`interp`]reter used to grade attempts against a test suite,
//! * assignment [`spec`]ifications and grading, and
//! * a [`pretty`]-printer used for feedback text and canonicalisation.
//!
//! The original Clara tool parsed real Python and C student submissions; in
//! this reproduction MiniPy plays that role (see `crates/corpus/DESIGN.md`
//! for the substitution argument). The language is rich enough to express all
//! assignments evaluated in the paper: list/float arithmetic, `for`/`while`
//! loops, nested `if`/`elif`/`else`, `append`, subscripts, slicing, early
//! `return`, and `print`.
//!
//! ## Example
//!
//! ```rust
//! use clara_lang::{parse_program, run_function, Limits, Value};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "def computeDeriv(poly):\n    result = []\n    for e in range(1, len(poly)):\n        result.append(float(poly[e]*e))\n    if result == []:\n        return [0.0]\n    else:\n        return result\n",
//! )?;
//! let out = run_function(
//!     &program,
//!     "computeDeriv",
//!     &[Value::list(vec![Value::Float(6.3), Value::Float(7.6), Value::Float(12.14)])],
//!     Limits::default(),
//! )?;
//! assert_eq!(out.return_value, Value::list(vec![Value::Float(7.6), Value::Float(24.28)]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod error;
pub mod eval;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod seq;
pub mod serde_impls;
pub mod spec;
pub mod token;
pub mod value;

pub use ast::{BinOp, Expr, Function, Lit, SourceProgram, Stmt, Target, UnOp};
pub use error::{EvalError, EvalErrorKind, InterpError, ParseError};
pub use eval::{call_builtin, eval_expr, Env};
pub use interp::{run_function, Execution, Limits};
pub use parser::{parse_expression, parse_program};
pub use pretty::{expr_to_string, function_to_string, program_to_string, stmt_to_string};
pub use spec::{Expected, GradeReport, ProblemSpec, TestCase, TestResult};
pub use value::{Seq, Value};
