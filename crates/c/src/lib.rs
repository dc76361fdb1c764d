//! # clara-c — MiniC, the second frontend of `clara-rs`
//!
//! The original Clara tool handled both Python *and C* student submissions
//! by lowering them into one program model (§3 of the paper). This crate is
//! that second frontend: a C90-ish subset — `int`/`float` scalars, array
//! parameters, `if`/`else`, `while`, `for`, `return`, `printf` — parsed by a
//! hand-written [`lexer`]/[`parser`], pretty-printed by [`pretty`], and
//! desugared by [`lower`] into the language-neutral surface IR of
//! `clara-model`, so clustering, matching, ILP repair and the feedback
//! service work on MiniC submissions unchanged.
//!
//! Expressions reuse [`clara_lang::Expr`] (the model's own expression type):
//! `&&`/`||`/`!` are the shared boolean operators, `c ? a : b` is the
//! model's `ite(...)`, `/` is integer division unless a float literal makes
//! it float division, and `str`-style output formatting keeps `printf`
//! self-consistent across the pipeline.
//!
//! Subset limits (rejected with clear errors, like the paper's "unsupported
//! feature" failures in §6.2): helper functions, pointers, string variables,
//! scalar-only declarations, and `break`/`continue` under nested loops (a
//! model restriction shared with MiniPy). `continue` directly inside a `for`
//! body is supported by duplicating the loop step before each `continue`
//! during desugaring, so C's jump-to-step semantics is preserved.
//!
//! ## Example
//!
//! ```rust
//! use clara_c::{lower_entry, parse_c_program};
//! use clara_lang::Value;
//! use clara_model::{execute, Fuel};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_c_program(
//!     "int fib(int k) {\n    int a = 1;\n    int b = 1;\n    int n = 1;\n    while (b <= k) {\n        int c = a + b;\n        a = b;\n        b = c;\n        n = n + 1;\n    }\n    printf(\"%d\\n\", n);\n    return 0;\n}\n",
//! )?;
//! let model = lower_entry(&program, "fib")?;
//! let trace = execute(&model, &[Value::Int(20)], Fuel::default());
//! assert_eq!(trace.output(), "7\n");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod pretty;
pub mod unparse;

pub use ast::{CFunction, CParam, CProgram, CStmt, CType};
pub use lower::{lower_entry, lower_function, surface_function};
pub use parser::{parse_c_expression, parse_c_program, ParseCError};
pub use pretty::{c_expr_to_string, c_function_to_string, c_program_to_string, c_stmt_to_string};
pub use unparse::{minic_function, minic_source};

use clara_lang::{Expr, ProblemSpec};
use clara_model::frontend::{model_passes, Frontend, FrontendError, Lang, ParsedSubmission};
use clara_model::surface::SurfaceFunction;
use clara_model::{LowerError, Program};

/// The MiniC frontend: parsing, C-syntax expression rendering and
/// model-execution grading behind the language-agnostic traits of
/// `clara-model::frontend`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MiniCFrontend;

/// The shared MiniC frontend instance.
pub static MINIC: MiniCFrontend = MiniCFrontend;

struct MiniCParsed(CProgram);

impl ParsedSubmission for MiniCParsed {
    fn lower(&self, entry: &str) -> Result<Program, LowerError> {
        lower_entry(&self.0, entry)
    }

    fn structural_hash(&self) -> u64 {
        self.0.structural_hash()
    }

    fn ast_size(&self) -> usize {
        self.0.ast_size()
    }

    fn passes(&self, spec: &ProblemSpec) -> bool {
        // MiniC has no dedicated interpreter: grading executes the *model*
        // (Definition 3.5), which the lowering tests hold trace-equivalent
        // to the source semantics. Submissions the model cannot express are
        // ungradable and therefore incorrect.
        match self.lower(&spec.entry) {
            Ok(program) => model_passes(&program, spec),
            Err(_) => false,
        }
    }

    fn surface(&self, entry: &str) -> Result<SurfaceFunction, LowerError> {
        let function = self
            .0
            .function(entry)
            .ok_or_else(|| LowerError::new(1, format!("entry function `{entry}` is not defined")))?;
        surface_function(function)
    }
}

impl Frontend for MiniCFrontend {
    fn lang(&self) -> Lang {
        Lang::MiniC
    }

    fn parse(&self, source: &str) -> Result<Box<dyn ParsedSubmission>, FrontendError> {
        match parse_c_program(source) {
            Ok(parsed) => Ok(Box::new(MiniCParsed(parsed))),
            Err(e) => Err(FrontendError::new(e.line, e.to_string())),
        }
    }

    fn render_expr(&self, expr: &Expr) -> String {
        c_expr_to_string(expr)
    }

    fn render_function(&self, function: &SurfaceFunction) -> Result<String, FrontendError> {
        minic_source(function).map_err(|e| FrontendError::new(e.line, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clara_lang::{TestCase, Value};

    const FIB_C: &str = "\
int fib(int k) {
    int a = 1;
    int b = 1;
    int n = 1;
    while (b <= k) {
        int c = a + b;
        a = b;
        b = c;
        n = n + 1;
    }
    printf(\"%d\\n\", n);
    return 0;
}
";

    fn fib_spec() -> ProblemSpec {
        ProblemSpec::new(
            "fibonacci_c",
            "fib",
            vec![
                TestCase::printing(vec![Value::Int(1)], "2\n"),
                TestCase::printing(vec![Value::Int(20)], "7\n"),
            ],
        )
    }

    #[test]
    fn frontend_parses_grades_and_renders() {
        let frontend = &MINIC;
        assert_eq!(frontend.lang(), Lang::MiniC);
        let parsed = frontend.parse(FIB_C).expect("fib parses");
        assert!(parsed.passes(&fib_spec()));
        assert!(parsed.ast_size() > 10);
        let wrong = frontend.parse(&FIB_C.replace("b <= k", "b < k")).expect("variant parses");
        assert!(!wrong.passes(&fib_spec()));
        let err = frontend.parse("int f( {").err().expect("syntax error");
        assert!(err.to_string().contains("C parse error"), "{err}");
        let expr = parse_c_expression("a && !b").unwrap();
        assert_eq!(frontend.render_expr(&expr), "a && !b");
    }

    #[test]
    fn structural_hash_is_formatting_insensitive_through_the_trait() {
        let a = MINIC.parse("int f(int x) { return x + 1; }").unwrap();
        let b = MINIC.parse("int f(int x)\n{\n    return (x + 1);\n}\n").unwrap();
        assert_eq!(a.structural_hash(), b.structural_hash());
    }
}
