//! Dynamic analysis of student attempts: lowering + trace collection.
//!
//! An [`AnalyzedProgram`] bundles a model [`Program`] with the traces obtained
//! by executing it on the assignment's test inputs (the set `I` of the
//! paper). Everything the matching, clustering and repair algorithms need is
//! derived from this structure.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use clara_lang::value::hash_slice;
use clara_lang::Value;
use clara_model::frontend::{FrontendError, Lang, ParsedSubmission};
use clara_model::{execute_on_inputs, Fuel, LowerError, Program, StructSig, Trace};

/// Why a student attempt could not be analysed.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The source text could not be parsed by its frontend.
    Syntax(FrontendError),
    /// The program uses constructs the model does not support.
    Unsupported(LowerError),
}

impl std::fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalysisError::Syntax(e) => write!(f, "{e}"),
            AnalysisError::Unsupported(e) => write!(f, "{e}"),
        }
    }
}

impl AnalysisError {
    /// `true` when the source did not parse.
    pub fn is_syntax_error(&self) -> bool {
        matches!(self, AnalysisError::Syntax(_))
    }
}

impl std::error::Error for AnalysisError {}

impl From<FrontendError> for AnalysisError {
    fn from(e: FrontendError) -> Self {
        AnalysisError::Syntax(e)
    }
}

impl From<LowerError> for AnalysisError {
    fn from(e: LowerError) -> Self {
        AnalysisError::Unsupported(e)
    }
}

/// A lowered program together with its traces on the assignment inputs.
#[derive(Debug, Clone)]
pub struct AnalyzedProgram {
    /// The model program.
    pub program: Program,
    /// One trace per input, in input order.
    pub traces: Vec<Trace>,
    /// A cheap fingerprint of the dynamic behaviour used as a clustering
    /// pre-filter: programs with different fingerprints cannot match.
    pub fingerprint: u64,
    /// Per-variable projection hashes, precomputed once at analysis time.
    /// `find_matching` probes the representative's hashes on every
    /// clustering attempt, so these must not be recomputed per probe; the
    /// projections themselves are columns of the traces.
    projection_hashes: HashMap<String, u64>,
}

impl AnalyzedProgram {
    /// Lowers an already-parsed submission's `entry` function and executes
    /// it on `inputs`.
    ///
    /// # Errors
    ///
    /// Returns an [`AnalysisError`] if the program cannot be lowered into the
    /// model.
    pub fn from_parsed(
        parsed: &dyn ParsedSubmission,
        entry: &str,
        inputs: &[Vec<Value>],
        fuel: Fuel,
    ) -> Result<Self, AnalysisError> {
        Ok(Self::from_program(parsed.lower(entry)?, inputs, fuel))
    }

    /// Parses, lowers and executes a MiniPy source text in one step.
    ///
    /// # Errors
    ///
    /// Returns an [`AnalysisError`] for parse errors or unsupported
    /// constructs.
    pub fn from_text(
        text: &str,
        entry: &str,
        inputs: &[Vec<Value>],
        fuel: Fuel,
    ) -> Result<Self, AnalysisError> {
        Self::from_text_in(Lang::MiniPy, text, entry, inputs, fuel)
    }

    /// Parses, lowers and executes a source text written in `lang`.
    ///
    /// # Errors
    ///
    /// Returns an [`AnalysisError`] for syntax errors or unsupported
    /// constructs.
    pub fn from_text_in(
        lang: Lang,
        text: &str,
        entry: &str,
        inputs: &[Vec<Value>],
        fuel: Fuel,
    ) -> Result<Self, AnalysisError> {
        let parsed = crate::frontends::frontend(lang).parse(text)?;
        Self::from_parsed(parsed.as_ref(), entry, inputs, fuel)
    }

    /// Executes an already-lowered program on `inputs`.
    pub fn from_program(program: Program, inputs: &[Vec<Value>], fuel: Fuel) -> Self {
        let traces = execute_on_inputs(&program, inputs, fuel);
        let projection_hashes = projection_hashes(&program, &traces);
        let fingerprint = behaviour_fingerprint(&program, &traces, &projection_hashes);
        AnalyzedProgram { program, traces, fingerprint, projection_hashes }
    }

    /// `true` when the projection of `var` here equals the projection of
    /// `other_var` in `other`, trace by trace and step by step (`py_eq`).
    pub fn same_projection(&self, var: &str, other: &AnalyzedProgram, other_var: &str) -> bool {
        self.traces.len() == other.traces.len()
            && self
                .traces
                .iter()
                .zip(&other.traces)
                .all(|(a, b)| a.steps.len() == b.steps.len() && a.projection(var).eq(b.projection(other_var)))
    }

    /// A hash of the projection of `var` over all traces, consistent with
    /// the `py_eq`-based equality of values: equal projections have equal
    /// hashes, so unequal hashes prove two projections differ. Precomputed
    /// at analysis time for the program's variables; other names hash to 0.
    pub fn projection_hash(&self, var: &str) -> u64 {
        self.projection_hashes.get(var).copied().unwrap_or(0)
    }

    /// The concatenated location sequence over all traces.
    pub fn location_sequence(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for trace in &self.traces {
            out.extend(trace.locations().iter().map(|l| l.0));
            out.push(usize::MAX);
        }
        out
    }

    /// The structural signature key of the program.
    pub fn signature_key(&self) -> String {
        StructSig::sequence_key(&self.program.signature)
    }
}

/// Hashes the projection of every variable of the program once: the
/// per-trace columns concatenated, each followed by a separator value so
/// that trace boundaries cannot be confused, prefixed by the total length.
///
/// Consecutive versions of a long list share their full chunks, so each
/// full chunk is walked once and its recorded bytes are written for every
/// later entry holding it: the stream, and so the hash, is the same. A
/// chunk is keyed by its address, which names one immutable chunk because
/// the traces, and every chunk in them, outlive the call.
fn projection_hashes(program: &Program, traces: &[Trace]) -> HashMap<String, u64> {
    let separator = Value::str("⋄");
    let len: usize = traces.iter().map(|t| t.steps.len() + 1).sum();
    let mut chunks: HashMap<*const Value, Vec<u8>> = HashMap::new();
    program
        .vars
        .iter()
        .map(|var| {
            let mut hasher = Batched::default();
            len.hash(&mut hasher);
            for trace in traces {
                for value in trace.projection(var) {
                    value.hash_chunked(&mut hasher, |chunk, hasher| {
                        let bytes = chunks.entry(chunk.as_ptr()).or_insert_with(|| {
                            let mut recorder = Recorder::default();
                            hash_slice(chunk, &mut recorder);
                            recorder.0
                        });
                        hasher.write(bytes);
                    });
                }
                separator.hash(&mut hasher);
            }
            (var.clone(), hasher.finish())
        })
        .collect()
}

/// The bytes a value's `Hash` writes.
#[derive(Default)]
struct Recorder(Vec<u8>);

impl Hasher for Recorder {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn finish(&self) -> u64 {
        unreachable!("a recorder only collects bytes")
    }
}

/// A [`DefaultHasher`] fed through a byte buffer: `Value`'s `Hash` writes a
/// tag and an integer per scalar, and one hasher call per integer costs more
/// than hashing the bytes. SipHash hashes a byte stream, however it is cut
/// into writes, so the result equals hashing directly (tested below).
#[derive(Default)]
struct Batched {
    hasher: DefaultHasher,
    buf: Vec<u8>,
}

impl Hasher for Batched {
    fn write(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() >= 1 << 16 {
            self.hasher.write(&self.buf);
            self.buf.clear();
        }
    }

    fn finish(&self) -> u64 {
        let mut hasher = self.hasher.clone();
        hasher.write(&self.buf);
        hasher.finish()
    }
}

/// A fingerprint of (control-flow structure, location sequence, multiset of
/// per-variable value sequences). Two programs that match necessarily have
/// equal fingerprints, so unequal fingerprints let clustering skip the full
/// matching test.
///
/// The per-variable hashes are the cached projection hashes, which hash
/// values through `Value`'s `py_eq`-consistent `Hash`. (The previous
/// rendering-based hash distinguished `1` from `1.0`, which `py_eq` — and
/// therefore the matcher — does not, so two matchable programs could be
/// missed by the pre-filter.)
fn behaviour_fingerprint(
    program: &Program,
    traces: &[Trace],
    projection_hashes: &HashMap<String, u64>,
) -> u64 {
    let mut hasher = DefaultHasher::new();
    StructSig::sequence_key(&program.signature).hash(&mut hasher);
    for trace in traces {
        for loc in trace.locations() {
            loc.0.hash(&mut hasher);
        }
        usize::MAX.hash(&mut hasher);
    }
    // Multiset of projection hashes: order-independent combination (sum of
    // per-variable hashes) so that variable naming/order does not matter.
    let mut combined: u64 = 0;
    for hash in projection_hashes.values() {
        combined = combined.wrapping_add(*hash);
    }
    combined.hash(&mut hasher);
    program.vars.len().hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(xs: &[f64]) -> Value {
        Value::List(xs.iter().map(|x| Value::Float(*x)).collect())
    }

    fn inputs() -> Vec<Vec<Value>> {
        vec![vec![poly(&[6.3, 7.6, 12.14])], vec![poly(&[3.0])], vec![poly(&[1.0, 2.0, 3.0, 4.0])]]
    }

    const C1: &str = "\
def computeDeriv(poly):
    result = []
    for e in range(1, len(poly)):
        result.append(float(poly[e]*e))
    if result == []:
        return [0.0]
    else:
        return result
";

    const C2: &str = "\
def computeDeriv(poly):
    deriv = []
    for i in xrange(1,len(poly)):
        deriv+=[float(i)*poly[i]]
    if len(deriv)==0:
        return [0.0]
    return deriv
";

    #[test]
    fn batched_hashing_equals_direct_hashing() {
        let values = [
            Value::Undef,
            Value::None,
            Value::Int(-3),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Bool(true),
            Value::str(""),
            Value::str("⋄ x"),
            Value::list((0..20_000).map(|i| Value::Float(f64::from(i) * 0.5)).collect::<Vec<_>>()),
            Value::tuple(vec![Value::list(vec![Value::Int(1), Value::str("ab")]), Value::None]),
        ];
        let mut direct = DefaultHasher::new();
        let mut batched = Batched::default();
        let mut replayed = Batched::default();
        for (i, value) in values.iter().enumerate() {
            i.hash(&mut direct);
            value.hash(&mut direct);
            i.hash(&mut batched);
            value.hash(&mut batched);
            assert_eq!(batched.finish(), direct.finish(), "after {value:?}");
            // Recorded bytes written at once, as `projection_hashes` writes
            // a recorded chunk (the long list's bytes overfill the buffer in
            // one write).
            let mut recorded = Recorder::default();
            value.hash(&mut recorded);
            i.hash(&mut replayed);
            replayed.write(&recorded.0);
            assert_eq!(replayed.finish(), direct.finish(), "replaying {value:?}");
        }
    }

    #[test]
    fn recorded_chunks_hash_like_walking_every_value() {
        let appending = "\
def computeDeriv(poly):
    result = []
    e = 1
    n = 0
    while e < len(poly):
        result.append(float(poly[e] * n))
        n = n + 1
        if n % 50 == 0:
            result = result[1:]
    return result
";
        let fuel = Fuel { max_steps: 900, ..Fuel::default() };
        let analyzed = AnalyzedProgram::from_text(appending, "computeDeriv", &inputs(), fuel).unwrap();
        let len: usize = analyzed.traces.iter().map(|t| t.steps.len() + 1).sum();
        for var in &analyzed.program.vars {
            let mut walked = DefaultHasher::new();
            len.hash(&mut walked);
            for trace in &analyzed.traces {
                trace.projection(var).for_each(|value| value.hash(&mut walked));
                Value::str("⋄").hash(&mut walked);
            }
            assert_eq!(analyzed.projection_hash(var), walked.finish(), "{var}");
        }
        let longest = analyzed.traces.iter().flat_map(|t| t.projection("result")).map(|v| match v {
            Value::List(items) => items.len(),
            _ => 0,
        });
        assert!(longest.max() > Some(2 * clara_lang::value::WIDTH));
    }

    #[test]
    fn analysis_produces_one_trace_per_input() {
        let analyzed = AnalyzedProgram::from_text(C1, "computeDeriv", &inputs(), Fuel::default()).unwrap();
        assert_eq!(analyzed.traces.len(), 3);
        assert_eq!(analyzed.signature_key(), "BL(B)B");
    }

    #[test]
    fn matching_programs_have_equal_fingerprints() {
        let a = AnalyzedProgram::from_text(C1, "computeDeriv", &inputs(), Fuel::default()).unwrap();
        let b = AnalyzedProgram::from_text(C2, "computeDeriv", &inputs(), Fuel::default()).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn different_behaviour_changes_the_fingerprint() {
        let wrong = "\
def computeDeriv(poly):
    result = []
    for e in range(len(poly)):
        result.append(float(poly[e]*e))
    if result == []:
        return [0.0]
    else:
        return result
";
        let a = AnalyzedProgram::from_text(C1, "computeDeriv", &inputs(), Fuel::default()).unwrap();
        let b = AnalyzedProgram::from_text(wrong, "computeDeriv", &inputs(), Fuel::default()).unwrap();
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn parse_errors_are_reported() {
        let err = AnalyzedProgram::from_text("def f(:\n", "f", &[], Fuel::default()).unwrap_err();
        assert!(err.is_syntax_error());
        assert!(err.to_string().contains("parse error"), "{err}");
    }

    #[test]
    fn unsupported_constructs_are_reported() {
        let err = AnalyzedProgram::from_text(
            "def g(x):\n    return x\n\ndef f(x):\n    return g(x)\n",
            "f",
            &[],
            Fuel::default(),
        )
        .unwrap_err();
        assert!(matches!(err, AnalysisError::Unsupported(_)));
    }
}
