//! The newline-delimited JSON wire protocol of the feedback service.
//!
//! One request per line in, one response per line out; responses carry the
//! request `id` and may arrive out of order (the worker pool completes jobs
//! as they finish). The same bodies are served over the minimal HTTP
//! endpoint (`POST /repair`).
//!
//! ```text
//! → {"id":1,"problem":"derivatives","source":"def computeDeriv(poly):\n    ..."}
//! ← {"id":1,"status":"repaired","feedback":["In the return statement ..."],"cost":2,...}
//! ```

use serde::{Content, DeError, Deserialize, Serialize};

/// A feedback request: one student submission for one problem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Problem name (see `clara-cli problems`).
    pub problem: String,
    /// Language tag of the submission (`"minipy"`/`"python"`/`"minic"`/
    /// `"c"`). Optional: each problem has exactly one language, so the tag
    /// is validation — a request whose tag contradicts the problem's
    /// language is rejected instead of producing a confusing syntax error.
    pub lang: Option<String>,
    /// The submission text.
    pub source: String,
    /// When `true` and the submission is correct, insert it into the
    /// cluster index (online clustering). Requires learning to be enabled
    /// service-side.
    pub learn: Option<bool>,
    /// Request trace id (16 hex digits). Minted at ingress when absent —
    /// by the router on forwards, or by the shard for direct traffic — and
    /// carried through retries and failovers so one request is traceable
    /// across the fleet's structured logs.
    pub trace: Option<String>,
}

/// Outcome category of a feedback request.
///
/// Serialized as the lowercase snake-case strings `"correct"`,
/// `"repaired"`, `"no_repair"` and `"error"` (via the manual rename below,
/// matching serde's `rename_all = "snake_case"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The submission passes the grading suite.
    Correct,
    /// A repair was found; `feedback` holds the suggestions.
    Repaired,
    /// The submission is analysable but no repair was found; `feedback`
    /// holds the generic strategy hint.
    NoRepair,
    /// The submission could not be processed (syntax error, unsupported
    /// features, unknown problem, malformed request).
    Error,
}

impl Status {
    /// Every status, in declaration order: `status as usize` indexes it.
    pub(crate) const ALL: [Status; 4] = [Status::Correct, Status::Repaired, Status::NoRepair, Status::Error];

    /// The wire name of the status.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Correct => "correct",
            Status::Repaired => "repaired",
            Status::NoRepair => "no_repair",
            Status::Error => "error",
        }
    }
}

impl serde::Serialize for Status {
    fn to_content(&self) -> serde::Content {
        serde::Content::Str(self.as_str().to_owned())
    }
}

impl serde::Deserialize for Status {
    fn from_content(content: &serde::Content) -> Result<Self, serde::DeError> {
        let text = content.as_str().ok_or_else(|| serde::DeError::expected("status string", content))?;
        match text {
            "correct" => Ok(Status::Correct),
            "repaired" => Ok(Status::Repaired),
            "no_repair" => Ok(Status::NoRepair),
            "error" => Ok(Status::Error),
            other => Err(serde::DeError(format!("unknown status `{other}`"))),
        }
    }
}

/// A feedback response.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Response {
    /// The request's correlation id (0 when the request line itself was
    /// malformed).
    pub id: u64,
    /// Outcome category.
    pub status: Status,
    /// Feedback lines (repair suggestions, the generic strategy hint, or
    /// empty for correct submissions).
    pub feedback: Vec<String>,
    /// Total repair cost (tree edit distance), when a repair was found.
    pub cost: Option<i64>,
    /// Whether the answer came from the structural-hash result cache.
    pub cache_hit: bool,
    /// Whether the submission was inserted into the cluster index.
    pub learned: bool,
    /// Error description when `status` is `error`.
    pub error: Option<String>,
    /// Service-side processing time in microseconds (cache hits report the
    /// lookup time, not the original repair time). Error and shed responses
    /// report the real time spent before failing, never a placeholder 0.
    pub elapsed_us: u64,
    /// The trace id the request carried (or was assigned at ingress),
    /// echoed so clients can correlate responses with fleet logs.
    pub trace: Option<String>,
}

impl Response {
    /// A malformed-request / failed-submission response. Attach the real
    /// elapsed time and trace id with [`Response::with_elapsed`] /
    /// [`Response::with_trace`].
    pub fn error(id: u64, message: impl Into<String>) -> Response {
        Response {
            id,
            status: Status::Error,
            feedback: Vec::new(),
            cost: None,
            cache_hit: false,
            learned: false,
            error: Some(message.into()),
            elapsed_us: 0,
            trace: None,
        }
    }

    /// Sets the measured elapsed time (error paths report real latency so
    /// latency histograms are not polluted with zeros).
    pub fn with_elapsed(mut self, elapsed_us: u64) -> Response {
        self.elapsed_us = elapsed_us;
        self
    }

    /// Sets the echoed trace id.
    pub fn with_trace(mut self, trace: Option<String>) -> Response {
        self.trace = trace;
        self
    }
}

/// A parsed incoming NDJSON line: either a feedback request or a control
/// request.
#[derive(Debug, Clone)]
pub enum Incoming {
    /// A student submission to analyse.
    Feedback(Request),
    /// A `{"id":…,"stats":true}` probe answered with the process's
    /// [`crate::obs::MetricsDump`].
    Stats {
        /// Correlation id echoed in the dump.
        id: u64,
    },
    /// A `{"id":…,"metrics":true}` probe answered with the
    /// [`crate::obs::MetricsDump`] that `GET /metrics` renders: on a router,
    /// the fleet view merging every shard's dump.
    Metrics {
        /// Correlation id echoed in the dump.
        id: u64,
    },
}

/// Any object carrying `"stats":true` or `"metrics":true` is a control
/// request, whatever else it contains; everything else must be a
/// [`Request`]. Either way the line's JSON is decoded once.
impl Deserialize for Incoming {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        if let Some(entries) = content.as_map() {
            let flag =
                |name: &str| entries.iter().any(|(key, value)| key == name && *value == Content::Bool(true));
            if let Ok(id) = serde::field::<Option<u64>>(entries, "id") {
                let id = id.unwrap_or(0);
                if flag("stats") {
                    return Ok(Incoming::Stats { id });
                }
                if flag("metrics") {
                    return Ok(Incoming::Metrics { id });
                }
            }
        }
        Request::from_content(content).map(Incoming::Feedback)
    }
}

/// Parses one NDJSON request line.
///
/// # Errors
///
/// Returns a human-readable description of the malformation.
pub fn parse_request(line: &str) -> Result<Request, String> {
    serde_json::from_str(line).map_err(|e| e.to_string())
}

/// Parses one NDJSON line into a feedback or control request.
///
/// # Errors
///
/// Returns a human-readable description of the malformation.
pub fn parse_incoming(line: &str) -> Result<Incoming, String> {
    serde_json::from_str(line).map_err(|e| e.to_string())
}

/// Renders a response as one NDJSON line (no trailing newline; compact JSON
/// never contains raw newlines, so the line framing is safe).
pub fn render_response(response: &Response) -> String {
    serde_json::to_string(response).expect("response serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let line = r#"{"id":7,"problem":"derivatives","source":"def f(x):\n    return x\n","learn":true}"#;
        let request = parse_request(line).unwrap();
        assert_eq!(request.id, 7);
        assert_eq!(request.problem, "derivatives");
        assert!(request.source.contains('\n'));
        assert_eq!(request.learn, Some(true));
        let reparsed = parse_request(&serde_json::to_string(&request).unwrap()).unwrap();
        assert_eq!(reparsed.source, request.source);
    }

    #[test]
    fn learn_defaults_to_absent() {
        let request = parse_request(r#"{"id":1,"problem":"p","source":"s"}"#).unwrap();
        assert_eq!(request.learn, None);
        assert_eq!(request.trace, None, "trace is optional for old clients");
    }

    #[test]
    fn trace_ids_ride_along() {
        let request =
            parse_request(r#"{"id":1,"problem":"p","source":"s","trace":"00c0ffee00c0ffee"}"#).unwrap();
        assert_eq!(request.trace.as_deref(), Some("00c0ffee00c0ffee"));
        let line = serde_json::to_string(&request).unwrap();
        let back = parse_request(&line).unwrap();
        assert_eq!(back.trace, request.trace);
    }

    #[test]
    fn malformed_requests_error() {
        assert!(parse_request("").is_err());
        assert!(parse_request("{\"id\":}").is_err());
        assert!(parse_request(r#"{"problem":"p","source":"s"}"#).is_err(), "missing id");
    }

    #[test]
    fn stats_lines_parse_as_control_requests() {
        match parse_incoming(r#"{"id":9,"stats":true}"#).unwrap() {
            Incoming::Stats { id } => assert_eq!(id, 9),
            other => panic!("expected a stats request, got {other:?}"),
        }
        // `stats:false` (or absent) falls through to feedback parsing.
        assert!(parse_incoming(r#"{"id":1,"stats":false}"#).is_err(), "not a feedback request either");
        match parse_incoming(r#"{"id":2,"problem":"p","source":"s"}"#).unwrap() {
            Incoming::Feedback(request) => assert_eq!(request.problem, "p"),
            other => panic!("expected a feedback request, got {other:?}"),
        }
        // Malformed lines still error with a description.
        assert!(parse_incoming("not json").is_err());
    }

    #[test]
    fn feedback_lines_with_false_control_flags_are_requests() {
        match parse_incoming(r#"{"id":3,"problem":"p","source":"s","stats":false,"metrics":false}"#).unwrap()
        {
            Incoming::Feedback(request) => assert_eq!(request.id, 3),
            other => panic!("expected a feedback request, got {other:?}"),
        }
        // A true flag wins over everything else the line carries.
        match parse_incoming(r#"{"id":4,"problem":"p","source":"s","metrics":true}"#).unwrap() {
            Incoming::Metrics { id } => assert_eq!(id, 4),
            other => panic!("expected a metrics request, got {other:?}"),
        }
    }

    #[test]
    fn incoming_errors_read_like_request_errors() {
        for line in
            ["not json", "{\"id\":}", r#"{"problem":"p","source":"s"}"#, r#"{"id":1,"source":"s"}"#, "[1]"]
        {
            assert_eq!(
                parse_incoming(line).unwrap_err(),
                parse_request(line).unwrap_err(),
                "one decode must keep the error text of {line}"
            );
        }
    }

    #[test]
    fn metrics_lines_parse_as_control_requests() {
        match parse_incoming(r#"{"id":5,"metrics":true}"#).unwrap() {
            Incoming::Metrics { id } => assert_eq!(id, 5),
            other => panic!("expected a metrics request, got {other:?}"),
        }
        assert!(parse_incoming(r#"{"id":5,"metrics":false}"#).is_err(), "not a feedback request either");
    }

    #[test]
    fn stats_reports_roundtrip() {
        // A stats reply is a registry dump on one NDJSON line.
        let registry = crate::obs::Registry::default();
        registry
            .counter("clara_requests_total", &[("problem", "derivatives"), ("status", "correct")])
            .add(40);
        registry.gauge("clara_snapshot_generation", &[("problem", "derivatives"), ("shard", "1/2")]).set(3);
        let line = serde_json::to_string(&registry.dump(4)).unwrap();
        assert!(!line.contains('\n'));
        let back: crate::obs::MetricsDump = serde_json::from_str(&line).unwrap();
        assert_eq!(back.id, 4);
        assert_eq!(back.gauge("clara_snapshot_generation", &[("shard", "1/2")]), Some(3));
        assert_eq!(back.counter("clara_requests_total", &[("problem", "derivatives")]), 40);
    }

    #[test]
    fn response_roundtrip_is_single_line() {
        let response = Response {
            id: 3,
            status: Status::Repaired,
            feedback: vec!["line one\nwith newline".to_owned()],
            cost: Some(2),
            cache_hit: true,
            learned: false,
            error: None,
            elapsed_us: 42,
            trace: Some("00c0ffee00c0ffee".to_owned()),
        };
        let line = render_response(&response);
        assert!(!line.contains('\n'), "NDJSON framing: {line}");
        assert!(line.contains("\"status\":\"repaired\""), "{line}");
        let back: Response = serde_json::from_str(&line).unwrap();
        assert_eq!(back.status, Status::Repaired);
        assert_eq!(back.feedback, response.feedback);
        assert_eq!(back.cost, Some(2));
        assert_eq!(back.trace, response.trace);
    }

    #[test]
    fn error_responses_carry_real_elapsed_and_trace() {
        let response = Response::error(1, "boom").with_elapsed(17).with_trace(Some("ff".to_owned()));
        assert_eq!(response.elapsed_us, 17);
        assert_eq!(response.trace.as_deref(), Some("ff"));
    }
}
