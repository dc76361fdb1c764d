//! Bench-side spans: name, start, end, parent and request id, kept in
//! memory and written out when the benchmark ends.
//!
//! Spans are opened around the public entry points of each layer, from
//! outside the program. The stage spans the core emits itself
//! (`clara_core::timing::collect`) carry a duration but no start; they are
//! attached to the repair span that collected them, laid end to end from its
//! start (a cluster match completing just before a verification is placed
//! inside it, where the core runs it). Stages that ran in parallel on the
//! repair's worker threads therefore over-cover their parent, which makes
//! the repair span's self time a lower bound.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use clara_core::timing::{Span as StageSpan, Stage};

const NO_PARENT: u32 = u32::MAX;

struct Record {
    name: &'static str,
    parent: u32,
    request: u32,
    start: u64,
    end: u64,
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Record>,
    open: Vec<u32>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, request: u32) -> u32 {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Record { name, parent, request, start, end: start });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span (which must be `id`) and returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, id: u32) -> u64 {
        let end = self.now();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        let record = &mut self.spans[id as usize];
        record.end = end;
        end - record.start
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn span<R>(&mut self, name: &'static str, request: u32, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.open(name, request);
        let result = f();
        let nanos = self.close(id);
        (result, nanos)
    }

    /// Attaches the core's stage spans collected during span `parent` (see
    /// the module docs for their placement).
    pub fn adopt_stages(&mut self, parent: u32, stages: &[StageSpan]) {
        let (start, end, request) = {
            let p = &self.spans[parent as usize];
            (p.start, p.end, p.request)
        };
        let mut offset = start;
        let mut pending_matches: Vec<u64> = Vec::new();
        for span in stages {
            if span.stage == Stage::ClusterMatch {
                pending_matches.push(span.nanos);
                continue;
            }
            if span.stage != Stage::Verify {
                for nanos in pending_matches.drain(..) {
                    self.push_stage(Stage::ClusterMatch, parent, request, offset, nanos, end);
                    offset += nanos;
                }
            }
            let at = offset;
            let id = self.push_stage(span.stage, parent, request, at, span.nanos, end);
            for nanos in pending_matches.drain(..) {
                self.push_stage(Stage::ClusterMatch, id, request, at, nanos, end);
            }
            offset = at + span.nanos;
        }
        for nanos in pending_matches {
            self.push_stage(Stage::ClusterMatch, parent, request, offset, nanos, end);
            offset += nanos;
        }
    }

    fn push_stage(
        &mut self,
        stage: Stage,
        parent: u32,
        request: u32,
        start: u64,
        nanos: u64,
        limit: u64,
    ) -> u32 {
        let start = start.min(limit);
        self.spans.push(Record {
            name: stage_name(stage),
            parent,
            request,
            start,
            end: (start + nanos).min(limit),
        });
        self.spans.len() as u32 - 1
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| (s.end - s.start) as f64).collect()
    }

    /// Total self time in nanoseconds per span name: each span's duration
    /// minus the part of its interval covered by its children.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if span.parent != NO_PARENT {
                children[span.parent as usize].push(id as u32);
            }
        }
        let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            let mut intervals: Vec<(u64, u64)> = children[id]
                .iter()
                .map(|&c| {
                    let c = &self.spans[c as usize];
                    (c.start.max(span.start), c.end.min(span.end))
                })
                .filter(|(s, e)| e > s)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start;
            for (s, e) in intervals {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            *totals.entry(span.name).or_default() += (span.end - span.start - covered) as f64;
        }
        totals
    }

    /// Writes every span as tab-separated `id parent request name start_ns
    /// end_ns` lines (parent `-` for roots).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == NO_PARENT { "-".to_owned() } else { span.parent.to_string() };
            writeln!(out, "{id}\t{parent}\t{}\t{}\t{}\t{}", span.request, span.name, span.start, span.end)?;
        }
        out.flush()
    }
}

/// The span name of a core stage.
fn stage_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Parse => "core.parse",
        Stage::CacheProbe => "core.cache_probe",
        Stage::SnapshotResolve => "core.snapshot_resolve",
        Stage::CandidateSearch => "core.candidate_search",
        Stage::ClusterMatch => "core.cluster_match",
        Stage::SigCache => "core.sigcache",
        Stage::Ilp => "core.ilp",
        Stage::Verify => "core.verify",
        Stage::Learn => "core.learn",
        Stage::Replicate => "core.replicate",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut tracer = Tracer::new();
        let root = tracer.open("root", 0);
        tracer.span("child", 0, || std::thread::sleep(std::time::Duration::from_millis(2)));
        tracer.close(root);
        let selfs = tracer.self_times();
        let root_total = tracer.durations("root")[0];
        let child_total = tracer.durations("child")[0];
        assert!((selfs["root"] + child_total - root_total).abs() < 1.0);
        assert_eq!(selfs["child"], child_total);
    }

    #[test]
    fn verification_matches_nest_inside_verify() {
        let mut tracer = Tracer::new();
        let root = tracer.open("repair", 0);
        std::thread::sleep(std::time::Duration::from_millis(1));
        tracer.close(root);
        let stages = [
            StageSpan { stage: Stage::Ilp, nanos: 100 },
            StageSpan { stage: Stage::ClusterMatch, nanos: 30 },
            StageSpan { stage: Stage::Verify, nanos: 50 },
        ];
        tracer.adopt_stages(root, &stages);
        let selfs = tracer.self_times();
        assert_eq!(selfs["core.verify"], 20.0, "the match covers 30 of the verification's 50 ns");
        assert_eq!(selfs["repair"], tracer.durations("repair")[0] - 150.0);
    }
}
