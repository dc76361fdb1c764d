//! Hand-rolled observability: metrics registry, latency histograms,
//! request tracing and structured logs.
//!
//! The build environment is offline, so there is no prometheus client, no
//! tracing crate and no logging framework — everything here is `std` only:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — atomic instruments held in
//!   a [`Registry`], registered by name + label set. Each
//!   [`crate::FeedbackService`] and [`crate::Router`] owns a registry with
//!   everything it counts; the process-wide [`Registry::global`] holds only
//!   the `clara_stage_duration_us` histograms of [`install_stage_metrics`].
//!   The histogram uses **log-linear buckets** (exact below 8, four sub-buckets
//!   per power of two above, one overflow bucket past `2^30`): every
//!   histogram in the fleet shares the same fixed layout, so merging two of
//!   them is an element-wise add and a router can fold shard histograms
//!   into fleet-level views without resampling. Quantile estimates are
//!   bucket-upper-bound answers, i.e. `p ≤ estimate ≤ 1.25·p` above the
//!   linear range (property-tested below).
//! * [`MetricsDump`] — the JSON snapshot of a process's registry merged
//!   with the global one: the one answer of `GET /stats`, `GET /health` and
//!   the `{"stats":true}` and `{"metrics":true}` NDJSON probes;
//!   [`render_prometheus`] renders a dump (local or fleet-merged) in
//!   Prometheus text format for `GET /metrics`.
//! * [`mint_trace_id`] — 16-hex-digit request trace ids from a seeded
//!   SplitMix64 stream, minted at ingress and threaded through the
//!   protocol.
//! * [`log`] — one-line JSON structured logs on stderr (`ts`, `level`,
//!   `event`, plus free-form fields), replacing ad-hoc `eprintln!`.
//!
//! The seam to the repair pipeline is [`install_stage_metrics`]: it plugs a
//! [`clara_core::timing::StageSink`] into the core crate so every
//! [`clara_core::timing::StageTimer`] sample lands in a
//! `clara_stage_duration_us{stage=…}` histogram here.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

use clara_core::timing::{Stage, StageSink};
use serde::{Deserialize, Serialize};

use crate::retry::SplitMix64;

// ---------------------------------------------------------------------------
// Histogram bucket layout (shared, fixed — the precondition for merging)
// ---------------------------------------------------------------------------

/// Number of buckets in every [`Histogram`]: 8 exact buckets for values
/// 0–7, 27 octaves × 4 log-linear sub-buckets for values 8 to `2^30 - 1`,
/// and one overflow bucket.
pub const HISTOGRAM_BUCKETS: usize = 117;

/// Lower bound of the overflow bucket.
const OVERFLOW_LOWER: u64 = 1 << 30;

/// The bucket index recording `value`.
pub fn bucket_index(value: u64) -> usize {
    if value < 8 {
        return value as usize;
    }
    if value >= OVERFLOW_LOWER {
        return HISTOGRAM_BUCKETS - 1;
    }
    let k = 63 - u64::from(value.leading_zeros()); // floor(log2(value)), 3..=29
    let sub = (value >> (k - 2)) & 3;
    (8 + (k - 3) * 4 + sub) as usize
}

/// Smallest value landing in bucket `index`.
pub fn bucket_lower(index: usize) -> u64 {
    if index < 8 {
        return index as u64;
    }
    if index >= HISTOGRAM_BUCKETS - 1 {
        return OVERFLOW_LOWER;
    }
    let i = (index - 8) as u64;
    let k = i / 4 + 3;
    (1u64 << k) + (i % 4) * (1u64 << (k - 2))
}

/// Largest value landing in bucket `index` (inclusive).
pub fn bucket_max(index: usize) -> u64 {
    if index + 1 >= HISTOGRAM_BUCKETS {
        u64::MAX
    } else {
        bucket_lower(index + 1) - 1
    }
}

// ---------------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------------

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A mergeable log-linear-bucket latency histogram. Values are unit-free;
/// every histogram in this codebase records **microseconds**.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// A point-in-time copy (racy across buckets under concurrent writes,
    /// which is fine for monitoring).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// An immutable histogram snapshot: what dumps carry and quantiles are
/// computed from. Mergeable with any snapshot of the same layout.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (layout: [`bucket_index`]).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Upper-bound estimate of the `q`-quantile (0 < q ≤ 1): the inclusive
    /// upper edge of the bucket holding the rank-`⌈q·count⌉` observation,
    /// clamped to the observed maximum. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= target {
                return bucket_max(index).min(self.max);
            }
        }
        self.max
    }

    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Folds `other` into `self` (element-wise bucket add). Layouts are
    /// fixed process-wide; a shorter foreign vector (older peer) is padded.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

type MetricKey = (String, Vec<(String, String)>);

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A registry of named, labelled instruments. Instrument handles are
/// `Arc`s: register once (cheap but locking), then record lock-free on the
/// hot path.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<MetricKey, Metric>>,
}

fn metric_key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    (name.to_owned(), labels.iter().map(|(k, v)| ((*k).to_owned(), (*v).to_owned())).collect())
}

impl Registry {
    /// The process-wide registry: the stage histograms of
    /// [`install_stage_metrics`], which the core crate's timers feed from
    /// wherever they run.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::default)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<MetricKey, Metric>> {
        self.metrics.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The counter registered under `name` + `labels` (created on first
    /// use). Panics if the key is already registered as another kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut metrics = self.lock();
        let entry = metrics
            .entry(metric_key(name, labels))
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())));
        match entry {
            Metric::Counter(counter) => Arc::clone(counter),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// The gauge registered under `name` + `labels` (created on first use).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut metrics = self.lock();
        let entry = metrics
            .entry(metric_key(name, labels))
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())));
        match entry {
            Metric::Gauge(gauge) => Arc::clone(gauge),
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// The histogram registered under `name` + `labels` (created on first
    /// use).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let mut metrics = self.lock();
        let entry = metrics
            .entry(metric_key(name, labels))
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())));
        match entry {
            Metric::Histogram(histogram) => Arc::clone(histogram),
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// A JSON-serializable snapshot of every registered instrument, tagged
    /// with the probe correlation `id`.
    pub fn dump(&self, id: u64) -> MetricsDump {
        let metrics = self.lock();
        let mut dump = MetricsDump { metrics_dump: true, id, ..MetricsDump::default() };
        for ((name, labels), metric) in metrics.iter() {
            let labels: Vec<LabelDump> =
                labels.iter().map(|(k, v)| LabelDump { k: k.clone(), v: v.clone() }).collect();
            match metric {
                Metric::Counter(counter) => {
                    dump.counters.push(CounterDump { name: name.clone(), labels, value: counter.get() })
                }
                Metric::Gauge(gauge) => {
                    dump.gauges.push(GaugeDump { name: name.clone(), labels, value: gauge.get() })
                }
                Metric::Histogram(histogram) => dump.histograms.push(HistogramDump {
                    name: name.clone(),
                    labels,
                    hist: histogram.snapshot(),
                }),
            }
        }
        dump
    }

    /// This registry's dump merged with the global stage histograms: what
    /// one process answers to `/stats`, `/health` and `/metrics`.
    pub(crate) fn process_dump(&self, id: u64) -> MetricsDump {
        let mut dump = self.dump(id);
        dump.merge(&Registry::global().dump(id));
        dump
    }
}

/// Whether `labels` carries every `(key, value)` pair of `wanted`.
fn has_labels(labels: &[LabelDump], wanted: &[(&str, &str)]) -> bool {
    wanted.iter().all(|(k, v)| labels.iter().any(|l| l.k == *k && l.v == *v))
}

/// One label of a dumped metric.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelDump {
    /// Label name.
    pub k: String,
    /// Label value.
    pub v: String,
}

/// A dumped counter.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterDump {
    /// Metric family name.
    pub name: String,
    /// Label set.
    pub labels: Vec<LabelDump>,
    /// Counter value.
    pub value: u64,
}

/// A dumped gauge.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaugeDump {
    /// Metric family name.
    pub name: String,
    /// Label set.
    pub labels: Vec<LabelDump>,
    /// Gauge value.
    pub value: i64,
}

/// A dumped histogram.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistogramDump {
    /// Metric family name.
    pub name: String,
    /// Label set.
    pub labels: Vec<LabelDump>,
    /// The bucket snapshot.
    pub hist: HistogramSnapshot,
}

/// The full metrics snapshot of one process: the payload of
/// `{"metrics":true}` NDJSON probes. Mergeable across processes
/// ([`MetricsDump::merge`]), renderable as Prometheus text
/// ([`render_prometheus`]).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsDump {
    /// Marker distinguishing this payload from feedback responses on the
    /// NDJSON stream (always `true`).
    pub metrics_dump: bool,
    /// Correlation id of the probe.
    pub id: u64,
    /// All counters.
    pub counters: Vec<CounterDump>,
    /// All gauges.
    pub gauges: Vec<GaugeDump>,
    /// All histograms.
    pub histograms: Vec<HistogramDump>,
}

impl MetricsDump {
    /// The sum of every counter named `name` whose labels include all of
    /// `labels` (`&[]` sums the whole family); 0 when none matches.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name && has_labels(&c.labels, labels))
            .map(|c| c.value)
            .sum()
    }

    /// The sum of every gauge named `name` whose labels include all of
    /// `labels`; `None` when none matches, so a missing or mislabelled
    /// series never reads as 0.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        let matching = self.gauges.iter().filter(|g| g.name == name && has_labels(&g.labels, labels));
        matching.map(|g| g.value).reduce(|a, b| a + b)
    }

    /// Folds `other` into `self`: counters and gauges add by
    /// (name, labels); histograms merge bucket-wise. Instruments only
    /// present in `other` are appended. This is how the router builds its
    /// fleet-level view from per-shard dumps.
    pub fn merge(&mut self, other: &MetricsDump) {
        for counter in &other.counters {
            match self.counters.iter_mut().find(|c| c.name == counter.name && c.labels == counter.labels) {
                Some(mine) => mine.value += counter.value,
                None => self.counters.push(counter.clone()),
            }
        }
        for gauge in &other.gauges {
            match self.gauges.iter_mut().find(|g| g.name == gauge.name && g.labels == gauge.labels) {
                Some(mine) => mine.value += gauge.value,
                None => self.gauges.push(gauge.clone()),
            }
        }
        for histogram in &other.histograms {
            match self
                .histograms
                .iter_mut()
                .find(|h| h.name == histogram.name && h.labels == histogram.labels)
            {
                Some(mine) => mine.hist.merge(&histogram.hist),
                None => self.histograms.push(histogram.clone()),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Prometheus text rendering
// ---------------------------------------------------------------------------

/// The cumulative `le` bounds rendered for histograms: powers of four (all
/// of which are bucket boundaries of the fine layout, so no fine bucket is
/// ever split across rendered bounds), plus `+Inf`.
const RENDER_BOUNDS: [u64; 16] = [
    1,
    4,
    16,
    64,
    256,
    1_024,
    4_096,
    16_384,
    65_536,
    262_144,
    1_048_576,
    4_194_304,
    16_777_216,
    67_108_864,
    268_435_456,
    1_073_741_824,
];

fn escape_label(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn render_labels(labels: &[LabelDump], extra: Option<(&str, String)>) -> String {
    let mut parts: Vec<String> =
        labels.iter().map(|l| format!("{}=\"{}\"", l.k, escape_label(&l.v))).collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Renders a [`MetricsDump`] in the Prometheus text exposition format
/// (counters, gauges, and histograms with cumulative `le` buckets, `_sum`
/// and `_count` series).
pub fn render_prometheus(dump: &MetricsDump) -> String {
    let mut out = String::new();
    let mut typed: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for counter in &dump.counters {
        if typed.insert(&counter.name) {
            out.push_str(&format!("# TYPE {} counter\n", counter.name));
        }
        out.push_str(&format!(
            "{}{} {}\n",
            counter.name,
            render_labels(&counter.labels, None),
            counter.value
        ));
    }
    for gauge in &dump.gauges {
        if typed.insert(&gauge.name) {
            out.push_str(&format!("# TYPE {} gauge\n", gauge.name));
        }
        out.push_str(&format!("{}{} {}\n", gauge.name, render_labels(&gauge.labels, None), gauge.value));
    }
    for histogram in &dump.histograms {
        if typed.insert(&histogram.name) {
            out.push_str(&format!("# TYPE {} histogram\n", histogram.name));
        }
        let mut cumulative = 0u64;
        let mut fine = histogram.hist.buckets.iter().enumerate().peekable();
        for bound in RENDER_BOUNDS {
            while let Some(&(index, &count)) = fine.peek() {
                if bucket_max(index) <= bound {
                    cumulative += count;
                    fine.next();
                } else {
                    break;
                }
            }
            out.push_str(&format!(
                "{}_bucket{} {}\n",
                histogram.name,
                render_labels(&histogram.labels, Some(("le", bound.to_string()))),
                cumulative
            ));
        }
        out.push_str(&format!(
            "{}_bucket{} {}\n",
            histogram.name,
            render_labels(&histogram.labels, Some(("le", "+Inf".to_owned()))),
            histogram.hist.count
        ));
        out.push_str(&format!(
            "{}_sum{} {}\n",
            histogram.name,
            render_labels(&histogram.labels, None),
            histogram.hist.sum
        ));
        out.push_str(&format!(
            "{}_count{} {}\n",
            histogram.name,
            render_labels(&histogram.labels, None),
            histogram.hist.count
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Stage seam: clara_core::timing -> per-stage histograms
// ---------------------------------------------------------------------------

struct StageMetricsSink {
    hists: Vec<Arc<Histogram>>,
}

impl StageSink for StageMetricsSink {
    fn record(&self, stage: Stage, nanos: u64) {
        let index = Stage::ALL.iter().position(|s| *s == stage).unwrap_or(0);
        self.hists[index].record(nanos / 1_000);
    }
}

/// Installs the process-wide stage sink: every [`clara_core::timing::StageTimer`]
/// sample lands in the `clara_stage_duration_us{stage=…}` histogram of the
/// global registry. Idempotent; called from every service/router
/// constructor so any embedding gets stage metrics without extra setup.
pub fn install_stage_metrics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let hists: Vec<Arc<Histogram>> = Stage::ALL
            .iter()
            .map(|stage| {
                Registry::global().histogram("clara_stage_duration_us", &[("stage", stage.as_str())])
            })
            .collect();
        let sink: &'static StageMetricsSink = Box::leak(Box::new(StageMetricsSink { hists }));
        let _ = clara_core::timing::install_sink(sink);
    });
}

// ---------------------------------------------------------------------------
// Trace ids
// ---------------------------------------------------------------------------

/// Mints a 16-hex-digit trace id from a process-wide seeded SplitMix64
/// stream (seeded once from wall clock ⊕ pid, then advanced per mint — ids
/// are unique within a process and collide across processes with
/// probability 2^-64 per pair).
pub fn mint_trace_id() -> String {
    static SEED: OnceLock<u64> = OnceLock::new();
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let seed = *SEED.get_or_init(|| {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0);
        nanos ^ (u64::from(std::process::id()) << 32) ^ 0x9E37_79B9_7F4A_7C15
    });
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let id = SplitMix64::new(seed.wrapping_add(n.wrapping_mul(0xA076_1D64_78BD_642F))).next_u64();
    format!("{id:016x}")
}

/// The request's trace id, or a freshly minted one when the client (or an
/// upstream router) did not supply one.
pub fn trace_or_mint(trace: Option<&str>) -> String {
    match trace {
        Some(t) if !t.is_empty() => t.to_owned(),
        _ => mint_trace_id(),
    }
}

// ---------------------------------------------------------------------------
// Structured logs
// ---------------------------------------------------------------------------

/// A one-line JSON log event under construction. Build with [`log`], add
/// fields, then [`LogEvent::emit`] to stderr.
#[derive(Debug)]
pub struct LogEvent {
    buf: String,
}

/// Starts a structured log event: `{"ts":<unix_ms>,"level":…,"event":…,…}`.
pub fn log(level: &str, event: &str) -> LogEvent {
    let ts = SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis()).unwrap_or(0);
    let mut buf = String::with_capacity(128);
    buf.push_str(&format!("{{\"ts\":{ts},\"level\":{},\"event\":{}", json_string(level), json_string(event)));
    LogEvent { buf }
}

fn json_string(value: &str) -> String {
    serde_json::to_string(&value.to_owned()).unwrap_or_else(|_| "\"\"".to_owned())
}

impl LogEvent {
    /// Adds a string field (JSON-escaped).
    pub fn str_field(mut self, key: &str, value: &str) -> Self {
        self.buf.push_str(&format!(",{}:{}", json_string(key), json_string(value)));
        self
    }

    /// Adds an unsigned numeric field.
    pub fn num_field(mut self, key: &str, value: u64) -> Self {
        self.buf.push_str(&format!(",{}:{value}", json_string(key)));
        self
    }

    /// Adds a pre-rendered JSON fragment (caller guarantees validity —
    /// used for span arrays).
    pub fn raw_field(mut self, key: &str, raw_json: &str) -> Self {
        self.buf.push_str(&format!(",{}:{raw_json}", json_string(key)));
        self
    }

    /// Finishes the object and writes it as one stderr line.
    pub fn emit(mut self) {
        self.buf.push('}');
        eprintln!("{}", self.buf);
    }

    /// Finishes the object and returns it (for tests).
    pub fn into_line(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Renders a span list as a compact JSON array fragment (microsecond
/// durations), for [`LogEvent::raw_field`].
pub fn spans_json(spans: &[clara_core::timing::Span]) -> String {
    let parts: Vec<String> = spans
        .iter()
        .map(|s| format!("{{\"stage\":\"{}\",\"us\":{}}}", s.stage.as_str(), s.nanos / 1_000))
        .collect();
    format!("[{}]", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bucket_boundaries_partition_the_domain() {
        // Every bucket's [lower, max] range maps back to that bucket, and
        // consecutive buckets tile the domain with no gap or overlap.
        for index in 0..HISTOGRAM_BUCKETS {
            let lower = bucket_lower(index);
            assert_eq!(bucket_index(lower), index, "lower bound of bucket {index}");
            let max = bucket_max(index);
            assert_eq!(bucket_index(max), index, "upper bound of bucket {index}");
            if index + 1 < HISTOGRAM_BUCKETS {
                assert_eq!(bucket_lower(index + 1), max + 1, "gap after bucket {index}");
            }
        }
        // Spot checks of the log-linear layout.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(7), 7);
        assert_eq!(bucket_index(8), 8, "first octave starts at 8");
        assert_eq!(bucket_index(15), 11, "values 14-15 share the last sub-bucket of octave 3");
        assert_eq!(bucket_index(16), 12);
        assert_eq!(bucket_index(OVERFLOW_LOWER), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn relative_bucket_width_is_bounded_by_a_quarter() {
        for index in 8..HISTOGRAM_BUCKETS - 1 {
            let lower = bucket_lower(index);
            let max = bucket_max(index);
            assert!(
                (max - lower) as f64 <= lower as f64 / 4.0 + 1.0,
                "bucket {index} [{lower}, {max}] wider than 25%"
            );
        }
    }

    #[test]
    fn quantiles_of_exact_small_values_are_exact() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 4, 5, 6, 7] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 8);
        assert_eq!(snap.quantile(0.5), 3);
        assert_eq!(snap.quantile(1.0), 7);
        assert_eq!(snap.max, 7);
        assert_eq!(snap.sum, 28);
    }

    #[test]
    fn quantile_is_an_upper_bound_within_the_bucket() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(10_000);
        let snap = h.snapshot();
        let p50 = snap.quantile(0.5);
        assert!((100..=125).contains(&p50), "p50 {p50} outside the bucket of 100");
        let p99 = snap.quantile(0.99);
        assert!((100..=125).contains(&p99), "p99 {p99} (rank 99 of 100 is still a 100)");
        assert_eq!(snap.quantile(1.0), 10_000, "p100 clamps to the observed max");
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let snap = Histogram::default().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.99), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        // 8 threads hammer one histogram; every observation must land.
        let h = std::sync::Arc::new(Histogram::default());
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * 1_000 + i % 997);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("recorder thread");
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 8 * per_thread);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 8 * per_thread, "bucket counts must sum to count");
        assert!(snap.max >= 7_000);
    }

    #[test]
    fn registry_reuses_instruments_and_dumps_them() {
        let registry = Registry::default();
        let a = registry.counter("clara_test_total", &[("kind", "x")]);
        let b = registry.counter("clara_test_total", &[("kind", "x")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "same key must be the same instrument");
        registry.gauge("clara_test_gauge", &[]).set(-4);
        registry.histogram("clara_test_us", &[]).record(42);
        let dump = registry.dump(9);
        assert!(dump.metrics_dump);
        assert_eq!(dump.id, 9);
        assert_eq!(dump.counters.len(), 1);
        assert_eq!(dump.counters[0].value, 3);
        assert_eq!(dump.gauges[0].value, -4);
        assert_eq!(dump.histograms[0].hist.count, 1);
        // And the dump survives the NDJSON wire format.
        let line = serde_json::to_string(&dump).expect("dump serializes");
        assert!(!line.contains('\n'));
        let back: MetricsDump = serde_json::from_str(&line).expect("dump parses");
        assert_eq!(back.counters[0].value, 3);
        assert_eq!(back.histograms[0].hist.buckets.len(), HISTOGRAM_BUCKETS);
    }

    #[test]
    fn merged_dumps_add_counters_and_histograms() {
        let r1 = Registry::default();
        let r2 = Registry::default();
        r1.counter("c", &[]).add(5);
        r2.counter("c", &[]).add(7);
        r2.counter("only_here", &[]).inc();
        r1.histogram("h", &[]).record(10);
        r2.histogram("h", &[]).record(1_000);
        let mut merged = r1.dump(0);
        merged.merge(&r2.dump(0));
        assert_eq!(merged.counter("c", &[]), 12);
        assert_eq!(merged.counter("only_here", &[]), 1);
        let h = &merged.histograms.iter().find(|h| h.name == "h").unwrap().hist;
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 1_000);
    }

    #[test]
    fn dump_lookups_sum_the_matching_label_sets() {
        let registry = Registry::default();
        registry.counter("clara_requests_total", &[("problem", "a"), ("status", "correct")]).add(2);
        registry.counter("clara_requests_total", &[("problem", "b"), ("status", "correct")]).add(3);
        registry.counter("clara_requests_total", &[("problem", "b"), ("status", "error")]).inc();
        registry.gauge("clara_workers", &[]).set(4);
        let dump = registry.dump(0);
        assert_eq!(dump.counter("clara_requests_total", &[]), 6, "no labels sums the family");
        assert_eq!(dump.counter("clara_requests_total", &[("status", "correct")]), 5);
        assert_eq!(dump.counter("clara_requests_total", &[("problem", "b"), ("status", "error")]), 1);
        assert_eq!(dump.counter("clara_requests_total", &[("problem", "c")]), 0);
        assert_eq!(dump.counter("clara_missing_total", &[]), 0);
        assert_eq!(dump.gauge("clara_workers", &[]), Some(4));
        assert_eq!(dump.gauge("clara_workers", &[("shard", "0/1")]), None, "a label set nothing carries");
        assert_eq!(dump.gauge("clara_missing", &[]), None);
    }

    #[test]
    fn prometheus_rendering_is_wellformed() {
        let registry = Registry::default();
        registry.counter("clara_requests_total", &[("status", "correct")]).add(3);
        registry.gauge("clara_up", &[]).set(1);
        let h = registry.histogram("clara_stage_duration_us", &[("stage", "ilp")]);
        h.record(3);
        h.record(500);
        h.record(2_000_000);
        let text = render_prometheus(&registry.dump(0));
        assert!(text.contains("# TYPE clara_requests_total counter"));
        assert!(text.contains("clara_requests_total{status=\"correct\"} 3"));
        assert!(text.contains("clara_up 1"));
        assert!(text.contains("# TYPE clara_stage_duration_us histogram"));
        assert!(text.contains("clara_stage_duration_us_bucket{stage=\"ilp\",le=\"4\"} 1"));
        assert!(text.contains("clara_stage_duration_us_bucket{stage=\"ilp\",le=\"1024\"} 2"));
        assert!(text.contains("clara_stage_duration_us_bucket{stage=\"ilp\",le=\"+Inf\"} 3"));
        assert!(text.contains("clara_stage_duration_us_count{stage=\"ilp\"} 3"));
        // Cumulative bucket counts are monotonically non-decreasing.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.starts_with("clara_stage_duration_us_bucket")) {
            let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(count >= last, "non-monotone cumulative count in {line}");
            last = count;
        }
    }

    #[test]
    fn trace_ids_are_distinct_hex() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(trace_or_mint(Some("abc")), "abc");
        assert_eq!(trace_or_mint(Some("")).len(), 16, "empty trace mints a fresh id");
        assert_eq!(trace_or_mint(None).len(), 16);
    }

    #[test]
    fn structured_log_lines_are_single_line_json() {
        let line = log("warn", "index_quarantined")
            .str_field("path", "/tmp/with \"quotes\"\nand newline")
            .num_field("elapsed_us", 42)
            .raw_field("spans", "[{\"stage\":\"parse\",\"us\":7}]")
            .into_line();
        assert!(!line.contains('\n'), "one line: {line}");
        // The vendored serde_json has no dynamic `Value`; check the JSON
        // shape structurally instead.
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"ts\":"), "{line}");
        assert!(line.contains("\"level\":\"warn\""), "{line}");
        assert!(line.contains("\"event\":\"index_quarantined\""), "{line}");
        assert!(line.contains(r#""path":"/tmp/with \"quotes\"\nand newline""#), "escaping: {line}");
        assert!(line.contains("\"elapsed_us\":42"), "{line}");
        assert!(line.contains("\"spans\":[{\"stage\":\"parse\",\"us\":7}]"), "raw field: {line}");
    }

    #[test]
    fn spans_render_compactly() {
        use clara_core::timing::{Span, Stage};
        let json = spans_json(&[
            Span { stage: Stage::Parse, nanos: 7_500 },
            Span { stage: Stage::Ilp, nanos: 1_000_000 },
        ]);
        assert_eq!(json, "[{\"stage\":\"parse\",\"us\":7},{\"stage\":\"ilp\",\"us\":1000}]");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        /// merge(h1, h2) must answer quantiles that bound the pooled
        /// stream: for each q, the estimate is ≥ the true pooled quantile
        /// and within the true value's bucket (≤ 25% relative error above
        /// the linear range).
        #[test]
        fn merged_quantiles_bound_the_pooled_stream(
            xs in proptest::collection::vec(0u64..5_000_000, 1..200),
            ys in proptest::collection::vec(0u64..5_000_000, 1..200),
        ) {
            let h1 = Histogram::default();
            let h2 = Histogram::default();
            for &x in &xs { h1.record(x); }
            for &y in &ys { h2.record(y); }
            let mut merged = h1.snapshot();
            merged.merge(&h2.snapshot());

            let mut pooled: Vec<u64> = xs.iter().chain(&ys).copied().collect();
            pooled.sort_unstable();
            prop_assert_eq!(merged.count, pooled.len() as u64);

            for q in [0.5, 0.9, 0.99] {
                let rank = ((q * pooled.len() as f64).ceil() as usize).clamp(1, pooled.len());
                let truth = pooled[rank - 1];
                let estimate = merged.quantile(q);
                prop_assert!(estimate >= truth, "q{q}: estimate {estimate} < true {truth}");
                let slack = truth / 4 + 1;
                prop_assert!(
                    estimate <= truth + slack,
                    "q{q}: estimate {estimate} above bucket of true {truth}"
                );
            }
            prop_assert_eq!(merged.max, *pooled.last().unwrap());
        }

        /// Recording order is irrelevant and merge equals pooled recording.
        #[test]
        fn merge_equals_pooled_recording(
            xs in proptest::collection::vec(0u64..10_000_000, 0..100),
            split in 0usize..100,
        ) {
            let split = split.min(xs.len());
            let h1 = Histogram::default();
            let h2 = Histogram::default();
            for &x in &xs[..split] { h1.record(x); }
            for &x in &xs[split..] { h2.record(x); }
            let pooled_hist = Histogram::default();
            for &x in &xs { pooled_hist.record(x); }
            let mut merged = h1.snapshot();
            merged.merge(&h2.snapshot());
            let pooled = pooled_hist.snapshot();
            prop_assert_eq!(merged.buckets, pooled.buckets);
            prop_assert_eq!(merged.count, pooled.count);
            prop_assert_eq!(merged.sum, pooled.sum);
            prop_assert_eq!(merged.max, pooled.max);
        }
    }
}
