//! Service metrics, exported as Prometheus text and as registry JSON.
//!
//! Counters are plain atomics so the request path never takes a lock to
//! count; the latency histogram reuses [`hbc_probe::Histogram`] (exact
//! count/sum/min/max, power-of-two buckets) under a mutex, touched once
//! per response. Two snapshot renderings exist:
//!
//! * `GET /metrics` — [`Metrics::to_prometheus`], the Prometheus text
//!   exposition format: `_total` counters, queue gauges, and summaries
//!   with p50/p95/p99 `quantile` labels for end-to-end latency and for
//!   every span stage. [`parse_prometheus`] is the strict reader the
//!   tests (and the load generator's smoke gate) validate bodies with.
//! * `GET /metrics.json` — [`Metrics::to_registry`] into a
//!   [`ProbeRegistry`] and its deterministic JSON — the same format and
//!   typed [`Probe`] ids as the simulator's own probes.
//!
//! # Example
//!
//! ```
//! use hbc_serve::metrics::Metrics;
//!
//! let m = Metrics::default();
//! m.requests.inc();
//! m.cache_hits_memory.inc();
//! let json = m.to_registry().to_json();
//! assert!(json.contains("\"serve.cache.hits.memory\":1"));
//! let text = m.to_prometheus(0, 0, &Default::default());
//! assert!(text.contains("serve_http_requests_total 1"));
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

use hbc_probe::{Histogram, HistogramProbe, Probe, ProbeRegistry, Stage};

use crate::Locked;

/// A monotonically increasing atomic counter (relaxed ordering: the
/// metrics are statistics, not synchronization).
#[derive(Debug, Default)]
pub struct AtomicCounter(AtomicU64);

impl AtomicCounter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared service counters. One instance lives behind an `Arc` in the
/// server's shared state; every field is independently updatable from any
/// worker without locking.
#[derive(Debug, Default)]
pub struct Metrics {
    /// HTTP requests that reached a handler (parsed request line).
    pub requests: AtomicCounter,
    /// `200` responses.
    pub responses_ok: AtomicCounter,
    /// `400` responses (malformed HTTP, JSON, or spec).
    pub responses_bad_request: AtomicCounter,
    /// `404` responses.
    pub responses_not_found: AtomicCounter,
    /// `429` responses (admission queue full).
    pub responses_rejected: AtomicCounter,
    /// `503` responses (shutting down).
    pub responses_unavailable: AtomicCounter,
    /// `504` responses (per-request timeout).
    pub responses_timeout: AtomicCounter,
    /// `500` responses (execution failed).
    pub responses_error: AtomicCounter,
    /// Result-cache hits served from the in-memory LRU.
    pub cache_hits_memory: AtomicCounter,
    /// Result-cache hits replayed from `results/cache/` on disk.
    pub cache_hits_disk: AtomicCounter,
    /// Cache misses (a simulation was started).
    pub cache_misses: AtomicCounter,
    /// Requests coalesced onto an identical in-flight simulation.
    pub coalesced: AtomicCounter,
    /// Simulations actually executed by the engine.
    pub exec_runs: AtomicCounter,
    /// Current admission-queue depth.
    pub queue_depth: AtomicU64,
    /// High-water mark of the admission queue.
    pub queue_peak: AtomicU64,
    /// End-to-end request latency in microseconds (accept to response
    /// written), including queueing.
    pub latency_micros: Locked<Histogram>,
}

impl Metrics {
    /// Notes a connection entering the admission queue.
    pub fn queue_push(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Notes a connection leaving the admission queue.
    pub fn queue_pop(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records one served request's end-to-end latency.
    pub fn record_latency(&self, micros: u64) {
        self.latency_micros.with(|h| h.record(micros));
    }

    /// Snapshots every counter into a fresh [`ProbeRegistry`] (sorted,
    /// deterministic given the counter values).
    pub fn to_registry(&self) -> ProbeRegistry {
        let mut reg = ProbeRegistry::new();
        reg.set(Probe::ServeHttpRequests, self.requests.get());
        reg.set(Probe::ServeHttpResponsesOk, self.responses_ok.get());
        reg.set(Probe::ServeHttpResponsesBadRequest, self.responses_bad_request.get());
        reg.set(Probe::ServeHttpResponsesNotFound, self.responses_not_found.get());
        reg.set(Probe::ServeHttpResponsesRejected, self.responses_rejected.get());
        reg.set(Probe::ServeHttpResponsesUnavailable, self.responses_unavailable.get());
        reg.set(Probe::ServeHttpResponsesTimeout, self.responses_timeout.get());
        reg.set(Probe::ServeHttpResponsesError, self.responses_error.get());
        reg.set(Probe::ServeCacheHitsMemory, self.cache_hits_memory.get());
        reg.set(Probe::ServeCacheHitsDisk, self.cache_hits_disk.get());
        reg.set(Probe::ServeCacheMisses, self.cache_misses.get());
        reg.set(Probe::ServeCacheCoalesced, self.coalesced.get());
        reg.set(Probe::ServeExecRuns, self.exec_runs.get());
        reg.set(Probe::ServeQueueDepth, self.queue_depth.load(Ordering::Relaxed));
        reg.set(Probe::ServeQueuePeak, self.queue_peak.load(Ordering::Relaxed));
        reg.set_histogram(
            HistogramProbe::ServeLatencyMicros,
            self.latency_micros.with(|h| h.clone()),
        );
        reg
    }

    /// Renders the Prometheus text exposition format: every counter as a
    /// `_total` family, the queue gauges, and `summary` families (with
    /// p50/p95/p99 `quantile` labels, `_sum`, and `_count`) for the
    /// end-to-end latency and for each span stage in `stages`.
    ///
    /// `cache_evictions` comes from the result cache and `span_dropped`
    /// from the span ring's drop accounting — both own their
    /// counts; `stages` from [`crate::spans::ServeSpans::stage_histograms`].
    pub fn to_prometheus(
        &self,
        cache_evictions: u64,
        span_dropped: u64,
        stages: &BTreeMap<Stage, Histogram>,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();

        family(
            &mut out,
            "serve_http_requests_total",
            "counter",
            "HTTP requests that reached a handler (parsed request line).",
        );
        let _ = writeln!(out, "serve_http_requests_total {}", self.requests.get());

        self.write_responses(&mut out, "serve_http_responses_total", &[]);

        family(&mut out, "serve_cache_hits_total", "counter", "Result-cache hits by serving tier.");
        let _ = writeln!(
            out,
            "serve_cache_hits_total{{tier=\"memory\"}} {}",
            self.cache_hits_memory.get()
        );
        let _ =
            writeln!(out, "serve_cache_hits_total{{tier=\"disk\"}} {}", self.cache_hits_disk.get());
        family(
            &mut out,
            "serve_cache_misses_total",
            "counter",
            "Cache misses (a simulation was started).",
        );
        let _ = writeln!(out, "serve_cache_misses_total {}", self.cache_misses.get());
        family(
            &mut out,
            "serve_cache_coalesced_total",
            "counter",
            "Requests coalesced onto an identical in-flight simulation.",
        );
        let _ = writeln!(out, "serve_cache_coalesced_total {}", self.coalesced.get());
        family(
            &mut out,
            "serve_cache_evictions_total",
            "counter",
            "Memory-tier LRU entries evicted by inserts.",
        );
        let _ = writeln!(out, "serve_cache_evictions_total {cache_evictions}");
        family(
            &mut out,
            "serve_exec_runs_total",
            "counter",
            "Simulations actually executed by the engine.",
        );
        let _ = writeln!(out, "serve_exec_runs_total {}", self.exec_runs.get());

        self.write_queue(&mut out, "serve", span_dropped);

        family(
            &mut out,
            "serve_latency_microseconds",
            "summary",
            "End-to-end request latency (accept to response written), including queueing.",
        );
        summary(
            &mut out,
            "serve_latency_microseconds",
            "",
            &self.latency_micros.with(|h| h.clone()),
        );

        write_stages(
            &mut out,
            "serve_stage_duration_microseconds",
            "Span duration per request lifecycle stage.",
            stages,
        );
        out
    }

    /// Writes the `name` family: one row per response status, in status
    /// order, plus `extra` rows for statuses counted outside these
    /// metrics (the coordinator's `502`).
    pub fn write_responses(&self, out: &mut String, name: &str, extra: &[(&str, u64)]) {
        use std::fmt::Write as _;
        family(out, name, "counter", "Responses by HTTP status code.");
        let mut rows = vec![
            ("200", self.responses_ok.get()),
            ("400", self.responses_bad_request.get()),
            ("404", self.responses_not_found.get()),
            ("429", self.responses_rejected.get()),
            ("500", self.responses_error.get()),
            ("503", self.responses_unavailable.get()),
            ("504", self.responses_timeout.get()),
        ];
        rows.extend_from_slice(extra);
        rows.sort_unstable();
        for (status, count) in rows {
            let _ = writeln!(out, "{name}{{status=\"{status}\"}} {count}");
        }
    }

    /// Writes the `{prefix}_queue_depth` and `{prefix}_queue_peak` gauges,
    /// then the span ring's drop count.
    pub fn write_queue(&self, out: &mut String, prefix: &str, span_dropped: u64) {
        use std::fmt::Write as _;
        let (depth, peak) = (format!("{prefix}_queue_depth"), format!("{prefix}_queue_peak"));
        family(out, &depth, "gauge", "Current admission-queue depth.");
        let _ = writeln!(out, "{depth} {}", self.queue_depth.load(Ordering::Relaxed));
        family(out, &peak, "gauge", "High-water mark of the admission queue.");
        let _ = writeln!(out, "{peak} {}", self.queue_peak.load(Ordering::Relaxed));
        family(
            out,
            "hbc_span_dropped_total",
            "counter",
            "Spans evicted from the bounded ring before export (a nonzero value means GET /trace is truncated).",
        );
        let _ = writeln!(out, "hbc_span_dropped_total {span_dropped}");
    }
}

/// Writes the `name` summary family with one summary per span stage.
pub fn write_stages(out: &mut String, name: &str, help: &str, stages: &BTreeMap<Stage, Histogram>) {
    family(out, name, "summary", help);
    for (stage, h) in stages {
        summary(out, name, &format!("stage=\"{}\"", stage.name()), h);
    }
}

/// Writes a family's `# HELP` and `# TYPE` lines.
pub fn family(out: &mut String, name: &str, kind: &str, help: &str) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Writes one summary's p50/p95/p99 `quantile` samples, `_sum` and
/// `_count`. `labels` is either empty or rendered `key="value"` pairs to
/// put before the quantile label.
pub fn summary(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    use std::fmt::Write as _;
    let lead = if labels.is_empty() { String::new() } else { format!("{labels},") };
    for (q, tag) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
        let _ = writeln!(out, "{name}{{{lead}quantile=\"{tag}\"}} {}", h.quantile(q));
    }
    let braced = if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
    let _ = writeln!(out, "{name}_sum{braced} {}", h.sum());
    let _ = writeln!(out, "{name}_count{braced} {}", h.count());
}

/// One parsed Prometheus sample line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (family name plus any `_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// `true` for a legal Prometheus metric or label name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` (labels additionally may not contain `:`,
/// which none of ours do).
fn prom_name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parses and validates a Prometheus text exposition body, returning its
/// samples. Errors (with a line number) on malformed names, labels, or
/// values, on a sample whose family has no preceding `# TYPE`, and on
/// duplicate `# TYPE` declarations — strict enough that the tests and the
/// load generator's smoke gate prove `GET /metrics` stays well-formed.
pub fn parse_prometheus(text: &str) -> Result<Vec<Sample>, String> {
    let mut typed: BTreeSet<&str> = BTreeSet::new();
    let mut samples = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let (name, kind) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("line {n}: TYPE needs a name and a kind"))?;
                if !prom_name_ok(name) {
                    return Err(format!("line {n}: bad metric name {name:?}"));
                }
                if !["counter", "gauge", "summary", "histogram", "untyped"].contains(&kind) {
                    return Err(format!("line {n}: unknown metric kind {kind:?}"));
                }
                if !typed.insert(name) {
                    return Err(format!("line {n}: duplicate TYPE for {name}"));
                }
            } else if let Some(rest) = comment.strip_prefix("HELP ") {
                let (name, help) = rest
                    .split_once(' ')
                    .ok_or_else(|| format!("line {n}: HELP needs a name and text"))?;
                if !prom_name_ok(name) || help.is_empty() {
                    return Err(format!("line {n}: bad HELP line"));
                }
            }
            // Other comments are legal and carry no structure.
            continue;
        }
        // A sample: `name value` or `name{k="v",...} value`.
        let (name, rest) = match line.find('{') {
            Some(brace) => {
                let (name, rest) = line.split_at(brace);
                let (labels, value) = rest[1..]
                    .split_once('}')
                    .ok_or_else(|| format!("line {n}: unterminated label set"))?;
                (name, Some((labels, value)))
            }
            None => (line.split_once(' ').map_or(line, |(name, _)| name), None),
        };
        if !prom_name_ok(name) {
            return Err(format!("line {n}: bad metric name {name:?}"));
        }
        let (labels_text, value_text) = match rest {
            Some((labels, value)) => (labels, value),
            None => ("", line.strip_prefix(name).unwrap_or("")),
        };
        let mut labels = Vec::new();
        if !labels_text.is_empty() {
            for pair in labels_text.split(',') {
                let (key, quoted) = pair
                    .split_once('=')
                    .ok_or_else(|| format!("line {n}: label without `=` in {pair:?}"))?;
                let value = quoted
                    .strip_prefix('"')
                    .and_then(|v| v.strip_suffix('"'))
                    .ok_or_else(|| format!("line {n}: unquoted label value in {pair:?}"))?;
                if !prom_name_ok(key) || value.contains(['"', '\\']) {
                    return Err(format!("line {n}: bad label pair {pair:?}"));
                }
                labels.push((key.to_string(), value.to_string()));
            }
        }
        let value_text = value_text.trim_start();
        let value: f64 =
            value_text.parse().map_err(|_| format!("line {n}: bad sample value {value_text:?}"))?;
        let family = ["_sum", "_count", "_bucket"]
            .iter()
            .find_map(|suffix| name.strip_suffix(suffix).filter(|f| typed.contains(f)))
            .unwrap_or(name);
        if !typed.contains(family) {
            return Err(format!("line {n}: sample {name} has no preceding # TYPE"));
        }
        samples.push(Sample { name: name.to_string(), labels, value });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_gauge_tracks_depth_and_peak() {
        let m = Metrics::default();
        m.queue_push();
        m.queue_push();
        m.queue_pop();
        m.queue_push();
        let reg = m.to_registry();
        assert_eq!(reg.get(Probe::ServeQueueDepth), Some(2));
        assert_eq!(reg.get(Probe::ServeQueuePeak), Some(2));
    }

    #[test]
    fn export_is_parseable_and_complete() {
        let m = Metrics::default();
        m.requests.inc();
        m.record_latency(1234);
        let json = m.to_registry().to_json();
        let v = crate::json::Json::parse(&json).expect("metrics JSON parses");
        let obj = v.as_obj().expect("object");
        let counters = obj["counters"].as_obj().expect("counters object");
        assert_eq!(counters["serve.http.requests"].as_u64(), Some(1));
        // The service's own fifteen; `serve.cache.evictions` is appended
        // by the server from the cache's count (16 at the endpoint).
        assert_eq!(counters.len(), 15);
        assert!(obj["histograms"].as_obj().expect("histograms")["serve.latency.micros"]
            .as_obj()
            .is_some());
    }

    #[test]
    fn prometheus_body_is_strictly_parseable_and_complete() {
        let m = Metrics::default();
        m.requests.inc();
        m.responses_ok.inc();
        m.cache_hits_memory.inc();
        m.queue_push();
        m.record_latency(1234);
        let mut stages = BTreeMap::new();
        let mut h = Histogram::default();
        h.record(500);
        h.record(900);
        stages.insert(Stage::ServeParse, h);

        let text = m.to_prometheus(3, 2, &stages);
        let samples = parse_prometheus(&text).expect("body parses");
        let find = |name: &str| samples.iter().find(|s| s.name == name).map(|s| s.value);
        assert_eq!(find("serve_http_requests_total"), Some(1.0));
        assert_eq!(find("serve_cache_evictions_total"), Some(3.0));
        assert_eq!(find("hbc_span_dropped_total"), Some(2.0));
        assert_eq!(find("serve_queue_depth"), Some(1.0));
        assert_eq!(find("serve_latency_microseconds_count"), Some(1.0));
        let ok = samples
            .iter()
            .find(|s| s.name == "serve_http_responses_total" && s.label("status") == Some("200"))
            .expect("labeled status sample");
        assert_eq!(ok.value, 1.0);
        let parse_count = samples
            .iter()
            .find(|s| {
                s.name == "serve_stage_duration_microseconds_count"
                    && s.label("stage") == Some("serve.parse")
            })
            .expect("stage summary");
        assert_eq!(parse_count.value, 2.0);
        let quantiles: Vec<f64> = samples
            .iter()
            .filter(|s| {
                s.name == "serve_stage_duration_microseconds"
                    && s.label("stage") == Some("serve.parse")
            })
            .map(|s| s.value)
            .collect();
        assert_eq!(quantiles.len(), 3, "p50/p95/p99");
        assert!(quantiles.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn parse_prometheus_rejects_malformed_bodies() {
        for (body, why) in [
            ("bad name 1\n", "space in metric name"),
            ("# TYPE x counter\nx notanumber\n", "unparseable value"),
            ("orphan_total 3\n", "sample with no TYPE"),
            ("# TYPE x counter\n# TYPE x counter\nx 1\n", "duplicate TYPE"),
            ("# TYPE x wat\nx 1\n", "unknown kind"),
            ("# TYPE x counter\nx{l=\"v\" 1\n", "unterminated labels"),
            ("# TYPE x counter\nx{l=v} 1\n", "unquoted label value"),
        ] {
            assert!(parse_prometheus(body).is_err(), "{why} must be rejected");
        }
        // Bare comments and empty lines are legal exposition.
        let ok = "# a free-form comment\n\n# TYPE up gauge\nup 1\n";
        assert_eq!(parse_prometheus(ok).expect("parses").len(), 1);
    }
}
