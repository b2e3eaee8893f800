//! Causal analysis over span JSONL: per-request trees, critical-path
//! attribution, per-stage latency aggregates, and anomaly detection.
//!
//! The serving stack exports its span rings as JSON lines — one
//! `SpanRecord` per line from `GET /trace` on `hbc-serve`, and a
//! multi-process merge from the coordinator's `GET /trace?federated=1`
//! (coordinator ring plus every healthy worker's, each introduced by a
//! `{"trace_meta":…}` line carrying drop accounting). This crate turns
//! that stream back into causality:
//!
//! * **Trees** — spans group by request ID; parent links (`parent` = the
//!   enclosing span's ID, 0 for a root) reconstruct the tree. Trace
//!   propagation means a worker's spans carry the *coordinator's*
//!   request ID and hang under its `cluster.forward` span, so one tree
//!   spans both processes.
//! * **Critical path** — each span's *self time* is its duration minus
//!   its direct children's (durations only: every process measures from
//!   its own monotonic origin, so absolute timestamps never compare
//!   across processes, but durations do). The stage with the most self
//!   time dominated the request's wall clock.
//! * **Aggregates** — per-stage duration quantiles (p50/p95/p99) across
//!   every span, via [`hbc_probe::Histogram`].
//! * **Anomalies** — *orphan* spans whose parent ID appears nowhere in
//!   their request (a broken link or an evicted parent), *failover
//!   retries* (a request with two or more `cluster.forward` spans), and
//!   *drop gaps* (a source whose ring evicted spans, so its view is
//!   truncated).
//!
//! # Example
//!
//! ```
//! use hbc_trace::{analyze, TraceSet};
//!
//! let jsonl = "\
//! {\"request\":1,\"span\":2,\"parent\":0,\"stage\":\"cluster.forward\",\"start_us\":0,\"dur_us\":100}\n\
//! {\"request\":1,\"span\":3,\"parent\":2,\"stage\":\"serve.simulate\",\"start_us\":5,\"dur_us\":80}\n";
//! let set = TraceSet::parse_jsonl(jsonl).unwrap();
//! let report = analyze(&set);
//! assert_eq!(report.requests[0].dominant_stage, "serve.simulate");
//! assert!(report.anomalies.orphans.is_empty());
//! ```

use std::collections::{BTreeMap, BTreeSet};

use hbc_probe::{Histogram, Stage};
use hbc_serve::json::Json;

/// One span line from a trace export (field-for-field
/// `hbc_probe::SpanRecord`, with the stage kept as text: traces may come
/// from other builds, so a stage this build does not know still loads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Request the span belongs to (the tree key).
    pub request: u64,
    /// This span's ID.
    pub span: u64,
    /// Enclosing span's ID; 0 for a root span.
    pub parent: u64,
    /// Stage name, e.g. `cluster.forward`.
    pub stage: String,
    /// Start in the *recording process's* microsecond timebase.
    pub start_us: u64,
    /// Duration in microseconds (timebase-independent).
    pub dur_us: u64,
}

/// One `{"trace_meta":…}` line: which node a following run of spans came
/// from, and its ring's drop accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceMeta {
    /// Node label (`coordinator` or a worker's `host:port`).
    pub node: String,
    /// Spans evicted from that node's ring before export.
    pub dropped: u64,
    /// Span lines that node contributed to the stream.
    pub retained: u64,
}

/// A parsed trace: every span line plus the per-source meta lines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSet {
    /// All spans, in stream order.
    pub spans: Vec<Span>,
    /// Source meta lines, in stream order (empty for a single-process
    /// `GET /trace` export, which has no meta lines).
    pub sources: Vec<SourceMeta>,
}

/// Reads a `u64` field out of a JSON object (tolerating the codec's
/// `F64` for values that happen to render fractionally).
fn u64_field(obj: &BTreeMap<String, Json>, key: &str) -> Option<u64> {
    obj.get(key).and_then(Json::as_u64)
}

fn str_field<'a>(obj: &'a BTreeMap<String, Json>, key: &str) -> Option<&'a str> {
    obj.get(key).and_then(Json::as_str)
}

impl TraceSet {
    /// Parses one JSONL stream (either export shape). Blank lines are
    /// skipped; a malformed line is an error naming its 1-based number.
    pub fn parse_jsonl(text: &str) -> Result<TraceSet, String> {
        let mut set = TraceSet::default();
        set.extend_from_jsonl(text)?;
        Ok(set)
    }

    /// Appends another stream (e.g. a second file on the CLI) to this
    /// set. Request IDs are globally unique across processes (workers
    /// namespace theirs by port), so concatenation is the merge.
    pub fn extend_from_jsonl(&mut self, text: &str) -> Result<(), String> {
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let parsed = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            let obj = parsed.as_obj().ok_or_else(|| format!("line {}: not an object", i + 1))?;
            if obj.contains_key("trace_meta") {
                self.sources.push(SourceMeta {
                    node: str_field(obj, "node").unwrap_or("?").to_string(),
                    dropped: u64_field(obj, "dropped").unwrap_or(0),
                    retained: u64_field(obj, "retained").unwrap_or(0),
                });
                continue;
            }
            let span = (|| {
                Some(Span {
                    request: u64_field(obj, "request")?,
                    span: u64_field(obj, "span")?,
                    parent: u64_field(obj, "parent")?,
                    stage: str_field(obj, "stage")?.to_string(),
                    start_us: u64_field(obj, "start_us")?,
                    dur_us: u64_field(obj, "dur_us")?,
                })
            })()
            .ok_or_else(|| format!("line {}: not a span record", i + 1))?;
            self.spans.push(span);
        }
        Ok(())
    }
}

/// One request's tree, reduced to its critical-path attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSummary {
    /// Request ID.
    pub request: u64,
    /// Spans in the tree.
    pub spans: usize,
    /// Total attributed self time across the tree, in microseconds (the
    /// request's wall clock, as far as spans account for it).
    pub attributed_us: u64,
    /// The stage with the most self time — what dominated the request.
    pub dominant_stage: String,
    /// That stage's total self time.
    pub dominant_us: u64,
    /// `cluster.forward` spans in the tree; ≥ 2 means a failover retry.
    pub forwards: usize,
    /// Orphan spans in the tree (parent ID missing from the request).
    pub orphans: usize,
}

/// Per-stage duration aggregate across every span in the set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    /// Stage name.
    pub stage: String,
    /// Spans recorded under it.
    pub count: u64,
    /// Duration quantiles, in microseconds.
    pub p50_us: u64,
    /// 95th percentile.
    pub p95_us: u64,
    /// 99th percentile.
    pub p99_us: u64,
    /// Summed duration.
    pub total_us: u64,
}

/// A span whose parent link resolves to nothing in its request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Orphan {
    /// Request the span claims.
    pub request: u64,
    /// The orphan span's ID.
    pub span: u64,
    /// The parent ID that matched no span in the request.
    pub parent: u64,
    /// The orphan's stage.
    pub stage: String,
}

/// Everything the analysis flags as suspicious.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Anomalies {
    /// Spans with a dangling parent link.
    pub orphans: Vec<Orphan>,
    /// Requests containing a failover retry (≥ 2 forwards).
    pub failover_requests: Vec<u64>,
    /// Sources whose ring evicted spans (`(node, dropped)`), making
    /// their contribution — and any tree containing it — incomplete.
    pub dropped_sources: Vec<(String, u64)>,
}

/// The full analysis result. Render with [`Report::to_text`] or
/// [`Report::to_json`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Per-request critical-path summaries, by request ID.
    pub requests: Vec<RequestSummary>,
    /// Per-stage aggregates, by stage name.
    pub stages: Vec<StageStats>,
    /// Flagged anomalies.
    pub anomalies: Anomalies,
    /// Source meta lines from the input, in stream order.
    pub sources: Vec<SourceMeta>,
    /// Total span lines analyzed.
    pub span_count: usize,
}

/// Analyzes a parsed trace: builds the per-request trees, attributes
/// self time, aggregates stages, and flags anomalies.
pub fn analyze(set: &TraceSet) -> Report {
    let mut by_request: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for span in &set.spans {
        by_request.entry(span.request).or_default().push(span);
    }

    let mut requests = Vec::with_capacity(by_request.len());
    let mut anomalies = Anomalies::default();
    for (&request, spans) in &by_request {
        // Duplicate span IDs cannot happen within one process (atomic
        // allocation) and processes are namespaced, so the ID set keys
        // the tree.
        let ids: BTreeSet<u64> = spans.iter().map(|s| s.span).collect();
        let mut child_dur: BTreeMap<u64, u64> = BTreeMap::new();
        let mut orphans = 0usize;
        for s in spans.iter() {
            if s.parent != 0 {
                if ids.contains(&s.parent) {
                    *child_dur.entry(s.parent).or_default() += s.dur_us;
                } else {
                    orphans += 1;
                    anomalies.orphans.push(Orphan {
                        request,
                        span: s.span,
                        parent: s.parent,
                        stage: s.stage.clone(),
                    });
                }
            }
        }
        // Self time per stage: a span's duration minus its direct
        // children's. Saturating, because a child measured in another
        // process can slightly outlast its parent's measurement window.
        let mut stage_self: BTreeMap<&str, u64> = BTreeMap::new();
        let mut attributed_us = 0u64;
        let mut forwards = 0usize;
        for s in spans.iter() {
            let children = child_dur.get(&s.span).copied().unwrap_or(0);
            let self_us = s.dur_us.saturating_sub(children);
            *stage_self.entry(s.stage.as_str()).or_default() += self_us;
            attributed_us += self_us;
            if s.stage == Stage::ClusterForward.name() {
                forwards += 1;
            }
        }
        let (dominant_stage, dominant_us) = stage_self
            .iter()
            .max_by_key(|(stage, us)| (**us, std::cmp::Reverse(*stage)))
            .map(|(stage, us)| ((*stage).to_string(), *us))
            .unwrap_or_default();
        if forwards >= 2 {
            anomalies.failover_requests.push(request);
        }
        requests.push(RequestSummary {
            request,
            spans: spans.len(),
            attributed_us,
            dominant_stage,
            dominant_us,
            forwards,
            orphans,
        });
    }

    let mut by_stage: BTreeMap<&str, Histogram> = BTreeMap::new();
    for span in &set.spans {
        by_stage.entry(span.stage.as_str()).or_default().record(span.dur_us);
    }
    let stages = by_stage
        .into_iter()
        .map(|(stage, h)| StageStats {
            stage: stage.to_string(),
            count: h.count(),
            p50_us: h.quantile(0.5),
            p95_us: h.quantile(0.95),
            p99_us: h.quantile(0.99),
            total_us: h.sum(),
        })
        .collect();

    for source in &set.sources {
        if source.dropped > 0 {
            anomalies.dropped_sources.push((source.node.clone(), source.dropped));
        }
    }

    Report {
        requests,
        stages,
        anomalies,
        sources: set.sources.clone(),
        span_count: set.spans.len(),
    }
}

/// How many per-request lines the text report prints before eliding.
const TEXT_REQUEST_CAP: usize = 20;

impl Report {
    /// The human-readable report.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "hbc-trace: {} spans, {} requests, {} sources",
            self.span_count,
            self.requests.len(),
            self.sources.len()
        );
        for source in &self.sources {
            let _ = writeln!(
                out,
                "  source {}: {} spans retained, {} dropped",
                source.node, source.retained, source.dropped
            );
        }

        let _ = writeln!(out, "\nper-request critical path");
        for r in self.requests.iter().take(TEXT_REQUEST_CAP) {
            let pct = (r.dominant_us * 100).checked_div(r.attributed_us).unwrap_or(0);
            let mut line = format!(
                "  request {}: {} spans, {}us attributed; dominant {} ({}us, {pct}%)",
                r.request, r.spans, r.attributed_us, r.dominant_stage, r.dominant_us
            );
            if r.forwards >= 2 {
                line.push_str(&format!(" [failover: {} forwards]", r.forwards));
            }
            if r.orphans > 0 {
                line.push_str(&format!(" [{} orphans]", r.orphans));
            }
            let _ = writeln!(out, "{line}");
        }
        if self.requests.len() > TEXT_REQUEST_CAP {
            let _ =
                writeln!(out, "  … and {} more requests", self.requests.len() - TEXT_REQUEST_CAP);
        }

        let _ = writeln!(out, "\nper-stage latency (us)");
        let _ = writeln!(
            out,
            "  {:<28} {:>6} {:>8} {:>8} {:>8} {:>10}",
            "stage", "count", "p50", "p95", "p99", "total"
        );
        for s in &self.stages {
            let _ = writeln!(
                out,
                "  {:<28} {:>6} {:>8} {:>8} {:>8} {:>10}",
                s.stage, s.count, s.p50_us, s.p95_us, s.p99_us, s.total_us
            );
        }

        let _ = writeln!(out, "\nanomalies");
        let _ = writeln!(out, "  orphan spans: {}", self.anomalies.orphans.len());
        for o in self.anomalies.orphans.iter().take(10) {
            let _ = writeln!(
                out,
                "    request {} span {} ({}) has no parent {} in the trace",
                o.request, o.span, o.stage, o.parent
            );
        }
        if self.anomalies.failover_requests.is_empty() {
            let _ = writeln!(out, "  failover retries: none");
        } else {
            let ids: Vec<String> =
                self.anomalies.failover_requests.iter().map(u64::to_string).collect();
            let _ = writeln!(out, "  failover retries: requests {}", ids.join(", "));
        }
        if self.anomalies.dropped_sources.is_empty() {
            let _ = writeln!(out, "  drop gaps: none (every ring exported complete)");
        } else {
            for (node, dropped) in &self.anomalies.dropped_sources {
                let _ =
                    writeln!(out, "  drop gap: {node} evicted {dropped} spans (trace truncated)");
            }
        }
        out
    }

    /// The stable machine-readable schema (`--format json`), built on the
    /// canonical JSON renderer. `version` increments on breaking change.
    pub fn to_json(&self) -> String {
        let requests = self
            .requests
            .iter()
            .map(|r| {
                obj([
                    ("request", Json::U64(r.request)),
                    ("spans", Json::U64(r.spans as u64)),
                    ("attributed_us", Json::U64(r.attributed_us)),
                    ("dominant_stage", Json::Str(r.dominant_stage.clone())),
                    ("dominant_us", Json::U64(r.dominant_us)),
                    ("forwards", Json::U64(r.forwards as u64)),
                    ("orphans", Json::U64(r.orphans as u64)),
                ])
            })
            .collect();
        let stages = self
            .stages
            .iter()
            .map(|s| {
                obj([
                    ("stage", Json::Str(s.stage.clone())),
                    ("count", Json::U64(s.count)),
                    ("p50_us", Json::U64(s.p50_us)),
                    ("p95_us", Json::U64(s.p95_us)),
                    ("p99_us", Json::U64(s.p99_us)),
                    ("total_us", Json::U64(s.total_us)),
                ])
            })
            .collect();
        let orphans = self
            .anomalies
            .orphans
            .iter()
            .map(|o| {
                obj([
                    ("request", Json::U64(o.request)),
                    ("span", Json::U64(o.span)),
                    ("parent", Json::U64(o.parent)),
                    ("stage", Json::Str(o.stage.clone())),
                ])
            })
            .collect();
        let failovers = self.anomalies.failover_requests.iter().map(|&r| Json::U64(r)).collect();
        let dropped = self
            .anomalies
            .dropped_sources
            .iter()
            .map(|(node, n)| obj([("node", Json::Str(node.clone())), ("dropped", Json::U64(*n))]))
            .collect();
        let sources = self
            .sources
            .iter()
            .map(|s| {
                obj([
                    ("node", Json::Str(s.node.clone())),
                    ("dropped", Json::U64(s.dropped)),
                    ("retained", Json::U64(s.retained)),
                ])
            })
            .collect();
        obj([
            ("version", Json::U64(1)),
            ("tool", Json::Str("hbc-trace".to_string())),
            ("span_count", Json::U64(self.span_count as u64)),
            ("requests", Json::Arr(requests)),
            ("stages", Json::Arr(stages)),
            (
                "anomalies",
                obj([
                    ("orphans", Json::Arr(orphans)),
                    ("failover_requests", Json::Arr(failovers)),
                    ("dropped_sources", Json::Arr(dropped)),
                ]),
            ),
            ("sources", Json::Arr(sources)),
        ])
        .render()
    }
}

/// A JSON object from key/value pairs (keys sort on render).
fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(request: u64, span: u64, parent: u64, stage: &str, start: u64, dur: u64) -> String {
        format!(
            "{{\"request\":{request},\"span\":{span},\"parent\":{parent},\
             \"stage\":\"{stage}\",\"start_us\":{start},\"dur_us\":{dur}}}\n"
        )
    }

    /// A two-process trace: coordinator request 1 forwards to a worker
    /// whose spans carry the same request ID and hang under span 2.
    fn federated_fixture() -> TraceSet {
        let mut jsonl = String::new();
        jsonl
            .push_str("{\"trace_meta\":1,\"node\":\"coordinator\",\"dropped\":0,\"retained\":3}\n");
        jsonl.push_str(&line(1, 10, 0, "serve.queue_wait", 0, 30));
        jsonl.push_str(&line(1, 11, 0, "serve.parse", 30, 20));
        jsonl.push_str(&line(1, 2, 0, "cluster.forward", 50, 1000));
        jsonl.push_str(
            "{\"trace_meta\":1,\"node\":\"127.0.0.1:9101\",\"dropped\":0,\"retained\":3}\n",
        );
        let base = 9101u64 << 32;
        jsonl.push_str(&line(1, base + 1, 2, "cluster.worker_execute", 7, 950));
        jsonl.push_str(&line(1, base + 2, base + 1, "serve.cache_lookup", 8, 40));
        jsonl.push_str(&line(1, base + 3, base + 1, "serve.simulate", 50, 880));
        TraceSet::parse_jsonl(&jsonl).expect("fixture parses")
    }

    #[test]
    fn federated_trace_stitches_into_one_tree() {
        let report = analyze(&federated_fixture());
        assert_eq!(report.requests.len(), 1, "one request across both processes");
        let r = &report.requests[0];
        assert_eq!(r.request, 1);
        assert_eq!(r.spans, 6);
        assert_eq!(r.orphans, 0);
        assert!(report.anomalies.orphans.is_empty());
        // Self time: simulate 880 dominates (forward keeps 1000-950=50,
        // worker_execute keeps 950-40-880=30).
        assert_eq!(r.dominant_stage, "serve.simulate");
        assert_eq!(r.dominant_us, 880);
        assert_eq!(r.attributed_us, 30 + 20 + 50 + 30 + 40 + 880);
    }

    #[test]
    fn orphans_and_failovers_are_flagged() {
        let mut jsonl = String::new();
        jsonl.push_str(&line(5, 20, 0, "cluster.forward", 0, 100));
        jsonl.push_str(&line(5, 21, 0, "cluster.forward", 100, 200));
        jsonl.push_str(&line(5, 22, 999, "serve.simulate", 10, 50));
        let report = analyze(&TraceSet::parse_jsonl(&jsonl).unwrap());
        assert_eq!(report.anomalies.failover_requests, [5]);
        assert_eq!(report.anomalies.orphans.len(), 1);
        assert_eq!(report.anomalies.orphans[0].parent, 999);
        assert_eq!(report.requests[0].forwards, 2);
        assert_eq!(report.requests[0].orphans, 1);
        // The orphan still contributes its own self time.
        assert_eq!(report.requests[0].attributed_us, 350);
    }

    #[test]
    fn drop_gaps_come_from_meta_lines() {
        let jsonl = "{\"trace_meta\":1,\"node\":\"127.0.0.1:9101\",\"dropped\":7,\"retained\":0}\n";
        let report = analyze(&TraceSet::parse_jsonl(jsonl).unwrap());
        assert_eq!(report.anomalies.dropped_sources, [("127.0.0.1:9101".to_string(), 7)]);
        assert_eq!(report.sources.len(), 1);
    }

    #[test]
    fn stage_aggregates_use_durations() {
        let mut jsonl = String::new();
        for (i, dur) in [100u64, 200, 300].iter().enumerate() {
            jsonl.push_str(&line(i as u64 + 1, 50 + i as u64, 0, "serve.parse", 0, *dur));
        }
        let report = analyze(&TraceSet::parse_jsonl(&jsonl).unwrap());
        assert_eq!(report.stages.len(), 1);
        let s = &report.stages[0];
        assert_eq!((s.stage.as_str(), s.count, s.total_us), ("serve.parse", 3, 600));
        assert!(s.p50_us >= 100 && s.p99_us >= s.p50_us);
    }

    #[test]
    fn malformed_lines_error_with_their_number() {
        let err = TraceSet::parse_jsonl("\n{\"request\":1}\n").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        let err = TraceSet::parse_jsonl("not json\n").unwrap_err();
        assert!(err.starts_with("line 1:"), "{err}");
    }

    #[test]
    fn json_report_is_schema_stamped_and_parseable() {
        let report = analyze(&federated_fixture());
        let text = report.to_json();
        let v = Json::parse(&text).expect("report is valid JSON");
        let top = v.as_obj().unwrap();
        assert_eq!(top["version"].as_u64(), Some(1));
        assert_eq!(top["tool"].as_str(), Some("hbc-trace"));
        assert_eq!(top["span_count"].as_u64(), Some(6));
        let anomalies = top["anomalies"].as_obj().unwrap();
        assert_eq!(anomalies["orphans"], Json::Arr(Vec::new()));
    }

    #[test]
    fn text_report_mentions_the_critical_path() {
        let text = analyze(&federated_fixture()).to_text();
        assert!(text.contains("dominant serve.simulate"), "{text}");
        assert!(text.contains("orphan spans: 0"), "{text}");
        assert!(text.contains("source 127.0.0.1:9101"), "{text}");
    }
}
