//! Static analysis for the hbcache workspace.
//!
//! Most of the simulator's contract is checked by the compiler. The
//! seven simulation crates link `crates/sim-clippy.toml` as their
//! `clippy.toml`, which disallows nondeterministic collections, wall
//! clocks and arrival-ordered merging (`Mutex`, `RwLock`, `Condvar`,
//! channels). Each gated crate's `[lints.clippy]` table denies `unwrap`,
//! `expect` and `panic!`, and the simulation crates also deny narrowing
//! casts. Audited exceptions there are `#[expect(…, reason = "…")]`.
//!
//! This crate checks the two rules in [`RULES`] that no compiler lint
//! expresses, over a small semantic model of the workspace:
//!
//! * [`lexer`] turns each file into a token stream with line numbers and
//!   brace-nesting depth;
//! * [`model`] extracts functions and conservatively resolved
//!   intra-crate call edges, plus a per-crate symbol table;
//! * [`source`] remains the line model: `hbc-allow` annotations,
//!   `#[cfg(test)]` boundaries, and test-tree marking.
//!
//! [`RULES`] is the single source of truth for rule names, one-line
//! summaries, and the long explanations behind `hbc-analyze explain
//! <rule>`. See each rule module under [`rules`] for the full story.
//!
//! Audited exceptions are written in the source as `// hbc-allow: <rule>
//! (justification)` (same line or the line above) or `// hbc-allow-file:
//! <rule>` for a whole file; `hbc-analyze allows` lists every such site
//! for review. Everything is dependency-free so the pass builds offline.
//!
//! Run it as `cargo run -p hbc-analyze -- check` (add `--format json` for
//! the machine-readable schema CI uploads).

#![warn(missing_docs)]

pub mod lexer;
pub mod model;
pub mod rules;
pub mod source;
pub mod workspace;

use std::fmt;
use std::path::PathBuf;

/// One analysis rule: its stable name, a one-line summary, and the long
/// explanation printed by `hbc-analyze explain <rule>`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// The rule name as used in findings, `hbc-allow` annotations, and
    /// the JSON output.
    pub name: &'static str,
    /// One-line summary (README rule table, `explain` listing).
    pub summary: &'static str,
    /// The full explanation: what fires, why it matters, how to fix or
    /// audit a finding.
    pub explain: &'static str,
}

/// Every rule, in the order `run_all` executes them. This table is the
/// single source of truth: the crate docs, the CLI's `explain`, the JSON
/// schema's `rules` array, and the README table all derive from it.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "units",
        summary: "public hbc-timing functions speak unit newtypes, not raw f64/u64",
        explain: "The paper's methodology depends on keeping FO4 delays, nanoseconds, and cycle \
                  counts distinct; a raw f64/u64 in a public hbc-timing signature is where they \
                  get confused. Constructors (new, from_*) and raw accessors (get) are exempt — \
                  they are the conversion boundary. Use Fo4/Nanoseconds/CacheSize or audit \
                  with hbc-allow.",
    },
    RuleInfo {
        name: "lock-discipline",
        summary: "no lock held across blocking I/O; no lock-order cycles (AB/BA deadlocks)",
        explain: "In the serving and execution crates, a mutex guard held across a blocking \
                  socket/filesystem call serializes the server on peer latency (one slow \
                  client wedges every thread wanting the lock), and two locks taken in \
                  opposite orders on different paths deadlock under contention. The rule \
                  tracks guard lifetimes through the semantic model (let-bound guards die at \
                  scope exit or drop(); temporaries at end of statement), follows resolved \
                  intra-crate call edges, flags blocking calls made while a guard is live, \
                  and reports any cycle in the per-crate lock-acquisition-order graph. Fix by \
                  shrinking critical sections (collect, drop, then do I/O) or by making every \
                  path acquire locks in one canonical order.",
    },
];

/// Looks up a rule by name in [`RULES`].
pub fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired — one of the names in [`RULES`].
    pub rule: &'static str,
    /// File the violation is in.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path.display(), self.line, self.rule, self.message)
    }
}

/// Crates whose locking is held to the `lock-discipline` rule: the
/// long-lived servers and the parallel execution engine's home crate.
pub const LOCK_CRATES: &[&str] = &["hbc-serve", "hbc-cluster", "hbc-core"];

/// Runs every rule over `files`; findings are sorted by path and line.
pub fn run_all(files: &[source::SourceFile]) -> Vec<Finding> {
    let model = model::Model::build(files);
    let mut findings = rules::units::check(&model);
    findings.extend(rules::lock_discipline::check(&model));
    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    findings
}

/// Escapes `s` for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders findings as the stable machine-readable schema consumed by CI
/// (uploaded as `analyze.json`). Schema, pinned by a snapshot test:
///
/// ```json
/// {
///   "version": 1,
///   "rules": ["units", "lock-discipline"],
///   "files_scanned": N,
///   "findings": [{"rule": …, "path": …, "line": N, "message": …}, …]
/// }
/// ```
///
/// `version` increments on any breaking change to this shape. Paths are
/// workspace-relative with forward slashes. Findings appear in the same
/// (path, line) order `run_all` returns.
pub fn findings_to_json(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::from("{\"version\":1,\"rules\":[");
    for (i, rule) in RULES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\"", rule.name));
    }
    out.push_str(&format!("],\"files_scanned\":{files_scanned},\"findings\":["));
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let path = f.path.to_string_lossy().replace('\\', "/");
        out.push_str(&format!(
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            json_escape(f.rule),
            json_escape(&path),
            f.line,
            json_escape(&f.message)
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_table_is_complete_and_consistent() {
        assert_eq!(RULES.len(), 2);
        // Names are unique, kebab-case, and resolvable.
        for (i, rule) in RULES.iter().enumerate() {
            assert!(rule.name.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
            assert!(rule_info(rule.name).is_some());
            assert!(RULES[..i].iter().all(|prev| prev.name != rule.name));
            assert!(!rule.summary.is_empty() && !rule.explain.is_empty());
        }
        assert!(rule_info("no-such-rule").is_none());
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
