//! Static analysis for the hbcache workspace.
//!
//! The simulator's core contract — every simulation is a pure function of
//! (configuration, seed), served by a process that never deadlocks and
//! never silently drops a counter — is not something the compiler checks.
//! This crate checks what the type system cannot, with the rules in
//! [`RULES`] over a small semantic model of the workspace:
//!
//! * [`lexer`] turns each file into a token stream with line numbers and
//!   brace-nesting depth;
//! * [`model`] extracts functions, impls, struct fields, and
//!   conservatively resolved intra-crate call edges, plus a per-crate
//!   symbol table;
//! * [`source`] remains the line model: `hbc-allow` annotations,
//!   `#[cfg(test)]` boundaries, and test-tree marking.
//!
//! The rules themselves are listed in [`RULES`] — the single source of
//! truth for rule names, one-line summaries, and the long explanations
//! behind `hbc-analyze explain <rule>`. See each rule module under
//! [`rules`] for the full story.
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
        name: "determinism",
        summary: "no nondeterministic collections, wall clocks, or ambient RNGs in sim crates",
        explain: "Simulation-state crates must not use HashMap/HashSet (randomized iteration \
                  order), Instant/SystemTime/std::time (wall clock), or rand/thread_rng \
                  (unseeded RNG). A simulation is a pure function of (config, seed); any of \
                  these can silently break reproducibility. Use BTreeMap/BTreeSet, simulated \
                  cycles, and the seeded workload RNG instead.",
    },
    RuleInfo {
        name: "exec-merge",
        summary: "no Mutex/RwLock/channel result merging in simulation crates",
        explain: "The parallel experiment engine guarantees bit-identical output by collecting \
                  (cell index, result) pairs and writing slots after the join. Mutex/RwLock \
                  accumulators, Condvar wakeups, and mpsc channels order results by arrival — \
                  host-scheduling nondeterminism the engine exists to exclude. Scheduling-only \
                  atomics remain fine: they never carry results.",
    },
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
        name: "config-validate",
        summary: "every *Config struct has a validate() that the crate actually calls",
        explain: "A config struct without a checked validate() is how impossible cache \
                  geometries (zero banks, non-power-of-two lines) sneak into simulations and \
                  produce garbage numbers instead of errors. The rule requires an inherent \
                  `fn validate` per *Config struct and at least one non-test `.validate()` \
                  call in the crate.",
    },
    RuleInfo {
        name: "panic",
        summary: "unwrap/expect/panic! sites in gated crates held to a shrinking baseline",
        explain: "Non-test unwrap()/expect()/panic!-family sites in the gated crates are \
                  counted per crate against crates/analyze/panic_baseline.txt. The gate is \
                  one-directional: counts may only go down, and `hbc-analyze baseline` \
                  re-tightens the file after a genuine reduction. Plain assert! is not \
                  counted — assertions state contracts; the rule targets panicking error \
                  handling.",
    },
    RuleInfo {
        name: "probe-naming",
        summary: "literal probe names are hierarchical dotted lowercase and globally unique",
        explain: "The probe registry is one flat namespace shared by every crate; a typo'd or \
                  colliding name silently splits (or merges) a statistic instead of failing. \
                  Literal names at counter(\"…\")/histogram(\"…\") sites must match \
                  ^[a-z0-9_]+(\\.[a-z0-9_]+)+$ and be registered from exactly one source site. \
                  Runtime-built names are covered by the registry's own validation assert.",
    },
    RuleInfo {
        name: "serve-io-panic",
        summary: "no bare unwrap/expect on socket or filesystem operations in the serving \
                  crates (hbc-serve, hbc-cluster)",
        explain: "The services are long-lived processes handling untrusted input over real \
                  sockets: connection resets, full disks, and dropped cache files are expected \
                  conditions, and an unwrap on any of them kills a worker instead of producing \
                  a 4xx/5xx, a degraded cache, or a failover. Statements that touch \
                  socket/filesystem I/O must propagate typed errors. No baseline: a hit is \
                  always a finding.",
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
    RuleInfo {
        name: "probe-coverage",
        summary: "probe registrations must be used and probe reads must name a registered probe",
        explain: "A counter registered but never incremented reads zero in /metrics forever; \
                  a read of a name nothing registers silently yields nothing. The rule \
                  cross-references every literal probe name in the workspace: registration \
                  sites (counter(\"…\")/histogram(\"…\")) must write through the handle \
                  (.inc/.add/.set/.record) or bind it for later writes, exact reads \
                  (get(\"…\")/get_histogram(\"…\")) and prefix reads (scoped(\"…\")) must \
                  match a registered name, and a name must not be registered as a counter \
                  but read as a histogram (or vice versa). Runtime-built names are outside \
                  the scan; audit those reads with hbc-allow.",
    },
    RuleInfo {
        name: "cast-truncation",
        summary: "no narrowing `as` casts on cycle/address/stat values in sim crates",
        explain: "A cycle count, address, or statistic squeezed through `as u32` (or \
                  narrower) truncates silently at scale — exactly the bug class the Cycle/\
                  Addr newtypes exist to prevent. In simulation-state crates, a narrowing \
                  `as` cast whose source expression mentions a cycle/address/stat-ish \
                  identifier is a finding. Fix by keeping the value in its newtype or u64, \
                  converting with u64::from/try_from at the boundary, or auditing a \
                  genuinely bounded cast with hbc-allow.",
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

/// Crates that hold simulation state and are subject to the determinism
/// rules. `hbc-bench` (reporting, wall-clock benchmarks), `hbc-ptest`
/// (test harness), and this crate are deliberately outside the contract.
pub const SIM_CRATES: &[&str] =
    &["hbc-timing", "hbc-isa", "hbc-workloads", "hbc-mem", "hbc-cpu", "hbc-core", "hbc-probe"];

/// Crates gated by the panic-path baseline: the simulation crates plus the
/// long-lived / user-facing processes (`hbc-bench` binaries, the `hbc-serve`
/// service), where an `unwrap` turns a bad input or full disk into an abort.
/// `hbc-ptest` and this crate stay exempt (test harness and dev tool).
pub const PANIC_CRATES: &[&str] = &[
    "hbc-timing",
    "hbc-isa",
    "hbc-workloads",
    "hbc-mem",
    "hbc-cpu",
    "hbc-core",
    "hbc-probe",
    "hbc-bench",
    "hbc-serve",
    "hbc-cluster",
];

/// Crates whose locking is held to the `lock-discipline` rule: the
/// long-lived servers and the parallel execution engine's home crate.
pub const LOCK_CRATES: &[&str] = &["hbc-serve", "hbc-cluster", "hbc-core"];

/// Runs every rule over `files`; findings are sorted by path and line.
pub fn run_all(
    files: &[source::SourceFile],
    baseline: &rules::panic_path::Baseline,
) -> Vec<Finding> {
    let model = model::Model::build(files);
    let mut findings = Vec::new();
    findings.extend(rules::determinism::check(&model));
    findings.extend(rules::exec_merge::check(&model));
    findings.extend(rules::units::check(&model));
    findings.extend(rules::config_validate::check(&model));
    findings.extend(rules::panic_path::check(&model, baseline));
    findings.extend(rules::probe_naming::check(&model));
    findings.extend(rules::serve_io_panic::check(&model));
    findings.extend(rules::lock_discipline::check(&model));
    findings.extend(rules::probe_coverage::check(&model));
    findings.extend(rules::cast_truncation::check(&model));
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
///   "rules": ["determinism", …],
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
        assert_eq!(RULES.len(), 10);
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
