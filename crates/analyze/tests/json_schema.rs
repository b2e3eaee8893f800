//! Snapshot test pinning the `--format json` schema consumed by CI.
//!
//! The `analyze.json` artifact is schema version 1; anything that changes
//! the rendered shape below is a breaking change for consumers and must
//! bump `version` (and this snapshot) deliberately.

use hbc_analyze::{findings_to_json, Finding, RULES};
use std::path::PathBuf;

#[test]
fn schema_v1_snapshot() {
    let findings = vec![
        Finding {
            rule: "determinism",
            path: PathBuf::from("crates/mem/src/lib.rs"),
            line: 12,
            message: "`HashMap` in hbc-mem: iteration order is randomized; use BTreeMap"
                .to_string(),
        },
        Finding {
            rule: "lock-discipline",
            path: PathBuf::from("crates/serve/src/server.rs"),
            line: 40,
            message: "escapes: quote \" backslash \\ newline \n tab \t".to_string(),
        },
    ];
    let expected = concat!(
        "{\"version\":1,",
        "\"rules\":[\"determinism\",\"exec-merge\",\"units\",\"config-validate\",\"panic\",",
        "\"probe-naming\",\"serve-io-panic\",\"lock-discipline\",\"probe-coverage\",",
        "\"cast-truncation\"],",
        "\"files_scanned\":126,",
        "\"findings\":[",
        "{\"rule\":\"determinism\",\"path\":\"crates/mem/src/lib.rs\",\"line\":12,",
        "\"message\":\"`HashMap` in hbc-mem: iteration order is randomized; use BTreeMap\"},",
        "{\"rule\":\"lock-discipline\",\"path\":\"crates/serve/src/server.rs\",\"line\":40,",
        "\"message\":\"escapes: quote \\\" backslash \\\\ newline \\n tab \\t\"}",
        "]}"
    );
    assert_eq!(findings_to_json(&findings, 126), expected);
}

#[test]
fn empty_findings_render_an_empty_array() {
    let json = findings_to_json(&[], 0);
    assert!(json.starts_with("{\"version\":1,"));
    assert!(json.ends_with("\"findings\":[]}"));
}

#[test]
fn rules_array_tracks_the_rules_table() {
    // The schema's `rules` field is derived from RULES; a rule added to
    // the table must show up in the JSON (and in this snapshot above).
    let json = findings_to_json(&[], 0);
    for rule in RULES {
        assert!(
            json.contains(&format!("\"{}\"", rule.name)),
            "rule {} missing from JSON rules array",
            rule.name
        );
    }
    assert_eq!(RULES.len(), 10);
}
