//! The analyzer's own acceptance test: the workspace it lives in is clean.
//!
//! This makes `cargo test` equivalent to `cargo run -p hbc-analyze -- check`
//! so a rule violation fails CI even if the standalone check step is
//! skipped.

use hbc_analyze::{run_all, workspace};
use std::path::Path;

#[test]
fn workspace_has_no_findings() {
    let root = workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let files = workspace::scan(&root).expect("scan workspace");
    assert!(files.len() > 50, "scan looks truncated: only {} files", files.len());
    let findings = run_all(&files);
    assert!(
        findings.is_empty(),
        "hbc-analyze findings:\n{}",
        findings.iter().map(|f| format!("  {f}\n")).collect::<String>()
    );
}
