//! `hbc-analyze` CLI.
//!
//! * `cargo run -p hbc-analyze -- check` — run all rules; exit 1 on
//!   findings. `--format json` prints the stable JSON schema instead of
//!   text; `--output <file>` writes the JSON there *in addition to* the
//!   text findings on stdout (how CI gets both problem-matcher lines and
//!   an `analyze.json` artifact from one run).
//! * `cargo run -p hbc-analyze -- baseline` — rewrite the panic-path
//!   baseline from the current source (use after reducing panic sites).
//! * `cargo run -p hbc-analyze -- explain <rule>` — print a rule's full
//!   explanation; with no rule, list them all.
//! * `cargo run -p hbc-analyze -- allows` — list every `hbc-allow` /
//!   `hbc-allow-file` audit site with its justification; exits 1 if any
//!   site lacks one.
//!
//! All commands accept an optional `--root <dir>`; by default the
//! workspace root is found by walking up from the current directory.

use hbc_analyze::model::Model;
use hbc_analyze::rules::panic_path::{self, Baseline};
use hbc_analyze::{findings_to_json, rule_info, run_all, workspace, RULES};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: hbc-analyze <check|baseline|explain|allows> \
                     [--root <dir>] [--format json] [--output <file>] [rule]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut root = None;
    let mut json = false;
    let mut output = None;
    let mut rule_arg = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" if i + 1 < args.len() => {
                root = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--format" if i + 1 < args.len() => {
                if args[i + 1] != "json" {
                    eprintln!("hbc-analyze: unknown format `{}` (only `json`)", args[i + 1]);
                    return ExitCode::from(2);
                }
                json = true;
                i += 2;
            }
            "--output" if i + 1 < args.len() => {
                output = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "check" | "baseline" | "explain" | "allows" if cmd.is_none() => {
                cmd = Some(args[i].clone());
                i += 1;
            }
            other if cmd.as_deref() == Some("explain") && rule_arg.is_none() => {
                rule_arg = Some(other.to_string());
                i += 1;
            }
            other => {
                eprintln!("hbc-analyze: unexpected argument `{other}`");
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(cmd) = cmd else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    // `explain` needs no workspace scan.
    if cmd == "explain" {
        return explain(rule_arg.as_deref());
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().expect("current directory");
            match workspace::find_root(&cwd) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("hbc-analyze: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    };
    let files = match workspace::scan(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("hbc-analyze: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline_path = root.join("crates/analyze/panic_baseline.txt");

    match cmd.as_str() {
        "baseline" => {
            let model = Model::build(&files);
            let (counts, _) = panic_path::count_sites(&model);
            let text = counts.iter().fold(String::new(), |mut s, (k, v)| {
                s.push_str(&format!("{k} {v}\n"));
                s
            });
            let baseline = Baseline::parse(&text);
            if let Err(e) = std::fs::write(&baseline_path, baseline.render()) {
                eprintln!("hbc-analyze: cannot write {}: {e}", baseline_path.display());
                return ExitCode::from(2);
            }
            println!("wrote {}", baseline_path.display());
            for (k, v) in &counts {
                println!("  {k} {v}");
            }
            ExitCode::SUCCESS
        }
        "allows" => allows(&files),
        "check" => {
            let baseline = match std::fs::read_to_string(&baseline_path) {
                Ok(text) => Baseline::parse(&text),
                Err(e) => {
                    eprintln!(
                        "hbc-analyze: missing panic baseline {}: {e} (run `hbc-analyze baseline`)",
                        baseline_path.display()
                    );
                    return ExitCode::from(2);
                }
            };
            let findings = run_all(&files, &baseline);
            let scanned = files.len();
            let rendered = findings_to_json(&findings, scanned);
            if let Some(out_path) = &output {
                if let Err(e) = std::fs::write(out_path, &rendered) {
                    eprintln!("hbc-analyze: cannot write {}: {e}", out_path.display());
                    return ExitCode::from(2);
                }
            }
            if json {
                println!("{rendered}");
                return if findings.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
            }
            if findings.is_empty() {
                let model = Model::build(&files);
                let (counts, _) = panic_path::count_sites(&model);
                println!("hbc-analyze: {scanned} files clean ({} rules)", RULES.len());
                for (k, v) in &counts {
                    let allowed = baseline.allowed(k);
                    if *v < allowed {
                        println!(
                            "note: {k} has {v} panic sites, below baseline {allowed} — \
                             tighten with `hbc-analyze baseline`"
                        );
                    }
                }
                ExitCode::SUCCESS
            } else {
                for f in &findings {
                    println!("{f}");
                }
                println!("hbc-analyze: {} finding(s) in {scanned} files", findings.len());
                ExitCode::FAILURE
            }
        }
        _ => unreachable!(),
    }
}

/// `explain <rule>`: the rule's full explanation; bare `explain` lists all.
fn explain(rule: Option<&str>) -> ExitCode {
    match rule {
        None => {
            println!("hbc-analyze rules ({}):", RULES.len());
            for r in RULES {
                println!("  {:<16} {}", r.name, r.summary);
            }
            println!("\nrun `hbc-analyze explain <rule>` for the full explanation");
            ExitCode::SUCCESS
        }
        Some(name) => match rule_info(name) {
            Some(r) => {
                println!("{} — {}\n", r.name, r.summary);
                println!("{}", r.explain);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("hbc-analyze: unknown rule `{name}`; known rules:");
                for r in RULES {
                    eprintln!("  {}", r.name);
                }
                ExitCode::from(2)
            }
        },
    }
}

/// `allows`: every audit site in the workspace, with its justification.
/// A site with no written justification is an error — the audit trail is
/// the point of the annotation.
fn allows(files: &[hbc_analyze::source::SourceFile]) -> ExitCode {
    let mut total = 0usize;
    let mut unjustified = 0usize;
    for file in files {
        for ann in &file.annotations {
            total += 1;
            let scope = if ann.file_level { "file" } else { "line" };
            let justification = if ann.justification.is_empty() {
                unjustified += 1;
                "<NO JUSTIFICATION>"
            } else {
                ann.justification.as_str()
            };
            println!(
                "{}:{}: [{scope}] {} {justification}",
                file.path.display(),
                ann.line,
                ann.rules.join(", "),
            );
        }
    }
    println!("hbc-analyze: {total} allow site(s), {unjustified} without justification");
    if unjustified > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
