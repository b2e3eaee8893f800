//! Runs every workload briefly, untraced and traced, against the real
//! release binaries, and checks each result line against the contract:
//! exactly the metrics `BENCHMARK.json` declares for the mode, each with
//! its unit, and no failed request.

use std::process::Command;

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Value;

const WORKLOADS: [&str; 4] = ["cold_fig6", "cold_fig3", "serve_mix", "cluster_mix"];

fn declared(list: &str) -> Vec<(String, String)> {
    let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let Some(Value::Arr(entries)) = doc.get(list) else { panic!("no {list} list") };
    entries
        .iter()
        .map(|e| match (e.get("name"), e.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("malformed {list} entry {e:?}"),
        })
        .collect()
}

#[test]
fn quick_runs_emit_exactly_the_declared_metrics() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    for trace in ["0", "1"] {
        let want = declared(if trace == "0" { "end_to_end" } else { "per_layer" });
        for w in WORKLOADS {
            let out = Command::new(env!("CARGO_BIN_EXE_hbc-benchmark"))
                .args(["--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace])
                .arg("--quick")
                .current_dir(root)
                .output()
                .expect("benchmark runs");
            assert!(
                out.status.success(),
                "{w} trace {trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().expect("a result line");
            let result = json::parse(line).expect("the result line is JSON");
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{w}: {line}");
            assert_eq!(result.get("failed"), Some(&Value::Num(0.0)), "{w}: {line}");
            assert!(result.get("attempted").and_then(Value::as_f64).is_some_and(|n| n >= 1.0));
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("{w}: no metrics")
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| match (m.get("value"), m.get("unit")) {
                    (Some(Value::Num(v)), Some(Value::Str(u))) if v.is_finite() => {
                        (name.clone(), u.clone())
                    }
                    _ => panic!("{w}: metric {name} is not a number with a unit: {m:?}"),
                })
                .collect();
            assert_eq!(got, want, "{w} trace {trace}");
            for clean in ["serve.span_dropped", "cluster.orphans", "cluster.failovers"] {
                if let Some(m) = result.get("metrics").and_then(|ms| ms.get(clean)) {
                    assert_eq!(m.get("value"), Some(&Value::Num(0.0)), "{w}: {clean}");
                }
            }
        }
    }
}
