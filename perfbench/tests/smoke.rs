//! Smoke run of every workload at a tiny size, plain and traced: every
//! metric `BENCHMARK.json` names prints with its declared unit, both on its
//! own line and in the JSON result, and no operation fails.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of every entry in one array of `BENCHMARK.json`, which
/// keeps one entry per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let spec =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json beside the benchmark directory");
    let start = spec
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|line| {
            Some((
                field(line, "name")?,
                field(line, "unit").unwrap_or_default(),
            ))
        })
        .collect()
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    let workloads = declared("workloads");
    assert_eq!(workloads.len(), 4);
    for (workload, _) in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .args(["--keys", "20000", "--sweep", "20000", "--setups", "1"])
                .arg("--out-dir")
                .arg(&out_dir)
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace}: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = stdout.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\":true,") && result.contains("\"failed\":0,"),
                "{workload} trace {trace}: {result}"
            );
            assert!(
                stdout.contains("\nmetric error_rate 0 ratio"),
                "{workload}: error_rate\n{stdout}"
            );
            let metrics = declared(section);
            assert!(!metrics.is_empty());
            for (name, unit) in metrics {
                let json = format!("\"{name}\":{{\"value\":");
                let at = result.find(&json).unwrap_or_else(|| {
                    panic!("{workload} trace {trace}: {name} missing from {result}")
                });
                let entry = &result[at..at + result[at..].find('}').expect("entry closes")];
                assert!(
                    entry.ends_with(&format!("\"unit\":\"{unit}\"")),
                    "{name}: {entry}"
                );
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("metric {name} "))
                            && l.contains(&format!(" {unit}"))),
                    "{workload} trace {trace}: no line for {name} in {unit}"
                );
            }
        }
    }
}
