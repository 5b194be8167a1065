//! Quick-mode runs of every workload, untraced and traced: each must
//! exit 0, report zero failed operations, and emit exactly the metric
//! names `BENCHMARK.json` lists for that mode.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark dir has a parent")
        .to_path_buf()
}

/// The `"name"` values inside the JSON array that follows `"<key>":`.
fn names_in(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key} in json"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| {
            let s = &s[s.find('"').unwrap() + 1..];
            s[..s.find('"').unwrap()].to_string()
        })
        .collect()
}

/// The metric names in a result line, in order: each is the last
/// quoted string before a `: {"value"`.
fn metric_names(line: &str) -> Vec<String> {
    let m = &line[line.find("\"metrics\"").expect("metrics key")..];
    let parts: Vec<&str> = m.split(": {\"value\"").collect();
    parts[..parts.len() - 1]
        .iter()
        .map(|s| {
            let end = s.rfind('"').expect("closing quote");
            let start = s[..end].rfind('"').expect("opening quote") + 1;
            s[start..end].to_string()
        })
        .collect()
}

#[test]
fn quick_runs_emit_every_metric_with_no_failures() {
    let root = repo_root();
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads = names_in(&spec, "workloads");
    assert!(workloads.len() >= 2, "{workloads:?}");
    for wl in &workloads {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    wl,
                    "--seed",
                    "3",
                    "--seconds",
                    "2",
                    "--trace",
                    trace,
                    "--quick",
                ])
                .current_dir(&root)
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{wl} trace={trace}: {:?}\n{stdout}\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            let line = stdout.lines().last().expect("a result line");
            assert!(line.starts_with("{\"correct\": true,"), "{line}");
            assert!(line.contains("\"failed\": 0,"), "{line}");
            let mut got = metric_names(line);
            let mut want = names_in(&spec, key);
            got.sort();
            want.sort();
            assert_eq!(got, want, "{wl} trace={trace}");
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [&["--workload", "udp", "--seed", "1"][..], &["--seed", "1"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .current_dir(repo_root())
            .output()
            .expect("run perfbench");
        assert!(!out.status.success());
        assert!(out.stdout.is_empty());
    }
}
