//! A tiny-size pass of every workload, untraced and traced, must emit
//! every metric `BENCHMARK.json` names, with its unit, and report its
//! answers correct.

use serde::Value;
use std::process::Command;

fn names_and_units(bench: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Array(metrics)) = bench.get(key) else {
        panic!("BENCHMARK.json has no {key}");
    };
    metrics
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n.clone(), u.clone()),
            _ => panic!("metric without name or unit: {m:?}"),
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric_at_tiny_size() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/..");
    let bench: Value =
        serde_json::from_str(&std::fs::read_to_string(format!("{root}/BENCHMARK.json")).unwrap())
            .unwrap();
    let Some(Value::Array(workloads)) = bench.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    for workload in workloads {
        let Some(Value::Str(name)) = workload.get("name") else {
            panic!("workload without a name");
        };
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", name, "--seed", "5", "--seconds", "1"])
                .args(["--trace", trace, "--size", "tiny"])
                .current_dir(root)
                .output()
                .expect("run perfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{name} --trace {trace} failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result: Value = serde_json::from_str(last).expect("the last line is JSON");
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{last}");
            assert_eq!(result.get("failed"), Some(&Value::Int(0)), "{last}");
            let metrics = result.get("metrics").expect("metrics");
            for (metric, unit) in names_and_units(&bench, key) {
                let m = metrics
                    .get(&metric)
                    .unwrap_or_else(|| panic!("{name} --trace {trace} lacks {metric}: {last}"));
                assert_eq!(m.get("unit"), Some(&Value::Str(unit)), "{name} {metric}");
                assert!(
                    matches!(m.get("value"), Some(Value::Float(v)) if v.is_finite()),
                    "{name} {metric} is not a finite number: {last}"
                );
            }
        }
    }
}
