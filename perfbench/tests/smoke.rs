//! Smoke run at n = 64: every workload, untraced and traced, passes its
//! correctness checks and emits exactly the metrics `BENCHMARK.json`
//! declares, each with its declared unit.

use std::path::PathBuf;

use bncg_telemetry::json::{self, Json};
use perfbench::{repo_root, run, Opts, Workload, END_TO_END, PER_LAYER};

/// `(name, unit)` of every entry in one `BENCHMARK.json` metric list.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {list}"))
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_the_emitted_metrics() {
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
}

#[test]
fn exercised_layers_are_declared_metrics() {
    for workload in Workload::ALL {
        assert!(!workload.exercised().is_empty(), "{}", workload.name());
        for name in workload.exercised() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "{}: {name} is not a per-layer metric",
                workload.name()
            );
        }
    }
}

#[test]
fn every_workload_passes_its_checks_and_emits_every_metric() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Opts {
                workload,
                seed: 7,
                seconds: 0.0,
                trace,
                smoke: true,
                out_dir: out_dir.clone(),
            };
            let r = run(&opts).expect("smoke run");
            let what = format!("{} trace={trace}", workload.name());
            assert!(r.correct(), "{what}: {:?}", r.failures);
            assert!(r.attempted >= 1 && r.failed == 0, "{what}");
            let emitted: Vec<(String, String)> = r
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            let want = if trace { PER_LAYER } else { END_TO_END };
            assert_eq!(emitted, owned(want), "{what}");
            let line = r.result_line();
            let parsed = json::parse(&line).expect("result line is JSON");
            assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
            json::parse(&r.detail_line(&opts)).expect("detail line is JSON");
            // End-to-end metrics never read 0; per-layer ones must not
            // for the layers the workload exercises (the run itself also
            // fails a check then, so `correct` above already covers it).
            let nonzero: Vec<&str> = if trace {
                workload.exercised().to_vec()
            } else {
                END_TO_END.iter().map(|(n, _)| *n).collect()
            };
            for name in nonzero {
                let m = r.metrics.iter().find(|m| m.name == name).unwrap();
                assert!(m.value > 0.0, "{what}: {name} is {}", m.value);
            }
        }
    }
}
