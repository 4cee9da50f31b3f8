//! The benchmark's own test: every workload at a tiny size.

use star_mem::MemEvent;
use star_perfbench::{probe, run, Options, Outcome, Scale, WorkloadName, END_TO_END, PER_LAYER};
use star_prof::JsonValue;
use star_workloads::WorkloadKind;

fn tiny(workload: WorkloadName, seed: u64, trace: bool) -> Outcome {
    let out = run(&Options {
        workload,
        seed,
        seconds: 0.0,
        trace,
        scale: Scale::Tiny,
    });
    assert!(out.correct, "{}: {}", workload.label(), out.detail);
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0);
    out
}

/// The result line parses and carries exactly the four keys, with every
/// expected metric named once with its unit.
fn check_result_line(out: &Outcome, expected: &[(&str, &str)]) {
    let line = JsonValue::parse(&out.result_json()).expect("result line is JSON");
    let JsonValue::Obj(members) = &line else {
        panic!("result line is an object")
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let Some(JsonValue::Obj(metrics)) = line.get("metrics") else {
        panic!("metrics is an object")
    };
    let got: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(name, m)| {
            (
                name.as_str(),
                m.get("unit").and_then(JsonValue::as_str).unwrap(),
            )
        })
        .collect();
    assert_eq!(got, expected);
    for (name, m) in metrics {
        let v = m.get("value").and_then(JsonValue::as_f64).unwrap();
        assert!(v.is_finite(), "{name} = {v}");
    }
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    for workload in WorkloadName::ALL {
        let out = tiny(workload, 7, false);
        check_result_line(&out, END_TO_END);
        for m in &out.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} = {}",
                workload.label(),
                m.name,
                m.value
            );
        }
    }
}

#[test]
fn traced_runs_report_every_layer_and_account_for_their_wall_clock() {
    for workload in WorkloadName::ALL {
        let out = tiny(workload, 7, true);
        check_result_line(&out, PER_LAYER);
        let self_ns: u64 = out.layers.values().map(|l| l.self_ns).sum();
        assert!(out.traced_wall_ns > 0);
        assert!(
            self_ns <= out.traced_wall_ns,
            "{}: self {self_ns} > wall {}",
            workload.label(),
            out.traced_wall_ns
        );
        let attributed = out.metric("trace.attributed_share").unwrap();
        assert!(attributed > 0.5 && attributed <= 1.0, "{attributed}");
        assert!(out.metric("recovery.samples").unwrap() >= 2.0);
    }
}

#[test]
fn same_seed_repeats_the_simulated_metrics() {
    for workload in WorkloadName::ALL {
        let a = tiny(workload, 11, false);
        let b = tiny(workload, 11, false);
        assert_eq!(a.sim, b.sim, "{}", workload.label());
        for name in ["sim_write_ratio", "sim_ipc_ratio", "sim_recovery_us"] {
            assert_eq!(a.metric(name), b.metric(name), "{name}");
        }
    }
}

#[test]
fn a_different_seed_changes_the_generated_inputs() {
    let record = |kind: WorkloadKind, seed: u64| -> Vec<MemEvent> {
        probe::record(&mut *kind.instantiate(seed), 200)
    };
    // The grid runs every kind; ycsb-star runs ycsb; crash-sweep runs
    // the swept kind.
    for kind in WorkloadKind::ALL {
        assert_ne!(record(kind, 1), record(kind, 2), "{kind}");
    }
    assert_ne!(
        tiny(WorkloadName::YcsbStar, 1, false).sim,
        tiny(WorkloadName::YcsbStar, 2, false).sim
    );
}

#[test]
fn benchmark_json_names_the_same_metrics_and_workloads() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json is JSON");
    let list = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), owned(END_TO_END));
    assert_eq!(list("per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<&str> = WorkloadName::ALL.iter().map(|w| w.label()).collect();
    assert_eq!(workloads, ours);
}
