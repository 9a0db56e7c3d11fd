//! The benchmark's own tests, at the `tiny` preset.

use std::path::PathBuf;

use perfbench::traced::run_traced;
use perfbench::workload::{run_study, Plan, Workload, QUOTA};
use search_seizure::Study;
use serde::Value;
use ss_bench::Preset;

/// A fresh directory under the test target directory.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

#[test]
fn traced_replay_reaches_the_study_fingerprint() {
    for workload in [Workload::StudySmall, Workload::PaperWindow] {
        let plan = Plan::at(workload, Preset::Tiny, 3);
        let out = Study::new(plan.cfg.clone()).run().expect("study runs");
        for restore in [false, true] {
            let dir = fresh_dir(&format!("traced-{}-{restore}", workload.name()));
            let traced = run_traced(&plan, &dir, restore).expect("traced run");
            let what = format!("{} with restore={restore}", workload.name());
            assert_eq!(traced.fingerprint, out.run_fingerprint(), "{what}");
            assert_eq!(
                traced.obs.metrics_json(),
                out.metrics.metrics_json(),
                "{what}"
            );
            assert_eq!(traced.obs.costs_json(), out.metrics.costs_json(), "{what}");
            assert_eq!(traced.checkpoint_bytes > 0, restore);
        }
    }
}

#[test]
fn serve_client_counts_repeat_across_runs() {
    let plan = Plan::at(Workload::Serve, Preset::Tiny, 5);
    let epochs = u64::from(plan.days());
    let counts: Vec<(u64, u64, u64)> = (0..2)
        .map(|run| {
            let dir = fresh_dir(&format!("serve-{run}"));
            let pass = run_study(&plan, &dir).expect("serve study");
            let client = pass.live.expect("serve queries live");
            assert_eq!(client.mismatches, 0, "a served SERP differs from its walk");
            assert!(client.checked > 0);
            (client.epochs, client.queries, client.first_touch)
        })
        .collect();
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[0], (epochs, epochs * QUOTA, epochs * QUOTA / 8));
}

/// Looks `key` up in a JSON object.
fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no {key:?}")),
        _ => panic!("not an object"),
    }
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        _ => panic!("not a string"),
    }
}

/// `(name, unit)` of every entry in a `BENCHMARK.json` list.
fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
    let Value::Seq(items) = field(doc, list) else {
        panic!("{list} is not a list");
    };
    items
        .iter()
        .map(|m| {
            let unit = match list {
                "workloads" => String::new(),
                _ => text(field(m, "unit")).to_owned(),
            };
            (text(field(m, "name")).to_owned(), unit)
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn emitted_names_are_declared_in_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = ss_bench::manifest_diff::parse_json(
        &std::fs::read_to_string(&path).expect("BENCHMARK.json is readable"),
    )
    .expect("BENCHMARK.json parses");
    let workloads: Vec<String> = declared(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    for workload in Workload::ALL {
        assert!(valid_name(workload.name()));
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let dir = fresh_dir(&format!("names-{}-{trace}", workload.name()));
            let plan = Plan::at(workload, Preset::Tiny, 7);
            let outcome = perfbench::measure(&plan, 0.0, trace, &dir);
            assert!(
                outcome.correct && outcome.failed == 0,
                "{} trace={trace}: {:?}",
                workload.name(),
                outcome.problems
            );
            let mut emitted: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| {
                    assert!(valid_name(m.name), "bad metric name {:?}", m.name);
                    assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
                    (m.name.to_owned(), m.unit.to_owned())
                })
                .collect();
            let mut want = declared(&doc, list);
            emitted.sort();
            want.sort();
            assert_eq!(emitted, want, "{} {list}", workload.name());
        }
    }
}
