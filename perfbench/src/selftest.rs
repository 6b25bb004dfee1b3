//! Checks on the benchmark's own definition: `BENCHMARK.json`, the
//! per-layer map in `layers.json` and the pins in `pins.json`.

use std::path::PathBuf;

use deep_json::Value;

use crate::{declared, read_json, Pins, WORKLOADS};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn bench() -> Value {
    read_json(&root().join("BENCHMARK.json")).expect("BENCHMARK.json")
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn names_are_well_formed_and_unique() {
    let b = bench();
    let mut names: Vec<String> = b["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name").to_string())
        .collect();
    for list in ["end_to_end", "per_layer"] {
        names.extend(declared(&b, list).into_iter().map(|(n, _)| n));
    }
    for n in &names {
        assert!(valid_name(n), "bad name {n:?}");
    }
    let mut sorted = names.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "a name is used twice");
}

#[test]
fn workloads_match_the_program_and_carry_one_line_reasons() {
    let b = bench();
    let ws = b["workloads"].as_array().expect("workloads");
    let names: Vec<&str> = ws
        .iter()
        .map(|w| w["name"].as_str().unwrap_or(""))
        .collect();
    assert_eq!(names, WORKLOADS);
    for w in ws {
        assert_eq!(keys(w), ["name", "why"]);
        let why = w["why"].as_str().expect("why");
        assert!(
            !why.trim().is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{why:?}"
        );
    }
}

#[test]
fn metric_entries_follow_the_format() {
    let b = bench();
    assert_eq!(
        keys(&b),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let secs = b["run_seconds"].as_u64().expect("run_seconds");
    assert!((1..=60).contains(&secs));
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let e2e = b["end_to_end"].as_array().expect("end_to_end");
    let max_bound = e2e
        .iter()
        .map(|m| m["bound"].as_f64().expect("bound"))
        .fold(0.0, f64::max);
    for m in e2e {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let bound = m["bound"].as_f64().unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{}", m.to_json());
        assert!(unit_ok(m["unit"].as_str().unwrap()));
        assert!(matches!(m["better"].as_str(), Some("lower" | "higher")));
    }
    let setup = e2e
        .iter()
        .find(|m| m["name"].as_str() == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup["unit"].as_str(), Some("s"));
    assert_eq!(setup["better"].as_str(), Some("lower"));
    assert_eq!(
        setup["bound"].as_f64(),
        Some(max_bound),
        "setup_s has the largest bound"
    );
    for m in b["per_layer"].as_array().expect("per_layer") {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        assert!(unit_ok(m["unit"].as_str().unwrap()));
        assert!(matches!(m["better"].as_str(), Some("lower" | "higher")));
    }
}

/// Every per-layer metric names the end-to-end metrics it should move
/// and the workloads it moves them on, or says in a note why it moves
/// none.
#[test]
fn every_layer_metric_names_what_it_moves() {
    let b = bench();
    let map = read_json(&root().join("perfbench/layers.json")).expect("layers.json");
    let e2e: Vec<String> = declared(&b, "end_to_end")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let layer: Vec<String> = declared(&b, "per_layer")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let mapped: Vec<&str> = keys(&map);
    assert_eq!(
        mapped.len(),
        layer.len(),
        "layers.json and BENCHMARK.json differ"
    );
    for name in &layer {
        let entry = map
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing from layers.json"));
        let list = |k: &str| -> Vec<String> {
            entry[k]
                .as_array()
                .unwrap_or_else(|| panic!("{name}.{k}"))
                .iter()
                .map(|v| v.as_str().expect("string").to_string())
                .collect()
        };
        let moves = list("moves");
        let on = list("on");
        let note = entry["note"].as_str().unwrap_or("");
        assert!(
            !moves.is_empty() || !note.trim().is_empty(),
            "{name} moves nothing and says not why"
        );
        for m in &moves {
            assert!(e2e.contains(m), "{name} moves unknown metric {m}");
        }
        assert!(!on.is_empty(), "{name} names no workload");
        for w in &on {
            assert!(
                WORKLOADS.contains(&w.as_str()),
                "{name} on unknown workload {w}"
            );
        }
    }
}

#[test]
fn pins_load() {
    let pins = Pins::load(&root().join("perfbench/pins.json")).expect("pins.json");
    for probe in [
        "psmpi.allreduce",
        "psmpi.allreduce_ring",
        "psmpi.alltoall",
        "ompss.cholesky_12x64",
    ] {
        assert!(pins.probe(probe).is_some(), "{probe} is not pinned");
    }
}
