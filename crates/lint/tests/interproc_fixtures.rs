//! Fixture corpus for the interprocedural rules (D4 determinism-taint,
//! P1 panic-path). These rules see the whole
//! workspace at once, so each fixture is a *set* of files mounted at
//! synthetic workspace-relative paths via [`analyze_sources`] — the
//! paths drive the same scope policy the real scan uses.

use deep_lint::{analyze_sources, lint_source, Rule, RuleSet};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path:?}: {e}"))
}

/// Rule histogram of a full-rule interprocedural run over a fixture
/// set of `(workspace-relative path, fixture file)` pairs.
fn fired(mounts: &[(&str, &str)]) -> BTreeMap<Rule, usize> {
    let sources: Vec<(&str, String)> = mounts
        .iter()
        .map(|&(rel, name)| (rel, fixture(name)))
        .collect();
    let files: Vec<(&str, &str)> = sources
        .iter()
        .map(|(rel, src)| (*rel, src.as_str()))
        .collect();
    let mut hist = BTreeMap::new();
    for f in analyze_sources(&files, &RuleSet::all()) {
        *hist.entry(f.rule).or_insert(0) += 1;
    }
    hist
}

#[test]
fn d4_bad_fires_exactly_determinism_taint_across_files() {
    assert_eq!(
        fired(&[
            ("crates/core/src/resilience.rs", "d4_bad_caller.rs"),
            ("crates/lint/src/timing.rs", "d4_bad_helper.rs"),
        ]),
        BTreeMap::from([(Rule::DeterminismTaint, 1)]),
        "one boundary call from sim code into the tainted helper"
    );
}

#[test]
fn d4_bad_is_invisible_to_file_local_d2() {
    // The acceptance property: the caller file contains no ambient
    // token, so file-local D2 *provably* cannot fire on it — only the
    // call-graph taint pass can connect the dots.
    let caller = fixture("d4_bad_caller.rs");
    let findings = lint_source(
        "crates/core/src/resilience.rs",
        &caller,
        &RuleSet::none().with(Rule::AmbientAuthority),
    );
    assert!(
        findings.is_empty(),
        "file-local D2 should miss the cross-file taint: {findings:?}"
    );
}

#[test]
fn d4_good_twins_are_clean() {
    // Pure helper: same call shape, no taint.
    assert_eq!(
        fired(&[
            ("crates/core/src/resilience.rs", "d4_good_caller.rs"),
            ("crates/lint/src/timing.rs", "d4_good_helper.rs"),
        ]),
        BTreeMap::new()
    );
    // Tainted helper, but the caller is itself D2-exempt tooling: the
    // boundary rule only protects sim-crate callers.
    assert_eq!(
        fired(&[
            ("crates/lint/src/consumer.rs", "d4_bad_caller.rs"),
            ("crates/lint/src/timing.rs", "d4_bad_helper.rs"),
        ]),
        BTreeMap::new()
    );
}

#[test]
fn p1_bad_fires_exactly_panic_path_two_hops_out() {
    assert_eq!(
        fired(&[
            ("crates/serve/src/server.rs", "p1_bad_handler.rs"),
            ("crates/json/src/lib.rs", "p1_bad_sink.rs"),
        ]),
        BTreeMap::from([(Rule::PanicPath, 1)]),
        "the unwrap sits two calls from serve_connection"
    );
}

#[test]
fn p1_good_catch_unwind_severs_the_path() {
    assert_eq!(
        fired(&[
            ("crates/serve/src/server.rs", "p1_good_handler.rs"),
            ("crates/json/src/lib.rs", "p1_bad_sink.rs"),
        ]),
        BTreeMap::new(),
        "the same sink is unreachable once the handler guards the call"
    );
}

#[test]
fn interproc_rule_toggles_mask_findings() {
    let sources = [
        ("crates/serve/src/server.rs", fixture("p1_bad_handler.rs")),
        ("crates/json/src/lib.rs", fixture("p1_bad_sink.rs")),
    ];
    let files: Vec<(&str, &str)> = sources
        .iter()
        .map(|(rel, src)| (*rel, src.as_str()))
        .collect();
    let no_p1 = RuleSet::all().without(Rule::PanicPath);
    assert!(analyze_sources(&files, &no_p1).is_empty());
}

#[test]
fn d4_finding_anchors_to_the_marked_call_line() {
    let caller = fixture("d4_bad_caller.rs");
    let marked: Vec<u32> = caller
        .lines()
        .enumerate()
        .filter(|(_, l)| l.contains("FIRE"))
        .map(|(i, _)| i as u32 + 1)
        .collect();
    let sources = [
        ("crates/core/src/resilience.rs", caller.clone()),
        ("crates/lint/src/timing.rs", fixture("d4_bad_helper.rs")),
    ];
    let files: Vec<(&str, &str)> = sources
        .iter()
        .map(|(rel, src)| (*rel, src.as_str()))
        .collect();
    let findings = analyze_sources(&files, &RuleSet::all());
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].path, "crates/core/src/resilience.rs");
    assert!(
        marked.contains(&findings[0].line),
        "finding at unmarked line {}: {}",
        findings[0].line,
        findings[0]
    );
}
