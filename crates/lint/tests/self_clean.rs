//! The self-run gate: the full workspace must lint clean. This is the
//! same scan `scripts/check.sh` and the CI `lint` job run — keeping it
//! as a cargo test means `cargo test --workspace` alone catches a new
//! violation even without the shell gate.

use deep_lint::{crate_roots, rules_for_path, scan_workspace, Rule, RuleSet};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // crates/lint → workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn workspace_lints_clean() {
    let findings = scan_workspace(&workspace_root(), &RuleSet::all())
        .expect("scan")
        .findings;
    assert!(
        findings.is_empty(),
        "deep-lint found {} violation(s) in the workspace:\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn scan_covers_the_known_terrain() {
    // Guard against a walker regression silently shrinking coverage:
    // the crate-root inventory must include every workspace package we
    // know about, and the scope policy must keep vendor under S1.
    let roots = crate_roots(&workspace_root()).expect("crate roots");
    for expected in [
        "src/lib.rs",
        "crates/simkit/src/lib.rs",
        "crates/lint/src/main.rs",
        "crates/bench/src/bin/run_experiments.rs",
        "crates/serve/src/lib.rs",
        "crates/serve/src/bin/deep_serve.rs",
    ] {
        assert!(
            roots.iter().any(|r| r == expected),
            "crate-root inventory lost {expected}: {roots:?}"
        );
    }
    assert!(
        roots.len() >= 40,
        "expected ≥40 crate roots, got {}",
        roots.len()
    );
    assert!(rules_for_path("vendor/rayon/src/pool.rs").has(Rule::UndocumentedUnsafe));
}
