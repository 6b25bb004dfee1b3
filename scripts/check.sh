#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints (deny warnings), the
# deep-lint static-analysis pass, and tests. Run from the workspace
# root before sending a PR. Each step is timed so slow regressions in
# the gate itself are visible.
set -euo pipefail
cd "$(dirname "$0")/.."

step() {
    local label="$1"
    shift
    echo "==> $label"
    local start end
    start=$(date +%s)
    "$@"
    end=$(date +%s)
    echo "    [$label: $((end - start))s]"
}

step "cargo fmt --check" cargo fmt --check

step "cargo clippy (deny warnings)" \
    cargo clippy --workspace --all-targets -- -D warnings

# Determinism & unsafe-hygiene static analysis, including the
# interprocedural passes (DESIGN.md §17). Must be clean: a violation
# needs a fix or an explicit `deep-lint: allow(...)` pragma with a
# justification (see CONTRIBUTING.md).
step "deep-lint" cargo run -q -p deep-lint

step "cargo test (workspace)" cargo test -q --workspace

echo "All checks passed."
