//! The interprocedural passes: D4 determinism-taint and P1 panic-path
//! (DESIGN.md §17).
//!
//! Both are reachability problems over the [`Graph`]:
//!
//! * **D4** propagates taint *backwards* from ambient-authority sources
//!   (the D2 pattern set, recorded even in D2-exempt files — that is
//!   the whole point) and reports every call edge where D2-covered
//!   simulation code crosses into tainted exempt code. The lattice is
//!   the simplest possible: a function is clean or tainted, and taint
//!   carries a breadcrumb (the next hop toward the source) so findings
//!   show the concrete chain.
//! * **P1** walks *forwards* from deep-serve's request-handling roots
//!   and reports panic sinks it can reach; `catch_unwind(…)` argument
//!   regions are barriers the walk does not cross.
//!
//! Vendor code is outside both traversals — rayon legitimately
//! reads `RAYON_NUM_THREADS`, and tainting through it would mark the
//! entire workspace.

use crate::graph::Graph;
use crate::items::FileSummary;
use crate::rules::{Finding, Rule, RuleSet};
use crate::rules_for_path;
use std::collections::BTreeSet;
use std::collections::VecDeque;

/// Run every enabled interprocedural rule. Findings come back unsorted
/// (the caller merges them with the file-local findings and sorts).
pub fn workspace_findings(
    graph: &Graph,
    summaries: &[FileSummary],
    enabled: &RuleSet,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    if enabled.has(Rule::DeterminismTaint) {
        determinism_taint(graph, summaries, &mut findings);
    }
    if enabled.has(Rule::PanicPath) {
        panic_path(graph, summaries, &mut findings);
    }
    // Apply pragmas: the extractor collected well-formed coverage per
    // file with the same line semantics as `lint_source`.
    findings.retain(|f| {
        !summaries.iter().any(|s| {
            s.rel == f.path
                && s.allows
                    .iter()
                    .any(|(line, rules)| *line == f.line && rules.contains(&f.rule))
        })
    });
    findings.sort();
    findings.dedup();
    findings
}

fn is_vendor(rel: &str) -> bool {
    rel.starts_with("vendor/")
}

/// Is a file in D2 (`ambient-authority`) scope?
fn d2_covered(rel: &str) -> bool {
    rules_for_path(rel).has(Rule::AmbientAuthority)
}

// ---------------------------------------------------------------------
// D4 — determinism-taint.

/// Why a node is tainted: it *is* a source, or it calls a tainted node.
enum Taint {
    Source { what: String, line: u32 },
    Via(usize),
}

/// D4 reports a caller only when it sits in shipping simulation code:
/// D2-covered and under a `src/` tree. Tests and examples drive daemons
/// and clocks legitimately.
fn d4_caller_scope(rel: &str) -> bool {
    if !d2_covered(rel) {
        return false;
    }
    (rel.starts_with("crates/") && rel.contains("/src/")) || rel.starts_with("src/")
}

fn determinism_taint(graph: &Graph, summaries: &[FileSummary], findings: &mut Vec<Finding>) {
    let mut taint: Vec<Option<Taint>> = (0..graph.nodes.len()).map(|_| None).collect();
    let mut queue = VecDeque::new();
    for (fi, s) in summaries.iter().enumerate() {
        if is_vendor(&s.rel) {
            continue;
        }
        for src in &s.sources {
            if let Some(id) = graph.node_of(fi, src.from) {
                if taint[id].is_none() {
                    taint[id] = Some(Taint::Source {
                        what: src.what.clone(),
                        line: src.line,
                    });
                    queue.push_back(id);
                }
            }
        }
    }
    // Reverse-reachability: callers of tainted functions are tainted.
    while let Some(id) = queue.pop_front() {
        for &ei in &graph.incoming[id] {
            let caller = graph.edges[ei].from;
            if taint[caller].is_none() && !is_vendor(&graph.nodes[caller].rel) {
                taint[caller] = Some(Taint::Via(id));
                queue.push_back(caller);
            }
        }
    }
    // Report the boundary edges: covered sim code → tainted exempt code.
    for e in &graph.edges {
        let f = &graph.nodes[e.from];
        let g = &graph.nodes[e.to];
        if !d4_caller_scope(&f.rel) || d2_covered(&g.rel) || taint[e.to].is_none() {
            continue;
        }
        findings.push(Finding {
            path: f.rel.clone(),
            line: e.line,
            rule: Rule::DeterminismTaint,
            message: format!(
                "call into D2-exempt code reaches ambient authority: {} — route \
                 the value through simulation inputs or move the helper into \
                 D2-covered code",
                trace(&taint, graph, e.to)
            ),
        });
    }
}

/// Render the taint chain from `start` down to its source.
fn trace(taint: &[Option<Taint>], graph: &Graph, start: usize) -> String {
    let mut parts = Vec::new();
    let mut cur = start;
    loop {
        match &taint[cur] {
            Some(Taint::Via(next)) => {
                parts.push(format!("`{}`", graph.nodes[cur].qualified()));
                cur = *next;
            }
            Some(Taint::Source { what, line }) => {
                parts.push(format!(
                    "`{}` ({} at {}:{})",
                    graph.nodes[cur].qualified(),
                    what,
                    graph.nodes[cur].rel,
                    line
                ));
                break;
            }
            None => break,
        }
        if parts.len() > 8 {
            parts.push("…".to_string());
            break;
        }
    }
    parts.join(" → ")
}

// ---------------------------------------------------------------------
// P1 — panic-path.

fn panic_path(graph: &Graph, summaries: &[FileSummary], findings: &mut Vec<Finding>) {
    let mut reached = vec![false; graph.nodes.len()];
    let mut queue = VecDeque::new();
    for (id, n) in graph.nodes.iter().enumerate() {
        let root = n.krate == "deep_serve"
            && (n.name == "serve_connection"
                || n.name == "worker_loop"
                || (n.name == "run" && n.impl_type.as_deref() == Some("Server")));
        if root {
            reached[id] = true;
            queue.push_back(id);
        }
    }
    while let Some(id) = queue.pop_front() {
        for &ei in &graph.out[id] {
            let e = &graph.edges[ei];
            // A guarded edge sits inside catch_unwind: the daemon
            // survives a panic past this point by construction.
            if e.guarded {
                continue;
            }
            let n = &graph.nodes[e.to];
            if !reached[e.to] && !is_vendor(&n.rel) {
                reached[e.to] = true;
                queue.push_back(e.to);
            }
        }
    }
    let mut seen: BTreeSet<(String, u32, &'static str)> = BTreeSet::new();
    for (id, n) in graph.nodes.iter().enumerate() {
        if !reached[id] {
            continue;
        }
        for sink in summaries[n.file]
            .sinks
            .iter()
            .filter(|s| s.from == n.fn_idx && !s.guarded)
        {
            if !seen.insert((n.rel.clone(), sink.line, sink.kind.describe())) {
                continue;
            }
            findings.push(Finding {
                path: n.rel.clone(),
                line: sink.line,
                rule: Rule::PanicPath,
                message: format!(
                    "{} reachable from deep-serve request handling (in `{}`) — a \
                     malformed job must produce an error response, not abort the \
                     daemon; return a Result or guard the boundary with \
                     catch_unwind",
                    sink.kind.describe(),
                    n.qualified()
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{build, Deps};
    use crate::items::extract;

    fn analyze(files: &[(&str, &str)], enabled: &RuleSet) -> Vec<Finding> {
        let summaries: Vec<FileSummary> =
            files.iter().map(|(rel, src)| extract(rel, src)).collect();
        let graph = build(&summaries, &Deps::new());
        workspace_findings(&graph, &summaries, enabled)
    }

    #[test]
    fn d4_catches_cross_file_ambient_authority_that_d2_misses() {
        let caller_src = "pub fn sim_step() { deep_serve::util::stamp(); }";
        let files = [
            // D2-covered sim code with no source of its own…
            ("crates/core/src/lib.rs", caller_src),
            // …calling a clock helper defined in a D2-exempt crate.
            (
                "crates/serve/src/util.rs",
                "pub fn stamp() -> u64 { let t = Instant::now(); 0 }",
            ),
        ];
        // File-local D2 provably misses this: the caller file is clean.
        let d2_only = RuleSet::none().with(Rule::AmbientAuthority);
        let local = crate::lint_source("crates/core/src/lib.rs", caller_src, &d2_only);
        assert!(local.is_empty(), "{local:?}");
        // D4 flags the boundary call with the full chain.
        let fs = analyze(&files, &RuleSet::none().with(Rule::DeterminismTaint));
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].path, "crates/core/src/lib.rs");
        assert!(
            fs[0].message.contains("wall-clock `Instant`"),
            "{}",
            fs[0].message
        );
        assert!(
            fs[0].message.contains("crates/serve/src/util.rs:1"),
            "{}",
            fs[0].message
        );
    }

    #[test]
    fn d4_silent_when_helper_is_clean_or_caller_is_exempt() {
        // Clean helper: no finding.
        let fs = analyze(
            &[
                (
                    "crates/core/src/lib.rs",
                    "pub fn sim_step() { deep_serve::util::ok(); }",
                ),
                ("crates/serve/src/util.rs", "pub fn ok() -> u64 { 0 }"),
            ],
            &RuleSet::none().with(Rule::DeterminismTaint),
        );
        assert!(fs.is_empty(), "{fs:?}");
        // Exempt caller (serve → serve): no finding.
        let fs = analyze(
            &[
                (
                    "crates/serve/src/server.rs",
                    "pub fn tick() { crate::util::stamp(); }",
                ),
                (
                    "crates/serve/src/util.rs",
                    "pub fn stamp() -> u64 { let t = Instant::now(); 0 }",
                ),
            ],
            &RuleSet::none().with(Rule::DeterminismTaint),
        );
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn p1_reaches_sinks_transitively_but_not_past_catch_unwind() {
        let files = [(
            "crates/serve/src/server.rs",
            "pub fn serve_connection(req: &Req) {\n\
                 \x20   let spec = parse_spec(req);\n\
                 \x20   let caught = std::panic::catch_unwind(|| execute(spec));\n\
                 }\n\
                 fn parse_spec(req: &Req) -> Spec { req.body.first().unwrap().clone() }\n\
                 fn execute(s: Spec) { s.steps[&0].run(); }",
        )];
        let fs = analyze(&files, &RuleSet::none().with(Rule::PanicPath));
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].line, 5, "only the unguarded parse path is a finding");
        assert!(fs[0].message.contains("unwrap"), "{}", fs[0].message);
    }

    #[test]
    fn pragmas_suppress_workspace_findings_with_justification() {
        let files = [(
            "crates/serve/src/server.rs",
            "pub fn serve_connection(req: &Req) {\n\
             \x20   // deep-lint: allow(panic-path) — the body was length-checked by the reader\n\
             \x20   req.body.first().unwrap();\n\
             }",
        )];
        let fs = analyze(&files, &RuleSet::none().with(Rule::PanicPath));
        assert!(fs.is_empty(), "{fs:?}");
    }
}
