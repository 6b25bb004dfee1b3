#![forbid(unsafe_code)]
//! CLI for `deep-lint`. Exit status: 0 clean, 1 findings, 2 usage/IO.
//!
//! ```text
//! deep-lint [--root PATH] [--json [PATH|-]] [--only R1,R2] [--skip R1]
//!           [--graph [PATH|-]] [--graph-md PATH] [--list-rules] [--quiet]
//! ```
//!
//! With no `--root`, the workspace root is found by walking up from the
//! current directory to the first `Cargo.toml` containing `[workspace]`
//! — so the binary works from any subdirectory, including under
//! `cargo run -p deep-lint`.

use deep_lint::{findings_to_json, scan_workspace, Rule, RuleSet};
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    root: Option<PathBuf>,
    json: Option<String>,
    only: Option<Vec<Rule>>,
    skip: Vec<Rule>,
    graph: Option<String>,
    graph_md: Option<String>,
    list_rules: bool,
    quiet: bool,
}

fn parse_rules(arg: &str) -> Result<Vec<Rule>, String> {
    arg.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| {
            Rule::from_name(name).ok_or_else(|| {
                format!(
                    "unknown rule `{name}` (known: {})",
                    Rule::ALL.map(Rule::name).join(", ")
                )
            })
        })
        .collect()
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        root: None,
        json: None,
        only: None,
        skip: Vec::new(),
        graph: None,
        graph_md: None,
        list_rules: false,
        quiet: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let operand = |i: &mut usize| -> Option<String> {
        match args.get(*i + 1) {
            Some(v) if !v.starts_with("--") => {
                *i += 1;
                Some(v.clone())
            }
            _ => None,
        }
    };
    while i < args.len() {
        let arg = &args[i];
        match arg.as_str() {
            "--root" => {
                let v = operand(&mut i).ok_or("--root needs a path")?;
                cli.root = Some(PathBuf::from(v));
            }
            "--json" => {
                // Optional operand: a path, or `-` / absent for stdout.
                cli.json = Some(operand(&mut i).unwrap_or_else(|| "-".to_string()));
            }
            "--graph" => {
                cli.graph = Some(operand(&mut i).unwrap_or_else(|| "-".to_string()));
            }
            "--graph-md" => {
                let v = operand(&mut i).ok_or("--graph-md needs a path")?;
                cli.graph_md = Some(v);
            }
            "--only" => {
                let v = operand(&mut i).ok_or("--only needs a rule list")?;
                cli.only = Some(parse_rules(&v)?);
            }
            "--skip" => {
                let v = operand(&mut i).ok_or("--skip needs a rule list")?;
                cli.skip.extend(parse_rules(&v)?);
            }
            "--list-rules" => cli.list_rules = true,
            "--quiet" | "-q" => cli.quiet = true,
            "--help" | "-h" => {
                println!(
                    "deep-lint: workspace determinism & unsafe-hygiene checks\n\n\
                     USAGE: deep-lint [--root PATH] [--json [PATH|-]] \
                     [--only R1,R2] [--skip R1] [--graph [PATH|-]] \
                     [--graph-md PATH] [--list-rules] [--quiet]\n\n\
                     Rules (suppress a site with \
                     `// deep-lint: allow(<rule>) — <why>`):"
                );
                for r in Rule::ALL {
                    println!("  {:24} {}", r.name(), r.describe());
                }
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
        i += 1;
    }
    Ok(cli)
}

/// Walk up from the current directory to a `Cargo.toml` declaring
/// `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(
                "no workspace Cargo.toml found above the current directory; pass --root"
                    .to_string(),
            );
        }
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("deep-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.list_rules {
        for r in Rule::ALL {
            println!("{:24} {}", r.name(), r.describe());
        }
        return ExitCode::SUCCESS;
    }
    let root = match cli.root.map_or_else(find_workspace_root, Ok) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("deep-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let mut enabled = match &cli.only {
        Some(rules) => rules.iter().fold(RuleSet::none(), |acc, r| acc.with(*r)),
        None => RuleSet::all(),
    };
    for r in &cli.skip {
        enabled = enabled.without(*r);
    }

    let result = match scan_workspace(&root, &enabled) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("deep-lint: scanning {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if let Some(dest) = &cli.graph {
        let doc = result.graph.to_json();
        if dest == "-" {
            println!("{doc}");
        } else if let Err(e) = std::fs::write(dest, doc + "\n") {
            eprintln!("deep-lint: writing {dest}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(dest) = &cli.graph_md {
        let md = result
            .graph
            .to_markdown(&|rel| deep_lint::rules_for_path(rel).has(Rule::AmbientAuthority));
        if let Err(e) = std::fs::write(dest, md) {
            eprintln!("deep-lint: writing {dest}: {e}");
            return ExitCode::from(2);
        }
    }
    let findings = &result.findings;
    if let Some(dest) = &cli.json {
        let doc = findings_to_json(findings);
        if dest == "-" {
            println!("{doc}");
        } else if let Err(e) = std::fs::write(dest, doc + "\n") {
            eprintln!("deep-lint: writing {dest}: {e}");
            return ExitCode::from(2);
        }
    }
    if !cli.quiet && cli.json.as_deref() != Some("-") && cli.graph.as_deref() != Some("-") {
        for f in findings {
            println!("{f}");
        }
        if findings.is_empty() {
            println!("deep-lint: clean ({} rules)", Rule::ALL.len());
        } else {
            println!(
                "deep-lint: {} finding(s) — see DESIGN.md §13 for the rule \
                 catalogue and pragma grammar",
                findings.len()
            );
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
