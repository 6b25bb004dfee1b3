//! Turn the criterion shim's `CRITERION_JSON` stream into the committed
//! `BENCH_engine.json` report.
//!
//! Usage: `bench_report [criterion.jsonl] [BENCH_engine.json]
//! [--serve serve.json] [--des-scaling des.json] [--nproc N]
//! [suite.json ...]`
//! (defaults: `target/criterion.jsonl`, `BENCH_engine.json`).
//! Trailing args are `run_experiments --json` outputs; their
//! `suite_wall_seconds` land in the `experiment_suite` block keyed by
//! thread count — along with the per-experiment wall-clock profile
//! (`profile_seconds_by_threads`) — with the N-vs-1 speedup when both
//! sides are present. `--nproc` records the host's core count next to
//! that speedup, so a committed report says what parallel hardware
//! produced it (a 1.0× "speedup" on a 1-core host is expected, not a
//! regression). `--serve` takes a `serve_bench` output and lands it in
//! a `serve` block (daemon jobs/s, cached vs uncached). `--des-scaling`
//! takes a `des_scaling_bench --json` output and lands it in a
//! `des_scaling` block (full-DES weak-scaling throughput plus the run's
//! determinism digest); an empty run — zero messages or kernel events,
//! or a malformed digest — is rejected rather than published.
//!
//! Missing or regressed parallelism is a **hard failure** on a
//! multi-core host (`--nproc` ≥ 2): no multi-thread suite row, or a
//! multi-thread suite slower than the 1-thread run, exits non-zero so
//! CI cannot publish a report whose headline feature regressed. On a
//! 1-core host (or without `--nproc`) the same findings are warnings —
//! there, 1.0× is physics.
//!
//! The input is the JSONL stream the vendored criterion shim appends when
//! `CRITERION_JSON` is set — one line per completed benchmark. Lines may
//! repeat a benchmark name (e.g. `scripts/bench.sh` runs every suite
//! several times); the report keeps the **minimum** ns/iter per name,
//! which is robust against load spikes on shared machines.
//!
//! The headline block condenses the suites into four rates:
//! events/s (engine), transfers/s (fabric), collectives/s (MPI),
//! tasks/s (OmpSs graph build), and compares events/s against the
//! recorded pre-optimisation baseline.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Engine-suite baseline, measured at the seed of this optimisation pass
/// (commit 15d49ed) on the dev VM: minimum ns/iter over five interleaved
/// runs of the unmodified kernel. `engine/timers/1000` is the canonical
/// events/s workload (100 timer events per process × 1000 processes).
const BASELINE_COMMIT: &str = "15d49ed";
const BASELINE_ENGINE: &[(&str, u128, u64)] = &[
    ("engine/timers/10", 70_077, 1_000),
    ("engine/timers/100", 982_822, 10_000),
    ("engine/timers/1000", 11_205_258, 100_000),
    ("engine/channels/unbounded_pingpong", 270_337, 10_000),
    ("engine/channels/bounded_backpressure", 132_384, 10_000),
    ("engine/semaphore_contention", 530_797, 3_200),
];

/// One parsed benchmark result.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    ns_per_iter: u128,
    elements: Option<u64>,
    bytes: Option<u64>,
}

impl Entry {
    /// Work items per wall-clock second, when a throughput annotation exists.
    fn per_sec(&self) -> Option<f64> {
        let n = self.elements.or(self.bytes)?;
        if self.ns_per_iter == 0 {
            return None;
        }
        Some(n as f64 * 1e9 / self.ns_per_iter as f64)
    }
}

/// Parse one shim-emitted JSONL line. Only the exact field layout the shim
/// writes is supported; anything else returns `None` (and is skipped).
fn parse_line(line: &str) -> Option<(String, Entry)> {
    let rest = line.trim().strip_prefix("{\"name\":\"")?;
    // The shim escapes only `"` and `\`; unescape while finding the close.
    let mut name = String::new();
    let mut chars = rest.char_indices();
    let tail = loop {
        let (i, c) = chars.next()?;
        match c {
            '\\' => name.push(chars.next()?.1),
            '"' => break &rest[i + 1..],
            _ => name.push(c),
        }
    };
    let ns: u128 = field(tail, "\"ns_per_iter\":")?.parse().ok()?;
    let elements = field(tail, "\"elements\":").and_then(|v| v.parse().ok());
    let bytes = field(tail, "\"bytes\":").and_then(|v| v.parse().ok());
    Some((
        name,
        Entry {
            ns_per_iter: ns,
            elements,
            bytes,
        },
    ))
}

/// Extract the digit run following `key` in `s`.
fn field<'a>(s: &'a str, key: &str) -> Option<&'a str> {
    let start = s.find(key)? + key.len();
    let rest = &s[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// Fold a JSONL stream into min-ns/iter per benchmark name.
fn collect(text: &str) -> BTreeMap<String, Entry> {
    let mut out: BTreeMap<String, Entry> = BTreeMap::new();
    for line in text.lines() {
        let Some((name, e)) = parse_line(line) else {
            continue;
        };
        out.entry(name)
            .and_modify(|best| {
                if e.ns_per_iter < best.ns_per_iter {
                    *best = e.clone();
                }
            })
            .or_insert(e);
    }
    out
}

/// Best rate among benchmarks whose name starts with `prefix`.
fn best_rate(results: &BTreeMap<String, Entry>, prefix: &str) -> Option<f64> {
    results
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .filter_map(|(_, e)| e.per_sec())
        .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
}

/// One `run_experiments --json` result: thread count, suite wall, and
/// the per-experiment wall-clock profile.
#[derive(Debug, Clone, PartialEq)]
struct SuiteRun {
    threads: u64,
    wall: f64,
    /// (experiment, seconds) in the file's (= registry) order.
    profile: Vec<(String, f64)>,
}

/// Parse a `run_experiments --json` file.
fn parse_suite(text: &str) -> Option<SuiteRun> {
    let v = deep_json::from_str(text).ok()?;
    let profile = v
        .get("experiments")?
        .as_object()?
        .iter()
        .map(|(name, secs)| Some((name.clone(), secs.as_f64()?)))
        .collect::<Option<Vec<_>>>()?;
    Some(SuiteRun {
        threads: v.get("threads")?.as_u64()?,
        wall: v.get("suite_wall_seconds")?.as_f64()?,
        profile,
    })
}

fn fmt_rate(r: Option<f64>) -> String {
    match r {
        Some(v) => format!("{v:.0}"),
        None => "null".to_string(),
    }
}

/// Daemon throughput numbers from a `serve_bench` run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ServeStats {
    jobs: u64,
    uncached_jobs_per_s: f64,
    cached_jobs_per_s: f64,
    cache_speedup: f64,
    cached_service_micros_max: u64,
}

/// Parse a `serve_bench` output file.
fn parse_serve(text: &str) -> Option<ServeStats> {
    let v = deep_json::from_str(text).ok()?;
    let s = v.get("serve")?;
    Some(ServeStats {
        jobs: s.get("jobs")?.as_u64()?,
        uncached_jobs_per_s: s.get("uncached_jobs_per_s")?.as_f64()?,
        cached_jobs_per_s: s.get("cached_jobs_per_s")?.as_f64()?,
        cache_speedup: s.get("cache_speedup")?.as_f64()?,
        cached_service_micros_max: s.get("cached_service_micros_max")?.as_u64()?,
    })
}

/// Full-DES weak-scaling numbers from a `des_scaling_bench --json` run.
#[derive(Debug, Clone, PartialEq)]
struct DesStats {
    ranks: u64,
    iters: u64,
    class: String,
    segments: u64,
    iter_sim_seconds: f64,
    messages: u64,
    kernel_events: u64,
    events_per_sec: f64,
    wall_seconds: f64,
    digest: String,
}

/// Parse a `des_scaling_bench --json` output file.
fn parse_des_scaling(text: &str) -> Option<DesStats> {
    let v = deep_json::from_str(text).ok()?;
    let d = v.get("des_scaling")?;
    Some(DesStats {
        ranks: d.get("ranks")?.as_u64()?,
        iters: d.get("iters")?.as_u64()?,
        class: d.get("class")?.as_str()?.to_string(),
        segments: d.get("segments")?.as_u64()?,
        iter_sim_seconds: d.get("iter_sim_seconds")?.as_f64()?,
        messages: d.get("messages")?.as_u64()?,
        kernel_events: d.get("kernel_events")?.as_u64()?,
        events_per_sec: d.get("events_per_sec")?.as_f64()?,
        wall_seconds: d.get("wall_seconds")?.as_f64()?,
        digest: d.get("digest")?.as_str()?.to_string(),
    })
}

/// The des-scaling sanity gate. Unlike the parallel-payoff gate this one
/// is host-independent: a run that simulated nothing (zero messages or
/// kernel events, a non-positive simulated iteration) or whose digest is
/// not the `0x` + 16-hex form the determinism goldens pin must not be
/// published, on any hardware.
fn des_gate(d: &DesStats) -> Result<(), String> {
    if d.messages == 0 || d.kernel_events == 0 || d.iter_sim_seconds <= 0.0 {
        return Err(format!(
            "des_scaling run simulated nothing: {} messages, {} kernel events, \
             iter_sim_seconds {:.9}",
            d.messages, d.kernel_events, d.iter_sim_seconds
        ));
    }
    let hex = d.digest.strip_prefix("0x").unwrap_or("");
    if hex.len() != 16 || !hex.chars().all(|c| c.is_ascii_hexdigit()) {
        return Err(format!(
            "des_scaling digest '{}' is not a 0x-prefixed 16-digit hex value",
            d.digest
        ));
    }
    Ok(())
}

/// N-vs-1 suite speedup: best multi-thread wall against the 1-thread
/// wall, when both are present.
fn suite_speedup(suites: &[SuiteRun]) -> Option<f64> {
    let wall_1 = suites.iter().find(|s| s.threads == 1).map(|s| s.wall)?;
    let wall_best = suites
        .iter()
        .filter(|s| s.threads > 1)
        .map(|s| s.wall)
        .fold(None, |acc: Option<f64>, w| {
            Some(acc.map_or(w, |a| a.min(w)))
        })?;
    (wall_best > 0.0).then(|| wall_1 / wall_best)
}

/// The parallel-payoff gate. On a multi-core host (`--nproc` ≥ 2) a
/// suite that runs *slower* wide than serial — or that never ran wide
/// at all — is a regression in the thing this engine exists to deliver,
/// so it is a hard error, not a warning to scroll past. On a 1-core
/// host (or with no `--nproc`) a 1.0× "speedup" is physics, so the same
/// findings downgrade to warnings.
///
/// Returns `Err(message)` when the report must fail.
fn speedup_gate(suites: &[SuiteRun], host_nproc: Option<u64>) -> Result<(), String> {
    if suites.is_empty() {
        return Ok(());
    }
    let enforce = host_nproc.is_some_and(|n| n >= 2);
    let problem = match suite_speedup(suites) {
        None => Some(
            "suite_speedup_vs_1thread is null — no multi-thread suite row \
             (run run_experiments with RAYON_NUM_THREADS > 1)"
                .to_string(),
        ),
        Some(s) if s < 1.0 => Some(format!(
            "experiment-suite parallel regression: N-thread suite is {s:.2}x \
             the 1-thread wall (expected >= 1.0)"
        )),
        Some(_) => None,
    };
    match problem {
        Some(msg) if enforce => Err(msg),
        Some(msg) => {
            eprintln!("WARNING: {msg} (not fatal: host_nproc < 2 or unrecorded)");
            Ok(())
        }
        None => Ok(()),
    }
}

/// Render the full report as pretty-printed JSON. `suites` holds
/// (threads, suite_wall_seconds) pairs from `run_experiments --json`;
/// `serve` holds daemon throughput from `serve_bench`; `des` holds
/// full-DES weak-scaling throughput from `des_scaling_bench`;
/// `host_nproc` is the measuring host's core count (`--nproc`, null
/// when not passed).
fn render(
    results: &BTreeMap<String, Entry>,
    suites: &[SuiteRun],
    serve: Option<&ServeStats>,
    des: Option<&DesStats>,
    host_nproc: Option<u64>,
) -> String {
    let events = results.get("engine/timers/1000").and_then(|e| e.per_sec());
    let transfers = best_rate(results, "fabric/transfers/");
    let collectives = best_rate(results, "mpi/");
    let tasks = best_rate(results, "ompss/");
    let sweep_1 = results
        .get("sweep/mc_multilevel/1thread")
        .and_then(|e| e.per_sec());
    let sweep_n = results
        .get("sweep/mc_multilevel/nthreads")
        .and_then(|e| e.per_sec());

    let (base_ns, base_elems) = BASELINE_ENGINE
        .iter()
        .find(|(n, _, _)| *n == "engine/timers/1000")
        .map(|&(_, ns, el)| (ns, el))
        .expect("baseline table has the canonical workload");
    let base_events = base_elems as f64 * 1e9 / base_ns as f64;
    let speedup = events.map(|e| e / base_events);

    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"generated_by\": \"scripts/bench.sh (criterion shim CRITERION_JSON stream, min ns/iter per bench)\","
    );
    let _ = writeln!(out, "  \"headline\": {{");
    let _ = writeln!(out, "    \"events_per_sec\": {},", fmt_rate(events));
    let _ = writeln!(out, "    \"transfers_per_sec\": {},", fmt_rate(transfers));
    let _ = writeln!(
        out,
        "    \"collectives_per_sec\": {},",
        fmt_rate(collectives)
    );
    let _ = writeln!(out, "    \"tasks_per_sec\": {}", fmt_rate(tasks));
    let _ = writeln!(out, "  }},");
    // Parallel sweep-harness trajectory: Monte-Carlo runs/s on a
    // 1-thread vs machine-width pool, and the experiment-suite wall
    // clock at each measured thread count.
    let _ = writeln!(out, "  \"experiment_suite\": {{");
    let _ = writeln!(
        out,
        "    \"sweep_runs_per_sec_1thread\": {},",
        fmt_rate(sweep_1)
    );
    let _ = writeln!(
        out,
        "    \"sweep_runs_per_sec_nthreads\": {},",
        fmt_rate(sweep_n)
    );
    let _ = writeln!(out, "    \"suite_wall_seconds_by_threads\": {{");
    for (i, s) in suites.iter().enumerate() {
        let comma = if i + 1 < suites.len() { "," } else { "" };
        let _ = writeln!(out, "      \"{}\": {:.3}{comma}", s.threads, s.wall);
    }
    let _ = writeln!(out, "    }},");
    // Where the time goes: per-experiment wall clock at each measured
    // thread count, so a committed report shows *which* experiments are
    // the tail, not just the total (DESIGN.md §12).
    let _ = writeln!(out, "    \"profile_seconds_by_threads\": {{");
    for (i, s) in suites.iter().enumerate() {
        let comma = if i + 1 < suites.len() { "," } else { "" };
        let _ = writeln!(out, "      \"{}\": {{", s.threads);
        for (j, (name, secs)) in s.profile.iter().enumerate() {
            let c = if j + 1 < s.profile.len() { "," } else { "" };
            let _ = writeln!(out, "        \"{name}\": {secs:.3}{c}");
        }
        let _ = writeln!(out, "      }}{comma}");
    }
    let _ = writeln!(out, "    }},");
    let speedup_text = suite_speedup(suites).map_or("null".to_string(), |s| format!("{s:.2}"));
    let _ = writeln!(out, "    \"suite_speedup_vs_1thread\": {speedup_text},");
    let nproc_text = host_nproc.map_or("null".to_string(), |n| n.to_string());
    let _ = writeln!(out, "    \"host_nproc\": {nproc_text}");
    let _ = writeln!(out, "  }},");
    // Daemon throughput (serve_bench): jobs/s cold vs served from the
    // config-digest cache.
    match serve {
        Some(s) => {
            let _ = writeln!(out, "  \"serve\": {{");
            let _ = writeln!(out, "    \"jobs\": {},", s.jobs);
            let _ = writeln!(
                out,
                "    \"uncached_jobs_per_s\": {:.2},",
                s.uncached_jobs_per_s
            );
            let _ = writeln!(
                out,
                "    \"cached_jobs_per_s\": {:.2},",
                s.cached_jobs_per_s
            );
            let _ = writeln!(out, "    \"cache_speedup\": {:.2},", s.cache_speedup);
            let _ = writeln!(
                out,
                "    \"cached_service_micros_max\": {}",
                s.cached_service_micros_max
            );
            let _ = writeln!(out, "  }},");
        }
        None => {
            let _ = writeln!(out, "  \"serve\": null,");
        }
    }
    // Full-DES weak scaling (des_scaling_bench): throughput of the
    // batch-scheduled engine on the F09 skeleton, plus the
    // run's summary digest — the value CI compares across thread counts.
    match des {
        Some(d) => {
            let _ = writeln!(out, "  \"des_scaling\": {{");
            let _ = writeln!(out, "    \"ranks\": {},", d.ranks);
            let _ = writeln!(out, "    \"iters\": {},", d.iters);
            let _ = writeln!(out, "    \"class\": \"{}\",", d.class);
            let _ = writeln!(out, "    \"segments\": {},", d.segments);
            let _ = writeln!(out, "    \"iter_sim_seconds\": {:.9},", d.iter_sim_seconds);
            let _ = writeln!(out, "    \"messages\": {},", d.messages);
            let _ = writeln!(out, "    \"kernel_events\": {},", d.kernel_events);
            let _ = writeln!(out, "    \"events_per_sec\": {:.0},", d.events_per_sec);
            let _ = writeln!(out, "    \"wall_seconds\": {:.3},", d.wall_seconds);
            let _ = writeln!(out, "    \"digest\": \"{}\"", d.digest);
            let _ = writeln!(out, "  }},");
        }
        None => {
            let _ = writeln!(out, "  \"des_scaling\": null,");
        }
    }
    let _ = writeln!(out, "  \"baseline\": {{");
    let _ = writeln!(out, "    \"commit\": \"{BASELINE_COMMIT}\",");
    let _ = writeln!(out, "    \"events_per_sec\": {base_events:.0},");
    let _ = writeln!(out, "    \"engine_ns_per_iter\": {{");
    for (i, (name, ns, _)) in BASELINE_ENGINE.iter().enumerate() {
        let comma = if i + 1 < BASELINE_ENGINE.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(out, "      \"{name}\": {ns}{comma}");
    }
    let _ = writeln!(out, "    }}");
    let _ = writeln!(out, "  }},");
    let _ = writeln!(
        out,
        "  \"events_per_sec_speedup_vs_baseline\": {},",
        speedup.map_or("null".to_string(), |s| format!("{s:.2}"))
    );
    let _ = writeln!(out, "  \"results\": {{");
    for (i, (name, e)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let mut extra = String::new();
        if let Some(n) = e.elements {
            let _ = write!(extra, ", \"elements\": {n}");
        }
        if let Some(n) = e.bytes {
            let _ = write!(extra, ", \"bytes\": {n}");
        }
        if let Some(r) = e.per_sec() {
            let _ = write!(extra, ", \"per_sec\": {r:.0}");
        }
        let _ = writeln!(
            out,
            "    \"{name}\": {{ \"ns_per_iter\": {}{extra} }}{comma}",
            e.ns_per_iter
        );
    }
    let _ = writeln!(out, "  }}");
    out.push_str("}\n");
    out
}

/// Sort suite runs and keep the best wall per thread count (with its
/// profile). On a single-core host the "machine width" pass also runs
/// with one thread, and a repeated key would make the JSON map invalid.
fn dedupe_suites(suites: &mut Vec<SuiteRun>) {
    suites.sort_by_key(|s| s.threads);
    suites.dedup_by(|later, kept| {
        let dup = later.threads == kept.threads;
        if dup && later.wall < kept.wall {
            std::mem::swap(later, kept);
        }
        dup
    });
}

fn main() {
    let mut positional: Vec<String> = Vec::new();
    let mut serve: Option<ServeStats> = None;
    let mut des: Option<DesStats> = None;
    let mut host_nproc: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--serve" {
            let path = args.next().unwrap_or_else(|| {
                eprintln!("--serve needs a serve_bench output path");
                std::process::exit(2);
            });
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read serve file {path}: {e}"));
            serve = Some(
                parse_serve(&text).unwrap_or_else(|| panic!("{path} is not a serve_bench output")),
            );
        } else if arg == "--des-scaling" {
            let path = args.next().unwrap_or_else(|| {
                eprintln!("--des-scaling needs a des_scaling_bench --json output path");
                std::process::exit(2);
            });
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read des-scaling file {path}: {e}"));
            des = Some(
                parse_des_scaling(&text)
                    .unwrap_or_else(|| panic!("{path} is not a des_scaling_bench output")),
            );
        } else if arg == "--nproc" {
            let n = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("--nproc needs a positive core count");
                std::process::exit(2);
            });
            if n == 0 {
                eprintln!("--nproc needs a positive core count");
                std::process::exit(2);
            }
            host_nproc = Some(n);
        } else {
            positional.push(arg);
        }
    }
    let mut positional = positional.into_iter();
    let input = positional
        .next()
        .unwrap_or_else(|| "target/criterion.jsonl".to_string());
    let output = positional
        .next()
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let mut suites: Vec<SuiteRun> = Vec::new();
    for path in positional {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read suite file {path}: {e}"));
        let parsed = parse_suite(&text)
            .unwrap_or_else(|| panic!("{path} is not a run_experiments --json file"));
        suites.push(parsed);
    }
    dedupe_suites(&mut suites);
    // The parallel-payoff gate: on a multi-core host, missing or
    // regressed parallelism fails the report; see speedup_gate.
    if let Err(msg) = speedup_gate(&suites, host_nproc) {
        eprintln!("ERROR: {msg}");
        std::process::exit(1);
    }
    // The des-scaling sanity gate: an empty or malformed run must not
    // be published; see des_gate.
    if let Some(d) = &des {
        if let Err(msg) = des_gate(d) {
            eprintln!("ERROR: {msg}");
            std::process::exit(1);
        }
    }
    let text = std::fs::read_to_string(&input)
        .unwrap_or_else(|e| panic!("cannot read {input}: {e} (run scripts/bench.sh first)"));
    let results = collect(&text);
    assert!(
        results.contains_key("engine/timers/1000"),
        "input has no engine/timers/1000 result; did the engine bench run?"
    );
    let report = render(&results, &suites, serve.as_ref(), des.as_ref(), host_nproc);
    std::fs::write(&output, &report).unwrap_or_else(|e| panic!("cannot write {output}: {e}"));
    println!("wrote {output} ({} benchmarks)", results.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip() {
        let (name, e) =
            parse_line(r#"{"name":"engine/timers/1000","ns_per_iter":4460241,"elements":100000}"#)
                .unwrap();
        assert_eq!(name, "engine/timers/1000");
        assert_eq!(e.ns_per_iter, 4460241);
        assert_eq!(e.elements, Some(100000));
        assert_eq!(e.bytes, None);
        assert!((e.per_sec().unwrap() - 100000.0 * 1e9 / 4460241.0).abs() < 1e-6);
    }

    #[test]
    fn parse_escaped_name_and_bytes() {
        let (name, e) = parse_line(r#"{"name":"g/\"q\"","ns_per_iter":9,"bytes":64}"#).unwrap();
        assert_eq!(name, "g/\"q\"");
        assert_eq!(e.bytes, Some(64));
        assert!(parse_line("not json").is_none());
        assert!(parse_line(r#"{"name":"x","ns_per_iter":}"#).is_none());
    }

    #[test]
    fn collect_keeps_minimum_per_name() {
        let text = concat!(
            "{\"name\":\"a\",\"ns_per_iter\":10,\"elements\":5}\n",
            "garbage\n",
            "{\"name\":\"a\",\"ns_per_iter\":7,\"elements\":5}\n",
            "{\"name\":\"a\",\"ns_per_iter\":12,\"elements\":5}\n",
        );
        let m = collect(text);
        assert_eq!(m.len(), 1);
        assert_eq!(m["a"].ns_per_iter, 7);
    }

    #[test]
    fn report_headline_and_speedup() {
        let text = concat!(
            "{\"name\":\"engine/timers/1000\",\"ns_per_iter\":5000000,\"elements\":100000}\n",
            "{\"name\":\"fabric/transfers/torus\",\"ns_per_iter\":1000,\"elements\":2}\n",
            "{\"name\":\"mpi/allreduce/8\",\"ns_per_iter\":1000,\"elements\":4}\n",
            "{\"name\":\"ompss/cholesky_graph_build/8\",\"ns_per_iter\":1000,\"elements\":120}\n",
        );
        let report = render(&collect(text), &[], None, None, None);
        // 100000 elements / 5 ms = 20 M events/s; baseline ≈ 8.92 M → 2.24×.
        assert!(report.contains("\"events_per_sec\": 20000000"));
        assert!(report.contains("\"transfers_per_sec\": 2000000"));
        assert!(report.contains("\"collectives_per_sec\": 4000000"));
        assert!(report.contains("\"tasks_per_sec\": 120000000"));
        assert!(report.contains("\"events_per_sec_speedup_vs_baseline\": 2.24"));
        assert!(report.contains("\"commit\": \"15d49ed\""));
        // No suite files and no sweep bench → nulls, not a broken block.
        assert!(report.contains("\"sweep_runs_per_sec_1thread\": null"));
        assert!(report.contains("\"suite_speedup_vs_1thread\": null"));
    }

    /// A profile-less suite run, for tests about walls and speedups.
    fn sr(threads: u64, wall: f64) -> SuiteRun {
        SuiteRun {
            threads,
            wall,
            profile: Vec::new(),
        }
    }

    #[test]
    fn parse_suite_extracts_threads_wall_and_profile() {
        let text = "{\n  \"threads\": 4,\n  \"suite_wall_seconds\": 2.625000,\n  \
                    \"failures\": 0,\n  \"experiments\": {\n    \"a33\": 3.424,\n    \
                    \"f02\": 0.000\n  }\n}\n";
        let s = parse_suite(text).unwrap();
        assert_eq!((s.threads, s.wall), (4, 2.625));
        assert_eq!(
            s.profile,
            vec![("a33".to_string(), 3.424), ("f02".to_string(), 0.0)]
        );
        assert!(parse_suite("{}").is_none());
    }

    #[test]
    fn report_suite_block_speedup_and_profile() {
        let text = concat!(
            "{\"name\":\"engine/timers/1000\",\"ns_per_iter\":5000000,\"elements\":100000}\n",
            "{\"name\":\"sweep/mc_multilevel/1thread\",\"ns_per_iter\":64000000,\"elements\":64}\n",
            "{\"name\":\"sweep/mc_multilevel/nthreads\",\"ns_per_iter\":16000000,\"elements\":64}\n",
        );
        let mut one = sr(1, 8.4);
        one.profile = vec![("a33_allreduce_algorithms".to_string(), 3.424)];
        let report = render(&collect(text), &[one, sr(4, 2.1)], None, None, None);
        // 64 runs / 64 ms = 1000 runs/s single-threaded, 4000 wide.
        assert!(report.contains("\"sweep_runs_per_sec_1thread\": 1000"));
        assert!(report.contains("\"sweep_runs_per_sec_nthreads\": 4000"));
        assert!(report.contains("\"1\": 8.400"));
        assert!(report.contains("\"4\": 2.100"));
        assert!(report.contains("\"suite_speedup_vs_1thread\": 4.00"));
        // The per-experiment profile lands under the run's thread count.
        assert!(
            report.contains("\"a33_allreduce_algorithms\": 3.424"),
            "{report}"
        );
        assert!(deep_json::from_str(&report).is_ok(), "{report}");
    }

    #[test]
    fn duplicate_thread_counts_collapse_to_the_best_wall() {
        // Single-core host: both bench.sh passes report threads=1. The
        // kept row's profile must be the *best* run's profile.
        let mut slow = sr(1, 8.4);
        slow.profile = vec![("x".to_string(), 8.0)];
        let mut fast = sr(1, 6.7);
        fast.profile = vec![("x".to_string(), 6.0)];
        let mut suites = vec![slow, fast, sr(4, 2.1), sr(4, 2.5)];
        dedupe_suites(&mut suites);
        assert_eq!(
            suites
                .iter()
                .map(|s| (s.threads, s.wall))
                .collect::<Vec<_>>(),
            vec![(1, 6.7), (4, 2.1)]
        );
        assert_eq!(suites[0].profile, vec![("x".to_string(), 6.0)]);

        let report = render(&BTreeMap::new(), &suites, None, None, None);
        assert_eq!(report.matches("\"1\": 6.700").count(), 1, "{report}");
    }

    #[test]
    fn host_nproc_lands_next_to_the_suite_speedup() {
        let report = render(
            &BTreeMap::new(),
            &[sr(1, 8.4), sr(4, 2.1)],
            None,
            None,
            Some(4),
        );
        assert!(
            report.contains("\"suite_speedup_vs_1thread\": 4.00,\n    \"host_nproc\": 4"),
            "{report}"
        );
        // Without --nproc the field is an explicit null, not absent —
        // a committed report always says whether the host was recorded.
        let report = render(&BTreeMap::new(), &[], None, None, None);
        assert!(report.contains("\"host_nproc\": null"), "{report}");
        // The report stays valid JSON either way.
        assert!(deep_json::from_str(&report).is_ok(), "{report}");
    }

    #[test]
    fn suite_speedup_requires_both_sides() {
        assert_eq!(suite_speedup(&[]), None);
        assert_eq!(suite_speedup(&[sr(1, 8.4)]), None, "no multi-thread row");
        assert_eq!(suite_speedup(&[sr(2, 4.2)]), None, "no 1-thread row");
        let s = suite_speedup(&[sr(1, 8.4), sr(2, 4.2)]).unwrap();
        assert!((s - 2.0).abs() < 1e-9);
        // Best multi-thread wall wins.
        let s = suite_speedup(&[sr(1, 8.4), sr(2, 4.2), sr(4, 2.1)]).unwrap();
        assert!((s - 4.0).abs() < 1e-9);
        // A regression (slower than 1 thread) still reports honestly.
        let s = suite_speedup(&[sr(1, 2.0), sr(2, 4.0)]).unwrap();
        assert!((s - 0.5).abs() < 1e-9);
    }

    #[test]
    fn gate_fails_on_multicore_regression_or_missing_row() {
        // Multi-core host + regression → hard error.
        assert!(speedup_gate(&[sr(1, 2.0), sr(4, 4.0)], Some(4)).is_err());
        // Multi-core host + no multi-thread row → hard error.
        assert!(speedup_gate(&[sr(1, 2.0)], Some(4)).is_err());
        // Multi-core host + real speedup → pass.
        assert!(speedup_gate(&[sr(1, 8.0), sr(4, 2.0)], Some(4)).is_ok());
        // 1-core host: the same regression is a warning, not a failure.
        assert!(speedup_gate(&[sr(1, 2.0), sr(4, 4.0)], Some(1)).is_ok());
        assert!(speedup_gate(&[sr(1, 2.0)], Some(1)).is_ok());
        // No --nproc recorded: warn-only (can't claim the host is wide).
        assert!(speedup_gate(&[sr(1, 2.0), sr(4, 4.0)], None).is_ok());
        // No suite files at all: nothing to gate.
        assert!(speedup_gate(&[], Some(4)).is_ok());
    }

    #[test]
    fn serve_section_parses_and_renders() {
        let text = r#"{
  "serve": {
    "jobs": 16,
    "uncached_jobs_per_s": 12.50,
    "cached_jobs_per_s": 640.00,
    "cache_speedup": 51.20,
    "cached_service_micros_max": 812
  }
}"#;
        let stats = parse_serve(text).unwrap();
        assert_eq!(stats.jobs, 16);
        assert_eq!(stats.cached_service_micros_max, 812);
        let report = render(&BTreeMap::new(), &[], Some(&stats), None, None);
        assert!(report.contains("\"cached_jobs_per_s\": 640.00"), "{report}");
        assert!(report.contains("\"cache_speedup\": 51.20"), "{report}");
        // Without serve data the section is an explicit null, not absent.
        let report = render(&BTreeMap::new(), &[], None, None, None);
        assert!(report.contains("\"serve\": null"), "{report}");
        assert!(parse_serve("{}").is_none());
        assert!(parse_serve("not json").is_none());
    }

    /// A plausible `des_scaling_bench --json` output, as a test fixture.
    fn des_fixture() -> DesStats {
        parse_des_scaling(
            r#"{
  "des_scaling": {
    "ranks": 65536,
    "iters": 2,
    "class": "spmv",
    "segments": 3641,
    "iter_sim_seconds": 0.002051244,
    "messages": 1310720,
    "kernel_events": 1135639,
    "events_per_sec": 13500000,
    "wall_seconds": 0.181,
    "digest": "0x08b70910eb221787"
  }
}"#,
        )
        .unwrap()
    }

    #[test]
    fn des_scaling_section_parses_and_renders() {
        let d = des_fixture();
        assert_eq!((d.ranks, d.iters, d.segments), (65536, 2, 3641));
        assert_eq!(d.class, "spmv");
        assert_eq!(d.digest, "0x08b70910eb221787");
        let report = render(&BTreeMap::new(), &[], None, Some(&d), None);
        assert!(report.contains("\"ranks\": 65536"), "{report}");
        assert!(
            report.contains("\"iter_sim_seconds\": 0.002051244"),
            "{report}"
        );
        assert!(
            report.contains("\"digest\": \"0x08b70910eb221787\""),
            "{report}"
        );
        assert!(deep_json::from_str(&report).is_ok(), "{report}");
        // Without des data the section is an explicit null, not absent.
        let report = render(&BTreeMap::new(), &[], None, None, None);
        assert!(report.contains("\"des_scaling\": null"), "{report}");
        assert!(parse_des_scaling("{}").is_none());
        assert!(parse_des_scaling("not json").is_none());
    }

    #[test]
    fn des_gate_rejects_empty_runs_and_bad_digests() {
        assert!(des_gate(&des_fixture()).is_ok());
        let mut d = des_fixture();
        d.messages = 0;
        assert!(des_gate(&d).is_err(), "zero messages must not publish");
        let mut d = des_fixture();
        d.kernel_events = 0;
        assert!(des_gate(&d).is_err(), "zero kernel events must not publish");
        let mut d = des_fixture();
        d.iter_sim_seconds = 0.0;
        assert!(
            des_gate(&d).is_err(),
            "empty simulated time must not publish"
        );
        let mut d = des_fixture();
        d.digest = "0xdeadbeef".to_string();
        assert!(des_gate(&d).is_err(), "short digest must not publish");
        let mut d = des_fixture();
        d.digest = "08b70910eb221787".to_string();
        assert!(des_gate(&d).is_err(), "unprefixed digest must not publish");
    }
}
