//! The repository benchmark. Run it from the repository root through
//! `python3 perfbench/run.py`, which builds this package and the
//! `deep-serve` daemon first:
//!
//! ```text
//! perfbench --workload des_spmv_262k|suite|serve_mix --seed N --seconds S
//!           --trace 0|1 --deep-serve PATH
//! ```
//!
//! `--trace 0` measures the named workload for `S` seconds and prints
//! every end-to-end metric of `BENCHMARK.json`. `--trace 1` runs the
//! traced profile of all three workloads — the result line must carry
//! every per-layer metric, and each workload's layers only move on that
//! workload — and prints every per-layer metric. The last stdout line is
//! the result object; the lines before it are the host fingerprint and
//! a summary with the figures the result line has no room for.

use std::path::{Path, PathBuf};
use std::time::Duration;

use deep_json::Value;

mod des;
mod host;
mod probes;
#[cfg(test)]
mod selftest;
mod serve;
mod stats;
mod suite;

use stats::Report;

pub const WORKLOADS: [&str; 3] = ["des_spmv_262k", "suite", "serve_mix"];

/// Values the correctness checks compare against (`perfbench/pins.json`).
#[derive(Debug, Clone)]
pub struct Pins {
    /// `des_scaling::run` digest at the workload's configuration.
    pub des_digest: u64,
    /// Latency limits, seconds: one DES run, one pass of the suite, one
    /// HTTP job from its due time.
    pub des_limit_s: f64,
    pub suite_limit_s: f64,
    pub serve_limit_s: f64,
    /// Simulated nanoseconds per probe (`probes.rs`).
    pub probes: Vec<(String, u64)>,
    /// Median time of the calibration kernel (`host::reference_s`) on
    /// the recording host: timed runs are reported at this speed.
    pub reference_s: f64,
    /// Median time of `host::handoff_s` on the recording host: the
    /// suite's pool set-up is reported at this speed.
    pub handoff_s: f64,
}

impl Pins {
    pub fn load(path: &Path) -> Result<Pins, String> {
        let v = read_json(path)?;
        let hex = v["des_spmv_262k"]["digest"]
            .as_str()
            .ok_or("pins: des_spmv_262k.digest missing")?;
        let des_digest = u64::from_str_radix(hex.trim_start_matches("0x"), 16)
            .map_err(|e| format!("pins: bad digest {hex}: {e}"))?;
        let num = |w: &str, k: &str| {
            v[w][k]
                .as_f64()
                .filter(|x| x.is_finite() && *x > 0.0)
                .ok_or(format!("pins: {w}.{k} must be a positive number"))
        };
        let probes = v["probes_sim_ns"]
            .as_object()
            .ok_or("pins: probes_sim_ns missing")?
            .iter()
            .map(|(k, n)| {
                n.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or(format!("pins: probe {k} is not an integer"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Pins {
            des_digest,
            des_limit_s: num("des_spmv_262k", "latency_limit_s")?,
            suite_limit_s: num("suite", "latency_limit_s")?,
            serve_limit_s: num("serve_mix", "latency_limit_ms")? / 1e3,
            probes,
            reference_s: num("recorded_on", "reference_s")?,
            handoff_s: num("recorded_on", "handoff_s")?,
        })
    }

    pub fn probe(&self, name: &str) -> Option<u64> {
        self.probes.iter().find(|(k, _)| k == name).map(|&(_, n)| n)
    }
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    deep_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
pub fn declared(bench: &Value, list: &str) -> Vec<(String, String)> {
    bench[list]
        .as_array()
        .map(|ms| {
            ms.iter()
                .map(|m| {
                    let s = |k: &str| m[k].as_str().unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        })
        .unwrap_or_default()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    deep_serve: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1 \
         --deep-serve PATH",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut deep_serve = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = val.parse().ok(),
            "--seconds" => seconds = val.parse().ok().filter(|&s| (1..=600).contains(&s)),
            "--trace" => {
                trace = match val.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--deep-serve" => deep_serve = Some(PathBuf::from(val)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed needs an unsigned integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs an integer in 1..=600")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
        deep_serve: deep_serve.unwrap_or_else(|| usage("--deep-serve is required")),
    }
}

fn main() {
    // The calibration kernel's own process (see `host::reference_in_child`).
    if std::env::args().nth(1).as_deref() == Some("--reference") {
        println!("{:?}", host::reference_s());
        return;
    }
    let args = parse_args();
    let root = std::env::current_dir().expect("current directory");
    let bench = read_json(&root.join("BENCHMARK.json")).unwrap_or_else(|e| usage(&e));
    let pins = Pins::load(&root.join("perfbench/pins.json")).unwrap_or_else(|e| usage(&e));
    let spin = host::spin_ratio();
    println!("{{\"host\": {}}}", host::fingerprint(&root, spin));

    let budget = Duration::from_secs(args.seconds);
    let threads = host::nproc();
    let reports: Vec<Report> = if args.trace {
        vec![
            des::profile(args.seed, &pins),
            suite::profile(&root, threads, &pins),
            serve::profile(&args.deep_serve, args.seed, threads, &pins),
        ]
    } else {
        vec![match args.workload.as_str() {
            "des_spmv_262k" => des::run(args.seed, budget, &pins),
            "suite" => suite::run(&root, budget, &pins),
            _ => serve::run(&args.deep_serve, args.seed, budget, threads, &pins),
        }]
    };

    let mut metrics: Vec<stats::Metric> = Vec::new();
    let (mut attempted, mut failed, mut mismatches) = (0, 0, 0);
    for r in &reports {
        attempted += r.attempted;
        failed += r.failed;
        mismatches += r.mismatches;
        metrics.extend(r.metrics.iter().cloned());
    }
    if args.trace {
        metrics.push(("host.spin_ratio".into(), spin, "ratio"));
    }

    // The result line carries exactly the metrics BENCHMARK.json
    // declares for this mode, with its units; anything else is a bug
    // in this program, not a measurement.
    let list = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let mut want = declared(&bench, list);
    let mut have: Vec<(String, String)> = metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.to_string()))
        .collect();
    want.sort();
    have.sort();
    if want != have {
        eprintln!("perfbench: measured metrics do not match BENCHMARK.json {list}");
        eprintln!("  declared: {want:?}\n  measured: {have:?}");
        std::process::exit(1);
    }

    if let Some((name, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} has no finite value ({v})");
        std::process::exit(1);
    }

    let mut summary: Vec<stats::Metric> = metrics.clone();
    for r in &reports {
        summary.extend(r.info.iter().cloned());
    }
    summary.push((
        "failed_frac".into(),
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    ));
    println!(
        "{{\"summary\": {{\"workload\": \"{}\", \"trace\": {}, \"metrics\": {}}}}}",
        args.workload,
        u8::from(args.trace),
        stats::metrics_json(&summary)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        mismatches == 0,
        stats::metrics_json(&metrics)
    );
}
