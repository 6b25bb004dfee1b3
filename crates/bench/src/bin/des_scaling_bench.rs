//! Wall-clock throughput of the full-DES weak-scaling skeleton
//! (`deep_bench::des_scaling`) — the `des_scaling` block of
//! `BENCH_engine.json`.
//!
//! Usage:
//! `des_scaling_bench [--ranks N] [--iters K] [--complex] [--json PATH] [--digest-only]`
//! (defaults: 65 536 ranks, 2 iterations, SpMV class, JSON to stdout).
//!
//! This is the one measurement in the suite where wall clock *is* the
//! result: the simulated numbers are deterministic (pinned by the run's
//! digest, which CI compares across `RAYON_NUM_THREADS` settings), and
//! what the benchmark adds is how fast the batch-scheduled engine
//! chews through them. `events_per_sec` is the rate an unbatched
//! engine would have needed to match: kernel events actually executed
//! plus one per fabric message, since every batched message replaces at
//! least one timer event of a per-message event loop.
//!
//! `--digest-only` prints just the digest line, so shell scripts can
//! `cmp` determinism across thread counts without parsing JSON (wall
//! seconds legitimately differ between runs).

#![forbid(unsafe_code)]

use deep_bench::des_scaling::{run, DesScalingConfig};

fn main() {
    let mut cfg = DesScalingConfig {
        ranks: 65_536,
        iters: 2,
        complex: false,
        seed: 1,
    };
    let mut json_path: Option<String> = None;
    let mut digest_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |name: &str| -> u32 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("{name} needs a positive integer");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--ranks" => cfg.ranks = num("--ranks"),
            "--iters" => cfg.iters = num("--iters"),
            "--complex" => cfg.complex = true,
            "--digest-only" => digest_only = true,
            "--json" => {
                json_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--json needs an output path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    let t0 = std::time::Instant::now();
    let r = run(cfg);
    let wall = t0.elapsed().as_secs_f64();

    if digest_only {
        println!("digest 0x{:016x}", r.digest);
        return;
    }

    let equivalent_events = r.kernel_events + r.messages;
    let json = format!(
        "{{\n  \"des_scaling\": {{\n    \"ranks\": {},\n    \"iters\": {},\n    \
         \"class\": \"{}\",\n    \"segments\": {},\n    \"iter_sim_seconds\": {:.9},\n    \
         \"messages\": {},\n    \"kernel_events\": {},\n    \"events_per_sec\": {:.0},\n    \
         \"wall_seconds\": {:.3},\n    \"digest\": \"0x{:016x}\"\n  }}\n}}\n",
        r.ranks,
        r.iters,
        if cfg.complex { "complex" } else { "spmv" },
        r.segments,
        r.iter_s,
        r.messages,
        r.kernel_events,
        equivalent_events as f64 / wall,
        wall,
        r.digest,
    );
    match json_path {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            println!(
                "wrote {path} ({} ranks, {:.2}M equivalent events/s)",
                r.ranks,
                equivalent_events as f64 / wall / 1e6
            );
        }
        None => print!("{json}"),
    }
}
