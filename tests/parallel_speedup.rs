//! Parallelism must *pay*: the N-thread Monte-Carlo sweep may never be
//! slower than the 1-thread run on a multi-core host.
//!
//! This is the test-suite twin of the `bench_report` speedup gate (which
//! fails the committed report when `suite_speedup_vs_1thread < 1.0` on a
//! wide host): CI's regular `cargo test` catches a scheduler regression
//! the moment it lands, instead of at the next bench refresh. The
//! workload is the same unit `benches/sweep.rs` commits to
//! BENCH_engine.json — full multi-level checkpoint/restart replicas,
//! sized so one replica is milliseconds of simulation and the pool's
//! per-task overhead is invisible against the grain.
//!
//! The wall-clock assertion only has teeth where the host can run
//! threads in parallel at all. The test measures that first: the same
//! total spin-loop work on one thread and split across `n` threads
//! (min of three each). Below 1.5× raw capacity — one core, or vCPUs
//! that share a core — the wall-clock half is skipped with the reason
//! printed. The bit-identity assertion always runs: width must never
//! change results anywhere.

// deep-lint: allow(ambient-authority) — this test *measures* host wall
// clock on purpose: it gates scheduler overhead, not simulated time.
use std::time::{Duration, Instant};

use std::hint::black_box;

use deep_core::{mean_multilevel_efficiency, LevelCost, MultiLevelParams};
use rayon::{ThreadPool, ThreadPoolBuilder};

const REPLICAS: u32 = 64;

/// Raw parallel capacity below which a wall-clock speedup is not
/// expected, so not asserted.
const MIN_CAPACITY: f64 = 1.5;

/// Same shape as `benches/sweep.rs`: heavy enough that fork/join cost
/// cannot dominate, light enough for a test.
fn params() -> MultiLevelParams {
    MultiLevelParams {
        work_s: 100_000.0,
        n_nodes: 64,
        mtbf_node_s: 40_000.0,
        interval_s: 10.0,
        levels: [
            LevelCost {
                write_s: 0.5,
                restore_s: 0.5,
            },
            LevelCost {
                write_s: 2.0,
                restore_s: 2.0,
            },
            LevelCost {
                write_s: 8.0,
                restore_s: 6.0,
            },
        ],
        l2_every: 2,
        l3_every: 4,
        restart_s: 30.0,
        severity_weights: [0.6, 0.3, 0.1],
    }
}

/// Minimum wall over `rounds` runs of `f` — min, not mean, because
/// load spikes only ever add time.
fn min_wall(rounds: u32, f: impl Fn()) -> Duration {
    (0..rounds)
        .map(|_| {
            // deep-lint: allow(ambient-authority) — wall clock is the measurand here.
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .unwrap()
}

/// A fixed amount of integer work that no optimiser can fold away.
fn spin(iters: u64) -> u64 {
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..iters {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        x ^= x >> 29;
    }
    black_box(x)
}

/// The host's raw parallel capacity for `n` threads: wall time of a
/// fixed spin-loop total on one thread ÷ wall time of the same total
/// split across `n` threads, each side the min of three runs. `n` real
/// cores read close to `n`; vCPUs that share a core read near 1.
fn parallel_capacity(n: usize) -> (f64, Duration, Duration) {
    const TOTAL: u64 = 60_000_000;
    let per_thread = TOTAL / n as u64;
    let one = min_wall(3, || {
        spin(per_thread * n as u64);
    });
    let all = min_wall(3, || {
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| spin(per_thread));
            }
        });
    });
    (one.as_secs_f64() / all.as_secs_f64(), one, all)
}

#[test]
fn nthread_sweep_is_never_slower_than_serial_on_multicore() {
    let n = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let p = params();
    let one = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    let full = ThreadPoolBuilder::new().num_threads(n).build().unwrap();

    // Width must not change the answer, on any host.
    let r1 = one.install(|| mean_multilevel_efficiency(&p, 11, REPLICAS));
    let rn = full.install(|| mean_multilevel_efficiency(&p, 11, REPLICAS));
    assert_eq!(
        r1.efficiency.to_bits(),
        rn.efficiency.to_bits(),
        "thread count changed the Monte-Carlo result"
    );

    if n < 2 {
        eprintln!("1-core host: skipping the wall-clock half of the speedup gate");
        return;
    }
    let (capacity, spin_1, spin_n) = parallel_capacity(n);
    eprintln!(
        "raw parallel capacity: {n} spinning threads run {capacity:.2}x one \
         thread ({spin_n:?} vs {spin_1:?})"
    );
    if capacity < MIN_CAPACITY {
        eprintln!("below {MIN_CAPACITY}x: skipping the wall-clock half of the speedup gate");
        return;
    }

    let sweep = |pool: &ThreadPool| {
        min_wall(3, || {
            pool.install(|| mean_multilevel_efficiency(&p, 11, REPLICAS));
        })
    };
    let wall_1 = sweep(&one);
    let wall_n = sweep(&full);
    let speedup = wall_1.as_secs_f64() / wall_n.as_secs_f64();
    eprintln!("{n}-thread sweep: {speedup:.2}x the 1-thread wall ({wall_n:?} vs {wall_1:?})");
    assert!(
        speedup >= 1.0,
        "parallel regression: {n}-thread sweep is {speedup:.2}x the 1-thread \
         wall ({wall_n:?} vs {wall_1:?}) on a host with {capacity:.2}x raw \
         capacity — the scheduler is costing more than it delivers"
    );
}
