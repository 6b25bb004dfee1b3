//! `suite`: every registry experiment, in the order `run_experiments`
//! starts them, each output compared byte for byte with
//! `docs/experiments/<id>.md`.
//!
//! The timed runs use a one-thread pool. On a host whose vCPUs
//! share cores, the capacity of a second thread comes and goes in
//! minute-long spells (the spin ratio in the fingerprint reads 1.0 in
//! one and 2.0 in the next), so a two-thread pass time is bimodal and
//! no bound can hold it. One thread still runs every experiment, the
//! kernel, psmpi, ompss and the pool's job machinery; the traced run
//! adds one `nproc`-wide pass for the pool's parallel figures.
//!
//! `run_experiments` starts one experiment per leaf, heaviest first;
//! on one thread that is the registry in that order, back to back.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use deep_bench::experiments::{self, Experiment};
use rayon::prelude::*;

use crate::stats::{self, Report};
use crate::Pins;

/// Experiments that get their own per-layer span; the rest are summed.
pub const HEAVY: [&str; 5] = [
    "a33_allreduce_algorithms",
    "f09_scalability",
    "f09b_fft",
    "f23b_dcholesky",
    "f25_offload",
];

/// One experiment span on one pool worker.
struct Span {
    exp: usize,
    worker: std::thread::ThreadId,
    start: f64,
    end: f64,
    /// Time spent in experiment spans nested inside this one on the
    /// same worker (a worker waiting in a join may run another
    /// experiment); subtracted to get self time.
    nested: f64,
}

/// One pass over the registry.
struct Pass {
    /// Pool build until the last output is ready.
    wall_s: f64,
    /// Per experiment (registry order): output or panic message.
    outputs: Vec<Result<String, String>>,
    spans: Vec<Span>,
}

thread_local! {
    /// Per experiment span open on this worker: time spent in spans
    /// nested inside it so far.
    static OPEN: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Registry indices heaviest first, as `run_experiments` starts them.
fn pass_order() -> Vec<usize> {
    let all = experiments::ALL;
    let mut order: Vec<usize> = (0..all.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(all[i].weight));
    order
}

fn run_pass(threads: usize, traced: bool) -> Pass {
    let all = experiments::ALL;
    let order = pass_order();
    let t0 = Instant::now();
    let spans = Mutex::new(Vec::new());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    let by_order: Vec<Result<String, String>> = pool.install(|| {
        order
            .par_iter()
            .with_max_len(1)
            .map(|&i| {
                let e: &Experiment = &all[i];
                let start = t0.elapsed().as_secs_f64();
                if traced {
                    OPEN.with(|o| o.borrow_mut().push(0.0));
                }
                let out = run_one(e);
                if traced {
                    let end = t0.elapsed().as_secs_f64();
                    let nested = OPEN.with(|o| {
                        let mut o = o.borrow_mut();
                        let nested = o.pop().expect("open span");
                        if let Some(parent) = o.last_mut() {
                            *parent += end - start;
                        }
                        nested
                    });
                    spans.lock().expect("span lock").push(Span {
                        exp: i,
                        worker: std::thread::current().id(),
                        start,
                        end,
                        nested,
                    });
                }
                out
            })
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    drop(pool);
    let mut outputs = vec![Ok(String::new()); all.len()];
    for (k, out) in by_order.into_iter().enumerate() {
        outputs[order[k]] = out;
    }
    Pass {
        wall_s,
        outputs,
        spans: spans.into_inner().expect("span lock"),
    }
}

/// The committed figure of every experiment, registry order. A doc may
/// end in a `regenerate:` hint naming the command that prints it; the
/// hint is documentation, not output, and is cut before comparing.
fn expected(root: &Path) -> Vec<Option<String>> {
    experiments::ALL
        .iter()
        .map(|e| {
            let doc = std::fs::read_to_string(root.join(format!("docs/experiments/{}.md", e.name)));
            let hint = format!(
                "\nregenerate: `cargo run --release -p deep-bench --bin {}`\n",
                e.name
            );
            doc.ok().map(|d| {
                d.strip_suffix(hint.as_str())
                    .map_or(d.clone(), str::to_string)
            })
        })
        .collect()
}

/// One figure, a panic caught as a failed output.
fn run_one(e: &Experiment) -> Result<String, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut out = String::new();
        (e.run)(&mut out);
        out
    }))
    .map_err(|_| format!("{} panicked", e.name))
}

fn check_one(i: usize, got: &Result<String, String>, want: &Option<String>, rep: &mut Report) {
    let name = experiments::ALL[i].name;
    rep.attempted += 1;
    match (got, want) {
        (Err(msg), _) => rep.mismatch(msg.clone()),
        (Ok(_), None) => rep.mismatch(format!("docs/experiments/{name}.md is missing")),
        (Ok(got), Some(want)) if got != want => {
            rep.mismatch(format!("{name} differs from docs/experiments/{name}.md"))
        }
        _ => {}
    }
}

fn check(pass: &Pass, want: &[Option<String>], rep: &mut Report) {
    for (i, (got, want)) in pass.outputs.iter().zip(want).enumerate() {
        check_one(i, got, want, rep);
    }
}

/// Pool width of the timed passes (see the module comment).
const THREADS: usize = 1;
/// Pool build until its first job starts: the set-up before the
/// first figure.
fn pool_setup_s() -> f64 {
    let t0 = Instant::now();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .expect("one-thread pool");
    pool.install(|| t0.elapsed().as_secs_f64())
}

/// Pool set-ups, each beside a thread hand-off, per run.
const SETUP_PROBES: usize = 40;
/// How often the calibration kernel runs between figures.
const REF_EVERY: Duration = Duration::from_secs(1);

/// Untraced: the registry in pass order (heaviest first) on one
/// one-thread pool, round after round, each figure checked, while the
/// next figure still fits in `budget` (at least two whole rounds); then
/// the psmpi/ompss probes once, for their pinned simulated times.
///
/// On one thread a pass is its figures back to back, so its time is
/// reported as the sum of each figure's median time. Host noise comes
/// in bursts of about a second; a median per figure drops a burst that
/// a median of three or four whole passes would keep, and runs of
/// figures use the budget that a last whole pass would not fit in.
/// The calibration kernel runs between figures about once a second,
/// and the pass time is reported at the recording host's speed, as in
/// `des::run`; the raw figure goes on the summary line. Before the
/// first figure the harness builds `SETUP_PROBES` pools, each beside a
/// plain thread hand-off (`host::handoff_s`); `setup_s` is the pool's
/// set-up at the recording host's thread-start speed. On a 2-vCPU VM a
/// thread start takes 10 µs or 15–25 µs for minutes at a time, with how
/// the hypervisor lends the second vCPU, and the pool's set-up follows
/// it. Between figures, with the heap and caches as a figure left them,
/// the same pool takes several times as long, so it is not sampled
/// there.
pub fn run(root: &Path, budget: Duration, pins: &Pins) -> Report {
    let mut rep = Report::new("suite");
    let want = expected(root);
    let all = experiments::ALL;
    let order = pass_order();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); all.len()];
    // Set-up before any figure has run, as a user meets it; each pool
    // beside a thread hand-off, the calibration for its host speed.
    let (setups, handoffs): (Vec<f64>, Vec<f64>) = (0..SETUP_PROBES)
        .map(|_| (pool_setup_s(), crate::host::handoff_s()))
        .unzip();
    let t0 = Instant::now();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .expect("one-thread pool");
    let mut refs = Vec::new();
    let mut last_ref: Option<Instant> = None;
    'rounds: for round in 0.. {
        for &i in &order {
            let longest = times[i].iter().copied().fold(0.0, f64::max);
            if round >= 2 && t0.elapsed().as_secs_f64() + longest > budget.as_secs_f64() {
                break 'rounds;
            }
            if last_ref.is_none_or(|t| t.elapsed() >= REF_EVERY) {
                refs.push(crate::host::reference_in_child());
                last_ref = Some(Instant::now());
            }
            let t = Instant::now();
            let out = pool.install(|| run_one(&all[i]));
            times[i].push(t.elapsed().as_secs_f64());
            check_one(i, &out, &want[i], &mut rep);
        }
    }
    drop(pool);
    let raw_s: f64 = times.iter().map(|t| stats::median(t)).sum();
    let pass_s = raw_s * pins.reference_s / stats::median(&refs);
    let rounds = times.iter().map(Vec::len).min().unwrap_or(0);
    rep.put("wall_s", pass_s, "s");
    let setup_s = stats::median(&setups) * pins.handoff_s / stats::median(&handoffs);
    rep.put("setup_s", setup_s, "s");
    rep.put("peak_rss_mb", crate::host::peak_rss_mb("self"), "MB");
    // A job is one whole pass: the user asked for the paper's figures.
    rep.latencies(&[pass_s], &[pass_s], pins.suite_limit_s, pass_s);
    rep.info("pool_threads", THREADS as f64, "count");
    rep.info("rounds", rounds as f64, "count");
    rep.info("wall_raw_s", raw_s, "s");
    rep.info("host.reference_s", stats::median(&refs), "s");
    rep.info("setup_raw_s", stats::median(&setups), "s");
    rep.info("host.handoff_s", stats::median(&handoffs), "s");
    crate::probes::measure(pins, &mut rep, false);
    rep
}

/// Traced profile: one untraced pass for the overhead baseline and one
/// traced pass with one span per experiment, both as timed; one traced
/// `nproc`-wide pass for the pool's figures; then the psmpi/ompss
/// probes.
pub fn profile(root: &Path, nproc: usize, pins: &Pins) -> Report {
    let mut rep = Report::new("suite");
    let want = expected(root);
    let untraced = run_pass(THREADS, false);
    check(&untraced, &want, &mut rep);
    let pass = run_pass(THREADS, true);
    check(&pass, &want, &mut rep);
    let wide = run_pass(nproc, true);
    check(&wide, &want, &mut rep);

    let all = experiments::ALL;
    let mut heavy = [0.0f64; HEAVY.len()];
    let mut rest = 0.0;
    for s in &pass.spans {
        let self_s = s.end - s.start - s.nested;
        match HEAVY.iter().position(|&h| h == all[s.exp].name) {
            Some(k) => heavy[k] += self_s,
            None => rest += self_s,
        }
    }
    for (name, s) in HEAVY.iter().zip(heavy) {
        rep.put(&format!("experiments.{name}.s"), s, "s");
    }
    rep.put("experiments.rest.s", rest, "s");
    let mut selfs: Vec<f64> = heavy.to_vec();
    selfs.push(rest);
    rep.account("suite", pass.wall_s, untraced.wall_s, THREADS, &selfs);

    // The wide pass: busy share of the pool's thread-seconds, and how
    // long the pool ran after its first worker ran out of experiments.
    let busy: f64 = wide.spans.iter().map(|s| s.end - s.start - s.nested).sum();
    rep.put(
        "rayon.busy_frac",
        busy / (nproc as f64 * wide.wall_s),
        "ratio",
    );
    let mut last_end: Vec<(std::thread::ThreadId, f64)> = Vec::new();
    for s in &wide.spans {
        match last_end.iter_mut().find(|(w, _)| *w == s.worker) {
            Some((_, e)) => *e = e.max(s.end),
            None => last_end.push((s.worker, s.end)),
        }
    }
    // A worker that never ran an experiment finished at t = 0.
    let first_done = if last_end.len() < nproc {
        0.0
    } else {
        last_end
            .iter()
            .map(|&(_, e)| e)
            .fold(f64::INFINITY, f64::min)
    };
    rep.put("rayon.tail_idle_s", wide.wall_s - first_done, "s");
    rep.info("rayon.wide_wall_s", wide.wall_s, "s");
    crate::probes::measure(pins, &mut rep, true);
    rep
}
