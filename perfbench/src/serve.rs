//! `serve_mix`: an open loop against the `deep-serve` daemon.
//!
//! Independent users, so the loop is open: arrivals follow a schedule
//! drawn from `--seed` (a Poisson process conditioned on its count) and
//! each job's latency runs from its *due* time, so a stalled generator
//! shows up as latency, and how late sends ran is reported beside it.
//! The generator sends on one connection and waits for queued jobs on
//! watcher connections (`watcher`); the daemon sees only HTTP bodies.
//!
//! The jobs are those of the repository's own daemon benchmark,
//! `serve_bench` (`crates/serve/src/bin/serve_bench.rs`): one sweep
//! point of 640 nodes and 2 replicas per job, a distinct checkpoint
//! interval per body, and every body sent once cold (a miss) and once
//! warm (a hit). Here its 16 bodies are sent cold before timing; the
//! timed jobs are half repeats of them (its warm phase, cache hits)
//! and half new bodies of the same shape (its cold phase, misses that
//! execute and fill the cache).
//!
//! After the timed jobs, every valid scenario fixture that fits an
//! interactive job is submitted once under a fresh seed. Nothing in
//! the repository says how often users send scenarios, so they are
//! checked, not timed.
//!
//! Every result is compared with the harness's own evaluation of the
//! same spec (`deep_core::mean_efficiency`, `deep_scenario::execute`).

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use deep_core::resilience::{mean_efficiency, ResilienceParams};
use deep_json::{object, Value};
use deep_serve::client::{ServeClient, Submitted};
use deep_simkit::SimRng;

use crate::stats::{self, Report};
use crate::Pins;

/// Offered load, jobs per second. This is a stability choice, not a
/// traffic figure: nothing in the repository says how fast users
/// send. It keeps the daemon nearly idle, so a job's latency is its
/// own path through the daemon rather than queueing, which moves with
/// the host's spare vCPU capacity.
const RATE: f64 = 12.0;
/// `serve_bench`'s split: each of its bodies is sent cold once and
/// warm once.
const P_HIT: f64 = 0.5;
/// `serve_bench`'s bodies (`JOBS`), the hot set here.
const HOT: usize = 16;
const REPLICAS: u64 = 2;
/// Daemon starts per run; `setup_s` is their median.
const STARTS: usize = 5;
/// Valid scenario fixtures cheap enough for an interactive job (the
/// two f03b-sized ones take 0.1–0.2 s each and are left out).
const FIXTURES: [&str; 11] = [
    "valid_bit_identity_small",
    "valid_faults_events",
    "valid_inline_tables",
    "valid_machine_overrides",
    "valid_minimal_app",
    "valid_scalability_sweep",
    "valid_sweep_grid",
    "valid_sweep_multi_axis",
    "valid_trace_backfill",
    "valid_trace_failures",
    "valid_trace_small",
];

#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Hit,
    Miss,
}

struct Job {
    due: f64,
    kind: Kind,
    body: String,
    /// The spec the daemon should evaluate (`JobSpec` JSON).
    spec: Value,
}

/// What the generator saw for one job.
#[derive(Default, Clone)]
struct Seen {
    latency: Option<f64>,
    lag: f64,
    result: Option<Value>,
    service_ms: Option<f64>,
    submit_rtt: f64,
    fetch_rtt: Option<f64>,
}

/// Every sweep point of the mix shares `serve_bench`'s parameters,
/// and only the checkpoint interval differs.
fn sweep_point() -> ResilienceParams {
    ResilienceParams {
        work_s: 5000.0,
        n_nodes: 640,
        mtbf_node_s: 157_680_000.0,
        checkpoint_s: 120.0,
        restart_s: 300.0,
    }
}

/// `serve_bench`'s interval for body `k`.
fn hot_interval(k: usize) -> f64 {
    600.0 + 60.0 * k as f64
}

fn sweep_spec(sweep_seed: u64, interval_s: f64) -> Value {
    let p = sweep_point();
    object([(
        "sweep",
        object([
            ("seed", sweep_seed.into()),
            ("replicas", REPLICAS.into()),
            (
                "points",
                Value::Array(vec![object([
                    ("work_s", p.work_s.into()),
                    ("n_nodes", p.n_nodes.into()),
                    ("mtbf_node_s", p.mtbf_node_s.into()),
                    ("checkpoint_s", p.checkpoint_s.into()),
                    ("restart_s", p.restart_s.into()),
                    ("interval_s", interval_s.into()),
                ])]),
            ),
        ]),
    )])
}

fn body(client: &str, spec: &Value) -> String {
    let mut members = vec![("client".to_string(), Value::String(client.to_string()))];
    if let Value::Object(kv) = spec {
        members.extend(kv.iter().cloned());
    }
    Value::Object(members).to_json()
}

/// The fixture documents as JSON (the image `deep-serve` accepts).
fn fixtures(root: &Path) -> Vec<Value> {
    FIXTURES
        .iter()
        .map(|f| {
            let path = root.join(format!("tests/scenario_fixtures/{f}.toml"));
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            deep_scenario::parse_toml(&text).unwrap_or_else(|e| panic!("{f}: {e}"))
        })
        .collect()
}

/// `doc` with `[scenario] seed` replaced, so the digest is fresh.
fn reseed(doc: &Value, seed: u64) -> Value {
    let Value::Object(top) = doc else {
        return doc.clone();
    };
    let top = top
        .iter()
        .map(|(k, v)| match (k.as_str(), v) {
            ("scenario", Value::Object(kv)) => {
                let mut kv: Vec<(String, Value)> =
                    kv.iter().filter(|(k, _)| k != "seed").cloned().collect();
                kv.push(("seed".to_string(), seed.into()));
                (k.clone(), Value::Object(kv))
            }
            _ => (k.clone(), v.clone()),
        })
        .collect();
    Value::Object(top)
}

/// The seeded schedule and mix. `first` offsets miss identities so
/// that two passes on one daemon never share a digest.
struct Mix {
    hot: Vec<Value>,
    jobs: Vec<Job>,
}

fn make_mix(seed: u64, first: usize, window_s: f64) -> Mix {
    let mut rng = SimRng::from_seed_stream(seed, 0x5e7e);
    let sweep_seed = 1 + seed % 1000;
    let hot: Vec<Value> = (0..HOT)
        .map(|k| sweep_spec(sweep_seed, hot_interval(k)))
        .collect();
    let n = (RATE * window_s).round() as usize;
    let mut dues: Vec<f64> = (0..n).map(|_| rng.gen_f64() * window_s).collect();
    dues.sort_by(f64::total_cmp);
    let jobs = dues
        .into_iter()
        .enumerate()
        .map(|(i, due)| {
            let id = first + i;
            let u = rng.gen_f64();
            let (kind, spec) = if u < P_HIT {
                (Kind::Hit, hot[rng.gen_range(0..HOT)].clone())
            } else {
                // One of serve_bench's intervals plus a millisecond per
                // id: distinct per id, and never a hot interval while
                // ids stay below 60,000.
                let k = rng.gen_range(0..HOT);
                let interval = hot_interval(k) + 1e-3 * (id + 1) as f64;
                (Kind::Miss, sweep_spec(sweep_seed, interval))
            };
            Job {
                due,
                kind,
                body: body("mix", &spec),
                spec,
            }
        })
        .collect();
    Mix { hot, jobs }
}

struct Daemon {
    child: Child,
    addr: String,
}

/// Start the daemon; returns it with the time from spawn until the
/// first `/healthz` 200.
fn start(bin: &Path, threads: usize) -> Result<(Daemon, f64), String> {
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .args(["--addr", "127.0.0.1:0", "--threads", &threads.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut line = String::new();
    let stdout = child.stdout.take().expect("piped stdout");
    BufReader::new(stdout)
        .read_line(&mut line)
        .map_err(|e| format!("daemon stdout: {e}"))?;
    let mut daemon = Daemon {
        child,
        addr: String::new(),
    };
    let Some(addr) = line.trim().strip_prefix("deep-serve listening on ") else {
        stop(&mut daemon);
        return Err(format!("unexpected daemon banner {line:?}"));
    };
    daemon.addr = addr.to_string();
    loop {
        if let Ok(mut c) = ServeClient::connect(&daemon.addr) {
            if c.healthz().is_ok() {
                return Ok((daemon, t0.elapsed().as_secs_f64()));
            }
        }
        if t0.elapsed() > Duration::from_secs(10) {
            stop(&mut daemon);
            return Err("daemon not healthy after 10 s".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Drain the daemon with SIGTERM (SIGKILL after 10 s) and reap it.
fn stop(d: &mut Daemon) {
    let pid = d.child.id().to_string();
    let _ = Command::new("kill").args(["-TERM", &pid]).status();
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(10) {
        if let Ok(Some(_)) = d.child.try_wait() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = d.child.kill();
    let _ = d.child.wait();
}

/// `deep_serve_*` counters from `/metrics`.
fn counters(c: &mut ServeClient) -> Vec<(String, f64)> {
    c.metrics()
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let (k, v) = l.split_once(' ')?;
            Some((
                k.trim_start_matches("deep_serve_").to_string(),
                v.trim().parse().ok()?,
            ))
        })
        .collect()
}

fn delta(before: &[(String, f64)], after: &[(String, f64)], key: &str) -> f64 {
    let get = |xs: &[(String, f64)]| xs.iter().find(|(k, _)| k == key).map_or(0.0, |&(_, v)| v);
    get(after) - get(before)
}

/// Submit and wait, for the warm-up and the hot set.
fn submit_and_wait(c: &mut ServeClient, body: &str) -> Result<Value, String> {
    let job = c.submit_and_wait(body, 10).map_err(|e| e.to_string())?;
    if job["state"].as_str() != Some("done") {
        return Err(format!("job did not finish: {}", job.to_json()));
    }
    Ok(job["result"].clone())
}

/// One open-loop pass. The generator times every HTTP call it makes
/// (it needs each receive time for latency anyway), so these client
/// spans cost a traced pass nothing an untraced one does not pay.
struct Pass {
    seen: Vec<Seen>,
    /// Schedule origin until the last result.
    wall_s: f64,
    /// Time inside the generator's HTTP calls.
    http_s: f64,
    /// Time the generator waited for a due send or a watcher.
    idle_s: f64,
    rejected: u64,
}

/// A watcher's report: job index, daemon id, and whether the event
/// stream reached the job's terminal event.
type Watched = (usize, u64, Result<(), String>);

/// Waits for queued jobs as `deep-submit --watch` does: the job's
/// `/jobs/<id>/events` stream on a second connection, to the terminal
/// event; the generator then fetches the result on its own connection.
/// The watcher connects before it is handed a job, because the
/// daemon's accept loop looks for new connections only every 20 ms.
fn watcher(addr: String, todo: Arc<Mutex<Receiver<(usize, u64)>>>, done: Sender<Watched>) {
    loop {
        let conn = ServeClient::connect(&addr).map_err(|e| format!("watcher connect: {e}"));
        let Ok((i, id)) = todo.lock().expect("watch queue").recv() else {
            return;
        };
        let r = conn.and_then(|w| {
            w.watch_events(id, |_| {})
                .map_err(|e| format!("event stream: {e}"))
        });
        if done.send((i, id, r)).is_err() {
            return;
        }
    }
}

/// Longest the generator waits on its watchers once every job is sent.
const WATCH_GUARD: Duration = Duration::from_secs(30);

/// Send `jobs` on their schedule over `c`; `watchers` connections to
/// `addr` wait for the queued ones.
fn load(addr: &str, c: &mut ServeClient, jobs: &[Job], watchers: usize, rep: &mut Report) -> Pass {
    let mut seen = vec![Seen::default(); jobs.len()];
    let (mut http_s, mut idle_s, mut rejected) = (0.0, 0.0, 0u64);
    let (mut next, mut in_flight) = (0, 0usize);
    let mut last_done = 0.0f64;
    let (todo_tx, todo_rx) = mpsc::channel::<(usize, u64)>();
    let (done_tx, done_rx) = mpsc::channel::<Watched>();
    let todo_rx = Arc::new(Mutex::new(todo_rx));
    let handles: Vec<_> = (0..watchers)
        .map(|_| {
            let (addr, todo, done) = (addr.to_string(), Arc::clone(&todo_rx), done_tx.clone());
            std::thread::spawn(move || watcher(addr, todo, done))
        })
        .collect();
    let t0 = Instant::now();
    let now = || t0.elapsed().as_secs_f64();
    loop {
        let t = now();
        if next < jobs.len() && jobs[next].due <= t {
            let i = next;
            next += 1;
            seen[i].lag = t - jobs[i].due;
            let r = c.submit_raw(&jobs[i].body);
            let t_recv = now();
            seen[i].submit_rtt = t_recv - t;
            http_s += t_recv - t;
            match r {
                Ok(Submitted::Job(v)) if v["state"].as_str() == Some("done") => {
                    seen[i].latency = Some(t_recv - jobs[i].due);
                    seen[i].result = Some(v["result"].clone());
                    last_done = last_done.max(t_recv);
                }
                Ok(Submitted::Job(v)) => match v["id"].as_u64() {
                    Some(id) => {
                        todo_tx.send((i, id)).expect("watchers run");
                        in_flight += 1;
                    }
                    None => rep.fail(format!("job {i}: no id in {}", v.to_json())),
                },
                Ok(Submitted::Backoff { status, .. }) => {
                    rejected += 1;
                    rep.fail(format!("job {i}: refused with HTTP {status}"));
                }
                Err(e) => rep.fail(format!("job {i}: {e}")),
            }
            continue;
        }
        if next == jobs.len() && in_flight == 0 {
            break;
        }
        let wait = jobs.get(next).map_or(WATCH_GUARD, |j| {
            Duration::from_secs_f64((j.due - t).max(0.0))
        });
        let ts = Instant::now();
        let watched = done_rx.recv_timeout(wait);
        idle_s += ts.elapsed().as_secs_f64();
        match watched {
            Ok((i, id, Ok(()))) => {
                in_flight -= 1;
                let t = now();
                let r = c.job(id);
                let t_recv = now();
                http_s += t_recv - t;
                match r {
                    Ok(v) if v["state"].as_str() == Some("done") => {
                        seen[i].latency = Some(t_recv - jobs[i].due);
                        seen[i].fetch_rtt = Some(t_recv - t);
                        seen[i].service_ms = v["service_micros"].as_f64().map(|us| us / 1e3);
                        seen[i].result = Some(v["result"].clone());
                        last_done = last_done.max(t_recv);
                    }
                    Ok(v) => rep.fail(format!("job {i} did not finish: {}", v.to_json())),
                    Err(e) => rep.fail(format!("job {i}: fetch: {e}")),
                }
            }
            Ok((i, _, Err(e))) => {
                in_flight -= 1;
                rep.fail(format!("job {i}: {e}"));
            }
            Err(_) if next == jobs.len() => {
                rep.fail(format!("{in_flight} jobs unfinished after {WATCH_GUARD:?}"));
                break;
            }
            Err(_) => {}
        }
    }
    // Watchers waiting for work see the queue close and return. After
    // the guard ran out some may still be streaming; they end when the
    // daemon is stopped, so they are left rather than joined.
    drop(todo_tx);
    if in_flight == 0 {
        for h in handles {
            let _ = h.join();
        }
    }
    Pass {
        seen,
        wall_s: last_done,
        http_s,
        idle_s,
        rejected,
    }
}

/// Round-trip a value through the wire format, so a comparison with a
/// received result is exact to the byte.
fn wire(v: &Value) -> Value {
    deep_json::from_str(&v.to_json()).expect("own JSON parses")
}

/// The harness's own evaluation of a sweep spec, and its host time.
fn direct_sweep(spec: &Value) -> (Value, f64) {
    let s = &spec["sweep"];
    let seed = s["seed"].as_u64().expect("sweep seed");
    let replicas = s["replicas"].as_u64().expect("replicas") as u32;
    let pt = &s["points"][0];
    let interval = pt["interval_s"].as_f64().expect("interval");
    let p = sweep_point();
    let t = Instant::now();
    let m = mean_efficiency(&p, interval, seed, replicas);
    let dt = t.elapsed().as_secs_f64();
    let v = object([(
        "points",
        Value::Array(vec![object([
            ("efficiency", m.efficiency.into()),
            ("truncated_runs", m.truncated_runs.into()),
        ])]),
    )]);
    (wire(&v), dt)
}

fn direct_scenario(spec: &Value) -> Result<Value, String> {
    let sc = deep_scenario::Scenario::from_value(&spec["scenario"])?;
    Ok(wire(&deep_scenario::execute(&sc)))
}

/// Compare every result with the harness's evaluation; returns the
/// host time of each miss's direct evaluation (job index, seconds).
/// Evaluations run one at a time after the timed pass, so each host
/// time is one thread's work, as the daemon's `service_micros` is.
fn verify(mix: &Mix, hot_want: &[Value], pass: &Pass, rep: &mut Report) -> Vec<(usize, f64)> {
    let mut direct_s = Vec::new();
    for (i, (job, seen)) in mix.jobs.iter().zip(&pass.seen).enumerate() {
        rep.attempted += 1;
        // A job without a result was already counted as failed.
        let Some(got) = &seen.result else {
            continue;
        };
        let want = match job.kind {
            Kind::Hit => {
                let k = mix
                    .hot
                    .iter()
                    .position(|h| *h == job.spec)
                    .expect("hot spec");
                hot_want[k].clone()
            }
            Kind::Miss => {
                let (v, dt) = direct_sweep(&job.spec);
                direct_s.push((i, dt));
                v
            }
        };
        if want != *got {
            rep.mismatch(format!(
                "job {i}: {:?} result differs from direct evaluation",
                job.kind
            ));
        }
    }
    direct_s
}

/// Submit every fixture once under a fresh seed and compare each result
/// with `deep_scenario::execute` of the same document. Not timed.
fn check_scenarios(c: &mut ServeClient, root: &Path, seed: u64, rep: &mut Report) {
    for (k, doc) in fixtures(root).iter().enumerate() {
        rep.attempted += 1;
        let fresh = 1_000_000 + (seed % 1_000_000) * 16 + k as u64;
        let spec = object([("scenario", reseed(doc, fresh))]);
        let name = FIXTURES[k];
        match (
            submit_and_wait(c, &body("scenario", &spec)),
            direct_scenario(&spec),
        ) {
            (Ok(got), Ok(want)) if got == want => {}
            (Ok(_), Ok(_)) => rep.mismatch(format!(
                "scenario {name}: result differs from direct evaluation"
            )),
            (Err(e), _) => rep.fail(format!("scenario {name}: {e}")),
            (_, Err(e)) => rep.mismatch(format!("scenario {name}: direct evaluation failed: {e}")),
        }
    }
}

/// Warm the hot set (cache filled before timing) and return the
/// harness's own results for it.
fn warm(c: &mut ServeClient, mix: &Mix, rep: &mut Report) -> Vec<Value> {
    let mut want = Vec::new();
    for spec in &mix.hot {
        rep.attempted += 1;
        let (direct, _) = direct_sweep(spec);
        match submit_and_wait(c, &body("warm", spec)) {
            Ok(got) if got == direct => {}
            Ok(_) => rep.mismatch("hot-set result differs from direct evaluation".into()),
            Err(e) => rep.fail(format!("hot-set warm-up: {e}")),
        }
        want.push(direct);
    }
    want
}

/// Latencies of the jobs of one kind, or of all jobs.
fn latencies(mix: &Mix, pass: &Pass, kind: Option<Kind>) -> Vec<f64> {
    mix.jobs
        .iter()
        .zip(&pass.seen)
        .filter(|(j, _)| kind.is_none_or(|k| j.kind == k))
        .filter_map(|(_, s)| s.latency)
        .collect()
}

fn lag_p99_ms(pass: &Pass) -> f64 {
    let lags: Vec<f64> = pass.seen.iter().map(|s| s.lag).collect();
    stats::percentile(&lags, 0.99) * 1e3
}

/// Watcher connections: one per vCPU besides the generator's, at
/// least one.
fn watchers(threads: usize) -> usize {
    threads.saturating_sub(1).max(1)
}

/// Start the daemon `STARTS` times; keep the last one running.
fn start_daemons(bin: &Path, threads: usize) -> Result<(Daemon, f64), String> {
    let mut setups = Vec::new();
    for k in 0..STARTS {
        let (mut d, s) = start(bin, threads)?;
        setups.push(s);
        if k + 1 == STARTS {
            return Ok((d, stats::median(&setups)));
        }
        stop(&mut d);
    }
    unreachable!("STARTS >= 1")
}

/// Seconds of offered load in each pass of the traced profile.
const TRACED_WINDOW_S: f64 = 6.0;

/// Seconds of offered load in an untraced run of `budget`: the rest
/// covers daemon starts, warm-up and the verification afterwards.
fn window(budget: Duration) -> f64 {
    budget.as_secs_f64() * 0.75
}

/// Untraced run.
pub fn run(bin: &Path, seed: u64, budget: Duration, threads: usize, pins: &Pins) -> Report {
    let mut rep = Report::new("serve_mix");
    let root = std::env::current_dir().expect("current directory");
    let (mut d, setup_s) = match start_daemons(bin, threads) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: serve_mix: {e}");
            std::process::exit(1);
        }
    };
    let mix = make_mix(seed, 0, window(budget));
    let mut c = ServeClient::connect(&d.addr).expect("connect to daemon");
    let hot_want = warm(&mut c, &mix, &mut rep);
    let pass = load(&d.addr, &mut c, &mix.jobs, watchers(threads), &mut rep);
    let rss = crate::host::peak_rss_mb(&d.child.id().to_string());
    check_scenarios(&mut c, &root, seed, &mut rep);
    drop(c);
    stop(&mut d);
    verify(&mix, &hot_want, &pass, &mut rep);
    rep.put("wall_s", pass.wall_s, "s");
    rep.put("setup_s", setup_s, "s");
    rep.put("peak_rss_mb", rss, "MB");
    let misses = latencies(&mix, &pass, Some(Kind::Miss));
    rep.latencies(
        &latencies(&mix, &pass, None),
        &misses,
        pins.serve_limit_s,
        pass.wall_s,
    );
    rep.info(
        "hit_latency_p50_ms",
        stats::median(&latencies(&mix, &pass, Some(Kind::Hit))) * 1e3,
        "ms",
    );
    rep.info("serve.generator_lag_ms", lag_p99_ms(&pass), "ms");
    rep.info("offered_jobs_per_s", RATE, "jobs/s");
    rep
}

/// Traced profile: a pass for the overhead baseline, then the traced
/// pass with the daemon's counters read around it.
pub fn profile(bin: &Path, seed: u64, threads: usize, pins: &Pins) -> Report {
    let mut rep = Report::new("serve_mix");
    let root = std::env::current_dir().expect("current directory");
    let (mut d, _) = match start(bin, threads) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: serve_mix: {e}");
            std::process::exit(1);
        }
    };
    let base = make_mix(seed, 0, TRACED_WINDOW_S);
    let mix = make_mix(seed, base.jobs.len(), TRACED_WINDOW_S);
    let mut c = ServeClient::connect(&d.addr).expect("connect to daemon");
    let hot_want = warm(&mut c, &base, &mut rep);
    let w = watchers(threads);
    let untraced = load(&d.addr, &mut c, &base.jobs, w, &mut rep);
    let before = counters(&mut c);
    let pass = load(&d.addr, &mut c, &mix.jobs, w, &mut rep);
    let after = counters(&mut c);
    check_scenarios(&mut c, &root, seed, &mut rep);
    drop(c);
    stop(&mut d);
    verify(&base, &hot_want, &untraced, &mut rep);
    let direct = verify(&mix, &hot_want, &pass, &mut rep);
    for l in latencies(&base, &untraced, None)
        .into_iter()
        .chain(latencies(&mix, &pass, None))
    {
        if l > pins.serve_limit_s {
            rep.fail(format!("job took {:.1} ms, over the limit", l * 1e3));
        }
    }

    let of = |k: Kind| -> Vec<&Seen> {
        mix.jobs
            .iter()
            .zip(&pass.seen)
            .filter(|(j, s)| j.kind == k && s.latency.is_some())
            .map(|(_, s)| s)
            .collect()
    };
    let us = |xs: Vec<f64>| stats::median(&xs) * 1e6;
    let hits = of(Kind::Hit);
    let misses = of(Kind::Miss);
    let queued: Vec<&Seen> = pass.seen.iter().filter(|s| s.fetch_rtt.is_some()).collect();
    rep.put(
        "serve.hit_rtt_us",
        us(hits.iter().map(|s| s.submit_rtt).collect()),
        "us",
    );
    rep.put(
        "serve.submit_rtt_us",
        us(queued.iter().map(|s| s.submit_rtt).collect()),
        "us",
    );
    rep.put(
        "serve.fetch_us",
        us(queued.iter().filter_map(|s| s.fetch_rtt).collect()),
        "us",
    );
    rep.put(
        "serve.service_ms",
        stats::median(
            &misses
                .iter()
                .filter_map(|s| s.service_ms)
                .collect::<Vec<_>>(),
        ),
        "ms",
    );
    let waits: Vec<f64> = direct
        .iter()
        .filter_map(|&(i, dt)| pass.seen[i].service_ms.map(|ms| ms - dt * 1e3))
        .collect();
    rep.put("serve.queue_wait_ms", stats::median(&waits), "ms");
    let direct_ms: Vec<f64> = direct.iter().map(|&(_, dt)| dt * 1e3).collect();
    rep.put("core.mean_efficiency_ms", stats::median(&direct_ms), "ms");
    let submitted = delta(&before, &after, "jobs_submitted_total");
    let cache_hits = delta(&before, &after, "jobs_cache_hits_total");
    let batches = delta(&before, &after, "batches_total");
    rep.put(
        "serve.cache_hit_ratio",
        cache_hits / submitted.max(1.0),
        "ratio",
    );
    rep.put(
        "serve.batch_jobs_mean",
        (submitted - cache_hits) / batches.max(1.0),
        "ratio",
    );
    rep.put("serve.rejected", pass.rejected as f64, "count");
    rep.put("serve.generator_lag_ms", lag_p99_ms(&pass), "ms");
    rep.put("serve.self_s", pass.http_s, "s");
    rep.put("serve_mix.idle_s", pass.idle_s, "s");

    // json layers over the mix's own request bodies, scenario over
    // every fixture the scenario check submits.
    let (mut parse, mut digest, mut compile) = (Vec::new(), Vec::new(), Vec::new());
    for job in &mix.jobs {
        let t = Instant::now();
        let v = deep_json::from_str(&job.body).expect("own body parses");
        parse.push(t.elapsed().as_secs_f64());
        std::hint::black_box(&v);
        let t = Instant::now();
        std::hint::black_box(deep_json::digest::digest(&job.spec));
        digest.push(t.elapsed().as_secs_f64());
    }
    for doc in fixtures(&root) {
        let t = Instant::now();
        let sc = deep_scenario::Scenario::from_value(&doc);
        compile.push(t.elapsed().as_secs_f64());
        std::hint::black_box(sc.is_ok());
    }
    rep.put("json.parse_us", us(parse), "us");
    rep.put("json.digest_us", us(digest), "us");
    rep.put("scenario.compile_us", us(compile), "us");
    rep.account(
        "serve_mix",
        pass.wall_s,
        untraced.wall_s,
        1,
        &[pass.http_s, pass.idle_s],
    );
    rep
}
