//! Host fingerprint: what was measured, on what. Printed with every
//! result set, so a figure from a host whose vCPUs share a core is
//! never read as a regression against a real multi-core host.

use std::hint::black_box;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use deep_json::Value;

/// Peak resident memory of a live process, MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
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

/// Calibrated raw parallel capacity: throughput of `nproc` threads
/// spinning at once ÷ throughput of one. A host with `n` real cores
/// reads close to `n`; vCPUs that share a core read near 1. Median of
/// three trials, measured in this invocation.
pub fn spin_ratio() -> f64 {
    const ITERS: u64 = 40_000_000;
    let n = nproc();
    let mut ratios = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        spin(ITERS);
        let one = t.elapsed().as_secs_f64();
        let t = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| spin(ITERS));
            }
        });
        let all = t.elapsed().as_secs_f64();
        ratios.push(n as f64 * one / all);
    }
    crate::stats::median(&ratios)
}

/// Hosts of the calibration kernel's fat tree, hosts per leaf switch,
/// and spine switches.
const REF_HOSTS: u32 = 262_144;
const REF_PER_LEAF: u32 = 18;
const REF_SPINES: u32 = 18;

/// Link state of the calibration kernel, one array per field.
struct RefLinks {
    bandwidth_bps: Vec<f64>,
    latency_ns: Vec<u64>,
    busy_until: Vec<u64>,
    busy_accum: Vec<u64>,
    bytes_carried: Vec<u64>,
    messages: Vec<u64>,
}

impl RefLinks {
    /// Book one message along `route` from `head`; returns when its
    /// last byte arrives.
    fn occupy(&mut self, route: &[usize], bytes: u64, head: u64) -> u64 {
        let (mut head, mut done) = (head, head);
        for &i in route {
            let start = head.max(self.busy_until[i]);
            let ser = (bytes as f64 / self.bandwidth_bps[i] * 1e9).round() as u64;
            self.busy_until[i] = start + ser;
            self.busy_accum[i] += ser;
            self.bytes_carried[i] += bytes;
            self.messages[i] += 1;
            done = done.max(start + ser + self.latency_ns[i]);
            head = start + self.latency_ns[i];
        }
        done
    }
}

/// Links from `src` to `dst`: host up, then leaf up and spine down
/// when the hosts sit on different leaves, then host down.
fn ref_route(src: u32, dst: u32, out: &mut Vec<usize>) {
    let trunk = |leaf: u32, spine: u32| (4 * REF_HOSTS + 2 * (leaf * REF_SPINES + spine)) as usize;
    out.clear();
    out.push(4 * src as usize);
    let (ls, ld) = (src / REF_PER_LEAF, dst / REF_PER_LEAF);
    if ls != ld {
        let spine = dst.wrapping_mul(2_654_435_761).wrapping_add(ls) % REF_SPINES;
        out.push(trunk(ls, spine));
        out.push(trunk(ld, spine) + 1);
    }
    out.push(4 * dst as usize + 1);
}

/// Host time of the calibration kernel, allocation included. Call it
/// through [`reference_in_child`].
///
/// The kernel is a frozen copy, in this file, of the work that sets
/// the DES's pace: `Network::schedule_batch` on a fat tree of 262,144
/// hosts as of this benchmark's first version — per message a route,
/// then per link the later of the head and the link's busy-until time,
/// an f64 serialisation time and four link-state counters — over both
/// halo directions and every other of 18 recursive-doubling rounds,
/// about half of one DES iteration. No change
/// to the crates changes it. On a host whose last-level cache and
/// memory are shared with other tenants it slows and speeds up with
/// the DES over minutes, so the ratio of the two holds still where
/// each alone does not.
pub fn reference_s() -> f64 {
    let t = Instant::now();
    let n = REF_HOSTS as usize;
    let leaves = REF_HOSTS.div_ceil(REF_PER_LEAF);
    let links = 4 * n + 2 * (leaves * REF_SPINES) as usize;
    let mut l = RefLinks {
        bandwidth_bps: vec![6.8e9; links],
        latency_ns: (0..links)
            .map(|i| if i < 4 * n { 170 } else { 220 })
            .collect(),
        busy_until: vec![0; links],
        busy_accum: vec![0; links],
        bytes_carried: vec![0; links],
        messages: vec![0; links],
    };
    let mut ready = vec![1000u64; n];
    let mut done = vec![0u64; n];
    let mut route = Vec::with_capacity(4);
    for dir in [1, n - 1] {
        for r in 0..n {
            ref_route(r as u32, ((r + dir) % n) as u32, &mut route);
            done[r] = l.occupy(&route, 4096, ready[r]);
        }
        for r in 0..n {
            ready[r] = ready[r].max(done[(r + n - dir) % n]);
        }
    }
    for k in (0..n.trailing_zeros()).step_by(2) {
        let x = 1usize << k;
        for r in 0..n {
            ref_route(r as u32, (r ^ x) as u32, &mut route);
            done[r] = l.occupy(&route, 8, ready[r]);
        }
        for r in 0..n {
            ready[r] = done[r].max(done[r ^ x]);
        }
    }
    black_box(ready.iter().copied().max());
    drop((l, ready, done));
    t.elapsed().as_secs_f64()
}

/// A thread spawned and handed one job, until the job starts: the
/// least any pool pays to start, in plain `std`, so that no change to
/// the crates changes it.
pub fn handoff_s() -> f64 {
    let t0 = Instant::now();
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    let worker = std::thread::spawn(move || {
        let _ = rx.recv();
        t0.elapsed().as_secs_f64()
    });
    let _ = tx.send(());
    worker.join().unwrap_or(f64::NAN)
}

/// [`reference_s`] in a child process (`perfbench --reference`), so
/// that the kernel's memory never counts in this process's peak RSS.
/// NaN when the child fails.
pub fn reference_in_child() -> f64 {
    std::env::current_exe()
        .and_then(|exe| Command::new(exe).arg("--reference").output())
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8_lossy(&out.stdout).trim().parse().ok())
        .unwrap_or(f64::NAN)
}

fn command_line(cmd: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a 64 over the paths and bytes of every source file the
/// benchmark builds, so a checkout without git history is still
/// identified by the code it measured.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for sub in ["crates", "vendor", "perfbench/src"] {
        walk(&root.join(sub), &mut files);
    }
    for f in ["Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml"] {
        files.push(root.join(f));
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(
            f.strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    deep_json::digest::fnv1a_64(&bytes)
}

/// The fingerprint as a JSON object.
pub fn fingerprint(root: &Path, spin_ratio: f64) -> String {
    let commit = command_line("git", &["rev-parse", "HEAD"], root).unwrap_or_else(|| "none".into());
    let rustc = command_line("rustc", &["-V"], root).unwrap_or_else(|| "unknown".into());
    deep_json::object([
        ("commit", Value::String(commit)),
        (
            "source_digest",
            Value::String(format!("{:016x}", source_digest(root))),
        ),
        ("rustc", Value::String(rustc)),
        ("nproc", (nproc() as u64).into()),
        ("spin_ratio", spin_ratio.into()),
    ])
    .to_json()
}
