//! `des_spmv_262k`: the f09 HSCP tail as a full DES — SpMV class,
//! 262,144 ranks, single thread.
//!
//! The untraced run calls `deep_bench::des_scaling::run` itself. The
//! traced run cannot put spans inside that function, so [`run_traced`]
//! replays its call stream: the same public `Simulation`, `Barrier` and
//! `IbFabric::network().schedule_batch` calls in the same order, with a
//! span around every fabric call and every block of SoA merge work. Its
//! digest must equal the library's — that equality is what shows the
//! spans time the same program.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use deep_bench::des_scaling::{self, DesScalingConfig, A2A_BLOCK, COMPUTE, HALO_BYTES};
use deep_fabric::{BatchMsg, IbFabric, NodeId};
use deep_simkit::{Barrier, Sim, SimTime, Simulation};

use crate::stats::{self, Report};
use crate::Pins;

pub const RANKS: u32 = 262_144;
pub const ITERS: u32 = 2;
/// Hosts per leaf switch in `des_scaling` (a private constant there).
/// The digest does not depend on how ranks are split into partitions,
/// so drift here shows only in the kernel event count, which
/// `profile` compares with the library's.
const NODES_PER_LEAF: u32 = 18;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub fn config(seed: u64) -> DesScalingConfig {
    DesScalingConfig {
        ranks: RANKS,
        iters: ITERS,
        complex: false,
        seed,
    }
}

/// |DES iteration time − LogGP model| ÷ model: the simulator's accuracy.
pub fn model_rel_err(iter_s: f64) -> f64 {
    let model = des_scaling::analytic_iter(&deep_psmpi::NetModel::ib_fdr(), RANKS as u64, false)
        .as_secs_f64();
    (iter_s - model).abs() / model
}

/// The harness's own set-up at the workload's rank count: the kernel
/// plus the fat tree every run builds first.
fn setup_once(seed: u64) -> f64 {
    let t = Instant::now();
    let sim = Simulation::new(seed);
    let ib = IbFabric::new(&sim.handle(), RANKS);
    let s = t.elapsed().as_secs_f64();
    drop(ib);
    drop(sim);
    s
}

/// Untraced: back-to-back `des_scaling::run` calls, each after one set-up
/// sample and one run of the calibration kernel, while another fits in
/// `budget` (at least three). Times are reported at the recording
/// host's speed: scaled by the pinned kernel time over this run's
/// median kernel time (`host::reference_s`). The raw figures go on the
/// summary line.
pub fn run(seed: u64, budget: Duration, pins: &Pins) -> Report {
    let mut rep = Report::new("des_spmv_262k");
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut refs = Vec::new();
    let mut rel_err = f64::NAN;
    let t0 = Instant::now();
    // Another run, as long as the longest so far, must end in budget.
    while walls.len() < 3
        || t0.elapsed().as_secs_f64() + walls.iter().copied().fold(0.0, f64::max)
            <= budget.as_secs_f64()
    {
        setups.push(setup_once(seed));
        refs.push(crate::host::reference_in_child());
        let t = Instant::now();
        let r = des_scaling::run(config(seed));
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        rep.attempted += 1;
        rel_err = model_rel_err(r.iter_s);
        if r.digest != pins.des_digest {
            rep.mismatch(format!(
                "digest 0x{:016x} != pinned 0x{:016x}",
                r.digest, pins.des_digest
            ));
        }
    }
    let speed = pins.reference_s / stats::median(&refs);
    let jobs: Vec<f64> = walls.iter().map(|w| w * speed).collect();
    let busy: f64 = jobs.iter().sum();
    rep.put("wall_s", stats::median(&jobs), "s");
    rep.put("setup_s", stats::median(&setups) * speed, "s");
    rep.put("peak_rss_mb", crate::host::peak_rss_mb("self"), "MB");
    rep.latencies(&jobs, &jobs, pins.des_limit_s, busy);
    rep.info("wall_raw_s", stats::median(&walls), "s");
    rep.info("setup_raw_s", stats::median(&setups), "s");
    rep.info("host.reference_s", stats::median(&refs), "s");
    rep.info("model_rel_err", rel_err, "ratio");
    rep
}

/// Spans recorded by the traced replay.
#[derive(Default, Debug, Clone, Copy)]
pub struct Spans {
    pub batch_calls: u64,
    pub batch_msgs: u64,
    /// Inside `Network::schedule_batch`.
    pub fabric_ns: u64,
    /// Inside the replay's SoA blocks (fabric calls included).
    pub soa_ns: u64,
}

/// Result of one traced replay.
#[derive(Debug, Clone, Copy)]
pub struct Traced {
    pub digest: u64,
    pub iter_s: f64,
    pub messages: u64,
    pub kernel_events: u64,
    pub build_s: f64,
    pub run_s: f64,
    pub wall_s: f64,
    pub spans: Spans,
}

type SpanCell = Rc<RefCell<Spans>>;

fn fnv_fold(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

struct Shared {
    ready: Vec<SimTime>,
    inbox: Vec<SimTime>,
    send_done: Vec<SimTime>,
    msgs: Vec<BatchMsg>,
    done: Vec<SimTime>,
    messages: u64,
    digest: u64,
}

/// One `schedule_batch` call inside a fabric span.
fn batch(ib: &IbFabric, sh: &mut Shared, spans: &SpanCell) {
    let t = Instant::now();
    ib.network().schedule_batch(&sh.msgs, &mut sh.done);
    let ns = t.elapsed().as_nanos() as u64;
    let mut s = spans.borrow_mut();
    s.fabric_ns += ns;
    s.batch_calls += 1;
    s.batch_msgs += sh.msgs.len() as u64;
}

/// Run `f` on the shared state inside a `des_scaling` span.
fn soa<R>(shared: &RefCell<Shared>, spans: &SpanCell, f: impl FnOnce(&mut Shared) -> R) -> R {
    let t = Instant::now();
    let r = f(&mut shared.borrow_mut());
    spans.borrow_mut().soa_ns += t.elapsed().as_nanos() as u64;
    r
}

#[allow(clippy::too_many_arguments)]
async fn segment(
    ctx: Sim,
    ib: Rc<IbFabric>,
    shared: Rc<RefCell<Shared>>,
    spans: SpanCell,
    barrier: Barrier,
    lo: usize,
    hi: usize,
    ranks: usize,
    iters: u32,
) {
    let send_ov = ib.params().send_overhead;
    let recv_ov = ib.params().recv_overhead;
    for _ in 0..iters {
        ctx.sleep(COMPUTE).await;
        let now = ctx.now();
        soa(&shared, &spans, |sh| sh.ready[lo..hi].fill(now));
        for dir in [1usize, ranks - 1] {
            soa(&shared, &spans, |sh| {
                sh.msgs.clear();
                for r in lo..hi {
                    sh.msgs.push(BatchMsg {
                        src: NodeId(r as u32),
                        dst: NodeId(((r + dir) % ranks) as u32),
                        bytes: HALO_BYTES,
                        earliest: sh.ready[r] + send_ov,
                    });
                }
                batch(&ib, sh, &spans);
                for (i, r) in (lo..hi).enumerate() {
                    sh.send_done[r] = sh.done[i];
                    let dst = (r + dir) % ranks;
                    let arrival = sh.done[i] + recv_ov;
                    if arrival > sh.inbox[dst] {
                        sh.inbox[dst] = arrival;
                    }
                }
                sh.messages += (hi - lo) as u64;
            });
            barrier.wait().await;
            soa(&shared, &spans, |sh| {
                for r in lo..hi {
                    sh.ready[r] = sh.send_done[r].max(sh.inbox[r]);
                    sh.inbox[r] = SimTime::ZERO;
                }
            });
            barrier.wait().await;
        }
        barrier.wait().await;
    }
}

#[allow(clippy::too_many_arguments)]
async fn driver(
    ctx: Sim,
    ib: Rc<IbFabric>,
    shared: Rc<RefCell<Shared>>,
    spans: SpanCell,
    barrier: Barrier,
    ranks: u32,
    iters: u32,
    complex: bool,
) {
    let send_ov = ib.params().send_overhead;
    let recv_ov = ib.params().recv_overhead;
    let n = ranks as usize;
    for _ in 0..iters {
        ctx.sleep(COMPUTE).await;
        for _halo_dir in 0..2 {
            barrier.wait().await;
            barrier.wait().await;
        }
        let t_end = soa(&shared, &spans, |sh| {
            let round = |sh: &mut Shared, xor: usize, bytes: u64| {
                sh.msgs.clear();
                for r in 0..n {
                    sh.msgs.push(BatchMsg {
                        src: NodeId(r as u32),
                        dst: NodeId((r ^ xor) as u32),
                        bytes,
                        earliest: sh.ready[r] + send_ov,
                    });
                }
                batch(&ib, sh, &spans);
                for r in 0..n {
                    sh.ready[r] = sh.done[r].max(sh.done[r ^ xor] + recv_ov);
                }
                sh.messages += n as u64;
            };
            for k in 0..ranks.trailing_zeros() {
                round(sh, 1usize << k, 8);
            }
            if complex {
                for xor in 1..n {
                    round(sh, xor, A2A_BLOCK);
                }
            }
            let t_end = sh.ready.iter().copied().max().unwrap_or_else(|| ctx.now());
            sh.digest = fnv_fold(sh.digest, t_end.as_nanos());
            t_end
        });
        ctx.sleep_until(t_end).await;
        barrier.wait().await;
    }
}

/// The traced replay of `des_scaling::run(cfg)`.
pub fn run_traced(cfg: DesScalingConfig) -> Traced {
    let t0 = Instant::now();
    let mut sim = Simulation::new(cfg.seed);
    let ctx = sim.handle();
    let tb = Instant::now();
    let ib = Rc::new(IbFabric::new(&ctx, cfg.ranks));
    let build_s = tb.elapsed().as_secs_f64();
    let n = cfg.ranks as usize;
    let segments = cfg.ranks.div_ceil(NODES_PER_LEAF);
    let shared = Rc::new(RefCell::new(Shared {
        ready: vec![SimTime::ZERO; n],
        inbox: vec![SimTime::ZERO; n],
        send_done: vec![SimTime::ZERO; n],
        msgs: Vec::with_capacity(n),
        done: Vec::with_capacity(n),
        messages: 0,
        digest: fnv_fold(FNV_OFFSET, cfg.ranks as u64),
    }));
    let spans: SpanCell = Rc::default();
    let barrier = Barrier::new(&ctx, segments as usize + 1);
    for s in 0..segments {
        let lo = (s * NODES_PER_LEAF) as usize;
        let hi = (((s + 1) * NODES_PER_LEAF).min(cfg.ranks)) as usize;
        let fut = segment(
            ctx.clone(),
            ib.clone(),
            shared.clone(),
            spans.clone(),
            barrier.clone(),
            lo,
            hi,
            n,
            cfg.iters,
        );
        ctx.spawn_in_fmt(s + 1, format_args!("leaf-{s}"), fut);
    }
    let fut = driver(
        ctx.clone(),
        ib.clone(),
        shared.clone(),
        spans.clone(),
        barrier.clone(),
        cfg.ranks,
        cfg.iters,
        cfg.complex,
    );
    ctx.spawn_in(0, "driver", fut);
    let tr = Instant::now();
    sim.run().assert_completed();
    let run_s = tr.elapsed().as_secs_f64();
    let sim_s = sim.now().as_secs_f64();
    let kernel_events = sim.events_processed();
    let (digest, messages) = {
        let sh = shared.borrow();
        (fnv_fold(sh.digest, sh.messages), sh.messages)
    };
    let spans = *spans.borrow();
    drop((sim, ctx, ib, shared));
    Traced {
        digest,
        iter_s: sim_s / cfg.iters as f64,
        messages,
        kernel_events,
        build_s,
        run_s,
        wall_s: t0.elapsed().as_secs_f64(),
        spans,
    }
}

/// Traced profile: one untraced run for the overhead baseline, then
/// one traced replay.
pub fn profile(seed: u64, pins: &Pins) -> Report {
    let mut rep = Report::new("des_spmv_262k");
    let t = Instant::now();
    let r = des_scaling::run(config(seed));
    let untraced = t.elapsed().as_secs_f64();
    let tr = run_traced(config(seed));
    rep.attempted += 2;
    for (what, digest) in [("untraced", r.digest), ("traced replay", tr.digest)] {
        if digest != pins.des_digest {
            rep.mismatch(format!(
                "{what} digest 0x{digest:016x} != pinned 0x{:016x}",
                pins.des_digest
            ));
        }
    }
    if tr.messages != r.messages
        || tr.kernel_events != r.kernel_events
        || tr.iter_s.to_bits() != r.iter_s.to_bits()
    {
        rep.mismatch("traced replay diverged from des_scaling::run".into());
    }
    let s = tr.spans;
    let fabric_s = s.fabric_ns as f64 * 1e-9;
    let soa_s = s.soa_ns as f64 * 1e-9;
    let des_self = soa_s - fabric_s;
    let simkit_self = tr.run_s - soa_s;
    rep.put("fabric.build_s", tr.build_s, "s");
    rep.put("fabric.batch_calls", s.batch_calls as f64, "count");
    rep.put("fabric.batch_msgs", s.batch_msgs as f64, "count");
    rep.put("fabric.schedule_batch_s", fabric_s, "s");
    rep.put(
        "fabric.batch_ns_per_msg",
        s.fabric_ns as f64 / s.batch_msgs.max(1) as f64,
        "ns",
    );
    rep.put("simkit.events", tr.kernel_events as f64, "count");
    rep.put("simkit.self_s", simkit_self, "s");
    rep.put("des_scaling.self_s", des_self, "s");
    rep.account(
        "des_spmv_262k",
        tr.wall_s,
        untraced,
        1,
        &[tr.build_s, fabric_s, des_self, simkit_self],
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The replay must make the library's call stream: equal digests,
    /// message counts and kernel events on small SpMV and complex runs.
    #[test]
    fn replay_reproduces_des_scaling_digest() {
        for (ranks, complex) in [(64, false), (64, true), (1024, false), (1024, true)] {
            let cfg = DesScalingConfig {
                ranks,
                iters: 2,
                complex,
                seed: 3,
            };
            let lib = des_scaling::run(cfg);
            let tr = run_traced(cfg);
            assert_eq!(tr.digest, lib.digest, "{ranks} ranks, complex={complex}");
            assert_eq!(tr.messages, lib.messages);
            assert_eq!(tr.kernel_events, lib.kernel_events);
            assert_eq!(tr.iter_s.to_bits(), lib.iter_s.to_bits());
            assert_eq!(tr.spans.batch_msgs, lib.messages);
        }
    }
}
