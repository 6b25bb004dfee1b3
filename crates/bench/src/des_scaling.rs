//! Full-DES weak-scaling skeleton at O(100k) ranks.
//!
//! This is the engine behind the F09 tail validation: the same two
//! communication skeletons `f09_scalability` models analytically —
//! **SpMV** (ring halo + small allreduce) and **complex** (SpMV plus a
//! pairwise all-to-all) — actually simulated over a full-size IB fat
//! tree, at rank counts up to and beyond 262 144. Three mechanisms make
//! that feasible where a naive one-process-per-rank, one-event-per-
//! message simulation is not:
//!
//! * **One process per fabric segment** (leaf switch): 2¹⁸ ranks become
//!   ~14.5 k processes, so the kernel arms one compute timer per leaf
//!   rather than one per rank.
//! * **SoA per-rank state**: rank readiness, inbox arrival and send
//!   completion times are three flat `Vec<SimTime>`s shared by every
//!   segment — no per-rank objects, no per-rank futures.
//! * **Batched transfers** (`Network::schedule_batch`): each phase of
//!   an iteration (halo direction, collective round) is one batch over
//!   the contention engine, one kernel event — per-message `earliest`
//!   times carry each rank's skew through the phases, so virtual time
//!   only needs to advance once per iteration.
//!
//! The protocol is barrier-sequenced: every segment schedules its own
//! ranks' messages into the fabric, a zero-time barrier separates
//! "everyone has scheduled" from "everyone reads the arrivals", and the
//! driver process runs the global collective rounds before sleeping the
//! whole machine to the iteration's end. All cross-segment data flows
//! through the SoA arrays in rank order, and batches hit the link
//! horizons in segment order — a pure function of the configuration,
//! so the run (and its summary digest) is bit-identical everywhere.

use std::cell::RefCell;
use std::rc::Rc;

use deep_fabric::{BatchMsg, IbFabric, NodeId};
use deep_simkit::{Barrier, Sim, SimDuration, SimTime, Simulation};

/// Fixed per-rank compute per iteration under weak scaling (shared with
/// the analytic model in `f09_scalability`).
pub const COMPUTE: SimDuration = SimDuration::micros(2_000);
/// Halo payload per ring neighbour per iteration.
pub const HALO_BYTES: u64 = 64 << 10;
/// Per-pair block of the complex class's all-to-all phase.
pub const A2A_BLOCK: u64 = 4 << 10;
/// Hosts per leaf switch — one simulated process per leaf.
const NODES_PER_LEAF: u32 = 18;

/// Configuration of one skeleton run.
#[derive(Debug, Clone, Copy)]
pub struct DesScalingConfig {
    /// Rank count; must be a power of two >= 2 (the collective phases
    /// use XOR-partner schedules).
    pub ranks: u32,
    /// Iterations to simulate (>= 1).
    pub iters: u32,
    /// Add the complex class's pairwise all-to-all phase.
    pub complex: bool,
    /// Master seed (the skeleton draws no randomness, but the seed is
    /// part of the simulation identity).
    pub seed: u64,
}

/// Summary of one skeleton run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesScalingResult {
    pub ranks: u32,
    pub iters: u32,
    /// Fabric segments (= leaf switches = segment processes).
    pub segments: u32,
    /// Simulated seconds per iteration.
    pub iter_s: f64,
    /// Total simulated seconds.
    pub sim_s: f64,
    /// Logical point-to-point messages carried by the fabric.
    pub messages: u64,
    /// Kernel events (process polls) the event loop executed.
    pub kernel_events: u64,
    /// FNV-1a 64 over the run's virtual-time trajectory (per-iteration
    /// end instants + message count) — the cross-thread golden.
    pub digest: u64,
}

/// Shared SoA state: one slot per rank in every array. Segments write
/// only their own ranks' `ready`/`send_done` slots and max-merge into
/// destinations' `inbox` slots; the barriers sequence the phases.
struct Shared {
    /// When each rank is ready to start its next communication step.
    ready: Vec<SimTime>,
    /// Latest incoming last-byte arrival (+ recv overhead) per rank in
    /// the current phase; reset to ZERO after each merge.
    inbox: Vec<SimTime>,
    /// Sender-side completion per rank in the current phase.
    send_done: Vec<SimTime>,
    /// Batch scratch, reused by every scheduling site.
    msgs: Vec<BatchMsg>,
    /// Completion scratch for [`deep_fabric::Network::schedule_batch`].
    done: Vec<SimTime>,
    /// Logical messages simulated.
    messages: u64,
    /// Running FNV-1a 64 digest of the virtual-time trajectory.
    digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv_fold(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One fabric segment: owns ranks `lo..hi`, runs the compute sleep and
/// schedules the two halo directions for its ranks each iteration.
// A coroutine entry point, not an API: its "arguments" are the spawn
// environment, and bundling them into a struct would only move the list.
#[allow(clippy::too_many_arguments)]
async fn segment(
    ctx: Sim,
    ib: Rc<IbFabric>,
    shared: Rc<RefCell<Shared>>,
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
        {
            let sh = &mut *shared.borrow_mut();
            let now = ctx.now();
            for r in lo..hi {
                sh.ready[r] = now;
            }
        }
        // Two halo directions: send right, then send left (the ring
        // sendrecv pair of the SpMV skeleton).
        for dir in [1usize, ranks - 1] {
            {
                let sh = &mut *shared.borrow_mut();
                sh.msgs.clear();
                for r in lo..hi {
                    sh.msgs.push(BatchMsg {
                        src: NodeId(r as u32),
                        dst: NodeId(((r + dir) % ranks) as u32),
                        bytes: HALO_BYTES,
                        earliest: sh.ready[r] + send_ov,
                    });
                }
                let (msgs, done) = (&sh.msgs, &mut sh.done);
                ib.network().schedule_batch(msgs, done);
                for (i, r) in (lo..hi).enumerate() {
                    sh.send_done[r] = sh.done[i];
                    let dst = (r + dir) % ranks;
                    let arrival = sh.done[i] + recv_ov;
                    if arrival > sh.inbox[dst] {
                        sh.inbox[dst] = arrival;
                    }
                }
                sh.messages += (hi - lo) as u64;
            }
            // Everyone has scheduled; arrivals are final.
            barrier.wait().await;
            {
                let sh = &mut *shared.borrow_mut();
                for r in lo..hi {
                    sh.ready[r] = sh.send_done[r].max(sh.inbox[r]);
                    sh.inbox[r] = SimTime::ZERO;
                }
            }
            // Everyone has merged; next phase may schedule.
            barrier.wait().await;
        }
        // The driver runs the collective rounds and sleeps the machine
        // to the iteration end; this wait returns at that instant.
        barrier.wait().await;
    }
}

/// The driver: lockstep with the segments through the halo phases, then
/// runs the collective rounds (allreduce, plus the pairwise all-to-all
/// for the complex class) as global batches and carries virtual time to
/// the iteration end.
async fn driver(
    ctx: Sim,
    ib: Rc<IbFabric>,
    shared: Rc<RefCell<Shared>>,
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
            barrier.wait().await; // segments scheduled
            barrier.wait().await; // segments merged
        }
        let t_end = {
            // The collective rounds run after the "segments merged"
            // barrier; only the driver is live until it sleeps to the
            // iteration end.
            let sh = &mut *shared.borrow_mut();
            // Dot-product allreduce: recursive doubling, log2(n) rounds
            // of 8-byte exchanges. Each round is one batch; per-message
            // `earliest` times carry every rank's skew, so no virtual
            // time passes while the rounds are laid into the fabric.
            let round_partners = |sh: &mut Shared, xor: usize, bytes: u64| {
                sh.msgs.clear();
                for r in 0..n {
                    sh.msgs.push(BatchMsg {
                        src: NodeId(r as u32),
                        dst: NodeId((r ^ xor) as u32),
                        bytes,
                        earliest: sh.ready[r] + send_ov,
                    });
                }
                let (msgs, done) = (&sh.msgs, &mut sh.done);
                ib.network().schedule_batch(msgs, done);
                for r in 0..n {
                    let p = r ^ xor;
                    sh.ready[r] = sh.done[r].max(sh.done[p] + recv_ov);
                }
                sh.messages += n as u64;
            };
            for k in 0..ranks.trailing_zeros() {
                round_partners(sh, 1usize << k, 8);
            }
            if complex {
                // Pairwise-exchange all-to-all: n-1 XOR rounds of one
                // block per rank — the linear-in-ranks phase that
                // collapses the complex class.
                for round in 1..n {
                    round_partners(sh, round, A2A_BLOCK);
                }
            }
            let t_end = sh.ready.iter().copied().max().unwrap_or_else(|| ctx.now());
            sh.digest = fnv_fold(sh.digest, t_end.as_nanos());
            t_end
        };
        ctx.sleep_until(t_end).await;
        // Release the segments into the next iteration at t_end.
        barrier.wait().await;
    }
}

/// Run the skeleton. Single-threaded and deterministic: the result
/// (including the digest) is a pure function of `cfg`.
pub fn run(cfg: DesScalingConfig) -> DesScalingResult {
    assert!(
        cfg.ranks >= 2 && cfg.ranks.is_power_of_two(),
        "des_scaling needs a power-of-two rank count >= 2, got {}",
        cfg.ranks
    );
    assert!(cfg.iters >= 1, "des_scaling needs at least one iteration");
    let mut sim = Simulation::new(cfg.seed);
    let ctx = sim.handle();
    let ib = Rc::new(IbFabric::new(&ctx, cfg.ranks));
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
    let barrier = Barrier::new(&ctx, segments as usize + 1);
    for s in 0..segments {
        let lo = (s * NODES_PER_LEAF) as usize;
        let hi = (((s + 1) * NODES_PER_LEAF).min(cfg.ranks)) as usize;
        let fut = segment(
            ctx.clone(),
            ib.clone(),
            shared.clone(),
            barrier.clone(),
            lo,
            hi,
            n,
            cfg.iters,
        );
        ctx.spawn_fmt(format_args!("leaf-{s}"), fut);
    }
    {
        let fut = driver(
            ctx.clone(),
            ib.clone(),
            shared.clone(),
            barrier.clone(),
            cfg.ranks,
            cfg.iters,
            cfg.complex,
        );
        ctx.spawn("driver", fut);
    }
    sim.run().assert_completed();
    let sh = shared.borrow();
    let sim_s = sim.now().as_secs_f64();
    let digest = fnv_fold(sh.digest, sh.messages);
    DesScalingResult {
        ranks: cfg.ranks,
        iters: cfg.iters,
        segments,
        iter_s: sim_s / cfg.iters as f64,
        sim_s,
        messages: sh.messages,
        kernel_events: sim.events_processed(),
        digest,
    }
}

/// The analytic (LogGP) per-iteration time of the same skeleton — what
/// `f09_scalability` plots for the full sweep. The DES above must land
/// within the documented tolerance of this for the SpMV class; for the
/// complex class the DES sits *above* it, because the pairwise
/// all-to-all sees spine contention the contention-free model ignores.
pub fn analytic_iter(m: &deep_psmpi::NetModel, ranks: u64, complex: bool) -> SimDuration {
    let spmv = COMPUTE + m.p2p(HALO_BYTES) * 2 + m.allreduce(ranks, 8);
    if complex {
        spmv + m.alltoall(ranks, A2A_BLOCK)
    } else {
        spmv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deep_psmpi::NetModel;

    #[test]
    fn spmv_des_tracks_the_analytic_model_at_small_scale() {
        let r = run(DesScalingConfig {
            ranks: 64,
            iters: 3,
            complex: false,
            seed: 1,
        });
        let model = analytic_iter(&NetModel::ib_fdr(), 64, false).as_secs_f64();
        let rel = (r.iter_s - model) / model;
        assert!(
            rel.abs() < 0.05,
            "DES iter {:.3e}s vs model {model:.3e}s (rel {rel:+.3})",
            r.iter_s
        );
        assert_eq!(r.segments, 4); // ceil(64 / 18)
        assert!(r.messages > 0 && r.kernel_events > 0);
    }

    #[test]
    fn runs_are_bit_identical_and_scale_invariantly_seeded() {
        let cfg = DesScalingConfig {
            ranks: 128,
            iters: 2,
            complex: true,
            seed: 9,
        };
        let a = run(cfg);
        let b = run(cfg);
        assert_eq!(a, b, "same config must reproduce bit-identically");
        // The digest is sensitive to the configuration.
        let c = run(DesScalingConfig {
            complex: false,
            ..cfg
        });
        assert_ne!(a.digest, c.digest);
    }

    #[test]
    fn complex_class_is_slower_than_spmv() {
        let spmv = run(DesScalingConfig {
            ranks: 64,
            iters: 2,
            complex: false,
            seed: 1,
        });
        let cplx = run(DesScalingConfig {
            ranks: 64,
            iters: 2,
            complex: true,
            seed: 1,
        });
        // 63 all-to-all rounds dominate; the model says ~+135 us/iter.
        assert!(cplx.iter_s > spmv.iter_s * 1.05);
        // And the DES never beats the contention-free analytic bound.
        let model = analytic_iter(&NetModel::ib_fdr(), 64, true).as_secs_f64();
        assert!(cplx.iter_s >= model * 0.999);
    }
}
