//! Layer probes for the suite's heaviest shapes, timed from outside:
//! psmpi collectives as a33 and f09b run them (16 ranks on IB), and
//! the OmpSs Cholesky graph at f23b's tile grid (12×12 tiles of 64×64).
//! Each probe's simulated time is pinned; a different value is a wrong
//! output, not a slower one.

use std::rc::Rc;
use std::time::Instant;

use deep_apps::{cholesky_graph, spd_matrix, TiledMatrix};
use deep_fabric::IbFabric;
use deep_hw::NodeModel;
use deep_psmpi::{launch_world, EpId, IbWire, MpiParams, ReduceOp, Universe, Value};
use deep_simkit::Simulation;

use crate::stats::{self, Report};
use crate::Pins;

const RANKS: u32 = 16;
const OPS: u32 = 40;

#[derive(Clone, Copy, PartialEq)]
enum Coll {
    /// Recursive doubling, 8 KiB (a33's latency-bound side).
    Allreduce,
    /// Ring reduce-scatter + allgather, 256 KiB (a33's bandwidth side).
    AllreduceRing,
    /// Personalised all-to-all, 4 KiB per pair (f09b's 256² transpose).
    Alltoall,
}

struct MpiProbe {
    sim_ns: u64,
    run_s: f64,
    events: u64,
}

fn mpi_probe(coll: Coll) -> MpiProbe {
    let mut sim = Simulation::new(1);
    let ctx = sim.handle();
    let ib = Rc::new(IbFabric::new(&ctx, RANKS));
    let params = MpiParams {
        allreduce_ring_threshold: if coll == Coll::AllreduceRing {
            0
        } else {
            u64::MAX
        },
        ..MpiParams::default()
    };
    let uni = Universe::new(&ctx, Rc::new(IbWire::new(ib)), RANKS as usize, params);
    launch_world(&uni, "probe", (0..RANKS).map(EpId).collect(), move |m| {
        Box::pin(async move {
            let world = m.world().clone();
            for _ in 0..OPS {
                match coll {
                    Coll::Allreduce => {
                        let mine = vec![m.rank() as f64; 1024];
                        m.allreduce(&world, ReduceOp::Sum, Value::vec(mine), 8 * 1024)
                            .await;
                    }
                    Coll::AllreduceRing => {
                        let mine = vec![m.rank() as f64; 32 * 1024];
                        m.allreduce_ring(&world, ReduceOp::Sum, mine).await;
                    }
                    Coll::Alltoall => {
                        let blocks = vec![Value::Unit; RANKS as usize];
                        m.alltoall(&world, blocks, 4096).await;
                    }
                }
            }
        })
    });
    let t = Instant::now();
    sim.run().assert_completed();
    MpiProbe {
        sim_ns: sim.now().as_nanos(),
        run_s: t.elapsed().as_secs_f64(),
        events: sim.events_processed(),
    }
}

struct OmpssProbe {
    makespan_ns: u64,
    tasks: usize,
    build_s: f64,
    run_s: f64,
}

fn ompss_probe() -> OmpssProbe {
    let (nt, ts) = (12usize, 64usize);
    let a = spd_matrix(nt * ts);
    // Graph construction is sub-millisecond: build several, keep the
    // median, run the last.
    let mut builds = Vec::new();
    let mut graph = None;
    for _ in 0..9 {
        let m = TiledMatrix::from_dense(&a, nt, ts);
        let t = Instant::now();
        let g = cholesky_graph(&m);
        builds.push(t.elapsed().as_secs_f64());
        graph = Some(g);
    }
    let g = graph.expect("at least one graph");
    let tasks = g.len();
    let node = NodeModel::xeon_phi_knc();
    let mut sim = Simulation::new(1);
    let ctx = sim.handle();
    let h = sim.spawn("probe", async move {
        deep_ompss::run_dataflow(&ctx, g, &node, 16).await
    });
    let t = Instant::now();
    sim.run().assert_completed();
    let run_s = t.elapsed().as_secs_f64();
    let report = h.try_result().expect("dataflow run finished");
    OmpssProbe {
        makespan_ns: report.makespan.as_nanos(),
        tasks,
        build_s: stats::median(&builds),
        run_s,
    }
}

fn check(pins: &Pins, rep: &mut Report, name: &str, sim_ns: u64) {
    rep.attempted += 1;
    match pins.probe(name) {
        Some(want) if want == sim_ns => {}
        Some(want) => rep.mismatch(format!(
            "probe {name}: simulated {sim_ns} ns, pinned {want} ns"
        )),
        None => rep.mismatch(format!("probe {name}: simulated {sim_ns} ns, not pinned")),
    }
}

/// Run every probe and check the pins; with `put`, also put the
/// per-layer timings (traced runs).
pub fn measure(pins: &Pins, rep: &mut Report, put: bool) {
    let (mut events, mut run_s) = (0u64, 0.0f64);
    for (name, coll) in [
        ("psmpi.allreduce", Coll::Allreduce),
        ("psmpi.allreduce_ring", Coll::AllreduceRing),
        ("psmpi.alltoall", Coll::Alltoall),
    ] {
        let p = mpi_probe(coll);
        check(pins, rep, name, p.sim_ns);
        events += p.events;
        run_s += p.run_s;
        if put {
            rep.put(&format!("{name}_us"), p.run_s / OPS as f64 * 1e6, "us");
        }
    }
    let o = ompss_probe();
    check(pins, rep, "ompss.cholesky_12x64", o.makespan_ns);
    if put {
        rep.put("simkit.events_per_s", events as f64 / run_s, "1/s");
        rep.put(
            "ompss.graph_build_tasks_per_s",
            o.tasks as f64 / o.build_s,
            "1/s",
        );
        rep.put("ompss.run_s", o.run_s, "s");
    }
}
