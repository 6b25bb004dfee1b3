//! F09 — slide 9: application scalability classes.
//!
//! "Only few applications are capable to scale to O(300k) cores —
//! sparse matrix-vector codes, highly regular communication patterns.
//! Most applications are more complex."
//!
//! We weak-scale two per-iteration communication skeletons:
//! * **SpMV class** — nearest-neighbour halo + one small allreduce
//!   (logarithmic): parallel efficiency stays high to 262 144 ranks.
//! * **Complex class** — adds an all-to-all phase (linear in ranks):
//!   efficiency collapses around a few thousand ranks.
//!
//! Small rank counts run the skeleton rank-per-process through the full
//! MPI stack over a simulated IB fabric. The headline points — SpMV at
//! 262 144 ranks, complex at 4 096 — are **also discrete-event
//! measurements**, via the batch-scheduled
//! [`crate::des_scaling`] engine (one process per leaf switch, SoA rank
//! state, one kernel event per phase batch). The LogGP model that used
//! to stand in for these points is now the *delta column*: the table
//! and the shape paragraph quote DES-measured efficiencies, with the
//! model's prediction printed beside them. For the SpMV class the two
//! agree within a fraction of a percent; for the complex class the DES
//! sits ~40% above the model at 4 096 ranks, because the pairwise
//! all-to-all queues on the fat tree's spine trunks — contention the
//! closed-form model cannot see.

use std::fmt::Write as _;

use deep_core::{fmt_f, Table};
use deep_psmpi::{NetModel, ReduceOp, Value};

use crate::des_scaling::{self, DesScalingConfig, A2A_BLOCK, COMPUTE, HALO_BYTES};

/// Measure one iteration of the skeleton rank-per-process through the
/// MPI stack (small rank counts only).
fn mpi_iter(n: u32, complex: bool) -> f64 {
    let iters = 10u32;
    let (_, total) = crate::run_ib_ranks(1, n, move |m| {
        Box::pin(async move {
            let world = m.world().clone();
            let size = world.size();
            for _ in 0..iters {
                m.sim().sleep(COMPUTE).await;
                // halo with ring neighbours
                let right = (m.rank() + 1) % size;
                let left = (m.rank() + size - 1) % size;
                if size > 1 {
                    m.sendrecv(
                        &world,
                        right,
                        7,
                        Value::Unit,
                        HALO_BYTES,
                        Some(left),
                        Some(7),
                    )
                    .await;
                    m.sendrecv(
                        &world,
                        left,
                        8,
                        Value::Unit,
                        HALO_BYTES,
                        Some(right),
                        Some(8),
                    )
                    .await;
                }
                m.allreduce(&world, ReduceOp::Sum, Value::F64(1.0), 8).await;
                if complex {
                    let blocks = (0..size).map(|_| Value::Unit).collect();
                    m.alltoall(&world, blocks, A2A_BLOCK).await;
                }
            }
            0.0
        })
    });
    total / iters as f64
}

/// One DES work unit of the (point × class) grid: either a
/// rank-per-process MPI run (small) or a full-scale batch-scheduled
/// skeleton run (the headline points).
enum Unit {
    Mpi {
        n: u32,
        complex: bool,
    },
    Full {
        ranks: u32,
        iters: u32,
        complex: bool,
    },
}

/// Measured seconds per iteration, plus the full-run summary when the
/// unit went through the batch-scheduled engine.
fn measure(u: &Unit) -> (f64, Option<des_scaling::DesScalingResult>) {
    match *u {
        Unit::Mpi { n, complex } => (mpi_iter(n, complex), None),
        Unit::Full {
            ranks,
            iters,
            complex,
        } => {
            let r = des_scaling::run(DesScalingConfig {
                ranks,
                iters,
                complex,
                seed: 1,
            });
            (r.iter_s, Some(r))
        }
    }
}

/// The two headline configurations: the paper's "O(300k) cores" SpMV
/// point, and the complex class at the scale where it has collapsed.
const SPMV_RANKS: u32 = 1 << 18;
const CPLX_RANKS: u32 = 1 << 12;

pub fn run(out: &mut String) {
    let m = NetModel::ib_fdr();
    let analytic = |n: u64, complex: bool| des_scaling::analytic_iter(&m, n, complex).as_secs_f64();
    let base_spmv = analytic(1, false);
    let base_cplx = analytic(1, true);

    // All eight independent DES simulations on one stealable work-unit
    // grid (EXPERIMENTS.md convention), heavy full-scale units first;
    // results come back in input order, so the table bytes never depend
    // on the thread count.
    let mpi_points = [4u32, 16, 64];
    let mut units: Vec<Unit> = vec![
        Unit::Full {
            ranks: SPMV_RANKS,
            iters: 2,
            complex: false,
        },
        Unit::Full {
            ranks: CPLX_RANKS,
            iters: 1,
            complex: true,
        },
    ];
    units.extend(
        mpi_points
            .iter()
            .flat_map(|&n| [(n, false), (n, true)])
            .map(|(n, complex)| Unit::Mpi { n, complex }),
    );
    let measured = crate::sweep::par_sweep(&units, |_, u| measure(u));
    let spmv_full = measured[0].1.expect("unit 0 is the full SpMV run");
    let cplx_full = measured[1].1.expect("unit 1 is the full complex run");

    let mut t = Table::new(
        "F09",
        "weak-scaling parallel efficiency by application class",
        &[
            "ranks",
            "SpMV eff (model)",
            "SpMV eff (DES)",
            "complex eff (model)",
            "complex eff (DES)",
        ],
    );
    let exps = [2u32, 4, 6, 8, 10, 12, 14, 16, 18];
    for &exp in &exps {
        let n = 1u64 << exp;
        let spmv_eff = base_spmv / analytic(n, false);
        let cplx_eff = base_cplx / analytic(n, true);
        let (mut spmv_des, mut cplx_des) = match mpi_points.iter().position(|&d| d as u64 == n) {
            Some(i) => (
                fmt_f(base_spmv / measured[2 + i * 2].0),
                fmt_f(base_cplx / measured[2 + i * 2 + 1].0),
            ),
            None => ("-".into(), "-".into()),
        };
        if n == SPMV_RANKS as u64 {
            spmv_des = fmt_f(base_spmv / spmv_full.iter_s);
        }
        if n == CPLX_RANKS as u64 {
            cplx_des = fmt_f(base_cplx / cplx_full.iter_s);
        }
        t.row(&[
            n.to_string(),
            fmt_f(spmv_eff),
            spmv_des,
            fmt_f(cplx_eff),
            cplx_des,
        ]);
    }
    t.write_into(out);

    // The headline points, with the LogGP prediction as the delta
    // column: DES-measured µs/iter vs model µs/iter.
    for (label, r) in [("SpMV", &spmv_full), ("complex", &cplx_full)] {
        let model = analytic(r.ranks as u64, r.ranks == CPLX_RANKS);
        let delta = (r.iter_s - model) / model * 100.0;
        let _ = writeln!(
            out,
            "des {label} @ {} ranks: {:.1} us/iter vs model {:.1} us (delta {delta:+.1}%) — \
             {} segments, {} messages, {} kernel events",
            r.ranks,
            r.iter_s * 1e6,
            model * 1e6,
            r.segments,
            r.messages,
            r.kernel_events,
        );
    }

    let spmv_262k = base_spmv / spmv_full.iter_s;
    let cplx_4k = base_cplx / cplx_full.iter_s;
    let _ = writeln!(
        out,
        "shape: measured end-to-end on the DES, the SpMV class holds {:.0}%\n\
         efficiency at 262,144 ranks (the LogGP model agrees to {:+.1}%); the\n\
         complex class is already down to {:.0}% at 4,096 ranks — {:.0}% *below*\n\
         the contention-free model, because the pairwise all-to-all queues on\n\
         the spine trunks — and keeps falling linearly. This matches slide 9's\n\
         claim that only regular sparse codes reach O(300k) cores. DEEP's\n\
         answer: run each class on the hardware that suits it.",
        spmv_262k * 100.0,
        (spmv_full.iter_s - analytic(SPMV_RANKS as u64, false))
            / analytic(SPMV_RANKS as u64, false)
            * 100.0,
        cplx_4k * 100.0,
        (1.0 - analytic(CPLX_RANKS as u64, true) / cplx_full.iter_s) * 100.0,
    );
}
