//! Determinism guard for the full-DES weak-scaling skeleton: a golden
//! digest for the headline 262,144-rank SpMV run. The summary digest
//! (per-iteration end instants + message count) is pinned, and the CI
//! determinism matrix runs this same test under `RAYON_NUM_THREADS=1`
//! and `=4`, so the value is asserted thread-invariant as well as
//! stable across kernel changes.

use deep_bench::des_scaling::{self, DesScalingConfig};

/// Summary digest of the 262,144-rank SpMV skeleton (1 iteration,
/// seed 1). It has held across every kernel change since it was
/// captured, including the move to a single timer heap. The CI
/// determinism matrix executes this test at `RAYON_NUM_THREADS` 1 and
/// 4; the digest is a pure function of the configuration, so both runs
/// must land exactly here.
const DES_262K_GOLDEN: u64 = 0x8d5b_00dc_e5ef_d607;

#[test]
fn des_262k_summary_digest_matches_golden_at_any_width() {
    let r = des_scaling::run(DesScalingConfig {
        ranks: 1 << 18,
        iters: 1,
        complex: false,
        seed: 1,
    });
    assert_eq!(r.segments, 14_564);
    assert_eq!(
        r.digest, DES_262K_GOLDEN,
        "262k SpMV summary digest moved: {:#018x}",
        r.digest
    );
}
