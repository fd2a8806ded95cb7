//! Golden digest of the planned profiling sweep over every Fig. 6 pair.
//!
//! Each of the 30 pairs is planned from its `ws-predict` curves and swept
//! with [`profile_curves_planned`] at a 2000-cycle window; the `Debug`
//! rendering of every [`warped_slicer::sweep::PlannedSweep`] (sampled and
//! interpolated curves, acceptance flags, sample counts) feeds one FNV-1a
//! digest. Simulator speed-ups must leave every sampled IPC bit-identical,
//! so this value may only change together with a deliberate change to the
//! simulated model.

use gpu_sim::GpuConfig;
use warped_slicer::sweep::{profile_curves_planned, SweepPlan};
use warped_slicer::RunConfig;
use ws_workloads::all_pairs;

const WINDOW: u64 = 2_000;

/// Digest of the 30 pairs' `PlannedSweep` `Debug` renderings, recorded
/// before the wake-driven scoreboard masks landed (identical with
/// fast-forward on or off, at any worker count).
const GOLDEN: u64 = 0x8376_ed0f_95e9_4d5f;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn planned_sweep_digest_over_every_pair_is_pinned() {
    let gpu = GpuConfig::isca_baseline();
    let cfg = RunConfig::default();
    let pool = ws_exec::Pool::from_env();
    let pairs = all_pairs();
    assert_eq!(pairs.len(), 30, "Fig. 6 evaluates 30 pairs");
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for pair in &pairs {
        let descs = [&pair.a.desc, &pair.b.desc];
        let maxes = [
            pair.a.desc.max_ctas_per_sm(&gpu.sm),
            pair.b.desc.max_ctas_per_sm(&gpu.sm),
        ];
        let plan = SweepPlan::from_predictions(&descs, &maxes, &gpu);
        let swept = profile_curves_planned(&pool, &descs, &plan, WINDOW, &cfg);
        fnv1a(
            &mut hash,
            format!("{}: {swept:?}\n", pair.label()).as_bytes(),
        );
    }
    assert_eq!(
        hash, GOLDEN,
        "planned-sweep digest moved: a simulator change altered sampled IPCs"
    );
}
