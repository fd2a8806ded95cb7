//! Golden digest of equal-work co-runs under every Fig. 6 policy.
//!
//! A few Fig. 6 pairs are measured in isolation for their instruction
//! targets, then co-run under Left-Over, Spatial, Even and Warped-Slicer
//! at a short isolation budget; the `Debug` rendering of every
//! `SimOutcome` (statistics, finish cycles, the Warped-Slicer decision,
//! fast-forward skip count) feeds one FNV-1a digest. This pins the co-run
//! and controller path the way `sweep_golden.rs` pins the single-kernel
//! sweep: simulator speed-ups must leave it unchanged, so the value may
//! only move together with a deliberate change to the simulated model.

use warped_slicer::policy::{PolicyKind, WarpedSlicerConfig};
use warped_slicer::{execute, RunConfig, SimJob};
use ws_workloads::all_pairs;

const ISOLATION_CYCLES: u64 = 4_000;

/// Digest of the co-run outcomes, recorded before the constant-cost SM
/// tick (lazy stall classification, timing-wheel wake sets) landed.
const GOLDEN: u64 = 0xa5fc_aa7e_a0e7_10c1;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn corun_digest_over_every_policy_is_pinned() {
    let cfg = RunConfig {
        isolation_cycles: ISOLATION_CYCLES,
        // Pinned so the skip count in the digest does not follow the
        // process default.
        fast_forward: Some(true),
        ..RunConfig::default()
    };
    let policies = [
        PolicyKind::LeftOver,
        PolicyKind::Spatial,
        PolicyKind::Even,
        PolicyKind::WarpedSlicer(WarpedSlicerConfig::scaled_for(ISOLATION_CYCLES)),
    ];
    let pool = ws_exec::Pool::from_env();
    let pairs: Vec<_> = all_pairs().into_iter().step_by(10).collect();
    assert_eq!(pairs.len(), 3);
    let mut jobs = Vec::new();
    for pair in &pairs {
        let descs = [&pair.a.desc, &pair.b.desc];
        let isolation: Vec<SimJob> = descs.iter().map(|d| SimJob::isolation(d, &cfg)).collect();
        let targets: Vec<u64> = pool
            .run(&isolation, |_, job| execute(job))
            .into_iter()
            .map(|o| o.into_isolation().target_insts)
            .collect();
        for policy in &policies {
            jobs.push(SimJob::corun(&descs, &targets, policy, &cfg));
        }
    }
    let outcomes = pool.run(&jobs, |_, job| execute(job));
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for (job, outcome) in jobs.iter().zip(&outcomes) {
        assert!(!outcome.timed_out, "{} under {}", job.label(), job.policy);
        fnv1a(
            &mut hash,
            format!("{} {}: {outcome:?}\n", job.label(), job.policy).as_bytes(),
        );
    }
    assert_eq!(
        hash, GOLDEN,
        "co-run digest moved ({hash:#x}): a simulator change altered co-run outcomes"
    );
}
