//! Property tests for the struct-of-arrays warp scoreboard.
//!
//! The SM maintains per-slot bitmasks (residency, finished, barrier,
//! i-buffer, mem-pending, op class of the decoded head) plus wake-driven
//! RAW and fetch readiness incrementally, and the schedulers select warps
//! by mask intersection. These tests drive random
//! issue/fill/barrier/launch/evict/relaunch sequences and clock jumps with
//! the in-tree deterministic `SimRng` and re-derive the scoreboard —
//! including both wake minima — from the `Option<Warp>` slots (the naive
//! oracle) after every step; any stale bit panics with the slot and field
//! that diverged.

use gpu_sim::{
    AccessPattern, Gpu, GpuConfig, KernelDesc, KernelId, MemSubsystem, ProgramSpec, SchedulerKind,
    SimRng, Sm,
};

fn kernel(name: &str, spec: ProgramSpec, iterations: u32, seed: u64) -> KernelDesc {
    KernelDesc {
        name: name.into(),
        grid_ctas: 1024,
        threads_per_cta: 128,
        regs_per_thread: 16,
        shmem_per_cta: 0,
        program: spec.generate(),
        iterations,
        pattern: AccessPattern::Random {
            footprint_lines: 1 << 14,
            transactions: 2,
        },
        icache_miss_rate: 0.01,
        shmem_conflict_degree: 1,
        seed,
    }
}

/// The three behaviour classes the scoreboard must track: serial ALU
/// chains (RAW bits), load-heavy streams (mem-pending bits and MSHR
/// fills), and barrier-synchronized CTAs (barrier park/release).
fn kernel_mix() -> Vec<KernelDesc> {
    vec![
        kernel(
            "alu",
            ProgramSpec {
                body_len: 24,
                dep_distance: 2,
                gload_frac: 0.0,
                ..ProgramSpec::default()
            },
            3,
            11,
        ),
        kernel(
            "mem",
            ProgramSpec {
                body_len: 24,
                dep_distance: 3,
                gload_frac: 0.4,
                gstore_frac: 0.1,
                ..ProgramSpec::default()
            },
            2,
            13,
        ),
        kernel(
            "bar",
            ProgramSpec {
                body_len: 24,
                dep_distance: 4,
                gload_frac: 0.2,
                barrier_frac: 0.15,
                ..ProgramSpec::default()
            },
            2,
            17,
        ),
    ]
}

/// Random issue/fill/barrier/exit sequences: every step (tick, fill batch,
/// launch, evict, evict-and-relaunch into the freed slots, clock jump) is
/// followed by a full oracle re-derivation. 6 seeds x both scheduler kinds
/// x 1500 steps each.
#[test]
fn bitmask_scoreboard_matches_naive_oracle_under_random_sequences() {
    let cfg = GpuConfig::isca_baseline();
    let descs = kernel_mix();
    for (case, kind) in [SchedulerKind::GreedyThenOldest, SchedulerKind::RoundRobin]
        .into_iter()
        .flat_map(|k| (0..6u64).map(move |s| (s, k)))
    {
        let mut rng = SimRng::seed_from_u64(
            0x50A0_0000 + case * 7 + u64::from(matches!(kind, SchedulerKind::RoundRobin)),
        );
        let mut sm = Sm::new(0, &cfg, kind);
        let mut mem = MemSubsystem::new(&cfg);
        let mut kernel_insts = vec![0u64; descs.len()];
        let mut responses = Vec::new();
        let mut cta_counter = [0u64; 3];
        let mut now = 0u64;
        for step in 0..1500u64 {
            let roll = rng.range_u64(100);
            if roll < 8 {
                // Launch a CTA of a random kernel (may fail when full).
                let k = rng.range_usize(descs.len());
                if sm.launch_cta(&descs[k], KernelId(k), cta_counter[k]) {
                    cta_counter[k] += 1;
                }
            } else if roll < 10 {
                // Evict a random kernel mid-flight (stale fills must be
                // dropped by generation checks, bits must clear).
                let k = rng.range_usize(descs.len());
                sm.evict_kernel(k, &descs[k]);
            } else if roll < 12 {
                // Evict and immediately relaunch another kernel into the
                // freed slots: a reused slot must not inherit a stale RAW
                // or fetch wait, or a stale op-class bit.
                let k = rng.range_usize(descs.len());
                sm.evict_kernel(k, &descs[k]);
                sm.check_scoreboard();
                let j = (k + 1 + rng.range_usize(descs.len() - 1)) % descs.len();
                if sm.launch_cta(&descs[j], KernelId(j), cta_counter[j]) {
                    cta_counter[j] += 1;
                }
            } else if roll < 14 {
                // Jump the clock further than any pipeline latency, as a
                // fast-forward does: every pending wake expires at once.
                now += 100 + rng.range_u64(2_000);
                sm.tick(now, &mut mem, &descs, &mut kernel_insts);
                responses.clear();
                mem.tick(now, &mut responses);
                let lines: Vec<_> = responses.iter().map(|r| r.line).collect();
                sm.on_fill_batch(&lines, now);
                now += 1;
            } else {
                sm.tick(now, &mut mem, &descs, &mut kernel_insts);
                responses.clear();
                mem.tick(now, &mut responses);
                let lines: Vec<_> = responses.iter().map(|r| r.line).collect();
                sm.on_fill_batch(&lines, now);
                now += 1;
            }
            sm.check_scoreboard();
            // The mask views must agree with their per-slot getters too.
            let t = sm.scoreboard();
            assert_eq!(
                t.live(),
                t.resident_mask()
                    & !{
                        let mut f = 0u64;
                        for slot in 0..sm.warp_slot_count() {
                            if sm.warp(slot).is_some_and(gpu_sim::Warp::finished) {
                                f |= 1 << slot;
                            }
                        }
                        f
                    },
                "case {case} step {step}: live() disagrees with warps"
            );
        }
        assert!(
            kernel_insts.iter().sum::<u64>() > 0,
            "case {case}: sequences must make progress"
        );
    }
}

/// Fast-forward on a sparse run — one single-warp CTA of dependent loads
/// at a time on one SM, so the GPU idles on DRAM for long spans — with the scoreboard of every SM
/// re-derived after each tick and each jump. Jumps must include spans
/// longer than every pipeline latency, so wake cycles expire inside them.
#[test]
fn scoreboard_matches_oracle_across_fast_forward_jumps() {
    let cfg = GpuConfig::isca_baseline();
    let longest_latency = u64::from(cfg.sm.max_wait());
    let mut gpu = Gpu::new(cfg, SchedulerKind::GreedyThenOldest);
    gpu.set_fast_forward(true);
    let descs = kernel_mix();
    let mem = gpu.add_kernel(KernelDesc {
        grid_ctas: 6,
        threads_per_cta: 32,
        program: ProgramSpec {
            body_len: 16,
            dep_distance: 1,
            gload_frac: 0.8,
            ..ProgramSpec::default()
        }
        .generate(),
        iterations: 20,
        pattern: AccessPattern::Random {
            footprint_lines: 1 << 16,
            transactions: 1,
        },
        ..descs[1].clone()
    });
    assert!(gpu.try_launch(mem, 0));
    let end = 30_000;
    let mut longest_jump = 0u64;
    while gpu.cycle() < end {
        gpu.tick();
        for s in 0..gpu.num_sms() {
            gpu.sm(s).check_scoreboard();
        }
        let resident = (0..gpu.num_sms()).any(|s| gpu.sm(s).scoreboard().live() != 0);
        let skipped = gpu.fast_forward(end);
        if resident {
            longest_jump = longest_jump.max(skipped);
        }
        for s in 0..gpu.num_sms() {
            gpu.sm(s).check_scoreboard();
        }
        // Refill so CTAs launch into slots that retired CTAs vacated.
        if gpu.sm(0).resident_ctas() == 0 {
            let _ = gpu.try_launch(mem, 0);
        }
    }
    assert!(gpu.kernel_insts(mem) > 0, "the run must make progress");
    assert!(
        longest_jump > longest_latency,
        "expected a jump over live warps longer than every latency ({longest_latency}), \
         longest was {longest_jump}"
    );
}

/// Shared-memory bank conflicts lengthen a result latency past the
/// scoreboard's wait wheel (sized from the config's latencies), so those
/// RAW waits take the overflow set. Checked against the oracle after every
/// tick and after clock jumps, and the run must actually wait past the
/// wheel.
#[test]
fn waits_longer_than_the_wheel_stay_exact() {
    let cfg = GpuConfig::isca_baseline();
    let wheel = u64::from(cfg.sm.max_wait().min(64).next_power_of_two());
    let desc = KernelDesc {
        shmem_per_cta: 1024,
        shmem_conflict_degree: 48,
        program: ProgramSpec {
            body_len: 16,
            dep_distance: 1,
            shmem_frac: 0.5,
            gload_frac: 0.1,
            ..ProgramSpec::default()
        }
        .generate(),
        iterations: 8,
        ..kernel_mix()[0].clone()
    };
    let descs = vec![desc];
    let mut sm = Sm::new(0, &cfg, SchedulerKind::GreedyThenOldest);
    let mut mem = MemSubsystem::new(&cfg);
    let mut kernel_insts = vec![0u64];
    let mut responses = Vec::new();
    for c in 0..2 {
        assert!(sm.launch_cta(&descs[0], KernelId(0), c));
    }
    let mut longest_wait = 0u64;
    let mut now = 0u64;
    while now < 6_000 {
        sm.tick(now, &mut mem, &descs, &mut kernel_insts);
        responses.clear();
        mem.tick(now, &mut responses);
        let lines: Vec<_> = responses.iter().map(|r| r.line).collect();
        sm.on_fill_batch(&lines, now);
        sm.check_scoreboard();
        let t = sm.scoreboard();
        if t.raw_wake() != u64::MAX {
            longest_wait = longest_wait.max(t.raw_wake() - now);
        }
        // Every 500 cycles jump past the whole wheel but short of the
        // longest wait, so overflow slots are refiled onto the wheel.
        now += if now.is_multiple_of(500) { 100 } else { 1 };
    }
    assert!(kernel_insts[0] > 0, "the run must make progress");
    assert!(
        longest_wait > wheel,
        "expected a RAW wait longer than the {wheel}-cycle wheel, longest was {longest_wait}"
    );
}

/// The single-popcount occupancy accumulator must equal the old per-warp
/// accumulation (count live warps slot by slot every cycle) on a
/// heterogeneous co-run that launches, retires, and evicts CTAs.
#[test]
fn count_ones_occupancy_matches_per_warp_accumulation() {
    let cfg = GpuConfig::isca_baseline();
    let descs = kernel_mix();
    let mut sm = Sm::new(0, &cfg, SchedulerKind::GreedyThenOldest);
    let mut mem = MemSubsystem::new(&cfg);
    let mut kernel_insts = vec![0u64; descs.len()];
    let mut responses = Vec::new();
    for c in 0..2 {
        assert!(sm.launch_cta(&descs[0], KernelId(0), c));
        assert!(sm.launch_cta(&descs[1], KernelId(1), c));
    }
    let mut expected: u128 = 0;
    for now in 0..4000u64 {
        if now == 1000 {
            assert!(sm.launch_cta(&descs[2], KernelId(2), 0));
        }
        if now == 2500 {
            sm.evict_kernel(1, &descs[1]);
        }
        sm.tick(now, &mut mem, &descs, &mut kernel_insts);
        responses.clear();
        mem.tick(now, &mut responses);
        for r in &responses {
            sm.on_fill(r.line, now);
        }
        // Old-style accumulation: walk every slot, count live warps.
        let mut live = 0u32;
        for slot in 0..sm.warp_slot_count() {
            if sm.warp(slot).is_some_and(|w| !w.finished()) {
                live += 1;
            }
        }
        expected += u128::from(live);
    }
    assert!(expected > 0, "co-run must have live warps");
    assert_eq!(
        sm.stats().warps_active_acc,
        expected,
        "popcount accumulator must match per-warp accumulation"
    );
    let max_warps = cfg.sm.max_warps();
    let avg = sm.stats().avg_warp_occupancy(max_warps);
    let manual = expected as f64 / (4000.0 * f64::from(max_warps));
    assert!(
        (avg - manual).abs() < 1e-12,
        "avg_warp_occupancy ({avg}) must match manual average ({manual})"
    );
}
