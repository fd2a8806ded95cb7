//! The online profiling strategy (Sec. IV-A, Fig. 4).
//!
//! When `K` kernels co-arrive, the SMs are split into `K` groups; within a
//! group each SM runs a different CTA count of its kernel. After a warm-up,
//! a short sampling window measures each SM's IPC and memory-stall fraction
//! (`φ_mem`); the sampled IPCs are corrected for bandwidth interference
//! ([`crate::scaling`]) and assembled into per-kernel performance-vs-CTA
//! curves for the water-filling partitioner.
//!
//! This module contains the *pure* parts of that pipeline — planning which
//! SM profiles which CTA count, and turning raw samples into curves — so
//! they are unit-testable without a simulator. The Warped-Slicer controller
//! drives them against a live [`gpu_sim::Gpu`].

use crate::audit::{AuditEvent, DecisionAudit};
use crate::runner::{execute_batch, RunConfig, SimJob, SimOutcome};
use crate::scaling::{
    bandwidth_scale_factor_audited, psi, psi_measured, scale_ipc_with_psi_audited,
};
use crate::sweep::SweepWindow;
use gpu_sim::KernelDesc;

/// Timing parameters of the profiling phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileTiming {
    /// Cycles to let the GPU warm up before sampling (paper: 20 K).
    pub warmup: u64,
    /// Sampling-window length in cycles (paper: 5 K).
    pub sample: u64,
    /// Extra cycles between the end of sampling and applying the new
    /// partition, modeling the partitioning algorithm's own latency
    /// (Fig. 10a sensitivity; default 0).
    pub algorithm_delay: u64,
}

impl Default for ProfileTiming {
    fn default() -> Self {
        Self {
            warmup: 20_000,
            sample: 5_000,
            algorithm_delay: 0,
        }
    }
}

/// One SM's profiling assignment: run `quota` CTAs of kernel `kernel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmAssignment {
    /// SM index.
    pub sm: usize,
    /// Kernel slot profiled on this SM.
    pub kernel: usize,
    /// CTA count to hold resident.
    pub quota: u32,
}

/// The profiling plan: one assignment per SM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfilePlan {
    /// Per-SM assignments, one entry per SM.
    pub assignments: Vec<SmAssignment>,
}

impl ProfilePlan {
    /// Builds the Fig. 4 plan: SMs are split into `windows.len()`
    /// contiguous groups, and kernel `i`'s group ramps over its
    /// [`SweepWindow::planned_caps`] — duplicating counts when the group
    /// has more SMs than caps, spreading evenly when it has fewer, and
    /// always probing 1 CTA first and the last planned cap last. For a
    /// prediction-pruned window that is the dense prefix around the
    /// predicted knee plus the guard points, so online sampling
    /// concentrates where the knee is expected while the guard at the
    /// feasibility bound still checks the skipped tail; a full window
    /// ramps `1..=max`. A one-SM group spends its single sample on
    /// [`SweepWindow::knee_cap`] — the predicted knee — because a knee
    /// sample anchors the curve's ramp where a guard-bound sample alone
    /// would flatline it (the K == `num_sms` co-run case).
    ///
    /// # Examples
    ///
    /// ```
    /// use warped_slicer::profiler::ProfilePlan;
    /// use warped_slicer::sweep::SweepPlan;
    ///
    /// // Two kernels on 16 SMs: kernel 0 profiles 1..=8 CTAs on SMs 0-7.
    /// let plan = ProfilePlan::build_windowed(16, &SweepPlan::full(&[8, 8]).windows);
    /// let quotas: Vec<u32> = plan.for_kernel(0).map(|a| a.quota).collect();
    /// assert_eq!(quotas, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if there are no kernels or more kernels than SMs.
    #[must_use]
    pub fn build_windowed(num_sms: usize, windows: &[SweepWindow]) -> Self {
        let k = windows.len();
        assert!(k > 0, "at least one kernel required");
        assert!(k <= num_sms, "more kernels than SMs");
        let mut assignments = Vec::with_capacity(num_sms);
        let base = num_sms / k;
        let extra = num_sms % k;
        let mut sm = 0;
        for (i, w) in windows.iter().enumerate() {
            let group = base + usize::from(i < extra);
            let caps = w.planned_caps();
            let last = caps.len() - 1;
            for j in 0..group {
                let quota = if group == 1 {
                    // One sample for the whole kernel: probe the predicted
                    // knee, not the guard.
                    w.knee_cap()
                } else {
                    // Evenly spread the planned caps over the group
                    // (rounding so the last SM always probes the guard).
                    let t = j as f64 / (group - 1) as f64;
                    caps[(t * last as f64).round() as usize]
                };
                assignments.push(SmAssignment {
                    sm,
                    kernel: i,
                    quota,
                });
                sm += 1;
            }
        }
        Self { assignments }
    }

    /// Assignments belonging to kernel `kernel`.
    pub fn for_kernel(&self, kernel: usize) -> impl Iterator<Item = &SmAssignment> {
        self.assignments.iter().filter(move |a| a.kernel == kernel)
    }
}

/// Samples per-kernel performance-vs-CTA curves *offline* by running the
/// Fig. 4 grid — every (kernel, CTA count) point up to `max_ctas[i]` — as
/// independent [`SimJob::cta_cap`] simulations on `pool`.
///
/// This is the batch analogue of the online profiling phase: where the live
/// controller samples all points simultaneously on disjoint SM groups of
/// one GPU, this variant gives each point its own dedicated simulation of
/// `window` cycles, trading simulated time for sampling noise. The result
/// has the same shape as [`build_curves`]:
/// `curve[i][j]` = IPC of kernel `i` with `j + 1` CTAs per SM.
///
/// Determinism: jobs are pure data and the pool collects results by
/// submission index, so the curves are byte-identical for any worker count.
///
/// # Panics
///
/// Panics if `descs` and `max_ctas` lengths differ.
#[must_use]
pub fn profile_curves(
    pool: &ws_exec::Pool,
    descs: &[&KernelDesc],
    max_ctas: &[u32],
    window: u64,
    cfg: &RunConfig,
) -> Vec<Vec<f64>> {
    assert_eq!(descs.len(), max_ctas.len(), "one CTA bound per kernel");
    let mut jobs = Vec::new();
    for (desc, &max) in descs.iter().zip(max_ctas) {
        for cap in 1..=max.max(1) {
            jobs.push(SimJob::cta_cap(desc, cap, window, cfg));
        }
    }
    let mut outcomes = execute_batch(pool, &jobs).into_iter();
    max_ctas
        .iter()
        .map(|&max| {
            (1..=max.max(1))
                .map(|_| {
                    outcomes
                        .next()
                        .as_ref()
                        .map_or(0.0, SimOutcome::measured_ipc)
                })
                .collect()
        })
        .collect()
}

/// One SM's raw sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileSample {
    /// Kernel slot this sample measures.
    pub kernel: usize,
    /// CTA count the SM was holding.
    pub ctas: u32,
    /// IPC of that SM over the sampling window.
    pub ipc_sampled: f64,
    /// Fraction of scheduler-cycles lost to long memory latency.
    pub phi_mem: f64,
    /// Measured bandwidth evidence. When present, the correction factor is
    /// computed from the SM's actual DRAM share
    /// ([`bandwidth_scale_factor_audited`]); when absent, the paper's CTA-count
    /// approximation ([`psi`]) is used.
    pub bandwidth: Option<BandwidthSample>,
}

/// Per-SM DRAM-bandwidth evidence gathered over the sampling window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthSample {
    /// DRAM transactions this SM issued during the window.
    pub sm_transactions: u64,
    /// The SM's fair share of the DRAM subsystem's transaction *capacity*
    /// over the window (`channels x window / burst / num_sms`) — the
    /// bandwidth it would get if every SM ran its configuration on a
    /// saturated bus.
    pub fair_transactions: f64,
    /// Fraction of DRAM data-bus cycles busy during the window; damps the
    /// correction when the bus was not contended.
    pub dram_busy: f64,
}

/// Turns raw per-SM samples into per-kernel performance curves
/// `curve[i][j] = predicted perf of kernel i with j + 1 CTAs`, applying the
/// bandwidth-interference scaling factor and interpolating CTA counts that
/// were not directly sampled.
///
/// `max_ctas[i]` bounds kernel `i`'s curve length.
#[must_use]
pub fn build_curves(samples: &[ProfileSample], max_ctas: &[u32]) -> Vec<Vec<f64>> {
    build_curves_audited(samples, max_ctas, &mut DecisionAudit::new(false))
}

/// [`build_curves`] with a decision-audit trail: every sample's Eq. 2-4
/// scaling application is recorded as an [`AuditEvent::ScaledPoint`]
/// carrying the raw IPC, the `φ_mem`/`ψ` inputs, and the clamp verdict, in
/// sample order.
#[must_use]
pub fn build_curves_audited(
    samples: &[ProfileSample],
    max_ctas: &[u32],
    audit: &mut DecisionAudit,
) -> Vec<Vec<f64>> {
    let cta_avg = if samples.is_empty() {
        1.0
    } else {
        samples.iter().map(|s| f64::from(s.ctas)).sum::<f64>() / samples.len() as f64
    };
    max_ctas
        .iter()
        .enumerate()
        .map(|(i, &max)| {
            let n = max.max(1) as usize;
            // Average scaled IPC per sampled CTA count.
            let mut sums = vec![0.0f64; n];
            let mut counts = vec![0u32; n];
            for s in samples.iter().filter(|s| s.kernel == i) {
                let j = (s.ctas.clamp(1, max) - 1) as usize;
                let (psi_used, outcome) = match s.bandwidth {
                    Some(bw) => (
                        psi_measured(bw.sm_transactions, bw.fair_transactions, bw.dram_busy),
                        bandwidth_scale_factor_audited(
                            s.ipc_sampled,
                            bw.sm_transactions,
                            bw.fair_transactions,
                            bw.dram_busy,
                            s.phi_mem,
                        ),
                    ),
                    None => {
                        let p = psi(s.ctas, cta_avg);
                        (p, scale_ipc_with_psi_audited(s.ipc_sampled, s.phi_mem, p))
                    }
                };
                audit.record(AuditEvent::ScaledPoint {
                    kernel: s.kernel,
                    ctas: s.ctas,
                    ipc_sampled: s.ipc_sampled,
                    phi_mem: s.phi_mem,
                    psi: psi_used,
                    outcome,
                });
                sums[j] += outcome.ipc;
                counts[j] += 1;
            }
            interpolate_counts(&sums, &counts)
        })
        .collect()
}

/// Linear interpolation over missing points; extrapolation clamps to the
/// nearest measured value (and to zero at 0 CTAs on the left). Shared with
/// the prediction-driven sweep pruner ([`crate::sweep`]), which relies on
/// interpolated values being bounded by their sampled endpoints.
pub(crate) fn interpolate_counts(sums: &[f64], counts: &[u32]) -> Vec<f64> {
    let n = sums.len();
    let measured: Vec<(usize, f64)> = sums
        .iter()
        .zip(counts)
        .enumerate()
        .filter(|&(_, (_, &c))| c > 0)
        .map(|(j, (&s, &c))| (j, s / f64::from(c)))
        .collect();
    if measured.is_empty() {
        return vec![0.0; n];
    }
    (0..n)
        .map(
            |j| match measured.binary_search_by_key(&j, |&(idx, _)| idx) {
                Ok(pos) => measured.get(pos).map_or(0.0, |&(_, v)| v),
                Err(pos) => {
                    let left = pos.checked_sub(1).and_then(|p| measured.get(p));
                    match (left, measured.get(pos)) {
                        // Left of the first sample: interpolate toward 0 at
                        // "0 CTAs" (IPC vanishes with no CTAs).
                        (None, Some(&(j1, v1))) => v1 * (j + 1) as f64 / (j1 + 1) as f64,
                        // Right of the last sample: clamp.
                        (Some(&(_, v0)), None) => v0,
                        (Some(&(j0, v0)), Some(&(j1, v1))) => {
                            let t = (j - j0) as f64 / (j1 - j0) as f64;
                            v0 + (v1 - v0) * t
                        }
                        // `measured` is non-empty, so one neighbour exists.
                        (None, None) => 0.0,
                    }
                }
            },
        )
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepPlan;

    /// The unpruned Fig. 4 ramp: full windows for every kernel.
    fn full_plan(num_sms: usize, max_ctas: &[u32]) -> ProfilePlan {
        ProfilePlan::build_windowed(num_sms, &SweepPlan::full(max_ctas).windows)
    }

    #[test]
    fn two_kernel_plan_splits_sms_evenly() {
        let plan = full_plan(16, &[8, 8]);
        assert_eq!(plan.assignments.len(), 16);
        assert_eq!(plan.for_kernel(0).count(), 8);
        assert_eq!(plan.for_kernel(1).count(), 8);
        // Fig. 4: quotas ramp 1..=8 within each group.
        let quotas: Vec<u32> = plan.for_kernel(0).map(|a| a.quota).collect();
        assert_eq!(quotas, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let quotas: Vec<u32> = plan.for_kernel(1).map(|a| a.quota).collect();
        assert_eq!(quotas, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn small_max_duplicates_counts() {
        let plan = full_plan(16, &[3, 8]);
        let quotas: Vec<u32> = plan.for_kernel(0).map(|a| a.quota).collect();
        assert_eq!(quotas.len(), 8);
        assert_eq!(*quotas.first().unwrap(), 1);
        assert_eq!(*quotas.last().unwrap(), 3);
        assert!(quotas.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn three_kernel_plan_covers_all_sms() {
        let plan = full_plan(16, &[8, 6, 8]);
        assert_eq!(plan.assignments.len(), 16);
        // 16 = 6 + 5 + 5.
        assert_eq!(plan.for_kernel(0).count(), 6);
        assert_eq!(plan.for_kernel(1).count(), 5);
        assert_eq!(plan.for_kernel(2).count(), 5);
        for k in 0..3 {
            let quotas: Vec<u32> = plan.for_kernel(k).map(|a| a.quota).collect();
            assert_eq!(*quotas.first().unwrap(), 1, "always probe 1 CTA");
            assert!(quotas.windows(2).all(|w| w[0] <= w[1]));
        }
        // SM indices are a permutation of 0..16.
        let mut sms: Vec<usize> = plan.assignments.iter().map(|a| a.sm).collect();
        sms.sort_unstable();
        assert_eq!(sms, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn windowed_plan_concentrates_samples_and_keeps_the_guard() {
        // Kernel 0: knee predicted at 2 out of 8 -> dense 1..=3, midpoint
        // 5, guard 8. Kernel 1: full window.
        let windows = [SweepWindow::around_knee(2, 8), SweepWindow::full(8)];
        let plan = ProfilePlan::build_windowed(16, &windows);
        assert_eq!(plan.assignments.len(), 16);
        let quotas: Vec<u32> = plan.for_kernel(0).map(|a| a.quota).collect();
        // 8 SMs over caps [1, 2, 3, 5, 8]: starts at 1, ends at the guard,
        // non-decreasing, and only planned caps appear.
        assert_eq!(quotas.first(), Some(&1));
        assert_eq!(quotas.last(), Some(&8));
        assert!(quotas.windows(2).all(|w| w[0] <= w[1]));
        assert!(quotas.iter().all(|q| [1, 2, 3, 5, 8].contains(q)));
        // The dense window is sampled more heavily than under the plain
        // ramp (which gives each count one SM).
        assert!(quotas.iter().filter(|&&q| q <= 3).count() > 3, "{quotas:?}");
        let quotas: Vec<u32> = plan.for_kernel(1).map(|a| a.quota).collect();
        assert_eq!(quotas, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn curves_average_and_scale() {
        // Two samples of the same point average; phi=0 means no scaling.
        let samples = [
            ProfileSample {
                kernel: 0,
                ctas: 1,
                ipc_sampled: 1.0,
                phi_mem: 0.0,
                bandwidth: None,
            },
            ProfileSample {
                kernel: 0,
                ctas: 1,
                ipc_sampled: 3.0,
                phi_mem: 0.0,
                bandwidth: None,
            },
            ProfileSample {
                kernel: 0,
                ctas: 2,
                ipc_sampled: 4.0,
                phi_mem: 0.0,
                bandwidth: None,
            },
        ];
        let curves = build_curves(&samples, &[2]);
        assert_eq!(curves.len(), 1);
        assert!((curves[0][0] - 2.0).abs() < 1e-12);
        assert!((curves[0][1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn curves_interpolate_gaps() {
        let samples = [
            ProfileSample {
                kernel: 0,
                ctas: 1,
                ipc_sampled: 1.0,
                phi_mem: 0.0,
                bandwidth: None,
            },
            ProfileSample {
                kernel: 0,
                ctas: 5,
                ipc_sampled: 5.0,
                phi_mem: 0.0,
                bandwidth: None,
            },
        ];
        let c = &build_curves(&samples, &[8])[0];
        assert!((c[2] - 3.0).abs() < 1e-9, "midpoint interpolates: {c:?}");
        assert!((c[7] - 5.0).abs() < 1e-9, "right edge clamps");
    }

    #[test]
    fn memory_bound_samples_get_scaled() {
        // Average CTA count is 4.5; the 8-CTA fully memory-bound sample is
        // scaled up, the 1-CTA one down.
        let samples = [
            ProfileSample {
                kernel: 0,
                ctas: 1,
                ipc_sampled: 1.0,
                phi_mem: 1.0,
                bandwidth: None,
            },
            ProfileSample {
                kernel: 0,
                ctas: 8,
                ipc_sampled: 1.0,
                phi_mem: 1.0,
                bandwidth: None,
            },
        ];
        let c = &build_curves(&samples, &[8])[0];
        assert!(c[0] < 1.0);
        assert!(c[7] > 1.0);
    }

    #[test]
    fn measured_bandwidth_overrides_cta_ratio() {
        // The 8-CTA SM consumed over 3x its fair share of a saturated bus:
        // its sample is scaled *down*, not up; the underfed 2-CTA SM is
        // scaled up.
        let bw = |tx: u64| {
            Some(BandwidthSample {
                sm_transactions: tx,
                fair_transactions: 100.0,
                dram_busy: 1.0,
            })
        };
        let samples = [
            ProfileSample {
                kernel: 0,
                ctas: 2,
                ipc_sampled: 2.0,
                phi_mem: 1.0,
                bandwidth: bw(50),
            },
            ProfileSample {
                kernel: 0,
                ctas: 8,
                ipc_sampled: 2.0,
                phi_mem: 1.0,
                bandwidth: bw(350),
            },
        ];
        let c = &build_curves(&samples, &[8])[0];
        assert!(c[7] < 2.0, "hog scaled down: {c:?}");
        assert!(c[1] > 2.0, "underfed scaled up: {c:?}");
    }

    #[test]
    fn audited_curves_record_every_scaling_application() {
        let samples = [
            ProfileSample {
                kernel: 0,
                ctas: 1,
                ipc_sampled: 1.0,
                phi_mem: 0.5,
                bandwidth: None,
            },
            ProfileSample {
                kernel: 1,
                ctas: 4,
                ipc_sampled: 2.0,
                phi_mem: 1.0,
                bandwidth: Some(BandwidthSample {
                    sm_transactions: 350,
                    fair_transactions: 100.0,
                    dram_busy: 1.0,
                }),
            },
        ];
        let mut audit = DecisionAudit::default();
        let audited = build_curves_audited(&samples, &[2, 4], &mut audit);
        // The audited and plain entry points agree on the curves.
        assert_eq!(audited, build_curves(&samples, &[2, 4]));
        assert_eq!(audit.scaled_points(0).count(), 1);
        assert_eq!(audit.scaled_points(1).count(), 1);
        // The recorded outcome reproduces the curve point it fed.
        let Some(AuditEvent::ScaledPoint {
            ipc_sampled,
            outcome,
            ..
        }) = audit.scaled_points(0).next()
        else {
            panic!("missing scaled point");
        };
        assert!((ipc_sampled * outcome.factor - outcome.ipc).abs() < 1e-12);
        assert!((outcome.ipc - audited[0][0]).abs() < 1e-12);
    }

    #[test]
    fn empty_samples_give_zero_curves() {
        let c = build_curves(&[], &[4]);
        assert_eq!(c, vec![vec![0.0; 4]]);
    }

    #[test]
    #[should_panic(expected = "more kernels than SMs")]
    fn too_many_kernels_rejected() {
        let _ = full_plan(2, &[1, 1, 1]);
    }

    #[test]
    fn single_sm_groups_probe_the_predicted_knee() {
        // K == num_sms: every group has exactly one SM, so each kernel
        // gets exactly one sample. It must be the predicted knee — the
        // guard at the feasibility bound would make build_curves see a
        // flat single-point curve at the wrong end.
        let windows = [
            SweepWindow::around_knee(2, 8),
            SweepWindow::around_knee(4, 8),
        ];
        let plan = ProfilePlan::build_windowed(2, &windows);
        let quotas: Vec<u32> = plan.assignments.iter().map(|a| a.quota).collect();
        assert_eq!(quotas, vec![2, 4]);
        // Full windows keep probing the bound.
        let plan = full_plan(2, &[8, 6]);
        let quotas: Vec<u32> = plan.assignments.iter().map(|a| a.quota).collect();
        assert_eq!(quotas, vec![8, 6]);
    }

    #[test]
    fn single_knee_sample_yields_a_non_degenerate_curve() {
        // The K == num_sms case downstream: one sample at the knee still
        // gives build_curves a ramp (toward 0 at 0 CTAs) plus a clamped
        // tail, not a curve that is flat everywhere.
        let samples = [ProfileSample {
            kernel: 0,
            ctas: 4,
            ipc_sampled: 2.0,
            phi_mem: 0.0,
            bandwidth: None,
        }];
        let c = &build_curves(&samples, &[8])[0];
        assert!(c[0] < c[3], "curve ramps up to the knee: {c:?}");
        assert!((c[3] - 2.0).abs() < 1e-12, "knee point is exact");
        assert!((c[7] - 2.0).abs() < 1e-12, "right of the sample clamps");
    }
}
