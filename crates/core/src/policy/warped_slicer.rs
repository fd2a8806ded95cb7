//! The Warped-Slicer dynamic intra-SM slicing controller (Sec. IV).
//!
//! Lifecycle: *profile* (each SM holds a different CTA count of one kernel;
//! Fig. 4) → *sample* (5 K-cycle IPC / `φ_mem` measurement per SM) →
//! *decide* (bandwidth-scaled curves into the water-filling partitioner;
//! fall back to spatial multitasking when the predicted loss exceeds
//! `1/K × 120 %`) → *run* (fixed CTA quotas per SM, Fig. 2d/2e), with an
//! optional phase monitor that re-triggers sampling on sustained IPC shifts.
//! The profiling plan, the quota decision and the spatial fallback are
//! window tables of the shared `Slicer`, which also releases them on the
//! first kernel halt and sweeps launches against them.

use gpu_sim::{Gpu, KernelDesc};

use crate::audit::{AuditEvent, DecisionAudit};
use crate::phase::PhaseMonitor;
use crate::policy::{blocked_window, Controller, Decision, Slicer, Slicing, WindowTable};
use crate::profiler::{
    build_curves_audited, BandwidthSample, ProfilePlan, ProfileSample, ProfileTiming,
};
use crate::resources::ResourceVec;
use crate::store::{KernelSignature, SharedCurveStore, StoreEntry};
use crate::sweep::SweepPlan;
use crate::waterfill::{water_fill_traced, KernelCurve};

/// Phase-monitor window length in cycles: one 5 K-cycle profile run.
const PHASE_WINDOW: u64 = 5_000;

/// Windows to wait after a decision before arming the phase monitor, so
/// the drain of over-quota profile CTAs (Fig. 2e) is not mistaken for a
/// program phase change.
const PHASE_SETTLE_WINDOWS: u64 = 4;

/// Tunables for the Warped-Slicer controller.
#[derive(Debug, Clone, PartialEq)]
pub struct WarpedSlicerConfig {
    /// Warm-up / sample / decision-delay cycle counts.
    pub timing: ProfileTiming,
    /// Per-kernel performance-loss threshold above which the controller
    /// falls back to spatial multitasking. `None` selects the paper's
    /// `1/K × 120 %`.
    pub loss_threshold: Option<f64>,
    /// Apply the Eq. 3 bandwidth-interference scaling factor (ablation
    /// hook; the paper always scales).
    pub enable_scaling: bool,
    /// Monitor per-kernel IPC after the decision and re-profile on
    /// sustained change (Sec. IV-B).
    pub enable_phase_monitor: bool,
    /// Record a [`DecisionAudit`] of every scaling application,
    /// water-filling grant, fallback verdict, and phase-monitor window.
    /// Recording happens only at decision points, so the simulated run is
    /// identical either way; off by default, when the controller's audit
    /// drops every event without building it.
    pub audit: bool,
    /// Attach a shared ws-store performance-curve cache. Before installing
    /// profiling windows the controller looks every kernel's signature up
    /// in the store; when all of them hit, the memoized curves go straight
    /// to Algorithm 1 water-filling and the profiling sweep is skipped
    /// entirely. Cold decisions insert their accepted curves; a
    /// phase-monitor trigger invalidates exactly the triggered kernel's
    /// key before the re-profile replaces it. `None` (the default) keeps
    /// the controller store-free.
    pub store: Option<SharedCurveStore>,
}

impl Default for WarpedSlicerConfig {
    fn default() -> Self {
        Self {
            timing: ProfileTiming::default(),
            loss_threshold: None,
            enable_scaling: true,
            enable_phase_monitor: true,
            audit: false,
            store: None,
        }
    }
}

impl WarpedSlicerConfig {
    /// Profile timing proportional to the experiment's cycle budget.
    ///
    /// The paper profiles for 20 K + 5 K cycles out of 2 M-cycle runs
    /// (~1 % overhead). When an experiment scales the run budget down, the
    /// profile phases scale with it (capped at the paper's values) so the
    /// relative overhead matches the paper's.
    #[must_use]
    pub fn scaled_for(isolation_cycles: u64) -> Self {
        Self {
            timing: ProfileTiming {
                warmup: (isolation_cycles / 15).clamp(1_000, 20_000),
                sample: (isolation_cycles / 40).clamp(500, 5_000),
                algorithm_delay: 0,
            },
            ..Self::default()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Init,
    Warmup { until: u64 },
    Sampling { until: u64 },
    Deciding { until: u64 },
    Run,
}

#[derive(Debug, Clone, Copy, Default)]
struct SmSnap {
    insts: u64,
    mem_stalls: u64,
    cycles: u64,
    dram_transactions: u64,
}

/// The dynamic Warped-Slicer CTA-dispatch controller.
#[derive(Debug)]
pub struct WarpedSlicerController {
    cfg: WarpedSlicerConfig,
    phase: Phase,
    slicer: Slicer,
    plan: Option<ProfilePlan>,
    snapshots: Vec<SmSnap>,
    decision: Option<Decision>,
    monitors: Vec<PhaseMonitor>,
    last_kernel_insts: Vec<u64>,
    last_phase_check: u64,
    phase_armed_at: u64,
    dram_busy_snap: u64,
    reprofiles: u32,
    known_kernels: usize,
    audit: DecisionAudit,
    store_keys: Vec<Option<KernelSignature>>,
    warm_decisions: u32,
}

impl WarpedSlicerController {
    /// Creates the controller.
    #[must_use]
    pub fn new(cfg: WarpedSlicerConfig) -> Self {
        let audit = DecisionAudit::new(cfg.audit);
        Self {
            cfg,
            phase: Phase::Init,
            slicer: Slicer::default(),
            plan: None,
            snapshots: Vec::new(),
            decision: None,
            monitors: Vec::new(),
            last_kernel_insts: Vec::new(),
            last_phase_check: 0,
            phase_armed_at: 0,
            dram_busy_snap: 0,
            reprofiles: 0,
            known_kernels: 0,
            audit,
            store_keys: Vec::new(),
            warm_decisions: 0,
        }
    }

    /// How many times the phase monitor forced a re-profile.
    #[must_use]
    pub fn reprofile_count(&self) -> u32 {
        self.reprofiles
    }

    /// How many decisions were made from memoized ws-store curves (the
    /// profiling sweep skipped entirely).
    #[must_use]
    pub fn warm_decision_count(&self) -> u32 {
        self.warm_decisions
    }

    fn max_ctas(gpu: &Gpu) -> Vec<u32> {
        gpu.kernel_ids()
            .iter()
            .map(|&k| gpu.kernel_desc(k).max_ctas_per_sm(&gpu.config().sm).max(1))
            .collect()
    }

    /// Re-derives the per-kernel store signatures for the current kernel
    /// set (static analysis only; runs at decision points, never per tick).
    fn derive_store_keys(&mut self, gpu: &Gpu) {
        let cfg = gpu.config();
        self.store_keys = gpu
            .kernel_ids()
            .iter()
            .map(|&k| KernelSignature::derive(gpu.kernel_desc(k), cfg))
            .collect();
    }

    /// The ws-store lookup-before-profile path: when a store is attached
    /// and *every* kernel's signature hits, the memoized curves go straight
    /// to water-filling and no profiling windows are ever installed.
    /// Returns whether a warm decision was made.
    fn try_store_decision(&mut self, gpu: &mut Gpu) -> bool {
        let Some(store) = self.cfg.store.clone() else {
            return false;
        };
        if gpu.kernel_ids().is_empty() {
            return false;
        }
        self.derive_store_keys(gpu);
        let keys = self.store_keys.clone();
        let curves: Vec<Option<Vec<f64>>> = store.with(|s| {
            keys.iter()
                .map(|sig| {
                    let sig = sig.as_ref()?;
                    s.lookup(&sig.key).map(|e| e.perf.clone())
                })
                .collect()
        });
        self.audit
            .record_all(
                keys.iter()
                    .zip(&curves)
                    .enumerate()
                    .filter_map(|(i, (sig, curve))| {
                        let sig = sig.as_ref()?.key.kernel_sig;
                        Some(match curve {
                            Some(perf) => AuditEvent::StoreHit {
                                kernel: i,
                                sig,
                                perf: perf.clone(),
                            },
                            None => AuditEvent::StoreMiss { kernel: i, sig },
                        })
                    }),
            );
        let Some(curves) = curves.into_iter().collect::<Option<Vec<Vec<f64>>>>() else {
            return false;
        };
        self.warm_decisions += 1;
        self.decide_from_curves(gpu, curves);
        true
    }

    /// Inserts (or replaces) the accepted measured curves into the
    /// attached store after a cold decision.
    fn store_insert(&mut self, gpu: &Gpu, curves: &[Vec<f64>]) {
        let Some(store) = self.cfg.store.clone() else {
            return;
        };
        self.derive_store_keys(gpu);
        store.with(|s| {
            for (sig, perf) in self.store_keys.iter().zip(curves) {
                if let Some(sig) = sig {
                    let _ = s.insert(sig.key, StoreEntry::measured(sig, perf.clone()));
                }
            }
        });
    }

    /// Invalidates exactly one kernel's store entry (a phase-monitor
    /// trigger: the memoized curve no longer describes the kernel).
    fn store_invalidate(&mut self, kernel: usize) {
        let Some(store) = self.cfg.store.clone() else {
            return;
        };
        let Some(Some(sig)) = self.store_keys.get(kernel).copied() else {
            return;
        };
        let removed = store.with(|s| s.invalidate(&sig.key));
        if removed {
            self.audit.record(AuditEvent::StoreInvalidate {
                kernel,
                sig: sig.key.kernel_sig,
            });
        }
    }

    fn enter_profile(&mut self, gpu: &mut Gpu) {
        if self.try_store_decision(gpu) {
            return;
        }
        let now = gpu.cycle();
        let ids = gpu.kernel_ids();
        // Each kernel's SM group ramps over its `ws-predict` window: dense
        // around the predicted knee, guarded at the feasibility bound. A
        // kernel whose prediction fails pre-flight keeps its full `1..=N`
        // ramp — pruning is an optimization, never a gate.
        let descs: Vec<&KernelDesc> = ids.iter().map(|&k| gpu.kernel_desc(k)).collect();
        let sweep = SweepPlan::from_predictions_audited(
            &descs,
            &Self::max_ctas(gpu),
            gpu.config(),
            &mut self.audit,
        );
        let plan = ProfilePlan::build_windowed(gpu.num_sms(), &sweep.windows);
        // Each SM runs its assigned kernel alone, capped at the planned
        // CTA count.
        let sm = &gpu.config().sm;
        let mut table: WindowTable = vec![vec![Some(blocked_window()); ids.len()]; gpu.num_sms()];
        for a in &plan.assignments {
            table[a.sm][a.kernel] = Some(gpu_sim::PartitionWindow {
                regs: gpu_sim::Region::whole(sm.max_registers),
                shmem: gpu_sim::Region::whole(sm.shared_mem_bytes),
                max_ctas: a.quota,
                max_threads: sm.max_threads,
            });
        }
        self.slicer.install(gpu, table);
        self.plan = Some(plan);
        self.phase = Phase::Warmup {
            until: now + self.cfg.timing.warmup,
        };
    }

    fn take_snapshots(&mut self, gpu: &Gpu) {
        // Phase-machine invariant: only Profiling reaches here, after
        // `start_profiling` installed a plan. xtask-allow: no-unwrap
        let plan = self.plan.as_ref().expect("snapshot requires a plan");
        self.snapshots = plan
            .assignments
            .iter()
            .map(|a| {
                let st = gpu.sm(a.sm).stats();
                SmSnap {
                    insts: st.kernel(a.kernel).insts_issued,
                    mem_stalls: st.stalls.mem,
                    cycles: st.cycles,
                    dram_transactions: gpu.mem_stats().dram_by_sm(a.sm),
                }
            })
            .collect();
        self.dram_busy_snap = gpu.mem().dram_busy_cycles();
    }

    fn decide(&mut self, gpu: &mut Gpu) {
        // Phase-machine invariant: Deciding follows Profiling, which
        // installed the plan. xtask-allow: no-unwrap
        let plan = self.plan.as_ref().expect("decision requires a plan");
        let num_sched = gpu.config().sm.num_schedulers;
        let sample_cycles = self.cfg.timing.sample.max(1);
        let num_channels = gpu.mem().num_channels() as u64;
        let dram_busy = (gpu.mem().dram_busy_cycles() - self.dram_busy_snap) as f64
            / (sample_cycles * num_channels) as f64;
        // Per-SM fair share of DRAM transaction capacity over the window.
        let burst = (f64::from(gpu.config().mem.timing.t_burst)
            * gpu.config().core_per_dram_clock())
        .max(1.0);
        let fair = (num_channels * sample_cycles) as f64 / burst / gpu.num_sms() as f64;
        let samples: Vec<ProfileSample> = plan
            .assignments
            .iter()
            .zip(&self.snapshots)
            .map(|(a, snap)| {
                let st = gpu.sm(a.sm).stats();
                let d_cycles = (st.cycles - snap.cycles).max(1);
                let d_insts = st.kernel(a.kernel).insts_issued - snap.insts;
                let d_mem = st.stalls.mem - snap.mem_stalls;
                let d_dram = gpu.mem_stats().dram_by_sm(a.sm) - snap.dram_transactions;
                ProfileSample {
                    kernel: a.kernel,
                    ctas: a.quota,
                    ipc_sampled: d_insts as f64 / d_cycles as f64,
                    phi_mem: if self.cfg.enable_scaling {
                        d_mem as f64 / (d_cycles * u64::from(num_sched)) as f64
                    } else {
                        0.0
                    },
                    bandwidth: self.cfg.enable_scaling.then_some(BandwidthSample {
                        sm_transactions: d_dram,
                        fair_transactions: fair,
                        dram_busy: dram_busy.clamp(0.0, 1.0),
                    }),
                }
            })
            .collect();

        let max = Self::max_ctas(gpu);
        let curves = build_curves_audited(&samples, &max, &mut self.audit);
        self.store_insert(gpu, &curves);
        self.decide_from_curves(gpu, curves);
    }

    /// The shared decision tail: runs Algorithm 1 water-filling over
    /// per-kernel performance curves, applies the fallback-threshold test,
    /// and installs (or schedules) the decision. Both the cold path
    /// (freshly measured curves) and the ws-store warm path (memoized
    /// curves) end here, which is what makes a warm-hit decision
    /// byte-identical to the cold-path decision for the same curves.
    fn decide_from_curves(&mut self, gpu: &mut Gpu, curves: Vec<Vec<f64>>) {
        let now = gpu.cycle();
        let measured_curves = curves.clone();
        let ids = gpu.kernel_ids();
        let kernels: Vec<KernelCurve> = ids
            .iter()
            .zip(curves)
            .map(|(&k, perf)| KernelCurve {
                perf,
                cta_cost: ResourceVec::cta_cost(gpu.kernel_desc(k)),
            })
            .collect();
        let capacity = ResourceVec::sm_capacity(&gpu.config().sm);
        let threshold = self.cfg.loss_threshold.unwrap_or(1.2 / ids.len() as f64);

        self.audit.record_with(|| AuditEvent::WaterFillInputs {
            cta_costs: kernels.iter().map(|k| k.cta_cost).collect(),
            capacity,
        });
        self.audit
            .record_all(kernels.iter().enumerate().map(|(i, k)| AuditEvent::Curve {
                kernel: i,
                perf: k.perf.clone(),
            }));
        let mut steps = Vec::new();
        let partition = water_fill_traced(&kernels, capacity, &mut steps);
        self.audit
            .record_all(steps.into_iter().map(|s| AuditEvent::WaterFillStep {
                kernel: s.kernel,
                ctas: s.ctas,
                perf: s.perf,
            }));
        if let Some(p) = &partition {
            self.audit.record_with(|| AuditEvent::WaterFillDecision {
                quotas: p.ctas.clone(),
                water_level: p.min_perf(),
                predicted: p.perf.clone(),
            });
        }
        let spatial = !partition
            .as_ref()
            .is_some_and(|p| p.losses().iter().all(|&l| l <= threshold));
        self.audit.record_with(|| AuditEvent::FallbackVerdict {
            threshold,
            max_loss: partition
                .as_ref()
                .map(|p| p.losses().iter().copied().fold(f64::NEG_INFINITY, f64::max)),
            spatial,
        });
        let (quotas, predicted) = match partition {
            Some(p) if !spatial => (Some(p.ctas), p.perf),
            Some(p) => (None, p.perf),
            None => (None, Vec::new()),
        };
        self.decision = Some(Decision {
            quotas,
            spatial_fallback: spatial,
            predicted_perf: predicted,
            decided_at: now,
            measured_curves,
        });
        if self.cfg.timing.algorithm_delay > 0 {
            self.phase = Phase::Deciding {
                until: now + self.cfg.timing.algorithm_delay,
            };
        } else {
            self.apply_decision(gpu);
        }
    }

    fn apply_decision(&mut self, gpu: &mut Gpu) {
        let ids = gpu.kernel_ids();
        // Phase-machine invariant: Applying follows Deciding, which stored
        // the decision. xtask-allow: no-unwrap
        let decision = self.decision.as_ref().expect("apply requires a decision");
        let slicing = decision
            .quotas
            .clone()
            .map_or(Slicing::Spatial, Slicing::Quotas);
        self.slicer.install(gpu, slicing.table(gpu));
        self.phase = Phase::Run;
        self.last_phase_check = gpu.cycle();
        self.phase_armed_at = gpu.cycle() + PHASE_SETTLE_WINDOWS * PHASE_WINDOW;
        self.last_kernel_insts = ids.iter().map(|&k| gpu.kernel_insts(k)).collect();
        self.monitors = ids.iter().map(|_| PhaseMonitor::paper_default()).collect();
    }

    fn run_phase_monitor(&mut self, gpu: &mut Gpu) {
        let now = gpu.cycle();
        if now - self.last_phase_check < PHASE_WINDOW {
            return;
        }
        if now < self.phase_armed_at {
            // Settling: track instruction counts but do not feed monitors.
            self.last_phase_check = now;
            let ids = gpu.kernel_ids();
            for (i, &k) in ids.iter().enumerate() {
                self.last_kernel_insts[i] = gpu.kernel_insts(k);
            }
            return;
        }
        let window = (now - self.last_phase_check) as f64;
        self.last_phase_check = now;
        let ids = gpu.kernel_ids();
        let mut trigger = false;
        for (i, &k) in ids.iter().enumerate() {
            let insts = gpu.kernel_insts(k);
            let ipc = (insts - self.last_kernel_insts[i]) as f64 / window;
            self.last_kernel_insts[i] = insts;
            if gpu.kernel_meta(k).halted {
                continue;
            }
            let baseline = self.monitors[i].baseline();
            let triggered = self.monitors[i].observe(ipc);
            self.audit.record(AuditEvent::PhaseSample {
                kernel: i,
                cycle: now,
                ipc,
                baseline,
                triggered,
            });
            if triggered {
                trigger = true;
                // The memoized curve no longer describes this kernel:
                // invalidate exactly its key, so the re-profile below
                // misses, measures fresh, and replaces the entry.
                self.store_invalidate(i);
            }
        }
        if trigger {
            self.reprofiles += 1;
            self.enter_profile(gpu);
        }
    }
}

impl Controller for WarpedSlicerController {
    fn on_cycle(&mut self, gpu: &mut Gpu) {
        let now = gpu.cycle();
        // A kernel arriving mid-run (Fig. 2e: "re-partitioning for the
        // third kernel") launches a fresh profiling phase over the new
        // kernel set; resident CTAs of the old set drain naturally.
        let nk = gpu.num_kernels();
        if self.known_kernels != nk {
            let first = self.known_kernels == 0;
            self.known_kernels = nk;
            if !first && !self.slicer.released() {
                self.reprofiles += 1;
                self.enter_profile(gpu);
            }
        }
        match self.phase {
            Phase::Init => self.enter_profile(gpu),
            Phase::Warmup { until } if now >= until => {
                self.take_snapshots(gpu);
                self.phase = Phase::Sampling {
                    until: now + self.cfg.timing.sample,
                };
            }
            Phase::Sampling { until } if now >= until => self.decide(gpu),
            Phase::Deciding { until } if now >= until => self.apply_decision(gpu),
            Phase::Run if self.cfg.enable_phase_monitor && !self.slicer.released() => {
                self.run_phase_monitor(gpu);
            }
            _ => {}
        }
        // Once the first kernel halts the slicing is released for good.
        if self.slicer.enforce(gpu) {
            self.phase = Phase::Run;
        }
    }

    fn decision(&self) -> Option<&Decision> {
        self.decision.as_ref()
    }

    fn audit(&self) -> Option<&DecisionAudit> {
        self.cfg.audit.then_some(&self.audit)
    }

    fn next_intervention(&self) -> Option<u64> {
        match self.phase {
            // Init transitions on the very next `on_cycle`, so nothing may
            // be skipped.
            Phase::Init => Some(0),
            Phase::Warmup { until } | Phase::Sampling { until } | Phase::Deciding { until } => {
                Some(until)
            }
            Phase::Run if self.cfg.enable_phase_monitor && !self.slicer.released() => {
                Some(self.last_phase_check + PHASE_WINDOW)
            }
            Phase::Run => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::{GpuConfig, SchedulerKind};
    use ws_workloads::by_abbrev;

    fn fast_cfg() -> WarpedSlicerConfig {
        WarpedSlicerConfig {
            timing: ProfileTiming {
                warmup: 2_000,
                sample: 2_000,
                algorithm_delay: 0,
            },
            ..WarpedSlicerConfig::default()
        }
    }

    fn run_pair(
        a: &str,
        b: &str,
        cycles: u64,
        cfg: WarpedSlicerConfig,
    ) -> (Gpu, WarpedSlicerController) {
        let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
        gpu.add_kernel(by_abbrev(a).unwrap().desc);
        gpu.add_kernel(by_abbrev(b).unwrap().desc);
        let mut c = WarpedSlicerController::new(cfg);
        for _ in 0..cycles {
            c.on_cycle(&mut gpu);
            gpu.tick();
        }
        (gpu, c)
    }

    #[test]
    fn predicted_windows_shape_the_profiling_ramp() {
        let cfg = WarpedSlicerConfig {
            audit: true,
            ..fast_cfg()
        };
        let (gpu, c) = run_pair("IMG", "NN", 1_500, cfg);
        assert!(matches!(c.phase, Phase::Warmup { .. }));
        // The windowed ramp still anchors both ends of each group: 1 CTA on
        // the group's first SM, the guard at the feasibility bound on its
        // last (IMG and NN both cap at 8).
        assert_eq!(gpu.sm(0).kernel_ctas(0), 1);
        assert_eq!(gpu.sm(7).kernel_ctas(0), 8);
        assert_eq!(gpu.sm(0).kernel_ctas(1), 0, "exclusive profiling SMs");
        assert_eq!(gpu.sm(8).kernel_ctas(1), 1);
        assert_eq!(gpu.sm(15).kernel_ctas(1), 8);
        // The audit holds the predicted curve and chosen window per kernel.
        let audit = c.audit.clone();
        for k in 0..2 {
            let (perf, knee) = audit.predicted_curve(k).expect("predicted curve");
            assert_eq!(perf.len(), 8);
            assert!((1..=8).contains(&knee));
        }
        assert!(audit
            .events
            .iter()
            .any(|e| matches!(e, AuditEvent::SweepWindow { .. })));
    }

    #[test]
    fn online_ramp_is_the_offline_sweep_plan_on_every_pair() {
        let pairs = ws_workloads::all_pairs();
        assert_eq!(pairs.len(), 30);
        for pair in &pairs {
            let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
            gpu.add_kernel(pair.a.desc.clone());
            gpu.add_kernel(pair.b.desc.clone());
            WarpedSlicerController::new(fast_cfg()).on_cycle(&mut gpu);
            let cfg = gpu.config();
            let descs = [&pair.a.desc, &pair.b.desc];
            let max = descs.map(|d| d.max_ctas_per_sm(&cfg.sm));
            let sweep = SweepPlan::from_predictions(&descs, &max, cfg);
            let plan = ProfilePlan::build_windowed(gpu.num_sms(), &sweep.windows);
            assert_eq!(plan.assignments.len(), gpu.num_sms());
            for a in &plan.assignments {
                let quota = |k: usize| gpu.sm(a.sm).window(k).map(|w| w.max_ctas);
                let label = pair.label();
                assert_eq!(quota(a.kernel), Some(a.quota), "{label} SM {}", a.sm);
                assert_eq!(quota(1 - a.kernel), Some(0), "{label} SM {}", a.sm);
            }
        }
    }

    #[test]
    fn decision_is_made_and_applied() {
        // Long enough for the profile-phase CTAs (which may exceed the new
        // quotas; Fig. 2e drains them naturally) to retire.
        let (gpu, c) = run_pair("IMG", "NN", 40_000, fast_cfg());
        let d = c.decision().expect("decision after sampling");
        assert!(!d.spatial_fallback, "IMG+NN should co-locate");
        let quotas = d.quotas.as_ref().unwrap();
        assert_eq!(quotas.len(), 2);
        assert!(quotas.iter().all(|&q| (1..=8).contains(&q)), "{quotas:?}");
        // The paper's Fig. 3b intuition: IMG (saturating compute) gets more
        // CTAs than cache-sensitive NN's thrash point would allow it.
        assert!(quotas[0] >= 3, "IMG quota: {quotas:?}");
        assert!(quotas[1] <= 5, "NN quota: {quotas:?}");
        // Quotas enforced once the profile-phase residents have drained.
        for sm in gpu.sms() {
            assert!(sm.kernel_ctas(0) <= quotas[0]);
            assert!(sm.kernel_ctas(1) <= quotas[1]);
        }
    }

    #[test]
    fn tight_threshold_forces_spatial_fallback() {
        let cfg = WarpedSlicerConfig {
            loss_threshold: Some(0.001),
            ..fast_cfg()
        };
        let (gpu, c) = run_pair("LBM", "BLK", 12_000, cfg);
        let d = c.decision().expect("decision");
        assert!(
            d.spatial_fallback,
            "near-zero loss tolerance must fall back"
        );
        assert!(d.quotas.is_none());
        // Spatial mode: each kernel on its own SM group (new launches).
        let left_has_k1 = (0..8).any(|s| gpu.sm(s).kernel_ctas(1) > 0);
        assert!(!left_has_k1, "kernel 1 must not launch on kernel 0's SMs");
    }

    #[test]
    fn algorithm_delay_defers_application() {
        let cfg = WarpedSlicerConfig {
            timing: ProfileTiming {
                warmup: 1_000,
                sample: 1_000,
                algorithm_delay: 5_000,
            },
            ..fast_cfg()
        };
        let (_, c) = run_pair("IMG", "NN", 3_000, cfg.clone());
        assert!(matches!(c.phase, Phase::Deciding { .. }));
        let (_, c) = run_pair("IMG", "NN", 9_000, cfg);
        assert!(matches!(c.phase, Phase::Run));
    }

    #[test]
    fn halt_releases_partitions() {
        let (mut gpu, mut c) = run_pair("IMG", "NN", 12_000, fast_cfg());
        gpu.halt_kernel(gpu_sim::KernelId(1));
        for _ in 0..5_000 {
            c.on_cycle(&mut gpu);
            gpu.tick();
        }
        assert!(
            gpu.sms().any(|sm| sm.kernel_ctas(0) > 6),
            "IMG should expand once NN halts"
        );
    }

    #[test]
    fn stable_kernels_do_not_reprofile() {
        let (_, c) = run_pair("IMG", "NN", 40_000, fast_cfg());
        assert_eq!(c.reprofile_count(), 0);
    }

    #[test]
    fn late_arriving_kernel_triggers_repartitioning() {
        let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
        gpu.add_kernel(by_abbrev("IMG").unwrap().desc);
        let mut c = WarpedSlicerController::new(fast_cfg());
        for _ in 0..8_000 {
            c.on_cycle(&mut gpu);
            gpu.tick();
        }
        let first = c.decision().expect("single-kernel decision").clone();
        assert_eq!(first.quotas.as_ref().map(Vec::len), Some(1));
        // A second kernel arrives: the controller must re-profile and make
        // a two-kernel decision.
        gpu.add_kernel(by_abbrev("NN").unwrap().desc);
        for _ in 0..8_000 {
            c.on_cycle(&mut gpu);
            gpu.tick();
        }
        assert!(c.reprofile_count() >= 1);
        let second = c.decision().expect("two-kernel decision");
        assert!(second.decided_at > first.decided_at);
        if let Some(q) = &second.quotas {
            assert_eq!(q.len(), 2, "{q:?}");
        }
        // The newcomer actually runs.
        assert!(gpu.kernel_insts(gpu_sim::KernelId(1)) > 0);
    }

    #[test]
    fn audit_records_a_replayable_decision() {
        let cfg = WarpedSlicerConfig {
            audit: true,
            ..fast_cfg()
        };
        let (_, c) = run_pair("IMG", "NN", 12_000, cfg);
        let audit = c.audit().expect("audit enabled");
        let d = c.decision().expect("decision made");
        let quotas = d.quotas.as_ref().expect("IMG+NN co-locate");
        // Every kernel's Eq. 2-4 applications were recorded with their
        // inputs, and the water-filling decision replays from the trace to
        // the same quota vector.
        assert!(audit.scaled_points(0).count() >= 1);
        assert!(audit.scaled_points(1).count() >= 1);
        assert_eq!(audit.last_quotas(), Some(quotas.as_slice()));
        let replayed = audit.replay_water_fill().expect("complete decision");
        assert_eq!(&replayed.ctas, quotas);
    }

    #[test]
    fn audit_on_and_off_make_bit_equal_decisions() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let decide = |audit: bool| {
            let cfg = WarpedSlicerConfig {
                audit,
                ..fast_cfg()
            };
            let (_, c) = run_pair("IMG", "NN", 12_000, cfg);
            c.decision().expect("decision made").clone()
        };
        let (on, off) = (decide(true), decide(false));
        assert_eq!(on.quotas, off.quotas);
        assert_eq!(on.spatial_fallback, off.spatial_fallback);
        assert_eq!(on.decided_at, off.decided_at);
        assert_eq!(bits(&on.predicted_perf), bits(&off.predicted_perf));
        assert_eq!(on.measured_curves.len(), off.measured_curves.len());
        for (a, b) in on.measured_curves.iter().zip(&off.measured_curves) {
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn audit_is_off_by_default() {
        let (_, c) = run_pair("IMG", "NN", 12_000, fast_cfg());
        assert!(c.audit().is_none());
        assert!(c.decision().is_some());
    }

    #[test]
    fn both_kernels_progress_under_warped_slicer() {
        let (gpu, _) = run_pair("MM", "BLK", 15_000, fast_cfg());
        assert!(gpu.kernel_insts(gpu_sim::KernelId(0)) > 1_000);
        assert!(gpu.kernel_insts(gpu_sim::KernelId(1)) > 1_000);
    }

    #[test]
    fn store_warm_hit_skips_profiling_and_matches_cold_decision() {
        let store = SharedCurveStore::with_capacity(8);
        let cfg = WarpedSlicerConfig {
            store: Some(store.clone()),
            ..fast_cfg()
        };
        // First arrival: cold — pays the profiling sweep, inserts curves.
        let (_, cold) = run_pair("IMG", "NN", 12_000, cfg.clone());
        let cold_d = cold.decision().expect("cold decision").clone();
        assert_eq!(cold.warm_decision_count(), 0);
        assert!(
            cold_d.decided_at >= 4_000,
            "cold path pays warmup + sample ({})",
            cold_d.decided_at
        );
        assert_eq!(store.with(|s| s.len()), 2, "both curves memoized");

        // Repeat arrival: warm — decides immediately from the store, and
        // the decision is byte-identical to the cold one.
        let (_, warm) = run_pair("IMG", "NN", 200, cfg);
        assert_eq!(warm.warm_decision_count(), 1);
        let warm_d = warm.decision().expect("warm decision");
        assert!(
            warm_d.decided_at < 10,
            "no profiling phases on the warm path ({})",
            warm_d.decided_at
        );
        assert_eq!(warm_d.quotas, cold_d.quotas);
        assert_eq!(warm_d.spatial_fallback, cold_d.spatial_fallback);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&warm_d.predicted_perf), bits(&cold_d.predicted_perf));
        assert_eq!(warm_d.measured_curves.len(), cold_d.measured_curves.len());
        for (w, c) in warm_d.measured_curves.iter().zip(&cold_d.measured_curves) {
            assert_eq!(bits(w), bits(c), "warm curves bit-equal to cold");
        }
    }

    #[test]
    fn store_audit_records_misses_then_hits() {
        let store = SharedCurveStore::with_capacity(8);
        let cfg = WarpedSlicerConfig {
            store: Some(store.clone()),
            audit: true,
            ..fast_cfg()
        };
        let (_, cold) = run_pair("IMG", "NN", 12_000, cfg.clone());
        let misses = cold
            .audit()
            .expect("audit enabled")
            .events
            .iter()
            .filter(|e| matches!(e, AuditEvent::StoreMiss { .. }))
            .count();
        assert_eq!(misses, 2, "first arrival misses both kernels");
        let (_, warm) = run_pair("IMG", "NN", 200, cfg);
        let audit = warm.audit().expect("audit enabled");
        let hits = audit
            .events
            .iter()
            .filter(|e| matches!(e, AuditEvent::StoreHit { .. }))
            .count();
        assert_eq!(hits, 2, "repeat arrival hits both kernels");
        assert!(
            !audit
                .events
                .iter()
                .any(|e| matches!(e, AuditEvent::ScaledPoint { .. })),
            "the warm decision scales no samples"
        );
        // Warm decisions stay replayable from the audit alone.
        let d = warm.decision().expect("warm decision");
        let quotas = d.quotas.as_ref().expect("co-located");
        let replayed = audit.replay_water_fill().expect("complete decision");
        assert_eq!(&replayed.ctas, quotas);
    }
}
