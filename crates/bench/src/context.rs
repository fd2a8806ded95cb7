//! Shared experiment state: run configuration, the deterministic execution
//! pool, memoized isolation runs (every figure normalizes against the same
//! per-benchmark targets, so the isolation runs are computed once and
//! shared), and the progress sink the harness reports through.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use warped_slicer::{
    accept_pruned, build_curves, execute_batch, execute_batch_observed, predict_default,
    profile_curves, sweep, water_fill, CorunResult, DuplicateDelivery, IsolationResult,
    KernelCurve, PolicyKind, ProfileSample, ResourceVec, RunConfig, SimJob, SimOutcome, SimStream,
    SweepPlan, WarpedSlicerConfig,
};
use ws_workloads::{Benchmark, Pair};

/// One progress report, emitted after an observed unit of work completes.
#[derive(Debug, Clone)]
pub struct Progress {
    /// What finished (an artifact name like `"fig6"`).
    pub label: String,
    /// Wall-clock time the unit took.
    pub wall: Duration,
    /// Simulation jobs the pool completed during the unit.
    pub jobs: u64,
}

impl std::fmt::Display for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} jobs in {:.2}s",
            self.label,
            self.jobs,
            self.wall.as_secs_f64()
        )
    }
}

/// Callback receiving [`Progress`] events (see
/// [`ExperimentContext::set_progress`]).
pub type ProgressSink = Box<dyn Fn(&Progress) + Send + Sync>;

/// One per-job progress report from an observed batch, delivered on the
/// submitting thread in completion-count order (`seq` goes `1..=total`
/// strictly increasing regardless of worker count; `id` names the job
/// that actually finished).
#[derive(Debug, Clone)]
pub struct JobProgress {
    /// Which batch the job belongs to (e.g. `"corun"`, `"isolation"`).
    pub label: String,
    /// 1-based completion count within the batch.
    pub seq: usize,
    /// Jobs in the batch.
    pub total: usize,
    /// The finishing job.
    pub id: ws_exec::JobId,
}

/// Callback receiving [`JobProgress`] events (see
/// [`ExperimentContext::set_job_progress`]).
pub type JobProgressSink = Box<dyn Fn(&JobProgress) + Send + Sync>;

/// The profile→decide outcome for one co-scheduled pair: the Algorithm 1
/// water-filling quotas computed from (possibly pruned) Fig. 3 sampling
/// plus Eq. 2-4 scaling. Produced identically by the barriered
/// ([`ExperimentContext::decide_pairs`]) and pipelined
/// ([`ExperimentContext::decide_pairs_pipelined`]) harnesses.
#[derive(Debug, Clone, PartialEq)]
pub struct PairDecision {
    /// The pair's `A_B` label.
    pub label: String,
    /// CTA quota per kernel (empty when no intra-SM partition fits).
    pub quotas: Vec<u32>,
    /// Normalized per-kernel performance at the granted quotas.
    pub perf: Vec<f64>,
    /// Whether each kernel's pruned sweep window was accepted.
    pub pruned: Vec<bool>,
    /// Simulation samples run for this pair, across both rounds.
    pub samples_run: usize,
}

/// Per-(pair, kernel) sampling state for the decide harnesses.
#[derive(Debug, Default, Clone)]
struct KernelSampling {
    /// `(cta cap, ipc, phi_mem)` samples collected so far.
    samples: Vec<(u32, f64, f64)>,
    /// Outstanding jobs of the current round (pipelined harness only).
    pending: usize,
    /// Whether the full-sweep fallback round has been submitted.
    fallback: bool,
    /// Whether sampling for this kernel is complete.
    done: bool,
    /// Whether the pruned window was accepted.
    pruned: bool,
}

impl KernelSampling {
    /// The sampled `(cap, ipc)` pairs, sorted by CTA count — the
    /// order-insensitive form the acceptance check consumes.
    fn sorted_ipc(&self) -> Vec<(u32, f64)> {
        let mut s: Vec<(u32, f64)> = self.samples.iter().map(|&(c, ipc, _)| (c, ipc)).collect();
        s.sort_by_key(|&(c, _)| c);
        s
    }

    /// Accounts one delivered result against the current round, exactly as
    /// the core sweep does ([`sweep::deliver`]).
    fn deliver(&mut self) -> Result<bool, DuplicateDelivery> {
        sweep::deliver(&mut self.pending)
    }
}

/// Looks up one kernel's sampling slot.
fn slot(state: &mut [[KernelSampling; 2]], pi: usize, k: usize) -> Option<&mut KernelSampling> {
    state.get_mut(pi).and_then(|p| p.get_mut(k))
}

/// Shared state for the experiment harness.
///
/// Methods take `&self`: the isolation memo uses interior mutability and
/// hands out [`Arc`]s, so experiment code can fan work out through the
/// context from batch closures without cloning full results.
pub struct ExperimentContext {
    /// The run configuration every experiment uses (unless it explicitly
    /// overrides, e.g. the large-configuration study).
    pub cfg: RunConfig,
    pool: ws_exec::Pool,
    iso: Mutex<HashMap<String, Arc<IsolationResult>>>,
    progress: Option<ProgressSink>,
    job_progress: Option<JobProgressSink>,
}

impl std::fmt::Debug for ExperimentContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentContext")
            .field("cfg", &self.cfg)
            .field("pool", &self.pool)
            .field("progress", &self.progress.is_some())
            .finish_non_exhaustive()
    }
}

impl ExperimentContext {
    /// Creates a context with the default configuration and the given
    /// isolation cycle budget. The pool is sized by `WS_EXEC_THREADS`.
    #[must_use]
    pub fn new(isolation_cycles: u64) -> Self {
        Self::with_config(RunConfig {
            isolation_cycles,
            ..RunConfig::default()
        })
    }

    /// Creates a context with an explicit configuration. The pool is sized
    /// by `WS_EXEC_THREADS`.
    #[must_use]
    pub fn with_config(cfg: RunConfig) -> Self {
        Self::with_pool(cfg, ws_exec::Pool::from_env())
    }

    /// Creates a context with an explicit configuration and pool (tests pin
    /// worker counts this way).
    #[must_use]
    pub fn with_pool(cfg: RunConfig, pool: ws_exec::Pool) -> Self {
        Self {
            cfg,
            pool,
            iso: Mutex::new(HashMap::new()),
            progress: None,
            job_progress: None,
        }
    }

    /// The execution pool experiments submit job batches to.
    #[must_use]
    pub fn pool(&self) -> &ws_exec::Pool {
        &self.pool
    }

    /// Installs a progress sink; [`Self::observe`] reports through it.
    pub fn set_progress(&mut self, sink: ProgressSink) {
        self.progress = Some(sink);
    }

    /// Installs a per-job progress sink: every batch the context runs
    /// reports one [`JobProgress`] per finished job, on the submitting
    /// thread, in completion-count order — deterministic shape at any
    /// worker count.
    pub fn set_job_progress(&mut self, sink: JobProgressSink) {
        self.job_progress = Some(sink);
    }

    /// Runs a job batch, reporting per-job progress when a sink is set.
    fn batch(&self, label: &str, jobs: &[SimJob]) -> Vec<SimOutcome> {
        match &self.job_progress {
            None => execute_batch(&self.pool, jobs),
            Some(sink) => execute_batch_observed(&self.pool, jobs, |p| {
                sink(&JobProgress {
                    label: label.to_string(),
                    seq: p.seq,
                    total: p.total,
                    id: p.id,
                });
            }),
        }
    }

    /// Runs `f`, then reports its wall-clock time and the number of pool
    /// jobs it completed to the progress sink (if one is installed).
    pub fn observe<T>(&self, label: &str, f: impl FnOnce(&Self) -> T) -> T {
        let jobs_before = self.pool.jobs_completed();
        let start = Instant::now();
        let out = f(self);
        if let Some(sink) = &self.progress {
            sink(&Progress {
                label: label.to_string(),
                wall: start.elapsed(),
                jobs: self.pool.jobs_completed() - jobs_before,
            });
        }
        out
    }

    /// The Warped-Slicer policy with profile phases scaled to this
    /// context's budget.
    #[must_use]
    pub fn dynamic_policy(&self) -> PolicyKind {
        PolicyKind::WarpedSlicer(WarpedSlicerConfig::scaled_for(self.cfg.isolation_cycles))
    }

    /// The isolation run for `bench`, memoized and shared.
    pub fn isolation(&self, bench: &Benchmark) -> Arc<IsolationResult> {
        self.isolation_batch(&[bench]).swap_remove(0)
    }

    /// Isolation runs for every benchmark in `benches`, in order.
    ///
    /// Misses are simulated as one job batch on the pool; hits come from
    /// the memo. The memo is keyed by abbreviation, so duplicates in
    /// `benches` cost one simulation.
    pub fn isolation_batch(&self, benches: &[&Benchmark]) -> Vec<Arc<IsolationResult>> {
        let missing: Vec<&Benchmark> = {
            let iso = self.iso.lock().unwrap_or_else(PoisonError::into_inner);
            let mut seen: Vec<&str> = Vec::new();
            let mut out = Vec::new();
            for b in benches {
                if !iso.contains_key(b.abbrev) && !seen.contains(&b.abbrev) {
                    seen.push(b.abbrev);
                    out.push(*b);
                }
            }
            out
        };
        if !missing.is_empty() {
            let jobs: Vec<SimJob> = missing
                .iter()
                .map(|b| SimJob::isolation(&b.desc, &self.cfg))
                .collect();
            let results = self.batch("isolation", &jobs);
            let mut iso = self.iso.lock().unwrap_or_else(PoisonError::into_inner);
            for (b, outcome) in missing.iter().zip(results) {
                iso.entry(b.abbrev.to_string())
                    .or_insert_with(|| Arc::new(outcome.into_isolation()));
            }
        }
        let iso = self.iso.lock().unwrap_or_else(PoisonError::into_inner);
        benches
            .iter()
            .map(|b| {
                Arc::clone(iso.get(b.abbrev).unwrap_or_else(|| {
                    // Unreachable: the miss pass above filled every key.
                    panic!("isolation memo missing {}", b.abbrev)
                }))
            })
            .collect()
    }

    /// Equal-work instruction targets for a multiprogrammed workload.
    pub fn targets(&self, benches: &[&Benchmark]) -> Vec<u64> {
        self.isolation_batch(benches)
            .iter()
            .map(|r| r.target_insts)
            .collect()
    }

    /// Per-kernel *true* isolated cycle counts for a workload — how long
    /// each benchmark alone needed for its equal-work target (its last
    /// instruction-issue cycle, not the shared isolation budget). This is
    /// the normalizer [`warped_slicer::metrics`] requires, one entry per
    /// kernel.
    pub fn isolated_cycles(&self, benches: &[&Benchmark]) -> Vec<u64> {
        self.isolation_batch(benches)
            .iter()
            .map(|r| r.isolated_cycles)
            .collect()
    }

    /// The equal-work corun job for `benches` under `policy` (targets come
    /// from the isolation memo).
    pub fn corun_job(&self, benches: &[&Benchmark], policy: &PolicyKind) -> SimJob {
        let targets = self.targets(benches);
        let descs: Vec<&gpu_sim::KernelDesc> = benches.iter().map(|b| &b.desc).collect();
        SimJob::corun(&descs, &targets, policy, &self.cfg)
    }

    /// Runs `benches` concurrently under `policy` with equal-work targets.
    pub fn corun(&self, benches: &[&Benchmark], policy: &PolicyKind) -> CorunResult {
        self.corun_batch(&[(benches.to_vec(), policy.clone())])
            .swap_remove(0)
    }

    /// Runs every `(workload, policy)` pair as one job batch on the pool,
    /// returning results in submission order.
    ///
    /// Isolation targets for every distinct benchmark are resolved first
    /// (one batch), then the coruns themselves run as a second batch.
    pub fn corun_batch(&self, runs: &[(Vec<&Benchmark>, PolicyKind)]) -> Vec<CorunResult> {
        let all: Vec<&Benchmark> = runs.iter().flat_map(|(bs, _)| bs.iter().copied()).collect();
        let _ = self.isolation_batch(&all);
        let jobs: Vec<SimJob> = runs
            .iter()
            .map(|(bs, policy)| self.corun_job(bs, policy))
            .collect();
        self.batch("corun", &jobs)
            .into_iter()
            .zip(&jobs)
            .map(|(outcome, job)| outcome.into_corun(job))
            .collect()
    }

    /// CTA-occupancy sweeps for Fig. 3-style curves: for each benchmark,
    /// the IPC at every CTA count `1..=max_ctas[i]`, sampled over `window`
    /// cycles. All points across all benchmarks run as one job batch.
    pub fn cta_sweeps(
        &self,
        benches: &[&Benchmark],
        max_ctas: &[u32],
        window: u64,
    ) -> Vec<Vec<f64>> {
        let descs: Vec<&gpu_sim::KernelDesc> = benches.iter().map(|b| &b.desc).collect();
        profile_curves(&self.pool, &descs, max_ctas, window, &self.cfg)
    }

    /// Eq. 1 CTA-feasibility bound for `bench` on this context's hardware.
    #[must_use]
    pub fn max_ctas(&self, bench: &Benchmark) -> u32 {
        bench.desc.max_ctas_per_sm(&self.cfg.gpu.sm)
    }

    /// The sweep plan for one pair: prediction-pruned windows when
    /// `WS_PREDICT` allows, full windows otherwise.
    fn pair_plan(&self, pair: &Pair) -> SweepPlan {
        let descs = [&pair.a.desc, &pair.b.desc];
        let maxes = [self.max_ctas(&pair.a), self.max_ctas(&pair.b)];
        if predict_default() {
            SweepPlan::from_predictions(&descs, &maxes, &self.cfg.gpu)
        } else {
            SweepPlan::full(&maxes)
        }
    }

    /// The Eq. 2-4 + Algorithm 1 decision for one fully sampled pair.
    ///
    /// Samples are sorted by `(kernel, cta count)` before scaling, so the
    /// result is independent of completion order — the property that makes
    /// the barriered and pipelined harnesses byte-identical.
    fn pair_decision(&self, pair: &Pair, a: &KernelSampling, b: &KernelSampling) -> PairDecision {
        let maxes = [self.max_ctas(&pair.a), self.max_ctas(&pair.b)];
        let mut profile: Vec<ProfileSample> = Vec::new();
        for (k, s) in [a, b].into_iter().enumerate() {
            let mut sorted = s.samples.clone();
            sorted.sort_by_key(|&(c, _, _)| c);
            for (cap, ipc, phi) in sorted {
                profile.push(ProfileSample {
                    kernel: k,
                    ctas: cap,
                    ipc_sampled: ipc,
                    phi_mem: phi,
                    bandwidth: None,
                });
            }
        }
        let curves = build_curves(&profile, &maxes);
        let kernels: Vec<KernelCurve> = curves
            .into_iter()
            .zip([&pair.a.desc, &pair.b.desc])
            .map(|(perf, desc)| KernelCurve {
                perf,
                cta_cost: ResourceVec::cta_cost(desc),
            })
            .collect();
        let (quotas, perf) = match water_fill(&kernels, ResourceVec::sm_capacity(&self.cfg.gpu.sm))
        {
            Some(p) => (p.ctas, p.perf),
            None => (Vec::new(), Vec::new()),
        };
        PairDecision {
            label: pair.label(),
            quotas,
            perf,
            pruned: vec![a.pruned, b.pruned],
            samples_run: a.samples.len() + b.samples.len(),
        }
    }

    /// The **barriered** profile→decide harness: round-1 sampling windows
    /// for *every* pair run as one batch (global barrier), then every
    /// rejected kernel's full-sweep fallback runs as a second batch
    /// (second barrier), then decisions are computed serially. This is the
    /// staged shape the pre-streaming harness had; it exists as the
    /// baseline the pipelined variant is benchmarked against and as the
    /// equivalence oracle for its output.
    #[must_use]
    pub fn decide_pairs(&self, pairs: &[Pair], window: u64) -> Vec<PairDecision> {
        let plans: Vec<SweepPlan> = pairs.iter().map(|p| self.pair_plan(p)).collect();
        let mut state: Vec<[KernelSampling; 2]> = vec![Default::default(); pairs.len()];
        // Round 1: every planned window sample across all pairs.
        let mut jobs: Vec<SimJob> = Vec::new();
        let mut tags: Vec<(usize, usize, u32)> = Vec::new();
        for (pi, (pair, plan)) in pairs.iter().zip(&plans).enumerate() {
            for (k, w) in plan.windows.iter().enumerate() {
                let desc = if k == 0 { &pair.a.desc } else { &pair.b.desc };
                for cap in w.planned_caps() {
                    tags.push((pi, k, cap));
                    jobs.push(SimJob::cta_cap(desc, cap, window, &self.cfg));
                }
            }
        }
        let outs = self.batch("decide:profile", &jobs);
        for (&(pi, k, cap), out) in tags.iter().zip(&outs) {
            if let Some(s) = slot(&mut state, pi, k) {
                s.samples.push((cap, out.measured_ipc(), out.stats.phi_mem));
            }
        }
        // Acceptance per kernel; round 2 for every rejected kernel.
        let mut jobs2: Vec<SimJob> = Vec::new();
        let mut tags2: Vec<(usize, usize, u32)> = Vec::new();
        for (pi, (pair, plan)) in pairs.iter().zip(&plans).enumerate() {
            for (k, w) in plan.windows.iter().enumerate() {
                let Some(s) = slot(&mut state, pi, k) else {
                    continue;
                };
                let sorted = s.sorted_ipc();
                if accept_pruned(&sorted, w).is_some() {
                    s.pruned = !w.is_full();
                    continue;
                }
                let desc = if k == 0 { &pair.a.desc } else { &pair.b.desc };
                for cap in 1..=w.max.max(1) {
                    if !sorted.iter().any(|&(c, _)| c == cap) {
                        tags2.push((pi, k, cap));
                        jobs2.push(SimJob::cta_cap(desc, cap, window, &self.cfg));
                    }
                }
            }
        }
        let outs2 = self.batch("decide:fallback", &jobs2);
        for (&(pi, k, cap), out) in tags2.iter().zip(&outs2) {
            if let Some(s) = slot(&mut state, pi, k) {
                s.samples.push((cap, out.measured_ipc(), out.stats.phi_mem));
            }
        }
        // Decisions, serially, after the final barrier.
        pairs
            .iter()
            .zip(&state)
            .map(|(pair, p)| self.pair_decision(pair, &p[0], &p[1]))
            .collect()
    }

    /// The **pipelined** profile→decide harness: all pairs' sampling
    /// windows go into one completion stream, a rejected kernel's
    /// full-sweep fallback is re-submitted the moment its window round
    /// drains (no global barrier), and the Eq. 2-4 scaling + Algorithm 1
    /// water-filling decision for a pair runs on the drain thread as soon
    /// as *its* sampling completes — while other pairs' windows are still
    /// simulating. Output is byte-identical to [`Self::decide_pairs`].
    ///
    /// # Panics
    ///
    /// Re-raises the lowest-submission-index job panic after the stream
    /// drains.
    #[must_use]
    pub fn decide_pairs_pipelined(&self, pairs: &[Pair], window: u64) -> Vec<PairDecision> {
        let plans: Vec<SweepPlan> = pairs.iter().map(|p| self.pair_plan(p)).collect();
        let mut state: Vec<[KernelSampling; 2]> = vec![Default::default(); pairs.len()];
        let mut stream = SimStream::new(&self.pool);
        let mut tags: Vec<(usize, usize, u32)> = Vec::new();
        for (pi, (pair, plan)) in pairs.iter().zip(&plans).enumerate() {
            for (k, w) in plan.windows.iter().enumerate() {
                let caps = w.planned_caps();
                if let Some(s) = slot(&mut state, pi, k) {
                    s.pending = caps.len();
                }
                let desc = if k == 0 { &pair.a.desc } else { &pair.b.desc };
                for cap in caps {
                    tags.push((pi, k, cap));
                    stream.submit_job(&SimJob::cta_cap(desc, cap, window, &self.cfg));
                }
            }
        }
        let mut decisions: Vec<Option<PairDecision>> = vec![None; pairs.len()];
        let mut first_panic: Option<ws_exec::JobPanic> = None;
        while let Some((id, result)) = stream.next() {
            let Some(&(pi, k, cap)) = tags.get(id.0) else {
                continue;
            };
            match result {
                Ok(out) => {
                    if let Some(s) = slot(&mut state, pi, k) {
                        s.samples.push((cap, out.measured_ipc(), out.stats.phi_mem));
                    }
                }
                Err(p) => {
                    if first_panic.as_ref().is_none_or(|q| p.id < q.id) {
                        first_panic = Some(p);
                    }
                }
            }
            let (round_done, was_fallback) = match slot(&mut state, pi, k) {
                Some(s) => match s.deliver() {
                    Ok(done) => (done, s.fallback),
                    Err(e) => {
                        // Checked invariant; a release build drops the
                        // duplicate, as the core sweep does.
                        gpu_sim::strict_assert!(false, "pair #{pi} kernel {k}: {e}");
                        continue;
                    }
                },
                None => continue,
            };
            if !round_done {
                continue;
            }
            if was_fallback {
                // The fallback round just finished: fully sampled.
                if let Some(s) = slot(&mut state, pi, k) {
                    s.done = true;
                }
            } else {
                let sorted = match slot(&mut state, pi, k) {
                    Some(s) => s.sorted_ipc(),
                    None => continue,
                };
                let Some(w) = plans.get(pi).and_then(|p| p.windows.get(k)) else {
                    continue;
                };
                if accept_pruned(&sorted, w).is_some() {
                    if let Some(s) = slot(&mut state, pi, k) {
                        s.pruned = !w.is_full();
                        s.done = true;
                    }
                } else {
                    // Rejected: re-submit the missing counts immediately —
                    // the other pairs keep simulating underneath.
                    let Some(pair) = pairs.get(pi) else { continue };
                    let desc = if k == 0 { &pair.a.desc } else { &pair.b.desc };
                    let mut missing = 0usize;
                    for cap in 1..=w.max.max(1) {
                        if !sorted.iter().any(|&(c, _)| c == cap) {
                            tags.push((pi, k, cap));
                            stream.submit_job(&SimJob::cta_cap(desc, cap, window, &self.cfg));
                            missing += 1;
                        }
                    }
                    if let Some(s) = slot(&mut state, pi, k) {
                        s.fallback = true;
                        s.pending = missing;
                        if missing == 0 {
                            s.done = true;
                        }
                    }
                }
            }
            // Decide this pair the moment both kernels are fully sampled.
            let ready = state.get(pi).is_some_and(|p| p[0].done && p[1].done);
            if ready {
                if let (Some(pair), Some(p)) = (pairs.get(pi), state.get(pi)) {
                    if let Some(d) = decisions.get_mut(pi) {
                        *d = Some(self.pair_decision(pair, &p[0], &p[1]));
                    }
                }
            }
        }
        if let Some(p) = first_panic {
            panic!("{p}");
        }
        decisions
            .into_iter()
            .enumerate()
            .map(|(pi, d)| {
                d.unwrap_or_else(|| panic!("pipelined decide: pair #{pi} never completed"))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ws_workloads::by_abbrev;

    #[test]
    fn duplicate_delivery_is_a_structured_error_not_a_round_completion() {
        let mut s = KernelSampling {
            pending: 1,
            ..KernelSampling::default()
        };
        assert_eq!(s.deliver(), Ok(true), "the only result completes the round");
        // A second delivery of the same result used to saturate at zero and
        // report the round complete again.
        assert_eq!(s.deliver(), Err(DuplicateDelivery));
        assert_eq!(s.pending, 0);
    }

    #[test]
    fn isolation_runs_are_memoized() {
        let ctx = ExperimentContext::new(5_000);
        let img = by_abbrev("IMG").unwrap();
        let a = ctx.isolation(&img);
        let b = ctx.isolation(&img);
        assert_eq!(a.target_insts, b.target_insts);
        assert!(Arc::ptr_eq(&a, &b), "memo shares one result");
    }

    #[test]
    fn corun_uses_cached_targets() {
        let ctx = ExperimentContext::new(5_000);
        let img = by_abbrev("IMG").unwrap();
        let mm = by_abbrev("MM").unwrap();
        let r = ctx.corun(&[&img, &mm], &PolicyKind::Even);
        assert_eq!(r.targets, ctx.targets(&[&img, &mm]));
        assert_eq!(
            ctx.iso.lock().unwrap_or_else(PoisonError::into_inner).len(),
            2
        );
    }

    #[test]
    fn batch_matches_singles_for_any_worker_count() {
        let img = by_abbrev("IMG").unwrap();
        let mm = by_abbrev("MM").unwrap();
        let cfg = RunConfig {
            isolation_cycles: 3_000,
            ..RunConfig::default()
        };
        let serial = ExperimentContext::with_pool(cfg.clone(), ws_exec::Pool::new(1));
        let parallel = ExperimentContext::with_pool(cfg, ws_exec::Pool::new(4));
        let runs = vec![
            (vec![&img, &mm], PolicyKind::Even),
            (vec![&img, &mm], PolicyKind::Spatial),
        ];
        let a = serial.corun_batch(&runs);
        let b = parallel.corun_batch(&runs);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.total_cycles, y.total_cycles);
            assert_eq!(x.finish_cycle, y.finish_cycle);
            assert!((x.combined_ipc - y.combined_ipc).abs() < f64::EPSILON);
        }
    }

    #[test]
    fn observe_reports_jobs_and_wall_clock() {
        let mut ctx = ExperimentContext::new(2_000);
        let events = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&events);
        ctx.set_progress(Box::new(move |p| {
            sink.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(p.clone());
        }));
        let img = by_abbrev("IMG").unwrap();
        ctx.observe("iso", |c| {
            let _ = c.isolation(&img);
        });
        let events = events.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].label, "iso");
        assert_eq!(events[0].jobs, 1);
        assert!(events[0].to_string().contains("iso: 1 jobs"));
    }
}
