//! `fig6_eval`: regenerate Fig. 6 the way `experiments fig6` does without
//! the Oracle — 10 isolation runs, then 30 pairs x {Left-Over, Spatial,
//! Even, Dynamic} equal-work co-runs — through a fresh `ExperimentContext`
//! per evaluation.
//!
//! The untraced pass calls `fig6::compute` itself. The traced pass submits
//! the same jobs, in the same order, through `ws_exec::Pool::try_run` with a
//! closure that stamps each job's start and end around
//! `warped_slicer::execute`, and rebuilds the same `Fig6Data`; its digest
//! must equal the untraced one.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use warped_slicer::{
    execute, CorunResult, IsolationResult, PolicyKind, ResourceVec, RunConfig, SimJob, SimOutcome,
};
use ws_bench::experiments::fig6::{self, Fig6Data, PairResult};
use ws_bench::report::gmean;
use ws_bench::ExperimentContext;
use ws_workloads::{all_pairs, suite, Benchmark, Pair};

use crate::stats::{median, modeled_counters, quantile, Digest};
use crate::trace::{span, SpanId, Tracer};
use crate::{Opts, Pass};

/// Extra set-ups timed before the first evaluation and after each one, so
/// `setup_s` rests on many samples spread over the run.
const SETUP_REPS: usize = 11;

/// The run configuration: the fixed isolation budget, fast-forward pinned.
fn run_config(opts: &Opts) -> RunConfig {
    RunConfig {
        isolation_cycles: opts.fig6_cycles,
        fast_forward: Some(true),
        ..RunConfig::default()
    }
}

/// The `workloads` layer plus a fresh context: what one evaluation sets up.
fn set_up(opts: &Opts) -> (Vec<Pair>, ExperimentContext) {
    let _ = suite();
    let pairs = all_pairs();
    let ctx = ExperimentContext::with_pool(run_config(opts), ws_exec::Pool::new(opts.threads));
    (pairs, ctx)
}

/// Every simulated output of one evaluation, in a fixed order.
fn digest(data: &Fig6Data, iso: &Isolation) -> String {
    let mut d = Digest::default();
    for (abbrev, r) in iso {
        d.add_debug(&(abbrev, r.as_ref()));
    }
    for p in &data.pairs {
        for r in [&p.left_over, &p.spatial, &p.even, &p.dynamic] {
            d.add_debug(r);
        }
    }
    d.hex()
}

/// Distinct benchmarks in first-appearance order over the pairs — the
/// order `ExperimentContext::isolation_batch` submits them in.
fn distinct(pairs: &[Pair]) -> Vec<&Benchmark> {
    let mut out: Vec<&Benchmark> = Vec::new();
    for b in pairs.iter().flat_map(|p| [&p.a, &p.b]) {
        if !out.iter().any(|o| o.abbrev == b.abbrev) {
            out.push(b);
        }
    }
    out
}

/// Eq. 1: the Dynamic decision's quotas must fit one SM.
fn check_capacity(pass: &mut Pass, ctx: &ExperimentContext, p: &PairResult) {
    let Some(q) = p.dynamic.decision.as_ref().and_then(|d| d.quotas.as_ref()) else {
        return;
    };
    let used = [&p.pair.a, &p.pair.b]
        .iter()
        .zip(q)
        .fold(ResourceVec::zero(), |acc, (b, &n)| {
            acc.plus(&ResourceVec::cta_cost(&b.desc).times(u64::from(n)))
        });
    if !ResourceVec::sm_capacity(&ctx.cfg.gpu.sm).covers(&used) {
        pass.fail(format!(
            "{}: Dynamic quotas {q:?} exceed SM capacity (Eq. 1)",
            p.pair.label()
        ));
    }
}

/// Simulated results of one evaluation that the report and the per-layer
/// breakdown read.
fn simulated_metrics(pass: &mut Pass, data: &Fig6Data, iso: &Isolation) {
    let (_, _, dynamic, _) = data.gmeans();
    let dyn_over_even: Vec<f64> = data
        .pairs
        .iter()
        .map(|p| p.normalized(&p.dynamic) / p.normalized(&p.even))
        .collect();
    let coruns: Vec<&CorunResult> = data
        .pairs
        .iter()
        .flat_map(|p| [&p.left_over, &p.spatial, &p.even, &p.dynamic])
        .collect();
    let decisions: Vec<_> = data
        .pairs
        .iter()
        .filter_map(|p| p.dynamic.decision.as_ref())
        .collect();
    let stats = iso
        .iter()
        .map(|(_, r)| &r.stats)
        .chain(coruns.iter().map(|r| &r.stats));
    let (cycles, insts, counters) = modeled_counters(stats);
    pass.layer.extend(counters);
    let decided_at: Vec<f64> = decisions.iter().map(|d| d.decided_at as f64).collect();
    pass.layer.extend([
        ("ipc_norm_dynamic", dynamic),
        ("dyn_over_even", gmean(&dyn_over_even)),
        ("gpu_sim.cycles", cycles as f64),
        ("gpu_sim.insts", insts as f64),
        (
            "policy.spatial_fallbacks",
            decisions.iter().filter(|d| d.spatial_fallback).count() as f64,
        ),
        ("policy.decided_at_cycles", median(&decided_at)),
        (
            "policy.timeouts",
            coruns.iter().filter(|r| r.timed_out).count() as f64,
        ),
    ]);
}

/// Isolation results by benchmark abbreviation.
type Isolation = Vec<(&'static str, Arc<IsolationResult>)>;

/// One traced pool batch: job stamps taken in the closure, plus the
/// simulated work the jobs did.
#[derive(Default)]
struct BatchTimes {
    /// (start, end) of each job, seconds since the batch began.
    jobs: Vec<(f64, f64)>,
    wall: f64,
    cycles: u64,
    insts: u64,
    skipped: u64,
}

/// Runs `jobs` on the pool inside an `exec` span, each job inside a
/// `gpu_sim` span, and returns outcomes plus the stamps.
fn traced_batch(
    pass: &mut Pass,
    pool: &ws_exec::Pool,
    tracer: &Arc<Tracer>,
    parent: Option<SpanId>,
    name: &'static str,
    jobs: &[SimJob],
) -> (Vec<Option<SimOutcome>>, BatchTimes) {
    let t0 = Instant::now();
    let results = span(Some(tracer), "pool.run", "exec", parent, 0, |batch| {
        let tracer = Arc::clone(tracer);
        pool.try_run(jobs, move |id, job| {
            let start = t0.elapsed().as_secs_f64();
            let out = span(Some(&tracer), name, "gpu_sim", batch, id.0 as u64, |_| {
                execute(job)
            });
            (out, start, t0.elapsed().as_secs_f64())
        })
    });
    let mut times = BatchTimes {
        wall: t0.elapsed().as_secs_f64(),
        ..BatchTimes::default()
    };
    let outcomes = results
        .into_iter()
        .map(|r| match r {
            Ok((out, s, e)) => {
                times.jobs.push((s, e));
                times.cycles += out.total_cycles;
                times.insts += out.stats.insts;
                times.skipped += out.ff_skipped_cycles;
                Some(out)
            }
            Err(p) => {
                pass.fail(format!("job panic: {p}"));
                None
            }
        })
        .collect();
    (outcomes, times)
}

/// One traced evaluation: the `fig6::compute` job set, stamped per job.
/// Returns `None` when a job panicked (already counted as a failure).
fn traced_eval(
    pass: &mut Pass,
    ctx: &ExperimentContext,
    pairs: &[Pair],
    tracer: &Arc<Tracer>,
    key: u64,
    batches: &mut Vec<BatchTimes>,
) -> Option<(Fig6Data, Isolation)> {
    span(Some(tracer), "fig6_eval", "bench", None, key, |root| {
        let benches = distinct(pairs);
        let iso_jobs: Vec<SimJob> = benches
            .iter()
            .map(|b| SimJob::isolation(&b.desc, &ctx.cfg))
            .collect();
        let (outs, times) = traced_batch(pass, ctx.pool(), tracer, root, "isolation", &iso_jobs);
        batches.push(times);
        let iso: Isolation = benches
            .iter()
            .zip(outs)
            .map(|(b, o)| o.map(|o| (b.abbrev, Arc::new(o.into_isolation()))))
            .collect::<Option<_>>()?;
        let target = |b: &Benchmark| {
            iso.iter()
                .find(|(a, _)| *a == b.abbrev)
                .map_or(0, |(_, r)| r.target_insts)
        };
        let policies = [
            PolicyKind::LeftOver,
            PolicyKind::Spatial,
            PolicyKind::Even,
            ctx.dynamic_policy(),
        ];
        let jobs: Vec<SimJob> = pairs
            .iter()
            .flat_map(|p| {
                let targets = [target(&p.a), target(&p.b)];
                policies.iter().map(move |policy| {
                    SimJob::corun(&[&p.a.desc, &p.b.desc], &targets, policy, &ctx.cfg)
                })
            })
            .collect();
        let (outs, times) = traced_batch(pass, ctx.pool(), tracer, root, "corun", &jobs);
        batches.push(times);
        let mut results = outs
            .into_iter()
            .zip(&jobs)
            .map(|(o, job)| o.map(|o| o.into_corun(job)))
            .collect::<Option<Vec<_>>>()?
            .into_iter();
        let data = Fig6Data {
            pairs: pairs
                .iter()
                .map(|pair| {
                    let mut next = || results.next().expect("four results per pair");
                    PairResult {
                        pair: pair.clone(),
                        left_over: next(),
                        spatial: next(),
                        even: next(),
                        dynamic: next(),
                        oracle_ipc: None,
                    }
                })
                .collect(),
        };
        Some((data, iso))
    })
}

/// The `exec` and host-time `gpu_sim` metrics from the traced batches.
fn traced_metrics(pass: &mut Pass, tracer: &Tracer, threads: usize, batches: &[BatchTimes]) {
    let ms = |v: Vec<f64>| -> Vec<f64> { v.iter().map(|ns| ns * 1e-6).collect() };
    let corun = ms(tracer.durations_ns("corun"));
    let isolation = ms(tracer.durations_ns("isolation"));
    let (mut busy, mut capacity, mut tail) = (0.0, 0.0, 0.0);
    let mut waits = Vec::new();
    let (mut cycles, mut insts, mut skipped) = (0u64, 0u64, 0u64);
    for b in batches {
        busy += b.jobs.iter().map(|(s, e)| e - s).sum::<f64>();
        capacity += b.wall * threads as f64;
        let last_start = b.jobs.iter().map(|&(s, _)| s).fold(0.0, f64::max);
        tail += b.wall - last_start;
        waits.extend(b.jobs.iter().map(|&(s, _)| s * 1e3));
        cycles += b.cycles;
        insts += b.insts;
        skipped += b.skipped;
    }
    let sim_ns: f64 = corun.iter().chain(&isolation).sum::<f64>() * 1e6;
    pass.layer.extend([
        ("gpu_sim.corun_ms_p50", quantile(&corun, 0.5)),
        ("gpu_sim.corun_ms_p90", quantile(&corun, 0.9)),
        ("gpu_sim.isolation_ms_p50", quantile(&isolation, 0.5)),
        ("gpu_sim.ns_per_inst", sim_ns / insts.max(1) as f64),
        ("gpu_sim.ns_per_cycle", sim_ns / cycles.max(1) as f64),
        (
            "gpu_sim.ff_skipped_frac",
            skipped as f64 / cycles.max(1) as f64,
        ),
        ("exec.threads", threads as f64),
        ("exec.jobs", waits.len() as f64),
        ("exec.busy_frac", busy / capacity.max(1e-12)),
        ("exec.queue_wait_ms_p50", quantile(&waits, 0.5)),
        ("exec.queue_wait_ms_p90", quantile(&waits, 0.9)),
        ("exec.tail_ms", tail * 1e3),
    ]);
}

/// Runs `fig6_eval` for `opts.seconds` (or exactly `evals` evaluations when
/// replaying an untraced pass under tracing).
///
/// The evaluation's inputs are the paper's fixed pair list, so the seed
/// selects nothing here; it is accepted for a uniform command line.
pub fn run(opts: &Opts, tracer: Option<&Arc<Tracer>>, evals: Option<usize>) -> Pass {
    let mut pass = Pass::default();
    let mut setups = Vec::new();
    let time_set_ups = |setups: &mut Vec<f64>| {
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let made = set_up(opts);
            setups.push(t.elapsed().as_secs_f64());
            drop(made);
        }
    };
    time_set_ups(&mut setups);
    let mut walls = Vec::new();
    let mut sim_rates = Vec::new();
    let mut batches = Vec::new();
    let mut first_digest: Option<String> = None;
    let started = Instant::now();
    loop {
        let done = walls.len();
        let more = match evals {
            Some(n) => done < n,
            None => done == 0 || started.elapsed().as_secs_f64() < opts.seconds,
        };
        if !more {
            break;
        }
        let t = Instant::now();
        let (pairs, ctx) = set_up(opts);
        setups.push(t.elapsed().as_secs_f64());
        pass.attempted += (distinct(&pairs).len() + 4 * pairs.len()) as u64;
        let t = Instant::now();
        let result = match tracer {
            None => catch_unwind(AssertUnwindSafe(|| fig6::compute(&ctx, false)))
                .map_err(|_| pass.fail("fig6::compute panicked".to_string()))
                .ok()
                .map(|data| {
                    let iso = distinct(&pairs)
                        .iter()
                        .map(|b| (b.abbrev, ctx.isolation(b)))
                        .collect::<Vec<_>>();
                    (data, iso)
                }),
            Some(tr) => traced_eval(&mut pass, &ctx, &pairs, tr, done as u64, &mut batches),
        };
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        time_set_ups(&mut setups);
        let Some((data, iso)) = result else {
            continue;
        };
        for p in &data.pairs {
            check_capacity(&mut pass, &ctx, p);
        }
        let d = digest(&data, &iso);
        match &first_digest {
            None => first_digest = Some(d),
            Some(f) if *f != d => pass.fail(format!("evaluation {done} digest {d} != {f}")),
            Some(_) => {}
        }
        simulated_metrics(&mut pass, &data, &iso);
        sim_rates.push(pass.layer["gpu_sim.insts"] / wall);
    }
    if let Some(tr) = tracer {
        traced_metrics(&mut pass, tr, opts.threads, &batches);
    }
    pass.units = walls.len();
    pass.wall_s = median(&walls);
    pass.setup_s = median(&setups);
    pass.digest = first_digest.unwrap_or_default();
    pass.report
        .insert("sim_insts_per_s", (median(&sim_rates), "1/s"));
    pass.report.insert(
        "ipc_norm_dynamic",
        (pass.layer_or_zero("ipc_norm_dynamic"), "ratio"),
    );
    pass.report.insert(
        "dyn_over_even",
        (pass.layer_or_zero("dyn_over_even"), "ratio"),
    );
    pass
}
