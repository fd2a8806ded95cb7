//! `decide_hot` and `decide_churn`: a closed loop with one client making
//! co-arrival decisions through the curve store.
//!
//! Each arrival names one of the 30 Fig. 6 pairs. The decision derives
//! both kernels' signatures, looks them up, and water-fills over the stored
//! curves (a hit). If either kernel is missing (a miss) it plans the
//! prediction-pruned sweep for the pair, profiles both kernels on the pool,
//! water-fills, and inserts the missing curves. A kernel that was still
//! stored is re-profiled with its partner, and the fresh curve must equal
//! the stored one: simulation is deterministic, so hit, miss and re-profile
//! must all give the same quotas.
//!
//! * `decide_hot`: Zipf arrivals (s = 1, Table III order as rank) over a
//!   store larger than the 10-kernel working set. Set-up fills the store
//!   cold and round-trips it through `to_jsonl`/`from_jsonl`, as a restart
//!   would, so every timed arrival is a hit and nothing is simulated.
//! * `decide_churn`: uniform arrivals (each round of 30 arrivals is a
//!   seeded permutation of the pairs) over a store of 4 entries, smaller
//!   than the working set, and a seeded 10% of arrivals first invalidate
//!   one of their kernels, as a phase change would. Nearly every arrival
//!   misses.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::{GpuConfig, SimRng};
use warped_slicer::store::DEFAULT_STORE_CAPACITY;
use warped_slicer::{
    brute_force, execute, profile_curves_planned, water_fill, CurveStore, KernelCurve,
    KernelSignature, Partition, ResourceVec, RunConfig, SimJob, StoreEntry, SweepPlan,
};
use ws_workloads::{all_pairs, suite, Pair};

use crate::stats::{median, modeled_counters, quantile, Digest, Histogram};
use crate::trace::{span, SpanId, Tracer};
use crate::{Opts, Pass};

/// Store capacity on `decide_churn`: smaller than the 10-kernel working set.
const CHURN_CAPACITY: usize = 4;
/// Share of `decide_churn` arrivals that carry a phase change.
const PHASE_CHANGE_SHARE: f64 = 0.1;
/// Arrivals per `wall_s` unit on `decide_hot`.
const HOT_BATCH: usize = 1000;
/// Set-ups timed before the loop. A `decide_hot` set-up profiles the whole
/// working set, so it repeats fewer times; a `decide_churn` set-up takes
/// about a millisecond, so two more are timed every ten arrivals, spreading
/// the samples over the run.
const HOT_SETUP_REPS: usize = 3;
const CHURN_SETUP_REPS: usize = 11;
const CHURN_SETUP_EVERY: usize = 10;

/// One co-arrival: a pair index and, for a phase change, which of its two
/// kernels to invalidate first.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    pair: usize,
    invalidate: Option<usize>,
}

/// The seeded arrival generator. The program under test only ever sees the
/// arrivals, never the seed.
struct Arrivals {
    rng: SimRng,
    hot: bool,
    /// Zipf cumulative distribution over pair ranks (`decide_hot`).
    cdf: Vec<f64>,
    /// The rest of the current permutation round (`decide_churn`).
    round: Vec<usize>,
    pairs: usize,
}

impl Arrivals {
    fn new(seed: u64, hot: bool, pairs: usize) -> Self {
        let weights: Vec<f64> = (1..=pairs).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        let cdf = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w / total;
                Some(*acc)
            })
            .collect();
        Self {
            rng: SimRng::seed_from_u64(seed),
            hot,
            cdf,
            round: Vec::new(),
            pairs,
        }
    }
}

impl Iterator for Arrivals {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        if self.hot {
            let u = self.rng.unit_f64();
            let pair = self.cdf.partition_point(|&c| c <= u).min(self.pairs - 1);
            return Some(Arrival {
                pair,
                invalidate: None,
            });
        }
        if self.round.is_empty() {
            self.round = (0..self.pairs).collect();
            self.rng.shuffle(&mut self.round);
        }
        let pair = self.round.pop()?;
        let invalidate =
            (self.rng.unit_f64() < PHASE_CHANGE_SHARE).then(|| self.rng.range_usize(2));
        Some(Arrival { pair, invalidate })
    }
}

/// What one timed decision produced, for the checks made after the clock
/// stops.
struct Decided {
    sigs: [KernelSignature; 2],
    kernels: Vec<KernelCurve>,
    part: Partition,
    /// Which kernels were found in the store.
    found: [bool; 2],
    /// Set when the arrival missed: (plan, samples run, pruned flags).
    sweep: Option<(SweepPlan, usize, Vec<bool>)>,
}

/// The decision path plus every check and counter around it.
struct Decider<'a> {
    opts: &'a Opts,
    tracer: Option<&'a Tracer>,
    pairs: Vec<Pair>,
    maxes: Vec<[u32; 2]>,
    gpu: GpuConfig,
    cfg: RunConfig,
    capacity: ResourceVec,
    pool: ws_exec::Pool,
    store: CurveStore,
    /// First quotas seen per pair; every later decision must match.
    quotas: HashMap<usize, Vec<u32>>,
    /// First curve seen per kernel signature; every later one must match.
    curves: HashMap<u64, Vec<f64>>,
    tally: Tally,
}

/// Counters of one phase (set-up or the timed loop).
#[derive(Default)]
struct Tally {
    /// (pair, curves digest) already compared against `brute_force`.
    checked: HashSet<(usize, String)>,
    optimal: u64,
    /// Host seconds of each hit and each miss. Hits can number millions,
    /// so they go into a fixed-size histogram.
    hits: Histogram,
    misses: Vec<f64>,
    samples_planned: usize,
    samples_full: usize,
    samples_run: usize,
    fallback_kernels: usize,
    /// Every decision, in arrival order.
    digest: Digest,
}

impl<'a> Decider<'a> {
    fn new(opts: &'a Opts, capacity: usize) -> Self {
        let _ = suite();
        let pairs = all_pairs();
        let cfg = RunConfig {
            fast_forward: Some(true),
            ..RunConfig::default()
        };
        let gpu = cfg.gpu.clone();
        let maxes = pairs
            .iter()
            .map(|p| {
                [
                    p.a.desc.max_ctas_per_sm(&gpu.sm),
                    p.b.desc.max_ctas_per_sm(&gpu.sm),
                ]
            })
            .collect();
        Self {
            opts,
            tracer: None,
            capacity: ResourceVec::sm_capacity(&gpu.sm),
            pairs,
            maxes,
            gpu,
            cfg,
            pool: ws_exec::Pool::new(opts.threads),
            store: CurveStore::new(capacity),
            quotas: HashMap::new(),
            curves: HashMap::new(),
            tally: Tally::default(),
        }
    }

    /// The timed part of one arrival; its spans carry the arrival's `key`.
    fn timed(&mut self, a: Arrival, root: Option<SpanId>, key: u64) -> Result<Decided, String> {
        let tr = self.tracer;
        let pair = &self.pairs[a.pair];
        let descs = [&pair.a.desc, &pair.b.desc];
        let derive = |d| {
            span(tr, "KernelSignature::derive", "store", root, key, |_| {
                KernelSignature::derive(d, &self.gpu)
            })
            .ok_or_else(|| format!("{}: signature derivation failed", pair.label()))
        };
        let sigs = [derive(descs[0])?, derive(descs[1])?];
        if let Some(k) = a.invalidate {
            span(tr, "CurveStore::invalidate", "store", root, key, |_| {
                self.store.invalidate(&sigs[k].key)
            });
        }
        let mut stored = [None, None];
        for (slot, sig) in stored.iter_mut().zip(&sigs) {
            *slot = span(tr, "CurveStore::lookup", "store", root, key, |_| {
                self.store.lookup(&sig.key).map(|e| e.perf.clone())
            });
        }
        let found = [stored[0].is_some(), stored[1].is_some()];
        let (perfs, sweep) = match stored {
            [Some(x), Some(y)] => ([x, y], None),
            _ => {
                let maxes = self.maxes[a.pair];
                let plan = span(
                    tr,
                    "SweepPlan::from_predictions",
                    "sweep",
                    root,
                    key,
                    |_| SweepPlan::from_predictions(&descs, &maxes, &self.gpu),
                );
                let (pool, window, cfg) = (&self.pool, self.opts.window, &self.cfg);
                let swept = span(tr, "profile_curves_planned", "sweep", root, key, |_| {
                    catch_unwind(AssertUnwindSafe(|| {
                        profile_curves_planned(pool, &descs, &plan, window, cfg)
                    }))
                })
                .map_err(|_| format!("{}: profiling job panicked", pair.label()))?;
                let [x, y]: [Vec<f64>; 2] = swept
                    .curves
                    .try_into()
                    .map_err(|_| "profile returned the wrong number of curves".to_string())?;
                ([x, y], Some((plan, swept.samples_run, swept.pruned)))
            }
        };
        let kernels: Vec<KernelCurve> = perfs
            .into_iter()
            .zip(descs)
            .map(|(perf, d)| KernelCurve {
                perf,
                cta_cost: ResourceVec::cta_cost(d),
            })
            .collect();
        let capacity = self.capacity;
        let part = span(tr, "water_fill", "waterfill", root, key, |_| {
            water_fill(&kernels, capacity)
        })
        .ok_or_else(|| format!("{}: no feasible partition", pair.label()))?;
        if sweep.is_some() {
            for (k, sig) in sigs.iter().enumerate().filter(|&(k, _)| !found[k]) {
                let entry = StoreEntry::measured(sig, kernels[k].perf.clone());
                let ok = span(tr, "CurveStore::insert", "store", root, key, |_| {
                    self.store.insert(sig.key, entry)
                });
                if !ok {
                    return Err(format!("{}: store refused a measured curve", pair.label()));
                }
            }
        }
        Ok(Decided {
            sigs,
            kernels,
            part,
            found,
            sweep,
        })
    }

    /// Decides one arrival, then checks the decision outside the timed
    /// region. Returns the host seconds the decision took.
    fn decide(&mut self, pass: &mut Pass, a: Arrival, key: u64) -> f64 {
        pass.attempted += 1;
        let t = Instant::now();
        let result = span(self.tracer, "arrival", "bench", None, key, |root| {
            self.timed(a, root, key)
        });
        let secs = t.elapsed().as_secs_f64();
        let d = match result {
            Ok(d) => d,
            Err(e) => {
                pass.fail(e);
                return secs;
            }
        };
        let t = &mut self.tally;
        if let Some((plan, run, pruned)) = &d.sweep {
            t.misses.push(secs);
            t.samples_planned += plan.planned_samples();
            t.samples_full += plan.full_samples();
            t.samples_run += run;
            t.fallback_kernels += plan
                .windows
                .iter()
                .zip(pruned)
                .filter(|(w, &p)| !w.is_full() && !p)
                .count();
        } else {
            t.hits.record(secs);
        }
        self.check(pass, a, &d);
        secs
    }

    fn check(&mut self, pass: &mut Pass, a: Arrival, d: &Decided) {
        let label = self.pairs[a.pair].label();
        let used = d
            .kernels
            .iter()
            .zip(&d.part.ctas)
            .fold(ResourceVec::zero(), |acc, (k, &n)| {
                acc.plus(&k.cta_cost.times(u64::from(n)))
            });
        if !self.capacity.covers(&used) {
            pass.fail(format!("{label}: quotas {:?} break Eq. 1", d.part.ctas));
        }
        let mut cd = Digest::default();
        cd.add_debug(&(&d.kernels[0].perf, &d.kernels[1].perf));
        if self.tally.checked.insert((a.pair, cd.hex())) {
            match brute_force(&d.kernels, self.capacity) {
                Some(bf) if (bf.min_perf() - d.part.min_perf()).abs() <= 1e-9 => {
                    self.tally.optimal += 1;
                }
                bf => pass.fail(format!(
                    "{label}: water_fill min-perf {} != brute_force {:?}",
                    d.part.min_perf(),
                    bf.map(|b| b.min_perf())
                )),
            }
        }
        let reference = self
            .quotas
            .entry(a.pair)
            .or_insert_with(|| d.part.ctas.clone());
        if *reference != d.part.ctas {
            pass.fail(format!(
                "{label}: quotas {:?} differ from earlier {reference:?} ({})",
                d.part.ctas,
                if d.sweep.is_some() { "miss" } else { "hit" }
            ));
        }
        for (k, sig) in d.sigs.iter().enumerate() {
            let perf = &d.kernels[k].perf;
            let known = self
                .curves
                .entry(sig.key.kernel_sig)
                .or_insert_with(|| perf.clone());
            if known != perf {
                let how = match (d.sweep.is_some(), d.found[k]) {
                    (true, true) => "re-profile",
                    (true, false) => "miss",
                    _ => "hit",
                };
                pass.fail(format!("{label}: kernel {k} curve differs on {how}"));
            }
        }
        self.tally.digest.add_debug(&(
            a.pair,
            a.invalidate,
            &d.part.ctas,
            &d.kernels[0].perf,
            &d.kernels[1].perf,
        ));
    }
}

/// Builds a decider; on `decide_hot` also fills the store cold and
/// round-trips it through JSONL (the two store calls traced when `tracer`
/// is set; the cold fill never is). Returns the decider and the set-up
/// time.
fn set_up<'a>(
    opts: &'a Opts,
    tracer: Option<&Tracer>,
    hot: bool,
    pass: &mut Pass,
) -> (Decider<'a>, f64) {
    let t = Instant::now();
    let capacity = if hot {
        DEFAULT_STORE_CAPACITY
    } else {
        CHURN_CAPACITY
    };
    let mut dec = Decider::new(opts, capacity);
    if hot {
        for pair in 0..dec.pairs.len() {
            dec.decide(
                pass,
                Arrival {
                    pair,
                    invalidate: None,
                },
                pair as u64,
            );
        }
        let text = span(tracer, "CurveStore::to_jsonl", "store", None, 0, |_| {
            dec.store.to_jsonl()
        });
        match span(tracer, "CurveStore::from_jsonl", "store", None, 0, |_| {
            CurveStore::from_jsonl(&text)
        }) {
            Ok(loaded) if loaded.to_jsonl() == text => dec.store = loaded,
            Ok(_) => pass.fail("store changed across a JSONL round trip".to_string()),
            Err(e) => pass.fail(format!("store reload failed: {e}")),
        }
    }
    (dec, t.elapsed().as_secs_f64())
}

/// Traced only: runs each working-set kernel's planned sampling jobs once
/// through the pool with stamps, since `profile_curves_planned` submits its
/// jobs internally. Gives the `gpu_sim` numbers for the sampling windows,
/// and checks each sample against the stored curve point.
fn sample_probe(pass: &mut Pass, dec: &Decider, tracer: &Arc<Tracer>) {
    let mut jobs = Vec::new();
    let mut expect = Vec::new();
    let mut seen = HashSet::new();
    for (p, maxes) in dec.pairs.iter().zip(&dec.maxes) {
        for (desc, &max) in [&p.a.desc, &p.b.desc].into_iter().zip(maxes) {
            if !seen.insert(desc.name.clone()) {
                continue;
            }
            let plan = SweepPlan::from_predictions(&[desc], &[max], &dec.gpu);
            let sig = KernelSignature::derive(desc, &dec.gpu).map(|s| s.key.kernel_sig);
            for cap in plan.windows[0].planned_caps() {
                jobs.push(SimJob::cta_cap(desc, cap, dec.opts.window, &dec.cfg));
                expect.push((sig, cap));
            }
        }
    }
    let results = span(Some(tracer), "pool.run", "exec", None, 0, |batch| {
        let tracer = Arc::clone(tracer);
        dec.pool.try_run(&jobs, move |id, job| {
            span(
                Some(&tracer),
                "sample",
                "gpu_sim",
                batch,
                id.0 as u64,
                |_| execute(job),
            )
        })
    });
    let mut outs = Vec::new();
    for (r, (sig, cap)) in results.into_iter().zip(expect) {
        let out = match r {
            Ok(o) => o,
            Err(p) => {
                pass.fail(format!("sampling job panic: {p}"));
                continue;
            }
        };
        let stored = sig
            .and_then(|s| dec.curves.get(&s))
            .and_then(|c| c.get(cap as usize - 1));
        if stored.is_some_and(|&v| v.to_bits() != out.measured_ipc().to_bits()) {
            pass.fail(format!("sample at cap {cap} differs from the stored curve"));
        }
        outs.push(out);
    }
    let ns = tracer.durations_ns("sample");
    let total_ns: f64 = ns.iter().sum();
    let skipped: u64 = outs.iter().map(|o| o.ff_skipped_cycles).sum();
    let (cycles, insts, counters) = modeled_counters(outs.iter().map(|o| &o.stats));
    let cyc = cycles.max(1) as f64;
    pass.layer.extend(counters);
    pass.layer.extend([
        ("gpu_sim.sample_ms_p50", quantile(&ns, 0.5) * 1e-6),
        ("gpu_sim.ns_per_inst", total_ns / insts.max(1) as f64),
        ("gpu_sim.ns_per_cycle", total_ns / cyc),
        ("gpu_sim.cycles", cycles as f64),
        ("gpu_sim.insts", insts as f64),
        ("gpu_sim.ff_skipped_frac", skipped as f64 / cyc),
    ]);
}

/// Per-layer numbers of a traced pass over the timed loop.
fn layer_metrics(pass: &mut Pass, dec: &Decider, tracer: &Tracer, jobs: u64) {
    let p50 = |name: &str, scale: f64| quantile(&tracer.durations_ns(name), 0.5) * scale;
    let profile_ms: f64 = tracer
        .durations_ns("profile_curves_planned")
        .iter()
        .sum::<f64>()
        * 1e-6;
    let st = dec.store.stats();
    let t = &dec.tally;
    let calls = (t.hits.len() + t.misses.len() as u64) as f64;
    pass.layer.extend([
        (
            "sweep.plan_us_p50",
            p50("SweepPlan::from_predictions", 1e-3),
        ),
        ("sweep.profile_ms_p50", p50("profile_curves_planned", 1e-6)),
        ("sweep.samples_planned", t.samples_planned as f64),
        ("sweep.samples_run", t.samples_run as f64),
        ("sweep.fallback_kernels", t.fallback_kernels as f64),
        (
            "sweep.pruned_frac",
            t.samples_full.saturating_sub(t.samples_run) as f64 / t.samples_full.max(1) as f64,
        ),
        (
            "sweep.ms_per_sample",
            profile_ms / t.samples_run.max(1) as f64,
        ),
        ("store.derive_us_p50", p50("KernelSignature::derive", 1e-3)),
        ("store.lookup_ns_p50", p50("CurveStore::lookup", 1.0)),
        ("store.insert_ns_p50", p50("CurveStore::insert", 1.0)),
        (
            "store.invalidate_ns_p50",
            p50("CurveStore::invalidate", 1.0),
        ),
        ("store.hits", st.hits as f64),
        ("store.misses", st.misses as f64),
        ("store.evictions", st.evictions as f64),
        ("store.invalidations", st.invalidations as f64),
        (
            "store.hit_rate",
            st.hits as f64 / (st.hits + st.misses).max(1) as f64,
        ),
        ("store.save_ms", p50("CurveStore::to_jsonl", 1e-6)),
        ("store.load_ms", p50("CurveStore::from_jsonl", 1e-6)),
        ("waterfill.calls", calls),
        ("waterfill.us_p50", p50("water_fill", 1e-3)),
        (
            "waterfill.optimal_frac",
            t.optimal as f64 / t.checked.len().max(1) as f64,
        ),
        ("exec.threads", dec.pool.threads() as f64),
        ("exec.jobs", jobs as f64),
    ]);
}

/// Runs `decide_hot` (`hot`) or `decide_churn` for `opts.seconds`, or for
/// exactly `arrivals` timed arrivals when replaying under tracing.
pub fn run(opts: &Opts, tracer: Option<&Arc<Tracer>>, hot: bool, arrivals: Option<usize>) -> Pass {
    let mut pass = Pass::default();
    let tr = tracer.map(Arc::as_ref);
    let reps = match (tracer, hot) {
        (Some(_), _) => 1,
        (None, true) => HOT_SETUP_REPS,
        (None, false) => CHURN_SETUP_REPS,
    };
    let mut setups = Vec::new();
    let mut cold_misses = Vec::new();
    let mut dec = None;
    for _ in 0..reps {
        let (mut d, secs) = set_up(opts, tr, hot, &mut pass);
        setups.push(secs);
        cold_misses.extend(std::mem::take(&mut d.tally.misses));
        dec = Some(d);
    }
    let mut dec = dec.expect("at least one set-up");
    // The timed loop starts its own tally; quota and curve references
    // carry over, so loop decisions are checked against set-up ones.
    let set_up_tally = std::mem::take(&mut dec.tally);
    dec.tracer = tr;
    let jobs_before = dec.pool.jobs_completed();
    // wall_s on decide_hot: the 10th percentile of the host time of 1000
    // consecutive arrivals. A run holds about a thousand such batches, and
    // interference from other tenants of the host only ever adds time, so
    // a low quantile tracks the program's own cost. On decide_churn: the
    // host time to serve one miss of every pair, summed from per-pair
    // medians (about ten samples each), so neither the seeded pair mix
    // nor the seeded number of hits moves it.
    let mut walls = Vec::new();
    let (mut in_batch, mut batch_secs) = (0usize, 0.0);
    let mut pair_misses: Vec<Vec<f64>> = vec![Vec::new(); dec.pairs.len()];
    let mut stream = Arrivals::new(opts.seed, hot, dec.pairs.len());
    let started = Instant::now();
    let mut n = 0usize;
    loop {
        let covered = if hot {
            !walls.is_empty()
        } else {
            pair_misses.iter().all(|m| !m.is_empty())
        };
        let more = match arrivals {
            Some(limit) => n < limit,
            None => started.elapsed().as_secs_f64() < opts.seconds || !covered,
        };
        let Some(a) = stream.next().filter(|_| more) else {
            break;
        };
        if !hot && n.is_multiple_of(CHURN_SETUP_EVERY) {
            for _ in 0..2 {
                setups.push(set_up(opts, None, false, &mut pass).1);
            }
        }
        let missed = dec.tally.misses.len();
        let secs = dec.decide(&mut pass, a, n as u64);
        if dec.tally.misses.len() > missed {
            pair_misses[a.pair].push(secs);
        }
        n += 1;
        (in_batch, batch_secs) = (in_batch + 1, batch_secs + secs);
        if in_batch == HOT_BATCH {
            walls.push(batch_secs);
            (in_batch, batch_secs) = (0, 0.0);
        }
    }
    let mut digest = set_up_tally.digest;
    digest.add(dec.tally.digest.hex().as_bytes());
    pass.digest = digest.hex();
    pass.units = n;
    pass.wall_s = if hot {
        quantile(&walls, 0.1)
    } else {
        pair_misses.iter().map(|m| median(m)).sum()
    };
    pass.setup_s = median(&setups);
    let misses = if hot { &cold_misses } else { &dec.tally.misses };
    pass.report
        .insert("hit_p50_us", (dec.tally.hits.quantile(0.5) * 1e6, "us"));
    pass.report
        .insert("hit_p99_us", (dec.tally.hits.quantile(0.99) * 1e6, "us"));
    pass.report
        .insert("miss_p50_ms", (quantile(misses, 0.5) * 1e3, "ms"));
    pass.report
        .insert("miss_p90_ms", (quantile(misses, 0.9) * 1e3, "ms"));
    pass.report
        .insert("hits", (dec.tally.hits.len() as f64, "count"));
    pass.report.insert("misses", (misses.len() as f64, "count"));
    if let Some(t) = tracer {
        let jobs = dec.pool.jobs_completed() - jobs_before;
        layer_metrics(&mut pass, &dec, t, jobs);
        if !hot {
            sample_probe(&mut pass, &dec, t);
        }
    }
    pass
}
