//! The repository benchmark: one command, three workloads, end-to-end
//! metrics with tracing off and a traced run for the per-layer breakdown.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --fig6-cycles 10000 --window 2000 \
//!     --workload <fig6_eval|decide_hot|decide_churn> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Human-readable report lines go to stdout first; the last stdout line is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the run
//! repeats the same work traced and reports the per-layer ones, and writes
//! the spans as JSONL under `perfbench/out/`. Any failed check makes the
//! exit code non-zero. See `perfbench/README.md`.

mod decide;
mod fig6_eval;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::sync::Arc;

use trace::Tracer;

/// Environment knobs the program reads; inherited values are rejected and
/// the benchmark sets each one itself.
const PINNED_ENV: [&str; 3] = ["WS_EXEC_THREADS", "WS_SIM_FASTFORWARD", "WS_PREDICT"];

/// Metrics every workload reports with tracing off.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")];

/// Metrics every workload reports with tracing on (0 where the workload
/// does not reach the layer). Mirrors `per_layer` in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 57] = [
    ("gpu_sim.corun_ms_p50", "ms"),
    ("gpu_sim.corun_ms_p90", "ms"),
    ("gpu_sim.sample_ms_p50", "ms"),
    ("gpu_sim.isolation_ms_p50", "ms"),
    ("gpu_sim.ns_per_inst", "ns"),
    ("gpu_sim.ns_per_cycle", "ns"),
    ("gpu_sim.cycles", "cycles"),
    ("gpu_sim.insts", "count"),
    ("gpu_sim.ff_skipped_frac", "ratio"),
    ("gpu_sim.l1_miss_rate", "ratio"),
    ("gpu_sim.l2_miss_rate", "ratio"),
    ("gpu_sim.dram_busy", "ratio"),
    ("gpu_sim.stall_mem_frac", "ratio"),
    ("gpu_sim.stall_raw_frac", "ratio"),
    ("gpu_sim.stall_idle_frac", "ratio"),
    ("exec.threads", "count"),
    ("exec.jobs", "count"),
    ("exec.busy_frac", "ratio"),
    ("exec.queue_wait_ms_p50", "ms"),
    ("exec.queue_wait_ms_p90", "ms"),
    ("exec.tail_ms", "ms"),
    ("sweep.plan_us_p50", "us"),
    ("sweep.profile_ms_p50", "ms"),
    ("sweep.samples_planned", "count"),
    ("sweep.samples_run", "count"),
    ("sweep.fallback_kernels", "count"),
    ("sweep.pruned_frac", "ratio"),
    ("sweep.ms_per_sample", "ms"),
    ("store.derive_us_p50", "us"),
    ("store.lookup_ns_p50", "ns"),
    ("store.insert_ns_p50", "ns"),
    ("store.invalidate_ns_p50", "ns"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.evictions", "count"),
    ("store.invalidations", "count"),
    ("store.hit_rate", "ratio"),
    ("store.save_ms", "ms"),
    ("store.load_ms", "ms"),
    ("waterfill.calls", "count"),
    ("waterfill.us_p50", "us"),
    ("waterfill.optimal_frac", "ratio"),
    ("policy.spatial_fallbacks", "count"),
    ("policy.decided_at_cycles", "cycles"),
    ("policy.timeouts", "count"),
    ("sim_insts_per_s", "1/s"),
    ("ipc_norm_dynamic", "ratio"),
    ("dyn_over_even", "ratio"),
    ("hit_p50_us", "us"),
    ("hit_p99_us", "us"),
    ("miss_p50_ms", "ms"),
    ("miss_p90_ms", "ms"),
    ("hits", "count"),
    ("misses", "count"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.untraced_wall_s", "s"),
];

/// What the benchmark cannot time from outside the program, per the
/// traced run's JSONL `unmeasured` records.
const UNMEASURED: [(&str, &str); 5] = [
    (
        "scale.eq2_4",
        "Eq. 2-4 scaling runs inside the Warped-Slicer controller and build_curves, never as a public call of its own",
    ),
    (
        "exec.steal_ns",
        "work stealing happens inside ws_exec worker loops",
    ),
    (
        "exec.park_ns",
        "worker parking happens inside ws_exec worker loops",
    ),
    (
        "exec.stamps_on_decide_churn",
        "profile_curves_planned submits its sampling jobs internally; only exec.jobs is counted there",
    ),
    (
        "gpu_sim.stage_ns",
        "per-stage time (fetch, issue, LSU, L2/DRAM) is inside Gpu::tick",
    ),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `fig6_eval` isolation budget (cycles), fixed in `BENCHMARK.json`.
    pub fig6_cycles: u64,
    /// Decide-stream sampling window (cycles), fixed in `BENCHMARK.json`.
    pub window: u64,
    /// Pool width: the host's available parallelism.
    pub threads: usize,
}

/// The outcome of one pass over a workload.
#[derive(Debug, Default)]
pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Units of work done (evaluations or timed arrivals); the traced pass
    /// repeats exactly this many.
    pub units: usize,
    /// Host seconds per unit of work (each workload defines its unit and
    /// statistic; see `perfbench/README.md`).
    pub wall_s: f64,
    /// Median host seconds per set-up.
    pub setup_s: f64,
    /// Digest of every simulated output and decision of the pass.
    pub digest: String,
    /// Workload-specific metrics with their units, printed in the report.
    pub report: BTreeMap<&'static str, (f64, &'static str)>,
    /// Per-layer metrics of a traced pass.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Pass {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(message);
        }
    }

    pub fn layer_or_zero(&self, name: &str) -> f64 {
        self.layer.get(name).copied().unwrap_or(0.0)
    }
}

fn usage() -> String {
    "usage: perfbench --workload <fig6_eval|decide_hot|decide_churn> --seed N --seconds S \
     --trace <0|1> --fig6-cycles N --window N"
        .to_string()
}

fn parse_args() -> Result<Opts, String> {
    let mut map: BTreeMap<String, String> = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}\n{}", usage()))?;
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(name.to_string(), value);
    }
    let mut take = |name: &str| {
        map.remove(name)
            .ok_or_else(|| format!("missing --{name}\n{}", usage()))
    };
    let num = |name: &str, v: String| -> Result<u64, String> {
        v.parse()
            .map_err(|_| format!("--{name}: not a whole number: {v}"))
    };
    let workload = take("workload")?;
    if !["fig6_eval", "decide_hot", "decide_churn"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}\n{}", usage()));
    }
    let seed = num("seed", take("seed")?)?;
    let seconds = num("seconds", take("seconds")?)? as f64;
    let trace = match take("trace")?.as_str() {
        "0" => false,
        "1" => true,
        v => return Err(format!("--trace must be 0 or 1, not {v}")),
    };
    let fig6_cycles = num("fig6-cycles", take("fig6-cycles")?)?;
    let window = num("window", take("window")?)?;
    if let Some(extra) = map.keys().next() {
        return Err(format!("unknown flag --{extra}\n{}", usage()));
    }
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
        fig6_cycles,
        window,
        threads: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
    })
}

/// Rejects inherited behaviour knobs and pins each to the value the
/// benchmark runs with, before any library code reads them.
fn pin_env(opts: &Opts) -> Result<Vec<(&'static str, String)>, String> {
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set in the environment; unset it, the benchmark pins it"
        ));
    }
    let pins = vec![
        ("WS_EXEC_THREADS", opts.threads.to_string()),
        ("WS_SIM_FASTFORWARD", "1".to_string()),
        ("WS_PREDICT", "1".to_string()),
    ];
    for (k, v) in &pins {
        std::env::set_var(k, v);
    }
    Ok(pins)
}

fn run_pass(opts: &Opts, tracer: Option<&Arc<Tracer>>, units: Option<usize>) -> Pass {
    match opts.workload.as_str() {
        "fig6_eval" => fig6_eval::run(opts, tracer, units),
        "decide_hot" => decide::run(opts, tracer, true, units),
        _ => decide::run(opts, tracer, false, units),
    }
}

/// A JSON number: finite values with every digit (and no `-0`), anything
/// else as 0 (and counted as a failure by the caller).
fn json_num(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let pins = match pin_env(&opts) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = opts.threads;
    let w = &opts.workload;
    println!(
        "pin {w} nproc={nproc} pool_threads={} fig6_cycles={} window={} seed={} {}",
        opts.threads,
        opts.fig6_cycles,
        opts.window,
        opts.seed,
        pins.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let mut pass = run_pass(&opts, None, None);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if opts.trace {
        let tracer = Arc::new(Tracer::new());
        let traced = run_pass(&opts, Some(&tracer), Some(pass.units));
        if traced.digest != pass.digest {
            pass.fail(format!(
                "traced outputs (digest {}) differ from untraced ({})",
                traced.digest, pass.digest
            ));
        }
        pass.attempted += traced.attempted;
        pass.failed += traced.failed;
        pass.failures.extend(traced.failures);
        let mut layer = traced.layer;
        for (name, (v, _)) in &pass.report {
            layer.insert(name, *v);
        }
        layer.insert("trace.overhead_s", traced.wall_s - pass.wall_s);
        layer.insert("trace.untraced_wall_s", pass.wall_s);
        layer.insert("trace.spans", tracer.spans() as f64);
        for name in layer.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "metric {name} missing from PER_LAYER"
            );
        }
        for (name, unit) in PER_LAYER {
            metrics.push((name, layer.get(name).copied().unwrap_or(0.0), unit));
        }
        let mut meta = format!(
            "\"workload\":\"{w}\",\"seed\":{},\"nproc\":{nproc},\"digest\":\"{}\"",
            opts.seed, pass.digest
        );
        for (k, v) in &pins {
            let _ = write!(meta, ",\"{k}\":\"{v}\"");
        }
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{w}-seed{}.trace.jsonl", opts.seed));
        let text = tracer.to_jsonl(&meta, &UNMEASURED);
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
            Ok(()) => println!("trace {w} {}", path.display()),
            Err(e) => pass.fail(format!("writing {}: {e}", path.display())),
        }
        for (name, why) in UNMEASURED {
            println!("unmeasured {w} {name}: {why}");
        }
    } else {
        for (name, (v, unit)) in &pass.report {
            println!("metric {w} {name} {} {unit}", json_num(*v));
        }
        let values = [pass.setup_s, pass.wall_s, stats::peak_rss_mb()];
        for ((name, unit), v) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, v, unit));
        }
    }
    for (name, v, unit) in &metrics {
        println!("metric {w} {name} {} {unit}", json_num(*v));
    }
    println!("digest {w} {}", pass.digest);
    for (name, v, _) in &metrics {
        if !v.is_finite() {
            pass.fail(format!("metric {name} is not finite"));
        }
    }
    for f in &pass.failures {
        println!("failure {w} {f}");
    }
    let body = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        pass.failed == 0,
        pass.attempted.max(1),
        pass.failed
    );
    if pass.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics the binary prints.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let entries = json.matches("\"name\": ").count();
        assert_eq!(
            entries,
            3 + END_TO_END.len() + PER_LAYER.len(),
            "3 workloads + metrics"
        );
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
    }
}
