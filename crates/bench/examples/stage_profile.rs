//! Per-stage wall-clock breakdown of the simulator tick on the Fig. 6
//! evaluation (no Oracle) at a fixed isolation budget.
//!
//! ```text
//! cargo run --release --offline -p ws-bench --features stage-timing \
//!     --example stage_profile -- [isolation_cycles]
//! ```
//!
//! Runs on one worker so wall time equals simulation thread time, then
//! prints each tick stage's share of that wall time: the scoreboard
//! advance, fetch, issue, LSU, finalize, memory tick and fill
//! application (`gpu_sim::stage_time::StageTimes::rows`). The remainder
//! ("other") is dispatch, controllers, fast-forward probes and the
//! harness. Reading the clock around every stage costs time of its own,
//! so the shares are a profile, not a throughput figure.

use std::time::Instant;

use warped_slicer::RunConfig;
use ws_bench::experiments::fig6;
use ws_bench::ExperimentContext;

fn main() {
    let cycles: u64 = std::env::args()
        .nth(1)
        .map_or(10_000, |a| a.parse().expect("isolation cycles: an integer"));
    let cfg = RunConfig {
        isolation_cycles: cycles,
        fast_forward: Some(true),
        ..RunConfig::default()
    };
    let start = Instant::now();
    {
        let ctx = ExperimentContext::with_pool(cfg, ws_exec::Pool::new(1));
        let data = fig6::compute(&ctx, false);
        assert_eq!(data.pairs.len(), 30, "Fig. 6 evaluates 30 pairs");
    }
    let wall_ns = start.elapsed().as_nanos() as f64;
    let times = gpu_sim::stage_time::totals();
    let ticks = times.sm_ticks.max(1) as f64;
    println!(
        "fig6 (no Oracle), {cycles} isolation cycles, 1 worker, ~{:.3e} SM ticks",
        times.sm_ticks as f64
    );
    println!(
        "{:<12} {:>10} {:>8} {:>12}",
        "stage", "seconds", "% wall", "ns/SM tick"
    );
    let mut staged = 0.0;
    for (name, ns) in times.rows() {
        let ns = ns as f64;
        staged += ns;
        println!(
            "{name:<12} {:>10.3} {:>7.1}% {:>12.1}",
            ns * 1e-9,
            100.0 * ns / wall_ns,
            ns / ticks
        );
    }
    let other = wall_ns - staged;
    println!(
        "{:<12} {:>10.3} {:>7.1}%",
        "other",
        other * 1e-9,
        100.0 * other / wall_ns
    );
    println!("{:<12} {:>10.3}", "wall", wall_ns * 1e-9);
}
