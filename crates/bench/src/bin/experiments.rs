//! Regenerates the Warped-Slicer paper's tables and figures.
//!
//! ```text
//! experiments <artifact> [--cycles N] [--oracle] [--full]
//!
//! artifacts:
//!   table1 table2 table3 fig1 fig2 fig3a fig3b fig5 fig6 fig7 fig8 fig9
//!   fig10a fig10b energy large-config overhead ablation all
//! ```
//!
//! `--cycles N` sets the isolation budget (default 100000; the paper uses
//! 2M — shapes are stable across budgets). `--oracle` adds the exhaustive
//! Oracle search to fig6 (slow). `--full` makes the sensitivity sweeps use
//! all 30 pairs instead of the representative subset. `--csv DIR` also
//! writes machine-readable CSVs (fig3a/fig6/fig8) for external plotting.

use std::process::ExitCode;
use std::time::Instant;

use ws_bench::experiments::{
    ablation, energy, fig1, fig10, fig2, fig3, fig5, fig6, fig7, fig8, fig9, large_config,
    overhead, table1, table2, table3,
};
use ws_bench::ExperimentContext;
use ws_workloads::all_pairs;

struct Options {
    artifact: String,
    cycles: u64,
    oracle: bool,
    full: bool,
    csv_dir: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let artifact = args.next().ok_or_else(usage)?;
    let mut opts = Options {
        artifact,
        cycles: 100_000,
        oracle: false,
        full: false,
        csv_dir: None,
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--cycles" => {
                let v = args.next().ok_or("--cycles needs a value")?;
                opts.cycles = v.parse().map_err(|_| format!("bad cycle count: {v}"))?;
            }
            "--oracle" => opts.oracle = true,
            "--full" => opts.full = true,
            "--csv" => {
                let v = args.next().ok_or("--csv needs a directory")?;
                opts.csv_dir = Some(std::path::PathBuf::from(v));
            }
            other => return Err(format!("unknown flag: {other}\n{}", usage())),
        }
    }
    Ok(opts)
}

fn usage() -> String {
    "usage: experiments <table1|table2|table3|fig1|fig2|fig3a|fig3b|fig5|fig6|fig7|fig8|fig9|fig10a|fig10b|energy|large-config|overhead|ablation|all> [--cycles N] [--oracle] [--full] [--csv DIR]".to_string()
}

/// Runs `f`, then reports on stderr its wall-clock time and the number of
/// pool jobs it completed.
fn observe<T>(ctx: &ExperimentContext, label: &str, f: impl FnOnce(&ExperimentContext) -> T) -> T {
    let jobs_before = ctx.pool().jobs_completed();
    let start = Instant::now();
    let out = f(ctx);
    eprintln!(
        "[{label}: {} jobs in {:.2}s]",
        ctx.pool().jobs_completed() - jobs_before,
        start.elapsed().as_secs_f64()
    );
    out
}

fn need_fig6(
    ctx: &ExperimentContext,
    cache: &mut Option<fig6::Fig6Data>,
    oracle: bool,
) -> fig6::Fig6Data {
    if cache.is_none() {
        let label = if oracle {
            "fig6 (30 pairs x 4 policies + oracle)"
        } else {
            "fig6 (30 pairs x 4 policies)"
        };
        *cache = Some(observe(ctx, label, |c| fig6::compute(c, oracle)));
    }
    cache.clone().expect("just filled")
}

fn need_fig8(
    ctx: &ExperimentContext,
    cache: &mut Option<Vec<fig8::TripleResult>>,
) -> Vec<fig8::TripleResult> {
    if cache.is_none() {
        let label = "fig8 (15 triples x 4 policies)";
        *cache = Some(observe(ctx, label, fig8::compute));
    }
    cache.clone().expect("just filled")
}

fn write_csv(dir: &Option<std::path::PathBuf>, name: &str, contents: &str) {
    let Some(dir) = dir else { return };
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{name}.csv")), contents))
    {
        eprintln!("warning: failed to write {name}.csv: {e}");
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let ctx = ExperimentContext::new(opts.cycles);
    eprintln!(
        "[pool: {} worker thread(s); set {} to override]",
        ctx.pool().threads(),
        ws_exec::THREADS_ENV
    );
    let window = (opts.cycles / 8).max(2_000);
    let sweep_pairs = if opts.full {
        all_pairs()
    } else {
        fig10::subset_pairs()
    };

    let mut fig6_cache: Option<fig6::Fig6Data> = None;
    let mut fig8_cache: Option<Vec<fig8::TripleResult>> = None;

    let artifacts: Vec<&str> = if opts.artifact == "all" {
        vec![
            "table1",
            "table2",
            "fig1",
            "fig2",
            "fig3a",
            "fig3b",
            "fig5",
            "fig6",
            "table3",
            "fig7",
            "fig8",
            "fig9",
            "energy",
            "fig10a",
            "fig10b",
            "large-config",
            "overhead",
            "ablation",
        ]
    } else {
        vec![opts.artifact.as_str()]
    };

    for artifact in artifacts {
        match artifact {
            "table1" => println!("{}", table1::render(&ctx.cfg.gpu)),
            "table2" => println!(
                "{}",
                table2::render(&observe(&ctx, "table2", table2::compute))
            ),
            "fig1" => println!("{}", fig1::render(&observe(&ctx, "fig1", fig1::compute))),
            "fig2" => println!("{}", fig2::render(&fig2::compute())),
            "fig3a" => {
                let curves = observe(&ctx, "fig3a", |c| fig3::compute(c, window));
                write_csv(&opts.csv_dir, "fig3a", &fig3::csv(&curves));
                println!("{}", fig3::render(&curves));
            }
            "fig3b" => {
                let spots = observe(&ctx, "fig3b", |c| fig3::compute_sweet_spot(c, window));
                println!("{}", fig3::render_sweet_spot(&spots));
            }
            "fig5" => {
                let data = observe(&ctx, "fig5", |c| fig5::compute(c, 5_000, 10));
                println!("{}", fig5::render(&data, 5_000));
            }
            "fig6" => {
                let data = need_fig6(&ctx, &mut fig6_cache, opts.oracle);
                write_csv(&opts.csv_dir, "fig6", &fig6::csv(&data));
                println!("{}", fig6::render(&data));
            }
            "table3" => {
                let data = need_fig6(&ctx, &mut fig6_cache, opts.oracle);
                println!("{}", table3::render(&data, &ctx.cfg.gpu));
            }
            "fig7" => {
                let data = need_fig6(&ctx, &mut fig6_cache, opts.oracle);
                println!(
                    "{}",
                    fig7::render_utilization(&fig7::utilization_ratios(&data))
                );
                println!("{}", fig7::render_cache(&data));
                println!("{}", fig7::render_stalls(&data));
            }
            "fig8" => {
                let data = need_fig8(&ctx, &mut fig8_cache);
                write_csv(&opts.csv_dir, "fig8", &fig8::csv(&data));
                println!("{}", fig8::render(&data));
            }
            "fig9" => {
                let six = need_fig6(&ctx, &mut fig6_cache, opts.oracle);
                let eight = need_fig8(&ctx, &mut fig8_cache);
                let two = fig9::two_kernel(&ctx, &six);
                let three = fig9::three_kernel(&ctx, &eight);
                println!("{}", fig9::render(&two, &three));
            }
            "energy" => {
                let data = need_fig6(&ctx, &mut fig6_cache, opts.oracle);
                println!("{}", energy::render(&energy::compute(&data)));
            }
            "fig10a" => {
                let data = observe(&ctx, "fig10a", |c| fig10::compute_timing(c, &sweep_pairs));
                println!("{}", fig10::render_timing(&data));
            }
            "fig10b" => println!(
                "{}",
                fig10::render_schedulers(&observe(&ctx, "fig10b", |_| {
                    fig10::compute_schedulers(opts.cycles, &sweep_pairs)
                }))
            ),
            "large-config" => println!(
                "{}",
                large_config::render(&observe(&ctx, "large-config", |_| {
                    large_config::compute(opts.cycles, &sweep_pairs)
                }))
            ),
            "overhead" => println!("{}", overhead::render()),
            "ablation" => {
                let data = observe(&ctx, "ablation", |c| ablation::compute(c, &sweep_pairs));
                println!("{}", ablation::render(&data));
            }
            other => {
                eprintln!("unknown artifact: {other}\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
