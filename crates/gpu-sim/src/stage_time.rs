//! Per-stage wall-clock profile of the simulator tick.
//!
//! Compiled in only with the off-by-default `stage-timing` Cargo feature;
//! without it `stage_timed!` expands to its body and no clock is ever
//! read. With it, every SM times its scoreboard advance and its fetch,
//! issue, LSU and finalize stages, and the GPU times the memory-subsystem
//! tick and the per-SM fill application. The times land in a [`StageClock`] kept apart
//! from `SmStats`/`MemStats` and print as a constant in `Debug`, so no
//! statistic or fingerprint depends on them. A clock adds its times to
//! process-wide totals when it is dropped; read them with [`totals`] after
//! the simulations end.
//!
//! A stage takes tens of nanoseconds, about what one clock reading costs,
//! so timing every cycle would mostly measure the clock. Only cycles that
//! are a multiple of [`STRIDE`] (a prime, so the samples do not lock onto
//! the simulator's power-of-two periods) are timed; each sample has the
//! clock's calibrated reading cost subtracted and is scaled by `STRIDE`.
//!
//! ```text
//! cargo run --release --offline -p ws-bench --features stage-timing --example stage_profile
//! ```

/// Accumulated wall-clock nanoseconds per tick stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// `WarpTable::advance` at the top of `Sm::tick`: draining the wait
    /// wheels of the cycles passed.
    pub scoreboard_ns: u64,
    /// `Sm::fetch_stage`.
    pub fetch_ns: u64,
    /// `Sm::issue_stage`, including the dispatch into functional units.
    pub issue_ns: u64,
    /// `Sm::lsu_stage`: L1 probes, MSHR registration, request submission.
    pub lsu_ns: u64,
    /// `Sm::finalize_warps`: CTA retirement.
    pub finalize_ns: u64,
    /// `MemSubsystem::tick`: interconnect, L2 slices and DRAM channels.
    pub mem_tick_ns: u64,
    /// Grouping this cycle's fills by SM and `Sm::on_fill_batch`.
    pub fill_apply_ns: u64,
    /// SM ticks covered (sampled ticks times `STRIDE`).
    pub sm_ticks: u64,
}

/// Cycles between timed samples.
pub const STRIDE: u64 = 61;

impl StageTimes {
    /// Adds `other` field by field (saturating, so it cannot panic inside
    /// a `Drop`).
    #[cfg(feature = "stage-timing")]
    fn add(&mut self, other: &Self) {
        self.scoreboard_ns = self.scoreboard_ns.saturating_add(other.scoreboard_ns);
        self.fetch_ns = self.fetch_ns.saturating_add(other.fetch_ns);
        self.issue_ns = self.issue_ns.saturating_add(other.issue_ns);
        self.lsu_ns = self.lsu_ns.saturating_add(other.lsu_ns);
        self.finalize_ns = self.finalize_ns.saturating_add(other.finalize_ns);
        self.mem_tick_ns = self.mem_tick_ns.saturating_add(other.mem_tick_ns);
        self.fill_apply_ns = self.fill_apply_ns.saturating_add(other.fill_apply_ns);
        self.sm_ticks = self.sm_ticks.saturating_add(other.sm_ticks);
    }

    /// `(stage name, nanoseconds)` in tick order.
    #[must_use]
    pub fn rows(&self) -> [(&'static str, u64); 7] {
        [
            ("scoreboard", self.scoreboard_ns),
            ("fetch", self.fetch_ns),
            ("issue", self.issue_ns),
            ("lsu", self.lsu_ns),
            ("finalize", self.finalize_ns),
            ("mem_tick", self.mem_tick_ns),
            ("fill_apply", self.fill_apply_ns),
        ]
    }
}

/// One component's stage times. Its `Debug` output is constant, so
/// fingerprints of a `Gpu` or `Sm` do not depend on the wall clock; on
/// drop it adds its times to the process totals.
#[cfg(feature = "stage-timing")]
#[derive(Default)]
pub(crate) struct StageClock(pub(crate) StageTimes);

#[cfg(feature = "stage-timing")]
impl std::fmt::Debug for StageClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StageClock")
    }
}

#[cfg(feature = "stage-timing")]
static TOTALS: std::sync::Mutex<StageTimes> = std::sync::Mutex::new(StageTimes {
    scoreboard_ns: 0,
    fetch_ns: 0,
    issue_ns: 0,
    lsu_ns: 0,
    finalize_ns: 0,
    mem_tick_ns: 0,
    fill_apply_ns: 0,
    sm_ticks: 0,
});

/// Cost of one back-to-back clock reading pair, measured once per process
/// (median of 1001 pairs).
#[cfg(feature = "stage-timing")]
fn reading_cost_ns() -> u64 {
    static COST: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *COST.get_or_init(|| {
        let mut pairs = [0u128; 1001];
        for p in &mut pairs {
            // Profiling only; xtask-allow: determinism
            let start = std::time::Instant::now();
            *p = start.elapsed().as_nanos();
        }
        pairs.sort_unstable();
        u64::try_from(pairs[500]).unwrap_or(0)
    })
}

/// One sample's contribution: `start`'s elapsed time less the clock's own
/// reading cost, scaled by [`STRIDE`].
#[cfg(feature = "stage-timing")]
#[must_use]
pub(crate) fn sample_ns(start: std::time::Instant) -> u64 {
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    ns.saturating_sub(reading_cost_ns()).saturating_mul(STRIDE)
}

#[cfg(feature = "stage-timing")]
impl Drop for StageClock {
    fn drop(&mut self) {
        // `add` cannot panic, so a poisoned lock still holds valid totals.
        TOTALS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .add(&self.0);
    }
}

/// Stage times of every simulator component dropped in this process so
/// far.
#[cfg(feature = "stage-timing")]
#[must_use]
pub fn totals() -> StageTimes {
    *TOTALS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Evaluates `$body`; when the `stage-timing` feature is on and cycle
/// `$now` is a sampled one, adds its estimated duration to
/// `$clock.0.$field`. Expands to plain `$body` otherwise.
#[cfg(feature = "stage-timing")]
macro_rules! stage_timed {
    ($clock:expr, $now:expr, $field:ident, $body:expr) => {{
        if $now.is_multiple_of($crate::stage_time::STRIDE) {
            // Profiling only: the reading goes to a StageClock, never into
            // simulated state or statistics; xtask-allow: determinism
            let start = ::std::time::Instant::now();
            let out = $body;
            $clock.0.$field = $clock
                .0
                .$field
                .saturating_add($crate::stage_time::sample_ns(start));
            out
        } else {
            $body
        }
    }};
}

/// Evaluates `$body`; when the `stage-timing` feature is on and cycle
/// `$now` is a sampled one, adds its estimated duration to
/// `$clock.0.$field`. Expands to plain `$body` otherwise.
#[cfg(not(feature = "stage-timing"))]
macro_rules! stage_timed {
    ($clock:expr, $now:expr, $field:ident, $body:expr) => {
        $body
    };
}

pub(crate) use stage_timed;

#[cfg(all(test, feature = "stage-timing"))]
mod tests {
    use crate::{AccessPattern, Gpu, GpuConfig, KernelDesc, ProgramSpec, SchedulerKind};

    fn run() -> String {
        let mut gpu = Gpu::new(GpuConfig::isca_baseline(), SchedulerKind::GreedyThenOldest);
        let k = gpu.add_kernel(KernelDesc {
            name: "t".into(),
            grid_ctas: 32,
            threads_per_cta: 128,
            regs_per_thread: 16,
            shmem_per_cta: 0,
            program: ProgramSpec::default().generate(),
            iterations: 4,
            pattern: AccessPattern::Streaming { transactions: 1 },
            icache_miss_rate: 0.0,
            shmem_conflict_degree: 1,
            seed: 1,
        });
        for sm in 0..4 {
            while gpu.try_launch(k, sm) {}
        }
        gpu.run(3_000);
        format!("{gpu:?}")
    }

    #[test]
    fn times_accumulate_without_reaching_the_fingerprint() {
        let (a, b) = (run(), run());
        assert_eq!(a, b, "wall-clock readings must not reach Debug output");
        let t = super::totals();
        assert!(t.sm_ticks > 0, "dropped GPUs flush their sampled ticks");
        assert!(
            t.rows().iter().any(|&(_, ns)| ns > 0),
            "sampled stages accumulate time: {t:?}"
        );
    }
}
