//! Small numeric helpers: order statistics, a stable digest, host memory,
//! and the sums behind the modeled simulator counters.

use warped_slicer::AggregateStats;

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Latency samples in log-spaced buckets 0.1% wide, from 1 ns to 100 s.
/// Memory stays fixed however many samples a run records, so a faster host
/// making more arrivals does not raise the peak RSS the benchmark reports.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    len: u64,
}

/// Bucket growth factor of [`Histogram`].
const BUCKET_GROWTH: f64 = 1.001;
/// Buckets needed to reach 100 s (1e11 ns).
const BUCKETS: usize = 25_400;

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            len: 0,
        }
    }
}

impl Histogram {
    /// Records one sample, in seconds.
    pub fn record(&mut self, secs: f64) {
        let ns = (secs * 1e9).max(1.0);
        let i = (ns.ln() / BUCKET_GROWTH.ln()) as usize;
        self.counts[i.min(BUCKETS - 1)] += 1;
        self.len += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// The `q`-quantile by nearest rank, in seconds (the bucket's
    /// geometric midpoint); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        let rank = ((q * self.len as f64).ceil() as u64).clamp(1, self.len);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return BUCKET_GROWTH.powf(i as f64 + 0.5) * 1e-9;
            }
        }
        0.0
    }
}

/// FNV-1a 64-bit over a byte stream: stable across runs, hosts and builds,
/// so two commits' simulated outputs compare by one number.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn add(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds the `Debug` rendering of `value`. Rust renders `f64` with
    /// shortest round-trip digits, so equal renderings mean equal bits.
    pub fn add_debug(&mut self, value: &impl std::fmt::Debug) {
        self.add(format!("{value:?}").as_bytes());
        self.add(b"\n");
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The simulated counters of a set of runs, summed before the ratios are
/// taken: `(cycles, insts, [(metric name, value); 6])` for the modeled
/// `gpu_sim` counters (cache miss rates, DRAM busy share weighted by
/// cycles, stall shares of scheduler-cycles).
pub fn modeled_counters<'a>(
    stats: impl IntoIterator<Item = &'a AggregateStats>,
) -> (u64, u64, [(&'static str, f64); 6]) {
    let (mut l1a, mut l1m, mut l2a, mut l2m) = (0u64, 0u64, 0u64, 0u64);
    let (mut cycles, mut insts, mut sched) = (0u64, 0u64, 0u64);
    let (mut dram, mut mem, mut raw, mut idle) = (0.0f64, 0u64, 0u64, 0u64);
    for s in stats {
        l1a += s.cache.l1_accesses;
        l1m += s.cache.l1_misses;
        l2a += s.cache.l2_accesses;
        l2m += s.cache.l2_misses;
        cycles += s.cycles;
        insts += s.insts;
        sched += s.sched_cycles;
        dram += s.dram_busy * s.cycles as f64;
        mem += s.stalls.mem;
        raw += s.stalls.raw;
        idle += s.stalls.idle;
    }
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let counters = [
        ("gpu_sim.l1_miss_rate", ratio(l1m, l1a)),
        ("gpu_sim.l2_miss_rate", ratio(l2m, l2a)),
        ("gpu_sim.dram_busy", dram / cycles.max(1) as f64),
        ("gpu_sim.stall_mem_frac", ratio(mem, sched)),
        ("gpu_sim.stall_raw_frac", ratio(raw, sched)),
        ("gpu_sim.stall_idle_frac", ratio(idle, sched)),
    ];
    (cycles, insts, counters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_quantiles_within_bucket_width() {
        let mut h = Histogram::default();
        for us in 1..=1000 {
            h.record(f64::from(us) * 1e-6);
        }
        assert_eq!(h.len(), 1000);
        for (q, want) in [(0.5, 500e-6), (0.99, 990e-6)] {
            let got = h.quantile(q);
            assert!((got / want - 1.0).abs() < 0.001, "q{q}: {got} vs {want}");
        }
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }
}
