//! Simulator configuration.
//!
//! [`GpuConfig`] mirrors Table I of the Warped-Slicer paper (the GPGPU-Sim
//! v3.2.2 baseline the authors used), plus the "large" configuration from the
//! sensitivity study in Section V-H.

/// Per-SM resource capacities and pipeline parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SmConfig {
    /// Maximum resident threads per SM (Table I: 1536).
    pub max_threads: u32,
    /// Number of 32-bit registers in the register file (Table I: 32768).
    pub max_registers: u32,
    /// Maximum resident CTAs (thread blocks) per SM (Table I: 8).
    pub max_ctas: u32,
    /// Shared memory capacity in bytes (Table I: 48 KB).
    pub shared_mem_bytes: u32,
    /// Number of warp schedulers per SM (Table I: 2).
    pub num_schedulers: u32,
    /// SIMT lane width per scheduler (Table I: 16x2). A 32-thread warp
    /// therefore occupies an ALU for `32 / simt_width` cycles.
    pub simt_width: u32,
    /// Number of SFU lanes per scheduler. A warp occupies an SFU for
    /// `32 / sfu_width` cycles.
    pub sfu_width: u32,
    /// Number of LSU address lanes per scheduler: one fully coalesced
    /// 32-thread access occupies the LSU for `32 / lsu_width` cycles, plus
    /// one cycle per extra memory transaction.
    pub lsu_width: u32,
    /// ALU result latency in cycles (issue to operand-ready).
    pub alu_latency: u32,
    /// SFU result latency in cycles.
    pub sfu_latency: u32,
    /// Shared-memory access latency in cycles.
    pub shmem_latency: u32,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: u32,
    /// Decoded-instruction buffer entries per warp.
    pub ibuffer_entries: u32,
    /// Cycles to fetch+decode one instruction into the i-buffer on an
    /// i-cache hit.
    pub fetch_latency: u32,
    /// Extra penalty cycles for an instruction-cache miss.
    pub icache_miss_penalty: u32,
    /// Shared fetch-port width: instructions the SM front end can fetch
    /// per cycle across all warps. Fetch-hungry kernels (large bodies,
    /// i-cache misses) saturate this and show i-buffer-empty stalls.
    pub fetch_width: u32,
}

impl SmConfig {
    /// Warp size in threads. Fixed at 32, as in all NVIDIA generations the
    /// paper models.
    pub const WARP_SIZE: u32 = 32;

    /// Maximum resident warps implied by the thread capacity.
    #[must_use]
    pub fn max_warps(&self) -> u32 {
        self.max_threads / Self::WARP_SIZE
    }

    /// The longest wait, in cycles, a warp sets itself at issue or fetch:
    /// an ALU, SFU, shared-memory or L1-hit result latency, or a fetch
    /// that misses the i-cache. Sizes the scoreboard's wait wheels
    /// ([`crate::WarpTable::new`]); longer waits (shared-memory bank
    /// conflicts) stay exact on a slower path.
    #[must_use]
    pub fn max_wait(&self) -> u32 {
        [
            self.alu_latency,
            self.sfu_latency,
            self.shmem_latency,
            self.l1_hit_latency,
            self.fetch_latency.saturating_add(self.icache_miss_penalty),
        ]
        .into_iter()
        .max()
        .unwrap_or(0)
    }
}

/// L1 data cache geometry (per SM).
#[derive(Debug, Clone, PartialEq)]
pub struct L1Config {
    /// Total capacity in bytes (Table I: 16 KB).
    pub size_bytes: u32,
    /// Associativity (Table I: 4-way).
    pub assoc: u32,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// Miss-status holding registers (Table I: 64).
    pub mshr_entries: u32,
    /// Maximum misses merged into a single MSHR entry.
    pub mshr_max_merged: u32,
}

/// L2 cache geometry. The L2 is banked: one bank (slice) per memory channel.
#[derive(Debug, Clone, PartialEq)]
pub struct L2Config {
    /// Capacity per memory-channel slice in bytes (Table I: 128 KB/channel).
    pub size_bytes_per_channel: u32,
    /// Associativity (Table I: 8-way).
    pub assoc: u32,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// Bank access latency in core cycles.
    pub latency: u32,
}

/// GDDR5 DRAM timing, in DRAM command-clock cycles (Table I: 924 MHz).
#[derive(Debug, Clone, PartialEq)]
pub struct DramTiming {
    /// CAS latency.
    pub t_cl: u32,
    /// Row precharge.
    pub t_rp: u32,
    /// Row cycle.
    pub t_rc: u32,
    /// Row active time.
    pub t_ras: u32,
    /// RAS-to-CAS delay.
    pub t_rcd: u32,
    /// Row-to-row activate delay (different banks).
    pub t_rrd: u32,
    /// Data-burst occupancy of the channel per 128-byte transaction.
    pub t_burst: u32,
}

/// Memory-subsystem configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MemConfig {
    /// Number of memory channels / memory controllers (Table I: 6).
    pub num_channels: u32,
    /// DRAM banks per channel.
    pub banks_per_channel: u32,
    /// DRAM row size in bytes (determines row-buffer hit behaviour).
    pub row_bytes: u32,
    /// GDDR5 timing parameters.
    pub timing: DramTiming,
    /// DRAM command clock in MHz (Table I: 924).
    pub dram_clock_mhz: u32,
    /// One-way interconnect latency between an SM and an L2 slice, in core
    /// cycles.
    pub icnt_latency: u32,
    /// Per-channel request-queue capacity; a full queue back-pressures L2.
    pub dram_queue_entries: u32,
}

/// Top-level GPU configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of SMs ("compute units", Table I: 16).
    pub num_sms: u32,
    /// Core clock in MHz (Table I: 1400).
    pub core_clock_mhz: u32,
    /// Per-SM configuration.
    pub sm: SmConfig,
    /// L1 data cache configuration.
    pub l1: L1Config,
    /// L2 cache configuration.
    pub l2: L2Config,
    /// Memory-subsystem configuration.
    pub mem: MemConfig,
}

impl GpuConfig {
    /// The ISCA 2016 baseline configuration (Table I).
    ///
    /// 16 SMs at 1400 MHz, SIMT width 16x2, 1536 threads / 32768 registers /
    /// 8 CTAs / 48 KB shared memory per SM, 16 KB 4-way L1 with 64 MSHRs,
    /// 128 KB/channel 8-way L2, 6 memory channels of FR-FCFS GDDR5.
    #[must_use]
    pub fn isca_baseline() -> Self {
        Self {
            num_sms: 16,
            core_clock_mhz: 1400,
            sm: SmConfig {
                max_threads: 1536,
                max_registers: 32768,
                max_ctas: 8,
                shared_mem_bytes: 48 * 1024,
                num_schedulers: 2,
                simt_width: 16,
                sfu_width: 4,
                lsu_width: 16,
                alu_latency: 10,
                sfu_latency: 20,
                shmem_latency: 24,
                l1_hit_latency: 28,
                ibuffer_entries: 2,
                fetch_latency: 2,
                icache_miss_penalty: 40,
                fetch_width: 6,
            },
            l1: L1Config {
                size_bytes: 16 * 1024,
                assoc: 4,
                line_bytes: 128,
                mshr_entries: 64,
                mshr_max_merged: 8,
            },
            l2: L2Config {
                size_bytes_per_channel: 128 * 1024,
                assoc: 8,
                line_bytes: 128,
                latency: 30,
            },
            mem: MemConfig {
                num_channels: 6,
                banks_per_channel: 8,
                row_bytes: 2048,
                timing: DramTiming {
                    t_cl: 12,
                    t_rp: 12,
                    t_rc: 40,
                    t_ras: 28,
                    t_rcd: 12,
                    t_rrd: 6,
                    t_burst: 4,
                },
                dram_clock_mhz: 924,
                icnt_latency: 8,
                dram_queue_entries: 32,
            },
        }
    }

    /// The "less contended" large configuration from Section V-H: 256 KB
    /// register file, 96 KB shared memory, 32 CTA slots and 64 warps per SM.
    #[must_use]
    pub fn large() -> Self {
        let mut cfg = Self::isca_baseline();
        cfg.sm.max_registers = 256 * 1024 / 4; // 256 KB of 32-bit registers
        cfg.sm.shared_mem_bytes = 96 * 1024;
        cfg.sm.max_ctas = 32;
        cfg.sm.max_threads = 64 * SmConfig::WARP_SIZE;
        cfg
    }

    /// Ratio of core-clock to DRAM-command-clock frequency, used to convert
    /// DRAM timings into core cycles.
    #[must_use]
    pub fn core_per_dram_clock(&self) -> f64 {
        f64::from(self.core_clock_mhz) / f64::from(self.mem.dram_clock_mhz)
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::isca_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_i() {
        let cfg = GpuConfig::isca_baseline();
        assert_eq!(cfg.num_sms, 16);
        assert_eq!(cfg.core_clock_mhz, 1400);
        assert_eq!(cfg.sm.max_threads, 1536);
        assert_eq!(cfg.sm.max_registers, 32768);
        assert_eq!(cfg.sm.max_ctas, 8);
        assert_eq!(cfg.sm.shared_mem_bytes, 48 * 1024);
        assert_eq!(cfg.sm.num_schedulers, 2);
        assert_eq!(cfg.l1.size_bytes, 16 * 1024);
        assert_eq!(cfg.l1.assoc, 4);
        assert_eq!(cfg.l1.mshr_entries, 64);
        assert_eq!(cfg.l2.size_bytes_per_channel, 128 * 1024);
        assert_eq!(cfg.l2.assoc, 8);
        assert_eq!(cfg.mem.num_channels, 6);
        assert_eq!(cfg.mem.dram_clock_mhz, 924);
        let t = &cfg.mem.timing;
        assert_eq!(
            (t.t_cl, t.t_rp, t.t_rc, t.t_ras, t.t_rcd, t.t_rrd),
            (12, 12, 40, 28, 12, 6)
        );
    }

    #[test]
    fn baseline_warp_capacity() {
        let cfg = GpuConfig::isca_baseline();
        assert_eq!(cfg.sm.max_warps(), 48);
    }

    #[test]
    fn large_config_matches_section_v_h() {
        let cfg = GpuConfig::large();
        assert_eq!(cfg.sm.max_registers * 4, 256 * 1024);
        assert_eq!(cfg.sm.shared_mem_bytes, 96 * 1024);
        assert_eq!(cfg.sm.max_ctas, 32);
        assert_eq!(cfg.sm.max_warps(), 64);
    }

    #[test]
    fn clock_ratio_is_core_over_dram() {
        let cfg = GpuConfig::isca_baseline();
        let ratio = cfg.core_per_dram_clock();
        assert!((ratio - 1400.0 / 924.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_baseline() {
        assert_eq!(GpuConfig::default(), GpuConfig::isca_baseline());
    }
}
