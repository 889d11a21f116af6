//! GPU architecture configurations, including the four models evaluated in
//! the paper (GTX 480, TITAN X, GV 100, RTX 2060).
//!
//! Microarchitectural parameters follow the respective generations
//! (Fermi/Maxwell/Volta/Turing) at the fidelity the timing model needs.
//! `sm_area_mm2` is calibrated so that the analytic acoustic-sensor model
//! in `flame-sensors` reproduces the paper's Table II anchor points (e.g.
//! 200 sensors/SM → 20-cycle WCDL on the GTX 480) — the paper likewise
//! derived SM areas from die-shot measurements.

/// Instruction latencies in core cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Simple integer ALU (add/sub/logic/shift/compare/select/mov).
    pub ialu: u64,
    /// Integer multiply / multiply-add.
    pub imul: u64,
    /// Integer divide / remainder (SFU class).
    pub idiv: u64,
    /// `f32` add/sub/mul/fma/min/max and conversions.
    pub falu: u64,
    /// `f32` divide/sqrt/exp (SFU class).
    pub fsfu: u64,
    /// Shared-memory access (conflict-free).
    pub shared: u64,
    /// Global load hitting in L1.
    pub l1_hit: u64,
    /// Global access hitting in L2 (L1 miss).
    pub l2_hit: u64,
    /// DRAM access (L2 miss).
    pub dram: u64,
    /// Shared-memory atomic (before serialization).
    pub atom_shared: u64,
    /// Global atomic (performed at L2, before serialization).
    pub atom_global: u64,
}

impl Default for LatencyConfig {
    fn default() -> LatencyConfig {
        LatencyConfig {
            ialu: 4,
            imul: 6,
            idiv: 20,
            falu: 4,
            fsfu: 16,
            shared: 24,
            l1_hit: 28,
            l2_hit: 120,
            dram: 350,
            atom_shared: 28,
            atom_global: 160,
        }
    }
}

/// A GPU model: SM count, per-SM resources, memory hierarchy and clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Marketing name (used in reports).
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Core clock in MHz (used by the sensor model to convert WCDL time
    /// into cycles).
    pub core_clock_mhz: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// Maximum resident CTAs per SM.
    pub max_ctas_per_sm: usize,
    /// Warp schedulers per SM (each issues one instruction per cycle).
    pub schedulers_per_sm: usize,
    /// Register file size per SM, in 64-bit registers.
    pub regfile_per_sm: u32,
    /// Architectural limit on registers per thread.
    pub max_regs_per_thread: u32,
    /// Shared memory per SM in bytes.
    pub shared_per_sm: u32,
    /// L1 data cache size per SM in bytes.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L2 cache size (total) in bytes.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: usize,
    /// In-flight memory transactions per SM (MSHRs).
    pub mshrs_per_sm: usize,
    /// Instruction latencies.
    pub latency: LatencyConfig,
    /// SM logic area in mm² (pipeline logic the acoustic sensor mesh must
    /// cover; excludes the ECC-protected register file and caches).
    pub sm_area_mm2: f64,
    /// Device memory size in bytes for simulations.
    pub device_mem_bytes: u64,
    /// Event-driven clock: when no warp on the whole GPU can issue, jump
    /// the cycle counter straight to the next wakeup event (scoreboard
    /// completion, MSHR retirement, RBQ verification, scheduler unblock)
    /// instead of ticking through the dead cycles one by one, and let an
    /// SM that issued nothing sleep until its own next event while other
    /// SMs run. Pure wall-clock optimization — simulated cycle counts and
    /// every statistic are bit-identical either way (see `DESIGN.md`). On
    /// by default; turn it off to debug the per-cycle loop.
    pub fast_forward: bool,
}

impl GpuConfig {
    /// Nvidia GTX 480 (Fermi) — the paper's default platform.
    pub fn gtx480() -> GpuConfig {
        GpuConfig {
            name: "GTX480",
            num_sms: 16,
            core_clock_mhz: 700,
            max_warps_per_sm: 48,
            max_ctas_per_sm: 8,
            schedulers_per_sm: 2,
            regfile_per_sm: 32768,
            max_regs_per_thread: 63,
            shared_per_sm: 48 * 1024,
            l1_bytes: 16 * 1024,
            l1_ways: 4,
            l2_bytes: 768 * 1024,
            l2_ways: 8,
            mshrs_per_sm: 32,
            latency: LatencyConfig::default(),
            sm_area_mm2: 16.30,
            device_mem_bytes: 256 * 1024 * 1024,
            fast_forward: true,
        }
    }

    /// Nvidia TITAN X (Maxwell).
    pub fn titan_x() -> GpuConfig {
        GpuConfig {
            name: "TITAN X",
            num_sms: 24,
            core_clock_mhz: 1000,
            max_warps_per_sm: 64,
            max_ctas_per_sm: 32,
            schedulers_per_sm: 4,
            regfile_per_sm: 65536,
            max_regs_per_thread: 255,
            shared_per_sm: 96 * 1024,
            l1_bytes: 24 * 1024,
            l1_ways: 4,
            l2_bytes: 3 * 1024 * 1024,
            l2_ways: 16,
            mshrs_per_sm: 64,
            latency: LatencyConfig::default(),
            sm_area_mm2: 10.39,
            device_mem_bytes: 256 * 1024 * 1024,
            fast_forward: true,
        }
    }

    /// Nvidia GV 100 (Volta).
    pub fn gv100() -> GpuConfig {
        GpuConfig {
            name: "GV100",
            num_sms: 80,
            core_clock_mhz: 1136,
            max_warps_per_sm: 64,
            max_ctas_per_sm: 32,
            schedulers_per_sm: 4,
            regfile_per_sm: 65536,
            max_regs_per_thread: 255,
            shared_per_sm: 96 * 1024,
            l1_bytes: 128 * 1024,
            l1_ways: 8,
            l2_bytes: 6 * 1024 * 1024,
            l2_ways: 16,
            mshrs_per_sm: 64,
            latency: LatencyConfig::default(),
            sm_area_mm2: 3.95,
            device_mem_bytes: 256 * 1024 * 1024,
            fast_forward: true,
        }
    }

    /// Nvidia RTX 2060 (Turing) — the newest architecture in the paper's
    /// evaluation.
    pub fn rtx2060() -> GpuConfig {
        GpuConfig {
            name: "RTX2060",
            num_sms: 30,
            core_clock_mhz: 1365,
            max_warps_per_sm: 32,
            max_ctas_per_sm: 16,
            schedulers_per_sm: 4,
            regfile_per_sm: 65536,
            max_regs_per_thread: 255,
            shared_per_sm: 64 * 1024,
            l1_bytes: 64 * 1024,
            l1_ways: 8,
            l2_bytes: 3 * 1024 * 1024,
            l2_ways: 16,
            mshrs_per_sm: 64,
            latency: LatencyConfig::default(),
            sm_area_mm2: 5.31,
            device_mem_bytes: 256 * 1024 * 1024,
            fast_forward: true,
        }
    }

    /// The four architectures of the paper's Figure 19 / Table II, GTX 480
    /// first (the default platform).
    pub fn paper_architectures() -> Vec<GpuConfig> {
        vec![
            GpuConfig::gtx480(),
            GpuConfig::titan_x(),
            GpuConfig::gv100(),
            GpuConfig::rtx2060(),
        ]
    }

    /// The paper architecture named `name`, case-insensitively.
    pub fn by_name(name: &str) -> Option<GpuConfig> {
        GpuConfig::paper_architectures()
            .into_iter()
            .find(|g| g.name.eq_ignore_ascii_case(name))
    }

    /// Core clock period in nanoseconds.
    pub fn clock_period_ns(&self) -> f64 {
        1000.0 / f64::from(self.core_clock_mhz)
    }
}

impl Default for GpuConfig {
    fn default() -> GpuConfig {
        GpuConfig::gtx480()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_table2_inputs() {
        let g = GpuConfig::gtx480();
        assert_eq!(g.core_clock_mhz, 700);
        assert_eq!(g.num_sms, 16);
        let r = GpuConfig::rtx2060();
        assert_eq!(r.core_clock_mhz, 1365);
        assert_eq!(r.num_sms, 30);
        let v = GpuConfig::gv100();
        assert_eq!(v.core_clock_mhz, 1136);
        assert_eq!(v.num_sms, 80);
        let t = GpuConfig::titan_x();
        assert_eq!(t.core_clock_mhz, 1000);
        assert_eq!(t.num_sms, 24);
    }

    #[test]
    fn clock_period() {
        let g = GpuConfig::gtx480();
        assert!((g.clock_period_ns() - 1.42857).abs() < 1e-4);
    }

    #[test]
    fn default_is_gtx480() {
        assert_eq!(GpuConfig::default().name, "GTX480");
    }

    #[test]
    fn hot_path_knobs_default_on_serial() {
        for g in GpuConfig::paper_architectures() {
            assert!(g.fast_forward, "{}: fast-forward should default on", g.name);
        }
    }

    #[test]
    fn four_paper_architectures() {
        let archs = GpuConfig::paper_architectures();
        assert_eq!(archs.len(), 4);
        assert_eq!(archs[0].name, "GTX480");
    }
}
