//! # flame — featherweight soft error resilience for GPUs
//!
//! A from-scratch Rust reproduction of *Featherweight Soft Error
//! Resilience for GPUs* (Zhang & Jung, MICRO 2022). Flame protects the
//! GPU pipeline against radiation-induced soft errors with near-zero
//! performance overhead by combining:
//!
//! * **acoustic-sensor error detection** — a mesh of particle-strike
//!   detectors per SM bounds the worst-case detection latency (WCDL) at
//!   ~20 cycles for < 0.1 % area ([`sensors`]);
//! * **idempotent recovery** — the compiler partitions kernels into
//!   regions free of uncovered anti-dependences, so any region can simply
//!   re-execute after an error ([`compiler`]);
//! * **WCDL-aware warp scheduling** — a warp reaching a region boundary
//!   is descheduled into the *region boundary queue* exactly as if the
//!   boundary were a long-latency instruction, hiding the verification
//!   delay behind GPU warp-level parallelism; the *recovery PC table*
//!   remembers where each warp must roll back ([`core`]).
//!
//! The reproduction includes a cycle-level SIMT GPU simulator
//! ([`sim`] — the substrate the paper gets from GPGPU-Sim), the 34
//! benchmark workloads of the paper's Table I ([`workloads`]), and an
//! experiment harness regenerating every table and figure (crate
//! `flame-bench`).
//!
//! ## Quickstart
//!
//! ```
//! use flame::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Run a Table-I workload under full Flame protection.
//! let lud = flame::workloads::by_abbr("LUD").expect("known workload");
//! let cfg = ExperimentConfig::default(); // GTX480, GTO, WCDL = 20
//! let baseline = run_scheme(&lud, Scheme::Baseline, &cfg)?;
//! let protected = run_scheme(&lud, Scheme::SensorRenaming, &cfg)?;
//! assert!(protected.output_ok);
//! let overhead = protected.stats.cycles as f64 / baseline.stats.cycles as f64;
//! assert!(overhead < 1.10); // near-zero overhead
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

/// The cycle-level SIMT GPU simulator substrate (re-export of `gpu-sim`).
pub mod sim {
    pub use gpu_sim::*;
}

/// The Flame compiler passes (re-export of `flame-compiler`).
pub mod compiler {
    pub use flame_compiler::*;
}

/// Acoustic sensing and fault injection (re-export of `flame-sensors`).
pub mod sensors {
    pub use flame_sensors::*;
}

/// The Flame runtime: RBQ, RPT, schemes and experiment drivers
/// (re-export of `flame-core`).
pub mod core {
    pub use flame_core::*;
}

/// The paper's 34-benchmark suite (re-export of `flame-workloads`).
pub mod workloads {
    pub use flame_workloads::*;
}

/// The timing-free architectural reference executor (re-export of
/// `flame-oracle`): the golden model the conformance suite, the kernel
/// fuzzer and the SDC classification compare against.
pub mod oracle {
    pub use flame_oracle::*;
}

/// Cycle-level event tracing, stall attribution and Chrome-trace export
/// (re-export of `flame-trace`). Capture with
/// [`crate::core::run_with_protocol`] (set [`crate::core::RunOptions`]
/// `trace`) or the `flame-bench` `trace` binary; tracing is zero-cost
/// when disabled and never perturbs the statistics.
pub mod trace {
    pub use flame_trace::*;
}

/// The campaign-as-a-service HTTP backend (re-export of `flame-serve`):
/// submit campaigns over HTTP, stream partial histograms as NDJSON, and
/// resume interrupted campaigns from their journal directories after a
/// crash or restart. Run it with the `flame-bench` `serve` binary.
pub mod serve {
    pub use flame_serve::*;
}

/// The most common imports for running experiments.
pub mod prelude {
    pub use flame_core::experiment::{
        geomean, normalized_time, run_scheme, run_with_protocol, ExperimentConfig, ProtocolConfig,
        RunOptions, WorkloadSpec,
    };
    pub use flame_core::scheme::Scheme;
    pub use flame_core::{FlameUnit, Rbq, Rpt, VerificationMode};
    pub use flame_sensors::{sensors_for_wcdl, FaultRates, SensorMesh, StrikeGenerator};
    pub use gpu_sim::builder::KernelBuilder;
    pub use gpu_sim::config::GpuConfig;
    pub use gpu_sim::scheduler::SchedulerKind;
    pub use gpu_sim::sm::LaunchDims;
}

/// The README's code, compiled and run as doctests so an API change
/// cannot silently break the documentation.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
pub struct ReadmeDoctests;

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let cfg = ExperimentConfig::default();
        assert_eq!(cfg.wcdl, 20);
        assert_eq!(cfg.gpu.name, "GTX480");
        assert_eq!(Scheme::SensorRenaming.name(), "Sensor+Renaming (Flame)");
    }

    #[test]
    fn workloads_reachable_through_facade() {
        assert_eq!(crate::workloads::all().len(), 34);
    }
}
