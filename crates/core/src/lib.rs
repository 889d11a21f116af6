//! # flame-core — the Flame runtime and experiment driver
//!
//! The hardware half of the Flame co-design (*Featherweight Soft Error
//! Resilience for GPUs*, MICRO 2022), reproduced on the `gpu-sim`
//! substrate:
//!
//! * [`rbq`] — the Region Boundary Queue, Flame's *verification
//!   conveyor*: warps descheduled at region boundaries emerge verified
//!   WCDL cycles later (§III-D2);
//! * [`rpt`] — the Recovery PC Table holding every warp's rollback point
//!   (§III-D1);
//! * [`runtime`] — the per-SM attachment implementing WCDL-aware warp
//!   scheduling by treating boundaries like long-latency instructions
//!   (§III-C), plus the naive stall ablation;
//! * [`scheme`] — the evaluated scheme taxonomy (§VI-B1): Flame,
//!   Sensor+Checkpointing, recovery-only, SwapCodes duplication and
//!   tail-DMR hybrids;
//! * [`experiment`] — the fault-free driver and the one protocol driver
//!   for runs under strikes or with tracing: the end-to-end detect →
//!   rollback → re-execute protocol;
//! * [`matrix`] — the parallel experiment-matrix engine fanning
//!   independent `(workload, scheme, config)` cells across scoped worker
//!   threads, with per-matrix baseline memoization;
//! * [`runner`] — the campaign engine: one seed loop with a JSONL
//!   journal, resume, per-seed retry/backoff and poison-seed
//!   quarantine, run serially over the whole seed range, with the
//!   process's last clean baseline memoized across campaigns;
//! * [`shard`] — the crash-tolerant sharded campaign supervisor: the
//!   same seed loop over lease-claimed seed shards, stale-lease
//!   reclamation with epoch fencing, and a deterministic merge of the
//!   shard journals back into one summary;
//! * [`report`] — hardware-cost and region-size reporting (§VI-A, §IV).
//!
//! ```
//! use flame_core::experiment::{run_scheme, ExperimentConfig, WorkloadSpec};
//! use flame_core::scheme::Scheme;
//! use gpu_sim::builder::KernelBuilder;
//! use gpu_sim::isa::{MemSpace, Special};
//! use gpu_sim::sm::LaunchDims;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = KernelBuilder::new("incr");
//! let tid = b.special(Special::TidX);
//! let a = b.imul(tid, 8);
//! let v = b.ld_arr(MemSpace::Global, 0, a, 0);
//! let w = b.iadd(v, 1);
//! b.st_arr(MemSpace::Global, 0, a, w, 0);
//! b.exit();
//! let workload = WorkloadSpec {
//!     name: "increment",
//!     abbr: "INC",
//!     suite: "demo",
//!     kernel: b.finish(),
//!     dims: LaunchDims::linear(1, 64),
//!     init: Arc::new(|_| {}),
//!     check: Arc::new(|m| (0..64).all(|t| m.read(t * 8) == 1)),
//! };
//! let result = run_scheme(&workload, Scheme::SensorRenaming, &ExperimentConfig::default())?;
//! assert!(result.output_ok);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod experiment;
pub mod matrix;
pub mod rbq;
pub mod report;
pub mod rpt;
pub mod runner;
pub mod runtime;
pub mod scheme;
pub mod shard;

pub use campaign::{classify, Campaign, Outcome};
pub use experiment::{
    geomean, normalized_time, run_scheme, run_with_protocol, ExperimentConfig, ExperimentError,
    FaultProtocolResult, ForkTelemetry, ProtocolConfig, RunOptions, RunResult, WorkloadSpec,
};
pub use matrix::{run_matrix_with_jobs, CellResult, MatrixCell};
pub use rbq::Rbq;
pub use report::{OutcomeStat, SummaryJson};
pub use rpt::Rpt;
pub use runner::{
    clean_baseline, run_campaign_runner_with_jobs, run_one_seed, run_one_seed_retrying,
    strikes_for_seed, trace_one_seed, wilson_interval, Baseline, CampaignSpec, CampaignSummary,
    RetryPolicy, RunRecord, RunnerError, SelfFault,
};
pub use runtime::{FlameUnit, VerificationMode};
pub use scheme::Scheme;
pub use shard::{
    merge_shards, run_shard_worker, run_sharded_campaign, ShardClaim, ShardOptions, ShardPlan,
    WorkerReport,
};
