//! # flame-trace — cycle-level tracing for the flame-rs simulator
//!
//! A zero-cost-when-disabled observability subsystem: the simulator emits
//! cycle-stamped [`Event`]s through a [`Tracer`] wherever it also updates
//! its statistics counters, and this crate records, aggregates and
//! exports them.
//!
//! The design has three layers:
//!
//! * **Event model** ([`event`]) — warp issue/retire, issue-stalls with
//!   their cause, region-boundary enter/verify/commit, RBQ
//!   enqueue/dequeue with occupancy (Flame's WCDL deschedule/re-ready),
//!   memory-request lifecycle, CTA launch/drain and the fault harness's
//!   strike → detect → rollback arc.
//! * **Recorder** ([`record`]) — a [`Tracer`] holding an optional boxed
//!   [`TraceBuffer`]; when disabled (the default) every emission is a
//!   single never-taken branch, so the hot path stays within noise of the
//!   untraced simulator and `SimStats` is bit-identical either way. The
//!   buffer is a bounded ring (old events are evicted, never the run
//!   aborted) feeding *streaming* aggregators — per-scheduler stall
//!   attribution that sums exactly to the simulator's `StallStats`, plus
//!   histograms for RBQ occupancy and region-verification latency — which
//!   stay exact even after ring eviction.
//! * **Export** ([`export`]) — the merged whole-GPU [`SimTrace`] renders
//!   as Chrome-tracing/Perfetto JSON (one track per SM/scheduler/warp), a
//!   flat CSV of per-region records and a human-readable stall-breakdown
//!   table. A dependency-free JSON validator backs the smoke tests.
//!
//! The crate is deliberately dependency-free (it sits *below* `gpu-sim`
//! in the workspace graph so the simulator itself can emit events).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod event;
pub mod export;
pub mod record;
pub mod trace;

pub use event::{Event, StallCause};
pub use export::{chrome_trace_json, region_csv, stall_table, validate_json};
pub use record::{
    Histogram, RegionRecord, StallMatrix, TraceBuffer, TraceRecord, Tracer, DEFAULT_CAPACITY,
};
pub use trace::{SimTrace, SmRecord, HARNESS_SM};
