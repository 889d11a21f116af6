//! # flame-serve — campaign-as-a-service HTTP backend
//!
//! The service layer over the crash-tolerant sharded campaign substrate
//! (`flame_core::shard`): a std-only, no-registry, long-running HTTP
//! server that turns a fault-injection campaign into one `POST` —
//! submit a [`spec::CampaignRequest`], watch partial outcome
//! histograms and Wilson CIs stream in as NDJSON while shard workers
//! journal seeds, and fetch a per-seed Chrome-trace artifact for any
//! SDC/DUE hit.
//!
//! Durability is inherited rather than invented: a campaign's only
//! state is its spec-fingerprinted journal directory, so a SIGKILLed
//! server restarted on the same data directory rediscovers every
//! campaign ([`registry::Registry::rediscover`]) and resumes the
//! incomplete ones from their shard journals — the final histogram is
//! bit-identical to an uninterrupted serial run of the same spec.
//!
//! Everything is hand-rolled on `std` (HTTP/1.1 in [`http`], signals in
//! [`shutdown`]; JSON through the workspace's one codec,
//! [`flame_trace::json`]), keeping the workspace's no-external-dependencies
//! constraint.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod catalog;
pub mod client;
pub mod http;
pub mod metrics;
pub mod registry;
pub mod server;
pub mod shutdown;
pub mod spec;
pub mod tailer;

pub use catalog::catalog_json;
pub use flame_trace::json::JsonValue;
pub use metrics::Metrics;
pub use registry::{CampaignEntry, CampaignState, Registry, RunSettings};
pub use server::serve;
pub use spec::{parse_campaign_request, CampaignRequest};
pub use tailer::{JournalTailer, TailSnapshot};
