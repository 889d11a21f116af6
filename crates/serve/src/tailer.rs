//! Journal tailing: the incremental merge behind `GET
//! /campaigns/{id}/stream` and the `done/total` status counters.
//!
//! A tailer polls [`flame_core::merge_shards`] over a campaign's journal
//! directory and reports a fresh [`SummaryJson`] whenever new seeds have
//! landed. All journal-robustness rules apply unchanged — in particular
//! a torn final line (a worker killed mid-append) is ignored until its
//! seed is re-run, so a partial histogram only ever counts complete
//! records and converges to the exact merged result.

use flame_core::runner::{CampaignSpec, RunnerError};
use flame_core::{merge_shards, SummaryJson};
use std::path::PathBuf;

/// One observation of a campaign's journals.
#[derive(Debug, Clone, PartialEq)]
pub struct TailSnapshot {
    /// Seeds journaled so far.
    pub done: usize,
    /// Seeds the campaign will run in total.
    pub total: usize,
    /// Histogram/CI summary over the journaled records, against the
    /// clean baseline passed to [`JournalTailer::poll`] (`0` while the
    /// baseline is unknown: `mean_slowdown` stays `null`).
    pub summary: SummaryJson,
}

/// A polling tailer over one campaign's shard journals.
#[derive(Debug, Clone)]
pub struct JournalTailer {
    workload: String,
    spec: CampaignSpec,
    dir: PathBuf,
    shards: usize,
    last_done: Option<usize>,
}

impl JournalTailer {
    /// A tailer for the campaign journaling under `dir`.
    pub fn new(workload: &str, spec: &CampaignSpec, dir: PathBuf, shards: usize) -> JournalTailer {
        JournalTailer {
            workload: workload.to_string(),
            spec: spec.clone(),
            dir,
            shards,
            last_done: None,
        }
    }

    /// Re-merges the shard journals and returns a snapshot **iff** the
    /// completed-seed count changed since the last poll (always on the
    /// first). `clean_cycles` is the fault-free baseline when known.
    ///
    /// # Errors
    ///
    /// [`RunnerError::JournalMismatch`] when the directory's journals
    /// belong to a different spec, plus I/O errors.
    pub fn poll(&mut self, clean_cycles: u64) -> Result<Option<TailSnapshot>, RunnerError> {
        let (merged, missing) = merge_shards(
            &self.workload,
            &self.spec,
            &self.dir,
            self.shards,
            clean_cycles,
        )?;
        let done = merged.records.len();
        if self.last_done == Some(done) {
            return Ok(None);
        }
        self.last_done = Some(done);
        Ok(Some(TailSnapshot {
            done,
            total: done + missing.len(),
            summary: SummaryJson::from_summary(&merged),
        }))
    }
}
