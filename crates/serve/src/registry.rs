//! The campaign registry: every campaign the server knows, its
//! lifecycle, the runner-thread pool executing queued campaigns, and
//! the startup rediscovery that makes the whole service crash-tolerant.
//!
//! There is deliberately **no** registry persistence of its own: a
//! campaign's durable state is exactly its spec-fingerprinted journal
//! directory (`camp-<id>/spec.json` + `shard-*.jsonl` + leases). A
//! SIGKILLed server restarted on the same data directory rediscovers
//! every campaign from disk — complete ones serve their merged summary,
//! incomplete ones are re-queued and resume from their shard journals,
//! the same story the crash drill pins one layer down.

use crate::metrics::Metrics;
use crate::spec::{load_campaign_dir, CampaignRequest};
use crate::tailer::JournalTailer;
use flame_core::runner::RunnerError;
use flame_core::shard::DEFAULT_LEASE_TTL;
use flame_core::{clean_baseline, merge_shards, run_sharded_campaign, ShardOptions, SummaryJson};
use flame_trace::json::json_escape;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Where a campaign is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignState {
    /// Waiting for a runner thread.
    Queued,
    /// Executing on a runner thread.
    Running,
    /// All seeds journaled and merged.
    Complete,
    /// Ended in an error (message attached).
    Failed(String),
    /// Stopped by graceful shutdown mid-campaign; resumes on restart.
    Interrupted,
}

impl CampaignState {
    /// Stable lowercase name used in JSON responses.
    pub fn name(&self) -> &'static str {
        match self {
            CampaignState::Queued => "queued",
            CampaignState::Running => "running",
            CampaignState::Complete => "complete",
            CampaignState::Failed(_) => "failed",
            CampaignState::Interrupted => "interrupted",
        }
    }

    /// Whether this state is terminal for the current server process.
    pub fn is_final(&self) -> bool {
        matches!(
            self,
            CampaignState::Complete | CampaignState::Failed(_) | CampaignState::Interrupted
        )
    }
}

/// One campaign the server knows about.
#[derive(Debug)]
pub struct CampaignEntry {
    /// Stable id ([`CampaignRequest::id`]).
    pub id: String,
    /// The journal directory (`<data_dir>/camp-<id>`).
    pub dir: PathBuf,
    /// The resolved submission.
    pub request: CampaignRequest,
    state: Mutex<CampaignState>,
    /// Final summary JSON, cached once the campaign is complete. For a
    /// campaign rediscovered already-complete it is recomputed lazily
    /// from the journals — byte-identical, since the records and the
    /// clean baseline are both deterministic.
    final_json: OnceLock<String>,
    clean_cycles: OnceLock<u64>,
}

impl CampaignEntry {
    fn new(id: String, dir: PathBuf, request: CampaignRequest, state: CampaignState) -> Self {
        CampaignEntry {
            id,
            dir,
            request,
            state: Mutex::new(state),
            final_json: OnceLock::new(),
            clean_cycles: OnceLock::new(),
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> CampaignState {
        self.state.lock().unwrap().clone()
    }

    fn set_state(&self, s: CampaignState) {
        *self.state.lock().unwrap() = s;
    }

    /// A journal tailer for this campaign.
    pub fn tailer(&self) -> JournalTailer {
        JournalTailer::new(
            self.request.workload.name,
            &self.request.spec,
            self.dir.clone(),
            self.request.shards,
        )
    }

    /// Clean-baseline cycles, simulated once and cached. Only called on
    /// paths that need the final summary — never per poll — and only
    /// simulated for a campaign rediscovered complete: one this process
    /// ran keeps the cycles of the baseline its workers forked from.
    fn clean_cycles(&self) -> u64 {
        *self
            .clean_cycles
            .get_or_init(|| clean_baseline(&self.request.workload, &self.request.spec).cycles)
    }

    /// The final summary as JSON — the byte-identity anchor: the serial
    /// runner (`run_campaign_runner_with_jobs`) on the same spec
    /// serializes through the very same [`SummaryJson::to_json`] to the
    /// very same bytes.
    ///
    /// # Errors
    ///
    /// Journal mismatch / I/O errors re-merging a rediscovered
    /// campaign; an error string if seeds are unexpectedly missing.
    pub fn final_summary_json(&self) -> Result<String, String> {
        if let Some(j) = self.final_json.get() {
            return Ok(j.clone());
        }
        let (merged, missing) = merge_shards(
            self.request.workload.name,
            &self.request.spec,
            &self.dir,
            self.request.shards,
            0,
        )
        .map_err(|e| e.to_string())?;
        if !missing.is_empty() {
            return Err(format!("{} seeds still missing", missing.len()));
        }
        let json = SummaryJson::from_records(&merged.records, self.clean_cycles()).to_json();
        Ok(self.final_json.get_or_init(|| json).clone())
    }

    /// The `GET /campaigns/{id}` response body.
    pub fn status_json(&self) -> String {
        let state = self.state();
        let (done, total, summary) = match self.tailer().poll(match &state {
            CampaignState::Complete => self.clean_cycles(),
            _ => 0,
        }) {
            Ok(Some(snap)) => (snap.done, snap.total, Some(snap.summary.to_json())),
            // poll() always reports on a fresh tailer; treat the
            // unreachable None like an unreadable journal.
            Ok(None) | Err(_) => (0, self.request.spec.runs, None),
        };
        let summary = match (&state, summary) {
            // The completed path re-serializes through the cached final
            // JSON so status and stream agree byte-for-byte.
            (CampaignState::Complete, _) => self.final_summary_json().ok(),
            (_, s) => s,
        };
        let error = match &state {
            CampaignState::Failed(e) => format!(",\"error\":{}", json_escape(e)),
            _ => String::new(),
        };
        format!
            (
            "{{\"id\":\"{}\",\"workload\":{},\"scheme\":{},\"state\":\"{}\",\"done\":{},\"total\":{}{},\"summary\":{}}}",
            self.id,
            json_escape(self.request.workload.abbr),
            json_escape(self.request.spec.scheme.key()),
            state.name(),
            done,
            total,
            error,
            summary.unwrap_or_else(|| "null".to_string()),
        )
    }
}

/// Operator settings the registry applies to every campaign it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSettings {
    /// Shard lease TTL; workers heartbeat every quarter of it.
    pub lease_ttl: Duration,
    /// Forward-progress watchdog horizon in cycles, replacing each
    /// submitted spec's own. It enters the campaign id like any
    /// submitted watchdog. `None` keeps the spec's value.
    pub watchdog: Option<u64>,
}

impl Default for RunSettings {
    fn default() -> RunSettings {
        RunSettings {
            lease_ttl: DEFAULT_LEASE_TTL,
            watchdog: None,
        }
    }
}

impl RunSettings {
    fn apply(&self, mut request: CampaignRequest) -> CampaignRequest {
        if let Some(wd) = self.watchdog {
            request.spec.watchdog = wd;
        }
        request
    }
}

/// The server's campaign registry and runner pool.
#[derive(Debug)]
pub struct Registry {
    /// Root data directory holding one `camp-<id>` directory per
    /// campaign.
    pub data_dir: PathBuf,
    /// Shared server counters.
    pub metrics: Arc<Metrics>,
    shutdown: Arc<AtomicBool>,
    settings: RunSettings,
    campaigns: Mutex<BTreeMap<String, Arc<CampaignEntry>>>,
    queue: Mutex<VecDeque<Arc<CampaignEntry>>>,
    queue_cv: Condvar,
}

impl Registry {
    /// A registry rooted at `data_dir` (created if absent), running
    /// campaigns under `settings`.
    ///
    /// # Errors
    ///
    /// Filesystem errors creating the data directory.
    pub fn new(
        data_dir: PathBuf,
        metrics: Arc<Metrics>,
        shutdown: Arc<AtomicBool>,
        settings: RunSettings,
    ) -> std::io::Result<Registry> {
        std::fs::create_dir_all(&data_dir)?;
        Ok(Registry {
            data_dir,
            metrics,
            shutdown,
            settings,
            campaigns: Mutex::new(BTreeMap::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
        })
    }

    fn campaign_dir(&self, id: &str) -> PathBuf {
        self.data_dir.join(format!("camp-{id}"))
    }

    /// Submits a campaign: idempotent on the spec fingerprint. Returns
    /// the entry and whether it was newly created.
    ///
    /// # Errors
    ///
    /// An error string (for a 4xx/5xx response) when the campaign
    /// directory cannot be persisted or collides with a different spec.
    pub fn submit(&self, request: CampaignRequest) -> Result<(Arc<CampaignEntry>, bool), String> {
        let request = self.settings.apply(request);
        let id = request.id();
        let mut campaigns = self.campaigns.lock().unwrap();
        if let Some(entry) = campaigns.get(&id) {
            return Ok((entry.clone(), false));
        }
        let dir = self.campaign_dir(&id);
        if let Some(existing) = load_campaign_dir(&dir) {
            if existing.to_body_json() != request.to_body_json() {
                return Err(format!(
                    "campaign id {id} already exists with a different spec"
                ));
            }
        } else {
            request
                .persist(&dir)
                .map_err(|e| format!("cannot persist campaign: {e}"))?;
        }
        let entry = Arc::new(CampaignEntry::new(
            id.clone(),
            dir,
            request,
            CampaignState::Queued,
        ));
        campaigns.insert(id, entry.clone());
        drop(campaigns);
        self.metrics
            .campaigns_submitted
            .fetch_add(1, Ordering::Relaxed);
        self.enqueue(entry.clone());
        Ok((entry, true))
    }

    fn enqueue(&self, entry: Arc<CampaignEntry>) {
        self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
        self.queue.lock().unwrap().push_back(entry);
        self.queue_cv.notify_one();
    }

    /// Scans the data directory for persisted campaigns this registry
    /// does not know yet — the restart path. Complete campaigns are
    /// registered as such; incomplete ones (a server killed mid-run)
    /// are re-queued and resume from their shard journals. Returns
    /// `(rediscovered, resumed)` counts.
    pub fn rediscover(&self) -> (usize, usize) {
        let mut found = 0;
        let mut resumed = 0;
        let Ok(entries) = std::fs::read_dir(&self.data_dir) else {
            return (0, 0);
        };
        for e in entries.flatten() {
            let name = e.file_name();
            let Some(dirname) = name.to_str().filter(|n| n.starts_with("camp-")) else {
                continue;
            };
            let dir = e.path();
            let Some(request) = load_campaign_dir(&dir).map(|r| self.settings.apply(r)) else {
                continue;
            };
            let id = request.id();
            // A renamed/copied directory whose name disagrees with its
            // spec is not this campaign's home; skip it.
            if dirname != format!("camp-{id}") {
                continue;
            }
            let mut campaigns = self.campaigns.lock().unwrap();
            if campaigns.contains_key(&id) {
                continue;
            }
            let complete = merge_shards(
                request.workload.name,
                &request.spec,
                &dir,
                request.shards,
                0,
            )
            .is_ok_and(|(_, missing)| missing.is_empty());
            let state = if complete {
                CampaignState::Complete
            } else {
                CampaignState::Queued
            };
            let entry = Arc::new(CampaignEntry::new(id.clone(), dir, request, state));
            campaigns.insert(id, entry.clone());
            drop(campaigns);
            found += 1;
            self.metrics
                .campaigns_submitted
                .fetch_add(1, Ordering::Relaxed);
            if complete {
                self.metrics
                    .campaigns_completed
                    .fetch_add(1, Ordering::Relaxed);
            } else {
                resumed += 1;
                self.enqueue(entry);
            }
        }
        (found, resumed)
    }

    /// The campaign with `id`, if known.
    pub fn get(&self, id: &str) -> Option<Arc<CampaignEntry>> {
        self.campaigns.lock().unwrap().get(id).cloned()
    }

    /// Every known campaign, id-ordered.
    pub fn list(&self) -> Vec<Arc<CampaignEntry>> {
        self.campaigns.lock().unwrap().values().cloned().collect()
    }

    /// One runner thread's loop: pop queued campaigns and execute them
    /// until shutdown. Run N of these for an N-campaign-deep pool.
    pub fn run_worker_loop(&self) {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let entry = {
                let queue = self.queue.lock().unwrap();
                let (mut queue, _) = self
                    .queue_cv
                    .wait_timeout_while(queue, Duration::from_millis(100), |q| q.is_empty())
                    .unwrap();
                queue.pop_front()
            };
            let Some(entry) = entry else { continue };
            self.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
            self.execute(&entry);
        }
    }

    /// Executes one campaign to completion (or interruption) on the
    /// calling thread.
    fn execute(&self, entry: &Arc<CampaignEntry>) {
        entry.set_state(CampaignState::Running);
        self.metrics
            .campaigns_active
            .fetch_add(1, Ordering::Relaxed);
        let opts = ShardOptions {
            worker_id: format!("serve-{}-pid{}", entry.id, std::process::id()),
            lease_ttl: self.settings.lease_ttl,
            shutdown: Some(self.shutdown.clone()),
            progress: Some(self.metrics.seeds_run.clone()),
            ..ShardOptions::new(entry.request.shards)
        };
        let result = run_sharded_campaign(
            &entry.request.workload,
            &entry.request.spec,
            &entry.dir,
            &opts,
            entry.request.workers,
        );
        self.metrics
            .campaigns_active
            .fetch_sub(1, Ordering::Relaxed);
        match result {
            Ok(summary) => {
                let _ = entry.clean_cycles.set(summary.clean_cycles);
                let json = SummaryJson::from_summary(&summary).to_json();
                let _ = entry.final_json.set(json);
                entry.set_state(CampaignState::Complete);
                self.metrics
                    .campaigns_completed
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(RunnerError::Interrupted(_)) => entry.set_state(CampaignState::Interrupted),
            Err(e) => {
                entry.set_state(CampaignState::Failed(e.to_string()));
                self.metrics
                    .campaigns_failed
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}
