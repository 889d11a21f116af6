//! The crash-tolerant sharded campaign supervisor.
//!
//! One process owning the whole journal is a single point of failure: a
//! crashed or wedged host loses every in-flight seed and nothing
//! exercises the runner's own failure paths. This module applies the
//! repo's fault-injection philosophy to its campaign layer — the same
//! million-run machinery the paper's claims rest on — by splitting a
//! [`CampaignSpec`] seed range into **shards** claimed through lease
//! files in a journal directory:
//!
//! * **Shard journals** — shard `k` appends to `shard-000k.jsonl`, a
//!   JSONL journal with the same spec-fingerprint header the serial
//!   runner writes, so every existing loading/repair/truncation-
//!   tolerance rule applies per shard unchanged.
//! * **Leases with fencing** — to work on shard `k` a worker must hold
//!   `shard-000k.lease`. Ownership is fenced by a monotonically
//!   increasing **epoch**: claiming epoch `e` requires atomically
//!   creating the marker file `shard-000k.epoch-e` with `O_EXCL`, so
//!   exactly one claimant can ever win a given epoch, however many race
//!   for it. The lease file itself carries `{owner, epoch, beat}` and is
//!   heartbeat-rewritten (its mtime is the liveness signal).
//! * **Stale-lease reclamation (the campaign watchdog)** — a lease whose
//!   mtime is older than the TTL, whose owner field is empty (released),
//!   or whose content does not parse (corrupted) is *claimable*. A
//!   revived zombie discovers the reclaim at its next heartbeat — the
//!   epoch moved past its claim — and abandons the shard instead of
//!   double-writing. (Should a zombie's final in-flight append land
//!   anyway, records are deterministic per seed and the merge dedups by
//!   seed, so even that race cannot change the campaign's results.)
//! * **Graceful degradation** — [`run_sharded_campaign`] tolerates every
//!   worker dying: after the worker pool drains it sweeps the directory
//!   itself, serially claiming whatever is unfinished, so the campaign
//!   completes as long as the supervisor survives.
//! * **Deterministic merge** — [`merge_shards`] folds the shard journals
//!   back into one [`CampaignSummary`] that is **bit-identical** to a
//!   single-process serial run of the same spec: same records, same
//!   counts, same rendered report, however the work was split, killed,
//!   reclaimed, and resumed in between.
//!
//! Workers are deliberately process-agnostic: [`run_shard_worker`] is
//! the whole worker loop, equally usable from scoped threads (the
//! in-process supervisor), from separate OS processes (the
//! `fault_campaign --shards N` crash drill SIGKILLs such workers
//! mid-campaign), or from a future campaign server's fleet.

use crate::experiment::WorkloadSpec;
use crate::runner::{
    append_with_retry, baseline_and_checkpoints, json_str, json_u64, load_journal,
    open_journal_append, run_one_seed_retrying, CampaignSpec, CampaignSummary, RunRecord,
    RunnerError,
};
use gpu_sim::gpu::Snapshot;
use std::collections::BTreeSet;
use std::fs::OpenOptions;
use std::io::ErrorKind;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant, SystemTime};

/// How a campaign's seed range is split into shards: contiguous chunks,
/// with the remainder spread one seed each over the first shards. The
/// shard count is clamped to `[1, runs]` so every shard owns at least
/// one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    runs: usize,
    shards: usize,
}

impl ShardPlan {
    /// Plans `runs` seeds over (at most) `shards` shards.
    pub fn new(runs: usize, shards: usize) -> ShardPlan {
        ShardPlan {
            runs,
            shards: shards.clamp(1, runs.max(1)),
        }
    }

    /// Number of shards actually planned.
    pub fn count(&self) -> usize {
        self.shards
    }

    /// The seeds shard `k` owns under `spec` (absolute seed values).
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.count()`.
    pub fn seed_range(&self, spec: &CampaignSpec, k: usize) -> Range<u64> {
        assert!(k < self.shards, "shard {k} out of range");
        let base = self.runs / self.shards;
        let extra = self.runs % self.shards;
        let lo = k * base + k.min(extra);
        let hi = lo + base + usize::from(k < extra);
        spec.base_seed + lo as u64..spec.base_seed + hi as u64
    }
}

/// The journal file shard `k` appends to.
pub fn journal_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("shard-{k:04}.jsonl"))
}

/// The lease file guarding shard `k`.
pub fn lease_path(dir: &Path, k: usize) -> PathBuf {
    dir.join(format!("shard-{k:04}.lease"))
}

fn epoch_marker(dir: &Path, k: usize, epoch: u64) -> PathBuf {
    dir.join(format!("shard-{k:04}.epoch-{epoch}"))
}

/// Contents of a lease file: one hand-rolled JSON line, like the
/// journals.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Lease {
    /// Worker id holding (or having released, when empty) the lease.
    owner: String,
    /// Fencing epoch the owner claimed at.
    epoch: u64,
    /// Heartbeat counter; the file's mtime is the liveness signal, the
    /// counter makes each rewrite observable in the bytes too.
    beat: u64,
}

impl Lease {
    fn to_line(&self) -> String {
        format!(
            "{{\"flame_lease\":1,\"owner\":{:?},\"epoch\":{},\"beat\":{}}}",
            self.owner, self.epoch, self.beat
        )
    }

    fn parse(line: &str) -> Option<Lease> {
        let line = line.trim();
        if !line.ends_with('}') || !line.contains("\"flame_lease\":1") {
            return None;
        }
        Some(Lease {
            owner: json_str(line, "owner")?.to_string(),
            epoch: json_u64(line, "epoch")?,
            beat: json_u64(line, "beat")?,
        })
    }
}

/// Proof of a successful shard claim: the shard index and the fencing
/// epoch the claim won. All lease operations require it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardClaim {
    /// Claimed shard index.
    pub shard: usize,
    /// Epoch this claim fenced at.
    pub epoch: u64,
}

/// Default lease TTL. It must comfortably exceed the slowest
/// single-seed simulation, because workers heartbeat between seeds, not
/// during them.
pub const DEFAULT_LEASE_TTL: Duration = Duration::from_secs(30);

/// Options for sharded execution.
#[derive(Debug, Clone)]
pub struct ShardOptions {
    /// Number of shards the seed range is split into.
    pub shards: usize,
    /// This worker's identity, written into claimed leases. Must be
    /// unique among concurrently live workers.
    pub worker_id: String,
    /// A lease whose mtime is older than this is considered abandoned
    /// and becomes claimable. Must comfortably exceed the slowest
    /// single-seed simulation — workers heartbeat between seeds, not
    /// during them. Defaults to [`DEFAULT_LEASE_TTL`].
    pub lease_ttl: Duration,
    /// How often a working worker refreshes its lease (and re-checks
    /// the fence). Defaults to a quarter of the TTL.
    pub heartbeat: Duration,
    /// Drill hook: hard-abort the **process** after this many seeds
    /// (`std::process::abort`, no unwinding, no lease release) —
    /// how the crash drills simulate a dying worker host. `None` in
    /// normal operation; set by the drill's worker processes.
    pub crash_after: Option<usize>,
    /// Test hook: silently stop working (and stop heartbeating) after
    /// this many seeds *without* releasing the lease — an in-process
    /// stand-in for a killed worker thread. `None` in normal operation.
    pub abandon_after: Option<usize>,
    /// Graceful-shutdown flag, typically set by a SIGTERM/SIGINT
    /// handler. A worker observing it between seeds **releases its
    /// lease and stops** — journals are already fsynced per record, so
    /// nothing is lost and the next claimant resumes instantly instead
    /// of waiting out the lease TTL (the stale-lease path remains the
    /// backstop for workers that die without warning). `None` disables
    /// the check.
    pub shutdown: Option<Arc<AtomicBool>>,
    /// Progress hook: incremented once per seed this worker journals.
    /// The campaign server feeds its seeds/sec and per-campaign
    /// progress metrics from it. `None` in normal operation.
    pub progress: Option<Arc<AtomicU64>>,
}

impl ShardOptions {
    /// Default options for `shards` shards: a process-unique worker id,
    /// a [`DEFAULT_LEASE_TTL`] lease TTL, heartbeat at TTL/4, no drill
    /// hooks, no shutdown/progress hooks.
    pub fn new(shards: usize) -> ShardOptions {
        ShardOptions {
            shards,
            worker_id: format!("pid{}", std::process::id()),
            lease_ttl: DEFAULT_LEASE_TTL,
            heartbeat: DEFAULT_LEASE_TTL / 4,
            crash_after: None,
            abandon_after: None,
            shutdown: None,
            progress: None,
        }
    }

    /// Whether the graceful-shutdown flag is set.
    fn shutdown_requested(&self) -> bool {
        self.shutdown
            .as_ref()
            .is_some_and(|f| f.load(Ordering::SeqCst))
    }
}

/// What one worker accomplished before running out of claimable work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerReport {
    /// Shards this worker claimed (including reclaims).
    pub shards_claimed: usize,
    /// Seeds this worker simulated and journaled.
    pub seeds_run: usize,
    /// Times a held lease was lost to reclamation (the fence tripped).
    pub leases_lost: usize,
    /// The worker stopped early because the graceful-shutdown flag was
    /// set; its lease was released and its journal flushed.
    pub stopped: bool,
}

/// The highest fencing epoch ever claimed for shard `k`: the epoch
/// markers are the durable, `O_EXCL`-serialized record of every claim,
/// so it survives lease-file corruption and deletion.
fn current_epoch(dir: &Path, k: usize) -> std::io::Result<u64> {
    let prefix = format!("shard-{k:04}.epoch-");
    let mut max = 0;
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        if let Some(e) = name
            .to_str()
            .and_then(|n| n.strip_prefix(&prefix))
            .and_then(|e| e.parse::<u64>().ok())
        {
            max = max.max(e);
        }
    }
    Ok(max)
}

fn read_lease(dir: &Path, k: usize) -> Option<Lease> {
    Lease::parse(&std::fs::read_to_string(lease_path(dir, k)).ok()?)
}

/// Atomically (re)writes shard `k`'s lease via a writer-unique temp
/// file and rename, so readers never observe a half-written lease.
fn write_lease(dir: &Path, k: usize, lease: &Lease) -> std::io::Result<()> {
    let sanitized: String = lease
        .owner
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let tmp = dir.join(format!("shard-{k:04}.lease.tmp-{sanitized}"));
    std::fs::write(&tmp, format!("{}\n", lease.to_line()))?;
    std::fs::rename(&tmp, lease_path(dir, k))
}

/// Whether shard `k`'s lease can be claimed right now: missing,
/// released (empty owner), corrupt, or heartbeat-stale.
fn lease_claimable(dir: &Path, k: usize, ttl: Duration) -> bool {
    let path = lease_path(dir, k);
    let Ok(meta) = std::fs::metadata(&path) else {
        return true; // no lease yet
    };
    match read_lease(dir, k) {
        // Corrupt or unreadable: nobody can prove ownership, reclaim.
        None => true,
        Some(l) if l.owner.is_empty() => true, // released
        Some(_) => {
            // Held: claimable only once the heartbeat goes stale.
            let age = meta
                .modified()
                .ok()
                .and_then(|m| SystemTime::now().duration_since(m).ok());
            age.is_some_and(|a| a > ttl)
        }
    }
}

/// Whether epoch marker `epoch` of shard `k` records a claim still in
/// flight: its winner has created the marker but not yet written the
/// lease. That holds while the marker is younger than the TTL and the
/// lease is missing or carries an older epoch. A corrupt lease proves
/// nothing and does not hold the shard.
fn claim_in_flight(dir: &Path, k: usize, epoch: u64, ttl: Duration) -> bool {
    if epoch == 0 {
        return false;
    }
    let lease_epoch = match std::fs::read_to_string(lease_path(dir, k)) {
        Ok(text) => match Lease::parse(&text) {
            Some(l) => l.epoch,
            None => return false,
        },
        Err(_) => 0,
    };
    if lease_epoch >= epoch {
        return false;
    }
    std::fs::metadata(epoch_marker(dir, k, epoch))
        .and_then(|m| m.modified())
        .ok()
        .and_then(|m| SystemTime::now().duration_since(m).ok())
        .is_none_or(|age| age <= ttl)
}

/// Tries to claim shard `k` for `owner`. Returns `Ok(None)` when the
/// lease is healthily held by someone else, another claim is in flight,
/// **or** the `O_EXCL` epoch race was lost to a concurrent claimant; a
/// `Some` claim is exclusive for its epoch by construction.
///
/// The epoch is read before the lease. A claimant creates its marker
/// before it writes its lease, so a claimant that finds no lease can
/// still see the marker of one that got there first.
///
/// # Errors
///
/// Propagates filesystem errors other than losing the epoch race.
pub fn try_claim(
    dir: &Path,
    k: usize,
    owner: &str,
    ttl: Duration,
) -> std::io::Result<Option<ShardClaim>> {
    let current = current_epoch(dir, k)?;
    if claim_in_flight(dir, k, current, ttl) || !lease_claimable(dir, k, ttl) {
        return Ok(None);
    }
    let epoch = current + 1;
    // The fencing point: exactly one creator of this marker can exist.
    match OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(epoch_marker(dir, k, epoch))
    {
        Ok(_) => {}
        Err(e) if e.kind() == ErrorKind::AlreadyExists => return Ok(None),
        Err(e) => return Err(e),
    }
    write_lease(
        dir,
        k,
        &Lease {
            owner: owner.to_string(),
            epoch,
            beat: 0,
        },
    )?;
    Ok(Some(ShardClaim { shard: k, epoch }))
}

/// A heartbeat (or fence check) discovered the lease is no longer ours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseLost;

/// Refreshes the claim's lease, proving liveness and re-checking the
/// fence. A zombie — a worker whose lease was reclaimed while it was
/// stalled — gets [`LeaseLost`] here and must stop writing to the
/// shard.
///
/// # Errors
///
/// [`LeaseLost`] when the lease now carries a different owner or epoch,
/// cannot be read, or cannot be rewritten (any I/O failure is treated
/// as loss: the safe side is to stop writing).
pub fn heartbeat(dir: &Path, claim: &ShardClaim, owner: &str) -> Result<(), LeaseLost> {
    match read_lease(dir, claim.shard) {
        Some(l) if l.epoch == claim.epoch && l.owner == owner => write_lease(
            dir,
            claim.shard,
            &Lease {
                owner: owner.to_string(),
                epoch: claim.epoch,
                beat: l.beat + 1,
            },
        )
        .map_err(|_| LeaseLost),
        _ => Err(LeaseLost),
    }
}

/// Releases a finished shard: the lease keeps its epoch but drops its
/// owner, making any later (spurious) claim cheap and unambiguous.
pub fn release(dir: &Path, claim: &ShardClaim) {
    let _ = write_lease(
        dir,
        claim.shard,
        &Lease {
            owner: String::new(),
            epoch: claim.epoch,
            beat: 0,
        },
    );
}

/// The seeds of `range` already journaled in `path` (empty when the
/// journal does not exist yet).
///
/// # Errors
///
/// [`RunnerError::JournalMismatch`] when the journal belongs to a
/// different spec, plus I/O errors.
fn load_done_seeds(
    path: &Path,
    header: &str,
    range: Range<u64>,
) -> Result<BTreeSet<u64>, RunnerError> {
    if !path.exists() {
        return Ok(BTreeSet::new());
    }
    Ok(load_journal(path, header)?
        .into_iter()
        .filter(|r| range.contains(&r.seed))
        .map(|r| r.seed)
        .collect())
}

/// The worker loop: repeatedly claim an unfinished shard, run its
/// missing seeds (resuming from the shard journal), heartbeat the lease
/// between seeds, and release the shard when complete. Returns once
/// every shard of the campaign is complete — a worker that finds all
/// remaining shards healthily leased by others polls until they finish
/// (or go stale, in which case it reclaims and finishes them itself:
/// this *is* the campaign-level watchdog).
///
/// Per-seed robustness rides on [`run_one_seed_retrying`]: transient
/// crashes retry with bounded backoff and poison seeds are quarantined
/// as `Due` instead of stalling the shard. A journal append that still
/// fails after the retry budget — or a tripped lease fence — makes the
/// worker abandon the shard for reclamation rather than wedge.
///
/// # Errors
///
/// [`RunnerError::JournalMismatch`] when a shard journal belongs to a
/// different spec, plus unrecoverable lease-file I/O errors.
pub fn run_shard_worker(
    w: &WorkloadSpec,
    spec: &CampaignSpec,
    dir: &Path,
    opts: &ShardOptions,
) -> Result<WorkerReport, RunnerError> {
    let baseline = OnceLock::new();
    run_shard_worker_inner(w, spec, dir, opts, &baseline)
}

/// [`run_shard_worker`] with a caller-shared lazy baseline, so an
/// in-process supervisor pays for the clean run and its fork-point
/// checkpoints once, not once per worker thread.
fn run_shard_worker_inner(
    w: &WorkloadSpec,
    spec: &CampaignSpec,
    dir: &Path,
    opts: &ShardOptions,
    baseline: &OnceLock<(u64, Vec<Snapshot>)>,
) -> Result<WorkerReport, RunnerError> {
    let header = spec.fingerprint(w.name);
    let plan = ShardPlan::new(spec.runs, opts.shards);
    let mut report = WorkerReport::default();
    loop {
        if opts.shutdown_requested() {
            report.stopped = true;
            return Ok(report);
        }
        // One scan over the shards: claim the first claimable
        // unfinished one, remember whether any work remains at all.
        let mut all_done = true;
        let mut claimed: Option<(ShardClaim, BTreeSet<u64>)> = None;
        for k in 0..plan.count() {
            let range = plan.seed_range(spec, k);
            let done = load_done_seeds(&journal_path(dir, k), &header, range.clone())?;
            if done.len() as u64 == range.end - range.start {
                continue;
            }
            all_done = false;
            if let Some(c) = try_claim(dir, k, &opts.worker_id, opts.lease_ttl)? {
                claimed = Some((c, done));
                break;
            }
        }
        if all_done {
            return Ok(report);
        }
        let Some((claim, done)) = claimed else {
            // Unfinished shards exist but are all healthily leased:
            // wait for their owners to finish or go stale.
            thread::sleep(opts.heartbeat.min(Duration::from_millis(50)));
            continue;
        };
        report.shards_claimed += 1;

        let (_clean, checkpoints) = baseline.get_or_init(|| baseline_and_checkpoints(w, spec));
        let mut journal = open_journal_append(&journal_path(dir, claim.shard), &header)?;
        let mut last_beat = Instant::now();
        let mut abandoned = false;
        for seed in plan.seed_range(spec, claim.shard) {
            if done.contains(&seed) {
                continue;
            }
            if opts.shutdown_requested() {
                // Graceful shutdown: release the lease so the next
                // claimant resumes immediately (every finished seed is
                // already fsynced in the shard journal), then stop.
                release(dir, &claim);
                report.stopped = true;
                return Ok(report);
            }
            if last_beat.elapsed() >= opts.heartbeat {
                if heartbeat(dir, &claim, &opts.worker_id).is_err() {
                    // Fence tripped: the shard was reclaimed from us.
                    // Stop writing immediately; the new owner re-runs
                    // whatever we would have done (deterministically,
                    // so even a raced duplicate merges away).
                    report.leases_lost += 1;
                    abandoned = true;
                    break;
                }
                last_beat = Instant::now();
            }
            let rec = run_one_seed_retrying(w, spec, seed, checkpoints);
            if append_with_retry(&mut journal, &rec.to_line(), spec.retry).is_err() {
                // The journal is unwritable even after bounded retries:
                // abandon the shard for reclamation instead of wedging.
                abandoned = true;
                break;
            }
            report.seeds_run += 1;
            if let Some(p) = &opts.progress {
                p.fetch_add(1, Ordering::Relaxed);
            }
            if opts.crash_after.is_some_and(|n| report.seeds_run >= n) {
                // Drill: die like a kill -9 — no unwinding, no lease
                // release, journal exactly as far as the last fsync.
                std::process::abort();
            }
            if opts.abandon_after.is_some_and(|n| report.seeds_run >= n) {
                // Drill: silently stop, keeping the lease — the
                // in-process analogue of a dead worker thread.
                return Ok(report);
            }
        }
        if !abandoned {
            release(dir, &claim);
        }
    }
}

/// Merges every shard journal in `dir` into one summary, deduplicating
/// by seed (a reclaimed shard may carry a raced duplicate; records are
/// deterministic so any copy serves). Returns the summary — with
/// `ran_now = 0`; the supervisor accounts for fresh work — and the
/// seeds still missing from the campaign. With no missing seeds the
/// summary is bit-identical to a serial single-journal run of the spec:
/// same records, same counts, same `render()` bytes.
///
/// # Errors
///
/// [`RunnerError::JournalMismatch`] when any shard journal belongs to a
/// different spec, plus I/O errors.
pub fn merge_shards(
    w: &WorkloadSpec,
    spec: &CampaignSpec,
    dir: &Path,
    shards: usize,
) -> Result<(CampaignSummary, Vec<u64>), RunnerError> {
    let (records, counts, missing) = merge_shard_records(w.name, spec, dir, shards)?;
    // The fork-point grid only accelerates; pausing at it cannot change
    // the clean cycle count, so the plain baseline matches the serial
    // runner's checkpointing one bit for bit.
    let (clean_cycles, _) = crate::runner::clean_baseline(w, spec, &[]);
    Ok((
        CampaignSummary {
            header: spec.fingerprint(w.name),
            records,
            counts,
            clean_cycles,
            ran_now: 0,
        },
        missing,
    ))
}

/// What [`merge_shard_records`] folds out of the journals: the
/// seed-sorted deduplicated records, their outcome histogram (in
/// [`crate::campaign::Outcome::ALL`] order), and the seeds not yet
/// journaled.
pub type MergedRecords = (Vec<RunRecord>, [usize; 5], Vec<u64>);

/// The record-merging half of [`merge_shards`]: folds the shard
/// journals of `dir` into a seed-sorted, seed-deduplicated record set
/// with its outcome histogram and the seeds still missing — **without**
/// simulating the clean baseline. This is what the campaign server's
/// stream tailer polls: re-merging journals is cheap file I/O, while
/// the baseline is a whole simulation that would otherwise run once per
/// poll. Only the workload *name* is needed (it enters the journal
/// fingerprint); the records themselves come entirely from disk.
///
/// # Errors
///
/// [`RunnerError::JournalMismatch`] when any shard journal belongs to a
/// different spec, plus I/O errors.
pub fn merge_shard_records(
    workload: &str,
    spec: &CampaignSpec,
    dir: &Path,
    shards: usize,
) -> Result<MergedRecords, RunnerError> {
    let header = spec.fingerprint(workload);
    let plan = ShardPlan::new(spec.runs, shards);
    let mut records: Vec<RunRecord> = Vec::with_capacity(spec.runs);
    let mut seen = BTreeSet::new();
    for k in 0..plan.count() {
        let path = journal_path(dir, k);
        if !path.exists() {
            continue;
        }
        let range = plan.seed_range(spec, k);
        for r in load_journal(&path, &header)? {
            if range.contains(&r.seed) && seen.insert(r.seed) {
                records.push(r);
            }
        }
    }
    records.sort_by_key(|r| r.seed);
    let missing: Vec<u64> = (0..spec.runs as u64)
        .map(|i| spec.base_seed + i)
        .filter(|s| !seen.contains(s))
        .collect();
    let mut counts = [0usize; 5];
    for r in &records {
        counts[crate::campaign::Outcome::ALL
            .iter()
            .position(|&o| o == r.outcome)
            .unwrap()] += 1;
    }
    Ok((records, counts, missing))
}

/// Removes the coordination files (leases, epoch markers) of a
/// *completed* campaign, keeping the shard journals as its durable
/// record. Best-effort; only call once no worker can still be live.
fn cleanup_coordination(dir: &Path, shards: usize) {
    for k in 0..shards.max(1) {
        let _ = std::fs::remove_file(lease_path(dir, k));
    }
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.contains(".epoch-") || n.contains(".lease.tmp-"))
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// Runs (or resumes) the campaign sharded across `workers` in-process
/// worker threads leasing shards in `dir`, then merges the shard
/// journals into one summary bit-identical to a serial run.
///
/// Crash tolerance, end to end:
///
/// * a worker thread dying (panic) is absorbed — its lease goes stale
///   and a surviving worker reclaims the shard;
/// * if **every** worker dies, the supervisor degrades gracefully: it
///   runs the worker loop itself, serially, until the campaign is
///   complete (workers dying faster than they are replaced can delay,
///   but not lose, the campaign);
/// * killing the whole process and calling this again on the same `dir`
///   resumes from the shard journals exactly like the serial runner
///   resumes from its single journal.
///
/// `ran_now` on the returned summary counts the seeds simulated by this
/// invocation across all its workers.
///
/// # Errors
///
/// [`RunnerError::JournalMismatch`] when `dir` holds journals of a
/// different spec, plus unrecoverable I/O errors. An
/// [`RunnerError::Io`] of kind [`ErrorKind::Other`] is returned if
/// seeds are still missing after the degradation sweep (only possible
/// if the directory is actively sabotaged).
pub fn run_sharded_campaign(
    w: &WorkloadSpec,
    spec: &CampaignSpec,
    dir: &Path,
    opts: &ShardOptions,
    workers: usize,
) -> Result<CampaignSummary, RunnerError> {
    std::fs::create_dir_all(dir)?;
    let workers = workers.max(1);
    let baseline = OnceLock::new();
    let mut ran_now = 0usize;
    let mut first_err: Option<RunnerError> = None;
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|i| {
                let o = ShardOptions {
                    worker_id: format!("{}-t{i}", opts.worker_id),
                    ..opts.clone()
                };
                let baseline = &baseline;
                s.spawn(move || run_shard_worker_inner(w, spec, dir, &o, baseline))
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(Ok(rep)) => ran_now += rep.seeds_run,
                Ok(Err(e)) => first_err = first_err.take().or(Some(e)),
                // A panicking worker is exactly the failure this layer
                // exists to absorb: its shard goes stale and is
                // reclaimed below.
                Err(_) => {}
            }
        }
    });
    if let Some(e) = first_err {
        return Err(e);
    }

    let (summary, missing) = merge_shards(w, spec, dir, opts.shards)?;
    let mut summary = summary;
    if !missing.is_empty() && opts.shutdown_requested() {
        // Graceful shutdown mid-campaign: the workers released their
        // leases and stopped. Keep the coordination files — the next
        // invocation on the same `dir` (or a reclaiming peer) resumes
        // exactly where the journals left off.
        return Err(RunnerError::Interrupted(missing.len()));
    }
    if !missing.is_empty() {
        // Degradation sweep: every worker is gone but seeds remain.
        // The supervisor becomes the last worker and finishes serially
        // (waiting out still-fresh leases of dead workers).
        let sweep = ShardOptions {
            worker_id: format!("{}-sweep", opts.worker_id),
            crash_after: None,
            abandon_after: None,
            ..opts.clone()
        };
        ran_now += run_shard_worker_inner(w, spec, dir, &sweep, &baseline)?.seeds_run;
        let (swept, still_missing) = merge_shards(w, spec, dir, opts.shards)?;
        if !still_missing.is_empty() && opts.shutdown_requested() {
            return Err(RunnerError::Interrupted(still_missing.len()));
        }
        if !still_missing.is_empty() {
            return Err(RunnerError::Io(std::io::Error::other(format!(
                "{} seeds missing after degradation sweep",
                still_missing.len()
            ))));
        }
        summary = swept;
    }
    summary.ran_now = ran_now;
    cleanup_coordination(dir, opts.shards);
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{ExperimentConfig, ProtocolConfig};
    use crate::runner::{RetryPolicy, SelfFault};
    use crate::scheme::Scheme;

    fn spec(runs: usize) -> CampaignSpec {
        CampaignSpec {
            base_seed: 100,
            runs,
            strikes_per_run: 3,
            horizon: 1000,
            strike_window: (0.0, 1.0),
            fork_points: 8,
            coverage: 0.9,
            control_fraction: 0.1,
            recovery_fraction: 0.1,
            scheme: Scheme::SensorRenaming,
            cfg: ExperimentConfig::default(),
            proto: ProtocolConfig::default(),
            watchdog: 0,
            retry: RetryPolicy::default(),
            self_fault: SelfFault::default(),
        }
    }

    #[test]
    fn shard_plan_partitions_exactly() {
        for runs in [1usize, 2, 7, 16, 100] {
            for shards in [1usize, 2, 3, 5, 8, 200] {
                let plan = ShardPlan::new(runs, shards);
                assert!(plan.count() >= 1 && plan.count() <= runs.max(1));
                let s = spec(runs);
                let mut all: Vec<u64> = Vec::new();
                for k in 0..plan.count() {
                    let r = plan.seed_range(&s, k);
                    assert!(r.end > r.start, "empty shard {k} ({runs}/{shards})");
                    all.extend(r);
                }
                let expect: Vec<u64> = (0..runs as u64).map(|i| 100 + i).collect();
                assert_eq!(all, expect, "{runs} runs / {shards} shards");
            }
        }
    }

    #[test]
    fn lease_lines_round_trip() {
        let l = Lease {
            owner: "w-1".into(),
            epoch: 7,
            beat: 42,
        };
        assert_eq!(Lease::parse(&l.to_line()), Some(l));
        let released = Lease {
            owner: String::new(),
            epoch: 3,
            beat: 0,
        };
        assert_eq!(Lease::parse(&released.to_line()), Some(released));
        assert_eq!(Lease::parse("garbage"), None);
        assert_eq!(Lease::parse(""), None);
        assert_eq!(Lease::parse("{\"owner\":\"x\"}"), None);
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("flame_shard_unit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn claims_fence_by_epoch() {
        let dir = tmp_dir("fence");
        let ttl = Duration::from_millis(80);

        // First claim wins epoch 1.
        let a = try_claim(&dir, 0, "alice", ttl).unwrap().expect("claim");
        assert_eq!(a.epoch, 1);
        // A healthy lease cannot be claimed over.
        assert!(try_claim(&dir, 0, "bob", ttl).unwrap().is_none());
        assert!(heartbeat(&dir, &a, "alice").is_ok());

        // Past the TTL the lease is stale; bob reclaims at epoch 2 and
        // alice's next heartbeat trips the fence.
        std::thread::sleep(ttl + Duration::from_millis(40));
        let b = try_claim(&dir, 0, "bob", ttl).unwrap().expect("reclaim");
        assert_eq!(b.epoch, 2);
        assert_eq!(heartbeat(&dir, &a, "alice"), Err(LeaseLost));
        assert!(heartbeat(&dir, &b, "bob").is_ok());

        // Release makes the shard immediately claimable at epoch 3.
        release(&dir, &b);
        let c = try_claim(&dir, 0, "carol", ttl).unwrap().expect("claim");
        assert_eq!(c.epoch, 3);

        // A corrupted lease is claimable regardless of freshness, and
        // the epoch still only moves forward (markers survive).
        std::fs::write(lease_path(&dir, 0), "NOT A LEASE \0\0").unwrap();
        let d = try_claim(&dir, 0, "dave", ttl).unwrap().expect("claim");
        assert_eq!(d.epoch, 4);
        assert_eq!(heartbeat(&dir, &c, "carol"), Err(LeaseLost));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_epoch_marker_without_lease_is_a_claim_in_flight() {
        let dir = tmp_dir("inflight");
        let ttl = Duration::from_secs(10);
        // A claimant has created its epoch marker but not yet written
        // its lease. A second claimant must not win a later epoch.
        let marker = std::fs::File::create(epoch_marker(&dir, 0, 1)).unwrap();
        assert_eq!(try_claim(&dir, 0, "late", ttl).unwrap(), None);
        // A marker older than the TTL is a claimant that died before
        // writing its lease: the shard is claimable again.
        marker
            .set_modified(SystemTime::now() - 2 * ttl)
            .expect("set marker mtime");
        let c = try_claim(&dir, 0, "late", ttl).unwrap().expect("claim");
        assert_eq!(c.epoch, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_race_has_one_winner() {
        let dir = tmp_dir("race");
        let ttl = Duration::from_millis(10_000);
        // Simulate the race window: both see a claimable shard, both
        // try. Claim serialization is the O_EXCL marker, so the second
        // claimant loses even though it read "claimable" first.
        assert!(lease_claimable(&dir, 1, ttl));
        assert!(lease_claimable(&dir, 1, ttl));
        let first = try_claim(&dir, 1, "a", ttl).unwrap();
        let second = try_claim(&dir, 1, "b", ttl).unwrap();
        assert!(first.is_some());
        assert!(second.is_none(), "both claimants won the same epoch");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
