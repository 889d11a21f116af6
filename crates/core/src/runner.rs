//! The campaign engine: one seed loop behind every fault campaign.
//!
//! A statistical fault campaign is hundreds of independent seeded runs of
//! one `(workload, scheme, config)` triple, each classified into the
//! [`Outcome`] taxonomy. One seed loop (`run_seeds`) runs them: it fans
//! seeds across `std::thread::scope` workers pulling from an
//! [`AtomicUsize`] work index (the matrix engine's self-scheduling
//! pattern), isolates each run behind `catch_unwind` so one diseased seed
//! cannot kill the campaign, forks every seed from one clean baseline's
//! checkpoints, and appends every finished run to a JSONL journal,
//! fsynced, before it counts. A serial campaign
//! ([`run_campaign_runner_with_jobs`]) is that loop over the whole seed
//! range and one journal, with no lease; a shard worker
//! ([`crate::shard::run_shard_worker`]) is the same loop over a claimed
//! shard, with hooks that keep the lease alive.
//!
//! Three properties the campaign reports rely on:
//!
//! * **Determinism** — each seed's strikes and simulation are a pure
//!   function of the spec, so the final [`CampaignSummary`] is
//!   byte-identical whatever the worker count, interleaving, or how many
//!   times the campaign was killed and resumed in between.
//! * **Truncation tolerance** — a run record only counts if its journal
//!   line is one complete JSON object; a half-written tail line (the kill
//!   arrived mid-`write`) is discarded and that seed simply re-runs.
//! * **Single baseline** — the fault-free run is simulated once per
//!   campaign, not once per seed, and once per process for campaigns
//!   that differ only in what it does not read (coverage, strike mix,
//!   seeds): a one-entry memo keeps the last one. Seeds fork from its
//!   checkpoints, a seed whose final image equals its image skips the
//!   workload's check, and a seed that starts from scratch copies its
//!   seeded inputs instead of calling the workload's `init`.
//!
//! The journal is a header line fingerprinting the spec, then one object
//! per finished seed, in completion order, read and written through the
//! workspace's one JSON codec ([`flame_trace::json`]). Integer fields
//! only — floats travel as `f64::to_bits` so round-trips are exact.

use crate::campaign::{classify, Outcome};
use crate::experiment::{
    run_with_protocol, ExperimentConfig, FaultProtocolResult, ProtocolConfig, RunOptions,
    WorkloadSpec,
};
use crate::scheme::Scheme;
use flame_sensors::fault::{Strike, StrikeGenerator};
use flame_trace::json::{json_escape, JsonValue};
use gpu_sim::gpu::Snapshot;
use gpu_sim::memory::GlobalMemory;
use gpu_sim::program::Kernel;
use gpu_sim::sm::LaunchDims;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, ErrorKind, Read as _, Seek, SeekFrom, Write as _};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread;
use std::time::Duration;

/// Bounded-retry policy for per-seed robustness: how many times a
/// crashing seed is re-attempted (and a failed journal append is
/// re-written) before giving up, and the base of the exponential
/// backoff between attempts.
///
/// Retries are **telemetry-neutral by construction**: a genuine
/// in-process panic is a deterministic function of the seed, so every
/// attempt fails identically and the final record is the same whatever
/// `max_attempts` is — which is why the policy is deliberately excluded
/// from the journal fingerprint, like [`CampaignSpec::fork_points`].
/// The policy earns its keep against *transient* failures (journal I/O
/// hiccups, the self-fault-injection drills of [`SelfFault`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per seed (and per journal append) before quarantine.
    /// Clamped to at least 1.
    pub max_attempts: u32,
    /// Base backoff in milliseconds; attempt `k` sleeps
    /// `backoff_ms << (k-1)` (capped at 64× the base). `0` disables
    /// sleeping, which tests use to keep retries instant.
    pub backoff_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_ms: 10,
        }
    }
}

impl RetryPolicy {
    /// The sleep before re-attempting after failure number `attempt`
    /// (1-based): exponential in the attempt, capped at 64× the base.
    pub fn backoff(&self, attempt: u32) -> Duration {
        Duration::from_millis(
            self.backoff_ms
                .saturating_mul(1u64 << attempt.saturating_sub(1).min(6)),
        )
    }
}

/// Self-fault injection for the campaign runner itself: the repo's
/// fault-injection philosophy applied to its own campaign machinery.
/// Seeds listed here fail *inside the runner* (a deliberate panic in
/// the per-seed `catch_unwind` scope), driving the retry/backoff and
/// poison-quarantine paths that real crashes would otherwise exercise
/// only by accident. Empty by default. Unlike the retry policy this
/// **does** change records (a poisoned seed lands as `Due`), so a
/// non-empty injection set enters the journal fingerprint — a drill
/// journal can never be mistaken for (or resumed into) a clean one.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SelfFault {
    /// Seeds that panic on **every** attempt — they exhaust the retry
    /// budget and land in quarantine (`Due`, `quarantined: true`).
    pub poison: Vec<u64>,
    /// `(seed, failures)` pairs that panic on the first `failures`
    /// attempts and then succeed — they exercise retry-then-recover.
    pub flaky: Vec<(u64, u32)>,
}

impl SelfFault {
    /// Whether attempt number `attempt` (1-based) of `seed` should be
    /// made to fail.
    pub fn should_fail(&self, seed: u64, attempt: u32) -> bool {
        self.poison.contains(&seed)
            || self
                .flaky
                .iter()
                .any(|&(s, fails)| s == seed && attempt <= fails)
    }

    /// Whether any injection is configured.
    pub fn is_empty(&self) -> bool {
        self.poison.is_empty() && self.flaky.is_empty()
    }
}

/// Everything that determines a campaign's results. Two specs with equal
/// fields produce byte-identical summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Seed of the first run; run `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Number of seeded runs.
    pub runs: usize,
    /// Strikes injected per run.
    pub strikes_per_run: usize,
    /// Cycle horizon the strikes are spread over.
    pub horizon: u64,
    /// Fraction-of-horizon window `[lo, hi)` the strike cycles are drawn
    /// from. The default `(0.0, 1.0)` keeps the legacy whole-horizon
    /// schedule (and the legacy fingerprint — the window only enters the
    /// journal header when it is non-default, so existing journals stay
    /// readable). A late-strike campaign uses e.g. `(0.8, 1.0)`.
    pub strike_window: (f64, f64),
    /// Number of clean-prefix fork points to checkpoint across the
    /// strike window; `0` disables forking. Forking is a pure
    /// accelerator — results are bit-identical either way — so this
    /// field is deliberately **not** part of the fingerprint.
    pub fork_points: usize,
    /// Sensor coverage: fraction of strikes the mesh hears.
    pub coverage: f64,
    /// Fraction of strikes aimed at control-flow state (PC/SIMT stack).
    pub control_fraction: f64,
    /// Fraction of strikes aimed at recovery hardware (RPT/RBQ).
    pub recovery_fraction: f64,
    /// Scheme under test.
    pub scheme: Scheme,
    /// Platform configuration.
    pub cfg: ExperimentConfig,
    /// Recovery-protocol budgets.
    pub proto: ProtocolConfig,
    /// Forward-progress watchdog horizon override, in cycles. `0`
    /// inherits [`ProtocolConfig::hang_window`] (the default, so legacy
    /// specs are unchanged); a nonzero value replaces it. The effective
    /// value enters the journal fingerprint only when it differs from
    /// the protocol default; see [`CampaignSpec::effective_hang_window`].
    pub watchdog: u64,
    /// Per-seed retry/backoff policy. Telemetry-only (excluded from the
    /// fingerprint): deterministic crashes re-crash identically, so the
    /// records cannot depend on it.
    pub retry: RetryPolicy,
    /// Runner self-fault injection (drills only; empty by default,
    /// fingerprinted only when non-empty).
    pub self_fault: SelfFault,
}

impl CampaignSpec {
    /// The journal header line identifying this spec. Byte-stable: a
    /// resumed campaign refuses a journal whose header differs. The
    /// strike window is appended only when non-default so pre-window
    /// journals keep matching, and [`CampaignSpec::fork_points`] never
    /// appears — forking cannot change the records.
    pub fn fingerprint(&self, workload: &str) -> String {
        let mut s = format!(
            concat!(
                "{{\"flame_campaign\":1,\"workload\":{},\"scheme\":{},",
                "\"base_seed\":{},\"runs\":{},\"strikes\":{},\"horizon\":{},",
                "\"coverage\":{},\"control\":{},\"recovery\":{},",
                "\"wcdl\":{},\"max_cycles\":{},\"num_sms\":{},",
                "\"nested\":{},\"cta\":{},\"kernel\":{},\"hang\":{},\"parity\":{}}}"
            ),
            json_escape(workload),
            json_escape(self.scheme.name()),
            self.base_seed,
            self.runs,
            self.strikes_per_run,
            self.horizon,
            self.coverage.to_bits(),
            self.control_fraction.to_bits(),
            self.recovery_fraction.to_bits(),
            self.cfg.wcdl,
            self.cfg.max_cycles,
            self.cfg.gpu.num_sms,
            self.proto.max_nested_recoveries,
            self.proto.max_cta_relaunches,
            self.proto.max_kernel_relaunches,
            self.proto.hang_window,
            self.proto.rpt_parity,
        );
        if self.strike_window != (0.0, 1.0) {
            s.pop(); // final '}'
            let _ = write!(
                s,
                ",\"window\":[{},{}]}}",
                self.strike_window.0.to_bits(),
                self.strike_window.1.to_bits()
            );
        }
        // The watchdog override enters only when it actually changes the
        // effective horizon, so default campaigns keep the legacy header
        // and old journals stay resumable.
        let wd = self.effective_hang_window();
        if wd != self.proto.hang_window {
            s.pop();
            let _ = write!(s, ",\"watchdog\":{wd}}}");
        }
        // A self-fault drill changes records; fence its journals off.
        if !self.self_fault.is_empty() {
            s.pop();
            let _ = write!(s, ",\"self_fault\":\"");
            for (i, seed) in self.self_fault.poison.iter().enumerate() {
                let _ = write!(s, "{}p{seed}", if i > 0 { ";" } else { "" });
            }
            for (i, (seed, fails)) in self.self_fault.flaky.iter().enumerate() {
                let sep = if i > 0 || !self.self_fault.poison.is_empty() {
                    ";"
                } else {
                    ""
                };
                let _ = write!(s, "{sep}f{seed}:{fails}");
            }
            let _ = write!(s, "\"}}");
        }
        s
    }

    /// The forward-progress watchdog horizon this campaign actually
    /// runs with: [`CampaignSpec::watchdog`] when nonzero, else
    /// [`ProtocolConfig::hang_window`].
    pub fn effective_hang_window(&self) -> u64 {
        if self.watchdog > 0 {
            self.watchdog
        } else {
            self.proto.hang_window
        }
    }

    /// [`CampaignSpec::proto`] with the effective watchdog horizon
    /// substituted — what every seeded run is actually driven with.
    pub fn effective_proto(&self) -> ProtocolConfig {
        ProtocolConfig {
            hang_window: self.effective_hang_window(),
            ..self.proto
        }
    }

    /// The campaign's seeds: `base_seed..base_seed + runs`.
    pub(crate) fn seeds(&self) -> Range<u64> {
        self.base_seed..self.base_seed + self.runs as u64
    }

    /// The absolute cycle bounds `[lo, hi)` strikes are drawn from:
    /// [`CampaignSpec::strike_window`] scaled onto the horizon. The
    /// default window maps to `(0, horizon)` exactly, preserving the
    /// legacy schedule bit-for-bit.
    pub fn strike_bounds(&self) -> (u64, u64) {
        let h = self.horizon.max(1);
        let (lo_f, hi_f) = self.strike_window;
        if (lo_f, hi_f) == (0.0, 1.0) {
            return (0, h);
        }
        let lo = ((h as f64 * lo_f) as u64).min(h);
        let hi = ((h as f64 * hi_f) as u64).clamp(lo, h);
        (lo, hi)
    }
}

/// The deterministic strike schedule seed `seed` injects under `spec` —
/// the exact strikes [`run_one_seed`] and [`trace_one_seed`] use, public
/// so tests and the fork layer can bucket a seed's first strike cycle
/// without running it.
pub fn strikes_for_seed(spec: &CampaignSpec, seed: u64) -> Vec<Strike> {
    let mut gen = StrikeGenerator::new(seed, spec.cfg.wcdl, spec.cfg.gpu.num_sms)
        .with_coverage(spec.coverage)
        .with_target_mix(spec.control_fraction, spec.recovery_fraction);
    let (lo, hi) = spec.strike_bounds();
    gen.schedule_in(spec.strikes_per_run, lo, hi)
}

/// One finished seeded run, exactly as journaled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRecord {
    /// The run's seed.
    pub seed: u64,
    /// Taxonomy classification.
    pub outcome: Outcome,
    /// Strikes that landed on a valid SM while the kernel ran.
    pub injected: u64,
    /// Strikes the sensor mesh never heard.
    pub undetected: u64,
    /// Region rollbacks performed.
    pub recoveries: u64,
    /// Detections inside a previous recovery's WCDL window.
    pub nested: u64,
    /// CTA relaunches (escalation rung 2).
    pub cta_relaunches: u64,
    /// Kernel relaunches (escalation rung 3).
    pub kernel_relaunches: u64,
    /// Cycles of the final kernel attempt.
    pub cycles: u64,
    /// The run panicked or failed to launch; classified [`Outcome::Due`].
    pub crashed: bool,
    /// Cycle of the clean-prefix checkpoint this run forked from; `0`
    /// when it ran from scratch (fork disabled or checkpoint miss).
    /// Telemetry only — never part of outcome classification.
    pub fork_cycle: u64,
    /// Cycles actually stepped across every kernel attempt of this run:
    /// the post-checkpoint suffix for a forked run, the whole simulation
    /// otherwise. `0` on records loaded from pre-fork journals.
    pub sim_cycles: u64,
    /// Whether a checkpoint at or before the first strike existed when
    /// this run was scheduled (`fork_cycle > 0` implies `fork_hit`).
    pub fork_hit: bool,
    /// Attempts this seed took (1 = first try succeeded). Telemetry
    /// only; `1` on records loaded from pre-retry journals.
    pub attempts: u64,
    /// The seed crashed on every attempt and was quarantined: recorded
    /// as [`Outcome::Due`] so the shard keeps moving instead of
    /// stalling on a poison seed. Telemetry flag; implies `crashed`.
    pub quarantined: bool,
}

impl RunRecord {
    /// The record's journal line (no trailing newline). Fixed key order;
    /// [`RunRecord::parse`] is its exact inverse.
    pub fn to_line(&self) -> String {
        format!(
            concat!(
                "{{\"seed\":{},\"outcome\":\"{}\",\"injected\":{},",
                "\"undetected\":{},\"recoveries\":{},\"nested\":{},",
                "\"cta\":{},\"kernel\":{},\"cycles\":{},\"crashed\":{},",
                "\"fork_cycle\":{},\"sim_cycles\":{},\"fork_hit\":{},",
                "\"attempts\":{},\"quarantined\":{}}}"
            ),
            self.seed,
            self.outcome.name(),
            self.injected,
            self.undetected,
            self.recoveries,
            self.nested,
            self.cta_relaunches,
            self.kernel_relaunches,
            self.cycles,
            self.crashed,
            self.fork_cycle,
            self.sim_cycles,
            self.fork_hit,
            self.attempts,
            self.quarantined,
        )
    }

    /// Parses a journal line: exactly one complete JSON object. Returns
    /// `None` for anything else — notably a truncated tail line from a
    /// killed campaign, or such a fragment with a complete record
    /// appended on the same line. The telemetry keys added after the
    /// first journals default to zero/false/one when absent, so older
    /// journals still load and resume; when present they must be
    /// well-formed like every other key.
    pub fn parse(line: &str) -> Option<RunRecord> {
        let v = JsonValue::parse(line).ok()?;
        let int = |key: &str| v.get(key)?.as_u64();
        let flag = |key: &str| v.get(key)?.as_bool();
        let int_or = |key: &str, absent: u64| v.get(key).map_or(Some(absent), JsonValue::as_u64);
        let flag_or = |key: &str| v.get(key).map_or(Some(false), JsonValue::as_bool);
        Some(RunRecord {
            seed: int("seed")?,
            outcome: Outcome::parse(v.get("outcome")?.as_str()?)?,
            injected: int("injected")?,
            undetected: int("undetected")?,
            recoveries: int("recoveries")?,
            nested: int("nested")?,
            cta_relaunches: int("cta")?,
            kernel_relaunches: int("kernel")?,
            cycles: int("cycles")?,
            crashed: flag("crashed")?,
            fork_cycle: int_or("fork_cycle", 0)?,
            sim_cycles: int_or("sim_cycles", 0)?,
            fork_hit: flag_or("fork_hit")?,
            attempts: int_or("attempts", 1)?,
            quarantined: flag_or("quarantined")?,
        })
    }
}

/// Errors from the campaign runner.
#[derive(Debug)]
pub enum RunnerError {
    /// The journal file exists but its header does not match this spec.
    JournalMismatch {
        /// Header found in the journal.
        found: String,
        /// Header this spec expects.
        expected: String,
    },
    /// Journal I/O failed.
    Io(std::io::Error),
    /// A graceful shutdown (SIGTERM/SIGINT) stopped the campaign before
    /// every seed ran; the payload is the number of seeds still
    /// missing. The journals are flushed and the leases released —
    /// re-running the same spec over the same directory resumes exactly
    /// where the shutdown landed.
    Interrupted(usize),
}

impl std::fmt::Display for RunnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunnerError::JournalMismatch { found, expected } => write!(
                f,
                "journal belongs to a different campaign\n  found:    {found}\n  expected: {expected}"
            ),
            RunnerError::Io(e) => write!(f, "journal i/o failed: {e}"),
            RunnerError::Interrupted(missing) => write!(
                f,
                "campaign interrupted by shutdown with {missing} seeds missing (resumable)"
            ),
        }
    }
}

impl From<std::io::Error> for RunnerError {
    fn from(e: std::io::Error) -> RunnerError {
        RunnerError::Io(e)
    }
}

/// Aggregate of a finished campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Spec fingerprint (the journal header).
    pub header: String,
    /// All run records, sorted by seed.
    pub records: Vec<RunRecord>,
    /// Outcome counts, indexed in [`Outcome::ALL`] order.
    pub counts: [usize; 5],
    /// Cycles of the fault-free baseline run.
    pub clean_cycles: u64,
    /// Seeds simulated by *this* invocation (the rest came from the
    /// journal).
    pub ran_now: usize,
}

/// Outcome counts of a record set, indexed in [`Outcome::ALL`] order —
/// the one histogram behind [`CampaignSummary::counts`] and
/// [`crate::report::SummaryJson`].
pub(crate) fn outcome_counts(records: &[RunRecord]) -> [usize; 5] {
    let mut counts = [0usize; 5];
    for r in records {
        let i = Outcome::ALL.iter().position(|&o| o == r.outcome);
        counts[i.expect("Outcome::ALL lists every outcome")] += 1;
    }
    counts
}

impl CampaignSummary {
    /// The summary of a record set: sorted by seed, with its histogram.
    pub(crate) fn new(
        header: String,
        mut records: Vec<RunRecord>,
        clean_cycles: u64,
        ran_now: usize,
    ) -> CampaignSummary {
        records.sort_by_key(|r| r.seed);
        CampaignSummary {
            header,
            counts: outcome_counts(&records),
            records,
            clean_cycles,
            ran_now,
        }
    }

    /// Count of one outcome.
    pub fn count(&self, o: Outcome) -> usize {
        self.counts[Outcome::ALL.iter().position(|&x| x == o).unwrap()]
    }

    /// Observed rate of one outcome.
    pub fn rate(&self, o: Outcome) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.count(o) as f64 / self.records.len() as f64
        }
    }

    /// Deterministic human-readable report. Byte-identical for equal
    /// record sets, however the campaign was scheduled or resumed.
    /// Renders through the structured [`crate::report::SummaryJson`],
    /// the same data the campaign server serializes — text and JSON
    /// cannot drift.
    pub fn render(&self) -> String {
        crate::report::SummaryJson::from_summary(self).render_text()
    }
}

/// Wilson score interval for `k` successes in `n` trials at critical
/// value `z` (1.96 for 95%). Clamped to `[0, 1]`; `(0, 1)` when `n = 0`.
/// Always finite: `k` is clamped to `n` (a corrupt count cannot push
/// the variance term negative and surface `NaN` in a JSON response),
/// and the `n = 0` / `n = 1` degenerate campaigns get well-defined
/// bounds instead of a division by zero.
pub fn wilson_interval(k: usize, n: usize, z: f64) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    let nf = n as f64;
    let p = (k.min(n)) as f64 / nf;
    let z2 = z * z;
    let denom = 1.0 + z2 / nf;
    let center = p + z2 / (2.0 * nf);
    let half = z * (p * (1.0 - p) / nf + z2 / (4.0 * nf * nf)).max(0.0).sqrt();
    (
        ((center - half) / denom).max(0.0),
        ((center + half) / denom).min(1.0),
    )
}

/// Simulates one seed of the spec from scratch. Public so tests and the
/// report binary can replay a single seed in isolation. The record is
/// bit-identical to a forked run of the seed (see
/// [`run_one_seed_retrying`]) modulo the fork telemetry fields. When the
/// process's baseline memo holds this campaign's clean run, the seed
/// copies its seeded inputs instead of calling the workload's `init`.
pub fn run_one_seed(w: &WorkloadSpec, spec: &CampaignSpec, seed: u64) -> RunRecord {
    let memo = memoized_slot(w, spec);
    let opts = RunOptions {
        inputs: memo.as_ref().and_then(|m| m.get()?.inputs.as_ref()),
        ..RunOptions::default()
    };
    run_one_seed_attempt(w, spec, seed, &[], opts, 1)
}

/// One attempt of one seed, forking from the best clean-prefix
/// checkpoint: the highest-cycle snapshot at or below the seed's first
/// strike cycle (a strikeless seed forks from the last checkpoint). With
/// no usable checkpoint the run falls back to scratch. Outcome and
/// counters are bit-identical either way — only the
/// `fork_cycle`/`sim_cycles`/`fork_hit` telemetry differs. The same
/// holds whatever `opts` carries besides the checkpoint
/// ([`RunOptions::clean_image`], [`RunOptions::inputs`]).
/// Attempt numbers only matter to the [`SelfFault`] drill hook — a
/// genuine simulation is identical on every attempt.
fn run_one_seed_attempt(
    w: &WorkloadSpec,
    spec: &CampaignSpec,
    seed: u64,
    checkpoints: &[Snapshot],
    opts: RunOptions,
    attempt: u32,
) -> RunRecord {
    let proto = spec.effective_proto();
    let result = catch_unwind(AssertUnwindSafe(|| {
        // Self-fault injection: the campaign layer drilling its own
        // crash paths, inside the same catch_unwind isolation a real
        // diseased seed would hit.
        assert!(
            !spec.self_fault.should_fail(seed, attempt),
            "self-fault injection: seed {seed} attempt {attempt}"
        );
        let strikes = strikes_for_seed(spec, seed);
        let first = strikes.first().map_or(u64::MAX, |s| s.cycle);
        let cp = checkpoints
            .iter()
            .filter(|c| c.cycle() <= first)
            .max_by_key(|c| c.cycle());
        let opts = RunOptions {
            fork_from: cp,
            ..opts
        };
        run_with_protocol(w, spec.scheme, &spec.cfg, &strikes, &proto, &opts)
    }));
    match result {
        Ok(Ok(r)) => RunRecord {
            seed,
            outcome: classify(&r),
            injected: r.injected as u64,
            undetected: r.undetected as u64,
            recoveries: r.recoveries as u64,
            nested: r.nested_detections as u64,
            cta_relaunches: u64::from(r.cta_relaunches),
            kernel_relaunches: u64::from(r.kernel_relaunches),
            cycles: r.run.stats.cycles,
            crashed: false,
            fork_cycle: r.fork.fork_cycle,
            sim_cycles: r.fork.simulated_cycles,
            fork_hit: r.fork.fork_cycle > 0,
            attempts: u64::from(attempt),
            quarantined: false,
        },
        // A launch/alloc error or a panic is a crash: the campaign
        // records it as a detected-unrecoverable run and moves on.
        Ok(Err(_)) | Err(_) => RunRecord {
            seed,
            outcome: Outcome::Due,
            injected: 0,
            undetected: 0,
            recoveries: 0,
            nested: 0,
            cta_relaunches: 0,
            kernel_relaunches: 0,
            cycles: 0,
            crashed: true,
            fork_cycle: 0,
            sim_cycles: 0,
            fork_hit: false,
            attempts: u64::from(attempt),
            quarantined: false,
        },
    }
}

/// Simulates one seed under the spec's [`RetryPolicy`]: a crashed
/// attempt (panic or launch failure) is retried with exponential
/// backoff; a seed still crashing after `max_attempts` tries is a
/// **poison seed** and is quarantined — recorded as [`Outcome::Due`]
/// with the `quarantined` telemetry flag so the campaign (or its shard)
/// keeps moving instead of stalling on it. The seed loop behind the
/// serial runner and the sharded workers retries the same way, and also
/// hands each seed its baseline's clean image. Like [`run_one_seed`], a
/// scratch start copies the memoized baseline's seeded inputs when the
/// memo holds this campaign's clean run.
pub fn run_one_seed_retrying(
    w: &WorkloadSpec,
    spec: &CampaignSpec,
    seed: u64,
    checkpoints: &[Snapshot],
) -> RunRecord {
    let memo = memoized_slot(w, spec);
    let opts = RunOptions {
        inputs: memo.as_ref().and_then(|m| m.get()?.inputs.as_ref()),
        ..RunOptions::default()
    };
    retry_seed(w, spec, seed, checkpoints, opts)
}

/// [`run_one_seed_retrying`] with the given clean image and inputs.
fn retry_seed(
    w: &WorkloadSpec,
    spec: &CampaignSpec,
    seed: u64,
    checkpoints: &[Snapshot],
    opts: RunOptions,
) -> RunRecord {
    let max = spec.retry.max_attempts.max(1);
    let mut attempt = 1u32;
    loop {
        let mut rec = run_one_seed_attempt(w, spec, seed, checkpoints, opts, attempt);
        if !rec.crashed {
            return rec;
        }
        if attempt >= max {
            rec.quarantined = true;
            return rec;
        }
        thread::sleep(spec.retry.backoff(attempt));
        attempt += 1;
    }
}

/// Replays one seed of the spec with event tracing enabled: the result's
/// [`FaultProtocolResult::trace`] holds the merged timeline. The strikes
/// are the same deterministic schedule [`run_one_seed`] would inject, so
/// a seed whose campaign record looks suspicious (an SDC, a watchdog
/// hang) can be re-simulated under the tracer and inspected cycle by
/// cycle in a Chrome-trace viewer. Unlike [`run_one_seed`] this does not
/// absorb failures: a trace of a crashed run would be misleading.
///
/// # Errors
///
/// Returns an [`crate::experiment::ExperimentError`] on compile or
/// allocation/launch failure.
pub fn trace_one_seed(
    w: &WorkloadSpec,
    spec: &CampaignSpec,
    seed: u64,
    capacity: usize,
) -> Result<FaultProtocolResult, crate::experiment::ExperimentError> {
    let strikes = strikes_for_seed(spec, seed);
    let memo = memoized_slot(w, spec);
    let opts = RunOptions {
        trace: Some(capacity),
        inputs: memo.as_ref().and_then(|m| m.get()?.inputs.as_ref()),
        ..RunOptions::default()
    };
    run_with_protocol(
        w,
        spec.scheme,
        &spec.cfg,
        &strikes,
        &spec.effective_proto(),
        &opts,
    )
}

/// The checkpoint grid for a spec: `fork_points` cycles evenly spaced
/// across the strike window (where forking pays), deduplicated, with
/// cycle 0 dropped — a fork from cycle 0 is just a scratch run.
fn fork_grid(spec: &CampaignSpec) -> Vec<u64> {
    if spec.fork_points == 0 {
        return Vec::new();
    }
    let (lo, hi) = spec.strike_bounds();
    let span = hi - lo;
    let n = spec.fork_points as u64;
    let mut grid: Vec<u64> = (0..n).map(|k| lo + span * k / n).collect();
    grid.dedup();
    grid.retain(|&c| c > 0);
    grid
}

/// A campaign's fault-free run: what [`CampaignSummary::clean_cycles`]
/// reports, what every seed forks from and what its output is compared
/// with.
#[derive(Debug, Default)]
pub struct Baseline {
    /// Cycles of the clean run; `0` when it fails to launch or exhausts
    /// the cycle budget.
    pub cycles: u64,
    /// Clean-prefix snapshots at the fork-grid cycles the run reached.
    pub checkpoints: Vec<Snapshot>,
    /// The clean run's final image, kept only when the workload's
    /// `check` accepts it: the seed loop passes it as
    /// [`RunOptions::clean_image`], so a seed that ends on it skips the
    /// check. `None` leaves every seed to the check.
    pub image: Option<GlobalMemory>,
    /// The clean run's device image right after `init` seeded it,
    /// sharing its pages copy-on-write: every seed that starts from
    /// scratch copies it as [`RunOptions::inputs`] instead of calling
    /// `init`. `None` when the run failed to launch or timed out.
    pub inputs: Option<GlobalMemory>,
}

/// Simulates the spec's fault-free run once, pausing at each cycle of the
/// `fork_points` grid to capture a copy-on-write [`Snapshot`]. The cycle
/// count equals an unpaused run's (the event clock's step-bound
/// invariance); a launch failure or cycle-budget timeout yields the
/// empty [`Baseline`]. The seeded inputs and the final image are kept
/// with no page copied, the image only if the workload's `check` accepts
/// it: one check per campaign. The one baseline of every campaign path:
/// the serial runner and the shard workers fork from it (through the
/// process's baseline memo), and the server reads its cycles for a
/// campaign it rediscovered complete. It always simulates; it neither
/// reads nor fills the memo.
pub fn clean_baseline(w: &WorkloadSpec, spec: &CampaignSpec) -> Baseline {
    let Ok((mut gpu, _compile)) = crate::experiment::prepare_scheme(w, spec.scheme, &spec.cfg)
    else {
        return Baseline::default();
    };
    let inputs = gpu.memory_base();
    let max = spec.cfg.max_cycles;
    let mut checkpoints = Vec::new();
    let mut running = gpu.running();
    for cp in fork_grid(spec) {
        while running && gpu.cycle() < cp {
            if gpu.cycle() >= max {
                return Baseline::default();
            }
            running = gpu.step_window(cp);
        }
        if running && gpu.cycle() == cp {
            checkpoints.push(gpu.snapshot());
        }
    }
    while running {
        if gpu.cycle() >= max {
            return Baseline::default();
        }
        running = gpu.step_window(max);
    }
    let cycles = gpu.cycle();
    let image = gpu.into_global();
    Baseline {
        cycles,
        checkpoints,
        image: (w.check)(&image).then_some(image),
        inputs: Some(inputs),
    }
}

/// Everything [`clean_baseline`] reads: two campaigns with equal keys
/// have the same clean run. The workload's closures are compared by
/// address; the key holds clones of both `Arc`s, so no other closure can
/// take either address while the key lives.
struct BaselineKey {
    init: Arc<dyn Fn(&mut GlobalMemory) + Send + Sync>,
    check: Arc<dyn Fn(&GlobalMemory) -> bool + Send + Sync>,
    kernel: Kernel,
    dims: LaunchDims,
    scheme: Scheme,
    cfg: ExperimentConfig,
    grid: Vec<u64>,
}

impl BaselineKey {
    fn new(w: &WorkloadSpec, spec: &CampaignSpec) -> BaselineKey {
        BaselineKey {
            init: Arc::clone(&w.init),
            check: Arc::clone(&w.check),
            kernel: w.kernel.clone(),
            dims: w.dims,
            scheme: spec.scheme,
            cfg: spec.cfg.clone(),
            grid: fork_grid(spec),
        }
    }

    fn matches(&self, w: &WorkloadSpec, spec: &CampaignSpec) -> bool {
        Arc::ptr_eq(&self.init, &w.init)
            && Arc::ptr_eq(&self.check, &w.check)
            && self.kernel == w.kernel
            && self.dims == w.dims
            && self.scheme == spec.scheme
            && self.cfg == spec.cfg
            && self.grid == fork_grid(spec)
    }
}

/// A baseline, simulated on first need by whichever campaign gets there
/// first; the campaigns sharing the slot wait in `get_or_init`.
type BaselineSlot = Arc<OnceLock<Baseline>>;

/// The process's last campaign baseline, keyed by what it was simulated
/// from. One entry: a campaign with another key replaces it. Nothing
/// simulates while the lock is held, and every update is one assignment,
/// so a poisoned lock still guards a valid entry.
static BASELINE_MEMO: Mutex<Option<(BaselineKey, BaselineSlot)>> = Mutex::new(None);

/// The baseline slot of a campaign: the memo's when its key matches,
/// else a fresh one that replaces the memo's entry. A campaign holds its
/// slot until its summary is built, so a campaign that replaces the
/// entry meanwhile cannot make it simulate twice.
pub(crate) fn baseline_slot(w: &WorkloadSpec, spec: &CampaignSpec) -> BaselineSlot {
    let mut memo = BASELINE_MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    match &*memo {
        Some((key, slot)) if key.matches(w, spec) => Arc::clone(slot),
        _ => {
            let slot = BaselineSlot::default();
            *memo = Some((BaselineKey::new(w, spec), Arc::clone(&slot)));
            slot
        }
    }
}

/// The memo's slot of a campaign, if the memo holds its key. Never fills
/// the memo; reading the slot with [`OnceLock::get`] never waits for a
/// baseline still being simulated.
fn memoized_slot(w: &WorkloadSpec, spec: &CampaignSpec) -> Option<BaselineSlot> {
    let memo = BASELINE_MEMO.lock().unwrap_or_else(PoisonError::into_inner);
    match &*memo {
        Some((key, slot)) if key.matches(w, spec) => Some(Arc::clone(slot)),
        _ => None,
    }
}

/// A destination journal lines are appended to. `File` is the real
/// sink; tests substitute failure-injecting fakes to pin the bounded
/// retry/backoff behaviour of [`append_with_retry`].
pub(crate) trait JournalSink {
    /// Appends raw bytes.
    fn write_line(&mut self, payload: &str) -> std::io::Result<()>;
    /// Forces the bytes to stable storage.
    fn sync(&mut self) -> std::io::Result<()>;
}

impl JournalSink for File {
    fn write_line(&mut self, payload: &str) -> std::io::Result<()> {
        self.write_all(payload.as_bytes())
    }
    fn sync(&mut self) -> std::io::Result<()> {
        self.sync_data()
    }
}

/// Appends `line` (no trailing newline) to the journal and fsyncs it,
/// retrying transient write errors with the policy's bounded
/// exponential backoff instead of giving up on the first hiccup. Every
/// retry starts the record on a fresh line: a previous attempt may have
/// landed partially, and a stray malformed fragment is harmlessly
/// dropped at load time, whereas a merged fragment could parse as a
/// wrong record. Callers only count a record after this returns `Ok` —
/// a crash at any point therefore at worst re-runs the seed, never
/// loses or double-counts it.
pub(crate) fn append_with_retry<S: JournalSink>(
    sink: &mut S,
    line: &str,
    policy: RetryPolicy,
) -> std::io::Result<()> {
    let max = policy.max_attempts.max(1);
    let mut payload = format!("{line}\n");
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match sink.write_line(&payload).and_then(|()| sink.sync()) {
            Ok(()) => return Ok(()),
            Err(e) if attempt >= max => return Err(e),
            Err(_) => {
                payload = format!("\n{line}\n");
                thread::sleep(policy.backoff(attempt));
            }
        }
    }
}

/// The one journal reader (resume, the shard-claim scan, the merge and
/// the server's tailer): the records `path` holds for `seeds`, sorted and
/// one per seed — records are deterministic, so the first copy of a
/// repeated seed serves. A missing or empty file reads as empty; a
/// malformed line (a torn tail) is skipped.
///
/// # Errors
///
/// [`RunnerError::JournalMismatch`] for a foreign header, plus I/O errors.
pub(crate) fn read_journal(
    path: &Path,
    header: &str,
    seeds: Range<u64>,
) -> Result<Vec<RunRecord>, RunnerError> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut lines = BufReader::new(file).lines();
    let Some(found) = lines.next().transpose()? else {
        return Ok(Vec::new());
    };
    if found.trim_end() != header {
        return Err(RunnerError::JournalMismatch {
            found,
            expected: header.to_string(),
        });
    }
    let mut records = Vec::new();
    for line in lines {
        if let Some(r) = RunRecord::parse(&line?).filter(|r| seeds.contains(&r.seed)) {
            records.push(r);
        }
    }
    records.sort_by_key(|r| r.seed);
    records.dedup_by_key(|r| r.seed);
    Ok(records)
}

/// The seeds of `seeds` that `done` (sorted by seed) lacks.
pub(crate) fn missing_seeds(seeds: Range<u64>, done: &[RunRecord]) -> Vec<u64> {
    seeds
        .filter(|s| done.binary_search_by_key(s, |r| r.seed).is_err())
        .collect()
}

/// Opens a journal to resume it: reads the records it already holds for
/// `seeds` ([`read_journal`]), then opens it for appending, writing
/// `header` when the file is fresh and newline-terminating a truncated
/// tail left by a kill mid-write. Freshness is judged by content, not
/// existence: a kill between create and the header write leaves an
/// empty file that still needs its header.
pub(crate) fn open_journal(
    path: &Path,
    header: &str,
    seeds: Range<u64>,
) -> Result<(Vec<RunRecord>, File), RunnerError> {
    let done = read_journal(path, header, seeds)?;
    let mut f = OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)?;
    if f.metadata()?.len() == 0 {
        writeln!(f, "{header}")?;
    } else {
        let mut last = [0u8];
        f.seek(SeekFrom::End(-1))?;
        f.read_exact(&mut last)?;
        if last[0] != b'\n' {
            // A kill mid-write left a truncated tail with no newline.
            // Terminate it so the first appended record starts its own
            // line — otherwise the two would share one line, and that
            // line must not count as a record.
            writeln!(f)?;
        }
    }
    f.flush()?;
    f.sync_data()?;
    Ok((done, f))
}

/// Per-seed hooks of [`run_seeds`], through which a shard worker
/// heartbeats its lease, honours a shutdown request and fires its
/// drills; a serial campaign has none. Either returning `false` stops
/// every worker thread after its seed in flight.
pub(crate) trait SeedGate: Sync {
    /// Called before each seed.
    fn proceed(&self) -> bool;
    /// Called after each record is journaled.
    fn journaled(&self) -> bool;
}

/// Every seed runs inside `catch_unwind`, so a lock held across a panic is
/// a bug in the loop itself.
const POISONED: &str = "a seed-loop thread panicked while holding a lock";

/// The one seed loop behind every campaign. Runs the `todo` seeds on
/// `jobs` threads, each forked from the checkpoints of `baseline`
/// (simulated here on first need) or started from a copy of its seeded
/// inputs, and compared with its clean image before the workload's
/// check, and appends every record to `journal` —
/// fsynced, with bounded retry — before it counts. Returns the records
/// run, in completion order.
///
/// # Errors
///
/// A journal append that still fails after the spec's retry budget
/// stops the loop and is returned; the seeds journaled before it stay
/// journaled.
pub(crate) fn run_seeds(
    w: &WorkloadSpec,
    spec: &CampaignSpec,
    baseline: &OnceLock<Baseline>,
    todo: &[u64],
    journal: Option<File>,
    jobs: usize,
    gate: Option<&dyn SeedGate>,
) -> std::io::Result<Vec<RunRecord>> {
    if todo.is_empty() {
        return Ok(Vec::new());
    }
    let base = baseline.get_or_init(|| clean_baseline(w, spec));
    let opts = RunOptions {
        clean_image: base.image.as_ref(),
        inputs: base.inputs.as_ref(),
        ..RunOptions::default()
    };
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let sink = journal.map(Mutex::new);
    // The records run so far, and the append error that stopped the loop.
    let out = Mutex::new((Vec::with_capacity(todo.len()), None));
    thread::scope(|s| {
        for _ in 0..jobs.clamp(1, todo.len()) {
            s.spawn(|| {
                while let Some(&seed) = todo.get(next.fetch_add(1, Ordering::Relaxed)) {
                    if stop.load(Ordering::Relaxed) || gate.is_some_and(|g| !g.proceed()) {
                        break;
                    }
                    let rec = retry_seed(w, spec, seed, &base.checkpoints, opts);
                    if let Some(m) = &sink {
                        let line = rec.to_line();
                        if let Err(e) =
                            append_with_retry(&mut *m.lock().expect(POISONED), &line, spec.retry)
                        {
                            out.lock().expect(POISONED).1.get_or_insert(e);
                            break;
                        }
                    }
                    out.lock().expect(POISONED).0.push(rec);
                    if gate.is_some_and(|g| !g.journaled()) {
                        break;
                    }
                }
                // Whatever ended this thread's loop ends every thread's.
                stop.store(true, Ordering::Relaxed);
            });
        }
    });
    match out.into_inner().expect(POISONED) {
        (_, Some(e)) => Err(e),
        (fresh, None) => Ok(fresh),
    }
}

/// Runs (or resumes) the campaign on `jobs` worker threads: the seed
/// loop over the whole seed range and one journal, with no lease, and
/// the baseline from the process's memo when an earlier campaign left
/// one with the same key. With
/// `journal` given, every finished run is appended to it and a journal
/// that already exists is resumed — its header must match the spec. The
/// returned summary is byte-identical however the work was split
/// between a previous (possibly killed) invocation and this one.
///
/// # Errors
///
/// Journal I/O failures — including an append that still fails after
/// the spec's retry budget — and header mismatches.
///
/// # Panics
///
/// Panics only if a worker thread itself dies outside the per-run
/// `catch_unwind` — i.e. never for a misbehaving workload.
pub fn run_campaign_runner_with_jobs(
    w: &WorkloadSpec,
    spec: &CampaignSpec,
    journal: Option<&Path>,
    jobs: usize,
) -> Result<CampaignSummary, RunnerError> {
    let header = spec.fingerprint(w.name);
    let (mut records, file) = match journal {
        Some(path) => {
            let (done, file) = open_journal(path, &header, spec.seeds())?;
            (done, Some(file))
        }
        None => (Vec::new(), None),
    };
    let todo = missing_seeds(spec.seeds(), &records);
    let baseline = baseline_slot(w, spec);
    let fresh = run_seeds(w, spec, &baseline, &todo, file, jobs, None)?;
    let ran_now = fresh.len();
    records.extend(fresh);
    let clean_cycles = baseline.get_or_init(|| clean_baseline(w, spec)).cycles;
    Ok(CampaignSummary::new(header, records, clean_cycles, ran_now))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn record() -> RunRecord {
        RunRecord {
            seed: 42,
            outcome: Outcome::Sdc,
            injected: 3,
            undetected: 1,
            recoveries: 2,
            nested: 1,
            cta_relaunches: 1,
            kernel_relaunches: 0,
            cycles: 123_456,
            crashed: false,
            fork_cycle: 40_000,
            sim_cycles: 90_000,
            fork_hit: true,
            attempts: 2,
            quarantined: false,
        }
    }

    fn spec() -> CampaignSpec {
        CampaignSpec {
            base_seed: 1,
            runs: 10,
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

    /// A one-warp kernel that exits at once, judged by `check`.
    fn exit_workload(check: Arc<dyn Fn(&GlobalMemory) -> bool + Send + Sync>) -> WorkloadSpec {
        let mut b = gpu_sim::builder::KernelBuilder::new("exit");
        b.exit();
        WorkloadSpec {
            name: "exit",
            abbr: "EXIT",
            suite: "test",
            kernel: b.finish(),
            dims: gpu_sim::sm::LaunchDims::linear(1, 32),
            init: Arc::new(|_| {}),
            check,
        }
    }

    #[test]
    fn a_clean_run_that_fails_its_check_leaves_every_seed_to_the_check() {
        let calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&calls);
        let w = exit_workload(Arc::new(move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
            false
        }));
        let spec = spec();
        let summary = run_campaign_runner_with_jobs(&w, &spec, None, 2).unwrap();
        assert_eq!(summary.records.len(), spec.runs);
        for r in &summary.records {
            assert!(!r.crashed, "seed {} crashed", r.seed);
            assert_eq!(r.outcome, Outcome::Sdc, "seed {}", r.seed);
        }
        assert_eq!(
            calls.load(Ordering::Relaxed),
            spec.runs + 1,
            "one check per seed plus the baseline's"
        );
        assert!(
            clean_baseline(&w, &spec).image.is_none(),
            "kept a clean image its check refused"
        );
    }

    #[test]
    fn a_journal_append_that_keeps_failing_stops_the_loop() {
        let w = exit_workload(Arc::new(|_| true));
        let spec = CampaignSpec {
            retry: RetryPolicy {
                max_attempts: 2,
                backoff_ms: 0,
            },
            ..spec()
        };
        // A read-only handle: every append fails. The loop must return
        // the error rather than count records its journal lacks.
        let journal = File::open(std::env::current_exe().unwrap()).unwrap();
        let todo: Vec<u64> = spec.seeds().collect();
        let ran = run_seeds(&w, &spec, &OnceLock::new(), &todo, Some(journal), 2, None);
        assert!(ran.is_err(), "failed appends were swallowed: {ran:?}");
    }

    #[test]
    fn record_lines_round_trip() {
        for o in Outcome::ALL {
            let r = RunRecord {
                outcome: o,
                crashed: o == Outcome::Due,
                ..record()
            };
            assert_eq!(RunRecord::parse(&r.to_line()), Some(r));
        }
    }

    #[test]
    fn truncated_lines_are_rejected() {
        let line = record().to_line();
        for cut in 1..line.len() {
            assert_eq!(
                RunRecord::parse(&line[..cut]),
                None,
                "prefix of len {cut} parsed"
            );
        }
        assert!(RunRecord::parse("").is_none());
        assert!(RunRecord::parse("{}").is_none());
    }

    #[test]
    fn journal_lines_hold_exactly_one_record() {
        let line = record().to_line();
        let other = RunRecord {
            seed: 43,
            outcome: Outcome::Masked,
            recoveries: 9,
            cycles: 777,
            ..record()
        }
        .to_line();
        // A record cut after `"rec` by a kill, with the next record
        // appended on the same line: neither record may be read from it.
        let cut = line.find("\"rec").unwrap() + 4;
        let merged = format!("{}{other}", &line[..cut]);
        assert_eq!(RunRecord::parse(&merged), None, "{merged}");
        // A complete record followed by trailing bytes.
        let trailing = format!("{line} garbage}}");
        assert_eq!(RunRecord::parse(&trailing), None, "{trailing}");
        // A key of the wrong type is refused, not defaulted.
        let bad = line.replace("\"attempts\":2", "\"attempts\":\"2\"");
        assert_eq!(RunRecord::parse(&bad), None, "{bad}");
        assert_eq!(RunRecord::parse(&format!("  {line}\n")), Some(record()));
    }

    const PINNED_DEFAULT: &str = concat!(
        "{\"flame_campaign\":1,\"workload\":\"backprop\",\"scheme\":\"Sensor+Renaming (Flame)\",",
        "\"base_seed\":1,\"runs\":10,\"strikes\":3,\"horizon\":1000,",
        "\"coverage\":4606281698874543309,\"control\":4591870180066957722,",
        "\"recovery\":4591870180066957722,\"wcdl\":20,\"max_cycles\":500000000,\"num_sms\":16,",
        "\"nested\":8,\"cta\":4,\"kernel\":1,\"hang\":500000,\"parity\":true}"
    );

    const PINNED_DRILL: &str = concat!(
        "{\"flame_campaign\":1,\"workload\":\"backprop\",\"scheme\":\"Sensor+Renaming (Flame)\",",
        "\"base_seed\":1,\"runs\":10,\"strikes\":3,\"horizon\":1000,",
        "\"coverage\":4606281698874543309,\"control\":4591870180066957722,",
        "\"recovery\":4591870180066957722,\"wcdl\":20,\"max_cycles\":500000000,\"num_sms\":16,",
        "\"nested\":8,\"cta\":4,\"kernel\":1,\"hang\":500000,\"parity\":true,",
        "\"window\":[4605380978949069210,4607182418800017408],\"watchdog\":1234,",
        "\"self_fault\":\"p3;f5:2\"}"
    );

    #[test]
    fn wilson_interval_behaves() {
        // Degenerate cases.
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
        let (lo, hi) = wilson_interval(0, 100, 1.96);
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.05);
        let (lo, hi) = wilson_interval(100, 100, 1.96);
        assert!(lo > 0.95 && lo < 1.0);
        assert!(hi > 0.9999);
        // Known value: 50/100 at 95% is about [0.404, 0.596].
        let (lo, hi) = wilson_interval(50, 100, 1.96);
        assert!((lo - 0.404).abs() < 0.005, "lo = {lo}");
        assert!((hi - 0.596).abs() < 0.005, "hi = {hi}");
        // The interval always contains the point estimate and tightens
        // with n.
        let wide = wilson_interval(5, 20, 1.96);
        let tight = wilson_interval(50, 200, 1.96);
        assert!(wide.0 <= 0.25 && 0.25 <= wide.1);
        assert!(tight.1 - tight.0 < wide.1 - wide.0);
    }

    #[test]
    fn fingerprint_distinguishes_specs() {
        let a = spec();
        let b = CampaignSpec {
            coverage: 0.8,
            ..a.clone()
        };
        assert_eq!(a.fingerprint("w"), a.fingerprint("w"));
        assert_ne!(a.fingerprint("w"), b.fingerprint("w"));
        assert_ne!(a.fingerprint("w"), a.fingerprint("v"));
        // The strike window enters the fingerprint only when non-default;
        // fork_points never does (forking cannot change the records).
        let windowed = CampaignSpec {
            strike_window: (0.8, 1.0),
            ..a.clone()
        };
        assert_ne!(a.fingerprint("w"), windowed.fingerprint("w"));
        assert!(!a.fingerprint("w").contains("window"));
        assert!(windowed.fingerprint("w").ends_with("]}"));
        let forkless = CampaignSpec {
            fork_points: 0,
            ..a.clone()
        };
        assert_eq!(a.fingerprint("w"), forkless.fingerprint("w"));
        // The watchdog override enters the fingerprint only when it
        // changes the effective horizon; the retry policy never does.
        assert!(!a.fingerprint("w").contains("watchdog"));
        let watched = CampaignSpec {
            watchdog: 1234,
            ..a.clone()
        };
        assert!(watched.fingerprint("w").contains("\"watchdog\":1234"));
        assert_ne!(a.fingerprint("w"), watched.fingerprint("w"));
        let same_as_default = CampaignSpec {
            watchdog: a.proto.hang_window,
            ..a.clone()
        };
        assert_eq!(a.fingerprint("w"), same_as_default.fingerprint("w"));
        let eager_retry = CampaignSpec {
            retry: RetryPolicy {
                max_attempts: 9,
                backoff_ms: 0,
            },
            ..a.clone()
        };
        assert_eq!(a.fingerprint("w"), eager_retry.fingerprint("w"));
        // A self-fault drill changes records, so it is fenced off.
        let sabotaged = CampaignSpec {
            self_fault: SelfFault {
                poison: vec![3],
                flaky: vec![(5, 2)],
            },
            ..a.clone()
        };
        assert!(!a.fingerprint("w").contains("self_fault"));
        assert!(sabotaged
            .fingerprint("w")
            .contains("\"self_fault\":\"p3;f5:2\""));
        assert_ne!(a.fingerprint("w"), sabotaged.fingerprint("w"));
        // Headers written by earlier versions: a journal only resumes
        // when its header matches byte for byte.
        assert_eq!(a.fingerprint("backprop"), PINNED_DEFAULT);
        let drill = CampaignSpec {
            strike_window: (0.8, 1.0),
            watchdog: 1234,
            ..sabotaged
        };
        assert_eq!(drill.fingerprint("backprop"), PINNED_DRILL);
    }

    #[test]
    fn retry_policy_backoff_is_bounded_exponential() {
        let p = RetryPolicy {
            max_attempts: 5,
            backoff_ms: 10,
        };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(40));
        // Capped at 64x the base so a long retry chain never sleeps
        // unboundedly.
        assert_eq!(p.backoff(40), Duration::from_millis(640));
        let zero = RetryPolicy {
            max_attempts: 3,
            backoff_ms: 0,
        };
        assert_eq!(zero.backoff(3), Duration::from_millis(0));
    }

    #[test]
    fn self_fault_schedule_and_env_parsing() {
        let f = SelfFault {
            poison: vec![7],
            flaky: vec![(9, 2)],
        };
        assert!(f.should_fail(7, 1) && f.should_fail(7, 99));
        assert!(f.should_fail(9, 1) && f.should_fail(9, 2));
        assert!(!f.should_fail(9, 3));
        assert!(!f.should_fail(8, 1));
        assert!(SelfFault::default().is_empty());
        assert!(!f.is_empty());
    }

    /// A sink that fails its first `failures` writes, pinning the
    /// bounded retry/backoff and the fresh-line-on-retry repair.
    struct FlakySink {
        failures: u32,
        writes: u32,
        data: String,
    }

    impl JournalSink for FlakySink {
        fn write_line(&mut self, payload: &str) -> std::io::Result<()> {
            self.writes += 1;
            if self.writes <= self.failures {
                // Half the record lands before the error, like a real
                // short write.
                self.data.push_str(&payload[..payload.len() / 2]);
                return Err(std::io::Error::other("injected"));
            }
            self.data.push_str(payload);
            Ok(())
        }
        fn sync(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn journal_append_retries_transient_errors_and_repairs_lines() {
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff_ms: 0,
        };
        let line = record().to_line();

        // Two transient failures, third attempt lands: Ok, and loading
        // the resulting bytes yields exactly one copy of the record
        // (the partial fragments are dropped as malformed lines).
        let mut sink = FlakySink {
            failures: 2,
            writes: 0,
            data: String::new(),
        };
        append_with_retry(&mut sink, &line, policy).expect("retries should succeed");
        let parsed: Vec<RunRecord> = sink.data.lines().filter_map(RunRecord::parse).collect();
        assert_eq!(parsed, vec![record()]);

        // Failing more often than the budget surfaces the error.
        let mut sink = FlakySink {
            failures: 99,
            writes: 0,
            data: String::new(),
        };
        assert!(append_with_retry(&mut sink, &line, policy).is_err());
        assert_eq!(sink.writes, 3, "bounded by max_attempts");
        assert!(sink
            .data
            .lines()
            .filter_map(RunRecord::parse)
            .next()
            .is_none());
    }

    #[test]
    fn pre_fork_journal_lines_still_parse() {
        // A record line written before fork acceleration existed: no
        // telemetry keys. It must parse with zeroed telemetry so old
        // journals resume.
        let legacy = concat!(
            "{\"seed\":7,\"outcome\":\"masked\",\"injected\":2,",
            "\"undetected\":0,\"recoveries\":1,\"nested\":0,",
            "\"cta\":0,\"kernel\":0,\"cycles\":999,\"crashed\":false}"
        );
        let r = RunRecord::parse(legacy).expect("legacy line must parse");
        assert_eq!(r.seed, 7);
        assert_eq!(r.cycles, 999);
        assert_eq!(r.fork_cycle, 0);
        assert_eq!(r.sim_cycles, 0);
        assert!(!r.fork_hit);
        assert_eq!(r.attempts, 1, "pre-retry journals ran each seed once");
        assert!(!r.quarantined);
    }

    #[test]
    fn strike_bounds_and_fork_grid_cover_the_window() {
        let base = CampaignSpec {
            horizon: 100_000,
            ..spec()
        };
        // Default window maps to the exact legacy bounds.
        assert_eq!(base.strike_bounds(), (0, 100_000));
        // Grid spans the window evenly, cycle 0 dropped.
        let g = super::fork_grid(&base);
        assert_eq!(g.len(), 7); // 8 points minus the dropped cycle 0
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        assert!(*g.last().unwrap() < 100_000);
        // A late-strike window starts its grid at the window floor, so
        // the cheapest checkpoint already skips 80% of the clean run.
        let late = CampaignSpec {
            strike_window: (0.8, 1.0),
            ..base.clone()
        };
        assert_eq!(late.strike_bounds(), (80_000, 100_000));
        let g = super::fork_grid(&late);
        assert_eq!(g.first(), Some(&80_000));
        assert!(g.iter().all(|&c| (80_000..100_000).contains(&c)));
        // fork_points: 0 disables the grid.
        assert!(super::fork_grid(&CampaignSpec {
            fork_points: 0,
            ..base.clone()
        })
        .is_empty());
        // Windowed strikes stay inside the window.
        for seed in 0..20 {
            let strikes = strikes_for_seed(&late, seed);
            assert!(strikes.iter().all(|s| (80_000..100_000).contains(&s.cycle)));
        }
    }
}
