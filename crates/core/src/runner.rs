//! The resumable multi-seed fault-campaign runner.
//!
//! A statistical fault campaign is hundreds of independent seeded runs of
//! one `(workload, scheme, config)` triple, each classified into the
//! [`Outcome`] taxonomy. This module fans the seeds across
//! `std::thread::scope` workers pulling from an [`AtomicUsize`] work
//! index (the matrix engine's self-scheduling pattern), isolates each run
//! behind `catch_unwind` so one diseased seed cannot kill the campaign,
//! and journals every finished run to a JSONL checkpoint file so a killed
//! campaign resumes where it stopped.
//!
//! Three properties the campaign reports rely on:
//!
//! * **Determinism** — each seed's strikes and simulation are a pure
//!   function of the spec, so the final [`CampaignSummary`] is
//!   byte-identical whatever the worker count, interleaving, or how many
//!   times the campaign was killed and resumed in between.
//! * **Truncation tolerance** — a run record only counts if its journal
//!   line is complete; a half-written tail line (the kill arrived
//!   mid-`write`) is discarded and that seed simply re-runs.
//! * **Single baseline** — the fault-free run is simulated once per
//!   campaign, not once per seed.
//!
//! The journal is hand-rolled JSON (the repo takes no external crates):
//! a header line fingerprinting the spec, then one object per finished
//! seed, in completion order. Integer fields only — floats travel as
//! `f64::to_bits` so round-trips are exact.

use crate::campaign::{classify, Outcome};
use crate::experiment::{ExperimentConfig, ProtocolConfig, WorkloadSpec};
use crate::scheme::Scheme;
use flame_sensors::fault::{Strike, StrikeGenerator};
use gpu_sim::gpu::Snapshot;
use std::collections::HashSet;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Read as _, Seek, SeekFrom, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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
                "{{\"flame_campaign\":1,\"workload\":{:?},\"scheme\":{:?},",
                "\"base_seed\":{},\"runs\":{},\"strikes\":{},\"horizon\":{},",
                "\"coverage\":{},\"control\":{},\"recovery\":{},",
                "\"wcdl\":{},\"max_cycles\":{},\"num_sms\":{},",
                "\"nested\":{},\"cta\":{},\"kernel\":{},\"hang\":{},\"parity\":{}}}"
            ),
            workload,
            self.scheme.name(),
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

    /// Parses a journal line. Returns `None` for anything malformed —
    /// notably a truncated tail line from a killed campaign. The fork
    /// telemetry keys default to zero/false when absent, so journals
    /// written before fork acceleration still load and resume.
    pub fn parse(line: &str) -> Option<RunRecord> {
        let line = line.trim_end();
        if !line.ends_with('}') {
            return None;
        }
        Some(RunRecord {
            seed: json_u64(line, "seed")?,
            outcome: Outcome::parse(json_str(line, "outcome")?)?,
            injected: json_u64(line, "injected")?,
            undetected: json_u64(line, "undetected")?,
            recoveries: json_u64(line, "recoveries")?,
            nested: json_u64(line, "nested")?,
            cta_relaunches: json_u64(line, "cta")?,
            kernel_relaunches: json_u64(line, "kernel")?,
            cycles: json_u64(line, "cycles")?,
            crashed: json_bool(line, "crashed")?,
            fork_cycle: json_u64(line, "fork_cycle").unwrap_or(0),
            sim_cycles: json_u64(line, "sim_cycles").unwrap_or(0),
            fork_hit: json_bool(line, "fork_hit").unwrap_or(false),
            attempts: json_u64(line, "attempts").unwrap_or(1),
            quarantined: json_bool(line, "quarantined").unwrap_or(false),
        })
    }
}

fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    Some(&line[at..])
}

pub(crate) fn json_u64(line: &str, key: &str) -> Option<u64> {
    let rest = json_field(line, key)?;
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

pub(crate) fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = json_field(line, key)?.strip_prefix('"')?;
    rest.split('"').next()
}

fn json_bool(line: &str, key: &str) -> Option<bool> {
    let rest = json_field(line, key)?;
    if rest.starts_with("true") {
        Some(true)
    } else if rest.starts_with("false") {
        Some(false)
    } else {
        None
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

impl CampaignSummary {
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
/// report binary can replay a single seed in isolation. Equivalent to
/// [`run_one_seed_forked`] with no checkpoints — the records are
/// bit-identical modulo the fork telemetry fields.
pub fn run_one_seed(w: &WorkloadSpec, spec: &CampaignSpec, seed: u64) -> RunRecord {
    run_one_seed_forked(w, spec, seed, &[])
}

/// Simulates one seed, forking from the best clean-prefix checkpoint:
/// the highest-cycle snapshot at or below the seed's first strike cycle
/// (a strikeless seed forks from the last checkpoint). With no usable
/// checkpoint the run falls back to scratch. Outcome classification and
/// all counter fields are bit-identical either way — only the
/// `fork_cycle`/`sim_cycles`/`fork_hit` telemetry differs.
pub fn run_one_seed_forked(
    w: &WorkloadSpec,
    spec: &CampaignSpec,
    seed: u64,
    checkpoints: &[Snapshot],
) -> RunRecord {
    run_one_seed_attempt(w, spec, seed, checkpoints, 1)
}

/// One attempt of one seed. Attempt numbers only matter to the
/// [`SelfFault`] drill hook — a genuine simulation is identical on every
/// attempt.
fn run_one_seed_attempt(
    w: &WorkloadSpec,
    spec: &CampaignSpec,
    seed: u64,
    checkpoints: &[Snapshot],
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
        crate::experiment::run_with_protocol_forked(w, spec.scheme, &spec.cfg, &strikes, &proto, cp)
    }));
    match result {
        Ok(Ok((r, _mem, fork))) => RunRecord {
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
            fork_cycle: fork.fork_cycle,
            sim_cycles: fork.simulated_cycles,
            fork_hit: fork.fork_cycle > 0,
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
/// keeps moving instead of stalling on it. This is the entry point both
/// the serial runner and the sharded workers use.
pub fn run_one_seed_retrying(
    w: &WorkloadSpec,
    spec: &CampaignSpec,
    seed: u64,
    checkpoints: &[Snapshot],
) -> RunRecord {
    let max = spec.retry.max_attempts.max(1);
    let mut attempt = 1u32;
    loop {
        let mut rec = run_one_seed_attempt(w, spec, seed, checkpoints, attempt);
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

/// Replays one seed of the spec with event tracing enabled, yielding the
/// merged timeline alongside the protocol result. The strikes are the
/// same deterministic schedule [`run_one_seed`] would inject, so a seed
/// whose campaign record looks suspicious (an SDC, a watchdog hang) can
/// be re-simulated under the tracer and inspected cycle by cycle in a
/// Chrome-trace viewer. Unlike [`run_one_seed`] this does not absorb
/// failures: a trace of a crashed run would be misleading.
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
) -> Result<
    (
        crate::experiment::FaultProtocolResult,
        flame_trace::SimTrace,
    ),
    crate::experiment::ExperimentError,
> {
    let strikes = strikes_for_seed(spec, seed);
    crate::experiment::run_with_protocol_traced(
        w,
        spec.scheme,
        &spec.cfg,
        &strikes,
        &spec.effective_proto(),
        capacity,
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

/// Simulates the fault-free baseline once, pausing at each `grid` cycle
/// to capture a [`Snapshot`] (delta-encoded against the post-init memory
/// image), then running to completion. Returns the clean cycle count —
/// bit-identical to an unpaused run by the event clock's step-bound
/// invariance — and the checkpoints actually reached (a grid cycle past
/// kernel completion yields none). A launch failure or cycle-budget
/// timeout yields `(0, [])`, matching the legacy baseline's behavior.
pub(crate) fn clean_baseline(
    w: &WorkloadSpec,
    spec: &CampaignSpec,
    grid: &[u64],
) -> (u64, Vec<Snapshot>) {
    let Ok((mut gpu, _compile)) = crate::experiment::prepare_scheme(w, spec.scheme, &spec.cfg)
    else {
        return (0, Vec::new());
    };
    let base = gpu.memory_base();
    let mut snaps = Vec::with_capacity(grid.len());
    let mut running = gpu.running();
    for &cp in grid {
        while running && gpu.cycle() < cp {
            if gpu.cycle() >= spec.cfg.max_cycles {
                return (0, Vec::new());
            }
            running = gpu.step_window(cp);
        }
        if running && gpu.cycle() == cp {
            snaps.push(gpu.snapshot_delta(&base));
        }
    }
    while running {
        if gpu.cycle() >= spec.cfg.max_cycles {
            return (0, Vec::new());
        }
        running = gpu.step_window(spec.cfg.max_cycles);
    }
    (gpu.cycle(), snaps)
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
/// wrong record. Callers only update their in-memory dedup state after
/// this returns `Ok` — a crash at any point therefore at worst re-runs
/// the seed, never loses or double-counts it.
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

/// Opens (or creates) a journal for appending, writing `header` when
/// the file is fresh and newline-terminating a truncated tail left by a
/// kill mid-write. Freshness is judged by content, not existence: a
/// kill between create and the header write leaves an empty file that
/// still needs its header.
pub(crate) fn open_journal_append(path: &Path, header: &str) -> Result<File, RunnerError> {
    let len = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    if len == 0 {
        writeln!(f, "{header}")?;
    } else if last_byte(path)? != b'\n' {
        // A kill mid-write left a truncated tail with no newline.
        // Terminate it so the first appended record starts its own line
        // — otherwise the two can merge into one string that still
        // parses as a (wrong) record and poisons every later resume.
        writeln!(f)?;
    }
    f.flush()?;
    f.sync_data()?;
    Ok(f)
}

/// Loads records from an existing journal. The header must match
/// `expected`; malformed lines (a truncated tail) and records for seeds
/// outside the spec are dropped.
pub(crate) fn load_journal(path: &Path, expected: &str) -> Result<Vec<RunRecord>, RunnerError> {
    let f = BufReader::new(File::open(path)?);
    let mut lines = f.lines();
    let header = match lines.next() {
        Some(h) => h?,
        None => return Ok(Vec::new()), // empty file: treat as fresh
    };
    if header.trim_end() != expected {
        return Err(RunnerError::JournalMismatch {
            found: header,
            expected: expected.to_string(),
        });
    }
    let mut out = Vec::new();
    for line in lines {
        if let Some(r) = RunRecord::parse(&line?) {
            out.push(r);
        }
    }
    Ok(out)
}

/// The fault-free baseline cycle count of a spec — one clean
/// simulation, no checkpoints. What [`CampaignSummary::clean_cycles`]
/// reports; public so the campaign server can compute (and cache) it
/// once per campaign instead of re-simulating the baseline on every
/// status poll.
pub fn campaign_clean_cycles(w: &WorkloadSpec, spec: &CampaignSpec) -> u64 {
    clean_baseline(w, spec, &[]).0
}

/// The clean-run cycle count and fork-point checkpoints this spec's
/// seeds fork from: the fork grid of `fork_points`, materialized by one
/// baseline simulation. Shared by the serial runner and every sharded
/// worker so forked records are bit-identical wherever a seed runs.
pub(crate) fn baseline_and_checkpoints(
    w: &WorkloadSpec,
    spec: &CampaignSpec,
) -> (u64, Vec<Snapshot>) {
    clean_baseline(w, spec, &fork_grid(spec))
}

/// The last byte of a non-empty file — used to detect a journal whose
/// tail line was truncated mid-write and never newline-terminated.
fn last_byte(path: &Path) -> Result<u8, RunnerError> {
    let mut f = File::open(path)?;
    f.seek(SeekFrom::End(-1))?;
    let mut b = [0u8; 1];
    f.read_exact(&mut b)?;
    Ok(b[0])
}

/// Runs the campaign's seeds on `jobs` worker threads, journaling each
/// finished run to `journal` (if given) and resuming from it when it
/// already exists. The returned summary is byte-identical however the
/// work was split between a previous (possibly killed) invocation and
/// this one.
///
/// # Errors
///
/// Journal I/O failures and header mismatches.
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

    // Resume: collect finished seeds from the journal (deduped — a
    // killed-and-resumed campaign may have raced the same seed twice;
    // records are deterministic so any copy serves).
    let seeds = spec.base_seed..spec.base_seed + spec.runs as u64;
    let mut records: Vec<RunRecord> = Vec::with_capacity(spec.runs);
    let mut done = HashSet::new();
    if let Some(path) = journal {
        if path.exists() {
            for r in load_journal(path, &header)? {
                if seeds.contains(&r.seed) && done.insert(r.seed) {
                    records.push(r);
                }
            }
        }
    }

    // (Re)write or append the journal. A fresh file gets the header; an
    // existing one is appended in place so finished seeds survive kills.
    let sink: Option<Mutex<File>> = match journal {
        Some(path) => Some(Mutex::new(open_journal_append(path, &header)?)),
        None => None,
    };

    let todo: Vec<u64> = seeds.filter(|s| !done.contains(s)).collect();
    let ran_now = todo.len();

    // Single fault-free baseline for the whole campaign — one prepared
    // GPU stepped to completion, pausing at each fork-point cycle to
    // checkpoint the clean prefix. The checkpoints are shared read-only
    // across the workers below; `fork_points: 0` degrades every seed to
    // the scratch path without changing results.
    let (clean_cycles, checkpoints) = baseline_and_checkpoints(w, spec);

    let next = AtomicUsize::new(0);
    let fresh: Mutex<Vec<RunRecord>> = Mutex::new(Vec::with_capacity(todo.len()));
    let workers = jobs.max(1).min(todo.len().max(1));
    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= todo.len() {
                            break;
                        }
                        let rec = run_one_seed_retrying(w, spec, todo[i], &checkpoints);
                        // Journal — fsynced, with bounded retry — before
                        // the record enters the in-memory set: a kill
                        // between the two at worst re-runs a seed, never
                        // loses one. A write that still fails after the
                        // retry budget is reported but does not abort the
                        // campaign; the seed simply re-runs on resume.
                        if let Some(m) = &sink {
                            let mut f = m.lock().unwrap();
                            if let Err(e) = append_with_retry(&mut *f, &rec.to_line(), spec.retry) {
                                eprintln!(
                                    "flame-campaign: journal append for seed {} failed \
                                     after retries: {e}",
                                    rec.seed
                                );
                            }
                        }
                        fresh.lock().unwrap().push(rec);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("campaign worker died");
        }
    });

    records.extend(fresh.into_inner().unwrap());
    records.sort_by_key(|r| r.seed);

    let mut counts = [0usize; 5];
    for r in &records {
        counts[Outcome::ALL.iter().position(|&o| o == r.outcome).unwrap()] += 1;
    }
    Ok(CampaignSummary {
        header,
        records,
        counts,
        clean_cycles,
        ran_now,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let a = CampaignSpec {
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
        };
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
            base_seed: 1,
            runs: 10,
            strikes_per_run: 3,
            horizon: 100_000,
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
