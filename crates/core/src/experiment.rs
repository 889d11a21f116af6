//! The experiment driver: run a workload under a resilience scheme on a
//! GPU configuration, fault-free or under a particle-strike campaign.

use crate::runtime::FlameUnit;
use crate::scheme::Scheme;
use flame_compiler::pipeline::{build, CompileStats};
use flame_compiler::regalloc::AllocError;
use flame_sensors::fault::{Strike, StrikeTarget};
use flame_trace::{Event as TraceEvent, SimTrace};
use gpu_sim::config::GpuConfig;
use gpu_sim::gpu::{Gpu, LaunchError, Snapshot, TimeoutError};
use gpu_sim::memory::GlobalMemory;
use gpu_sim::program::Kernel;
use gpu_sim::scheduler::SchedulerKind;
use gpu_sim::sm::LaunchDims;
use gpu_sim::stats::SimStats;
use std::fmt;
use std::sync::Arc;

/// A benchmark workload: a kernel, its launch geometry, input seeding and
/// an output check.
#[derive(Clone)]
pub struct WorkloadSpec {
    /// Full application name (paper Table I).
    pub name: &'static str,
    /// Paper abbreviation (e.g. "LUD").
    pub abbr: &'static str,
    /// Benchmark suite of origin.
    pub suite: &'static str,
    /// The kernel, in virtual registers.
    pub kernel: Kernel,
    /// Launch geometry.
    pub dims: LaunchDims,
    /// Seeds device memory before the launch. Must write the same image
    /// on every call: campaigns seed a run by copying the inputs their
    /// clean run was seeded with instead of calling it again (see
    /// [`RunOptions::inputs`]).
    pub init: Arc<dyn Fn(&mut GlobalMemory) + Send + Sync>,
    /// Validates device memory after the launch. Must be a pure function
    /// of the image: campaigns skip it for an image equal to the clean
    /// run's, which it has already accepted (see
    /// [`RunOptions::clean_image`]).
    pub check: Arc<dyn Fn(&GlobalMemory) -> bool + Send + Sync>,
}

impl fmt::Debug for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkloadSpec")
            .field("abbr", &self.abbr)
            .field("kernel", &self.kernel.name)
            .field("dims", &self.dims)
            .finish_non_exhaustive()
    }
}

/// Fixed parameters of an experiment.
///
/// `PartialEq` lets the matrix engine ([`crate::matrix`]) memoize
/// baselines: cells whose configs compare equal share one baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// GPU model.
    pub gpu: GpuConfig,
    /// Warp scheduling policy.
    pub sched: SchedulerKind,
    /// Worst-case detection latency in cycles.
    pub wcdl: u32,
    /// Cycle budget (deadlock guard).
    pub max_cycles: u64,
}

impl Default for ExperimentConfig {
    /// The paper's default platform: GTX 480, GTO scheduler, 20-cycle
    /// WCDL.
    fn default() -> ExperimentConfig {
        ExperimentConfig {
            gpu: GpuConfig::gtx480(),
            sched: SchedulerKind::Gto,
            wcdl: 20,
            max_cycles: 500_000_000,
        }
    }
}

/// Outcome of a single run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Simulator statistics (cycles, stalls, memory, resilience).
    pub stats: SimStats,
    /// Compiler statistics (regions, renames, checkpoints, replicas).
    pub compile: CompileStats,
    /// Whether the output is correct: the final image equals
    /// [`RunOptions::clean_image`] when one is given, or else the
    /// workload's `check` accepts it. Either step gives the same answer.
    pub output_ok: bool,
}

/// Errors from the experiment driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// Register allocation failed.
    Alloc(AllocError),
    /// The kernel could not be launched.
    Launch(LaunchError),
    /// The simulation exceeded its cycle budget.
    Timeout(TimeoutError),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Alloc(e) => write!(f, "allocation failed: {e}"),
            ExperimentError::Launch(e) => write!(f, "launch failed: {e}"),
            ExperimentError::Timeout(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExperimentError {}

impl From<AllocError> for ExperimentError {
    fn from(e: AllocError) -> ExperimentError {
        ExperimentError::Alloc(e)
    }
}

impl From<LaunchError> for ExperimentError {
    fn from(e: LaunchError) -> ExperimentError {
        ExperimentError::Launch(e)
    }
}

impl From<TimeoutError> for ExperimentError {
    fn from(e: TimeoutError) -> ExperimentError {
        ExperimentError::Timeout(e)
    }
}

/// Process-wide count of compile+launch preparations (see
/// [`prepare_count`]).
static PREPARES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Number of compile+launch preparations performed by this process so
/// far. Each fault-free or fault-injecting run performs exactly one, so
/// the delta across a matrix run exposes how many simulations actually
/// executed — the observable the baseline-memoization tests pin.
pub fn prepare_count() -> u64 {
    PREPARES.load(std::sync::atomic::Ordering::Relaxed)
}

/// Compiles `w` under `scheme` and launches it with device memory still
/// unseeded.
fn launch(
    w: &WorkloadSpec,
    scheme: Scheme,
    cfg: &ExperimentConfig,
) -> Result<(Gpu, CompileStats), ExperimentError> {
    PREPARES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let built = build(
        &w.kernel,
        &scheme.build_options(cfg.gpu.max_regs_per_thread, cfg.wcdl),
    )?;
    let mode = scheme.verification_mode(cfg.wcdl);
    let slots = cfg.gpu.max_warps_per_sm;
    let nsched = cfg.gpu.schedulers_per_sm;
    let restores = built.restores_by_pc.clone();
    let gpu = Gpu::launch_with(cfg.gpu.clone(), built.flat, w.dims, cfg.sched, |_| {
        Box::new(FlameUnit::new(mode, slots, nsched, restores.clone()))
    })?;
    Ok((gpu, built.stats))
}

/// Compiles `w` under `scheme`, launches it on a fresh GPU and seeds its
/// inputs, without stepping a single cycle: the prepared simulator plus
/// compile stats.
/// Benchmarks use this to time the simulation loop separately from
/// compilation and memory seeding (which are identical regardless of the
/// clock mode); [`run_scheme`] is the one-call version.
///
/// # Errors
///
/// Returns an [`ExperimentError`] on compile or allocation/launch failure.
pub fn prepare_scheme(
    w: &WorkloadSpec,
    scheme: Scheme,
    cfg: &ExperimentConfig,
) -> Result<(Gpu, CompileStats), ExperimentError> {
    let (mut gpu, compile) = launch(w, scheme, cfg)?;
    (w.init)(gpu.global_mut());
    Ok((gpu, compile))
}

/// Runs `w` under `scheme`, fault-free.
///
/// # Errors
///
/// Returns an [`ExperimentError`] on allocation/launch failure or cycle
/// budget exhaustion.
pub fn run_scheme(
    w: &WorkloadSpec,
    scheme: Scheme,
    cfg: &ExperimentConfig,
) -> Result<RunResult, ExperimentError> {
    let (mut gpu, compile) = prepare_scheme(w, scheme, cfg)?;
    let stats = gpu.run(cfg.max_cycles)?;
    let output_ok = (w.check)(gpu.global());
    Ok(RunResult {
        stats,
        compile,
        output_ok,
    })
}

/// Normalized execution time of `scheme` on `w`: `cycles(scheme) /
/// cycles(baseline)` — the y-axis of the paper's Figures 13–19.
///
/// # Errors
///
/// Propagates [`ExperimentError`] from either run.
pub fn normalized_time(
    w: &WorkloadSpec,
    scheme: Scheme,
    cfg: &ExperimentConfig,
) -> Result<f64, ExperimentError> {
    let base = run_scheme(w, Scheme::Baseline, cfg)?;
    let run = run_scheme(w, scheme, cfg)?;
    Ok(run.stats.cycles as f64 / base.stats.cycles as f64)
}

/// Bounds and thresholds of the escalating recovery protocol driven by
/// [`run_with_protocol`].
///
/// The escalation ladder, bottom to top: region rollback (the paper's
/// protocol) → CTA relaunch (all resident CTAs restart from their entry)
/// → kernel relaunch (fresh GPU, memory reinitialized) → detected
/// unrecoverable error (DUE). Each rung has a budget; the defaults are
/// generous enough that runs which never violate Flame's assumptions
/// never leave the bottom rung, i.e. run the paper's protocol unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolConfig {
    /// Consecutive nested detections tolerated per SM — a detection is
    /// *nested* when it fires within WCDL cycles of the previous recovery
    /// on the same SM (the strike landed inside the recovery window) —
    /// before region rollback is declared stuck and a CTA relaunch is
    /// forced.
    pub max_nested_recoveries: u32,
    /// CTA relaunches tolerated across the run before escalating to a
    /// kernel relaunch.
    pub max_cta_relaunches: u32,
    /// Kernel relaunches tolerated before declaring a DUE.
    pub max_kernel_relaunches: u32,
    /// Hang watchdog window: if no instruction issues GPU-wide for this
    /// many consecutive cycles, the run is classified as hung (livelock)
    /// instead of burning the whole `max_cycles` budget.
    pub hang_window: u64,
    /// Whether the RPT is parity-protected. With parity, recovery state
    /// corrupted by a [`StrikeTarget::RecoveryHw`] strike is *detected*
    /// when a rollback tries to use it, and the protocol escalates.
    /// Without parity the corruption goes unnoticed: the affected warp
    /// is silently skipped at rollback, which can strand it (livelock →
    /// watchdog) or corrupt the output.
    pub rpt_parity: bool,
}

impl Default for ProtocolConfig {
    fn default() -> ProtocolConfig {
        ProtocolConfig {
            max_nested_recoveries: 8,
            max_cta_relaunches: 4,
            max_kernel_relaunches: 1,
            hang_window: 500_000,
            rpt_parity: true,
        }
    }
}

/// What [`run_with_protocol`] records, where it starts and what it
/// judges the output against. The `Default` records no trace, simulates
/// from scratch with inputs seeded by the workload's `init`, and calls
/// the workload's `check`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// Enables event tracing with a ring of this many events per SM (see
    /// [`flame_trace::DEFAULT_CAPACITY`]); the merged timeline comes back
    /// in [`FaultProtocolResult::trace`]. Tracing is observational: the
    /// stats are bit-identical to an untraced run.
    pub trace: Option<usize>,
    /// A clean-prefix checkpoint to fork the first kernel attempt from,
    /// captured from an identically prepared clean run of the same
    /// workload, scheme and config.
    ///
    /// The forked attempt launches the kernel without seeding its inputs
    /// (the checkpoint's image already holds them), restores the
    /// snapshot by assigning its page table, and drives only the
    /// post-checkpoint suffix. Escalated kernel relaunches start from
    /// scratch, since a relaunch seeds memory afresh.
    ///
    /// Provided every strike cycle is ≥ the checkpoint cycle, the forked
    /// run is bit-identical (counters, stats, final image) to a scratch
    /// run: the event clock's step-bound invariance makes the clean
    /// run's state at the checkpoint equal the scratch run's state there.
    /// The hang watchdog anchors at the checkpoint cycle instead of the
    /// last pre-checkpoint issue; the anchors converge at the first
    /// post-checkpoint issue, so they could only diverge on a clean prefix
    /// that issues nothing for a whole `hang_window`. A traced fork's
    /// timeline starts with a `SnapshotRestore` instant at the checkpoint
    /// cycle.
    pub fork_from: Option<&'a Snapshot>,
    /// The final image of a clean run of the same workload, scheme and
    /// config that the workload's `check` accepted. The verdict then
    /// takes two steps: an image equal to it is correct, and only a
    /// different one is passed to `check`. A check is a pure function of
    /// the image, so `output_ok` is the same as without it; the equality
    /// costs little for a forked run, whose image shares every page it
    /// did not write with the clean one.
    pub clean_image: Option<&'a GlobalMemory>,
    /// The device image right after `init` seeded an identically prepared
    /// run of the same workload and config. Every attempt that starts
    /// from scratch (the first one when there is no `fork_from`, and
    /// every kernel relaunch) assigns a copy of it instead of calling
    /// `init`. The copy shares every page with it, so each run holds
    /// only the pages it writes. `init` writes the same image on every
    /// call, so the run is bit-identical either way.
    pub inputs: Option<&'a GlobalMemory>,
}

/// Cost accounting of a (possibly) forked protocol run — what the
/// campaign journal records per seed to report aggregate prefix cycles
/// saved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ForkTelemetry {
    /// Cycle of the checkpoint the first kernel attempt resumed from;
    /// 0 when the run started from scratch (checkpoint miss / fork off).
    pub fork_cycle: u64,
    /// Cycles actually stepped by the simulator across every kernel
    /// attempt of this run. For a forked run this is the post-checkpoint
    /// suffix (plus any full relaunch attempts); for a scratch run it is
    /// the whole simulation.
    pub simulated_cycles: u64,
}

/// Outcome of a [`run_with_protocol`] run.
#[derive(Debug, Clone)]
pub struct FaultProtocolResult {
    /// The underlying run (stats/compile/output of the final kernel
    /// attempt).
    pub run: RunResult,
    /// Strikes that landed on a valid SM while the kernel ran.
    pub injected: usize,
    /// Pipeline strikes whose bit-flip landed on an in-flight write.
    pub corrupted: usize,
    /// Control-flow strikes that diverted a warp's PC.
    pub pc_corruptions: usize,
    /// Recovery-hardware strikes that poisoned live RPT/RBQ state.
    pub recovery_corruptions: usize,
    /// Sensor detections delivered (each triggers a recovery).
    pub detections: usize,
    /// Strikes the sensor mesh never heard (coverage gaps).
    pub undetected: usize,
    /// Region rollbacks performed.
    pub recoveries: usize,
    /// Detections that fired inside a previous recovery's WCDL window on
    /// the same SM.
    pub nested_detections: usize,
    /// CTA relaunches performed (escalation rung 2).
    pub cta_relaunches: u32,
    /// Kernel relaunches performed (escalation rung 3).
    pub kernel_relaunches: u32,
    /// The hang watchdog fired: no forward progress over `hang_window`
    /// cycles.
    pub watchdog_fired: bool,
    /// The cycle budget (`max_cycles`) ran out — also reported as a hang
    /// rather than an error, so campaigns can classify livelocks.
    pub timed_out: bool,
    /// The escalation ladder was exhausted: detected unrecoverable error.
    pub due: bool,
    /// The final device-memory image of the last kernel attempt: what
    /// `run.output_ok` judged (equal to [`RunOptions::clean_image`], or
    /// else accepted by the workload's `check`), moved out of the GPU (no
    /// page copied) so it can be held against a golden image from
    /// `flame-oracle` (see [`crate::campaign::classify_against_golden`]).
    pub image: GlobalMemory,
    /// The merged timeline when [`RunOptions::trace`] was set. After a
    /// kernel relaunch it covers the final attempt only (matching `run`),
    /// plus the strike and detect events delivered during it.
    pub trace: Option<SimTrace>,
    /// Where the run started and how many cycles it simulated.
    pub fork: ForkTelemetry,
}

#[derive(Debug, Clone, Copy, Default)]
struct ProtoCounters {
    injected: usize,
    corrupted: usize,
    pc_corruptions: usize,
    recovery_corruptions: usize,
    detections: usize,
    undetected: usize,
    recoveries: usize,
    nested_detections: usize,
    cta_relaunches: u32,
    kernel_relaunches: u32,
    watchdog_fired: bool,
    timed_out: bool,
    due: bool,
}

/// How one kernel attempt of the protocol ended.
enum Attempt {
    /// The kernel ran to completion (recoveries included).
    Completed,
    /// Escalation demands a fresh kernel launch.
    KernelRelaunch,
    /// Livelock or cycle-budget exhaustion.
    Hung,
    /// Escalation ladder exhausted.
    Due,
}

/// Runs `w` under `scheme` injecting `strikes` and driving the *full*
/// recovery protocol: sensor detection within WCDL, region rollback,
/// sensor coverage gaps (`Strike::detected`), strikes on PCs and on the
/// recovery hardware itself, nested detections inside recovery windows,
/// the bounded escalation ladder of [`ProtocolConfig`], and a hang
/// watchdog. `opts` turns on tracing and forks from a checkpoint.
///
/// This is the one entry point for a run under strikes or with tracing;
/// with no strikes it is a fault-free run whose stats equal
/// [`run_scheme`]'s. Unlike [`run_scheme`], exhausting `max_cycles` is
/// *not* an error: it reports `timed_out` (classified as a hang) so
/// campaigns can count livelocks instead of aborting on them.
///
/// # Errors
///
/// Returns an [`ExperimentError`] on compile or allocation/launch
/// failure.
pub fn run_with_protocol(
    w: &WorkloadSpec,
    scheme: Scheme,
    cfg: &ExperimentConfig,
    strikes: &[Strike],
    proto: &ProtocolConfig,
    opts: &RunOptions,
) -> Result<FaultProtocolResult, ExperimentError> {
    let mut c = ProtoCounters::default();
    let mut fork = ForkTelemetry::default();
    // Strikes are physical events: each is injected once, even across
    // kernel relaunches (the remaining suffix lands on the fresh clock).
    let mut next = 0usize;
    let mut checkpoint = opts.fork_from;
    loop {
        // Only the first attempt forks. It skips input seeding: the
        // restore assigns the checkpoint's image, inputs included. A
        // scratch attempt given the seeded inputs assigns a copy of them.
        let fork_from = checkpoint.take();
        let (mut gpu, compile) = match (fork_from, opts.inputs) {
            (None, None) => prepare_scheme(w, scheme, cfg)?,
            _ => launch(w, scheme, cfg)?,
        };
        if let Some(cap) = opts.trace {
            gpu.set_tracing(cap);
        }
        if let Some(snap) = fork_from {
            gpu.restore(snap);
            fork.fork_cycle = snap.cycle();
        } else if let Some(inputs) = opts.inputs {
            *gpu.global_mut() = inputs.clone();
        }
        let start_cycle = gpu.cycle();
        let attempt = drive(&mut gpu, cfg, strikes, proto, &mut next, &mut c);
        fork.simulated_cycles += gpu.cycle() - start_cycle;
        if let Attempt::KernelRelaunch = attempt {
            c.kernel_relaunches += 1;
            continue;
        }
        let stats = gpu.stats();
        let trace = gpu.take_trace();
        let image = gpu.into_global();
        let output_ok = opts.clean_image == Some(&image) || (w.check)(&image);
        return Ok(FaultProtocolResult {
            run: RunResult {
                stats,
                compile,
                output_ok,
            },
            injected: c.injected,
            corrupted: c.corrupted,
            pc_corruptions: c.pc_corruptions,
            recovery_corruptions: c.recovery_corruptions,
            detections: c.detections,
            undetected: c.undetected,
            recoveries: c.recoveries,
            nested_detections: c.nested_detections,
            cta_relaunches: c.cta_relaunches,
            kernel_relaunches: c.kernel_relaunches,
            watchdog_fired: c.watchdog_fired,
            timed_out: c.timed_out,
            due: c.due,
            image,
            trace,
            fork,
        });
    }
}

/// One kernel attempt of [`run_with_protocol`]: steps the GPU bounded by
/// strike arrivals, detection deadlines and the watchdog window, lands
/// strikes, delivers detections and walks the escalation ladder.
fn drive(
    gpu: &mut Gpu,
    cfg: &ExperimentConfig,
    strikes: &[Strike],
    proto: &ProtocolConfig,
    next: &mut usize,
    c: &mut ProtoCounters,
) -> Attempt {
    let num_sms = gpu.num_sms();
    // Detections in flight as (detect cycle, sm); the cycle of the last
    // recovery per SM (`u64::MAX` = none yet) and the running count of
    // consecutive nested detections on it.
    let mut pending: Vec<(u64, usize)> = Vec::new();
    let mut last_recovery: Vec<u64> = vec![u64::MAX; num_sms];
    let mut nested_chain: Vec<u32> = vec![0; num_sms];
    let mut progress_cycle = gpu.cycle();
    let mut progress_insts = gpu.instructions_issued();
    let mut victims: Vec<usize> = Vec::new();
    while gpu.running() {
        if gpu.cycle() >= cfg.max_cycles {
            c.timed_out = true;
            return Attempt::Hung;
        }
        // The driver interacts with the GPU at externally scheduled
        // cycles — strike arrivals and detection deadlines — which the
        // simulator's event-driven clock cannot see. Bound each step at
        // the earliest of them so fast-forward never jumps over one: a
        // strike at cycle k must be processed when the clock reads k + 1
        // (its detection deadline is anchored there), and a detection at
        // cycle d must trigger recovery exactly at d. The watchdog
        // deadline bounds it too, so a frozen GPU cannot fast-forward
        // past its own hang diagnosis. Both watchdog sums saturate: a
        // window of `u64::MAX` means the watchdog never fires.
        let deadline = progress_cycle.saturating_add(proto.hang_window);
        let mut bound = cfg.max_cycles.min(deadline.saturating_add(1));
        if let Some(s) = strikes.get(*next) {
            bound = bound.min(s.cycle + 1);
        }
        if let Some(&(d, _)) = pending.iter().min_by_key(|&&(d, _)| d) {
            bound = bound.min(d);
        }
        gpu.step_window(bound);
        let now = gpu.cycle();
        // Watchdog: forward progress is "an instruction issued somewhere".
        let insts = gpu.instructions_issued();
        if insts > progress_insts {
            progress_insts = insts;
            // A step that issued covered exactly one tick, so the clock
            // stands one cycle past the issue.
            progress_cycle = now;
        } else if now > deadline && gpu.running() {
            c.watchdog_fired = true;
            return Attempt::Hung;
        }
        // Strikes land during the tick that just completed (cycle now-1).
        while *next < strikes.len() && strikes[*next].cycle < now {
            let s = strikes[*next];
            *next += 1;
            if s.sm >= num_sms {
                continue;
            }
            c.injected += 1;
            if gpu.tracing() {
                let target = match s.target {
                    StrikeTarget::Pipeline => "pipeline",
                    StrikeTarget::EccProtected => "ecc",
                    StrikeTarget::ControlFlow => "control-flow",
                    StrikeTarget::RecoveryHw => "recovery-hw",
                };
                gpu.trace_emit(TraceEvent::FaultStrike {
                    sm: s.sm as u32,
                    target,
                    detected: s.detected,
                });
            }
            match s.target {
                StrikeTarget::Pipeline => {
                    // Corrupt a value written by the pipeline this cycle.
                    victims.clear();
                    victims.extend(gpu.live_warps(s.sm));
                    for &slot in &victims {
                        if gpu.corrupt_recent_write(s.sm, slot, s.lane as usize, 1u64 << s.bit) {
                            c.corrupted += 1;
                            break;
                        }
                    }
                }
                StrikeTarget::EccProtected => {}
                StrikeTarget::ControlFlow => {
                    // Divert the PC of the first fetch-stage (Ready) warp.
                    victims.clear();
                    victims.extend(gpu.live_warps(s.sm));
                    for &slot in &victims {
                        if gpu.corrupt_pc(s.sm, slot, 1u32 << (s.bit % 8)).is_some() {
                            c.pc_corruptions += 1;
                            break;
                        }
                    }
                }
                StrikeTarget::RecoveryHw => {
                    let token = u64::from(s.bit) * 31 + u64::from(s.lane);
                    if gpu.corrupt_recovery_state(s.sm, token) {
                        c.recovery_corruptions += 1;
                    }
                }
            }
            if s.detected {
                pending.push((now + u64::from(s.detection_latency), s.sm));
            } else {
                c.undetected += 1;
            }
        }
        // Deliver due detections; each triggers a recovery and may climb
        // the escalation ladder.
        let mut i = 0;
        while i < pending.len() {
            if pending[i].0 > now {
                i += 1;
                continue;
            }
            let (_, sm) = pending.swap_remove(i);
            if gpu.tracing() {
                gpu.trace_emit(TraceEvent::FaultDetect { sm: sm as u32 });
            }
            gpu.recover_sm(sm);
            c.detections += 1;
            c.recoveries += 1;
            let nested =
                last_recovery[sm] != u64::MAX && now - last_recovery[sm] <= u64::from(cfg.wcdl);
            if nested {
                nested_chain[sm] += 1;
                c.nested_detections += 1;
            } else {
                nested_chain[sm] = 0;
            }
            last_recovery[sm] = now;
            let poisoned = proto.rpt_parity && gpu.recovery_poisoned(sm);
            if poisoned || nested_chain[sm] > proto.max_nested_recoveries {
                // Region rollback cannot make progress here: escalate.
                if c.cta_relaunches < proto.max_cta_relaunches {
                    c.cta_relaunches += 1;
                    gpu.relaunch_sm_ctas(sm);
                    nested_chain[sm] = 0;
                    last_recovery[sm] = u64::MAX;
                } else if c.kernel_relaunches < proto.max_kernel_relaunches {
                    return Attempt::KernelRelaunch;
                } else {
                    c.due = true;
                    return Attempt::Due;
                }
            }
        }
    }
    Attempt::Completed
}

/// Geometric mean helper for the Figure 15/17/18/19 aggregates.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (s / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::builder::KernelBuilder;
    use gpu_sim::isa::{Cmp, MemSpace, Special};

    /// A small but representative workload: per-thread loop accumulating
    /// shared-memory values across a barrier, launched at high occupancy
    /// (WCDL hiding needs warp-level parallelism, §III-C).
    fn test_workload() -> WorkloadSpec {
        let mut b = KernelBuilder::new("testwl");
        let sh = b.alloc_shared(128 * 8);
        let tid = b.special(Special::TidX);
        let sa = b.imul(tid, 8);
        let t3 = b.imul(tid, 3);
        b.st_arr(MemSpace::Shared, 0, sa, t3, sh);
        b.barrier();
        let i = b.mov(0i64);
        let acc = b.mov(0i64);
        b.label("head");
        let n = b.iadd(tid, i);
        let nw = b.irem(n, 128);
        let na = b.imul(nw, 8);
        let v = b.ld_arr(MemSpace::Shared, 0, na, sh);
        let acc2 = b.iadd(acc, v);
        b.mov_to(acc, acc2);
        let i2 = b.iadd(i, 1);
        b.mov_to(i, i2);
        let p = b.setp(Cmp::Lt, i, 16i64);
        b.bra_if(p, true, "head");
        let ga = b.imul(tid, 8);
        let cta = b.special(Special::CtaIdX);
        let go = b.imul(cta, 1024);
        let gaddr = b.iadd(ga, go);
        b.st_arr(MemSpace::Global, 1, gaddr, acc, 0);
        b.exit();
        let kernel = b.finish();
        WorkloadSpec {
            name: "test workload",
            abbr: "TW",
            suite: "test",
            kernel,
            dims: LaunchDims::linear(96, 128),
            init: Arc::new(|_m| {}),
            check: Arc::new(|m| {
                // Each thread sums A[(tid + i) % 128] = 3 * ((tid+i)%128)
                // for i in 0..16.
                for cta in 0..96u64 {
                    for t in 0..128u64 {
                        let expect: u64 = (0..16).map(|i| 3 * ((t + i) % 128)).sum();
                        if m.read(cta * 1024 + t * 8) != expect {
                            return false;
                        }
                    }
                }
                true
            }),
        }
    }

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig {
            max_cycles: 5_000_000,
            ..ExperimentConfig::default()
        }
    }

    /// An untraced scratch run under the default protocol budgets.
    fn run_default_protocol(
        w: &WorkloadSpec,
        scheme: Scheme,
        cfg: &ExperimentConfig,
        strikes: &[Strike],
    ) -> FaultProtocolResult {
        let proto = ProtocolConfig::default();
        run_with_protocol(w, scheme, cfg, strikes, &proto, &RunOptions::default()).unwrap()
    }

    #[test]
    fn baseline_run_is_correct() {
        let w = test_workload();
        let r = run_scheme(&w, Scheme::Baseline, &quick_cfg()).unwrap();
        assert!(r.output_ok, "baseline output check failed");
        assert!(r.stats.cycles > 0);
    }

    #[test]
    fn every_scheme_is_functionally_correct() {
        let w = test_workload();
        let cfg = quick_cfg();
        for scheme in Scheme::paper_schemes() {
            let r = run_scheme(&w, scheme, &cfg).unwrap();
            assert!(r.output_ok, "{scheme} output check failed");
        }
        let r = run_scheme(&w, Scheme::NaiveSensorRenaming, &cfg).unwrap();
        assert!(r.output_ok);
    }

    #[test]
    fn flame_overhead_is_small_and_naive_is_larger() {
        let w = test_workload();
        let cfg = quick_cfg();
        let flame = normalized_time(&w, Scheme::SensorRenaming, &cfg).unwrap();
        let naive = normalized_time(&w, Scheme::NaiveSensorRenaming, &cfg).unwrap();
        assert!(flame < naive, "flame {flame} !< naive {naive}");
        assert!(flame < 1.25, "flame overhead too large: {flame}");
    }

    #[test]
    fn duplication_costs_more_than_flame() {
        let w = test_workload();
        let cfg = quick_cfg();
        let flame = normalized_time(&w, Scheme::SensorRenaming, &cfg).unwrap();
        let dup = normalized_time(&w, Scheme::DuplicationRenaming, &cfg).unwrap();
        assert!(dup > flame, "dup {dup} !> flame {flame}");
    }

    #[test]
    fn flame_recovers_from_injected_faults() {
        use flame_sensors::fault::StrikeGenerator;
        let w = test_workload();
        let cfg = quick_cfg();
        // Learn the fault-free runtime to place strikes inside it.
        let base = run_scheme(&w, Scheme::SensorRenaming, &cfg).unwrap();
        let horizon = base.stats.cycles * 3 / 4;
        let mut gen =
            StrikeGenerator::new(0xF1A3, cfg.wcdl, cfg.gpu.num_sms).with_ecc_fraction(0.0);
        let strikes = gen.schedule(6, horizon.max(10));
        let r = run_default_protocol(&w, Scheme::SensorRenaming, &cfg, &strikes);
        assert_eq!(r.detections, 6, "every strike must be detected");
        assert!(r.run.output_ok, "output corrupted despite recovery");
        assert!(r.run.stats.resilience.recoveries >= 1);
    }

    #[test]
    fn false_positive_strikes_recover_harmlessly() {
        use flame_sensors::fault::StrikeGenerator;
        let w = test_workload();
        let cfg = quick_cfg();
        let base = run_scheme(&w, Scheme::SensorRenaming, &cfg).unwrap();
        let mut gen = StrikeGenerator::new(7, cfg.wcdl, cfg.gpu.num_sms).with_ecc_fraction(1.0); // all strikes masked by ECC
        let strikes = gen.schedule(4, base.stats.cycles / 2);
        let r = run_default_protocol(&w, Scheme::SensorRenaming, &cfg, &strikes);
        assert_eq!(r.corrupted, 0);
        assert_eq!(r.detections, 4);
        assert!(r.run.output_ok);
    }

    #[test]
    fn checkpointing_recovers_from_injected_faults() {
        use flame_sensors::fault::StrikeGenerator;
        let w = test_workload();
        let cfg = quick_cfg();
        let base = run_scheme(&w, Scheme::SensorCheckpointing, &cfg).unwrap();
        let mut gen = StrikeGenerator::new(0xC4E, cfg.wcdl, cfg.gpu.num_sms).with_ecc_fraction(0.0);
        let strikes = gen.schedule(6, base.stats.cycles * 3 / 4);
        let r = run_default_protocol(&w, Scheme::SensorCheckpointing, &cfg, &strikes);
        assert!(r.run.output_ok, "checkpoint recovery failed");
    }

    #[test]
    fn traced_run_is_invisible_and_attributes_every_stall() {
        let w = test_workload();
        let cfg = quick_cfg();
        let plain = run_scheme(&w, Scheme::SensorRenaming, &cfg).unwrap();
        let traced = run_with_protocol(
            &w,
            Scheme::SensorRenaming,
            &cfg,
            &[],
            &ProtocolConfig::default(),
            &RunOptions {
                trace: Some(1 << 14),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let (traced, trace) = (traced.run, traced.trace.unwrap());
        assert_eq!(
            plain.stats.diff(&traced.stats),
            vec![],
            "tracing perturbed the simulation"
        );
        assert!(!trace.is_empty());
        // The streaming stall matrix survives ring eviction: its per-cause
        // sums equal the simulator's own stall counters exactly.
        let s = traced.stats.stalls;
        let by_cause = trace.stall_counts();
        assert_eq!(
            by_cause,
            [
                s.no_warp,
                s.scoreboard,
                s.mshr_full,
                s.barrier,
                s.rbq_wait,
                s.sched_blocked
            ]
        );
        assert_eq!(trace.stall_total(), s.total());
    }

    #[test]
    fn protocol_trace_shows_strike_detect_rollback_arc() {
        use flame_sensors::fault::StrikeGenerator;
        let w = test_workload();
        let cfg = quick_cfg();
        let base = run_scheme(&w, Scheme::SensorRenaming, &cfg).unwrap();
        let mut gen =
            StrikeGenerator::new(0xF1A3, cfg.wcdl, cfg.gpu.num_sms).with_ecc_fraction(0.0);
        let strikes = gen.schedule(4, (base.stats.cycles * 3 / 4).max(10));
        let r = run_with_protocol(
            &w,
            Scheme::SensorRenaming,
            &cfg,
            &strikes,
            &ProtocolConfig::default(),
            &RunOptions {
                trace: Some(1 << 14),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let trace = r.trace.as_ref().unwrap();
        assert!(r.run.output_ok);
        // Every injected strike and every delivered detection is on the
        // timeline, and each struck SM eventually shows a rollback at or
        // after its detection cycle.
        let strikes_seen: Vec<_> = trace
            .filtered(|e| matches!(e, flame_trace::Event::FaultStrike { .. }))
            .collect();
        let detects: Vec<_> = trace
            .filtered(|e| matches!(e, flame_trace::Event::FaultDetect { .. }))
            .collect();
        assert_eq!(strikes_seen.len(), r.injected);
        assert_eq!(detects.len(), r.detections);
        for d in &detects {
            let flame_trace::Event::FaultDetect { sm } = d.ev else {
                unreachable!()
            };
            assert!(
                trace
                    .filtered(|e| matches!(e, flame_trace::Event::Rollback { .. }))
                    .any(|e| e.sm == sm && e.cycle >= d.cycle),
                "no rollback on SM {sm} at/after detect cycle {}",
                d.cycle
            );
        }
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }
}
