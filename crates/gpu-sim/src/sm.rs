//! The streaming multiprocessor (SM) pipeline: warp slots, CTA residency,
//! barrier phases, scoreboarding, issue, functional execution and the
//! resilience attachment hooks.

use crate::config::GpuConfig;
use crate::exec::{eval, eval_atom};
use crate::isa::{AtomOp, MemSpace, Opcode, Operand, Reg, Special};
use crate::memory::{
    bank_conflict_degree, coalesce_into, lane_addresses_into, Cache, CacheOutcome, GlobalMemory,
    MemPort, SharedMemory, WORD_BYTES,
};
use crate::program::FlatKernel;
use crate::regfile::{Value, WarpRegFile};
use crate::resilience::{BoundaryAction, SmAttachment};
use crate::scheduler::{Candidate, Scheduler, SchedulerKind};
use crate::stats::SimStats;
use crate::uop::UopKernel;
use crate::warp::{RecoveryPoint, Warp, WarpState, WARP_SIZE};
use flame_trace::{Event as TraceEvent, TraceBuffer, Tracer};

/// Grid and CTA dimensions of a kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchDims {
    /// CTAs in the grid (x, y).
    pub grid: (u32, u32),
    /// Threads per CTA (x, y).
    pub block: (u32, u32),
}

impl LaunchDims {
    /// A one-dimensional launch.
    pub fn linear(grid_x: u32, block_x: u32) -> LaunchDims {
        LaunchDims {
            grid: (grid_x, 1),
            block: (block_x, 1),
        }
    }

    /// Threads per CTA.
    pub fn threads_per_cta(&self) -> u32 {
        self.block.0 * self.block.1
    }

    /// Warps per CTA.
    pub fn warps_per_cta(&self) -> u32 {
        self.threads_per_cta().div_ceil(WARP_SIZE as u32)
    }

    /// Total CTAs in the grid.
    pub fn num_ctas(&self) -> u32 {
        self.grid.0 * self.grid.1
    }

    /// Grid coordinates of the CTA with the given linear index.
    pub fn cta_coords(&self, linear: u32) -> (u32, u32) {
        (linear % self.grid.0, linear / self.grid.0)
    }
}

/// A resident CTA.
#[derive(Debug, Clone)]
struct CtaState {
    coords: (u32, u32),
    live_warps: usize,
    /// Completed barrier releases.
    phase: u64,
    /// Warps currently blocked at the barrier of the current phase.
    arrivals: usize,
    shared: SharedMemory,
    warp_slots: Vec<usize>,
}

/// One executed atomic operation, logged so that idempotent re-execution
/// can *replay* its result instead of re-applying the read-modify-write.
/// Atomics are inherently non-idempotent; region-level recovery must pair
/// them with result logging (cleared once the enclosing region verifies),
/// an elaboration the paper's single-instruction atomic regions imply.
#[derive(Debug, Clone)]
struct AtomicLogEntry {
    pc: u32,
    mask: u32,
    old: Vec<Value>,
}

/// One global-memory operation issued this cycle whose shared-state
/// effects (L2 probes, device-memory reads/writes, hit/miss statistics)
/// are deferred to [`Sm::apply_global`]. The tick phase touches only
/// per-SM state; the shared accesses replay afterwards in fixed SM order
/// (see `DESIGN.md`).
///
/// Payloads live in the [`PendingGlobal`] arenas; each op records its own
/// start index per arena it uses (the arenas advance at different rates —
/// loads push lanes+addrs, stores push addrs+vals, atomics push all four).
#[derive(Debug, Clone, Copy)]
enum PendingOp {
    /// A global load: cache walk, MSHR patch, functional read and
    /// scoreboard completion all happen at apply.
    Load {
        slot: usize,
        dst: Reg,
        seg0: usize,
        nseg: usize,
        lane0: usize,
        addr0: usize,
        n: usize,
        /// First reserved placeholder MSHR index and how many were
        /// reserved (`min(nseg, free)` at tick time).
        port0: usize,
        nport: usize,
    },
    /// A global store: L1/L2 stats walk and functional writes at apply
    /// (its finish cycle is latency-class-known, so MSHRs were reserved
    /// for real at tick).
    Store {
        seg0: usize,
        nseg: usize,
        addr0: usize,
        val0: usize,
        n: usize,
    },
    /// A fresh (non-replayed) global atomic: the read-modify-write runs
    /// at apply in lane order, logging old values for replay.
    Atom {
        slot: usize,
        dst: Option<Reg>,
        aop: AtomOp,
        pc: u32,
        mask: u32,
        lane0: usize,
        addr0: usize,
        val0: usize,
        val20: usize,
        n: usize,
    },
}

/// Deferred global-memory work for one SM, one cycle. Arena-style so the
/// per-cycle hot path never allocates after warm-up: `ops` and the
/// payload vectors keep their capacity across cycles.
#[derive(Debug, Default)]
struct PendingGlobal {
    ops: Vec<PendingOp>,
    /// Coalesced 128-byte segment bases.
    segs: Vec<u64>,
    /// Active lane indices, in ascending lane order per op.
    lanes: Vec<usize>,
    /// Per-lane byte addresses, parallel to `lanes` per op.
    addrs: Vec<u64>,
    /// Per-lane operand values (store data / atomic operand).
    vals: Vec<Value>,
    /// Per-lane second operand values (atomic CAS new-value).
    vals2: Vec<Value>,
}

impl PendingGlobal {
    fn clear(&mut self) {
        self.ops.clear();
        self.segs.clear();
        self.lanes.clear();
        self.addrs.clear();
        self.vals.clear();
        self.vals2.clear();
    }
}

/// A warp slot: execution state, registers and local memory.
#[derive(Debug, Clone)]
struct Slot {
    warp: Warp,
    regs: WarpRegFile,
    /// The warp's entry recovery point (PC 0, full initial mask), kept so
    /// an escalated recovery can restart the whole CTA from scratch when
    /// region-level rollback state is unusable.
    entry: RecoveryPoint,
    /// Per-thread local memory: `local[lane * words + word]`.
    local: Vec<Value>,
    local_words: usize,
    /// Destination register of the most recently issued instruction and
    /// the cycle it issued — the physically-consistent fault-injection
    /// point (a particle strike corrupts a value as the pipeline writes
    /// it; the register file itself is ECC-protected).
    last_write: Option<(Reg, u64)>,
    /// Unverified atomics executed since the warp's recovery point.
    atomic_log: Vec<AtomicLogEntry>,
    /// Replay position after a rollback (log entries before it are
    /// replayed rather than re-applied).
    replay_cursor: usize,
}

/// Per-cause counts of warps blocked from issuing this cycle (for stall
/// stats). A plain tally instead of a `Vec<BlockCause>`: the scan runs
/// every cycle per scheduler, so it must not allocate.
#[derive(Debug, Clone, Copy, Default)]
struct BlockTally {
    scoreboard: u32,
    mshr_full: u32,
    barrier: u32,
    rbq: u32,
}

/// What one scheduler did in its most recent tick. Remembered so the
/// event-driven clock can credit skipped idle cycles to the same stall
/// counter the per-cycle loop would have incremented: while no warp
/// issues anywhere and no event fires, the scan is a pure function of
/// frozen state, so its attribution repeats verbatim.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum StallCause {
    /// The scheduler issued an instruction (never credited in bulk: an
    /// issue anywhere on the GPU disables the skip).
    #[default]
    Issued,
    NoWarp,
    Scoreboard,
    MshrFull,
    Barrier,
    RbqWait,
    SchedBlocked,
}

impl StallCause {
    /// The tracer-facing cause, `None` for an issuing tick (which is
    /// never a stall).
    fn trace(self) -> Option<flame_trace::StallCause> {
        match self {
            StallCause::Issued => None,
            StallCause::NoWarp => Some(flame_trace::StallCause::NoWarp),
            StallCause::Scoreboard => Some(flame_trace::StallCause::Scoreboard),
            StallCause::MshrFull => Some(flame_trace::StallCause::MshrFull),
            StallCause::Barrier => Some(flame_trace::StallCause::Barrier),
            StallCause::RbqWait => Some(flame_trace::StallCause::RbqWait),
            StallCause::SchedBlocked => Some(flame_trace::StallCause::SchedBlocked),
        }
    }
}

/// A streaming multiprocessor.
pub struct Sm {
    id: usize,
    slots: Vec<Option<Slot>>,
    ctas: Vec<Option<CtaState>>,
    schedulers: Vec<Scheduler>,
    sched_blocked_until: Vec<u64>,
    /// Per-scheduler outcome of the last [`Sm::tick`], consumed by
    /// [`Sm::credit_idle_cycles`] when the event-driven clock skips ahead.
    last_stall: Vec<StallCause>,
    /// Cycle until which this SM is provably frozen: the last full tick
    /// issued nothing and reported no event before this cycle, so ticks
    /// strictly before it reduce to repeating the cached stall
    /// attribution (the per-SM fast path of the event-driven clock — it
    /// pays off even when *other* SMs are busy and the whole-GPU skip in
    /// `Gpu::step_window` cannot engage). Any external mutation (CTA
    /// launch, fault injection, recovery) resets it to 0.
    frozen_until: u64,
    /// [`GpuConfig::fast_forward`] copied at construction; when off, the
    /// frozen fast path never engages and every cycle runs the full tick.
    fast_forward: bool,
    port: MemPort,
    l1: Cache,
    attachment: Box<dyn SmAttachment>,
    stats: SimStats,
    wake_buf: Vec<usize>,
    latency: crate::config::LatencyConfig,
    /// Resident-CTA count maintained by launch/retire, making
    /// [`Sm::busy`] O(1) (it is polled every cycle per SM).
    resident_ctas: usize,
    /// Scratch for the eligibility scan, reused across cycles.
    eligible_buf: Vec<Candidate>,
    /// Scratch for active-lane byte addresses of a memory instruction.
    addr_buf: Vec<u64>,
    /// Scratch for coalesced 128-byte segment bases.
    seg_buf: Vec<u64>,
    /// Global-memory effects issued by the current tick, drained by
    /// [`Sm::apply_global`] in the same cycle. Always empty between
    /// cycles, hence excluded from [`SmSnapshot`].
    pending: PendingGlobal,
    /// Event tracer; disabled (a never-taken branch per emission site) by
    /// default, so the untraced hot path and `SimStats` are unchanged.
    tracer: Tracer,
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("id", &self.id)
            .field("live_warps", &self.live_slots().count())
            .finish_non_exhaustive()
    }
}

/// Frozen copy of one SM's mutable run state, captured by
/// [`Sm::snapshot`] and reapplied by [`Sm::restore`].
///
/// Launch-time constants (`id`, scheduler count, latencies, fast-forward
/// mode) and observation-only state (tracer, scratch buffers — cleared
/// before every use) are deliberately excluded: a snapshot is only valid
/// on an identically-configured SM, which is what the campaign fork path
/// guarantees by re-preparing the same launch before restoring.
pub struct SmSnapshot {
    slots: Vec<Option<Slot>>,
    ctas: Vec<Option<CtaState>>,
    schedulers: Vec<Scheduler>,
    sched_blocked_until: Vec<u64>,
    last_stall: Vec<StallCause>,
    frozen_until: u64,
    port: MemPort,
    l1: Cache,
    attachment: Box<dyn SmAttachment + Send + Sync>,
    stats: SimStats,
    resident_ctas: usize,
}

impl std::fmt::Debug for SmSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmSnapshot")
            .field("resident_ctas", &self.resident_ctas)
            .finish_non_exhaustive()
    }
}

impl Sm {
    /// Creates an SM with `max_resident_ctas` CTA slots.
    pub fn new(
        id: usize,
        cfg: &GpuConfig,
        sched_kind: SchedulerKind,
        max_resident_ctas: usize,
        attachment: Box<dyn SmAttachment>,
    ) -> Sm {
        Sm {
            id,
            slots: (0..cfg.max_warps_per_sm).map(|_| None).collect(),
            ctas: (0..max_resident_ctas).map(|_| None).collect(),
            schedulers: (0..cfg.schedulers_per_sm)
                .map(|_| Scheduler::new(sched_kind))
                .collect(),
            sched_blocked_until: vec![0; cfg.schedulers_per_sm],
            last_stall: vec![StallCause::default(); cfg.schedulers_per_sm],
            frozen_until: 0,
            fast_forward: cfg.fast_forward,
            port: MemPort::new(cfg.mshrs_per_sm),
            l1: Cache::new(cfg.l1_bytes, cfg.l1_ways),
            attachment,
            stats: SimStats::default(),
            wake_buf: Vec::new(),
            latency: cfg.latency,
            resident_ctas: 0,
            eligible_buf: Vec::with_capacity(cfg.max_warps_per_sm),
            addr_buf: Vec::with_capacity(WARP_SIZE),
            seg_buf: Vec::with_capacity(WARP_SIZE),
            pending: PendingGlobal::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Replaces this SM's tracer: `Tracer::enabled(capacity)` starts
    /// recording, `Tracer::disabled()` stops it. Tracing never perturbs
    /// simulation state or statistics.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Whether this SM is currently recording trace events.
    pub fn tracing(&self) -> bool {
        self.tracer.on()
    }

    /// Detaches the recorded trace buffer (if tracing was enabled),
    /// leaving the tracer disabled.
    pub fn take_trace_buffer(&mut self) -> Option<Box<TraceBuffer>> {
        self.tracer.take()
    }

    /// Captures this SM's mutable run state, or `None` if the resilience
    /// attachment does not support snapshotting (see
    /// [`SmAttachment::snapshot_box`]).
    pub fn snapshot(&self) -> Option<SmSnapshot> {
        Some(SmSnapshot {
            slots: self.slots.clone(),
            ctas: self.ctas.clone(),
            schedulers: self.schedulers.clone(),
            sched_blocked_until: self.sched_blocked_until.clone(),
            last_stall: self.last_stall.clone(),
            frozen_until: self.frozen_until,
            port: self.port.clone(),
            l1: self.l1.clone(),
            attachment: self.attachment.snapshot_box()?,
            stats: self.stats,
            resident_ctas: self.resident_ctas,
        })
    }

    /// Reapplies a snapshot previously captured from an
    /// identically-configured SM. The snapshot stays usable: the stored
    /// attachment is cloned again, not moved, so one checkpoint can seed
    /// any number of forked runs. The tracer is left as-is (tracing never
    /// perturbs simulation state), and scratch buffers need no reset —
    /// every consumer clears them before use.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's attachment clone fails (an attachment
    /// whose `snapshot_box` returns `Some` must keep doing so) or if the
    /// snapshot geometry does not match this SM's configuration.
    pub fn restore(&mut self, snap: &SmSnapshot) {
        assert_eq!(
            self.slots.len(),
            snap.slots.len(),
            "SM snapshot restored onto a differently-configured SM"
        );
        assert_eq!(
            self.schedulers.len(),
            snap.schedulers.len(),
            "SM snapshot restored onto a differently-configured SM"
        );
        self.slots.clone_from(&snap.slots);
        self.ctas.clone_from(&snap.ctas);
        self.schedulers.clone_from(&snap.schedulers);
        self.sched_blocked_until
            .clone_from(&snap.sched_blocked_until);
        self.last_stall.clone_from(&snap.last_stall);
        self.frozen_until = snap.frozen_until;
        self.port = snap.port.clone();
        self.l1 = snap.l1.clone();
        self.attachment = snap
            .attachment
            .snapshot_box()
            .expect("snapshot attachment must remain snapshotable");
        self.stats = snap.stats;
        self.resident_ctas = snap.resident_ctas;
        // Deferred work never crosses a cycle, let alone a snapshot.
        debug_assert!(self.pending.ops.is_empty());
        self.pending.clear();
    }

    /// This SM's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Whether any CTA is resident.
    pub fn busy(&self) -> bool {
        self.resident_ctas > 0
    }

    /// Whether a new CTA (of `warps` warps) can be installed.
    pub fn can_accept(&self, warps: u32) -> bool {
        let free_cta = self.ctas.iter().any(Option::is_none);
        let free_slots = self.slots.iter().filter(|s| s.is_none()).count();
        free_cta && free_slots >= warps as usize
    }

    /// Warp slots currently holding a live (non-finished) warp. Lazy —
    /// callers on the fault-injection hot path iterate without allocating.
    pub fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.as_ref()
                    .is_some_and(|s| s.warp.state != WarpState::Finished)
            })
            .map(|(i, _)| i)
    }

    /// Installs a CTA, creating its warps.
    ///
    /// # Panics
    ///
    /// Panics if the SM cannot accept the CTA; check [`Sm::can_accept`].
    pub fn launch_cta(
        &mut self,
        cta_linear: u32,
        now: u64,
        kernel: &FlatKernel,
        dims: &LaunchDims,
    ) {
        let warps = dims.warps_per_cta();
        assert!(self.can_accept(warps), "SM {} cannot accept CTA", self.id);
        // Fresh warps invalidate any frozen window.
        self.frozen_until = 0;
        let cta_slot = self
            .ctas
            .iter()
            .position(Option::is_none)
            .expect("free CTA slot");
        let threads = dims.threads_per_cta();
        let local_words = (u64::from(kernel.local_mem_bytes).div_ceil(WORD_BYTES) as usize).max(1);
        let mut warp_slots = Vec::with_capacity(warps as usize);
        for w in 0..warps {
            let slot = self
                .slots
                .iter()
                .position(Option::is_none)
                .expect("free warp slot");
            let first_thread = w * WARP_SIZE as u32;
            let lanes = (threads - first_thread).min(WARP_SIZE as u32);
            let mask = if lanes == 32 {
                u32::MAX
            } else {
                (1u32 << lanes) - 1
            };
            let warp = Warp::new(0, mask, cta_slot, w as usize, now);
            let entry = warp.recovery_point();
            self.attachment.on_warp_launch(slot, entry.clone());
            self.slots[slot] = Some(Slot {
                warp,
                regs: WarpRegFile::new(kernel.regs_per_thread),
                entry,
                local: vec![0; local_words * WARP_SIZE],
                local_words,
                last_write: None,
                atomic_log: Vec::new(),
                replay_cursor: 0,
            });
            warp_slots.push(slot);
        }
        self.ctas[cta_slot] = Some(CtaState {
            coords: dims.cta_coords(cta_linear),
            live_warps: warps as usize,
            phase: 0,
            arrivals: 0,
            shared: SharedMemory::new(kernel.shared_mem_bytes.max(8)),
            warp_slots,
        });
        self.resident_ctas += 1;
        self.tracer.emit(
            now,
            TraceEvent::CtaLaunch {
                cta: cta_linear,
                warps,
            },
        );
    }

    /// Advances the SM by one cycle. Returns whether any scheduler issued
    /// an instruction — the signal the event-driven clock uses to decide
    /// whether the GPU is stalled and the next idle window can be skipped.
    ///
    /// The tick touches only per-SM state: effects on shared state (L2,
    /// device memory) are queued and must be flushed by
    /// [`Sm::apply_global`] in the same cycle, after every SM has ticked,
    /// in ascending SM order, as `Gpu::step_window` does.
    pub fn tick(&mut self, now: u64, kernel: &UopKernel, dims: &LaunchDims) -> bool {
        if now < self.frozen_until {
            // Frozen window: the port retires nothing, the attachment
            // wakes nobody, every scan repeats itself and every empty
            // pick is idempotent — the whole tick collapses to the
            // cached per-scheduler stall attribution.
            self.credit_idle_cycles(now, 1);
            return false;
        }
        let mut issued_any = false;
        self.port.tick(now);
        // Wake warps whose region verification completed.
        let mut wake = std::mem::take(&mut self.wake_buf);
        wake.clear();
        self.attachment.tick(now, &mut wake);
        for (i, &slot) in wake.iter().enumerate() {
            if let Some(s) = self.slots[slot].as_mut() {
                if s.warp.state == WarpState::InRbq {
                    s.warp.state = WarpState::Ready;
                    self.stats.resilience.verifications += 1;
                    // Everything before the new recovery point is verified:
                    // the logged atomics can never be replayed again.
                    s.atomic_log.clear();
                    s.replay_cursor = 0;
                    if self.tracer.on() {
                        // Occupancy after this pop: what the attachment
                        // still holds, plus the woken warps not yet
                        // processed in this loop.
                        let depth = (self.attachment.queue_depth() + (wake.len() - 1 - i)) as u32;
                        self.tracer.emit(
                            now,
                            TraceEvent::RbqDequeue {
                                slot: slot as u32,
                                depth,
                            },
                        );
                        self.tracer
                            .emit(now, TraceEvent::RegionVerify { slot: slot as u32 });
                    }
                }
            }
        }
        self.wake_buf = wake;

        for sched in 0..self.schedulers.len() {
            if self.sched_blocked_until[sched] > now {
                self.stats.stalls.sched_blocked += 1;
                self.last_stall[sched] = StallCause::SchedBlocked;
                self.tracer.emit(
                    now,
                    TraceEvent::IssueStall {
                        sched: sched as u32,
                        cause: flame_trace::StallCause::SchedBlocked,
                        cycles: 1,
                    },
                );
                continue;
            }
            let (tally, live) = self.scan(sched, now, kernel);
            // Move the scratch out so the scheduler (a disjoint field the
            // borrow checker cannot see past the method call) can read it;
            // moved back right after, keeping its capacity.
            let eligible = std::mem::take(&mut self.eligible_buf);
            let picked = self.schedulers[sched].pick(&eligible);
            self.eligible_buf = eligible;
            let cause = if let Some(slot) = picked {
                self.issue(slot, now, kernel, dims);
                issued_any = true;
                StallCause::Issued
            } else if live == 0 {
                self.stats.stalls.no_warp += 1;
                StallCause::NoWarp
            } else {
                // Attribute the stall to the dominant blocking cause.
                let (rbq, bar, mshr, sb) =
                    (tally.rbq, tally.barrier, tally.mshr_full, tally.scoreboard);
                if rbq >= bar && rbq >= mshr && rbq >= sb {
                    self.stats.stalls.rbq_wait += 1;
                    StallCause::RbqWait
                } else if bar >= mshr && bar >= sb {
                    self.stats.stalls.barrier += 1;
                    StallCause::Barrier
                } else if mshr >= sb {
                    self.stats.stalls.mshr_full += 1;
                    StallCause::MshrFull
                } else {
                    self.stats.stalls.scoreboard += 1;
                    StallCause::Scoreboard
                }
            };
            self.last_stall[sched] = cause;
            if let Some(tc) = cause.trace() {
                self.tracer.emit(
                    now,
                    TraceEvent::IssueStall {
                        sched: sched as u32,
                        cause: tc,
                        cycles: 1,
                    },
                );
            }
        }
        self.frozen_until = if issued_any || !self.fast_forward {
            0
        } else {
            self.next_event(now).unwrap_or(u64::MAX)
        };
        issued_any
    }

    /// Earliest cycle strictly after `now` (the cycle just ticked) at
    /// which this SM could change state without an instruction issuing
    /// anywhere, or `None` if it is fully quiescent. The event sources,
    /// exhaustively: a memory transaction retires (frees an MSHR), the
    /// resilience attachment wakes a warp (RBQ pop), a blocked scheduler's
    /// stall expires, or a pending register write completes (unblocks a
    /// scoreboarded warp). Everything else — dispatch, barriers, boundary
    /// processing, scheduler policy state — only changes on an issue, and
    /// an issue anywhere disables the skip for that step.
    pub(crate) fn next_event(&self, now: u64) -> Option<u64> {
        let port = self.port.next_completion();
        let attachment = self.attachment.next_event(now);
        let sched = self
            .sched_blocked_until
            .iter()
            .copied()
            .filter(|&b| b > now)
            .min();
        let regs = self
            .slots
            .iter()
            .flatten()
            .filter(|s| s.warp.state != WarpState::Finished)
            .filter_map(|s| s.regs.next_pending(now))
            .min();
        [port, attachment, sched, regs].into_iter().flatten().min()
    }

    /// The cached [`Sm::next_event`] horizon from this SM's last
    /// non-issuing tick: `u64::MAX` means fully quiescent, `0` (or any
    /// value at or below the current cycle) means the SM must run a full
    /// tick next cycle. Every tick and every external mutation refreshes
    /// or resets it, so after a GPU step in which nothing issued the
    /// cached value is exact — the global skip takes the min across SMs
    /// without re-running the event scan.
    pub(crate) fn frozen_horizon(&self) -> u64 {
        self.frozen_until
    }

    /// Credits `skipped` cycles' worth of stall attribution in bulk, as if
    /// [`Sm::tick`] had run for each of them. Valid only for a window in
    /// which nothing issued GPU-wide (`now` is the cycle last ticked) and
    /// no event of [`Sm::next_event`] fires: the per-scheduler scan is
    /// then a pure function of frozen state and repeats its last
    /// attribution verbatim — except that a scheduler blocked *during*
    /// the last tick takes the `sched_blocked` early-out on every
    /// subsequent cycle, regardless of what its scan concluded.
    pub(crate) fn credit_idle_cycles(&mut self, now: u64, skipped: u64) {
        for sched in 0..self.schedulers.len() {
            let cause = if self.sched_blocked_until[sched] > now {
                StallCause::SchedBlocked
            } else {
                self.last_stall[sched]
            };
            match cause {
                StallCause::Issued => {
                    unreachable!("idle cycles credited after an issuing tick")
                }
                StallCause::NoWarp => self.stats.stalls.no_warp += skipped,
                StallCause::Scoreboard => self.stats.stalls.scoreboard += skipped,
                StallCause::MshrFull => self.stats.stalls.mshr_full += skipped,
                StallCause::Barrier => self.stats.stalls.barrier += skipped,
                StallCause::RbqWait => self.stats.stalls.rbq_wait += skipped,
                StallCause::SchedBlocked => self.stats.stalls.sched_blocked += skipped,
            }
            if let Some(tc) = cause.trace() {
                // One bulk event stands in for `skipped` per-cycle ones:
                // per-cause sums stay exact under the event-driven clock.
                self.tracer.emit(
                    now,
                    TraceEvent::IssueStall {
                        sched: sched as u32,
                        cause: tc,
                        cycles: skipped,
                    },
                );
            }
        }
    }

    /// Scans this scheduler's slots: processes region boundaries (a
    /// zero-cost scheduler event), and classifies each live warp as
    /// eligible or blocked. Eligible candidates land in
    /// `self.eligible_buf` (reused scratch); blocked warps are tallied by
    /// cause. Runs every cycle per scheduler, so it never allocates.
    fn scan(&mut self, sched: usize, now: u64, kernel: &UopKernel) -> (BlockTally, usize) {
        let nsched = self.schedulers.len();
        self.eligible_buf.clear();
        let mut tally = BlockTally::default();
        let mut live = 0usize;
        for slot in (sched..self.slots.len()).step_by(nsched) {
            // Region boundaries are consumed here, before issue: the
            // scheduler recognizes them and (under Flame) swaps the warp
            // out, exactly like a long-latency operation would.
            while let Some(s) = self.slots[slot].as_mut() {
                if s.warp.state != WarpState::Ready {
                    break;
                }
                let Some(pc) = s.warp.stack.pc() else { break };
                if !kernel.is_boundary(pc) {
                    break;
                }
                s.warp.stack.advance(pc + 1);
                let resume = s.warp.recovery_point();
                self.stats.resilience.boundaries += 1;
                self.tracer.emit(
                    now,
                    TraceEvent::RegionEnter {
                        slot: slot as u32,
                        pc: pc + 1,
                    },
                );
                match self.attachment.on_boundary(now, slot, resume, &s.regs) {
                    BoundaryAction::Continue => {
                        // The recovery point advanced past the region:
                        // its atomics are committed.
                        s.atomic_log.clear();
                        s.replay_cursor = 0;
                        self.tracer
                            .emit(now, TraceEvent::RegionCommit { slot: slot as u32 });
                    }
                    BoundaryAction::Deschedule => {
                        s.warp.state = WarpState::InRbq;
                        self.stats.resilience.deschedules += 1;
                        if self.tracer.on() {
                            let depth = self.attachment.queue_depth() as u32;
                            self.tracer.emit(
                                now,
                                TraceEvent::RbqEnqueue {
                                    slot: slot as u32,
                                    depth,
                                },
                            );
                        }
                    }
                    BoundaryAction::BlockScheduler(n) => {
                        self.sched_blocked_until[sched] = now + u64::from(n);
                        s.atomic_log.clear();
                        s.replay_cursor = 0;
                        if self.tracer.on() {
                            self.tracer.emit(
                                now,
                                TraceEvent::SchedBlock {
                                    sched: sched as u32,
                                    until: now + u64::from(n),
                                },
                            );
                            self.tracer
                                .emit(now, TraceEvent::RegionCommit { slot: slot as u32 });
                        }
                    }
                }
                if self.sched_blocked_until[sched] > now {
                    break;
                }
            }
            if self.sched_blocked_until[sched] > now {
                // Naive verification blocked the whole scheduler.
                break;
            }
            let Some(s) = self.slots[slot].as_ref() else {
                continue;
            };
            match s.warp.state {
                WarpState::Finished => continue,
                WarpState::AtBarrier => {
                    live += 1;
                    tally.barrier += 1;
                    continue;
                }
                WarpState::InRbq => {
                    live += 1;
                    tally.rbq += 1;
                    continue;
                }
                WarpState::Ready => {}
            }
            live += 1;
            let Some(pc) = s.warp.stack.pc() else {
                continue;
            };
            // Structural hazard: global memory ops need an MSHR.
            if kernel.needs_mshr(pc) && self.port.free() == 0 {
                tally.mshr_full += 1;
                continue;
            }
            // Scoreboard: all read and written registers must be ready.
            if !kernel.scoreboard_ready(pc, &s.regs, now) {
                tally.scoreboard += 1;
                continue;
            }
            self.eligible_buf.push(Candidate {
                slot,
                age: s.warp.launch_cycle,
            });
        }
        (tally, live)
    }

    /// Issues and functionally executes one instruction from `slot`.
    /// Effects on shared state (L2, device memory) are queued into
    /// `self.pending` for [`Sm::apply_global`]; everything else happens
    /// here.
    #[allow(clippy::too_many_lines)]
    fn issue(&mut self, slot: usize, now: u64, kernel: &UopKernel, dims: &LaunchDims) {
        let s = self.slots[slot].as_mut().expect("issued slot is live");
        let pc = s.warp.stack.pc().expect("issued warp has a pc");
        let u = kernel.uop(pc);
        let active = s.warp.stack.active_mask();
        if let Some(d) = u.dst {
            s.last_write = Some((d, now));
        }
        let cta = self.ctas[s.warp.cta_slot]
            .as_mut()
            .expect("warp's CTA is resident");

        // Per-lane special values.
        let block_x = dims.block.0 as u64;
        let coords = cta.coords;
        let base_thread = s.warp.base_thread as u64;
        let special = |sp: Special, lane: usize| -> Value {
            let lin = base_thread + lane as u64;
            match sp {
                Special::TidX => lin % block_x,
                Special::TidY => lin / block_x,
                Special::CtaIdX => u64::from(coords.0),
                Special::CtaIdY => u64::from(coords.1),
                Special::NTidX => u64::from(dims.block.0),
                Special::NTidY => u64::from(dims.block.1),
                Special::NCtaIdX => u64::from(dims.grid.0),
                Special::NCtaIdY => u64::from(dims.grid.1),
                Special::LaneId => lane as u64,
            }
        };
        let read_op = |regs: &WarpRegFile, o: Operand, lane: usize| -> Value {
            match o {
                Operand::Reg(r) => regs.read(r, lane),
                Operand::Imm(v) => v as Value,
                Operand::Special(sp) => special(sp, lane),
            }
        };

        // Guard predicate.
        let mut mask = active;
        if let Some((p, sense)) = u.pred {
            if u.op != Opcode::Bra {
                let mut m = 0u32;
                for lane in 0..WARP_SIZE {
                    if active & (1 << lane) != 0 {
                        let v = s.regs.read(p, lane) != 0;
                        if v == sense {
                            m |= 1 << lane;
                        }
                    }
                }
                mask = m;
            }
        }

        self.stats.instructions += 1;
        self.stats.thread_instructions += u64::from(active.count_ones());
        self.tracer.emit(
            now,
            TraceEvent::WarpIssue {
                slot: slot as u32,
                pc,
            },
        );

        match u.op {
            Opcode::Bra => {
                let target = u.target_pc;
                let reconv = u.reconv_pc;
                let taken = match u.pred {
                    None => active,
                    Some((p, sense)) => {
                        let mut t = 0u32;
                        for lane in 0..WARP_SIZE {
                            if active & (1 << lane) != 0 && (s.regs.read(p, lane) != 0) == sense {
                                t |= 1 << lane;
                            }
                        }
                        t
                    }
                };
                s.warp.stack.branch(taken, target, pc + 1, reconv);
            }
            Opcode::Exit => {
                s.warp.stack.exit_lanes(mask);
                if !s.warp.stack.finished() {
                    // Some lanes continue on other stack entries.
                } else {
                    s.warp.state = WarpState::Finished;
                    self.attachment.on_warp_exit(slot);
                    cta.live_warps -= 1;
                    let cta_slot = s.warp.cta_slot;
                    self.tracer
                        .emit(now, TraceEvent::WarpRetire { slot: slot as u32 });
                    self.release_barrier_if_complete(cta_slot);
                    if self.ctas[cta_slot]
                        .as_ref()
                        .is_some_and(|c| c.live_warps == 0)
                    {
                        self.retire_cta(cta_slot, now);
                    }
                }
            }
            Opcode::Bar => {
                s.warp.stack.advance(pc + 1);
                let cta_slot = s.warp.cta_slot;
                if s.warp.barrier_phase < cta.phase {
                    // Barrier instance already released (possible only
                    // after rollback recovery): pass through.
                    s.warp.barrier_phase += 1;
                } else {
                    cta.arrivals += 1;
                    s.warp.state = WarpState::AtBarrier;
                    self.release_barrier_if_complete(cta_slot);
                }
            }
            Opcode::Ld(space) => {
                let base = u.srcs[0];
                lane_addresses_into(
                    &mut self.addr_buf,
                    mask,
                    |l| read_op(&s.regs, base, l),
                    u.offset,
                );
                let dst = u.dst.expect("load has a destination");
                match space {
                    MemSpace::Global => {
                        // Cache walk, hit/miss statistics, the functional
                        // read and the real finish cycle all defer to
                        // apply_global. Here: count transactions, reserve
                        // placeholder MSHRs (so same-cycle structural
                        // checks by later schedulers see the true
                        // occupancy) and sentinel the scoreboard.
                        coalesce_into(&self.addr_buf, &mut self.seg_buf);
                        self.stats.mem.transactions += self.seg_buf.len() as u64;
                        let nport = self.seg_buf.len().min(self.port.free());
                        let mut port0 = 0;
                        for i in 0..nport {
                            let idx = self.port.reserve_placeholder();
                            if i == 0 {
                                port0 = idx;
                            }
                        }
                        let seg0 = self.pending.segs.len();
                        self.pending.segs.extend_from_slice(&self.seg_buf);
                        let lane0 = self.pending.lanes.len();
                        let addr0 = self.pending.addrs.len();
                        for lane in 0..WARP_SIZE {
                            if mask & (1 << lane) != 0 {
                                self.pending.lanes.push(lane);
                            }
                        }
                        self.pending.addrs.extend_from_slice(&self.addr_buf);
                        self.pending.ops.push(PendingOp::Load {
                            slot,
                            dst,
                            seg0,
                            nseg: self.seg_buf.len(),
                            lane0,
                            addr0,
                            n: self.addr_buf.len(),
                            port0,
                            nport,
                        });
                        s.regs.set_pending(dst, u64::MAX);
                    }
                    MemSpace::Shared => {
                        let degree = bank_conflict_degree(&self.addr_buf);
                        self.stats.mem.shared_accesses += 1;
                        self.stats.mem.bank_conflicts += degree - 1;
                        for lane in 0..WARP_SIZE {
                            if mask & (1 << lane) != 0 {
                                let addr =
                                    read_op(&s.regs, base, lane).wrapping_add(u.offset as u64);
                                let v = cta.shared.read(addr);
                                s.regs.write(dst, lane, v);
                            }
                        }
                        s.regs
                            .set_pending(dst, now + self.latency.shared + degree - 1);
                    }
                    MemSpace::Local => {
                        for lane in 0..WARP_SIZE {
                            if mask & (1 << lane) != 0 {
                                let addr =
                                    read_op(&s.regs, base, lane).wrapping_add(u.offset as u64);
                                let w = (addr / WORD_BYTES) as usize % s.local_words;
                                let v = s.local[lane * s.local_words + w];
                                s.regs.write(dst, lane, v);
                            }
                        }
                        s.regs.set_pending(dst, now + self.latency.l1_hit);
                    }
                }
                s.warp.stack.advance(pc + 1);
            }
            Opcode::St(space) => {
                let base = u.srcs[0];
                let val_op = u.srcs[1];
                lane_addresses_into(
                    &mut self.addr_buf,
                    mask,
                    |l| read_op(&s.regs, base, l),
                    u.offset,
                );
                match space {
                    MemSpace::Global => {
                        coalesce_into(&self.addr_buf, &mut self.seg_buf);
                        self.stats.mem.transactions += self.seg_buf.len() as u64;
                        // Write-through: charge L2 latency on MSHRs. The
                        // finish cycle is latency-class-known (stores never
                        // wait on the hit/miss outcome), so the MSHRs are
                        // reserved for real here; the L1/L2 stats walk and
                        // the functional writes defer to apply_global.
                        let finish = now + self.latency.l2_hit + self.seg_buf.len() as u64 - 1;
                        for _ in 0..self.seg_buf.len().min(self.port.free()) {
                            self.port.reserve(finish);
                        }
                        self.tracer.emit(
                            now,
                            TraceEvent::MemIssue {
                                slot: slot as u32,
                                segments: self.seg_buf.len() as u32,
                                finish,
                            },
                        );
                        let seg0 = self.pending.segs.len();
                        self.pending.segs.extend_from_slice(&self.seg_buf);
                        let addr0 = self.pending.addrs.len();
                        self.pending.addrs.extend_from_slice(&self.addr_buf);
                        let val0 = self.pending.vals.len();
                        for lane in 0..WARP_SIZE {
                            if mask & (1 << lane) != 0 {
                                self.pending.vals.push(read_op(&s.regs, val_op, lane));
                            }
                        }
                        self.pending.ops.push(PendingOp::Store {
                            seg0,
                            nseg: self.seg_buf.len(),
                            addr0,
                            val0,
                            n: self.addr_buf.len(),
                        });
                    }
                    MemSpace::Shared => {
                        let degree = bank_conflict_degree(&self.addr_buf);
                        self.stats.mem.shared_accesses += 1;
                        self.stats.mem.bank_conflicts += degree - 1;
                        for lane in 0..WARP_SIZE {
                            if mask & (1 << lane) != 0 {
                                let addr =
                                    read_op(&s.regs, base, lane).wrapping_add(u.offset as u64);
                                let v = read_op(&s.regs, val_op, lane);
                                cta.shared.write(addr, v);
                            }
                        }
                    }
                    MemSpace::Local => {
                        for lane in 0..WARP_SIZE {
                            if mask & (1 << lane) != 0 {
                                let addr =
                                    read_op(&s.regs, base, lane).wrapping_add(u.offset as u64);
                                let v = read_op(&s.regs, val_op, lane);
                                let w = (addr / WORD_BYTES) as usize % s.local_words;
                                s.local[lane * s.local_words + w] = v;
                            }
                        }
                    }
                }
                s.warp.stack.advance(pc + 1);
            }
            Opcode::Atom(space, aop) => {
                let base = u.srcs[0];
                lane_addresses_into(
                    &mut self.addr_buf,
                    mask,
                    |l| read_op(&s.regs, base, l),
                    u.offset,
                );
                // Serialization: the maximum number of lanes contending on
                // one address. Quadratic over ≤32 lanes beats the old
                // clone-and-sort: no allocation on the issue path. The
                // maximum multiplicity of any value is always observed at
                // its first occurrence, so scanning forward from each `i`
                // suffices.
                let mut max_mult: u64 = 1;
                for i in 0..self.addr_buf.len() {
                    let mut mult: u64 = 1;
                    for j in i + 1..self.addr_buf.len() {
                        if self.addr_buf[j] == self.addr_buf[i] {
                            mult += 1;
                        }
                    }
                    max_mult = max_mult.max(mult);
                }
                self.stats.mem.atomics += 1;
                let base_lat = match space {
                    MemSpace::Shared => self.latency.atom_shared,
                    _ => self.latency.atom_global,
                };
                let finish = now + base_lat + max_mult - 1;
                if space == MemSpace::Global && self.port.free() > 0 {
                    self.port.reserve(finish);
                }
                if space == MemSpace::Global {
                    self.tracer.emit(
                        now,
                        TraceEvent::MemIssue {
                            slot: slot as u32,
                            segments: 1,
                            finish,
                        },
                    );
                }
                // Replay path: this atomic already executed before a
                // rollback — return the logged result without touching
                // memory (re-applying an RMW would break idempotence).
                let replayed = if s.replay_cursor < s.atomic_log.len() {
                    let e = &s.atomic_log[s.replay_cursor];
                    if e.pc == pc && e.mask == mask {
                        if let Some(d) = u.dst {
                            for lane in 0..WARP_SIZE {
                                if mask & (1 << lane) != 0 {
                                    s.regs.write(d, lane, e.old[lane]);
                                }
                            }
                        }
                        s.replay_cursor += 1;
                        true
                    } else {
                        // Divergent re-execution (a corrupted value altered
                        // control flow before detection): the log no longer
                        // describes this path. Execute fresh; the stale
                        // entries can never match again.
                        s.atomic_log.truncate(s.replay_cursor);
                        false
                    }
                } else {
                    false
                };
                if !replayed {
                    if space == MemSpace::Global {
                        // Fresh global RMW: the memory reads/writes, the
                        // log entry and the result writeback defer to
                        // apply_global. Operand values are captured now so
                        // the deferred RMW sees issue-time registers.
                        let lane0 = self.pending.lanes.len();
                        let addr0 = self.pending.addrs.len();
                        let val0 = self.pending.vals.len();
                        let val20 = self.pending.vals2.len();
                        for lane in 0..WARP_SIZE {
                            if mask & (1 << lane) != 0 {
                                self.pending.lanes.push(lane);
                                self.pending.vals.push(read_op(&s.regs, u.srcs[1], lane));
                                self.pending.vals2.push(read_op(&s.regs, u.srcs[2], lane));
                            }
                        }
                        self.pending.addrs.extend_from_slice(&self.addr_buf);
                        self.pending.ops.push(PendingOp::Atom {
                            slot,
                            dst: u.dst,
                            aop,
                            pc,
                            mask,
                            lane0,
                            addr0,
                            val0,
                            val20,
                            n: self.addr_buf.len(),
                        });
                    } else {
                        // Functional shared/local RMW in lane order, logged
                        // for replay.
                        let mut entry = AtomicLogEntry {
                            pc,
                            mask,
                            old: vec![0; WARP_SIZE],
                        };
                        for lane in 0..WARP_SIZE {
                            if mask & (1 << lane) != 0 {
                                let addr =
                                    read_op(&s.regs, base, lane).wrapping_add(u.offset as u64);
                                let operand = read_op(&s.regs, u.srcs[1], lane);
                                let operand2 = read_op(&s.regs, u.srcs[2], lane);
                                let old = if space == MemSpace::Shared {
                                    cta.shared.read(addr)
                                } else {
                                    let w = (addr / WORD_BYTES) as usize % s.local_words;
                                    s.local[lane * s.local_words + w]
                                };
                                let (old, new) = eval_atom(aop, old, operand, operand2);
                                if space == MemSpace::Shared {
                                    cta.shared.write(addr, new);
                                } else {
                                    let w = (addr / WORD_BYTES) as usize % s.local_words;
                                    s.local[lane * s.local_words + w] = new;
                                }
                                entry.old[lane] = old;
                                if let Some(d) = u.dst {
                                    s.regs.write(d, lane, old);
                                }
                            }
                        }
                        s.atomic_log.push(entry);
                        s.replay_cursor = s.atomic_log.len();
                    }
                }
                if let Some(d) = u.dst {
                    s.regs.set_pending(d, finish);
                }
                s.warp.stack.advance(pc + 1);
            }
            Opcode::Nop => {
                s.warp.stack.advance(pc + 1);
            }
            Opcode::RegionBoundary => {
                unreachable!("region boundaries are consumed by the scheduler scan")
            }
            _ => {
                // Computational opcode. Unused source slots are padded with
                // `Imm(0)` at lowering time, matching the zero-initialised
                // operand array the evaluator has always seen.
                let dst = u.dst.expect("compute op has a destination");
                for lane in 0..WARP_SIZE {
                    if mask & (1 << lane) != 0 {
                        let srcs = [
                            read_op(&s.regs, u.srcs[0], lane),
                            read_op(&s.regs, u.srcs[1], lane),
                            read_op(&s.regs, u.srcs[2], lane),
                        ];
                        let v = eval(u.op, srcs);
                        s.regs.write(dst, lane, v);
                    }
                }
                s.regs.set_pending(dst, now + u.lat);
                s.warp.stack.advance(pc + 1);
            }
        }
    }

    /// Applies this cycle's deferred global-memory traffic: the L1/L2
    /// walks with their hit/miss statistics, DRAM reads/writes, global
    /// atomic RMWs, and load finish-cycle resolution (placeholder MSHR
    /// patching plus scoreboard completion).
    ///
    /// Must be called exactly once after every [`Sm::tick`], in ascending
    /// SM order across the GPU, before any SM ticks the next cycle: one
    /// fixed L2 access order, and therefore deterministic latencies,
    /// stalls and cache statistics.
    pub(crate) fn apply_global(&mut self, now: u64, global: &mut GlobalMemory, l2: &mut Cache) {
        if self.pending.ops.is_empty() {
            return;
        }
        let mut p = std::mem::take(&mut self.pending);
        for op in &p.ops {
            match *op {
                PendingOp::Load {
                    slot,
                    dst,
                    seg0,
                    nseg,
                    lane0,
                    addr0,
                    n,
                    port0,
                    nport,
                } => {
                    let mut max_lat = self.latency.l1_hit;
                    for &seg in &p.segs[seg0..seg0 + nseg] {
                        let lat = match self.l1.access(seg, true) {
                            CacheOutcome::Hit => {
                                self.stats.mem.l1_hits += 1;
                                self.latency.l1_hit
                            }
                            CacheOutcome::Miss => {
                                self.stats.mem.l1_misses += 1;
                                match l2.access(seg, true) {
                                    CacheOutcome::Hit => {
                                        self.stats.mem.l2_hits += 1;
                                        self.latency.l2_hit
                                    }
                                    CacheOutcome::Miss => {
                                        self.stats.mem.l2_misses += 1;
                                        self.latency.dram
                                    }
                                }
                            }
                        };
                        max_lat = max_lat.max(lat);
                    }
                    let finish = now + max_lat + nseg as u64 - 1;
                    for i in 0..nport {
                        self.port.patch(port0 + i, finish);
                    }
                    self.tracer.emit(
                        now,
                        TraceEvent::MemIssue {
                            slot: slot as u32,
                            segments: nseg as u32,
                            finish,
                        },
                    );
                    let s = self.slots[slot].as_mut().expect("warp live at apply");
                    for i in 0..n {
                        let lane = p.lanes[lane0 + i];
                        let v = global.read(p.addrs[addr0 + i]);
                        s.regs.write(dst, lane, v);
                    }
                    s.regs.complete(dst, finish);
                }
                PendingOp::Store {
                    seg0,
                    nseg,
                    addr0,
                    val0,
                    n,
                } => {
                    for &seg in &p.segs[seg0..seg0 + nseg] {
                        let _ = self.l1.access(seg, false);
                        match l2.access(seg, true) {
                            CacheOutcome::Hit => self.stats.mem.l2_hits += 1,
                            CacheOutcome::Miss => self.stats.mem.l2_misses += 1,
                        }
                    }
                    for i in 0..n {
                        global.write(p.addrs[addr0 + i], p.vals[val0 + i]);
                    }
                }
                PendingOp::Atom {
                    slot,
                    dst,
                    aop,
                    pc,
                    mask,
                    lane0,
                    addr0,
                    val0,
                    val20,
                    n,
                } => {
                    let s = self.slots[slot].as_mut().expect("warp live at apply");
                    let mut entry = AtomicLogEntry {
                        pc,
                        mask,
                        old: vec![0; WARP_SIZE],
                    };
                    for i in 0..n {
                        let lane = p.lanes[lane0 + i];
                        let addr = p.addrs[addr0 + i];
                        let old = global.read(addr);
                        let (old, new) = eval_atom(aop, old, p.vals[val0 + i], p.vals2[val20 + i]);
                        global.write(addr, new);
                        entry.old[lane] = old;
                        if let Some(d) = dst {
                            s.regs.write(d, lane, old);
                        }
                    }
                    s.atomic_log.push(entry);
                    s.replay_cursor = s.atomic_log.len();
                }
            }
        }
        p.clear();
        self.pending = p;
    }

    /// Releases the CTA's barrier when all live warps have arrived.
    fn release_barrier_if_complete(&mut self, cta_slot: usize) {
        let Some(cta) = self.ctas[cta_slot].as_mut() else {
            return;
        };
        if cta.arrivals == 0 || cta.arrivals < cta.live_warps {
            return;
        }
        cta.phase += 1;
        cta.arrivals = 0;
        let phase = cta.phase;
        let slots = cta.warp_slots.clone();
        for slot in slots {
            if let Some(s) = self.slots[slot].as_mut() {
                if s.warp.state == WarpState::AtBarrier {
                    s.warp.state = WarpState::Ready;
                    s.warp.barrier_phase = phase;
                }
            }
        }
    }

    fn retire_cta(&mut self, cta_slot: usize, now: u64) {
        let cta = self.ctas[cta_slot].take().expect("CTA resident");
        for slot in cta.warp_slots {
            self.slots[slot] = None;
        }
        self.resident_ctas -= 1;
        self.stats.ctas += 1;
        self.tracer.emit(
            now,
            TraceEvent::CtaDrain {
                cta_slot: cta_slot as u32,
            },
        );
    }

    /// XORs `xor_mask` into the value most recently written by the warp
    /// in `slot`, provided that write issued at `now` (strikes corrupt
    /// in-flight pipeline writes; older values sit in the ECC-protected
    /// register file). Returns whether the injection landed.
    pub fn corrupt_recent_write(
        &mut self,
        slot: usize,
        now: u64,
        lane: usize,
        xor_mask: u64,
    ) -> bool {
        self.frozen_until = 0;
        match self.slots.get_mut(slot).and_then(Option::as_mut) {
            Some(s) if s.warp.state != WarpState::Finished => match s.last_write {
                Some((reg, cycle)) if cycle == now => {
                    s.regs.corrupt(reg, lane, xor_mask);
                    true
                }
                _ => false,
            },
            _ => false,
        }
    }

    /// XORs `xor_mask` into `(reg, lane)` of the warp in `slot`, modelling
    /// a particle strike corrupting a pipeline register write. Returns
    /// whether the injection landed on a live warp.
    pub fn corrupt_register(&mut self, slot: usize, reg: Reg, lane: usize, xor_mask: u64) -> bool {
        self.frozen_until = 0;
        match self.slots.get_mut(slot).and_then(Option::as_mut) {
            Some(s)
                if s.warp.state != WarpState::Finished
                    && reg.index() < s.regs.regs_per_thread() as usize =>
            {
                s.regs.corrupt(reg, lane, xor_mask);
                true
            }
            _ => false,
        }
    }

    /// Rolls back every live warp to its recovery point (idempotent
    /// re-execution after a detected error). Returns the number of warps
    /// rolled back.
    pub fn recover(&mut self, now: u64) -> usize {
        self.frozen_until = 0;
        let points = self.attachment.on_error(now);
        let mut n = 0;
        for (slot, point) in points {
            if let Some(s) = self.slots.get_mut(slot).and_then(Option::as_mut) {
                if s.warp.state == WarpState::Finished {
                    continue;
                }
                s.warp.rollback(&point);
                s.regs.flush_pending();
                // Re-execution replays already-applied atomics from the log.
                s.replay_cursor = 0;
                // Checkpointing-based recovery: restore the region's
                // anti-dependent inputs to their verified checkpoint
                // values.
                for r in &point.restores {
                    for (lane, &v) in r.lanes.iter().enumerate().take(WARP_SIZE) {
                        s.regs.write(r.reg, lane, v);
                    }
                }
                n += 1;
            }
        }
        for cta in self.ctas.iter_mut().flatten() {
            cta.arrivals = 0;
        }
        self.port.flush();
        self.sched_blocked_until.fill(0);
        self.stats.resilience.recoveries += 1;
        self.stats.resilience.warps_rolled_back += n as u64;
        self.tracer
            .emit(now, TraceEvent::Rollback { warps: n as u32 });
        n
    }

    /// Diverts the PC of the (Ready) warp in `slot` by XORing `xor` into
    /// it, wrapped into the kernel's `code_len` instructions — a strike
    /// on the fetch/SIMT-stack logic rather than on a datapath value.
    /// Returns the corrupted PC, or `None` when the slot holds no warp
    /// whose PC is live in the fetch stage (finished, at a barrier, or
    /// parked in the RBQ).
    pub fn corrupt_pc(&mut self, slot: usize, xor: u32, code_len: u32) -> Option<u32> {
        self.frozen_until = 0;
        match self.slots.get_mut(slot).and_then(Option::as_mut) {
            Some(s) if s.warp.state == WarpState::Ready => s.warp.stack.corrupt_pc(xor, code_len),
            _ => None,
        }
    }

    /// Forwards a strike on the recovery hardware itself (RPT entry / RBQ
    /// metadata) to the attachment. Returns whether live recovery state
    /// was corrupted.
    pub fn corrupt_recovery_state(&mut self, token: u64) -> bool {
        self.frozen_until = 0;
        self.attachment.corrupt_recovery_state(token)
    }

    /// Whether the attachment holds known-corrupted recovery state (see
    /// [`SmAttachment::recovery_poisoned`]).
    pub fn recovery_poisoned(&self) -> bool {
        self.attachment.recovery_poisoned()
    }

    /// Escalated recovery: restarts every resident CTA from its entry
    /// point, for when region-level rollback is unusable (corrupted RPT
    /// state, or repeated rollbacks making no progress). All in-flight
    /// verification state is dropped and each warp is re-registered with
    /// the attachment as a fresh launch. Returns the number of warps
    /// restarted.
    ///
    /// Re-execution starts from PC 0, so the relaunch is sound exactly
    /// when the kernel is idempotent from its entry; already-committed
    /// atomics re-apply (their logs cannot describe the full re-run and
    /// are dropped). When that breaks the output, the failure surfaces
    /// in the output check and escalates further — to a kernel relaunch,
    /// which reinitializes memory.
    pub fn relaunch_ctas(&mut self, now: u64) -> usize {
        self.frozen_until = 0;
        // Flush the conveyor; relaunched warps get fresh RPT entries.
        let _ = self.attachment.on_error(now);
        for cta in self.ctas.iter_mut().flatten() {
            cta.phase = 0;
            cta.arrivals = 0;
            cta.live_warps = 0;
        }
        let mut n = 0;
        for slot in 0..self.slots.len() {
            let Some(s) = self.slots[slot].as_mut() else {
                continue;
            };
            s.warp.rollback(&s.entry);
            s.regs.flush_pending();
            s.last_write = None;
            s.atomic_log.clear();
            s.replay_cursor = 0;
            let entry = s.entry.clone();
            let cta_slot = s.warp.cta_slot;
            if let Some(c) = self.ctas[cta_slot].as_mut() {
                c.live_warps += 1;
            }
            self.attachment.on_warp_launch(slot, entry);
            n += 1;
        }
        self.port.flush();
        self.sched_blocked_until.fill(0);
        self.stats.resilience.cta_relaunches += 1;
        self.stats.resilience.warps_rolled_back += n as u64;
        self.tracer
            .emit(now, TraceEvent::CtaRelaunch { warps: n as u32 });
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::isa::{AtomOp, Cmp};
    use crate::resilience::NullAttachment;
    use crate::warp::RecoveryPoint;
    use std::sync::{Arc, Mutex};

    fn cfg() -> GpuConfig {
        GpuConfig::gtx480()
    }

    fn mk_sm(kernel: &FlatKernel, dims: &LaunchDims) -> (Sm, GlobalMemory, Cache) {
        let c = cfg();
        let mut sm = Sm::new(
            0,
            &c,
            SchedulerKind::Gto,
            8,
            Box::new(NullAttachment::new()),
        );
        sm.launch_cta(0, 0, kernel, dims);
        (
            sm,
            GlobalMemory::new(1 << 20),
            Cache::new(c.l2_bytes, c.l2_ways),
        )
    }

    /// One full cycle as `Gpu::step_window` runs it: tick, then the same-cycle
    /// global-traffic drain.
    fn tick_full(
        sm: &mut Sm,
        now: u64,
        kernel: &FlatKernel,
        dims: &LaunchDims,
        g: &mut GlobalMemory,
        l2: &mut Cache,
    ) -> bool {
        let uops = UopKernel::build(kernel, &cfg().latency);
        let r = sm.tick(now, &uops, dims);
        sm.apply_global(now, g, l2);
        r
    }

    fn run_sm(
        sm: &mut Sm,
        kernel: &FlatKernel,
        dims: &LaunchDims,
        g: &mut GlobalMemory,
        l2: &mut Cache,
    ) {
        let mut now = 0;
        while sm.busy() {
            tick_full(sm, now, kernel, dims, g, l2);
            now += 1;
            assert!(now < 1_000_000, "SM did not retire its CTA");
        }
    }

    #[test]
    fn launch_dims_math() {
        let d = LaunchDims {
            grid: (3, 2),
            block: (16, 8),
        };
        assert_eq!(d.threads_per_cta(), 128);
        assert_eq!(d.warps_per_cta(), 4);
        assert_eq!(d.num_ctas(), 6);
        assert_eq!(d.cta_coords(0), (0, 0));
        assert_eq!(d.cta_coords(4), (1, 1));
        // Partial warps round up.
        assert_eq!(LaunchDims::linear(1, 33).warps_per_cta(), 2);
    }

    #[test]
    fn can_accept_respects_slots() {
        let mut b = KernelBuilder::new("k");
        b.exit();
        let k = b.finish().flatten();
        let c = cfg();
        let mut sm = Sm::new(
            0,
            &c,
            SchedulerKind::Gto,
            2,
            Box::new(NullAttachment::new()),
        );
        let dims = LaunchDims::linear(4, 1024); // 32 warps per CTA
        assert!(sm.can_accept(32));
        sm.launch_cta(0, 0, &k, &dims);
        // 48 slots - 32 used: a second 32-warp CTA no longer fits.
        assert!(!sm.can_accept(32));
        assert!(sm.can_accept(16));
        assert_eq!(sm.live_slots().count(), 32);
    }

    #[test]
    fn corrupt_recent_write_requires_same_cycle() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov(7i64);
        let y = b.iadd(x, 1);
        let a = b.imul(y, 8);
        b.st_global(a, y, 0);
        b.exit();
        let k = b.finish().flatten();
        let dims = LaunchDims::linear(1, 32);
        let (mut sm, mut g, mut l2) = mk_sm(&k, &dims);
        tick_full(&mut sm, 0, &k, &dims, &mut g, &mut l2);
        // The slot issued its first instruction at cycle 0.
        assert!(sm.corrupt_recent_write(0, 0, 3, 1));
        assert!(
            !sm.corrupt_recent_write(0, 5, 3, 1),
            "stale write is in the ECC-protected RF"
        );
        assert!(!sm.corrupt_recent_write(99, 0, 3, 1), "no such slot");
    }

    #[test]
    fn barrier_phases_let_rolled_back_warps_pass_released_instances() {
        // Two warps synchronize; after recovery one warp rolls back to
        // before the barrier while the other is past it: the re-arrival
        // must pass through instead of deadlocking.
        let mut b = KernelBuilder::new("k");
        let tid = b.special(Special::TidX);
        let a = b.imul(tid, 8);
        b.st_global(a, 1i64, 0);
        b.barrier();
        let v = b.ld_global(a, 0);
        let w = b.iadd(v, 1);
        b.st_global(a, w, 4096);
        b.exit();
        let k = b.finish().flatten();
        let dims = LaunchDims::linear(1, 64);

        // Attachment that records launch entry points so we can force a
        // rollback of warp 0 to its entry (pre-barrier) mid-kernel.
        #[derive(Debug, Default)]
        struct Recorder {
            entries: Arc<Mutex<Vec<(usize, RecoveryPoint)>>>,
        }
        impl SmAttachment for Recorder {
            fn on_warp_launch(&mut self, slot: usize, entry: RecoveryPoint) {
                self.entries.lock().unwrap().push((slot, entry));
            }
            fn on_warp_exit(&mut self, _slot: usize) {}
            fn on_boundary(
                &mut self,
                _now: u64,
                _slot: usize,
                _resume: RecoveryPoint,
                _regs: &WarpRegFile,
            ) -> BoundaryAction {
                BoundaryAction::Continue
            }
            fn tick(&mut self, _now: u64, _wake: &mut Vec<usize>) {}
            fn on_error(&mut self, _now: u64) -> Vec<(usize, RecoveryPoint)> {
                // Roll back only warp slot 0 to its entry point.
                self.entries
                    .lock()
                    .unwrap()
                    .iter()
                    .filter(|(s, _)| *s == 0)
                    .cloned()
                    .collect()
            }
        }
        let entries = Arc::new(Mutex::new(Vec::new()));
        let c = cfg();
        let mut sm = Sm::new(
            0,
            &c,
            SchedulerKind::Gto,
            2,
            Box::new(Recorder {
                entries: entries.clone(),
            }),
        );
        sm.launch_cta(0, 0, &k, &dims);
        let mut g = GlobalMemory::new(1 << 20);
        let mut l2 = Cache::new(c.l2_bytes, c.l2_ways);
        // Run until the barrier has certainly released (stores at 4096
        // in flight), then roll warp 0 back to its entry.
        let mut now = 0;
        while g.read(0) == 0 || now < 60 {
            tick_full(&mut sm, now, &k, &dims, &mut g, &mut l2);
            now += 1;
            assert!(now < 100_000);
        }
        sm.recover(now);
        // The CTA must still retire, and the outputs must be correct.
        while sm.busy() {
            tick_full(&mut sm, now, &k, &dims, &mut g, &mut l2);
            now += 1;
            assert!(now < 100_000, "deadlock after rollback across a barrier");
        }
        for t in 0..64u64 {
            assert_eq!(g.read(4096 + t * 8), 2, "thread {t}");
        }
    }

    #[test]
    fn atomic_log_replays_after_rollback() {
        // One warp atomically increments a counter; rolling it back after
        // the atomic must not double-count once it re-executes.
        let mut b = KernelBuilder::new("k");
        let zero = b.mov(0i64);
        let old = b.atom(MemSpace::Global, AtomOp::Add, zero, 1i64, 0);
        // Busy tail so the rollback lands after the atomic.
        let mut acc = b.mov(old);
        for _ in 0..20 {
            acc = b.iadd(acc, 1);
        }
        let a = b.mov(64i64);
        b.st_global(a, acc, 0);
        b.exit();
        let k = b.finish().flatten();
        let dims = LaunchDims::linear(1, 32);

        #[derive(Debug)]
        struct EntryKeeper(Option<RecoveryPoint>);
        impl SmAttachment for EntryKeeper {
            fn on_warp_launch(&mut self, _slot: usize, entry: RecoveryPoint) {
                self.0 = Some(entry);
            }
            fn on_warp_exit(&mut self, _slot: usize) {}
            fn on_boundary(
                &mut self,
                _now: u64,
                _slot: usize,
                _resume: RecoveryPoint,
                _regs: &WarpRegFile,
            ) -> BoundaryAction {
                BoundaryAction::Continue
            }
            fn tick(&mut self, _now: u64, _wake: &mut Vec<usize>) {}
            fn on_error(&mut self, _now: u64) -> Vec<(usize, RecoveryPoint)> {
                vec![(0, self.0.clone().expect("launched"))]
            }
        }
        let c = cfg();
        let mut sm = Sm::new(0, &c, SchedulerKind::Gto, 2, Box::new(EntryKeeper(None)));
        sm.launch_cta(0, 0, &k, &dims);
        let mut g = GlobalMemory::new(1 << 20);
        let mut l2 = Cache::new(c.l2_bytes, c.l2_ways);
        // Run past the atomic (counter == 32), then roll back to entry.
        let mut now = 0;
        while g.read(0) != 32 {
            tick_full(&mut sm, now, &k, &dims, &mut g, &mut l2);
            now += 1;
            assert!(now < 100_000);
        }
        // A few more cycles into the tail.
        for _ in 0..10 {
            tick_full(&mut sm, now, &k, &dims, &mut g, &mut l2);
            now += 1;
        }
        assert_eq!(sm.recover(now), 1);
        while sm.busy() {
            tick_full(&mut sm, now, &k, &dims, &mut g, &mut l2);
            now += 1;
            assert!(now < 100_000);
        }
        // Replay, not re-application: the counter stays 32 (one add per
        // lane), and each lane saw a consistent old value.
        assert_eq!(g.read(0), 32, "atomic was double-applied");
        // All lanes store to the same address; the last lane (31) wins,
        // and its replayed old value must match its original one.
        assert_eq!(g.read(64), 31 + 20, "lane 31 old value + tail adds");
    }

    #[test]
    fn mshr_exhaustion_stalls_and_recovers() {
        // Strided loads (one 128B transaction per lane) from many warps
        // oversubscribe the 32 MSHRs; the kernel must still finish and
        // count mshr_full stalls.
        let mut b = KernelBuilder::new("k");
        let tid = b.special(Special::TidX);
        let a = b.imul(tid, 128);
        let mut v = b.ld_global(a, 0);
        for i in 0..4i64 {
            let a2 = b.iadd(a, 1 << 18);
            let w = b.ld_global(a2, i * 128);
            v = b.iadd(v, w);
        }
        let out = b.imul(tid, 8);
        b.st_global(out, v, 1 << 19);
        b.exit();
        let k = b.finish().flatten();
        let dims = LaunchDims::linear(1, 512);
        let (mut sm, mut g, mut l2) = mk_sm(&k, &dims);
        run_sm(&mut sm, &k, &dims, &mut g, &mut l2);
        assert!(sm.stats().stalls.mshr_full > 0, "expected MSHR pressure");
        assert_eq!(sm.stats().ctas, 1);
    }

    #[test]
    fn bank_conflicts_are_counted() {
        let mut b = KernelBuilder::new("k");
        let sh = b.alloc_shared(32 * 32 * 8);
        let tid = b.special(Special::TidX);
        // All lanes hit bank 0: address = tid * 32 words * 8.
        let a = b.imul(tid, 256);
        b.st_shared(a, tid, sh);
        let v = b.ld_shared(a, sh);
        let o = b.imul(tid, 8);
        b.st_global(o, v, 0);
        b.exit();
        let k = b.finish().flatten();
        let dims = LaunchDims::linear(1, 32);
        let (mut sm, mut g, mut l2) = mk_sm(&k, &dims);
        run_sm(&mut sm, &k, &dims, &mut g, &mut l2);
        // 31 extra passes for the store + 31 for the load.
        assert_eq!(sm.stats().mem.bank_conflicts, 62);
        for t in 0..32u64 {
            assert_eq!(g.read(t * 8), t);
        }
    }

    #[test]
    fn predicated_store_writes_only_true_lanes() {
        let mut b = KernelBuilder::new("k");
        let tid = b.special(Special::TidX);
        let p = b.setp(Cmp::Lt, tid, 10i64);
        let a = b.imul(tid, 8);
        b.st_global(a, 7i64, 0);
        b.pred_last(p, true);
        b.exit();
        let k = b.finish().flatten();
        let dims = LaunchDims::linear(1, 32);
        let (mut sm, mut g, mut l2) = mk_sm(&k, &dims);
        run_sm(&mut sm, &k, &dims, &mut g, &mut l2);
        for t in 0..32u64 {
            assert_eq!(g.read(t * 8), if t < 10 { 7 } else { 0 }, "lane {t}");
        }
    }

    #[test]
    fn boundary_is_free_under_null_attachment() {
        let mk = |boundaries: usize| {
            let mut b = KernelBuilder::new("k");
            let tid = b.special(Special::TidX);
            let mut acc = b.mov(0i64);
            for i in 0..boundaries {
                for _ in 0..10 {
                    acc = b.iadd(acc, 1);
                }
                let _ = i;
                b.region_boundary();
            }
            let a = b.imul(tid, 8);
            b.st_global(a, acc, 0);
            b.exit();
            b.finish().flatten()
        };
        let dims = LaunchDims::linear(1, 32);
        let run_cycles = |k: &FlatKernel| {
            let (mut sm, mut g, mut l2) = mk_sm(k, &dims);
            let mut now = 0;
            while sm.busy() {
                tick_full(&mut sm, now, k, &dims, &mut g, &mut l2);
                now += 1;
            }
            (now, sm.stats().resilience.boundaries)
        };
        let (t0, b0) = run_cycles(&mk(0));
        let (t8, b8) = run_cycles(&mk(8));
        assert_eq!(b0, 0);
        assert_eq!(b8, 8);
        // Boundaries consume no issue slots: the extra cycles come only
        // from the 80 extra adds.
        let (t8_plain, _) = {
            let mut b = KernelBuilder::new("k");
            let tid = b.special(Special::TidX);
            let mut acc = b.mov(0i64);
            for _ in 0..80 {
                acc = b.iadd(acc, 1);
            }
            let a = b.imul(tid, 8);
            b.st_global(a, acc, 0);
            b.exit();
            run_cycles(&b.finish().flatten())
        };
        assert_eq!(
            t8, t8_plain,
            "boundaries must be free: {t8} vs {t8_plain} (base {t0})"
        );
    }
}
