//! The cycle-stamped event model.
//!
//! Every variant corresponds to one instrumentation point in the
//! simulator, placed *at the same statement* that updates the matching
//! statistics counter — that co-location is what makes the streaming
//! aggregates provably equal to `SimStats` (asserted by the trace tests).

/// Why a scheduler failed to issue in a cycle. Mirrors the simulator's
/// per-scheduler stall attribution (`StallStats` has one counter per
/// variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// No live warp was resident on the scheduler's slots.
    NoWarp,
    /// All resident warps were blocked on the scoreboard.
    Scoreboard,
    /// A memory instruction could not issue because MSHRs were full.
    MshrFull,
    /// All resident warps were waiting at a barrier.
    Barrier,
    /// All resident warps sat in the region boundary queue awaiting
    /// verification.
    RbqWait,
    /// The scheduler itself was blocked (naive serialized verification).
    SchedBlocked,
}

impl StallCause {
    /// Every cause, in the order of the simulator's `StallStats` fields.
    pub const ALL: [StallCause; 6] = [
        StallCause::NoWarp,
        StallCause::Scoreboard,
        StallCause::MshrFull,
        StallCause::Barrier,
        StallCause::RbqWait,
        StallCause::SchedBlocked,
    ];

    /// Stable index into [`StallCause::ALL`] (and per-cause count arrays).
    pub fn index(self) -> usize {
        match self {
            StallCause::NoWarp => 0,
            StallCause::Scoreboard => 1,
            StallCause::MshrFull => 2,
            StallCause::Barrier => 3,
            StallCause::RbqWait => 4,
            StallCause::SchedBlocked => 5,
        }
    }

    /// Short display name (matches the `StallStats` field name).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::NoWarp => "no_warp",
            StallCause::Scoreboard => "scoreboard",
            StallCause::MshrFull => "mshr_full",
            StallCause::Barrier => "barrier",
            StallCause::RbqWait => "rbq_wait",
            StallCause::SchedBlocked => "sched_blocked",
        }
    }
}

/// One traced simulator event. `slot` is an SM warp-slot index, `sched` a
/// scheduler index within the SM; the emitting SM is implicit (each SM
/// owns its own [`crate::Tracer`]) and added back when buffers are merged
/// into a [`crate::SimTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A CTA was installed on the SM.
    CtaLaunch {
        /// Linear CTA index in the grid.
        cta: u32,
        /// Warps the CTA brought.
        warps: u32,
    },
    /// A CTA retired (all its warps finished).
    CtaDrain {
        /// The SM-local CTA slot that drained.
        cta_slot: u32,
    },
    /// A warp issued one instruction.
    WarpIssue {
        /// Issuing warp slot (its scheduler is `slot % schedulers`).
        slot: u32,
        /// Program counter of the issued instruction.
        pc: u32,
    },
    /// A warp finished (issued its last `Exit`).
    WarpRetire {
        /// Retiring warp slot.
        slot: u32,
    },
    /// A scheduler could not issue for `cycles` consecutive cycles, all
    /// attributed to `cause`. The per-cycle loop emits `cycles == 1`; the
    /// event-driven clock emits one bulk event for a whole skipped idle
    /// window. Summed per cause, these equal `StallStats` exactly in both
    /// clock modes.
    IssueStall {
        /// Stalled scheduler.
        sched: u32,
        /// Attributed dominant cause.
        cause: StallCause,
        /// Stalled cycles credited (≥ 1).
        cycles: u64,
    },
    /// A warp crossed a region boundary (counted in
    /// `resilience.boundaries`).
    RegionEnter {
        /// The warp slot.
        slot: u32,
        /// PC of the first instruction of the *next* region.
        pc: u32,
    },
    /// The boundary committed immediately (recovery-only, duplication and
    /// naive schemes: the RPT advanced on the spot).
    RegionCommit {
        /// The warp slot.
        slot: u32,
    },
    /// WCDL deschedule: the warp entered the region boundary queue
    /// (counted in `resilience.deschedules`).
    RbqEnqueue {
        /// The descheduled warp slot.
        slot: u32,
        /// Warps under verification on this SM *after* the push (the RBQ
        /// occupancy sample).
        depth: u32,
    },
    /// WCDL re-ready: the warp popped out of the region boundary queue.
    RbqDequeue {
        /// The woken warp slot.
        slot: u32,
        /// Warps still under verification on this SM after the pop.
        depth: u32,
    },
    /// The popped warp's region is verified and its RPT entry advanced
    /// (counted in `resilience.verifications`).
    RegionVerify {
        /// The verified warp slot.
        slot: u32,
    },
    /// Naive verification blocked a whole scheduler until `until`.
    SchedBlock {
        /// The blocked scheduler.
        sched: u32,
        /// First cycle at which it may issue again.
        until: u64,
    },
    /// A global-memory request (load, store or atomic) entered the memory
    /// pipeline; its transactions retire at `finish`.
    MemIssue {
        /// Issuing warp slot.
        slot: u32,
        /// Coalesced 128-byte transactions (1 for atomics).
        segments: u32,
        /// Cycle the request completes.
        finish: u64,
    },
    /// A particle strike landed (emitted by the fault harness).
    FaultStrike {
        /// Struck SM.
        sm: u32,
        /// Strike target ("pipeline", "ecc", "control-flow",
        /// "recovery-hw").
        target: &'static str,
        /// Whether the sensor mesh heard it (coverage).
        detected: bool,
    },
    /// A sensor detection was delivered to the SM (recovery follows).
    FaultDetect {
        /// The recovering SM.
        sm: u32,
    },
    /// All live warps of the SM rolled back to their recovery points
    /// (counted in `resilience.recoveries`).
    Rollback {
        /// Warps rolled back.
        warps: u32,
    },
    /// Escalated recovery: every resident CTA restarted from its entry
    /// (counted in `resilience.cta_relaunches`).
    CtaRelaunch {
        /// Warps restarted.
        warps: u32,
    },
    /// The campaign harness captured a whole-GPU checkpoint
    /// (`Gpu::snapshot` or `Gpu::snapshot_delta`) at this cycle.
    SnapshotSave {
        /// Device-memory pages (32 KiB each) the checkpoint does not
        /// share with its base image: the pages written since the base
        /// was taken.
        dirty_chunks: u32,
    },
    /// The campaign harness rewound the GPU to a checkpoint
    /// (`Gpu::restore`): a forked run resumes here. Emitted at the
    /// restored cycle, so the subsequent strike → detect → rollback arc
    /// stays causally ordered after it.
    SnapshotRestore {
        /// The checkpoint's capture cycle (equals the event's own cycle
        /// stamp).
        cycle: u64,
    },
}

impl Event {
    /// The warp slot this event belongs to, when it is warp-scoped.
    pub fn slot(&self) -> Option<u32> {
        match *self {
            Event::WarpIssue { slot, .. }
            | Event::WarpRetire { slot }
            | Event::RegionEnter { slot, .. }
            | Event::RegionCommit { slot }
            | Event::RbqEnqueue { slot, .. }
            | Event::RbqDequeue { slot, .. }
            | Event::RegionVerify { slot }
            | Event::MemIssue { slot, .. } => Some(slot),
            _ => None,
        }
    }

    /// Whether this is an [`Event::IssueStall`] (the only event kind whose
    /// *sequence* legitimately differs between the per-cycle and
    /// event-driven clocks; only its per-cause sums are invariant).
    pub fn is_stall(&self) -> bool {
        matches!(self, Event::IssueStall { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_cause_indices_are_stable() {
        for (i, c) in StallCause::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let names: std::collections::HashSet<_> =
            StallCause::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn slot_scoping() {
        assert_eq!(Event::WarpIssue { slot: 3, pc: 9 }.slot(), Some(3));
        assert_eq!(Event::Rollback { warps: 2 }.slot(), None);
        assert!(Event::IssueStall {
            sched: 0,
            cause: StallCause::NoWarp,
            cycles: 5
        }
        .is_stall());
    }
}
