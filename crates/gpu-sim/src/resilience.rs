//! The interface between the SM pipeline and a resilience mechanism.
//!
//! The simulator itself knows nothing about acoustic sensors or the RBQ:
//! it reports region boundaries to an [`SmAttachment`] and obeys the
//! returned [`BoundaryAction`]. Flame's hardware (region boundary queue +
//! recovery PC table, in crate `flame-core`) implements this trait; the
//! baseline uses [`NullAttachment`].

use crate::regfile::WarpRegFile;
use crate::warp::RecoveryPoint;
use std::fmt;

/// What the SM should do when a warp hits an idempotent region boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryAction {
    /// Proceed immediately (boundary is pure metadata — recovery-only and
    /// duplication-based schemes).
    Continue,
    /// Deschedule the warp until the attachment wakes it (Flame's
    /// WCDL-aware warp scheduling: the warp sits in the RBQ for WCDL
    /// cycles and is then verified).
    Deschedule,
    /// Stall the issuing scheduler for the given number of cycles while
    /// the warp waits in place (the naive serialized-verification model of
    /// the paper's Figure 4, used as an ablation).
    BlockScheduler(u32),
}

/// Per-SM resilience hardware attached to the warp scheduler.
///
/// All methods are called from the SM's cycle loop; `slot` is the SM warp
/// slot index. Implementations must be deterministic. `Send` so a
/// prepared GPU can move to the worker thread that runs it.
pub trait SmAttachment: fmt::Debug + Send {
    /// A warp was installed in `slot`; `entry` is its initial recovery
    /// point (the beginning of the warp).
    fn on_warp_launch(&mut self, slot: usize, entry: RecoveryPoint);

    /// The warp in `slot` retired.
    fn on_warp_exit(&mut self, slot: usize);

    /// The warp in `slot` reached a region boundary; `resume` is the state
    /// at the start of the *next* region (what the RPT will hold once this
    /// region verifies). `regs` is the warp's register file at the
    /// boundary, from which checkpointing-based recovery captures the
    /// next region's anti-dependent inputs.
    fn on_boundary(
        &mut self,
        now: u64,
        slot: usize,
        resume: RecoveryPoint,
        regs: &WarpRegFile,
    ) -> BoundaryAction;

    /// Advances the attachment by one cycle, pushing the slots of warps
    /// whose verification completed (to be woken) into `wake`.
    fn tick(&mut self, now: u64, wake: &mut Vec<usize>);

    /// Earliest cycle strictly after `now` at which [`SmAttachment::tick`]
    /// could wake a warp or otherwise change state, or `None` if the
    /// attachment is guaranteed quiescent until external input arrives.
    ///
    /// Consulted by the simulator's event-driven clock (`Gpu::step_window`)
    /// before skipping stalled cycles. The contract: for every cycle `t`
    /// with `now < t < next_event(now)`, calling `tick(t, ..)` must be a
    /// no-op. The conservative default reports an event every next cycle,
    /// which simply disables fast-forward for SMs carrying attachments
    /// that do not implement it — correctness never depends on overriding
    /// this method, only wall-clock speed does.
    fn next_event(&self, now: u64) -> Option<u64> {
        Some(now + 1)
    }

    /// An error was detected on this SM: returns the recovery point of
    /// every live warp and resets in-flight verification state (the RBQ is
    /// flushed — its warps are among those rolled back).
    fn on_error(&mut self, now: u64) -> Vec<(usize, RecoveryPoint)>;

    /// A particle strike landed on the attachment's own storage (an RPT
    /// entry / RBQ metadata). `token` deterministically selects which
    /// piece of live state is hit. Returns whether anything was actually
    /// corrupted — attachments without recovery state (and the default
    /// implementation) have nothing to hit.
    fn corrupt_recovery_state(&mut self, _token: u64) -> bool {
        false
    }

    /// Whether any live recovery state is known-corrupted (e.g. an RPT
    /// entry whose parity no longer checks). A subsequent rollback cannot
    /// use such state: the warp it belonged to is unrecoverable in place
    /// and the caller must escalate (CTA/kernel relaunch) or declare a
    /// DUE.
    fn recovery_poisoned(&self) -> bool {
        false
    }

    /// Number of warps currently held for verification (RBQ occupancy
    /// across the attachment's queues). Purely observational — consulted
    /// only by the event tracer, and only when tracing is enabled, to
    /// annotate enqueue/dequeue events with the occupancy sample.
    /// Attachments without a queue report 0.
    fn queue_depth(&self) -> usize {
        0
    }

    /// A deep copy of the attachment's current state, boxed for storage in
    /// a [`crate::gpu::Snapshot`]. Attachments that support checkpointed
    /// campaign forking return `Some(clone)`; the default `None` marks the
    /// attachment (e.g. test doubles with shared interior state) as
    /// non-snapshotable, which makes `Gpu::snapshot` fail loudly instead of
    /// silently capturing aliased state. The returned box must be `Send +
    /// Sync` so one snapshot can seed forked runs on several campaign
    /// worker threads at once.
    fn snapshot_box(&self) -> Option<Box<dyn SmAttachment + Send + Sync>> {
        None
    }
}

/// Attachment used when no resilience scheme is active: boundaries are
/// free and never verified; recovery is unsupported.
#[derive(Debug, Clone, Default)]
pub struct NullAttachment;

impl NullAttachment {
    /// Creates a null attachment.
    pub fn new() -> NullAttachment {
        NullAttachment
    }
}

impl SmAttachment for NullAttachment {
    fn on_warp_launch(&mut self, _slot: usize, _entry: RecoveryPoint) {}

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

    /// The null attachment never wakes anything: no events, ever.
    fn next_event(&self, _now: u64) -> Option<u64> {
        None
    }

    fn on_error(&mut self, _now: u64) -> Vec<(usize, RecoveryPoint)> {
        Vec::new()
    }

    fn snapshot_box(&self) -> Option<Box<dyn SmAttachment + Send + Sync>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::{SimtStack, FULL_MASK};

    #[test]
    fn null_attachment_continues_and_never_wakes() {
        let mut a = NullAttachment::new();
        let point = RecoveryPoint {
            stack: SimtStack::new(0, FULL_MASK).snapshot(),
            barrier_phase: 0,
            restores: Vec::new(),
        };
        a.on_warp_launch(0, point.clone());
        let regs = WarpRegFile::new(4);
        assert_eq!(a.on_boundary(5, 0, point, &regs), BoundaryAction::Continue);
        let mut wake = Vec::new();
        a.tick(6, &mut wake);
        assert!(wake.is_empty());
        assert!(a.on_error(7).is_empty());
    }
}
