//! The whole-GPU simulator: SMs, shared L2, device memory and the CTA
//! dispatcher.

use crate::config::GpuConfig;
use crate::isa::Reg;
use crate::memory::{Cache, GlobalMemory, MemDelta};
use crate::program::FlatKernel;
use crate::resilience::{NullAttachment, SmAttachment};
use crate::scheduler::SchedulerKind;
use crate::sm::{LaunchDims, Sm, SmSnapshot};
use crate::stats::SimStats;
use crate::uop::UopKernel;
use crate::warp::WARP_SIZE;
use flame_trace::{Event as TraceEvent, SimTrace, Tracer};
use std::fmt;
use std::sync::Arc;

/// Error returned when a kernel cannot be launched on a GPU configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchError {
    /// The kernel needs more registers per thread than the architecture
    /// allows.
    TooManyRegisters {
        /// Registers the kernel requires.
        required: u32,
        /// Architectural limit.
        limit: u32,
    },
    /// The CTA does not fit on an SM (warps, registers or shared memory).
    CtaTooLarge,
    /// The grid is empty.
    EmptyGrid,
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::TooManyRegisters { required, limit } => {
                write!(
                    f,
                    "kernel needs {required} registers/thread, limit is {limit}"
                )
            }
            LaunchError::CtaTooLarge => write!(f, "CTA does not fit on an SM"),
            LaunchError::EmptyGrid => write!(f, "launch grid is empty"),
        }
    }
}

impl std::error::Error for LaunchError {}

/// Error returned when a simulation exceeds its cycle budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeoutError {
    /// The budget that was exhausted.
    pub max_cycles: u64,
}

impl fmt::Display for TimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation did not finish within {} cycles",
            self.max_cycles
        )
    }
}

impl std::error::Error for TimeoutError {}

/// A GPU running one kernel launch.
///
/// Construct with [`Gpu::launch`], seed device memory through
/// [`Gpu::global_mut`], then either [`Gpu::run`] to completion or drive
/// cycle by cycle with [`Gpu::step`] (the fault-injection harness does the
/// latter, corrupting registers and triggering recovery between cycles).
pub struct Gpu {
    config: GpuConfig,
    kernel: FlatKernel,
    dims: LaunchDims,
    sms: Vec<Sm>,
    l2: Cache,
    global: GlobalMemory,
    next_cta: u32,
    cycle: u64,
    ctas_per_sm: u32,
    /// Pre-decoded micro-op image of the kernel, built once at launch.
    /// Purely derived from the immutable kernel: never captured in a
    /// [`Snapshot`], and campaign forks rebuild it by re-preparing the
    /// launch.
    uops: UopKernel,
    /// Harness-level tracer for events no single SM emits (fault strikes
    /// and detections injected by a campaign driver). Disabled unless
    /// [`Gpu::set_tracing`] is called.
    tracer: Tracer,
}

impl fmt::Debug for Gpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gpu")
            .field("config", &self.config.name)
            .field("kernel", &self.kernel.name)
            .field("cycle", &self.cycle)
            .finish_non_exhaustive()
    }
}

impl Gpu {
    /// Prepares a launch with per-SM resilience attachments supplied by
    /// `attach` (called once per SM).
    ///
    /// # Errors
    ///
    /// Returns a [`LaunchError`] if the kernel violates architectural
    /// limits or no CTA fits on an SM.
    pub fn launch_with(
        config: GpuConfig,
        kernel: FlatKernel,
        dims: LaunchDims,
        sched: SchedulerKind,
        mut attach: impl FnMut(usize) -> Box<dyn SmAttachment>,
    ) -> Result<Gpu, LaunchError> {
        if dims.num_ctas() == 0 || dims.threads_per_cta() == 0 {
            return Err(LaunchError::EmptyGrid);
        }
        if kernel.regs_per_thread > config.max_regs_per_thread {
            return Err(LaunchError::TooManyRegisters {
                required: kernel.regs_per_thread,
                limit: config.max_regs_per_thread,
            });
        }
        let ctas_per_sm = occupancy(&config, &kernel, &dims);
        if ctas_per_sm == 0 {
            return Err(LaunchError::CtaTooLarge);
        }
        let sms = (0..config.num_sms)
            .map(|i| Sm::new(i, &config, sched, ctas_per_sm as usize, attach(i)))
            .collect();
        let l2 = Cache::new(config.l2_bytes, config.l2_ways);
        let global = GlobalMemory::new(config.device_mem_bytes);
        let uops = UopKernel::build(&kernel, &config.latency);
        Ok(Gpu {
            config,
            kernel,
            dims,
            sms,
            l2,
            global,
            next_cta: 0,
            cycle: 0,
            ctas_per_sm,
            uops,
            tracer: Tracer::disabled(),
        })
    }

    /// Enables event tracing on every SM (and the harness track), each
    /// with a ring of `capacity` events. Tracing never perturbs the
    /// simulation: statistics stay bit-identical to an untraced run.
    /// Usually called right after launch; enabling mid-run simply starts
    /// recording from the current cycle.
    pub fn set_tracing(&mut self, capacity: usize) {
        for sm in &mut self.sms {
            sm.set_tracer(Tracer::enabled(capacity));
        }
        self.tracer = Tracer::enabled(capacity);
    }

    /// Whether tracing is enabled. Campaign drivers consult this before
    /// computing arguments for [`Gpu::trace_emit`].
    pub fn tracing(&self) -> bool {
        self.tracer.on()
    }

    /// Records a harness-level event (e.g. a fault strike) at the current
    /// cycle; a no-op unless [`Gpu::set_tracing`] was called.
    pub fn trace_emit(&mut self, ev: TraceEvent) {
        let now = self.cycle;
        self.tracer.emit(now, ev);
    }

    /// Detaches and merges every SM's trace buffer (plus the harness
    /// buffer) into a cycle-ordered [`SimTrace`], disabling tracing.
    /// Returns `None` when tracing was never enabled.
    pub fn take_trace(&mut self) -> Option<SimTrace> {
        let mut bufs = Vec::new();
        for (i, sm) in self.sms.iter_mut().enumerate() {
            if let Some(b) = sm.take_trace_buffer() {
                bufs.push((i as u32, *b));
            }
        }
        let harness = self.tracer.take().map(|b| *b);
        if bufs.is_empty() && harness.is_none() {
            return None;
        }
        Some(SimTrace::merge(bufs, harness))
    }

    /// Prepares a launch with no resilience attachment (baseline).
    ///
    /// # Errors
    ///
    /// See [`Gpu::launch_with`].
    pub fn launch(
        config: GpuConfig,
        kernel: FlatKernel,
        dims: LaunchDims,
        sched: SchedulerKind,
    ) -> Result<Gpu, LaunchError> {
        Gpu::launch_with(config, kernel, dims, sched, |_| {
            Box::new(NullAttachment::new())
        })
    }

    /// CTAs resident per SM at full occupancy (for occupancy studies).
    pub fn ctas_per_sm(&self) -> u32 {
        self.ctas_per_sm
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The GPU configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The kernel being executed.
    pub fn kernel(&self) -> &FlatKernel {
        &self.kernel
    }

    /// Device memory (read access for output checking).
    pub fn global(&self) -> &GlobalMemory {
        &self.global
    }

    /// Device memory (write access for input seeding).
    pub fn global_mut(&mut self) -> &mut GlobalMemory {
        &mut self.global
    }

    /// Consumes the GPU, yielding its final device-memory image without
    /// copying (the oracle-grounded classifiers bit-compare whole
    /// images; cloning 256 MiB per injection run would dominate a
    /// campaign).
    pub fn into_global(self) -> GlobalMemory {
        self.global
    }

    /// Whether any work remains (CTAs to dispatch or in flight).
    pub fn running(&self) -> bool {
        self.next_cta < self.dims.num_ctas() || self.sms.iter().any(Sm::busy)
    }

    /// Advances the GPU; returns whether work remains.
    ///
    /// Equivalent to [`Gpu::step_window`] with no bound: if fast-forward
    /// is enabled and a cycle issued nothing, the clock may jump
    /// arbitrarily far ahead to the next event. Callers that interact
    /// with the GPU at externally scheduled cycles (fault injection,
    /// detection latencies) must use [`Gpu::step_window`] and pass the
    /// earliest such cycle as the bound.
    pub fn step(&mut self) -> bool {
        self.step_window(u64::MAX)
    }

    /// Runs one tick and, when fast-forward is enabled and no scheduler
    /// on any SM issued an instruction, jumps the clock to the earliest
    /// pending event (memory completion, RBQ verification, scheduler
    /// unblock, scoreboard release), but never past `limit`. Returns
    /// whether work remains.
    ///
    /// A tick dispatches CTAs, ticks every SM, then drains the SMs'
    /// deferred global traffic in ascending SM order. Skipped cycles are
    /// credited to the same stall counters the per-cycle loop would have
    /// incremented, so statistics are bit-identical either way; only
    /// wall-clock time changes. After a tick that issued, the clock
    /// stands exactly one cycle past it.
    ///
    /// With no event pending at all (a deadlocked kernel), the clock
    /// jumps straight to `limit` so a caller's timeout check fires
    /// without grinding through the dead cycles one by one.
    pub fn step_window(&mut self, limit: u64) -> bool {
        // Dispatch CTAs to SMs with capacity (round-robin over SMs).
        // Skipped outright once the grid is drained — the steady state for
        // most of a long kernel, where the per-SM capacity probe would be
        // pure overhead. Dispatch capacity only grows when a CTA retires,
        // i.e. on an issued Exit, so a stalled tick never hides a
        // dispatch opportunity from the fast-forward below.
        let total = self.dims.num_ctas();
        if self.next_cta < total {
            let warps = self.dims.warps_per_cta();
            for sm in &mut self.sms {
                while self.next_cta < total && sm.can_accept(warps) {
                    sm.launch_cta(self.next_cta, self.cycle, &self.kernel, &self.dims);
                    self.next_cta += 1;
                }
            }
        }
        let ticked = self.cycle;
        let mut issued = false;
        for sm in &mut self.sms {
            issued |= sm.tick(ticked, &self.uops, &self.dims);
        }
        // Same-cycle drain of the deferred global traffic, in ascending
        // SM order: one L2 access order, whatever the SMs did.
        for sm in &mut self.sms {
            sm.apply_global(ticked, &mut self.global, &mut self.l2);
        }
        self.cycle = ticked + 1;
        let running = self.next_cta < total || self.sms.iter().any(Sm::busy);
        if self.config.fast_forward && !issued && running {
            // Nothing issued anywhere: the GPU is frozen until the next
            // event. Jump there, crediting each skipped cycle's stall
            // attribution in bulk (see `Sm::credit_idle_cycles`). Every SM
            // just refreshed (or kept) its cached event horizon in `tick`,
            // so the minimum over the cached values is exact — no per-skip
            // event rescan. A stale horizon (a backlogged RBQ head) lands
            // at or below the next cycle and simply disables the jump; the
            // scan stops early once no later SM could shrink the window.
            let mut next = u64::MAX;
            for sm in &self.sms {
                next = next.min(sm.frozen_horizon());
                if next <= self.cycle {
                    break;
                }
            }
            let target = next.min(limit).max(self.cycle);
            if target > self.cycle {
                let skipped = target - self.cycle;
                for sm in &mut self.sms {
                    sm.credit_idle_cycles(ticked, skipped);
                }
                self.cycle = target;
            }
        }
        running
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// Returns [`TimeoutError`] if the kernel does not finish within
    /// `max_cycles` (a deadlock guard for tests and experiments).
    pub fn run(&mut self, max_cycles: u64) -> Result<SimStats, TimeoutError> {
        // `step_window` already reports whether work remains; reusing its
        // answer halves the liveness polls per cycle. Bounding each step
        // at `max_cycles` keeps the timeout check exact under
        // fast-forward.
        let mut running = self.running();
        while running {
            if self.cycle >= max_cycles {
                return Err(TimeoutError { max_cycles });
            }
            running = self.step_window(max_cycles);
        }
        Ok(self.stats())
    }

    /// Aggregated statistics across SMs.
    pub fn stats(&self) -> SimStats {
        let mut total = SimStats::default();
        self.stats_into(&mut total);
        total
    }

    /// Writes the aggregated statistics into `out` (overwriting it).
    /// Campaign loops that poll statistics per injection reuse one buffer
    /// instead of constructing a fresh aggregate each call.
    pub fn stats_into(&self, out: &mut SimStats) {
        *out = SimStats {
            cycles: self.cycle,
            ..SimStats::default()
        };
        for sm in &self.sms {
            let mut s = *sm.stats();
            s.cycles = 0;
            *out += s;
        }
    }

    /// Live warp slots on SM `sm` (victim selection for fault injection).
    /// Lazy: campaigns call this once per injection, so it must not
    /// allocate.
    pub fn live_warps(&self, sm: usize) -> impl Iterator<Item = usize> + '_ {
        self.sms[sm].live_slots()
    }

    /// Number of SMs.
    pub fn num_sms(&self) -> usize {
        self.sms.len()
    }

    /// Injects a bit-flip into a destination register of a live warp
    /// (models a particle strike in the pipeline corrupting a value).
    /// Returns whether the injection landed.
    pub fn corrupt_register(
        &mut self,
        sm: usize,
        slot: usize,
        reg: Reg,
        lane: usize,
        xor_mask: u64,
    ) -> bool {
        if lane >= WARP_SIZE || sm >= self.sms.len() {
            return false;
        }
        self.sms[sm].corrupt_register(slot, reg, lane, xor_mask)
    }

    /// Injects a bit-flip into the value most recently written by a warp
    /// on SM `sm`, but only if that write issued in the current cycle —
    /// the physically consistent injection point (strikes corrupt
    /// in-flight pipeline writes; the register file is ECC-protected).
    /// Returns whether the injection landed.
    pub fn corrupt_recent_write(
        &mut self,
        sm: usize,
        slot: usize,
        lane: usize,
        xor_mask: u64,
    ) -> bool {
        if lane >= WARP_SIZE || sm >= self.sms.len() || self.cycle == 0 {
            return false;
        }
        // `step` increments the cycle after ticking; the writes of the
        // just-completed tick carry `cycle - 1`.
        let now = self.cycle - 1;
        self.sms[sm].corrupt_recent_write(slot, now, lane, xor_mask)
    }

    /// Triggers error recovery on SM `sm`: every live warp rolls back to
    /// its recovery PC (the Flame protocol). Returns the number of warps
    /// rolled back.
    pub fn recover_sm(&mut self, sm: usize) -> usize {
        let now = self.cycle;
        self.sms[sm].recover(now)
    }

    /// Diverts the PC of a warp on SM `sm` (a strike in the fetch/SIMT
    /// stack rather than the datapath): XORs `xor` into the current PC,
    /// wrapped to the kernel's length. Returns the corrupted PC if the
    /// slot held a Ready warp.
    pub fn corrupt_pc(&mut self, sm: usize, slot: usize, xor: u32) -> Option<u32> {
        if sm >= self.sms.len() {
            return None;
        }
        let code_len = self.kernel.insts.len() as u32;
        self.sms[sm].corrupt_pc(slot, xor, code_len)
    }

    /// Injects a strike into SM `sm`'s recovery hardware (RPT/RBQ state);
    /// `token` deterministically selects the victim entry. Returns
    /// whether live recovery state was corrupted.
    pub fn corrupt_recovery_state(&mut self, sm: usize, token: u64) -> bool {
        if sm >= self.sms.len() {
            return false;
        }
        self.sms[sm].corrupt_recovery_state(token)
    }

    /// Whether SM `sm`'s attachment holds known-corrupted recovery state
    /// (a rollback would need state that a strike destroyed).
    pub fn recovery_poisoned(&self, sm: usize) -> bool {
        sm < self.sms.len() && self.sms[sm].recovery_poisoned()
    }

    /// Escalated recovery on SM `sm`: restarts every resident CTA from
    /// its entry point (see `Sm::relaunch_ctas`). Returns the number of
    /// warps restarted.
    pub fn relaunch_sm_ctas(&mut self, sm: usize) -> usize {
        if sm >= self.sms.len() {
            return 0;
        }
        let now = self.cycle;
        self.sms[sm].relaunch_ctas(now)
    }

    /// Total warp-instructions issued so far, across all SMs — the cheap
    /// forward-progress signal a hang watchdog polls.
    pub fn instructions_issued(&self) -> u64 {
        self.sms.iter().map(|s| s.stats().instructions).sum()
    }

    /// A shareable copy of the current device-memory image, suitable as
    /// the delta base for a family of [`Gpu::snapshot_delta`] checkpoints.
    /// Campaigns capture it once right after input seeding, so every
    /// checkpoint stores only the chunks the kernel has dirtied since.
    pub fn memory_base(&self) -> Arc<GlobalMemory> {
        Arc::new(self.global.clone())
    }

    /// Captures the complete mutable run state as a self-contained
    /// [`Snapshot`] (the memory image is its own delta base). Prefer
    /// [`Gpu::snapshot_delta`] when taking several checkpoints of one
    /// launch.
    ///
    /// # Panics
    ///
    /// Panics if any SM's resilience attachment does not support
    /// snapshotting (see [`SmAttachment::snapshot_box`]).
    pub fn snapshot(&mut self) -> Snapshot {
        let base = self.memory_base();
        self.snapshot_delta(&base)
    }

    /// Captures the complete mutable run state, delta-encoding the
    /// device-memory image against `base` (from [`Gpu::memory_base`]).
    /// Emits a [`TraceEvent::SnapshotSave`] on the harness track when
    /// tracing is enabled. The snapshot is immutable and `Send + Sync`:
    /// one checkpoint can seed forked runs on many worker threads.
    ///
    /// # Panics
    ///
    /// Panics if any SM's resilience attachment does not support
    /// snapshotting, or if `base` was captured from a launch with a
    /// different device-memory size.
    pub fn snapshot_delta(&mut self, base: &Arc<GlobalMemory>) -> Snapshot {
        let delta = self.global.delta_from(base);
        let sms = self
            .sms
            .iter()
            .map(|sm| {
                sm.snapshot().unwrap_or_else(|| {
                    panic!(
                        "SM {} attachment does not support snapshotting \
                         (SmAttachment::snapshot_box returned None)",
                        sm.id()
                    )
                })
            })
            .collect();
        if self.tracing() {
            let dirty_chunks = delta.dirty_chunks() as u32;
            self.trace_emit(TraceEvent::SnapshotSave { dirty_chunks });
        }
        Snapshot {
            cycle: self.cycle,
            next_cta: self.next_cta,
            l2: self.l2.clone(),
            base: Arc::clone(base),
            delta,
            sms,
        }
    }

    /// Rewinds this GPU to a snapshot captured from an
    /// identically-prepared launch (same config, kernel, dims and
    /// scheduler — the campaign fork path re-runs the same preparation
    /// before restoring). The snapshot stays reusable. Emits a
    /// [`TraceEvent::SnapshotRestore`] at the restored cycle when tracing
    /// is enabled, so later strike → detect → rollback events stay
    /// causally ordered after the restore on the timeline.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot geometry does not match this launch.
    pub fn restore(&mut self, snap: &Snapshot) {
        self.global.restore_from(&snap.base, &snap.delta);
        self.restore_non_memory(snap);
    }

    /// [`Gpu::restore`] onto a **freshly prepared** GPU — one whose
    /// device memory is still the post-init image the snapshot was
    /// delta-encoded against. Applies only the snapshot's dirty chunks
    /// instead of recopying the whole address space, so a campaign fork
    /// costs O(dirty set), not O(256 MiB). Calling this on a GPU that
    /// has already run past initialization silently leaves stale memory
    /// behind; use [`Gpu::restore`] there.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot geometry does not match this launch. In
    /// debug builds, additionally spot-checks that this memory matches
    /// the snapshot's base image on a sample of clean chunks.
    pub fn restore_fresh(&mut self, snap: &Snapshot) {
        #[cfg(debug_assertions)]
        {
            let words = self.global.words();
            let base = snap.base.words();
            debug_assert_eq!(words.len(), base.len(), "restore_fresh image size");
            // Every 64th word of the first dirty-chunk span: cheap, and
            // still catches a caller whose memory is not the base image.
            for i in (0..words.len().min(1 << 18)).step_by(64) {
                debug_assert_eq!(
                    words[i], base[i],
                    "restore_fresh onto a GPU whose memory is not the snapshot base (word {i})"
                );
            }
        }
        self.global.overlay(&snap.delta);
        self.restore_non_memory(snap);
    }

    fn restore_non_memory(&mut self, snap: &Snapshot) {
        assert_eq!(
            self.sms.len(),
            snap.sms.len(),
            "snapshot restored onto a differently-configured GPU"
        );
        for (sm, s) in self.sms.iter_mut().zip(&snap.sms) {
            sm.restore(s);
        }
        self.l2 = snap.l2.clone();
        self.next_cta = snap.next_cta;
        self.cycle = snap.cycle;
        if self.tracing() {
            let cycle = snap.cycle;
            self.trace_emit(TraceEvent::SnapshotRestore { cycle });
        }
    }
}

/// A frozen copy of a [`Gpu`]'s complete mutable run state: every SM
/// (warps, SIMT stacks, register files, shared memory, MemPort in-flight
/// requests, scheduler and resilience-attachment state), the L2 tag
/// array, the CTA dispatch cursor, the clock, and a delta-encoded
/// device-memory image. Captured by [`Gpu::snapshot`] /
/// [`Gpu::snapshot_delta`], reapplied (any number of times) by
/// [`Gpu::restore`]. Derived state is deliberately excluded: the
/// pre-decoded micro-op cache is a pure function of the immutable kernel
/// and is rebuilt when a fork re-prepares the launch, never captured.
#[derive(Debug)]
pub struct Snapshot {
    cycle: u64,
    next_cta: u32,
    l2: Cache,
    /// Shared delta base; checkpoints of one launch all point at the same
    /// post-init image.
    base: Arc<GlobalMemory>,
    delta: MemDelta,
    sms: Vec<SmSnapshot>,
}

impl Snapshot {
    /// The cycle the snapshot was captured at (forked runs resume here).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Device-memory chunks stored beyond the shared base image — the
    /// sparsity telemetry for checkpoint-cost reporting.
    pub fn dirty_chunks(&self) -> usize {
        self.delta.dirty_chunks()
    }
}

/// CTAs that fit per SM given register file, shared memory, warp-slot and
/// CTA-slot limits.
fn occupancy(config: &GpuConfig, kernel: &FlatKernel, dims: &LaunchDims) -> u32 {
    let warps = dims.warps_per_cta();
    if warps == 0 || warps as usize > config.max_warps_per_sm {
        return 0;
    }
    let by_warps = config.max_warps_per_sm as u32 / warps;
    let regs_per_cta = kernel.regs_per_thread * warps * WARP_SIZE as u32;
    let by_regs = config
        .regfile_per_sm
        .checked_div(regs_per_cta)
        .unwrap_or(u32::MAX);
    let by_shared = config
        .shared_per_sm
        .checked_div(kernel.shared_mem_bytes)
        .unwrap_or(u32::MAX);
    (config.max_ctas_per_sm as u32)
        .min(by_warps)
        .min(by_regs)
        .min(by_shared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::isa::{Cmp, Special};

    /// out[i] = in[i] + 1 over one CTA of 64 threads.
    fn incr_kernel() -> FlatKernel {
        let mut b = KernelBuilder::new("incr");
        let tid = b.special(Special::TidX);
        let addr = b.imul(tid, 8);
        let v = b.ld_global(addr, 0);
        let w = b.iadd(v, 1);
        b.st_global(addr, w, 4096);
        b.exit();
        b.finish().flatten()
    }

    #[test]
    fn runs_simple_kernel_to_completion() {
        let mut gpu = Gpu::launch(
            GpuConfig::gtx480(),
            incr_kernel(),
            LaunchDims::linear(1, 64),
            SchedulerKind::Gto,
        )
        .unwrap();
        for i in 0..64u64 {
            gpu.global_mut().write(i * 8, i * 10);
        }
        let stats = gpu.run(100_000).unwrap();
        for i in 0..64u64 {
            assert_eq!(gpu.global().read(4096 + i * 8), i * 10 + 1, "thread {i}");
        }
        assert!(stats.cycles > 0);
        assert!(stats.instructions >= 2 * 6); // 2 warps x 6 instructions
        assert_eq!(stats.ctas, 1);
    }

    #[test]
    fn fault_accessors_ignore_out_of_range_sm() {
        let mut gpu = Gpu::launch(
            GpuConfig::gtx480(),
            incr_kernel(),
            LaunchDims::linear(1, 64),
            SchedulerKind::Gto,
        )
        .unwrap();
        let bad = gpu.num_sms();
        assert_eq!(gpu.corrupt_pc(bad, 0, 1), None);
        assert!(!gpu.corrupt_recovery_state(bad, 0));
        assert!(!gpu.recovery_poisoned(bad));
        assert_eq!(gpu.relaunch_sm_ctas(bad), 0);
    }

    #[test]
    fn multi_cta_grid_completes_on_many_sms() {
        let mut gpu = Gpu::launch(
            GpuConfig::gtx480(),
            incr_kernel(),
            LaunchDims::linear(64, 64),
            SchedulerKind::Gto,
        )
        .unwrap();
        let stats = gpu.run(1_000_000).unwrap();
        assert_eq!(stats.ctas, 64);
    }

    #[test]
    fn loop_kernel_computes_sum() {
        // Each thread sums 0..10 and stores it.
        let mut b = KernelBuilder::new("sum");
        let tid = b.special(Special::TidX);
        let addr = b.imul(tid, 8);
        let acc = b.mov(0i64);
        let i = b.mov(0i64);
        b.label("head");
        let acc2 = b.iadd(acc, i);
        b.mov_to(acc, acc2);
        let i2 = b.iadd(i, 1);
        b.mov_to(i, i2);
        let p = b.setp(Cmp::Lt, i, 10i64);
        b.bra_if(p, true, "head");
        b.st_global(addr, acc, 0);
        b.exit();
        let k = b.finish().flatten();
        let mut gpu = Gpu::launch(
            GpuConfig::gtx480(),
            k,
            LaunchDims::linear(1, 32),
            SchedulerKind::Gto,
        )
        .unwrap();
        gpu.run(1_000_000).unwrap();
        for t in 0..32u64 {
            assert_eq!(gpu.global().read(t * 8), 45, "thread {t}");
        }
    }

    #[test]
    fn divergent_kernel_reconverges() {
        // Threads with tid < 16 store 1, others store 2; all store tid
        // afterwards (post-reconvergence).
        let mut b = KernelBuilder::new("div");
        let tid = b.special(Special::TidX);
        let addr = b.imul(tid, 8);
        let p = b.setp(Cmp::Lt, tid, 16i64);
        b.bra_if(p, false, "else");
        b.st_global(addr, 1i64, 0);
        b.bra("join");
        b.label("else");
        b.st_global(addr, 2i64, 0);
        b.label("join");
        b.st_global(addr, tid, 4096);
        b.exit();
        let k = b.finish().flatten();
        let mut gpu = Gpu::launch(
            GpuConfig::gtx480(),
            k,
            LaunchDims::linear(1, 32),
            SchedulerKind::Gto,
        )
        .unwrap();
        gpu.run(1_000_000).unwrap();
        for t in 0..32u64 {
            let expect = if t < 16 { 1 } else { 2 };
            assert_eq!(gpu.global().read(t * 8), expect, "thread {t}");
            assert_eq!(gpu.global().read(4096 + t * 8), t, "thread {t} join");
        }
    }

    #[test]
    fn barrier_orders_shared_memory() {
        // Warp-crossing communication: thread t writes shared[t], after
        // the barrier reads shared[(t + 37) % 64].
        let mut b = KernelBuilder::new("bar");
        let sh = b.alloc_shared(64 * 8);
        let tid = b.special(Special::TidX);
        let saddr = b.imul(tid, 8);
        let v = b.imul(tid, 3);
        b.st_shared(saddr, v, sh);
        b.barrier();
        let other = b.iadd(tid, 37);
        let wrapped = b.irem(other, 64);
        let oaddr = b.imul(wrapped, 8);
        let got = b.ld_shared(oaddr, sh);
        let gaddr = b.imul(tid, 8);
        b.st_global(gaddr, got, 0);
        b.exit();
        let k = b.finish().flatten();
        let mut gpu = Gpu::launch(
            GpuConfig::gtx480(),
            k,
            LaunchDims::linear(2, 64),
            SchedulerKind::Gto,
        )
        .unwrap();
        gpu.run(1_000_000).unwrap();
        for t in 0..64u64 {
            assert_eq!(gpu.global().read(t * 8), (t + 37) % 64 * 3, "thread {t}");
        }
    }

    #[test]
    fn atomics_accumulate_across_ctas() {
        use crate::isa::{AtomOp, MemSpace};
        // Every thread atomically adds 1 to global[0].
        let mut b = KernelBuilder::new("atom");
        let base = b.mov(0i64);
        let _old = b.atom(MemSpace::Global, AtomOp::Add, base, 1i64, 0);
        b.exit();
        let k = b.finish().flatten();
        let mut gpu = Gpu::launch(
            GpuConfig::gtx480(),
            k,
            LaunchDims::linear(4, 64),
            SchedulerKind::Gto,
        )
        .unwrap();
        gpu.run(1_000_000).unwrap();
        assert_eq!(gpu.global().read(0), 4 * 64);
    }

    #[test]
    fn occupancy_respects_limits() {
        let k = incr_kernel();
        let cfg = GpuConfig::gtx480();
        // 64-thread CTAs, tiny kernel: bounded by max CTAs per SM.
        assert_eq!(occupancy(&cfg, &k, &LaunchDims::linear(1, 64)), 8);
        // 1024-thread CTAs: 32 warps each; 48 warps/SM allows 1.
        assert_eq!(occupancy(&cfg, &k, &LaunchDims::linear(1, 1024)), 1);
        // Shared memory bound.
        let mut k2 = incr_kernel();
        k2.shared_mem_bytes = 20 * 1024;
        assert_eq!(occupancy(&cfg, &k2, &LaunchDims::linear(1, 64)), 2);
        // Register bound: 63 regs * 256 threads = 16128; 32768/16128 = 2.
        let mut k3 = incr_kernel();
        k3.regs_per_thread = 63;
        assert_eq!(occupancy(&cfg, &k3, &LaunchDims::linear(1, 256)), 2);
    }

    #[test]
    fn launch_rejects_bad_configs() {
        let mut k = incr_kernel();
        k.regs_per_thread = 100;
        let err = Gpu::launch(
            GpuConfig::gtx480(),
            k,
            LaunchDims::linear(1, 64),
            SchedulerKind::Gto,
        )
        .unwrap_err();
        assert!(matches!(err, LaunchError::TooManyRegisters { .. }));

        let err = Gpu::launch(
            GpuConfig::gtx480(),
            incr_kernel(),
            LaunchDims::linear(0, 64),
            SchedulerKind::Gto,
        )
        .unwrap_err();
        assert_eq!(err, LaunchError::EmptyGrid);
    }

    #[test]
    fn timeout_is_reported() {
        // Infinite loop kernel.
        let mut b = KernelBuilder::new("inf");
        b.label("spin");
        let _ = b.mov(1i64);
        b.bra("spin");
        b.exit();
        let k = b.finish().flatten();
        let mut gpu = Gpu::launch(
            GpuConfig::gtx480(),
            k,
            LaunchDims::linear(1, 32),
            SchedulerKind::Gto,
        )
        .unwrap();
        let err = gpu.run(1000).unwrap_err();
        assert_eq!(err.max_cycles, 1000);
    }

    #[test]
    fn all_schedulers_produce_correct_output() {
        for sched in SchedulerKind::all() {
            let mut gpu = Gpu::launch(
                GpuConfig::gtx480(),
                incr_kernel(),
                LaunchDims::linear(4, 64),
                sched,
            )
            .unwrap();
            for i in 0..64u64 {
                gpu.global_mut().write(i * 8, 100 + i);
            }
            gpu.run(1_000_000).unwrap();
            for i in 0..64u64 {
                assert_eq!(gpu.global().read(4096 + i * 8), 101 + i, "{sched}");
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut gpu = Gpu::launch(
                GpuConfig::gtx480(),
                incr_kernel(),
                LaunchDims::linear(8, 128),
                SchedulerKind::Gto,
            )
            .unwrap();
            gpu.run(1_000_000).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_register_and_recover_noop_on_null_attachment() {
        let mut gpu = Gpu::launch(
            GpuConfig::gtx480(),
            incr_kernel(),
            LaunchDims::linear(1, 64),
            SchedulerKind::Gto,
        )
        .unwrap();
        gpu.step_window(gpu.cycle() + 1);
        let first_live = gpu.live_warps(0).next();
        let slot = first_live.expect("live warp after first step");
        assert!(gpu.corrupt_register(0, slot, Reg(0), 0, 1));
        assert!(!gpu.corrupt_register(0, 999, Reg(0), 0, 1));
        // Null attachment: recovery rolls back nothing.
        assert_eq!(gpu.recover_sm(0), 0);
    }
}
