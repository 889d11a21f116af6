//! Recording: the per-SM [`Tracer`] handle, the bounded event ring and
//! the streaming aggregators that stay exact even after ring eviction.

use crate::event::{Event, StallCause};
use std::collections::VecDeque;

/// Default per-tracer ring capacity (events). 64 Ki events × ~32 bytes ≈
/// 2 MiB per SM; a 16-SM GPU tops out around 32 MiB of trace memory.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Per-run cap on retained [`RegionRecord`]s (they live outside the ring
/// so region CSVs stay complete for realistic runs; beyond this the
/// buffer counts drops instead of growing unboundedly).
pub const REGION_CAPACITY: usize = 1 << 20;

/// One recorded event with its emission cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// GPU cycle at which the event was emitted.
    pub cycle: u64,
    /// The event itself.
    pub ev: Event,
}

/// Per-scheduler stall attribution: `counts[sched][cause.index()]` is the
/// number of stall cycles credited to that scheduler for that cause.
///
/// Updated for every [`Event::IssueStall`] *before* the event enters the
/// ring, so the matrix equals the simulator's `StallStats` exactly no
/// matter how many events the ring evicted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallMatrix {
    counts: Vec<[u64; 6]>,
}

impl StallMatrix {
    /// Credit `cycles` stalled cycles on `sched` to `cause`.
    pub fn add(&mut self, sched: u32, cause: StallCause, cycles: u64) {
        let sched = sched as usize;
        if sched >= self.counts.len() {
            self.counts.resize(sched + 1, [0; 6]);
        }
        self.counts[sched][cause.index()] += cycles;
    }

    /// Fold another matrix into this one (used when merging SM buffers).
    pub fn absorb(&mut self, other: &StallMatrix) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), [0; 6]);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
    }

    /// Number of schedulers that have at least one slot in the matrix.
    pub fn schedulers(&self) -> usize {
        self.counts.len()
    }

    /// Per-cause counts for one scheduler (zeros if it never stalled).
    pub fn row(&self, sched: usize) -> [u64; 6] {
        self.counts.get(sched).copied().unwrap_or([0; 6])
    }

    /// Per-cause counts summed over all schedulers.
    pub fn totals(&self) -> [u64; 6] {
        let mut out = [0u64; 6];
        for row in &self.counts {
            for (o, c) in out.iter_mut().zip(row) {
                *o += c;
            }
        }
        out
    }

    /// Grand total of stall cycles across all schedulers and causes.
    pub fn total(&self) -> u64 {
        self.totals().iter().sum()
    }
}

/// A fixed-width linear histogram with an explicit overflow bucket.
/// Bucket `i` covers values `[i * width, (i + 1) * width)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    width: u64,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// A histogram with `buckets` in-range buckets of `width` each.
    pub fn new(buckets: usize, width: u64) -> Self {
        Histogram {
            width: width.max(1),
            buckets: vec![0; buckets.max(1)],
            overflow: 0,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.width) as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Fold another histogram into this one. Panics if the shapes differ
    /// (all flame-trace histograms of one kind share a shape).
    pub fn absorb(&mut self, other: &Histogram) {
        assert_eq!(self.width, other.width, "histogram width mismatch");
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "histogram bucket-count mismatch"
        );
        for (m, t) in self.buckets.iter_mut().zip(&other.buckets) {
            *m += t;
        }
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact arithmetic mean of all samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate p-th percentile (0.0 ≤ p ≤ 1.0): the inclusive upper
    /// bound of the bucket holding the p-th sample. Overflowed samples
    /// report the exact maximum.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return (i as u64 + 1) * self.width - 1;
            }
        }
        self.max
    }
}

/// The lifetime of one verified region of one warp, from boundary
/// crossing to commit/verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionRecord {
    /// Warp slot that executed the region.
    pub slot: u32,
    /// PC of the first instruction after the closing boundary.
    pub pc: u32,
    /// Cycle the closing boundary was crossed ([`Event::RegionEnter`]).
    pub enter: u64,
    /// Cycle the region closed, or `u64::MAX` while still open (run ended
    /// or a rollback re-entered the region).
    pub close: u64,
    /// `true` when closed by an immediate [`Event::RegionCommit`];
    /// `false` when closed by a queued [`Event::RegionVerify`].
    pub committed: bool,
}

impl RegionRecord {
    /// Whether the region ever closed.
    pub fn is_closed(&self) -> bool {
        self.close != u64::MAX
    }

    /// Cycles from boundary to close (`None` while open). Immediate
    /// commits report 0; conveyor verification reports the WCDL wait.
    pub fn latency(&self) -> Option<u64> {
        self.is_closed().then(|| self.close - self.enter)
    }
}

const NO_OPEN_REGION: usize = usize::MAX;

/// The bounded recorder behind an enabled [`Tracer`].
///
/// The event ring holds the most recent `capacity` events (older ones are
/// evicted and counted in [`TraceBuffer::dropped`], never aborting the
/// run). All aggregates — the stall matrix, the histograms and the region
/// records — are updated *before* ring insertion, so they describe the
/// whole run regardless of eviction.
#[derive(Debug, Clone)]
pub struct TraceBuffer {
    capacity: usize,
    /// The most recent events, oldest first.
    pub ring: VecDeque<TraceRecord>,
    /// Events evicted from the ring.
    pub dropped: u64,
    /// Per-scheduler stall attribution (exact for the whole run).
    pub stalls: StallMatrix,
    /// RBQ occupancy sampled at every enqueue/dequeue (exact).
    pub rbq_occupancy: Histogram,
    /// Region-verification latency: boundary crossing → verify, in
    /// cycles, for conveyor-verified regions only (exact).
    pub verify_latency: Histogram,
    /// Every region boundary crossed, in crossing order (capped at
    /// [`REGION_CAPACITY`]).
    pub regions: Vec<RegionRecord>,
    /// Region records not retained because [`REGION_CAPACITY`] was hit.
    pub regions_dropped: u64,
    open_region: Vec<usize>,
}

impl TraceBuffer {
    /// A buffer retaining at most `capacity` events (clamped to ≥ 16).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(16);
        TraceBuffer {
            capacity,
            ring: VecDeque::with_capacity(capacity.min(1 << 12)),
            dropped: 0,
            stalls: StallMatrix::default(),
            rbq_occupancy: Histogram::new(64, 1),
            verify_latency: Histogram::new(4096, 1),
            regions: Vec::new(),
            regions_dropped: 0,
            open_region: Vec::new(),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record one event, updating aggregates first and the ring second.
    pub fn push(&mut self, cycle: u64, ev: Event) {
        match ev {
            Event::IssueStall {
                sched,
                cause,
                cycles,
            } => self.stalls.add(sched, cause, cycles),
            Event::RbqEnqueue { depth, .. } | Event::RbqDequeue { depth, .. } => {
                self.rbq_occupancy.record(u64::from(depth));
            }
            Event::RegionEnter { slot, pc } => self.open_region_at(slot, pc, cycle),
            Event::RegionCommit { slot } => {
                self.close_region(slot, cycle, true);
            }
            Event::RegionVerify { slot } => {
                if let Some(latency) = self.close_region(slot, cycle, false) {
                    self.verify_latency.record(latency);
                }
            }
            _ => {}
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceRecord { cycle, ev });
    }

    fn open_region_at(&mut self, slot: u32, pc: u32, cycle: u64) {
        let slot = slot as usize;
        if slot >= self.open_region.len() {
            self.open_region.resize(slot + 1, NO_OPEN_REGION);
        }
        // A still-open entry here means a rollback re-ran the region; the
        // stale open stays in `regions` with close == u64::MAX.
        if self.regions.len() < REGION_CAPACITY {
            self.open_region[slot] = self.regions.len();
            self.regions.push(RegionRecord {
                slot: slot as u32,
                pc,
                enter: cycle,
                close: u64::MAX,
                committed: false,
            });
        } else {
            self.open_region[slot] = NO_OPEN_REGION;
            self.regions_dropped += 1;
        }
    }

    fn close_region(&mut self, slot: u32, cycle: u64, committed: bool) -> Option<u64> {
        let idx = self
            .open_region
            .get_mut(slot as usize)
            .map(|i| std::mem::replace(i, NO_OPEN_REGION))?;
        let rec = self.regions.get_mut(idx)?;
        rec.close = cycle;
        rec.committed = committed;
        rec.latency()
    }
}

/// The simulator-facing tracing handle.
///
/// A disabled tracer (the default) holds no buffer: [`Tracer::emit`] is a
/// single never-taken branch and [`Tracer::on`] lets callers skip event
/// argument computation entirely, so the untraced hot path is unchanged.
#[derive(Debug, Default)]
pub struct Tracer {
    buf: Option<Box<TraceBuffer>>,
}

impl Tracer {
    /// A disabled tracer (records nothing).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// An enabled tracer with a ring of `capacity` events.
    pub fn enabled(capacity: usize) -> Self {
        Tracer {
            buf: Some(Box::new(TraceBuffer::new(capacity))),
        }
    }

    /// Whether events are being recorded. Guard any emission whose
    /// arguments are not free to compute.
    #[inline]
    pub fn on(&self) -> bool {
        self.buf.is_some()
    }

    /// Record `ev` at `cycle` if enabled; a no-op branch otherwise.
    #[inline]
    pub fn emit(&mut self, cycle: u64, ev: Event) {
        if let Some(buf) = &mut self.buf {
            buf.push(cycle, ev);
        }
    }

    /// Detach the recorded buffer, disabling the tracer.
    pub fn take(&mut self) -> Option<Box<TraceBuffer>> {
        self.buf.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.on());
        t.emit(5, Event::WarpIssue { slot: 0, pc: 0 });
        assert!(t.take().is_none());
    }

    #[test]
    fn ring_evicts_but_aggregates_stay_exact() {
        let mut t = Tracer::enabled(16);
        for i in 0..100u64 {
            t.emit(
                i,
                Event::IssueStall {
                    sched: (i % 2) as u32,
                    cause: StallCause::Scoreboard,
                    cycles: 3,
                },
            );
        }
        let buf = t.take().unwrap();
        assert_eq!(buf.ring.len(), 16);
        assert_eq!(buf.dropped, 84);
        assert_eq!(buf.ring.front().unwrap().cycle, 84);
        assert_eq!(buf.stalls.total(), 300);
        assert_eq!(buf.stalls.row(0)[StallCause::Scoreboard.index()], 150);
        assert_eq!(buf.stalls.row(1)[StallCause::Scoreboard.index()], 150);
        assert_eq!(buf.stalls.row(7), [0; 6]);
    }

    #[test]
    fn region_lifecycle_and_verify_latency() {
        let mut buf = TraceBuffer::new(64);
        buf.push(10, Event::RegionEnter { slot: 2, pc: 40 });
        buf.push(10, Event::RbqEnqueue { slot: 2, depth: 1 });
        buf.push(25, Event::RbqDequeue { slot: 2, depth: 0 });
        buf.push(25, Event::RegionVerify { slot: 2 });
        buf.push(30, Event::RegionEnter { slot: 3, pc: 8 });
        buf.push(30, Event::RegionCommit { slot: 3 });
        buf.push(40, Event::RegionEnter { slot: 2, pc: 44 });

        assert_eq!(buf.regions.len(), 3);
        let verified = buf.regions[0];
        assert_eq!((verified.slot, verified.pc), (2, 40));
        assert_eq!(verified.latency(), Some(15));
        assert!(!verified.committed);
        let committed = buf.regions[1];
        assert_eq!(committed.latency(), Some(0));
        assert!(committed.committed);
        assert!(!buf.regions[2].is_closed());
        assert_eq!(buf.verify_latency.count(), 1);
        assert_eq!(buf.verify_latency.max(), 15);
        assert_eq!(buf.rbq_occupancy.count(), 2);
    }

    #[test]
    fn verify_without_open_region_is_ignored() {
        let mut buf = TraceBuffer::new(16);
        buf.push(5, Event::RegionVerify { slot: 9 });
        assert_eq!(buf.verify_latency.count(), 0);
        assert!(buf.regions.is_empty());
    }

    #[test]
    fn rollback_reentry_leaves_stale_region_open() {
        let mut buf = TraceBuffer::new(16);
        buf.push(10, Event::RegionEnter { slot: 0, pc: 4 });
        // Rollback: the warp re-runs and crosses the same boundary again.
        buf.push(50, Event::RegionEnter { slot: 0, pc: 4 });
        buf.push(60, Event::RegionVerify { slot: 0 });
        assert_eq!(buf.regions.len(), 2);
        assert!(!buf.regions[0].is_closed());
        assert_eq!(buf.regions[1].latency(), Some(10));
    }

    #[test]
    fn histogram_percentiles_and_overflow() {
        let mut h = Histogram::new(8, 2);
        for v in [0, 1, 2, 3, 4, 5, 6, 7] {
            h.record(v);
        }
        h.record(1000);
        assert_eq!(h.count(), 9);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.percentile(0.5), 5); // 5th sample (value 4) → bucket [4,6) → 5
        assert_eq!(h.percentile(1.0), 1000);
        let mut other = Histogram::new(8, 2);
        other.record(3);
        h.absorb(&other);
        assert_eq!(h.count(), 10);
        assert!((h.mean() - 1031.0 / 10.0).abs() < 1e-9);
    }

    #[test]
    fn stall_matrix_absorb_and_totals() {
        let mut a = StallMatrix::default();
        a.add(0, StallCause::NoWarp, 5);
        let mut b = StallMatrix::default();
        b.add(2, StallCause::RbqWait, 7);
        a.absorb(&b);
        assert_eq!(a.schedulers(), 3);
        assert_eq!(a.total(), 12);
        let t = a.totals();
        assert_eq!(t[StallCause::NoWarp.index()], 5);
        assert_eq!(t[StallCause::RbqWait.index()], 7);
    }

    #[test]
    fn default_capacity_floor() {
        assert_eq!(
            TraceBuffer::new(DEFAULT_CAPACITY).capacity(),
            DEFAULT_CAPACITY
        );
        assert_eq!(TraceBuffer::new(0).capacity(), 16);
    }
}
