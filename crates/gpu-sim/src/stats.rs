//! Simulation statistics.

use std::fmt;
use std::ops::AddAssign;

/// Issue-stall causes tracked per cycle per scheduler.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallStats {
    /// No warp was resident on the scheduler's slots.
    pub no_warp: u64,
    /// All resident warps were blocked on the scoreboard (data hazards).
    pub scoreboard: u64,
    /// A memory instruction could not issue because MSHRs were full.
    pub mshr_full: u64,
    /// All resident warps were waiting at a barrier.
    pub barrier: u64,
    /// All resident warps were descheduled into the region boundary queue
    /// (waiting for soft-error verification).
    pub rbq_wait: u64,
    /// The scheduler itself was stalled (naive region verification).
    pub sched_blocked: u64,
}

impl StallStats {
    /// Total stalled scheduler-cycles.
    pub fn total(&self) -> u64 {
        self.no_warp
            + self.scoreboard
            + self.mshr_full
            + self.barrier
            + self.rbq_wait
            + self.sched_blocked
    }
}

impl AddAssign for StallStats {
    fn add_assign(&mut self, o: StallStats) {
        self.no_warp += o.no_warp;
        self.scoreboard += o.scoreboard;
        self.mshr_full += o.mshr_full;
        self.barrier += o.barrier;
        self.rbq_wait += o.rbq_wait;
        self.sched_blocked += o.sched_blocked;
    }
}

/// Memory-hierarchy statistics.
///
/// The cache counters count probes by coalesced 128-byte segment, and
/// not every segment probes both caches: a global load's segments probe
/// the L1 (filling it on a miss) and, on an L1 miss, the L2; a global
/// store's segments probe the L1 without allocating, uncounted, and then
/// the L2, which they fill (write-through, write-allocate in the L2).
/// Global atomics probe neither cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Global-load segments that hit in the L1.
    pub l1_hits: u64,
    /// Global-load segments that missed in the L1 (each then probes the
    /// L2).
    pub l1_misses: u64,
    /// L2 hits: load segments that missed the L1, plus store segments.
    pub l2_hits: u64,
    /// L2 misses (DRAM accesses), by the same probes as `l2_hits`.
    pub l2_misses: u64,
    /// Global load and store segments after coalescing (atomics are
    /// counted in `atomics` only).
    pub transactions: u64,
    /// Shared-memory accesses.
    pub shared_accesses: u64,
    /// Extra serialization cycles from shared-memory bank conflicts.
    pub bank_conflicts: u64,
    /// Atomic warp instructions executed, in every memory space.
    pub atomics: u64,
}

impl AddAssign for MemStats {
    fn add_assign(&mut self, o: MemStats) {
        self.l1_hits += o.l1_hits;
        self.l1_misses += o.l1_misses;
        self.l2_hits += o.l2_hits;
        self.l2_misses += o.l2_misses;
        self.transactions += o.transactions;
        self.shared_accesses += o.shared_accesses;
        self.bank_conflicts += o.bank_conflicts;
        self.atomics += o.atomics;
    }
}

/// Resilience-mechanism statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Region boundaries encountered by warps.
    pub boundaries: u64,
    /// Boundaries that descheduled the warp (WCDL-aware scheduling).
    pub deschedules: u64,
    /// Warps verified (popped from the RBQ).
    pub verifications: u64,
    /// Error-recovery events (all-warp rollbacks).
    pub recoveries: u64,
    /// Warp-rollbacks performed across all recoveries.
    pub warps_rolled_back: u64,
    /// Escalated recoveries that restarted every resident CTA from its
    /// entry (region-level rollback was unusable — e.g. corrupted RPT
    /// state or a rollback livelock).
    pub cta_relaunches: u64,
}

impl AddAssign for ResilienceStats {
    fn add_assign(&mut self, o: ResilienceStats) {
        self.boundaries += o.boundaries;
        self.deschedules += o.deschedules;
        self.verifications += o.verifications;
        self.recoveries += o.recoveries;
        self.warps_rolled_back += o.warps_rolled_back;
        self.cta_relaunches += o.cta_relaunches;
    }
}

/// Aggregate statistics of a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total GPU cycles elapsed.
    pub cycles: u64,
    /// Warp-instructions issued.
    pub instructions: u64,
    /// Dynamic thread-instructions (warp-instructions × active lanes).
    pub thread_instructions: u64,
    /// CTAs completed.
    pub ctas: u64,
    /// Issue-stall breakdown.
    pub stalls: StallStats,
    /// Memory statistics.
    pub mem: MemStats,
    /// Resilience statistics.
    pub resilience: ResilienceStats,
}

impl SimStats {
    /// Warp-instructions per cycle across the GPU.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Names and `(self, other)` values of every field that differs —
    /// empty iff `self == other`. Written for the event-driven-clock and
    /// tracing invariance tests, where "fast-forward changed
    /// `stalls.rbq_wait`" beats a 40-line struct dump in a failed
    /// assertion.
    ///
    /// Exhaustively destructures every statistics struct (no `..` rests),
    /// so adding a counter anywhere without naming it here is a compile
    /// error — the invariance tests can never silently ignore a new
    /// field.
    pub fn diff(&self, other: &SimStats) -> Vec<(&'static str, u64, u64)> {
        // One side per binding set; any new field breaks both patterns.
        let SimStats {
            cycles,
            instructions,
            thread_instructions,
            ctas,
            stalls:
                StallStats {
                    no_warp,
                    scoreboard,
                    mshr_full,
                    barrier,
                    rbq_wait,
                    sched_blocked,
                },
            mem:
                MemStats {
                    l1_hits,
                    l1_misses,
                    l2_hits,
                    l2_misses,
                    transactions,
                    shared_accesses,
                    bank_conflicts,
                    atomics,
                },
            resilience:
                ResilienceStats {
                    boundaries,
                    deschedules,
                    verifications,
                    recoveries,
                    warps_rolled_back,
                    cta_relaunches,
                },
        } = *self;
        let SimStats {
            cycles: o_cycles,
            instructions: o_instructions,
            thread_instructions: o_thread_instructions,
            ctas: o_ctas,
            stalls:
                StallStats {
                    no_warp: o_no_warp,
                    scoreboard: o_scoreboard,
                    mshr_full: o_mshr_full,
                    barrier: o_barrier,
                    rbq_wait: o_rbq_wait,
                    sched_blocked: o_sched_blocked,
                },
            mem:
                MemStats {
                    l1_hits: o_l1_hits,
                    l1_misses: o_l1_misses,
                    l2_hits: o_l2_hits,
                    l2_misses: o_l2_misses,
                    transactions: o_transactions,
                    shared_accesses: o_shared_accesses,
                    bank_conflicts: o_bank_conflicts,
                    atomics: o_atomics,
                },
            resilience:
                ResilienceStats {
                    boundaries: o_boundaries,
                    deschedules: o_deschedules,
                    verifications: o_verifications,
                    recoveries: o_recoveries,
                    warps_rolled_back: o_warps_rolled_back,
                    cta_relaunches: o_cta_relaunches,
                },
        } = *other;
        let fields = [
            ("cycles", cycles, o_cycles),
            ("instructions", instructions, o_instructions),
            (
                "thread_instructions",
                thread_instructions,
                o_thread_instructions,
            ),
            ("ctas", ctas, o_ctas),
            ("stalls.no_warp", no_warp, o_no_warp),
            ("stalls.scoreboard", scoreboard, o_scoreboard),
            ("stalls.mshr_full", mshr_full, o_mshr_full),
            ("stalls.barrier", barrier, o_barrier),
            ("stalls.rbq_wait", rbq_wait, o_rbq_wait),
            ("stalls.sched_blocked", sched_blocked, o_sched_blocked),
            ("mem.l1_hits", l1_hits, o_l1_hits),
            ("mem.l1_misses", l1_misses, o_l1_misses),
            ("mem.l2_hits", l2_hits, o_l2_hits),
            ("mem.l2_misses", l2_misses, o_l2_misses),
            ("mem.transactions", transactions, o_transactions),
            ("mem.shared_accesses", shared_accesses, o_shared_accesses),
            ("mem.bank_conflicts", bank_conflicts, o_bank_conflicts),
            ("mem.atomics", atomics, o_atomics),
            ("resilience.boundaries", boundaries, o_boundaries),
            ("resilience.deschedules", deschedules, o_deschedules),
            ("resilience.verifications", verifications, o_verifications),
            ("resilience.recoveries", recoveries, o_recoveries),
            (
                "resilience.warps_rolled_back",
                warps_rolled_back,
                o_warps_rolled_back,
            ),
            (
                "resilience.cta_relaunches",
                cta_relaunches,
                o_cta_relaunches,
            ),
        ];
        fields.into_iter().filter(|&(_, a, b)| a != b).collect()
    }
}

impl AddAssign for SimStats {
    fn add_assign(&mut self, o: SimStats) {
        self.cycles = self.cycles.max(o.cycles);
        self.instructions += o.instructions;
        self.thread_instructions += o.thread_instructions;
        self.ctas += o.ctas;
        self.stalls += o.stalls;
        self.mem += o.mem;
        self.resilience += o.resilience;
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles: {}  warp-insts: {}  ipc: {:.3}  ctas: {}",
            self.cycles,
            self.instructions,
            self.ipc(),
            self.ctas
        )?;
        writeln!(
            f,
            "stalls: no_warp={} scoreboard={} mshr={} barrier={} rbq={} sched={}",
            self.stalls.no_warp,
            self.stalls.scoreboard,
            self.stalls.mshr_full,
            self.stalls.barrier,
            self.stalls.rbq_wait,
            self.stalls.sched_blocked
        )?;
        writeln!(
            f,
            "mem: l1 {}/{} l2 {}/{} txns={} shared={} conflicts={} atomics={}",
            self.mem.l1_hits,
            self.mem.l1_hits + self.mem.l1_misses,
            self.mem.l2_hits,
            self.mem.l2_hits + self.mem.l2_misses,
            self.mem.transactions,
            self.mem.shared_accesses,
            self.mem.bank_conflicts,
            self.mem.atomics
        )?;
        write!(
            f,
            "resilience: boundaries={} deschedules={} verified={} recoveries={} rollbacks={} cta_relaunches={}",
            self.resilience.boundaries,
            self.resilience.deschedules,
            self.resilience.verifications,
            self.resilience.recoveries,
            self.resilience.warps_rolled_back,
            self.resilience.cta_relaunches
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = SimStats {
            cycles: 10,
            instructions: 100,
            ..SimStats::default()
        };
        let b = SimStats {
            cycles: 20,
            instructions: 50,
            ..SimStats::default()
        };
        a += b;
        assert_eq!(a.cycles, 20); // max, SMs run in lockstep
        assert_eq!(a.instructions, 150);
    }

    #[test]
    fn stall_total_sums_all_causes() {
        let s = StallStats {
            no_warp: 1,
            scoreboard: 2,
            mshr_full: 3,
            barrier: 4,
            rbq_wait: 5,
            sched_blocked: 6,
        };
        assert_eq!(s.total(), 21);
    }

    #[test]
    fn display_is_nonempty() {
        let s = SimStats::default();
        assert!(!format!("{s}").is_empty());
    }

    #[test]
    fn diff_names_exactly_the_differing_fields() {
        let a = SimStats::default();
        assert!(a.diff(&a).is_empty());
        let mut b = a;
        b.stalls.rbq_wait = 7;
        b.resilience.verifications = 3;
        let d = a.diff(&b);
        assert_eq!(
            d,
            vec![
                ("stalls.rbq_wait", 0, 7),
                ("resilience.verifications", 0, 3)
            ]
        );
    }
}
