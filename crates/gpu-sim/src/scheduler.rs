//! Warp scheduling policies: GTO, OLD, LRR and Two-Level — the four
//! policies of the paper's Figure 18.
//!
//! Each SM has several schedulers; warp slots are statically partitioned
//! among them (slot *s* belongs to scheduler `s % schedulers_per_sm`, as
//! in Fermi). Every cycle each scheduler picks one *eligible* warp (ready,
//! no data/structural hazard) and issues one instruction from it.

use std::fmt;

/// A warp eligible for issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// SM warp slot.
    pub slot: usize,
    /// Launch cycle of the warp (its age; smaller = older).
    pub age: u64,
}

/// Scheduling policy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Greedy-Then-Oldest: keep issuing from the same warp until it
    /// stalls, then switch to the oldest ready warp (the paper default).
    Gto,
    /// Oldest-first every cycle.
    Old,
    /// Loose round-robin, skipping stalled warps.
    Lrr,
    /// Two-level: a small active set scheduled round-robin; stalled warps
    /// are swapped out for pending ones.
    TwoLevel,
}

impl SchedulerKind {
    /// All policies evaluated in the paper's Figure 18.
    pub fn all() -> [SchedulerKind; 4] {
        [
            SchedulerKind::Gto,
            SchedulerKind::Old,
            SchedulerKind::Lrr,
            SchedulerKind::TwoLevel,
        ]
    }

    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Gto => "GTO",
            SchedulerKind::Old => "OLD",
            SchedulerKind::Lrr => "LRR",
            SchedulerKind::TwoLevel => "2-Level",
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Size of the active set used by the two-level scheduler.
const TWO_LEVEL_ACTIVE: usize = 8;

/// One warp scheduler instance.
#[derive(Debug, Clone)]
pub struct Scheduler {
    kind: SchedulerKind,
    /// GTO: the warp issued last cycle.
    last: Option<usize>,
    /// LRR: slot after which to resume the round-robin scan.
    rr_after: usize,
    /// Two-level: current active set (slots).
    active: Vec<usize>,
}

impl Scheduler {
    /// Creates a scheduler of the given kind.
    pub fn new(kind: SchedulerKind) -> Scheduler {
        Scheduler {
            kind,
            last: None,
            rr_after: usize::MAX,
            active: Vec::new(),
        }
    }

    /// The policy of this scheduler.
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// Picks the warp to issue from among `eligible` (sorted by slot), or
    /// `None` if the list is empty.
    ///
    /// Picking from an empty list is *idempotent*: the first such call
    /// resets the GTO greedy run, and repeating it changes nothing. The
    /// event-driven clock depends on this — when it skips a window of
    /// cycles in which no warp is eligible, the one `pick(&[])` performed
    /// on the tick before the skip leaves the scheduler in exactly the
    /// state the per-cycle loop's repeated empty picks would have.
    pub fn pick(&mut self, eligible: &[Candidate]) -> Option<usize> {
        if eligible.is_empty() {
            // GTO: losing eligibility ends the greedy run.
            self.last = None;
            return None;
        }
        let chosen = match self.kind {
            SchedulerKind::Gto => {
                if let Some(last) = self.last {
                    if let Some(c) = eligible.iter().find(|c| c.slot == last) {
                        c.slot
                    } else {
                        oldest(eligible)
                    }
                } else {
                    oldest(eligible)
                }
            }
            SchedulerKind::Old => oldest(eligible),
            SchedulerKind::Lrr => {
                // First eligible slot strictly greater than `rr_after`,
                // wrapping around.
                eligible
                    .iter()
                    .find(|c| c.slot > self.rr_after)
                    .unwrap_or(&eligible[0])
                    .slot
            }
            SchedulerKind::TwoLevel => {
                // Drop active warps that are no longer eligible, refill
                // from pending, then LRR over the active set.
                self.active
                    .retain(|s| eligible.iter().any(|c| c.slot == *s));
                for c in eligible {
                    if self.active.len() >= TWO_LEVEL_ACTIVE {
                        break;
                    }
                    if !self.active.contains(&c.slot) {
                        self.active.push(c.slot);
                    }
                }
                // Round-robin in slot order over the active set: the
                // smallest active slot above `rr_after`, else the smallest.
                let rr_after = self.rr_after;
                let above = self.active.iter().copied().filter(|&s| s > rr_after).min();
                above
                    .or_else(|| self.active.iter().copied().min())
                    .expect("an eligible warp joined the active set")
            }
        };
        self.last = Some(chosen);
        self.rr_after = chosen;
        Some(chosen)
    }
}

fn oldest(eligible: &[Candidate]) -> usize {
    eligible
        .iter()
        .min_by_key(|c| (c.age, c.slot))
        .expect("eligible is nonempty")
        .slot
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(list: &[(usize, u64)]) -> Vec<Candidate> {
        list.iter()
            .map(|&(slot, age)| Candidate { slot, age })
            .collect()
    }

    #[test]
    fn gto_sticks_to_current_warp() {
        let mut s = Scheduler::new(SchedulerKind::Gto);
        let e = cands(&[(0, 5), (2, 1), (4, 3)]);
        // First pick: oldest (slot 2).
        assert_eq!(s.pick(&e), Some(2));
        // Still eligible: greedy keeps it even though others exist.
        assert_eq!(s.pick(&e), Some(2));
        // Slot 2 stalls: falls back to oldest remaining (slot 4, age 3).
        let e2 = cands(&[(0, 5), (4, 3)]);
        assert_eq!(s.pick(&e2), Some(4));
        // After a cycle with nothing eligible, greedy run resets.
        assert_eq!(s.pick(&[]), None);
        assert_eq!(s.pick(&e), Some(2));
    }

    #[test]
    fn old_always_picks_oldest() {
        let mut s = Scheduler::new(SchedulerKind::Old);
        let e = cands(&[(0, 5), (2, 1), (4, 3)]);
        assert_eq!(s.pick(&e), Some(2));
        assert_eq!(s.pick(&e), Some(2));
        let e2 = cands(&[(0, 5), (4, 3)]);
        assert_eq!(s.pick(&e2), Some(4));
    }

    #[test]
    fn old_breaks_age_ties_by_slot() {
        let mut s = Scheduler::new(SchedulerKind::Old);
        let e = cands(&[(6, 1), (2, 1)]);
        assert_eq!(s.pick(&e), Some(2));
    }

    #[test]
    fn lrr_rotates() {
        let mut s = Scheduler::new(SchedulerKind::Lrr);
        let e = cands(&[(0, 0), (2, 0), (4, 0)]);
        assert_eq!(s.pick(&e), Some(0));
        assert_eq!(s.pick(&e), Some(2));
        assert_eq!(s.pick(&e), Some(4));
        assert_eq!(s.pick(&e), Some(0));
    }

    #[test]
    fn lrr_skips_stalled() {
        let mut s = Scheduler::new(SchedulerKind::Lrr);
        let e = cands(&[(0, 0), (2, 0), (4, 0)]);
        assert_eq!(s.pick(&e), Some(0));
        let e2 = cands(&[(0, 0), (4, 0)]);
        assert_eq!(s.pick(&e2), Some(4));
    }

    #[test]
    fn two_level_limits_active_set() {
        let mut s = Scheduler::new(SchedulerKind::TwoLevel);
        let e: Vec<Candidate> = (0..20).map(|i| Candidate { slot: i, age: 0 }).collect();
        // Issues only rotate among the first TWO_LEVEL_ACTIVE slots while
        // they stay eligible.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..32 {
            seen.insert(s.pick(&e).unwrap());
        }
        assert_eq!(seen.len(), TWO_LEVEL_ACTIVE);
        assert!(seen.iter().all(|&s| s < TWO_LEVEL_ACTIVE));
    }

    #[test]
    fn two_level_swaps_out_stalled_warps() {
        let mut s = Scheduler::new(SchedulerKind::TwoLevel);
        let e: Vec<Candidate> = (0..10).map(|i| Candidate { slot: i, age: 0 }).collect();
        let _ = s.pick(&e);
        // Slots 0..8 stall; 8 and 9 remain.
        let e2 = cands(&[(8, 0), (9, 0)]);
        let got = s.pick(&e2).unwrap();
        assert!(got == 8 || got == 9);
    }

    #[test]
    fn empty_eligible_returns_none() {
        for kind in SchedulerKind::all() {
            let mut s = Scheduler::new(kind);
            assert_eq!(s.pick(&[]), None, "{kind}");
        }
    }

    #[test]
    fn empty_pick_is_idempotent() {
        // One empty pick must leave every policy in the same state as many
        // (the event-driven clock collapses idle windows into one pick).
        for kind in SchedulerKind::all() {
            let e = cands(&[(0, 5), (2, 1), (4, 3)]);
            let mut once = Scheduler::new(kind);
            let mut many = Scheduler::new(kind);
            assert_eq!(once.pick(&e), many.pick(&e), "{kind} warm-up");
            let _ = once.pick(&[]);
            for _ in 0..100 {
                let _ = many.pick(&[]);
            }
            // Indistinguishable through any subsequent pick sequence.
            for list in [&[] as &[Candidate], e.as_slice(), &e[..1], e.as_slice()] {
                assert_eq!(once.pick(list), many.pick(list), "{kind}");
            }
        }
    }

    #[test]
    fn kind_names_match_paper() {
        assert_eq!(SchedulerKind::Gto.name(), "GTO");
        assert_eq!(SchedulerKind::TwoLevel.name(), "2-Level");
    }
}
