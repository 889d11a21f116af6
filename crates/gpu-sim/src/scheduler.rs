//! Warp scheduling policies: GTO, OLD, LRR and Two-Level — the four
//! policies of the paper's Figure 18.
//!
//! Each SM has several schedulers; warp slots are statically partitioned
//! among them (slot *s* belongs to scheduler `s % schedulers_per_sm`, as
//! in Fermi). Every cycle each scheduler picks one *eligible* warp (ready,
//! no data/structural hazard) and issues one instruction from it.
//!
//! A scheduler picks from a bitmask of eligible slots (bit *s* is slot
//! *s*; an SM has at most 64 slots) and, for the age-based policies, the
//! list of its slots in (launch cycle, slot) order.

use std::fmt;

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

    /// The policy named `name`, case-insensitively.
    pub fn by_name(name: &str) -> Option<SchedulerKind> {
        SchedulerKind::all()
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
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
const TWO_LEVEL_ACTIVE: u32 = 8;

/// One warp scheduler instance.
#[derive(Debug, Clone)]
pub struct Scheduler {
    kind: SchedulerKind,
    /// GTO: the warp issued last cycle.
    last: Option<usize>,
    /// LRR and two-level: slot after which to resume the round-robin.
    rr_after: usize,
    /// Two-level: the active set, one bit per slot.
    active: u64,
}

impl Scheduler {
    /// Creates a scheduler of the given kind.
    pub fn new(kind: SchedulerKind) -> Scheduler {
        Scheduler {
            kind,
            last: None,
            rr_after: usize::MAX,
            active: 0,
        }
    }

    /// The policy of this scheduler.
    pub fn kind(&self) -> SchedulerKind {
        self.kind
    }

    /// Picks the warp to issue from the slots set in `eligible`, or
    /// `None` if no bit is set. `by_age` lists slots oldest first, by
    /// (launch cycle, slot), and must include every eligible slot: GTO
    /// and OLD take the first eligible slot in it.
    ///
    /// Picking from an empty set is *idempotent*: the first such call
    /// resets the GTO greedy run, and repeating it changes nothing. The
    /// event-driven clock depends on this — when it skips a window of
    /// cycles in which no warp is eligible, the one empty pick performed
    /// on the tick before the skip leaves the scheduler in exactly the
    /// state the per-cycle loop's repeated empty picks would have.
    pub fn pick(&mut self, eligible: u64, by_age: &[u8]) -> Option<usize> {
        if eligible == 0 {
            // GTO: losing eligibility ends the greedy run.
            self.last = None;
            return None;
        }
        let oldest = || {
            by_age
                .iter()
                .map(|&s| usize::from(s))
                .find(|&s| eligible & (1 << s) != 0)
                .expect("every eligible slot is listed by age")
        };
        let chosen = match self.kind {
            SchedulerKind::Gto => match self.last {
                Some(last) if eligible & (1 << last) != 0 => last,
                _ => oldest(),
            },
            SchedulerKind::Old => oldest(),
            SchedulerKind::Lrr => round_robin(eligible, self.rr_after),
            SchedulerKind::TwoLevel => {
                // Drop active warps that are no longer eligible, refill
                // from pending in slot order, then LRR over the active
                // set.
                self.active &= eligible;
                let mut pending = eligible & !self.active;
                while self.active.count_ones() < TWO_LEVEL_ACTIVE && pending != 0 {
                    let lowest = pending & pending.wrapping_neg();
                    self.active |= lowest;
                    pending ^= lowest;
                }
                round_robin(self.active, self.rr_after)
            }
        };
        self.last = Some(chosen);
        self.rr_after = chosen;
        Some(chosen)
    }
}

/// The lowest slot in the nonempty `set` above `after`, wrapping around
/// to the lowest slot.
fn round_robin(set: u64, after: usize) -> usize {
    let above = match after {
        0..=62 => set & (!0 << (after + 1)),
        _ => 0,
    };
    let from = if above != 0 { above } else { set };
    from.trailing_zeros() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// A warp eligible for issue this cycle, as the list-based scheduler
    /// took it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Candidate {
        slot: usize,
        age: u64,
    }

    /// The list-based scheduler the mask-based one replaced: each cycle
    /// it took the eligible warps as a slot-sorted list. Kept as the
    /// reference the differential test holds [`Scheduler::pick`] to.
    #[derive(Debug, Clone)]
    struct Reference {
        kind: SchedulerKind,
        last: Option<usize>,
        rr_after: usize,
        active: Vec<usize>,
    }

    impl Reference {
        fn new(kind: SchedulerKind) -> Reference {
            Reference {
                kind,
                last: None,
                rr_after: usize::MAX,
                active: Vec::new(),
            }
        }

        fn pick(&mut self, eligible: &[Candidate]) -> Option<usize> {
            if eligible.is_empty() {
                self.last = None;
                return None;
            }
            let oldest = |eligible: &[Candidate]| {
                eligible
                    .iter()
                    .min_by_key(|c| (c.age, c.slot))
                    .expect("eligible is nonempty")
                    .slot
            };
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
                    eligible
                        .iter()
                        .find(|c| c.slot > self.rr_after)
                        .unwrap_or(&eligible[0])
                        .slot
                }
                SchedulerKind::TwoLevel => {
                    self.active
                        .retain(|s| eligible.iter().any(|c| c.slot == *s));
                    for c in eligible {
                        if self.active.len() >= TWO_LEVEL_ACTIVE as usize {
                            break;
                        }
                        if !self.active.contains(&c.slot) {
                            self.active.push(c.slot);
                        }
                    }
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

    fn mask(slots: impl IntoIterator<Item = usize>) -> u64 {
        slots.into_iter().fold(0, |m, s| m | 1 << s)
    }

    /// Slots ordered oldest first, by (age, slot).
    fn by_age(warps: &[Candidate]) -> Vec<u8> {
        let mut order: Vec<(u64, usize)> = warps.iter().map(|c| (c.age, c.slot)).collect();
        order.sort_unstable();
        order.into_iter().map(|(_, s)| s as u8).collect()
    }

    /// Picks from a slot-sorted candidate list through the mask API.
    fn pick(s: &mut Scheduler, eligible: &[Candidate]) -> Option<usize> {
        s.pick(mask(eligible.iter().map(|c| c.slot)), &by_age(eligible))
    }

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
        assert_eq!(pick(&mut s, &e), Some(2));
        // Still eligible: greedy keeps it even though others exist.
        assert_eq!(pick(&mut s, &e), Some(2));
        // Slot 2 stalls: falls back to oldest remaining (slot 4, age 3).
        let e2 = cands(&[(0, 5), (4, 3)]);
        assert_eq!(pick(&mut s, &e2), Some(4));
        // After a cycle with nothing eligible, greedy run resets.
        assert_eq!(pick(&mut s, &[]), None);
        assert_eq!(pick(&mut s, &e), Some(2));
    }

    #[test]
    fn old_always_picks_oldest() {
        let mut s = Scheduler::new(SchedulerKind::Old);
        let e = cands(&[(0, 5), (2, 1), (4, 3)]);
        assert_eq!(pick(&mut s, &e), Some(2));
        assert_eq!(pick(&mut s, &e), Some(2));
        let e2 = cands(&[(0, 5), (4, 3)]);
        assert_eq!(pick(&mut s, &e2), Some(4));
    }

    #[test]
    fn old_breaks_age_ties_by_slot() {
        let mut s = Scheduler::new(SchedulerKind::Old);
        let e = cands(&[(6, 1), (2, 1)]);
        assert_eq!(pick(&mut s, &e), Some(2));
    }

    #[test]
    fn lrr_rotates() {
        let mut s = Scheduler::new(SchedulerKind::Lrr);
        let e = cands(&[(0, 0), (2, 0), (4, 0)]);
        assert_eq!(pick(&mut s, &e), Some(0));
        assert_eq!(pick(&mut s, &e), Some(2));
        assert_eq!(pick(&mut s, &e), Some(4));
        assert_eq!(pick(&mut s, &e), Some(0));
    }

    #[test]
    fn lrr_skips_stalled() {
        let mut s = Scheduler::new(SchedulerKind::Lrr);
        let e = cands(&[(0, 0), (2, 0), (4, 0)]);
        assert_eq!(pick(&mut s, &e), Some(0));
        let e2 = cands(&[(0, 0), (4, 0)]);
        assert_eq!(pick(&mut s, &e2), Some(4));
    }

    #[test]
    fn two_level_limits_active_set() {
        let mut s = Scheduler::new(SchedulerKind::TwoLevel);
        let e: Vec<Candidate> = (0..20).map(|i| Candidate { slot: i, age: 0 }).collect();
        // Issues only rotate among the first TWO_LEVEL_ACTIVE slots while
        // they stay eligible.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..32 {
            seen.insert(pick(&mut s, &e).unwrap());
        }
        assert_eq!(seen.len(), TWO_LEVEL_ACTIVE as usize);
        assert!(seen.iter().all(|&s| s < TWO_LEVEL_ACTIVE as usize));
    }

    #[test]
    fn two_level_swaps_out_stalled_warps() {
        let mut s = Scheduler::new(SchedulerKind::TwoLevel);
        let e: Vec<Candidate> = (0..10).map(|i| Candidate { slot: i, age: 0 }).collect();
        let _ = pick(&mut s, &e);
        // Slots 0..8 stall; 8 and 9 remain.
        let e2 = cands(&[(8, 0), (9, 0)]);
        let got = pick(&mut s, &e2).unwrap();
        assert!(got == 8 || got == 9);
    }

    #[test]
    fn empty_eligible_returns_none() {
        for kind in SchedulerKind::all() {
            let mut s = Scheduler::new(kind);
            assert_eq!(s.pick(0, &[]), None, "{kind}");
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
            assert_eq!(pick(&mut once, &e), pick(&mut many, &e), "{kind} warm-up");
            let _ = once.pick(0, &[]);
            for _ in 0..100 {
                let _ = many.pick(0, &[]);
            }
            // Indistinguishable through any subsequent pick sequence.
            for list in [&[] as &[Candidate], e.as_slice(), &e[..1], e.as_slice()] {
                assert_eq!(pick(&mut once, list), pick(&mut many, list), "{kind}");
            }
        }
    }

    #[test]
    fn round_robin_wraps_at_the_mask_width() {
        let set = 1 | 1 << 63;
        assert_eq!(round_robin(set, usize::MAX), 0);
        assert_eq!(round_robin(set, 0), 63);
        assert_eq!(round_robin(set, 62), 63);
        assert_eq!(round_robin(set, 63), 0);
    }

    /// The mask-based pick against the list-based reference: thousands of
    /// random steps per policy, each drawing the slot population and ages
    /// (with ties), the eligible subset (sometimes empty), and often fresh
    /// greedy, round-robin and active-set state, then asserting the same
    /// pick and the same state afterwards.
    #[test]
    fn mask_pick_matches_the_list_reference() {
        let mut rng = Rng64::new(0x5ced_u64);
        for kind in SchedulerKind::all() {
            let mut s = Scheduler::new(kind);
            let mut r = Reference::new(kind);
            for step in 0..5000 {
                let width = [16, 24, 32, 48, 64][rng.below(5) as usize];
                // The scheduler's slots, each with an age; ties are common.
                let mut live = Vec::new();
                for slot in 0..width {
                    if rng.chance(0.7) {
                        let age = rng.below(6);
                        live.push(Candidate { slot, age });
                    }
                }
                let p = [0.0, 0.1, 0.5, 0.9][rng.below(4) as usize];
                let eligible: Vec<Candidate> =
                    live.iter().copied().filter(|_| rng.chance(p)).collect();
                if rng.chance(0.3) {
                    let last = rng.chance(0.8).then(|| rng.below(width as u64) as usize);
                    let rr_after = if rng.chance(0.1) {
                        usize::MAX
                    } else {
                        rng.below(width as u64) as usize
                    };
                    let active: Vec<usize> =
                        (0..width).filter(|_| rng.chance(0.15)).take(9).collect();
                    (s.last, s.rr_after, s.active) = (last, rr_after, mask(active.iter().copied()));
                    (r.last, r.rr_after, r.active) = (last, rr_after, active);
                }
                let want = r.pick(&eligible);
                let got = s.pick(mask(eligible.iter().map(|c| c.slot)), &by_age(&live));
                assert_eq!(got, want, "{kind} step {step}: eligible {eligible:?}");
                assert_eq!(
                    (s.last, s.rr_after, s.active),
                    (r.last, r.rr_after, mask(r.active.iter().copied())),
                    "{kind} step {step}: state after picking from {eligible:?}"
                );
            }
        }
    }

    #[test]
    fn kind_names_match_paper() {
        assert_eq!(SchedulerKind::Gto.name(), "GTO");
        assert_eq!(SchedulerKind::TwoLevel.name(), "2-Level");
    }
}
