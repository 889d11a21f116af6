//! Exporters: Chrome-tracing/Perfetto JSON, per-region CSV and a
//! human-readable stall table. Names in the Chrome trace are escaped
//! through [`crate::json`], which also parses the output back in the
//! tests and the `trace` binary.

use crate::event::{Event, StallCause};
use crate::json::json_escape;
use crate::trace::{SimTrace, HARNESS_SM};
use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

/// Thread-id base for scheduler tracks in the Chrome trace
/// (`tid = SCHED_TID_BASE + scheduler`).
pub const SCHED_TID_BASE: u64 = 1000;

/// Thread id of the per-SM instant-event track (CTA launches/drains,
/// fault strikes/detections, rollbacks).
pub const EVENTS_TID: u64 = 1999;

struct EventWriter {
    out: String,
    first: bool,
}

impl EventWriter {
    fn new() -> Self {
        EventWriter {
            out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            first: true,
        }
    }

    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.out.push(',');
        }
        self.out.push('\n');
    }

    /// A complete ("X") slice. `args` must already be a JSON object body
    /// (without braces) or empty.
    #[allow(clippy::too_many_arguments)]
    fn slice(&mut self, name: &str, cat: &str, pid: u64, tid: u64, ts: u64, dur: u64, args: &str) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"ph\":\"X\",\"name\":{},\"cat\":\"{cat}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{}",
            json_escape(name),
            dur.max(1)
        );
        if !args.is_empty() {
            let _ = write!(self.out, ",\"args\":{{{args}}}");
        }
        self.out.push('}');
    }

    /// A thread-scoped instant ("i") event.
    fn instant(&mut self, name: &str, cat: &str, pid: u64, tid: u64, ts: u64, args: &str) {
        self.sep();
        let _ = write!(
            self.out,
            "{{\"ph\":\"i\",\"s\":\"t\",\"name\":{},\"cat\":\"{cat}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts}",
            json_escape(name)
        );
        if !args.is_empty() {
            let _ = write!(self.out, ",\"args\":{{{args}}}");
        }
        self.out.push('}');
    }

    /// A name-metadata ("M") event.
    fn meta(&mut self, what: &str, pid: u64, tid: Option<u64>, name: &str) {
        self.sep();
        let _ = write!(self.out, "{{\"ph\":\"M\",\"name\":\"{what}\",\"pid\":{pid}");
        if let Some(tid) = tid {
            let _ = write!(self.out, ",\"tid\":{tid}");
        }
        let _ = write!(self.out, ",\"args\":{{\"name\":{}}}}}", json_escape(name));
    }

    fn finish(mut self, dropped: u64, regions_dropped: u64) -> String {
        let _ = write!(
            self.out,
            "\n],\"otherData\":{{\"droppedEvents\":{dropped},\"droppedRegions\":{regions_dropped},\"timeUnit\":\"1 ts = 1 GPU cycle\"}}}}"
        );
        self.out
    }
}

/// Render a merged trace as Chrome-tracing ("trace event format") JSON,
/// loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
///
/// Track layout: one *process* per SM; within it one *thread* per warp
/// slot (issue slices, region slices, verify-wait slices, memory-request
/// slices), one thread per scheduler (stall slices named by cause,
/// scheduler-block slices) and one `events` thread for instants (CTA
/// launch/drain, fault strike/detect, rollback, CTA relaunch).
/// Timestamps are GPU cycles (rendered as if 1 cycle = 1 µs).
pub fn chrome_trace_json(t: &SimTrace) -> String {
    let mut w = EventWriter::new();
    let last_cycle = t.events.last().map(|r| r.cycle).unwrap_or(0);

    // Name every (pid, tid) track we are about to reference.
    let mut pids: BTreeSet<u64> = BTreeSet::new();
    let mut tids: BTreeSet<(u64, u64)> = BTreeSet::new();
    let track = |pids: &mut BTreeSet<u64>, tids: &mut BTreeSet<(u64, u64)>, sm: u32, tid: u64| {
        pids.insert(u64::from(sm));
        tids.insert((u64::from(sm), tid));
    };
    for r in &t.events {
        match r.ev {
            Event::WarpIssue { slot, .. }
            | Event::WarpRetire { slot }
            | Event::RbqEnqueue { slot, .. }
            | Event::RbqDequeue { slot, .. }
            | Event::MemIssue { slot, .. } => track(&mut pids, &mut tids, r.sm, u64::from(slot)),
            Event::IssueStall { sched, .. } | Event::SchedBlock { sched, .. } => {
                track(
                    &mut pids,
                    &mut tids,
                    r.sm,
                    SCHED_TID_BASE + u64::from(sched),
                );
            }
            Event::CtaLaunch { .. }
            | Event::CtaDrain { .. }
            | Event::Rollback { .. }
            | Event::CtaRelaunch { .. }
            | Event::SnapshotSave { .. }
            | Event::SnapshotRestore { .. } => track(&mut pids, &mut tids, r.sm, EVENTS_TID),
            Event::FaultStrike { sm, .. } | Event::FaultDetect { sm } => {
                track(&mut pids, &mut tids, sm, EVENTS_TID);
            }
            Event::RegionEnter { .. } | Event::RegionCommit { .. } | Event::RegionVerify { .. } => {
            }
        }
    }
    for (sm, rec) in &t.regions {
        track(&mut pids, &mut tids, *sm, u64::from(rec.slot));
    }
    for pid in &pids {
        let name = if *pid == u64::from(HARNESS_SM) {
            "harness".to_string()
        } else {
            format!("SM {pid}")
        };
        w.meta("process_name", *pid, None, &name);
    }
    for (pid, tid) in &tids {
        let name = if *tid == EVENTS_TID {
            "events".to_string()
        } else if *tid >= SCHED_TID_BASE {
            format!("sched {}", tid - SCHED_TID_BASE)
        } else {
            format!("warp {tid}")
        };
        w.meta("thread_name", *pid, Some(*tid), &name);
    }

    // Region slices come from the (eviction-proof) region records.
    for (sm, rec) in &t.regions {
        let close = if rec.is_closed() {
            rec.close
        } else {
            last_cycle
        };
        let args = format!(
            "\"pc\":{},\"committed\":{},\"closed\":{}",
            rec.pc,
            rec.committed,
            rec.is_closed()
        );
        w.slice(
            "region",
            "region",
            u64::from(*sm),
            u64::from(rec.slot),
            rec.enter,
            close.saturating_sub(rec.enter),
            &args,
        );
    }

    // Everything else comes from the retained event stream.
    let mut open_wait: HashMap<(u32, u32), u64> = HashMap::new();
    for r in &t.events {
        let pid = u64::from(r.sm);
        match r.ev {
            Event::WarpIssue { slot, pc } => w.slice(
                "issue",
                "issue",
                pid,
                u64::from(slot),
                r.cycle,
                1,
                &format!("\"pc\":{pc}"),
            ),
            Event::WarpRetire { slot } => {
                w.instant("retire", "issue", pid, u64::from(slot), r.cycle, "");
            }
            Event::IssueStall {
                sched,
                cause,
                cycles,
            } => w.slice(
                cause.name(),
                "stall",
                pid,
                SCHED_TID_BASE + u64::from(sched),
                r.cycle,
                cycles,
                "",
            ),
            Event::RbqEnqueue { slot, .. } => {
                open_wait.insert((r.sm, slot), r.cycle);
            }
            Event::RbqDequeue { slot, depth } => {
                if let Some(start) = open_wait.remove(&(r.sm, slot)) {
                    w.slice(
                        "verify-wait",
                        "rbq",
                        pid,
                        u64::from(slot),
                        start,
                        r.cycle.saturating_sub(start),
                        &format!("\"depth_after\":{depth}"),
                    );
                }
            }
            Event::SchedBlock { sched, until } => w.slice(
                "sched-block",
                "rbq",
                pid,
                SCHED_TID_BASE + u64::from(sched),
                r.cycle,
                until.saturating_sub(r.cycle),
                "",
            ),
            Event::MemIssue {
                slot,
                segments,
                finish,
            } => w.slice(
                "mem",
                "mem",
                pid,
                u64::from(slot),
                r.cycle,
                finish.saturating_sub(r.cycle),
                &format!("\"segments\":{segments}"),
            ),
            Event::CtaLaunch { cta, warps } => w.instant(
                "cta-launch",
                "cta",
                pid,
                EVENTS_TID,
                r.cycle,
                &format!("\"cta\":{cta},\"warps\":{warps}"),
            ),
            Event::CtaDrain { cta_slot } => w.instant(
                "cta-drain",
                "cta",
                pid,
                EVENTS_TID,
                r.cycle,
                &format!("\"cta_slot\":{cta_slot}"),
            ),
            Event::FaultStrike {
                sm,
                target,
                detected,
            } => w.instant(
                &format!("strike:{target}"),
                "fault",
                u64::from(sm),
                EVENTS_TID,
                r.cycle,
                &format!("\"detected\":{detected}"),
            ),
            Event::FaultDetect { sm } => {
                w.instant("detect", "fault", u64::from(sm), EVENTS_TID, r.cycle, "");
            }
            Event::Rollback { warps } => w.instant(
                "rollback",
                "fault",
                pid,
                EVENTS_TID,
                r.cycle,
                &format!("\"warps\":{warps}"),
            ),
            Event::CtaRelaunch { warps } => w.instant(
                "cta-relaunch",
                "fault",
                pid,
                EVENTS_TID,
                r.cycle,
                &format!("\"warps\":{warps}"),
            ),
            Event::SnapshotSave { dirty_chunks } => w.instant(
                "snapshot-save",
                "snapshot",
                pid,
                EVENTS_TID,
                r.cycle,
                &format!("\"dirty_chunks\":{dirty_chunks}"),
            ),
            Event::SnapshotRestore { cycle } => w.instant(
                "snapshot-restore",
                "snapshot",
                pid,
                EVENTS_TID,
                r.cycle,
                &format!("\"checkpoint_cycle\":{cycle}"),
            ),
            Event::RegionEnter { .. } | Event::RegionCommit { .. } | Event::RegionVerify { .. } => {
                // Rendered as region slices above.
            }
        }
    }
    // Close verify-wait intervals still open when the trace ended.
    let mut leftovers: Vec<((u32, u32), u64)> = open_wait.into_iter().collect();
    leftovers.sort_unstable();
    for ((sm, slot), start) in leftovers {
        w.slice(
            "verify-wait",
            "rbq",
            u64::from(sm),
            u64::from(slot),
            start,
            last_cycle.saturating_sub(start),
            "\"closed\":false",
        );
    }
    w.finish(t.dropped, t.regions_dropped)
}

/// Render every region record as one CSV row:
/// `sm,slot,pc,enter,close,latency,committed` (empty `close`/`latency`
/// for regions still open when the run ended).
pub fn region_csv(t: &SimTrace) -> String {
    let mut out = String::from("sm,slot,pc,enter,close,latency,committed\n");
    for (sm, r) in &t.regions {
        match r.latency() {
            Some(lat) => {
                let _ = writeln!(
                    out,
                    "{sm},{},{},{},{},{lat},{}",
                    r.slot, r.pc, r.enter, r.close, r.committed
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "{sm},{},{},{},,,{}",
                    r.slot, r.pc, r.enter, r.committed
                );
            }
        }
    }
    out
}

fn hist_line(out: &mut String, label: &str, h: &crate::Histogram) {
    let _ = writeln!(
        out,
        "  {label:<18} count {:>10}  mean {:>8.2}  p50 {:>6}  p99 {:>6}  max {:>6}",
        h.count(),
        h.mean(),
        h.percentile(0.5),
        h.percentile(0.99),
        h.max()
    );
}

/// Render the per-(SM, scheduler) stall-attribution table plus histogram
/// summaries as human-readable text. The `ALL` row sums every scheduler;
/// its total equals the simulator's `StallStats::total()` (the trace
/// tests and the `trace` binary assert this).
pub fn stall_table(t: &SimTrace) -> String {
    let mut out = String::from("stall attribution (cycles)\n");
    let _ = write!(out, "{:>4} {:>5}", "sm", "sched");
    for c in StallCause::ALL {
        let _ = write!(out, " {:>13}", c.name());
    }
    let _ = writeln!(out, " {:>13}", "total");
    for (sm, m) in &t.sm_stalls {
        for sched in 0..m.schedulers() {
            let row = m.row(sched);
            let _ = write!(out, "{sm:>4} {sched:>5}");
            for c in row {
                let _ = write!(out, " {c:>13}");
            }
            let _ = writeln!(out, " {:>13}", row.iter().sum::<u64>());
        }
    }
    let totals = t.stall_counts();
    let _ = write!(out, "{:>4} {:>5}", "ALL", "-");
    for c in totals {
        let _ = write!(out, " {c:>13}");
    }
    let _ = writeln!(out, " {:>13}", t.stall_total());
    out.push('\n');
    hist_line(&mut out, "rbq occupancy", &t.rbq_occupancy);
    hist_line(&mut out, "verify latency", &t.verify_latency);
    if t.dropped > 0 || t.regions_dropped > 0 {
        let _ = writeln!(
            out,
            "  (ring evicted {} events, {} region records dropped; aggregates above remain exact)",
            t.dropped, t.regions_dropped
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::tests::Rule;
    use crate::record::TraceBuffer;
    use crate::trace::SimTrace;

    fn sample_trace() -> SimTrace {
        let mut a = TraceBuffer::new(1 << 10);
        a.push(0, Event::CtaLaunch { cta: 0, warps: 2 });
        a.push(1, Event::WarpIssue { slot: 0, pc: 0 });
        a.push(
            1,
            Event::IssueStall {
                sched: 1,
                cause: StallCause::NoWarp,
                cycles: 1,
            },
        );
        a.push(
            2,
            Event::MemIssue {
                slot: 0,
                segments: 4,
                finish: 202,
            },
        );
        a.push(3, Event::RegionEnter { slot: 0, pc: 12 });
        a.push(3, Event::RbqEnqueue { slot: 0, depth: 1 });
        a.push(4, Event::WarpIssue { slot: 1, pc: 0 });
        a.push(40, Event::RbqDequeue { slot: 0, depth: 0 });
        a.push(40, Event::RegionVerify { slot: 0 });
        a.push(
            41,
            Event::SchedBlock {
                sched: 0,
                until: 60,
            },
        );
        a.push(45, Event::RegionEnter { slot: 1, pc: 12 });
        a.push(45, Event::RbqEnqueue { slot: 1, depth: 1 });
        a.push(50, Event::WarpRetire { slot: 0 });
        a.push(50, Event::CtaDrain { cta_slot: 0 });
        a.push(51, Event::Rollback { warps: 2 });
        a.push(52, Event::CtaRelaunch { warps: 2 });
        let mut h = TraceBuffer::new(64);
        h.push(
            20,
            Event::FaultStrike {
                sm: 0,
                target: "pipeline",
                detected: true,
            },
        );
        h.push(25, Event::FaultDetect { sm: 0 });
        SimTrace::merge(vec![(0, a)], Some(h))
    }

    #[test]
    fn chrome_json_is_valid_and_covers_tracks() {
        let json = chrome_trace_json(&sample_trace());
        crate::json::JsonValue::parse(&json).expect("exported chrome trace must be valid JSON");
        for needle in [
            "\"process_name\"",
            "\"thread_name\"",
            "\"issue\"",
            "no_warp",
            "verify-wait",
            "strike:pipeline",
            "\"region\"",
            "sched-block",
            "cta-relaunch",
            "\"closed\":false", // slot-1 wait + region left open at trace end
        ] {
            assert!(json.contains(needle), "missing {needle} in chrome json");
        }
    }

    /// The Chrome-trace checks parse through the codec's `Validator` rows.
    #[test]
    fn validator_accepts_and_rejects() {
        crate::json::tests::check(Rule::Validator);
    }

    #[test]
    fn validator_depth_cap() {
        crate::json::tests::check(Rule::ValidatorDepth);
    }

    #[test]
    fn csv_has_one_row_per_region() {
        let t = sample_trace();
        let csv = region_csv(&t);
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines[0], "sm,slot,pc,enter,close,latency,committed");
        assert_eq!(lines.len(), 1 + t.regions.len());
        assert!(lines[1].starts_with("0,0,12,3,40,37,false"));
        // Slot 1's region never closed: empty close/latency fields.
        assert!(lines[2].starts_with("0,1,12,45,,,"));
    }

    #[test]
    fn stall_table_lists_causes_and_totals() {
        let t = sample_trace();
        let table = stall_table(&t);
        for c in StallCause::ALL {
            assert!(table.contains(c.name()));
        }
        assert!(table.contains("ALL"));
        assert!(table.contains("rbq occupancy"));
        assert!(table.contains("verify latency"));
    }
}
