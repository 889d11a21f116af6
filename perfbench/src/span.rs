//! In-memory spans for the traced run.
//!
//! Each span records a name, its start and end, the span that caused it
//! and one key (a cell, campaign or seed id). Spans are kept in
//! memory and written out once, when the run ends. When tracing is off
//! [`Tracer::span`] only calls the closure, so the untraced run pays one
//! branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Id of a span; `0` is "no parent".
pub type SpanId = u64;

#[derive(Debug, Clone)]
struct Span {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    key: u64,
    thread: u64,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, f64>>,
}

thread_local! {
    static THREAD: u64 = {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Runs `f` inside a span named `name`, child of `parent`. `f`
    /// receives the new span's id so its own calls can nest under it.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        key: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let r = f(id);
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            name,
            key,
            thread: THREAD.with(|t| *t),
            start_ns: ns(start - self.t0),
            end_ns: ns(end - self.t0),
        };
        self.spans.lock().expect("span list poisoned").push(span);
        r
    }

    /// Adds `v` to the counter `name` (recorded only when enabled).
    pub fn count(&self, name: &'static str, v: f64) {
        if self.enabled {
            *self
                .counts
                .lock()
                .expect("counter map poisoned")
                .entry(name)
                .or_insert(0.0) += v;
        }
    }

    /// Value of counter `name` (0 if never counted).
    pub fn counter(&self, name: &str) -> f64 {
        self.counts
            .lock()
            .expect("counter map poisoned")
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    /// Self times and durations, aggregated per span name.
    pub fn profile(&self) -> Profile {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
        for s in spans.iter() {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for s in spans.iter() {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |iv| covered_ns(iv, s.start_ns, s.end_ns));
            let dur = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.self_s += (dur - covered) as f64 * 1e-9;
            e.durations.push(dur as f64 * 1e-9);
        }
        Profile { by_name }
    }

    /// The recorded spans as one JSON document (Chrome trace format,
    /// one complete event per span, microsecond timestamps).
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"key\":{}}}}}",
                if i > 0 { ",\n" } else { "\n" },
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.key
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Per-name aggregate of a run's spans.
#[derive(Debug, Default, Clone)]
pub struct NameStats {
    /// Sum of self times: each span's duration minus the part of it
    /// that its child spans cover.
    pub self_s: f64,
    /// Every span's full duration.
    pub durations: Vec<f64>,
}

/// Span aggregates of a whole run.
#[derive(Debug, Default)]
pub struct Profile {
    /// Aggregates keyed by span name.
    pub by_name: BTreeMap<&'static str, NameStats>,
}

impl Profile {
    /// Summed self time of the spans named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |s| s.self_s)
    }

    /// Summed full duration of the spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |s| s.durations.iter().sum())
    }

    /// Durations of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.by_name
            .get(name)
            .map_or_else(Vec::new, |s| s.durations.clone())
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Length of the union of `intervals` clipped to `[lo, hi)`. Children
/// on parallel threads overlap; the union counts each instant once.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_counts_overlap_once_and_clips() {
        let mut iv = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(covered_ns(&mut iv, 0, 25), 3 + 7 + 5);
        assert_eq!(covered_ns(&mut [], 0, 10), 0);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("root", 0, 0, |root| {
            t.span("child", root, 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let p = t.profile();
        assert!(p.self_s("child") >= 0.019);
        assert!(p.self_s("root") < p.self_s("child"));
        assert_eq!(p.durations("root").len() + p.durations("child").len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", 0, 0, |id| id + 7), 7);
        t.count("c", 1.0);
        assert!(t.profile().by_name.is_empty());
        assert_eq!(t.counter("c"), 0.0);
    }
}
