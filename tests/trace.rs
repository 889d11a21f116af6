//! Integration tests for the flame-trace subsystem: tracing must be
//! *observational* (statistics bit-identical with tracing on and off,
//! across the whole scheme taxonomy and both clock modes), its streaming
//! aggregates must be *exact* (per-scheduler stall attribution sums to
//! the simulator's own `StallStats`, even when the bounded ring drops
//! events), and its exports must hold the paper's visible claims (a
//! descheduled warp's RBQ wait overlaps other warps' issue slots; a
//! strike → detect → rollback arc appears on the timeline in causal
//! order).

use flame::core::experiment::{
    run_scheme, run_scheme_traced, ExperimentConfig, ProtocolConfig, RunResult,
};
use flame::core::runner::{trace_one_seed, CampaignSpec, RetryPolicy, SelfFault};
use flame::core::scheme::Scheme;
use flame::sim::stats::SimStats;
use flame::trace::{chrome_trace_json, region_csv, stall_table, validate_json, Event, SimTrace};
use flame::workloads::by_abbr;

const WORKLOADS: [&str; 3] = ["Triad", "GUPS", "NN"];

/// `cfg` with the event-driven clock switched on or off.
fn with_fast_forward(cfg: &ExperimentConfig, on: bool) -> ExperimentConfig {
    let mut cfg = cfg.clone();
    cfg.gpu.fast_forward = on;
    cfg
}

/// Asserts the trace's streaming stall matrix sums exactly to the run's
/// own stall counters, cause by cause.
fn assert_stalls_match(label: &str, trace: &SimTrace, stats: &SimStats) {
    let s = stats.stalls;
    let expect = [
        s.no_warp,
        s.scoreboard,
        s.mshr_full,
        s.barrier,
        s.rbq_wait,
        s.sched_blocked,
    ];
    assert_eq!(
        trace.stall_counts(),
        expect,
        "{label}: stall attribution diverged from SimStats"
    );
    assert_eq!(trace.stall_total(), s.total(), "{label}: stall total");
}

/// Tentpole invariant 1: enabling the tracer changes *nothing* the
/// simulator reports, for every scheme in the taxonomy — and the trace's
/// stall attribution explains the stats exactly.
#[test]
fn tracing_is_invisible_across_the_taxonomy() {
    let cfg = ExperimentConfig::default();
    for w in WORKLOADS {
        let spec = by_abbr(w).expect("known workload");
        for scheme in Scheme::all() {
            let plain: RunResult =
                run_scheme(&spec, scheme, &cfg).unwrap_or_else(|e| panic!("{w}/{scheme:?}: {e}"));
            let (traced, trace) = run_scheme_traced(&spec, scheme, &cfg, 1 << 14)
                .unwrap_or_else(|e| panic!("{w}/{scheme:?} traced: {e}"));
            let diff = plain.stats.diff(&traced.stats);
            assert!(diff.is_empty(), "{w}/{scheme:?}: tracing changed {diff:?}");
            assert_eq!(plain.output_ok, traced.output_ok);
            assert_stalls_match(&format!("{w}/{scheme:?}"), &trace, &traced.stats);
        }
    }
}

/// Tentpole invariant 2: the event-driven clock neither drops nor
/// double-counts trace events. Fast-forward compresses runs of idle
/// cycles into bulk `IssueStall` records, so the *stall aggregates* must
/// stay exact in both modes while every non-stall event streams through
/// identically, event for event.
#[test]
fn fast_forward_never_drops_or_duplicates_trace_events() {
    let cfg = ExperimentConfig {
        wcdl: 100,
        ..ExperimentConfig::default()
    };
    // A ring large enough that nothing is evicted: stream equality is
    // only meaningful when both sides retained everything.
    let capacity = 1 << 20;
    for w in ["Triad", "GUPS"] {
        let spec = by_abbr(w).expect("known workload");
        for scheme in [
            Scheme::SensorRenaming,
            Scheme::NaiveSensorRenaming,
            Scheme::DuplicationRenaming,
        ] {
            let (fast_run, fast) =
                run_scheme_traced(&spec, scheme, &with_fast_forward(&cfg, true), capacity)
                    .expect("fast run");
            let (slow_run, slow) =
                run_scheme_traced(&spec, scheme, &with_fast_forward(&cfg, false), capacity)
                    .expect("slow run");
            let diff = fast_run.stats.diff(&slow_run.stats);
            assert!(diff.is_empty(), "{w}/{scheme:?}: clock changed {diff:?}");
            assert_eq!(fast.dropped, 0, "{w}/{scheme:?}: fast ring overflowed");
            assert_eq!(slow.dropped, 0, "{w}/{scheme:?}: slow ring overflowed");
            let fast_events: Vec<_> = fast.filtered(|e| !e.is_stall()).collect();
            let slow_events: Vec<_> = slow.filtered(|e| !e.is_stall()).collect();
            assert_eq!(
                fast_events, slow_events,
                "{w}/{scheme:?}: non-stall event streams diverged between clock modes"
            );
            assert_stalls_match(&format!("{w}/{scheme:?} fast"), &fast, &fast_run.stats);
            assert_stalls_match(&format!("{w}/{scheme:?} slow"), &slow, &slow_run.stats);
        }
    }
}

/// The Chrome export parses under the crate's own strict JSON grammar,
/// and the region ledger is complete: one record per boundary the
/// simulator counted, every one closed on a fault-free run.
#[test]
fn chrome_export_is_valid_and_regions_match_boundaries() {
    let spec = by_abbr("GUPS").expect("known workload");
    let cfg = ExperimentConfig {
        wcdl: 1000,
        ..ExperimentConfig::default()
    };
    let (run, trace) =
        run_scheme_traced(&spec, Scheme::SensorRenaming, &cfg, 1 << 16).expect("traced run");
    let json = chrome_trace_json(&trace);
    validate_json(&json).unwrap_or_else(|e| panic!("chrome JSON invalid: {e}"));
    assert_eq!(
        trace.regions.len() as u64,
        run.stats.resilience.boundaries,
        "one region record per boundary"
    );
    assert!(
        trace
            .regions
            .iter()
            .all(|(_, r)| r.is_closed() && !r.committed),
        "fault-free conveyor regions all close by verification"
    );
    // Under the conveyor every verification takes exactly WCDL cycles.
    assert!(trace
        .regions
        .iter()
        .all(|(_, r)| r.latency() == Some(u64::from(cfg.wcdl))));
    let csv = region_csv(&trace);
    assert_eq!(
        csv.lines().count(),
        trace.regions.len() + 1,
        "CSV has a header plus one row per region"
    );
    assert!(!stall_table(&trace).is_empty());
}

/// The paper's central scheduling claim, read off the timeline: while one
/// warp sits descheduled in the RBQ, other warps on the same SM keep
/// issuing — the WCDL is hidden behind warp-level parallelism.
#[test]
fn descheduled_warps_overlap_other_warps_issue() {
    let spec = by_abbr("GUPS").expect("known workload");
    let cfg = ExperimentConfig {
        wcdl: 1000,
        ..ExperimentConfig::default()
    };
    let (run, trace) =
        run_scheme_traced(&spec, Scheme::SensorRenaming, &cfg, 1 << 16).expect("traced run");
    assert!(run.stats.resilience.deschedules > 0, "nothing descheduled");
    assert!(
        trace.deschedule_overlaps_issue(),
        "no warp issued while another was descheduled in the RBQ"
    );
}

/// Fault arcs through the campaign-runner helper: replaying a campaign
/// seed under the tracer shows every injected strike, every detection,
/// and a rollback on the struck SM at or after each detection.
#[test]
fn campaign_seed_replay_shows_fault_arcs() {
    let spec = by_abbr("Triad").expect("known workload");
    let cfg = ExperimentConfig::default();
    let clean = run_scheme(&spec, Scheme::SensorRenaming, &cfg).expect("clean run");
    let campaign = CampaignSpec {
        base_seed: 0x5EED,
        runs: 1,
        strikes_per_run: 3,
        horizon: (clean.stats.cycles * 3 / 4).max(10),
        strike_window: (0.0, 1.0),
        fork_points: 8,
        coverage: 1.0,
        control_fraction: 0.0,
        recovery_fraction: 0.0,
        scheme: Scheme::SensorRenaming,
        cfg: cfg.clone(),
        proto: ProtocolConfig::default(),
        watchdog: 0,
        retry: RetryPolicy::default(),
        self_fault: SelfFault::default(),
    };
    let (r, trace) =
        trace_one_seed(&spec, &campaign, campaign.base_seed, 1 << 16).expect("traced seed replay");
    assert!(r.injected > 0, "no strike landed inside the horizon");
    let strikes = trace
        .filtered(|e| matches!(e, Event::FaultStrike { .. }))
        .count();
    let detects: Vec<_> = trace
        .filtered(|e| matches!(e, Event::FaultDetect { .. }))
        .collect();
    assert_eq!(strikes, r.injected);
    assert_eq!(detects.len(), r.detections);
    for d in &detects {
        let Event::FaultDetect { sm } = d.ev else {
            unreachable!()
        };
        assert!(
            trace
                .filtered(|e| matches!(e, Event::Rollback { .. }))
                .any(|e| e.sm == sm && e.cycle >= d.cycle),
            "no rollback on SM {sm} at/after detect cycle {}",
            d.cycle
        );
    }
}

/// A deliberately tiny ring must drop events — and the streaming
/// aggregates must not care: stall sums, the region ledger and the
/// occupancy histograms are updated before ring insertion, so eviction
/// cannot skew them.
#[test]
fn tiny_ring_drops_events_but_aggregates_stay_exact() {
    let spec = by_abbr("GUPS").expect("known workload");
    let cfg = ExperimentConfig {
        wcdl: 1000,
        ..ExperimentConfig::default()
    };
    let (run, trace) =
        run_scheme_traced(&spec, Scheme::SensorRenaming, &cfg, 64).expect("traced run");
    assert!(trace.dropped > 0, "a 64-event ring should have overflowed");
    assert_stalls_match("tiny ring", &trace, &run.stats);
    assert_eq!(
        trace.regions.len() as u64,
        run.stats.resilience.boundaries,
        "region ledger survives ring eviction"
    );
    // The truncated event stream still exports valid JSON.
    validate_json(&chrome_trace_json(&trace)).unwrap_or_else(|e| panic!("JSON invalid: {e}"));
}
