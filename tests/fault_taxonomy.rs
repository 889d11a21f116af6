//! Integration tests for the outcome-taxonomy fault engine: the protocol
//! driver must be a strict refinement of the paper's original fault
//! protocol (kept here as `legacy_reference`) at full coverage, coverage
//! gaps must surface as SDCs at the configured
//! rate, overlapping detection windows must stay sound under every
//! scheme, the escalation ladder must bottom out in DUE, livelocks must
//! classify as hangs, and a killed campaign must resume to a
//! byte-identical report.

use flame::core::campaign::{classify, classify_against_golden, Campaign, Outcome};
use flame::core::experiment::{
    prepare_scheme, run_scheme, run_with_protocol, ExperimentConfig, FaultProtocolResult,
    ProtocolConfig, RunOptions, WorkloadSpec,
};
use flame::core::runner::{
    run_campaign_runner_with_jobs, strikes_for_seed, wilson_interval, CampaignSpec,
    CampaignSummary, RetryPolicy, RunnerError, SelfFault,
};
use flame::core::runtime::VerificationMode;
use flame::core::scheme::Scheme;
use flame::oracle::{execute, OracleConfig};
use flame::sensors::fault::{FaultRates, Strike, StrikeGenerator, StrikeTarget};
use flame::sim::builder::KernelBuilder;
use flame::sim::isa::{MemSpace, Special};
use flame::sim::sm::LaunchDims;
use flame::sim::stats::SimStats;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Out-of-place arithmetic kernel: input at `[0, 8·n)`, output at
/// `4096·16 + gid·8`. Safe to relaunch (reads never alias writes), so
/// escalation tests cannot manufacture false SDCs.
fn workload(ctas: u32, threads: u32) -> WorkloadSpec {
    const OUT: i64 = 4096 * 16;
    let mut b = KernelBuilder::new("taxo");
    let tid = b.special(Special::TidX);
    let cta = b.special(Special::CtaIdX);
    let ntid = b.special(Special::NTidX);
    let gid = b.imad(cta, ntid, tid);
    let a = b.imul(gid, 8);
    let v = b.ld_arr(MemSpace::Global, 0, a, 0);
    let mut acc = v;
    for i in 0..12 {
        acc = b.iadd(acc, i);
    }
    b.st_arr(MemSpace::Global, 0, a, acc, OUT);
    b.exit();
    let n = u64::from(ctas) * u64::from(threads);
    WorkloadSpec {
        name: "taxo",
        abbr: "TAXO",
        suite: "test",
        kernel: b.finish(),
        dims: LaunchDims::linear(ctas, threads),
        init: Arc::new(move |m| {
            for i in 0..n {
                m.write(i * 8, i);
            }
        }),
        check: Arc::new(move |m| (0..n).all(|i| m.read(OUT as u64 + i * 8) == i + 66)),
    }
}

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        max_cycles: 20_000_000,
        ..ExperimentConfig::default()
    }
}

fn pipeline_strike(cycle: u64, sm: usize, latency: u32) -> Strike {
    Strike {
        cycle,
        sm,
        target: StrikeTarget::Pipeline,
        detection_latency: latency,
        bit: 5,
        lane: 3,
        detected: true,
    }
}

/// A scratch, untraced protocol run.
fn run_protocol(
    w: &WorkloadSpec,
    cfg: &ExperimentConfig,
    strikes: &[Strike],
    proto: &ProtocolConfig,
) -> FaultProtocolResult {
    run_with_protocol(
        w,
        Scheme::SensorRenaming,
        cfg,
        strikes,
        proto,
        &RunOptions::default(),
    )
    .unwrap()
}

/// What the paper's original fault protocol reports about a run.
struct LegacyReport {
    stats: SimStats,
    output_ok: bool,
    corrupted: usize,
    detections: usize,
    recoveries: usize,
}

/// The paper's original, all-assumptions-hold fault protocol, built on
/// the public `Gpu` calls: the sensor mesh hears every strike, each
/// detection rolls its SM back `detection_latency` cycles after the
/// strike, a pipeline strike corrupts an in-flight write, nothing
/// escalates and nothing watches for hangs. `run_with_protocol` must
/// refine it cycle for cycle.
fn legacy_reference(w: &WorkloadSpec, cfg: &ExperimentConfig, strikes: &[Strike]) -> LegacyReport {
    let (mut gpu, _) = prepare_scheme(w, Scheme::SensorRenaming, cfg).unwrap();
    let (mut corrupted, mut detections) = (0, 0);
    let mut pending: Vec<(u64, usize)> = Vec::new(); // (detect cycle, sm)
    let mut next = 0;
    while gpu.running() {
        assert!(
            gpu.cycle() < cfg.max_cycles,
            "{}: reference timed out",
            w.abbr
        );
        // Bound each step at the next strike arrival and detection
        // deadline, so fast-forward never jumps over either: a strike at
        // cycle k lands when the clock reads k + 1, a detection at d
        // recovers exactly at d.
        let mut bound = cfg.max_cycles;
        if let Some(s) = strikes.get(next) {
            bound = bound.min(s.cycle + 1);
        }
        if let Some(&(d, _)) = pending.iter().min_by_key(|&&(d, _)| d) {
            bound = bound.min(d);
        }
        gpu.step_window(bound);
        let now = gpu.cycle();
        while next < strikes.len() && strikes[next].cycle < now {
            let s = strikes[next];
            next += 1;
            if s.sm >= gpu.num_sms() {
                continue;
            }
            if s.target == StrikeTarget::Pipeline {
                let victims: Vec<usize> = gpu.live_warps(s.sm).collect();
                if victims.into_iter().any(|slot| {
                    gpu.corrupt_recent_write(s.sm, slot, s.lane as usize, 1u64 << s.bit)
                }) {
                    corrupted += 1;
                }
            }
            pending.push((now + u64::from(s.detection_latency), s.sm));
        }
        let mut i = 0;
        while i < pending.len() {
            if pending[i].0 <= now {
                let (_, sm) = pending.swap_remove(i);
                gpu.recover_sm(sm);
                detections += 1;
            } else {
                i += 1;
            }
        }
    }
    LegacyReport {
        stats: gpu.stats(),
        output_ok: (w.check)(gpu.global()),
        corrupted,
        detections,
        recoveries: detections,
    }
}

/// Acceptance: with every strike detected and default budgets, the
/// protocol driver reproduces the paper's original protocol exactly —
/// taxonomy as a strict refinement, not a fork — on a flat kernel and on
/// LUD, whose barriers and shared memory the rollbacks must respect.
#[test]
fn full_coverage_reproduces_legacy_reports() {
    let cfg = cfg();
    for w in [workload(64, 128), flame::workloads::by_abbr("LUD").unwrap()] {
        let clean = run_scheme(&w, Scheme::SensorRenaming, &cfg).unwrap();
        let campaign = Campaign::accelerated(
            0xBEEF,
            6,
            clean.stats.cycles * 3 / 4,
            cfg.wcdl,
            cfg.gpu.num_sms,
            cfg.gpu.core_clock_mhz,
            &FaultRates::default(),
        );

        let legacy = legacy_reference(&w, &cfg, &campaign.strikes);
        let proto = run_protocol(&w, &cfg, &campaign.strikes, &ProtocolConfig::default());
        let abbr = w.abbr;
        assert_eq!(
            proto.run.stats, legacy.stats,
            "{abbr}: cycle-exact refinement"
        );
        assert_eq!(proto.run.output_ok, legacy.output_ok, "{abbr}");
        assert_eq!(proto.corrupted, legacy.corrupted, "{abbr}");
        assert_eq!(proto.detections, legacy.detections, "{abbr}");
        assert_eq!(proto.recoveries, legacy.recoveries, "{abbr}");
        assert_eq!(proto.undetected, 0, "{abbr}");
        assert_eq!(proto.cta_relaunches, 0, "{abbr}");
        assert_eq!(proto.kernel_relaunches, 0, "{abbr}");
        assert!(!proto.due && !proto.watchdog_fired && !proto.timed_out);
        assert!(matches!(
            classify(&proto),
            Outcome::DetectedRecovered | Outcome::Masked
        ));
    }
}

/// Acceptance: over ≥200 seeded runs, the undetected-strike fraction's
/// 95% Wilson interval must contain the configured coverage gap, full
/// coverage must yield zero SDCs on pipeline strikes, and a coverage gap
/// must yield a nonzero SDC rate.
#[test]
fn coverage_gap_drives_sdc_rate() {
    let w = workload(16, 128);
    let cfg = cfg();
    let clean = run_scheme(&w, Scheme::SensorRenaming, &cfg).unwrap();
    let spec = |coverage: f64| CampaignSpec {
        base_seed: 0xC0FFEE,
        runs: 200,
        strikes_per_run: 3,
        horizon: clean.stats.cycles * 3 / 4,
        strike_window: (0.0, 1.0),
        fork_points: 8,
        coverage,
        control_fraction: 0.0,
        recovery_fraction: 0.0,
        scheme: Scheme::SensorRenaming,
        cfg: cfg.clone(),
        proto: ProtocolConfig::default(),
        watchdog: 0,
        retry: RetryPolicy::default(),
        self_fault: SelfFault::default(),
    };

    let full = run_campaign_runner_with_jobs(&w, &spec(1.0), None, 0).unwrap();
    assert_eq!(full.records.len(), 200);
    let undetected: u64 = full.records.iter().map(|r| r.undetected).sum();
    assert_eq!(undetected, 0, "full coverage hears everything");
    for r in &full.records {
        assert!(
            matches!(r.outcome, Outcome::Masked | Outcome::DetectedRecovered),
            "seed {} classified {:?} at full coverage",
            r.seed,
            r.outcome
        );
    }

    let gapped = run_campaign_runner_with_jobs(&w, &spec(0.7), None, 0).unwrap();
    let strikes: u64 = gapped.records.iter().map(|r| r.injected).sum();
    let undetected: u64 = gapped.records.iter().map(|r| r.undetected).sum();
    assert_eq!(strikes, 600);
    let (lo, hi) = wilson_interval(undetected as usize, strikes as usize, 1.96);
    assert!(
        lo <= 0.30 && 0.30 <= hi,
        "coverage gap 0.30 outside CI [{lo:.4}, {hi:.4}] ({undetected}/{strikes} undetected)"
    );
    assert!(
        gapped.count(Outcome::Sdc) > 0,
        "a 30% coverage gap over 200 runs produced no SDC"
    );
    assert!(gapped.count(Outcome::Sdc) < full.records.len() / 2);
}

/// Satellite: two strikes on the same SM with overlapping WCDL windows.
/// Every paper scheme must deliver exactly two rollbacks (one nested)
/// and a correct output.
#[test]
fn overlapping_detection_windows_stay_sound() {
    let w = workload(32, 128);
    let cfg = cfg();
    for scheme in Scheme::paper_schemes() {
        let clean = run_scheme(&w, scheme, &cfg).unwrap();
        let mid = clean.stats.cycles / 2;
        // Sensor schemes hear a strike up to WCDL cycles late; the other
        // detectors (duplication, tail-DMR) catch the error in-pipeline,
        // before the region can commit — their latency is 0.
        let latency = match scheme.verification_mode(cfg.wcdl) {
            VerificationMode::Immediate => 0,
            _ => cfg.wcdl,
        };
        // Second strike lands inside the first's recovery window, so the
        // second recovery happens within WCDL of the first: nested.
        let strikes = [
            pipeline_strike(mid, 0, latency),
            pipeline_strike(mid + u64::from(cfg.wcdl) / 2, 0, latency),
        ];
        let proto = ProtocolConfig::default();
        let r =
            run_with_protocol(&w, scheme, &cfg, &strikes, &proto, &RunOptions::default()).unwrap();
        assert_eq!(r.injected, 2, "{scheme}");
        assert_eq!(
            r.recoveries, 2,
            "{scheme}: exactly one rollback per detection"
        );
        assert_eq!(r.nested_detections, 1, "{scheme}");
        assert_eq!(r.cta_relaunches, 0, "{scheme}: no escalation");
        assert!(!r.due, "{scheme}");
        assert!(r.run.output_ok, "{scheme}: wrong output after overlap");
        assert_eq!(classify(&r), Outcome::DetectedRecovered, "{scheme}");
    }
}

/// A strike on the recovery hardware poisons a live RPT entry; with the
/// escalation ladder disabled the very next recovery must declare DUE.
/// With the default budgets the same run survives via CTA relaunch.
#[test]
fn recovery_hardware_strike_escalates_to_due() {
    let w = workload(64, 128);
    let cfg = cfg();
    let clean = run_scheme(&w, Scheme::SensorRenaming, &cfg).unwrap();
    let strikes = [Strike {
        cycle: clean.stats.cycles / 2,
        sm: 0,
        target: StrikeTarget::RecoveryHw,
        detection_latency: 1,
        bit: 5,
        lane: 3,
        detected: true,
    }];

    let no_ladder = ProtocolConfig {
        max_cta_relaunches: 0,
        max_kernel_relaunches: 0,
        ..ProtocolConfig::default()
    };
    let r = run_protocol(&w, &cfg, &strikes, &no_ladder);
    assert_eq!(r.recovery_corruptions, 1, "strike missed the RPT");
    assert!(r.due, "no ladder: poisoned RPT must be unrecoverable");
    assert_eq!(classify(&r), Outcome::Due);

    let r = run_protocol(&w, &cfg, &strikes, &ProtocolConfig::default());
    assert_eq!(r.recovery_corruptions, 1);
    assert_eq!(
        r.cta_relaunches, 1,
        "ladder rung 2 should absorb the poison"
    );
    assert!(!r.due);
    assert!(r.run.output_ok, "CTA relaunch corrupted the output");
    assert_eq!(classify(&r), Outcome::DetectedRecovered);
}

/// The watchdog must classify a stalled machine as a hang rather than
/// spinning to the cycle budget: with a one-cycle hang window, the first
/// memory stall trips it. Exhausting `max_cycles` is a hang too, not an
/// error.
#[test]
fn watchdog_and_timeout_classify_as_hang() {
    let w = workload(16, 128);
    let trigger_happy = ProtocolConfig {
        hang_window: 1,
        ..ProtocolConfig::default()
    };
    let r = run_protocol(&w, &cfg(), &[], &trigger_happy);
    assert!(
        r.watchdog_fired,
        "a 1-cycle window must trip on memory stalls"
    );
    assert!(!r.timed_out);
    assert_eq!(classify(&r), Outcome::Hang);

    let strangled = ExperimentConfig {
        max_cycles: 40,
        ..ExperimentConfig::default()
    };
    let r = run_protocol(&w, &strangled, &[], &ProtocolConfig::default());
    assert!(r.timed_out, "cycle-budget exhaustion must fold into Hang");
    assert_eq!(classify(&r), Outcome::Hang);
}

/// Acceptance: killing a campaign mid-run (journal cut mid-line) and
/// resuming must produce a byte-identical final report, and a journal
/// from a different spec must be refused.
#[test]
fn killed_campaign_resumes_byte_identically() {
    let w = workload(16, 128);
    let cfg = cfg();
    let spec = CampaignSpec {
        base_seed: 7,
        runs: 12,
        strikes_per_run: 3,
        horizon: 700,
        strike_window: (0.0, 1.0),
        fork_points: 8,
        coverage: 0.6,
        control_fraction: 0.2,
        recovery_fraction: 0.1,
        scheme: Scheme::SensorRenaming,
        cfg: cfg.clone(),
        proto: ProtocolConfig::default(),
        watchdog: 0,
        retry: RetryPolicy::default(),
        self_fault: SelfFault::default(),
    };
    let reference = run_campaign_runner_with_jobs(&w, &spec, None, 2).unwrap();
    assert_eq!(reference.records.len(), 12);

    let dir = std::env::temp_dir();
    let path = dir.join(format!("flame_taxo_resume_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let journaled = run_campaign_runner_with_jobs(&w, &spec, Some(&path), 2).unwrap();
    assert_eq!(journaled.records, reference.records);
    assert_eq!(journaled.render(), reference.render());

    // Kill: keep the header, 5 complete records, and half of a sixth.
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 13);
    let mut cut: String = lines[..6].join("\n");
    cut.push('\n');
    cut.push_str(&lines[6][..lines[6].len() / 2]);
    std::fs::write(&path, cut).unwrap();

    let resumed = run_campaign_runner_with_jobs(&w, &spec, Some(&path), 2).unwrap();
    assert_eq!(resumed.ran_now, 7, "5 journaled seeds should be skipped");
    assert_eq!(resumed.records, reference.records);
    assert_eq!(
        resumed.render(),
        reference.render(),
        "resume is not byte-identical"
    );

    // The resume must have repaired the truncated tail on disk: if the
    // first appended record merged onto the partial line, the hybrid
    // still parses as a record and a LATER invocation would dedup the
    // correct re-run away. A third pass must re-run nothing and still
    // match byte-for-byte.
    let again = run_campaign_runner_with_jobs(&w, &spec, Some(&path), 2).unwrap();
    assert_eq!(again.ran_now, 0, "all 12 seeds should be journaled");
    assert_eq!(again.records, reference.records);
    assert_eq!(
        again.render(),
        reference.render(),
        "journal poisoned by the truncated tail"
    );

    // A journal written by a different campaign must be refused.
    let other = CampaignSpec {
        coverage: 0.9,
        ..spec.clone()
    };
    match run_campaign_runner_with_jobs(&w, &other, Some(&path), 2) {
        Err(RunnerError::JournalMismatch { .. }) => {}
        other => panic!("expected JournalMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_file(&path);

    // A journal that exists but is empty (killed between create and the
    // header write) must get its header and stay resumable, not wedge
    // every later invocation on a missing header.
    std::fs::write(&path, "").unwrap();
    let from_empty = run_campaign_runner_with_jobs(&w, &spec, Some(&path), 2).unwrap();
    assert_eq!(from_empty.ran_now, 12);
    assert_eq!(from_empty.render(), reference.render());
    let reread = run_campaign_runner_with_jobs(&w, &spec, Some(&path), 2).unwrap();
    assert_eq!(reread.ran_now, 0, "header missing from once-empty journal");
    assert_eq!(reread.render(), reference.render());
    let _ = std::fs::remove_file(&path);
}

/// A campaign judges each seed by comparing its final image with the
/// clean run's and calls the workload's check only on a mismatch: one
/// call for the baseline plus one per seed whose image differs, counted
/// here by re-running every seed from scratch with no clean image.
#[test]
fn campaign_checks_only_images_that_differ_from_the_clean_one() {
    let w = workload(16, 128);
    let cfg = cfg();
    let spec = CampaignSpec {
        base_seed: 7,
        runs: 16,
        strikes_per_run: 3,
        horizon: 700,
        strike_window: (0.0, 1.0),
        fork_points: 8,
        coverage: 0.3,
        control_fraction: 0.2,
        recovery_fraction: 0.1,
        scheme: Scheme::SensorRenaming,
        cfg: cfg.clone(),
        proto: ProtocolConfig::default(),
        watchdog: 0,
        retry: RetryPolicy::default(),
        self_fault: SelfFault::default(),
    };
    let calls = Arc::new(AtomicUsize::new(0));
    let (counter, check) = (Arc::clone(&calls), Arc::clone(&w.check));
    let counted = WorkloadSpec {
        check: Arc::new(move |m| {
            counter.fetch_add(1, Ordering::Relaxed);
            check(m)
        }),
        ..w.clone()
    };
    let summary = run_campaign_runner_with_jobs(&counted, &spec, None, 2).unwrap();
    assert_eq!(summary.records.len(), spec.runs);

    let proto = spec.effective_proto();
    let clean = run_protocol(&w, &cfg, &[], &proto).image;
    let differ = (spec.base_seed..spec.base_seed + spec.runs as u64)
        .filter(|&seed| {
            run_protocol(&w, &cfg, &strikes_for_seed(&spec, seed), &proto).image != clean
        })
        .count();
    assert!(
        0 < differ && differ < spec.runs,
        "{differ} of {} seeds differ: the campaign needs seeds of both kinds",
        spec.runs
    );
    assert_eq!(calls.load(Ordering::Relaxed), 1 + differ);
}

/// Acceptance: the outcome taxonomy grounded in the architectural oracle.
/// A run classified Masked or DetectedRecovered must reproduce the
/// oracle's golden memory image bit for bit, and an SDC's image must
/// differ from it — the workload's sampling self-check is no longer the
/// arbiter.
#[test]
fn oracle_golden_grounds_the_taxonomy() {
    let w = workload(16, 128);
    let cfg = cfg();
    let ocfg = OracleConfig {
        global_mem_bytes: cfg.gpu.device_mem_bytes,
        ..OracleConfig::default()
    };
    let init = w.init.clone();
    let golden = execute(&w.kernel, w.dims, &ocfg, |m| init(m)).unwrap();
    assert!(
        (w.check)(&golden.global),
        "oracle golden image fails the workload's own check"
    );

    // Full coverage: the protocol recovers, so the final image must be
    // bit-identical to the oracle's and the grounded classifier must
    // agree with the boolean one.
    let clean = run_scheme(&w, Scheme::SensorRenaming, &cfg).unwrap();
    let horizon = clean.stats.cycles * 3 / 4;
    let campaign = Campaign::accelerated(
        0xFEED,
        4,
        horizon,
        cfg.wcdl,
        cfg.gpu.num_sms,
        cfg.gpu.core_clock_mhz,
        &FaultRates::default(),
    );
    let r = run_protocol(&w, &cfg, &campaign.strikes, &ProtocolConfig::default());
    let grounded = classify_against_golden(&r, &golden.global);
    assert!(
        matches!(grounded, Outcome::Masked | Outcome::DetectedRecovered),
        "full coverage must mask or recover, got {grounded:?}"
    );
    assert_eq!(grounded, classify(&r), "grounded and boolean paths split");
    assert_eq!(
        r.image.first_difference(&golden.global),
        None,
        "recovered run's image differs from the oracle"
    );

    // Zero coverage: hunt a seed whose undetected strike corrupts the
    // output. That SDC's image must differ from the golden image, and
    // the grounded classifier must call it.
    let mut found = false;
    for seed in 0..64u64 {
        let strikes = StrikeGenerator::new(seed, cfg.wcdl, cfg.gpu.num_sms)
            .with_coverage(0.0)
            .schedule(3, horizon);
        let r = run_protocol(&w, &cfg, &strikes, &ProtocolConfig::default());
        if classify(&r) != Outcome::Sdc {
            continue;
        }
        assert!(
            r.image.first_difference(&golden.global).is_some(),
            "seed {seed}: SDC with a bit-identical image"
        );
        assert_eq!(
            classify_against_golden(&r, &golden.global),
            Outcome::Sdc,
            "seed {seed}: grounded classifier missed the corruption"
        );
        found = true;
        break;
    }
    assert!(found, "no undetected strike produced an SDC in 64 seeds");
}

/// Default generator knobs must not perturb the legacy strike stream:
/// seeded schedules (and thus every pinned figure) stay bit-identical.
#[test]
fn default_generator_stream_is_unchanged() {
    let mut legacy = StrikeGenerator::new(0xAB, 20, 16);
    let mut tuned = StrikeGenerator::new(0xAB, 20, 16)
        .with_coverage(1.0)
        .with_target_mix(0.0, 0.0);
    let a = legacy.schedule(64, 100_000);
    let b = tuned.schedule(64, 100_000);
    assert_eq!(a, b);
    assert!(a.iter().all(|s| s.detected));
    assert!(a.iter().all(|s| matches!(
        s.target,
        StrikeTarget::Pipeline | StrikeTarget::EccProtected
    )));
}

/// The forward-progress watchdog is a spec field: the default is silent
/// in the journal fingerprint (old journals resume), an override enters
/// it, a one-cycle watchdog hangs every seed, and a journal written under
/// one watchdog refuses to resume under another.
#[test]
fn watchdog_is_configurable_and_fingerprint_safe() {
    let w = workload(8, 64);
    let spec = |watchdog| CampaignSpec {
        base_seed: 0xD06,
        runs: 4,
        strikes_per_run: 1,
        horizon: 400,
        strike_window: (0.0, 1.0),
        fork_points: 0,
        coverage: 1.0,
        control_fraction: 0.0,
        recovery_fraction: 0.0,
        scheme: Scheme::SensorRenaming,
        cfg: cfg(),
        proto: ProtocolConfig::default(),
        watchdog,
        retry: RetryPolicy::default(),
        self_fault: SelfFault::default(),
    };
    let default_hw = ProtocolConfig::default().hang_window;

    // Field 0 inherits the protocol hang window and keeps the legacy
    // header bytes; an explicit field equal to the default does too.
    let s0 = spec(0);
    assert_eq!(s0.effective_hang_window(), default_hw);
    assert!(
        !s0.fingerprint(w.name).contains("watchdog"),
        "default watchdog must not enter the fingerprint"
    );
    assert_eq!(spec(default_hw).fingerprint(w.name), s0.fingerprint(w.name));

    // A nonzero field replaces the horizon and enters the fingerprint.
    let s_tight = spec(1);
    assert_eq!(s_tight.effective_hang_window(), 1);
    assert!(s_tight.fingerprint(w.name).contains("\"watchdog\":1"));
    assert_ne!(s_tight.fingerprint(w.name), s0.fingerprint(w.name));

    // A one-cycle watchdog trips on the first memory stall, so every
    // run classifies as Hang.
    let hung = run_campaign_runner_with_jobs(&w, &s_tight, None, 1).unwrap();
    assert_eq!(hung.count(Outcome::Hang), 4, "{}", hung.render());
    let calm = run_campaign_runner_with_jobs(&w, &s0, None, 1).unwrap();
    assert_eq!(calm.count(Outcome::Hang), 0, "{}", calm.render());

    // The widest watchdog never fires: its deadline saturates instead of
    // wrapping to a cycle already past, so every seed classifies as
    // under the default window.
    let wide = run_campaign_runner_with_jobs(&w, &spec(u64::MAX), None, 1).unwrap();
    let outcomes = |s: &CampaignSummary| {
        s.records
            .iter()
            .map(|r| (r.seed, r.outcome))
            .collect::<Vec<_>>()
    };
    assert_eq!(outcomes(&wide), outcomes(&calm), "{}", wide.render());

    // A journal of the default campaign must refuse a resume under the
    // tight watchdog instead of silently reclassifying its seeds.
    let path = std::env::temp_dir().join(format!("flame_wdog_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    run_campaign_runner_with_jobs(&w, &s0, Some(&path), 1).unwrap();
    match run_campaign_runner_with_jobs(&w, &s_tight, Some(&path), 1) {
        Err(RunnerError::JournalMismatch { .. }) => {}
        other => panic!("resume under another watchdog must be refused, got {other:?}"),
    }
    // Under the original watchdog the journal resumes untouched.
    let resumed = run_campaign_runner_with_jobs(&w, &s0, Some(&path), 1).unwrap();
    assert_eq!(resumed.ran_now, 0);
    assert_eq!(resumed.render(), calm.render());
    let _ = std::fs::remove_file(&path);
}
