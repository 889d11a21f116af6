//! Cross-crate integration tests: every resilience scheme must produce
//! bit-correct output, fault-free and under injected particle strikes.

use flame::core::campaign::{classify, Outcome};
use flame::prelude::*;

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        max_cycles: 100_000_000,
        ..ExperimentConfig::default()
    }
}

/// A scratch, untraced run of the full protocol at its default budgets.
fn run_faulted(
    w: &WorkloadSpec,
    scheme: Scheme,
    cfg: &ExperimentConfig,
    strikes: &[flame::sensors::Strike],
) -> Result<flame::core::FaultProtocolResult, flame::core::ExperimentError> {
    let proto = ProtocolConfig::default();
    run_with_protocol(w, scheme, cfg, strikes, &proto, &RunOptions::default())
}

/// Small-but-representative subset used to bound debug-mode test time.
fn subset() -> Vec<WorkloadSpec> {
    ["LUD", "Histogram", "PF", "KNN", "Gaussian"]
        .iter()
        .map(|a| flame::workloads::by_abbr(a).unwrap())
        .collect()
}

#[test]
fn every_scheme_is_correct_on_the_subset() {
    let cfg = cfg();
    for w in subset() {
        for scheme in Scheme::paper_schemes() {
            let r =
                run_scheme(&w, scheme, &cfg).unwrap_or_else(|e| panic!("{} {scheme}: {e}", w.abbr));
            assert!(r.output_ok, "{} under {scheme}: wrong output", w.abbr);
        }
    }
}

#[test]
fn naive_verification_is_correct_too() {
    let cfg = cfg();
    let w = flame::workloads::by_abbr("PF").unwrap();
    let r = run_scheme(&w, Scheme::NaiveSensorRenaming, &cfg).unwrap();
    assert!(r.output_ok);
}

#[test]
fn flame_recovers_every_workload_subset_from_strikes() {
    let cfg = cfg();
    for w in subset() {
        let clean = run_scheme(&w, Scheme::SensorRenaming, &cfg).unwrap();
        let mut gen = StrikeGenerator::new(0xDEAD + w.abbr.len() as u64, cfg.wcdl, cfg.gpu.num_sms)
            .with_ecc_fraction(0.0);
        let strikes = gen.schedule(5, (clean.stats.cycles * 3 / 4).max(10));
        let r = run_faulted(&w, Scheme::SensorRenaming, &cfg, &strikes)
            .unwrap_or_else(|e| panic!("{}: {e}", w.abbr));
        assert_eq!(r.detections, 5, "{}: every strike must be detected", w.abbr);
        assert!(
            r.run.output_ok,
            "{}: output corrupted despite recovery",
            w.abbr
        );
    }
}

#[test]
fn checkpointing_recovers_from_strikes() {
    let cfg = cfg();
    for abbr in ["PF", "Gaussian"] {
        let w = flame::workloads::by_abbr(abbr).unwrap();
        let clean = run_scheme(&w, Scheme::SensorCheckpointing, &cfg).unwrap();
        let mut gen =
            StrikeGenerator::new(0xC0FFEE, cfg.wcdl, cfg.gpu.num_sms).with_ecc_fraction(0.0);
        let strikes = gen.schedule(4, (clean.stats.cycles * 3 / 4).max(10));
        let r = run_faulted(&w, Scheme::SensorCheckpointing, &cfg, &strikes).unwrap();
        assert!(r.run.output_ok, "{abbr}: checkpoint recovery failed");
    }
}

#[test]
fn masked_strikes_are_harmless_false_positives() {
    let cfg = cfg();
    let w = flame::workloads::by_abbr("LUD").unwrap();
    let clean = run_scheme(&w, Scheme::SensorRenaming, &cfg).unwrap();
    // Strikes that all land on ECC-protected arrays: heard but harmless.
    let mut gen = StrikeGenerator::new(11, cfg.wcdl, cfg.gpu.num_sms).with_ecc_fraction(1.0);
    let strikes = gen.schedule(6, clean.stats.cycles / 2);
    let r = run_faulted(&w, Scheme::SensorRenaming, &cfg, &strikes).unwrap();
    assert_eq!(r.corrupted, 0);
    assert_eq!(r.detections, 6);
    assert!(r.run.output_ok);
    // The false-positive recovery cost is small (§IV).
    assert!(
        r.run.stats.cycles < clean.stats.cycles * 3 / 2,
        "false positives should be cheap: {} vs {}",
        r.run.stats.cycles,
        clean.stats.cycles
    );
}

#[test]
fn strikes_against_an_unprotected_baseline_corrupt_output() {
    // Sanity check that the injections are real: without Flame the same
    // bit-flips break the result (the run executes with corruption and no
    // recovery is triggered).
    let cfg = cfg();
    let w = flame::workloads::by_abbr("SGEMM").unwrap();
    let clean = run_scheme(&w, Scheme::Baseline, &cfg).unwrap();
    let mut corrupted_any = false;
    for seed in 0..6u64 {
        let mut gen = StrikeGenerator::new(seed, cfg.wcdl, cfg.gpu.num_sms).with_ecc_fraction(0.0);
        let strikes: Vec<_> = gen
            .schedule(8, clean.stats.cycles / 2)
            .into_iter()
            .map(|mut s| {
                s.detection_latency = u32::MAX - 1; // never "detected": no rollback
                s
            })
            .collect();
        // Under Baseline there is no RPT, so recovery would roll back 0
        // warps anyway; the detection latency above keeps recoveries out
        // of the picture entirely.
        // A completed run with a wrong output is an SDC; a hang (which
        // the run surfaces as a flag, not an error) is not.
        let r = run_faulted(&w, Scheme::Baseline, &cfg, &strikes);
        if let Ok(r) = r {
            if r.corrupted > 0 && classify(&r) == Outcome::Sdc {
                corrupted_any = true;
                break;
            }
        }
    }
    assert!(
        corrupted_any,
        "at least one campaign should corrupt the unprotected baseline"
    );
}
