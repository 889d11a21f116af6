//! Equivalence tests for the event-driven clock: fast-forward must be a
//! pure wall-clock optimization. Every statistic the simulator produces —
//! simulated cycles, every stall counter, every resilience counter — must
//! be bit-identical with fast-forward on and off, across workloads,
//! schemes (including the WCDL-heavy descheduling and scheduler-stall
//! modes, whose idle windows are exactly what the clock skips), GPU
//! configurations, and fault-injection campaigns. The clock is switched
//! through [`GpuConfig::fast_forward`].

use flame::core::experiment::{run_scheme, run_with_faults, ExperimentConfig, RunResult};
use flame::core::scheme::Scheme;
use flame::sensors::fault::{Strike, StrikeTarget};
use flame::sim::config::GpuConfig;
use flame::sim::scheduler::SchedulerKind;
use flame::workloads::by_abbr;

const WORKLOADS: [&str; 3] = ["Triad", "GUPS", "NN"];

/// Every scheme in the taxonomy: the paper's eight, the baseline, and the
/// two ablations (no-opt renaming; naive scheduler-stall verification,
/// whose `BlockScheduler` windows are the largest skippable stretches).
fn all_schemes() -> Vec<Scheme> {
    let mut s = vec![
        Scheme::Baseline,
        Scheme::SensorRenamingNoOpt,
        Scheme::NaiveSensorRenaming,
    ];
    s.extend(Scheme::paper_schemes());
    s
}

fn configs() -> [ExperimentConfig; 2] {
    [
        // The paper's default platform.
        ExperimentConfig::default(),
        // A second architecture, scheduler and a much longer WCDL, so the
        // skipped windows have a very different shape.
        ExperimentConfig {
            gpu: GpuConfig::rtx2060(),
            sched: SchedulerKind::Lrr,
            wcdl: 100,
            ..ExperimentConfig::default()
        },
    ]
}

/// `cfg` with the event-driven clock switched on or off.
fn with_fast_forward(cfg: &ExperimentConfig, on: bool) -> ExperimentConfig {
    let mut cfg = cfg.clone();
    cfg.gpu.fast_forward = on;
    cfg
}

fn run_cell(w: &str, scheme: Scheme, cfg: &ExperimentConfig) -> RunResult {
    let spec = by_abbr(w).expect("known workload");
    run_scheme(&spec, scheme, cfg).unwrap_or_else(|e| panic!("{w}/{scheme:?}: {e}"))
}

/// The tentpole invariant, over the full {workload × scheme × config}
/// grid: `SimStats` bit-identical with fast-forward on and off.
#[test]
fn stats_bit_identical_with_and_without_fast_forward() {
    for cfg in &configs() {
        for w in WORKLOADS {
            for scheme in all_schemes() {
                let fast = run_cell(w, scheme, &with_fast_forward(cfg, true));
                let slow = run_cell(w, scheme, &with_fast_forward(cfg, false));
                let diff = fast.stats.diff(&slow.stats);
                assert!(
                    diff.is_empty(),
                    "{w}/{scheme:?}/{}: fast-forward changed {diff:?}",
                    cfg.gpu.name
                );
                assert!(
                    fast.output_ok && slow.output_ok,
                    "{w}/{scheme:?}/{}: output check failed",
                    cfg.gpu.name
                );
            }
        }
    }
}

/// Fault campaigns interact with the GPU at externally scheduled cycles
/// (strike arrival, detection deadline); `run_with_faults` must bound the
/// fast-forward so corruption, detection and recovery land on exactly the
/// same cycles — identical stats *and* identical campaign outcome.
#[test]
fn fault_injection_unchanged_by_fast_forward() {
    let cfg = ExperimentConfig::default();
    let strikes: Vec<Strike> = (0..6)
        .map(|i| Strike {
            cycle: 40 + i * 173,
            sm: (i as usize) % 2,
            lane: (i as u8) % 32,
            bit: (11 * i as u8) % 64,
            target: if i % 2 == 0 {
                StrikeTarget::Pipeline
            } else {
                StrikeTarget::EccProtected
            },
            detection_latency: cfg.wcdl,
            detected: true,
        })
        .collect();
    for scheme in [Scheme::SensorRenaming, Scheme::NaiveSensorRenaming] {
        let spec = by_abbr("Triad").expect("known workload");
        let fast = run_with_faults(&spec, scheme, &with_fast_forward(&cfg, true), &strikes)
            .expect("fast run");
        let slow = run_with_faults(&spec, scheme, &with_fast_forward(&cfg, false), &strikes)
            .expect("slow run");
        let diff = fast.run.stats.diff(&slow.run.stats);
        assert!(diff.is_empty(), "{scheme:?}: fast-forward changed {diff:?}");
        assert_eq!(fast.corrupted, slow.corrupted, "{scheme:?}: corrupted");
        assert_eq!(fast.detections, slow.detections, "{scheme:?}: detections");
        assert_eq!(fast.recoveries, slow.recoveries, "{scheme:?}: recoveries");
        assert_eq!(
            fast.run.output_ok, slow.run.output_ok,
            "{scheme:?}: output verdict"
        );
    }
}
