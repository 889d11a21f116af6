//! Equivalence tests for the event-driven clock: fast-forward must be a
//! pure wall-clock optimization. Every statistic the simulator produces —
//! simulated cycles, every stall counter, every resilience counter — must
//! be bit-identical with fast-forward on and off, across workloads,
//! schemes (including the WCDL-heavy descheduling and scheduler-stall
//! modes, whose idle windows are exactly what the clock skips), GPU
//! configurations, and fault-injection campaigns. The clock is switched
//! through [`GpuConfig::fast_forward`].

use flame::core::experiment::{
    prepare_scheme, run_scheme, run_with_protocol, ExperimentConfig, ProtocolConfig, RunOptions,
    RunResult,
};
use flame::core::scheme::Scheme;
use flame::sensors::fault::{Strike, StrikeTarget};
use flame::sim::config::GpuConfig;
use flame::sim::gpu::Gpu;
use flame::sim::scheduler::SchedulerKind;
use flame::workloads::by_abbr;

const WORKLOADS: [&str; 3] = ["Triad", "GUPS", "NN"];

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

/// The tentpole invariant, over the {workload × scheme} grid on `cfg`:
/// `SimStats` bit-identical with fast-forward on and off. The schemes are
/// the whole taxonomy, including the naive scheduler-stall verification,
/// whose `BlockScheduler` windows are the largest skippable stretches.
/// Each configuration is its own test, so the harness runs them in
/// parallel.
fn stats_match_with_and_without_fast_forward(cfg: &ExperimentConfig) {
    for w in WORKLOADS {
        for scheme in Scheme::all() {
            let fast = run_cell(w, scheme, &with_fast_forward(cfg, true));
            let slow = run_cell(w, scheme, &with_fast_forward(cfg, false));
            let diff = fast.stats.diff(&slow.stats);
            assert!(
                diff.is_empty(),
                "{w}/{scheme:?}/{}/wcdl {}: fast-forward changed {diff:?}",
                cfg.gpu.name,
                cfg.wcdl
            );
            assert!(
                fast.output_ok && slow.output_ok,
                "{w}/{scheme:?}/{}/wcdl {}: output check failed",
                cfg.gpu.name,
                cfg.wcdl
            );
        }
    }
}

/// On the paper's default platform.
#[test]
fn stats_bit_identical_with_and_without_fast_forward() {
    stats_match_with_and_without_fast_forward(&ExperimentConfig::default());
}

/// On a second architecture and scheduler with a longer WCDL, so the
/// skipped windows have a very different shape.
#[test]
fn stats_bit_identical_with_and_without_fast_forward_on_rtx2060_lrr() {
    stats_match_with_and_without_fast_forward(&ExperimentConfig {
        gpu: GpuConfig::rtx2060(),
        sched: SchedulerKind::Lrr,
        wcdl: 100,
        ..ExperimentConfig::default()
    });
}

/// At the sparse-sensor end of the WCDL trade-off, where deschedule and
/// stall windows are longest.
#[test]
fn stats_bit_identical_with_and_without_fast_forward_at_wcdl_1000() {
    stats_match_with_and_without_fast_forward(&ExperimentConfig {
        wcdl: 1000,
        ..ExperimentConfig::default()
    });
}

/// Steps `gpu` until its clock reads `cycle` or the kernel ends.
fn step_to(gpu: &mut Gpu, cycle: u64) {
    let mut running = gpu.running();
    while running && gpu.cycle() < cycle {
        running = gpu.step_window(cycle);
    }
}

/// Mid-run observations of one cell: a GPU with fast-forward on and one
/// with it off, stepped to a grid of cycles inside the run, report equal
/// `Gpu::stats` at every grid cycle, whatever SMs sleep there with idle
/// cycles owed. The fast GPU is traced, and at the last grid cycle its
/// `take_trace` stall matrix must hold exactly the stalls its stats
/// report.
fn mid_run_stats_match(w: &str, scheme: Scheme, cfg: &ExperimentConfig) {
    const GRID: u64 = 48;
    let spec = by_abbr(w).expect("known workload");
    let label = format!("{w}/{scheme:?}/{}/wcdl {}", cfg.gpu.name, cfg.wcdl);
    let len = run_cell(w, scheme, cfg).stats.cycles;
    let prepare = |on| {
        prepare_scheme(&spec, scheme, &with_fast_forward(cfg, on))
            .unwrap_or_else(|e| panic!("{label}: {e}"))
            .0
    };
    let (mut fast, mut slow) = (prepare(true), prepare(false));
    fast.set_tracing(1 << 10);
    // The midpoints of GRID equal slices of the run.
    let grid = (1..=GRID).map(|i| len * (2 * i - 1) / (2 * GRID));
    let mut last = 0;
    for cycle in grid {
        step_to(&mut fast, cycle);
        step_to(&mut slow, cycle);
        assert_eq!(
            (fast.cycle(), slow.cycle()),
            (cycle, cycle),
            "{label}: the run ended before the grid did"
        );
        let diff = fast.stats().diff(&slow.stats());
        assert!(diff.is_empty(), "{label} at cycle {cycle}: {diff:?}");
        last = cycle;
    }
    let trace = fast.take_trace().expect("tracing was enabled");
    let s = fast.stats().stalls;
    assert_eq!(
        trace.stall_counts(),
        [
            s.no_warp,
            s.scoreboard,
            s.mshr_full,
            s.barrier,
            s.rbq_wait,
            s.sched_blocked,
        ],
        "{label} at cycle {last}: the trace's stalls differ from the stats"
    );
    let diff = fast.stats().diff(&slow.stats());
    assert!(
        diff.is_empty(),
        "{label}: taking the trace changed {diff:?}"
    );
}

/// BP under Flame: the tail where most SMs have drained their CTAs or
/// wait on the RBQ.
#[test]
fn mid_run_stats_match_for_bp_under_flame() {
    mid_run_stats_match("BP", Scheme::SensorRenaming, &ExperimentConfig::default());
}

/// GUPS under naive stall verification at WCDL 1000: schedulers blocked
/// for most of the run.
#[test]
fn mid_run_stats_match_for_gups_under_naive_stall() {
    mid_run_stats_match(
        "GUPS",
        Scheme::NaiveSensorRenaming,
        &ExperimentConfig {
            wcdl: 1000,
            ..ExperimentConfig::default()
        },
    );
}

/// BP under Flame on the RTX 2060 with LRR.
#[test]
fn mid_run_stats_match_on_rtx2060_lrr() {
    mid_run_stats_match(
        "BP",
        Scheme::SensorRenaming,
        &ExperimentConfig {
            gpu: GpuConfig::rtx2060(),
            sched: SchedulerKind::Lrr,
            wcdl: 100,
            ..ExperimentConfig::default()
        },
    );
}

/// Fault campaigns interact with the GPU at externally scheduled cycles
/// (strike arrival, detection deadline); `run_with_protocol` must bound the
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
        let run = |fast_forward| {
            let cfg = with_fast_forward(&cfg, fast_forward);
            let proto = ProtocolConfig::default();
            run_with_protocol(
                &spec,
                scheme,
                &cfg,
                &strikes,
                &proto,
                &RunOptions::default(),
            )
        };
        let fast = run(true).expect("fast run");
        let slow = run(false).expect("slow run");
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

    // Control-flow and recovery-hardware strikes on a barrier workload:
    // PC corruption, region rollback and CTA relaunch, with warps parked
    // at barriers, must land on the same cycles whether or not the clock
    // skips.
    let spec = by_abbr("LUD").expect("known workload");
    let scheme = Scheme::SensorRenaming;
    let horizon = run_cell("LUD", scheme, &cfg).stats.cycles;
    let strike = |cycle: u64, sm: usize, target: StrikeTarget, bit: u8| Strike {
        cycle,
        sm,
        lane: 3,
        bit,
        target,
        detection_latency: cfg.wcdl,
        detected: true,
    };
    let strikes = [
        strike(horizon / 5, 0, StrikeTarget::ControlFlow, 1),
        strike(horizon / 4, 1, StrikeTarget::ControlFlow, 4),
        strike(horizon / 2, 0, StrikeTarget::RecoveryHw, 5),
        strike(horizon / 2 + 7, 1, StrikeTarget::ControlFlow, 2),
    ];
    let run = |fast_forward| {
        let cfg = with_fast_forward(&cfg, fast_forward);
        let proto = ProtocolConfig::default();
        run_with_protocol(
            &spec,
            scheme,
            &cfg,
            &strikes,
            &proto,
            &RunOptions::default(),
        )
        .expect("protocol run")
    };
    let (fast, slow) = (run(true), run(false));
    assert!(fast.pc_corruptions >= 2, "control-flow strikes missed");
    assert_eq!(fast.recovery_corruptions, 1, "recovery strike missed");
    assert!(fast.recoveries >= 2, "no region rollback");
    assert!(fast.cta_relaunches >= 1, "no CTA relaunch");
    let diff = fast.run.stats.diff(&slow.run.stats);
    assert!(diff.is_empty(), "fast-forward changed {diff:?}");
    assert_eq!(fast.pc_corruptions, slow.pc_corruptions);
    assert_eq!(fast.recovery_corruptions, slow.recovery_corruptions);
    assert_eq!(fast.detections, slow.detections);
    assert_eq!(fast.recoveries, slow.recoveries);
    assert_eq!(fast.cta_relaunches, slow.cta_relaunches);
    assert_eq!(fast.kernel_relaunches, slow.kernel_relaunches);
    assert_eq!(fast.due, slow.due);
    assert_eq!(fast.run.output_ok, slow.run.output_ok);
    assert!(fast.image == slow.image, "final memory differs");
}
