//! Snapshot/restore and fork-point acceleration tests.
//!
//! The campaign runner's fork optimization rests on two properties this
//! file pins:
//!
//! 1. **Snapshot round-trip** — capturing a [`flame::sim::gpu::Snapshot`]
//!    mid-run, mutating the GPU arbitrarily (by running it to
//!    completion), restoring, and re-running must reproduce the original
//!    run bit-for-bit: same cycle count, same statistics, same final
//!    memory image. Checked over the structured fuzz kernel generator so
//!    divergence, shared memory, atomics and nested loops all pass
//!    through the snapshot.
//! 2. **Fork determinism** — a fault run forked from a clean-prefix
//!    checkpoint at or before its first strike must be bit-identical to
//!    the same run simulated from scratch: identical protocol counters,
//!    identical stats, identical final memory. Checked across the full
//!    34-workload × 11-scheme taxonomy — one cell of it also with tracing
//!    on, forked and not — and end-to-end through the campaign runner
//!    (identical outcome histograms and records modulo fork telemetry,
//!    each record also equal to a scratch `run_one_seed` replay).

use flame::core::experiment::{
    prepare_scheme, run_scheme, run_with_protocol, ExperimentConfig, FaultProtocolResult,
    ProtocolConfig, RunOptions, WorkloadSpec,
};
use flame::core::runner::{
    run_campaign_runner_with_jobs, run_one_seed, CampaignSpec, RetryPolicy, RunRecord, SelfFault,
};
use flame::core::scheme::Scheme;
use flame::sensors::fault::StrikeGenerator;
use flame::sim::gpu::Snapshot;
use flame::sim::rng::Rng64;
use flame::trace::Event;
use flame::workloads::fuzz;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn fuzz_workload(seed: u64) -> WorkloadSpec {
    let mut rng = Rng64::new(seed);
    let rk = fuzz::random_kernel(&mut rng);
    let n = fuzz::thread_count(&rk);
    WorkloadSpec {
        name: "fuzz",
        abbr: "FUZZ",
        suite: "fuzz",
        kernel: fuzz::build_kernel(&rk),
        dims: fuzz::launch_dims(&rk),
        init: Arc::new(move |m| fuzz::seed_input(m, n)),
        check: Arc::new(|_| true),
    }
}

/// Snapshot → mutate → restore → re-run must be bit-identical, twice
/// over (a snapshot is reusable — the campaign restores one checkpoint
/// into many forked runs).
#[test]
fn fuzz_snapshot_round_trip_is_bit_identical() {
    let cfg = ExperimentConfig::default();
    for k in 0..8u64 {
        let seed = fuzz::FUZZ_SEED_BASE + k;
        let w = fuzz_workload(seed);

        // Reference run, untouched.
        let (mut gpu, _) = prepare_scheme(&w, Scheme::SensorRenaming, &cfg)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: prepare failed: {e:?}"));
        let ref_stats = gpu.run(cfg.max_cycles).expect("reference run");
        let ref_mem = gpu.into_global();

        // Second GPU: snapshot at the midpoint, then mutate it by
        // running to completion.
        let (mut gpu, _) = prepare_scheme(&w, Scheme::SensorRenaming, &cfg).expect("prepare");
        let base = gpu.memory_base();
        let cp = ref_stats.cycles / 2;
        let mut running = gpu.running();
        while running && gpu.cycle() < cp {
            running = gpu.step_window(cp);
        }
        assert!(running, "seed {seed:#x}: finished before midpoint {cp}");
        assert_eq!(gpu.cycle(), cp, "step_window overshot the checkpoint");
        let snap = gpu.snapshot_delta(&base);
        assert_eq!(snap.cycle(), cp);
        gpu.run(cfg.max_cycles).expect("mutating run");

        for round in 0..2 {
            gpu.restore(&snap);
            assert_eq!(gpu.cycle(), cp, "restore did not rewind the clock");
            let stats = gpu.run(cfg.max_cycles).expect("restored run");
            assert_eq!(
                stats, ref_stats,
                "seed {seed:#x} round {round}: stats diverged after restore"
            );
            assert_eq!(
                gpu.global().first_difference(&ref_mem),
                None,
                "seed {seed:#x} round {round}: memory diverged after restore"
            );
        }
    }
}

/// The micro-op cache is derived state: snapshots never capture it, and
/// restores rebuild nothing because the launch-time lowering is the only
/// source of truth. A restore into a GPU that has run the whole kernel
/// must replay bit-identically to a fresh GPU simulated from scratch,
/// with the event-driven clock off on the reference side so the two
/// sides share no stepping shortcut.
#[test]
fn snapshot_excludes_micro_op_cache() {
    // Reference side: from scratch, per-cycle clock.
    let mut scratch_cfg = ExperimentConfig::default();
    scratch_cfg.gpu.fast_forward = false;
    // Restored side: the default configuration.
    let restored_cfg = ExperimentConfig::default();

    for k in 0..4u64 {
        let seed = fuzz::FUZZ_SEED_BASE + 0x50 + k;
        let w = fuzz_workload(seed);

        let (mut gpu, _) =
            prepare_scheme(&w, Scheme::SensorRenaming, &scratch_cfg).expect("prepare");
        let ref_stats = gpu.run(scratch_cfg.max_cycles).expect("reference run");
        let ref_mem = gpu.into_global();

        let (mut gpu, _) =
            prepare_scheme(&w, Scheme::SensorRenaming, &restored_cfg).expect("prepare");
        let base = gpu.memory_base();
        let cp = ref_stats.cycles / 2;
        let mut running = gpu.running();
        while running && gpu.cycle() < cp {
            running = gpu.step_window(cp);
        }
        assert!(running, "seed {seed:#x}: finished before midpoint {cp}");
        let snap = gpu.snapshot_delta(&base);
        gpu.run(restored_cfg.max_cycles).expect("mutating run");

        gpu.restore(&snap);
        assert_eq!(gpu.cycle(), cp, "restore did not rewind the clock");
        let stats = gpu.run(restored_cfg.max_cycles).expect("restored run");
        assert_eq!(
            stats, ref_stats,
            "seed {seed:#x}: restore diverged from the per-cycle scratch run"
        );
        assert_eq!(
            gpu.global().first_difference(&ref_mem),
            None,
            "seed {seed:#x}: memory diverged after restore"
        );
    }
}

/// A forked run launches the kernel without seeding its inputs: the
/// checkpoint's image already holds them. Counting the workload's `init`
/// calls pins this, and the forked run must still match the scratch run
/// in stats and final image.
#[test]
fn forked_run_skips_input_seeding() {
    let cfg = ExperimentConfig::default();
    let scheme = Scheme::SensorRenaming;
    let seeded = Arc::new(AtomicUsize::new(0));
    let w = {
        let mut w = fuzz_workload(fuzz::FUZZ_SEED_BASE);
        let (init, seeded) = (Arc::clone(&w.init), Arc::clone(&seeded));
        w.init = Arc::new(move |m| {
            seeded.fetch_add(1, Ordering::Relaxed);
            init(m);
        });
        w
    };
    let clean = run_scheme(&w, scheme, &cfg).expect("clean run");
    let cp = clean.stats.cycles / 2;
    let (mut gpu, _) = prepare_scheme(&w, scheme, &cfg).expect("prepare");
    let mut running = gpu.running();
    while running && gpu.cycle() < cp {
        running = gpu.step_window(cp);
    }
    assert!(running, "finished before midpoint {cp}");
    let snap = gpu.snapshot();

    let proto = ProtocolConfig::default();
    let run = |fork_from| {
        let opts = RunOptions {
            fork_from,
            ..RunOptions::default()
        };
        run_with_protocol(&w, scheme, &cfg, &[], &proto, &opts)
    };
    seeded.store(0, Ordering::Relaxed);
    let forked = run(Some(&snap)).expect("forked run");
    assert_eq!(seeded.load(Ordering::Relaxed), 0, "the forked run seeded");
    let scratch = run(None).expect("scratch run");
    assert_eq!(
        seeded.load(Ordering::Relaxed),
        1,
        "the scratch run seeds once"
    );

    assert_eq!(forked.fork.fork_cycle, cp);
    assert_eq!(forked.run.stats, scratch.run.stats, "stats");
    assert_eq!(
        forked.image.first_difference(&scratch.image),
        None,
        "final memory image"
    );
}

/// Asserts two protocol runs of one cell agree on everything they
/// simulated: every protocol counter, the final stats, the output flag,
/// the outcome and the final memory image.
fn assert_same_run(cell: &str, a: &FaultProtocolResult, b: &FaultProtocolResult) {
    assert_eq!(a.run.stats, b.run.stats, "{cell}: stats");
    assert_eq!(a.run.output_ok, b.run.output_ok, "{cell}: output");
    assert_eq!(a.injected, b.injected, "{cell}: injected");
    assert_eq!(a.corrupted, b.corrupted, "{cell}: corrupted");
    assert_eq!(a.pc_corruptions, b.pc_corruptions, "{cell}: pc corruptions");
    assert_eq!(
        a.recovery_corruptions, b.recovery_corruptions,
        "{cell}: recovery corruptions"
    );
    assert_eq!(a.detections, b.detections, "{cell}: detections");
    assert_eq!(a.undetected, b.undetected, "{cell}: undetected");
    assert_eq!(a.recoveries, b.recoveries, "{cell}: recoveries");
    assert_eq!(a.nested_detections, b.nested_detections, "{cell}: nested");
    assert_eq!(a.cta_relaunches, b.cta_relaunches, "{cell}: cta relaunches");
    assert_eq!(
        a.kernel_relaunches, b.kernel_relaunches,
        "{cell}: kernel relaunches"
    );
    assert_eq!(a.watchdog_fired, b.watchdog_fired, "{cell}: watchdog");
    assert_eq!(a.timed_out, b.timed_out, "{cell}: timeout");
    assert_eq!(
        flame::core::classify(a),
        flame::core::classify(b),
        "{cell}: outcome"
    );
    assert_eq!(
        a.image.first_difference(&b.image),
        None,
        "{cell}: final memory image"
    );
}

/// The cell that also runs with tracing on: BP under Flame, the
/// reference late-strike campaign's cell.
const TRACED_CELL: (&str, Scheme) = ("BP", Scheme::SensorRenaming);

/// Forked fault runs are bit-identical to from-scratch runs across the
/// entire workload × scheme taxonomy: every protocol counter, the final
/// stats, the output flag, and the final memory image. In
/// [`TRACED_CELL`] the traced scratch and traced forked runs must match
/// too, and the traced fork's timeline must start at its restore.
///
/// Runs the workloads of `suite` whose index within the suite satisfies
/// `part` under every scheme, and asserts that `traced_cells` of them
/// (1 for the part holding [`TRACED_CELL`], else 0) were traced. The
/// taxonomy is split per suite, the two 13-workload suites in half, so
/// the test harness runs the parts in parallel.
fn forks_bit_identically(suite: &str, part: impl Fn(usize) -> bool, traced_cells: usize) {
    let cfg = ExperimentConfig::default();
    let proto = ProtocolConfig::default();
    let workloads: Vec<WorkloadSpec> = flame::workloads::all()
        .into_iter()
        .filter(|w| w.suite == suite)
        .collect();
    assert!(!workloads.is_empty(), "unknown suite {suite:?}");
    let mut traced = 0;
    for (_, w) in workloads.into_iter().enumerate().filter(|(i, _)| part(*i)) {
        for scheme in Scheme::all() {
            let clean = run_scheme(&w, scheme, &cfg)
                .unwrap_or_else(|e| panic!("{} {scheme:?}: clean run failed: {e:?}", w.abbr));
            let cp = clean.stats.cycles / 2;
            if cp == 0 {
                continue;
            }

            // Strikes strictly inside [cp, clean_cycles): the regime the
            // runner's bucketing guarantees.
            let seed = 0xF0_4C00 ^ u64::from(w.abbr.len() as u32) ^ clean.stats.cycles;
            let mut gen = StrikeGenerator::new(seed, cfg.wcdl, cfg.gpu.num_sms)
                .with_coverage(0.8)
                .with_target_mix(0.2, 0.1);
            let strikes = gen.schedule_in(2, cp, clean.stats.cycles);

            let (mut gpu, _) = prepare_scheme(&w, scheme, &cfg).expect("prepare");
            let base = gpu.memory_base();
            let mut running = gpu.running();
            while running && gpu.cycle() < cp {
                running = gpu.step_window(cp);
            }
            assert!(running, "{} {scheme:?}: finished before midpoint", w.abbr);
            let snap = gpu.snapshot_delta(&base);

            let cell = format!("{} x {scheme:?}", w.abbr);
            let run = |trace: Option<usize>, fork_from: Option<&Snapshot>| {
                let opts = RunOptions {
                    trace,
                    fork_from,
                    ..RunOptions::default()
                };
                let forked = fork_from.is_some();
                run_with_protocol(&w, scheme, &cfg, &strikes, &proto, &opts).unwrap_or_else(|e| {
                    panic!("{cell} (trace {trace:?}, forked {forked}): run failed: {e:?}")
                })
            };
            let forked = run(None, Some(&snap));
            let scratch = run(None, None);

            assert_eq!(forked.fork.fork_cycle, cp, "{cell}: fork telemetry");
            assert_same_run(&cell, &forked, &scratch);

            if (w.abbr, scheme) != TRACED_CELL {
                continue;
            }
            traced += 1;
            assert!(
                forked.injected > 0,
                "{cell}: no strike landed after the fork"
            );
            let traced_scratch = run(Some(1 << 12), None);
            let traced_forked = run(Some(1 << 12), Some(&snap));
            assert_same_run(&format!("{cell} traced"), &traced_scratch, &scratch);
            assert_same_run(&format!("{cell} traced forked"), &traced_forked, &scratch);
            assert_eq!(traced_forked.fork.fork_cycle, cp, "{cell}: traced fork");

            // The forked timeline opens with exactly one restore, at the
            // checkpoint, and every strike lands after it.
            let trace = traced_forked.trace.as_ref().expect("tracing was enabled");
            let is_restore = |e: &Event| matches!(e, Event::SnapshotRestore { .. });
            assert_eq!(trace.filtered(is_restore).count(), 1, "{cell}: restores");
            let at = trace.events.iter().position(|e| is_restore(&e.ev)).unwrap();
            assert_eq!(
                trace.events[at].ev,
                Event::SnapshotRestore { cycle: cp },
                "{cell}: restore cycle"
            );
            assert!(
                !trace.events[..at]
                    .iter()
                    .any(|e| matches!(e.ev, Event::FaultStrike { .. })),
                "{cell}: a strike precedes the restore"
            );
        }
    }
    assert_eq!(
        traced, traced_cells,
        "{suite}: the traced cell was visited {traced} times, not {traced_cells}"
    );
}

#[test]
fn forked_runs_bit_identical_across_parboil() {
    forks_bit_identically("parboil", |_| true, 0);
}

#[test]
fn forked_runs_bit_identical_across_cuda_first_half() {
    forks_bit_identically("cuda", |i| i < 7, 0);
}

#[test]
fn forked_runs_bit_identical_across_cuda_second_half() {
    forks_bit_identically("cuda", |i| i >= 7, 0);
}

#[test]
fn forked_runs_bit_identical_across_npb() {
    forks_bit_identically("NPB", |_| true, 0);
}

/// The part holding [`TRACED_CELL`]: BP is the first rodinia workload.
#[test]
fn forked_runs_bit_identical_across_rodinia_first_half() {
    forks_bit_identically("rodinia", |i| i < 7, 1);
}

#[test]
fn forked_runs_bit_identical_across_rodinia_second_half() {
    forks_bit_identically("rodinia", |i| i >= 7, 0);
}

#[test]
fn forked_runs_bit_identical_across_altis() {
    forks_bit_identically("ALTIS", |_| true, 0);
}

#[test]
fn forked_runs_bit_identical_across_shoc() {
    forks_bit_identically("SHOC", |_| true, 0);
}

/// End-to-end through the campaign runner: a forked campaign produces
/// the same records as a scratch campaign — identical outcome histogram
/// and per-seed counters, differing only in fork telemetry — while
/// actually forking (and therefore simulating fewer cycles).
#[test]
fn forked_campaign_matches_scratch_campaign() {
    let w = flame::workloads::by_abbr("Triad").expect("known workload");
    let cfg = ExperimentConfig::default();
    let clean = run_scheme(&w, Scheme::SensorRenaming, &cfg).expect("clean run");
    let spec = CampaignSpec {
        base_seed: 0xF04C,
        runs: 16,
        strikes_per_run: 3,
        horizon: clean.stats.cycles,
        strike_window: (0.5, 1.0),
        fork_points: 6,
        coverage: 0.7,
        control_fraction: 0.15,
        recovery_fraction: 0.10,
        scheme: Scheme::SensorRenaming,
        cfg: cfg.clone(),
        proto: ProtocolConfig::default(),
        watchdog: 0,
        retry: RetryPolicy::default(),
        self_fault: SelfFault::default(),
    };
    let forked = run_campaign_runner_with_jobs(&w, &spec, None, 2).expect("forked campaign");
    let scratch = run_campaign_runner_with_jobs(
        &w,
        &CampaignSpec {
            fork_points: 0,
            ..spec.clone()
        },
        None,
        2,
    )
    .expect("scratch campaign");

    assert_eq!(forked.counts, scratch.counts, "outcome histograms differ");
    assert_eq!(forked.clean_cycles, scratch.clean_cycles);
    let strip = |r: &RunRecord| RunRecord {
        fork_cycle: 0,
        sim_cycles: 0,
        fork_hit: false,
        ..*r
    };
    let f: Vec<RunRecord> = forked.records.iter().map(strip).collect();
    let s: Vec<RunRecord> = scratch.records.iter().map(strip).collect();
    assert_eq!(f, s, "records differ beyond fork telemetry");
    // The replay `perfbench` makes: `run_one_seed` simulates a seed from
    // scratch and asks the workload's check, while the engine compares
    // with its baseline's clean image first.
    for (r, engine) in forked.records.iter().zip(&f) {
        assert_eq!(
            strip(&run_one_seed(&w, &spec, r.seed)),
            *engine,
            "seed {}: a scratch replay differs from the engine's record",
            r.seed
        );
    }

    // The fork path must actually engage and pay off: every strike sits
    // in the second half of the horizon, so the first checkpoint already
    // covers every seed.
    assert!(
        forked.records.iter().all(|r| r.fork_hit),
        "late-strike campaign left checkpoint misses"
    );
    assert!(
        scratch.records.iter().all(|r| !r.fork_hit),
        "scratch campaign claims forks"
    );
    let forked_sim: u64 = forked.records.iter().map(|r| r.sim_cycles).sum();
    let scratch_sim: u64 = scratch.records.iter().map(|r| r.sim_cycles).sum();
    assert!(
        forked_sim * 2 < scratch_sim,
        "forking saved too little: {forked_sim} vs {scratch_sim} cycles"
    );

    // The render agrees everywhere except the fork telemetry line.
    let fork_free = |s: &str| -> String {
        s.lines()
            .filter(|l| !l.starts_with("fork:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(fork_free(&forked.render()), fork_free(&scratch.render()));
    assert!(forked.render().contains("fork: forked_runs=16"));
    assert!(!scratch.render().contains("fork:"));
}
