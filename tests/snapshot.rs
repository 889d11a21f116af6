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
//!    34-workload × 11-scheme taxonomy, and end-to-end through the
//!    campaign runner (identical outcome histograms and records modulo
//!    fork telemetry).

use flame::core::experiment::{
    prepare_scheme, run_scheme, run_with_protocol_capturing, run_with_protocol_forked,
    ExperimentConfig, ProtocolConfig, WorkloadSpec,
};
use flame::core::runner::{
    run_campaign_runner_with_jobs, CampaignSpec, RetryPolicy, RunRecord, SelfFault,
};
use flame::core::scheme::Scheme;
use flame::sensors::fault::StrikeGenerator;
use flame::sim::rng::Rng64;
use flame::workloads::fuzz;
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
                gpu.global().words(),
                ref_mem.words(),
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
            gpu.global().words(),
            ref_mem.words(),
            "seed {seed:#x}: memory diverged after restore"
        );
    }
}

/// Forked fault runs are bit-identical to from-scratch runs across the
/// entire workload × scheme taxonomy: every protocol counter, the final
/// stats, the output flag, and the final memory image.
#[test]
fn forked_runs_bit_identical_across_taxonomy() {
    let cfg = ExperimentConfig::default();
    let proto = ProtocolConfig::default();
    for w in flame::workloads::all() {
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

            let (forked, fmem, tele) =
                run_with_protocol_forked(&w, scheme, &cfg, &strikes, &proto, Some(&snap))
                    .unwrap_or_else(|e| panic!("{} {scheme:?}: forked run failed: {e:?}", w.abbr));
            let (scratch, smem) = run_with_protocol_capturing(&w, scheme, &cfg, &strikes, &proto)
                .unwrap_or_else(|e| panic!("{} {scheme:?}: scratch run failed: {e:?}", w.abbr));

            let cell = format!("{} x {scheme:?}", w.abbr);
            assert_eq!(tele.fork_cycle, cp, "{cell}: fork telemetry");
            assert_eq!(forked.run.stats, scratch.run.stats, "{cell}: stats");
            assert_eq!(
                forked.run.output_ok, scratch.run.output_ok,
                "{cell}: output"
            );
            assert_eq!(forked.injected, scratch.injected, "{cell}: injected");
            assert_eq!(forked.corrupted, scratch.corrupted, "{cell}: corrupted");
            assert_eq!(
                forked.pc_corruptions, scratch.pc_corruptions,
                "{cell}: pc corruptions"
            );
            assert_eq!(
                forked.recovery_corruptions, scratch.recovery_corruptions,
                "{cell}: recovery corruptions"
            );
            assert_eq!(forked.detections, scratch.detections, "{cell}: detections");
            assert_eq!(forked.undetected, scratch.undetected, "{cell}: undetected");
            assert_eq!(forked.recoveries, scratch.recoveries, "{cell}: recoveries");
            assert_eq!(
                forked.nested_detections, scratch.nested_detections,
                "{cell}: nested"
            );
            assert_eq!(
                forked.cta_relaunches, scratch.cta_relaunches,
                "{cell}: cta relaunches"
            );
            assert_eq!(
                forked.kernel_relaunches, scratch.kernel_relaunches,
                "{cell}: kernel relaunches"
            );
            assert_eq!(
                forked.watchdog_fired, scratch.watchdog_fired,
                "{cell}: watchdog"
            );
            assert_eq!(forked.timed_out, scratch.timed_out, "{cell}: timeout");
            assert_eq!(
                flame::core::classify(&forked),
                flame::core::classify(&scratch),
                "{cell}: outcome"
            );
            assert_eq!(fmem.words(), smem.words(), "{cell}: final memory image");
        }
    }
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
