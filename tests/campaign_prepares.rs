//! What a campaign simulates, counted by the process-wide prepare
//! counter: a sharded campaign simulates its clean baseline once, like
//! the serial runner (the merge only reads journals, and the summary's
//! clean cycles come from the baseline the shard workers forked from),
//! and a campaign whose clean run the process's baseline memo already
//! holds simulates none, without changing a bit of its records. Two
//! campaign submissions on one catalog workload share that memo.
//!
//! This is a test binary of its own because `prepare_count()` is
//! process-wide: any other campaign running in the same process would
//! move it. The tests share a [`Mutex`] for the same reason.

use flame::core::experiment::{prepare_count, ExperimentConfig, ProtocolConfig, WorkloadSpec};
use flame::core::runner::{
    run_campaign_runner_with_jobs, run_one_seed, CampaignSpec, CampaignSummary, RetryPolicy,
    SelfFault,
};
use flame::core::scheme::Scheme;
use flame::core::shard::{run_sharded_campaign, ShardOptions};
use flame::serve::parse_campaign_request;
use flame::sim::builder::KernelBuilder;
use flame::sim::isa::{MemSpace, Special};
use flame::sim::sm::LaunchDims;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static LOCK: Mutex<()> = Mutex::new(());

/// A small out-of-place arithmetic kernel: cheap seeds, mixed outcomes.
fn workload() -> WorkloadSpec {
    const N: u64 = 8 * 64;
    const OUT: i64 = 4096 * 16;
    let mut b = KernelBuilder::new("prepw");
    let tid = b.special(Special::TidX);
    let cta = b.special(Special::CtaIdX);
    let ntid = b.special(Special::NTidX);
    let gid = b.imad(cta, ntid, tid);
    let a = b.imul(gid, 8);
    let v = b.ld_arr(MemSpace::Global, 0, a, 0);
    let mut acc = v;
    for i in 0..8 {
        acc = b.iadd(acc, i);
    }
    b.st_arr(MemSpace::Global, 0, a, acc, OUT);
    b.exit();
    WorkloadSpec {
        name: "prepw",
        abbr: "PREP",
        suite: "test",
        kernel: b.finish(),
        dims: LaunchDims::linear(8, 64),
        init: Arc::new(|m| {
            for i in 0..N {
                m.write(i * 8, i);
            }
        }),
        check: Arc::new(|m| (0..N).all(|i| m.read(OUT as u64 + i * 8) == i + 28)),
    }
}

/// The campaign every test starts from.
fn spec() -> CampaignSpec {
    CampaignSpec {
        base_seed: 0xBA5E,
        runs: 6,
        strikes_per_run: 2,
        horizon: 500,
        strike_window: (0.0, 1.0),
        fork_points: 4,
        coverage: 0.8,
        control_fraction: 0.1,
        recovery_fraction: 0.1,
        scheme: Scheme::SensorRenaming,
        cfg: ExperimentConfig {
            max_cycles: 20_000_000,
            ..ExperimentConfig::default()
        },
        proto: ProtocolConfig::default(),
        watchdog: 0,
        retry: RetryPolicy::default(),
        self_fault: SelfFault::default(),
    }
}

/// A serial campaign and the number of preparations it performed: one
/// per seed (none of these seeds retries or relaunches its kernel), plus
/// one when it simulated its baseline.
fn counted(w: &WorkloadSpec, spec: &CampaignSpec) -> (CampaignSummary, u64) {
    let before = prepare_count();
    let summary = run_campaign_runner_with_jobs(w, spec, None, 2).unwrap();
    (summary, prepare_count() - before)
}

#[test]
fn sharded_campaign_prepares_as_often_as_serial() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let spec = spec();

    // Each campaign gets its own workload instance, so neither reuses
    // the other's baseline from the memo.
    let before = prepare_count();
    let serial = run_campaign_runner_with_jobs(&workload(), &spec, None, 2).unwrap();
    let serial_prepares = prepare_count() - before;

    let dir = std::env::temp_dir().join(format!("flame_prepares_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ShardOptions {
        worker_id: "prepares".to_string(),
        lease_ttl: Duration::from_secs(5),
        ..ShardOptions::new(3)
    };
    let before = prepare_count();
    let sharded = run_sharded_campaign(&workload(), &spec, &dir, &opts, 2).unwrap();
    let sharded_prepares = prepare_count() - before;
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(sharded.render(), serial.render());
    assert_eq!(
        sharded_prepares, serial_prepares,
        "a sharded campaign simulated more than the serial runner (baseline re-run by the merge?)"
    );
}

/// A campaign whose clean run the memo holds (same workload closures,
/// kernel, geometry, scheme, config and fork grid) simulates only its
/// seeds, whatever its coverage and seeds; a change to any of those
/// simulates the baseline again. Either way its records and report
/// equal those of a campaign on a freshly built workload.
#[test]
fn memoized_baseline_hits_misses_and_changes_no_bit() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let w = workload();
    let spec = spec();
    let other = CampaignSpec {
        base_seed: spec.base_seed + 100,
        coverage: 0.5,
        ..spec.clone()
    };
    let same_as_fresh = |what: &str, summary: &CampaignSummary, spec: &CampaignSpec| {
        let fresh = run_campaign_runner_with_jobs(&workload(), spec, None, 2).unwrap();
        assert_eq!(summary.records, fresh.records, "{what}: records");
        assert_eq!(summary.render(), fresh.render(), "{what}: report");
    };

    let (_, prepares) = counted(&w, &spec);
    assert_eq!(prepares, spec.runs as u64 + 1, "the first campaign");

    let (clone, rebuilt) = (w.clone(), workload());
    let cases = [
        ("the same workload", &w, other.clone(), 0),
        ("a clone", &clone, other.clone(), 0),
        ("a freshly built workload", &rebuilt, other.clone(), 1),
        (
            "other fork points",
            &w,
            CampaignSpec {
                fork_points: 3,
                ..other.clone()
            },
            1,
        ),
        (
            "another wcdl",
            &w,
            CampaignSpec {
                cfg: ExperimentConfig {
                    wcdl: 40,
                    ..other.cfg.clone()
                },
                ..other.clone()
            },
            1,
        ),
        (
            "another scheme",
            &w,
            CampaignSpec {
                scheme: Scheme::SensorCheckpointing,
                ..other.clone()
            },
            1,
        ),
    ];
    for (what, wl, variant, baselines) in cases {
        // The memo holds `w`'s baseline again before each case.
        counted(&w, &spec);
        let (summary, prepares) = counted(wl, &variant);
        assert_eq!(
            prepares,
            variant.runs as u64 + baselines,
            "{what} at another coverage and base seed: {baselines} baseline simulations expected"
        );
        same_as_fresh(what, &summary, &variant);
    }
}

/// Two submissions on one catalog workload that differ only in coverage
/// and base seed resolve to catalog entries sharing their closures, so
/// the second campaign takes its clean run from the memo and simulates
/// only its seeds.
#[test]
fn submissions_on_one_workload_share_the_baseline_memo() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let submit = |coverage: f64, base_seed: u64| {
        parse_campaign_request(&format!(
            r#"{{"workload":"Triad","scheme":"flame","runs":4,"horizon":5000,"coverage":{coverage},"base_seed":{base_seed}}}"#
        ))
        .unwrap()
    };
    let (first, second) = (submit(0.9, 1), submit(0.5, 101));
    counted(&first.workload, &first.spec);
    let (_, prepares) = counted(&second.workload, &second.spec);
    assert_eq!(
        prepares, second.spec.runs as u64,
        "the second submission simulated its clean run again"
    );
}

/// A seed replayed from scratch copies the memoized baseline's seeded
/// inputs instead of calling `init`, and returns the record a freshly
/// built workload, which calls `init`, returns.
#[test]
fn replay_with_memoized_inputs_matches_a_fresh_instance() {
    let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let seeded = Arc::new(AtomicUsize::new(0));
    let w = {
        let mut w = workload();
        let (init, seeded) = (Arc::clone(&w.init), Arc::clone(&seeded));
        w.init = Arc::new(move |m| {
            seeded.fetch_add(1, Ordering::Relaxed);
            init(m);
        });
        w
    };
    let spec = spec();
    let campaign = run_campaign_runner_with_jobs(&w, &spec, None, 2).unwrap();
    assert_eq!(seeded.load(Ordering::Relaxed), 1, "the baseline seeds once");
    for r in &campaign.records {
        let replay = run_one_seed(&w, &spec, r.seed);
        assert_eq!(
            seeded.load(Ordering::Relaxed),
            1,
            "seed {}: a replay under a memoized key called init",
            r.seed
        );
        assert_eq!(
            replay,
            run_one_seed(&workload(), &spec, r.seed),
            "seed {}: inputs copied from the memo changed the record",
            r.seed
        );
    }
}
