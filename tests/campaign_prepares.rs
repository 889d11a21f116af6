//! A sharded campaign simulates its clean baseline once, like the serial
//! runner: the merge only reads journals, and the summary's clean cycles
//! come from the baseline the shard workers forked from.
//!
//! This is a test binary of its own because `prepare_count()` is
//! process-wide: any other campaign running in the same process would
//! move it.

use flame::core::experiment::{prepare_count, ExperimentConfig, ProtocolConfig, WorkloadSpec};
use flame::core::runner::{run_campaign_runner_with_jobs, CampaignSpec, RetryPolicy, SelfFault};
use flame::core::scheme::Scheme;
use flame::core::shard::{run_sharded_campaign, ShardOptions};
use flame::sim::builder::KernelBuilder;
use flame::sim::isa::{MemSpace, Special};
use flame::sim::sm::LaunchDims;
use std::sync::Arc;
use std::time::Duration;

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

#[test]
fn sharded_campaign_prepares_as_often_as_serial() {
    let w = workload();
    let spec = CampaignSpec {
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
    };

    let before = prepare_count();
    let serial = run_campaign_runner_with_jobs(&w, &spec, None, 2).unwrap();
    let serial_prepares = prepare_count() - before;

    let dir = std::env::temp_dir().join(format!("flame_prepares_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ShardOptions {
        worker_id: "prepares".to_string(),
        lease_ttl: Duration::from_secs(5),
        ..ShardOptions::new(3)
    };
    let before = prepare_count();
    let sharded = run_sharded_campaign(&w, &spec, &dir, &opts, 2).unwrap();
    let sharded_prepares = prepare_count() - before;
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(sharded.render(), serial.render());
    assert_eq!(
        sharded_prepares, serial_prepares,
        "a sharded campaign simulated more than the serial runner (baseline re-run by the merge?)"
    );
}
