//! Integration tests for the crash-tolerant sharded campaign
//! supervisor: however a campaign is split into lease-claimed shards,
//! killed, reclaimed, corrupted, and resumed, the merged report must be
//! **bit-identical** to a single-process serial run of the same spec —
//! and the per-seed robustness layer (retry/backoff, poison-seed
//! quarantine) must hold on both paths.

use flame::core::experiment::{ExperimentConfig, ProtocolConfig, WorkloadSpec};
use flame::core::runner::{run_campaign_runner_with_jobs, CampaignSpec, RetryPolicy, SelfFault};
use flame::core::scheme::Scheme;
use flame::core::shard::{
    lease_path, merge_shards, run_shard_worker, run_sharded_campaign, ShardOptions,
};
use flame::core::Outcome;
use flame::sim::builder::KernelBuilder;
use flame::sim::isa::{MemSpace, Special};
use flame::sim::sm::LaunchDims;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Out-of-place arithmetic kernel (reads never alias writes), small
/// enough that a full campaign is cheap but large enough that strikes
/// produce a mixed outcome histogram.
fn workload(ctas: u32, threads: u32) -> WorkloadSpec {
    const OUT: i64 = 4096 * 16;
    let mut b = KernelBuilder::new("shardw");
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
        name: "shardw",
        abbr: "SHRD",
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

fn spec(runs: usize) -> CampaignSpec {
    CampaignSpec {
        base_seed: 0x51AD,
        runs,
        strikes_per_run: 3,
        horizon: 700,
        strike_window: (0.0, 1.0),
        fork_points: 8,
        coverage: 0.6,
        control_fraction: 0.2,
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

/// Journal appends fsync every record; on hosts where the default temp
/// dir sits on a disk-backed filesystem that cost dwarfs the simulation
/// under test, so prefer a tmpfs when one is mounted.
fn fast_tmp() -> PathBuf {
    let shm = PathBuf::from("/dev/shm");
    if shm.is_dir() {
        shm
    } else {
        std::env::temp_dir()
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = fast_tmp().join(format!("flame_shard_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn opts(tag: &str, shards: usize, ttl_ms: u64) -> ShardOptions {
    let ttl = Duration::from_millis(ttl_ms);
    ShardOptions {
        worker_id: format!("it-{tag}"),
        lease_ttl: ttl,
        ..ShardOptions::new(shards)
    }
}

/// Acceptance: a sharded campaign merges to a report byte-identical to
/// the unsharded serial run — same records, same render — and running
/// it again over the kept shard journals is a no-op resume.
#[test]
fn sharded_campaign_is_bit_identical_to_serial() {
    let w = workload(16, 128);
    let s = spec(12);
    let serial = run_campaign_runner_with_jobs(&w, &s, None, 2).unwrap();

    let dir = tmp_dir("identical");
    let o = opts("identical", 3, 5_000);
    let sharded = run_sharded_campaign(&w, &s, &dir, &o, 2).unwrap();
    assert_eq!(sharded.ran_now, 12, "every seed should run exactly once");
    assert_eq!(sharded.records, serial.records);
    assert_eq!(sharded.counts, serial.counts);
    assert_eq!(sharded.clean_cycles, serial.clean_cycles);
    assert_eq!(
        sharded.render(),
        serial.render(),
        "sharded merge is not byte-identical to the serial report"
    );

    // The journals survive completion; a re-run resumes and runs nothing.
    let again = run_sharded_campaign(&w, &s, &dir, &o, 2).unwrap();
    assert_eq!(again.ran_now, 0, "completed campaign re-ran seeds");
    assert_eq!(again.render(), serial.render());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker that dies mid-shard without releasing its lease (the
/// in-process stand-in for a killed worker) leaves a stale lease that a
/// later worker reclaims — and the finished campaign still merges
/// bit-identically to serial.
#[test]
fn abandoned_shard_is_reclaimed_by_a_later_worker() {
    let w = workload(16, 128);
    let s = spec(10);
    let serial = run_campaign_runner_with_jobs(&w, &s, None, 2).unwrap();

    let dir = tmp_dir("reclaim");
    std::fs::create_dir_all(&dir).unwrap();
    let mut first = opts("dead", 2, 300);
    first.abandon_after = Some(3);
    let rep = run_shard_worker(&w, &s, &dir, &first).unwrap();
    assert_eq!(rep.seeds_run, 3, "worker should die after 3 seeds");
    // The dead worker's lease is still on disk, unreleased.
    assert!(lease_path(&dir, rep.shards_claimed - 1).exists());
    let (_, missing) = merge_shards(w.name, &s, &dir, 2, serial.clean_cycles).unwrap();
    assert!(!missing.is_empty(), "campaign should be incomplete");

    // A second worker must wait out the stale TTL, reclaim, and finish
    // the whole campaign (this is the campaign-level watchdog).
    let second = opts("reviver", 2, 300);
    let rep2 = run_shard_worker(&w, &s, &dir, &second).unwrap();
    assert_eq!(rep.seeds_run + rep2.seeds_run, 10);

    let (merged, missing) = merge_shards(w.name, &s, &dir, 2, serial.clean_cycles).unwrap();
    assert!(missing.is_empty());
    assert_eq!(merged.records, serial.records);
    assert_eq!(merged.render(), serial.render());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupted lease files (torn writes, disk scribbles) must never lose
/// seeds or wedge the campaign: a corrupt lease is claimable, and the
/// epoch markers keep fencing monotonic through the corruption.
#[test]
fn corrupt_lease_files_cannot_lose_seeds() {
    let w = workload(16, 128);
    let s = spec(8);
    let serial = run_campaign_runner_with_jobs(&w, &s, None, 2).unwrap();

    let dir = tmp_dir("corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let mut first = opts("victim", 2, 30_000);
    first.abandon_after = Some(2);
    run_shard_worker(&w, &s, &dir, &first).unwrap();
    // Scribble over both leases: one with binary junk, one truncated.
    std::fs::write(lease_path(&dir, 0), b"\x00\xffnot json\x7f").unwrap();
    std::fs::write(lease_path(&dir, 1), "{\"flame_lease\":1,\"ow").unwrap();

    // Despite a 30 s TTL, the corrupt leases are immediately claimable:
    // the merge must not wait out the TTL of either epoch marker.
    let o = opts("corrupt", 2, 30_000);
    let started = Instant::now();
    let merged = run_sharded_campaign(&w, &s, &dir, &o, 2).unwrap();
    let took = started.elapsed();
    assert!(
        took < o.lease_ttl / 2,
        "a corrupt lease held its shard: the merge took {took:?}"
    );
    assert_eq!(merged.records, serial.records);
    assert_eq!(merged.render(), serial.render());
    let _ = std::fs::remove_dir_all(&dir);
}

/// When every worker dies faster than it can be replaced, the
/// supervisor degrades to serial execution and still completes the
/// campaign bit-identically.
#[test]
fn supervisor_degrades_to_serial_when_all_workers_die() {
    let w = workload(16, 128);
    let s = spec(9);
    let serial = run_campaign_runner_with_jobs(&w, &s, None, 2).unwrap();

    let dir = tmp_dir("degrade");
    let mut o = opts("mayfly", 3, 250);
    // Every spawned worker dies after one seed, lease unreleased.
    o.abandon_after = Some(1);
    let merged = run_sharded_campaign(&w, &s, &dir, &o, 2).unwrap();
    assert_eq!(merged.ran_now, 9, "degraded campaign lost or re-ran seeds");
    assert_eq!(merged.records, serial.records);
    assert_eq!(merged.render(), serial.render());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A seed that panics on every attempt is quarantined as `Due` with the
/// `quarantined` flag after the retry budget — without stalling its
/// shard — and serial and sharded runs agree on the quarantine record
/// bit for bit.
#[test]
fn poison_seed_is_quarantined_identically_on_both_paths() {
    let w = workload(16, 128);
    let mut s = spec(8);
    let poison = s.base_seed + 3;
    s.self_fault = SelfFault {
        poison: vec![poison],
        flaky: vec![],
    };
    let serial = run_campaign_runner_with_jobs(&w, &s, None, 2).unwrap();
    assert_eq!(serial.records.len(), 8, "poison seed stalled the campaign");
    let q = serial.records.iter().find(|r| r.seed == poison).unwrap();
    assert!(q.quarantined, "exhausted seed not flagged");
    assert_eq!(q.outcome, Outcome::Due, "quarantine must count as Due");
    assert_eq!(
        q.attempts,
        u64::from(s.retry.max_attempts),
        "quarantine before exhausting the retry budget"
    );
    assert!(
        serial.render().contains("quarantined_runs=1"),
        "report must surface the quarantine"
    );

    let dir = tmp_dir("poison");
    let o = opts("poison", 2, 5_000);
    let sharded = run_sharded_campaign(&w, &s, &dir, &o, 2).unwrap();
    assert_eq!(sharded.records, serial.records);
    assert_eq!(sharded.render(), serial.render());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Property: resuming after the journal tail is cut at **every** byte
/// offset of the last record — not just one truncation point — repairs
/// the journal and reproduces the reference report byte-identically,
/// re-running exactly the truncated seed (or nothing, when the cut
/// leaves the record complete) and never losing or duplicating one.
#[test]
fn resume_repairs_truncation_at_every_byte_offset() {
    let w = workload(2, 32);
    let s = CampaignSpec {
        runs: 2,
        horizon: 300,
        fork_points: 0,
        ..spec(2)
    };
    let reference = run_campaign_runner_with_jobs(&w, &s, None, 1).unwrap();

    let seed_path = fast_tmp().join(format!(
        "flame_shard_truncprop_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&seed_path);
    run_campaign_runner_with_jobs(&w, &s, Some(&seed_path), 1).unwrap();
    let text = std::fs::read_to_string(&seed_path).unwrap();
    let _ = std::fs::remove_file(&seed_path);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1 + 2);
    let intact: String = lines[..lines.len() - 1].join("\n");
    let last = lines[lines.len() - 1];

    // Every offset is an independent journal; sweep them on a small
    // thread pool.
    let check_offset = |cut: usize| {
        let path = fast_tmp().join(format!(
            "flame_shard_truncprop_{}_{cut}.jsonl",
            std::process::id()
        ));
        let mut journal = intact.clone();
        journal.push('\n');
        journal.push_str(&last[..cut]);
        std::fs::write(&path, &journal).unwrap();

        let resumed = run_campaign_runner_with_jobs(&w, &s, Some(&path), 1).unwrap();
        // Only the untruncated record still parses; every proper prefix
        // must re-run exactly the one cut seed.
        let expect = usize::from(cut < last.len());
        assert_eq!(
            resumed.ran_now,
            expect,
            "cut at byte {cut} of {}",
            last.len()
        );
        assert_eq!(resumed.records, reference.records, "cut at byte {cut}");
        assert_eq!(
            resumed.render(),
            reference.render(),
            "resume after cut at byte {cut} is not byte-identical"
        );

        // The resume must also have *repaired* the file on disk: the
        // partial line is newline-terminated (dead but harmless) and the
        // re-run record appended after it, so reparsing yields exactly
        // the campaign's seeds with nothing lost or duplicated.
        let repaired = std::fs::read_to_string(&path).unwrap();
        assert!(repaired.ends_with('\n'), "unterminated tail at byte {cut}");
        let seeds: Vec<u64> = repaired
            .lines()
            .skip(1)
            .filter_map(flame::core::runner::RunRecord::parse)
            .map(|r| r.seed)
            .collect();
        assert_eq!(
            seeds,
            vec![s.base_seed, s.base_seed + 1],
            "repaired journal wrong at byte {cut}"
        );

        // A full second resume (the expensive gold check) at the
        // interesting offsets: nothing cut, first byte, mid-record,
        // one byte short.
        if [0, 1, last.len() / 2, last.len() - 1, last.len()].contains(&cut) {
            let again = run_campaign_runner_with_jobs(&w, &s, Some(&path), 1).unwrap();
            assert_eq!(again.ran_now, 0, "journal left unrepaired at byte {cut}");
            assert_eq!(again.render(), reference.render(), "cut at byte {cut}");
        }
        let _ = std::fs::remove_file(&path);
    };
    let offsets: Vec<usize> = (0..=last.len()).collect();
    let pool = 8;
    std::thread::scope(|scope| {
        for chunk in offsets.chunks(offsets.len().div_ceil(pool)) {
            scope.spawn(|| chunk.iter().for_each(|&cut| check_offset(cut)));
        }
    });
}

/// A transiently-failing seed (fails its first attempts, then works) is
/// retried with backoff and lands the same outcome as an uninjected
/// run — only the `attempts` telemetry differs.
#[test]
fn flaky_seed_retries_to_the_clean_outcome() {
    let w = workload(16, 128);
    let clean_spec = spec(6);
    let clean = run_campaign_runner_with_jobs(&w, &clean_spec, None, 2).unwrap();

    let flaky_seed = clean_spec.base_seed + 2;
    let mut s = spec(6);
    s.self_fault = SelfFault {
        poison: vec![],
        flaky: vec![(flaky_seed, 2)],
    };
    let summary = run_campaign_runner_with_jobs(&w, &s, None, 2).unwrap();
    let r = summary
        .records
        .iter()
        .find(|r| r.seed == flaky_seed)
        .unwrap();
    assert_eq!(r.attempts, 3, "two injected failures then success");
    assert!(!r.quarantined);
    assert!(!r.crashed);
    let c = clean.records.iter().find(|r| r.seed == flaky_seed).unwrap();
    assert_eq!(r.outcome, c.outcome, "retry changed the seed's outcome");
    assert_eq!(
        summary.counts, clean.counts,
        "histogram drifted under retries"
    );
    assert!(
        summary.render().contains("retried_runs=1 extra_attempts=2"),
        "report must surface the retries: {}",
        summary.render()
    );
}
