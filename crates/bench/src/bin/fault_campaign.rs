//! Fault-campaign driver: coverage-vs-outcome sweeps and the
//! deterministic smoke campaign `scripts/verify.sh` asserts on.
//!
//! ```text
//! fault_campaign                  # coverage sweep on the built-in kernel
//! fault_campaign --workload LUD   # sweep a suite workload
//! fault_campaign --runs 400       # more seeds per coverage point
//! fault_campaign --fork-points 0  # disable fork-point acceleration
//! fault_campaign smoke            # pinned-histogram + resume smoke test
//! fault_campaign fork-smoke       # fork on/off histogram equality check
//! fault_campaign bench-fork       # late-strike speedup -> target/bench-fork.json
//! fault_campaign --shards 4 --kill-after 2
//!                                 # crash drill: SIGKILL + abort shard
//!                                 # workers mid-campaign, resume, diff
//!                                 # the merged histogram vs serial
//! fault_campaign shard-worker --dir D --shards N --worker-id ID
//!                                 # one lease-claiming shard worker
//!                                 # process (spawned by the drill)
//! ```
//!
//! The sweep bombards one workload at several sensor-coverage levels and
//! prints the outcome taxonomy per level with Wilson 95% intervals — the
//! coverage-vs-SDC-rate curve. The smoke mode runs a small campaign
//! three ways (in memory, journaled, and resumed from a truncated
//! journal), asserts all three render byte-identically, and pins the
//! outcome histogram; any mismatch exits nonzero.
//!
//! Fault runs fork from clean-prefix checkpoints by default (the runner
//! snapshots the fault-free baseline at a grid of fork-point cycles and
//! each seed resumes from the last checkpoint before its first strike);
//! `--fork-points 0` falls back to scratch simulation. Outcomes are
//! bit-identical either way — `fork-smoke` asserts exactly that.

use flame_bench::BenchEnv;
use flame_core::experiment::{run_scheme, ExperimentConfig, ProtocolConfig, WorkloadSpec};
use flame_core::runner::{
    run_campaign_runner_with_jobs, CampaignSpec, CampaignSummary, RetryPolicy, SelfFault,
};
use flame_core::scheme::Scheme;
use flame_core::shard::{merge_shards, run_shard_worker, run_sharded_campaign, ShardOptions};
use flame_core::Outcome;
use gpu_sim::builder::KernelBuilder;
use gpu_sim::isa::{MemSpace, Special};
use gpu_sim::sm::LaunchDims;
use std::sync::Arc;

/// A small arithmetic kernel (64 CTAs x 128 threads) whose output check
/// is bit-exact: any undetected in-flight corruption that reaches the
/// store shows up as SDC.
fn smoke_workload() -> WorkloadSpec {
    let mut b = KernelBuilder::new("smoke");
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
    b.st_arr(MemSpace::Global, 0, a, acc, 0);
    b.exit();
    WorkloadSpec {
        name: "smoke",
        abbr: "SMOKE",
        suite: "campaign",
        kernel: b.finish(),
        dims: LaunchDims::linear(64, 128),
        init: Arc::new(|m| {
            for i in 0..8192u64 {
                m.write(i * 8, i);
            }
        }),
        check: Arc::new(|m| (0..8192u64).all(|i| m.read(i * 8) == i + 66)),
    }
}

/// Fork points checkpointed across the strike window unless overridden
/// with `--fork-points`.
const DEFAULT_FORK_POINTS: usize = 8;

fn spec_for(
    env: &BenchEnv,
    cfg: &ExperimentConfig,
    horizon: u64,
    coverage: f64,
    runs: usize,
) -> CampaignSpec {
    env.apply(CampaignSpec {
        base_seed: 0x5EED,
        runs,
        strikes_per_run: 3,
        horizon,
        strike_window: (0.0, 1.0),
        fork_points: DEFAULT_FORK_POINTS,
        coverage,
        control_fraction: 0.15,
        recovery_fraction: 0.10,
        scheme: Scheme::SensorRenaming,
        cfg: cfg.clone(),
        proto: ProtocolConfig::default(),
        watchdog: 0,
        retry: RetryPolicy::default(),
        self_fault: SelfFault::default(),
    })
}

fn sweep(env: &BenchEnv, w: &WorkloadSpec, runs: usize, fork_points: usize) {
    let cfg = ExperimentConfig {
        max_cycles: 20_000_000,
        ..ExperimentConfig::default()
    };
    let clean = run_scheme(w, Scheme::SensorRenaming, &cfg).expect("clean run failed");
    let horizon = clean.stats.cycles * 3 / 4;
    println!(
        "Fault campaign — {} ({} runs x 3 strikes per coverage level, horizon {} cycles)\n",
        w.name, runs, horizon
    );
    println!(
        "{:>8}  {:>6} {:>9} {:>5} {:>4} {:>5}   {:<30}",
        "coverage", "masked", "recovered", "sdc", "due", "hang", "sdc rate [95% CI]"
    );
    for &coverage in &[1.0, 0.95, 0.85, 0.70, 0.50] {
        let spec = CampaignSpec {
            fork_points,
            ..spec_for(env, &cfg, horizon, coverage, runs)
        };
        let s = run_campaign_runner_with_jobs(w, &spec, None, env.jobs).expect("campaign failed");
        let k = s.count(Outcome::Sdc);
        let (lo, hi) = flame_core::wilson_interval(k, s.records.len(), 1.96);
        println!(
            "{:>8.2}  {:>6} {:>9} {:>5} {:>4} {:>5}   {:.4} [{:.4}, {:.4}]",
            coverage,
            s.count(Outcome::Masked),
            s.count(Outcome::DetectedRecovered),
            k,
            s.count(Outcome::Due),
            s.count(Outcome::Hang),
            s.rate(Outcome::Sdc),
            lo,
            hi
        );
    }
    println!(
        "\npipeline strikes are always recoverable at full coverage; coverage gaps\n\
         and control-flow/recovery-hardware hits are what convert strikes to SDCs."
    );
}

const SMOKE_RUNS: usize = 24;
const SMOKE_COVERAGE: f64 = 0.625;

/// The report the smoke campaign must reproduce byte-for-byte. The
/// campaign is deterministic; any drift means the fault model, the
/// protocol, or the runner changed behaviour. Legitimate changes
/// regenerate the golden with `FLAME_UPDATE_GOLDEN=1 fault_campaign
/// smoke` and commit the diff for review.
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/fault_smoke_golden.txt"
);

fn fail(msg: &str) -> ! {
    eprintln!("SMOKE FAILED: {msg}");
    std::process::exit(1);
}

fn check_same(label: &str, a: &CampaignSummary, b: &CampaignSummary) {
    if a.records != b.records || a.render() != b.render() {
        eprintln!(
            "--- expected ---\n{}\n--- got ---\n{}",
            a.render(),
            b.render()
        );
        fail(label);
    }
}

fn smoke(env: &BenchEnv) {
    let w = smoke_workload();
    let cfg = ExperimentConfig {
        max_cycles: 20_000_000,
        ..ExperimentConfig::default()
    };
    let clean = run_scheme(&w, Scheme::SensorRenaming, &cfg).expect("clean run failed");
    let spec = spec_for(
        env,
        &cfg,
        clean.stats.cycles * 3 / 4,
        SMOKE_COVERAGE,
        SMOKE_RUNS,
    );

    // 1. In-memory reference run, pinned against the committed golden
    //    report (or regenerating it when FLAME_UPDATE_GOLDEN=1).
    let reference = run_campaign_runner_with_jobs(&w, &spec, None, env.jobs)
        .expect("reference campaign failed");
    println!("{}", reference.render());
    if std::env::var("FLAME_UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(GOLDEN_PATH, reference.render())
            .unwrap_or_else(|e| fail(&format!("cannot write golden {GOLDEN_PATH}: {e}")));
        println!("golden report regenerated at {GOLDEN_PATH}");
    } else {
        let golden = std::fs::read_to_string(GOLDEN_PATH).unwrap_or_else(|e| {
            fail(&format!(
                "cannot read golden {GOLDEN_PATH}: {e}\n\
                 (regenerate with FLAME_UPDATE_GOLDEN=1 fault_campaign smoke)"
            ))
        });
        if reference.render() != golden {
            eprintln!(
                "--- golden ({GOLDEN_PATH}) ---\n{golden}\n--- got ---\n{}",
                reference.render()
            );
            fail(
                "smoke report drifted from the golden file \
                 (if intentional: FLAME_UPDATE_GOLDEN=1 fault_campaign smoke)",
            );
        }
    }

    // 2. Journaled run: same summary, journal fully populated.
    let path = std::env::temp_dir().join(format!("flame_fault_smoke_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let journaled = run_campaign_runner_with_jobs(&w, &spec, Some(&path), env.jobs)
        .expect("journaled campaign failed");
    check_same(
        "journaled run diverged from in-memory run",
        &reference,
        &journaled,
    );

    // 3. Kill simulation: keep the header, 9 complete records and a
    //    half-written tail line, then resume. The resumed summary must be
    //    byte-identical and must have re-run exactly the missing seeds
    //    (including the truncated one).
    let text = std::fs::read_to_string(&path).expect("journal unreadable");
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != 1 + SMOKE_RUNS {
        fail(&format!(
            "journal has {} lines, expected {}",
            lines.len(),
            1 + SMOKE_RUNS
        ));
    }
    let mut truncated: String = lines[..10].join("\n");
    truncated.push('\n');
    truncated.push_str(&lines[10][..lines[10].len() / 2]);
    std::fs::write(&path, truncated).expect("journal truncation failed");
    let resumed = run_campaign_runner_with_jobs(&w, &spec, Some(&path), env.jobs)
        .expect("resumed campaign failed");
    if resumed.ran_now != SMOKE_RUNS - 9 {
        fail(&format!(
            "resume re-ran {} seeds, expected {}",
            resumed.ran_now,
            SMOKE_RUNS - 9
        ));
    }
    check_same(
        "resumed run diverged from in-memory run",
        &reference,
        &resumed,
    );

    // 4. Second resume over the repaired journal: the truncated tail
    //    must have been newline-terminated on disk, or the record
    //    appended after it merges into a parseable hybrid line whose
    //    seed dedups the correct re-run away. Nothing should re-run and
    //    the report must still match.
    let again = run_campaign_runner_with_jobs(&w, &spec, Some(&path), env.jobs)
        .expect("second resume failed");
    if again.ran_now != 0 {
        fail(&format!(
            "second resume re-ran {} seeds, expected 0",
            again.ran_now
        ));
    }
    check_same("journal poisoned by the truncated tail", &reference, &again);
    let _ = std::fs::remove_file(&path);

    // 5. Fork determinism: the same campaign with forking disabled must
    //    produce the same outcomes — only the telemetry fields differ.
    let scratch = run_campaign_runner_with_jobs(
        &w,
        &CampaignSpec {
            fork_points: 0,
            ..spec.clone()
        },
        None,
        env.jobs,
    )
    .expect("fork-off campaign failed");
    check_same_outcomes("fork-on and fork-off runs diverged", &reference, &scratch);

    println!(
        "smoke ok: histogram {:?}, resume re-ran {} seeds",
        reference.counts, resumed.ran_now
    );
}

/// Asserts two summaries agree on everything a fault campaign *means* —
/// outcome histogram and every per-seed counter — ignoring only the fork
/// telemetry fields (`fork_cycle`/`sim_cycles`/`fork_hit`), which are
/// cost accounting and legitimately differ between a forked run and a
/// scratch run of the same seed.
fn check_same_outcomes(label: &str, a: &CampaignSummary, b: &CampaignSummary) {
    let strip = |s: &CampaignSummary| -> Vec<flame_core::runner::RunRecord> {
        s.records
            .iter()
            .map(|r| flame_core::runner::RunRecord {
                fork_cycle: 0,
                sim_cycles: 0,
                fork_hit: false,
                ..*r
            })
            .collect()
    };
    if a.counts != b.counts || strip(a) != strip(b) || a.clean_cycles != b.clean_cycles {
        eprintln!(
            "--- fork on ---\n{}\n--- fork off ---\n{}",
            a.render(),
            b.render()
        );
        fail(label);
    }
}

/// Runs a small late-strike campaign twice — fork-point acceleration on
/// and off — and asserts the outcome histograms and per-seed records are
/// identical modulo telemetry. `scripts/verify.sh` runs this as the
/// fork regression gate; on failure it dumps both journals for diffing.
fn fork_smoke(env: &BenchEnv) {
    let w = smoke_workload();
    let cfg = ExperimentConfig {
        max_cycles: 20_000_000,
        ..ExperimentConfig::default()
    };
    let clean = run_scheme(&w, Scheme::SensorRenaming, &cfg).expect("clean run failed");
    let spec = CampaignSpec {
        strike_window: (0.5, 1.0),
        ..spec_for(env, &cfg, clean.stats.cycles, SMOKE_COVERAGE, SMOKE_RUNS)
    };
    let forked =
        run_campaign_runner_with_jobs(&w, &spec, None, env.jobs).expect("forked campaign failed");
    let scratch = run_campaign_runner_with_jobs(
        &w,
        &CampaignSpec {
            fork_points: 0,
            ..spec.clone()
        },
        None,
        env.jobs,
    )
    .expect("scratch campaign failed");
    // Journals go to disk before the equality checks so CI can upload
    // them as artifacts when a check aborts the process; removed on
    // success so artifacts exist exactly when the gate failed.
    dump_divergence(&forked, &scratch);
    if forked.counts != scratch.counts {
        fail("fork on/off outcome histograms differ");
    }
    check_same_outcomes("fork on/off records differ", &forked, &scratch);
    let hits = forked.records.iter().filter(|r| r.fork_hit).count();
    if hits == 0 {
        fail("no run forked — checkpoint grid never hit");
    }
    let _ = std::fs::remove_dir_all(DIVERGENCE_DIR);
    println!(
        "fork-smoke ok: histogram {:?}, {hits}/{} runs forked",
        forked.counts,
        forked.records.len()
    );
}

/// Directory fork-smoke writes both campaigns' journals to; CI uploads
/// it as an artifact on failure so the diverging seed is diffable offline.
const DIVERGENCE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/fork-smoke");

fn dump_divergence(forked: &CampaignSummary, scratch: &CampaignSummary) {
    let dir = std::path::Path::new(DIVERGENCE_DIR);
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    for (name, s) in [("forked", forked), ("scratch", scratch)] {
        let path = dir.join(format!("flame_fork_divergence_{name}.jsonl"));
        let mut text = String::new();
        text.push_str(&s.header);
        text.push('\n');
        for r in &s.records {
            text.push_str(&r.to_line());
            text.push('\n');
        }
        let _ = std::fs::write(&path, text);
    }
}

/// Path the late-strike fork benchmark writes its report to: a build
/// directory, so a run never rewrites a tracked file.
const BENCH_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/bench-fork.json");

/// Times a late-strike campaign (every strike in the last 20% of the
/// horizon — the regime fork-point acceleration targets) with forking
/// on and off, asserts bit-identical outcomes, and writes the speedup
/// report to [`BENCH_PATH`].
fn bench_fork(env: &BenchEnv, runs: usize) {
    // BP is the longest-running catalog workload (~100k clean cycles), so
    // simulated-prefix savings dominate per-run fixed costs (GPU image
    // allocation, kernel prepare) and the measurement reflects the fork
    // machinery rather than constant overheads.
    let w = flame_bench::workload_by_abbr("BP").expect("BP missing from catalog");
    let cfg = ExperimentConfig {
        max_cycles: 20_000_000,
        ..ExperimentConfig::default()
    };
    let clean = run_scheme(&w, Scheme::SensorRenaming, &cfg).expect("clean run failed");
    let spec = CampaignSpec {
        strike_window: (0.8, 1.0),
        ..spec_for(env, &cfg, clean.stats.cycles, SMOKE_COVERAGE, runs)
    };
    println!(
        "bench-fork: {} runs, horizon {} cycles, strikes in [0.8, 1.0) of horizon",
        runs, spec.horizon
    );

    let t0 = std::time::Instant::now();
    let forked =
        run_campaign_runner_with_jobs(&w, &spec, None, env.jobs).expect("forked campaign failed");
    let fork_secs = t0.elapsed().as_secs_f64();

    let t0 = std::time::Instant::now();
    let scratch = run_campaign_runner_with_jobs(
        &w,
        &CampaignSpec {
            fork_points: 0,
            ..spec.clone()
        },
        None,
        env.jobs,
    )
    .expect("scratch campaign failed");
    let scratch_secs = t0.elapsed().as_secs_f64();

    check_same_outcomes("bench-fork runs diverged", &forked, &scratch);
    let hits = forked.records.iter().filter(|r| r.fork_hit).count();
    let saved: u64 = forked.records.iter().map(|r| r.fork_cycle).sum();
    let fork_sim: u64 = forked.records.iter().map(|r| r.sim_cycles).sum();
    let scratch_sim: u64 = scratch.records.iter().map(|r| r.sim_cycles).sum();
    let speedup = scratch_secs / fork_secs.max(1e-9);
    let json = format!(
        "{{\n  \"workload\": \"{}\",\n  \"runs\": {},\n  \"strikes_per_run\": {},\n  \
         \"horizon_cycles\": {},\n  \"strike_window\": [0.8, 1.0],\n  \"fork_points\": {},\n  \
         \"forked_runs\": {},\n  \"prefix_cycles_saved\": {},\n  \
         \"forked_cycles_simulated\": {},\n  \"scratch_cycles_simulated\": {},\n  \
         \"forked_wall_secs\": {:.3},\n  \"scratch_wall_secs\": {:.3},\n  \
         \"speedup\": {:.3},\n  \"bit_identical\": true\n}}\n",
        w.name,
        runs,
        spec.strikes_per_run,
        spec.horizon,
        spec.fork_points,
        hits,
        saved,
        fork_sim,
        scratch_sim,
        fork_secs,
        scratch_secs,
        speedup
    );
    let path = std::path::Path::new(BENCH_PATH);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(path, &json)
        .unwrap_or_else(|e| fail(&format!("cannot write {BENCH_PATH}: {e}")));
    println!("{json}");
    println!(
        "bench-fork ok: {speedup:.2}x wall-clock, {hits}/{runs} runs forked, report at {BENCH_PATH}"
    );
}

/// Directory the crash drill stages its shard journals, leases, and
/// (on failure) divergence reports in; CI uploads it as an artifact
/// when the gate fails.
const DRILL_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/crash-drill");

/// The spec every drill participant (serial reference, worker
/// processes, resuming supervisor) independently reconstructs. The
/// clean-run horizon and the environment's self-fault drill are
/// deterministic inputs, so all processes agree on the spec — and
/// therefore on the journal fingerprint.
fn drill_spec(env: &BenchEnv, w: &WorkloadSpec) -> CampaignSpec {
    let cfg = ExperimentConfig {
        max_cycles: 20_000_000,
        ..ExperimentConfig::default()
    };
    let clean = run_scheme(w, Scheme::SensorRenaming, &cfg).expect("clean run failed");
    CampaignSpec {
        self_fault: env.self_fault.clone(),
        ..spec_for(
            env,
            &cfg,
            clean.stats.cycles * 3 / 4,
            SMOKE_COVERAGE,
            SMOKE_RUNS,
        )
    }
}

/// Silences the default panic hook for the panics the drill *injects*
/// (`self-fault injection: ...`), which are caught by the runner and
/// would otherwise spray backtraces over the drill output. Genuine
/// panics keep the default hook behaviour.
fn install_quiet_self_fault_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .is_some_and(|m| m.contains("self-fault injection"));
        if !injected {
            default(info);
        }
    }));
}

/// Entry point for one lease-claiming shard-worker **process** — what
/// the crash drill spawns (and kills). Runs the worker loop until the
/// whole campaign is complete, honouring `FLAME_SHARD_CRASH_AFTER` (a
/// drill knob that hard-aborts the process after that many seeds, like
/// a `kill -9` it cannot see coming).
fn shard_worker_main(
    env: &BenchEnv,
    dir: &std::path::Path,
    shards: usize,
    worker_id: &str,
    ttl_ms: u64,
) {
    install_quiet_self_fault_hook();
    let w = smoke_workload();
    let spec = drill_spec(env, &w);
    let ttl = std::time::Duration::from_millis(ttl_ms.max(1));
    // SIGTERM/SIGINT drain this worker gracefully: it finishes the seed
    // in flight, journals it, releases its lease, and exits — the
    // campaign resumes from the journals with nothing lost.
    let shutdown = flame_serve::shutdown::install();
    let opts = ShardOptions {
        worker_id: worker_id.to_string(),
        lease_ttl: ttl,
        heartbeat: ttl / 4,
        crash_after: std::env::var("FLAME_SHARD_CRASH_AFTER")
            .ok()
            .and_then(|v| v.parse().ok()),
        shutdown: Some(shutdown),
        ..ShardOptions::new(shards)
    };
    match run_shard_worker(&w, &spec, dir, &opts) {
        Ok(rep) => println!(
            "shard-worker {worker_id}: claimed {} shards, ran {} seeds, lost {} leases{}",
            rep.shards_claimed,
            rep.seeds_run,
            rep.leases_lost,
            if rep.stopped {
                ", stopped by shutdown signal"
            } else {
                ""
            }
        ),
        Err(e) => fail(&format!("shard-worker {worker_id}: {e}")),
    }
}

/// The crash-injection drill `scripts/verify.sh` gates on: runs the
/// smoke campaign sharded across real worker **processes**, kills two
/// of them mid-campaign two different ways — one `SIGKILL`ed by the
/// parent, one hard-aborting itself after `kill_after` seeds — lets
/// the survivors reclaim the orphaned leases, resumes/merges, and
/// asserts the merged report is byte-identical to a single-process
/// serial run of the same spec. One seed is poisoned throughout
/// (`FLAME_POISON_SEEDS` for the worker processes), so the drill also
/// proves a repeatedly-panicking seed is quarantined as `Due` on both
/// paths instead of stalling its shard.
fn crash_drill(env: &BenchEnv, shards: usize, kill_after: usize, ttl_ms: u64) {
    install_quiet_self_fault_hook();
    let dir = std::path::Path::new(DRILL_DIR);
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| fail(&format!("cannot create {DRILL_DIR}: {e}")));

    // Poison one mid-campaign seed for every participant: the drill
    // proves quarantine keeps sharded and serial runs bit-identical.
    let poison_seed: u64 = 0x5EED + 5;
    let env = &BenchEnv {
        self_fault: SelfFault {
            poison: vec![poison_seed],
            ..env.self_fault.clone()
        },
        ..env.clone()
    };

    let w = smoke_workload();
    let spec = drill_spec(env, &w);
    println!(
        "crash-drill: {SMOKE_RUNS} seeds over {shards} shards, ttl {ttl_ms} ms, \
         abort worker after {kill_after} seeds, SIGKILL one worker, poison seed {poison_seed}"
    );

    // Serial reference in this process — the golden the merged sharded
    // report must match byte for byte.
    let reference =
        run_campaign_runner_with_jobs(&w, &spec, None, env.jobs).expect("serial reference failed");

    // One worker process per shard. Worker 0 aborts itself after
    // `kill_after` seeds (deterministic mid-shard death); worker 1 is
    // SIGKILLed by us shortly after launch (asynchronous death).
    let exe = std::env::current_exe().expect("current_exe");
    let spawn = |i: usize, crash_after: Option<usize>| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([
            "shard-worker",
            "--dir",
            DRILL_DIR,
            "--shards",
            &shards.to_string(),
            "--ttl-ms",
            &ttl_ms.to_string(),
            "--worker-id",
            &format!("drill-w{i}"),
        ]);
        cmd.env("FLAME_POISON_SEEDS", poison_seed.to_string());
        if let Some(n) = crash_after {
            cmd.env("FLAME_SHARD_CRASH_AFTER", n.to_string());
        }
        cmd.spawn()
            .unwrap_or_else(|e| fail(&format!("cannot spawn shard worker: {e}")))
    };
    let mut children: Vec<std::process::Child> = (0..shards)
        .map(|i| spawn(i, (i == 0).then_some(kill_after)))
        .collect();

    // Give worker 1 time to claim a shard and start simulating, then
    // SIGKILL it — no unwinding, no lease release, journal cut at the
    // last fsynced line.
    if children.len() > 1 {
        std::thread::sleep(std::time::Duration::from_millis(400));
        let _ = children[1].kill();
    }
    let mut died = 0;
    for (i, c) in children.iter_mut().enumerate() {
        let status = c.wait().expect("wait on shard worker");
        if !status.success() {
            died += 1;
        }
        println!("crash-drill: worker {i} exited with {status}");
    }
    if died == 0 {
        fail("crash-drill killed no worker — nothing was drilled");
    }

    // Resume on the same directory: the supervisor claims whatever the
    // dead workers orphaned (waiting out still-fresh leases) and merges
    // the shard journals into one summary.
    let ttl = std::time::Duration::from_millis(ttl_ms.max(1));
    let opts = ShardOptions {
        worker_id: "drill-resume".to_string(),
        lease_ttl: ttl,
        heartbeat: ttl / 4,
        ..ShardOptions::new(shards)
    };
    let merged = run_sharded_campaign(&w, &spec, dir, &opts, 2).expect("resume failed");

    if reference.render() != merged.render() || reference.records != merged.records {
        // Keep the journals and write both reports for the CI artifact.
        let _ = std::fs::write(dir.join("serial_reference.txt"), reference.render());
        let _ = std::fs::write(dir.join("sharded_merged.txt"), merged.render());
        eprintln!(
            "--- serial ---\n{}\n--- sharded ---\n{}",
            reference.render(),
            merged.render()
        );
        fail("sharded crash-drill report diverged from the serial run");
    }
    let q = merged
        .records
        .iter()
        .find(|r| r.seed == poison_seed)
        .unwrap_or_else(|| fail("poison seed missing from merged report"));
    if !q.quarantined || q.outcome != Outcome::Due {
        fail(&format!(
            "poison seed {poison_seed} not quarantined as Due (got {:?}, quarantined={})",
            q.outcome, q.quarantined
        ));
    }
    let _ = std::fs::remove_dir_all(dir);
    println!(
        "crash-drill ok: {died}/{shards} workers died, histogram {:?}, \
         merged report bit-identical to serial, seed {poison_seed} quarantined as Due",
        merged.counts
    );
}

/// Re-merges an existing drill directory without running anything —
/// handy when inspecting a failed drill's artifacts.
fn merge_only(env: &BenchEnv, shards: usize) {
    let w = smoke_workload();
    let spec = drill_spec(env, &w);
    let (summary, missing) =
        merge_shards(&w, &spec, std::path::Path::new(DRILL_DIR), shards).expect("merge failed");
    println!("{}", summary.render());
    if !missing.is_empty() {
        println!("missing {} seeds: {missing:?}", missing.len());
    }
}

fn main() {
    let env = BenchEnv::from_process();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("smoke") => {
            smoke(&env);
            return;
        }
        Some("shard-worker") => {
            let mut dir = None;
            let mut shards = 4usize;
            let mut worker_id = format!("pid{}", std::process::id());
            let mut ttl_ms = 30_000u64;
            let mut it = args.iter().skip(1);
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--dir" => dir = it.next().cloned(),
                    "--shards" => {
                        shards = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| fail("--shards needs a positive integer"));
                    }
                    "--worker-id" => {
                        worker_id = it
                            .next()
                            .cloned()
                            .unwrap_or_else(|| fail("--worker-id needs a value"));
                    }
                    "--ttl-ms" => {
                        ttl_ms = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .unwrap_or_else(|| fail("--ttl-ms needs a positive integer"));
                    }
                    other => fail(&format!("unknown shard-worker argument {other:?}")),
                }
            }
            let dir = dir.unwrap_or_else(|| fail("shard-worker needs --dir"));
            shard_worker_main(&env, std::path::Path::new(&dir), shards, &worker_id, ttl_ms);
            return;
        }
        Some("merge") => {
            let shards = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(4);
            merge_only(&env, shards);
            return;
        }
        Some("fork-smoke") => {
            fork_smoke(&env);
            return;
        }
        Some("bench-fork") => {
            let runs = args
                .get(1)
                .map(|v| {
                    v.parse()
                        .unwrap_or_else(|_| fail("bench-fork takes an optional run count"))
                })
                .unwrap_or(40);
            bench_fork(&env, runs);
            return;
        }
        _ => {}
    }
    let mut runs = 100usize;
    let mut fork_points = DEFAULT_FORK_POINTS;
    let mut workload: Option<WorkloadSpec> = None;
    let mut shards: Option<usize> = None;
    let mut kill_after = 2usize;
    let mut ttl_ms = 2_000u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list" => {
                // `--json` may appear on either side of `--list`; scan
                // the full argv so both orders work.
                if args.iter().any(|a| a == "--json") {
                    // Same serialization the server's GET /catalog uses,
                    // so scripts can target either interchangeably.
                    println!("{}", flame_serve::catalog_json());
                } else {
                    flame_bench::print_catalog();
                }
                return;
            }
            "--json" => {}
            "--runs" => {
                runs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--runs needs a positive integer"));
            }
            "--fork-points" => {
                fork_points = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--fork-points needs a non-negative integer"));
            }
            "--shards" => {
                shards = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&s: &usize| s >= 2)
                        .unwrap_or_else(|| fail("--shards needs an integer >= 2")),
                );
            }
            "--kill-after" => {
                kill_after = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--kill-after needs a positive integer"));
            }
            "--ttl-ms" => {
                ttl_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--ttl-ms needs a positive integer"));
            }
            "--workload" => {
                let abbr = it
                    .next()
                    .unwrap_or_else(|| fail("--workload needs an abbreviation"));
                workload = Some(
                    flame_bench::workload_by_abbr(abbr)
                        .unwrap_or_else(|| fail(&format!("unknown workload {abbr:?}"))),
                );
            }
            other => fail(&format!("unknown argument {other:?} (try `smoke`)")),
        }
    }
    if let Some(shards) = shards {
        // `--shards N --kill-after n` runs the crash-injection drill.
        crash_drill(&env, shards, kill_after, ttl_ms);
        return;
    }
    let w = workload.unwrap_or_else(smoke_workload);
    sweep(&env, &w, runs, fork_points);
}
