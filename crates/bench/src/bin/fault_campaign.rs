//! Fault-campaign driver: coverage-vs-outcome sweeps and the
//! process-level crash drill.
//!
//! ```text
//! fault_campaign                  # coverage sweep on the built-in kernel
//! fault_campaign --workload LUD   # sweep a suite workload
//! fault_campaign --runs 400       # more seeds per coverage point
//! fault_campaign --fork-points 0  # disable fork-point acceleration
//! fault_campaign --shards 4 --kill-after 2
//!                                 # crash drill: SIGKILL + abort shard
//!                                 # workers mid-campaign, resume, diff
//!                                 # the merged histogram vs serial
//! fault_campaign shard-worker --dir D --shards N --worker-id ID
//!                                 # one lease-claiming shard worker
//!                                 # process (spawned by the drill)
//! fault_campaign merge [N]        # re-merge the drill's N shard journals
//! ```
//!
//! The sweep bombards one workload at several sensor-coverage levels and
//! prints the outcome taxonomy per level with Wilson 95% intervals — the
//! coverage-vs-SDC-rate curve. The built-in kernel's campaign is pinned
//! by this binary's unit test against `results/fault_smoke_golden.txt`.
//!
//! Fault runs fork from clean-prefix checkpoints by default (the runner
//! snapshots the fault-free baseline at a grid of fork-point cycles and
//! each seed resumes from the last checkpoint before its first strike);
//! `--fork-points 0` falls back to scratch simulation. Outcomes are
//! bit-identical either way.

use flame_bench::BenchEnv;
use flame_core::experiment::{run_scheme, ExperimentConfig, ProtocolConfig, WorkloadSpec};
use flame_core::runner::{
    clean_baseline, run_campaign_runner_with_jobs, CampaignSpec, RetryPolicy, SelfFault,
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

fn fail(msg: &str) -> ! {
    eprintln!("fault_campaign: {msg}");
    std::process::exit(1);
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

/// Re-merges an existing drill directory without running any seed —
/// handy when inspecting a failed drill's artifacts. The report's
/// clean-run cycles come from one baseline simulation.
fn merge_only(env: &BenchEnv, shards: usize) {
    let w = smoke_workload();
    let spec = drill_spec(env, &w);
    let dir = std::path::Path::new(DRILL_DIR);
    let clean = clean_baseline(&w, &spec).cycles;
    let (summary, missing) = merge_shards(w.name, &spec, dir, shards, clean).expect("merge failed");
    println!("{}", summary.render());
    if !missing.is_empty() {
        println!("missing {} seeds: {missing:?}", missing.len());
    }
}

fn main() {
    let env = BenchEnv::from_process();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
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
                    flame_workloads::by_abbr(abbr)
                        .unwrap_or_else(|| fail(&format!("unknown workload {abbr:?}"))),
                );
            }
            other => fail(&format!("unknown argument {other:?}")),
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

#[cfg(test)]
mod tests {
    use super::*;
    use flame_core::runner::{CampaignSummary, RunRecord};

    /// The report the pinned campaign renders. The campaign is
    /// deterministic, so any drift means the fault model, the protocol or
    /// the runner changed behaviour.
    const GOLDEN: &str = include_str!("../../../../results/fault_smoke_golden.txt");

    /// The built-in kernel's campaign ([`SMOKE_RUNS`] seeds, strikes over
    /// the whole window) renders the golden report byte for byte, and the
    /// same campaign without fork points has the same outcomes: 15 of its
    /// seeds fork, 9 strike before the first checkpoint.
    #[test]
    fn smoke_campaign_matches_golden_report_with_forks_on_and_off() {
        let env = BenchEnv::parse(|_| None);
        let w = smoke_workload();
        let cfg = ExperimentConfig {
            max_cycles: 20_000_000,
            ..ExperimentConfig::default()
        };
        let clean = run_scheme(&w, Scheme::SensorRenaming, &cfg).expect("clean run");
        let spec = spec_for(
            &env,
            &cfg,
            clean.stats.cycles * 3 / 4,
            SMOKE_COVERAGE,
            SMOKE_RUNS,
        );
        let forked = run_campaign_runner_with_jobs(&w, &spec, None, 2).expect("forked campaign");
        let report = forked.render();
        assert!(
            report == GOLDEN,
            "the campaign drifted from results/fault_smoke_golden.txt; \
             if the change is intended, commit this report there:\n{report}"
        );

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
        let hits = |s: &CampaignSummary| s.records.iter().filter(|r| r.fork_hit).count();
        assert_eq!((hits(&forked), hits(&scratch)), (15, 0), "fork hits");
        // Fork telemetry is cost accounting; everything else must agree.
        let strip = |s: &CampaignSummary| -> Vec<RunRecord> {
            s.records
                .iter()
                .map(|r| RunRecord {
                    fork_cycle: 0,
                    sim_cycles: 0,
                    fork_hit: false,
                    ..*r
                })
                .collect()
        };
        assert_eq!(forked.counts, scratch.counts, "outcome histograms");
        assert_eq!(forked.clean_cycles, scratch.clean_cycles, "clean cycles");
        assert_eq!(strip(&forked), strip(&scratch), "records beyond telemetry");
    }
}
