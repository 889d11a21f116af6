//! `late-sweep`: the reference late-strike campaign, swept over the five
//! coverage levels of `fault_campaign`.
//!
//! BP under Flame, 3 strikes per seed in the last 20% of the clean
//! horizon, 8 fork points. Every seed forks from a late checkpoint, so
//! the fixed costs of a seed (prepare, restore) and of a campaign (the
//! checkpointed baseline, the device image) dominate.
//!
//! The untraced unit is one sweep: five fresh campaigns through
//! `run_campaign_runner_with_jobs`, each writing a real, fsynced journal
//! and rendering the report `fault_campaign` prints. The traced unit
//! drives the same campaigns through the calls that engine is built
//! from and must journal the same records and render the same reports.

use crate::common::{base_seed, extra_build_and_init, median, mix, Ctx, Metric, Outcome, JOBS};
use crate::span::{SpanId, Tracer};
use flame_core::experiment::{prepare_scheme, ExperimentConfig, ProtocolConfig, WorkloadSpec};
use flame_core::report::SummaryJson;
use flame_core::runner::{
    run_campaign_runner_with_jobs, run_one_seed, run_one_seed_retrying, CampaignSpec, RetryPolicy,
    RunRecord, SelfFault,
};
use flame_core::scheme::Scheme;
use gpu_sim::gpu::Snapshot;
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// `fault_campaign`'s coverage levels.
const COVERAGES: [f64; 5] = [1.0, 0.95, 0.85, 0.70, 0.50];

/// Clean cycles of BP under Flame at the paper default: the horizon of
/// the reference campaign.
const HORIZON: u64 = 100_563;

/// Fork points of the reference campaign.
const FORK_POINTS: usize = 8;

/// Seeds per campaign, full size and in the self-test.
const RUNS: usize = 40;
const SMALL_RUNS: usize = 3;

/// Journaled seeds per sweep re-simulated from scratch as a check.
const RESIMULATED: usize = 2;

/// The reference campaign at one coverage level.
fn spec(base: u64, runs: usize, coverage: f64) -> CampaignSpec {
    CampaignSpec {
        base_seed: base,
        runs,
        strikes_per_run: 3,
        horizon: HORIZON,
        strike_window: (0.8, 1.0),
        fork_points: FORK_POINTS,
        coverage,
        control_fraction: 0.15,
        recovery_fraction: 0.10,
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

/// The campaigns of sweep `u`.
fn sweep_specs(ctx: &Ctx, u: u64) -> Vec<CampaignSpec> {
    let runs = if ctx.small { SMALL_RUNS } else { RUNS };
    COVERAGES
        .iter()
        .enumerate()
        .map(|(c, &cov)| spec(base_seed(ctx.seed, u * 8 + c as u64), runs, cov))
        .collect()
}

/// Runs the workload for the context's measured time.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let w = flame_workloads::by_abbr("BP").expect("BP is in the catalog");
    let mut setups = Vec::new();
    let mut seeds = 0usize;
    let mut est = 0.0f64;
    let mut u = 0u64;
    while u == 0 || ctx.fits(est) {
        let pair = Instant::now();
        let specs = sweep_specs(ctx, u);
        let t = Instant::now();
        let mut setup = 0.0;
        let mut summaries = Vec::new();
        for (c, spec) in specs.iter().enumerate() {
            let journal = ctx.scratch.join(format!("sweep{u}-c{c}.jsonl"));
            let header_len = spec.fingerprint(w.name).len() as u64 + 1;
            let stop = AtomicBool::new(false);
            let (call, first, result) = std::thread::scope(|s| {
                let watcher = s.spawn(|| first_record(&journal, header_len, &stop));
                let call = Instant::now();
                let result = run_campaign_runner_with_jobs(&w, spec, Some(&journal), JOBS);
                stop.store(true, Ordering::SeqCst);
                (
                    call,
                    watcher.join().expect("journal watcher panicked"),
                    result,
                )
            });
            out.attempted += 1;
            match (result, first) {
                (Ok(summary), Some(first)) => {
                    setup += (first - call).as_secs_f64();
                    let report = summary.render();
                    summaries.push((summary, report, journal));
                }
                (Ok(_), None) => out
                    .problems
                    .push(format!("sweep {u} campaign {c}: no record was journaled")),
                (Err(e), _) => {
                    out.failed += 1;
                    out.problems.push(format!("sweep {u} campaign {c}: {e}"));
                }
            }
        }
        let wall = t.elapsed().as_secs_f64();
        if !out.problems.is_empty() {
            break;
        }
        out.unit_walls.push(wall);
        setups.push(setup);
        seeds = summaries
            .iter()
            .map(|(s, _, _)| s.records.len())
            .sum::<usize>();

        for ((summary, _, journal), spec) in summaries.iter().zip(&specs) {
            check_campaign(&w, spec, &summary.records, journal, &mut out.problems);
            let _ = std::fs::remove_file(journal);
        }
        for r in 0..RESIMULATED {
            let c = (u as usize + 2 * r) % COVERAGES.len();
            let records = &summaries[c].0.records;
            let rec = &records[(mix(ctx.seed, u + r as u64) % records.len() as u64) as usize];
            let mut scratch = run_one_seed(&w, &specs[c], rec.seed);
            scratch.fork_cycle = rec.fork_cycle;
            scratch.sim_cycles = rec.sim_cycles;
            scratch.fork_hit = rec.fork_hit;
            if scratch != *rec {
                out.problems.push(format!(
                    "seed {} re-simulated from scratch differs from its record",
                    rec.seed
                ));
            }
        }

        if ctx.traced && out.problems.is_empty() {
            let t = Instant::now();
            let traced = traced_unit(ctx, &w, u, &specs);
            out.traced_walls.push(t.elapsed().as_secs_f64());
            for (c, (records, report)) in traced.iter().enumerate() {
                if *records != summaries[c].0.records || *report != summaries[c].1 {
                    out.problems.push(format!(
                        "sweep {u} campaign {c}: traced records or report differ from the engine's"
                    ));
                }
            }
        }
        if !out.problems.is_empty() {
            break;
        }
        est = est.max(pair.elapsed().as_secs_f64());
        u += 1;
    }

    // Every sweep runs the same number of seeds: the rate is taken over
    // the median sweep, like `unit_s`.
    let walls = &out.unit_walls;
    let rate = seeds as f64 / median(walls);
    out.end_to_end = vec![
        Metric::new("unit_s", median(walls), "s", walls.len()),
        Metric::new("sims_per_s", rate, "1/s", walls.len()),
        Metric::new("setup_s", median(&setups), "s", setups.len()),
    ];
    out.report = vec![
        Metric::new("seeds_per_s", rate, "1/s", walls.len()),
        Metric::new("setup_s", median(&setups), "s", setups.len()),
        Metric::new("sweep_s", median(walls), "s", walls.len()),
    ];
    out
}

/// When the journal first holds more than its header line: the
/// campaign's first journaled seed. Polls every millisecond until
/// `stop` is set.
fn first_record(journal: &Path, header_len: u64, stop: &AtomicBool) -> Option<Instant> {
    loop {
        let len = std::fs::metadata(journal).map_or(0, |m| m.len());
        if len > header_len {
            return Some(Instant::now());
        }
        if stop.load(Ordering::SeqCst) {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The campaign covers exactly its seed range, in its summary and in
/// its journal.
fn check_campaign(
    w: &WorkloadSpec,
    spec: &CampaignSpec,
    records: &[RunRecord],
    journal: &Path,
    problems: &mut Vec<String>,
) {
    let want: Vec<u64> = (0..spec.runs as u64).map(|i| spec.base_seed + i).collect();
    let got: Vec<u64> = records.iter().map(|r| r.seed).collect();
    if got != want {
        problems.push(format!(
            "campaign at base seed {} covers {} seeds, not its range of {}",
            spec.base_seed,
            got.len(),
            spec.runs
        ));
    }
    let text = std::fs::read_to_string(journal).unwrap_or_default();
    let mut lines = text.lines();
    if lines.next() != Some(spec.fingerprint(w.name).as_str()) {
        problems.push(format!(
            "journal {} has the wrong header",
            journal.display()
        ));
    }
    let mut journaled: Vec<RunRecord> = lines.filter_map(RunRecord::parse).collect();
    journaled.sort_by_key(|r| r.seed);
    if journaled != records {
        problems.push(format!(
            "journal {} does not hold the campaign's records",
            journal.display()
        ));
    }
}

/// One sweep through the campaign engine's building blocks, inside
/// spans; returns each campaign's records sorted by seed, and its report.
fn traced_unit(
    ctx: &Ctx,
    w: &WorkloadSpec,
    u: u64,
    specs: &[CampaignSpec],
) -> Vec<(Vec<RunRecord>, String)> {
    let tr = &ctx.tracer;
    tr.span("bench.unit", 0, u, |root| {
        specs
            .iter()
            .enumerate()
            .map(|(c, spec)| {
                let journal = ctx.scratch.join(format!("traced{u}-c{c}.jsonl"));
                let key = u * 8 + c as u64;
                let (records, clean) = tr.span("runner.campaign", root, key, |camp| {
                    campaign(tr, camp, key, w, spec, &journal)
                });
                let _ = std::fs::remove_file(&journal);
                let report = tr.span("report.summary", root, key, |_| {
                    SummaryJson::from_records(&records, clean).render_text()
                });
                (records, report)
            })
            .collect()
    })
}

/// One campaign as `run_campaign_runner_with_jobs` runs it: journal
/// header, checkpointed clean baseline, seeds on `JOBS` workers, each
/// record appended and fsynced. Journal writes are the runner's own
/// work and stay in its self time. Returns the records sorted by seed
/// and the clean run's cycles.
fn campaign(
    tr: &Tracer,
    camp: SpanId,
    key: u64,
    w: &WorkloadSpec,
    spec: &CampaignSpec,
    journal: &Path,
) -> (Vec<RunRecord>, u64) {
    let mut file = File::create(journal).expect("create journal");
    writeln!(file, "{}", spec.fingerprint(w.name)).expect("write journal header");
    file.sync_data().expect("sync journal");
    let (clean, checkpoints) = tr.span("runner.baseline", camp, key, |b| {
        baseline(tr, b, key, w, spec)
    });
    let seeds: Vec<u64> = (0..spec.runs as u64).map(|i| spec.base_seed + i).collect();
    let next = AtomicUsize::new(0);
    let sink = Mutex::new(file);
    let fresh = Mutex::new(Vec::with_capacity(seeds.len()));
    std::thread::scope(|s| {
        for _ in 0..JOBS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&seed) = seeds.get(i) else { break };
                extra_build_and_init(tr, camp, seed, w, spec.scheme, &spec.cfg);
                let rec = tr.span("runner.seed", camp, seed, |_| {
                    run_one_seed_retrying(w, spec, seed, &checkpoints)
                });
                {
                    let mut f = sink.lock().expect("journal lock poisoned");
                    f.write_all(format!("{}\n", rec.to_line()).as_bytes())
                        .and_then(|()| f.sync_data())
                        .expect("append journal record");
                }
                fresh.lock().expect("record list poisoned").push(rec);
            });
        }
    });
    tr.span("gpu-sim.teardown", camp, key, |_| drop(checkpoints));
    let mut records = fresh.into_inner().expect("record list poisoned");
    records.sort_by_key(|r| r.seed);
    for r in &records {
        tr.count("runner.seeds", 1.0);
        tr.count("experiment.recoveries", r.recoveries as f64);
        tr.count(
            "experiment.relaunches",
            (r.cta_relaunches + r.kernel_relaunches) as f64,
        );
        tr.count("runner.retries", r.attempts.saturating_sub(1) as f64);
        tr.count("runner.quarantined", f64::from(u8::from(r.quarantined)));
        tr.count("runner.fork_hits", f64::from(u8::from(r.fork_hit)));
        tr.count("runner.prefix_cycles", r.fork_cycle as f64);
        tr.count("runner.simulated_cycles", r.sim_cycles as f64);
    }
    (records, clean)
}

/// The clean run, paused at each fork point to checkpoint it: what the
/// runner does before its first seed. Returns the run's cycles and the
/// checkpoints.
fn baseline(
    tr: &Tracer,
    parent: SpanId,
    key: u64,
    w: &WorkloadSpec,
    spec: &CampaignSpec,
) -> (u64, Vec<Snapshot>) {
    extra_build_and_init(tr, parent, key, w, spec.scheme, &spec.cfg);
    let (mut gpu, _) = tr
        .span("experiment.prepare", parent, key, |_| {
            prepare_scheme(w, spec.scheme, &spec.cfg)
        })
        .expect("BP prepares under Flame");
    let base = tr.span("gpu-sim.base_image", parent, key, |_| gpu.memory_base());
    let max = spec.cfg.max_cycles;
    let mut snaps = Vec::new();
    let mut running = gpu.running();
    let start = gpu.cycle();
    for cp in fork_grid(spec) {
        tr.span("gpu-sim.run", parent, key, |_| {
            while running && gpu.cycle() < cp && gpu.cycle() < max {
                running = gpu.step_window(cp);
            }
        });
        if running && gpu.cycle() == cp {
            let snap = tr.span("gpu-sim.snapshot", parent, key, |_| {
                gpu.snapshot_delta(&base)
            });
            tr.count("gpu-sim.dirty_chunks", snap.dirty_chunks() as f64);
            snaps.push(snap);
        }
    }
    tr.span("gpu-sim.run", parent, key, |_| {
        while running && gpu.cycle() < max {
            running = gpu.step_window(max);
        }
    });
    let clean = gpu.cycle();
    tr.count("gpu-sim.cycles", (clean - start) as f64);
    tr.count("gpu-sim.warp_insts", gpu.instructions_issued() as f64);
    tr.span("gpu-sim.teardown", parent, key, |_| {
        drop(gpu);
        drop(base);
    });
    (clean, snaps)
}

/// The runner's checkpoint grid: `fork_points` cycles evenly spaced
/// across the strike window, deduplicated, cycle 0 dropped.
fn fork_grid(spec: &CampaignSpec) -> Vec<u64> {
    let (lo, hi) = spec.strike_bounds();
    let n = spec.fork_points as u64;
    let mut grid: Vec<u64> = (0..n).map(|k| lo + (hi - lo) * k / n).collect();
    grid.dedup();
    grid.retain(|&c| c > 0);
    grid
}
