//! Times the experiment-matrix engine on a fixed sub-matrix, serial
//! (1 worker) versus parallel (`FLAME_JOBS` / all cores), verifies the
//! two passes are bit-identical, and emits one machine-readable JSON
//! object on stdout.
//!
//! The sub-matrix is 4 workloads × 3 schemes = 12 cells + 4 memoized
//! baselines (a naive per-cell driver would run 24 simulations). The
//! expected speedup scales with core count: ~1× on a single core, ≥3× on
//! 4+ cores (cells are embarrassingly parallel; the longest single cell
//! bounds the critical path).
//!
//! A second section times the event-driven clock: each scheme column is
//! run single-worker with fast-forward off (`GpuConfig::fast_forward`)
//! and on, the two passes are checked bit-identical, and the per-scheme
//! wall-clock speedup lands in the JSON. WCDL-heavy columns — Flame's
//! descheduling and especially the naive scheduler-stall ablation, whose
//! idle windows the clock skips wholesale — show the largest gains.

use flame_core::experiment::{prepare_count, prepare_scheme, ExperimentConfig};
use flame_core::matrix::{run_matrix_with_jobs, CellResult, MatrixCell};
use flame_core::scheme::Scheme;
use std::time::Instant;

fn timed_pass(
    suite: &[flame_core::experiment::WorkloadSpec],
    cells: &[MatrixCell],
    jobs: usize,
) -> (Vec<CellResult>, f64, u64) {
    let sims_before = prepare_count();
    let t = Instant::now();
    let out = run_matrix_with_jobs(suite, cells, jobs);
    let secs = t.elapsed().as_secs_f64();
    let sims = prepare_count() - sims_before;
    let results: Vec<CellResult> = out
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|e| panic!("cell {i}: {e}")))
        .collect();
    (results, secs, sims)
}

/// One (scheme, workload) cell timed with the event-driven clock off and
/// on.
struct FastForwardCell {
    scheme: &'static str,
    workload: &'static str,
    off_secs: f64,
    on_secs: f64,
}

impl FastForwardCell {
    fn speedup(&self) -> f64 {
        self.off_secs / self.on_secs
    }
}

/// Times one cell under `cfg`'s fast-forward setting:
/// best-of-`reps` wall-clock seconds (the minimum is the least-disturbed
/// estimate of the true cost on a loaded machine) plus the stats and
/// output verdict of the final rep. Each rep prepares the cell untimed
/// ([`prepare_scheme`]: compile, launch, memory seeding — all identical
/// regardless of clock mode) so the timer sees only the simulation loop
/// the event-driven clock actually acts on.
fn ff_cell_pass(
    w: &flame_core::experiment::WorkloadSpec,
    s: Scheme,
    cfg: &ExperimentConfig,
    reps: usize,
) -> (gpu_sim::stats::SimStats, bool, f64) {
    let mut best = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..reps {
        let (mut gpu, _) = prepare_scheme(w, s, cfg)
            .unwrap_or_else(|e| panic!("{}/{}: prepare: {e}", s.name(), w.name));
        let t = Instant::now();
        let stats = gpu
            .run(cfg.max_cycles)
            .unwrap_or_else(|e| panic!("{}/{}: {e}", s.name(), w.name));
        best = best.min(t.elapsed().as_secs_f64());
        outcome = Some((stats, (w.check)(gpu.global())));
    }
    let (stats, ok) = outcome.expect("reps >= 1");
    (stats, ok, best)
}

fn time_fast_forward(
    suite: &[flame_core::experiment::WorkloadSpec],
    schemes: &[Scheme],
    cfg: &ExperimentConfig,
) -> Vec<FastForwardCell> {
    const REPS: usize = 3;
    let mut cells = Vec::new();
    let mut off_cfg = cfg.clone();
    off_cfg.gpu.fast_forward = false;
    for &s in schemes {
        for w in suite {
            let (off_stats, off_ok, off_secs) = ff_cell_pass(w, s, &off_cfg, REPS);
            let (on_stats, on_ok, on_secs) = ff_cell_pass(w, s, cfg, REPS);
            let diff = off_stats.diff(&on_stats);
            assert!(
                diff.is_empty() && off_ok == on_ok,
                "{}/{}: fast-forward changed {diff:?}",
                s.name(),
                w.abbr
            );
            cells.push(FastForwardCell {
                scheme: s.name(),
                workload: w.abbr,
                off_secs,
                on_secs,
            });
        }
    }
    cells
}

fn main() {
    let env = flame_bench::BenchEnv::from_process();
    if std::env::args().nth(1).as_deref() == Some("--list") {
        flame_bench::print_catalog();
        return;
    }
    let abbrs = ["Triad", "GUPS", "NN", "BS"];
    let suite: Vec<_> = abbrs
        .iter()
        .map(|a| flame_bench::workload_by_abbr(a).expect("known abbr"))
        .collect();
    let schemes = [
        Scheme::SensorRenaming,
        Scheme::SensorCheckpointing,
        Scheme::DuplicationRenaming,
    ];
    let cfg = ExperimentConfig::default();
    let mut cells = Vec::new();
    for s in schemes {
        for w in 0..suite.len() {
            cells.push(MatrixCell::new(w, s, cfg.clone()));
        }
    }

    let jobs = env.jobs;
    eprintln!(
        "perfstat: {} cells ({} workloads x {} schemes), serial then {jobs} worker(s)...",
        cells.len(),
        suite.len(),
        schemes.len()
    );
    let (serial, serial_secs, serial_sims) = timed_pass(&suite, &cells, 1);
    let (parallel, parallel_secs, parallel_sims) = timed_pass(&suite, &cells, jobs);

    // Event-driven clock: time each scheme column with fast-forward off
    // then on, single-worker. NaiveSensorRenaming joins the sub-matrix
    // here because its scheduler-stall windows are the WCDL-heaviest
    // case, and the section runs at a 1000-cycle WCDL — the extreme
    // sparse-sensor end of the paper's sensor-count/WCDL trade-off
    // (Figure 16), where verification idle dominates the simulated clock
    // and the event-driven clock has long windows to skip.
    let ff_wcdl = 1000;
    let ff_cfg = ExperimentConfig {
        wcdl: ff_wcdl,
        ..cfg.clone()
    };
    let ff_schemes = [
        Scheme::SensorRenaming,
        Scheme::SensorCheckpointing,
        Scheme::DuplicationRenaming,
        Scheme::NaiveSensorRenaming,
    ];
    eprintln!(
        "perfstat: event-driven clock off/on, {} schemes x {} workloads, wcdl {ff_wcdl}...",
        ff_schemes.len(),
        suite.len()
    );
    let ff_cells = time_fast_forward(&suite, &ff_schemes, &ff_cfg);
    // Column aggregates: one row per scheme, summed over the suite.
    let ff_cols: Vec<(&'static str, f64, f64)> = ff_schemes
        .iter()
        .map(|s| {
            let (off, on) = ff_cells
                .iter()
                .filter(|c| c.scheme == s.name())
                .fold((0.0, 0.0), |(o, n), c| (o + c.off_secs, n + c.on_secs));
            (s.name(), off, on)
        })
        .collect();
    let ff_max = ff_cols
        .iter()
        .map(|(_, off, on)| off / on)
        .fold(0.0_f64, f64::max);
    let ff_cell_max = ff_cells
        .iter()
        .map(FastForwardCell::speedup)
        .fold(0.0_f64, f64::max);

    let bit_identical = serial.len() == parallel.len()
        && serial.iter().zip(&parallel).all(|(a, b)| {
            a.run.stats == b.run.stats
                && a.baseline.stats == b.baseline.stats
                && a.normalized == b.normalized
        });
    assert!(bit_identical, "serial and parallel matrices diverged");
    assert_eq!(
        serial_sims, parallel_sims,
        "worker count changed the simulation count"
    );

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("{{");
    println!("  \"cells\": {},", cells.len());
    println!(
        "  \"baseline_runs\": {},",
        serial_sims as usize - cells.len()
    );
    println!("  \"simulations_per_pass\": {serial_sims},");
    println!("  \"naive_simulations_per_pass\": {},", 2 * cells.len());
    println!("  \"jobs_serial\": 1,");
    println!("  \"jobs_parallel\": {jobs},");
    println!("  \"available_cores\": {cores},");
    println!("  \"serial_wall_secs\": {serial_secs:.3},");
    println!("  \"parallel_wall_secs\": {parallel_secs:.3},");
    println!(
        "  \"serial_cells_per_sec\": {:.3},",
        cells.len() as f64 / serial_secs
    );
    println!(
        "  \"parallel_cells_per_sec\": {:.3},",
        cells.len() as f64 / parallel_secs
    );
    println!("  \"speedup\": {:.3},", serial_secs / parallel_secs);
    println!("  \"bit_identical\": {bit_identical},");
    println!("  \"fast_forward\": {{");
    println!("    \"wcdl\": {ff_wcdl},");
    println!("    \"cells\": [");
    for (i, c) in ff_cells.iter().enumerate() {
        let comma = if i + 1 < ff_cells.len() { "," } else { "" };
        println!(
            "      {{\"scheme\": \"{}\", \"workload\": \"{}\", \"off_secs\": {:.4}, \"on_secs\": {:.4}, \"speedup\": {:.3}}}{comma}",
            c.scheme,
            c.workload,
            c.off_secs,
            c.on_secs,
            c.speedup()
        );
    }
    println!("    ],");
    println!("    \"columns\": [");
    for (i, (name, off, on)) in ff_cols.iter().enumerate() {
        let comma = if i + 1 < ff_cols.len() { "," } else { "" };
        println!(
            "      {{\"scheme\": \"{name}\", \"off_secs\": {off:.4}, \"on_secs\": {on:.4}, \"speedup\": {:.3}}}{comma}",
            off / on
        );
    }
    println!("    ],");
    println!("    \"max_speedup\": {ff_max:.3},");
    println!("    \"max_cell_speedup\": {ff_cell_max:.3},");
    println!("    \"bit_identical\": true");
    println!("  }}");
    println!("}}");
}
