//! `fig4-matrix`: the matrix behind `results/fig4_naive.txt`.
//!
//! All 34 catalog workloads under naive stall and Flame at the paper
//! default (GTX 480, GTO, WCDL 20). The two columns share one baseline
//! per workload, so one matrix is 102 simulations. The simulation loop
//! dominates; no fork, journal or HTTP code runs.
//!
//! The untraced unit times `run_matrix_with_jobs` from before the
//! catalog is built to the last cell. The traced unit drives the same
//! cells through the calls the engine is built from (`prepare_scheme`,
//! `Gpu::run`, the workload's check) on the same number of workers, and
//! must reproduce the engine's normalized times bit for bit.

use crate::common::{extra_build_and_init, median, Ctx, Metric, Outcome, JOBS};
use crate::span::{SpanId, Tracer};
use flame_core::experiment::{prepare_scheme, ExperimentConfig, WorkloadSpec};
use flame_core::matrix::{run_matrix_with_jobs, MatrixCell};
use flame_core::scheme::Scheme;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The figure's two columns, in the order the figure prints them.
const SCHEMES: [Scheme; 2] = [Scheme::NaiveSensorRenaming, Scheme::SensorRenaming];

/// The reduced suite of the self-test: three short catalog workloads.
const SMALL: [&str; 3] = ["LUD", "NN", "SC"];

/// Set-ups timed before each matrix; `setup_s` is their median over
/// the run.
const SETUP_REPEATS: usize = 2;

/// Per workload, the normalized time of each column.
type Table = Vec<(&'static str, [f64; 2])>;

/// A simulation's cycles and whether its output check passed.
type JobResult = Result<(u64, bool), String>;

/// The matrix's inputs: the catalog and the cells over it.
fn setup(small: bool) -> (Vec<WorkloadSpec>, Vec<MatrixCell>) {
    let mut suite = flame_workloads::all();
    if small {
        suite.retain(|w| SMALL.contains(&w.abbr));
    }
    let cfg = ExperimentConfig::default();
    let mut cells = Vec::with_capacity(SCHEMES.len() * suite.len());
    for s in SCHEMES {
        for w in 0..suite.len() {
            cells.push(MatrixCell::new(w, s, cfg.clone()));
        }
    }
    (suite, cells)
}

/// The engine's job order: one baseline per workload, then every
/// non-baseline cell in input order.
fn jobs(suite: &[WorkloadSpec], cells: &[MatrixCell]) -> Vec<(usize, Scheme)> {
    (0..suite.len())
        .map(|w| (w, Scheme::Baseline))
        .chain(cells.iter().map(|c| (c.workload, c.scheme)))
        .collect()
}

/// Runs the workload for the context's measured time.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let expected = match read_expected(ctx) {
        Ok(t) => t,
        Err(e) => {
            out.problems.push(e);
            return out;
        }
    };

    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut sims = 0usize;
    // Every matrix runs the same simulations: the rate is taken over the
    // median matrix, like `unit_s`.
    let mut est = 0.0f64;
    let mut u = 0u64;
    while u == 0 || ctx.fits(est) {
        let pair = Instant::now();
        // The matrix's set-up is everything it does before simulating:
        // the catalog and cells, and every simulation compiled, launched
        // and seeded without stepping a cycle. The catalog alone takes a
        // third of a millisecond, too short to repeat from run to run.
        // Timing it beside every matrix samples the host's drifting speed
        // across the whole run, as `unit_s` does.
        for _ in 0..SETUP_REPEATS {
            let t = Instant::now();
            let (suite, cells) = setup(ctx.small);
            for (w, scheme) in jobs(&suite, &cells) {
                drop(std::hint::black_box(prepare_scheme(
                    &suite[w],
                    scheme,
                    &cells[0].cfg,
                )));
            }
            setups.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let (suite, cells) = setup(ctx.small);
        let results = run_matrix_with_jobs(&suite, &cells, JOBS);
        walls.push(t.elapsed().as_secs_f64());
        sims = suite.len() + cells.len();

        out.attempted += cells.len() as u64;
        let mut table: Table = suite.iter().map(|w| (w.abbr, [0.0; 2])).collect();
        for (c, r) in cells.iter().zip(&results) {
            let col = SCHEMES
                .iter()
                .position(|&s| s == c.scheme)
                .expect("figure column");
            match r {
                Ok(r) if r.run.output_ok && r.baseline.output_ok => {
                    table[c.workload].1[col] = r.normalized;
                }
                Ok(_) => {
                    out.failed += 1;
                    out.problems.push(format!(
                        "{} {}: output check failed",
                        suite[c.workload].abbr,
                        c.scheme.key()
                    ));
                }
                Err(e) => {
                    out.failed += 1;
                    out.problems.push(format!(
                        "{} {}: {e}",
                        suite[c.workload].abbr,
                        c.scheme.key()
                    ));
                }
            }
        }
        if out.problems.is_empty() {
            compare(&table, &expected, !ctx.small, &mut out.problems);
        }

        if ctx.traced && out.problems.is_empty() {
            let t = Instant::now();
            let traced = traced_unit(ctx, u, &mut out);
            out.traced_walls.push(t.elapsed().as_secs_f64());
            if traced != table {
                out.problems
                    .push("traced matrix differs from run_matrix_with_jobs".to_string());
            }
        }
        if !out.problems.is_empty() {
            break;
        }
        est = est.max(pair.elapsed().as_secs_f64());
        u += 1;
    }

    out.end_to_end = vec![
        Metric::new("unit_s", median(&walls), "s", walls.len()),
        Metric::new(
            "sims_per_s",
            sims as f64 / median(&walls),
            "1/s",
            walls.len(),
        ),
        Metric::new("setup_s", median(&setups), "s", setups.len()),
    ];
    out.report = vec![
        Metric::new("matrix_s", median(&walls), "s", walls.len()),
        Metric::new("setup_s", median(&setups), "s", setups.len()),
    ];
    out.unit_walls = walls;
    out
}

/// One matrix through its building blocks, inside spans.
fn traced_unit(ctx: &Ctx, u: u64, out: &mut Outcome) -> Table {
    let tr = &ctx.tracer;
    tr.span("bench.unit", 0, u, |root| {
        let (suite, cells) = tr.span("workloads.catalog", root, u, |_| setup(ctx.small));
        let cfg = &cells[0].cfg;
        let jobs = jobs(&suite, &cells);
        tr.count("matrix.simulations", jobs.len() as f64);
        let next = AtomicUsize::new(0);
        let runs: Vec<(usize, JobResult)> = tr.span("matrix.run", root, u, |m| {
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..JOBS)
                    .map(|_| {
                        s.spawn(|| {
                            let mut done = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                let Some(&(w, scheme)) = jobs.get(i) else {
                                    break;
                                };
                                let r = tr.span("matrix.job", m, i as u64, |j| {
                                    job(tr, j, i as u64, &suite[w], scheme, cfg)
                                });
                                done.push((i, r));
                            }
                            done
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .flat_map(|h| h.join().expect("matrix worker panicked"))
                    .collect()
            })
        });
        tr.span("bench.check", root, u, |_| {
            let mut cycles = vec![None; jobs.len()];
            for (i, r) in runs {
                match r {
                    Ok((c, true)) => cycles[i] = Some(c),
                    Ok((_, false)) => out
                        .problems
                        .push(format!("traced job {i}: output check failed")),
                    Err(e) => out.problems.push(format!("traced job {i}: {e}")),
                }
            }
            let mut table: Table = suite.iter().map(|w| (w.abbr, [0.0; 2])).collect();
            for (k, c) in cells.iter().enumerate() {
                let col = SCHEMES
                    .iter()
                    .position(|&s| s == c.scheme)
                    .expect("figure column");
                if let (Some(run), Some(base)) = (cycles[suite.len() + k], cycles[c.workload]) {
                    table[c.workload].1[col] = run as f64 / base as f64;
                }
            }
            table
        })
    })
}

/// One simulation, layer by layer. Compile and input seeding happen
/// inside `prepare_scheme`; the extra `build` and `init` calls beside it
/// time those two layers on the same inputs.
fn job(
    tr: &Tracer,
    parent: SpanId,
    key: u64,
    w: &WorkloadSpec,
    scheme: Scheme,
    cfg: &ExperimentConfig,
) -> JobResult {
    extra_build_and_init(tr, parent, key, w, scheme, cfg);
    let (mut gpu, _) = tr
        .span("experiment.prepare", parent, key, |_| {
            prepare_scheme(w, scheme, cfg)
        })
        .map_err(|e| e.to_string())?;
    let stats = tr
        .span("gpu-sim.run", parent, key, |_| gpu.run(cfg.max_cycles))
        .map_err(|e| e.to_string())?;
    tr.count("gpu-sim.cycles", stats.cycles as f64);
    tr.count("gpu-sim.warp_insts", stats.instructions as f64);
    let ok = tr.span("workloads.check", parent, key, |_| (w.check)(gpu.global()));
    tr.span("gpu-sim.teardown", parent, key, |_| drop(gpu));
    Ok((stats.cycles, ok))
}

/// The figure's printed rows, GEOMEAN included.
fn read_expected(ctx: &Ctx) -> Result<Vec<(String, [String; 2])>, String> {
    let path = ctx.repo.join("results/fig4_naive.txt");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                [app, a, b] if a.parse::<f64>().is_ok() && b.parse::<f64>().is_ok() => {
                    Some((app.to_string(), [a.to_string(), b.to_string()]))
                }
                _ => None,
            }
        })
        .collect())
}

/// Checks every row of `table` (and, for the full suite, the GEOMEAN
/// row) against the figure to its printed precision.
fn compare(
    table: &Table,
    expected: &[(String, [String; 2])],
    full: bool,
    problems: &mut Vec<String>,
) {
    let lookup = |app: &str| expected.iter().find(|(a, _)| a == app).map(|(_, v)| v);
    let mut rows: Vec<(String, [f64; 2])> =
        table.iter().map(|(a, v)| (a.to_string(), *v)).collect();
    if full {
        if table.len() + 1 != expected.len() {
            problems.push(format!(
                "figure has {} rows, the matrix {}",
                expected.len(),
                table.len() + 1
            ));
        }
        let col = |k: usize| table.iter().map(|(_, v)| v[k]).collect::<Vec<_>>();
        rows.push((
            "GEOMEAN".to_string(),
            [
                flame_core::experiment::geomean(&col(0)),
                flame_core::experiment::geomean(&col(1)),
            ],
        ));
    }
    for (app, v) in rows {
        match lookup(&app) {
            Some(want) => {
                for k in 0..2 {
                    let got = format!("{:.4}", v[k]);
                    if got != want[k] {
                        problems.push(format!("{app} column {k}: {got}, figure has {}", want[k]));
                    }
                }
            }
            None => problems.push(format!("{app} missing from the figure")),
        }
    }
}
