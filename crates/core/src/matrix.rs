//! The parallel experiment-matrix engine.
//!
//! Every figure of the paper's evaluation is a matrix of independent
//! `(workload, scheme, config)` cells, each normalized to a fault-free
//! baseline run of the same workload under the same config. Cells share
//! no mutable state — a cell is one deterministic compile + simulate —
//! so the engine fans them across `std::thread::scope` workers that pull
//! from a shared [`AtomicUsize`] work index (classic self-scheduling: no
//! channels, no queues, no dependencies beyond `std`).
//!
//! Two properties the figures rely on:
//!
//! * **Determinism** — the simulator is cycle-exact and single-threaded
//!   per cell, so results are bit-identical whatever the worker count or
//!   interleaving. Results are reassembled in input order.
//! * **Run memoization** — the paper's figures share most of their runs:
//!   every scheme of a workload normalizes to one baseline, and the
//!   paper-default Flame column appears in seven results files. The
//!   engine dedups `(workload, scheme, config)` runs and simulates each
//!   exactly once per matrix, so equal cells share one simulation and a
//!   [`Scheme::Baseline`] cell is its own baseline.
//!
//! The caller chooses the worker count.

use crate::experiment::{run_scheme, ExperimentConfig, ExperimentError, RunResult, WorkloadSpec};
use crate::scheme::Scheme;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// One cell of an experiment matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Index into the workload slice passed to [`run_matrix_with_jobs`].
    pub workload: usize,
    /// Scheme to run.
    pub scheme: Scheme,
    /// Experiment configuration (GPU, scheduler, WCDL, cycle budget).
    pub cfg: ExperimentConfig,
}

impl MatrixCell {
    /// Convenience constructor.
    pub fn new(workload: usize, scheme: Scheme, cfg: ExperimentConfig) -> MatrixCell {
        MatrixCell {
            workload,
            scheme,
            cfg,
        }
    }
}

/// Outcome of one matrix cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The scheme run (for a [`Scheme::Baseline`] cell, the baseline
    /// itself).
    pub run: RunResult,
    /// The baseline run the cell normalizes against.
    pub baseline: RunResult,
    /// Normalized execution time: `run.stats.cycles / baseline.stats.cycles`.
    pub normalized: f64,
}

/// One distinct simulation: a workload index, a scheme and a config.
type Run<'a> = (usize, Scheme, &'a ExperimentConfig);

/// The index of `run` in `runs`, appending it when it is new. The
/// quadratic probe is fine: matrices are at most a few thousand cells,
/// and a probe is a struct compare, not a simulation.
fn intern<'a>(runs: &mut Vec<Run<'a>>, run: Run<'a>) -> usize {
    runs.iter().position(|r| *r == run).unwrap_or_else(|| {
        runs.push(run);
        runs.len() - 1
    })
}

/// Runs every cell of the matrix on `jobs` worker threads and returns
/// per-cell results **in input order**, each normalized to a baseline
/// run of the cell's workload under the cell's config. Every run is
/// memoized: each distinct `(workload, scheme, config)` triple, baselines
/// included, is compiled and simulated exactly once per call, however
/// many cells share it. Distinct baselines run first, then the other
/// distinct runs, each in order of first appearance.
///
/// Cell simulations are deterministic and independent, so the output is
/// bit-identical for any `jobs ≥ 1`.
///
/// Errors are per-cell: one failing cell does not poison its neighbours.
/// A cell whose *baseline* fails reports that baseline error.
///
/// # Panics
///
/// Panics if a cell's workload index is out of bounds, or if a worker
/// thread panics (i.e. a workload's `init`/`check` closure panicked).
pub fn run_matrix_with_jobs(
    workloads: &[WorkloadSpec],
    cells: &[MatrixCell],
    jobs: usize,
) -> Vec<Result<CellResult, ExperimentError>> {
    for (i, c) in cells.iter().enumerate() {
        assert!(
            c.workload < workloads.len(),
            "cell {i}: workload index {} out of bounds ({} workloads)",
            c.workload,
            workloads.len()
        );
    }

    // One job per distinct run. All jobs are mutually independent
    // (normalization happens at reassembly), so baselines and cells
    // share one pool with no phase barrier.
    let mut runs: Vec<Run> = Vec::new();
    let cell_base: Vec<usize> = cells
        .iter()
        .map(|c| intern(&mut runs, (c.workload, Scheme::Baseline, &c.cfg)))
        .collect();
    let cell_run: Vec<usize> = cells
        .iter()
        .map(|c| intern(&mut runs, (c.workload, c.scheme, &c.cfg)))
        .collect();

    let workers = jobs.max(1).min(runs.len().max(1));
    let next = AtomicUsize::new(0);
    // Workers collect (run index, result) locally and hand the batches
    // back through their join handles: no locks anywhere.
    let mut done: Vec<(usize, Result<RunResult, ExperimentError>)> = thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(w, scheme, cfg)) = runs.get(i) else {
                            break;
                        };
                        out.push((i, run_scheme(&workloads[w], scheme, cfg)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("matrix worker panicked"))
            .collect()
    });

    // Put the runs back in order, then reassemble per-cell results in
    // input order.
    done.sort_unstable_by_key(|&(i, _)| i);
    let results: Vec<_> = done.into_iter().map(|(_, r)| r).collect();
    cell_base
        .iter()
        .zip(&cell_run)
        .map(|(&b, &r)| {
            let baseline = results[b].clone()?;
            let run = results[r].clone()?;
            let normalized = run.stats.cycles as f64 / baseline.stats.cycles as f64;
            Ok(CellResult {
                run,
                baseline,
                normalized,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::prepare_count;
    use gpu_sim::builder::KernelBuilder;
    use gpu_sim::isa::{MemSpace, Special};
    use gpu_sim::sm::LaunchDims;
    use std::sync::Arc;

    /// A tiny workload (one CTA, 64 threads) so matrix tests stay fast.
    fn tiny_workload(name: &'static str, mult: i64) -> WorkloadSpec {
        let mut b = KernelBuilder::new(name);
        let tid = b.special(Special::TidX);
        let a = b.imul(tid, 8);
        let v = b.ld_arr(MemSpace::Global, 0, a, 0);
        let w = b.imul(v, mult);
        b.st_arr(MemSpace::Global, 0, a, w, 4096);
        b.exit();
        WorkloadSpec {
            name,
            abbr: name,
            suite: "test",
            kernel: b.finish(),
            dims: LaunchDims::linear(1, 64),
            init: Arc::new(|m| {
                for t in 0..64 {
                    m.write(t * 8, t + 1);
                }
            }),
            check: Arc::new(move |m| {
                (0..64).all(|t| m.read(4096 + t * 8) == (t + 1) * mult as u64)
            }),
        }
    }

    fn cfg() -> ExperimentConfig {
        ExperimentConfig {
            max_cycles: 1_000_000,
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn results_are_in_input_order_and_normalized() {
        let wls = [tiny_workload("wa", 3), tiny_workload("wb", 5)];
        let cells = vec![
            MatrixCell::new(1, Scheme::SensorRenaming, cfg()),
            MatrixCell::new(0, Scheme::Baseline, cfg()),
            MatrixCell::new(0, Scheme::SensorRenaming, cfg()),
        ];
        let out = run_matrix_with_jobs(&wls, &cells, 3);
        assert_eq!(out.len(), 3);
        let r: Vec<&CellResult> = out.iter().map(|r| r.as_ref().unwrap()).collect();
        // The baseline cell normalizes to exactly 1 and reuses the
        // memoized baseline run verbatim.
        assert_eq!(r[1].normalized, 1.0);
        assert_eq!(r[1].run.stats, r[1].baseline.stats);
        // Cells over the same (workload, cfg) share one baseline.
        assert_eq!(r[1].baseline.stats, r[2].baseline.stats);
        for c in &r {
            assert!(c.run.output_ok && c.baseline.output_ok);
            assert!(c.normalized >= 1.0);
        }
    }

    #[test]
    fn baselines_are_memoized_across_cells() {
        let wls = [tiny_workload("wm", 7)];
        let shared = cfg();
        let other = ExperimentConfig { wcdl: 40, ..cfg() };
        let cells = vec![
            MatrixCell::new(0, Scheme::Baseline, shared.clone()),
            MatrixCell::new(0, Scheme::SensorRenaming, shared.clone()),
            MatrixCell::new(0, Scheme::SensorCheckpointing, shared.clone()),
            MatrixCell::new(0, Scheme::SensorRenaming, other.clone()),
        ];
        let before = prepare_count();
        let out = run_matrix_with_jobs(&wls, &cells, 2);
        let ran = prepare_count() - before;
        // The expected count is 5: 2 distinct baselines (the shared cfg
        // memoized across 3 cells, `other` its own) + 3 scheme runs, not
        // 8. The counter is process-global and sibling tests in this
        // binary prepare runs concurrently, so the exact count is pinned
        // in the serialized `matrix` integration test; here only the
        // lower bound is race-free.
        assert!(ran >= 5, "too few runs: {ran}");
        assert!(out.iter().all(|r| r.is_ok()));
        let r: Vec<&CellResult> = out.iter().map(|r| r.as_ref().unwrap()).collect();
        // The three shared-cfg cells normalize against one identical
        // baseline; the other-cfg cell has its own.
        assert_eq!(r[0].baseline.stats, r[1].baseline.stats);
        assert_eq!(r[1].baseline.stats, r[2].baseline.stats);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let wls = [tiny_workload("wd", 2), tiny_workload("we", 9)];
        let cells: Vec<MatrixCell> = (0..2)
            .flat_map(|w| {
                [Scheme::Baseline, Scheme::SensorRenaming, Scheme::Renaming]
                    .into_iter()
                    .map(move |s| MatrixCell::new(w, s, cfg()))
            })
            .collect();
        let serial = run_matrix_with_jobs(&wls, &cells, 1);
        let wide = run_matrix_with_jobs(&wls, &cells, 8);
        for (a, b) in serial.iter().zip(&wide) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.run.stats, b.run.stats);
            assert_eq!(a.baseline.stats, b.baseline.stats);
            assert_eq!(a.normalized, b.normalized);
        }
    }

    #[test]
    fn per_cell_errors_do_not_poison_neighbours() {
        let wls = [tiny_workload("wf", 4)];
        let strangled = ExperimentConfig {
            max_cycles: 1, // guaranteed timeout
            ..cfg()
        };
        let cells = vec![
            MatrixCell::new(0, Scheme::SensorRenaming, strangled),
            MatrixCell::new(0, Scheme::SensorRenaming, cfg()),
        ];
        let out = run_matrix_with_jobs(&wls, &cells, 2);
        assert!(matches!(out[0], Err(ExperimentError::Timeout(_))));
        assert!(out[1].as_ref().unwrap().run.output_ok);
    }
}
