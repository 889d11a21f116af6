//! Integration tests for the parallel experiment-matrix engine: worker
//! count must never change results, and baselines must be simulated
//! exactly once per (workload, config).
//!
//! The tests share a [`Mutex`]: `prepare_count()` is process-global, so
//! the exact-count assertion is only meaningful when the tests in this
//! binary run one at a time.

use flame::core::experiment::{prepare_count, ExperimentConfig};
use flame::core::matrix::{run_matrix_with_jobs, CellResult, MatrixCell};
use flame::core::scheme::Scheme;
use flame::workloads::by_abbr;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

const SCHEMES: [Scheme; 3] = [
    Scheme::SensorRenaming,
    Scheme::SensorCheckpointing,
    Scheme::DuplicationRenaming,
];

fn sub_matrix() -> (Vec<flame::core::experiment::WorkloadSpec>, Vec<MatrixCell>) {
    let suite: Vec<_> = ["Triad", "GUPS"]
        .iter()
        .map(|a| by_abbr(a).expect("known abbr"))
        .collect();
    let cfg = ExperimentConfig::default();
    let mut cells = Vec::new();
    for s in SCHEMES {
        for w in 0..suite.len() {
            cells.push(MatrixCell::new(w, s, cfg.clone()));
        }
    }
    (suite, cells)
}

fn unwrap_all(results: Vec<Result<CellResult, impl std::fmt::Display>>) -> Vec<CellResult> {
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|e| panic!("cell {i}: {e}")))
        .collect()
}

/// The fig13_14-style sub-matrix must be bit-identical on 1 and 8
/// workers: identical `SimStats` on both the scheme run and the
/// baseline, and bit-equal normalized values.
#[test]
fn parallel_matrix_matches_serial_bit_for_bit() {
    let _g = LOCK.lock().unwrap();
    let (suite, cells) = sub_matrix();

    let serial = unwrap_all(run_matrix_with_jobs(&suite, &cells, 1));
    let parallel = unwrap_all(run_matrix_with_jobs(&suite, &cells, 8));

    assert_eq!(serial.len(), parallel.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(a.run.stats, b.run.stats, "cell {i}: scheme stats diverged");
        assert_eq!(
            a.baseline.stats, b.baseline.stats,
            "cell {i}: baseline stats diverged"
        );
        assert_eq!(
            a.normalized.to_bits(),
            b.normalized.to_bits(),
            "cell {i}: normalized time diverged"
        );
        assert!(a.run.output_ok && b.run.output_ok, "cell {i}: output wrong");
    }
}

/// Baseline memoization, pinned by the global prepare counter: a
/// 2-workload × 3-scheme matrix compiles-and-simulates exactly
/// 6 cells + 2 shared baselines = 8 times (a per-cell driver would do
/// 12), and `Scheme::Baseline` cells reuse the memoized run outright.
#[test]
fn baselines_are_simulated_exactly_once_per_workload() {
    let _g = LOCK.lock().unwrap();
    let (suite, mut cells) = sub_matrix();
    let cfg = ExperimentConfig::default();
    for w in 0..suite.len() {
        cells.push(MatrixCell::new(w, Scheme::Baseline, cfg.clone()));
    }

    let before = prepare_count();
    let results = unwrap_all(run_matrix_with_jobs(&suite, &cells, 4));
    let ran = prepare_count() - before;

    assert_eq!(
        ran, 8,
        "expected 6 scheme runs + 2 memoized baselines, got {ran} simulations"
    );
    assert_eq!(results.len(), 8);
    for r in &results[6..] {
        assert_eq!(
            r.normalized.to_bits(),
            1.0f64.to_bits(),
            "a Baseline cell must be its own baseline"
        );
        assert_eq!(r.run.stats, r.baseline.stats);
    }
}
