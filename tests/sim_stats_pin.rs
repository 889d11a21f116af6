//! Pins every `SimStats` field of a fixed set of cells to hashes kept in
//! `tests/data/sim_stats.txt`.
//!
//! The figures print normalized cycles to four decimals, and the identity
//! suites (event clock, snapshot, trace) compare the simulator with
//! itself, so a change that moved only a stall tally, a cache counter or
//! a resilience counter could pass all of them. This test compares the
//! current simulator against recorded values instead. The cells cover
//! barriers, shared and global atomics, divergent branches, MSHR
//! pressure, RBQ deschedules (Flame) and blocked schedulers (naive
//! verification), under every warp-scheduling policy, on a 48-slot
//! GTX 480, a 64-slot TITAN X, whose 48-set L1 is the only shipped set
//! count that is not a power of two, and a 64-slot GV100.
//!
//! A cell's hash is FNV-1a 64 over `name=value;` for every nonzero field,
//! in the order `SimStats::diff` names them (its exhaustive destructuring
//! makes a new counter part of the hash). When a change is meant to alter
//! the statistics, the failure message prints the file to commit.

use flame::core::experiment::ExperimentConfig;
use flame::core::matrix::{run_matrix_with_jobs, MatrixCell};
use flame::core::scheme::Scheme;
use flame::sim::config::GpuConfig;
use flame::sim::scheduler::SchedulerKind;
use flame::sim::stats::SimStats;
use flame::workloads::by_abbr;
use std::fmt::Write as _;

/// Histogram: barriers, shared atomics, divergence, MSHR pressure.
/// KNN: barriers and divergent reductions. GUPS: global atomics, the
/// longest naive scheduler blocks. SRAD: barriers with deschedules.
/// BFS: divergent skips under MSHR pressure. BP: 32-segment loads that
/// keep every MSHR busy, the fault campaigns' reference workload.
const WORKLOADS: [&str; 6] = ["Histogram", "KNN", "GUPS", "SRAD", "BFS", "BP"];

const SCHEMES: [Scheme; 2] = [Scheme::NaiveSensorRenaming, Scheme::SensorRenaming];

const PINNED: &str = include_str!("data/sim_stats.txt");

/// FNV-1a 64 over every nonzero field of `s`, by name.
fn stats_hash(s: &SimStats) -> u64 {
    let mut text = String::new();
    for (name, value, _) in s.diff(&SimStats::default()) {
        write!(text, "{name}={value};").expect("writing to a String");
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn sim_stats_match_the_pinned_hashes() {
    let specs: Vec<_> = WORKLOADS
        .iter()
        .map(|w| by_abbr(w).expect("known workload"))
        .collect();
    let mut cells = Vec::new();
    for w in 0..specs.len() {
        for gpu in [
            GpuConfig::gtx480(),
            GpuConfig::titan_x(),
            GpuConfig::gv100(),
        ] {
            for sched in SchedulerKind::all() {
                let cfg = ExperimentConfig {
                    gpu: gpu.clone(),
                    sched,
                    ..ExperimentConfig::default()
                };
                for scheme in SCHEMES {
                    cells.push(MatrixCell::new(w, scheme, cfg.clone()));
                }
            }
        }
    }
    let results = run_matrix_with_jobs(&specs, &cells, 2);

    // One line per simulation: each (workload, GPU, policy) baseline,
    // then its scheme cells.
    let mut lines = Vec::new();
    for (cell, r) in cells.iter().zip(&results) {
        let r = r
            .as_ref()
            .unwrap_or_else(|e| panic!("{}: {e}", specs[cell.workload].abbr));
        let key = |scheme: Scheme| {
            format!(
                "{} {} {} {scheme:?}",
                specs[cell.workload].abbr, cell.cfg.gpu.name, cell.cfg.sched
            )
        };
        if cell.scheme == SCHEMES[0] {
            assert!(
                r.baseline.output_ok,
                "{}: output check",
                key(Scheme::Baseline)
            );
            lines.push((key(Scheme::Baseline), r.baseline.stats));
        }
        assert!(r.run.output_ok, "{}: output check", key(cell.scheme));
        lines.push((key(cell.scheme), r.run.stats));
    }

    let mut want = PINNED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty());
    let mut mismatches = String::new();
    let mut regenerated = String::new();
    for (key, stats) in &lines {
        let got = format!("{key} {:016x}", stats_hash(stats));
        writeln!(regenerated, "{got}").unwrap();
        match want.next() {
            Some(w) if w == got => {}
            other => writeln!(mismatches, "{key}: pinned {other:?}, simulated\n{stats}\n").unwrap(),
        }
    }
    assert!(want.next().is_none(), "the pinned file lists extra cells");
    assert!(
        mismatches.is_empty(),
        "SimStats moved in {} of {} cells:\n{mismatches}\nregenerated file body:\n{regenerated}",
        mismatches.matches("pinned").count(),
        lines.len()
    );
}
