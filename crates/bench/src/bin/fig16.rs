//! Figure 16: impact of the idempotent region-size extension
//! optimization (§III-E) — Flame with and without it, on the workloads
//! whose barrier patterns qualify.

use flame_bench::{paper_default, print_table, run_series, series_geomean, BenchEnv, Series};
use flame_core::scheme::Scheme;

fn main() {
    let jobs = BenchEnv::from_process().jobs;
    let cfg = paper_default();
    let suite: Vec<_> = flame_workloads::region_opt_candidates()
        .iter()
        .map(|a| flame_workloads::by_abbr(a).expect("known abbr"))
        .collect();
    println!("Figure 16 — region-extension optimization impact (qualifying workloads)\n");
    let series = run_series(
        &suite,
        &[
            Series::named("without opt", Scheme::SensorRenamingNoOpt, &cfg),
            Series::named("with opt (Flame)", Scheme::SensorRenaming, &cfg),
        ],
        jobs,
    );
    print_table(&["without opt", "with opt (Flame)"], &series);
    println!(
        "\naverage overhead: {:.2}% -> {:.2}%  (paper: 4.8% -> 1.7% over its 7 apps;",
        (series_geomean(&series[0]) - 1.0) * 100.0,
        (series_geomean(&series[1]) - 1.0) * 100.0,
    );
    println!(" LUD 15% -> 6.4%, CG 9.7% -> 1.7%)");
}
