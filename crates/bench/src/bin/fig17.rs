//! Figure 17: Flame's overhead as WCDL varies from 10 to 50 cycles
//! (GTO, GTX480).

use flame_bench::{print_table, run_series, series_geomean, BenchEnv, Series};
use flame_core::experiment::ExperimentConfig;
use flame_core::scheme::Scheme;

fn main() {
    let jobs = BenchEnv::from_process().jobs;
    let suite = flame_workloads::all();
    println!("Figure 17 — Flame overhead vs. WCDL (GTO, GTX480)\n");
    let wcdls = [10u32, 20, 30, 40, 50];
    eprintln!(
        "running {} WCDLs x {} workloads on {} worker(s)...",
        wcdls.len(),
        suite.len(),
        jobs
    );
    let spec: Vec<Series> = wcdls
        .iter()
        .map(|&w| {
            let cfg = ExperimentConfig {
                wcdl: w,
                ..ExperimentConfig::default()
            };
            Series::named(format!("WCDL={w}"), Scheme::SensorRenaming, &cfg)
        })
        .collect();
    let series = run_series(&suite, &spec, jobs);
    let names: Vec<&str> = spec.iter().map(|s| s.name.as_str()).collect();
    print_table(&names, &series);
    println!("\ngeomean overheads:");
    for (w, s) in wcdls.iter().zip(&series) {
        println!("  WCDL={w}: {:+.2}%", (series_geomean(s) - 1.0) * 100.0);
    }
    println!("(paper: 0.13% at WCDL=10 rising to 2.1% at WCDL=50)");
}
