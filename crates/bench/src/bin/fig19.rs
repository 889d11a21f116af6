//! Figure 19: Flame's overhead on the four GPU architectures (each
//! normalized to the same architecture's no-resilience baseline).

use flame_bench::{print_table, run_series, series_geomean, BenchEnv, Series};
use flame_core::experiment::ExperimentConfig;
use flame_core::scheme::Scheme;
use gpu_sim::config::GpuConfig;

fn main() {
    let jobs = BenchEnv::from_process().jobs;
    let suite = flame_workloads::all();
    println!("Figure 19 — Flame overhead per GPU architecture (WCDL=20, GTO)\n");
    let archs = GpuConfig::paper_architectures();
    eprintln!(
        "running {} GPUs x {} workloads on {} worker(s)...",
        archs.len(),
        suite.len(),
        jobs
    );
    let spec: Vec<Series> = archs
        .iter()
        .map(|gpu| {
            let cfg = ExperimentConfig {
                gpu: gpu.clone(),
                ..ExperimentConfig::default()
            };
            Series::named(gpu.name, Scheme::SensorRenaming, &cfg)
        })
        .collect();
    let series = run_series(&suite, &spec, jobs);
    let names: Vec<&str> = archs.iter().map(|a| a.name).collect();
    print_table(&names, &series);
    println!("\ngeomean overheads:");
    for (gpu, s) in archs.iter().zip(&series) {
        println!("  {}: {:+.2}%", gpu.name, (series_geomean(s) - 1.0) * 100.0);
    }
    println!("(paper: all four under 1%, TITAN X highest at 0.97%)");
}
