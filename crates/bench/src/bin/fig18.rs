//! Figure 18: Flame's overhead under the four warp-scheduler models
//! (each normalized to the same scheduler's no-resilience baseline).

use flame_bench::{print_table, run_series, series_geomean, BenchEnv, Series};
use flame_core::experiment::ExperimentConfig;
use flame_core::scheme::Scheme;
use gpu_sim::scheduler::SchedulerKind;

fn main() {
    let jobs = BenchEnv::from_process().jobs;
    let suite = flame_workloads::all();
    println!("Figure 18 — Flame overhead per warp scheduler (WCDL=20, GTX480)\n");
    eprintln!(
        "running {} schedulers x {} workloads on {} worker(s)...",
        SchedulerKind::all().len(),
        suite.len(),
        jobs
    );
    let spec: Vec<Series> = SchedulerKind::all()
        .iter()
        .map(|&sched| {
            let cfg = ExperimentConfig {
                sched,
                ..ExperimentConfig::default()
            };
            Series::named(sched.name(), Scheme::SensorRenaming, &cfg)
        })
        .collect();
    let series = run_series(&suite, &spec, jobs);
    let names: Vec<&str> = SchedulerKind::all().iter().map(|s| s.name()).collect();
    print_table(&names, &series);
    println!("\ngeomean overheads:");
    for (sched, s) in SchedulerKind::all().iter().zip(&series) {
        println!("  {sched}: {:+.2}%", (series_geomean(s) - 1.0) * 100.0);
    }
    println!("(paper: GTO 0.6%, LRR 0.76%, OLD 1.18%, 2-Level 1.58%)");
}
