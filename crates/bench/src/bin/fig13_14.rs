//! Figures 13 & 14: normalized execution time of every resilience scheme
//! on every workload (WCDL = 20, GTO, GTX480); the final GEOMEAN row is
//! Figure 15.

use flame_bench::{paper_default, print_table, run_series, BenchEnv, Series};
use flame_core::scheme::Scheme;

fn main() {
    let jobs = BenchEnv::from_process().jobs;
    let cfg = paper_default();
    let suite = flame_workloads::all();
    let schemes = Scheme::paper_schemes();
    println!("Figures 13/14 — normalized execution time (WCDL=20, GTO, GTX480)\n");
    eprintln!(
        "running {} schemes x {} workloads on {} worker(s)...",
        schemes.len(),
        suite.len(),
        jobs
    );
    let spec: Vec<Series> = schemes.iter().map(|s| Series::of(*s, &cfg)).collect();
    let series = run_series(&suite, &spec, jobs);
    let names: Vec<&str> = schemes.iter().map(|s| s.name()).collect();
    print_table(&names, &series);
    println!("\n(the GEOMEAN row is Figure 15; paper: Flame 1.006, Sensor+Ckpt 1.069,");
    println!(" Renaming 1.0004, Checkpointing 1.059, Dup+Ren 1.344, Dup+Ckpt 1.453,");
    println!(" Hybrid+Ren 1.135, Hybrid+Ckpt 1.19)");
}
