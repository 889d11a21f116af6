//! Parameterized single-cell experiment: run one workload under one
//! scheme on one configuration and print the details.
//!
//! Usage: sweep [WORKLOAD] [SCHEME] [WCDL] [SCHED] [GPU]
//!   WORKLOAD  Table-I abbreviation (default LUD)
//!   SCHEME    flame|sensor-ckpt|renaming|ckpt|dup-ren|dup-ckpt|
//!             hybrid-ren|hybrid-ckpt|naive|baseline   (default flame)
//!   WCDL      cycles (default 20)
//!   SCHED     gto|old|lrr|2level (default gto)
//!   GPU       gtx480|titanx|gv100|rtx2060 (default gtx480)

use flame_core::experiment::ExperimentConfig;
use flame_core::matrix::{run_matrix_with_jobs, MatrixCell};
use flame_core::report::dynamic_region_size;
use flame_core::scheme::Scheme;
use gpu_sim::config::GpuConfig;
use gpu_sim::scheduler::SchedulerKind;

fn main() {
    let jobs = flame_bench::BenchEnv::from_process().jobs;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let abbr = args.first().map_or("LUD", String::as_str);
    let scheme = match args.get(1).map_or("flame", String::as_str) {
        "flame" => Scheme::SensorRenaming,
        "sensor-ckpt" => Scheme::SensorCheckpointing,
        "renaming" => Scheme::Renaming,
        "ckpt" => Scheme::Checkpointing,
        "dup-ren" => Scheme::DuplicationRenaming,
        "dup-ckpt" => Scheme::DuplicationCheckpointing,
        "hybrid-ren" => Scheme::HybridRenaming,
        "hybrid-ckpt" => Scheme::HybridCheckpointing,
        "naive" => Scheme::NaiveSensorRenaming,
        "baseline" => Scheme::Baseline,
        other => panic!("unknown scheme `{other}`"),
    };
    let wcdl: u32 = args.get(2).map_or(20, |s| s.parse().expect("WCDL"));
    let sched = match args.get(3).map_or("gto", String::as_str) {
        "gto" => SchedulerKind::Gto,
        "old" => SchedulerKind::Old,
        "lrr" => SchedulerKind::Lrr,
        "2level" => SchedulerKind::TwoLevel,
        other => panic!("unknown scheduler `{other}`"),
    };
    let gpu = match args.get(4).map_or("gtx480", String::as_str) {
        "gtx480" => GpuConfig::gtx480(),
        "titanx" => GpuConfig::titan_x(),
        "gv100" => GpuConfig::gv100(),
        "rtx2060" => GpuConfig::rtx2060(),
        other => panic!("unknown GPU `{other}`"),
    };
    let w = flame_workloads::by_abbr(abbr).unwrap_or_else(|| panic!("unknown workload `{abbr}`"));
    let cfg = ExperimentConfig {
        gpu,
        sched,
        wcdl,
        ..ExperimentConfig::default()
    };
    // One matrix cell: the engine runs the baseline and the scheme and
    // hands back both (the baseline is reused outright when the scheme
    // *is* the baseline).
    let cell = run_matrix_with_jobs(
        std::slice::from_ref(&w),
        &[MatrixCell::new(0, scheme, cfg.clone())],
        jobs,
    )
    .pop()
    .expect("one cell in, one out")
    .expect("scheme run");
    let (base, r) = (cell.baseline, cell.run);
    assert!(r.output_ok, "output check failed");
    println!(
        "{} under {} (WCDL={}, {}, {})",
        w.abbr, scheme, wcdl, cfg.sched, cfg.gpu.name
    );
    println!("  baseline cycles:   {}", base.stats.cycles);
    println!(
        "  scheme cycles:     {}  ({:+.2}%)",
        r.stats.cycles,
        (cell.normalized - 1.0) * 100.0
    );
    println!(
        "  regions:           {} (static mean {:.1}, dynamic mean {:.1})",
        r.compile.regions,
        r.compile.mean_region_size,
        dynamic_region_size(&r.stats)
    );
    println!(
        "  regs/thread:       {} (spills {}, renames {}, ckpts {}, dups {})",
        r.compile.regs_per_thread,
        r.compile.spills,
        r.compile.renamed,
        r.compile.checkpoints,
        r.compile.duplicated
    );
    println!(
        "  boundaries:        {} crossed, {} descheduled, {} verified",
        r.stats.resilience.boundaries,
        r.stats.resilience.deschedules,
        r.stats.resilience.verifications
    );
    println!("  stalls:            {:?}", r.stats.stalls);
    println!("  memory:            {:?}", r.stats.mem);
}
