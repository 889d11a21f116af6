//! Regenerates every results file of the paper's evaluation:
//! `figures [DIR]` writes `DIR/<name>.txt` (default `results/`) for
//! Table I, Figure 12, Table II, Figures 13/14 (with Figure 15 as their
//! GEOMEAN row), Figures 16–19, the §IV and §VI-A statistics and
//! Figure 4's motivation.
//!
//! Every figure's cells go to one [`run_matrix_with_jobs`] call on
//! `FLAME_JOBS` workers, which simulates each distinct (workload,
//! scheme, config) once. A failed simulation, a wrong output or a file
//! that cannot be written exits non-zero.

use flame_bench::BenchEnv;
use flame_core::experiment::{geomean, prepare_count, ExperimentConfig, WorkloadSpec};
use flame_core::matrix::{run_matrix_with_jobs, CellResult, MatrixCell};
use flame_core::report::{dynamic_region_size, hardware_cost};
use flame_core::scheme::Scheme;
use flame_sensors::fault::FaultRates;
use flame_sensors::mesh::SensorMesh;
use gpu_sim::config::GpuConfig;
use gpu_sim::scheduler::SchedulerKind;
use std::fmt::{self, Write as _};
use std::path::PathBuf;

fn fail(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    std::process::exit(1);
}

/// One column of a figure: a scheme under a configuration.
struct Column {
    name: String,
    scheme: Scheme,
    cfg: ExperimentConfig,
}

impl Column {
    fn new(name: impl Into<String>, scheme: Scheme, cfg: ExperimentConfig) -> Column {
        Column {
            name: name.into(),
            scheme,
            cfg,
        }
    }
}

/// A figure printed as a table of normalized times, one row per
/// workload and a GEOMEAN row, under a title and above a footer.
struct Figure {
    file: &'static str,
    title: &'static str,
    /// Catalog indices of the rows.
    apps: Vec<usize>,
    columns: Vec<Column>,
    footer: Footer,
}

/// What a figure prints below its table.
enum Footer {
    /// A fixed note (Figures 13/14).
    Note(&'static str),
    /// A line computed from the two columns' geomeans (Figures 4 and 16).
    Pair(fn(f64, f64) -> String),
    /// Each column's geomean overhead under its own name, then a note
    /// (Figures 17–19).
    Overheads(&'static str),
}

/// A geomean as a percentage overhead.
fn pct(geomean: f64) -> f64 {
    (geomean - 1.0) * 100.0
}

fn main() {
    let dir = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| "results".into()));
    let jobs = BenchEnv::from_process().jobs;
    let suite = flame_workloads::all();
    let abbrs: Vec<&str> = suite.iter().map(|w| w.abbr).collect();
    let every: Vec<usize> = (0..suite.len()).collect();
    let paper = ExperimentConfig::default();

    let figures = [
        Figure {
            file: "fig4_naive",
            title: "Figure 4 ablation — naive verification vs. WCDL-aware scheduling",
            apps: every.clone(),
            columns: vec![
                Column::new("naive stall", Scheme::NaiveSensorRenaming, paper.clone()),
                Column::new("Flame (WCDL-aware)", Scheme::SensorRenaming, paper.clone()),
            ],
            footer: Footer::Pair(|naive, flame| {
                format!(
                    "geomean: naive {:+.1}% vs Flame {:+.2}% — the verification delay Flame hides",
                    pct(naive),
                    pct(flame)
                )
            }),
        },
        Figure {
            file: "fig13_14",
            title: "Figures 13/14 — normalized execution time (WCDL=20, GTO, GTX480)",
            apps: every.clone(),
            columns: Scheme::paper_schemes()
                .iter()
                .map(|&s| Column::new(s.name(), s, paper.clone()))
                .collect(),
            footer: Footer::Note(
                "(the GEOMEAN row is Figure 15; paper: Flame 1.006, Sensor+Ckpt 1.069,\n \
                 Renaming 1.0004, Checkpointing 1.059, Dup+Ren 1.344, Dup+Ckpt 1.453,\n \
                 Hybrid+Ren 1.135, Hybrid+Ckpt 1.19)",
            ),
        },
        Figure {
            file: "fig16",
            title: "Figure 16 — region-extension optimization impact (qualifying workloads)",
            apps: flame_workloads::region_opt_candidates()
                .iter()
                .map(|a| {
                    abbrs
                        .iter()
                        .position(|b| b == a)
                        .expect("a catalog workload")
                })
                .collect(),
            columns: vec![
                Column::new("without opt", Scheme::SensorRenamingNoOpt, paper.clone()),
                Column::new("with opt (Flame)", Scheme::SensorRenaming, paper.clone()),
            ],
            footer: Footer::Pair(|without, with| {
                format!(
                    "average overhead: {:.2}% -> {:.2}%  (paper: 4.8% -> 1.7% over its 7 apps;\n \
                     LUD 15% -> 6.4%, CG 9.7% -> 1.7%)",
                    pct(without),
                    pct(with)
                )
            }),
        },
        Figure {
            file: "fig17",
            title: "Figure 17 — Flame overhead vs. WCDL (GTO, GTX480)",
            apps: every.clone(),
            columns: [10u32, 20, 30, 40, 50]
                .iter()
                .map(|&wcdl| {
                    let mut cfg = paper.clone();
                    cfg.wcdl = wcdl;
                    Column::new(format!("WCDL={wcdl}"), Scheme::SensorRenaming, cfg)
                })
                .collect(),
            footer: Footer::Overheads("(paper: 0.13% at WCDL=10 rising to 2.1% at WCDL=50)"),
        },
        Figure {
            file: "fig18",
            title: "Figure 18 — Flame overhead per warp scheduler (WCDL=20, GTX480)",
            apps: every.clone(),
            columns: SchedulerKind::all()
                .iter()
                .map(|&sched| {
                    let mut cfg = paper.clone();
                    cfg.sched = sched;
                    Column::new(sched.name(), Scheme::SensorRenaming, cfg)
                })
                .collect(),
            footer: Footer::Overheads("(paper: GTO 0.6%, LRR 0.76%, OLD 1.18%, 2-Level 1.58%)"),
        },
        Figure {
            file: "fig19",
            title: "Figure 19 — Flame overhead per GPU architecture (WCDL=20, GTO)",
            apps: every.clone(),
            columns: GpuConfig::paper_architectures()
                .into_iter()
                .map(|gpu| {
                    let mut cfg = paper.clone();
                    cfg.gpu = gpu;
                    Column::new(cfg.gpu.name, Scheme::SensorRenaming, cfg)
                })
                .collect(),
            footer: Footer::Overheads("(paper: all four under 1%, TITAN X highest at 0.97%)"),
        },
    ];
    let mut cells = Vec::new();
    let mut names = Vec::new();
    for f in &figures {
        for c in &f.columns {
            for &w in &f.apps {
                cells.push(MatrixCell::new(w, c.scheme, c.cfg.clone()));
                names.push(c.name.as_str());
            }
        }
    }
    // The region statistics read Flame's compile and run statistics at
    // the paper default, runs the figures already simulate.
    for w in every {
        cells.push(MatrixCell::new(w, Scheme::SensorRenaming, paper.clone()));
        names.push("Flame");
    }

    let before = prepare_count();
    let results = run_matrix_with_jobs(&suite, &cells, jobs);
    eprintln!(
        "figures: {} distinct simulations for {} cells on {jobs} worker(s)",
        prepare_count() - before,
        cells.len()
    );
    let results: Vec<CellResult> = results
        .into_iter()
        .zip(cells.iter().zip(&names))
        .map(|(r, (c, name))| match r {
            Ok(r) if r.run.output_ok && r.baseline.output_ok => r,
            Ok(r) => fail(&format!(
                "{} {name}: {} output wrong",
                abbrs[c.workload],
                if r.run.output_ok { "baseline" } else { "run" }
            )),
            Err(e) => fail(&format!("{} {name}: {e}", abbrs[c.workload])),
        })
        .collect();

    let mut rest = &results[..];
    let mut files = Vec::new();
    for f in &figures {
        let (mine, tail) = rest.split_at(f.columns.len() * f.apps.len());
        files.push((f.file, render(f, &abbrs, mine)));
        rest = tail;
    }
    files.push(("region_stats", region_stats(&abbrs, rest, &paper.gpu)));
    files.push(("table1", table1(&suite)));
    files.push(("fig12", fig12()));
    files.push(("table2", table2()));
    for (name, text) in files {
        let path = dir.join(format!("{name}.txt"));
        let text = text.expect("formatting into a String cannot fail");
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
            fail(&format!("cannot write {}: {e}", path.display()));
        }
    }
}

/// A figure's title, its table with a GEOMEAN row, and its footer.
fn render(f: &Figure, abbrs: &[&str], results: &[CellResult]) -> Result<String, fmt::Error> {
    let columns: Vec<&[CellResult]> = results.chunks(f.apps.len()).collect();
    let mut out = String::new();
    writeln!(out, "{}\n", f.title)?;
    write!(out, "{:<12}", "app")?;
    for c in &f.columns {
        write!(out, " {:>22}", c.name)?;
    }
    writeln!(out)?;
    for (i, &w) in f.apps.iter().enumerate() {
        write!(out, "{:<12}", abbrs[w])?;
        for column in &columns {
            write!(out, " {:>22.4}", column[i].normalized)?;
        }
        writeln!(out)?;
    }
    let geomeans: Vec<f64> = columns
        .iter()
        .map(|column| geomean(&column.iter().map(|c| c.normalized).collect::<Vec<_>>()))
        .collect();
    write!(out, "{:<12}", "GEOMEAN")?;
    for g in &geomeans {
        write!(out, " {g:>22.4}")?;
    }
    writeln!(out)?;
    match f.footer {
        Footer::Note(note) => writeln!(out, "\n{note}")?,
        Footer::Pair(line) => writeln!(out, "\n{}", line(geomeans[0], geomeans[1]))?,
        Footer::Overheads(note) => {
            writeln!(out, "\ngeomean overheads:")?;
            for (c, &g) in f.columns.iter().zip(&geomeans) {
                writeln!(out, "  {}: {:+.2}%", c.name, pct(g))?;
            }
            writeln!(out, "{note}")?;
        }
    }
    Ok(out)
}

/// §IV statistics (dynamic region sizes, the false-positive arithmetic)
/// and §VI-A hardware costs, plus per-app compile-time region data of
/// Flame at the paper default.
fn region_stats(
    abbrs: &[&str],
    flame: &[CellResult],
    gpu: &GpuConfig,
) -> Result<String, fmt::Error> {
    let mut out = String::new();
    writeln!(out, "§IV / §VI-A statistics\n")?;
    writeln!(
        out,
        "{:<12} {:>9} {:>14} {:>14} {:>12}",
        "app", "regions", "static mean", "dynamic mean", "renames"
    )?;
    let mut dyn_sizes = Vec::new();
    for (abbr, cell) in abbrs.iter().zip(flame) {
        let r = &cell.run;
        let d = dynamic_region_size(&r.stats);
        dyn_sizes.push(d);
        writeln!(
            out,
            "{:<12} {:>9} {:>14.1} {:>14.1} {:>12}",
            abbr, r.compile.regions, r.compile.mean_region_size, d, r.compile.renamed
        )?;
    }
    let avg = dyn_sizes.iter().sum::<f64>() / dyn_sizes.len() as f64;
    writeln!(
        out,
        "\naverage dynamic region size: {avg:.2} warp-instructions\n\
         (paper: 50.23 instructions average across its 34 applications)\n"
    )?;
    let rates = FaultRates::default();
    let fp = rates.false_positives_per_day();
    writeln!(
        out,
        "false-positive arithmetic (§IV, Tiwari et al. field data):\n  \
         visible failures/day:      {:.2}\n  \
         masking rate:              {:.1}%\n  \
         raw strikes/day:           {:.2}  (paper: ~1.37)\n  \
         sensor false positives/day: {fp:.2} (paper prints 0.93 using a 68.5% rate; with the\n   \
         63.5% rate it quotes, the product is {fp:.2})",
        rates.visible_failures_per_day,
        rates.masking_rate * 100.0,
        rates.raw_errors_per_day(),
    )?;
    let c = hardware_cost(gpu, 20);
    writeln!(
        out,
        "\nhardware cost at the default deployment (GTX480, WCDL=20):\n  \
         sensors/SM: {}   area: {:.4}%\n  \
         RBQ: {} bits/scheduler   RPT: {} bits/scheduler",
        c.sensors_per_sm,
        c.sensor_area_overhead * 100.0,
        c.rbq_bits_per_scheduler,
        c.rpt_bits_per_scheduler
    )?;
    Ok(out)
}

/// Table I: the 34 benchmark applications, their suites and launch sizes.
fn table1(suite: &[WorkloadSpec]) -> Result<String, fmt::Error> {
    let mut out = String::new();
    writeln!(
        out,
        "Table I — benchmarks used for simulation (34 applications)\n"
    )?;
    writeln!(
        out,
        "{:<10} {:<44} {:<9} {:>8} {:>9} {:>7}",
        "abbr", "application", "suite", "CTAs", "thr/CTA", "insts"
    )?;
    for w in suite {
        writeln!(
            out,
            "{:<10} {:<44} {:<9} {:>8} {:>9} {:>7}",
            w.abbr,
            w.name,
            w.suite,
            w.dims.num_ctas(),
            w.dims.threads_per_cta(),
            w.kernel.len()
        )?;
    }
    Ok(out)
}

/// Figure 12: WCDL (cycles) as the number of acoustic sensors per SM
/// varies from 50 to 300, for the four evaluated GPU architectures.
fn fig12() -> Result<String, fmt::Error> {
    let mut out = String::new();
    writeln!(out, "Figure 12 — WCDL vs. sensors per SM\n")?;
    let archs = GpuConfig::paper_architectures();
    write!(out, "{:>8}", "sensors")?;
    for a in &archs {
        write!(out, " {:>9}", a.name)?;
    }
    writeln!(out)?;
    for n in (50..=300).step_by(25) {
        write!(out, "{n:>8}")?;
        for a in &archs {
            let w = SensorMesh::new(n, a.sm_area_mm2).wcdl_cycles(a.core_clock_mhz);
            write!(out, " {w:>9}")?;
        }
        writeln!(out)?;
    }
    writeln!(out, "\n(paper anchor: 200 sensors on GTX480 -> 20 cycles)")?;
    Ok(out)
}

/// Table II: sensors per SM required for a 20-cycle WCDL and the
/// resulting area overhead, for the four GPU architectures; plus the RBQ
/// and RPT hardware costs (§VI-A2).
fn table2() -> Result<String, fmt::Error> {
    let mut out = String::new();
    writeln!(out, "Table II — sensors required for 20 cycles of WCDL\n")?;
    writeln!(
        out,
        "{:<10} {:>10} {:>6} {:>12} {:>12} {:>11} {:>11}",
        "GPU", "clock MHz", "SMs", "sensors/SM", "area ovh", "RBQ bits", "RPT bits"
    )?;
    for g in GpuConfig::paper_architectures() {
        let c = hardware_cost(&g, 20);
        writeln!(
            out,
            "{:<10} {:>10} {:>6} {:>12} {:>11.4}% {:>11} {:>11}",
            g.name,
            g.core_clock_mhz,
            g.num_sms,
            c.sensors_per_sm,
            c.sensor_area_overhead * 100.0,
            c.rbq_bits_per_scheduler,
            c.rpt_bits_per_scheduler,
        )?;
    }
    writeln!(
        out,
        "\n(paper: 200 / 260 / 128 / 248 sensors; < 0.1% area; RBQ 120 bits; RPT 1024 bits)"
    )?;
    Ok(out)
}
