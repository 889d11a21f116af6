//! # flame-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (run them with
//! `cargo run --release -p flame-bench --bin <name>`):
//!
//! | binary         | reproduces                                        |
//! |----------------|---------------------------------------------------|
//! | `table1`       | Table I — the benchmark inventory                 |
//! | `fig12`        | Figure 12 — WCDL vs. sensors/SM, 4 GPUs           |
//! | `table2`       | Table II — sensors for 20-cycle WCDL              |
//! | `fig13_14`     | Figures 13/14/15 — all schemes × all workloads    |
//! | `fig16`        | Figure 16 — region-extension optimization impact  |
//! | `fig17`        | Figure 17 — WCDL sensitivity (10–50 cycles)       |
//! | `fig18`        | Figure 18 — scheduler sensitivity                 |
//! | `fig19`        | Figure 19 — GPU architecture sensitivity          |
//! | `region_stats` | §IV — region sizes, false positives, §VI-A costs  |
//! | `fig4_naive`   | Figure 4 — the naive-verification motivation      |
//! | `perfstat`     | serial-vs-parallel engine throughput, as JSON     |
//! | `trace`        | cycle-level event trace of any cell, Chrome JSON  |
//!
//! `perfstat`, `fault_campaign` and `trace` all accept `--list`, which
//! prints the catalog of workloads, scheme keys, GPU models and
//! scheduler policies ([`print_catalog`]).
//!
//! The shared code here expresses each figure as a set of [`Series`] over
//! a workload suite, lowers them onto the parallel matrix engine
//! ([`flame_core::matrix`]) — one
//! [`flame_core::matrix::run_matrix_with_jobs`] call per figure, so
//! baselines are simulated once and shared across every series — and
//! prints aligned tables with per-app normalized execution times and the
//! geometric mean, matching the figures' structure.
//!
//! The library crates read no environment. Each binary parses the
//! `FLAME_*` variables once, at entry, into a [`BenchEnv`] and passes its
//! fields down explicitly.

use flame_core::experiment::{geomean, ExperimentConfig, RunResult, WorkloadSpec};
use flame_core::matrix::{run_matrix_with_jobs, MatrixCell};
use flame_core::runner::{CampaignSpec, SelfFault};
use flame_core::scheme::Scheme;
use flame_core::shard::DEFAULT_LEASE_TTL;
use std::time::Duration;

/// The `FLAME_*` environment variables the binaries share, parsed once
/// at entry. A malformed value, or a zero count or duration, falls back
/// to the default.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEnv {
    /// `FLAME_JOBS`: worker threads for the matrix engine and the
    /// campaign runner. Defaults to the machine's available parallelism.
    pub jobs: usize,
    /// `FLAME_WATCHDOG`: forward-progress watchdog horizon in cycles,
    /// overriding every campaign's own. `None` keeps each spec's value.
    pub watchdog: Option<u64>,
    /// `FLAME_LEASE_TTL_MS`: shard lease TTL. Defaults to
    /// [`DEFAULT_LEASE_TTL`].
    pub lease_ttl: Duration,
    /// `FLAME_POISON_SEEDS` (`"7,9"`: seeds that always fail) and
    /// `FLAME_FLAKY_SEEDS` (`"12:1,30:2"`: `seed:failures` pairs): the
    /// runner self-fault drill. Unparseable entries are ignored.
    pub self_fault: SelfFault,
}

impl BenchEnv {
    /// Parses the process environment.
    pub fn from_process() -> BenchEnv {
        BenchEnv::parse(|k| std::env::var(k).ok())
    }

    /// Parses the variables through `var`, which returns a variable's
    /// value or `None` when it is unset.
    pub fn parse(var: impl Fn(&str) -> Option<String>) -> BenchEnv {
        let positive = |k: &str| {
            var(k)
                .and_then(|v| v.trim().parse::<u64>().ok())
                .filter(|&n| n > 0)
        };
        let mut self_fault = SelfFault::default();
        if let Some(v) = var("FLAME_POISON_SEEDS") {
            self_fault
                .poison
                .extend(v.split(',').filter_map(|s| s.trim().parse::<u64>().ok()));
        }
        if let Some(v) = var("FLAME_FLAKY_SEEDS") {
            self_fault.flaky.extend(v.split(',').filter_map(|s| {
                let (seed, fails) = s.trim().split_once(':')?;
                Some((seed.parse::<u64>().ok()?, fails.parse::<u32>().ok()?))
            }));
        }
        BenchEnv {
            jobs: positive("FLAME_JOBS")
                .and_then(|n| usize::try_from(n).ok())
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                }),
            watchdog: positive("FLAME_WATCHDOG"),
            lease_ttl: positive("FLAME_LEASE_TTL_MS")
                .map_or(DEFAULT_LEASE_TTL, Duration::from_millis),
            self_fault,
        }
    }

    /// `spec` with the watchdog override applied.
    pub fn apply(&self, spec: CampaignSpec) -> CampaignSpec {
        CampaignSpec {
            watchdog: self.watchdog.unwrap_or(spec.watchdog),
            ..spec
        }
    }
}

/// A single matrix cell: normalized time of `scheme` on one workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload abbreviation.
    pub abbr: &'static str,
    /// Normalized execution time (scheme cycles / baseline cycles).
    pub normalized: f64,
    /// The raw run.
    pub run: RunResult,
}

/// One column of a figure: a scheme under a configuration.
#[derive(Debug, Clone)]
pub struct Series {
    /// Column label.
    pub name: String,
    /// Scheme to run.
    pub scheme: Scheme,
    /// Configuration to run under.
    pub cfg: ExperimentConfig,
}

impl Series {
    /// A series labelled with the scheme's own name.
    pub fn of(scheme: Scheme, cfg: &ExperimentConfig) -> Series {
        Series {
            name: scheme.name().to_string(),
            scheme,
            cfg: cfg.clone(),
        }
    }

    /// A series with an explicit label.
    pub fn named(name: impl Into<String>, scheme: Scheme, cfg: &ExperimentConfig) -> Series {
        Series {
            name: name.into(),
            scheme,
            cfg: cfg.clone(),
        }
    }
}

/// Runs every series over every workload as **one** parallel matrix on
/// `jobs` workers and returns the per-series cells. Baselines are shared
/// across series with equal configs (Figure 13/14's nine schemes share
/// one baseline per workload instead of nine). Panics on simulation
/// errors or output mismatches — a figure regenerated from wrong outputs
/// would be meaningless.
pub fn run_series(suite: &[WorkloadSpec], series: &[Series], jobs: usize) -> Vec<Vec<Cell>> {
    let cells: Vec<MatrixCell> = series
        .iter()
        .flat_map(|s| {
            suite
                .iter()
                .enumerate()
                .map(|(w, _)| MatrixCell::new(w, s.scheme, s.cfg.clone()))
        })
        .collect();
    let mut results = run_matrix_with_jobs(suite, &cells, jobs).into_iter();
    series
        .iter()
        .map(|s| {
            suite
                .iter()
                .map(|w| {
                    let r = results
                        .next()
                        .expect("one result per cell")
                        .unwrap_or_else(|e| panic!("{} {}: {e}", w.abbr, s.name));
                    assert!(r.baseline.output_ok, "{} baseline output wrong", w.abbr);
                    assert!(r.run.output_ok, "{} {} output wrong", w.abbr, s.name);
                    Cell {
                        abbr: w.abbr,
                        normalized: r.normalized,
                        run: r.run,
                    }
                })
                .collect()
        })
        .collect()
}

/// Runs `scheme` over every workload in `suite` on `jobs` workers,
/// normalizing to a baseline run under the same `cfg`. A one-series
/// [`run_series`].
pub fn run_suite(
    suite: &[WorkloadSpec],
    scheme: Scheme,
    cfg: &ExperimentConfig,
    jobs: usize,
) -> Vec<Cell> {
    run_series(suite, &[Series::of(scheme, cfg)], jobs)
        .pop()
        .expect("one series in, one out")
}

/// Prints a per-app table: one row per workload, one column per series.
pub fn print_table(series_names: &[&str], series: &[Vec<Cell>]) {
    assert_eq!(series_names.len(), series.len());
    print!("{:<12}", "app");
    for name in series_names {
        print!(" {name:>22}");
    }
    println!();
    let napps = series[0].len();
    for i in 0..napps {
        print!("{:<12}", series[0][i].abbr);
        for s in series {
            print!(" {:>22.4}", s[i].normalized);
        }
        println!();
    }
    print!("{:<12}", "GEOMEAN");
    for s in series {
        let g = geomean(&s.iter().map(|c| c.normalized).collect::<Vec<_>>());
        print!(" {g:>22.4}");
    }
    println!();
}

/// Geometric mean of a series' normalized times.
pub fn series_geomean(cells: &[Cell]) -> f64 {
    geomean(&cells.iter().map(|c| c.normalized).collect::<Vec<_>>())
}

/// The default experiment configuration of the paper's evaluation
/// (GTX 480, GTO, WCDL = 20).
pub fn paper_default() -> ExperimentConfig {
    ExperimentConfig::default()
}

/// Prints the experiment catalog — every workload, scheme key, GPU model
/// and scheduler policy the binaries accept. Shared by the `--list` flag
/// of `perfstat`, `fault_campaign` and `trace`, so the valid values of
/// `--workload`/`--scheme`/`--gpu`/`--sched` are discoverable from any of
/// them.
pub fn print_catalog() {
    println!("workloads (--workload ABBR):");
    for w in flame_workloads::all() {
        println!("  {:<10} {:<28} [{}]", w.abbr, w.name, w.suite);
    }
    println!("\nschemes (--scheme KEY):");
    for s in Scheme::all() {
        println!("  {:<22} {}", s.key(), s.name());
    }
    println!("\ngpus (--gpu NAME):");
    for g in gpu_sim::config::GpuConfig::paper_architectures() {
        println!(
            "  {:<10} {} SMs, {} MHz, {} warps/SM",
            g.name, g.num_sms, g.core_clock_mhz, g.max_warps_per_sm
        );
    }
    println!("\nschedulers (--sched NAME):");
    for k in gpu_sim::scheduler::SchedulerKind::all() {
        println!("  {}", k.name());
    }
}

/// Looks up a workload by its catalog abbreviation (`--workload ABBR`),
/// case-sensitively, exactly as [`print_catalog`] lists them. The bench
/// binaries share these four lookups so a flag accepted by one resolves
/// identically in all of them.
pub fn workload_by_abbr(abbr: &str) -> Option<WorkloadSpec> {
    flame_workloads::by_abbr(abbr)
}

/// Looks up a scheme by its catalog key (`--scheme KEY`).
pub fn scheme_by_key(key: &str) -> Option<Scheme> {
    Scheme::by_key(key)
}

/// Looks up a GPU model by name (`--gpu NAME`), case-insensitively.
pub fn gpu_by_name(name: &str) -> Option<gpu_sim::config::GpuConfig> {
    gpu_sim::config::GpuConfig::paper_architectures()
        .into_iter()
        .find(|g| g.name.eq_ignore_ascii_case(name))
}

/// Looks up a scheduler policy by name (`--sched NAME`),
/// case-insensitively.
pub fn sched_by_name(name: &str) -> Option<gpu_sim::scheduler::SchedulerKind> {
    gpu_sim::scheduler::SchedulerKind::all()
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flame_core::experiment::prepare_count;

    #[test]
    fn catalog_lookups_resolve_listed_entries() {
        // Every entry print_catalog() lists must resolve through the
        // shared lookups, and garbage must not.
        for w in flame_workloads::all() {
            assert_eq!(workload_by_abbr(w.abbr).map(|x| x.abbr), Some(w.abbr));
        }
        for s in Scheme::all() {
            assert_eq!(scheme_by_key(s.key()), Some(s));
        }
        for g in gpu_sim::config::GpuConfig::paper_architectures() {
            assert_eq!(gpu_by_name(g.name).map(|x| x.name), Some(g.name));
            assert_eq!(
                gpu_by_name(&g.name.to_uppercase()).map(|x| x.name),
                Some(g.name)
            );
        }
        for k in gpu_sim::scheduler::SchedulerKind::all() {
            assert_eq!(sched_by_name(k.name()), Some(k));
        }
        assert!(workload_by_abbr("no-such-workload").is_none());
        assert!(scheme_by_key("no-such-scheme").is_none());
        assert!(gpu_by_name("no-such-gpu").is_none());
        assert!(sched_by_name("no-such-sched").is_none());
    }

    fn env(vars: &[(&str, &str)]) -> BenchEnv {
        BenchEnv::parse(|k| {
            vars.iter()
                .find(|(name, _)| *name == k)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn bench_env_parses_each_variable() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let unset = env(&[]);
        assert_eq!(
            unset,
            BenchEnv {
                jobs: cores,
                watchdog: None,
                lease_ttl: DEFAULT_LEASE_TTL,
                self_fault: SelfFault::default(),
            }
        );
        assert!(unset.jobs >= 1);

        let valid = env(&[
            ("FLAME_JOBS", "3"),
            ("FLAME_WATCHDOG", "5000"),
            ("FLAME_LEASE_TTL_MS", "250"),
            ("FLAME_POISON_SEEDS", "7, 9"),
            ("FLAME_FLAKY_SEEDS", "12:1,30:2"),
        ]);
        assert_eq!(valid.jobs, 3);
        assert_eq!(valid.watchdog, Some(5000));
        assert_eq!(valid.lease_ttl, Duration::from_millis(250));
        assert_eq!(valid.self_fault.poison, vec![7, 9]);
        assert_eq!(valid.self_fault.flaky, vec![(12, 1), (30, 2)]);

        for bad in ["0", "not-a-number", "-4", ""] {
            let e = env(&[
                ("FLAME_JOBS", bad),
                ("FLAME_WATCHDOG", bad),
                ("FLAME_LEASE_TTL_MS", bad),
                ("FLAME_POISON_SEEDS", bad),
                ("FLAME_FLAKY_SEEDS", bad),
            ]);
            assert_eq!(e.jobs, cores, "FLAME_JOBS={bad:?}");
            assert_eq!(e.watchdog, None, "FLAME_WATCHDOG={bad:?}");
            assert_eq!(e.lease_ttl, DEFAULT_LEASE_TTL, "FLAME_LEASE_TTL_MS={bad:?}");
            let poison: Vec<u64> = bad.parse().into_iter().collect();
            assert_eq!(e.self_fault.poison, poison, "FLAME_POISON_SEEDS={bad:?}");
            assert!(e.self_fault.flaky.is_empty(), "FLAME_FLAKY_SEEDS={bad:?}");
        }
        // Garbage entries in a seed list are skipped, the rest kept.
        let mixed = env(&[
            ("FLAME_POISON_SEEDS", "x,4,,5"),
            ("FLAME_FLAKY_SEEDS", "1:2,bad,3:,4:1"),
        ]);
        assert_eq!(mixed.self_fault.poison, vec![4, 5]);
        assert_eq!(mixed.self_fault.flaky, vec![(1, 2), (4, 1)]);
    }

    #[test]
    fn bench_env_applies_watchdog_override() {
        let spec = CampaignSpec {
            base_seed: 1,
            runs: 4,
            strikes_per_run: 1,
            horizon: 1000,
            strike_window: (0.0, 1.0),
            fork_points: 0,
            coverage: 1.0,
            control_fraction: 0.0,
            recovery_fraction: 0.0,
            scheme: Scheme::SensorRenaming,
            cfg: paper_default(),
            proto: flame_core::experiment::ProtocolConfig::default(),
            watchdog: 77,
            retry: flame_core::runner::RetryPolicy::default(),
            self_fault: SelfFault::default(),
        };
        assert_eq!(env(&[]).apply(spec.clone()), spec);
        let overridden = env(&[("FLAME_WATCHDOG", "9")]).apply(spec.clone());
        assert_eq!(
            overridden,
            CampaignSpec {
                watchdog: 9,
                ..spec
            }
        );
    }

    // A single test fn: the prepare counter is process-global, and a
    // sibling test running concurrently would skew the exact counts.
    #[test]
    fn suite_and_series_share_baselines() {
        let suite = vec![flame_workloads::by_abbr("Triad").unwrap()];
        let cfg = paper_default();

        let cells = run_suite(&suite, Scheme::Renaming, &cfg, 2);
        assert_eq!(cells.len(), 1);
        assert!(cells[0].normalized > 0.5 && cells[0].normalized < 2.0);
        assert!((series_geomean(&cells) - cells[0].normalized).abs() < 1e-12);

        // Two series over one workload with one shared config: 1 baseline
        // + 2 scheme runs, not 4 simulations.
        let before = prepare_count();
        let series = run_series(
            &suite,
            &[
                Series::of(Scheme::Renaming, &cfg),
                Series::of(Scheme::Checkpointing, &cfg),
            ],
            2,
        );
        assert_eq!(
            prepare_count() - before,
            3,
            "series must share one baseline"
        );
        assert_eq!(series.len(), 2);
        assert_eq!(series[0][0].abbr, "Triad");
        assert!(series.iter().all(|s| s[0].normalized >= 1.0));
    }
}
