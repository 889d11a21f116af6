//! # flame-bench — the experiment harness
//!
//! The binaries that drive the reproduction (run them with
//! `cargo run --release -p flame-bench --bin <name>`): `figures` writes
//! every table and figure file of the evaluation, `sweep` runs one cell,
//! `fault_campaign` and `serve` run fault-injection campaigns (the
//! latter over HTTP), `trace` captures a cell's cycle-level event trace
//! as Chrome JSON, and `fuzz_oracle` fuzzes the simulator against the
//! oracle. `fault_campaign` and `trace` both accept `--list`, which
//! prints the catalog of workloads, scheme keys, GPU models and
//! scheduler policies ([`print_catalog`]).
//!
//! The library crates read no environment. Each binary parses the
//! `FLAME_*` variables once, at entry, into a [`BenchEnv`] and passes its
//! fields down explicitly.

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

/// Prints the experiment catalog — every workload, scheme key, GPU model
/// and scheduler policy the binaries accept. Shared by the `--list` flag
/// of `fault_campaign` and `trace`, so the valid values of
/// `--workload`/`--scheme`/`--gpu`/`--sched` are discoverable from
/// either.
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

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::config::GpuConfig;
    use gpu_sim::scheduler::SchedulerKind;

    #[test]
    fn catalog_lookups_resolve_listed_entries() {
        // Every entry print_catalog() lists must resolve through the
        // catalog types' own lookups, and garbage must not.
        for w in flame_workloads::all() {
            assert_eq!(
                flame_workloads::by_abbr(w.abbr).map(|x| x.abbr),
                Some(w.abbr)
            );
        }
        for s in Scheme::all() {
            assert_eq!(Scheme::by_key(s.key()), Some(s));
        }
        for g in GpuConfig::paper_architectures() {
            assert_eq!(GpuConfig::by_name(g.name).map(|x| x.name), Some(g.name));
            assert_eq!(
                GpuConfig::by_name(&g.name.to_uppercase()).map(|x| x.name),
                Some(g.name)
            );
        }
        for k in SchedulerKind::all() {
            assert_eq!(SchedulerKind::by_name(k.name()), Some(k));
        }
        assert!(flame_workloads::by_abbr("no-such-workload").is_none());
        assert!(Scheme::by_key("no-such-scheme").is_none());
        assert!(GpuConfig::by_name("no-such-gpu").is_none());
        assert!(SchedulerKind::by_name("no-such-sched").is_none());
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
            cfg: flame_core::experiment::ExperimentConfig::default(),
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
}
