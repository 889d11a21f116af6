//! Realistic fault campaigns: mapping the paper's §IV field-study rates
//! (strikes per GPU per *day*) onto simulation cycles, and classifying
//! each run of a campaign into the outcome taxonomy.

use crate::experiment::FaultProtocolResult;
use flame_sensors::fault::{FaultRates, Strike, StrikeGenerator};
use std::fmt;

/// A strike campaign scaled from real-world rates.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The strikes, sorted by cycle.
    pub strikes: Vec<Strike>,
    /// Horizon in cycles the strikes were spread over.
    pub horizon: u64,
    /// Wall-clock days of real operation the campaign's strike count
    /// corresponds to at the field-study rate (`n / raw_errors_per_day`).
    pub accelerated_days: f64,
    /// Acceleration factor: `accelerated_days` divided by the days the
    /// horizon itself covers at `clock_mhz`. A factor of 10⁹ means the
    /// campaign bombards the simulated window a billion times harder
    /// than the field.
    pub acceleration: f64,
}

impl Campaign {
    /// Builds a campaign of `n` strikes over `horizon` cycles with the
    /// given seed, reporting how many days of real operation that
    /// bombardment corresponds to at the §IV rates (raw strikes, before
    /// masking) on a GPU clocked at `clock_mhz`, and how much harder
    /// than the field the horizon is being hit.
    ///
    /// Both derived figures are `0.0` when the rate itself is zero (no
    /// field rate means no meaningful day-equivalent); the horizon only
    /// scales `acceleration`, never gates it.
    pub fn accelerated(
        seed: u64,
        n: usize,
        horizon: u64,
        wcdl: u32,
        num_sms: usize,
        clock_mhz: u32,
        rates: &FaultRates,
    ) -> Campaign {
        let mut gen = StrikeGenerator::new(seed, wcdl, num_sms);
        let strikes = gen.schedule(n, horizon.max(1));
        let cycles_per_day = f64::from(clock_mhz) * 1e6 * 86_400.0;
        let horizon_days = horizon.max(1) as f64 / cycles_per_day;
        let rate = rates.raw_errors_per_day();
        let accelerated_days = if rate > 0.0 { n as f64 / rate } else { 0.0 };
        Campaign {
            strikes,
            horizon,
            accelerated_days,
            acceleration: accelerated_days / horizon_days,
        }
    }

    /// Number of strikes.
    pub fn len(&self) -> usize {
        self.strikes.len()
    }

    /// Whether the campaign has no strikes.
    pub fn is_empty(&self) -> bool {
        self.strikes.is_empty()
    }
}

/// The taxonomy of a single fault-injection run, in the Masked / SDC /
/// DUE / Hang classification of the GPU fault-injection literature, with
/// Flame's successful recoveries split out from true masking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Outcome {
    /// No architectural effect: nothing corrupted, nothing recovered,
    /// output correct.
    Masked,
    /// The protocol intervened (rollback, CTA or kernel relaunch) and the
    /// output is correct.
    DetectedRecovered,
    /// Silent data corruption: the run completed "successfully" with a
    /// wrong output.
    Sdc,
    /// Detected unrecoverable error: the escalation ladder was exhausted.
    Due,
    /// The run livelocked (watchdog) or exhausted its cycle budget.
    Hang,
}

impl Outcome {
    /// All outcomes, in display order.
    pub const ALL: [Outcome; 5] = [
        Outcome::Masked,
        Outcome::DetectedRecovered,
        Outcome::Sdc,
        Outcome::Due,
        Outcome::Hang,
    ];

    /// Stable machine name (journal format).
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::DetectedRecovered => "detected_recovered",
            Outcome::Sdc => "sdc",
            Outcome::Due => "due",
            Outcome::Hang => "hang",
        }
    }

    /// Parses [`Outcome::name`] back.
    pub fn parse(s: &str) -> Option<Outcome> {
        Outcome::ALL.into_iter().find(|o| o.name() == s)
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Classifies a protocol run into the outcome taxonomy, trusting its
/// `output_ok`: equality with the clean run's image, or else the
/// workload's own output check (see
/// [`crate::experiment::RunOptions::clean_image`]).
pub fn classify(r: &FaultProtocolResult) -> Outcome {
    ladder(r, !r.run.output_ok)
}

/// [`classify`] grounded in an architectural golden image instead of the
/// workload's self-check.
///
/// Workload `check` closures sample their output (spot values, checksums)
/// and can miss corruption that lands between the samples. Given the
/// golden image of a fault-free architectural execution (from
/// `flame-oracle`), the SDC decision becomes exact: a completed run is
/// SDC iff its final image ([`FaultProtocolResult::image`]) differs from
/// the golden image *anywhere*, and Masked / DetectedRecovered demand
/// bit-identity.
pub fn classify_against_golden(
    r: &FaultProtocolResult,
    golden: &gpu_sim::memory::GlobalMemory,
) -> Outcome {
    ladder(r, r.image != *golden)
}

/// The outcome ladder both classifiers share, given whether the output
/// is corrupt.
///
/// Precedence: a declared DUE trumps everything (the machine *knows* it
/// lost the run); a hang is a hang regardless of memory contents; then
/// the output decides between SDC and the two good outcomes, split by
/// whether the protocol had to intervene.
fn ladder(r: &FaultProtocolResult, corrupt: bool) -> Outcome {
    if r.due {
        Outcome::Due
    } else if r.watchdog_fired || r.timed_out {
        Outcome::Hang
    } else if corrupt {
        Outcome::Sdc
    } else if r.recoveries > 0 || r.cta_relaunches > 0 || r.kernel_relaunches > 0 {
        Outcome::DetectedRecovered
    } else {
        Outcome::Masked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{
        run_scheme, run_with_protocol, ExperimentConfig, ProtocolConfig, RunOptions, RunResult,
        WorkloadSpec,
    };
    use crate::scheme::Scheme;
    use gpu_sim::builder::KernelBuilder;
    use gpu_sim::isa::{MemSpace, Special};
    use gpu_sim::memory::GlobalMemory;
    use gpu_sim::sm::LaunchDims;
    use std::sync::Arc;

    fn tiny_workload() -> WorkloadSpec {
        let mut b = KernelBuilder::new("tiny");
        let tid = b.special(Special::TidX);
        let cta = b.special(Special::CtaIdX);
        let ntid = b.special(Special::NTidX);
        let gid = b.imad(cta, ntid, tid);
        let a = b.imul(gid, 8);
        let v = b.ld_arr(MemSpace::Global, 0, a, 0);
        let mut acc = v;
        for i in 0..12 {
            acc = b.iadd(acc, i);
        }
        b.st_arr(MemSpace::Global, 0, a, acc, 0);
        b.exit();
        WorkloadSpec {
            name: "tiny",
            abbr: "TINY",
            suite: "test",
            kernel: b.finish(),
            dims: LaunchDims::linear(64, 128),
            init: Arc::new(|m| {
                for i in 0..8192u64 {
                    m.write(i * 8, i);
                }
            }),
            check: Arc::new(|m| (0..8192u64).all(|i| m.read(i * 8) == i + 66)),
        }
    }

    #[test]
    fn accelerated_campaign_accounting() {
        let rates = FaultRates::default();
        let c = Campaign::accelerated(1, 10, 100_000, 20, 16, 700, &rates);
        assert_eq!(c.len(), 10);
        assert!(!c.is_empty());
        // 10 strikes at ~1.37/day is ~7.3 days of operation.
        assert!((c.accelerated_days - 10.0 / rates.raw_errors_per_day()).abs() < 1e-9);
        for s in &c.strikes {
            assert!(s.cycle < 100_000);
        }
    }

    #[test]
    fn accelerated_semantics_pinned() {
        let rates = FaultRates::default();

        // accelerated_days = n / rate, independent of the horizon; the
        // horizon scales only the acceleration factor.
        let short = Campaign::accelerated(3, 10, 100_000, 20, 16, 700, &rates);
        let long = Campaign::accelerated(3, 10, 200_000, 20, 16, 700, &rates);
        assert!((short.accelerated_days - long.accelerated_days).abs() < 1e-9);
        assert!((short.acceleration / long.acceleration - 2.0).abs() < 1e-9);

        // acceleration = accelerated_days / horizon_days exactly.
        let cycles_per_day = 700.0 * 1e6 * 86_400.0;
        let horizon_days = 100_000.0 / cycles_per_day;
        assert!((short.acceleration - short.accelerated_days / horizon_days).abs() < 1e-3);

        // A degenerate horizon no longer zeroes the day-equivalent: only
        // a zero field rate does.
        let tiny = Campaign::accelerated(3, 10, 0, 20, 16, 700, &rates);
        assert!((tiny.accelerated_days - 10.0 / rates.raw_errors_per_day()).abs() < 1e-9);
        let no_rate = FaultRates {
            visible_failures_per_day: 0.0,
            ..FaultRates::default()
        };
        let dead = Campaign::accelerated(3, 10, 100_000, 20, 16, 700, &no_rate);
        assert_eq!(dead.accelerated_days, 0.0);
        assert_eq!(dead.acceleration, 0.0);
        assert_eq!(dead.len(), 10, "strikes are scheduled regardless of rate");
    }

    fn proto_fixture(output_ok: bool) -> FaultProtocolResult {
        FaultProtocolResult {
            run: RunResult {
                stats: Default::default(),
                compile: Default::default(),
                output_ok,
            },
            injected: 0,
            corrupted: 0,
            pc_corruptions: 0,
            recovery_corruptions: 0,
            detections: 0,
            undetected: 0,
            recoveries: 0,
            nested_detections: 0,
            cta_relaunches: 0,
            kernel_relaunches: 0,
            watchdog_fired: false,
            timed_out: false,
            due: false,
            image: GlobalMemory::new(1024),
            trace: None,
            fork: Default::default(),
        }
    }

    #[test]
    fn classification_truth_table() {
        // Clean run, nothing happened: masked.
        assert_eq!(classify(&proto_fixture(true)), Outcome::Masked);

        // Any protocol intervention with a good output: recovered.
        for f in [
            |r: &mut FaultProtocolResult| r.recoveries = 1,
            |r: &mut FaultProtocolResult| r.cta_relaunches = 1,
            |r: &mut FaultProtocolResult| r.kernel_relaunches = 1,
        ] {
            let mut r = proto_fixture(true);
            f(&mut r);
            assert_eq!(classify(&r), Outcome::DetectedRecovered);
        }

        // Wrong output trumps interventions: SDC.
        let mut r = proto_fixture(false);
        r.recoveries = 3;
        assert_eq!(classify(&r), Outcome::Sdc);

        // Watchdog or timeout trump the output check: hang.
        let mut r = proto_fixture(false);
        r.watchdog_fired = true;
        assert_eq!(classify(&r), Outcome::Hang);
        let mut r = proto_fixture(true);
        r.timed_out = true;
        assert_eq!(classify(&r), Outcome::Hang);

        // A declared DUE trumps everything.
        let mut r = proto_fixture(false);
        r.due = true;
        r.watchdog_fired = true;
        assert_eq!(classify(&r), Outcome::Due);
    }

    #[test]
    fn golden_classification_truth_table() {
        let golden = {
            let mut m = GlobalMemory::new(1024);
            m.write(0, 0xDEAD_BEEF);
            m.write(512, 42);
            m
        };
        let matching = golden.clone();
        let corrupt = {
            let mut m = golden.clone();
            // One flipped bit in a word no sampling self-check looks at.
            m.write(256, 1);
            m
        };
        let with_image = |output_ok: bool, image: &GlobalMemory| FaultProtocolResult {
            image: image.clone(),
            ..proto_fixture(output_ok)
        };

        // Bit-identical image, no interventions: masked.
        let r = with_image(true, &matching);
        assert_eq!(classify_against_golden(&r, &golden), Outcome::Masked);

        // Bit-identical image after an intervention: recovered.
        let mut r = with_image(true, &matching);
        r.recoveries = 2;
        assert_eq!(
            classify_against_golden(&r, &golden),
            Outcome::DetectedRecovered
        );

        // Any image difference on a completed run is SDC — even when the
        // workload's own (sampling) check was fooled into output_ok.
        let mut r = with_image(true, &corrupt);
        r.recoveries = 2;
        assert_eq!(classify_against_golden(&r, &golden), Outcome::Sdc);

        // Due and Hang keep precedence over memory contents.
        let mut r = with_image(true, &corrupt);
        r.timed_out = true;
        assert_eq!(classify_against_golden(&r, &golden), Outcome::Hang);
        let mut r = with_image(false, &matching);
        r.due = true;
        r.watchdog_fired = true;
        assert_eq!(classify_against_golden(&r, &golden), Outcome::Due);
    }

    #[test]
    fn outcome_names_round_trip() {
        for o in Outcome::ALL {
            assert_eq!(Outcome::parse(o.name()), Some(o));
            assert_eq!(o.to_string(), o.name());
        }
        assert_eq!(Outcome::parse("bogus"), None);
    }

    #[test]
    fn campaign_report_end_to_end() {
        let w = tiny_workload();
        let cfg = ExperimentConfig {
            max_cycles: 10_000_000,
            ..ExperimentConfig::default()
        };
        let clean = run_scheme(&w, Scheme::SensorRenaming, &cfg).unwrap();
        let c = Campaign::accelerated(
            7,
            5,
            clean.stats.cycles * 3 / 4,
            cfg.wcdl,
            cfg.gpu.num_sms,
            cfg.gpu.core_clock_mhz,
            &FaultRates::default(),
        );
        let r = run_with_protocol(
            &w,
            Scheme::SensorRenaming,
            &cfg,
            &c.strikes,
            &ProtocolConfig::default(),
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(r.detections, 5);
        assert!(r.run.output_ok, "recovery failed under campaign");
        let slowdown_vs_clean = r.run.stats.cycles as f64 / clean.stats.cycles as f64;
        assert!(slowdown_vs_clean < 2.0);
        assert!(r.recoveries >= 1);
    }
}
