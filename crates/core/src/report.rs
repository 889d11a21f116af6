//! Hardware-cost and region-statistics reporting (paper §VI-A and §IV),
//! plus the structured campaign summary ([`SummaryJson`]) shared by the
//! text renderer and the campaign server's JSON responses.

use crate::campaign::Outcome;
use crate::runner::{outcome_counts, wilson_interval, CampaignSummary, RunRecord};
use flame_sensors::mesh::{sensors_for_wcdl, SensorMesh};
use flame_trace::json::json_f64;
use gpu_sim::config::GpuConfig;
use gpu_sim::stats::SimStats;
use std::fmt::Write as _;

/// Hardware cost of a Flame deployment on one GPU (paper §VI-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareCost {
    /// Acoustic sensors per SM for the target WCDL.
    pub sensors_per_sm: u32,
    /// Sensor-mesh area overhead (fraction of SM area).
    pub sensor_area_overhead: f64,
    /// RBQ size in bits per warp scheduler (paper: 20 × 6 = 120).
    pub rbq_bits_per_scheduler: u64,
    /// RPT size in bits per warp scheduler (paper: 32 × 32 = 1024).
    pub rpt_bits_per_scheduler: u64,
    /// Target WCDL in cycles.
    pub wcdl: u32,
}

/// Computes the hardware cost of deploying Flame on `gpu` with a
/// `wcdl`-cycle verification window.
pub fn hardware_cost(gpu: &GpuConfig, wcdl: u32) -> HardwareCost {
    let sensors = sensors_for_wcdl(gpu.sm_area_mm2, gpu.core_clock_mhz, wcdl);
    let mesh = SensorMesh::new(sensors, gpu.sm_area_mm2);
    let warps_per_sched = gpu.max_warps_per_sm / gpu.schedulers_per_sm;
    let id_bits = u64::from(usize::BITS - (warps_per_sched.max(2) - 1).leading_zeros());
    HardwareCost {
        sensors_per_sm: sensors,
        sensor_area_overhead: mesh.area_overhead(),
        rbq_bits_per_scheduler: u64::from(wcdl) * (id_bits + 1),
        rpt_bits_per_scheduler: warps_per_sched as u64 * 32,
        wcdl,
    }
}

/// Average dynamic region size in warp-instructions: issued instructions
/// per region boundary crossed (the paper's §IV figure of 50.23
/// instructions is the same ratio over its benchmark set).
pub fn dynamic_region_size(stats: &SimStats) -> f64 {
    if stats.resilience.boundaries == 0 {
        0.0
    } else {
        stats.instructions as f64 / stats.resilience.boundaries as f64
    }
}

/// One outcome's share of a campaign, with its Wilson 95% interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutcomeStat {
    /// The outcome this row counts.
    pub outcome: Outcome,
    /// Runs classified as this outcome.
    pub count: usize,
    /// Observed rate (`0.0` for an empty campaign).
    pub rate: f64,
    /// Wilson 95% interval lower bound.
    pub ci_lo: f64,
    /// Wilson 95% interval upper bound.
    pub ci_hi: f64,
}

/// The campaign summary as structured data: everything
/// [`CampaignSummary::render`] prints, computed once and shared by the
/// text renderer and the campaign server's JSON responses, so the two
/// can never drift. Built from records alone, it also summarizes the
/// *partial* record sets the server's stream tailer merges while a
/// campaign is still running.
///
/// Every float is finite by construction — the Wilson interval is
/// clamped, rates of an empty campaign are `0.0`, and the mean
/// slowdown is `None` (JSON `null`) rather than `NaN` when no
/// surviving run or no clean baseline exists — so [`SummaryJson::to_json`]
/// always emits valid JSON, including for zero-run and one-run
/// campaigns.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryJson {
    /// Records summarized (the journaled runs so far).
    pub runs: usize,
    /// One row per [`Outcome::ALL`] entry, in that order.
    pub outcomes: [OutcomeStat; 5],
    /// Strikes that landed on a valid SM across all runs.
    pub injected: u64,
    /// Strikes the sensor mesh never heard.
    pub undetected: u64,
    /// Region rollbacks performed.
    pub recoveries: u64,
    /// Detections nested inside a previous recovery's WCDL window.
    pub nested: u64,
    /// CTA relaunches (escalation rung 2).
    pub cta_relaunches: u64,
    /// Kernel relaunches (escalation rung 3).
    pub kernel_relaunches: u64,
    /// Runs that panicked or failed to launch.
    pub crashed_runs: usize,
    /// Runs that needed more than one attempt.
    pub retried_runs: usize,
    /// Attempts beyond the first, summed over all runs.
    pub extra_attempts: u64,
    /// Runs quarantined after exhausting the retry budget.
    pub quarantined_runs: usize,
    /// Runs forked from a clean-prefix checkpoint.
    pub forked_runs: usize,
    /// Clean-prefix cycles skipped by forking, summed.
    pub prefix_cycles_saved: u64,
    /// Cycles actually simulated, summed over runs that report it.
    pub suffix_cycles_simulated: u64,
    /// Cycles of the fault-free baseline (`0` when not yet known — the
    /// tailer summarizes partial campaigns before the baseline exists).
    pub clean_cycles: u64,
    /// Surviving runs (`Masked`/`DetectedRecovered` with nonzero
    /// cycles) the mean slowdown averages over.
    pub surviving_runs: usize,
    /// Mean slowdown of surviving runs vs the clean baseline; `None`
    /// when there is no surviving run or no baseline (never `NaN`).
    pub mean_slowdown: Option<f64>,
}

impl SummaryJson {
    /// Summarizes a record set against a known clean-baseline cycle
    /// count (`0` when unknown). This is the partial-campaign entry
    /// point the server's stream tailer uses.
    pub fn from_records(records: &[RunRecord], clean_cycles: u64) -> SummaryJson {
        let n = records.len();
        let counts = outcome_counts(records);
        let outcomes = std::array::from_fn(|i| {
            let count = counts[i];
            let (ci_lo, ci_hi) = wilson_interval(count, n, 1.96);
            OutcomeStat {
                outcome: Outcome::ALL[i],
                count,
                rate: if n == 0 { 0.0 } else { count as f64 / n as f64 },
                ci_lo,
                ci_hi,
            }
        });
        let good: Vec<&RunRecord> = records
            .iter()
            .filter(|r| {
                matches!(r.outcome, Outcome::Masked | Outcome::DetectedRecovered) && r.cycles > 0
            })
            .collect();
        let mean_slowdown = if !good.is_empty() && clean_cycles > 0 {
            Some(
                good.iter().map(|r| r.cycles as f64).sum::<f64>()
                    / (good.len() as f64 * clean_cycles as f64),
            )
        } else {
            None
        };
        SummaryJson {
            runs: n,
            outcomes,
            injected: records.iter().map(|r| r.injected).sum(),
            undetected: records.iter().map(|r| r.undetected).sum(),
            recoveries: records.iter().map(|r| r.recoveries).sum(),
            nested: records.iter().map(|r| r.nested).sum(),
            cta_relaunches: records.iter().map(|r| r.cta_relaunches).sum(),
            kernel_relaunches: records.iter().map(|r| r.kernel_relaunches).sum(),
            crashed_runs: records.iter().filter(|r| r.crashed).count(),
            retried_runs: records.iter().filter(|r| r.attempts > 1).count(),
            extra_attempts: records.iter().map(|r| r.attempts.saturating_sub(1)).sum(),
            quarantined_runs: records.iter().filter(|r| r.quarantined).count(),
            forked_runs: records.iter().filter(|r| r.fork_hit).count(),
            prefix_cycles_saved: records.iter().map(|r| r.fork_cycle).sum(),
            suffix_cycles_simulated: records.iter().map(|r| r.sim_cycles).sum(),
            clean_cycles,
            surviving_runs: good.len(),
            mean_slowdown,
        }
    }

    /// Summarizes a finished campaign.
    pub fn from_summary(s: &CampaignSummary) -> SummaryJson {
        SummaryJson::from_records(&s.records, s.clean_cycles)
    }

    /// The deterministic human-readable report —
    /// [`CampaignSummary::render`] delegates here, byte-identical to
    /// the historical format (the optional robustness/fork/slowdown
    /// lines appear exactly when their telemetry is nonzero).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "runs: {}", self.runs);
        for o in &self.outcomes {
            let _ = writeln!(
                out,
                "  {:<20} {:>5}  rate {:.4}  [95% CI {:.4}, {:.4}]",
                o.outcome.name(),
                o.count,
                o.rate,
                o.ci_lo,
                o.ci_hi
            );
        }
        let _ = writeln!(
            out,
            "strikes: injected={} undetected={} recoveries={} nested={}",
            self.injected, self.undetected, self.recoveries, self.nested
        );
        let _ = writeln!(
            out,
            "escalations: cta_relaunches={} kernel_relaunches={} crashed_runs={}",
            self.cta_relaunches, self.kernel_relaunches, self.crashed_runs
        );
        if self.retried_runs > 0 || self.quarantined_runs > 0 {
            let _ = writeln!(
                out,
                "robustness: retried_runs={} extra_attempts={} quarantined_runs={}",
                self.retried_runs, self.extra_attempts, self.quarantined_runs
            );
        }
        if self.forked_runs > 0 {
            let _ = writeln!(
                out,
                "fork: forked_runs={} prefix_cycles_saved={} suffix_cycles_simulated={}",
                self.forked_runs, self.prefix_cycles_saved, self.suffix_cycles_simulated
            );
        }
        if let Some(mean) = self.mean_slowdown {
            let _ = writeln!(
                out,
                "mean slowdown of surviving runs vs clean: {mean:.4} ({} runs)",
                self.surviving_runs
            );
        }
        out
    }

    /// One-line JSON object with a fixed key order, byte-stable for
    /// equal summaries — the campaign server's response body, and what
    /// the verify gate diffs against a serial run. `mean_slowdown` is
    /// `null` when undefined.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\"runs\":{},\"outcomes\":[", self.runs);
        for (i, o) in self.outcomes.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"outcome\":\"{}\",\"count\":{},\"rate\":{},\"ci\":[{},{}]}}",
                if i > 0 { "," } else { "" },
                o.outcome.name(),
                o.count,
                json_f64(o.rate),
                json_f64(o.ci_lo),
                json_f64(o.ci_hi)
            );
        }
        let _ = write!(
            out,
            "],\"strikes\":{{\"injected\":{},\"undetected\":{},\"recoveries\":{},\"nested\":{}}}",
            self.injected, self.undetected, self.recoveries, self.nested
        );
        let _ = write!(
            out,
            ",\"escalations\":{{\"cta_relaunches\":{},\"kernel_relaunches\":{},\"crashed_runs\":{}}}",
            self.cta_relaunches, self.kernel_relaunches, self.crashed_runs
        );
        let _ = write!(
            out,
            ",\"robustness\":{{\"retried_runs\":{},\"extra_attempts\":{},\"quarantined_runs\":{}}}",
            self.retried_runs, self.extra_attempts, self.quarantined_runs
        );
        let _ = write!(
            out,
            ",\"fork\":{{\"forked_runs\":{},\"prefix_cycles_saved\":{},\"suffix_cycles_simulated\":{}}}",
            self.forked_runs, self.prefix_cycles_saved, self.suffix_cycles_simulated
        );
        let _ = write!(
            out,
            ",\"clean_cycles\":{},\"surviving_runs\":{},\"mean_slowdown\":{}}}",
            self.clean_cycles,
            self.surviving_runs,
            match self.mean_slowdown {
                Some(m) => json_f64(m),
                None => "null".to_string(),
            }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flame_trace::json::JsonValue;

    #[test]
    fn gtx480_cost_matches_paper_section6a() {
        let c = hardware_cost(&GpuConfig::gtx480(), 20);
        assert_eq!(c.sensors_per_sm, 200);
        assert!(c.sensor_area_overhead < 0.001);
        // 48 warps / 2 schedulers = 24 warps => 5 id bits + valid.
        assert_eq!(c.rbq_bits_per_scheduler, 20 * 6);
        assert_eq!(c.rpt_bits_per_scheduler, 24 * 32);
    }

    #[test]
    fn cost_scales_with_wcdl() {
        let short = hardware_cost(&GpuConfig::gtx480(), 10);
        let long = hardware_cost(&GpuConfig::gtx480(), 50);
        assert!(short.sensors_per_sm > long.sensors_per_sm);
        assert!(short.rbq_bits_per_scheduler < long.rbq_bits_per_scheduler);
    }

    fn rec(seed: u64, outcome: Outcome) -> RunRecord {
        RunRecord {
            seed,
            outcome,
            injected: 3,
            undetected: 1,
            recoveries: 2,
            nested: 0,
            cta_relaunches: 0,
            kernel_relaunches: 0,
            cycles: 1500,
            crashed: false,
            fork_cycle: 100,
            sim_cycles: 1400,
            fork_hit: true,
            attempts: 1,
            quarantined: false,
        }
    }

    #[test]
    fn summary_json_matches_legacy_render() {
        let records: Vec<RunRecord> = [
            Outcome::Masked,
            Outcome::Masked,
            Outcome::Sdc,
            Outcome::DetectedRecovered,
            Outcome::Due,
        ]
        .iter()
        .enumerate()
        .map(|(i, &o)| rec(i as u64, o))
        .collect();
        let summary = CampaignSummary::new("h".into(), records.clone(), 1000, 0);
        let j = SummaryJson::from_summary(&summary);
        // The text renderer and the structured summary are one code
        // path now; render() must keep its historical bytes.
        assert_eq!(summary.render(), j.render_text());
        assert!(summary.render().contains("fork: forked_runs=5"));
        assert!(summary
            .render()
            .contains("mean slowdown of surviving runs vs clean: 1.5000 (3 runs)"));
        assert_eq!(j.mean_slowdown, Some(1.5));
        assert_eq!(j.surviving_runs, 3);
        // JSON path is syntactically valid and carries the histogram.
        let json = j.to_json();
        JsonValue::parse(&json).expect("summary JSON must parse");
        assert!(json.contains("\"outcome\":\"masked\",\"count\":2"));
        assert!(json.contains("\"outcome\":\"sdc\",\"count\":1"));
        // Equal summaries serialize byte-identically.
        assert_eq!(json, SummaryJson::from_summary(&summary).to_json());
    }

    #[test]
    fn summary_json_degenerate_campaigns_stay_finite() {
        // Zero-run campaign: every rate 0, CI clamped to [0, 1], no
        // NaN/div-by-zero anywhere in the JSON path.
        let empty = SummaryJson::from_records(&[], 0);
        assert_eq!(empty.runs, 0);
        for o in &empty.outcomes {
            assert_eq!(o.rate, 0.0);
            assert_eq!((o.ci_lo, o.ci_hi), (0.0, 1.0));
        }
        assert_eq!(empty.mean_slowdown, None);
        let json = empty.to_json();
        JsonValue::parse(&json).expect("empty-campaign JSON must parse");
        assert!(json.contains("\"mean_slowdown\":null"));
        assert!(!json.contains("NaN") && !json.contains("inf"));

        // One-run campaign: the n=1 Wilson interval is finite and
        // ordered, and a crashed single run yields no slowdown.
        let one = SummaryJson::from_records(&[rec(0, Outcome::Masked)], 0);
        let m = &one.outcomes[0];
        assert_eq!(m.count, 1);
        assert!(m.ci_lo >= 0.0 && m.ci_lo <= m.ci_hi && m.ci_hi <= 1.0);
        assert!(m.ci_lo.is_finite() && m.ci_hi.is_finite());
        assert_eq!(one.mean_slowdown, None, "no clean baseline, no slowdown");
        JsonValue::parse(&one.to_json()).expect("one-run JSON must parse");
    }

    #[test]
    fn json_f64_never_emits_invalid_tokens() {
        assert_eq!(json_f64(0.125), "0.125");
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY), "null");
        // Shortest round-trip: parsing the token recovers the value.
        let x = 0.030_970_971_404_f64;
        assert_eq!(json_f64(x).parse::<f64>().unwrap(), x);
    }

    #[test]
    fn dynamic_region_size_ratio() {
        let mut s = SimStats::default();
        assert_eq!(dynamic_region_size(&s), 0.0);
        s.instructions = 5000;
        s.resilience.boundaries = 100;
        assert_eq!(dynamic_region_size(&s), 50.0);
    }
}
