//! The experiment catalog as JSON — the machine-readable twin of
//! `flame_bench::print_catalog`. Both are generated from the same
//! underlying tables (`flame_workloads::all`, `Scheme::all`,
//! `GpuConfig::paper_architectures`, `SchedulerKind::all`), and this
//! serialization is shared by `GET /catalog` and `fault_campaign --list
//! --json`, so the CLI and the server cannot drift.

use flame_core::scheme::Scheme;
use flame_trace::json::json_escape;
use gpu_sim::config::GpuConfig;
use gpu_sim::scheduler::SchedulerKind;
use std::fmt::Write as _;

/// The full catalog as a one-line JSON document: every workload
/// abbreviation, scheme key, GPU model and scheduler policy a
/// [`crate::spec::CampaignRequest`] accepts.
pub fn catalog_json() -> String {
    let mut out = String::from("{\"workloads\":[");
    for (i, w) in flame_workloads::all().iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"abbr\":{},\"name\":{},\"suite\":{}}}",
            if i > 0 { "," } else { "" },
            json_escape(w.abbr),
            json_escape(w.name),
            json_escape(w.suite)
        );
    }
    out.push_str("],\"schemes\":[");
    for (i, s) in Scheme::all().iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"key\":{},\"name\":{}}}",
            if i > 0 { "," } else { "" },
            json_escape(s.key()),
            json_escape(s.name())
        );
    }
    out.push_str("],\"gpus\":[");
    for (i, g) in GpuConfig::paper_architectures().iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":{},\"num_sms\":{},\"core_clock_mhz\":{},\"max_warps_per_sm\":{}}}",
            if i > 0 { "," } else { "" },
            json_escape(g.name),
            g.num_sms,
            g.core_clock_mhz,
            g.max_warps_per_sm
        );
    }
    out.push_str("],\"schedulers\":[");
    for (i, k) in SchedulerKind::all().iter().enumerate() {
        let _ = write!(
            out,
            "{}{}",
            if i > 0 { "," } else { "" },
            json_escape(k.name())
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flame_trace::json::JsonValue;

    #[test]
    fn catalog_lists_every_table_entry_and_validates() {
        let json = catalog_json();
        let v = JsonValue::parse(&json).expect("catalog must parse");
        let workloads = v.get("workloads").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(workloads.len(), flame_workloads::all().len());
        let schemes = v.get("schemes").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(schemes.len(), Scheme::all().len());
        assert!(schemes
            .iter()
            .any(|s| s.get("key").and_then(JsonValue::as_str) == Some("flame")));
        let gpus = v.get("gpus").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(gpus.len(), GpuConfig::paper_architectures().len());
        let scheds = v.get("schedulers").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(scheds.len(), SchedulerKind::all().len());
    }
}
