//! Campaign submissions: parsing a `POST /campaigns` body into a
//! [`CampaignRequest`], deriving the campaign's stable id from the
//! spec fingerprint, and persisting the canonical request next to the
//! shard journals so a restarted server can rediscover and resume it.

use flame_core::experiment::{ExperimentConfig, ProtocolConfig, WorkloadSpec};
use flame_core::runner::{CampaignSpec, RetryPolicy, SelfFault};
use flame_core::scheme::Scheme;
use flame_trace::json::{json_escape, json_f64, JsonValue};
use gpu_sim::config::GpuConfig;
use gpu_sim::scheduler::SchedulerKind;
use std::fmt::Write as _;
use std::path::Path;

/// Default shard count for submitted campaigns.
pub const DEFAULT_SHARDS: usize = 4;
/// Default in-process worker threads per campaign.
pub const DEFAULT_WORKERS: usize = 2;
/// Most seeds one submitted campaign may run (2^20: a million-run
/// campaign fits). The engine lists every missing seed up front.
pub const MAX_RUNS: u64 = 1 << 20;
/// Most fork points a submitted campaign may checkpoint. The engine
/// lists every fork-point cycle up front.
pub const MAX_FORK_POINTS: u64 = 1024;
/// Most strikes a submitted campaign may inject per seed. The engine
/// draws a seed's whole strike schedule up front.
pub const MAX_STRIKES_PER_RUN: u64 = 1024;

/// The fields a `POST /campaigns` body may carry: exactly the keys of
/// [`CampaignRequest::to_body_json`]'s canonical form.
const FIELDS: [&str; 18] = [
    "workload",
    "scheme",
    "runs",
    "horizon",
    "base_seed",
    "strikes_per_run",
    "coverage",
    "control_fraction",
    "recovery_fraction",
    "strike_window",
    "fork_points",
    "watchdog",
    "gpu",
    "sched",
    "wcdl",
    "max_cycles",
    "shards",
    "workers",
];

/// A fully resolved campaign submission: the workload, the spec the
/// runner executes, and how the seed range is sharded across workers.
#[derive(Debug, Clone)]
pub struct CampaignRequest {
    /// The catalog workload the campaign injects faults into.
    pub workload: WorkloadSpec,
    /// The campaign specification (enters the journal fingerprint).
    pub spec: CampaignSpec,
    /// Shards the seed range is split into.
    pub shards: usize,
    /// In-process worker threads leasing those shards.
    pub workers: usize,
}

impl CampaignRequest {
    /// The campaign's stable identifier: an FNV-1a 64-bit hash of the
    /// journal fingerprint, as 16 hex digits. Everything that changes
    /// results enters the fingerprint, so equal submissions collapse to
    /// one campaign (idempotent POST) — and knobs that provably cannot
    /// change results (`fork_points`, `shards`, `workers`) deliberately
    /// do not fork a new id.
    pub fn id(&self) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.spec.fingerprint(self.workload.name).bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{h:016x}")
    }

    /// The canonical request body: every field explicit, fixed key
    /// order, floats in shortest-round-trip form. Parsing it with
    /// [`parse_campaign_request`] reconstructs this request exactly —
    /// the restart path — and equal specs serialize byte-identically.
    pub fn to_body_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"workload\":{},\"scheme\":{},\"runs\":{},\"horizon\":{},\"base_seed\":{}",
            json_escape(self.workload.abbr),
            json_escape(self.spec.scheme.key()),
            self.spec.runs,
            self.spec.horizon,
            self.spec.base_seed
        );
        let _ = write!(
            out,
            ",\"strikes_per_run\":{},\"coverage\":{},\"control_fraction\":{},\"recovery_fraction\":{}",
            self.spec.strikes_per_run,
            json_f64(self.spec.coverage),
            json_f64(self.spec.control_fraction),
            json_f64(self.spec.recovery_fraction)
        );
        let _ = write!(
            out,
            ",\"strike_window\":[{},{}],\"fork_points\":{},\"watchdog\":{}",
            json_f64(self.spec.strike_window.0),
            json_f64(self.spec.strike_window.1),
            self.spec.fork_points,
            self.spec.watchdog
        );
        let _ = write!(
            out,
            ",\"gpu\":{},\"sched\":{},\"wcdl\":{},\"max_cycles\":{}",
            json_escape(self.spec.cfg.gpu.name),
            json_escape(self.spec.cfg.sched.name()),
            self.spec.cfg.wcdl,
            self.spec.cfg.max_cycles
        );
        let _ = write!(
            out,
            ",\"shards\":{},\"workers\":{}}}",
            self.shards, self.workers
        );
        out
    }

    /// Writes the canonical request to `dir/spec.json` (creating `dir`),
    /// fsynced — the campaign's durable identity, read back by
    /// [`load_campaign_dir`] after a server restart.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn persist(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join("spec.json");
        if path.exists() {
            return Ok(()); // idempotent resubmission of a known campaign
        }
        let tmp = dir.join("spec.json.tmp");
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_body_json().as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)
    }
}

/// Reads the campaign persisted in `dir` back into a request
/// (`None` when `dir` has no parseable `spec.json`).
pub fn load_campaign_dir(dir: &Path) -> Option<CampaignRequest> {
    let text = std::fs::read_to_string(dir.join("spec.json")).ok()?;
    parse_campaign_request(&text).ok()
}

fn req_u64(v: &JsonValue, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn opt_u64(v: &JsonValue, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => x
            .as_u64()
            .ok_or_else(|| format!("field {key:?} must be a non-negative integer")),
    }
}

fn opt_at_most(v: &JsonValue, key: &str, default: u64, max: u64) -> Result<u64, String> {
    let x = opt_u64(v, key, default)?;
    if x > max {
        return Err(format!("field {key:?} must be at most {max}"));
    }
    Ok(x)
}

fn opt_f64(v: &JsonValue, key: &str, default: f64) -> Result<f64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(x) => x
            .as_f64()
            .filter(|f| f.is_finite())
            .ok_or_else(|| format!("field {key:?} must be a finite number")),
    }
}

/// Parses and validates a `POST /campaigns` body.
///
/// Required fields: `workload` (catalog abbreviation), `scheme`
/// (catalog key), `runs`, `horizon` (explicit — the server never
/// simulates inside a request handler to derive one). Everything else
/// is optional with the defaults of `to_body_json`'s canonical form,
/// and a field outside that form is refused, so a misspelt one cannot
/// silently run a default.
///
/// # Errors
///
/// A message naming the offending field, suitable for a 400 response.
pub fn parse_campaign_request(body: &str) -> Result<CampaignRequest, String> {
    let v = JsonValue::parse(body).map_err(|e| format!("invalid JSON: {e}"))?;
    if let JsonValue::Obj(fields) = &v {
        if let Some(k) = fields.keys().find(|k| !FIELDS.contains(&k.as_str())) {
            return Err(format!("unknown field {k:?}"));
        }
    }
    let abbr = v
        .get("workload")
        .and_then(JsonValue::as_str)
        .ok_or("missing field \"workload\" (catalog abbreviation)")?;
    let workload = flame_workloads::by_abbr(abbr)
        .ok_or_else(|| format!("unknown workload {abbr:?} (see GET /catalog)"))?;
    let scheme_key = v
        .get("scheme")
        .and_then(JsonValue::as_str)
        .ok_or("missing field \"scheme\" (catalog key)")?;
    let scheme = Scheme::by_key(scheme_key)
        .ok_or_else(|| format!("unknown scheme {scheme_key:?} (see GET /catalog)"))?;
    let runs = req_u64(&v, "runs")?;
    if runs == 0 {
        return Err("\"runs\" must be at least 1".into());
    }
    if runs > MAX_RUNS {
        return Err(format!("\"runs\" must be at most {MAX_RUNS}"));
    }
    let base_seed = opt_u64(&v, "base_seed", 0x5EED)?;
    if base_seed.checked_add(runs).is_none() {
        return Err(format!(
            "\"base_seed\" + \"runs\" must be at most {}",
            u64::MAX
        ));
    }
    let strikes_per_run = opt_at_most(&v, "strikes_per_run", 3, MAX_STRIKES_PER_RUN)?;
    let fork_points = opt_at_most(&v, "fork_points", 8, MAX_FORK_POINTS)?;
    let horizon = req_u64(&v, "horizon")?;
    if horizon == 0 {
        return Err("\"horizon\" must be at least 1 cycle".into());
    }

    let mut cfg = ExperimentConfig::default();
    if let Some(name) = v.get("gpu").map(|g| {
        g.as_str()
            .map(str::to_string)
            .ok_or("field \"gpu\" must be a string")
    }) {
        let name = name?;
        cfg.gpu = GpuConfig::by_name(&name)
            .ok_or_else(|| format!("unknown gpu {name:?} (see GET /catalog)"))?;
    }
    if let Some(name) = v.get("sched").map(|s| {
        s.as_str()
            .map(str::to_string)
            .ok_or("field \"sched\" must be a string")
    }) {
        let name = name?;
        cfg.sched = SchedulerKind::by_name(&name)
            .ok_or_else(|| format!("unknown scheduler {name:?} (see GET /catalog)"))?;
    }
    cfg.wcdl = u32::try_from(opt_u64(&v, "wcdl", u64::from(cfg.wcdl))?)
        .map_err(|_| format!("field \"wcdl\" must be at most {}", u32::MAX))?;
    cfg.max_cycles = opt_u64(&v, "max_cycles", cfg.max_cycles)?;

    let strike_window = match v.get("strike_window") {
        None => (0.0, 1.0),
        Some(w) => {
            let arr = w
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or("field \"strike_window\" must be [lo, hi]")?;
            let lo = arr[0].as_f64().filter(|f| f.is_finite());
            let hi = arr[1].as_f64().filter(|f| f.is_finite());
            match (lo, hi) {
                (Some(lo), Some(hi)) if (0.0..=1.0).contains(&lo) && lo < hi && hi <= 1.0 => {
                    (lo, hi)
                }
                _ => return Err("\"strike_window\" must satisfy 0 <= lo < hi <= 1".into()),
            }
        }
    };

    let spec = CampaignSpec {
        base_seed,
        runs: runs as usize,
        strikes_per_run: strikes_per_run as usize,
        horizon,
        strike_window,
        fork_points: fork_points as usize,
        coverage: opt_f64(&v, "coverage", 0.9)?,
        control_fraction: opt_f64(&v, "control_fraction", 0.1)?,
        recovery_fraction: opt_f64(&v, "recovery_fraction", 0.1)?,
        scheme,
        cfg,
        proto: ProtocolConfig::default(),
        watchdog: opt_u64(&v, "watchdog", 0)?,
        retry: RetryPolicy::default(),
        self_fault: SelfFault::default(),
    };
    for (field, x) in [
        ("coverage", spec.coverage),
        ("control_fraction", spec.control_fraction),
        ("recovery_fraction", spec.recovery_fraction),
    ] {
        if !(0.0..=1.0).contains(&x) {
            return Err(format!("{field:?} must be within [0, 1]"));
        }
    }
    let shards = opt_u64(&v, "shards", DEFAULT_SHARDS as u64)?.clamp(1, 256) as usize;
    let workers = opt_u64(&v, "workers", DEFAULT_WORKERS as u64)?.clamp(1, 64) as usize;
    Ok(CampaignRequest {
        workload,
        spec,
        shards,
        workers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = r#"{"workload":"Triad","scheme":"flame","runs":8,"horizon":5000}"#;

    #[test]
    fn canonical_body_round_trips() {
        let req = parse_campaign_request(BODY).unwrap();
        assert_eq!(req.workload.abbr, "Triad");
        assert_eq!(req.spec.scheme, Scheme::SensorRenaming);
        assert_eq!(req.spec.runs, 8);
        assert_eq!(req.spec.base_seed, 0x5EED);
        assert_eq!((req.shards, req.workers), (DEFAULT_SHARDS, DEFAULT_WORKERS));

        // canonical → parse → canonical is a fixed point, and the
        // fingerprint (hence the id) survives the round trip.
        let canon = req.to_body_json();
        let back = parse_campaign_request(&canon).unwrap();
        assert_eq!(back.to_body_json(), canon);
        assert_eq!(back.id(), req.id());
        assert_eq!(
            back.spec.fingerprint(back.workload.name),
            req.spec.fingerprint(req.workload.name)
        );
        JsonValue::parse(&canon).expect("canonical body must be valid JSON");
    }

    #[test]
    fn id_ignores_result_invariant_knobs() {
        let a = parse_campaign_request(BODY).unwrap();
        let b = parse_campaign_request(
            r#"{"workload":"Triad","scheme":"flame","runs":8,"horizon":5000,
                "fork_points":0,"shards":16,"workers":8}"#,
        )
        .unwrap();
        assert_eq!(a.id(), b.id(), "fork/shard/worker knobs must not fork ids");
        let c = parse_campaign_request(
            r#"{"workload":"Triad","scheme":"flame","runs":9,"horizon":5000}"#,
        )
        .unwrap();
        assert_ne!(a.id(), c.id());
    }

    #[test]
    fn rejects_bad_submissions() {
        for (body, needle) in [
            ("{}", "workload"),
            (
                r#"{"workload":"nope","scheme":"flame","runs":1,"horizon":1}"#,
                "unknown workload",
            ),
            (
                r#"{"workload":"Triad","scheme":"nope","runs":1,"horizon":1}"#,
                "unknown scheme",
            ),
            (
                r#"{"workload":"Triad","scheme":"flame","runs":0,"horizon":1}"#,
                "runs",
            ),
            (
                r#"{"workload":"Triad","scheme":"flame","runs":1,"horizon":0}"#,
                "horizon",
            ),
            (
                r#"{"workload":"Triad","scheme":"flame","runs":1,"horizon":1,"coverage":1.5}"#,
                "coverage",
            ),
            (
                r#"{"workload":"Triad","scheme":"flame","runs":1,"horizon":1,"strike_window":[0.9,0.1]}"#,
                "strike_window",
            ),
            (
                r#"{"workload":"Triad","scheme":"flame","runs":1,"horizon":1,"gpu":"Voodoo2"}"#,
                "unknown gpu",
            ),
            (
                r#"{"workload":"Triad","scheme":"flame","runs":1,"horizon":1,"wcdl":4294967316}"#,
                "wcdl",
            ),
            (
                r#"{"workload":"Triad","scheme":"flame","runs":2,"horizon":1,"base_seed":18446744073709551615}"#,
                "base_seed",
            ),
            (
                r#"{"workload":"Triad","scheme":"flame","runs":1048577,"horizon":1}"#,
                "runs",
            ),
            (
                r#"{"workload":"Triad","scheme":"flame","runs":1,"horizon":1,"fork_points":1025}"#,
                "fork_points",
            ),
            (
                r#"{"workload":"Triad","scheme":"flame","runs":1,"horizon":1,"strikes_per_run":1025}"#,
                "strikes_per_run",
            ),
            (
                r#"{"workload":"Triad","scheme":"flame","runs":8,"horizon":5000,"coverge":0.5}"#,
                "unknown field \"coverge\"",
            ),
            ("not json", "invalid JSON"),
            (
                r#"{"workload":"Triad","scheme":"flame","runs":+1,"horizon":1}"#,
                "invalid JSON",
            ),
        ] {
            let err = parse_campaign_request(body).unwrap_err();
            assert!(
                err.contains(needle),
                "body {body:?}: error {err:?} lacks {needle:?}"
            );
        }
        // Each bound itself is accepted.
        let at_bounds = parse_campaign_request(&format!(
            r#"{{"workload":"Triad","scheme":"flame","runs":{MAX_RUNS},"horizon":1,
                "base_seed":{},"fork_points":{MAX_FORK_POINTS},
                "strikes_per_run":{MAX_STRIKES_PER_RUN}}}"#,
            u64::MAX - MAX_RUNS
        ))
        .unwrap();
        assert_eq!(at_bounds.spec.base_seed + MAX_RUNS, u64::MAX);
        assert_eq!(at_bounds.spec.runs as u64, MAX_RUNS);
    }

    #[test]
    fn persists_and_reloads() {
        let req = parse_campaign_request(BODY).unwrap();
        let dir = std::env::temp_dir().join(format!("flame_serve_spec_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        req.persist(&dir).unwrap();
        let back = load_campaign_dir(&dir).expect("spec.json must reload");
        assert_eq!(back.id(), req.id());
        assert_eq!(back.to_body_json(), req.to_body_json());
        // Re-persisting an existing campaign is a no-op, not an error.
        req.persist(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
