//! What every workload shares: the run context, the clock that bounds a
//! run, host facts, order statistics and the metric record.

use crate::span::{SpanId, Tracer};
use flame_core::experiment::{ExperimentConfig, WorkloadSpec};
use flame_core::scheme::Scheme;
use gpu_sim::memory::GlobalMemory;
use std::path::PathBuf;
use std::time::Instant;

/// Worker threads of every engine the benchmark drives: the matrix
/// workers and the campaign runner's seed workers. Passed explicitly,
/// never read from the environment, so a result does not depend on the
/// shell it ran in.
pub const JOBS: usize = 2;

/// How one run is sized and where it may write.
#[derive(Debug)]
pub struct Ctx {
    /// Workload seed: campaign base seeds derive from it.
    pub seed: u64,
    /// Measured time of the run.
    pub seconds: f64,
    /// Reduced inputs, for the self-test.
    pub small: bool,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Span recorder (records nothing in the untraced run).
    pub tracer: Tracer,
    /// The repository checkout the benchmark was built from.
    pub repo: PathBuf,
    /// Scratch directory of this run, removed when it ends.
    pub scratch: PathBuf,
    start: Instant,
}

impl Ctx {
    /// A context whose clock starts now.
    pub fn new(seed: u64, seconds: f64, small: bool, traced: bool, scratch: PathBuf) -> Ctx {
        Ctx {
            seed,
            seconds,
            small,
            traced,
            tracer: Tracer::new(traced),
            repo: repo_root(),
            scratch,
            start: Instant::now(),
        }
    }

    /// Seconds since the run started.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Whether another unit expected to take `est` seconds still fits
    /// in the run's measured time.
    pub fn fits(&self, est: f64) -> bool {
        self.elapsed() + est <= self.seconds
    }
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub n: usize,
}

impl Metric {
    /// A metric over `n` samples.
    pub fn new(name: &'static str, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            n,
        }
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: matrix cells or campaigns.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output-check failures; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// The contract's end-to-end metrics (untraced run).
    pub end_to_end: Vec<Metric>,
    /// The workload's own named metrics, printed before the result line.
    pub report: Vec<Metric>,
    /// Wall time of each unit measured with tracing off.
    pub unit_walls: Vec<f64>,
    /// Wall time of each traced unit, on the same inputs as an untraced
    /// one: their difference is the tracing overhead.
    pub traced_walls: Vec<f64>,
}

/// Times the two layers every prepare runs internally, compile and
/// input seeding, with one extra call each on the same inputs. The
/// prepare's own compile and seeding stay in its caller's self time.
pub fn extra_build_and_init(
    tr: &Tracer,
    parent: SpanId,
    key: u64,
    w: &WorkloadSpec,
    scheme: Scheme,
    cfg: &ExperimentConfig,
) {
    let opts = scheme.build_options(cfg.gpu.max_regs_per_thread, cfg.wcdl);
    tr.span("compiler.build", parent, key, |_| {
        drop(flame_compiler::pipeline::build(&w.kernel, &opts))
    });
    tr.count("compiler.builds", 1.0);
    tr.span("workloads.init", parent, key, |_| {
        let mut m = GlobalMemory::new(cfg.gpu.device_mem_bytes);
        (w.init)(&mut m);
    });
}

/// `q`-quantile (0..=1) of `v` by linear interpolation between order
/// statistics; `NaN` for an empty sample.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v`.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// splitmix64: derives independent 64-bit values from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A campaign base seed derived from the run seed, with room for a
/// million consecutive seeds above it.
pub fn base_seed(seed: u64, salt: u64) -> u64 {
    mix(seed, salt) >> 24
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

fn proc_status_kb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(f64::NAN)
}

/// System CPU time of this process so far, in seconds.
pub fn sys_cpu_s() -> f64 {
    // Field 15 of /proc/self/stat is stime in USER_HZ ticks, which the
    // kernel ABI fixes at 100 per second. The command name (field 2)
    // may hold spaces, so count fields after its closing parenthesis.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 1..];
            rest.split_whitespace().nth(12)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |ticks| ticks / 100.0)
}

/// Host facts recorded with every result: the processor count the
/// engines see, the revision of the code and the kernel.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    format!(
        "{{\"nproc\":{nproc},\"jobs\":{JOBS},\"git_rev\":\"{}\",\"kernel\":\"{}\"}}",
        json_str(&rev),
        json_str(&kernel)
    )
}

/// Escapes `s` for use inside a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a metric value: all its digits, and `null` if not finite.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn base_seeds_leave_room_above() {
        for s in 0..100 {
            assert!(base_seed(s, 3) < u64::MAX - 1_000_000);
        }
        assert_ne!(base_seed(1, 0), base_seed(2, 0));
    }
}
