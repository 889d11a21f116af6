//! The repository's benchmark: two workloads, each measured end to end
//! with tracing off, and layer by layer in a separate traced run.
//!
//! ```text
//! perfbench --workload <fig4-matrix|late-sweep|all>
//!           --seed <n> --seconds <s> --trace <0|1> [--size small]
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. The line before it carries the host, the
//! workload's own named metrics with their sample counts, and the run's
//! output-check failures. The exit code is nonzero when a check fails.
//! See `README.md` beside this file.

mod common;
mod matrix;
mod span;
mod sweep;

use common::{
    host_json, json_num, json_str, median, peak_rss_mb, quantile, sys_cpu_s, Ctx, Metric, Outcome,
    JOBS,
};
use std::fmt::Write as _;
use std::process::ExitCode;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 2] = ["fig4-matrix", "late-sweep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    small: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        small: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or("--seconds takes a positive integer")?;
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--size" => {
                a.small = match value()?.as_str() {
                    "full" => false,
                    "small" => true,
                    _ => return Err("--size takes full or small".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

fn main() -> ExitCode {
    // The libraries read FLAME_* variables (worker counts, fork and
    // fast-forward switches, lease TTL, drill hooks, trace capacity)
    // and silently change what runs. Refuse them all.
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FLAME_"))
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: they change what the libraries run",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }

    let out_dir = common::repo_root().join("perfbench/out");
    let scratch = out_dir.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx::new(
        args.seed,
        args.seconds as f64,
        args.small,
        args.trace,
        scratch.clone(),
    );
    let mut out = match args.workload.as_str() {
        "fig4-matrix" => matrix::run(&ctx),
        _ => sweep::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let rss = peak_rss_mb();
    out.end_to_end
        .push(Metric::new("peak_rss_mb", rss, "MB", 1));
    out.report.push(Metric::new("peak_rss_mb", rss, "MB", 1));
    let metrics = if args.trace {
        let path = out_dir.join(format!("spans-{}.json", args.workload));
        if let Err(e) = std::fs::write(&path, ctx.tracer.to_json()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
        layer_metrics(&ctx, &out)
    } else {
        std::mem::take(&mut out.end_to_end)
    };

    let correct = out.problems.is_empty();
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let mut info = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"size\":\"{}\",\"host\":{},\"report\":{{",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.small { "small" } else { "full" },
        host_json()
    );
    for (i, m) in out.report.iter().enumerate() {
        let _ = write!(
            info,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\",\"n\":{}}}",
            if i > 0 { "," } else { "" },
            m.name,
            json_num(m.value),
            m.unit,
            m.n
        );
    }
    info.push_str("},\"unit_walls\":[");
    for (i, w) in out.unit_walls.iter().enumerate() {
        let _ = write!(info, "{}{}", if i > 0 { "," } else { "" }, json_num(*w));
    }
    info.push_str("],\"problems\":[");
    for (i, p) in out.problems.iter().enumerate() {
        let _ = write!(info, "{}\"{}\"", if i > 0 { "," } else { "" }, json_str(p));
    }
    info.push_str("]}");
    println!("{info}");

    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The result line: correctness, operation counts and the metrics.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            if i > 0 { "," } else { "" },
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// `--workload all`: each workload in its own process, one after the
/// other, with the same arguments. Their lines are passed through, and a
/// combined result line, with metric names qualified by workload, ends
/// the output.
fn run_all(args: &Args) -> ExitCode {
    use flame_serve::JsonValue;
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--size", if args.small { "small" } else { "full" }])
            .output();
        let output = match output {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: cannot run {w}: {e}");
                return ExitCode::from(2);
            }
        };
        let text = String::from_utf8_lossy(&output.stdout);
        print!("{text}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let Some(Ok(v)) = text.lines().last().map(JsonValue::parse) else {
            eprintln!("perfbench: {w} printed no result");
            return ExitCode::from(2);
        };
        correct &= output.status.success() && v.get("correct") == Some(&JsonValue::Bool(true));
        attempted += v.get("attempted").and_then(JsonValue::as_u64).unwrap_or(0);
        failed += v.get("failed").and_then(JsonValue::as_u64).unwrap_or(0);
        if let Some(JsonValue::Obj(ms)) = v.get("metrics") {
            for (name, m) in ms {
                metrics.push((
                    format!("{w}.{name}"),
                    m.get("value")
                        .and_then(JsonValue::as_f64)
                        .unwrap_or(f64::NAN),
                    m.get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string(),
                ));
            }
        }
    }
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let _ = write!(
            line,
            "{}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            if i > 0 { "," } else { "" },
            json_num(*value)
        );
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Every per-layer metric, from the traced run's spans and counters.
///
/// Times of layer work and counts are per traced unit (a matrix or a
/// sweep); seed latencies are per seed; ratios are over the whole run.
fn layer_metrics(ctx: &Ctx, out: &Outcome) -> Vec<Metric> {
    let tr = &ctx.tracer;
    let p = tr.profile();
    let units = p.durations("bench.unit").len();
    let per = |v: f64| v / units.max(1) as f64;
    let c = |name: &str| tr.counter(name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let q = |name: &str, at: f64| {
        let d = p.durations(name);
        if d.is_empty() {
            0.0
        } else {
            quantile(&d, at)
        }
    };
    let run_s = p.self_s("gpu-sim.run");
    let cycles = c("gpu-sim.cycles");
    let root_wall = p.total_s("bench.unit");
    let root_self = p.self_s("bench.unit");
    let job_s = p.total_s("matrix.job");
    let prefix = c("runner.prefix_cycles");
    let all_units = (out.unit_walls.len() + out.traced_walls.len()).max(1) as f64;
    let overhead = if out.traced_walls.is_empty() || out.unit_walls.is_empty() {
        0.0
    } else {
        median(&out.traced_walls) - median(&out.unit_walls)
    };
    let m = Metric::new;
    vec![
        m("gpu-sim.run_s", per(run_s), "s", units),
        m("gpu-sim.cycles", per(cycles), "count", units),
        m(
            "gpu-sim.warp_insts",
            per(c("gpu-sim.warp_insts")),
            "count",
            units,
        ),
        m(
            "gpu-sim.ns_per_cycle",
            ratio(run_s * 1e9, cycles),
            "ns",
            units,
        ),
        m(
            "gpu-sim.base_image_s",
            per(p.self_s("gpu-sim.base_image")),
            "s",
            units,
        ),
        m(
            "gpu-sim.snapshot_s",
            per(p.self_s("gpu-sim.snapshot")),
            "s",
            units,
        ),
        m(
            "gpu-sim.dirty_chunks",
            per(c("gpu-sim.dirty_chunks")),
            "count",
            units,
        ),
        m(
            "gpu-sim.teardown_s",
            per(p.self_s("gpu-sim.teardown")),
            "s",
            units,
        ),
        m(
            "process.sys_cpu_s",
            sys_cpu_s() / all_units,
            "s",
            all_units as usize,
        ),
        m(
            "compiler.build_s",
            per(p.self_s("compiler.build")),
            "s",
            units,
        ),
        m("compiler.builds", per(c("compiler.builds")), "count", units),
        m(
            "workloads.catalog_s",
            per(p.self_s("workloads.catalog")),
            "s",
            units,
        ),
        m(
            "workloads.init_s",
            per(p.self_s("workloads.init")),
            "s",
            units,
        ),
        m(
            "workloads.check_s",
            per(p.self_s("workloads.check")),
            "s",
            units,
        ),
        m(
            "experiment.prepare_s",
            per(p.self_s("experiment.prepare")),
            "s",
            units,
        ),
        m(
            "experiment.recoveries",
            per(c("experiment.recoveries")),
            "count",
            units,
        ),
        m(
            "experiment.relaunches",
            per(c("experiment.relaunches")),
            "count",
            units,
        ),
        m(
            "matrix.simulations",
            per(c("matrix.simulations")),
            "count",
            units,
        ),
        m("matrix.busy_s", per(job_s), "s", units),
        m(
            "matrix.idle_s",
            per(JOBS as f64 * p.total_s("matrix.run") - job_s),
            "s",
            units,
        ),
        m(
            "runner.baseline_s",
            per(p.total_s("runner.baseline")),
            "s",
            units,
        ),
        m(
            "runner.self_s",
            per(p.self_s("runner.campaign")),
            "s",
            units,
        ),
        m(
            "runner.seed_p50_s",
            q("runner.seed", 0.5),
            "s",
            p.durations("runner.seed").len(),
        ),
        m(
            "runner.seed_p95_s",
            q("runner.seed", 0.95),
            "s",
            p.durations("runner.seed").len(),
        ),
        m(
            "runner.fork_hit_ratio",
            ratio(c("runner.fork_hits"), c("runner.seeds")),
            "ratio",
            c("runner.seeds") as usize,
        ),
        m(
            "runner.prefix_saved_ratio",
            ratio(prefix, prefix + c("runner.simulated_cycles")),
            "ratio",
            c("runner.seeds") as usize,
        ),
        m("runner.retries", per(c("runner.retries")), "count", units),
        m(
            "runner.quarantined",
            per(c("runner.quarantined")),
            "count",
            units,
        ),
        m(
            "report.summary_s",
            per(p.self_s("report.summary")),
            "s",
            units,
        ),
        m(
            "bench.unattributed_share",
            ratio(root_self, root_wall),
            "ratio",
            units,
        ),
        m(
            "bench.tracing_overhead_s",
            overhead,
            "s",
            out.traced_walls.len(),
        ),
    ]
}
