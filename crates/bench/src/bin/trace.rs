//! Capture a cycle-level event trace of any `(workload, scheme, config)`
//! cell and export it in three formats: Chrome-tracing/Perfetto JSON (one
//! track per SM/scheduler/warp — load it at `chrome://tracing` or
//! <https://ui.perfetto.dev>), a flat per-region CSV, and a human-readable
//! stall-attribution table.
//!
//! ```text
//! trace                                  # GUPS x flame, GTX480/GTO, wcdl 1000
//! trace --workload LUD --scheme naive    # any catalog cell
//! trace --faults 4 --seed F1A3           # inject strikes; the timeline
//!                                        # shows strike -> detect -> rollback
//! trace --capacity 1048576              # per-SM event ring (default 65536)
//! trace --list                           # print the workload/scheme catalog
//! ```
//!
//! Output lands in `--out DIR` (default: `$FLAME_TRACE_DIR`, falling back
//! to `results/traces`) as `{stem}.trace.json`, `{stem}.regions.csv` and
//! `{stem}.stalls.txt`. Before writing, the tool validates the Chrome
//! JSON with the crate's own parser and asserts that the trace's
//! per-scheduler stall attribution sums exactly to the simulator's
//! [`gpu_sim::stats::StallStats`] — the trace is cross-checked against
//! the statistics it claims to explain, every time it is produced.

use flame_core::campaign::{classify, Outcome};
use flame_core::experiment::{
    run_scheme, run_with_protocol, ExperimentConfig, ProtocolConfig, RunOptions, WorkloadSpec,
};
use flame_core::scheme::Scheme;
use flame_sensors::fault::StrikeGenerator;
use flame_trace::{chrome_trace_json, region_csv, stall_table, JsonValue, SimTrace};
use gpu_sim::config::GpuConfig;
use gpu_sim::scheduler::SchedulerKind;
use gpu_sim::stats::SimStats;
use std::path::{Path, PathBuf};

fn fail(msg: &str) -> ! {
    eprintln!("trace: {msg}");
    std::process::exit(1);
}

/// Everything the command line selects.
struct TraceArgs {
    workload: WorkloadSpec,
    scheme: Scheme,
    cfg: ExperimentConfig,
    out: PathBuf,
    faults: usize,
    seed: u64,
    capacity: usize,
}

fn default_out_dir() -> PathBuf {
    std::env::var_os("FLAME_TRACE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results/traces"))
}

fn parse_args(args: &[String]) -> TraceArgs {
    let mut workload = flame_workloads::by_abbr("GUPS").expect("GUPS is in the catalog");
    let mut scheme = Scheme::SensorRenaming;
    let mut gpu = GpuConfig::gtx480();
    let mut sched = SchedulerKind::Gto;
    let mut wcdl = 1000u32;
    let mut out = default_out_dir();
    let mut faults = 0usize;
    let mut seed = 0xF1A3u64;
    let mut capacity = flame_trace::DEFAULT_CAPACITY;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value (see --list)")))
        };
        match a.as_str() {
            "--workload" => {
                let abbr = value("--workload");
                workload = flame_workloads::by_abbr(abbr)
                    .unwrap_or_else(|| fail(&format!("unknown workload {abbr:?} (see --list)")));
            }
            "--scheme" => {
                let key = value("--scheme");
                scheme = Scheme::by_key(key)
                    .unwrap_or_else(|| fail(&format!("unknown scheme {key:?} (see --list)")));
            }
            "--gpu" => {
                let name = value("--gpu");
                gpu = GpuConfig::by_name(name)
                    .unwrap_or_else(|| fail(&format!("unknown gpu {name:?} (see --list)")));
            }
            "--sched" => {
                let name = value("--sched");
                sched = SchedulerKind::by_name(name)
                    .unwrap_or_else(|| fail(&format!("unknown scheduler {name:?} (see --list)")));
            }
            "--wcdl" => {
                wcdl = value("--wcdl")
                    .parse()
                    .unwrap_or_else(|_| fail("--wcdl needs a positive integer"));
            }
            "--out" => out = PathBuf::from(value("--out")),
            "--faults" => {
                faults = value("--faults")
                    .parse()
                    .unwrap_or_else(|_| fail("--faults needs a non-negative integer"));
            }
            "--seed" => {
                let v = value("--seed");
                seed = u64::from_str_radix(v.trim_start_matches("0x"), 16)
                    .unwrap_or_else(|_| fail("--seed needs a hex integer"));
            }
            "--capacity" => {
                capacity = value("--capacity")
                    .parse()
                    .unwrap_or_else(|_| fail("--capacity needs a positive integer"));
            }
            other => fail(&format!("unknown argument {other:?} (try --list)")),
        }
    }
    let cfg = ExperimentConfig {
        gpu,
        sched,
        wcdl,
        ..ExperimentConfig::default()
    };
    TraceArgs {
        workload,
        scheme,
        cfg,
        out,
        faults,
        seed,
        capacity,
    }
}

/// Cross-checks the trace against the run's statistics and the Chrome
/// export against the crate's own JSON grammar; returns the validated
/// export. Any mismatch is a hard failure — a trace that disagrees with
/// the stats it annotates is worse than no trace.
fn validate(trace: &SimTrace, stats: &SimStats, label: &str) -> String {
    let s = stats.stalls;
    let expect = [
        s.no_warp,
        s.scoreboard,
        s.mshr_full,
        s.barrier,
        s.rbq_wait,
        s.sched_blocked,
    ];
    let got = trace.stall_counts();
    if got != expect {
        fail(&format!(
            "{label}: stall attribution diverged from SimStats\n  trace: {got:?}\n  stats: {expect:?}"
        ));
    }
    let json = chrome_trace_json(trace);
    if let Err(e) = JsonValue::parse(&json) {
        fail(&format!("{label}: chrome trace JSON invalid: {e}"));
    }
    json
}

/// Writes the three exports for `stem` into `dir` and reports the paths.
fn write_exports(dir: &Path, stem: &str, json: &str, trace: &SimTrace) {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", dir.display())));
    for (ext, body) in [
        ("trace.json", json.to_string()),
        ("regions.csv", region_csv(trace)),
        ("stalls.txt", stall_table(trace)),
    ] {
        let path = dir.join(format!("{stem}.{ext}"));
        std::fs::write(&path, body)
            .unwrap_or_else(|e| fail(&format!("cannot write {}: {e}", path.display())));
        println!("wrote {}", path.display());
    }
}

fn capture(a: &TraceArgs) {
    let stem = format!(
        "{}_{}_{}_{}_wcdl{}{}",
        a.workload.abbr.to_lowercase(),
        a.scheme.key(),
        a.cfg.gpu.name.to_lowercase(),
        a.cfg.sched.name().to_lowercase(),
        a.cfg.wcdl,
        if a.faults > 0 {
            format!("_f{}", a.faults)
        } else {
            String::new()
        }
    );
    eprintln!(
        "trace: {} x {} on {}/{} wcdl {} ({} strikes), ring {} events/SM",
        a.workload.abbr,
        a.scheme.key(),
        a.cfg.gpu.name,
        a.cfg.sched.name(),
        a.cfg.wcdl,
        a.faults,
        a.capacity
    );
    let strikes = if a.faults == 0 {
        Vec::new()
    } else {
        // Learn the fault-free runtime to place strikes inside it, as the
        // campaign drivers do.
        let clean = run_scheme(&a.workload, a.scheme, &a.cfg)
            .unwrap_or_else(|e| fail(&format!("clean run failed: {e}")));
        let mut gen =
            StrikeGenerator::new(a.seed, a.cfg.wcdl, a.cfg.gpu.num_sms).with_ecc_fraction(0.0);
        gen.schedule(a.faults, (clean.stats.cycles * 3 / 4).max(10))
    };
    let opts = RunOptions {
        trace: Some(a.capacity),
        ..RunOptions::default()
    };
    let proto = ProtocolConfig::default();
    let mut r = run_with_protocol(&a.workload, a.scheme, &a.cfg, &strikes, &proto, &opts)
        .unwrap_or_else(|e| fail(&format!("run failed: {e}")));
    // A fault-free cell must end masked: completed, output correct.
    if strikes.is_empty() && classify(&r) != Outcome::Masked {
        fail(&format!("fault-free run ended {}", classify(&r)));
    }
    let trace = r.trace.take().expect("tracing was enabled");
    if a.faults > 0 {
        println!(
            "faults: injected={} detections={} recoveries={} output_ok={}",
            r.injected, r.detections, r.recoveries, r.run.output_ok
        );
    }
    let stats = r.run.stats;
    let json = validate(&trace, &stats, &stem);
    println!(
        "captured {} events ({} dropped from rings), {} regions, {} cycles",
        trace.len(),
        trace.dropped,
        trace.regions.len(),
        stats.cycles
    );
    write_exports(&a.out, &stem, &json, &trace);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list") => flame_bench::print_catalog(),
        _ => capture(&parse_args(&args)),
    }
}
