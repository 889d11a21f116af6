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
//! trace smoke                            # self-checking cell for verify.sh/CI
//! ```
//!
//! Output lands in `--out DIR` (default: `$FLAME_TRACE_DIR`, falling back
//! to `results/traces`) as `{stem}.trace.json`, `{stem}.regions.csv` and
//! `{stem}.stalls.txt`. Before writing, the tool validates the Chrome
//! JSON with the crate's own parser and asserts that the trace's
//! per-scheduler stall attribution sums exactly to the simulator's
//! [`gpu_sim::stats::StallStats`] — the trace is cross-checked against
//! the statistics it claims to explain, every time it is produced.

use flame_core::experiment::{
    run_scheme, run_scheme_traced, run_with_protocol_traced, ExperimentConfig, ProtocolConfig,
    WorkloadSpec,
};
use flame_core::scheme::Scheme;
use flame_sensors::fault::StrikeGenerator;
use flame_trace::{chrome_trace_json, region_csv, stall_table, validate_json, Event, SimTrace};
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
                workload = flame_bench::workload_by_abbr(abbr)
                    .unwrap_or_else(|| fail(&format!("unknown workload {abbr:?} (see --list)")));
            }
            "--scheme" => {
                let key = value("--scheme");
                scheme = flame_bench::scheme_by_key(key)
                    .unwrap_or_else(|| fail(&format!("unknown scheme {key:?} (see --list)")));
            }
            "--gpu" => {
                let name = value("--gpu");
                gpu = flame_bench::gpu_by_name(name)
                    .unwrap_or_else(|| fail(&format!("unknown gpu {name:?} (see --list)")));
            }
            "--sched" => {
                let name = value("--sched");
                sched = flame_bench::sched_by_name(name)
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
            other => fail(&format!(
                "unknown argument {other:?} (try --list or `smoke`)"
            )),
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
    if let Err(e) = validate_json(&json) {
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
    let (stats, trace) = if a.faults == 0 {
        let (run, trace) = run_scheme_traced(&a.workload, a.scheme, &a.cfg, a.capacity)
            .unwrap_or_else(|e| fail(&format!("run failed: {e}")));
        if !run.output_ok {
            fail("workload output check failed");
        }
        (run.stats, trace)
    } else {
        // Learn the fault-free runtime to place strikes inside it, as the
        // campaign drivers do.
        let clean = run_scheme(&a.workload, a.scheme, &a.cfg)
            .unwrap_or_else(|e| fail(&format!("clean run failed: {e}")));
        let mut gen =
            StrikeGenerator::new(a.seed, a.cfg.wcdl, a.cfg.gpu.num_sms).with_ecc_fraction(0.0);
        let strikes = gen.schedule(a.faults, (clean.stats.cycles * 3 / 4).max(10));
        let (r, trace) = run_with_protocol_traced(
            &a.workload,
            a.scheme,
            &a.cfg,
            &strikes,
            &ProtocolConfig::default(),
            a.capacity,
        )
        .unwrap_or_else(|e| fail(&format!("fault run failed: {e}")));
        println!(
            "faults: injected={} detections={} recoveries={} output_ok={}",
            r.injected, r.detections, r.recoveries, r.run.output_ok
        );
        (r.run.stats, trace)
    };
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

/// Self-checking smoke cell for `scripts/verify.sh` and CI: captures one
/// fault-free and one fault-injecting trace of GUPS x Flame at a
/// 1000-cycle WCDL, validates both exports, and asserts the tentpole
/// invariants — stall sums match the stats, descheduled warps overlap
/// other warps' issue slots (the paper's WCDL-hiding claim, visible on
/// the timeline), and every detection is followed by a rollback on its
/// SM. Artifacts land in `target/trace-smoke` so CI can upload them on
/// failure.
fn smoke() {
    let out = PathBuf::from("target/trace-smoke");
    let w = flame_workloads::by_abbr("GUPS").expect("GUPS is in the catalog");
    let cfg = ExperimentConfig {
        wcdl: 1000,
        ..ExperimentConfig::default()
    };
    let capacity = 1 << 16;

    // Fault-free cell.
    let (run, trace) = run_scheme_traced(&w, Scheme::SensorRenaming, &cfg, capacity)
        .unwrap_or_else(|e| fail(&format!("smoke run failed: {e}")));
    if !run.output_ok {
        fail("smoke: output check failed");
    }
    let json = validate(&trace, &run.stats, "smoke");
    write_exports(&out, "smoke_gups_flame", &json, &trace);
    if trace.regions.len() as u64 != run.stats.resilience.boundaries {
        fail(&format!(
            "smoke: {} region records != {} boundaries",
            trace.regions.len(),
            run.stats.resilience.boundaries
        ));
    }
    if !trace.deschedule_overlaps_issue() {
        fail("smoke: no warp issued while another sat descheduled in the RBQ");
    }

    // Fault-injecting cell: the strike -> detect -> rollback arc must be
    // on the timeline, in causal order per SM.
    let mut gen = StrikeGenerator::new(0xF1A3, cfg.wcdl, cfg.gpu.num_sms).with_ecc_fraction(0.0);
    let strikes = gen.schedule(4, (run.stats.cycles * 3 / 4).max(10));
    let (r, ftrace) = run_with_protocol_traced(
        &w,
        Scheme::SensorRenaming,
        &cfg,
        &strikes,
        &ProtocolConfig::default(),
        capacity,
    )
    .unwrap_or_else(|e| fail(&format!("smoke fault run failed: {e}")));
    if !r.run.output_ok {
        fail("smoke: fault run output corrupted despite recovery");
    }
    let fjson = validate(&ftrace, &r.run.stats, "smoke-faults");
    write_exports(&out, "smoke_gups_flame_f4", &fjson, &ftrace);
    let n_strikes = ftrace
        .filtered(|e| matches!(e, Event::FaultStrike { .. }))
        .count();
    let detects: Vec<_> = ftrace
        .filtered(|e| matches!(e, Event::FaultDetect { .. }))
        .collect();
    if n_strikes != r.injected || detects.len() != r.detections {
        fail(&format!(
            "smoke: timeline has {n_strikes} strikes / {} detects, run reports {} / {}",
            detects.len(),
            r.injected,
            r.detections
        ));
    }
    for d in &detects {
        let Event::FaultDetect { sm } = d.ev else {
            unreachable!()
        };
        let followed = ftrace
            .filtered(|e| matches!(e, Event::Rollback { .. }))
            .any(|e| e.sm == sm && e.cycle >= d.cycle);
        if !followed {
            fail(&format!(
                "smoke: no rollback on SM {sm} at/after detect cycle {}",
                d.cycle
            ));
        }
    }
    println!(
        "trace smoke ok: {} events clean, {} events under {} strikes ({} recoveries)",
        trace.len(),
        ftrace.len(),
        r.injected,
        r.recoveries
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list") => flame_bench::print_catalog(),
        Some("smoke") => smoke(),
        _ => capture(&parse_args(&args)),
    }
}
