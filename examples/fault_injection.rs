//! End-to-end soft-error drill: inject particle strikes while a workload
//! runs under Flame, watch the sensors detect them and the idempotent
//! recovery roll every warp back — and verify the output is still
//! bit-correct.
//!
//! Run with `cargo run --release -p flame --example fault_injection`.

use flame::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ExperimentConfig::default();
    let w = flame::workloads::by_abbr("SGEMM").expect("SGEMM is in the suite");
    println!("workload: {} under {}", w.abbr, Scheme::SensorRenaming);

    // Learn the fault-free runtime so the strikes land mid-execution.
    let clean = run_scheme(&w, Scheme::SensorRenaming, &cfg)?;
    println!("fault-free: {} cycles", clean.stats.cycles);

    // A burst of particle strikes on the pipeline logic (none masked by
    // ECC so every one matters).
    let mut gen = StrikeGenerator::new(2026, cfg.wcdl, cfg.gpu.num_sms).with_ecc_fraction(0.0);
    let strikes = gen.schedule(10, clean.stats.cycles * 3 / 4);
    println!("injecting {} strikes...", strikes.len());

    let proto = ProtocolConfig::default();
    let r = run_with_protocol(
        &w,
        Scheme::SensorRenaming,
        &cfg,
        &strikes,
        &proto,
        &RunOptions::default(),
    )?;
    println!(
        "bit-flips landed on in-flight writes: {} / {}",
        r.corrupted,
        strikes.len()
    );
    println!(
        "sensor detections: {}   all-warp rollbacks: {}",
        r.detections, r.recoveries
    );
    println!(
        "warps rolled back: {}   cycles: {} ({:+.2}% vs fault-free)",
        r.run.stats.resilience.warps_rolled_back,
        r.run.stats.cycles,
        (r.run.stats.cycles as f64 / clean.stats.cycles as f64 - 1.0) * 100.0,
    );
    println!(
        "output after recovery: {}",
        if r.run.output_ok {
            "bit-correct ✓"
        } else {
            "CORRUPTED ✗"
        }
    );
    assert!(r.run.output_ok);
    Ok(())
}
