//! The whole stack is deterministic: identical configurations produce
//! identical cycle counts, statistics and memory images — the property
//! that makes the figure regeneration meaningful.

use flame::prelude::*;

#[test]
fn fault_free_runs_are_deterministic() {
    let cfg = ExperimentConfig::default();
    let w = flame::workloads::by_abbr("Hotspot").unwrap();
    let a = run_scheme(&w, Scheme::SensorRenaming, &cfg).unwrap();
    let b = run_scheme(&w, Scheme::SensorRenaming, &cfg).unwrap();
    assert_eq!(a.stats, b.stats);
}

#[test]
fn fault_campaigns_are_deterministic() {
    let cfg = ExperimentConfig::default();
    let w = flame::workloads::by_abbr("PF").unwrap();
    let clean = run_scheme(&w, Scheme::SensorRenaming, &cfg).unwrap();
    let strikes = {
        let mut g = StrikeGenerator::new(99, cfg.wcdl, cfg.gpu.num_sms).with_ecc_fraction(0.0);
        g.schedule(4, clean.stats.cycles / 2)
    };
    let run = || {
        let proto = ProtocolConfig::default();
        let opts = RunOptions::default();
        run_with_protocol(&w, Scheme::SensorRenaming, &cfg, &strikes, &proto, &opts).unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a.run.stats, b.run.stats);
    assert_eq!(a.corrupted, b.corrupted);
    assert_eq!(a.recoveries, b.recoveries);
}

#[test]
fn strike_schedules_depend_only_on_seed() {
    let mut a = StrikeGenerator::new(5, 20, 16);
    let mut b = StrikeGenerator::new(5, 20, 16);
    assert_eq!(a.schedule(64, 100_000), b.schedule(64, 100_000));
}
