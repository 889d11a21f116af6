//! Oracle conformance: the cycle-level simulator's final global memory
//! must be **bit-identical** to the timing-free architectural oracle for
//! every Table-I workload under every scheme.
//!
//! This is two proofs in one sweep. First, the simulator's functional
//! semantics (arithmetic, SIMT reconvergence, barrier release, atomic
//! lane order, address wrapping) match the reference interpreter, so the
//! timing model — caches, scoreboards, schedulers, the event-driven
//! clock — provably never leaks into values. Second, because the oracle
//! always interprets the *untransformed* kernel while the simulator runs
//! the scheme-transformed binary (renaming, checkpointing, duplication,
//! tail-DMR, region boundaries, RBQ descheduling), a bit-identical image
//! proves each protection transform preserves semantics exactly — not
//! just "passes the workload's own output check".
//!
//! The suite is split per benchmark suite (and the two 13-workload
//! suites in half) so the test harness runs the groups in parallel.

use flame::core::experiment::{prepare_scheme, ExperimentConfig};
use flame::oracle::{execute, OracleConfig};
use flame::prelude::*;
use flame::sim::memory::{GlobalMemory, WORD_BYTES};

fn first_divergence(a: &GlobalMemory, b: &GlobalMemory) -> Option<(usize, u64, u64)> {
    let word = a.first_difference(b)?;
    let addr = word as u64 * WORD_BYTES;
    Some((word, a.read(addr), b.read(addr)))
}

/// Runs the conformance sweep for the workloads of `suite`, keeping only
/// those whose index within the suite satisfies `part`.
fn conform(suite: &str, part: impl Fn(usize) -> bool) {
    let cfg = ExperimentConfig {
        max_cycles: 100_000_000,
        ..ExperimentConfig::default()
    };
    let ocfg = OracleConfig {
        global_mem_bytes: cfg.gpu.device_mem_bytes,
        ..OracleConfig::default()
    };
    let workloads: Vec<WorkloadSpec> = flame::workloads::all()
        .into_iter()
        .filter(|w| w.suite == suite)
        .collect();
    assert!(!workloads.is_empty(), "unknown suite {suite:?}");
    for (i, w) in workloads.iter().enumerate() {
        if !part(i) {
            continue;
        }
        let init = w.init.clone();
        let golden = execute(&w.kernel, w.dims, &ocfg, move |m| init(m))
            .unwrap_or_else(|e| panic!("{}: oracle execution failed: {e}", w.abbr));
        assert!(
            (w.check)(&golden.global),
            "{}: oracle image fails the workload's own output check",
            w.abbr
        );
        for scheme in Scheme::all() {
            let (mut gpu, _) = prepare_scheme(w, scheme, &cfg)
                .unwrap_or_else(|e| panic!("{} under {scheme:?}: prepare failed: {e:?}", w.abbr));
            let stats = gpu
                .run(cfg.max_cycles)
                .unwrap_or_else(|e| panic!("{} under {scheme:?}: run failed: {e:?}", w.abbr));
            if let Some((word, sim, oracle)) = first_divergence(gpu.global(), &golden.global) {
                panic!(
                    "{} under {scheme:?}: final memory diverges from the oracle at \
                     word {word} (byte {:#x}): sim {sim:#x} != oracle {oracle:#x}",
                    w.abbr,
                    word * 8,
                );
            }
            // The oracle's thread-level instruction count is the
            // architectural work of the kernel; the baseline simulation
            // (no protection transforms, no boundaries) must agree on it
            // exactly — canonical order changes *when* instructions
            // issue, never how many.
            if scheme == Scheme::Baseline {
                assert_eq!(
                    stats.thread_instructions, golden.thread_instructions,
                    "{}: baseline thread-instruction count diverges from the oracle",
                    w.abbr
                );
            }
        }
    }
}

#[test]
fn parboil_conforms_to_oracle_under_every_scheme() {
    conform("parboil", |_| true);
}

#[test]
fn cuda_first_half_conforms_to_oracle_under_every_scheme() {
    conform("cuda", |i| i < 7);
}

#[test]
fn cuda_second_half_conforms_to_oracle_under_every_scheme() {
    conform("cuda", |i| i >= 7);
}

#[test]
fn npb_conforms_to_oracle_under_every_scheme() {
    conform("NPB", |_| true);
}

#[test]
fn rodinia_first_half_conforms_to_oracle_under_every_scheme() {
    conform("rodinia", |i| i < 7);
}

#[test]
fn rodinia_second_half_conforms_to_oracle_under_every_scheme() {
    conform("rodinia", |i| i >= 7);
}

#[test]
fn altis_conforms_to_oracle_under_every_scheme() {
    conform("ALTIS", |_| true);
}

#[test]
fn shoc_conforms_to_oracle_under_every_scheme() {
    conform("SHOC", |_| true);
}
