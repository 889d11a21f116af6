//! # flame-workloads — the paper's benchmark suite (Table I)
//!
//! The 34 GPU applications of the paper's evaluation, hand-written in the
//! `gpu-sim` kernel IR. The CUDA originals cannot be compiled for this
//! simulator, so each workload is a synthetic kernel reproducing the
//! structural features that drive the resilience schemes' behaviour: the
//! barrier density and shared-memory access patterns (region sizes and
//! the §III-E optimization), memory- vs compute-boundedness (latency
//! hiding headroom), atomics, divergence, loop-carried register state
//! (checkpoint pressure), and register reuse (renaming pressure). Each
//! workload documents the features it reproduces, seeds its own inputs
//! deterministically, and checks its outputs bit-exactly.
//!
//! ```
//! let suite = flame_workloads::all();
//! assert_eq!(suite.len(), 34);
//! assert!(suite.iter().any(|w| w.abbr == "LUD"));
//! ```

#![warn(missing_docs)]

pub mod altis;
pub mod common;
pub mod cuda_samples;
pub mod fuzz;
pub mod npb;
pub mod parboil;
pub mod rodinia;
pub mod shoc;

use flame_core::experiment::WorkloadSpec;
use std::sync::OnceLock;

/// All 34 benchmark applications, in the paper's Table I order.
///
/// The catalog is built once per process and every call returns clones
/// of it, so the entries of two calls share their `init` and `check`
/// closures: campaigns on one workload share the baseline memo, which
/// is keyed by those closures' addresses.
pub fn all() -> Vec<WorkloadSpec> {
    catalog().to_vec()
}

/// Looks a workload up by its paper abbreviation (case-insensitive).
/// Like [`all`], it returns a clone of the process's one catalog entry.
pub fn by_abbr(abbr: &str) -> Option<WorkloadSpec> {
    catalog()
        .iter()
        .find(|w| w.abbr.eq_ignore_ascii_case(abbr))
        .cloned()
}

fn catalog() -> &'static [WorkloadSpec] {
    static CATALOG: OnceLock<Vec<WorkloadSpec>> = OnceLock::new();
    CATALOG.get_or_init(build_catalog)
}

fn build_catalog() -> Vec<WorkloadSpec> {
    vec![
        // parboil
        parboil::sgemm(),
        parboil::lbm(),
        // CUDA SDK samples (the paper's "GPGPU-Sim bench" + samples)
        cuda_samples::nn(),
        cuda_samples::lps(),
        cuda_samples::aes(),
        cuda_samples::bo(),
        cuda_samples::cs(),
        cuda_samples::sp(),
        cuda_samples::bs(),
        cuda_samples::sq(),
        cuda_samples::wt(),
        cuda_samples::transpose(),
        cuda_samples::dwt(),
        cuda_samples::sn(),
        cuda_samples::histogram(),
        // NPB
        npb::is(),
        npb::cg(),
        // Rodinia v3.1
        rodinia::bp(),
        rodinia::bfs(),
        rodinia::gaussian(),
        rodinia::hotspot(),
        rodinia::lavamd(),
        rodinia::lud(),
        rodinia::nw(),
        rodinia::pf(),
        rodinia::srad(),
        rodinia::sc(),
        rodinia::cfd(),
        rodinia::kmeans(),
        rodinia::knn(),
        // ALTIS
        altis::stencil(),
        altis::tpacf(),
        // SHOC
        shoc::triad(),
        shoc::gups(),
    ]
}

/// The paper's Figure 16 focuses on the applications whose barrier
/// patterns qualify for the §III-E region-extension optimization; these
/// are the ones in our suite built around a single-class shared-memory
/// section (LUD-like).
pub fn region_opt_candidates() -> Vec<&'static str> {
    vec!["LUD", "CG", "NW", "PF", "Hotspot", "BP", "SP"]
}

#[cfg(test)]
pub(crate) mod testutil {
    use flame_core::experiment::{run_scheme, ExperimentConfig, WorkloadSpec};
    use flame_core::scheme::Scheme;

    /// Runs the workload without resilience and asserts output
    /// correctness.
    pub fn baseline_ok(w: &WorkloadSpec) {
        let cfg = ExperimentConfig {
            max_cycles: 100_000_000,
            ..ExperimentConfig::default()
        };
        let r = run_scheme(w, Scheme::Baseline, &cfg).unwrap_or_else(|e| panic!("{}: {e}", w.abbr));
        assert!(r.output_ok, "{} baseline output incorrect", w.abbr);
        assert!(r.stats.cycles > 0);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn suite_has_34_unique_workloads() {
        let suite = super::all();
        assert_eq!(suite.len(), 34);
        let abbrs: std::collections::HashSet<_> = suite.iter().map(|w| w.abbr).collect();
        assert_eq!(abbrs.len(), 34, "duplicate abbreviations");
        let names: std::collections::HashSet<_> = suite.iter().map(|w| w.name).collect();
        assert_eq!(names.len(), 34, "duplicate names");
    }

    #[test]
    fn lookup_by_abbr() {
        assert!(super::by_abbr("lud").is_some());
        assert!(super::by_abbr("SGEMM").is_some());
        assert!(super::by_abbr("nope").is_none());
    }

    #[test]
    fn region_opt_candidates_exist() {
        for abbr in super::region_opt_candidates() {
            assert!(super::by_abbr(abbr).is_some(), "{abbr} missing");
        }
    }

    #[test]
    fn workloads_fit_architectural_limits() {
        for w in super::all() {
            assert!(
                w.dims.threads_per_cta() <= 1024,
                "{}: CTA too large",
                w.abbr
            );
            assert!(w.dims.num_ctas() >= 16, "{}: too few CTAs", w.abbr);
            assert!(w.kernel.validate().is_ok(), "{}: invalid kernel", w.abbr);
        }
    }

    /// `init` writes the same image on every call: a campaign seeds a
    /// scratch run with a copy of the inputs its clean run was seeded
    /// with instead of calling `init` again.
    #[test]
    fn init_writes_the_same_image_on_every_call() {
        let bytes = gpu_sim::config::GpuConfig::gtx480().device_mem_bytes;
        for w in super::all() {
            let seeded = || {
                let mut m = gpu_sim::memory::GlobalMemory::new(bytes);
                (w.init)(&mut m);
                m
            };
            let (a, b) = (seeded(), seeded());
            assert_eq!(
                a.first_difference(&b),
                None,
                "{}: init images differ",
                w.abbr
            );
        }
    }
}
