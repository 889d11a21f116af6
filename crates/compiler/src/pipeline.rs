//! Per-scheme compilation pipelines (paper §VI-B1's scheme taxonomy).
//!
//! A resilience scheme combines a *recovery* strategy (idempotent regions
//! with register renaming or live-out checkpointing) with a *detection*
//! strategy (acoustic sensors, SwapCodes duplication, or the tail-DMR
//! hybrid). This module runs the corresponding pass sequence:
//!
//! ```text
//! virtual kernel
//!   └─ register allocation                       (always)
//!        └─ region formation (± §III-E opt)      (unless baseline)
//!             └─ renaming / checkpointing        (recovery)
//!                  └─ SwapCodes / tail-DMR       (detection)
//!                       └─ flatten + region table
//! ```

use crate::checkpoint::checkpoint;
use crate::checkpoint::CheckpointSlot;
use crate::regalloc::{allocate, AllocError};
use crate::region::{form_regions, region_stats, Exemptions, RegionStats};
use crate::region_opt::detect;
use crate::renaming::rename;
use crate::swapcodes::duplicate;
use crate::taildmr::tail_dmr;
use gpu_sim::isa::Opcode;
use gpu_sim::program::{FlatKernel, Kernel};
use std::collections::HashMap;

/// Recovery strategy of a scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Recovery {
    /// No recovery support (baseline / detection-only studies).
    None,
    /// Idempotent regions with anti-dependent register renaming (Flame).
    Renaming,
    /// Idempotent regions with live-out register checkpointing (Penny).
    Checkpointing,
}

/// Detection strategy of a scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Detection {
    /// No detection (recovery-only studies).
    None,
    /// Acoustic sensors: no instrumentation, but each region must be
    /// verified for WCDL cycles at runtime (handled by flame-core).
    Sensor,
    /// SwapCodes instruction duplication: errors detected in-place, no
    /// verification delay.
    Duplication,
    /// Tail-DMR hybrid: sensors for region heads, duplication for tails.
    Hybrid,
}

/// Compilation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildOptions {
    /// Recovery strategy.
    pub recovery: Recovery,
    /// Detection strategy.
    pub detection: Detection,
    /// Worst-case detection latency in cycles (sizes tail-DMR tails).
    pub wcdl: u32,
    /// Architectural register budget per thread.
    pub max_regs: u32,
    /// Apply the §III-E region-size extension optimization.
    pub region_opt: bool,
    /// Register-allocation budget headroom left for renaming/shadow
    /// registers (the baseline is allocated with the same reduced budget
    /// so that comparisons isolate the schemes' own costs).
    pub alloc_headroom: u32,
}

impl BuildOptions {
    /// Baseline: no resilience.
    pub fn baseline(max_regs: u32) -> BuildOptions {
        BuildOptions {
            recovery: Recovery::None,
            detection: Detection::None,
            wcdl: 20,
            max_regs,
            region_opt: false,
            alloc_headroom: 8,
        }
    }

    /// Flame: sensors + renaming + region optimization.
    pub fn flame(max_regs: u32, wcdl: u32) -> BuildOptions {
        BuildOptions {
            recovery: Recovery::Renaming,
            detection: Detection::Sensor,
            wcdl,
            max_regs,
            region_opt: true,
            alloc_headroom: 8,
        }
    }
}

/// Compile-time statistics of a built kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompileStats {
    /// Region statistics (zeroed for the baseline).
    pub regions: usize,
    /// Mean static region size.
    pub mean_region_size: f64,
    /// Registers per thread after all passes.
    pub regs_per_thread: u32,
    /// Spilled virtual registers.
    pub spills: usize,
    /// WARs fixed by renaming.
    pub renamed: usize,
    /// Checkpoint stores inserted.
    pub checkpoints: usize,
    /// Replica instructions inserted by duplication passes.
    pub duplicated: usize,
    /// Barriers made transparent by the §III-E optimization.
    pub transparent_barriers: usize,
}

/// A kernel compiled for a resilience scheme.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The executable kernel.
    pub flat: FlatKernel,
    /// The block-structured kernel (for inspection/tests).
    pub kernel: Kernel,
    /// For each region-start PC (the instruction after a boundary), the
    /// checkpointed registers to restore on rollback (empty under
    /// renaming).
    pub restores_by_pc: HashMap<u32, Vec<CheckpointSlot>>,
    /// Compile statistics.
    pub stats: CompileStats,
}

/// Builds `kernel` for the scheme described by `opts`.
///
/// # Errors
///
/// Returns [`AllocError`] when the kernel cannot be register-allocated
/// within the budget.
pub fn build(kernel: &Kernel, opts: &BuildOptions) -> Result<CompiledKernel, AllocError> {
    let alloc_budget = opts.max_regs.saturating_sub(opts.alloc_headroom).max(8);
    let alloc = allocate(kernel, alloc_budget)?;
    let mut stats = CompileStats {
        spills: alloc.spilled,
        ..CompileStats::default()
    };

    let needs_regions = opts.recovery != Recovery::None || opts.detection != Detection::None;
    if !needs_regions {
        stats.regs_per_thread = alloc.kernel.regs_per_thread;
        return Ok(CompiledKernel {
            flat: alloc.kernel.flatten(),
            restores_by_pc: HashMap::new(),
            stats,
            kernel: alloc.kernel,
        });
    }

    let (exemptions, opt_stats) = if opts.region_opt {
        detect(&alloc.kernel)
    } else {
        (Exemptions::none(), Default::default())
    };
    stats.transparent_barriers = opt_stats.transparent_barriers;
    let mut k = form_regions(&alloc.kernel, &exemptions);

    let mut restores_by_ordinal: Vec<Vec<CheckpointSlot>> = Vec::new();
    match opts.recovery {
        Recovery::None => {}
        Recovery::Renaming => {
            let (renamed, rstats) = rename(&k, opts.max_regs);
            assert_eq!(
                rstats.unresolved, 0,
                "renaming exhausted the register budget on `{}`",
                kernel.name
            );
            stats.renamed = rstats.renamed;
            k = renamed;
        }
        Recovery::Checkpointing => {
            let res = checkpoint(&k);
            stats.checkpoints = res.checkpoints;
            restores_by_ordinal = res.restores;
            k = res.kernel;
        }
    }

    match opts.detection {
        Detection::None | Detection::Sensor => {}
        Detection::Duplication => {
            let (dup, dstats) = duplicate(&k, opts.max_regs);
            stats.duplicated = dstats.duplicated + dstats.seeds;
            k = dup;
        }
        Detection::Hybrid => {
            let (dup, dstats) = tail_dmr(&k, opts.wcdl, opts.max_regs);
            stats.duplicated = dstats.duplicated + dstats.seeds;
            k = dup;
        }
    }

    let rstats: RegionStats = region_stats(&k);
    stats.regions = rstats.regions;
    stats.mean_region_size = rstats.mean_size;
    stats.regs_per_thread = k.regs_per_thread;

    let flat = k.flatten();
    let mut restores_by_pc = HashMap::new();
    let mut ordinal = 0usize;
    for (pc, inst) in flat.insts.iter().enumerate() {
        if inst.op == Opcode::RegionBoundary {
            let list = restores_by_ordinal
                .get(ordinal)
                .cloned()
                .unwrap_or_default();
            if !list.is_empty() {
                restores_by_pc.insert(pc as u32 + 1, list);
            }
            ordinal += 1;
        }
    }

    Ok(CompiledKernel {
        flat,
        restores_by_pc,
        stats,
        kernel: k,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::builder::KernelBuilder;
    use gpu_sim::config::GpuConfig;
    use gpu_sim::gpu::Gpu;
    use gpu_sim::isa::{Cmp, MemSpace, Special};
    use gpu_sim::scheduler::SchedulerKind;
    use gpu_sim::sm::LaunchDims;

    fn workload() -> Kernel {
        let mut b = KernelBuilder::new("w");
        let sh = b.alloc_shared(64 * 8);
        let tid = b.special(Special::TidX);
        let sa = b.imul(tid, 8);
        b.st_arr(MemSpace::Shared, 1, sa, tid, sh);
        b.barrier();
        let i = b.mov(0i64);
        let acc = b.mov(0i64);
        b.label("head");
        let n = b.iadd(tid, i);
        let nw = b.irem(n, 64);
        let na = b.imul(nw, 8);
        let v = b.ld_arr(MemSpace::Shared, 1, na, sh);
        let acc2 = b.iadd(acc, v);
        b.mov_to(acc, acc2);
        let i2 = b.iadd(i, 1);
        b.mov_to(i, i2);
        let p = b.setp(Cmp::Lt, i, 8i64);
        b.bra_if(p, true, "head");
        let ga = b.imul(tid, 8);
        b.st_arr(MemSpace::Global, 2, ga, acc, 0);
        b.exit();
        b.finish()
    }

    fn all_schemes() -> Vec<(&'static str, BuildOptions)> {
        let m = 63;
        vec![
            ("baseline", BuildOptions::baseline(m)),
            ("flame", BuildOptions::flame(m, 20)),
            (
                "sensor+ckpt",
                BuildOptions {
                    recovery: Recovery::Checkpointing,
                    detection: Detection::Sensor,
                    wcdl: 20,
                    max_regs: m,
                    region_opt: false,
                    alloc_headroom: 8,
                },
            ),
            (
                "dup+renaming",
                BuildOptions {
                    recovery: Recovery::Renaming,
                    detection: Detection::Duplication,
                    wcdl: 20,
                    max_regs: m,
                    region_opt: false,
                    alloc_headroom: 8,
                },
            ),
            (
                "hybrid+ckpt",
                BuildOptions {
                    recovery: Recovery::Checkpointing,
                    detection: Detection::Hybrid,
                    wcdl: 20,
                    max_regs: m,
                    region_opt: false,
                    alloc_headroom: 8,
                },
            ),
        ]
    }

    fn run(flat: &FlatKernel) -> Vec<u64> {
        let mut gpu = Gpu::launch(
            GpuConfig::gtx480(),
            flat.clone(),
            LaunchDims::linear(2, 64),
            SchedulerKind::Gto,
        )
        .unwrap();
        gpu.run(10_000_000).unwrap();
        (0..64u64).map(|t| gpu.global().read(t * 8)).collect()
    }

    #[test]
    fn all_schemes_produce_identical_output() {
        let k = workload();
        let base = build(&k, &BuildOptions::baseline(63)).unwrap();
        let expect = run(&base.flat);
        for (name, opts) in all_schemes() {
            let built = build(&k, &opts).unwrap();
            assert_eq!(run(&built.flat), expect, "scheme {name}");
        }
    }

    #[test]
    fn baseline_has_no_boundaries() {
        let k = workload();
        let built = build(&k, &BuildOptions::baseline(63)).unwrap();
        assert!(!built
            .flat
            .insts
            .iter()
            .any(|i| i.op == Opcode::RegionBoundary));
        assert!(built.restores_by_pc.is_empty());
    }

    #[test]
    fn flame_build_has_regions_and_no_restores() {
        let k = workload();
        let built = build(&k, &BuildOptions::flame(63, 20)).unwrap();
        assert!(built.stats.regions > 1);
        assert!(
            built.restores_by_pc.is_empty(),
            "renaming needs no restores"
        );
    }

    #[test]
    fn checkpointing_build_has_restores_at_region_pcs() {
        let k = workload();
        let opts = BuildOptions {
            recovery: Recovery::Checkpointing,
            detection: Detection::Sensor,
            wcdl: 20,
            max_regs: 63,
            region_opt: false,
            alloc_headroom: 8,
        };
        let built = build(&k, &opts).unwrap();
        assert!(built.stats.checkpoints > 0);
        assert!(!built.restores_by_pc.is_empty());
        // Every restore PC follows a boundary instruction.
        for &pc in built.restores_by_pc.keys() {
            assert_eq!(built.flat.insts[pc as usize - 1].op, Opcode::RegionBoundary);
        }
    }

    #[test]
    fn duplication_grows_instruction_count() {
        let k = workload();
        let base = build(&k, &BuildOptions::baseline(63)).unwrap();
        let dup = build(
            &k,
            &BuildOptions {
                recovery: Recovery::Renaming,
                detection: Detection::Duplication,
                wcdl: 20,
                max_regs: 63,
                region_opt: false,
                alloc_headroom: 8,
            },
        )
        .unwrap();
        assert!(dup.flat.len() > base.flat.len() + base.flat.len() / 2);
        assert!(dup.stats.duplicated > 0);
    }

    #[test]
    fn region_opt_reduces_boundaries() {
        let k = workload();
        let with = build(&k, &BuildOptions::flame(63, 20)).unwrap();
        let without = build(
            &k,
            &BuildOptions {
                region_opt: false,
                ..BuildOptions::flame(63, 20)
            },
        )
        .unwrap();
        assert!(with.stats.regions <= without.stats.regions);
        assert!(with.stats.transparent_barriers >= 1);
    }
}
