//! Structured kernel fuzzer: random-but-deterministic kernels with
//! divergent branches, barrier-separated shared-memory traffic, global
//! atomics and nested loops, differentially checked between the
//! cycle-level simulator and the architectural oracle across schemes.
//!
//! The generator grew out of the straight-line-plus-one-loop generator
//! that `tests/properties.rs` used for its compiler property tests; that
//! suite now reuses [`random_kernel`]/[`build_kernel`] from here instead
//! of keeping its own copy. Every kernel the generator emits is
//! *schedule-independent by construction* — disjoint per-thread output
//! stores, commutative atomics whose old values are discarded, shared
//! reads separated from shared writes by barriers, and per-thread
//! (never race-dependent) branch predicates — so the canonical-order
//! oracle image and the simulator image must match bit-for-bit under
//! every scheme. A mismatch is a real bug in the simulator, a compiler
//! transform, or the oracle, and [`check_seed`] reports it with a
//! one-line `FLAME_FUZZ_SEED=…` reproducer.
//!
//! Entry points: [`check_seed`] for one seed, [`fuzz_smoke`] for a
//! seeded batch (what `scripts/verify.sh` runs, 200 seeds by default).

use crate::common::seed_u64;
use flame_core::experiment::{prepare_scheme, ExperimentConfig, WorkloadSpec};
use flame_core::scheme::Scheme;
use flame_oracle::{execute, OracleConfig};
use gpu_sim::builder::KernelBuilder;
use gpu_sim::isa::{AtomOp, Cmp, MemSpace, Special};
use gpu_sim::memory::{GlobalMemory, WORD_BYTES};
use gpu_sim::rng::Rng64;
use gpu_sim::sm::LaunchDims;
use gpu_sim::Kernel;
use std::sync::Arc;

/// Recipe for one generated kernel. All fields derive deterministically
/// from the [`Rng64`] stream, so a seed fully reproduces the kernel.
#[derive(Debug, Clone)]
pub struct FuzzKernel {
    /// Straight-line op soup: one code (0..6) per arithmetic op.
    pub ops: Vec<u8>,
    /// Outer loop trip count (1..=5).
    pub loop_trips: i64,
    /// Register budget for register-allocation property tests (8..=23).
    pub budget: u32,
    /// CTAs in the launch (1..=4).
    pub ctas: u32,
    /// Threads per CTA (33..=128: always multi-warp, usually with a
    /// partial tail warp).
    pub threads: u32,
    /// Emit a divergent `bra_if` diamond on `tid & 1`.
    pub divergent: bool,
    /// Emit a barrier-separated cross-thread shared-memory shuffle.
    pub shared: bool,
    /// Emit a commutative global atomic (old value discarded).
    pub atomics: bool,
    /// Nested inner-loop trip count (0 = no inner loop, up to 3).
    pub inner_trips: i64,
}

/// Draws a random kernel recipe. The first three draws match the
/// original `tests/properties.rs` generator; the structured features
/// (divergence, shared memory, atomics, nesting) are drawn after.
pub fn random_kernel(rng: &mut Rng64) -> FuzzKernel {
    let nops = rng.range(4, 24) as usize;
    FuzzKernel {
        ops: (0..nops).map(|_| rng.below(6) as u8).collect(),
        loop_trips: rng.range(1, 6) as i64,
        budget: rng.range(8, 24) as u32,
        ctas: rng.range(1, 5) as u32,
        threads: rng.range(33, 129) as u32,
        divergent: rng.chance(0.7),
        shared: rng.chance(0.6),
        atomics: rng.chance(0.5),
        inner_trips: rng.range(0, 4) as i64,
    }
}

/// Launch geometry for a recipe.
pub fn launch_dims(rk: &FuzzKernel) -> LaunchDims {
    LaunchDims::linear(rk.ctas, rk.threads)
}

/// Total threads across the launch (= words in the output array).
pub fn thread_count(rk: &FuzzKernel) -> u64 {
    u64::from(rk.ctas) * u64::from(rk.threads)
}

/// Seeds the class-0 input array for `n` threads (the generated kernels
/// load their input from `global[gid * 8]`).
pub fn seed_input(m: &mut GlobalMemory, n: u64) {
    for i in 0..n {
        m.write(i * 8, seed_u64(i));
    }
}

/// Builds the kernel for a recipe.
///
/// Skeleton: load `acc` from `global[gid * 8]`, run the op soup inside
/// an outer loop — with an optional divergent diamond, an optional
/// nested inner loop, an optional shared-memory shuffle (store, barrier,
/// read a partner thread's slot, barrier), and an optional global
/// `atom.add` into one of eight counters — then store `acc` back to the
/// same class-0 address (the same-class store forces region formation to
/// cut a memory WAR, as in the original generator).
pub fn build_kernel(rk: &FuzzKernel) -> Kernel {
    let mut b = KernelBuilder::new("fuzz");
    let tid = b.special(Special::TidX);
    let cta = b.special(Special::CtaIdX);
    let ntid = b.special(Special::NTidX);
    let gid = b.imad(cta, ntid, tid);
    let addr = b.imul(gid, 8);
    let x = b.ld_arr(MemSpace::Global, 0, addr, 0);
    let acc = b.mov(x);
    let sh = if rk.shared {
        b.alloc_shared(rk.threads * 8)
    } else {
        0
    };
    let i = b.mov(0i64);
    b.label("head");
    for (j, op) in rk.ops.iter().enumerate() {
        let v = match op % 6 {
            0 => b.iadd(acc, j as i64 + 1),
            1 => b.imul(acc, 3i64),
            2 => b.xor(acc, 0x5Ai64),
            3 => b.iadd(acc, i),
            4 => b.imax(acc, j as i64),
            _ => b.isub(acc, 1i64),
        };
        b.mov_to(acc, v);
    }
    if rk.divergent {
        // Intra-warp divergence on a per-thread predicate; both arms
        // write `acc`, reconverging at "join".
        let bit = b.and(tid, 1);
        let p = b.setp(Cmp::Ne, bit, 0);
        b.bra_if(p, true, "odd");
        let even = b.imad(acc, 3, 1);
        b.mov_to(acc, even);
        b.bra("join");
        b.label("odd");
        let odd = b.xor(acc, 0x0F0F);
        b.mov_to(acc, odd);
        b.label("join");
    }
    if rk.inner_trips > 0 {
        let j = b.mov(0i64);
        b.label("inner");
        let t = b.imad(acc, 3, j);
        b.mov_to(acc, t);
        let j2 = b.iadd(j, 1);
        b.mov_to(j, j2);
        let pj = b.setp(Cmp::Lt, j, rk.inner_trips);
        b.bra_if(pj, true, "inner");
    }
    if rk.shared {
        // Publish acc, then read a partner thread's value. Barriers on
        // both sides keep iteration N's reads ordered against iteration
        // N+1's writes for every schedule.
        let sa = b.imad(tid, 8, sh);
        b.st(MemSpace::Shared, sa, acc, 0);
        b.barrier();
        let half = i64::from(rk.threads / 2);
        let shifted = b.iadd(tid, half);
        let partner = b.irem(shifted, ntid);
        let pa = b.imad(partner, 8, sh);
        let v = b.ld(MemSpace::Shared, pa, 0);
        b.barrier();
        let mixed = b.xor(acc, v);
        b.mov_to(acc, mixed);
    }
    if rk.atomics {
        // Commutative add into one of eight class-1 counters; the old
        // value is discarded, so the final sums are order-independent.
        let slot = b.and(gid, 7);
        let ca = b.imad(slot, 8, crate::common::arr_base(1));
        let contrib = b.and(acc, 0xFF);
        let _ = b.atom(MemSpace::Global, AtomOp::Add, ca, contrib, 0);
    }
    let i2 = b.iadd(i, 1);
    b.mov_to(i, i2);
    let p = b.setp(Cmp::Lt, i, rk.loop_trips);
    b.bra_if(p, true, "head");
    b.st_arr(MemSpace::Global, 0, addr, acc, 0);
    b.exit();
    b.finish()
}

/// The one-line reproducer printed on any mismatch.
pub fn reproducer(seed: u64) -> String {
    format!("FLAME_FUZZ_SEED={seed:#x} cargo run --release -p flame-bench --bin fuzz_oracle")
}

fn workload_for(rk: &FuzzKernel) -> WorkloadSpec {
    let n = thread_count(rk);
    WorkloadSpec {
        name: "fuzz",
        abbr: "FUZZ",
        suite: "fuzz",
        kernel: build_kernel(rk),
        dims: launch_dims(rk),
        init: Arc::new(move |m| seed_input(m, n)),
        check: Arc::new(|_| true),
    }
}

/// Differentially checks one seed: generates the kernel, computes the
/// oracle image of the untransformed kernel, then simulates it under the
/// baseline plus one seed-rotated paper scheme and requires every final
/// global-memory image to be bit-identical to the oracle's.
///
/// `sabotage` flips one word of the golden image first — the forced
/// mismatch `scripts/verify.sh` uses to prove a real divergence would
/// surface with a replayable reproducer.
///
/// # Errors
///
/// Returns a human-readable report containing the `FLAME_FUZZ_SEED=…`
/// reproducer line on any oracle/simulator divergence or oracle failure.
pub fn check_seed_with(seed: u64, sabotage: bool) -> Result<(), String> {
    let mut rng = Rng64::new(seed);
    let rk = random_kernel(&mut rng);
    let w = workload_for(&rk);
    let cfg = ExperimentConfig {
        max_cycles: 50_000_000,
        ..ExperimentConfig::default()
    };
    let ocfg = OracleConfig {
        global_mem_bytes: cfg.gpu.device_mem_bytes,
        step_budget: 50_000_000,
    };
    let n = thread_count(&rk);
    let mut golden = execute(&w.kernel, w.dims, &ocfg, move |m| seed_input(m, n))
        .map_err(|e| format!("seed {seed:#x}: oracle rejected kernel ({e}); {rk:?}"))?;
    if sabotage {
        let word = golden.global.read(0);
        golden.global.write(0, word ^ 0x8000_0000_0000_0000);
    }
    let schemes = [
        Scheme::Baseline,
        Scheme::paper_schemes()[(seed % 8) as usize],
    ];
    for scheme in schemes {
        let (mut gpu, _) = prepare_scheme(&w, scheme, &cfg)
            .map_err(|e| format!("seed {seed:#x}: prepare failed under {scheme:?}: {e:?}"))?;
        gpu.run(cfg.max_cycles)
            .map_err(|e| format!("seed {seed:#x}: run failed under {scheme:?}: {e:?}"))?;
        if let Some(i) = gpu.global().first_difference(&golden.global) {
            let addr = i as u64 * WORD_BYTES;
            let (s, g) = (gpu.global().read(addr), golden.global.read(addr));
            return Err(format!(
                "oracle/sim divergence under {scheme:?} at word {i}: sim {s:#x} != oracle {g:#x}\n\
                 kernel: {rk:?}\n\
                 reproduce with: {}",
                reproducer(seed)
            ));
        }
    }
    Ok(())
}

/// [`check_seed_with`] without sabotage.
///
/// # Errors
///
/// See [`check_seed_with`].
pub fn check_seed(seed: u64) -> Result<(), String> {
    check_seed_with(seed, false)
}

/// Base of the default fuzz seed stream (`base + k` for run `k`).
pub const FUZZ_SEED_BASE: u64 = 0xF1A3_0000;

/// Runs `runs` consecutive seeds from [`FUZZ_SEED_BASE`], stopping at
/// the first divergence.
///
/// # Errors
///
/// Propagates the first failing seed's report (see [`check_seed_with`]).
pub fn fuzz_smoke(runs: u64) -> Result<(), String> {
    for k in 0..runs {
        check_seed(FUZZ_SEED_BASE + k)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A handful of seeds stay divergence-free (the full 200-seed smoke
    /// runs in release mode via `scripts/verify.sh`).
    #[test]
    fn small_fuzz_batch_is_divergence_free() {
        for k in 0..8 {
            if let Err(e) = check_seed(FUZZ_SEED_BASE + k) {
                panic!("{e}");
            }
        }
    }

    /// A forced mismatch must fail and carry the replayable
    /// `FLAME_FUZZ_SEED=…` reproducer line.
    #[test]
    fn forced_mismatch_prints_replayable_reproducer() {
        let seed = FUZZ_SEED_BASE;
        let err = check_seed_with(seed, true).expect_err("sabotaged run must fail");
        assert!(
            err.contains(&format!("FLAME_FUZZ_SEED={seed:#x}")),
            "reproducer line missing from report:\n{err}"
        );
        assert!(err.contains("divergence"), "report lacks diagnosis:\n{err}");
    }

    /// The generator exercises each structured feature within the first
    /// 32 seeds of the default stream (guards against a refactor quietly
    /// biasing the recipe distribution to straight-line kernels).
    #[test]
    fn default_stream_covers_all_structured_features() {
        let mut divergent = 0;
        let mut shared = 0;
        let mut atomics = 0;
        let mut nested = 0;
        let mut partial_warp = 0;
        for k in 0..32 {
            let mut rng = Rng64::new(FUZZ_SEED_BASE + k);
            let rk = random_kernel(&mut rng);
            divergent += usize::from(rk.divergent);
            shared += usize::from(rk.shared);
            atomics += usize::from(rk.atomics);
            nested += usize::from(rk.inner_trips > 0);
            partial_warp += usize::from(!rk.threads.is_multiple_of(32));
        }
        assert!(divergent > 0 && shared > 0 && atomics > 0 && nested > 0);
        assert!(partial_warp > 0, "no partial tail warps in 32 seeds");
    }
}
