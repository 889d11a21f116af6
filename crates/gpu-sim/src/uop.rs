//! Pre-decoded micro-ops: the kernel image the issue loop runs from.
//!
//! The per-cycle loop in [`crate::sm`] used to re-match `isa.rs` enums on
//! every issued instruction: operand vectors were walked through bounds
//! checks, branch targets resolved through `BlockId` indirection, and the
//! latency table re-derived per issue. This module lowers each
//! [`Instruction`] once, at kernel launch, into a dense [`MicroOp`] with
//! operands in fixed slots, the branch target and reconvergence PC
//! pre-linked, the issue latency precomputed, and the scoreboard register
//! list flattened. `flame-oracle`, which executes the raw instructions,
//! referees the result.
//!
//! A [`UopKernel`] is *derived* state: it is rebuilt from the immutable
//! [`FlatKernel`] on restore and deliberately excluded from
//! [`crate::gpu::Snapshot`].
//!
//! [`Instruction`]: crate::isa::Instruction

use crate::config::LatencyConfig;
use crate::isa::{MemSpace, Opcode, Operand, Reg};
use crate::program::FlatKernel;
use crate::regfile::WarpRegFile;

/// Issue latency of `op` under `lat` — the compute-pipeline latency
/// classes (memory opcodes derive their timing from the cache walk
/// instead, but still carry a class here for uniformity).
pub fn op_latency(lat: &LatencyConfig, op: Opcode) -> u64 {
    match op {
        Opcode::IMul | Opcode::IMad => lat.imul,
        Opcode::IDiv | Opcode::IRem => lat.idiv,
        Opcode::FDiv | Opcode::FSqrt | Opcode::FExp => lat.fsfu,
        Opcode::FAdd
        | Opcode::FSub
        | Opcode::FMul
        | Opcode::FFma
        | Opcode::FMin
        | Opcode::FMax
        | Opcode::I2F
        | Opcode::F2I => lat.falu,
        _ => lat.ialu,
    }
}

/// Maximum registers one instruction can touch: three source operands,
/// a predicate, and a destination.
pub const MAX_SB_REGS: usize = 5;

/// One pre-decoded instruction: everything the issue loop needs, with no
/// heap indirection and no enum re-derivation.
#[derive(Debug, Clone, Copy)]
pub struct MicroOp {
    /// The operation (still matched on, but only once per issue).
    pub op: Opcode,
    /// Destination register, if any.
    pub dst: Option<Reg>,
    /// Source operands in fixed slots; unused slots hold `Imm(0)`, which
    /// reproduces the zero-default the interpreter always used for
    /// missing operands.
    pub srcs: [Operand; 3],
    /// Guard predicate `(reg, sense)`.
    pub pred: Option<(Reg, bool)>,
    /// Constant byte offset for memory operands.
    pub offset: i64,
    /// Precomputed issue latency ([`op_latency`]).
    pub lat: u64,
    /// Whether this op needs a free MSHR to issue (global-space memory).
    pub needs_mshr: bool,
    /// Resolved branch target PC (only meaningful for `Bra`).
    pub target_pc: u32,
    /// Reconvergence PC for a divergent branch here (only for `Bra`).
    pub reconv_pc: Option<u32>,
    /// Registers checked against the scoreboard (reads, predicate, dst).
    pub sb: [Reg; MAX_SB_REGS],
    /// Number of live entries in [`MicroOp::sb`].
    pub nsb: u8,
}

impl MicroOp {
    /// Lowers the instruction at `pc` of `kernel`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range, or if a `Bra` lacks a target
    /// (ruled out by [`crate::program::Kernel::validate`]).
    pub fn lower(kernel: &FlatKernel, pc: u32, lat: &LatencyConfig) -> MicroOp {
        let inst = kernel.inst(pc);
        let mut srcs = [Operand::Imm(0); 3];
        for (slot, &src) in srcs.iter_mut().zip(inst.srcs.iter()) {
            *slot = src;
        }
        let mut sb = [Reg(0); MAX_SB_REGS];
        let mut nsb = 0u8;
        for r in inst.reads().chain(inst.writes()) {
            sb[nsb as usize] = r;
            nsb += 1;
        }
        let (target_pc, reconv_pc) = if inst.op == Opcode::Bra {
            (kernel.target_pc(pc), kernel.reconv_for(pc))
        } else {
            (0, None)
        };
        MicroOp {
            op: inst.op,
            dst: inst.dst,
            srcs,
            pred: inst.pred,
            offset: inst.offset,
            lat: op_latency(lat, inst.op),
            needs_mshr: matches!(
                inst.op,
                Opcode::Ld(MemSpace::Global)
                    | Opcode::St(MemSpace::Global)
                    | Opcode::Atom(MemSpace::Global, _)
            ),
            target_pc,
            reconv_pc,
            sb,
            nsb,
        }
    }
}

/// What a scheduler checks before a warp may issue the micro-op at `pc`:
/// the structural hazard and the scoreboard, reduced to one flag and one
/// cycle. The SM keeps a Ready warp's gate until the warp's pc or pending
/// writes change, so a stalled warp costs its scheduler two compares per
/// cycle and the event-driven clock one cycle per warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IssueGate {
    /// The PC the gate was computed for.
    pub(crate) pc: u32,
    /// Whether the op needs a free MSHR to issue (global-space memory).
    pub(crate) needs_mshr: bool,
    /// First cycle at which every scoreboard register (reads, predicate,
    /// destination) is ready: the op passes the scoreboard at `now` iff
    /// `ready_at <= now`. `u64::MAX` while one of them waits on a load in
    /// flight, whose completion changes the pending writes.
    pub(crate) ready_at: u64,
}

/// The pre-decoded micro-op cache: one [`MicroOp`] per PC, built once at
/// kernel launch. Derived state — rebuilt on restore, never snapshotted.
#[derive(Debug, Clone)]
pub struct UopKernel {
    uops: Vec<MicroOp>,
}

impl UopKernel {
    /// Lowers every instruction of `kernel`.
    pub fn build(kernel: &FlatKernel, lat: &LatencyConfig) -> UopKernel {
        UopKernel {
            uops: (0..kernel.len() as u32)
                .map(|pc| MicroOp::lower(kernel, pc, lat))
                .collect(),
        }
    }

    /// Number of micro-ops (= instructions in the kernel).
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the cache is empty (never true for a valid kernel).
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }
}

impl UopKernel {
    /// The micro-op at `pc`.
    #[inline]
    pub fn uop(&self, pc: u32) -> MicroOp {
        self.uops[pc as usize]
    }

    /// Whether the instruction at `pc` is a region boundary.
    #[inline]
    pub fn is_boundary(&self, pc: u32) -> bool {
        self.uops[pc as usize].op == Opcode::RegionBoundary
    }

    /// The issue gate of the instruction at `pc` for a warp with
    /// register file `regs`.
    #[inline]
    pub(crate) fn issue_gate(&self, pc: u32, regs: &WarpRegFile) -> IssueGate {
        let u = &self.uops[pc as usize];
        IssueGate {
            pc,
            needs_mshr: u.needs_mshr,
            ready_at: u.sb[..u.nsb as usize]
                .iter()
                .map(|&r| regs.ready_at(r))
                .max()
                .unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::isa::Special;

    fn sample_kernel() -> FlatKernel {
        let mut b = KernelBuilder::new("uop-sample");
        let tid = b.special(Special::TidX);
        let addr = b.imul(tid, 8);
        let v = b.ld_global(addr, 0);
        let w = b.imul(v, 2);
        b.st_global(addr, w, 4096);
        b.exit();
        b.finish().flatten()
    }

    #[test]
    fn lower_matches_instruction_fields() {
        let k = sample_kernel();
        let lat = LatencyConfig::default();
        for pc in 0..k.len() as u32 {
            let inst = k.inst(pc);
            let u = MicroOp::lower(&k, pc, &lat);
            assert_eq!(u.op, inst.op, "pc {pc}");
            assert_eq!(u.dst, inst.dst, "pc {pc}");
            assert_eq!(u.pred, inst.pred, "pc {pc}");
            assert_eq!(u.offset, inst.offset, "pc {pc}");
            assert_eq!(u.lat, op_latency(&lat, inst.op), "pc {pc}");
            for (i, &s) in u.srcs.iter().enumerate() {
                let want = inst.srcs.get(i).copied().unwrap_or(Operand::Imm(0));
                assert_eq!(s, want, "pc {pc} src {i}");
            }
            let want_sb: Vec<Reg> = inst.reads().chain(inst.writes()).collect();
            assert_eq!(&u.sb[..u.nsb as usize], want_sb.as_slice(), "pc {pc}");
        }
    }

    #[test]
    fn views_agree_on_every_probe() {
        // Every cached probe answers exactly what the raw instruction
        // says.
        let k = sample_kernel();
        let cache = UopKernel::build(&k, &LatencyConfig::default());
        assert_eq!(cache.len(), k.len());
        assert!(!cache.is_empty());
        // Distinct pending writes per register, so each gate's cycle
        // names the register it waits on; one in-flight load.
        let mut regs = WarpRegFile::new(k.regs_per_thread);
        for r in 0..k.regs_per_thread as u16 {
            regs.set_pending(Reg(r), 100 + u64::from(r));
        }
        regs.set_pending(Reg(1), u64::MAX);
        for pc in 0..k.len() as u32 {
            let inst = k.inst(pc);
            assert_eq!(cache.is_boundary(pc), inst.op == Opcode::RegionBoundary);
            let gate = cache.issue_gate(pc, &regs);
            assert_eq!(gate.pc, pc);
            assert_eq!(
                gate.needs_mshr,
                matches!(
                    inst.op,
                    Opcode::Ld(MemSpace::Global)
                        | Opcode::St(MemSpace::Global)
                        | Opcode::Atom(MemSpace::Global, _)
                ),
                "pc {pc}"
            );
            // The gate opens exactly when every register the instruction
            // touches is ready.
            for now in [0, 100, 101, 102, 103, 104, 1 << 40] {
                assert_eq!(
                    gate.ready_at <= now,
                    inst.reads()
                        .chain(inst.writes())
                        .all(|r| regs.ready_at(r) <= now),
                    "pc {pc} at {now}"
                );
            }
            assert_eq!(cache.uop(pc).op, inst.op);
        }
    }

    #[test]
    fn latency_classes() {
        let lat = LatencyConfig::default();
        assert_eq!(op_latency(&lat, Opcode::IAdd), lat.ialu);
        assert_eq!(op_latency(&lat, Opcode::IMad), lat.imul);
        assert_eq!(op_latency(&lat, Opcode::IRem), lat.idiv);
        assert_eq!(op_latency(&lat, Opcode::FSqrt), lat.fsfu);
        assert_eq!(op_latency(&lat, Opcode::F2I), lat.falu);
        assert_eq!(op_latency(&lat, Opcode::Mov), lat.ialu);
    }

    #[test]
    fn branch_targets_are_prelinked() {
        use crate::isa::{BlockId, Instruction};
        use crate::program::{BasicBlock, Kernel};
        let mut k = Kernel::new("bra");
        let mut b0 = BasicBlock::new("entry");
        let mut bra = Instruction::new(Opcode::Bra, None, vec![]);
        bra.target = Some(BlockId(1));
        bra.pred = Some((Reg(0), true));
        b0.insts.push(bra);
        let mut b1 = BasicBlock::new("exit");
        b1.insts.push(Instruction::new(Opcode::Exit, None, vec![]));
        k.blocks = vec![b0, b1];
        let f = k.flatten();
        let u = MicroOp::lower(&f, 0, &LatencyConfig::default());
        assert_eq!(u.target_pc, f.target_pc(0));
        assert_eq!(u.reconv_pc, f.reconv_for(0));
    }
}
