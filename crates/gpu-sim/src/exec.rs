//! Functional evaluation of ALU opcodes, one lane or a whole warp at once.
//!
//! Integer opcodes operate on values as `i64` (wrapping); floating-point
//! opcodes operate on the low 32 bits as `f32`. Division by zero yields
//! zero — GPU kernels must not abort the simulator. Every NaN result is
//! the one quiet NaN `f32::NAN`.
//!
//! Each opcode's semantics is written once, as a scalar closure in
//! `dispatch`. [`eval`] runs that closure on one lane's operands (the
//! form `flame-oracle` executes); [`eval_warp`] matches the opcode once
//! and runs the same closure over all 32 lanes of whole register rows.

use crate::isa::{Cmp, Opcode};
use crate::regfile::Value;
use crate::warp::WARP_SIZE;

#[inline]
fn f(v: Value) -> f32 {
    f32::from_bits(v as u32)
}

/// A float result as a register value. A NaN becomes `f32::NAN`: which
/// payload an op on two NaNs returns is left to codegen (commutative ops
/// follow the operand order the compiler chose), so without this the
/// simulator and `flame-oracle`, which inline `dispatch` in different
/// contexts, could disagree in the bits.
#[inline]
fn fb(v: f32) -> Value {
    let v = if v.is_nan() { f32::NAN } else { v };
    Value::from(v.to_bits())
}

#[inline]
fn i(v: Value) -> i64 {
    v as i64
}

/// Where [`dispatch`] applies an opcode's scalar semantics: to one
/// operand triple or to every lane of three operand rows.
trait Apply {
    type Out;
    fn apply(self, op: impl Fn(Value, Value, Value) -> Value) -> Self::Out;
}

/// One lane's operands.
struct Lane([Value; 3]);

impl Apply for Lane {
    type Out = Value;
    #[inline(always)]
    fn apply(self, op: impl Fn(Value, Value, Value) -> Value) -> Value {
        op(self.0[0], self.0[1], self.0[2])
    }
}

/// Three operand rows, one value per lane.
struct Rows<'a>([&'a [Value; WARP_SIZE]; 3]);

impl Apply for Rows<'_> {
    type Out = [Value; WARP_SIZE];
    #[inline(always)]
    fn apply(self, op: impl Fn(Value, Value, Value) -> Value) -> [Value; WARP_SIZE] {
        let [a, b, c] = self.0;
        let mut out = [0; WARP_SIZE];
        for (((o, &x), &y), &z) in out.iter_mut().zip(a).zip(b).zip(c) {
            *o = op(x, y, z);
        }
        out
    }
}

/// The one definition of every computational opcode: matches `op` and
/// hands its scalar semantics to `at`.
#[inline(always)]
fn dispatch<A: Apply>(op: Opcode, at: A) -> A::Out {
    match op {
        Opcode::IAdd => at.apply(|a, b, _| i(a).wrapping_add(i(b)) as Value),
        Opcode::ISub => at.apply(|a, b, _| i(a).wrapping_sub(i(b)) as Value),
        Opcode::IMul => at.apply(|a, b, _| i(a).wrapping_mul(i(b)) as Value),
        Opcode::IMad => at.apply(|a, b, c| i(a).wrapping_mul(i(b)).wrapping_add(i(c)) as Value),
        Opcode::IDiv => at.apply(|a, b, _| {
            if b == 0 {
                0
            } else {
                i(a).wrapping_div(i(b)) as Value
            }
        }),
        Opcode::IRem => at.apply(|a, b, _| {
            if b == 0 {
                0
            } else {
                i(a).wrapping_rem(i(b)) as Value
            }
        }),
        Opcode::IMin => at.apply(|a, b, _| i(a).min(i(b)) as Value),
        Opcode::IMax => at.apply(|a, b, _| i(a).max(i(b)) as Value),
        Opcode::And => at.apply(|a, b, _| a & b),
        Opcode::Or => at.apply(|a, b, _| a | b),
        Opcode::Xor => at.apply(|a, b, _| a ^ b),
        Opcode::Shl => at.apply(|a, b, _| a << (b & 63)),
        Opcode::Shr => at.apply(|a, b, _| a >> (b & 63)),
        Opcode::FAdd => at.apply(|a, b, _| fb(f(a) + f(b))),
        Opcode::FSub => at.apply(|a, b, _| fb(f(a) - f(b))),
        Opcode::FMul => at.apply(|a, b, _| fb(f(a) * f(b))),
        Opcode::FFma => at.apply(|a, b, c| fb(f(a).mul_add(f(b), f(c)))),
        Opcode::FDiv => at.apply(|a, b, _| {
            let d = f(b);
            fb(if d == 0.0 { 0.0 } else { f(a) / d })
        }),
        // Negative and NaN operands clamp to +0.0 rather than produce NaN.
        Opcode::FSqrt => at.apply(|a, _, _| {
            let x = f(a);
            fb(if x > 0.0 { x.sqrt() } else { 0.0 })
        }),
        Opcode::FExp => at.apply(|a, _, _| fb(f(a).exp())),
        // IEEE minNum/maxNum, written out: `f32::min`/`max` leave the
        // sign of a zero result open, and scalar and vector code pick
        // different ones. A NaN operand is dropped; on a tie (±0.0
        // included) the first operand wins.
        Opcode::FMin => at.apply(|a, b, _| {
            let (x, y) = (f(a), f(b));
            fb(if y < x || x.is_nan() { y } else { x })
        }),
        Opcode::FMax => at.apply(|a, b, _| {
            let (x, y) = (f(a), f(b));
            fb(if y > x || x.is_nan() { y } else { x })
        }),
        Opcode::I2F => at.apply(|a, _, _| fb(i(a) as f32)),
        Opcode::F2I => at.apply(|a, _, _| (f(a) as i64) as Value),
        Opcode::Mov => at.apply(|a, _, _| a),
        Opcode::Sel => at.apply(|a, b, c| if a != 0 { b } else { c }),
        Opcode::SetP(Cmp::Eq) => at.apply(|a, b, _| Value::from(i(a) == i(b))),
        Opcode::SetP(Cmp::Ne) => at.apply(|a, b, _| Value::from(i(a) != i(b))),
        Opcode::SetP(Cmp::Lt) => at.apply(|a, b, _| Value::from(i(a) < i(b))),
        Opcode::SetP(Cmp::Le) => at.apply(|a, b, _| Value::from(i(a) <= i(b))),
        Opcode::SetP(Cmp::Gt) => at.apply(|a, b, _| Value::from(i(a) > i(b))),
        Opcode::SetP(Cmp::Ge) => at.apply(|a, b, _| Value::from(i(a) >= i(b))),
        Opcode::SetP(Cmp::FLt) => at.apply(|a, b, _| Value::from(f(a) < f(b))),
        Opcode::SetP(Cmp::FGt) => at.apply(|a, b, _| Value::from(f(a) > f(b))),
        other => panic!("eval called on non-computational opcode {other}"),
    }
}

/// Evaluates a computational opcode on up to three source values.
///
/// # Panics
///
/// Panics if `op` is not a computational opcode (memory, control and
/// pseudo-instructions are executed by the pipeline, not here).
pub fn eval(op: Opcode, s: [Value; 3]) -> Value {
    dispatch(op, Lane(s))
}

/// Evaluates a computational opcode on every lane of three source rows
/// (`s[k][lane]` is lane `lane`'s `k`-th operand), returning one result
/// per lane. Inactive lanes are computed too — no opcode can trap — and
/// the caller stores only the active ones. Lane for lane the same as
/// [`eval`].
///
/// # Panics
///
/// Panics if `op` is not a computational opcode.
pub fn eval_warp(op: Opcode, s: [&[Value; WARP_SIZE]; 3]) -> [Value; WARP_SIZE] {
    dispatch(op, Rows(s))
}
/// Applies an atomic read-modify-write, returning `(old, new)`.
pub fn eval_atom(
    op: crate::isa::AtomOp,
    old: Value,
    operand: Value,
    operand2: Value,
) -> (Value, Value) {
    use crate::isa::AtomOp;
    let new = match op {
        AtomOp::Add => (old as i64).wrapping_add(operand as i64) as Value,
        AtomOp::Max => (old as i64).max(operand as i64) as Value,
        AtomOp::Min => (old as i64).min(operand as i64) as Value,
        AtomOp::Exch => operand,
        AtomOp::Cas => {
            if old == operand {
                operand2
            } else {
                old
            }
        }
    };
    (old, new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::AtomOp;

    fn e(op: Opcode, a: i64, b: i64) -> i64 {
        eval(op, [a as Value, b as Value, 0]) as i64
    }

    fn ef(op: Opcode, a: f32, b: f32) -> f32 {
        f32::from_bits(eval(op, [fb(a), fb(b), 0]) as u32)
    }

    #[test]
    fn integer_arithmetic() {
        assert_eq!(e(Opcode::IAdd, 2, 3), 5);
        assert_eq!(e(Opcode::ISub, 2, 3), -1);
        assert_eq!(e(Opcode::IMul, -4, 3), -12);
        assert_eq!(eval(Opcode::IMad, [2, 3, 4]), 10);
        assert_eq!(e(Opcode::IDiv, 7, 2), 3);
        assert_eq!(e(Opcode::IDiv, 7, 0), 0);
        assert_eq!(e(Opcode::IRem, 7, 3), 1);
        assert_eq!(e(Opcode::IRem, 7, 0), 0);
        assert_eq!(e(Opcode::IMin, -1, 1), -1);
        assert_eq!(e(Opcode::IMax, -1, 1), 1);
    }

    #[test]
    fn integer_overflow_wraps() {
        assert_eq!(e(Opcode::IAdd, i64::MAX, 1), i64::MIN);
        assert_eq!(e(Opcode::IMul, i64::MAX, 2), -2);
    }

    #[test]
    fn bitwise_and_shifts() {
        assert_eq!(eval(Opcode::And, [0b1100, 0b1010, 0]), 0b1000);
        assert_eq!(eval(Opcode::Or, [0b1100, 0b1010, 0]), 0b1110);
        assert_eq!(eval(Opcode::Xor, [0b1100, 0b1010, 0]), 0b0110);
        assert_eq!(eval(Opcode::Shl, [1, 4, 0]), 16);
        assert_eq!(eval(Opcode::Shr, [16, 4, 0]), 1);
        // Shift counts are masked to 6 bits.
        assert_eq!(eval(Opcode::Shl, [1, 64, 0]), 1);
    }

    #[test]
    fn float_arithmetic() {
        assert_eq!(ef(Opcode::FAdd, 1.5, 2.0), 3.5);
        assert_eq!(ef(Opcode::FSub, 1.5, 2.0), -0.5);
        assert_eq!(ef(Opcode::FMul, 1.5, 2.0), 3.0);
        assert_eq!(ef(Opcode::FDiv, 3.0, 2.0), 1.5);
        assert_eq!(ef(Opcode::FDiv, 3.0, 0.0), 0.0);
        assert_eq!(ef(Opcode::FMin, 1.0, 2.0), 1.0);
        assert_eq!(ef(Opcode::FMax, 1.0, 2.0), 2.0);
        let fma = eval(Opcode::FFma, [fb(2.0), fb(3.0), fb(1.0)]);
        assert_eq!(f32::from_bits(fma as u32), 7.0);
        let sq = eval(Opcode::FSqrt, [fb(9.0), 0, 0]);
        assert_eq!(f32::from_bits(sq as u32), 3.0);
        // Negative sqrt clamps to zero rather than NaN.
        let sqn = eval(Opcode::FSqrt, [fb(-1.0), 0, 0]);
        assert_eq!(f32::from_bits(sqn as u32), 0.0);
    }

    #[test]
    fn conversions() {
        let v = eval(Opcode::I2F, [7, 0, 0]);
        assert_eq!(f32::from_bits(v as u32), 7.0);
        assert_eq!(eval(Opcode::F2I, [fb(7.9), 0, 0]) as i64, 7);
        assert_eq!(eval(Opcode::F2I, [fb(-7.9), 0, 0]) as i64, -7);
    }

    #[test]
    fn f2i_saturates_instead_of_trapping() {
        // `as` casts saturate: a corrupted float must never abort the
        // simulator or produce an unstable value.
        assert_eq!(eval(Opcode::F2I, [fb(f32::NAN), 0, 0]) as i64, 0);
        assert_eq!(
            eval(Opcode::F2I, [fb(f32::INFINITY), 0, 0]) as i64,
            i64::MAX
        );
        assert_eq!(
            eval(Opcode::F2I, [fb(f32::NEG_INFINITY), 0, 0]) as i64,
            i64::MIN
        );
        assert_eq!(eval(Opcode::F2I, [fb(1e30), 0, 0]) as i64, i64::MAX);
        assert_eq!(eval(Opcode::F2I, [fb(-1e30), 0, 0]) as i64, i64::MIN);
    }

    #[test]
    fn fmin_fmax_ignore_nan_operand() {
        // IEEE 754 minNum/maxNum semantics (and `f32::min`/`f32::max`):
        // a single NaN operand is dropped, not propagated.
        assert_eq!(ef(Opcode::FMin, f32::NAN, 2.0), 2.0);
        assert_eq!(ef(Opcode::FMin, 2.0, f32::NAN), 2.0);
        assert_eq!(ef(Opcode::FMax, f32::NAN, -2.0), -2.0);
        assert_eq!(ef(Opcode::FMax, -2.0, f32::NAN), -2.0);
        // Both NaN: the result stays NaN.
        assert!(ef(Opcode::FMax, f32::NAN, f32::NAN).is_nan());
    }

    #[test]
    fn signed_zero_results_are_pinned() {
        // Ties keep the first operand; sqrt clamps -0.0 to +0.0.
        let (z, nz) = (fb(0.0), fb(-0.0));
        assert_eq!(eval(Opcode::FMin, [nz, z, 0]), nz);
        assert_eq!(eval(Opcode::FMin, [z, nz, 0]), z);
        assert_eq!(eval(Opcode::FMax, [nz, z, 0]), nz);
        assert_eq!(eval(Opcode::FMax, [z, nz, 0]), z);
        assert_eq!(eval(Opcode::FSqrt, [nz, 0, 0]), z);
    }

    #[test]
    fn nan_results_are_canonical_in_either_operand_order() {
        // Two quiet NaNs with distinct payloads, in both orders and in
        // every operand position, through the scalar and the warp path.
        let (p, q) = (0x7fc0_0001, 0x7fc0_0002);
        let one = fb(1.0);
        let canonical = Value::from(f32::NAN.to_bits());
        let float_ops = [
            Opcode::FAdd,
            Opcode::FSub,
            Opcode::FMul,
            Opcode::FFma,
            Opcode::FDiv,
            Opcode::FSqrt,
            Opcode::FExp,
            Opcode::FMin,
            Opcode::FMax,
        ];
        for op in float_ops {
            for c in [p, q, one] {
                let [pq, qp] = [[p, q, c], [q, p, c]].map(|s| {
                    let lane = eval(op, s);
                    let rows = s.map(|v| [v; WARP_SIZE]);
                    let warp = eval_warp(op, [&rows[0], &rows[1], &rows[2]]);
                    assert!(warp.iter().all(|&v| v == lane), "{op} {s:x?}: warp path");
                    assert!(
                        lane == canonical || !f(lane).is_nan(),
                        "{op} {s:x?} gave NaN payload {lane:#x}"
                    );
                    lane
                });
                assert_eq!(pq, qp, "{op}: operand order changed the result");
            }
        }
        assert_eq!(eval(Opcode::FAdd, [p, q, 0]), canonical);
        assert_eq!(eval(Opcode::FSub, [p, one, 0]), canonical);
    }

    #[test]
    fn division_edge_cases_stay_finite() {
        // 0/0 hits the divide-by-zero guard before it can produce NaN.
        assert_eq!(ef(Opcode::FDiv, 0.0, 0.0), 0.0);
        // A NaN dividend with a nonzero divisor propagates (the guard
        // only protects the divisor).
        assert!(ef(Opcode::FDiv, f32::NAN, 1.0).is_nan());
        // i64::MIN / -1 overflows two's complement; wrapping_div keeps it
        // in range instead of trapping.
        assert_eq!(e(Opcode::IDiv, i64::MIN, -1), i64::MIN);
        assert_eq!(e(Opcode::IRem, i64::MIN, -1), 0);
    }

    #[test]
    fn shift_counts_mask_to_six_bits() {
        assert_eq!(eval(Opcode::Shr, [16, 68, 0]), 1); // 68 & 63 == 4
        assert_eq!(eval(Opcode::Shl, [1, 70, 0]), 64); // 70 & 63 == 6
        assert_eq!(eval(Opcode::Shr, [1, 127, 0]), 0); // full-width shift
    }

    #[test]
    fn comparisons_and_select() {
        assert_eq!(eval(Opcode::SetP(Cmp::Lt), [1, 2, 0]), 1);
        assert_eq!(eval(Opcode::SetP(Cmp::Lt), [2, 1, 0]), 0);
        assert_eq!(eval(Opcode::SetP(Cmp::Eq), [5, 5, 0]), 1);
        assert_eq!(eval(Opcode::SetP(Cmp::Ne), [5, 5, 0]), 0);
        assert_eq!(eval(Opcode::SetP(Cmp::Ge), [5, 5, 0]), 1);
        assert_eq!(eval(Opcode::SetP(Cmp::FLt), [fb(1.0), fb(2.0), 0]), 1);
        assert_eq!(eval(Opcode::SetP(Cmp::FGt), [fb(1.0), fb(2.0), 0]), 0);
        assert_eq!(eval(Opcode::Sel, [1, 10, 20]), 10);
        assert_eq!(eval(Opcode::Sel, [0, 10, 20]), 20);
    }

    #[test]
    fn negative_comparison_uses_signed_order() {
        assert_eq!(eval(Opcode::SetP(Cmp::Lt), [(-1i64) as Value, 0, 0]), 1);
    }

    #[test]
    fn atomics() {
        assert_eq!(eval_atom(AtomOp::Add, 5, 3, 0), (5, 8));
        assert_eq!(eval_atom(AtomOp::Max, 5, 3, 0), (5, 5));
        assert_eq!(eval_atom(AtomOp::Min, 5, 3, 0), (5, 3));
        assert_eq!(eval_atom(AtomOp::Exch, 5, 3, 0), (5, 3));
        assert_eq!(eval_atom(AtomOp::Cas, 5, 5, 9), (5, 9));
        assert_eq!(eval_atom(AtomOp::Cas, 5, 4, 9), (5, 5));
    }

    #[test]
    fn eval_warp_matches_per_lane_eval() {
        use crate::isa::Reg;
        use crate::regfile::WarpRegFile;
        let cmps = [
            Cmp::Eq,
            Cmp::Ne,
            Cmp::Lt,
            Cmp::Le,
            Cmp::Gt,
            Cmp::Ge,
            Cmp::FLt,
            Cmp::FGt,
        ];
        let ops: Vec<Opcode> = [
            Opcode::IAdd,
            Opcode::ISub,
            Opcode::IMul,
            Opcode::IMad,
            Opcode::IDiv,
            Opcode::IRem,
            Opcode::IMin,
            Opcode::IMax,
            Opcode::And,
            Opcode::Or,
            Opcode::Xor,
            Opcode::Shl,
            Opcode::Shr,
            Opcode::FAdd,
            Opcode::FSub,
            Opcode::FMul,
            Opcode::FFma,
            Opcode::FDiv,
            Opcode::FSqrt,
            Opcode::FExp,
            Opcode::FMin,
            Opcode::FMax,
            Opcode::I2F,
            Opcode::F2I,
            Opcode::Mov,
            Opcode::Sel,
        ]
        .into_iter()
        .chain(cmps.map(Opcode::SetP))
        .collect();
        assert_eq!(ops.len(), 34);
        assert!(ops.iter().all(|op| op.is_compute()));
        // Every ordered pair of edge operands meets in some lane: i64::MIN
        // over -1, division by zero, NaN, infinities, signed zero and
        // shift counts of 64 and more.
        let edges: [Value; 12] = [
            0,
            1,
            (-1i64) as Value,
            i64::MIN as Value,
            i64::MAX as Value,
            64,
            70,
            fb(f32::NAN),
            fb(f32::INFINITY),
            fb(-0.0),
            fb(1.5),
            fb(-2.25),
        ];
        let triples: Vec<[Value; 3]> = (0..edges.len())
            .flat_map(|i| (0..edges.len()).map(move |j| (i, j)))
            .map(|(i, j)| [edges[i], edges[j], edges[(i + 5 * j) % edges.len()]])
            .collect();
        let sentinel: [Value; WARP_SIZE] = std::array::from_fn(|l| 0xDEAD_0000 + l as Value);
        for op in ops {
            for batch in triples.chunks(WARP_SIZE) {
                let row = |k: usize| -> [Value; WARP_SIZE] {
                    std::array::from_fn(|l| batch[l % batch.len()][k])
                };
                let (a, b, c) = (row(0), row(1), row(2));
                let out = eval_warp(op, [&a, &b, &c]);
                for mask in [u32::MAX, 0x5555_5555, 0x8000_0001, 0] {
                    let mut regs = WarpRegFile::new(1);
                    regs.write_masked(Reg(0), u32::MAX, &sentinel);
                    regs.write_masked(Reg(0), mask, &out);
                    for lane in 0..WARP_SIZE {
                        let want = if mask & (1 << lane) != 0 {
                            eval(op, [a[lane], b[lane], c[lane]])
                        } else {
                            sentinel[lane]
                        };
                        assert_eq!(
                            regs.read(Reg(0), lane),
                            want,
                            "{op} lane {lane} mask {mask:#x} operands {:?}",
                            [a[lane], b[lane], c[lane]]
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-computational")]
    fn eval_rejects_memory_ops() {
        let _ = eval(Opcode::Bar, [0, 0, 0]);
    }
}
