//! Per-warp register files and the issue scoreboard.

use crate::isa::Reg;
use crate::warp::WARP_SIZE;

/// Raw 64-bit register/memory value.
pub type Value = u64;

/// Register file for one warp: `regs_per_thread` registers × 32 lanes,
/// plus a per-register scoreboard of ready cycles.
#[derive(Debug, Clone)]
pub struct WarpRegFile {
    regs_per_thread: u32,
    /// `values[reg][lane]`: one row of 32 lanes per register.
    values: Vec<[Value; WARP_SIZE]>,
    /// Cycle at which each register's pending write completes;
    /// `u64::MAX` marks an in-flight memory load with unknown completion.
    ready_at: Vec<u64>,
}

impl WarpRegFile {
    /// Creates a zeroed register file.
    pub fn new(regs_per_thread: u32) -> WarpRegFile {
        WarpRegFile {
            regs_per_thread,
            values: vec![[0; WARP_SIZE]; regs_per_thread as usize],
            ready_at: vec![0; regs_per_thread as usize],
        }
    }

    /// Number of registers per thread.
    pub fn regs_per_thread(&self) -> u32 {
        self.regs_per_thread
    }

    /// Reads `reg` in `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `reg` or `lane` is out of range.
    #[inline]
    pub fn read(&self, reg: Reg, lane: usize) -> Value {
        self.values[reg.index()][lane]
    }

    /// All 32 lanes of `reg`.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range.
    #[inline]
    pub(crate) fn row(&self, reg: Reg) -> &[Value; WARP_SIZE] {
        &self.values[reg.index()]
    }

    /// Lanes whose value of `reg` is nonzero, as a lane mask (the form a
    /// guard predicate takes).
    #[inline]
    pub(crate) fn nonzero_lanes(&self, reg: Reg) -> u32 {
        self.values[reg.index()]
            .iter()
            .enumerate()
            .fold(0, |m, (lane, &v)| m | (u32::from(v != 0) << lane))
    }

    /// Writes `reg` in `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `reg` or `lane` is out of range.
    #[inline]
    pub fn write(&mut self, reg: Reg, lane: usize, v: Value) {
        self.values[reg.index()][lane] = v;
    }

    /// Writes `row[lane]` into `reg` for every lane set in `mask`,
    /// leaving the other lanes as they were.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range.
    #[inline]
    pub(crate) fn write_masked(&mut self, reg: Reg, mask: u32, row: &[Value; WARP_SIZE]) {
        let dst = &mut self.values[reg.index()];
        if mask == u32::MAX {
            *dst = *row;
            return;
        }
        for (lane, (d, &v)) in dst.iter_mut().zip(row).enumerate() {
            if mask & (1 << lane) != 0 {
                *d = v;
            }
        }
    }

    /// XORs `mask` into `reg` of `lane` — the fault injector's bit-flip
    /// primitive (models a particle strike corrupting a pipeline write).
    pub fn corrupt(&mut self, reg: Reg, lane: usize, mask: u64) {
        self.values[reg.index()][lane] ^= mask;
    }

    /// Cycle from which `reg` has no pending write: it is ready at
    /// every `now >= ready_at(reg)` (`u64::MAX` while a memory load is
    /// in flight).
    #[inline]
    pub fn ready_at(&self, reg: Reg) -> u64 {
        self.ready_at[reg.index()]
    }

    /// Marks `reg` pending until `cycle` (use `u64::MAX` for in-flight
    /// memory loads completed via [`WarpRegFile::complete`]).
    #[inline]
    pub fn set_pending(&mut self, reg: Reg, cycle: u64) {
        self.ready_at[reg.index()] = cycle;
    }

    /// Completes an in-flight write to `reg` at `cycle`.
    #[inline]
    pub fn complete(&mut self, reg: Reg, cycle: u64) {
        self.ready_at[reg.index()] = cycle;
    }

    /// Clears all pending writes (pipeline flush on error recovery).
    pub fn flush_pending(&mut self) {
        self.ready_at.fill(0);
    }

    /// Zeroes values and scoreboard (warp slot reuse).
    pub fn reset(&mut self) {
        self.values.fill([0; WARP_SIZE]);
        self.ready_at.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut rf = WarpRegFile::new(8);
        rf.write(Reg(3), 17, 0xDEAD);
        assert_eq!(rf.read(Reg(3), 17), 0xDEAD);
        assert_eq!(rf.read(Reg(3), 16), 0);
        assert_eq!(rf.regs_per_thread(), 8);
    }

    #[test]
    fn corrupt_flips_bits() {
        let mut rf = WarpRegFile::new(2);
        rf.write(Reg(1), 0, 0b1010);
        rf.corrupt(Reg(1), 0, 0b0110);
        assert_eq!(rf.read(Reg(1), 0), 0b1100);
    }

    #[test]
    fn rows_and_masked_stores() {
        let mut rf = WarpRegFile::new(2);
        rf.write(Reg(1), 4, 9);
        assert_eq!(rf.row(Reg(1))[4], 9);
        assert_eq!(rf.nonzero_lanes(Reg(1)), 1 << 4);
        let ones = [1; WARP_SIZE];
        rf.write_masked(Reg(1), 0b1010, &ones);
        assert_eq!(rf.nonzero_lanes(Reg(1)), 0b1_1010);
        assert_eq!(rf.read(Reg(1), 4), 9, "unmasked lane kept");
        rf.write_masked(Reg(0), u32::MAX, &ones);
        assert_eq!(rf.row(Reg(0)), &ones);
        assert_eq!(rf.nonzero_lanes(Reg(0)), u32::MAX);
    }

    #[test]
    fn ready_at_tracks_timed_and_untimed_writes() {
        let mut rf = WarpRegFile::new(4);
        assert_eq!(rf.ready_at(Reg(0)), 0);
        rf.set_pending(Reg(0), 10);
        rf.set_pending(Reg(1), 7);
        rf.set_pending(Reg(2), u64::MAX); // in-flight load: no timed completion
        assert_eq!(rf.ready_at(Reg(0)), 10);
        assert_eq!(rf.ready_at(Reg(1)), 7);
        assert_eq!(rf.ready_at(Reg(2)), u64::MAX);
        rf.complete(Reg(2), 42);
        assert_eq!(rf.ready_at(Reg(2)), 42);
    }

    #[test]
    fn scoreboard_pending_and_complete() {
        let mut rf = WarpRegFile::new(4);
        let ready = |rf: &WarpRegFile, r: u16, now: u64| rf.ready_at(Reg(r)) <= now;
        assert!(ready(&rf, 0, 0));
        rf.set_pending(Reg(0), 10);
        assert!(!ready(&rf, 0, 9));
        assert!(ready(&rf, 0, 10));
        rf.set_pending(Reg(1), u64::MAX);
        assert!(!ready(&rf, 1, 1_000_000));
        rf.complete(Reg(1), 42);
        assert!(ready(&rf, 1, 42));
        rf.set_pending(Reg(2), u64::MAX);
        rf.flush_pending();
        assert!(ready(&rf, 2, 0));
    }
}
