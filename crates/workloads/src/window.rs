//! Rewindable view over a workload's instruction stream.
//!
//! The out-of-order core needs random access to the committed path near
//! the fetch frontier: after a branch-misprediction squash — or a
//! runahead-mode exit — fetch restarts at an *older* sequence number.
//! [`TraceWindow`] buffers generated instructions between the oldest
//! un-retired sequence number and the furthest point fetched, so fetch
//! can rewind freely within that window while memory stays bounded.

use crate::Workload;
use mlpwin_isa::{Instruction, SeqNum};
use std::collections::VecDeque;

/// Buffered, index-addressable view of a [`Workload`] stream.
#[derive(Debug)]
pub struct TraceWindow<W> {
    source: W,
    buf: VecDeque<Instruction>,
    base: SeqNum,
    generated: SeqNum,
}

impl<W: Workload> TraceWindow<W> {
    /// Wraps a workload.
    pub fn new(source: W) -> TraceWindow<W> {
        TraceWindow {
            source,
            buf: VecDeque::new(),
            base: 0,
            generated: 0,
        }
    }

    /// The workload's name.
    pub fn name(&self) -> &str {
        self.source.name()
    }

    /// The committed-path instruction with sequence number `seq`,
    /// generating forward as needed.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is below the retirement frontier (the caller
    /// discarded it with [`TraceWindow::retire_below`]).
    #[inline]
    pub fn get(&mut self, seq: SeqNum) -> &Instruction {
        assert!(
            seq >= self.base,
            "sequence {seq} already retired (frontier {})",
            self.base
        );
        while self.generated <= seq {
            let inst = self.source.next_inst();
            self.buf.push_back(inst);
            self.generated += 1;
        }
        &self.buf[(seq - self.base) as usize]
    }

    /// Discards buffered instructions with sequence numbers below `seq`.
    /// Calls with a `seq` at or below the current frontier are no-ops.
    #[inline]
    pub fn retire_below(&mut self, seq: SeqNum) {
        while self.base < seq && !self.buf.is_empty() {
            self.buf.pop_front();
            self.base += 1;
        }
    }

    /// The oldest sequence number still addressable.
    pub fn frontier(&self) -> SeqNum {
        self.base
    }

    /// Number of instructions currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Serializes the window's dynamic state: the buffered instructions
    /// must travel raw because the underlying source has already
    /// advanced past them and cannot regenerate backwards.
    pub fn save_state(&self, w: &mut mlpwin_isa::snap::SnapWriter) {
        w.put_u64(self.base);
        w.put_u64(self.generated);
        w.put_seq(self.buf.iter(), |w, inst| inst.encode(w));
        self.source.save_state(w);
    }

    /// Restores the state written by [`TraceWindow::save_state`].
    pub fn load_state(
        &mut self,
        r: &mut mlpwin_isa::snap::SnapReader<'_>,
    ) -> Result<(), mlpwin_isa::snap::SnapError> {
        self.base = r.get_u64()?;
        self.generated = r.get_u64()?;
        let buf = r.get_seq(Instruction::decode)?;
        if self.generated.checked_sub(self.base) != Some(buf.len() as u64) {
            return Err(mlpwin_isa::snap::SnapError::Mismatch {
                what: "trace-window buffer length",
            });
        }
        self.buf = buf.into();
        self.source.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Category, PhaseParams, ProfileParams};
    use crate::ProfileWorkload;

    fn window() -> TraceWindow<ProfileWorkload> {
        TraceWindow::new(
            ProfileWorkload::new(
                ProfileParams {
                    name: "win-test",
                    category: Category::ComputeIntensive,
                    is_fp: false,
                    phases: vec![PhaseParams::default()],
                },
                11,
            )
            .unwrap(),
        )
    }

    #[test]
    fn sequential_access_matches_direct_generation() {
        let mut w = window();
        let mut direct = ProfileWorkload::new(
            ProfileParams {
                name: "win-test",
                category: Category::ComputeIntensive,
                is_fp: false,
                phases: vec![PhaseParams::default()],
            },
            11,
        )
        .unwrap();
        for seq in 0..1000 {
            assert_eq!(*w.get(seq), direct.next_inst());
        }
    }

    #[test]
    fn rewind_within_window_replays_identically() {
        let mut w = window();
        let snapshot: Vec<Instruction> = (0..200).map(|s| w.get(s).clone()).collect();
        // Fetch far ahead, then rewind.
        let _ = w.get(5000);
        for (seq, expect) in snapshot.iter().enumerate() {
            assert_eq!(w.get(seq as SeqNum), expect);
        }
    }

    #[test]
    fn retire_frees_memory_and_blocks_stale_access() {
        let mut w = window();
        let _ = w.get(999);
        assert_eq!(w.buffered(), 1000);
        w.retire_below(500);
        assert_eq!(w.frontier(), 500);
        assert_eq!(w.buffered(), 500);
        // Access at the frontier still works.
        let _ = w.get(500);
    }

    #[test]
    #[should_panic(expected = "already retired")]
    fn stale_access_panics() {
        let mut w = window();
        let _ = w.get(100);
        w.retire_below(50);
        let _ = w.get(49);
    }

    #[test]
    fn retire_beyond_generated_is_bounded() {
        let mut w = window();
        let _ = w.get(9);
        w.retire_below(1000);
        // Only generated instructions can be discarded.
        assert_eq!(w.buffered(), 0);
        assert_eq!(w.frontier(), 10);
    }

    #[test]
    fn restore_rejects_generated_below_base() {
        let mut w = window();
        let _ = w.get(9);
        w.retire_below(5);
        let mut image = mlpwin_isa::snap::SnapWriter::with_capacity(256);
        w.save_state(&mut image);
        let mut bytes = image.into_bytes();
        // `generated` (bytes 8..16) drops below `base` (5).
        bytes[8..16].copy_from_slice(&2u64.to_le_bytes());
        let mut fresh = window();
        let err = fresh
            .load_state(&mut mlpwin_isa::snap::SnapReader::new(&bytes))
            .expect_err("generated < base must be refused");
        assert_eq!(
            err,
            mlpwin_isa::snap::SnapError::Mismatch {
                what: "trace-window buffer length"
            }
        );
    }
}
