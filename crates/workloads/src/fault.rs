//! Fault injection for testing the experiment harness itself.
//!
//! A [`FaultyWorkload`] wraps any workload and deliberately panics when
//! the stream reaches a chosen instruction, simulating the workload- or
//! model-level crashes a long experiment campaign must survive. The
//! matrix runner's panic isolation (`catch_unwind` per run) is tested
//! against exactly this wrapper.
//!
//! Livelock injection lives in the core instead
//! (`mlpwin_ooo::CoreConfig::freeze_commit_after`): a correct
//! out-of-order core cannot be livelocked by any well-formed instruction
//! stream — every instruction completes in bounded time — so a livelock
//! can only be simulated by freezing the commit stage the way a real
//! modelling bug would.

use crate::Workload;
use mlpwin_isa::Instruction;

/// A workload that panics once it has produced a chosen number of
/// instructions. Test-only by intent; deterministic like every workload.
#[derive(Debug, Clone)]
pub struct FaultyWorkload<W> {
    inner: W,
    panic_at: u64,
    produced: u64,
}

impl<W: Workload> FaultyWorkload<W> {
    /// Wraps `inner` so that producing instruction number `panic_at`
    /// (0-based, counted across warm-up and measurement alike — the
    /// front end fetches ahead of commit, so the panic lands near but
    /// not exactly at that committed instruction) panics.
    pub fn panic_at(inner: W, panic_at: u64) -> FaultyWorkload<W> {
        FaultyWorkload {
            inner,
            panic_at,
            produced: 0,
        }
    }

    /// Instructions produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }
}

impl<W: Workload> Workload for FaultyWorkload<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_inst(&mut self) -> Instruction {
        if self.produced >= self.panic_at {
            panic!(
                "injected workload fault: panic at instruction {} of `{}`",
                self.panic_at,
                self.inner.name()
            );
        }
        self.produced += 1;
        self.inner.next_inst()
    }

    fn save_state(&self, w: &mut mlpwin_isa::snap::SnapWriter) {
        // `produced` travels so the countdown resumes where it left off
        // and an injected fault re-fires at the same instruction.
        w.put_u64(self.produced);
        self.inner.save_state(w);
    }

    fn load_state(
        &mut self,
        r: &mut mlpwin_isa::snap::SnapReader<'_>,
    ) -> Result<(), mlpwin_isa::snap::SnapError> {
        self.produced = r.get_u64()?;
        self.inner.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn passes_through_until_the_chosen_instruction() {
        let inner = profiles::by_name("gcc", 1).expect("profile");
        let mut reference = profiles::by_name("gcc", 1).expect("profile");
        let mut faulty = FaultyWorkload::panic_at(inner, 100);
        for _ in 0..100 {
            assert_eq!(faulty.next_inst(), reference.next_inst());
        }
        assert_eq!(faulty.produced(), 100);
    }

    #[test]
    fn panics_exactly_at_the_chosen_instruction() {
        let inner = profiles::by_name("gcc", 1).expect("profile");
        let mut faulty = FaultyWorkload::panic_at(inner, 3);
        for _ in 0..3 {
            let _ = faulty.next_inst();
        }
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            faulty.next_inst();
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("injected workload fault"), "{msg}");
        assert!(msg.contains("gcc"), "{msg}");
    }
}
