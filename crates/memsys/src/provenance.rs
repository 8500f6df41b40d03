//! Line-provenance tracking for the cache-pollution analysis (Fig. 11).
//!
//! Every line brought into the L2 is classified by *who* requested it
//! (a correct-path demand access, a wrong-path demand access, or the
//! prefetcher) and, at accounting time, by whether a correct-path access
//! ever *touched* it. The paper's Fig. 11 breaks the lines brought into
//! the L2 into these six classes to show that deep speculation pollutes
//! the cache only marginally.

/// Whether an access originates from the committed (correct) control-flow
/// path or from wrong-path execution after a branch misprediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathKind {
    /// Access made by an instruction that will commit.
    Correct,
    /// Access made by a wrong-path instruction that will be squashed.
    Wrong,
}

/// Who caused a line to be brought into the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// Demand access on the correct path.
    DemandCorrect,
    /// Demand access on a mispredicted (wrong) path.
    DemandWrong,
    /// Hardware prefetcher.
    Prefetch,
}

impl Provenance {
    /// Builds demand provenance from a path kind.
    pub fn demand(path: PathKind) -> Provenance {
        match path {
            PathKind::Correct => Provenance::DemandCorrect,
            PathKind::Wrong => Provenance::DemandWrong,
        }
    }

    /// Stable snapshot tag.
    pub fn tag(self) -> u8 {
        match self {
            Provenance::DemandCorrect => 0,
            Provenance::DemandWrong => 1,
            Provenance::Prefetch => 2,
        }
    }

    /// Decodes a snapshot tag written by [`Provenance::tag`].
    pub fn from_tag(
        r: &mut mlpwin_isa::snap::SnapReader<'_>,
    ) -> Result<Provenance, mlpwin_isa::snap::SnapError> {
        let offset = r.offset();
        match r.get_u8()? {
            0 => Ok(Provenance::DemandCorrect),
            1 => Ok(Provenance::DemandWrong),
            2 => Ok(Provenance::Prefetch),
            tag => Err(mlpwin_isa::snap::SnapError::BadTag {
                offset,
                tag,
                what: "provenance",
            }),
        }
    }
}

/// One of the six Fig. 11 classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineClass {
    /// Who brought the line in.
    pub provenance: Provenance,
    /// Whether a correct-path access touched it while resident.
    pub useful: bool,
}

mlpwin_isa::counters! {
    /// Aggregated Fig. 11 counters: lines brought into the L2 by class.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ProvenanceStats {
        /// Correct-path demand fills later touched by the correct path (the
        /// demand access itself counts as a touch).
        pub corrpath_useful: u64,
        /// Correct-path demand fills never touched again (possible when the
        /// triggering access was squashed between probe and fill accounting —
        /// rare, but tracked for completeness).
        pub corrpath_useless: u64,
        /// Wrong-path demand fills that the correct path later used.
        pub wrongpath_useful: u64,
        /// Wrong-path demand fills never used by the correct path.
        pub wrongpath_useless: u64,
        /// Prefetched lines the correct path later used.
        pub prefetch_useful: u64,
        /// Prefetched lines never used by the correct path.
        pub prefetch_useless: u64,
    }
}

impl ProvenanceStats {
    /// Records a finished line (evicted, or still resident at the end of
    /// simulation) into its class counter.
    pub fn record(&mut self, class: LineClass) {
        match (class.provenance, class.useful) {
            (Provenance::DemandCorrect, true) => self.corrpath_useful += 1,
            (Provenance::DemandCorrect, false) => self.corrpath_useless += 1,
            (Provenance::DemandWrong, true) => self.wrongpath_useful += 1,
            (Provenance::DemandWrong, false) => self.wrongpath_useless += 1,
            (Provenance::Prefetch, true) => self.prefetch_useful += 1,
            (Provenance::Prefetch, false) => self.prefetch_useless += 1,
        }
    }

    /// Total lines brought in, all classes.
    pub fn total(&self) -> u64 {
        self.corrpath_useful
            + self.corrpath_useless
            + self.wrongpath_useful
            + self.wrongpath_useless
            + self.prefetch_useful
            + self.prefetch_useless
    }

    /// Lines brought in by wrong-path demand accesses.
    pub fn wrongpath_total(&self) -> u64 {
        self.wrongpath_useful + self.wrongpath_useless
    }

    /// Lines never touched by a correct-path access.
    pub fn useless_total(&self) -> u64 {
        self.corrpath_useless + self.wrongpath_useless + self.prefetch_useless
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpwin_isa::Counters;

    #[test]
    fn record_routes_to_the_right_counter() {
        let mut s = ProvenanceStats::default();
        s.record(LineClass {
            provenance: Provenance::DemandCorrect,
            useful: true,
        });
        s.record(LineClass {
            provenance: Provenance::DemandWrong,
            useful: false,
        });
        s.record(LineClass {
            provenance: Provenance::Prefetch,
            useful: true,
        });
        assert_eq!(s.corrpath_useful, 1);
        assert_eq!(s.wrongpath_useless, 1);
        assert_eq!(s.prefetch_useful, 1);
        assert_eq!(s.total(), 3);
        assert_eq!(s.useless_total(), 1);
        assert_eq!(s.wrongpath_total(), 1);
    }

    #[test]
    fn demand_provenance_from_path() {
        assert_eq!(
            Provenance::demand(PathKind::Correct),
            Provenance::DemandCorrect
        );
        assert_eq!(Provenance::demand(PathKind::Wrong), Provenance::DemandWrong);
    }

    #[test]
    fn add_counters_adds_each_class() {
        let mut a = ProvenanceStats {
            corrpath_useful: 1,
            prefetch_useless: 2,
            ..Default::default()
        };
        let b = ProvenanceStats {
            corrpath_useful: 3,
            wrongpath_useful: 4,
            ..Default::default()
        };
        a.add_counters(&b);
        assert_eq!(a.corrpath_useful, 4);
        assert_eq!(a.wrongpath_useful, 4);
        assert_eq!(a.prefetch_useless, 2);
        assert_eq!(a.total(), 10);
    }
}
