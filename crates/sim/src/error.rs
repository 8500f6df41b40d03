//! The experiment layer's error taxonomy.
//!
//! Every way a run can fail maps to one [`SimError`] variant, so a
//! matrix campaign distinguishes "you typo'd the profile name" from "the
//! pipeline livelocked" from "a worker panicked" — and retries only what
//! retrying can fix.

use mlpwin_ooo::{ConfigError, PipelineError};
use mlpwin_workloads::UnknownProfile;
use std::fmt;
use std::path::PathBuf;

/// Any failure the experiment layer can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The spec names a profile the registry does not know.
    UnknownProfile(UnknownProfile),
    /// The model built a configuration that failed validation.
    Config(ConfigError),
    /// The core raised a watchdog stall or deadline error mid-run.
    Pipeline(PipelineError),
    /// The run panicked (isolated by the matrix runner's `catch_unwind`).
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The results journal could not be read or written.
    Journal {
        /// The journal file involved.
        path: PathBuf,
        /// What went wrong (I/O or format detail).
        detail: String,
    },
    /// A recovery snapshot could not be used or persisted fatally.
    ///
    /// Ordinary snapshot trouble is self-healing (corrupt files are
    /// quarantined, saves degrade to warnings); this variant is reserved
    /// for failures with no fallback left.
    Snapshot {
        /// The snapshot file or directory involved.
        path: PathBuf,
        /// What went wrong.
        detail: String,
    },
    /// Another process holds the advisory lock on a campaign artifact
    /// (WAL, controller lock file) — two controllers/workers pointed at
    /// the same `results/` directory fail fast here instead of
    /// interleaving writes.
    Locked {
        /// The locked file.
        path: PathBuf,
        /// What was attempted and why it could not proceed.
        detail: String,
    },
    /// Two *different* specs produced the same FNV-1a hash: the cache
    /// or WAL refused to serve one spec's result for the other. The
    /// entry is never trusted on hash alone — full-spec verification
    /// turns a silent wrong answer into this typed error.
    HashCollision {
        /// The colliding 64-bit spec hash.
        hash: u64,
        /// The two canonical spec renderings that collided.
        detail: String,
    },
    /// The campaign control plane failed fatally: an unusable WAL, an
    /// impossible state transition, or a finalize that could not write.
    Campaign {
        /// What went wrong.
        detail: String,
    },
    /// The interval-parallel split runner hit an unstitchable state: a
    /// worker paused off its boundary, a delta underflowed, or the
    /// stitched totals failed their equality check against the final
    /// cumulative state. Deterministic — wiping the split store and
    /// re-running the sweep is the recovery path.
    Split {
        /// What went wrong.
        detail: String,
    },
}

impl SimError {
    /// Stable one-word tag for logs and the journal.
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::UnknownProfile(_) => "unknown-profile",
            SimError::Config(_) => "config",
            SimError::Pipeline(PipelineError::Stall { .. }) => "stall",
            SimError::Pipeline(PipelineError::DeadlineExceeded { .. }) => "deadline",
            SimError::Panic { .. } => "panic",
            SimError::Journal { .. } => "journal",
            SimError::Snapshot { .. } => "snapshot",
            SimError::Locked { .. } => "locked",
            SimError::HashCollision { .. } => "hash-collision",
            SimError::Campaign { .. } => "campaign",
            SimError::Split { .. } => "split",
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownProfile(e) => write!(f, "{e}"),
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimError::Pipeline(e) => write!(f, "{e}"),
            SimError::Panic { message } => write!(f, "run panicked: {message}"),
            SimError::Journal { path, detail } => {
                write!(f, "journal {}: {detail}", path.display())
            }
            SimError::Snapshot { path, detail } => {
                write!(f, "snapshot {}: {detail}", path.display())
            }
            SimError::Locked { path, detail } => {
                write!(f, "lock {}: {detail}", path.display())
            }
            SimError::HashCollision { hash, detail } => {
                write!(f, "spec-hash collision on {hash:016x}: {detail}")
            }
            SimError::Campaign { detail } => write!(f, "campaign: {detail}"),
            SimError::Split { detail } => write!(f, "interval split: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<UnknownProfile> for SimError {
    fn from(e: UnknownProfile) -> SimError {
        SimError::UnknownProfile(e)
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> SimError {
        SimError::Config(e)
    }
}

impl From<PipelineError> for SimError {
    fn from(e: PipelineError) -> SimError {
        SimError::Pipeline(e)
    }
}

/// Renders a `catch_unwind` payload into the panic message, or a
/// placeholder when the payload is not a string.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_one_word_tags() {
        let p = SimError::Panic {
            message: "boom".into(),
        };
        assert_eq!(p.kind(), "panic");
        let c = SimError::Config(ConfigError::EmptyLevels);
        assert_eq!(c.kind(), "config");
    }

    #[test]
    fn display_forwards_the_inner_error() {
        let e = SimError::from(UnknownProfile::for_name("libqantum"));
        let s = e.to_string();
        assert!(s.contains("libqantum"), "{s}");
        assert!(s.contains("libquantum"), "{s}");
    }

    #[test]
    fn panic_payloads_render() {
        let payload: Box<dyn std::any::Any + Send> = Box::new("static str");
        assert_eq!(panic_message(payload), "static str");
        let payload: Box<dyn std::any::Any + Send> = Box::new(42_u32);
        assert_eq!(panic_message(payload), "<non-string panic payload>");
    }
}
