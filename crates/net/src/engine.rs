//! The engine selector that survives the single engine.
//!
//! The simulation has one engine: every operation runs inline, in
//! submission order, on the shared virtual clock. [`EngineKind`] remains
//! only because the wall-clock benchmark's layer probe still names both
//! variants (`benchmark/src/bin/lprobe.rs`); it selects nothing, and goes
//! when the probe stops naming it.

/// Which simulation engine drives a cluster. Kept only for the
/// benchmark's layer probe until it stops naming it: every cluster runs
/// the sequential engine whatever is selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// One thread, operations executed inline in submission order.
    Sequential,
    /// Accepted for compatibility; runs exactly as [`EngineKind::Sequential`].
    ParallelEpoch,
}

impl EngineKind {
    /// Stable display name.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Sequential => "sequential",
            EngineKind::ParallelEpoch => "parallel",
        }
    }
}
