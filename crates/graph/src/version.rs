//! Monotonic graph-version epochs.
//!
//! Per-query state cached *outside* a graph (the plan/index cache of
//! `pathenum::plan`) must be discarded when the graph it was computed
//! against changes. A [`GraphVersion`] is a process-wide monotonic epoch:
//! every freshly constructed [`CsrGraph`](crate::CsrGraph) draws a new
//! one, and a [`DynamicGraph`](crate::DynamicGraph) advances to a new one
//! on every successful mutation (edge insert or delete). Two graph values
//! carry the same version only when they are known to have identical
//! edge sets — a clone, or overlay snapshots taken with no mutation in
//! between — so `version` equality is a sound cache-freshness check.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic epoch identifying one immutable state of a graph.
///
/// Versions are only meaningful within one process (they come from a
/// process-global counter) and are never reused; serialized graphs get a
/// fresh version on load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphVersion(u64);

/// 0 is reserved so a default/sentinel can never collide with a real
/// version.
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

impl GraphVersion {
    /// Draws the next unused epoch from the process-global counter.
    pub fn next() -> Self {
        // ordering: uniqueness only — the RMW total order on this one
        // location guarantees distinct values; nothing else is published.
        GraphVersion(NEXT_VERSION.fetch_add(1, Ordering::Relaxed))
    }
}

impl std::fmt::Display for GraphVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_are_unique_and_increasing() {
        let a = GraphVersion::next();
        let b = GraphVersion::next();
        assert!(a < b);
        assert_ne!(a, b);
    }

    #[test]
    fn version_displays_compactly() {
        let shown = GraphVersion::next().to_string();
        let epoch: u64 = shown.strip_prefix('v').unwrap().parse().unwrap();
        assert!(epoch >= 1, "epoch 0 is reserved, got {shown}");
    }
}
