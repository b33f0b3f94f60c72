//! Per-thread enumeration arena.
//!
//! Every public enumeration kernel ([`idx_dfs_iterative`],
//! [`idx_dfs_on_demand`] and [`idx_join`]) draws its working memory — DFS
//! stacks, tuple relations, bucket directories, epoch maps, bitset rows,
//! path buffers, `I_t` rows read on demand — from one thread-local
//! [`EnumScratch`]. The buffers are epoch-reset or cleared
//! at kernel entry but never shrunk, so after a warm-up query a serving
//! thread runs the enumeration core with **zero steady-state heap
//! allocation**; [`thread_scratch_heap_bytes`] exposes the arena size so
//! tests (and `reproduce perf`) can assert exactly that.
//!
//! [`idx_dfs_iterative`]: crate::enumerate::idx_dfs_iterative
//! [`idx_dfs_on_demand`]: crate::enumerate::idx_dfs_on_demand
//! [`idx_join`]: crate::enumerate::idx_join

use std::cell::RefCell;

use super::dfs_iterative::DfsScratch;
use super::join::JoinScratch;
use crate::index::RowArena;

/// The union of every kernel's reusable buffers.
#[derive(Debug, Default)]
pub(crate) struct EnumScratch {
    pub(crate) dfs: DfsScratch,
    pub(crate) join: JoinScratch,
    /// The `I_t` rows [`idx_dfs_on_demand`] fills as it expands their
    /// owners, with the id map it fills them through.
    ///
    /// [`idx_dfs_on_demand`]: crate::enumerate::idx_dfs_on_demand
    pub(crate) rows: RowArena,
}

impl EnumScratch {
    fn heap_bytes(&self) -> usize {
        self.dfs.heap_bytes() + self.join.heap_bytes() + self.rows.heap_bytes()
    }
}

thread_local! {
    static ENUM_SCRATCH: RefCell<EnumScratch> = RefCell::new(EnumScratch::default());
}

/// Runs `f` with the calling thread's enumeration arena.
///
/// Re-entrancy (a sink that calls back into an enumeration kernel while
/// one is already borrowing the arena) falls back to a fresh, short-lived
/// scratch rather than panicking — correctness never depends on reuse.
pub(crate) fn with_enum_scratch<R>(f: impl FnOnce(&mut EnumScratch) -> R) -> R {
    ENUM_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut EnumScratch::default()),
    })
}

/// Approximate heap footprint, in bytes, of the calling thread's
/// enumeration arena. A warmed thread re-running the same query must
/// report the same value before and after — the regression test for
/// "warm serving allocates nothing in the enumeration core".
pub fn thread_scratch_heap_bytes() -> usize {
    ENUM_SCRATCH.with(|cell| {
        cell.try_borrow()
            .map(|scratch| scratch.heap_bytes())
            .unwrap_or(0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fallback_scratch_on_reentrancy() {
        let outer = with_enum_scratch(|_outer| {
            // Simulate a sink calling back into a kernel: the nested
            // borrow must not panic and must still run the closure.
            with_enum_scratch(|_inner| 7)
        });
        assert_eq!(outer, 7);
    }

    #[test]
    fn heap_bytes_is_observable_outside_a_borrow() {
        let before = thread_scratch_heap_bytes();
        // Not borrowed here, so the probe must succeed (not return the
        // 0 fallback) and be stable.
        assert_eq!(before, thread_scratch_heap_bytes());
    }
}
