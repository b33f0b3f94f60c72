//! Epoch-stamped flat maps: O(1)-reset scratch for per-query traversals.
//!
//! The boundary BFS and the index build need several `vertex -> value`
//! maps per query. A plain `Vec` reset costs `O(|V|)` per query (a
//! `clear` + `resize` memset), which dominates small bounded traversals
//! on large graphs; a hash map avoids the reset but pays hashing and
//! pointer-chasing on every probe. An *epoch-stamped* map keeps the flat
//! `Vec` layout (one direct load per probe) while making reset O(1):
//! every slot carries the epoch in which it was last written, and a
//! "reset" just bumps the current epoch — stale slots are recognized by
//! their old stamp and read as the default value. On the (practically
//! unreachable) epoch wrap the stamps are zeroed once, keeping the
//! scheme sound over arbitrarily many queries.
//!
//! Two flavors cover the kernels' needs:
//!
//! * [`EpochMap`]: `u32 -> u32` with a configurable default, plus a
//!   *touched list* recording every written key — the index build
//!   iterates the touched set instead of scanning all of `0..|V|`.
//! * [`EpochStamps`]: membership marks only (`mark`/`unmark`/
//!   `is_marked`), for DFS on-path sets and join-key dedup.

/// A flat `u32 -> u32` map with O(1) whole-map reset and a touched-key
/// list. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct EpochMap {
    /// Current epoch; slots whose stamp differs hold no value. Starts at
    /// 0 so a freshly constructed map (all stamps 0) must be `reset`
    /// before use; [`EpochMap::reset`] never leaves it at 0 again.
    epoch: u32,
    stamps: Vec<u32>,
    values: Vec<u32>,
    touched: Vec<u32>,
    /// Value reported for unwritten keys.
    default: u32,
    /// Key-space size established by the last `reset`.
    len: usize,
}

impl EpochMap {
    /// An empty map whose unwritten keys read as `default`.
    pub fn new(default: u32) -> Self {
        EpochMap {
            default,
            ..EpochMap::default()
        }
    }

    /// Clears the map and (re)sizes the key space to `0..n`. O(1) except
    /// when growing past the previous capacity or on epoch wrap.
    pub fn reset(&mut self, n: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One full clear every 2^32 - 1 resets keeps stale stamps
            // from a previous life of the counter unreadable.
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        if n > self.stamps.len() {
            self.stamps.resize(n, 0);
            self.values.resize(n, self.default);
        }
        self.len = n;
        self.touched.clear();
    }

    /// Key-space size (`n` of the last [`EpochMap::reset`]).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Paranoid-only generation monotonicity: a slot stamped beyond the
    /// current epoch means a wrap-clear was skipped and a stale value
    /// could masquerade as current.
    #[cfg(feature = "paranoid")]
    #[inline]
    fn assert_stamp_monotone(&self, key: usize) {
        assert!(
            self.stamps[key] <= self.epoch,
            "epoch-map stamp {} at key {key} exceeds current epoch {}",
            self.stamps[key],
            self.epoch
        );
    }

    /// The value at `key`, or the default if unwritten this epoch.
    #[inline]
    pub fn get(&self, key: usize) -> u32 {
        debug_assert!(key < self.len, "key {key} out of range {}", self.len);
        #[cfg(feature = "paranoid")]
        self.assert_stamp_monotone(key);
        if self.stamps[key] == self.epoch {
            self.values[key]
        } else {
            self.default
        }
    }

    /// Whether `key` was written this epoch.
    #[inline]
    pub fn contains(&self, key: usize) -> bool {
        debug_assert!(key < self.len);
        #[cfg(feature = "paranoid")]
        self.assert_stamp_monotone(key);
        self.stamps[key] == self.epoch
    }

    /// Writes `value` at `key`, recording the key in the touched list on
    /// its first write of the epoch.
    #[inline]
    pub fn set(&mut self, key: usize, value: u32) {
        debug_assert!(key < self.len);
        #[cfg(feature = "paranoid")]
        self.assert_stamp_monotone(key);
        if self.stamps[key] != self.epoch {
            self.stamps[key] = self.epoch;
            self.touched.push(key as u32);
        }
        self.values[key] = value;
    }

    /// Every key written this epoch, in first-write order (no
    /// duplicates).
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        (self.stamps.capacity() + self.values.capacity() + self.touched.capacity())
            * std::mem::size_of::<u32>()
    }

    #[cfg(test)]
    fn force_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
    }
}

/// Membership marks with O(1) whole-set reset: the values-free sibling
/// of [`EpochMap`]. `unmark` writes stamp 0, which never equals a live
/// epoch (epochs are `>= 1` after the first reset), so marks can also be
/// retired one at a time — the DFS pops vertices off its on-path set
/// this way.
#[derive(Debug, Clone, Default)]
pub struct EpochStamps {
    epoch: u32,
    stamps: Vec<u32>,
    len: usize,
}

impl EpochStamps {
    /// Paranoid-only generation monotonicity; see
    /// [`EpochMap::assert_stamp_monotone`]'s sibling above.
    #[cfg(feature = "paranoid")]
    #[inline]
    fn assert_stamp_monotone(&self, key: usize) {
        assert!(
            self.stamps[key] <= self.epoch,
            "epoch-stamp {} at key {key} exceeds current epoch {}",
            self.stamps[key],
            self.epoch
        );
    }

    /// Clears every mark and (re)sizes the key space to `0..n`. O(1)
    /// except when growing or on epoch wrap.
    pub fn reset(&mut self, n: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        if n > self.stamps.len() {
            self.stamps.resize(n, 0);
        }
        self.len = n;
    }

    /// Marks `key`; returns `true` if it was not already marked.
    #[inline]
    pub fn mark(&mut self, key: usize) -> bool {
        debug_assert!(key < self.len);
        #[cfg(feature = "paranoid")]
        self.assert_stamp_monotone(key);
        let fresh = self.stamps[key] != self.epoch;
        self.stamps[key] = self.epoch;
        fresh
    }

    /// Removes the mark on `key` (no-op if unmarked).
    #[inline]
    pub fn unmark(&mut self, key: usize) {
        debug_assert!(key < self.len);
        self.stamps[key] = 0;
    }

    /// Whether `key` is currently marked.
    #[inline]
    pub fn is_marked(&self, key: usize) -> bool {
        debug_assert!(key < self.len);
        #[cfg(feature = "paranoid")]
        self.assert_stamp_monotone(key);
        self.stamps[key] == self.epoch
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.stamps.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_reads_default_until_written() {
        let mut m = EpochMap::new(77);
        m.reset(4);
        assert_eq!(m.get(2), 77);
        assert!(!m.contains(2));
        m.set(2, 5);
        assert_eq!(m.get(2), 5);
        assert!(m.contains(2));
        assert_eq!(m.touched(), &[2]);
    }

    #[test]
    fn reset_clears_in_constant_time() {
        let mut m = EpochMap::new(0);
        m.reset(8);
        for k in 0..8 {
            m.set(k, k as u32 + 1);
        }
        m.reset(8);
        assert!(m.touched().is_empty());
        for k in 0..8 {
            assert_eq!(m.get(k), 0, "key {k} must read default after reset");
        }
    }

    #[test]
    fn touched_records_first_writes_only() {
        let mut m = EpochMap::new(0);
        m.reset(10);
        m.set(7, 1);
        m.set(3, 1);
        m.set(7, 2);
        assert_eq!(m.touched(), &[7, 3]);
        assert_eq!(m.get(7), 2);
    }

    #[test]
    fn reset_can_grow_and_shrink_the_key_space() {
        let mut m = EpochMap::new(9);
        m.reset(2);
        m.set(1, 4);
        m.reset(6);
        assert_eq!(m.capacity(), 6);
        assert_eq!(m.get(5), 9);
        assert_eq!(m.get(1), 9);
        m.reset(3);
        assert_eq!(m.capacity(), 3);
    }

    #[test]
    fn epoch_wrap_clears_stale_stamps() {
        let mut m = EpochMap::new(0);
        m.reset(4);
        m.set(1, 42);
        // Force the counter to the wrap boundary: the next reset must
        // not let the stale stamp at key 1 masquerade as current.
        m.force_epoch(u32::MAX);
        m.reset(4);
        assert_eq!(m.get(1), 0);
        m.set(2, 7);
        assert_eq!(m.get(2), 7);
    }

    #[test]
    fn stamps_mark_unmark_roundtrip() {
        let mut s = EpochStamps::default();
        s.reset(5);
        assert!(s.mark(3));
        assert!(!s.mark(3));
        assert!(s.is_marked(3));
        s.unmark(3);
        assert!(!s.is_marked(3));
        assert!(s.mark(3));
        s.reset(5);
        assert!(!s.is_marked(3));
    }

    #[test]
    fn heap_bytes_reported() {
        let mut m = EpochMap::new(0);
        m.reset(100);
        assert!(m.heap_bytes() >= 800);
        let mut s = EpochStamps::default();
        s.reset(100);
        assert!(s.heap_bytes() >= 400);
    }
}
