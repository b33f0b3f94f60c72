//! IDX-JOIN: two-sided evaluation with a hash join (Algorithm 6).
//!
//! Two implementations live here, pinned byte-identical to each other
//! (same emission order, same [`Counters`]) by this module's tests and
//! the `kernel_agreement` differential suite:
//!
//! * [`idx_join_reference`] — the retained naive oracle: per-call
//!   `FxHashMap` buckets, a materialized `combined` tuple per joined
//!   pair, and the `O(len^2)` `valid_path_len` scan on every one.
//! * [`idx_join`] — the production kernel. Suffix tuples are grouped
//!   into *contiguous row ranges* of `R_b` (they are enumerated
//!   key-by-key, so no hash map is needed — an epoch-stamped key→range
//!   map suffices), validity is decomposed into per-prefix and
//!   per-suffix metadata computed once, and the remaining cross
//!   (prefix ∩ suffix-interior) disjointness check probes the suffix's
//!   interior against the prefix's epoch-stamp marks. All working memory
//!   comes from a reusable `JoinScratch` arena, so a warm query
//!   allocates nothing.
//!
//! When the sink counts only ([`PathSink::counts_only`]), step 3 of
//! [`idx_join`] neither assembles nor emits a valid joined pair: it counts
//! the prefix's valid pairs and hands them to the sink with one
//! [`PathSink::emit_count`] after the prefix's last row. Validity, the
//! probes and every counter are those of the per-path run.

use pathenum_graph::epoch::{EpochMap, EpochStamps};
use pathenum_graph::hashing::FxHashMap;
use pathenum_graph::VertexId;

use crate::index::{Index, LocalId};
use crate::sink::{PathSink, SearchControl};
use crate::stats::Counters;

/// Evaluates the query by cutting the chain join at position `cut` (`i*`):
///
/// 1. enumerate `R_a`, the tuples of `Q[0 : i*]` (walk prefixes of `i*+1`
///    vertices starting at `s`), by DFS on the index;
/// 2. enumerate `R_b`, the tuples of `Q[i* : k]` (walk suffixes of
///    `k-i*+1` vertices ending at `t`), by DFS from each join-key vertex;
/// 3. join on the shared position and emit every joined tuple that is a
///    valid simple path once its `t`-padding is stripped.
///
/// Walks that reach `t` early are padded with the `(t, t)` self-loop the
/// index provides, exactly as in the join model of Section 3.1.
///
/// Uses the calling thread's enumeration arena (see
/// [`crate::enumerate::thread_scratch_heap_bytes`]); emission order and
/// counters are identical to [`idx_join_reference`].
///
/// `cut` must satisfy `0 < cut < k`.
pub fn idx_join(
    index: &Index,
    cut: u32,
    sink: &mut dyn PathSink,
    counters: &mut Counters,
) -> SearchControl {
    super::scratch::with_enum_scratch(|scratch| {
        idx_join_with_scratch(index, cut, sink, counters, &mut scratch.join)
    })
}

/// Reusable working memory for [`idx_join`]: both tuple relations, the
/// key/bucket directory, per-suffix validity metadata, and the prefix's
/// vertex marks. Held per thread (see
/// [`crate::enumerate::scratch`]) so warm serving does zero steady-state
/// allocation in the join.
#[derive(Debug)]
pub(crate) struct JoinScratch {
    r_a: TupleBuffer,
    r_b: TupleBuffer,
    /// DFS stack buffer for [`enumerate_side`].
    side_stack: Vec<LocalId>,
    /// Distinct join keys in first-appearance order.
    keys: Vec<LocalId>,
    key_seen: EpochStamps,
    /// Join key -> position in `buckets`.
    slot_of: EpochMap,
    /// Per key: the contiguous `[start, end)` row range of `R_b`.
    buckets: Vec<(u32, u32)>,
    /// Per `R_b` row: position of the first `t` (`u32::MAX` if none).
    suffix_first_t: Vec<u32>,
    /// Per `R_b` row: whether the interior vertices repeat among
    /// themselves (such a row can never join validly).
    suffix_selfdup: Vec<bool>,
    /// The current prefix's vertex set as epoch marks.
    on_prefix: EpochStamps,
    /// Global-id emission buffer.
    path: Vec<VertexId>,
}

impl Default for JoinScratch {
    fn default() -> Self {
        // alloc: scratch — empty arenas built once per worker; every hot
        // loop reuses them via clear()/reset() without reallocating.
        JoinScratch {
            r_a: TupleBuffer::new(0),
            r_b: TupleBuffer::new(0),
            side_stack: Vec::new(),
            keys: Vec::new(),
            key_seen: EpochStamps::default(),
            slot_of: EpochMap::new(u32::MAX),
            buckets: Vec::new(),
            suffix_first_t: Vec::new(),
            suffix_selfdup: Vec::new(),
            on_prefix: EpochStamps::default(),
            path: Vec::new(),
        }
    }
}

impl JoinScratch {
    /// Approximate heap footprint of the arena in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.r_a.heap_bytes()
            + self.r_b.heap_bytes()
            + (self.side_stack.capacity() + self.keys.capacity()) * std::mem::size_of::<LocalId>()
            + self.key_seen.heap_bytes()
            + self.slot_of.heap_bytes()
            + self.buckets.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.suffix_first_t.capacity() * std::mem::size_of::<u32>()
            + self.suffix_selfdup.capacity()
            + self.on_prefix.heap_bytes()
            + self.path.capacity() * std::mem::size_of::<VertexId>()
    }
}

/// Whether `tuple` repeats a vertex (quadratic scan; tuples are at most
/// `k+1` long).
fn has_internal_dup(tuple: &[LocalId]) -> bool {
    for i in 0..tuple.len() {
        for j in (i + 1)..tuple.len() {
            if tuple[i] == tuple[j] {
                return true;
            }
        }
    }
    false
}

/// [`idx_join`] against caller-owned scratch. See the
/// [module docs](self) for the decomposition.
pub(crate) fn idx_join_with_scratch(
    index: &Index,
    cut: u32,
    sink: &mut dyn PathSink,
    counters: &mut Counters,
    scratch: &mut JoinScratch,
) -> SearchControl {
    let k = index.k();
    assert!(cut > 0 && cut < k, "cut position must satisfy 0 < cut < k");
    let (Some(s_local), Some(t_local)) = (index.s_local(), index.t_local()) else {
        return SearchControl::Continue;
    };
    let n_local = index.num_vertices();
    let prefix_width = cut as usize + 1;
    let suffix_width = (k - cut) as usize + 1;
    let JoinScratch {
        r_a,
        r_b,
        side_stack,
        keys,
        key_seen,
        slot_of,
        buckets,
        suffix_first_t,
        suffix_selfdup,
        on_prefix,
        path,
    } = scratch;

    // Step 1: R_a = Q[0 : cut], walks from s with `cut` edges.
    let mut side_tick = 0u32;
    r_a.reset(prefix_width);
    if enumerate_side(
        index,
        s_local,
        0,
        cut,
        side_stack,
        r_a,
        sink,
        &mut side_tick,
        counters,
    ) == SearchControl::Stop
    {
        return SearchControl::Stop;
    }

    // Step 2: distinct join keys (first-appearance order), then
    // R_b = Q[cut : k] enumerated key by key — which makes every key's
    // rows a *contiguous range* of R_b, so the "hash join" directory is
    // just (start, end) pairs behind an epoch-stamped key→slot map.
    key_seen.reset(n_local);
    keys.clear();
    for tuple in r_a.iter() {
        let key = *tuple.last().expect("tuples are non-empty");
        if key_seen.mark(key as usize) {
            keys.push(key);
        }
    }
    r_b.reset(suffix_width);
    slot_of.reset(n_local);
    buckets.clear();
    suffix_first_t.clear();
    suffix_selfdup.clear();
    for &key in keys.iter() {
        let start = r_b.len() as u32;
        if enumerate_side(
            index,
            key,
            cut,
            k,
            side_stack,
            r_b,
            sink,
            &mut side_tick,
            counters,
        ) == SearchControl::Stop
        {
            return SearchControl::Stop;
        }
        let end = r_b.len() as u32;
        slot_of.set(key as usize, buckets.len() as u32);
        buckets.push((start, end));
        // Per-suffix validity metadata, computed once per row instead of
        // once per joined combination.
        for row in start..end {
            let suffix = r_b.get(row as usize);
            match suffix.iter().position(|&v| v == t_local) {
                None => {
                    suffix_first_t.push(u32::MAX);
                    suffix_selfdup.push(false);
                }
                Some(ft) => {
                    suffix_first_t.push(ft as u32);
                    suffix_selfdup.push(has_internal_dup(&suffix[1..=ft]));
                }
            }
        }
    }

    counters.peak_materialized_vertices = counters
        .peak_materialized_vertices
        .max((r_a.flat_len() + r_b.flat_len()) as u64);

    // Step 3: probe. Emission order is (prefix order) × (row order
    // within the key's range) — identical to the reference's hash-bucket
    // row lists, which were filled in R_b row order. A sink that counts
    // only gets one count per prefix instead.
    let count_only = sink.counts_only();
    let mut probe_tick = 0u32;
    for prefix in r_a.iter() {
        let key = *prefix.last().expect("tuples are non-empty");
        let slot = slot_of.get(key as usize);
        debug_assert_ne!(slot, u32::MAX, "every prefix key was enumerated");
        let (start, end) = buckets[slot as usize];
        if start == end {
            // No suffix ever materialized for this key: the reference's
            // "missing bucket" case.
            counters.invalid_partial_results += 1;
            continue;
        }
        // Per-prefix validity metadata. A prefix that reached t early is
        // all t-padding after the first t (index construction), so its
        // key is t and its single all-t suffix contributes nothing.
        let p_first_t = prefix.iter().position(|&v| v == t_local);
        let p_dup = match p_first_t {
            Some(ft) => has_internal_dup(&prefix[..=ft]),
            None => has_internal_dup(prefix),
        };
        if p_first_t.is_none() && !p_dup {
            on_prefix.reset(n_local);
            for &v in prefix {
                on_prefix.mark(v as usize);
            }
        }
        let mut counted = 0u64;
        for row in start..end {
            // Probe per joined combination: a filter sink can reject
            // every tuple, in which case `emit` never runs and this is
            // the only point where stopping rules are observed.
            if probe_tick & (super::PROBE_STRIDE - 1) == 0 && sink.probe() == SearchControl::Stop {
                return SearchControl::Stop;
            }
            probe_tick = probe_tick.wrapping_add(1);
            // (prefix length, suffix interior length) of the valid path,
            // or None.
            let valid = match p_first_t {
                Some(pft) => {
                    debug_assert_eq!(key, t_local, "t-padding forces the key to t");
                    if p_dup {
                        None
                    } else {
                        Some((pft + 1, 0usize))
                    }
                }
                None => {
                    let ft = suffix_first_t[row as usize];
                    if ft == u32::MAX || p_dup || suffix_selfdup[row as usize] {
                        None
                    } else {
                        // Interior vertices only: S[0] is the key (already
                        // in the prefix) and S[ft] is t (absent from any
                        // prefix this row can validly join).
                        let suffix = r_b.get(row as usize);
                        let clash = suffix[1..ft as usize]
                            .iter()
                            .any(|&v| on_prefix.is_marked(v as usize));
                        if clash {
                            None
                        } else {
                            Some((prefix_width, ft as usize))
                        }
                    }
                }
            };
            if let Some((plen, ft)) = valid {
                counters.results += 1;
                if count_only {
                    counted += 1;
                    continue;
                }
                path.clear();
                path.extend(prefix[..plen].iter().map(|&l| index.global(l)));
                if p_first_t.is_none() {
                    let suffix = r_b.get(row as usize);
                    path.extend(suffix[1..=ft].iter().map(|&l| index.global(l)));
                }
                if sink.emit(path) == SearchControl::Stop {
                    return SearchControl::Stop;
                }
            } else {
                counters.invalid_partial_results += 1;
            }
        }
        if counted > 0 && sink.emit_count(counted) == SearchControl::Stop {
            return SearchControl::Stop;
        }
    }
    SearchControl::Continue
}

/// The retained naive IDX-JOIN oracle: hash-map buckets, per-combination
/// tuple materialization, and the quadratic `valid_path_len` check.
/// Allocates on every call. Kept (and exercised by `reproduce perf` and
/// the differential suite) as the semantic pin for [`idx_join`].
pub fn idx_join_reference(
    index: &Index,
    cut: u32,
    sink: &mut dyn PathSink,
    counters: &mut Counters,
) -> SearchControl {
    let k = index.k();
    assert!(cut > 0 && cut < k, "cut position must satisfy 0 < cut < k");
    let (Some(s_local), Some(t_local)) = (index.s_local(), index.t_local()) else {
        return SearchControl::Continue;
    };

    let prefix_width = cut as usize + 1;
    let suffix_width = (k - cut) as usize + 1;

    // Step 1: R_a = Q[0 : cut], walks from s with `cut` edges.
    // alloc: setup — per-query scratch built before the enumeration loop
    // (this reference join is the oracle; the planned path uses
    // JoinScratch arenas).
    let mut side_tick = 0u32;
    let mut side_stack: Vec<LocalId> = Vec::new();
    let mut r_a = TupleBuffer::new(prefix_width);
    if enumerate_side(
        index,
        s_local,
        0,
        cut,
        &mut side_stack,
        &mut r_a,
        sink,
        &mut side_tick,
        counters,
    ) == SearchControl::Stop
    {
        return SearchControl::Stop;
    }

    // Step 2: distinct join keys, then R_b = Q[cut : k] from each key.
    // alloc: setup — per-query dedup table and key list, sized once
    // before the join loop runs.
    let mut seen = vec![false; index.num_vertices()];
    let mut keys: Vec<LocalId> = Vec::new();
    for tuple in r_a.iter() {
        let key = *tuple.last().expect("tuples are non-empty");
        if !seen[key as usize] {
            seen[key as usize] = true;
            keys.push(key);
        }
    }
    let mut r_b = TupleBuffer::new(suffix_width);
    for &key in &keys {
        if enumerate_side(
            index,
            key,
            cut,
            k,
            &mut side_stack,
            &mut r_b,
            sink,
            &mut side_tick,
            counters,
        ) == SearchControl::Stop
        {
            return SearchControl::Stop;
        }
    }

    counters.peak_materialized_vertices = counters
        .peak_materialized_vertices
        .max((r_a.flat_len() + r_b.flat_len()) as u64);

    // Step 3: hash join on the first suffix vertex.
    let mut buckets: FxHashMap<LocalId, Vec<u32>> = FxHashMap::default();
    for (i, tuple) in r_b.iter().enumerate() {
        buckets.entry(tuple[0]).or_default().push(i as u32);
    }

    let mut combined: Vec<LocalId> = Vec::with_capacity(k as usize + 1);
    let mut scratch: Vec<VertexId> = Vec::with_capacity(k as usize + 1);
    let mut probe_tick = 0u32;
    for prefix in r_a.iter() {
        let key = *prefix.last().expect("tuples are non-empty");
        let Some(bucket) = buckets.get(&key) else {
            counters.invalid_partial_results += 1;
            continue;
        };
        for &suffix_idx in bucket {
            // Probe per joined combination: a filter sink can reject
            // every tuple, in which case `emit` never runs and this is
            // the only point where stopping rules are observed.
            if probe_tick & (super::PROBE_STRIDE - 1) == 0 && sink.probe() == SearchControl::Stop {
                return SearchControl::Stop;
            }
            probe_tick = probe_tick.wrapping_add(1);
            let suffix = r_b.get(suffix_idx as usize);
            combined.clear();
            combined.extend_from_slice(prefix);
            combined.extend_from_slice(&suffix[1..]);
            if let Some(len) = valid_path_len(&combined, t_local) {
                counters.results += 1;
                scratch.clear();
                scratch.extend(combined[..len].iter().map(|&l| index.global(l)));
                if sink.emit(&scratch) == SearchControl::Stop {
                    return SearchControl::Stop;
                }
            } else {
                counters.invalid_partial_results += 1;
            }
        }
    }
    SearchControl::Continue
}

/// Flat storage for fixed-width tuples of local ids.
#[derive(Debug)]
struct TupleBuffer {
    width: usize,
    storage: Vec<LocalId>,
}

impl TupleBuffer {
    fn new(width: usize) -> Self {
        // alloc: scratch — an empty arena; `reset` keeps the allocation
        // across join keys, so growth amortizes to zero in steady state.
        TupleBuffer {
            width,
            storage: Vec::new(),
        }
    }

    /// Drops every tuple and adopts a (possibly different) tuple width,
    /// keeping the allocation: the arena form of `new`.
    fn reset(&mut self, width: usize) {
        self.width = width;
        self.storage.clear();
    }

    fn push(&mut self, tuple: &[LocalId]) {
        debug_assert_eq!(tuple.len(), self.width);
        self.storage.extend_from_slice(tuple);
    }

    fn len(&self) -> usize {
        self.storage.len() / self.width
    }

    /// Total vertices stored (the materialized-memory statistic).
    fn flat_len(&self) -> usize {
        self.storage.len()
    }

    fn get(&self, i: usize) -> &[LocalId] {
        &self.storage[i * self.width..(i + 1) * self.width]
    }

    fn iter(&self) -> impl Iterator<Item = &[LocalId]> {
        self.storage.chunks_exact(self.width)
    }

    /// Approximate heap footprint in bytes.
    fn heap_bytes(&self) -> usize {
        self.storage.capacity() * std::mem::size_of::<LocalId>()
    }
}

/// DFS enumerating the tuples of `Q[from : to]` that start at `root`
/// (the `Search` procedure of Algorithm 6). The sink is consulted only
/// through [`PathSink::probe`] — materialization emits nothing, but
/// deadline/cancellation rules must still be able to interrupt it.
/// `partial` is the caller-owned stack buffer (cleared on entry).
#[allow(clippy::too_many_arguments)]
fn enumerate_side(
    index: &Index,
    root: LocalId,
    from: u32,
    to: u32,
    partial: &mut Vec<LocalId>,
    out: &mut TupleBuffer,
    sink: &mut dyn PathSink,
    probe_tick: &mut u32,
    counters: &mut Counters,
) -> SearchControl {
    let k = index.k();
    let target_len = (to - from) as usize + 1;
    partial.clear();
    partial.push(root);
    side_search(
        index, k, from, target_len, partial, out, sink, probe_tick, counters,
    )
}

#[allow(clippy::too_many_arguments)]
fn side_search(
    index: &Index,
    k: u32,
    from: u32,
    target_len: usize,
    partial: &mut Vec<LocalId>,
    out: &mut TupleBuffer,
    sink: &mut dyn PathSink,
    probe_tick: &mut u32,
    counters: &mut Counters,
) -> SearchControl {
    if *probe_tick & (super::PROBE_STRIDE - 1) == 0 && sink.probe() == SearchControl::Stop {
        return SearchControl::Stop;
    }
    *probe_tick = probe_tick.wrapping_add(1);
    if partial.len() == target_len {
        out.push(partial);
        return SearchControl::Continue;
    }
    let v = *partial.last().expect("partial is non-empty");
    // Remaining distance budget: the tuple occupies absolute positions
    // `from ..`, so a vertex placed at absolute position p must satisfy
    // v'.t <= k - p. Next position p = from + partial.len().
    let budget = k - from - partial.len() as u32;
    let neighbors = index.i_t(v, budget);
    counters.edges_accessed += neighbors.len() as u64;
    for &next in neighbors {
        partial.push(next);
        counters.partial_results += 1;
        let control = side_search(
            index, k, from, target_len, partial, out, sink, probe_tick, counters,
        );
        partial.pop();
        if control == SearchControl::Stop {
            return SearchControl::Stop;
        }
    }
    SearchControl::Continue
}

/// If `tuple` (a full-width joined walk) is a valid simple s-t path after
/// stripping `t`-padding, returns the path length in vertices; else `None`.
fn valid_path_len(tuple: &[LocalId], t_local: LocalId) -> Option<usize> {
    let first_t = tuple.iter().position(|&v| v == t_local)?;
    let len = first_t + 1;
    // By index construction everything after the first t is t; the real
    // walk is tuple[..len]. It is a path iff all vertices are distinct.
    debug_assert!(tuple[len..].iter().all(|&v| v == t_local));
    for i in 0..len {
        for j in (i + 1)..len {
            if tuple[i] == tuple[j] {
                return None;
            }
        }
    }
    Some(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::dfs::idx_dfs;
    use crate::index::test_support::*;
    use crate::query::Query;
    use crate::request::ControlledSink;
    use crate::sink::{CollectingSink, CountingSink};
    use pathenum_graph::generators::{complete_digraph, erdos_renyi, power_law, PowerLawConfig};

    fn join_paths(k: u32, cut: u32) -> Vec<Vec<VertexId>> {
        let g = figure1_graph();
        let idx = Index::build(&g, Query::new(S, T, k).unwrap());
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        idx_join(&idx, cut, &mut sink, &mut counters);
        sink.sorted_paths()
    }

    fn dfs_paths(k: u32) -> Vec<Vec<VertexId>> {
        let g = figure1_graph();
        let idx = Index::build(&g, Query::new(S, T, k).unwrap());
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        idx_dfs(&idx, &mut sink, &mut counters);
        sink.sorted_paths()
    }

    #[test]
    fn join_matches_dfs_for_every_cut() {
        for k in 2..=6u32 {
            let expected = dfs_paths(k);
            for cut in 1..k {
                assert_eq!(join_paths(k, cut), expected, "k={k} cut={cut}");
            }
        }
    }

    /// The production kernel against the retained oracle: same paths in
    /// the same order, same counters — across small dense and larger
    /// sparse graphs, with one warm arena shared across every run.
    #[test]
    fn optimized_join_is_byte_identical_to_reference() {
        let graphs: Vec<(pathenum_graph::CsrGraph, u32, u32)> = vec![
            (figure1_graph(), 0, 1),
            (complete_digraph(8), 0, 7),
            (erdos_renyi(40, 240, 7), 0, 1),
            (erdos_renyi(400, 2400, 11), 0, 1),
            (power_law(PowerLawConfig::social(600, 6, 5)), 1, 9),
        ];
        let mut scratch = JoinScratch::default();
        for (g, s, t) in &graphs {
            for k in 3..=6u32 {
                for cut in 1..k {
                    let idx = Index::build(g, Query::new(*s, *t, k).unwrap());
                    let mut ref_sink = CollectingSink::default();
                    let mut ref_counters = Counters::default();
                    idx_join_reference(&idx, cut, &mut ref_sink, &mut ref_counters);
                    let mut opt_sink = CollectingSink::default();
                    let mut opt_counters = Counters::default();
                    idx_join_with_scratch(
                        &idx,
                        cut,
                        &mut opt_sink,
                        &mut opt_counters,
                        &mut scratch,
                    );
                    assert_eq!(ref_sink.paths, opt_sink.paths, "k={k} cut={cut}");
                    assert_eq!(ref_counters, opt_counters, "k={k} cut={cut}");
                }
            }
        }
    }

    #[test]
    fn padding_recovers_short_paths() {
        // k=4, cut=2: the 2-edge path (s, v0, t) must surface as the padded
        // tuple (s, v0, t, t, t).
        let paths = join_paths(4, 2);
        assert!(paths.contains(&vec![S, V[0], T]));
    }

    #[test]
    fn counters_record_materialization() {
        let g = figure1_graph();
        let idx = Index::build(&g, Query::new(S, T, 4).unwrap());
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        idx_join(&idx, 2, &mut sink, &mut counters);
        assert!(counters.peak_materialized_vertices > 0);
        assert_eq!(counters.results, 5);
    }

    #[test]
    fn early_stop_propagates() {
        let g = figure1_graph();
        let idx = Index::build(&g, Query::new(S, T, 4).unwrap());
        let mut sink = ControlledSink::new(CountingSink::default(), Some(1), None, None);
        let mut counters = Counters::default();
        let control = idx_join(&idx, 2, &mut sink, &mut counters);
        assert_eq!(control, SearchControl::Stop);
        assert_eq!(sink.emitted(), 1);
    }

    #[test]
    #[should_panic(expected = "cut position")]
    fn rejects_degenerate_cut() {
        let g = figure1_graph();
        let idx = Index::build(&g, Query::new(S, T, 4).unwrap());
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        idx_join(&idx, 0, &mut sink, &mut counters);
    }

    #[test]
    fn empty_index_is_a_no_op() {
        let g = figure1_graph();
        let idx = Index::build(&g, Query::new(T, S, 4).unwrap());
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        assert_eq!(
            idx_join(&idx, 2, &mut sink, &mut counters),
            SearchControl::Continue
        );
        assert!(sink.paths.is_empty());
    }

    #[test]
    fn tuple_buffer_roundtrip() {
        let mut buf = TupleBuffer::new(3);
        buf.push(&[1, 2, 3]);
        buf.push(&[4, 5, 6]);
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.get(1), &[4, 5, 6]);
        assert_eq!(buf.iter().count(), 2);
        buf.reset(2);
        assert_eq!(buf.len(), 0);
        buf.push(&[7, 8]);
        assert_eq!(buf.get(0), &[7, 8]);
    }

    #[test]
    fn valid_path_len_rules() {
        // t = 9. Straight path.
        assert_eq!(valid_path_len(&[0, 1, 9], 9), Some(3));
        // Padded path.
        assert_eq!(valid_path_len(&[0, 1, 9, 9, 9], 9), Some(3));
        // Duplicate vertex before padding.
        assert_eq!(valid_path_len(&[0, 1, 0, 9], 9), None);
        // Never reaches t (cannot happen by construction, but be safe).
        assert_eq!(valid_path_len(&[0, 1, 2], 9), None);
    }
}
