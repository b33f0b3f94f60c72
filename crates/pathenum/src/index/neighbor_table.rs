//! The distance-bucketed neighbor table (`H` of Algorithm 3, Figure 4b).
//!
//! For each indexed vertex the table stores its admissible neighbors sorted
//! ascending by a *key distance*, plus `k + 1` offset slots that count how
//! many neighbors have key distance `<= d`. The lookup `I_t(v, b)` is then
//! an O(1) slice.
//!
//! Algorithm 3 fills two of these: `I_t` (out-neighbors keyed by
//! distance-to-`t`) and `I_s` (in-neighbors keyed by distance-from-`s`).
//! An [`Index`](super::Index) builds and holds only `I_t`, which is all an
//! enumerator or the estimator reads. `I_s` lists the same admissible
//! edges from their other end, so it is `I_t`
//! [`transposed`](NeighborTable::transposed) and re-keyed — derived on
//! demand, for the Figure 9 spectrum's left extensions, by
//! [`Index::backward_table`](super::Index::backward_table).

use pathenum_graph::types::Distance;

/// Local (index-internal) vertex id. Dense over the indexed vertex set.
pub type LocalId = u32;

/// Immutable neighbor table over local ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborTable {
    k: u32,
    /// Flat neighbor storage, grouped by owner, sorted by key distance.
    neighbors: Vec<LocalId>,
    /// Per-owner start position into `neighbors`; length `num_vertices+1`.
    starts: Vec<u32>,
    /// Per-owner cumulative counts: `cuts[owner * (k + 1) + d]` = number of
    /// neighbors of `owner` whose key distance is `<= d`.
    cuts: Vec<u32>,
}

impl NeighborTable {
    /// Builds the table from per-vertex `(neighbor, key_distance)` lists,
    /// in any order within a list.
    ///
    /// Convenience form of [`from_rows`](Self::from_rows) for unit tests:
    /// the lists are flattened and each row sorted by id first.
    #[cfg(test)]
    pub fn build(k: u32, per_vertex: &[Vec<(LocalId, Distance)>]) -> Self {
        let mut rows = Vec::with_capacity(per_vertex.iter().map(Vec::len).sum());
        let mut row_starts = Vec::with_capacity(per_vertex.len() + 1);
        for list in per_vertex {
            let start = rows.len();
            row_starts.push(start as u32);
            rows.extend_from_slice(list);
            rows[start..].sort_unstable_by_key(|&(id, _)| id);
        }
        row_starts.push(rows.len() as u32);
        NeighborTable::from_rows(k, &rows, &row_starts)
    }

    /// Builds the table from one flat buffer of `(neighbor, key_distance)`
    /// entries: owner `v`'s row is `rows[row_starts[v]..row_starts[v + 1]]`
    /// and must be ascending by neighbor id (`row_starts` has one entry
    /// per owner plus the end). Key distances must be `<= k`: the index
    /// never stores a neighbor whose distance exceeds the budget any
    /// search could grant it.
    ///
    /// Each row is placed by a stable counting sort on the key distance —
    /// count into the row's `cuts`, prefix-sum, place — which on an
    /// id-ascending row yields `(distance, id)` order and leaves `cuts`
    /// holding the cumulative counts.
    pub fn from_rows(k: u32, rows: &[(LocalId, Distance)], row_starts: &[u32]) -> Self {
        let slots = (k + 1) as usize;
        let num_vertices = row_starts.len() - 1;
        let mut neighbors = vec![0 as LocalId; rows.len()];
        let mut cuts = vec![0u32; num_vertices * slots];
        for (owner, cut) in cuts.chunks_exact_mut(slots).enumerate() {
            let (start, end) = (row_starts[owner] as usize, row_starts[owner + 1] as usize);
            place_row(&rows[start..end], &mut neighbors[start..end], cut);
        }
        NeighborTable {
            k,
            neighbors,
            starts: row_starts.to_vec(),
            cuts,
        }
    }

    /// The same pairs listed from their other end: owner `w`'s row holds
    /// every `v` whose row here contains `w`, keyed by `key[v]`. Requires
    /// a table over its own owners (every stored neighbor is an owner),
    /// as an index's is.
    ///
    /// Owners are visited ascending, so each transposed row is collected
    /// ascending by id and [`from_rows`](Self::from_rows) places it in
    /// `(distance, id)` order — on `I_t` keyed by `dist_s`, exactly the
    /// `I_s` a scan of the in-adjacency fills, with `t`'s `(t, t)` padding
    /// loop at its id position.
    pub(crate) fn transposed(&self, key: &[Distance]) -> NeighborTable {
        let num_vertices = self.num_vertices();
        let mut row_starts = vec![0u32; num_vertices + 1];
        for &w in &self.neighbors {
            row_starts[w as usize + 1] += 1;
        }
        for v in 0..num_vertices {
            row_starts[v + 1] += row_starts[v];
        }
        let mut cursors = row_starts[..num_vertices].to_vec();
        let mut rows = vec![(0 as LocalId, 0 as Distance); self.neighbors.len()];
        for v in 0..num_vertices as LocalId {
            for &w in self.all_neighbors(v) {
                let cursor = &mut cursors[w as usize];
                rows[*cursor as usize] = (v, key[v as usize]);
                *cursor += 1;
            }
        }
        NeighborTable::from_rows(self.k, &rows, &row_starts)
    }

    /// Neighbors of `owner` whose key distance is `<= budget`
    /// (the `I_t(v, b)` / `I_s(v, b)` lookup). O(1).
    #[inline]
    pub fn neighbors_within(&self, owner: LocalId, budget: Distance) -> &[LocalId] {
        let (start, len) = self.row_range(owner, budget);
        &self.neighbors[start as usize..start as usize + len as usize]
    }

    /// `(start, len)` of the [`neighbors_within`](Self::neighbors_within)
    /// slice inside [`raw_neighbors`](Self::raw_neighbors) — lets a hot
    /// loop resolve the `starts`/`cuts` indirection once per vertex and
    /// carry the row as two integers.
    #[inline]
    pub fn row_range(&self, owner: LocalId, budget: Distance) -> (u32, u32) {
        let start = self.starts[owner as usize];
        let d = budget.min(self.k) as usize;
        let len = self.cuts[owner as usize * (self.k as usize + 1) + d];
        (start, len)
    }

    /// The flat neighbor storage that [`row_range`](Self::row_range)
    /// indexes into.
    #[inline]
    pub fn raw_neighbors(&self) -> &[LocalId] {
        &self.neighbors
    }

    /// All stored neighbors of `owner` (budget `k`).
    #[inline]
    pub fn all_neighbors(&self, owner: LocalId) -> &[LocalId] {
        self.neighbors_within(owner, self.k)
    }

    /// Number of stored (vertex, neighbor) pairs.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }

    /// Number of owner vertices.
    pub fn num_vertices(&self) -> usize {
        self.starts.len() - 1
    }

    /// Approximate heap footprint in bytes (Table 7's index memory).
    pub fn heap_bytes(&self) -> usize {
        self.neighbors.len() * std::mem::size_of::<LocalId>()
            + self.starts.len() * std::mem::size_of::<u32>()
            + self.cuts.len() * std::mem::size_of::<u32>()
    }
}

/// Places one id-ascending row by a stable counting sort on the key
/// distance: `placed` (the row's length) receives the ids in
/// `(distance, id)` order, and `cut` (`k + 1` slots, whatever they held)
/// the number of entries with key distance `<= d` for each `d`. The one
/// placement routine behind every row a table or an on-demand row source
/// holds.
pub(crate) fn place_row(row: &[(LocalId, Distance)], placed: &mut [LocalId], cut: &mut [u32]) {
    cut.fill(0);
    // A key distance beyond `k` indexes past the row's slots.
    for &(_, d) in row {
        cut[d as usize] += 1;
    }
    // cut[d] = entries with key distance < d: where bucket d begins.
    let mut below = 0u32;
    for c in cut.iter_mut() {
        below += std::mem::replace(c, below);
    }
    // Placing advances each bucket's cursor to its end, which is the
    // number of entries with key distance <= d.
    for &(id, d) in row {
        let cursor = &mut cut[d as usize];
        placed[*cursor as usize] = id;
        *cursor += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NeighborTable {
        // Vertex 0 has neighbors at distances 0,1,1,3; vertex 1 none;
        // vertex 2 has one at distance 2.
        NeighborTable::build(
            3,
            &[
                vec![(10, 1), (11, 0), (12, 3), (13, 1)],
                vec![],
                vec![(14, 2)],
            ],
        )
    }

    #[test]
    fn lookup_respects_budget() {
        let t = sample();
        assert_eq!(t.neighbors_within(0, 0), &[11]);
        assert_eq!(t.neighbors_within(0, 1), &[11, 10, 13]);
        assert_eq!(t.neighbors_within(0, 2), &[11, 10, 13]);
        assert_eq!(t.neighbors_within(0, 3), &[11, 10, 13, 12]);
    }

    #[test]
    fn budget_clamps_to_k() {
        let t = sample();
        assert_eq!(t.neighbors_within(0, 100), t.neighbors_within(0, 3));
    }

    #[test]
    fn empty_vertex_has_no_neighbors() {
        let t = sample();
        assert!(t.neighbors_within(1, 3).is_empty());
    }

    #[test]
    fn sizes_are_reported() {
        let t = sample();
        assert_eq!(t.num_edges(), 5);
        assert_eq!(t.num_vertices(), 3);
        assert!(t.heap_bytes() > 0);
    }

    #[test]
    fn ordering_within_distance_is_by_id() {
        let t = NeighborTable::build(2, &[vec![(9, 1), (3, 1), (5, 1)]]);
        assert_eq!(t.neighbors_within(0, 1), &[3, 5, 9]);
    }
}
