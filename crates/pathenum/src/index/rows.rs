//! Where `I_t` rows come from.
//!
//! A row is filled by one routine, [`Index::read_row`]: scan `v`'s
//! out-adjacency once, admit `n` by Algorithm 3's test, and hand the
//! id-ascending row to [`place_row`]'s counting sort. Three callers share
//! it: the eager build (every row of `X`, then
//! [`NeighborTable::from_rows`]), [`Index::fill_rows`] (which completes a
//! labels-only index the same way), and [`OnDemandRows`], which fills a
//! row the first time IDX-DFS expands its owner. All three therefore
//! produce the same row for the same vertex, entry for entry and in the
//! same `(distance, id)` order.
//!
//! IDX-DFS reads its rows through [`RowSource`], implemented by a filled
//! [`NeighborTable`] and by [`OnDemandRows`], so the one kernel
//! (`enumerate::dfs_iterative`) serves both and its paths, counters and
//! termination cannot tell them apart.

use pathenum_graph::epoch::EpochMap;
use pathenum_graph::types::{dist_add, Distance};
use pathenum_graph::{NeighborAccess, VertexId};

use super::neighbor_table::{place_row, LocalId, NeighborTable};
use super::Index;
use crate::query::Query;

/// What a `global -> local` map reads for a vertex outside `X`.
pub(crate) const ABSENT: u32 = u32::MAX;

/// An [`OnDemandRows`] row start that has not been filled yet.
const UNFILLED: u32 = u32::MAX;

/// Maps `vertices[i]` to local id `i` in `local_of`, a map over a graph
/// of `num_vertices` vertices, forgetting its previous contents.
pub(crate) fn assign_local_ids(
    local_of: &mut EpochMap,
    num_vertices: usize,
    vertices: &[VertexId],
) {
    local_of.reset(num_vertices);
    for (local, &v) in vertices.iter().enumerate() {
        local_of.set(v as usize, local as u32);
    }
}

impl Index {
    /// Pushes the entries of `v`'s forward row — every admissible
    /// out-neighbor as `(local id, distance-to-t)`, ascending by id — onto
    /// `row`. `local_of` maps each member of `X` to its local id (see
    /// [`assign_local_ids`]) and reads [`ABSENT`] elsewhere; `v` must be a
    /// local id of a non-empty index.
    ///
    /// A neighbor outside `X` is never admitted: an edge `v -> n` puts
    /// `n.s <= v.s + 1`, so `v.s + n.t + 1 <= k` would place `n` in `X`.
    /// On members the test reads the index's exact labels, so the row is
    /// the one Algorithm 3 fills from full distance maps.
    pub(crate) fn read_row<G: NeighborAccess>(
        &self,
        graph: &G,
        local_of: &EpochMap,
        v: LocalId,
        row: &mut Vec<(LocalId, Distance)>,
    ) {
        let Query { s, t, k } = self.query;
        let gv = self.vertices[v as usize];
        if gv == t {
            // t keeps only the (t, t) padding loop.
            row.push((v, 0));
            return;
        }
        let vs = self.dist_s[v as usize];
        let dist_t = &self.dist_t[..];
        graph.for_each_out(gv, |n| {
            if n == s {
                return; // interior vertices are never s
            }
            let n_local = local_of.get(n as usize);
            if n_local == ABSENT {
                return;
            }
            let nt = dist_t[n_local as usize];
            // Admission: v.s + v'.t + 1 <= k (Algorithm 3 line 9).
            if dist_add(dist_add(vs, nt), 1) <= k {
                row.push((n_local, nt));
            }
        });
    }
}

/// Where IDX-DFS reads `I_t` rows from: `row(v, b)` is `I_t(v, b)` as
/// `(start, len)` inside [`neighbors`](Self::neighbors), valid until the
/// next `row` call.
pub(crate) trait RowSource {
    /// `I_t(v, budget)`, filling `v`'s row first if the source has not
    /// yet.
    fn row(&mut self, v: LocalId, budget: Distance) -> (u32, u32);

    /// The flat storage [`row`](Self::row) ranges index into.
    fn neighbors(&self) -> &[LocalId];
}

/// A filled index's table: every row is already there.
impl RowSource for &NeighborTable {
    #[inline]
    fn row(&mut self, v: LocalId, budget: Distance) -> (u32, u32) {
        self.row_range(v, budget)
    }

    #[inline]
    fn neighbors(&self) -> &[LocalId] {
        self.raw_neighbors()
    }
}

/// The reusable buffers of [`OnDemandRows`], kept in the per-thread
/// enumeration arena so a warm thread fills rows without allocating.
#[derive(Debug, Clone)]
pub(crate) struct RowArena {
    /// Global -> local ids of the bound index's `X`, reassigned from
    /// [`Index::vertices`] at every bind (`|X|` writes; the map itself is
    /// epoch-reset).
    local_of: EpochMap,
    /// One row as [`Index::read_row`] collects it, before placement.
    row: Vec<(LocalId, Distance)>,
    /// Per local vertex: where its placed row starts in `neighbors`, or
    /// [`UNFILLED`].
    starts: Vec<u32>,
    /// Per local vertex, `k + 1` cumulative counts (written on fill).
    cuts: Vec<u32>,
    /// The placed rows, in the order they were first read.
    neighbors: Vec<LocalId>,
}

impl Default for RowArena {
    fn default() -> Self {
        RowArena {
            local_of: EpochMap::new(ABSENT),
            row: Vec::new(),
            starts: Vec::new(),
            cuts: Vec::new(),
            neighbors: Vec::new(),
        }
    }
}

impl RowArena {
    /// Approximate heap footprint in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.local_of.heap_bytes()
            + self.row.capacity() * std::mem::size_of::<(LocalId, Distance)>()
            + (self.starts.capacity() + self.cuts.capacity() + self.neighbors.capacity())
                * std::mem::size_of::<u32>()
    }

    /// A row source over `index`'s labels on `graph`, the graph the labels
    /// were computed on. No row is filled yet.
    pub(crate) fn bind<'a, G: NeighborAccess>(
        &'a mut self,
        graph: &'a G,
        index: &'a Index,
    ) -> OnDemandRows<'a, G> {
        let members = index.num_vertices();
        assign_local_ids(&mut self.local_of, graph.num_vertices(), &index.vertices);
        self.starts.clear();
        self.starts.resize(members, UNFILLED);
        let slots = members * (index.k() as usize + 1);
        if self.cuts.len() < slots {
            self.cuts.resize(slots, 0);
        }
        self.neighbors.clear();
        OnDemandRows {
            graph,
            index,
            arena: self,
        }
    }
}

/// `I_t` read from the serving graph: the first `row(v, _)` fills `v`'s
/// row into the arena through [`Index::read_row`] and [`place_row`],
/// later ones read it back. Rows are exactly the eager table's.
pub(crate) struct OnDemandRows<'a, G> {
    graph: &'a G,
    index: &'a Index,
    arena: &'a mut RowArena,
}

impl<G: NeighborAccess> RowSource for OnDemandRows<'_, G> {
    fn row(&mut self, v: LocalId, budget: Distance) -> (u32, u32) {
        let k = self.index.k();
        let slots = k as usize + 1;
        let cut_at = v as usize * slots;
        let arena = &mut *self.arena;
        let mut start = arena.starts[v as usize];
        if start == UNFILLED {
            arena.row.clear();
            self.index
                .read_row(self.graph, &arena.local_of, v, &mut arena.row);
            start = arena.neighbors.len() as u32;
            let end = start as usize + arena.row.len();
            arena.neighbors.resize(end, 0);
            place_row(
                &arena.row,
                &mut arena.neighbors[start as usize..end],
                &mut arena.cuts[cut_at..cut_at + slots],
            );
            arena.starts[v as usize] = start;
        }
        (start, arena.cuts[cut_at + budget.min(k) as usize])
    }

    #[inline]
    fn neighbors(&self) -> &[LocalId] {
        &self.arena.neighbors
    }
}
