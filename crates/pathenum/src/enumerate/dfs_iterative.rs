//! Iterative IDX-DFS: Algorithm 4 with an explicit frame stack.
//!
//! Functionally identical to [`super::dfs::idx_dfs`] (asserted by tests
//! and the plan-agreement property suite) but without native recursion:
//! each frame holds the cursor into its `I_t` slice. Production services
//! favor this form for stack safety under adversarial `k` and because the
//! enumeration state can be suspended between emissions — the shape an
//! incremental/paginated API needs.
//!
//! The kernel reads `I_t` through a row source (`index::RowSource`), so
//! one kernel serves two indexes. [`idx_dfs_iterative`] reads the rows a
//! built [`Index`] holds. [`idx_dfs_on_demand`] runs on an index built
//! as its labels only and fills a row the first time it pushes a frame
//! for the row's owner. The fill is one scan of that vertex's
//! out-adjacency in the serving graph, Algorithm 3's admission test, and
//! the counting sort the eager build places rows with, into the
//! per-thread arena. This departs from Algorithm 3, which fills every
//! row of `X` before the search starts; a limited request then pays only
//! for the rows it expands. No answer can differ: every row is filled by
//! the routine the eager build uses, from the same labels, so it holds
//! the same neighbors in the same `(distance, id)` order, and the search
//! visits, counts and emits exactly what it would on the eager table
//! (`tests/kernel_agreement.rs` pins paths, order, counters and
//! termination at every limit). The fill runs inside the search, so a
//! request's `PhaseTimings` count it under `enumeration`, not
//! `index_build`.

use pathenum_graph::epoch::EpochStamps;
use pathenum_graph::{NeighborAccess, VertexId};

use crate::index::{Index, LocalId, RowSource};
use crate::sink::{PathSink, SearchControl};
use crate::stats::Counters;

/// One suspended search frame: the vertex at this depth and how far its
/// admissible-neighbor slice has been consumed.
#[derive(Debug, Clone, Copy)]
struct Frame {
    vertex: LocalId,
    cursor: u32,
    /// The frame's `I_t` row, resolved once at push time so re-activating
    /// the frame after a child pops costs zero index lookups (the
    /// recursive form gets this for free by keeping the slice live across
    /// the child call). Indexes into the row source's `neighbors()`.
    nbr_start: u32,
    nbr_len: u32,
    /// Whether any result was found below this frame (for the
    /// invalid-partial counter).
    found: bool,
}

/// Reusable buffers of [`idx_dfs_seeded`], so a worker that runs many
/// seeded searches back-to-back (the intra-query parallel tasks of
/// [`crate::parallel`]) allocates its stack and path scratch once.
#[derive(Debug, Default)]
pub(crate) struct SeededScratch {
    stack: Vec<Frame>,
    path: Vec<VertexId>,
    /// O(1) "is this vertex on the current path" membership, replacing a
    /// linear stack scan per candidate neighbor. Epoch-reset at the start
    /// of every seeded call, so an early `Stop` cannot leave stale marks.
    on_path: EpochStamps,
}

impl SeededScratch {
    /// Approximate heap footprint of the scratch in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.stack.capacity() * std::mem::size_of::<Frame>()
            + self.path.capacity() * std::mem::size_of::<VertexId>()
            + self.on_path.heap_bytes()
    }
}

/// Enumerates all hop-constrained s-t paths by an explicit-stack DFS on
/// the index. Emission and counter semantics match
/// [`super::dfs::idx_dfs`] exactly.
pub fn idx_dfs_iterative(
    index: &Index,
    sink: &mut dyn PathSink,
    counters: &mut Counters,
) -> SearchControl {
    super::scratch::with_enum_scratch(|scratch| {
        idx_dfs_rooted(index, &mut index.rows(), &mut scratch.dfs, sink, counters)
    })
}

/// [`idx_dfs_iterative`] on an index that may hold only its labels
/// ([`Index::build_labels`]) over `graph`, the graph they were computed
/// on: the first time a frame is pushed for `v`, `v`'s row is filled from
/// `graph` into the calling thread's enumeration arena by the routine the
/// eager build fills it with, and read from there afterwards. Only the
/// rows the search expands are ever filled. Paths, their order, all four
/// counters and the termination equal [`idx_dfs_iterative`] on
/// `Index::build(graph, query)`; on an index that has its rows this *is*
/// [`idx_dfs_iterative`].
pub fn idx_dfs_on_demand<G: NeighborAccess>(
    graph: &G,
    index: &Index,
    sink: &mut dyn PathSink,
    counters: &mut Counters,
) -> SearchControl {
    if index.has_rows() {
        return idx_dfs_iterative(index, sink, counters);
    }
    super::scratch::with_enum_scratch(|scratch| {
        let mut rows = scratch.rows.bind(graph, index);
        idx_dfs_rooted(index, &mut rows, &mut scratch.dfs, sink, counters)
    })
}

/// The `prefix == [s]` search, charging the root's neighbor scan once as
/// the recursive entry does.
fn idx_dfs_rooted(
    index: &Index,
    rows: &mut impl RowSource,
    scratch: &mut SeededScratch,
    sink: &mut dyn PathSink,
    counters: &mut Counters,
) -> SearchControl {
    let (Some(s_local), Some(t_local)) = (index.s_local(), index.t_local()) else {
        return SearchControl::Continue;
    };
    if s_local != t_local {
        counters.edges_accessed += u64::from(rows.row(s_local, index.k() - 1).1);
    }
    idx_dfs_seeded(index, rows, &[s_local], scratch, sink, counters)
}

/// The DFS continuation below a fixed prefix: enumerates every
/// hop-constrained s-t path that starts with `prefix` (local ids,
/// `prefix[0] == s`), never backtracking past the prefix boundary, reading
/// `I_t` rows from `rows`.
///
/// `idx_dfs_iterative` is the `prefix == [s]` special case; the
/// intra-query parallel executor runs one seeded search per frontier
/// partition and concatenates the outputs, which reproduces the full
/// sequential DFS emission order. A prefix that already ends at `t`
/// emits exactly that path. The prefix's own neighbor scan is *not*
/// charged to `counters` (the caller decides whether the split phase or
/// the task accounts for it).
pub(crate) fn idx_dfs_seeded(
    index: &Index,
    rows: &mut impl RowSource,
    prefix: &[LocalId],
    scratch: &mut SeededScratch,
    sink: &mut dyn PathSink,
    counters: &mut Counters,
) -> SearchControl {
    let Some(t_local) = index.t_local() else {
        return SearchControl::Continue;
    };
    debug_assert!(!prefix.is_empty(), "seeded DFS needs a non-empty prefix");
    debug_assert_eq!(Some(prefix[0]), index.s_local(), "prefix starts at s");
    let k = index.k();
    let floor = prefix.len();
    let SeededScratch {
        stack,
        path,
        on_path,
    } = scratch;
    stack.clear();
    on_path.reset(index.num_vertices());
    // Frames below the top of the seed are frozen: their cursors (and
    // neighbor rows) are never consulted because the search stops before
    // popping past the prefix boundary.
    stack.extend(prefix.iter().map(|&vertex| Frame {
        vertex,
        cursor: u32::MAX,
        nbr_start: 0,
        nbr_len: 0,
        found: false,
    }));
    {
        let top = stack.last_mut().expect("prefix is non-empty");
        top.cursor = 0;
        let budget = k.saturating_sub(floor as u32);
        (top.nbr_start, top.nbr_len) = rows.row(top.vertex, budget);
    }
    for &vertex in prefix {
        on_path.mark(vertex as usize);
    }

    let mut probe_tick = 0u32;
    while let Some(top) = stack.last().copied() {
        if probe_tick & (super::PROBE_STRIDE - 1) == 0 && sink.probe() == SearchControl::Stop {
            return SearchControl::Stop;
        }
        probe_tick = probe_tick.wrapping_add(1);
        let depth = stack.len() as u32 - 1; // edges used so far
        if top.vertex == t_local && depth > 0 {
            // Emit and force-backtrack: t's only neighbor is the padding
            // loop, which the plain DFS never follows.
            counters.results += 1;
            path.clear();
            path.extend(stack.iter().map(|f| index.global(f.vertex)));
            if sink.emit(path) == SearchControl::Stop {
                return SearchControl::Stop;
            }
            if stack.len() == floor {
                // The seed itself was a complete path; nothing below it
                // belongs to this task.
                break;
            }
            let popped = stack.pop().expect("stack is non-empty");
            on_path.unmark(popped.vertex as usize);
            if let Some(parent) = stack.last_mut() {
                parent.found = true;
            }
            continue;
        }
        let start_cursor = top.cursor as usize;
        let mut descend = None;
        let neighbors =
            &rows.neighbors()[top.nbr_start as usize..(top.nbr_start + top.nbr_len) as usize];
        for (offset, &next) in neighbors[start_cursor..].iter().enumerate() {
            if on_path.is_marked(next as usize) {
                continue;
            }
            if next == t_local {
                // Emit without frame churn: a t-child terminates its path,
                // so pushing/re-activating a frame for it would be pure
                // overhead (the recursive form likewise emits and returns
                // straight into the parent's scan). t leads every row it
                // appears in (key distance 0), so emission order is
                // unchanged.
                counters.partial_results += 1;
                counters.results += 1;
                probe_tick = probe_tick.wrapping_add(1);
                path.clear();
                path.extend(stack.iter().map(|f| index.global(f.vertex)));
                path.push(index.global(t_local));
                if sink.emit(path) == SearchControl::Stop {
                    return SearchControl::Stop;
                }
                stack.last_mut().expect("stack is non-empty").found = true;
                continue;
            }
            descend = Some((next, (start_cursor + offset + 1) as u32));
            break;
        }
        if let Some((next, cursor)) = descend {
            // Hint the child's neighbor row into cache: the `starts`
            // indirection defeats the hardware prefetcher, and the row is
            // scanned on the very next loop iteration.
            rows.prefetch(next);
            // Suspend this frame and descend.
            stack.last_mut().expect("stack is non-empty").cursor = cursor;
            counters.partial_results += 1;
            on_path.mark(next as usize);
            // Resolve the child's row now — filling it, for a source that
            // reads rows on demand; it also feeds the edge counter.
            let child_budget = k - stack.len() as u32 - 1;
            let (nbr_start, nbr_len) = rows.row(next, child_budget);
            counters.edges_accessed += u64::from(nbr_len);
            stack.push(Frame {
                vertex: next,
                cursor: 0,
                nbr_start,
                nbr_len,
                found: false,
            });
            continue;
        }
        if stack.len() == floor {
            // Never backtrack past the seed prefix.
            break;
        }
        // Exhausted: pop and account. The root (s) is not a generated
        // partial result, so it is never counted as invalid.
        let frame = stack.pop().expect("stack is non-empty");
        on_path.unmark(frame.vertex as usize);
        if let Some(parent) = stack.last_mut() {
            if !frame.found {
                counters.invalid_partial_results += 1;
            }
            parent.found |= frame.found;
        }
    }
    SearchControl::Continue
}

#[cfg(test)]
mod tests {
    use super::super::dfs::idx_dfs;
    use super::*;
    use crate::index::test_support::*;
    use crate::query::Query;
    use crate::request::ControlledSink;
    use crate::sink::{CollectingSink, CountingSink};
    use pathenum_graph::generators::{complete_digraph, erdos_renyi};

    fn both(index: &Index) -> (Vec<Vec<VertexId>>, Counters, Vec<Vec<VertexId>>, Counters) {
        let mut recursive_sink = CollectingSink::default();
        let mut recursive_counters = Counters::default();
        idx_dfs(index, &mut recursive_sink, &mut recursive_counters);
        let mut iterative_sink = CollectingSink::default();
        let mut iterative_counters = Counters::default();
        idx_dfs_iterative(index, &mut iterative_sink, &mut iterative_counters);
        (
            recursive_sink.sorted_paths(),
            recursive_counters,
            iterative_sink.sorted_paths(),
            iterative_counters,
        )
    }

    #[test]
    fn matches_recursive_on_figure1() {
        for k in 2..=6u32 {
            let g = figure1_graph();
            let index = Index::build(&g, Query::new(S, T, k).unwrap());
            let (r_paths, r_counters, i_paths, i_counters) = both(&index);
            assert_eq!(r_paths, i_paths, "k={k}");
            assert_eq!(r_counters, i_counters, "k={k}");
        }
    }

    #[test]
    fn matches_recursive_on_random_graphs() {
        for seed in 0..6u64 {
            let g = erdos_renyi(30, 160, seed);
            let index = Index::build(&g, Query::new(0, 1, 5).unwrap());
            let (r_paths, r_counters, i_paths, i_counters) = both(&index);
            assert_eq!(r_paths, i_paths, "seed={seed}");
            assert_eq!(r_counters, i_counters, "seed={seed}");
        }
    }

    #[test]
    fn matches_recursive_on_dense_graphs() {
        let g = complete_digraph(8);
        let index = Index::build(&g, Query::new(0, 7, 4).unwrap());
        let (r_paths, _, i_paths, _) = both(&index);
        assert_eq!(r_paths, i_paths);
    }

    #[test]
    fn early_stop_works() {
        let g = complete_digraph(8);
        let index = Index::build(&g, Query::new(0, 7, 4).unwrap());
        let mut sink = ControlledSink::new(CountingSink::default(), Some(3), None, None);
        let mut counters = Counters::default();
        let control = idx_dfs_iterative(&index, &mut sink, &mut counters);
        assert_eq!(control, SearchControl::Stop);
        assert_eq!(sink.emitted(), 3);
    }

    #[test]
    fn seeded_first_hop_partitions_concatenate_to_the_full_emission_order() {
        // The defining property behind intra-query parallel DFS: running
        // one seeded search per admissible first hop of s and
        // concatenating the outputs in neighbor order reproduces the
        // sequential emission order exactly.
        for (g, k) in [
            (figure1_graph(), 4),
            (figure1_graph(), 6),
            (erdos_renyi(30, 160, 3), 5),
            (complete_digraph(7), 4),
        ] {
            let index = Index::build(&g, Query::new(0, 1, k).unwrap());
            let mut full_sink = CollectingSink::default();
            let mut counters = Counters::default();
            idx_dfs_iterative(&index, &mut full_sink, &mut counters);

            let mut merged = CollectingSink::default();
            let mut scratch = SeededScratch::default();
            if let Some(s) = index.s_local() {
                for &first in index.i_t(s, k - 1) {
                    let mut task_counters = Counters::default();
                    idx_dfs_seeded(
                        &index,
                        &mut index.rows(),
                        &[s, first],
                        &mut scratch,
                        &mut merged,
                        &mut task_counters,
                    );
                }
            }
            assert_eq!(full_sink.paths, merged.paths, "k={k}");
        }
    }

    #[test]
    fn seeded_complete_prefix_emits_exactly_itself() {
        let g = figure1_graph();
        let index = Index::build(&g, Query::new(S, T, 4).unwrap());
        let s = index.s_local().unwrap();
        let t = index.t_local().unwrap();
        // Find the local id of v0, the direct predecessor of t.
        let v0 = (0..index.num_vertices() as LocalId)
            .find(|&l| index.global(l) == V[0])
            .unwrap();
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        let mut scratch = SeededScratch::default();
        idx_dfs_seeded(
            &index,
            &mut index.rows(),
            &[s, v0, t],
            &mut scratch,
            &mut sink,
            &mut counters,
        );
        assert_eq!(sink.paths, vec![vec![S, V[0], T]]);
        assert_eq!(counters.results, 1);
    }

    #[test]
    fn empty_index_is_a_no_op() {
        let g = figure1_graph();
        let index = Index::build(&g, Query::new(T, S, 4).unwrap());
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        idx_dfs_iterative(&index, &mut sink, &mut counters);
        assert!(sink.paths.is_empty());
    }
}
