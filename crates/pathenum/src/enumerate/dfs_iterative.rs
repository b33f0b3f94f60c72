//! Iterative IDX-DFS: Algorithm 4 with an explicit frame stack — the one
//! s-t search of the crate outside the recursive oracle
//! [`super::dfs::idx_dfs`].
//!
//! Functionally identical to [`super::dfs::idx_dfs`] (asserted by tests
//! and the plan-agreement property suite) but without native recursion:
//! each frame holds the cursor into its `I_t` slice. Production services
//! favor this form for stack safety under adversarial `k`, and because
//! the search can be suspended between emissions: when the sink answers
//! an emission with `Stop`, the kernel records where the top frame's scan
//! stood, and a later `idx_dfs_resume` on the same `DfsScratch`
//! continues from the next candidate. [`PathStream`] is built on that: it
//! owns a scratch and resumes the kernel once per pulled path.
//!
//! The kernel is generic over a `Walk`: a value carried down the
//! search beside the path, stepped along every edge it pushes and
//! checked when the path reaches `t`. Plain IDX-DFS walks `()`, which
//! monomorphises to the bare loop; Algorithms 7 and 8
//! ([`accumulative_dfs`], [`automaton_dfs`]) walk the running
//! accumulation and the automaton state on the same loop.
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
//!
//! # The count path
//!
//! When the sink counts only ([`PathSink::counts_only`]) and the walk is
//! the plain `()`, the same loop counts paths instead of building them:
//!
//! * a `t`-child is counted; no path is assembled;
//! * a frame at path position `k − 2` counts each unmarked non-`t`
//!   neighbor as one complete path (a *leaf*). No frame is pushed for it
//!   and no row is looked up; its counters are what push → scan → pop
//!   would add (`partial_results += 2`, `edges_accessed += 1`,
//!   `results += 1`, and the parent is marked as having found one);
//! * each frame activation hands its count to the sink with one
//!   [`PathSink::emit_count`] before the search descends or pops.
//!
//! The leaf rule is exact because a leaf's budget-0 row is exactly
//! `[t]`. It is listed in a budget-1 row, so its distance to `t` is 1,
//! and every row source serves strictly ascending, duplicate-free rows
//! (the CSR build deduplicates, `PEG2` images are validated on load, an
//! overlay insert of an existing edge is a no-op), so `t` is its one
//! neighbor within distance 0. Debug builds assert it on every leaf.
//! Answers, all four counters and the termination equal the per-path
//! run; only the number of probes and sink calls drops. Algorithms 7 and
//! 8 check each path's walk, so they stay per path.
//!
//! [`PathStream`]: crate::request::PathStream
//! [`accumulative_dfs`]: crate::constraints::accumulative_dfs
//! [`automaton_dfs`]: crate::constraints::automaton_dfs

use pathenum_graph::epoch::EpochStamps;
use pathenum_graph::{NeighborAccess, VertexId};

use crate::index::{Index, LocalId, RowSource};
use crate::sink::{PathSink, SearchControl};
use crate::stats::Counters;

/// A value carried down the search beside the path (Appendix E).
pub(crate) trait Walk {
    /// What a frame carries.
    type State: Copy;

    /// The state at `s`.
    fn start(&self) -> Self::State;

    /// The state after pushing the edge `u -> w` (local ids); `None`
    /// prunes the edge.
    fn step(&self, state: Self::State, u: LocalId, w: LocalId) -> Option<Self::State>;

    /// Whether a path that reaches `t` in `state` is a result.
    fn accepts(&self, state: Self::State) -> bool;

    /// Whether every edge steps and every path to `t` is a result, so
    /// the search may count paths it never walks (the count path).
    const ACCEPTS_ALL: bool = false;
}

/// Plain IDX-DFS: nothing is carried, every edge steps, every path to
/// `t` is a result.
impl Walk for () {
    type State = ();

    const ACCEPTS_ALL: bool = true;

    #[inline]
    fn start(&self) {}

    #[inline]
    fn step(&self, _: (), _: LocalId, _: LocalId) -> Option<()> {
        Some(())
    }

    #[inline]
    fn accepts(&self, _: ()) -> bool {
        true
    }
}

/// One suspended search frame: the vertex at this depth and how far its
/// admissible-neighbor slice has been consumed.
#[derive(Debug, Clone, Copy)]
struct Frame<S> {
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
    /// The walk's state on arrival at `vertex`.
    state: S,
}

/// Reusable buffers of the iterative DFS. Plain searches keep theirs in
/// the per-thread enumeration arena, so a serving thread allocates its
/// stack and path scratch once; a [`PathStream`] owns one, because a
/// paused stream must survive other searches on its thread.
///
/// [`PathStream`]: crate::request::PathStream
#[derive(Debug)]
pub(crate) struct DfsScratch<S = ()> {
    stack: Vec<Frame<S>>,
    path: Vec<VertexId>,
    /// O(1) "is this vertex on the current path" membership, replacing a
    /// linear stack scan per candidate neighbor. Epoch-reset at the start
    /// of every search, so an early `Stop` cannot leave stale marks.
    on_path: EpochStamps,
}

impl<S> Default for DfsScratch<S> {
    fn default() -> Self {
        // alloc: setup — empty buffers; they allocate on first use.
        DfsScratch {
            stack: Vec::new(),
            path: Vec::new(),
            on_path: EpochStamps::default(),
        }
    }
}

impl<S: Copy> DfsScratch<S> {
    /// Approximate heap footprint of the scratch in bytes.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.stack.capacity() * std::mem::size_of::<Frame<S>>()
            + self.path.capacity() * std::mem::size_of::<VertexId>()
            + self.on_path.heap_bytes()
    }

    /// Starts a new search from `s`: pushes the root frame for
    /// [`idx_dfs_resume`] to run. The root's neighbor scan is charged
    /// once, as the recursive entry charges it. An index without `s` or
    /// `t` leaves the stack empty, so the search yields nothing.
    pub(crate) fn seed<W: Walk<State = S>>(
        &mut self,
        index: &Index,
        rows: &mut impl RowSource,
        walk: &W,
        counters: &mut Counters,
    ) {
        self.stack.clear();
        let (Some(s_local), Some(_)) = (index.s_local(), index.t_local()) else {
            return;
        };
        self.on_path.reset(index.num_vertices());
        let (nbr_start, nbr_len) = rows.row(s_local, index.k() - 1);
        counters.edges_accessed += u64::from(nbr_len);
        self.stack.push(Frame {
            vertex: s_local,
            cursor: 0,
            nbr_start,
            nbr_len,
            found: false,
            state: walk.start(),
        });
        self.on_path.mark(s_local as usize);
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
        idx_dfs_rooted(
            index,
            &mut index.rows(),
            &(),
            &mut scratch.dfs,
            sink,
            counters,
        )
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
        idx_dfs_rooted(index, &mut rows, &(), &mut scratch.dfs, sink, counters)
    })
}

/// The whole search from `s` under `walk`, reading `I_t` rows from
/// `rows`: [`DfsScratch::seed`], then [`idx_dfs_resume`].
pub(crate) fn idx_dfs_rooted<W: Walk>(
    index: &Index,
    rows: &mut impl RowSource,
    walk: &W,
    scratch: &mut DfsScratch<W::State>,
    sink: &mut dyn PathSink,
    counters: &mut Counters,
) -> SearchControl {
    scratch.seed(index, rows, walk, counters);
    idx_dfs_resume(index, rows, walk, scratch, sink, counters)
}

/// Runs the search `scratch` holds until it is exhausted (`Continue`) or
/// the sink stops it (`Stop`). After a `Stop` the stack is left as it
/// stood, with the top frame's cursor past the path just emitted, so
/// calling again with the same arguments continues the search exactly
/// where it stopped. `results` counts the paths `walk` accepts;
/// `partial_results` also counts the `t`-children it rejects.
///
/// On the count path (see the [module docs](self)) a `Stop` leaves no
/// resumable cursor: the sinks that count only never resume.
pub(crate) fn idx_dfs_resume<W: Walk>(
    index: &Index,
    rows: &mut impl RowSource,
    walk: &W,
    scratch: &mut DfsScratch<W::State>,
    sink: &mut dyn PathSink,
    counters: &mut Counters,
) -> SearchControl {
    let Some(t_local) = index.t_local() else {
        return SearchControl::Continue;
    };
    let k = index.k();
    let DfsScratch {
        stack,
        path,
        on_path,
    } = scratch;

    let count_only = W::ACCEPTS_ALL && sink.counts_only();
    // On the count path, the stack height of a frame whose non-t
    // children are leaves: frames at path position k - 2.
    let leaf_parent_height = if count_only { k as usize - 1 } else { 0 };

    // One probe per PROBE_STRIDE frame activations. A frame activates
    // once per push and once per child popped back into it, and has at
    // most one t-child, so activations are never fewer than partial
    // results — silent walks included.
    let mut probe_tick = 0u32;
    while let Some(top) = stack.last().copied() {
        if probe_tick & (super::PROBE_STRIDE - 1) == 0 && sink.probe() == SearchControl::Stop {
            return SearchControl::Stop;
        }
        probe_tick = probe_tick.wrapping_add(1);
        let start_cursor = top.cursor as usize;
        let leaves = stack.len() == leaf_parent_height;
        // Paths found in this activation, not yet handed to the sink.
        let mut counted = 0u64;
        let mut descend = None;
        let neighbors =
            &rows.neighbors()[top.nbr_start as usize..(top.nbr_start + top.nbr_len) as usize];
        for (offset, &next) in neighbors[start_cursor..].iter().enumerate() {
            if on_path.is_marked(next as usize) {
                continue;
            }
            let Some(state) = walk.step(top.state, top.vertex, next) else {
                continue;
            };
            if next == t_local {
                // Emit without frame churn: a t-child terminates its path,
                // so pushing/re-activating a frame for it would be pure
                // overhead (the recursive form likewise emits and returns
                // straight into the parent's scan). t leads every row it
                // appears in (key distance 0), so emission order is
                // unchanged.
                counters.partial_results += 1;
                if !walk.accepts(state) {
                    continue;
                }
                counters.results += 1;
                if count_only {
                    counted += 1;
                    continue;
                }
                path.clear();
                path.extend(stack.iter().map(|f| index.global(f.vertex)));
                path.push(index.global(t_local));
                let control = sink.emit(path);
                let parent = stack.last_mut().expect("stack is non-empty");
                parent.found = true;
                if control == SearchControl::Stop {
                    // Suspend past this t-child: a resumed call picks the
                    // scan up at the next candidate.
                    parent.cursor = (start_cursor + offset + 1) as u32;
                    return SearchControl::Stop;
                }
                continue;
            }
            if leaves {
                // A leaf: its row is `[t]`, so it is one path. Account
                // the push, scan and pop its frame would have cost.
                counters.partial_results += 2;
                counters.edges_accessed += 1;
                counters.results += 1;
                counted += 1;
                continue;
            }
            descend = Some((next, (start_cursor + offset + 1) as u32, state));
            break;
        }
        if leaves && cfg!(debug_assertions) {
            debug_assert_leaf_rows(rows, &top, on_path, t_local);
        }
        if counted > 0 {
            stack.last_mut().expect("stack is non-empty").found = true;
            if sink.emit_count(counted) == SearchControl::Stop {
                return SearchControl::Stop;
            }
        }
        if let Some((next, cursor, state)) = descend {
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
                state,
            });
            continue;
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

/// Checks the count path's leaf invariant on the frame `top` just
/// scanned: every unmarked non-`t` neighbor's budget-0 row is exactly
/// `[t]`. Such a neighbor is listed under budget 1, so its distance to
/// `t` is 1; every row source serves strictly ascending, duplicate-free
/// rows, so `t` is the one neighbor within distance 0.
fn debug_assert_leaf_rows<S>(
    rows: &mut impl RowSource,
    top: &Frame<S>,
    on_path: &EpochStamps,
    t_local: LocalId,
) {
    for i in top.nbr_start..top.nbr_start + top.nbr_len {
        let next = rows.neighbors()[i as usize];
        if next == t_local || on_path.is_marked(next as usize) {
            continue;
        }
        let (start, len) = rows.row(next, 0);
        debug_assert_eq!(
            rows.neighbors()[start as usize..(start + len) as usize],
            [t_local],
            "a leaf's budget-0 row is exactly [t]"
        );
    }
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
    fn empty_index_is_a_no_op() {
        let g = figure1_graph();
        let index = Index::build(&g, Query::new(T, S, 4).unwrap());
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        idx_dfs_iterative(&index, &mut sink, &mut counters);
        assert!(sink.paths.is_empty());
    }
}
