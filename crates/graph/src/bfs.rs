//! Breadth-first-search distance computations.
//!
//! The PathEnum index needs the two constrained single-source distance maps
//! of the paper: `v.s = S(s, v | G − {t})` (forward BFS from `s` with `t`
//! deleted) and `v.t = S(v, t | G − {s})` (backward BFS from `t` with `s`
//! deleted). [`distances`] covers both through [`Direction`] and an optional
//! excluded vertex, plus an optional depth bound so callers exploring only a
//! `k`-neighborhood never pay for the full graph.
//!
//! # The boundary sweep
//!
//! The index keeps only `X = {v : v.s + v.t ≤ k}` (§4.2, Algorithm 3), a
//! sliver of the two `k`-hop balls on a large sparse graph, so
//! [`boundary_sweep`] computes both maps *on `X` only*, in two phases:
//!
//! 1. **Unrestricted.** Both sides grow level by level, the side with the
//!    smaller frontier first, until their depths `a + b = k`. Now every
//!    `x ∈ X` has `x.s ≤ a` or `x.t ≤ b`.
//! 2. **Pruned.** Each side continues to depth `k`, but a vertex is
//!    expanded at depth `d`, and a neighbour labelled `d + 1`, only if that
//!    depth plus the vertex's label in the *opposite* map is at most `k`.
//!
//! Why the labels on `X` are exact: every vertex on a shortest `s→x` path
//! of an `x ∈ X` is itself in `X` (it reaches `t` by the rest of that path
//! plus `x`'s own, a walk that avoids `s`), and past depth `a` its backward
//! label is `< b`, so phase 1 already wrote it; by induction phase 2 labels
//! each member of `X` at its exact level and nothing outside `X`. A label
//! the sweep leaves is therefore *exact or absent*, and every member of
//! `X` carries both. Work drops from the two `k`-hop balls to the two
//! `≈k/2`-hop balls plus the adjacency of `X`.
//!
//! What the sweep does **not** leave behind is the full `k`-reach of either
//! endpoint; a caller that needs those sets (the plan cache's retention
//! footprints) runs two depth-`k` [`distances_epoch_into`] passes, which
//! also serve as the sweep's test oracle.

use std::collections::VecDeque;

use crate::epoch::EpochMap;
use crate::types::{dist_add, Distance, VertexId, INFINITE_DISTANCE};
use crate::view::NeighborAccess;

/// Edge orientation for a traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow out-edges: distances *from* the source.
    Forward,
    /// Follow in-edges: distances *to* the source.
    Backward,
}

/// Options for [`distances`].
#[derive(Debug, Clone, Copy)]
pub struct BfsOptions {
    /// Traversal orientation.
    pub direction: Direction,
    /// Vertex removed from the graph (`G − {x}`); it keeps distance
    /// [`INFINITE_DISTANCE`] and is never expanded.
    pub excluded: Option<VertexId>,
    /// Stop expanding once this depth is reached; vertices further away
    /// keep [`INFINITE_DISTANCE`].
    pub max_depth: Option<Distance>,
}

impl Default for BfsOptions {
    fn default() -> Self {
        BfsOptions {
            direction: Direction::Forward,
            excluded: None,
            max_depth: None,
        }
    }
}

/// Single-source BFS distances with optional exclusion and depth bound.
///
/// Returns a vector indexed by vertex id. The source has distance 0 unless
/// it is the excluded vertex (then everything is unreachable).
///
/// Generic over [`NeighborAccess`], so the traversal runs identically on
/// a [`CsrGraph`](crate::CsrGraph) and on a borrowed
/// [`OverlayView`](crate::dynamic::OverlayView) of a dynamic graph.
pub fn distances<G: NeighborAccess>(
    graph: &G,
    source: VertexId,
    options: BfsOptions,
) -> Vec<Distance> {
    // alloc: setup — convenience oracle entry point; hot paths call
    // distances_into with caller-owned buffers instead.
    let mut dist = Vec::new();
    let mut queue = VecDeque::new();
    distances_into(graph, source, options, &mut dist, &mut queue);
    dist
}

/// As [`distances`], but writing into caller-owned buffers so repeated
/// queries (the real-time workloads PathEnum targets) avoid per-query
/// allocation. `dist` is resized and reset; `queue` is cleared.
///
/// This is the *naive oracle* form: the reset is an `O(|V|)` memset per
/// call, which dominates small bounded traversals on large graphs. The
/// production path is [`distances_epoch_into`], whose epoch-stamped map
/// resets in O(1); the two are pinned identical by this module's tests
/// and by the `kernel_agreement` differential suite.
pub fn distances_into<G: NeighborAccess>(
    graph: &G,
    source: VertexId,
    options: BfsOptions,
    dist: &mut Vec<Distance>,
    queue: &mut VecDeque<VertexId>,
) {
    dist.clear();
    dist.resize(graph.num_vertices(), INFINITE_DISTANCE);
    queue.clear();
    if options.excluded == Some(source) || (source as usize) >= graph.num_vertices() {
        return;
    }
    let bound = options.max_depth.unwrap_or(INFINITE_DISTANCE);
    dist[source as usize] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let d = dist[v as usize];
        if d >= bound {
            continue;
        }
        let mut visit = |n: VertexId| {
            if Some(n) == options.excluded {
                return;
            }
            if dist[n as usize] == INFINITE_DISTANCE {
                dist[n as usize] = d + 1;
                queue.push_back(n);
            }
        };
        match options.direction {
            Direction::Forward => graph.for_each_out(v, &mut visit),
            Direction::Backward => graph.for_each_in(v, &mut visit),
        }
    }
}

/// As [`distances_into`], but writing the distances into an
/// epoch-stamped map so the whole-map reset is O(1) instead of `O(|V|)`.
///
/// Vertices the traversal never reached read back as the map's default
/// (callers construct it with [`INFINITE_DISTANCE`]); the set of reached
/// vertices is available afterwards as `dist.touched()`, which is what
/// lets the index build iterate the visited neighborhood instead of
/// scanning every vertex.
pub fn distances_epoch_into<G: NeighborAccess>(
    graph: &G,
    source: VertexId,
    options: BfsOptions,
    dist: &mut EpochMap,
    queue: &mut VecDeque<VertexId>,
) {
    dist.reset(graph.num_vertices());
    queue.clear();
    if options.excluded == Some(source) || (source as usize) >= graph.num_vertices() {
        return;
    }
    let bound = options.max_depth.unwrap_or(INFINITE_DISTANCE);
    dist.set(source as usize, 0);
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let d = dist.get(v as usize);
        if d >= bound {
            continue;
        }
        let mut visit = |n: VertexId| {
            if Some(n) == options.excluded {
                return;
            }
            if !dist.contains(n as usize) {
                dist.set(n as usize, d + 1);
                queue.push_back(n);
            }
        };
        match options.direction {
            Direction::Forward => graph.for_each_out(v, &mut visit),
            Direction::Backward => graph.for_each_in(v, &mut visit),
        }
    }
}

/// The depths the two sides of a [`boundary_sweep`] had reached when its
/// unrestricted phase ended; `forward + backward == k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepSplit {
    /// Levels grown from `s` before pruning began (`a`).
    pub forward: Distance,
    /// Levels grown from `t` before pruning began (`b`).
    pub backward: Distance,
}

/// Both boundary distance maps of the query `(s, t, k)`, exact on
/// `X = {v : v.s + v.t ≤ k}` and absent or exact elsewhere — see the
/// [module docs](self#the-boundary-sweep) for the two phases and why the
/// result is exact.
///
/// `dist_s` receives `S(s, v | G − {t})` and `dist_t` receives
/// `S(v, t | G − {s})`; both are reset first and must read
/// [`INFINITE_DISTANCE`] when absent. As with the two-pass form, `t` gets
/// no forward label and `s` no backward one (each is deleted from the
/// other's graph); callers derive those from the boundary edges.
///
/// The kernel owns no buffer: a side's frontier is the tail of its map's
/// touched list (first-write order is BFS order), so the only memory that
/// grows is the two maps the caller already holds.
pub fn boundary_sweep<G: NeighborAccess>(
    graph: &G,
    s: VertexId,
    t: VertexId,
    k: Distance,
    dist_s: &mut EpochMap,
    dist_t: &mut EpochMap,
) -> SweepSplit {
    let n = graph.num_vertices();
    dist_s.reset(n);
    dist_t.reset(n);
    let mut split = SweepSplit {
        forward: 0,
        backward: 0,
    };
    // Each endpoint is deleted from the other's graph; if they coincide
    // (or fall outside the graph) nothing is reachable on either side.
    if s == t || (s as usize) >= n || (t as usize) >= n {
        return split;
    }
    dist_s.set(s as usize, 0);
    dist_t.set(t as usize, 0);
    let (mut fwd, mut bwd) = (0..1, 0..1);

    // Phase 1: the smaller frontier advances, ties going to the shallower
    // side (then forward), so the split is balanced and deterministic. An
    // exhausted side is the smaller one and advances for free.
    let any = |_: VertexId, _: Distance| true;
    while split.forward + split.backward < k {
        let forward = match fwd.len().cmp(&bwd.len()) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => split.forward <= split.backward,
        };
        if forward {
            let depth = split.forward;
            fwd = expand_level(graph, Direction::Forward, t, depth, fwd, dist_s, any);
            split.forward += 1;
        } else {
            let depth = split.backward;
            bwd = expand_level(graph, Direction::Backward, s, depth, bwd, dist_t, any);
            split.backward += 1;
        }
    }

    // Phase 2: only labels that still fit under `k` with the opposite
    // side's. The backward pass reads the forward labels phase 2 just
    // added as well; they are exact, so they only admit members of `X`.
    for depth in split.forward..k {
        let fits = |v: VertexId, d: Distance| dist_add(d, dist_t.get(v as usize)) <= k;
        fwd = expand_level(graph, Direction::Forward, t, depth, fwd, dist_s, fits);
    }
    for depth in split.backward..k {
        let fits = |v: VertexId, d: Distance| dist_add(d, dist_s.get(v as usize)) <= k;
        bwd = expand_level(graph, Direction::Backward, s, depth, bwd, dist_t, fits);
    }
    split
}

/// Grows one side of a [`boundary_sweep`] by one level: expands the
/// vertices `dist.touched()[frontier]`, all at `depth`, labels their
/// unlabelled neighbours `depth + 1`, and returns the range those
/// occupy. `fits(v, d)` is phase 2's test that `v` may carry label `d`;
/// it gates both expanding a frontier vertex and labelling a neighbour.
/// The side's own source (`depth == 0`) is exempt: it is deleted from
/// the opposite side's graph, so it never has the opposite label the
/// test reads.
fn expand_level<G: NeighborAccess>(
    graph: &G,
    direction: Direction,
    excluded: VertexId,
    depth: Distance,
    frontier: std::ops::Range<usize>,
    dist: &mut EpochMap,
    fits: impl Fn(VertexId, Distance) -> bool,
) -> std::ops::Range<usize> {
    let level_end = frontier.end;
    for i in frontier {
        let v = dist.touched()[i];
        if depth > 0 && !fits(v, depth) {
            continue;
        }
        let mut visit = |w: VertexId| {
            if w != excluded && !dist.contains(w as usize) && fits(w, depth + 1) {
                dist.set(w as usize, depth + 1);
            }
        };
        match direction {
            Direction::Forward => graph.for_each_out(v, &mut visit),
            Direction::Backward => graph.for_each_in(v, &mut visit),
        }
    }
    level_end..dist.touched().len()
}

/// `S(s, v | G − {t})` for every `v`: forward distances from `s` in the
/// graph with `t` removed, bounded by `max_depth`.
pub fn distances_from_source<G: NeighborAccess>(
    graph: &G,
    s: VertexId,
    t: VertexId,
    max_depth: Distance,
) -> Vec<Distance> {
    distances(
        graph,
        s,
        BfsOptions {
            direction: Direction::Forward,
            excluded: Some(t),
            max_depth: Some(max_depth),
        },
    )
}

/// `S(v, t | G − {s})` for every `v`: backward distances to `t` in the
/// graph with `s` removed, bounded by `max_depth`.
pub fn distances_to_target<G: NeighborAccess>(
    graph: &G,
    s: VertexId,
    t: VertexId,
    max_depth: Distance,
) -> Vec<Distance> {
    distances(
        graph,
        t,
        BfsOptions {
            direction: Direction::Backward,
            excluded: Some(s),
            max_depth: Some(max_depth),
        },
    )
}

/// Shortest-path length from `s` to `t` (unconstrained graph), bounded by
/// `max_depth`; [`INFINITE_DISTANCE`] if `t` is further than the bound.
///
/// Used by the workload generator to enforce the paper's
/// "`distance(s, t) ≤ 3`" query admission rule.
pub fn st_distance<G: NeighborAccess>(
    graph: &G,
    s: VertexId,
    t: VertexId,
    max_depth: Distance,
) -> Distance {
    if s == t {
        return 0;
    }
    let dist = distances(
        graph,
        s,
        BfsOptions {
            direction: Direction::Forward,
            excluded: None,
            max_depth: Some(max_depth),
        },
    );
    dist[t as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::csr::CsrGraph;

    /// The 9-vertex graph of the paper's Figure 1a.
    ///
    /// Vertices: s=0, t=1, v0=2, v1=3, v2=4, v3=5, v4=6, v5=7, v6=8, v7=9.
    pub(crate) fn figure1_graph() -> CsrGraph {
        let mut b = GraphBuilder::new(10);
        // Edges read off Figure 1a / the relations in Figure 3a:
        // s->v0, s->v1, s->v3, v0->v1, v0->v6, v0->t, v1->v2, v1->v3,
        // v2->v0, v2->t, v3->v4, v4->v5, v5->v2, v5->t, v6->v0, plus an
        // isolated-ish v7 with an edge from v7 to s (appears in no result).
        let (s, t, v0, v1, v2, v3, v4, v5, v6, v7) = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9);
        b.add_edges([
            (s, v0),
            (s, v1),
            (s, v3),
            (v0, v1),
            (v0, v6),
            (v0, t),
            (v1, v2),
            (v1, v3),
            (v2, v0),
            (v2, t),
            (v3, v4),
            (v4, v5),
            (v5, v2),
            (v5, t),
            (v6, v0),
            (v7, s),
        ])
        .unwrap();
        b.finish()
    }

    #[test]
    fn forward_distances_on_figure1() {
        let g = figure1_graph();
        let d = distances(&g, 0, BfsOptions::default());
        assert_eq!(d[0], 0); // s
        assert_eq!(d[2], 1); // v0
        assert_eq!(d[1], 2); // t via s->v0->t
        assert_eq!(d[6], 2); // v4 via s->v3->v4
        assert_eq!(d[9], INFINITE_DISTANCE); // v7 unreachable from s
    }

    #[test]
    fn excluding_target_blocks_paths_through_it() {
        let g = figure1_graph();
        // Distances from s with t removed: same here because no shortest
        // path routes through t, but t itself must read infinite.
        let d = distances_from_source(&g, 0, 1, 8);
        assert_eq!(d[1], INFINITE_DISTANCE);
        assert_eq!(d[2], 1);
    }

    #[test]
    fn backward_distances_reach_targets_of_t() {
        let g = figure1_graph();
        let d = distances_to_target(&g, 0, 1, 8);
        assert_eq!(d[1], 0); // t itself
        assert_eq!(d[2], 1); // v0 -> t
        assert_eq!(d[4], 1); // v2 -> t
        assert_eq!(d[7], 1); // v5 -> t
        assert_eq!(d[3], 2); // v1 -> v2 -> t
        assert_eq!(d[0], INFINITE_DISTANCE); // s is excluded
    }

    #[test]
    fn depth_bound_truncates_search() {
        let g = figure1_graph();
        let d = distances(
            &g,
            0,
            BfsOptions {
                max_depth: Some(1),
                ..BfsOptions::default()
            },
        );
        assert_eq!(d[2], 1);
        assert_eq!(d[1], INFINITE_DISTANCE); // t is at depth 2
    }

    #[test]
    fn st_distance_matches_bfs() {
        let g = figure1_graph();
        assert_eq!(st_distance(&g, 0, 1, 8), 2);
        assert_eq!(st_distance(&g, 0, 0, 8), 0);
        assert_eq!(st_distance(&g, 0, 9, 8), INFINITE_DISTANCE);
    }

    #[test]
    fn distances_into_reuses_buffers_cleanly() {
        let g = figure1_graph();
        let mut dist = vec![7u32; 3]; // wrong size, stale content
        let mut queue = std::collections::VecDeque::from([9u32]);
        distances_into(&g, 0, BfsOptions::default(), &mut dist, &mut queue);
        assert_eq!(dist, distances(&g, 0, BfsOptions::default()));
        // Second run from a different source must fully overwrite.
        distances_into(&g, 5, BfsOptions::default(), &mut dist, &mut queue);
        assert_eq!(dist, distances(&g, 5, BfsOptions::default()));
    }

    #[test]
    fn epoch_variant_matches_naive_across_options_and_reuse() {
        let g = figure1_graph();
        let mut map = EpochMap::new(INFINITE_DISTANCE);
        let mut queue = VecDeque::new();
        let option_grid = [
            BfsOptions::default(),
            BfsOptions {
                direction: Direction::Backward,
                ..BfsOptions::default()
            },
            BfsOptions {
                excluded: Some(1),
                max_depth: Some(3),
                ..BfsOptions::default()
            },
            BfsOptions {
                direction: Direction::Backward,
                excluded: Some(0),
                max_depth: Some(2),
            },
            BfsOptions {
                excluded: Some(0), // excluded == source
                ..BfsOptions::default()
            },
        ];
        // One map reused across every (source, options) pair: the epoch
        // reset must never leak a previous query's distances.
        for options in option_grid {
            for source in 0..g.num_vertices() as VertexId {
                let naive = distances(&g, source, options);
                distances_epoch_into(&g, source, options, &mut map, &mut queue);
                for (v, &expected) in naive.iter().enumerate() {
                    assert_eq!(
                        map.get(v),
                        expected,
                        "vertex {v}, source {source}, options {options:?}"
                    );
                }
                // Touched is exactly the finite-distance set.
                let reached = naive.iter().filter(|&&d| d != INFINITE_DISTANCE).count();
                assert_eq!(map.touched().len(), reached);
            }
        }
    }

    #[test]
    fn epoch_variant_survives_graph_size_changes() {
        let mut map = EpochMap::new(INFINITE_DISTANCE);
        let mut queue = VecDeque::new();
        let big = figure1_graph();
        distances_epoch_into(&big, 0, BfsOptions::default(), &mut map, &mut queue);
        let mut b = GraphBuilder::new(3);
        b.add_edges([(0, 1), (1, 2)]).unwrap();
        let small = b.finish();
        distances_epoch_into(&small, 0, BfsOptions::default(), &mut map, &mut queue);
        assert_eq!(map.capacity(), 3);
        assert_eq!(map.get(2), 2);
        distances_epoch_into(&big, 0, BfsOptions::default(), &mut map, &mut queue);
        assert_eq!(map.get(6), 2); // v4 via s->v3->v4
    }

    /// Every label exact or absent, and both present wherever the exact
    /// distances sum to at most `k`.
    fn assert_exact_on_x(
        g: &CsrGraph,
        s: VertexId,
        t: VertexId,
        k: Distance,
        maps: [&EpochMap; 2],
    ) {
        let from_s = distances_from_source(g, s, t, k);
        let to_t = distances_to_target(g, s, t, k);
        for (v, (&v_s, &v_t)) in from_s.iter().zip(&to_t).enumerate() {
            let in_x = dist_add(v_s, v_t) <= k;
            for (map, exact) in maps.iter().zip([v_s, v_t]) {
                let label = map.get(v);
                assert!(
                    label == exact || (label == INFINITE_DISTANCE && !in_x),
                    "v={v}, q=({s},{t},{k}), in X: {in_x}: label {label}, exact {exact}"
                );
            }
        }
    }

    #[test]
    fn sweep_is_exact_on_x_for_every_query_on_figure1() {
        let g = figure1_graph();
        let n = g.num_vertices() as VertexId;
        // One pair of maps across every query, as the index build holds them.
        let mut dist_s = EpochMap::new(INFINITE_DISTANCE);
        let mut dist_t = EpochMap::new(INFINITE_DISTANCE);
        for k in 1..=6 {
            for s in 0..n {
                for t in (0..n).filter(|&t| t != s) {
                    let split = boundary_sweep(&g, s, t, k, &mut dist_s, &mut dist_t);
                    assert_eq!(split.forward + split.backward, k);
                    assert_exact_on_x(&g, s, t, k, [&dist_s, &dist_t]);
                }
            }
        }
    }

    #[test]
    fn coinciding_endpoints_reach_nothing() {
        let g = figure1_graph();
        let mut dist_s = EpochMap::new(INFINITE_DISTANCE);
        let mut dist_t = EpochMap::new(INFINITE_DISTANCE);
        boundary_sweep(&g, 0, 1, 4, &mut dist_s, &mut dist_t);
        boundary_sweep(&g, 2, 2, 4, &mut dist_s, &mut dist_t);
        assert!(dist_s.touched().is_empty() && dist_t.touched().is_empty());
    }

    #[test]
    fn pruned_levels_exempt_the_sides_own_source() {
        // The split the frontier rule never picks (a = 0): all k levels
        // grown backward, then the forward side pruned from its source.
        // s has no backward label — it is deleted from that graph — so a
        // source held to the test would never expand and X would be lost.
        let g = figure1_graph();
        let (s, t, k) = (0, 1, 4);
        let mut dist_s = EpochMap::new(INFINITE_DISTANCE);
        let mut dist_t = EpochMap::new(INFINITE_DISTANCE);
        dist_s.reset(g.num_vertices());
        dist_t.reset(g.num_vertices());
        dist_s.set(s as usize, 0);
        dist_t.set(t as usize, 0);
        let mut bwd = 0..1;
        for depth in 0..k {
            bwd = expand_level(
                &g,
                Direction::Backward,
                s,
                depth,
                bwd,
                &mut dist_t,
                |_, _| true,
            );
        }
        assert!(!dist_t.contains(s as usize));
        let mut fwd = 0..1;
        for depth in 0..k {
            let fits = |v: VertexId, d: Distance| dist_add(d, dist_t.get(v as usize)) <= k;
            fwd = expand_level(&g, Direction::Forward, t, depth, fwd, &mut dist_s, fits);
        }
        assert!(dist_s.touched().len() > 1, "the source was never expanded");
        assert_exact_on_x(&g, s, t, k, [&dist_s, &dist_t]);
    }

    #[test]
    fn excluded_source_is_fully_unreachable() {
        let g = figure1_graph();
        let d = distances(
            &g,
            0,
            BfsOptions {
                excluded: Some(0),
                ..BfsOptions::default()
            },
        );
        assert!(d.iter().all(|&x| x == INFINITE_DISTANCE));
    }
}
