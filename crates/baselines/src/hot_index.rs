//! HPI-style hot-vertex path index (Qiu et al., VLDB 2018; Section 2.2
//! of the PathEnum paper).
//!
//! HPI accelerates constrained path/cycle enumeration by *precomputing*
//! an index of paths between high-degree ("hot") vertices so the online
//! search can jump across indexed segments instead of re-walking the
//! dense core. The PathEnum paper's critique — which this implementation
//! exists to demonstrate — is that the number of such segments grows
//! exponentially, so the index "can consume a large amount of memory".
//!
//! Implementation: the hot set `H` is the top fraction of vertices by
//! degree. The offline index stores, per hot vertex, every simple path
//! of at most `k_max` edges to another hot vertex whose interior is
//! entirely cold. A query then enumerates each result path through its
//! unique decomposition at interior hot vertices:
//!
//! * cold mode walks non-hot vertices edge by edge (and may finish at
//!   `t`);
//! * arriving at a hot interior vertex switches to segment mode, which
//!   splices indexed hot-to-hot segments (skipping any ending at `t`, so
//!   final pieces are always enumerated cold — this keeps the
//!   derivation canonical and duplicate-free).

use std::time::{Duration, Instant};

use pathenum::query::Query;
use pathenum::sink::{PathSink, SearchControl};
use pathenum::stats::Counters;
use pathenum::RunReport;
use pathenum_graph::hashing::FxHashMap;
use pathenum_graph::properties::degree_split;
use pathenum_graph::{CsrGraph, VertexId};

use crate::common::{query_is_runnable, run_report};

/// One indexed hot-to-hot segment: the full vertex sequence, endpoints
/// included (`path[0]` and `path.last()` are hot, the interior is cold).
#[derive(Debug, Clone)]
pub struct Segment {
    /// Vertex sequence of the segment.
    pub path: Vec<VertexId>,
}

/// The offline hot-pair path index.
#[derive(Debug, Clone)]
pub struct HotIndex {
    hot: Vec<bool>,
    /// Segments grouped by their start vertex.
    segments: FxHashMap<VertexId, Vec<Segment>>,
    k_max: u32,
}

impl HotIndex {
    /// Builds the index: `hot_fraction` of vertices (by degree) become
    /// hot; all cold-interior simple paths of at most `k_max` edges
    /// between hot pairs are materialized.
    pub fn build(graph: &CsrGraph, hot_fraction: f64, k_max: u32) -> HotIndex {
        let (hot_vertices, _) = degree_split(graph, hot_fraction);
        let mut hot = vec![false; graph.num_vertices()];
        for &h in &hot_vertices {
            hot[h as usize] = true;
        }
        let mut segments: FxHashMap<VertexId, Vec<Segment>> = FxHashMap::default();
        let mut partial: Vec<VertexId> = Vec::with_capacity(k_max as usize + 1);
        for &h in &hot_vertices {
            partial.clear();
            partial.push(h);
            let mut out = Vec::new();
            collect_segments(graph, &hot, k_max, &mut partial, &mut out);
            if !out.is_empty() {
                segments.insert(h, out);
            }
        }
        HotIndex {
            hot,
            segments,
            k_max,
        }
    }

    /// Whether `v` is hot.
    #[inline]
    pub fn is_hot(&self, v: VertexId) -> bool {
        self.hot[v as usize]
    }

    /// Indexed segments starting at `h`.
    pub fn segments_from(&self, h: VertexId) -> &[Segment] {
        self.segments.get(&h).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of indexed segments.
    pub fn num_segments(&self) -> usize {
        self.segments.values().map(Vec::len).sum()
    }

    /// The hop budget the index was built for.
    pub fn k_max(&self) -> u32 {
        self.k_max
    }

    /// Approximate heap footprint in bytes — the quantity the PathEnum
    /// paper criticizes (it grows exponentially with `k_max` on dense
    /// graphs).
    pub fn heap_bytes(&self) -> usize {
        let path_bytes: usize = self
            .segments
            .values()
            .flatten()
            .map(|s| s.path.len() * std::mem::size_of::<VertexId>())
            .sum();
        path_bytes + self.hot.len()
    }
}

/// DFS from a hot root through cold vertices, recording every arrival at
/// a hot vertex as a segment.
fn collect_segments(
    graph: &CsrGraph,
    hot: &[bool],
    k_max: u32,
    partial: &mut Vec<VertexId>,
    out: &mut Vec<Segment>,
) {
    let v = *partial.last().expect("partial contains the root");
    if partial.len() as u32 - 1 == k_max {
        return;
    }
    for &next in graph.out_neighbors(v) {
        if partial.contains(&next) {
            continue;
        }
        if hot[next as usize] {
            let mut path = partial.clone();
            path.push(next);
            out.push(Segment { path });
            continue; // segments end at the first hot vertex
        }
        partial.push(next);
        collect_segments(graph, hot, k_max, partial, out);
        partial.pop();
    }
}

/// Evaluates `query` using the hot index, streaming results into `sink`.
///
/// `index` must have been built with `k_max >= query.k` on the same
/// graph.
pub fn hot_index_enumerate(
    graph: &CsrGraph,
    index: &HotIndex,
    query: Query,
    sink: &mut dyn PathSink,
) -> RunReport {
    assert!(index.k_max() >= query.k, "index k_max must cover the query");
    if !query_is_runnable(graph, query) {
        return RunReport::default();
    }
    let mut counters = Counters::default();
    let enum_start = Instant::now();
    let mut search = HotSearch {
        graph,
        index,
        query,
        partial: vec![query.s],
        sink,
        counters: &mut counters,
    };
    search.cold_step();
    run_report(Duration::ZERO, enum_start.elapsed(), counters)
}

struct HotSearch<'a> {
    graph: &'a CsrGraph,
    index: &'a HotIndex,
    query: Query,
    partial: Vec<VertexId>,
    sink: &'a mut dyn PathSink,
    counters: &'a mut Counters,
}

impl HotSearch<'_> {
    fn budget(&self) -> u32 {
        self.query.k - (self.partial.len() as u32 - 1)
    }

    /// Cold mode: extend through cold vertices; `t` terminates, a hot
    /// vertex switches to segment mode.
    fn cold_step(&mut self) -> SearchControl {
        if self.budget() == 0 {
            return SearchControl::Continue;
        }
        let v = *self.partial.last().expect("partial contains s");
        let neighbors = self.graph.out_neighbors(v);
        self.counters.edges_accessed += neighbors.len() as u64;
        for idx in 0..neighbors.len() {
            let next = self.graph.out_neighbors(v)[idx];
            if next == self.query.t {
                self.partial.push(next);
                self.counters.results += 1;
                let control = self.sink.emit(&self.partial);
                self.partial.pop();
                if control == SearchControl::Stop {
                    return SearchControl::Stop;
                }
                continue;
            }
            if next == self.query.s || self.partial.contains(&next) {
                continue;
            }
            self.partial.push(next);
            self.counters.partial_results += 1;
            let control = if self.index.is_hot(next) {
                self.at_hot()
            } else {
                self.cold_step()
            };
            self.partial.pop();
            if control == SearchControl::Stop {
                return SearchControl::Stop;
            }
        }
        SearchControl::Continue
    }

    /// Segment mode at a hot interior vertex. The next piece is either
    /// the *final* piece — a cold-interior walk to `t`, enumerated
    /// directly — or an indexed hot-to-hot segment (skipping segments
    /// ending at `t`, which the final-piece option owns). The split is
    /// canonical, so no path is derived twice.
    fn at_hot(&mut self) -> SearchControl {
        if self.cold_to_t() == SearchControl::Stop {
            return SearchControl::Stop;
        }
        let h = *self.partial.last().expect("partial ends at a hot vertex");
        // The slice borrows the index (independent of `self`), so the
        // recursive calls below can still borrow `self` mutably.
        let segments = self.index.segments_from(h);
        self.counters.edges_accessed += segments.len() as u64; // probe cost
        for segment in segments {
            let end = *segment.path.last().expect("segments are non-empty");
            if end == self.query.t {
                continue; // final pieces are enumerated cold
            }
            let extra_edges = (segment.path.len() - 1) as u32;
            if extra_edges > self.budget() {
                continue;
            }
            // Disjointness: nothing after the shared start may repeat a
            // partial vertex or pass through t.
            let tail = &segment.path[1..];
            if tail
                .iter()
                .any(|&v| v == self.query.t || self.partial.contains(&v))
            {
                continue;
            }
            let base_len = self.partial.len();
            self.partial.extend_from_slice(tail);
            self.counters.partial_results += 1;
            let control = self.at_hot();
            self.partial.truncate(base_len);
            if control == SearchControl::Stop {
                return SearchControl::Stop;
            }
        }
        SearchControl::Continue
    }

    /// The final piece: a walk through cold vertices only, terminating
    /// at `t`.
    fn cold_to_t(&mut self) -> SearchControl {
        if self.budget() == 0 {
            return SearchControl::Continue;
        }
        let v = *self.partial.last().expect("partial is non-empty");
        let neighbor_count = self.graph.out_neighbors(v).len();
        self.counters.edges_accessed += neighbor_count as u64;
        for idx in 0..neighbor_count {
            let next = self.graph.out_neighbors(v)[idx];
            if next == self.query.t {
                self.partial.push(next);
                self.counters.results += 1;
                let control = self.sink.emit(&self.partial);
                self.partial.pop();
                if control == SearchControl::Stop {
                    return SearchControl::Stop;
                }
                continue;
            }
            if self.index.is_hot(next) || next == self.query.s || self.partial.contains(&next) {
                continue;
            }
            self.partial.push(next);
            self.counters.partial_results += 1;
            let control = self.cold_to_t();
            self.partial.pop();
            if control == SearchControl::Stop {
                return SearchControl::Stop;
            }
        }
        SearchControl::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathenum::sink::CollectingSink;
    use pathenum_graph::generators::erdos_renyi;

    #[test]
    fn segments_have_cold_interiors_and_hot_endpoints() {
        let g = erdos_renyi(40, 200, 3);
        let index = HotIndex::build(&g, 0.2, 4);
        for (&start, segs) in &index.segments {
            assert!(index.is_hot(start));
            for seg in segs {
                assert_eq!(seg.path[0], start);
                assert!(index.is_hot(*seg.path.last().unwrap()));
                for &interior in &seg.path[1..seg.path.len() - 1] {
                    assert!(!index.is_hot(interior), "hot interior in {:?}", seg.path);
                }
                // Segments are simple paths.
                let mut sorted = seg.path.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), seg.path.len());
            }
        }
    }

    #[test]
    fn memory_grows_quickly_with_k() {
        // The paper's critique: segment count explodes with the hop cap.
        let g = erdos_renyi(60, 600, 5);
        let small = HotIndex::build(&g, 0.2, 2).num_segments();
        let large = HotIndex::build(&g, 0.2, 5).num_segments();
        assert!(large > small * 4, "small={small} large={large}");
    }

    fn check(g: &CsrGraph, hot_fraction: f64, q: Query) {
        let index = HotIndex::build(g, hot_fraction, q.k);
        let mut got = CollectingSink::default();
        hot_index_enumerate(g, &index, q, &mut got);
        let mut expected = CollectingSink::default();
        pathenum::reference::brute_force_paths(g, q, &mut expected);
        assert_eq!(
            got.sorted_paths(),
            expected.sorted_paths(),
            "hot_fraction={hot_fraction} query={q:?}"
        );
    }

    #[test]
    fn exact_on_random_graphs_across_hot_fractions() {
        for seed in 0..5u64 {
            let g = erdos_renyi(25, 120, seed);
            for hot_fraction in [0.0, 0.1, 0.3, 1.0] {
                for k in 2..=5u32 {
                    check(&g, hot_fraction, Query::new(0, 1, k).unwrap());
                }
            }
        }
    }

    #[test]
    fn exact_when_endpoints_are_hot() {
        // Force s and t into the hot set by querying the highest-degree
        // vertices.
        let g = erdos_renyi(30, 200, 11);
        let (hot, _) = pathenum_graph::properties::degree_split(&g, 0.2);
        let q = Query::new(hot[0], hot[1], 4).unwrap();
        check(&g, 0.2, q);
    }

    #[test]
    fn index_with_larger_k_still_answers_smaller_queries() {
        let g = erdos_renyi(20, 90, 2);
        let index = HotIndex::build(&g, 0.25, 6);
        let q = Query::new(0, 1, 3).unwrap();
        let mut got = CollectingSink::default();
        hot_index_enumerate(&g, &index, q, &mut got);
        let mut expected = CollectingSink::default();
        pathenum::reference::brute_force_paths(&g, q, &mut expected);
        assert_eq!(got.sorted_paths(), expected.sorted_paths());
    }

    #[test]
    fn early_stop_works() {
        let g = erdos_renyi(25, 160, 4);
        let index = HotIndex::build(&g, 0.2, 4);
        let mut sink = pathenum::request::ControlledSink::new(
            pathenum::sink::CountingSink::default(),
            Some(1),
            None,
            None,
        );
        hot_index_enumerate(&g, &index, Query::new(0, 1, 4).unwrap(), &mut sink);
        assert!(sink.emitted() <= 1);
    }

    #[test]
    #[should_panic(expected = "k_max must cover")]
    fn rejects_underbuilt_index() {
        let g = erdos_renyi(10, 30, 1);
        let index = HotIndex::build(&g, 0.2, 2);
        let mut sink = CollectingSink::default();
        hot_index_enumerate(&g, &index, Query::new(0, 1, 5).unwrap(), &mut sink);
    }
}
