//! The `PathSink::probe` stride contract.
//!
//! Every enumeration kernel must call `probe` periodically *between*
//! emissions — at least once per 64 search-tree nodes (the crate's
//! `PROBE_STRIDE`), with the first node always probing — because the
//! request layer's deadline and cancellation rules are only observable
//! through those calls while a search traverses barren regions. These
//! tests count probes on a silent sink so a future refactor cannot
//! quietly stop polling; if one fails, either restore the probes or
//! consciously renegotiate the stride documented in
//! `crates/pathenum/src/enumerate/mod.rs`.

use pathenum_repro::core::enumerate::{idx_dfs, idx_dfs_iterative, idx_join};
use pathenum_repro::graph::generators::complete_digraph;
use pathenum_repro::prelude::*;

/// The documented upper bound on nodes between probes. Deliberately a
/// literal: the contract is what this test pins.
const PROBE_STRIDE: u64 = 64;

/// Counts emissions and probes without ever stopping the search.
#[derive(Default)]
struct ProbeTally {
    emits: u64,
    probes: u64,
}

impl PathSink for ProbeTally {
    fn emit(&mut self, _path: &[VertexId]) -> SearchControl {
        self.emits += 1;
        SearchControl::Continue
    }

    fn probe(&mut self) -> SearchControl {
        self.probes += 1;
        SearchControl::Continue
    }
}

/// A sink that stops the search at the very first probe — the sharpest
/// form of the "barren searches stay interruptible" guarantee.
struct StopAtFirstProbe {
    emits: u64,
    probes: u64,
}

impl PathSink for StopAtFirstProbe {
    fn emit(&mut self, _path: &[VertexId]) -> SearchControl {
        self.emits += 1;
        SearchControl::Continue
    }

    fn probe(&mut self) -> SearchControl {
        self.probes += 1;
        SearchControl::Stop
    }
}

fn dense_index(n: usize, k: u32) -> Index {
    let g = complete_digraph(n);
    Index::build(&g, Query::new(0, (n - 1) as u32, k).unwrap())
}

#[test]
fn dfs_probes_at_least_once_per_stride() {
    for run in [idx_dfs, idx_dfs_iterative] {
        let index = dense_index(9, 4);
        let mut tally = ProbeTally::default();
        let mut counters = Counters::default();
        run(&index, &mut tally, &mut counters);
        assert!(tally.probes >= 1, "first node always probes");
        // Search-tree nodes visited is partial_results plus the root;
        // one probe per PROBE_STRIDE of them is the floor.
        let nodes = counters.partial_results + 1;
        assert!(
            tally.probes >= nodes / PROBE_STRIDE,
            "{} probes for {} nodes",
            tally.probes,
            nodes
        );
        assert!(tally.emits > 0, "the dense query has results");
    }
}

#[test]
fn join_probes_during_materialization_and_joining() {
    let index = dense_index(9, 4);
    let mut tally = ProbeTally::default();
    let mut counters = Counters::default();
    idx_join(&index, 2, &mut tally, &mut counters);
    assert!(tally.probes >= 1, "first node always probes");
    // The join probes once per side-DFS node and once per joined
    // combination; partial_results counts the side-DFS nodes alone.
    assert!(
        tally.probes >= counters.partial_results / PROBE_STRIDE,
        "{} probes for {} side nodes",
        tally.probes,
        counters.partial_results
    );
}

#[test]
fn first_probe_can_interrupt_before_any_result() {
    // A sink that stops at its first probe sees *zero* emissions from
    // every kernel: the probe fires before any result is offered, so a
    // pre-fired cancellation never pays for a single path.
    let index = dense_index(9, 4);
    for kernel in ["dfs", "dfs_iterative", "join"] {
        let mut sink = StopAtFirstProbe {
            emits: 0,
            probes: 0,
        };
        let mut counters = Counters::default();
        let control = match kernel {
            "dfs" => idx_dfs(&index, &mut sink, &mut counters),
            "dfs_iterative" => idx_dfs_iterative(&index, &mut sink, &mut counters),
            _ => idx_join(&index, 2, &mut sink, &mut counters),
        };
        assert_eq!(control, SearchControl::Stop, "{kernel}");
        assert_eq!(sink.emits, 0, "{kernel} emitted before the first probe");
        assert_eq!(sink.probes, 1, "{kernel} kept searching after Stop");
    }
}

#[test]
fn barren_search_still_probes() {
    // A graph where s reaches t only through one long corridor plus a
    // large barren branch: emissions are rare but probes must not be.
    let mut b = GraphBuilder::new(64);
    // Corridor 0 -> 1 -> 2 -> 3 (t = 3).
    b.add_edges([(0, 1), (1, 2), (2, 3)]).unwrap();
    // Barren clique reachable from s that never reaches t.
    for u in 4..32u32 {
        b.add_edge(0, u).unwrap();
        for v in 4..32u32 {
            if u != v {
                b.add_edge(u, v).unwrap();
            }
        }
    }
    let g = b.finish();
    let index = Index::build(&g, Query::new(0, 3, 3).unwrap());
    let mut tally = ProbeTally::default();
    let mut counters = Counters::default();
    idx_dfs(&index, &mut tally, &mut counters);
    // The barren clique is pruned by the index (distance to t is
    // infinite), so the search is small — but probes still happened.
    assert!(tally.probes >= 1);
    assert_eq!(tally.emits, 1, "exactly the corridor path");
}

#[test]
fn barren_constrained_walk_probes_at_the_stride() {
    // An automaton without an accepting state: every walk reaches t and
    // is rejected, so the whole constrained search emits nothing — and
    // must still probe at the plain kernels' stride.
    let mut automaton = Automaton::new(1, 1, 0).unwrap();
    automaton.add_transition(0, 0, 0).unwrap();
    let index = dense_index(9, 6);
    let mut tally = ProbeTally::default();
    let mut counters = Counters::default();
    automaton_dfs(&index, &automaton, |_, _| 0, &mut tally, &mut counters);
    assert_eq!(tally.emits, 0, "nothing is accepted");
    assert!(counters.partial_results > PROBE_STRIDE, "the walk is large");
    assert!(
        tally.probes >= counters.partial_results / PROBE_STRIDE,
        "{} probes for {} partial results",
        tally.probes,
        counters.partial_results
    );

    let mut sink = StopAtFirstProbe {
        emits: 0,
        probes: 0,
    };
    let control = automaton_dfs(
        &index,
        &automaton,
        |_, _| 0,
        &mut sink,
        &mut Counters::default(),
    );
    assert_eq!(control, SearchControl::Stop);
    assert_eq!(sink.emits, 0);
    assert_eq!(sink.probes, 1, "the walk kept searching after Stop");
}
