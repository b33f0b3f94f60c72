//! Action-sequence constraints via a finite automaton (Algorithm 8).
//!
//! Edge labels model actions; a path qualifies only if the sequence of
//! labels along it drives a deterministic finite automaton from its start
//! state into an accepting state. The automaton state rides the crate's
//! one IDX-DFS kernel (`enumerate::dfs_iterative`) as its per-frame walk
//! state, and a branch is abandoned the moment a transition is undefined —
//! terminating invalid searches earlier than post-filtering, as Appendix E
//! notes.

use pathenum_graph::VertexId;

use crate::enumerate::dfs_iterative::{idx_dfs_rooted, DfsScratch, Walk};
use crate::index::{Index, LocalId};
use crate::sink::{PathSink, SearchControl};
use crate::stats::Counters;

/// Automaton state id.
pub type StateId = u32;

/// Edge label (action) id.
pub type LabelId = u32;

/// Errors constructing an [`Automaton`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutomatonError {
    /// A transition references a state `>= num_states`.
    StateOutOfRange(StateId),
    /// A transition references a label `>= num_labels`.
    LabelOutOfRange(LabelId),
}

impl std::fmt::Display for AutomatonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AutomatonError::StateOutOfRange(s) => write!(f, "state {s} out of range"),
            AutomatonError::LabelOutOfRange(l) => write!(f, "label {l} out of range"),
        }
    }
}

impl std::error::Error for AutomatonError {}

/// A deterministic finite automaton over edge labels, stored as the dense
/// transition matrix `A[state][label] -> Option<state>` of the paper.
#[derive(Debug, Clone)]
pub struct Automaton {
    num_states: usize,
    num_labels: usize,
    start: StateId,
    accepting: Vec<bool>,
    /// `transitions[state * num_labels + label]`; `u32::MAX` = undefined.
    transitions: Vec<StateId>,
}

const NO_TRANSITION: StateId = StateId::MAX;

impl Automaton {
    /// Creates an automaton with `num_states` states (start state included)
    /// and `num_labels` labels, with every transition undefined.
    pub fn new(
        num_states: usize,
        num_labels: usize,
        start: StateId,
    ) -> Result<Self, AutomatonError> {
        if start as usize >= num_states {
            return Err(AutomatonError::StateOutOfRange(start));
        }
        Ok(Automaton {
            num_states,
            num_labels,
            start,
            accepting: vec![false; num_states],
            transitions: vec![NO_TRANSITION; num_states * num_labels],
        })
    }

    /// Defines `from --label--> to`.
    pub fn add_transition(
        &mut self,
        from: StateId,
        label: LabelId,
        to: StateId,
    ) -> Result<(), AutomatonError> {
        for state in [from, to] {
            if state as usize >= self.num_states {
                return Err(AutomatonError::StateOutOfRange(state));
            }
        }
        if label as usize >= self.num_labels {
            return Err(AutomatonError::LabelOutOfRange(label));
        }
        self.transitions[from as usize * self.num_labels + label as usize] = to;
        Ok(())
    }

    /// Marks `state` accepting.
    pub fn set_accepting(&mut self, state: StateId) -> Result<(), AutomatonError> {
        if state as usize >= self.num_states {
            return Err(AutomatonError::StateOutOfRange(state));
        }
        self.accepting[state as usize] = true;
        Ok(())
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// `A[state][label]`.
    #[inline]
    pub fn step(&self, state: StateId, label: LabelId) -> Option<StateId> {
        if label as usize >= self.num_labels {
            return None;
        }
        let next = self.transitions[state as usize * self.num_labels + label as usize];
        (next != NO_TRANSITION).then_some(next)
    }

    /// Whether `state` accepts.
    #[inline]
    pub fn accepts(&self, state: StateId) -> bool {
        self.accepting[state as usize]
    }

    /// Runs the automaton over a label sequence from the start state.
    pub fn run(&self, labels: impl IntoIterator<Item = LabelId>) -> Option<StateId> {
        let mut state = self.start;
        for label in labels {
            state = self.step(state, label)?;
        }
        Some(state)
    }

    /// Whether the automaton accepts a full label sequence.
    pub fn accepts_sequence(&self, labels: impl IntoIterator<Item = LabelId>) -> bool {
        self.run(labels).is_some_and(|s| self.accepts(s))
    }
}

/// Algorithm 8: IDX-DFS threading an automaton state; paths are emitted
/// only when the walk's label sequence ends in an accepting state.
/// `label_of` maps a *global* edge to its action label.
pub fn automaton_dfs<L>(
    index: &Index,
    automaton: &Automaton,
    label_of: L,
    sink: &mut dyn PathSink,
    counters: &mut Counters,
) -> SearchControl
where
    L: Fn(VertexId, VertexId) -> LabelId,
{
    // alloc: setup — the frames carry a state, so the per-thread arena's
    // plain stack cannot hold them.
    let mut scratch = DfsScratch::default();
    let walk = AutomatonWalk {
        index,
        automaton,
        label_of,
    };
    idx_dfs_rooted(
        index,
        &mut index.rows(),
        &walk,
        &mut scratch,
        sink,
        counters,
    )
}

/// The automaton state as the kernel's walk: an undefined transition
/// prunes the edge, and `t` is reached in an accepting state or not at
/// all.
struct AutomatonWalk<'a, L> {
    index: &'a Index,
    automaton: &'a Automaton,
    label_of: L,
}

impl<L: Fn(VertexId, VertexId) -> LabelId> Walk for AutomatonWalk<'_, L> {
    type State = StateId;

    fn start(&self) -> StateId {
        self.automaton.start()
    }

    fn step(&self, state: StateId, u: LocalId, w: LocalId) -> Option<StateId> {
        let label = (self.label_of)(self.index.global(u), self.index.global(w));
        self.automaton.step(state, label)
    }

    fn accepts(&self, state: StateId) -> bool {
        self.automaton.accepts(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::test_support::*;
    use crate::query::Query;
    use crate::sink::CollectingSink;

    /// Two labels: 0 = "low", 1 = "high". Edges whose target id is even
    /// are "high".
    fn label(_: VertexId, to: VertexId) -> LabelId {
        LabelId::from(to.is_multiple_of(2))
    }

    /// Accepts any sequence (one state, both labels loop, accepting).
    fn universal() -> Automaton {
        let mut a = Automaton::new(1, 2, 0).unwrap();
        a.add_transition(0, 0, 0).unwrap();
        a.add_transition(0, 1, 0).unwrap();
        a.set_accepting(0).unwrap();
        a
    }

    #[test]
    fn universal_automaton_recovers_all_paths() {
        let g = figure1_graph();
        let idx = Index::build(&g, Query::new(S, T, 4).unwrap());
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        automaton_dfs(&idx, &universal(), label, &mut sink, &mut counters);
        assert_eq!(sink.paths.len(), 5);
    }

    #[test]
    fn constrained_run_matches_post_filtering() {
        // Accepts sequences matching "alternating starting with high":
        // state 0 expects high (label 1), state 1 expects low (label 0).
        let mut a = Automaton::new(2, 2, 0).unwrap();
        a.add_transition(0, 1, 1).unwrap();
        a.add_transition(1, 0, 0).unwrap();
        a.set_accepting(0).unwrap();
        a.set_accepting(1).unwrap();

        let g = figure1_graph();
        let q = Query::new(S, T, 4).unwrap();
        let idx = Index::build(&g, q);
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        automaton_dfs(&idx, &a, label, &mut sink, &mut counters);

        let mut all = CollectingSink::default();
        crate::reference::brute_force_paths(&g, q, &mut all);
        let mut expected: Vec<Vec<VertexId>> = all
            .paths
            .into_iter()
            .filter(|p| a.accepts_sequence(p.windows(2).map(|w| label(w[0], w[1]))))
            .collect();
        expected.sort_unstable();
        assert_eq!(sink.sorted_paths(), expected);
    }

    #[test]
    fn rejecting_automaton_yields_nothing() {
        let mut a = Automaton::new(1, 2, 0).unwrap();
        a.add_transition(0, 0, 0).unwrap();
        a.add_transition(0, 1, 0).unwrap();
        // No accepting state.
        let g = figure1_graph();
        let idx = Index::build(&g, Query::new(S, T, 4).unwrap());
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        automaton_dfs(&idx, &a, label, &mut sink, &mut counters);
        assert!(sink.paths.is_empty());
    }

    #[test]
    fn construction_validates_ranges() {
        assert_eq!(
            Automaton::new(2, 2, 5).unwrap_err(),
            AutomatonError::StateOutOfRange(5)
        );
        let mut a = Automaton::new(2, 2, 0).unwrap();
        assert_eq!(
            a.add_transition(0, 7, 1),
            Err(AutomatonError::LabelOutOfRange(7))
        );
        assert_eq!(
            a.add_transition(0, 1, 9),
            Err(AutomatonError::StateOutOfRange(9))
        );
        assert_eq!(a.set_accepting(4), Err(AutomatonError::StateOutOfRange(4)));
    }

    #[test]
    fn run_and_accepts_sequence() {
        let mut a = Automaton::new(2, 1, 0).unwrap();
        a.add_transition(0, 0, 1).unwrap();
        a.set_accepting(1).unwrap();
        assert_eq!(a.run([0]), Some(1));
        assert!(a.accepts_sequence([0]));
        assert!(!a.accepts_sequence([] as [LabelId; 0]));
        assert!(!a.accepts_sequence([0, 0])); // no transition from state 1
    }
}
