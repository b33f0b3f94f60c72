//! The join-plan spectrum (Section 7.3, Figure 9).
//!
//! A left-deep plan evaluates the chain join by starting from one relation
//! `R_j` and repeatedly joining an adjacent relation to the left or right
//! — generalizing IDX-DFS, which is the all-right plan anchored at `R_1`.
//! A bushy plan cuts the chain at a position and joins the two halves
//! (Algorithm 6). The spectrum analysis executes *every* plan in both
//! families on the index and compares the optimizer's pick against the
//! field.
//!
//! The left-deep executor below extends an interval of known positions
//! `[lo, hi]` one vertex at a time: rightward through `I_t` (budget
//! `k - p` for a vertex placed at position `p`) and leftward through
//! `I_s` (budget `p`), so every generated partial is admissible by index
//! construction and the final tuples are exactly the walks of `Q`.
//!
//! This is the one reader of `I_s`, which an [`Index`] does not hold
//! (serving never extends leftward): the caller derives it once per index
//! with [`Index::backward_table`] and passes it to every plan it runs.

use pathenum_graph::VertexId;

use crate::index::{Index, LocalId, NeighborTable};
use crate::sink::{PathSink, SearchControl};
use crate::stats::Counters;

/// Direction of one extension step of a left-deep plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extend {
    /// Join the next relation on the left (prepend a vertex).
    Left,
    /// Join the next relation on the right (append a vertex).
    Right,
}

/// A left-deep join order over the chain `R_1 ... R_k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeftDeepPlan {
    /// The anchor relation `R_first` (1-based); its tuples seed the search
    /// covering positions `first-1 ..= first`.
    pub first: u32,
    /// The `k - 1` subsequent adjacent-relation joins.
    pub moves: Vec<Extend>,
}

impl LeftDeepPlan {
    /// The plan equivalent to IDX-DFS: anchor at `R_1`, extend right.
    pub fn forward(k: u32) -> LeftDeepPlan {
        LeftDeepPlan {
            first: 1,
            moves: vec![Extend::Right; k as usize - 1],
        }
    }

    /// The mirror plan: anchor at `R_k`, extend left.
    pub fn backward(k: u32) -> LeftDeepPlan {
        LeftDeepPlan {
            first: k,
            moves: vec![Extend::Left; k as usize - 1],
        }
    }
}

/// Enumerates all `2^(k-1)` left-deep plans without Cartesian products.
pub fn all_left_deep_plans(k: u32) -> Vec<LeftDeepPlan> {
    let mut plans = Vec::new();
    for first in 1..=k {
        let mut moves = Vec::with_capacity(k as usize - 1);
        gather(first - 1, k - first, &mut moves, first, &mut plans);
    }
    plans
}

fn gather(
    lefts: u32,
    rights: u32,
    moves: &mut Vec<Extend>,
    first: u32,
    plans: &mut Vec<LeftDeepPlan>,
) {
    if lefts == 0 && rights == 0 {
        plans.push(LeftDeepPlan {
            first,
            moves: moves.clone(),
        });
        return;
    }
    if lefts > 0 {
        moves.push(Extend::Left);
        gather(lefts - 1, rights, moves, first, plans);
        moves.pop();
    }
    if rights > 0 {
        moves.push(Extend::Right);
        gather(lefts, rights - 1, moves, first, plans);
        moves.pop();
    }
}

/// Executes a left-deep plan on the index, emitting the valid simple
/// paths among the produced walk tuples. `backward` is the index's own
/// [`Index::backward_table`].
pub fn execute_left_deep(
    index: &Index,
    backward: &NeighborTable,
    plan: &LeftDeepPlan,
    sink: &mut dyn PathSink,
    counters: &mut Counters,
) -> SearchControl {
    let k = index.k();
    assert!(
        plan.first >= 1 && plan.first <= k,
        "anchor relation out of range"
    );
    assert_eq!(
        plan.moves.len() as u32,
        k - 1,
        "plan must cover all relations"
    );
    let (Some(_), Some(t_local)) = (index.s_local(), index.t_local()) else {
        return SearchControl::Continue;
    };
    debug_assert_eq!(backward.num_vertices(), index.num_vertices());
    let mut exec = Executor {
        index,
        backward,
        t_local,
        plan,
        slots: vec![0; k as usize + 1],
        scratch: Vec::with_capacity(k as usize + 1),
        sink,
        counters,
    };
    // Seed with the tuples of R_first: v in C_{first-1}, v' in I_t(v, k-first).
    let anchor = plan.first - 1;
    let seeds: Vec<LocalId> = index.level(anchor).collect();
    for v in seeds {
        exec.slots[anchor as usize] = v;
        let neighbors = index.i_t(v, k - plan.first);
        exec.counters.edges_accessed += neighbors.len() as u64;
        for &v2 in neighbors {
            exec.slots[anchor as usize + 1] = v2;
            exec.counters.partial_results += 1;
            if exec.extend(anchor, anchor + 1, 0) == SearchControl::Stop {
                return SearchControl::Stop;
            }
        }
    }
    SearchControl::Continue
}

struct Executor<'a> {
    index: &'a Index,
    /// `I_s`: in-neighbors keyed by distance-from-`s`.
    backward: &'a NeighborTable,
    t_local: LocalId,
    plan: &'a LeftDeepPlan,
    /// Positions `lo ..= hi` are filled.
    slots: Vec<LocalId>,
    scratch: Vec<VertexId>,
    sink: &'a mut dyn PathSink,
    counters: &'a mut Counters,
}

impl Executor<'_> {
    fn extend(&mut self, lo: u32, hi: u32, step: usize) -> SearchControl {
        let k = self.index.k();
        if lo == 0 && hi == k {
            return self.emit_if_path();
        }
        match self.plan.moves[step] {
            Extend::Right => {
                debug_assert!(hi < k);
                let v = self.slots[hi as usize];
                // A vertex at position hi+1 must reach t in k-(hi+1) hops.
                let neighbors = self.index.i_t(v, k - hi - 1);
                self.counters.edges_accessed += neighbors.len() as u64;
                for &next in neighbors {
                    self.slots[hi as usize + 1] = next;
                    self.counters.partial_results += 1;
                    if self.extend(lo, hi + 1, step + 1) == SearchControl::Stop {
                        return SearchControl::Stop;
                    }
                }
            }
            Extend::Left => {
                debug_assert!(lo > 0);
                let v = self.slots[lo as usize];
                // A vertex at position lo-1 must be reachable from s in
                // lo-1 hops.
                let predecessors = self.backward.neighbors_within(v, lo - 1);
                self.counters.edges_accessed += predecessors.len() as u64;
                for &prev in predecessors {
                    self.slots[lo as usize - 1] = prev;
                    self.counters.partial_results += 1;
                    if self.extend(lo - 1, hi, step + 1) == SearchControl::Stop {
                        return SearchControl::Stop;
                    }
                }
            }
        }
        SearchControl::Continue
    }

    fn emit_if_path(&mut self) -> SearchControl {
        let tuple = &self.slots;
        let Some(first_t) = tuple.iter().position(|&v| v == self.t_local) else {
            return SearchControl::Continue;
        };
        let len = first_t + 1;
        if tuple[len..].iter().any(|&v| v != self.t_local) {
            return SearchControl::Continue;
        }
        for i in 0..len {
            for j in (i + 1)..len {
                if tuple[i] == tuple[j] {
                    self.counters.invalid_partial_results += 1;
                    return SearchControl::Continue;
                }
            }
        }
        self.counters.results += 1;
        self.scratch.clear();
        self.scratch
            .extend(tuple[..len].iter().map(|&l| self.index.global(l)));
        self.sink.emit(&self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::idx_dfs;
    use crate::index::test_support::*;
    use crate::query::Query;
    use crate::sink::CollectingSink;

    #[test]
    fn plan_enumeration_counts() {
        // 2^(k-1) plans.
        assert_eq!(all_left_deep_plans(2).len(), 2);
        assert_eq!(all_left_deep_plans(4).len(), 8);
        assert_eq!(all_left_deep_plans(6).len(), 32);
    }

    #[test]
    fn forward_plan_is_all_right() {
        let p = LeftDeepPlan::forward(4);
        assert_eq!(p.first, 1);
        assert!(p.moves.iter().all(|&m| m == Extend::Right));
    }

    fn run_plan(k: u32, plan: &LeftDeepPlan) -> Vec<Vec<VertexId>> {
        let g = figure1_graph();
        let idx = Index::build(&g, Query::new(S, T, k).unwrap());
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        execute_left_deep(&idx, &idx.backward_table(), plan, &mut sink, &mut counters);
        sink.sorted_paths()
    }

    #[test]
    fn every_plan_yields_the_same_paths() {
        for k in [3u32, 4] {
            let g = figure1_graph();
            let idx = Index::build(&g, Query::new(S, T, k).unwrap());
            let mut reference = CollectingSink::default();
            let mut counters = Counters::default();
            idx_dfs(&idx, &mut reference, &mut counters);
            let expected = reference.sorted_paths();
            for plan in all_left_deep_plans(k) {
                assert_eq!(run_plan(k, &plan), expected, "plan {plan:?}");
            }
        }
    }

    #[test]
    fn backward_plan_matches_forward() {
        let fwd = run_plan(4, &LeftDeepPlan::forward(4));
        let bwd = run_plan(4, &LeftDeepPlan::backward(4));
        assert_eq!(fwd, bwd);
        assert_eq!(fwd.len(), 5);
    }

    #[test]
    #[should_panic(expected = "plan must cover")]
    fn rejects_malformed_plans() {
        let g = figure1_graph();
        let idx = Index::build(&g, Query::new(S, T, 4).unwrap());
        let plan = LeftDeepPlan {
            first: 1,
            moves: vec![Extend::Right],
        };
        let mut sink = CollectingSink::default();
        let mut counters = Counters::default();
        execute_left_deep(&idx, &idx.backward_table(), &plan, &mut sink, &mut counters);
    }
}
