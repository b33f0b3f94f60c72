//! The correctness gate: a bounded depth-first oracle for result counts
//! and a validity check for every path a response carries. Written against
//! the benchmark's own [`Adjacency`], it shares no code with the library.

use std::collections::VecDeque;

use crate::graph::Adjacency;

const UNREACHED: u8 = u8::MAX;

/// Reusable buffers of [`count_paths`], sized to the graph on first use.
#[derive(Debug, Default)]
pub struct OracleScratch {
    /// Hops from each vertex to the target, or [`UNREACHED`].
    to_target: Vec<u8>,
    touched: Vec<u32>,
    on_path: Vec<bool>,
    queue: VecDeque<u32>,
}

/// Counts the simple paths from `s` to `t` with at most `k` edges, stopping
/// once `cap` have been found (so a limited request costs at most its
/// limit). A backward breadth-first pass from `t` prunes every branch that
/// cannot reach `t` within the remaining budget.
pub fn count_paths(
    graph: &Adjacency,
    scratch: &mut OracleScratch,
    s: u32,
    t: u32,
    k: u32,
    cap: u64,
) -> u64 {
    let n = graph.num_vertices();
    if scratch.to_target.len() != n {
        scratch.to_target = vec![UNREACHED; n];
        scratch.on_path = vec![false; n];
    }
    for &v in &scratch.touched {
        scratch.to_target[v as usize] = UNREACHED;
    }
    scratch.touched.clear();
    scratch.queue.clear();

    scratch.to_target[t as usize] = 0;
    scratch.touched.push(t);
    scratch.queue.push_back(t);
    while let Some(v) = scratch.queue.pop_front() {
        let d = scratch.to_target[v as usize];
        if u32::from(d) >= k {
            continue;
        }
        for u in graph.in_neighbors(v) {
            if scratch.to_target[u as usize] == UNREACHED {
                scratch.to_target[u as usize] = d + 1;
                scratch.touched.push(u);
                scratch.queue.push_back(u);
            }
        }
    }

    let mut found = 0;
    scratch.on_path[s as usize] = true;
    extend(
        graph,
        &scratch.to_target,
        &mut scratch.on_path,
        s,
        t,
        k,
        cap,
        &mut found,
    );
    scratch.on_path[s as usize] = false;
    found
}

#[allow(clippy::too_many_arguments)]
fn extend(
    graph: &Adjacency,
    to_target: &[u8],
    on_path: &mut [bool],
    v: u32,
    t: u32,
    budget: u32,
    cap: u64,
    found: &mut u64,
) {
    for w in graph.out_neighbors(v) {
        if *found >= cap {
            return;
        }
        if w == t {
            *found += 1;
            continue;
        }
        let remaining = to_target[w as usize];
        if remaining == UNREACHED || u32::from(remaining) + 1 > budget || on_path[w as usize] {
            continue;
        }
        on_path[w as usize] = true;
        extend(graph, to_target, on_path, w, t, budget - 1, cap, found);
        on_path[w as usize] = false;
    }
}

/// Why a returned path is not a result of `q(s, t, k)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathDefect {
    WrongEndpoints,
    TooLong,
    RepeatedVertex,
    MissingEdge,
}

pub fn check_path(
    graph: &Adjacency,
    path: &[u32],
    s: u32,
    t: u32,
    k: u32,
) -> Result<(), PathDefect> {
    if path.len() < 2 || path[0] != s || path[path.len() - 1] != t {
        return Err(PathDefect::WrongEndpoints);
    }
    if path.len() - 1 > k as usize {
        return Err(PathDefect::TooLong);
    }
    // Paths have at most 17 vertices, so the quadratic scan is the cheap one.
    for (i, v) in path.iter().enumerate() {
        if path[..i].contains(v) {
            return Err(PathDefect::RepeatedVertex);
        }
    }
    if path.windows(2).any(|e| !graph.has_edge(e[0], e[1])) {
        return Err(PathDefect::MissingEdge);
    }
    Ok(())
}

/// What a request promised about its result count.
#[derive(Debug, Clone, Copy)]
pub struct Expectation {
    pub s: u32,
    pub t: u32,
    pub k: u32,
    /// `None` = unlimited: the response must carry the exact total.
    pub limit: Option<u64>,
}

/// `Ok` when `observed` equals `min(limit, total)` as the oracle counts it.
pub fn check_count(
    graph: &Adjacency,
    scratch: &mut OracleScratch,
    expect: Expectation,
    observed: u64,
) -> Result<(), String> {
    let cap = expect.limit.unwrap_or(u64::MAX);
    let truth = count_paths(graph, scratch, expect.s, expect.t, expect.k, cap);
    if truth == observed {
        Ok(())
    } else {
        Err(format!(
            "q({}, {}, {}) limit {:?}: response has {observed} results, oracle counts {truth}",
            expect.s, expect.t, expect.k, expect.limit
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -> {1, 2} -> 3, plus 1 -> 2 and the back edge 3 -> 0.
    fn graph() -> Adjacency {
        Adjacency::new(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 0)])
    }

    #[test]
    fn counts_simple_bounded_paths() {
        let g = graph();
        let mut scratch = OracleScratch::default();
        assert_eq!(count_paths(&g, &mut scratch, 0, 3, 2, u64::MAX), 2);
        assert_eq!(count_paths(&g, &mut scratch, 0, 3, 3, u64::MAX), 3);
        assert_eq!(
            count_paths(&g, &mut scratch, 0, 3, 3, 2),
            2,
            "cap stops the search"
        );
        assert_eq!(count_paths(&g, &mut scratch, 3, 2, 3, u64::MAX), 2);
        assert_eq!(count_paths(&g, &mut scratch, 2, 1, 3, u64::MAX), 1);
        assert_eq!(count_paths(&g, &mut scratch, 2, 1, 2, u64::MAX), 0);
    }

    #[test]
    fn the_search_sees_edges_added_on_top_of_the_base() {
        let mut g = graph();
        let mut scratch = OracleScratch::default();
        assert_eq!(count_paths(&g, &mut scratch, 2, 1, 2, u64::MAX), 0);
        g.insert(2, 1);
        assert_eq!(count_paths(&g, &mut scratch, 2, 1, 2, u64::MAX), 1);
        g.remove(2, 1);
        assert_eq!(count_paths(&g, &mut scratch, 2, 1, 2, u64::MAX), 0);
    }

    #[test]
    fn gate_rejects_a_wrong_count() {
        let g = graph();
        let mut scratch = OracleScratch::default();
        let expect = Expectation {
            s: 0,
            t: 3,
            k: 3,
            limit: None,
        };
        assert!(check_count(&g, &mut scratch, expect, 3).is_ok());
        assert!(check_count(&g, &mut scratch, expect, 4).is_err());
        let limited = Expectation {
            limit: Some(2),
            ..expect
        };
        assert!(check_count(&g, &mut scratch, limited, 2).is_ok());
        assert!(check_count(&g, &mut scratch, limited, 3).is_err());
    }

    #[test]
    fn gate_rejects_invalid_paths() {
        let g = graph();
        assert_eq!(check_path(&g, &[0, 1, 2, 3], 0, 3, 3), Ok(()));
        assert_eq!(
            check_path(&g, &[0, 1, 2, 3], 0, 3, 2),
            Err(PathDefect::TooLong)
        );
        assert_eq!(
            check_path(&g, &[0, 1, 3], 0, 2, 3),
            Err(PathDefect::WrongEndpoints)
        );
        assert_eq!(
            check_path(&g, &[0, 3], 0, 3, 3),
            Err(PathDefect::MissingEdge)
        );
        assert_eq!(
            check_path(&g, &[0, 1, 3, 0, 2, 3], 0, 3, 6),
            Err(PathDefect::RepeatedVertex)
        );
        assert_eq!(
            check_path(&g, &[3], 3, 3, 3),
            Err(PathDefect::WrongEndpoints)
        );
    }
}
