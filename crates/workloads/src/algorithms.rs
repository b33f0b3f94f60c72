//! A uniform interface over every competing algorithm (Section 7.1's
//! "Comparisons" list plus the weaker framework baselines).

use pathenum::query::Query;
use pathenum::sink::PathSink;
use pathenum::stats::Method;
use pathenum::{PathEnumConfig, PhysicalPlan, PlanCache, QueryEngine, QueryRequest, RunReport};
use pathenum_baselines::{bc_dfs, bc_join, generic_dfs, t_dfs, yen_ksp};
use pathenum_graph::CsrGraph;

/// One competing algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Algorithm 1 with a static distance bound.
    GenericDfs,
    /// Peng et al.'s barrier-based DFS.
    BcDfs,
    /// Peng et al.'s middle-vertex join.
    BcJoin,
    /// Rizzi et al.'s certificate-based DFS.
    TDfs,
    /// Yen's top-K loopless shortest paths, stopped past `k` (KRE/KPJ).
    YenKsp,
    /// PathEnum forced to depth-first search on the index.
    IdxDfs,
    /// PathEnum forced to the index join.
    IdxJoin,
    /// Full PathEnum with the cost-based optimizer.
    PathEnum,
}

impl Algorithm {
    /// The five algorithms of Table 3, in its column order.
    pub fn table3() -> [Algorithm; 5] {
        [
            Algorithm::BcDfs,
            Algorithm::BcJoin,
            Algorithm::IdxDfs,
            Algorithm::IdxJoin,
            Algorithm::PathEnum,
        ]
    }

    /// Every implemented algorithm.
    pub fn all() -> [Algorithm; 8] {
        [
            Algorithm::GenericDfs,
            Algorithm::BcDfs,
            Algorithm::BcJoin,
            Algorithm::TDfs,
            Algorithm::YenKsp,
            Algorithm::IdxDfs,
            Algorithm::IdxJoin,
            Algorithm::PathEnum,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::GenericDfs => "GEN-DFS",
            Algorithm::BcDfs => "BC-DFS",
            Algorithm::BcJoin => "BC-JOIN",
            Algorithm::TDfs => "T-DFS",
            Algorithm::YenKsp => "YEN-KSP",
            Algorithm::IdxDfs => "IDX-DFS",
            Algorithm::IdxJoin => "IDX-JOIN",
            Algorithm::PathEnum => "PathEnum",
        }
    }

    /// Whether this algorithm streams results (short response time) as
    /// opposed to materializing sub-query results first. The paper only
    /// reports response time for the streaming algorithms.
    pub fn is_streaming(&self) -> bool {
        !matches!(self, Algorithm::BcJoin | Algorithm::IdxJoin)
    }

    /// Runs the algorithm on one query, streaming into `sink`, and
    /// returns its [`RunReport`] with the plan it ran.
    ///
    /// The PathEnum variants run the query as a [`QueryRequest`] through
    /// a [`QueryEngine`] with no plan cache, so every run builds its own
    /// index; the forced variants set [`QueryRequest::method`]. They
    /// return the response's report and plan; a baseline has no plan,
    /// so it returns `None`. The
    /// measurement harness generates queries from the graph itself, so
    /// their validation cannot fail here; an out-of-range query is a
    /// harness bug and panics with the validation error.
    pub fn run(
        &self,
        graph: &CsrGraph,
        query: Query,
        sink: &mut dyn PathSink,
    ) -> (RunReport, Option<PhysicalPlan>) {
        let request = QueryRequest::from_query(query);
        let request = match self {
            Algorithm::GenericDfs => return (generic_dfs(graph, query, sink), None),
            Algorithm::BcDfs => return (bc_dfs(graph, query, sink), None),
            Algorithm::BcJoin => return (bc_join(graph, query, sink), None),
            Algorithm::TDfs => return (t_dfs(graph, query, sink), None),
            Algorithm::YenKsp => return (yen_ksp(graph, query, sink), None),
            Algorithm::IdxDfs => request.method(Method::IdxDfs),
            Algorithm::IdxJoin => request.method(Method::IdxJoin),
            Algorithm::PathEnum => request,
        };
        let mut engine =
            QueryEngine::with_cache(graph, PathEnumConfig::default(), PlanCache::new(0));
        let response = engine
            .execute_into(&request, sink)
            .expect("harness queries are in range for the graph");
        (response.report, response.plan)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    /// Parses a CLI algorithm name (case-insensitive, `_` accepted for
    /// `-`). The two PathEnum forced variants go through
    /// [`Method`]'s `FromStr` impl, so every spelling `Method` accepts
    /// (`idx-dfs`, `dfs`, `IDX-JOIN`, ...) selects the matching forced
    /// algorithm here.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Ok(method) = s.parse::<Method>() {
            return Ok(match method {
                Method::IdxDfs => Algorithm::IdxDfs,
                Method::IdxJoin => Algorithm::IdxJoin,
            });
        }
        match s.to_ascii_lowercase().replace('_', "-").as_str() {
            "pathenum" => Ok(Algorithm::PathEnum),
            "gen-dfs" | "generic-dfs" => Ok(Algorithm::GenericDfs),
            "bc-dfs" => Ok(Algorithm::BcDfs),
            "bc-join" => Ok(Algorithm::BcJoin),
            "t-dfs" => Ok(Algorithm::TDfs),
            "yen" | "yen-ksp" => Ok(Algorithm::YenKsp),
            other => Err(format!("unknown algorithm: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use pathenum::sink::{CollectingSink, CountingSink};
    use pathenum_graph::generators::{complete_digraph, erdos_renyi};

    #[test]
    fn all_algorithms_agree_on_random_graphs() {
        for seed in 0..3u64 {
            let g = erdos_renyi(40, 250, seed);
            let q = Query::new(0, 1, 5).unwrap();
            let mut reference: Option<Vec<Vec<u32>>> = None;
            for algo in Algorithm::all() {
                let mut sink = CollectingSink::default();
                algo.run(&g, q, &mut sink);
                let paths = sink.sorted_paths();
                match &reference {
                    None => reference = Some(paths),
                    Some(expected) => {
                        assert_eq!(&paths, expected, "algorithm {algo} disagrees (seed {seed})")
                    }
                }
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Algorithm::all().iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn index_variants_return_their_plan() {
        let g = erdos_renyi(30, 150, 1);
        let q = Query::new(0, 1, 4).unwrap();
        let mut sink = CollectingSink::default();
        let (report, plan) = Algorithm::IdxDfs.run(&g, q, &mut sink);
        assert!(plan.is_some_and(|plan| plan.index_edges > 0 && plan.index_bytes > 0));
        // Figure 7's preprocessing column: a forced, uncached PathEnum run
        // looks nothing up and optimizes nothing, and a baseline's is its
        // distance BFS alone.
        let timings = report.timings;
        assert_eq!(timings.cache_lookup + timings.optimization, Duration::ZERO);
        let mut sink = CollectingSink::default();
        let (report, plan) = Algorithm::BcDfs.run(&g, q, &mut sink);
        assert!(plan.is_none());
        assert_eq!(report.timings.preprocessing(), report.timings.bfs);

        // On K14, q(0, 13, 6) the optimizer picks IDX-JOIN (the `K14`
        // constants of `pathenum::optimizer`'s tests): each variant
        // reports the method it ran, and all count the same paths.
        let g = complete_digraph(14);
        let q = Query::new(0, 13, 6).unwrap();
        let mut counts = Vec::new();
        for (algo, method) in [
            (Algorithm::IdxDfs, Method::IdxDfs),
            (Algorithm::IdxJoin, Method::IdxJoin),
            (Algorithm::PathEnum, Method::IdxJoin),
        ] {
            let mut sink = CountingSink::default();
            let (report, plan) = algo.run(&g, q, &mut sink);
            assert_eq!(plan.map(|plan| plan.method), Some(method), "{algo}");
            assert_eq!(report.counters.results, sink.count, "{algo}");
            counts.push(sink.count);
        }
        assert!(counts.iter().all(|&c| c == counts[0]), "{counts:?}");
    }

    #[test]
    fn streaming_classification() {
        assert!(Algorithm::BcDfs.is_streaming());
        assert!(Algorithm::IdxDfs.is_streaming());
        assert!(!Algorithm::BcJoin.is_streaming());
        assert!(!Algorithm::IdxJoin.is_streaming());
    }
}
