//! A uniform interface over every competing algorithm (Section 7.1's
//! "Comparisons" list plus the weaker framework baselines).

use std::time::Duration;

use pathenum::query::Query;
use pathenum::sink::PathSink;
use pathenum::stats::{Counters, Method};
use pathenum::{PathEnumConfig, PlanCache, QueryEngine, QueryRequest};
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

    /// Runs the algorithm on one query, streaming into `sink`.
    ///
    /// The PathEnum variants run the query as a [`QueryRequest`] through
    /// a [`QueryEngine`] with no plan cache, so every run builds its own
    /// index; the forced variants set [`QueryRequest::method`]. The
    /// measurement harness generates queries from the graph itself, so
    /// their validation cannot fail here; an out-of-range query is a
    /// harness bug and panics with the validation error.
    pub fn run(&self, graph: &CsrGraph, query: Query, sink: &mut dyn PathSink) -> AlgoReport {
        let request = QueryRequest::from_query(query);
        let request = match self {
            Algorithm::GenericDfs => return from_baseline(generic_dfs(graph, query, sink)),
            Algorithm::BcDfs => return from_baseline(bc_dfs(graph, query, sink)),
            Algorithm::BcJoin => return from_baseline(bc_join(graph, query, sink)),
            Algorithm::TDfs => return from_baseline(t_dfs(graph, query, sink)),
            Algorithm::YenKsp => return from_baseline(yen_ksp(graph, query, sink)),
            Algorithm::IdxDfs => request.method(Method::IdxDfs),
            Algorithm::IdxJoin => request.method(Method::IdxJoin),
            Algorithm::PathEnum => request,
        };
        let mut engine =
            QueryEngine::with_cache(graph, PathEnumConfig::default(), PlanCache::new(0));
        let response = engine
            .execute_into(&request, sink)
            .expect("harness queries are in range for the graph");
        from_pathenum(response.report)
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

/// Unified per-run report across baselines and PathEnum variants.
#[derive(Debug, Clone)]
pub struct AlgoReport {
    /// Preprocessing: distance BFS for baselines, index build for ours.
    pub preprocessing: Duration,
    /// Join-order optimization time (zero for baselines).
    pub optimization: Duration,
    /// Enumeration time.
    pub enumeration: Duration,
    /// Shared counters.
    pub counters: Counters,
    /// Method PathEnum selected, if the run went through the optimizer.
    pub method: Option<Method>,
    /// Index size in edges (PathEnum variants only).
    pub index_edges: Option<usize>,
    /// Index footprint in bytes (PathEnum variants only).
    pub index_bytes: Option<usize>,
}

impl AlgoReport {
    /// Total query time.
    pub fn total(&self) -> Duration {
        self.preprocessing + self.optimization + self.enumeration
    }
}

fn from_baseline(report: pathenum_baselines::BaselineReport) -> AlgoReport {
    AlgoReport {
        preprocessing: report.preprocessing,
        optimization: Duration::ZERO,
        enumeration: report.enumeration,
        counters: report.counters,
        method: None,
        index_edges: None,
        index_bytes: None,
    }
}

fn from_pathenum(report: pathenum::RunReport) -> AlgoReport {
    AlgoReport {
        preprocessing: report.timings.index_build + report.timings.preliminary_estimation,
        optimization: report.timings.optimization,
        enumeration: report.timings.enumeration,
        counters: report.counters,
        method: Some(report.method),
        index_edges: Some(report.index_edges),
        index_bytes: Some(report.index_bytes),
    }
}

#[cfg(test)]
mod tests {
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
    fn reports_carry_index_stats_for_index_variants() {
        let g = erdos_renyi(30, 150, 1);
        let q = Query::new(0, 1, 4).unwrap();
        let mut sink = CollectingSink::default();
        let report = Algorithm::IdxDfs.run(&g, q, &mut sink);
        assert!(report.index_edges.is_some());
        assert!(report.index_bytes.is_some());
        let mut sink = CollectingSink::default();
        let report = Algorithm::BcDfs.run(&g, q, &mut sink);
        assert!(report.index_edges.is_none());

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
            let report = algo.run(&g, q, &mut sink);
            assert_eq!(report.method, Some(method), "{algo}");
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
