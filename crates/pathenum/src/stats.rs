//! Instrumentation: per-query counters and phase timers.
//!
//! These counters back the paper's detailed-metric experiments: Figure 6
//! (#edges accessed, #invalid partial results, #results), Figure 7 / 17
//! (phase breakdown), and Table 7 (peak materialized tuples). A run's
//! [`RunReport`] is these measurements and its cache outcome only; what
//! the run decided is its [`PhysicalPlan`](crate::plan::PhysicalPlan).
//! It is also every baseline's record (`pathenum-baselines`): the paper
//! harness compares PathEnum with its competitors on one struct, a
//! baseline's distance BFS under `bfs` and `index_build`.

use std::time::Duration;

/// Counters collected while evaluating one query.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Edges touched during enumeration (size of every neighbor list the
    /// algorithm looped over). Figure 6's `#Edges`.
    pub edges_accessed: u64,
    /// Partial results that did not extend into any final path.
    /// Figure 6's `#Invalid`.
    pub invalid_partial_results: u64,
    /// Total partial results generated (search-tree nodes).
    pub partial_results: u64,
    /// Results emitted. Figure 6's `#Results`.
    pub results: u64,
    /// Peak number of materialized tuple *vertices* held at once by
    /// join-style algorithms (0 for pure DFS). Table 7's partial-result
    /// memory is `4 bytes x` this.
    pub peak_materialized_vertices: u64,
}

impl Counters {
    /// Merges another counter set into this one (peak takes the max).
    pub fn merge(&mut self, other: &Counters) {
        self.edges_accessed += other.edges_accessed;
        self.invalid_partial_results += other.invalid_partial_results;
        self.partial_results += other.partial_results;
        self.results += other.results;
        self.peak_materialized_vertices = self
            .peak_materialized_vertices
            .max(other.peak_materialized_vertices);
    }

    /// Peak memory attributable to materialized partial results, in bytes.
    pub fn peak_materialized_bytes(&self) -> u64 {
        self.peak_materialized_vertices * std::mem::size_of::<u32>() as u64
    }
}

/// Which enumeration strategy evaluated the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Method {
    /// Depth-first search on the index (Algorithm 4).
    #[default]
    IdxDfs,
    /// Two-sided join on the index (Algorithm 6).
    IdxJoin,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Method::IdxDfs => write!(f, "IDX-DFS"),
            Method::IdxJoin => write!(f, "IDX-JOIN"),
        }
    }
}

/// A method name [`Method`]'s `FromStr` impl could not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMethodError(String);

impl std::fmt::Display for ParseMethodError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown method {:?} (expected idx-dfs or idx-join)",
            self.0
        )
    }
}

impl std::error::Error for ParseMethodError {}

impl std::str::FromStr for Method {
    type Err = ParseMethodError;

    /// Parses the paper's method names, case-insensitively and accepting
    /// `_` for `-`: `"IDX-DFS"`/`"dfs"` and `"IDX-JOIN"`/`"join"`. Lets
    /// benchmark and workload CLIs force a method without code changes.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().replace('_', "-").as_str() {
            "idx-dfs" | "idxdfs" | "dfs" => Ok(Method::IdxDfs),
            "idx-join" | "idxjoin" | "join" => Ok(Method::IdxJoin),
            _ => Err(ParseMethodError(s.to_string())),
        }
    }
}

/// Wall-clock breakdown of one PathEnum query (Figures 7, 12, 17).
#[derive(Debug, Default, Clone)]
pub struct PhaseTimings {
    /// Plan-cache lookup time on a warm hit (zero on cold runs and on
    /// engines without a cache). A hit skips BFS, index build, and
    /// estimation entirely, so on the warm path this is the *only*
    /// preprocessing cost — it is deliberately not folded into
    /// `index_build`, which stays zero so phase tables attribute warm
    /// time correctly. (The one exception is the first hit on a
    /// labels-only entry, which completes it; see `index_build`.)
    pub cache_lookup: Duration,
    /// The boundary search — the bidirectional sweep, or the two full
    /// BFS passes on a graph with a mutation log (part of index
    /// construction).
    pub bfs: Duration,
    /// Full index construction including the BFS time — on a plan hit,
    /// the rows and level statistics a labels-only cache entry is
    /// completed with, when this request was the first to find it.
    pub index_build: Duration,
    /// Preliminary estimation (Equation 5). Essentially free.
    pub preliminary_estimation: Duration,
    /// Join-order optimization (Algorithm 5), when it ran.
    pub optimization: Duration,
    /// Result enumeration, including the `I_t` rows IDX-DFS fills the
    /// first time it expands their owners on an index built with labels
    /// only: a request that reads rows on demand pays for them here, not
    /// under `index_build`.
    pub enumeration: Duration,
}

impl PhaseTimings {
    /// Total query time.
    pub fn total(&self) -> Duration {
        // index_build already includes bfs.
        self.cache_lookup
            + self.index_build
            + self.preliminary_estimation
            + self.optimization
            + self.enumeration
    }

    /// Preprocessing = everything before enumeration (on a warm cache
    /// hit this is exactly the lookup time).
    pub fn preprocessing(&self) -> Duration {
        self.cache_lookup + self.index_build + self.preliminary_estimation + self.optimization
    }
}

/// What one PathEnum run measured: its phase timings, its counters, and
/// how the caches served it.
///
/// What the run *decided* — method, cut, estimates, index shape — is not
/// repeated here: it is the response's
/// [`plan`](crate::request::QueryResponse::plan), `None` exactly when a
/// pre-flight stopping rule (an expired deadline, a cancelled token, a
/// zero limit) fired before anything was planned. Such a run reports
/// the `Default` timings and counters, and
/// [`CacheOutcome::Skipped`](crate::plan::CacheOutcome::Skipped).
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Phase timings.
    pub timings: PhaseTimings,
    /// Enumeration counters.
    pub counters: Counters,
    /// Whether the plan (and index) came from the engine's
    /// [`PlanCache`](crate::plan::PlanCache), or the answer from its
    /// [`ResultCache`](crate::results::ResultCache).
    pub cache: crate::plan::CacheOutcome,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = Counters {
            edges_accessed: 10,
            invalid_partial_results: 1,
            partial_results: 20,
            results: 5,
            peak_materialized_vertices: 100,
        };
        let b = Counters {
            edges_accessed: 5,
            invalid_partial_results: 2,
            partial_results: 7,
            results: 3,
            peak_materialized_vertices: 40,
        };
        a.merge(&b);
        assert_eq!(a.edges_accessed, 15);
        assert_eq!(a.invalid_partial_results, 3);
        assert_eq!(a.results, 8);
        assert_eq!(a.peak_materialized_vertices, 100);
    }

    #[test]
    fn peak_bytes_scales_by_vertex_width() {
        let c = Counters {
            peak_materialized_vertices: 8,
            ..Counters::default()
        };
        assert_eq!(c.peak_materialized_bytes(), 32);
    }

    #[test]
    fn timing_totals_compose() {
        let t = PhaseTimings {
            cache_lookup: Duration::ZERO,
            bfs: Duration::from_millis(1),
            index_build: Duration::from_millis(3),
            preliminary_estimation: Duration::from_millis(1),
            optimization: Duration::from_millis(2),
            enumeration: Duration::from_millis(10),
        };
        assert_eq!(t.preprocessing(), Duration::from_millis(6));
        assert_eq!(t.total(), Duration::from_millis(16));
    }

    #[test]
    fn warm_hit_timings_attribute_lookup_not_build() {
        // The shape every cache-hit path produces: index_build (and every
        // other build phase) zero, the lookup cost in its own field, both
        // totals still accounting for it.
        let t = PhaseTimings {
            cache_lookup: Duration::from_micros(5),
            enumeration: Duration::from_millis(2),
            ..PhaseTimings::default()
        };
        assert_eq!(t.index_build, Duration::ZERO);
        assert_eq!(t.preprocessing(), Duration::from_micros(5));
        assert_eq!(t.total(), Duration::from_micros(2005));
    }

    #[test]
    fn method_display() {
        assert_eq!(Method::IdxDfs.to_string(), "IDX-DFS");
        assert_eq!(Method::IdxJoin.to_string(), "IDX-JOIN");
    }

    #[test]
    fn method_from_str_round_trips_and_accepts_aliases() {
        for method in [Method::IdxDfs, Method::IdxJoin] {
            assert_eq!(method.to_string().parse::<Method>().unwrap(), method);
        }
        assert_eq!("dfs".parse::<Method>().unwrap(), Method::IdxDfs);
        assert_eq!("idx_join".parse::<Method>().unwrap(), Method::IdxJoin);
        assert_eq!("Join".parse::<Method>().unwrap(), Method::IdxJoin);
        let err = "bfs".parse::<Method>().unwrap_err();
        assert!(err.to_string().contains("bfs"));
    }
}
