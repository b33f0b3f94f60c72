//! Query-set generation (Section 7.1).
//!
//! For each graph, vertices are split into `V'` (top 10% by total degree)
//! and `V''` (the rest). A query set draws `(s, t)` uniformly from one of
//! the four settings `{V', V''} x {V', V''}`, keeping only pairs with
//! `s != t` and `distance(s, t) <= 3` (so a result plausibly exists and
//! the query is not trivially answered by the existence BFS).

use pathenum::query::Query;
use pathenum_graph::bfs::st_distance;
use pathenum_graph::properties::degree_split;
use pathenum_graph::{CsrGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which degree classes `s` and `t` are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySetting {
    /// `s, t ∈ V'` — the hardest setting, reported by default in §7.
    HighHigh,
    /// `s ∈ V'`, `t ∈ V''`.
    HighLow,
    /// `s ∈ V''`, `t ∈ V'`.
    LowHigh,
    /// `s, t ∈ V''`.
    LowLow,
}

impl QuerySetting {
    /// All four settings.
    pub fn all() -> [QuerySetting; 4] {
        [
            QuerySetting::HighHigh,
            QuerySetting::HighLow,
            QuerySetting::LowHigh,
            QuerySetting::LowLow,
        ]
    }
}

impl std::fmt::Display for QuerySetting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            QuerySetting::HighHigh => "V'xV'",
            QuerySetting::HighLow => "V'xV''",
            QuerySetting::LowHigh => "V''xV'",
            QuerySetting::LowLow => "V''xV''",
        };
        write!(f, "{s}")
    }
}

/// Configuration for [`generate_queries`].
#[derive(Debug, Clone, Copy)]
pub struct QueryGenConfig {
    /// Source/target degree classes.
    pub setting: QuerySetting,
    /// Number of queries to generate.
    pub count: usize,
    /// Hop constraint attached to every query.
    pub k: u32,
    /// Admission rule: `distance(s, t) <= max_st_distance` (the paper
    /// uses 3).
    pub max_st_distance: u32,
    /// Fraction of vertices in `V'` (the paper uses 0.1).
    pub high_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl QueryGenConfig {
    /// The paper's default: `s, t ∈ V'`, `distance <= 3`, top 10%.
    pub fn paper_default(count: usize, k: u32, seed: u64) -> Self {
        QueryGenConfig {
            setting: QuerySetting::HighHigh,
            count,
            k,
            max_st_distance: 3,
            high_fraction: 0.1,
            seed,
        }
    }
}

/// Generates a query set. May return fewer than `count` queries if the
/// graph cannot supply enough admissible pairs (the attempt budget is
/// `200 x count`).
pub fn generate_queries(graph: &CsrGraph, config: QueryGenConfig) -> Vec<Query> {
    let (high, low) = degree_split(graph, config.high_fraction);
    let (s_pool, t_pool): (&[VertexId], &[VertexId]) = match config.setting {
        QuerySetting::HighHigh => (&high, &high),
        QuerySetting::HighLow => (&high, &low),
        QuerySetting::LowHigh => (&low, &high),
        QuerySetting::LowLow => (&low, &low),
    };
    if s_pool.is_empty() || t_pool.is_empty() {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut queries = Vec::with_capacity(config.count);
    let mut attempts = 0usize;
    let attempt_budget = config.count.saturating_mul(200).max(1000);
    while queries.len() < config.count && attempts < attempt_budget {
        attempts += 1;
        let s = s_pool[rng.gen_range(0..s_pool.len())];
        let t = t_pool[rng.gen_range(0..t_pool.len())];
        if s == t {
            continue;
        }
        let d = st_distance(graph, s, t, config.max_st_distance);
        if d > config.max_st_distance {
            continue;
        }
        queries.push(Query::new(s, t, config.k).expect("validated endpoints"));
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    #[test]
    fn generates_requested_count_on_connected_graphs() {
        let g = datasets::gg();
        let cfg = QueryGenConfig::paper_default(50, 6, 7);
        let queries = generate_queries(&g, cfg);
        assert_eq!(queries.len(), 50);
        for q in &queries {
            assert_ne!(q.s, q.t);
            assert_eq!(q.k, 6);
            assert!(st_distance(&g, q.s, q.t, 3) <= 3);
        }
    }

    #[test]
    fn settings_respect_partitions() {
        let g = datasets::ep();
        let (high, low) = degree_split(&g, 0.1);
        let high_set: std::collections::HashSet<_> = high.iter().copied().collect();
        let low_set: std::collections::HashSet<_> = low.iter().copied().collect();
        let cfg = QueryGenConfig {
            setting: QuerySetting::HighLow,
            count: 20,
            k: 4,
            max_st_distance: 3,
            high_fraction: 0.1,
            seed: 3,
        };
        for q in generate_queries(&g, cfg) {
            assert!(high_set.contains(&q.s));
            assert!(low_set.contains(&q.t));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = datasets::gg();
        let cfg = QueryGenConfig::paper_default(10, 6, 42);
        assert_eq!(generate_queries(&g, cfg), generate_queries(&g, cfg));
    }

    #[test]
    fn empty_result_when_graph_disconnected() {
        // A graph of isolated pairs cannot satisfy distance <= 3 between
        // high-degree vertices often; extreme case: no edges at all.
        let g = pathenum_graph::generators::erdos_renyi(50, 0, 0);
        let cfg = QueryGenConfig::paper_default(5, 4, 1);
        assert!(generate_queries(&g, cfg).is_empty());
    }

    #[test]
    fn all_four_settings_produce_queries() {
        let g = datasets::ep();
        for setting in QuerySetting::all() {
            let cfg = QueryGenConfig {
                setting,
                count: 10,
                k: 4,
                max_st_distance: 3,
                high_fraction: 0.1,
                seed: 9,
            };
            let queries = generate_queries(&g, cfg);
            assert!(!queries.is_empty(), "setting {setting} generated nothing");
        }
    }
}
