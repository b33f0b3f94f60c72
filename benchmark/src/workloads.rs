//! The six workloads and the three generated graphs they run on.

use std::time::Duration;

/// Parameters of one preferential-attachment digraph.
#[derive(Debug)]
pub struct GraphSpec {
    pub name: &'static str,
    pub vertices: usize,
    /// Out-edges each arriving vertex attaches.
    pub out_edges: usize,
}

/// Fraction of attachments drawn by degree rather than uniformly.
pub const PREFERENTIAL: f64 = 0.8;
/// Fraction of attachments that also add the reverse edge.
pub const RECIPROCAL: f64 = 0.3;

pub static SPARSE: GraphSpec = GraphSpec {
    name: "sparse",
    vertices: 50_000,
    out_edges: 8,
};
pub static DENSE: GraphSpec = GraphSpec {
    name: "dense",
    vertices: 3_000,
    out_edges: 20,
};
pub static MID: GraphSpec = GraphSpec {
    name: "mid",
    vertices: 20_000,
    out_edges: 15,
};

/// Which on-disk format set-up loads, and into which representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// `PEG1` edge list, rebuilt into a heap `CsrGraph`.
    Peg1Heap,
    /// Raw `PEG2` image, served in place as a `FrozenGraph`.
    Peg2Frozen,
    /// Text edge list, parsed into a heap `CsrGraph`.
    TextHeap,
    /// `PEG1` into a heap `CsrGraph`, wrapped in a `DynamicGraph`.
    Peg1Dynamic,
}

/// One query class of the paper's section 7.1 generator: both endpoints
/// from the top-10%-degree set (`high`) or both from the rest, at most
/// three hops apart, with hop constraint `k`.
#[derive(Debug, Clone, Copy)]
pub struct Class {
    pub high: bool,
    pub k: u32,
}

#[derive(Debug, Clone)]
pub enum Requests {
    /// `count` distinct `(s, t, k)`, classes round-robin: no repeats, so
    /// every request is a plan-cache miss.
    Distinct {
        classes: &'static [Class],
        count: usize,
    },
    /// A pool of distinct requests replayed by Zipf-distributed draws.
    Zipf {
        classes: &'static [Class],
        pool: usize,
        exponent: f64,
        draws: usize,
        warmup_draws: usize,
    },
    /// Update bursts interleaved with queries on a `DynamicGraph`.
    Stream {
        steps: usize,
        warmup_steps: usize,
        burst: usize,
        insert_share: f64,
        cycle_k: u32,
        watch_pairs: usize,
        watch_k: u32,
        watch_queries_per_step: usize,
    },
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub graph: &'static GraphSpec,
    pub load: Load,
    /// Directory name of the request list; workloads naming the same one
    /// replay byte-identical requests.
    pub requests_name: &'static str,
    pub requests: Requests,
    pub limit: Option<u64>,
    pub collect_paths: bool,
    /// Safety net only: a response that reports it fired is a failure.
    pub time_budget: Option<Duration>,
    pub clients: usize,
    pub tenant_cache_quota: usize,
    pub result_cache_bytes: usize,
    pub admission: bool,
    /// Requests the traced run replays through the service.
    pub trace_requests: usize,
}

/// Untimed requests issued before the timed portion of a service workload.
pub const WARMUP_REQUESTS: usize = 100;

const SPARSE_CLASSES: &[Class] = &[
    Class { high: true, k: 4 },
    Class { high: false, k: 4 },
    Class { high: true, k: 5 },
    Class { high: false, k: 5 },
    Class { high: true, k: 6 },
    Class { high: false, k: 6 },
];
const DENSE_CLASSES: &[Class] = &[
    Class { high: true, k: 5 },
    Class { high: false, k: 5 },
    Class { high: false, k: 6 },
];
const REPLAY_CLASSES: &[Class] = &[Class { high: true, k: 5 }, Class { high: false, k: 6 }];

pub static WORKLOADS: [Workload; 6] = [
    Workload {
        name: "sparse_cold_heap",
        why: "Distinct requests on a large sparse heap graph: every request misses the plan cache and the two boundary BFS passes dominate the sojourn.",
        graph: &SPARSE,
        load: Load::Peg1Heap,
        requests_name: "sparse_cold",
        requests: Requests::Distinct {
            classes: SPARSE_CLASSES,
            count: 6_000,
        },
        limit: Some(1000),
        collect_paths: true,
        time_budget: None,
        clients: 1,
        tenant_cache_quota: 32,
        result_cache_bytes: 0,
        admission: false,
        trace_requests: 300,
    },
    Workload {
        name: "sparse_cold_frozen",
        why: "The same requests on the same graph served zero-copy from a PEG2 image: same layers, the frozen row path, and the zero-copy cold start as setup_s.",
        graph: &SPARSE,
        load: Load::Peg2Frozen,
        requests_name: "sparse_cold",
        requests: Requests::Distinct {
            classes: SPARSE_CLASSES,
            count: 6_000,
        },
        limit: Some(1000),
        collect_paths: true,
        time_budget: None,
        clients: 1,
        tenant_cache_quota: 32,
        result_cache_bytes: 0,
        admission: false,
        trace_requests: 300,
    },
    Workload {
        name: "dense_enum",
        why: "Unlimited count-only enumeration on a small dense graph: enumeration dominates, BFS is marginal, and both IDX-DFS and IDX-JOIN get chosen.",
        graph: &DENSE,
        load: Load::TextHeap,
        requests_name: "dense",
        requests: Requests::Distinct {
            classes: DENSE_CLASSES,
            count: 9_000,
        },
        limit: None,
        collect_paths: false,
        time_budget: Some(Duration::from_secs(2)),
        clients: 1,
        tenant_cache_quota: 32,
        result_cache_bytes: 0,
        admission: false,
        trace_requests: 300,
    },
    Workload {
        name: "dense_first1000",
        why: "The dense requests stopped at their first 1000 collected paths (the paper's response time): planning dominates and IDX-JOIN pays materialisation first.",
        graph: &DENSE,
        load: Load::TextHeap,
        requests_name: "dense",
        requests: Requests::Distinct {
            classes: DENSE_CLASSES,
            count: 9_000,
        },
        limit: Some(1000),
        collect_paths: true,
        time_budget: None,
        clients: 1,
        tenant_cache_quota: 32,
        result_cache_bytes: 0,
        admission: false,
        trace_requests: 300,
    },
    Workload {
        name: "replay_skewed",
        why: "Zipf replay from two client threads with a working set larger than both caches: result hits, plan hits and misses in one run, with admission on.",
        graph: &MID,
        load: Load::Peg1Heap,
        requests_name: "replay",
        requests: Requests::Zipf {
            classes: REPLAY_CLASSES,
            pool: 1_000,
            exponent: 1.1,
            draws: 120_000,
            warmup_draws: 1_500,
        },
        limit: Some(10_000),
        collect_paths: true,
        time_budget: None,
        clients: 2,
        tenant_cache_quota: 256,
        result_cache_bytes: 32 << 20,
        admission: true,
        trace_requests: 1_500,
    },
    Workload {
        name: "stream_mutating",
        why: "16-edge update bursts interleaved with cycle and watch-list queries on a DynamicGraph: reads through the overlay, plan-cache retention under writes.",
        graph: &SPARSE,
        load: Load::Peg1Dynamic,
        requests_name: "stream",
        requests: Requests::Stream {
            steps: 6_000,
            warmup_steps: 34,
            burst: 16,
            insert_share: 0.7,
            cycle_k: 5,
            watch_pairs: 64,
            watch_k: 4,
            watch_queries_per_step: 2,
        },
        limit: Some(1000),
        collect_paths: true,
        time_budget: None,
        clients: 1,
        tenant_cache_quota: 32,
        result_cache_bytes: 0,
        admission: false,
        trace_requests: 300,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_whys_fit_the_manifest() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(
                w.why.len() <= 200,
                "{} why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
    }

    #[test]
    fn workloads_sharing_a_request_list_share_the_graph_and_the_generator() {
        for a in &WORKLOADS {
            for b in &WORKLOADS {
                if a.requests_name == b.requests_name {
                    assert_eq!(a.graph.name, b.graph.name);
                    assert_eq!(format!("{:?}", a.requests), format!("{:?}", b.requests));
                }
            }
        }
    }
}
