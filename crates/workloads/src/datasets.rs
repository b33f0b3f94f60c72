//! Synthetic proxies for the paper's real-world datasets (Table 2).
//!
//! The originals (SNAP / networkrepository dumps, up to 1.96B edges) are
//! not redistributable in this repository and would not fit a laptop-scale
//! reproduction anyway. Each proxy is generated to match its original's
//! *type* (citation / web / social / recommendation / biological) and
//! degree regime (average degree, heavy-tailed or near-uniform), scaled
//! down roughly three orders of magnitude. This preserves the phenomena
//! the evaluation measures: the relative behavior of the algorithms is
//! driven by density and degree skew, not by vertex identities.
//!
//! All proxies are deterministic (fixed seeds), so experiment runs are
//! reproducible.

use pathenum_graph::generators::{
    erdos_renyi, power_law, watts_strogatz, PowerLawConfig, SmallWorldConfig,
};
use pathenum_graph::CsrGraph;

/// Graph family of a dataset, mirroring Table 2's "Type" column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// Near-uniform degrees (citation networks): Erdős–Rényi proxy.
    Citation,
    /// Heavy-tailed, low reciprocity (web graphs): power-law proxy.
    Web,
    /// Heavy-tailed, reciprocal (social networks): power-law proxy.
    Social,
    /// Dense interaction graphs (recommendation / biology): dense ER.
    Dense,
    /// Clustered interaction graphs with short diameters (`tr`):
    /// small-world proxy.
    Interaction,
}

/// Static description of one dataset proxy.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Short name from Table 2 (`up`, `db`, ..., `tm`).
    pub name: &'static str,
    /// The real-world graph the proxy stands in for.
    pub stands_for: &'static str,
    /// Graph family.
    pub kind: GraphKind,
    /// Proxy vertex count.
    pub vertices: usize,
    /// Average out-degree target (matches Table 2's `d_avg` regime).
    pub avg_degree: usize,
    /// Generator seed.
    pub seed: u64,
}

impl DatasetSpec {
    /// Generates the proxy graph.
    pub fn build(&self) -> CsrGraph {
        match self.kind {
            GraphKind::Citation | GraphKind::Dense => {
                erdos_renyi(self.vertices, self.vertices * self.avg_degree, self.seed)
            }
            GraphKind::Web => power_law(PowerLawConfig::web(
                self.vertices,
                self.avg_degree.max(1),
                self.seed,
            )),
            GraphKind::Social => power_law(PowerLawConfig::social(
                self.vertices,
                // Reciprocity adds ~30% edges; aim the base rate lower.
                (self.avg_degree * 3 / 4).max(1),
                self.seed,
            )),
            GraphKind::Interaction => watts_strogatz(SmallWorldConfig {
                num_vertices: self.vertices,
                neighbors_per_side: (self.avg_degree / 2).max(1),
                rewire_probability: 0.25,
                seed: self.seed,
            }),
        }
    }
}

/// The 15 dataset proxies, in Table 2 order.
pub const DATASETS: &[DatasetSpec] = &[
    DatasetSpec {
        name: "up",
        stands_for: "US Patents (4M/17M, citation)",
        kind: GraphKind::Citation,
        vertices: 8000,
        avg_degree: 9,
        seed: 101,
    },
    DatasetSpec {
        name: "db",
        stands_for: "DBpedia (4M/14M, misc)",
        kind: GraphKind::Web,
        vertices: 8000,
        avg_degree: 6,
        seed: 102,
    },
    DatasetSpec {
        name: "gg",
        stands_for: "Web-google (876K/5M, web)",
        kind: GraphKind::Web,
        vertices: 6000,
        avg_degree: 6,
        seed: 103,
    },
    DatasetSpec {
        name: "st",
        stands_for: "Web-stanford (282K/2.3M, web)",
        kind: GraphKind::Web,
        vertices: 3000,
        avg_degree: 9,
        seed: 104,
    },
    DatasetSpec {
        name: "tw",
        stands_for: "Twitter-social (465K/835K)",
        kind: GraphKind::Social,
        vertices: 5000,
        avg_degree: 3,
        seed: 105,
    },
    DatasetSpec {
        name: "bk",
        stands_for: "Baidu-baike (416K/3M, web)",
        kind: GraphKind::Web,
        vertices: 4000,
        avg_degree: 9,
        seed: 106,
    },
    DatasetSpec {
        name: "tr",
        stands_for: "Wiki-trust (139K/740K, interaction)",
        kind: GraphKind::Interaction,
        vertices: 2200,
        avg_degree: 6,
        seed: 107,
    },
    DatasetSpec {
        name: "ep",
        stands_for: "Soc-Epinions1 (75K/508K, social)",
        kind: GraphKind::Social,
        vertices: 2500,
        avg_degree: 8,
        seed: 108,
    },
    DatasetSpec {
        name: "uk",
        stands_for: "Web-uk-2005 (121K/334K, d=181)",
        kind: GraphKind::Dense,
        vertices: 800,
        avg_degree: 60,
        seed: 109,
    },
    DatasetSpec {
        name: "wt",
        stands_for: "WikiTalk (2M/5M)",
        kind: GraphKind::Social,
        vertices: 6000,
        avg_degree: 3,
        seed: 110,
    },
    DatasetSpec {
        name: "sl",
        stands_for: "Soc-Slashdot0922 (82K/948K)",
        kind: GraphKind::Social,
        vertices: 2000,
        avg_degree: 12,
        seed: 111,
    },
    DatasetSpec {
        name: "lj",
        stands_for: "LiveJournal (5M/69M, social)",
        kind: GraphKind::Social,
        vertices: 4000,
        avg_degree: 16,
        seed: 112,
    },
    DatasetSpec {
        name: "da",
        stands_for: "Rec-dating (169K/17M, d=206)",
        kind: GraphKind::Dense,
        vertices: 700,
        avg_degree: 80,
        seed: 113,
    },
    DatasetSpec {
        name: "ye",
        stands_for: "Bio-grid-yeast (6K/314K, d=105)",
        kind: GraphKind::Dense,
        vertices: 600,
        avg_degree: 55,
        seed: 114,
    },
    DatasetSpec {
        name: "tm",
        stands_for: "Twitter-mpi (52M/1.96B, scalability)",
        kind: GraphKind::Social,
        vertices: 50_000,
        avg_degree: 20,
        seed: 115,
    },
];

/// Looks a dataset up by its Table 2 short name.
pub fn spec(name: &str) -> Option<&'static DatasetSpec> {
    DATASETS.iter().find(|d| d.name == name)
}

/// Builds a dataset proxy by name.
pub fn build(name: &str) -> Option<CsrGraph> {
    spec(name).map(|d| d.build())
}

/// The representative "long query time" graph of Section 7 (`ep`).
pub fn ep() -> CsrGraph {
    build("ep").expect("ep is registered")
}

/// The representative "short query time" graph of Section 7 (`gg`).
pub fn gg() -> CsrGraph {
    build("gg").expect("gg is registered")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avg_out_degree(g: &CsrGraph) -> f64 {
        g.num_edges() as f64 / g.num_vertices().max(1) as f64
    }

    #[test]
    fn registry_has_all_fifteen() {
        assert_eq!(DATASETS.len(), 15);
        let mut names: Vec<&str> = DATASETS.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15, "names must be unique");
    }

    #[test]
    fn lookup_by_name() {
        assert!(spec("ep").is_some());
        assert!(spec("nope").is_none());
        assert_eq!(spec("tm").unwrap().vertices, 50_000);
    }

    #[test]
    fn proxies_hit_their_size_targets() {
        for d in DATASETS.iter().filter(|d| d.name != "tm") {
            let g = d.build();
            assert_eq!(g.num_vertices(), d.vertices, "{}", d.name);
            let avg_out_degree = avg_out_degree(&g);
            let target = d.avg_degree as f64;
            assert!(
                avg_out_degree > target * 0.5 && avg_out_degree < target * 2.0,
                "{}: avg degree {} vs target {}",
                d.name,
                avg_out_degree,
                target
            );
        }
    }

    #[test]
    fn social_and_web_proxies_are_heavy_tailed() {
        for name in ["ep", "gg"] {
            let g = build(name).unwrap();
            let max_in_degree = g.vertices().map(|v| g.in_degree(v)).max().unwrap_or(0);
            assert!(
                max_in_degree as f64 > 10.0 * avg_out_degree(&g),
                "{name}: max in-degree {} vs avg {}",
                max_in_degree,
                avg_out_degree(&g)
            );
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let a = ep();
        let b = ep();
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(
            a.edges().take(50).collect::<Vec<_>>(),
            b.edges().take(50).collect::<Vec<_>>()
        );
    }
}
