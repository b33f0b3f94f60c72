//! Metric names, units and bounds (mirrored by `BENCHMARK.json`), and the
//! two output forms: `<workload> <metric> <value> <unit>` lines for people
//! and one JSON object as the last line for the driver.

use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; 0 for per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// One bound for every end-to-end metric, and the largest the contract
/// allows: on the 2-core container this was sized on, ten runs of the same
/// code on ten seeds spread (interquartile distance over median) by 3-10%
/// on the latency and rate metrics, with slow drifts of the machine itself
/// on top, and a bound has to sit well clear of that to mean anything.
/// `benchmark/README.md` has the measured spreads.
const BOUND: f64 = 0.25;

/// What a user of the serving stack sees. Every workload emits all of them.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", Better::Lower, BOUND),
    e2e("query_p50_ms", "ms", Better::Lower, BOUND),
    e2e("query_p95_ms", "ms", Better::Lower, BOUND),
    e2e("throughput_qps", "1/s", Better::Higher, BOUND),
    e2e("paths_per_s", "1/s", Better::Higher, BOUND),
    e2e("peak_rss_mb", "MB", Better::Lower, BOUND),
];

use Better::{Higher, Lower};

/// The per-layer ledger of a traced run; layer = module name.
pub const PER_LAYER: [MetricDef; 48] = [
    layer("graph.bfs_ns_per_edge.heap", "ns/edge", Lower),
    layer("graph.bfs_ns_per_edge.frozen", "ns/edge", Lower),
    layer("graph.bfs_ns_per_edge.overlay", "ns/edge", Lower),
    layer("graph.bfs_edges_scanned_p50", "count", Lower),
    layer("graph.bfs_share", "ratio", Lower),
    layer("graph.bytes_per_edge.heap", "B/edge", Lower),
    layer("graph.bytes_per_edge.frozen", "B/edge", Lower),
    layer("graph.peg2_load_ms", "ms", Lower),
    layer("graph.peg1_load_ms", "ms", Lower),
    layer("graph.text_parse_ms", "ms", Lower),
    layer("graph.dynamic_update_us", "us", Lower),
    layer("index.build_self_us", "us", Lower),
    layer("index.edges_kept_ratio", "ratio", Lower),
    layer("index.bytes_p50", "bytes", Lower),
    layer("estimator.preliminary_ns", "ns", Lower),
    layer("estimator.full_us", "us", Lower),
    layer("estimator.qerror_p50", "ratio", Lower),
    layer("estimator.qerror_p90", "ratio", Lower),
    layer("optimizer.join_order_us", "us", Lower),
    layer("optimizer.join_share", "ratio", Higher),
    layer("optimizer.mischoice_ratio", "ratio", Lower),
    layer("enumerate.dfs_ns_per_path", "ns/path", Lower),
    layer("enumerate.join_ns_per_path", "ns/path", Lower),
    layer("enumerate.edges_per_result", "ratio", Lower),
    layer("enumerate.invalid_partial_ratio", "ratio", Lower),
    layer("enumerate.peak_materialized_mb", "MB", Lower),
    layer("enumerate.first1000_us.dfs", "us", Lower),
    layer("enumerate.first1000_us.join", "us", Lower),
    layer("enumerate.share", "ratio", Lower),
    layer("plan.hit_ratio", "ratio", Higher),
    layer("plan.evictions", "count", Lower),
    layer("plan.invalidations", "count", Lower),
    layer("plan.retained_ratio", "ratio", Higher),
    layer("plan.hit_sojourn_us", "us", Lower),
    layer("plan.miss_sojourn_us", "us", Lower),
    layer("results.hit_ratio", "ratio", Higher),
    layer("results.hit_sojourn_us", "us", Lower),
    layer("results.evictions", "count", Lower),
    layer("results.tee_overhead_ratio", "ratio", Lower),
    layer("admission.decide_release_ns", "ns", Lower),
    layer("admission.admitted", "count", Higher),
    layer("admission.shed", "count", Lower),
    layer("catalog.submit_us", "us", Lower),
    layer("catalog.queue_wait_us", "us", Lower),
    layer("catalog.execute_us", "us", Lower),
    layer("catalog.wake_us", "us", Lower),
    layer("catalog.unaccounted_ratio", "ratio", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// The measured values of one run, in the order of the table they fill.
#[derive(Debug, Clone)]
pub struct Measured {
    table: &'static [MetricDef],
    values: Vec<Option<f64>>,
}

impl Measured {
    pub fn new(table: &'static [MetricDef]) -> Self {
        Measured {
            table,
            values: vec![None; table.len()],
        }
    }

    /// Records `value` under `name`; the name must be in the table, so a
    /// typo fails the first run instead of silently dropping a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let at = self
            .table
            .iter()
            .position(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values[at] = Some(value);
    }

    /// Every declared metric with its value; an error names the ones that
    /// were never set or are not finite (JSON cannot carry those).
    pub fn complete(&self) -> Result<Vec<(&'static MetricDef, f64)>, String> {
        let mut out = Vec::with_capacity(self.table.len());
        let mut missing = Vec::new();
        for (def, value) in self.table.iter().zip(&self.values) {
            match value {
                Some(v) if v.is_finite() => out.push((def, *v)),
                _ => missing.push(def.name),
            }
        }
        if missing.is_empty() {
            Ok(out)
        } else {
            Err(format!("metrics not measured: {}", missing.join(", ")))
        }
    }
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static MetricDef, f64)>,
}

impl RunResult {
    /// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        )
        .expect("String");
        for (i, (def, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            )
            .expect("String");
        }
        out.push_str("}}");
        out
    }

    pub fn print_lines(&self) {
        for (def, value) in &self.metrics {
            println!("{} {} {value} {}", self.workload, def.name, def.unit);
        }
    }
}

/// The command the driver runs from the repository root (it appends
/// `--workload W --seed N --seconds S --trace 0|1`).
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

/// Seconds one run measures for.
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, generated from the tables above and the workload list
/// so that the manifest and the program cannot drift apart.
pub fn manifest_json() -> String {
    let better = |m: &MetricDef| match m.better {
        Better::Lower => "lower",
        Better::Higher => "higher",
    };
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command: Vec<String> = COMMAND.iter().map(|part| format!("\"{part}\"")).collect();
    let workloads = crate::workloads::WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_fit_the_manifest_rules() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(ok_name(m.name), "{}", m.name);
            assert!(ok_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(
                all[..i].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let on_disk =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `pathenum-benchmark manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
        for w in &crate::workloads::WORKLOADS {
            assert!(
                !w.why.contains(['"', '\\']),
                "{} needs JSON escaping",
                w.name
            );
        }
    }

    #[test]
    fn json_line_has_the_contract_shape() {
        let mut measured = Measured::new(&END_TO_END[..2]);
        measured.set("setup_s", 0.25);
        assert!(measured.complete().is_err(), "query_p50_ms is missing");
        measured.set("query_p50_ms", 1.5);
        let result = RunResult {
            workload: "w",
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: measured.complete().unwrap(),
        };
        assert_eq!(
            result.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"query_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        measured.set("setup_s", f64::NAN);
        assert!(measured.complete().is_err());
    }
}
