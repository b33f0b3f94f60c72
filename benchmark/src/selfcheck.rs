//! `selfcheck`: two full sets of end-to-end runs of the same code, back to
//! back, with the relative difference of every (metric, workload) pair
//! printed beside its bound. The benchmark can only resolve a change that
//! is larger than what two runs of the same code disagree by.

use crate::report::{MetricDef, END_TO_END};
use crate::workloads::WORKLOADS;
use crate::{measure_in_child, Options};

/// The `value` of metric `name` in a result line printed by `run`.
pub fn metric_value(json: &str, name: &str) -> Option<f64> {
    let after = json.split_once(&format!("\"{name}\": {{\"value\": "))?.1;
    let end = after.find([',', '}'])?;
    after[..end].trim().parse().ok()
}

/// `|second - first| / first`, beside whether it stays within the bound.
pub fn disagreement(def: &MetricDef, first: f64, second: f64) -> (f64, bool) {
    let relative = (second - first).abs() / first.abs();
    (relative, relative <= def.bound)
}

pub fn run(options: &Options) -> Result<bool, String> {
    let options = Options {
        trace: false,
        ..options.clone()
    };
    let selected: Vec<_> = WORKLOADS
        .iter()
        .filter(|w| options.workload.is_none_or(|only| only.name == w.name))
        .collect();
    let mut sets: Vec<Vec<String>> = Vec::new();
    for set in 1..=2 {
        println!("selfcheck: set {set} of 2");
        let mut lines = Vec::new();
        for workload in &selected {
            lines.push(measure_in_child(workload, &options)?);
        }
        sets.push(lines);
    }

    let mut agreed = true;
    println!("selfcheck: workload metric first second relative_difference bound verdict");
    for (at, workload) in selected.iter().enumerate() {
        for def in &END_TO_END {
            let value = |set: usize| {
                metric_value(&sets[set][at], def.name)
                    .ok_or_else(|| format!("{}: no {} in the result", workload.name, def.name))
            };
            let (first, second) = (value(0)?, value(1)?);
            let (relative, within) = disagreement(def, first, second);
            agreed &= within;
            println!(
                "selfcheck: {} {} {first} {second} {relative:.4} {} {}",
                workload.name,
                def.name,
                def.bound,
                if within { "ok" } else { "DISAGREE" }
            );
        }
    }
    Ok(agreed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_values_back_from_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
                    \"query_p50_ms\": {\"value\": 1.5e-3, \"unit\": \"ms\"}}}";
        assert_eq!(metric_value(line, "setup_s"), Some(0.25));
        assert_eq!(metric_value(line, "query_p50_ms"), Some(0.0015));
        assert_eq!(metric_value(line, "query_p99_ms"), None);
    }

    #[test]
    fn disagreement_is_symmetric_and_judged_against_the_bound() {
        let def = &END_TO_END[1];
        assert_eq!(def.name, "query_p50_ms");
        let (up, ok_up) = disagreement(def, 10.0, 10.0 * (1.0 + def.bound / 2.0));
        let (down, ok_down) = disagreement(def, 10.0, 10.0 * (1.0 - def.bound / 2.0));
        assert!((up - down).abs() < 1e-12);
        assert!(ok_up && ok_down);
        assert!(!disagreement(def, 10.0, 10.0 * (1.0 + 2.0 * def.bound)).1);
    }
}
