//! Shared experiment configuration.

use std::time::Duration;

use pathenum_workloads::MeasureConfig;

/// Knobs shared by every experiment. The defaults are scaled so that the
/// full `reproduce all` run finishes in minutes on a laptop while still
/// exhibiting the paper's phenomena (timeouts on heavy graphs included).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Queries per query set (the paper uses 1000).
    pub queries_per_set: usize,
    /// Per-query wall-clock cap (the paper uses 120 s).
    pub time_limit: Duration,
    /// Result count defining response time (the paper uses 1000).
    pub response_limit: u64,
    /// Default hop constraint (the paper reports k = 6 by default).
    pub default_k: u32,
    /// Base RNG seed for query generation.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            queries_per_set: 15,
            time_limit: Duration::from_millis(300),
            response_limit: 1000,
            default_k: 6,
            seed: 42,
        }
    }
}

impl ExperimentConfig {
    /// A fast smoke-test configuration (used by `reproduce --quick` and
    /// the integration tests).
    pub fn quick() -> Self {
        ExperimentConfig {
            queries_per_set: 4,
            time_limit: Duration::from_millis(60),
            response_limit: 200,
            default_k: 4,
            seed: 42,
        }
    }

    /// The equivalent per-query measurement configuration.
    pub fn measure(&self) -> MeasureConfig {
        MeasureConfig {
            time_limit: self.time_limit,
            response_limit: self.response_limit,
        }
    }

    /// The `k` sweep the paper uses (3..=8), trimmed in quick mode.
    pub fn k_sweep(&self) -> Vec<u32> {
        if self.queries_per_set <= 4 {
            vec![3, 4, 5]
        } else {
            (3..=8).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_scaled_down_from_paper() {
        let c = ExperimentConfig::default();
        assert!(c.time_limit < Duration::from_secs(120));
        assert_eq!(c.default_k, 6);
        assert_eq!(c.k_sweep(), vec![3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn quick_mode_trims_the_sweep() {
        let c = ExperimentConfig::quick();
        assert_eq!(c.k_sweep(), vec![3, 4, 5]);
        assert!(c.time_limit <= Duration::from_millis(100));
    }

    #[test]
    fn measure_config_mirrors_fields() {
        let c = ExperimentConfig::default();
        let m = c.measure();
        assert_eq!(m.time_limit, c.time_limit);
        assert_eq!(m.response_limit, c.response_limit);
    }
}
