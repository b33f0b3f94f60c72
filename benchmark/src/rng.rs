//! The benchmark's own randomness: SplitMix64 and the two skewed
//! samplers the workloads draw from. Owned here (not `vendor/rand`) so a
//! refactor of the repo's generators can never change the inputs.

/// SplitMix64 (Steele, Lea, Flood 2014): 64 bits of state, full period,
/// and good enough statistics for input generation.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// An independent stream for one named purpose under one `--seed`, so
    /// adding a consumer never shifts the draws of another.
    pub fn stream(seed: u64, label: &str) -> Self {
        SplitMix64::new(seed ^ crate::hash::fnv1a(label.as_bytes()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 for the
    /// sizes used here). `n` must be non-zero.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

/// Zipf over ranks `0..n` with exponent `s`: rank `r` has weight
/// `1 / (r + 1)^s`. Sampled by binary search on the cumulative weights.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let total = *self.cumulative.last().expect("non-empty Zipf support");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// Squared-uniform over `0..n`: `floor(u^2 * n)`, a mild skew toward low
/// indices (index 0 is drawn with probability `1/sqrt(n)`).
pub fn squared_uniform(rng: &mut SplitMix64, n: usize) -> usize {
    let u = rng.unit();
    ((u * u * n as f64) as usize).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_matches_the_reference_vector() {
        // First outputs of the published SplitMix64 for seed 1234567.
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_per_label() {
        let draw = |seed, label| {
            let mut rng = SplitMix64::stream(seed, label);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "graph"), draw(7, "graph"));
        assert_ne!(draw(7, "graph"), draw(8, "graph"));
        assert_ne!(draw(7, "graph"), draw(7, "requests"));
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::new(1);
        for n in [1usize, 2, 3, 1000] {
            for _ in 0..1000 {
                assert!(rng.below(n) < n);
            }
        }
    }

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let zipf = Zipf::new(1000, 1.1);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..20_000)
                .map(|_| zipf.sample(&mut rng))
                .collect::<Vec<_>>()
        };
        let a = draw(3);
        assert_eq!(a, draw(3));
        let top10 = a.iter().filter(|&&r| r < 10).count() as f64 / a.len() as f64;
        // Exact mass of the first 10 of 1000 ranks at s = 1.1 is 0.481.
        assert!((0.46..0.50).contains(&top10), "top-10 mass {top10}");
        assert!(a.iter().all(|&r| r < 1000));
    }

    #[test]
    fn squared_uniform_prefers_low_indices() {
        let mut rng = SplitMix64::new(5);
        let draws: Vec<usize> = (0..10_000).map(|_| squared_uniform(&mut rng, 64)).collect();
        assert!(draws.iter().all(|&i| i < 64));
        let low = draws.iter().filter(|&&i| i < 16).count() as f64 / draws.len() as f64;
        // P(u^2 < 1/4) = 1/2.
        assert!((0.47..0.53).contains(&low), "low-quarter mass {low}");
    }
}
