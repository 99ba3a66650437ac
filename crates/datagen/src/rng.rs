//! A tiny, deterministic PRNG (SplitMix64).
//!
//! The generators must produce identical datasets for identical seeds across
//! platforms and dependency upgrades, because the experiments (`crates/bench`),
//! the golden-count tests and the benchmark report numbers against specific
//! seeds, and a generated `EXPERIMENTS.md` (ROADMAP item 10(c)) will record
//! them. SplitMix64 is 10 lines, passes BigCrush for this usage, and never
//! changes underneath us.

/// SplitMix64 pseudo-random number generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// Approximately standard-normal value (sum of 12 uniforms, shifted).
    pub fn gaussian(&mut self) -> f64 {
        let mut s = 0.0;
        for _ in 0..12 {
            s += self.next_f64();
        }
        s - 6.0
    }

    /// Bernoulli draw with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn uniform_values_are_in_range() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            let w = r.range(-5.0, 5.0);
            assert!((-5.0..5.0).contains(&w));
            let i = r.index(10);
            assert!(i < 10);
        }
        assert_eq!(r.index(0), 0);
    }

    #[test]
    fn gaussian_is_roughly_centred() {
        let mut r = SplitMix64::new(123);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.gaussian()).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "sample mean {mean} too far from 0");
    }

    #[test]
    fn chance_respects_probability() {
        let mut r = SplitMix64::new(5);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "got {hits} hits for p=0.25");
    }
}
