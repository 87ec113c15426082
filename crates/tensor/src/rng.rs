//! A small deterministic pseudo-random number generator.
//!
//! The engine needs reproducible initialisation and synthetic-data sampling
//! without pulling a heavyweight dependency into the innermost crate. `Rng`
//! implements the xoshiro256++ generator with a SplitMix64 seeding routine,
//! which is more than adequate for weight initialisation and workload
//! generation.

/// Deterministic pseudo-random number generator (xoshiro256++).
///
/// # Example
///
/// ```
/// use pe_tensor::Rng;
/// let mut rng = Rng::seed_from_u64(42);
/// let x = rng.next_f32();
/// assert!((0.0..1.0).contains(&x));
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
    cached_normal: Option<f32>,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // SplitMix64 to fill the state, as recommended by the xoshiro authors.
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            state: [next(), next(), next(), next()],
            cached_normal: None,
        }
    }

    /// Next raw 64-bit output.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let result = self.state[0]
            .wrapping_add(self.state[3])
            .rotate_left(23)
            .wrapping_add(self.state[0]);
        let t = self.state[1] << 17;
        self.state[2] ^= self.state[0];
        self.state[3] ^= self.state[1];
        self.state[1] ^= self.state[2];
        self.state[0] ^= self.state[3];
        self.state[2] ^= t;
        self.state[3] = self.state[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f32(&mut self) -> f32 {
        // Use the upper 24 bits for a uniformly distributed mantissa.
        ((self.next_u64() >> 40) as f32) * (1.0 / (1u64 << 24) as f32)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn next_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "next_usize called with n = 0");
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal sample (Box-Muller, with caching of the second value).
    pub fn normal(&mut self) -> f32 {
        if let Some(v) = self.cached_normal.take() {
            return v;
        }
        // Avoid log(0).
        let u1 = (1.0 - self.next_f32()).max(f32::MIN_POSITIVE);
        let u2 = self.next_f32();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        self.cached_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub(crate) fn normal_with(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// Samples `true` with probability `p`.
    pub fn bernoulli(&mut self, p: f32) -> bool {
        self.next_f32() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Rng {
        /// Uniform float in `[lo, hi)`.
        pub(crate) fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
            lo + (hi - lo) * self.next_f32()
        }

        /// Fisher–Yates shuffle of a slice.
        pub(crate) fn shuffle<T>(&mut self, xs: &mut [T]) {
            for i in (1..xs.len()).rev() {
                let j = self.next_usize(i + 1);
                xs.swap(i, j);
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = rng.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(5);
        let mut xs: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn next_usize_bounds() {
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(rng.next_usize(7) < 7);
        }
    }
}
