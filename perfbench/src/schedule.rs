//! Seeded randomness for the open-loop workload: arrival times and
//! session draws. The same seed always gives the same schedule.

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    ///
    /// # Panics
    /// When `n` is 0.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        (self.next_u64() % n as u64) as usize
    }
}

/// `count` Poisson arrivals conditioned to fall in `(0, span_s]`, as
/// offsets in seconds, ascending. Exponential gaps are drawn and scaled
/// so that one more gap would end exactly at `span_s`: conditioned on
/// its count, a Poisson process is a sorted uniform sample, so the gaps
/// keep their exponential shape while every run offers the same number
/// of requests in the same time.
pub fn poisson_arrivals(seed: u64, count: usize, span_s: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ 0x5eed_a441_7a1c_0de5);
    let gaps: Vec<f64> = (0..=count).map(|_| -(1.0 - rng.next_f64()).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let mut at = 0.0;
    gaps[..count]
        .iter()
        .map(|g| {
            at += g;
            span_s * at / total
        })
        .collect()
}
