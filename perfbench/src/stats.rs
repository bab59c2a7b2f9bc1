//! Seeded input generation and order statistics.

/// SplitMix64: every input the benchmark hands the program derives from
/// the workload seed through this generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Exponential gap with the given mean (a Poisson arrival process).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -self.unit().ln() * mean
    }

    /// `len` lowercase letters.
    pub fn letters(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| (b'a' + (self.next_u64() % 26) as u8) as char)
            .collect()
    }
}

/// Nearest-rank quantile `q` of unordered values (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Slices [`sliced_p99`] cuts a window into.
const SLICES: usize = 16;

/// The p99 of a window of samples in arrival order, as the median of the
/// p99s of [`SLICES`] consecutive slices: a burst of contention from
/// outside the process (on a shared 2-CPU host) moves one slice, not the
/// figure.
pub fn sliced_p99(samples: &[f64]) -> f64 {
    let per = samples.len().div_ceil(SLICES).max(1);
    let tails: Vec<f64> = samples.chunks(per).map(|c| percentile(c, 0.99)).collect();
    median(&tails)
}

/// Median of unordered values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_take_the_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn one_slow_slice_does_not_move_the_sliced_p99() {
        let mut v = vec![1.0; 1600];
        v[..100].fill(50.0);
        assert_eq!(sliced_p99(&v), 1.0);
        assert_eq!(percentile(&v, 0.99), 50.0);
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let (mut a, mut b) = (SplitMix64::new(7), SplitMix64::new(7));
        assert_eq!(a.letters(32), b.letters(32));
        assert_eq!(a.exp(1.0).to_bits(), b.exp(1.0).to_bits());
        assert_ne!(
            SplitMix64::new(8).letters(32),
            SplitMix64::new(7).letters(32)
        );
    }
}
