//! Seeded randomness and the per-class latency aggregates.

/// SplitMix64: a small, fully specified generator, so one seed gives
/// the same inputs and job order on every host.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, split by `stream` so independent uses of
    /// one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile (`0 < q ≤ 1`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no values");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Latency samples of one job class, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct ClassSamples {
    /// Class name.
    pub name: String,
    /// One sample per completed job.
    pub ms: Vec<f64>,
}

/// `job_p50_ms` and `job_tail_ms`: each class's median and tail
/// percentile, aggregated across classes by geometric mean. Also
/// returns the fewest samples any class had beyond its tail.
pub fn class_aggregates(classes: &[ClassSamples], tail_q: f64) -> (f64, f64, usize) {
    let p50: Vec<f64> = classes.iter().map(|c| median(&c.ms)).collect();
    let tails: Vec<f64> = classes.iter().map(|c| percentile(&c.ms, tail_q)).collect();
    let beyond = classes
        .iter()
        .zip(&tails)
        .map(|(c, t)| c.ms.iter().filter(|&&v| v > *t).count())
        .min()
        .unwrap_or(0);
    (geomean(&p50), geomean(&tails), beyond)
}

/// `VmHWM` of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next()).collect();
        let mut r = Rng::new(7, 1);
        assert_eq!(a[0], r.next());
        assert_ne!(Rng::new(7, 1).next(), Rng::new(8, 1).next());
        assert_ne!(Rng::new(7, 1).next(), Rng::new(7, 2).next());
    }
}
