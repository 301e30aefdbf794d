//! Order statistics, the report digest and the metric-name rule.

/// Samples a tail percentile should leave beyond it to be more than the
/// sample maximum in disguise.
pub const TAIL_BEYOND: usize = 10;

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least a `q` share of the samples at or below it. `0.0` for no
/// samples.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// Samples strictly above the nearest-rank `q` percentile of `n` samples;
/// the percentile is supported when this is at least [`TAIL_BEYOND`].
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// Nearest-rank median and `q` percentile of unsorted samples.
pub fn median_and_tail(mut xs: Vec<f64>, q: f64) -> (f64, f64) {
    xs.sort_by(f64::total_cmp);
    (nearest_rank(&xs, 0.5), nearest_rank(&xs, q))
}

/// Interpolated median (the midpoint of the two middle samples for even
/// counts), as host-clock medians over repetitions are reported.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Incremental FNV-1a-64.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a-64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.update(bytes);
    h.finish()
}

/// Whether `name` is a valid metric or workload name: 1–64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), 5.0);
        assert_eq!(nearest_rank(&xs, 0.51), 6.0);
        assert_eq!(nearest_rank(&xs, 0.0), 1.0);
        assert_eq!(nearest_rank(&xs, 1.0), 10.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn p95_needs_two_hundred_samples_for_ten_beyond() {
        // 200 samples support p95 exactly: rank 190, ten above it.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p50, p95) = median_and_tail(xs.clone(), 0.95);
        assert_eq!((p50, p95), (100.0, 190.0));
        assert_eq!(xs.iter().filter(|&&x| x > p95).count(), TAIL_BEYOND);
        assert_eq!(samples_beyond(200, 0.95), TAIL_BEYOND);
        assert!(samples_beyond(199, 0.95) < TAIL_BEYOND);
        // Sixteen samples: p95 is the maximum.
        assert_eq!(samples_beyond(16, 0.95), 0);
        assert_eq!(samples_beyond(0, 0.95), 0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn metric_names_follow_the_pattern() {
        for ok in [
            "setup_s",
            "serve.sim_queue_us_mean",
            "core.backend_run_us_p99",
            "a-b.c_9",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "µs",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
