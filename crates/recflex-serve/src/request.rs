//! Seeded request-arrival streams.
//!
//! Online recommendation traffic is a Poisson process of requests whose
//! batch sizes are heavy-tailed (Section II-C: "the varied batch sizes …
//! contribute to the dynamics", Section VI-D: industrial streams mix many
//! small requests with rare multi-thousand-sample stragglers). A
//! [`WorkloadSpec`] captures both axes — exponential inter-arrival gaps
//! and a size distribution drawn from the same [`PoolingDist`] family the
//! data layer uses for pooling factors — and synthesizes a fully
//! deterministic request stream from one seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recflex_data::{Batch, ModelConfig, PoolingDist};

use crate::runtime::ServeError;

/// One timestamped inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Stream-unique id, in arrival order.
    pub id: u64,
    /// Arrival time, µs since stream start (monotone within a stream).
    pub arrival_us: f64,
    /// The request payload.
    pub batch: Batch,
}

impl Request {
    /// Reject a non-finite arrival time. At `+∞` the event loop would
    /// wait forever for the arrival; `NaN` and `−∞` would be served with
    /// a NaN or infinite latency.
    pub(crate) fn check_arrival(&self) -> Result<(), ServeError> {
        if self.arrival_us.is_finite() {
            Ok(())
        } else {
            Err(ServeError::Request {
                id: self.id,
                reason: format!("arrival_us must be finite, not {}", self.arrival_us),
            })
        }
    }
}

/// The statistical shape of one request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Mean inter-arrival gap, µs (Poisson arrivals ⇒ exponential gaps).
    pub mean_interarrival_us: f64,
    /// Distribution of `batch_size / size_unit` — reuse the heavy-tailed
    /// families of [`PoolingDist`] (e.g. `PowerLaw` for a long-tail mix).
    pub size_dist: PoolingDist,
    /// Multiplier turning a size-distribution draw into samples, so a
    /// `PowerLaw { max: 80 }` draw with `size_unit = 32` spans 32–2560
    /// samples — the Section VI-D long-tail regime.
    pub size_unit: u32,
}

impl WorkloadSpec {
    /// A Section VI-D-style mix: mostly small requests, occasionally a
    /// multi-thousand-sample tail, at the given offered load.
    pub fn long_tail(mean_interarrival_us: f64) -> Self {
        WorkloadSpec {
            mean_interarrival_us,
            size_dist: PoolingDist::PowerLaw {
                alpha: 1.6,
                max: 80,
            },
            size_unit: 32,
        }
    }

    /// Synthesize `n` requests for `model` from `seed`. Identical
    /// arguments produce byte-identical streams.
    pub fn stream(&self, model: &ModelConfig, n: usize, seed: u64) -> Vec<Request> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_57EA);
        let mut t = 0.0f64;
        (0..n)
            .map(|i| {
                let u: f64 = rng.gen_range(0.0..1.0);
                t += -self.mean_interarrival_us * (1.0 - u).ln();
                let batch_size = (self.size_dist.sample(&mut rng) * self.size_unit).max(1);
                let batch_seed = seed
                    .wrapping_mul(0x2545_F491_4F6C_DD1D)
                    .wrapping_add(i as u64)
                    .rotate_left(23);
                Request {
                    id: i as u64,
                    arrival_us: t,
                    batch: Batch::generate(model, batch_size, batch_seed),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recflex_data::ModelPreset;

    #[test]
    fn streams_are_deterministic_and_monotone() {
        let m = ModelPreset::A.scaled(0.01);
        let spec = WorkloadSpec::long_tail(500.0);
        let a = spec.stream(&m, 32, 7);
        let b = spec.stream(&m, 32, 7);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival_us <= w[1].arrival_us));
        assert_ne!(
            a,
            spec.stream(&m, 32, 8),
            "different seed, different stream"
        );
    }

    #[test]
    fn long_tail_mix_is_heavy_tailed() {
        let m = ModelPreset::A.scaled(0.005);
        let reqs = WorkloadSpec::long_tail(100.0).stream(&m, 300, 3);
        let small = reqs.iter().filter(|r| r.batch.batch_size <= 64).count();
        let big = reqs.iter().filter(|r| r.batch.batch_size >= 512).count();
        assert!(small > reqs.len() / 2, "mostly small: {small}/300");
        assert!(big > 0, "tail populated: {big}");
    }

    #[test]
    fn offered_load_tracks_mean_gap() {
        let m = ModelPreset::A.scaled(0.005);
        let reqs = WorkloadSpec::long_tail(200.0).stream(&m, 500, 11);
        let span = reqs.last().unwrap().arrival_us;
        let mean_gap = span / 500.0;
        assert!(
            (mean_gap - 200.0).abs() < 30.0,
            "empirical mean gap {mean_gap}"
        );
    }
}
