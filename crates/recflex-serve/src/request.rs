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
    /// This request as the serving tier reads it, payload borrowed.
    pub fn view(&self) -> RequestRef<'_> {
        RequestRef {
            id: self.id,
            arrival_us: self.arrival_us,
            batch: &self.batch,
        }
    }
}

/// One request as the serving tier reads it: a [`Request`] whose payload
/// is borrowed. The tier's event loop runs over views, so a caller that
/// offers a tier batches it already holds (a pipeline stage, a fleet
/// member) lends them instead of copying them.
#[derive(Debug, Clone, Copy)]
pub struct RequestRef<'a> {
    /// Stream-unique id, in arrival order.
    pub id: u64,
    /// Arrival time, µs since stream start (monotone within a stream).
    pub arrival_us: f64,
    /// The request payload.
    pub batch: &'a Batch,
}

impl RequestRef<'_> {
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
        self.shaped_stream(model, n, seed, |_| 1.0)
    }

    /// [`Self::stream`] with each exponential gap divided by `rate(t)`, the
    /// arrival-rate multiplier at the current time `t`. A rate of exactly
    /// 1.0 is an IEEE identity: the stream keeps every bit of the unshaped
    /// one.
    pub(crate) fn shaped_stream(
        &self,
        model: &ModelConfig,
        n: usize,
        seed: u64,
        rate: impl Fn(f64) -> f64,
    ) -> Vec<Request> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_57EA);
        let mut t = 0.0f64;
        (0..n)
            .map(|i| {
                let u: f64 = rng.gen_range(0.0..1.0);
                let gap = -self.mean_interarrival_us * (1.0 - u).ln();
                t += gap / rate(t);
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
    use crate::workload::{DiurnalCurve, FlashCrowd, FleetWorkload, ScenarioSpec, TrafficShape};
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

    /// FNV-1a over a batch's CSR offsets and indices, feature by feature.
    fn lookups_hash(batch: &Batch) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for f in &batch.features {
            for &x in f.offsets.iter().chain(&f.indices) {
                for b in x.to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Each request's `(arrival_us bits, batch_size, lookups_hash)`.
    fn pinned(reqs: &[Request]) -> Vec<(u64, u32, u64)> {
        reqs.iter()
            .map(|r| {
                let b = &r.batch;
                (r.arrival_us.to_bits(), b.batch_size, lookups_hash(b))
            })
            .collect()
    }

    /// `WorkloadSpec::long_tail(300.0).stream(&ModelPreset::A.scaled(0.01),
    /// 64, 7)`, recorded while `stream` and `FleetWorkload::scenario_stream`
    /// still had a draw loop each.
    const LONG_TAIL: [(u64, u32, u64); 64] = [
        (0x4081ddf891c673bc, 64, 0xbe44a92e662e8b1e),
        (0x40914940184ad0c2, 96, 0xda135128da739de4),
        (0x409383f3ffea4209, 160, 0x9ac9d153678821e7),
        (0x40a1c45b097e5b92, 32, 0x6c72bac68b77c775),
        (0x40a39d8835ea57b3, 32, 0xb79bc980b4570040),
        (0x40a3e72c35a3b0e9, 288, 0x8f5098a530b5e351),
        (0x40a60e808729b436, 224, 0xd00e98e7987e94e3),
        (0x40a780dc9ee370ab, 320, 0xe6c268ab00580523),
        (0x40a9e92dff936dd5, 32, 0x83a38f1458af3edd),
        (0x40aabdf0fe2e30e2, 64, 0x0bd0732b883a463c),
        (0x40ac8ad1094e4928, 32, 0x8c52dc0a69f996c5),
        (0x40afb011ffe4aafb, 32, 0xa1edc189897d1341),
        (0x40b0a0c39192b545, 224, 0xcc3a616449ac0cd6),
        (0x40b0af9c2b8407cc, 32, 0xe4a092b6dbc544ea),
        (0x40b179971d7cac73, 32, 0xa74d258a4aade880),
        (0x40b33a8a901bbc13, 192, 0xf355b77a2009a1f2),
        (0x40b45b268bbfea91, 32, 0x8144ef7796d6d4b2),
        (0x40b74c5c0f7ae179, 64, 0x757d1725f3625bfe),
        (0x40b837e90ff03a5c, 32, 0x410a9e5e0c5ae14f),
        (0x40b917730bc62144, 64, 0x29c7c68128cdfbe8),
        (0x40b97430bf899e9f, 32, 0xd47f5a45964b25e0),
        (0x40bb132abe04e38f, 32, 0x2efcbf3e2c606c6f),
        (0x40bc88649714c57a, 160, 0x4c4ab381986045b5),
        (0x40bced9225f3747b, 32, 0x287c50c2e179641d),
        (0x40bd4e5f5420ff63, 32, 0x4b75373bda57349b),
        (0x40becc0c19d9dde7, 224, 0x538d022ba95ef47b),
        (0x40beec735e5432c2, 32, 0xa04a628b7f2cec8d),
        (0x40bf28fbc736997f, 480, 0x7d1a8f2b9784bbb6),
        (0x40c0960fbb55c169, 32, 0xbe057da04f33e269),
        (0x40c13ee31e4a6ffe, 64, 0x464ec875cdce88a7),
        (0x40c159d4b7ac1742, 64, 0x4b8e7847a57fb287),
        (0x40c18d9450b21099, 288, 0x6816a3a23628524c),
        (0x40c19d5e1c3fbe5a, 128, 0x3b35523dd01d2386),
        (0x40c2dc1fe07e87ce, 32, 0x2bcbdc256cabaf1c),
        (0x40c2f43760e628d9, 64, 0x19b5d2f5ea8bff25),
        (0x40c344d0604362e0, 32, 0xaec4d7679d65cbea),
        (0x40c36af4104fe757, 32, 0x1a81b1118b155d64),
        (0x40c372cd226c92a2, 160, 0xeea7d73a824bbb7d),
        (0x40c3e578ca78adcd, 32, 0x985bd9e134c691db),
        (0x40c4696a0e95f329, 768, 0x862372bddd58d5fe),
        (0x40c4c97b2e00f551, 96, 0xb13d3a10f81d9c5e),
        (0x40c60bcecd82301e, 32, 0x3260ed59ef78a1f3),
        (0x40c6b098ffcd42e9, 864, 0xf47f9dc59f68f653),
        (0x40c6c8b59626f98f, 32, 0xcca872d19b8b2d18),
        (0x40c8619ac9c69a2a, 96, 0xaed2d898f45cf18a),
        (0x40c91104898d35a5, 96, 0x4877cd4bbe6d8f90),
        (0x40c9bf5e3fbbf67d, 32, 0x417db449bd318c90),
        (0x40cab80bb5bd6809, 32, 0x9d3bbc20a4a4a246),
        (0x40cb8328ad2a29d8, 32, 0x2e20d4f9f536d00a),
        (0x40ccd8e6be56a546, 64, 0x6fc672a93dcb2492),
        (0x40cce968714f3ec0, 32, 0x08003e44b2268f03),
        (0x40cda169ba5fb94f, 32, 0x71ffd0c4825b6dac),
        (0x40cdc8dd297a8360, 32, 0xc07e2075ecb056cf),
        (0x40cec078d5f23402, 224, 0x348c54e0513160fd),
        (0x40cf276f3fcbc4a9, 192, 0x21b78f3fff546d9b),
        (0x40d024322bd2ed09, 416, 0x11219e39d8c9e976),
        (0x40d0289443d22a3f, 32, 0x8df52714c80983eb),
        (0x40d074304bcde33d, 64, 0x903d4ca3e0e1c93a),
        (0x40d09581e9010e2c, 64, 0x3866a6fa1904d78d),
        (0x40d169c3090018c8, 800, 0x4c06792165421583),
        (0x40d20e67621e6eea, 1792, 0x747db2a02e8d5e44),
        (0x40d22387a015a878, 32, 0x5ff147433fddc10d),
        (0x40d2278fbdddc211, 288, 0x8d04730b16364c95),
        (0x40d24197feccb9ed, 224, 0xd86c598d7086d38e),
    ];

    /// [`shaped_fleet`]'s scenario stream, recorded like [`LONG_TAIL`].
    const SHAPED: [(u64, u32, u64); 32] = [
        (0x404c135bb5e7207f, 160, 0x91c693012b6b525e),
        (0x4076b8afaf7d0d19, 32, 0xcfb7b182127ff051),
        (0x407d1453d06d9a7b, 32, 0x34f8977ec8ffc657),
        (0x4080c8261d072b4e, 32, 0x4b2364cab2f8a6a9),
        (0x4088967543054e46, 96, 0x758f06d946c6832f),
        (0x408a3e0941affa6a, 1632, 0x83f912bff1904a59),
        (0x40918ae2d7050a14, 32, 0x35677a4d33f94c5e),
        (0x4093e64efc975178, 64, 0x9638be7ccac46b97),
        (0x4096b344fe1fc6e3, 256, 0x6732dfd93a84d6d8),
        (0x409b00bb5331f9fe, 192, 0xb8eef17d57519804),
        (0x40ac2d334a706b10, 416, 0x2865b4c0054a90ee),
        (0x40acb674bd70890b, 96, 0x913bf0568b940dcb),
        (0x40ad2cc63ae980a8, 32, 0x04391db445fee71c),
        (0x40ad6d48ba81a141, 96, 0x5d06c647d4188b6d),
        (0x40ae1016d2a05900, 96, 0x65db75a2c3bec67a),
        (0x40ae159da22d6426, 32, 0x24eea6a1312d0e1f),
        (0x40ae783b0b51fab2, 896, 0x749d89005ea09ed8),
        (0x40aec5ffafb621ab, 1632, 0xb9676dd8ba10d6d7),
        (0x40aed0e1746f33bc, 128, 0xe6fdf7cb314cf72f),
        (0x40aee25a0207addd, 32, 0x040a46ac6dc85c06),
        (0x40b0d1e2754e32ac, 96, 0x560d41732460e69f),
        (0x40b1572bafed1314, 160, 0xdd768258dd30e3ad),
        (0x40b22d50fdc23d36, 64, 0x903ef70be5b38093),
        (0x40b39ad30d75b4ec, 64, 0x777cf39a4f007be3),
        (0x40b4202f96570b2e, 160, 0x2d2e2b5473bbfbaf),
        (0x40b589a65a4a06da, 64, 0xa2b0e42b4ab08185),
        (0x40b83e25dd06bdf2, 1376, 0x445587d708ff61d9),
        (0x40b8543d05987e20, 64, 0x7a296f5950fb4f96),
        (0x40ba3836cb906eb8, 768, 0x55472d1ba03870b7),
        (0x40ba82cb66cf53db, 32, 0xaa7b78f3efeca21a),
        (0x40bb903a60462776, 256, 0x25112047de0043ba),
        (0x40bbdfb72a4e045c, 32, 0x15d26dde92906c23),
    ];

    /// One long-tail scenario under a diurnal curve and a flash crowd
    /// that its 32 arrivals (about 7 ms) cross.
    fn shaped_fleet() -> FleetWorkload {
        FleetWorkload {
            scenarios: vec![ScenarioSpec {
                name: "shaped".into(),
                workload: WorkloadSpec::long_tail(300.0),
                shape: TrafficShape {
                    diurnal: Some(DiurnalCurve {
                        period_us: 4_000.0,
                        peak_to_trough: 3.0,
                        phase: 0.1,
                    }),
                    flash_crowds: vec![FlashCrowd {
                        start_us: 2_000.0,
                        duration_us: 2_000.0,
                        multiplier: 4.0,
                    }],
                },
                requests: 32,
            }],
            seed: 11,
        }
    }

    #[test]
    fn streams_match_their_recorded_values() {
        let m = ModelPreset::A.scaled(0.01);
        let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 64, 7);
        assert_eq!(pinned(&reqs), LONG_TAIL);
        let shaped = shaped_fleet().scenario_stream(0, &m);
        assert_eq!(pinned(&shaped), SHAPED);
    }
}
