//! Online-serving simulation: batching, splitting and tail latency.
//!
//! The paper's evaluation context is inference serving (Section VI-D):
//! "it is common for industrial serving systems to split batches exceeding
//! a specific threshold", while systems like DeepRecSys dispatch unsplit
//! long-tail requests. The full serving machinery — open-loop arrivals,
//! dynamic batching, multi-stream execution, SLO shedding, drift-triggered
//! retuning — lives in [`recflex_serve`]; this module keeps the original
//! offline front-end as a thin compatibility wrapper: requests are served
//! one at a time (closed loop, one stream) on a 1-shard tier, split at the
//! configured cap, and summarized as [`ServingStats`].

use recflex_baselines::{Backend, BackendError};
use recflex_data::{Batch, ModelConfig};
use recflex_serve::{BatchPolicy, Request, ServeConfig, ServeError, ShardedServeRuntime};
use recflex_sim::GpuArch;

/// Latency statistics over a served request stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingStats {
    /// Per-request latencies, µs, in arrival order.
    pub request_latencies: Vec<f64>,
    /// Kernel launches issued.
    pub kernel_launches: u32,
}

impl ServingStats {
    /// Mean request latency.
    pub fn mean_us(&self) -> f64 {
        if self.request_latencies.is_empty() {
            return 0.0;
        }
        self.request_latencies.iter().sum::<f64>() / self.request_latencies.len() as f64
    }

    /// Latency percentile (`q` in `[0, 1]`), nearest-rank.
    pub fn percentile_us(&self, q: f64) -> f64 {
        if self.request_latencies.is_empty() {
            return 0.0;
        }
        let mut v = self.request_latencies.clone();
        v.sort_by(f64::total_cmp);
        let idx = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len()) - 1;
        v[idx]
    }
}

/// A serving front-end over one embedding backend.
pub struct ServingSimulator<'a> {
    /// The backend under test.
    pub backend: &'a dyn Backend,
    /// The model served (its tables are the deterministic
    /// `TableSet::for_model` set).
    pub model: &'a ModelConfig,
    /// The simulated device.
    pub arch: GpuArch,
    /// Requests above this many samples are split into chunks of at most
    /// this size (the industrial practice of Section VI-D). `None`
    /// forwards requests unsplit, DeepRecSys-style. A cap of 0 saturates
    /// to 1 rather than failing.
    pub max_batch: Option<u32>,
}

impl ServingSimulator<'_> {
    /// Serve a request stream; each request is processed (split if
    /// configured) and its chunks run sequentially on the device.
    ///
    /// Implemented as the closed-loop, single-stream case of a 1-shard
    /// [`ShardedServeRuntime`]: request latency is the sum of its chunk
    /// latencies, exactly the original offline semantics.
    pub fn serve(&self, requests: &[Batch]) -> Result<ServingStats, BackendError> {
        let stream: Vec<Request> = requests
            .iter()
            .enumerate()
            .map(|(i, b)| Request {
                id: i as u64,
                arrival_us: 0.0,
                batch: b.clone(),
            })
            .collect();
        let config = ServeConfig {
            streams: 1,
            policy: match self.max_batch {
                Some(cap) => BatchPolicy::Split { cap: cap.max(1) },
                None => BatchPolicy::Unsplit,
            },
            slo_deadline_us: None,
            closed_loop: true,
            hot_shard_cap: None,
        };
        let runtime =
            ShardedServeRuntime::single_device(self.model, &self.arch, config, self.backend);
        let report = runtime.serve(&stream).map_err(|e| match e {
            ServeError::Backend(b) => b,
            ServeError::Request { .. } => BackendError::Launch(e.to_string()),
            // Policy errors are unreachable: the cap is saturated above.
            ServeError::Policy(m) | ServeError::Internal(m) => BackendError::Launch(m.into()),
        })?;
        Ok(ServingStats {
            request_latencies: report.records.iter().map(|r| r.base.latency_us()).collect(),
            kernel_launches: report.kernel_launches as u32,
        })
    }
}

/// Split a batch into chunks of at most `cap` samples, preserving sample
/// order and CSR validity. A `cap` of 0 saturates to 1 instead of
/// panicking (delegates to [`Batch::split`]).
pub fn split_batch(batch: &Batch, cap: u32) -> Vec<Batch> {
    batch
        .split(cap.max(1))
        .expect("cap is saturated to at least 1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RecFlexEngine;
    use recflex_data::{shift_distribution, Dataset, ModelPreset};
    use recflex_embedding::{reference_pooled, TableSet};
    use recflex_serve::{DriftConfig, LifecycleConfig, ShardedRetunePolicy, WorkloadSpec};
    use recflex_tuner::TunerConfig;

    fn setup() -> (ModelConfig, RecFlexEngine) {
        let m = ModelPreset::A.scaled(0.01);
        let ds = Dataset::synthesize(&m, 2, 64, 5);
        let e = RecFlexEngine::tune(&m, &ds, &GpuArch::v100(), &TunerConfig::fast());
        (m, e)
    }

    #[test]
    fn split_preserves_csr_semantics() {
        let m = ModelPreset::C.scaled(0.01);
        let batch = Batch::generate(&m, 100, 7);
        let chunks = split_batch(&batch, 32);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks.iter().map(|c| c.batch_size).sum::<u32>(), 100);
        for c in &chunks {
            c.validate(&m).unwrap();
        }
        // Lookups are conserved and in order.
        let total: u32 = chunks.iter().map(|c| c.features[0].total_lookups()).sum();
        assert_eq!(total, batch.features[0].total_lookups());
        // Per-sample pooling matches across the split boundary.
        let tables = TableSet::for_model(&m);
        let dim = m.features[0].emb_dim as usize;
        let mut whole = vec![0.0f32; 100 * dim];
        reference_pooled(tables.table(0), &batch.features[0], &mut whole);
        let mut stitched = Vec::new();
        for c in &chunks {
            let mut part = vec![0.0f32; c.batch_size as usize * dim];
            reference_pooled(tables.table(0), &c.features[0], &mut part);
            stitched.extend(part);
        }
        assert_eq!(whole, stitched);
    }

    #[test]
    fn split_with_zero_cap_saturates_instead_of_panicking() {
        let m = ModelPreset::A.scaled(0.01);
        let batch = Batch::generate(&m, 4, 11);
        let chunks = split_batch(&batch, 0);
        assert_eq!(chunks.len(), 4, "cap 0 behaves like cap 1");
        assert!(chunks.iter().all(|c| c.batch_size == 1));
    }

    #[test]
    fn serving_splits_long_requests() {
        let (m, e) = setup();
        let server = ServingSimulator {
            backend: &e,
            model: &m,
            arch: GpuArch::v100(),
            max_batch: Some(128),
        };
        let long = Batch::generate(&m, 512, 3);
        let stats = server.serve(std::slice::from_ref(&long)).unwrap();
        assert_eq!(stats.request_latencies.len(), 1);
        assert_eq!(stats.kernel_launches, 4, "512 split into 4 chunks of 128");
    }

    #[test]
    fn unsplit_mode_forwards_whole_batches() {
        let (m, e) = setup();
        let server = ServingSimulator {
            backend: &e,
            model: &m,
            arch: GpuArch::v100(),
            max_batch: None,
        };
        let long = Batch::generate(&m, 512, 3);
        let stats = server.serve(std::slice::from_ref(&long)).unwrap();
        assert_eq!(stats.kernel_launches, 1);
    }

    #[test]
    fn split_latency_is_the_sum_of_chunk_latencies() {
        let (m, e) = setup();
        let t = TableSet::for_model(&m);
        let long = Batch::generate(&m, 512, 3);
        let mut expect = 0.0;
        for chunk in split_batch(&long, 128) {
            expect += Backend::run(&e, &m, &t, &chunk, &GpuArch::v100())
                .unwrap()
                .latency_us;
        }
        let server = ServingSimulator {
            backend: &e,
            model: &m,
            arch: GpuArch::v100(),
            max_batch: Some(128),
        };
        let stats = server.serve(std::slice::from_ref(&long)).unwrap();
        assert!(
            (stats.request_latencies[0] - expect).abs() < 1e-6,
            "wrapper preserves offline semantics: {} vs {expect}",
            stats.request_latencies[0]
        );
    }

    #[test]
    fn percentiles_are_ordered() {
        let stats = ServingStats {
            request_latencies: vec![10.0, 50.0, 20.0, 90.0, 30.0],
            kernel_launches: 5,
        };
        assert!(stats.percentile_us(0.5) <= stats.percentile_us(0.99));
        assert_eq!(stats.percentile_us(1.0), 90.0);
        assert!((stats.mean_us() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_at_zero_is_the_minimum() {
        let stats = ServingStats {
            request_latencies: vec![30.0, 10.0, 20.0],
            kernel_launches: 3,
        };
        assert_eq!(stats.percentile_us(0.0), 10.0);
    }

    #[test]
    fn percentile_of_single_element_is_that_element() {
        let stats = ServingStats {
            request_latencies: vec![42.0],
            kernel_launches: 1,
        };
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(stats.percentile_us(q), 42.0);
        }
    }

    #[test]
    fn empty_stream_is_fine() {
        let (m, e) = setup();
        let server = ServingSimulator {
            backend: &e,
            model: &m,
            arch: GpuArch::v100(),
            max_batch: Some(64),
        };
        let stats = server.serve(&[]).unwrap();
        assert_eq!(stats.mean_us(), 0.0);
        assert_eq!(stats.percentile_us(0.99), 0.0);
    }

    #[test]
    fn replaying_a_seeded_stream_reproduces_stats_exactly() {
        let (m, e) = setup();
        let server = ServingSimulator {
            backend: &e,
            model: &m,
            arch: GpuArch::v100(),
            max_batch: Some(128),
        };
        let mk = || -> Vec<Batch> {
            (0..8)
                .map(|i| Batch::generate(&m, 64 + i * 32, 100 + i as u64))
                .collect()
        };
        let a = server.serve(&mk()).unwrap();
        let b = server.serve(&mk()).unwrap();
        assert_eq!(a, b, "same seeds, bit-identical stats");
    }

    #[test]
    fn drifted_traffic_retunes_the_engine_and_keeps_serving() {
        let (m, e) = setup();
        let arch = GpuArch::v100();
        // Live traffic from a much heavier distribution than the engine
        // was tuned on.
        let shifted = shift_distribution(&m, 2.5, 0.0);
        let reqs = WorkloadSpec::long_tail(500.0).stream(&shifted, 24, 17);

        let mut policy = ShardedRetunePolicy {
            drift: DriftConfig {
                window: 8,
                threshold: 0.3,
                feature_threshold: 0.5,
            },
            retune_latency_us: 5_000.0,
            stagger_us: 0.0,
            lifecycle: LifecycleConfig::default(),
            retuner: Box::new(|_: &ModelConfig, recent: &[Batch]| {
                // A real background retune: tune a fresh engine on the
                // drift window, exactly what the paper's offline tuner
                // would do on the new distribution.
                let ds = Dataset::from_batches(recent.to_vec());
                let engine =
                    RecFlexEngine::tune(&shifted, &ds, &GpuArch::v100(), &TunerConfig::fast());
                (Box::new(engine) as Box<dyn Backend>).into()
            }),
        };
        // The runtime's model is the one the engine was tuned on — the
        // drift monitor's reference — while the traffic itself comes
        // from the shifted distribution.
        let config = ServeConfig {
            streams: 2,
            policy: BatchPolicy::Split { cap: 256 },
            slo_deadline_us: None,
            closed_loop: false,
            hot_shard_cap: None,
        };
        let runtime = ShardedServeRuntime::single_device(&m, &arch, config, &e);
        let report = runtime.serve_with_retune(&reqs, &mut policy).unwrap();
        assert!(
            report.lifecycle.retunes_promoted >= 1,
            "drift must trigger a hot swap"
        );
        assert_eq!(
            report.records.len(),
            24,
            "serving continues across the swap"
        );
        assert_eq!(report.shed_rate(), 0.0);
    }
}
