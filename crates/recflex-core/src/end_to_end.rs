//! End-to-end model: embedding stage + evaluation MLP (paper Figure 10).
//!
//! The DNN stage is identical for every backend — RecFlex leaves it alone —
//! so end-to-end speedups are the embedding speedups diluted by the shared
//! MLP time, exactly the effect the paper reports (kernel 2.64× → e2e
//! 1.85× vs TorchRec).

use recflex_baselines::{Backend, BackendError};
use recflex_data::{Batch, ModelConfig};
use recflex_dnn::Mlp;
use recflex_embedding::TableSet;
use recflex_sim::GpuArch;

/// An embedding backend with the paper's MLP on top.
pub struct EndToEndModel<'a> {
    /// The embedding execution strategy under test.
    pub backend: &'a dyn Backend,
    /// The model definition.
    pub model: &'a ModelConfig,
    /// The embedding tables.
    pub tables: &'a TableSet,
    /// The dense stack (1024/256/128 hidden units in the paper config).
    pub mlp: Mlp,
}

/// Timing breakdown of one end-to-end run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E2eTiming {
    /// Embedding-stage latency (backend-specific), µs.
    pub embedding_us: f64,
    /// DNN-stage latency (identical across backends), µs.
    pub dnn_us: f64,
}

impl E2eTiming {
    /// Total latency.
    pub fn total_us(&self) -> f64 {
        self.embedding_us + self.dnn_us
    }
}

impl<'a> EndToEndModel<'a> {
    /// Build with the paper's MLP configuration.
    pub fn paper_config(
        backend: &'a dyn Backend,
        model: &'a ModelConfig,
        tables: &'a TableSet,
    ) -> Self {
        EndToEndModel {
            backend,
            model,
            tables,
            mlp: Mlp::paper_config(model.concat_dim()),
        }
    }

    /// Simulated end-to-end latency of one batch (timing only: the
    /// embedding stage is costed, not pooled).
    pub fn latency(&self, batch: &Batch, arch: &GpuArch) -> Result<E2eTiming, BackendError> {
        let cost = self.backend.cost(self.model, self.tables, batch, arch)?;
        let dnn_us = self.mlp.latency_us(batch.batch_size, arch);
        Ok(E2eTiming {
            embedding_us: cost.latency_us,
            dnn_us,
        })
    }

    /// Functional prediction: pooled embeddings → concat → MLP → one score
    /// per sample. Intended for small models (tests, examples).
    pub fn predict(&self, batch: &Batch, arch: &GpuArch) -> Result<Vec<f32>, BackendError> {
        let run = self.backend.run(self.model, self.tables, batch, arch)?;
        let batch_n = batch.batch_size as usize;
        let width = self.model.concat_dim() as usize;
        let mut x = Vec::with_capacity(batch_n * width);
        for s in 0..batch.batch_size {
            x.extend_from_slice(&run.output.concat_sample(s));
        }
        Ok(self.mlp.forward(&x, batch_n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RecFlexEngine;
    use recflex_baselines::TorchRecBackend;
    use recflex_data::{Dataset, ModelPreset};
    use recflex_tuner::TunerConfig;

    #[test]
    fn e2e_timing_includes_both_stages() {
        let m = ModelPreset::A.scaled(0.01);
        let tables = TableSet::for_model(&m);
        let arch = GpuArch::v100();
        let be = TorchRecBackend::compile(&m);
        let e2e = EndToEndModel::paper_config(&be, &m, &tables);
        let t = e2e.latency(&Batch::generate(&m, 32, 3), &arch).unwrap();
        assert!(t.embedding_us > 0.0 && t.dnn_us > 0.0);
        assert!((t.total_us() - t.embedding_us - t.dnn_us).abs() < 1e-9);
    }

    #[test]
    fn predictions_identical_across_backends() {
        // All backends compute the same embeddings bit-for-bit, and the MLP
        // is shared — so predictions must agree exactly.
        let m = ModelPreset::A.scaled(0.01);
        let tables = TableSet::for_model(&m);
        let ds = Dataset::synthesize(&m, 2, 32, 5);
        let arch = GpuArch::v100();
        let batch = Batch::generate(&m, 16, 77);

        let engine = RecFlexEngine::tune(&m, &ds, &arch, &TunerConfig::fast());
        let torchrec = TorchRecBackend::compile(&m);

        let p1 = EndToEndModel::paper_config(&engine, &m, &tables)
            .predict(&batch, &arch)
            .unwrap();
        let p2 = EndToEndModel::paper_config(&torchrec, &m, &tables)
            .predict(&batch, &arch)
            .unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.len(), 16);
    }

    #[test]
    fn e2e_speedup_smaller_than_kernel_speedup() {
        // Figure 10's dilution effect: the shared DNN time compresses the
        // end-to-end ratio relative to the kernel ratio.
        let m = ModelPreset::A.scaled(0.02);
        let tables = TableSet::for_model(&m);
        let ds = Dataset::synthesize(&m, 2, 64, 5);
        let arch = GpuArch::v100();
        let batch = Batch::generate(&m, 64, 9);

        let engine = RecFlexEngine::tune(&m, &ds, &arch, &TunerConfig::fast());
        let torchrec = TorchRecBackend::compile(&m);
        let ours = EndToEndModel::paper_config(&engine, &m, &tables);
        let theirs = EndToEndModel::paper_config(&torchrec, &m, &tables);

        let to = ours.latency(&batch, &arch).unwrap();
        let tt = theirs.latency(&batch, &arch).unwrap();
        let kernel_speedup = tt.embedding_us / to.embedding_us;
        let e2e_speedup = tt.total_us() / to.total_us();
        assert!(kernel_speedup > 1.0, "RecFlex must win the kernel race");
        assert!(
            e2e_speedup < kernel_speedup,
            "e2e {e2e_speedup} must be diluted vs kernel {kernel_speedup}"
        );
        assert!(e2e_speedup > 1.0);
    }
}
