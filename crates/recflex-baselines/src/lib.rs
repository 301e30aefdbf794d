//! # recflex-baselines — the comparison systems of the paper's evaluation
//!
//! Re-implementations of the *embedding execution strategy* of each system
//! RecFlex is compared against (paper Section VI-A), on the same simulator
//! and the same functional semantics, so Figure 9/10 comparisons are
//! apples-to-apples:
//!
//! * [`TensorFlowBackend`] — no fusion: one kernel launch per feature with
//!   a generic schedule; latency is dominated by per-kernel overhead and
//!   low per-kernel GPU utilization.
//! * [`RecomBackend`] — RECom-style cross-embedding fusion: one fused
//!   kernel, but a *single uniform schedule* for every feature and a
//!   *static* compile-time block distribution (each feature gets the same
//!   block count derived from historical batches).
//! * [`TorchRecBackend`] — TorchRec/FBGEMM-style fused kernel with
//!   warp-per-sample mapping, its parameters chosen once from the *maximum*
//!   embedding dimension across tables; small-dim features waste lanes.
//!   The strongest baseline, as in the paper.
//! * [`HugeCtrBackend`] — HugeCTR-style coarse mapping: one block per
//!   sample processing **all features sequentially**; requires a uniform
//!   embedding dimension (models D/E only) and relies on large dims and
//!   batches to saturate the GPU.
//!
//! All backends return bit-identical outputs to the scalar reference; they
//! differ exclusively in simulated execution strategy.

pub mod hugectr;
pub mod recom;
pub mod tensorflow;
pub mod torchrec;

pub use hugectr::HugeCtrBackend;
pub use recom::RecomBackend;
pub use tensorflow::TensorFlowBackend;
pub use torchrec::TorchRecBackend;

use recflex_data::{Batch, ModelConfig};
use recflex_embedding::{FusedOutput, TableSet};
use recflex_sim::GpuArch;

/// One backend invocation: functional output + simulated timing.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// Pooled embeddings, bit-identical to the reference.
    pub output: FusedOutput,
    /// Total simulated embedding-stage latency (all kernels), µs.
    pub latency_us: f64,
    /// Number of kernel launches performed.
    pub kernel_launches: u32,
}

/// Why a backend refused a model/batch.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The backend cannot express this model (e.g. HugeCTR needs a uniform
    /// embedding dimension).
    Unsupported(String),
    /// A simulated launch failed.
    Launch(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Unsupported(m) => write!(f, "model unsupported: {m}"),
            BackendError::Launch(m) => write!(f, "launch failed: {m}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// A recommendation embedding execution strategy.
pub trait Backend: Sync {
    /// Display name ("TensorFlow", "RECom", …).
    fn name(&self) -> &'static str;

    /// Whether the backend can serve this model at all.
    fn supports(&self, model: &ModelConfig) -> bool {
        let _ = model;
        true
    }

    /// Execute the embedding stage of one batch.
    fn run(
        &self,
        model: &ModelConfig,
        tables: &TableSet,
        batch: &Batch,
        arch: &GpuArch,
    ) -> Result<BackendRun, BackendError>;
}

/// A borrowed backend is a backend: a serving tier can own a lane that
/// wraps `&engine` without cloning or re-tuning it.
impl<B: Backend + ?Sized> Backend for &B {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn supports(&self, model: &ModelConfig) -> bool {
        (**self).supports(model)
    }

    fn run(
        &self,
        model: &ModelConfig,
        tables: &TableSet,
        batch: &Batch,
        arch: &GpuArch,
    ) -> Result<BackendRun, BackendError> {
        (**self).run(model, tables, batch, arch)
    }
}
