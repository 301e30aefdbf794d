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
//!
//! # The `Backend` contract
//!
//! [`Backend::run`] is the functional path: pooled output plus simulated
//! timing. [`Backend::cost`] is the timing half alone — the same
//! host-side analysis, task map and launch simulation, without the
//! pooling. For every model, batch and architecture, `cost` must return
//! the `latency_us` (bit for bit) and `kernel_launches` that `run`
//! reports, and the same error when `run` fails. Serving reads only
//! `cost`: no tier, canary or retune comparator ever looks at pooled
//! output, so functional correctness is checked where it is produced (the
//! backend tests against [`recflex_embedding::reference_model_output`] and
//! `fig9_kernel_perf --check`).

pub mod hugectr;
pub mod recom;
pub mod tensorflow;
pub mod torchrec;

pub use hugectr::HugeCtrBackend;
pub use recom::RecomBackend;
pub use tensorflow::TensorFlowBackend;
pub use torchrec::TorchRecBackend;

use rayon::prelude::*;
use recflex_data::{Batch, ModelConfig};
use recflex_embedding::{FusedOutput, TableSet};
use recflex_sim::launch::LaunchError;
use recflex_sim::{GpuArch, LaunchReport};

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

impl BackendRun {
    /// The timing half of this run.
    pub fn cost(&self) -> CostReport {
        CostReport {
            latency_us: self.latency_us,
            kernel_launches: self.kernel_launches,
        }
    }
}

/// The simulated timing of one backend invocation — everything a serving
/// tier reads. See [`Backend::cost`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostReport {
    /// Total simulated embedding-stage latency (all kernels), µs.
    pub latency_us: f64,
    /// Number of kernel launches performed.
    pub kernel_launches: u32,
}

impl CostReport {
    /// The cost of a backend that launches one kernel.
    pub fn one_launch(report: &LaunchReport) -> Self {
        CostReport {
            latency_us: report.latency_us,
            kernel_launches: 1,
        }
    }

    /// The full run: this timing plus the pooled `output` it produced.
    pub fn with_output(self, output: FusedOutput) -> BackendRun {
        BackendRun {
            output,
            latency_us: self.latency_us,
            kernel_launches: self.kernel_launches,
        }
    }
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

impl From<LaunchError> for BackendError {
    fn from(e: LaunchError) -> Self {
        BackendError::Launch(e.to_string())
    }
}

/// A recommendation embedding execution strategy.
///
/// `run` is the one required method; `cost` defaults to projecting it.
/// A backend whose functional output is expensive overrides `cost` with
/// its launch simulation alone and writes `run` as that path plus the
/// pooling, so the two cannot drift apart.
///
/// `run` and `cost` must be pure functions of their arguments: a result
/// may not depend on call order or on any other call, because a serving
/// tier prices the shards of one chunk at once ([`cost_each`]). A
/// decorator may record calls, but must not change their results.
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

    /// Simulate the embedding stage of one batch without producing its
    /// output. Must return exactly `run`'s `latency_us` bits and
    /// `kernel_launches`, or `run`'s error; serving calls only this.
    fn cost(
        &self,
        model: &ModelConfig,
        tables: &TableSet,
        batch: &Batch,
        arch: &GpuArch,
    ) -> Result<CostReport, BackendError> {
        self.run(model, tables, batch, arch).map(|run| run.cost())
    }
}

/// Run `price` on every job at once on the rayon pool and return the
/// results in job order.
///
/// The pool collects by index, so folding the results in order sees the
/// same values, and the same first error, as a sequential loop over
/// `jobs` would: a serving tier prices the shards of one chunk this way.
/// `price` may only read shared state, and every [`Backend`] it calls
/// must keep the trait's purity contract. With one pool thread
/// (`RECFLEX_THREADS=1`) the jobs run in order on the calling thread.
pub fn cost_each<J: Sync>(
    jobs: &[J],
    price: impl Fn(&J) -> Result<CostReport, BackendError> + Send + Sync,
) -> Vec<Result<CostReport, BackendError>> {
    jobs.par_iter().map(price).collect()
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

    fn cost(
        &self,
        model: &ModelConfig,
        tables: &TableSet,
        batch: &Batch,
        arch: &GpuArch,
    ) -> Result<CostReport, BackendError> {
        (**self).cost(model, tables, batch, arch)
    }
}
