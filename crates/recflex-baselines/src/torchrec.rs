//! TorchRec/FBGEMM-style execution: fused warp-per-sample kernel selected
//! by the maximum embedding dimension.
//!
//! TorchRec's `FusedEmbeddingBagCollection` lowers to FBGEMM's batched
//! embedding kernel: fine-grained sample-warp parallelism — the best of the
//! baselines (paper Section VI-B) — but "selects the pre-compiled fused
//! kernels based on the maximum embedding dimension among all tables"
//! (Section II-B). We reproduce that: every feature runs the warp-per-
//! sample template with the vector width sized for the *largest* dim in the
//! model, so narrow features drag predicated-off lanes through every row
//! (the Table II thread-utilization gap), and nothing adapts to per-feature
//! pooling behaviour.

use recflex_compiler::{BoundFusedKernel, FusedKernelObject, FusedSpec};
use recflex_data::{Batch, ModelConfig};
use recflex_embedding::TableSet;
use recflex_schedules::{ScheduleInstance, ScheduleKind, ScheduleParams};
use recflex_sim::{launch, GpuArch};

use crate::{Backend, BackendError, BackendRun, CostReport};

/// TorchRec baseline.
pub struct TorchRecBackend {
    object: FusedKernelObject,
}

impl TorchRecBackend {
    /// Select the pre-compiled kernel variant for `model` (by max dim) and
    /// build the fused object.
    pub fn compile(model: &ModelConfig) -> Self {
        let (_, max_dim) = model.dim_range();
        // FBGEMM picks the widest vector the max dim allows.
        let vec = if max_dim >= 128 {
            4
        } else if max_dim >= 64 {
            2
        } else {
            1
        };
        let schedules: Vec<ScheduleInstance> = model
            .features
            .iter()
            .map(|f| ScheduleInstance {
                kind: ScheduleKind::SamplePerWarp,
                params: ScheduleParams {
                    threads_per_block: 256,
                    group_size: 32,
                    vector_width: vec,
                    unroll: 1,
                    stage_rows: 0,
                },
                emb_dim: f.emb_dim,
            })
            .collect();
        TorchRecBackend {
            object: FusedKernelObject::compile(FusedSpec::new(schedules)),
        }
    }

    /// The compiled fused object (exposed for the Table II metric study).
    pub fn object(&self) -> &FusedKernelObject {
        &self.object
    }

    /// Bind `batch` and simulate the fused launch: everything but the
    /// pooling. FBGEMM sizes its grid from the live batch (warp per
    /// sample), so TorchRec gets runtime mapping — its strength in the
    /// paper.
    fn launch<'a>(
        &'a self,
        model: &'a ModelConfig,
        tables: &'a TableSet,
        batch: &'a Batch,
        arch: &GpuArch,
    ) -> Result<(BoundFusedKernel<'a>, CostReport), BackendError> {
        let bound = self.object.bind(model, tables, batch);
        let report = launch(&bound, arch, &self.object.launch_config())?;
        Ok((bound, CostReport::one_launch(&report)))
    }
}

impl Backend for TorchRecBackend {
    fn name(&self) -> &'static str {
        "TorchRec"
    }

    fn run(
        &self,
        model: &ModelConfig,
        tables: &TableSet,
        batch: &Batch,
        arch: &GpuArch,
    ) -> Result<BackendRun, BackendError> {
        let (bound, cost) = self.launch(model, tables, batch, arch)?;
        Ok(cost.with_output(bound.execute()))
    }

    fn cost(
        &self,
        model: &ModelConfig,
        tables: &TableSet,
        batch: &Batch,
        arch: &GpuArch,
    ) -> Result<CostReport, BackendError> {
        Ok(self.launch(model, tables, batch, arch)?.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recflex_data::{Dataset, ModelPreset};
    use recflex_embedding::reference_model_output;

    #[test]
    fn best_baseline_on_heterogeneous_model() {
        let m = ModelPreset::A.scaled(0.01);
        let t = TableSet::for_model(&m);
        let d = Dataset::synthesize(&m, 2, 48, 5);
        let b = Batch::generate(&m, 48, 9);
        let arch = GpuArch::v100();
        let torchrec = TorchRecBackend::compile(&m).run(&m, &t, &b, &arch).unwrap();
        let recom = crate::RecomBackend::compile(&m, &d)
            .run(&m, &t, &b, &arch)
            .unwrap();
        let tf = crate::TensorFlowBackend.run(&m, &t, &b, &arch).unwrap();
        assert!(
            torchrec.latency_us < recom.latency_us,
            "paper ordering: TorchRec < RECom"
        );
        assert!(torchrec.latency_us < tf.latency_us);
    }

    #[test]
    fn uses_single_kind_everywhere() {
        let m = ModelPreset::A.scaled(0.01);
        let be = TorchRecBackend::compile(&m);
        assert!(be
            .object()
            .spec
            .schedules
            .iter()
            .all(|s| s.kind == ScheduleKind::SamplePerWarp));
        // Same params for everyone — only the dim differs.
        let p0 = be.object().spec.schedules[0].params;
        assert!(be.object().spec.schedules.iter().all(|s| s.params == p0));
    }

    #[test]
    fn output_matches_reference() {
        let m = ModelPreset::E.scaled(0.01);
        let t = TableSet::for_model(&m);
        let b = Batch::generate(&m, 32, 11);
        let run = TorchRecBackend::compile(&m)
            .run(&m, &t, &b, &GpuArch::a100())
            .unwrap();
        let golden = reference_model_output(&m, &t, &b);
        assert_eq!(run.output.max_abs_diff(&golden), 0.0);
    }
}
