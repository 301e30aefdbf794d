//! TensorFlow-style execution: one kernel per feature, no fusion.
//!
//! Classic `tf.nn.embedding_lookup_sparse`: each feature's gather+pool runs
//! as its own GPU kernel. With a thousand features the per-launch overhead
//! alone dominates, and each small kernel leaves most SMs idle — which is
//! why the paper measures TensorFlow 35.4× behind RecFlex.

use recflex_data::{Batch, ModelConfig};
use recflex_embedding::{analyze_batch, reference_model_output, TableSet};
use recflex_schedules::{ScheduleInstance, ScheduleKind, ScheduleParams};
use recflex_sim::{launch, GpuArch, LaunchConfig, ProfileCtx, SimKernel};

use crate::{Backend, BackendError, BackendRun, CostReport};

/// The fixed generic schedule TensorFlow's kernels correspond to: one warp
/// per sample, unvectorized — reasonable everywhere, optimal nowhere.
fn generic_schedule(dim: u32) -> ScheduleInstance {
    ScheduleInstance {
        kind: ScheduleKind::SamplePerWarp,
        params: ScheduleParams {
            threads_per_block: 256,
            group_size: 32,
            vector_width: 1,
            unroll: 1,
            stage_rows: 0,
        },
        emb_dim: dim,
    }
}

/// Single-feature kernel wrapper.
struct SingleFeatureKernel<'a> {
    sched: ScheduleInstance,
    fb: &'a recflex_data::FeatureBatch,
    w: &'a recflex_embedding::FeatureWorkload,
    blocks: u32,
}

impl SimKernel for SingleFeatureKernel<'_> {
    fn name(&self) -> &str {
        "tf_embedding_lookup_sparse"
    }
    fn grid_blocks(&self) -> u32 {
        self.blocks
    }
    fn resources(&self) -> recflex_sim::BlockResources {
        self.sched.resources()
    }
    fn profile_block(&self, block_idx: u32, ctx: &ProfileCtx) -> recflex_sim::BlockProfile {
        self.sched
            .block_profile(self.fb, self.w, block_idx, ctx.reg_cap)
    }
}

/// TensorFlow baseline.
#[derive(Debug, Default)]
pub struct TensorFlowBackend;

impl Backend for TensorFlowBackend {
    fn name(&self) -> &'static str {
        "TensorFlow"
    }

    fn run(
        &self,
        model: &ModelConfig,
        tables: &TableSet,
        batch: &Batch,
        arch: &GpuArch,
    ) -> Result<BackendRun, BackendError> {
        let cost = self.cost(model, tables, batch, arch)?;
        Ok(cost.with_output(reference_model_output(model, tables, batch)))
    }

    fn cost(
        &self,
        model: &ModelConfig,
        _tables: &TableSet,
        batch: &Batch,
        arch: &GpuArch,
    ) -> Result<CostReport, BackendError> {
        let workloads = analyze_batch(model, batch);
        let mut latency = 0.0f64;
        let mut launches = 0u32;
        for (f, spec) in model.features.iter().enumerate() {
            let sched = generic_schedule(spec.emb_dim);
            let w = &workloads[f];
            let kern = SingleFeatureKernel {
                sched,
                fb: &batch.features[f],
                w,
                blocks: sched.required_blocks(w),
            };
            let report = launch(&kern, arch, &LaunchConfig::default())?;
            latency += report.latency_us;
            launches += 1;
        }
        Ok(CostReport {
            latency_us: latency,
            kernel_launches: launches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recflex_data::ModelPreset;

    #[test]
    fn one_launch_per_feature() {
        let m = ModelPreset::A.scaled(0.01);
        let tables = TableSet::for_model(&m);
        let b = Batch::generate(&m, 32, 3);
        let run = TensorFlowBackend
            .run(&m, &tables, &b, &GpuArch::v100())
            .unwrap();
        assert_eq!(run.kernel_launches as usize, m.features.len());
        // Launch overhead alone puts a floor under the latency.
        assert!(run.latency_us >= m.features.len() as f64 * GpuArch::v100().kernel_launch_us);
    }

    #[test]
    fn output_matches_reference() {
        let m = ModelPreset::C.scaled(0.01);
        let tables = TableSet::for_model(&m);
        let b = Batch::generate(&m, 24, 7);
        let run = TensorFlowBackend
            .run(&m, &tables, &b, &GpuArch::v100())
            .unwrap();
        let golden = reference_model_output(&m, &tables, &b);
        assert!(run.output.bits_eq(&golden));
    }

    #[test]
    fn supports_everything() {
        assert!(TensorFlowBackend.supports(&ModelPreset::A.scaled(0.01)));
        assert!(TensorFlowBackend.supports(&ModelPreset::D.scaled(0.01)));
    }
}
