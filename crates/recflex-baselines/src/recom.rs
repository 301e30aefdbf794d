//! RECom-style execution: cross-embedding fusion with one uniform schedule
//! and static thread mapping.
//!
//! RECom fuses the embedding subgraphs of all features into a single GPU
//! kernel — a large win over TensorFlow — but "evenly distributes the
//! embedding operations of different features to individual GPU blocks"
//! and compiles one schedule for everything (paper Section II-B). Both
//! limitations are reproduced: every feature receives the same uniform
//! sub-warp schedule and the same compile-time block count derived from
//! historical batches, so heavy features serialize and light ones idle.

use recflex_compiler::{BoundFusedKernel, FusedKernelObject, FusedSpec, MappingStrategy};
use recflex_data::{Batch, Dataset, ModelConfig};
use recflex_embedding::{analyze_batch, FeatureWorkload, TableSet};
use recflex_schedules::{ScheduleInstance, ScheduleKind, ScheduleParams};
use recflex_sim::{launch, GpuArch};

use crate::{Backend, BackendError, BackendRun, CostReport};

/// The single schedule RECom compiles for every feature.
fn uniform_schedule(dim: u32) -> ScheduleInstance {
    ScheduleInstance {
        kind: ScheduleKind::SubWarp,
        params: ScheduleParams {
            threads_per_block: 256,
            group_size: 8,
            vector_width: 1,
            unroll: 1,
            stage_rows: 0,
        },
        emb_dim: dim,
    }
}

/// RECom baseline. Construct with [`RecomBackend::compile`] so the static
/// block distribution can be derived from historical batches, exactly like
/// RECom's compile-time decisions.
pub struct RecomBackend {
    object: FusedKernelObject,
    history: Vec<Vec<FeatureWorkload>>,
}

impl RecomBackend {
    /// "Compile" the model: fix the uniform schedule and record history
    /// for the static mapping.
    pub fn compile(model: &ModelConfig, history_data: &Dataset) -> Self {
        let schedules: Vec<ScheduleInstance> = model
            .features
            .iter()
            .map(|f| uniform_schedule(f.emb_dim))
            .collect();
        let object = FusedKernelObject::compile(FusedSpec::new(schedules));
        let history = history_data
            .batches()
            .iter()
            .map(|b| analyze_batch(model, b))
            .collect();
        RecomBackend { object, history }
    }

    /// Bind `batch` with the static compile-time mapping and simulate the
    /// fused launch: everything but the pooling.
    fn launch<'a>(
        &'a self,
        model: &'a ModelConfig,
        tables: &'a TableSet,
        batch: &'a Batch,
        arch: &GpuArch,
    ) -> Result<(BoundFusedKernel<'a>, CostReport), BackendError> {
        let bound = self.object.bind_static(
            model,
            tables,
            batch,
            &self.history,
            MappingStrategy::StaticAverage,
        );
        let report = launch(&bound, arch, &self.object.launch_config())?;
        Ok((bound, CostReport::one_launch(&report)))
    }
}

impl Backend for RecomBackend {
    fn name(&self) -> &'static str {
        "RECom"
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
    use recflex_data::ModelPreset;
    use recflex_embedding::reference_model_output;

    fn setup() -> (ModelConfig, TableSet, Dataset) {
        let m = ModelPreset::A.scaled(0.01);
        let t = TableSet::for_model(&m);
        let d = Dataset::synthesize(&m, 2, 48, 5);
        (m, t, d)
    }

    #[test]
    fn single_fused_launch() {
        let (m, t, d) = setup();
        let be = RecomBackend::compile(&m, &d);
        let b = Batch::generate(&m, 48, 9);
        let run = be.run(&m, &t, &b, &GpuArch::v100()).unwrap();
        assert_eq!(run.kernel_launches, 1);
    }

    #[test]
    fn faster_than_tensorflow() {
        // Fusion pays off once per-feature launch overhead accumulates; a
        // handful of features is not enough (and was not RECom's target).
        let m = ModelPreset::A.scaled(0.08);
        let t = TableSet::for_model(&m);
        let d = Dataset::synthesize(&m, 2, 128, 5);
        let be = RecomBackend::compile(&m, &d);
        let b = Batch::generate(&m, 128, 9);
        let arch = GpuArch::v100();
        let recom = be.run(&m, &t, &b, &arch).unwrap();
        let tf = crate::TensorFlowBackend.run(&m, &t, &b, &arch).unwrap();
        assert!(
            recom.latency_us < tf.latency_us,
            "fusion must beat per-feature launches: {} vs {}",
            recom.latency_us,
            tf.latency_us
        );
    }

    #[test]
    fn uniform_schedule_shared_by_all_same_dim_features() {
        let (m, _, d) = setup();
        let be = RecomBackend::compile(&m, &d);
        // Dedup collapses to one schedule per distinct dim.
        let dims: std::collections::HashSet<u32> = m.features.iter().map(|f| f.emb_dim).collect();
        assert_eq!(be.object.unique.len(), dims.len());
    }

    #[test]
    fn output_matches_reference() {
        let (m, t, d) = setup();
        let be = RecomBackend::compile(&m, &d);
        let b = Batch::generate(&m, 32, 11);
        let run = be.run(&m, &t, &b, &GpuArch::v100()).unwrap();
        let golden = reference_model_output(&m, &t, &b);
        assert_eq!(run.output.max_abs_diff(&golden), 0.0);
    }
}
