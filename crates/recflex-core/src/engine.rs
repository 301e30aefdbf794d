//! The tuned, compiled, servable RecFlex engine.

use recflex_baselines::{Backend, BackendError, BackendRun, CostReport};
use recflex_compiler::{BoundFusedKernel, FusedKernelObject, FusedSpec};
use recflex_data::{Batch, Dataset, ModelConfig};
use recflex_embedding::{FusedOutput, TableSet};
use recflex_schedules::store::{
    distribution_summary, ProfileKey, ProfileVault, ScheduleProfile, SCHEMA_VERSION,
};
use recflex_schedules::Vfs;
use recflex_sim::{launch, GpuArch, LaunchReport};
use recflex_tuner::{resume_from_profile, tune_two_stage, TuneResult, TunerConfig};

/// Default nearest-profile budget for [`RecFlexEngine::tune_with_vault`],
/// *per feature*: a stored traffic summary may drift this many
/// [`recflex_schedules::store::SUMMARY_QUANTUM`]-units (i.e. 4 lookups per
/// sample) per feature on average and still seed a warm start. Multiply by
/// the model's feature count for the absolute L1 budget.
pub const DEFAULT_WARM_BUDGET_PER_FEATURE: u64 = 32;

/// How one vault-backed tuning run went — surfaced into lifecycle stats
/// and fleet reports.
#[derive(Debug, Clone, PartialEq)]
pub struct VaultTuneReport {
    /// Whether the run warm-started from a stored profile.
    pub warm_started: bool,
    /// Kernel launches the tuning run cost.
    pub evaluations: usize,
    /// The sidecar the result was published under (`None` when the store
    /// rejected the publish; the engine still serves).
    pub stored_as: Option<String>,
}

/// A tuned RecFlex deployment for one model on one architecture.
pub struct RecFlexEngine {
    /// The model served.
    pub model: ModelConfig,
    /// Its embedding tables.
    pub tables: TableSet,
    /// The compiled fused kernel.
    pub object: FusedKernelObject,
    /// The architecture tuned for.
    pub arch: GpuArch,
    /// The tuning decision record.
    pub tune_result: TuneResult,
}

impl RecFlexEngine {
    /// Tune schedules on `dataset` (the recent historical inputs,
    /// Section IV-A3) and compile the fused kernel.
    pub fn tune(model: &ModelConfig, dataset: &Dataset, arch: &GpuArch, cfg: &TunerConfig) -> Self {
        let tune_result = tune_two_stage(model, dataset, arch, cfg);
        Self::from_tune_result(model, arch, tune_result)
    }

    /// Build an engine from a previously computed tuning decision.
    pub fn from_tune_result(model: &ModelConfig, arch: &GpuArch, tune_result: TuneResult) -> Self {
        let mut spec = FusedSpec::new(tune_result.schedules.clone());
        spec.occupancy_target = tune_result.occupancy;
        let object = FusedKernelObject::compile(spec);
        RecFlexEngine {
            model: model.clone(),
            tables: TableSet::for_model(model),
            object,
            arch: arch.clone(),
            tune_result,
        }
    }

    /// Serve one batch: host-side workload analysis, runtime thread
    /// mapping, fused launch, functional execution.
    pub fn run(&self, batch: &Batch) -> Result<(FusedOutput, LaunchReport), BackendError> {
        let (bound, report) = self.launch(&self.model, &self.tables, batch, &self.arch)?;
        Ok((bound.execute(), report))
    }

    /// Everything [`RecFlexEngine::run`] does but the pooling: host-side
    /// workload analysis, runtime thread mapping and the simulated fused
    /// launch.
    fn launch<'a>(
        &'a self,
        model: &'a ModelConfig,
        tables: &'a TableSet,
        batch: &'a Batch,
        arch: &GpuArch,
    ) -> Result<(BoundFusedKernel<'a>, LaunchReport), BackendError> {
        let bound = self.object.bind(model, tables, batch);
        let report = launch(&bound, arch, &self.object.launch_config())?;
        Ok((bound, report))
    }

    /// Tune through a profile vault: try to warm-start from the nearest
    /// stored profile (same model + arch, traffic summary within
    /// `warm_budget`), fall back to the cold two-stage sweep on a miss or
    /// any resume anomaly, and publish the decision back to the vault.
    ///
    /// This is the crash-safe path: a corrupt, skewed or conflicting
    /// sidecar degrades to exactly the cold result (the vault quarantines
    /// and logs it), and a failed publish leaves the engine serving —
    /// store trouble is never allowed to take tuning down.
    pub fn tune_with_vault<V: Vfs>(
        model: &ModelConfig,
        dataset: &Dataset,
        arch: &GpuArch,
        cfg: &TunerConfig,
        vault: &mut ProfileVault<V>,
        warm_budget: u64,
    ) -> (Self, VaultTuneReport) {
        let key = ProfileKey {
            model: model.name.clone(),
            arch: arch.name.clone(),
            dist_summary: distribution_summary(dataset.batches()),
        };
        let mut warm: Option<TuneResult> = None;
        if let Some(profile) = vault.lookup_nearest(&key, warm_budget) {
            match resume_from_profile(model, dataset, arch, cfg, &profile) {
                Ok(result) => warm = Some(result),
                Err(e) => vault.note(format!(
                    "resume rejected for `{}`: {e}",
                    profile.key.sidecar_name()
                )),
            }
        }
        let warm_started = warm.is_some();
        let tune_result = warm.unwrap_or_else(|| tune_two_stage(model, dataset, arch, cfg));
        let profile = ScheduleProfile {
            schema_version: SCHEMA_VERSION,
            key,
            choices: tune_result.choices.clone(),
            schedule_labels: tune_result.schedules.iter().map(|s| s.label()).collect(),
            occupancy: tune_result.occupancy,
            mean_latency_us: tune_result.mean_latency_us,
            hash: String::new(),
        };
        // Publish failures are already logged by the vault; serving wins.
        let stored_as = vault.store(&profile).ok();
        let report = VaultTuneReport {
            warm_started,
            evaluations: tune_result.evaluations,
            stored_as,
        };
        (Self::from_tune_result(model, arch, tune_result), report)
    }

    /// Re-tune on fresh historical data — the paper's periodic re-tuning
    /// against distribution shift (Section IV-A3). Returns the previous
    /// tuning decision.
    pub fn retune(&mut self, dataset: &Dataset, cfg: &TunerConfig) -> TuneResult {
        let new = Self::tune(&self.model, dataset, &self.arch, cfg);
        std::mem::replace(self, new).tune_result
    }

    /// The CUDA translation unit the deployment corresponds to (Figure 8).
    pub fn cuda_source(&self) -> String {
        self.object.cuda_source()
    }
}

impl Backend for RecFlexEngine {
    fn name(&self) -> &'static str {
        "RecFlex"
    }

    fn run(
        &self,
        model: &ModelConfig,
        tables: &TableSet,
        batch: &Batch,
        arch: &GpuArch,
    ) -> Result<BackendRun, BackendError> {
        let (bound, report) = self.launch(model, tables, batch, arch)?;
        Ok(CostReport::one_launch(&report).with_output(bound.execute()))
    }

    fn cost(
        &self,
        model: &ModelConfig,
        tables: &TableSet,
        batch: &Batch,
        arch: &GpuArch,
    ) -> Result<CostReport, BackendError> {
        let (_, report) = self.launch(model, tables, batch, arch)?;
        Ok(CostReport::one_launch(&report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recflex_data::ModelPreset;
    use recflex_embedding::reference_model_output;

    fn engine() -> (RecFlexEngine, Dataset) {
        let m = ModelPreset::A.scaled(0.01);
        let ds = Dataset::synthesize(&m, 3, 48, 5);
        let e = RecFlexEngine::tune(&m, &ds, &GpuArch::v100(), &TunerConfig::fast());
        (e, ds)
    }

    #[test]
    fn engine_serves_correct_output() {
        let (e, ds) = engine();
        let batch = &ds.batches()[2];
        let (out, report) = e.run(batch).unwrap();
        let golden = reference_model_output(&e.model, &e.tables, batch);
        assert!(out.bits_eq(&golden));
        assert!(report.latency_us > 0.0);
        assert!(report.occupancy.blocks_per_sm >= 1);
    }

    #[test]
    fn engine_is_a_backend() {
        let (e, ds) = engine();
        let run = Backend::run(&e, &e.model, &e.tables, &ds.batches()[0], &e.arch).unwrap();
        assert_eq!(run.kernel_launches, 1);
        assert_eq!(Backend::name(&e), "RecFlex");
    }

    #[test]
    fn retune_swaps_decision() {
        let (mut e, _) = engine();
        let fresh = Dataset::synthesize(&e.model, 2, 48, 777);
        let model = e.model.clone();
        let old = e.retune(&fresh, &TunerConfig::fast());
        assert_eq!(old.schedules.len(), model.features.len());
        assert_eq!(e.tune_result.schedules.len(), model.features.len());
        // The engine still serves correctly after the swap.
        let batch = Batch::generate(&model, 32, 9);
        let (out, _) = e.run(&batch).unwrap();
        let golden = reference_model_output(&e.model, &e.tables, &batch);
        assert!(out.bits_eq(&golden));
    }

    #[test]
    fn vault_warm_start_is_cheaper_with_identical_schedules() {
        use recflex_schedules::MemVfs;
        let m = ModelPreset::A.scaled(0.01);
        let ds = Dataset::synthesize(&m, 3, 48, 5);
        let arch = GpuArch::v100();
        let cfg = TunerConfig::fast();
        let mut vault = ProfileVault::new(MemVfs::new());
        let (cold_engine, cold) =
            RecFlexEngine::tune_with_vault(&m, &ds, &arch, &cfg, &mut vault, 0);
        assert!(!cold.warm_started);
        assert!(cold.stored_as.is_some());
        let (warm_engine, warm) =
            RecFlexEngine::tune_with_vault(&m, &ds, &arch, &cfg, &mut vault, 0);
        assert!(warm.warm_started, "{:?}", vault.diagnostics());
        assert!(warm.evaluations < cold.evaluations);
        assert_eq!(
            warm_engine.tune_result.choices,
            cold_engine.tune_result.choices
        );
        assert_eq!(
            warm_engine.tune_result.occupancy,
            cold_engine.tune_result.occupancy
        );
        // A warm-started engine still serves bit-correct output.
        let batch = &ds.batches()[1];
        let (out, _) = warm_engine.run(batch).unwrap();
        let golden = reference_model_output(&warm_engine.model, &warm_engine.tables, batch);
        assert!(out.bits_eq(&golden));
    }

    #[test]
    fn vault_corruption_degrades_to_cold_not_panic() {
        use recflex_schedules::MemVfs;
        let m = ModelPreset::A.scaled(0.01);
        let ds = Dataset::synthesize(&m, 3, 48, 5);
        let arch = GpuArch::v100();
        let cfg = TunerConfig::fast();
        let mut vault = ProfileVault::new(MemVfs::new());
        let (_, cold) = RecFlexEngine::tune_with_vault(&m, &ds, &arch, &cfg, &mut vault, 0);
        // Smash the published sidecar.
        let name = cold.stored_as.clone().unwrap();
        vault.vfs_mut().remove(&name).unwrap();
        vault.vfs_mut().plant(&name, b"{\"not\": \"a profile\"");
        let (engine, second) = RecFlexEngine::tune_with_vault(&m, &ds, &arch, &cfg, &mut vault, 0);
        assert!(!second.warm_started, "corrupt profile must not warm-start");
        assert_eq!(
            second.evaluations, cold.evaluations,
            "exactly the cold cost"
        );
        assert_eq!(vault.stats().quarantined, 1);
        let batch = &ds.batches()[0];
        let (out, _) = engine.run(batch).unwrap();
        let golden = reference_model_output(&engine.model, &engine.tables, batch);
        assert!(out.bits_eq(&golden));
    }

    #[test]
    fn vault_nearest_profile_seeds_shifted_traffic() {
        use recflex_schedules::MemVfs;
        let m = ModelPreset::A.scaled(0.01);
        let ds = Dataset::synthesize(&m, 3, 48, 5);
        // Same model, differently seeded traffic: summaries differ a
        // little, so exact lookup misses but nearest within a budget hits.
        let shifted = Dataset::synthesize(&m, 3, 48, 77);
        let arch = GpuArch::v100();
        let cfg = TunerConfig::fast();
        let mut vault = ProfileVault::new(MemVfs::new());
        let (_, cold) = RecFlexEngine::tune_with_vault(&m, &ds, &arch, &cfg, &mut vault, 0);
        let budget = DEFAULT_WARM_BUDGET_PER_FEATURE * m.features.len() as u64;
        let (_, warm) =
            RecFlexEngine::tune_with_vault(&m, &shifted, &arch, &cfg, &mut vault, budget);
        assert!(
            warm.warm_started,
            "nearest lookup within budget must seed the retune: {:?}",
            vault.diagnostics()
        );
        assert!(warm.evaluations < cold.evaluations);
    }

    #[test]
    fn cuda_source_reflects_tuning() {
        let (e, _) = engine();
        let src = e.cuda_source();
        assert!(src.contains("FusedKernel"));
        assert!(src.contains(&format!(
            "__launch_bounds__({}",
            e.object.resources.threads_per_block
        )));
    }

    #[test]
    fn beats_every_applicable_baseline_on_heterogeneous_model() {
        // The paper's headline claim, on a scaled-down model A.
        let m = ModelPreset::A.scaled(0.02);
        let ds = Dataset::synthesize(&m, 3, 64, 5);
        let arch = GpuArch::v100();
        let engine = RecFlexEngine::tune(&m, &ds, &arch, &TunerConfig::fast());
        let tables = TableSet::for_model(&m);
        let batch = Batch::generate(&m, 64, 99);

        let ours = Backend::run(&engine, &m, &tables, &batch, &arch)
            .unwrap()
            .latency_us;
        let torchrec = recflex_baselines::TorchRecBackend::compile(&m)
            .run(&m, &tables, &batch, &arch)
            .unwrap()
            .latency_us;
        let recom = recflex_baselines::RecomBackend::compile(&m, &ds)
            .run(&m, &tables, &batch, &arch)
            .unwrap()
            .latency_us;
        let tf = recflex_baselines::TensorFlowBackend
            .run(&m, &tables, &batch, &arch)
            .unwrap()
            .latency_us;
        assert!(ours < torchrec, "RecFlex {ours} vs TorchRec {torchrec}");
        assert!(ours < recom, "RecFlex {ours} vs RECom {recom}");
        assert!(ours < tf, "RecFlex {ours} vs TensorFlow {tf}");
    }
}
