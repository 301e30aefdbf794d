//! # recflex-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §7 for the
//! index). Every binary prints the same rows/series the paper reports;
//! EXPERIMENTS.md records paper-vs-measured.
//!
//! ## Scaling
//!
//! The paper's full configuration (1000-feature models, 128 batches of up
//! to 512 samples, eight tuning GPUs) is reproducible but slow on a laptop.
//! The harness therefore reads:
//!
//! * `RECFLEX_SCALE`  — fraction of each model's feature count (default 0.1),
//! * `RECFLEX_BATCH`  — evaluation batch size (default 256),
//! * `RECFLEX_EVAL_BATCHES` — evaluation batches (default 16, paper 128),
//! * `RECFLEX_INTERCONNECT` — the link the sharded serving binaries
//!   gather over: `nvlink` (default), `pcie` or `ideal`,
//!
//! so `RECFLEX_SCALE=1.0 RECFLEX_BATCH=512 RECFLEX_EVAL_BATCHES=128` runs
//! the paper-size experiments. Relative results (who wins, by how much) are
//! stable across scales because every backend sees the same inputs.

use std::cell::Cell;

use rayon::prelude::*;
use recflex_baselines::{
    Backend, BackendError, HugeCtrBackend, RecomBackend, TensorFlowBackend, TorchRecBackend,
};
use recflex_core::{feature_cost_estimates, RecFlexEngine};
use recflex_data::{Batch, Dataset, ModelConfig, ModelPreset, Placement};
use recflex_embedding::{reference_model_output, TableSet};
use recflex_serve::{BatchPolicy, ServeConfig, ShardedServeRuntime};
use recflex_sim::{GpuArch, Interconnect};
use recflex_tuner::TunerConfig;

/// Experiment scaling knobs (see crate docs).
#[derive(Debug, Clone)]
pub struct Scale {
    /// Fraction of each preset's feature count.
    pub model_frac: f64,
    /// Evaluation batch size.
    pub batch_size: u32,
    /// Number of evaluation batches.
    pub eval_batches: usize,
    /// The interconnect preset name (`nvlink`, `pcie` or `ideal`) —
    /// kept alongside [`Self::interconnect`] for report labels.
    pub interconnect_name: String,
    /// The link the sharded serving binaries gather pooled outputs over.
    pub interconnect: Interconnect,
    /// Tuner configuration.
    pub tuner: TunerConfig,
}

impl Scale {
    /// Read the knobs from the environment.
    ///
    /// The numeric knobs fall back to their defaults on parse failure,
    /// but an unknown `RECFLEX_INTERCONNECT` aborts: silently serving
    /// over NVLink when the run asked for PCIe would invalidate the
    /// experiment without any visible symptom.
    pub fn from_env() -> Self {
        let model_frac = std::env::var("RECFLEX_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.1);
        let batch_size = std::env::var("RECFLEX_BATCH")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256);
        let eval_batches = std::env::var("RECFLEX_EVAL_BATCHES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16);
        let interconnect_name = std::env::var("RECFLEX_INTERCONNECT")
            .unwrap_or_else(|_| "nvlink".to_string())
            .to_ascii_lowercase();
        let interconnect = Interconnect::by_name(&interconnect_name).unwrap_or_else(|| {
            panic!("RECFLEX_INTERCONNECT={interconnect_name} is not one of nvlink, pcie, ideal")
        });
        let tuner = TunerConfig {
            occupancy_levels: Some(vec![1, 2, 4, 8, 16]),
            tuning_batches: 3,
            pad_fill: 2.0,
        };
        Scale {
            model_frac,
            batch_size,
            eval_batches,
            interconnect_name,
            interconnect,
            tuner,
        }
    }

    /// Build a preset at this scale.
    pub fn model(&self, preset: ModelPreset) -> ModelConfig {
        preset.scaled(self.model_frac)
    }
}

/// A fully prepared experiment fixture for one model on one architecture.
pub struct Fixture {
    /// The (scaled) model.
    pub model: ModelConfig,
    /// Its tables.
    pub tables: TableSet,
    /// Historical batches for tuning/compilation.
    pub history: Dataset,
    /// Fresh evaluation batches.
    pub eval: Dataset,
    /// Target architecture.
    pub arch: GpuArch,
}

impl Fixture {
    /// Prepare model, tables, tuning history and evaluation split.
    ///
    /// Evaluation batches cycle through varying request sizes around the
    /// configured batch size — online serving never sees one fixed size
    /// (Section II-C "the varied batch sizes … contribute to the
    /// dynamics"), and this variation is what the Figure 13 mapping
    /// ablation exploits.
    pub fn prepare(preset: ModelPreset, arch: &GpuArch, scale: &Scale) -> Self {
        let model = scale.model(preset);
        let tables = TableSet::for_model(&model);
        let bs = scale.batch_size;
        let hist_sizes: Vec<u32> = [1.0, 0.5, 0.75]
            .iter()
            .cycle()
            .take(scale.tuner.tuning_batches.max(2))
            .map(|f| ((bs as f64 * f) as u32).max(1))
            .collect();
        let history = Dataset::synthesize_varied(&model, &hist_sizes, 0xA11CE);
        let eval_sizes: Vec<u32> = [1.0, 0.25, 0.5, 1.0, 0.125, 0.75]
            .iter()
            .cycle()
            .take(scale.eval_batches)
            .map(|f| ((bs as f64 * f) as u32).max(1))
            .collect();
        let eval = Dataset::synthesize_varied(&model, &eval_sizes, 0xE7A1 ^ 0xA11CE);
        Fixture {
            model,
            tables,
            history,
            eval,
            arch: arch.clone(),
        }
    }

    /// Tune a RecFlex engine on the fixture's history.
    pub fn tune_recflex(&self, scale: &Scale) -> RecFlexEngine {
        RecFlexEngine::tune(&self.model, &self.history, &self.arch, &scale.tuner)
    }

    /// Total embedding-stage latency of `backend` over all eval batches:
    /// `Ok(None)` only when the backend does not support the model. A
    /// backend that supports it but fails to launch is an error, never a
    /// silently missing row.
    pub fn total_latency(&self, backend: &dyn Backend) -> Result<Option<f64>, BackendError> {
        if !backend.supports(&self.model) {
            return Ok(None);
        }
        let mut total = 0.0;
        for b in self.eval.batches() {
            total += backend
                .cost(&self.model, &self.tables, b, &self.arch)?
                .latency_us;
        }
        Ok(Some(total))
    }

    /// Whether `backend`'s pooled output on the first eval batch is
    /// bit-identical to the scalar reference (vacuously true without eval
    /// batches).
    pub fn output_is_bit_exact(&self, backend: &dyn Backend) -> Result<bool, BackendError> {
        let Some(batch) = self.eval.batches().first() else {
            return Ok(true);
        };
        let out = backend
            .run(&self.model, &self.tables, batch, &self.arch)?
            .output;
        let golden = reference_model_output(&self.model, &self.tables, batch);
        Ok(out.bits_eq(&golden))
    }

    /// All baselines applicable to this model, freshly compiled.
    pub fn baselines(&self) -> Vec<Box<dyn Backend>> {
        let mut v: Vec<Box<dyn Backend>> = vec![
            Box::new(TensorFlowBackend),
            Box::new(RecomBackend::compile(&self.model, &self.history)),
            Box::new(TorchRecBackend::compile(&self.model)),
        ];
        if HugeCtrBackend.supports(&self.model) {
            v.push(Box::new(HugeCtrBackend));
        }
        v
    }
}

/// Paper §VII's composition of RecFlex with table placement: LPT-place
/// `model`'s tables over `num_devices` GPUs by their measured costs
/// ([`feature_cost_estimates`] on `history`), then tune one engine per
/// device on the history projected onto its features. The tunes are
/// independent, so they run in parallel over devices.
pub fn place_and_tune(
    model: &ModelConfig,
    history: &Dataset,
    arch: &GpuArch,
    tuner: &TunerConfig,
    num_devices: usize,
) -> (Placement, Vec<RecFlexEngine>) {
    let costs = feature_cost_estimates(model, history, arch);
    let placement = Placement::balance_by_cost(num_devices, &costs);
    let engines = (0..num_devices)
        .into_par_iter()
        .map(|dev| {
            let batches = history
                .batches()
                .iter()
                .map(|b| placement.project_batch(b, dev))
                .collect();
            let sub_model = placement.sub_model(model, dev);
            RecFlexEngine::tune(&sub_model, &Dataset::from_batches(batches), arch, tuner)
        })
        .collect();
    (placement, engines)
}

/// A tier serving `engines` (one per device of `placement`, in device
/// order) one request at a time: closed loop, one stream, unsplit. Each
/// request then takes its slowest shard's cost plus a ring all-gather of
/// the pooled output over `interconnect`.
pub fn one_at_a_time_tier<'a>(
    model: &'a ModelConfig,
    arch: &'a GpuArch,
    placement: Placement,
    interconnect: Interconnect,
    engines: &'a [RecFlexEngine],
) -> ShardedServeRuntime<'a> {
    let config = ServeConfig {
        streams: 1,
        policy: BatchPolicy::Unsplit,
        closed_loop: true,
        ..ServeConfig::default()
    };
    // `build` asks for one backend per device, in device order.
    let next = Cell::new(0);
    ShardedServeRuntime::build(model, arch, placement, config, interconnect, |_| {
        Box::new(&engines[next.replace(next.get() + 1)])
    })
}

/// One row of a comparison table.
#[derive(Debug, Clone)]
pub struct Row {
    /// System name.
    pub name: String,
    /// Total latency over the evaluation set, µs.
    pub latency_us: f64,
}

/// Print a normalized performance table (fastest = 1.00, as in Figures
/// 9/10) and return `(name, normalized_perf)` pairs.
pub fn print_normalized(title: &str, rows: &[Row]) -> Vec<(String, f64)> {
    let best = rows
        .iter()
        .map(|r| r.latency_us)
        .fold(f64::INFINITY, f64::min);
    println!("\n== {title} ==");
    println!(
        "{:<12} {:>14} {:>12}",
        "system", "latency (us)", "normalized"
    );
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        let norm = best / r.latency_us;
        println!("{:<12} {:>14.1} {:>12.3}", r.name, r.latency_us, norm);
        out.push((r.name.clone(), norm));
    }
    out
}

/// Geometric mean.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Pretty-print average speedups of `reference` over each other system,
/// pooled across experiments (the paper's "average speedups of …" lines).
pub fn print_average_speedups(reference: &str, pools: &[(String, Vec<f64>)]) {
    println!("\n-- average speedups of {reference} --");
    for (name, ratios) in pools {
        if !ratios.is_empty() {
            println!(
                "  over {:<12} {:>8.2}x  (n={})",
                name,
                geomean(ratios),
                ratios.len()
            );
        }
    }
}

/// Both testbed architectures, in paper order.
pub fn both_archs() -> Vec<GpuArch> {
    vec![GpuArch::v100(), GpuArch::a100()]
}

/// Command-line options shared by the experiment binaries.
///
/// * `--json <path>` — also write the run's results as a JSON report, for
///   CI artifact upload and the `threads-replay` diff.
/// * `--check` — after printing, verify the run's acceptance thresholds
///   and exit non-zero on violation (the CI perf gate).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CliOpts {
    /// Where to write the JSON report, if requested.
    pub json_path: Option<std::path::PathBuf>,
    /// Whether to enforce the binary's acceptance thresholds.
    pub check: bool,
}

impl CliOpts {
    /// Parse from an argument iterator (without the program name).
    /// Unknown arguments abort: a typoed flag silently ignored would
    /// void the CI gate it was meant to arm.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = CliOpts::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--json" => {
                    let path = it.next().ok_or("--json requires a path argument")?;
                    opts.json_path = Some(std::path::PathBuf::from(path));
                }
                "--check" => opts.check = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(opts)
    }

    /// Parse the process arguments, exiting with a usage message on error.
    pub fn from_args() -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(e) => {
                eprintln!("error: {e}\nusage: <binary> [--json <path>] [--check]");
                std::process::exit(2);
            }
        }
    }

    /// Write `report` as pretty JSON to the `--json` path, if one was
    /// given. Panics on I/O failure — in CI a missing artifact must fail
    /// the job, not pass silently.
    pub fn write_json<T: serde::Serialize>(&self, report: &T) {
        if let Some(path) = &self.json_path {
            let text = serde_json::to_string_pretty(report).expect("serialize report");
            std::fs::write(path, text + "\n")
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            println!("\nJSON report written to {}", path.display());
        }
    }
}

/// Generate a single long-tail request (Section VI-D's 2 560-sample batch).
pub fn long_tail_batch(model: &ModelConfig) -> Batch {
    Batch::generate(model, 2560, 0x1077A11)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale(eval_batches: usize) -> Scale {
        Scale {
            model_frac: 0.005,
            batch_size: 32,
            eval_batches,
            interconnect_name: "nvlink".to_string(),
            interconnect: Interconnect::nvlink(),
            tuner: TunerConfig::fast(),
        }
    }

    #[test]
    fn cli_opts_parse_json_and_check() {
        let opts =
            CliOpts::parse_from(["--json", "out.json", "--check"].map(String::from)).unwrap();
        assert_eq!(
            opts.json_path.as_deref(),
            Some(std::path::Path::new("out.json"))
        );
        assert!(opts.check);
        assert_eq!(CliOpts::parse_from([]).unwrap(), CliOpts::default());
        assert!(CliOpts::parse_from(["--json".into()]).is_err());
        assert!(CliOpts::parse_from(["--jsno".into()]).is_err());
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn fixture_prepares_consistent_shapes() {
        let scale = tiny_scale(2);
        let f = Fixture::prepare(ModelPreset::A, &GpuArch::v100(), &scale);
        assert_eq!(f.tables.len(), f.model.features.len());
        assert_eq!(f.eval.len(), 2);
        assert!(f.history.len() >= 2);
    }

    #[test]
    fn total_latency_none_for_unsupported() {
        let scale = tiny_scale(1);
        let f = Fixture::prepare(ModelPreset::A, &GpuArch::v100(), &scale);
        assert_eq!(
            f.total_latency(&HugeCtrBackend),
            Ok(None),
            "mixed dims unsupported"
        );
        assert!(matches!(f.total_latency(&TensorFlowBackend), Ok(Some(_))));
    }

    #[test]
    fn total_latency_propagates_launch_failures() {
        struct FailsToLaunch;
        impl Backend for FailsToLaunch {
            fn name(&self) -> &'static str {
                "fails-to-launch"
            }
            fn run(
                &self,
                _: &ModelConfig,
                _: &TableSet,
                _: &Batch,
                _: &GpuArch,
            ) -> Result<recflex_baselines::BackendRun, BackendError> {
                Err(recflex_sim::launch::LaunchError::EmptyGrid.into())
            }
        }
        let scale = tiny_scale(1);
        let f = Fixture::prepare(ModelPreset::A, &GpuArch::v100(), &scale);
        assert_eq!(
            f.total_latency(&FailsToLaunch),
            Err(BackendError::Launch("kernel grid is empty".into())),
            "a supported backend's launch failure is not an unsupported row"
        );
        assert!(f.output_is_bit_exact(&FailsToLaunch).is_err());
    }

    #[test]
    fn every_backend_output_is_bit_exact_on_the_first_eval_batch() {
        let scale = tiny_scale(1);
        let f = Fixture::prepare(ModelPreset::E, &GpuArch::v100(), &scale);
        let engine = f.tune_recflex(&scale);
        assert_eq!(f.output_is_bit_exact(&engine), Ok(true));
        for b in f.baselines() {
            assert_eq!(f.output_is_bit_exact(b.as_ref()), Ok(true), "{}", b.name());
        }
    }
}
