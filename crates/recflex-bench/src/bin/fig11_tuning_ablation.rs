//! Figure 11: two-stage interference-simulated tuning vs the straw-man
//! separate-and-combine tuner, on models A–E (V100).
//!
//! The paper reports the two-stage kernels beating the direct approach by
//! 4.82× on average; the gap comes from the straw man picking schedules
//! that look fast in isolation (full bandwidth, empty L2, idle SMs) but
//! collapse inside the busy fused kernel.
//!
//! `--json <path>` writes, per model, what both tuners chose and what their
//! kernels cost: the two-stage tuner's per-feature choices, occupancy,
//! global-stage measurements and evaluation count, and the straw man's
//! choices, plus both total latencies. Every field is a pure function of
//! the scale, so the report must be byte-identical at any pool size.

use recflex_baselines::BackendError;
use recflex_bench::{geomean, CliOpts, Fixture, Scale};
use recflex_core::RecFlexEngine;
use recflex_data::ModelPreset;
use recflex_sim::GpuArch;
use recflex_tuner::tune_separate_combine;
use serde::Serialize;

#[derive(Serialize)]
struct ModelRow {
    model: String,
    /// Two-stage winner per feature: its index in the candidate set.
    two_stage_choices: Vec<usize>,
    /// Occupancy the global stage settled on (`None`: natural occupancy).
    two_stage_occupancy: Option<u32>,
    /// Global-stage `(O_k, mean fused latency in µs)` measurements.
    two_stage_global_latencies: Vec<(u32, f64)>,
    /// Kernel launches the two-stage tune simulated.
    two_stage_evaluations: usize,
    /// Straw-man winner per feature.
    separate_combine_choices: Vec<usize>,
    /// Total latency over the evaluation batches, µs.
    two_stage_us: f64,
    /// Total latency over the evaluation batches, µs.
    separate_combine_us: f64,
    /// `separate_combine_us / two_stage_us`.
    improvement: f64,
}

#[derive(Serialize)]
struct Fig11Report {
    arch: String,
    models: Vec<ModelRow>,
    /// Geometric mean of the per-model improvements.
    average_improvement: f64,
}

fn main() -> Result<(), BackendError> {
    let opts = CliOpts::from_args();
    let scale = Scale::from_env();
    let arch = GpuArch::v100();
    println!("== Fig.11: two-stage vs separate-combine tuning (V100) ==");
    println!(
        "{:<8} {:>16} {:>18} {:>12}",
        "model", "two-stage (us)", "separate-comb (us)", "improvement"
    );

    let mut rows = Vec::new();
    for preset in ModelPreset::TABLE1 {
        let fixture = Fixture::prepare(preset, &arch, &scale);
        let two_stage = fixture.tune_recflex(&scale);
        let straw = tune_separate_combine(&fixture.model, &fixture.history, &arch, &scale.tuner);
        let straw_choices = straw.choices.clone();
        let straw_engine = RecFlexEngine::from_tune_result(&fixture.model, &arch, straw);

        let a = fixture
            .total_latency(&two_stage)?
            .expect("RecFlex supports every model");
        let b = fixture
            .total_latency(&straw_engine)?
            .expect("RecFlex supports every model");
        let ratio = b / a;
        println!(
            "{:<8} {:>16.1} {:>18.1} {:>11.2}x",
            preset.name(),
            a,
            b,
            ratio
        );
        let tuned = &two_stage.tune_result;
        rows.push(ModelRow {
            model: preset.name().to_string(),
            two_stage_choices: tuned.choices.clone(),
            two_stage_occupancy: tuned.occupancy,
            two_stage_global_latencies: tuned.global_latencies.clone(),
            two_stage_evaluations: tuned.evaluations,
            separate_combine_choices: straw_choices,
            two_stage_us: a,
            separate_combine_us: b,
            improvement: ratio,
        });
    }
    let ratios: Vec<f64> = rows.iter().map(|r| r.improvement).collect();
    let average_improvement = geomean(&ratios);
    println!("\naverage improvement: {average_improvement:.2}x  (paper: 4.82x)");
    opts.write_json(&Fig11Report {
        arch: arch.name.to_string(),
        models: rows,
        average_improvement,
    });
    Ok(())
}
