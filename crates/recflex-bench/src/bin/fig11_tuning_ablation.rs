//! Figure 11: two-stage interference-simulated tuning vs the straw-man
//! separate-and-combine tuner, on models A–E (V100).
//!
//! The paper reports the two-stage kernels beating the direct approach by
//! 4.82× on average; the gap comes from the straw man picking schedules
//! that look fast in isolation (full bandwidth, empty L2, idle SMs) but
//! collapse inside the busy fused kernel.

use recflex_baselines::BackendError;
use recflex_bench::{geomean, Fixture, Scale};
use recflex_core::RecFlexEngine;
use recflex_data::ModelPreset;
use recflex_sim::GpuArch;
use recflex_tuner::tune_separate_combine;

fn main() -> Result<(), BackendError> {
    let scale = Scale::from_env();
    let arch = GpuArch::v100();
    println!("== Fig.11: two-stage vs separate-combine tuning (V100) ==");
    println!(
        "{:<8} {:>16} {:>18} {:>12}",
        "model", "two-stage (us)", "separate-comb (us)", "improvement"
    );

    let mut ratios = Vec::new();
    for preset in ModelPreset::TABLE1 {
        let fixture = Fixture::prepare(preset, &arch, &scale);
        let two_stage = fixture.tune_recflex(&scale);
        let straw = tune_separate_combine(&fixture.model, &fixture.history, &arch, &scale.tuner);
        let straw_engine = RecFlexEngine::from_tune_result(&fixture.model, &arch, straw);

        let a = fixture
            .total_latency(&two_stage)?
            .expect("RecFlex supports every model");
        let b = fixture
            .total_latency(&straw_engine)?
            .expect("RecFlex supports every model");
        let ratio = b / a;
        ratios.push(ratio);
        println!(
            "{:<8} {:>16.1} {:>18.1} {:>11.2}x",
            preset.name(),
            a,
            b,
            ratio
        );
    }
    println!(
        "\naverage improvement: {:.2}x  (paper: 4.82x)",
        geomean(&ratios)
    );
    Ok(())
}
