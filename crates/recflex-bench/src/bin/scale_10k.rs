//! Section VI-B scalability: a dataset with an extremely large number of
//! features (10 000 at full scale). Paper: RecFlex keeps a 4.2× speedup
//! over TorchRec.

use recflex_baselines::{Backend, BackendError, TorchRecBackend};
use recflex_bench::{print_normalized, Fixture, Row, Scale};
use recflex_data::ModelPreset;
use recflex_sim::GpuArch;

fn main() -> Result<(), BackendError> {
    let mut scale = Scale::from_env();
    // Scale10k at the harness default would already be paper-scale; halve
    // it so the experiment stays in the regime where the analytic model
    // differentiates schedules (see EXPERIMENTS.md on the fidelity limit
    // of aggregate-bandwidth-bound very large models).
    scale.model_frac = (scale.model_frac * 0.5).min(1.0);
    let arch = GpuArch::v100();
    let fixture = Fixture::prepare(ModelPreset::Scale10k, &arch, &scale);
    println!(
        "== Scalability: {} features (scale {}) ==",
        fixture.model.num_features(),
        scale.model_frac
    );
    let engine = fixture.tune_recflex(&scale);
    let torchrec = TorchRecBackend::compile(&fixture.model);

    let ours = fixture
        .total_latency(&engine)?
        .expect("RecFlex supports every model");
    let theirs = fixture
        .total_latency(&torchrec)?
        .expect("TorchRec supports every model");
    print_normalized(
        "Scale10k kernel latency",
        &[
            Row {
                name: "RecFlex".into(),
                latency_us: ours,
            },
            Row {
                name: torchrec.name().to_string(),
                latency_us: theirs,
            },
        ],
    );
    println!(
        "\nspeedup over TorchRec: {:.2}x  (paper: 4.2x)",
        theirs / ours
    );
    Ok(())
}
