//! Section VI-B MLPerf experiment: on the 26-feature, low-heterogeneity
//! MLPerf/criteo-style dataset, RecFlex has nothing to exploit and should
//! land at ≈ parity with TorchRec (paper: "nearly the same kernel
//! performance").

use recflex_baselines::{Backend, BackendError, TorchRecBackend};
use recflex_bench::{print_normalized, Fixture, Row, Scale};
use recflex_data::ModelPreset;
use recflex_sim::GpuArch;

fn main() -> Result<(), BackendError> {
    let mut scale = Scale::from_env();
    scale.model_frac = 1.0; // 26 features is already laptop-size
    let arch = GpuArch::v100();
    let fixture = Fixture::prepare(ModelPreset::MLPerfLike, &arch, &scale);
    println!(
        "== MLPerf-like dataset: {} homogeneous multi-hot features ==",
        fixture.model.num_features()
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
        "MLPerf-like kernel latency",
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
    let ratio = theirs / ours;
    println!("\nRecFlex vs TorchRec: {ratio:.2}x  (paper: ~1.0x — low heterogeneity, no edge)");
    Ok(())
}
