//! Multi-GPU sharding (paper Section VII "Larger model sizes"): balance
//! the embedding tables over several simulated GPUs, tune RecFlex per
//! shard, and measure the scaling of the embedding stage.
//!
//! One request is served on an idle sharded tier per device count, so its
//! latency is the slowest shard's kernel plus the all-gather of the pooled
//! outputs over `RECFLEX_INTERCONNECT`. `--json` writes the rows.

use recflex_bench::{one_at_a_time_tier, place_and_tune, CliOpts, Scale};
use recflex_data::{Batch, Dataset, ModelPreset};
use recflex_serve::Request;
use recflex_sim::GpuArch;
use serde::Serialize;

#[derive(Serialize)]
struct ScaleRow {
    devices: usize,
    latency_us: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct ScaleReport {
    model: String,
    num_features: usize,
    interconnect: String,
    rows: Vec<ScaleRow>,
}

fn main() {
    let opts = CliOpts::from_args();
    let scale = Scale::from_env();
    let arch = GpuArch::v100();
    let model = scale.model(ModelPreset::A);
    let history = Dataset::synthesize(&model, 3, scale.batch_size, 5);
    let request = Request {
        id: 0,
        arrival_us: 0.0,
        batch: Batch::generate(&model, scale.batch_size, 77),
    };

    println!(
        "== multi-GPU sharding, model A ({} features) ==",
        model.num_features()
    );
    println!("{:>8} {:>14} {:>10}", "devices", "latency (us)", "speedup");
    let mut rows = Vec::new();
    let mut base = None;
    for devices in [1usize, 2, 4, 8] {
        let (placement, engines) = place_and_tune(&model, &history, &arch, &scale.tuner, devices);
        let tier = one_at_a_time_tier(
            &model,
            &arch,
            placement,
            scale.interconnect.clone(),
            &engines,
        );
        let report = tier
            .serve(std::slice::from_ref(&request))
            .expect("a valid request on a valid tier");
        let latency = report.records[0].base.latency_us();
        let baseline = *base.get_or_insert(latency);
        let speedup = baseline / latency;
        println!("{devices:>8} {latency:>14.1} {speedup:>9.2}x");
        rows.push(ScaleRow {
            devices,
            latency_us: latency,
            speedup,
        });
    }
    println!(
        "\n(the paper composes RecFlex with table placement for models beyond one GPU's memory)"
    );
    opts.write_json(&ScaleReport {
        model: model.name.clone(),
        num_features: model.features.len(),
        interconnect: scale.interconnect_name.clone(),
        rows,
    });
}
