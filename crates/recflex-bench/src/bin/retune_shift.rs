//! Periodic re-tuning under distribution shift (paper Section IV-A3):
//! schedules are "generally optimal in each period" and re-tuned every few
//! days. This experiment drifts the input distribution (pooling intensity
//! doubles, coverage shifts) and compares serving the drifted traffic with
//! the *stale* schedules vs after re-tuning.

use recflex_baselines::Backend;
use recflex_bench::Scale;
use recflex_core::RecFlexEngine;
use recflex_data::{shift_distribution, Dataset, ModelPreset};
use recflex_embedding::TableSet;
use recflex_sim::GpuArch;

fn main() {
    let scale = Scale::from_env();
    let arch = GpuArch::v100();
    let model = scale.model(ModelPreset::A);

    // Period 1: tune on the original distribution.
    let week1 = Dataset::synthesize(&model, 3, scale.batch_size, 0x11);
    let mut engine = RecFlexEngine::tune(&model, &week1, &arch, &scale.tuner);

    // Period 2: the traffic drifts. The *model shape* (tables, dims) is
    // unchanged — only the workload statistics move — so the stale fused
    // kernel still runs, just with schedules tuned for the wrong workload.
    let drifted_model = shift_distribution(&model, 6.0, 0.3);
    let drifted_traffic =
        Dataset::synthesize(&drifted_model, scale.eval_batches, scale.batch_size, 0x22);
    let tables = TableSet::for_model(&model);

    let serve = |engine: &RecFlexEngine| -> f64 {
        drifted_traffic
            .batches()
            .iter()
            .map(|b| {
                Backend::cost(engine, &model, &tables, b, &arch)
                    .unwrap()
                    .latency_us
            })
            .sum()
    };

    let stale = serve(&engine);

    // Re-tune on a sample of the drifted traffic (the periodic job).
    let retune_data = Dataset::synthesize(&drifted_model, 3, scale.batch_size, 0x33);
    engine.retune(&retune_data, &scale.tuner);
    let fresh = serve(&engine);

    println!("== periodic re-tuning under distribution shift (model A, V100) ==");
    println!("stale schedules (tuned on week-1 traffic): {stale:>12.1} us");
    println!("re-tuned schedules (week-2 traffic)      : {fresh:>12.1} us");
    println!("re-tuning recovers: {:.2}x", stale / fresh);
    println!("\n(the paper re-tunes every few days to track drift, Section IV-A3)");
}
