//! Tune → compile → serve → verify, end to end, at a small scale.
//!
//! Offline, a `RecFlexEngine` is tuned on synthetic history and compiled
//! into one fused heterogeneous-schedule kernel, verified bit-exact against
//! the scalar reference. Online, the engine serves a seeded Poisson
//! long-tail request stream through `recflex-serve` with dynamic batching
//! and an SLO — and the whole run replays bit-identically.

use recflex::embedding::reference_model_output;
use recflex::prelude::*;

fn main() {
    let model = ModelPreset::A.scaled(0.02);
    let history = Dataset::synthesize(&model, 4, 128, 42);
    let arch = GpuArch::v100();

    // Offline: two-stage interference-aware tuning + fused compilation.
    let engine = RecFlexEngine::tune(&model, &history, &arch, &TunerConfig::fast());

    // One fused launch, checked against the golden scalar implementation.
    let batch = Batch::generate(&model, 256, 7);
    let (pooled, report) = engine.run(&batch).expect("fused launch");
    let tables = TableSet::for_model(&model);
    assert_eq!(pooled, reference_model_output(&model, &tables, &batch));
    println!(
        "fused launch: {:.1} us, {:.1} GB/s, bit-exact vs reference",
        report.latency_us, report.metrics.memory_throughput_gbps
    );

    // Online: a Poisson long-tail stream under dynamic batching + an SLO.
    let stream = WorkloadSpec::long_tail(800.0).stream(&model, 32, 9);
    let config = ServeConfig {
        streams: 4,
        policy: BatchPolicy::Dynamic {
            max_batch: 256,
            max_wait_us: 200.0,
        },
        slo_deadline_us: Some(20_000.0),
        ..ServeConfig::default()
    };
    let runtime = ShardedServeRuntime::single_device(&model, &arch, config, &engine);
    let served = runtime.serve(&stream).expect("serve");
    println!(
        "served {} requests: p50 {:.1} us, p99 {:.1} us, mean queue {:.1} us, \
         {} launches, shed {:.1}%",
        served.completed().count(),
        served.percentile_us(0.50),
        served.percentile_us(0.99),
        served.mean_queue_us(),
        served.kernel_launches,
        100.0 * served.shed_rate(),
    );

    let replay = runtime.serve(&stream).expect("replay");
    assert_eq!(served, replay);
    println!("replay: bit-identical");
}
