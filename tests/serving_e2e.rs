//! Cross-crate integration: tune a RecFlex engine through the facade and
//! serve an online request stream with every batching policy, ending in a
//! drift-triggered hot swap. This is the README's tune → compile → serve
//! story run end to end.

use recflex::data::shift_distribution;
use recflex::prelude::*;

fn tuned() -> (ModelConfig, GpuArch, RecFlexEngine) {
    let model = ModelPreset::A.scaled(0.01);
    let arch = GpuArch::v100();
    let history = Dataset::synthesize(&model, 2, 64, 5);
    let engine = RecFlexEngine::tune(&model, &history, &arch, &TunerConfig::fast());
    (model, arch, engine)
}

#[test]
fn facade_tune_then_serve_all_policies() {
    let (model, arch, engine) = tuned();
    let stream = WorkloadSpec::long_tail(600.0).stream(&model, 16, 11);
    for policy in [
        BatchPolicy::Unsplit,
        BatchPolicy::Split { cap: 128 },
        BatchPolicy::Dynamic {
            max_batch: 256,
            max_wait_us: 200.0,
        },
    ] {
        let config = ServeConfig {
            streams: 2,
            policy,
            slo_deadline_us: None,
            closed_loop: false,
            hot_shard_cap: None,
        };
        let runtime = ShardedServeRuntime::single_device(&model, &arch, config, &engine);
        let report = runtime.serve(&stream).unwrap();
        assert_eq!(report.records.len(), 16);
        assert_eq!(report.shed_rate(), 0.0);
        let replay = runtime.serve(&stream).unwrap();
        assert_eq!(report, replay, "deterministic replay through the facade");
    }
}

#[test]
fn facade_offline_wrapper_matches_paper_splitting_semantics() {
    // The offline setting: one request at a time on one stream, split
    // at the industrial cap.
    let (model, arch, engine) = tuned();
    let config = ServeConfig {
        streams: 1,
        policy: BatchPolicy::Split { cap: 128 },
        closed_loop: true,
        ..ServeConfig::default()
    };
    let runtime = ShardedServeRuntime::single_device(&model, &arch, config, &engine);
    let long = Request {
        id: 0,
        arrival_us: 0.0,
        batch: Batch::generate(&model, 512, 3),
    };
    let report = runtime.serve(&[long]).unwrap();
    assert_eq!(report.records.len(), 1);
    assert_eq!(report.kernel_launches, 4, "512 samples split into 4 chunks");
}

#[test]
fn facade_drift_retune_hot_swaps_a_fresh_engine() {
    let (model, arch, engine) = tuned();
    let shifted = shift_distribution(&model, 2.5, 0.0);
    let stream = WorkloadSpec::long_tail(600.0).stream(&shifted, 20, 23);
    let mut policy = ShardedRetunePolicy {
        lifecycle: LifecycleConfig::default(),
        retuner: Box::new(|_: &ModelConfig, recent: &[Batch]| {
            let ds = Dataset::from_batches(recent.to_vec());
            (Box::new(RecFlexEngine::tune(
                &ModelPreset::A.scaled(0.01),
                &ds,
                &GpuArch::v100(),
                &TunerConfig::fast(),
            )) as Box<dyn Backend>)
                .into()
        }),
    };
    let config = ServeConfig {
        streams: 2,
        policy: BatchPolicy::Split { cap: 256 },
        slo_deadline_us: None,
        closed_loop: false,
        hot_shard_cap: None,
    };
    let runtime = ShardedServeRuntime::single_device(&model, &arch, config, &engine);
    let report = runtime.serve_with_retune(&stream, &mut policy).unwrap();
    assert!(
        report.lifecycle.retunes_promoted >= 1,
        "shifted traffic must trigger a retune"
    );
    assert_eq!(
        report.records.len(),
        20,
        "serving continues across the swap"
    );
}
