//! The timing-only serving path: `Backend::cost` reports exactly the
//! timing `Backend::run` does, for every backend and wrapper, and no
//! serving path — single device, sharded tier, shadow or split-traffic
//! canary, regressed candidate — ever asks for functional output.

use recflex::baselines::{HugeCtrBackend, RecomBackend, TensorFlowBackend, TorchRecBackend};
use recflex::data::{shift_distribution, Placement};
use recflex::prelude::*;
use recflex::serve::{RegressedBackend, ServeError, TunedCandidate};
use recflex::sim::Interconnect;

/// `(latency bits, launches)`: what serving reads, compared bit for bit.
fn timing(cost: Result<CostReport, BackendError>) -> Result<(u64, u32), BackendError> {
    cost.map(|c| (c.latency_us.to_bits(), c.kernel_launches))
}

#[test]
fn cost_matches_run_for_every_backend_and_wrapper() {
    let arch = GpuArch::v100();
    for preset in [ModelPreset::A, ModelPreset::D, ModelPreset::E] {
        let m = preset.scaled(0.01);
        let tables = TableSet::for_model(&m);
        let history = Dataset::synthesize(&m, 2, 64, 5);
        let engine = RecFlexEngine::tune(&m, &history, &arch, &TunerConfig::fast());
        let backends: Vec<Box<dyn Backend + '_>> = vec![
            Box::new(&engine),
            Box::new(TorchRecBackend::compile(&m)),
            Box::new(RecomBackend::compile(&m, &history)),
            Box::new(HugeCtrBackend),
            Box::new(TensorFlowBackend),
            Box::new(RegressedBackend::new(
                Box::new(TorchRecBackend::compile(&m)),
                2.5,
            )),
            Box::new(RegressedBackend::new(Box::new(HugeCtrBackend), 3.0)),
        ];
        for size in [1, 37, 256] {
            let batch = Batch::generate(&m, size, 11 + u64::from(size));
            for b in &backends {
                let run = b.run(&m, &tables, &batch, &arch).map(|r| r.cost());
                let cost = b.cost(&m, &tables, &batch, &arch);
                assert_eq!(
                    timing(cost),
                    timing(run),
                    "{} on model {} at batch {size}",
                    b.name(),
                    preset.name()
                );
            }
        }
    }
    // The error half of the contract: HugeCTR refuses mixed dims the
    // same way through both paths.
    let a = ModelPreset::A.scaled(0.01);
    let batch = Batch::generate(&a, 16, 1);
    let tables = TableSet::for_model(&a);
    let err = HugeCtrBackend.cost(&a, &tables, &batch, &arch).unwrap_err();
    assert!(matches!(err, BackendError::Unsupported(_)));
    assert_eq!(
        HugeCtrBackend
            .run(&a, &tables, &batch, &arch)
            .map(|r| r.cost()),
        Err(err)
    );
}

/// A backend with no functional path: `run` always fails, `cost` is
/// TorchRec's. Any serving path that still calls `run` surfaces as a
/// `ServeError::Backend`.
struct CostOnly(TorchRecBackend);

impl Backend for CostOnly {
    fn name(&self) -> &'static str {
        "cost-only"
    }

    fn run(
        &self,
        _: &ModelConfig,
        _: &TableSet,
        _: &Batch,
        _: &GpuArch,
    ) -> Result<BackendRun, BackendError> {
        Err(BackendError::Launch(
            "serving asked for pooled output".into(),
        ))
    }

    fn cost(
        &self,
        model: &ModelConfig,
        tables: &TableSet,
        batch: &Batch,
        arch: &GpuArch,
    ) -> Result<CostReport, BackendError> {
        self.0.cost(model, tables, batch, arch)
    }
}

fn setup() -> (ModelConfig, GpuArch) {
    (ModelPreset::A.scaled(0.01), GpuArch::v100())
}

fn config() -> ServeConfig {
    ServeConfig {
        streams: 4,
        policy: BatchPolicy::Split { cap: 256 },
        slo_deadline_us: None,
        closed_loop: false,
        hot_shard_cap: None,
    }
}

/// A 2-shard tier whose lanes are `CostOnly` or plain TorchRec.
fn tier<'a>(m: &'a ModelConfig, arch: &'a GpuArch, cost_only: bool) -> ShardedServeRuntime<'a> {
    ShardedServeRuntime::build(
        m,
        arch,
        Placement::balance(m, 2),
        config(),
        Interconnect::nvlink(),
        move |sm| -> Box<dyn Backend> {
            let torchrec = TorchRecBackend::compile(sm);
            if cost_only {
                Box::new(CostOnly(torchrec))
            } else {
                Box::new(torchrec)
            }
        },
    )
}

/// In-distribution head, heavily shifted tail: drifts the monitor so a
/// retune (and its canary) starts partway through.
fn drifting_stream(m: &ModelConfig) -> Vec<Request> {
    let shifted = shift_distribution(m, 2.5, 0.0);
    let mut reqs = WorkloadSpec::long_tail(400.0).stream(m, 16, 5);
    let mut tail = WorkloadSpec::long_tail(400.0).stream(&shifted, 24, 6);
    let t0 = reqs.last().map_or(0.0, |r| r.arrival_us);
    for (k, r) in tail.iter_mut().enumerate() {
        r.arrival_us += t0;
        r.id = 16 + k as u64;
    }
    reqs.append(&mut tail);
    reqs
}

fn canary_policy(
    split_traffic: bool,
    outcome: RetuneOutcome,
    cost_only: bool,
) -> ShardedRetunePolicy<'static> {
    ShardedRetunePolicy {
        drift: DriftConfig {
            window: 8,
            threshold: 0.3,
            feature_threshold: 0.5,
        },
        retune_latency_us: 1_000.0,
        stagger_us: 0.0,
        lifecycle: LifecycleConfig {
            outcomes: OutcomePlan::scripted(vec![outcome; 8]),
            canary: Some(CanaryConfig {
                shadow_fraction: 1.0,
                window: 4,
                min_win_margin: 0.0,
                split_traffic,
            }),
            ..LifecycleConfig::default()
        },
        retuner: Box::new(move |sm: &ModelConfig, _: &[Batch]| {
            let torchrec = TorchRecBackend::compile(sm);
            let backend: Box<dyn Backend> = if cost_only {
                Box::new(CostOnly(torchrec))
            } else {
                Box::new(torchrec)
            };
            TunedCandidate::from(backend)
        }),
    }
}

#[test]
fn serving_never_calls_run() -> Result<(), ServeError> {
    let (m, arch) = setup();
    let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 32, 42);

    // One device through the `&B` forward.
    let backend = CostOnly(TorchRecBackend::compile(&m));
    let plain = TorchRecBackend::compile(&m);
    let served = ShardedServeRuntime::single_device(&m, &arch, config(), &backend).serve(&reqs)?;
    let reference = ShardedServeRuntime::single_device(&m, &arch, config(), &plain).serve(&reqs)?;
    assert_eq!(served.records.len(), reqs.len());
    assert_eq!(served, reference);

    // A 2-shard tier.
    let served = tier(&m, &arch, true).serve(&reqs)?;
    assert_eq!(served.records.len(), reqs.len());
    assert_eq!(served, tier(&m, &arch, false).serve(&reqs)?);

    // A shadow canary of a winning candidate, and a split-traffic canary
    // whose candidate is wrapped in `RegressedBackend` and serves real
    // traffic.
    let drifting = drifting_stream(&m);
    for (split, outcome) in [
        (false, RetuneOutcome::Success),
        (true, RetuneOutcome::Regression { slowdown: 4.0 }),
    ] {
        let served = tier(&m, &arch, true)
            .serve_with_retune(&drifting, &mut canary_policy(split, outcome, true))?;
        let reference = tier(&m, &arch, false)
            .serve_with_retune(&drifting, &mut canary_policy(split, outcome, false))?;
        assert_eq!(served.records.len(), drifting.len());
        assert!(served.lifecycle.canary_shadow_chunks > 0, "{outcome:?}");
        assert_eq!(served, reference, "split {split}, {outcome:?}");
    }
    Ok(())
}

#[test]
fn a_regressed_backend_costs_slowdown_times_its_inner_cost() -> Result<(), ServeError> {
    let (m, arch) = setup();
    let tables = TableSet::for_model(&m);
    let batch = Batch::generate(&m, 64, 3);
    let inner = CostOnly(TorchRecBackend::compile(&m))
        .cost(&m, &tables, &batch, &arch)
        .expect("TorchRec costs model A");
    let regressed = RegressedBackend::new(Box::new(CostOnly(TorchRecBackend::compile(&m))), 3.0);
    let cost = regressed
        .cost(&m, &tables, &batch, &arch)
        .expect("the forward reaches CostOnly::cost");
    assert_eq!(
        cost.latency_us.to_bits(),
        (inner.latency_us * 3.0).to_bits()
    );
    assert_eq!(cost.kernel_launches, inner.kernel_launches);

    let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 16, 9);
    let served = ShardedServeRuntime::single_device(&m, &arch, config(), regressed).serve(&reqs)?;
    assert_eq!(served.records.len(), reqs.len());
    assert_eq!(served.shed_rate(), 0.0);
    Ok(())
}
