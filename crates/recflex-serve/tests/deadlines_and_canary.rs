//! Integration tests for the two request-path extensions the pipeline
//! tier leans on:
//!
//! * [`ShardedServeRuntime::serve_with_deadlines`] — per-request
//!   admission deadlines overriding the tier-level SLO, used to thread
//!   per-stage
//!   [`DeadlineBudget`](recflex_serve::DeadlineBudget) shares through a
//!   pipeline;
//! * [`LifecycleConfig::canary`] — a canaried candidate shadow-executes
//!   every chunk of its window without ever touching the served path.

use recflex_baselines::{Backend, TorchRecBackend};
use recflex_data::{Batch, ModelConfig, ModelPreset, Placement};
use recflex_serve::{
    BatchPolicy, LifecycleConfig, OutcomePlan, Request, RequestRef, RetuneOutcome, ServeConfig,
    ServeError, ShardedRetunePolicy, ShardedServeRuntime, ShedReason, TunedCandidate, WorkloadSpec,
};
use recflex_sim::{GpuArch, Interconnect};

fn setup() -> (ModelConfig, GpuArch) {
    (ModelPreset::A.scaled(0.01), GpuArch::v100())
}

fn config(slo: Option<f64>) -> ServeConfig {
    ServeConfig {
        streams: 4,
        policy: BatchPolicy::Split { cap: 256 },
        slo_deadline_us: slo,
        closed_loop: false,
        hot_shard_cap: None,
    }
}

fn views(reqs: &[Request]) -> Vec<RequestRef<'_>> {
    reqs.iter().map(Request::view).collect()
}

fn tier<'a>(model: &'a ModelConfig, arch: &'a GpuArch, shards: usize) -> ShardedServeRuntime<'a> {
    ShardedServeRuntime::build(
        model,
        arch,
        Placement::balance(model, shards),
        config(None),
        Interconnect::nvlink(),
        |m| Box::new(TorchRecBackend::compile(m)),
    )
}

#[test]
fn unbounded_deadlines_match_a_tier_without_an_slo_bit_for_bit() -> Result<(), ServeError> {
    let (m, arch) = setup();
    let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 32, 42);
    let rt = tier(&m, &arch, 2);
    let plain = rt.serve(&reqs)?;
    let deadlines = vec![f64::INFINITY; reqs.len()];
    let budgeted = rt.serve_with_deadlines(&views(&reqs), &deadlines)?;
    assert_eq!(
        serde_json::to_string(&plain).ok(),
        serde_json::to_string(&budgeted).ok(),
        "an unbounded deadline must not perturb the run"
    );
    Ok(())
}

#[test]
fn zero_window_deadlines_shed_queued_requests_at_admission() -> Result<(), ServeError> {
    let (m, arch) = setup();
    // Everything arrives at once: whoever finds backlog must shed.
    let reqs: Vec<Request> = (0..12)
        .map(|i| Request {
            id: i,
            arrival_us: 0.0,
            batch: Batch::generate(&m, 256, 900 + i),
        })
        .collect();
    let rt = tier(&m, &arch, 2);
    let deadlines = vec![0.0; reqs.len()];
    let report = rt.serve_with_deadlines(&views(&reqs), &deadlines)?;
    let shed = report
        .records
        .iter()
        .filter(|r| r.base.shed != ShedReason::None)
        .count();
    assert!(shed > 0, "zero admission window under backlog must shed");
    // The first-admitted request saw an empty tier and survives.
    assert!(
        shed < reqs.len(),
        "an empty tier admits a zero-window request"
    );
    Ok(())
}

#[test]
fn deadline_vector_length_must_match_the_stream() {
    let (m, arch) = setup();
    let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 4, 1);
    for shards in [1, 2] {
        assert!(matches!(
            tier(&m, &arch, shards).serve_with_deadlines(&views(&reqs), &[1_000.0]),
            Err(ServeError::Policy(_))
        ));
    }
}

#[test]
fn single_device_deadlines_override_the_config_slo() -> Result<(), ServeError> {
    let (m, arch) = setup();
    let reqs: Vec<Request> = (0..10)
        .map(|i| Request {
            id: i,
            arrival_us: i as f64,
            batch: Batch::generate(&m, 256, 300 + i),
        })
        .collect();
    // A tight tier-level SLO sheds under this burst…
    let tight = ShardedServeRuntime::single_device(
        &m,
        &arch,
        config(Some(500.0)),
        TorchRecBackend::compile(&m),
    );
    let slo_report = tight.serve(&reqs)?;
    assert!(slo_report.shed_rate() > 0.0);
    // …but generous per-request deadlines on the same config admit
    // everything: the vector overrides the tier SLO.
    let deadlines: Vec<f64> = reqs.iter().map(|r| r.arrival_us + 1e9).collect();
    let open = tight.serve_with_deadlines(&views(&reqs), &deadlines)?;
    assert_eq!(open.shed_rate(), 0.0);
    Ok(())
}

/// In-distribution head, heavily shifted tail — drifts the monitor
/// partway through (same shape as the lifecycle tests).
fn drifting_stream(m: &ModelConfig) -> Vec<Request> {
    let shifted = recflex_data::shift_distribution(m, 2.5, 0.0);
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

fn canary_policy(outcomes: OutcomePlan) -> ShardedRetunePolicy<'static> {
    ShardedRetunePolicy {
        lifecycle: LifecycleConfig {
            outcomes,
            canary: true,
            ..LifecycleConfig::default()
        },
        retuner: Box::new(|sm: &ModelConfig, _: &[Batch]| {
            TunedCandidate::from(Box::new(TorchRecBackend::compile(sm)) as Box<dyn Backend>)
        }),
    }
}

#[test]
fn shadow_canary_leaves_served_records_unchanged() -> Result<(), ServeError> {
    let (m, arch) = setup();
    let reqs = drifting_stream(&m);
    let regressed = OutcomePlan::scripted(vec![RetuneOutcome::Regression { slowdown: 4.0 }; 8]);
    let shadow = tier(&m, &arch, 2).serve_with_retune(&reqs, &mut canary_policy(regressed))?;
    let plain = tier(&m, &arch, 2).serve(&reqs)?;
    // Shadow canarying never touches the served path: request records
    // match a tier that never retuned.
    assert_eq!(shadow.records, plain.records);
    Ok(())
}
