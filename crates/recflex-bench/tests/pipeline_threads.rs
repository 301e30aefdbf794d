//! Thread-invariance gates for the pipeline tier.
//!
//! The CI `threads-replay` matrix diffs `serving_pipeline --json` output
//! across `RECFLEX_THREADS=1` and `4`; these tests pin the same property
//! in-process under explicitly sized vendored-`rayon` pools (`install`
//! overrides the process-wide `RECFLEX_THREADS` choice, so one test
//! process covers both counts):
//!
//! * the plain sharded tier's whole report serializes byte-identically,
//!   and a 1-stage pipeline's records replay identically, at 1 and 4
//!   workers and sequentially; the pipeline's records match the tier's
//!   (same ids, arrival and answer instants bit for bit, shed and
//!   degraded flags, one attempt each);
//! * a 2-stage budgeted run under a mid-stream ranking stall replays
//!   identically — records, per-stage stats, and the derived
//!   `PipelineReport` — at 1 and 4 workers.

use rayon::ThreadPool;
use recflex_baselines::TorchRecBackend;
use recflex_data::{ModelConfig, ModelPreset, Placement};
use recflex_serve::{
    BatchPolicy, BudgetedPolicy, Fault, FaultKind, FaultPlan, PipelineRuntime, PipelineSpec,
    ServeConfig, ServeError, ShardedServeRuntime, StagePolicy, StageSpec, WorkloadSpec,
};
use recflex_sim::{GpuArch, Interconnect};

/// The worker counts the CI matrix replays at.
const POOLS: &[usize] = &[1, 4];

fn stage_config() -> ServeConfig {
    ServeConfig {
        streams: 4,
        policy: BatchPolicy::Split { cap: 256 },
        slo_deadline_us: None,
        closed_loop: false,
        hot_shard_cap: None,
    }
}

fn stage_tier<'a>(
    model: &'a ModelConfig,
    arch: &'a GpuArch,
    shards: usize,
    plan: FaultPlan,
) -> ShardedServeRuntime<'a> {
    ShardedServeRuntime {
        faults: plan,
        ..ShardedServeRuntime::build(
            model,
            arch,
            Placement::balance(model, shards),
            stage_config(),
            Interconnect::nvlink(),
            |m| Box::new(TorchRecBackend::compile(m)),
        )
    }
}

#[test]
fn one_stage_pipeline_matches_the_plain_tier_at_one_and_four_workers() -> Result<(), ServeError> {
    let m = ModelPreset::A.scaled(0.01);
    let arch = GpuArch::v100();
    let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 32, 42);
    let run = || {
        let plain = stage_tier(&m, &arch, 2, FaultPlan::none()).serve(&reqs)?;
        let pipe = PipelineRuntime::new(
            PipelineSpec {
                slo_us: 50_000.0,
                stages: vec![StageSpec::retrieval(64, 1.0)],
                policy: StagePolicy::Budgeted(BudgetedPolicy::for_slo(50_000.0)),
                seed: 11,
            },
            vec![stage_tier(&m, &arch, 2, FaultPlan::none())],
        )?;
        Ok::<_, ServeError>((plain, pipe.serve(&reqs)?.records))
    };
    let (seq_plain, seq_records) = run()?;
    let seq_plain = serde_json::to_string(&seq_plain).ok();
    assert!(seq_plain.is_some(), "serialization must succeed");
    for &n in POOLS {
        let (plain, records) = ThreadPool::new(n).install(run)?;
        assert_eq!(
            seq_plain,
            serde_json::to_string(&plain).ok(),
            "plain tier diverged at {n} workers"
        );
        assert_eq!(seq_records, records, "pipeline diverged at {n} workers");
        assert_eq!(records.len(), plain.records.len(), "at {n} workers");
        for (rec, p) in records.iter().zip(&plain.records) {
            assert_eq!(
                (
                    rec.id,
                    rec.arrival_us.to_bits(),
                    rec.done_us.to_bits(),
                    rec.shed,
                    rec.degraded_stages.as_slice(),
                    rec.attempts,
                ),
                (
                    p.base.id,
                    p.base.arrival_us.to_bits(),
                    p.base.done_us.to_bits(),
                    p.base.is_shed(),
                    [p.degraded].as_slice(),
                    1,
                ),
                "1-stage pipeline diverged from the plain tier at {n} workers"
            );
        }
    }
    Ok(())
}

#[test]
fn two_stage_budgeted_run_replays_identically_across_thread_counts() -> Result<(), ServeError> {
    let m = ModelPreset::A.scaled(0.01);
    let arch = GpuArch::v100();
    let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 32, 42);
    let span = reqs.last().map_or(0.0, |r| r.arrival_us);
    let slo_us = 8_000.0;
    let rank_fault = FaultPlan::scripted(vec![Fault {
        start_us: 0.2 * span,
        end_us: 0.9 * span,
        kind: FaultKind::Stall { shard: 0 },
    }]);
    let run = || {
        let pipe = PipelineRuntime::new(
            PipelineSpec {
                slo_us,
                stages: vec![
                    StageSpec::retrieval(64, 0.4),
                    StageSpec::ranking(32, 0.6).with_ladder(vec![16]),
                ],
                policy: StagePolicy::Budgeted(BudgetedPolicy::for_slo(slo_us)),
                seed: 11,
            },
            vec![
                stage_tier(&m, &arch, 2, FaultPlan::none()),
                stage_tier(&m, &arch, 2, rank_fault.clone()),
            ],
        )?;
        let out = pipe.serve(&reqs)?;
        Ok::<_, ServeError>((
            out.records.clone(),
            out.stage_stats.clone(),
            serde_json::to_string(&out.report()).ok(),
        ))
    };
    let (seq_records, seq_stats, seq_report) = run()?;
    assert!(seq_report.is_some(), "serialization must succeed");
    assert!(
        seq_records.iter().any(|r| r.degraded()),
        "the stall must actually degrade answers, or the replay is vacuous"
    );
    for &n in POOLS {
        let (records, stats, report) = ThreadPool::new(n).install(run)?;
        assert_eq!(seq_records, records, "records diverged at {n} workers");
        assert_eq!(seq_stats, stats, "stage stats diverged at {n} workers");
        assert_eq!(seq_report, report, "report diverged at {n} workers");
    }
    Ok(())
}
