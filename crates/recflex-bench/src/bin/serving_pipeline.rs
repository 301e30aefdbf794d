//! Deadline-budgeted multi-stage pipeline harness: candidate counts ×
//! fault scenarios × failure policies, with the robustness gates CI
//! enforces.
//!
//! Serves one seeded long-tail Poisson stream through a two-stage
//! retrieval → ranking pipeline (each stage its own RecFlex-tuned
//! sharded tier with a share of the end-to-end SLO) under a grid of
//! deterministic stage-scoped fault scenarios (ranking-shard stall,
//! retrieval slowdown, a seeded mixed storm on every stage, and the
//! fault-free control) crossed with two failure policies:
//!
//! * `naive` — retry every late/faulted stage attempt up to 6 attempts,
//!   100 µs apart, at full candidate count, with no breaker and no
//!   fallback: the metastable baseline whose retry storm outlives the
//!   fault.
//! * `budgeted` — retries gated by the fleet-wide token-bucket
//!   `RetryBudget` and the per-stage `CircuitBreaker`, degrading the
//!   candidate count along the stage ladder, falling back (ranking →
//!   retrieval-order scores) inside the deadline budget instead of
//!   shedding.
//!
//! Every cell reports availability (degraded answers count, late ones do
//! not), the degraded-answer rate, tail latency and retry amplification.
//! Everything is seeded: two runs print identical numbers, and the CI
//! `threads-replay` matrix asserts it by diffing `--json` outputs.
//!
//! `--check` enforces three gates:
//!
//! 1. **Degenerate identity** — a fault-free 1-stage pipeline, run on
//!    the same staged path as every pipeline, answers each request on
//!    its first attempt with no late, faulted or retried attempt, and its
//!    records match the plain `ShardedServeRuntime`'s: the same ids,
//!    arrival and answer instants bit for bit, shed and degraded flags.
//! 2. **Stall availability** — under the scripted mid-run ranking-stage
//!    stall the budgeted policy holds availability ≥ 0.95 and strictly
//!    beats naive retry on both availability and p99.
//! 3. **Bounded amplification** — the budgeted cell's total stage
//!    executions stay within 1.2× of admitted chunks.

use std::process::ExitCode;

use recflex_bench::{CliOpts, Scale};
use recflex_core::{feature_cost_estimates, RecFlexEngine};
use recflex_data::{Dataset, ModelPreset, Placement};
use recflex_serve::{
    BatchPolicy, BudgetedPolicy, Fault, FaultKind, FaultSpec, PipelineFaultSpec, PipelineReport,
    PipelineRuntime, PipelineSpec, Request, ServeConfig, ShardedServeRuntime, StageFault,
    StagePolicy, StageSpec, WorkloadSpec,
};
use recflex_sim::GpuArch;
use serde::Serialize;

/// Shards backing each stage tier.
const SHARDS: usize = 2;
/// Mean Poisson inter-arrival gap, µs.
const GAP_US: f64 = 200.0;
/// End-to-end SLO as a multiple of the mean gap.
const SLO_GAPS: f64 = 40.0;
/// Retrieval's share of the SLO; ranking gets the rest.
const RETRIEVAL_FRAC: f64 = 0.4;
const RANKING_FRAC: f64 = 0.6;
/// The availability floor the budgeted policy must hold under the
/// scripted ranking stall (the `--check` gate).
const AVAILABILITY_FLOOR: f64 = 0.95;
/// Retry-amplification ceiling for the budgeted policy.
const AMPLIFICATION_CAP: f64 = 1.2;
/// Full-quality ranking candidate counts the sweep covers. The first
/// entry is the gated cell.
const CANDIDATE_SWEEP: [u32; 2] = [32, 64];

#[derive(Serialize)]
struct PipelineRow {
    scenario: String,
    policy: String,
    rank_candidates: u32,
    availability: f64,
    degraded_rate: f64,
    p50_us: f64,
    p99_us: f64,
    amplification: f64,
    fallbacks: u64,
    retries: u64,
    retries_denied: u64,
    breaker_trips: u64,
    makespan_us: f64,
}

#[derive(Serialize)]
struct PipelineBenchReport {
    model: String,
    num_features: usize,
    shards_per_stage: usize,
    requests: usize,
    gap_us: f64,
    slo_us: f64,
    retrieval_frac: f64,
    ranking_frac: f64,
    /// Gate 1: the 1-stage pipeline answered every request on its first
    /// attempt, and its records matched the plain tier's.
    degenerate_identity: bool,
    rows: Vec<PipelineRow>,
}

/// Stage-scoped fault scenarios. Windows sit mid-stream — `span` is the
/// last arrival — so the healthy lead-in and the drain both appear.
fn scenarios(span: f64) -> Vec<(String, PipelineFaultSpec)> {
    let start = 0.2 * span;
    let end = 0.9 * span;
    vec![
        ("none".to_string(), PipelineFaultSpec::none()),
        (
            "rank-stall".to_string(),
            PipelineFaultSpec::scripted(vec![StageFault {
                stage: 1,
                fault: Fault {
                    start_us: start,
                    end_us: end,
                    kind: FaultKind::Stall { shard: 0 },
                },
            }]),
        ),
        (
            "retr-slow".to_string(),
            PipelineFaultSpec::scripted(vec![StageFault {
                stage: 0,
                fault: Fault {
                    start_us: start,
                    end_us: end,
                    kind: FaultKind::Slowdown {
                        shard: 0,
                        rate: 0.3,
                    },
                },
            }]),
        ),
        (
            "storm".to_string(),
            PipelineFaultSpec {
                scripted: Vec::new(),
                background: Some(FaultSpec::mixed(0.15 * span, 0.08 * span)),
            },
        ),
    ]
}

fn main() -> ExitCode {
    let opts = CliOpts::from_args();
    let scale = Scale::from_env();
    let arch = GpuArch::v100();
    let model = scale.model(ModelPreset::A);
    let history = Dataset::synthesize(&model, 3, scale.batch_size, 7);
    let costs = feature_cost_estimates(&model, &history, &arch);
    let slo_us = SLO_GAPS * GAP_US;
    // Stage admission runs off the pipeline's per-attempt deadline
    // shares, not a tier-level SLO.
    let stage_config = ServeConfig {
        streams: 4,
        policy: BatchPolicy::Split { cap: 256 },
        slo_deadline_us: None,
        closed_loop: false,
        hot_shard_cap: None,
    };
    let n_requests = (scale.eval_batches * 16).clamp(24, 96);
    let stream: Vec<Request> = WorkloadSpec::long_tail(GAP_US).stream(&model, n_requests, 42);
    let span = stream.last().map(|r| r.arrival_us).unwrap_or(0.0);
    // Fault windows land in absolute time; retries re-enter past the
    // stream tail, so plans must cover the drain too.
    let horizon = span + 4.0 * slo_us;

    let make_backend =
        |sub_model: &recflex_data::ModelConfig| -> Box<dyn recflex_baselines::Backend> {
            let sub_history = Dataset::synthesize(sub_model, 3, scale.batch_size, 7);
            Box::new(RecFlexEngine::tune(
                sub_model,
                &sub_history,
                &arch,
                &scale.tuner,
            ))
        };
    let placement = || Placement::balance_by_cost(SHARDS, &costs);
    let stage_tier = || {
        ShardedServeRuntime::build(
            &model,
            &arch,
            placement(),
            stage_config,
            scale.interconnect.clone(),
            make_backend,
        )
    };

    println!(
        "== serving pipeline: model {} ({} features), retrieval+ranking x {SHARDS} shards, \
         {n_requests} requests @ {GAP_US} us mean gap, SLO {slo_us} us \
         ({RETRIEVAL_FRAC}/{RANKING_FRAC} split) ==",
        model.name,
        model.features.len(),
    );

    // Gate 1: a fault-free 1-stage pipeline answers like the plain tier.
    let plain = stage_tier()
        .serve(&stream)
        .expect("pipeline config is valid");
    let degenerate = PipelineRuntime::new(
        PipelineSpec {
            slo_us,
            stages: vec![StageSpec::retrieval(64, 1.0)],
            policy: StagePolicy::Budgeted(BudgetedPolicy::for_slo(slo_us)),
            seed: 11,
        },
        vec![stage_tier()],
    )
    .expect("degenerate spec is valid")
    .serve(&stream)
    .expect("pipeline config is valid");
    let stage = &degenerate.stage_stats[0];
    let degenerate_identity = stage.late == 0
        && stage.faulted == 0
        && stage.retries == 0
        && degenerate.records.len() == plain.records.len()
        && degenerate
            .records
            .iter()
            .zip(&plain.records)
            .all(|(rec, p)| {
                rec.id == p.base.id
                    && rec.arrival_us.to_bits() == p.base.arrival_us.to_bits()
                    && rec.done_us.to_bits() == p.base.done_us.to_bits()
                    && rec.shed == p.base.is_shed()
                    && rec.degraded_stages == [p.degraded]
                    && rec.attempts == 1
            });

    // One two-stage pipeline, re-pointed per cell: the fault plans, the
    // failure policy and the ranking candidate count are the only
    // things that change, so the four stage lanes tune exactly once.
    let mut pipeline = PipelineRuntime::new(
        PipelineSpec {
            slo_us,
            stages: vec![
                StageSpec::retrieval(64, RETRIEVAL_FRAC),
                StageSpec::ranking(CANDIDATE_SWEEP[0], RANKING_FRAC)
                    .with_ladder(vec![CANDIDATE_SWEEP[0] / 2]),
            ],
            policy: StagePolicy::Budgeted(BudgetedPolicy::for_slo(slo_us)),
            seed: 11,
        },
        vec![stage_tier(), stage_tier()],
    )
    .expect("pipeline spec is valid");

    println!(
        "{:<12} {:<10} {:>5} {:>6} {:>9} {:>9} {:>11} {:>6} {:>8} {:>7} {:>6}",
        "scenario",
        "policy",
        "cand",
        "avail",
        "degraded",
        "amplif",
        "p99 (us)",
        "fback",
        "retries",
        "denied",
        "trips"
    );

    let mut rows = Vec::new();
    for (scenario, fault_spec) in scenarios(span) {
        let plans = fault_spec.plans(&[SHARDS, SHARDS], horizon, 0xF1A9);
        for &candidates in &CANDIDATE_SWEEP {
            for pname in ["naive", "budgeted"] {
                for (stage, plan) in plans.iter().cloned().enumerate() {
                    pipeline.set_stage_plan(stage, plan);
                }
                pipeline
                    .set_stage_candidates(1, candidates)
                    .expect("candidate counts are positive");
                pipeline.set_policy(match pname {
                    "naive" => StagePolicy::NaiveRetry,
                    _ => StagePolicy::Budgeted(BudgetedPolicy::for_slo(slo_us)),
                });
                let report: PipelineReport = pipeline
                    .serve(&stream)
                    .expect("pipeline config is valid")
                    .report();
                let rank = &report.stages[1];
                let row = PipelineRow {
                    scenario: scenario.clone(),
                    policy: pname.to_string(),
                    rank_candidates: candidates,
                    availability: report.availability,
                    degraded_rate: if report.offered == 0 {
                        0.0
                    } else {
                        report.degraded_answers as f64 / report.offered as f64
                    },
                    p50_us: report.p50_us,
                    p99_us: report.p99_us,
                    amplification: report.amplification,
                    fallbacks: rank.fallbacks,
                    retries: report.stages.iter().map(|s| s.retries).sum(),
                    retries_denied: report.stages.iter().map(|s| s.retries_denied).sum(),
                    breaker_trips: report.stages.iter().map(|s| s.breaker_trips).sum(),
                    makespan_us: report.makespan_us,
                };
                println!(
                    "{:<12} {:<10} {:>5} {:>6.3} {:>9.3} {:>9.3} {:>11.1} {:>6} {:>8} {:>7} {:>6}",
                    row.scenario,
                    row.policy,
                    row.rank_candidates,
                    row.availability,
                    row.degraded_rate,
                    row.amplification,
                    row.p99_us,
                    row.fallbacks,
                    row.retries,
                    row.retries_denied,
                    row.breaker_trips
                );
                rows.push(row);
            }
        }
    }
    println!(
        "(availability counts degraded answers; `amplif` is stage executions \
         per admitted chunk — the retry-storm budget caps it at {AMPLIFICATION_CAP})"
    );

    let report = PipelineBenchReport {
        model: model.name.clone(),
        num_features: model.features.len(),
        shards_per_stage: SHARDS,
        requests: n_requests,
        gap_us: GAP_US,
        slo_us,
        retrieval_frac: RETRIEVAL_FRAC,
        ranking_frac: RANKING_FRAC,
        degenerate_identity,
        rows,
    };
    opts.write_json(&report);

    if opts.check && !gates_hold(&report) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The CI robustness gates (see module docs).
fn gates_hold(report: &PipelineBenchReport) -> bool {
    if !report.degenerate_identity {
        eprintln!(
            "check FAILED: the fault-free 1-stage pipeline retried, missed its \
             budget or diverged from the plain serving tier — the pipeline \
             machinery is not free"
        );
        return false;
    }
    let cell = |policy: &str| {
        report
            .rows
            .iter()
            .find(|r| {
                r.scenario == "rank-stall"
                    && r.policy == policy
                    && r.rank_candidates == CANDIDATE_SWEEP[0]
            })
            .expect("sweep covers the gated cell")
    };
    let budgeted = cell("budgeted");
    let naive = cell("naive");
    if budgeted.availability < AVAILABILITY_FLOOR {
        eprintln!(
            "check FAILED: budgeted availability {:.3} under the ranking stall is \
             below the {AVAILABILITY_FLOOR} floor",
            budgeted.availability
        );
        return false;
    }
    if naive.availability >= budgeted.availability {
        eprintln!(
            "check FAILED: naive availability {:.3} is not strictly below the \
             budgeted policy's {:.3} — the stall scenario has no teeth",
            naive.availability, budgeted.availability
        );
        return false;
    }
    if naive.p99_us <= budgeted.p99_us {
        eprintln!(
            "check FAILED: naive p99 {:.1} us is not strictly above the budgeted \
             policy's {:.1} us",
            naive.p99_us, budgeted.p99_us
        );
        return false;
    }
    if budgeted.amplification > AMPLIFICATION_CAP {
        eprintln!(
            "check FAILED: budgeted amplification {:.3} exceeds the {AMPLIFICATION_CAP} \
             retry-storm cap",
            budgeted.amplification
        );
        return false;
    }
    println!(
        "check passed: degenerate pipeline matches the plain tier; stall availability \
         {:.3} (budgeted) >= {AVAILABILITY_FLOOR} > {:.3} (naive), p99 {:.1} < {:.1} us, \
         amplification {:.3} <= {AMPLIFICATION_CAP}",
        budgeted.availability,
        naive.availability,
        budgeted.p99_us,
        naive.p99_us,
        budgeted.amplification
    );
    true
}
