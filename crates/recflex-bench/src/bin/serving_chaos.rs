//! Chaos harness for the sharded serving tier: fault scenarios × response
//! policies, with the availability gates CI enforces.
//!
//! Serves the same seeded long-tail Poisson stream through the resilient
//! sharded tier under a grid of deterministic fault scenarios (shard
//! crash, shard stall, slowdown + link degradation, a seeded mixed storm,
//! and the fault-free control) crossed with two response policies:
//!
//! * `none` — no replication, no hedging, no ladder. A crashed lane
//!   freezes with its queue intact (restart-from-checkpoint) and the tier
//!   sheds under the resulting backlog.
//! * `mitigated` — full replication, chunk deadlines with hedged
//!   re-execution, crash failover, and the degradation ladder (drop the
//!   hedge first, then serve crashed-shard chunks with zero-pooled
//!   features instead of shedding).
//!
//! Every cell reports availability, fault-vs-admission shed rates, the
//! degraded-answer rate, tail latency, hedge fires/wins, failovers and
//! per-shard downtime. Everything is seeded: two runs print identical
//! numbers, and the CI `threads-replay` job asserts it by diffing `--json`
//! outputs.
//!
//! `--check` enforces the two robustness gates:
//!
//! 1. **No-fault identity** — with the default `ResilienceConfig` the
//!    fault machinery must cost nothing: the no-fault × `none` cell's
//!    records must be byte-identical (as JSON) to a plain
//!    `ShardedServeRuntime::build` tier serving the same stream.
//! 2. **Crash availability** — under the scripted shard crash, the
//!    mitigated tier must hold availability ≥ 95% while the unmitigated
//!    tier lands strictly lower.

use std::process::ExitCode;

use recflex_bench::{CliOpts, Scale};
use recflex_core::{feature_cost_estimates, RecFlexEngine};
use recflex_data::{Dataset, ModelPreset, Placement};
use recflex_serve::{
    BatchPolicy, Fault, FaultKind, FaultPlan, FaultSpec, LadderConfig, ReplicationPolicy, Request,
    ResilienceConfig, ServeConfig, ShardedServeRuntime, ShedReason, WorkloadSpec,
};
use recflex_sim::GpuArch;
use serde::Serialize;

const SHARDS: usize = 2;
/// Mean Poisson inter-arrival gap, µs.
const GAP_US: f64 = 200.0;
/// SLO deadline as a multiple of the mean gap.
const SLO_GAPS: f64 = 40.0;
/// The availability floor the mitigated tier must hold under the
/// scripted crash (the `--check` gate).
const AVAILABILITY_FLOOR: f64 = 0.95;

#[derive(Serialize)]
struct ChaosRow {
    scenario: String,
    policy: String,
    availability: f64,
    shed_admission: f64,
    shed_fault: f64,
    degraded_rate: f64,
    p50_latency_us: f64,
    p99_latency_us: f64,
    hedge_fires: u64,
    hedge_wins: u64,
    failovers: u64,
    downtime_us: f64,
    makespan_us: f64,
}

#[derive(Serialize)]
struct ChaosReport {
    model: String,
    num_features: usize,
    shards: usize,
    requests: usize,
    gap_us: f64,
    slo_deadline_us: f64,
    interconnect: String,
    /// Gate 1: the no-fault × `none` cell reproduced the plain tier's
    /// records byte-for-byte.
    no_fault_identity: bool,
    rows: Vec<ChaosRow>,
}

/// The fault scenarios under test. The crash window sits mid-stream —
/// `span` is the last arrival timestamp — so both the healthy lead-in and
/// the post-recovery drain appear in every report.
fn scenarios(span: f64, shards: usize) -> Vec<(String, FaultPlan)> {
    let start = 0.15 * span;
    let end = 0.65 * span;
    vec![
        ("none".to_string(), FaultPlan::none()),
        (
            "crash".to_string(),
            FaultPlan::scripted(vec![Fault {
                start_us: start,
                end_us: end,
                kind: FaultKind::Crash { shard: 0 },
            }]),
        ),
        (
            "stall".to_string(),
            FaultPlan::scripted(vec![Fault {
                start_us: start,
                end_us: end,
                kind: FaultKind::Stall { shard: 0 },
            }]),
        ),
        (
            "slow+link".to_string(),
            FaultPlan::scripted(vec![
                Fault {
                    start_us: start,
                    end_us: end,
                    kind: FaultKind::Slowdown {
                        shard: 0,
                        rate: 0.25,
                    },
                },
                Fault {
                    start_us: start,
                    end_us: end,
                    kind: FaultKind::LinkDegrade { factor: 8.0 },
                },
            ]),
        ),
        (
            "mixed-storm".to_string(),
            FaultSpec::mixed(0.2 * span, 0.1 * span).plan(shards, span, 0xC4A05),
        ),
    ]
}

fn policy(name: &str, plan: FaultPlan, slo_deadline_us: f64) -> ResilienceConfig {
    match name {
        "none" => ResilienceConfig {
            plan,
            chunk_deadline_us: None,
            replication: ReplicationPolicy::None,
            ladder: None,
        },
        "mitigated" => ResilienceConfig {
            plan,
            chunk_deadline_us: Some(slo_deadline_us / 4.0),
            replication: ReplicationPolicy::Full,
            ladder: Some(LadderConfig {
                drop_hedge_backlog_us: slo_deadline_us / 2.0,
                partial_backlog_us: 0.75 * slo_deadline_us,
            }),
        },
        other => unreachable!("unknown policy {other}"),
    }
}

fn main() -> ExitCode {
    let opts = CliOpts::from_args();
    let scale = Scale::from_env();
    let arch = GpuArch::v100();
    let model = scale.model(ModelPreset::A);
    let history = Dataset::synthesize(&model, 3, scale.batch_size, 7);
    let costs = feature_cost_estimates(&model, &history, &arch);
    let slo_deadline_us = SLO_GAPS * GAP_US;
    let config = ServeConfig {
        streams: 4,
        policy: BatchPolicy::Split { cap: 256 },
        slo_deadline_us: Some(slo_deadline_us),
        closed_loop: false,
        hot_shard_cap: None,
    };
    let n_requests = (scale.eval_batches * 16).clamp(24, 96);
    let stream: Vec<Request> = WorkloadSpec::long_tail(GAP_US).stream(&model, n_requests, 42);
    let span = stream.last().map(|r| r.arrival_us).unwrap_or(0.0);

    // One tier per policy, reused across scenarios (the fault plan is the
    // only thing that changes, so lanes compile once). The plain tier is
    // the gate-1 reference: the pre-fault code path.
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
    let plain = ShardedServeRuntime::build(
        &model,
        &arch,
        placement(),
        config,
        scale.interconnect.clone(),
        make_backend,
    );
    let mut bare = ShardedServeRuntime::build_resilient(
        &model,
        &arch,
        placement(),
        config,
        scale.interconnect.clone(),
        policy("none", FaultPlan::none(), slo_deadline_us),
        make_backend,
    );
    let mut armed = ShardedServeRuntime::build_resilient(
        &model,
        &arch,
        placement(),
        config,
        scale.interconnect.clone(),
        policy("mitigated", FaultPlan::none(), slo_deadline_us),
        make_backend,
    );

    println!(
        "== serving chaos: model {} ({} features), {SHARDS} shards, {n_requests} requests \
         @ {GAP_US} us mean gap, SLO {slo_deadline_us} us, {} gather ==",
        model.name,
        model.features.len(),
        scale.interconnect_name
    );
    println!(
        "{:<12} {:<10} {:>6} {:>9} {:>9} {:>9} {:>11} {:>7} {:>6} {:>9} {:>12}",
        "scenario",
        "policy",
        "avail",
        "shed adm",
        "shed flt",
        "degraded",
        "p99 (us)",
        "hedges",
        "wins",
        "failover",
        "downtime"
    );

    let plain_records =
        serde_json::to_string(&plain.serve(&stream).expect("chaos config is valid").records)
            .expect("serialize records");
    let mut no_fault_identity = false;
    let mut rows = Vec::new();
    for (scenario, plan) in scenarios(span, SHARDS) {
        for pname in ["none", "mitigated"] {
            let tier: &mut ShardedServeRuntime<'_> = if pname == "none" {
                &mut bare
            } else {
                &mut armed
            };
            tier.resilience = policy(pname, plan.clone(), slo_deadline_us);
            let report = tier.serve(&stream).expect("chaos config is valid");
            if scenario == "none" && pname == "none" {
                let cell = serde_json::to_string(&report.records).expect("serialize records");
                no_fault_identity = cell == plain_records;
            }
            let row = ChaosRow {
                scenario: scenario.clone(),
                policy: pname.to_string(),
                availability: report.availability(),
                shed_admission: report.shed_rate_for(ShedReason::Admission),
                shed_fault: report.shed_rate_for(ShedReason::Fault),
                degraded_rate: report.degraded_rate(),
                p50_latency_us: report.percentile_us(0.5),
                p99_latency_us: report.percentile_us(0.99),
                hedge_fires: report.hedge_fires,
                hedge_wins: report.hedge_wins,
                failovers: report.failovers,
                downtime_us: report.per_shard.iter().map(|s| s.downtime_us).sum(),
                makespan_us: report.makespan_us,
            };
            println!(
                "{:<12} {:<10} {:>6.3} {:>9.3} {:>9.3} {:>9.3} {:>11.1} {:>7} {:>6} {:>9} {:>12.1}",
                row.scenario,
                row.policy,
                row.availability,
                row.shed_admission,
                row.shed_fault,
                row.degraded_rate,
                row.p99_latency_us,
                row.hedge_fires,
                row.hedge_wins,
                row.failovers,
                row.downtime_us
            );
            rows.push(row);
        }
    }
    println!(
        "(availability counts degraded answers; `shed flt` is capacity lost to \
         faults, `shed adm` is plain overload)"
    );

    let report = ChaosReport {
        model: model.name.clone(),
        num_features: model.features.len(),
        shards: SHARDS,
        requests: n_requests,
        gap_us: GAP_US,
        slo_deadline_us,
        interconnect: scale.interconnect_name.clone(),
        no_fault_identity,
        rows,
    };
    opts.write_json(&report);

    if opts.check && !gates_hold(&report) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The CI robustness gates (see module docs).
fn gates_hold(report: &ChaosReport) -> bool {
    if !report.no_fault_identity {
        eprintln!(
            "check FAILED: the no-fault resilient path diverged from the plain \
             serving tier — the fault machinery is not free"
        );
        return false;
    }
    let avail = |scenario: &str, policy: &str| {
        report
            .rows
            .iter()
            .find(|r| r.scenario == scenario && r.policy == policy)
            .map(|r| r.availability)
            .expect("sweep covers the gated cell")
    };
    let mitigated = avail("crash", "mitigated");
    let bare = avail("crash", "none");
    if mitigated < AVAILABILITY_FLOOR {
        eprintln!(
            "check FAILED: mitigated availability {mitigated:.3} under the scripted \
             crash is below the {AVAILABILITY_FLOOR} floor"
        );
        return false;
    }
    if bare >= mitigated {
        eprintln!(
            "check FAILED: unmitigated availability {bare:.3} is not strictly below \
             the mitigated tier's {mitigated:.3} — the crash scenario has no teeth"
        );
        return false;
    }
    println!(
        "check passed: no-fault path identical to the plain tier; crash availability \
         {mitigated:.3} (mitigated) >= {AVAILABILITY_FLOOR} > {bare:.3} (unmitigated)"
    );
    true
}
