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
//! * `mitigated` — the tier's one mitigation choice, every threshold a
//!   fraction of the SLO: a standby replica per shard, hedged
//!   re-execution a quarter of the SLO after fan-out, crash failover,
//!   and the degradation ladder (drop the hedge above half the SLO of
//!   backlog, then serve crashed-shard chunks with zero-pooled features
//!   instead of shedding above three quarters of it).
//!
//! Every cell reports availability, fault-vs-admission shed rates, the
//! degraded-answer rate, tail latency, hedge fires/wins, failovers and
//! per-shard downtime. Everything is seeded: two runs print identical
//! numbers, and the CI `threads-replay` job asserts it by diffing `--json`
//! outputs.
//!
//! `--check` enforces the two robustness gates:
//!
//! 1. **No-fault identity** — with nothing failing, arming mitigation
//!    must cost nothing: the no-fault × `mitigated` cell's records must
//!    be byte-identical (as JSON) to the no-fault × `none` cell's, so the
//!    standby lanes stay idle and no hedge comes due.
//! 2. **Crash availability** — under the scripted shard crash, the
//!    mitigated tier must hold availability ≥ 95% while the unmitigated
//!    tier lands strictly lower.

use std::process::ExitCode;

use recflex_bench::{CliOpts, Scale};
use recflex_core::{feature_cost_estimates, RecFlexEngine};
use recflex_data::{Dataset, ModelPreset, Placement};
use recflex_serve::{
    BatchPolicy, Fault, FaultKind, FaultPlan, FaultSpec, Request, ServeConfig, ShardedServeRuntime,
    ShedReason, WorkloadSpec,
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
    /// Gate 1: the no-fault × `mitigated` cell reproduced the no-fault ×
    /// `none` cell's records byte-for-byte.
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

    // One tier, reused across scenarios and policies (the fault plan and
    // the mitigation choice are the only things that change, so lanes
    // compile once).
    let mut tier = ShardedServeRuntime::build(
        &model,
        &arch,
        Placement::balance_by_cost(SHARDS, &costs),
        config,
        scale.interconnect.clone(),
        |sub_model| {
            let sub_history = Dataset::synthesize(sub_model, 3, scale.batch_size, 7);
            Box::new(RecFlexEngine::tune(
                sub_model,
                &sub_history,
                &arch,
                &scale.tuner,
            ))
        },
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

    let mut unmitigated_records = String::new();
    let mut no_fault_identity = false;
    let mut rows = Vec::new();
    for (scenario, plan) in scenarios(span, SHARDS) {
        for pname in ["none", "mitigated"] {
            tier.faults = plan.clone();
            tier.mitigated = pname == "mitigated";
            let report = tier.serve(&stream).expect("chaos config is valid");
            if scenario == "none" {
                let cell = serde_json::to_string(&report.records).expect("serialize records");
                if tier.mitigated {
                    no_fault_identity = cell == unmitigated_records;
                } else {
                    unmitigated_records = cell;
                }
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
            "check FAILED: with no fault, the mitigated tier diverged from the \
             unmitigated one — mitigation is not free when nothing fails"
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
        "check passed: no-fault mitigated cell identical to the unmitigated one; crash availability \
         {mitigated:.3} (mitigated) >= {AVAILABILITY_FLOOR} > {bare:.3} (unmitigated)"
    );
    true
}
