//! Schedule-lifecycle harness: retune outcome scenarios × swap policies,
//! with the robustness gates CI enforces.
//!
//! Serves a drifting stream (in-distribution head, heavily shifted tail,
//! so the drift monitor fires mid-run) through `serve_with_retune` under
//! a grid of scripted retune outcomes — every attempt succeeding, every
//! attempt regressing 3x, every attempt failing to compile, every attempt
//! stalling past the watchdog deadline, and a seeded flaky mix — crossed
//! with two swap policies:
//!
//! * `blind` — the pre-lifecycle behavior: a finished retune is promoted
//!   immediately, whatever it compiled to.
//! * `canaried` — the candidate shadow-executes every admitted chunk of
//!   the canary window (cost accounted, never served) and is promoted
//!   only if it is no slower on every shard; otherwise it is rolled back
//!   and the machine walks retry → backoff → cooldown.
//!
//! A final sharded cell repeats the regression scenario on a two-shard
//! tier with a staggered per-shard rollout.
//!
//! Everything is seeded: two runs print identical numbers, and the CI
//! `lifecycle-replay` job asserts it by diffing `--json` outputs.
//!
//! `--check` enforces the gates:
//!
//! 1. **Clean identity** — when every outcome succeeds and the retuner
//!    rebuilds an engine identical to the incumbent, both swap policies
//!    must leave the request records byte-identical (as JSON) to a run
//!    with no retune policy at all: the lifecycle machinery costs the
//!    served traffic nothing.
//! 2. **Canary protects the tail** — under the all-regression script the
//!    canaried tier must end with zero promotions, at least one rollback,
//!    and a p99 no worse than the blind tier's (strictly better when the
//!    blind tier actually promoted).
//! 3. **Bounded retries** — under compile-fail the machine must spend
//!    exactly `MAX_ATTEMPTS` non-overlapping attempts whose retry gaps
//!    respect exponential backoff; under stall the watchdog must abandon
//!    every attempt at its deadline and never promote.
//! 4. **Staged rollout** — the sharded regression cell must promote on
//!    the blind tier and never on the canaried tier.

use std::process::ExitCode;

use recflex_baselines::Backend;
use recflex_bench::{CliOpts, Scale};
use recflex_core::RecFlexEngine;
use recflex_data::{shift_distribution, Batch, Dataset, ModelConfig, ModelPreset, Placement};
use recflex_serve::lifecycle::{BASE_BACKOFF_US, MAX_ATTEMPTS, RETUNE_LATENCY_US};
use recflex_serve::{
    BatchPolicy, LifecycleConfig, LifecycleEvent, LifecycleStats, OutcomePlan, Request,
    RetuneOutcome, ServeConfig, ShardedRetunePolicy, ShardedServeRuntime, WorkloadSpec,
};
use recflex_sim::GpuArch;
use serde::Serialize;

/// Mean Poisson inter-arrival gap, µs.
const GAP_US: f64 = 300.0;
/// Watchdog deadline for the stall scenario, µs.
const STALL_DEADLINE_US: f64 = 4_000.0;
/// Latency multiplier injected by the regression scenarios.
const REGRESSION_SLOWDOWN: f64 = 3.0;
/// Shard count for the sharded rollout cell.
const SHARDS: usize = 2;

/// The retune-outcome scenarios under test.
fn scenarios() -> Vec<(String, LifecycleConfig)> {
    let all = |o: RetuneOutcome| OutcomePlan::scripted(vec![o; 16]);
    vec![
        (
            "clean".to_string(),
            LifecycleConfig {
                outcomes: OutcomePlan::none(),
                ..LifecycleConfig::default()
            },
        ),
        (
            "regression".to_string(),
            LifecycleConfig {
                outcomes: all(RetuneOutcome::Regression {
                    slowdown: REGRESSION_SLOWDOWN,
                }),
                cooldown_us: 10_000.0,
                ..LifecycleConfig::default()
            },
        ),
        (
            "compile-fail".to_string(),
            LifecycleConfig {
                outcomes: all(RetuneOutcome::CompileFail),
                // An effectively infinite cooldown keeps the run to one
                // episode so the backoff gate reads a clean trace.
                cooldown_us: 1e12,
                ..LifecycleConfig::default()
            },
        ),
        (
            "stall".to_string(),
            LifecycleConfig {
                outcomes: all(RetuneOutcome::Stall),
                cooldown_us: 1e12,
                retune_deadline_us: Some(STALL_DEADLINE_US),
                ..LifecycleConfig::default()
            },
        ),
        (
            "flaky".to_string(),
            LifecycleConfig {
                outcomes: OutcomePlan::flaky(12, 0xF1A6),
                cooldown_us: 10_000.0,
                ..LifecycleConfig::default()
            },
        ),
    ]
}

#[derive(Serialize)]
struct LifecycleRow {
    scenario: String,
    mode: String,
    attempted: u32,
    promoted: u32,
    failed: u32,
    rolled_back: u32,
    engine_version: u32,
    shadow_chunks: u64,
    shadow_overhead_us: f64,
    p50_latency_us: f64,
    p99_latency_us: f64,
    makespan_us: f64,
}

#[derive(Serialize)]
struct LifecycleReport {
    model: String,
    num_features: usize,
    requests: usize,
    gap_us: f64,
    retune_latency_us: f64,
    max_attempts: u32,
    /// Gate 1: the all-success scenarios reproduced the no-retune
    /// records byte-for-byte, per swap policy.
    clean_identity_blind: bool,
    clean_identity_canaried: bool,
    /// Gate 3a: compile-fail retries were bounded, non-overlapping, and
    /// exponentially backed off.
    backoff_bounded: bool,
    /// Gate 3b: every stalled attempt was abandoned by the watchdog.
    stall_bounded: bool,
    /// Gate 4: the sharded regression cell.
    sharded_blind_promoted: u32,
    sharded_canaried_promoted: u32,
    sharded_canaried_rolled_back: u32,
    rows: Vec<LifecycleRow>,
}

/// In-distribution head, heavily shifted tail: drift fires mid-run.
fn drifting_stream(model: &ModelConfig, n: usize, unit: u32) -> (ModelConfig, Vec<Request>) {
    let shifted = shift_distribution(model, 2.5, 0.0);
    let head = n / 3;
    let spec = WorkloadSpec {
        size_unit: unit,
        ..WorkloadSpec::long_tail(GAP_US)
    };
    let mut reqs = spec.stream(model, head, 5);
    let mut tail = spec.stream(&shifted, n - head, 6);
    let t0 = reqs.last().map(|r| r.arrival_us).unwrap_or(0.0);
    for (k, r) in tail.iter_mut().enumerate() {
        r.arrival_us += t0;
        r.id = (head + k) as u64;
    }
    reqs.append(&mut tail);
    (shifted, reqs)
}

/// Verify the compile-fail trace: exactly `MAX_ATTEMPTS` attempts, none
/// overlapping, each retry waiting out its exponential backoff.
fn backoff_bounded(stats: &LifecycleStats, trace: &[LifecycleEvent]) -> bool {
    if stats.retunes_attempted != MAX_ATTEMPTS || stats.retunes_promoted != 0 {
        return false;
    }
    let mut open: Option<f64> = None;
    let mut last_fail: Option<(f64, u32)> = None;
    let mut attempts = 0u32;
    for ev in trace {
        match *ev {
            LifecycleEvent::RetuneStarted { t_us, .. } => {
                if open.is_some() {
                    return false; // overlap
                }
                if let Some((t_fail, k)) = last_fail {
                    let backoff = BASE_BACKOFF_US * 2.0f64.powi(k as i32 - 1);
                    if t_us - t_fail < backoff - 1e-9 {
                        return false; // retry ignored its backoff
                    }
                }
                open = Some(t_us);
                attempts += 1;
            }
            LifecycleEvent::RetuneFailed { t_us, .. } => {
                if open.take().is_none() {
                    return false;
                }
                last_fail = Some((t_us, attempts));
            }
            LifecycleEvent::GaveUp { attempts: n, .. } => {
                if n != MAX_ATTEMPTS {
                    return false;
                }
            }
            _ => return false,
        }
    }
    attempts == MAX_ATTEMPTS
}

fn main() -> ExitCode {
    let opts = CliOpts::from_args();
    let scale = Scale::from_env();
    let arch = GpuArch::v100();
    let model = scale.model(ModelPreset::A);
    let history = Dataset::synthesize(&model, 3, scale.batch_size, 7);
    let engine = RecFlexEngine::tune(&model, &history, &arch, &scale.tuner);
    let config = ServeConfig {
        streams: 2,
        policy: BatchPolicy::Split { cap: 256 },
        slo_deadline_us: None,
        closed_loop: false,
        hot_shard_cap: None,
    };
    let n_requests = (scale.eval_batches * 16).clamp(36, 96);
    let (_shifted, stream) = drifting_stream(&model, n_requests, 8);
    let runtime = ShardedServeRuntime::single_device(&model, &arch, config, &engine);

    println!(
        "== serving lifecycle: model {} ({} features), {n_requests} requests @ {GAP_US} us \
         mean gap, retune {RETUNE_LATENCY_US} us, {MAX_ATTEMPTS} attempts/episode ==",
        model.name,
        model.features.len(),
    );
    println!(
        "{:<14} {:<10} {:>5} {:>5} {:>5} {:>7} {:>8} {:>9} {:>11} {:>11}",
        "scenario",
        "mode",
        "try",
        "win",
        "fail",
        "rollbk",
        "shadows",
        "overhead",
        "p99 (us)",
        "makespan"
    );

    // The gate-1 reference: the pre-lifecycle code path, no retuning.
    let plain = runtime.serve(&stream).expect("lifecycle config is valid");
    let plain_records = serde_json::to_string(&plain.records).expect("serialize records");

    // The clean retuner rebuilds the incumbent from the same history —
    // the promoted engine is bit-identical, isolating lifecycle cost.
    let mut clean_identity_blind = false;
    let mut clean_identity_canaried = false;
    let mut backoff_ok = false;
    let mut stall_ok = false;
    let mut rows = Vec::new();
    for (scenario, lifecycle) in scenarios() {
        for mode in ["blind", "canaried"] {
            let lifecycle = LifecycleConfig {
                canary: mode == "canaried",
                ..lifecycle.clone()
            };
            let mut policy = ShardedRetunePolicy {
                lifecycle,
                retuner: Box::new(|_: &ModelConfig, _: &[Batch]| {
                    (Box::new(RecFlexEngine::tune(&model, &history, &arch, &scale.tuner))
                        as Box<dyn Backend>)
                        .into()
                }),
            };
            let report = runtime
                .serve_with_retune(&stream, &mut policy)
                .expect("lifecycle config is valid");
            match (scenario.as_str(), mode) {
                ("clean", "blind") => {
                    let cell = serde_json::to_string(&report.records).expect("serialize records");
                    clean_identity_blind = cell == plain_records;
                }
                ("clean", "canaried") => {
                    let cell = serde_json::to_string(&report.records).expect("serialize records");
                    clean_identity_canaried = cell == plain_records;
                }
                ("compile-fail", "blind") => {
                    backoff_ok = backoff_bounded(&report.lifecycle, &report.lifecycle_trace);
                }
                ("stall", "blind") => {
                    stall_ok = report.lifecycle.retunes_attempted >= 1
                        && report.lifecycle.retunes_failed == report.lifecycle.retunes_attempted
                        && report.lifecycle.retunes_promoted == 0;
                }
                _ => {}
            }
            let row = LifecycleRow {
                scenario: scenario.clone(),
                mode: mode.to_string(),
                attempted: report.lifecycle.retunes_attempted,
                promoted: report.lifecycle.retunes_promoted,
                failed: report.lifecycle.retunes_failed,
                rolled_back: report.lifecycle.retunes_rolled_back,
                engine_version: report.lifecycle.engine_version,
                shadow_chunks: report.lifecycle.canary_shadow_chunks,
                shadow_overhead_us: report.lifecycle.canary_overhead_us,
                p50_latency_us: report.percentile_us(0.5),
                p99_latency_us: report.percentile_us(0.99),
                makespan_us: report.makespan_us,
            };
            println!(
                "{:<14} {:<10} {:>5} {:>5} {:>5} {:>7} {:>8} {:>9.1} {:>11.1} {:>11.1}",
                row.scenario,
                row.mode,
                row.attempted,
                row.promoted,
                row.failed,
                row.rolled_back,
                row.shadow_chunks,
                row.shadow_overhead_us,
                row.p99_latency_us,
                row.makespan_us
            );
            rows.push(row);
        }
    }

    // The sharded rollout cell: the all-regression script on a two-shard
    // tier, blind vs a staggered canaried rollout.
    let costs = vec![1.0; model.features.len()];
    let tier = ShardedServeRuntime::build(
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
    let mut sharded_stats: Vec<LifecycleStats> = Vec::new();
    for mode in ["blind", "canaried"] {
        let mut policy = ShardedRetunePolicy {
            lifecycle: LifecycleConfig {
                outcomes: OutcomePlan::scripted(vec![
                    RetuneOutcome::Regression {
                        slowdown: REGRESSION_SLOWDOWN
                    };
                    16
                ]),
                canary: mode == "canaried",
                cooldown_us: 10_000.0,
                ..LifecycleConfig::default()
            },
            retuner: Box::new(|sub_model: &ModelConfig, _: &[Batch]| {
                let sub_history = Dataset::synthesize(sub_model, 3, scale.batch_size, 7);
                (Box::new(RecFlexEngine::tune(
                    sub_model,
                    &sub_history,
                    &arch,
                    &scale.tuner,
                )) as Box<dyn Backend>)
                    .into()
            }),
        };
        let report = tier
            .serve_with_retune(&stream, &mut policy)
            .expect("lifecycle config is valid");
        println!(
            "{:<14} {:<10} {:>5} {:>5} {:>5} {:>7} {:>8} {:>9.1} {:>11.1} {:>11.1}",
            format!("sharded-x{SHARDS}"),
            mode,
            report.lifecycle.retunes_attempted,
            report.lifecycle.retunes_promoted,
            report.lifecycle.retunes_failed,
            report.lifecycle.retunes_rolled_back,
            report.lifecycle.canary_shadow_chunks,
            report.lifecycle.canary_overhead_us,
            report.percentile_us(0.99),
            report.makespan_us
        );
        rows.push(LifecycleRow {
            scenario: format!("sharded-x{SHARDS}"),
            mode: mode.to_string(),
            attempted: report.lifecycle.retunes_attempted,
            promoted: report.lifecycle.retunes_promoted,
            failed: report.lifecycle.retunes_failed,
            rolled_back: report.lifecycle.retunes_rolled_back,
            engine_version: report.lifecycle.engine_version,
            shadow_chunks: report.lifecycle.canary_shadow_chunks,
            shadow_overhead_us: report.lifecycle.canary_overhead_us,
            p50_latency_us: report.percentile_us(0.5),
            p99_latency_us: report.percentile_us(0.99),
            makespan_us: report.makespan_us,
        });
        sharded_stats.push(report.lifecycle);
    }
    println!(
        "(shadows are canary chunks replayed on the candidate — accounted in \
         `overhead`, never served; `win` is promotions, `rollbk` canary rollbacks)"
    );

    let report = LifecycleReport {
        model: model.name.clone(),
        num_features: model.features.len(),
        requests: n_requests,
        gap_us: GAP_US,
        retune_latency_us: RETUNE_LATENCY_US,
        max_attempts: MAX_ATTEMPTS,
        clean_identity_blind,
        clean_identity_canaried,
        backoff_bounded: backoff_ok,
        stall_bounded: stall_ok,
        sharded_blind_promoted: sharded_stats[0].retunes_promoted,
        sharded_canaried_promoted: sharded_stats[1].retunes_promoted,
        sharded_canaried_rolled_back: sharded_stats[1].retunes_rolled_back,
        rows,
    };
    opts.write_json(&report);

    if opts.check && !gates_hold(&report) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The CI robustness gates (see module docs).
fn gates_hold(report: &LifecycleReport) -> bool {
    if !report.clean_identity_blind || !report.clean_identity_canaried {
        eprintln!(
            "check FAILED: an all-success retune of an identical engine changed the \
             served records (blind {}, canaried {}) — the lifecycle is not free",
            report.clean_identity_blind, report.clean_identity_canaried
        );
        return false;
    }
    let cell = |scenario: &str, mode: &str| {
        report
            .rows
            .iter()
            .find(|r| r.scenario == scenario && r.mode == mode)
            .expect("sweep covers the gated cell")
    };
    let blind = cell("regression", "blind");
    let canaried = cell("regression", "canaried");
    if canaried.promoted != 0 || canaried.rolled_back == 0 {
        eprintln!(
            "check FAILED: the canary let a {REGRESSION_SLOWDOWN}x regression through \
             ({} promotions, {} rollbacks)",
            canaried.promoted, canaried.rolled_back
        );
        return false;
    }
    if blind.promoted >= 1 && canaried.p99_latency_us >= blind.p99_latency_us {
        eprintln!(
            "check FAILED: rolling back the regression did not protect p99: \
             {:.1} (canaried) vs {:.1} (blind)",
            canaried.p99_latency_us, blind.p99_latency_us
        );
        return false;
    }
    if blind.promoted == 0 {
        eprintln!(
            "check FAILED: the blind tier never promoted — the regression scenario has no teeth"
        );
        return false;
    }
    if !report.backoff_bounded {
        eprintln!(
            "check FAILED: compile-fail retries were unbounded, overlapping, or \
             ignored their exponential backoff"
        );
        return false;
    }
    if !report.stall_bounded {
        eprintln!("check FAILED: a stalled retune escaped the watchdog");
        return false;
    }
    if report.sharded_canaried_promoted != 0 || report.sharded_blind_promoted == 0 {
        eprintln!(
            "check FAILED: sharded rollout gate — blind promoted {}, canaried promoted {} \
             (want >=1 and 0)",
            report.sharded_blind_promoted, report.sharded_canaried_promoted
        );
        return false;
    }
    println!(
        "check passed: lifecycle identity holds, the canary rolled back every \
         regression (p99 {:.1} vs {:.1} blind), retries are bounded and backed off, \
         and the staged rollout never promoted a loser",
        canaried.p99_latency_us, blind.p99_latency_us
    );
    true
}
