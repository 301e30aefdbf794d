//! Profile-vault harness: warm-started retunes, corruption recovery, and
//! replica sharing, with the robustness gates CI enforces.
//!
//! Four cells, all seeded and bit-replayable:
//!
//! * **economics** — tune the same model twice through one vault. The
//!   first run misses and cold-tunes; the second warm-starts from the
//!   stored sidecar. The warm run must spend strictly fewer tuner
//!   evaluations and serve byte-identical records.
//! * **restart** — serve the same drifting stream through three
//!   lifecycles: a plain retuner (the pre-vault code path), a fresh
//!   vault (first boot: every retune episode starts cold), and a second
//!   run over the *same* vault (replica restart: retunes warm-start from
//!   the sidecars the first run published). All three must produce
//!   byte-identical request records — the vault changes tuning cost,
//!   never served traffic — and the restarted run must warm-start at
//!   least once while spending fewer evaluations than first boot.
//! * **recovery** — the restart cell again, but the vault is pre-seeded
//!   with a corrupted sidecar quartet (torn write, byte flip, version
//!   skew, stale hash) for the exact profile key, plus an injected
//!   fail-write on the first store. Every corruption must be detected,
//!   quarantined with a deterministic diagnostic, and the run must
//!   degrade to cold tuning with records byte-identical to the plain
//!   baseline — never panic, never serve an unverified profile.
//! * **fleet** — two replicas of one model built through one shared
//!   vault on a two-device class. Replica 0 cold-tunes and publishes;
//!   replica 1 must warm-start from the same sidecar, and the fleet
//!   report must surface both members' tuning accounting.
//!
//! The whole harness runs twice and `--check` asserts the serialized
//! reports are byte-identical (the CI `threads-replay` matrix repeats the
//! diff across `RECFLEX_THREADS`). The report leads with the
//! `warm_speedup` ratio (cold evaluations over warm evaluations), and CI
//! diffs the whole report against the committed smoke-scale
//! `BENCH_lifecycle.json`.

use std::cell::RefCell;
use std::process::ExitCode;

use recflex_baselines::Backend;
use recflex_bench::{CliOpts, Scale};
use recflex_core::{RecFlexEngine, DEFAULT_WARM_BUDGET_PER_FEATURE};
use recflex_data::{shift_distribution, Batch, Dataset, ModelConfig, ModelPreset, Placement};
use recflex_schedules::store::SCHEMA_VERSION;
use recflex_schedules::{
    distribution_summary, MemVfs, ProfileKey, ProfileVault, ScheduleProfile, StoreFault,
    StoreFaultKind, StoreFaultPlan, VaultStats,
};
use recflex_serve::{
    BatchPolicy, DeviceClass, EngineTuning, FleetMember, FleetRuntime, LifecycleConfig, Request,
    ScenarioSpec, ServeConfig, ShardedRetunePolicy, ShardedServeRuntime, TrafficShape,
    TunedCandidate, WorkloadSpec,
};
use recflex_sim::GpuArch;
use serde::Serialize;

/// Mean Poisson inter-arrival gap, µs.
const GAP_US: f64 = 300.0;
/// Fleet workload seed.
const FLEET_SEED: u64 = 0x5EED;

/// In-distribution head, heavily shifted tail: drift fires mid-run.
fn drifting_stream(model: &ModelConfig, n: usize, unit: u32) -> Vec<Request> {
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
    reqs
}

/// One lifecycle run's vault accounting, for the report.
#[derive(Serialize)]
struct VaultRunRow {
    label: String,
    retunes_attempted: u32,
    retunes_promoted: u32,
    warm_starts: u32,
    tuner_evaluations: u64,
    records_match_plain: bool,
    p99_latency_us: f64,
    vault: VaultStats,
}

#[derive(Serialize)]
struct FleetCell {
    replica0_warm_started: bool,
    replica1_warm_started: bool,
    replica0_evaluations: u64,
    replica1_evaluations: u64,
    outcome_tuning_surfaced: bool,
    slo_attainment: f64,
}

/// Everything one pass of the harness measures. Serialized twice and
/// diffed for the replay gate, so it must not contain wall-clock noise.
#[derive(Serialize)]
struct WarmstartCore {
    model: String,
    num_features: usize,
    requests: usize,
    warm_budget_per_feature: u64,
    // economics cell
    cold_evaluations: u64,
    warm_evaluations: u64,
    economics_warm_started: bool,
    economics_identical_records: bool,
    // restart cell
    restart_rows: Vec<VaultRunRow>,
    // recovery cell
    recovery_quarantined: u64,
    recovery_store_failures: u64,
    recovery_records_match_plain: bool,
    recovery_diagnostics: Vec<String>,
    recovery_row: VaultRunRow,
    // fleet cell
    fleet: FleetCell,
}

#[derive(Serialize)]
struct WarmstartReport {
    /// Tracked headline: cold evaluations over warm evaluations for the
    /// economics cell. Higher is better.
    warm_speedup: f64,
    /// Two back-to-back passes serialized byte-identically.
    replay_identical: bool,
    run: WarmstartCore,
}

/// Corrupted sidecar quartet for `key`, planted before the recovery run.
/// Each file is a distinct failure mode the loader must quarantine.
fn plant_corruption(vault: &mut ProfileVault<MemVfs>, key: &ProfileKey, good: &ScheduleProfile) {
    let sealed = good.clone().seal();
    let clean = serde_json::to_string(&sealed).expect("profile serializes");

    // Torn write: the tail of the sidecar never hit the disk.
    let torn = &clean.as_bytes()[..clean.len() / 2];
    vault.vfs_mut().plant("torn-profile.json", torn);

    // Byte flip: one bit of a digit flipped after the hash was sealed.
    let mut flipped = clean.clone().into_bytes();
    let pos = clean.find("\"choices\"").expect("field present") + 12;
    flipped[pos] ^= 0x01;
    vault.vfs_mut().plant("flipped-profile.json", &flipped);

    // Version skew: a sidecar from a future schema, hash self-consistent.
    let mut skewed = sealed.clone();
    skewed.schema_version = SCHEMA_VERSION + 1;
    let skewed = skewed.seal();
    vault.vfs_mut().plant(
        "skewed-profile.json",
        serde_json::to_string(&skewed)
            .expect("profile serializes")
            .as_bytes(),
    );

    // Stale hash: valid JSON whose recorded hash no longer matches.
    let mut stale = sealed.clone();
    stale.mean_latency_us += 1.0;
    vault.vfs_mut().plant(
        "stale-profile.json",
        serde_json::to_string(&stale)
            .expect("profile serializes")
            .as_bytes(),
    );

    let _ = key; // quartet targets the scan path, not one key's name
}

/// Serve `stream` through a retune lifecycle whose retuner goes through
/// `vault`, returning the run row plus the records JSON.
#[allow(clippy::too_many_arguments)]
fn vault_run(
    label: &str,
    runtime: &ShardedServeRuntime<'_>,
    stream: &[Request],
    model: &ModelConfig,
    history: &Dataset,
    arch: &GpuArch,
    scale: &Scale,
    vault: &RefCell<ProfileVault<MemVfs>>,
    plain_records: &str,
) -> (VaultRunRow, String) {
    let budget = DEFAULT_WARM_BUDGET_PER_FEATURE * model.features.len() as u64;
    // Every retune succeeds: the cells isolate the vault, not the
    // canary/rollback machinery `serving_lifecycle` already gates.
    let mut policy = ShardedRetunePolicy {
        lifecycle: LifecycleConfig::default(),
        retuner: Box::new(move |_: &ModelConfig, _: &[Batch]| {
            let mut vault = vault.borrow_mut();
            let (engine, rep) = RecFlexEngine::tune_with_vault(
                model,
                history,
                arch,
                &scale.tuner,
                &mut vault,
                budget,
            );
            TunedCandidate {
                backend: Box::new(engine),
                tuning: Some(EngineTuning {
                    warm_started: rep.warm_started,
                    tuner_evaluations: rep.evaluations as u64,
                }),
            }
        }),
    };
    let report = runtime
        .serve_with_retune(stream, &mut policy)
        .expect("warmstart config is valid");
    let records = serde_json::to_string(&report.records).expect("serialize records");
    let row = VaultRunRow {
        label: label.to_string(),
        retunes_attempted: report.lifecycle.retunes_attempted,
        retunes_promoted: report.lifecycle.retunes_promoted,
        warm_starts: report.lifecycle.warm_starts,
        tuner_evaluations: report.lifecycle.tuner_evaluations,
        records_match_plain: records == plain_records,
        p99_latency_us: report.percentile_us(0.99),
        vault: vault.borrow().stats(),
    };
    (row, records)
}

fn run_all(scale: &Scale) -> WarmstartCore {
    let arch = GpuArch::v100();
    let model = scale.model(ModelPreset::A);
    let history = Dataset::synthesize(&model, 3, scale.batch_size, 7);
    let budget = DEFAULT_WARM_BUDGET_PER_FEATURE * model.features.len() as u64;
    let config = ServeConfig {
        streams: 2,
        policy: BatchPolicy::Split { cap: 256 },
        slo_deadline_us: None,
        closed_loop: false,
        hot_shard_cap: None,
    };
    let n_requests = (scale.eval_batches * 12).clamp(24, 72);
    let stream = drifting_stream(&model, n_requests, 8);

    // ---- economics: cold tune, then warm tune, through one vault. ----
    let mut vault = ProfileVault::new(MemVfs::new());
    let (cold_engine, cold) =
        RecFlexEngine::tune_with_vault(&model, &history, &arch, &scale.tuner, &mut vault, budget);
    let (warm_engine, warm) =
        RecFlexEngine::tune_with_vault(&model, &history, &arch, &scale.tuner, &mut vault, budget);
    let ident_stream = WorkloadSpec::long_tail(GAP_US).stream(&model, 12, 9);
    let serve_records = |engine: &RecFlexEngine| {
        let rep = ShardedServeRuntime::single_device(&model, &arch, config, engine)
            .serve(&ident_stream)
            .expect("warmstart config is valid");
        serde_json::to_string(&rep.records).expect("serialize records")
    };
    let economics_identical_records = serve_records(&cold_engine) == serve_records(&warm_engine);

    // ---- restart: plain baseline, first boot, replica restart. ----
    let base_engine = RecFlexEngine::tune(&model, &history, &arch, &scale.tuner);
    let runtime = ShardedServeRuntime::single_device(&model, &arch, config, &base_engine);
    let mut plain_policy = ShardedRetunePolicy {
        lifecycle: LifecycleConfig::default(),
        retuner: Box::new(|_: &ModelConfig, _: &[Batch]| {
            (Box::new(RecFlexEngine::tune(&model, &history, &arch, &scale.tuner))
                as Box<dyn Backend>)
                .into()
        }),
    };
    let plain_report = runtime
        .serve_with_retune(&stream, &mut plain_policy)
        .expect("warmstart config is valid");
    let plain_records = serde_json::to_string(&plain_report.records).expect("serialize records");

    let shared = RefCell::new(ProfileVault::new(MemVfs::new()));
    let (boot_row, _) = vault_run(
        "first-boot",
        &runtime,
        &stream,
        &model,
        &history,
        &arch,
        scale,
        &shared,
        &plain_records,
    );
    let (restart_row, _) = vault_run(
        "restart",
        &runtime,
        &stream,
        &model,
        &history,
        &arch,
        scale,
        &shared,
        &plain_records,
    );

    // ---- recovery: corrupted quartet + injected fail-write. ----
    let key = ProfileKey {
        model: model.name.clone(),
        arch: arch.name.clone(),
        dist_summary: distribution_summary(history.batches()),
    };
    let good = ScheduleProfile {
        schema_version: SCHEMA_VERSION,
        key: key.clone(),
        choices: vec![0; model.features.len()],
        schedule_labels: vec!["seed".to_string(); model.features.len()],
        occupancy: None,
        mean_latency_us: 1.0,
        hash: String::new(),
    };
    let mut wounded = ProfileVault::new(MemVfs::with_plan(StoreFaultPlan {
        faults: vec![StoreFault {
            op: 0,
            kind: StoreFaultKind::FailWrite,
        }],
    }));
    plant_corruption(&mut wounded, &key, &good);
    let wounded = RefCell::new(wounded);
    let (recovery_row, _) = vault_run(
        "recovery",
        &runtime,
        &stream,
        &model,
        &history,
        &arch,
        scale,
        &wounded,
        &plain_records,
    );
    let wounded = wounded.into_inner();
    let recovery_stats = wounded.stats();
    let recovery_diagnostics = wounded.diagnostics().to_vec();

    // ---- fleet: two replicas of one model share one vault. ----
    let costs = vec![1.0; model.features.len()];
    let fleet_vault = RefCell::new(ProfileVault::new(MemVfs::new()));
    let tunings: RefCell<Vec<EngineTuning>> = RefCell::new(Vec::new());
    let replica = |name: &str| -> FleetMember<'_> {
        let runtime = ShardedServeRuntime::build(
            &model,
            &arch,
            Placement::balance_by_cost(1, &costs),
            config,
            scale.interconnect.clone(),
            |sub_model| {
                let sub_history = Dataset::synthesize(sub_model, 3, scale.batch_size, 7);
                let mut vault = fleet_vault.borrow_mut();
                let (engine, rep) = RecFlexEngine::tune_with_vault(
                    sub_model,
                    &sub_history,
                    &arch,
                    &scale.tuner,
                    &mut vault,
                    budget,
                );
                tunings.borrow_mut().push(EngineTuning {
                    warm_started: rep.warm_started,
                    tuner_evaluations: rep.evaluations as u64,
                });
                Box::new(engine)
            },
        );
        let tuning = tunings.borrow().last().copied();
        FleetMember {
            name: name.to_string(),
            class: 0,
            runtime,
            slo_deadline_us: None,
            gate: None,
            tuning,
        }
    };
    let fleet = FleetRuntime {
        classes: vec![DeviceClass {
            name: "V100".to_string(),
            arch: &arch,
            devices: 2,
        }],
        members: vec![replica("repl-0"), replica("repl-1")],
    };
    let scenario = |name: &str| ScenarioSpec {
        name: name.to_string(),
        workload: WorkloadSpec::long_tail(GAP_US),
        shape: TrafficShape::flat(),
        requests: (n_requests / 2).max(8),
    };
    let workload = recflex_serve::FleetWorkload {
        scenarios: vec![scenario("repl-0"), scenario("repl-1")],
        seed: FLEET_SEED,
    };
    let fleet_report = fleet
        .serve(&workload.merged(&[&model, &model]))
        .expect("fleet serves");
    let member_tunings = tunings.into_inner();
    let fleet_cell = FleetCell {
        replica0_warm_started: member_tunings.first().is_some_and(|t| t.warm_started),
        replica1_warm_started: member_tunings.get(1).is_some_and(|t| t.warm_started),
        replica0_evaluations: member_tunings
            .first()
            .map(|t| t.tuner_evaluations)
            .unwrap_or(0),
        replica1_evaluations: member_tunings
            .get(1)
            .map(|t| t.tuner_evaluations)
            .unwrap_or(0),
        outcome_tuning_surfaced: fleet_report.models.iter().all(|m| m.tuning.is_some()),
        slo_attainment: fleet_report.slo_attainment,
    };

    WarmstartCore {
        model: model.name.clone(),
        num_features: model.features.len(),
        requests: n_requests,
        warm_budget_per_feature: DEFAULT_WARM_BUDGET_PER_FEATURE,
        cold_evaluations: cold.evaluations as u64,
        warm_evaluations: warm.evaluations as u64,
        economics_warm_started: !cold.warm_started && warm.warm_started,
        economics_identical_records,
        restart_rows: vec![boot_row, restart_row],
        recovery_quarantined: recovery_stats.quarantined,
        recovery_store_failures: recovery_stats.store_failures,
        recovery_records_match_plain: recovery_row.records_match_plain,
        recovery_diagnostics,
        recovery_row,
        fleet: fleet_cell,
    }
}

fn main() -> ExitCode {
    let opts = CliOpts::from_args();
    let scale = Scale::from_env();

    let first = run_all(&scale);
    let second = run_all(&scale);
    let first_json = serde_json::to_string(&first).expect("serialize report");
    let second_json = serde_json::to_string(&second).expect("serialize report");
    let replay_identical = first_json == second_json;

    let warm_speedup = if first.warm_evaluations > 0 {
        first.cold_evaluations as f64 / first.warm_evaluations as f64
    } else {
        0.0
    };
    let report = WarmstartReport {
        warm_speedup,
        replay_identical,
        run: first,
    };

    println!(
        "== profile vault: model {} ({} features), {} requests, warm budget {}/feature ==",
        report.run.model,
        report.run.num_features,
        report.run.requests,
        report.run.warm_budget_per_feature,
    );
    println!(
        "economics      cold {:>6} evals   warm {:>6} evals   speedup {:.2}x   identical {}",
        report.run.cold_evaluations,
        report.run.warm_evaluations,
        report.warm_speedup,
        report.run.economics_identical_records,
    );
    for row in &report.run.restart_rows {
        println!(
            "{:<14} try {:>2}  win {:>2}  warm {:>2}  evals {:>7}  plain-identical {}",
            row.label,
            row.retunes_attempted,
            row.retunes_promoted,
            row.warm_starts,
            row.tuner_evaluations,
            row.records_match_plain,
        );
    }
    println!(
        "recovery       quarantined {}  store-failures {}  plain-identical {}  diagnostics {}",
        report.run.recovery_quarantined,
        report.run.recovery_store_failures,
        report.run.recovery_records_match_plain,
        report.run.recovery_diagnostics.len(),
    );
    println!(
        "fleet          repl-0 warm {}  repl-1 warm {}  evals {} -> {}  surfaced {}",
        report.run.fleet.replica0_warm_started,
        report.run.fleet.replica1_warm_started,
        report.run.fleet.replica0_evaluations,
        report.run.fleet.replica1_evaluations,
        report.run.fleet.outcome_tuning_surfaced,
    );
    println!("replay         byte-identical {}", report.replay_identical);

    opts.write_json(&report);

    if opts.check && !gates_hold(&report) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The CI robustness gates (see module docs).
fn gates_hold(report: &WarmstartReport) -> bool {
    let run = &report.run;
    if !run.economics_warm_started
        || run.warm_evaluations >= run.cold_evaluations
        || !run.economics_identical_records
    {
        eprintln!(
            "check FAILED: warm tune must reuse the stored profile and beat the cold run \
             (warm {} vs cold {} evaluations, warm_started {}, identical {})",
            run.warm_evaluations,
            run.cold_evaluations,
            run.economics_warm_started,
            run.economics_identical_records,
        );
        return false;
    }
    let boot = &run.restart_rows[0];
    let restart = &run.restart_rows[1];
    if !boot.records_match_plain || !restart.records_match_plain {
        eprintln!(
            "check FAILED: the vault changed served records (first-boot identical {}, \
             restart identical {}) — storage must be invisible to traffic",
            boot.records_match_plain, restart.records_match_plain,
        );
        return false;
    }
    if boot.retunes_attempted == 0 {
        eprintln!("check FAILED: drift never fired a retune — the restart cell has no teeth");
        return false;
    }
    if restart.warm_starts == 0 || restart.tuner_evaluations >= boot.tuner_evaluations {
        eprintln!(
            "check FAILED: the restarted replica must warm-start from the shared vault \
             ({} warm starts, {} vs {} evaluations)",
            restart.warm_starts, restart.tuner_evaluations, boot.tuner_evaluations,
        );
        return false;
    }
    if run.recovery_quarantined < 4 || run.recovery_store_failures == 0 {
        eprintln!(
            "check FAILED: the corruption quartet was not fully quarantined \
             ({} quarantined, {} store failures)",
            run.recovery_quarantined, run.recovery_store_failures,
        );
        return false;
    }
    if !run.recovery_records_match_plain || run.recovery_diagnostics.is_empty() {
        eprintln!(
            "check FAILED: corruption recovery must degrade to cold tuning with identical \
             records and a diagnostic trail (identical {}, {} diagnostics)",
            run.recovery_records_match_plain,
            run.recovery_diagnostics.len(),
        );
        return false;
    }
    if run.fleet.replica0_warm_started
        || !run.fleet.replica1_warm_started
        || !run.fleet.outcome_tuning_surfaced
    {
        eprintln!(
            "check FAILED: fleet replicas must share the vault (repl-0 warm {}, repl-1 warm {}, \
             surfaced {})",
            run.fleet.replica0_warm_started,
            run.fleet.replica1_warm_started,
            run.fleet.outcome_tuning_surfaced,
        );
        return false;
    }
    if !report.replay_identical {
        eprintln!("check FAILED: two back-to-back passes diverged — the harness is not seeded");
        return false;
    }
    println!("check PASSED: all warm-start, recovery, and replay gates hold");
    true
}
