//! Fleet chaos experiment: correlated device-class outages against the
//! health-monitored drain-and-migrate controller and the fleet brownout
//! ladder.
//!
//! A three-model fleet runs over {V100×2, A100×2}: two members pinned to
//! the V100 class, one to A100, each a single-shard tier with a
//! DeepRecSys-style admission gate. Mid-run the whole V100 class goes
//! dark ([`ClassFaultKind::Outage`] over `[0.35, 0.7)` of the span) and
//! three response postures compete on the identical trace:
//!
//! * `static`    — faults only: placement is frozen, stranded traffic is
//!   shed by the per-tier SLO admission check.
//! * `brownout`  — the fleet brownout ladder answers outage-stranded
//!   traffic with degraded zero-pooled edge records, but nobody moves.
//! * `elastic`   — the health monitor drains the first unhealthy V100
//!   member and re-places it on the spare A100 device
//!   ([`FleetAssignment::rehome`] against residual capacity); the ladder
//!   covers the drain window and whoever could not be re-placed.
//!
//! Everything is seeded and members are served in member order, so two
//! runs — at any `RECFLEX_THREADS` — print identical numbers. `--check`
//! enforces the acceptance gates:
//!
//! 1. **Trivial identity** — an empty `FleetFaultPlan` with elasticity
//!    and brownout disabled runs the general chaos passes, and its report
//!    with `chaos` cleared reproduces [`FleetRuntime::serve`]
//!    byte-for-byte (as JSON); its chaos stats record no migration, edge
//!    answer, drain shed, outage downtime or nonzero rung.
//! 2. **Elasticity pays** — `elastic` fleet availability is ≥ 0.95 and
//!    strictly above `static`.
//! 3. **Recovery** — at least one drain-and-migrate completes, and the
//!    migrated member's post-resume SLO attainment is within 10% of its
//!    pre-outage level.
//! 4. **Replay** — the `elastic` cell run twice yields byte-identical
//!    JSON (the CI `threads-replay` job extends this across thread
//!    counts).
//!
//! [`ClassFaultKind::Outage`]: recflex_serve::ClassFaultKind
//! [`FleetAssignment::rehome`]: recflex_data::FleetAssignment::rehome

use std::process::ExitCode;

use recflex_baselines::TorchRecBackend;
use recflex_bench::{CliOpts, Scale};
use recflex_data::{Batch, ModelConfig, ModelPreset, Placement};
use recflex_serve::{
    BatchPolicy, ClassFaultKind, ClassFaultWindow, DeviceClass, ElasticityConfig, FleetChaosConfig,
    FleetFaultPlan, FleetMember, FleetReport, FleetRuntime, FleetWorkload, QueryGate, ScenarioSpec,
    ServeConfig, ShardedServeRuntime, TrafficShape, WorkloadSpec,
};
use recflex_sim::GpuArch;
use serde::Serialize;

/// Root seed for the fleet workload.
const SEED: u64 = 42;
/// Offered load per member on its anchor class — cool enough that the
/// health monitor only trips on injected faults, never on queueing.
const TARGET_UTIL: f64 = 0.35;
/// SLO deadline as a multiple of the member's mean request cost.
const SLO_FACTOR: f64 = 8.0;
/// The outage window, as fractions of the workload span.
const OUTAGE_FRAC: (f64, f64) = (0.35, 0.7);
/// Gate 2 floor on `elastic` fleet availability.
const AVAILABILITY_FLOOR: f64 = 0.95;
/// Gate 3: post-resume attainment must reach this fraction of the
/// pre-outage level.
const RECOVERY_FRAC: f64 = 0.9;

#[derive(Serialize)]
struct ModelRow {
    model: String,
    class: String,
    offered: u64,
    gate_shed: u64,
    slo_attainment: f64,
}

#[derive(Serialize)]
struct CellRow {
    cell: String,
    availability: f64,
    slo_attainment: f64,
    makespan_us: f64,
    outage_downtime_us: f64,
    migrations_attempted: u32,
    migrations_completed: u32,
    migrations_aborted: u32,
    edge_degraded: u64,
    drain_shed: u64,
    /// Brownout rung per observation epoch.
    ladder: Vec<u8>,
    models: Vec<ModelRow>,
}

#[derive(Serialize)]
struct RecoveryRow {
    member: String,
    to_class: String,
    trigger_us: f64,
    resume_us: f64,
    pre_outage_attainment: f64,
    post_resume_attainment: f64,
}

#[derive(Serialize)]
struct ChaosBenchReport {
    requests_per_scenario: usize,
    outage_class: String,
    outage_start_us: f64,
    outage_end_us: f64,
    epoch_us: f64,
    /// Gate 1: trivial chaos config reproduced the plain fleet and
    /// recorded no chaos.
    trivial_identity: bool,
    /// Gate 4: the elastic cell replays byte-for-byte.
    replay_identity: bool,
    /// Gate 3 evidence, from the elastic cell's completed migration.
    recovery: Option<RecoveryRow>,
    cells: Vec<CellRow>,
}

struct Bench {
    names: Vec<String>,
    models: Vec<ModelConfig>,
    /// Member → pinned class.
    pinned: Vec<usize>,
    slos: Vec<f64>,
    /// `cost_matrix_us[member][class]`, per sample.
    per_sample: Vec<Vec<f64>>,
    merged: Vec<recflex_serve::FleetArrival>,
    span_us: f64,
    epoch_us: f64,
    n_requests: usize,
}

/// Mean request cost of `model` on `arch`, probed at the stream's mean
/// batch size with the portable baseline backend.
fn probe_cost(model: &ModelConfig, arch: &GpuArch, mean_size: f64) -> f64 {
    let tables = recflex_embedding::TableSet::for_model(model);
    let backend = TorchRecBackend::compile(model);
    let probe = Batch::generate(model, (mean_size as u32).max(1), 0xF1EE7);
    recflex_baselines::Backend::cost(&backend, model, &tables, &probe, arch)
        .expect("probe batch runs")
        .latency_us
}

fn bench(scale: &Scale, archs: &[&GpuArch; 2]) -> Bench {
    let presets = [ModelPreset::A, ModelPreset::C, ModelPreset::D];
    let pinned = vec![0usize, 1, 0];
    let models: Vec<ModelConfig> = presets.iter().map(|p| p.scaled(scale.model_frac)).collect();
    let names: Vec<String> = models.iter().map(|m| m.name.clone()).collect();
    let n_requests = (scale.eval_batches * 8).clamp(16, 48);

    // Mean batch size per scenario (sizes are gap/shape independent).
    let mean_sizes: Vec<f64> = models
        .iter()
        .enumerate()
        .map(|(m, model)| {
            let provisional = FleetWorkload {
                scenarios: vec![scenario(model, 100.0, n_requests)],
                seed: SEED ^ (m as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            };
            let stream = provisional.scenario_stream(0, model);
            let total: u64 = stream.iter().map(|r| r.batch.batch_size as u64).sum();
            total as f64 / n_requests.max(1) as f64
        })
        .collect();
    let costs: Vec<Vec<f64>> = models
        .iter()
        .enumerate()
        .map(|(m, model)| {
            archs
                .iter()
                .map(|arch| probe_cost(model, arch, mean_sizes[m]))
                .collect()
        })
        .collect();
    let anchors: Vec<f64> = (0..models.len()).map(|m| costs[m][pinned[m]]).collect();
    let gaps: Vec<f64> = anchors.iter().map(|a| a / TARGET_UTIL).collect();
    let slos: Vec<f64> = anchors.iter().map(|a| SLO_FACTOR * a).collect();
    let per_sample: Vec<Vec<f64>> = costs
        .iter()
        .enumerate()
        .map(|(m, row)| row.iter().map(|c| c / mean_sizes[m].max(1.0)).collect())
        .collect();

    let workload = FleetWorkload {
        scenarios: models
            .iter()
            .enumerate()
            .map(|(m, model)| scenario(model, gaps[m], n_requests))
            .collect(),
        seed: SEED,
    };
    let model_refs: Vec<&ModelConfig> = models.iter().collect();
    let merged = workload.merged(&model_refs);
    let span_us = gaps
        .iter()
        .map(|g| g * n_requests as f64)
        .fold(0.0, f64::max);
    Bench {
        names,
        models,
        pinned,
        slos,
        per_sample,
        merged,
        span_us,
        epoch_us: span_us / 16.0,
        n_requests,
    }
}

fn scenario(model: &ModelConfig, gap_us: f64, n: usize) -> ScenarioSpec {
    ScenarioSpec {
        name: model.name.clone(),
        workload: WorkloadSpec::long_tail(gap_us),
        shape: TrafficShape::flat(),
        requests: n,
    }
}

/// Build one member's sharded tier on the given class arch.
fn tier<'a>(b: &'a Bench, m: usize, arch: &'a GpuArch, scale: &Scale) -> ShardedServeRuntime<'a> {
    ShardedServeRuntime::build(
        &b.models[m],
        arch,
        Placement::balance(&b.models[m], 1),
        ServeConfig {
            streams: 4,
            policy: BatchPolicy::Split { cap: 256 },
            slo_deadline_us: Some(b.slos[m]),
            closed_loop: false,
            hot_shard_cap: None,
        },
        scale.interconnect.clone(),
        |sub| Box::new(TorchRecBackend::compile(sub)),
    )
}

fn fleet<'a>(b: &'a Bench, archs: &[&'a GpuArch; 2], scale: &Scale) -> FleetRuntime<'a> {
    FleetRuntime {
        classes: vec![
            DeviceClass {
                name: "V100".to_string(),
                arch: archs[0],
                devices: 2,
            },
            DeviceClass {
                name: "A100".to_string(),
                arch: archs[1],
                devices: 2,
            },
        ],
        members: (0..b.models.len())
            .map(|m| FleetMember {
                name: b.names[m].clone(),
                class: b.pinned[m],
                runtime: tier(b, m, archs[b.pinned[m]], scale),
                slo_deadline_us: Some(b.slos[m]),
                gate: Some(QueryGate {
                    cost_per_sample_us: b.per_sample[m][b.pinned[m]],
                    deadline_us: b.slos[m],
                }),
                tuning: None,
            })
            .collect(),
    }
}

fn outage_window(b: &Bench) -> ClassFaultWindow {
    ClassFaultWindow {
        class: 0,
        kind: ClassFaultKind::Outage,
        start_us: OUTAGE_FRAC.0 * b.span_us,
        end_us: OUTAGE_FRAC.1 * b.span_us,
    }
}

fn chaos_config(b: &Bench, elastic: bool, brownout: bool) -> FleetChaosConfig {
    FleetChaosConfig {
        faults: FleetFaultPlan::scripted(vec![outage_window(b)]),
        epoch_us: b.epoch_us,
        elasticity: elastic.then(|| ElasticityConfig {
            cost_matrix_us: b.per_sample.clone(),
        }),
        brownout,
    }
}

fn run_cell(
    b: &Bench,
    archs: &[&GpuArch; 2],
    scale: &Scale,
    cfg: &FleetChaosConfig,
) -> FleetReport {
    let mut f = fleet(b, archs, scale);
    f.serve_chaos(&b.merged, cfg, |m, class| tier(b, m, archs[class], scale))
        .expect("chaos fleet serves")
}

fn cell_row(cell: &str, report: &FleetReport) -> CellRow {
    let stats = report.chaos.as_ref().expect("chaos cells carry stats");
    CellRow {
        cell: cell.to_string(),
        availability: stats.availability,
        slo_attainment: report.slo_attainment,
        makespan_us: report.makespan_us,
        outage_downtime_us: stats.outage_downtime_us,
        migrations_attempted: stats.migrations_attempted,
        migrations_completed: stats.migrations_completed,
        migrations_aborted: stats.migrations_aborted,
        edge_degraded: stats.edge_degraded,
        drain_shed: stats.drain_shed,
        ladder: stats.ladder.clone(),
        models: report
            .models
            .iter()
            .map(|m| ModelRow {
                model: m.name.clone(),
                class: m.class.clone(),
                offered: m.requests_offered,
                gate_shed: m.gate_shed,
                slo_attainment: m.slo_attainment,
            })
            .collect(),
    }
}

/// Gate 3 evidence: the migrated member's attainment before the outage
/// opened vs after its migration resumed.
fn recovery_row(b: &Bench, report: &FleetReport) -> Option<RecoveryRow> {
    let stats = report.chaos.as_ref()?;
    let mig = stats.migrations.iter().find(|m| m.outcome == "completed")?;
    let idx = b.names.iter().position(|n| *n == mig.member)?;
    let resume = mig.resume_us?;
    let outage_start = OUTAGE_FRAC.0 * b.span_us;
    let attainment = |lo: f64, hi: f64| {
        let (ok, n) = report.models[idx]
            .report
            .records
            .iter()
            .filter(|r| r.base.arrival_us >= lo && r.base.arrival_us < hi)
            .fold((0u64, 0u64), |(ok, n), r| {
                let hit = !r.base.is_shed() && r.base.latency_us() <= b.slos[idx];
                (ok + hit as u64, n + 1)
            });
        if n == 0 {
            1.0
        } else {
            ok as f64 / n as f64
        }
    };
    Some(RecoveryRow {
        member: mig.member.clone(),
        to_class: mig.to_class.clone().unwrap_or_default(),
        trigger_us: mig.trigger_us,
        resume_us: resume,
        pre_outage_attainment: attainment(0.0, outage_start),
        post_resume_attainment: attainment(resume, f64::INFINITY),
    })
}

fn main() -> ExitCode {
    let opts = CliOpts::from_args();
    let scale = Scale::from_env();
    let v100 = GpuArch::v100();
    let a100 = GpuArch::a100();
    let archs = [&v100, &a100];
    let b = bench(&scale, &archs);
    let outage = outage_window(&b);

    println!(
        "== fleet chaos: {} members over {{V100x2, A100x2}}, {} requests/scenario, \
         V100 outage [{:.0}, {:.0}) us ==",
        b.models.len(),
        b.n_requests,
        outage.start_us,
        outage.end_us
    );

    // Gate 1: a trivial chaos config must be invisible, byte for byte.
    let plain = fleet(&b, &archs, &scale)
        .serve(&b.merged)
        .expect("plain fleet serves");
    let mut trivial = run_cell(&b, &archs, &scale, &FleetChaosConfig::default());
    let stats = trivial.chaos.take().expect("chaos runs carry stats");
    let trivial_identity = serde_json::to_string(&plain).expect("serialize")
        == serde_json::to_string(&trivial).expect("serialize")
        && stats.migrations.is_empty()
        && stats.edge_degraded == 0
        && stats.drain_shed == 0
        && stats.outage_downtime_us == 0.0
        && stats.ladder.iter().all(|&rung| rung == 0);
    println!("trivial chaos config identical to plain fleet: {trivial_identity}");

    let cells = [
        ("static", chaos_config(&b, false, false)),
        ("brownout", chaos_config(&b, false, true)),
        ("elastic", chaos_config(&b, true, true)),
    ];
    let mut rows = Vec::new();
    let mut elastic_report = None;
    for (name, cfg) in &cells {
        let report = run_cell(&b, &archs, &scale, cfg);
        let row = cell_row(name, &report);
        println!(
            "{:<9} availability {:>6.3} attainment {:>6.3} migrations {}/{} \
             degraded {:>3} downtime {:>10.1} us",
            row.cell,
            row.availability,
            row.slo_attainment,
            row.migrations_completed,
            row.migrations_attempted,
            row.edge_degraded,
            row.outage_downtime_us,
        );
        for m in &row.models {
            println!(
                "    {:<12} on {:<5} attain {:>6.3} gate-shed {:>3}",
                m.model, m.class, m.slo_attainment, m.gate_shed
            );
        }
        if *name == "elastic" {
            elastic_report = Some(report);
        }
        rows.push(row);
    }
    let elastic_report = elastic_report.expect("elastic cell ran");

    // Gate 4: the elastic cell replays byte-for-byte.
    let rerun = run_cell(&b, &archs, &scale, &cells[2].1);
    let replay_identity = serde_json::to_string(&elastic_report).expect("serialize")
        == serde_json::to_string(&rerun).expect("serialize");
    println!("elastic cell replays byte-for-byte: {replay_identity}");

    let recovery = recovery_row(&b, &elastic_report);
    if let Some(r) = &recovery {
        println!(
            "recovery: {} -> {} trigger {:.1} us resume {:.1} us attainment {:.3} -> {:.3}",
            r.member,
            r.to_class,
            r.trigger_us,
            r.resume_us,
            r.pre_outage_attainment,
            r.post_resume_attainment
        );
    }

    let report = ChaosBenchReport {
        requests_per_scenario: b.n_requests,
        outage_class: "V100".to_string(),
        outage_start_us: outage.start_us,
        outage_end_us: outage.end_us,
        epoch_us: b.epoch_us,
        trivial_identity,
        replay_identity,
        recovery,
        cells: rows,
    };
    opts.write_json(&report);

    if opts.check && !gates_hold(&report) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The CI acceptance gates (see module docs).
fn gates_hold(report: &ChaosBenchReport) -> bool {
    if !report.trivial_identity {
        eprintln!(
            "check FAILED: a trivial chaos config diverged from the plain fleet or \
             recorded chaos — the no-fault path is not free"
        );
        return false;
    }
    if !report.replay_identity {
        eprintln!("check FAILED: the elastic cell did not replay byte-for-byte");
        return false;
    }
    let avail = |cell: &str| {
        report
            .cells
            .iter()
            .find(|r| r.cell == cell)
            .map(|r| r.availability)
            .expect("sweep covers the gated cell")
    };
    let elastic = avail("elastic");
    let frozen = avail("static");
    if elastic < AVAILABILITY_FLOOR {
        eprintln!(
            "check FAILED: elastic availability {elastic:.3} under a class outage is \
             below the {AVAILABILITY_FLOOR} floor"
        );
        return false;
    }
    if elastic <= frozen {
        eprintln!(
            "check FAILED: elastic availability {elastic:.3} is not strictly above \
             the static fleet {frozen:.3}"
        );
        return false;
    }
    let Some(rec) = &report.recovery else {
        eprintln!("check FAILED: no drain-and-migrate completed under the class outage");
        return false;
    };
    if rec.post_resume_attainment < RECOVERY_FRAC * rec.pre_outage_attainment {
        eprintln!(
            "check FAILED: post-migration attainment {:.3} did not recover to within \
             10% of the pre-outage level {:.3}",
            rec.post_resume_attainment, rec.pre_outage_attainment
        );
        return false;
    }
    println!(
        "check passed: elastic availability {elastic:.3} >= {AVAILABILITY_FLOOR} and \
         > static {frozen:.3}; {} migration(s) completed, attainment {:.3} -> {:.3}",
        report
            .cells
            .iter()
            .find(|r| r.cell == "elastic")
            .map(|r| r.migrations_completed)
            .unwrap_or(0),
        rec.pre_outage_attainment,
        rec.post_resume_attainment
    );
    true
}
