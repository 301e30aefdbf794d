//! Fleet experiment: heterogeneity-aware multi-model serving over a pool
//! of simulated devices.
//!
//! Serves the full model portfolio — the Table-1 models A–E, the
//! MLPerf-like small config and the 10k-feature scale test — concurrently
//! over a heterogeneous device pool (V100-class, A100-class and a small
//! edge-class arch), each model backed by its own sharded serving tier
//! with per-arch tuned RecFlex engines. Traffic is a deterministic
//! multi-scenario workload: seeded diurnal curves with staggered phases,
//! a flash crowd on one scenario, and per-scenario Poisson arrival mixes
//! merged into one fleet trace.
//!
//! Three placement strategies compete at the same aggregate device
//! budget:
//!
//! * `hetero` — cost-aware placement ([`FleetAssignment::cheapest_fit`]):
//!   each model goes to the class where its tuned schedule profile is
//!   measured cheapest (Hercules-style), highest-regret models first.
//! * `round_robin` — capacity-aware striping, blind to costs.
//! * `homogeneous` — the same budget spent on one uniform V100 pool.
//!
//! Every member applies a DeepRecSys-style per-query admission gate
//! (predicted device time vs the model's SLO) and an SLO-aware shed at
//! arrival; the fleet report rolls up per-model SLO attainment into the
//! fleet-wide number the strategies are graded on.
//!
//! Everything is seeded: two runs print identical numbers, and the CI
//! `threads-replay` job asserts it by diffing `--json` outputs across
//! thread counts and against the committed smoke-scale
//! `BENCH_fleet.json`. `--check` enforces the acceptance gates:
//!
//! 1. **Placement wins** — `hetero` fleet-wide SLO attainment is strictly
//!    higher than both `round_robin` and `homogeneous`.
//! 2. **Degenerate identity** — a 1-model, 1-class fleet with no gate and
//!    no deadline reproduces the underlying `ShardedServeRuntime` report
//!    byte-for-byte (as JSON).

use std::process::ExitCode;

use recflex_baselines::TorchRecBackend;
use recflex_bench::{CliOpts, Scale};
use recflex_core::RecFlexEngine;
use recflex_data::{Batch, Dataset, FleetAssignment, ModelConfig, ModelPreset, Placement};
use recflex_serve::{
    BatchPolicy, DeviceClass, DiurnalCurve, FlashCrowd, FleetMember, FleetReport, FleetRuntime,
    QueryGate, ScenarioSpec, ServeConfig, ShardedServeRuntime, TrafficShape, WorkloadSpec,
};
use recflex_sim::GpuArch;
use serde::Serialize;

/// Root seed for the fleet workload.
const SEED: u64 = 42;
/// Offered load on each model's anchor class (fraction of one device's
/// throughput at the mean batch size).
const TARGET_UTIL_HEAVY: f64 = 0.5;
/// Edge-anchored (light) models run cooler — the edge class is capacity,
/// not speed.
const TARGET_UTIL_LIGHT: f64 = 0.4;
/// SLO deadline as a multiple of the model's mean request cost on its
/// anchor class.
const SLO_FACTOR: f64 = 8.0;
/// Diurnal peak-to-trough swing (DeepRecSys reports ~2× over a day).
const DIURNAL_SWING: f64 = 2.0;
/// Flash-crowd rate multiplier on the crowded scenario.
const CROWD_MULT: f64 = 2.0;

#[derive(Serialize)]
struct ModelRow {
    model: String,
    class: String,
    shards: usize,
    offered: u64,
    gate_shed: u64,
    slo_attainment: f64,
    p50_us: f64,
    p99_us: f64,
}

#[derive(Serialize)]
struct ClassRow {
    class: String,
    devices: usize,
    utilization: f64,
}

#[derive(Serialize)]
struct StrategyRow {
    strategy: String,
    slo_attainment: f64,
    makespan_us: f64,
    models: Vec<ModelRow>,
    classes: Vec<ClassRow>,
}

#[derive(Serialize)]
struct FleetBenchReport {
    scenarios: Vec<String>,
    requests_per_scenario: usize,
    device_budget: usize,
    /// Per (model, class) mean request cost, µs — the measured matrix the
    /// hetero placement runs on.
    cost_matrix_us: Vec<Vec<f64>>,
    class_names: Vec<String>,
    /// Gate 2: the degenerate 1-model/1-class fleet reproduced the plain
    /// sharded tier byte-for-byte.
    degenerate_identity: bool,
    rows: Vec<StrategyRow>,
}

/// One scenario's static description, before costs are known.
struct Portfolio {
    names: Vec<String>,
    models: Vec<ModelConfig>,
    /// Devices (shards) each model's tier spans, any class.
    demand: Vec<usize>,
}

fn portfolio(scale: &Scale) -> Portfolio {
    // Scale10k leads so round-robin striping stays within capacity; it
    // runs at half the harness fraction like the `scale_10k` experiment.
    let presets = [
        (ModelPreset::Scale10k, 0.5, 2usize),
        (ModelPreset::A, 1.0, 1),
        (ModelPreset::B, 1.0, 1),
        (ModelPreset::C, 1.0, 1),
        (ModelPreset::D, 1.0, 1),
        (ModelPreset::E, 1.0, 1),
        (ModelPreset::MLPerfLike, 1.0, 1),
    ];
    let mut p = Portfolio {
        names: Vec::new(),
        models: Vec::new(),
        demand: Vec::new(),
    };
    for (preset, frac, shards) in presets {
        let model = preset.scaled((scale.model_frac * frac).min(1.0));
        p.names.push(model.name.clone());
        p.models.push(model);
        p.demand.push(shards);
    }
    p
}

/// Mean batch size of scenario `idx`'s stream (sizes are independent of
/// the gap and the shape, so a provisional workload suffices).
fn mean_batch_size(model: &ModelConfig, idx: usize, n: usize) -> f64 {
    let provisional = recflex_serve::FleetWorkload {
        scenarios: vec![ScenarioSpec {
            name: model.name.clone(),
            workload: WorkloadSpec::long_tail(100.0),
            shape: TrafficShape::flat(),
            requests: n,
        }],
        seed: SEED ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    };
    let stream = provisional.scenario_stream(0, model);
    let total: u64 = stream.iter().map(|r| r.batch.batch_size as u64).sum();
    total as f64 / n.max(1) as f64
}

/// Measure the (model × class) cost matrix: tune a RecFlex engine per
/// cell and probe a mean-sized batch. Entry `[m][c]` is the mean request
/// cost of model `m` on one class-`c` device, µs.
fn cost_matrix(
    portfolio: &Portfolio,
    archs: &[&GpuArch],
    mean_sizes: &[f64],
    scale: &Scale,
) -> Vec<Vec<f64>> {
    portfolio
        .models
        .iter()
        .enumerate()
        .map(|(m, model)| {
            let history = Dataset::synthesize(model, 3, scale.batch_size, 7);
            let tables = recflex_embedding::TableSet::for_model(model);
            let probe = Batch::generate(model, (mean_sizes[m] as u32).max(1), 0xF1EE7);
            archs
                .iter()
                .map(|arch| {
                    let engine = RecFlexEngine::tune(model, &history, arch, &scale.tuner);
                    recflex_baselines::Backend::cost(&engine, model, &tables, &probe, arch)
                        .expect("probe batch runs")
                        .latency_us
                })
                .collect()
        })
        .collect()
}

/// Build one strategy's fleet: each member's tier spans `demand[m]`
/// devices of its assigned class, with per-shard engines tuned on that
/// class's arch.
fn build_fleet<'a>(
    portfolio: &'a Portfolio,
    assignment: &FleetAssignment,
    classes: Vec<DeviceClass<'a>>,
    costs: &[Vec<f64>],
    class_cost_idx: &[usize],
    slos: &[f64],
    scale: &Scale,
) -> FleetRuntime<'a> {
    let members = portfolio
        .models
        .iter()
        .enumerate()
        .map(|(m, model)| {
            let class = assignment.class_of[m];
            let arch = classes[class].arch;
            let placement = Placement::balance(model, portfolio.demand[m]);
            let runtime = ShardedServeRuntime::build(
                model,
                arch,
                placement,
                ServeConfig {
                    streams: 4,
                    policy: BatchPolicy::DynamicPacked {
                        max_batch: 256,
                        max_wait_us: 0.25 * slos[m],
                    },
                    slo_deadline_us: Some(slos[m]),
                    closed_loop: false,
                    hot_shard_cap: None,
                },
                scale.interconnect.clone(),
                |sub| {
                    let history = Dataset::synthesize(sub, 3, scale.batch_size, 7);
                    Box::new(RecFlexEngine::tune(sub, &history, arch, &scale.tuner))
                },
            );
            // Predicted per-sample device cost on the assigned class, for
            // the DeepRecSys-style admission gate.
            let cost_per_sample_us = costs[m][class_cost_idx[class]];
            FleetMember {
                name: portfolio.names[m].clone(),
                class,
                runtime,
                slo_deadline_us: Some(slos[m]),
                gate: Some(QueryGate {
                    cost_per_sample_us,
                    deadline_us: slos[m],
                }),
                tuning: None,
            }
        })
        .collect();
    FleetRuntime { classes, members }
}

/// Gate 2: a 1-model, 1-class fleet with no gate and no deadline must
/// serialize byte-identically to the plain sharded tier.
fn degenerate_identity(scale: &Scale) -> bool {
    let model = ModelPreset::C.scaled(scale.model_frac);
    let arch = GpuArch::v100();
    let config = ServeConfig {
        streams: 4,
        policy: BatchPolicy::Split { cap: 256 },
        slo_deadline_us: None,
        closed_loop: false,
        hot_shard_cap: None,
    };
    let build = || {
        ShardedServeRuntime::build(
            &model,
            &arch,
            Placement::balance(&model, 1),
            config,
            scale.interconnect.clone(),
            |m| Box::new(TorchRecBackend::compile(m)),
        )
    };
    let workload = recflex_serve::FleetWorkload {
        scenarios: vec![ScenarioSpec {
            name: model.name.clone(),
            workload: WorkloadSpec::long_tail(400.0),
            shape: TrafficShape::flat(),
            requests: 24,
        }],
        seed: SEED,
    };
    let fleet = FleetRuntime {
        classes: vec![DeviceClass {
            name: "V100".to_string(),
            arch: &arch,
            devices: 1,
        }],
        members: vec![FleetMember {
            name: model.name.clone(),
            class: 0,
            runtime: build(),
            slo_deadline_us: None,
            gate: None,
            tuning: None,
        }],
    };
    let via_fleet = fleet
        .serve(&workload.merged(&[&model]))
        .expect("fleet serves");
    let direct = build()
        .serve(&WorkloadSpec::long_tail(400.0).stream(&model, 24, SEED))
        .expect("direct tier serves");
    serde_json::to_string(&via_fleet.models[0].report).expect("serialize")
        == serde_json::to_string(&direct).expect("serialize")
}

fn strategy_row(strategy: &str, report: &FleetReport) -> StrategyRow {
    StrategyRow {
        strategy: strategy.to_string(),
        slo_attainment: report.slo_attainment,
        makespan_us: report.makespan_us,
        models: report
            .models
            .iter()
            .map(|m| ModelRow {
                model: m.name.clone(),
                class: m.class.clone(),
                shards: m.shards,
                offered: m.requests_offered,
                gate_shed: m.gate_shed,
                slo_attainment: m.slo_attainment,
                p50_us: m.p50_us,
                p99_us: m.p99_us,
            })
            .collect(),
        classes: report
            .classes
            .iter()
            .map(|c| ClassRow {
                class: c.name.clone(),
                devices: c.devices,
                utilization: c.utilization,
            })
            .collect(),
    }
}

fn main() -> ExitCode {
    let opts = CliOpts::from_args();
    let scale = Scale::from_env();
    let v100 = GpuArch::v100();
    let a100 = GpuArch::a100();
    let edge = GpuArch::edge();
    let archs: Vec<&GpuArch> = vec![&v100, &a100, &edge];
    let class_names = ["V100", "A100", "Edge"];
    let capacity = [3usize, 3, 2];
    let device_budget: usize = capacity.iter().sum();

    let portfolio = portfolio(&scale);
    let n_requests = (scale.eval_batches * 8).clamp(16, 64);

    println!(
        "== serving fleet: {} models over {{V100x3, A100x3, Edgex2}}, {} requests/scenario ==",
        portfolio.models.len(),
        n_requests
    );

    // Measure the cost matrix: mean request cost per (model, class).
    let mean_sizes: Vec<f64> = portfolio
        .models
        .iter()
        .enumerate()
        .map(|(m, model)| mean_batch_size(model, m, n_requests))
        .collect();
    let costs = cost_matrix(&portfolio, &archs, &mean_sizes, &scale);
    for (m, row) in costs.iter().enumerate() {
        println!(
            "  cost {:<12} {:>9.1} us (V100) {:>9.1} us (A100) {:>9.1} us (Edge)",
            portfolio.names[m], row[0], row[1], row[2]
        );
    }

    // The cost-aware assignment, computed first: it also defines each
    // model's SLO class. A model the scheduler parks on the edge class is
    // a low-regret, latency-tolerant member — its arrival rate and SLO
    // budget anchor to the edge cost (and it runs cooler); everyone else
    // anchors to their best big-class cost. The anchors derive only from
    // the measured cost matrix, so the workload is identical across all
    // three strategies.
    let hetero = FleetAssignment::cheapest_fit(&costs, &portfolio.demand, &capacity);
    let edge_class = capacity.len() - 1;
    let anchors: Vec<f64> = (0..portfolio.models.len())
        .map(|m| {
            if hetero.class_of[m] == edge_class {
                costs[m][edge_class]
            } else {
                costs[m][0].min(costs[m][1])
            }
        })
        .collect();
    let gaps: Vec<f64> = (0..portfolio.models.len())
        .map(|m| {
            let util = if hetero.class_of[m] == edge_class {
                TARGET_UTIL_LIGHT
            } else {
                TARGET_UTIL_HEAVY
            };
            anchors[m] / util
        })
        .collect();
    let slos: Vec<f64> = anchors.iter().map(|a| SLO_FACTOR * a).collect();

    // The fleet workload: staggered diurnal curves, one flash crowd.
    let workload = recflex_serve::FleetWorkload {
        scenarios: portfolio
            .models
            .iter()
            .enumerate()
            .map(|(m, model)| {
                let span = gaps[m] * n_requests as f64;
                let mut shape = TrafficShape {
                    diurnal: Some(DiurnalCurve {
                        period_us: span / 2.0,
                        peak_to_trough: DIURNAL_SWING,
                        phase: 0.13 * m as f64,
                    }),
                    flash_crowds: Vec::new(),
                };
                if m == 1 {
                    shape.flash_crowds.push(FlashCrowd {
                        start_us: 0.45 * span,
                        duration_us: 0.08 * span,
                        multiplier: CROWD_MULT,
                    });
                }
                ScenarioSpec {
                    name: model.name.clone(),
                    workload: WorkloadSpec::long_tail(gaps[m]),
                    shape,
                    requests: n_requests,
                }
            })
            .collect(),
        seed: SEED,
    };
    let model_refs: Vec<&ModelConfig> = portfolio.models.iter().collect();
    let merged = workload.merged(&model_refs);

    // The two baselines at the same aggregate budget.
    let rr = FleetAssignment::round_robin(&portfolio.demand, &capacity);
    let homog = FleetAssignment::homogeneous(portfolio.models.len(), 0, 1);

    let hetero_classes: Vec<DeviceClass<'_>> = class_names
        .iter()
        .zip(&archs)
        .zip(capacity)
        .map(|((name, arch), devices)| DeviceClass {
            name: name.to_string(),
            arch,
            devices,
        })
        .collect();
    let rr_classes: Vec<DeviceClass<'_>> = hetero_classes
        .iter()
        .map(|c| DeviceClass {
            name: c.name.clone(),
            arch: c.arch,
            devices: c.devices,
        })
        .collect();
    let homog_classes = vec![DeviceClass {
        name: "V100".to_string(),
        arch: &v100,
        devices: device_budget,
    }];

    // Per-sample gate costs: the cost matrix holds mean *request* cost;
    // divide by the mean batch size per model inside build via a scaled
    // copy of the matrix.
    let per_sample: Vec<Vec<f64>> = costs
        .iter()
        .enumerate()
        .map(|(m, row)| row.iter().map(|c| c / mean_sizes[m].max(1.0)).collect())
        .collect();

    let mut rows = Vec::new();
    for (name, assignment, classes, cost_idx) in [
        ("hetero", &hetero, hetero_classes, vec![0usize, 1, 2]),
        ("round_robin", &rr, rr_classes, vec![0, 1, 2]),
        ("homogeneous", &homog, homog_classes, vec![0]),
    ] {
        let fleet = build_fleet(
            &portfolio,
            assignment,
            classes,
            &per_sample,
            &cost_idx,
            &slos,
            &scale,
        );
        let report = fleet.serve(&merged).expect("fleet serves");
        let row = strategy_row(name, &report);
        println!(
            "{:<12} attainment {:>6.3} makespan {:>12.1} us",
            row.strategy, row.slo_attainment, row.makespan_us
        );
        for m in &row.models {
            println!(
                "    {:<12} on {:<5} x{} attain {:>6.3} gate-shed {:>3} p99 {:>10.1} us",
                m.model, m.class, m.shards, m.slo_attainment, m.gate_shed, m.p99_us
            );
        }
        for c in &row.classes {
            println!(
                "    class {:<5} x{} util {:>6.3}",
                c.class, c.devices, c.utilization
            );
        }
        rows.push(row);
    }

    let degenerate = degenerate_identity(&scale);
    println!("degenerate 1-model/1-class fleet identical to plain tier: {degenerate}");

    let report = FleetBenchReport {
        scenarios: portfolio.names.clone(),
        requests_per_scenario: n_requests,
        device_budget,
        cost_matrix_us: costs,
        class_names: class_names.iter().map(|s| s.to_string()).collect(),
        degenerate_identity: degenerate,
        rows,
    };
    opts.write_json(&report);

    if opts.check && !gates_hold(&report) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The CI acceptance gates (see module docs).
fn gates_hold(report: &FleetBenchReport) -> bool {
    if !report.degenerate_identity {
        eprintln!(
            "check FAILED: the degenerate 1-model/1-class fleet diverged from the \
             plain sharded tier — the fleet wrapper is not free"
        );
        return false;
    }
    let attain = |strategy: &str| {
        report
            .rows
            .iter()
            .find(|r| r.strategy == strategy)
            .map(|r| r.slo_attainment)
            .expect("sweep covers the gated strategy")
    };
    let hetero = attain("hetero");
    let rr = attain("round_robin");
    let homog = attain("homogeneous");
    if hetero <= rr {
        eprintln!(
            "check FAILED: hetero-aware attainment {hetero:.3} is not strictly above \
             round-robin {rr:.3}"
        );
        return false;
    }
    if hetero <= homog {
        eprintln!(
            "check FAILED: hetero-aware attainment {hetero:.3} is not strictly above \
             the homogeneous pool {homog:.3}"
        );
        return false;
    }
    println!(
        "check passed: hetero {hetero:.3} > round-robin {rr:.3}, homogeneous {homog:.3}; \
         degenerate fleet identical"
    );
    true
}
