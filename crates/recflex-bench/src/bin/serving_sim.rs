//! Online-serving experiments (Section VI-D context).
//!
//! Part 1 — the original offline table: a mixed request stream with one
//! long-tail request, served closed-loop with and without industrial
//! batch splitting, on RecFlex and TorchRec.
//!
//! Part 2 — a load sweep on the open-loop runtime from `recflex-serve`:
//! offered load (Poisson arrivals of a heavy-tailed request mix) against
//! p50/p99 latency and shed rate, for three batching policies (unsplit,
//! split, dynamic batching) across RecFlex, TorchRec and TensorFlow,
//! with an SLO admission gate. Everything is seeded, so two runs of
//! this binary print identical numbers.

use recflex_baselines::{Backend, TensorFlowBackend, TorchRecBackend};
use recflex_bench::{CliOpts, Scale};
use recflex_core::RecFlexEngine;
use recflex_data::{Batch, Dataset, ModelConfig, ModelPreset};
use recflex_serve::{BatchPolicy, Request, ServeConfig, ShardedServeRuntime, WorkloadSpec};
use recflex_sim::GpuArch;
use recflex_tuner::TunerConfig;
use serde::Serialize;

/// One row of the closed-loop table, as written to `--json`.
#[derive(Serialize)]
struct ClosedLoopRow {
    backend: String,
    mode: String,
    mean_us: f64,
    p99_us: f64,
    max_us: f64,
    kernel_launches: u64,
}

/// One row of the open-loop load sweep, as written to `--json`.
#[derive(Serialize)]
struct SweepRow {
    backend: String,
    policy: String,
    gap_us: f64,
    p50_us: f64,
    p99_us: f64,
    mean_queue_us: f64,
    shed_rate: f64,
}

#[derive(Serialize)]
struct SimReport {
    model: String,
    num_features: usize,
    closed_loop: Vec<ClosedLoopRow>,
    load_sweep: Vec<SweepRow>,
}

fn closed_loop_table(
    model: &ModelConfig,
    arch: &GpuArch,
    engine: &RecFlexEngine,
    torchrec: &TorchRecBackend,
) -> Vec<ClosedLoopRow> {
    // Request stream: mostly moderate requests, one 2 560-sample tail.
    let mut batches: Vec<Batch> = [64u32, 128, 256, 96, 512, 32, 192, 256]
        .iter()
        .enumerate()
        .map(|(i, &bs)| Batch::generate(model, bs, 1000 + i as u64))
        .collect();
    batches.push(Batch::generate(model, 2560, 9999));
    let requests: Vec<Request> = batches
        .into_iter()
        .enumerate()
        .map(|(i, batch)| Request {
            id: i as u64,
            arrival_us: 0.0,
            batch,
        })
        .collect();

    println!(
        "== serving simulation: {} requests incl. one 2560-sample tail ==",
        requests.len()
    );
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>10}",
        "configuration", "mean (us)", "p99 (us)", "max (us)", "launches"
    );
    let mut rows = Vec::new();
    for (name, backend) in [("RecFlex", engine as &dyn Backend), ("TorchRec", torchrec)] {
        for (mode, policy) in [
            ("split@512", BatchPolicy::Split { cap: 512 }),
            ("unsplit", BatchPolicy::Unsplit),
        ] {
            // Closed loop on one stream: each request runs alone, its
            // chunks back to back.
            let config = ServeConfig {
                streams: 1,
                policy,
                closed_loop: true,
                ..ServeConfig::default()
            };
            let report = ShardedServeRuntime::single_device(model, arch, config, backend)
                .serve(&requests)
                .unwrap();
            let row = ClosedLoopRow {
                backend: name.to_string(),
                mode: mode.to_string(),
                mean_us: report.mean_latency_us(),
                p99_us: report.percentile_us(0.99),
                max_us: report.percentile_us(1.0),
                kernel_launches: report.kernel_launches,
            };
            println!(
                "{:<22} {:>12.1} {:>12.1} {:>12.1} {:>10}",
                format!("{name} {mode}"),
                row.mean_us,
                row.p99_us,
                row.max_us,
                row.kernel_launches
            );
            rows.push(row);
        }
    }
    println!("\n(runtime thread mapping lets RecFlex absorb the unsplit tail, Section VI-D)\n");
    rows
}

fn load_sweep(
    model: &ModelConfig,
    arch: &GpuArch,
    backends: &[(&str, &dyn Backend)],
    n_requests: usize,
) -> Vec<SweepRow> {
    let policies = [
        ("unsplit", BatchPolicy::Unsplit),
        ("split@256", BatchPolicy::Split { cap: 256 }),
        (
            "dynamic@256",
            BatchPolicy::Dynamic {
                max_batch: 256,
                max_wait_us: 300.0,
            },
        ),
    ];
    // Offered load: mean inter-arrival gap in µs, high load to low.
    let gaps_us = [200.0, 500.0, 1000.0, 2000.0];
    let slo_deadline_us = 10_000.0;

    println!(
        "== open-loop load sweep: {n_requests} Poisson long-tail requests, \
         4 streams, SLO {slo_deadline_us} us =="
    );
    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>12} {:>8}",
        "configuration", "gap (us)", "p50 (us)", "p99 (us)", "queue (us)", "shed %"
    );
    let mut rows = Vec::new();
    for (bname, backend) in backends {
        for (pname, policy) in &policies {
            for &gap in &gaps_us {
                let stream = WorkloadSpec::long_tail(gap).stream(model, n_requests, 42);
                let config = ServeConfig {
                    streams: 4,
                    policy: *policy,
                    slo_deadline_us: Some(slo_deadline_us),
                    closed_loop: false,
                    hot_shard_cap: None,
                };
                let report = ShardedServeRuntime::single_device(model, arch, config, *backend)
                    .serve(&stream)
                    .unwrap();
                println!(
                    "{:<28} {:>10.0} {:>12.1} {:>12.1} {:>12.1} {:>8.1}",
                    format!("{bname} {pname}"),
                    gap,
                    report.percentile_us(0.5),
                    report.percentile_us(0.99),
                    report.mean_queue_us(),
                    report.shed_rate() * 100.0
                );
                rows.push(SweepRow {
                    backend: bname.to_string(),
                    policy: pname.to_string(),
                    gap_us: gap,
                    p50_us: report.percentile_us(0.5),
                    p99_us: report.percentile_us(0.99),
                    mean_queue_us: report.mean_queue_us(),
                    shed_rate: report.shed_rate(),
                });
            }
        }
        println!();
    }
    println!(
        "(dynamic batching trades queueing delay for fewer launches; splitting \
         caps per-kernel residency so the tail shares the device fairly)"
    );
    rows
}

fn main() {
    let opts = CliOpts::from_args();
    let scale = Scale::from_env();
    let arch = GpuArch::v100();
    let model = scale.model(ModelPreset::A);
    let history = Dataset::synthesize(&model, 3, scale.batch_size, 7);
    let engine = RecFlexEngine::tune(&model, &history, &arch, &TunerConfig::fast());
    let torchrec = TorchRecBackend::compile(&model);
    let tensorflow = TensorFlowBackend;

    let closed_loop = closed_loop_table(&model, &arch, &engine, &torchrec);

    let backends: Vec<(&str, &dyn Backend)> = vec![
        ("RecFlex", &engine),
        ("TorchRec", &torchrec),
        ("TensorFlow", &tensorflow),
    ];
    // Keep the sweep proportional to the configured scale so the smoke
    // run in CI stays fast while a full run gets a denser stream.
    let n_requests = (scale.eval_batches * 16).clamp(24, 96);
    let load_sweep = load_sweep(&model, &arch, &backends, n_requests);

    opts.write_json(&SimReport {
        model: model.name.clone(),
        num_features: model.features.len(),
        closed_loop,
        load_sweep,
    });
}
