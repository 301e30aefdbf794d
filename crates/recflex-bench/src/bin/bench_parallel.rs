//! Parallelism trajectory: wall-clock of the repo's two hottest parallel
//! paths at 1/2/4/8 pool threads, with a bit-stability proof.
//!
//! The vendored `rayon` work-stealing pool promises two things at once:
//! real speedups on multi-core hosts, and byte-identical outputs at any
//! thread count. This binary measures both on
//!
//! * **tuning_sweep** — `RecFlexEngine::tune` on the Model-A fixture (the
//!   paper's per-feature candidate sweep, the workload RecFlex farms over
//!   eight GPUs), and
//! * **shard_fanout** — per-device tuning of a 4-shard placement, then
//!   the evaluation set served one request at a time on the sharded tier
//!   (the serving tier's per-device fan-out),
//!
//! each executed under an explicitly sized [`rayon::ThreadPool`] via
//! `install`, so one process compares thread counts directly. Every run
//! folds its results (schedule choices, occupancy, latency bits, and the
//! tuning sweep's pooled output bits) into a digest; **any digest
//! mismatch across thread counts aborts with a non-zero exit even without
//! `--check`** — nondeterminism is never a soft failure.
//!
//! `BENCH_parallel.json` in the repo root records one run at smoke
//! scale. Its wall-clock fields vary with the host, so CI compares only
//! its two digests with a fresh run's, byte for byte.
//!
//! `--check` additionally enforces a speedup floor at 4 threads on each
//! section — tuning sweep ≥ 1.5×, shard fan-out ≥ 0.743× — whenever the
//! host has ≥ 4 cores (or `RECFLEX_REQUIRE_SPEEDUP=1` forces it;
//! single-core hosts cannot express a wall-clock speedup and skip the
//! floors with a notice).

use std::process::ExitCode;
use std::time::Instant;

use recflex_bench::{one_at_a_time_tier, place_and_tune, CliOpts, Fixture, Scale};
use recflex_data::ModelPreset;
use recflex_serve::Request;
use recflex_sim::GpuArch;

/// Thread counts the trajectory sweeps.
const THREADS: &[usize] = &[1, 2, 4, 8];
/// Each section's speedup floor at 4 threads. The tuning sweep must
/// scale; the shard fan-out, whose committed 1-core record is 0.8253×,
/// may lose no more than a tenth of that to pool overhead.
const MIN_SPEEDUP_4T: [(&str, f64); 2] = [("tuning_sweep", 1.5), ("shard_fanout", 0.743)];

#[derive(serde::Serialize)]
struct RunReport {
    threads: usize,
    wall_ms: f64,
}

#[derive(serde::Serialize)]
struct SectionReport {
    name: String,
    /// Fold of the section's results — must be identical on every row.
    digest: String,
    runs: Vec<RunReport>,
    /// `wall(1 thread) / wall(4 threads)` — the tracked, host-normalized
    /// trajectory metric.
    speedup_4t: f64,
}

#[derive(serde::Serialize)]
struct ParallelBenchReport {
    /// Cores available on the generating host (1 ⇒ speedups ≈ 1.0 are
    /// expected and the `--check` floor is waived).
    host_threads: usize,
    reps: usize,
    scale: f64,
    sections: Vec<SectionReport>,
}

/// FNV-1a fold for result digests.
fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x100_0000_01b3)
}

/// Digest of a tuned single-device engine + its evaluation run.
fn tuning_sweep(fixture: &Fixture, scale: &Scale) -> u64 {
    let engine = fixture.tune_recflex(scale);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &c in &engine.tune_result.choices {
        h = fold(h, c as u64);
    }
    h = fold(h, engine.tune_result.occupancy.unwrap_or(0) as u64);
    for (k, lat) in &engine.tune_result.global_latencies {
        h = fold(h, *k as u64);
        h = fold(h, lat.to_bits());
    }
    for batch in fixture.eval.batches().iter().take(2) {
        let (out, report) = engine.run(batch).expect("eval run");
        h = fold(h, report.latency_us.to_bits());
        for v in out.data() {
            h = fold(h, v.to_bits() as u64);
        }
    }
    h
}

/// Digest of the 4-shard tier: each shard's tuned choices plus every
/// evaluation request's latency. Serving is timing-only, so there is no
/// pooled output to fold.
fn shard_fanout(fixture: &Fixture, scale: &Scale) -> u64 {
    let (placement, engines) = place_and_tune(
        &fixture.model,
        &fixture.history,
        &fixture.arch,
        &scale.tuner,
        4,
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for engine in &engines {
        for &c in &engine.tune_result.choices {
            h = fold(h, c as u64);
        }
    }
    let tier = one_at_a_time_tier(
        &fixture.model,
        &fixture.arch,
        placement,
        scale.interconnect.clone(),
        &engines,
    );
    let requests: Vec<Request> = fixture
        .eval
        .batches()
        .iter()
        .enumerate()
        .map(|(i, batch)| Request {
            id: i as u64,
            arrival_us: 0.0,
            batch: batch.clone(),
        })
        .collect();
    let report = tier.serve(&requests).expect("shard serve");
    for record in &report.records {
        h = fold(h, record.base.latency_us().to_bits());
    }
    h
}

/// Time `work` under an `n`-thread pool: `reps` repetitions, best wall
/// time wins (scheduling noise only ever slows a run down).
fn measure(n: usize, reps: usize, work: &dyn Fn() -> u64) -> (u64, f64) {
    let pool = rayon::ThreadPool::new(n);
    let mut digest = None;
    let mut best_ms = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let d = pool.install(work);
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(prev) = digest {
            assert_eq!(prev, d, "digest changed between repetitions");
        }
        digest = Some(d);
    }
    (digest.expect("at least one rep"), best_ms)
}

fn run_section(name: &str, reps: usize, work: &dyn Fn() -> u64) -> Result<SectionReport, String> {
    println!("\n== {name} ==");
    println!("{:>8} {:>12}", "threads", "wall (ms)");
    let mut runs = Vec::new();
    let mut digest: Option<u64> = None;
    for &n in THREADS {
        let (d, wall_ms) = measure(n, reps, work);
        println!("{n:>8} {wall_ms:>12.1}");
        match digest {
            None => digest = Some(d),
            Some(prev) if prev != d => {
                return Err(format!(
                    "{name}: digest {d:016x} at {n} threads != {prev:016x} at 1 thread — \
                     parallel reduction is not deterministic"
                ));
            }
            Some(_) => {}
        }
        runs.push(RunReport {
            threads: n,
            wall_ms,
        });
    }
    let wall_of = |t: usize| {
        runs.iter()
            .find(|r| r.threads == t)
            .map(|r| r.wall_ms)
            .expect("swept thread count")
    };
    let speedup_4t = wall_of(1) / wall_of(4);
    println!(
        "speedup at 4 threads: {speedup_4t:.2}x  (digest {:016x})",
        digest.unwrap()
    );
    Ok(SectionReport {
        name: name.to_string(),
        digest: format!("{:016x}", digest.unwrap()),
        runs,
        speedup_4t,
    })
}

fn main() -> ExitCode {
    let opts = CliOpts::from_args();
    let scale = Scale::from_env();
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps: usize = std::env::var("RECFLEX_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);

    println!("parallelism trajectory: host has {host_threads} core(s), {reps} rep(s) per cell");
    let arch = GpuArch::v100();
    let fixture = Fixture::prepare(ModelPreset::A, &arch, &scale);

    let mut sections = Vec::new();
    for (name, work) in [
        (
            "tuning_sweep",
            Box::new(|| tuning_sweep(&fixture, &scale)) as Box<dyn Fn() -> u64>,
        ),
        ("shard_fanout", Box::new(|| shard_fanout(&fixture, &scale))),
    ] {
        match run_section(name, reps, work.as_ref()) {
            Ok(s) => sections.push(s),
            Err(e) => {
                eprintln!("FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = ParallelBenchReport {
        host_threads,
        reps,
        scale: scale.model_frac,
        sections,
    };
    opts.write_json(&report);

    if opts.check {
        let require =
            host_threads >= 4 || std::env::var("RECFLEX_REQUIRE_SPEEDUP").is_ok_and(|v| v == "1");
        if !require {
            println!(
                "check: speedup floors skipped — {host_threads} core(s) cannot express a \
                 wall-clock speedup (set RECFLEX_REQUIRE_SPEEDUP=1 to force)"
            );
            return ExitCode::SUCCESS;
        }
        for (name, floor) in MIN_SPEEDUP_4T {
            let section = report
                .sections
                .iter()
                .find(|s| s.name == name)
                .expect("every floored section runs");
            if section.speedup_4t < floor {
                eprintln!(
                    "check FAILED: {name} speedup at 4 threads is {:.2}x, below the \
                     {floor}x floor",
                    section.speedup_4t
                );
                return ExitCode::FAILURE;
            }
        }
        println!(
            "check passed: speedups at 4 threads hold their floors {MIN_SPEEDUP_4T:?}, \
             digests bit-identical across {THREADS:?} threads"
        );
    }
    ExitCode::SUCCESS
}
