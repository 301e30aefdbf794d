//! `recflex_perf` — host time and simulated serving quality of the
//! RecFlex stack, per workload, with a traced per-layer breakdown.
//!
//! ```text
//! recflex_perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!              [--trace-out DIR] [--json FILE]
//! recflex_perf compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! With `--workload`, one workload runs in this process: fresh passes
//! (set-up, then the main phase) repeat until `--seconds` have elapsed,
//! and host-clock metrics are medians over the passes. `--trace 1` adds
//! one traced pass whose per-layer breakdown replaces the end-to-end
//! metrics in the final result line (and is written as a Chrome trace
//! under `--trace-out`). Without `--workload`, every workload runs in a
//! child process of its own, one after another. `--json` appends one
//! record per run to a JSON-lines result set, which `compare` reads.
//!
//! Correctness checks always run; a failed check makes the result
//! incorrect and the exit code 1. The benchmark refuses hosts other than
//! 64-bit Linux, and hosts with fewer than two cores (exit code 2): its
//! pool runs two worker threads.
//! See README.md in this directory for the workloads and the metrics.

mod compare;
mod metrics;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde_json::Value;

use crate::stats::samples_beyond;
use crate::trace::Recorder;
use crate::workloads::{run_pass, Pass, Workload, TAIL_Q};

/// Worker threads of the pool every workload runs on.
const POOL_THREADS: usize = 2;
/// Passes a run makes even when `--seconds` elapse sooner.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: recflex_perf [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--trace-out DIR] [--json FILE]\n       \
                     recflex_perf compare PARENT.jsonl CHANGE.jsonl";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    json: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        json: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a finite, non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--json" => args.json = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !trace::SUPPORTED_HOST {
        eprintln!(
            "error: recflex_perf runs on 64-bit Linux only: it reads the process CPU clock and \
             /proc/self/status"
        );
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if nproc < POOL_THREADS {
        eprintln!(
            "error: {nproc} core(s) available; recflex_perf needs at least {POOL_THREADS} so \
             that its {POOL_THREADS}-thread pool measures real parallel execution"
        );
        return ExitCode::from(2);
    }
    match args.workload {
        Some(w) => run_workload(w, &args, nproc),
        None => run_all(&args),
    }
}

/// Every workload in a child process of its own, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(dir) = &args.trace_out {
            cmd.arg("--trace-out").arg(dir);
        }
        if let Some(json) = &args.json {
            cmd.arg("--json").arg(json);
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{}: exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: could not start: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What one run of a workload measured.
struct Run {
    passes: Vec<Pass>,
    traced: Option<Pass>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    elapsed_s: f64,
    /// Peak resident set once the first pass has finished, MB.
    peak_rss_mb: f64,
    /// Host speed relative to the reference host, sampled before the
    /// first pass and after each pass.
    speed_samples: Vec<f64>,
}

/// Passes until `seconds` have elapsed (at least [`MIN_PASSES`]), then
/// the traced pass if asked for, with every correctness check.
fn measure(w: Workload, args: &Args) -> Run {
    let start = Instant::now();
    let mut run = Run {
        passes: Vec::new(),
        traced: None,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        elapsed_s: 0.0,
        peak_rss_mb: 0.0,
        speed_samples: vec![speed::sample()],
    };
    let attempt = |traced: bool, run: &mut Run| -> Option<Pass> {
        run.attempted += w.ops();
        match run_pass(w, args.seed, &Recorder::new(traced)) {
            Ok(p) => {
                run.failures.extend(p.failures.iter().cloned());
                Some(p)
            }
            Err(e) => {
                run.failed += w.ops();
                run.failures.push(e);
                None
            }
        }
    };
    while run.passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        match attempt(false, &mut run) {
            Some(p) => run.passes.push(p),
            None => break,
        }
        if run.passes.len() == 1 {
            run.peak_rss_mb = peak_rss_mb();
        }
        run.speed_samples.push(speed::sample());
    }
    if args.trace && run.failed == 0 {
        run.traced = attempt(true, &mut run);
    }
    run.elapsed_s = start.elapsed().as_secs_f64();

    let Some(first) = run.passes.first() else {
        return run;
    };
    let (digest, tune_digest) = (first.digest, first.totals.tune_digest.finish());
    let reps = run.passes.iter().chain(&run.traced);
    if reps.clone().any(|p| p.digest != digest) {
        run.failures
            .push("report digest differs between passes of one seed (traced or untraced)".into());
    }
    if reps
        .clone()
        .any(|p| p.totals.tune_digest.finish() != tune_digest)
    {
        run.failures.push(
            "tuning decisions differ between passes; the staged tuner of the traced pass \
             must match tune_two_stage on choices, occupancy and evaluations"
                .into(),
        );
    }
    run
}

fn run_workload(w: Workload, args: &Args, nproc: usize) -> ExitCode {
    let unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let pool = rayon::ThreadPool::new(POOL_THREADS);
    let run = pool.install(|| measure(w, args));

    let mut all: Vec<(&str, f64)> = Vec::new();
    let mut reported: Vec<(&str, f64)> = Vec::new();
    let host_speed = stats::median(&run.speed_samples);
    let pass_speeds = speed::per_pass(&run.speed_samples);
    if !run.passes.is_empty() {
        let e2e = metrics::end_to_end(&run.passes, &pass_speeds, run.peak_rss_mb);
        all.extend(&e2e);
        reported = e2e;
    }
    if let Some(traced) = &run.traced {
        let layers = metrics::per_layer(
            traced,
            &run.passes,
            &pass_speeds,
            host_speed,
            w != Workload::TuneKernel,
        );
        all.extend(&layers);
        reported = layers;
        if let Some(dir) = &args.trace_out {
            if let Err(e) = write_trace(dir, w, args.seed, traced) {
                eprintln!("error: writing the trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if reported.is_empty() {
        for f in &run.failures {
            eprintln!("FAILED: {f}");
        }
        return ExitCode::FAILURE;
    }

    println!(
        "== recflex_perf {}: seed {}, {} passes{} in {:.1} s, {} pool threads, nproc {}, \
         host speed {:.3} ==",
        w.name(),
        args.seed,
        run.passes.len(),
        if run.traced.is_some() {
            " + 1 traced"
        } else {
            ""
        },
        run.elapsed_s,
        pool.current_num_threads(),
        nproc,
        host_speed
    );
    if let Some(p) = run.passes.first() {
        let n = p.sim.samples;
        println!(
            "  simulated latency over {n} samples; {} beyond p95 (at least {} support it)",
            samples_beyond(n, TAIL_Q),
            stats::TAIL_BEYOND
        );
    }
    for (name, value) in &all {
        println!("  {name:<34} {value:>16.6} {}", metrics::unit_of(name));
    }
    for f in &run.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = run.failures.is_empty();
    let provenance = Value::Obj(vec![
        ("workload".into(), Value::Str(w.name().into())),
        ("seed".into(), Value::UInt(args.seed)),
        ("nproc".into(), Value::UInt(nproc as u64)),
        (
            "pool_threads".into(),
            Value::UInt(pool.current_num_threads() as u64),
        ),
        ("passes".into(), Value::UInt(run.passes.len() as u64)),
        ("host_speed".into(), Value::Float(host_speed)),
        (
            "rustc".into(),
            Value::Str(command_line(Command::new("rustc").arg("-V"))),
        ),
        ("git_commit".into(), Value::Str(git_commit())),
        ("unix_ms".into(), Value::UInt(unix_ms)),
    ]);
    let result = |metrics: &[(&str, f64)]| {
        vec![
            ("correct".to_string(), Value::Bool(correct)),
            ("attempted".to_string(), Value::UInt(run.attempted)),
            ("failed".to_string(), Value::UInt(run.failed)),
            (
                "metrics".to_string(),
                Value::Obj(
                    metrics
                        .iter()
                        .map(|&(name, value)| {
                            let unit = Value::Str(metrics::unit_of(name).into());
                            let v = Value::Obj(vec![
                                ("value".into(), Value::Float(value)),
                                ("unit".into(), unit),
                            ]);
                            (name.to_string(), v)
                        })
                        .collect(),
                ),
            ),
        ]
    };
    if let Some(path) = &args.json {
        let mut record = vec![
            ("workload".to_string(), Value::Str(w.name().into())),
            ("trace".to_string(), Value::Bool(run.traced.is_some())),
            ("provenance".to_string(), provenance.clone()),
        ];
        record.extend(result(&all));
        if let Err(e) = append_line(path, &Value::Obj(record)) {
            eprintln!("error: appending to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        to_json(&Value::Obj(vec![("provenance".into(), provenance)]))
    );
    println!("{}", to_json(&Value::Obj(result(&reported))));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn to_json(v: &Value) -> String {
    serde_json::to_string(v).expect("a value tree always serializes")
}

fn append_line(path: &std::path::Path, v: &Value) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(format!("{}\n", to_json(v)).as_bytes())?;
    f.sync_all()
}

fn write_trace(
    dir: &std::path::Path,
    w: Workload,
    seed: u64,
    traced: &Pass,
) -> std::io::Result<()> {
    let t = traced
        .traced
        .as_ref()
        .expect("a traced pass carries its calls");
    let doc = Value::Obj(vec![("traceEvents".into(), Value::Arr(t.events.clone()))]);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-seed{seed}.trace.json", w.name()));
    std::fs::write(&path, to_json(&doc) + "\n")?;
    println!("trace written to {}", path.display());
    Ok(())
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The first line a command prints, or `unknown`.
fn command_line(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, looking no higher up
/// the tree: a copy of the sources outside a repository reads `unknown`.
fn git_commit() -> String {
    let mut cmd = Command::new("git");
    cmd.args(["rev-parse", "HEAD"]);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command_line(&mut cmd)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse() {
        let a = parse_args(&argv(
            "--workload tune-kernel --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::TuneKernel));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(parse_args(&[]).unwrap().workload, None);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed",
            "--seconds -1",
            "--check",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
