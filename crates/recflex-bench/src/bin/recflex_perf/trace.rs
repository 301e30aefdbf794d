//! Host-time attribution from outside the library.
//!
//! Every measurement here times calls into public functions; no library
//! code is instrumented. A [`Recorder`] times the phases of one pass and,
//! in a traced pass, keeps their spans. There each serving lane's backend
//! is a [`TimedBackend`], which times the real `Backend::run` and keeps a
//! copy of the chunk it served; [`replay`] then re-runs those chunks
//! through the four sub-layers of a fused RecFlex call (workload analysis,
//! task map, launch simulation, functional execution) and times each.
//! Spans export as Chrome trace-event JSON, which Perfetto and
//! `chrome://tracing` open.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use recflex_baselines::{Backend, BackendError, BackendRun};
use recflex_compiler::{BoundFusedKernel, TaskMap};
use recflex_core::RecFlexEngine;
use recflex_data::{Batch, ModelConfig};
use recflex_embedding::{analyze_batch, TableSet};
use recflex_sim::{launch, GpuArch};
use serde_json::Value;

use crate::stats::Fnv;

/// The hosts the benchmark runs on: 64-bit Linux, whose process CPU clock
/// [`process_cpu_s`] reads and whose `/proc/self/status` gives the peak
/// resident set. Elsewhere `main` refuses to run.
pub const SUPPORTED_HOST: bool = cfg!(all(target_os = "linux", target_pointer_width = "64"));

/// Host CPU seconds this process has consumed, all threads together.
/// Stolen time (a hypervisor running other guests on this CPU) is not
/// charged to it, so CPU time sits beside wall-clock as the quieter of the
/// two host clocks.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points to a live, aligned `Timespec`; on 64-bit Linux
    // that struct is two 64-bit integers, as declared here.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "Linux always provides the process CPU clock");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_s() -> f64 {
    unreachable!("recflex_perf refuses hosts other than 64-bit Linux")
}

/// A point on both host clocks.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    wall: Instant,
    cpu_s: f64,
}

impl Mark {
    pub fn now() -> Self {
        Mark {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }

    /// CPU seconds since the mark.
    pub fn cpu_elapsed(&self) -> f64 {
        process_cpu_s() - self.cpu_s
    }

    /// Wall-clock seconds since the mark.
    pub fn wall_elapsed(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }
}

/// One timed interval, in µs since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub cat: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
    /// Trace row: 0 for pass phases, `1 + 16·stage + shard` for lanes.
    pub tid: u64,
    pub args: Vec<(&'static str, Value)>,
}

/// One backend call captured by a [`TimedBackend`].
pub struct Call {
    pub stage: usize,
    pub shard: usize,
    /// Wall-clock interval, for the trace.
    pub start_us: f64,
    pub dur_us: f64,
    /// CPU µs the call consumed.
    pub cpu_us: f64,
    /// CPU µs spent copying the chunk for the replay: tracing overhead,
    /// kept out of every layer's time.
    pub copy_us: f64,
    /// The simulated latency the call returned, which the replay must
    /// reproduce bit for bit.
    pub latency_us: f64,
    pub engine: Arc<RecFlexEngine>,
    pub chunk: Batch,
}

/// Accumulated host CPU time of one pass, by phase.
#[derive(Debug, Default, Clone)]
pub struct Totals {
    /// CPU seconds inside engine tuning.
    pub tune_s: f64,
    /// Tuner stages (traced passes tune stage by stage).
    pub tuner_context_s: f64,
    pub tuner_local_s: f64,
    pub tuner_global_s: f64,
    pub tuner_evaluations: u64,
    /// Digest of every tuning decision made in the pass.
    pub tune_digest: Fnv,
    /// Tier construction outside the backends: sub-models and tables.
    pub tables_s: f64,
    /// Request-stream or evaluation-set generation.
    pub stream_gen_s: f64,
}

/// Phase spans and totals of one pass. Shared by reference with the
/// closures that build serving lanes, hence the interior mutability.
pub struct Recorder {
    pub traced: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    calls: Arc<Mutex<Vec<Call>>>,
    pub totals: RefCell<Totals>,
}

impl Recorder {
    pub fn new(traced: bool) -> Self {
        Recorder {
            traced,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            calls: Arc::new(Mutex::new(Vec::new())),
            totals: RefCell::new(Totals::default()),
        }
    }

    /// `t` in µs since the recorder's epoch.
    pub fn offset_us(&self, t: Mark) -> f64 {
        t.wall.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Close the phase that began at `start`: return the CPU seconds it
    /// consumed and, in a traced pass, record its wall-clock span.
    pub fn phase(&self, name: &str, cat: &'static str, start: Mark) -> f64 {
        let cpu_s = start.cpu_elapsed();
        if !self.traced {
            return cpu_s;
        }
        self.spans.borrow_mut().push(Span {
            name: name.to_string(),
            cat,
            start_us: self.offset_us(start),
            dur_us: start.wall_elapsed() * 1e6,
            tid: 0,
            args: vec![("cpu_ms", Value::Float(cpu_s * 1e3))],
        });
        cpu_s
    }

    /// The backend a lane serves with: the engine itself, or — traced —
    /// the engine behind a [`TimedBackend`].
    pub fn lane_backend(
        &self,
        engine: RecFlexEngine,
        stage: usize,
        shard: usize,
    ) -> Box<dyn Backend> {
        if !self.traced {
            return Box::new(engine);
        }
        Box::new(TimedBackend {
            engine: Arc::new(engine),
            stage,
            shard,
            epoch: self.epoch,
            calls: Arc::clone(&self.calls),
        })
    }

    /// Take the backend calls captured so far.
    pub fn take_calls(&self) -> Vec<Call> {
        std::mem::take(&mut *self.calls.lock().expect("no call recorder panics"))
    }

    /// Every span of the pass plus one per captured call, as Chrome
    /// trace events.
    pub fn chrome_events(&self, workload: &str, calls: &[Call], replay: &[Span]) -> Vec<Value> {
        let spans = self.spans.borrow();
        let call_spans = calls.iter().map(|c| Span {
            name: "Backend::run".to_string(),
            cat: "core",
            start_us: c.start_us,
            dur_us: c.dur_us,
            tid: 1 + 16 * c.stage as u64 + c.shard as u64,
            args: vec![
                ("stage", Value::UInt(c.stage as u64)),
                ("shard", Value::UInt(c.shard as u64)),
                ("samples", Value::UInt(u64::from(c.chunk.batch_size))),
            ],
        });
        spans
            .iter()
            .cloned()
            .chain(call_spans)
            .chain(replay.iter().cloned())
            .map(|s| {
                let mut args = vec![("workload".to_string(), Value::Str(workload.to_string()))];
                args.extend(s.args.into_iter().map(|(k, v)| (k.to_string(), v)));
                Value::Obj(vec![
                    ("name".to_string(), Value::Str(s.name)),
                    ("cat".to_string(), Value::Str(s.cat.to_string())),
                    ("ph".to_string(), Value::Str("X".to_string())),
                    ("ts".to_string(), Value::Float(s.start_us)),
                    ("dur".to_string(), Value::Float(s.dur_us)),
                    ("pid".to_string(), Value::UInt(1)),
                    ("tid".to_string(), Value::UInt(s.tid)),
                    ("args".to_string(), Value::Obj(args)),
                ])
            })
            .collect()
    }
}

/// A transparent timing decorator over a tuned engine: delegates to the
/// engine's own `Backend::run`, records the call's host interval and keeps
/// a copy of the chunk for [`replay`]. The copy is timed on its own, so it
/// can be kept out of both the backend's and the serving layer's time.
pub struct TimedBackend {
    engine: Arc<RecFlexEngine>,
    stage: usize,
    shard: usize,
    epoch: Instant,
    calls: Arc<Mutex<Vec<Call>>>,
}

impl Backend for TimedBackend {
    fn name(&self) -> &'static str {
        self.engine.name()
    }

    fn supports(&self, model: &ModelConfig) -> bool {
        self.engine.supports(model)
    }

    fn run(
        &self,
        model: &ModelConfig,
        tables: &TableSet,
        batch: &Batch,
        arch: &GpuArch,
    ) -> Result<BackendRun, BackendError> {
        let start = Mark::now();
        let run = Backend::run(&*self.engine, model, tables, batch, arch);
        let cpu_us = start.cpu_elapsed() * 1e6;
        let dur_us = start.wall_elapsed() * 1e6;
        let copy = Mark::now();
        let chunk = batch.clone();
        let call = Call {
            stage: self.stage,
            shard: self.shard,
            start_us: start.wall.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us,
            cpu_us,
            copy_us: copy.cpu_elapsed() * 1e6,
            latency_us: run.as_ref().map_or(f64::NAN, |r| r.latency_us),
            engine: Arc::clone(&self.engine),
            chunk,
        };
        self.calls
            .lock()
            .expect("no call recorder panics")
            .push(call);
        run
    }
}

/// Host CPU seconds per sub-layer of the captured fused calls.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    pub analyze_s: f64,
    pub task_map_s: f64,
    pub launch_s: f64,
    pub execute_s: f64,
    pub lookups: u64,
    /// Calls whose replayed simulated latency differs from the served one.
    pub mismatches: u64,
    pub spans: Vec<Span>,
}

/// Re-run every captured call through `analyze_batch`, `TaskMap::runtime`,
/// `recflex_sim::launch` and `BoundFusedKernel::execute` — the body of
/// `RecFlexEngine`'s `Backend::run` — timing each sub-layer. The replay
/// runs on the engine's own model and tables, which hold the same data as
/// the lane's. Replay spans, as long as each step's CPU time, are laid end
/// to end after `offset_us`.
pub fn replay(calls: &[Call], offset_us: f64) -> Replay {
    let mut out = Replay::default();
    let mut cursor = offset_us;
    for c in calls {
        let e = &*c.engine;
        let mut step = |name: &'static str, secs: f64, total: &mut f64, spans: &mut Vec<Span>| {
            *total += secs;
            spans.push(Span {
                name: name.to_string(),
                cat: "replay",
                start_us: cursor,
                dur_us: secs * 1e6,
                tid: 1 + 16 * c.stage as u64 + c.shard as u64,
                args: Vec::new(),
            });
            cursor += secs * 1e6;
        };
        let t = Mark::now();
        let workloads = analyze_batch(&e.model, &c.chunk);
        step(
            "embedding.analyze_batch",
            t.cpu_elapsed(),
            &mut out.analyze_s,
            &mut out.spans,
        );
        let t = Mark::now();
        let task_map = TaskMap::runtime(&e.object.spec.schedules, &workloads);
        step(
            "compiler.task_map",
            t.cpu_elapsed(),
            &mut out.task_map_s,
            &mut out.spans,
        );
        let bound = BoundFusedKernel {
            obj: &e.object,
            model: &e.model,
            tables: &e.tables,
            batch: &c.chunk,
            workloads,
            task_map,
        };
        let t = Mark::now();
        let report = launch(&bound, &e.arch, &e.object.launch_config());
        step(
            "sim.launch",
            t.cpu_elapsed(),
            &mut out.launch_s,
            &mut out.spans,
        );
        match report {
            Ok(r) if r.latency_us.to_bits() == c.latency_us.to_bits() => {}
            _ => out.mismatches += 1,
        }
        let t = Mark::now();
        std::hint::black_box(bound.execute());
        step(
            "compiler.execute",
            t.cpu_elapsed(),
            &mut out.execute_s,
            &mut out.spans,
        );
        out.lookups += c.chunk.total_lookups();
    }
    out
}
