//! Thread-invariance gate for the sharded tier's parallel work.
//!
//! The tier checks every request's batch and prices every shard of a
//! chunk at once on the vendored-`rayon` pool, and folds the results in
//! order. When two requests are malformed, or two shards' backends fail,
//! the error returned must be the earlier request's or the lower shard's,
//! as a sequential loop would return, at any worker count. The tests run
//! under explicitly sized pools (`install` overrides the process-wide
//! `RECFLEX_THREADS` choice, so one test process covers both counts). That
//! reports replay byte-identically across worker counts is pinned by
//! `pipeline_threads` and by CI's `threads-replay` matrix.

use std::cell::Cell;

use rayon::ThreadPool;
use recflex_baselines::{Backend, BackendError, BackendRun, TorchRecBackend};
use recflex_data::{Batch, ModelConfig, ModelPreset, Placement};
use recflex_embedding::TableSet;
use recflex_serve::{BatchPolicy, ServeConfig, ServeError, ShardedServeRuntime, WorkloadSpec};
use recflex_sim::{GpuArch, Interconnect};

/// The worker counts the CI matrix replays at.
const POOLS: &[usize] = &[1, 4];

/// A backend that refuses every batch with its own message.
struct Failing(&'static str);

impl Backend for Failing {
    fn name(&self) -> &'static str {
        "Failing"
    }

    fn run(
        &self,
        _: &ModelConfig,
        _: &TableSet,
        _: &Batch,
        _: &GpuArch,
    ) -> Result<BackendRun, BackendError> {
        Err(BackendError::Launch(self.0.to_string()))
    }
}

#[test]
fn the_lowest_failing_shard_names_the_error_at_any_thread_count() {
    let m = ModelPreset::A.scaled(0.01);
    let arch = GpuArch::v100();
    let reqs = WorkloadSpec::long_tail(300.0).stream(&m, 8, 42);
    let run = || {
        // `build` calls the factory once per device in device order.
        let built = Cell::new(0);
        let tier = ShardedServeRuntime::build(
            &m,
            &arch,
            Placement::balance(&m, 4),
            ServeConfig {
                streams: 4,
                policy: BatchPolicy::Split { cap: 256 },
                slo_deadline_us: None,
                closed_loop: false,
                hot_shard_cap: None,
            },
            Interconnect::nvlink(),
            |sub| -> Box<dyn Backend> {
                match built.replace(built.get() + 1) {
                    1 => Box::new(Failing("shard 1 refused")),
                    3 => Box::new(Failing("shard 3 refused")),
                    _ => Box::new(TorchRecBackend::compile(sub)),
                }
            },
        );
        tier.serve(&reqs).map(|_| ())
    };
    let expected = Err(ServeError::Backend(BackendError::Launch(
        "shard 1 refused".to_string(),
    )));
    assert_eq!(run(), expected);
    for &n in POOLS {
        assert_eq!(ThreadPool::new(n).install(run), expected, "{n} workers");
    }
}

#[test]
fn the_first_malformed_request_names_the_error_at_any_thread_count() {
    let m = ModelPreset::A.scaled(0.01);
    let arch = GpuArch::v100();
    let mut reqs = WorkloadSpec::long_tail(300.0).stream(&m, 8, 42);
    // Request 2 looks up a row past its table; request 5, later, arrives
    // at NaN. Checked one after another, request 2 fails first.
    let f = (0..m.features.len())
        .find(|&f| !reqs[2].batch.features[f].indices.is_empty())
        .expect("request 2 looks up some row");
    reqs[2].batch.features[f].indices[0] = m.features[f].table_rows;
    reqs[5].arrival_us = f64::NAN;
    let run = || {
        let tier = ShardedServeRuntime::build(
            &m,
            &arch,
            Placement::balance(&m, 2),
            ServeConfig {
                streams: 2,
                policy: BatchPolicy::Split { cap: 256 },
                slo_deadline_us: None,
                closed_loop: false,
                hot_shard_cap: None,
            },
            Interconnect::nvlink(),
            |sub| -> Box<dyn Backend> { Box::new(TorchRecBackend::compile(sub)) },
        );
        tier.serve(&reqs).map(|_| ())
    };
    let expected = Err(ServeError::Request {
        id: reqs[2].id,
        reason: format!(
            "feature {f}: index {} out of table range {}",
            m.features[f].table_rows, m.features[f].table_rows
        ),
    });
    assert_eq!(run(), expected);
    for &n in POOLS {
        assert_eq!(ThreadPool::new(n).install(run), expected, "{n} workers");
    }
}
