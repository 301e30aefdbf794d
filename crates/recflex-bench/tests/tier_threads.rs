//! Thread-invariance gate for the sharded tier's parallel shard pricing.
//!
//! The tier prices every shard of a chunk at once on the vendored-`rayon`
//! pool and folds the results in shard order. When two shards' backends
//! fail, the error returned must be the lower shard's, as a sequential
//! loop would return, at any worker count. The test runs under explicitly
//! sized pools (`install` overrides the process-wide `RECFLEX_THREADS`
//! choice, so one test process covers both counts). That reports replay
//! byte-identically across worker counts is pinned by `pipeline_threads`
//! and by CI's `threads-replay` matrix.

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
