//! The serving configuration shared by every tier.
//!
//! The event loop itself lives in [`crate::sharded`]: a single-GPU
//! deployment is a 1-shard [`ShardedServeRuntime`](crate::ShardedServeRuntime).
//! This module holds what every tier is configured and judged with: the
//! batching policy, the run configuration, the retuner's return type and
//! the error a run can fail with.

use recflex_baselines::{Backend, BackendError};

use crate::lifecycle::EngineTuning;

/// How the runtime shapes request batches before launching them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchPolicy {
    /// Forward every request as one device batch (DeepRecSys-style,
    /// Section VI-D: long-tail requests hit the device whole).
    Unsplit,
    /// Split requests into chunks of at most `cap` samples (the
    /// industrial practice of Section VI-D).
    Split {
        /// Maximum chunk size, samples (≥ 1).
        cap: u32,
    },
    /// Dynamic batching: coalesce small requests into one device batch
    /// up to `max_batch` samples, flushing when the batch fills, when
    /// the oldest member has waited `max_wait_us`, or as soon as the
    /// device goes idle (the batcher is work-conserving — it never
    /// holds work while the device has nothing to do). Oversized
    /// requests are split into chunks of at most `max_batch`.
    Dynamic {
        /// Target coalesced batch size, samples (≥ 1).
        max_batch: u32,
        /// Longest a request may wait in the batcher, µs.
        max_wait_us: f64,
    },
    /// [`BatchPolicy::Dynamic`] with padding-free partial merges: when a
    /// request straddles the `max_batch` boundary, the head samples top
    /// the open batch off to *exactly* `max_batch` and the tail rolls
    /// into the next coalesced batch ([`recflex_data::Batch::split`]
    /// wired into the merge path). `Dynamic` instead flushes the open
    /// batch short and starts the request fresh — tight packing costs a
    /// request a second chunk boundary, so it is opt-in and `Dynamic`
    /// keeps the old behavior bit-for-bit.
    DynamicPacked {
        /// Exact coalesced batch size to fill, samples (≥ 1).
        max_batch: u32,
        /// Longest a request may wait in the batcher, µs.
        max_wait_us: f64,
    },
}

/// Static configuration of one serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Concurrent device streams (kernels resident at once).
    pub streams: u32,
    /// Batch shaping policy.
    pub policy: BatchPolicy,
    /// SLO deadline, µs: a request arriving while the device backlog
    /// already exceeds this is shed immediately (it could not possibly
    /// finish in time). `None` admits everything; NaN is rejected at run
    /// start. A mitigated tier derives its hedge and degradation-ladder
    /// thresholds from it
    /// ([`ShardedServeRuntime::mitigated`](crate::ShardedServeRuntime::mitigated))
    /// and must set it.
    pub slo_deadline_us: Option<f64>,
    /// Closed-loop mode: ignore arrival timestamps and admit each
    /// request the moment the previous one fully finished (every chunk
    /// retired, gathers included), so one request is in flight at a time.
    /// Open-loop (`false`) replays the stream's own arrival times.
    pub closed_loop: bool,
    /// Straggler cap: chunks bigger than this are re-split into
    /// sub-chunks of at most `cap` samples *after* the batching policy
    /// shapes them, narrowing the per-chunk work the hottest shard gates
    /// on. `Some(0)` is rejected at run start. `None` (the default)
    /// reproduces the un-capped tier bit-for-bit. On a 1-shard tier a
    /// cap only adds chunk boundaries.
    pub hot_shard_cap: Option<u32>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            streams: 4,
            policy: BatchPolicy::Unsplit,
            slo_deadline_us: None,
            closed_loop: false,
            hot_shard_cap: None,
        }
    }
}

/// What a retuner hands back: the freshly tuned backend, plus how the
/// tuning was produced when it went through the profile vault. Plain
/// retuners convert a bare backend with `.into()` — accounting stays
/// opt-in and the no-vault path is unchanged.
pub struct TunedCandidate {
    /// The freshly tuned backend.
    pub backend: Box<dyn Backend>,
    /// Vault accounting (warm start, evaluation count), if reported.
    pub tuning: Option<EngineTuning>,
}

impl From<Box<dyn Backend>> for TunedCandidate {
    fn from(backend: Box<dyn Backend>) -> Self {
        TunedCandidate {
            backend,
            tuning: None,
        }
    }
}

/// Why a serving run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The active backend refused a chunk.
    Backend(BackendError),
    /// The configuration is unusable (e.g. a zero batch cap).
    Policy(&'static str),
    /// A request does not fit what serves it: its batch fails
    /// [`recflex_data::Batch::validate`] against the served model, its
    /// arrival time is not finite, or a fleet arrival names a scenario no
    /// member serves. Nothing was served.
    Request {
        /// The offending request's id.
        id: u64,
        /// Why the request was rejected.
        reason: String,
    },
    /// The event schedule reached a state that should be unreachable
    /// (e.g. a completion for a chunk nobody owns). Surfaced as an error
    /// so a malformed schedule degrades instead of aborting the process.
    Internal(&'static str),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Backend(e) => write!(f, "backend error: {e}"),
            ServeError::Policy(m) => write!(f, "invalid serving policy: {m}"),
            ServeError::Request { id, reason } => write!(f, "malformed request {id}: {reason}"),
            ServeError::Internal(m) => write!(f, "inconsistent event schedule: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<BackendError> for ServeError {
    fn from(e: BackendError) -> Self {
        ServeError::Backend(e)
    }
}
