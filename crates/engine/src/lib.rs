//! # edgereasoning-engine
//!
//! A simulated LLM inference engine in the mold of vLLM — the serving stack
//! the paper uses on the Jetson AGX Orin — plus overhead profiles for the
//! Hugging Face Transformers and TRT-LLM alternatives it compares against
//! in Table IX.
//!
//! The engine composes the kernel sequences from `edgereasoning-kernels`
//! into complete generations on the simulated SoC:
//!
//! * [`request::GenerationRequest`] — prompt length, output budget, batch.
//! * [`kv_cache::KvCacheManager`] — a paged KV-cache allocator with
//!   real memory accounting against the Orin's 64 GB (requests that do not
//!   fit fail with [`EngineError::OutOfMemory`]).
//! * [`engine::InferenceEngine`] — runs prefill (one GEMM-shaped pass) and
//!   decode (chunked autoregressive steps whose context grows token by
//!   token), returning per-phase latency/energy/power/utilization
//!   telemetry ([`outcome::InferenceOutcome`]).
//! * [`stepper::BatchStepper`] — the one execution path: a standalone
//!   [`InferenceEngine::run`](engine::InferenceEngine::run) is one drained
//!   admission into it, and the serving schedulers drive it at
//!   decode-iteration granularity.
//! * Parallel test-time scaling (§V-E): prefill once at batch 1, decode at
//!   batch = scaling factor, with per-sequence host-side sampling overhead
//!   — reproducing the paper's Fig. 10 latency/power/energy behaviour.
//!
//! # Example
//!
//! ```
//! use edgereasoning_engine::engine::{EngineConfig, InferenceEngine};
//! use edgereasoning_engine::request::GenerationRequest;
//! use edgereasoning_kernels::arch::ModelId;
//! use edgereasoning_kernels::dtype::Precision;
//!
//! let mut engine = InferenceEngine::new(EngineConfig::vllm(), 42);
//! let outcome = engine
//!     .run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &GenerationRequest::new(512, 128))?;
//! // Decode dominates (paper takeaway #2).
//! assert!(outcome.decode.latency_s > 10.0 * outcome.prefill.latency_s);
//! # Ok::<(), edgereasoning_engine::EngineError>(())
//! ```

// Production builds carry no unsafe code at all; test builds hold the lint
// at `deny` with one scoped allow for the counting-allocator harness (a
// `GlobalAlloc` impl is inherently unsafe), which exists only under test.
#![cfg_attr(not(test), forbid(unsafe_code))]
#![cfg_attr(test, deny(unsafe_code))]
#![warn(missing_docs)]
// The engine is the hot serving path: misuse must surface as typed errors,
// never as panics (tests keep their expect/unwrap for brevity).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

#[cfg(test)]
#[allow(unsafe_code)]
pub(crate) mod alloc_counter;
#[cfg(test)]
#[global_allocator]
static COUNTING_ALLOC: alloc_counter::CountingAlloc = alloc_counter::CountingAlloc;

/// FNV-1a over a value's `Debug` rendering, the golden-fingerprint idiom of
/// the regression suites: `Debug` prints every field and floats in
/// shortest round-trip form, so equal hashes mean bit-identical values.
#[cfg(test)]
pub(crate) fn fingerprint<T: std::fmt::Debug>(value: &T) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

pub mod arrivals;
pub mod audit;
pub mod cluster;
mod des;
pub mod engine;
pub mod kv_cache;
pub mod outcome;
pub mod plan_cache;
pub mod prefix_cache;
#[cfg(test)]
mod prefix_cache_reference;
pub mod request;
pub mod serving;
#[cfg(test)]
mod serving_reference;
pub mod session;
pub mod stepper;
pub mod telemetry;

pub use arrivals::ArrivalProcess;
pub use audit::{audit_classes, audit_cluster, audit_serving};
pub use cluster::{simulate_cluster, ClusterConfig, ClusterReport, CrashConfig, ReplicaHealth};
pub use engine::{EngineConfig, EngineKind, InferenceEngine, OomPolicy};
pub use kv_cache::{KvCacheManager, KvError, SeqId};
pub use outcome::{InferenceOutcome, TbtSample};
pub use plan_cache::{EngineCounters, PhaseKey, PhaseKind, PhasePlanCache, PhasePlanStore};
pub use prefix_cache::{PrefixCache, PrefixCacheStats};
pub use request::GenerationRequest;
pub use serving::{
    simulate_serving, simulate_serving_continuous, simulate_serving_traffic, simulate_serving_with,
    AdmissionConfig, AdmissionPolicy, ClassBreakdown, ClassReport, Priority, PriorityMix,
    SchedulerKind, ServingConfig, ServingConfigError, ServingReport,
};
pub use session::{
    simulate_serving_sessions, uniform_session_trace, SessionConfig, SessionReport, SessionRequest,
};
pub use stepper::{AdmitOutcome, BatchStepper, FinishedSlot, SlotId, StepOutcome};
pub use telemetry::{Ewma, ServingAccumulator};

/// Canonical alias for the cached, deterministic simulation engine.
pub type SimEngine = InferenceEngine;

/// Errors returned by the simulated engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The model weights plus KV cache exceed device memory.
    OutOfMemory {
        /// Bytes the request needs.
        needed: u64,
        /// Bytes available after weights.
        available: u64,
    },
    /// A request parameter was invalid (e.g. zero-length prompt).
    InvalidRequest(String),
    /// The KV-cache allocator was misused (internal invariant breach).
    Kv(kv_cache::KvError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::OutOfMemory { needed, available } => write!(
                f,
                "out of device memory: need {needed} B of KV cache, {available} B available"
            ),
            EngineError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            EngineError::Kv(err) => write!(f, "kv-cache misuse: {err}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<kv_cache::KvError> for EngineError {
    fn from(err: kv_cache::KvError) -> Self {
        EngineError::Kv(err)
    }
}
