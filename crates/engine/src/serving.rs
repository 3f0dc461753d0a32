//! Multi-query serving simulation (§III-B: "edge deployment costs also
//! benefit from batching and increased queries per second").
//!
//! A single device serving one queue: queries arrive from an
//! [`ArrivalProcess`], the engine admits up to `max_batch` of them, and
//! the report captures throughput, queueing latency percentiles, and
//! energy per query — quantifying how request rate turns into the batch-30
//! cost advantage of Table III.
//!
//! There is one serving loop: the device runs as the one calm replica of
//! the fleet event loop in [`crate::cluster`], which steps the incremental
//! [`BatchStepper`](crate::stepper::BatchStepper) one decode iteration at a
//! time. [`SchedulerKind`] picks one of its two admission rules:
//!
//! * **Static** ([`simulate_serving`]) — gang scheduling: a busy device
//!   has no room, so every admitted batch runs to completion before the
//!   next admission.
//! * **Continuous** ([`simulate_serving_continuous`],
//!   [`simulate_serving_traffic`]) — iteration-level batching: new
//!   queries join the running batch at the next decode-iteration boundary
//!   instead of waiting for it to drain (vLLM's continuous batching).
//!
//! With arrivals spaced past batch completion the device is idle at every
//! admission, so the two rules admit the same batches and produce the same
//! report bit-exactly (see DESIGN.md §9).
//!
//! This module owns the policy the loop applies: the configs, the
//! admission controller and the degradation ladder.
//!
//! # Degraded-mode serving
//!
//! Beyond the happy path, both rules support the robustness controls an
//! edge deployment needs when the platform misbehaves (see `soc::faults`):
//!
//! * **deadlines** — queries that can no longer meet their deadline are
//!   shed at admission instead of wasting GPU time; completed-but-late
//!   queries count as deadline misses;
//! * **bounded-queue admission** — when more than `queue_capacity` queries
//!   are waiting, the newest are shed (load shedding);
//! * **retry with exponential backoff** — a batch that fails (e.g. KV OOM
//!   under [`OomPolicy::FailFast`](crate::engine::OomPolicy)) is requeued
//!   up to `max_retries` times instead of aborting the whole simulation;
//! * **a degradation ladder** — under sustained throttling or deadline
//!   misses the loop first halves the admitted batch, then shrinks the
//!   token budget, recovering level by level once conditions clear.
//!
//! Every control defaults *off*. Under either rule the loop sheds at every
//! scheduling boundary (each decode iteration while the device is busy)
//! and moves the degradation level as each batch retires.

use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use serde::{Deserialize, Serialize};

use crate::arrivals::ArrivalProcess;
use crate::cluster::{run_fleet, ClusterConfig, Replica};
use crate::des::{PendingQueue, QKey, Source, Visit};
use crate::engine::InferenceEngine;
use crate::telemetry::Ewma;
use crate::EngineError;

/// Highest degradation-ladder level (batch shrink saturates at `2^-6`).
pub(crate) const MAX_DEGRADE_LEVEL: u32 = 6;

/// Which admission rule the serving loop applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SchedulerKind {
    /// Gang scheduling: a busy device has no room, so admitted batches run
    /// to completion before the next admission.
    #[default]
    Static,
    /// Iteration-level (continuous) batching: queries join the running
    /// [`BatchStepper`](crate::stepper::BatchStepper) batch at every
    /// decode-iteration boundary.
    Continuous,
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerKind::Static => write!(f, "static"),
            SchedulerKind::Continuous => write!(f, "continuous"),
        }
    }
}

/// Request priority class, tagged per query by the workload mix.
/// Interactive outranks Batch outranks Background at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Priority {
    /// Latency-sensitive user-facing traffic (chat turns, robot commands).
    Interactive,
    /// Throughput work with a deadline but slack (summarization jobs).
    Batch,
    /// Best-effort work that tolerates arbitrary delay (indexing, evals).
    Background,
}

impl Priority {
    /// Every class, in admission-rank order (highest priority first).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Batch, Priority::Background];

    /// Dense index, also the admission rank (lower admits first).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::Background => 2,
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Priority::Interactive => write!(f, "interactive"),
            Priority::Batch => write!(f, "batch"),
            Priority::Background => write!(f, "background"),
        }
    }
}

/// Traffic composition over the priority classes. The Background fraction
/// is the remainder `1 - interactive - batch`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriorityMix {
    /// Fraction of queries tagged [`Priority::Interactive`].
    pub interactive: f64,
    /// Fraction tagged [`Priority::Batch`].
    pub batch: f64,
}

impl PriorityMix {
    /// Everything Interactive (the degenerate single-class mix).
    pub const INTERACTIVE_ONLY: PriorityMix = PriorityMix {
        interactive: 1.0,
        batch: 0.0,
    };

    /// The canonical mixed-criticality edge mix used by the overload
    /// study: 20% interactive, 50% batch, 30% background.
    pub const EDGE_MIX: PriorityMix = PriorityMix {
        interactive: 0.2,
        batch: 0.5,
    };

    /// Deterministically tags arrival `seq` with a class.
    ///
    /// Uses a SplitMix64 finalizer over `(seed, seq)` rather than the
    /// arrival RNG, so turning tagging on cannot perturb the arrival
    /// schedule (the tag stream is independent of every other draw).
    #[must_use]
    pub fn class_of(&self, seed: u64, seq: u64) -> Priority {
        let mut z = seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.interactive {
            Priority::Interactive
        } else if u < self.interactive + self.batch {
            Priority::Batch
        } else {
            Priority::Background
        }
    }
}

/// How tagged traffic is admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Plain arrival-order admission with the blunt deadline/capacity
    /// sheds. Classes are tagged and *reported* but never influence a
    /// decision — bit-identical to running with no admission config.
    Fifo,
    /// Cost-based priority admission: class-rank-first selection,
    /// per-class token buckets, predicted-KV-cost and deadline-slack
    /// guards, and CoDel-style queue aging.
    Priority,
}

/// Priority-class admission-control configuration. Per-class arrays are
/// indexed by [`Priority::index`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// The admission policy.
    pub policy: AdmissionPolicy,
    /// Traffic composition used for tagging.
    pub mix: PriorityMix,
    /// Tagging lane, hashed with each query's sequence number
    /// (independent of the arrival seed).
    pub class_seed: u64,
    /// Token-bucket refill rate per class, admissions/s
    /// (`INFINITY` = unmetered).
    pub rate_qps: [f64; 3],
    /// Token-bucket capacity per class, admissions (`INFINITY` =
    /// unbounded; at least one token otherwise).
    pub burst: [f64; 3],
    /// CoDel-style queue-aging target per class, seconds: a query waiting
    /// longer is shed instead of poisoning the queue (`INFINITY` = never).
    pub age_target_s: [f64; 3],
    /// Rejects admissions whose predicted KV need exceeds free KV.
    pub kv_guard: bool,
    /// Sheds queries whose predicted completion would already blow the
    /// deadline (no slack left).
    pub slack_guard: bool,
}

impl AdmissionConfig {
    /// Tag-and-report-only FIFO: every control inert, decisions
    /// bit-identical to `admission: None`.
    #[must_use]
    pub fn fifo(mix: PriorityMix, class_seed: u64) -> Self {
        Self {
            policy: AdmissionPolicy::Fifo,
            mix,
            class_seed,
            rate_qps: [f64::INFINITY; 3],
            burst: [f64::INFINITY; 3],
            age_target_s: [f64::INFINITY; 3],
            kv_guard: false,
            slack_guard: false,
        }
    }

    /// Priority admission with the cost guards on and buckets unmetered.
    #[must_use]
    pub fn priority(mix: PriorityMix, class_seed: u64) -> Self {
        Self {
            policy: AdmissionPolicy::Priority,
            mix,
            class_seed,
            rate_qps: [f64::INFINITY; 3],
            burst: [f64::INFINITY; 3],
            age_target_s: [f64::INFINITY; 3],
            kv_guard: true,
            slack_guard: true,
        }
    }

    /// Meters one class with a token bucket, builder-style.
    #[must_use]
    pub fn with_rate(mut self, class: Priority, rate_qps: f64, burst: f64) -> Self {
        self.rate_qps[class.index()] = rate_qps;
        self.burst[class.index()] = burst;
        self
    }

    /// Sets one class's queue-aging target, builder-style.
    #[must_use]
    pub fn with_age_target(mut self, class: Priority, target_s: f64) -> Self {
        self.age_target_s[class.index()] = target_s;
        self
    }
}

/// A rejected [`ServingConfig`] field (typed, so callers can match instead
/// of parsing strings — NaN arrival rates used to slip through and poison
/// every downstream average).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServingConfigError {
    /// `arrival_qps` was NaN or infinite.
    NonFiniteArrivalQps,
    /// `arrival_qps` was zero or negative.
    NonPositiveArrivalQps,
    /// `max_batch` was zero.
    ZeroMaxBatch,
    /// `queries` was zero.
    ZeroQueries,
    /// `prompt_tokens` was zero.
    ZeroPromptTokens,
    /// `output_tokens` was zero.
    ZeroOutputTokens,
    /// `deadline_s` was set but non-finite, zero or negative.
    InvalidDeadline,
    /// `retry_backoff_s` was non-finite or negative.
    InvalidRetryBackoff,
    /// An admission mix fraction was NaN, negative, or summed past 1.
    InvalidAdmissionMix,
    /// An admission token-bucket rate was NaN or negative.
    InvalidAdmissionRate,
    /// An admission token-bucket burst was NaN, negative, or below one
    /// token (a bucket that can never admit anything).
    InvalidAdmissionBurst,
    /// An admission queue-aging target was NaN, zero or negative.
    InvalidAdmissionAge,
}

impl std::fmt::Display for ServingConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFiniteArrivalQps => write!(f, "arrival_qps must be finite"),
            Self::NonPositiveArrivalQps => write!(f, "arrival_qps must be positive"),
            Self::ZeroMaxBatch => write!(f, "max_batch must be positive"),
            Self::ZeroQueries => write!(f, "queries must be positive"),
            Self::ZeroPromptTokens => write!(f, "prompt_tokens must be positive"),
            Self::ZeroOutputTokens => write!(f, "output_tokens must be positive"),
            Self::InvalidDeadline => write!(f, "deadline_s must be finite and positive when set"),
            Self::InvalidRetryBackoff => {
                write!(f, "retry_backoff_s must be finite and non-negative")
            }
            Self::InvalidAdmissionMix => {
                write!(
                    f,
                    "admission mix fractions must be non-negative and sum to at most 1"
                )
            }
            Self::InvalidAdmissionRate => {
                write!(
                    f,
                    "admission rate_qps must be non-negative (INFINITY = unmetered)"
                )
            }
            Self::InvalidAdmissionBurst => {
                write!(f, "admission burst must be at least one token")
            }
            Self::InvalidAdmissionAge => {
                write!(
                    f,
                    "admission age_target_s must be positive (INFINITY = never)"
                )
            }
        }
    }
}

impl std::error::Error for ServingConfigError {}

/// Serving-load configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Mean arrival rate, queries per second.
    pub arrival_qps: f64,
    /// Maximum decode batch admitted per generation.
    pub max_batch: usize,
    /// Queries to simulate.
    pub queries: usize,
    /// Prompt tokens per query.
    pub prompt_tokens: usize,
    /// Output tokens per query.
    pub output_tokens: usize,
    /// Per-query completion deadline, seconds from arrival (`None` = no
    /// SLO: nothing is shed and nothing counts as a miss).
    pub deadline_s: Option<f64>,
    /// Waiting queries admitted before load shedding kicks in
    /// (0 = unbounded, the original behaviour).
    pub queue_capacity: usize,
    /// Retries granted to a query whose batch failed to run.
    pub max_retries: u32,
    /// Base retry backoff, seconds (doubles per attempt).
    pub retry_backoff_s: f64,
    /// Enables the degradation ladder (batch shrink, then token-budget
    /// shrink) under sustained throttling or deadline misses.
    pub degradation: bool,
    /// Priority-class admission control (`None` = untagged FIFO serving,
    /// the original behaviour; continuous scheduler only).
    #[serde(default)]
    pub admission: Option<AdmissionConfig>,
}

impl ServingConfig {
    /// A configuration with every robustness control off — bit-identical
    /// serving behaviour to the pre-robustness simulation.
    #[must_use]
    pub fn new(
        arrival_qps: f64,
        max_batch: usize,
        queries: usize,
        prompt_tokens: usize,
        output_tokens: usize,
    ) -> Self {
        Self {
            arrival_qps,
            max_batch,
            queries,
            prompt_tokens,
            output_tokens,
            deadline_s: None,
            queue_capacity: 0,
            max_retries: 0,
            retry_backoff_s: 0.0,
            degradation: false,
            admission: None,
        }
    }

    /// Sets a per-query deadline, builder-style.
    #[must_use]
    pub fn with_deadline(mut self, deadline_s: f64) -> Self {
        self.deadline_s = Some(deadline_s);
        self
    }

    /// Bounds the waiting queue, builder-style (0 = unbounded).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Grants failed queries retries with exponential backoff,
    /// builder-style.
    #[must_use]
    pub fn with_retries(mut self, max_retries: u32, backoff_s: f64) -> Self {
        self.max_retries = max_retries;
        self.retry_backoff_s = backoff_s;
        self
    }

    /// Enables the degradation ladder, builder-style.
    #[must_use]
    pub fn with_degradation(mut self, enabled: bool) -> Self {
        self.degradation = enabled;
        self
    }

    /// Enables priority-class admission control, builder-style.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first invalid field as a typed [`ServingConfigError`].
    pub fn validate(&self) -> Result<(), ServingConfigError> {
        if !self.arrival_qps.is_finite() {
            return Err(ServingConfigError::NonFiniteArrivalQps);
        }
        if self.arrival_qps <= 0.0 {
            return Err(ServingConfigError::NonPositiveArrivalQps);
        }
        if self.max_batch == 0 {
            return Err(ServingConfigError::ZeroMaxBatch);
        }
        if self.queries == 0 {
            return Err(ServingConfigError::ZeroQueries);
        }
        if self.prompt_tokens == 0 {
            return Err(ServingConfigError::ZeroPromptTokens);
        }
        if self.output_tokens == 0 {
            return Err(ServingConfigError::ZeroOutputTokens);
        }
        if let Some(d) = self.deadline_s {
            if !d.is_finite() || d <= 0.0 {
                return Err(ServingConfigError::InvalidDeadline);
            }
        }
        if !self.retry_backoff_s.is_finite() || self.retry_backoff_s < 0.0 {
            return Err(ServingConfigError::InvalidRetryBackoff);
        }
        if let Some(adm) = &self.admission {
            let m = adm.mix;
            if m.interactive.is_nan()
                || m.batch.is_nan()
                || m.interactive < 0.0
                || m.batch < 0.0
                || m.interactive + m.batch > 1.0
            {
                return Err(ServingConfigError::InvalidAdmissionMix);
            }
            for i in 0..3 {
                if adm.rate_qps[i].is_nan() || adm.rate_qps[i] < 0.0 {
                    return Err(ServingConfigError::InvalidAdmissionRate);
                }
                if adm.burst[i].is_nan() || adm.burst[i] < 1.0 {
                    return Err(ServingConfigError::InvalidAdmissionBurst);
                }
                if adm.age_target_s[i].is_nan() || adm.age_target_s[i] <= 0.0 {
                    return Err(ServingConfigError::InvalidAdmissionAge);
                }
            }
        }
        Ok(())
    }
}

/// Aggregate serving metrics.
///
/// Percentile fields are `f64::NAN` when no query completed (an empty
/// sample has no p99; `0.0` would read as a *perfect* tail). Equality is
/// therefore bitwise on every float field — `NaN == NaN` here — which is
/// exactly the bit-identity contract the determinism tests assert.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ServingReport {
    /// Queries completed.
    pub completed: usize,
    /// Achieved throughput, queries/s.
    pub achieved_qps: f64,
    /// Mean end-to-end (queue + service) latency, seconds.
    pub avg_latency_s: f64,
    /// Median (50th-percentile) end-to-end latency, seconds.
    pub p50_latency_s: f64,
    /// 95th-percentile latency, seconds.
    pub p95_latency_s: f64,
    /// Mean admitted batch size.
    pub avg_batch: f64,
    /// Energy booked per completed query, joules: every joule the device
    /// drew on the stream, completed or voided work alike (cancelled hedge
    /// losers, and slots voided by crashes, brown-outs, partitions and
    /// stuck steps), over the completed count; NaN when none completed
    /// (joules spent on nothing delivered have no per-query price), like
    /// the latency percentiles.
    pub energy_per_query_j: f64,
    /// Total wall time, seconds.
    pub wall_s: f64,
    /// Total tokens generated.
    pub total_tokens: f64,
    /// Queries dropped after exhausting their retries (their work — and
    /// everything completed before the failure — is still reported).
    pub failed_queries: usize,
    /// Queries shed by admission control (expired deadline or full queue).
    pub shed_queries: usize,
    /// Retry attempts issued across all queries.
    pub retries: usize,
    /// Sequence preemptions reported by the engine across all batches.
    pub preemptions: usize,
    /// Completed queries that finished after their deadline.
    pub deadline_misses: usize,
    /// Fraction of *completed* queries that missed their deadline.
    pub deadline_miss_rate: f64,
    /// 99th-percentile latency, seconds.
    pub p99_latency_s: f64,
    /// Wall seconds served at a non-zero degradation level.
    pub degraded_s: f64,
    /// Fraction of all offered queries that completed on time (with no
    /// deadline configured: fraction that completed at all).
    pub slo_attainment: f64,
    /// Mean time completed queries spent queued before admission, seconds.
    pub avg_queue_wait_s: f64,
    /// 99th-percentile queueing wait of completed queries, seconds.
    pub p99_queue_wait_s: f64,
}

impl PartialEq for ServingReport {
    fn eq(&self, other: &Self) -> bool {
        // Bitwise float equality: stricter than `==` (distinguishes ±0.0)
        // and reflexive for the NaN empty-sample percentiles.
        fn b(a: f64, b: f64) -> bool {
            a.to_bits() == b.to_bits()
        }
        self.completed == other.completed
            && b(self.achieved_qps, other.achieved_qps)
            && b(self.avg_latency_s, other.avg_latency_s)
            && b(self.p50_latency_s, other.p50_latency_s)
            && b(self.p95_latency_s, other.p95_latency_s)
            && b(self.avg_batch, other.avg_batch)
            && b(self.energy_per_query_j, other.energy_per_query_j)
            && b(self.wall_s, other.wall_s)
            && b(self.total_tokens, other.total_tokens)
            && self.failed_queries == other.failed_queries
            && self.shed_queries == other.shed_queries
            && self.retries == other.retries
            && self.preemptions == other.preemptions
            && self.deadline_misses == other.deadline_misses
            && b(self.deadline_miss_rate, other.deadline_miss_rate)
            && b(self.p99_latency_s, other.p99_latency_s)
            && b(self.degraded_s, other.degraded_s)
            && b(self.slo_attainment, other.slo_attainment)
            && b(self.avg_queue_wait_s, other.avg_queue_wait_s)
            && b(self.p99_queue_wait_s, other.p99_queue_wait_s)
    }
}

/// Outcomes for one priority class. Counts reconcile with the flat
/// [`ServingReport`]: summed over classes, `offered` equals the offered
/// load and `completed`/`shed`/`failed` equal the report's totals.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ClassReport {
    /// Queries tagged with this class.
    pub offered: usize,
    /// Queries completed.
    pub completed: usize,
    /// Queries shed (deadline, capacity, aging, or slack guard).
    pub shed: usize,
    /// Queries dropped after exhausting retries.
    pub failed: usize,
    /// Completed queries that finished after their deadline.
    pub deadline_misses: usize,
    /// On-time completions over offered (`NaN` when nothing was offered).
    pub slo_attainment: f64,
    /// Mean end-to-end latency of completions, seconds (`NaN` when none).
    pub avg_latency_s: f64,
    /// Energy attributed to this class's completions, joules (each batch's
    /// energy split evenly over its members).
    pub energy_j: f64,
    /// On-time completions per wall second.
    pub goodput_qps: f64,
}

/// Per-class serving outcomes, indexed by [`Priority::index`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ClassBreakdown {
    /// One report per class, in [`Priority::ALL`] order.
    pub classes: [ClassReport; 3],
}

impl ClassBreakdown {
    /// The report for `class`.
    #[must_use]
    pub fn class(&self, class: Priority) -> &ClassReport {
        &self.classes[class.index()]
    }
}

/// Per-class completion accumulators (offered/shed/failed counts live in
/// the [`PendingQueue`], which sees every tagging and drop decision).
#[derive(Debug, Default)]
pub(crate) struct ClassAccum {
    completed: [usize; 3],
    misses: [usize; 3],
    lat_sum: [f64; 3],
    energy_j: [f64; 3],
}

impl ClassAccum {
    pub(crate) fn record(
        &mut self,
        class: Priority,
        latency_s: f64,
        missed: bool,
        energy_share_j: f64,
    ) {
        let i = class.index();
        self.completed[i] += 1;
        if missed {
            self.misses[i] += 1;
        }
        self.lat_sum[i] += latency_s;
        self.energy_j[i] += energy_share_j;
    }

    pub(crate) fn into_breakdown(
        self,
        counts: &crate::des::ClassCounters,
        wall_s: f64,
    ) -> ClassBreakdown {
        let mut classes = [ClassReport::default(); 3];
        for (i, slot) in classes.iter_mut().enumerate() {
            let offered = counts.offered[i];
            let completed = self.completed[i];
            let on_time = completed - self.misses[i];
            *slot = ClassReport {
                offered,
                completed,
                shed: counts.shed[i],
                failed: counts.failed[i],
                deadline_misses: self.misses[i],
                slo_attainment: if offered == 0 {
                    f64::NAN
                } else {
                    on_time as f64 / offered as f64
                },
                avg_latency_s: if completed == 0 {
                    f64::NAN
                } else {
                    self.lat_sum[i] / completed as f64
                },
                energy_j: self.energy_j[i],
                goodput_qps: if wall_s > 0.0 {
                    on_time as f64 / wall_s
                } else {
                    0.0
                },
            };
        }
        ClassBreakdown { classes }
    }
}

/// Runtime state of the admission controller: token buckets, the service
/// EWMA backing the slack guard, and the per-class completion ledger.
pub(crate) struct AdmissionState {
    pub(crate) cfg: AdmissionConfig,
    tokens: [f64; 3],
    last_s: f64,
    /// EWMA of observed batch service times, for the slack guard.
    svc_est: Ewma,
    pub(crate) classes: ClassAccum,
}

impl AdmissionState {
    pub(crate) fn new(cfg: AdmissionConfig) -> Self {
        Self {
            cfg,
            tokens: cfg.burst,
            last_s: 0.0,
            svc_est: Ewma::new(0.2),
            classes: ClassAccum::default(),
        }
    }

    /// Feeds one observed batch service time into the slack-guard EWMA.
    pub(crate) fn observe_service(&mut self, service_s: f64) {
        self.svc_est.observe(service_s);
    }

    fn refill(&mut self, now: f64) {
        let dt = (now - self.last_s).max(0.0);
        self.last_s = now;
        for i in 0..3 {
            let rate = self.cfg.rate_qps[i];
            if rate.is_infinite() {
                self.tokens[i] = self.cfg.burst[i];
            } else {
                self.tokens[i] = (self.tokens[i] + rate * dt).min(self.cfg.burst[i]);
            }
        }
    }

    /// Earliest instant any starved bucket regains a whole token
    /// (`INFINITY` when no finite-rate bucket is below one token) — the
    /// idle-loop jump target when admission is bucket-limited.
    pub(crate) fn next_release_s(&self, now: f64) -> f64 {
        let mut t = f64::INFINITY;
        for i in 0..3 {
            let rate = self.cfg.rate_qps[i];
            if self.tokens[i] < 1.0 && rate > 0.0 && rate.is_finite() {
                t = t.min(now + (1.0 - self.tokens[i]) / rate);
            }
        }
        t
    }

    /// Priority admission: fills `out` with up to `room` queries,
    /// class-rank first (arrival order within a class), charging token
    /// buckets and applying the KV-cost guard. Queries with no deadline
    /// slack left are shed on the spot (returned as the shed count) —
    /// admitting them would burn GPU time on work that cannot finish on
    /// time.
    ///
    /// Each class is one walk over its lane. Within a class the hopeless
    /// queries (`now + est > arrival + deadline`) are a prefix, and the
    /// bucket, the KV claim and the batch only fill, so the first query a
    /// walk can neither shed nor admit ends that class: nothing after it
    /// could be shed or admitted either.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn select<S: Source>(
        &mut self,
        pq: &mut PendingQueue<S>,
        now: f64,
        room: usize,
        free_kv_tokens: u64,
        per_query_kv: u64,
        deadline_s: Option<f64>,
        out: &mut Vec<QKey>,
    ) -> usize {
        out.clear();
        self.refill(now);
        let slack = match (self.cfg.slack_guard, deadline_s, self.svc_est.get()) {
            (true, Some(d), Some(est)) => Some((d, est)),
            _ => None,
        };
        let kv_guard = self.cfg.kv_guard;
        let mut shed = 0usize;
        let mut claimed = 0u64;
        for class in Priority::ALL {
            let tokens = &mut self.tokens[class.index()];
            shed += pq.walk_class(class, now, |k, s| {
                if let Some((d, est)) = slack {
                    if now + est > s.arrival_s + d {
                        return Visit::Shed;
                    }
                }
                if out.len() == room
                    || *tokens < 1.0
                    || (kv_guard && claimed + per_query_kv > free_kv_tokens)
                {
                    return Visit::Stop;
                }
                *tokens -= 1.0;
                claimed += per_query_kv;
                out.push(k);
                Visit::Take
            });
        }
        shed
    }

    /// The collect → stable-sort → scan admission that the class walks
    /// replaced: every ready query sorted by class rank, then visited in
    /// full. The differential oracle for [`select`](Self::select).
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn select_reference(
        &mut self,
        pq: &mut PendingQueue,
        now: f64,
        room: usize,
        free_kv_tokens: u64,
        per_query_kv: u64,
        deadline_s: Option<f64>,
        out: &mut Vec<QKey>,
    ) -> usize {
        out.clear();
        self.refill(now);
        let mut ready = Vec::new();
        pq.collect_ready(now, usize::MAX, &mut ready);
        ready.sort_by_key(|&k| pq.class_of(k).index());
        let mut shed = 0usize;
        let mut claimed = 0u64;
        for &k in &ready {
            if self.cfg.slack_guard {
                if let (Some(d), Some(est)) = (deadline_s, self.svc_est.get()) {
                    if now + est > pq.arrival_s(k) + d {
                        if pq.shed_key(k) {
                            shed += 1;
                        }
                        continue;
                    }
                }
            }
            if out.len() == room {
                // Keep scanning: the slack guard still sheds hopeless
                // tails even once the batch is full.
                continue;
            }
            let i = pq.class_of(k).index();
            if self.tokens[i] < 1.0 {
                continue;
            }
            if self.cfg.kv_guard && claimed + per_query_kv > free_kv_tokens {
                continue;
            }
            self.tokens[i] -= 1.0;
            claimed += per_query_kv;
            out.push(k);
        }
        shed
    }
}

/// The effective admitted batch at the current degradation level.
pub(crate) fn effective_batch(cfg: &ServingConfig, level: u32) -> usize {
    if cfg.degradation {
        (cfg.max_batch >> level.min(MAX_DEGRADE_LEVEL)).max(1)
    } else {
        cfg.max_batch
    }
}

/// The (possibly degraded) per-query output-token budget.
pub(crate) fn effective_out_tokens(cfg: &ServingConfig, level: u32) -> usize {
    if cfg.degradation && level >= 2 {
        let mut out = cfg.output_tokens as f64;
        for _ in 1..level {
            out *= 0.75;
        }
        (out as usize).max(1)
    } else {
        cfg.output_tokens
    }
}

/// Runs the serving simulation under the requested admission rule.
///
/// The device is served as a one-replica fleet: `engine` is the lone
/// replica of the [`crate::cluster`] event loop, with no crash, partition
/// or breaker weather, so a single device and
/// `simulate_cluster(&ClusterConfig::new(1, ..), ..)` run the same code.
/// `kind` only decides whether a busy device has room for more queries.
/// Outages the engine raises itself still apply: a battery brown-out voids
/// the in-flight work into the retry queue until the recharge model brings
/// the device back, and a device with no recharge path strands its queue.
///
/// # Errors
///
/// Reports invalid configurations as [`EngineError::InvalidRequest`],
/// including priority admission under [`SchedulerKind::Static`], and
/// propagates [`EngineError::OutOfMemory`] when the model's weights alone
/// exceed the device budget. Failures mid-run never abort the simulation:
/// the affected queries are retried (if `max_retries > 0`) or counted in
/// [`ServingReport::failed_queries`], and all completed work is reported.
pub fn simulate_serving_with(
    kind: SchedulerKind,
    engine: &mut InferenceEngine,
    model: ModelId,
    prec: Precision,
    cfg: &ServingConfig,
    seed: u64,
) -> Result<ServingReport, EngineError> {
    serve_device(
        kind,
        engine,
        model,
        prec,
        cfg,
        ArrivalProcess::PoissonLegacy,
        seed,
    )
}

/// Runs the static (gang-scheduled) serving simulation: each admitted
/// batch runs to completion before the next one is admitted. This is
/// [`simulate_serving_with`] under [`SchedulerKind::Static`].
///
/// # Errors
///
/// As [`simulate_serving_with`].
pub fn simulate_serving(
    engine: &mut InferenceEngine,
    model: ModelId,
    prec: Precision,
    cfg: &ServingConfig,
    seed: u64,
) -> Result<ServingReport, EngineError> {
    simulate_serving_with(SchedulerKind::Static, engine, model, prec, cfg, seed)
}

/// Runs the continuous (iteration-level) serving simulation, which admits
/// ready queries into the running batch at every decode-iteration
/// boundary. This is [`simulate_serving_with`] under
/// [`SchedulerKind::Continuous`].
///
/// With every robustness control off and arrivals spaced past batch
/// completion (a drained queue), this reproduces [`simulate_serving`]'s
/// report bit-exactly; under load it sustains strictly higher throughput
/// at equal or better SLO attainment because admission no longer waits for
/// the whole previous batch to drain. Decisions and reports are
/// bit-identical to the retired per-boundary-scan loop, which the engine
/// crate's tests keep as an oracle, wherever that loop modelled the run:
/// it ignored brown-outs, and under recompute preemption it could snap the
/// wall clock back before the stepper's own clock.
///
/// # Errors
///
/// As [`simulate_serving_with`].
pub fn simulate_serving_continuous(
    engine: &mut InferenceEngine,
    model: ModelId,
    prec: Precision,
    cfg: &ServingConfig,
    seed: u64,
) -> Result<ServingReport, EngineError> {
    simulate_serving_with(SchedulerKind::Continuous, engine, model, prec, cfg, seed)
}

/// Runs the continuous scheduler against an arbitrary [`ArrivalProcess`] —
/// principled Poisson, sinusoidal diurnal, or MMPP flash-crowd traffic —
/// instead of the legacy Poisson stream. This is the entry point the
/// city-scale `traffic_study` sweeps use; with
/// [`ArrivalProcess::PoissonLegacy`] it is exactly
/// [`simulate_serving_continuous`].
///
/// # Errors
///
/// As [`simulate_serving_continuous`].
pub fn simulate_serving_traffic(
    engine: &mut InferenceEngine,
    model: ModelId,
    prec: Precision,
    cfg: &ServingConfig,
    process: ArrivalProcess,
    seed: u64,
) -> Result<ServingReport, EngineError> {
    serve_device(
        SchedulerKind::Continuous,
        engine,
        model,
        prec,
        cfg,
        process,
        seed,
    )
}

/// Serves `cfg`'s queries, drawn from `process`, on `engine` as the one
/// calm replica of the fleet event loop under `kind`.
fn serve_device(
    kind: SchedulerKind,
    engine: &mut InferenceEngine,
    model: ModelId,
    prec: Precision,
    cfg: &ServingConfig,
    process: ArrivalProcess,
    seed: u64,
) -> Result<ServingReport, EngineError> {
    cfg.validate()
        .map_err(|e| EngineError::InvalidRequest(e.to_string()))?;
    if kind == SchedulerKind::Static && cfg.admission.is_some() {
        return Err(EngineError::InvalidRequest(
            "priority admission requires the continuous scheduler".into(),
        ));
    }
    let calm = ClusterConfig::new(1, engine.config().clone());
    let device = Replica::new(engine, model, prec)?;
    let arrivals = PendingQueue::new(process, cfg.arrival_qps, cfg.queries, seed);
    Ok(run_fleet(&calm, &mut [device], cfg, kind, arrivals)
        .report
        .fleet)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::simulate_cluster;
    use crate::engine::{EngineConfig, OomPolicy};
    use crate::telemetry::ServingAccumulator;
    use edgereasoning_soc::rng::Rng;

    fn engine() -> InferenceEngine {
        InferenceEngine::new(EngineConfig::vllm(), 3)
    }

    fn cfg(qps: f64, max_batch: usize) -> ServingConfig {
        ServingConfig::new(qps, max_batch, 60, 128, 128)
    }

    /// An engine config whose KV budget fits one sequence end to end but
    /// not several: weights + ~`kv_tokens` tokens of KV cache.
    fn pressured(policy: OomPolicy, kv_tokens: u64) -> EngineConfig {
        use edgereasoning_kernels::arch::ModelId;
        use edgereasoning_kernels::dtype::Precision;
        let mut config = EngineConfig::vllm().with_oom_policy(policy);
        let arch = ModelId::Dsr1Qwen1_5b.arch();
        let budget = arch.weight_bytes(Precision::Fp16) + kv_tokens * arch.kv_bytes_per_token();
        config.memory_budget_frac = budget as f64 / config.soc.gpu.dram_capacity as f64;
        config
    }

    #[test]
    fn low_load_is_unqueued() {
        let mut e = engine();
        // Service time ~3.5 s; one query per 100 s never queues.
        let r = simulate_serving(
            &mut e,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg(0.01, 8),
            1,
        )
        .expect("runs");
        assert_eq!(r.completed, 60);
        assert!(
            r.avg_batch < 1.05,
            "no batching at low load: {}",
            r.avg_batch
        );
        assert!(
            r.avg_latency_s < 6.0,
            "latency ~ service time: {}",
            r.avg_latency_s
        );
        assert_eq!((r.failed_queries, r.shed_queries, r.retries), (0, 0, 0));
        assert_eq!(r.deadline_misses, 0);
        assert!((r.slo_attainment - 1.0).abs() < 1e-12);
        // A rare close arrival pair can queue briefly, but waits stay far
        // below service time.
        assert!(r.avg_queue_wait_s < 1.0, "unqueued: {}", r.avg_queue_wait_s);
    }

    #[test]
    fn high_load_batches_up_and_raises_throughput() {
        let mut e = engine();
        let slow = simulate_serving(
            &mut e,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg(2.0, 1),
            1,
        )
        .expect("runs");
        let mut e = engine();
        let batched = simulate_serving(
            &mut e,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg(2.0, 30),
            1,
        )
        .expect("runs");
        assert!(
            batched.avg_batch > 3.0,
            "load must batch: {}",
            batched.avg_batch
        );
        assert!(batched.achieved_qps > 2.0 * slow.achieved_qps);
        assert!(batched.avg_latency_s < slow.avg_latency_s);
        // Energy per query drops with batching (Table III's mechanism).
        assert!(batched.energy_per_query_j < slow.energy_per_query_j);
        // Queueing dominates the single-stream server's latency.
        assert!(slow.avg_queue_wait_s > batched.avg_queue_wait_s);
        assert!(slow.p99_queue_wait_s >= slow.avg_queue_wait_s);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut e = engine();
        let bad = ServingConfig {
            arrival_qps: 0.0,
            ..cfg(1.0, 8)
        };
        assert!(matches!(
            simulate_serving(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &bad, 1),
            Err(EngineError::InvalidRequest(_))
        ));
        let bad = ServingConfig {
            deadline_s: Some(0.0),
            ..cfg(1.0, 8)
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_errors_are_typed() {
        let base = cfg(1.0, 8);
        let cases = [
            (
                ServingConfig {
                    arrival_qps: f64::NAN,
                    ..base
                },
                ServingConfigError::NonFiniteArrivalQps,
            ),
            (
                ServingConfig {
                    arrival_qps: f64::INFINITY,
                    ..base
                },
                ServingConfigError::NonFiniteArrivalQps,
            ),
            (
                ServingConfig {
                    arrival_qps: -1.0,
                    ..base
                },
                ServingConfigError::NonPositiveArrivalQps,
            ),
            (
                ServingConfig {
                    max_batch: 0,
                    ..base
                },
                ServingConfigError::ZeroMaxBatch,
            ),
            (
                ServingConfig { queries: 0, ..base },
                ServingConfigError::ZeroQueries,
            ),
            (
                ServingConfig {
                    prompt_tokens: 0,
                    ..base
                },
                ServingConfigError::ZeroPromptTokens,
            ),
            (
                ServingConfig {
                    output_tokens: 0,
                    ..base
                },
                ServingConfigError::ZeroOutputTokens,
            ),
            (
                ServingConfig {
                    retry_backoff_s: f64::NAN,
                    ..base
                },
                ServingConfigError::InvalidRetryBackoff,
            ),
        ];
        for (bad, want) in cases {
            assert_eq!(bad.validate(), Err(want), "{bad:?}");
            // Both schedulers reject it before running anything.
            for kind in [SchedulerKind::Static, SchedulerKind::Continuous] {
                let mut e = engine();
                assert!(matches!(
                    simulate_serving_with(
                        kind,
                        &mut e,
                        ModelId::Dsr1Qwen1_5b,
                        Precision::Fp16,
                        &bad,
                        1
                    ),
                    Err(EngineError::InvalidRequest(_))
                ));
            }
        }
        assert!(cfg(1.0, 8).validate().is_ok());
    }

    #[test]
    fn zero_token_configs_are_rejected_up_front() {
        for bad in [
            ServingConfig {
                prompt_tokens: 0,
                ..cfg(1.0, 8)
            },
            ServingConfig {
                output_tokens: 0,
                ..cfg(1.0, 8)
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must fail validation");
            let mut e = engine();
            assert!(matches!(
                simulate_serving(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &bad, 1),
                Err(EngineError::InvalidRequest(_))
            ));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = engine();
        let mut b = engine();
        let ra = simulate_serving(
            &mut a,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg(1.0, 8),
            9,
        )
        .expect("runs");
        let rb = simulate_serving(
            &mut b,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg(1.0, 8),
            9,
        )
        .expect("runs");
        assert_eq!(ra, rb);
    }

    #[test]
    fn drained_continuous_matches_static_bit_exactly() {
        // One query per ~10000 s against a ~4 s service time: every
        // admission happens into an empty stepper, so the continuous
        // scheduler must replay the static schedule bit-for-bit.
        let load = ServingConfig::new(1e-4, 8, 24, 128, 128);
        let mut se = engine();
        let rs = simulate_serving(&mut se, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 7)
            .expect("runs");
        let mut ce = engine();
        let rc =
            simulate_serving_continuous(&mut ce, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 7)
                .expect("runs");
        assert_eq!(rs, rc, "drained continuous must equal static");
    }

    #[test]
    fn continuous_deterministic_across_runs() {
        let load = cfg(2.0, 8);
        let mut a = engine();
        let mut b = engine();
        let ra =
            simulate_serving_continuous(&mut a, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 9)
                .expect("runs");
        let rb =
            simulate_serving_continuous(&mut b, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 9)
                .expect("runs");
        assert_eq!(ra, rb);
    }

    #[test]
    fn continuous_cuts_queueing_under_load() {
        // At moderate load the static gang scheduler makes late arrivals
        // wait out the whole running batch; iteration-level admission
        // starts them at the next decode boundary instead.
        let load = cfg(1.5, 8);
        let mut se = engine();
        let rs = simulate_serving(&mut se, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 11)
            .expect("runs");
        let mut ce = engine();
        let rc =
            simulate_serving_continuous(&mut ce, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 11)
                .expect("runs");
        assert_eq!(rc.completed, rs.completed);
        assert!(
            rc.p99_queue_wait_s < rs.p99_queue_wait_s,
            "continuous p99 wait {} vs static {}",
            rc.p99_queue_wait_s,
            rs.p99_queue_wait_s
        );
        assert!(
            rc.achieved_qps >= rs.achieved_qps,
            "continuous qps {} vs static {}",
            rc.achieved_qps,
            rs.achieved_qps
        );
    }

    #[test]
    fn failfast_oom_reports_partial_work_instead_of_aborting() {
        // ~1600 KV tokens: a 256-token single query fits, batch 8 does not.
        let mut e = InferenceEngine::new(pressured(OomPolicy::FailFast, 1600), 3);
        let load = ServingConfig::new(2.0, 8, 40, 128, 128);
        let r = simulate_serving(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 5)
            .expect("must not abort on mid-run OOM");
        assert!(r.failed_queries > 0, "pressured batches must fail: {r:?}");
        assert!(r.completed > 0, "low-load singles must still complete");
        assert_eq!(r.completed + r.failed_queries, 40);
        assert!(r.energy_per_query_j > 0.0);
    }

    #[test]
    fn continuous_survives_failfast_pressure() {
        let mut e = InferenceEngine::new(pressured(OomPolicy::FailFast, 1600), 3);
        let load = ServingConfig::new(2.0, 8, 40, 128, 128);
        let r =
            simulate_serving_continuous(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 5)
                .expect("must not abort on admission OOM");
        assert_eq!(r.completed + r.failed_queries, 40);
        assert!(r.completed > 0);
    }

    #[test]
    fn continuous_preempt_policy_completes_under_pressure() {
        let mut e = InferenceEngine::new(pressured(OomPolicy::PreemptRecompute, 1600), 3);
        let load = ServingConfig::new(2.0, 8, 40, 128, 128);
        let r =
            simulate_serving_continuous(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 5)
                .expect("runs");
        assert_eq!(r.completed, 40, "preemption must complete every query");
        assert_eq!(r.failed_queries, 0);
    }

    #[test]
    fn preempt_policy_completes_what_failfast_drops() {
        let load = ServingConfig::new(2.0, 8, 40, 128, 128);
        let mut ff = InferenceEngine::new(pressured(OomPolicy::FailFast, 1600), 3);
        let rf = simulate_serving(&mut ff, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 5)
            .expect("runs");
        let mut pr = InferenceEngine::new(pressured(OomPolicy::PreemptRecompute, 1600), 3);
        let rp = simulate_serving(&mut pr, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 5)
            .expect("runs");
        assert_eq!(rp.completed, 40, "preemption must complete every query");
        assert_eq!(rp.failed_queries, 0);
        assert!(rp.preemptions > 0, "pressure must trigger preemptions");
        assert!(rf.failed_queries > 0);
        assert!(rp.slo_attainment > rf.slo_attainment);
    }

    #[test]
    fn retries_recover_transiently_failing_queries() {
        // With retries and backoff, a failed batch is re-attempted at
        // smaller effective batch once earlier work drains the queue.
        let mut e = InferenceEngine::new(pressured(OomPolicy::FailFast, 1600), 3);
        let load = ServingConfig::new(2.0, 8, 40, 128, 128)
            .with_retries(3, 1.0)
            .with_degradation(true);
        let r = simulate_serving(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 5)
            .expect("runs");
        assert!(r.retries > 0, "failures must be retried: {r:?}");
        assert!(
            r.completed > 40 - r.failed_queries || r.failed_queries < 40,
            "retries must recover some queries: {r:?}"
        );
        assert!(r.completed > 0);
    }

    #[test]
    fn deadlines_shed_hopeless_queries() {
        let mut e = engine();
        // Service ~4 s per query at qps 2.0 -> the queue grows without
        // bound; a 10 s deadline must shed the tail.
        let load = ServingConfig::new(2.0, 1, 40, 128, 128).with_deadline(10.0);
        let r = simulate_serving(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 5)
            .expect("runs");
        assert!(r.shed_queries > 0, "overload must shed: {r:?}");
        assert!(r.slo_attainment < 1.0);
        assert_eq!(r.completed + r.shed_queries, 40);
    }

    #[test]
    fn continuous_holds_slo_where_static_sheds() {
        // Deadline-bound load the static gang scheduler cannot hold:
        // iteration-level admission keeps queue waits short enough to
        // complete more queries on time.
        let load = ServingConfig::new(1.5, 8, 40, 128, 128).with_deadline(30.0);
        let mut se = engine();
        let rs = simulate_serving(&mut se, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 5)
            .expect("runs");
        let mut ce = engine();
        let rc =
            simulate_serving_continuous(&mut ce, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 5)
                .expect("runs");
        assert!(
            rc.slo_attainment >= rs.slo_attainment,
            "continuous SLO {} vs static {}",
            rc.slo_attainment,
            rs.slo_attainment
        );
        assert!(rc.completed + rc.shed_queries == 40);
    }

    #[test]
    fn empty_percentiles_are_nan_not_perfect() {
        // ~64 KV tokens: not even one 256-token query fits, and with no
        // retries every query fails — zero completions.
        let run = || {
            let mut e = InferenceEngine::new(pressured(OomPolicy::FailFast, 64), 3);
            let load = ServingConfig::new(2.0, 4, 10, 128, 128);
            simulate_serving(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 5)
                .expect("failures must not abort")
        };
        let r = run();
        assert_eq!(r.completed, 0);
        assert_eq!(r.failed_queries, 10);
        // An empty sample has no tail: NaN, not a "perfect" 0.0 p99.
        assert!(r.p95_latency_s.is_nan(), "p95 {}", r.p95_latency_s);
        assert!(r.p99_latency_s.is_nan(), "p99 {}", r.p99_latency_s);
        assert!(
            r.p99_queue_wait_s.is_nan(),
            "p99 wait {}",
            r.p99_queue_wait_s
        );
        assert_eq!(r.slo_attainment, 0.0);
        // Bitwise report equality is NaN-safe: determinism asserts still
        // hold on all-failed runs.
        assert_eq!(r, run());
    }

    #[test]
    fn bounded_queue_sheds_newest() {
        let mut e = engine();
        let load = ServingConfig::new(4.0, 1, 40, 128, 128).with_queue_capacity(2);
        let r = simulate_serving(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 5)
            .expect("runs");
        assert!(r.shed_queries > 0, "overload must shed: {r:?}");
        assert_eq!(r.completed + r.shed_queries, 40);
    }

    #[test]
    fn inert_governance_is_bit_identical_to_none() {
        // A trip point no simulated workload can reach keeps the governor
        // at ladder level 0, whose derate is the exact `Derate::IDENTITY`
        // constant — so enabling governance must not move a single bit of
        // the serving schedule.
        use edgereasoning_soc::thermal::GovernanceConfig;
        let load = cfg(2.0, 8);
        let mut base = engine();
        let want = simulate_serving_continuous(
            &mut base,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &load,
            3,
        )
        .expect("runs");
        let inert = GovernanceConfig::default().with_trip(10_000.0, 9_000.0);
        let mut gov = InferenceEngine::new(EngineConfig::vllm().with_governance(inert), 3);
        let got =
            simulate_serving_continuous(&mut gov, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 3)
                .expect("runs");
        assert_eq!(want, got, "inert governor must be a bit-exact no-op");
        let stats = gov.governance_stats().expect("governance enabled");
        assert_eq!(stats.throttle_steps, 0);
        assert_eq!(stats.time_above_trip_s, 0.0);
        assert!(stats.energy_drawn_j > 0.0, "energy must still be metered");
    }

    #[test]
    fn sustained_soak_trips_governor_and_lengthens_decode() {
        // A fast thermal mass (tau ~12 s) and a low trip point make a
        // sustained-load soak cross the trip temperature mid-run: the
        // governor must log time above trip, take throttle steps, and the
        // resulting frequency derate must lengthen decode (higher average
        // latency than the ungoverned run of the same workload).
        use edgereasoning_soc::thermal::{GovernanceConfig, ThermalConfig};
        let load = cfg(3.0, 8);
        let mut base = engine();
        let cool = simulate_serving_continuous(
            &mut base,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &load,
            3,
        )
        .expect("runs");
        let hot = GovernanceConfig {
            thermal: ThermalConfig {
                c_j_per_c: 8.6, // tau = 12 s: trips within the soak
                ..ThermalConfig::default()
            },
            ..GovernanceConfig::default()
        }
        .with_trip(45.0, 40.0);
        let mut gov = InferenceEngine::new(EngineConfig::vllm().with_governance(hot), 3);
        let throttled =
            simulate_serving_continuous(&mut gov, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &load, 3)
                .expect("runs");
        let stats = gov.governance_stats().expect("governance enabled");
        assert!(
            stats.time_above_trip_s > 0.0,
            "soak must cross the trip point: {stats:?}"
        );
        assert!(stats.throttle_steps > 0, "trip must force down-steps");
        assert!(stats.peak_temp_c > 45.0);
        assert!(
            throttled.avg_latency_s > cool.avg_latency_s,
            "thermal derate must lengthen decode: {} vs {}",
            throttled.avg_latency_s,
            cool.avg_latency_s
        );
    }

    #[test]
    fn governance_config_is_validated_at_the_entry_points() {
        use edgereasoning_soc::thermal::GovernanceConfig;
        // release above trip: inverted hysteresis band.
        let bad = GovernanceConfig::default().with_trip(50.0, 60.0);
        let mut e = InferenceEngine::new(EngineConfig::vllm().with_governance(bad), 3);
        let err = simulate_serving_continuous(
            &mut e,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg(1.0, 4),
            3,
        )
        .expect_err("inverted hysteresis must be rejected");
        assert!(matches!(err, EngineError::InvalidRequest(_)), "{err:?}");
    }

    #[test]
    fn validate_rejects_non_finite_and_negative_knobs() {
        let base = cfg(1.0, 8);
        let cases: Vec<(ServingConfig, ServingConfigError)> = vec![
            (
                base.with_deadline(f64::INFINITY),
                ServingConfigError::InvalidDeadline,
            ),
            (
                base.with_deadline(f64::NAN),
                ServingConfigError::InvalidDeadline,
            ),
            (base.with_deadline(0.0), ServingConfigError::InvalidDeadline),
            (
                base.with_deadline(-5.0),
                ServingConfigError::InvalidDeadline,
            ),
            (
                base.with_retries(2, f64::INFINITY),
                ServingConfigError::InvalidRetryBackoff,
            ),
            (
                base.with_retries(2, f64::NAN),
                ServingConfigError::InvalidRetryBackoff,
            ),
            (
                base.with_retries(2, -1.0),
                ServingConfigError::InvalidRetryBackoff,
            ),
        ];
        for (bad, want) in cases {
            assert_eq!(bad.validate(), Err(want), "{bad:?}");
        }
        // Boundary acceptances: tiny positive deadline, zero backoff.
        assert_eq!(base.with_deadline(1e-9).validate(), Ok(()));
        assert_eq!(base.with_retries(2, 0.0).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_broken_admission_configs() {
        let base = cfg(1.0, 8);
        let adm = || AdmissionConfig::priority(PriorityMix::EDGE_MIX, 1);
        let with = |a: AdmissionConfig| base.with_admission(a);
        // Mix fractions: NaN, negative, sum past one.
        let mut a = adm();
        a.mix = PriorityMix {
            interactive: f64::NAN,
            batch: 0.1,
        };
        assert_eq!(
            with(a).validate(),
            Err(ServingConfigError::InvalidAdmissionMix)
        );
        let mut a = adm();
        a.mix = PriorityMix {
            interactive: -0.1,
            batch: 0.1,
        };
        assert_eq!(
            with(a).validate(),
            Err(ServingConfigError::InvalidAdmissionMix)
        );
        let mut a = adm();
        a.mix = PriorityMix {
            interactive: 0.7,
            batch: 0.4,
        };
        assert_eq!(
            with(a).validate(),
            Err(ServingConfigError::InvalidAdmissionMix)
        );
        // Bucket rates and bursts.
        assert_eq!(
            with(adm().with_rate(Priority::Batch, -1.0, 4.0)).validate(),
            Err(ServingConfigError::InvalidAdmissionRate)
        );
        assert_eq!(
            with(adm().with_rate(Priority::Batch, f64::NAN, 4.0)).validate(),
            Err(ServingConfigError::InvalidAdmissionRate)
        );
        assert_eq!(
            with(adm().with_rate(Priority::Batch, 1.0, 0.5)).validate(),
            Err(ServingConfigError::InvalidAdmissionBurst),
            "a bucket that can never hold one token would starve forever"
        );
        assert_eq!(
            with(adm().with_rate(Priority::Batch, 1.0, f64::NAN)).validate(),
            Err(ServingConfigError::InvalidAdmissionBurst)
        );
        // Aging targets.
        assert_eq!(
            with(adm().with_age_target(Priority::Background, 0.0)).validate(),
            Err(ServingConfigError::InvalidAdmissionAge)
        );
        assert_eq!(
            with(adm().with_age_target(Priority::Background, f64::NAN)).validate(),
            Err(ServingConfigError::InvalidAdmissionAge)
        );
        // Boundaries that must pass: sum-to-one mix, burst of exactly one,
        // zero rate (a class that only drains its burst), infinite age.
        let mut a = adm();
        a.mix = PriorityMix {
            interactive: 0.5,
            batch: 0.5,
        };
        assert_eq!(with(a).validate(), Ok(()));
        assert_eq!(
            with(adm().with_rate(Priority::Background, 0.0, 1.0)).validate(),
            Ok(())
        );
    }

    #[test]
    fn fifo_admission_is_bit_identical_to_no_admission() {
        // Tagging alone decides nothing: the FIFO policy must leave the
        // whole schedule — and thus the flat report — untouched, bit for
        // bit, while still producing a class breakdown that conserves.
        let load = ServingConfig::new(4.0, 8, 60, 128, 96)
            .with_deadline(30.0)
            .with_retries(2, 1.0);
        for seed in [1u64, 7, 23] {
            let mut e = InferenceEngine::new(EngineConfig::vllm(), seed);
            let want = simulate_serving_continuous(
                &mut e,
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                &load,
                seed,
            )
            .expect("runs");
            let tagged = load.with_admission(AdmissionConfig::fifo(PriorityMix::EDGE_MIX, 99));
            let r = simulate_cluster(
                &ClusterConfig::new(1, EngineConfig::vllm()),
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                &tagged,
                seed,
            )
            .expect("runs");
            let classes = r.classes.expect("admission reports classes");
            assert_eq!(want, r.fleet, "seed {seed}: FIFO tagging must be inert");
            let offered: usize = Priority::ALL
                .iter()
                .map(|&p| classes.class(p).offered)
                .sum();
            assert_eq!(offered, 60);
        }
    }

    #[test]
    fn priority_admission_holds_interactive_slo_where_fifo_collapses() {
        // ~2x overload with a tight deadline: FIFO serves in arrival order
        // and lets every class rot in the queue equally; priority
        // admission serves Interactive first and sheds hopeless work
        // early, so the Interactive class keeps its SLO.
        let overload = ServingConfig::new(6.0, 8, 120, 128, 96)
            .with_deadline(12.0)
            .with_queue_capacity(0);
        let fifo = overload.with_admission(AdmissionConfig::fifo(PriorityMix::EDGE_MIX, 5));
        let prio = overload.with_admission(AdmissionConfig::priority(PriorityMix::EDGE_MIX, 5));
        let run = |c: &ServingConfig| {
            simulate_cluster(
                &ClusterConfig::new(1, EngineConfig::vllm()),
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                c,
                5,
            )
            .expect("runs")
            .classes
            .expect("admission reports classes")
        };
        let fifo_classes = run(&fifo);
        let prio_classes = run(&prio);
        let fifo_slo = fifo_classes.class(Priority::Interactive).slo_attainment;
        let prio_slo = prio_classes.class(Priority::Interactive).slo_attainment;
        assert!(
            prio_slo > fifo_slo + 0.2,
            "priority must protect Interactive: fifo {fifo_slo} vs priority {prio_slo}"
        );
        assert!(
            prio_classes.class(Priority::Background).slo_attainment
                <= prio_classes.class(Priority::Interactive).slo_attainment,
            "protection is paid for by the background class"
        );
    }

    #[test]
    fn queue_aging_sheds_stale_background_work() {
        // A millisecond aging target for Background under overload: the
        // moment background work waits, it is dropped — Interactive never
        // is (its target stays infinite).
        let load = ServingConfig::new(6.0, 4, 80, 128, 96).with_admission(
            AdmissionConfig::priority(PriorityMix::EDGE_MIX, 5)
                .with_age_target(Priority::Background, 0.001),
        );
        let classes = simulate_cluster(
            &ClusterConfig::new(1, EngineConfig::vllm()),
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &load,
            9,
        )
        .expect("runs")
        .classes
        .expect("admission reports classes");
        assert!(
            classes.class(Priority::Background).shed > 0,
            "stale background work must age out: {classes:?}"
        );
        assert_eq!(
            classes.class(Priority::Interactive).shed,
            0,
            "no deadline and an infinite age target: Interactive never sheds"
        );
    }

    #[test]
    fn class_mix_is_deterministic_and_roughly_proportional() {
        let mix = PriorityMix::EDGE_MIX;
        let mut counts = [0usize; 3];
        for seq in 0..10_000u64 {
            counts[mix.class_of(42, seq).index()] += 1;
            assert_eq!(mix.class_of(42, seq), mix.class_of(42, seq));
        }
        let frac = |c: usize| c as f64 / 10_000.0;
        assert!((frac(counts[0]) - 0.2).abs() < 0.02, "{counts:?}");
        assert!((frac(counts[1]) - 0.5).abs() < 0.02, "{counts:?}");
        assert!((frac(counts[2]) - 0.3).abs() < 0.02, "{counts:?}");
        // Different lanes decorrelate.
        assert_ne!(
            (0..64).map(|s| mix.class_of(1, s)).collect::<Vec<_>>(),
            (0..64).map(|s| mix.class_of(2, s)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn static_scheduler_rejects_admission_control() {
        let mut e = engine();
        let bad = cfg(1.0, 8).with_admission(AdmissionConfig::fifo(PriorityMix::EDGE_MIX, 1));
        let err = simulate_serving(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &bad, 1)
            .expect_err("static scheduler cannot honor admission control");
        assert!(matches!(err, EngineError::InvalidRequest(_)), "{err:?}");
    }

    #[test]
    fn gang_scheduling_checks_the_device_before_serving() {
        // Weights that cannot fit and an inverted hysteresis band are
        // errors under either admission rule, not a run of failed queries.
        use edgereasoning_soc::thermal::GovernanceConfig;
        let bad = GovernanceConfig::default().with_trip(50.0, 60.0);
        let mut e = InferenceEngine::new(EngineConfig::vllm().with_governance(bad), 3);
        let err = simulate_serving(
            &mut e,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg(1.0, 4),
            3,
        )
        .expect_err("inverted hysteresis must be rejected");
        assert!(matches!(err, EngineError::InvalidRequest(_)), "{err:?}");
        let mut tiny = EngineConfig::vllm();
        tiny.memory_budget_frac = 0.01;
        let mut e = InferenceEngine::new(tiny, 3);
        let err = simulate_serving(
            &mut e,
            ModelId::Dsr1Qwen14b,
            Precision::Fp16,
            &cfg(1.0, 4),
            3,
        )
        .expect_err("14B weights exceed 1% of device memory");
        assert!(matches!(err, EngineError::OutOfMemory { .. }), "{err:?}");
    }

    /// 500-seed differential: the class-walk [`AdmissionState::select`]
    /// and lane-prefix `shed_aged` against the collect → stable-sort →
    /// scan and full-scan versions they replaced. Two clones of one tagged
    /// queue run the same random dispatch sequence — deadline and capacity
    /// sheds, per-class aging, the slack guard over a seeded service
    /// estimate, zero-rate, finite and unmetered buckets, the KV guard,
    /// commits, completions, backward clock steps and requeues into the
    /// deferred set — and must agree on every admitted group (in order and
    /// key for key, so arena slots are released and recycled identically),
    /// every shed count, the class ledger and the remaining backlog.
    #[test]
    fn class_walk_admission_matches_the_sorting_reference_over_500_seeds() {
        use std::collections::HashSet;
        // Coverage, summed over seeds: slack sheds, aging sheds, retried
        // queries admitted again, and backward clock steps.
        let mut seen = [0usize; 4];
        for seed in 0u64..500 {
            let mut rng = Rng::seed_from_u64(seed);
            let qps = rng.range_f64(5.0, 200.0);
            let mix = if rng.chance(0.5) {
                PriorityMix::EDGE_MIX
            } else {
                let interactive = rng.range_f64(0.0, 0.6);
                PriorityMix {
                    interactive,
                    batch: rng.range_f64(0.0, 1.0 - interactive),
                }
            };
            let mut adm = AdmissionConfig::priority(mix, seed ^ 0x5eed);
            adm.kv_guard = rng.chance(0.7);
            adm.slack_guard = rng.chance(0.8);
            for class in Priority::ALL {
                adm = match rng.range_usize(3) {
                    0 => adm.with_rate(class, 0.0, rng.range_f64(1.0, 4.0)),
                    1 => adm.with_rate(class, rng.range_f64(1.0, qps), rng.range_f64(1.0, 8.0)),
                    _ => adm,
                };
                if rng.chance(0.5) {
                    adm = adm.with_age_target(class, rng.range_f64(0.05, 3.0));
                }
            }
            let deadline = rng.chance(0.7).then(|| rng.range_f64(0.2, 4.0));
            let capacity = if rng.chance(0.4) {
                1 + rng.range_usize(64)
            } else {
                0
            };
            let queries = 400 + rng.range_usize(1200);
            let mut pq = PendingQueue::new(ArrivalProcess::Poisson, qps, queries, seed);
            pq.set_tagger(mix, adm.class_seed);
            let mut ref_pq = pq.clone();
            let mut st = AdmissionState::new(adm);
            let mut ref_st = AdmissionState::new(adm);
            let mut acc = ServingAccumulator::default();
            let mut ref_acc = ServingAccumulator::default();
            let (mut group, mut ref_group) = (Vec::new(), Vec::new());
            let mut in_flight: Vec<QKey> = Vec::new();
            let mut retried: HashSet<QKey> = HashSet::new();
            let mut now = 0.0f64;
            for step in 0..300 {
                let at = format!("seed {seed} step {step}");
                let t = pq.min_ready();
                assert_eq!(t.to_bits(), ref_pq.min_ready().to_bits(), "{at}");
                if rng.chance(0.1) && step > 0 {
                    // A drained stepper snapping back to a completion
                    // instant: the newest arrivals become unready again.
                    now -= rng.range_f64(0.0, 2.0 / qps);
                    seen[3] += 1;
                } else if t.is_finite() {
                    now = now.max(t) + rng.range_f64(0.0, 4.0 / qps);
                } else if in_flight.is_empty() {
                    break;
                }
                pq.pump(now);
                ref_pq.pump(now);
                if let Some(d) = deadline {
                    assert_eq!(pq.shed_expired(now, d), ref_pq.shed_expired(now, d), "{at}");
                }
                if capacity > 0 {
                    assert_eq!(
                        pq.shed_over_capacity(now, capacity),
                        ref_pq.shed_over_capacity(now, capacity),
                        "{at}"
                    );
                }
                let aged = pq.shed_aged(now, &adm.age_target_s);
                assert_eq!(
                    aged,
                    ref_pq.shed_aged_reference(now, &adm.age_target_s),
                    "{at}"
                );
                seen[1] += aged;
                let room = rng.range_usize(9);
                let per_query_kv = 256;
                let free_kv = rng.range_usize(3000) as u64;
                let shed = st.select(
                    &mut pq,
                    now,
                    room,
                    free_kv,
                    per_query_kv,
                    deadline,
                    &mut group,
                );
                let ref_shed = ref_st.select_reference(
                    &mut ref_pq,
                    now,
                    room,
                    free_kv,
                    per_query_kv,
                    deadline,
                    &mut ref_group,
                );
                assert_eq!(shed, ref_shed, "{at}");
                assert_eq!(group, ref_group, "{at}");
                assert_eq!(
                    st.tokens.map(f64::to_bits),
                    ref_st.tokens.map(f64::to_bits),
                    "{at}"
                );
                seen[0] += shed;
                seen[2] += group.iter().filter(|k| retried.contains(k)).count();
                if !group.is_empty() {
                    if rng.chance(0.25) {
                        // Failed admission: members retry through the
                        // deferred set (or drop once out of retries).
                        pq.requeue_failed(&group, now, 2, 0.05, &mut acc);
                        ref_pq.requeue_failed(&group, now, 2, 0.05, &mut ref_acc);
                        retried.extend(&group);
                    } else {
                        pq.commit_admitted(&group);
                        ref_pq.commit_admitted(&group);
                        in_flight.extend_from_slice(&group);
                    }
                } else if rng.chance(0.1) {
                    // The idle liveness rule: force-shed the oldest query.
                    pq.collect_ready(now, 1, &mut group);
                    for &k in &group {
                        assert_eq!(pq.shed_key(k), ref_pq.shed_key(k), "{at}");
                    }
                }
                if !in_flight.is_empty() && rng.chance(0.5) {
                    let n = 1 + rng.range_usize(in_flight.len());
                    let done: Vec<QKey> = in_flight.drain(..n).collect();
                    if rng.chance(0.3) {
                        // Engine failure after commit.
                        pq.requeue_failed(&done, now, 2, 0.05, &mut acc);
                        ref_pq.requeue_failed(&done, now, 2, 0.05, &mut ref_acc);
                        retried.extend(&done);
                    } else {
                        let service = rng.range_f64(0.05, 2.0);
                        st.observe_service(service);
                        ref_st.observe_service(service);
                        for &k in &done {
                            pq.release(k);
                            ref_pq.release(k);
                        }
                    }
                }
            }
            let (a, b) = (pq.class_counts(), ref_pq.class_counts());
            assert_eq!(
                (a.offered, a.shed, a.failed),
                (b.offered, b.shed, b.failed),
                "seed {seed}"
            );
            assert_eq!(pq.backlog_keys(), ref_pq.backlog_keys(), "seed {seed}");
            assert_eq!(
                (acc.retries, acc.failed),
                (ref_acc.retries, ref_acc.failed),
                "seed {seed}"
            );
        }
        assert!(seen.iter().all(|&n| n > 0), "coverage: {seen:?}");
    }
}
