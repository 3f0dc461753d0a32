//! Session-aware serving: per-request prompts, outputs and prefix
//! signatures over the continuous-batching stepper.
//!
//! The uniform serving loops ([`crate::serving`]) drive one fixed
//! (prompt, output) shape from a rate-parameterized arrival process. Real
//! edge traffic is neither uniform nor memoryless: agent sessions re-send
//! growing contexts turn after turn, and template-heavy fleets share long
//! system prompts across users. [`simulate_serving_sessions`] serves such
//! traces — each [`SessionRequest`] carries its own prompt length, output
//! budget and block-granular prefix signature — admitting through
//! [`BatchStepper::admit_prefixed`](crate::stepper::BatchStepper::admit_prefixed)
//! so shared prefixes hit the radix
//! prefix cache ([`crate::prefix_cache`]) and pay prefill only for the
//! un-cached suffix.
//!
//! # Bit-exactness contract
//!
//! There is no session loop: a session trace runs on the fleet event loop
//! ([`crate::cluster`]) as its one calm replica, fed a pending queue whose
//! items carry their own shape. The queue's source type selects the
//! own-shape rules — admit each request alone with its own shape, and drop
//! one an idle device refuses instead of retrying it — so sessions and
//! uniform traffic share every boundary (idle jump → pump → deadline shed
//! → capacity shed → admission → step → drain) by construction. With
//! prefix caching disabled (or all-empty signatures), a uniform trace
//! ([`uniform_session_trace`] replays the exact legacy Poisson stream) and
//! either drained queues or one sequence at a time, reports are
//! bit-identical to [`crate::serving::simulate_serving_continuous`] —
//! pinned by the DES regression suite, a 500-seed property test and the
//! session regression suite.

use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;

use crate::arrivals::{ArrivalGen, ArrivalProcess};
use crate::cluster::{run_fleet, ClusterConfig, Replica};
use crate::des::{PendingQueue, Trace};
use crate::engine::InferenceEngine;
use crate::prefix_cache::PrefixCacheStats;
use crate::serving::{SchedulerKind, ServingConfig, ServingReport};
use crate::EngineError;

/// One query of a session/template trace: its arrival instant, shape, and
/// block-granular prefix signature (one `u64` per full KV block of the
/// prompt — see [`crate::prefix_cache`] for the matching rules). An empty
/// signature opts the request out of prefix caching.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRequest {
    /// Absolute arrival time, seconds. Traces must be arrival-sorted.
    pub arrival_s: f64,
    /// Prompt length, tokens.
    pub prompt_tokens: usize,
    /// Output budget, tokens.
    pub output_tokens: usize,
    /// Prefix signature: identities of the prompt's full KV blocks.
    pub prefix: Vec<u64>,
}

/// Scheduler knobs for [`simulate_serving_sessions`]. Retry/degradation
/// ladders are deliberately absent: session traces are replayed open-loop,
/// and an unplaceable request is dropped (counted failed) rather than
/// reshaped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Maximum concurrently batched sequences (admission headroom).
    pub max_batch: usize,
    /// Completion SLO; expired waiting queries are shed, late completions
    /// counted as deadline misses. `None` disables both.
    pub deadline_s: Option<f64>,
    /// Bounded waiting queue (`0` = unbounded); the newest waiting queries
    /// beyond capacity are shed.
    pub queue_capacity: usize,
    /// Whether request prefix signatures reach the radix KV cache. When
    /// `false` every admission runs the exact unprefixed legacy path.
    pub prefix_caching: bool,
}

impl SessionConfig {
    /// A config admitting up to `max_batch` sequences, no deadline, an
    /// unbounded queue, and prefix caching on.
    #[must_use]
    pub fn new(max_batch: usize) -> Self {
        Self {
            max_batch,
            deadline_s: None,
            queue_capacity: 0,
            prefix_caching: true,
        }
    }

    /// Sets the completion deadline, seconds.
    #[must_use]
    pub fn with_deadline(mut self, deadline_s: f64) -> Self {
        self.deadline_s = Some(deadline_s);
        self
    }

    /// Bounds the waiting queue.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Enables or disables prefix caching (disabled = the no-reuse
    /// baseline the session studies compare against).
    #[must_use]
    pub fn with_prefix_caching(mut self, on: bool) -> Self {
        self.prefix_caching = on;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// A description of the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_batch == 0 {
            return Err("max_batch must be at least 1".into());
        }
        if let Some(d) = self.deadline_s {
            if d.is_nan() || d <= 0.0 {
                return Err("deadline_s must be positive".into());
            }
        }
        Ok(())
    }
}

/// Report of a session-trace run: the standard serving metrics plus
/// TTFT-equivalent percentiles (queue wait + prefill — the instant the
/// first token exists) and prefix-cache effectiveness.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Standard serving metrics (latency/wait percentiles, energy/query,
    /// shed/failed counts, SLO attainment against the offered total).
    pub serving: ServingReport,
    /// Requests offered by the trace.
    pub offered: usize,
    /// Mean time-to-first-token equivalent, seconds.
    pub avg_ttft_s: f64,
    /// p99 time-to-first-token equivalent, seconds.
    pub p99_ttft_s: f64,
    /// On-time completions per wall-clock second — the study's goodput.
    pub goodput_qps: f64,
    /// Prompt tokens across admitted requests.
    pub admitted_prompt_tokens: u64,
    /// Admitted prompt tokens served from the prefix cache (no prefill).
    pub cached_prompt_tokens: u64,
    /// `cached_prompt_tokens / admitted_prompt_tokens` (0 when nothing was
    /// admitted).
    pub prefix_hit_rate: f64,
    /// Prefix-tree behaviour counters (all zero with caching disabled).
    pub prefix: PrefixCacheStats,
}

impl PartialEq for SessionReport {
    /// Bitwise float comparison (NaN == NaN), like [`ServingReport`]'s —
    /// the determinism and regression tests compare whole reports.
    fn eq(&self, other: &Self) -> bool {
        let b = |x: f64, y: f64| x.to_bits() == y.to_bits();
        self.serving == other.serving
            && self.offered == other.offered
            && b(self.avg_ttft_s, other.avg_ttft_s)
            && b(self.p99_ttft_s, other.p99_ttft_s)
            && b(self.goodput_qps, other.goodput_qps)
            && self.admitted_prompt_tokens == other.admitted_prompt_tokens
            && self.cached_prompt_tokens == other.cached_prompt_tokens
            && b(self.prefix_hit_rate, other.prefix_hit_rate)
            && self.prefix == other.prefix
    }
}

/// Replays `cfg`'s exact legacy Poisson stream as a uniform, unprefixed
/// session trace: the oracle input under which
/// [`simulate_serving_sessions`] must match
/// [`crate::serving::simulate_serving_continuous`] bit for bit on drained
/// queues, or at any load one sequence at a time.
///
/// # Panics
///
/// As [`ArrivalGen::new`]: if `cfg.arrival_qps` is not finite and
/// positive.
#[must_use]
pub fn uniform_session_trace(cfg: &ServingConfig, seed: u64) -> Vec<SessionRequest> {
    let mut arrivals = ArrivalGen::new(ArrivalProcess::PoissonLegacy, cfg.arrival_qps, seed);
    (0..cfg.queries)
        .map(|_| SessionRequest {
            arrival_s: arrivals.next_arrival(),
            prompt_tokens: cfg.prompt_tokens,
            output_tokens: cfg.output_tokens,
            prefix: Vec::new(),
        })
        .collect()
}

/// Serves an arrival-sorted request source (`None` ends the trace; a lazy
/// generator keeps memory independent of trace length) on one device. Each
/// request is admitted individually with its own shape and prefix
/// signature; cache-aware admission sees the stepper's *effective* free
/// space because prefixed admission evicts cold tree paths on demand.
///
/// The device is the one calm replica of the fleet event loop in
/// [`crate::cluster`], fed a queue whose items carry their own shape: the
/// config maps onto a [`ServingConfig`] with no retries and no degradation,
/// and prefix signatures are stripped when caching is off. Outages the
/// engine raises itself apply as on any replica: a battery brown-out fails
/// the in-flight requests and the device resumes once recharged. A device
/// with no recharge path strands the rest of the trace, which still counts
/// as offered (and so against SLO attainment).
///
/// # Errors
///
/// [`EngineError::InvalidRequest`] for invalid configs and
/// [`EngineError::OutOfMemory`] when the model's weights alone exceed the
/// device budget. Per-request admission failures never abort the run: the
/// request waits while the batch drains and is dropped (counted failed)
/// only if it cannot fit an idle device.
pub fn simulate_serving_sessions(
    engine: &mut InferenceEngine,
    model: ModelId,
    prec: Precision,
    cfg: &SessionConfig,
    mut source: impl FnMut() -> Option<SessionRequest>,
) -> Result<SessionReport, EngineError> {
    cfg.validate().map_err(EngineError::InvalidRequest)?;
    // Requests bring their own shape and count; only the scheduler knobs
    // carry over.
    let serving = ServingConfig {
        deadline_s: cfg.deadline_s,
        queue_capacity: cfg.queue_capacity,
        ..ServingConfig::new(1.0, cfg.max_batch, 1, 1, 1)
    };
    let caching = cfg.prefix_caching;
    let trace = PendingQueue::with_source(Trace(move || {
        let mut q = source()?;
        if !caching {
            q.prefix = Vec::new();
        }
        Some(q)
    }));
    let calm = ClusterConfig::new(1, engine.config().clone());
    let mut device = [Replica::new(engine, model, prec)?];
    let mut run = run_fleet(
        &calm,
        &mut device,
        &serving,
        SchedulerKind::Continuous,
        trace,
    );
    let serving = run.report.fleet;
    let goodput_qps = if serving.wall_s > 0.0 {
        (serving.completed - serving.deadline_misses) as f64 / serving.wall_s
    } else {
        0.0
    };
    let prefix_hit_rate = if run.prompt_tokens > 0 {
        run.cached_tokens as f64 / run.prompt_tokens as f64
    } else {
        0.0
    };
    let [p99_ttft_s] = run.ttft.percentiles([99.0]);
    Ok(SessionReport {
        serving,
        offered: run.offered,
        avg_ttft_s: run.ttft.mean(),
        p99_ttft_s,
        goodput_qps,
        admitted_prompt_tokens: run.prompt_tokens,
        cached_prompt_tokens: run.cached_tokens,
        prefix_hit_rate,
        prefix: device[0].stepper.prefix_stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::serving::simulate_serving_continuous;

    fn engine(seed: u64) -> InferenceEngine {
        InferenceEngine::new(EngineConfig::vllm(), seed)
    }

    fn run_trace(trace: Vec<SessionRequest>, cfg: &SessionConfig, seed: u64) -> SessionReport {
        let mut e = engine(seed);
        let mut it = trace.into_iter();
        simulate_serving_sessions(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, cfg, || {
            it.next()
        })
        .expect("runs")
    }

    #[test]
    fn drained_uniform_trace_matches_continuous_loop() {
        let ucfg = ServingConfig::new(1e-4, 8, 16, 128, 128);
        let trace = uniform_session_trace(&ucfg, 11);
        let got = run_trace(trace, &SessionConfig::new(8), 11);
        let mut ce = engine(11);
        let want =
            simulate_serving_continuous(&mut ce, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &ucfg, 11)
                .expect("runs");
        assert_eq!(got.serving, want, "drained sessions must be the DES loop");
        assert_eq!(got.offered, 16);
        assert_eq!(got.prefix_hit_rate, 0.0);
    }

    #[test]
    fn shared_template_prefix_cuts_ttft_and_energy() {
        // Ten sequential requests sharing a long template: the first pays
        // full prefill and seeds the tree; the rest reuse it.
        let template: Vec<u64> = (0..40).map(|b| 0xabc0 + b).collect();
        let mk = |cache: bool| {
            let trace: Vec<SessionRequest> = (0..10)
                .map(|i| SessionRequest {
                    arrival_s: i as f64 * 1e4,
                    prompt_tokens: 672, // 40 template blocks + 32 private
                    output_tokens: 32,
                    prefix: template.clone(),
                })
                .collect();
            run_trace(trace, &SessionConfig::new(4).with_prefix_caching(cache), 7)
        };
        let cached = mk(true);
        let baseline = mk(false);
        assert!(cached.prefix_hit_rate > 0.8, "{}", cached.prefix_hit_rate);
        assert_eq!(baseline.prefix_hit_rate, 0.0);
        assert!(
            cached.avg_ttft_s < 0.6 * baseline.avg_ttft_s,
            "cached {} vs baseline {}",
            cached.avg_ttft_s,
            baseline.avg_ttft_s
        );
        assert!(
            cached.serving.energy_per_query_j < baseline.serving.energy_per_query_j,
            "reuse must save energy"
        );
        assert_eq!(cached.serving.completed, 10);
    }

    #[test]
    fn session_runs_are_deterministic() {
        let template: Vec<u64> = (0..8).map(|b| 0x9_0000 + b).collect();
        let mk = || {
            let trace: Vec<SessionRequest> = (0..30)
                .map(|i| SessionRequest {
                    arrival_s: i as f64 * 0.5,
                    prompt_tokens: 200 + (i % 3) * 64,
                    output_tokens: 48,
                    prefix: template[..(i % 9).min(8)].to_vec(),
                })
                .collect();
            run_trace(trace, &SessionConfig::new(4).with_deadline(400.0), 13)
        };
        assert_eq!(mk(), mk());
    }
}
