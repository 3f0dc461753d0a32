//! The retired per-boundary-scan continuous scheduler, kept verbatim as a
//! test-only regression oracle.
//!
//! Before the discrete-event rewrite (`crate::des`), the continuous loop
//! pre-expanded every arrival into a `Vec<QueryState>` and re-scanned the
//! full pending vector at every scheduling boundary — O(total queries) per
//! boundary, quadratic per run. That implementation lives on here, frozen
//! and compiled only for tests, so the suite can assert the production
//! loop (the one-replica fleet of [`crate::cluster`]) replays it bit for
//! bit (same decisions, same RNG draws, same float summation order, same
//! report bits). It is exercised only at small query counts.

use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_soc::rng::Rng;
use edgereasoning_soc::stats;

use crate::engine::InferenceEngine;
use crate::request::GenerationRequest;
use crate::serving::{
    effective_batch, effective_out_tokens, ServingConfig, ServingReport, MAX_DEGRADE_LEVEL,
};
use crate::stepper::{BatchStepper, SlotId};
use crate::EngineError;

/// An admitted-but-unfinished slot in the reference scheduler.
struct LiveSlot {
    id: SlotId,
    admit_s: f64,
    members: Vec<usize>,
}

/// The pre-DES continuous (iteration-level) serving loop, unchanged from
/// the implementation that shipped before the discrete-event core. The
/// production [`crate::serving::simulate_serving_continuous`] must produce
/// bit-identical reports to this function on every configuration but two
/// this loop never modelled: battery brown-outs, which it ignores, and a
/// drained batch that recompute preemption retires before the stepper's
/// own clock, where it snaps the wall clock back to the completion.
fn simulate_serving_continuous_reference(
    engine: &mut InferenceEngine,
    model: ModelId,
    prec: Precision,
    cfg: &ServingConfig,
    seed: u64,
) -> Result<ServingReport, EngineError> {
    cfg.validate()
        .map_err(|e| EngineError::InvalidRequest(e.to_string()))?;
    let mut queries = poisson_arrivals(cfg, seed);
    let mut pending: Vec<usize> = (0..cfg.queries).collect();
    let mut stepper = BatchStepper::new(engine, model, prec)?;
    let mut live: Vec<LiveSlot> = Vec::new();
    let mut now = 0.0f64;
    // Latest completion instant seen so far; when the stepper drains, the
    // wall clock snaps to it (this is what makes the drained schedule
    // bit-identical to the static loop, whose clock advances by the
    // jittered outcome latency rather than the stepper's internal clock).
    let mut drain_now = 0.0f64;
    let mut level: u32 = 0;
    let mut acc = Accum::default();

    while !pending.is_empty() || stepper.is_busy() {
        if !stepper.is_busy() && !pending.is_empty() {
            // Idle: jump to the earliest ready instant.
            let min_ready = pending
                .iter()
                .map(|&i| queries[i].ready_s)
                .fold(f64::INFINITY, f64::min);
            if now < min_ready {
                now = min_ready;
            }
        }

        // Admission control, evaluated at every scheduling boundary
        // (identical rules to the static loop; at drained-queue loads they
        // fire at the same instants and decisions).
        if let Some(d) = cfg.deadline_s {
            let before = pending.len();
            pending.retain(|&i| now <= queries[i].arrival_s + d);
            if pending.len() != before {
                acc.shed += before - pending.len();
                continue;
            }
        }
        if cfg.queue_capacity > 0 {
            let waiting: Vec<usize> = pending
                .iter()
                .copied()
                .filter(|&i| queries[i].ready_s <= now)
                .collect();
            if waiting.len() > cfg.queue_capacity {
                let excess = &waiting[cfg.queue_capacity..];
                pending.retain(|i| !excess.contains(i));
                acc.shed += excess.len();
                continue;
            }
        }

        // Iteration-level admission: fill the headroom the running batch
        // leaves under the (possibly degraded) batch limit.
        let eff_batch = effective_batch(cfg, level);
        let room = eff_batch.saturating_sub(stepper.live_queries());
        if room > 0 {
            let mut group = Vec::with_capacity(room);
            for &i in &pending {
                if queries[i].ready_s <= now {
                    group.push(i);
                    if group.len() == room {
                        break;
                    }
                }
            }
            if !group.is_empty() {
                let out_tokens = effective_out_tokens(cfg, level);
                let req =
                    GenerationRequest::new(cfg.prompt_tokens, out_tokens).with_batch(group.len());
                match stepper.admit(engine, now, &req) {
                    Ok(adm) => {
                        pending.retain(|i| !group.contains(i));
                        live.push(LiveSlot {
                            id: adm.id,
                            admit_s: now,
                            members: group,
                        });
                        now = adm.end_s;
                    }
                    Err(_) => {
                        retry_or_drop(
                            &mut queries,
                            &mut pending,
                            &group,
                            now,
                            cfg,
                            &mut acc.retries,
                            &mut acc.failed,
                        );
                        if cfg.degradation {
                            level = (level + 1).min(MAX_DEGRADE_LEVEL);
                        }
                    }
                }
                continue;
            }
        }
        if !stepper.is_busy() {
            // Nothing admitted and nothing running (e.g. every ready query
            // was just requeued with backoff): wait for the next instant.
            continue;
        }

        // One decode iteration for the whole mixed-context batch.
        match stepper.step(engine) {
            Ok(out) => {
                now = out.end_s;
                for f in out.retired {
                    let Some(pos) = live.iter().position(|s| s.id == f.id) else {
                        continue;
                    };
                    let slot = live.remove(pos);
                    let service = f.outcome.total_latency_s() + f.extra_wait_s;
                    let completion = slot.admit_s + service;
                    drain_now = drain_now.max(completion);
                    let mut step_missed = false;
                    for &i in &slot.members {
                        let latency = completion - queries[i].arrival_s;
                        acc.latencies.push(latency);
                        acc.queue_waits.push(slot.admit_s - queries[i].arrival_s);
                        if let Some(d) = cfg.deadline_s {
                            if latency > d {
                                acc.deadline_misses += 1;
                                step_missed = true;
                            }
                        }
                    }
                    acc.energy += f.outcome.total_energy_j();
                    acc.tokens += f.outcome.total_generated_tokens() as f64;
                    acc.batches.push(slot.members.len() as f64);
                    acc.preemptions += f.outcome.preemptions;
                    if level > 0 {
                        acc.degraded_s += service;
                    }
                    if cfg.degradation {
                        if f.outcome.throttled_s > 0.0 || step_missed {
                            level = (level + 1).min(MAX_DEGRADE_LEVEL);
                        } else {
                            level = level.saturating_sub(1);
                        }
                    }
                }
                if !stepper.is_busy() {
                    // Drained: completions (which carry the run-level
                    // jitter) define the wall clock, exactly as in the
                    // static loop.
                    now = drain_now;
                }
            }
            Err(_) => {
                // The whole batch is stuck (e.g. an unplaceable waiting
                // group): fail every live slot and run the retry machinery.
                let (failed_ids, _) = stepper.fail_all();
                for id in failed_ids {
                    let Some(pos) = live.iter().position(|s| s.id == id) else {
                        continue;
                    };
                    let slot = live.remove(pos);
                    // In-flight members left the pending queue at admission;
                    // put them back before the retry machinery decides
                    // their fate (they used to vanish uncounted here).
                    restore_pending(&mut pending, &slot.members);
                    retry_or_drop(
                        &mut queries,
                        &mut pending,
                        &slot.members,
                        now,
                        cfg,
                        &mut acc.retries,
                        &mut acc.failed,
                    );
                }
                if cfg.degradation {
                    level = (level + 1).min(MAX_DEGRADE_LEVEL);
                }
            }
        }
    }

    Ok(acc.into_report(cfg, now))
}

/// Per-query scheduling state.
struct QueryState {
    arrival_s: f64,
    ready_s: f64,
    attempts: u32,
}

/// The legacy Poisson stream, pre-expanded (the same draws as
/// [`ArrivalProcess::PoissonLegacy`](crate::arrivals::ArrivalProcess::PoissonLegacy)).
fn poisson_arrivals(cfg: &ServingConfig, seed: u64) -> Vec<QueryState> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x005e_5256);
    let mut queries = Vec::with_capacity(cfg.queries);
    let mut t = 0.0;
    for _ in 0..cfg.queries {
        t += -rng.next_f64().max(1e-12).ln() / cfg.arrival_qps;
        queries.push(QueryState {
            arrival_s: t,
            ready_s: t,
            attempts: 0,
        });
    }
    queries
}

/// Stored-sample metric accumulators (the production loop streams into
/// [`crate::telemetry::ServingAccumulator`] instead).
#[derive(Default)]
struct Accum {
    latencies: Vec<f64>,
    queue_waits: Vec<f64>,
    energy: f64,
    tokens: f64,
    batches: Vec<f64>,
    shed: usize,
    failed: usize,
    retries: usize,
    preemptions: usize,
    deadline_misses: usize,
    degraded_s: f64,
}

impl Accum {
    fn into_report(self, cfg: &ServingConfig, now: f64) -> ServingReport {
        let completed = self.latencies.len();
        let slo_attainment = if completed == 0 {
            0.0
        } else {
            (completed - self.deadline_misses) as f64 / cfg.queries as f64
        };
        ServingReport {
            completed,
            achieved_qps: if now > 0.0 {
                completed as f64 / now
            } else {
                0.0
            },
            avg_latency_s: stats::mean(&self.latencies).unwrap_or(0.0),
            p50_latency_s: stats::percentile(&self.latencies, 50.0).unwrap_or(f64::NAN),
            p95_latency_s: stats::percentile(&self.latencies, 95.0).unwrap_or(f64::NAN),
            avg_batch: stats::mean(&self.batches).unwrap_or(0.0),
            energy_per_query_j: if completed == 0 {
                f64::NAN
            } else {
                self.energy / completed as f64
            },
            wall_s: now,
            total_tokens: self.tokens,
            failed_queries: self.failed,
            shed_queries: self.shed,
            retries: self.retries,
            preemptions: self.preemptions,
            deadline_misses: self.deadline_misses,
            deadline_miss_rate: if completed == 0 {
                0.0
            } else {
                self.deadline_misses as f64 / completed as f64
            },
            p99_latency_s: stats::percentile(&self.latencies, 99.0).unwrap_or(f64::NAN),
            degraded_s: self.degraded_s,
            slo_attainment,
            avg_queue_wait_s: stats::mean(&self.queue_waits).unwrap_or(0.0),
            p99_queue_wait_s: stats::percentile(&self.queue_waits, 99.0).unwrap_or(f64::NAN),
        }
    }
}

/// Re-inserts voided in-flight queries into the pending queue at their
/// arrival-order positions (the queue is always sorted by query index,
/// which is arrival order).
fn restore_pending(pending: &mut Vec<usize>, members: &[usize]) {
    for &i in members {
        if let Err(pos) = pending.binary_search(&i) {
            pending.insert(pos, i);
        }
    }
}

/// Requeues each member of a failed batch with exponential backoff, or
/// drops it (counting it failed) once its retries are exhausted. The
/// exponent is clamped so deep retry chains saturate the backoff instead
/// of overflowing the `1u32 << exp` shift (debug builds panic at 32).
fn retry_or_drop(
    queries: &mut [QueryState],
    pending: &mut Vec<usize>,
    members: &[usize],
    now: f64,
    cfg: &ServingConfig,
    retries: &mut usize,
    failed: &mut usize,
) {
    for &i in members {
        queries[i].attempts += 1;
        if queries[i].attempts <= cfg.max_retries {
            *retries += 1;
            let exp = (queries[i].attempts - 1).min(16);
            queries[i].ready_s = now + cfg.retry_backoff_s * f64::from(1u32 << exp);
        }
    }
    pending.retain(|&i| {
        if !members.contains(&i) {
            return true;
        }
        if queries[i].attempts <= cfg.max_retries {
            true
        } else {
            *failed += 1;
            false
        }
    });
}

mod tests {
    use super::*;
    use crate::engine::{EngineConfig, OomPolicy};
    use crate::serving::simulate_serving_continuous;

    fn engine() -> InferenceEngine {
        InferenceEngine::new(EngineConfig::vllm(), 3)
    }

    /// An engine config whose KV budget fits one sequence end to end but not
    /// several.
    fn pressured(policy: OomPolicy, kv_tokens: u64) -> EngineConfig {
        let mut config = EngineConfig::vllm().with_oom_policy(policy);
        let arch = ModelId::Dsr1Qwen1_5b.arch();
        let budget = arch.weight_bytes(Precision::Fp16) + kv_tokens * arch.kv_bytes_per_token();
        config.memory_budget_frac = budget as f64 / config.soc.gpu.dram_capacity as f64;
        config
    }

    fn assert_des_matches_reference(
        cfg: &ServingConfig,
        mk: impl Fn() -> InferenceEngine,
        seed: u64,
    ) {
        let mut de = mk();
        let des =
            simulate_serving_continuous(&mut de, ModelId::Dsr1Qwen1_5b, Precision::Fp16, cfg, seed)
                .expect("des runs");
        let mut re = mk();
        let reference = simulate_serving_continuous_reference(
            &mut re,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            cfg,
            seed,
        )
        .expect("reference runs");
        assert_eq!(
            des, reference,
            "DES report must be bit-identical to the pre-DES loop (seed {seed}, cfg {cfg:?})"
        );
    }

    #[test]
    fn des_matches_reference_when_drained() {
        // Arrivals spaced far past service time: every admission hits an
        // empty stepper. This is also the regime where both equal gang
        // scheduling.
        let cfg = ServingConfig::new(1e-4, 8, 24, 128, 128);
        for seed in [1, 7, 42] {
            assert_des_matches_reference(&cfg, engine, seed);
        }
    }

    #[test]
    fn des_matches_reference_under_load() {
        // Saturating load: continuous admission joins running batches at
        // decode boundaries, exercising mixed-context steps and the
        // drain-snap clock.
        let cfg = ServingConfig::new(2.0, 8, 60, 128, 128);
        for seed in [1, 9, 42] {
            assert_des_matches_reference(&cfg, engine, seed);
        }
    }

    #[test]
    fn des_matches_reference_with_deadline_shedding() {
        // Overload against a single-slot server with an SLO: the deadline
        // pass must shed the same queries at the same boundaries.
        let cfg = ServingConfig::new(2.0, 1, 40, 128, 128).with_deadline(10.0);
        assert_des_matches_reference(&cfg, engine, 5);
    }

    #[test]
    fn des_matches_reference_with_bounded_queue() {
        // Capacity shedding drops the newest waiting queries; the seq-merge
        // cut must pick exactly the entries the legacy `waiting[capacity..]`
        // did.
        let cfg = ServingConfig::new(4.0, 1, 40, 128, 128).with_queue_capacity(2);
        assert_des_matches_reference(&cfg, engine, 5);
    }

    #[test]
    fn des_matches_reference_under_oom_retries_and_degradation() {
        // FailFast OOM pressure with retries, backoff and the degradation
        // ladder: exercises requeue (admission-Err), fail_all (step-Err) and
        // the deferred/wakeup machinery end to end.
        let cfg = ServingConfig::new(2.0, 8, 40, 128, 128)
            .with_retries(3, 1.0)
            .with_degradation(true);
        for seed in [5, 11] {
            assert_des_matches_reference(
                &cfg,
                || InferenceEngine::new(pressured(OomPolicy::FailFast, 1600), 3),
                seed,
            );
        }
    }

    #[test]
    fn des_matches_reference_under_preemption_pressure() {
        let cfg = ServingConfig::new(2.0, 8, 40, 128, 128);
        assert_des_matches_reference(
            &cfg,
            || InferenceEngine::new(pressured(OomPolicy::PreemptRecompute, 1600), 3),
            5,
        );
    }

    #[test]
    fn des_matches_reference_with_all_queries_failing() {
        // Zero completions: NaN percentiles must still compare equal
        // (bitwise report equality treats NaN == NaN).
        let cfg = ServingConfig::new(2.0, 4, 10, 128, 128);
        assert_des_matches_reference(
            &cfg,
            || InferenceEngine::new(pressured(OomPolicy::FailFast, 64), 3),
            5,
        );
    }

    #[test]
    fn deep_retry_chains_saturate_backoff_without_overflow() {
        // Regression: `1u32 << exp` panics in debug builds once attempts
        // reach 32; the exponent clamp must saturate the backoff instead.
        let mut queries = vec![QueryState {
            arrival_s: 0.0,
            ready_s: 0.0,
            attempts: 0,
        }];
        let mut pending = vec![0usize];
        let load = ServingConfig::new(1.0, 8, 60, 128, 128).with_retries(64, 0.5);
        let (mut retries, mut failed) = (0usize, 0usize);
        let mut last_backoff = 0.0;
        for round in 0..64 {
            retry_or_drop(
                &mut queries,
                &mut pending,
                &[0],
                0.0,
                &load,
                &mut retries,
                &mut failed,
            );
            assert_eq!(pending, vec![0], "attempt {round} stays retriable");
            let backoff = queries[0].ready_s;
            assert!(backoff.is_finite() && backoff > 0.0, "finite backoff");
            assert!(backoff >= last_backoff, "backoff never shrinks");
            last_backoff = backoff;
        }
        // Saturated: clamped exponent means the last doublings are flat.
        assert_eq!(last_backoff, 0.5 * f64::from(1u32 << 16));
        assert_eq!(retries, 64);
        // The 65th attempt exhausts the budget and drops the query.
        retry_or_drop(
            &mut queries,
            &mut pending,
            &[0],
            0.0,
            &load,
            &mut retries,
            &mut failed,
        );
        assert!(pending.is_empty());
        assert_eq!(failed, 1);
    }
}
