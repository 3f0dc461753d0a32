//! The retired per-boundary-scan continuous scheduler, kept verbatim as a
//! regression oracle.
//!
//! Before the discrete-event rewrite (`crate::des`), the continuous loop
//! pre-expanded every arrival into a `Vec<QueryState>` and re-scanned the
//! full pending vector at every scheduling boundary — O(total queries) per
//! boundary, quadratic per run. That implementation lives on here, frozen,
//! so the test suite can assert the production loop (the one-replica fleet
//! of [`crate::cluster`]) replays it bit for bit (same decisions, same RNG
//! draws, same float summation order, same report bits). It is exercised only at small query
//! counts; do not use it for large traces.

use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;

use crate::engine::InferenceEngine;
use crate::request::GenerationRequest;
use crate::serving::{
    effective_batch, effective_out_tokens, poisson_arrivals, restore_pending, retry_or_drop, Accum,
    ServingConfig, ServingReport, MAX_DEGRADE_LEVEL,
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
/// bit-identical reports to this function (asserted in
/// `tests/des_regression.rs`) on every configuration but two this loop
/// never modelled: battery brown-outs, which it ignores, and a drained
/// batch that recompute preemption retires before the stepper's own clock,
/// where it snaps the wall clock back to the completion.
///
/// # Errors
///
/// As [`crate::serving::simulate_serving_continuous`].
pub fn simulate_serving_continuous_reference(
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
                let failed_ids = stepper.fail_all();
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
