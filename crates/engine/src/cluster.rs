//! Fleet serving: N replicated edge devices behind a deterministic router.
//!
//! The paper characterizes one Jetson AGX Orin; a production deployment is
//! a *fleet* of them, and edge fleets are unreliable — devices overheat,
//! brown out, and reboot. This module simulates N replicas (each its own
//! [`InferenceEngine`] + [`FaultSchedule`] + continuous [`BatchStepper`]
//! loop) serving one shared arrival stream behind a router that
//! implements the three classic fleet-robustness mechanisms:
//!
//! * **health-checked routing** — replicas are [`ReplicaHealth::Up`],
//!   [`Degraded`](ReplicaHealth::Degraded) (sustained throttling) or
//!   [`Down`](ReplicaHealth::Down) (inside a crash window); admission
//!   prefers healthy, least-loaded replicas (most free KV-cache tokens,
//!   capacity-gated via `would_fit_capacity`);
//! * **failover** — a
//!   [`FaultKind::DeviceCrash`](edgereasoning_soc::faults::FaultKind::DeviceCrash)
//!   window zeroes the replica's KV cache and voids every in-flight
//!   sequence; voided sequences re-enter the queue with their
//!   retry/backoff budget and are recomputed on a surviving replica
//!   (counted as `crash_lost` / `crash_recovered`, distinct from OOM
//!   preemptions); the restart pays a cold-start penalty on top of the
//!   repair window;
//! * **request hedging** — an admitted request outstanding (since
//!   arrival) longer than `hedge_factor ×` the fleet's running (EWMA)
//!   latency estimate is cloned onto a second replica; the first copy to
//!   complete wins and the loser is cancelled with its accrued energy
//!   still booked (a hedge's cost is real even when it loses).
//!
//! # One serving loop
//!
//! [`simulate_cluster`] builds each replica's engine and weather;
//! `run_fleet`, the event loop over replicas that borrow their engines, is
//! the only serving loop. [`simulate_serving_continuous`] runs it over one
//! calm replica on the caller's engine, so a single device and
//! `ClusterConfig::new(1, ..)` serve the same schedule by construction.
//! [`simulate_serving`] runs the same replica under gang scheduling, an
//! admission rule of the loop that gives a busy replica no room.
//! [`simulate_serving_sessions`] runs it the same way on a queue of
//! requests that carry their own shape; the queue's source type selects
//! the own-shape admission rules at compile time (see `run_fleet`), so
//! brown-outs, the self-audit and every other fleet mechanism reach
//! session traffic with no code of its own.
//!
//! # Layout of the loop
//!
//! `run_fleet` keeps its state in one private struct with a handler per
//! event. The router picks the replica and instant that act next; an
//! outage (crash window or battery brown-out) or a detected partition
//! takes the iteration, or else the batching boundary runs its deadline,
//! capacity and aging sheds, admission, the idle wait, hedging, and one
//! decode step that retires finished slots (or a stuck step). The final
//! report ends with the drain audit. Every decision the handlers share has
//! one home: one routine voids a slot (a live hedge twin keeps its queries,
//! otherwise they are requeued and counted by cause), one fails a whole
//! replica (outages and stuck steps), one books voided joules, one launches
//! a slot (admissions and hedge clones), and replica methods take the
//! failure step, go down until an instant and walk the crash and
//! partition windows.
//!
//! # Determinism
//!
//! The simulation is a single-threaded discrete-event loop: at every
//! iteration the replica with the earliest actionable instant executes one
//! scheduling step of the serving loop (ties break by health, then the
//! warmest prefix cache, then free KV tokens, then index). Each replica draws from its own RNG
//! lanes — engine noise, disturbance weather and crash weather are all
//! seeded per replica via `item_seed` — so reports are bit-identical
//! across runs and across `par_map_deterministic` thread counts.
//!
//! [`simulate_serving_continuous`]: crate::serving::simulate_serving_continuous
//! [`simulate_serving`]: crate::serving::simulate_serving
//! [`simulate_serving_sessions`]: crate::session::simulate_serving_sessions

use std::cmp::Reverse;
use std::ops::ControlFlow;

use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_soc::faults::{DomainConfig, DomainSchedule, FaultSchedule};
use edgereasoning_soc::runtime::item_seed;
use edgereasoning_soc::thermal::GovernanceStats;
use serde::{Deserialize, Serialize};

use crate::arrivals::ArrivalProcess;
use crate::des::{PendingQueue, QKey, Source};
use crate::engine::{EngineConfig, InferenceEngine};
use crate::request::GenerationRequest;
use crate::serving::{
    effective_batch, effective_out_tokens, AdmissionPolicy, AdmissionState, ClassBreakdown,
    SchedulerKind, ServingConfig, ServingReport, MAX_DEGRADE_LEVEL,
};
use crate::stepper::{AdmitOutcome, BatchStepper, FinishedSlot, SlotId};
use crate::telemetry::{Distribution, Ewma, ServingAccumulator};
use crate::EngineError;

/// Seed-lane tags: every replica derives independent engine / disturbance /
/// crash RNG streams from the caller's seed (replica 0 keeps the caller's
/// engine seed so a one-replica fleet *is* the single-device simulation).
const ENGINE_LANE: u64 = 0x00f1_ee70;
const FAULT_LANE: u64 = 0x00fa_0175;
const CRASH_LANE: u64 = 0x00c7_a511;

/// Smoothing of the fleet's running latency estimate that arms hedging.
const HEDGE_EWMA_ALPHA: f64 = 0.2;

/// Consecutive throttled retirements before a replica reads as Degraded.
const DEGRADED_STREAK: u32 = 2;

/// Smoothing of each circuit breaker's per-replica latency estimate.
const BREAKER_EWMA_ALPHA: f64 = 0.2;

/// Router-side timeout before a network partition is *detected*: until
/// this long after the window opens, the partitioned replica still looks
/// Up and the router keeps waiting on it.
const PARTITION_DETECT_S: f64 = 0.75;

/// Crash/restart weather for one fleet (applied per replica on its own
/// seed lane).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CrashConfig {
    /// Mean time between failures, seconds (`<= 0` disables crashes).
    pub mtbf_s: f64,
    /// Mean time to repair, seconds (the outage window length).
    pub mttr_s: f64,
    /// Cold-start penalty after each repair: weights reload, caches warm.
    pub cold_start_s: f64,
}

impl CrashConfig {
    /// No crashes — the bit-exact-with-single-device configuration.
    #[must_use]
    pub fn none() -> Self {
        Self {
            mtbf_s: 0.0,
            mttr_s: 0.0,
            cold_start_s: 0.0,
        }
    }

    /// Whether this configuration produces any crash windows.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.mtbf_s > 0.0 && self.mtbf_s.is_finite()
    }
}

/// Per-replica circuit-breaker policy: trip on consecutive failures or an
/// EWMA latency blowout, cool down, then probe half-open before rejoining.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive failures (admission or step errors) that trip the
    /// breaker open.
    pub failure_threshold: u32,
    /// A retirement slower than this multiple of the replica's own EWMA
    /// service estimate trips the breaker (latency blowout).
    pub latency_factor: f64,
    /// Seconds the breaker stays Open before allowing half-open probes.
    pub cooldown_s: f64,
    /// Consecutive half-open successes required to close again (rejoin).
    pub half_open_probes: u32,
}

impl BreakerConfig {
    /// A conservative default for edge fleets: trip after 3 consecutive
    /// failures or a 4x latency blowout, cool down 30 s, rejoin after 2
    /// clean probes.
    #[must_use]
    pub fn edge_default() -> Self {
        Self {
            failure_threshold: 3,
            latency_factor: 4.0,
            cooldown_s: 30.0,
            half_open_probes: 2,
        }
    }
}

/// Circuit-breaker state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BreakerState {
    /// Serving normally.
    Closed,
    /// Tripped: no admissions until `until_s`.
    Open {
        /// Instant half-open probing may begin.
        until_s: f64,
    },
    /// Probing: serving, counting consecutive successes toward rejoin.
    HalfOpen {
        /// Clean probes completed so far.
        successes: u32,
    },
}

/// One replica's circuit breaker.
#[derive(Debug, Clone)]
struct Breaker {
    cfg: BreakerConfig,
    state: BreakerState,
    fail_streak: u32,
    /// Per-replica service-time estimate, seeded from the first
    /// observation (a cold replica must not look infinitely fast).
    lat_est: Ewma,
    trips: usize,
    rejoins: usize,
}

impl Breaker {
    fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            state: BreakerState::Closed,
            fail_streak: 0,
            lat_est: Ewma::new(BREAKER_EWMA_ALPHA),
            trips: 0,
            rejoins: 0,
        }
    }

    /// Whether the breaker blocks admission at instant `t`.
    fn is_open_at(&self, t: f64) -> bool {
        matches!(self.state, BreakerState::Open { until_s } if t < until_s)
    }

    /// The Open deadline, if currently Open.
    fn open_until(&self) -> Option<f64> {
        match self.state {
            BreakerState::Open { until_s } => Some(until_s),
            _ => None,
        }
    }

    /// Lazily advances Open past its cooldown into HalfOpen.
    fn poll(&mut self, now: f64) {
        if let BreakerState::Open { until_s } = self.state {
            if now >= until_s {
                self.state = BreakerState::HalfOpen { successes: 0 };
            }
        }
    }

    fn trip(&mut self, now: f64) {
        self.state = BreakerState::Open {
            until_s: now + self.cfg.cooldown_s,
        };
        self.trips += 1;
        self.fail_streak = 0;
    }

    fn on_failure(&mut self, now: f64) {
        if matches!(self.state, BreakerState::HalfOpen { .. }) {
            // A failed probe re-opens immediately.
            self.trip(now);
            return;
        }
        self.fail_streak += 1;
        if self.fail_streak >= self.cfg.failure_threshold {
            self.trip(now);
        }
    }

    fn on_success(&mut self, service_s: f64, now: f64) {
        // Blowout check against the estimate *before* this observation
        // folds in (the slow sample must not dilute its own threshold).
        if let Some(est) = self.lat_est.get() {
            if service_s > self.cfg.latency_factor * est {
                self.lat_est.observe(service_s);
                self.trip(now);
                return;
            }
        }
        self.fail_streak = 0;
        if let BreakerState::HalfOpen { successes } = self.state {
            let successes = successes + 1;
            if successes >= self.cfg.half_open_probes {
                self.state = BreakerState::Closed;
                self.rejoins += 1;
            } else {
                self.state = BreakerState::HalfOpen { successes };
            }
        }
        self.lat_est.observe(service_s);
    }
}

/// Fleet topology + robustness policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Replicated devices serving the shared stream.
    pub replicas: usize,
    /// Per-device engine configuration (each replica gets its own copy).
    pub engine: EngineConfig,
    /// Per-replica disturbance-weather intensity (see
    /// [`FaultSchedule::generate`]); `0.0` = clear skies.
    pub fault_intensity: f64,
    /// Crash/restart weather.
    pub crash: CrashConfig,
    /// Hedge a request once its in-flight age exceeds this multiple of the
    /// fleet's running latency estimate (`None` disables hedging).
    pub hedge_factor: Option<f64>,
    /// Horizon for fault/crash schedule generation, seconds.
    pub horizon_s: f64,
    /// Block-granular prefix signature shared by every request (a fleet
    /// serving one prompt template). When set, admissions go through the
    /// per-replica radix prefix cache and the router breaks ties toward
    /// the replica with the longest cached prefix. `None` keeps the
    /// legacy unprefixed path bit for bit.
    pub shared_prefix: Option<Vec<u64>>,
    /// Per-replica circuit breakers (`None` = no breaking, the legacy
    /// routing path bit for bit).
    #[serde(default)]
    pub breaker: Option<BreakerConfig>,
    /// Correlated failure domains (power / thermal / network groups whose
    /// members fail together). Empty = bit-identical to today.
    #[serde(default)]
    pub domains: Vec<DomainConfig>,
}

impl ClusterConfig {
    /// A fleet of `replicas` identical devices with every robustness
    /// mechanism off.
    #[must_use]
    pub fn new(replicas: usize, engine: EngineConfig) -> Self {
        Self {
            replicas,
            engine,
            fault_intensity: 0.0,
            crash: CrashConfig::none(),
            hedge_factor: None,
            horizon_s: 3600.0,
            shared_prefix: None,
            breaker: None,
            domains: Vec::new(),
        }
    }

    /// Arms per-replica circuit breakers, builder-style.
    #[must_use]
    pub fn with_breaker(mut self, breaker: BreakerConfig) -> Self {
        self.breaker = Some(breaker);
        self
    }

    /// Groups replicas into correlated failure domains, builder-style.
    #[must_use]
    pub fn with_domains(mut self, domains: Vec<DomainConfig>) -> Self {
        self.domains = domains;
        self
    }

    /// Routes every request through the per-replica prefix caches under
    /// the given shared template signature, builder-style.
    #[must_use]
    pub fn with_shared_prefix(mut self, prefix: Vec<u64>) -> Self {
        self.shared_prefix = Some(prefix);
        self
    }

    /// Sets the disturbance-weather intensity, builder-style.
    #[must_use]
    pub fn with_fault_intensity(mut self, intensity: f64) -> Self {
        self.fault_intensity = intensity;
        self
    }

    /// Sets the crash weather, builder-style.
    #[must_use]
    pub fn with_crashes(mut self, crash: CrashConfig) -> Self {
        self.crash = crash;
        self
    }

    /// Enables request hedging at the given wait multiple, builder-style.
    #[must_use]
    pub fn with_hedging(mut self, factor: f64) -> Self {
        self.hedge_factor = Some(factor);
        self
    }

    /// Sets the fault/crash generation horizon, builder-style.
    #[must_use]
    pub fn with_horizon(mut self, horizon_s: f64) -> Self {
        self.horizon_s = horizon_s;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.replicas == 0 {
            return Err("cluster needs at least one replica".into());
        }
        if !self.fault_intensity.is_finite() || self.fault_intensity < 0.0 {
            return Err("fault_intensity must be finite and non-negative".into());
        }
        if !self.horizon_s.is_finite() || self.horizon_s <= 0.0 {
            return Err("horizon_s must be finite and positive".into());
        }
        if self.crash.mtbf_s.is_nan() || self.crash.mttr_s.is_nan() {
            return Err("crash times must not be NaN".into());
        }
        if self.crash.enabled() && (self.crash.mttr_s <= 0.0 || !self.crash.mttr_s.is_finite()) {
            return Err("mttr_s must be finite and positive when crashes are on".into());
        }
        if !self.crash.cold_start_s.is_finite() || self.crash.cold_start_s < 0.0 {
            return Err("cold_start_s must be finite and non-negative".into());
        }
        if let Some(f) = self.hedge_factor {
            if !f.is_finite() || f <= 0.0 {
                return Err("hedge_factor must be finite and positive".into());
            }
        }
        if let Some(b) = &self.breaker {
            if b.failure_threshold == 0 {
                return Err("breaker failure_threshold must be at least 1".into());
            }
            if !b.latency_factor.is_finite() || b.latency_factor <= 0.0 {
                return Err("breaker latency_factor must be finite and positive".into());
            }
            if !b.cooldown_s.is_finite() || b.cooldown_s <= 0.0 {
                return Err("breaker cooldown_s must be finite and positive".into());
            }
            if b.half_open_probes == 0 {
                return Err("breaker half_open_probes must be at least 1".into());
            }
        }
        for (i, d) in self.domains.iter().enumerate() {
            if let Some(&m) = d.members.iter().find(|&&m| m >= self.replicas) {
                return Err(format!(
                    "domain {i} member {m} is out of range for {} replicas",
                    self.replicas
                ));
            }
            for v in [
                d.crash_mtbf_s,
                d.crash_mttr_s,
                d.event_mtbf_s,
                d.event_duration_s,
            ] {
                if v.is_nan() || v < 0.0 {
                    return Err(format!("domain {i} rates must be non-negative, not NaN"));
                }
            }
            if d.crash_mtbf_s > 0.0 && d.crash_mtbf_s.is_finite() && d.crash_mttr_s <= 0.0 {
                return Err(format!(
                    "domain {i} crash_mttr_s must be positive with crashes on"
                ));
            }
        }
        Ok(())
    }
}

/// Router-visible health of one replica at a scheduling instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReplicaHealth {
    /// Serving normally.
    Up,
    /// Serving, but under sustained throttling — deprioritized by routing.
    Degraded,
    /// Inside a crash window — excluded from routing.
    Down,
}

impl ReplicaHealth {
    fn rank(self) -> u8 {
        match self {
            ReplicaHealth::Up => 0,
            ReplicaHealth::Degraded => 1,
            ReplicaHealth::Down => 2,
        }
    }
}

/// Aggregate fleet metrics: the fleet-level [`ServingReport`] (for one
/// replica with no crashes this *is* the continuous single-device report,
/// bit for bit), the per-replica views, and the robustness counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Fleet-level serving metrics over the shared arrival stream.
    pub fleet: ServingReport,
    /// Per-replica serving metrics (completions booked on each device;
    /// shed/failed/retry counters are fleet-level decisions and stay in
    /// [`ClusterReport::fleet`]).
    pub replicas: Vec<ServingReport>,
    /// Fraction of replica-seconds the fleet was serving (1.0 = no
    /// downtime; each outage contributes repair window + cold start).
    pub availability: f64,
    /// Crash windows the fleet actually hit.
    pub crash_events: usize,
    /// In-flight sequences voided by crashes and re-queued for failover
    /// (distinct from OOM preemptions).
    pub crash_lost: usize,
    /// Crash-voided sequences that later completed on a surviving (or
    /// restarted) replica.
    pub crash_recovered: usize,
    /// Hedge clones launched.
    pub hedges_fired: usize,
    /// Hedge clones that delivered the completion (beat a live original,
    /// or survived it after a crash dissolved the pair).
    pub hedge_wins: usize,
    /// Energy accrued by cancelled hedge losers, joules (already included
    /// in the fleet energy total: a lost hedge still burned the watts).
    pub hedge_energy_j: f64,
    /// Battery brown-out windows the router actually processed (device
    /// Down until recharged; in-flight work voided into failover, like a
    /// crash window but *endogenous* — caused by the fleet's own draw).
    pub brownout_events: usize,
    /// Thermal/battery governance counters summed across replicas, when
    /// the engine config enables closed-loop governance.
    pub governance: Option<GovernanceStats>,
    /// Router↔replica partition windows the router actually detected (the
    /// replica looked Up but stopped answering; detection costs 0.75 s of
    /// wall clock, the router's partition timeout).
    #[serde(default)]
    pub partition_events: usize,
    /// In-flight sequences voided by detected partitions and re-queued
    /// for failover.
    #[serde(default)]
    pub partition_voided: usize,
    /// Circuit-breaker trips summed across replicas (Closed/HalfOpen →
    /// Open transitions).
    #[serde(default)]
    pub breaker_trips: usize,
    /// Breakers that closed again after passing their half-open probes.
    #[serde(default)]
    pub breaker_rejoins: usize,
    /// Fleet energy total, joules: every joule the replicas drew, on
    /// completed and voided work alike (cancelled hedge losers, and slots
    /// voided by crashes, brown-outs, partitions and stuck steps). The
    /// conservation auditor checks it against the per-replica split.
    #[serde(default)]
    pub fleet_energy_j: f64,
    /// Per-replica energy bookings, joules. Sums to `fleet_energy_j`.
    #[serde(default)]
    pub replica_energy_j: Vec<f64>,
    /// Per-priority-class breakdown when admission control is configured.
    #[serde(default)]
    pub classes: Option<ClassBreakdown>,
}

/// One replica's simulation state. The replica borrows its engine, so the
/// single-device entry points run the caller's engine as a one-replica
/// fleet and the caller reads its counters afterwards.
pub(crate) struct Replica<'e> {
    engine: &'e mut InferenceEngine,
    pub(crate) stepper: BatchStepper,
    /// Unconsumed crash outage windows `(start_s, end_s)`, in start order.
    crashes: Vec<(f64, f64)>,
    next_crash: usize,
    /// Consumed outages as `(start_s, recovery_s)` (repair + cold start).
    outages: Vec<(f64, f64)>,
    clock: f64,
    /// Last instant this replica actually served (scheduled, admitted,
    /// stepped or completed) — unlike `clock` it never jumps forward on
    /// the recovery of an *idle* crash, so it is the honest wall clock for
    /// throughput accounting.
    served: f64,
    drain_now: f64,
    level: u32,
    throttle_streak: u32,
    /// Unconsumed router↔replica partition windows `(start_s, end_s)`.
    /// During one of these the replica *looks* Up — only the router's
    /// timeout discovers it (see the partition block in the main loop).
    partitions: Vec<(f64, f64)>,
    next_partition: usize,
    breaker: Option<Breaker>,
}

impl<'e> Replica<'e> {
    /// A calm replica (no crash, partition or breaker weather) serving
    /// `model` at `prec` on `engine`; errors as [`BatchStepper::new`].
    pub(crate) fn new(
        engine: &'e mut InferenceEngine,
        model: ModelId,
        prec: Precision,
    ) -> Result<Self, EngineError> {
        let stepper = BatchStepper::new(engine, model, prec)?;
        Ok(Self {
            engine,
            stepper,
            crashes: Vec::new(),
            next_crash: 0,
            outages: Vec::new(),
            clock: 0.0,
            served: 0.0,
            drain_now: 0.0,
            level: 0,
            throttle_streak: 0,
            partitions: Vec::new(),
            next_partition: 0,
            breaker: None,
        })
    }

    fn health_at(&self, t: f64) -> ReplicaHealth {
        if due(&self.crashes, self.next_crash, t).is_some() {
            return ReplicaHealth::Down;
        }
        // An open battery brown-out window (the governor's clock hasn't
        // reached the recharge point yet) reads as Down so routing and
        // hedge targeting avoid a device that is rebooting.
        if self.engine.governance_down_until().is_some() {
            return ReplicaHealth::Down;
        }
        // An open breaker reads as Down: the router stops offering work
        // until the cooldown elapses. Partitions deliberately do NOT show
        // here — a partitioned replica looks healthy until the router's
        // timeout fires.
        if self.breaker.as_ref().is_some_and(|b| b.is_open_at(t)) {
            return ReplicaHealth::Down;
        }
        if self.throttle_streak >= DEGRADED_STREAK {
            return ReplicaHealth::Degraded;
        }
        ReplicaHealth::Up
    }

    /// Routing tie-break at instant `t`, lowest first: the healthiest, then
    /// the warmest prefix cache (the longest cached part of the fleet's
    /// shared `prefix` for a `prompt_tokens` prompt — zero for every
    /// replica when there is none), then the most free KV tokens.
    fn route_key(&self, t: f64, prefix: &[u64], prompt_tokens: usize) -> RouteKey {
        let cached = if prefix.is_empty() {
            0
        } else {
            self.stepper.cached_prefix_tokens(prefix, prompt_tokens)
        };
        let free = self.stepper.kv_free_tokens();
        (self.health_at(t).rank(), Reverse(cached), Reverse(free))
    }

    /// Batch slots free under the replica's (possibly degraded) limit.
    fn headroom(&self, cfg: &ServingConfig) -> usize {
        effective_batch(cfg, self.level).saturating_sub(self.stepper.live_queries())
    }

    /// Consumes the crash window `(start, end)` that instant `t` has
    /// reached, if any.
    fn take_crash(&mut self, t: f64) -> Option<(f64, f64)> {
        let window = due(&self.crashes, self.next_crash, t)?;
        self.next_crash += 1;
        Some(window)
    }

    /// Walks the partition windows at instant `t`. The router only learns
    /// of a partition after [`PARTITION_DETECT_S`] of silence: a window
    /// that heals first is skipped, and inside the timeout the clock waits
    /// for it.
    fn walk_partition(&mut self, t: f64) -> PartitionWalk {
        let Some((start, end)) = due(&self.partitions, self.next_partition, t) else {
            return PartitionWalk::Clear;
        };
        let detect_at = start + PARTITION_DETECT_S;
        if t >= end || detect_at >= end {
            // Healed before the router acted, or too short for the timeout
            // to fire: invisible.
            self.next_partition += 1;
            return PartitionWalk::Spent;
        }
        if t < detect_at {
            self.clock = detect_at;
            return PartitionWalk::Spent;
        }
        self.next_partition += 1;
        PartitionWalk::Detected(detect_at, end)
    }

    /// Takes the replica down until `until` (an outage's recovery or a
    /// partition's end): its clock and drain instant jump there, and a
    /// configured breaker trips, so the revived replica must pass its
    /// half-open probes before full traffic.
    fn go_down_until(&mut self, until: f64) {
        self.clock = self.clock.max(until);
        self.drain_now = self.drain_now.max(self.clock);
        if let Some(b) = self.breaker.as_mut() {
            b.trip(until);
        }
    }

    /// The failure step after an idle refusal or a stuck step at `now`:
    /// the breaker counts a failure and, with `degradation` on, the
    /// replica degrades one level.
    fn fail_step(&mut self, now: f64, degradation: bool) {
        if let Some(b) = self.breaker.as_mut() {
            b.on_failure(now);
        }
        if degradation {
            self.level = (self.level + 1).min(MAX_DEGRADE_LEVEL);
        }
    }
}

/// The window at `cursor` of `windows` once instant `t` has reached its
/// start: a replica walks its crash and partition windows with one cursor
/// each.
fn due(windows: &[(f64, f64)], cursor: usize, t: f64) -> Option<(f64, f64)> {
    windows
        .get(cursor)
        .copied()
        .filter(|&(start, _)| start <= t)
}

/// A replica's routing tie-break: health rank, then cached prefix tokens
/// and free KV tokens, each reversed so that more sorts first.
type RouteKey = (u8, Reverse<usize>, Reverse<u64>);

/// What the router makes of a replica's next partition window at an
/// instant.
enum PartitionWalk {
    /// No window has opened: the replica serves.
    Clear,
    /// The window healed unseen, or the router is still inside its
    /// timeout: this iteration is spent.
    Spent,
    /// The timeout fires on the window `(detect_at, end)`.
    Detected(f64, f64),
}

/// An in-flight request group on some replica.
struct ClusterSlot {
    /// Fleet-unique handle (admission order); [`SlotId`]s are only unique
    /// per stepper.
    key: u64,
    replica: usize,
    id: SlotId,
    admit_s: f64,
    out_tokens: usize,
    members: Vec<QKey>,
    /// Key of this slot's hedge twin, if one is live.
    pair: Option<u64>,
    /// Whether this slot is the hedge clone (vs the original).
    is_hedge: bool,
}

/// Sorts and coalesces overlapping `(start, end)` windows so the router's
/// one-cursor-per-replica scans stay valid when base weather and domain
/// weather interleave.
fn merge_windows(mut windows: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    windows.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(windows.len());
    for (s, e) in windows {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Runs the deterministic fleet-serving simulation.
///
/// `seed` drives the shared arrival stream and replica 0's engine noise
/// (extra replicas and the fault/crash weather derive per-replica lanes
/// from it), so with `ClusterConfig::new(1, engine_cfg)` the fleet report
/// is bit-identical to [`simulate_serving_continuous`] on an engine seeded
/// with the same `seed` — both run the same event loop over one calm
/// replica.
///
/// # Errors
///
/// Reports invalid configurations as [`EngineError::InvalidRequest`] and
/// propagates [`EngineError::OutOfMemory`] when the model's weights alone
/// exceed a device's budget. Mid-run failures (OOM batches, crashes) never
/// abort: they feed the retry/failover machinery.
///
/// [`simulate_serving_continuous`]: crate::serving::simulate_serving_continuous
pub fn simulate_cluster(
    cluster: &ClusterConfig,
    model: ModelId,
    prec: Precision,
    cfg: &ServingConfig,
    seed: u64,
) -> Result<ClusterReport, EngineError> {
    cluster.validate().map_err(EngineError::InvalidRequest)?;
    cfg.validate()
        .map_err(|e| EngineError::InvalidRequest(e.to_string()))?;

    let n = cluster.replicas;
    // Correlated failure domains draw their weather once, up front —
    // every member replica then shares the same windows, which is the
    // whole point of a domain.
    let domain_schedules: Vec<DomainSchedule> = cluster
        .domains
        .iter()
        .enumerate()
        .map(|(i, d)| d.generate(seed, i, cluster.horizon_s))
        .collect();
    let mut engines: Vec<InferenceEngine> = Vec::with_capacity(n);
    for r in 0..n {
        let engine_seed = if r == 0 {
            seed
        } else {
            item_seed(seed ^ ENGINE_LANE, r as u64)
        };
        let mut engine = InferenceEngine::new(cluster.engine.clone(), engine_seed);
        let mut faults = FaultSchedule::generate(
            item_seed(seed ^ FAULT_LANE, r as u64),
            cluster.fault_intensity,
            cluster.horizon_s,
        );
        for ds in &domain_schedules {
            // Gated so an empty domain leaves the merge (and thus the
            // replica's event stream) untouched, bit for bit.
            if ds.covers(r) && !ds.derates.is_empty() {
                faults = faults.merge(&ds.derates);
            }
        }
        engine.set_fault_schedule(faults);
        engines.push(engine);
    }
    let mut reps: Vec<Replica<'_>> = Vec::with_capacity(n);
    for (r, engine) in engines.iter_mut().enumerate() {
        let mut crashes = if cluster.crash.enabled() {
            FaultSchedule::generate_crashes(
                item_seed(seed ^ CRASH_LANE, r as u64),
                cluster.crash.mtbf_s,
                cluster.crash.mttr_s,
                cluster.horizon_s,
            )
            .crash_windows()
        } else {
            Vec::new()
        };
        let mut partitions: Vec<(f64, f64)> = Vec::new();
        for ds in &domain_schedules {
            if !ds.covers(r) {
                continue;
            }
            if !ds.crashes.is_empty() {
                crashes.extend_from_slice(&ds.crashes);
                crashes = merge_windows(crashes);
            }
            partitions.extend_from_slice(&ds.partitions);
        }
        if !partitions.is_empty() {
            partitions = merge_windows(partitions);
        }
        reps.push(Replica {
            crashes,
            partitions,
            breaker: cluster.breaker.map(Breaker::new),
            ..Replica::new(engine, model, prec)?
        });
    }
    let arrivals = PendingQueue::new(
        ArrivalProcess::PoissonLegacy,
        cfg.arrival_qps,
        cfg.queries,
        seed,
    );
    Ok(run_fleet(cluster, &mut reps, cfg, SchedulerKind::Continuous, arrivals).report)
}

/// What [`run_fleet`] returns: the fleet report, the offered count behind
/// its SLO, and what own-shape admissions booked.
pub(crate) struct FleetRun {
    pub(crate) report: ClusterReport,
    /// Requests the source offered (the SLO denominator).
    pub(crate) offered: usize,
    /// Time to first token of each own-shape admission: queue wait plus
    /// prefill.
    pub(crate) ttft: Distribution,
    /// Prompt tokens of own-shape admissions.
    pub(crate) prompt_tokens: u64,
    /// Of those, tokens served from the prefix cache.
    pub(crate) cached_tokens: u64,
}

/// The shape of the request behind `k`, `(prompt, output, prefix)`: its
/// own for an own-shape source, else the config's uniform shape at
/// degradation `level` under the fleet's shared prefix.
fn shape<'a, S: Source>(
    pq: &'a PendingQueue<S>,
    k: QKey,
    cfg: &ServingConfig,
    level: u32,
    shared_prefix: &'a [u64],
) -> (usize, usize, &'a [u64]) {
    match pq.request(k) {
        Some(q) => (q.prompt_tokens, q.output_tokens, &q.prefix),
        None => (
            cfg.prompt_tokens,
            effective_out_tokens(cfg, level),
            shared_prefix,
        ),
    }
}

/// The fleet event loop — the only serving loop. `reps` serve the
/// arrivals `pq` draws under the router policy in `cluster` (hedging,
/// shared prefix, crash cold start); the caller has validated both configs
/// and built each replica's weather.
///
/// At every iteration the router picks the replica with the earliest
/// actionable instant, and [`FleetLoop`]'s handlers run one scheduling
/// step on it: outage or partition handling, then the batching boundary
/// (deadline, capacity and aging sheds → admission → idle wait → hedge →
/// step and retire, or a stuck step).
///
/// `kind` sets how much room a replica has at a boundary. Continuous
/// batching fills the headroom its running batch leaves under the
/// (possibly degraded) batch limit; gang scheduling admits only into an
/// idle replica, so a busy one has no room and each batch runs to
/// completion.
///
/// The queue's source type selects the admission rules at compile time. A
/// uniform stream admits groups of the config's request shape. Own-shape
/// requests admit one per boundary with their own prompt, output and
/// prefix; a busy replica that refuses one keeps it queued while its batch
/// steps, and an idle replica that refuses one fails it without retry.
/// Either way the SLO denominator and the self-audit use the count the
/// source offered.
pub(crate) fn run_fleet<S: Source>(
    cluster: &ClusterConfig,
    reps: &mut [Replica<'_>],
    cfg: &ServingConfig,
    kind: SchedulerKind,
    mut pq: PendingQueue<S>,
) -> FleetRun {
    let n = reps.len();
    // Fleet-wide priority admission: one controller in front of the shared
    // queue.
    let adm = cfg.admission.as_ref().map(|a| {
        pq.set_tagger(a.mix, a.class_seed);
        AdmissionState::new(*a)
    });
    let mut sim = FleetLoop {
        cluster,
        cfg,
        kind,
        reps,
        pq,
        shared_prefix: cluster.shared_prefix.as_deref().unwrap_or(&[]),
        live: Vec::new(),
        group: Vec::new(),
        member_pool: Vec::new(),
        fleet: ServingAccumulator::default(),
        rep_accs: vec![ServingAccumulator::default(); if n > 1 { n } else { 0 }],
        next_key: 0,
        lat_est: Ewma::new(HEDGE_EWMA_ALPHA),
        adm,
        tally: Tally::default(),
    };
    while sim.reps.iter().any(|rep| rep.stepper.is_busy()) || !sim.pq.is_exhausted() {
        // Nothing can act: only unreachable future crash windows remain.
        let Some((t, r)) = sim.route() else { break };
        let _ = sim.event(r, t);
    }
    sim.finish()
}

/// Why a slot's work is voided: the cause decides which counter its
/// requeued members join.
#[derive(Clone, Copy)]
enum VoidCause {
    /// A crash window: members count as `crash_lost` and are marked so a
    /// later completion counts as `crash_recovered`.
    Crash,
    /// A detected partition: members count as `partition_voided`.
    Partition,
    /// A battery brown-out or a stuck step: members only retry.
    Other,
}

/// The fleet loop's state: the replicas and the shared queue, the live
/// slots with their recycled buffers, the ledgers and the robustness
/// counters. Each event of an iteration is one method.
struct FleetLoop<'a, 'e, S: Source> {
    cluster: &'a ClusterConfig,
    cfg: &'a ServingConfig,
    kind: SchedulerKind,
    reps: &'a mut [Replica<'e>],
    pq: PendingQueue<S>,
    /// The shared template signature; empty when the fleet has none.
    shared_prefix: &'a [u64],
    live: Vec<ClusterSlot>,
    /// Admission-group scratch.
    group: Vec<QKey>,
    /// Recycled member buffers: the router's steady state allocates
    /// nothing — every slot death returns its member vector here and every
    /// launch draws from the pool.
    member_pool: Vec<Vec<QKey>>,
    fleet: ServingAccumulator,
    /// Per-replica bookings. A lone replica's bookings are the fleet's, so
    /// it books once and its report is derived from the fleet's at the end.
    rep_accs: Vec<ServingAccumulator>,
    /// Key of the next launched slot (admission order).
    next_key: u64,
    /// Fleet latency EWMA that arms hedging, seeded from the first
    /// observation.
    lat_est: Ewma,
    adm: Option<AdmissionState>,
    tally: Tally,
}

/// What the fleet loop counts for its report: the robustness events, and
/// the time to first token and prompt tokens of own-shape admissions.
#[derive(Default)]
struct Tally {
    crash_events: usize,
    crash_lost: usize,
    crash_recovered: usize,
    hedges_fired: usize,
    hedge_wins: usize,
    hedge_energy_j: f64,
    brownout_events: usize,
    partition_events: usize,
    partition_voided: usize,
    ttft: Distribution,
    prompt_tokens: u64,
    cached_tokens: u64,
}

impl<S: Source> FleetLoop<'_, '_, S> {
    /// Route: the replica that can act earliest wins, as `(instant,
    /// index)`; ties go to the lowest [`Replica::route_key`], then the
    /// lowest index. Busy replicas act at their own clock (their next
    /// decode boundary), idle ones at the next arrival. `None` when no
    /// replica can act.
    fn route(&mut self) -> Option<(f64, usize)> {
        let (pq, reps) = (&mut self.pq, &*self.reps);
        let (prefix, prompt) = (self.shared_prefix, self.cfg.prompt_tokens);
        // Earliest instant any pending (or still-undrawn) query becomes
        // ready — O(log) against the queue, and asked only when an idle
        // replica needs it.
        let mut min_ready: Option<f64> = None;
        reps.iter()
            .enumerate()
            .filter_map(|(r, rep)| {
                let t = if rep.stepper.is_busy() {
                    rep.clock
                } else {
                    let ready = *min_ready.get_or_insert_with(|| pq.min_ready());
                    if !ready.is_finite() {
                        return None;
                    }
                    rep.clock.max(ready)
                };
                // A replica browned out with no recharge path has an
                // infinite recovery time: it never acts again. Skipping it
                // (rather than letting `max` swallow the jump) keeps the
                // loop's exit condition honest when the whole fleet is dead.
                t.is_finite().then_some((t, r))
            })
            .min_by(|&(ta, a), &(tb, b)| {
                ta.total_cmp(&tb).then_with(|| {
                    let key = |r: usize, t| reps[r].route_key(t, prefix, prompt);
                    key(a, ta).cmp(&key(b, tb))
                })
            })
    }

    /// One iteration on replica `r` at its action instant `t`. Each handler
    /// either passes the iteration on or breaks, having spent it.
    fn event(&mut self, r: usize, t: f64) -> ControlFlow<()> {
        self.outage(r, t)?;
        self.partition(r, t)?;
        // From here on this is one batching boundary of replica `r` at `t`
        // (the idle jump is already folded into `t`).
        let rep = &mut self.reps[r];
        rep.clock = t;
        rep.served = rep.served.max(t);
        // Lazily advance this replica's breaker (Open past its cooldown
        // becomes HalfOpen, ready to probe).
        if let Some(b) = rep.breaker.as_mut() {
            b.poll(t);
        }
        let breaker_open = rep.breaker.as_ref().is_some_and(|b| b.is_open_at(t));
        // Materialize every arrival due by this instant; later ones stay
        // inside the generator.
        self.pq.pump(t);
        self.shed(t)?;
        let slack_shed = self.admit(r, t, breaker_open)?;
        if !self.reps[r].stepper.is_busy() {
            self.idle(r, t, breaker_open, slack_shed);
            return ControlFlow::Break(());
        }
        self.hedge(t);
        self.step(r, t);
        ControlFlow::Continue(())
    }

    /// An outage the replica's action time `t` has reached fires before
    /// any scheduling: a crash window from the weather, or a battery
    /// brown-out detected by the replica's own governor (recovery comes
    /// from the recharge model instead of repair + cold start). The device
    /// dies, its KV cache is zeroed, every in-flight sequence is voided
    /// into the retry queue, and the clock jumps past recovery. Only
    /// crashes move the crash counters: those stay exogenous-only, and
    /// `brownout_events` owns the brown-out path.
    fn outage(&mut self, r: usize, t: f64) -> ControlFlow<()> {
        let (rep, cold_start_s) = (&mut self.reps[r], self.cluster.crash.cold_start_s);
        let (start, recovery, cause) = if let Some((start, end)) = rep.take_crash(t) {
            self.tally.crash_events += 1;
            (start, end + cold_start_s, VoidCause::Crash)
        } else if let Some((start, recovery)) = rep.engine.governance_take_outage() {
            self.tally.brownout_events += 1;
            (start, recovery, VoidCause::Other)
        } else {
            return ControlFlow::Continue(());
        };
        rep.outages.push((start, recovery));
        self.fail_replica(r, cause, t);
        let rep = &mut self.reps[r];
        rep.go_down_until(recovery);
        rep.throttle_streak = 0;
        ControlFlow::Break(())
    }

    /// A router↔replica partition: the device itself keeps running (it
    /// looks Up to health checks) but the router cannot reach it. Once the
    /// router's timeout detects it, every in-flight slot is cancelled, its
    /// accrued energy booked exactly once (the slot leaves the stepper, so
    /// no later fail or retire can re-book it) and its work voided into
    /// failover; the replica is down, breaker tripped, until the window
    /// heals.
    fn partition(&mut self, r: usize, t: f64) -> ControlFlow<()> {
        let (detect_at, end) = match self.reps[r].walk_partition(t) {
            PartitionWalk::Clear => return ControlFlow::Continue(()),
            PartitionWalk::Spent => return ControlFlow::Break(()),
            PartitionWalk::Detected(detect_at, end) => (detect_at, end),
        };
        self.tally.partition_events += 1;
        self.reps[r].outages.push((detect_at, end));
        while let Some(pos) = self.live.iter().position(|s| s.replica == r) {
            let spent = self.reps[r].stepper.cancel(self.live[pos].id);
            self.book_voided(r, spent.unwrap_or(0.0));
            self.void_slot(pos, VoidCause::Partition, t);
        }
        self.reps[r].go_down_until(end);
        ControlFlow::Break(())
    }

    /// Fleet-level admission control at every scheduling boundary: the
    /// deadline shed, the queue-capacity shed, and CoDel-style queue aging
    /// (priority policy only), which drops stale low-priority work early
    /// instead of letting it poison the queue. The first that sheds
    /// anything spends the iteration.
    fn shed(&mut self, now: f64) -> ControlFlow<()> {
        let cfg = self.cfg;
        let mut shed = cfg.deadline_s.map_or(0, |d| self.pq.shed_expired(now, d));
        if shed == 0 && cfg.queue_capacity > 0 {
            shed = self.pq.shed_over_capacity(now, cfg.queue_capacity);
        }
        if shed == 0 {
            if let Some(st) = priority(&mut self.adm) {
                shed = self.pq.shed_aged(now, &st.cfg.age_target_s);
            }
        }
        self.fleet.shed += shed;
        if shed > 0 {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    /// Admission into replica `r`'s headroom at `now`; gang scheduling
    /// leaves a busy replica none, and an open breaker refuses new work
    /// (the running batch, if any, drains). Breaks after a launch or an
    /// idle replica's refusal; otherwise passes on the count priority
    /// admission shed for lack of slack.
    fn admit(&mut self, r: usize, now: f64, breaker_open: bool) -> ControlFlow<(), usize> {
        let (cfg, level) = (self.cfg, self.reps[r].level);
        let rep = &self.reps[r];
        let room = if self.kind == SchedulerKind::Static && rep.stepper.is_busy() {
            0
        } else {
            rep.headroom(cfg)
        };
        if room == 0 || breaker_open {
            return ControlFlow::Continue(0);
        }
        let room = if S::OWN_SHAPE { 1 } else { room };
        let mut slack_shed = 0;
        match priority(&mut self.adm) {
            Some(st) => {
                let need = (cfg.prompt_tokens + effective_out_tokens(cfg, level)) as u64;
                let (pq, group, free) =
                    (&mut self.pq, &mut self.group, rep.stepper.kv_free_tokens());
                slack_shed = st.select(pq, now, room, free, need, cfg.deadline_s, group);
                self.fleet.shed += slack_shed;
            }
            None => self.pq.collect_ready(now, room, &mut self.group),
        }
        let Some(&head) = self.group.first() else {
            return ControlFlow::Continue(slack_shed);
        };
        let (prompt, out_tokens, prefix) = shape(&self.pq, head, cfg, level, self.shared_prefix);
        let req = GenerationRequest::new(prompt, out_tokens).with_batch(self.group.len());
        let rep = &mut self.reps[r];
        match rep.stepper.admit_prefixed(rep.engine, now, &req, prefix) {
            Ok(admitted) => {
                if S::OWN_SHAPE {
                    let tally = &mut self.tally;
                    tally.ttft.record(admitted.end_s - self.pq.arrival_s(head));
                    tally.prompt_tokens += prompt as u64;
                    tally.cached_tokens += admitted.cached_tokens as u64;
                }
                self.pq.commit_admitted(&self.group);
                self.launch(r, now, &admitted, out_tokens, None);
            }
            // A busy replica refusing an own-shape request keeps it queued
            // while the batch steps and frees KV.
            Err(_) if S::OWN_SHAPE && rep.stepper.is_busy() => {
                return ControlFlow::Continue(slack_shed);
            }
            Err(_) => {
                // An idle replica has its whole KV budget free: an
                // own-shape request it refuses can never be placed.
                let retries = if S::OWN_SHAPE { 0 } else { cfg.max_retries };
                let (pq, backoff) = (&mut self.pq, cfg.retry_backoff_s);
                pq.requeue_failed(&self.group, now, retries, backoff, &mut self.fleet);
                rep.fail_step(now, cfg.degradation);
            }
        }
        ControlFlow::Break(())
    }

    /// Replica `r` is idle after admission at `now`. Behind an open
    /// breaker nothing can happen on it until the cooldown elapses, so its
    /// clock jumps there (other replicas keep acting at their own clocks).
    /// Under priority admission, when nothing was shed for slack, ready
    /// work with an empty admission group means either a bucket is starved
    /// (jump to its refill) or nothing can ever admit (shed the head for
    /// liveness — an idle replica has its whole KV budget free, so what
    /// cannot fit here cannot fit anywhere).
    fn idle(&mut self, r: usize, now: f64, breaker_open: bool, slack_shed: usize) {
        let rep = &mut self.reps[r];
        if breaker_open {
            if let Some(until) = rep.breaker.as_ref().and_then(Breaker::open_until) {
                rep.clock = rep.clock.max(until);
            }
            return;
        }
        let Some(st) = priority(&mut self.adm).filter(|_| slack_shed == 0) else {
            return;
        };
        let t = st.next_release_s(now);
        if t.is_finite() && t > now {
            rep.clock = t;
        } else {
            self.pq.collect_ready(now, 1, &mut self.group);
            if let Some(&k) = self.group.first() {
                if self.pq.shed_key(k) {
                    self.fleet.shed += 1;
                }
            }
        }
    }

    /// Hedging: every unhedged in-flight original whose oldest member has
    /// been outstanding (since *arrival*) longer than the armed threshold
    /// is cloned onto the best *other* replica before this decode boundary
    /// runs; the first completion wins. Measuring from arrival makes
    /// crash-requeued stragglers hedge-eligible as soon as they are
    /// re-admitted — exactly the requests worth cloning.
    fn hedge(&mut self, now: f64) {
        let (Some(factor), Some(est)) = (self.cluster.hedge_factor, self.lat_est.get()) else {
            return;
        };
        let threshold = factor * est;
        // Launches only append clones, so every original keeps its position
        // below the length taken here.
        for pos in 0..self.live.len() {
            let orig = &self.live[pos];
            // Members are admitted in seq order and arrivals are monotone
            // in seq, so the first member is the oldest and its age is the
            // group's.
            let age = now - self.pq.arrival_s(orig.members[0]);
            let eligible = orig.pair.is_none() && !orig.is_hedge && age > threshold;
            if !eligible {
                continue;
            }
            let (home, m_len, out_tokens) = (orig.replica, orig.members.len(), orig.out_tokens);
            // The clone repeats the original's request: its shape, with the
            // output budget it was admitted at.
            let (prompt, _, prefix) =
                shape(&self.pq, orig.members[0], self.cfg, 0, self.shared_prefix);
            let Some(q) = self.hedge_target(home, now, m_len, prompt + out_tokens) else {
                continue;
            };
            let req = GenerationRequest::new(prompt, out_tokens).with_batch(m_len);
            let rep = &mut self.reps[q];
            let Ok(admitted) = rep.stepper.admit_prefixed(rep.engine, now, &req, prefix) else {
                continue; // refusal leaves the target untouched
            };
            self.tally.hedges_fired += 1;
            self.launch(q, now, &admitted, out_tokens, Some(pos));
        }
    }

    /// Where a clone of `members` sequences needing `need` tokens each goes
    /// at `now`: among the replicas other than `home` that are not Down and
    /// have the batch headroom and KV room to hold it, the lowest
    /// [`Replica::route_key`] without the prefix preference (the
    /// healthiest, then the most free KV tokens); ties keep the lowest
    /// index.
    fn hedge_target(&self, home: usize, now: f64, members: usize, need: usize) -> Option<usize> {
        self.reps
            .iter()
            .enumerate()
            .filter(|&(q, rep)| {
                q != home
                    && rep.health_at(now) != ReplicaHealth::Down
                    && rep.headroom(self.cfg) >= members
                    && rep.stepper.kv_would_fit(members, need)
            })
            .min_by_key(|(_, rep)| rep.route_key(now, &[], 0))
            .map(|(q, _)| q)
    }

    /// Launches a slot admitted on replica `r` at `now` (`adm`, decoding
    /// `out_tokens` tokens) and gives it the next key. With `twin`, the position
    /// of a live original, the slot is that original's hedge clone: it
    /// copies the original's members and the two are paired; otherwise its
    /// members are the admission group. The member buffer comes from the
    /// pool, and the replica's clock and served instant move to the
    /// admission's end.
    fn launch(
        &mut self,
        r: usize,
        now: f64,
        adm: &AdmitOutcome,
        out_tokens: usize,
        twin: Option<usize>,
    ) {
        let key = self.next_key;
        self.next_key += 1;
        let mut members = self.member_pool.pop().unwrap_or_default();
        let pair = twin.map(|pos| {
            let orig = &mut self.live[pos];
            orig.pair = Some(key);
            orig.key
        });
        members.extend_from_slice(twin.map_or(&self.group, |pos| &self.live[pos].members));
        self.live.push(ClusterSlot {
            key,
            replica: r,
            id: adm.id,
            admit_s: now,
            out_tokens,
            members,
            pair,
            is_hedge: twin.is_some(),
        });
        let rep = &mut self.reps[r];
        rep.clock = rep.clock.max(adm.end_s);
        rep.served = rep.served.max(adm.end_s);
    }

    /// One decode iteration of replica `r`'s mixed-context batch at `now`:
    /// each finished slot retires, and a replica that drained takes its
    /// clock from its completions (which carry the run-level jitter). A
    /// step that fails is a stuck step.
    fn step(&mut self, r: usize, now: f64) {
        let rep = &mut self.reps[r];
        let Ok(out) = rep.stepper.step(rep.engine) else {
            self.stuck(r, now);
            return;
        };
        rep.clock = out.end_s;
        rep.served = rep.served.max(out.end_s);
        for f in out.retired {
            self.retire(r, &f);
        }
        let rep = &mut self.reps[r];
        if !rep.stepper.is_busy() {
            rep.clock = rep.drain_now;
            rep.served = rep.served.max(rep.drain_now);
        }
    }

    /// A stuck step: the whole batch of replica `r` is stuck (e.g. an
    /// unplaceable waiting group), so its slots fail into the retry
    /// machinery (hedge twins elsewhere keep their queries), their joules
    /// are booked like an outage's, and the replica takes a failure step.
    fn stuck(&mut self, r: usize, now: f64) {
        self.fail_replica(r, VoidCause::Other, now);
        self.reps[r].fail_step(now, self.cfg.degradation);
    }

    /// Retires finished slot `f` of replica `r`: a winning hedge cancels
    /// its loser (whose accrued energy is still booked), every member
    /// books its latency and queue wait, the breaker, throttle streak and
    /// degradation level observe the service time, and the slot's energy,
    /// tokens and batch are booked.
    fn retire(&mut self, r: usize, f: &FinishedSlot) {
        let Some(pos) = self.find(r, f.id) else {
            return;
        };
        let slot = self.live.remove(pos);
        let cfg = self.cfg;
        let service = f.outcome.total_latency_s() + f.extra_wait_s;
        let completion = slot.admit_s + service;
        self.reps[r].drain_now = self.reps[r].drain_now.max(completion);
        if let Some(lpos) = slot
            .pair
            .and_then(|peer| self.live.iter().position(|s| s.key == peer))
        {
            let loser = self.live.remove(lpos);
            let stepper = &mut self.reps[loser.replica].stepper;
            let spent = stepper.cancel(loser.id).unwrap_or(0.0);
            self.book_voided(loser.replica, spent);
            self.tally.hedge_energy_j += spent;
            recycle(&mut self.member_pool, loser.members);
        }
        if slot.is_hedge {
            // The clone delivered — either it beat a live original or the
            // original was voided and the pair dissolved.
            self.tally.hedge_wins += 1;
        }
        let mut step_missed = false;
        let energy_share = f.outcome.total_energy_j() / slot.members.len() as f64;
        for &k in &slot.members {
            let arrival_s = self.pq.arrival_s(k);
            let latency = completion - arrival_s;
            let wait = slot.admit_s - arrival_s;
            let missed = cfg.deadline_s.is_some_and(|d| latency > d);
            step_missed |= missed;
            for acc in std::iter::once(&mut self.fleet).chain(self.rep_accs.get_mut(r)) {
                acc.record_query(latency, wait);
                acc.deadline_misses += usize::from(missed);
            }
            if let Some(st) = self.adm.as_mut() {
                st.classes
                    .record(self.pq.class_of(k), latency, missed, energy_share);
            }
            // Only crash outages mark queries, and they count `crash_lost`
            // as they do.
            if self.tally.crash_lost > 0 && self.pq.take_crashed(k) {
                self.tally.crash_recovered += 1;
            }
            // The latency estimate arms hedging and nothing else.
            if self.cluster.hedge_factor.is_some() {
                self.lat_est.observe(latency);
            }
        }
        if let Some(st) = self.adm.as_mut() {
            st.observe_service(service);
        }
        let rep = &mut self.reps[r];
        if let Some(b) = rep.breaker.as_mut() {
            b.on_success(service, completion);
        }
        // Metrics booked; the winner retires its members' arena slots (a
        // cancelled hedge loser shares these keys and must not release
        // them again).
        for &k in &slot.members {
            self.pq.release(k);
        }
        for acc in std::iter::once(&mut self.fleet).chain(self.rep_accs.get_mut(r)) {
            acc.energy += f.outcome.total_energy_j();
            acc.tokens += f.outcome.total_generated_tokens() as f64;
            acc.record_batch(slot.members.len());
            acc.preemptions += f.outcome.preemptions;
            if rep.level > 0 {
                acc.degraded_s += service;
            }
        }
        recycle(&mut self.member_pool, slot.members);
        let throttled = f.outcome.throttled_s > 0.0;
        rep.throttle_streak = if throttled {
            rep.throttle_streak + 1
        } else {
            0
        };
        if cfg.degradation {
            rep.level = if throttled || step_missed {
                (rep.level + 1).min(MAX_DEGRADE_LEVEL)
            } else {
                rep.level.saturating_sub(1)
            };
        }
    }

    /// Fails every slot on replica `r` (an outage or a stuck step) at `t`:
    /// the stepper abandons them, their joules are booked once, and each
    /// slot is voided for `cause`.
    fn fail_replica(&mut self, r: usize, cause: VoidCause, t: f64) {
        let (failed, spent) = self.reps[r].stepper.fail_all();
        self.book_voided(r, spent);
        for id in failed {
            if let Some(pos) = self.find(r, id) {
                self.void_slot(pos, cause, t);
            }
        }
    }

    /// Voids the live slot at `pos` at instant `t`. If its hedge twin is
    /// still live, the twin keeps the queries and the pair dissolves;
    /// otherwise the members count toward `cause` and go back through the
    /// retry machinery. The member buffer returns to the pool.
    fn void_slot(&mut self, pos: usize, cause: VoidCause, t: f64) {
        let slot = self.live.remove(pos);
        if let Some(peer) = slot.pair {
            if let Some(p) = self.live.iter_mut().find(|s| s.key == peer) {
                p.pair = None;
            }
        } else {
            match cause {
                VoidCause::Crash => {
                    self.tally.crash_lost += slot.members.len();
                    for &k in &slot.members {
                        self.pq.mark_crashed(k);
                    }
                }
                VoidCause::Partition => self.tally.partition_voided += slot.members.len(),
                VoidCause::Other => {}
            }
            let (retries, backoff) = (self.cfg.max_retries, self.cfg.retry_backoff_s);
            let pq = &mut self.pq;
            pq.requeue_failed(&slot.members, t, retries, backoff, &mut self.fleet);
        }
        recycle(&mut self.member_pool, slot.members);
    }

    /// Position in `live` of replica `r`'s slot `id`.
    fn find(&self, r: usize, id: SlotId) -> Option<usize> {
        self.live.iter().position(|s| s.replica == r && s.id == id)
    }

    /// Books joules drawn by voided work (an outage, a partition, a stuck
    /// step or a hedge loss) into the fleet ledger and replica `r`'s own;
    /// a lone replica has no ledger of its own.
    fn book_voided(&mut self, r: usize, joules: f64) {
        self.fleet.energy += joules;
        if let Some(acc) = self.rep_accs.get_mut(r) {
            acc.energy += joules;
        }
    }

    /// The final report: wall clock, availability, the fleet and
    /// per-replica serving reports and the summed governance and breaker
    /// counters, closed by the drain audit.
    fn finish(mut self) -> FleetRun {
        let reps = &*self.reps;
        let n = reps.len();
        let wall = reps.iter().map(|rep| rep.served).fold(0.0f64, f64::max);
        let mut down_s = 0.0f64;
        for rep in reps.iter() {
            for &(start, recovery) in &rep.outages {
                down_s += (recovery.min(wall) - start.min(wall)).max(0.0);
            }
        }
        let availability = if wall > 0.0 {
            (1.0 - down_s / (wall * n as f64)).max(0.0)
        } else {
            1.0
        };
        // A stranded run (every replica browned out for good) leaves
        // arrivals queued or undrawn; the offered count includes them.
        let drained = self.pq.is_exhausted();
        let offered = self.pq.offered();
        let cfg = &ServingConfig {
            queries: offered,
            ..*self.cfg
        };
        let fleet_energy_j = self.fleet.energy;
        let fleet = self.fleet.into_report(cfg, wall);
        let mut replica_energy_j: Vec<f64> = self.rep_accs.iter().map(|acc| acc.energy).collect();
        let mut replicas: Vec<ServingReport> = self
            .rep_accs
            .into_iter()
            .zip(reps.iter())
            .map(|(acc, rep)| acc.into_report(cfg, rep.served))
            .collect();
        if n == 1 {
            // The lone replica booked into the fleet accumulator; shed,
            // failed and retry counts are fleet-level decisions.
            replicas.push(ServingReport {
                shed_queries: 0,
                failed_queries: 0,
                retries: 0,
                ..fleet
            });
            replica_energy_j.push(fleet_energy_j);
        }
        let mut governance: Option<GovernanceStats> = None;
        for stats in reps.iter().filter_map(|rep| rep.engine.governance_stats()) {
            governance
                .get_or_insert_with(GovernanceStats::default)
                .absorb(&stats);
        }
        let breakers = || reps.iter().filter_map(|rep| rep.breaker.as_ref());
        let tally = self.tally;
        let classes = (self.adm).map(|st| st.classes.into_breakdown(self.pq.class_counts(), wall));
        let report = ClusterReport {
            fleet,
            replicas,
            availability,
            crash_events: tally.crash_events,
            crash_lost: tally.crash_lost,
            crash_recovered: tally.crash_recovered,
            hedges_fired: tally.hedges_fired,
            hedge_wins: tally.hedge_wins,
            hedge_energy_j: tally.hedge_energy_j,
            brownout_events: tally.brownout_events,
            governance,
            partition_events: tally.partition_events,
            partition_voided: tally.partition_voided,
            breaker_trips: breakers().map(|b| b.trips).sum(),
            breaker_rejoins: breakers().map(|b| b.rejoins).sum(),
            fleet_energy_j,
            replica_energy_j,
            classes,
        };
        // Every build closes the fleet's books on every run: requests and
        // joules, and on every replica the KV blocks and prefix pins. A
        // fleet that died for good (e.g. every battery flat with no
        // recharge path) legitimately strands its queue — conservation only
        // holds for runs that drained, so the stranded case is exempt.
        if drained {
            let violations = crate::audit::audit_cluster(cfg, self.cluster, &report);
            assert!(violations.is_empty(), "cluster audit: {violations:?}");
            for (r, rep) in reps.iter().enumerate() {
                let s = &rep.stepper;
                assert!(!s.is_busy(), "replica {r} still busy at drain");
                assert_eq!(s.prefix_outstanding_pins(), 0, "replica {r}: prefix pins");
                assert_eq!(
                    s.kv_free_tokens() + s.kv_evictable_tokens(),
                    s.kv_capacity_tokens(),
                    "replica {r}: KV blocks"
                );
            }
        }
        FleetRun {
            report,
            offered,
            ttft: tally.ttft,
            prompt_tokens: tally.prompt_tokens,
            cached_tokens: tally.cached_tokens,
        }
    }
}

/// The fleet's admission controller, when it runs the priority policy.
fn priority(adm: &mut Option<AdmissionState>) -> Option<&mut AdmissionState> {
    adm.as_mut()
        .filter(|s| s.cfg.policy == AdmissionPolicy::Priority)
}

/// Returns a member buffer to the pool, emptied.
fn recycle(pool: &mut Vec<Vec<QKey>>, mut v: Vec<QKey>) {
    v.clear();
    pool.push(v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, OomPolicy};
    use crate::serving::simulate_serving_continuous;

    fn serving(qps: f64, queries: usize) -> ServingConfig {
        ServingConfig::new(qps, 8, queries, 128, 128)
    }

    fn crashy(mtbf_s: f64) -> CrashConfig {
        CrashConfig {
            mtbf_s,
            mttr_s: 10.0,
            cold_start_s: 5.0,
        }
    }

    /// The allocation-budget invariant for the fleet router (DESIGN.md
    /// §14): routed events allocate nothing once warm. Inherent per-*group*
    /// allocations remain (finished-slot outcomes, telemetry), so the test
    /// scales the number of routed *events* ~6x while holding arrivals,
    /// admissions and retirements fixed and asserts the allocation count
    /// barely moves — the marginal cost of a routed event is zero, up to
    /// the plan-cache entries for the new decode shapes.
    #[test]
    fn routed_events_do_not_scale_allocations() {
        let run = |out_tokens: usize| {
            // Low qps keeps both runs underloaded: queue high-water marks
            // (one-time capacity growth) stay identical, so any delta is a
            // true per-event cost.
            let cfg = ServingConfig::new(1.0, 8, 400, 64, out_tokens);
            let cluster = ClusterConfig::new(2, EngineConfig::vllm());
            let before = crate::alloc_counter::thread_allocs();
            let rep = simulate_cluster(&cluster, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 5)
                .expect("runs");
            (crate::alloc_counter::thread_allocs() - before, rep)
        };
        let (a, ra) = run(96); // two decode chunks per group
        let (b, rb) = run(192); // four decode chunks per group
        assert_eq!(
            ra.fleet.completed, rb.fleet.completed,
            "both runs must serve the same workload"
        );
        assert!(
            ra.fleet.completed + ra.fleet.shed_queries + ra.fleet.failed_queries == 400,
            "workload accounted for"
        );
        // Doubling the decode chunks adds 100+ routed events (two more DES
        // completion events per group across 50 groups) plus all the router
        // bookkeeping around them. The only new allocations allowed are
        // bounded ones — plan-cache entries for the new context shapes —
        // never a per-event cost.
        let extra = b.saturating_sub(a);
        assert!(
            extra < 64,
            "allocations must not scale with routed events: {a} -> {b} (+{extra})"
        );
    }

    #[test]
    fn single_replica_no_crash_is_bit_identical_to_continuous() {
        let cfg = serving(1.5, 40).with_deadline(60.0).with_retries(2, 1.0);
        for seed in [1u64, 9, 42] {
            let cluster = ClusterConfig::new(1, EngineConfig::vllm());
            let fleet =
                simulate_cluster(&cluster, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, seed)
                    .expect("runs");
            let mut e = InferenceEngine::new(EngineConfig::vllm(), seed);
            let single = simulate_serving_continuous(
                &mut e,
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                &cfg,
                seed,
            )
            .expect("runs");
            assert_eq!(fleet.fleet, single, "seed {seed}");
            assert_eq!(fleet.replicas.len(), 1);
            assert_eq!(fleet.replicas[0], single);
            assert_eq!(fleet.availability, 1.0);
            assert_eq!((fleet.crash_events, fleet.hedges_fired), (0, 0));
        }
    }

    #[test]
    fn shared_template_prefix_cuts_fleet_energy() {
        // A fleet serving one 112-token (7-block) template: after the
        // first admission per replica the template blocks are resident,
        // so later prefills pay only the private suffix. Drained arrivals
        // keep the batching identical so only prefill reuse differs.
        let cfg = serving(1e-3, 40);
        let base = ClusterConfig::new(2, EngineConfig::vllm());
        let warm = base
            .clone()
            .with_shared_prefix((0..7).map(|b| 0xfee_d000 + b).collect());
        let cold =
            simulate_cluster(&base, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 5).expect("runs");
        let hot =
            simulate_cluster(&warm, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 5).expect("runs");
        assert_eq!(hot.fleet.completed, cold.fleet.completed);
        assert!(
            hot.fleet.energy_per_query_j < cold.fleet.energy_per_query_j,
            "warm {} vs cold {}",
            hot.fleet.energy_per_query_j,
            cold.fleet.energy_per_query_j
        );
    }

    #[test]
    fn cluster_is_deterministic() {
        let cfg = serving(2.0, 30).with_deadline(90.0).with_retries(3, 0.5);
        let cluster = ClusterConfig::new(3, EngineConfig::vllm())
            .with_crashes(crashy(60.0))
            .with_hedging(3.0)
            .with_fault_intensity(1.0);
        let run = || {
            simulate_cluster(&cluster, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 7)
                .expect("runs")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crashes_void_and_failover_recovers() {
        let cfg = serving(1.5, 40).with_retries(4, 0.5);
        let cluster = ClusterConfig::new(2, EngineConfig::vllm()).with_crashes(crashy(25.0));
        let r = simulate_cluster(&cluster, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 11)
            .expect("runs");
        assert!(r.crash_events > 0, "dense MTBF must crash: {r:?}");
        assert!(r.crash_lost > 0, "crashes must void in-flight work");
        assert!(
            r.crash_recovered > 0,
            "failover must recompute voided work: {r:?}"
        );
        assert!(r.crash_recovered <= r.crash_lost);
        assert!(
            r.availability < 1.0,
            "downtime must show: {}",
            r.availability
        );
        // Crash losses are counted distinctly from OOM preemptions.
        assert_eq!(r.fleet.preemptions, 0);
        // Everything offered is accounted for.
        assert_eq!(
            r.fleet.completed + r.fleet.failed_queries + r.fleet.shed_queries,
            cfg.queries
        );
    }

    #[test]
    fn hedging_fires_and_books_loser_energy() {
        // An aggressive threshold (half the typical end-to-end latency)
        // must fire clones under steady load, and a resolved pair books
        // the cancelled loser's energy into the fleet total.
        let cfg = serving(2.0, 40).with_retries(2, 0.5);
        let cluster = ClusterConfig::new(3, EngineConfig::vllm()).with_hedging(0.5);
        let r = simulate_cluster(&cluster, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 11)
            .expect("runs");
        assert!(r.hedges_fired > 0, "aggressive threshold must hedge: {r:?}");
        assert!(r.hedge_wins <= r.hedges_fired);
        assert!(
            r.hedge_energy_j > 0.0,
            "a resolved hedge pair books loser energy: {r:?}"
        );
        // Hedge-loser energy inflates the fleet total but never completions.
        assert_eq!(
            r.fleet.completed + r.fleet.failed_queries + r.fleet.shed_queries,
            cfg.queries
        );
    }

    #[test]
    fn replicas_spread_load_and_raise_goodput() {
        // Calibrate the offered load off a probe batch so the test tracks
        // the performance model: ~3x one device's throughput, deadline at
        // 3x one batch's service time. One replica must then shed/miss
        // while three absorb the same stream.
        let mut probe_engine = InferenceEngine::new(EngineConfig::vllm(), 5);
        let probe = probe_engine
            .run(
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                &GenerationRequest::new(128, 128).with_batch(8),
            )
            .expect("probe runs");
        let service_s = probe.total_latency_s();
        let qps = 3.0 * 8.0 / service_s;
        let cfg = serving(qps, 60).with_deadline(3.0 * service_s);
        let one = simulate_cluster(
            &ClusterConfig::new(1, EngineConfig::vllm()),
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg,
            5,
        )
        .expect("runs");
        let three = simulate_cluster(
            &ClusterConfig::new(3, EngineConfig::vllm()),
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg,
            5,
        )
        .expect("runs");
        assert!(
            three.fleet.slo_attainment > one.fleet.slo_attainment,
            "3 replicas must hold the SLO better: {} vs {}",
            three.fleet.slo_attainment,
            one.fleet.slo_attainment
        );
        // Work actually lands on more than one device.
        let active = three.replicas.iter().filter(|r| r.completed > 0).count();
        assert!(active > 1, "router must spread load: {active} active");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cfg = serving(1.0, 10);
        for bad in [
            ClusterConfig::new(0, EngineConfig::vllm()),
            ClusterConfig::new(1, EngineConfig::vllm()).with_hedging(0.0),
            ClusterConfig::new(1, EngineConfig::vllm()).with_horizon(0.0),
            ClusterConfig::new(1, EngineConfig::vllm()).with_fault_intensity(f64::NAN),
            ClusterConfig::new(1, EngineConfig::vllm()).with_crashes(CrashConfig {
                mtbf_s: 100.0,
                mttr_s: 0.0,
                cold_start_s: 1.0,
            }),
        ] {
            assert!(
                matches!(
                    simulate_cluster(&bad, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 1),
                    Err(EngineError::InvalidRequest(_))
                ),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn oom_pressure_on_replicas_feeds_retries_not_aborts() {
        use edgereasoning_kernels::arch::ModelId as M;
        let mut engine_cfg = EngineConfig::vllm().with_oom_policy(OomPolicy::FailFast);
        let arch = M::Dsr1Qwen1_5b.arch();
        let budget = arch.weight_bytes(Precision::Fp16) + 1600 * arch.kv_bytes_per_token();
        engine_cfg.memory_budget_frac = budget as f64 / engine_cfg.soc.gpu.dram_capacity as f64;
        let cfg = serving(2.0, 40).with_retries(2, 0.5);
        let r = simulate_cluster(
            &ClusterConfig::new(2, engine_cfg),
            M::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg,
            5,
        )
        .expect("pressure must not abort");
        assert_eq!(
            r.fleet.completed + r.fleet.failed_queries + r.fleet.shed_queries,
            40
        );
        assert!(r.fleet.completed > 0);
    }

    #[test]
    fn battery_brownout_fires_like_a_crash_window() {
        use edgereasoning_soc::thermal::{BatteryConfig, GovernanceConfig, RechargeProfile};
        // A battery far too small for the run, trickle-charged well below
        // the serving draw: the replica must brown out mid-run, book an
        // outage window, and resume serving once the charge climbs back
        // past `resume_frac`.
        let battery = BatteryConfig {
            capacity_j: 150.0,
            recharge: RechargeProfile::Constant { watts: 5.0 },
            ..BatteryConfig::default()
        };
        let gov = GovernanceConfig::default()
            .with_trip(10_000.0, 9_000.0) // thermal path inert: battery only
            .with_battery(battery);
        let cluster = ClusterConfig::new(1, EngineConfig::vllm().with_governance(gov));
        let cfg = serving(2.0, 40).with_retries(3, 0.5);
        let r = simulate_cluster(&cluster, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 7)
            .expect("runs");
        assert!(r.brownout_events > 0, "battery must brown out: {r:?}");
        assert_eq!(r.crash_events, 0, "brown-outs must not count as crashes");
        assert!(
            r.availability < 1.0,
            "brown-out windows are downtime: {}",
            r.availability
        );
        assert!(r.fleet.completed > 0, "fleet must recover after recharge");
        let g = r.governance.expect("governance enabled");
        assert!(g.brownouts >= r.brownout_events as u64);
        assert!(g.energy_drawn_j > 0.0);
        // Determinism across runs, brown-outs and all.
        let again = simulate_cluster(&cluster, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 7)
            .expect("runs");
        assert_eq!(r, again);
    }

    #[test]
    fn dead_battery_without_recharge_strands_the_fleet_gracefully() {
        use edgereasoning_soc::thermal::{BatteryConfig, GovernanceConfig};
        // No recharge path: once the only replica browns out its recovery
        // time is infinite. The router must terminate (not spin or emit
        // NaN schedules), leaving the unserved remainder as failures.
        let battery = BatteryConfig {
            capacity_j: 300.0,
            ..BatteryConfig::default()
        };
        let gov = GovernanceConfig::default()
            .with_trip(10_000.0, 9_000.0)
            .with_battery(battery);
        let cluster = ClusterConfig::new(1, EngineConfig::vllm().with_governance(gov));
        let cfg = serving(2.0, 40).with_deadline(120.0);
        let r = simulate_cluster(&cluster, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 7)
            .expect("a stranded fleet is a result, not an error");
        assert_eq!(r.brownout_events, 1);
        assert!(
            r.fleet.completed < 40,
            "a dead fleet cannot finish the trace"
        );
        assert!(r.fleet.wall_s.is_finite());
        assert!(r.availability.is_finite());
    }

    #[test]
    fn quiet_domains_are_bit_identical_to_none() {
        use edgereasoning_soc::faults::{DomainConfig, DomainKind};
        let cfg = serving(1.5, 40).with_deadline(60.0).with_retries(2, 1.0);
        for seed in [1u64, 9] {
            let base = ClusterConfig::new(2, EngineConfig::vllm()).with_crashes(crashy(600.0));
            let want = simulate_cluster(&base, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, seed)
                .expect("runs");
            let quiet = base.clone().with_domains(vec![
                DomainConfig::quiet(DomainKind::Power, vec![0, 1]),
                DomainConfig::quiet(DomainKind::Network, vec![1]),
            ]);
            let got = simulate_cluster(&quiet, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, seed)
                .expect("runs");
            assert_eq!(want, got, "quiet domains must be a bit-exact no-op");
        }
    }

    #[test]
    fn domain_crashes_hit_all_members_together() {
        use edgereasoning_soc::faults::{DomainConfig, DomainKind};
        // All crash weather comes from one power domain over both
        // replicas: every window is shared, so per-replica crash events
        // come in pairs and both replicas log identical outage starts.
        let domain = DomainConfig {
            crash_mtbf_s: 60.0,
            crash_mttr_s: 8.0,
            ..DomainConfig::quiet(DomainKind::Power, vec![0, 1])
        };
        let cluster = ClusterConfig::new(2, EngineConfig::vllm()).with_domains(vec![domain]);
        let cfg = serving(2.0, 200).with_deadline(200.0).with_retries(3, 1.0);
        let r = simulate_cluster(&cluster, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 11)
            .expect("runs");
        assert!(r.crash_events > 0, "domain weather must produce crashes");
        assert_eq!(
            r.crash_events % 2,
            0,
            "every domain crash hits both members: {}",
            r.crash_events
        );
        assert_eq!(
            r.fleet.completed + r.fleet.shed_queries + r.fleet.failed_queries,
            200,
            "domain crashes must conserve the request ledger"
        );
    }

    #[test]
    fn partitions_void_and_requeue_without_double_counting_energy() {
        use edgereasoning_soc::faults::{DomainConfig, DomainKind};
        // A network domain long enough to exceed the detection timeout:
        // the router must detect, void, requeue — and the audit (run
        // inside `simulate_cluster` in test builds, and explicitly here)
        // proves the energy ledger still closes.
        let domain = DomainConfig {
            event_mtbf_s: 50.0,
            event_duration_s: 15.0,
            ..DomainConfig::quiet(DomainKind::Network, vec![0])
        };
        let cluster = ClusterConfig::new(2, EngineConfig::vllm()).with_domains(vec![domain]);
        let cfg = serving(2.0, 200).with_deadline(300.0).with_retries(3, 1.0);
        let r = simulate_cluster(&cluster, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 3)
            .expect("runs");
        assert!(r.partition_events > 0, "partitions must fire: {r:?}");
        assert!(r.partition_voided > 0, "in-flight work must be voided");
        assert_eq!(
            r.fleet.completed + r.fleet.shed_queries + r.fleet.failed_queries,
            200,
            "voided work must be requeued or accounted, never lost"
        );
        let violations = crate::audit::audit_cluster(&cfg, &cluster, &r);
        assert!(violations.is_empty(), "{violations:?}");
        // Determinism with partitions in play.
        let again = simulate_cluster(&cluster, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 3)
            .expect("runs");
        assert_eq!(r, again);
    }

    #[test]
    fn breakers_trip_on_crashes_and_rejoin_after_probes() {
        let cluster = ClusterConfig::new(2, EngineConfig::vllm())
            .with_crashes(crashy(70.0))
            .with_breaker(BreakerConfig::edge_default());
        let cfg = serving(2.0, 200).with_deadline(200.0).with_retries(3, 1.0);
        let r = simulate_cluster(&cluster, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 21)
            .expect("runs");
        assert!(r.crash_events > 0, "weather must produce crashes");
        assert!(
            r.breaker_trips >= r.crash_events,
            "every crash recovery trips the breaker: {} trips, {} crashes",
            r.breaker_trips,
            r.crash_events
        );
        assert!(
            r.breaker_rejoins > 0,
            "replicas must pass probes and rejoin: {r:?}"
        );
        assert!(r.breaker_rejoins <= r.breaker_trips);
        assert_eq!(
            r.fleet.completed + r.fleet.shed_queries + r.fleet.failed_queries,
            200
        );
    }

    #[test]
    fn fifo_admission_in_cluster_is_decision_inert() {
        use crate::serving::{AdmissionConfig, Priority, PriorityMix};
        let cfg = serving(2.0, 60).with_deadline(90.0).with_retries(2, 1.0);
        let tagged = cfg.with_admission(AdmissionConfig::fifo(PriorityMix::EDGE_MIX, 7));
        for seed in [2u64, 17] {
            let cluster = ClusterConfig::new(2, EngineConfig::vllm()).with_crashes(crashy(900.0));
            let want =
                simulate_cluster(&cluster, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, seed)
                    .expect("runs");
            let got = simulate_cluster(
                &cluster,
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                &tagged,
                seed,
            )
            .expect("runs");
            // Tagging decides nothing: the flat fleet and replica reports
            // are bit-identical; only the class breakdown appears.
            assert_eq!(want.fleet, got.fleet, "seed {seed}");
            assert_eq!(want.replicas, got.replicas, "seed {seed}");
            let classes = got.classes.expect("admission reports classes");
            let offered: usize = Priority::ALL
                .iter()
                .map(|&p| classes.class(p).offered)
                .sum();
            assert_eq!(offered, 60, "every query is tagged exactly once");
        }
    }

    #[test]
    fn bad_breaker_and_domain_configs_are_rejected() {
        use edgereasoning_soc::faults::{DomainConfig, DomainKind};
        let cfg = serving(1.0, 10);
        let run = |cluster: &ClusterConfig| {
            simulate_cluster(cluster, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 1)
        };
        let bad_breaker = ClusterConfig::new(1, EngineConfig::vllm()).with_breaker(BreakerConfig {
            failure_threshold: 0,
            ..BreakerConfig::edge_default()
        });
        assert!(matches!(
            run(&bad_breaker),
            Err(EngineError::InvalidRequest(_))
        ));
        let out_of_range = ClusterConfig::new(2, EngineConfig::vllm())
            .with_domains(vec![DomainConfig::quiet(DomainKind::Power, vec![0, 2])]);
        assert!(matches!(
            run(&out_of_range),
            Err(EngineError::InvalidRequest(_))
        ));
        let no_mttr =
            ClusterConfig::new(1, EngineConfig::vllm()).with_domains(vec![DomainConfig {
                crash_mtbf_s: 100.0,
                crash_mttr_s: 0.0,
                ..DomainConfig::quiet(DomainKind::Thermal, vec![0])
            }]);
        assert!(matches!(run(&no_mttr), Err(EngineError::InvalidRequest(_))));
    }
}
