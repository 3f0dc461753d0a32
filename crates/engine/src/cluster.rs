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
//! * **failover** — a [`FaultKind::DeviceCrash`] window zeroes the
//!   replica's KV cache and voids every in-flight sequence; voided
//!   sequences re-enter the queue with their retry/backoff budget and are
//!   recomputed on a surviving replica (counted as `crash_lost` /
//!   `crash_recovered`, distinct from OOM preemptions); the restart pays a
//!   cold-start penalty on top of the repair window;
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
//! # Determinism
//!
//! The simulation is a single-threaded discrete-event loop: at every
//! iteration the replica with the earliest actionable instant executes one
//! scheduling step of the serving loop (ties break by health,
//! then free KV tokens, then index). Each replica draws from its own RNG
//! lanes — engine noise, disturbance weather and crash weather are all
//! seeded per replica via `item_seed` — so reports are bit-identical
//! across runs and across `par_map_deterministic` thread counts.
//!
//! [`simulate_serving_continuous`]: crate::serving::simulate_serving_continuous
//! [`simulate_serving`]: crate::serving::simulate_serving
//! [`simulate_serving_sessions`]: crate::session::simulate_serving_sessions

use std::cmp::{Ordering, Reverse};

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
use crate::stepper::{BatchStepper, SlotId};
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
    /// replica looked Up but stopped answering; detection costs
    /// [`PARTITION_DETECT_S`] of wall clock).
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
    /// Fleet energy total, joules (duplicates `fleet.energy_j` for the
    /// conservation auditor's ledger check against the per-replica split).
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
        if self
            .crashes
            .get(self.next_crash)
            .is_some_and(|&(start, _)| start <= t)
        {
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
/// At every iteration the replica with the earliest actionable instant
/// executes one scheduling step: outage or partition handling, then the
/// batching boundary (idle jump → pump → deadline shed → capacity shed →
/// aging shed → admission → hedge → step).
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
#[allow(clippy::too_many_lines)]
pub(crate) fn run_fleet<S: Source>(
    cluster: &ClusterConfig,
    reps: &mut [Replica<'_>],
    cfg: &ServingConfig,
    kind: SchedulerKind,
    mut pq: PendingQueue<S>,
) -> FleetRun {
    let n = reps.len();
    let mut live: Vec<ClusterSlot> = Vec::new();
    let mut group: Vec<QKey> = Vec::new();
    // Recycled member buffers and hedge-candidate scratch: the router's
    // steady state allocates nothing — every slot death returns its member
    // vector here and every admission draws from the pool.
    let mut member_pool: Vec<Vec<QKey>> = Vec::new();
    let mut hedge_scratch: Vec<u64> = Vec::new();
    fn recycle(pool: &mut Vec<Vec<QKey>>, mut v: Vec<QKey>) {
        v.clear();
        pool.push(v);
    }
    let mut fleet = ServingAccumulator::default();
    // Per-replica bookings. A lone replica's bookings are the fleet's, so
    // it books once and its report is derived from the fleet's at the end.
    let mut rep_accs = vec![ServingAccumulator::default(); if n > 1 { n } else { 0 }];
    let mut next_key = 0u64;
    // Fleet latency EWMA for hedge arming. `Ewma` seeds from the first
    // observation (bit-exact with the old inline update, minus its
    // cold-start-at-zero bias).
    let mut lat_est = Ewma::new(HEDGE_EWMA_ALPHA);
    let mut crash_events = 0usize;
    let mut crash_lost = 0usize;
    let mut crash_recovered = 0usize;
    let mut hedges_fired = 0usize;
    let mut hedge_wins = 0usize;
    let mut hedge_energy_j = 0.0f64;
    let mut brownout_events = 0usize;
    let mut partition_events = 0usize;
    let mut partition_voided = 0usize;
    let mut ttft = Distribution::default();
    let mut prompt_tokens = 0u64;
    let mut cached_tokens = 0u64;
    // Fleet-wide priority admission: one controller in front of the shared
    // queue.
    let mut adm = cfg.admission.as_ref().map(|a| {
        pq.set_tagger(a.mix, a.class_seed);
        AdmissionState::new(*a)
    });
    let shared_prefix: &[u64] = cluster.shared_prefix.as_deref().unwrap_or(&[]);
    // Routing tie-break at instant `t`, lowest first: the healthiest, then
    // the warmest prefix cache (longest cached template prefix — zero for
    // every replica when no shared prefix is configured), then the most
    // free KV tokens.
    let route_key = |rep: &Replica<'_>, t: f64| {
        let cached = if shared_prefix.is_empty() {
            0
        } else {
            rep.stepper
                .cached_prefix_tokens(shared_prefix, cfg.prompt_tokens)
        };
        let free = rep.stepper.kv_free_tokens();
        (rep.health_at(t).rank(), Reverse(cached), Reverse(free))
    };

    while reps.iter().any(|rep| rep.stepper.is_busy()) || !pq.is_exhausted() {
        // Earliest instant any pending (or still-undrawn) query becomes
        // ready — O(log) against the queue, and asked only when an idle
        // replica needs it (a busy one acts at its own clock).
        let mut min_ready: Option<f64> = None;

        // Route: the replica that can act earliest wins; ties go to the
        // lowest `route_key`, then the lowest index. Busy replicas act at
        // their own clock (their next decode boundary); idle ones at the
        // next arrival.
        let mut best: Option<(f64, usize)> = None;
        for (r, rep) in reps.iter().enumerate() {
            let t_act = if rep.stepper.is_busy() {
                rep.clock
            } else {
                let ready = *min_ready.get_or_insert_with(|| pq.min_ready());
                if !ready.is_finite() {
                    continue;
                }
                rep.clock.max(ready)
            };
            // A replica browned out with no recharge path has an infinite
            // recovery time: it never acts again. Skipping it here (rather
            // than letting `max` swallow the jump) keeps the loop's exit
            // condition honest when the whole fleet is dead.
            if !t_act.is_finite() {
                continue;
            }
            let better = match best {
                None => true,
                Some((bt, b)) => match t_act.total_cmp(&bt) {
                    Ordering::Less => true,
                    Ordering::Greater => false,
                    Ordering::Equal => route_key(rep, t_act) < route_key(&reps[b], bt),
                },
            };
            if better {
                best = Some((t_act, r));
            }
        }
        let Some((t_act, r)) = best else {
            break; // nothing can act: only unreachable future crash windows
        };

        // An outage the replica's action time has reached fires before any
        // scheduling: a crash window from the weather, or a battery
        // brown-out detected by the replica's own governor (recovery comes
        // from the recharge model instead of repair + cold start). The
        // device dies, its KV cache is zeroed, every in-flight sequence is
        // voided into the retry queue, and the clock jumps past recovery.
        // Only crashes move the crash counters (`mark_crashed` and
        // `crash_lost`): those stay exogenous-only, and `brownout_events`
        // owns the brown-out path.
        let outage = if let Some(&(start, end)) = reps[r]
            .crashes
            .get(reps[r].next_crash)
            .filter(|&&(start, _)| start <= t_act)
        {
            reps[r].next_crash += 1;
            crash_events += 1;
            Some((start, end + cluster.crash.cold_start_s, true))
        } else if let Some((start, recovery)) = reps[r].engine.governance_take_outage() {
            brownout_events += 1;
            Some((start, recovery, false))
        } else {
            None
        };
        if let Some((start, recovery, crashed)) = outage {
            reps[r].outages.push((start, recovery));
            for id in reps[r].stepper.fail_all() {
                let Some(pos) = live.iter().position(|s| s.replica == r && s.id == id) else {
                    continue;
                };
                let slot = live.remove(pos);
                if let Some(peer) = slot.pair {
                    // The hedge twin survives elsewhere and still owns the
                    // queries: dissolve the pair, nothing to requeue.
                    if let Some(p) = live.iter_mut().find(|s| s.key == peer) {
                        p.pair = None;
                    }
                    recycle(&mut member_pool, slot.members);
                    continue;
                }
                if crashed {
                    crash_lost += slot.members.len();
                    for &k in &slot.members {
                        pq.mark_crashed(k);
                    }
                }
                pq.requeue_failed(
                    &slot.members,
                    t_act,
                    cfg.max_retries,
                    cfg.retry_backoff_s,
                    &mut fleet,
                );
                recycle(&mut member_pool, slot.members);
            }
            reps[r].clock = reps[r].clock.max(recovery);
            reps[r].drain_now = reps[r].drain_now.max(reps[r].clock);
            reps[r].throttle_streak = 0;
            // A configured breaker makes the rejoin cautious: the revived
            // replica must pass its half-open probes before full traffic.
            if let Some(b) = reps[r].breaker.as_mut() {
                b.trip(recovery);
            }
            continue;
        }

        // A router↔replica partition: the device itself keeps running (it
        // looks Up to health checks) but the router cannot reach it. The
        // router only learns after PARTITION_DETECT_S of silence, then
        // voids the replica's in-flight work into failover. Cancelled
        // slots book their accrued energy exactly once, here — the slot is
        // removed from the stepper, so no later fail/retire can re-book it.
        if let Some(&(start, end)) = reps[r].partitions.get(reps[r].next_partition) {
            if start <= t_act {
                if t_act >= end {
                    // Healed before the router acted at all.
                    reps[r].next_partition += 1;
                    continue;
                }
                let detect_at = start + PARTITION_DETECT_S;
                if detect_at >= end {
                    // Too short for the timeout to fire: invisible.
                    reps[r].next_partition += 1;
                    continue;
                }
                if t_act < detect_at {
                    // Still inside the timeout: the router waits.
                    reps[r].clock = detect_at;
                    continue;
                }
                reps[r].next_partition += 1;
                partition_events += 1;
                reps[r].outages.push((detect_at, end));
                while let Some(pos) = live.iter().position(|s| s.replica == r) {
                    let slot = live.remove(pos);
                    let spent = reps[r].stepper.cancel(slot.id).unwrap_or(0.0);
                    fleet.energy += spent;
                    if let Some(acc) = rep_accs.get_mut(r) {
                        acc.energy += spent;
                    }
                    if let Some(peer) = slot.pair {
                        if let Some(p) = live.iter_mut().find(|s| s.key == peer) {
                            p.pair = None;
                        }
                        recycle(&mut member_pool, slot.members);
                        continue;
                    }
                    partition_voided += slot.members.len();
                    pq.requeue_failed(
                        &slot.members,
                        t_act,
                        cfg.max_retries,
                        cfg.retry_backoff_s,
                        &mut fleet,
                    );
                    recycle(&mut member_pool, slot.members);
                }
                reps[r].clock = reps[r].clock.max(end);
                reps[r].drain_now = reps[r].drain_now.max(reps[r].clock);
                // A timed-out replica trips its breaker immediately: no
                // point probing a box the network just ate.
                if let Some(b) = reps[r].breaker.as_mut() {
                    b.trip(end);
                }
                continue;
            }
        }

        // From here on this is one iteration of the serving loop, executed
        // on replica `r` at instant `t_act` (the idle-jump is already
        // folded into `t_act`).
        reps[r].clock = t_act;
        reps[r].served = reps[r].served.max(t_act);
        let now = t_act;
        // Materialize every arrival due by this instant; later ones stay
        // inside the generator.
        pq.pump(now);
        // Lazily advance this replica's breaker (Open past its cooldown
        // becomes HalfOpen, ready to probe).
        if let Some(b) = reps[r].breaker.as_mut() {
            b.poll(now);
        }

        // Fleet-level admission control, evaluated at every scheduling
        // boundary.
        if let Some(d) = cfg.deadline_s {
            let shed = pq.shed_expired(now, d);
            if shed > 0 {
                fleet.shed += shed;
                continue;
            }
        }
        if cfg.queue_capacity > 0 {
            let shed = pq.shed_over_capacity(now, cfg.queue_capacity);
            if shed > 0 {
                fleet.shed += shed;
                continue;
            }
        }
        // CoDel-style queue aging: stale low-priority work is dropped
        // early instead of poisoning the queue (priority policy only).
        if let Some(st) = adm
            .as_ref()
            .filter(|s| s.cfg.policy == AdmissionPolicy::Priority)
        {
            let shed = pq.shed_aged(now, &st.cfg.age_target_s);
            if shed > 0 {
                fleet.shed += shed;
                continue;
            }
        }

        // Admission into this replica's headroom; gang scheduling leaves a
        // busy replica none. An open breaker refuses new work (the running
        // batch, if any, drains).
        let breaker_open = reps[r].breaker.as_ref().is_some_and(|b| b.is_open_at(now));
        let room = if kind == SchedulerKind::Static && reps[r].stepper.is_busy() {
            0
        } else {
            effective_batch(cfg, reps[r].level).saturating_sub(reps[r].stepper.live_queries())
        };
        let mut slack_shed = 0usize;
        if room > 0 && !breaker_open {
            let room = if S::OWN_SHAPE { 1 } else { room };
            match adm
                .as_mut()
                .filter(|s| s.cfg.policy == AdmissionPolicy::Priority)
            {
                Some(st) => {
                    let need =
                        (cfg.prompt_tokens + effective_out_tokens(cfg, reps[r].level)) as u64;
                    slack_shed = st.select(
                        &mut pq,
                        now,
                        room,
                        reps[r].stepper.kv_free_tokens(),
                        need,
                        cfg.deadline_s,
                        &mut group,
                    );
                    fleet.shed += slack_shed;
                }
                None => pq.collect_ready(now, room, &mut group),
            }
            if !group.is_empty() {
                let (prompt, out_tokens, prefix) =
                    shape(&pq, group[0], cfg, reps[r].level, shared_prefix);
                let req = GenerationRequest::new(prompt, out_tokens).with_batch(group.len());
                let rep = &mut reps[r];
                match rep.stepper.admit_prefixed(rep.engine, now, &req, prefix) {
                    Ok(adm) => {
                        if S::OWN_SHAPE {
                            ttft.record(adm.end_s - pq.arrival_s(group[0]));
                            prompt_tokens += prompt as u64;
                            cached_tokens += adm.cached_tokens as u64;
                        }
                        pq.commit_admitted(&group);
                        let mut members = member_pool.pop().unwrap_or_default();
                        members.extend_from_slice(&group);
                        live.push(ClusterSlot {
                            key: next_key,
                            replica: r,
                            id: adm.id,
                            admit_s: now,
                            out_tokens,
                            members,
                            pair: None,
                            is_hedge: false,
                        });
                        next_key += 1;
                        rep.clock = adm.end_s;
                        rep.served = rep.served.max(adm.end_s);
                        continue;
                    }
                    // A busy replica refusing an own-shape request keeps it
                    // queued while the batch steps and frees KV.
                    Err(_) if S::OWN_SHAPE && rep.stepper.is_busy() => {}
                    Err(_) => {
                        // An idle replica has its whole KV budget free: an
                        // own-shape request it refuses can never be placed.
                        let retries = if S::OWN_SHAPE { 0 } else { cfg.max_retries };
                        pq.requeue_failed(&group, now, retries, cfg.retry_backoff_s, &mut fleet);
                        if let Some(b) = rep.breaker.as_mut() {
                            b.on_failure(now);
                        }
                        if cfg.degradation {
                            rep.level = (rep.level + 1).min(MAX_DEGRADE_LEVEL);
                        }
                        continue;
                    }
                }
            }
        }
        if !reps[r].stepper.is_busy() {
            if breaker_open {
                // Idle behind an open breaker: nothing can happen on this
                // replica until the cooldown elapses, so jump its clock
                // there (other replicas keep acting at their own clocks).
                if let Some(until) = reps[r].breaker.as_ref().and_then(Breaker::open_until) {
                    reps[r].clock = reps[r].clock.max(until);
                }
                continue;
            }
            if slack_shed == 0 {
                if let Some(st) = adm
                    .as_mut()
                    .filter(|s| s.cfg.policy == AdmissionPolicy::Priority)
                {
                    // Idle with ready work but an empty admission group:
                    // either a bucket is starved (jump to its refill) or
                    // nothing can ever admit (shed the head for liveness —
                    // an idle replica has its whole KV budget free, so
                    // what cannot fit here cannot fit anywhere).
                    let t = st.next_release_s(now);
                    if t.is_finite() && t > now {
                        reps[r].clock = t;
                    } else {
                        pq.collect_ready(now, 1, &mut group);
                        if let Some(&k) = group.first() {
                            if pq.shed_key(k) {
                                fleet.shed += 1;
                            }
                        }
                    }
                }
            }
            continue;
        }

        // Hedging: any unhedged in-flight group whose oldest member has
        // been outstanding (since *arrival*) longer than the armed
        // threshold is cloned onto the best *other* replica before this
        // decode boundary runs. First completion will win. Measuring from
        // arrival makes crash-requeued stragglers hedge-eligible as soon
        // as they are re-admitted — exactly the requests worth cloning.
        if let Some(factor) = cluster.hedge_factor {
            if let Some(est) = lat_est.get() {
                let threshold = factor * est;
                // Members are admitted in seq order and arrivals are
                // monotone in seq, so the oldest member is always the
                // first: `max_k(now - arrival_k) == now - arrival_0`
                // bit-exactly (IEEE subtraction is monotone, and both
                // sides are >= +0.0, the old fold's init).
                let age = |s: &ClusterSlot| match s.members.first() {
                    Some(&k) => now - pq.arrival_s(k),
                    None => 0.0,
                };
                hedge_scratch.clear();
                hedge_scratch.extend(
                    live.iter()
                        .filter(|s| s.pair.is_none() && !s.is_hedge && age(s) > threshold)
                        .map(|s| s.key),
                );
                for &key in &hedge_scratch {
                    let Some(orig_pos) = live.iter().position(|s| s.key == key) else {
                        continue;
                    };
                    let (home, m_len, out_tokens) = {
                        let s = &live[orig_pos];
                        (s.replica, s.members.len(), s.out_tokens)
                    };
                    // The clone repeats the original's request: its
                    // shape, with the output budget it was admitted at.
                    let (prompt, _, prefix) =
                        shape(&pq, live[orig_pos].members[0], cfg, 0, shared_prefix);
                    let need = prompt + out_tokens;
                    // Best healthy, least-loaded target that could hold
                    // the clone.
                    let mut target: Option<(u8, u64, usize)> = None;
                    for (q, rep) in reps.iter().enumerate() {
                        if q == home {
                            continue;
                        }
                        let health = rep.health_at(now);
                        if health == ReplicaHealth::Down {
                            continue;
                        }
                        let headroom = effective_batch(cfg, rep.level)
                            .saturating_sub(rep.stepper.live_queries());
                        if headroom < m_len || !rep.stepper.kv_would_fit(m_len, need) {
                            continue;
                        }
                        let free = rep.stepper.kv_free_tokens();
                        let better = match target {
                            None => true,
                            Some((bh, bf, _)) => {
                                health.rank() < bh || (health.rank() == bh && free > bf)
                            }
                        };
                        if better {
                            target = Some((health.rank(), free, q));
                        }
                    }
                    let Some((_, _, q)) = target else { continue };
                    let req = GenerationRequest::new(prompt, out_tokens).with_batch(m_len);
                    let rep = &mut reps[q];
                    let Ok(adm) = rep.stepper.admit_prefixed(rep.engine, now, &req, prefix) else {
                        continue; // refusal leaves the target untouched
                    };
                    rep.clock = rep.clock.max(adm.end_s);
                    rep.served = rep.served.max(adm.end_s);
                    hedges_fired += 1;
                    let clone_key = next_key;
                    next_key += 1;
                    let mut members = member_pool.pop().unwrap_or_default();
                    members.extend_from_slice(&live[orig_pos].members);
                    live[orig_pos].pair = Some(clone_key);
                    live.push(ClusterSlot {
                        key: clone_key,
                        replica: q,
                        id: adm.id,
                        admit_s: now,
                        out_tokens,
                        members,
                        pair: Some(key),
                        is_hedge: true,
                    });
                }
            }
        }

        // One decode iteration for this replica's mixed-context batch.
        let rep = &mut reps[r];
        match rep.stepper.step(rep.engine) {
            Ok(out) => {
                rep.clock = out.end_s;
                rep.served = rep.served.max(out.end_s);
                for f in out.retired {
                    let Some(pos) = live.iter().position(|s| s.replica == r && s.id == f.id) else {
                        continue;
                    };
                    let slot = live.remove(pos);
                    let service = f.outcome.total_latency_s() + f.extra_wait_s;
                    let completion = slot.admit_s + service;
                    reps[r].drain_now = reps[r].drain_now.max(completion);
                    // A winning hedge cancels its loser; the loser's
                    // accrued energy is still booked.
                    if let Some(peer) = slot.pair {
                        if let Some(ppos) = live.iter().position(|s| s.key == peer) {
                            let loser = live.remove(ppos);
                            let spent = reps[loser.replica].stepper.cancel(loser.id).unwrap_or(0.0);
                            fleet.energy += spent;
                            if let Some(acc) = rep_accs.get_mut(loser.replica) {
                                acc.energy += spent;
                            }
                            hedge_energy_j += spent;
                            recycle(&mut member_pool, loser.members);
                        }
                    }
                    if slot.is_hedge {
                        // The clone delivered — either it beat a live
                        // original or the original died in a crash and the
                        // pair was dissolved.
                        hedge_wins += 1;
                    }
                    let mut rep_acc = rep_accs.get_mut(r);
                    let mut step_missed = false;
                    let energy_share = f.outcome.total_energy_j() / slot.members.len() as f64;
                    for &k in &slot.members {
                        let arrival_s = pq.arrival_s(k);
                        let latency = completion - arrival_s;
                        let wait = slot.admit_s - arrival_s;
                        let missed = cfg.deadline_s.is_some_and(|d| latency > d);
                        fleet.record_query(latency, wait);
                        if missed {
                            fleet.deadline_misses += 1;
                            step_missed = true;
                        }
                        if let Some(acc) = rep_acc.as_mut() {
                            acc.record_query(latency, wait);
                            if missed {
                                acc.deadline_misses += 1;
                            }
                        }
                        if let Some(st) = adm.as_mut() {
                            st.classes
                                .record(pq.class_of(k), latency, missed, energy_share);
                        }
                        // Only crash outages mark queries, and they count
                        // `crash_lost` as they do.
                        if crash_lost > 0 && pq.take_crashed(k) {
                            crash_recovered += 1;
                        }
                        // The latency estimate arms hedging and nothing else.
                        if cluster.hedge_factor.is_some() {
                            lat_est.observe(latency);
                        }
                    }
                    if let Some(st) = adm.as_mut() {
                        st.observe_service(service);
                    }
                    if let Some(b) = reps[r].breaker.as_mut() {
                        b.on_success(service, completion);
                    }
                    // Metrics booked; the winner retires its members' arena
                    // slots (a cancelled hedge loser shares these keys and
                    // must not release them again).
                    for &k in &slot.members {
                        pq.release(k);
                    }
                    let degraded = reps[r].level > 0;
                    for acc in std::iter::once(&mut fleet).chain(rep_acc) {
                        acc.energy += f.outcome.total_energy_j();
                        acc.tokens += f.outcome.total_generated_tokens() as f64;
                        acc.record_batch(slot.members.len());
                        acc.preemptions += f.outcome.preemptions;
                        if degraded {
                            acc.degraded_s += service;
                        }
                    }
                    recycle(&mut member_pool, slot.members);
                    if f.outcome.throttled_s > 0.0 {
                        reps[r].throttle_streak += 1;
                    } else {
                        reps[r].throttle_streak = 0;
                    }
                    if cfg.degradation {
                        if f.outcome.throttled_s > 0.0 || step_missed {
                            reps[r].level = (reps[r].level + 1).min(MAX_DEGRADE_LEVEL);
                        } else {
                            reps[r].level = reps[r].level.saturating_sub(1);
                        }
                    }
                }
                if !reps[r].stepper.is_busy() {
                    // Drained: completions (which carry the run-level
                    // jitter) define this replica's clock.
                    reps[r].clock = reps[r].drain_now;
                    reps[r].served = reps[r].served.max(reps[r].drain_now);
                }
            }
            Err(_) => {
                // The whole batch is stuck (e.g. an unplaceable waiting
                // group): fail this replica's slots into the retry
                // machinery; hedge twins elsewhere keep their queries.
                for id in rep.stepper.fail_all() {
                    let Some(pos) = live.iter().position(|s| s.replica == r && s.id == id) else {
                        continue;
                    };
                    let slot = live.remove(pos);
                    if let Some(peer) = slot.pair {
                        if let Some(p) = live.iter_mut().find(|s| s.key == peer) {
                            p.pair = None;
                        }
                        recycle(&mut member_pool, slot.members);
                        continue;
                    }
                    pq.requeue_failed(
                        &slot.members,
                        now,
                        cfg.max_retries,
                        cfg.retry_backoff_s,
                        &mut fleet,
                    );
                    recycle(&mut member_pool, slot.members);
                }
                if let Some(b) = reps[r].breaker.as_mut() {
                    b.on_failure(now);
                }
                if cfg.degradation {
                    reps[r].level = (reps[r].level + 1).min(MAX_DEGRADE_LEVEL);
                }
            }
        }
    }

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

    // A stranded run (every replica browned out for good) leaves arrivals
    // queued or undrawn; the offered count includes them.
    #[cfg(any(test, debug_assertions))]
    let drained = pq.is_exhausted();
    let offered = pq.offered();
    let cfg = &ServingConfig {
        queries: offered,
        ..*cfg
    };
    let fleet_energy_j = fleet.energy;
    let fleet = fleet.into_report(cfg, wall);
    let mut replica_energy_j: Vec<f64> = rep_accs.iter().map(|acc| acc.energy).collect();
    let mut replicas: Vec<ServingReport> = rep_accs
        .into_iter()
        .zip(reps.iter())
        .map(|(acc, rep)| acc.into_report(cfg, rep.served))
        .collect();
    if n == 1 {
        // The lone replica booked into the fleet accumulator; shed, failed
        // and retry counts are fleet-level decisions.
        replicas.push(ServingReport {
            shed_queries: 0,
            failed_queries: 0,
            retries: 0,
            ..fleet
        });
        replica_energy_j.push(fleet_energy_j);
    }
    let mut governance: Option<GovernanceStats> = None;
    let mut breaker_trips = 0usize;
    let mut breaker_rejoins = 0usize;
    for rep in reps.iter() {
        if let Some(stats) = rep.engine.governance_stats() {
            governance
                .get_or_insert_with(GovernanceStats::default)
                .absorb(&stats);
        }
        if let Some(b) = &rep.breaker {
            breaker_trips += b.trips;
            breaker_rejoins += b.rejoins;
        }
    }
    let classes = adm.map(|st| st.classes.into_breakdown(pq.class_counts(), wall));
    let report = ClusterReport {
        fleet,
        replicas,
        availability,
        crash_events,
        crash_lost,
        crash_recovered,
        hedges_fired,
        hedge_wins,
        hedge_energy_j,
        brownout_events,
        governance,
        partition_events,
        partition_voided,
        breaker_trips,
        breaker_rejoins,
        fleet_energy_j,
        replica_energy_j,
        classes,
    };
    // Debug and test builds close the fleet's books on every run: requests
    // and joules, and on every replica the KV blocks and prefix pins. A
    // fleet that died for good (e.g. every battery flat with no recharge
    // path) legitimately strands its queue — conservation only holds for
    // runs that drained, so the stranded case is exempt.
    #[cfg(any(test, debug_assertions))]
    if drained {
        let violations = crate::audit::audit_cluster(cfg, cluster, &report);
        debug_assert!(violations.is_empty(), "cluster audit: {violations:?}");
        for (r, rep) in reps.iter().enumerate() {
            let s = &rep.stepper;
            debug_assert!(!s.is_busy(), "replica {r} still busy at drain");
            debug_assert_eq!(s.prefix_outstanding_pins(), 0, "replica {r}: prefix pins");
            debug_assert_eq!(
                s.kv_free_tokens() + s.kv_evictable_tokens(),
                s.kv_capacity_tokens(),
                "replica {r}: KV blocks"
            );
        }
    }
    FleetRun {
        report,
        offered,
        ttft,
        prompt_tokens,
        cached_tokens,
    }
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
