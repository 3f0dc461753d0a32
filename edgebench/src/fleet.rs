//! `fleet_storm`: 250k open-loop Poisson requests (128 in / 128 out) per
//! part, four parts to a run (10^6 requests in all), over a three-replica
//! DSR1-Qwen-1.5B fleet at 0.85 of its measured capacity,
//! with every robustness mechanism on: crash and derate weather, power
//! and network failure domains, circuit breakers, hedging, priority
//! admission over the edge-gateway mix, a deadline and retries.
//! Thermal/battery governance stays off.
//!
//! Exercises DES dispatch, the router and failover, the plan cache's hit
//! path and the telemetry sketches; the prefix cache, `evaluate` and the
//! fits are not reached.

use std::time::Instant;

use edgereasoning_engine::audit_cluster;
use edgereasoning_engine::cluster::{
    simulate_cluster, BreakerConfig, ClusterConfig, ClusterReport, CrashConfig,
};
use edgereasoning_engine::engine::{EngineConfig, InferenceEngine};
use edgereasoning_engine::serving::{
    simulate_serving_continuous, AdmissionConfig, Priority, PriorityMix, ServingConfig,
};
use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_soc::faults::{DomainConfig, DomainKind, FaultSchedule};
use edgereasoning_soc::runtime::item_seed;
use edgereasoning_workloads::TrafficMix;

use crate::characterize::served_model_paper_dev;
use crate::harness::{fingerprint, secs_since};
use crate::layers::{ratio, PerLayer};
use crate::ledger::{Ledger, Tracer};
use crate::probe;
use crate::{Batch, Scale, Traced, Workload};

const MODEL: ModelId = ModelId::Dsr1Qwen1_5b;
const PREC: Precision = Precision::Fp16;
const REPLICAS: usize = 3;
const MAX_BATCH: usize = 30;
const PROMPT_TOKENS: usize = 128;
const OUTPUT_TOKENS: usize = 128;
/// Offered load as a share of the measured fleet capacity.
const LOAD: f64 = 0.85;
const DEADLINE_S: f64 = 60.0;
/// Queries in the saturating capacity probe.
const PROBE_QUERIES: usize = 6_000;
/// Latency and queue-wait sketches, fleet-wide and per replica: four
/// sketch records per completed request.
const SKETCH_RECORDS_PER_COMPLETION: f64 = 4.0;

pub struct FleetStorm {
    seed: u64,
    cluster: ClusterConfig,
    cfg: ServingConfig,
    paper_dev_pct: f64,
    /// Whether the coverage guard applies (full-size runs only: a smoke
    /// run is too short for every weather mechanism to fire).
    guarded: bool,
}

/// The fleet's service ceiling: a saturating stream with no deadline
/// pressure on calm weather; the achieved rate is the capacity.
fn capacity_qps(seed: u64) -> f64 {
    let cfg = ServingConfig::new(60.0, MAX_BATCH, PROBE_QUERIES, PROMPT_TOKENS, OUTPUT_TOKENS)
        .with_queue_capacity(usize::MAX);
    let report = simulate_cluster(
        &ClusterConfig::new(REPLICAS, EngineConfig::vllm()),
        MODEL,
        PREC,
        &cfg,
        seed,
    )
    .expect("capacity probe runs");
    report.fleet.achieved_qps
}

impl FleetStorm {
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let queries = match scale {
            Scale::Full => 250_000,
            Scale::Smoke => 5_000,
        };
        let capacity = capacity_qps(seed);
        let qps = LOAD * capacity;
        let mix = TrafficMix::EDGE_GATEWAY;
        mix.validate().expect("preset mix is valid");
        let admission = AdmissionConfig::priority(
            PriorityMix {
                interactive: mix.interactive,
                batch: mix.batch,
            },
            seed,
        )
        .with_rate(Priority::Batch, 0.5 * capacity, 8.0)
        .with_rate(Priority::Background, 0.2 * capacity, 4.0)
        .with_age_target(Priority::Background, 2.0)
        .with_age_target(Priority::Batch, 6.0);
        let cfg = ServingConfig::new(qps, MAX_BATCH, queries, PROMPT_TOKENS, OUTPUT_TOKENS)
            .with_deadline(DEADLINE_S)
            .with_retries(3, 0.5)
            .with_queue_capacity(20 * MAX_BATCH)
            .with_admission(admission);
        let cluster = ClusterConfig::new(REPLICAS, EngineConfig::vllm())
            .with_fault_intensity(1.0)
            .with_crashes(CrashConfig {
                mtbf_s: 600.0,
                mttr_s: 8.0,
                cold_start_s: 4.0,
            })
            .with_hedging(2.0)
            .with_breaker(BreakerConfig {
                cooldown_s: 4.0,
                ..BreakerConfig::edge_default()
            })
            .with_domains(vec![
                DomainConfig {
                    crash_mtbf_s: 1200.0,
                    crash_mttr_s: 6.0,
                    ..DomainConfig::quiet(DomainKind::Power, (0..REPLICAS).collect())
                },
                DomainConfig {
                    event_mtbf_s: 120.0,
                    event_duration_s: 5.0,
                    ..DomainConfig::quiet(DomainKind::Network, vec![0])
                },
            ])
            // Weather must cover the whole run (1.5x the arrival span).
            .with_horizon(1.5 * queries as f64 / qps);
        let wl = Self {
            seed,
            cluster,
            cfg,
            paper_dev_pct: served_model_paper_dev(),
            guarded: matches!(scale, Scale::Full),
        };
        if wl.guarded {
            Self::setup(seed, Scale::Smoke).run();
        }
        wl
    }

    fn simulate(&self) -> ClusterReport {
        simulate_cluster(&self.cluster, MODEL, PREC, &self.cfg, self.seed)
            .expect("fleet simulation runs")
    }

    fn batch(&self, r: &ClusterReport, mut violations: Vec<String>) -> Batch {
        if self.guarded {
            let shed_by_admission = r
                .classes
                .map_or(0, |c| c.classes.iter().map(|k| k.shed).sum::<usize>());
            for (name, n) in [
                ("hedges_fired", r.hedges_fired),
                ("breaker_trips", r.breaker_trips),
                ("partition_voided", r.partition_voided),
                ("crash_lost", r.crash_lost),
                ("admission shed", shed_by_admission),
            ] {
                if n == 0 {
                    violations.push(format!("coverage: {name} never fired"));
                }
            }
        }
        let f = &r.fleet;
        Batch {
            sim_requests: self.cfg.queries as u64,
            cells: 1,
            sim_fail_frac: ratio(
                (f.shed_queries + f.failed_queries) as f64,
                self.cfg.queries as f64,
            ),
            sim_slo_attainment: f.slo_attainment,
            paper_dev_pct: self.paper_dev_pct,
            fingerprint: fingerprint(r),
            violations,
        }
    }
}

impl Workload for FleetStorm {
    fn run(&self) -> Batch {
        let report = self.simulate();
        let violations = audit_cluster(&self.cfg, &self.cluster, &report);
        self.batch(&report, violations)
    }

    fn trace(&self) -> Traced {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let report = t.span("simulate_cluster", |_| self.simulate());
        let violations = t.span("audit", |_| {
            audit_cluster(&self.cfg, &self.cluster, &report)
        });
        let wall_s = secs_since(t0);
        let audit_violations = violations.len();
        let batch = self.batch(&report, violations);

        // The fleet's engines are internal to `simulate_cluster`, so its
        // engine counters come from one replica's share of the same
        // traffic on the same weather, run on an engine the benchmark owns,
        // scaled per completed request.
        let share = ServingConfig {
            arrival_qps: self.cfg.arrival_qps / REPLICAS as f64,
            queries: self.cfg.queries / REPLICAS,
            ..self.cfg
        };
        let mut engine = InferenceEngine::new(self.cluster.engine.clone(), self.seed);
        engine.set_fault_schedule(FaultSchedule::generate(
            item_seed(self.seed, 0xfa),
            self.cluster.fault_intensity,
            self.cluster.horizon_s,
        ));
        let replica = simulate_serving_continuous(&mut engine, MODEL, PREC, &share, self.seed)
            .expect("replica share runs");
        let c = engine.counters();
        let f = &report.fleet;
        let per_completion =
            |x: u64| ratio(x as f64, replica.completed as f64) * f.completed as f64;
        let lookups = per_completion(c.cache_hits + c.cache_misses);
        let misses = per_completion(c.cache_misses);

        // Little's law on the report: requests in service per replica.
        let in_service = ratio(
            f.completed as f64 * (f.avg_latency_s - f.avg_queue_wait_s),
            f.wall_s * REPLICAS as f64,
        );
        let avg_batch = in_service.clamp(1.0, MAX_BATCH as f64);
        let chunk = self.cluster.engine.decode_chunk.max(1) as f64;
        let steps = f.total_tokens / (avg_batch * chunk);
        let cfg = &self.cluster.engine;
        let shapes = probe::serving_shapes(
            MODEL,
            PROMPT_TOKENS,
            PROMPT_TOKENS + OUTPUT_TOKENS,
            MAX_BATCH,
        );
        let (lower_ns, roofline_ns) = probe::miss_ns(&shapes, probe::phase_counts(&c), cfg);
        let mut l = PerLayer {
            kernels_lower_ns: lower_ns,
            roofline_phase_ns: roofline_ns,
            plan_cache_misses: misses,
            plan_cache_lookups: lookups,
            plan_cache_hit_rate: c.hit_rate(),
            plan_cache_get_ns: probe::plan_cache_get_ns(&shapes, cfg),
            stepper_decode_steps: steps,
            stepper_avg_batch: avg_batch,
            stepper_step_ns: probe::step_ns(
                cfg,
                MODEL,
                avg_batch.round() as usize,
                PROMPT_TOKENS,
                OUTPUT_TOKENS,
            ),
            stepper_preemptions: f.preemptions as f64,
            stepper_recomputed_tokens: per_completion(c.recomputed_tokens),
            sketch_records: SKETCH_RECORDS_PER_COMPLETION * f.completed as f64,
            sketch_record_ns: probe::record_ns(f.avg_latency_s),
            arrivals_next_ns: probe::next_arrival_ns(self.cfg.arrival_qps, self.seed),
            cluster_hedges_fired: report.hedges_fired as f64,
            cluster_hedge_win_ratio: ratio(report.hedge_wins as f64, report.hedges_fired as f64),
            cluster_voided: (report.crash_lost + report.partition_voided) as f64,
            cluster_recovered_ratio: ratio(report.crash_recovered as f64, report.crash_lost as f64),
            cluster_retries: f.retries as f64,
            cluster_breaker_trips: report.breaker_trips as f64,
            cluster_shed: f.shed_queries as f64,
            audit_s: t.totals("audit").total_s,
            audit_violations: audit_violations as f64,
            ..PerLayer::default()
        };
        let get_s = l.plan_cache_get_ns * 1e-9 * lookups;
        let mut ledger = Ledger::new(wall_s);
        ledger.attributed(
            "arrivals.next",
            l.arrivals_next_ns * 1e-9 * self.cfg.queries as f64,
        );
        // Decode steps look their phases up in the plan cache.
        ledger.attributed(
            "stepper.step (self)",
            l.stepper_step_ns * 1e-9 * steps - get_s,
        );
        ledger.attributed("plan_cache.get", get_s);
        ledger.attributed("kernels.lower", l.kernels_lower_ns * 1e-9 * misses);
        ledger.attributed("roofline.phase", l.roofline_phase_ns * 1e-9 * misses);
        ledger.attributed(
            "sketch.record",
            l.sketch_record_ns * 1e-9 * l.sketch_records,
        );
        ledger.span("audit", t.totals("audit").self_s);
        l.close(&ledger, |l| &mut l.cluster_residual_s);
        Traced {
            batch,
            ledger,
            layers: l,
            residual: "cluster.residual_s (DES, router, failover)",
        }
    }
}
