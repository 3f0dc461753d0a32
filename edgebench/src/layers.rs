//! The per-layer metrics of a traced run. Every workload reports every
//! field; a layer the workload does not reach reads 0, which is the
//! prediction that an optimisation of that layer leaves the workload
//! unchanged.

use crate::harness::Metric;
use crate::ledger::Ledger;

/// Per-layer counts, prices and self times of one traced run.
#[derive(Debug, Clone, Default)]
pub struct PerLayer {
    // workloads.session
    pub session_gen_self_s: f64,
    pub session_gen_turns: f64,
    // models.evaluate
    pub evaluate_self_s: f64,
    pub evaluate_samples: f64,
    // core: rig sweeps, fits, planner
    pub rig_characterize_s: f64,
    pub fit_count: f64,
    pub planner_frontier_s: f64,
    // kernels.phases + soc.gpu, paid once per plan-cache miss
    pub kernels_lower_ns: f64,
    pub roofline_phase_ns: f64,
    pub plan_cache_misses: f64,
    // engine.plan_cache
    pub plan_cache_lookups: f64,
    pub plan_cache_hit_rate: f64,
    pub plan_cache_get_ns: f64,
    // engine.stepper
    pub stepper_decode_steps: f64,
    pub stepper_avg_batch: f64,
    pub stepper_step_ns: f64,
    pub stepper_preemptions: f64,
    pub stepper_recomputed_tokens: f64,
    // engine.prefix_cache
    pub prefix_cache_token_hit_rate: f64,
    pub prefix_cache_lookups: f64,
    pub prefix_cache_inserted_blocks: f64,
    pub prefix_cache_evicted_blocks: f64,
    pub prefix_cache_acquire_ns: f64,
    // engine.telemetry / soc.stats.sketch
    pub sketch_records: f64,
    pub sketch_record_ns: f64,
    // engine.arrivals
    pub arrivals_next_ns: f64,
    // engine.des + engine.cluster
    pub cluster_residual_s: f64,
    pub cluster_hedges_fired: f64,
    pub cluster_hedge_win_ratio: f64,
    pub cluster_voided: f64,
    pub cluster_recovered_ratio: f64,
    pub cluster_retries: f64,
    pub cluster_breaker_trips: f64,
    pub cluster_shed: f64,
    // engine.audit
    pub audit_s: f64,
    pub audit_violations: f64,
    // what the other workloads leave unattributed
    pub session_residual_s: f64,
    pub characterize_residual_s: f64,
    // the ledger itself
    pub ledger_attributed_s: f64,
    pub trace_overhead_s: f64,
    pub ledger_double_counted: f64,
}

impl PerLayer {
    /// Copies the ledger's closure figures in; `residual` receives the
    /// workload's unattributed remainder. The tracing overhead is filled in
    /// once every batch's time is known.
    pub fn close(&mut self, ledger: &Ledger, residual: fn(&mut Self) -> &mut f64) {
        *residual(self) = ledger.residual_s();
        self.ledger_attributed_s = ledger.attributed_s();
        self.ledger_double_counted = f64::from(u8::from(ledger.double_counted()));
    }

    /// Every per-layer metric, by name and unit, in a fixed order.
    pub fn metrics(&self) -> Vec<Metric> {
        let m = Metric::new;
        vec![
            m("session_gen.self_s", self.session_gen_self_s, "s"),
            m("session_gen.turns", self.session_gen_turns, "count"),
            m("evaluate.self_s", self.evaluate_self_s, "s"),
            m("evaluate.samples", self.evaluate_samples, "count"),
            m("rig.characterize_s", self.rig_characterize_s, "s"),
            m("fit.count", self.fit_count, "count"),
            m("planner.frontier_s", self.planner_frontier_s, "s"),
            m("kernels.lower_ns", self.kernels_lower_ns, "ns"),
            m("roofline.phase_ns", self.roofline_phase_ns, "ns"),
            m("plan_cache.misses", self.plan_cache_misses, "count"),
            m("plan_cache.lookups", self.plan_cache_lookups, "count"),
            m("plan_cache.hit_rate", self.plan_cache_hit_rate, "ratio"),
            m("plan_cache.get_ns", self.plan_cache_get_ns, "ns"),
            m("stepper.decode_steps", self.stepper_decode_steps, "count"),
            m("stepper.avg_batch", self.stepper_avg_batch, "count"),
            m("stepper.step_ns", self.stepper_step_ns, "ns"),
            m("stepper.preemptions", self.stepper_preemptions, "count"),
            m(
                "stepper.recomputed_tokens",
                self.stepper_recomputed_tokens,
                "count",
            ),
            m(
                "prefix_cache.token_hit_rate",
                self.prefix_cache_token_hit_rate,
                "ratio",
            ),
            m("prefix_cache.lookups", self.prefix_cache_lookups, "count"),
            m(
                "prefix_cache.inserted_blocks",
                self.prefix_cache_inserted_blocks,
                "count",
            ),
            m(
                "prefix_cache.evicted_blocks",
                self.prefix_cache_evicted_blocks,
                "count",
            ),
            m(
                "prefix_cache.acquire_ns",
                self.prefix_cache_acquire_ns,
                "ns",
            ),
            m("sketch.records", self.sketch_records, "count"),
            m("sketch.record_ns", self.sketch_record_ns, "ns"),
            m("arrivals.next_ns", self.arrivals_next_ns, "ns"),
            m("cluster.residual_s", self.cluster_residual_s, "s"),
            m("cluster.hedges_fired", self.cluster_hedges_fired, "count"),
            m(
                "cluster.hedge_win_ratio",
                self.cluster_hedge_win_ratio,
                "ratio",
            ),
            m("cluster.voided", self.cluster_voided, "count"),
            m(
                "cluster.recovered_ratio",
                self.cluster_recovered_ratio,
                "ratio",
            ),
            m("cluster.retries", self.cluster_retries, "count"),
            m("cluster.breaker_trips", self.cluster_breaker_trips, "count"),
            m("cluster.shed", self.cluster_shed, "count"),
            m("audit.s", self.audit_s, "s"),
            m("audit.violations", self.audit_violations, "count"),
            m("session.residual_s", self.session_residual_s, "s"),
            m("characterize.residual_s", self.characterize_residual_s, "s"),
            m("ledger.attributed_s", self.ledger_attributed_s, "s"),
            m("trace.overhead_s", self.trace_overhead_s, "s"),
            m("ledger.double_counted", self.ledger_double_counted, "count"),
        ]
    }
}

/// `num / den`, 0 when nothing happened.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
