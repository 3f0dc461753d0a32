//! Conservation auditor for the serving simulators.
//!
//! Every simulated run must balance its books: each offered request
//! retires, fails, or is shed *exactly once*; energy ledgers close across
//! hedges, cancels, partitions, and brown-outs; per-class breakdowns sum
//! back to the flat totals. The functions here check those invariants and
//! return the violations as human-readable strings (empty = clean), so
//! study binaries can run them after every smoke and CI can fail loudly
//! on a broken ledger instead of silently publishing wrong numbers.
//!
//! The fleet loop, which every serving simulator runs, also audits itself
//! at the end of every run that drained, in release builds as well as
//! debug (`assert!` on the violation list, plus each replica's KV-block
//! and prefix-pin ledgers), so every test, study and benchmark run is an
//! auditor pass. A fleet stranded for good, which legitimately abandons
//! its queue, is exempt.

use crate::cluster::{ClusterConfig, ClusterReport};
use crate::serving::{ClassBreakdown, Priority, ServingConfig, ServingReport};

/// Relative tolerance for float ledger checks. The ledgers are sums of
/// the same f64 values booked in different orders, so they agree to
/// rounding error, not bit-exactly.
const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= REL_TOL * scale
}

/// Audits one flat [`ServingReport`] against the offered workload in
/// `cfg`. Returns every violated invariant (empty = clean).
#[must_use]
pub fn audit_serving(cfg: &ServingConfig, report: &ServingReport) -> Vec<String> {
    let mut v = Vec::new();
    let accounted = report.completed + report.shed_queries + report.failed_queries;
    if accounted != cfg.queries {
        v.push(format!(
            "request conservation: completed {} + shed {} + failed {} = {} != offered {}",
            report.completed, report.shed_queries, report.failed_queries, accounted, cfg.queries
        ));
    }
    if report.deadline_misses > report.completed {
        v.push(format!(
            "deadline misses {} exceed completions {}",
            report.deadline_misses, report.completed
        ));
    }
    for (name, x) in [
        ("wall_s", report.wall_s),
        ("total_tokens", report.total_tokens),
        ("achieved_qps", report.achieved_qps),
        ("avg_latency_s", report.avg_latency_s),
        ("avg_queue_wait_s", report.avg_queue_wait_s),
        ("degraded_s", report.degraded_s),
    ] {
        if !x.is_finite() || x < 0.0 {
            v.push(format!("{name} must be finite and non-negative, got {x}"));
        }
    }
    if !(0.0..=1.0).contains(&report.slo_attainment) {
        v.push(format!(
            "slo_attainment {} outside [0, 1]",
            report.slo_attainment
        ));
    }
    // Percentiles and the per-query energy are NaN exactly when nothing
    // completed.
    for (name, x) in [
        ("energy_per_query_j", report.energy_per_query_j),
        ("p50_latency_s", report.p50_latency_s),
        ("p95_latency_s", report.p95_latency_s),
        ("p99_latency_s", report.p99_latency_s),
        ("p99_queue_wait_s", report.p99_queue_wait_s),
    ] {
        if (report.completed == 0) != x.is_nan() {
            v.push(format!(
                "{name} = {x} inconsistent with {} completions (NaN iff zero)",
                report.completed
            ));
        }
    }
    let energy = report.energy_per_query_j;
    if report.completed > 0 && (!energy.is_finite() || energy < 0.0) {
        v.push(format!(
            "energy_per_query_j must be finite and non-negative, got {energy}"
        ));
    }
    v
}

/// Audits a per-class [`ClassBreakdown`] against its flat report: class
/// ledgers must conserve individually and sum back to the flat totals.
#[must_use]
pub fn audit_classes(
    cfg: &ServingConfig,
    report: &ServingReport,
    breakdown: &ClassBreakdown,
) -> Vec<String> {
    let mut v = Vec::new();
    let mut offered = 0usize;
    let mut completed = 0usize;
    let mut shed = 0usize;
    let mut failed = 0usize;
    let mut misses = 0usize;
    for &p in &Priority::ALL {
        let c = breakdown.class(p);
        let accounted = c.completed + c.shed + c.failed;
        if accounted != c.offered {
            v.push(format!(
                "class {p}: completed {} + shed {} + failed {} = {accounted} != offered {}",
                c.completed, c.shed, c.failed, c.offered
            ));
        }
        if c.deadline_misses > c.completed {
            v.push(format!(
                "class {p}: deadline misses {} exceed completions {}",
                c.deadline_misses, c.completed
            ));
        }
        if c.energy_j < 0.0 || !c.energy_j.is_finite() {
            v.push(format!(
                "class {p}: energy {} J must be finite >= 0",
                c.energy_j
            ));
        }
        offered += c.offered;
        completed += c.completed;
        shed += c.shed;
        failed += c.failed;
        misses += c.deadline_misses;
    }
    if offered != cfg.queries {
        v.push(format!(
            "class offered totals {offered} != workload {}",
            cfg.queries
        ));
    }
    if completed != report.completed {
        v.push(format!(
            "class completed totals {completed} != flat {}",
            report.completed
        ));
    }
    if shed != report.shed_queries {
        v.push(format!(
            "class shed totals {shed} != flat {}",
            report.shed_queries
        ));
    }
    if failed != report.failed_queries {
        v.push(format!(
            "class failed totals {failed} != flat {}",
            report.failed_queries
        ));
    }
    if misses != report.deadline_misses {
        v.push(format!(
            "class deadline-miss totals {misses} != flat {}",
            report.deadline_misses
        ));
    }
    v
}

/// Audits a full [`ClusterReport`]: the fleet serving ledger, the energy
/// split across replicas (hedge losers and the work that partitions,
/// crashes, brown-outs and stuck steps void must book their joules exactly
/// once), the robustness counters, and the per-class breakdown when
/// admission control ran.
#[must_use]
pub fn audit_cluster(
    cfg: &ServingConfig,
    cluster: &ClusterConfig,
    report: &ClusterReport,
) -> Vec<String> {
    let mut v = audit_serving(cfg, &report.fleet);
    if report.hedge_wins > report.hedges_fired {
        v.push(format!(
            "hedge wins {} exceed hedges fired {}",
            report.hedge_wins, report.hedges_fired
        ));
    }
    if report.crash_recovered > report.crash_lost {
        v.push(format!(
            "crash recoveries {} exceed crash-voided sequences {}",
            report.crash_recovered, report.crash_lost
        ));
    }
    if report.breaker_rejoins > report.breaker_trips {
        v.push(format!(
            "breaker rejoins {} exceed trips {}",
            report.breaker_rejoins, report.breaker_trips
        ));
    }
    if cluster.breaker.is_none() && (report.breaker_trips > 0 || report.breaker_rejoins > 0) {
        v.push("breaker counters non-zero with no breaker configured".into());
    }
    if cluster.domains.is_empty() && (report.partition_events > 0 || report.partition_voided > 0) {
        v.push("partition counters non-zero with no failure domains".into());
    }
    if !(0.0..=1.0).contains(&report.availability) {
        v.push(format!(
            "availability {} outside [0, 1]",
            report.availability
        ));
    }
    if report.replica_energy_j.len() != cluster.replicas {
        v.push(format!(
            "replica energy ledger has {} entries for {} replicas",
            report.replica_energy_j.len(),
            cluster.replicas
        ));
    }
    let split: f64 = report.replica_energy_j.iter().sum();
    if !close(split, report.fleet_energy_j) {
        v.push(format!(
            "energy ledger open: replica split {split} J != fleet {} J",
            report.fleet_energy_j
        ));
    }
    if report.hedge_energy_j < 0.0 || report.hedge_energy_j > report.fleet_energy_j + REL_TOL {
        v.push(format!(
            "hedge energy {} J outside [0, fleet {} J]",
            report.hedge_energy_j, report.fleet_energy_j
        ));
    }
    if let Some(classes) = &report.classes {
        v.extend(audit_classes(cfg, &report.fleet, classes));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::simulate_cluster;
    use crate::engine::EngineConfig;
    use crate::serving::{simulate_serving_continuous, AdmissionConfig, PriorityMix};
    use edgereasoning_kernels::arch::ModelId;
    use edgereasoning_kernels::dtype::Precision;

    #[test]
    fn clean_serving_run_audits_clean() {
        let cfg = ServingConfig::new(4.0, 8, 60, 128, 96)
            .with_deadline(45.0)
            .with_retries(2, 1.0);
        let report = simulate_serving_continuous(
            &mut crate::engine::InferenceEngine::new(EngineConfig::vllm(), 7),
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg,
            7,
        )
        .expect("runs");
        assert_eq!(audit_serving(&cfg, &report), Vec::<String>::new());
    }

    #[test]
    fn admission_run_audits_clean_including_classes() {
        let cfg = ServingConfig::new(8.0, 8, 80, 128, 96)
            .with_deadline(30.0)
            .with_queue_capacity(64)
            .with_admission(AdmissionConfig::priority(PriorityMix::EDGE_MIX, 3));
        let r = simulate_cluster(
            &ClusterConfig::new(1, EngineConfig::vllm()),
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg,
            11,
        )
        .expect("runs");
        let (report, classes) = (r.fleet, r.classes.expect("admission reports classes"));
        assert_eq!(audit_serving(&cfg, &report), Vec::<String>::new());
        assert_eq!(audit_classes(&cfg, &report, &classes), Vec::<String>::new());
    }

    #[test]
    fn cluster_run_audits_clean() {
        let cfg = ServingConfig::new(3.0, 8, 60, 128, 96)
            .with_deadline(60.0)
            .with_retries(2, 1.0);
        let cluster = ClusterConfig::new(2, EngineConfig::vllm());
        let report = simulate_cluster(&cluster, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 13)
            .expect("runs");
        assert_eq!(audit_cluster(&cfg, &cluster, &report), Vec::<String>::new());
    }

    #[test]
    fn broken_ledger_is_reported() {
        let cfg = ServingConfig::new(4.0, 8, 60, 128, 96);
        let mut report = simulate_serving_continuous(
            &mut crate::engine::InferenceEngine::new(EngineConfig::vllm(), 7),
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg,
            7,
        )
        .expect("runs");
        report.completed += 1; // cook the books
        let violations = audit_serving(&cfg, &report);
        assert!(
            violations
                .iter()
                .any(|m| m.contains("request conservation")),
            "{violations:?}"
        );
    }
}
