//! Streaming serving telemetry: O(1)-memory, mergeable accumulators.
//!
//! Pre-PR6 the serving loops buffered every latency/wait/batch sample in
//! `Vec<f64>`s and sorted them per percentile call — O(n) resident memory
//! and O(n log n) per report, untenable at the 10^6-request traces the
//! `traffic_study` bin sweeps. [`ServingAccumulator`] replaces that with
//! one streaming `Distribution` per metric (latency and queue wait; time to
//! first token of own-shape admissions uses the same type), each holding:
//!
//! * **running sums** for every mean, accumulated in completion order —
//!   the identical left-to-right f64 additions `stats::mean` performed on
//!   the stored vectors, so means are bit-identical to the legacy path;
//! * **a small exact-sample window** ([`EXACT_SAMPLE_CAP`] samples):
//!   while the run fits, percentiles come from one sort of the stored
//!   samples (read at p50/p95/p99 via `stats::percentile_sorted`), which
//!   reproduces the legacy per-call `stats::percentile` results
//!   bit-for-bit — the small-scale oracle;
//! * **DDSketches** ([`edgereasoning_soc::stats::sketch::DdSketch`],
//!   `alpha =` [`SKETCH_ALPHA`]) fed with every sample: past the cap,
//!   percentiles come from the sketch, within 1% relative error of the
//!   exact value and in O(1) memory regardless of request count.
//!
//! Accumulators [`merge`](ServingAccumulator::merge) deterministically:
//! counters and sums add, exact windows concatenate while they fit, and
//! sketch merges are order-invariant (integer bucket counts only), so
//! sharded sweeps over `par_map_deterministic` lanes reduce to the same
//! bits regardless of lane interleaving. (Merged *means* still depend on
//! merge order like any float sum — merge in lane order, which the
//! deterministic runner guarantees.)

use edgereasoning_soc::stats::{self, sketch::DdSketch};

use crate::serving::{ServingConfig, ServingReport};

/// Exact-sample window: runs completing at most this many queries report
/// percentiles from stored samples, bit-identical to the pre-sketch path.
pub const EXACT_SAMPLE_CAP: usize = 4096;

/// Relative-error bound of the sketch percentiles past the exact window.
pub const SKETCH_ALPHA: f64 = 0.01;

/// An exponentially-weighted moving average that seeds from its *first
/// observation* instead of an arbitrary zero.
///
/// A zero-seeded EWMA is biased cold: until enough samples wash the zero
/// out, the estimate reads far below reality, which made latency-armed
/// mechanisms (hedging thresholds, circuit-breaker blowout detection)
/// treat an untouched replica as infinitely fast. Seeding from the first
/// sample removes the bias entirely; [`Ewma::get`] returns `None` until
/// then, so callers can keep estimate-driven triggers disarmed during
/// cold start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// A cold estimator with smoothing factor `alpha` in `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        Self { alpha, value: None }
    }

    /// Folds one observation in: the first sample seeds the estimate
    /// verbatim, later samples smooth as `alpha·x + (1-alpha)·est`.
    pub fn observe(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
        });
    }

    /// The current estimate, or `None` before any observation.
    #[must_use]
    pub fn get(&self) -> Option<f64> {
        self.value
    }
}

/// A streaming distribution of one metric: a running sum for the mean, an
/// exact window of the first [`EXACT_SAMPLE_CAP`] samples, and a sketch of
/// every sample. Latency, queue wait and time to first token all use it.
#[derive(Debug, Clone)]
pub(crate) struct Distribution {
    count: usize,
    sum: f64,
    exact: Vec<f64>,
    sketch: DdSketch,
}

impl Default for Distribution {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            exact: Vec::new(),
            sketch: DdSketch::new(SKETCH_ALPHA),
        }
    }
}

impl Distribution {
    /// Records one sample.
    pub(crate) fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        if self.exact.len() < EXACT_SAMPLE_CAP {
            self.exact.push(x);
        }
        self.sketch.record(x);
    }

    /// Samples recorded.
    pub(crate) fn count(&self) -> usize {
        self.count
    }

    /// Mean of the samples, in record order (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Merges another shard: counts and sums add, the exact windows
    /// concatenate while they fit, and the sketches merge.
    pub(crate) fn merge(&mut self, other: &Self) {
        self.count += other.count;
        self.sum += other.sum;
        let room = EXACT_SAMPLE_CAP.saturating_sub(self.exact.len());
        self.exact.extend(other.exact.iter().take(room));
        self.sketch.merge(&other.sketch);
    }

    /// The percentiles `ps` (each in `[0, 100]`; NaN when empty): read from
    /// one sort of the exact window while every sample fits in it, from
    /// the sketch past it.
    pub(crate) fn percentiles<const N: usize>(&mut self, ps: [f64; N]) -> [f64; N] {
        if self.count <= EXACT_SAMPLE_CAP {
            self.exact.sort_by(f64::total_cmp);
            ps.map(|p| stats::percentile_sorted(&self.exact, p).unwrap_or(f64::NAN))
        } else {
            ps.map(|p| self.sketch.quantile(p / 100.0).unwrap_or(f64::NAN))
        }
    }
}

/// Metric accumulator shared by the scheduler loops. The fleet loop in
/// `engine::cluster` keeps one fleet-wide and, with more than one replica,
/// one per replica; a lone replica's bookings are the fleet's, so it books
/// once.
#[derive(Debug, Clone, Default)]
pub struct ServingAccumulator {
    /// Total GPU+host energy booked, joules. Includes cancelled and voided
    /// work: hedge losers, and slots voided by crashes, brown-outs,
    /// partitions and stuck steps.
    pub(crate) energy: f64,
    /// Total generated tokens.
    pub(crate) tokens: f64,
    /// Queries shed by admission control.
    pub(crate) shed: usize,
    /// Queries dropped after exhausting retries.
    pub(crate) failed: usize,
    /// Retry attempts issued.
    pub(crate) retries: usize,
    /// Engine-reported sequence preemptions.
    pub(crate) preemptions: usize,
    /// Completed queries that finished past their deadline.
    pub(crate) deadline_misses: usize,
    /// Wall seconds served at a non-zero degradation level.
    pub(crate) degraded_s: f64,
    /// End-to-end latency of each completed query.
    lat: Distribution,
    /// Queue wait of each completed query.
    wait: Distribution,
    batch_sum: f64,
    batch_count: usize,
}

impl ServingAccumulator {
    /// Records one completed query's end-to-end latency and queue wait.
    pub fn record_query(&mut self, latency_s: f64, wait_s: f64) {
        self.lat.record(latency_s);
        self.wait.record(wait_s);
    }

    /// Records one admitted batch's size.
    pub fn record_batch(&mut self, size: usize) {
        self.batch_sum += size as f64;
        self.batch_count += 1;
    }

    /// Completed-query count (the legacy `latencies.len()`).
    #[must_use]
    pub fn completed(&self) -> usize {
        self.lat.count()
    }

    /// Merges another shard's accumulator into this one. Counter and sketch
    /// merges are order-invariant; float sums (means, energy) follow the
    /// caller's merge order, so reduce shards in lane order.
    pub fn merge(&mut self, other: &Self) {
        self.energy += other.energy;
        self.tokens += other.tokens;
        self.shed += other.shed;
        self.failed += other.failed;
        self.retries += other.retries;
        self.preemptions += other.preemptions;
        self.deadline_misses += other.deadline_misses;
        self.degraded_s += other.degraded_s;
        self.lat.merge(&other.lat);
        self.wait.merge(&other.wait);
        self.batch_sum += other.batch_sum;
        self.batch_count += other.batch_count;
    }

    /// Finalizes the report. Within the exact window this is bit-identical
    /// to the pre-sketch stored-sample path (one sort, all percentiles
    /// read from the same sorted slice); past it, percentiles come from
    /// the DDSketch within [`SKETCH_ALPHA`] relative error.
    #[must_use]
    pub fn into_report(mut self, cfg: &ServingConfig, now: f64) -> ServingReport {
        let completed = self.completed();
        let [p50, p95, p99] = self.lat.percentiles([50.0, 95.0, 99.0]);
        let [p99_wait] = self.wait.percentiles([99.0]);
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
            avg_latency_s: self.lat.mean(),
            p50_latency_s: p50,
            p95_latency_s: p95,
            avg_batch: if self.batch_count == 0 {
                0.0
            } else {
                self.batch_sum / self.batch_count as f64
            },
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
            p99_latency_s: p99,
            degraded_s: self.degraded_s,
            slo_attainment,
            avg_queue_wait_s: self.wait.mean(),
            p99_queue_wait_s: p99_wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ServingConfig {
        ServingConfig::new(1.0, 8, 64, 128, 128)
    }

    #[test]
    fn ewma_seeds_from_first_observation_not_zero() {
        // Regression for the cold-start bias: the first sample must become
        // the estimate verbatim, never be averaged against a phantom 0.0.
        let mut e = Ewma::new(0.2);
        assert_eq!(e.get(), None, "cold estimator is disarmed");
        e.observe(10.0);
        assert_eq!(e.get(), Some(10.0), "first observation seeds verbatim");
        e.observe(20.0);
        let want: f64 = 0.2 * 20.0 + 0.8 * 10.0;
        assert_eq!(e.get().map(f64::to_bits), Some(want.to_bits()));
    }

    #[test]
    fn exact_window_matches_legacy_stored_sample_math() {
        // Replay the legacy computation on the same data and compare bits.
        let mut rng = edgereasoning_soc::rng::Rng::seed_from_u64(5);
        let mut acc = ServingAccumulator::default();
        let mut lats = Vec::new();
        let mut waits = Vec::new();
        for _ in 0..200 {
            let l = rng.next_f64() * 20.0;
            let w = rng.next_f64() * 5.0;
            acc.record_query(l, w);
            lats.push(l);
            waits.push(w);
        }
        acc.record_batch(4);
        acc.record_batch(7);
        let r = acc.into_report(&cfg(), 100.0);
        let mean = stats::mean(&lats).unwrap();
        assert_eq!(r.avg_latency_s.to_bits(), mean.to_bits());
        assert_eq!(
            r.p95_latency_s.to_bits(),
            stats::percentile(&lats, 95.0).unwrap().to_bits()
        );
        assert_eq!(
            r.p99_latency_s.to_bits(),
            stats::percentile(&lats, 99.0).unwrap().to_bits()
        );
        assert_eq!(
            r.p50_latency_s.to_bits(),
            stats::percentile(&lats, 50.0).unwrap().to_bits()
        );
        assert_eq!(
            r.p99_queue_wait_s.to_bits(),
            stats::percentile(&waits, 99.0).unwrap().to_bits()
        );
        assert_eq!(
            r.avg_queue_wait_s.to_bits(),
            stats::mean(&waits).unwrap().to_bits()
        );
        assert_eq!(r.avg_batch, 5.5);
    }

    #[test]
    fn past_the_cap_memory_stays_bounded_and_percentiles_hold() {
        let mut acc = ServingAccumulator::default();
        let n = 3 * EXACT_SAMPLE_CAP;
        for i in 0..n {
            acc.record_query(1.0 + i as f64 / 100.0, 0.5);
        }
        assert!(acc.lat.exact.len() <= EXACT_SAMPLE_CAP);
        let r = acc.into_report(&cfg(), 1000.0);
        // Samples are 1.0 .. 1.0 + (n-1)/100; p95 within alpha.
        let exact = 1.0 + (0.95 * (n - 1) as f64).floor() / 100.0;
        assert!(
            (r.p95_latency_s - exact).abs() <= SKETCH_ALPHA * exact,
            "p95 {} vs exact {exact}",
            r.p95_latency_s
        );
        assert_eq!(r.completed, n);
    }

    #[test]
    fn empty_accumulator_reports_nan_percentiles() {
        let r = ServingAccumulator::default().into_report(&cfg(), 0.0);
        assert_eq!(r.completed, 0);
        assert!(r.p95_latency_s.is_nan());
        assert!(r.p99_latency_s.is_nan());
        assert!(r.p50_latency_s.is_nan());
        assert_eq!(r.avg_latency_s, 0.0);
    }

    #[test]
    fn merge_is_consistent_with_single_shard_ingestion() {
        let n = 10 * EXACT_SAMPLE_CAP / 4;
        let sample = |i: usize| 0.01 * (i % 997) as f64 + 0.1;
        let mut whole = ServingAccumulator::default();
        for i in 0..n {
            whole.record_query(sample(i), 0.0);
        }
        let mut a = ServingAccumulator::default();
        let mut b = ServingAccumulator::default();
        for i in 0..n {
            if i < n / 3 {
                a.record_query(sample(i), 0.0);
            } else {
                b.record_query(sample(i), 0.0);
            }
        }
        a.merge(&b);
        let ra = a.into_report(&cfg(), 10.0);
        let rw = whole.into_report(&cfg(), 10.0);
        assert_eq!(ra.completed, rw.completed);
        // Sketch percentiles are bit-identical across shardings.
        assert_eq!(ra.p95_latency_s.to_bits(), rw.p95_latency_s.to_bits());
        assert_eq!(ra.p99_latency_s.to_bits(), rw.p99_latency_s.to_bits());
    }
}
