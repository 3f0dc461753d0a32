//! Phase-plan caching: memoized noise-free phase costs.
//!
//! The simulator's cost model is deterministic given the hardware
//! configuration and the lowered kernel shapes — only the measurement-noise
//! perturbation differs between repeated executions of the same phase. A
//! dataset-scale study therefore re-derives the same aggregate
//! [`PhaseStats`] millions of times: every decode step of every question of
//! every cell lowers and rooflines an essentially identical kernel
//! sequence.
//!
//! [`PhasePlanCache`] memoizes the *deterministic* aggregate under a
//! [`PhaseKey`] — (architecture fingerprint, GPU configuration fingerprint,
//! precision, phase kind, batch, shape) — while the engine applies the
//! seeded stochastic perturbation *after* lookup. Because the perturbation
//! consumes exactly one RNG draw per phase whether the deterministic part
//! came from the cache or from a fresh roofline evaluation, cached and
//! uncached runs produce bit-identical [`InferenceOutcome`]s.
//!
//! Keys use the **exact** sequence/context shape rather than a padded
//! bucket: kernel byte counts (KV traffic, activations) vary with the
//! unpadded shape, so bucketing would change results. Exact keys still hit
//! constantly in practice — decode contexts are derived from chunk indices
//! and repeat across questions, models sharing a backbone share an
//! architecture fingerprint, and sweeps revisit the same grid points.
//!
//! Many short-lived engines that cost the same phases — one per cell of a
//! study — can also share one [`PhasePlanStore`]: an engine consults it
//! only when its own cache misses, so only a store miss lowers kernels and
//! runs the roofline.
//!
//! [`InferenceOutcome`]: crate::outcome::InferenceOutcome

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use edgereasoning_kernels::dtype::Precision;
use edgereasoning_soc::gpu::PhaseStats;
use edgereasoning_soc::rng::FxBuildHasher;

/// Which lowering a cached phase cost describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Full prefill pass; `shape` is the prompt length.
    Prefill,
    /// Context-independent part of a decode step; `shape` is 0.
    DecodeBase,
    /// Per-layer decode attention; `shape` is the context length.
    DecodeCtx,
}

/// Cache key identifying one deterministic phase cost.
///
/// Two phases with equal keys are guaranteed to lower to identical kernel
/// sequences and roofline to identical aggregates: the architecture
/// fingerprint covers every model dimension and calibration multiplier
/// (but not the model's name — shared backbones share entries), and the GPU
/// fingerprint covers the device spec, power mode, efficiency profile and
/// power model (but not the measurement-noise level or RNG state, which
/// belong to the stochastic layer applied after lookup).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PhaseKey {
    /// [`ModelArch::fingerprint`](edgereasoning_kernels::arch::ModelArch::fingerprint).
    pub arch_fp: u64,
    /// [`Gpu::config_fingerprint`](edgereasoning_soc::gpu::Gpu::config_fingerprint).
    pub gpu_fp: u64,
    /// Weight precision of the lowering.
    pub precision: Precision,
    /// Which phase lowering this cost describes.
    pub kind: PhaseKind,
    /// Batch size of the phase.
    pub batch: usize,
    /// Exact shape parameter: prompt length ([`PhaseKind::Prefill`]),
    /// context length ([`PhaseKind::DecodeCtx`]), or 0
    /// ([`PhaseKind::DecodeBase`]).
    pub shape: usize,
}

/// Memoizes noise-free aggregate phase costs keyed by [`PhaseKey`].
#[derive(Debug, Clone, Default)]
pub struct PhasePlanCache {
    // FxHash: the lookup sits on the per-decode-step hot path, and the keys
    // are internal plain data (never adversarial, order never observed).
    entries: HashMap<PhaseKey, PhaseStats, FxBuildHasher>,
    // One last-hit memo per phase kind: consecutive decode steps of a
    // cohort reuse the same DecodeBase key, and slots stepping in lockstep
    // reuse DecodeCtx keys, so a key-equality check answers most lookups
    // without hashing. Kind-indexed so the base/ctx alternation within one
    // step doesn't thrash a single slot. Memo hits count as cache hits —
    // `EngineCounters` stays bit-identical.
    last: [Option<(PhaseKey, PhaseStats)>; 3],
    hits: u64,
    misses: u64,
}

#[inline]
fn kind_ix(kind: PhaseKind) -> usize {
    match kind {
        PhaseKind::Prefill => 0,
        PhaseKind::DecodeBase => 1,
        PhaseKind::DecodeCtx => 2,
    }
}

impl PhasePlanCache {
    /// Initial bucket capacity: fault-weather runs key plans by GPU
    /// fingerprint, and every derate window mints a fresh fingerprint
    /// family, so dataset-scale runs reach tens of thousands of entries —
    /// pre-sizing skips the doubling rehashes on the way up.
    const INITIAL_CAPACITY: usize = 1 << 14;

    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self {
            entries: HashMap::with_capacity_and_hasher(
                Self::INITIAL_CAPACITY,
                FxBuildHasher::default(),
            ),
            ..Self::default()
        }
    }

    /// Looks up a deterministic phase cost, counting the hit or miss.
    pub fn get(&mut self, key: &PhaseKey) -> Option<PhaseStats> {
        let ix = kind_ix(key.kind);
        if let Some((k, v)) = &self.last[ix] {
            if k == key {
                self.hits += 1;
                return Some(*v);
            }
        }
        match self.entries.get(key) {
            Some(stats) => {
                self.hits += 1;
                self.last[ix] = Some((*key, *stats));
                Some(*stats)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a deterministic phase cost.
    pub fn insert(&mut self, key: PhaseKey, stats: PhaseStats) {
        self.last[kind_ix(key.kind)] = Some((key, stats));
        self.entries.insert(key, stats);
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups that found an entry.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops all entries and resets the hit/miss counters.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.last = [None; 3];
        self.reset_stats();
    }

    /// Resets the hit/miss counters while keeping the entries.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

/// Noise-free phase aggregates shared by many engines, keyed by
/// [`PhaseKey`].
///
/// An engine lent a store
/// ([`InferenceEngine::lend_plan_store`](crate::engine::InferenceEngine::lend_plan_store))
/// consults it only when its own [`PhasePlanCache`] misses: a store hit is
/// copied into the engine's cache, and a store miss runs the roofline and
/// fills both. The engine's cache still counts that lookup as a miss and
/// keeps the entry, so [`EngineCounters`] read the same with or without a
/// store. Equal keys give identical aggregates, so which engine filled an
/// entry, and in what order, never shows in an outcome.
///
/// Only engines fill a store, so it holds nothing the roofline did not
/// compute. It is `Sync`: the engines of a parallel study share one.
#[derive(Default)]
pub struct PhasePlanStore {
    entries: Mutex<HashMap<PhaseKey, PhaseStats, FxBuildHasher>>,
}

impl PhasePlanStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    // A poisoned lock means an engine sharing the store panicked while
    // holding it; the study fails with that engine.
    #[allow(clippy::expect_used)]
    fn lock(&self) -> MutexGuard<'_, HashMap<PhaseKey, PhaseStats, FxBuildHasher>> {
        self.entries
            .lock()
            .expect("phase plan store poisoned by a panicking engine")
    }

    /// Looks up a deterministic phase cost.
    pub(crate) fn get(&self, key: &PhaseKey) -> Option<PhaseStats> {
        self.lock().get(key).copied()
    }

    /// Stores a deterministic phase cost.
    pub(crate) fn insert(&self, key: PhaseKey, stats: PhaseStats) {
        self.lock().insert(key, stats);
    }

    /// Number of stored entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for PhasePlanStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhasePlanStore")
            .field("len", &self.len())
            .finish()
    }
}

/// Execution counters kept by the engine: cache effectiveness plus how many
/// phases of each kind were costed. Plain data — read with
/// [`InferenceEngine::counters`](crate::engine::InferenceEngine::counters),
/// printed by the bench binaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Phase-plan cache lookups that hit.
    pub cache_hits: u64,
    /// Phase-plan cache lookups that missed (and ran the roofline, unless
    /// the lent [`PhasePlanStore`] held the key).
    pub cache_misses: u64,
    /// Entries currently resident in the cache.
    pub cache_entries: usize,
    /// Prefill phases costed.
    pub prefill_phases: u64,
    /// Context-independent decode bases costed.
    pub decode_base_phases: u64,
    /// Context-dependent decode attention phases costed.
    pub decode_ctx_phases: u64,
    /// Sequences preempted and recomputed under KV pressure
    /// ([`OomPolicy::PreemptRecompute`](crate::engine::OomPolicy)).
    pub preemptions: u64,
    /// Context tokens recomputed for preempted sequences.
    pub recomputed_tokens: u64,
    /// Phases costed while a fault derate was active.
    pub throttled_phases: u64,
    /// Kernel-stall fault windows crossed during runs.
    pub stalls: u64,
}

impl EngineCounters {
    /// Accumulates another engine's counters into this one (used by the
    /// parallel study driver to total work across per-cell engines;
    /// `cache_entries` sums the per-engine cache sizes).
    pub fn absorb(&mut self, other: &EngineCounters) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_entries += other.cache_entries;
        self.prefill_phases += other.prefill_phases;
        self.decode_base_phases += other.decode_base_phases;
        self.decode_ctx_phases += other.decode_ctx_phases;
        self.preemptions += other.preemptions;
        self.recomputed_tokens += other.recomputed_tokens;
        self.throttled_phases += other.throttled_phases;
        self.stalls += other.stalls;
    }

    /// Fraction of lookups served from the cache (0 when none happened).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for EngineCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "plan cache: {} hits / {} misses ({:.1}% hit rate, {} entries); \
             phases: {} prefill, {} decode-base, {} decode-ctx",
            self.cache_hits,
            self.cache_misses,
            self.hit_rate() * 100.0,
            self.cache_entries,
            self.prefill_phases,
            self.decode_base_phases,
            self.decode_ctx_phases,
        )?;
        if self.preemptions + self.recomputed_tokens + self.throttled_phases + self.stalls > 0 {
            write!(
                f,
                "; faults: {} preemptions, {} recomputed tokens, {} throttled phases, {} stalls",
                self.preemptions, self.recomputed_tokens, self.throttled_phases, self.stalls,
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(shape: usize) -> PhaseKey {
        PhaseKey {
            arch_fp: 1,
            gpu_fp: 2,
            precision: Precision::Fp16,
            kind: PhaseKind::DecodeCtx,
            batch: 1,
            shape,
        }
    }

    #[test]
    fn miss_then_hit_with_counters() {
        let mut cache = PhasePlanCache::new();
        assert!(cache.get(&key(64)).is_none());
        cache.insert(
            key(64),
            PhaseStats {
                latency_s: 1.5,
                ..PhaseStats::default()
            },
        );
        let got = cache.get(&key(64)).expect("cached");
        assert!((got.latency_s - 1.5).abs() < 1e-12);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        assert!(cache.get(&key(65)).is_none());
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn distinct_key_fields_do_not_collide() {
        let mut cache = PhasePlanCache::new();
        let a = key(64);
        let mut b = a;
        b.kind = PhaseKind::Prefill;
        let mut c = a;
        c.precision = Precision::W4A16;
        cache.insert(
            a,
            PhaseStats {
                latency_s: 1.0,
                ..PhaseStats::default()
            },
        );
        cache.insert(
            b,
            PhaseStats {
                latency_s: 2.0,
                ..PhaseStats::default()
            },
        );
        cache.insert(
            c,
            PhaseStats {
                latency_s: 3.0,
                ..PhaseStats::default()
            },
        );
        assert_eq!(cache.len(), 3);
        assert!((cache.get(&a).expect("a").latency_s - 1.0).abs() < 1e-12);
        assert!((cache.get(&b).expect("b").latency_s - 2.0).abs() < 1e-12);
        assert!((cache.get(&c).expect("c").latency_s - 3.0).abs() < 1e-12);
    }

    #[test]
    fn clear_resets_everything() {
        let mut cache = PhasePlanCache::new();
        cache.insert(key(1), PhaseStats::default());
        let _ = cache.get(&key(1));
        let _ = cache.get(&key(2));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn absorb_sums_fields() {
        let mut a = EngineCounters {
            cache_hits: 1,
            cache_misses: 2,
            cache_entries: 3,
            prefill_phases: 4,
            decode_base_phases: 5,
            decode_ctx_phases: 6,
            preemptions: 7,
            recomputed_tokens: 8,
            throttled_phases: 9,
            stalls: 10,
        };
        let b = a;
        a.absorb(&b);
        assert_eq!(a.cache_hits, 2);
        assert_eq!(a.cache_misses, 4);
        assert_eq!(a.cache_entries, 6);
        assert_eq!(a.prefill_phases, 8);
        assert_eq!(a.decode_base_phases, 10);
        assert_eq!(a.decode_ctx_phases, 12);
        assert_eq!(a.preemptions, 14);
        assert_eq!(a.recomputed_tokens, 16);
        assert_eq!(a.throttled_phases, 18);
        assert_eq!(a.stalls, 20);
    }

    #[test]
    fn hit_rate_and_display() {
        let mut counters = EngineCounters::default();
        assert_eq!(counters.hit_rate(), 0.0);
        counters.cache_hits = 3;
        counters.cache_misses = 1;
        assert!((counters.hit_rate() - 0.75).abs() < 1e-12);
        let line = counters.to_string();
        assert!(line.contains("75.0% hit rate"), "{line}");
    }
}
