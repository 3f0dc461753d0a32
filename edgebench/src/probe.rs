//! ns-per-call timings of single layers' public entry points at a
//! workload's operating point.
//!
//! They price the layers that run only inside one `simulate_*` call, where
//! the benchmark cannot open a span: the ledger multiplies each price by
//! the run's public count of calls to that layer.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use edgereasoning_engine::arrivals::{ArrivalGen, ArrivalProcess};
use edgereasoning_engine::engine::{EngineConfig, InferenceEngine};
use edgereasoning_engine::kv_cache::KvCacheManager;
use edgereasoning_engine::plan_cache::{PhaseKey, PhaseKind, PhasePlanCache};
use edgereasoning_engine::prefix_cache::PrefixCache;
use edgereasoning_engine::request::GenerationRequest;
use edgereasoning_engine::stepper::BatchStepper;
use edgereasoning_engine::telemetry::SKETCH_ALPHA;
use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_kernels::phases::{
    build_decode_attn_into, build_decode_base_into, build_prefill_into, KernelPlan,
};
use edgereasoning_soc::gpu::{Gpu, PhaseStats};
use edgereasoning_soc::rng::Rng;
use edgereasoning_soc::stats::sketch::DdSketch;

use crate::harness::quiet_median;

/// Minimum timed seconds per price: long enough that timer resolution
/// and one-off cache misses do not dominate.
const MIN_TIMED_S: f64 = 0.03;
/// Minimum timed rounds per price, so the quiet estimate has a choice.
const MIN_ROUNDS: usize = 20;

/// Repeats `round` (which makes `calls` calls) for at least `MIN_TIMED_S`
/// and `MIN_ROUNDS` rounds; returns ns per call in the quiet rounds (see
/// [`quiet_median`]), as the batches are timed.
fn ns_per_call(calls: u64, mut round: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < MIN_ROUNDS || t0.elapsed().as_secs_f64() < MIN_TIMED_S {
        let t = Instant::now();
        round();
        per_call.push(t.elapsed().as_secs_f64() * 1e9 / calls as f64);
    }
    quiet_median(&per_call)
}

/// Mean ns per call in the quiet chunks of `chunk` consecutive calls, for
/// prices whose calls differ from one another (a step that retires
/// requests costs more than one that does not).
fn quiet_chunks(per_call_ns: &[f64], chunk: usize) -> f64 {
    let means: Vec<f64> = per_call_ns
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    quiet_median(&means)
}

/// One phase lowering a workload performs on a plan-cache miss.
#[derive(Debug, Clone, Copy)]
pub struct PhaseShape {
    pub model: ModelId,
    pub prec: Precision,
    pub kind: PhaseKind,
    pub batch: usize,
    /// Prompt length (prefill) or context length (decode attention).
    pub shape: usize,
}

impl PhaseShape {
    fn lower(&self, plan: &mut KernelPlan) {
        let arch = self.model.arch();
        match self.kind {
            PhaseKind::Prefill => {
                build_prefill_into(plan, &arch, self.prec, self.batch, self.shape)
            }
            PhaseKind::DecodeBase => build_decode_base_into(plan, &arch, self.prec, self.batch),
            PhaseKind::DecodeCtx => {
                build_decode_attn_into(plan, &arch, self.prec, self.batch, self.shape);
            }
        }
    }
}

/// The phases one rig of a characterization sweep misses on: prefill
/// over the fit grid and decode attention over growing contexts, plus the
/// decode base, for one model at one precision.
pub fn sweep_shapes(model: ModelId, prec: Precision) -> Vec<PhaseShape> {
    let shape = |kind, shape| PhaseShape {
        model,
        prec,
        kind,
        batch: 1,
        shape,
    };
    let mut out = vec![shape(PhaseKind::DecodeBase, 0)];
    for k in 0..4 {
        out.push(shape(PhaseKind::Prefill, 512 + k * 1024));
        out.push(shape(PhaseKind::DecodeCtx, 256 + k * 768));
    }
    out
}

/// The phases a serving run misses on: prefill of its prompt and decode
/// attention over its context range, at batch sizes up to `max_batch`.
pub fn serving_shapes(
    model: ModelId,
    prompt: usize,
    max_ctx: usize,
    max_batch: usize,
) -> Vec<PhaseShape> {
    let prec = Precision::Fp16;
    let mut out = vec![PhaseShape {
        model,
        prec,
        kind: PhaseKind::Prefill,
        batch: 1,
        shape: prompt,
    }];
    for batch in 1..=max_batch.max(1) {
        out.push(PhaseShape {
            model,
            prec,
            kind: PhaseKind::DecodeBase,
            batch,
            shape: 0,
        });
        out.push(PhaseShape {
            model,
            prec,
            kind: PhaseKind::DecodeCtx,
            batch,
            shape: prompt + (max_ctx.saturating_sub(prompt)) * batch / max_batch.max(1),
        });
    }
    out
}

/// Phase kinds in `EngineCounters` order: prefill, decode base, decode
/// attention.
const KINDS: [PhaseKind; 3] = [
    PhaseKind::Prefill,
    PhaseKind::DecodeBase,
    PhaseKind::DecodeCtx,
];

/// Mean of per-kind prices weighted by how often the workload costs each
/// kind (`EngineCounters::{prefill,decode_base,decode_ctx}_phases`).
fn weighted(per_kind: [Option<f64>; 3], phases: [u64; 3]) -> f64 {
    let (mut sum, mut weight) = (0.0, 0.0);
    for (ns, n) in per_kind.iter().zip(phases) {
        if let Some(ns) = ns {
            sum += ns * n as f64;
            weight += n as f64;
        }
    }
    if weight > 0.0 {
        sum / weight
    } else {
        0.0
    }
}

/// The plan-cache miss path, ns per phase, as `(lowering, roofline)`:
/// clear the scratch plan, lower the phase into it
/// (`kernels::phases::build_*_into`), then run the noise-free roofline
/// over it (`soc::gpu::Gpu::run_phase_deterministic`) while it is still
/// hot, as the engine does. The roofline price is the difference between
/// timing both steps and timing the lowering alone. Each is weighted over
/// phase kinds by `phases`.
pub fn miss_ns(shapes: &[PhaseShape], phases: [u64; 3], cfg: &EngineConfig) -> (f64, f64) {
    let gpu = Gpu::new(cfg.soc.gpu.clone(), cfg.mode, 1);
    let mut plan = KernelPlan::new();
    let per_kind = KINDS.map(|kind| {
        let of_kind: Vec<_> = shapes
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| {
                let arch = s.model.arch();
                let calib = match s.kind {
                    PhaseKind::Prefill => arch.calib.prefill,
                    PhaseKind::DecodeBase | PhaseKind::DecodeCtx => arch.calib.decode,
                };
                (s, calib)
            })
            .collect();
        if of_kind.is_empty() {
            return None;
        }
        let calls = of_kind.len() as u64;
        let lower = ns_per_call(calls, || {
            for (s, _) in &of_kind {
                plan.clear();
                s.lower(&mut plan);
                black_box(plan.len());
            }
        });
        let both = ns_per_call(calls, || {
            for (s, calib) in &of_kind {
                plan.clear();
                s.lower(&mut plan);
                black_box(gpu.run_phase_deterministic(plan.kernels().iter(), calib));
            }
        });
        Some((lower, (both - lower).max(0.0)))
    });
    (
        weighted(per_kind.map(|p| p.map(|(lower, _)| lower)), phases),
        weighted(per_kind.map(|p| p.map(|(_, roofline)| roofline)), phases),
    )
}

/// `EngineCounters` phase counts in [`KINDS`] order.
pub fn phase_counts(c: &edgereasoning_engine::plan_cache::EngineCounters) -> [u64; 3] {
    [c.prefill_phases, c.decode_base_phases, c.decode_ctx_phases]
}

/// Plan-cache hit lookup, ns per `PhasePlanCache::get`, over the keys of
/// `shapes` visited in order (the decode-step access pattern: one key
/// per cohort per step).
pub fn plan_cache_get_ns(shapes: &[PhaseShape], cfg: &EngineConfig) -> f64 {
    let gpu_fp = Gpu::new(cfg.soc.gpu.clone(), cfg.mode, 1).config_fingerprint();
    let keys: Vec<PhaseKey> = shapes
        .iter()
        .map(|s| PhaseKey {
            arch_fp: s.model.arch().fingerprint(),
            gpu_fp,
            precision: s.prec,
            kind: s.kind,
            batch: s.batch,
            shape: s.shape,
        })
        .collect();
    let mut cache = PhasePlanCache::new();
    for k in &keys {
        cache.insert(*k, PhaseStats::default());
    }
    ns_per_call(keys.len() as u64, || {
        for k in &keys {
            black_box(cache.get(black_box(k)));
        }
    })
}

/// One `BatchStepper::step` decode iteration with `batch` live requests
/// of the given shape, ns per step. Retired requests are replaced at once
/// so the batch stays full; admissions are not timed.
///
/// # Panics
///
/// Panics when the model does not fit the device or a step fails: the
/// operating points are well inside the device's memory.
pub fn step_ns(
    cfg: &EngineConfig,
    model: ModelId,
    batch: usize,
    prompt: usize,
    output: usize,
) -> f64 {
    let mut engine = InferenceEngine::new(cfg.clone(), 1);
    let prec = Precision::Fp16;
    let mut stepper = BatchStepper::new(&engine, model, prec).expect("model fits the device");
    let req = GenerationRequest::new(prompt.max(1), output.max(1));
    let mut now = 0.0;
    for _ in 0..batch.max(1) {
        stepper
            .admit(&mut engine, now, &req)
            .expect("operating batch fits");
    }
    let mut step_ns = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < MIN_TIMED_S || step_ns.len() < 64 * MIN_ROUNDS {
        let t = Instant::now();
        let out = stepper.step(&mut engine).expect("operating batch steps");
        step_ns.push(t.elapsed().as_secs_f64() * 1e9);
        now = out.end_s;
        for _ in &out.retired {
            stepper
                .admit(&mut engine, now, &req)
                .expect("operating batch fits");
        }
    }
    quiet_chunks(&step_ns, 64)
}

/// Prefix-tree admission, ns per `PrefixCache::acquire`, replaying the
/// workload's own block signatures with `pinned` requests in flight on a
/// pool of `kv_bytes`. Cold paths are evicted on demand, as the stepper
/// does under KV pressure.
///
/// # Panics
///
/// Panics if `kv_bytes` cannot hold a block.
pub fn acquire_ns(
    model: ModelId,
    kv_bytes: u64,
    block_tokens: usize,
    sigs: &[Vec<u64>],
    pinned: usize,
) -> f64 {
    let arch = model.arch();
    let mut kv = KvCacheManager::new(&arch, kv_bytes, block_tokens).expect("valid KV pool");
    let mut cache = PrefixCache::new();
    let mut live = VecDeque::new();
    let mut acquire_ns = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < MIN_TIMED_S || acquire_ns.len() < 256 * MIN_ROUNDS {
        for sig in sigs {
            let want = sig.len() as u64 * block_tokens as u64;
            if kv.free_tokens() < want {
                cache.evict(&mut kv, sig.len() as u64);
            }
            let t = Instant::now();
            let acq = cache.acquire(&mut kv, sig, 1);
            acquire_ns.push(t.elapsed().as_secs_f64() * 1e9);
            if let Some(h) = acq.handle {
                live.push_back(h);
            }
            if live.len() > pinned {
                if let Some(h) = live.pop_front() {
                    cache.release(h, 1);
                }
            }
        }
    }
    quiet_chunks(&acquire_ns, 256)
}

/// Latency-sketch insertion, ns per `DdSketch::record`, over values
/// spread log-uniformly around `center_s` (a serving run's latencies).
pub fn record_ns(center_s: f64) -> f64 {
    let mut rng = Rng::seed_from_u64(0x5ce7);
    let values: Vec<f64> = (0..4096)
        .map(|_| center_s.max(1e-3) * rng.range_f64(-2.0, 2.0).exp())
        .collect();
    let mut sketch = DdSketch::new(SKETCH_ALPHA);
    ns_per_call(values.len() as u64, || {
        for &v in &values {
            sketch.record(black_box(v));
        }
    })
}

/// Legacy-Poisson arrival generation, ns per `ArrivalGen::next_arrival`.
pub fn next_arrival_ns(qps: f64, seed: u64) -> f64 {
    let mut gen = ArrivalGen::new(ArrivalProcess::PoissonLegacy, qps, seed);
    ns_per_call(4096, || {
        for _ in 0..4096 {
            black_box(gen.next_arrival());
        }
    })
}
