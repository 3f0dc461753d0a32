//! The simulated inference engine.

use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;

use edgereasoning_kernels::phases::{
    build_decode_attn_into, build_decode_base_into, build_prefill_into, KernelPlan,
};
use edgereasoning_soc::faults::{FaultIndex, FaultSchedule};
use edgereasoning_soc::gpu::{Derate, ExecCalib, Gpu, PhaseStats};
use edgereasoning_soc::rng::Rng;
use edgereasoning_soc::spec::{GpuSpec, OrinSpec, PowerMode};
use edgereasoning_soc::thermal::{GovernanceConfig, GovernanceStats, ThermalGovernor};
use serde::{Deserialize, Serialize};

use crate::outcome::{InferenceOutcome, TbtSample};
use crate::plan_cache::{EngineCounters, PhaseKey, PhaseKind, PhasePlanCache};
use crate::request::GenerationRequest;
use crate::stepper::BatchStepper;
use crate::EngineError;

/// The serving stacks compared in the paper's Table IX.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum EngineKind {
    /// vLLM v0.8.6 — paged attention, efficient scheduler (the default
    /// stack used for every other experiment in the paper).
    #[default]
    Vllm,
    /// Hugging Face Transformers v4.46.2 — Python generation loop, no
    /// paged attention; ≈1.12× slower end-to-end.
    Hft,
    /// TensorRT-LLM v0.12 — compiled engine, performance ≈ vLLM.
    TrtLlm,
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineKind::Vllm => write!(f, "vLLM"),
            EngineKind::Hft => write!(f, "HFT"),
            EngineKind::TrtLlm => write!(f, "TRT-LLM"),
        }
    }
}

/// What the engine does when the KV cache runs out mid-generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum OomPolicy {
    /// Abort the whole request with [`EngineError::OutOfMemory`] — the
    /// original behaviour, and still the default.
    #[default]
    FailFast,
    /// vLLM-style recompute preemption: evict the lowest-priority
    /// sequences, requeue them, and re-prefill their lost context later.
    /// Every sequence eventually completes as long as a *single* sequence
    /// fits end to end; the price is recomputation latency and energy.
    PreemptRecompute,
}

impl std::fmt::Display for OomPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OomPolicy::FailFast => write!(f, "failfast"),
            OomPolicy::PreemptRecompute => write!(f, "preempt"),
        }
    }
}

/// Engine configuration: serving stack, device, power mode and host-side
/// overhead profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Which serving stack's overhead profile to use.
    pub kind: EngineKind,
    /// The SoC to run on.
    pub soc: OrinSpec,
    /// GPU power mode.
    pub mode: PowerMode,
    /// Host (CPU) time per decode step not overlapped with GPU work, s.
    pub host_per_step_s: f64,
    /// Additional host time per sequence per decode step (sampling,
    /// detokenization), s.
    pub host_per_seq_step_s: f64,
    /// Fixed per-request overhead (tokenization, scheduling, API), s.
    pub request_overhead_s: f64,
    /// Tokens per KV-cache block.
    pub kv_block_tokens: usize,
    /// Fraction of device memory usable for weights + KV cache.
    pub memory_budget_frac: f64,
    /// Decode steps simulated per representative kernel build (context
    /// granularity of the decode simulation).
    pub decode_chunk: usize,
    /// Relative std-dev of run-to-run wall-clock variability (OS jitter,
    /// background daemons) applied per generation.
    pub run_noise: f64,
    /// DVFS power-ramp time constant, seconds (0 disables). Short runs
    /// draw near-idle power until clocks ramp; see
    /// [`edgereasoning_soc::power::ramp_avg_factor`].
    pub power_ramp_tau_s: f64,
    /// Behaviour when the KV cache runs out mid-generation.
    pub oom_policy: OomPolicy,
    /// Maximum [`TbtSample`]s retained per generation (stride-doubling
    /// downsample beyond the cap; 0 keeps every sample). Recording never
    /// feeds back into phase aggregates, so the cap cannot change
    /// TTFT/TBT statistics.
    pub tbt_trace_cap: usize,
    /// Optional closed-loop thermal/battery governance
    /// ([`edgereasoning_soc::thermal`]). `None` — the default — keeps every
    /// execution path bit-identical to the ungoverned engine.
    pub governance: Option<GovernanceConfig>,
}

impl EngineConfig {
    fn base(kind: EngineKind) -> Self {
        Self {
            kind,
            soc: OrinSpec::agx_orin_64gb(),
            mode: PowerMode::MaxN,
            host_per_step_s: 1.2e-3,
            host_per_seq_step_s: 0.28e-3,
            request_overhead_s: 0.35,
            kv_block_tokens: 16,
            memory_budget_frac: 0.92,
            decode_chunk: 48,
            run_noise: 0.005,
            power_ramp_tau_s: 10.0,
            oom_policy: OomPolicy::FailFast,
            tbt_trace_cap: 512,
            governance: None,
        }
    }

    /// vLLM profile (the paper's default engine).
    pub fn vllm() -> Self {
        Self::base(EngineKind::Vllm)
    }

    /// Hugging Face Transformers profile: a Python-loop decode adds ≈11 ms
    /// of un-overlapped host time per step (calibrated to Table IX's
    /// 1.12–1.13× vLLM speedup on DSR1-Llama-8B).
    pub fn hft() -> Self {
        Self {
            host_per_step_s: 12.2e-3,
            request_overhead_s: 0.50,
            ..Self::base(EngineKind::Hft)
        }
    }

    /// TRT-LLM profile (≈ vLLM performance).
    pub fn trt_llm() -> Self {
        Self {
            host_per_step_s: 1.05e-3,
            request_overhead_s: 0.42,
            ..Self::base(EngineKind::TrtLlm)
        }
    }

    /// Returns the profile for a given engine kind.
    pub fn for_kind(kind: EngineKind) -> Self {
        match kind {
            EngineKind::Vllm => Self::vllm(),
            EngineKind::Hft => Self::hft(),
            EngineKind::TrtLlm => Self::trt_llm(),
        }
    }

    /// Sets the power mode, builder-style.
    pub fn with_mode(mut self, mode: PowerMode) -> Self {
        self.mode = mode;
        self
    }

    /// Swaps in a different GPU (e.g. [`GpuSpec::h100_sxm`] for the
    /// server-side runs of the paper's artifact), builder-style.
    pub fn with_gpu(mut self, gpu: GpuSpec) -> Self {
        self.soc.gpu = gpu;
        self
    }

    /// Sets the mid-generation OOM policy, builder-style.
    pub fn with_oom_policy(mut self, policy: OomPolicy) -> Self {
        self.oom_policy = policy;
        self
    }

    /// Enables closed-loop thermal/battery governance, builder-style.
    pub fn with_governance(mut self, governance: GovernanceConfig) -> Self {
        self.governance = Some(governance);
        self
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::vllm()
    }
}

/// A simulated inference engine bound to one simulated device.
///
/// Also exported as [`SimEngine`](crate::SimEngine). Phase costs are split
/// into a deterministic roofline aggregate — memoized in a
/// [`PhasePlanCache`] keyed on the architecture/GPU fingerprints, precision,
/// phase kind, batch and exact shape — and a seeded stochastic perturbation
/// applied after lookup. Exactly one RNG draw is consumed per phase whether
/// the lookup hits or misses, so a cached run is bit-identical to an
/// uncached one with the same seed.
#[derive(Debug, Clone)]
pub struct InferenceEngine {
    config: EngineConfig,
    gpu: Gpu,
    run_rng: Rng,
    plan_cache: PhasePlanCache,
    scratch: KernelPlan,
    cache_enabled: bool,
    counters: EngineCounters,
    faults: FaultSchedule,
    fault_index: FaultIndex,
    governor: Option<ThermalGovernor>,
    clock_s: f64,
}

impl InferenceEngine {
    /// Creates an engine with a deterministic measurement-noise seed.
    pub fn new(config: EngineConfig, seed: u64) -> Self {
        let gpu = Gpu::new(config.soc.gpu.clone(), config.mode, seed);
        let governor = config
            .governance
            .map(|g| ThermalGovernor::new(g, config.soc.gpu.idle_power_w));
        Self {
            config,
            gpu,
            run_rng: Rng::seed_from_u64(seed ^ 0x72756e),
            plan_cache: PhasePlanCache::new(),
            scratch: KernelPlan::new(),
            cache_enabled: true,
            counters: EngineCounters::default(),
            faults: FaultSchedule::none(),
            fault_index: FaultIndex::default(),
            governor,
            clock_s: 0.0,
        }
    }

    /// Installs a platform-disturbance schedule. The empty schedule
    /// ([`FaultSchedule::none`]) restores bit-exact fault-free behaviour.
    pub fn set_fault_schedule(&mut self, faults: FaultSchedule) {
        self.fault_index = FaultIndex::new(&faults);
        self.faults = faults;
        if self.faults.is_empty() {
            self.gpu.set_derate(Derate::IDENTITY);
        }
    }

    /// The installed disturbance schedule.
    pub fn fault_schedule(&self) -> &FaultSchedule {
        &self.faults
    }

    /// Positions the engine on the simulated wall clock (what disturbance
    /// windows are matched against). Only [`run`](Self::run) reads it: a
    /// standalone generation starts here, at `t = 0` by default. Serving
    /// never moves it: each replica's stepper matches the windows against
    /// its own clock.
    pub fn set_clock_s(&mut self, t: f64) {
        self.clock_s = t;
    }

    /// Current position on the simulated wall clock, seconds.
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Applies the disturbance schedule — and, when governance is enabled,
    /// the thermal governor's endogenous derate — at instant `t`. Returns
    /// whether a non-identity derate is active.
    ///
    /// With no governor and an empty schedule this is a no-op that never
    /// touches the GPU (the PR 3 bit-exactness guarantee). With a governor,
    /// scripted and endogenous derates compose via the per-axis min
    /// ([`Derate::combine`]); a never-tripped governor contributes the
    /// exact [`Derate::IDENTITY`], so the scripted bits pass through
    /// unchanged.
    pub(crate) fn apply_faults_at(&mut self, t: f64) -> bool {
        let Some(governor) = self.governor.as_mut() else {
            if self.faults.is_empty() {
                return false;
            }
            let derate = self.fault_index.derate_at(t, self.gpu.mode());
            self.gpu.set_derate(derate);
            return !derate.is_identity();
        };
        governor.advance_to(t);
        let mut derate = governor.derate();
        if !self.faults.is_empty() {
            derate = derate.combine(&self.fault_index.derate_at(t, self.gpu.mode()));
        }
        self.gpu.set_derate(derate);
        !derate.is_identity()
    }

    /// Charges the kernel-stall windows of the installed schedule that
    /// start inside the busy segment `[t0, t1)`: counts them and returns
    /// their total stall seconds, served from the O(log n) [`FaultIndex`]
    /// (bit-identical to [`FaultSchedule::stalls_in`]).
    pub(crate) fn charge_stalls(&mut self, t0: f64, t1: f64) -> f64 {
        let (n_stalls, stall_s) = self.fault_index.stalls_in(t0, t1);
        self.counters.stalls += n_stalls as u64;
        stall_s
    }

    /// Feeds a simulated busy segment's energy into the governance loop
    /// (no-op when governance is disabled). The serving stepper calls this
    /// after every admit/readmit/decode step, so DVFS throttling and
    /// battery brown-outs emerge from the load actually served.
    pub(crate) fn feed_governance(&mut self, energy_j: f64, from_s: f64, to_s: f64) {
        if let Some(governor) = self.governor.as_mut() {
            governor.feed(energy_j, from_s, to_s);
        }
    }

    /// Absolute end of an active battery brown-out window, if any. The
    /// fleet router treats this like a crash window.
    pub fn governance_down_until(&self) -> Option<f64> {
        self.governor.as_ref().and_then(|g| g.down_until())
    }

    /// Takes the most recent brown-out window `(start_s, end_s)` exactly
    /// once; the fleet router uses it to open an availability outage.
    pub(crate) fn governance_take_outage(&mut self) -> Option<(f64, f64)> {
        self.governor.as_mut().and_then(|g| g.take_pending_outage())
    }

    /// Governance counters so far (`None` when governance is disabled).
    pub fn governance_stats(&self) -> Option<GovernanceStats> {
        self.governor.as_ref().map(|g| g.stats())
    }

    /// The live governor — die temperature, ladder level, battery charge —
    /// when governance is enabled.
    pub fn governor(&self) -> Option<&ThermalGovernor> {
        self.governor.as_ref()
    }

    /// Rejects a malformed [`GovernanceConfig`] before a serving loop
    /// starts; cheap enough to call per run.
    pub(crate) fn validate_governance(&self) -> Result<(), EngineError> {
        if let Some(g) = &self.config.governance {
            g.validate()
                .map_err(|e| EngineError::InvalidRequest(format!("governance: {e}")))?;
        }
        Ok(())
    }

    /// Returns the engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Gives mutable access to the simulated GPU (e.g. to switch power
    /// modes mid-experiment). Stale cache entries are harmless: the GPU
    /// configuration fingerprint participates in every cache key, so a
    /// reconfigured device simply stops matching its old entries.
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }

    /// Enables or disables the phase-plan cache. Disabling never changes
    /// results — only whether deterministic aggregates are recomputed.
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
    }

    /// Whether the phase-plan cache is consulted.
    pub fn cache_enabled(&self) -> bool {
        self.cache_enabled
    }

    /// Execution counters accumulated since creation (or the last
    /// [`reset_counters`](Self::reset_counters)): cache hits/misses/entries
    /// and per-kind phase counts.
    pub fn counters(&self) -> EngineCounters {
        EngineCounters {
            cache_hits: self.plan_cache.hits(),
            cache_misses: self.plan_cache.misses(),
            cache_entries: self.plan_cache.len(),
            ..self.counters
        }
    }

    /// Zeroes the hit/miss and phase counters (cached entries are kept).
    pub fn reset_counters(&mut self) {
        self.plan_cache.reset_stats();
        self.counters = EngineCounters::default();
    }

    /// Current GPU configuration fingerprint (participates in cache keys;
    /// changes when a disturbance window alters the derate or power mode).
    pub(crate) fn gpu_fingerprint(&self) -> u64 {
        self.gpu.config_fingerprint()
    }

    /// Idle power floor of the device, watts. Independent of derates and
    /// power-mode quantization, so constant over an engine's lifetime.
    pub(crate) fn idle_w(&self) -> f64 {
        self.gpu.power_model().idle_w
    }

    /// Draws the phase's single stochastic perturbation (exactly one RNG
    /// draw, hit or miss — the bit-exactness contract).
    pub(crate) fn perturb(&mut self, det: &PhaseStats) -> PhaseStats {
        self.gpu.perturb_phase(det)
    }

    /// Mutable access to the execution counters (stepper bookkeeping).
    pub(crate) fn counters_mut(&mut self) -> &mut EngineCounters {
        &mut self.counters
    }

    /// Returns the memoized deterministic aggregate for `key`, computing
    /// (and caching) it via `build` + the noise-free roofline on a miss.
    pub(crate) fn deterministic_phase(
        &mut self,
        key: PhaseKey,
        calib: &ExecCalib,
        build: impl FnOnce(&mut KernelPlan),
    ) -> PhaseStats {
        match key.kind {
            PhaseKind::Prefill => self.counters.prefill_phases += 1,
            PhaseKind::DecodeBase => self.counters.decode_base_phases += 1,
            PhaseKind::DecodeCtx => self.counters.decode_ctx_phases += 1,
        }
        if self.cache_enabled {
            if let Some(stats) = self.plan_cache.get(&key) {
                return stats;
            }
        }
        self.scratch.clear();
        build(&mut self.scratch);
        let stats = self
            .gpu
            .run_phase_deterministic(self.scratch.kernels().iter(), calib);
        if self.cache_enabled {
            self.plan_cache.insert(key, stats);
        }
        stats
    }

    /// Bytes available for KV cache after loading `model` at `prec`.
    ///
    /// # Errors
    ///
    /// [`EngineError::OutOfMemory`] if the weights alone exceed the budget.
    pub fn kv_budget_bytes(&self, model: ModelId, prec: Precision) -> Result<u64, EngineError> {
        let arch = model.arch();
        let budget =
            (self.config.soc.gpu.dram_capacity as f64 * self.config.memory_budget_frac) as u64;
        let weights = arch.weight_bytes(prec);
        budget.checked_sub(weights).ok_or(EngineError::OutOfMemory {
            needed: weights,
            available: budget,
        })
    }

    /// Runs a full generation.
    ///
    /// Prefill executes once (batch 1, shared prompt — the paper's parallel
    /// scaling setup, §V-E); decode runs at `req.batch`. Decode steps are
    /// simulated at chunk-granularity representative contexts, which is
    /// exact for the linear-in-context KV traffic and keeps dataset-scale
    /// studies tractable — mirroring the paper's own use of fitted models
    /// for full-dataset latency.
    ///
    /// A run is one drained admission into a fresh [`BatchStepper`] at
    /// [`clock_s`](Self::clock_s), stepped until it retires, so it executes
    /// exactly the code that serves: the OOM policy, fault weather and the
    /// thermal/battery governor all apply as they do under the serving
    /// schedulers. The engine's own clock does not move.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidRequest`] for zero-sized fields or a
    /// malformed governance config and [`EngineError::OutOfMemory`] when
    /// weights + KV cache do not fit (under [`OomPolicy::PreemptRecompute`],
    /// only when even a single sequence cannot fit end to end).
    pub fn run(
        &mut self,
        model: ModelId,
        prec: Precision,
        req: &GenerationRequest,
    ) -> Result<InferenceOutcome, EngineError> {
        req.validate().map_err(EngineError::InvalidRequest)?;
        let mut stepper = BatchStepper::new(self, model, prec)?;
        stepper.admit(self, self.clock_s, req)?;
        loop {
            if let Some(done) = stepper.step(self)?.retired.pop() {
                return Ok(done.outcome);
            }
        }
    }

    /// The run tail of every generation, called by the stepper as each slot
    /// retires: one run-level jitter draw, the DVFS power ramp, and outcome
    /// assembly. Also returns the jitter factor so the stepper can scale the
    /// slot's wait by the same draw.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finalize_parts(
        &mut self,
        model: ModelId,
        prec: Precision,
        batch: usize,
        prompt_tokens: usize,
        generated_tokens: usize,
        prefill: PhaseStats,
        decode: PhaseStats,
        trace: Vec<TbtSample>,
        preemptions: usize,
        recomputed_tokens: usize,
        throttled_s: f64,
    ) -> (InferenceOutcome, f64) {
        // Run-level wall-clock variability (scheduling, thermals) that
        // per-kernel noise averages away over hundreds of launches.
        let jitter = self.run_rng.jitter(self.config.run_noise);
        let scale_phase = |p: &PhaseStats| PhaseStats {
            latency_s: p.latency_s * jitter,
            energy_j: p.energy_j * jitter,
            ..*p
        };
        let prefill = scale_phase(&prefill);
        let decode = scale_phase(&decode);

        // DVFS power ramp: dynamic power rises toward steady state over
        // ~10 s, so short generations consume far less energy per token.
        let idle_w = self.gpu.power_model().idle_w;
        let tau = self.config.power_ramp_tau_s;
        let prefill = apply_ramp(&prefill, 0.0, idle_w, tau);
        let decode = apply_ramp(&decode, prefill.latency_s, idle_w, tau);

        let outcome = InferenceOutcome {
            model,
            precision: prec,
            batch,
            prompt_tokens,
            generated_tokens,
            prefill,
            decode,
            host_s: self.config.request_overhead_s,
            tbt_trace: trace,
            preemptions,
            recomputed_tokens,
            throttled_s,
        };
        (outcome, jitter)
    }

    /// Runs only a prefill pass (used by the §IV characterization sweeps).
    pub fn run_prefill(
        &mut self,
        model: ModelId,
        prec: Precision,
        prompt_tokens: usize,
    ) -> PhaseStats {
        let arch = model.arch();
        let det = self.deterministic_phase(
            PhaseKey {
                arch_fp: arch.fingerprint(),
                gpu_fp: self.gpu.config_fingerprint(),
                precision: prec,
                kind: PhaseKind::Prefill,
                batch: 1,
                shape: prompt_tokens,
            },
            &arch.calib.prefill,
            |plan| build_prefill_into(plan, &arch, prec, 1, prompt_tokens),
        );
        let phase = self.gpu.perturb_phase(&det);
        let idle_w = self.gpu.power_model().idle_w;
        apply_ramp(&phase, 0.0, idle_w, self.config.power_ramp_tau_s)
    }

    /// Measures the time-between-tokens of one decode step at a given
    /// context and batch (Fig. 3b / Fig. 10a style probes). Includes host
    /// per-step overhead.
    pub fn probe_tbt(
        &mut self,
        model: ModelId,
        prec: Precision,
        batch: usize,
        ctx: usize,
    ) -> PhaseStats {
        let arch = model.arch();
        let arch_fp = arch.fingerprint();
        let gpu_fp = self.gpu.config_fingerprint();
        let key = |kind: PhaseKind, shape: usize| PhaseKey {
            arch_fp,
            gpu_fp,
            precision: prec,
            kind,
            batch,
            shape,
        };
        let base_det =
            self.deterministic_phase(key(PhaseKind::DecodeBase, 0), &arch.calib.decode, |plan| {
                build_decode_base_into(plan, &arch, prec, batch)
            });
        let ctx_det =
            self.deterministic_phase(key(PhaseKind::DecodeCtx, ctx), &arch.calib.decode, |plan| {
                build_decode_attn_into(plan, &arch, prec, batch, ctx)
            });
        let mut step_det = base_det;
        step_det.merge(&ctx_det);
        let mut step = self.gpu.perturb_phase(&step_det);
        let idle_w = self.gpu.power_model().idle_w;
        let host = self.config.host_per_step_s + self.config.host_per_seq_step_s * batch as f64;
        step.merge(&PhaseStats {
            latency_s: host,
            energy_j: host * idle_w,
            avg_power_w: idle_w,
            ..PhaseStats::default()
        });
        step
    }
}

/// Rescales a phase's energy/average power for the DVFS ramp over the
/// window starting at `start_s` into the run.
pub(crate) fn apply_ramp(phase: &PhaseStats, start_s: f64, idle_w: f64, tau_s: f64) -> PhaseStats {
    use edgereasoning_soc::power::ramp_avg_factor;
    if tau_s == 0.0 || phase.latency_s <= 0.0 {
        return *phase;
    }
    let factor = ramp_avg_factor(start_s, start_s + phase.latency_s, tau_s);
    let dynamic = (phase.avg_power_w - idle_w).max(0.0);
    let avg_power_w = idle_w + dynamic * factor;
    PhaseStats {
        avg_power_w,
        energy_j: avg_power_w * phase.latency_s,
        ..*phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> InferenceEngine {
        InferenceEngine::new(EngineConfig::vllm(), 7)
    }

    /// Calibration anchor: FP16 TBT ≈ 24 / 92 / 187 ms for the three DSR1
    /// models (paper §IV-A), within 15 %.
    #[test]
    fn tbt_matches_paper_anchors() {
        let mut e = engine();
        let cases = [
            (ModelId::Dsr1Qwen1_5b, 0.024),
            (ModelId::Dsr1Llama8b, 0.092),
            (ModelId::Dsr1Qwen14b, 0.187),
        ];
        for (model, expected) in cases {
            let step = e.probe_tbt(model, Precision::Fp16, 1, 512);
            let rel = (step.latency_s / expected - 1.0).abs();
            assert!(
                rel < 0.15,
                "{model}: TBT {:.4} s vs paper {expected} s ({:.0}% off)",
                step.latency_s,
                rel * 100.0
            );
        }
    }

    /// Calibration anchor: W4A16 decode speedup vs FP16 grows with model
    /// size (paper takeaway #11: ~2× for 1.5B up to ~3× for 14B).
    #[test]
    fn quantized_decode_speedup_grows_with_size() {
        let mut e = engine();
        let mut speedup = |m: ModelId| {
            let fp = e.probe_tbt(m, Precision::Fp16, 1, 512).latency_s;
            let w4 = e.probe_tbt(m, Precision::W4A16, 1, 512).latency_s;
            fp / w4
        };
        let s15 = speedup(ModelId::Dsr1Qwen1_5b);
        let s8 = speedup(ModelId::Dsr1Llama8b);
        let s14 = speedup(ModelId::Dsr1Qwen14b);
        assert!((1.4..2.6).contains(&s15), "1.5B speedup {s15}");
        assert!((2.0..3.4).contains(&s8), "8B speedup {s8}");
        assert!(
            s8 >= s15 * 0.95 && s14 > 1.9,
            "gains grow with size: {s15} {s8} {s14}"
        );
    }

    #[test]
    fn decode_dominates_total_latency() {
        let mut e = engine();
        let o = e
            .run(
                ModelId::Dsr1Llama8b,
                Precision::Fp16,
                &GenerationRequest::new(128, 512),
            )
            .expect("fits");
        assert!(o.decode.latency_s > 50.0 * o.prefill.latency_s);
    }

    #[test]
    fn decode_latency_linear_in_output_length() {
        let mut e = engine();
        let mut run = |o: usize| {
            e.run(
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                &GenerationRequest::new(512, o),
            )
            .expect("fits")
            .decode
            .latency_s
        };
        let t256 = run(256);
        let t1024 = run(1024);
        let ratio = t1024 / t256;
        assert!((3.7..4.4).contains(&ratio), "expected ~4x, got {ratio}");
    }

    #[test]
    fn parallel_scaling_latency_overhead_is_modest() {
        let mut e = engine();
        let mut tbt = |b: usize| {
            e.probe_tbt(ModelId::Dsr1Llama8b, Precision::Fp16, b, 640)
                .latency_s
        };
        let t1 = tbt(1);
        let t4 = tbt(4);
        let t64 = tbt(64);
        assert!(t4 / t1 < 1.25, "SF=4 nearly free: {}", t4 / t1);
        let r64 = t64 / t1;
        assert!((1.4..2.9).contains(&r64), "SF=64 ≈2x: got {r64}");
    }

    #[test]
    fn oom_on_impossible_batch() {
        let mut e = engine();
        // 14B FP16 weights ≈ 29.5 GB; 64-seq × 40k-token KV cache needs
        // ~100 GB more -> must fail.
        let req = GenerationRequest::new(4096, 36_000).with_batch(64);
        let err = e
            .run(ModelId::Dsr1Qwen14b, Precision::Fp16, &req)
            .unwrap_err();
        assert!(matches!(err, EngineError::OutOfMemory { .. }), "{err}");
    }

    #[test]
    fn invalid_request_is_rejected() {
        let mut e = engine();
        let err = e
            .run(
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                &GenerationRequest::new(0, 8),
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::InvalidRequest(_)));
    }

    #[test]
    fn hft_is_slower_than_vllm_by_about_12_percent() {
        let req = GenerationRequest::new(64, 128);
        let mut vllm = InferenceEngine::new(EngineConfig::vllm(), 3);
        let mut hft = InferenceEngine::new(EngineConfig::hft(), 3);
        let tv = vllm
            .run(ModelId::Dsr1Llama8b, Precision::Fp16, &req)
            .expect("fits")
            .total_latency_s();
        let th = hft
            .run(ModelId::Dsr1Llama8b, Precision::Fp16, &req)
            .expect("fits")
            .total_latency_s();
        let speedup = th / tv;
        assert!((1.05..1.25).contains(&speedup), "HFT/vLLM = {speedup}");
    }

    #[test]
    fn tbt_trace_contexts_grow() {
        let mut e = engine();
        let o = e
            .run(
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                &GenerationRequest::new(256, 200),
            )
            .expect("fits");
        assert!(o.tbt_trace.len() >= 3);
        for w in o.tbt_trace.windows(2) {
            assert!(w[1].ctx > w[0].ctx);
        }
    }

    #[test]
    fn long_generations_keep_a_bounded_trace_with_unchanged_aggregates() {
        let req = GenerationRequest::new(64, 4096);
        let mut capped = InferenceEngine::new(EngineConfig::vllm(), 9);
        capped.config.tbt_trace_cap = 16;
        let mut unbounded = InferenceEngine::new(EngineConfig::vllm(), 9);
        unbounded.config.tbt_trace_cap = 0;
        let a = capped
            .run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req)
            .expect("fits");
        let b = unbounded
            .run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req)
            .expect("fits");
        // 4096 tokens at chunk 48 = 86 decode steps: bounded vs full trace.
        assert!(a.tbt_trace.len() <= 16, "cap holds: {}", a.tbt_trace.len());
        assert!(b.tbt_trace.len() >= 80, "uncapped: {}", b.tbt_trace.len());
        // Trace capping must not touch TTFT/TBT aggregates — everything but
        // the trace is bit-identical.
        assert_eq!(a.prefill, b.prefill);
        assert_eq!(a.decode, b.decode);
        assert_eq!(a.mean_tbt_s(), b.mean_tbt_s());
        // Retained samples are a subsequence of the full trace.
        let mut it = b.tbt_trace.iter();
        for s in &a.tbt_trace {
            assert!(it.any(|f| f == s), "capped sample missing from full");
        }
    }

    #[test]
    fn cached_and_uncached_runs_are_bit_identical() {
        let mut cached = InferenceEngine::new(EngineConfig::vllm(), 11);
        let mut uncached = InferenceEngine::new(EngineConfig::vllm(), 11);
        uncached.set_cache_enabled(false);
        let plan = [
            (ModelId::Dsr1Qwen1_5b, Precision::Fp16, 512usize, 300usize),
            (ModelId::Dsr1Qwen1_5b, Precision::Fp16, 512, 300), // repeat -> cache hits
            (ModelId::Dsr1Llama8b, Precision::W4A16, 256, 128),
            (ModelId::Dsr1Qwen1_5b, Precision::Fp16, 512, 300),
        ];
        for (model, prec, prompt, out) in plan {
            let req = GenerationRequest::new(prompt, out).with_batch(2);
            let a = cached.run(model, prec, &req).expect("fits");
            let b = uncached.run(model, prec, &req).expect("fits");
            assert_eq!(a, b, "cached and uncached outcomes must match exactly");
        }
        let c = cached.counters();
        assert!(c.cache_hits > 0, "repeated runs must hit: {c}");
        assert_eq!(uncached.counters().cache_hits, 0);
        assert_eq!(uncached.counters().cache_entries, 0);
    }

    #[test]
    fn counters_track_phases_and_hits() {
        let mut e = engine();
        let req = GenerationRequest::new(128, 96);
        e.run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req)
            .expect("fits");
        let first = e.counters();
        // 96 tokens at chunk 48 = 2 decode chunks.
        assert_eq!(first.prefill_phases, 1);
        assert_eq!(first.decode_base_phases, 1);
        assert_eq!(first.decode_ctx_phases, 2);
        assert_eq!(first.cache_misses, 4);
        assert_eq!(first.cache_entries, 4);
        e.run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req)
            .expect("fits");
        let second = e.counters();
        assert_eq!(second.cache_hits, 4, "identical rerun must be fully cached");
        assert_eq!(second.cache_misses, 4);
        e.reset_counters();
        let reset = e.counters();
        assert_eq!((reset.cache_hits, reset.prefill_phases), (0, 0));
        assert_eq!(reset.cache_entries, 4, "entries survive a counter reset");
    }

    #[test]
    fn shared_backbones_share_cache_entries() {
        let mut e = engine();
        let _ = e.probe_tbt(ModelId::Dsr1Qwen1_5b, Precision::Fp16, 1, 512);
        let miss_after_first = e.counters().cache_misses;
        // L1-Max shares the Qwen2.5-1.5B backbone and calibration, so the
        // same probe must be served entirely from cache.
        let _ = e.probe_tbt(ModelId::L1Max, Precision::Fp16, 1, 512);
        assert_eq!(e.counters().cache_misses, miss_after_first);
        assert_eq!(e.counters().cache_hits, 2);
    }

    #[test]
    fn decode_power_exceeds_prefill_power_for_small_models() {
        // Bandwidth-bound decode draws more than the short prefill on the
        // 1.5B model (Tables XVIII/XIX).
        let mut e = engine();
        let o = e
            .run(
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                &GenerationRequest::new(512, 512),
            )
            .expect("fits");
        assert!(o.decode.avg_power_w > o.prefill.avg_power_w);
    }

    use edgereasoning_soc::faults::{Disturbance, FaultKind, FaultSchedule};

    #[test]
    fn empty_fault_schedule_is_bit_identical() {
        let req = GenerationRequest::new(384, 256).with_batch(2);
        let mut plain = InferenceEngine::new(EngineConfig::vllm(), 21);
        let mut hooked = InferenceEngine::new(EngineConfig::vllm(), 21);
        hooked.set_fault_schedule(FaultSchedule::none());
        hooked.set_clock_s(1234.5);
        let a = plain
            .run(ModelId::Dsr1Llama8b, Precision::Fp16, &req)
            .expect("fits");
        let b = hooked
            .run(ModelId::Dsr1Llama8b, Precision::Fp16, &req)
            .expect("fits");
        assert_eq!(a, b, "no-op schedule must not perturb a single bit");
    }

    #[test]
    fn quiet_engine_skips_the_derate_path_entirely() {
        // The original fault-injection guarantee, re-pinned after the
        // governance min-combine path landed: with an empty schedule and
        // governance off, `apply_faults_at` must take the early return —
        // never computing a derate, never touching the GPU — so quiet runs
        // cannot drift from the pre-governance engine by even one bit.
        let mut quiet = InferenceEngine::new(EngineConfig::vllm(), 9);
        quiet.set_fault_schedule(FaultSchedule::none());
        for t in [0.0, 1.0, 1e3, 1e9] {
            assert!(
                !quiet.apply_faults_at(t),
                "quiet engine must report no throttle at t = {t}"
            );
        }
        let req = GenerationRequest::new(384, 256).with_batch(2);
        let a = quiet
            .run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req)
            .expect("fits");
        let mut plain = InferenceEngine::new(EngineConfig::vllm(), 9);
        let b = plain
            .run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req)
            .expect("fits");
        assert_eq!(a, b, "the early-return path must stay bit-exact");
    }

    #[test]
    fn thermal_throttle_slows_the_run_and_is_counted() {
        let req = GenerationRequest::new(256, 256);
        let mut base = InferenceEngine::new(EngineConfig::vllm(), 5);
        let clean = base
            .run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req)
            .expect("fits");
        let mut faulted = InferenceEngine::new(EngineConfig::vllm(), 5);
        faulted.set_fault_schedule(FaultSchedule::from_events(vec![Disturbance {
            start_s: 0.0,
            duration_s: 1e6,
            kind: FaultKind::ThermalThrottle { freq_scale: 0.5 },
        }]));
        let hot = faulted
            .run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req)
            .expect("fits");
        assert!(
            hot.total_latency_s() > clean.total_latency_s() * 1.3,
            "a 0.5x clock cap must slow the run: {} vs {}",
            hot.total_latency_s(),
            clean.total_latency_s()
        );
        assert!(hot.throttled_s > 0.0);
        assert!(faulted.counters().throttled_phases > 0);
        // Same seed + same schedule must stay deterministic.
        let mut again = InferenceEngine::new(EngineConfig::vllm(), 5);
        again.set_fault_schedule(faulted.fault_schedule().clone());
        let rerun = again
            .run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req)
            .expect("fits");
        assert_eq!(hot, rerun);
    }

    #[test]
    fn kernel_stall_inserts_idle_time() {
        // A stall is charged by the busy segment it starts in, whichever
        // that is: the prompt prefill (t = 0), a decode step, or a context
        // recomputation after a preemption (3.53 s into the pressured
        // run, which takes 6.82 s and preempts twice).
        let single = GenerationRequest::new(256, 256);
        let crowded = GenerationRequest::new(128, 128).with_batch(8);
        let mut cases = Vec::new();
        for policy in [OomPolicy::FailFast, OomPolicy::PreemptRecompute] {
            for start_s in [0.0, 0.5] {
                cases.push((
                    EngineConfig::vllm().with_oom_policy(policy),
                    single,
                    start_s,
                ));
            }
        }
        for start_s in [3.53, 1.0] {
            let config = EngineConfig::vllm().with_oom_policy(OomPolicy::PreemptRecompute);
            let config = with_kv_tokens(config, ModelId::Dsr1Qwen1_5b, 1600);
            cases.push((config, crowded, start_s));
        }
        for (config, req, start_s) in cases {
            let case = format!("{} stall at {start_s} s", config.oom_policy);
            let clean = InferenceEngine::new(config.clone(), 5)
                .run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req)
                .expect("fits");
            let mut faulted = InferenceEngine::new(config, 5);
            faulted.set_fault_schedule(FaultSchedule::from_events(vec![Disturbance {
                start_s,
                duration_s: 2.0,
                kind: FaultKind::KernelStall,
            }]));
            let stalled = faulted
                .run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req)
                .expect("fits");
            let extra = stalled.total_latency_s() - clean.total_latency_s();
            assert!(
                (extra - 2.0).abs() < 0.2,
                "{case}: a 2 s stall must add ~2 s: added {extra}"
            );
            assert_eq!(faulted.counters().stalls, 1, "{case}");
            assert!(stalled.total_energy_j() > clean.total_energy_j(), "{case}");
        }

        // The golden `run` cells this rule moved (`tests/run_regression.rs`,
        // column 6 of rows 2 and 12): recompute preemption under dense
        // weather, pinned by the grid's fingerprint of two back-to-back runs
        // and the engine counters.
        for (kind, model, seed, want) in [
            (
                EngineKind::TrtLlm,
                ModelId::Dsr1Qwen1_5b,
                21,
                0xbf76_d28a_7912_4989,
            ),
            (
                EngineKind::Vllm,
                ModelId::Dsr1Qwen14b,
                91,
                0x4b3a_0dec_f409_1229,
            ),
        ] {
            let config = EngineConfig::for_kind(kind).with_oom_policy(OomPolicy::PreemptRecompute);
            let mut e = InferenceEngine::new(with_kv_tokens(config, model, 1600), seed);
            e.set_fault_schedule(FaultSchedule::generate(seed ^ 0xfa, 20.0, 4000.0));
            e.set_clock_s(60.0 + 29.0 * seed as f64);
            let req = GenerationRequest::new(200, 180).with_batch(6);
            let first = e.run(model, Precision::Fp16, &req);
            let second = e.run(model, Precision::Fp16, &req);
            let got = crate::fingerprint(&(first, second, e.counters()));
            assert_eq!(got, want, "{kind} {model} seed {seed}");
        }
    }

    /// `config` with a memory budget that holds `kv_tokens` FP16 KV-cache
    /// tokens of `model` beyond its weights.
    fn with_kv_tokens(mut config: EngineConfig, model: ModelId, kv_tokens: u64) -> EngineConfig {
        let arch = model.arch();
        let budget = arch.weight_bytes(Precision::Fp16) + kv_tokens * arch.kv_bytes_per_token();
        config.memory_budget_frac = budget as f64 / config.soc.gpu.dram_capacity as f64;
        config
    }

    fn pressured(policy: OomPolicy, kv_tokens: u64) -> InferenceEngine {
        let config = EngineConfig::vllm().with_oom_policy(policy);
        InferenceEngine::new(with_kv_tokens(config, ModelId::Dsr1Qwen1_5b, kv_tokens), 3)
    }

    #[test]
    fn preempt_recompute_completes_what_failfast_aborts() {
        // Batch 8 x 256 tokens needs 2048 KV tokens; only ~1600 fit.
        let req = GenerationRequest::new(128, 128).with_batch(8);
        let err = pressured(OomPolicy::FailFast, 1600)
            .run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req)
            .unwrap_err();
        assert!(matches!(err, EngineError::OutOfMemory { .. }), "{err}");

        let mut pr = pressured(OomPolicy::PreemptRecompute, 1600);
        let o = pr
            .run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req)
            .expect("preemption must complete the batch");
        assert_eq!(o.generated_tokens, 128);
        assert_eq!(o.batch, 8);
        assert!(o.preemptions > 0, "pressure must preempt: {o:?}");
        assert!(o.recomputed_tokens > 0);
        assert_eq!(pr.counters().preemptions, o.preemptions as u64);
        // The degraded run costs more wall time than an unconstrained one.
        let unconstrained = InferenceEngine::new(
            EngineConfig::vllm().with_oom_policy(OomPolicy::PreemptRecompute),
            3,
        )
        .run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req)
        .expect("fits");
        assert!(o.total_latency_s() > unconstrained.total_latency_s());
        assert_eq!(unconstrained.preemptions, 0);
    }

    #[test]
    fn preempt_policy_is_inert_when_memory_suffices() {
        let req = GenerationRequest::new(256, 192).with_batch(2);
        let mut ff = InferenceEngine::new(EngineConfig::vllm(), 13);
        let mut pr = InferenceEngine::new(
            EngineConfig::vllm().with_oom_policy(OomPolicy::PreemptRecompute),
            13,
        );
        let a = ff
            .run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req)
            .expect("fits");
        let b = pr
            .run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req)
            .expect("fits");
        assert_eq!(b.preemptions, 0);
        assert_eq!(b.recomputed_tokens, 0);
        // One execution path: without pressure, both policies run the same
        // phases bit for bit.
        assert_eq!(a, b, "policies must agree without pressure");
    }
}
