//! The characterization rig: drives the simulated Orin exactly the way the
//! paper drives the real one, producing measurement sweeps, fitted
//! analytical models, validation MAPEs and full evaluation-cell reports.

use std::collections::HashMap;

use edgereasoning_engine::engine::{EngineConfig, InferenceEngine};
use edgereasoning_engine::outcome::InferenceOutcome;
use edgereasoning_engine::request::GenerationRequest;
use edgereasoning_engine::EngineError;
use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_models::evaluate::{evaluate, EvalOptions, EvalResult};
use edgereasoning_models::profile::output_profile;
use edgereasoning_soc::gpu::PhaseStats;
use edgereasoning_soc::rng::Rng;
use edgereasoning_soc::stats;
use edgereasoning_workloads::prompt::PromptConfig;
use edgereasoning_workloads::suite::Benchmark;
use serde::{Deserialize, Serialize};

use crate::cost::{CostBreakdown, CostModel};
use crate::energy::{EnergyPerTokenModel, PhasePowerModel};
use crate::latency::{DecodeLatencyModel, LatencySample, PrefillLatencyModel, TotalLatencyModel};

/// Rig configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RigConfig {
    /// Master seed for simulation noise and workload sampling.
    pub seed: u64,
    /// Engine profile (vLLM on a Jetson AGX Orin in MAXN by default).
    pub engine: EngineConfig,
    /// Cost-model rates.
    pub cost: CostModel,
}

impl Default for RigConfig {
    fn default() -> Self {
        Self {
            seed: 0xed9e,
            engine: EngineConfig::vllm(),
            cost: CostModel::default(),
        }
    }
}

impl RigConfig {
    /// Sets the master seed, builder-style.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the engine profile, builder-style.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }
}

/// Latency-model validation errors (the paper's Table VI).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MapeReport {
    /// Prefill MAPE, percent.
    pub prefill_pct: f64,
    /// Decode MAPE, percent.
    pub decode_pct: f64,
    /// Total MAPE, percent.
    pub total_pct: f64,
}

/// A full evaluation cell: accuracy + latency + energy + cost (one row of
/// the paper's Tables X/XI-style reports).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// Model evaluated.
    pub model: ModelId,
    /// Weight precision.
    pub precision: Precision,
    /// Benchmark.
    pub bench: Benchmark,
    /// Prompting configuration.
    pub config: PromptConfig,
    /// Accuracy/token statistics from the behavioural evaluation.
    pub eval: EvalResult,
    /// Average end-to-end latency per question, seconds (fitted models).
    pub avg_latency_s: f64,
    /// Average energy per question, joules.
    pub avg_energy_j: f64,
    /// Deployment cost, $ per million generated tokens.
    pub cost: CostBreakdown,
}

/// The characterization rig.
#[derive(Debug)]
pub struct Rig {
    config: RigConfig,
    engine: InferenceEngine,
    latency_cache: HashMap<(ModelId, Precision), TotalLatencyModel>,
    power_cache: HashMap<(ModelId, Precision), (PhasePowerModel, PhasePowerModel)>,
    energy_cache: HashMap<(ModelId, Precision), (EnergyPerTokenModel, EnergyPerTokenModel)>,
}

impl Rig {
    /// Creates a rig.
    pub fn new(config: RigConfig) -> Self {
        let engine = InferenceEngine::new(config.engine.clone(), config.seed);
        Self {
            config,
            engine,
            latency_cache: HashMap::new(),
            power_cache: HashMap::new(),
            energy_cache: HashMap::new(),
        }
    }

    /// Returns the rig configuration.
    pub fn config(&self) -> &RigConfig {
        &self.config
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut InferenceEngine {
        &mut self.engine
    }

    /// Installs a platform-disturbance schedule on the underlying engine
    /// (see `edgereasoning_soc::faults`). Note that the fitted-model caches
    /// are keyed per (model, precision) only: install the schedule *before*
    /// characterizing, or the cached fits will describe the clean device.
    pub fn set_fault_schedule(&mut self, schedule: edgereasoning_soc::faults::FaultSchedule) {
        self.engine.set_fault_schedule(schedule);
    }

    /// Runs one generation on the simulated device.
    ///
    /// # Panics
    ///
    /// Panics if the request does not fit device memory; use
    /// [`Rig::try_run_generation`] to handle that case.
    // Documented '# Panics' contract: these expects are the API surface,
    // not accidental panics; misuse is caught loudly at the call site.
    #[allow(clippy::expect_used)]
    pub fn run_generation(
        &mut self,
        model: ModelId,
        prec: Precision,
        req: &GenerationRequest,
    ) -> InferenceOutcome {
        self.try_run_generation(model, prec, req)
            .expect("request does not fit on the device")
    }

    /// Runs one generation, surfacing engine errors.
    ///
    /// # Errors
    ///
    /// Propagates [`EngineError`] (OOM / invalid request).
    pub fn try_run_generation(
        &mut self,
        model: ModelId,
        prec: Precision,
        req: &GenerationRequest,
    ) -> Result<InferenceOutcome, EngineError> {
        self.engine.run(model, prec, req)
    }

    /// Prefill sweep: measured `(input_tokens, PhaseStats)` over the given
    /// lengths (Fig. 2 / Fig. 4 raw data).
    pub fn sweep_prefill(
        &mut self,
        model: ModelId,
        prec: Precision,
        lengths: &[usize],
    ) -> Vec<(usize, PhaseStats)> {
        lengths
            .iter()
            .map(|&i| (i, self.engine.run_prefill(model, prec, i)))
            .collect()
    }

    /// Decode sweep at fixed input length: measured `(output_tokens,
    /// PhaseStats)` per output length (Fig. 3a / Fig. 5 raw data).
    ///
    /// # Panics
    ///
    /// Panics if a sweep point does not fit device memory; use
    /// [`Rig::try_sweep_decode`] to handle that case.
    // Documented '# Panics' contract: these expects are the API surface,
    // not accidental panics; misuse is caught loudly at the call site.
    #[allow(clippy::expect_used)]
    pub fn sweep_decode(
        &mut self,
        model: ModelId,
        prec: Precision,
        input_tokens: usize,
        outputs: &[usize],
    ) -> Vec<(usize, PhaseStats)> {
        self.try_sweep_decode(model, prec, input_tokens, outputs)
            .expect("sweep request fits")
    }

    /// Decode sweep surfacing engine errors instead of panicking.
    ///
    /// # Errors
    ///
    /// Propagates the first [`EngineError`] hit by a sweep point (e.g. OOM
    /// on a tight memory budget).
    pub fn try_sweep_decode(
        &mut self,
        model: ModelId,
        prec: Precision,
        input_tokens: usize,
        outputs: &[usize],
    ) -> Result<Vec<(usize, PhaseStats)>, EngineError> {
        outputs
            .iter()
            .map(|&o| {
                let req = GenerationRequest::new(input_tokens, o);
                self.engine.run(model, prec, &req).map(|o2| (o, o2.decode))
            })
            .collect()
    }

    /// TBT probe across context lengths (Fig. 3b raw data).
    pub fn sweep_tbt(
        &mut self,
        model: ModelId,
        prec: Precision,
        contexts: &[usize],
    ) -> Vec<(usize, f64)> {
        contexts
            .iter()
            .map(|&ctx| (ctx, self.engine.probe_tbt(model, prec, 1, ctx).latency_s))
            .collect()
    }

    /// Characterizes and fits the total latency model for a model, exactly
    /// following §IV-A: prefill sweep on multiples of 64 up to 4k, decode
    /// fit over ~100 mixed input/output points. Cached per (model, prec).
    ///
    /// # Panics
    ///
    /// Panics if a sweep point does not fit device memory (the standard
    /// grids fit every supported model at the default budget).
    // Documented '# Panics' contract: these expects are the API surface,
    // not accidental panics; misuse is caught loudly at the call site.
    #[allow(clippy::expect_used)]
    pub fn characterize_latency(&mut self, model: ModelId, prec: Precision) -> TotalLatencyModel {
        if let Some(m) = self.latency_cache.get(&(model, prec)) {
            return *m;
        }
        // Prefill: multiples of 64 from 64 to 4096 (the paper restricts
        // fitting to multiple-of-64 points to sidestep padding artifacts).
        let lengths: Vec<usize> = (1..=64).map(|k| k * 64).collect();
        let prefill_samples: Vec<(usize, f64)> = self
            .sweep_prefill(model, prec, &lengths)
            .into_iter()
            .map(|(i, p)| (i, p.latency_s))
            .collect();
        let prefill = PrefillLatencyModel::fit(&prefill_samples).expect("prefill fit");

        // Decode: ~100 (I, O) combinations mirroring MMLU-Redux lengths.
        let mut samples = Vec::new();
        for &i in &[64usize, 128, 256, 512, 1024, 2048] {
            for &o in &[32usize, 64, 128, 256, 512, 1024] {
                let outcome = self
                    .engine
                    .run(model, prec, &GenerationRequest::new(i, o))
                    .expect("fits");
                samples.push(LatencySample {
                    input_tokens: i,
                    output_tokens: o,
                    latency_s: outcome.decode.latency_s,
                });
            }
        }
        let decode = DecodeLatencyModel::fit(&samples).expect("decode fit");
        let total = TotalLatencyModel { prefill, decode };
        self.latency_cache.insert((model, prec), total);
        total
    }

    /// Characterizes and fits phase power models (prefill power vs input
    /// length, decode power vs output length at I=512 — Figs. 4a/5a).
    ///
    /// # Panics
    ///
    /// Panics if a sweep point does not fit device memory.
    // Documented '# Panics' contract: these expects are the API surface,
    // not accidental panics; misuse is caught loudly at the call site.
    #[allow(clippy::expect_used)]
    pub fn characterize_power(
        &mut self,
        model: ModelId,
        prec: Precision,
    ) -> (PhasePowerModel, PhasePowerModel) {
        if let Some(m) = self.power_cache.get(&(model, prec)) {
            return *m;
        }
        let lengths: Vec<usize> = (1..=32).map(|k| k * 128).collect();
        let prefill_samples: Vec<(f64, f64)> = self
            .sweep_prefill(model, prec, &lengths)
            .into_iter()
            .map(|(i, p)| (i as f64, p.avg_power_w))
            .collect();
        let prefill = PhasePowerModel::fit(&prefill_samples).expect("prefill power fit");

        let outputs: Vec<usize> = (1..=24).map(|k| k * 64).collect();
        let decode_samples: Vec<(f64, f64)> = self
            .sweep_decode(model, prec, 512, &outputs)
            .into_iter()
            .map(|(o, p)| (o as f64, p.avg_power_w))
            .collect();
        let decode = PhasePowerModel::fit(&decode_samples).expect("decode power fit");
        let pair = (prefill, decode);
        self.power_cache.insert((model, prec), pair);
        pair
    }

    /// Characterizes energy-per-token models for both phases (Figs. 4b/5b).
    /// Cached per (model, prec) like the latency and power models.
    ///
    /// # Panics
    ///
    /// Panics if a sweep point does not fit device memory.
    // Documented '# Panics' contract: these expects are the API surface,
    // not accidental panics; misuse is caught loudly at the call site.
    #[allow(clippy::expect_used)]
    pub fn characterize_energy(
        &mut self,
        model: ModelId,
        prec: Precision,
    ) -> (EnergyPerTokenModel, EnergyPerTokenModel) {
        if let Some(m) = self.energy_cache.get(&(model, prec)) {
            return *m;
        }
        let lengths: Vec<usize> = (1..=32).map(|k| k * 128).collect();
        let prefill_samples: Vec<(f64, f64)> = self
            .sweep_prefill(model, prec, &lengths)
            .into_iter()
            .map(|(i, p)| (i as f64, p.energy_j / i as f64))
            .collect();
        let prefill = EnergyPerTokenModel::fit(&prefill_samples).expect("prefill energy fit");

        let outputs: Vec<usize> = (1..=24).map(|k| k * 64).collect();
        let decode_samples: Vec<(f64, f64)> = self
            .sweep_decode(model, prec, 512, &outputs)
            .into_iter()
            .map(|(o, p)| (o as f64, p.energy_j / o as f64))
            .collect();
        let decode = EnergyPerTokenModel::fit(&decode_samples).expect("decode energy fit");
        let pair = (prefill, decode);
        self.energy_cache.insert((model, prec), pair);
        pair
    }

    /// Validates a fitted latency model on held-out generations whose
    /// input/output lengths are drawn from a benchmark cell (the paper's
    /// 50-question MMLU-Redux hold-out, Table VI).
    ///
    /// # Panics
    ///
    /// Panics if `holdout` is 0 or a hold-out generation does not fit
    /// device memory.
    // Documented '# Panics' contract: these expects are the API surface,
    // not accidental panics; misuse is caught loudly at the call site.
    #[allow(clippy::expect_used)]
    pub fn validate_latency(
        &mut self,
        model: ModelId,
        prec: Precision,
        holdout: usize,
    ) -> MapeReport {
        let fitted = self.characterize_latency(model, prec);
        let questions = Benchmark::MmluRedux.generate_subset(self.config.seed ^ 0x7e57, holdout);
        let profile = output_profile(model, Benchmark::MmluRedux, PromptConfig::Base, prec);
        let mut rng = Rng::seed_from_u64(self.config.seed ^ 0x7057);

        let (mut pre_p, mut pre_a) = (Vec::new(), Vec::new());
        let (mut dec_p, mut dec_a) = (Vec::new(), Vec::new());
        let (mut tot_p, mut tot_a) = (Vec::new(), Vec::new());
        for q in &questions {
            let i = q.prompt_tokens + 24;
            let o = (profile.sample_natural(&mut rng).round() as usize).clamp(8, 4096);
            let outcome = self
                .engine
                .run(model, prec, &GenerationRequest::new(i, o))
                .expect("fits");
            pre_p.push(fitted.prefill.predict(i));
            pre_a.push(outcome.prefill.latency_s);
            dec_p.push(fitted.decode.predict(i, o));
            dec_a.push(outcome.decode.latency_s);
            tot_p.push(fitted.predict(i, o));
            tot_a.push(outcome.prefill.latency_s + outcome.decode.latency_s);
        }
        MapeReport {
            prefill_pct: stats::mape(&pre_p, &pre_a).expect("nonempty"),
            decode_pct: stats::mape(&dec_p, &dec_a).expect("nonempty"),
            total_pct: stats::mape(&tot_p, &tot_a).expect("nonempty"),
        }
    }

    /// Produces a full evaluation-cell report: behavioural accuracy plus
    /// latency/energy/cost from the fitted analytical models — the same
    /// hybrid the paper uses for its dataset-scale tables (measuring every
    /// question on hardware would take days; the fitted models evaluate in
    /// microseconds).
    pub fn cell_report(
        &mut self,
        model: ModelId,
        prec: Precision,
        bench: Benchmark,
        config: PromptConfig,
        opts: EvalOptions,
    ) -> CellReport {
        let eval = evaluate(model, prec, bench, config, opts);
        let latency = self.characterize_latency(model, prec);
        let (p_pre, p_dec) = self.characterize_power(model, prec);

        let i = eval.avg_prompt_tokens.round() as usize;
        // Wall-clock is bounded by the longest parallel sample.
        let o_wall = eval.avg_max_tokens.round().max(1.0) as usize;
        let prefill_s = latency.prefill.predict(i);
        let decode_s = latency.decode.predict(i, o_wall);
        let avg_latency_s = prefill_s + decode_s;

        let energy_j =
            p_pre.predict(i as f64) * prefill_s + p_dec.predict(o_wall as f64) * decode_s;
        // Cost counts all generated tokens across parallel sequences.
        let gen_tokens = eval.avg_tokens_per_seq * opts.parallel as f64;
        let cost = self
            .config
            .cost
            .per_mtok(energy_j, avg_latency_s, gen_tokens.max(1.0));

        CellReport {
            model,
            precision: prec,
            bench,
            config,
            eval,
            avg_latency_s,
            avg_energy_j: energy_j,
            cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rig() -> Rig {
        Rig::new(RigConfig::default())
    }

    #[test]
    fn fitted_tbt_matches_paper_table_v() {
        let mut r = rig();
        let cases = [
            (ModelId::Dsr1Qwen1_5b, 0.024),
            (ModelId::Dsr1Llama8b, 0.092),
            (ModelId::Dsr1Qwen14b, 0.187),
        ];
        for (model, n_paper) in cases {
            let fitted = r.characterize_latency(model, Precision::Fp16);
            let rel = (fitted.decode.n / n_paper - 1.0).abs();
            assert!(
                rel < 0.18,
                "{model}: fitted n = {:.4} vs paper {n_paper} ({:.0}% off)",
                fitted.decode.n,
                rel * 100.0
            );
        }
    }

    #[test]
    fn latency_model_validates_with_low_mape() {
        let mut r = rig();
        let report = r.validate_latency(ModelId::Dsr1Qwen1_5b, Precision::Fp16, 50);
        // The paper reports <2% total MAPE; our simulator adds noise and
        // chunking, so allow a slightly wider band.
        assert!(report.total_pct < 5.0, "total MAPE {}", report.total_pct);
        assert!(report.decode_pct < 5.0, "decode MAPE {}", report.decode_pct);
        // Prefill is the hard part (padding steps): the paper itself sees
        // 7.6-13.4%.
        assert!(
            report.prefill_pct < 20.0,
            "prefill MAPE {}",
            report.prefill_pct
        );
    }

    #[test]
    fn cell_report_latency_close_to_paper_for_base_1_5b() {
        let mut r = rig();
        let report = r.cell_report(
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            Benchmark::MmluRedux,
            PromptConfig::Base,
            EvalOptions::default().with_subset(400),
        );
        // Table X: 18.92 s average latency, $0.024/1M tokens.
        assert!(
            (report.avg_latency_s / 18.92 - 1.0).abs() < 0.25,
            "latency {} vs 18.92",
            report.avg_latency_s
        );
        // Table X/XI costs are energy-only ("derived from energy
        // measurements"); hardware amortization is reported separately.
        assert!(
            report.cost.energy > 0.01 && report.cost.energy < 0.05,
            "energy cost {}",
            report.cost.energy
        );
    }

    #[test]
    fn characterization_is_cached() {
        let mut r = rig();
        let a = r.characterize_latency(ModelId::Dsr1Qwen1_5b, Precision::Fp16);
        let b = r.characterize_latency(ModelId::Dsr1Qwen1_5b, Precision::Fp16);
        assert_eq!(a, b);
    }

    #[test]
    fn decode_power_model_is_increasing_in_output() {
        let mut r = rig();
        let (_, dec) = r.characterize_power(ModelId::Dsr1Llama8b, Precision::Fp16);
        assert!(dec.predict(1024.0) >= dec.predict(64.0) * 0.95);
        let p = dec.predict(512.0);
        assert!((15.0..32.0).contains(&p), "8B decode power ~24 W, got {p}");
    }
}
