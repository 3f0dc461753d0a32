//! Output-length behaviour profiles.
//!
//! How many reasoning tokens a model emits is the central behavioural
//! variable of the study: it couples accuracy (sequential test-time
//! scaling) to latency, energy and cost. Profiles are lognormal
//! distributions whose *observed* means are taken from the paper's
//! published per-configuration tables; under hard budgets the underlying
//! natural length is recovered by inverting `E[min(L, T)] = observed`.

use edgereasoning_kernels::arch::{ModelFamily, ModelId};
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_soc::rng::{lognormal_mu_sigma, Rng};
use edgereasoning_soc::stats::normal_cdf;
use edgereasoning_workloads::prompt::PromptConfig;
use edgereasoning_workloads::suite::{Benchmark, Domain};
use serde::{Deserialize, Serialize};

use crate::anchors;

/// Lognormal output-length distribution for one (model, benchmark, config,
/// precision) cell.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutputLenProfile {
    /// Mean of the *natural* (pre-truncation) length distribution, tokens.
    pub natural_mean: f64,
    /// Coefficient of variation of the natural length.
    pub cv: f64,
    /// Hard decode cap, if the config truncates.
    pub hard_cap: Option<u32>,
}

impl OutputLenProfile {
    /// The profile's sampler, with the lognormal parameters derived once:
    /// build it once per cell when drawing many lengths.
    ///
    /// # Panics
    ///
    /// Panics if `natural_mean <= 0` or `cv < 0`.
    pub(crate) fn sampler(&self) -> LengthSampler {
        // The `(mean, std)` pair, not `lognormal_params(natural_mean, cv)`:
        // that squares `cv` itself, which can differ from `(cv·m / m)²` in
        // the last bit and would move every draw.
        let (mu, sigma) = lognormal_mu_sigma(self.natural_mean, self.cv * self.natural_mean);
        LengthSampler {
            mu,
            sigma,
            hard_cap: self.hard_cap,
        }
    }

    /// Samples one natural length (≥ 4 tokens, before any truncation).
    pub fn sample_natural(&self, rng: &mut Rng) -> f64 {
        self.sampler().natural(rng)
    }

    /// Samples an emitted length (after hard truncation) along with
    /// whether generation completed naturally within the cap.
    pub fn sample_emitted(&self, rng: &mut Rng) -> (f64, bool) {
        self.sampler().emitted(rng)
    }

    /// Expected emitted length `E[min(L, cap)]`.
    pub fn expected_emitted(&self) -> f64 {
        match self.hard_cap {
            None => self.natural_mean,
            Some(cap) => expected_min(self.natural_mean, self.cv, cap as f64),
        }
    }

    /// Probability that generation completes within the cap.
    pub fn completion_prob(&self) -> f64 {
        match self.hard_cap {
            None => 1.0,
            Some(cap) => {
                let (mu, sigma) = lognormal_params(self.natural_mean, self.cv);
                normal_cdf(((cap as f64).ln() - mu) / sigma)
            }
        }
    }
}

/// Draws output lengths of one cell: the [`OutputLenProfile`]'s lognormal
/// with its `(mu, sigma)` derived once, the 4-token floor and the hard cap.
/// A draw equals, bit for bit,
/// `rng.lognormal_mean_std(natural_mean, cv * natural_mean).max(4.0)`
/// (then capped) from the same generator state.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct LengthSampler {
    mu: f64,
    sigma: f64,
    hard_cap: Option<u32>,
}

impl LengthSampler {
    /// Samples one natural length (≥ 4 tokens, before any truncation).
    #[inline]
    pub(crate) fn natural(&self, rng: &mut Rng) -> f64 {
        rng.lognormal(self.mu, self.sigma).max(4.0)
    }

    /// Samples an emitted length (after hard truncation) along with
    /// whether generation completed naturally within the cap.
    #[inline]
    pub(crate) fn emitted(&self, rng: &mut Rng) -> (f64, bool) {
        let natural = self.natural(rng);
        match self.hard_cap {
            Some(cap) if natural > cap as f64 => (cap as f64, false),
            _ => (natural, true),
        }
    }
}

/// Converts (mean, cv) to the underlying normal's (mu, sigma).
pub fn lognormal_params(mean: f64, cv: f64) -> (f64, f64) {
    let sigma2 = (1.0 + cv * cv).ln();
    (mean.ln() - 0.5 * sigma2, sigma2.sqrt().max(1e-9))
}

/// `E[min(L, cap)]` for `L ~ lognormal(mean, cv)`.
pub fn expected_min(mean: f64, cv: f64, cap: f64) -> f64 {
    let (mu, sigma) = lognormal_params(mean, cv);
    let a = (cap.ln() - mu) / sigma;
    mean * normal_cdf(a - sigma) + cap * (1.0 - normal_cdf(a))
}

/// Recovers the natural mean whose truncated expectation matches an
/// observed mean under a hard cap (bisection; the observed mean must lie
/// below the cap or the natural mean is unbounded — clamped to 8× cap).
pub fn natural_mean_for_observed(observed: f64, cv: f64, cap: f64) -> f64 {
    if observed >= cap * 0.995 {
        return cap * 8.0;
    }
    let (mut lo, mut hi) = (observed * 0.5, cap * 8.0);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if expected_min(mid, cv, cap) < observed {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Default coefficient of variation per config class.
fn default_cv(config: PromptConfig) -> f64 {
    match config {
        PromptConfig::Base => 0.60,
        PromptConfig::Soft(_) => 0.60,
        PromptConfig::Hard(_) => 0.50,
        PromptConfig::NoReason => 0.45,
        PromptConfig::Direct => 0.40,
    }
}

/// The observed mean emitted tokens for a cell: published value when the
/// paper reports it, otherwise a documented heuristic extrapolation.
pub fn observed_mean_tokens(
    model: ModelId,
    bench: Benchmark,
    config: PromptConfig,
    prec: Precision,
) -> f64 {
    if let Some(r) = anchors::find(model, bench, config, prec) {
        return r.avg_tokens;
    }
    // Quantized cells fall back to the FP16 behaviour of the same config.
    if prec == Precision::W4A16 {
        if let Some(r) = anchors::find(model, bench, config, Precision::Fp16) {
            return r.avg_tokens;
        }
    }
    let base = base_mean_tokens(model, bench);
    match config {
        PromptConfig::Base => base,
        // Soft limits roughly halve output relative to Base (§V-B) but
        // overshoot the stated budget severalfold.
        PromptConfig::Soft(n) => (base * 0.5).max(n as f64 * 1.5),
        // Hard budgets: models attempt to comply; observed ≈ 0.65 × cap.
        PromptConfig::Hard(n) => (n as f64 * 0.65).min(base),
        // NR cuts output to roughly a quarter of Base.
        PromptConfig::NoReason => (base * 0.25).clamp(150.0, 300.0),
        PromptConfig::Direct => direct_mean_tokens(bench),
    }
}

/// Base-config mean tokens for cells without a published value.
fn base_mean_tokens(model: ModelId, bench: Benchmark) -> f64 {
    if let Some(r) = anchors::find(model, bench, PromptConfig::Base, Precision::Fp16) {
        return r.avg_tokens;
    }
    let redux = anchors::find(
        model,
        Benchmark::MmluRedux,
        PromptConfig::Base,
        Precision::Fp16,
    )
    .map(|r| r.avg_tokens);
    match bench.params().domain {
        // Math reasoning chains are far longer than MMLU's (the paper's
        // AIME profiling: ~6.5k tokens/question for DeepScaleR-1.5B).
        Domain::Math => match bench {
            Benchmark::Aime2024 => 6520.0,
            _ => 2800.0,
        },
        Domain::Planning => 2500.0,
        Domain::General => redux.unwrap_or(match model.family() {
            ModelFamily::Direct => 50.0,
            ModelFamily::L1 => 312.6,
            _ => 800.0,
        }),
    }
}

fn direct_mean_tokens(bench: Benchmark) -> f64 {
    match bench.params().domain {
        Domain::General => 50.0,
        Domain::Math => 600.0,
        Domain::Planning => 220.0,
    }
}

/// Builds the output-length profile for a cell.
pub fn output_profile(
    model: ModelId,
    bench: Benchmark,
    config: PromptConfig,
    prec: Precision,
) -> OutputLenProfile {
    let observed = observed_mean_tokens(model, bench, config, prec);
    let cv = default_cv(config);
    // L1 genuinely adheres to budgets (RL fine-tuned): its outputs stay
    // far below the cap, so no truncation pressure exists.
    let adheres = model.family() == ModelFamily::L1;
    // Some published cells report observed means at or above the nominal
    // cap (e.g. 14B on full MMLU emits 193 tokens under "128T"), meaning
    // the budget was not strictly enforced in that run; model them as
    // untruncated.
    let unenforced = config
        .max_decode_tokens()
        .is_some_and(|cap| observed >= 0.98 * cap as f64);
    let anchored = anchors::find(model, bench, config, prec).is_some()
        || (prec == Precision::W4A16
            && anchors::find(model, bench, config, Precision::Fp16).is_some());
    match config.max_decode_tokens() {
        Some(_) if unenforced => OutputLenProfile {
            natural_mean: observed,
            cv,
            hard_cap: None,
        },
        // Unanchored hard budgets: model the *natural* length directly.
        // A chain-of-thought answer needs ~100 tokens minimum; below that
        // cap nearly every generation truncates — real models cannot
        // comply with a 32-token reasoning budget, they just get cut.
        Some(cap) if !adheres && !anchored => OutputLenProfile {
            natural_mean: (0.8 * cap as f64).max(100.0),
            cv,
            hard_cap: Some(cap),
        },
        Some(cap) if !adheres => {
            let natural = natural_mean_for_observed(observed, cv, cap as f64);
            OutputLenProfile {
                natural_mean: natural,
                cv,
                hard_cap: Some(cap),
            }
        }
        Some(cap) => OutputLenProfile {
            natural_mean: observed,
            cv: 0.30,
            hard_cap: Some(cap),
        },
        None => OutputLenProfile {
            natural_mean: observed,
            cv,
            hard_cap: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_min_below_both_mean_and_cap() {
        let e = expected_min(150.0, 0.5, 128.0);
        // Below the cap, hence also below the (larger) natural mean.
        assert!(e < 128.0, "E[min] = {e}");
    }

    #[test]
    fn natural_mean_inversion_round_trips() {
        for (obs, cap) in [(91.5, 128.0), (76.3, 128.0), (112.9, 256.0)] {
            let nat = natural_mean_for_observed(obs, 0.5, cap);
            let back = expected_min(nat, 0.5, cap);
            assert!((back - obs).abs() < 0.5, "obs {obs}: nat {nat} -> {back}");
        }
    }

    #[test]
    fn published_cells_reproduce_observed_means() {
        // Hard-budget cell: observed mean must match Table XI after
        // truncation, by construction.
        let p = output_profile(
            ModelId::Dsr1Qwen1_5b,
            Benchmark::MmluRedux,
            PromptConfig::Hard(128),
            Precision::Fp16,
        );
        assert!((p.expected_emitted() - 91.5).abs() < 1.0);
        assert!(p.completion_prob() < 0.95, "some generations must truncate");
        // Unconstrained cell: observed = natural.
        let b = output_profile(
            ModelId::Dsr1Qwen14b,
            Benchmark::MmluRedux,
            PromptConfig::Base,
            Precision::Fp16,
        );
        assert_eq!(b.natural_mean, 1317.8);
    }

    #[test]
    fn sampling_respects_hard_cap() {
        let p = output_profile(
            ModelId::Dsr1Llama8b,
            Benchmark::MmluRedux,
            PromptConfig::Hard(128),
            Precision::Fp16,
        );
        let mut rng = Rng::seed_from_u64(5);
        let mut truncated = 0;
        const N: usize = 4000;
        let mut sum = 0.0;
        for _ in 0..N {
            let (len, complete) = p.sample_emitted(&mut rng);
            assert!(len <= 128.0);
            if !complete {
                truncated += 1;
            }
            sum += len;
        }
        assert!(truncated > 0);
        let mean = sum / N as f64;
        assert!(
            (mean - 76.3).abs() < 4.0,
            "sampled mean {mean} vs observed 76.3"
        );
    }

    #[test]
    fn l1_adheres_without_truncation_pressure() {
        let p = output_profile(
            ModelId::L1Max,
            Benchmark::MmluRedux,
            PromptConfig::Hard(256),
            Precision::Fp16,
        );
        // Table XI: L1 emits ~49 tokens under a 256 budget.
        assert!(p.natural_mean < 60.0);
        assert!(p.completion_prob() > 0.99);
    }

    #[test]
    fn quant_falls_back_to_fp16_for_unpublished_cells() {
        let fp = observed_mean_tokens(
            ModelId::Dsr1Llama8b,
            Benchmark::MmluRedux,
            PromptConfig::NoReason,
            Precision::Fp16,
        );
        let w4 = observed_mean_tokens(
            ModelId::Dsr1Llama8b,
            Benchmark::MmluRedux,
            PromptConfig::NoReason,
            Precision::W4A16,
        );
        assert_eq!(fp, w4);
    }

    #[test]
    fn heuristic_configs_are_ordered() {
        // For a model with published Base only, Hard(128) < NR < Base.
        let base = observed_mean_tokens(
            ModelId::DeepScaleR1_5b,
            Benchmark::MmluRedux,
            PromptConfig::Base,
            Precision::Fp16,
        );
        let nr = observed_mean_tokens(
            ModelId::DeepScaleR1_5b,
            Benchmark::MmluRedux,
            PromptConfig::NoReason,
            Precision::Fp16,
        );
        let hard = observed_mean_tokens(
            ModelId::DeepScaleR1_5b,
            Benchmark::MmluRedux,
            PromptConfig::Hard(128),
            Precision::Fp16,
        );
        assert!(hard < nr && nr < base, "{hard} < {nr} < {base}");
    }

    #[test]
    fn math_chains_are_long() {
        let aime = observed_mean_tokens(
            ModelId::DeepScaleR1_5b,
            Benchmark::Aime2024,
            PromptConfig::Base,
            Precision::Fp16,
        );
        assert!((aime - 6520.0).abs() < 1.0);
    }
}
