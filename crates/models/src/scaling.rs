//! Test-time-scaling analysis: sequential vs parallel compute allocation
//! (paper §V-C/§V-E).
//!
//! The paper notes that sequential scaling (longer chains) saturates past
//! ≈300–400 tokens, "suggesting where parallel scaling may surpass
//! sequential scaling for accuracy gains". This module makes that
//! comparison explicit: for a fixed total token budget `B`, is accuracy
//! higher spending it on one chain of `B` tokens or on `k` voted chains of
//! `B/k` tokens?

use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_soc::rng::Rng;
use edgereasoning_workloads::prompt::PromptConfig;
use edgereasoning_workloads::suite::Benchmark;
use serde::{Deserialize, Serialize};

use crate::generate::{majority_vote, with_samples, AnswerKey, EvalContext};

/// Accuracy of allocating a total token budget across `k` parallel voted
/// chains (Monte Carlo over the benchmark's questions).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AllocationPoint {
    /// Parallel chains.
    pub parallel: usize,
    /// Hard budget per chain, tokens.
    pub per_chain_budget: u32,
    /// Voted accuracy, percent.
    pub accuracy_pct: f64,
}

/// Sweeps allocations of `total_budget` tokens over 1, 2, 4, … chains
/// (power-of-two splits with per-chain budget ≥ 32 tokens).
///
/// # Panics
///
/// Panics if `questions == 0`: every split's accuracy would be 0/0.
pub fn sweep_allocations(
    model: ModelId,
    prec: Precision,
    bench: Benchmark,
    total_budget: u32,
    questions: usize,
    seed: u64,
) -> Vec<AllocationPoint> {
    assert!(
        questions > 0,
        "an allocation sweep needs at least one question"
    );
    let qs = bench.generate_subset(seed, questions);
    let mut out = Vec::new();
    let mut k = 1usize;
    while total_budget / k as u32 >= 32 {
        let per_chain = total_budget / k as u32;
        let ctx = EvalContext::new(model, prec, bench, PromptConfig::Hard(per_chain));
        let mut rng = Rng::seed_from_u64(seed ^ (k as u64) << 8);
        let correct = qs
            .iter()
            .filter(|q| {
                with_samples(&ctx, &mut rng, q, k, |samples| {
                    majority_vote(samples) == AnswerKey::Correct
                })
            })
            .count();
        out.push(AllocationPoint {
            parallel: k,
            per_chain_budget: per_chain,
            accuracy_pct: 100.0 * correct as f64 / qs.len() as f64,
        });
        k *= 2;
    }
    out
}

/// The best allocation for a total budget, and whether it is parallel.
pub fn best_allocation(points: &[AllocationPoint]) -> Option<&AllocationPoint> {
    points
        .iter()
        .max_by(|a, b| a.accuracy_pct.total_cmp(&b.accuracy_pct))
}

/// Finds the total-budget crossover below/above which sequential (k=1)
/// stops being optimal: returns the smallest swept budget at which a
/// parallel allocation beats the sequential one.
///
/// # Panics
///
/// Panics if `questions == 0` and `budgets` is not empty (see
/// [`sweep_allocations`]).
pub fn sequential_parallel_crossover(
    model: ModelId,
    prec: Precision,
    bench: Benchmark,
    budgets: &[u32],
    questions: usize,
    seed: u64,
) -> Option<u32> {
    budgets.iter().copied().find(|&b| {
        let points = sweep_allocations(model, prec, bench, b, questions, seed);
        match (points.first(), best_allocation(&points)) {
            (Some(seq), Some(best)) => best.parallel > 1 && best.accuracy_pct > seq.accuracy_pct,
            _ => false,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_halves_budgets() {
        let pts = sweep_allocations(
            ModelId::Dsr1Qwen14b,
            Precision::Fp16,
            Benchmark::MmluRedux,
            512,
            300,
            3,
        );
        assert_eq!(pts[0].parallel, 1);
        assert_eq!(pts[0].per_chain_budget, 512);
        assert_eq!(pts[1].parallel, 2);
        assert_eq!(pts[1].per_chain_budget, 256);
        assert!(pts.len() >= 4);
    }

    /// Past the saturation point, splitting a large budget into voted
    /// chains beats one long chain (the paper's §V-C inflection claim).
    #[test]
    fn large_budgets_favor_parallel() {
        let pts = sweep_allocations(
            ModelId::Dsr1Qwen14b,
            Precision::Fp16,
            Benchmark::MmluRedux,
            4096,
            800,
            5,
        );
        let seq = pts[0].accuracy_pct;
        let best = best_allocation(&pts).expect("non-empty");
        assert!(
            best.parallel > 1 && best.accuracy_pct > seq,
            "4k tokens should be better split: seq {seq:.1}%, best {}x {:.1}%",
            best.parallel,
            best.accuracy_pct
        );
    }

    /// Tiny budgets must stay sequential: halving an already-truncating
    /// budget destroys answers faster than voting can recover.
    #[test]
    fn small_budgets_stay_sequential() {
        let pts = sweep_allocations(
            ModelId::Dsr1Qwen14b,
            Precision::Fp16,
            Benchmark::MmluRedux,
            128,
            800,
            5,
        );
        let seq = pts[0].accuracy_pct;
        for p in &pts[1..] {
            assert!(
                p.accuracy_pct < seq + 2.0,
                "splitting 128 tokens should not help: {p:?} vs seq {seq:.1}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one question")]
    fn zero_questions_panics() {
        let _ = sweep_allocations(
            ModelId::Dsr1Qwen14b,
            Precision::Fp16,
            Benchmark::MmluRedux,
            512,
            0,
            3,
        );
    }

    #[test]
    fn crossover_exists_between_small_and_large() {
        let c = sequential_parallel_crossover(
            ModelId::Dsr1Qwen14b,
            Precision::Fp16,
            Benchmark::MmluRedux,
            &[128, 512, 2048, 4096],
            400,
            7,
        );
        assert!(c.is_some(), "a crossover budget must exist");
        assert!(c.expect("checked") > 128);
    }
}
