//! Per-question answer simulation (the stochastic "model under test").

use std::cell::RefCell;

use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_soc::rng::Rng;
use edgereasoning_workloads::prompt::PromptConfig;
use edgereasoning_workloads::question::Question;
use edgereasoning_workloads::suite::Benchmark;
use serde::{Deserialize, Serialize};

use crate::accuracy::{effective_law, AccuracyLaw};
use crate::profile::{output_profile, LengthSampler, OutputLenProfile};

/// The answer a sample produced, reduced to vote-equivalence classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnswerKey {
    /// The correct answer.
    Correct,
    /// The question's attractor distractor (systematic wrong answer shared
    /// across samples — what lets voting lock onto a wrong consensus).
    Trap,
    /// Some other wrong answer (id distinguishes vote buckets).
    Other(u32),
    /// No parseable answer (truncated mid-reasoning).
    None,
}

/// One sampled generation for one question.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnswerSample {
    /// Tokens actually emitted (after any hard truncation).
    pub tokens: f64,
    /// Whether generation completed naturally within the budget.
    pub completed: bool,
    /// The produced answer class.
    pub answer: AnswerKey,
}

impl AnswerSample {
    /// Whether this sample alone would be graded correct.
    pub fn is_correct(&self) -> bool {
        self.answer == AnswerKey::Correct
    }
}

/// Precomputed evaluation context for one (model, precision, benchmark,
/// config) cell — build once, sample many questions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalContext {
    /// Model under test.
    pub model: ModelId,
    /// Weight precision.
    pub precision: Precision,
    /// Benchmark being evaluated.
    pub bench: Benchmark,
    /// Prompting configuration.
    pub config: PromptConfig,
    /// Accuracy law with benchmark/quant skill adjustments folded in.
    pub law: AccuracyLaw,
    /// Output-length profile. [`EvalContext::new`] derives the sampler
    /// every [`EvalContext::sample`] draws from it.
    pub profile: OutputLenProfile,
    /// `profile`'s sampler, built once per cell.
    sampler: LengthSampler,
}

impl EvalContext {
    /// Builds the context for a cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell's profile has no valid lognormal
    /// (`natural_mean <= 0` or `cv < 0`).
    pub fn new(
        model: ModelId,
        precision: Precision,
        bench: Benchmark,
        config: PromptConfig,
    ) -> Self {
        let profile = output_profile(model, bench, config, precision);
        Self {
            model,
            precision,
            bench,
            config,
            law: effective_law(model, bench, precision),
            profile,
            sampler: profile.sampler(),
        }
    }

    /// Samples one generation for `q`.
    pub fn sample(&self, rng: &mut Rng, q: &Question) -> AnswerSample {
        let (tokens, completed) = self.sampler.emitted(rng);
        // Truncated generations usually lose the final answer.
        let answered = completed || rng.chance(self.law.salvage);
        if !answered {
            return AnswerSample {
                tokens,
                completed,
                answer: AnswerKey::None,
            };
        }
        let p_solve = self.law.solve_prob(tokens, q.difficulty);
        let answer = if rng.chance(p_solve) {
            AnswerKey::Correct
        } else if rng.chance(q.trap_mass()) {
            AnswerKey::Trap
        } else {
            match q.choices {
                // Failed multiple choice: pick among all options uniformly
                // (the guess floor); `Other` ids index the wrong options.
                Some(n) => {
                    let pick = rng.range_usize(n as usize);
                    if pick == 0 {
                        AnswerKey::Correct
                    } else {
                        AnswerKey::Other(pick as u32)
                    }
                }
                // Failed exact-match answers are effectively unique.
                None => AnswerKey::Other(rng.next_u64() as u32),
            }
        };
        AnswerSample {
            tokens,
            completed,
            answer,
        }
    }
}

/// Majority vote over parallel samples (the paper's §V-E aggregation).
/// `None` answers never receive votes; ties break toward the earliest
/// sample, mirroring a first-seen argmax. Returns `AnswerKey::None` when
/// no sample produced an answer.
///
/// Counts each answer at its first occurrence, in sample order, and
/// replaces the pick only on strictly more votes: no table, no allocation.
/// That costs at most k² key comparisons for k samples (an exact-match
/// vote whose every answer differs) and stops once no answer still unseen
/// could win.
pub fn majority_vote(samples: &[AnswerSample]) -> AnswerKey {
    let mut best = AnswerKey::None;
    let mut best_votes = 0;
    for (i, s) in samples.iter().enumerate() {
        // An answer first seen here has at most `len - i` votes; the pick
        // only changes on strictly more.
        if samples.len() - i <= best_votes {
            break;
        }
        let key = s.answer;
        if key == AnswerKey::None || samples[..i].iter().any(|p| p.answer == key) {
            continue;
        }
        let votes = 1 + samples[i + 1..].iter().filter(|p| p.answer == key).count();
        if votes > best_votes {
            best = key;
            best_votes = votes;
        }
    }
    best
}

/// Draws `k` samples of `q` into the calling thread's reusable buffer and
/// hands them to `f` in sample order, so a question's samples allocate
/// nothing once the buffer has grown to `k`.
///
/// # Panics
///
/// Panics if `f` draws again on the same thread (the buffer is borrowed).
pub(crate) fn with_samples<R>(
    ctx: &EvalContext,
    rng: &mut Rng,
    q: &Question,
    k: usize,
    f: impl FnOnce(&[AnswerSample]) -> R,
) -> R {
    thread_local! {
        static SAMPLES: RefCell<Vec<AnswerSample>> = const { RefCell::new(Vec::new()) };
    }
    SAMPLES.with_borrow_mut(|samples| {
        samples.clear();
        samples.extend((0..k).map(|_| ctx.sample(rng, q)));
        f(samples)
    })
}

/// The vote as a table of `(votes, first index)` per answer: the oracle
/// the differential test compares `majority_vote` against.
#[cfg(test)]
fn reference_majority_vote(samples: &[AnswerSample]) -> AnswerKey {
    use std::collections::HashMap;
    let mut counts: HashMap<AnswerKey, (usize, usize)> = HashMap::new(); // key -> (votes, first_idx)
    for (i, s) in samples.iter().enumerate() {
        if s.answer == AnswerKey::None {
            continue;
        }
        let e = counts.entry(s.answer).or_insert((0, i));
        e.0 += 1;
    }
    counts
        .into_iter()
        .max_by(|a, b| a.1 .0.cmp(&b.1 .0).then(b.1 .1.cmp(&a.1 .1)))
        .map(|(k, _)| k)
        .unwrap_or(AnswerKey::None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn question(difficulty: f64) -> Question {
        Question {
            idx: 0,
            difficulty,
            choices: Some(4),
            trap_strength: 0.3,
            prompt_tokens: 100,
        }
    }

    fn ctx(config: PromptConfig) -> EvalContext {
        EvalContext::new(
            ModelId::Dsr1Llama8b,
            Precision::Fp16,
            Benchmark::MmluRedux,
            config,
        )
    }

    #[test]
    fn easy_questions_are_usually_solved() {
        let c = ctx(PromptConfig::Base);
        let mut rng = Rng::seed_from_u64(1);
        let q = question(-4.0);
        let correct = (0..1000)
            .filter(|_| c.sample(&mut rng, &q).is_correct())
            .count();
        assert!(correct > 900, "easy question solved {correct}/1000");
    }

    #[test]
    fn impossible_questions_hit_the_guess_floor() {
        let c = ctx(PromptConfig::Base);
        let mut rng = Rng::seed_from_u64(2);
        let q = question(12.0);
        let correct = (0..4000)
            .filter(|_| c.sample(&mut rng, &q).is_correct())
            .count();
        let rate = correct as f64 / 4000.0;
        // Guess floor = (1 - trap) / 4 = 0.175.
        assert!((rate - 0.175).abs() < 0.03, "guess rate {rate}");
    }

    #[test]
    fn truncated_samples_lose_their_answer() {
        let c = ctx(PromptConfig::Hard(128));
        let mut rng = Rng::seed_from_u64(3);
        let q = question(0.0);
        let mut truncated_unanswered = 0;
        let mut truncated = 0;
        for _ in 0..4000 {
            let s = c.sample(&mut rng, &q);
            if !s.completed {
                truncated += 1;
                if s.answer == AnswerKey::None {
                    truncated_unanswered += 1;
                }
            }
        }
        assert!(truncated > 250, "hard-128 must truncate often: {truncated}");
        let frac = truncated_unanswered as f64 / truncated as f64;
        assert!((frac - 0.9).abs() < 0.05, "salvage rate off: {frac}");
    }

    #[test]
    fn majority_vote_amplifies_a_plurality() {
        use AnswerKey::*;
        let mk = |answer| AnswerSample {
            tokens: 100.0,
            completed: true,
            answer,
        };
        assert_eq!(
            majority_vote(&[mk(Correct), mk(Trap), mk(Correct), mk(Other(1))]),
            Correct
        );
        assert_eq!(majority_vote(&[mk(None), mk(None)]), None);
        // Tie breaks toward the earlier sample.
        assert_eq!(majority_vote(&[mk(Trap), mk(Correct)]), Trap);
    }

    /// Vectors each differential case checks: the vendored runner runs 64
    /// cases per property, so 64 × 24 = 1,536 vectors in all.
    const VOTES_PER_CASE: usize = 24;

    proptest! {
        /// The table-free vote picks what the hash-map vote picks, on
        /// vectors of 0–40 samples drawn three ways: keys from a 3-key
        /// alphabet (forcing ties), random `Other` keys (all distinct), and
        /// either with `None` mixed in, all-`None` vectors included.
        #[test]
        fn table_free_vote_matches_the_hash_map_vote(seed in 0u64..u64::MAX) {
            use AnswerKey::*;
            let mut rng = Rng::seed_from_u64(seed);
            for case in 0..VOTES_PER_CASE {
                let len = rng.range_usize(41);
                // Cases cycle through {3-key, distinct} × {no None, mixed, all None}.
                let none_p = match case % 3 {
                    0 => 0.0,
                    1 => rng.next_f64(),
                    _ => 1.0,
                };
                let samples: Vec<AnswerSample> = (0..len)
                    .map(|_| {
                        let answer = if rng.chance(none_p) {
                            None
                        } else if case % 6 < 3 {
                            [Correct, Trap, Other(1)][rng.range_usize(3)]
                        } else {
                            Other(rng.next_u64() as u32)
                        };
                        AnswerSample { tokens: 1.0, completed: true, answer }
                    })
                    .collect();
                let (got, want) = (majority_vote(&samples), reference_majority_vote(&samples));
                prop_assert!(got == want, "{:?} != {:?} on {:?}", got, want, samples);
            }
        }
    }

    #[test]
    fn cell_sampler_draws_what_lognormal_mean_std_draws() {
        let mut configs = PromptConfig::REASONING_SWEEP.to_vec();
        configs.push(PromptConfig::Hard(512));
        // A hand-built profile whose draws hit both the floor and the cap.
        let tiny = OutputLenProfile {
            natural_mean: 6.0,
            cv: 0.9,
            hard_cap: Some(9),
        };
        let mut profiles = vec![(tiny, None)];
        for model in ModelId::ALL {
            for bench in Benchmark::ALL {
                for &config in &configs {
                    for prec in [Precision::Fp16, Precision::W4A16] {
                        // Builds the sampler, as `predict` does for every cell.
                        let ctx = EvalContext::new(model, prec, bench, config);
                        assert_eq!(ctx.sampler, ctx.profile.sampler());
                        profiles.push((ctx.profile, Some(ctx)));
                    }
                }
            }
        }
        assert_eq!(profiles.len(), 1 + 10 * 7 * 7 * 2);
        let (mut floored, mut capped) = (0, 0);
        for (i, (p, ctx)) in profiles.iter().enumerate() {
            let sampler = ctx.map_or_else(|| p.sampler(), |c| c.sampler);
            let mut reference = Rng::seed_from_u64(i as u64);
            let mut natural = reference.clone();
            let mut emitted = reference.clone();
            for _ in 0..1000 {
                let raw = reference.lognormal_mean_std(p.natural_mean, p.cv * p.natural_mean);
                let want = raw.max(4.0);
                floored += usize::from(raw < 4.0);
                let want_emitted = match p.hard_cap {
                    Some(cap) if want > cap as f64 => (cap as f64, false),
                    _ => (want, true),
                };
                capped += usize::from(!want_emitted.1);
                assert_eq!(sampler.natural(&mut natural).to_bits(), want.to_bits());
                let (tokens, completed) = sampler.emitted(&mut emitted);
                assert_eq!(
                    (tokens.to_bits(), completed),
                    (want_emitted.0.to_bits(), want_emitted.1)
                );
            }
        }
        assert!(floored > 0 && capped > 0, "floor {floored}, cap {capped}");
    }

    #[test]
    fn voting_improves_accuracy_on_mid_difficulty_questions() {
        let c = ctx(PromptConfig::Hard(128));
        let mut rng = Rng::seed_from_u64(4);
        let q = question(-0.5);
        let single = (0..2000)
            .filter(|_| c.sample(&mut rng, &q).is_correct())
            .count() as f64
            / 2000.0;
        let voted = (0..2000)
            .filter(|_| {
                let samples: Vec<_> = (0..8).map(|_| c.sample(&mut rng, &q)).collect();
                majority_vote(&samples) == AnswerKey::Correct
            })
            .count() as f64
            / 2000.0;
        assert!(
            voted > single + 0.05,
            "8-way voting should amplify: single {single:.3}, voted {voted:.3}"
        );
    }

    #[test]
    fn exact_match_failures_never_guess_right() {
        let c = EvalContext::new(
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            Benchmark::Aime2024,
            PromptConfig::Base,
        );
        let mut rng = Rng::seed_from_u64(5);
        let q = Question {
            idx: 0,
            difficulty: 30.0,
            choices: None,
            trap_strength: 0.2,
            prompt_tokens: 150,
        };
        let correct = (0..2000)
            .filter(|_| c.sample(&mut rng, &q).is_correct())
            .count();
        assert_eq!(correct, 0, "exact match has no guess floor");
    }
}
