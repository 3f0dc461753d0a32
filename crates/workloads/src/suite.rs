//! Benchmark suites and their generators.

use edgereasoning_soc::rng::Rng;
use serde::{Deserialize, Serialize};

use crate::question::Question;

/// The three Natural-Plan planning tasks (paper Appendix B, Tables
/// XIII–XV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlanTask {
    /// Calendar scheduling.
    Calendar,
    /// Meeting planning.
    Meeting,
    /// Trip planning.
    Trip,
}

impl PlanTask {
    /// All three tasks in table order.
    pub const ALL: [PlanTask; 3] = [PlanTask::Calendar, PlanTask::Meeting, PlanTask::Trip];
}

impl std::fmt::Display for PlanTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanTask::Calendar => write!(f, "calendar"),
            PlanTask::Meeting => write!(f, "meeting"),
            PlanTask::Trip => write!(f, "trip"),
        }
    }
}

/// Skill domain a benchmark draws on; model capabilities are per-domain
/// (DeepScaleR's RL fine-tuning lifts math far above its general skill).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    /// Broad knowledge + reasoning (MMLU family).
    General,
    /// Competition mathematics (AIME, MATH500).
    Math,
    /// Constraint-satisfaction planning (Natural-Plan).
    Planning,
}

/// The benchmarks evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Benchmark {
    /// MMLU-Redux: 3 000 four-way multiple-choice questions (the paper's
    /// main evaluation set, Figs. 6–9 and Tables X/XI).
    MmluRedux,
    /// Full MMLU: 15 000 questions (Table XII).
    Mmlu,
    /// AIME 2024: 30 exact-answer competition math problems (Table III).
    Aime2024,
    /// MATH500: 500 exact-answer math problems (Table III).
    Math500,
    /// Natural-Plan planning tasks (Tables XIII–XV).
    NaturalPlan(PlanTask),
}

/// Distribution parameters of one benchmark's question population.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SuiteParams {
    /// Number of questions.
    pub count: u32,
    /// Mean difficulty (logit scale).
    pub difficulty_mean: f64,
    /// Difficulty standard deviation.
    pub difficulty_std: f64,
    /// `Some(n)` for n-way multiple choice.
    pub choices: Option<u8>,
    /// Mean prompt length, tokens.
    pub prompt_mean: f64,
    /// Prompt length standard deviation, tokens.
    pub prompt_std: f64,
    /// Skill domain.
    pub domain: Domain,
}

impl Benchmark {
    /// The suites used across the paper's tables.
    pub const ALL: [Benchmark; 7] = [
        Benchmark::MmluRedux,
        Benchmark::Mmlu,
        Benchmark::Aime2024,
        Benchmark::Math500,
        Benchmark::NaturalPlan(PlanTask::Calendar),
        Benchmark::NaturalPlan(PlanTask::Meeting),
        Benchmark::NaturalPlan(PlanTask::Trip),
    ];

    /// The benchmark's population parameters.
    pub fn params(self) -> SuiteParams {
        match self {
            Benchmark::MmluRedux => SuiteParams {
                count: 3000,
                difficulty_mean: 0.0,
                difficulty_std: 1.30,
                choices: Some(4),
                prompt_mean: 110.0,
                prompt_std: 35.0,
                domain: Domain::General,
            },
            Benchmark::Mmlu => SuiteParams {
                count: 15_000,
                difficulty_mean: -0.05,
                difficulty_std: 1.35,
                choices: Some(4),
                prompt_mean: 105.0,
                prompt_std: 35.0,
                domain: Domain::General,
            },
            Benchmark::Aime2024 => SuiteParams {
                count: 30,
                difficulty_mean: 3.0,
                difficulty_std: 1.0,
                choices: None,
                prompt_mean: 150.0,
                prompt_std: 40.0,
                domain: Domain::Math,
            },
            Benchmark::Math500 => SuiteParams {
                count: 500,
                difficulty_mean: 0.9,
                difficulty_std: 1.3,
                choices: None,
                prompt_mean: 120.0,
                prompt_std: 40.0,
                domain: Domain::Math,
            },
            Benchmark::NaturalPlan(task) => {
                let (mean, std, prompt) = match task {
                    PlanTask::Calendar => (3.8, 1.5, 900.0),
                    PlanTask::Meeting => (4.0, 1.5, 1100.0),
                    PlanTask::Trip => (5.3, 1.4, 1000.0),
                };
                SuiteParams {
                    count: 500,
                    difficulty_mean: mean,
                    difficulty_std: std,
                    choices: None,
                    prompt_mean: prompt,
                    prompt_std: 250.0,
                    domain: Domain::Planning,
                }
            }
        }
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> String {
        match self {
            Benchmark::MmluRedux => "MMLU-Redux".to_owned(),
            Benchmark::Mmlu => "MMLU".to_owned(),
            Benchmark::Aime2024 => "AIME2024".to_owned(),
            Benchmark::Math500 => "MATH500".to_owned(),
            Benchmark::NaturalPlan(t) => format!("Natural-Plan/{t}"),
        }
    }

    /// Generates the benchmark's questions deterministically from a seed.
    pub fn generate(self, seed: u64) -> Vec<Question> {
        self.generate_subset(seed, usize::MAX)
    }

    /// The first `n` questions of [`generate`](Self::generate) (the paper
    /// uses 150-question and 50-question subsets in Tables II and VI). The
    /// questions come from one sequential stream, so only the first
    /// `min(n, count)` are drawn, and they are bit-identical to the full
    /// set's prefix.
    pub fn generate_subset(self, seed: u64, n: usize) -> Vec<Question> {
        let p = self.params();
        let mut rng = Rng::seed_from_u64(seed ^ 0x5745_4c44 ^ (self.tag() << 32));
        (0..p.count)
            .take(n)
            .map(|idx| {
                let difficulty = rng.normal_with(p.difficulty_mean, p.difficulty_std);
                let u = rng.next_f64();
                // Most questions have weak attractor distractors; a tail of
                // "trick" questions concentrates failures on one answer.
                let trap_strength = 0.15 + 0.55 * u * u;
                let prompt_tokens = rng
                    .normal_with(p.prompt_mean, p.prompt_std)
                    .clamp(p.prompt_mean * 0.3, p.prompt_mean * 3.0)
                    .round() as usize;
                Question {
                    idx,
                    difficulty,
                    choices: p.choices,
                    trap_strength,
                    prompt_tokens: prompt_tokens.max(8),
                }
            })
            .collect()
    }

    fn tag(self) -> u64 {
        match self {
            Benchmark::MmluRedux => 1,
            Benchmark::Mmlu => 2,
            Benchmark::Aime2024 => 3,
            Benchmark::Math500 => 4,
            Benchmark::NaturalPlan(PlanTask::Calendar) => 5,
            Benchmark::NaturalPlan(PlanTask::Meeting) => 6,
            Benchmark::NaturalPlan(PlanTask::Trip) => 7,
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgereasoning_soc::stats;

    #[test]
    fn counts_match_paper() {
        assert_eq!(Benchmark::MmluRedux.generate(1).len(), 3000);
        assert_eq!(Benchmark::Mmlu.generate(1).len(), 15_000);
        assert_eq!(Benchmark::Aime2024.generate(1).len(), 30);
        assert_eq!(Benchmark::Math500.generate(1).len(), 500);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Benchmark::MmluRedux.generate(9);
        let b = Benchmark::MmluRedux.generate(9);
        assert_eq!(a, b);
        let c = Benchmark::MmluRedux.generate(10);
        assert_ne!(a, c);
    }

    #[test]
    fn difficulty_distribution_matches_params() {
        let qs = Benchmark::MmluRedux.generate(3);
        let ds: Vec<f64> = qs.iter().map(|q| q.difficulty).collect();
        let mean = stats::mean(&ds).unwrap();
        let std = stats::std_dev(&ds).unwrap();
        assert!(mean.abs() < 0.08, "mean {mean}");
        assert!((std - 1.30).abs() < 0.08, "std {std}");
    }

    #[test]
    fn math_benchmarks_are_exact_match() {
        assert!(Benchmark::Aime2024
            .generate(1)
            .iter()
            .all(|q| q.choices.is_none()));
        assert!(Benchmark::MmluRedux
            .generate(1)
            .iter()
            .all(|q| q.choices == Some(4)));
    }

    #[test]
    fn aime_is_much_harder_than_mmlu() {
        let aime = Benchmark::Aime2024.params();
        let mmlu = Benchmark::MmluRedux.params();
        assert!(aime.difficulty_mean > mmlu.difficulty_mean + 2.0);
    }

    #[test]
    fn planning_prompts_are_long() {
        let qs = Benchmark::NaturalPlan(PlanTask::Meeting).generate(2);
        let mean = stats::mean(
            &qs.iter()
                .map(|q| q.prompt_tokens as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert!(mean > 700.0, "planning prompts should be long, got {mean}");
    }

    #[test]
    fn subset_is_prefix() {
        let full = Benchmark::MmluRedux.generate(4);
        let sub = Benchmark::MmluRedux.generate_subset(4, 150);
        assert_eq!(sub.len(), 150);
        assert_eq!(&full[..150], &sub[..]);
    }

    #[test]
    fn distinct_benchmarks_have_distinct_questions() {
        let a = Benchmark::MmluRedux.generate(1);
        let b = Benchmark::Mmlu.generate(1);
        assert_ne!(a[0].difficulty, b[0].difficulty);
    }

    #[test]
    fn trap_strength_in_range() {
        for q in Benchmark::MmluRedux.generate(5) {
            assert!((0.15..=0.70).contains(&q.trap_strength));
        }
    }
}
