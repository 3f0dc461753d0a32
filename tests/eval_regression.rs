//! Regression suite for dataset evaluation (`models::evaluate`) and the
//! test-time-scaling sweep (`models::scaling::sweep_allocations`).
//!
//! Golden fingerprints freeze the `evaluate` results of every benchmark
//! over reasoning and non-reasoning models, both precisions, five prompt
//! configurations and four parallel scaling factors, so exact-match votes
//! at SF > 1 and W4A16 cells are pinned beside the multiple-choice cells
//! the committed CSVs cover. Any change to how a sample is drawn (RNG
//! draws, lognormal parameters, the length floor and cap), how a vote is
//! counted or tie-broken, or the summation order of the statistics shows
//! up as a changed hash.

use edgereasoning::kernels::arch::ModelId;
use edgereasoning::kernels::dtype::Precision;
use edgereasoning::models::evaluate::{evaluate, EvalOptions, EvalResult};
use edgereasoning::models::scaling::sweep_allocations;
use edgereasoning::workloads::prompt::PromptConfig;
use edgereasoning::workloads::suite::Benchmark;

/// FNV-1a over a value's `Debug` rendering. `Debug` prints every field and
/// floats in shortest round-trip form, so equal hashes mean bit-identical
/// values.
fn fingerprint<T: std::fmt::Debug>(value: &T) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The three DSR1 distills and one non-reasoning instruct model.
const MODELS: [ModelId; 4] = [
    ModelId::Dsr1Qwen1_5b,
    ModelId::Dsr1Llama8b,
    ModelId::Dsr1Qwen14b,
    ModelId::Qwen25_7bIt,
];
const PRECISIONS: [Precision; 2] = [Precision::Fp16, Precision::W4A16];
const CONFIGS: [PromptConfig; 5] = [
    PromptConfig::Base,
    PromptConfig::Soft(128),
    PromptConfig::NoReason,
    PromptConfig::Hard(128),
    PromptConfig::Hard(512),
];
/// Parallel scaling factors (samples per question, majority voted).
const SCALING_FACTORS: [usize; 4] = [1, 3, 8, 32];
/// Questions per cell: the first of each benchmark's fixed set.
const QUESTIONS: usize = 24;

/// `evaluate` over one benchmark's grid, in (model, precision, config,
/// scaling factor) order. Cells alternate between one and two worker
/// threads, so the per-worker sample buffers are exercised too.
fn bench_grid(bench: Benchmark) -> Vec<EvalResult> {
    let mut out = Vec::new();
    for model in MODELS {
        for prec in PRECISIONS {
            for config in CONFIGS {
                for parallel in SCALING_FACTORS {
                    let opts = EvalOptions::default()
                        .with_subset(QUESTIONS)
                        .with_parallel(parallel)
                        .with_threads(1 + out.len() % 2);
                    out.push(evaluate(model, prec, bench, config, opts));
                }
            }
        }
    }
    out
}

/// Fingerprints of [`bench_grid`], one per entry of `Benchmark::ALL`.
const GOLDEN_EVALUATE: [u64; 7] = [
    0xd257_3358_5ef1_a5c2, // MMLU-Redux
    0x311e_9ac1_2866_65fb, // MMLU
    0x5a60_31f1_0832_df21, // AIME2024
    0x6513_10cf_f8e1_9bb6, // MATH500
    0xe729_ad67_bc75_4690, // Natural-Plan calendar
    0x9f42_042a_772d_fa33, // Natural-Plan meeting
    0x81ed_91cd_3141_652b, // Natural-Plan trip
];

/// Fingerprints of `sweep_allocations` over a 1,024-token budget (1 to 32
/// chains) on MMLU-Redux and MATH500.
const GOLDEN_SWEEP: [u64; 2] = [
    0xb4e0_3538_10a6_48df, // MMLU-Redux
    0x1bad_bd42_6ef3_f01f, // MATH500
];

#[test]
fn evaluate_matches_its_golden_fingerprints() {
    let got: Vec<u64> = Benchmark::ALL
        .iter()
        .map(|&bench| fingerprint(&bench_grid(bench)))
        .collect();
    let pretty: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
    assert_eq!(got, GOLDEN_EVALUATE, "got [{}]", pretty.join(", "));
}

#[test]
fn sweep_allocations_matches_its_golden_fingerprints() {
    let got: Vec<u64> = [Benchmark::MmluRedux, Benchmark::Math500]
        .iter()
        .map(|&bench| {
            let points: Vec<_> = MODELS
                .iter()
                .flat_map(|&model| sweep_allocations(model, Precision::Fp16, bench, 1024, 40, 11))
                .collect();
            fingerprint(&points)
        })
        .collect();
    let pretty: Vec<String> = got.iter().map(|h| format!("{h:#018x}")).collect();
    assert_eq!(got, GOLDEN_SWEEP, "got [{}]", pretty.join(", "));
}
