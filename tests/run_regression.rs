//! Regression suite for standalone generations (`InferenceEngine::run`).
//!
//! Golden fingerprints freeze two back-to-back runs on one engine — their
//! outcomes or errors, and the engine's counters afterwards — over every
//! model, precision and serving stack, under plain, memory-pressured and
//! weathered engines. Any change to how a standalone generation is
//! executed, including its phase keys, RNG draws, float summation order,
//! plan-cache traffic and out-of-memory errors, shows up as a changed
//! hash. Governed engines are left out: their runs are pinned against the
//! continuous scheduler in the engine crate's `des_regression.rs`.

use edgereasoning::engine::engine::{EngineConfig, EngineKind, OomPolicy};
use edgereasoning::engine::request::GenerationRequest;
use edgereasoning::engine::SimEngine;
use edgereasoning::kernels::arch::ModelId;
use edgereasoning::kernels::dtype::Precision;
use edgereasoning::soc::faults::FaultSchedule;

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

const MODELS: [ModelId; 3] = [
    ModelId::Dsr1Qwen1_5b,
    ModelId::Dsr1Llama8b,
    ModelId::Dsr1Qwen14b,
];
const PRECISIONS: [Precision; 2] = [Precision::Fp16, Precision::W4A16];
const KINDS: [EngineKind; 3] = [EngineKind::Vllm, EngineKind::Hft, EngineKind::TrtLlm];

/// `(batch, prompt tokens, output tokens)` shapes the plain and weathered
/// columns cycle through, row by row.
const SHAPES: [(usize, usize, usize); 7] = [
    (1, 33, 17),
    (2, 128, 96),
    (4, 512, 256),
    (16, 64, 128),
    (1, 2048, 1024),
    (8, 256, 300),
    (3, 700, 513),
];

/// KV tokens beside the weights on the pressured engines: one sequence of
/// every pressured shape fits end to end; the out-of-memory and
/// preempting batches do not.
const KV_TOKENS: u64 = 1600;

/// Columns of the golden grid.
const COLUMNS: usize = 7;

/// An engine config for `model` at `prec` whose KV budget holds
/// `kv_tokens` tokens beside the weights.
fn pressured(
    kind: EngineKind,
    policy: OomPolicy,
    model: ModelId,
    prec: Precision,
    kv_tokens: u64,
) -> EngineConfig {
    let mut config = EngineConfig::for_kind(kind).with_oom_policy(policy);
    let arch = model.arch();
    let budget = arch.weight_bytes(prec) + kv_tokens * arch.kv_bytes_per_token();
    config.memory_budget_frac = budget as f64 / config.soc.gpu.dram_capacity as f64;
    config
}

/// Dense scripted weather (throttles, contention, mode drops and kernel
/// stalls every few seconds) with the engine positioned at a non-zero
/// clock inside it.
fn weathered(config: EngineConfig, seed: u64) -> SimEngine {
    let mut e = SimEngine::new(config, seed);
    e.set_fault_schedule(FaultSchedule::generate(seed ^ 0xfa, 20.0, 4000.0));
    e.set_clock_s(60.0 + 29.0 * seed as f64);
    e
}

/// The engine and request of golden cell `(row, col)`. Row
/// `6 * model + 3 * precision + kind`; columns:
///
/// 0. plain engine at `t = 0`;
/// 1. plain engine with the plan cache disabled;
/// 2. FailFast memory pressure that cannot hold the batch (out of memory);
/// 3. recompute preemption under the same pressure;
/// 4. plain engine under weather;
/// 5. FailFast pressure under weather, with a batch that fits;
/// 6. recompute preemption under pressure and weather.
fn golden_cell(row: usize, col: usize) -> (SimEngine, ModelId, Precision, GenerationRequest) {
    let model = MODELS[row / 6];
    let prec = PRECISIONS[row / 3 % 2];
    let kind = KINDS[row % 3];
    let seed = 1 + (row * COLUMNS + col) as u64;
    let shaped = |(batch, prompt, out): (usize, usize, usize)| {
        GenerationRequest::new(prompt, out).with_batch(batch)
    };
    let plain = || EngineConfig::for_kind(kind);
    let tight = |policy| pressured(kind, policy, model, prec, KV_TOKENS);
    let (engine, req) = match col {
        0 => (SimEngine::new(plain(), seed), shaped(SHAPES[row % 7])),
        1 => {
            let mut e = SimEngine::new(plain(), seed);
            e.set_cache_enabled(false);
            (e, shaped(SHAPES[(row + 1) % 7]))
        }
        2 => (
            SimEngine::new(tight(OomPolicy::FailFast), seed),
            shaped((8, 128, 128)),
        ),
        3 => (
            SimEngine::new(tight(OomPolicy::PreemptRecompute), seed),
            shaped((8, 128, 128)),
        ),
        4 => (weathered(plain(), seed), shaped(SHAPES[(row + 3) % 7])),
        5 => (
            weathered(tight(OomPolicy::FailFast), seed),
            shaped((2, 600, 150)),
        ),
        _ => (
            weathered(tight(OomPolicy::PreemptRecompute), seed),
            shaped((6, 200, 180)),
        ),
    };
    (engine, model, prec, req)
}

/// Marks a golden cell pinned by a dedicated test instead of a fingerprint.
const MOVED: u64 = 0;

/// Fingerprints of `(first run, second run, engine counters)` for every
/// golden cell: one row per model, precision and serving stack, one
/// column per engine setup (see [`golden_cell`]).
const GOLDEN: [[u64; COLUMNS]; 18] = [
    [
        0x3fbb_cecf_d9fb_0fbb,
        0x3c27_5380_cb3b_8706,
        0xb6e8_4050_abf4_30be,
        0x9b38_e00e_dbe2_6e3e,
        0x163d_7d17_60f6_5998,
        0xb4ff_1d9f_8426_000e,
        0x31fe_0cf3_cff6_7d52,
    ],
    [
        0xbdda_82a8_084b_ae3d,
        0x08a1_0048_3027_2c60,
        0xb6e8_4050_abf4_30be,
        0x2b4d_48c9_f469_40a1,
        0x1bc9_1455_afd5_8b39,
        0x517a_7fcc_79f9_e685,
        0xd98f_7ca7_2e40_f556,
    ],
    [
        0xa4ac_fe27_2089_43c3,
        0xf9ad_f02d_9c78_8375,
        0xb6e8_4050_abf4_30be,
        0xd356_4209_ead4_6a19,
        0x9e75_fc64_59bb_ea4c,
        0x3ecf_1546_b4b5_e941,
        MOVED, // see the engine's `kernel_stall_inserts_idle_time`
    ],
    [
        0xb6fc_c8ab_33c3_8d59,
        0x95e7_4117_b65f_d137,
        0xb6e8_4050_abf4_30be,
        0x2694_034c_2768_98c7,
        0x7517_01c7_147c_d93c,
        0x750f_2025_5d50_0c48,
        0x0052_d1d0_4559_c20d,
    ],
    [
        0x9bc5_5705_0074_3372,
        0xf041_c891_725a_f2e3,
        0xb6e8_4050_abf4_30be,
        0xa5a9_9a72_de50_d220,
        0x15e7_e2df_ccfe_5c99,
        0x8564_4ebc_4ba7_6049,
        0x6aad_c197_7c57_0ae6,
    ],
    [
        0xfafe_c152_1fd7_d757,
        0x3e1f_4d19_dada_b0fb,
        0xb6e8_4050_abf4_30be,
        0xb40f_e076_ebde_afb9,
        0xebd9_6f41_a122_4cb4,
        0xeb46_da8d_23f8_ac7d,
        0x5c58_e5b3_a5f8_92ed,
    ],
    [
        0x94f7_dcea_6816_e20a,
        0xd0b8_ef06_6650_3542,
        0x34e0_24d0_7427_1c36,
        0x0a9f_3e08_57e4_d709,
        0xd31a_3f3d_dc9e_fe19,
        0xc018_78e5_e225_b277,
        0x11e4_9c63_970c_fc39,
    ],
    [
        0xd799_3d5a_f536_1642,
        0x344f_fc82_72c0_6fa8,
        0x34e0_24d0_7427_1c36,
        0x38c5_361c_272b_11b0,
        0x7c60_895b_e836_0345,
        0x93f8_ea96_72e7_3060,
        0x45bc_6f65_d41e_af4c,
    ],
    [
        0x95a4_16b1_ef97_ee3f,
        0x86ea_e839_ab6e_02e6,
        0x34e0_24d0_7427_1c36,
        0xb4cd_d43b_5eb0_9634,
        0xcc30_6899_9ebe_3008,
        0x7364_0681_62c5_99e9,
        0x805f_74a6_4f75_7a17,
    ],
    [
        0xf04a_e88d_1de1_796f,
        0xf26e_0993_d8aa_60e1,
        0x34e0_24d0_7427_1c36,
        0xfbe0_b556_8a10_b40a,
        0x22c3_e703_8c87_414a,
        0x573b_9d42_0c7d_542d,
        0x7d4b_de1e_25d2_82b3,
    ],
    [
        0x761d_be7c_8dd1_e665,
        0xdee7_49c1_b7e9_0f30,
        0x34e0_24d0_7427_1c36,
        0x4e38_28d3_9128_c173,
        0x2a5d_cc45_d494_5fa9,
        0xd51a_cfbb_330b_b80a,
        0xbf67_d3a2_548a_c803,
    ],
    [
        0xb6aa_8038_3204_4ec9,
        0xf8e3_c88b_6647_7117,
        0x34e0_24d0_7427_1c36,
        0x7bcd_3e67_898b_6698,
        0xc248_5758_1c02_ebb5,
        0xc5e5_acdd_d409_e479,
        0x77ae_ad13_5e12_7880,
    ],
    [
        0xf0f2_2c89_6207_7ce4,
        0x1b9e_0ade_9a7e_c170,
        0xe7bc_3e67_8b0e_2eba,
        0x0fc4_20d1_a247_0cb9,
        0xe0fb_475a_2d5a_0463,
        0x149a_85a4_efd4_8004,
        MOVED, // see the engine's `kernel_stall_inserts_idle_time`
    ],
    [
        0x0f3b_9c16_788a_8657,
        0x0cb9_ba5d_8a9c_d721,
        0xe7bc_3e67_8b0e_2eba,
        0x7da4_efd9_a656_e683,
        0x379d_6c53_3df1_5888,
        0x6450_70e5_2e05_0046,
        0x0ddd_fb2d_de73_7352,
    ],
    [
        0xe262_60ef_5959_58fa,
        0x0620_4032_f285_aabf,
        0xe7bc_3e67_8b0e_2eba,
        0xded0_88a5_aaad_faeb,
        0xab91_ba45_ae26_4e30,
        0xf23e_1573_ff8c_ba8c,
        0x08bb_3d51_a71a_0351,
    ],
    [
        0xb89b_e66d_0ad0_f9c8,
        0xa4cc_30a6_f39a_3f15,
        0xe7bc_3e67_8b0e_2eba,
        0x3069_e1de_d807_cb05,
        0xe9de_3821_78cb_d441,
        0x3793_5f8e_259c_b6e2,
        0x9c5e_56fc_a34c_6316,
    ],
    [
        0x6c77_ee9e_d67d_2f31,
        0x1e28_2822_6594_477e,
        0xe7bc_3e67_8b0e_2eba,
        0x70e3_f2ca_4900_2049,
        0x1b3e_678b_0fb1_f826,
        0x3d66_3f8e_edb7_1b11,
        0x22d2_94fe_3f31_f958,
    ],
    [
        0x5dbd_493b_41ca_3792,
        0xd5b9_7ae8_82e8_2912,
        0xe7bc_3e67_8b0e_2eba,
        0x9551_4add_4309_80bb,
        0x5065_3aa8_d0d4_7139,
        0x2f54_6136_0564_e61e,
        0xeb40_e8de_ca8d_a557,
    ],
];

#[test]
fn runs_match_their_golden_fingerprints() {
    let mut mismatches = Vec::new();
    for (row, want) in GOLDEN.iter().enumerate() {
        for (col, &want) in want.iter().enumerate() {
            if want == MOVED {
                continue;
            }
            let (mut e, model, prec, req) = golden_cell(row, col);
            let first = e.run(model, prec, &req);
            let second = e.run(model, prec, &req);
            let got = fingerprint(&(first, second, e.counters()));
            if got != want {
                mismatches.push(format!("row {row} col {col}: {got:#018x} != {want:#018x}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}
