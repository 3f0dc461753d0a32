//! Regression suite for gang-scheduled serving (`simulate_serving`).
//!
//! Golden fingerprints freeze the report and the governor's statistics of
//! gang-scheduled runs over two models, six engines, five loads and two
//! arrival rates each: a drained rate, where every batch finds the device
//! idle, and a loaded one, where queries queue behind the running batch.
//! Any change to how a gang-scheduled run admits, sheds, retries, degrades
//! or books its queries shows up as a changed hash. Engine counters are
//! left out, as are battery-powered engines: both are pinned elsewhere
//! (`des_regression.rs` in the engine crate).

use edgereasoning::engine::engine::{EngineConfig, OomPolicy};
use edgereasoning::engine::serving::{simulate_serving, ServingConfig};
use edgereasoning::engine::SimEngine;
use edgereasoning::kernels::arch::ModelId;
use edgereasoning::kernels::dtype::Precision;
use edgereasoning::soc::faults::FaultSchedule;
use edgereasoning::soc::thermal::{GovernanceConfig, ThermalConfig};

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

/// Models of the golden grid, each with its `(drained, loaded)` arrival
/// rates in queries per second.
const MODELS: [(ModelId, [f64; 2]); 2] = [
    (ModelId::Dsr1Qwen1_5b, [0.1, 2.0]),
    (ModelId::Dsr1Llama8b, [0.02, 0.4]),
];

/// Engines per model (rows of the golden grid).
const ENGINES: usize = 6;

/// Columns of the golden grid: five loads at two rates.
const COLUMNS: usize = 10;

/// Run seeds, cycled cell by cell.
const SEEDS: [u64; 3] = [1, 7, 42];

/// An engine config for `model` whose KV budget holds `kv_tokens` tokens
/// beside the weights.
fn pressured(policy: OomPolicy, model: ModelId, kv_tokens: u64) -> EngineConfig {
    let mut config = EngineConfig::vllm().with_oom_policy(policy);
    let arch = model.arch();
    let budget = arch.weight_bytes(Precision::Fp16) + kv_tokens * arch.kv_bytes_per_token();
    config.memory_budget_frac = budget as f64 / config.soc.gpu.dram_capacity as f64;
    config
}

/// A governor with a small thermal mass and a 42 °C trip point, so a few
/// minutes of decode throttle the die.
fn hot_governor() -> GovernanceConfig {
    GovernanceConfig {
        thermal: ThermalConfig {
            c_j_per_c: 8.6,
            ..ThermalConfig::default()
        },
        ..GovernanceConfig::default()
    }
    .with_trip(42.0, 38.0)
}

/// The engines of the golden grid:
///
/// 0. plain;
/// 1. FailFast memory pressure at 1,600 KV tokens;
/// 2. recompute preemption at 1,600 KV tokens;
/// 3. a thermal governor that throttles mid-run;
/// 4. scripted fault weather;
/// 5. recompute preemption at 1,000 KV tokens under that weather.
fn golden_engine(variant: usize, model: ModelId, seed: u64) -> SimEngine {
    let weather = || FaultSchedule::generate(seed ^ 0xfa, 2.0, 3600.0);
    match variant {
        0 => SimEngine::new(EngineConfig::vllm(), seed),
        1 => SimEngine::new(pressured(OomPolicy::FailFast, model, 1600), seed),
        2 => SimEngine::new(pressured(OomPolicy::PreemptRecompute, model, 1600), seed),
        3 => SimEngine::new(EngineConfig::vllm().with_governance(hot_governor()), seed),
        4 => {
            let mut e = SimEngine::new(EngineConfig::vllm(), seed);
            e.set_fault_schedule(weather());
            e
        }
        _ => {
            let mut e = SimEngine::new(pressured(OomPolicy::PreemptRecompute, model, 1000), seed);
            e.set_fault_schedule(weather());
            e
        }
    }
}

/// The loads of the golden grid at `qps`: plain, a deadline, a bounded
/// queue, retries with degradation, and all four together.
fn golden_load(variant: usize, qps: f64) -> ServingConfig {
    let base = ServingConfig::new(qps, 8, 40, 128, 96);
    match variant {
        0 => base,
        1 => base.with_deadline(20.0),
        2 => base.with_queue_capacity(6),
        3 => base.with_retries(2, 0.5).with_degradation(true),
        _ => base
            .with_deadline(20.0)
            .with_queue_capacity(6)
            .with_retries(2, 0.5)
            .with_degradation(true),
    }
}

/// Fingerprints of `(report, governance stats)` for every golden run: row
/// `ENGINES * model + engine`, column `2 * load + rate`.
const GOLDEN: [[u64; COLUMNS]; 12] = [
    [
        0x862f_45be_126d_72ae,
        0xfdae_4aad_ed8c_42e6,
        0x1224_b79a_e8c9_c82b,
        0xf563_f34f_91e4_5dc3,
        0x44fb_a134_39ae_9e4d,
        0x76e6_382f_938d_3b38,
        0x862f_45be_126d_72ae,
        0xfdae_4aad_ed8c_42e6,
        0x1224_b79a_e8c9_c82b,
        0xa75d_07d4_7a17_2cbb,
    ],
    [
        0x44fb_a134_39ae_9e4d,
        0x30fd_b10d_56b1_d540,
        0x862f_45be_126d_72ae,
        0xfc9f_80d8_a3dd_95b1,
        0x1224_b79a_e8c9_c82b,
        0xa75d_07d4_7a17_2cbb,
        0x44fb_a134_39ae_9e4d,
        0x30fd_b10d_56b1_d540,
        0x862f_45be_126d_72ae,
        0x8638_fdf1_47e7_58cf,
    ],
    [
        0x1224_b79a_e8c9_c82b,
        0x5475_fa93_ea4c_5001,
        0x44fb_a134_39ae_9e4d,
        0x30fd_b10d_56b1_d540,
        0x862f_45be_126d_72ae,
        0x8638_fdf1_47e7_58cf,
        0x1224_b79a_e8c9_c82b,
        0x5475_fa93_ea4c_5001,
        0x44fb_a134_39ae_9e4d,
        0x76e6_382f_938d_3b38,
    ],
    [
        0x4d76_11ff_b202_76e2,
        0x4140_52c5_ad3f_507b,
        0xf959_43f2_f3d1_745c,
        0x10f3_5c56_b3dc_561d,
        0x5a12_ceb9_86c0_84c3,
        0xb830_5857_bf3d_1a5f,
        0x4d76_11ff_b202_76e2,
        0x4d05_9055_0510_4607,
        0xf959_43f2_f3d1_745c,
        0xe012_0694_1c07_1316,
    ],
    [
        0x816c_e4eb_361f_2647,
        0x4348_df76_70ba_420c,
        0x57c7_bbfb_67f0_f894,
        0x712e_af0c_3a1c_9097,
        0x93b7_5b38_f8ec_7693,
        0x434a_8745_dad2_ed69,
        0x47a1_9e2c_618f_06e3,
        0x4348_df76_70ba_420c,
        0xa2f8_22eb_4c78_56d7,
        0x6f8a_967a_c517_469b,
    ],
    [
        0x93b7_5b38_f8ec_7693,
        0x4865_f334_f006_4426,
        0x816c_e4eb_361f_2647,
        0x9e33_c408_a129_6758,
        0x57c7_bbfb_67f0_f894,
        0x3ec5_3a01_01ff_a8ff,
        0x1333_a863_b76a_50d9,
        0x5b3a_cc2c_5928_6862,
        0x47a1_9e2c_618f_06e3,
        0xd7a6_7e26_581e_17de,
    ],
    [
        0xc9f7_ed0c_3856_72fc,
        0x74e4_c4a6_2966_61d2,
        0xee03_ce31_c2df_77bb,
        0x594f_3b59_593b_31e2,
        0x3864_557d_9040_a9c8,
        0x1b12_ecbe_3423_d207,
        0xc9f7_ed0c_3856_72fc,
        0x74e4_c4a6_2966_61d2,
        0xee03_ce31_c2df_77bb,
        0x0450_b477_5f09_54da,
    ],
    [
        0x3864_557d_9040_a9c8,
        0x1b12_ecbe_3423_d207,
        0xc9f7_ed0c_3856_72fc,
        0x5b71_d3ff_423a_f386,
        0xee03_ce31_c2df_77bb,
        0x0450_b477_5f09_54da,
        0x3864_557d_9040_a9c8,
        0x1b12_ecbe_3423_d207,
        0xc9f7_ed0c_3856_72fc,
        0x97db_da47_ff1c_a8d3,
    ],
    [
        0xee03_ce31_c2df_77bb,
        0x7fe5_cd26_126d_a065,
        0x3864_557d_9040_a9c8,
        0x1b12_ecbe_3423_d207,
        0xc9f7_ed0c_3856_72fc,
        0x97db_da47_ff1c_a8d3,
        0xee03_ce31_c2df_77bb,
        0x7fe5_cd26_126d_a065,
        0x3864_557d_9040_a9c8,
        0x1b12_ecbe_3423_d207,
    ],
    [
        0xd87e_662f_b547_5488,
        0x50ee_0527_1bd1_6e7c,
        0x3ac1_4fd6_9bbf_12a0,
        0x193b_8eb6_5176_783e,
        0xe83a_0931_6e4e_b943,
        0xa0d2_83f0_84b3_605e,
        0xbd04_fc37_3fe2_aa13,
        0x32a0_1fe8_3865_d31b,
        0x2803_92c6_aa0e_8c0e,
        0xea42_30dd_bff4_a421,
    ],
    [
        0x9584_608c_5c20_5003,
        0x6325_6307_f985_bc9f,
        0x79cb_0b4f_c2fd_892f,
        0x4f0e_0ae1_633a_edac,
        0xadd0_2a34_6463_6f7e,
        0xdd03_049b_4d1c_8222,
        0x347e_9e65_2591_6bf6,
        0x9241_dbc6_b720_a1c6,
        0x07f8_1285_12bb_cd6f,
        0x54c9_3561_1b14_db58,
    ],
    [
        0xadd0_2a34_6463_6f7e,
        0x7a6b_ca25_4f9c_31e2,
        0xb255_2da9_a86d_e2a1,
        0x53b2_cff3_06e9_e195,
        0x936b_185c_9240_f71f,
        0x4835_efae_1212_43f6,
        0xa7d2_36cc_dce2_e125,
        0xb3ea_ff6e_12ad_eb72,
        0x347e_9e65_2591_6bf6,
        0xee31_b182_7114_9d29,
    ],
];

#[test]
fn gang_runs_match_their_golden_fingerprints() {
    let mut mismatches = Vec::new();
    for (row, want) in GOLDEN.iter().enumerate() {
        let (model, rates) = MODELS[row / ENGINES];
        for (col, &want) in want.iter().enumerate() {
            let seed = SEEDS[(row * COLUMNS + col) % SEEDS.len()];
            let cfg = golden_load(col / 2, rates[col % 2]);
            let mut e = golden_engine(row % ENGINES, model, seed);
            let report =
                simulate_serving(&mut e, model, Precision::Fp16, &cfg, seed).expect("golden run");
            let got = fingerprint(&(report, e.governance_stats()));
            if got != want {
                mismatches.push(format!("row {row} col {col}: {got:#018x} != {want:#018x}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}
