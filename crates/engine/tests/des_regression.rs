//! Regression suite for the serving loop.
//!
//! Every single-device entry point runs the fleet event loop of
//! `engine::cluster` on its one calm replica, and gang scheduling is one
//! of that loop's two admission rules. Every decision, RNG draw and float
//! operation must stay in the order of the retired loops. These tests pin
//! that contract by comparing reports — whose `PartialEq` is *bitwise* on
//! every float field — across:
//!
//! * `simulate_serving_continuous` (continuous batching),
//! * `simulate_serving` (gang scheduling: on a drained queue every batch
//!   finds the device idle, so the gang rule is inert and both rules must
//!   agree),
//! * `simulate_cluster` over one replica (the same loop from a fleet config).
//!
//! The pre-DES loop survives verbatim as a test-only oracle of the engine
//! crate (`serving_reference.rs`); its comparisons live beside it.
//!
//! Golden fingerprints freeze the outputs of the retired single-device DES
//! loop over a grid of configurations, and of stressed one-replica fleets,
//! so its evidence outlives its code.

use edgereasoning_engine::cluster::BreakerConfig;
use edgereasoning_engine::engine::{EngineConfig, OomPolicy};
use edgereasoning_engine::{
    simulate_cluster, simulate_serving, simulate_serving_continuous, simulate_serving_sessions,
    simulate_serving_traffic, uniform_session_trace, AdmissionConfig, ArrivalProcess,
    ClusterConfig, CrashConfig, InferenceEngine, Priority, PriorityMix, ServingConfig,
    SessionConfig,
};
use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_soc::faults::{DomainConfig, DomainKind, FaultSchedule};
use edgereasoning_soc::thermal::{BatteryConfig, GovernanceConfig, RechargeProfile, ThermalConfig};

fn engine() -> InferenceEngine {
    InferenceEngine::new(EngineConfig::vllm(), 3)
}

/// An engine config whose KV budget fits one sequence end to end but not
/// several (mirrors the serving unit tests).
fn pressured(policy: OomPolicy, kv_tokens: u64) -> EngineConfig {
    let mut config = EngineConfig::vllm().with_oom_policy(policy);
    let arch = ModelId::Dsr1Qwen1_5b.arch();
    let budget = arch.weight_bytes(Precision::Fp16) + kv_tokens * arch.kv_bytes_per_token();
    config.memory_budget_frac = budget as f64 / config.soc.gpu.dram_capacity as f64;
    config
}

#[test]
fn one_replica_no_crash_fleet_is_the_continuous_scheduler() {
    // The DES fleet loop with one replica, no crash windows and hedging
    // off must collapse to exactly the single-device continuous schedule.
    let cfg = ServingConfig::new(1.5, 8, 40, 128, 128)
        .with_deadline(60.0)
        .with_retries(2, 1.0);
    for seed in [3, 8] {
        let fleet = simulate_cluster(
            &ClusterConfig::new(1, EngineConfig::vllm()),
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg,
            seed,
        )
        .expect("fleet runs");
        let mut e = InferenceEngine::new(EngineConfig::vllm(), seed);
        let single =
            simulate_serving_continuous(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, seed)
                .expect("single runs");
        assert_eq!(fleet.fleet, single, "seed {seed}");
        assert_eq!(fleet.replicas[0], single, "seed {seed}");
    }
}

#[test]
fn single_device_browns_out_like_a_one_replica_fleet() {
    // A 120 J battery on a 10 W trickle charger cannot carry 48 queries at
    // 2.5 qps: the device browns out, voids its in-flight work into the
    // retry queue and resumes once recharged. The single-device entry points
    // must honour those outages: continuous batching exactly as the
    // one-replica fleet does, and gang scheduling on the same loop.
    let gov = GovernanceConfig::default()
        .with_trip(10_000.0, 9_000.0)
        .with_battery(BatteryConfig {
            capacity_j: 120.0,
            recharge: RechargeProfile::Constant { watts: 10.0 },
            ..BatteryConfig::default()
        });
    let engine_cfg = EngineConfig::vllm().with_governance(gov);
    let cfg = ServingConfig::new(2.5, 8, 48, 128, 128)
        .with_deadline(60.0)
        .with_retries(2, 0.5);
    let seed = 0x7e84;
    let fleet = simulate_cluster(
        &ClusterConfig::new(1, engine_cfg.clone()),
        ModelId::Dsr1Qwen1_5b,
        Precision::Fp16,
        &cfg,
        seed,
    )
    .expect("fleet runs");
    let mut e = InferenceEngine::new(engine_cfg.clone(), seed);
    let single =
        simulate_serving_continuous(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, seed)
            .expect("single runs");
    assert!(fleet.brownout_events > 0, "battery must brown out");
    assert_eq!(single, fleet.fleet);
    assert_eq!(single.completed, cfg.queries, "every query retires");

    // Gang scheduling with no deadline or retries: each outage lands after
    // the batch in flight retires, so nothing is voided, but the device
    // waits out every recharge. Serving straight through them finished all
    // 48 queries in 31.777 s on 1 brown-out; waiting takes 38.667 s and
    // 491.0 J.
    let gang_cfg = ServingConfig::new(2.5, 8, 48, 128, 128);
    let mut g = InferenceEngine::new(engine_cfg, seed);
    let gang = simulate_serving(
        &mut g,
        ModelId::Dsr1Qwen1_5b,
        Precision::Fp16,
        &gang_cfg,
        seed,
    )
    .expect("gang runs");
    assert_eq!(g.governance_stats().map(|s| s.brownouts), Some(4));
    assert_eq!(gang.completed, gang_cfg.queries, "every query retires");
    assert_eq!(fingerprint(&gang), 0x35b3_d67f_5110_333c);
}

#[test]
fn single_device_wall_clock_is_the_one_replica_fleets_under_preemption() {
    // Recompute preemption can retire a drained batch's last slot, whose
    // jittered completion carries the run noise, before the stepper's own
    // clock. The fleet counts the device busy until the later of the two;
    // the retired single-device loop snapped its wall clock back to the
    // completion. One loop now serves both, so the reports agree.
    let engine_cfg = pressured(OomPolicy::PreemptRecompute, 1200);
    let cfg = ServingConfig::new(2.0, 8, 40, 128, 128);
    let fleet = simulate_cluster(
        &ClusterConfig::new(1, engine_cfg.clone()),
        ModelId::Dsr1Qwen1_5b,
        Precision::Fp16,
        &cfg,
        3,
    )
    .expect("fleet runs");
    let mut e = InferenceEngine::new(engine_cfg, 3);
    let single =
        simulate_serving_continuous(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 3)
            .expect("single runs");
    assert!(single.preemptions > 0, "pressure must preempt");
    assert_eq!(single, fleet.fleet);
}

#[test]
fn drained_des_matches_static_oracle() {
    // On a drained queue every batch finds the device idle, so the gang
    // rule never withholds room and both admission rules serve the same
    // schedule. The second input is a governed device whose long batches
    // heat the die past its trip point, so both throttle alike.
    let cases = [
        (
            ModelId::Dsr1Qwen1_5b,
            EngineConfig::vllm(),
            ServingConfig::new(1e-4, 8, 24, 128, 128),
            [7].as_slice(),
        ),
        (
            ModelId::Dsr1Llama8b,
            EngineConfig::vllm().with_governance(hot_governor()),
            ServingConfig::new(1e-8, 4, 3, 512, 1024),
            [1, 2, 3].as_slice(),
        ),
    ];
    for (model, engine_cfg, cfg, seeds) in cases {
        for &seed in seeds {
            let mut se = InferenceEngine::new(engine_cfg.clone(), 3);
            let rs =
                simulate_serving(&mut se, model, Precision::Fp16, &cfg, seed).expect("static runs");
            let mut ce = InferenceEngine::new(engine_cfg.clone(), 3);
            let rc = simulate_serving_continuous(&mut ce, model, Precision::Fp16, &cfg, seed)
                .expect("continuous runs");
            assert_eq!(
                rs, rc,
                "{model} seed {seed}: drained DES continuous must equal the static oracle"
            );
            let governance = se.governance_stats();
            assert_eq!(governance, ce.governance_stats(), "{model} seed {seed}");
            if let Some(g) = governance {
                assert!(g.throttle_steps > 0, "seed {seed}: must throttle: {g:?}");
            }
        }
    }
}

#[test]
fn cache_disabled_session_loop_matches_continuous_when_drained() {
    // The session-aware loop (PR7) with prefix caching off, replaying the
    // legacy Poisson trace, must be the continuous/DES scheduler bit for
    // bit in the drained regime — whether the cache is switched off by
    // config or starved by all-empty signatures.
    let cfg = ServingConfig::new(1e-4, 8, 24, 128, 128);
    for seed in [1, 7, 42] {
        let mut ce = engine();
        let want = simulate_serving_continuous(
            &mut ce,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg,
            seed,
        )
        .expect("continuous runs");
        for scfg in [
            SessionConfig::new(8).with_prefix_caching(false),
            SessionConfig::new(8), // caching on, but the trace has no signatures
        ] {
            let mut se = engine();
            let mut it = uniform_session_trace(&cfg, seed).into_iter();
            let got = simulate_serving_sessions(
                &mut se,
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                &scfg,
                || it.next(),
            )
            .expect("session loop runs");
            assert_eq!(
                got.serving, want,
                "seed {seed}: idle prefix cache must be invisible"
            );
            assert_eq!(got.cached_prompt_tokens, 0, "seed {seed}");
        }
    }
}

#[test]
fn legacy_traffic_entry_point_is_the_continuous_scheduler() {
    // `simulate_serving_traffic` with the legacy process is the same
    // function as `simulate_serving_continuous`, bit for bit.
    let cfg = ServingConfig::new(2.0, 8, 40, 128, 128).with_deadline(30.0);
    let mut a = engine();
    let ra = simulate_serving_continuous(&mut a, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 9)
        .expect("runs");
    let mut b = engine();
    let rb = simulate_serving_traffic(
        &mut b,
        ModelId::Dsr1Qwen1_5b,
        Precision::Fp16,
        &cfg,
        ArrivalProcess::PoissonLegacy,
        9,
    )
    .expect("runs");
    assert_eq!(ra, rb);
}

#[test]
fn traffic_processes_are_deterministic_and_distinct() {
    let cfg = ServingConfig::new(2.0, 8, 40, 128, 128).with_deadline(30.0);
    let run = |process: ArrivalProcess| {
        let mut e = engine();
        simulate_serving_traffic(
            &mut e,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg,
            process,
            9,
        )
        .expect("runs")
    };
    let processes = [
        ArrivalProcess::Poisson,
        ArrivalProcess::Diurnal {
            period_s: 60.0,
            amplitude: 0.8,
        },
        ArrivalProcess::FlashCrowd {
            burst_mult: 8.0,
            mean_calm_s: 20.0,
            mean_burst_s: 4.0,
        },
    ];
    for p in processes {
        assert_eq!(run(p), run(p), "{p} must be run-to-run deterministic");
    }
    // Different processes reshape the offered load enough to change the
    // report (same seed, same mean rate).
    assert_ne!(run(processes[0]), run(processes[1]));
    assert_ne!(run(processes[0]), run(processes[2]));
}

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

/// Arrival processes of the single-device golden grid (its columns).
const GOLDEN_PROCESSES: [ArrivalProcess; 4] = [
    ArrivalProcess::PoissonLegacy,
    ArrivalProcess::Poisson,
    ArrivalProcess::Diurnal {
        period_s: 30.0,
        amplitude: 0.8,
    },
    ArrivalProcess::FlashCrowd {
        burst_mult: 6.0,
        mean_calm_s: 10.0,
        mean_burst_s: 3.0,
    },
];

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

/// Engines of the single-device golden grid: plain, both memory-pressure
/// policies, a thermal governor that throttles mid-run, and scripted
/// fault weather.
fn golden_engine(variant: usize, seed: u64) -> InferenceEngine {
    match variant {
        0 => InferenceEngine::new(EngineConfig::vllm(), seed),
        1 => InferenceEngine::new(pressured(OomPolicy::FailFast, 1600), seed),
        2 => InferenceEngine::new(pressured(OomPolicy::PreemptRecompute, 1600), seed),
        3 => InferenceEngine::new(EngineConfig::vllm().with_governance(hot_governor()), seed),
        _ => {
            let mut e = InferenceEngine::new(EngineConfig::vllm(), seed);
            e.set_fault_schedule(FaultSchedule::generate(seed ^ 0xfa, 2.0, 3600.0));
            e
        }
    }
}

/// Loads of the single-device golden grid: plain, every robustness
/// control (deadline, bounded queue, retries, degradation), and priority
/// admission with and without its cost guards.
fn golden_load(variant: usize) -> ServingConfig {
    let base = ServingConfig::new(2.0, 8, 48, 128, 96);
    match variant {
        0 => base,
        1 => base
            .with_deadline(20.0)
            .with_queue_capacity(6)
            .with_retries(2, 0.5)
            .with_degradation(true),
        2 => ServingConfig {
            arrival_qps: 4.0,
            ..base
        }
        .with_deadline(15.0)
        .with_retries(1, 0.25)
        .with_admission(
            AdmissionConfig::priority(PriorityMix::EDGE_MIX, 5)
                .with_rate(Priority::Background, 0.5, 2.0)
                .with_age_target(Priority::Batch, 6.0),
        ),
        _ => {
            let mut adm = AdmissionConfig::priority(PriorityMix::EDGE_MIX, 9)
                .with_rate(Priority::Interactive, 1.0, 3.0)
                .with_age_target(Priority::Background, 2.0);
            adm.kv_guard = false;
            adm.slack_guard = false;
            ServingConfig {
                arrival_qps: 3.0,
                ..base
            }
            .with_queue_capacity(10)
            .with_degradation(true)
            .with_admission(adm)
        }
    }
}

/// Fingerprints of `(report, engine counters, governance stats)` for every
/// single-device golden run: row `4 * engine + load`, one column per
/// [`GOLDEN_PROCESSES`] entry.
const GOLDEN_SINGLE: [[u64; 4]; 20] = [
    [
        0x38d0_687e_85fb_3575,
        0x9a2b_1ac6_1027_6313,
        0x155b_32a7_9a25_93f7,
        0xc5fa_59c0_7b93_8a3d,
    ],
    [
        0x11ca_b89b_8c98_dd51,
        0xf985_03b4_0317_9df4,
        0x7cf1_5d7c_ca91_fb53,
        0xd1d7_a0a7_359e_4476,
    ],
    [
        0x3c17_0454_9ad2_386d,
        0xabec_d23f_726e_381c,
        0x74e1_0f39_f330_9d47,
        0x38d4_b662_5706_592c,
    ],
    [
        0xd4f1_44d6_0607_2071,
        0x6a0c_7ba7_a3c4_09a9,
        0xe3da_145b_66e3_0c05,
        0x0645_b3e9_890d_bda9,
    ],
    [
        0xc6d9_54fa_d408_e330,
        0x34f9_b5a4_ccb0_4e89,
        0x4191_d246_6754_e87b,
        0x3ccf_4006_ff8d_957b,
    ],
    [
        0x93ea_68ec_ef73_8fd1,
        0xf401_995c_cfd3_ae66,
        0xd572_fe24_f346_f42b,
        0xc0e6_044e_fa23_5888,
    ],
    [
        0x7ec0_cc2f_875e_3ff3,
        0x532b_4330_8fed_b808,
        0x502b_fbe0_0d77_2ebc,
        0x67b4_e7f2_be96_c8b9,
    ],
    [
        0x7d66_e78b_be36_e23d,
        0x7431_7483_dca8_5eb2,
        0x4c76_8a6c_6fe4_56f5,
        0xe5c3_db92_a68b_8ce4,
    ],
    [
        0x0b99_b0a5_1b03_d03f,
        0xcec7_d8c8_6293_45a1,
        0x7a18_d156_7914_0018,
        0x25fd_32f0_90fd_5d7e,
    ],
    [
        0x26c3_2cb5_1ab3_3304,
        0x4eba_6b5c_15b5_0d36,
        0x2d20_3113_7768_b7bc,
        0xa091_d9c9_6089_6f5e,
    ],
    [
        0xd63f_5ccb_639a_f0a1,
        0x44dd_26cd_553a_33a4,
        0x3199_c9aa_4dd7_2c5c,
        0xf96c_48fe_ec09_926b,
    ],
    [
        0x2d44_a2de_a08d_e2a3,
        0xf55a_043b_71d0_2076,
        0xfdee_f2a7_fb3a_c84c,
        0xd901_2d78_73e4_9650,
    ],
    [
        0x2e58_b95e_0c7f_696d,
        0x2935_489c_0c47_6db8,
        0x7df4_b590_c810_db0c,
        0xd2ce_ba8f_1ca1_4530,
    ],
    [
        0x7ed8_fd3d_3039_f050,
        0xf4fb_67d2_3f5d_c6ed,
        0x4aaf_30ed_81d3_4256,
        0xc27d_e9c0_6a82_6ee1,
    ],
    [
        0xdd7a_6400_5eca_ef52,
        0x1cfa_0d80_f12c_adda,
        0x9574_e347_dcb5_52c8,
        0x8a66_13b3_4e7e_7890,
    ],
    [
        0xbd66_746d_3ad8_739d,
        0x3ed7_b5a2_0d99_810a,
        0x0d04_7c5f_7d97_a58d,
        0xea0a_6002_176c_bf2c,
    ],
    [
        0x55cf_3634_7776_99ec,
        0x72e7_d5f0_329e_96e0,
        0xe4ed_fa12_f522_622d,
        0x9cb2_c3fb_e07c_0193,
    ],
    [
        0xa909_c6fd_9ebd_bf30,
        0x1ec1_ab82_bcca_e432,
        0x549a_3ca5_c4d9_79e4,
        0xefd3_54f4_c9cf_8c76,
    ],
    [
        0x5328_e71c_2f88_c820,
        0x2f9b_3361_79eb_587d,
        0x3a05_b6cd_f564_349d,
        0x8799_313b_5f66_12f8,
    ],
    [
        0x8d6a_f3bb_e96f_b314,
        0x3367_7604_1d3d_3c15,
        0xdc2e_ba96_c91b_05ab,
        0x1626_c0f7_6622_cd4b,
    ],
];

#[test]
fn single_device_runs_match_their_golden_fingerprints() {
    let mut mismatches = Vec::new();
    for (row, want) in GOLDEN_SINGLE.iter().enumerate() {
        let (engine_variant, load_variant) = (row / 4, row % 4);
        let cfg = golden_load(load_variant);
        for (col, &process) in GOLDEN_PROCESSES.iter().enumerate() {
            let seed = 1 + row as u64;
            let mut e = golden_engine(engine_variant, seed);
            let report = simulate_serving_traffic(
                &mut e,
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                &cfg,
                process,
                seed,
            )
            .expect("golden run");
            let got = fingerprint(&(report, e.counters(), e.governance_stats()));
            if got != want[col] {
                mismatches.push(format!(
                    "row {row} ({process}): {got:#018x} != {:#018x}",
                    want[col]
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

/// One-replica fleets under stress: crash weather, breakers, partitions,
/// domain derates, priority admission with sheds and retries, a trickle-
/// charged battery, and memory pressure with degradation.
fn golden_fleets() -> Vec<(ClusterConfig, ServingConfig)> {
    let crashy = CrashConfig {
        mtbf_s: 40.0,
        mttr_s: 6.0,
        cold_start_s: 2.0,
    };
    let base = ServingConfig::new(2.0, 8, 80, 128, 96)
        .with_deadline(40.0)
        .with_retries(3, 0.5);
    let one = || ClusterConfig::new(1, EngineConfig::vllm());
    let battery = GovernanceConfig::default()
        .with_trip(10_000.0, 9_000.0)
        .with_battery(BatteryConfig {
            capacity_j: 150.0,
            recharge: RechargeProfile::Constant { watts: 6.0 },
            ..BatteryConfig::default()
        });
    vec![
        (one().with_crashes(crashy), base),
        (
            one().with_crashes(crashy).with_breaker(BreakerConfig {
                cooldown_s: 4.0,
                half_open_probes: 1,
                ..BreakerConfig::edge_default()
            }),
            base.with_queue_capacity(12),
        ),
        (
            one().with_domains(vec![DomainConfig {
                event_mtbf_s: 8.0,
                event_duration_s: 4.0,
                ..DomainConfig::quiet(DomainKind::Network, vec![0])
            }]),
            base,
        ),
        (
            one()
                .with_domains(vec![
                    DomainConfig {
                        crash_mtbf_s: 15.0,
                        crash_mttr_s: 3.0,
                        ..DomainConfig::quiet(DomainKind::Power, vec![0])
                    },
                    DomainConfig {
                        event_mtbf_s: 8.0,
                        event_duration_s: 5.0,
                        ..DomainConfig::quiet(DomainKind::Thermal, vec![0])
                    },
                ])
                .with_fault_intensity(1.0),
            base.with_degradation(true),
        ),
        (
            one()
                .with_fault_intensity(2.0)
                .with_breaker(BreakerConfig::edge_default()),
            ServingConfig {
                arrival_qps: 4.0,
                ..base
            }
            .with_deadline(12.0)
            .with_queue_capacity(10)
            .with_admission(
                AdmissionConfig::priority(PriorityMix::EDGE_MIX, 3)
                    .with_rate(Priority::Background, 0.5, 2.0)
                    .with_age_target(Priority::Batch, 5.0),
            ),
        ),
        (
            ClusterConfig::new(1, EngineConfig::vllm().with_governance(battery)),
            base,
        ),
        (
            one()
                .with_hedging(1.5)
                .with_shared_prefix((0..7).map(|b| 0x7e4d_0000 + b).collect()),
            base.with_admission(AdmissionConfig::fifo(PriorityMix::EDGE_MIX, 4)),
        ),
        (
            ClusterConfig::new(1, pressured(OomPolicy::FailFast, 1600))
                .with_crashes(crashy)
                .with_breaker(BreakerConfig::edge_default()),
            base.with_degradation(true),
        ),
    ]
}

/// Fingerprints of the full [`ClusterReport`](edgereasoning_engine::ClusterReport)
/// of each [`golden_fleets`] run, seeded `11 + index`.
const GOLDEN_FLEET: [u64; 8] = [
    0x94a8_c37b_1cf2_30f9,
    0xd643_2262_7617_7472,
    0xc427_eadc_69be_a69b,
    0xf24d_c301_ea91_2429,
    0xa499_8b77_a7af_43b4,
    0x6f0b_7420_8a18_2bb0,
    0x3fbf_fb32_ed71_bf88,
    0x06f0_2186_36db_8656,
];

#[test]
fn one_replica_fleets_match_their_golden_fingerprints() {
    let mut mismatches = Vec::new();
    for (i, ((cluster, cfg), want)) in golden_fleets().iter().zip(GOLDEN_FLEET).enumerate() {
        let report = simulate_cluster(
            cluster,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            cfg,
            11 + i as u64,
        )
        .expect("golden fleet");
        let got = fingerprint(&report);
        if got != want {
            mismatches.push(format!("fleet {i}: {got:#018x} != {want:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}
