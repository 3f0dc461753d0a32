//! Regression suite for session serving (`simulate_serving_sessions`).
//!
//! Golden fingerprints freeze the session reports, engine counters and
//! governance stats of a grid of session, template and uniform traces
//! under several engines and scheduler configs, so any change to how
//! session traffic is scheduled shows up as a changed hash. Two further
//! tests pin where session serving must agree with the continuous
//! scheduler: battery brown-outs, and the wall clock under recompute
//! preemption.

use edgereasoning::engine::engine::{EngineConfig, OomPolicy};
use edgereasoning::engine::serving::{simulate_serving_continuous, ServingConfig};
use edgereasoning::engine::session::{
    simulate_serving_sessions, uniform_session_trace, SessionConfig, SessionReport, SessionRequest,
};
use edgereasoning::engine::SimEngine;
use edgereasoning::kernels::arch::ModelId;
use edgereasoning::kernels::dtype::Precision;
use edgereasoning::soc::faults::FaultSchedule;
use edgereasoning::soc::thermal::{
    BatteryConfig, GovernanceConfig, RechargeProfile, ThermalConfig,
};
use edgereasoning::workloads::session::{SessionMixConfig, SessionTurn};

const MODEL: ModelId = ModelId::Dsr1Qwen1_5b;
const PREC: Precision = Precision::Fp16;

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

/// An engine config whose KV budget holds `kv_tokens` tokens beside the
/// weights: one long request fits, several do not.
fn pressured(policy: OomPolicy, kv_tokens: u64) -> EngineConfig {
    let mut config = EngineConfig::vllm().with_oom_policy(policy);
    let arch = MODEL.arch();
    let budget = arch.weight_bytes(PREC) + kv_tokens * arch.kv_bytes_per_token();
    config.memory_budget_frac = budget as f64 / config.soc.gpu.dram_capacity as f64;
    config
}

fn request(t: SessionTurn) -> SessionRequest {
    SessionRequest {
        arrival_s: t.arrival_s,
        prompt_tokens: t.prompt_tokens,
        output_tokens: t.output_tokens,
        prefix: t.prefix,
    }
}

fn mix_trace(mix: SessionMixConfig) -> Vec<SessionRequest> {
    mix.generate().map(request).collect()
}

/// Serves `trace` on `engine` and returns the report.
fn serve(engine: &mut SimEngine, cfg: &SessionConfig, trace: Vec<SessionRequest>) -> SessionReport {
    let mut it = trace.into_iter();
    simulate_serving_sessions(engine, MODEL, PREC, cfg, || it.next()).expect("session run")
}

/// Traces of the golden grid: multi-turn sessions with growing contexts,
/// short sessions over long shared templates, and the legacy uniform
/// Poisson stream with no signatures.
fn golden_trace(variant: usize) -> Vec<SessionRequest> {
    match variant {
        0 => mix_trace(SessionMixConfig::session_heavy(0.5, 10, 3)),
        1 => mix_trace(SessionMixConfig::template_heavy(0.6, 24, 5)),
        _ => uniform_session_trace(&ServingConfig::new(2.0, 8, 48, 128, 96), 9),
    }
}

/// Engines of the golden grid: plain; FailFast memory pressure, which
/// refuses requests on a busy device and drops ones that cannot fit an
/// idle one; recompute preemption under pressure; a thermal governor
/// that throttles mid-run; and scripted fault weather.
fn golden_engine(variant: usize, seed: u64) -> SimEngine {
    match variant {
        0 => SimEngine::new(EngineConfig::vllm(), seed),
        1 => SimEngine::new(pressured(OomPolicy::FailFast, 1600), seed),
        2 => SimEngine::new(pressured(OomPolicy::PreemptRecompute, 3000), seed),
        3 => {
            let hot = GovernanceConfig {
                thermal: ThermalConfig {
                    c_j_per_c: 8.6,
                    ..ThermalConfig::default()
                },
                ..GovernanceConfig::default()
            }
            .with_trip(42.0, 38.0);
            SimEngine::new(EngineConfig::vllm().with_governance(hot), seed)
        }
        _ => {
            let mut e = SimEngine::new(EngineConfig::vllm(), seed);
            e.set_fault_schedule(FaultSchedule::generate(seed ^ 0xfa, 2.0, 3600.0));
            e
        }
    }
}

/// Scheduler configs per golden row (the grid's columns).
const GOLDEN_CONFIGS: usize = 5;

/// Scheduler configs of the golden grid: caching on and off, deadline
/// plus queue-capacity sheds, one sequence at a time, and a small
/// uncached batch with both sheds.
fn golden_config(variant: usize) -> SessionConfig {
    match variant {
        0 => SessionConfig::new(8),
        1 => SessionConfig::new(8).with_prefix_caching(false),
        2 => SessionConfig::new(8)
            .with_deadline(12.0)
            .with_queue_capacity(4),
        3 => SessionConfig::new(1).with_deadline(30.0),
        _ => SessionConfig::new(4)
            .with_deadline(20.0)
            .with_queue_capacity(8)
            .with_prefix_caching(false),
    }
}

/// Marks a golden cell pinned by a dedicated test instead of a fingerprint.
const MOVED: u64 = 0;

/// Fingerprints of `(report, engine counters, governance stats)` for every
/// golden run: row `5 * trace + engine`, one column per config.
const GOLDEN: [[u64; GOLDEN_CONFIGS]; 15] = [
    [
        0x0c43_04c2_f35f_577c,
        0x533a_56ef_ebb4_3c7f,
        0x2436_fbef_b940_3c9a,
        0x3d3c_354d_7900_a83a,
        0xb5bc_5ba3_81ab_fcaf,
    ],
    [
        0x30aa_b005_0cf4_dd8a,
        0x803e_c297_2f27_8f99,
        0x41ee_7f55_9426_9f69,
        0xe1fb_0092_8de0_f1e7,
        0xc730_17cb_1dc6_9abe,
    ],
    [
        0x6239_2d80_a2de_d2be,
        MOVED, // see `session_wall_clock_is_the_last_busy_instant_under_preemption`
        0x8f11_9c71_025c_1cfa,
        0x6222_749c_e882_dfc7,
        0x9124_3d19_b921_fb7c,
    ],
    [
        0x732d_34bc_ce72_81fd,
        0x7ca1_efae_6267_3353,
        0xfc50_8a34_3680_11f6,
        0x34a3_5059_3019_622e,
        0xf634_2e8c_3942_aa94,
    ],
    [
        0x6d7a_0ec2_60b9_1c47,
        0x97cc_0c22_2636_d228,
        0x53e5_a2b0_61ad_1f4a,
        0xc37d_2c9a_3e1e_479d,
        0xa6d5_dac9_5ac6_f6b2,
    ],
    [
        0xd420_5a9b_b89e_4f49,
        0x3496_e1c2_e679_2d6f,
        0x798f_7450_fb01_c4f3,
        0x0af7_d215_af19_0ccd,
        0x9403_4104_e7e3_8f0f,
    ],
    [
        0xd5a4_eb7e_8b73_5071,
        0x7c05_6f5b_b13f_9059,
        0xd5a4_eb7e_8b73_5071,
        0xd5a4_eb7e_8b73_5071,
        0x7c05_6f5b_b13f_9059,
    ],
    [
        0xff28_87e7_28c8_0c10,
        0x7c05_6f5b_b13f_9059,
        0xff28_87e7_28c8_0c10,
        0xff28_87e7_28c8_0c10,
        0x7c05_6f5b_b13f_9059,
    ],
    [
        0xe973_6339_b132_f48c,
        0x1e03_4c0f_606e_d6f0,
        0xf385_9b06_156e_df88,
        0x2618_a877_d26d_7f04,
        0x05a5_8b10_481c_779a,
    ],
    [
        0xee20_0d0d_0604_3c0c,
        0x9283_3475_b7f0_c9a7,
        0x7432_9f5e_7214_a72e,
        0x3203_a802_613c_f5f8,
        0x9241_dc8a_7d64_1d48,
    ],
    [
        0x9fb1_2eb2_8d79_9c5c,
        0xc084_aa45_c62a_b6d4,
        0x3fb6_85c3_9e64_cf38,
        0x6caf_7a34_7deb_a969,
        0xbd84_e816_0a7f_8e8e,
    ],
    [
        0xbeed_9ced_1279_961f,
        0xb2f5_c47a_dc3c_7afb,
        0x4d37_07af_3545_602b,
        0x588d_2c5e_eacf_03a3,
        0x5262_2f02_38cd_86b6,
    ],
    [
        0xe7c9_e730_7f87_61a5,
        0x1f2d_8e3f_4628_88df,
        0xf261_67a2_b700_c6a1,
        0xe942_600c_44d7_7437,
        0xf498_b17b_3e2e_f3a8,
    ],
    [
        0xc3c2_53cc_6ebd_ef36,
        0xe05c_23eb_4655_8b1b,
        0xd3df_df4d_1284_02b8,
        0xb18e_1ab3_6867_a557,
        0x5bf7_d806_6c0b_8f0c,
    ],
    [
        0xac9d_4982_d68d_0016,
        0x359c_2a2b_d594_f093,
        0x35fa_3414_7c12_f6c2,
        0xc5a8_3bac_752f_212f,
        0xae0d_70f9_fa73_9115,
    ],
];

#[test]
fn session_runs_match_their_golden_fingerprints() {
    let mut mismatches = Vec::new();
    for (row, want) in GOLDEN.iter().enumerate() {
        let trace = golden_trace(row / 5);
        for (col, &want) in want.iter().enumerate() {
            if want == MOVED {
                continue;
            }
            let seed = 1 + (row * GOLDEN_CONFIGS + col) as u64;
            let mut e = golden_engine(row % 5, seed);
            let report = serve(&mut e, &golden_config(col), trace.clone());
            let got = fingerprint(&(report, e.counters(), e.governance_stats()));
            if got != want {
                mismatches.push(format!("row {row} col {col}: {got:#018x} != {want:#018x}"));
            }
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

#[test]
fn session_serving_browns_out_like_the_continuous_sim() {
    // A 120 J battery cannot carry 48 queries at 2.5 qps. On a 10 W trickle
    // charger the device browns out, fails its in-flight work and resumes
    // once recharged; with no charger it dies for good and strands the
    // rest of the trace, which still counts as offered. One sequence at a
    // time, session serving over the legacy Poisson trace is the
    // continuous scheduler in both cases.
    let cfg = ServingConfig::new(2.5, 1, 48, 128, 128).with_deadline(60.0);
    let seed = 0x7e84;
    for recharge in [
        RechargeProfile::Constant { watts: 10.0 },
        RechargeProfile::None,
    ] {
        let gov = GovernanceConfig::default()
            .with_trip(10_000.0, 9_000.0)
            .with_battery(BatteryConfig {
                capacity_j: 120.0,
                recharge,
                ..BatteryConfig::default()
            });
        let engine_cfg = EngineConfig::vllm().with_governance(gov);
        let mut se = SimEngine::new(engine_cfg.clone(), seed);
        let sessions = serve(
            &mut se,
            &SessionConfig::new(1)
                .with_deadline(60.0)
                .with_prefix_caching(false),
            uniform_session_trace(&cfg, seed),
        );
        let mut ce = SimEngine::new(engine_cfg, seed);
        let continuous =
            simulate_serving_continuous(&mut ce, MODEL, PREC, &cfg, seed).expect("runs");
        let brownouts = se.governance_stats().map_or(0, |g| g.brownouts);
        assert!(brownouts > 0, "{recharge:?}: battery must brown out");
        assert_eq!(sessions.serving, continuous, "{recharge:?}");
        assert_eq!(sessions.offered, cfg.queries, "{recharge:?}");
    }
}

#[test]
fn session_wall_clock_is_the_last_busy_instant_under_preemption() {
    // Recompute preemption can retire a drained batch's last request, whose
    // jittered completion carries the run noise, before the stepper's own
    // clock. The device was busy until the later of the two, so that is the
    // wall clock; the retired session loop snapped back to the completion.
    let cases = [
        (
            mix_trace(SessionMixConfig::session_heavy(0.16, 60, 1)),
            SessionConfig::new(8)
                .with_deadline(15.0)
                .with_prefix_caching(false),
            1,
            579.094_848_255_941_1,
        ),
        // The golden grid's recompute-pressure cell without caching.
        (
            golden_trace(0),
            golden_config(1),
            12,
            279.975_260_283_509_44,
        ),
    ];
    for (trace, cfg, seed, wall_s) in cases {
        let mut e = SimEngine::new(pressured(OomPolicy::PreemptRecompute, 3000), seed);
        let r = serve(&mut e, &cfg, trace);
        assert!(r.serving.preemptions > 0, "pressure must preempt");
        assert_eq!(r.serving.wall_s, wall_s, "seed {seed}");
    }
}

#[test]
fn failed_slots_release_their_prefix_pins_in_slab_order() {
    // A stuck step or a brown-out abandons every live slot at once, and
    // each abandoned slot drops its prefix pin. Released pins stamp the
    // tree's LRU order, so which cold path is evicted next depends on the
    // release order: slab-index order, not admission order, which differs
    // once retired slots' indices are reused. Both runs fail slots with
    // pinned prefixes, the first through stuck steps under recompute
    // pressure, the second through brown-outs of a 120 J battery.
    let cfg = SessionConfig::new(8).with_deadline(60.0);
    let battery = GovernanceConfig::default()
        .with_trip(10_000.0, 9_000.0)
        .with_battery(BatteryConfig {
            capacity_j: 120.0,
            recharge: RechargeProfile::Constant { watts: 8.0 },
            ..BatteryConfig::default()
        });
    let cases = [
        (
            SessionMixConfig::session_heavy(0.4, 16, 1),
            pressured(OomPolicy::PreemptRecompute, 3000),
            1,
            0x5067_4fa4_8964_e1a8_u64,
        ),
        (
            SessionMixConfig::session_heavy(0.4, 16, 0),
            pressured(OomPolicy::PreemptRecompute, 4000).with_governance(battery),
            0,
            0xf947_7cfe_37a0_3d18,
        ),
    ];
    for (mix, engine_cfg, seed, want) in cases {
        let mut e = SimEngine::new(engine_cfg, seed);
        let report = serve(&mut e, &cfg, mix_trace(mix));
        let got = fingerprint(&(report, e.counters()));
        assert_eq!(got, want, "seed {seed}: {got:#018x}");
    }
}
