//! Regression suite for multi-replica fleets (`simulate_cluster`).
//!
//! Golden fingerprints freeze the full report of two- and three-replica
//! fleets, each run on two seeds. These are the runs where a replica's
//! stepper takes work it cannot foresee: hedged clones admitted into a busy
//! batch, hedge losers cancelled while groups wait for KV space, failover
//! requeues after crashes, brown-outs and partitions, and voided slots whose
//! hedge twin lives on and keeps the queries. Any change to
//! how a fleet routes, admits, voids, retries or books its queries shows up
//! as a changed hash. A coverage check keeps the grid honest: every
//! mechanism it names must fire somewhere in it. Two ledger tests check
//! that work voided by a brown-out or a crash books the joules it drew,
//! and one that a run with no completions reports no per-query energy.

use edgereasoning::engine::cluster::BreakerConfig;
use edgereasoning::engine::engine::{EngineConfig, OomPolicy};
use edgereasoning::engine::{
    simulate_cluster, AdmissionConfig, ClusterConfig, ClusterReport, CrashConfig, Priority,
    PriorityMix, ServingConfig,
};
use edgereasoning::kernels::arch::ModelId;
use edgereasoning::kernels::dtype::Precision;
use edgereasoning::soc::faults::{DomainConfig, DomainKind};
use edgereasoning::soc::thermal::{BatteryConfig, GovernanceConfig, RechargeProfile};

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

/// The model every golden fleet serves.
const MODEL: ModelId = ModelId::Dsr1Qwen1_5b;

/// Run seeds: every fleet runs once per seed (columns of the grid).
const SEEDS: [u64; 2] = [11, 29];

/// An engine config whose KV budget holds `kv_tokens` tokens beside the
/// weights.
fn pressured(policy: OomPolicy, kv_tokens: u64) -> EngineConfig {
    let mut config = EngineConfig::vllm().with_oom_policy(policy);
    let arch = MODEL.arch();
    let budget = arch.weight_bytes(Precision::Fp16) + kv_tokens * arch.kv_bytes_per_token();
    config.memory_budget_frac = budget as f64 / config.soc.gpu.dram_capacity as f64;
    config
}

/// The fleets of the golden grid (rows):
///
/// 0. two replicas in crash weather, with hedging;
/// 1. three PreemptRecompute replicas under memory pressure sharing a
///    prompt prefix, with hedging and fault weather;
/// 2. three replicas, two of them behind a flaky network domain, with
///    breakers;
/// 3. three replicas under a power domain that crashes them and a thermal
///    domain that derates them, with degradation;
/// 4. two replicas behind priority admission with token buckets, an age
///    target and a bounded queue;
/// 5. two replicas on trickle-charged batteries, with hedging;
/// 6. two FailFast replicas under memory pressure, in crash weather, with
///    breakers;
/// 7. three replicas in fast crash weather with eager hedging;
/// 8. three replicas, two of them behind a flaky network domain, with
///    eager hedging;
/// 9. three replicas on trickle-charged batteries, with eager hedging.
///
/// Rows 7–9 void slots whose hedge twin is still live on another replica
/// (by crash, partition and brown-out respectively), so the twin keeps the
/// queries and nothing is requeued.
fn golden_fleets() -> Vec<(ClusterConfig, ServingConfig)> {
    let crashy = CrashConfig {
        mtbf_s: 25.0,
        mttr_s: 6.0,
        cold_start_s: 2.0,
    };
    let base = ServingConfig::new(3.0, 8, 80, 128, 96)
        .with_deadline(40.0)
        .with_retries(3, 0.5);
    let fleet = |n| ClusterConfig::new(n, EngineConfig::vllm());
    let battery = GovernanceConfig::default()
        .with_trip(10_000.0, 9_000.0)
        .with_battery(BatteryConfig {
            capacity_j: 120.0,
            recharge: RechargeProfile::Constant { watts: 5.0 },
            ..BatteryConfig::default()
        });
    vec![
        (fleet(2).with_crashes(crashy).with_hedging(0.8), base),
        (
            ClusterConfig::new(3, pressured(OomPolicy::PreemptRecompute, 800))
                .with_fault_intensity(2.0)
                .with_hedging(0.8)
                .with_shared_prefix((0..7).map(|b| 0x7e4d_0000 + b).collect()),
            ServingConfig::new(6.0, 8, 120, 128, 96)
                .with_deadline(40.0)
                .with_retries(3, 0.5),
        ),
        (
            fleet(3)
                .with_domains(vec![DomainConfig {
                    event_mtbf_s: 6.0,
                    event_duration_s: 4.0,
                    ..DomainConfig::quiet(DomainKind::Network, vec![0, 1])
                }])
                .with_breaker(BreakerConfig {
                    cooldown_s: 4.0,
                    half_open_probes: 1,
                    ..BreakerConfig::edge_default()
                }),
            ServingConfig {
                arrival_qps: 5.0,
                ..base
            },
        ),
        (
            fleet(3)
                .with_domains(vec![
                    DomainConfig {
                        crash_mtbf_s: 15.0,
                        crash_mttr_s: 3.0,
                        ..DomainConfig::quiet(DomainKind::Power, vec![0, 1])
                    },
                    DomainConfig {
                        event_mtbf_s: 8.0,
                        event_duration_s: 5.0,
                        ..DomainConfig::quiet(DomainKind::Thermal, vec![1, 2])
                    },
                ])
                .with_fault_intensity(1.0),
            ServingConfig {
                arrival_qps: 5.0,
                ..base
            }
            .with_degradation(true),
        ),
        (
            fleet(2)
                .with_fault_intensity(2.0)
                .with_breaker(BreakerConfig::edge_default()),
            ServingConfig {
                arrival_qps: 8.0,
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
            ClusterConfig::new(2, EngineConfig::vllm().with_governance(battery)).with_hedging(0.8),
            base,
        ),
        (
            ClusterConfig::new(2, pressured(OomPolicy::FailFast, 1600))
                .with_crashes(crashy)
                .with_breaker(BreakerConfig::edge_default()),
            base.with_degradation(true),
        ),
        (
            fleet(3)
                .with_crashes(CrashConfig {
                    mtbf_s: 10.0,
                    mttr_s: 4.0,
                    cold_start_s: 1.0,
                })
                .with_hedging(0.3),
            base,
        ),
        (
            fleet(3)
                .with_domains(vec![DomainConfig {
                    event_mtbf_s: 4.0,
                    event_duration_s: 4.0,
                    ..DomainConfig::quiet(DomainKind::Network, vec![0, 1])
                }])
                .with_hedging(0.3),
            base,
        ),
        (
            ClusterConfig::new(3, EngineConfig::vllm().with_governance(battery)).with_hedging(0.3),
            ServingConfig {
                arrival_qps: 5.0,
                ..base
            },
        ),
    ]
}

/// Every golden run: `(row, column, report)`.
fn golden_runs() -> Vec<(usize, usize, ClusterReport)> {
    let mut runs = Vec::new();
    for (row, (cluster, cfg)) in golden_fleets().iter().enumerate() {
        for (col, &seed) in SEEDS.iter().enumerate() {
            let report =
                simulate_cluster(cluster, MODEL, Precision::Fp16, cfg, seed).expect("golden fleet");
            runs.push((row, col, report));
        }
    }
    runs
}

/// Fingerprints of the full [`ClusterReport`] of each [`golden_fleets`]
/// run: row per fleet, column per seed of [`SEEDS`].
const GOLDEN: [[u64; 2]; 10] = [
    [0xf1f6_5ea6_1b1c_87a5, 0x1779_9064_7301_90d2],
    [0x7709_423f_9234_38e6, 0x0f45_50f7_8d1a_1ef5],
    [0x07a4_778e_b345_b705, 0x5e4b_3357_d1de_0f83],
    [0xaa0f_4bfd_67f2_e238, 0x2bab_7094_5031_698a],
    [0x6e67_58cb_589e_2c3d, 0xa219_14a8_18bb_7553],
    [0xaa39_89ad_06d8_f56c, 0x340b_beb6_9f58_29b0],
    [0x5f30_4f20_dc4f_e31e, 0x4f99_c7fd_e074_47bc],
    [0x3f72_07a9_ab30_c780, 0xc8f0_8cb8_de00_4ffc],
    [0xe4e1_5884_0b17_e1e4, 0x23a0_1d31_892e_5641],
    [0x832e_51b8_6f19_c513, 0xafae_476a_6186_2615],
];

#[test]
fn fleets_match_their_golden_fingerprints() {
    let mut mismatches = Vec::new();
    for (row, col, report) in golden_runs() {
        let (got, want) = (fingerprint(&report), GOLDEN[row][col]);
        if got != want {
            let seed = SEEDS[col];
            mismatches.push(format!(
                "fleet {row} seed {seed}: {got:#018x} != {want:#018x}"
            ));
        }
    }
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

/// The grid cannot go quiet: every mechanism it exists to pin fires in at
/// least one of its runs.
#[test]
fn every_fleet_mechanism_fires_in_the_grid() {
    let runs = golden_runs();
    let total = |f: fn(&ClusterReport) -> usize| runs.iter().map(|(_, _, r)| f(r)).sum::<usize>();
    let fired = [
        ("hedges fired", total(|r| r.hedges_fired)),
        ("hedges won", total(|r| r.hedge_wins)),
        ("crash-voided sequences", total(|r| r.crash_lost)),
        ("brown-outs", total(|r| r.brownout_events)),
        ("partition-voided sequences", total(|r| r.partition_voided)),
        ("breaker trips", total(|r| r.breaker_trips)),
        (
            "priority sheds",
            total(|r| {
                r.classes
                    .as_ref()
                    .map_or(0, |c| c.classes.iter().map(|k| k.shed).sum())
            }),
        ),
        ("preemptions", total(|r| r.fleet.preemptions)),
    ];
    let quiet: Vec<_> = fired.iter().filter(|(_, n)| *n == 0).collect();
    assert!(quiet.is_empty(), "mechanisms that never fired: {quiet:?}");
}

/// One replica on a 20 J battery that never recharges, serving one
/// query: it browns out during its only batch.
fn flat_battery_run() -> ClusterReport {
    let battery = GovernanceConfig::default()
        .with_trip(10_000.0, 9_000.0)
        .with_battery(BatteryConfig {
            capacity_j: 20.0,
            ..BatteryConfig::default()
        });
    let cluster = ClusterConfig::new(1, EngineConfig::vllm().with_governance(battery));
    let cfg = ServingConfig::new(2.0, 1, 1, 128, 512);
    simulate_cluster(&cluster, MODEL, Precision::Fp16, &cfg, 7).expect("runs")
}

/// A brown-out voids the batch it interrupts, and the joules that batch
/// drew are booked: the flat battery's report books some energy, and no
/// more than the governor saw the device draw.
#[test]
fn brownout_voided_work_books_its_joules() {
    let report = flat_battery_run();
    let drawn_j = report.governance.expect("governed").energy_drawn_j;
    assert!(report.brownout_events > 0, "the battery never browned out");
    assert!(
        report.fleet_energy_j > 0.0 && report.fleet_energy_j <= drawn_j,
        "booked {} J of the {drawn_j} J drawn",
        report.fleet_energy_j
    );
}

/// A run in which nothing completed is not free: the flat battery's only
/// query fails after drawing real joules, and with no completion to share
/// them the per-query energy reads NaN, as the latency percentiles do.
#[test]
fn a_run_with_no_completions_has_no_energy_per_query() {
    let report = flat_battery_run();
    assert_eq!(report.fleet.completed, 0, "the query completed");
    assert!(report.fleet_energy_j > 0.0, "no joules were booked");
    let per_query = report.fleet.energy_per_query_j;
    assert!(per_query.is_nan(), "energy per query {per_query} J");
}

/// Crash-voided work is booked beside the completions: with crashes that
/// void sequences, the fleet's energy exceeds what its completed queries
/// (the class breakdown) account for by more than summation rounding.
#[test]
fn crash_voided_work_books_its_joules() {
    let cluster = ClusterConfig::new(2, EngineConfig::vllm()).with_crashes(CrashConfig {
        mtbf_s: 25.0,
        mttr_s: 10.0,
        cold_start_s: 5.0,
    });
    let cfg = ServingConfig::new(1.5, 8, 40, 128, 128)
        .with_retries(4, 0.5)
        .with_admission(AdmissionConfig::fifo(PriorityMix::EDGE_MIX, 1));
    let report = simulate_cluster(&cluster, MODEL, Precision::Fp16, &cfg, 11).expect("runs");
    let completed_j: f64 = report
        .classes
        .expect("admission control reports classes")
        .classes
        .iter()
        .map(|c| c.energy_j)
        .sum();
    assert!(report.crash_lost > 0, "no crash voided any work");
    assert!(
        report.fleet_energy_j > completed_j * (1.0 + 1e-9),
        "booked {} J, completions alone {completed_j} J",
        report.fleet_energy_j
    );
}
