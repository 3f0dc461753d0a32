//! Thermal + energy-budget governance study: what closed-loop thermal
//! throttling and battery brown-outs do to edge serving (`soc::thermal`
//! threaded through the engine's serving loops and `engine::cluster`).
//!
//! Three scenarios, one CSV:
//!
//! * `soak` — a sustained Poisson load per power mode on a fanless
//!   enclosure (small thermal mass, tau = 12 s). The 15/30 W envelopes
//!   settle below the 70 °C trip point; 50 W and MAXN cross it, the
//!   governor forces DVFS down-steps, and decode lengthens — emergent
//!   derate onset, not a scripted fault.
//! * `battery` — a battery-constrained duty cycle on a one-replica fleet:
//!   the same load against no recharge, a 5 W trickle charger, and a
//!   solar half-sine. Brown-outs void in-flight work into the failover
//!   machinery and the device resumes once charge passes `resume_frac`.
//! * `heatwave` — "survive the heat wave": a three-replica fleet at 30 W
//!   under an ambient ramp. At 0 °C/s nothing trips; as the ramp steepens
//!   every replica is pushed over the trip point and the fleet's SLO
//!   attainment decays while time-above-trip grows.
//!
//! Accuracy is the paper's MMLU-Redux accuracy law evaluated at the mean
//! generated tokens per completed query, so token truncation under
//! degraded serving shows up as lost points. Writes
//! `outputs/thermal_study.csv` (`--smoke`: a reduced grid to
//! `outputs/thermal_study_smoke.csv`, byte-identical across reruns and
//! worker-thread counts).

use edgereasoning_bench::TableWriter;
use edgereasoning_engine::cluster::{simulate_cluster, ClusterConfig};
use edgereasoning_engine::engine::{EngineConfig, InferenceEngine};
use edgereasoning_engine::serving::{simulate_serving_continuous, ServingConfig, ServingReport};
use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_models::accuracy::effective_law;
use edgereasoning_soc::spec::PowerMode;
use edgereasoning_soc::thermal::{
    BatteryConfig, GovernanceConfig, GovernanceStats, RechargeProfile, ThermalConfig,
};
use edgereasoning_workloads::suite::Benchmark;

const SEED: u64 = 0x7e84;
const MODEL: ModelId = ModelId::Dsr1Qwen1_5b;
const PREC: Precision = Precision::Fp16;

/// Fanless-enclosure thermal mass: tau = 12 s, so a minute-scale soak
/// reaches steady state (the default 120 s tau models a heatsinked Orin).
fn fanless() -> ThermalConfig {
    ThermalConfig {
        c_j_per_c: 8.6,
        ..ThermalConfig::default()
    }
}

/// Study trip point. The 1.5B model's duty-cycled draw peaks well below a
/// heatsinked Orin's 70 °C limit, so the study models a sealed outdoor
/// box: the 15 W envelope settles under 40 °C, 30 W hovers at the edge,
/// and 50 W / MAXN burst past it.
const TRIP_C: f64 = 40.0;
const RELEASE_C: f64 = 36.0;

#[derive(Debug, Clone)]
enum Cell {
    /// Sustained-load soak at one power envelope, single device.
    Soak { mode: PowerMode },
    /// Battery-constrained duty cycle, one-replica fleet.
    Battery {
        label: &'static str,
        recharge: RechargeProfile,
    },
    /// Ambient-ramp fleet study, three replicas at 30 W.
    HeatWave { ramp_c_per_s: f64 },
}

struct Outcome {
    scenario: &'static str,
    cell: String,
    report: ServingReport,
    governance: GovernanceStats,
    availability: f64,
    brownout_events: usize,
}

fn serving(queries: usize) -> ServingConfig {
    ServingConfig::new(2.5, 8, queries, 128, 128)
        .with_deadline(60.0)
        .with_retries(2, 0.5)
}

fn run_cell(cell: &Cell, queries: usize) -> Outcome {
    match *cell {
        Cell::Soak { mode } => {
            let gov = GovernanceConfig {
                thermal: fanless(),
                ..GovernanceConfig::default()
            }
            .with_trip(TRIP_C, RELEASE_C);
            let mut engine_cfg = EngineConfig::vllm().with_governance(gov);
            engine_cfg.mode = mode;
            let mut engine = InferenceEngine::new(engine_cfg, SEED);
            let report =
                simulate_serving_continuous(&mut engine, MODEL, PREC, &serving(queries), SEED)
                    .expect("soak must not abort");
            Outcome {
                scenario: "soak",
                cell: format!("{mode:?}"),
                report,
                governance: engine.governance_stats().expect("governance enabled"),
                availability: 1.0,
                brownout_events: 0,
            }
        }
        Cell::Battery { label, recharge } => {
            let battery = BatteryConfig {
                capacity_j: 120.0,
                recharge,
                ..BatteryConfig::default()
            };
            // Thermal path inert (huge trip) so the battery is the only
            // governor: the duty cycle is charge-driven, not heat-driven.
            let gov = GovernanceConfig {
                thermal: fanless(),
                ..GovernanceConfig::default()
            }
            .with_trip(10_000.0, 9_000.0)
            .with_battery(battery);
            let cluster = ClusterConfig::new(1, EngineConfig::vllm().with_governance(gov));
            let r = simulate_cluster(&cluster, MODEL, PREC, &serving(queries), SEED)
                .expect("battery cells must not abort");
            Outcome {
                scenario: "battery",
                cell: label.to_string(),
                report: r.fleet,
                governance: r.governance.expect("governance enabled"),
                availability: r.availability,
                brownout_events: r.brownout_events,
            }
        }
        Cell::HeatWave { ramp_c_per_s } => {
            let gov = GovernanceConfig {
                thermal: ThermalConfig {
                    ambient_ramp_c_per_s: ramp_c_per_s,
                    ..fanless()
                },
                ..GovernanceConfig::default()
            }
            .with_trip(TRIP_C, RELEASE_C);
            let mut engine_cfg = EngineConfig::vllm().with_governance(gov);
            engine_cfg.mode = PowerMode::W30;
            let cluster = ClusterConfig::new(3, engine_cfg);
            let r = simulate_cluster(&cluster, MODEL, PREC, &serving(queries), SEED)
                .expect("heat-wave cells must not abort");
            Outcome {
                scenario: "heatwave",
                cell: format!("{ramp_c_per_s:.2}C_per_s"),
                report: r.fleet,
                governance: r.governance.expect("governance enabled"),
                availability: r.availability,
                brownout_events: r.brownout_events,
            }
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let queries = if smoke { 12 } else { 48 };

    let mut cells: Vec<Cell> = Vec::new();
    let modes: &[PowerMode] = if smoke {
        &[PowerMode::W15, PowerMode::MaxN]
    } else {
        &[
            PowerMode::W15,
            PowerMode::W30,
            PowerMode::W50,
            PowerMode::MaxN,
        ]
    };
    for &mode in modes {
        cells.push(Cell::Soak { mode });
    }
    let recharges: &[(&str, RechargeProfile)] = if smoke {
        &[("trickle_5w", RechargeProfile::Constant { watts: 5.0 })]
    } else {
        &[
            ("none", RechargeProfile::None),
            ("trickle_5w", RechargeProfile::Constant { watts: 5.0 }),
            (
                "solar_20w_60s",
                RechargeProfile::Solar {
                    peak_w: 20.0,
                    period_s: 60.0,
                },
            ),
        ]
    };
    for &(label, recharge) in recharges {
        cells.push(Cell::Battery { label, recharge });
    }
    let ramps: &[f64] = if smoke { &[0.75] } else { &[0.0, 0.25, 0.75] };
    for &ramp_c_per_s in ramps {
        cells.push(Cell::HeatWave { ramp_c_per_s });
    }

    eprintln!("running {} thermal-governance cells", cells.len());
    // Cells run sequentially: each is itself a full fleet simulation, and
    // every cell is seeded — reports are bit-identical across runs and
    // machines regardless of worker threads.
    let results: Vec<Outcome> = cells.iter().map(|c| run_cell(c, queries)).collect();

    let law = effective_law(MODEL, Benchmark::MmluRedux, PREC);
    let difficulty = Benchmark::MmluRedux.params().difficulty_mean;

    let mut table = TableWriter::new(
        "Thermal/battery governance — derate onset, duty cycles, heat waves (128/128 tokens)",
        &[
            "scenario",
            "cell",
            "completed",
            "failed",
            "shed",
            "slo_attainment",
            "avg_latency_s",
            "J_per_query",
            "accuracy_pct",
            "peak_temp_c",
            "time_above_trip_s",
            "throttle_steps",
            "brownouts",
            "availability",
            "wall_s",
        ],
    );
    for out in &results {
        let r = &out.report;
        let tokens_per_query = if r.completed > 0 {
            r.total_tokens / r.completed as f64
        } else {
            0.0
        };
        let accuracy_pct = 100.0 * law.solve_prob(tokens_per_query, difficulty);
        table.row(&[
            out.scenario.to_string(),
            out.cell.clone(),
            format!("{}", r.completed),
            format!("{}", r.failed_queries),
            format!("{}", r.shed_queries),
            format!("{:.3}", r.slo_attainment),
            format!("{:.2}", r.avg_latency_s),
            format!("{:.1}", r.energy_per_query_j),
            format!("{:.1}", accuracy_pct),
            format!("{:.1}", out.governance.peak_temp_c),
            format!("{:.1}", out.governance.time_above_trip_s),
            format!("{}", out.governance.throttle_steps),
            format!("{}", out.brownout_events),
            format!("{:.3}", out.availability),
            format!("{:.1}", r.wall_s),
        ]);
    }
    table.print();
    table.write_csv(if smoke {
        "thermal_study_smoke"
    } else {
        "thermal_study"
    });

    // Headline: the soak's emergent derate onset by power envelope.
    for out in results.iter().filter(|o| o.scenario == "soak") {
        println!(
            "soak @ {}: peak {:.1} C, {:.1} s above trip, {} down-steps, \
             avg latency {:.2} s",
            out.cell,
            out.governance.peak_temp_c,
            out.governance.time_above_trip_s,
            out.governance.throttle_steps,
            out.report.avg_latency_s,
        );
    }
}
