//! Serving study: static gang scheduling vs continuous (iteration-level)
//! batching across arrival rate × model, under a per-query deadline.
//!
//! Each cell replays the same Poisson query stream (identical arrival RNG)
//! through the one serving loop on identically-seeded engines, once under
//! each of its two admission rules ([`SchedulerKind`]):
//!
//! * `static` — gang scheduling: a busy device has no room, so admitted
//!   batches run to completion before the next admission, and a query
//!   arriving just after a batch starts waits out the whole batch service
//!   time.
//! * `continuous` — ready queries join the running batch at the next
//!   decode-iteration boundary
//!   ([`BatchStepper`](edgereasoning_engine::stepper::BatchStepper)).
//!
//! The headline: at moderate-to-high load the continuous scheduler
//! sustains strictly higher goodput (completed queries per wall second) at
//! equal-or-better SLO attainment, and cuts p99 queueing latency, at the
//! same energy per query — the work per token is unchanged; only the
//! waiting moves.
//!
//! Writes `outputs/serving_study.csv` (`--smoke` runs a tiny single-model
//! grid and writes `outputs/serving_study_smoke.csv` instead, for CI).

use edgereasoning_bench::TableWriter;
use edgereasoning_engine::engine::{EngineConfig, InferenceEngine};
use edgereasoning_engine::plan_cache::EngineCounters;
use edgereasoning_engine::serving::{
    simulate_serving_with, SchedulerKind, ServingConfig, ServingReport,
};
use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_soc::runtime::{available_threads, item_seed, par_map_deterministic};

const SEED: u64 = 0x5e53;
const MAX_BATCH: usize = 8;

#[derive(Debug, Clone, Copy)]
struct Cell {
    model: ModelId,
    qps: f64,
    deadline_s: f64,
    scheduler: SchedulerKind,
    queries: usize,
    /// Seed shared by both schedulers of one (model, qps) point so they
    /// face identical arrival streams and engine noise.
    pair_seed: u64,
}

fn run_cell(cell: &Cell) -> (ServingReport, EngineCounters) {
    let mut engine = InferenceEngine::new(EngineConfig::vllm(), cell.pair_seed);
    let cfg = ServingConfig::new(cell.qps, MAX_BATCH, cell.queries, 128, 128)
        .with_deadline(cell.deadline_s);
    let report = simulate_serving_with(
        cell.scheduler,
        &mut engine,
        cell.model,
        Precision::Fp16,
        &cfg,
        SEED,
    )
    .expect("serving simulation must not abort");
    (report, engine.counters())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // (model, qps grid, deadline) — rates and deadlines scale with model
    // size so every model sweeps from light load into saturation.
    let grids: &[(ModelId, &[f64], f64)] = if smoke {
        &[(ModelId::Dsr1Qwen1_5b, &[1.0], 20.0)]
    } else {
        &[
            (ModelId::Dsr1Qwen1_5b, &[0.25, 0.5, 1.0, 1.5], 20.0),
            (ModelId::Dsr1Llama8b, &[0.05, 0.1, 0.2, 0.3], 90.0),
        ]
    };
    let queries = if smoke { 12 } else { 48 };

    let mut cells = Vec::new();
    for (mi, &(model, qps_grid, deadline_s)) in grids.iter().enumerate() {
        for (qi, &qps) in qps_grid.iter().enumerate() {
            let pair_seed = item_seed(SEED, (mi * 100 + qi) as u64);
            for scheduler in [SchedulerKind::Static, SchedulerKind::Continuous] {
                cells.push(Cell {
                    model,
                    qps,
                    deadline_s,
                    scheduler,
                    queries,
                    pair_seed,
                });
            }
        }
    }

    eprintln!(
        "running {} serving cells on {} worker threads",
        cells.len(),
        available_threads()
    );
    let results = par_map_deterministic(&cells, 0, |_, cell| run_cell(cell));

    let mut table = TableWriter::new(
        "Serving — static vs continuous batching under deadline SLO (128/128 tokens)",
        &[
            "model",
            "scheduler",
            "offered_qps",
            "completed",
            "shed",
            "deadline_misses",
            "slo_attainment",
            "achieved_qps",
            "avg_batch",
            "p99_latency_s",
            "avg_queue_wait_s",
            "p99_queue_wait_s",
            "J_per_query",
            "wall_s",
        ],
    );
    let mut counters = EngineCounters::default();
    for (cell, (r, c)) in cells.iter().zip(&results) {
        counters.absorb(c);
        table.row(&[
            cell.model.to_string(),
            cell.scheduler.to_string(),
            format!("{:.2}", cell.qps),
            format!("{}", r.completed),
            format!("{}", r.shed_queries),
            format!("{}", r.deadline_misses),
            format!("{:.3}", r.slo_attainment),
            format!("{:.4}", r.achieved_qps),
            format!("{:.2}", r.avg_batch),
            format!("{:.2}", r.p99_latency_s),
            format!("{:.3}", r.avg_queue_wait_s),
            format!("{:.3}", r.p99_queue_wait_s),
            format!("{:.1}", r.energy_per_query_j),
            format!("{:.1}", r.wall_s),
        ]);
    }
    table.print();
    table.write_csv(if smoke {
        "serving_study_smoke"
    } else {
        "serving_study"
    });

    // The headline comparison: at every (model, qps) point the continuous
    // scheduler should sustain at least the static goodput and SLO while
    // cutting tail queueing latency.
    for pair in results.chunks(2).zip(cells.chunks(2)) {
        let ([(st, _), (co, _)], [cell, _]) = pair else {
            unreachable!("cells come in static/continuous pairs");
        };
        println!(
            "{} @ {:.2} qps: goodput {:.4} -> {:.4} q/s, SLO {:.3} -> {:.3}, \
             p99 queue wait {:.2} -> {:.2} s, energy/query {:.1} -> {:.1} J",
            cell.model,
            cell.qps,
            st.achieved_qps,
            co.achieved_qps,
            st.slo_attainment,
            co.slo_attainment,
            st.p99_queue_wait_s,
            co.p99_queue_wait_s,
            st.energy_per_query_j,
            co.energy_per_query_j,
        );
    }
    println!("engine {counters}");
}
