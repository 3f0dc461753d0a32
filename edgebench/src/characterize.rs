//! `characterize`: the paper's characterization sweep — cell reports over
//! every benchmark × DeepSeek-R1 model × reasoning prompt config (plus the
//! W4A16 Base cells and the Fig. 9 parallel-scaling cells), then the
//! latency- and cost-accuracy Pareto frontiers.
//!
//! The seed moves the simulated device's measurement noise; the question
//! sets are the fixed benchmark datasets. Every cell gets a fresh rig, so
//! the rig re-characterizes its model: the plan cache mostly misses, and
//! kernel lowering, the roofline, `models::evaluate` sampling and the
//! `core` fits do the work. The DES, router, sketches and prefix cache
//! are not reached.

use std::time::Instant;

use edgereasoning_core::planner::{ConfigPoint, Planner};
use edgereasoning_core::rig::{CellReport, Rig, RigConfig};
use edgereasoning_core::study::{Study, StudyCell};
use edgereasoning_engine::engine::EngineConfig;
use edgereasoning_engine::plan_cache::EngineCounters;
use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_models::anchors;
use edgereasoning_models::evaluate::EvalOptions;
use edgereasoning_soc::runtime::item_seed;
use edgereasoning_workloads::prompt::PromptConfig;
use edgereasoning_workloads::suite::Benchmark;

use crate::harness::{fingerprint, paper_dev_pct, secs_since};
use crate::layers::{ratio, PerLayer};
use crate::ledger::{Ledger, Tracer};
use crate::probe;
use crate::{Batch, Scale, Traced, Workload};

/// Fig. 9 parallel scaling factors (SF 1 is the sweep itself).
const SCALING_FACTORS: [usize; 5] = [2, 4, 8, 16, 32];
/// Fig. 9 models.
const SCALING_MODELS: [ModelId; 3] = [ModelId::Dsr1Qwen1_5b, ModelId::Dsr1Qwen14b, ModelId::L1Max];
/// Fig. 9 hard token budgets.
const SCALING_BUDGETS: [u32; 2] = [128, 512];
/// Fits per first-time characterization of a (model, precision) on a rig:
/// `characterize_latency` fits prefill and decode latency,
/// `characterize_power` fits prefill and decode power.
const FITS_PER_RIG: u64 = 4;

/// The rig configuration for `seed`: the seed of the simulated device's
/// measurement noise. Seed 0 is the repository default.
pub fn rig_config(seed: u64) -> RigConfig {
    let default = RigConfig::default();
    let seed = default.seed ^ seed;
    default.with_seed(seed)
}

/// Evaluation options, single-threaded, at the seed the calibration
/// anchors were fixed at. The benchmark question sets are fixed datasets,
/// as in the paper, so the workload seed does not move them.
pub fn eval_options() -> EvalOptions {
    EvalOptions::default().with_threads(1)
}

/// `(ours, paper)` pairs for every metric the paper reports for `r`'s cell.
fn anchor_pairs(r: &CellReport) -> Vec<(f64, f64)> {
    let Some(row) = anchors::find(r.model, r.bench, r.config, r.precision) else {
        return Vec::new();
    };
    let mut pairs = vec![
        (r.eval.accuracy_pct, row.acc_pct),
        (r.eval.avg_tokens_per_seq, row.avg_tokens),
    ];
    if let Some(lat) = row.avg_latency_s {
        pairs.push((r.avg_latency_s, lat));
    }
    if let Some(cost) = row.cost_per_mtok {
        pairs.push((r.cost.energy, cost));
    }
    pairs
}

/// Median deviation from the paper over `reports`' anchored cells.
pub fn reports_paper_dev_pct(reports: &[CellReport]) -> Option<f64> {
    let pairs: Vec<(f64, f64)> = reports.iter().flat_map(anchor_pairs).collect();
    paper_dev_pct(&pairs)
}

/// Characterizes the model a serving workload deploys (DSR1-Qwen-1.5B,
/// FP16, MMLU-Redux Base — a Table X row) at the calibration seed and
/// returns its deviation from the paper: the fidelity of what the fleet
/// serves. The served model does not depend on the traffic seed.
pub fn served_model_paper_dev() -> f64 {
    let mut rig = Rig::new(rig_config(0));
    let report = rig.cell_report(
        ModelId::Dsr1Qwen1_5b,
        Precision::Fp16,
        Benchmark::MmluRedux,
        PromptConfig::Base,
        eval_options(),
    );
    reports_paper_dev_pct(&[report]).expect("the served cell has a Table X row")
}

/// One group of cells evaluated with the same options.
struct Group {
    opts: EvalOptions,
    cells: Vec<StudyCell>,
}

pub struct Characterize {
    study: Study,
    groups: Vec<Group>,
}

/// What one pass produced.
struct Output {
    reports: Vec<CellReport>,
    /// Evaluated samples per question of each report (its group's SF).
    parallel: Vec<usize>,
    /// Reports of the SF 1 sweep (the anchored cells).
    sweep_len: usize,
    counters: EngineCounters,
    frontiers: Vec<ConfigPoint>,
}

impl Characterize {
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let (benches, factors, subset): (&[Benchmark], &[usize], Option<usize>) = match scale {
            Scale::Full => (&Benchmark::ALL, &SCALING_FACTORS, None),
            Scale::Smoke => (&Benchmark::ALL[..1], &SCALING_FACTORS[..1], Some(60)),
        };
        let mut opts = eval_options();
        if let Some(n) = subset {
            opts = opts.with_subset(n);
        }
        let mut sweep = Vec::new();
        for &bench in benches {
            for model in ModelId::DSR1 {
                for config in PromptConfig::REASONING_SWEEP {
                    sweep.push(StudyCell::new(model, Precision::Fp16, bench, config));
                }
                sweep.push(StudyCell::new(
                    model,
                    Precision::W4A16,
                    bench,
                    PromptConfig::Base,
                ));
            }
        }
        let mut groups = vec![Group { opts, cells: sweep }];
        for &sf in factors {
            let mut cells = Vec::new();
            for budget in SCALING_BUDGETS {
                for model in SCALING_MODELS {
                    cells.push(StudyCell::new(
                        model,
                        Precision::Fp16,
                        Benchmark::MmluRedux,
                        PromptConfig::Hard(budget),
                    ));
                }
            }
            groups.push(Group {
                opts: opts.with_parallel(sf),
                cells,
            });
        }
        let study = Study::new(rig_config(seed)).with_threads(1);
        let wl = Self { study, groups };
        if let Scale::Full = scale {
            // Warm-up: page in code and allocator arenas on a smoke pass.
            Self::setup(seed, Scale::Smoke).run();
        }
        wl
    }

    fn frontiers(reports: &[CellReport], parallel: &[usize]) -> Vec<ConfigPoint> {
        let planner = Planner::new(
            reports
                .iter()
                .zip(parallel)
                .map(|(r, &sf)| ConfigPoint {
                    model: r.model,
                    precision: r.precision,
                    config: r.config,
                    parallel: sf,
                    accuracy_pct: r.eval.accuracy_pct,
                    latency_s: r.avg_latency_s,
                    cost_per_mtok: r.cost.energy,
                    avg_tokens: r.eval.avg_tokens_per_seq,
                })
                .collect(),
        );
        let mut out: Vec<ConfigPoint> = planner.latency_frontier().into_iter().copied().collect();
        out.extend(planner.cost_frontier().into_iter().copied());
        out
    }

    fn batch(&self, out: &Output) -> Batch {
        let (mut samples, mut unanswered, mut questions, mut correct) = (0.0, 0.0, 0.0, 0.0);
        for (r, &sf) in out.reports.iter().zip(&out.parallel) {
            let n = r.eval.n_questions as f64;
            samples += n * sf as f64;
            unanswered += r.eval.unanswered_frac * n * sf as f64;
            questions += n;
            correct += r.eval.accuracy_pct / 100.0 * n;
        }
        let mut violations = Vec::new();
        let expected: usize = self.groups.iter().map(|g| g.cells.len()).sum();
        if out.reports.len() != expected {
            violations.push(format!(
                "{} reports for {expected} cells",
                out.reports.len()
            ));
        }
        if out.counters.cache_misses == 0 {
            violations.push("coverage: the sweep never missed the plan cache".into());
        }
        if let Some(r) = out
            .reports
            .iter()
            .find(|r| !(r.avg_latency_s.is_finite() && r.avg_latency_s > 0.0))
        {
            violations.push(format!("non-positive latency in cell {r:?}"));
        }
        if out.frontiers.is_empty() {
            violations.push("empty Pareto frontier".into());
        }
        let paper = reports_paper_dev_pct(&out.reports[..out.sweep_len]);
        if paper.is_none() {
            violations.push("no anchored cell in the sweep".into());
        }
        Batch {
            sim_requests: samples as u64,
            cells: out.reports.len() as u64,
            sim_fail_frac: ratio(unanswered, samples),
            sim_slo_attainment: ratio(correct, questions),
            paper_dev_pct: paper.unwrap_or(f64::NAN),
            fingerprint: fingerprint(&(&out.reports, &out.frontiers, &out.counters)),
            violations,
        }
    }

    /// The shapes the sweep's rigs lower on a plan-cache miss, once per
    /// cell, so each model and precision weighs as many rigs as use it.
    fn miss_shapes(&self) -> Vec<probe::PhaseShape> {
        self.groups
            .iter()
            .flat_map(|g| &g.cells)
            .flat_map(|c| probe::sweep_shapes(c.model, c.precision))
            .collect()
    }
}

impl Workload for Characterize {
    fn run(&self) -> Batch {
        let mut out = Output {
            reports: Vec::new(),
            parallel: Vec::new(),
            sweep_len: self.groups[0].cells.len(),
            counters: EngineCounters::default(),
            frontiers: Vec::new(),
        };
        for g in &self.groups {
            let report = self.study.run(&g.cells, g.opts);
            out.counters.absorb(&report.counters);
            out.parallel
                .extend(std::iter::repeat_n(g.opts.parallel, report.reports.len()));
            out.reports.extend(report.reports);
        }
        out.frontiers = Self::frontiers(&out.reports, &out.parallel);
        self.batch(&out)
    }

    /// The same pass as [`Workload::run`], with the study loop unrolled
    /// here (per cell: the rig seeded as `Study` seeds it) so spans can
    /// sit around each layer: the rig's latency and power
    /// characterization, then the cell report — which with warm fits is
    /// `models::evaluate` plus O(1) model predictions — then the planner.
    fn trace(&self) -> Traced {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let mut out = Output {
            reports: Vec::new(),
            parallel: Vec::new(),
            sweep_len: self.groups[0].cells.len(),
            counters: EngineCounters::default(),
            frontiers: Vec::new(),
        };
        let mut rigs = 0u64;
        for g in &self.groups {
            for (idx, c) in g.cells.iter().enumerate() {
                let seed = item_seed(self.study.config().seed, idx as u64);
                let mut rig = Rig::new(self.study.config().clone().with_seed(seed));
                t.span("rig.characterize", |_| {
                    rig.characterize_latency(c.model, c.precision);
                    rig.characterize_power(c.model, c.precision);
                });
                rigs += 1;
                let report = t.span("evaluate", |_| {
                    rig.cell_report(c.model, c.precision, c.bench, c.config, g.opts)
                });
                out.counters.absorb(&rig.engine_mut().counters());
                out.reports.push(report);
                out.parallel.push(g.opts.parallel);
            }
        }
        out.frontiers = t.span("planner.frontier", |_| {
            Self::frontiers(&out.reports, &out.parallel)
        });
        let wall_s = secs_since(t0);
        let batch = self.batch(&out);

        let cfg = EngineConfig::vllm();
        let shapes = self.miss_shapes();
        let (lower_ns, roofline_ns) =
            probe::miss_ns(&shapes, probe::phase_counts(&out.counters), &cfg);
        let c = &out.counters;
        let lookups = (c.cache_hits + c.cache_misses) as f64;
        let mut l = PerLayer {
            evaluate_self_s: t.totals("evaluate").self_s,
            evaluate_samples: batch.sim_requests as f64,
            rig_characterize_s: t.totals("rig.characterize").total_s,
            fit_count: (rigs * FITS_PER_RIG) as f64,
            planner_frontier_s: t.totals("planner.frontier").total_s,
            kernels_lower_ns: lower_ns,
            roofline_phase_ns: roofline_ns,
            plan_cache_misses: c.cache_misses as f64,
            plan_cache_lookups: lookups,
            plan_cache_hit_rate: c.hit_rate(),
            plan_cache_get_ns: probe::plan_cache_get_ns(&shapes, &cfg),
            ..PerLayer::default()
        };
        let lower_s = l.kernels_lower_ns * 1e-9 * l.plan_cache_misses;
        let roofline_s = l.roofline_phase_ns * 1e-9 * l.plan_cache_misses;
        let get_s = l.plan_cache_get_ns * 1e-9 * lookups;
        let mut ledger = Ledger::new(wall_s);
        ledger.span("evaluate", l.evaluate_self_s);
        // The plan cache, lowering and roofline run inside the rig spans.
        ledger.span(
            "rig.characterize (self)",
            t.totals("rig.characterize").self_s - lower_s - roofline_s - get_s,
        );
        ledger.attributed("kernels.lower", lower_s);
        ledger.attributed("roofline.phase", roofline_s);
        ledger.attributed("plan_cache.get", get_s);
        ledger.span("planner.frontier", t.totals("planner.frontier").self_s);
        l.close(&ledger, |l| &mut l.characterize_residual_s);
        Traced {
            batch,
            ledger,
            layers: l,
            residual: "characterize.residual_s",
        }
    }
}
