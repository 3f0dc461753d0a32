//! `agent_sessions`: a session-heavy trace (3.5k multi-turn sessions,
//! ~24k turns with growing contexts, per part; four parts to a run, so
//! ~14k sessions in all) through the session serving loop on one
//! DSR1-Qwen-1.5B device with prefix caching on.
//!
//! Exercises the prefix cache for reads and writes (hits, inserts and
//! evictions), lazy session generation, and plan-cache misses between the
//! other two workloads (prompt shapes vary). Router, hedging and
//! admission control are not reached.

use std::time::Instant;

use edgereasoning_engine::audit_serving;
use edgereasoning_engine::engine::{EngineConfig, InferenceEngine};
use edgereasoning_engine::plan_cache::EngineCounters;
use edgereasoning_engine::serving::ServingConfig;
use edgereasoning_engine::session::{
    simulate_serving_sessions, SessionConfig, SessionReport, SessionRequest,
};
use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_soc::runtime::item_seed;
use edgereasoning_workloads::session::SessionMixConfig;

use crate::characterize::served_model_paper_dev;
use crate::harness::{fingerprint, secs_since};
use crate::layers::{ratio, PerLayer};
use crate::ledger::{Ledger, Tracer};
use crate::probe;
use crate::{Batch, Scale, Traced, Workload};

const MODEL: ModelId = ModelId::Dsr1Qwen1_5b;
const PREC: Precision = Precision::Fp16;
const MAX_BATCH: usize = 8;
/// Interactive agent turns: a turn older than this is shed or misses.
const DEADLINE_S: f64 = 15.0;
/// Session starts per second: just below the cached device's capacity,
/// where bursts overflow the deadline (~4% shed, ~68% SLO attainment)
/// but the backlog does not grow.
const SESSION_QPS: f64 = 0.16;
/// Turns replayed through the prefix-cache price (the trace's head).
const ACQUIRE_PROBE_TURNS: usize = 20_000;

pub struct AgentSessions {
    engine_seed: u64,
    mix: SessionMixConfig,
    cfg: SessionConfig,
    paper_dev_pct: f64,
    guarded: bool,
}

/// One run's report, engine counters and the number of turns the trace fed.
struct Run {
    report: SessionReport,
    counters: EngineCounters,
    fed: usize,
}

fn request(t: edgereasoning_workloads::session::SessionTurn) -> SessionRequest {
    SessionRequest {
        arrival_s: t.arrival_s,
        prompt_tokens: t.prompt_tokens,
        output_tokens: t.output_tokens,
        prefix: t.prefix,
    }
}

impl AgentSessions {
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let sessions = match scale {
            Scale::Full => 3_500,
            Scale::Smoke => 150,
        };
        let mix = SessionMixConfig::session_heavy(SESSION_QPS, sessions, item_seed(seed, 1));
        mix.validate().expect("preset mix is valid");
        let cfg = SessionConfig::new(MAX_BATCH)
            .with_deadline(DEADLINE_S)
            .with_prefix_caching(true);
        cfg.validate().expect("session config is valid");
        let wl = Self {
            engine_seed: item_seed(seed, 2),
            mix,
            cfg,
            paper_dev_pct: served_model_paper_dev(),
            guarded: matches!(scale, Scale::Full),
        };
        if wl.guarded {
            Self::setup(seed, Scale::Smoke).run();
        }
        wl
    }

    /// Runs the trace; `tracer` (when given) times every call into the
    /// session generator.
    fn simulate(&self, mut tracer: Option<&mut Tracer>) -> Run {
        let mut engine = InferenceEngine::new(EngineConfig::vllm(), self.engine_seed);
        let mut turns = self.mix.generate();
        let mut fed = 0usize;
        let report = simulate_serving_sessions(&mut engine, MODEL, PREC, &self.cfg, || {
            let next = match tracer.as_deref_mut() {
                Some(t) => t.span("session_gen", |_| turns.next()),
                None => turns.next(),
            };
            fed += usize::from(next.is_some());
            next.map(request)
        })
        .expect("session simulation runs");
        Run {
            report,
            counters: engine.counters(),
            fed,
        }
    }

    /// The session ledger: every fed turn completed, shed or failed
    /// exactly once, and the prefix counters are consistent.
    fn audit(&self, run: &Run) -> Vec<String> {
        let r = &run.report;
        let offered = ServingConfig::new(1.0, MAX_BATCH, run.fed.max(1), 1, 1);
        let mut v = audit_serving(&offered, &r.serving);
        if r.offered != run.fed {
            v.push(format!(
                "report offers {} turns, the trace fed {}",
                r.offered, run.fed
            ));
        }
        if r.cached_prompt_tokens > r.admitted_prompt_tokens {
            v.push("cached prompt tokens exceed admitted prompt tokens".into());
        }
        if r.prefix.evicted_blocks > r.prefix.inserted_blocks {
            v.push("prefix cache evicted more blocks than it inserted".into());
        }
        v
    }

    fn batch(&self, run: &Run, mut violations: Vec<String>) -> Batch {
        let r = &run.report;
        if self.guarded && r.prefix.evicted_blocks == 0 {
            violations.push("coverage: the prefix cache never evicted".into());
        }
        let s = &r.serving;
        Batch {
            sim_requests: run.fed as u64,
            cells: 1,
            sim_fail_frac: ratio((s.shed_queries + s.failed_queries) as f64, r.offered as f64),
            sim_slo_attainment: s.slo_attainment,
            paper_dev_pct: self.paper_dev_pct,
            fingerprint: fingerprint(&(r, &run.counters)),
            violations,
        }
    }
}

impl Workload for AgentSessions {
    fn run(&self) -> Batch {
        let run = self.simulate(None);
        let violations = self.audit(&run);
        self.batch(&run, violations)
    }

    fn trace(&self) -> Traced {
        let mut t = Tracer::new();
        let t0 = Instant::now();
        let run = self.simulate(Some(&mut t));
        let violations = t.span("audit", |_| self.audit(&run));
        let wall_s = secs_since(t0);
        let audit_violations = violations.len();
        let batch = self.batch(&run, violations);

        let (r, c) = (&run.report, &run.counters);
        let s = &r.serving;
        let lookups = (c.cache_hits + c.cache_misses) as f64;
        // Little's law on the report: requests in service on the device.
        let in_service = ratio(
            s.completed as f64 * (s.avg_latency_s - s.avg_queue_wait_s),
            s.wall_s,
        );
        let avg_batch = in_service.clamp(1.0, MAX_BATCH as f64);
        let cfg = EngineConfig::vllm();
        let steps = s.total_tokens / (avg_batch * cfg.decode_chunk.max(1) as f64);
        let admitted = r.prefix.lookups as f64;
        let avg_prompt = ratio(r.admitted_prompt_tokens as f64, admitted).max(1.0) as usize;
        let avg_output = ratio(s.total_tokens, s.completed as f64).max(1.0) as usize;
        let shapes = probe::serving_shapes(MODEL, avg_prompt, avg_prompt + avg_output, MAX_BATCH);
        let (lower_ns, roofline_ns) = probe::miss_ns(&shapes, probe::phase_counts(c), &cfg);
        let sigs: Vec<Vec<u64>> = self
            .mix
            .generate()
            .take(ACQUIRE_PROBE_TURNS)
            .map(|turn| turn.prefix)
            .collect();
        let probe_engine = InferenceEngine::new(cfg.clone(), self.engine_seed);
        let kv_bytes = probe_engine
            .kv_budget_bytes(MODEL, PREC)
            .expect("the model fits the device");
        let mut l = PerLayer {
            session_gen_self_s: t.totals("session_gen").self_s,
            session_gen_turns: run.fed as f64,
            kernels_lower_ns: lower_ns,
            roofline_phase_ns: roofline_ns,
            plan_cache_misses: c.cache_misses as f64,
            plan_cache_lookups: lookups,
            plan_cache_hit_rate: c.hit_rate(),
            plan_cache_get_ns: probe::plan_cache_get_ns(&shapes, &cfg),
            stepper_decode_steps: steps,
            stepper_avg_batch: avg_batch,
            stepper_step_ns: probe::step_ns(
                &cfg,
                MODEL,
                avg_batch.round() as usize,
                avg_prompt,
                avg_output,
            ),
            stepper_preemptions: s.preemptions as f64,
            stepper_recomputed_tokens: c.recomputed_tokens as f64,
            prefix_cache_token_hit_rate: r.prefix_hit_rate,
            prefix_cache_lookups: admitted,
            prefix_cache_inserted_blocks: r.prefix.inserted_blocks as f64,
            prefix_cache_evicted_blocks: r.prefix.evicted_blocks as f64,
            prefix_cache_acquire_ns: probe::acquire_ns(
                MODEL,
                kv_bytes,
                cfg.kv_block_tokens,
                &sigs,
                MAX_BATCH,
            ),
            // Latency and queue-wait sketches per completion, plus the
            // time-to-first-token sketch per admission.
            sketch_records: 2.0 * s.completed as f64 + admitted,
            sketch_record_ns: probe::record_ns(s.avg_latency_s),
            audit_s: t.totals("audit").total_s,
            audit_violations: audit_violations as f64,
            ..PerLayer::default()
        };
        let get_s = l.plan_cache_get_ns * 1e-9 * lookups;
        let mut ledger = Ledger::new(wall_s);
        ledger.span("session_gen", l.session_gen_self_s);
        ledger.attributed(
            "stepper.step (self)",
            l.stepper_step_ns * 1e-9 * steps - get_s,
        );
        ledger.attributed("plan_cache.get", get_s);
        ledger.attributed(
            "kernels.lower",
            l.kernels_lower_ns * 1e-9 * l.plan_cache_misses,
        );
        ledger.attributed(
            "roofline.phase",
            l.roofline_phase_ns * 1e-9 * l.plan_cache_misses,
        );
        ledger.attributed(
            "prefix_cache.acquire",
            l.prefix_cache_acquire_ns * 1e-9 * admitted,
        );
        ledger.attributed(
            "sketch.record",
            l.sketch_record_ns * 1e-9 * l.sketch_records,
        );
        ledger.span("audit", t.totals("audit").self_s);
        l.close(&ledger, |l| &mut l.session_residual_s);
        Traced {
            batch,
            ledger,
            layers: l,
            residual: "session.residual_s (session loop, admission, KV)",
        }
    }
}
