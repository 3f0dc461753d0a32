//! Property-based tests (proptest) on the core invariants of the stack.

use edgereasoning::core::fit::{
    expfit, fit_const_log, fit_exp_log, logfit, oracle, polyfit, solve_linear,
};
use edgereasoning::core::latency::{DecodeLatencyModel, PrefillLatencyModel, TotalLatencyModel};
use edgereasoning::core::planner::{pareto_frontier, ConfigPoint, Planner};
use edgereasoning::core::rig::{Rig, RigConfig};
use edgereasoning::core::study::{Study, StudyCell};
use edgereasoning::engine::cluster::{simulate_cluster, ClusterConfig, CrashConfig};
use edgereasoning::engine::engine::{EngineConfig, OomPolicy};
use edgereasoning::engine::kv_cache::KvCacheManager;
use edgereasoning::engine::plan_cache::EngineCounters;
use edgereasoning::engine::request::GenerationRequest;
use edgereasoning::engine::serving::{
    simulate_serving, simulate_serving_continuous, ServingConfig,
};
use edgereasoning::engine::session::{
    simulate_serving_sessions, uniform_session_trace, SessionConfig,
};
use edgereasoning::engine::stepper::BatchStepper;
use edgereasoning::engine::SimEngine;
use edgereasoning::kernels::arch::{ModelArch, ModelId};
use edgereasoning::kernels::dtype::Precision;
use edgereasoning::kernels::phases::{
    build_decode_attn_into, build_decode_base_into, build_prefill_into, decode_step_kernels,
    prefill_kernels, KernelPlan,
};
use edgereasoning::models::evaluate::{evaluate, EvalOptions};
use edgereasoning::models::profile::{expected_min, natural_mean_for_observed};
use edgereasoning::soc::faults::{Disturbance, FaultKind, FaultSchedule};
use edgereasoning::soc::gpu::{Derate, ExecCalib, Gpu, PhaseStats};
use edgereasoning::soc::kernel::{ComputeKind, KernelClass, KernelDesc};
use edgereasoning::soc::power::{ramp_avg_factor, EnergyMeter};
use edgereasoning::soc::rng::Rng;
use edgereasoning::soc::runtime::{item_seed, par_map_deterministic};
use edgereasoning::soc::spec::{OrinSpec, PowerMode};
use edgereasoning::soc::thermal::GovernanceConfig;
use edgereasoning::workloads::prompt::PromptConfig;
use edgereasoning::workloads::suite::Benchmark;
use proptest::prelude::*;

fn test_gpu() -> Gpu {
    Gpu::new(OrinSpec::agx_orin_64gb().gpu, PowerMode::MaxN, 7)
}

fn point(latency: f64, acc: f64, cost: f64) -> ConfigPoint {
    ConfigPoint {
        model: ModelId::Dsr1Qwen1_5b,
        precision: Precision::Fp16,
        config: PromptConfig::Base,
        parallel: 1,
        accuracy_pct: acc,
        latency_s: latency,
        cost_per_mtok: cost,
        avg_tokens: 1.0,
    }
}

proptest! {
    /// Roofline latency grows monotonically with added memory traffic.
    #[test]
    fn kernel_latency_monotone_in_bytes(mb in 1u64..512, extra in 1u64..512) {
        let mut gpu = test_gpu();
        let base = KernelDesc::raw(
            KernelClass::MemCopy, ComputeKind::CudaFp32, 0.0, (mb << 20) as f64, 0.0);
        let bigger = KernelDesc::raw(
            KernelClass::MemCopy, ComputeKind::CudaFp32, 0.0, ((mb + extra) << 20) as f64, 0.0);
        let a = gpu.execute_calibrated(&base, &ExecCalib::default());
        let b = gpu.execute_calibrated(&bigger, &ExecCalib::default());
        // 5% slack for deterministic shape wobble + measurement noise.
        prop_assert!(b.latency_s > a.latency_s * 0.95,
            "bytes {} -> {}: latency {} -> {}", mb, mb + extra, a.latency_s, b.latency_s);
    }

    /// Energy and power are always positive and consistent.
    #[test]
    fn kernel_energy_consistent(flops in 1e6f64..1e13, mb in 0u64..256) {
        let mut gpu = test_gpu();
        let k = KernelDesc::raw(
            KernelClass::Gemm, ComputeKind::TensorFp16, flops, (mb << 20) as f64, 0.0);
        let e = gpu.execute_calibrated(&k, &ExecCalib::default());
        prop_assert!(e.latency_s > 0.0);
        prop_assert!(e.power_w > 0.0 && e.power_w <= 60.0);
        prop_assert!((e.energy_j - e.latency_s * e.power_w).abs() < 1e-9);
    }

    /// The budget inversion is maximal: the returned budget fits, one more
    /// token does not.
    #[test]
    fn budget_inversion_is_maximal(input in 1usize..4096, budget_s in 0.5f64..500.0) {
        let model = TotalLatencyModel {
            prefill: PrefillLatencyModel::paper_reference(ModelId::Dsr1Llama8b).unwrap(),
            decode: DecodeLatencyModel::paper_reference(ModelId::Dsr1Llama8b).unwrap(),
        };
        let o = model.max_output_tokens(input, budget_s);
        if o > 0 {
            prop_assert!(model.predict(input, o) <= budget_s + 1e-9);
            prop_assert!(model.predict(input, o + 1) > budget_s);
        } else {
            prop_assert!(model.predict(input, 1) > budget_s);
        }
    }

    /// Pareto frontier: strictly increasing in both axes, and no returned
    /// point is dominated by any input point.
    #[test]
    fn pareto_frontier_is_undominated(
        raw in prop::collection::vec((0.1f64..500.0, 0.0f64..100.0), 1..60)
    ) {
        let points: Vec<ConfigPoint> =
            raw.iter().map(|&(l, a)| point(l, a, 0.0)).collect();
        let idx = pareto_frontier(&points, |p| p.latency_s, |p| p.accuracy_pct);
        prop_assert!(!idx.is_empty());
        for w in idx.windows(2) {
            prop_assert!(points[w[1]].latency_s > points[w[0]].latency_s);
            prop_assert!(points[w[1]].accuracy_pct > points[w[0]].accuracy_pct);
        }
        for &i in &idx {
            for p in &points {
                let dominates = p.latency_s < points[i].latency_s
                    && p.accuracy_pct > points[i].accuracy_pct;
                prop_assert!(!dominates, "frontier point dominated");
            }
        }
    }

    /// best_under_latency returns the max accuracy among feasible points.
    #[test]
    fn best_under_latency_is_optimal(
        raw in prop::collection::vec((0.1f64..100.0, 0.0f64..100.0), 1..40),
        budget in 0.1f64..100.0
    ) {
        let points: Vec<ConfigPoint> = raw.iter().map(|&(l, a)| point(l, a, 0.0)).collect();
        let planner = Planner::new(points.clone());
        let best = planner.best_under_latency(budget);
        let brute = points
            .iter()
            .filter(|p| p.latency_s <= budget)
            .map(|p| p.accuracy_pct)
            .fold(f64::NEG_INFINITY, f64::max);
        match best {
            Some(p) => prop_assert!((p.accuracy_pct - brute).abs() < 1e-12),
            None => prop_assert!(brute.is_infinite()),
        }
    }

    /// KV-cache accounting: allocations never exceed capacity and release
    /// restores every block.
    #[test]
    fn kv_cache_conserves_blocks(sizes in prop::collection::vec(1usize..4000, 1..20)) {
        let arch = ModelId::Dsr1Llama8b.arch();
        let mut mgr = KvCacheManager::new(&arch, 2 << 30, 16).expect("positive block size");
        let cap = mgr.free_tokens();
        let mut live = Vec::new();
        for &s in &sizes {
            if let Some(id) = mgr.allocate(s) {
                live.push(id);
            }
            prop_assert!(mgr.free_tokens() <= cap);
        }
        for id in live {
            mgr.release(id).expect("live sequence releases cleanly");
        }
        prop_assert_eq!(mgr.free_tokens(), cap);
        prop_assert_eq!(mgr.live_sequences(), 0);
    }

    /// The truncated-mean inversion round-trips for any observed/cap pair.
    #[test]
    fn natural_mean_inversion_round_trips(
        cap in 32f64..2048.0, frac in 0.2f64..0.97, cv in 0.2f64..0.9
    ) {
        let observed = cap * frac;
        let natural = natural_mean_for_observed(observed, cv, cap);
        let back = expected_min(natural, cv, cap);
        prop_assert!((back - observed).abs() / observed < 0.02,
            "cap {cap} obs {observed}: natural {natural} -> {back}");
    }

    /// DVFS ramp factor stays in [0, 1] and is monotone in window end.
    #[test]
    fn ramp_factor_bounded_and_monotone(
        a in 0.0f64..100.0, d1 in 0.01f64..50.0, d2 in 0.01f64..50.0, tau in 0.1f64..60.0
    ) {
        let f1 = ramp_avg_factor(a, a + d1, tau);
        let f2 = ramp_avg_factor(a, a + d1 + d2, tau);
        prop_assert!((0.0..=1.0).contains(&f1));
        prop_assert!(f2 >= f1 - 1e-12, "longer window must be warmer");
    }

    /// Kernel lowering conserves weight traffic: the decode step reads at
    /// least the linear-layer weight bytes at any context/batch.
    #[test]
    fn decode_reads_cover_weights(ctx in 1usize..4096, batch in 1usize..32) {
        let arch = ModelId::Dsr1Qwen1_5b.arch();
        let step = decode_step_kernels(&arch, Precision::Fp16, batch, ctx);
        let read: f64 = step.iter().map(|k| k.bytes_read).sum();
        let weights = arch.weight_bytes(Precision::Fp16) as f64;
        prop_assert!(read > 0.8 * weights);
    }

    /// Prefill FLOPs grow superlinearly but latency stays finite and
    /// monotone in sequence length (padded comparison points).
    #[test]
    fn prefill_latency_monotone(k1 in 1usize..16, k2 in 1usize..16) {
        prop_assume!(k1 < k2);
        let arch = ModelId::Dsr1Llama8b.arch();
        let mut gpu = test_gpu();
        let t = |k: usize, gpu: &mut Gpu| {
            let ks = prefill_kernels(&arch, Precision::Fp16, 1, k * 256);
            gpu.run_phase(ks.iter(), &ExecCalib::default()).latency_s
        };
        let t1 = t(k1, &mut gpu);
        let t2 = t(k2, &mut gpu);
        prop_assert!(t2 > t1 * 0.98, "prefill latency must grow: {t1} vs {t2}");
    }

    /// Least-squares solutions actually solve exactly-determined systems.
    #[test]
    fn linear_solver_solves(x0 in -10.0f64..10.0, x1 in -10.0f64..10.0) {
        let a = vec![vec![3.0, 1.0], vec![1.0, 2.0]];
        let b = vec![3.0 * x0 + x1, x0 + 2.0 * x1];
        let sol = solve_linear(&a, &b).expect("nonsingular");
        prop_assert!((sol[0] - x0).abs() < 1e-8);
        prop_assert!((sol[1] - x1).abs() < 1e-8);
    }

    /// Polyfit residuals vanish on exact polynomial data.
    #[test]
    fn polyfit_exact_on_polynomials(c0 in -1.0f64..1.0, c1 in -1e-3f64..1e-3, c2 in 0.0f64..1e-6) {
        let xs: Vec<f64> = (1..=24).map(|k| k as f64 * 100.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| c0 + c1 * x + c2 * x * x).collect();
        let c = polyfit(&xs, &ys, 2).expect("fit");
        for (&x, &y) in xs.iter().zip(&ys) {
            let pred = c[0] + c[1] * x + c[2] * x * x;
            prop_assert!((pred - y).abs() < 1e-6 * (1.0 + y.abs()));
        }
    }

    /// The deterministic RNG's lognormal sampler hits its requested mean.
    #[test]
    fn lognormal_mean_matches(seed in 0u64..1000, mean in 10.0f64..2000.0) {
        let mut rng = Rng::seed_from_u64(seed);
        let n = 4000;
        let total: f64 = (0..n).map(|_| rng.lognormal_mean_std(mean, mean * 0.5)).sum();
        let got = total / n as f64;
        prop_assert!((got / mean - 1.0).abs() < 0.06, "mean {mean}: got {got}");
    }

    /// The allocation-free fitters are *bit-identical* to the retained
    /// naive oracles on randomized exponential-decay data: they accumulate
    /// the same normal equations in the same order and run the same
    /// elimination, so even the rounding agrees.
    #[test]
    fn fast_simple_fitters_bit_match_oracles(
        a in 0.01f64..2.0, lam in 0.005f64..0.08, c in 0.0f64..0.5,
        noise in 0.0f64..0.02, seed in 0u64..1000, n in 8usize..18
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let xs: Vec<f64> = (1..=n).map(|k| k as f64 * 50.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| a * (-lam * x).exp() + c + noise * (rng.next_f64() - 0.5))
            .collect();
        match (expfit(&xs, &ys), oracle::expfit(&xs, &ys)) {
            (Some((fa, fl, fc)), Some((oa, ol, oc))) => {
                prop_assert_eq!(fa.to_bits(), oa.to_bits());
                prop_assert_eq!(fl.to_bits(), ol.to_bits());
                prop_assert_eq!(fc.to_bits(), oc.to_bits());
            }
            (f, o) => prop_assert!(f.is_none() && o.is_none(), "Some/None mismatch"),
        }
        let lys: Vec<f64> = xs
            .iter()
            .map(|&x| a * x.ln() + c + noise * (rng.next_f64() - 0.5))
            .collect();
        match (logfit(&xs, &lys), oracle::logfit(&xs, &lys)) {
            (Some((fw, fz)), Some((ow, oz))) => {
                prop_assert_eq!(fw.to_bits(), ow.to_bits());
                prop_assert_eq!(fz.to_bits(), oz.to_bits());
            }
            (f, o) => prop_assert!(f.is_none() && o.is_none(), "Some/None mismatch"),
        }
        match (polyfit(&xs, &lys, 2), oracle::polyfit(&xs, &lys, 2)) {
            (Some(fc2), Some(oc2)) => {
                for (f, o) in fc2.iter().zip(&oc2) {
                    prop_assert_eq!(f.to_bits(), o.to_bits());
                }
            }
            (f, o) => prop_assert!(f.is_none() && o.is_none(), "Some/None mismatch"),
        }
    }

    /// The sufficient-statistic `fit_exp_log` matches the naive oracle on
    /// randomized piecewise data by fit quality: both scan the same (λ, k)
    /// candidate grid, so their selected models' residual SSEs agree up to
    /// the cancellation error of the expanded O(1) SSE formula.
    #[test]
    fn fast_exp_log_matches_oracle_quality(
        a in 0.05f64..0.5, lam in 0.01f64..0.06, c in 0.001f64..0.05,
        alpha in 0.005f64..0.05, noise in 0.0f64..0.01, seed in 0u64..1000,
        n in 10usize..18
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let split = 0.4 * (n as f64) * 64.0;
        let beta = a * (-lam * split).exp() + c - alpha * split.ln();
        let xs: Vec<f64> = (1..=n).map(|k| k as f64 * 64.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| {
                let clean = if x <= split {
                    a * (-lam * x).exp() + c
                } else {
                    alpha * x.ln() + beta
                };
                clean + noise * (rng.next_f64() - 0.5)
            })
            .collect();
        let sse = |m: &edgereasoning::core::fit::PiecewiseExpLog| -> f64 {
            xs.iter().zip(&ys).map(|(&x, &y)| (m.predict(x) - y).powi(2)).sum()
        };
        let fast = fit_exp_log(&xs, &ys).expect("fast fit");
        let naive = oracle::fit_exp_log(&xs, &ys).expect("oracle fit");
        let (fs, os) = (sse(&fast), sse(&naive));
        let syy: f64 = ys.iter().map(|&y| y * y).sum();
        let tol = 1e-9 * syy + 1e-12;
        prop_assert!(fs <= os + tol, "fast SSE {fs} worse than oracle {os}");
        prop_assert!(os <= fs + tol, "oracle SSE {os} worse than fast {fs}");
    }

    /// Same property for the piecewise const/log transition search.
    #[test]
    fn fast_const_log_matches_oracle_quality(
        u in 1.0f64..10.0, w in 0.2f64..2.0, noise in 0.0f64..0.1,
        seed in 0u64..1000, n in 8usize..18
    ) {
        let mut rng = Rng::seed_from_u64(seed);
        let split = 0.4 * (n as f64) * 100.0;
        let z = u - w * split.ln();
        let xs: Vec<f64> = (1..=n).map(|k| k as f64 * 100.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| {
                let clean = if x <= split { u } else { w * x.ln() + z };
                clean + noise * (rng.next_f64() - 0.5)
            })
            .collect();
        let sse = |m: &edgereasoning::core::fit::PiecewiseConstLog| -> f64 {
            xs.iter().zip(&ys).map(|(&x, &y)| (m.predict(x) - y).powi(2)).sum()
        };
        let fast = fit_const_log(&xs, &ys).expect("fast fit");
        let naive = oracle::fit_const_log(&xs, &ys).expect("oracle fit");
        let (fs, os) = (sse(&fast), sse(&naive));
        let syy: f64 = ys.iter().map(|&y| y * y).sum();
        let tol = 1e-9 * syy + 1e-12;
        prop_assert!(fs <= os + tol, "fast SSE {fs} worse than oracle {os}");
        prop_assert!(os <= fs + tol, "oracle SSE {os} worse than fast {fs}");
    }

    /// Same seed + same fault schedule ⇒ bit-identical serving report,
    /// with every degraded-mode control (deadline, bounded queue, retries,
    /// degradation ladder, preemption) switched on.
    #[test]
    fn serving_report_deterministic_under_faults(
        seed in 0u64..200, intensity in 0.0f64..4.0
    ) {
        let schedule = FaultSchedule::generate(seed, intensity, 120.0);
        let run = || {
            let mut e = SimEngine::new(
                EngineConfig::vllm().with_oom_policy(OomPolicy::PreemptRecompute),
                seed,
            );
            e.set_fault_schedule(schedule.clone());
            let cfg = ServingConfig::new(1.5, 6, 16, 96, 64)
                .with_deadline(90.0)
                .with_queue_capacity(24)
                .with_retries(2, 1.0)
                .with_degradation(true);
            simulate_serving(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, seed)
                .expect("degraded serving never aborts")
        };
        prop_assert_eq!(run(), run());
    }

    /// Whenever a memory-pressured FailFast engine aborts a batch,
    /// PreemptRecompute completes the identical request in full.
    #[test]
    fn preempt_completes_what_failfast_aborts(
        kv_tokens in 600u64..1400, batch in 4usize..10, seed in 0u64..100
    ) {
        let pressured = |policy: OomPolicy| {
            let mut config = EngineConfig::vllm().with_oom_policy(policy);
            let arch = ModelId::Dsr1Qwen1_5b.arch();
            let budget =
                arch.weight_bytes(Precision::Fp16) + kv_tokens * arch.kv_bytes_per_token();
            config.memory_budget_frac = budget as f64 / config.soc.gpu.dram_capacity as f64;
            SimEngine::new(config, seed)
        };
        let req = GenerationRequest::new(128, 128).with_batch(batch);
        let failfast =
            pressured(OomPolicy::FailFast).run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req);
        if failfast.is_err() {
            let o = pressured(OomPolicy::PreemptRecompute)
                .run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req)
                .expect("preemption must complete what fail-fast aborts");
            prop_assert_eq!(o.generated_tokens, 128);
            prop_assert_eq!(o.batch, batch);
            prop_assert!(o.preemptions > 0, "pressure must preempt");
        }
    }

    /// With arrivals spaced far past batch completion (a drained queue),
    /// every batch finds the device idle, so the gang rule ("a busy device
    /// has no room") is inert: continuous batching and gang scheduling
    /// serve the same schedule on the one serving loop and report
    /// bit-exactly the same.
    #[test]
    fn drained_continuous_serving_matches_static(
        seed in 0u64..200, queries in 2usize..9, max_batch in 1usize..8
    ) {
        // Mean inter-arrival 1e8 s vs ~4 s service: the probability of an
        // arrival landing mid-batch is negligible at every seed.
        let cfg = ServingConfig::new(1e-8, max_batch, queries, 128, 64);
        let mut se = SimEngine::new(EngineConfig::vllm(), seed);
        let stat = simulate_serving(&mut se, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, seed)
            .expect("runs");
        let mut ce = SimEngine::new(EngineConfig::vllm(), seed);
        let cont =
            simulate_serving_continuous(&mut ce, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, seed)
                .expect("runs");
        prop_assert_eq!(stat, cont);
    }

    /// KV accounting never leaks blocks across admit/step/preempt/retire
    /// cycles: after the stepper drains, free tokens return to capacity.
    #[test]
    fn stepper_conserves_kv_blocks(
        seed in 0u64..100,
        admits in prop::collection::vec((1usize..512, 1usize..128, 1usize..5), 1..6),
        kv_tokens in 1200u64..4000
    ) {
        let mut config = EngineConfig::vllm().with_oom_policy(OomPolicy::PreemptRecompute);
        let arch = ModelId::Dsr1Qwen1_5b.arch();
        let budget = arch.weight_bytes(Precision::Fp16) + kv_tokens * arch.kv_bytes_per_token();
        config.memory_budget_frac = budget as f64 / config.soc.gpu.dram_capacity as f64;
        let mut e = SimEngine::new(config, seed);
        let mut stepper =
            BatchStepper::new(&e, ModelId::Dsr1Qwen1_5b, Precision::Fp16).expect("weights fit");
        let cap = stepper.kv_free_tokens();
        prop_assert_eq!(cap, stepper.kv_capacity_tokens());
        let mut t = 0.0;
        for &(prompt, output, batch) in &admits {
            let req = GenerationRequest::new(prompt, output).with_batch(batch);
            // Oversized groups spill into the waiting queue; a refusal
            // must leave accounting untouched either way.
            let _ = stepper.admit(&mut e, t, &req);
            if stepper.is_busy() {
                let out = stepper.step(&mut e).expect("preempting stepper steps");
                t = out.end_s;
            }
        }
        let mut guard = 0usize;
        while stepper.is_busy() {
            stepper.step(&mut e).expect("preempting stepper drains");
            guard += 1;
            prop_assert!(guard < 10_000, "stepper failed to drain");
        }
        prop_assert_eq!(stepper.kv_free_tokens(), cap);
        prop_assert_eq!(stepper.live_queries(), 0);
    }

    /// Prefix-cache refcounts are conserved across admit/preempt/cancel/
    /// retire: after the stepper drains, every pin has been released, and
    /// free KV plus tree-resident KV add back up to capacity — no leaked
    /// and no double-freed blocks, at any interleaving.
    #[test]
    fn prefix_pins_conserved_across_lifecycle(
        seed in 0u64..200,
        admits in prop::collection::vec(
            // (template, shared path length in blocks, prompt, output, batch)
            (0u64..3, 1usize..6, 96usize..512, 1usize..96, 1usize..4), 1..8),
        kv_tokens in 1200u64..4000,
        cancel_mask in 0u32..256
    ) {
        let mut config = EngineConfig::vllm().with_oom_policy(OomPolicy::PreemptRecompute);
        let arch = ModelId::Dsr1Qwen1_5b.arch();
        let budget = arch.weight_bytes(Precision::Fp16) + kv_tokens * arch.kv_bytes_per_token();
        config.memory_budget_frac = budget as f64 / config.soc.gpu.dram_capacity as f64;
        let mut e = SimEngine::new(config, seed);
        let mut stepper =
            BatchStepper::new(&e, ModelId::Dsr1Qwen1_5b, Precision::Fp16).expect("weights fit");
        let cap = stepper.kv_capacity_tokens();
        let mut t = 0.0;
        for (i, &(template, len, prompt, output, batch)) in admits.iter().enumerate() {
            // Shared stems per template force refcounted sharing and
            // copy-on-write divergence across admissions.
            let sigs: Vec<u64> = (0..len as u64).map(|j| template * 1000 + j).collect();
            let req = GenerationRequest::new(prompt, output).with_batch(batch);
            if let Ok(adm) = stepper.admit_prefixed(&mut e, t, &req, &sigs) {
                t = adm.end_s;
                if cancel_mask & (1 << (i % 8)) != 0 {
                    stepper.cancel(adm.id);
                }
            }
            if stepper.is_busy() {
                let out = stepper.step(&mut e).expect("preempting stepper steps");
                t = out.end_s;
            }
        }
        let mut guard = 0usize;
        while stepper.is_busy() {
            stepper.step(&mut e).expect("preempting stepper drains");
            guard += 1;
            prop_assert!(guard < 10_000, "stepper failed to drain");
        }
        prop_assert_eq!(stepper.live_queries(), 0);
        prop_assert_eq!(stepper.prefix_outstanding_pins(), 0);
        prop_assert_eq!(
            stepper.kv_free_tokens() + stepper.prefix_resident_tokens(),
            cap
        );
        prop_assert_eq!(stepper.kv_evictable_tokens(), stepper.prefix_resident_tokens());
    }

    /// With prefix caching disabled, the session loop over the legacy
    /// Poisson trace reproduces the continuous/DES serving report bit for
    /// bit on drained queues — the cache is invisible unless asked for.
    #[test]
    fn cache_disabled_session_loop_is_the_continuous_sim(seed in 0u64..500) {
        let cfg = ServingConfig::new(1e-4, 8, 10, 128, 96);
        let trace = uniform_session_trace(&cfg, seed);
        let offered = trace.len();
        let mut se = SimEngine::new(EngineConfig::vllm(), seed);
        let mut it = trace.into_iter();
        let scfg = SessionConfig::new(8).with_prefix_caching(false);
        let got = simulate_serving_sessions(
            &mut se,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &scfg,
            || it.next(),
        )
        .expect("session loop runs");
        let mut ce = SimEngine::new(EngineConfig::vllm(), seed);
        let want =
            simulate_serving_continuous(&mut ce, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, seed)
                .expect("runs");
        prop_assert_eq!(got.serving, want);
        prop_assert_eq!(got.offered, offered);
        prop_assert_eq!(got.cached_prompt_tokens, 0);
    }

    /// The phase-plan cache is invisible to results: a cache-disabled
    /// engine produces bit-identical outcomes for any request shape.
    #[test]
    fn plan_cache_never_changes_outcomes(
        prompt in 1usize..2048, output in 1usize..512, batch in 1usize..8, seed in 0u64..64
    ) {
        let mut cached = SimEngine::new(EngineConfig::vllm(), seed);
        let mut uncached = SimEngine::new(EngineConfig::vllm(), seed);
        uncached.set_cache_enabled(false);
        let req = GenerationRequest::new(prompt, output).with_batch(batch);
        // Run twice so the second cached run replays warm entries.
        for _ in 0..2 {
            let a = cached.run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req);
            let b = uncached.run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, &req);
            prop_assert_eq!(a, b);
        }
    }

    /// Disturbance windows are half-open `[start, end)`: the derate applies
    /// at the first instant and is gone at exactly the last.
    #[test]
    fn derate_windows_are_half_open(
        start in 0.0f64..1000.0, dur in 0.01f64..100.0, scale in 0.1f64..0.9
    ) {
        let sched = FaultSchedule::from_events(vec![Disturbance {
            start_s: start,
            duration_s: dur,
            kind: FaultKind::ThermalThrottle { freq_scale: scale },
        }]);
        let mode = PowerMode::MaxN;
        prop_assert_eq!(sched.derate_at(start, mode).freq, scale);
        prop_assert_eq!(sched.derate_at(start + 0.5 * dur, mode).freq, scale);
        prop_assert_eq!(sched.derate_at(start + dur, mode), Derate::IDENTITY);
        if start > 0.0 {
            prop_assert_eq!(
                sched.derate_at(start * 0.999_999, mode), Derate::IDENTITY);
        }
    }

    /// Overlapping windows compose by a commutative min on each axis: any
    /// event order yields the bitwise-identical derate, and the combined
    /// scale equals the plain fold over active windows.
    #[test]
    fn derate_combine_is_order_invariant_min(
        raw in prop::collection::vec(
            (0.0f64..50.0, 0.1f64..30.0, 0.05f64..1.0, 0.05f64..1.0), 1..12),
        t in 0.0f64..80.0
    ) {
        let events: Vec<Disturbance> = raw
            .iter()
            .flat_map(|&(start_s, duration_s, freq_scale, bw_scale)| {
                [
                    Disturbance {
                        start_s,
                        duration_s,
                        kind: FaultKind::ThermalThrottle { freq_scale },
                    },
                    Disturbance {
                        start_s,
                        duration_s,
                        kind: FaultKind::BandwidthContention { bw_scale },
                    },
                ]
            })
            .collect();
        let mut reversed = events.clone();
        reversed.reverse();
        let mode = PowerMode::MaxN;
        let a = FaultSchedule::from_events(events.clone()).derate_at(t, mode);
        let b = FaultSchedule::from_events(reversed).derate_at(t, mode);
        prop_assert_eq!(a.freq.to_bits(), b.freq.to_bits());
        prop_assert_eq!(a.bw.to_bits(), b.bw.to_bits());
        prop_assert_eq!(a.cap_w.to_bits(), b.cap_w.to_bits());
        let expect_freq = events
            .iter()
            .filter(|ev| ev.active_at(t))
            .fold(1.0f64, |acc, ev| match ev.kind {
                FaultKind::ThermalThrottle { freq_scale } => acc.min(freq_scale),
                _ => acc,
            });
        prop_assert_eq!(a.freq.to_bits(), expect_freq.to_bits());
    }

    /// The empty schedule is the IEEE-bit-exact identity at every instant
    /// and in every power mode.
    #[test]
    fn empty_schedule_derate_is_bit_exact_identity(t in -10.0f64..1e6) {
        for mode in [PowerMode::MaxN, PowerMode::W30, PowerMode::W15] {
            let d = FaultSchedule::none().derate_at(t, mode);
            prop_assert_eq!(d.freq.to_bits(), 1.0f64.to_bits());
            prop_assert_eq!(d.bw.to_bits(), 1.0f64.to_bits());
            prop_assert_eq!(d.cap_w.to_bits(), f64::INFINITY.to_bits());
        }
    }

    /// A one-replica fleet with no crash weather and no hedging *is* the
    /// single-device continuous simulation, bit for bit, at any seed.
    #[test]
    fn quiet_single_replica_cluster_is_the_continuous_sim(seed in 0u64..500) {
        let cfg = ServingConfig::new(1.8, 6, 12, 96, 64)
            .with_deadline(150.0)
            .with_retries(2, 0.5);
        let fleet = simulate_cluster(
            &ClusterConfig::new(1, EngineConfig::vllm()),
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg,
            seed,
        )
        .expect("cluster runs");
        let mut e = SimEngine::new(EngineConfig::vllm(), seed);
        let single =
            simulate_serving_continuous(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, seed)
                .expect("runs");
        prop_assert_eq!(fleet.fleet, single);
        prop_assert_eq!(fleet.replicas[0], single);
    }

    /// An inert thermal governor — a trip point no workload can reach and
    /// no battery — holds ladder level 0, whose derate is the exact
    /// `Derate::IDENTITY` constant. Continuous serving with governance
    /// enabled must therefore be bit-identical to the governance-off
    /// engine at every seed.
    #[test]
    fn inert_governance_continuous_is_bit_identical(seed in 0u64..500) {
        let cfg = ServingConfig::new(1.8, 6, 12, 96, 64)
            .with_deadline(150.0)
            .with_retries(2, 0.5);
        let inert = GovernanceConfig::default().with_trip(1e6, 9e5);
        let mut on = SimEngine::new(EngineConfig::vllm().with_governance(inert), seed);
        let got =
            simulate_serving_continuous(&mut on, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, seed)
                .expect("runs");
        let mut off = SimEngine::new(EngineConfig::vllm(), seed);
        let want =
            simulate_serving_continuous(&mut off, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, seed)
                .expect("runs");
        prop_assert_eq!(got, want);
        let stats = on.governance_stats().expect("governance enabled");
        prop_assert_eq!(stats.throttle_steps, 0);
        prop_assert_eq!(stats.brownouts, 0);
    }

    /// The same inert-governor identity for the session loop: prefix
    /// caching on, the governor silently metering in the background.
    #[test]
    fn inert_governance_session_loop_is_bit_identical(seed in 0u64..500) {
        let cfg = ServingConfig::new(1e-4, 8, 10, 128, 96);
        let trace = uniform_session_trace(&cfg, seed);
        let scfg = SessionConfig::new(8);
        let inert = GovernanceConfig::default().with_trip(1e6, 9e5);
        let mut on = SimEngine::new(EngineConfig::vllm().with_governance(inert), seed);
        let mut it = trace.clone().into_iter();
        let got = simulate_serving_sessions(
            &mut on,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &scfg,
            || it.next(),
        )
        .expect("session loop runs");
        let mut off = SimEngine::new(EngineConfig::vllm(), seed);
        let mut it = trace.into_iter();
        let want = simulate_serving_sessions(
            &mut off,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &scfg,
            || it.next(),
        )
        .expect("session loop runs");
        prop_assert_eq!(got.serving, want.serving);
        prop_assert_eq!(got.offered, want.offered);
        prop_assert_eq!(got.cached_prompt_tokens, want.cached_prompt_tokens);
    }

    /// Inert governance on a fleet *with* disturbance and crash weather:
    /// the governor's IDENTITY derate min-combines with the scripted
    /// schedule without moving a bit (min(1, x) = x for any fault derate),
    /// so every report field except the governance counters matches the
    /// ungoverned fleet exactly.
    #[test]
    fn inert_governance_cluster_with_weather_is_bit_identical(seed in 0u64..500) {
        let cfg = ServingConfig::new(1.8, 6, 12, 96, 64)
            .with_deadline(150.0)
            .with_retries(2, 0.5);
        let weather = |engine: EngineConfig| {
            ClusterConfig::new(2, engine)
                .with_fault_intensity(2.0)
                .with_crashes(CrashConfig { mtbf_s: 90.0, mttr_s: 10.0, cold_start_s: 5.0 })
                .with_hedging(3.0)
        };
        let inert = GovernanceConfig::default().with_trip(1e6, 9e5);
        let got = simulate_cluster(
            &weather(EngineConfig::vllm().with_governance(inert)),
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg,
            seed,
        )
        .expect("cluster runs");
        let want = simulate_cluster(
            &weather(EngineConfig::vllm()),
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &cfg,
            seed,
        )
        .expect("cluster runs");
        prop_assert_eq!(got.fleet, want.fleet);
        prop_assert_eq!(got.replicas, want.replicas);
        prop_assert_eq!(got.availability.to_bits(), want.availability.to_bits());
        prop_assert_eq!(got.crash_events, want.crash_events);
        prop_assert_eq!(got.crash_lost, want.crash_lost);
        prop_assert_eq!(got.crash_recovered, want.crash_recovered);
        prop_assert_eq!(got.hedges_fired, want.hedges_fired);
        prop_assert_eq!(got.hedge_wins, want.hedge_wins);
        prop_assert_eq!(got.hedge_energy_j.to_bits(), want.hedge_energy_j.to_bits());
        prop_assert_eq!(got.brownout_events, 0);
        prop_assert!(got.governance.is_some() && want.governance.is_none());
    }

    /// `ramp_avg_factor` degenerate windows: `tau == 0` is the instant
    /// ramp (factor exactly 1 everywhere), a zero-width window `a == b`
    /// equals the instantaneous factor, and every factor lies in [0, 1].
    #[test]
    fn ramp_factor_degenerate_windows(
        a in 0.0f64..100.0, width in 0.0f64..50.0, tau in 0.001f64..60.0
    ) {
        prop_assert_eq!(ramp_avg_factor(a, a + width, 0.0).to_bits(), 1.0f64.to_bits());
        let f = ramp_avg_factor(a, a + width, tau);
        prop_assert!((0.0..=1.0).contains(&f), "factor {f} out of range");
        let point = ramp_avg_factor(a, a, tau);
        let instant = 1.0 - (-a / tau).exp();
        prop_assert!((point - instant).abs() <= 1e-12, "{point} vs {instant}");
    }

    /// [`EnergyMeter`] under NaN-free inputs: energy and time are
    /// non-negative, `merge` commutes bit-exactly (float `+` commutes),
    /// and associates within rounding (float `+` does not associate in the
    /// last ulp, so the grouping tolerance is relative, not zero).
    #[test]
    fn energy_meter_merge_commutes_and_associates(
        segs in prop::collection::vec((0.0f64..10.0, 0.0f64..100.0), 3..9)
    ) {
        let meter = |chunk: &[(f64, f64)]| {
            let mut m = EnergyMeter::new();
            for &(dt, p) in chunk {
                m.record(dt, p);
            }
            m
        };
        let (a, b, c) = (
            meter(&segs[..1]),
            meter(&segs[1..2]),
            meter(&segs[2..]),
        );
        prop_assert!(a.energy_j() >= 0.0 && a.elapsed_s() >= 0.0);
        prop_assert!(c.energy_j() >= 0.0 && c.elapsed_s() >= 0.0);

        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab.energy_j().to_bits(), ba.energy_j().to_bits());
        prop_assert_eq!(ab.elapsed_s().to_bits(), ba.elapsed_s().to_bits());

        let mut left = ab; // (a + b) + c
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a; // a + (b + c)
        right.merge(&bc);
        let tol = 1e-12 * left.energy_j().abs().max(1.0);
        prop_assert!((left.energy_j() - right.energy_j()).abs() <= tol);
        let tol = 1e-12 * left.elapsed_s().abs().max(1.0);
        prop_assert!((left.elapsed_s() - right.elapsed_s()).abs() <= tol);
    }
}

/// Parallel dataset evaluation is bit-identical to sequential at every
/// thread count: per-question RNG streams are seeded from the question
/// index, never from thread identity or arrival order.
#[test]
fn parallel_evaluate_bit_identical_to_sequential() {
    let base = EvalOptions::default().with_parallel(4).with_subset(150);
    let sequential = evaluate(
        ModelId::Dsr1Llama8b,
        Precision::Fp16,
        Benchmark::MmluRedux,
        PromptConfig::Soft(256),
        base.with_threads(1),
    );
    for threads in [0usize, 2, 3, 5, 8] {
        let parallel = evaluate(
            ModelId::Dsr1Llama8b,
            Precision::Fp16,
            Benchmark::MmluRedux,
            PromptConfig::Soft(256),
            base.with_threads(threads),
        );
        assert_eq!(sequential, parallel, "results differ at {threads} threads");
    }
}

/// A parallel `fit_exp_log` sweep is bit-identical at every thread count:
/// each dataset is derived from its item seed (never from thread identity)
/// and the fit itself is pure, so fanning curve fits across cores — as the
/// fig02/fig03/fig04_05 and table bins do — changes only the wall clock.
#[test]
fn parallel_fit_sweep_bit_identical_at_every_thread_count() {
    let items: Vec<u64> = (0..12).collect();
    let run = |threads: usize| {
        par_map_deterministic(&items, threads, |i, _| {
            let mut rng = Rng::seed_from_u64(item_seed(0xf17, i as u64));
            let lam = 0.015 + 0.002 * i as f64;
            let xs: Vec<f64> = (1..=40).map(|k| k as f64 * 64.0).collect();
            let ys: Vec<f64> = xs
                .iter()
                .map(|&x| {
                    let clean = if x <= 768.0 {
                        0.2 * (-lam * x).exp() + 0.004
                    } else {
                        0.011 * x.ln() - 0.06
                    };
                    clean + 0.0005 * (rng.next_f64() - 0.5)
                })
                .collect();
            fit_exp_log(&xs, &ys).expect("fit")
        })
    };
    let sequential = run(1);
    for threads in [2usize, 3, 0] {
        let parallel = run(threads);
        for (s, p) in sequential.iter().zip(&parallel) {
            for (name, a, b) in [
                ("a", s.a, p.a),
                ("lambda", s.lambda, p.lambda),
                ("c", s.c, p.c),
                ("v", s.v, p.v),
                ("alpha", s.alpha, p.alpha),
                ("beta", s.beta, p.beta),
            ] {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name} differs at {threads} threads: {a} vs {b}"
                );
            }
        }
    }
}

/// Installing an *empty* fault schedule (and an arbitrary wall clock) is
/// invisible: outcomes are bit-identical to a plain engine at every thread
/// count of a parallel fan-out.
#[test]
fn empty_fault_schedule_bit_identical_at_every_thread_count() {
    let reqs: [(usize, usize, usize); 4] =
        [(128, 96, 1), (512, 300, 2), (64, 48, 4), (1024, 128, 1)];
    let run = |threads: usize, hooked: bool| {
        par_map_deterministic(&reqs, threads, |i, &(prompt, output, batch)| {
            let mut e = SimEngine::new(EngineConfig::vllm(), item_seed(42, i as u64));
            if hooked {
                e.set_fault_schedule(FaultSchedule::none());
                e.set_clock_s(777.0);
            }
            e.run(
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                &GenerationRequest::new(prompt, output).with_batch(batch),
            )
            .expect("fits")
        })
    };
    let baseline = run(1, false);
    for threads in [1usize, 2, 3, 0] {
        assert_eq!(
            baseline,
            run(threads, true),
            "no-op schedule must not perturb a bit at {threads} threads"
        );
    }
}

/// Same-seed continuous serving is bit-identical at every thread count of
/// a parallel fan-out: all scheduler state lives in the per-cell engine
/// and stepper, never in thread identity or completion order.
#[test]
fn parallel_continuous_serving_bit_identical_at_every_thread_count() {
    let cells: Vec<u64> = (0..6).collect();
    let run = |threads: usize| {
        par_map_deterministic(&cells, threads, |i, _| {
            let mut e = SimEngine::new(EngineConfig::vllm(), item_seed(0x5e12, i as u64));
            let cfg = ServingConfig::new(1.5, 6, 14, 96, 64).with_deadline(120.0);
            simulate_serving_continuous(
                &mut e,
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                &cfg,
                i as u64,
            )
            .expect("runs")
        })
    };
    let sequential = run(1);
    for threads in [2usize, 3, 0] {
        assert_eq!(sequential, run(threads), "differ at {threads} threads");
    }
}

/// A fan-out of fleet simulations (as `fleet_study` runs them) is
/// bit-identical at every thread count: every replica's RNG lanes derive
/// from the cell's item seed, never from scheduling.
#[test]
fn parallel_cluster_serving_bit_identical_at_every_thread_count() {
    use edgereasoning::engine::cluster::CrashConfig;
    let cells: Vec<u64> = (0..4).collect();
    let run = |threads: usize| {
        par_map_deterministic(&cells, threads, |i, _| {
            let cfg = ServingConfig::new(1.5, 6, 12, 96, 64)
                .with_deadline(120.0)
                .with_retries(2, 0.5);
            let cluster = ClusterConfig::new(1 + i % 3, EngineConfig::vllm())
                .with_crashes(CrashConfig {
                    mtbf_s: 40.0,
                    mttr_s: 8.0,
                    cold_start_s: 4.0,
                })
                .with_hedging(2.0);
            simulate_cluster(
                &cluster,
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                &cfg,
                item_seed(0xf1ee7, i as u64),
            )
            .expect("cluster runs")
        })
    };
    let sequential = run(1);
    for threads in [2usize, 3, 0] {
        assert_eq!(sequential, run(threads), "differ at {threads} threads");
    }
}

/// A cached parallel study equals the sequential run exactly — the full
/// acceptance property: caching plus threading change only the wall clock.
#[test]
fn parallel_study_bit_identical_to_sequential() {
    let cells = [
        StudyCell::new(
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            Benchmark::MmluRedux,
            PromptConfig::Base,
        ),
        StudyCell::new(
            ModelId::Dsr1Qwen1_5b,
            Precision::W4A16,
            Benchmark::MmluRedux,
            PromptConfig::Hard(128),
        ),
        // Cells that share the first cell's phase costs: the same model and
        // precision, and L1-Max on the same backbone.
        StudyCell::new(
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            Benchmark::MmluRedux,
            PromptConfig::NoReason,
        ),
        StudyCell::new(
            ModelId::L1Max,
            Precision::Fp16,
            Benchmark::MmluRedux,
            PromptConfig::Hard(512),
        ),
    ];
    let opts = EvalOptions::default().with_subset(60);
    let study = Study::new(RigConfig::default());
    let sequential = study.run(&cells, opts);
    for threads in [0usize, 2, 4] {
        let parallel = study.clone().with_threads(threads).run(&cells, opts);
        assert_eq!(
            sequential.reports, parallel.reports,
            "differ at {threads} threads"
        );
        assert_eq!(sequential.counters, parallel.counters);
    }
}

/// A study's rigs share only their phase-plan store: `Study::run` returns
/// the reports and summed counters of store-less fresh rigs seeded the way
/// `Study` seeds them, at one and three threads. The grid spans both
/// precisions, three models on the Qwen2.5-1.5B backbone and two distinct
/// models, with every (model, precision) in two cells, so most cells read
/// entries other cells stored.
#[test]
fn study_with_a_shared_plan_store_matches_storeless_rigs() {
    let models = [
        ModelId::Dsr1Qwen1_5b,
        ModelId::L1Max,
        ModelId::DeepScaleR1_5b,
        ModelId::Dsr1Llama8b,
        ModelId::Dsr1Qwen14b,
    ];
    let mut cells = Vec::new();
    for model in models {
        for prec in [Precision::Fp16, Precision::W4A16] {
            for config in [PromptConfig::Base, PromptConfig::Hard(128)] {
                cells.push(StudyCell::new(model, prec, Benchmark::MmluRedux, config));
            }
        }
    }
    assert_eq!(cells.len(), 20);
    let opts = EvalOptions::default().with_subset(20);
    let config = RigConfig::default();
    let mut counters = EngineCounters::default();
    let reports: Vec<_> = cells
        .iter()
        .enumerate()
        .map(|(idx, c)| {
            let seed = item_seed(config.seed, idx as u64);
            let mut rig = Rig::new(config.clone().with_seed(seed));
            let report = rig.cell_report(c.model, c.precision, c.bench, c.config, opts);
            counters.absorb(&rig.engine_mut().counters());
            report
        })
        .collect();
    for threads in [1usize, 3] {
        let study = Study::new(config.clone())
            .with_threads(threads)
            .run(&cells, opts);
        assert_eq!(
            study.reports, reports,
            "reports differ at {threads} threads"
        );
        assert_eq!(
            study.counters, counters,
            "counters differ at {threads} threads"
        );
    }
}

/// Every field of a phase aggregate as bits.
fn phase_bits(p: &PhaseStats) -> [u64; 7] {
    [
        p.latency_s.to_bits(),
        p.energy_j.to_bits(),
        p.avg_power_w.to_bits(),
        p.gpu_util.to_bits(),
        p.dram_rd_util.to_bits(),
        p.dram_wr_util.to_bits(),
        p.kernels as u64,
    ]
}

/// The engine's miss path costs a builder's replicated layer once
/// (`Gpu::run_phase_layered` fed by `KernelPlan::layer_run`); it must
/// equal the generic roofline bit for bit on every model, precision and
/// phase kind, on batches and shapes around the 128-token tile edge, in
/// every power mode and under a thermal throttle, bandwidth contention and
/// a power-mode drop with its cap, with each calibration a phase uses.
#[test]
fn layered_roofline_matches_the_generic_one_bit_for_bit() {
    type Lower = fn(&mut KernelPlan, &ModelArch, Precision, usize, usize);
    const SHAPES: [usize; 5] = [1, 127, 128, 129, 4096];
    let lowerings: [(&str, &[usize], Lower); 3] = [
        ("prefill", &SHAPES, |p, a, prec, b, s| {
            build_prefill_into(p, a, prec, b, s)
        }),
        ("decode base", &[0], |p, a, prec, b, _| {
            build_decode_base_into(p, a, prec, b)
        }),
        ("decode ctx", &SHAPES, |p, a, prec, b, s| {
            build_decode_attn_into(p, a, prec, b, s)
        }),
    ];
    let spec = OrinSpec::agx_orin_64gb().gpu;
    let mut gpus: Vec<Gpu> = PowerMode::ALL
        .iter()
        .map(|&mode| Gpu::new(spec.clone(), mode, 7))
        .collect();
    let drop_to = PowerMode::W15;
    for derate in [
        Derate {
            freq: 0.72,
            ..Derate::IDENTITY
        },
        Derate {
            bw: 0.55,
            ..Derate::IDENTITY
        },
        Derate {
            freq: drop_to.freq_scale() / PowerMode::MaxN.freq_scale(),
            cap_w: drop_to.power_cap_w(),
            ..Derate::IDENTITY
        },
    ] {
        let mut gpu = test_gpu();
        gpu.set_derate(derate);
        gpus.push(gpu);
    }

    let mut plan = KernelPlan::new();
    let mut compared = 0usize;
    for id in ModelId::ALL {
        let arch = id.arch();
        let calibs = [arch.calib.prefill, arch.calib.decode, ExecCalib::default()];
        for prec in Precision::ALL {
            for batch in [1, 2, 7, 26, 64] {
                for (kind, shapes, lower) in &lowerings {
                    for &shape in *shapes {
                        plan.clear();
                        lower(&mut plan, &arch, prec, batch, shape);
                        assert!(plan.layer_run().is_some());
                        for gpu in &gpus {
                            for calib in &calibs {
                                let generic = gpu.run_phase_deterministic(plan.kernels(), calib);
                                let layered =
                                    gpu.run_phase_layered(plan.kernels(), plan.layer_run(), calib);
                                assert_eq!(
                                    phase_bits(&layered),
                                    phase_bits(&generic),
                                    "{id} {prec:?} {kind} batch {batch} shape {shape} \
                                     mode {:?} derate {:?} calib {calib:?}",
                                    gpu.mode(),
                                    gpu.derate(),
                                );
                                compared += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(compared, 10 * 2 * 5 * 11 * 7 * 3);
}

/// PR10 knobs-off contract, leg 1: tagging arrivals with a FIFO admission
/// config must be *decision-inert* — over 500 seeds the flat serving
/// report is bit-identical to running with no admission config at all.
/// (The class tag stream draws from its own hash lane, so turning it on
/// cannot perturb arrivals, scheduling, or energy.)
#[test]
fn fifo_admission_bit_identical_to_no_admission_over_500_seeds() {
    use edgereasoning::engine::serving::{AdmissionConfig, PriorityMix};
    for seed in 0..500u64 {
        let plain = ServingConfig::new(3.0, 4, 10, 64, 48).with_deadline(30.0);
        let tagged = plain.with_admission(AdmissionConfig::fifo(PriorityMix::EDGE_MIX, seed ^ 7));
        let mut e1 = SimEngine::new(EngineConfig::vllm(), seed);
        let r1 = simulate_serving_continuous(
            &mut e1,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &plain,
            seed,
        )
        .expect("plain runs");
        let mut e2 = SimEngine::new(EngineConfig::vllm(), seed);
        let r2 = simulate_serving_continuous(
            &mut e2,
            ModelId::Dsr1Qwen1_5b,
            Precision::Fp16,
            &tagged,
            seed,
        )
        .expect("tagged runs");
        assert_eq!(r1, r2, "FIFO tagging perturbed the report at seed {seed}");
    }
}

/// PR10 conservation auditor, study-smoke leg: the serving and cluster
/// configurations the study bins run in CI (`--smoke` grids) must produce
/// reports with zero auditor violations — every request retires exactly
/// once and the energy ledger closes.
#[test]
fn auditor_passes_on_study_smoke_configs() {
    use edgereasoning::engine::{audit_cluster, audit_serving};
    // serving_study-style smoke cell.
    let cfg = ServingConfig::new(1.5, 6, 14, 96, 64).with_deadline(120.0);
    let mut e = SimEngine::new(EngineConfig::vllm(), 11);
    let r = simulate_serving_continuous(&mut e, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 11)
        .expect("serving smoke runs");
    assert_eq!(audit_serving(&cfg, &r), Vec::<String>::new());
    // fleet_study-style smoke cell: crashes + hedging + retries.
    let cfg = ServingConfig::new(2.0, 8, 16, 128, 128)
        .with_deadline(12.0)
        .with_retries(3, 0.5);
    let cluster = ClusterConfig::new(2, EngineConfig::vllm())
        .with_crashes(CrashConfig {
            mtbf_s: 90.0,
            mttr_s: 10.0,
            cold_start_s: 5.0,
        })
        .with_hedging(1.5);
    let r = simulate_cluster(&cluster, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, 3)
        .expect("fleet smoke runs");
    assert_eq!(audit_cluster(&cfg, &cluster, &r), Vec::<String>::new());
}

proptest! {
    /// PR10 domain weather: correlated domain crashes and partitions may
    /// void and requeue work, but every offered request still retires
    /// exactly once (completed + shed + failed == offered) and the
    /// auditor stays clean.
    #[test]
    fn domain_crash_void_and_requeue_conserves_requests(
        seed in 0u64..1_000,
        crash_mtbf in 40.0f64..120.0,
        event_mtbf in 30.0f64..90.0,
    ) {
        use edgereasoning::engine::audit_cluster;
        use edgereasoning::engine::cluster::BreakerConfig;
        use edgereasoning::soc::faults::{DomainConfig, DomainKind};
        let queries = 40usize;
        let cfg = ServingConfig::new(2.0, 6, queries, 96, 64)
            .with_deadline(15.0)
            .with_retries(2, 0.5);
        let cluster = ClusterConfig::new(2, EngineConfig::vllm())
            .with_breaker(BreakerConfig {
                cooldown_s: 4.0,
                ..BreakerConfig::edge_default()
            })
            .with_domains(vec![
                DomainConfig {
                    crash_mtbf_s: crash_mtbf,
                    crash_mttr_s: 5.0,
                    ..DomainConfig::quiet(DomainKind::Power, vec![0, 1])
                },
                DomainConfig {
                    event_mtbf_s: event_mtbf,
                    event_duration_s: 6.0,
                    ..DomainConfig::quiet(DomainKind::Network, vec![0])
                },
            ]);
        let r = simulate_cluster(&cluster, ModelId::Dsr1Qwen1_5b, Precision::Fp16, &cfg, seed)
            .expect("domain weather runs");
        prop_assert_eq!(
            r.fleet.completed + r.fleet.shed_queries + r.fleet.failed_queries,
            queries
        );
        let violations = audit_cluster(&cfg, &cluster, &r);
        prop_assert!(violations.is_empty(), "auditor violations: {:?}", violations);
    }
}
