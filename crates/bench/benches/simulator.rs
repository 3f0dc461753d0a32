//! Criterion benchmarks on the simulator hot paths: kernel lowering,
//! roofline execution, full generations, and dataset-scale evaluation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use edgereasoning_engine::cluster::{simulate_cluster, BreakerConfig, ClusterConfig, CrashConfig};
use edgereasoning_engine::engine::{EngineConfig, InferenceEngine};
use edgereasoning_engine::kv_cache::KvCacheManager;
use edgereasoning_engine::prefix_cache::PrefixCache;
use edgereasoning_engine::request::GenerationRequest;
use edgereasoning_engine::serving::{
    simulate_serving_with, AdmissionConfig, Priority, PriorityMix, SchedulerKind, ServingConfig,
};
use edgereasoning_kernels::arch::ModelId;
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_kernels::phases::{decode_step_kernels, prefill_kernels};
use edgereasoning_models::evaluate::{evaluate, EvalOptions};
use edgereasoning_soc::faults::{DomainConfig, DomainKind};
use edgereasoning_soc::gpu::{ExecCalib, Gpu};
use edgereasoning_soc::spec::{OrinSpec, PowerMode};
use edgereasoning_soc::thermal::{GovernanceConfig, ThermalConfig, ThermalGovernor};
use edgereasoning_workloads::prompt::PromptConfig;
use edgereasoning_workloads::suite::Benchmark;
use std::hint::black_box;

fn bench_kernel_lowering(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel_lowering");
    for model in [ModelId::Dsr1Qwen1_5b, ModelId::Dsr1Qwen14b] {
        let arch = model.arch();
        g.bench_with_input(BenchmarkId::new("decode_step", model), &arch, |b, arch| {
            b.iter(|| decode_step_kernels(black_box(arch), Precision::Fp16, 1, 512))
        });
        g.bench_with_input(BenchmarkId::new("prefill_1k", model), &arch, |b, arch| {
            b.iter(|| prefill_kernels(black_box(arch), Precision::Fp16, 1, 1024))
        });
    }
    g.finish();
}

fn bench_roofline_execution(c: &mut Criterion) {
    let mut g = c.benchmark_group("roofline");
    let arch = ModelId::Dsr1Llama8b.arch();
    let kernels = decode_step_kernels(&arch, Precision::Fp16, 1, 512);
    g.bench_function("decode_step_8b", |b| {
        let mut gpu = Gpu::new(OrinSpec::agx_orin_64gb().gpu, PowerMode::MaxN, 1);
        b.iter(|| gpu.run_phase(black_box(&kernels).iter(), &ExecCalib::default()))
    });
    g.finish();
}

fn bench_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("generation");
    g.sample_size(20);
    for (label, tokens) in [("short_128", 128usize), ("long_1024", 1024)] {
        g.bench_function(label, |b| {
            let mut engine = InferenceEngine::new(EngineConfig::vllm(), 3);
            let req = GenerationRequest::new(512, tokens);
            b.iter(|| engine.run(ModelId::Dsr1Llama8b, Precision::Fp16, black_box(&req)))
        });
    }
    g.bench_function("parallel_sf32", |b| {
        let mut engine = InferenceEngine::new(EngineConfig::vllm(), 3);
        let req = GenerationRequest::new(512, 128).with_batch(32);
        b.iter(|| engine.run(ModelId::Dsr1Qwen1_5b, Precision::Fp16, black_box(&req)))
    });
    g.finish();
}

fn bench_dataset_eval(c: &mut Criterion) {
    let mut g = c.benchmark_group("dataset_eval");
    g.sample_size(10);
    g.bench_function("mmlu_redux_3k_base", |b| {
        b.iter(|| {
            evaluate(
                ModelId::Dsr1Llama8b,
                Precision::Fp16,
                Benchmark::MmluRedux,
                PromptConfig::Base,
                EvalOptions::default(),
            )
        })
    });
    g.bench_function("mmlu_redux_500_voted_8x", |b| {
        b.iter(|| {
            evaluate(
                ModelId::Dsr1Qwen14b,
                Precision::Fp16,
                Benchmark::MmluRedux,
                PromptConfig::Hard(128),
                EvalOptions::default().with_parallel(8).with_subset(500),
            )
        })
    });
    g.finish();
}

fn bench_cache_effect(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_effect");
    g.sample_size(10);
    // The decode-fit grid the rig sweeps when characterizing a model for a
    // fig06_07_08 cell: 36 generations over mixed input/output lengths.
    let grid: Vec<(usize, usize)> = [64usize, 128, 256, 512, 1024, 2048]
        .iter()
        .flat_map(|&i| {
            [32usize, 64, 128, 256, 512, 1024]
                .iter()
                .map(move |&o| (i, o))
        })
        .collect();
    for (label, cache) in [("fig06_grid_cached", true), ("fig06_grid_uncached", false)] {
        g.bench_function(label, |b| {
            // One engine across iterations, like the rig drives one engine
            // across a whole study — the cached variant reaches its warm
            // steady state after the first pass over the grid.
            let mut engine = InferenceEngine::new(EngineConfig::vllm(), 3);
            engine.set_cache_enabled(cache);
            b.iter(|| {
                for &(i, o) in &grid {
                    let req = GenerationRequest::new(i, o);
                    let out = engine
                        .run(ModelId::Dsr1Llama8b, Precision::Fp16, black_box(&req))
                        .expect("fits");
                    black_box(out);
                }
            })
        });
    }
    g.finish();
}

fn bench_serving(c: &mut Criterion) {
    let mut g = c.benchmark_group("serving");
    g.sample_size(10);
    // One serving_study cell: a 24-query Poisson stream at moderate load
    // with a deadline, through each scheduler.
    let cfg = ServingConfig::new(1.0, 8, 24, 128, 128).with_deadline(20.0);
    for (label, kind) in [
        ("static_24q", SchedulerKind::Static),
        ("continuous_24q", SchedulerKind::Continuous),
    ] {
        g.bench_function(label, |b| {
            let mut engine = InferenceEngine::new(EngineConfig::vllm(), 3);
            b.iter(|| {
                simulate_serving_with(
                    kind,
                    &mut engine,
                    ModelId::Dsr1Qwen1_5b,
                    Precision::Fp16,
                    black_box(&cfg),
                    7,
                )
                .expect("runs")
            })
        });
    }
    // The PR6 throughput gate: a 100k-query trace near device capacity
    // through the discrete-event core. The ≥1M simulated requests/s
    // acceptance target means this entry must stay under 100ms.
    let des_cfg = ServingConfig::new(5.0, 30, 100_000, 128, 128);
    g.bench_function("des_100k", |b| {
        let mut engine = InferenceEngine::new(EngineConfig::vllm(), 3);
        b.iter(|| {
            simulate_serving_with(
                SchedulerKind::Continuous,
                &mut engine,
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                black_box(&des_cfg),
                7,
            )
            .expect("runs")
        })
    });
    g.finish();
}

fn bench_cluster(c: &mut Criterion) {
    let mut g = c.benchmark_group("cluster");
    g.sample_size(10);
    // One fleet_study cell: a 24-query stream over 3 replicas with crash
    // weather and hedging — the full router + failover + hedge machinery.
    let cfg = ServingConfig::new(2.0, 8, 24, 128, 128)
        .with_deadline(12.0)
        .with_retries(3, 0.5);
    let quiet = ClusterConfig::new(1, EngineConfig::vllm());
    let stormy = ClusterConfig::new(3, EngineConfig::vllm())
        .with_fault_intensity(2.0)
        .with_crashes(CrashConfig {
            mtbf_s: 45.0,
            mttr_s: 8.0,
            cold_start_s: 4.0,
        })
        .with_hedging(1.5);
    for (label, cluster) in [("quiet_1rep_24q", &quiet), ("stormy_3rep_24q", &stormy)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                simulate_cluster(
                    black_box(cluster),
                    ModelId::Dsr1Qwen1_5b,
                    Precision::Fp16,
                    black_box(&cfg),
                    7,
                )
                .expect("runs")
            })
        });
    }
    // The DES fleet at scale: 100k queries over 3 replicas with crash
    // weather, hedging and a deadline, on the shared event core.
    let des_cfg = ServingConfig::new(12.0, 30, 100_000, 128, 128)
        .with_deadline(60.0)
        .with_retries(3, 0.5);
    let des_fleet = ClusterConfig::new(3, EngineConfig::vllm())
        .with_fault_intensity(1.0)
        .with_crashes(CrashConfig {
            mtbf_s: 600.0,
            mttr_s: 8.0,
            cold_start_s: 4.0,
        })
        .with_hedging(3.0)
        .with_horizon(20_000.0);
    g.bench_function("des_3rep_100k", |b| {
        b.iter(|| {
            simulate_cluster(
                black_box(&des_fleet),
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                black_box(&des_cfg),
                7,
            )
            .expect("runs")
        })
    });
    // One million queries through the same stormy fleet: the headline for
    // the zero-allocation event core. Must stay well under a second per
    // lane on commodity hardware.
    let des_cfg_1m = ServingConfig::new(12.0, 30, 1_000_000, 128, 128)
        .with_deadline(60.0)
        .with_retries(3, 0.5);
    let des_fleet_1m = des_fleet.clone().with_horizon(200_000.0);
    g.bench_function("des_3rep_1m", |b| {
        b.iter(|| {
            simulate_cluster(
                black_box(&des_fleet_1m),
                ModelId::Dsr1Qwen1_5b,
                Precision::Fp16,
                black_box(&des_cfg_1m),
                7,
            )
            .expect("runs")
        })
    });
    g.finish();
}

fn bench_prefix_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("prefix_cache");
    let arch = ModelId::Dsr1Qwen1_5b.arch();
    // Hit-heavy admission: every acquire walks a resident 64-block
    // template path and only bumps refcounts — the steady state of a
    // template-dominated fleet.
    let template: Vec<u64> = (0..64).map(|b| 0xbe9c_0000 + b).collect();
    g.bench_function("hit_heavy_acquire_64blk", |b| {
        let mut kv = KvCacheManager::new(&arch, 8 << 30, 16).expect("kv");
        let mut cache = PrefixCache::new();
        let warm = cache.acquire(&mut kv, &template, 1); // seed residency
        b.iter(|| {
            let acq = cache.acquire(&mut kv, black_box(&template), 1);
            if let Some(h) = acq.handle {
                cache.release(h, 1);
            }
            acq.hit_blocks
        });
        if let Some(h) = warm.handle {
            cache.release(h, 1);
        }
    });
    // Miss-heavy admission on a small allocator: every acquire inserts 32
    // fresh blocks and, once the pool fills, evicts 32 cold leaves — the
    // churn path (tree insert + LRU heap + allocator round-trips).
    g.bench_function("miss_heavy_churn_32blk", |b| {
        let blocks = 1024u64;
        let bytes = blocks * 16 * arch.kv_bytes_per_token();
        let mut kv = KvCacheManager::new(&arch, bytes, 16).expect("kv");
        let mut cache = PrefixCache::new();
        let mut next = 0u64;
        b.iter(|| {
            let sigs: Vec<u64> = (0..32).map(|j| (next << 8) | j).collect();
            next += 1;
            let acq = cache.acquire(&mut kv, black_box(&sigs), 1);
            if let Some(h) = acq.handle {
                cache.release(h, 1);
            }
            acq.resident_blocks
        });
    });
    // Pure lookup against 10k resident sequences (a 4-block shared stem
    // fanning out into 10k private leaves): the router's warm-replica
    // peek, no mutation.
    let stem: Vec<u64> = (0..4).map(|b| 0x57e_a000 + b).collect();
    let mut kv = KvCacheManager::new(&arch, 64 << 30, 16).expect("kv");
    let mut cache = PrefixCache::new();
    for s in 0..10_000u64 {
        let mut sigs = stem.clone();
        sigs.push(0xdead_0000 + s);
        let acq = cache.acquire(&mut kv, &sigs, 1);
        if let Some(h) = acq.handle {
            cache.release(h, 1);
        }
    }
    assert!(cache.resident_blocks() >= 10_000);
    g.bench_function("lookup_10k_resident", |b| {
        let mut probe = stem.clone();
        probe.push(0xdead_0000 + 4_999);
        b.iter(|| cache.match_blocks(black_box(&probe)))
    });
    g.finish();
}

fn bench_thermal(c: &mut Criterion) {
    let mut g = c.benchmark_group("thermal");
    g.sample_size(10);
    // Governed vs ungoverned continuous serving: the same 24-query stream
    // with the thermal RC + ladder in the loop. The delta is the whole
    // cost of closed-loop governance (exp() per busy segment).
    let cfg = ServingConfig::new(1.0, 8, 24, 128, 128).with_deadline(20.0);
    for (label, governance) in [
        ("ungoverned_24q", None),
        (
            "governed_24q",
            Some(
                GovernanceConfig {
                    thermal: ThermalConfig {
                        c_j_per_c: 8.6,
                        ..ThermalConfig::default()
                    },
                    ..GovernanceConfig::default()
                }
                .with_trip(40.0, 36.0),
            ),
        ),
    ] {
        g.bench_function(label, |b| {
            let mut engine_cfg = EngineConfig::vllm();
            if let Some(gov) = governance {
                engine_cfg = engine_cfg.with_governance(gov);
            }
            let mut engine = InferenceEngine::new(engine_cfg, 3);
            b.iter(|| {
                simulate_serving_with(
                    SchedulerKind::Continuous,
                    &mut engine,
                    ModelId::Dsr1Qwen1_5b,
                    Precision::Fp16,
                    black_box(&cfg),
                    7,
                )
                .expect("runs")
            })
        });
    }
    // The raw governor: one million exact RC feed segments.
    g.bench_function("governor_1m_feeds", |b| {
        b.iter(|| {
            let gov = GovernanceConfig {
                thermal: ThermalConfig {
                    c_j_per_c: 8.6,
                    ..ThermalConfig::default()
                },
                ..GovernanceConfig::default()
            }
            .with_trip(40.0, 36.0);
            let mut governor = ThermalGovernor::new(gov, 4.3);
            let mut t = 0.0;
            for i in 0..1_000_000u64 {
                let dt = 0.001 + (i % 7) as f64 * 1e-4;
                governor.feed(black_box(0.03), t, t + dt);
                t += dt;
            }
            governor.stats()
        })
    });
    g.finish();
}

fn bench_overload(c: &mut Criterion) {
    let mut g = c.benchmark_group("overload");
    g.sample_size(10);
    // One overload_study cell: a 240-query mixed-criticality stream at
    // ~2x fleet capacity through two replicas. `fifo_2x` prices the
    // class-tagging bookkeeping alone; `priority_2x` adds the full
    // admission controller (class-ranked lane walks, token buckets, slack/KV
    // guards, queue aging); `priority_storm_2x` adds domain weather and
    // circuit breakers on top.
    let mix = PriorityMix::EDGE_MIX;
    let base = ServingConfig::new(10.0, 8, 240, 128, 96)
        .with_deadline(8.0)
        .with_queue_capacity(48);
    let fifo_cfg = base.with_admission(AdmissionConfig::fifo(mix, 5));
    let prio_cfg = base.with_admission(
        AdmissionConfig::priority(mix, 5)
            .with_rate(Priority::Batch, 2.5, 8.0)
            .with_rate(Priority::Background, 0.75, 4.0)
            .with_age_target(Priority::Background, 2.0)
            .with_age_target(Priority::Batch, 6.0),
    );
    let calm = ClusterConfig::new(2, EngineConfig::vllm());
    let stormy = ClusterConfig::new(2, EngineConfig::vllm())
        .with_breaker(BreakerConfig {
            cooldown_s: 4.0,
            ..BreakerConfig::edge_default()
        })
        .with_domains(vec![
            DomainConfig {
                crash_mtbf_s: 120.0,
                crash_mttr_s: 4.0,
                ..DomainConfig::quiet(DomainKind::Power, vec![0, 1])
            },
            DomainConfig {
                event_mtbf_s: 15.0,
                event_duration_s: 5.0,
                ..DomainConfig::quiet(DomainKind::Network, vec![0])
            },
        ]);
    for (label, cluster, cfg) in [
        ("fifo_2x_240q", &calm, &fifo_cfg),
        ("priority_2x_240q", &calm, &prio_cfg),
        ("priority_storm_2x_240q", &stormy, &prio_cfg),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                simulate_cluster(
                    black_box(cluster),
                    ModelId::Dsr1Qwen1_5b,
                    Precision::Fp16,
                    black_box(cfg),
                    7,
                )
                .expect("runs")
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_kernel_lowering,
    bench_roofline_execution,
    bench_generation,
    bench_dataset_eval,
    bench_cache_effect,
    bench_serving,
    bench_cluster,
    bench_overload,
    bench_prefix_cache,
    bench_thermal
);
criterion_main!(benches);
