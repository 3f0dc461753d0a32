//! Lowering of transformer forward passes into device kernel sequences.
//!
//! [`prefill_kernels`] emits the kernels of one full prompt-processing pass
//! (all tokens in parallel — GEMM-shaped, tensor-core tiled); one call to
//! [`decode_step_kernels`] emits a single autoregressive step (GEMV-shaped,
//! DRAM-bandwidth bound). The simulated engine composes these into complete
//! generations.
//!
//! For hot paths the allocating entry points are thin wrappers over
//! `build_*_into` variants that append into a caller-owned [`KernelPlan`]
//! scratch buffer, so a simulation loop lowering thousands of steps reuses
//! one allocation instead of building a fresh `Vec` per phase. The decode
//! lowering is additionally split into a context-independent base
//! ([`build_decode_base_into`]) and the per-layer attention GEMVs — the only
//! kernels whose cost depends on `ctx` — ([`build_decode_attn_into`]), which
//! lets the engine cache the two parts under separate keys.
//!
//! Every builder lowers one transformer layer and copies it once per
//! layer, and the plan records that run ([`KernelPlan::layer_run`]), so the
//! roofline can cost one copy and reuse it for the rest
//! (`edgereasoning_soc::gpu::Gpu::run_phase_layered`).

use std::ops::Range;

use edgereasoning_soc::kernel::{ComputeKind, KernelClass, KernelDesc};

use crate::arch::ModelArch;
use crate::dtype::Precision;

/// Activation byte width (FP16 everywhere in this study).
const ACT: f64 = 2.0;

/// Reusable scratch buffer for lowered kernel sequences.
///
/// The `build_*_into` functions append to the plan without allocating once
/// its backing storage has grown to the model's kernel count; callers clear
/// and refill it each phase.
#[derive(Debug, Clone, Default)]
pub struct KernelPlan {
    kernels: Vec<KernelDesc>,
    /// The last builder's replicated layer: the first copy's range and
    /// the number of copies (see [`KernelPlan::layer_run`]).
    layer_run: Option<(Range<usize>, usize)>,
}

impl KernelPlan {
    /// Creates an empty plan.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all kernels and the layer record but keeps the backing
    /// allocation.
    pub fn clear(&mut self) {
        self.kernels.clear();
        self.layer_run = None;
    }

    /// The lowered kernel sequence.
    #[must_use]
    pub fn kernels(&self) -> &[KernelDesc] {
        &self.kernels
    }

    /// The run of identical layers the last builder emitted: the kernel
    /// range of its first copy and the number of copies, which follow each
    /// other from the range's start. Kernels outside the run, including
    /// those an earlier builder appended to the same plan, are ordinary
    /// kernels. `None` for an empty plan and for a zero-layer
    /// architecture.
    #[inline]
    #[must_use]
    pub fn layer_run(&self) -> Option<(Range<usize>, usize)> {
        self.layer_run.clone()
    }

    /// Number of kernels in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Whether the plan holds no kernels.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// Consumes the plan, yielding the kernels as a `Vec`.
    #[must_use]
    pub fn into_vec(self) -> Vec<KernelDesc> {
        self.kernels
    }

    /// Replicates the layer built from `first_start` to the end of the
    /// plan into `layers` copies and records the run (nothing is left,
    /// and no run recorded, when `layers` is 0). The layer's kernels do
    /// not depend on the layer index, so the copies are memcpys.
    fn replicate_layer(&mut self, first_start: usize, layers: usize) {
        let first = first_start..self.kernels.len();
        if layers == 0 {
            self.kernels.truncate(first_start);
            self.layer_run = None;
            return;
        }
        for _ in 1..layers {
            self.kernels.extend_from_within(first.clone());
        }
        self.layer_run = Some((first, layers));
    }
}

fn linear(
    class: KernelClass,
    prec: Precision,
    m: usize,
    n: usize,
    k: usize,
    weight_bytes_per_param: f64,
) -> KernelDesc {
    let weights = n as f64 * k as f64 * weight_bytes_per_param;
    let act_in = m as f64 * k as f64 * ACT;
    let act_out = m as f64 * n as f64 * ACT;
    KernelDesc::gemm(class, prec.compute_kind(), m, n, k).with_bytes_f64(weights + act_in, act_out)
}

/// On-the-fly dequantization work for W4 weights (scales/zeros applied per
/// group in the GEMM prologue); modeled as CUDA-core elementwise math over
/// the weight volume, with no extra DRAM traffic (bytes already counted by
/// the GEMM itself).
fn dequant(n: usize, k: usize) -> KernelDesc {
    KernelDesc::raw(
        KernelClass::Elementwise,
        ComputeKind::CudaFp32,
        n as f64 * k as f64,
        0.0,
        0.0,
    )
}

fn rms_norm(m: usize, d: usize) -> KernelDesc {
    KernelDesc::raw(
        KernelClass::Elementwise,
        ComputeKind::CudaFp32,
        8.0 * m as f64 * d as f64,
        2.0 * m as f64 * d as f64 * ACT,
        m as f64 * d as f64 * ACT,
    )
}

fn push_linear(
    out: &mut Vec<KernelDesc>,
    class: KernelClass,
    prec: Precision,
    m: usize,
    n: usize,
    k: usize,
) {
    out.push(linear(class, prec, m, n, k, prec.bytes_per_param()));
    if prec.needs_dequant() {
        out.push(dequant(n, k));
    }
}

/// Kernels of one prefill pass over `seq` prompt tokens (per sequence) at
/// the given batch size. Matches the paper's measurement setup where the
/// prompt is processed in a single forward pass.
///
/// # Panics
///
/// Panics if `batch == 0` or `seq == 0`.
pub fn prefill_kernels(
    arch: &ModelArch,
    prec: Precision,
    batch: usize,
    seq: usize,
) -> Vec<KernelDesc> {
    let mut plan = KernelPlan::new();
    build_prefill_into(&mut plan, arch, prec, batch, seq);
    plan.into_vec()
}

/// Appends the kernels of one prefill pass to `plan` (see
/// [`prefill_kernels`]); the allocation-free variant for hot loops.
///
/// # Panics
///
/// Panics if `batch == 0` or `seq == 0`.
pub fn build_prefill_into(
    plan: &mut KernelPlan,
    arch: &ModelArch,
    prec: Precision,
    batch: usize,
    seq: usize,
) {
    assert!(batch > 0 && seq > 0, "batch and seq must be positive");
    let m = batch * seq;
    let d = arch.d_model;
    let da = arch.d_attn();
    let dkv = arch.d_kv();
    let out = &mut plan.kernels;
    out.reserve(arch.layers * 12 + 6);

    // Embedding gather.
    out.push(KernelDesc::raw(
        KernelClass::MemCopy,
        ComputeKind::CudaFp32,
        0.0,
        m as f64 * d as f64 * ACT,
        m as f64 * d as f64 * ACT,
    ));

    // One layer's kernels, built once and replicated.
    let layer_start = out.len();
    {
        out.push(rms_norm(m, d));
        // Fused QKV projection.
        push_linear(out, KernelClass::Gemm, prec, m, da + 2 * dkv, d);
        // RoPE.
        out.push(KernelDesc::raw(
            KernelClass::Elementwise,
            ComputeKind::CudaFp32,
            6.0 * m as f64 * (da + dkv) as f64,
            m as f64 * (da + dkv) as f64 * ACT,
            m as f64 * (da + dkv) as f64 * ACT,
        ));
        // KV-cache write for all prompt tokens.
        out.push(KernelDesc::raw(
            KernelClass::MemCopy,
            ComputeKind::CudaFp32,
            0.0,
            0.0,
            m as f64 * 2.0 * dkv as f64 * ACT,
        ));
        // Fused causal attention (score + softmax + value product). FLOPs
        // follow the 4·seq²·d_attn convention the efficiency curve was
        // calibrated against.
        let occupancy = ((da as f64 / 4096.0).powi(2)).clamp(0.05, 1.0);
        out.push(
            KernelDesc::gemm(
                KernelClass::Attention,
                prec.compute_kind(),
                seq,
                seq,
                arch.head_dim,
            )
            .with_bytes_f64(
                m as f64 * (da + 2 * dkv) as f64 * ACT,
                m as f64 * da as f64 * ACT,
            )
            .with_occupancy(occupancy),
        );
        if let Some(attn) = out.last_mut() {
            attn.flops = 4.0 * batch as f64 * (seq as f64).powi(2) * da as f64;
        }
        // Output projection.
        push_linear(out, KernelClass::Gemm, prec, m, d, da);
        out.push(rms_norm(m, d));
        // Gated FFN: fused gate+up, then down.
        push_linear(out, KernelClass::Gemm, prec, m, 2 * arch.d_ff, d);
        out.push(KernelDesc::raw(
            KernelClass::Elementwise,
            ComputeKind::CudaFp32,
            4.0 * m as f64 * arch.d_ff as f64,
            2.0 * m as f64 * arch.d_ff as f64 * ACT,
            m as f64 * arch.d_ff as f64 * ACT,
        ));
        push_linear(out, KernelClass::Gemm, prec, m, d, arch.d_ff);
    }
    plan.replicate_layer(layer_start, arch.layers);

    // Final norm + LM head on the last token of each sequence only (vLLM
    // computes logits lazily), then sampling.
    let out = &mut plan.kernels;
    out.push(rms_norm(batch, d));
    out.push(linear(KernelClass::Gemv, prec, batch, arch.vocab, d, ACT));
    out.push(KernelDesc::raw(
        KernelClass::Reduction,
        ComputeKind::CudaFp32,
        4.0 * batch as f64 * arch.vocab as f64,
        batch as f64 * arch.vocab as f64 * 4.0,
        batch as f64 * 16.0,
    ));
}

/// Kernels of a single decode step for `batch` concurrent sequences, each
/// attending over `ctx` tokens of context.
///
/// # Panics
///
/// Panics if `batch == 0` or `ctx == 0`.
pub fn decode_step_kernels(
    arch: &ModelArch,
    prec: Precision,
    batch: usize,
    ctx: usize,
) -> Vec<KernelDesc> {
    let mut plan = KernelPlan::new();
    build_decode_base_into(&mut plan, arch, prec, batch);
    build_decode_attn_into(&mut plan, arch, prec, batch, ctx);
    plan.into_vec()
}

/// Appends the context-independent kernels of one decode step to `plan`:
/// everything except the per-layer attention GEMVs (projections, norms,
/// RoPE, KV append, FFN, LM head, sampling). These kernels depend only on
/// `(arch, prec, batch)`, so their aggregate cost can be computed once and
/// reused across every step and context length of a generation.
///
/// # Panics
///
/// Panics if `batch == 0`.
pub fn build_decode_base_into(
    plan: &mut KernelPlan,
    arch: &ModelArch,
    prec: Precision,
    batch: usize,
) {
    assert!(batch > 0, "batch must be positive");
    let m = batch;
    let d = arch.d_model;
    let da = arch.d_attn();
    let dkv = arch.d_kv();
    let out = &mut plan.kernels;
    out.reserve(arch.layers * 12 + 6);

    // Embedding row gather for the new token(s).
    out.push(KernelDesc::raw(
        KernelClass::MemCopy,
        ComputeKind::CudaFp32,
        0.0,
        m as f64 * d as f64 * ACT,
        m as f64 * d as f64 * ACT,
    ));

    // One layer's kernels, built once and replicated.
    let layer_start = out.len();
    out.push(rms_norm(m, d));
    push_linear(out, KernelClass::Gemv, prec, m, da + 2 * dkv, d);
    // RoPE on the new token.
    out.push(KernelDesc::raw(
        KernelClass::Elementwise,
        ComputeKind::CudaFp32,
        6.0 * m as f64 * (da + dkv) as f64,
        m as f64 * (da + dkv) as f64 * ACT,
        m as f64 * (da + dkv) as f64 * ACT,
    ));
    // KV append.
    out.push(KernelDesc::raw(
        KernelClass::MemCopy,
        ComputeKind::CudaFp32,
        0.0,
        0.0,
        m as f64 * 2.0 * dkv as f64 * ACT,
    ));
    push_linear(out, KernelClass::Gemv, prec, m, d, da);
    out.push(rms_norm(m, d));
    push_linear(out, KernelClass::Gemv, prec, m, 2 * arch.d_ff, d);
    out.push(KernelDesc::raw(
        KernelClass::Elementwise,
        ComputeKind::CudaFp32,
        4.0 * m as f64 * arch.d_ff as f64,
        2.0 * m as f64 * arch.d_ff as f64 * ACT,
        m as f64 * arch.d_ff as f64 * ACT,
    ));
    push_linear(out, KernelClass::Gemv, prec, m, d, arch.d_ff);
    plan.replicate_layer(layer_start, arch.layers);

    let out = &mut plan.kernels;
    out.push(rms_norm(m, d));
    // LM head stays FP16 (AWQ leaves it unquantized).
    out.push(linear(KernelClass::Gemv, prec, m, arch.vocab, d, ACT));
    out.push(KernelDesc::raw(
        KernelClass::Reduction,
        ComputeKind::CudaFp32,
        4.0 * m as f64 * arch.vocab as f64,
        m as f64 * arch.vocab as f64 * 4.0,
        m as f64 * 16.0,
    ));
}

/// Appends the per-layer decode attention kernels — the only part of a
/// decode step whose cost depends on `ctx` — to `plan`.
///
/// Streaming flash-decode attention over the KV cache: each sequence reads
/// its own `ctx` K/V rows — this is the per-context-token decode slope (the
/// paper's coefficient `m`). Unlike prefill attention it is a GEMV-shaped,
/// bandwidth-bound kernel.
///
/// # Panics
///
/// Panics if `batch == 0` or `ctx == 0`.
pub fn build_decode_attn_into(
    plan: &mut KernelPlan,
    arch: &ModelArch,
    prec: Precision,
    batch: usize,
    ctx: usize,
) {
    assert!(batch > 0 && ctx > 0, "batch and ctx must be positive");
    let m = batch;
    let da = arch.d_attn();
    let dkv = arch.d_kv();
    let out = &mut plan.kernels;
    out.reserve(arch.layers);

    // Every layer lowers to the same descriptor, a one-kernel layer.
    let mut attn = KernelDesc::gemm(
        KernelClass::Gemv,
        prec.compute_kind(),
        m,
        ctx,
        arch.head_dim,
    )
    .with_bytes_f64(
        m as f64 * ctx as f64 * 2.0 * dkv as f64 * ACT + m as f64 * da as f64 * ACT,
        m as f64 * da as f64 * ACT,
    );
    attn.flops = 4.0 * m as f64 * ctx as f64 * da as f64;
    let layer_start = out.len();
    out.push(attn);
    plan.replicate_layer(layer_start, arch.layers);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ModelId;

    #[test]
    fn decode_step_reads_all_weights_once() {
        for id in [
            ModelId::Dsr1Qwen1_5b,
            ModelId::Dsr1Llama8b,
            ModelId::Dsr1Qwen14b,
        ] {
            let arch = id.arch();
            let step = decode_step_kernels(&arch, Precision::Fp16, 1, 512);
            let read: f64 = step.iter().map(|k| k.bytes_read).sum();
            let weights = arch.weight_bytes(Precision::Fp16) as f64;
            // Weights dominate the read traffic at short context; tied
            // embeddings are read only as one row + the LM head.
            assert!(
                read > 0.85 * weights && read < 1.3 * weights,
                "{id}: read {read:.3e} vs weights {weights:.3e}"
            );
        }
    }

    #[test]
    fn decode_kv_traffic_scales_with_context() {
        let arch = ModelId::Dsr1Llama8b.arch();
        let short = decode_step_kernels(&arch, Precision::Fp16, 1, 128);
        let long = decode_step_kernels(&arch, Precision::Fp16, 1, 4096);
        let rd = |ks: &[KernelDesc]| ks.iter().map(|k| k.bytes_read).sum::<f64>();
        let delta = rd(&long) - rd(&short);
        // (4096-128) ctx tokens × 131072 B/ctx-token of KV.
        let expected = (4096.0 - 128.0) * arch.kv_bytes_per_token() as f64;
        assert!(
            (delta / expected - 1.0).abs() < 0.05,
            "KV delta {delta:.3e} vs expected {expected:.3e}"
        );
    }

    #[test]
    fn prefill_flops_scale_quadratically_in_attention() {
        let arch = ModelId::Dsr1Qwen14b.arch();
        let attn_flops = |seq: usize| -> f64 {
            prefill_kernels(&arch, Precision::Fp16, 1, seq)
                .iter()
                .filter(|k| matches!(k.class, KernelClass::Attention))
                .map(|k| k.flops)
                .sum()
        };
        let f1 = attn_flops(1024);
        let f2 = attn_flops(2048);
        assert!((f2 / f1 - 4.0).abs() < 0.01, "attention must be quadratic");
    }

    #[test]
    fn prefill_linear_flops_scale_linearly() {
        let arch = ModelId::Dsr1Llama8b.arch();
        let lin_flops = |seq: usize| -> f64 {
            prefill_kernels(&arch, Precision::Fp16, 1, seq)
                .iter()
                .filter(|k| matches!(k.class, KernelClass::Gemm))
                .map(|k| k.flops)
                .sum()
        };
        let f1 = lin_flops(512);
        let f2 = lin_flops(1024);
        assert!((f2 / f1 - 2.0).abs() < 0.01);
    }

    #[test]
    fn w4_adds_dequant_kernels_and_cuts_reads() {
        let arch = ModelId::Dsr1Llama8b.arch();
        let fp16 = decode_step_kernels(&arch, Precision::Fp16, 1, 512);
        let w4 = decode_step_kernels(&arch, Precision::W4A16, 1, 512);
        assert!(w4.len() > fp16.len(), "dequant kernels must appear");
        let rd = |ks: &[KernelDesc]| ks.iter().map(|k| k.bytes_read).sum::<f64>();
        let ratio = rd(&fp16) / rd(&w4);
        assert!(
            ratio > 2.2,
            "W4 must cut weight reads substantially: {ratio}"
        );
    }

    #[test]
    fn batch_scales_activations_not_weights() {
        let arch = ModelId::Dsr1Qwen1_5b.arch();
        let b1 = decode_step_kernels(&arch, Precision::Fp16, 1, 512);
        let b32 = decode_step_kernels(&arch, Precision::Fp16, 32, 512);
        let rd = |ks: &[KernelDesc]| ks.iter().map(|k| k.bytes_read).sum::<f64>();
        // Weight reads amortize across the batch: total reads grow far less
        // than 32× (KV + activations scale, weights do not).
        let growth = rd(&b32) / rd(&b1);
        assert!(growth < 3.0, "weight reads must amortize, grew {growth}x");
        let fl = |ks: &[KernelDesc]| ks.iter().map(|k| k.flops).sum::<f64>();
        let fgrowth = fl(&b32) / fl(&b1);
        assert!(
            (fgrowth - 32.0).abs() < 1.0,
            "flops grow with batch: {fgrowth}"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_seq_panics() {
        let arch = ModelId::Dsr1Qwen1_5b.arch();
        let _ = prefill_kernels(&arch, Precision::Fp16, 1, 0);
    }

    #[test]
    fn decode_split_concatenation_matches_monolithic() {
        let arch = ModelId::Dsr1Llama8b.arch();
        for prec in [Precision::Fp16, Precision::W4A16] {
            let whole = decode_step_kernels(&arch, prec, 4, 777);
            let mut plan = KernelPlan::new();
            build_decode_base_into(&mut plan, &arch, prec, 4);
            let base_len = plan.len();
            build_decode_attn_into(&mut plan, &arch, prec, 4, 777);
            assert_eq!(
                plan.len() - base_len,
                arch.layers,
                "one attn kernel per layer"
            );
            assert_eq!(plan.kernels(), &whole[..]);
            // Only the attention part depends on ctx.
            let mut other = KernelPlan::new();
            build_decode_base_into(&mut other, &arch, prec, 4);
            assert_eq!(other.kernels(), &plan.kernels()[..base_len]);
        }
    }

    #[test]
    fn kernel_plan_reuse_keeps_capacity_and_content() {
        let arch = ModelId::Dsr1Qwen1_5b.arch();
        let mut plan = KernelPlan::new();
        build_prefill_into(&mut plan, &arch, Precision::Fp16, 2, 256);
        let first = plan.kernels().to_vec();
        let cap_hint = plan.len();
        plan.clear();
        assert!(plan.is_empty());
        build_prefill_into(&mut plan, &arch, Precision::Fp16, 2, 256);
        assert_eq!(plan.kernels(), &first[..]);
        assert_eq!(plan.len(), cap_hint);
        assert_eq!(first, prefill_kernels(&arch, Precision::Fp16, 2, 256));
    }

    /// The plan's layer run: its copies are back to back, each equals the
    /// first, and there is one per layer. Returns `(head, layer, tail)`
    /// lengths.
    fn checked_run(plan: &KernelPlan, arch: &ModelArch) -> (usize, usize, usize) {
        let (first, copies) = plan.layer_run().expect("a layered plan records its run");
        assert_eq!(copies, arch.layers, "one copy per layer");
        assert!(!first.is_empty());
        let run = first.start..first.start + first.len() * copies;
        assert!(run.end <= plan.len(), "the copies lie inside the plan");
        let layer = &plan.kernels()[first.clone()];
        for copy in plan.kernels()[run.clone()].chunks_exact(first.len()) {
            assert_eq!(copy, layer, "every copy equals the first");
        }
        (run.start, first.len(), plan.len() - run.end)
    }

    #[test]
    fn every_builder_records_its_replicated_layer() {
        for id in ModelId::ALL {
            let arch = id.arch();
            for prec in Precision::ALL {
                // Fused projections each add one dequant kernel under W4A16.
                let dequant = if prec.needs_dequant() { 4 } else { 0 };
                let mut plan = KernelPlan::new();
                build_prefill_into(&mut plan, &arch, prec, 2, 129);
                assert_eq!(
                    checked_run(&plan, &arch),
                    (1, 10 + dequant, 3),
                    "{id} {prec:?}"
                );
                plan.clear();
                build_decode_base_into(&mut plan, &arch, prec, 3);
                assert_eq!(
                    checked_run(&plan, &arch),
                    (1, 9 + dequant, 3),
                    "{id} {prec:?}"
                );
                plan.clear();
                build_decode_attn_into(&mut plan, &arch, prec, 3, 777);
                assert_eq!(checked_run(&plan, &arch), (0, 1, 0), "{id} {prec:?}");
            }
        }
    }

    #[test]
    fn clear_resets_the_layer_record() {
        let arch = ModelId::Dsr1Qwen14b.arch();
        let mut plan = KernelPlan::new();
        assert_eq!(plan.layer_run(), None);
        build_prefill_into(&mut plan, &arch, Precision::W4A16, 1, 64);
        assert!(plan.layer_run().is_some());
        plan.clear();
        assert_eq!(plan.layer_run(), None);
        assert!(plan.is_empty());
    }

    #[test]
    fn a_zero_layer_arch_records_no_run() {
        let arch = ModelArch {
            layers: 0,
            ..ModelId::Dsr1Llama8b.arch()
        };
        for prec in Precision::ALL {
            let mut plan = KernelPlan::new();
            build_prefill_into(&mut plan, &arch, prec, 1, 128);
            assert_eq!(plan.len(), 4, "embedding, final norm, LM head, sampling");
            assert_eq!(plan.layer_run(), None);
            plan.clear();
            build_decode_base_into(&mut plan, &arch, prec, 2);
            assert_eq!(plan.len(), 4);
            assert_eq!(plan.layer_run(), None);
            // A zero-layer builder also replaces an earlier builder's run.
            plan.clear();
            build_decode_base_into(&mut plan, &ModelId::Dsr1Llama8b.arch(), prec, 2);
            let base_len = plan.len();
            build_decode_attn_into(&mut plan, &arch, prec, 2, 512);
            assert_eq!(plan.len(), base_len);
            assert_eq!(plan.layer_run(), None);
        }
    }

    #[test]
    fn the_composed_decode_plan_records_the_attention_run() {
        for id in ModelId::ALL {
            let arch = id.arch();
            for prec in Precision::ALL {
                let mut plan = KernelPlan::new();
                build_decode_base_into(&mut plan, &arch, prec, 4);
                let base_len = plan.len();
                build_decode_attn_into(&mut plan, &arch, prec, 4, 300);
                // The later builder's run replaces the base's; the base's
                // kernels become the head.
                assert_eq!(
                    plan.layer_run(),
                    Some((base_len..base_len + 1, arch.layers))
                );
                assert_eq!(checked_run(&plan, &arch), (base_len, 1, 0));
                assert_eq!(
                    plan.kernels(),
                    &decode_step_kernels(&arch, prec, 4, 300)[..]
                );
            }
        }
    }

    #[test]
    fn kernel_counts_scale_with_layers() {
        let small = ModelId::Dsr1Qwen1_5b.arch(); // 28 layers
        let large = ModelId::Dsr1Qwen14b.arch(); // 48 layers
        let a = decode_step_kernels(&small, Precision::Fp16, 1, 64).len();
        let b = decode_step_kernels(&large, Precision::Fp16, 1, 64).len();
        assert!(b > a);
    }
}
