//! The roofline GPU executor.
//!
//! Each [`KernelDesc`] is timed as
//! `max(compute_time, memory_time) / efficiency + launch_overhead`, where
//! the efficiency curves are *derived from the paper's own fitted Orin
//! coefficients* (Tables IV/V and Appendix D):
//!
//! * projection/FFN GEMMs reach ≈80 % of tensor-core peak once the token
//!   (M) dimension is large — the paper's linear prefill coefficient `b`
//!   implies ≈55 TFLOP/s effective for the 8B and 14B models;
//! * causal-attention prefill kernels are far less efficient (≈1 TFLOP/s
//!   effective — the quadratic coefficient `a` of all three models implies
//!   0.8–1.1 TFLOP/s), which is what makes prefill latency visibly
//!   quadratic;
//! * batch-1 decode GEMVs are DRAM-bound, achieving a bandwidth fraction
//!   that grows with transfer size (≈66 % for the 1.5B model's ≈16 MB
//!   weight reads, ≈87 % for the 8B model's ≈70 MB reads), reproducing the
//!   measured 24 / 92 / 187 ms time-between-tokens;
//! * the M dimension is padded to 128-row tensor-core macro-tiles, yielding
//!   the stepped prefill-latency pattern of Fig. 2, and a deterministic
//!   per-shape "CUTLASS variant" wobble models the secondary deviations the
//!   paper attributes to kernel-variant selection.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::kernel::{ComputeKind, KernelClass, KernelDesc};
use crate::power::{EnergyMeter, PowerModel};
use crate::rng::{stable_unit, Rng};
use crate::spec::{pad_to, GpuSpec, PowerMode};

/// Saturating half-max curve: `x / (x + half)`, in `[0, 1)`.
fn sat(x: f64, half: f64) -> f64 {
    x / (x + half)
}

/// Efficiency curves of the executor. Defaults are calibrated to the Jetson
/// AGX Orin measurements published in the paper (see module docs); they can
/// be overridden to model other devices.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EffProfile {
    /// Peak fraction reached by large tensor-core GEMMs.
    pub gemm_peak_frac: f64,
    /// Half-saturation point of GEMM efficiency in padded M rows.
    pub gemm_m_half: f64,
    /// Effective peak fraction of causal-attention prefill kernels.
    pub attention_frac: f64,
    /// Peak fraction of CUDA-core elementwise/reduction math.
    pub cuda_frac: f64,
    /// Max achievable DRAM bandwidth fraction for streaming reads.
    pub bw_max_frac: f64,
    /// Half-saturation of bandwidth efficiency, bytes per kernel.
    pub bw_half_bytes: f64,
    /// Amplitude of the deterministic per-shape kernel-variant wobble.
    pub variant_wobble: f64,
    /// Relative std-dev of run-to-run measurement noise.
    pub measurement_noise: f64,
}

impl Default for EffProfile {
    fn default() -> Self {
        Self {
            gemm_peak_frac: 0.80,
            gemm_m_half: 44.0,
            attention_frac: 0.0145,
            cuda_frac: 0.45,
            bw_max_frac: 0.95,
            bw_half_bytes: 7.0e6,
            variant_wobble: 0.05,
            measurement_noise: 0.012,
        }
    }
}

/// Per-model calibration multipliers applied when executing a phase.
/// Real kernels have shape-dependent inefficiencies a two-parameter roofline
/// cannot capture; the study carries one latency and one power multiplier
/// per model architecture (documented in `edgereasoning-kernels`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecCalib {
    /// Multiplies every kernel latency.
    pub latency_scale: f64,
    /// Multiplies the dynamic part of power draw.
    pub power_scale: f64,
}

impl Default for ExecCalib {
    fn default() -> Self {
        Self {
            latency_scale: 1.0,
            power_scale: 1.0,
        }
    }
}

/// Result of executing a single kernel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelExec {
    /// Wall-clock latency, seconds.
    pub latency_s: f64,
    /// Energy consumed, joules.
    pub energy_j: f64,
    /// Average power during the kernel, watts.
    pub power_w: f64,
    /// Achieved arithmetic throughput, FLOP/s.
    pub achieved_flops: f64,
    /// Achieved DRAM read bandwidth, bytes/s.
    pub achieved_rd_bw: f64,
    /// Achieved DRAM write bandwidth, bytes/s.
    pub achieved_wr_bw: f64,
    /// Fraction of time the kernel was compute-limited.
    pub compute_bound_frac: f64,
}

/// Aggregated statistics over a phase (a prefill pass, one decode step, or a
/// whole generation), mirroring what `tegrastats` reports on real hardware.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Total latency, seconds.
    pub latency_s: f64,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Time-averaged power, watts.
    pub avg_power_w: f64,
    /// Time-averaged compute-unit utilization (vs nominal peak), `[0, 1]`.
    pub gpu_util: f64,
    /// Time-averaged DRAM read bandwidth utilization, `[0, 1]`.
    pub dram_rd_util: f64,
    /// Time-averaged DRAM write bandwidth utilization, `[0, 1]`.
    pub dram_wr_util: f64,
    /// Number of kernels executed.
    pub kernels: usize,
}

impl PhaseStats {
    /// Merges another phase into this one (time-weighted averages).
    pub fn merge(&mut self, other: &PhaseStats) {
        let t = self.latency_s + other.latency_s;
        if t > 0.0 {
            let w = |a: f64, b: f64| (a * self.latency_s + b * other.latency_s) / t;
            self.avg_power_w = w(self.avg_power_w, other.avg_power_w);
            self.gpu_util = w(self.gpu_util, other.gpu_util);
            self.dram_rd_util = w(self.dram_rd_util, other.dram_rd_util);
            self.dram_wr_util = w(self.dram_wr_util, other.dram_wr_util);
        }
        self.latency_s = t;
        self.energy_j += other.energy_j;
        self.kernels += other.kernels;
    }

    /// Scales the phase as if it repeated `n` times (latency/energy add,
    /// averages unchanged). Used to expand one representative decode step
    /// into a full generation without re-simulating every token.
    pub fn repeated(&self, n: usize) -> PhaseStats {
        PhaseStats {
            latency_s: self.latency_s * n as f64,
            energy_j: self.energy_j * n as f64,
            kernels: self.kernels * n,
            ..*self
        }
    }
}

/// A transient derate of the GPU's nominal operating point, used by the
/// fault-injection layer (`soc::faults`) to model thermal throttling, DRAM
/// contention and forced power-mode drops without changing the configured
/// [`PowerMode`].
///
/// [`Derate::IDENTITY`] is an exact no-op: scaling by `1.0` and capping at
/// `+inf` leave every IEEE-754 intermediate bit-identical, which is what
/// guarantees fault-free runs match a build without the fault layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Derate {
    /// Relative clock scale applied to compute *and* memory (DVFS moves
    /// them together on Orin), in `(0, 1]`.
    pub freq: f64,
    /// Additional relative DRAM-bandwidth scale (co-runner contention).
    pub bw: f64,
    /// Absolute power-cap override, watts (`+inf` = no override).
    pub cap_w: f64,
}

impl Derate {
    /// The no-op derate.
    pub const IDENTITY: Derate = Derate {
        freq: 1.0,
        bw: 1.0,
        cap_w: f64::INFINITY,
    };

    /// Whether this derate is exactly the identity.
    pub fn is_identity(&self) -> bool {
        *self == Self::IDENTITY
    }

    /// Composes two derates by the per-axis min — the same worst-wins rule
    /// `FaultSchedule::derate_at` applies across overlapping windows, so
    /// scripted fault weather and endogenous governor throttling stack.
    /// Combining with [`Derate::IDENTITY`] is IEEE-bit-exact: `freq`/`bw`
    /// never exceed 1.0 and `cap_w` never exceeds `+inf`.
    pub fn combine(&self, other: &Derate) -> Derate {
        Derate {
            freq: self.freq.min(other.freq),
            bw: self.bw.min(other.bw),
            cap_w: self.cap_w.min(other.cap_w),
        }
    }
}

impl Default for Derate {
    fn default() -> Self {
        Self::IDENTITY
    }
}

/// What a phase aggregate needs of one kernel's noise-free cost.
#[derive(Debug, Clone, Copy, Default)]
struct KernelCost {
    latency_s: f64,
    power_w: f64,
    /// Latency times the compute-unit busy fraction (vs nominal peak).
    busy_s: f64,
}

/// The running sums of a noise-free phase. Both roofline entries fold
/// every kernel through it in phase order, so their floating-point adds
/// happen in the same order and their aggregates agree bit for bit.
#[derive(Debug, Default)]
struct PhaseAccum {
    meter: EnergyMeter,
    rd_bytes: f64,
    wr_bytes: f64,
    busy_s: f64,
    count: usize,
}

impl PhaseAccum {
    #[inline]
    fn add(&mut self, k: &KernelDesc, cost: KernelCost) {
        self.meter.record(cost.latency_s, cost.power_w);
        self.rd_bytes += k.bytes_read;
        self.wr_bytes += k.bytes_written;
        self.busy_s += cost.busy_s;
        self.count += 1;
    }

    fn finish(self, peak_bw: f64) -> PhaseStats {
        let t = self.meter.elapsed_s();
        let per_peak = |bytes: f64| {
            if t > 0.0 {
                (bytes / t / peak_bw).min(1.0)
            } else {
                0.0
            }
        };
        PhaseStats {
            latency_s: t,
            energy_j: self.meter.energy_j(),
            avg_power_w: self.meter.avg_power_w(),
            gpu_util: if t > 0.0 { self.busy_s / t } else { 0.0 },
            dram_rd_util: per_peak(self.rd_bytes),
            dram_wr_util: per_peak(self.wr_bytes),
            kernels: self.count,
        }
    }
}

/// The simulated GPU: executes kernels, tracks power and telemetry.
#[derive(Debug, Clone)]
pub struct Gpu {
    spec: GpuSpec,
    mode: PowerMode,
    eff: EffProfile,
    power: PowerModel,
    derate: Derate,
    rng: Rng,
    /// Memoized [`Gpu::config_fingerprint`]; recomputed by the setters that
    /// change fingerprinted state (`spec` and `power` are construction-time
    /// only). Hot paths read the fingerprint once per phase, so hashing ~30
    /// fields each time showed up in profiles.
    config_fp: u64,
}

impl Gpu {
    /// Creates a GPU in the given power mode with a deterministic seed for
    /// measurement noise.
    pub fn new(spec: GpuSpec, mode: PowerMode, seed: u64) -> Self {
        let mut gpu = Self {
            spec,
            mode,
            eff: EffProfile::default(),
            power: PowerModel::default(),
            derate: Derate::IDENTITY,
            rng: Rng::seed_from_u64(seed ^ 0x6f72_696e),
            config_fp: 0,
        };
        gpu.config_fp = gpu.compute_config_fingerprint();
        gpu
    }

    /// Returns the device specification.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Returns the active power mode.
    pub fn mode(&self) -> PowerMode {
        self.mode
    }

    /// Sets the power mode (affects clocks and the power cap).
    pub fn set_mode(&mut self, mode: PowerMode) {
        self.mode = mode;
        self.config_fp = self.compute_config_fingerprint();
    }

    /// Returns the active fault derate.
    pub fn derate(&self) -> Derate {
        self.derate
    }

    /// Applies a fault derate (see [`Derate`]); pass
    /// [`Derate::IDENTITY`] to clear it.
    pub fn set_derate(&mut self, derate: Derate) {
        if derate != self.derate {
            self.derate = derate;
            self.config_fp = self.compute_config_fingerprint();
        }
    }

    /// Returns the efficiency profile.
    pub fn eff_profile(&self) -> &EffProfile {
        &self.eff
    }

    /// Overrides the efficiency profile.
    pub fn set_eff_profile(&mut self, eff: EffProfile) {
        self.eff = eff;
        self.config_fp = self.compute_config_fingerprint();
    }

    /// Returns the power model.
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// Nominal peak throughput for a compute kind under the current mode.
    pub fn peak_flops(&self, compute: ComputeKind) -> f64 {
        let base = match compute {
            ComputeKind::TensorFp16 => self.spec.tensor_fp16_flops,
            ComputeKind::TensorInt8 => self.spec.tensor_int8_ops,
            ComputeKind::CudaFp32 => self.spec.fp32_flops,
        };
        base * self.mode.freq_scale() * self.derate.freq
    }

    /// DRAM bandwidth under the current mode, bytes/s.
    pub fn peak_bw(&self) -> f64 {
        self.spec.dram_bw * self.mode.freq_scale() * self.derate.freq * self.derate.bw
    }

    /// The effective power cap: the mode's cap, lowered further by any
    /// active fault derate.
    fn effective_cap_w(&self) -> f64 {
        self.mode.power_cap_w().min(self.derate.cap_w)
    }

    fn compute_efficiency(&self, k: &KernelDesc, m_pad: usize) -> f64 {
        match k.class {
            KernelClass::Gemm | KernelClass::Gemv => {
                self.eff.gemm_peak_frac * sat(m_pad as f64, self.eff.gemm_m_half)
            }
            KernelClass::Attention => self.eff.attention_frac,
            KernelClass::Elementwise | KernelClass::Reduction | KernelClass::MemCopy => {
                self.eff.cuda_frac
            }
        }
    }

    fn bw_efficiency(&self, k: &KernelDesc) -> f64 {
        let bytes = k.total_bytes();
        let half = match k.class {
            KernelClass::Gemv => self.eff.bw_half_bytes,
            // Prefill-style GEMMs interleave weight reads with compute and
            // never reach streaming efficiency (the paper's 8B model reads
            // its 16 GB of weights in 148 ms at I=128 -> ~53% of peak).
            KernelClass::Gemm => self.eff.bw_half_bytes * 5.7,
            KernelClass::MemCopy => self.eff.bw_half_bytes * 0.3,
            KernelClass::Attention => self.eff.bw_half_bytes * 0.6,
            KernelClass::Elementwise | KernelClass::Reduction => self.eff.bw_half_bytes * 0.15,
        };
        self.eff.bw_max_frac * sat(bytes, half)
    }

    /// Executes one kernel with default calibration.
    pub fn execute(&mut self, k: &KernelDesc) -> KernelExec {
        self.execute_calibrated(k, &ExecCalib::default())
    }

    /// Executes one kernel, applying per-model calibration multipliers and
    /// drawing one measurement-noise sample from the GPU's RNG stream.
    pub fn execute_calibrated(&mut self, k: &KernelDesc, calib: &ExecCalib) -> KernelExec {
        let noise = self.rng.jitter(self.eff.measurement_noise);
        self.kernel_exec(k, calib, noise)
    }

    /// The deterministic roofline cost of one kernel: tile padding,
    /// efficiency curves, per-shape variant wobble and launch overhead, with
    /// an externally supplied measurement-noise factor (1.0 = noise-free).
    fn kernel_exec(&self, k: &KernelDesc, calib: &ExecCalib, noise: f64) -> KernelExec {
        // Tensor-core tile padding of the GEMM shape (the token dimension
        // sits in M during prefill, producing 128-token latency steps).
        let (m_pad, n_pad, k_pad) = match k.class {
            KernelClass::Gemm | KernelClass::Attention => (
                pad_to(k.m, self.spec.tile.m),
                pad_to(k.n, self.spec.tile.n),
                pad_to(k.k, self.spec.tile.k),
            ),
            // GEMV-class kernels use SIMT/small-M tile variants: no M padding.
            KernelClass::Gemv => (
                k.m,
                pad_to(k.n, self.spec.tile.n),
                pad_to(k.k, self.spec.tile.k),
            ),
            _ => (k.m, k.n, k.k),
        };
        let pad_factor =
            (m_pad as f64 * n_pad as f64 * k_pad as f64) / (k.m as f64 * k.n as f64 * k.k as f64);
        let padded_flops = k.flops * pad_factor.max(1.0);

        let compute_eff = self.compute_efficiency(k, m_pad).clamp(1e-6, 1.0);
        let bw_eff = self.bw_efficiency(k).clamp(1e-6, 1.0);

        let t_compute = padded_flops / (self.peak_flops(k.compute) * compute_eff);
        let t_memory = k.total_bytes() / (self.peak_bw() * bw_eff);
        let t_roof = t_compute.max(t_memory);

        // Deterministic per-shape wobble: which kernel variant CUTLASS picks
        // for a given (class, M, N, K) is stable across runs but irregular
        // across shapes.
        let wobble = 1.0
            + self.eff.variant_wobble
                * stable_unit(&[k.class as u64, m_pad as u64, n_pad as u64, k_pad as u64]);

        let latency = (t_roof * wobble * noise + self.spec.launch_overhead_s) * calib.latency_scale;

        let achieved_flops = k.flops / latency;
        let achieved_rd_bw = k.bytes_read / latency;
        let achieved_wr_bw = k.bytes_written / latency;

        let e_per_flop = match k.compute {
            ComputeKind::TensorFp16 => self.power.energy_per_flop_fp16,
            ComputeKind::TensorInt8 => self.power.energy_per_flop_int8,
            ComputeKind::CudaFp32 => self.power.energy_per_flop_fp32,
        };
        // Attention kernels burn power on masked / low-ILP work well beyond
        // their useful FLOP rate; their draw is occupancy-limited instead.
        let (flops_for_power, extra_active_w) = if k.class == KernelClass::Attention {
            (0.0, self.power.attention_active_w * k.occupancy)
        } else {
            (achieved_flops, 0.0)
        };
        let power_w = (self.power.instantaneous_w(
            flops_for_power,
            e_per_flop,
            achieved_rd_bw + achieved_wr_bw,
            calib.power_scale,
            self.effective_cap_w(),
        ) + extra_active_w * calib.power_scale)
            .min(self.effective_cap_w());

        KernelExec {
            latency_s: latency,
            energy_j: latency * power_w,
            power_w,
            achieved_flops,
            achieved_rd_bw,
            achieved_wr_bw,
            compute_bound_frac: if t_roof > 0.0 {
                t_compute / t_roof
            } else {
                0.0
            },
        }
    }

    /// Executes a sequence of kernels as one phase, aggregating telemetry.
    ///
    /// Equivalent to [`Gpu::run_phase_deterministic`] followed by
    /// [`Gpu::perturb_phase`]: the noise-free aggregate is computed first
    /// and a single phase-level measurement-noise sample is applied on top.
    /// Exactly one RNG draw is consumed per call regardless of kernel
    /// count, which is what lets a memoized noise-free phase reproduce the
    /// uncached result bit for bit.
    pub fn run_phase<'a, I>(&mut self, kernels: I, calib: &ExecCalib) -> PhaseStats
    where
        I: IntoIterator<Item = &'a KernelDesc>,
    {
        let stats = self.run_phase_deterministic(kernels, calib);
        self.perturb_phase(&stats)
    }

    /// The noise-free aggregate cost of a kernel sequence: deterministic
    /// roofline latency, per-shape variant wobble and launch overhead are
    /// all included; run-to-run measurement noise is not. The result
    /// depends only on the kernel list, the calibration and the GPU
    /// configuration (see [`Gpu::config_fingerprint`]), never on RNG state
    /// — so it is safe to memoize.
    pub fn run_phase_deterministic<'a, I>(&self, kernels: I, calib: &ExecCalib) -> PhaseStats
    where
        I: IntoIterator<Item = &'a KernelDesc>,
    {
        // Transformer phases repeat the same per-layer kernel descriptors
        // dozens of times (every layer of a decode step lowers identically),
        // and `kernel_cost` is a pure function of the descriptor, the
        // calibration and the GPU operating point. A small stack-resident
        // memo of recently costed descriptors turns the O(layers)
        // repetition into equality checks; the fold is untouched, so the
        // aggregate is bit-identical to costing every kernel afresh. Sized
        // to cover one full per-layer kernel cycle (~10 distinct
        // descriptors) with room to spare. A caller that knows where its
        // layers repeat skips the search with [`Gpu::run_phase_layered`].
        const EXEC_MEMO: usize = 12;
        let mut memo: [Option<(KernelDesc, KernelCost)>; EXEC_MEMO] = [None; EXEC_MEMO];
        let mut evict = 0usize;

        let mut acc = PhaseAccum::default();
        for k in kernels {
            let cost = match memo.iter().flatten().find(|(d, _)| d == k) {
                Some((_, cost)) => *cost,
                None => {
                    let cost = self.kernel_cost(k, calib);
                    memo[evict] = Some((*k, cost));
                    evict = (evict + 1) % EXEC_MEMO;
                    cost
                }
            };
            acc.add(k, cost);
        }
        acc.finish(self.peak_bw())
    }

    /// [`Gpu::run_phase_deterministic`] for a sequence whose kernels
    /// repeat one layer: `layer_run` gives the first copy's range and the
    /// number of copies, which follow each other from the range's start
    /// (`KernelPlan::layer_run` of the `edgereasoning-kernels` builders).
    /// Each kernel outside the copies, and each kernel of the first copy,
    /// is costed once; every kernel of the sequence is then folded in its
    /// original order, through the same accumulator as the generic entry,
    /// so the result is bit-identical to it. Allocates nothing.
    ///
    /// Without a run, or with a layer longer than 16 kernels (the
    /// builders' longest, a W4A16 prefill layer, has 14), this is the
    /// generic entry.
    ///
    /// # Panics
    ///
    /// Panics if the copies run past the end of `kernels`; in debug
    /// builds, also if a copy differs from the first.
    pub fn run_phase_layered(
        &self,
        kernels: &[KernelDesc],
        layer_run: Option<(Range<usize>, usize)>,
        calib: &ExecCalib,
    ) -> PhaseStats {
        const LAYER_MAX: usize = 16;
        let Some((layer, copies)) =
            layer_run.filter(|(layer, _)| (1..=LAYER_MAX).contains(&layer.len()))
        else {
            return self.run_phase_deterministic(kernels, calib);
        };
        let first = &kernels[layer.clone()];
        let run = layer.start..layer.start + first.len() * copies;

        let mut layer_costs = [KernelCost::default(); LAYER_MAX];
        for (cost, k) in layer_costs.iter_mut().zip(first) {
            *cost = self.kernel_cost(k, calib);
        }
        let layer_costs = &layer_costs[..first.len()];

        let mut acc = PhaseAccum::default();
        for k in &kernels[..run.start] {
            acc.add(k, self.kernel_cost(k, calib));
        }
        for copy in kernels[run.clone()].chunks_exact(first.len()) {
            debug_assert_eq!(copy, first, "a layer copy differs from the first");
            for (k, cost) in copy.iter().zip(layer_costs) {
                acc.add(k, *cost);
            }
        }
        for k in &kernels[run.end..] {
            acc.add(k, self.kernel_cost(k, calib));
        }
        acc.finish(self.peak_bw())
    }

    /// One kernel's noise-free cost, as the phase fold takes it.
    fn kernel_cost(&self, k: &KernelDesc, calib: &ExecCalib) -> KernelCost {
        let e = self.kernel_exec(k, calib, 1.0);
        KernelCost {
            latency_s: e.latency_s,
            power_w: e.power_w,
            // Compute-unit busy fraction relative to nominal peak.
            busy_s: e.latency_s * (e.achieved_flops / self.peak_flops(k.compute)).min(1.0),
        }
    }

    /// Applies one seeded measurement-noise sample to a noise-free phase
    /// aggregate. The relative noise shrinks with the number of kernels
    /// (`measurement_noise / sqrt(kernels)`), matching the central-limit
    /// averaging that per-kernel jitter produces over a long phase.
    /// Latency and energy scale together (average power is unchanged);
    /// utilization ratios scale inversely with the stretched time.
    pub fn perturb_phase(&mut self, stats: &PhaseStats) -> PhaseStats {
        let rel = self.eff.measurement_noise / (stats.kernels.max(1) as f64).sqrt();
        let noise = self.rng.jitter(rel);
        PhaseStats {
            latency_s: stats.latency_s * noise,
            energy_j: stats.energy_j * noise,
            gpu_util: (stats.gpu_util / noise).min(1.0),
            dram_rd_util: (stats.dram_rd_util / noise).min(1.0),
            dram_wr_util: (stats.dram_wr_util / noise).min(1.0),
            ..*stats
        }
    }

    /// A stable fingerprint of everything the deterministic roofline cost
    /// depends on: device spec (including tile quantization and launch
    /// overhead), power mode, efficiency curves and power model. Two GPUs
    /// with equal fingerprints produce bit-identical
    /// [`Gpu::run_phase_deterministic`] results for the same kernels, so
    /// the fingerprint is a sound phase-cache key component.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fp
    }

    /// Hashes the fingerprinted configuration state; see
    /// [`Gpu::config_fingerprint`] for what the value covers.
    fn compute_config_fingerprint(&self) -> u64 {
        use crate::rng::stable_hash;
        stable_hash(&[
            self.spec.sm_count as u64,
            self.spec.cuda_cores as u64,
            self.spec.fp32_flops.to_bits(),
            self.spec.tensor_fp16_flops.to_bits(),
            self.spec.tensor_int8_ops.to_bits(),
            self.spec.dram_bw.to_bits(),
            self.spec.dram_capacity,
            self.spec.tile.m as u64,
            self.spec.tile.n as u64,
            self.spec.tile.k as u64,
            self.spec.launch_overhead_s.to_bits(),
            self.mode.freq_scale().to_bits(),
            self.mode.power_cap_w().to_bits(),
            self.eff.gemm_peak_frac.to_bits(),
            self.eff.gemm_m_half.to_bits(),
            self.eff.attention_frac.to_bits(),
            self.eff.cuda_frac.to_bits(),
            self.eff.bw_max_frac.to_bits(),
            self.eff.bw_half_bytes.to_bits(),
            self.eff.variant_wobble.to_bits(),
            self.power.idle_w.to_bits(),
            self.power.energy_per_byte.to_bits(),
            self.power.energy_per_flop_fp16.to_bits(),
            self.power.energy_per_flop_int8.to_bits(),
            self.power.energy_per_flop_fp32.to_bits(),
            self.power.attention_active_w.to_bits(),
            self.derate.freq.to_bits(),
            self.derate.bw.to_bits(),
            self.derate.cap_w.to_bits(),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::OrinSpec;

    fn gpu() -> Gpu {
        Gpu::new(OrinSpec::agx_orin_64gb().gpu, PowerMode::MaxN, 1)
    }

    /// An 8B-class decode weight read: ~16 GB over one step should take
    /// ~90 ms at ~87 % of DRAM bandwidth.
    #[test]
    fn decode_like_gemv_is_bandwidth_bound() {
        let mut g = gpu();
        // One aggregated 70 MB GEMV read, scaled to 16 GB over ~230 kernels:
        // simulate a representative single kernel.
        let k = KernelDesc::gemm(KernelClass::Gemv, ComputeKind::TensorFp16, 1, 14336, 4096)
            .with_bytes(2 * 14336 * 4096, 2 * 14336);
        let exec = g.execute(&k);
        assert!(exec.compute_bound_frac < 0.5, "GEMV must be memory bound");
        let eff = exec.achieved_rd_bw / g.peak_bw();
        assert!(
            (0.75..0.98).contains(&eff),
            "large GEMV should reach high bandwidth fraction, got {eff}"
        );
    }

    #[test]
    fn small_transfers_get_lower_bandwidth() {
        let mut g = gpu();
        let small = KernelDesc::gemm(KernelClass::Gemv, ComputeKind::TensorFp16, 1, 1536, 1536)
            .with_bytes(2 * 1536 * 1536, 2 * 1536);
        let exec = g.execute(&small);
        let eff = exec.achieved_rd_bw / g.peak_bw();
        assert!(
            eff < 0.55,
            "a ~4.7 MB read should be inefficient, got {eff}"
        );
    }

    #[test]
    fn prefill_latency_steps_at_128_tokens() {
        let mut g = gpu();
        // Same kernel at M=129 vs M=256 should cost the same compute time
        // (both pad to 256); M=128 should be cheaper.
        // Use a compute-bound shape (large M) so the tile step is visible.
        let mk = |m: usize| {
            KernelDesc::gemm(KernelClass::Gemm, ComputeKind::TensorFp16, m, 4096, 4096)
                .with_bytes(2 * 4096 * 4096, 0)
        };
        let t1024 = g.execute(&mk(1024)).latency_s;
        let t1025 = g.execute(&mk(1025)).latency_s;
        let t1152 = g.execute(&mk(1152)).latency_s;
        assert!(
            t1025 > t1024 * 1.04,
            "stepping past a 128 tile must jump: {t1024} -> {t1025}"
        );
        assert!(
            (t1025 - t1152).abs() / t1152 < 0.12,
            "1025 and 1152 share a macro-tile: {t1025} vs {t1152}"
        );
    }

    #[test]
    fn attention_kernels_are_slow() {
        let mut g = gpu();
        // Flash-attention style kernels touch little DRAM relative to their
        // O(seq²) math, so compute efficiency dominates their cost.
        let attn = KernelDesc::gemm(
            KernelClass::Attention,
            ComputeKind::TensorFp16,
            4096,
            4096,
            128,
        )
        .with_bytes(2 << 20, 1 << 20);
        let gemm = KernelDesc::gemm(KernelClass::Gemm, ComputeKind::TensorFp16, 4096, 4096, 128)
            .with_bytes(2 << 20, 1 << 20);
        let ta = g.execute(&attn).latency_s;
        let tg = g.execute(&gemm).latency_s;
        assert!(
            ta > 5.0 * tg,
            "attention must be far less efficient: {ta} vs {tg}"
        );
    }

    #[test]
    fn power_mode_slows_and_caps() {
        let k = KernelDesc::gemm(KernelClass::Gemm, ComputeKind::TensorFp16, 4096, 4096, 4096)
            .with_bytes(64 << 20, 32 << 20);
        let mut maxn = gpu();
        let mut w15 = gpu();
        w15.set_mode(PowerMode::W15);
        let e_max = maxn.execute(&k);
        let e_15 = w15.execute(&k);
        assert!(e_15.latency_s > 2.0 * e_max.latency_s);
        assert!(e_15.power_w <= 15.0 + 1e-9);
    }

    #[test]
    fn phase_aggregation_sums_latency_and_energy() {
        let mut g = gpu();
        let k = KernelDesc::gemm(KernelClass::Gemv, ComputeKind::TensorFp16, 1, 4096, 4096)
            .with_bytes(2 * 4096 * 4096, 2 * 4096);
        let kernels = vec![k; 10];
        let phase = g.run_phase(kernels.iter(), &ExecCalib::default());
        assert_eq!(phase.kernels, 10);
        assert!(phase.latency_s > 0.0);
        assert!((phase.energy_j / phase.latency_s - phase.avg_power_w).abs() < 1e-9);
        assert!(phase.dram_rd_util > 0.1);
    }

    #[test]
    fn calibration_scales_latency_and_power() {
        let k = KernelDesc::gemm(KernelClass::Gemv, ComputeKind::TensorFp16, 1, 4096, 4096)
            .with_bytes(2 * 4096 * 4096, 2 * 4096);
        let mut g1 = gpu();
        let mut g2 = gpu();
        let base = g1.execute_calibrated(&k, &ExecCalib::default());
        let scaled = g2.execute_calibrated(
            &k,
            &ExecCalib {
                latency_scale: 2.0,
                power_scale: 1.0,
            },
        );
        assert!((scaled.latency_s / base.latency_s - 2.0).abs() < 0.05);
    }

    #[test]
    fn execution_is_deterministic_for_same_seed() {
        let k = KernelDesc::gemm(KernelClass::Gemm, ComputeKind::TensorFp16, 512, 4096, 4096)
            .with_bytes(32 << 20, 4 << 20);
        let mut a = gpu();
        let mut b = gpu();
        assert_eq!(a.execute(&k).latency_s, b.execute(&k).latency_s);
    }

    #[test]
    fn phase_merge_and_repeat() {
        let mut g = gpu();
        let k = KernelDesc::gemm(KernelClass::Gemv, ComputeKind::TensorFp16, 1, 2048, 2048)
            .with_bytes(2 * 2048 * 2048, 0);
        let p1 = g.run_phase(std::iter::once(&k), &ExecCalib::default());
        let mut acc = p1;
        acc.merge(&p1.repeated(9));
        assert_eq!(acc.kernels, 10);
        assert!((acc.latency_s - p1.latency_s * 10.0).abs() / acc.latency_s < 1e-9);
    }

    #[test]
    fn deterministic_phase_is_rng_free_and_matches_perturbed_mean() {
        let g1 = gpu();
        let g2 = gpu();
        let k = KernelDesc::gemm(KernelClass::Gemv, ComputeKind::TensorFp16, 1, 4096, 4096)
            .with_bytes(2 * 4096 * 4096, 2 * 4096);
        let kernels = vec![k; 20];
        let a = g1.run_phase_deterministic(kernels.iter(), &ExecCalib::default());
        let b = g2.run_phase_deterministic(kernels.iter(), &ExecCalib::default());
        // Pure function of inputs: bit-identical, and repeatable on the
        // same instance without consuming RNG state.
        assert_eq!(a, b);
        assert_eq!(
            a,
            g1.run_phase_deterministic(kernels.iter(), &ExecCalib::default())
        );
        // run_phase == deterministic + one perturbation draw.
        let mut g3 = gpu();
        let mut g4 = gpu();
        let full = g3.run_phase(kernels.iter(), &ExecCalib::default());
        let stitched = g4.perturb_phase(&a);
        assert_eq!(full, stitched);
    }

    #[test]
    fn perturb_preserves_power_consistency() {
        let mut g = gpu();
        let k = KernelDesc::gemm(KernelClass::Gemv, ComputeKind::TensorFp16, 1, 4096, 4096)
            .with_bytes(2 * 4096 * 4096, 2 * 4096);
        let det = g.run_phase_deterministic(std::iter::once(&k), &ExecCalib::default());
        let noisy = g.perturb_phase(&det);
        assert!((noisy.energy_j / noisy.latency_s - noisy.avg_power_w).abs() < 1e-9);
        assert!(
            (noisy.latency_s / det.latency_s - 1.0).abs() < 0.2,
            "noise is small"
        );
        assert_eq!(noisy.kernels, det.kernels);
    }

    #[test]
    fn config_fingerprint_tracks_configuration() {
        let a = gpu();
        let mut b = gpu();
        assert_eq!(a.config_fingerprint(), b.config_fingerprint());
        b.set_mode(PowerMode::W15);
        assert_ne!(a.config_fingerprint(), b.config_fingerprint());
        let mut c = gpu();
        let mut eff = *c.eff_profile();
        eff.gemm_peak_frac = 0.5;
        c.set_eff_profile(eff);
        assert_ne!(a.config_fingerprint(), c.config_fingerprint());
    }

    #[test]
    fn identity_derate_is_bit_exact_noop() {
        let k = KernelDesc::gemm(KernelClass::Gemm, ComputeKind::TensorFp16, 512, 4096, 4096)
            .with_bytes(32 << 20, 4 << 20);
        let base = gpu();
        let mut derated = gpu();
        derated.set_derate(Derate::IDENTITY);
        let a = base.run_phase_deterministic(std::iter::once(&k), &ExecCalib::default());
        let b = derated.run_phase_deterministic(std::iter::once(&k), &ExecCalib::default());
        assert_eq!(a, b, "identity derate must not change a single bit");
        assert_eq!(base.config_fingerprint(), derated.config_fingerprint());
    }

    #[test]
    fn frequency_derate_slows_and_bw_derate_starves() {
        let gemm = KernelDesc::gemm(KernelClass::Gemm, ComputeKind::TensorFp16, 4096, 4096, 4096)
            .with_bytes(64 << 20, 32 << 20);
        let gemv = KernelDesc::gemm(KernelClass::Gemv, ComputeKind::TensorFp16, 1, 14336, 4096)
            .with_bytes(2 * 14336 * 4096, 2 * 14336);
        let base = gpu();
        let mut slow = gpu();
        slow.set_derate(Derate {
            freq: 0.6,
            ..Derate::IDENTITY
        });
        let calib = ExecCalib::default();
        let t0 = base
            .run_phase_deterministic(std::iter::once(&gemm), &calib)
            .latency_s;
        let t1 = slow
            .run_phase_deterministic(std::iter::once(&gemm), &calib)
            .latency_s;
        assert!(t1 > 1.3 * t0, "0.6x clocks must slow compute: {t0} -> {t1}");

        let mut starved = gpu();
        starved.set_derate(Derate {
            bw: 0.5,
            ..Derate::IDENTITY
        });
        let m0 = base
            .run_phase_deterministic(std::iter::once(&gemv), &calib)
            .latency_s;
        let m1 = starved
            .run_phase_deterministic(std::iter::once(&gemv), &calib)
            .latency_s;
        assert!(
            m1 > 1.5 * m0,
            "halved bandwidth must slow a memory-bound GEMV: {m0} -> {m1}"
        );
        assert_ne!(base.config_fingerprint(), starved.config_fingerprint());
    }

    #[test]
    fn cap_derate_limits_power() {
        let k = KernelDesc::gemm(KernelClass::Gemm, ComputeKind::TensorFp16, 4096, 4096, 4096)
            .with_bytes(64 << 20, 32 << 20);
        let mut g = gpu();
        g.set_derate(Derate {
            cap_w: 20.0,
            ..Derate::IDENTITY
        });
        let exec = g.execute(&k);
        assert!(exec.power_w <= 20.0 + 1e-9);
    }

    /// Field-by-field bit equality of two phase aggregates.
    fn assert_same_bits(a: &PhaseStats, b: &PhaseStats, case: &str) {
        let bits = |p: &PhaseStats| {
            [
                p.latency_s.to_bits(),
                p.energy_j.to_bits(),
                p.avg_power_w.to_bits(),
                p.gpu_util.to_bits(),
                p.dram_rd_util.to_bits(),
                p.dram_wr_util.to_bits(),
                p.kernels as u64,
            ]
        };
        assert_eq!(bits(a), bits(b), "{case}");
    }

    /// A distinct small kernel per `i`.
    fn kernel(i: usize) -> KernelDesc {
        KernelDesc::gemm(KernelClass::Gemv, ComputeKind::TensorFp16, 1 + i, 1024, 512)
            .with_bytes(2 * 1024 * 512, 2048 * (i as u64 + 1))
    }

    /// `head ++ copies × layer ++ tail`, and its layer run.
    fn layered(
        head: &[KernelDesc],
        layer: &[KernelDesc],
        copies: usize,
        tail: &[KernelDesc],
    ) -> (Vec<KernelDesc>, Option<(Range<usize>, usize)>) {
        let mut seq = head.to_vec();
        for _ in 0..copies {
            seq.extend_from_slice(layer);
        }
        seq.extend_from_slice(tail);
        (seq, Some((head.len()..head.len() + layer.len(), copies)))
    }

    #[test]
    fn layered_entry_matches_the_generic_one_on_hand_built_sequences() {
        let k: Vec<KernelDesc> = (0..24).map(kernel).collect();
        let norm = KernelDesc::raw(
            KernelClass::Elementwise,
            ComputeKind::CudaFp32,
            8.0e6,
            4.0e6,
            2.0e6,
        );
        let cases = [
            ("one-kernel layer", layered(&[], &k[..1], 28, &[])),
            (
                "internal duplicate",
                layered(&k[..1], &[norm, k[1], k[2], norm, k[3]], 5, &[norm, k[4]]),
            ),
            ("single copy", layered(&k[..1], &k[1..4], 1, &k[4..5])),
            ("empty head", layered(&[], &k[..3], 4, &k[3..5])),
            ("empty tail", layered(&k[..2], &k[2..5], 4, &[])),
            // Longer than the stack array: falls back to the generic entry.
            ("20-kernel layer", layered(&k[..1], &k[1..21], 3, &k[21..])),
            ("no run", (k.clone(), None)),
        ];
        let mut derated = gpu();
        derated.set_mode(PowerMode::W15);
        derated.set_derate(Derate {
            freq: 0.8,
            bw: 0.6,
            cap_w: 12.0,
        });
        let calib = ExecCalib {
            latency_scale: 1.3,
            power_scale: 0.9,
        };
        for g in [gpu(), derated] {
            for (case, (seq, run)) in &cases {
                let generic = g.run_phase_deterministic(seq, &calib);
                let fast = g.run_phase_layered(seq, run.clone(), &calib);
                assert_same_bits(&fast, &generic, case);
                assert_eq!(fast.kernels, seq.len(), "{case}");
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "differs from the first")]
    fn a_record_over_unequal_copies_fails_in_debug() {
        let seq: Vec<KernelDesc> = (0..6).map(kernel).collect();
        let _ = gpu().run_phase_layered(&seq, Some((0..2, 3)), &ExecCalib::default());
    }

    #[test]
    fn int8_compute_is_faster_than_fp16() {
        let mut g = gpu();
        let fp16 = KernelDesc::gemm(KernelClass::Gemm, ComputeKind::TensorFp16, 4096, 4096, 4096);
        let int8 = KernelDesc::gemm(KernelClass::Gemm, ComputeKind::TensorInt8, 4096, 4096, 4096);
        let t_fp16 = g.execute(&fp16).latency_s;
        let t_int8 = g.execute(&int8).latency_s;
        assert!(t_int8 < t_fp16);
    }
}
