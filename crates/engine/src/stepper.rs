//! Incremental (iteration-level) batching: the engine's one execution path.
//!
//! [`BatchStepper`] runs generations as schedulable operations —
//! [`admit`](BatchStepper::admit) prefills a new request into the *running*
//! mixed-context batch, [`step`](BatchStepper::step) decodes one chunk for
//! every live sequence and retires the finished ones — so a serving
//! scheduler can add work at iteration granularity instead of waiting for a
//! whole static batch to drain (vLLM's continuous batching).
//!
//! # `run` is one drained admission
//!
//! [`InferenceEngine::run`] admits its request into a fresh stepper at the
//! engine's clock and steps until it retires, and the one serving loop
//! ([`crate::cluster`]'s fleet loop) admits into running steppers under
//! gang scheduling (a busy replica has no room) or continuous batching, so
//! standalone generations and every served request execute the same code.
//! Admission and readmission share one placement routine. The stepper
//! drives the engine's phase machinery: deterministic
//! roofline aggregates memoized in the
//! [`PhasePlanCache`](crate::plan_cache::PhasePlanCache), *exactly one*
//! stochastic perturbation draw per phase, the decode-base memo,
//! fault/derate hooks on the simulated wall clock, governor feeding, and
//! the engine's shared run tail (run-level jitter, DVFS ramp and host
//! overhead, applied to each outcome as its slot retires). When the queue
//! is drained — every admission happens while the stepper is empty, so
//! batches never actually interleave — each request's phase keys, float
//! operations and RNG draws are those of its own `run`, and the produced
//! [`InferenceOutcome`]s are bit-identical (see DESIGN.md §9).
//!
//! When several admissions *do* overlap, each decode iteration runs the
//! union batch: one context-independent base aggregate for the whole
//! iteration (amortized across all cohorts instead of per request), one
//! attention aggregate per cohort, one perturbation draw, and the iteration
//! cost is attributed to the slots in proportion to their share of the
//! deterministic energy.
//!
//! # One step, three phases
//!
//! [`step`](BatchStepper::step) readmits waiting groups and then runs
//! three phases: grow every live sequence by the iteration's chunk
//! (reclaiming cold prefix-tree paths, then preempting the youngest
//! sequence under recompute preemption), one mixed-context decode
//! iteration with its per-slot attribution, and retirement. Retirement,
//! [`cancel`](BatchStepper::cancel) and [`fail_all`](BatchStepper::fail_all)
//! share one teardown per kind of state: one pass that drops cohorts and
//! returns their sequences and buffers, one that takes a slot out of the
//! slab with its prefix pin, and one reset of the slab once nothing is
//! live.

use std::collections::VecDeque;

use edgereasoning_kernels::arch::{ModelArch, ModelId};
use edgereasoning_kernels::dtype::Precision;
use edgereasoning_kernels::phases::{
    build_decode_attn_into, build_decode_base_into, build_prefill_into,
};
use edgereasoning_soc::gpu::PhaseStats;

use crate::engine::{InferenceEngine, OomPolicy};
use crate::kv_cache::{KvCacheManager, KvError, SeqId};
use crate::outcome::{InferenceOutcome, TbtSample, TraceRec};
use crate::plan_cache::{PhaseKey, PhaseKind};
use crate::prefix_cache::{PrefixCache, PrefixCacheStats, PrefixHandle};
use crate::request::GenerationRequest;
use crate::EngineError;

/// Handle to a request admitted into the stepper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(u64);

impl std::fmt::Display for SlotId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "slot#{}", self.0)
    }
}

/// Result of admitting a request: its slot handle and the absolute sim
/// time at which its prefill finished (the next schedulable instant).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmitOutcome {
    /// Handle for matching the eventual [`FinishedSlot`].
    pub id: SlotId,
    /// Stepper clock after the admission prefill, seconds.
    pub end_s: f64,
    /// Prompt tokens served from the prefix cache (prefill skipped); zero
    /// for [`BatchStepper::admit`] and on cache misses.
    pub cached_tokens: usize,
}

/// A request that completed during a [`BatchStepper::step`] call.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedSlot {
    /// The handle returned by [`BatchStepper::admit`].
    pub id: SlotId,
    /// Full generation telemetry, assembled by the engine's shared run
    /// tail (run-level jitter + DVFS power ramp).
    pub outcome: InferenceOutcome,
    /// Wall-clock seconds this request spent waiting on iterations it did
    /// not participate in (zero for a drained queue), scaled by the same
    /// run-level jitter as the outcome. Completion time is
    /// `admit_time + outcome.total_latency_s() + extra_wait_s`.
    pub extra_wait_s: f64,
}

/// Result of one decode iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct StepOutcome {
    /// Stepper clock after the iteration, seconds.
    pub end_s: f64,
    /// Requests that finished this iteration, in admission order.
    pub retired: Vec<FinishedSlot>,
}

/// Per-request accumulation state.
#[derive(Debug, Clone)]
struct Slot {
    id: SlotId,
    batch: usize,
    prompt_tokens: usize,
    max_new_tokens: usize,
    prefill: PhaseStats,
    decode: PhaseStats,
    trace: TraceRec,
    wait_s: f64,
    throttled_s: f64,
    preemptions: usize,
    recomputed_tokens: usize,
    /// Whether the prompt prefill has run (false only while a
    /// zero-allocation preempt-mode admission waits for KV space).
    prefilled: bool,
    done_seqs: usize,
    /// Prompt tokens resident in the prefix tree for this slot (pinned for
    /// its whole lifetime); per-sequence private allocations start past
    /// this point.
    shared_tokens: usize,
    /// Prompt tokens that were already resident at admission: the prefill
    /// charge covers only `prompt_tokens - cached_tokens`.
    cached_tokens: usize,
    /// Pinned prefix-tree path, released when the slot retires, cancels or
    /// fails (never on preemption — only private blocks are evicted).
    prefix_path: Option<PrefixHandle>,
}

impl Slot {
    /// Joules drawn so far: what a cancelled or failed slot books.
    fn spent_j(&self) -> f64 {
        self.prefill.energy_j + self.decode.energy_j
    }

    /// Assembles the slot's outcome and runs it through the engine's run
    /// tail; the slot's wait scales by the same run-level jitter draw.
    fn finish(
        self,
        engine: &mut InferenceEngine,
        model: ModelId,
        precision: Precision,
    ) -> FinishedSlot {
        let mut outcome = InferenceOutcome {
            model,
            precision,
            batch: self.batch,
            prompt_tokens: self.prompt_tokens,
            generated_tokens: self.max_new_tokens,
            prefill: self.prefill,
            decode: self.decode,
            host_s: 0.0,
            tbt_trace: self.trace.into_vec(),
            preemptions: self.preemptions,
            recomputed_tokens: self.recomputed_tokens,
            throttled_s: self.throttled_s,
        };
        let jitter = engine.finish_run(&mut outcome);
        FinishedSlot {
            id: self.id,
            outcome,
            extra_wait_s: self.wait_s * jitter,
        }
    }
}

/// A group of live sequences of one slot sharing a progress point.
#[derive(Debug, Clone)]
struct Cohort {
    slot: usize,
    prompt_tokens: usize,
    max_new_tokens: usize,
    produced: usize,
    /// Prompt tokens held by the shared prefix tree, not by these
    /// sequences' private allocations (growth targets subtract this).
    shared_tokens: usize,
    seqs: Vec<SeqId>,
}

/// A preempted (or not-yet-placed) group waiting for KV space.
#[derive(Debug, Clone, Copy)]
struct WaitEntry {
    slot: usize,
    count: usize,
    produced: usize,
}

/// The incremental engine stepper (see the module docs).
///
/// One stepper serves one `(model, precision)` pair and owns the paged KV
/// cache for it; the [`InferenceEngine`] is passed into each call so its
/// plan cache, RNG streams and counters stay shared with the engine's
/// other runs.
#[derive(Debug, Clone)]
pub struct BatchStepper {
    model: ModelId,
    prec: Precision,
    arch: ModelArch,
    arch_fp: u64,
    kv: KvCacheManager,
    slots: Vec<Option<Slot>>,
    /// Indices of retired/cancelled `slots` entries available for reuse:
    /// the slab free list that keeps `slots` sized by the *live* high-water
    /// mark instead of growing by one per admission forever.
    free: Vec<usize>,
    /// Live slot indices in admission order. Every per-slot walk (wait
    /// charging, retirement, readmission eligibility, fail-all) iterates
    /// this, both for O(live) cost and because retirement order drives the
    /// run tail's RNG draws — with index reuse, ascending slot index no
    /// longer equals admission order.
    order: Vec<usize>,
    cohorts: Vec<Cohort>,
    waiting: VecDeque<WaitEntry>,
    /// Radix tree of resident shared KV blocks. Created lazily on the first
    /// prefixed admission, so unprefixed runs never touch it — that keeps
    /// the legacy paths bit-identical (see the contract above).
    prefix: Option<Box<PrefixCache>>,
    /// (gpu_fp, batch) -> context-independent decode base aggregate,
    /// amortized across the whole iteration (and across runs).
    base_cache: Option<(u64, usize, PhaseStats)>,
    clock: f64,
    next_slot: u64,
    /// Step-scoped scratch buffers, recycled across iterations so the
    /// steady-state decode loop allocates nothing.
    ctx_scratch: Vec<(usize, PhaseStats)>,
    share_scratch: Vec<f64>,
    weight_scratch: Vec<f64>,
    /// Recycled per-cohort sequence-id buffers: admissions draw from here
    /// and every cohort death (retire, cancel, fail, evict-drain) returns
    /// its vector, so long serving runs reuse the same handful of
    /// allocations instead of allocating one `Vec<SeqId>` per admission.
    seq_pool: Vec<Vec<SeqId>>,
}

impl BatchStepper {
    /// Creates a stepper for `model` at `prec` on `engine`'s device.
    ///
    /// # Errors
    ///
    /// [`EngineError::OutOfMemory`] if the weights alone exceed the memory
    /// budget.
    pub fn new(
        engine: &InferenceEngine,
        model: ModelId,
        prec: Precision,
    ) -> Result<Self, EngineError> {
        let arch = model.arch();
        engine.validate_governance()?;
        let cache_bytes = engine.kv_budget_bytes(model, prec)?;
        let kv = KvCacheManager::new(&arch, cache_bytes, engine.config().kv_block_tokens)?;
        let arch_fp = arch.fingerprint();
        Ok(Self {
            model,
            prec,
            arch,
            arch_fp,
            kv,
            slots: Vec::new(),
            free: Vec::new(),
            order: Vec::new(),
            cohorts: Vec::new(),
            waiting: VecDeque::new(),
            prefix: None,
            base_cache: None,
            clock: 0.0,
            next_slot: 0,
            ctx_scratch: Vec::new(),
            share_scratch: Vec::new(),
            weight_scratch: Vec::new(),
            seq_pool: Vec::new(),
        })
    }

    /// Whether any admitted request has not yet retired.
    pub fn is_busy(&self) -> bool {
        !self.order.is_empty()
    }

    /// Total sequences across unretired slots (admitted batch sizes), the
    /// scheduler's admission headroom input.
    pub fn live_queries(&self) -> usize {
        self.order
            .iter()
            .filter_map(|&i| self.slots[i].as_ref())
            .map(|s| s.batch)
            .sum()
    }

    /// Current stepper clock, seconds of simulated time.
    pub fn clock_s(&self) -> f64 {
        self.clock
    }

    /// Whether `batch` sequences of `tokens` each could *ever* fit this
    /// stepper's KV cache (capacity check, ignoring current occupancy —
    /// see [`KvCacheManager::would_fit_capacity`]). The fleet router uses
    /// this to skip replicas that could never hold a hedged clone.
    pub fn kv_would_fit(&self, batch: usize, tokens: usize) -> bool {
        self.kv.would_fit_capacity(batch, tokens)
    }

    /// Free KV-cache capacity, tokens (for leak auditing: returns to
    /// [`kv_capacity_tokens`](Self::kv_capacity_tokens) after a drain).
    pub fn kv_free_tokens(&self) -> u64 {
        self.kv.free_tokens()
    }

    /// Total KV-cache capacity, tokens.
    pub fn kv_capacity_tokens(&self) -> u64 {
        self.kv.capacity_tokens()
    }

    /// Tokens reclaimable right now by evicting unpinned prefix-tree
    /// paths: [`kv_free_tokens`](Self::kv_free_tokens) plus this is the
    /// *effective* free space. O(1) once no path is pinned (the drain
    /// audit); otherwise a scan of the tree.
    pub fn kv_evictable_tokens(&self) -> u64 {
        self.prefix
            .as_ref()
            .map_or(0, |c| c.evictable_blocks() * self.kv.block_tokens() as u64)
    }

    /// Tokens currently resident in the prefix tree (shared blocks, charged
    /// against the KV budget exactly once). After a drain,
    /// `kv_free_tokens + prefix_resident_tokens == kv_capacity_tokens`.
    pub fn prefix_resident_tokens(&self) -> u64 {
        self.prefix
            .as_ref()
            .map_or(0, |c| c.resident_blocks() * self.kv.block_tokens() as u64)
    }

    /// Outstanding prefix-tree pins (zero once every admitted request has
    /// retired, cancelled or failed — the refcount conservation property).
    pub fn prefix_outstanding_pins(&self) -> u64 {
        self.prefix.as_ref().map_or(0, |c| c.outstanding_pins())
    }

    /// Prefix-cache behaviour counters (all zero when no prefixed request
    /// was ever admitted).
    pub fn prefix_stats(&self) -> PrefixCacheStats {
        self.prefix
            .as_ref()
            .map_or_else(Default::default, |c| c.stats())
    }

    /// Prompt tokens of `prefix` that are resident right now, capped so the
    /// un-cached suffix keeps at least one token of a `prompt_tokens`-long
    /// prompt. Read-only — the fleet router peeks this to prefer the
    /// replica with the longest cached prefix without perturbing LRU order.
    pub fn cached_prefix_tokens(&self, prefix: &[u64], prompt_tokens: usize) -> usize {
        let Some(cache) = self.prefix.as_ref() else {
            return 0;
        };
        let bt = self.kv.block_tokens();
        let limit = prefix.len().min(prompt_tokens.saturating_sub(1) / bt);
        cache.match_blocks(&prefix[..limit]) * bt
    }

    fn key(&self, gpu_fp: u64, kind: PhaseKind, batch: usize, shape: usize) -> PhaseKey {
        PhaseKey {
            arch_fp: self.arch_fp,
            gpu_fp,
            precision: self.prec,
            kind,
            batch,
            shape,
        }
    }

    /// KV blocks the unretired slots still need to finish (growth beyond
    /// what their live sequences hold now). Waiting entries are excluded:
    /// under FailFast none exist, which is the only policy that uses this.
    fn outstanding_growth_blocks(&self) -> u64 {
        self.cohorts
            .iter()
            .map(|c| {
                // Private footprint only: the shared prefix lives in the
                // tree and never grows with decode.
                let full = self
                    .kv
                    .blocks_needed(c.prompt_tokens + c.max_new_tokens - c.shared_tokens);
                let held = self
                    .kv
                    .blocks_needed(c.prompt_tokens + c.produced - c.shared_tokens);
                full.saturating_sub(held) * c.seqs.len() as u64
            })
            .sum()
    }

    /// Allocates a private sequence, reclaiming cold prefix-tree blocks on
    /// demand. With no prefix cache this is exactly
    /// [`KvCacheManager::allocate`].
    fn alloc_private(&mut self, tokens: usize) -> Option<SeqId> {
        if let Some(id) = self.kv.allocate(tokens) {
            return Some(id);
        }
        let cache = self.prefix.as_mut()?;
        let deficit = self
            .kv
            .blocks_needed(tokens)
            .saturating_sub(self.kv.free_blocks());
        if deficit > 0 && cache.evict(&mut self.kv, deficit) < deficit {
            return None;
        }
        self.kv.allocate(tokens)
    }

    /// Releases a slot's pinned prefix path (retire/cancel/fail — never
    /// preemption).
    fn unpin_prefix(&mut self, path: Option<PrefixHandle>, count: usize) {
        if let (Some(handle), Some(cache)) = (path, self.prefix.as_mut()) {
            cache.release(handle, count as u32);
        }
    }

    /// Takes slot `idx` out of the slab, releasing its prefix pin and
    /// freeing its index: the one slot teardown of retirement,
    /// cancellation and failure. The caller drops `idx` from `order`.
    fn take_slot(&mut self, idx: usize) -> Option<Slot> {
        let s = self.slots[idx].take()?;
        self.unpin_prefix(s.prefix_path, s.batch);
        self.free.push(idx);
        Some(s)
    }

    /// Drops the slab shells once nothing is live, so slab capacity never
    /// outlives a burst across a long serving run.
    fn reset_if_idle(&mut self) {
        if !self.is_busy() {
            self.slots.clear();
            self.free.clear();
            self.waiting.clear();
        }
    }

    /// Drops the cohorts `dead` selects in one stable pass (survivors keep
    /// their order, and with it every later phase key and RNG draw),
    /// counting their sequences done on their slots and returning them to
    /// the KV pool. Returns whether any cohort was dropped, or the first
    /// KV release failure once every sequence has been released.
    fn drop_cohorts(&mut self, mut dead: impl FnMut(&Cohort) -> bool) -> Result<bool, KvError> {
        let live = self.cohorts.len();
        let mut freed = Ok(());
        for c in self.cohorts.extract_if(.., |c| dead(c)) {
            if let Some(s) = self.slots[c.slot].as_mut() {
                s.done_seqs += c.seqs.len();
            }
            freed = freed.and(free_seqs(&mut self.kv, &mut self.seq_pool, c.seqs));
        }
        freed.map(|()| self.cohorts.len() < live)
    }

    /// Charges `busy` seconds of other-request work to every unretired
    /// slot except `except`.
    fn charge_wait(&mut self, busy: f64, except: usize) {
        for oi in 0..self.order.len() {
            let i = self.order[oi];
            if i == except {
                continue;
            }
            if let Some(s) = self.slots[i].as_mut() {
                s.wait_s += busy;
            }
        }
    }

    /// Admits a request: reserves KV space, runs its prefill at the current
    /// stepper clock, and registers its sequences as a live cohort. `now`
    /// advances the clock when the stepper was idle (admissions into a
    /// running batch happen at the current iteration boundary).
    ///
    /// Under [`OomPolicy::FailFast`] the whole request (prompt + full
    /// output growth, plus the outstanding growth of everything already
    /// admitted) is reserved up front; under
    /// [`OomPolicy::PreemptRecompute`] only end-to-end feasibility of a
    /// single sequence is required and unplaceable sequences wait.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] for zero-sized fields and
    /// [`EngineError::OutOfMemory`] when the request can never be placed.
    pub fn admit(
        &mut self,
        engine: &mut InferenceEngine,
        now: f64,
        req: &GenerationRequest,
    ) -> Result<AdmitOutcome, EngineError> {
        self.admit_prefixed(engine, now, req, &[])
    }

    /// [`admit`](Self::admit) with a block-granular prefix signature: one
    /// `u64` per full KV block of the prompt, identifying its token
    /// contents. The signature is matched against the prefix tree; already
    /// resident blocks skip prefill (latency, energy and KV growth are
    /// charged only for the un-cached suffix), missing shareable blocks are
    /// inserted for later requests, and the whole path is pinned until the
    /// slot retires, cancels or fails. At most `prompt_tokens - 1` tokens
    /// are shareable — the last prompt token is always computed privately,
    /// which is also where copy-on-write diverges from the cached path.
    ///
    /// With an empty signature this *is* [`admit`](Self::admit), running
    /// the identical instruction sequence.
    ///
    /// # Errors
    ///
    /// As [`admit`](Self::admit); on error no pins or blocks are retained.
    pub fn admit_prefixed(
        &mut self,
        engine: &mut InferenceEngine,
        now: f64,
        req: &GenerationRequest,
        prefix: &[u64],
    ) -> Result<AdmitOutcome, EngineError> {
        req.validate().map_err(EngineError::InvalidRequest)?;
        if self.clock < now {
            self.clock = now;
        }
        let total_tokens = req.prompt_tokens + req.max_new_tokens;

        // Shareable limit: full prompt blocks only, and the un-cached
        // suffix keeps at least one token (vLLM recomputes the last token
        // too — its logits drive the first decode step).
        let share_limit = if prefix.is_empty() {
            0
        } else {
            prefix
                .len()
                .min(req.prompt_tokens.saturating_sub(1) / self.kv.block_tokens())
        };

        let (shared_tokens, cached_tokens, prefix_path) = if share_limit > 0 {
            // Pin the resident prefix first (protecting it from eviction),
            // then extend the tree with the shareable remainder.
            let cache = self.prefix.get_or_insert_with(Default::default);
            let acq = cache.acquire(&mut self.kv, &prefix[..share_limit], req.batch as u32);
            let bt = self.kv.block_tokens();
            (acq.resident_blocks * bt, acq.hit_blocks * bt, acq.handle)
        } else {
            (0, 0, None)
        };
        // Admission feasibility: FailFast reserves every sequence's private
        // suffix (prompt tail + full output growth) on top of the live
        // slots' outstanding growth; PreemptRecompute needs one sequence to
        // fit end to end. Only prefixed requests reclaim cold tree paths.
        let feasible = match engine.config().oom_policy {
            OomPolicy::FailFast => {
                let need = self.kv.blocks_needed(total_tokens - shared_tokens) * req.batch as u64
                    + self.outstanding_growth_blocks();
                let free = self.kv.free_blocks();
                if share_limit > 0 && need > free {
                    if let Some(cache) = self.prefix.as_mut() {
                        cache.evict(&mut self.kv, need - free);
                    }
                }
                need <= self.kv.free_blocks()
            }
            OomPolicy::PreemptRecompute => self.kv.would_fit_capacity(1, total_tokens),
        };
        if !feasible {
            self.unpin_prefix(prefix_path, req.batch);
            return Err(oom_error(&self.kv, req.batch * total_tokens));
        }

        // Reuse a retired slab index when one is free; the slab stays sized
        // by the live high-water mark across arbitrarily long runs.
        let slot_idx = self.free.pop().unwrap_or(self.slots.len());
        let id = SlotId(self.next_slot);
        self.next_slot += 1;
        let slot = Slot {
            id,
            batch: req.batch,
            prompt_tokens: req.prompt_tokens,
            max_new_tokens: req.max_new_tokens,
            prefill: PhaseStats::default(),
            decode: PhaseStats::default(),
            trace: TraceRec::new(engine.config().tbt_trace_cap),
            wait_s: 0.0,
            throttled_s: 0.0,
            preemptions: 0,
            recomputed_tokens: 0,
            prefilled: false,
            done_seqs: 0,
            shared_tokens,
            cached_tokens,
            prefix_path,
        };
        if slot_idx == self.slots.len() {
            self.slots.push(Some(slot));
        } else {
            self.slots[slot_idx] = Some(slot);
        }
        self.order.push(slot_idx);
        self.place(engine, slot_idx, req.batch, 0);
        Ok(AdmitOutcome {
            id,
            end_s: self.clock,
            cached_tokens,
        })
    }

    /// Places up to `count` sequences of slot `slot_idx` at progress point
    /// `produced` — the one placement path of admission and readmission.
    /// Allocates the private context (past the still-resident shared
    /// prefix) of as many sequences as fit and queues the rest, then
    /// charges the placement as one busy segment: the slot's prompt prefill
    /// over its un-cached suffix on its first placement, otherwise a
    /// batch-1 recompute pass over the lost private context, once per
    /// placed sequence (the shared prefix stayed pinned in the tree, so
    /// preempted sequences never recompute it).
    fn place(
        &mut self,
        engine: &mut InferenceEngine,
        slot_idx: usize,
        count: usize,
        produced: usize,
    ) {
        let Some(s) = self.slots[slot_idx].as_ref() else {
            return;
        };
        let (prompt_tokens, max_new_tokens, shared_tokens) =
            (s.prompt_tokens, s.max_new_tokens, s.shared_tokens);
        let first = !s.prefilled && produced == 0;
        let private = prompt_tokens + produced - shared_tokens;
        let tokens = if first {
            prompt_tokens - s.cached_tokens
        } else {
            private
        };
        let mut seqs = self.seq_pool.pop().unwrap_or_default();
        seqs.reserve(count);
        for placed in 0..count {
            match self.alloc_private(private) {
                Some(sid) => seqs.push(sid),
                None => {
                    // FailFast admission reserved every sequence's blocks,
                    // so only PreemptRecompute ever waits — which is what
                    // `outstanding_growth_blocks` relies on.
                    debug_assert!(engine.config().oom_policy != OomPolicy::FailFast);
                    self.waiting.push_back(WaitEntry {
                        slot: slot_idx,
                        count: count - placed,
                        produced,
                    });
                    break;
                }
            }
        }
        if seqs.is_empty() {
            // Other slots hold the cache; retry next step. Nothing was
            // allocated, so only the buffer goes back.
            let _ = free_seqs(&mut self.kv, &mut self.seq_pool, seqs);
            return;
        }

        // Batch 1 either way: a batch shares one prompt (the paper's setup),
        // and a recompute pass runs once per placed sequence.
        let t = self.clock;
        let throttled = engine.apply_faults_at(t);
        let gpu_fp = engine.gpu_fingerprint();
        let arch = &self.arch;
        let prec = self.prec;
        let det = engine.deterministic_phase(
            self.key(gpu_fp, PhaseKind::Prefill, 1, tokens),
            &arch.calib.prefill,
            |plan| build_prefill_into(plan, arch, prec, 1, tokens),
        );
        let mut phase = engine.perturb(&det);
        let recovered = if first { 0 } else { tokens * seqs.len() };
        if !first {
            phase = phase.repeated(seqs.len());
            engine.counters_mut().recomputed_tokens += recovered as u64;
        }
        if let Some(s) = self.slots[slot_idx].as_mut() {
            if throttled {
                engine.counters_mut().throttled_phases += 1;
                s.throttled_s += phase.latency_s;
            }
            fold_stalls(engine, t, &mut phase);
            if first {
                s.prefill = phase;
                s.prefilled = true;
            } else {
                s.recomputed_tokens += recovered;
                if phase.latency_s > 0.0 {
                    s.decode.merge(&phase);
                }
            }
        }
        let busy = phase.latency_s;
        self.clock += busy;
        engine.feed_governance(phase.energy_j, t, self.clock);
        if busy > 0.0 {
            self.charge_wait(busy, slot_idx);
        }
        self.cohorts.push(Cohort {
            slot: slot_idx,
            prompt_tokens,
            max_new_tokens,
            produced,
            shared_tokens,
            seqs,
        });
    }

    /// Re-places waiting (preempted or never-placed) groups whose slot has
    /// no live cohort — a slot's next cohort starts when its previous one
    /// drains.
    fn readmit_waiting(&mut self, engine: &mut InferenceEngine) {
        if self.waiting.is_empty() {
            // Hot path: nothing preempted, nothing to place.
            return;
        }
        // Slots with live cohorts keep their waiting groups queued.
        // Admission order (`order`), which pre-slab equalled ascending slot
        // index, decides who re-places first.
        let eligible: Vec<usize> = self
            .order
            .iter()
            .copied()
            .filter(|&i| {
                self.slots[i].is_some()
                    && self.waiting.iter().any(|w| w.slot == i)
                    && !self.cohorts.iter().any(|c| c.slot == i)
            })
            .collect();
        for slot_idx in eligible {
            // Pop this slot's front run of same-progress entries: adjacent
            // cohorts at one progress point coalesce into one batch.
            let Some(first) = self.waiting.iter().position(|w| w.slot == slot_idx) else {
                continue;
            };
            let produced = self.waiting[first].produced;
            let mut count = 0usize;
            let mut i = first;
            while i < self.waiting.len() {
                if self.waiting[i].slot != slot_idx {
                    i += 1;
                    continue;
                }
                if self.waiting[i].produced != produced {
                    break;
                }
                count += self.waiting[i].count;
                self.waiting.remove(i);
            }
            self.place(engine, slot_idx, count, produced);
        }
    }

    /// Evicts the youngest live sequence (tail of the youngest cohort) to
    /// free KV blocks, requeueing its progress point.
    fn evict_youngest(&mut self, engine: &mut InferenceEngine) -> Result<(), EngineError> {
        let total: usize = self.cohorts.iter().map(|c| c.seqs.len()).sum();
        if total <= 1 {
            // Admission only checks that one sequence fits the empty cache:
            // prefix pins that preempted and waiting groups keep can leave a
            // lone sequence no room to grow (ROADMAP.md item 3's reproducer,
            // 42 of its 44 failing steps). Fail rather than spin.
            return Err(oom_error(&self.kv, 0));
        }
        let Some(cohort) = self.cohorts.last_mut() else {
            return Err(EngineError::InvalidRequest(
                "eviction with no live cohorts".into(),
            ));
        };
        let slot_idx = cohort.slot;
        let produced = cohort.produced;
        if let Some(victim) = cohort.seqs.pop() {
            self.kv.release(victim)?;
            self.waiting.push_back(WaitEntry {
                slot: slot_idx,
                count: 1,
                produced,
            });
            engine.counters_mut().preemptions += 1;
            if let Some(s) = self.slots[slot_idx].as_mut() {
                s.preemptions += 1;
            }
        }
        if let Some(c) = self.cohorts.pop_if(|c| c.seqs.is_empty()) {
            free_seqs(&mut self.kv, &mut self.seq_pool, c.seqs)?;
        }
        Ok(())
    }

    /// Decodes one chunk for every live cohort (one iteration of the
    /// continuous-batching loop), readmitting waiting groups first and
    /// retiring finished requests afterwards.
    ///
    /// # Errors
    ///
    /// [`EngineError::OutOfMemory`] when no progress is possible (FailFast
    /// growth failure, or nothing placeable with an empty batch) and
    /// [`EngineError::Kv`] on allocator misuse (internal invariant breach).
    pub fn step(&mut self, engine: &mut InferenceEngine) -> Result<StepOutcome, EngineError> {
        if !self.is_busy() {
            return Ok(StepOutcome {
                end_s: self.clock,
                retired: Vec::new(),
            });
        }
        self.readmit_waiting(engine);
        if self.cohorts.is_empty() {
            // Nothing live and nothing placeable: a waiting group exceeds
            // capacity, or pinned prefix blocks fill the cache (ROADMAP.md
            // item 3's reproducer, 2 of its 44 failing steps).
            return Err(oom_error(&self.kv, 0));
        }
        // Shared chunk: every cohort advances by the same token count so
        // the iteration stays a single perturbed phase.
        let chunk = self
            .cohorts
            .iter()
            .map(|c| c.max_new_tokens - c.produced)
            .fold(engine.config().decode_chunk, usize::min);
        self.grow_or_preempt(engine, chunk)?;
        self.decode(engine, chunk);
        let retired = self.retire(engine)?;
        Ok(StepOutcome {
            end_s: self.clock,
            retired,
        })
    }

    /// Grows every live sequence by `chunk` tokens. Cold prefix-tree paths
    /// go first; then, under PreemptRecompute, the youngest live sequence
    /// is evicted until growth succeeds (vLLM recompute preemption). Under
    /// FailFast admission reserved the full growth, so it cannot fail.
    fn grow_or_preempt(
        &mut self,
        engine: &mut InferenceEngine,
        chunk: usize,
    ) -> Result<(), EngineError> {
        let policy = engine.config().oom_policy;
        let mut ci = 0;
        while let Some(c) = self.cohorts.get(ci) {
            // Private growth target: decode extends the sequence's own
            // allocation; the shared prefix is the tree's, held elsewhere.
            let target = c.prompt_tokens + c.produced + chunk - c.shared_tokens;
            let mut si = 0;
            // An eviction may shrink this cohort or drop it altogether.
            while let Some(&seq) = self.cohorts.get(ci).and_then(|c| c.seqs.get(si)) {
                if self.grow_reclaiming(seq, target)? {
                    si += 1;
                } else if policy == OomPolicy::FailFast {
                    let c = &self.cohorts[ci];
                    return Err(oom_error(&self.kv, c.prompt_tokens + c.max_new_tokens));
                } else {
                    self.evict_youngest(engine)?;
                }
            }
            ci += 1;
        }
        Ok(())
    }

    /// Grows `seq` to `target` tokens, evicting cold prefix-tree paths one
    /// block at a time while it does not fit. Returns whether it grew.
    fn grow_reclaiming(&mut self, seq: SeqId, target: usize) -> Result<bool, KvError> {
        if self.kv.grow(seq, target)? {
            return Ok(true);
        }
        while let Some(cache) = self.prefix.as_mut() {
            if cache.evict(&mut self.kv, 1) == 0 {
                break;
            }
            if self.kv.grow(seq, target)? {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Runs one decode iteration of `chunk` tokens over every live cohort
    /// and attributes its latency, energy, stalls and waits to the slots.
    fn decode(&mut self, engine: &mut InferenceEngine, chunk: usize) {
        // One mixed-context decode iteration: shared base aggregate at the
        // union batch, per-cohort attention aggregates, one perturbation.
        let n_total: usize = self.cohorts.iter().map(|c| c.seqs.len()).sum();
        let idle_w = engine.idle_w();
        let host_per_step =
            engine.config().host_per_step_s + engine.config().host_per_seq_step_s * n_total as f64;
        let throttled = engine.apply_faults_at(self.clock);
        let gpu_fp = engine.gpu_fingerprint();
        let arch = &self.arch;
        let prec = self.prec;
        let base_det = match self.base_cache {
            Some((fp, b, stats)) if fp == gpu_fp && b == n_total => stats,
            _ => {
                let stats = engine.deterministic_phase(
                    self.key(gpu_fp, PhaseKind::DecodeBase, n_total, 0),
                    &arch.calib.decode,
                    |plan| build_decode_base_into(plan, arch, prec, n_total),
                );
                self.base_cache = Some((gpu_fp, n_total, stats));
                stats
            }
        };
        let mut step_det = base_det;
        // (ctx, deterministic attention aggregate) per cohort, in order
        // (recycled scratch: the steady-state iteration allocates nothing).
        let mut ctx_dets = std::mem::take(&mut self.ctx_scratch);
        ctx_dets.clear();
        for c in &self.cohorts {
            let ctx = c.prompt_tokens + c.produced + chunk / 2;
            let ctx_det = engine.deterministic_phase(
                self.key(gpu_fp, PhaseKind::DecodeCtx, c.seqs.len(), ctx),
                &arch.calib.decode,
                |plan| build_decode_attn_into(plan, arch, prec, c.seqs.len(), ctx),
            );
            step_det.merge(&ctx_det);
            ctx_dets.push((ctx, ctx_det));
        }
        let mut step = engine.perturb(&step_det);
        step.merge(&idle_gap(host_per_step, idle_w));
        let span = step.latency_s * chunk as f64;
        if throttled {
            engine.counters_mut().throttled_phases += 1;
        }
        let stall_s = engine.charge_stalls(self.clock, self.clock + span);

        // Attribute the iteration to the participating slots.
        let m = self.cohorts.len();
        let mut slot_share = std::mem::take(&mut self.share_scratch);
        slot_share.clear();
        slot_share.resize(self.slots.len(), 0.0);
        // Split the perturbed iteration by each cohort's share of the
        // deterministic energy (attention + its share of the base), so
        // per-request totals still sum to the iteration. A lone cohort
        // (every step of a drained run) takes `w / w = 1.0` exactly: the
        // whole iteration, unsplit.
        let mut weights = std::mem::take(&mut self.weight_scratch);
        weights.clear();
        weights.extend(ctx_dets.iter().zip(&self.cohorts).map(|((_, det), c)| {
            det.energy_j + base_det.energy_j * (c.seqs.len() as f64 / n_total as f64)
        }));
        let wsum: f64 = weights.iter().sum();
        for ((&(ctx, _), c), &w) in ctx_dets.iter().zip(&self.cohorts).zip(&weights) {
            let frac = if wsum > 0.0 { w / wsum } else { 1.0 / m as f64 };
            let share = scaled(&step, frac);
            if let Some(s) = self.slots[c.slot].as_mut() {
                s.trace.push(TbtSample {
                    ctx,
                    tbt_s: share.latency_s,
                });
                if throttled {
                    s.throttled_s += span * frac;
                }
                s.decode.merge(&share.repeated(chunk));
                if stall_s > 0.0 {
                    s.decode.merge(&idle_gap(stall_s * frac, idle_w));
                }
            }
            slot_share[c.slot] += frac;
        }
        self.weight_scratch = weights;
        let busy = span + stall_s;
        for oi in 0..self.order.len() {
            let i = self.order[oi];
            if let Some(s) = self.slots[i].as_mut() {
                let idle_frac = (1.0 - slot_share[i]).max(0.0);
                if idle_frac > 0.0 {
                    s.wait_s += busy * idle_frac;
                }
            }
        }
        self.share_scratch = slot_share;
        self.ctx_scratch = ctx_dets;
        let t_step = self.clock;
        self.clock += busy;
        // The device's actual draw this iteration: the fused decode step
        // repeated over the chunk, plus stall time idling at the floor.
        engine.feed_governance(
            step.energy_j * chunk as f64 + stall_s * idle_w,
            t_step,
            self.clock,
        );
        for c in &mut self.cohorts {
            c.produced += chunk;
        }
    }

    /// Retires the cohorts that produced their last token, then finishes
    /// every slot with no sequence left, in admission order: the run tail
    /// draws run-level jitter per retired slot, so this order is part of
    /// the bit-exactness contract.
    fn retire(&mut self, engine: &mut InferenceEngine) -> Result<Vec<FinishedSlot>, EngineError> {
        let mut retired = Vec::new();
        if !self.drop_cohorts(|c| c.produced >= c.max_new_tokens)? {
            return Ok(retired);
        }
        let mut keep = 0;
        for oi in 0..self.order.len() {
            let i = self.order[oi];
            if self.slots[i]
                .as_ref()
                .is_none_or(|s| s.done_seqs != s.batch)
            {
                self.order[keep] = i;
                keep += 1;
            } else if let Some(s) = self.take_slot(i) {
                retired.push(s.finish(engine, self.model, self.prec));
            }
        }
        self.order.truncate(keep);
        self.reset_if_idle();
        Ok(retired)
    }

    /// Cancels one unretired request (a hedged-request loser whose twin
    /// completed first, or a scheduler-initiated abort), releasing its KV
    /// state and removing it from the running batch without producing an
    /// outcome. Returns the energy the slot had already accrued — a
    /// cancelled request's cost is real and the caller books it — or
    /// `None` if no live slot has this id.
    pub fn cancel(&mut self, id: SlotId) -> Option<f64> {
        let idx = self
            .slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|s| s.id == id))?;
        // One stable pass over each list: many simultaneous cancellations
        // cost linear, not quadratic, time in the list lengths.
        let _ = self.drop_cohorts(|c| c.slot == idx);
        self.waiting.retain(|w| w.slot != idx);
        let s = self.take_slot(idx)?;
        self.order.retain(|&i| i != idx);
        self.reset_if_idle();
        Some(s.spent_j())
    }

    /// Abandons every unretired request (a replica outage, or scheduler
    /// recovery after a stuck [`step`](Self::step)), releasing all KV
    /// state. Returns the failed slot handles and the energy those slots
    /// had already accrued, joules: as with [`cancel`](Self::cancel), the
    /// voided work drew real power and the caller books it.
    pub fn fail_all(&mut self) -> (Vec<SlotId>, f64) {
        let _ = self.drop_cohorts(|_| true);
        // Admission order, as the pre-slab ascending-index walk produced.
        let mut failed = Vec::with_capacity(self.order.len());
        let mut spent_j = 0.0;
        for s in self.order.iter().filter_map(|&i| self.slots[i].as_ref()) {
            failed.push(s.id);
            spent_j += s.spent_j();
        }
        // Failed slots drop their prefix pins too, in slab-index order:
        // each release stamps the tree's LRU order, which picks the next
        // eviction. The tree itself stays warm for whatever the scheduler
        // admits next.
        for i in 0..self.slots.len() {
            self.take_slot(i);
        }
        self.order.clear();
        self.reset_if_idle();
        (failed, spent_j)
    }
}

/// Returns `seqs` to the KV pool and their emptied buffer to `seq_pool`: the
/// one teardown of a cohort's sequences, whether the cohort retired, was
/// cancelled or failed, emptied under eviction, or never placed a
/// sequence. Every sequence is released; the first failure is returned.
fn free_seqs(
    kv: &mut KvCacheManager,
    seq_pool: &mut Vec<Vec<SeqId>>,
    mut seqs: Vec<SeqId>,
) -> Result<(), KvError> {
    let mut freed = Ok(());
    for &seq in &seqs {
        freed = freed.and(kv.release(seq));
    }
    seqs.clear();
    seq_pool.push(seqs);
    freed
}

/// The out-of-memory error for `needed_tokens` of KV against the current
/// cache state; zero when a step is stuck rather than a request too big.
fn oom_error(kv: &KvCacheManager, needed_tokens: usize) -> EngineError {
    EngineError::OutOfMemory {
        needed: kv.bytes_per_token() * needed_tokens as u64,
        available: kv.free_tokens() * kv.bytes_per_token(),
    }
}

/// An idle-power gap of `latency_s` seconds (host work, kernel stalls).
pub(crate) fn idle_gap(latency_s: f64, idle_w: f64) -> PhaseStats {
    PhaseStats {
        latency_s,
        energy_j: latency_s * idle_w,
        avg_power_w: idle_w,
        ..PhaseStats::default()
    }
}

/// Folds the kernel stalls that start inside the busy segment `phase`
/// occupies from `t` into it, as idle-power time. Every busy segment
/// charges the stalls that start inside it: a placement's prompt prefill
/// or recompute pass (here) and a decode step (split across its cohorts in
/// [`BatchStepper::step`]).
fn fold_stalls(engine: &mut InferenceEngine, t: f64, phase: &mut PhaseStats) {
    let stall_s = engine.charge_stalls(t, t + phase.latency_s);
    if stall_s > 0.0 {
        phase.merge(&idle_gap(stall_s, engine.idle_w()));
    }
}

/// Scales a phase's extensive quantities (latency, energy, kernel count) by
/// `frac`, keeping the intensive ones (powers, utilizations).
fn scaled(p: &PhaseStats, frac: f64) -> PhaseStats {
    PhaseStats {
        latency_s: p.latency_s * frac,
        energy_j: p.energy_j * frac,
        kernels: ((p.kernels as f64) * frac).round() as usize,
        ..*p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn engine(seed: u64) -> InferenceEngine {
        InferenceEngine::new(EngineConfig::vllm(), seed)
    }

    /// A drained admission produces exactly the outcome the deleted static
    /// generation loop produced for this request (its golden fingerprint),
    /// with no wait and every KV block returned.
    #[test]
    fn drained_stepper_matches_the_golden_run() {
        let req = GenerationRequest::new(256, 200).with_batch(3);
        let mut e = engine(17);
        let mut stepper =
            BatchStepper::new(&e, ModelId::Dsr1Qwen1_5b, Precision::Fp16).expect("weights fit");
        let admitted = stepper.admit(&mut e, 42.0, &req).expect("admits");
        let mut got = None;
        while got.is_none() {
            let out = stepper.step(&mut e).expect("steps");
            for f in out.retired {
                assert_eq!(f.id, admitted.id);
                assert_eq!(f.extra_wait_s, 0.0, "drained runs never wait");
                got = Some(f.outcome);
            }
        }
        let outcome = got.expect("retired");
        assert_eq!(crate::fingerprint(&outcome), 0x0ce7_a547_cd67_29cc);
        assert!(!stepper.is_busy());
        assert_eq!(stepper.kv_free_tokens(), stepper.kv_capacity_tokens());
    }

    #[test]
    fn sequential_drained_runs_match_static_sequence() {
        // Several back-to-back drained admissions reuse one stepper (and
        // its KV manager + base memo) and must still match, run for run,
        // the fresh stepper that each `InferenceEngine::run` builds.
        let reqs = [
            GenerationRequest::new(128, 96).with_batch(2),
            GenerationRequest::new(256, 144),
            GenerationRequest::new(128, 96).with_batch(2),
        ];
        let mut se = engine(23);
        let mut ce = engine(23);
        let mut stepper =
            BatchStepper::new(&ce, ModelId::Dsr1Llama8b, Precision::Fp16).expect("fits");
        let mut t = 0.0;
        for req in &reqs {
            se.set_clock_s(t);
            let want = se
                .run(ModelId::Dsr1Llama8b, Precision::Fp16, req)
                .expect("fits");
            stepper.admit(&mut ce, t, req).expect("admits");
            loop {
                let out = stepper.step(&mut ce).expect("steps");
                if let Some(f) = out.retired.into_iter().next() {
                    assert_eq!(f.outcome, want);
                    break;
                }
            }
            t += want.total_latency_s() + 5.0;
        }
    }

    #[test]
    fn cancel_releases_kv_and_reports_accrued_energy() {
        let mut e = engine(5);
        let mut stepper =
            BatchStepper::new(&e, ModelId::Dsr1Qwen1_5b, Precision::Fp16).expect("fits");
        let cap = stepper.kv_free_tokens();
        let a = stepper
            .admit(&mut e, 0.0, &GenerationRequest::new(128, 192).with_batch(2))
            .expect("admits");
        let b = stepper
            .admit(&mut e, 0.0, &GenerationRequest::new(64, 96).with_batch(2))
            .expect("admits");
        let _ = stepper.step(&mut e).expect("steps");
        // Cancel one mid-flight request: its prefill + partial decode
        // energy is surfaced, its KV and batch share disappear.
        let live_before = stepper.live_queries();
        let energy = stepper.cancel(a.id).expect("slot is live");
        assert!(energy > 0.0, "accrued energy must be booked: {energy}");
        assert_eq!(stepper.live_queries(), live_before - 2);
        // Unknown / already-cancelled ids are a no-op.
        assert_eq!(stepper.cancel(a.id), None);
        // The survivor drains normally and every block comes back.
        let mut retired = Vec::new();
        while stepper.is_busy() {
            retired.extend(stepper.step(&mut e).expect("steps").retired);
        }
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].id, b.id);
        assert_eq!(stepper.kv_free_tokens(), cap, "cancel must not leak KV");
    }

    /// The allocation-budget invariant (DESIGN.md §14): once warm, a decode
    /// iteration that retires nothing performs zero heap allocations. The
    /// first pass of the request warms the plan cache, KV maps and scratch
    /// capacities; the second identical request is all cache hits, and its
    /// mid-flight steps are measured under the counting allocator.
    #[test]
    fn steady_state_step_allocates_nothing() {
        let mut e = InferenceEngine::new(
            EngineConfig {
                // A small trace cap puts the recorder in its decimating
                // steady state (fixed capacity) well before the window.
                tbt_trace_cap: 8,
                ..EngineConfig::vllm()
            },
            11,
        );
        let mut stepper =
            BatchStepper::new(&e, ModelId::Dsr1Qwen1_5b, Precision::Fp16).expect("fits");
        let req = GenerationRequest::new(64, 1920).with_batch(2);
        // Warm pass: run an identical request to completion.
        stepper.admit(&mut e, 0.0, &req).expect("admits");
        while stepper.is_busy() {
            stepper.step(&mut e).expect("steps");
        }
        // Measured pass: same phase keys throughout. Step past the trace
        // recorder's growth phase, then budget a window of mid-flight
        // iterations.
        stepper
            .admit(&mut e, stepper.clock_s(), &req)
            .expect("admits");
        for _ in 0..20 {
            let out = stepper.step(&mut e).expect("steps");
            assert!(out.retired.is_empty(), "warm-up must stay mid-flight");
        }
        let before = crate::alloc_counter::thread_allocs();
        for _ in 0..10 {
            let out = stepper.step(&mut e).expect("steps");
            assert!(out.retired.is_empty(), "window must stay mid-flight");
        }
        assert_eq!(
            crate::alloc_counter::thread_allocs() - before,
            0,
            "a warm decode step must not allocate"
        );
        while stepper.is_busy() {
            stepper.step(&mut e).expect("steps");
        }
    }

    /// Many simultaneous cancellations stay linear: each `cancel` is one
    /// stable compaction pass per list, and the stepper's state is fully
    /// reclaimed afterwards (the mass-failure recovery path).
    #[test]
    fn mass_cancellation_reclaims_everything() {
        let mut e = engine(29);
        let mut stepper =
            BatchStepper::new(&e, ModelId::Dsr1Qwen1_5b, Precision::Fp16).expect("fits");
        let cap = stepper.kv_free_tokens();
        let mut ids = Vec::new();
        for i in 0..24 {
            let adm = stepper
                .admit(
                    &mut e,
                    i as f64 * 0.1,
                    &GenerationRequest::new(64, 256).with_batch(2),
                )
                .expect("admits");
            ids.push(adm.id);
        }
        let _ = stepper.step(&mut e).expect("steps");
        // Cancel every slot back to front (worst case for shift-based
        // removal: every removal used to slide the whole tail).
        let mut energy = 0.0;
        for &id in ids.iter().rev() {
            energy += stepper.cancel(id).expect("slot is live");
        }
        assert!(energy > 0.0);
        assert!(!stepper.is_busy(), "all slots cancelled");
        assert_eq!(stepper.live_queries(), 0);
        assert_eq!(
            stepper.kv_free_tokens(),
            cap,
            "mass cancellation must not leak KV"
        );
        // The stepper stays serviceable: a fresh admission runs to
        // completion on the recycled state.
        let adm = stepper
            .admit(&mut e, 100.0, &GenerationRequest::new(64, 96))
            .expect("admits");
        let mut retired = Vec::new();
        while stepper.is_busy() {
            retired.extend(stepper.step(&mut e).expect("steps").retired);
        }
        assert_eq!(retired.len(), 1);
        assert_eq!(retired[0].id, adm.id);
        assert_eq!(stepper.kv_free_tokens(), cap);
    }

    #[test]
    fn interleaved_admissions_complete_and_conserve_kv() {
        let mut e = engine(5);
        let mut stepper =
            BatchStepper::new(&e, ModelId::Dsr1Qwen1_5b, Precision::Fp16).expect("fits");
        let a = stepper
            .admit(&mut e, 0.0, &GenerationRequest::new(128, 192).with_batch(2))
            .expect("admits");
        // Admit a second request mid-flight, after one iteration.
        let _ = stepper.step(&mut e).expect("steps");
        let b = stepper
            .admit(
                &mut e,
                stepper.clock_s(),
                &GenerationRequest::new(64, 96).with_batch(2),
            )
            .expect("admits");
        let mut done = Vec::new();
        while stepper.is_busy() {
            let out = stepper.step(&mut e).expect("steps");
            done.extend(out.retired);
        }
        assert_eq!(done.len(), 2);
        let ra = done.iter().find(|f| f.id == a.id).expect("a retires");
        let rb = done.iter().find(|f| f.id == b.id).expect("b retires");
        assert_eq!(ra.outcome.generated_tokens, 192);
        assert_eq!(rb.outcome.generated_tokens, 96);
        // The later, shorter request finished while sharing iterations, so
        // both sides carry wait attribution.
        assert!(ra.extra_wait_s > 0.0 || rb.extra_wait_s > 0.0);
        assert_eq!(stepper.kv_free_tokens(), stepper.kv_capacity_tokens());
    }

    /// An engine whose KV budget holds `kv_tokens` tokens beyond weights.
    fn pressured(policy: OomPolicy, kv_tokens: u64) -> InferenceEngine {
        let mut config = EngineConfig::vllm().with_oom_policy(policy);
        let arch = ModelId::Dsr1Qwen1_5b.arch();
        let budget = arch.weight_bytes(Precision::Fp16) + kv_tokens * arch.kv_bytes_per_token();
        config.memory_budget_frac = budget as f64 / config.soc.gpu.dram_capacity as f64;
        InferenceEngine::new(config, 3)
    }

    #[test]
    fn preemption_under_pressure_completes_every_sequence() {
        let req = GenerationRequest::new(128, 128).with_batch(8);
        let mut e = pressured(OomPolicy::PreemptRecompute, 1600);
        let mut stepper =
            BatchStepper::new(&e, ModelId::Dsr1Qwen1_5b, Precision::Fp16).expect("fits");
        stepper.admit(&mut e, 0.0, &req).expect("admits");
        let mut done = Vec::new();
        while stepper.is_busy() {
            let out = stepper.step(&mut e).expect("steps");
            done.extend(out.retired);
        }
        let f = done.first().expect("retires");
        assert_eq!(f.outcome.batch, 8);
        assert_eq!(f.outcome.generated_tokens, 128);
        assert!(f.outcome.preemptions > 0, "pressure must preempt");
        assert!(f.outcome.recomputed_tokens > 0);
        assert_eq!(stepper.kv_free_tokens(), stepper.kv_capacity_tokens());
    }

    /// Cancelling a slot drops its waiting groups with it: a later
    /// admission that reuses the slab index must not inherit them.
    #[test]
    fn cancel_drops_waiting_groups_before_the_index_is_reused() {
        let long = GenerationRequest::new(128, 512).with_batch(8);
        let mut e = pressured(OomPolicy::PreemptRecompute, 1600);
        let mut stepper =
            BatchStepper::new(&e, ModelId::Dsr1Qwen1_5b, Precision::Fp16).expect("fits");
        let a = stepper.admit(&mut e, 0.0, &long).expect("admits");
        for _ in 0..3 {
            stepper.step(&mut e).expect("steps");
        }
        assert_eq!(stepper.waiting.len(), 3, "pressure must queue A's tail");
        stepper
            .admit(&mut e, stepper.clock_s(), &GenerationRequest::new(128, 256))
            .expect("admits");
        stepper.cancel(a.id).expect("A is live");
        let c = stepper
            .admit(&mut e, stepper.clock_s(), &long)
            .expect("admits");
        assert!(
            stepper.slots[0].as_ref().is_some_and(|s| s.id == c.id),
            "C reuses A's slab index"
        );
        let mut done = Vec::new();
        for _ in 0..1_000 {
            if !stepper.is_busy() {
                break;
            }
            done.extend(stepper.step(&mut e).expect("steps").retired);
        }
        assert!(!stepper.is_busy(), "drains within the step bound");
        let fc = done.iter().find(|f| f.id == c.id).expect("C retires");
        assert_eq!(fc.outcome.batch, 8);
        assert_eq!(fc.outcome.generated_tokens, 512);
        assert_eq!(stepper.kv_free_tokens(), stepper.kv_capacity_tokens());
    }

    #[test]
    fn failfast_admission_reserves_outstanding_growth() {
        let mut e = pressured(OomPolicy::FailFast, 1600);
        let mut stepper =
            BatchStepper::new(&e, ModelId::Dsr1Qwen1_5b, Precision::Fp16).expect("fits");
        // 4 x 256 tokens = 1024 KV tokens reserved of ~1600.
        stepper
            .admit(&mut e, 0.0, &GenerationRequest::new(128, 128).with_batch(4))
            .expect("fits");
        // Another 4 sequences would need 1024 more: must be refused even
        // though the *current* allocation (prompt only) still fits.
        let err = stepper
            .admit(&mut e, 0.0, &GenerationRequest::new(128, 128).with_batch(4))
            .unwrap_err();
        assert!(matches!(err, EngineError::OutOfMemory { .. }), "{err}");
        // A single extra sequence (256 tokens) still fits.
        stepper
            .admit(&mut e, 0.0, &GenerationRequest::new(128, 128))
            .expect("fits");
        while stepper.is_busy() {
            stepper.step(&mut e).expect("steps");
        }
        assert_eq!(stepper.kv_free_tokens(), stepper.kv_capacity_tokens());
    }
}
