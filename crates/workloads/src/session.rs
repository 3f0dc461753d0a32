//! Session-aware request traces: multi-turn agent loops over shared
//! prompt templates.
//!
//! The benchmark suites in this crate model *single-shot* questions. Real
//! edge deployments of reasoning agents (ailoy-style tool loops, chat
//! assistants) look different in exactly the ways that matter for KV
//! reuse:
//!
//! * **Sessions** — a user opens a session and issues several turns; each
//!   turn's prompt is the previous turn's full context (template + every
//!   earlier user message and model reply) plus the new user message, so
//!   turn *t−1*'s context is a strict prefix of turn *t*'s prompt.
//! * **Templates** — sessions draw their system prompt from a small pool
//!   of long templates (tool schemas, few-shot exemplars), shared across
//!   *all* concurrent sessions.
//! * **Think time** — turns within a session are separated by lognormal
//!   pauses (the user reads the reply, the agent executes a tool).
//!
//! [`SessionGen`] emits such a trace lazily in global arrival order with
//! memory proportional to the number of *concurrent* sessions, not the
//! trace length — a 10^6-turn study never materializes the trace: live
//! sessions sit in a slab whose finished slots are reused. Each
//! [`SessionTurn`] carries a block-granular prefix signature compatible
//! with the engine's radix prefix cache: one `u64` per full KV block,
//! template-owned blocks hashed from the template identity (shared across
//! sessions) and history blocks from the session identity (shared across
//! that session's turns only). Block `j` of template `t` is
//! `stable_hash(&[0, t, j])`, and history block `j` of session `s` under
//! trace seed `seed` is `stable_hash(&[1, seed, s, j])`.
//!
//! A live session keeps its shared-context signature and extends it by
//! each turn's new full blocks only, so a turn hashes O(new blocks), not
//! O(context): template blocks are hashed once, when the session opens,
//! history blocks hash from a cached `[1, seed, session]` hasher state,
//! and the blocks of a turn's fresh user message are never hashed (they
//! are private to that turn until the reply joins the context).
//!
//! # Example
//!
//! ```
//! use edgereasoning_workloads::session::SessionMixConfig;
//!
//! let cfg = SessionMixConfig::template_heavy(0.5, 200, 42);
//! let turns: Vec<_> = cfg.generate().collect();
//! assert!(turns.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
//! // Later turns of one session extend earlier ones' signatures.
//! let s0: Vec<_> = turns.iter().filter(|t| t.session == 0).collect();
//! assert!(s0.windows(2).all(|w| w[1].prefix.starts_with(&w[0].prefix)));
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use edgereasoning_soc::rng::StableHasher;
use edgereasoning_soc::{item_seed, Rng};

/// One request of a session trace: a turn of some session, with its
/// arrival instant, prompt/output shape, and block-granular prefix
/// signature for the engine's radix KV cache.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionTurn {
    /// Absolute arrival time, seconds (globally sorted across sessions).
    pub arrival_s: f64,
    /// Session index (0-based, in session-start order).
    pub session: usize,
    /// Turn index within the session (0-based).
    pub turn: usize,
    /// Prompt length in tokens: template + conversation history + the new
    /// user message.
    pub prompt_tokens: usize,
    /// Output budget in tokens.
    pub output_tokens: usize,
    /// Identities of the prompt's full KV blocks (template blocks shared
    /// across sessions, history blocks shared across the session's turns).
    pub prefix: Vec<u64>,
}

/// Shape of a session/template mix, modeled on agent reasoning loops:
/// Poisson session starts, geometric-ish turn counts, lognormal think
/// time, and a template pool shared across sessions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionMixConfig {
    /// New-session arrival rate, sessions per second.
    pub session_qps: f64,
    /// Number of sessions in the trace.
    pub sessions: usize,
    /// Minimum turns per session (inclusive).
    pub min_turns: usize,
    /// Maximum turns per session (inclusive).
    pub max_turns: usize,
    /// Mean think time between a reply and the next turn, seconds.
    pub think_mean_s: f64,
    /// Think-time standard deviation, seconds (lognormal-shaped).
    pub think_std_s: f64,
    /// Size of the shared template pool.
    pub templates: usize,
    /// Template length, tokens (system prompt + tool schemas + few-shot).
    pub template_tokens: usize,
    /// Minimum new-user-message length per turn, tokens (inclusive).
    pub min_user_tokens: usize,
    /// Maximum new-user-message length per turn, tokens (inclusive).
    pub max_user_tokens: usize,
    /// Minimum reply length per turn, tokens (inclusive).
    pub min_output_tokens: usize,
    /// Maximum reply length per turn, tokens (inclusive).
    pub max_output_tokens: usize,
    /// KV block size the prefix signature is aligned to; must match the
    /// serving engine's `kv_block_tokens` for signatures to be reusable.
    pub block_tokens: usize,
    /// Trace seed; same seed, same trace.
    pub seed: u64,
}

impl SessionMixConfig {
    /// A template-heavy mix: many short sessions (1–2 turns) over a tiny
    /// pool of long templates — the regime where cross-*user* reuse
    /// dominates (fleet assistants, form-filling agents).
    #[must_use]
    pub fn template_heavy(session_qps: f64, sessions: usize, seed: u64) -> Self {
        Self {
            session_qps,
            sessions,
            min_turns: 1,
            max_turns: 2,
            think_mean_s: 20.0,
            think_std_s: 15.0,
            templates: 4,
            template_tokens: 3072,
            min_user_tokens: 24,
            max_user_tokens: 72,
            min_output_tokens: 24,
            max_output_tokens: 72,
            block_tokens: 16,
            seed,
        }
    }

    /// A session-heavy mix: long multi-turn conversations with growing
    /// contexts over a wider template pool — the regime where
    /// within-*session* reuse dominates (agent reasoning loops).
    #[must_use]
    pub fn session_heavy(session_qps: f64, sessions: usize, seed: u64) -> Self {
        Self {
            session_qps,
            sessions,
            min_turns: 4,
            max_turns: 10,
            think_mean_s: 12.0,
            think_std_s: 8.0,
            templates: 32,
            template_tokens: 512,
            min_user_tokens: 24,
            max_user_tokens: 96,
            min_output_tokens: 64,
            max_output_tokens: 256,
            block_tokens: 16,
            seed,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// A description of the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.session_qps.is_nan() || self.session_qps <= 0.0 {
            return Err("session_qps must be positive".into());
        }
        if self.sessions == 0 {
            return Err("sessions must be at least 1".into());
        }
        if self.min_turns == 0 || self.min_turns > self.max_turns {
            return Err("need 1 <= min_turns <= max_turns".into());
        }
        if self.templates == 0 {
            return Err("templates must be at least 1".into());
        }
        if self.min_user_tokens == 0 || self.min_user_tokens > self.max_user_tokens {
            return Err("need 1 <= min_user_tokens <= max_user_tokens".into());
        }
        if self.min_output_tokens == 0 || self.min_output_tokens > self.max_output_tokens {
            return Err("need 1 <= min_output_tokens <= max_output_tokens".into());
        }
        if self.block_tokens == 0 {
            return Err("block_tokens must be positive".into());
        }
        if self.think_mean_s.is_nan() || self.think_mean_s <= 0.0 || self.think_std_s < 0.0 {
            return Err("think time must be positive".into());
        }
        Ok(())
    }

    /// Builds the lazy, arrival-sorted turn generator.
    ///
    /// # Panics
    ///
    /// When the configuration is invalid (see [`Self::validate`]).
    #[must_use]
    pub fn generate(&self) -> SessionGen {
        assert!(self.validate().is_ok(), "invalid SessionMixConfig");
        SessionGen::new(*self)
    }

    /// Expected number of turns in the trace (mean of the uniform turn
    /// count times the session count) — sizing hint for studies.
    #[must_use]
    pub fn expected_turns(&self) -> f64 {
        self.sessions as f64 * (self.min_turns + self.max_turns) as f64 / 2.0
    }
}

/// Per-session live state while the generator is between its turns.
#[derive(Debug, Clone)]
struct LiveSession {
    rng: Rng,
    turns_left: usize,
    next_turn: usize,
    /// Tokens of context accumulated so far (template + history).
    context_tokens: usize,
    /// Hasher state after `[1, seed, session]`: history block `j` is this
    /// state extended by `j`.
    history: StableHasher,
    /// Signature of the context's full blocks so far. It only grows while
    /// the session lives, and its buffer passes to the next session that
    /// takes this slab slot.
    prefix: Vec<u64>,
}

/// A pending emission, ordered by arrival. Ties break on session index so
/// the order is total and seed-stable (f64 bits are a valid total order
/// here because all arrivals are finite and non-negative). `slot` is the
/// session's slab index; it comes after `session`, which is unique among
/// pending entries, so it never decides the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pending {
    arrival_bits: u64,
    session: usize,
    slot: usize,
}

/// Lazy generator of globally arrival-sorted [`SessionTurn`]s.
///
/// Session starts are a Poisson process; each session is an independent
/// RNG stream (seeded via [`item_seed`]) so the trace is insensitive to
/// interleaving. Memory is `O(concurrent sessions)`: a binary heap of
/// next-turn events plus a slab of live records, one per unfinished
/// session, whose finished slots are reused.
#[derive(Debug, Clone)]
pub struct SessionGen {
    cfg: SessionMixConfig,
    starts: Rng,
    next_start_s: f64,
    started: usize,
    heap: BinaryHeap<Reverse<Pending>>,
    live: Vec<LiveSession>,
    /// Slab indices of finished sessions, reused before `live` grows.
    free: Vec<usize>,
}

impl SessionGen {
    fn new(cfg: SessionMixConfig) -> Self {
        let mut starts = Rng::seed_from_u64(cfg.seed ^ 0x5e55_10f5);
        let first = Self::exp_gap(&mut starts, cfg.session_qps);
        Self {
            cfg,
            starts,
            next_start_s: first,
            started: 0,
            heap: BinaryHeap::new(),
            live: Vec::new(),
            free: Vec::new(),
        }
    }

    fn exp_gap(rng: &mut Rng, qps: f64) -> f64 {
        -rng.next_f64().max(1e-12).ln() / qps
    }

    /// Spawns session `started` at `next_start_s` and schedules its first
    /// turn (arriving at the session start — the user opens with a
    /// message).
    fn spawn_next_session(&mut self) {
        let idx = self.started;
        let mut rng = Rng::seed_from_u64(item_seed(self.cfg.seed, idx as u64));
        let template = rng.range_usize(self.cfg.templates);
        let turns =
            self.cfg.min_turns + rng.range_usize(self.cfg.max_turns - self.cfg.min_turns + 1);
        // Reuse a finished session's slab slot, and its signature buffer,
        // when one is free.
        let (slot, mut prefix) = match self.free.pop() {
            Some(slot) => (slot, std::mem::take(&mut self.live[slot].prefix)),
            None => (self.live.len(), Vec::new()),
        };
        // The template's full blocks, hashed once for the whole session.
        let tmpl = StableHasher::new().with(0).with(template as u64);
        let template_blocks = self.cfg.template_tokens / self.cfg.block_tokens;
        prefix.clear();
        prefix.extend((0..template_blocks).map(|j| tmpl.with(j as u64).finish()));
        let session = LiveSession {
            rng,
            turns_left: turns,
            next_turn: 0,
            context_tokens: self.cfg.template_tokens,
            history: StableHasher::new()
                .with(1)
                .with(self.cfg.seed)
                .with(idx as u64),
            prefix,
        };
        if slot == self.live.len() {
            self.live.push(session);
        } else {
            self.live[slot] = session;
        }
        self.heap.push(Reverse(Pending {
            arrival_bits: self.next_start_s.to_bits(),
            session: idx,
            slot,
        }));
        self.started += 1;
        self.next_start_s += Self::exp_gap(&mut self.starts, self.cfg.session_qps);
    }
}

impl Iterator for SessionGen {
    type Item = SessionTurn;

    fn next(&mut self) -> Option<Self::Item> {
        // Keep spawning sessions until the earliest pending turn precedes
        // the next session start — then the heap top is globally next.
        loop {
            let top = self
                .heap
                .peek()
                .map(|Reverse(p)| f64::from_bits(p.arrival_bits));
            let more_starts = self.started < self.cfg.sessions;
            match top {
                Some(t) if !(more_starts && self.next_start_s < t) => break,
                Some(_) | None if more_starts => self.spawn_next_session(),
                Some(_) => break,
                None => return None,
            }
        }
        let Reverse(pending) = self.heap.pop()?;
        let arrival_s = f64::from_bits(pending.arrival_bits);
        let slot = self.live.get_mut(pending.slot)?;
        let user = slot
            .rng
            .range_usize(self.cfg.max_user_tokens - self.cfg.min_user_tokens + 1)
            + self.cfg.min_user_tokens;
        let output = slot
            .rng
            .range_usize(self.cfg.max_output_tokens - self.cfg.min_output_tokens + 1)
            + self.cfg.min_output_tokens;
        let shared_context = slot.context_tokens;
        let prompt_tokens = shared_context + user;
        let turn = slot.next_turn;
        // The signature covers only the *shared* context (template +
        // history): extend it by the blocks the previous reply completed.
        // The fresh user message is private to this turn.
        let history = slot.history;
        let shared_blocks = shared_context / self.cfg.block_tokens;
        let known = slot.prefix.len();
        slot.prefix
            .extend((known..shared_blocks).map(|j| history.with(j as u64).finish()));
        let prefix = slot.prefix.clone();
        slot.next_turn += 1;
        slot.turns_left -= 1;
        if slot.turns_left == 0 {
            self.free.push(pending.slot);
        } else {
            // The reply joins the context; the next turn arrives after a
            // think-time pause following the (approximate) reply instant.
            slot.context_tokens = prompt_tokens + output;
            let think = slot
                .rng
                .lognormal_mean_std(self.cfg.think_mean_s, self.cfg.think_std_s);
            self.heap.push(Reverse(Pending {
                arrival_bits: (arrival_s + think).to_bits(),
                session: pending.session,
                slot: pending.slot,
            }));
        }
        Some(SessionTurn {
            arrival_s,
            session: pending.session,
            turn,
            prompt_tokens,
            output_tokens: output,
            prefix,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgereasoning_soc::rng::stable_hash;

    #[test]
    fn traces_are_sorted_and_deterministic() {
        let cfg = SessionMixConfig::session_heavy(1.0, 50, 7);
        let a: Vec<_> = cfg.generate().collect();
        let b: Vec<_> = cfg.generate().collect();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival_s <= w[1].arrival_s));
        assert!(a.len() >= 50 * cfg.min_turns && a.len() <= 50 * cfg.max_turns);
    }

    #[test]
    fn later_turns_extend_earlier_signatures() {
        let cfg = SessionMixConfig::session_heavy(2.0, 20, 11);
        let turns: Vec<_> = cfg.generate().collect();
        for s in 0..20 {
            let mine: Vec<_> = turns.iter().filter(|t| t.session == s).collect();
            assert!(!mine.is_empty());
            for w in mine.windows(2) {
                assert_eq!(w[1].turn, w[0].turn + 1);
                assert!(w[1].prefix.starts_with(&w[0].prefix), "history must nest");
                assert!(w[1].prompt_tokens > w[0].prompt_tokens, "contexts grow");
            }
        }
    }

    #[test]
    fn template_blocks_are_shared_across_sessions() {
        let cfg = SessionMixConfig::template_heavy(1.0, 40, 3);
        let turns: Vec<_> = cfg.generate().collect();
        let tb = cfg.template_tokens / cfg.block_tokens;
        // Two sessions on the same template share its block signatures.
        let mut by_first_block: Vec<(u64, usize)> = Vec::new();
        for t in &turns {
            assert!(t.prefix.len() >= tb, "turn signature covers the template");
            by_first_block.push((t.prefix[0], t.session));
        }
        let distinct: std::collections::BTreeSet<u64> =
            by_first_block.iter().map(|&(sig, _)| sig).collect();
        assert!(
            distinct.len() <= cfg.templates,
            "at most one first-block signature per template"
        );
        // History blocks never collide across sessions.
        let mut history: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
        for t in &turns {
            for &sig in t.prefix.iter().skip(tb) {
                let owner = history.entry(sig).or_insert(t.session);
                assert_eq!(*owner, t.session, "history blocks are session-private");
            }
        }
    }

    /// Every turn's signature equals the from-scratch formula of the
    /// module docs, block by block, including a template that ends inside
    /// a block (that block is history: session-private).
    #[test]
    fn signatures_match_the_from_scratch_formula() {
        let mut ragged = SessionMixConfig::session_heavy(0.5, 60, 5);
        ragged.template_tokens = 200;
        for cfg in [
            SessionMixConfig::template_heavy(0.5, 120, 9),
            SessionMixConfig::session_heavy(0.5, 60, 13),
            ragged,
        ] {
            let template_blocks = cfg.template_tokens / cfg.block_tokens;
            // A turn shares the template plus every earlier prompt and reply.
            let mut shared_tokens = vec![cfg.template_tokens; cfg.sessions];
            let mut turns = 0;
            for t in cfg.generate() {
                // The session's template is its RNG stream's first draw.
                let template = Rng::seed_from_u64(item_seed(cfg.seed, t.session as u64))
                    .range_usize(cfg.templates);
                assert_eq!(t.prefix.len(), shared_tokens[t.session] / cfg.block_tokens);
                for (j, &sig) in t.prefix.iter().enumerate() {
                    let want = if j < template_blocks {
                        stable_hash(&[0, template as u64, j as u64])
                    } else {
                        stable_hash(&[1, cfg.seed, t.session as u64, j as u64])
                    };
                    assert_eq!(sig, want, "session {} turn {} block {j}", t.session, t.turn);
                }
                shared_tokens[t.session] = t.prompt_tokens + t.output_tokens;
                turns += 1;
            }
            assert!(turns > 0);
        }
    }

    /// The live-session slab never outgrows the trace's peak concurrency,
    /// however many sessions the trace holds.
    #[test]
    fn live_sessions_are_bounded_by_peak_concurrency() {
        let cfg = SessionMixConfig::template_heavy(0.45, 4_000, 17);
        let mut gen = cfg.generate();
        let turns: Vec<_> = gen.by_ref().collect();
        let mut last = vec![0usize; cfg.sessions];
        for (i, t) in turns.iter().enumerate() {
            last[t.session] = i;
        }
        // Sessions open at their first turn and close at their last one.
        let mut open = 0usize;
        let mut peak = 0usize;
        for (i, t) in turns.iter().enumerate() {
            if t.turn == 0 {
                open += 1;
            }
            peak = peak.max(open);
            if last[t.session] == i {
                open -= 1;
            }
        }
        assert!(peak < 64, "the preset is sparse: peak {peak}");
        assert!(
            gen.live.len() <= peak,
            "slab {} exceeds peak concurrency {peak}",
            gen.live.len()
        );
        assert_eq!(
            gen.free.len(),
            gen.live.len(),
            "every slot is free at the end"
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = SessionMixConfig::template_heavy(1.0, 10, 0);
        cfg.min_turns = 0;
        assert!(cfg.validate().is_err());
        cfg = SessionMixConfig::template_heavy(1.0, 10, 0);
        cfg.block_tokens = 0;
        assert!(cfg.validate().is_err());
        cfg = SessionMixConfig::session_heavy(0.0, 10, 0);
        assert!(cfg.validate().is_err());
    }
}
