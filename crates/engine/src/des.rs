//! Discrete-event serving core: event queue, query arena, pending queue.
//!
//! The pre-PR6 scheduler loops kept *every* query of the run — future
//! arrivals included — in one `Vec<usize>` and re-scanned it at every
//! scheduling boundary (idle jump, deadline pass, capacity pass,
//! admission), making each boundary O(total queries) and the whole run
//! quadratic. This module is the shared replacement spine used by
//! `serving` and `cluster`:
//!
//! * [`EventQueue`] — a binary-heap priority queue over simulated time
//!   with a deterministic FIFO tie-break (insertion sequence), used for
//!   retry-backoff wakeups; arrival and replica-decision instants are
//!   tracked by their owners and folded in at [`PendingQueue::min_ready`].
//! * [`QueryArena`] — a generational slot map holding only queries that
//!   currently exist (backlogged or in flight). Keys ([`QKey`]) carry a
//!   generation so a stale handle can never alias a recycled slot.
//! * [`PendingQueue`] — lazy arrivals (drawn one at a time from its
//!   [`Source`]) feeding one seq-ordered ready *lane* per priority class
//!   (untagged traffic uses the Interactive lane only) plus a small
//!   deferred set for retry backoff. The default source, [`Uniform`],
//!   draws a fixed number of arrivals of the config's one request shape
//!   from an [`ArrivalGen`]; a [`Trace`] replays arrival-sorted
//!   own-shape requests, whose payloads the queue keeps beside their
//!   arena slots. The source type also selects the scheduler's admission
//!   rules at compile time, so the uniform path monomorphizes to code with
//!   no own-shape branches. Every operation the legacy loops performed by
//!   scanning all n queries is answered here in O(log n) or O(affected
//!   entries):
//!   - earliest-ready instant: lane fronts + wakeup-heap peek + one
//!     peeked arrival;
//!   - deadline shed: arrivals are monotone in seq, so expired queries
//!     form a *prefix* of every lane (lane heads popped in seq-merged
//!     order, not scanned) plus a scan of the small deferred set;
//!   - queue aging: a class's target is fixed, so its aged queries are a
//!     prefix of its lane, popped the same way;
//!   - capacity shed: the newest waiting queries are a suffix of the
//!     seq-ordered union, removed from the backs of the lanes and the
//!     deferred set in seq-merged order;
//!   - FIFO admission: a seq-order merge walk of the lanes and the
//!     deferred set;
//!   - priority admission ([`PendingQueue::walk_class`]): one class at a
//!     time, its lane merged with its deferred retries. The slack guard's
//!     hopeless queries (`now + est > arrival + deadline`) are again a
//!     prefix, so the walk stops at the first query it can neither shed
//!     nor admit — O(admitted + shed + deferred) per dispatch, whatever
//!     the backlog.
//!
//! The decision sequence is bit-identical to the legacy scans: lanes and
//! deferred set are kept in seq (arrival) order, and every merge pops in
//! global seq order, which is exactly the order the legacy `pending`
//! vector maintained; readiness filters use the same `ready_s <= now`
//! comparisons (the wall clock can step *backwards* by a sub-jitter
//! amount when a drained stepper snaps to a completion instant; the
//! filters make that harmless, as in the legacy loops). Sheds release
//! arena slots in the same order too, so recycled keys match.

use std::collections::{BinaryHeap, VecDeque};

use crate::arrivals::{ArrivalGen, ArrivalProcess};
use crate::serving::{Priority, PriorityMix};
use crate::session::SessionRequest;
use crate::telemetry::ServingAccumulator;

/// Where a [`PendingQueue`]'s arrivals come from. The source type selects
/// the scheduler's admission rules at compile time: a uniform stream
/// shares the config's request shape and admits in groups, while
/// own-shape requests admit one per boundary with their own prompt,
/// output and prefix (see `cluster::run_fleet`).
pub(crate) trait Source {
    /// What the queue keeps beside each arrival's arena slot.
    type Payload;
    /// Whether each payload carries its own request shape.
    const OWN_SHAPE: bool = false;
    /// The next arrival instant and its payload; `None` once dry.
    fn draw(&mut self) -> Option<(f64, Self::Payload)>;
    /// The own-shape request a payload carries.
    fn request(_: &Self::Payload) -> Option<&SessionRequest> {
        None
    }
}

/// The default source: `remaining` uniform arrivals drawn from an
/// [`ArrivalGen`].
#[derive(Debug, Clone)]
pub(crate) struct Uniform {
    gen: ArrivalGen,
    remaining: usize,
}

impl Source for Uniform {
    type Payload = ();
    fn draw(&mut self) -> Option<(f64, ())> {
        self.remaining = self.remaining.checked_sub(1)?;
        Some((self.gen.next_arrival(), ()))
    }
}

/// An arrival-sorted trace of own-shape requests; `None` ends it.
pub(crate) struct Trace<F>(pub(crate) F);

impl<F: FnMut() -> Option<SessionRequest>> Source for Trace<F> {
    type Payload = SessionRequest;
    const OWN_SHAPE: bool = true;
    fn draw(&mut self) -> Option<(f64, SessionRequest)> {
        (self.0)().map(|q| (q.arrival_s, q))
    }
    fn request(q: &SessionRequest) -> Option<&SessionRequest> {
        Some(q)
    }
}

/// Per-priority-class conservation counters, indexed by
/// [`Priority::index`]. The pending queue is the single point every query
/// passes through (tagged at arrival, removed exactly once by shed, drop
/// or release), so it owns the offered/shed/failed ledger; completions are
/// counted by the scheduler loops at retirement.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ClassCounters {
    /// Queries tagged per class (incremented at arrival materialization).
    pub(crate) offered: [usize; 3],
    /// Queries shed per class (deadline, capacity, aging, slack guard).
    pub(crate) shed: [usize; 3],
    /// Queries dropped per class after exhausting retries.
    pub(crate) failed: [usize; 3],
}

/// One scheduled event: a payload due at a simulated instant.
#[derive(Debug, Clone, Copy)]
struct Event<T> {
    time: f64,
    /// Insertion sequence: FIFO tie-break for equal times, so heap order
    /// is deterministic even with bit-equal floats.
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Event<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time.to_bits() == other.time.to_bits() && self.seq == other.seq
    }
}
impl<T> Eq for Event<T> {}

impl<T> PartialOrd for Event<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Event<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

/// A deterministic min-heap of timed events (earliest first, FIFO on
/// ties). Popping order depends only on the sequence of pushes, never on
/// allocation or hash state.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventQueue<T> {
    heap: BinaryHeap<Event<T>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time`.
    pub(crate) fn push(&mut self, time: f64, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, payload });
    }

    /// Earliest event, if any.
    pub(crate) fn peek(&self) -> Option<(f64, &T)> {
        self.heap.peek().map(|e| (e.time, &e.payload))
    }

    /// Removes and returns the earliest event.
    pub(crate) fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    /// Number of scheduled events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Generational handle into a [`QueryArena`] slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct QKey {
    idx: u32,
    gen: u32,
}

/// Where a pending query currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueryPhase {
    /// In its class's ready lane (`ready_s == arrival_s`).
    Ready,
    /// In the deferred set awaiting a retry-backoff instant.
    Deferred,
    /// Admitted into an engine; owned by a live scheduler slot.
    InFlight,
}

/// Scheduling state of one query that currently exists.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QuerySlot {
    /// Arrival order (0-based); the legacy query index.
    pub(crate) seq: u64,
    /// Arrival instant, seconds.
    pub(crate) arrival_s: f64,
    /// Earliest admissible instant (arrival, or retry-backoff expiry).
    pub(crate) ready_s: f64,
    /// Failed-admission attempts so far.
    pub(crate) attempts: u32,
    /// Whether a device crash ever voided this query's in-flight work
    /// (cluster failover bookkeeping; cleared when the query completes).
    pub(crate) crashed: bool,
    /// Priority class (Interactive unless a tagger is configured).
    pub(crate) class: Priority,
    phase: QueryPhase,
}

#[derive(Debug, Clone)]
struct ArenaEntry {
    gen: u32,
    slot: Option<QuerySlot>,
}

/// A generational slot-map arena of live queries: O(1) alloc/free with
/// index reuse, sized by the *backlog* (pending + in flight), never by
/// the total trace length.
#[derive(Debug, Clone, Default)]
pub(crate) struct QueryArena {
    entries: Vec<ArenaEntry>,
    free: Vec<u32>,
    live: usize,
}

impl QueryArena {
    fn alloc(&mut self, slot: QuerySlot) -> QKey {
        self.live += 1;
        if let Some(idx) = self.free.pop() {
            let e = &mut self.entries[idx as usize];
            e.slot = Some(slot);
            QKey { idx, gen: e.gen }
        } else {
            let idx = self.entries.len() as u32;
            self.entries.push(ArenaEntry {
                gen: 0,
                slot: Some(slot),
            });
            QKey { idx, gen: 0 }
        }
    }

    fn release(&mut self, k: QKey) {
        if let Some(e) = self.entries.get_mut(k.idx as usize) {
            if e.gen == k.gen && e.slot.is_some() {
                e.slot = None;
                e.gen = e.gen.wrapping_add(1);
                self.free.push(k.idx);
                self.live -= 1;
            }
        }
    }

    /// The slot behind `k`, or `None` if the key is stale.
    pub(crate) fn get(&self, k: QKey) -> Option<&QuerySlot> {
        self.entries
            .get(k.idx as usize)
            .filter(|e| e.gen == k.gen)
            .and_then(|e| e.slot.as_ref())
    }

    fn get_mut(&mut self, k: QKey) -> Option<&mut QuerySlot> {
        self.entries
            .get_mut(k.idx as usize)
            .filter(|e| e.gen == k.gen)
            .and_then(|e| e.slot.as_mut())
    }

    /// Number of live slots.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.live
    }
}

/// What [`PendingQueue::walk_class`] does with the query under its cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Visit {
    /// Shed it (counted in its class's ledger, slot released) and go on.
    Shed,
    /// Leave it queued — the caller admits it — and go on.
    Take,
    /// End the walk.
    Stop,
}

/// The lazy pending-query queue driving a scheduler loop; see module docs.
#[derive(Debug, Clone)]
pub(crate) struct PendingQueue<S: Source = Uniform> {
    arena: QueryArena,
    source: S,
    /// Whether the source has run dry.
    dry: bool,
    /// One drawn-but-future arrival (the lazy lookahead).
    peeked: Option<(f64, S::Payload)>,
    /// Each arena slot's payload, indexed like the arena's entries.
    payloads: Vec<S::Payload>,
    next_seq: u64,
    /// Arrived, never-deferred queries, one lane per class indexed by
    /// [`Priority::index`], each in seq order (`ready_s` monotone).
    lanes: [VecDeque<QKey>; 3],
    /// Retry-backoff queries of every class, kept sorted by seq; small in
    /// practice.
    deferred: Vec<QKey>,
    /// Retry wakeups (stale entries dropped lazily on peek).
    wakeups: EventQueue<QKey>,
    /// Recycled index scratch for [`shed_over_capacity`]
    /// (Self::shed_over_capacity), so capacity passes allocate nothing in
    /// steady state.
    defs_scratch: Vec<usize>,
    /// Priority tagger `(mix, class_seed)`: when set, each materialized
    /// arrival is tagged via [`PriorityMix::class_of`] (a pure hash of the
    /// seq — the arrival RNG stream is untouched).
    tagger: Option<(PriorityMix, u64)>,
    /// Per-class offered/shed/failed ledger (meaningful when tagging).
    counts: ClassCounters,
}

impl PendingQueue {
    /// A queue offering `total_queries` arrivals from `process` at mean
    /// rate `qps`, seeded like the legacy `poisson_arrivals`.
    pub(crate) fn new(process: ArrivalProcess, qps: f64, total_queries: usize, seed: u64) -> Self {
        Self::with_source(Uniform {
            gen: ArrivalGen::new(process, qps, seed),
            remaining: total_queries,
        })
    }
}

impl<S: Source> PendingQueue<S> {
    /// A queue offering whatever `source` draws.
    pub(crate) fn with_source(source: S) -> Self {
        Self {
            arena: QueryArena::default(),
            source,
            dry: false,
            peeked: None,
            payloads: Vec::new(),
            next_seq: 0,
            lanes: Default::default(),
            deferred: Vec::new(),
            wakeups: EventQueue::new(),
            defs_scratch: Vec::new(),
            tagger: None,
            counts: ClassCounters::default(),
        }
    }

    /// Enables priority tagging: every arrival materialized from now on is
    /// classed by `mix` under `class_seed`. Call before the first
    /// [`pump`](Self::pump) so the whole trace is tagged.
    pub(crate) fn set_tagger(&mut self, mix: PriorityMix, class_seed: u64) {
        self.tagger = Some((mix, class_seed));
    }

    /// Priority class of `k` (Interactive for a stale key — harmless, as
    /// the counters only move through live keys).
    pub(crate) fn class_of(&self, k: QKey) -> Priority {
        self.arena.get(k).map_or(Priority::Interactive, |s| s.class)
    }

    /// The per-class offered/shed/failed ledger.
    pub(crate) fn class_counts(&self) -> &ClassCounters {
        &self.counts
    }

    /// Counts `k` as shed in its class's ledger and releases its slot.
    fn note_shed(&mut self, k: QKey) {
        if let Some(s) = self.arena.get(k) {
            self.counts.shed[s.class.index()] += 1;
        }
        self.arena.release(k);
    }

    /// Counts `k` as failed in its class's ledger and releases its slot.
    fn note_failed(&mut self, k: QKey) {
        if let Some(s) = self.arena.get(k) {
            self.counts.failed[s.class.index()] += 1;
        }
        self.arena.release(k);
    }

    /// Arrival sequence number of `k` (`u64::MAX` for a stale key).
    fn seq_of(&self, k: QKey) -> u64 {
        self.arena.get(k).map_or(u64::MAX, |s| s.seq)
    }

    /// Whether every query has been admitted, shed or dropped (the legacy
    /// `pending.is_empty()`).
    pub(crate) fn is_exhausted(&self) -> bool {
        self.lanes.iter().all(VecDeque::is_empty)
            && self.deferred.is_empty()
            && self.dry
            && self.peeked.is_none()
    }

    /// Every request the source offers: those drawn so far plus whatever
    /// it still holds, which this drains — a stranded run's SLO counts
    /// them, as the uniform path counts every configured query.
    pub(crate) fn offered(&mut self) -> usize {
        let mut n = self.next_seq as usize + usize::from(self.peeked.is_some());
        while !self.dry && self.source.draw().is_some() {
            n += 1;
        }
        self.dry = true;
        n
    }

    /// The own-shape request behind `k` (`None` for a uniform source or a
    /// stale key).
    pub(crate) fn request(&self, k: QKey) -> Option<&SessionRequest> {
        self.arena.get(k)?;
        self.payloads.get(k.idx as usize).and_then(S::request)
    }

    /// Queries currently backlogged (ready + deferred), for diagnostics.
    #[cfg(test)]
    pub(crate) fn backlog(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum::<usize>() + self.deferred.len()
    }

    /// Every backlogged key — the lanes in class order, then the deferred
    /// set — for comparing two queues' remaining state.
    #[cfg(test)]
    pub(crate) fn backlog_keys(&self) -> Vec<QKey> {
        self.lanes
            .iter()
            .flatten()
            .chain(&self.deferred)
            .copied()
            .collect()
    }

    /// Arrival instant of `k` (NaN for a stale key, which would poison the
    /// report visibly — stale keys here are scheduler bugs).
    pub(crate) fn arrival_s(&self, k: QKey) -> f64 {
        self.arena.get(k).map_or(f64::NAN, |s| s.arrival_s)
    }

    /// Marks `k` as crash-voided (its in-flight work died with a device).
    pub(crate) fn mark_crashed(&mut self, k: QKey) {
        if let Some(s) = self.arena.get_mut(k) {
            s.crashed = true;
        }
    }

    /// Reads and clears the crash-voided flag (true exactly when a crash
    /// voided this query and it has now recovered elsewhere).
    pub(crate) fn take_crashed(&mut self, k: QKey) -> bool {
        self.arena.get_mut(k).is_some_and(|s| {
            let was = s.crashed;
            s.crashed = false;
            was
        })
    }

    fn draw_peek(&mut self) {
        if self.peeked.is_none() && !self.dry {
            self.peeked = self.source.draw();
            self.dry = self.peeked.is_none();
        }
    }

    /// Earliest instant at which any pending (or future) query becomes
    /// admissible — the legacy fold of `ready_s` over all of `pending`,
    /// plus the next undrawn arrival. `INFINITY` when exhausted.
    pub(crate) fn min_ready(&mut self) -> f64 {
        let mut m = f64::INFINITY;
        // A lane's front is its earliest entry; the oldest of the fronts
        // is the legacy queue's front.
        for lane in &self.lanes {
            if let Some(s) = lane.front().and_then(|&k| self.arena.get(k)) {
                m = m.min(s.ready_s);
            }
        }
        // Drop stale wakeups (freed, admitted, or re-deferred queries).
        while let Some((t, &k)) = self.wakeups.peek() {
            let valid = self.arena.get(k).is_some_and(|s| {
                s.phase == QueryPhase::Deferred && s.ready_s.to_bits() == t.to_bits()
            });
            if valid {
                m = m.min(t);
                break;
            }
            self.wakeups.pop();
        }
        self.draw_peek();
        if let Some((t, _)) = self.peeked {
            m = m.min(t);
        }
        m
    }

    /// Materializes every arrival at or before `now` into its class lane.
    pub(crate) fn pump(&mut self, now: f64) {
        loop {
            self.draw_peek();
            let Some((t, payload)) = self.peeked.take_if(|(t, _)| *t <= now) else {
                break;
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            let class = match self.tagger {
                Some((mix, seed)) => mix.class_of(seed, seq),
                None => Priority::Interactive,
            };
            self.counts.offered[class.index()] += 1;
            let k = self.arena.alloc(QuerySlot {
                seq,
                arrival_s: t,
                ready_s: t,
                attempts: 0,
                crashed: false,
                class,
                phase: QueryPhase::Ready,
            });
            match self.payloads.get_mut(k.idx as usize) {
                Some(p) => *p = payload,
                None => self.payloads.push(payload),
            }
            let lane = &mut self.lanes[class.index()];
            // The lane-prefix sheds rely on arrival-sorted lanes.
            debug_assert!(
                lane.back()
                    .is_none_or(|&b| self.arena.get(b).is_some_and(|s| s.arrival_s <= t)),
                "arrivals must be sorted"
            );
            lane.push_back(k);
        }
    }

    /// Pops, oldest first across the lanes, every lane head `doomed`
    /// condemns, shedding each; returns the count. Exact when `doomed`
    /// holds on a prefix of every lane — true of any test monotone in
    /// `arrival_s`, which is monotone in seq — because the oldest condemned
    /// head is then the next query a seq-order scan would shed.
    fn shed_lane_heads(&mut self, doomed: impl Fn(&QuerySlot) -> bool) -> usize {
        let mut n = 0;
        loop {
            let mut oldest: Option<(u64, usize)> = None;
            for (c, lane) in self.lanes.iter().enumerate() {
                let Some(s) = lane.front().and_then(|&k| self.arena.get(k)) else {
                    continue;
                };
                if doomed(s) && oldest.is_none_or(|(seq, _)| s.seq < seq) {
                    oldest = Some((s.seq, c));
                }
            }
            let Some((_, c)) = oldest else { return n };
            if let Some(k) = self.lanes[c].pop_front() {
                self.note_shed(k);
                n += 1;
            }
        }
    }

    /// Sheds every deferred query `doomed` condemns, in seq order.
    fn shed_deferred(&mut self, doomed: impl Fn(&QuerySlot) -> bool) -> usize {
        let mut n = 0;
        let mut i = 0;
        while i < self.deferred.len() {
            let k = self.deferred[i];
            if self.arena.get(k).is_some_and(&doomed) {
                self.deferred.remove(i);
                self.note_shed(k);
                n += 1;
            } else {
                i += 1;
            }
        }
        n
    }

    /// Sheds every pending query whose deadline has already passed
    /// (`now > arrival_s + deadline_s`), returning the shed count.
    /// Expired queries are a prefix of every lane (arrivals are monotone
    /// in seq) plus whatever the deferred scan finds.
    pub(crate) fn shed_expired(&mut self, now: f64, deadline_s: f64) -> usize {
        let expired = |s: &QuerySlot| now > s.arrival_s + deadline_s;
        self.shed_lane_heads(expired) + self.shed_deferred(expired)
    }

    /// CoDel-style queue aging: sheds every waiting query older than its
    /// class's target (`now - arrival_s > targets[class]`), returning the
    /// shed count. A lane holds one class, so its aged queries are a
    /// prefix. All-infinite targets short-circuit to a no-op.
    pub(crate) fn shed_aged(&mut self, now: f64, targets: &[f64; 3]) -> usize {
        if targets.iter().all(|t| t.is_infinite()) {
            return 0;
        }
        let aged = |s: &QuerySlot| now - s.arrival_s > targets[s.class.index()];
        self.shed_lane_heads(aged) + self.shed_deferred(aged)
    }

    /// The single-deque [`shed_aged`](Self::shed_aged): every ready query
    /// visited in seq order and shed where it stands. The differential
    /// oracle for the lane-prefix version.
    #[cfg(test)]
    pub(crate) fn shed_aged_reference(&mut self, now: f64, targets: &[f64; 3]) -> usize {
        if targets.iter().all(|t| t.is_infinite()) {
            return 0;
        }
        let aged = |s: &QuerySlot| now - s.arrival_s > targets[s.class.index()];
        let mut ready: Vec<QKey> = self.lanes.iter().flatten().copied().collect();
        ready.sort_by_key(|&k| self.seq_of(k));
        let mut n = 0;
        for k in ready {
            if self.arena.get(k).is_some_and(aged) && self.shed_key(k) {
                n += 1;
            }
        }
        n + self.shed_deferred(aged)
    }

    /// Sheds one specific waiting query (slack-guard and liveness drops).
    /// Returns false — and does nothing — for a stale or in-flight key.
    pub(crate) fn shed_key(&mut self, k: QKey) -> bool {
        if !self.unqueue(k) {
            return false;
        }
        self.note_shed(k);
        true
    }

    /// Takes waiting query `k` out of its lane or the deferred set; false
    /// (and nothing) for a stale or in-flight key. The scheduler only ever
    /// takes a ready query after every older one of its class has left
    /// the lane, so `k` is its lane's head — popped, not searched for.
    fn unqueue(&mut self, k: QKey) -> bool {
        let Some((phase, class)) = self.arena.get(k).map(|s| (s.phase, s.class)) else {
            return false;
        };
        match phase {
            QueryPhase::Ready => {
                let lane = &mut self.lanes[class.index()];
                if lane.front() == Some(&k) {
                    lane.pop_front();
                } else if let Some(pos) = lane.iter().position(|&r| r == k) {
                    lane.remove(pos);
                }
            }
            QueryPhase::Deferred => self.remove_deferred(k),
            QueryPhase::InFlight => return false,
        }
        true
    }

    /// Bounded-queue load shedding: if more than `capacity` queries are
    /// waiting (`ready_s <= now`), sheds the newest (highest-seq) excess
    /// and returns the count — the legacy `waiting[capacity..]` cut.
    pub(crate) fn shed_over_capacity(&mut self, now: f64, capacity: usize) -> usize {
        // Per lane, the admissible entries are a prefix (`ready_s` is
        // monotone along a lane): the whole lane unless the clock stepped
        // back behind its newest arrivals.
        let is_ready = |k: &QKey| self.arena.get(*k).is_some_and(|s| s.ready_s <= now);
        let mut r_end = [0usize; 3];
        for (end, lane) in r_end.iter_mut().zip(&self.lanes) {
            *end = if lane.back().is_none_or(is_ready) {
                lane.len()
            } else {
                lane.partition_point(is_ready)
            };
        }
        let mut defs = std::mem::take(&mut self.defs_scratch);
        defs.clear();
        defs.extend((0..self.deferred.len()).filter(|&i| {
            self.arena
                .get(self.deferred[i])
                .is_some_and(|s| s.ready_s <= now)
        }));
        let total = r_end.iter().sum::<usize>() + defs.len();
        if total <= capacity {
            self.defs_scratch = defs;
            return 0;
        }
        let mut excess = total - capacity;
        let shed = excess;
        while excess > 0 {
            // The newest waiting query: the highest seq among the lanes'
            // last admissible entries and the last ready deferred one.
            let mut newest: Option<(u64, usize)> = None;
            for (c, lane) in self.lanes.iter().enumerate() {
                let Some(&k) = r_end[c].checked_sub(1).and_then(|i| lane.get(i)) else {
                    continue;
                };
                let seq = self.seq_of(k);
                if newest.is_none_or(|(s, _)| seq > s) {
                    newest = Some((seq, c));
                }
            }
            let def_seq = defs.last().map(|&i| self.seq_of(self.deferred[i]));
            let lane = match (newest, def_seq) {
                (Some((r, c)), Some(d)) => (r > d).then_some(c),
                (Some((_, c)), None) => Some(c),
                (None, Some(_)) => None,
                (None, None) => break,
            };
            if let Some(c) = lane {
                r_end[c] -= 1;
                if let Some(k) = self.lanes[c].remove(r_end[c]) {
                    self.note_shed(k);
                }
            } else if let Some(i) = defs.pop() {
                let k = self.deferred.remove(i);
                self.note_shed(k);
            }
            excess -= 1;
        }
        self.defs_scratch = defs;
        shed - excess
    }

    /// Collects up to `limit` admissible queries (`ready_s <= now`) in seq
    /// order into `out` — the legacy in-order scan of `pending`, merged
    /// from the lane fronts and the deferred set — without removing them
    /// (removal happens at [`commit_admitted`](Self::commit_admitted) only
    /// if the engine accepts the batch).
    pub(crate) fn collect_ready(&self, now: f64, limit: usize, out: &mut Vec<QKey>) {
        out.clear();
        if limit == 0 {
            return;
        }
        let mut li = [0usize; 3];
        let mut di = 0usize;
        loop {
            // Oldest admissible lane entry; a lane's first unready entry
            // ends that lane (monotone `ready_s`).
            let mut lane_pick: Option<(u64, usize, QKey)> = None;
            for (c, lane) in self.lanes.iter().enumerate() {
                let Some(&k) = lane.get(li[c]) else { continue };
                let Some(s) = self.arena.get(k) else { continue };
                if s.ready_s <= now && lane_pick.is_none_or(|(seq, _, _)| s.seq < seq) {
                    lane_pick = Some((s.seq, c, k));
                }
            }
            // Next deferred candidate, skipping unready ones.
            while di < self.deferred.len()
                && self
                    .arena
                    .get(self.deferred[di])
                    .is_some_and(|s| s.ready_s > now)
            {
                di += 1;
            }
            let def_pick = self.deferred.get(di).map(|&k| (self.seq_of(k), k));
            let k = match (lane_pick, def_pick) {
                (Some((r, c, k)), Some((d, _))) if r < d => {
                    li[c] += 1;
                    k
                }
                (Some((_, c, k)), None) => {
                    li[c] += 1;
                    k
                }
                (_, Some((_, k))) => {
                    di += 1;
                    k
                }
                (None, None) => return,
            };
            out.push(k);
            if out.len() == limit {
                return;
            }
        }
    }

    /// Walks one class's admissible queries (`ready_s <= now`) in seq
    /// order — its lane merged with its deferred retries — handing each
    /// to `visit` until it answers [`Visit::Stop`] or the class runs out;
    /// returns the shed count. A shed query is removed where it stands;
    /// priority admission sheds only before it takes anything, so its
    /// sheds pop lane heads.
    pub(crate) fn walk_class(
        &mut self,
        class: Priority,
        now: f64,
        mut visit: impl FnMut(QKey, &QuerySlot) -> Visit,
    ) -> usize {
        let c = class.index();
        let mut li = 0usize;
        let mut di = 0usize;
        let mut shed = 0usize;
        loop {
            let lane_k = self.lanes[c]
                .get(li)
                .copied()
                .filter(|&k| self.arena.get(k).is_some_and(|s| s.ready_s <= now));
            while di < self.deferred.len()
                && !self
                    .arena
                    .get(self.deferred[di])
                    .is_some_and(|s| s.class == class && s.ready_s <= now)
            {
                di += 1;
            }
            let def_k = self.deferred.get(di).copied();
            let (k, from_lane) = match (lane_k, def_k) {
                (Some(r), Some(d)) => {
                    if self.seq_of(r) < self.seq_of(d) {
                        (r, true)
                    } else {
                        (d, false)
                    }
                }
                (Some(r), None) => (r, true),
                (None, Some(d)) => (d, false),
                (None, None) => return shed,
            };
            let Some(slot) = self.arena.get(k) else {
                return shed;
            };
            match visit(k, slot) {
                Visit::Shed => {
                    if from_lane {
                        self.lanes[c].remove(li);
                    } else {
                        self.deferred.remove(di);
                    }
                    self.note_shed(k);
                    shed += 1;
                }
                Visit::Take if from_lane => li += 1,
                Visit::Take => di += 1,
                Visit::Stop => return shed,
            }
        }
    }

    /// Removes an accepted admission group from the queues and marks its
    /// members in flight. Members must have come from
    /// [`collect_ready`](Self::collect_ready) or a class walk at the same
    /// instant.
    pub(crate) fn commit_admitted(&mut self, group: &[QKey]) {
        for &k in group {
            if !self.unqueue(k) {
                continue;
            }
            if let Some(s) = self.arena.get_mut(k) {
                s.phase = QueryPhase::InFlight;
            }
        }
    }

    fn remove_deferred(&mut self, k: QKey) {
        if let Some(pos) = self.deferred.iter().position(|&d| d == k) {
            self.deferred.remove(pos);
        }
    }

    fn insert_deferred(&mut self, k: QKey) {
        let seq = self.seq_of(k);
        let pos = self.deferred.partition_point(|&d| self.seq_of(d) < seq);
        self.deferred.insert(pos, k);
    }

    /// The retry machinery (legacy `retry_or_drop` + `restore_pending` in
    /// one pass): each member gets another attempt; retriable members are
    /// deferred to `now + backoff·2^min(attempts-1, 16)` (the saturating
    /// exponent that keeps deep chains from overflowing the shift) and
    /// exhausted ones are dropped, counted in `acc.failed`. Works on both
    /// still-queued members (failed admission) and in-flight members
    /// (engine failure after commit).
    pub(crate) fn requeue_failed(
        &mut self,
        members: &[QKey],
        now: f64,
        max_retries: u32,
        backoff_s: f64,
        acc: &mut ServingAccumulator,
    ) {
        for &k in members {
            let Some(s) = self.arena.get_mut(k) else {
                continue;
            };
            s.attempts += 1;
            let attempts = s.attempts;
            // Still-queued members leave their lane or the deferred set;
            // in-flight ones are in neither.
            self.unqueue(k);
            if attempts <= max_retries {
                acc.retries += 1;
                let exp = (attempts - 1).min(16);
                let ready_s = now + backoff_s * f64::from(1u32 << exp);
                if let Some(s) = self.arena.get_mut(k) {
                    s.ready_s = ready_s;
                    s.phase = QueryPhase::Deferred;
                }
                self.insert_deferred(k);
                self.wakeups.push(ready_s, k);
            } else {
                acc.failed += 1;
                self.note_failed(k);
            }
        }
    }

    /// Releases a completed (or otherwise finished) query's arena slot.
    pub(crate) fn release(&mut self, k: QKey) {
        self.arena.release(k);
    }

    /// Live arena slots (backlog + in flight), for leak assertions.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.arena.live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::ServingConfig;

    #[test]
    fn event_queue_pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        q.push(2.0, "b");
        q.push(1.0, "a1");
        q.push(1.0, "a2");
        q.push(3.0, "c");
        assert_eq!(q.peek(), Some((1.0, &"a1")));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["a1", "a2", "b", "c"]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn arena_keys_are_generational() {
        let mut a = QueryArena::default();
        let slot = QuerySlot {
            seq: 0,
            arrival_s: 1.0,
            ready_s: 1.0,
            attempts: 0,
            crashed: false,
            class: Priority::Interactive,
            phase: QueryPhase::Ready,
        };
        let k1 = a.alloc(slot);
        a.release(k1);
        let k2 = a.alloc(QuerySlot { seq: 1, ..slot });
        assert_eq!(k1.idx, k2.idx, "slot index is reused");
        assert!(a.get(k1).is_none(), "stale key must not resolve");
        assert_eq!(a.get(k2).map(|s| s.seq), Some(1));
        assert_eq!(a.live(), 1);
    }

    #[test]
    fn pump_materializes_arrivals_lazily_and_in_order() {
        let mut q = PendingQueue::new(ArrivalProcess::Poisson, 10.0, 100, 7);
        assert!(!q.is_exhausted());
        assert_eq!(q.backlog(), 0, "nothing materialized before pump");
        let t0 = q.min_ready();
        assert!(t0.is_finite() && t0 > 0.0);
        q.pump(t0);
        assert_eq!(q.backlog(), 1);
        q.pump(1e9);
        assert_eq!(q.backlog(), 100, "all arrivals materialize");
        let mut group = Vec::new();
        q.collect_ready(1e9, 100, &mut group);
        let seqs: Vec<u64> = group
            .iter()
            .map(|&k| q.arena.get(k).map_or(u64::MAX, |s| s.seq))
            .collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seq order: {seqs:?}");
    }

    #[test]
    fn deadline_shed_pops_the_expired_prefix() {
        let mut q = PendingQueue::new(ArrivalProcess::Poisson, 1.0, 20, 3);
        q.pump(1e9);
        // Find the 5th arrival and shed everything older than it by 1s.
        let mut group = Vec::new();
        q.collect_ready(1e9, 20, &mut group);
        let t5 = q.arrival_s(group[4]);
        let shed = q.shed_expired(t5 + 1.0 + 1e-9, 1.0);
        assert_eq!(shed, 5);
        assert_eq!(q.backlog(), 15);
        assert_eq!(q.live(), 15, "shed slots are released");
    }

    #[test]
    fn capacity_shed_drops_the_newest() {
        let mut q = PendingQueue::new(ArrivalProcess::Poisson, 1.0, 10, 3);
        q.pump(1e9);
        let shed = q.shed_over_capacity(1e9, 6);
        assert_eq!(shed, 4);
        let mut group = Vec::new();
        q.collect_ready(1e9, 10, &mut group);
        assert_eq!(group.len(), 6);
        let max_seq = group
            .iter()
            .map(|&k| q.arena.get(k).map_or(0, |s| s.seq))
            .max();
        assert_eq!(max_seq, Some(5), "survivors are the oldest six");
    }

    #[test]
    fn requeue_defers_and_eventually_drops() {
        let cfg = ServingConfig::new(1.0, 4, 4, 16, 16).with_retries(2, 1.0);
        let mut q = PendingQueue::new(ArrivalProcess::Poisson, 1.0, 4, 3);
        let mut acc = ServingAccumulator::default();
        q.pump(1e9);
        let mut group = Vec::new();
        q.collect_ready(1e9, 2, &mut group);
        let now = 100.0;
        q.requeue_failed(&group, now, cfg.max_retries, cfg.retry_backoff_s, &mut acc);
        assert_eq!(acc.retries, 2);
        assert_eq!(q.backlog(), 4, "deferred members stay pending");
        // Before the backoff expires they are not collectable...
        let mut g2 = Vec::new();
        q.collect_ready(now + 0.5, 4, &mut g2);
        assert_eq!(g2.len(), 2, "only the never-failed pair is ready");
        // ...and min_ready points at the backoff expiry.
        // (The two fresh queries arrived long ago, so min_ready is theirs;
        // shed them to see the wakeup.)
        q.commit_admitted(&g2);
        for k in g2 {
            q.release(k);
        }
        let mr = q.min_ready();
        assert_eq!(mr.to_bits(), (now + 1.0).to_bits());
        // Exhaust the retry budget: 2 more failures each → dropped.
        q.requeue_failed(&group, now, cfg.max_retries, cfg.retry_backoff_s, &mut acc);
        q.requeue_failed(&group, now, cfg.max_retries, cfg.retry_backoff_s, &mut acc);
        assert_eq!(acc.failed, 2);
        assert!(q.is_exhausted());
        assert_eq!(q.live(), 0, "dropped slots are released");
    }

    #[test]
    fn deep_retry_chains_saturate_backoff_without_overflow() {
        // `1u32 << exp` panics in debug builds once attempts reach 32; the
        // exponent clamp must saturate the backoff instead.
        let mut q = PendingQueue::new(ArrivalProcess::Poisson, 1.0, 1, 3);
        let mut acc = ServingAccumulator::default();
        q.pump(1e9);
        let mut group = Vec::new();
        q.collect_ready(1e9, 1, &mut group);
        let now = 100.0;
        let mut last_ready = 0.0;
        for round in 0..64 {
            q.requeue_failed(&group, now, 64, 0.5, &mut acc);
            let ready = q.arena.get(group[0]).map_or(f64::NAN, |s| s.ready_s);
            assert!(ready.is_finite(), "attempt {round}: finite backoff");
            assert!(
                ready >= last_ready,
                "attempt {round}: backoff never shrinks"
            );
            last_ready = ready;
        }
        // Saturated: the clamped exponent flattens the last doublings.
        assert_eq!(last_ready, now + 0.5 * f64::from(1u32 << 16));
        assert_eq!(acc.retries, 64);
        // The 65th failure exhausts the budget and drops the query.
        q.requeue_failed(&group, now, 64, 0.5, &mut acc);
        assert_eq!(acc.failed, 1);
        assert!(q.is_exhausted());
    }

    /// The allocation-budget invariant for DES dispatch (DESIGN.md §14):
    /// once the arena free list, deques and scratch buffers are warm, a
    /// full scheduling cycle — min_ready, pump, deadline/capacity sheds,
    /// collect, commit, requeue-with-backoff, release — allocates nothing.
    #[test]
    fn warm_dispatch_cycle_allocates_nothing() {
        let mut q = PendingQueue::new(ArrivalProcess::Poisson, 50.0, 50_000, 7);
        let mut acc = ServingAccumulator::default();
        let mut group = Vec::new();
        let mut cycle = |q: &mut PendingQueue, i: usize| {
            let t = q.min_ready();
            if !t.is_finite() {
                return;
            }
            q.pump(t);
            let _ = q.shed_expired(t, 1e9);
            let _ = q.shed_over_capacity(t, 64);
            q.collect_ready(t, 4, &mut group);
            if group.is_empty() {
                return;
            }
            if i.is_multiple_of(5) {
                // Failed admission: exercises the deferred set and the
                // retry-wakeup heap.
                q.requeue_failed(&group, t, 3, 0.5, &mut acc);
            } else {
                q.commit_admitted(&group);
                for &k in &group {
                    q.release(k);
                }
            }
        };
        for i in 0..400 {
            cycle(&mut q, i);
        }
        let before = crate::alloc_counter::thread_allocs();
        for i in 400..800 {
            cycle(&mut q, i);
        }
        assert_eq!(
            crate::alloc_counter::thread_allocs() - before,
            0,
            "a warm dispatch cycle must not allocate"
        );
    }

    /// The allocation budget for the priority path: a tagged backlog held
    /// above 512 keys — past the 4 KiB of stack scratch std's stable sort
    /// gets for `QKey`s — through deadline sheds, per-class aging, the
    /// KV guard and slack-guarded class walks, requeues and releases.
    /// Once warm, a cycle allocates nothing.
    #[test]
    fn warm_priority_cycle_allocates_nothing() {
        use crate::serving::{AdmissionConfig, AdmissionState};
        let adm = AdmissionConfig::priority(PriorityMix::EDGE_MIX, 11)
            .with_age_target(Priority::Background, 0.3);
        let mut st = AdmissionState::new(adm);
        // Batches take 0.1 s against a 1 s deadline: anything older than
        // 0.9 s is hopeless.
        st.observe_service(0.1);
        let mut q = PendingQueue::new(ArrivalProcess::Poisson, 1500.0, 100_000, 7);
        q.set_tagger(adm.mix, adm.class_seed);
        let mut acc = ServingAccumulator::default();
        let mut group = Vec::new();
        // 15 arrivals per 10 ms cycle against 4 admissions: interactive
        // keeps up, batch piles up to the slack cut, background to its age
        // target.
        let mut cycle = |q: &mut PendingQueue, st: &mut AdmissionState, i: usize| {
            let now = i as f64 * 0.01;
            let _ = q.min_ready();
            q.pump(now);
            let _ = q.shed_expired(now, 1.0);
            let _ = q.shed_aged(now, &adm.age_target_s);
            let _ = st.select(q, now, 4, 4 * 256, 256, Some(1.0), &mut group);
            if i.is_multiple_of(5) {
                q.requeue_failed(&group, now, 3, 0.05, &mut acc);
            } else {
                q.commit_admitted(&group);
                for &k in &group {
                    q.release(k);
                }
            }
            q.backlog()
        };
        for i in 0..1000 {
            cycle(&mut q, &mut st, i);
        }
        let before = crate::alloc_counter::thread_allocs();
        let mut min_backlog = usize::MAX;
        for i in 1000..1400 {
            min_backlog = min_backlog.min(cycle(&mut q, &mut st, i));
        }
        let allocs = crate::alloc_counter::thread_allocs() - before;
        assert!(min_backlog > 512, "backlog fell to {min_backlog}");
        assert_eq!(
            allocs, 0,
            "a warm priority dispatch cycle must not allocate"
        );
    }

    #[test]
    fn commit_marks_in_flight_and_removes_from_queues() {
        let mut q = PendingQueue::new(ArrivalProcess::Poisson, 5.0, 6, 9);
        q.pump(1e9);
        let mut group = Vec::new();
        q.collect_ready(1e9, 3, &mut group);
        q.commit_admitted(&group);
        assert_eq!(q.backlog(), 3);
        assert_eq!(q.live(), 6, "in-flight slots stay live");
        let mut g2 = Vec::new();
        q.collect_ready(1e9, 6, &mut g2);
        assert_eq!(g2.len(), 3, "committed members are gone from the view");
        for k in group {
            q.release(k);
        }
        assert_eq!(q.live(), 3);
    }
}
