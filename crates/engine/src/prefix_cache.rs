//! Refcounted radix tree over resident KV blocks (vLLM-style automatic
//! prefix caching).
//!
//! Requests are admitted with an explicit *prefix signature*: one `u64` per
//! full KV block of the prompt, identifying that block's token contents
//! (template blocks hash the template id, session blocks hash the session
//! id — see `workloads::session`). The tree maps signature paths to
//! resident blocks:
//!
//! * **Matching** is block-aligned: a request reuses the longest contiguous
//!   path of already-resident blocks from the root. Matched blocks skip
//!   prefill entirely — the stepper charges latency/energy only for the
//!   un-cached suffix. A node keeps its first child inline and a sorted
//!   vector only for further children, so a unary session chain allocates
//!   nothing and the walk touches one node per block.
//! * **Sharing** is refcounted: every live request pins its whole matched +
//!   inserted path (one pin per batched sequence). The pin is stored once,
//!   on the path's deepest node; a block is pinned when a pinned node lies
//!   in its subtree, so release is O(1) and only a leaf's own pins decide
//!   whether it can be evicted. [`PrefixHandle`] carries the path length,
//!   so [`PrefixCache::outstanding_pins`] still counts pins × blocks.
//! * **Copy-on-write at the divergence block:** only *full* prompt blocks
//!   enter the tree. The first block where a request diverges from the
//!   cached path — including the partial last block of every prompt — is
//!   allocated privately through [`KvCacheManager::allocate`], so writers
//!   never mutate shared state; they copy into their own tail.
//! * **Eviction** is LRU over unpinned leaves. A block's stamp is the
//!   latest release of a path through it. Release stamps only the deepest
//!   node; evicting a leaf folds its stamp into its parent, which rebuilds
//!   the parent's stamp before the parent can become a leaf. Evicting a
//!   leaf may expose its parent as a new unpinned leaf, so cascaded
//!   eviction can reclaim an entire cold path, deepest block first; an
//!   exposed parent colder than every queued candidate is taken at once.
//!
//! Tree-resident blocks are charged against the paged allocator exactly
//! once via `KvCacheManager::reserve_blocks`, regardless of how many
//! sequences pin them; the allocator's free-space arithmetic therefore
//! already reflects sharing, and "effective free" space for admission is
//! `free_blocks + evictable_blocks`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::kv_cache::KvCacheManager;

/// Sentinel index: no parent (a top-level block) or no child.
const NIL: u32 = u32::MAX;

/// One resident KV block in the radix tree.
#[derive(Debug, Clone)]
struct Node {
    /// Block signature (one step of the request's prefix signature).
    sig: u64,
    /// Parent node index, or [`NIL`] for top-level blocks.
    parent: u32,
    /// First child, matched through its own `sig`, or [`NIL`] for a leaf.
    first: u32,
    /// Further children sorted by signature; empty whenever `first` is
    /// [`NIL`].
    extra: Vec<(u64, u32)>,
    /// Pins of the paths that end here: one per batched sequence of each
    /// request whose acquired path this node ends.
    pins: u32,
    /// Logical LRU stamp: the node's creation or the latest release of a
    /// path ending here, raised by every evicted child's stamp. Once the
    /// node is an unpinned leaf, that is the latest release through it.
    last_use: u64,
    /// Slot generation, bumped on free so stale heap entries and handles
    /// never resolve to a recycled slot.
    gen: u32,
    /// Whether the slot currently holds a resident block.
    live: bool,
}

/// Handle to a pinned path, returned by [`PrefixCache::acquire`] and
/// consumed by [`PrefixCache::release`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixHandle {
    deepest: u32,
    gen: u32,
    /// Blocks on the pinned path.
    len: u32,
}

/// Outcome of [`PrefixCache::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acquired {
    /// Blocks that were already resident — their prefill is skipped.
    pub hit_blocks: usize,
    /// Total blocks pinned for this request (hits plus freshly inserted
    /// blocks); the request's shared context in block units.
    pub resident_blocks: usize,
    /// Pinned-path handle, `None` when nothing could be pinned.
    pub handle: Option<PrefixHandle>,
}

/// Monotonic counters describing cache behaviour over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Number of [`PrefixCache::acquire`] calls.
    pub lookups: u64,
    /// Blocks served from the tree (prefill skipped).
    pub hit_blocks: u64,
    /// Blocks requested but not resident at lookup time.
    pub miss_blocks: u64,
    /// Blocks newly inserted into the tree.
    pub inserted_blocks: u64,
    /// Blocks evicted (LRU unpinned leaves).
    pub evicted_blocks: u64,
}

/// Refcounted radix/prefix tree of resident KV blocks. See the module docs
/// for matching, pinning, copy-on-write and eviction rules.
#[derive(Debug, Clone, Default)]
pub struct PrefixCache {
    nodes: Vec<Node>,
    /// Top-level children (first blocks of every cached prefix), sorted.
    roots: Vec<(u64, u32)>,
    free_list: Vec<u32>,
    /// Logical clock for LRU stamps.
    tick: u64,
    /// Live tree blocks (each holds one reserved KV block).
    resident: u64,
    /// Pins × path blocks over the held paths; drains to zero when no
    /// request holds a path (the conservation property tests pin this).
    total_pins: u64,
    /// Lazy min-heap of `(last_use, idx, gen)` eviction candidates; entries
    /// are validated on pop, so stale stamps are simply discarded.
    heap: BinaryHeap<Reverse<(u64, u32, u32)>>,
    stats: PrefixCacheStats,
}

impl PrefixCache {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks currently resident in the tree.
    #[must_use]
    pub fn resident_blocks(&self) -> u64 {
        self.resident
    }

    /// Blocks that could be reclaimed right now by evicting unpinned
    /// paths — the admission headroom on top of the allocator's free space.
    /// O(1) when no path is pinned, otherwise a scan of the tree.
    #[must_use]
    pub fn evictable_blocks(&self) -> u64 {
        if self.total_pins == 0 {
            return self.resident;
        }
        // A block is pinned when a pinned node lies in its subtree: mark
        // each pinned node's path to the root, stopping at a marked node.
        let mut pinned = vec![false; self.nodes.len()];
        let mut count = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            if !node.live || node.pins == 0 {
                continue;
            }
            let mut idx = i as u32;
            while idx != NIL && !pinned[idx as usize] {
                pinned[idx as usize] = true;
                count += 1;
                idx = self.nodes[idx as usize].parent;
            }
        }
        self.resident - count
    }

    /// Outstanding pins across all live nodes (zero once every admitted
    /// request has retired, cancelled or failed): each held path counts
    /// its pins once per block.
    #[must_use]
    pub fn outstanding_pins(&self) -> u64 {
        self.total_pins
    }

    /// Cache behaviour counters.
    #[must_use]
    pub fn stats(&self) -> PrefixCacheStats {
        self.stats
    }

    /// Length of the longest resident prefix of `sigs`, in blocks. Read
    /// only: no pins are taken and no LRU stamps move, so router peeks
    /// cannot perturb eviction order.
    #[must_use]
    pub fn match_blocks(&self, sigs: &[u64]) -> usize {
        self.walk(sigs).1
    }

    /// Pins the longest resident prefix of `sigs` (with `count` pins, one
    /// per batched sequence) and then extends the path with the remaining
    /// signatures, reserving one KV block per new node through `kv` and
    /// evicting cold paths on demand. Insertion stops early — and the
    /// acquired path stays shorter — if no block can be freed.
    pub fn acquire(&mut self, kv: &mut KvCacheManager, sigs: &[u64], count: u32) -> Acquired {
        // The pin on the deepest matched node is what protects the matched
        // path from the evictions insertion may trigger.
        debug_assert!(count > 0, "a zero-count acquire leaves its path unpinned");
        self.stats.lookups += 1;
        let (mut deepest, hit) = self.walk(sigs);
        self.stats.hit_blocks += hit as u64;
        self.stats.miss_blocks += (sigs.len() - hit) as u64;
        if deepest != NIL {
            self.nodes[deepest as usize].pins += count;
        }
        // Extend with the un-cached remainder while blocks can be reserved;
        // the pin moves down onto each inserted node.
        let mut inserted = 0;
        for &sig in &sigs[hit..] {
            if !kv.reserve_blocks(1) && (self.evict(kv, 1) == 0 || !kv.reserve_blocks(1)) {
                break;
            }
            if deepest != NIL {
                self.nodes[deepest as usize].pins -= count;
            }
            deepest = self.insert_child(deepest, sig, count);
            inserted += 1;
        }
        self.stats.inserted_blocks += inserted as u64;
        let resident_blocks = hit + inserted;
        let len = u32::try_from(resident_blocks).unwrap_or(NIL);
        self.total_pins += u64::from(count) * u64::from(len);
        Acquired {
            hit_blocks: hit,
            resident_blocks,
            handle: (resident_blocks > 0).then(|| PrefixHandle {
                deepest,
                gen: self.nodes[deepest as usize].gen,
                len,
            }),
        }
    }

    /// Releases `count` pins from the handle's path in O(1). A newly
    /// unpinned leaf becomes an LRU eviction candidate stamped with the
    /// release time.
    pub fn release(&mut self, handle: PrefixHandle, count: u32) {
        let stamp = self.next_tick();
        let node = &mut self.nodes[handle.deepest as usize];
        debug_assert!(
            node.live && node.gen == handle.gen,
            "release of a stale prefix handle"
        );
        debug_assert!(node.pins >= count, "unbalanced prefix unpin");
        node.pins = node.pins.saturating_sub(count);
        node.last_use = stamp;
        self.total_pins = self
            .total_pins
            .saturating_sub(u64::from(count) * u64::from(handle.len));
        if node.pins == 0 && node.first == NIL {
            self.heap.push(Reverse((stamp, handle.deepest, node.gen)));
        }
    }

    /// Evicts up to `want` blocks, coldest unpinned leaves first, returning
    /// each to `kv` via `unreserve_blocks`. Returns the number evicted
    /// (possibly zero when everything resident is pinned).
    pub fn evict(&mut self, kv: &mut KvCacheManager, want: u64) -> u64 {
        let mut evicted = 0;
        while evicted < want {
            let Some(Reverse((stamp, mut idx, gen))) = self.heap.pop() else {
                break;
            };
            let node = &self.nodes[idx as usize];
            let valid = node.live
                && node.gen == gen
                && node.pins == 0
                && node.first == NIL
                && node.last_use == stamp;
            if !valid {
                continue;
            }
            // Cascade up the exposed ancestors. Each is taken at once when
            // its key is below the heap's top, the order a push and pop
            // would give; otherwise it waits in the heap.
            loop {
                let exposed = self.remove_leaf(idx);
                kv.unreserve_blocks(1);
                evicted += 1;
                let Some(parent) = exposed else { break };
                let p = &self.nodes[parent as usize];
                let key = (p.last_use, parent, p.gen);
                let coldest = self.heap.peek().is_none_or(|Reverse(top)| key < *top);
                if evicted < want && coldest {
                    idx = parent;
                } else {
                    self.heap.push(Reverse(key));
                    break;
                }
            }
        }
        self.stats.evicted_blocks += evicted;
        evicted
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// The child of `parent` (the root set when `parent == NIL`) whose
    /// signature is `sig`.
    fn child(&self, parent: u32, sig: u64) -> Option<u32> {
        let children = if parent == NIL {
            &self.roots
        } else {
            let node = &self.nodes[parent as usize];
            if node.first != NIL && self.nodes[node.first as usize].sig == sig {
                return Some(node.first);
            }
            &node.extra
        };
        children
            .binary_search_by_key(&sig, |&(s, _)| s)
            .ok()
            .map(|pos| children[pos].1)
    }

    /// The deepest node of the longest resident prefix of `sigs` ([`NIL`]
    /// when none) and that prefix's length in blocks.
    fn walk(&self, sigs: &[u64]) -> (u32, usize) {
        let mut deepest = NIL;
        let mut matched = 0;
        for &sig in sigs {
            match self.child(deepest, sig) {
                Some(idx) => {
                    deepest = idx;
                    matched += 1;
                }
                None => break,
            }
        }
        (deepest, matched)
    }

    /// Allocates a node for `sig` under `parent` (or the root set when
    /// `parent == NIL`), already pinned with `count` pins.
    fn insert_child(&mut self, parent: u32, sig: u64, count: u32) -> u32 {
        let stamp = self.next_tick();
        let idx = match self.free_list.pop() {
            Some(idx) => {
                let node = &mut self.nodes[idx as usize];
                node.sig = sig;
                node.parent = parent;
                node.first = NIL;
                node.extra.clear();
                node.pins = count;
                node.last_use = stamp;
                node.live = true;
                idx
            }
            None => {
                let idx = u32::try_from(self.nodes.len()).unwrap_or(NIL);
                debug_assert!(idx != NIL, "prefix tree exceeds u32 nodes");
                self.nodes.push(Node {
                    sig,
                    parent,
                    first: NIL,
                    extra: Vec::new(),
                    pins: count,
                    last_use: stamp,
                    gen: 0,
                    live: true,
                });
                idx
            }
        };
        self.resident += 1;
        // The signature cannot already be a child: acquire only inserts
        // after the walk failed to find it.
        let children = if parent == NIL {
            &mut self.roots
        } else {
            let p = &mut self.nodes[parent as usize];
            if p.first == NIL {
                p.first = idx;
                return idx;
            }
            &mut p.extra
        };
        if let Err(pos) = children.binary_search_by_key(&sig, |&(s, _)| s) {
            children.insert(pos, (sig, idx));
        }
        idx
    }

    /// Frees an unpinned leaf, unlinking it from its parent and folding
    /// its stamp into the parent's. Returns the parent when that leaves it
    /// an unpinned leaf: the next eviction candidate.
    fn remove_leaf(&mut self, idx: u32) -> Option<u32> {
        let (sig, parent, stamp) = {
            let node = &mut self.nodes[idx as usize];
            node.live = false;
            node.gen = node.gen.wrapping_add(1);
            (node.sig, node.parent, node.last_use)
        };
        self.free_list.push(idx);
        self.resident -= 1;
        if parent == NIL {
            if let Ok(pos) = self.roots.binary_search_by_key(&sig, |&(s, _)| s) {
                self.roots.remove(pos);
            }
            return None;
        }
        let p = &mut self.nodes[parent as usize];
        if p.first == idx {
            // Promote a further child, if any, to the inline slot.
            p.first = p.extra.pop().map_or(NIL, |(_, child)| child);
        } else if let Ok(pos) = p.extra.binary_search_by_key(&sig, |&(s, _)| s) {
            p.extra.remove(pos);
        }
        p.last_use = p.last_use.max(stamp);
        (p.pins == 0 && p.first == NIL).then_some(parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgereasoning_kernels::arch::ModelId;

    /// 8B model, 16-token blocks: 1 MiB per 8 tokens, so `blocks` blocks.
    fn kv(blocks: u64) -> KvCacheManager {
        let arch = ModelId::Dsr1Llama8b.arch();
        let block_bytes = arch.kv_bytes_per_token() * 16;
        KvCacheManager::new(&arch, block_bytes * blocks, 16).expect("positive block size")
    }

    #[test]
    fn acquire_inserts_then_hits() {
        let mut kv = kv(8);
        let mut tree = PrefixCache::new();
        let sigs = [1u64, 2, 3];
        let a = tree.acquire(&mut kv, &sigs, 1);
        assert_eq!((a.hit_blocks, a.resident_blocks), (0, 3));
        assert_eq!(kv.free_blocks(), 5, "tree blocks charged once");
        let b = tree.acquire(&mut kv, &sigs, 2);
        assert_eq!((b.hit_blocks, b.resident_blocks), (3, 3));
        assert_eq!(kv.free_blocks(), 5, "hits charge nothing");
        assert_eq!(tree.outstanding_pins(), 9); // 3 blocks × (1 + 2) refs
        tree.release(a.handle.expect("pinned"), 1);
        tree.release(b.handle.expect("pinned"), 2);
        assert_eq!(tree.outstanding_pins(), 0);
        assert_eq!(tree.evictable_blocks(), 3);
    }

    #[test]
    fn divergence_forks_the_tree_and_shares_the_stem() {
        let mut kv = kv(8);
        let mut tree = PrefixCache::new();
        let a = tree.acquire(&mut kv, &[1, 2, 3], 1);
        let b = tree.acquire(&mut kv, &[1, 2, 9], 1);
        assert_eq!(b.hit_blocks, 2, "shared stem matched");
        assert_eq!(tree.resident_blocks(), 4, "stem shared, tails forked");
        // The stem carries both pins, the tails one each.
        assert_eq!(tree.outstanding_pins(), 2 * 2 + 1 + 1);
        tree.release(a.handle.expect("pinned"), 1);
        tree.release(b.handle.expect("pinned"), 1);
        assert_eq!(tree.outstanding_pins(), 0);
    }

    #[test]
    fn eviction_is_lru_over_zero_ref_leaves() {
        let mut kv = kv(16);
        let mut tree = PrefixCache::new();
        let a = tree.acquire(&mut kv, &[10, 11], 1);
        let b = tree.acquire(&mut kv, &[20, 21], 1);
        tree.release(a.handle.expect("pinned"), 1); // colder
        tree.release(b.handle.expect("pinned"), 1); // warmer
                                                    // One eviction takes the coldest leaf: path A's deepest block.
        assert_eq!(tree.evict(&mut kv, 1), 1);
        assert_eq!(tree.match_blocks(&[10, 11]), 1, "leaf 11 gone");
        assert_eq!(tree.match_blocks(&[20, 21]), 2, "warm path intact");
        // Cascade: the exposed parent goes before the warmer path.
        assert_eq!(tree.evict(&mut kv, 1), 1);
        assert_eq!(tree.match_blocks(&[10, 11]), 0);
        assert_eq!(tree.match_blocks(&[20, 21]), 2);
    }

    #[test]
    fn pinned_paths_never_evict() {
        let mut kv = kv(4);
        let mut tree = PrefixCache::new();
        let a = tree.acquire(&mut kv, &[1, 2], 1);
        assert_eq!(tree.evict(&mut kv, 10), 0, "everything pinned");
        // A second prefix wanting the last free blocks can only take those.
        let b = tree.acquire(&mut kv, &[5, 6, 7], 1);
        assert_eq!(b.resident_blocks, 2, "insertion stops at the pin wall");
        tree.release(a.handle.expect("pinned"), 1);
        tree.release(b.handle.expect("pinned"), 1);
        // Now the cold path can make room for the full new prefix.
        let c = tree.acquire(&mut kv, &[8, 9, 10, 11], 1);
        assert_eq!(c.resident_blocks, 4);
        assert_eq!(tree.resident_blocks(), 4);
        assert_eq!(kv.free_blocks(), 0);
        tree.release(c.handle.expect("pinned"), 1);
    }

    #[test]
    fn evicted_blocks_return_to_the_allocator() {
        let mut kv = kv(4);
        let mut tree = PrefixCache::new();
        let a = tree.acquire(&mut kv, &[1, 2, 3, 4], 1);
        assert_eq!(kv.free_blocks(), 0);
        tree.release(a.handle.expect("pinned"), 1);
        assert_eq!(tree.evict(&mut kv, 4), 4);
        assert_eq!(kv.free_blocks(), 4);
        assert_eq!(tree.resident_blocks(), 0);
        assert_eq!(tree.evictable_blocks(), 0);
        // Slots recycle cleanly.
        let b = tree.acquire(&mut kv, &[7, 8], 3);
        assert_eq!(b.resident_blocks, 2);
        assert_eq!(tree.outstanding_pins(), 6);
        tree.release(b.handle.expect("pinned"), 3);
        assert_eq!(tree.outstanding_pins(), 0);
    }

    /// Differential oracle: random operation sequences run through this
    /// tree and through the tree as it shipped with whole-path pins
    /// (`prefix_cache_reference`); every observable agrees after every
    /// operation. Sequences mix shared template stems, session forks,
    /// batch counts 1–4, re-acquisition of paths that were partly evicted,
    /// and KV pools small enough that `acquire` itself must evict.
    #[test]
    fn matches_the_whole_path_pin_reference() {
        use crate::prefix_cache_reference::{ReferenceHandle, ReferencePrefixCache};
        use edgereasoning_soc::Rng;

        // Coverage: acquires that evicted, and partial hits.
        let (mut evicting_acquires, mut partial_hits) = (0, 0);
        for case in 0..600u64 {
            let mut rng = Rng::seed_from_u64(0x9e3c_0000 + case);
            let pool = 4 + rng.range_usize(40) as u64;
            let (mut kv_new, mut kv_ref) = (kv(pool), kv(pool));
            let mut tree = PrefixCache::new();
            let mut oracle = ReferencePrefixCache::new();
            let mut held: Vec<(PrefixHandle, ReferenceHandle, u32)> = Vec::new();
            let mut seen: Vec<Vec<u64>> = Vec::new();
            let ops = 20 + rng.range_usize(80);
            for op in 0..ops {
                let ctx = format!("case {case} op {op}");
                match rng.range_usize(10) {
                    // Acquire: a fresh stem-and-fork signature, or a past one.
                    0..=4 => {
                        let sigs = if !seen.is_empty() && rng.chance(0.35) {
                            let past = &seen[rng.range_usize(seen.len())];
                            past[..rng.range_usize(past.len() + 1)].to_vec()
                        } else {
                            let stem = rng.range_usize(3) as u64;
                            let fork = rng.range_usize(5) as u64;
                            let stem_len = rng.range_usize(7);
                            let tail_len = rng.range_usize(9);
                            (0..stem_len as u64)
                                .map(|j| (stem << 16) | j)
                                .chain(
                                    (0..tail_len as u64).map(|j| 0x1_0000_0000 | (fork << 16) | j),
                                )
                                .collect()
                        };
                        let count = 1 + rng.range_usize(4) as u32;
                        let evicted = tree.stats().evicted_blocks;
                        let a = tree.acquire(&mut kv_new, &sigs, count);
                        let b = oracle.acquire(&mut kv_ref, &sigs, count);
                        evicting_acquires += usize::from(tree.stats().evicted_blocks > evicted);
                        partial_hits += usize::from(a.hit_blocks > 0 && a.hit_blocks < sigs.len());
                        assert_eq!(
                            (a.hit_blocks, a.resident_blocks, a.handle.is_some()),
                            (b.hit_blocks, b.resident_blocks, b.handle.is_some()),
                            "{ctx}: acquire {sigs:?}"
                        );
                        if let (Some(h), Some(r)) = (a.handle, b.handle) {
                            held.push((h, r, count));
                        }
                        seen.push(sigs);
                    }
                    5..=7 if !held.is_empty() => {
                        let (h, r, count) = held.swap_remove(rng.range_usize(held.len()));
                        tree.release(h, count);
                        oracle.release(r, count);
                    }
                    8 => {
                        let want = rng.range_usize(7) as u64;
                        assert_eq!(
                            tree.evict(&mut kv_new, want),
                            oracle.evict(&mut kv_ref, want),
                            "{ctx}: evict {want}"
                        );
                    }
                    _ => {
                        if let Some(past) = seen.last() {
                            assert_eq!(
                                tree.match_blocks(past),
                                oracle.match_blocks(past),
                                "{ctx}: match"
                            );
                        }
                    }
                }
                assert_same(&tree, &oracle, &kv_new, &kv_ref, &ctx);
            }
            for (h, r, count) in held.drain(..) {
                tree.release(h, count);
                oracle.release(r, count);
                assert_same(
                    &tree,
                    &oracle,
                    &kv_new,
                    &kv_ref,
                    &format!("case {case} drain"),
                );
            }
            assert_eq!(tree.outstanding_pins(), 0);
            assert_eq!(
                tree.evict(&mut kv_new, u64::MAX),
                oracle.evict(&mut kv_ref, u64::MAX)
            );
            assert_same(
                &tree,
                &oracle,
                &kv_new,
                &kv_ref,
                &format!("case {case} end"),
            );
            assert_eq!(tree.resident_blocks(), 0);
            assert_eq!(kv_new.free_blocks(), pool);
        }
        assert!(
            evicting_acquires > 1_000,
            "{evicting_acquires} acquires evicted"
        );
        assert!(partial_hits > 1_000, "{partial_hits} partial hits");
    }

    fn assert_same(
        tree: &PrefixCache,
        oracle: &crate::prefix_cache_reference::ReferencePrefixCache,
        kv_new: &KvCacheManager,
        kv_ref: &KvCacheManager,
        ctx: &str,
    ) {
        assert_eq!(tree.stats(), oracle.stats(), "{ctx}: stats");
        assert_eq!(
            tree.outstanding_pins(),
            oracle.outstanding_pins(),
            "{ctx}: pins"
        );
        assert_eq!(
            tree.resident_blocks(),
            oracle.resident_blocks(),
            "{ctx}: resident"
        );
        assert_eq!(
            tree.evictable_blocks(),
            oracle.evictable_blocks(),
            "{ctx}: evictable"
        );
        assert_eq!(kv_new.free_blocks(), kv_ref.free_blocks(), "{ctx}: free");
    }

    /// A unary chain keeps each child inline: inserting a cold 1,000-block
    /// session chain allocates only for the node slab's doubling.
    #[test]
    fn unary_chains_allocate_only_the_slab() {
        let mut kv = kv(2048);
        let mut tree = PrefixCache::new();
        let chain: Vec<u64> = (0..1000).collect();
        let before = crate::alloc_counter::thread_allocs();
        let acq = tree.acquire(&mut kv, &chain, 1);
        let allocs = crate::alloc_counter::thread_allocs() - before;
        assert_eq!(acq.resident_blocks, 1000);
        assert!(allocs <= 16, "{allocs} allocations for one chain");
        tree.release(acq.handle.expect("pinned"), 1);
    }

    /// The allocation budget of DESIGN.md §14 for the tree: once warm,
    /// session-chain turns allocate nothing. A resident template is held
    /// for the whole run; three sessions fork from it and each turn
    /// extends one session's chain by 14 blocks, releases it, and evicts
    /// to keep a turn's worth of blocks free on a pool the chains
    /// overflow, so `acquire` evicts too.
    #[test]
    fn warm_session_chain_turns_allocate_nothing() {
        const TEMPLATE: u64 = 8;
        const TURN: u64 = 14;
        const TURNS: u64 = 6;
        let mut kv = kv(96);
        let mut tree = PrefixCache::new();
        let template: Vec<u64> = (0..TEMPLATE).collect();
        let held = tree.acquire(&mut kv, &template, 1);
        let mut chains: Vec<Vec<u64>> = (0..3)
            .map(|_| Vec::with_capacity((TEMPLATE + TURN * TURNS) as usize))
            .collect();
        let mut next_session = 0u64;
        let mut turn = |tree: &mut PrefixCache, kv: &mut KvCacheManager, cycle: u64| {
            let chain = &mut chains[(cycle % 3) as usize];
            if chain.len() as u64 >= TEMPLATE + TURN * TURNS || chain.is_empty() {
                // The session ends; a new one opens on the template.
                next_session += 1;
                chain.clear();
                chain.extend_from_slice(&template);
            }
            let base = chain.len() as u64;
            chain.extend((base..base + TURN).map(|j| (next_session << 32) | j));
            let acq = tree.acquire(kv, chain, 1);
            if let Some(h) = acq.handle {
                tree.release(h, 1);
            }
            let free = kv.free_blocks();
            if free < TURN {
                tree.evict(kv, TURN - free);
            }
            acq.hit_blocks
        };
        for cycle in 0..400 {
            turn(&mut tree, &mut kv, cycle);
        }
        let warm = tree.stats();
        let before = crate::alloc_counter::thread_allocs();
        let mut hits = 0;
        for cycle in 400..600 {
            hits += turn(&mut tree, &mut kv, cycle);
        }
        assert_eq!(
            crate::alloc_counter::thread_allocs() - before,
            0,
            "warm session-chain turns must not allocate"
        );
        let window = tree.stats();
        assert!(hits > 0, "chains hit their earlier turns");
        // More than a turn's worth of blocks re-inserted per turn: evicted
        // chain tails come back, past the free blocks, so acquire evicts.
        assert!(window.inserted_blocks - warm.inserted_blocks > 200 * TURN);
        assert!(
            window.evicted_blocks > warm.evicted_blocks,
            "the window evicts"
        );
        tree.release(held.handle.expect("pinned"), 1);
        assert_eq!(tree.outstanding_pins(), 0);
    }

    #[test]
    fn match_blocks_is_read_only() {
        let mut kv = kv(8);
        let mut tree = PrefixCache::new();
        let a = tree.acquire(&mut kv, &[1, 2, 3], 1);
        assert_eq!(tree.match_blocks(&[1, 2, 3, 4]), 3);
        assert_eq!(tree.match_blocks(&[9]), 0);
        assert_eq!(tree.outstanding_pins(), 3, "peeks take no pins");
        tree.release(a.handle.expect("pinned"), 1);
    }
}
