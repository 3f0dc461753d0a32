//! The refcounted radix tree as it shipped before deepest-node pins, kept
//! as a test-only differential oracle for [`crate::prefix_cache`].
//!
//! This tree pins every node of an acquired root-to-leaf path, walks the
//! path back on release, stamps every node of it with the release time,
//! pushes every exposed parent through its LRU heap and keeps each node's
//! children in a sorted vector. The production tree reaches the same
//! observable state by cheaper means; the proptest in its module replays
//! random operation sequences through both and compares them after every
//! step. Compiled only for tests, and kept as it shipped apart from the
//! type names and the result types it now shares with the production tree.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::kv_cache::KvCacheManager;
use crate::prefix_cache::PrefixCacheStats;

/// Sentinel parent index for top-level (root-child) nodes.
const NIL: u32 = u32::MAX;

/// One resident KV block in the radix tree.
#[derive(Debug, Clone)]
struct Node {
    /// Block signature (one step of the request's prefix signature).
    sig: u64,
    /// Parent node index, or [`NIL`] for top-level blocks.
    parent: u32,
    /// Children sorted by signature for deterministic binary-search walks.
    children: Vec<(u64, u32)>,
    /// Live pins: one per batched sequence of each request holding the path.
    refs: u32,
    /// Logical LRU stamp — bumped when the node is created and when the
    /// last pin on its path is released.
    last_use: u64,
    /// Slot generation, bumped on free so stale heap entries and handles
    /// never resolve to a recycled slot.
    gen: u32,
    /// Whether the slot currently holds a resident block.
    live: bool,
}

/// Handle to a pinned path, returned by [`ReferencePrefixCache::acquire`] and
/// consumed by [`ReferencePrefixCache::release`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReferenceHandle {
    deepest: u32,
    gen: u32,
}

/// Outcome of [`ReferencePrefixCache::acquire`]: the production
/// `Acquired` with the reference tree's handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReferenceAcquired {
    /// Blocks that were already resident — their prefill is skipped.
    pub hit_blocks: usize,
    /// Total blocks pinned for this request.
    pub resident_blocks: usize,
    /// Pinned-path handle, `None` when nothing could be pinned.
    pub handle: Option<ReferenceHandle>,
}

/// Refcounted radix/prefix tree of resident KV blocks. See the module docs
/// of [`crate::prefix_cache`] for matching, copy-on-write and eviction
/// rules; this tree keeps a refcount on every node of a pinned path.
#[derive(Debug, Clone, Default)]
pub struct ReferencePrefixCache {
    nodes: Vec<Node>,
    /// Top-level children (first blocks of every cached prefix), sorted.
    roots: Vec<(u64, u32)>,
    free_list: Vec<u32>,
    /// Logical clock for LRU stamps.
    tick: u64,
    /// Live tree blocks (each holds one reserved KV block).
    resident: u64,
    /// Live tree blocks with `refs == 0` (reclaimable via cascaded leaf
    /// eviction — the refcount dominance invariant makes the two equal).
    unpinned: u64,
    /// Sum of `refs` over live nodes; drains to zero when no request holds
    /// a path (the conservation property tests pin this).
    total_refs: u64,
    /// Lazy min-heap of `(last_use, idx, gen)` eviction candidates; entries
    /// are validated on pop, so stale stamps are simply discarded.
    heap: BinaryHeap<Reverse<(u64, u32, u32)>>,
    stats: PrefixCacheStats,
}

impl ReferencePrefixCache {
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

    /// Blocks that could be reclaimed right now by evicting zero-ref
    /// paths — the admission headroom on top of the allocator's free space.
    #[must_use]
    pub fn evictable_blocks(&self) -> u64 {
        self.unpinned
    }

    /// Outstanding pins across all live nodes (zero once every admitted
    /// request has retired, cancelled or failed).
    #[must_use]
    pub fn outstanding_pins(&self) -> u64 {
        self.total_refs
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
        let mut matched = 0;
        let mut children: &[(u64, u32)] = &self.roots;
        for &sig in sigs {
            match children.binary_search_by_key(&sig, |&(s, _)| s) {
                Ok(pos) => {
                    let idx = children[pos].1;
                    matched += 1;
                    children = &self.nodes[idx as usize].children;
                }
                Err(_) => break,
            }
        }
        matched
    }

    /// Pins the longest resident prefix of `sigs` (with `count` refs per
    /// block, one per batched sequence) and then extends the path with the
    /// remaining signatures, reserving one KV block per new node through
    /// `kv` and evicting cold paths on demand. Insertion stops early — and
    /// the acquired path stays shorter — if no block can be freed.
    pub fn acquire(
        &mut self,
        kv: &mut KvCacheManager,
        sigs: &[u64],
        count: u32,
    ) -> ReferenceAcquired {
        self.stats.lookups += 1;
        // Walk and pin the resident prefix.
        let mut deepest = NIL;
        let mut hit = 0;
        loop {
            let children = if deepest == NIL {
                &self.roots
            } else {
                &self.nodes[deepest as usize].children
            };
            let Some(&sig) = sigs.get(hit) else { break };
            match children.binary_search_by_key(&sig, |&(s, _)| s) {
                Ok(pos) => {
                    deepest = children[pos].1;
                    hit += 1;
                    self.pin(deepest, count);
                }
                Err(_) => break,
            }
        }
        self.stats.hit_blocks += hit as u64;
        self.stats.miss_blocks += (sigs.len() - hit) as u64;
        // Extend with the un-cached remainder while blocks can be reserved.
        let mut inserted = 0;
        for &sig in &sigs[hit..] {
            if !kv.reserve_blocks(1) && (self.evict(kv, 1) == 0 || !kv.reserve_blocks(1)) {
                break;
            }
            deepest = self.insert_child(deepest, sig, count);
            inserted += 1;
        }
        self.stats.inserted_blocks += inserted as u64;
        let resident_blocks = hit + inserted;
        ReferenceAcquired {
            hit_blocks: hit,
            resident_blocks,
            handle: (resident_blocks > 0).then(|| ReferenceHandle {
                deepest,
                gen: self.nodes[deepest as usize].gen,
            }),
        }
    }

    /// Releases `count` pins from every block on the handle's path. Newly
    /// zero-ref leaves become LRU eviction candidates stamped with the
    /// release time.
    pub fn release(&mut self, handle: ReferenceHandle, count: u32) {
        let stamp = self.next_tick();
        let mut idx = handle.deepest;
        debug_assert!(
            self.nodes[idx as usize].live && self.nodes[idx as usize].gen == handle.gen,
            "release of a stale prefix handle"
        );
        while idx != NIL {
            let node = &mut self.nodes[idx as usize];
            debug_assert!(node.refs >= count, "unbalanced prefix unpin");
            node.refs = node.refs.saturating_sub(count);
            node.last_use = stamp;
            self.total_refs = self.total_refs.saturating_sub(u64::from(count));
            if node.refs == 0 {
                self.unpinned += 1;
                if node.children.is_empty() {
                    self.heap.push(Reverse((stamp, idx, node.gen)));
                }
            }
            idx = node.parent;
        }
    }

    /// Evicts up to `want` blocks, coldest zero-ref leaves first, returning
    /// each to `kv` via `unreserve_blocks`. Returns the number evicted
    /// (possibly zero when everything resident is pinned).
    pub fn evict(&mut self, kv: &mut KvCacheManager, want: u64) -> u64 {
        let mut evicted = 0;
        while evicted < want {
            let Some(Reverse((stamp, idx, gen))) = self.heap.pop() else {
                break;
            };
            let node = &self.nodes[idx as usize];
            let valid = node.live
                && node.gen == gen
                && node.refs == 0
                && node.children.is_empty()
                && node.last_use == stamp;
            if !valid {
                continue;
            }
            self.remove_leaf(idx);
            kv.unreserve_blocks(1);
            evicted += 1;
        }
        self.stats.evicted_blocks += evicted;
        evicted
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    fn pin(&mut self, idx: u32, count: u32) {
        let node = &mut self.nodes[idx as usize];
        if node.refs == 0 {
            self.unpinned -= 1;
        }
        node.refs += count;
        self.total_refs += u64::from(count);
    }

    /// Allocates a node for `sig` under `parent` (or the root set when
    /// `parent == NIL`), already pinned with `count` refs.
    fn insert_child(&mut self, parent: u32, sig: u64, count: u32) -> u32 {
        let stamp = self.next_tick();
        let idx = match self.free_list.pop() {
            Some(idx) => {
                let node = &mut self.nodes[idx as usize];
                node.sig = sig;
                node.parent = parent;
                node.children.clear();
                node.refs = count;
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
                    children: Vec::new(),
                    refs: count,
                    last_use: stamp,
                    gen: 0,
                    live: true,
                });
                idx
            }
        };
        let children = if parent == NIL {
            &mut self.roots
        } else {
            &mut self.nodes[parent as usize].children
        };
        match children.binary_search_by_key(&sig, |&(s, _)| s) {
            // The signature cannot already be present: acquire only inserts
            // after the walk failed to find it.
            Ok(pos) => children[pos] = (sig, idx),
            Err(pos) => children.insert(pos, (sig, idx)),
        }
        self.resident += 1;
        self.total_refs += u64::from(count);
        if count == 0 {
            self.unpinned += 1;
            let gen = self.nodes[idx as usize].gen;
            self.heap.push(Reverse((stamp, idx, gen)));
        }
        idx
    }

    /// Frees a zero-ref leaf, unlinking it from its parent; if that leaves
    /// the parent a zero-ref leaf, the parent becomes the next candidate.
    fn remove_leaf(&mut self, idx: u32) {
        let (sig, parent) = {
            let node = &mut self.nodes[idx as usize];
            node.live = false;
            node.gen = node.gen.wrapping_add(1);
            (node.sig, node.parent)
        };
        let children = if parent == NIL {
            &mut self.roots
        } else {
            &mut self.nodes[parent as usize].children
        };
        if let Ok(pos) = children.binary_search_by_key(&sig, |&(s, _)| s) {
            children.remove(pos);
        }
        self.free_list.push(idx);
        self.resident -= 1;
        self.unpinned -= 1;
        if parent != NIL {
            let p = &self.nodes[parent as usize];
            if p.live && p.refs == 0 && p.children.is_empty() {
                self.heap.push(Reverse((p.last_use, parent, p.gen)));
            }
        }
    }
}
