//! A small fully-associative flow cache with pluggable replacement.
//!
//! Models the hardware structures of the AFD: fixed entry count, each
//! entry holding a flow ID and a saturating hit counter. Replacement is
//! LFU (the paper's choice for both AFC and annex) or LRU (kept for the
//! ablation bench). Ties break deterministically toward the
//! least-recently-touched entry, as a hardware pseudo-age would.
//!
//! Implementation: entries live in a dense slot array, a fixed-seed
//! [`DetHashMap`] maps each key to its slot, and an indexed binary
//! min-heap of slot indices ordered by `(rank, stamp)` keeps the
//! replacement victim at its root. A hit re-sifts one entry by moving
//! slot indices, with no further hashing; a miss into a full cache
//! overwrites the root slot in place and sifts it down once
//! (replace-top). Every `touch` and `insert` stamps its entry with a
//! fresh, strictly increasing tick, so no two entries share a stamp and
//! the order is a strict total order: the heap evicts exactly the flows
//! any other min-ordered structure would, such as the
//! `BTreeSet<(rank, stamp, key)>` it replaced (DESIGN.md, "AFD eviction
//! order").

use nphash::det::{det_map_with_capacity, DetHashMap};
use nphash::FlowId;
use std::collections::hash_map::Entry as MapEntry;
use std::hash::Hash;

/// Replacement policy of a [`FlowCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Least-frequently-used, ties to the oldest touch (paper default).
    Lfu,
    /// Least-recently-used (ablation comparator).
    Lru,
}

/// One resident entry.
#[derive(Debug, Clone, Copy)]
struct Slot<K> {
    key: K,
    count: u64,
    stamp: u64,
    /// This slot's index in the heap.
    pos: u32,
}

/// A fixed-capacity, fully-associative cache of flow keys with counters.
///
/// Generic over the key: the experiments address flows by [`FlowId`]
/// (the default), while the simulation hot path uses dense
/// `nphash::FlowSlot`s — same structure, cheaper keys.
///
/// Lookups cost one hash probe; `touch`, `insert` and `remove` then do
/// `O(log n)` moves of heap entries. The slot array and the heap are
/// sized to the capacity at construction and never grow.
#[derive(Debug, Clone)]
pub struct FlowCache<K = FlowId> {
    policy: CachePolicy,
    capacity: usize,
    /// Key → index into `slots`.
    index: DetHashMap<K, u32>,
    /// Resident entries, dense: `slots.len()` is the occupancy.
    slots: Vec<Slot<K>>,
    /// Min-heap of indices into `slots`; the root is the next victim.
    heap: Vec<u32>,
    tick: u64,
}

impl<K: Copy + Eq + Ord + Hash> FlowCache<K> {
    /// An empty cache of `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or does not fit a `u32` slot index.
    pub fn new(capacity: usize, policy: CachePolicy) -> Self {
        assert!(capacity > 0, "cache needs at least one entry");
        assert!(
            u32::try_from(capacity).is_ok(),
            "cache capacity must fit a u32 slot index"
        );
        FlowCache {
            policy,
            capacity,
            // One spare entry: replace-top maps the new flow before it
            // unmaps the victim.
            index: det_map_with_capacity(capacity + 1),
            slots: Vec::with_capacity(capacity),
            heap: Vec::with_capacity(capacity),
            tick: 0,
        }
    }

    /// The eviction-order key of an entry; the smallest is the victim.
    ///
    /// `(rank, stamp)`: no two resident entries share a stamp, so the
    /// flow key never has to break a tie.
    fn rank(&self, s: &Slot<K>) -> (u64, u64) {
        match self.policy {
            CachePolicy::Lfu => (s.count, s.stamp),
            CachePolicy::Lru => (0, s.stamp),
        }
    }

    /// The rank of the entry in slot `slot`. Heap entries always index
    /// resident slots; a dangling index would rank last rather than
    /// panic on the packet path.
    fn rank_of(&self, slot: u32) -> (u64, u64) {
        self.slots
            .get(slot as usize)
            .map_or((u64::MAX, u64::MAX), |s| self.rank(s))
    }

    /// Put slot `slot` at heap position `pos` and record the position.
    /// Positions and slot indices are below the capacity, which fits a
    /// `u32` (checked in [`FlowCache::new`]).
    fn place(&mut self, pos: usize, slot: u32) {
        if let Some(h) = self.heap.get_mut(pos) {
            *h = slot;
        }
        if let Some(s) = self.slots.get_mut(slot as usize) {
            s.pos = pos as u32;
        }
    }

    /// Move the entry at heap position `pos` toward the root while it
    /// ranks below its parent.
    fn sift_up(&mut self, mut pos: usize) {
        let Some(&moving) = self.heap.get(pos) else {
            return;
        };
        let key = self.rank_of(moving);
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let Some(&p) = self.heap.get(parent) else {
                break;
            };
            if self.rank_of(p) <= key {
                break;
            }
            self.place(pos, p);
            pos = parent;
        }
        self.place(pos, moving);
    }

    /// Move the entry at heap position `pos` toward the leaves while a
    /// child ranks below it.
    fn sift_down(&mut self, mut pos: usize) {
        let Some(&moving) = self.heap.get(pos) else {
            return;
        };
        let key = self.rank_of(moving);
        loop {
            let left = 2 * pos + 1;
            let Some(&l) = self.heap.get(left) else {
                break;
            };
            let (mut child, mut child_slot, mut child_key) = (left, l, self.rank_of(l));
            if let Some(&r) = self.heap.get(left + 1) {
                let right_key = self.rank_of(r);
                if right_key < child_key {
                    (child, child_slot, child_key) = (left + 1, r, right_key);
                }
            }
            if child_key >= key {
                break;
            }
            self.place(pos, child_slot);
            pos = child;
        }
        self.place(pos, moving);
    }

    /// Restore heap order at `pos` after its entry's rank moved either
    /// way.
    fn resift(&mut self, pos: usize) {
        let above_parent = pos > 0
            && match (self.heap.get(pos), self.heap.get((pos - 1) / 2)) {
                (Some(&c), Some(&p)) => self.rank_of(c) < self.rank_of(p),
                _ => false,
            };
        if above_parent {
            self.sift_up(pos);
        } else {
            self.sift_down(pos);
        }
    }

    /// Number of resident flows.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds no flows.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether the cache is at capacity.
    pub fn is_full(&self) -> bool {
        self.slots.len() >= self.capacity
    }

    /// Configured entry count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `flow` is resident.
    pub fn contains(&self, flow: K) -> bool {
        self.index.contains_key(&flow)
    }

    /// The hit counter of `flow`, if resident.
    pub fn count_of(&self, flow: K) -> Option<u64> {
        let &slot = self.index.get(&flow)?;
        self.slots.get(slot as usize).map(|s| s.count)
    }

    /// Touch `flow` if resident: bump its counter (and recency), returning
    /// the new count. `None` on miss — the cache is *not* modified.
    pub fn touch(&mut self, flow: K) -> Option<u64> {
        self.tick += 1;
        let &slot = self.index.get(&flow)?;
        let s = self.slots.get_mut(slot as usize)?;
        s.count = s.count.saturating_add(1);
        s.stamp = self.tick;
        let (count, pos) = (s.count, s.pos as usize);
        // Count and stamp only grow, under either policy: the entry can
        // only move away from the root.
        self.sift_down(pos);
        Some(count)
    }

    /// Insert `flow` with an initial `count`, evicting the replacement
    /// victim if full. Returns the evicted `(flow, count)`, if any.
    ///
    /// Inserting a flow that is already resident just overwrites its
    /// counter (no eviction).
    pub fn insert(&mut self, flow: K, count: u64) -> Option<(K, u64)> {
        self.tick += 1;
        let stamp = self.tick;
        let len = self.slots.len();
        match self.index.entry(flow) {
            MapEntry::Occupied(e) => {
                let s = self.slots.get_mut(*e.get() as usize)?;
                s.count = count;
                s.stamp = stamp;
                let pos = s.pos as usize;
                self.resift(pos);
                None
            }
            MapEntry::Vacant(e) if len >= self.capacity => {
                // Replace-top: the victim's slot takes the new flow in
                // place and sinks once — "evict the minimum, then
                // insert" in one sift.
                let &root = self.heap.first()?;
                let s = self.slots.get_mut(root as usize)?;
                let victim = (s.key, s.count);
                *s = Slot {
                    key: flow,
                    count,
                    stamp,
                    pos: 0,
                };
                e.insert(root);
                self.index.remove(&victim.0);
                self.sift_down(0);
                Some(victim)
            }
            MapEntry::Vacant(e) => {
                // `len < capacity`, which fits a u32 (see `new`).
                let slot = len as u32;
                self.slots.push(Slot {
                    key: flow,
                    count,
                    stamp,
                    pos: slot,
                });
                self.heap.push(slot);
                e.insert(slot);
                self.sift_up(len);
                None
            }
        }
    }

    /// Remove `flow`, returning its count if it was resident.
    pub fn remove(&mut self, flow: K) -> Option<u64> {
        let slot = self.index.remove(&flow)? as usize;
        let removed = *self.slots.get(slot)?;
        let hole = removed.pos as usize;
        // Unlink from the heap: the last heap entry fills the hole.
        let last = self.heap.pop()?;
        if hole < self.heap.len() {
            self.place(hole, last);
            self.resift(hole);
        }
        // Keep the slot array dense: the last slot fills the hole.
        self.slots.swap_remove(slot);
        if let Some(moved) = self.slots.get(slot).copied() {
            if let Some(h) = self.heap.get_mut(moved.pos as usize) {
                *h = slot as u32;
            }
            if let Some(i) = self.index.get_mut(&moved.key) {
                *i = slot as u32;
            }
        }
        Some(removed.count)
    }

    /// The current replacement victim (least-ranked entry), if any.
    pub fn victim(&self) -> Option<(K, u64)> {
        let s = self.slots.get(*self.heap.first()? as usize)?;
        Some((s.key, s.count))
    }

    /// Resident flows, unordered.
    pub fn flows(&self) -> Vec<K> {
        // npcheck: allow(blocking-hot-path) — reporting accessor, not on the per-packet path
        self.slots.iter().map(|s| s.key).collect()
    }

    /// Resident flows ordered by descending counter (descending rank).
    pub fn flows_by_count(&self) -> Vec<(K, u64)> {
        // npcheck: allow(blocking-hot-path) — reporting accessor, not on the per-packet path
        let mut v: Vec<(K, u64)> = self.slots.iter().map(|s| (s.key, s.count)).collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Halve every counter (counter aging, used by long-running
    /// deployments to let stale elephants decay; ablation knob).
    pub fn age_counters(&mut self) {
        for s in &mut self.slots {
            s.count /= 2;
        }
        // Halving can make two counts equal and hand the tie to the
        // older stamp, reversing a pair: rebuild the heap bottom-up.
        for pos in (0..self.heap.len() / 2).rev() {
            self.sift_down(pos);
        }
    }

    /// Clear all entries (counters and order), e.g. at a measurement-
    /// window boundary.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u64) -> FlowId {
        FlowId::from_index(i)
    }

    #[test]
    fn touch_misses_do_not_insert() {
        let mut c = FlowCache::new(2, CachePolicy::Lfu);
        assert_eq!(c.touch(f(1)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn insert_then_touch_counts() {
        let mut c = FlowCache::new(2, CachePolicy::Lfu);
        assert_eq!(c.insert(f(1), 1), None);
        assert_eq!(c.touch(f(1)), Some(2));
        assert_eq!(c.touch(f(1)), Some(3));
        assert_eq!(c.count_of(f(1)), Some(3));
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = FlowCache::new(2, CachePolicy::Lfu);
        c.insert(f(1), 1);
        c.insert(f(2), 1);
        c.touch(f(1)); // f1 count 2, f2 count 1
        let victim = c.insert(f(3), 1).expect("eviction");
        assert_eq!(victim.0, f(2));
        assert!(c.contains(f(1)) && c.contains(f(3)));
    }

    #[test]
    fn lfu_tie_breaks_to_oldest() {
        let mut c = FlowCache::new(2, CachePolicy::Lfu);
        c.insert(f(1), 1);
        c.insert(f(2), 1);
        // Equal counts: the older (f1) is evicted.
        let victim = c.insert(f(3), 1).unwrap();
        assert_eq!(victim.0, f(1));
    }

    #[test]
    fn lru_evicts_least_recent_regardless_of_count() {
        let mut c = FlowCache::new(2, CachePolicy::Lru);
        c.insert(f(1), 100);
        c.insert(f(2), 1);
        c.touch(f(1)); // f1 most recent despite insertion order
        let victim = c.insert(f(3), 1).unwrap();
        assert_eq!(victim.0, f(2));
    }

    #[test]
    fn remove_and_victim() {
        let mut c = FlowCache::new(3, CachePolicy::Lfu);
        c.insert(f(1), 5);
        c.insert(f(2), 1);
        c.insert(f(3), 9);
        assert_eq!(c.victim().unwrap().0, f(2));
        assert_eq!(c.remove(f(2)), Some(1));
        assert_eq!(c.remove(f(2)), None);
        assert_eq!(c.victim().unwrap().0, f(1));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_overwrites_without_eviction() {
        let mut c = FlowCache::new(2, CachePolicy::Lfu);
        c.insert(f(1), 1);
        c.insert(f(2), 2);
        assert_eq!(c.insert(f(1), 10), None);
        assert_eq!(c.count_of(f(1)), Some(10));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn flows_by_count_sorted() {
        let mut c = FlowCache::new(4, CachePolicy::Lfu);
        c.insert(f(1), 3);
        c.insert(f(2), 7);
        c.insert(f(3), 1);
        let v = c.flows_by_count();
        assert_eq!(v[0], (f(2), 7));
        assert_eq!(v[2], (f(3), 1));
    }

    #[test]
    fn aging_halves_counts_and_reorders() {
        let mut c = FlowCache::new(3, CachePolicy::Lfu);
        c.insert(f(1), 9);
        c.insert(f(2), 4);
        c.age_counters();
        assert_eq!(c.count_of(f(1)), Some(4));
        assert_eq!(c.count_of(f(2)), Some(2));
        assert_eq!(c.victim().unwrap().0, f(2));
    }

    #[test]
    fn clear_empties() {
        let mut c = FlowCache::new(2, CachePolicy::Lfu);
        c.insert(f(1), 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.victim(), None);
    }

    /// The heap's own invariant: every slot's stored position matches
    /// its heap index, each parent ranks at most its children, and the
    /// key index points at the slot holding that key.
    fn assert_heap_invariant(c: &FlowCache) {
        assert_eq!(c.heap.len(), c.slots.len());
        assert_eq!(c.index.len(), c.slots.len());
        for (pos, &slot) in c.heap.iter().enumerate() {
            let slot = slot as usize;
            assert_eq!(c.slots[slot].pos as usize, pos, "slot {slot} misplaced");
            if pos > 0 {
                let parent = c.heap[(pos - 1) / 2] as usize;
                assert!(c.rank(&c.slots[parent]) <= c.rank(&c.slots[slot]));
            }
        }
        for (i, s) in c.slots.iter().enumerate() {
            assert_eq!(c.index.get(&s.key), Some(&(i as u32)));
        }
    }

    #[test]
    fn order_and_entries_stay_consistent_under_churn() {
        for policy in [CachePolicy::Lfu, CachePolicy::Lru] {
            let mut c = FlowCache::new(8, policy);
            for i in 0..1_000u64 {
                match i % 4 {
                    0 => {
                        c.insert(f(i % 20), i % 5);
                    }
                    1 => {
                        c.touch(f(i % 20));
                    }
                    2 => {
                        c.remove(f(i % 11));
                    }
                    _ if i % 100 == 99 => c.age_counters(),
                    _ => {
                        c.touch(f(i % 7));
                    }
                }
                assert!(c.len() <= 8);
                assert_heap_invariant(&c);
            }
        }
    }
}
