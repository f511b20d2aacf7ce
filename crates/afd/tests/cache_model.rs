//! Model test for `FlowCache`'s eviction order.
//!
//! `OrderedCache` below is the `BTreeSet<(rank, stamp, key)>` cache the
//! heap-ordered `FlowCache` replaced, kept verbatim in behaviour as an
//! oracle. Random sequences of `touch` / `insert` / `remove` /
//! `age_counters` / `clear` drive both caches, under LFU and LRU and at
//! capacities 1..=40 over a small key space; after every operation the
//! two must agree on the return value, `victim()`, `len()`, `count_of()`
//! for every key, and `flows_by_count()`.

use npafd::{CachePolicy, FlowCache};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Keys drawn per operation: small enough that even the largest cache
/// sees hits, large enough that the smallest churns.
const KEYS: u32 = 48;

#[derive(Debug, Clone, Copy)]
struct Entry {
    count: u64,
    stamp: u64,
}

/// The reference cache: a map of entries plus a `BTreeSet` holding the
/// eviction order, smallest first.
#[derive(Debug)]
struct OrderedCache {
    policy: CachePolicy,
    capacity: usize,
    entries: BTreeMap<u32, Entry>,
    order: BTreeSet<(u64, u64, u32)>,
    tick: u64,
}

impl OrderedCache {
    fn new(capacity: usize, policy: CachePolicy) -> Self {
        OrderedCache {
            policy,
            capacity,
            entries: BTreeMap::new(),
            order: BTreeSet::new(),
            tick: 0,
        }
    }

    fn rank(&self, key: u32, e: &Entry) -> (u64, u64, u32) {
        match self.policy {
            CachePolicy::Lfu => (e.count, e.stamp, key),
            CachePolicy::Lru => (0, e.stamp, key),
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn count_of(&self, key: u32) -> Option<u64> {
        self.entries.get(&key).map(|e| e.count)
    }

    fn touch(&mut self, key: u32) -> Option<u64> {
        self.tick += 1;
        let old = *self.entries.get(&key)?;
        let new = Entry {
            count: old.count.saturating_add(1),
            stamp: self.tick,
        };
        self.order.remove(&self.rank(key, &old));
        self.order.insert(self.rank(key, &new));
        self.entries.insert(key, new);
        Some(new.count)
    }

    fn insert(&mut self, key: u32, count: u64) -> Option<(u32, u64)> {
        self.tick += 1;
        let new = Entry {
            count,
            stamp: self.tick,
        };
        if let Some(old) = self.entries.get(&key).copied() {
            self.order.remove(&self.rank(key, &old));
            self.order.insert(self.rank(key, &new));
            self.entries.insert(key, new);
            return None;
        }
        let victim = if self.entries.len() >= self.capacity {
            let first = *self.order.iter().next().expect("full cache has a victim");
            self.order.remove(&first);
            let e = self
                .entries
                .remove(&first.2)
                .expect("ordered key is resident");
            Some((first.2, e.count))
        } else {
            None
        };
        self.order.insert(self.rank(key, &new));
        self.entries.insert(key, new);
        victim
    }

    fn remove(&mut self, key: u32) -> Option<u64> {
        let e = self.entries.remove(&key)?;
        self.order.remove(&self.rank(key, &e));
        Some(e.count)
    }

    fn victim(&self) -> Option<(u32, u64)> {
        let &(_, _, key) = self.order.iter().next()?;
        self.count_of(key).map(|c| (key, c))
    }

    fn flows_by_count(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self.entries.iter().map(|(&k, e)| (k, e.count)).collect();
        v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    fn age_counters(&mut self) {
        let aged: Vec<(u32, Entry)> = self
            .entries
            .iter()
            .map(|(&k, e)| {
                (
                    k,
                    Entry {
                        count: e.count / 2,
                        stamp: e.stamp,
                    },
                )
            })
            .collect();
        self.order.clear();
        for (k, e) in aged {
            self.order.insert(self.rank(k, &e));
            self.entries.insert(k, e);
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Touch(u32),
    Insert(u32, u64),
    Remove(u32),
    Age,
    Clear,
}

/// Weighted: mostly hits and inserts, some removals, rare aging and
/// clears. Counts include a near-saturated value so `touch`'s
/// saturating increment is exercised.
fn op() -> impl Strategy<Value = Op> {
    (
        0u8..20,
        0u32..KEYS,
        prop_oneof![0u64..6, 0u64..400, Just(u64::MAX - 1)],
    )
        .prop_map(|(kind, key, count)| match kind {
            0..=7 => Op::Touch(key),
            8..=13 => Op::Insert(key, count),
            14..=17 => Op::Remove(key),
            18 => Op::Age,
            _ => Op::Clear,
        })
}

fn assert_same_state(heap: &FlowCache<u32>, model: &OrderedCache, step: usize) {
    assert_eq!(heap.len(), model.len(), "len after step {step}");
    assert_eq!(heap.victim(), model.victim(), "victim after step {step}");
    for key in 0..KEYS {
        assert_eq!(
            heap.count_of(key),
            model.count_of(key),
            "count_of({key}) after step {step}"
        );
    }
    assert_eq!(
        heap.flows_by_count(),
        model.flows_by_count(),
        "flows_by_count after step {step}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn heap_cache_matches_ordered_model(
        capacity in 1usize..41,
        lru in any::<bool>(),
        ops in proptest::collection::vec(op(), 1..400),
    ) {
        let policy = if lru { CachePolicy::Lru } else { CachePolicy::Lfu };
        let mut heap: FlowCache<u32> = FlowCache::new(capacity, policy);
        let mut model = OrderedCache::new(capacity, policy);
        for (step, &op) in ops.iter().enumerate() {
            match op {
                Op::Touch(k) => {
                    prop_assert_eq!(heap.touch(k), model.touch(k), "touch({}) at step {}", k, step);
                }
                Op::Insert(k, c) => {
                    prop_assert_eq!(heap.insert(k, c), model.insert(k, c), "insert({}, {}) at step {}", k, c, step);
                }
                Op::Remove(k) => {
                    prop_assert_eq!(heap.remove(k), model.remove(k), "remove({}) at step {}", k, step);
                }
                Op::Age => {
                    heap.age_counters();
                    model.age_counters();
                }
                Op::Clear => {
                    heap.clear();
                    model.clear();
                }
            }
            assert_same_state(&heap, &model, step);
        }
    }
}
