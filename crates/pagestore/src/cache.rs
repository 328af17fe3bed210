//! An O(1) LRU residency cache.
//!
//! Both tiers of the paper's client/server architecture (32 MB client
//! cache, 4 MB server cache) are modelled as LRU sets of [`PageId`](crate::page::PageId)s:
//! the *data* always lives on the in-memory [`Disk`](crate::disk::Disk),
//! so the caches only need to decide hit vs. miss and pick eviction
//! victims — which is all the paper's counters (`CCMissrate`,
//! `SCMissrate`, `CCPagefaults`, RPC and disk-read counts) depend on.
//!
//! Implementation: a slab of doubly-linked nodes plus a hash map from
//! key to slab index (keyed with the vendored
//! [`FxHasher`](tq_fasthash::FxHasher) — the map is the hottest lookup
//! in the whole simulator, touched twice per simulated page access).
//! `touch`, `insert` and eviction are all O(1); callers that have just
//! seen a key miss admit it with [`LruCache::insert_absent`], which
//! skips the repeat probe.

use std::hash::Hash;
use tq_fasthash::{FxBuildHasher, FxHashMap};

const NIL: usize = usize::MAX;

/// Upper bound on *eager* allocation in [`LruCache::new`], in entries.
/// A cache sized for a paper-scale client (millions of pages) must not
/// pay its full footprint up front — the map and slab both start at
/// most this large and grow on demand.
const PREALLOC_CAP: usize = 1 << 20;

#[derive(Clone)]
struct Node<K> {
    key: K,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU set.
///
/// Generic over the key so tests can model it with small integers; the
/// storage stack instantiates it with [`PageId`](crate::page::PageId).
#[derive(Clone)]
pub struct LruCache<K: Eq + Hash + Copy> {
    // (fields below; see Debug impl at the bottom of the file)
    map: FxHashMap<K, usize>,
    slab: Vec<Node<K>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Copy> LruCache<K> {
    /// Creates a cache holding at most `capacity` keys. A capacity of 0
    /// is a legal degenerate cache that misses everything.
    pub fn new(capacity: usize) -> Self {
        Self {
            map: FxHashMap::with_capacity_and_hasher(
                capacity.min(PREALLOC_CAP),
                FxBuildHasher::default(),
            ),
            slab: Vec::with_capacity(capacity.min(PREALLOC_CAP)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Maximum number of resident keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently resident keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True if `key` is resident, *without* touching recency.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Marks `key` as most recently used. Returns `true` on hit.
    pub fn touch(&mut self, key: K) -> bool {
        // Sequential scans touch the same page dozens of times in a row
        // (and rid-run cursors touch theirs once per rid); when the key
        // is already at the MRU position the map probe — the hottest
        // lookup in the simulator — can be skipped outright. Hit/miss
        // outcome and recency order are unchanged.
        if self.head != NIL && self.slab[self.head].key == key {
            return true;
        }
        let Some(&idx) = self.map.get(&key) else {
            return false;
        };
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
        true
    }

    /// Inserts `key` as most recently used, evicting the LRU key if the
    /// cache is full. Returns the evicted key, if any.
    ///
    /// Inserting an already-resident key just touches it.
    pub fn insert(&mut self, key: K) -> Option<K> {
        if self.touch(key) {
            return None;
        }
        self.insert_absent(key)
    }

    /// [`LruCache::insert`] for a key the caller has just seen miss
    /// (a `touch` that returned `false`, with no mutation since):
    /// skips the residency probe that `insert` would repeat. The
    /// result — eviction victim and recency order — is identical.
    ///
    /// Inserting a resident key through this breaks the cache's
    /// invariants; debug builds check.
    pub fn insert_absent(&mut self, key: K) -> Option<K> {
        if self.capacity == 0 {
            return None;
        }
        let evicted = if self.map.len() == self.capacity {
            let victim_idx = self.tail;
            let victim = self.slab[victim_idx].key;
            self.unlink(victim_idx);
            self.map.remove(&victim);
            self.free.push(victim_idx);
            Some(victim)
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i].key = key;
                i
            }
            None => {
                self.slab.push(Node {
                    key,
                    prev: NIL,
                    next: NIL,
                });
                self.slab.len() - 1
            }
        };
        self.push_front(idx);
        let previous = self.map.insert(key, idx);
        debug_assert!(previous.is_none(), "insert_absent of a resident key");
        evicted
    }

    /// Removes `key` if resident. Returns `true` if it was.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(idx) = self.map.remove(key) else {
            return false;
        };
        self.unlink(idx);
        self.free.push(idx);
        true
    }

    /// Drops everything (a server shutdown / cold restart, which the
    /// paper performs before every measured query).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Keys from most- to least-recently used (test/diagnostic helper).
    pub fn keys_mru_to_lru(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut at = self.head;
        while at != NIL {
            out.push(self.slab[at].key);
            at = self.slab[at].next;
        }
        out
    }
}

impl<K: Eq + Hash + Copy + std::fmt::Debug> std::fmt::Debug for LruCache<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss() {
        let mut c = LruCache::new(2);
        assert!(!c.touch(1));
        assert_eq!(c.insert(1), None);
        assert!(c.touch(1));
        assert!(c.contains(&1));
        assert!(!c.contains(&2));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(3);
        c.insert(1);
        c.insert(2);
        c.insert(3);
        c.touch(1); // order now 1,3,2
        assert_eq!(c.insert(4), Some(2));
        assert_eq!(c.keys_mru_to_lru(), vec![4, 1, 3]);
    }

    #[test]
    fn reinsert_touches_instead_of_duplicating() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        assert_eq!(c.insert(1), None); // touch, no eviction
        assert_eq!(c.len(), 2);
        assert_eq!(c.insert(3), Some(2));
    }

    #[test]
    fn zero_capacity_never_stores() {
        let mut c = LruCache::new(0);
        assert_eq!(c.insert(1), None);
        assert!(!c.contains(&1));
        assert!(c.is_empty());
    }

    #[test]
    fn remove_and_clear() {
        let mut c = LruCache::new(4);
        for k in 0..4 {
            c.insert(k);
        }
        assert!(c.remove(&2));
        assert!(!c.remove(&2));
        assert_eq!(c.len(), 3);
        c.insert(9); // reuses freed slab node
        assert_eq!(c.len(), 4);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.contains(&9));
    }

    #[test]
    fn capacity_one() {
        let mut c = LruCache::new(1);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(2), Some(1));
        assert!(c.contains(&2));
        assert!(!c.contains(&1));
    }

    /// Exhaustive small-trace check against a naive model.
    #[test]
    fn matches_naive_model_on_random_trace() {
        use std::collections::VecDeque;
        // Simple deterministic pseudo-random sequence.
        let mut x: u64 = 0x2545F4914F6CDD1D;
        let mut nxt = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % 16) as u32
        };
        let mut lru = LruCache::new(5);
        let mut model: VecDeque<u32> = VecDeque::new(); // front = MRU
        for _ in 0..10_000 {
            let k = nxt();
            let model_hit = model.contains(&k);
            let hit = lru.touch(k);
            assert_eq!(hit, model_hit);
            if hit {
                let pos = model.iter().position(|&m| m == k).unwrap();
                model.remove(pos);
                model.push_front(k);
            } else {
                let evicted = lru.insert(k);
                if model.len() == 5 {
                    let victim = model.pop_back();
                    assert_eq!(evicted, victim);
                } else {
                    assert_eq!(evicted, None);
                }
                model.push_front(k);
            }
            assert_eq!(lru.keys_mru_to_lru(), Vec::from(model.clone()));
        }
    }
}
