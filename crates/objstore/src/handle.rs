//! In-memory object representatives ("Handles").
//!
//! The paper's §4 diagnosis: every object touched in client memory gets
//! a ~60-byte *Handle* — flags, class-info pointer, index-list pointer,
//! pin count, version pointer, schema-history info — that must be
//! "allocated, updated and freed whenever necessary", and this CPU cost
//! dominates cold associative scans. O2 mitigates repeat access by
//! *delaying* handle destruction "as much as possible".
//!
//! [`HandleTable`] models exactly that: pin-counted handles plus a
//! bounded delayed-free (zombie) pool, kept in one rid-keyed map. It
//! reports *what happened* on each operation ([`GetOutcome`], free
//! counts) so the [`ObjectStore`](crate::store::ObjectStore) can
//! charge the matching [`CpuEvent`](tq_pagestore::CpuEvent)s:
//!
//! * first get of an object → `HandleAlloc`
//! * get while live or zombied → `HandleTouch`
//! * unref → `HandleUnref` (pin drop only)
//! * zombie-pool eviction → `HandleFree` (the deferred teardown)
//!
//! so a one-pass scan pays alloc + unref + free per object
//! (the paper's ~0.125 ms), while repeated navigation to a hot parent
//! pays only touches.

use crate::rid::Rid;
use tq_fasthash::FxHashMap;

/// Simulated size of one full object handle (paper §4.4: "the structure
/// takes 60 Bytes of memory").
pub const HANDLE_BYTES: u64 = 60;

/// Default capacity of the delayed-free pool.
pub const DEFAULT_ZOMBIE_CAPACITY: usize = 4096;

/// What a [`HandleTable::get`] did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GetOutcome {
    /// A fresh handle was allocated.
    Allocated,
    /// The handle was live (pinned); its pin count was bumped.
    Touched,
    /// The handle sat in the delayed-free pool and was revived.
    Revived,
}

/// Cumulative handle-traffic statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HandleStats {
    /// Fresh allocations.
    pub allocations: u64,
    /// Re-pins of live handles.
    pub touches: u64,
    /// Revivals from the delayed-free pool.
    pub revivals: u64,
    /// Pin drops.
    pub unrefs: u64,
    /// Actual teardowns (delayed-free evictions + explicit drain).
    pub frees: u64,
    /// High-water mark of simultaneously existing handles
    /// (live + zombie).
    pub peak_handles: u64,
}

impl HandleStats {
    /// Simulated peak memory the handles occupied.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_handles * HANDLE_BYTES
    }
}

/// "No slot" marker for the intrusive zombie list.
const NIL: u32 = u32::MAX;

/// One handle: live while `pins > 0`, otherwise a zombie linked into
/// the delayed-free LRU list through `prev`/`next`.
#[derive(Clone)]
struct Slot {
    rid: Rid,
    pins: u32,
    prev: u32,
    next: u32,
}

/// The handle table: pin-counted live handles plus a delayed-free pool.
///
/// One map from rid to a slab slot holds both live handles and zombies
/// (a zombie is a slot with zero pins, threaded on an intrusive LRU
/// list), so every object access is a single hash probe: `get` is one
/// `entry` lookup, and [`HandleTable::unref_slot`] releases by slot
/// index without probing at all. Only a real free (a pool eviction or
/// a drain) removes a key.
#[derive(Clone)]
pub struct HandleTable {
    /// Slot index by rid, for live handles and zombies alike. Touched
    /// on every object access — FxHash, the same reasoning as the LRU
    /// key maps.
    map: FxHashMap<Rid, u32>,
    slab: Vec<Slot>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Most recently unpinned zombie.
    head: u32,
    /// Least recently unpinned zombie: the next eviction victim.
    tail: u32,
    zombies: usize,
    zombie_capacity: usize,
    stats: HandleStats,
}

impl Default for HandleTable {
    fn default() -> Self {
        Self::new(DEFAULT_ZOMBIE_CAPACITY)
    }
}

impl HandleTable {
    /// Creates a table whose delayed-free pool holds up to
    /// `zombie_capacity` unpinned handles before real frees happen.
    pub fn new(zombie_capacity: usize) -> Self {
        Self {
            map: FxHashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            zombies: 0,
            zombie_capacity,
            stats: HandleStats::default(),
        }
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let s = &self.slab[idx as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slab[idx as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slab[old_head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    /// Pins `rid`, reporting how the handle was obtained.
    pub fn get(&mut self, rid: Rid) -> GetOutcome {
        self.get_slot(rid).0
    }

    /// Pins `rid` and also returns its slot, which
    /// [`HandleTable::unref_slot`] takes back to release the pin
    /// without a lookup. The slot stays valid while the pin is held.
    pub fn get_slot(&mut self, rid: Rid) -> (GetOutcome, u32) {
        use std::collections::hash_map::Entry;
        match self.map.entry(rid) {
            Entry::Occupied(e) => {
                let idx = *e.get();
                let slot = &mut self.slab[idx as usize];
                if slot.pins > 0 {
                    slot.pins += 1;
                    self.stats.touches += 1;
                    return (GetOutcome::Touched, idx);
                }
                slot.pins = 1;
                self.unlink(idx);
                self.zombies -= 1;
                self.stats.revivals += 1;
                (GetOutcome::Revived, idx)
            }
            Entry::Vacant(e) => {
                let slot = Slot {
                    rid,
                    pins: 1,
                    prev: NIL,
                    next: NIL,
                };
                let idx = match self.free.pop() {
                    Some(idx) => {
                        self.slab[idx as usize] = slot;
                        idx
                    }
                    None => {
                        self.slab.push(slot);
                        u32::try_from(self.slab.len() - 1).expect("under 2^32 handles")
                    }
                };
                e.insert(idx);
                self.stats.allocations += 1;
                let now = self.map.len() as u64;
                if now > self.stats.peak_handles {
                    self.stats.peak_handles = now;
                }
                (GetOutcome::Allocated, idx)
            }
        }
    }

    /// Drops one pin. When the pin count reaches zero the handle moves
    /// to the delayed-free pool; returns the number of handles whose
    /// teardown this triggered (0 or 1 — a pool eviction).
    ///
    /// Panics on unref of a handle that was never pinned: that is a
    /// query-operator bug, not a data condition.
    pub fn unref(&mut self, rid: Rid) -> u64 {
        match self.map.get(&rid) {
            Some(&idx) => self.unref_slot(idx, rid),
            None => panic!("unref of unpinned handle {rid:?}"),
        }
    }

    /// [`HandleTable::unref`] for a pin taken by
    /// [`HandleTable::get_slot`]: releases by slot, with no lookup.
    ///
    /// Panics unless `slot` still holds a pinned handle for `rid`.
    pub fn unref_slot(&mut self, idx: u32, rid: Rid) -> u64 {
        let slot = self
            .slab
            .get_mut(idx as usize)
            .filter(|s| s.rid == rid && s.pins > 0)
            .unwrap_or_else(|| panic!("unref of unpinned handle {rid:?}"));
        self.stats.unrefs += 1;
        slot.pins -= 1;
        if slot.pins > 0 {
            return 0;
        }
        if self.zombie_capacity == 0 {
            self.map.remove(&rid);
            self.free.push(idx);
            self.stats.frees += 1;
            return 1;
        }
        let freed = if self.zombies == self.zombie_capacity {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slab[victim as usize].rid);
            self.free.push(victim);
            self.stats.frees += 1;
            1
        } else {
            self.zombies += 1;
            0
        };
        self.push_front(idx);
        freed
    }

    /// Tears down every unpinned handle (end of query / transaction).
    /// Returns the number of frees performed.
    pub fn drain_zombies(&mut self) -> u64 {
        let n = self.zombies as u64;
        if self.map.len() == self.zombies {
            // Nothing pinned: the whole table is the pool.
            self.map.clear();
            self.slab.clear();
            self.free.clear();
        } else {
            let mut at = self.head;
            while at != NIL {
                let slot = &self.slab[at as usize];
                let next = slot.next;
                self.map.remove(&slot.rid);
                self.free.push(at);
                at = next;
            }
        }
        self.head = NIL;
        self.tail = NIL;
        self.zombies = 0;
        self.stats.frees += n;
        n
    }

    /// Currently pinned handles.
    pub fn live_count(&self) -> usize {
        self.map.len() - self.zombies
    }

    /// Handles parked in the delayed-free pool.
    pub fn zombie_count(&self) -> usize {
        self.zombies
    }

    /// True if `rid` currently has a pinned handle.
    pub fn is_pinned(&self, rid: Rid) -> bool {
        self.map
            .get(&rid)
            .is_some_and(|&idx| self.slab[idx as usize].pins > 0)
    }

    /// Statistics so far.
    pub fn stats(&self) -> HandleStats {
        self.stats
    }

    /// Simulated bytes of handle memory right now.
    pub fn current_bytes(&self) -> u64 {
        self.map.len() as u64 * HANDLE_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_pagestore::{FileId, PageId};

    fn rid(n: u32) -> Rid {
        Rid::new(
            PageId {
                file: FileId(0),
                page_no: n,
            },
            0,
        )
    }

    #[test]
    fn scan_pattern_alloc_unref_then_pool() {
        let mut t = HandleTable::new(2);
        assert_eq!(t.get(rid(1)), GetOutcome::Allocated);
        assert_eq!(t.unref(rid(1)), 0, "goes to pool, no teardown yet");
        assert_eq!(t.live_count(), 0);
        assert_eq!(t.zombie_count(), 1);
        // Two more distinct objects overflow the 2-slot pool.
        t.get(rid(2));
        assert_eq!(t.unref(rid(2)), 0);
        t.get(rid(3));
        assert_eq!(t.unref(rid(3)), 1, "pool eviction frees rid 1");
        assert_eq!(t.stats().frees, 1);
    }

    #[test]
    fn navigation_pattern_touches_hot_handle() {
        let mut t = HandleTable::new(8);
        assert_eq!(t.get(rid(9)), GetOutcome::Allocated);
        for _ in 0..100 {
            assert_eq!(t.get(rid(9)), GetOutcome::Touched);
            t.unref(rid(9));
        }
        t.unref(rid(9));
        assert_eq!(t.get(rid(9)), GetOutcome::Revived);
        let s = t.stats();
        assert_eq!(s.allocations, 1);
        assert_eq!(s.touches, 100);
        assert_eq!(s.revivals, 1);
    }

    #[test]
    fn pin_counting_keeps_handle_live() {
        let mut t = HandleTable::new(4);
        t.get(rid(5));
        t.get(rid(5));
        t.unref(rid(5));
        assert!(t.is_pinned(rid(5)), "one pin remains");
        t.unref(rid(5));
        assert!(!t.is_pinned(rid(5)));
    }

    #[test]
    #[should_panic(expected = "unref of unpinned handle")]
    fn unref_without_get_panics() {
        let mut t = HandleTable::new(4);
        t.unref(rid(1));
    }

    #[test]
    #[should_panic(expected = "unref of unpinned handle")]
    fn unref_slot_after_release_panics() {
        let mut t = HandleTable::new(0);
        let (_, slot) = t.get_slot(rid(1));
        t.unref_slot(slot, rid(1));
        // The slot is free now (and may be reused for another rid).
        t.get(rid(2));
        t.unref_slot(slot, rid(1));
    }

    #[test]
    fn revival_keeps_the_slot() {
        let mut t = HandleTable::new(4);
        let (_, slot) = t.get_slot(rid(3));
        assert_eq!(t.unref_slot(slot, rid(3)), 0);
        assert_eq!(t.get_slot(rid(3)), (GetOutcome::Revived, slot));
        assert_eq!(t.get_slot(rid(3)), (GetOutcome::Touched, slot));
        assert_eq!(t.live_count(), 1);
        assert_eq!(t.zombie_count(), 0);
    }

    #[test]
    fn zero_capacity_pool_frees_immediately() {
        let mut t = HandleTable::new(0);
        t.get(rid(1));
        assert_eq!(t.unref(rid(1)), 1);
        assert_eq!(t.stats().frees, 1);
        assert_eq!(t.get(rid(1)), GetOutcome::Allocated, "nothing to revive");
    }

    #[test]
    fn drain_and_memory_accounting() {
        let mut t = HandleTable::new(16);
        for i in 0..10 {
            t.get(rid(i));
        }
        assert_eq!(t.current_bytes(), 10 * HANDLE_BYTES);
        for i in 0..10 {
            t.unref(rid(i));
        }
        assert_eq!(t.zombie_count(), 10);
        assert_eq!(t.drain_zombies(), 10);
        assert_eq!(t.current_bytes(), 0);
        assert_eq!(t.stats().peak_handles, 10);
        assert_eq!(t.stats().peak_bytes(), 600);
    }
}
