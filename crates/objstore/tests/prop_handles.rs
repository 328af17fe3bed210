//! Randomized model tests: the single-map handle table against a naive
//! reference (a pin-count map plus a `VecDeque` delayed-free pool).
//! Deterministically seeded.

use std::collections::{HashMap, VecDeque};
use tq_objstore::{GetOutcome, HandleStats, HandleTable, Rid};
use tq_pagestore::{FileId, PageId};
use tq_simrng::SimRng;

fn rid(n: u32) -> Rid {
    Rid::new(
        PageId {
            file: FileId(n % 3),
            page_no: n / 7,
        },
        (n % 7) as u16,
    )
}

/// The reference: pins of live handles, and the zombie pool with its
/// front as the most recently unpinned handle.
struct Model {
    pins: HashMap<Rid, u32>,
    zombies: VecDeque<Rid>,
    cap: usize,
    stats: HandleStats,
}

impl Model {
    fn new(cap: usize) -> Self {
        Self {
            pins: HashMap::new(),
            zombies: VecDeque::new(),
            cap,
            stats: HandleStats::default(),
        }
    }

    fn get(&mut self, r: Rid) -> GetOutcome {
        if let Some(p) = self.pins.get_mut(&r) {
            *p += 1;
            self.stats.touches += 1;
            return GetOutcome::Touched;
        }
        self.pins.insert(r, 1);
        if let Some(pos) = self.zombies.iter().position(|&z| z == r) {
            self.zombies.remove(pos);
            self.stats.revivals += 1;
            return GetOutcome::Revived;
        }
        self.stats.allocations += 1;
        let now = (self.pins.len() + self.zombies.len()) as u64;
        self.stats.peak_handles = self.stats.peak_handles.max(now);
        GetOutcome::Allocated
    }

    fn unref(&mut self, r: Rid) -> u64 {
        self.stats.unrefs += 1;
        let p = self.pins.get_mut(&r).expect("model unref of unpinned rid");
        *p -= 1;
        if *p > 0 {
            return 0;
        }
        self.pins.remove(&r);
        if self.cap == 0 {
            self.stats.frees += 1;
            return 1;
        }
        self.zombies.push_front(r);
        if self.zombies.len() > self.cap {
            self.zombies.pop_back();
            self.stats.frees += 1;
            return 1;
        }
        0
    }

    fn drain(&mut self) -> u64 {
        let n = self.zombies.len() as u64;
        self.zombies.clear();
        self.stats.frees += n;
        n
    }
}

/// Runs one seeded trace of get / unref / unref_slot over `keys`
/// distinct rids, with a drain about once every `drain_every` steps,
/// and checks every observable after every step, then releases every
/// pin. Returns the number of frees done by unrefs (pool evictions).
fn run_trace(seed: u64, cap: usize, keys: u32, ops: usize, drain_every: u64) -> u64 {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut table = HandleTable::new(cap);
    let mut model = Model::new(cap);
    // Slot of every pinned rid, as `get_slot` reported it.
    let mut slots: HashMap<Rid, u32> = HashMap::new();
    let mut pinned: Vec<Rid> = Vec::new();
    let mut evictions = 0;
    for step in 0..ops {
        let roll = rng.below(200);
        let touched = if rng.below(drain_every) == 0 {
            assert_eq!(
                table.drain_zombies(),
                model.drain(),
                "seed {seed} step {step}: drain"
            );
            rid(rng.below(keys as u64) as u32)
        } else if roll < 95 || pinned.is_empty() {
            let r = rid(rng.below(keys as u64) as u32);
            let (outcome, slot) = table.get_slot(r);
            assert_eq!(outcome, model.get(r), "seed {seed} step {step}: get {r:?}");
            match outcome {
                GetOutcome::Touched => assert_eq!(slots[&r], slot, "a pinned rid keeps its slot"),
                _ => assert_eq!(slots.insert(r, slot), None),
            }
            pinned.push(r);
            r
        } else {
            let r = pinned.swap_remove(rng.index(pinned.len()));
            let frees = if rng.bool() {
                table.unref(r)
            } else {
                table.unref_slot(slots[&r], r)
            };
            assert_eq!(
                frees,
                model.unref(r),
                "seed {seed} step {step}: unref {r:?}"
            );
            evictions += frees;
            if !model.pins.contains_key(&r) {
                slots.remove(&r);
            }
            r
        };
        assert_eq!(table.stats(), model.stats, "seed {seed} step {step}");
        assert_eq!(table.live_count(), model.pins.len());
        assert_eq!(table.zombie_count(), model.zombies.len());
        let probe = rid(rng.below(keys as u64) as u32);
        for r in [touched, probe] {
            assert_eq!(table.is_pinned(r), model.pins.contains_key(&r));
        }
    }
    // Release everything, drain, and the table is empty again.
    for r in pinned {
        let frees = table.unref_slot(slots[&r], r);
        assert_eq!(frees, model.unref(r));
        evictions += frees;
    }
    assert_eq!(table.drain_zombies(), model.drain());
    assert_eq!(table.stats(), model.stats);
    assert_eq!(table.live_count(), 0);
    assert_eq!(table.zombie_count(), 0);
    assert_eq!(table.current_bytes(), 0);
    assert!(model.stats.touches > 0 && model.stats.revivals > 0 || cap == 0);
    evictions
}

#[test]
fn handle_table_matches_model_small_pools() {
    for cap in [0usize, 1, 2, 16] {
        for case in 0..64u64 {
            let seed = 0x4A7D_0000 + (cap as u64) * 1000 + case;
            let keys = 1 + (cap as u32) * 3 + (case % 8) as u32;
            let evictions = run_trace(seed, cap, keys, 400, 150);
            assert!(
                evictions > 0,
                "cap {cap} case {case}: the pool never overflowed"
            );
        }
    }
}

#[test]
fn handle_table_matches_model_default_pool() {
    // Enough distinct rids to overflow the 4096-handle pool.
    for case in 0..2u64 {
        let evictions = run_trace(0x4A7D_F000 + case, 4096, 6000, 30_000, 20_000);
        assert!(evictions > 0, "case {case}: the pool never overflowed");
    }
}
