//! Randomized model tests: the O(1) LRU against a VecDeque reference
//! model. Deterministically seeded.

use std::collections::VecDeque;
use tq_pagestore::LruCache;
use tq_simrng::SimRng;

#[derive(Debug, Clone)]
enum Op {
    Touch(u8),
    Insert(u8),
    /// A touch and, on a miss, `insert_absent` — the storage stack's
    /// fault-in pattern.
    Admit(u8),
    Remove(u8),
    Clear,
}

/// Weighted op mix: 3 touch : 4 insert : 3 admit : 1 remove : 1
/// clear, keys confined to 0..32 so collisions are common.
fn random_op(rng: &mut SimRng) -> Op {
    let k = (rng.next_u32() % 32) as u8;
    match rng.below(12) {
        0..=2 => Op::Touch(k),
        3..=6 => Op::Insert(k),
        7..=9 => Op::Admit(k),
        10 => Op::Remove(k),
        _ => Op::Clear,
    }
}

/// The reference: front of the deque is MRU.
struct Model {
    order: VecDeque<u8>,
    cap: usize,
}

impl Model {
    fn touch(&mut self, k: u8) -> bool {
        if let Some(pos) = self.order.iter().position(|&x| x == k) {
            self.order.remove(pos);
            self.order.push_front(k);
            true
        } else {
            false
        }
    }

    fn insert(&mut self, k: u8) -> Option<u8> {
        if self.touch(k) || self.cap == 0 {
            return None;
        }
        let evicted = if self.order.len() == self.cap {
            self.order.pop_back()
        } else {
            None
        };
        self.order.push_front(k);
        evicted
    }

    fn remove(&mut self, k: u8) -> bool {
        if let Some(pos) = self.order.iter().position(|&x| x == k) {
            self.order.remove(pos);
            true
        } else {
            false
        }
    }
}

#[test]
fn lru_matches_model() {
    for case in 0..256u64 {
        let mut rng = SimRng::seed_from_u64(0x14B0_0000 + case);
        let cap = rng.index(12);
        let op_count = 1 + rng.index(199);
        let mut lru = LruCache::new(cap);
        let mut model = Model {
            order: VecDeque::new(),
            cap,
        };
        for _ in 0..op_count {
            match random_op(&mut rng) {
                Op::Touch(k) => assert_eq!(lru.touch(k), model.touch(k)),
                Op::Insert(k) => assert_eq!(lru.insert(k), model.insert(k)),
                Op::Admit(k) => {
                    let hit = lru.touch(k);
                    if hit {
                        assert!(model.touch(k));
                    } else {
                        // `insert` after a miss: the model's own touch
                        // misses too, then it inserts.
                        assert_eq!(lru.insert_absent(k), model.insert(k));
                    }
                }
                Op::Remove(k) => assert_eq!(lru.remove(&k), model.remove(k)),
                Op::Clear => {
                    lru.clear();
                    model.order.clear();
                }
            }
            assert_eq!(lru.len(), model.order.len());
            assert_eq!(lru.keys_mru_to_lru(), Vec::from(model.order.clone()));
        }
    }
}
