//! An O(1) LRU set over page keys, built on a slab-backed doubly linked
//! list. Used by the [`crate::BufferPool`] to decide evictions when the
//! pool is capacity-limited (the C-Store restricted-buffer simulation).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Fx-style hasher, duplicated here to keep this crate dependency-free.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(5) ^ b as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

const NIL: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Node<K> {
    key: K,
    prev: u32,
    next: u32,
}

/// A fixed-policy LRU set: `touch` inserts or refreshes a key; when the set
/// is over capacity, the least-recently-used key is evicted and returned.
pub struct LruSet<K: Eq + Hash + Copy> {
    nodes: Vec<Node<K>>,
    free: Vec<u32>,
    index: HashMap<K, u32, BuildHasherDefault<FxHasher>>,
    head: u32, // most recently used
    tail: u32, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Copy> std::fmt::Debug for LruSet<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LruSet(len={}, cap={})", self.len(), self.capacity)
    }
}

impl<K: Eq + Hash + Copy> LruSet<K> {
    /// Creates an LRU set holding at most `capacity` keys
    /// (`usize::MAX` for effectively unbounded).
    pub fn new(capacity: usize) -> Self {
        Self {
            nodes: Vec::new(),
            free: Vec::new(),
            index: HashMap::default(),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
        }
    }

    /// Number of resident keys.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no key is resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// True when `key` is resident (does not refresh recency).
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Marks `key` as most recently used, inserting it if absent. Returns
    /// the evicted key when the insertion pushed the set over capacity.
    pub fn touch(&mut self, key: K) -> Option<K> {
        if let Some(&idx) = self.index.get(&key) {
            if self.head != idx {
                self.unlink(idx);
                self.push_front(idx);
            }
            return None;
        }
        let idx = if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = Node {
                key,
                prev: NIL,
                next: NIL,
            };
            i
        } else {
            self.nodes.push(Node {
                key,
                prev: NIL,
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        };
        self.index.insert(key, idx);
        self.push_front(idx);

        if self.index.len() > self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            let vkey = self.nodes[victim as usize].key;
            self.unlink(victim);
            self.index.remove(&vkey);
            self.free.push(victim);
            return Some(vkey);
        }
        None
    }

    /// Removes `key` if resident, returning whether it was.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(idx) = self.index.remove(key) else {
            return false;
        };
        self.unlink(idx);
        self.free.push(idx);
        true
    }

    /// Removes every key for which `pred` holds.
    pub fn retain(&mut self, mut pred: impl FnMut(&K) -> bool) {
        let doomed: Vec<K> = self.index.keys().copied().filter(|k| !pred(k)).collect();
        for k in doomed {
            self.remove(&k);
        }
    }

    /// Removes every key.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = LruSet::new(2);
        assert_eq!(lru.touch(1u64), None);
        assert_eq!(lru.touch(2), None);
        assert_eq!(lru.touch(3), Some(1)); // 1 is the oldest
        assert!(lru.contains(&2) && lru.contains(&3) && !lru.contains(&1));
    }

    #[test]
    fn touch_refreshes_recency() {
        let mut lru = LruSet::new(2);
        lru.touch(1u64);
        lru.touch(2);
        lru.touch(1); // refresh 1, so 2 becomes LRU
        assert_eq!(lru.touch(3), Some(2));
    }

    #[test]
    fn clear_resets() {
        let mut lru = LruSet::new(4);
        for k in 0..4u64 {
            lru.touch(k);
        }
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.touch(9), None);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn capacity_one_always_holds_last_key() {
        let mut lru = LruSet::new(1);
        assert_eq!(lru.touch(1u64), None);
        assert_eq!(lru.touch(2), Some(1));
        assert_eq!(lru.touch(3), Some(2));
        assert!(lru.contains(&3));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn slot_reuse_after_eviction() {
        let mut lru = LruSet::new(2);
        for k in 0..100u64 {
            lru.touch(k);
        }
        // Only 2 resident, the slab reuses freed slots.
        assert_eq!(lru.len(), 2);
        assert!(lru.nodes.len() <= 3);
    }

    /// Touches random keys against a reference model — a `VecDeque`
    /// ordered most-recent-first — for random capacities, seeded
    /// (xorshift64*, the workspace's offline property-test generator).
    #[test]
    fn matches_reference_model() {
        use std::collections::VecDeque;
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut below = |n: u64| {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            rng.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        };
        for _ in 0..256 {
            let cap = 1 + below(7) as usize;
            let mut lru = LruSet::new(cap);
            let mut model: VecDeque<u64> = VecDeque::new();
            for _ in 0..below(200) {
                let key = below(16);
                let want = match model.iter().position(|&k| k == key) {
                    Some(pos) => {
                        model.remove(pos);
                        model.push_front(key);
                        None
                    }
                    None => {
                        model.push_front(key);
                        (model.len() > cap).then(|| model.pop_back()).flatten()
                    }
                };
                assert_eq!(lru.touch(key), want, "cap {cap}, key {key}");
                assert_eq!(lru.len(), model.len());
                assert!(model.iter().all(|m| lru.contains(m)));
            }
        }
    }
}
