//! Open-addressed key index over precomputed hashes.
//!
//! Maps a 64-bit hash to the small integer id of whatever the caller keys:
//! a dictionary entry here, a group or a join key in the executor. Linear
//! probing over a power-of-two table of `(hash, id)` pairs; the caller
//! verifies each candidate id against what it stored, so hash collisions
//! are expected and safe. Compared with `HashMap<u64, Vec<u32>>` it skips
//! re-hashing an already-mixed `u64` and the per-key `Vec` allocation.

/// Free-slot marker; ids are bounded well below `u32::MAX`.
const EMPTY: u32 = u32::MAX;

/// Hash → id index. Ids are never removed.
#[derive(Debug, Clone, Default)]
pub struct SlotIndex {
    entries: Vec<(u64, u32)>,
    len: usize,
}

impl SlotIndex {
    /// An empty index; it allocates on the first insert.
    pub fn new() -> SlotIndex {
        SlotIndex::default()
    }

    /// An index for `n` ids at no more than half load, so that looking up
    /// a hash it does not hold stops within a slot or two.
    pub fn with_capacity(n: usize) -> SlotIndex {
        let cap = (n * 2).next_power_of_two().max(16);
        SlotIndex { entries: vec![(0, EMPTY); cap], len: 0 }
    }

    /// The first id stored under `hash` for which `matches` verifies.
    /// Probing stops at the first free slot.
    pub fn find(&self, hash: u64, mut matches: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.entries.is_empty() {
            return None;
        }
        let mask = self.entries.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (h, id) = self.entries[i];
            if id == EMPTY {
                return None;
            }
            if h == hash && matches(id) {
                return Some(id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Record `id` under `hash` (grows at 75 % load).
    pub fn insert(&mut self, hash: u64, id: u32) {
        if (self.len + 1) * 4 > self.entries.len() * 3 {
            let cap = (self.entries.len() * 2).max(16);
            let old = std::mem::replace(&mut self.entries, vec![(0, EMPTY); cap]);
            for (h, id) in old.into_iter().filter(|&(_, id)| id != EMPTY) {
                self.place(h, id);
            }
        }
        self.place(hash, id);
        self.len += 1;
    }

    fn place(&mut self, hash: u64, id: u32) {
        let mask = self.entries.len() - 1;
        let mut i = hash as usize & mask;
        while self.entries[i].1 != EMPTY {
            i = (i + 1) & mask;
        }
        self.entries[i] = (hash, id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn colliding_hashes_are_told_apart_by_the_caller() {
        let mut idx = SlotIndex::new();
        assert_eq!(idx.find(7, |_| true), None, "empty: nothing allocated yet");
        let keys = ["a", "b", "c"];
        for id in 0..3u32 {
            idx.insert(7, id); // every key on one hash
        }
        for (id, k) in keys.iter().enumerate() {
            assert_eq!(idx.find(7, |g| keys[g as usize] == *k), Some(id as u32));
        }
        assert_eq!(idx.find(8, |_| true), None);
    }

    #[test]
    fn growth_keeps_every_id() {
        let mut idx = SlotIndex::new();
        for id in 0..1000u32 {
            idx.insert(u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15), id);
        }
        for id in 0..1000u32 {
            let h = u64::from(id).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            assert_eq!(idx.find(h, |g| g == id), Some(id));
        }
    }
}
