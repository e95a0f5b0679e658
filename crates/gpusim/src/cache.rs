//! The device-resident write-once cache of `h` operator blocks.
//!
//! "In order to avoid redundant data transfers to the GPU, a write-once
//! software cache containing the already transferred 2-D tensors has been
//! implemented" (paper §II-B). Blocks are identified by a caller-supplied
//! 64-bit id (term × level × displacement); once resident they are never
//! re-transferred. Device memory is accounted against the 6 GB budget,
//! with FIFO eviction if the budget is ever exceeded (it is not, for the
//! paper's workloads — the test suite checks the accounting anyway).

use std::collections::{HashSet, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hash for block ids. The ids are minted by this
/// program (term × level × displacement), not by an adversary, so
/// SipHash's collision resistance buys nothing here; and the set is
/// only probed — eviction order is the FIFO's — so nothing observable
/// depends on hash order.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        // Odd multiplier (2^64 / golden ratio) mixes the low bits up;
        // the rotation brings the well-mixed high bits back down to
        // where the table takes its bucket index from.
        self.0 = (self.0 ^ id)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(26);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Device-side write-once block cache.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct DeviceHCache {
    resident: HashSet<u64, BuildHasherDefault<IdHasher>>,
    fifo: VecDeque<(u64, u64)>, // (id, bytes)
    bytes_used: u64,
    bytes_budget: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl DeviceHCache {
    /// A cache bounded by `bytes_budget` of device memory.
    pub fn new(bytes_budget: u64) -> Self {
        DeviceHCache {
            bytes_budget,
            ..Default::default()
        }
    }

    /// Ensures `id` is resident; returns the bytes that must be
    /// transferred (0 on a hit, `bytes` on a miss).
    pub fn ensure(&mut self, id: u64, bytes: u64) -> u64 {
        if self.resident.contains(&id) {
            self.hits += 1;
            return 0;
        }
        self.misses += 1;
        while self.bytes_used + bytes > self.bytes_budget {
            let Some((old, old_bytes)) = self.fifo.pop_front() else {
                break; // single block larger than budget: admit anyway
            };
            self.resident.remove(&old);
            self.bytes_used -= old_bytes;
            self.evictions += 1;
        }
        self.resident.insert(id);
        self.fifo.push_back((id, bytes));
        self.bytes_used += bytes;
        bytes
    }

    /// Ensures a whole batch of ids; returns total new bytes to transfer.
    pub fn ensure_batch(&mut self, ids: impl Iterator<Item = u64>, bytes_each: u64) -> u64 {
        ids.map(|id| self.ensure(id, bytes_each)).sum()
    }

    /// Counts `hits` and `misses` the caller knows a walk would count,
    /// without walking.
    pub(crate) fn count(&mut self, hits: u64, misses: u64) {
        self.hits += hits;
        self.misses += misses;
    }

    /// Swaps what is resident (the set, the FIFO and the bytes held)
    /// with `other`; both keep their counters and budget.
    pub(crate) fn swap_contents(&mut self, other: &mut DeviceHCache) {
        std::mem::swap(&mut self.resident, &mut other.resident);
        std::mem::swap(&mut self.fifo, &mut other.fifo);
        std::mem::swap(&mut self.bytes_used, &mut other.bytes_used);
    }

    /// Walks `ids` again against what is resident, changing nothing: if
    /// the cache holds exactly what [`DeviceHCache::ensure_batch`] of
    /// `ids` leaves behind on an empty cache without an eviction, the
    /// `(hits, misses)` that walk counts; `None` otherwise.
    pub(crate) fn replay(
        &self,
        ids: impl Iterator<Item = u64>,
        bytes_each: u64,
    ) -> Option<(u64, u64)> {
        // A walk from empty admits each id at its first occurrence, in
        // order, so the FIFO must list exactly the first occurrences.
        let (mut hits, mut admitted) = (0u64, 0usize);
        for id in ids {
            if self.fifo.get(admitted) == Some(&(id, bytes_each)) {
                admitted += 1;
            } else if self.fifo.range(..admitted).any(|&(old, _)| old == id) {
                hits += 1;
            } else {
                return None;
            }
        }
        let misses = admitted as u64;
        let exact = admitted == self.fifo.len()
            && self.resident.len() == admitted
            && self.fifo.iter().all(|(id, _)| self.resident.contains(id))
            && self.bytes_used == misses * bytes_each
            && self.bytes_used <= self.bytes_budget;
        exact.then_some((hits, misses))
    }

    /// True if `id` is currently resident.
    pub fn contains(&self, id: u64) -> bool {
        self.resident.contains(&id)
    }

    /// Device bytes currently held by the cache.
    pub fn bytes_used(&self) -> u64 {
        self.bytes_used
    }

    /// `(hits, misses, evictions)`.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Drops everything (new run on the same device). The counters
    /// keep counting; the set and the FIFO keep their capacity.
    pub fn clear(&mut self) {
        self.resident.clear();
        self.fifo.clear();
        self.bytes_used = 0;
    }

    /// [`DeviceHCache::clear`] with the counters zeroed too: the state
    /// [`DeviceHCache::new`] leaves, in storage that keeps its capacity.
    pub(crate) fn reset(&mut self) {
        self.clear();
        (self.hits, self.misses, self.evictions) = (0, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = DeviceHCache::new(1 << 20);
        assert_eq!(c.ensure(42, 800), 800);
        assert_eq!(c.ensure(42, 800), 0);
        assert_eq!(c.stats(), (1, 1, 0));
        assert_eq!(c.bytes_used(), 800);
        assert!(c.contains(42));
    }

    #[test]
    fn batch_counts_only_new_blocks() {
        let mut c = DeviceHCache::new(1 << 20);
        let first = c.ensure_batch([1, 2, 3].into_iter(), 100);
        assert_eq!(first, 300);
        let second = c.ensure_batch([2, 3, 4].into_iter(), 100);
        assert_eq!(second, 100);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn eviction_respects_budget() {
        let mut c = DeviceHCache::new(250);
        c.ensure(1, 100);
        c.ensure(2, 100);
        c.ensure(3, 100); // must evict id 1
        assert!(!c.contains(1));
        assert!(c.contains(2) && c.contains(3));
        assert!(c.bytes_used() <= 250);
        assert_eq!(c.stats().2, 1);
    }

    #[test]
    fn clear_resets() {
        let mut c = DeviceHCache::new(1 << 10);
        c.ensure(7, 64);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes_used(), 0);
        assert_eq!(c.ensure(7, 64), 64); // transfers again after clear
    }
}
