//! LRU posterior cache: `(spectrum hash, snapshot version)` → summary.
//!
//! Keys are produced by [`crate::engine::cache_key`], which mixes the
//! snapshot version into the spectrum hash — so an entry computed under
//! version `v` can never satisfy a lookup pinned to version `v+1`, even
//! in the window between a hot-swap and the engine's cache flush. That
//! makes cache consistency purely key-based: no lock ordering between
//! the snapshot slot and the cache is required, and a cache hit is
//! always bitwise-equal to a fresh forward at the same version (the
//! engine's responses are a pure function of `(spectrum, version)`).
//!
//! The map is a `BTreeMap` (the workspace determinism lints ban
//! iteration-order-unstable hash collections); recency is a monotone
//! tick with a secondary tick → key index, so eviction is O(log n).

use std::collections::BTreeMap;

/// Bounded LRU map from cache key to posterior summary.
#[derive(Debug)]
pub struct PosteriorCache {
    capacity: usize,
    tick: u64,
    /// key → (outputs, last-use tick)
    map: BTreeMap<u64, (Vec<f32>, u64)>,
    /// last-use tick → key (unique: ticks are monotone)
    order: BTreeMap<u64, u64>,
}

impl PosteriorCache {
    /// New cache holding at most `capacity` entries (`0` disables it).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            tick: 0,
            map: BTreeMap::new(),
            order: BTreeMap::new(),
        }
    }

    /// Look up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<Vec<f32>> {
        let (out, old_tick) = {
            let entry = self.map.get_mut(&key)?;
            let old = entry.1;
            self.tick += 1;
            entry.1 = self.tick;
            (entry.0.clone(), old)
        };
        self.order.remove(&old_tick);
        self.order.insert(self.tick, key);
        Some(out)
    }

    /// Insert (or refresh) an entry, evicting the least-recently-used
    /// one when over capacity. With `capacity == 0` this is a no-op.
    pub fn insert(&mut self, key: u64, outputs: Vec<f32>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if let Some((_, old_tick)) = self.map.insert(key, (outputs, self.tick)) {
            self.order.remove(&old_tick);
        }
        self.order.insert(self.tick, key);
        while self.map.len() > self.capacity {
            let (_, victim) = self
                .order
                .pop_first()
                .unwrap_or_else(|| panic!("LRU order index out of sync with map"));
            self.map.remove(&victim);
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every entry (the engine calls this on hot-swap: old-version
    /// entries are unreachable by key anyway, this just frees the
    /// capacity for the new version's working set).
    pub(crate) fn flush(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent_and_respects_capacity() {
        let mut c = PosteriorCache::new(2);
        c.insert(1, vec![1.0]);
        c.insert(2, vec![2.0]);
        assert!(c.get(1).is_some(), "refresh 1");
        c.insert(3, vec![3.0]); // evicts 2 (least recent)
        assert_eq!(c.len(), 2);
        assert!(c.get(2).is_none());
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut c = PosteriorCache::new(2);
        c.insert(1, vec![1.0]);
        c.insert(1, vec![1.5]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(1), Some(vec![1.5]));
        c.insert(2, vec![2.0]);
        c.insert(3, vec![3.0]);
        assert_eq!(c.len(), 2, "never exceeds capacity");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PosteriorCache::new(0);
        c.insert(1, vec![1.0]);
        assert!(c.is_empty());
        assert!(c.get(1).is_none());
        assert_eq!(c.capacity, 0);
    }

    #[test]
    fn flush_empties() {
        let mut c = PosteriorCache::new(4);
        c.insert(1, vec![1.0]);
        c.insert(2, vec![2.0]);
        c.flush();
        assert!(c.is_empty());
        assert!(c.get(1).is_none());
    }
}
