//! An LRU result cache keyed by the structural program hash.
//!
//! Duplicate submissions dominate MOOC traffic (students resubmit unchanged
//! code, and popular buggy attempts are copy-pasted), so the service fronts
//! the repair pipeline with a cache keyed on the formatting-insensitive
//! [`structural hash`](clara_lang::SourceProgram::structural_hash) of the
//! submission, combined with the problem it targets. A hit answers in O(1)
//! without touching the cluster index.
//!
//! The implementation is a classic hand-rolled LRU over `std` only: a
//! `HashMap` for lookup plus a lazily compacted access queue (each access
//! pushes a fresh `(key, stamp)` ticket; stale tickets are skipped during
//! eviction). Eviction is amortised O(1).
//!
//! For concurrent serving the cache is wrapped in a [`StripedCache`]: `N`
//! independently locked LRU segments selected by key bits, so workers
//! handling unrelated submissions never contend on one global cache mutex
//! (the pre-sharding design funnelled every request through a single
//! `Mutex<LruCache>`; under 8 workers that lock was the top contention
//! point after the store `RwLock`).

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// A bounded least-recently-used map from `u64` keys to `V`.
#[derive(Debug)]
pub struct LruCache<V> {
    capacity: usize,
    map: HashMap<u64, Entry<V>>,
    /// Access tickets, oldest first; only a ticket whose stamp matches the
    /// entry's current stamp is live, all others are stale and skipped.
    queue: VecDeque<(u64, u64)>,
    next_stamp: u64,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    stamp: u64,
}

impl<V> LruCache<V> {
    /// Creates a cache holding at most `capacity` entries; a capacity of 0
    /// disables caching (every lookup misses).
    pub fn new(capacity: usize) -> Self {
        LruCache { capacity, map: HashMap::new(), queue: VecDeque::new(), next_stamp: 0 }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: u64) -> Option<&V> {
        if self.capacity == 0 || !self.map.contains_key(&key) {
            return None;
        }
        let stamp = self.touch(key);
        let entry = self.map.get_mut(&key).expect("checked above");
        entry.stamp = stamp;
        Some(&entry.value)
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used entry
    /// when the cache is full.
    pub fn insert(&mut self, key: u64, value: V) {
        if self.capacity == 0 {
            return;
        }
        let stamp = self.touch(key);
        self.map.insert(key, Entry { value, stamp });
        while self.map.len() > self.capacity {
            let Some((old_key, old_stamp)) = self.queue.pop_front() else { break };
            if self.map.get(&old_key).is_some_and(|e| e.stamp == old_stamp) {
                self.map.remove(&old_key);
            }
        }
    }

    /// Issues a fresh access ticket for `key` and compacts the queue when
    /// stale tickets outnumber live entries too far.
    fn touch(&mut self, key: u64) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.queue.push_back((key, stamp));
        if self.queue.len() > self.map.len().saturating_mul(4) + 16 {
            let map = &self.map;
            // The just-issued ticket is exempt: the caller records `stamp` in
            // the map only after `touch` returns, so the retain below would
            // otherwise drop it and leave the entry unevictable forever.
            self.queue.retain(|(k, s)| *s == stamp || map.get(k).is_some_and(|e| e.stamp == *s));
        }
        stamp
    }
}

/// A lock-striped result cache: `N` independent [`LruCache`] segments, each
/// behind its own mutex, selected by the key's low bits. The per-key
/// structural hashes are splitmix-style mixed upstream, so the low bits
/// distribute uniformly and each segment sees ~1/N of the traffic.
///
/// Values are cloned out on hit (they are `Arc`-light response outcomes),
/// so segment locks are held only for the map operation itself — never
/// while a repair runs.
#[derive(Debug)]
pub struct StripedCache<V> {
    segments: Vec<Mutex<LruCache<V>>>,
    /// Segment-selection mask (`segments.len() - 1`; length is a power of
    /// two).
    mask: u64,
}

impl<V: Clone> StripedCache<V> {
    /// Creates a cache of `capacity` total entries split over `stripes`
    /// segments. `stripes` is rounded up to a power of two; a capacity of 0
    /// disables caching entirely.
    pub fn new(capacity: usize, stripes: usize) -> Self {
        let stripes = stripes.max(1).next_power_of_two();
        let per_segment = capacity.div_ceil(stripes);
        let segments = (0..stripes)
            .map(|_| Mutex::new(LruCache::new(if capacity == 0 { 0 } else { per_segment })))
            .collect();
        StripedCache { segments, mask: (stripes - 1) as u64 }
    }

    fn segment(&self, key: u64) -> &Mutex<LruCache<V>> {
        &self.segments[(key & self.mask) as usize]
    }

    /// Looks up `key`, cloning the value out on a hit.
    pub fn get(&self, key: u64) -> Option<V> {
        self.segment(key).lock().expect("cache segment poisoned").get(key).cloned()
    }

    /// Inserts (or refreshes) `key` in its segment.
    pub fn insert(&self, key: u64, value: V) {
        self.segment(key).lock().expect("cache segment poisoned").insert(key, value);
    }

    /// Total live entries across all segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.lock().expect("cache segment poisoned").len()).sum()
    }

    /// `true` when every segment is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of segments (always a power of two).
    pub fn stripes(&self) -> usize {
        self.segments.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_miss_until_the_key_is_inserted() {
        let mut cache = LruCache::new(4);
        assert!(cache.get(1).is_none());
        cache.insert(1, "one");
        assert_eq!(cache.get(1), Some(&"one"));
    }

    #[test]
    fn least_recently_used_entry_is_evicted() {
        let mut cache = LruCache::new(2);
        cache.insert(1, 1);
        cache.insert(2, 2);
        // Touch 1 so that 2 becomes the LRU entry.
        assert!(cache.get(1).is_some());
        cache.insert(3, 3);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(2).is_none(), "2 was the LRU entry");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn refreshing_a_key_does_not_grow_the_cache() {
        let mut cache = LruCache::new(2);
        for _ in 0..10 {
            cache.insert(7, ());
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = LruCache::new(0);
        cache.insert(1, ());
        assert!(cache.is_empty());
        assert!(cache.get(1).is_none());
    }

    #[test]
    fn entry_last_touched_during_compaction_is_still_evictable() {
        // Regression: the compaction pass inside `touch` must not drop the
        // ticket it just issued — the entry's map stamp is written only after
        // `touch` returns, so dropping it would pin the entry forever.
        let mut cache = LruCache::new(4);
        for key in 0..4 {
            cache.insert(key, ());
        }
        // 4 insert tickets + 29 get tickets = 33 > 4*4+16: the compaction
        // fires exactly on the *final* access to key 0.
        for _ in 0..29 {
            let _ = cache.get(0);
        }
        // 8 newer inserts must push key 0 (now the LRU entry) out.
        for key in 10..18 {
            cache.insert(key, ());
        }
        assert_eq!(cache.len(), 4);
        assert!(cache.get(0).is_none(), "key 0 was pinned by a dropped ticket");
    }

    #[test]
    fn long_access_patterns_stay_bounded() {
        let mut cache = LruCache::new(8);
        for i in 0..10_000u64 {
            cache.insert(i % 16, i);
            let _ = cache.get(i % 5);
        }
        assert!(cache.len() <= 8);
        // The lazily compacted queue must not grow with the access count.
        assert!(cache.queue.len() <= 8 * 4 + 16, "queue grew to {}", cache.queue.len());
    }

    #[test]
    fn striped_cache_routes_keys_to_independent_segments() {
        let cache = StripedCache::new(64, 4);
        assert_eq!(cache.stripes(), 4);
        for key in 0..32u64 {
            cache.insert(key, key * 10);
        }
        assert_eq!(cache.len(), 32);
        for key in 0..32u64 {
            assert_eq!(cache.get(key), Some(key * 10));
        }
        assert_eq!(cache.get(999), None);
    }

    #[test]
    fn striped_capacity_is_split_across_segments() {
        // 8 entries over 4 stripes: each segment holds 2; keys that share a
        // segment (same low bits) evict each other, unrelated keys do not.
        let cache = StripedCache::new(8, 4);
        for round in 0..4u64 {
            cache.insert(round * 4, round); // all land in segment 0
        }
        assert!(cache.len() <= 8);
        assert_eq!(cache.get(0), None, "oldest same-segment key evicted");
        assert_eq!(cache.get(12), Some(3));
    }

    #[test]
    fn striped_zero_capacity_disables_caching() {
        let cache: StripedCache<()> = StripedCache::new(0, 8);
        cache.insert(7, ());
        assert!(cache.is_empty());
        assert_eq!(cache.get(7), None);
    }

    #[test]
    fn striped_stripe_counts_round_up_to_powers_of_two() {
        assert_eq!(StripedCache::<()>::new(16, 3).stripes(), 4);
        assert_eq!(StripedCache::<()>::new(16, 1).stripes(), 1);
        assert_eq!(StripedCache::<()>::new(16, 0).stripes(), 1);
    }

    #[test]
    fn striped_cache_is_coherent_under_concurrent_access() {
        use std::sync::Arc;
        let cache = Arc::new(StripedCache::new(1024, 8));
        let workers: Vec<_> = (0..4u64)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let key = (t * 2_000 + i) % 512;
                        cache.insert(key, key);
                        if let Some(v) = cache.get(key) {
                            assert_eq!(v, key, "value under wrong key");
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("cache worker panicked");
        }
        assert!(cache.len() <= 1024);
    }
}
