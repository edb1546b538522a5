//! Eviction-under-capacity-pressure suite: the cache must hold its
//! capacity bound under any insert stream, prefer stale entries when making
//! room, give recently hit entries a second chance, and keep its counters
//! coherent under concurrent hammering.

use usim_cache::{PairKey, ResultCache};

fn key(i: u32) -> PairKey {
    PairKey::score(i, i + 1)
}

/// A single-shard cache so eviction order is exactly observable.
fn single_shard(capacity: usize) -> ResultCache<PairKey, f64> {
    ResultCache::with_shards(capacity, 1)
}

#[test]
fn capacity_bound_holds_under_sustained_insert_pressure() {
    for capacity in [1usize, 2, 3, 7, 8, 10, 64] {
        let cache: ResultCache<PairKey, f64> = ResultCache::new(capacity);
        for i in 0..(capacity as u32 * 10) {
            cache.insert(key(i), i as f64, 0);
            assert!(
                cache.len() <= capacity,
                "capacity {capacity}: {} entries after {i} inserts",
                cache.len()
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.insertions, capacity as u64 * 10);
        assert!(
            stats.evictions >= stats.insertions - capacity as u64,
            "capacity {capacity}: {stats:?}"
        );
    }
}

#[test]
fn eviction_makes_room_for_the_new_entry_not_instead_of_it() {
    let cache = single_shard(3);
    for i in 0..100u32 {
        cache.insert(key(i), i as f64, 0);
        // The entry just inserted is always resident.
        assert_eq!(cache.get(&key(i), 0), Some(i as f64));
    }
    assert_eq!(cache.len(), 3);
}

#[test]
fn recently_hit_entries_survive_cold_ones() {
    let cache = single_shard(2);
    cache.insert(key(1), 1.0, 0);
    cache.insert(key(2), 2.0, 0);
    // Touch key 1: its second-chance bit protects it from the next sweep.
    assert_eq!(cache.get(&key(1), 0), Some(1.0));
    cache.insert(key(3), 3.0, 0);
    assert_eq!(cache.get(&key(1), 0), Some(1.0), "hit entry survives");
    assert_eq!(cache.get(&key(2), 0), None, "cold entry was evicted");
    assert_eq!(cache.get(&key(3), 0), Some(3.0));
}

#[test]
fn stale_entries_are_evicted_before_live_ones_even_if_referenced() {
    let cache = single_shard(2);
    cache.insert(key(1), 1.0, 0);
    assert_eq!(cache.get(&key(1), 0), Some(1.0), "referenced at epoch 0");
    cache.insert(key(2), 2.0, 1);
    assert_eq!(cache.get(&key(2), 1), Some(2.0), "referenced at epoch 1");
    // Both entries are referenced; key 1 is stale at epoch 1.  The sweep
    // must take the stale one, not grant it a second chance.
    cache.insert(key(3), 3.0, 1);
    assert_eq!(cache.get(&key(1), 1), None, "stale entry went first");
    assert_eq!(cache.get(&key(2), 1), Some(2.0));
    assert_eq!(cache.get(&key(3), 1), Some(3.0));
}

#[test]
fn clock_terminates_when_every_entry_is_referenced() {
    let cache = single_shard(4);
    for i in 0..4u32 {
        cache.insert(key(i), i as f64, 0);
        cache.get(&key(i), 0);
    }
    // All four have their bit set; the sweep clears them on the first lap
    // and evicts on the second.
    cache.insert(key(99), 99.0, 0);
    assert_eq!(cache.len(), 4);
    assert_eq!(cache.get(&key(99), 0), Some(99.0));
}

#[test]
fn capacity_one_keeps_exactly_the_latest_entry() {
    let cache = single_shard(1);
    for i in 0..20u32 {
        cache.insert(key(i), i as f64, 0);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&key(i), 0), Some(i as f64));
        if i > 0 {
            assert_eq!(cache.get(&key(i - 1), 0), None);
        }
    }
}

#[test]
fn small_odd_capacities_never_overshoot() {
    // Regression guard for the shard split: `shards * per_shard` must not
    // exceed the requested capacity even when it is not a power of two.
    for capacity in 1..=40usize {
        let cache: ResultCache<PairKey, f64> = ResultCache::new(capacity);
        assert_eq!(cache.capacity(), capacity);
        for i in 0..200u32 {
            cache.insert(key(i), 0.0, 0);
        }
        assert!(
            cache.len() <= capacity,
            "capacity {capacity} overshot to {}",
            cache.len()
        );
        assert!(cache.len() >= capacity / 2, "pathological under-use");
    }
}

#[test]
fn concurrent_hammering_keeps_the_bound_and_the_counters_coherent() {
    use std::sync::Arc;

    let capacity = 64usize;
    let cache: Arc<ResultCache<PairKey, f64>> = Arc::new(ResultCache::new(capacity));
    let threads = 8;
    let ops_per_thread = 2_000u32;
    let mut joins = Vec::new();
    for t in 0..threads {
        let cache = Arc::clone(&cache);
        joins.push(std::thread::spawn(move || {
            let mut lookups = 0u64;
            for i in 0..ops_per_thread {
                // A key space ~4x the capacity with per-thread phase, plus
                // epoch churn every 512 ops, so hits, misses, stale reads
                // and evictions all occur.
                let k = key((i.wrapping_mul(31).wrapping_add(t * 7)) % 256);
                let epoch = u64::from(i / 512);
                if i % 3 == 0 {
                    cache.insert(k, f64::from(i), epoch);
                } else {
                    let _ = cache.get(&k, epoch);
                    lookups += 1;
                }
            }
            lookups
        }));
    }
    let total_lookups: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
    assert!(cache.len() <= capacity);
    let stats = cache.stats();
    assert_eq!(
        stats.hits + stats.misses + stats.stale,
        total_lookups,
        "every lookup lands in exactly one counter: {stats:?}"
    );
    assert!(stats.evictions > 0, "{stats:?}");
}
