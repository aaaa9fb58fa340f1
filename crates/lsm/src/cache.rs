//! The block cache: DRAM LRU with a RocksDB-style secondary cache.
//!
//! Lookup order is DRAM → secondary (flash) → device, and DRAM evictions
//! are demoted into the secondary cache — RocksDB's `SecondaryCache`
//! contract, which the paper uses to put CacheLib under the database
//! (§4.2). Any of the four schemes plugs in through [`NavySecondary`].

use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use sim::{Counter, Nanos};
use zns_cache::dram::{DramCache, DramEntry};
use zns_cache::LogCache;

use crate::types::DbError;

/// A flash tier beneath the DRAM block cache.
pub trait SecondaryCache: Send + Sync {
    /// Looks up a block by cache key.
    ///
    /// # Errors
    ///
    /// Backend I/O failures.
    fn get(&self, key: &[u8], now: Nanos) -> Result<(Option<Bytes>, Nanos), DbError>;

    /// Inserts a block demoted from DRAM.
    ///
    /// # Errors
    ///
    /// Backend I/O failures.
    fn insert(&self, key: &[u8], value: &[u8], now: Nanos) -> Result<Nanos, DbError>;
}

/// Adapter exposing a [`LogCache`] (any scheme) as a secondary cache.
pub struct NavySecondary {
    cache: Arc<LogCache>,
}

impl NavySecondary {
    /// Wraps a cache engine.
    pub fn new(cache: Arc<LogCache>) -> Self {
        NavySecondary { cache }
    }

    /// The wrapped engine (for metrics).
    pub fn engine(&self) -> &Arc<LogCache> {
        &self.cache
    }
}

impl SecondaryCache for NavySecondary {
    fn get(&self, key: &[u8], now: Nanos) -> Result<(Option<Bytes>, Nanos), DbError> {
        Ok(self.cache.get(key, now)?)
    }

    fn insert(&self, key: &[u8], value: &[u8], now: Nanos) -> Result<Nanos, DbError> {
        Ok(self.cache.set(key, value, now)?)
    }
}

/// Block-cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockCacheStatsSnapshot {
    /// Served from DRAM.
    pub dram_hits: u64,
    /// Served from the secondary (flash) tier.
    pub secondary_hits: u64,
    /// Paid a device read.
    pub misses: u64,
}

impl BlockCacheStatsSnapshot {
    /// Hit ratio over both tiers.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.dram_hits + self.secondary_hits + self.misses;
        if total == 0 {
            1.0
        } else {
            (self.dram_hits + self.secondary_hits) as f64 / total as f64
        }
    }
}

/// DRAM LRU over data blocks with optional secondary tier.
pub struct BlockCache {
    dram: Mutex<DramCache>,
    secondary: Option<Arc<dyn SecondaryCache>>,
    dram_hit_cost: Nanos,
    dram_hits: Counter,
    secondary_hits: Counter,
    misses: Counter,
}

fn block_key(table: u64, block: u32) -> [u8; 12] {
    let mut key = [0u8; 12];
    key[..8].copy_from_slice(&table.to_le_bytes());
    key[8..].copy_from_slice(&block.to_le_bytes());
    key
}

fn block_hash(key: &[u8]) -> u64 {
    zns_cache::types::hash_key(key)
}

impl BlockCache {
    /// Creates a cache with `dram_bytes` of primary capacity and an
    /// optional secondary tier.
    pub fn new(dram_bytes: usize, secondary: Option<Arc<dyn SecondaryCache>>) -> Self {
        BlockCache {
            dram: Mutex::new(DramCache::new(dram_bytes)),
            secondary,
            dram_hit_cost: Nanos::from_nanos(400),
            dram_hits: Counter::new(),
            secondary_hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> BlockCacheStatsSnapshot {
        BlockCacheStatsSnapshot {
            dram_hits: self.dram_hits.get(),
            secondary_hits: self.secondary_hits.get(),
            misses: self.misses.get(),
        }
    }

    /// Fetches a block through the tiers. `fetch` performs the device read
    /// on a full miss.
    ///
    /// # Errors
    ///
    /// Propagates secondary-cache and device failures.
    pub fn get_block<F>(
        &self,
        table: u64,
        block: u32,
        now: Nanos,
        fetch: F,
    ) -> Result<(Bytes, Nanos), DbError>
    where
        F: FnOnce(Nanos) -> Result<(Bytes, Nanos), DbError>,
    {
        let key = block_key(table, block);
        let hash = block_hash(&key);
        // The secondary tier is keyed by the 64-bit block hash so demoted
        // entries (which only know their hash) and lookups agree.
        let skey = hash.to_le_bytes();
        // Tier 1: DRAM.
        if let Some(v) = self.dram.lock().get(hash, &skey, now) {
            self.dram_hits.incr();
            return Ok((v, now + self.dram_hit_cost));
        }
        // Tier 2: secondary (flash).
        if let Some(secondary) = &self.secondary {
            let (found, t) = secondary.get(&skey, now)?;
            if let Some(v) = found {
                self.secondary_hits.incr();
                let t = self.admit(hash, v.clone(), t)?;
                return Ok((v, t));
            }
            // Fall through to the device at time t (the flash lookup was
            // on the critical path, as in RocksDB).
            let (v, t) = fetch(t)?;
            self.misses.incr();
            let t = self.admit(hash, v.clone(), t)?;
            return Ok((v, t));
        }
        // No secondary tier.
        let (v, t) = fetch(now)?;
        self.misses.incr();
        let t = self.admit(hash, v.clone(), t)?;
        Ok((v, t))
    }

    /// Inserts into DRAM, demoting evictions to the secondary tier.
    fn admit(&self, hash: u64, value: Bytes, now: Nanos) -> Result<Nanos, DbError> {
        // Entries are keyed by their hash bytes (blocks never expire), the
        // same key the secondary tier uses, so lookups and demotions agree.
        let entry = DramEntry {
            key: Bytes::copy_from_slice(&hash.to_le_bytes()),
            value,
            expiry: Nanos::MAX,
            accessed: false,
        };
        // `None` (block larger than the tier) admits and demotes nothing.
        let evicted = self.dram.lock().insert(hash, entry).unwrap_or_default();
        let mut t = now;
        if let Some(secondary) = &self.secondary {
            for (ehash, e) in evicted {
                t = t.max(secondary.insert(&ehash.to_le_bytes(), &e.value, now)?);
            }
        }
        Ok(t)
    }
}

impl core::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BlockCache").field("stats", &self.stats()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fetch_const(v: &'static [u8]) -> impl FnOnce(Nanos) -> Result<(Bytes, Nanos), DbError> {
        move |now| Ok((Bytes::from_static(v), now + Nanos::from_micros(100)))
    }

    #[test]
    fn dram_hit_after_miss() {
        let c = BlockCache::new(1 << 20, None);
        let (v1, t1) = c.get_block(1, 0, Nanos::ZERO, fetch_const(b"blk")).unwrap();
        assert_eq!(v1.as_ref(), b"blk");
        let (v2, t2) = c
            .get_block(1, 0, t1, |_| panic!("should not fetch"))
            .unwrap();
        assert_eq!(v2.as_ref(), b"blk");
        assert!(t2 - t1 < Nanos::from_micros(100));
        let s = c.stats();
        assert_eq!((s.misses, s.dram_hits), (1, 1));
    }

    #[test]
    fn distinct_blocks_have_distinct_keys() {
        let c = BlockCache::new(1 << 20, None);
        c.get_block(1, 0, Nanos::ZERO, fetch_const(b"a")).unwrap();
        let (v, _) = c.get_block(1, 1, Nanos::ZERO, fetch_const(b"b")).unwrap();
        assert_eq!(v.as_ref(), b"b");
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn hit_ratio_math() {
        let s = BlockCacheStatsSnapshot {
            dram_hits: 6,
            secondary_hits: 2,
            misses: 2,
        };
        assert!((s.hit_ratio() - 0.8).abs() < 1e-12);
        assert_eq!(BlockCacheStatsSnapshot::default().hit_ratio(), 1.0);
    }

    /// A secondary tier backed by a plain map, for contract tests.
    struct MapSecondary {
        map: Mutex<std::collections::HashMap<Vec<u8>, Bytes>>,
        inserts: Counter,
    }

    impl SecondaryCache for MapSecondary {
        fn get(&self, key: &[u8], now: Nanos) -> Result<(Option<Bytes>, Nanos), DbError> {
            Ok((self.map.lock().get(key).cloned(), now + Nanos::from_micros(10)))
        }

        fn insert(&self, key: &[u8], value: &[u8], now: Nanos) -> Result<Nanos, DbError> {
            self.inserts.incr();
            self.map
                .lock()
                .insert(key.to_vec(), Bytes::copy_from_slice(value));
            Ok(now + Nanos::from_micros(5))
        }
    }

    #[test]
    fn evictions_demote_to_secondary() {
        let secondary = Arc::new(MapSecondary {
            map: Mutex::new(Default::default()),
            inserts: Counter::new(),
        });
        // Tiny DRAM: exactly one entry at a time. The tier charges an
        // entry its 8-byte hash key plus its 8-byte block, and admits
        // (so demotes) nothing that does not fit.
        let c = BlockCache::new(8 + 8, Some(secondary.clone()));
        c.get_block(1, 0, Nanos::ZERO, fetch_const(b"11111111")).unwrap();
        c.get_block(1, 1, Nanos::ZERO, fetch_const(b"22222222")).unwrap();
        assert!(secondary.inserts.get() >= 1, "no demotion happened");
        // The demoted block is now served by the secondary tier, not the
        // device.
        let (v, _) = c
            .get_block(1, 0, Nanos::ZERO, |_| panic!("device read on secondary hit"))
            .unwrap();
        assert_eq!(v.as_ref(), b"11111111");
        assert_eq!(c.stats().secondary_hits, 1);
    }
}
