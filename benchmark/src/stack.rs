//! Assembles one scheme's stack — devices, backend, engine — from the
//! crates' public constructors, and snapshots every layer's public
//! counters from outside.

use std::sync::Arc;

use zns_cache_repro::f2fs_lite::{FileSystem, FsStatsSnapshot};
use zns_cache_repro::ftl::{BlockSsd, FtlStatsSnapshot};
use zns_cache_repro::nand::{NandArray, NandStatsSnapshot};
use zns_cache_repro::sim::Nanos;
use zns_cache_repro::zns::{ZnsDevice, ZnsStatsSnapshot};
use zns_cache_repro::zns_cache::backend::{
    BlockBackend, FileBackend, MiddleLayerBackend, MiddleStatsSnapshot, RegionBackend, ZoneBackend,
};
use zns_cache_repro::zns_cache::{CacheError, CacheMetricsSnapshot, LogCache, Scheme};

use crate::config;
use crate::trace::{TimedBackend, Tracer};

/// The engine plus handles to whatever lies beneath it in this scheme.
pub struct Stack {
    pub cache: Arc<LogCache>,
    pub zns: Option<Arc<ZnsDevice>>,
    pub ftl: Option<Arc<BlockSsd>>,
    pub fs: Option<Arc<FileSystem>>,
    pub middle: Option<Arc<MiddleLayerBackend>>,
}

/// Builds `scheme` with `dram_bytes` of DRAM pool. With a tracer, the
/// engine reaches its backend through a [`TimedBackend`].
pub fn build(
    scheme: Scheme,
    dram_bytes: usize,
    tracer: Option<&Tracer>,
) -> Result<Stack, CacheError> {
    let (mut zns, mut ftl, mut fs, mut middle) = (None, None, None, None);
    let backend: Arc<dyn RegionBackend> = match scheme {
        Scheme::Zone => {
            let dev = Arc::new(ZnsDevice::new(config::zns_config()));
            zns = Some(dev.clone());
            Arc::new(
                ZoneBackend::new(dev)
                    .with_append_depth(config::APPEND_DEPTH)
                    .with_zone_limit(config::cache_zones(scheme)),
            )
        }
        Scheme::Region => {
            let dev = Arc::new(ZnsDevice::new(config::zns_config()));
            zns = Some(dev.clone());
            let m = Arc::new(MiddleLayerBackend::new(dev, config::middle_config()));
            middle = Some(m.clone());
            m
        }
        Scheme::File => {
            let f = Arc::new(FileSystem::format(config::fs_config()));
            zns = Some(f.device());
            fs = Some(f.clone());
            Arc::new(
                FileBackend::create(
                    f,
                    "cachelib.data",
                    config::REGION_BYTES,
                    config::file_regions(),
                    Nanos::ZERO,
                )?
                .with_punch_on_discard(true),
            )
        }
        Scheme::Block => {
            let dev = Arc::new(BlockSsd::new(config::ftl_config()));
            ftl = Some(dev.clone());
            let counter = dev.clone();
            Arc::new(
                BlockBackend::new(dev, config::REGION_BYTES)
                    .with_media_counter(move || counter.stats().media_bytes_written),
            )
        }
    };
    let backend = match tracer {
        Some(t) => Arc::new(TimedBackend::new(backend, t)) as Arc<dyn RegionBackend>,
        None => backend,
    };
    let cache = Arc::new(LogCache::new(backend, config::cache_config(dram_bytes))?);
    Ok(Stack {
        cache,
        zns,
        ftl,
        fs,
        middle,
    })
}

impl Stack {
    pub fn nand(&self) -> &NandArray {
        match (&self.zns, &self.ftl) {
            (Some(z), _) => z.nand(),
            (None, Some(f)) => f.nand(),
            (None, None) => unreachable!("every scheme sits on a ZNS device or an FTL SSD"),
        }
    }

    pub fn snapshot(&self) -> LayerSnap {
        LayerSnap {
            cache: self.cache.metrics(),
            media_bytes: self.cache.backend().media_bytes_written(),
            middle: self.middle.as_ref().map(|m| m.stats()).unwrap_or_default(),
            fs: self.fs.as_ref().map(|f| f.stats()).unwrap_or_default(),
            ftl: self.ftl.as_ref().map(|f| f.stats()).unwrap_or_default(),
            zns: self.zns.as_ref().map(|z| z.stats()).unwrap_or_default(),
            nand: self.nand().stats(),
            max_erase_count: self.nand().max_erase_count(),
        }
    }
}

/// Every layer's public counters at one instant. A layer the scheme does
/// not have reads all zeros.
#[derive(Clone, Debug, Default)]
pub struct LayerSnap {
    pub cache: CacheMetricsSnapshot,
    pub media_bytes: u64,
    pub middle: MiddleStatsSnapshot,
    pub fs: FsStatsSnapshot,
    pub ftl: FtlStatsSnapshot,
    pub zns: ZnsStatsSnapshot,
    pub nand: NandStatsSnapshot,
    pub max_erase_count: u32,
}

/// Media bytes written per byte the engine flushed between two
/// snapshots. A phase that flushed nothing and programmed nothing did
/// not amplify: 1.
pub fn write_amp(before: &LayerSnap, after: &LayerSnap) -> f64 {
    let flushed = after.cache.bytes_flushed - before.cache.bytes_flushed;
    let media = after.media_bytes - before.media_bytes;
    if flushed == 0 {
        if media == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        media as f64 / flushed as f64
    }
}
