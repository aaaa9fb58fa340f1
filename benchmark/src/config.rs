//! Every tunable the benchmark's numbers depend on, pinned here.
//!
//! The values are copied from `crates/bench/src/{profile,setup}.rs` as of
//! the commit that added the benchmark, not called from there, so those
//! files can be merged or deleted without moving the yardstick. Each
//! struct is finished by struct-update from the crate's own constructor:
//! a field added later takes that constructor's value instead of breaking
//! the build.
#![allow(clippy::needless_update)] // the update is the point, see above

use std::time::Duration;

use zns_cache_repro::f2fs_lite::FsConfig;
use zns_cache_repro::ftl::FtlConfig;
use zns_cache_repro::nand::{Geometry, NandConfig, NandTiming, StoreKind};
use zns_cache_repro::sim::Nanos;
use zns_cache_repro::zns::ZnsConfig;
use zns_cache_repro::zns_cache::backend::{GcMode, MiddleConfig};
use zns_cache_repro::zns_cache::{Admission, CacheConfig, EvictionPolicy, Scheme};
use zns_cache_repro::zns_cache_server::ServerConfig;

// ---- device geometry: 8 zones x 16 MiB over 4 channels x 2 dies ----

pub const ZONES: u32 = 8;
pub const ZONE_BYTES: u64 = 16 * 1024 * 1024;
pub const DEVICE_BYTES: u64 = ZONES as u64 * ZONE_BYTES;
/// Region size of Region-, File- and Block-Cache; Zone-Cache's region is
/// the zone.
pub const REGION_BYTES: usize = 256 * 1024;
pub const DIES: u32 = 8;
pub const APPEND_DEPTH: usize = 16;
/// Hot-object pool plus the scheme's two region buffers.
pub const DRAM_BUDGET: usize = 48 * 1024 * 1024;

/// Zone-equivalents of cache each scheme gets on the 8-zone device; the
/// rest is its over-provisioning.
pub fn cache_zones(scheme: Scheme) -> u32 {
    match scheme {
        Scheme::Zone => 8,
        Scheme::Region | Scheme::Block => 6,
        Scheme::File => 5,
    }
}

pub fn region_bytes(scheme: Scheme) -> usize {
    match scheme {
        Scheme::Zone => ZONE_BYTES as usize,
        _ => REGION_BYTES,
    }
}

pub fn nand_config() -> NandConfig {
    NandConfig {
        // 2 MiB erase blocks (512 pages); a zone is 8 blocks striped over
        // all 8 dies, so blocks per die equals the zone count.
        geometry: Geometry::new(4, 2, ZONES, 512),
        // The flash timing is the emulator's cost model, part of what is
        // measured, so it is taken as the crate defines it.
        timing: NandTiming::default(),
        store: StoreKind::Ram,
        ..NandConfig::small_test()
    }
}

pub fn zns_config() -> ZnsConfig {
    ZnsConfig {
        nand: nand_config(),
        zone_blocks: 8,
        stripe_dies: DIES,
        max_open_zones: 14,
        max_active_zones: 28,
        zone_cap_blocks: None,
        ..ZnsConfig::small_test()
    }
}

pub fn ftl_config() -> FtlConfig {
    let cache = cache_zones(Scheme::Block);
    FtlConfig {
        nand: nand_config(),
        op_ratio: 1.0 - f64::from(cache) / f64::from(ZONES),
        gc_low_water: 4,
        gc_high_water: 8,
        gc_pages_per_host_write: 8,
        ..FtlConfig::small_test()
    }
}

pub fn fs_config() -> FsConfig {
    FsConfig {
        zns: zns_config(),
        meta_blocks: 96 * 256,
        reserved_zones: ZONES - cache_zones(Scheme::File),
        min_free_zones: 2,
        node_fanout: 1024,
        dirty_node_flush_threshold: 64,
        checkpoint_interval_blocks: 8192,
        ..FsConfig::small_test()
    }
}

/// Regions of File-Cache's one big file: the cache budget less one zone
/// of slack (so sealed zones accumulate dead blocks for the cleaner) and
/// an 8-region trim.
pub fn file_regions() -> u32 {
    let per_zone = (ZONE_BYTES / REGION_BYTES as u64) as u32;
    cache_zones(Scheme::File) * per_zone - per_zone - 8
}

pub fn middle_config() -> MiddleConfig {
    let per_zone = (ZONE_BYTES / REGION_BYTES as u64) as u32;
    let reserve_zones = ZONES - cache_zones(Scheme::Region);
    MiddleConfig {
        region_size: REGION_BYTES,
        user_regions: cache_zones(Scheme::Region) * per_zone,
        min_empty_zones: (reserve_zones / 2).max(1),
        victim_valid_ratio: 0.2,
        concurrent_open_zones: 4,
        use_append: true,
        gc_mode: GcMode::Migrate,
        ..MiddleConfig::small_test()
    }
}

/// Engine configuration with `dram_bytes` of hot-object pool (0 turns the
/// DRAM tier off: write-through, the paper's operating point).
pub fn cache_config(dram_bytes: usize) -> CacheConfig {
    CacheConfig {
        eviction: EvictionPolicy::Lru,
        admission: Admission::Always,
        dram_bytes,
        dram_shards: 16,
        dram_write_back: true,
        in_memory_buffers: 1,
        insert_cpu: Nanos::from_nanos(2_000),
        lookup_cpu: Nanos::from_nanos(1_000),
        index_remove_cpu: Nanos::from_nanos(2_000),
        index_remove_contended_cpu: Nanos::from_nanos(80_000),
        verify_keys: true,
        eviction_lock_threshold: 4096,
        reinsertion_fraction: 0.0,
        maintenance_interval_sets: 64,
        read_retry_attempts: 3,
        clean_region_watermark: 2,
        seed: 42,
        ..CacheConfig::small_test()
    }
}

/// The default DRAM pool: the budget less the scheme's two region buffers.
pub fn default_dram_pool(scheme: Scheme) -> usize {
    DRAM_BUDGET - 2 * region_bytes(scheme)
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        shards: 4,
        queue_capacity: 64,
        soft_overload: 0.75,
        set_admission_under_pressure: Admission::Random { probability: 0.5 },
        op_wall_delay: Duration::ZERO,
        maintainer: true,
        ..ServerConfig::default()
    }
}

// ---- workloads ----

/// The harness runs one maintenance pass every this many engine ops.
pub const MAINTAIN_EVERY: u64 = 64;
/// Wall-clock metrics are the median over this many equal consecutive
/// segments of the measured window.
pub const SEGMENTS: usize = 5;
/// Set-up is done this many times per run; `setup_s` is the median.
pub const SETUPS: usize = 3;

pub const CHURN_KEYS: u64 = 50_000;
pub const CHURN_WARMUP_OPS: u64 = 100_000;
/// Measured ops of a `churn.*` run per second of `--seconds`: the op
/// count, not the wall clock, ends the run, so every sim-clock number is
/// a pure function of `(seed, seconds)`.
pub const CHURN_OPS_PER_SECOND: u64 = 80_000;
pub const CHURN_GET: f64 = 0.5;
pub const CHURN_SET: f64 = 0.3;
pub const ZIPF: f64 = 0.9;

pub const SMALL_KEYS: u64 = 12_000;
pub const SMALL_VALUE: usize = 4096;
pub const HOT_WARMUP_OPS: u64 = 100_000;
pub const HOT_GET: f64 = 0.9;

/// The scheme behind the server. Not Zone-Cache: on the RAM store one
/// 16 MiB region flush holds a shard thread for some 19 ms, and at the
/// pinned queue depth every flush sheds several hundred requests, so no
/// run would be free of failed operations (README, "Failures"). Not
/// Region-Cache either: it sheds a few per run. Block-Cache sheds none.
pub const SRV_SCHEME: Scheme = Scheme::Block;
pub const SRV_WARMUP_SETS: u64 = 60_000;
/// About 40 % of what the one pinned CPU sustains with this harness on
/// it too (6.3 us of CPU per request, client included).
pub const SRV_OPEN_RATE: f64 = 64_000.0;
pub const SRV_OPEN_GET: f64 = 0.9;
pub const SRV_RR_BATCH: usize = 32;
pub const SRV_RR_GET: f64 = 0.5;
/// A reply not received this long after the last byte arrived is missing.
pub const SRV_REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// Offered rates of the traced run's knee search, and how long each runs.
pub const KNEE_RATES: [f64; 5] = [32e3, 64e3, 96e3, 128e3, 160e3];
pub const KNEE_STEP_SECS: f64 = 0.6;
pub const KNEE_P99_LIMIT_US: f64 = 1000.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Churn(Scheme),
    Hot,
    SrvOpen,
    SrvRr,
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub workload: Workload,
    /// Expected wall seconds of one run per second of `--seconds`, plus a
    /// fixed part; the parent's deadline is four times the sum.
    pub wall_per_second: f64,
    pub wall_fixed: f64,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "churn.zone",
        workload: Workload::Churn(Scheme::Zone),
        wall_per_second: 1.0,
        wall_fixed: 4.0,
    },
    WorkloadSpec {
        name: "churn.region",
        workload: Workload::Churn(Scheme::Region),
        wall_per_second: 1.0,
        wall_fixed: 4.0,
    },
    WorkloadSpec {
        name: "churn.file",
        workload: Workload::Churn(Scheme::File),
        wall_per_second: 2.5,
        wall_fixed: 10.0,
    },
    WorkloadSpec {
        name: "churn.block",
        workload: Workload::Churn(Scheme::Block),
        wall_per_second: 1.0,
        wall_fixed: 4.0,
    },
    WorkloadSpec {
        name: "hot",
        workload: Workload::Hot,
        wall_per_second: 1.0,
        wall_fixed: 3.0,
    },
    WorkloadSpec {
        name: "srv_open",
        workload: Workload::SrvOpen,
        wall_per_second: 1.0,
        wall_fixed: 6.0,
    },
    WorkloadSpec {
        name: "srv_rr",
        workload: Workload::SrvRr,
        wall_per_second: 1.0,
        wall_fixed: 4.0,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}
