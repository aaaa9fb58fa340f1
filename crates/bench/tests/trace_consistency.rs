//! The event trace must agree with the metrics it claims to explain:
//! per-kind event counts from a traced multi-thread run are checked
//! against the engine's own counters, and a run with tracing disabled
//! must record nothing at all.
//!
//! This lives in its own integration-test binary (one `#[test]`) because
//! the tracer is process-global: unit tests running in parallel threads
//! would interleave their events into the same rings.

use zns_cache::backend::GcMode;
use zns_cache::trace::{self, EventKind};
use zns_cache::Scheme;
use zns_cache_bench::{build_scheme_on, run_mt, DeviceProfile, MtConfig};

#[test]
fn traced_run_matches_metrics_and_disabled_run_records_nothing() {
    // Disabled (the default): a full workload must leave the rings
    // untouched — the zero-overhead contract for production runs.
    let cfg = MtConfig {
        threads: 4,
        ..MtConfig::smoke(4)
    };
    // DRAM tier off: with the default write-back budget this smoke-size
    // working set never leaves DRAM, so nothing is sealed or evicted and
    // there would be no events to check.
    let profile = || DeviceProfile::sparse(8).fast().with_dram_budget(0);
    let sc = build_scheme_on(profile(), Scheme::File, 5, GcMode::Migrate);
    run_mt(&sc, &cfg);
    assert!(!trace::is_enabled());
    assert!(
        trace::snapshot().is_empty(),
        "tracing disabled must record no events"
    );
    assert_eq!(trace::dropped(), 0);

    // Enabled: rebuild the scheme after clearing so the trace covers the
    // cache's whole life, then compare per-kind counts to the engine's
    // cumulative counters (both include warmup).
    trace::enable();
    trace::clear();
    let sc = build_scheme_on(profile(), Scheme::File, 5, GcMode::Migrate);
    run_mt(&sc, &cfg);
    let events = trace::snapshot();
    let dropped = trace::dropped();
    trace::disable();
    trace::clear();

    assert_eq!(dropped, 0, "smoke-size run must fit the rings");
    assert!(!events.is_empty());
    let by_kind = trace::count_by_kind(&events);
    let count = |k: EventKind| by_kind.get(&k).copied().unwrap_or(0);
    let m = sc.cache.metrics();

    assert_eq!(
        count(EventKind::RegionSeal),
        m.flushes,
        "every successful seal must emit one RegionSeal event"
    );
    assert_eq!(
        count(EventKind::RegionEvict),
        m.evicted_regions,
        "every evicted region must emit one RegionEvict event"
    );
    assert_eq!(
        count(EventKind::InlineEviction),
        m.inline_evictions,
        "inline (foreground) evictions must be traced one-for-one"
    );
    assert_eq!(
        count(EventKind::MaintainerEviction),
        m.maintainer_evictions,
        "maintainer (background) evictions must be traced one-for-one"
    );
    // The per-region tables are the counters' spatial breakdown; their
    // totals must be the same numbers.
    assert_eq!(
        sc.cache.region_seal_counts().iter().sum::<u64>(),
        m.flushes
    );
    assert_eq!(
        sc.cache.region_eviction_counts().iter().sum::<u64>(),
        m.evicted_regions
    );
    // File-Cache runs the f2fs cleaner: passes must be balanced and any
    // victim event must belong to some pass.
    assert_eq!(
        count(EventKind::CleanerStart),
        count(EventKind::CleanerStop),
        "every cleaner pass must close"
    );
    if count(EventKind::CleanerVictim) > 0 {
        assert!(count(EventKind::CleanerStart) > 0);
    }
    // Timestamps arrive merged in nondecreasing simulated-time order.
    assert!(events.windows(2).all(|w| w[0].t <= w[1].t));
}
