//! The metric tables: names, units, which way is better and, for
//! end-to-end metrics, the bound. `BENCHMARK.json` lists the same names;
//! a unit test holds the two together.

use crate::engine::OpClass;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may get worse.
    pub bound: f64,
    /// Read on the simulated clock by `churn.*`: two runs of one commit
    /// with one seed must agree exactly there.
    pub exact_on_sim: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    exact_on_sim: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact_on_sim,
    }
}

/// Every workload reports every one of these. `ops_per_s` and the two
/// latencies are on the workload's clock of record: simulated for
/// `churn.*`, wall for `hot` and `srv_*`.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25, false),
    e2e("ops_per_s", "1/s", Better::Higher, 0.20, true),
    e2e("get_mean_us", "us", Better::Lower, 0.15, true),
    e2e("get_slow1pct_us", "us", Better::Lower, 0.25, true),
    e2e("hit_ratio", "ratio", Better::Higher, 0.03, true),
    e2e("write_amp", "ratio", Better::Lower, 0.12, true),
    e2e("cpu_us_per_op", "us", Better::Lower, 0.18, false),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.15, false),
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Every workload's traced run reports every one of these; a layer the
/// workload does not have reads 0.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut v = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        v.push(PerLayer {
            name: name.to_string(),
            unit,
            better,
        })
    };
    for class in OpClass::ALL {
        add(&format!("core.{}.share", class.name()), "ratio", Higher);
        add(&format!("core.{}.wall_ns_p50", class.name()), "ns", Lower);
    }
    add("core.get_flash_hit.sim_us_p50", "sim_us", Lower);
    add("core.set_seal.sim_us_p50", "sim_us", Lower);
    for (name, unit, better) in [
        ("core.self_wall_share", "ratio", Lower),
        ("core.hit_ratio", "ratio", Higher),
        ("core.flushes", "count", Lower),
        ("core.flush_bytes_per_user_byte", "ratio", Lower),
        ("core.evicted_regions", "count", Lower),
        ("core.evicted_objects", "count", Lower),
        ("core.inline_evictions", "count", Lower),
        ("core.maintainer_evictions", "count", Lower),
        ("core.dram_demotions", "count", Lower),
        ("core.stale_reads", "count", Lower),
        ("core.retries", "count", Lower),
        ("core.flush_failures", "count", Lower),
        ("core.quarantined_regions", "count", Lower),
        ("core.maintain.calls", "count", Lower),
        ("core.maintain.wall_share", "ratio", Lower),
        ("core.maintain.sim_ms", "sim_ms", Lower),
        ("core.index_lookup_ns", "ns", Lower),
        ("core.dram_get_ns", "ns", Lower),
        ("backend.write_region.calls", "count", Lower),
        ("backend.write_region.wall_us_p50", "us", Lower),
        ("backend.write_region.sim_us_p50", "sim_us", Lower),
        ("backend.write_region.sim_us_p99", "sim_us", Lower),
        ("backend.read.calls", "count", Lower),
        ("backend.read.wall_ns_p50", "ns", Lower),
        ("backend.read.sim_us_p50", "sim_us", Lower),
        ("backend.read.sim_us_p999", "sim_us", Lower),
        ("backend.discard.calls", "count", Lower),
        ("backend.discard.sim_us_p50", "sim_us", Lower),
        ("backend.maintenance.calls", "count", Lower),
        ("backend.maintenance.wall_ms", "ms", Lower),
        ("backend.maintenance.sim_ms", "sim_ms", Lower),
        ("backend.wall_share", "ratio", Lower),
        ("backend.sim_share", "ratio", Lower),
        ("middle.gc_cycles", "count", Lower),
        ("middle.gc_migrated_regions", "count", Lower),
        ("middle.wa", "ratio", Lower),
        ("f2fs.wa", "ratio", Lower),
        ("f2fs.gc_data_moved_blocks", "count", Lower),
        ("f2fs.node_blocks_written", "count", Lower),
        ("f2fs.zones_cleaned", "count", Lower),
        ("f2fs.checkpoints", "count", Lower),
        ("f2fs.pwrite_wall_us", "us", Lower),
        ("ftl.wa", "ratio", Lower),
        ("ftl.gc_pages_moved", "count", Lower),
        ("ftl.gc_victims", "count", Lower),
        ("ftl.blocks_erased", "count", Lower),
        ("ftl.write_wall_us", "us", Lower),
        ("zns.host_mib_written", "MiB", Lower),
        ("zns.host_mib_read", "MiB", Lower),
        ("zns.zone_resets", "count", Lower),
        ("zns.zone_finishes", "count", Lower),
        ("zns.append_wall_us", "us", Lower),
        ("zns.read4k_wall_ns", "ns", Lower),
        ("nand.pages_programmed", "count", Lower),
        ("nand.pages_read", "count", Lower),
        ("nand.blocks_erased", "count", Lower),
        ("nand.max_erase_count", "count", Lower),
        ("nand.die_util", "ratio", Lower),
        ("nand.program_wall_ns", "ns", Lower),
        ("nand.read_wall_ns", "ns", Lower),
        ("server.frames_per_read", "count", Higher),
        ("server.jobs_per_dispatch", "count", Higher),
        ("server.replies_per_flush", "count", Higher),
        ("server.bytes_copied_per_req", "B", Lower),
        ("server.reply_allocs", "count", Lower),
        ("server.busy_share", "ratio", Lower),
        ("server.shed_sets", "count", Lower),
        ("server.max_queue_depth", "count", Lower),
        ("server.cpu_us_per_req", "us", Lower),
        ("server.gen_late_p99_us", "us", Lower),
        ("server.knee_rate_per_s", "1/s", Higher),
        ("wire.decode_ns_per_frame", "ns", Lower),
        ("wire.encode_ns_per_reply", "ns", Lower),
        ("sim.ops_per_s", "1/sim_s", Higher),
        ("sim.get_p50_us", "sim_us", Lower),
        ("sim.get_p999_us", "sim_us", Lower),
        ("sim.set_p999_us", "sim_us", Lower),
        ("wall.ops_per_s", "1/s", Higher),
        ("wall.get_p50_us", "us", Lower),
        ("wall.get_p99_us", "us", Lower),
        ("wall.set_p99_us", "us", Lower),
        ("workload.gen_ns_per_op", "ns", Lower),
        ("client.cpu_us_per_req", "us", Lower),
        ("trace.overhead_pct", "%", Lower),
        ("trace.reconcile_err_pct", "%", Lower),
        ("trace.spans_dropped", "count", Lower),
        ("harness.failed_share", "ratio", Lower),
        ("harness.pinned", "bool", Higher),
    ] {
        add(name, unit, better);
    }
    v
}

/// What one run of one workload found.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong bytes served and regime guards broken: each makes the run
    /// incorrect.
    pub problems: Vec<String>,
    /// Metric values in table order.
    pub metrics: Vec<(String, f64)>,
    /// Lines for people: sample counts, guard readings.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    pub fn guard(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// A float with all its digits, in a form JSON takes.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no infinity; an unbounded ratio prints as a huge one.
        format!("{}", f64::MAX)
    }
}
