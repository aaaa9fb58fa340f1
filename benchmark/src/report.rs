//! Turns a workload's raw results into its metrics, and holds each
//! workload to the regime its row in the README describes.

use std::fs;
use std::io::BufWriter;
use std::path::PathBuf;

use zns_cache_repro::zns_cache::Scheme;

use crate::config::{self, Workload, WorkloadSpec, DEVICE_BYTES, DIES, REGION_BYTES, SETUPS};
use crate::drives;
use crate::engine::{self, Clock, EngineResult, EngineSpec, OpClass, MAINTAIN_ID_BASE};
use crate::metrics::{per_layer, Report};
use crate::served::{self, ServedResult};
use crate::stack::{write_amp, LayerSnap};
use crate::stats::{mean_of, median, peak_rss_mib, percentile, slowest_mean};
use crate::trace::{self, Span, SpanKind, Tracer};

/// The share of calls `*_slow1pct_us` averages.
const SLOW_SHARE: f64 = 0.01;

pub struct RunArgs {
    pub spec: &'static WorkloadSpec,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// A smoke run: short warm-ups, one set-up, regime guards off.
    pub check: bool,
    pub pinned: bool,
}

/// Where the benchmark leaves files: `<target dir>/benchmark`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("benchmark")
}

fn engine_spec(args: &RunArgs) -> Option<EngineSpec> {
    let mut spec = match args.spec.workload {
        Workload::Churn(scheme) => engine::churn_spec(scheme, args.seconds),
        Workload::Hot => engine::hot_spec(args.seconds),
        Workload::SrvOpen | Workload::SrvRr => return None,
    };
    if args.check {
        spec.warmup_ops /= 20;
    }
    Some(spec)
}

pub fn run(args: &RunArgs) -> Result<Report, String> {
    let setups = if args.check { 1 } else { SETUPS };
    let open = args.spec.workload == Workload::SrvOpen;
    let mut report = match (engine_spec(args), args.traced) {
        (Some(spec), false) => {
            engine_end_to_end(&engine::run(&spec, args.seed, setups, None)?, &spec, args)
        }
        (Some(spec), true) => {
            // The drives go first: in a process whose heap a workload has
            // churned they read up to ten times slower.
            let driven = drives::run(spec.scheme, spec.dram_bytes > 0, false, spec.keys);
            let reference = engine::run(&spec, args.seed, 1, None)?;
            let tracer = Tracer::default();
            let traced = engine::run(&spec, args.seed, 1, Some(&tracer))?;
            let (threads, dropped) = tracer.collect();
            let mut report = engine_per_layer(&reference, &traced, &spec, &threads, dropped, args)?;
            driven
                .iter()
                .for_each(|(name, value)| report.set(name, *value));
            report
        }
        (None, false) => served_end_to_end(
            &served::run(open, args.seconds, args.seed, setups, args.check, None)?,
            args,
        ),
        (None, true) => {
            let driven = drives::run(config::SRV_SCHEME, true, true, config::SMALL_KEYS);
            let reference = served::run(open, args.seconds, args.seed, 1, args.check, None)?;
            let tracer = Tracer::default();
            let traced = served::run(open, args.seconds, args.seed, 1, args.check, Some(&tracer))?;
            // The server's threads have ended: their spans have arrived.
            let (threads, dropped) = tracer.collect();
            let mut report = served_per_layer(&reference, &traced, &threads, dropped, args)?;
            driven
                .iter()
                .for_each(|(name, value)| report.set(name, *value));
            report
        }
    };
    if args.check {
        report.notes.extend(
            report
                .problems
                .drain(..)
                .map(|p| format!("(check run, not enforced) {p}")),
        );
    }
    Ok(report)
}

// ---- end to end ----

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn churn_guards(
    report: &mut Report,
    scheme: Scheme,
    before: &LayerSnap,
    after: &LayerSnap,
    seconds: f64,
) {
    let flushed = after.cache.bytes_flushed - before.cache.bytes_flushed;
    report.notes.push(format!(
        "flushed {:.2}x the device",
        flushed as f64 / DEVICE_BYTES as f64
    ));
    report.guard(flushed as f64 >= DEVICE_BYTES as f64 * seconds, || {
        format!("flushed only {flushed} B: want {seconds}x the {DEVICE_BYTES} B device so that garbage collection is in steady state")
    });
    let (what, seen, want) = match scheme {
        Scheme::Zone => (
            "zns.zone_resets",
            after.zns.zone_resets - before.zns.zone_resets,
            8.0 * seconds,
        ),
        Scheme::Region => (
            "middle.gc_cycles",
            after.middle.gc_cycles - before.middle.gc_cycles,
            10.0 * seconds,
        ),
        Scheme::File => (
            "f2fs.zones_cleaned",
            after.fs.zones_cleaned - before.fs.zones_cleaned,
            10.0 * seconds,
        ),
        Scheme::Block => (
            "ftl.gc_victims",
            after.ftl.gc_victims - before.ftl.gc_victims,
            100.0 * seconds,
        ),
    };
    report
        .notes
        .push(format!("{what} {seen} (guard: at least {want})"));
    report.guard(seen as f64 >= want, || format!("{what} is {seen}, want at least {want}: the scheme's reclamation is not being exercised"));
    report.guard(after.cache.dram_demotions == 0, || {
        format!(
            "core.dram_demotions is {}: the DRAM tier is on",
            after.cache.dram_demotions
        )
    });
}

fn engine_end_to_end(r: &EngineResult, spec: &EngineSpec, args: &RunArgs) -> Report {
    let c = &r.counts;
    let mut report = Report {
        attempted: c.calls,
        failed: c.failed,
        ..Report::default()
    };
    report.guard(c.wrong == 0, || {
        format!("{} hits served wrong bytes", c.wrong)
    });
    report.set("setup_s", median(&r.setup_s));
    match spec.clock {
        Clock::Sim { .. } => {
            let (gets, sets) = (r.get_lat.all_sorted(), r.set_lat.all_sorted());
            report.set("ops_per_s", c.ops as f64 / (r.sim_elapsed_ns as f64 / 1e9));
            report.set("get_mean_us", us(mean_of(&gets)));
            report.set("get_slow1pct_us", us(slowest_mean(&gets, SLOW_SHARE)));
            report.notes.push(format!(
                "sim clock: {} ops in {:.3} sim s; {} get and {} set calls; get p50 {} ns p999 {} ns, set p999 {} ns; {:.0} ops per wall s",
                c.ops,
                r.sim_elapsed_ns as f64 / 1e9,
                gets.len(),
                sets.len(),
                percentile(&gets, 50.0),
                percentile(&gets, 99.9),
                percentile(&sets, 99.9),
                c.ops as f64 / (r.wall_elapsed_ns as f64 / 1e9),
            ));
        }
        Clock::Wall { .. } => {
            report.set("ops_per_s", median(&r.segment_ops_per_s));
            report.set("get_mean_us", us(r.get_lat.mean()));
            report.set("get_slow1pct_us", us(r.get_lat.slowest_mean(SLOW_SHARE)));
            report.notes.push(format!(
                "wall clock, median of {} segments: {} get and {} set calls; get p50 {} ns p99 {} ns; {:.0} ops per sim s",
                config::SEGMENTS,
                r.get_lat.count(),
                r.set_lat.count(),
                r.get_lat.percentile(50.0),
                r.get_lat.percentile(99.0),
                c.ops as f64 / (r.sim_elapsed_ns as f64 / 1e9),
            ));
        }
    }
    let wa = write_amp(&r.before, &r.after);
    report.set("hit_ratio", c.hits as f64 / c.gets.max(1) as f64);
    report.set("write_amp", wa);
    report.set("cpu_us_per_op", us(r.cpu_ns as f64) / c.ops.max(1) as f64);
    report.set("peak_rss_mib", peak_rss_mib());
    match args.spec.workload {
        Workload::Churn(scheme) => {
            churn_guards(&mut report, scheme, &r.before, &r.after, args.seconds);
            if scheme == Scheme::Zone {
                report.guard(wa == 1.0, || format!("Zone-Cache write amplification is {wa}, not 1: the paper's invariant is broken"));
            }
        }
        _ => {
            // A 4 KiB value with its header spans two device blocks.
            let flash_reads = (r.after.zns.host_blocks_read - r.before.zns.host_blocks_read) / 2;
            report.notes.push(format!(
                "about {flash_reads} of {} GETs read the device",
                c.gets
            ));
            report.guard(flash_reads * 100 <= c.gets, || {
                format!(
                    "{flash_reads} of {} GETs read the device: `hot` is to bypass it",
                    c.gets
                )
            });
        }
    }
    report
}

fn served_end_to_end(r: &ServedResult, _args: &RunArgs) -> Report {
    let p = &r.phase;
    let c = &p.counts;
    let mut report = Report {
        attempted: c.attempted,
        failed: c.failed(),
        ..Report::default()
    };
    report.guard(c.wrong == 0, || {
        format!("{} hits served wrong bytes", c.wrong)
    });
    report.guard(c.missing + c.stray == 0, || {
        format!(
            "{} requests got no reply and {} replies matched no request: want exactly one each",
            c.missing, c.stray
        )
    });
    report.set("setup_s", median(&r.setup_s));
    report.set("ops_per_s", median(&p.segment_goodput));
    report.set("get_mean_us", us(p.get_lat.mean()));
    report.set("get_slow1pct_us", us(p.get_lat.slowest_mean(SLOW_SHARE)));
    report.set("hit_ratio", c.hits as f64 / c.gets.max(1) as f64);
    report.set("write_amp", write_amp(&r.before, &r.after));
    // The sender paces by yielding, so the harness threads soak up
    // whatever CPU the server leaves: only the rest says anything.
    report.set(
        "cpu_us_per_op",
        us(r.process_cpu_ns.saturating_sub(p.client_cpu_ns) as f64) / c.attempted.max(1) as f64,
    );
    report.set("peak_rss_mib", peak_rss_mib());
    report.notes.push(format!(
        "wall clock, median of {} segments: {} requests in {:.3} s, {} busy, {} errors, {} missing; {} get and {} set replies; get p50 {} ns p99 {} ns",
        config::SEGMENTS,
        c.attempted,
        p.wall_elapsed_ns as f64 / 1e9,
        c.busy,
        c.errors,
        c.missing,
        p.get_lat.count(),
        p.set_lat.count(),
        p.get_lat.percentile(50.0),
        p.get_lat.percentile(99.0),
    ));
    report
}

// ---- per layer ----

/// Wall and sim durations of the backend spans of one kind, ascending.
struct KindSpans {
    wall: Vec<u64>,
    sim: Vec<u64>,
}

fn spans_of(threads: &[Vec<Span>], kind: SpanKind) -> KindSpans {
    let of_kind = || threads.iter().flatten().filter(move |s| s.kind == kind);
    let mut wall: Vec<u64> = of_kind().map(Span::wall_ns).collect();
    let mut sim: Vec<u64> = of_kind().map(Span::sim_ns).collect();
    wall.sort_unstable();
    sim.sort_unstable();
    KindSpans { wall, sim }
}

fn zeroed_layers(args: &RunArgs, attempted: u64, failed: u64) -> Report {
    let mut report = Report {
        attempted,
        failed,
        ..Report::default()
    };
    for m in per_layer() {
        report.set(&m.name, 0.0);
    }
    report.set("harness.pinned", f64::from(u8::from(args.pinned)));
    report.set(
        "harness.failed_share",
        failed as f64 / attempted.max(1) as f64,
    );
    report
}

/// What the backend spans and the layers' own counters say, for any
/// workload. `wall_ns` and `sim_ns` are the measured window.
fn common_layers(
    report: &mut Report,
    threads: &[Vec<Span>],
    before: &LayerSnap,
    after: &LayerSnap,
    wall_ns: u64,
    sim_ns: u64,
) {
    let write = spans_of(threads, SpanKind::WriteRegion);
    let read = spans_of(threads, SpanKind::Read);
    let discard = spans_of(threads, SpanKind::Discard);
    let maint = spans_of(threads, SpanKind::BackendMaintenance);
    report.set("backend.write_region.calls", write.wall.len() as f64);
    report.set(
        "backend.write_region.wall_us_p50",
        us(percentile(&write.wall, 50.0) as f64),
    );
    report.set(
        "backend.write_region.sim_us_p50",
        us(percentile(&write.sim, 50.0) as f64),
    );
    report.set(
        "backend.write_region.sim_us_p99",
        us(percentile(&write.sim, 99.0) as f64),
    );
    report.set("backend.read.calls", read.wall.len() as f64);
    report.set(
        "backend.read.wall_ns_p50",
        percentile(&read.wall, 50.0) as f64,
    );
    report.set(
        "backend.read.sim_us_p50",
        us(percentile(&read.sim, 50.0) as f64),
    );
    report.set(
        "backend.read.sim_us_p999",
        us(percentile(&read.sim, 99.9) as f64),
    );
    report.set("backend.discard.calls", discard.wall.len() as f64);
    report.set(
        "backend.discard.sim_us_p50",
        us(percentile(&discard.sim, 50.0) as f64),
    );
    report.set("backend.maintenance.calls", maint.wall.len() as f64);
    report.set(
        "backend.maintenance.wall_ms",
        maint.wall.iter().sum::<u64>() as f64 / 1e6,
    );
    report.set(
        "backend.maintenance.sim_ms",
        maint.sim.iter().sum::<u64>() as f64 / 1e6,
    );
    let backend = || threads.iter().flatten().filter(|s| s.kind.is_backend());
    report.set(
        "backend.wall_share",
        backend().map(Span::wall_ns).sum::<u64>() as f64 / wall_ns.max(1) as f64,
    );
    let under_ops = backend()
        .filter(|s| s.parent != 0 && s.parent < MAINTAIN_ID_BASE)
        .map(Span::sim_ns)
        .sum::<u64>();
    let under_maintain = backend()
        .filter(|s| s.parent >= MAINTAIN_ID_BASE)
        .map(Span::sim_ns)
        .sum::<u64>();
    if sim_ns > 0 {
        report.set("backend.sim_share", under_ops as f64 / sim_ns as f64);
    }
    report.set("core.maintain.sim_ms", under_maintain as f64 / 1e6);

    let (c, c0) = (&after.cache, &before.cache);
    let (m, m0) = (&after.middle, &before.middle);
    let (f, f0) = (&after.fs, &before.fs);
    let (t, t0) = (&after.ftl, &before.ftl);
    let (z, z0) = (&after.zns, &before.zns);
    let (n, n0) = (&after.nand, &before.nand);
    for (name, now, then) in [
        ("core.flushes", c.flushes, c0.flushes),
        (
            "core.evicted_regions",
            c.evicted_regions,
            c0.evicted_regions,
        ),
        (
            "core.evicted_objects",
            c.evicted_objects,
            c0.evicted_objects,
        ),
        (
            "core.inline_evictions",
            c.inline_evictions,
            c0.inline_evictions,
        ),
        (
            "core.maintainer_evictions",
            c.maintainer_evictions,
            c0.maintainer_evictions,
        ),
        ("core.dram_demotions", c.dram_demotions, c0.dram_demotions),
        ("core.stale_reads", c.stale_reads, c0.stale_reads),
        ("core.retries", c.retries, c0.retries),
        ("core.flush_failures", c.flush_failures, c0.flush_failures),
        (
            "core.quarantined_regions",
            c.quarantined_regions,
            c0.quarantined_regions,
        ),
        ("middle.gc_cycles", m.gc_cycles, m0.gc_cycles),
        (
            "middle.gc_migrated_regions",
            m.gc_migrated_regions,
            m0.gc_migrated_regions,
        ),
        (
            "f2fs.gc_data_moved_blocks",
            f.gc_data_moved,
            f0.gc_data_moved,
        ),
        (
            "f2fs.node_blocks_written",
            f.node_blocks_written,
            f0.node_blocks_written,
        ),
        ("f2fs.zones_cleaned", f.zones_cleaned, f0.zones_cleaned),
        ("f2fs.checkpoints", f.checkpoints, f0.checkpoints),
        ("ftl.gc_pages_moved", t.gc_pages_moved, t0.gc_pages_moved),
        ("ftl.gc_victims", t.gc_victims, t0.gc_victims),
        ("ftl.blocks_erased", t.blocks_erased, t0.blocks_erased),
        ("zns.zone_resets", z.zone_resets, z0.zone_resets),
        ("zns.zone_finishes", z.zone_finishes, z0.zone_finishes),
        (
            "nand.pages_programmed",
            n.pages_programmed,
            n0.pages_programmed,
        ),
        ("nand.pages_read", n.pages_read, n0.pages_read),
        ("nand.blocks_erased", n.blocks_erased, n0.blocks_erased),
    ] {
        report.set(name, (now - then) as f64);
    }
    report.set("nand.max_erase_count", f64::from(after.max_erase_count));
    // 4 KiB device blocks per MiB.
    report.set(
        "zns.host_mib_written",
        (z.host_blocks_written - z0.host_blocks_written) as f64 / 256.0,
    );
    report.set(
        "zns.host_mib_read",
        (z.host_blocks_read - z0.host_blocks_read) as f64 / 256.0,
    );

    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let flushed = c.bytes_flushed - c0.bytes_flushed;
    let migrated = m.gc_migrated_regions - m0.gc_migrated_regions;
    if m.gc_cycles > 0 {
        report.set(
            "middle.wa",
            1.0 + ratio(migrated * REGION_BYTES as u64, flushed),
        );
    }
    let data = f.data_blocks_written - f0.data_blocks_written;
    let fs_extra = (f.node_blocks_written - f0.node_blocks_written)
        + (f.gc_data_moved - f0.gc_data_moved)
        + (f.gc_node_moved - f0.gc_node_moved);
    report.set("f2fs.wa", ratio(data + fs_extra, data));
    report.set(
        "ftl.wa",
        ratio(
            t.media_bytes_written - t0.media_bytes_written,
            (t.host_pages_written - t0.host_pages_written) * 4096,
        ),
    );
    if sim_ns > 0 {
        // Counts times the public timing model, over every die.
        let nand = config::nand_config().timing;
        let busy = (n.pages_programmed - n0.pages_programmed) * nand.page_program.as_nanos()
            + (n.pages_read - n0.pages_read) * nand.page_read.as_nanos()
            + (n.blocks_erased - n0.blocks_erased) * nand.block_erase.as_nanos();
        report.set(
            "nand.die_util",
            busy as f64 / (f64::from(DIES) * sim_ns as f64),
        );
    }
}

fn write_spans(args: &RunArgs, threads: &[Vec<Span>]) -> Result<(), String> {
    let dir = out_dir();
    let path = dir.join(format!("{}.spans.jsonl", args.spec.name));
    let written = fs::create_dir_all(&dir).and_then(|()| {
        let mut out = BufWriter::new(fs::File::create(&path)?);
        trace::write_jsonl(&mut out, threads)?;
        std::io::Write::flush(&mut out)
    });
    written.map_err(|e| format!("writing {}: {e}", path.display()))
}

fn pct(new: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (new / base - 1.0) * 100.0
    }
}

fn engine_per_layer(
    reference: &EngineResult,
    r: &EngineResult,
    spec: &EngineSpec,
    threads: &[Vec<Span>],
    dropped: u64,
    args: &RunArgs,
) -> Result<Report, String> {
    let c = &r.counts;
    let t = r.trace.as_ref().ok_or("the traced run kept no trace")?;
    let mut report = zeroed_layers(args, c.calls, c.failed);
    report.guard(c.wrong == 0, || {
        format!("{} hits served wrong bytes", c.wrong)
    });
    common_layers(
        &mut report,
        threads,
        &r.before,
        &r.after,
        r.wall_elapsed_ns,
        r.sim_elapsed_ns,
    );

    let wall = r.wall_elapsed_ns as f64;
    let sorted = |classes: &[OpClass], pick: fn(&engine::ClassAgg) -> &Vec<u32>| {
        let mut v: Vec<u64> = classes
            .iter()
            .flat_map(|&c| pick(&t.classes[c as usize]).iter().map(|&n| u64::from(n)))
            .collect();
        v.sort_unstable();
        v
    };
    let wall_of = |classes: &[OpClass]| sorted(classes, |a| &a.wall_ns);
    let sim_of = |classes: &[OpClass]| sorted(classes, |a| &a.sim_ns);
    let get_classes = [OpClass::GetDramHit, OpClass::GetFlashHit, OpClass::GetMiss];
    let set_classes = [OpClass::Set, OpClass::SetSeal];
    let (get_wall, set_wall) = (wall_of(&get_classes), wall_of(&set_classes));
    let (get_sim, set_sim) = (sim_of(&get_classes), sim_of(&set_classes));
    for class in OpClass::ALL {
        let name = class.name();
        report.set(
            &format!("core.{name}.share"),
            t.classes[class as usize].wall_ns.len() as f64 / c.calls.max(1) as f64,
        );
        report.set(
            &format!("core.{name}.wall_ns_p50"),
            percentile(&wall_of(&[class]), 50.0) as f64,
        );
    }
    report.set(
        "core.get_flash_hit.sim_us_p50",
        us(percentile(&sim_of(&[OpClass::GetFlashHit]), 50.0) as f64),
    );
    report.set(
        "core.set_seal.sim_us_p50",
        us(percentile(&sim_of(&[OpClass::SetSeal]), 50.0) as f64),
    );
    report.set(
        "core.self_wall_share",
        (t.op_wall_ns - t.op_child_wall_ns) as f64 / wall,
    );
    report.set("core.hit_ratio", c.hits as f64 / c.gets.max(1) as f64);
    let user_bytes = r.after.cache.bytes_flushed - r.before.cache.bytes_flushed;
    report.set(
        "core.flush_bytes_per_user_byte",
        user_bytes as f64 / set_bytes(r, spec).max(1.0),
    );
    report.set("core.maintain.calls", t.maintain_calls as f64);
    report.set("core.maintain.wall_share", t.maintain_wall_ns as f64 / wall);
    report.set(
        "sim.ops_per_s",
        c.ops as f64 / (r.sim_elapsed_ns as f64 / 1e9),
    );
    report.set("sim.get_p50_us", us(percentile(&get_sim, 50.0) as f64));
    report.set("sim.get_p999_us", us(percentile(&get_sim, 99.9) as f64));
    report.set("sim.set_p999_us", us(percentile(&set_sim, 99.9) as f64));
    report.set("wall.ops_per_s", c.ops as f64 / (wall / 1e9));
    report.set("wall.get_p50_us", us(percentile(&get_wall, 50.0) as f64));
    report.set("wall.get_p99_us", us(percentile(&get_wall, 99.0) as f64));
    report.set("wall.set_p99_us", us(percentile(&set_wall, 99.0) as f64));
    report.set(
        "workload.gen_ns_per_op",
        t.harness_wall_ns as f64 / c.ops.max(1) as f64,
    );

    let traced_cpu = r.cpu_ns as f64 / c.ops.max(1) as f64;
    let reference_cpu = reference.cpu_ns as f64 / reference.counts.ops.max(1) as f64;
    report.set("trace.overhead_pct", pct(traced_cpu, reference_cpu));
    report.set("trace.spans_dropped", dropped as f64);
    // Three sums that must close: the harness thread's stages against
    // the measured wall window, the calls' sim durations against the sim
    // window, and the backend spans kept under calls against what the
    // calls saw them add up to.
    let stages = t.op_wall_ns + t.maintain_wall_ns + t.verify_wall_ns + t.harness_wall_ns;
    let kept_children: u64 = threads
        .iter()
        .flatten()
        .filter(|s| s.kind.is_backend() && s.parent != 0 && s.parent < MAINTAIN_ID_BASE)
        .map(Span::wall_ns)
        .sum();
    let errs = [
        (stages as f64 - wall).abs() / wall,
        (t.op_sim_ns as f64 - r.sim_elapsed_ns as f64).abs() / r.sim_elapsed_ns.max(1) as f64,
        (kept_children as f64 - t.op_child_wall_ns as f64).abs() / wall,
    ];
    report.set(
        "trace.reconcile_err_pct",
        errs.iter().fold(0.0f64, |m, e| m.max(*e)) * 100.0,
    );

    write_spans(args, threads)?;
    report.notes.push(format!(
        "{} spans from {} threads in {}; reference run {:.4} us cpu per op, traced {:.4}",
        threads.iter().map(Vec::len).sum::<usize>(),
        threads.len(),
        out_dir()
            .join(format!("{}.spans.jsonl", args.spec.name))
            .display(),
        reference_cpu / 1e3,
        traced_cpu / 1e3
    ));
    Ok(report)
}

/// Bytes of values the workload's SETs and fills handed the engine,
/// from the engine's own count of sets and the mean value size.
fn set_bytes(r: &EngineResult, spec: &EngineSpec) -> f64 {
    let sets = (r.after.cache.sets - r.before.cache.sets) as f64;
    let mean_len = match spec.fixed_len {
        Some(len) => len as f64,
        None => {
            (0..spec.keys)
                .map(|id| 4.0 * zns_cache_repro::workload::value_len_for_key(id) as f64)
                .sum::<f64>()
                / spec.keys as f64
        }
    };
    sets * mean_len
}

fn served_per_layer(
    reference: &ServedResult,
    r: &ServedResult,
    threads: &[Vec<Span>],
    dropped: u64,
    args: &RunArgs,
) -> Result<Report, String> {
    let p = &r.phase;
    let c = &p.counts;
    let mut report = zeroed_layers(args, c.attempted, c.failed());
    report.guard(c.wrong == 0, || {
        format!("{} hits served wrong bytes", c.wrong)
    });
    report.guard(c.missing + c.stray == 0, || {
        format!(
            "{} requests got no reply and {} replies matched no request",
            c.missing, c.stray
        )
    });
    // Only what ran inside the measured phase: the warm-up's flushes and
    // the knee search's are not this workload's.
    let (from, to) = r.traced_window_ns.ok_or("the traced run kept no window")?;
    let threads: Vec<Vec<Span>> = threads
        .iter()
        .map(|t| {
            t.iter()
                .filter(|s| s.wall_start_ns >= from && s.wall_end_ns <= to)
                .copied()
                .collect()
        })
        .collect();
    let threads = threads.as_slice();
    common_layers(
        &mut report,
        threads,
        &r.before,
        &r.after,
        p.wall_elapsed_ns,
        0,
    );

    let requests = c.attempted.max(1) as f64;
    let (a, b) = (&r.server_after, &r.server_before);
    let batch = |after: &zns_cache_repro::zns_cache_server::BatchStatSnapshot,
                 before: &zns_cache_repro::zns_cache_server::BatchStatSnapshot| {
        let events = after.events - before.events;
        if events == 0 {
            0.0
        } else {
            (after.items - before.items) as f64 / events as f64
        }
    };
    report.set("core.hit_ratio", c.hits as f64 / c.gets.max(1) as f64);
    report.set(
        "server.frames_per_read",
        batch(&a.frames_per_read, &b.frames_per_read),
    );
    report.set(
        "server.jobs_per_dispatch",
        batch(&a.jobs_per_dispatch, &b.jobs_per_dispatch),
    );
    report.set(
        "server.replies_per_flush",
        batch(&a.replies_per_flush, &b.replies_per_flush),
    );
    report.set(
        "server.bytes_copied_per_req",
        (a.bytes_copied - b.bytes_copied) as f64 / requests,
    );
    report.set(
        "server.reply_allocs",
        (a.reply_allocs - b.reply_allocs) as f64,
    );
    report.set(
        "server.busy_share",
        (a.busy_replies - b.busy_replies) as f64 / requests,
    );
    report.set("server.shed_sets", (a.shed_sets - b.shed_sets) as f64);
    report.set("server.max_queue_depth", a.max_queue_depth as f64);
    report.set(
        "server.cpu_us_per_req",
        us(r.process_cpu_ns.saturating_sub(p.client_cpu_ns) as f64) / requests,
    );
    report.set(
        "client.cpu_us_per_req",
        us(p.client_cpu_ns as f64) / requests,
    );
    let mut late = p.send_late_ns.clone();
    late.sort_unstable();
    report.set("server.gen_late_p99_us", us(percentile(&late, 99.0) as f64));
    report.set("server.knee_rate_per_s", r.knee_rate.unwrap_or(0.0));
    report.set("wall.ops_per_s", median(&p.segment_goodput));
    report.set("wall.get_p50_us", us(p.get_lat.percentile(50.0)));
    report.set("wall.get_p99_us", us(p.get_lat.percentile(99.0)));
    report.set("wall.set_p99_us", us(p.set_lat.percentile(99.0)));
    let get = if args.spec.workload == Workload::SrvOpen {
        config::SRV_OPEN_GET
    } else {
        config::SRV_RR_GET
    };
    report.set(
        "workload.gen_ns_per_op",
        drives::op_gen(config::SMALL_KEYS, get, 1.0 - get),
    );

    let traced_cpu = r.process_cpu_ns.saturating_sub(p.client_cpu_ns) as f64 / requests;
    let reference_cpu = reference
        .process_cpu_ns
        .saturating_sub(reference.phase.client_cpu_ns) as f64
        / reference.phase.counts.attempted.max(1) as f64;
    report.set("trace.overhead_pct", pct(traced_cpu, reference_cpu));
    report.set("trace.spans_dropped", dropped as f64);
    // The client's count of what it sent and received against the
    // server's own.
    let received = c.attempted - c.missing;
    let errs = [
        ((a.requests - b.requests) as f64 - c.attempted as f64).abs() / requests,
        ((a.replies - b.replies) as f64 - received as f64).abs() / requests,
    ];
    report.set("trace.reconcile_err_pct", errs[0].max(errs[1]) * 100.0);

    write_spans(args, threads)?;
    report.notes.push(format!(
        "{} backend spans from {} threads; reference run {:.4} us cpu per request, traced {:.4}",
        threads.iter().map(Vec::len).sum::<usize>(),
        threads.len(),
        reference_cpu / 1e3,
        traced_cpu / 1e3
    ));
    Ok(report)
}
