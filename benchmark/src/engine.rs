//! Engine workloads: one thread drives `LogCache` directly on the
//! simulated clock, with `Maintainer::run_once` every 64 ops and no
//! background thread, so every sim-clock number repeats exactly.

use std::time::{Duration, Instant};

use zns_cache_repro::sim::Nanos;
use zns_cache_repro::zns_cache::{LogCache, Maintainer, Scheme};

use crate::config::{self, MAINTAIN_EVERY, SEGMENTS};
use crate::gen::{fill_value, value_matches, KeyTable, OpGen, OpKind};
use crate::stack::{self, LayerSnap, Stack};
use crate::stats::{process_cpu_ns, Segmented};
use crate::trace::{Children, Span, SpanKind, Tracer};

/// Which clock the workload's latencies and throughput are read on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Simulated time; the op count ends the run.
    Sim { ops: u64 },
    /// Wall time; the deadline ends the run.
    Wall { window: Duration },
}

pub struct EngineSpec {
    pub scheme: Scheme,
    pub dram_bytes: usize,
    pub keys: u64,
    pub fixed_len: Option<usize>,
    pub get: f64,
    pub set: f64,
    pub warmup_ops: u64,
    pub clock: Clock,
}

/// What an engine call turned out to be, by its outcome and by the
/// backend spans it caused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    GetDramHit,
    GetFlashHit,
    GetMiss,
    Set,
    SetSeal,
    Del,
}

impl OpClass {
    pub const ALL: [OpClass; 6] = [
        OpClass::GetDramHit,
        OpClass::GetFlashHit,
        OpClass::GetMiss,
        OpClass::Set,
        OpClass::SetSeal,
        OpClass::Del,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpClass::GetDramHit => "get_dram_hit",
            OpClass::GetFlashHit => "get_flash_hit",
            OpClass::GetMiss => "get_miss",
            OpClass::Set => "set",
            OpClass::SetSeal => "set_seal",
            OpClass::Del => "del",
        }
    }
}

#[derive(Default)]
pub struct ClassAgg {
    pub wall_ns: Vec<u32>,
    pub sim_ns: Vec<u32>,
}

/// What the traced run adds up outside the span vectors: every engine
/// call is classified and timed here even when its span is only sampled
/// into the file. The harness thread reads the clock at the boundaries
/// between its stages only, so call, maintenance, verification and
/// harness time add up to the measured window with nothing left over.
#[derive(Default)]
pub struct EngineTrace {
    pub classes: [ClassAgg; 6],
    pub op_wall_ns: u64,
    pub op_child_wall_ns: u64,
    pub op_sim_ns: u64,
    pub maintain_calls: u64,
    pub maintain_wall_ns: u64,
    pub verify_wall_ns: u64,
    /// Op generation, value synthesis and loop bookkeeping.
    pub harness_wall_ns: u64,
}

/// An engine call without backend spans goes into the span file one
/// time in this many; one with backend spans always does.
const CHILDLESS_SPAN_SAMPLE: u64 = 64;
/// Span ids of maintenance passes start here; engine calls count up
/// from 1.
pub const MAINTAIN_ID_BASE: u64 = 1 << 40;

#[derive(Default)]
pub struct Counts {
    /// Generated ops (a look-aside fill is part of its GET).
    pub ops: u64,
    /// Engine calls: generated ops plus fills.
    pub calls: u64,
    pub gets: u64,
    pub hits: u64,
    /// Calls that returned a typed error, and failed maintenance passes.
    pub failed: u64,
    /// Hits whose bytes were not the value of `(key, version)`.
    pub wrong: u64,
}

pub struct EngineResult {
    pub setup_s: Vec<f64>,
    pub counts: Counts,
    pub sim_elapsed_ns: u64,
    pub wall_elapsed_ns: u64,
    pub cpu_ns: u64,
    /// Latency of `get` calls and of `set` calls (fills included) on the
    /// workload's clock, in ns.
    pub get_lat: Segmented,
    pub set_lat: Segmented,
    /// Generated ops per wall second of each segment.
    pub segment_ops_per_s: Vec<f64>,
    pub before: LayerSnap,
    pub after: LayerSnap,
    pub trace: Option<EngineTrace>,
}

struct Tracing<'a> {
    tracer: &'a Tracer,
    /// When the harness thread last read the clock.
    cursor_ns: u64,
    agg: EngineTrace,
}

impl Tracing<'_> {
    /// Reads the clock: the interval since the last reading.
    fn lap(&mut self) -> (u64, u64) {
        let now = self.tracer.now_ns();
        (std::mem::replace(&mut self.cursor_ns, now), now)
    }
}

struct Harness<'a> {
    stack: Stack,
    cache: std::sync::Arc<LogCache>,
    maintainer: Maintainer,
    table: KeyTable,
    tainted: Vec<bool>,
    gen: OpGen,
    t: Nanos,
    buf: Vec<u8>,
    generated: u64,
    call_no: u64,
    passes: u64,
    tracing: Option<Tracing<'a>>,
}

/// Where one engine call's measurements go.
struct Sink<'a> {
    wall_latency: bool,
    segment: usize,
    counts: &'a mut Counts,
    get_lat: &'a mut Segmented,
    set_lat: &'a mut Segmented,
}

impl Sink<'_> {
    /// A call's latency on the workload's clock.
    fn latency(&self, wall_ns: u64, sim_start: Nanos, sim_end: Nanos) -> u64 {
        if self.wall_latency {
            wall_ns
        } else {
            (sim_end - sim_start).as_nanos()
        }
    }
}

impl<'a> Harness<'a> {
    /// Builds the stack and warms it: the part `setup_s` times.
    fn set_up(spec: &EngineSpec, seed: u64, tracer: Option<&'a Tracer>) -> Result<Self, String> {
        let stack = stack::build(spec.scheme, spec.dram_bytes, tracer)
            .map_err(|e| format!("building {}: {e}", spec.scheme))?;
        let cache = stack.cache.clone();
        let mut h = Harness {
            maintainer: Maintainer::new(cache.clone()),
            cache,
            stack,
            table: KeyTable::new(spec.keys, spec.fixed_len),
            tainted: vec![false; spec.keys as usize],
            gen: OpGen::new(seed, spec.keys, spec.get, spec.set),
            t: Nanos::ZERO,
            buf: Vec::new(),
            generated: 0,
            call_no: 0,
            passes: 0,
            tracing: None,
        };
        let mut counts = Counts::default();
        let (mut get_lat, mut set_lat) = (Segmented::new(1), Segmented::new(1));
        let mut sink = Sink {
            wall_latency: false,
            segment: 0,
            counts: &mut counts,
            get_lat: &mut get_lat,
            set_lat: &mut set_lat,
        };
        for _ in 0..spec.warmup_ops {
            h.one_op(&mut sink);
        }
        if counts.failed + counts.wrong > 0 {
            return Err(format!(
                "warm-up: {} failed calls, {} wrong hits",
                counts.failed, counts.wrong
            ));
        }
        // Start the measured phase with an idle flush pipeline.
        h.t = h.cache.drain_flushes(h.t);
        if let Some(tracer) = tracer {
            // The backend spans of the warm-up are not part of the run.
            drop(tracer.collect());
            h.tracing = Some(Tracing {
                tracer,
                cursor_ns: tracer.now_ns(),
                agg: EngineTrace::default(),
            });
        }
        Ok(h)
    }

    /// Begins an engine call. Traced, what ran since the last clock
    /// reading was the harness.
    fn start_call(&mut self, timed: bool) -> Option<Instant> {
        match &mut self.tracing {
            Some(tr) => {
                let (from, to) = tr.lap();
                tr.agg.harness_wall_ns += to - from;
                tr.tracer.begin_parent(self.call_no + 1);
                None
            }
            None => timed.then(Instant::now),
        }
    }

    /// Ends the call begun by `start_call`: its wall ns (0 when untimed)
    /// and, traced, its class bookkeeping and span.
    fn end_call(
        &mut self,
        timer: Option<Instant>,
        kind: SpanKind,
        class_of: impl Fn(&Children) -> OpClass,
        sim_start: Nanos,
        sim_end: Nanos,
    ) -> u64 {
        self.call_no += 1;
        let Some(tr) = &mut self.tracing else {
            return timer.map_or(0, |w| w.elapsed().as_nanos() as u64);
        };
        let (wall_start_ns, wall_end_ns) = tr.lap();
        let children = tr.tracer.end_parent();
        let wall_ns = wall_end_ns - wall_start_ns;
        let sim_ns = (sim_end - sim_start).as_nanos();
        let class = &mut tr.agg.classes[class_of(&children) as usize];
        class.wall_ns.push(wall_ns.min(u64::from(u32::MAX)) as u32);
        class.sim_ns.push(sim_ns.min(u64::from(u32::MAX)) as u32);
        tr.agg.op_wall_ns += wall_ns;
        tr.agg.op_child_wall_ns += children.wall_ns;
        tr.agg.op_sim_ns += sim_ns;
        if children.any() || self.call_no.is_multiple_of(CHILDLESS_SPAN_SAMPLE) {
            tr.tracer.record(Span {
                kind,
                id: self.call_no,
                parent: 0,
                wall_start_ns,
                wall_end_ns,
                sim_start_ns: sim_start.as_nanos(),
                sim_end_ns: sim_end.as_nanos(),
            });
        }
        wall_ns
    }

    fn maintain(&mut self, sink: &mut Sink) {
        self.passes += 1;
        let id = MAINTAIN_ID_BASE + self.passes;
        if let Some(tr) = &mut self.tracing {
            let (from, to) = tr.lap();
            tr.agg.harness_wall_ns += to - from;
            tr.tracer.begin_parent(id);
        }
        if self.maintainer.run_once(self.t).is_err() {
            sink.counts.failed += 1;
        }
        if let Some(tr) = &mut self.tracing {
            let (wall_start_ns, wall_end_ns) = tr.lap();
            tr.tracer.end_parent();
            tr.agg.maintain_calls += 1;
            tr.agg.maintain_wall_ns += wall_end_ns - wall_start_ns;
            let now = self.t.as_nanos();
            tr.tracer.record(Span {
                kind: SpanKind::Maintain,
                id,
                parent: 0,
                wall_start_ns,
                wall_end_ns,
                sim_start_ns: now,
                sim_end_ns: now,
            });
        }
    }

    /// Generates and runs one op: the engine call, the byte-for-byte
    /// check of a hit, and the look-aside fill of a miss.
    fn one_op(&mut self, sink: &mut Sink) {
        if self.generated.is_multiple_of(MAINTAIN_EVERY) {
            self.maintain(sink);
        }
        self.generated += 1;
        sink.counts.ops += 1;
        let (kind, id) = self.gen.next_op();
        match kind {
            OpKind::Get => self.get(id, sink),
            OpKind::Set => {
                self.table.bump(id);
                self.set(id, sink);
            }
            OpKind::Del => {
                let start = self.t;
                let timer = self.start_call(false);
                let result = self.cache.delete(self.table.key(id), start);
                let end = result.as_ref().map_or(start, |r| r.1);
                self.end_call(timer, SpanKind::Del, |_| OpClass::Del, start, end);
                sink.counts.calls += 1;
                match result {
                    Ok(_) => self.t = end,
                    Err(_) => {
                        sink.counts.failed += 1;
                        self.tainted[id as usize] = true;
                    }
                }
            }
        }
    }

    fn get(&mut self, id: u64, sink: &mut Sink) {
        let start = self.t;
        let timer = self.start_call(sink.wall_latency);
        let result = self.cache.get(self.table.key(id), start);
        let (hit, end) = match &result {
            Ok((value, end)) => (value.is_some(), *end),
            Err(_) => (false, start),
        };
        let class = |c: &Children| match (hit, c.reads > 0) {
            (true, true) => OpClass::GetFlashHit,
            (true, false) => OpClass::GetDramHit,
            (false, _) => OpClass::GetMiss,
        };
        let wall_ns = self.end_call(timer, SpanKind::Get, class, start, end);
        sink.counts.calls += 1;
        let Ok((value, _)) = result else {
            sink.counts.failed += 1;
            return;
        };
        self.t = end;
        sink.counts.gets += 1;
        sink.get_lat
            .push(sink.segment, sink.latency(wall_ns, start, end));
        match value {
            Some(bytes) => {
                sink.counts.hits += 1;
                let ok = self.tainted[id as usize]
                    || value_matches(id, self.table.version(id), self.table.len_of(id), &bytes);
                sink.counts.wrong += u64::from(!ok);
                if let Some(tr) = &mut self.tracing {
                    let (from, to) = tr.lap();
                    tr.agg.verify_wall_ns += to - from;
                }
            }
            // Look-aside: fetch from the origin and insert.
            None => self.set(id, sink),
        }
    }

    fn set(&mut self, id: u64, sink: &mut Sink) {
        fill_value(
            id,
            self.table.version(id),
            self.table.len_of(id),
            &mut self.buf,
        );
        let start = self.t;
        let timer = self.start_call(sink.wall_latency);
        let result = self.cache.set(self.table.key(id), &self.buf, start);
        let end = *result.as_ref().unwrap_or(&start);
        let class = |c: &Children| {
            if c.writes + c.discards > 0 {
                OpClass::SetSeal
            } else {
                OpClass::Set
            }
        };
        let wall_ns = self.end_call(timer, SpanKind::Set, class, start, end);
        sink.counts.calls += 1;
        match result {
            Ok(_) => {
                self.t = end;
                self.tainted[id as usize] = false;
                sink.set_lat
                    .push(sink.segment, sink.latency(wall_ns, start, end));
            }
            Err(_) => {
                sink.counts.failed += 1;
                self.tainted[id as usize] = true;
            }
        }
    }
}

/// Sets up `SETUPS` times (once when traced), then measures on the last
/// set-up's stack.
pub fn run(
    spec: &EngineSpec,
    seed: u64,
    setups: usize,
    tracer: Option<&Tracer>,
) -> Result<EngineResult, String> {
    let mut setup_s = Vec::new();
    let mut harness = None;
    for _ in 0..setups {
        drop(harness.take());
        let start = Instant::now();
        harness = Some(Harness::set_up(spec, seed, tracer)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut h = harness.expect("at least one set-up");

    let wall_latency = matches!(spec.clock, Clock::Wall { .. });
    let mut counts = Counts::default();
    let (mut get_lat, mut set_lat) = (Segmented::new(SEGMENTS), Segmented::new(SEGMENTS));
    if let Clock::Sim { ops } = spec.clock {
        get_lat.reserve(ops as usize / SEGMENTS);
        set_lat.reserve(ops as usize / SEGMENTS);
    }
    let mut segment_ops_per_s = Vec::with_capacity(SEGMENTS);

    let before = h.stack.snapshot();
    let sim_start = h.t;
    let cpu_start = process_cpu_ns();
    let wall_start = Instant::now();
    if let Some(tr) = &mut h.tracing {
        tr.lap();
    }
    for segment in 0..SEGMENTS {
        let seg_start = Instant::now();
        let ops_before = counts.ops;
        let mut sink = Sink {
            wall_latency,
            segment,
            counts: &mut counts,
            get_lat: &mut get_lat,
            set_lat: &mut set_lat,
        };
        match spec.clock {
            Clock::Sim { ops } => {
                let share =
                    ops / SEGMENTS as u64 + u64::from((segment as u64) < ops % SEGMENTS as u64);
                for _ in 0..share {
                    h.one_op(&mut sink);
                }
            }
            Clock::Wall { window } => {
                let deadline = wall_start + window.mul_f64((segment + 1) as f64 / SEGMENTS as f64);
                while Instant::now() < deadline {
                    for _ in 0..16 {
                        h.one_op(&mut sink);
                    }
                }
            }
        }
        segment_ops_per_s
            .push((counts.ops - ops_before) as f64 / seg_start.elapsed().as_secs_f64());
    }
    if let Some(tr) = &mut h.tracing {
        let (from, to) = tr.lap();
        tr.agg.harness_wall_ns += to - from;
    }
    let wall_elapsed_ns = wall_start.elapsed().as_nanos() as u64;
    let cpu_ns = process_cpu_ns() - cpu_start;
    // Let what the measured ops put in flight land before the counters
    // are read; the wait is not an op and not part of the sim window.
    let sim_elapsed_ns = (h.t - sim_start).as_nanos();
    h.cache.drain_flushes(h.t);
    let after = h.stack.snapshot();
    get_lat.seal();
    set_lat.seal();

    Ok(EngineResult {
        setup_s,
        counts,
        sim_elapsed_ns,
        wall_elapsed_ns,
        cpu_ns,
        get_lat,
        set_lat,
        segment_ops_per_s,
        before,
        after,
        trace: h.tracing.map(|tr| tr.agg),
    })
}

pub fn churn_spec(scheme: Scheme, seconds: f64) -> EngineSpec {
    EngineSpec {
        scheme,
        dram_bytes: 0,
        keys: config::CHURN_KEYS,
        fixed_len: None,
        get: config::CHURN_GET,
        set: config::CHURN_SET,
        warmup_ops: config::CHURN_WARMUP_OPS,
        clock: Clock::Sim {
            ops: (config::CHURN_OPS_PER_SECOND as f64 * seconds) as u64,
        },
    }
}

pub fn hot_spec(seconds: f64) -> EngineSpec {
    EngineSpec {
        scheme: Scheme::Region,
        dram_bytes: config::default_dram_pool(Scheme::Region),
        keys: config::SMALL_KEYS,
        fixed_len: Some(config::SMALL_VALUE),
        get: config::HOT_GET,
        set: 1.0 - config::HOT_GET,
        warmup_ops: config::HOT_WARMUP_OPS,
        clock: Clock::Wall {
            window: Duration::from_secs_f64(seconds),
        },
    }
}
