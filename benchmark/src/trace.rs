//! Spans taken from outside the program.
//!
//! [`TimedBackend`] wraps the `Arc<dyn RegionBackend>` handed to
//! `LogCache::new` — the engine reaches its backend only through that
//! trait — and records one span per call. The harness records a span
//! around each engine call and each maintenance pass, and names itself
//! the parent of the backend spans that call causes. Spans stay in
//! per-thread vectors, reach the [`Tracer`] through a channel when a
//! thread ends (or is drained), and are written out when the run ends.

use std::cell::RefCell;
use std::io::{self, Write};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use zns_cache_repro::sim::Nanos;
use zns_cache_repro::zns_cache::backend::{MaintenanceOutcome, RegionBackend, RegionHealth};
use zns_cache_repro::zns_cache::{CacheError, RegionId};

/// Spans one thread may hold; more are counted as dropped.
pub const SPANS_PER_THREAD: usize = 2_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    Get,
    Set,
    Del,
    Maintain,
    WriteRegion,
    Read,
    Discard,
    BackendMaintenance,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Get => "core.get",
            SpanKind::Set => "core.set",
            SpanKind::Del => "core.delete",
            SpanKind::Maintain => "core.maintain",
            SpanKind::WriteRegion => "backend.write_region",
            SpanKind::Read => "backend.read",
            SpanKind::Discard => "backend.discard",
            SpanKind::BackendMaintenance => "backend.maintenance",
        }
    }

    pub fn is_backend(self) -> bool {
        matches!(
            self,
            SpanKind::WriteRegion
                | SpanKind::Read
                | SpanKind::Discard
                | SpanKind::BackendMaintenance
        )
    }
}

/// One timed interval on both clocks. `id` is 0 for backend spans (they
/// have no children); `parent` is 0 for a span nothing in the harness
/// caused (a server shard thread's backend call).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: SpanKind,
    pub id: u64,
    pub parent: u64,
    pub wall_start_ns: u64,
    pub wall_end_ns: u64,
    pub sim_start_ns: u64,
    pub sim_end_ns: u64,
}

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.wall_end_ns - self.wall_start_ns
    }

    pub fn sim_ns(&self) -> u64 {
        self.sim_end_ns.saturating_sub(self.sim_start_ns)
    }
}

/// What the backend spans under the current parent add up to.
#[derive(Clone, Copy, Debug, Default)]
pub struct Children {
    pub wall_ns: u64,
    pub reads: u32,
    pub writes: u32,
    pub discards: u32,
}

impl Children {
    pub fn any(&self) -> bool {
        self.reads + self.writes + self.discards > 0 || self.wall_ns > 0
    }
}

struct ThreadDump {
    spans: Vec<Span>,
    dropped: u64,
}

#[derive(Default)]
struct ThreadTrace {
    spans: Vec<Span>,
    dropped: u64,
    parent: u64,
    children: Children,
    sink: Option<Sender<ThreadDump>>,
}

impl ThreadTrace {
    fn push(&mut self, span: Span) {
        if self.spans.capacity() == 0 {
            self.spans.reserve_exact(SPANS_PER_THREAD);
        }
        if self.spans.len() < SPANS_PER_THREAD {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }

    fn dump(&mut self) {
        if let Some(sink) = &self.sink {
            let spans = std::mem::take(&mut self.spans);
            // The receiver is gone only when the run is already over.
            let _ = sink.send(ThreadDump {
                spans,
                dropped: std::mem::take(&mut self.dropped),
            });
        }
    }
}

impl Drop for ThreadTrace {
    fn drop(&mut self) {
        self.dump();
    }
}

thread_local! {
    static THREAD: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::default());
}

/// Collects the spans of every thread of one traced run.
pub struct Tracer {
    epoch: Instant,
    tx: Sender<ThreadDump>,
    rx: Receiver<ThreadDump>,
}

impl Default for Tracer {
    fn default() -> Self {
        let (tx, rx) = channel();
        Tracer {
            epoch: Instant::now(),
            tx,
            rx,
        }
    }
}

impl Tracer {
    /// Wall nanoseconds since the tracer was made.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Names `id` the parent of the backend spans this thread records
    /// until [`Tracer::end_parent`].
    pub fn begin_parent(&self, id: u64) {
        THREAD.with_borrow_mut(|t| {
            t.parent = id;
            t.children = Children::default();
        });
    }

    pub fn end_parent(&self) -> Children {
        THREAD.with_borrow_mut(|t| {
            t.parent = 0;
            t.children
        })
    }

    /// Records a harness span on the calling thread.
    pub fn record(&self, span: Span) {
        THREAD.with_borrow_mut(|t| {
            t.sink.get_or_insert_with(|| self.tx.clone());
            t.push(span);
        });
    }

    /// Every span recorded so far by the calling thread and by threads
    /// that have ended, and how many were dropped. Each vector is one
    /// thread's spans in the order they ended.
    pub fn collect(&self) -> (Vec<Vec<Span>>, u64) {
        THREAD.with_borrow_mut(ThreadTrace::dump);
        let mut threads = Vec::new();
        let mut dropped = 0;
        for dump in self.rx.try_iter() {
            dropped += dump.dropped;
            if !dump.spans.is_empty() {
                threads.push(dump.spans);
            }
        }
        (threads, dropped)
    }
}

/// A `RegionBackend` that times every call into the one it wraps.
pub struct TimedBackend {
    inner: Arc<dyn RegionBackend>,
    epoch: Instant,
    tx: Sender<ThreadDump>,
}

impl TimedBackend {
    pub fn new(inner: Arc<dyn RegionBackend>, tracer: &Tracer) -> Self {
        TimedBackend {
            inner,
            epoch: tracer.epoch,
            tx: tracer.tx.clone(),
        }
    }

    fn timed<T>(
        &self,
        kind: SpanKind,
        now: Nanos,
        call: impl FnOnce() -> Result<T, CacheError>,
        done: impl Fn(&T) -> Nanos,
    ) -> Result<T, CacheError> {
        let wall_start_ns = self.epoch.elapsed().as_nanos() as u64;
        let result = call();
        let wall_end_ns = self.epoch.elapsed().as_nanos() as u64;
        let sim_end = result.as_ref().map_or(now, &done);
        THREAD.with_borrow_mut(|t| {
            t.sink.get_or_insert_with(|| self.tx.clone());
            t.children.wall_ns += wall_end_ns - wall_start_ns;
            match kind {
                SpanKind::Read => t.children.reads += 1,
                SpanKind::WriteRegion => t.children.writes += 1,
                SpanKind::Discard => t.children.discards += 1,
                _ => {}
            }
            let parent = t.parent;
            t.push(Span {
                kind,
                id: 0,
                parent,
                wall_start_ns,
                wall_end_ns,
                sim_start_ns: now.as_nanos(),
                sim_end_ns: sim_end.as_nanos(),
            });
        });
        result
    }
}

impl RegionBackend for TimedBackend {
    fn region_size(&self) -> usize {
        self.inner.region_size()
    }

    fn num_regions(&self) -> u32 {
        self.inner.num_regions()
    }

    fn write_region(&self, region: RegionId, data: &[u8], now: Nanos) -> Result<Nanos, CacheError> {
        self.timed(
            SpanKind::WriteRegion,
            now,
            || self.inner.write_region(region, data, now),
            |t| *t,
        )
    }

    fn read(
        &self,
        region: RegionId,
        offset: usize,
        buf: &mut [u8],
        now: Nanos,
    ) -> Result<Nanos, CacheError> {
        self.timed(
            SpanKind::Read,
            now,
            || self.inner.read(region, offset, buf, now),
            |t| *t,
        )
    }

    fn readable_bytes(&self, region: RegionId) -> usize {
        self.inner.readable_bytes(region)
    }

    fn region_health(&self, region: RegionId) -> RegionHealth {
        self.inner.region_health(region)
    }

    fn discard_region(&self, region: RegionId, now: Nanos) -> Result<Nanos, CacheError> {
        self.timed(
            SpanKind::Discard,
            now,
            || self.inner.discard_region(region, now),
            |t| *t,
        )
    }

    fn maintenance(
        &self,
        now: Nanos,
        temperature: &dyn Fn(RegionId) -> f64,
    ) -> Result<MaintenanceOutcome, CacheError> {
        self.timed(
            SpanKind::BackendMaintenance,
            now,
            || self.inner.maintenance(now, temperature),
            |o| o.done,
        )
    }

    fn host_bytes_written(&self) -> u64 {
        self.inner.host_bytes_written()
    }

    fn media_bytes_written(&self) -> u64 {
        self.inner.media_bytes_written()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn write_amplification(&self) -> f64 {
        self.inner.write_amplification()
    }
}

/// Spans of one thread that go into the span file; the metrics are
/// computed from all of them.
pub const SPANS_PER_THREAD_IN_FILE: usize = 100_000;

/// Writes one JSON object per span, the first
/// [`SPANS_PER_THREAD_IN_FILE`] of each thread.
pub fn write_jsonl(out: &mut impl Write, threads: &[Vec<Span>]) -> io::Result<()> {
    for (thread, spans) in threads.iter().enumerate() {
        for s in spans.iter().take(SPANS_PER_THREAD_IN_FILE) {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"thread\":{},\"wall_start_ns\":{},\"wall_end_ns\":{},\"sim_start_ns\":{},\"sim_end_ns\":{}}}",
                s.kind.name(), s.id, s.parent, thread, s.wall_start_ns, s.wall_end_ns, s.sim_start_ns, s.sim_end_ns
            )?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A backend whose every call takes a known simulated time.
    struct FixedBackend;

    impl RegionBackend for FixedBackend {
        fn region_size(&self) -> usize {
            4096
        }
        fn num_regions(&self) -> u32 {
            4
        }
        fn write_region(&self, _: RegionId, _: &[u8], now: Nanos) -> Result<Nanos, CacheError> {
            Ok(now + Nanos::from_nanos(700))
        }
        fn read(
            &self,
            _: RegionId,
            _: usize,
            _: &mut [u8],
            now: Nanos,
        ) -> Result<Nanos, CacheError> {
            std::thread::sleep(std::time::Duration::from_millis(2));
            Ok(now + Nanos::from_nanos(50))
        }
        fn discard_region(&self, region: RegionId, _: Nanos) -> Result<Nanos, CacheError> {
            Err(CacheError::Io(format!("{region} is stuck")))
        }
        fn host_bytes_written(&self) -> u64 {
            0
        }
        fn media_bytes_written(&self) -> u64 {
            0
        }
        fn label(&self) -> &'static str {
            "fixed"
        }
    }

    #[test]
    fn spans_nest_under_the_parent_and_self_time_excludes_them() {
        let tracer = Tracer::default();
        let backend = Arc::new(TimedBackend::new(Arc::new(FixedBackend), &tracer));
        let now = Nanos::from_nanos(1_000);

        // Op 1: a get that reads twice.
        let start = tracer.now_ns();
        tracer.begin_parent(1);
        let mut buf = [0u8; 8];
        let t = backend.read(RegionId(0), 0, &mut buf, now).unwrap();
        backend.read(RegionId(0), 8, &mut buf, t).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(3));
        let children = tracer.end_parent();
        let end = tracer.now_ns();
        tracer.record(Span {
            kind: SpanKind::Get,
            id: 1,
            parent: 0,
            wall_start_ns: start,
            wall_end_ns: end,
            sim_start_ns: 1_000,
            sim_end_ns: 1_100,
        });
        assert_eq!(
            (children.reads, children.writes, children.discards),
            (2, 0, 0)
        );

        // A failed call is still a span; its sim end is its sim start.
        assert!(backend.discard_region(RegionId(1), now).is_err());
        // A call on another thread arrives when that thread ends.
        // (`join`, not `thread::scope`: a scope returns before the
        // thread's locals are dropped.)
        let other = Arc::clone(&backend);
        std::thread::spawn(move || other.write_region(RegionId(2), &[0; 4096], now).unwrap())
            .join()
            .unwrap();

        let (threads, dropped) = tracer.collect();
        assert_eq!(dropped, 0);
        assert_eq!(threads.len(), 2);
        let all: Vec<Span> = threads.concat();
        let reads: Vec<&Span> = all.iter().filter(|s| s.kind == SpanKind::Read).collect();
        assert_eq!(reads.len(), 2);
        assert!(reads.iter().all(|s| s.parent == 1 && s.sim_ns() == 50));
        assert_eq!(reads[1].sim_start_ns, 1_050);
        let op = all.iter().find(|s| s.kind == SpanKind::Get).unwrap();
        assert!(reads
            .iter()
            .all(|r| r.wall_start_ns >= op.wall_start_ns && r.wall_end_ns <= op.wall_end_ns));
        // A span's self time is its duration less what its children cover.
        let covered: u64 = all
            .iter()
            .filter(|s| s.parent == 1)
            .map(Span::wall_ns)
            .sum();
        assert_eq!(covered, children.wall_ns);
        assert!(covered >= 4_000_000, "two 2 ms reads cover {covered} ns");
        let self_ns = op.wall_ns() - covered;
        assert!(
            (3_000_000..op.wall_ns()).contains(&self_ns),
            "self {self_ns} of {}",
            op.wall_ns()
        );
        let discard = all.iter().find(|s| s.kind == SpanKind::Discard).unwrap();
        assert_eq!((discard.parent, discard.sim_ns()), (0, 0));
        let write = all
            .iter()
            .find(|s| s.kind == SpanKind::WriteRegion)
            .unwrap();
        assert_eq!((write.parent, write.sim_ns()), (0, 700));

        let mut out = Vec::new();
        write_jsonl(&mut out, &threads).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.lines().all(|l| crate::json::parse(l).is_ok()));
    }
}
