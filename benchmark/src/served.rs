//! Served workloads: one process drives the loopback TCP `CacheServer`
//! over one connection and reads the wall clock.
//!
//! The client here is the benchmark's own (a `TcpStream` plus the public
//! wire codec) so that it can put a timeout on every read: a reply that
//! never comes is counted as failed, not waited for.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use zns_cache_repro::sim::Nanos;
use zns_cache_repro::zns_cache_server::wire::{
    append_request_frame, decode_reply, split_frame, FrameSplit, Reply, Request,
};
use zns_cache_repro::zns_cache_server::{BindAddr, CacheServer, ServerStatsSnapshot};

use crate::config::{self, SEGMENTS};
use crate::gen::{fill_value, value_matches, KeyTable, OpGen, OpKind};
use crate::stack::{self, LayerSnap, Stack};
use crate::stats::{process_cpu_ns, thread_cpu_ns, Segmented};
use crate::trace::Tracer;

/// Coarse sleep to this far short of a send's due time, then yield: a
/// plain sleep oversleeps by the timer quantum.
const SLEEP_MARGIN: Duration = Duration::from_millis(5);
/// The open-loop sender writes once this much is buffered, or as soon as
/// it is ahead of schedule.
const FLUSH_BYTES: usize = 32 * 1024;

/// One request as scheduled: when it is due, and what a correct reply
/// to it holds.
#[derive(Clone, Copy)]
struct Planned {
    at_ns: u64,
    key: u32,
    /// The version a GET must return, or the one a SET writes.
    version: u32,
    is_get: bool,
}

#[derive(Default)]
pub struct ServedCounts {
    pub attempted: u64,
    pub gets: u64,
    pub hits: u64,
    pub busy: u64,
    pub errors: u64,
    /// Requests with no reply by the time the run gave up on them.
    pub missing: u64,
    /// A second reply to one request, or a reply to none.
    pub stray: u64,
    /// Hits whose bytes were not the value of `(key, version)`.
    pub wrong: u64,
}

impl ServedCounts {
    pub fn failed(&self) -> u64 {
        self.busy + self.errors + self.missing + self.stray
    }
}

pub struct ServedResult {
    pub setup_s: Vec<f64>,
    pub phase: Phase,
    /// On-CPU time of the whole process over the measured phase.
    pub process_cpu_ns: u64,
    pub server_before: ServerStatsSnapshot,
    pub server_after: ServerStatsSnapshot,
    pub before: LayerSnap,
    pub after: LayerSnap,
    /// The measured phase on the tracer's clock (traced runs): spans
    /// outside it belong to the warm-up or the knee search.
    pub traced_window_ns: Option<(u64, u64)>,
    /// Highest offered rate that met the latency limit (traced open
    /// loop only).
    pub knee_rate: Option<f64>,
}

/// The stack, the server over it and one connection.
struct Rig {
    stack: Stack,
    server: CacheServer,
    stream: TcpStream,
    table: KeyTable,
    gen: OpGen,
    next_id: u64,
}

impl Rig {
    /// Builds and warms the cache, starts the server and connects: the
    /// part `setup_s` times.
    fn set_up(
        seed: u64,
        get: f64,
        warmup_sets: u64,
        tracer: Option<&Tracer>,
    ) -> Result<Rig, String> {
        let scheme = config::SRV_SCHEME;
        let stack = stack::build(scheme, config::default_dram_pool(scheme), tracer)
            .map_err(|e| format!("building {scheme}: {e}"))?;
        let mut table = KeyTable::new(config::SMALL_KEYS, Some(config::SMALL_VALUE));
        let mut gen = OpGen::new(seed, config::SMALL_KEYS, get, 1.0 - get);
        let mut buf = Vec::new();
        let mut t = Nanos::ZERO;
        for _ in 0..warmup_sets {
            let (_, id) = gen.next_op();
            let version = table.bump(id);
            fill_value(id, version, table.len_of(id), &mut buf);
            t = stack
                .cache
                .set(table.key(id), &buf, t)
                .map_err(|e| format!("warm-up set: {e}"))?;
        }
        stack.cache.drain_flushes(t);
        let server = CacheServer::start(
            stack.cache.clone(),
            config::server_config(),
            BindAddr::Tcp("127.0.0.1:0".into()),
        )
        .map_err(|e| format!("starting the server: {e}"))?;
        let addr = server.tcp_addr().ok_or("server bound no TCP address")?;
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        stream
            .set_read_timeout(Some(config::SRV_REPLY_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        Ok(Rig {
            stack,
            server,
            stream,
            table,
            gen,
            next_id: 0,
        })
    }

    /// The next request of the stream and what its reply must hold.
    /// `is_get` overrides the kind the stream drew.
    fn plan(&mut self, at_ns: u64, is_get: Option<bool>) -> Planned {
        let (kind, id) = self.gen.next_op();
        let is_get = is_get.unwrap_or(kind == OpKind::Get);
        let version = if is_get {
            self.table.version(id)
        } else {
            self.table.bump(id)
        };
        Planned {
            at_ns,
            key: id as u32,
            version,
            is_get,
        }
    }
}

/// Encodes requests into one reused pair of `Request`s: no allocation
/// per request.
struct Encoder {
    get: Request,
    set: Request,
    wbuf: Vec<u8>,
}

impl Encoder {
    fn new() -> Self {
        Encoder {
            get: Request::Get {
                id: 0,
                key: Vec::new(),
            },
            set: Request::Set {
                id: 0,
                key: Vec::new(),
                value: Vec::new(),
            },
            wbuf: Vec::new(),
        }
    }

    fn push(&mut self, table: &KeyTable, id: u64, p: &Planned) {
        let key_id = u64::from(p.key);
        let req = if p.is_get {
            &mut self.get
        } else {
            &mut self.set
        };
        match req {
            Request::Get { id: rid, key } | Request::Del { id: rid, key } => {
                *rid = id;
                key.clear();
                key.extend_from_slice(table.key(key_id));
            }
            Request::Set {
                id: rid,
                key,
                value,
            } => {
                *rid = id;
                key.clear();
                key.extend_from_slice(table.key(key_id));
                fill_value(key_id, p.version, table.len_of(key_id), value);
            }
        }
        append_request_frame(req, &mut self.wbuf);
    }

    fn flush(&mut self, stream: &mut impl Write) -> io::Result<()> {
        if !self.wbuf.is_empty() {
            stream.write_all(&self.wbuf)?;
            self.wbuf.clear();
        }
        Ok(())
    }
}

/// Reads reply frames off the connection.
struct ReplyReader {
    stream: TcpStream,
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl ReplyReader {
    fn new(stream: TcpStream) -> Self {
        ReplyReader {
            stream,
            buf: vec![0; 256 * 1024],
            head: 0,
            tail: 0,
        }
    }

    /// The next reply; an error when none arrives within the read
    /// timeout, the peer closes, or a frame does not decode.
    fn next(&mut self) -> io::Result<Reply> {
        loop {
            if let FrameSplit::Frame { payload, advance } =
                split_frame(&self.buf[self.head..self.tail])?
            {
                let reply =
                    decode_reply(&self.buf[self.head + payload.start..self.head + payload.end])
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
                self.head += advance;
                return Ok(reply);
            }
            if self.head > 0 {
                self.buf.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
            }
            if self.tail == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
            match self.stream.read(&mut self.buf[self.tail..])? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => self.tail += n,
            }
        }
    }
}

/// The slot of the request `reply_id` answers, marked seen; `None` for a
/// reply to no request of this batch or a second reply to one.
fn claim(seen: &mut [bool], base_id: u64, reply_id: u64) -> Option<usize> {
    let i = usize::try_from(reply_id.checked_sub(base_id)?).ok()?;
    let slot = seen.get_mut(i).filter(|s| !**s)?;
    *slot = true;
    Some(i)
}

/// How many versions back a mismatching hit is looked for.
const STALE_SEARCH: u32 = 16;

/// Checks replies against what was planned and files their latencies.
struct Judge {
    counts: ServedCounts,
    /// Hits that held an older version of their key: right only if the
    /// writes in between were shed or failed, which replies still on
    /// their way may yet say.
    stale: u64,
    get_lat: Segmented,
    set_lat: Segmented,
    segment_correct: [u64; SEGMENTS],
}

impl Judge {
    fn new() -> Self {
        Judge {
            counts: ServedCounts::default(),
            stale: 0,
            get_lat: Segmented::new(SEGMENTS),
            set_lat: Segmented::new(SEGMENTS),
            segment_correct: [0; SEGMENTS],
        }
    }

    /// `lat_segment` is the segment the request was due in, `now_segment`
    /// the one the reply arrived in.
    fn reply(
        &mut self,
        table: &KeyTable,
        p: &Planned,
        reply: &Reply,
        latency_ns: u64,
        lat_segment: usize,
        now_segment: usize,
    ) {
        let ok = match reply {
            Reply::Value { value, .. } if p.is_get => {
                let (id, len) = (u64::from(p.key), table.len_of(u64::from(p.key)));
                self.counts.gets += 1;
                self.counts.hits += 1;
                let matches = value_matches(id, p.version, len, value);
                if !matches {
                    let older = (1..=STALE_SEARCH.min(p.version))
                        .any(|back| value_matches(id, p.version - back, len, value));
                    if older {
                        self.stale += 1
                    } else {
                        self.counts.wrong += 1
                    }
                }
                matches
            }
            Reply::NotFound { .. } if p.is_get => {
                self.counts.gets += 1;
                true
            }
            Reply::Stored { .. } if !p.is_get => true,
            Reply::Busy { .. } => {
                self.counts.busy += 1;
                false
            }
            Reply::Error { .. } => {
                self.counts.errors += 1;
                false
            }
            _ => {
                self.counts.stray += 1;
                false
            }
        };
        if ok {
            self.segment_correct[now_segment.min(SEGMENTS - 1)] += 1;
            if p.is_get {
                &mut self.get_lat
            } else {
                &mut self.set_lat
            }
            .push(lat_segment, latency_ns);
        }
    }

    fn finish(
        mut self,
        secs: f64,
        wall_elapsed_ns: u64,
        client_cpu_ns: u64,
        send_late_ns: Vec<u64>,
    ) -> Phase {
        // With no request shed, failed or lost, nothing excuses an older
        // version: the server lost a write it acknowledged.
        if self.counts.failed() == 0 {
            self.counts.wrong += self.stale;
        }
        self.get_lat.seal();
        self.set_lat.seal();
        let segment_secs = secs / SEGMENTS as f64;
        Phase {
            counts: self.counts,
            get_lat: self.get_lat,
            set_lat: self.set_lat,
            segment_goodput: self
                .segment_correct
                .iter()
                .map(|&n| n as f64 / segment_secs)
                .collect(),
            wall_elapsed_ns,
            client_cpu_ns,
            send_late_ns,
        }
    }
}

/// What one measured stretch of requests found.
pub struct Phase {
    pub counts: ServedCounts,
    /// Wall ns from scheduled arrival (open loop) or batch send (closed
    /// loop) to receipt of the reply.
    pub get_lat: Segmented,
    pub set_lat: Segmented,
    /// Correct replies received per second of each segment.
    pub segment_goodput: Vec<f64>,
    pub wall_elapsed_ns: u64,
    /// On-CPU time of the sender and receiver threads themselves.
    pub client_cpu_ns: u64,
    /// How late after its due time each open-loop request was sent.
    pub send_late_ns: Vec<u64>,
}

/// Poisson arrivals at `rate` per second for `secs`, one connection, a
/// sender thread and this thread receiving; latency from the scheduled
/// arrival, so a stall is charged to every request queued behind it.
fn open_loop(rig: &mut Rig, rate: f64, secs: f64) -> Phase {
    let window_ns = (secs * 1e9) as u64;
    let mut schedule = Vec::with_capacity((rate * secs * 1.05) as usize);
    let mut at = 0.0f64;
    loop {
        at += rig.gen.poisson_gap_ns(rate / 1e9);
        if at as u64 >= window_ns {
            break;
        }
        let planned = rig.plan(at as u64, None);
        schedule.push(planned);
    }
    let base_id = rig.next_id;
    rig.next_id += schedule.len() as u64;

    let table = &rig.table;
    let mut judge = Judge::new();
    judge.counts.attempted = schedule.len() as u64;
    let mut seen = vec![false; schedule.len()];
    let segment_of = |ns: u64| (ns as u128 * SEGMENTS as u128 / window_ns.max(1) as u128) as usize;
    let mut reader = ReplyReader::new(rig.stream.try_clone().expect("cloning the connection"));
    let mut writer = rig.stream.try_clone().expect("cloning the connection");
    let schedule_ref = &schedule;

    let cpu_start = thread_cpu_ns();
    let start = Instant::now();
    let (sender_cpu_ns, send_late_ns) = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let cpu_start = thread_cpu_ns();
            let mut late = Vec::with_capacity(schedule_ref.len());
            let mut enc = Encoder::new();
            for (i, p) in schedule_ref.iter().enumerate() {
                let due = Duration::from_nanos(p.at_ns);
                let now = start.elapsed();
                // Ahead of schedule: nothing is held past its due time.
                if due > now && enc.flush(&mut writer).is_err() {
                    break;
                }
                if due > now + SLEEP_MARGIN {
                    std::thread::sleep(due - now - SLEEP_MARGIN);
                }
                let mut now = start.elapsed();
                while now < due {
                    std::thread::yield_now();
                    now = start.elapsed();
                }
                late.push((now - due).as_nanos() as u64);
                enc.push(table, base_id + i as u64, p);
                if enc.wbuf.len() >= FLUSH_BYTES && enc.flush(&mut writer).is_err() {
                    break;
                }
            }
            // A failed write shows as missing replies on the other side.
            let _ = enc.flush(&mut writer);
            (thread_cpu_ns() - cpu_start, late)
        });
        for _ in 0..schedule_ref.len() {
            let Ok(reply) = reader.next() else { break };
            let now_ns = start.elapsed().as_nanos() as u64;
            let Some(i) = claim(&mut seen, base_id, reply.id()) else {
                judge.counts.stray += 1;
                continue;
            };
            let p = &schedule_ref[i];
            judge.reply(
                table,
                p,
                &reply,
                now_ns.saturating_sub(p.at_ns),
                segment_of(p.at_ns),
                segment_of(now_ns),
            );
        }
        sender.join().expect("sender thread panicked")
    });
    let wall_elapsed_ns = start.elapsed().as_nanos() as u64;
    let client_cpu_ns = thread_cpu_ns() - cpu_start + sender_cpu_ns;

    judge.counts.missing = seen.iter().filter(|s| !**s).count() as u64;
    judge.finish(secs, wall_elapsed_ns, client_cpu_ns, send_late_ns)
}

/// One thread, one connection: send `SRV_RR_BATCH` requests in one
/// write, await that many replies, repeat for `secs`. Latency from the
/// batch's send to each reply's receipt.
fn round_robin(rig: &mut Rig, secs: f64) -> Phase {
    let window = Duration::from_secs_f64(secs);
    let window_ns = window.as_nanos() as u64;
    let segment_of = |ns: u64| (ns as u128 * SEGMENTS as u128 / window_ns.max(1) as u128) as usize;
    let mut reader = ReplyReader::new(rig.stream.try_clone().expect("cloning the connection"));
    let mut writer = rig.stream.try_clone().expect("cloning the connection");
    let mut enc = Encoder::new();
    let mut judge = Judge::new();
    let mut batch: Vec<Planned> = Vec::with_capacity(config::SRV_RR_BATCH);
    let mut seen = [false; config::SRV_RR_BATCH];

    let cpu_start = thread_cpu_ns();
    let start = Instant::now();
    let mut broken = false;
    while !broken && start.elapsed() < window {
        batch.clear();
        for i in 0..config::SRV_RR_BATCH {
            // Strictly alternating, so that every batch puts the same
            // bytes on the wire.
            let planned = rig.plan(0, Some(i % 2 == 0));
            batch.push(planned);
        }
        seen.fill(false);
        let base_id = rig.next_id;
        rig.next_id += batch.len() as u64;
        judge.counts.attempted += batch.len() as u64;
        for (i, p) in batch.iter().enumerate() {
            enc.push(&rig.table, base_id + i as u64, p);
        }
        let sent_ns = start.elapsed().as_nanos() as u64;
        broken = enc.flush(&mut writer).is_err();
        let mut replies = 0;
        while !broken && replies < batch.len() {
            let Ok(reply) = reader.next() else {
                broken = true;
                break;
            };
            let now_ns = start.elapsed().as_nanos() as u64;
            let Some(i) = claim(&mut seen, base_id, reply.id()) else {
                judge.counts.stray += 1;
                continue;
            };
            replies += 1;
            judge.reply(
                &rig.table,
                &batch[i],
                &reply,
                now_ns - sent_ns,
                segment_of(sent_ns),
                segment_of(now_ns),
            );
        }
        judge.counts.missing += seen.iter().filter(|s| !**s).count() as u64;
    }
    let wall_elapsed_ns = start.elapsed().as_nanos() as u64;
    let client_cpu_ns = thread_cpu_ns() - cpu_start;
    judge.finish(secs, wall_elapsed_ns, client_cpu_ns, Vec::new())
}

/// The highest of `KNEE_RATES` the server takes with p99 within the
/// limit and nothing shed or lost. Rates are tried upwards and the
/// search stops at the first that fails.
fn knee(rig: &mut Rig) -> f64 {
    let mut best = 0.0;
    for rate in config::KNEE_RATES {
        let phase = open_loop(rig, rate, config::KNEE_STEP_SECS);
        let p99_ns = phase
            .get_lat
            .percentile_all(99.0)
            .max(phase.set_lat.percentile_all(99.0));
        if phase.counts.failed() > 0 || p99_ns as f64 / 1e3 > config::KNEE_P99_LIMIT_US {
            break;
        }
        best = rate;
    }
    best
}

/// Sets up `setups` times, then measures on the last set-up. `check`
/// shortens the warm-up for smoke runs.
pub fn run(
    open: bool,
    seconds: f64,
    seed: u64,
    setups: usize,
    check: bool,
    tracer: Option<&Tracer>,
) -> Result<ServedResult, String> {
    let get = if open {
        config::SRV_OPEN_GET
    } else {
        config::SRV_RR_GET
    };
    let warmup_sets = config::SRV_WARMUP_SETS / if check { 20 } else { 1 };
    let mut setup_s = Vec::new();
    let mut rig = None;
    for _ in 0..setups {
        drop(rig.take());
        let start = Instant::now();
        rig = Some(Rig::set_up(seed, get, warmup_sets, tracer)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");

    let before = rig.stack.snapshot();
    let server_before = rig.server.stats();
    let traced_from = tracer.map(Tracer::now_ns);
    let cpu_start = process_cpu_ns();
    let phase = if open {
        open_loop(&mut rig, config::SRV_OPEN_RATE, seconds)
    } else {
        round_robin(&mut rig, seconds)
    };
    let process_cpu_ns = process_cpu_ns() - cpu_start;
    let traced_window_ns = traced_from.zip(tracer.map(Tracer::now_ns));
    let server_after = rig.server.stats();
    let after = rig.stack.snapshot();
    let knee_rate =
        (open && tracer.is_some() && phase.counts.failed() == 0).then(|| knee(&mut rig));
    rig.server.shutdown();

    Ok(ServedResult {
        setup_s,
        phase,
        process_cpu_ns,
        server_before,
        server_after,
        before,
        after,
        traced_window_ns,
        knee_rate,
    })
}
