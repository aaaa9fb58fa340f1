//! The network frontend: listeners, connection readers, routing,
//! overload shedding, shutdown.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;
use zns_cache::policy::AdmissionGate;
use zns_cache::trace::{emit, EventKind};
use zns_cache::{Admission, LogCache, Maintainer, MaintainerHandle};

use crate::conn::{ConnWriter, ReplyBuf, Stream};
use crate::shard::{Job, ShardPool};
use crate::stats::{ServerStats, ServerStatsSnapshot};
use crate::wire::{
    decode_request_ref, split_frame, ErrorCode, FrameSplit, Reply, RequestRef,
};

/// Frontend and executor tuning.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Shard command loops (executor threads into the engine).
    pub shards: usize,
    /// Bounded depth of each shard's command queue: jobs accepted and
    /// not yet run. A full queue sheds with a typed BUSY — the
    /// backpressure bound that keeps p99 finite past the knee.
    pub queue_capacity: usize,
    /// Fraction of `queue_capacity` above which SETs additionally pass
    /// `set_admission_under_pressure` before queueing (GETs keep full
    /// priority: under overload, serving hits is worth more than
    /// absorbing writes the cache may evict unread).
    pub soft_overload: f64,
    /// The engine-style admission policy applied to SETs while a shard
    /// queue sits above the soft-overload watermark. The default
    /// (`Random { probability: 0.5 }`) sheds half the write load before
    /// it costs a queue slot.
    pub set_admission_under_pressure: Admission,
    /// Artificial wall-clock delay per engine op in the shard loops.
    /// Zero in production; tests raise it to make overload deterministic.
    pub op_wall_delay: Duration,
    /// Run a background [`Maintainer`] over the engine so region
    /// eviction overlaps request service (on by default, as in the
    /// closed-loop benchmarks).
    pub maintainer: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            queue_capacity: 128,
            soft_overload: 0.75,
            set_admission_under_pressure: Admission::Random { probability: 0.5 },
            op_wall_delay: Duration::ZERO,
            maintainer: true,
        }
    }
}

/// Where the server listens. TCP binds `127.0.0.1:<port>` semantics via
/// the given address string; Unix binds (and on shutdown removes) a
/// socket path. `Both` serves the two transports simultaneously over one
/// shard pool.
#[derive(Clone, Debug)]
pub enum BindAddr {
    /// A TCP address, e.g. `"127.0.0.1:0"` (port 0 = ephemeral).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
    /// Both transports at once.
    Both(String, PathBuf),
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Stream> {
        Ok(match self {
            Listener::Tcp(l) => Stream::Tcp(l.accept()?.0),
            Listener::Unix(l) => Stream::Unix(l.accept()?.0),
        })
    }
}

struct Shared {
    cache: Arc<LogCache>,
    pool: ShardPool,
    stats: Arc<ServerStats>,
    stopping: AtomicBool,
    next_conn_id: AtomicU64,
    /// Reader-side clones of every live connection (keyed by conn id),
    /// shut down to unblock their reader threads on server shutdown.
    /// Each reader removes its own entry on exit.
    conns: Mutex<std::collections::HashMap<u64, Stream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    soft_limit: usize,
    set_gate: Mutex<AdmissionGate>,
}

/// A running cache server. Dropping it (or calling
/// [`CacheServer::shutdown`]) stops accepting, closes connections,
/// drains the shard queues, and joins every thread.
pub struct CacheServer {
    shared: Option<Arc<Shared>>,
    accept_threads: Vec<JoinHandle<()>>,
    maintainer: Option<MaintainerHandle>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl CacheServer {
    /// Binds the listeners and starts the shard loops over `cache`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures (address in use, stale socket path the
    /// process cannot replace, permission).
    pub fn start(cache: Arc<LogCache>, cfg: ServerConfig, bind: BindAddr) -> io::Result<CacheServer> {
        let stats = Arc::new(ServerStats::default());
        let pool = ShardPool::start(
            Arc::clone(&cache),
            cfg.shards,
            cfg.queue_capacity,
            cfg.op_wall_delay,
            Arc::clone(&stats),
        );
        let soft_limit = ((cfg.queue_capacity as f64 * cfg.soft_overload).ceil() as usize)
            .clamp(1, cfg.queue_capacity);
        let maintainer = if cfg.maintainer {
            Some(Maintainer::new(Arc::clone(&cache)).spawn(Duration::from_millis(1)))
        } else {
            None
        };
        let shared = Arc::new(Shared {
            cache,
            pool,
            stats,
            stopping: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(0),
            conns: Mutex::new(std::collections::HashMap::new()),
            conn_threads: Mutex::new(Vec::new()),
            soft_limit,
            set_gate: Mutex::new(AdmissionGate::new(cfg.set_admission_under_pressure, 0x5EED)),
        });

        let mut listeners = Vec::new();
        let mut tcp_addr = None;
        let mut unix_path = None;
        let (tcp, unix) = match bind {
            BindAddr::Tcp(a) => (Some(a), None),
            BindAddr::Unix(p) => (None, Some(p)),
            BindAddr::Both(a, p) => (Some(a), Some(p)),
        };
        if let Some(addr) = tcp {
            let l = TcpListener::bind(&addr)?;
            tcp_addr = Some(l.local_addr()?);
            listeners.push(Listener::Tcp(l));
        }
        if let Some(path) = unix {
            // A stale socket from a previous run refuses rebinding;
            // removing a *fresh* foreign socket is the embedder's risk to
            // manage via path choice.
            let _ = std::fs::remove_file(&path);
            listeners.push(Listener::Unix(UnixListener::bind(&path)?));
            unix_path = Some(path);
        }

        let mut accept_threads = Vec::new();
        for listener in listeners {
            let shared = Arc::clone(&shared);
            accept_threads.push(std::thread::spawn(move || accept_loop(listener, shared)));
        }
        Ok(CacheServer {
            shared: Some(shared),
            accept_threads,
            maintainer,
            tcp_addr,
            unix_path,
        })
    }

    /// The bound TCP address (when TCP was requested) — useful with
    /// port 0.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix socket path (when Unix was requested).
    pub fn unix_path(&self) -> Option<&std::path::Path> {
        self.unix_path.as_deref()
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        match &self.shared {
            Some(s) => s.stats.snapshot(),
            None => ServerStatsSnapshot::default(),
        }
    }

    /// The configured per-shard queue bound (tests assert against it).
    pub fn queue_capacity(&self) -> usize {
        self.shared.as_ref().map_or(0, |s| s.pool.queue_capacity())
    }

    /// Graceful shutdown: stop accepting, close live connections, drain
    /// queued requests (each still receives its reply), join every
    /// thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        let Some(shared) = self.shared.take() else {
            return;
        };
        // ordering-ok: shutdown latch; Release pairs with the Acquire
        // loads in the accept and reader loops.
        shared.stopping.store(true, Ordering::Release);
        // Wake blocked accept() calls by connecting to our own listeners.
        if let Some(addr) = self.tcp_addr {
            let _ = TcpStream::connect(addr);
        }
        if let Some(path) = &self.unix_path {
            let _ = UnixStream::connect(path);
        }
        for t in self.accept_threads.drain(..) {
            let _ = t.join();
        }
        // Unblock connection readers; their threads exit on EOF.
        for c in shared.conns.lock().values() {
            c.force_shutdown();
        }
        let threads: Vec<JoinHandle<()>> = std::mem::take(&mut *shared.conn_threads.lock());
        for t in threads {
            let _ = t.join();
        }
        self.maintainer = None; // stop + join the maintainer
        // Every sender clone lives in reader threads (now joined) or the
        // pool itself; dropping the pool closes the queues and the shard
        // loops drain what remains, reply, and exit.
        // If a racing thread still holds the Arc briefly, the shard
        // threads still exit once it drops — we just cannot join them.
        if let Ok(s) = Arc::try_unwrap(shared) {
            s.pool.shutdown();
        }
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for CacheServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: Listener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok(s) => s,
            Err(_) => {
                // ordering-ok: shutdown latch, pairs with the Release
                // store in `shutdown`.
                if shared.stopping.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
        };
        // ordering-ok: shutdown latch, pairs with the Release store in
        // `shutdown`. The wake-up connection from shutdown() lands here.
        if shared.stopping.load(Ordering::Acquire) {
            return;
        }
        ServerStats::bump(&shared.stats.connections);
        // relaxed-ok: dense id allocation; uniqueness is all that matters.
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let (reader_clone, writer_clone) = match (stream.try_clone(), stream.try_clone()) {
            (Ok(r), Ok(w)) => (r, w),
            _ => continue, // peer already gone
        };
        shared.conns.lock().insert(conn_id, reader_clone);
        let writer = Arc::new(ConnWriter::new(conn_id, writer_clone, Arc::clone(&shared.stats)));
        let shared2 = Arc::clone(&shared);
        let handle = std::thread::spawn(move || read_loop(stream, conn_id, writer, shared2));
        shared.conn_threads.lock().push(handle);
    }
}

/// Growable read buffer for the drain loop: one `read` syscall fills it,
/// then every complete frame it holds is decoded before the next
/// syscall. The unconsumed window is `buf[start..end]`; leftover partial
/// frames are compacted to the front before refilling, and the buffer
/// grows until the largest in-flight frame fits (bounded by the codec's
/// `MAX_FRAME_LEN` check inside [`split_frame`]).
struct ReadBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// A connection whose reads filled the buffer this many times in a row
/// is at least this many [`READ_CHUNK`]s behind its client: past a burst,
/// into sustained overload (a 10 ms host stall at the benchmark's
/// 64k requests/s makes three such reads; an offered rate past capacity
/// makes hundreds).
const BEHIND_READS: usize = 8;

/// Spare room guaranteed before each read syscall — also the growth
/// step, so an over-`READ_CHUNK` frame becomes readable within a few
/// fills.
const READ_CHUNK: usize = 64 * 1024;

impl ReadBuf {
    fn new() -> ReadBuf {
        ReadBuf { buf: Vec::new(), start: 0, end: 0 }
    }

    /// One read syscall into the spare tail; returns the byte count (0 =
    /// EOF).
    fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.start > 0 && self.buf.len() - self.end < READ_CHUNK {
            // Compact the leftover partial frame to the front.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < READ_CHUNK {
            self.buf.resize(self.end + READ_CHUNK, 0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Whether the last [`ReadBuf::fill`] left no spare room, i.e. the
    /// socket may hold more than one read could take.
    fn is_full(&self) -> bool {
        self.end == self.buf.len()
    }

    /// Consumes and returns the bounds of the next complete frame's
    /// payload, or `None` when only a partial frame remains.
    ///
    /// # Errors
    ///
    /// `InvalidData` from [`split_frame`] on an over-ceiling length.
    fn next_frame(&mut self) -> io::Result<Option<std::ops::Range<usize>>> {
        match split_frame(&self.buf[self.start..self.end])? {
            FrameSplit::Incomplete => Ok(None),
            FrameSplit::Frame { payload, advance } => {
                let at = self.start;
                self.start += advance;
                Ok(Some(at + payload.start..at + payload.end))
            }
        }
    }

    fn slice(&self, range: std::ops::Range<usize>) -> &[u8] {
        &self.buf[range]
    }
}

/// Reads and drains one connection until EOF, protocol violation, or
/// shutdown. Each cycle is one `read` syscall, then *every* complete
/// frame it delivered: decode borrowed ([`RequestRef`]), route, bin per
/// shard, and finally dispatch each bin as one batch per channel — one
/// depth-gauge update and one shard wake per bin instead of per
/// request. Shed and error replies coalesce into a reader-local
/// [`ReplyBuf`] flushed once per cycle. On exit, shuts the socket down
/// (so the peer sees FIN even while registry/writer clones linger) and
/// removes the connection from the live registry.
fn read_loop(mut stream: Stream, conn_id: u64, writer: Arc<ConnWriter>, shared: Arc<Shared>) {
    let mut rbuf = ReadBuf::new();
    let mut bins: Vec<Vec<Job>> = (0..shared.pool.shards()).map(|_| Vec::new()).collect();
    let mut shed = ReplyBuf::new();
    let mut behind = 0usize;
    'conn: loop {
        // ordering-ok: shutdown latch, pairs with the Release store in
        // `shutdown`.
        if shared.stopping.load(Ordering::Acquire) {
            break;
        }
        let got = match rbuf.fill(&mut stream) {
            Ok(n) => n,
            Err(_) => break, // transport error: nothing to answer
        };
        // How this cycle defers to a shard before refusing a request
        // (`ShardPool::offer_cpu`): by yielding, unless the connection
        // itself is far behind. Deference absorbs a burst; a reader that
        // keeps finding its socket full is under sustained overload, where
        // delaying requests further only grows the tail, so it stops
        // offering and both bounds shed on the counts alone until a read
        // comes back short.
        behind = if rbuf.is_full() { behind + 1 } else { 0 };
        let relax: fn() = if behind < BEHIND_READS { std::thread::yield_now } else { || {} };
        let now = shared.cache.observed_clock();
        let mut frames = 0u64;
        let mut fatal = false;
        loop {
            match rbuf.next_frame() {
                Ok(Some(range)) => {
                    frames += 1;
                    match decode_request_ref(rbuf.slice(range)) {
                        Ok(req) => route_ref(req, &writer, &shared, &mut bins, &mut shed, now, relax),
                        Err(_) => {
                            // The payload decoded far enough to be framed
                            // but is malformed; answer with a typed
                            // protocol error and close (the id is
                            // unrecoverable from garbage).
                            ServerStats::bump(&shared.stats.protocol_errors);
                            shed.push(&Reply::Error { id: 0, code: ErrorCode::Protocol });
                            fatal = true;
                            break;
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    // Frame length over the protocol ceiling.
                    ServerStats::bump(&shared.stats.protocol_errors);
                    shed.push(&Reply::Error { id: 0, code: ErrorCode::Protocol });
                    fatal = true;
                    break;
                }
            }
        }
        if frames > 0 {
            shared.stats.frames_per_read.observe(frames);
            emit(EventKind::ConnReadBatch, now, frames, conn_id);
        }
        // Dispatch every non-empty bin as one batch; what a full queue
        // still refuses after the executor was offered the CPU sheds
        // with BUSY.
        for (shard, bin) in bins.iter_mut().enumerate() {
            dispatch_bin(&shared, shard, bin, &mut shed, now, relax);
        }
        // One locked write for every shed/error reply this cycle.
        let cap_before = shed.capacity();
        shed.flush(&writer, now);
        shed.charge_growth(cap_before, &shared.stats);
        if fatal || got == 0 {
            break 'conn;
        }
    }
    // A socket shutdown is socket-level, not fd-level: it reaches the
    // peer even though the registry and ConnWriter still hold clones.
    stream.force_shutdown();
    shared.conns.lock().remove(&conn_id);
}

/// Hands `shard` the bin it is owed as one batch and answers the jobs
/// its queue still refuses ([`ShardPool::dispatch_batch`]) with BUSY.
fn dispatch_bin(
    shared: &Shared,
    shard: usize,
    bin: &mut Vec<Job>,
    shed: &mut ReplyBuf,
    now: sim::Nanos,
    relax: fn(),
) {
    if bin.is_empty() {
        return;
    }
    let batch = std::mem::take(bin);
    for job in shared.pool.dispatch_batch(shard, batch, &shared.stats, relax) {
        ServerStats::bump(&shared.stats.busy_replies);
        emit(EventKind::RequestShed, now, job.req.id(), shard as u64);
        shed.push(&Reply::Busy { id: job.req.id() });
    }
}

/// Routes one borrowed request: shed (zero-copy) or copy it into the
/// owning shard's bin. The soft-overload check reads the shard's queue
/// depth *plus* the jobs already binned for it this cycle, so the
/// watermark engages at the same queued-job count as the unbatched
/// path did.
fn route_ref(
    req: RequestRef<'_>,
    writer: &Arc<ConnWriter>,
    shared: &Shared,
    bins: &mut [Vec<Job>],
    shed: &mut ReplyBuf,
    now: sim::Nanos,
    relax: fn(),
) {
    ServerStats::bump(&shared.stats.requests);
    let id = req.id();
    emit(EventKind::RequestArrive, now, id, writer.id);
    let shard = shared.pool.shard_of(req.key());
    // Soft overload: above the watermark, SETs pass the engine-style
    // admission gate before they may cost a queue slot; GETs always get
    // the chance to queue. As with the hard bound, the backlog counts
    // only after the executor was offered the CPU, and where the
    // un-dispatched bin is what crosses the watermark the shard is
    // handed that bin first.
    if matches!(req, RequestRef::Set { .. }) {
        let depth = shared.pool.depth(shard);
        if depth + bins[shard].len() >= shared.soft_limit {
            if depth < shared.soft_limit {
                dispatch_bin(shared, shard, &mut bins[shard], shed, now, relax);
            }
            if shared.pool.offer_cpu(shard, shared.soft_limit, relax) >= shared.soft_limit
                && !shared.set_gate.lock().admit()
            {
                ServerStats::bump(&shared.stats.shed_sets);
                ServerStats::bump(&shared.stats.busy_replies);
                emit(EventKind::RequestShed, now, id, shard as u64);
                shed.push(&Reply::Busy { id });
                return;
            }
        }
    }
    // The dispatch boundary: the one copy out of the read buffer.
    ServerStats::add(&shared.stats.bytes_copied, req.owned_len() as u64);
    emit(EventKind::RequestShardEnqueue, now, id, shard as u64);
    bins[shard].push(Job { req: req.to_owned(), conn: Arc::clone(writer) });
}
