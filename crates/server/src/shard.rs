//! Per-shard command loops.
//!
//! The engine ([`LogCache`]) is already safe for concurrent callers —
//! the lock-striped index and unlocked read I/O are what PR 2 built —
//! so shards here are **not** data partitions. They are *executors*: N
//! threads, each draining its own bounded command queue, giving the
//! frontend (a) a fixed concurrency level into the engine regardless of
//! connection count, and (b) a natural backpressure point — when a
//! shard's queue is full the frontend sheds with a typed BUSY instead
//! of queueing without bound (the open-loop latency bench is exactly
//! the workload that punishes unbounded queues with unbounded p99).
//!
//! Requests are routed to shards by key hash, so one hot key's requests
//! serialize on one queue instead of racing each other through the
//! engine, and a slow request (zone collision, GC stall) delays only
//! its own shard's queue.
//!
//! **Batched end to end.** The channel carries `Vec<Job>` batches, not
//! single jobs: one reservation against the job-count bound, one
//! `try_send`, one consumer wake per *batch* of decoded frames. The
//! bound itself stays a bound on **queued jobs** — a CAS loop reserves
//! up to `queue_capacity - depth` slots and the frontend sheds the
//! remainder — so the soft-overload watermark and the hard BUSY bound
//! engage at exactly the same queued-job counts as the unbatched path.
//! A job leaves the gauge when it has *run*, not when its batch is taken
//! off the channel, so the gauge reads the backlog: queued or in service.
//! A full gauge counts as overload only after the executor was offered
//! the CPU ([`ShardPool::offer_cpu`]): on an oversubscribed host it
//! may only say this loop has not been scheduled yet.
//! On the way out, each loop drains every batch its channel holds,
//! executes the jobs, and coalesces all replies owed to the same
//! connection into one reusable buffer flushed with a single locked
//! write syscall ([`ConnWriter::write_frames`]).
//!
//! Each shard carries its own simulated clock, seeded from the engine's
//! observed clock and re-synchronized against it per request (the same
//! loose coupling the closed-loop MT driver uses), so the trace spans a
//! shard emits interleave correctly with the zone/GC events the engine
//! emits underneath it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use zns_cache::trace::{emit, EventKind};
use zns_cache::LogCache;

use crate::conn::{ConnWriter, ReplyBuf};
use crate::stats::ServerStats;
use crate::wire::{ErrorCode, Reply, Request};

/// One queued command: the decoded request plus the connection that owes
/// the client a reply.
pub(crate) struct Job {
    pub(crate) req: Request,
    pub(crate) conn: Arc<ConnWriter>,
}

/// The executor pool: senders into each shard's bounded queue plus the
/// shard threads themselves.
pub(crate) struct ShardPool {
    senders: Vec<SyncSender<Vec<Job>>>,
    depths: Vec<Arc<AtomicUsize>>,
    queue_capacity: usize,
    handles: Vec<JoinHandle<()>>,
}

/// FNV-1a over the key: stable shard routing with no dependency.
fn shard_hash(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// How many times one offer of the CPU yields while the queue stays over
/// its bound. More than one because on a busy single core a yield hands
/// the CPU to *some* runnable thread (the client's sender, a neighbour
/// process), not necessarily to the shard that was just woken; bounded
/// because every yield pushes the reader's own work another slice out.
const OFFER_YIELDS: usize = 2;

/// Reserves up to `want` job slots against `depth`'s bound of `cap`
/// queued jobs, returning how many were granted (possibly zero). One
/// atomic update per *batch* — this is the satellite fix for the old
/// per-job `fetch_add(1)`: the gauge moves by whole batches but still
/// counts jobs, so the soft-shed watermark reads queued work, not
/// channel operations.
fn reserve_jobs(depth: &AtomicUsize, cap: usize, want: usize) -> usize {
    // relaxed-ok: the depth gauge orders nothing; the channel's own
    // synchronization publishes the jobs. The CAS only keeps the gauge's
    // arithmetic exact so the bound cannot be overshot.
    let mut cur = depth.load(Ordering::Relaxed);
    loop {
        let take = want.min(cap.saturating_sub(cur));
        if take == 0 {
            return 0;
        }
        // relaxed-ok: same gauge as above; only the count must be exact.
        match depth.compare_exchange_weak(cur, cur + take, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return take,
            Err(now) => cur = now,
        }
    }
}

impl ShardPool {
    /// Spawns `shards` command loops over `cache`, each with a bounded
    /// queue of `queue_capacity` *jobs*. `op_wall_delay` inserts an
    /// artificial wall-clock delay per engine op — zero in production;
    /// tests use it to make overload deterministic.
    pub(crate) fn start(
        cache: Arc<LogCache>,
        shards: usize,
        queue_capacity: usize,
        op_wall_delay: Duration,
        stats: Arc<ServerStats>,
    ) -> ShardPool {
        let shards = shards.max(1);
        let queue_capacity = queue_capacity.max(1);
        let mut senders = Vec::with_capacity(shards);
        let mut depths = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for _shard in 0..shards {
            // Channel slots are *batches*; every batch holds >= 1 job and
            // job reservations are capped at `queue_capacity`, so at most
            // `queue_capacity` batches can be outstanding — the channel
            // can never refuse a reserved batch.
            let (tx, rx) = sync_channel::<Vec<Job>>(queue_capacity);
            let depth = Arc::new(AtomicUsize::new(0));
            senders.push(tx);
            depths.push(Arc::clone(&depth));
            let cache = Arc::clone(&cache);
            let stats = Arc::clone(&stats);
            handles.push(std::thread::spawn(move || {
                run_shard(cache, rx, depth, queue_capacity, op_wall_delay, stats)
            }));
        }
        ShardPool { senders, depths, queue_capacity, handles }
    }

    /// How many shard loops are running (the frontend sizes its dispatch
    /// bins off this).
    pub(crate) fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Which shard serves `key`.
    pub(crate) fn shard_of(&self, key: &[u8]) -> usize {
        (shard_hash(key) % self.senders.len() as u64) as usize
    }

    /// Current backlog of `shard` in *jobs*, queued or in service
    /// (approximate; used for the soft-overload watermark).
    pub(crate) fn depth(&self, shard: usize) -> usize {
        // relaxed-ok: advisory load for the shedding watermark; an
        // off-by-a-few read only shifts when shedding engages.
        self.depths[shard].load(Ordering::Relaxed)
    }

    /// The job-count bound every shard queue enforces.
    pub(crate) fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Offers `shard`'s executor the CPU before a bound refuses anything:
    /// while `limit` jobs or more are queued or in service, calls `relax`
    /// (the frontend passes `std::thread::yield_now`), up to
    /// [`OFFER_YIELDS`] times. Returns the depth it last read.
    ///
    /// This is the shedding rule's other half: a backlog counts as
    /// overload only after the executor was offered the CPU. On an
    /// oversubscribed host a full gauge may only mean the shard thread
    /// has not been scheduled since the last batch. With idle cores a
    /// yield returns at once, and a queue that is full because the engine
    /// is slow stays full, so real overload is refused as before.
    pub(crate) fn offer_cpu(&self, shard: usize, limit: usize, mut relax: impl FnMut()) -> usize {
        let mut depth = self.depth(shard);
        for _ in 0..OFFER_YIELDS {
            if depth < limit {
                break;
            }
            relax();
            depth = self.depth(shard);
        }
        depth
    }

    /// Hands `shard` as much of `batch` as its bounded queue will take and
    /// returns the tail that is still refused (the caller sheds it with
    /// BUSY). Before anything is refused the executor is offered the CPU
    /// once ([`ShardPool::offer_cpu`]) and the reservation retried once:
    /// the deference is bounded, so a hiccup is absorbed and sustained
    /// overload is still shed.
    pub(crate) fn dispatch_batch(
        &self,
        shard: usize,
        batch: Vec<Job>,
        stats: &ServerStats,
        relax: impl FnMut(),
    ) -> Vec<Job> {
        let refused = self.try_dispatch_batch(shard, batch, stats);
        if refused.is_empty() || self.offer_cpu(shard, self.queue_capacity, relax) >= self.queue_capacity {
            return refused;
        }
        self.try_dispatch_batch(shard, refused, stats)
    }

    /// One attempt: enqueues as much of `batch` as the bounded queue has
    /// room for — one depth-gauge update, one channel send, one consumer
    /// wake for the whole batch — and returns the rejected tail (empty
    /// when everything was admitted).
    fn try_dispatch_batch(&self, shard: usize, mut batch: Vec<Job>, stats: &ServerStats) -> Vec<Job> {
        if batch.is_empty() {
            return batch;
        }
        let depth = &self.depths[shard];
        let take = reserve_jobs(depth, self.queue_capacity, batch.len());
        if take == 0 {
            return batch;
        }
        let rejected = batch.split_off(take);
        // relaxed-ok: advisory depth gauge, see `depth`.
        stats.observe_depth(depth.load(Ordering::Relaxed) as u64);
        stats.jobs_per_dispatch.observe(take as u64);
        match self.senders[shard].try_send(batch) {
            Ok(()) => rejected,
            Err(TrySendError::Full(mut batch)) | Err(TrySendError::Disconnected(mut batch)) => {
                // Full is impossible by construction (see `start`); this
                // arm is the shutdown race — undo the reservation and
                // hand everything back.
                // relaxed-ok: advisory depth gauge, see `depth`.
                depth.fetch_sub(take, Ordering::Relaxed);
                batch.extend(rejected);
                batch
            }
        }
    }

    /// Drops the queue senders and joins every shard thread. Queued jobs
    /// are drained (each still gets its reply) before a loop exits.
    pub(crate) fn shutdown(self) {
        drop(self.senders);
        for h in self.handles {
            let _ = h.join();
        }
    }
}

/// Reusable per-connection reply accumulators for one executed batch:
/// replies owed to the same connection coalesce into one buffer, flushed
/// with one locked write. Slots (and their buffers) persist across
/// batches, so the steady state allocates nothing.
struct ReplyGroups {
    groups: Vec<(Option<Arc<ConnWriter>>, ReplyBuf, usize)>,
}

impl ReplyGroups {
    fn new() -> ReplyGroups {
        ReplyGroups { groups: Vec::new() }
    }

    fn buf_for(&mut self, conn: &Arc<ConnWriter>) -> &mut ReplyBuf {
        // Linear scan: a batch rarely spans more than a handful of
        // connections, and slots are reused in place.
        let mut active = None;
        let mut free = None;
        for (i, (owner, _, _)) in self.groups.iter().enumerate() {
            match owner {
                Some(c) if Arc::ptr_eq(c, conn) => {
                    active = Some(i);
                    break;
                }
                None if free.is_none() => free = Some(i),
                _ => {}
            }
        }
        let i = match (active, free) {
            (Some(i), _) => return &mut self.groups[i].1,
            (None, Some(i)) => i,
            (None, None) => {
                self.groups.push((None, ReplyBuf::new(), 0));
                self.groups.len() - 1
            }
        };
        let (owner, buf, cap_before) = &mut self.groups[i];
        *owner = Some(Arc::clone(conn));
        *cap_before = buf.capacity();
        buf
    }

    /// Flushes every active group — one locked write syscall per
    /// connection — then releases the connections (keeping the buffers).
    fn flush_all(&mut self, stats: &ServerStats, now: sim::Nanos) {
        for (owner, buf, cap_before) in &mut self.groups {
            if let Some(conn) = owner.take() {
                buf.charge_growth(*cap_before, stats);
                buf.flush(&conn, now);
            }
        }
    }
}

fn run_shard(
    cache: Arc<LogCache>,
    rx: Receiver<Vec<Job>>,
    depth: Arc<AtomicUsize>,
    queue_capacity: usize,
    op_wall_delay: Duration,
    stats: Arc<ServerStats>,
) {
    // This shard's simulated timeline; re-synchronized to the engine's
    // observed clock per request so shard timelines stay loosely coupled
    // (a shard idle for a while does not replay the past).
    let mut clock = cache.observed_clock();
    let mut groups = ReplyGroups::new();
    while let Ok(mut batch) = rx.recv() {
        // Drain everything else already queued (up to the job bound, so a
        // continuously-refilled queue cannot defer replies forever): the
        // deeper the backlog, the more replies one flush amortizes.
        while batch.len() < queue_capacity {
            match rx.try_recv() {
                Ok(more) => batch.extend(more),
                Err(_) => break,
            }
        }
        for job in batch.drain(..) {
            if !op_wall_delay.is_zero() {
                std::thread::sleep(op_wall_delay);
            }
            let Job { req, conn } = job;
            let id = req.id();
            let start = clock.max(cache.observed_clock());
            emit(EventKind::RequestEngineStart, start, id, req.opcode() as u64);
            let reply = match &req {
                Request::Get { key, .. } => match cache.get(key, start) {
                    Ok((Some(value), done)) => {
                        clock = done;
                        // The engine's refcounted buffer rides into the
                        // encoder as-is — no `to_vec` on the hit path.
                        Reply::Value { id, value }
                    }
                    Ok((None, done)) => {
                        clock = done;
                        Reply::NotFound { id }
                    }
                    Err(_) => {
                        ServerStats::bump(&stats.engine_errors);
                        Reply::Error { id, code: ErrorCode::Engine }
                    }
                },
                Request::Set { key, value, .. } => match cache.set(key, value, start) {
                    Ok(done) => {
                        clock = done;
                        Reply::Stored { id }
                    }
                    Err(_) => {
                        ServerStats::bump(&stats.engine_errors);
                        Reply::Error { id, code: ErrorCode::Engine }
                    }
                },
                Request::Del { key, .. } => match cache.delete(key, start) {
                    Ok((existed, done)) => {
                        clock = done;
                        Reply::Deleted { id, existed }
                    }
                    Err(_) => {
                        ServerStats::bump(&stats.engine_errors);
                        Reply::Error { id, code: ErrorCode::Engine }
                    }
                },
            };
            emit(EventKind::RequestDone, clock, id, (clock - start).as_nanos());
            groups.buf_for(&conn).push(&reply);
            // A job leaves the gauge when it has run, not when it is taken
            // off the channel: the job in service is backlog too, so a
            // frontend that offered this loop the CPU can tell a queue it
            // worked off from one it merely moved into its batch.
            // relaxed-ok: advisory depth gauge for the shedding watermark.
            depth.fetch_sub(1, Ordering::Relaxed);
        }
        groups.flush_all(&stats, clock);
    }
}

#[cfg(test)]
mod tests {
    use std::os::unix::net::UnixStream;

    use super::*;
    use crate::conn::Stream;

    const CAP: usize = 8;

    /// One shard's queue with no executor thread behind it: the test
    /// plays the executor through the returned receiver and depth gauge.
    fn detached_pool() -> (ShardPool, Receiver<Vec<Job>>, Arc<AtomicUsize>) {
        let (tx, rx) = sync_channel(CAP);
        let depth = Arc::new(AtomicUsize::new(0));
        let pool = ShardPool {
            senders: vec![tx],
            depths: vec![Arc::clone(&depth)],
            queue_capacity: CAP,
            handles: Vec::new(),
        };
        (pool, rx, depth)
    }

    fn jobs(n: u64, stats: &Arc<ServerStats>) -> Vec<Job> {
        let (sock, _peer) = UnixStream::pair().unwrap();
        let conn = Arc::new(ConnWriter::new(0, Stream::Unix(sock), Arc::clone(stats)));
        (0..n).map(|id| Job { req: Request::Get { id, key: vec![b'k'] }, conn: Arc::clone(&conn) }).collect()
    }

    /// A relax hook that plays the executor getting the CPU: it takes
    /// everything queued and runs it (as `run_shard` does, a job leaves
    /// the gauge when it has run).
    fn run_queued<'a>(
        rx: &'a Receiver<Vec<Job>>,
        depth: &'a AtomicUsize,
        executed: &'a mut Vec<u64>,
    ) -> impl FnMut() + 'a {
        move || {
            for job in rx.try_iter().flatten() {
                executed.push(job.req.id());
                depth.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn dispatch_batch_refuses_nothing_the_offered_executor_makes_room_for() {
        // The oversubscribed-host case: the queue is only full because the
        // executor has not had the CPU. One offer lets it work the queue
        // off, and the retry admits what was refused.
        let (pool, rx, depth) = detached_pool();
        let stats = Arc::new(ServerStats::default());
        let mut executed = Vec::new();
        let hook = run_queued(&rx, &depth, &mut executed);
        let refused = pool.dispatch_batch(0, jobs(2 * CAP as u64, &stats), &stats, hook);
        assert!(refused.is_empty(), "{} jobs refused though the yield freed room", refused.len());
        executed.extend(rx.try_iter().flatten().map(|j| j.req.id()));
        assert_eq!(executed, (0..2 * CAP as u64).collect::<Vec<_>>(), "jobs lost or reordered");
        let snap = stats.snapshot();
        assert_eq!(snap.max_queue_depth, CAP as u64, "the job bound must hold across the retry");
        assert_eq!((snap.jobs_per_dispatch.events, snap.jobs_per_dispatch.items), (2, 2 * CAP as u64));
    }

    #[test]
    fn dispatch_batch_defers_once_then_refuses() {
        // The deference is bounded: one offer, one retry. A bin of 10x the
        // bound gets two queues' worth in however fast the executor runs;
        // the rest comes back in order for the caller to shed, so
        // sustained overload is still refused.
        let (pool, rx, depth) = detached_pool();
        let stats = Arc::new(ServerStats::default());
        let mut executed = Vec::new();
        let mut relaxed = 0;
        let mut run = run_queued(&rx, &depth, &mut executed);
        let refused = pool.dispatch_batch(0, jobs(10 * CAP as u64, &stats), &stats, || {
            relaxed += 1;
            run();
        });
        drop(run);
        assert_eq!(relaxed, 1, "room after the first yield: no further yields");
        let ids: Vec<u64> = refused.iter().map(|j| j.req.id()).collect();
        assert_eq!(ids, (2 * CAP as u64..10 * CAP as u64).collect::<Vec<_>>());
        assert_eq!(executed, (0..CAP as u64).collect::<Vec<_>>());
        assert_eq!(depth.load(Ordering::Relaxed), CAP);
    }

    #[test]
    fn dispatch_batch_returns_the_old_rejected_tail_when_relax_frees_nothing() {
        // Real overload: the executor was offered the CPU and the queue
        // is still full. `OFFER_YIELDS` fruitless relaxes, then exactly
        // what a single `try_dispatch_batch` used to reject comes back,
        // with the gauge and the dispatch accounting as a single attempt
        // leaves them; counting the BUSY replies stays the caller's job.
        let (pool, rx, depth) = detached_pool();
        let stats = Arc::new(ServerStats::default());
        let mut relaxed = 0;
        let refused = pool.dispatch_batch(0, jobs(10 * CAP as u64, &stats), &stats, || relaxed += 1);
        assert_eq!(relaxed, OFFER_YIELDS, "fruitless yields must stay bounded");
        let ids: Vec<u64> = refused.iter().map(|j| j.req.id()).collect();
        assert_eq!(ids, (CAP as u64..10 * CAP as u64).collect::<Vec<_>>());
        assert_eq!(depth.load(Ordering::Relaxed), CAP);
        assert_eq!(rx.try_iter().map(|b| b.len()).collect::<Vec<_>>(), [CAP]);
        let snap = stats.snapshot();
        assert_eq!((snap.jobs_per_dispatch.events, snap.jobs_per_dispatch.items), (1, CAP as u64));
        assert_eq!(snap.max_queue_depth, CAP as u64);
        assert_eq!(snap.busy_replies, 0);
    }

    #[test]
    fn hash_routing_is_stable_and_spread() {
        let h1 = shard_hash(b"obj-00000001");
        assert_eq!(h1, shard_hash(b"obj-00000001"), "routing must be deterministic");
        // 1000 distinct keys over 4 shards: no shard may be empty.
        let mut counts = [0u32; 4];
        for i in 0..1000u32 {
            let key = format!("obj-{i:08}");
            counts[(shard_hash(key.as_bytes()) % 4) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 100), "skewed routing: {counts:?}");
    }

    #[test]
    fn reserve_jobs_counts_jobs_not_batches() {
        // The regression the depth-gauge satellite guards: the bound is
        // queued *jobs*. Three batch reservations against a bound of 8
        // must grant 5, then 3, then 0 — the same cutoffs the old
        // per-job fetch_add produced, in one atomic update per batch.
        let depth = AtomicUsize::new(0);
        assert_eq!(reserve_jobs(&depth, 8, 5), 5);
        assert_eq!(depth.load(Ordering::Relaxed), 5);
        assert_eq!(reserve_jobs(&depth, 8, 5), 3, "partial grant at the bound");
        assert_eq!(depth.load(Ordering::Relaxed), 8);
        assert_eq!(reserve_jobs(&depth, 8, 1), 0, "full queue grants nothing");
        assert_eq!(depth.load(Ordering::Relaxed), 8);
        // Consumer drains a whole batch in one decrement; capacity frees.
        depth.fetch_sub(8, Ordering::Relaxed);
        assert_eq!(reserve_jobs(&depth, 8, 20), 8, "grants clamp to the bound");
    }
}
