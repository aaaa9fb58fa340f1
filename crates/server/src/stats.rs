//! Aggregate server counters.
//!
//! Wait-free (relaxed atomic) counters bumped from connection readers and
//! shard loops; a [`ServerStatsSnapshot`] is the coherent-enough view a
//! test or an operator reads after (or during) a run.
//!
//! The batched data path adds three [`BatchStat`] histograms — one per
//! amortization point (frames per read syscall, jobs per channel
//! dispatch, replies per locked write) — plus copy/alloc gauges
//! (`bytes_copied`, `reply_bytes`, `reply_allocs`). Together they make
//! the batching *measurable*: a mean of 1.0 everywhere means the server
//! is paying full per-request overhead; means above 1 are the
//! amortization the knee curves depend on, and `reply_allocs` staying
//! flat under steady load is the no-per-request-allocation guarantee.

use std::sync::atomic::{AtomicU64, Ordering};

// relaxed-ok(file): monotone statistics counters; nothing is published
// through them and snapshots tolerate slight skew between fields.

/// Log₂ batch-size buckets: 1, 2, 4, … 64, ≥128.
pub const BATCH_BUCKETS: usize = 8;

/// A wait-free batch-size histogram: per-bucket counts (log₂ buckets)
/// plus the running event/item totals a mean is computed from.
#[derive(Debug, Default)]
pub struct BatchStat {
    events: AtomicU64,
    items: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BATCH_BUCKETS],
}

impl BatchStat {
    /// Records one batch of `n` items (`n == 0` is not an event).
    pub(crate) fn observe(&self, n: u64) {
        if n == 0 {
            return;
        }
        self.events.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(n, Ordering::Relaxed);
        self.max.fetch_max(n, Ordering::Relaxed);
        let bucket = (63 - n.leading_zeros() as usize).min(BATCH_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> BatchStatSnapshot {
        let mut buckets = [0u64; BATCH_BUCKETS];
        for (out, b) in buckets.iter_mut().zip(&self.buckets) {
            *out = b.load(Ordering::Relaxed);
        }
        BatchStatSnapshot {
            events: self.events.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Point-in-time copy of one [`BatchStat`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStatSnapshot {
    /// Batches observed (reads, dispatches, or flushes).
    pub events: u64,
    /// Items across all batches (frames, jobs, or replies).
    pub items: u64,
    /// Largest single batch.
    pub max: u64,
    /// Log₂ batch-size buckets: index i counts batches of size
    /// [2^i, 2^(i+1)), with the last bucket open-ended.
    pub buckets: [u64; BATCH_BUCKETS],
}

impl BatchStatSnapshot {
    /// Mean items per batch — the amortization factor. 0.0 before any
    /// batch was observed.
    pub fn mean(&self) -> f64 {
        if self.events == 0 {
            0.0
        } else {
            self.items as f64 / self.events as f64
        }
    }
}

/// Shared mutable counters. One instance per [`crate::CacheServer`].
#[derive(Debug, Default)]
pub struct ServerStats {
    pub(crate) connections: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) replies: AtomicU64,
    pub(crate) busy_replies: AtomicU64,
    pub(crate) shed_sets: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) engine_errors: AtomicU64,
    pub(crate) dead_replies: AtomicU64,
    pub(crate) max_queue_depth: AtomicU64,
    pub(crate) frames_per_read: BatchStat,
    pub(crate) jobs_per_dispatch: BatchStat,
    pub(crate) replies_per_flush: BatchStat,
    pub(crate) bytes_copied: AtomicU64,
    pub(crate) reply_bytes: AtomicU64,
    pub(crate) reply_allocs: AtomicU64,
}

impl ServerStats {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn observe_depth(&self, depth: u64) {
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            replies: self.replies.load(Ordering::Relaxed),
            busy_replies: self.busy_replies.load(Ordering::Relaxed),
            shed_sets: self.shed_sets.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            engine_errors: self.engine_errors.load(Ordering::Relaxed),
            dead_replies: self.dead_replies.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            frames_per_read: self.frames_per_read.snapshot(),
            jobs_per_dispatch: self.jobs_per_dispatch.snapshot(),
            replies_per_flush: self.replies_per_flush.snapshot(),
            bytes_copied: self.bytes_copied.load(Ordering::Relaxed),
            reply_bytes: self.reply_bytes.load(Ordering::Relaxed),
            reply_allocs: self.reply_allocs.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time server counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests decoded off connections (shed or served).
    pub requests: u64,
    /// Replies sent, of any status.
    pub replies: u64,
    /// Requests shed with a typed BUSY because a shard queue was full.
    pub busy_replies: u64,
    /// SETs shed by the soft-overload admission gate (subset of
    /// `busy_replies`).
    pub shed_sets: u64,
    /// Connections dropped after a malformed frame or payload.
    pub protocol_errors: u64,
    /// Requests that failed inside the engine (typed ERROR reply).
    pub engine_errors: u64,
    /// Replies that could not be written because the peer disconnected.
    pub dead_replies: u64,
    /// High-water mark of any shard's command-queue depth (jobs queued
    /// or in service, not channel operations).
    pub max_queue_depth: u64,
    /// Complete frames decoded per read syscall.
    pub frames_per_read: BatchStatSnapshot,
    /// Jobs admitted per shard-channel dispatch (one send, one
    /// depth-gauge update, one wake per batch).
    pub jobs_per_dispatch: BatchStatSnapshot,
    /// Reply frames coalesced per locked connection write.
    pub replies_per_flush: BatchStatSnapshot,
    /// Request key/value bytes copied out of read buffers into owned
    /// jobs (the single copy at the dispatch boundary; shed requests
    /// contribute nothing).
    pub bytes_copied: u64,
    /// Bytes written on the reply path (encoded frames, including
    /// prefixes).
    pub reply_bytes: u64,
    /// Reply-path buffer allocations or growths. Amortized: reusable
    /// per-connection/per-shard buffers grow until the workload's frame
    /// mix fits, after which steady-state batches allocate nothing —
    /// the gate test asserts this stays flat under sustained load.
    pub reply_allocs: u64,
}
