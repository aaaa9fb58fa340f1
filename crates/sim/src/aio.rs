//! Asynchronous submission/completion over simulated time.
//!
//! Real async I/O stacks (io_uring, SPDK) split work into a *submission*
//! step that never blocks and a *completion* step the caller polls or
//! waits on. Under discrete-event time the split looks different but buys
//! the same thing: `submit` runs the device model eagerly — device state
//! mutates at the wall-clock instant of the call — yet the *caller's sim
//! clock does not advance to the completion time*. The caller keeps
//! submitting, and only when it truly needs a result does it pay the
//! completion timestamp. A loop that previously chained
//! `now = dev.op(now)?` across N commands serialized them at QD1; the same
//! loop through an [`IoHandle`] issues them all at the original `now` and
//! takes `max` of the completions — queue-depth-N service across the dies.
//!
//! Each [`IoHandle`] is single-owner (`&mut self` everywhere): no locks,
//! no atomics — the concurrency story is "one handle per shard", exactly
//! like an io_uring per thread. [`IoPool`] stamps handles with distinct
//! shard ids so traces can tell them apart.
//!
//! # Example
//!
//! ```
//! use sim::aio::IoPool;
//! use sim::Nanos;
//!
//! let pool: IoPool<()> = IoPool::new();
//! let mut h = pool.handle();
//! for i in 0..4u64 {
//!     h.submit(Nanos(0), |now| Ok(now + Nanos(100 + i)));
//! }
//! assert_eq!(h.in_flight(), 4);
//! assert_eq!(h.complete_all(Nanos(0)).unwrap(), Nanos(103));
//! assert_eq!(h.in_flight(), 0);
//! ```

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::time::Nanos;

/// A completed submission: its caller-assigned id and completion time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// Monotonic per-handle submission id, returned by [`IoHandle::submit`].
    pub id: u64,
    /// Simulated completion timestamp of the operation.
    pub done: Nanos,
}

/// Hands out per-shard [`IoHandle`]s with distinct shard ids.
///
/// The pool itself holds no queues — submissions live in the handles, which
/// are single-owner and lock-free. It exists so that every shard of a
/// multi-threaded component draws from one id space.
#[derive(Debug, Default)]
pub struct IoPool<E> {
    next_shard: AtomicU64,
    _err: PhantomData<fn() -> E>,
}

impl<E> IoPool<E> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        IoPool {
            next_shard: AtomicU64::new(0),
            _err: PhantomData,
        }
    }

    /// Creates a handle with the next shard id.
    pub fn handle(&self) -> IoHandle<E> {
        IoHandle {
            // relaxed-ok: shard-id allocator — a monotone counter that
            // publishes no payload; uniqueness is all that matters.
            shard: self.next_shard.fetch_add(1, Ordering::Relaxed),
            next_id: 0,
            pending: Vec::new(),
        }
    }
}

/// A per-shard submission queue plus completion buffer.
///
/// All methods take `&mut self`; a handle must not be shared between
/// threads (it is `Send`, so it can *move* to a worker thread).
#[derive(Debug)]
pub struct IoHandle<E> {
    shard: u64,
    next_id: u64,
    pending: Vec<Result<Completion, (u64, E)>>,
}

impl<E> IoHandle<E> {
    /// The shard id the pool stamped on this handle.
    pub fn shard(&self) -> u64 {
        self.shard
    }

    /// Submits an operation at sim time `now` and returns its submission
    /// id. The device closure runs eagerly (device state mutates now), but
    /// the returned completion timestamp is buffered rather than imposed
    /// on the caller's clock — the caller's `now` stays where it was, so
    /// the next submission goes out at the same instant.
    pub fn submit(
        &mut self,
        now: Nanos,
        op: impl FnOnce(Nanos) -> Result<Nanos, E>,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push(match op(now) {
            Ok(done) => Ok(Completion { id, done }),
            Err(e) => Err((id, e)),
        });
        id
    }

    /// Number of submissions not yet reaped.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Reaps every in-flight submission in one pass, in submission order.
    /// Completion times are folded with `max`, so the order in which a
    /// caller reaps moves no timestamp; a linear pass is all it takes.
    /// Unlike [`Self::complete_all`], each error is handed to the caller,
    /// which decides which of them fail the batch.
    pub fn reap_all(&mut self) -> std::vec::Drain<'_, Result<Completion, (u64, E)>> {
        self.pending.drain(..)
    }

    /// Drains every in-flight submission: returns the latest completion
    /// time (or `now` if nothing was in flight), or the first buffered
    /// error. On error the remaining completions are discarded — device
    /// state already mutated at submit, so there is nothing to roll back;
    /// the caller decides how to recover.
    pub fn complete_all(&mut self, now: Nanos) -> Result<Nanos, E> {
        let mut done = now;
        let mut first_err = None;
        for p in self.reap_all() {
            match p {
                Ok(c) => done = done.max(c.done),
                Err((_, e)) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(done),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submissions_share_one_issue_instant() {
        let pool: IoPool<()> = IoPool::new();
        let mut h = pool.handle();
        let mut issue_times = Vec::new();
        for i in 0..3u64 {
            h.submit(Nanos(1000), |now| {
                issue_times.push(now);
                Ok(now + Nanos(10 * (i + 1)))
            });
        }
        // The whole point: every op was issued at the caller's clock, not
        // chained after its predecessor's completion.
        assert_eq!(issue_times, vec![Nanos(1000); 3]);
        assert_eq!(h.complete_all(Nanos(1000)).unwrap(), Nanos(1030));
    }

    #[test]
    fn reap_all_hands_back_every_submission_in_order() {
        let pool: IoPool<&'static str> = IoPool::new();
        let mut h = pool.handle();
        let a = h.submit(Nanos(0), |_| Ok(Nanos(300)));
        let b = h.submit(Nanos(0), |_| Err("boom"));
        let c = h.submit(Nanos(0), |_| Ok(Nanos(100)));
        let reaped: Vec<_> = h.reap_all().collect();
        assert_eq!(
            reaped,
            vec![
                Ok(Completion { id: a, done: Nanos(300) }),
                Err((b, "boom")),
                Ok(Completion { id: c, done: Nanos(100) }),
            ]
        );
        assert_eq!(h.in_flight(), 0);
        assert_eq!(h.reap_all().count(), 0);
    }

    #[test]
    fn first_error_wins_and_queue_drains() {
        let pool: IoPool<&'static str> = IoPool::new();
        let mut h = pool.handle();
        h.submit(Nanos(0), |_| Ok(Nanos(50)));
        h.submit(Nanos(0), |_| Err("boom"));
        h.submit(Nanos(0), |_| Ok(Nanos(10)));
        assert_eq!(h.complete_all(Nanos(0)), Err("boom"));
        assert_eq!(h.in_flight(), 0);
        // The handle is reusable after an error.
        h.submit(Nanos(0), |_| Ok(Nanos(5)));
        assert_eq!(h.complete_all(Nanos(0)), Ok(Nanos(5)));
    }

    #[test]
    fn pool_stamps_distinct_shards() {
        let pool: IoPool<()> = IoPool::new();
        assert_eq!(pool.handle().shard(), 0);
        assert_eq!(pool.handle().shard(), 1);
    }
}
