//! The engine's asynchronous I/O core: submission/completion accounting.
//!
//! Every backend call the engine makes is classified ([`IoClass`]) and
//! funnels through [`EngineIo`], which keeps submitted/completed counter
//! pairs per class. The pairs serve two audiences: the `xtask lint`
//! submit-to-complete rule (no lock may be held between a submission and
//! its completion — the counters make the window observable), and tests
//! that assert the engine never leaks an in-flight operation.
//!
//! Two shapes of use:
//!
//! * **Fused** ([`EngineIo::run`]) — reads and maintenance ops submit and
//!   complete in one call. The device model runs eagerly either way; the
//!   value is uniform accounting and a single choke point for the lint.
//! * **Split** ([`EngineIo::submitted`] / [`EngineIo::completed`] around a
//!   detached flush) — the seal path detaches the region image under the
//!   writer mutex, *releases the mutex*, then submits the flush; pipeline
//!   waiters later reap the completion through the job's
//!   [`FlushTicket`]'s [`InflightCell`].
//!
//! See `DESIGN.md` §10.

use crate::protocol::InflightCell;
use crate::sync::Arc;
use sim::Counter;

/// What kind of backend work an operation is, for accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoClass {
    /// Unlocked read-path device reads (get/delete revalidation covers).
    Read,
    /// Region-image flushes from the seal path.
    Flush,
    /// Maintainer/cleaner work: evictions, discards, scrub reads.
    Maintenance,
}

/// Pipeline handle to one detached region flush.
///
/// Created by the sealer under the writer mutex; resolved by whoever
/// needs the flush's outcome (next sealer over depth, `flush()` barrier,
/// or the evictor of that region). The cell is completed by the submitter
/// after the device call returns — success or failure alike, so a waiter
/// can never hang on a flush whose submission path already unwound.
#[derive(Debug)]
pub struct FlushTicket {
    /// Region slot the detached image is bound for.
    pub region: u32,
    /// Completion cell the submitter fills.
    pub cell: Arc<InflightCell>,
}

/// Per-class submission/completion counters.
#[derive(Debug, Default)]
pub struct EngineIo {
    read_submitted: Counter,
    read_completed: Counter,
    flush_submitted: Counter,
    flush_completed: Counter,
    maint_submitted: Counter,
    maint_completed: Counter,
}

impl EngineIo {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        EngineIo::default()
    }

    /// Records a submission of `class`.
    pub fn submitted(&self, class: IoClass) {
        match class {
            IoClass::Read => self.read_submitted.incr(),
            IoClass::Flush => self.flush_submitted.incr(),
            IoClass::Maintenance => self.maint_submitted.incr(),
        }
    }

    /// Records a completion of `class`.
    pub fn completed(&self, class: IoClass) {
        match class {
            IoClass::Read => self.read_completed.incr(),
            IoClass::Flush => self.flush_completed.incr(),
            IoClass::Maintenance => self.maint_completed.incr(),
        }
    }

    /// Fused submit+complete: runs `op` and accounts it as one submission
    /// that completed. The op must not be holding any engine lock — the
    /// same contract the split path makes observable.
    pub fn run<T, E>(
        &self,
        class: IoClass,
        op: impl FnOnce() -> Result<T, E>,
    ) -> Result<T, E> {
        self.submitted(class);
        let r = op();
        self.completed(class);
        r
    }

    /// Submissions not yet completed, across all classes. Zero whenever
    /// the engine is quiescent; tests assert this.
    pub fn in_flight(&self) -> u64 {
        (self.read_submitted.get() + self.flush_submitted.get() + self.maint_submitted.get())
            .saturating_sub(
                self.read_completed.get() + self.flush_completed.get() + self.maint_completed.get(),
            )
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use sim::Nanos;

    #[test]
    fn fused_run_balances_counters_even_on_error() {
        let io = EngineIo::new();
        assert_eq!(io.in_flight(), 0);
        let ok: Result<u32, ()> = io.run(IoClass::Read, || Ok(1));
        assert_eq!(ok, Ok(1));
        let err: Result<(), &str> = io.run(IoClass::Maintenance, || Err("io"));
        assert_eq!(err, Err("io"));
        assert_eq!(io.in_flight(), 0);
    }

    #[test]
    fn split_flush_window_is_observable() {
        let io = EngineIo::new();
        let ticket = FlushTicket {
            region: 3,
            cell: Arc::new(InflightCell::new()),
        };
        io.submitted(IoClass::Flush);
        assert_eq!(io.in_flight(), 1);
        ticket.cell.complete(Nanos(10));
        io.completed(IoClass::Flush);
        assert_eq!(io.in_flight(), 0);
        assert_eq!(ticket.cell.wait_done(), Nanos(10));
    }
}
