//! The flash array: scheduling, ordering enforcement, wear accounting.

use core::fmt;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use sim::{Counter, Nanos};

use crate::geometry::{BlockAddr, Geometry, PageAddr};
use crate::store::{PageStore, Payload, SharedPage, StoreKind};
use crate::timing::NandTiming;

/// Errors returned by the flash array. Any of these indicates a bug in the
/// translation layer above (FTL, zone manager, filesystem), never a
/// condition to be retried.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NandError {
    /// Address outside the array.
    OutOfRange {
        /// The offending flat page or block index.
        addr: u64,
        /// Upper bound that was violated.
        limit: u64,
    },
    /// Page programmed out of order within its block.
    ProgramOrder {
        /// Block in question.
        block: u64,
        /// Next programmable page index.
        expected: u32,
        /// Page index that was attempted.
        got: u32,
    },
    /// Program attempted on a block whose pages are exhausted.
    BlockFull {
        /// Block in question.
        block: u64,
    },
    /// Buffer length does not equal the page size.
    BadLength {
        /// Offending length.
        len: usize,
        /// Required page size.
        page_size: usize,
    },
}

impl fmt::Display for NandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NandError::OutOfRange { addr, limit } => {
                write!(f, "flash address {addr} out of range (limit {limit})")
            }
            NandError::ProgramOrder {
                block,
                expected,
                got,
            } => write!(
                f,
                "out-of-order program in block {block}: expected page {expected}, got {got}"
            ),
            NandError::BlockFull { block } => write!(f, "block {block} fully programmed"),
            NandError::BadLength { len, page_size } => {
                write!(f, "buffer length {len} != page size {page_size}")
            }
        }
    }
}

impl std::error::Error for NandError {}

/// Configuration for a [`NandArray`].
#[derive(Clone, Debug)]
pub struct NandConfig {
    /// Physical shape.
    pub geometry: Geometry,
    /// Operation timing.
    pub timing: NandTiming,
    /// Payload store selection.
    pub store: StoreKind,
}

impl NandConfig {
    /// A realistic default: 8 channels × 4 dies, 2 MiB blocks, ~16 GiB raw.
    pub fn default_ssd() -> Self {
        NandConfig {
            geometry: Geometry::new(8, 4, 256, 512),
            timing: NandTiming::default(),
            store: StoreKind::Ram,
        }
    }

    /// A tiny array for unit tests: 2×2 dies, 16 blocks/die of 8 pages.
    pub fn small_test() -> Self {
        NandConfig {
            geometry: Geometry::new(2, 2, 16, 8),
            timing: NandTiming::fast_test(),
            store: StoreKind::Ram,
        }
    }
}

/// Point-in-time view of array activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NandStatsSnapshot {
    /// Pages sensed (array reads).
    pub pages_read: u64,
    /// Pages programmed.
    pub pages_programmed: u64,
    /// Blocks erased.
    pub blocks_erased: u64,
}

impl NandStatsSnapshot {
    /// Bytes physically programmed to the media.
    pub fn bytes_programmed(&self) -> u64 {
        self.pages_programmed * sim::BLOCK_SIZE as u64
    }
}

struct Sched {
    /// Die occupancy by programs and erases (writes queue behind this).
    die_busy: Vec<Nanos>,
    /// Die occupancy by reads (reads serialize among themselves; writes
    /// queue behind reads too).
    die_read_busy: Vec<Nanos>,
    /// High-water mark of *queued* (page-granular, append-path) program
    /// completions per die. A read whose sense falls below this mark is
    /// preempting a queued program and pays the cheap per-page
    /// `program_suspend` fee instead of the monolithic `read_suspend`.
    die_preempt: Vec<Nanos>,
    chan_busy: Vec<Nanos>,
    /// Next programmable page index per block; `pages_per_block` = full.
    next_page: Vec<u32>,
    erase_counts: Vec<u32>,
}

/// A discrete-event NAND flash array.
///
/// All methods are `&self`; scheduling state is internally locked so the
/// array can be shared between a foreground path and a GC path.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct NandArray {
    geometry: Geometry,
    timing: NandTiming,
    store: Box<dyn PageStore>,
    sched: Mutex<Sched>,
    pages_read: Counter,
    pages_programmed: Counter,
    blocks_erased: Counter,
}

impl fmt::Debug for NandArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NandArray")
            .field("geometry", &self.geometry)
            .field("stats", &self.stats())
            .finish()
    }
}

impl NandArray {
    /// Builds an array from a configuration.
    pub fn new(config: NandConfig) -> Self {
        let g = config.geometry;
        NandArray {
            geometry: g,
            timing: config.timing,
            store: config.store.build(&g),
            sched: Mutex::new(Sched {
                die_busy: vec![Nanos::ZERO; g.total_dies() as usize],
                die_read_busy: vec![Nanos::ZERO; g.total_dies() as usize],
                die_preempt: vec![Nanos::ZERO; g.total_dies() as usize],
                chan_busy: vec![Nanos::ZERO; g.channels as usize],
                next_page: vec![0; g.total_blocks() as usize],
                erase_counts: vec![0; g.total_blocks() as usize],
            }),
            pages_read: Counter::new(),
            pages_programmed: Counter::new(),
            blocks_erased: Counter::new(),
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The array's timing parameters.
    pub fn timing(&self) -> &NandTiming {
        &self.timing
    }

    /// Activity counters so far.
    pub fn stats(&self) -> NandStatsSnapshot {
        NandStatsSnapshot {
            pages_read: self.pages_read.get(),
            pages_programmed: self.pages_programmed.get(),
            blocks_erased: self.blocks_erased.get(),
        }
    }

    /// Highest per-block erase count (wear proxy).
    pub fn max_erase_count(&self) -> u32 {
        self.sched.lock().erase_counts.iter().copied().max().unwrap_or(0)
    }

    /// Mean per-block erase count.
    pub fn mean_erase_count(&self) -> f64 {
        let s = self.sched.lock();
        if s.erase_counts.is_empty() {
            return 0.0;
        }
        s.erase_counts.iter().map(|&c| c as u64).sum::<u64>() as f64 / s.erase_counts.len() as f64
    }

    /// Approximate resident payload bytes in the backing store.
    pub fn resident_bytes(&self) -> u64 {
        self.store.resident_bytes()
    }

    /// Next programmable page index of a block (`pages_per_block` if full).
    pub fn write_pointer(&self, block: BlockAddr) -> u32 {
        self.sched.lock().next_page[block.0 as usize]
    }

    /// The checks every page command makes before it touches any state:
    /// the address is in the array and the payload is exactly one page.
    fn check(&self, addr: PageAddr, len: usize) -> Result<(), NandError> {
        if !self.geometry.contains_page(addr) {
            return Err(NandError::OutOfRange {
                addr: addr.0,
                limit: self.geometry.total_pages(),
            });
        }
        if len != self.geometry.page_size() {
            return Err(NandError::BadLength {
                len,
                page_size: self.geometry.page_size(),
            });
        }
        Ok(())
    }

    /// Reads one page.
    ///
    /// Unwritten pages read back as zeros, as from an erased block on real
    /// flash (modulo the all-ones convention, which no layer above relies
    /// on).
    ///
    /// # Errors
    ///
    /// [`NandError::OutOfRange`] / [`NandError::BadLength`].
    pub fn read_page(
        &self,
        addr: PageAddr,
        buf: &mut [u8],
        now: Nanos,
    ) -> Result<Nanos, NandError> {
        self.check(addr, buf.len())?;
        let done = self.schedule_read(addr, now);
        self.store.read(addr, buf);
        Ok(done)
    }

    /// Reads one page by reference: the same command as [`Self::read_page`]
    /// (same checks, same schedule, same counters), but the payload comes
    /// back as a [`SharedPage`] instead of being copied out. Programming it
    /// elsewhere with [`Self::program_page_shared`] is a page copy that
    /// moves no bytes.
    ///
    /// # Errors
    ///
    /// [`NandError::OutOfRange`].
    pub fn read_page_shared(
        &self,
        addr: PageAddr,
        now: Nanos,
    ) -> Result<(SharedPage, Nanos), NandError> {
        self.check(addr, self.geometry.page_size())?;
        let done = self.schedule_read(addr, now);
        Ok((self.store.read_shared(addr), done))
    }

    /// The one read schedule: charges a page sense and transfer to its die
    /// and channel and returns the completion time.
    fn schedule_read(&self, addr: PageAddr, now: Nanos) -> Nanos {
        let block = self.geometry.block_of_page(addr);
        let die = self.geometry.die_of_block(block);
        let chan = self.geometry.channel_of_die(die);

        let mut s = self.sched.lock();
        // Reads have priority: they serialize behind other reads on the
        // die, and pay a suspension penalty (not the full wait) when the
        // die is mid-program or mid-erase. Queued page-granular programs
        // (the zone-append path) expose a suspend point at every page
        // boundary, so preempting them costs only `program_suspend`;
        // monolithic positioned bursts cost the full `read_suspend`.
        let sense_start = now.max(s.die_read_busy[die.0 as usize]);
        let suspend = if sense_start < s.die_busy[die.0 as usize] {
            if sense_start < s.die_preempt[die.0 as usize] {
                self.timing.program_suspend
            } else {
                self.timing.read_suspend
            }
        } else {
            Nanos::ZERO
        };
        let sense_done = sense_start + suspend + self.timing.page_read;
        let xfer_start = sense_done.max(s.chan_busy[chan as usize]);
        let done = xfer_start + self.timing.bus_transfer;
        s.die_read_busy[die.0 as usize] = done;
        // Programs and erases queue behind die_read_busy (see
        // program_page/erase_block), so read time is charged to the die
        // exactly once — no extra push here, or saturated read traffic
        // would starve writes unboundedly.
        s.chan_busy[chan as usize] = done;
        drop(s);

        self.pages_read.incr();
        done
    }

    /// Programs one page. Pages within a block must be programmed in order.
    ///
    /// # Errors
    ///
    /// [`NandError::ProgramOrder`] when skipping ahead or rewriting,
    /// [`NandError::BlockFull`] when the block is exhausted, plus the range
    /// and length errors of [`Self::read_page`].
    pub fn program_page(
        &self,
        addr: PageAddr,
        data: &[u8],
        now: Nanos,
    ) -> Result<Nanos, NandError> {
        self.program(addr, Payload::Bytes(data), now, false)
            .map(|(_, done)| done)
    }

    /// Programs one page by reference: the same command as
    /// [`Self::program_page`], but the page keeps a reference to `page`
    /// (typically read with [`Self::read_page_shared`]) instead of a copy.
    ///
    /// # Errors
    ///
    /// As [`Self::program_page`].
    pub fn program_page_shared(
        &self,
        addr: PageAddr,
        page: &SharedPage,
        now: Nanos,
    ) -> Result<Nanos, NandError> {
        self.program(addr, Payload::Page(page), now, false)
            .map(|(_, done)| done)
    }

    /// Programs one page from either kind of payload: the general form of
    /// [`Self::program_page`] and [`Self::program_page_shared`].
    ///
    /// A `queued` program is the zone-append path: identical scheduling,
    /// but the die records a suspend point at every page boundary, so
    /// concurrent reads preempt it at the cheap `program_suspend` fee.
    /// Returns `(service_start, done)` — the interval the die actually
    /// worked on this page — so layers above can report per-die service
    /// overlap.
    ///
    /// # Errors
    ///
    /// As [`Self::program_page`].
    pub fn program(
        &self,
        addr: PageAddr,
        payload: Payload<'_>,
        now: Nanos,
        queued: bool,
    ) -> Result<(Nanos, Nanos), NandError> {
        self.check(addr, payload.len())?;
        let (start, done) = self.schedule_program(addr, now, queued)?;
        self.store.write(addr, payload);
        Ok((start, done))
    }

    /// The one program schedule: enforces program order within the block,
    /// charges the transfer and the program to the channel and die, and
    /// returns `(service_start, done)`.
    fn schedule_program(
        &self,
        addr: PageAddr,
        now: Nanos,
        queued: bool,
    ) -> Result<(Nanos, Nanos), NandError> {
        let block = self.geometry.block_of_page(addr);
        let in_block = self.geometry.page_in_block(addr);
        let die = self.geometry.die_of_block(block);
        let chan = self.geometry.channel_of_die(die);

        let mut s = self.sched.lock();
        let next = s.next_page[block.0 as usize];
        if next >= self.geometry.pages_per_block {
            return Err(NandError::BlockFull { block: block.0 });
        }
        if in_block != next {
            return Err(NandError::ProgramOrder {
                block: block.0,
                expected: next,
                got: in_block,
            });
        }
        // Transfer in over the channel, then program on the die. Programs
        // queue behind both writes and reads.
        let xfer_start = now.max(s.chan_busy[chan as usize]);
        let xfer_done = xfer_start + self.timing.bus_transfer;
        let prog_start = xfer_done
            .max(s.die_busy[die.0 as usize])
            .max(s.die_read_busy[die.0 as usize]);
        let done = prog_start + self.timing.page_program;
        s.chan_busy[chan as usize] = xfer_done;
        s.die_busy[die.0 as usize] = done;
        if queued {
            s.die_preempt[die.0 as usize] = done.max(s.die_preempt[die.0 as usize]);
        }
        s.next_page[block.0 as usize] = next + 1;
        drop(s);

        self.pages_programmed.incr();
        Ok((prog_start, done))
    }

    /// Erases a block, making all its pages programmable again.
    ///
    /// # Errors
    ///
    /// [`NandError::OutOfRange`] for an invalid block.
    pub fn erase_block(&self, block: BlockAddr, now: Nanos) -> Result<Nanos, NandError> {
        if !self.geometry.contains_block(block) {
            return Err(NandError::OutOfRange {
                addr: block.0,
                limit: self.geometry.total_blocks(),
            });
        }
        let die = self.geometry.die_of_block(block);

        let mut s = self.sched.lock();
        let start = now
            .max(s.die_busy[die.0 as usize])
            .max(s.die_read_busy[die.0 as usize]);
        let done = start + self.timing.block_erase;
        s.die_busy[die.0 as usize] = done;
        s.next_page[block.0 as usize] = 0;
        s.erase_counts[block.0 as usize] += 1;
        drop(s);

        self.store
            .discard(self.geometry.first_page_of_block(block), self.geometry.pages_per_block as u64);
        self.blocks_erased.incr();
        Ok(done)
    }

    /// Earliest time the die owning `block` becomes free. Used by layers
    /// above to model "background" work that defers to foreground traffic.
    pub fn die_free_at(&self, block: BlockAddr) -> Nanos {
        let die = self.geometry.die_of_block(block);
        self.sched.lock().die_busy[die.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> NandArray {
        NandArray::new(NandConfig::small_test())
    }

    fn page(n: u64, a: &NandArray) -> Vec<u8> {
        vec![n as u8; a.geometry().page_size()]
    }

    #[test]
    fn program_then_read_round_trips() {
        let a = array();
        let data = page(7, &a);
        let t = a.program_page(PageAddr(0), &data, Nanos::ZERO).unwrap();
        let mut out = vec![0u8; a.geometry().page_size()];
        a.read_page(PageAddr(0), &mut out, t).unwrap();
        assert_eq!(out, data);
        let s = a.stats();
        assert_eq!(s.pages_programmed, 1);
        assert_eq!(s.pages_read, 1);
    }

    #[test]
    fn unwritten_page_reads_zeros() {
        let a = array();
        let mut out = vec![9u8; a.geometry().page_size()];
        a.read_page(PageAddr(5), &mut out, Nanos::ZERO).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn program_order_enforced() {
        let a = array();
        let data = page(1, &a);
        a.program_page(PageAddr(0), &data, Nanos::ZERO).unwrap();
        // Skipping page 1 within block 0 must fail.
        let err = a.program_page(PageAddr(2), &data, Nanos::ZERO).unwrap_err();
        assert_eq!(
            err,
            NandError::ProgramOrder {
                block: 0,
                expected: 1,
                got: 2
            }
        );
        // Rewriting page 0 must fail too.
        let err = a.program_page(PageAddr(0), &data, Nanos::ZERO).unwrap_err();
        assert!(matches!(err, NandError::ProgramOrder { .. }));
    }

    #[test]
    fn full_block_rejects_until_erased() {
        let a = array();
        let ppb = a.geometry().pages_per_block as u64;
        let data = page(3, &a);
        let mut t = Nanos::ZERO;
        for p in 0..ppb {
            t = a.program_page(PageAddr(p), &data, t).unwrap();
        }
        assert!(matches!(
            a.program_page(PageAddr(0), &data, t),
            Err(NandError::ProgramOrder { .. }) | Err(NandError::BlockFull { .. })
        ));
        let t = a.erase_block(BlockAddr(0), t).unwrap();
        assert_eq!(a.write_pointer(BlockAddr(0)), 0);
        a.program_page(PageAddr(0), &data, t).unwrap();
        assert_eq!(a.max_erase_count(), 1);
        // Erase discards payloads.
        let mut out = vec![9u8; a.geometry().page_size()];
        a.read_page(PageAddr(1), &mut out, t).unwrap();
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn dies_run_in_parallel_but_blocks_on_one_die_serialize() {
        let a = array();
        let g = *a.geometry();
        let data = vec![1u8; g.page_size()];
        // Block 0 is on die 0; block `blocks_per_die` is on die 1 (other
        // channel? no: die 1 shares channel 0). Choose dies on different
        // channels: die 0 (chan 0) and die 2 (chan 1).
        let b_die0 = BlockAddr(0);
        let b_die2 = BlockAddr(2 * g.blocks_per_die as u64);
        let t0 = a
            .program_page(g.first_page_of_block(b_die0), &data, Nanos::ZERO)
            .unwrap();
        let t1 = a
            .program_page(g.first_page_of_block(b_die2), &data, Nanos::ZERO)
            .unwrap();
        // Different die + different channel: same completion time.
        assert_eq!(t0, t1);
        // Two sequential programs on the same die serialize.
        let t2 = a
            .program_page(PageAddr(g.first_page_of_block(b_die0).0 + 1), &data, Nanos::ZERO)
            .unwrap();
        assert!(t2 > t0);
    }

    #[test]
    fn channel_contention_delays_transfer() {
        let a = array();
        let g = *a.geometry();
        let data = vec![1u8; g.page_size()];
        // Dies 0 and 1 share channel 0.
        let b0 = BlockAddr(0);
        let b1 = BlockAddr(g.blocks_per_die as u64);
        let t0 = a
            .program_page(g.first_page_of_block(b0), &data, Nanos::ZERO)
            .unwrap();
        let t1 = a
            .program_page(g.first_page_of_block(b1), &data, Nanos::ZERO)
            .unwrap();
        // Second transfer waits one bus slot; programs overlap afterwards.
        assert_eq!(t1, t0 + a.timing().bus_transfer);
    }

    #[test]
    fn bounds_and_length_errors() {
        let a = array();
        let g = *a.geometry();
        let mut small = vec![0u8; 16];
        assert!(matches!(
            a.read_page(PageAddr(0), &mut small, Nanos::ZERO),
            Err(NandError::BadLength { .. })
        ));
        let mut full = vec![0u8; g.page_size()];
        assert!(matches!(
            a.read_page(PageAddr(g.total_pages()), &mut full, Nanos::ZERO),
            Err(NandError::OutOfRange { .. })
        ));
        assert!(matches!(
            a.erase_block(BlockAddr(g.total_blocks()), Nanos::ZERO),
            Err(NandError::OutOfRange { .. })
        ));
    }

    #[test]
    fn reads_suspend_programs_instead_of_waiting() {
        let a = array();
        let g = *a.geometry();
        let data = vec![1u8; g.page_size()];
        // Queue several programs on die 0 so it is busy for a while.
        let mut t_w = Nanos::ZERO;
        for p in 0..4 {
            t_w = a.program_page(PageAddr(p), &data, Nanos::ZERO).unwrap();
        }
        // A read of the first page issued while the die is mid-burst must
        // complete long before the whole burst would.
        let mut out = vec![0u8; g.page_size()];
        let t_r = a.read_page(PageAddr(0), &mut out, Nanos::ZERO).unwrap();
        assert!(
            t_r < t_w,
            "read ({t_r}) should preempt the program burst ({t_w})"
        );
        // But it still pays the suspension penalty.
        assert!(t_r >= a.timing().read_suspend + a.timing().page_read);
    }

    #[test]
    fn queued_programs_take_cheap_suspensions() {
        let a = array();
        let g = *a.geometry();
        let data = vec![1u8; g.page_size()];
        // A queued (append-path) burst on die 0: suspend points at every
        // page boundary.
        for p in 0..4 {
            a.program(PageAddr(p), Payload::Bytes(&data), Nanos::ZERO, true).unwrap();
        }
        let mut out = vec![0u8; g.page_size()];
        let t_r = a.read_page(PageAddr(0), &mut out, Nanos::ZERO).unwrap();
        let t = a.timing();
        assert_eq!(t_r, t.program_suspend + t.page_read + t.bus_transfer);
        assert!(
            t_r < t.read_suspend + t.page_read,
            "queued burst must be cheaper to preempt than a monolithic one"
        );
    }

    #[test]
    fn queued_program_reports_its_die_service_interval() {
        let a = array();
        let g = *a.geometry();
        let data = vec![1u8; g.page_size()];
        let (start, done) = a
            .program(PageAddr(0), Payload::Bytes(&data), Nanos::ZERO, true)
            .unwrap();
        assert_eq!(start, a.timing().bus_transfer, "service starts after transfer");
        assert_eq!(done - start, a.timing().page_program);
        // Identical scheduling to the legacy path: a second queued page on
        // the same die starts when the first finishes.
        let (s2, _) = a
            .program(PageAddr(1), Payload::Bytes(&data), Nanos::ZERO, true)
            .unwrap();
        assert_eq!(s2, done);
    }

    #[test]
    fn erase_dominates_timing() {
        let a = array();
        let t = a.erase_block(BlockAddr(3), Nanos::ZERO).unwrap();
        assert_eq!(t, a.timing().block_erase);
        assert_eq!(a.stats().blocks_erased, 1);
    }
}
