//! Conventional (block-interface) SSD emulator.
//!
//! This is the paper's *regular SSD* baseline (the SN540 paired with the
//! ZN540): a page-mapped flash translation layer over the same NAND array
//! the ZNS device uses. It provides the properties the paper attributes to
//! regular SSDs:
//!
//! * **Over-provisioning** — a configurable fraction of raw capacity is
//!   invisible to the host and absorbs garbage collection churn.
//! * **Device-internal GC** — greedy victim selection, incremental
//!   migration interleaved with host writes, emergency synchronous
//!   collection when space runs out. GC traffic occupies the same dies as
//!   host I/O, which is what produces the *uncontrollable tail latency*
//!   (Fig. 5d) and throughput instability the paper observes.
//! * **Write amplification accounting** — media writes vs host writes,
//!   reported via [`FtlStatsSnapshot::write_amplification`].
//! * **TRIM** — hosts can invalidate ranges without writing.
//!
//! The FTL separates host and GC write frontiers (a standard two-stream
//! layout), so GC-migrated cold data does not re-mix with hot host writes.
//!
//! # Example
//!
//! ```
//! use ftl::{BlockSsd, FtlConfig};
//! use sim::{BlockDevice, Lba, Nanos, BLOCK_SIZE};
//!
//! let ssd = BlockSsd::new(FtlConfig::small_test());
//! let data = vec![0x11u8; BLOCK_SIZE];
//! let done = ssd.write(Lba(0), &data, Nanos::ZERO).unwrap();
//! let mut out = vec![0u8; BLOCK_SIZE];
//! ssd.read(Lba(0), &mut out, done).unwrap();
//! assert_eq!(out, data);
//! ```

use core::fmt;

use nand::{BlockAddr, NandArray, NandConfig, PageAddr};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use sim::{BlockDevice, Counter, IoError, IoResult, Lba, Nanos, BLOCK_SIZE};
use std::collections::VecDeque;
use std::sync::Arc;

/// Configuration for a [`BlockSsd`].
#[derive(Clone, Debug)]
pub struct FtlConfig {
    /// Underlying flash array.
    pub nand: NandConfig,
    /// Over-provisioning ratio: fraction of raw capacity hidden from the
    /// host. Typical consumer drives ~7%, enterprise 20–28%.
    pub op_ratio: f64,
    /// Background GC starts when free blocks drop below this count.
    pub gc_low_water: u32,
    /// Background GC stops once free blocks recover above this count.
    pub gc_high_water: u32,
    /// Pages migrated per host write while background GC is active. Larger
    /// values keep up with heavier overwrite traffic at the cost of more
    /// foreground interference.
    pub gc_pages_per_host_write: u32,
}

impl FtlConfig {
    /// Tiny device for unit tests (~2 MiB raw, 12.5% OP).
    pub fn small_test() -> Self {
        FtlConfig {
            nand: NandConfig::small_test(),
            op_ratio: 0.125,
            gc_low_water: 6,
            gc_high_water: 10,
            gc_pages_per_host_write: 8,
        }
    }

    /// Default drive shape mirroring [`NandConfig::default_ssd`] with 7% OP.
    pub fn default_ssd() -> Self {
        FtlConfig {
            nand: NandConfig::default_ssd(),
            op_ratio: 0.07,
            gc_low_water: 16,
            gc_high_water: 32,
            gc_pages_per_host_write: 8,
        }
    }
}

/// Point-in-time FTL statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FtlStatsSnapshot {
    /// 4 KiB pages written by the host.
    pub host_pages_written: u64,
    /// 4 KiB pages read by the host.
    pub host_pages_read: u64,
    /// Pages migrated by garbage collection.
    pub gc_pages_moved: u64,
    /// Blocks erased.
    pub blocks_erased: u64,
    /// GC victim blocks collected.
    pub gc_victims: u64,
    /// Bytes physically programmed (host + GC).
    pub media_bytes_written: u64,
}

impl FtlStatsSnapshot {
    /// Device-level write amplification: media writes / host writes.
    pub fn write_amplification(&self) -> f64 {
        sim::stats::write_amplification(
            self.host_pages_written * BLOCK_SIZE as u64,
            self.media_bytes_written,
        )
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BlockState {
    Free,
    OpenHost,
    OpenGc,
    Full,
}

struct FtlState {
    /// Logical-to-physical map.
    l2p: Vec<Option<PageAddr>>,
    /// Physical-to-logical reverse map (None = invalid/unwritten).
    p2l: Vec<Option<u64>>,
    valid: Vec<u32>,
    state: Vec<BlockState>,
    /// Erased blocks, kept per die so frontier blocks can be spread over
    /// dies (dynamic die interleaving — the "superblock" behaviour of real
    /// drives; without it large host writes would serialize on one die).
    free: Vec<VecDeque<BlockAddr>>,
    /// Open write frontiers. Slots are NOT tied to dies: each holds a
    /// block from whichever die had the most free space, so small devices
    /// are not over-pinned while large ones still stripe fully.
    host_frontiers: Vec<Option<(BlockAddr, u32)>>,
    gc_frontiers: Vec<Option<(BlockAddr, u32)>>,
    host_rr: usize,
    gc_rr: usize,
    /// Victim being drained incrementally: (block, next page index to scan).
    victim: Option<(BlockAddr, u32)>,
}

/// A conventional SSD: page-mapped FTL + internal GC over NAND flash.
///
/// Implements [`BlockDevice`]; see the [crate docs](self) for an example.
pub struct BlockSsd {
    array: Arc<NandArray>,
    logical_blocks: u64,
    pages_per_block: u32,
    blocks_per_die: u64,
    gc_low: u32,
    gc_high: u32,
    gc_quantum: u32,
    /// Free blocks only GC may consume; guarantees migration headroom so
    /// emergency collection can always make progress.
    gc_reserve: u32,
    state: Mutex<FtlState>,
    host_pages_written: Counter,
    host_pages_read: Counter,
    gc_pages_moved: Counter,
    gc_victims: Counter,
}

impl fmt::Debug for BlockSsd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BlockSsd")
            .field("logical_blocks", &self.logical_blocks)
            .field("stats", &self.stats())
            .finish()
    }
}

impl BlockSsd {
    /// Builds the drive.
    ///
    /// # Panics
    ///
    /// Panics if `op_ratio` is outside `[0.02, 0.9]` or the watermarks are
    /// inconsistent — configuration bugs caught at startup.
    pub fn new(config: FtlConfig) -> Self {
        assert!(
            (0.02..=0.9).contains(&config.op_ratio),
            "op_ratio {} outside [0.02, 0.9]",
            config.op_ratio
        );
        assert!(
            config.gc_low_water < config.gc_high_water,
            "gc_low_water must be below gc_high_water"
        );
        let geometry = config.nand.geometry;
        let array = Arc::new(NandArray::new(config.nand));
        let total_pages = geometry.total_pages();
        let logical_blocks = ((total_pages as f64) * (1.0 - config.op_ratio)).floor() as u64;
        let total_blocks = geometry.total_blocks();
        assert!(
            config.gc_high_water as u64 + 2 < total_blocks,
            "watermarks leave no usable space"
        );
        let dies = geometry.total_dies();
        let blocks_per_die = geometry.blocks_per_die as u64;
        let mut free: Vec<VecDeque<BlockAddr>> = vec![VecDeque::new(); dies as usize];
        for b in 0..total_blocks {
            free[(b / blocks_per_die) as usize].push_back(BlockAddr(b));
        }
        // Frontier widths scale with the device so open blocks never pin
        // a large share of its slack (tiny test devices) while big devices
        // still stripe across every die.
        let host_width = (total_blocks / 8).clamp(1, dies as u64) as usize;
        let gc_width = (host_width / 2).max(1);
        BlockSsd {
            array,
            logical_blocks,
            pages_per_block: geometry.pages_per_block,
            blocks_per_die,
            gc_low: config.gc_low_water,
            gc_high: config.gc_high_water,
            gc_quantum: config.gc_pages_per_host_write.max(1),
            gc_reserve: 2,
            state: Mutex::new(FtlState {
                l2p: vec![None; logical_blocks as usize],
                p2l: vec![None; total_pages as usize],
                valid: vec![0; total_blocks as usize],
                state: vec![BlockState::Free; total_blocks as usize],
                free,
                host_frontiers: vec![None; host_width],
                gc_frontiers: vec![None; gc_width],
                host_rr: 0,
                gc_rr: 0,
                victim: None,
            }),
            host_pages_written: Counter::new(),
            host_pages_read: Counter::new(),
            gc_pages_moved: Counter::new(),
            gc_victims: Counter::new(),
        }
    }

    /// The underlying flash array.
    pub fn nand(&self) -> &NandArray {
        &self.array
    }

    /// Device statistics.
    pub fn stats(&self) -> FtlStatsSnapshot {
        let nand = self.array.stats();
        FtlStatsSnapshot {
            host_pages_written: self.host_pages_written.get(),
            host_pages_read: self.host_pages_read.get(),
            gc_pages_moved: self.gc_pages_moved.get(),
            blocks_erased: nand.blocks_erased,
            gc_victims: self.gc_victims.get(),
            media_bytes_written: nand.bytes_programmed(),
        }
    }

    /// Fraction of logical space currently mapped.
    pub fn utilization(&self) -> f64 {
        let s = self.state.lock();
        let mapped = s.l2p.iter().filter(|m| m.is_some()).count();
        mapped as f64 / s.l2p.len().max(1) as f64
    }

    /// Free (erased) blocks available for allocation.
    pub fn free_blocks(&self) -> u32 {
        self.state.lock().free.iter().map(VecDeque::len).sum::<usize>() as u32
    }

    /// Allocates the next physical page, round-robining over the write
    /// frontier slots so consecutive pages land on different dies and
    /// program in parallel.
    fn alloc_page(&self, s: &mut FtlState, for_gc: bool) -> IoResult<PageAddr> {
        let width = if for_gc {
            s.gc_frontiers.len()
        } else {
            s.host_frontiers.len()
        };
        let rr_start = if for_gc { s.gc_rr } else { s.host_rr };
        for i in 0..width {
            let slot = (rr_start + i) % width;
            let frontier = if for_gc {
                &mut s.gc_frontiers[slot]
            } else {
                &mut s.host_frontiers[slot]
            };
            // Retire an exhausted frontier block.
            if let Some((block, next)) = frontier {
                if *next >= self.pages_per_block {
                    let block = *block;
                    *frontier = None;
                    s.state[block.0 as usize] = BlockState::Full;
                }
            }
            let needs_block = if for_gc {
                s.gc_frontiers[slot].is_none()
            } else {
                s.host_frontiers[slot].is_none()
            };
            if needs_block {
                // Host allocations may not raid the GC reserve.
                let total_free: usize = s.free.iter().map(VecDeque::len).sum();
                if !for_gc && total_free <= self.gc_reserve as usize {
                    continue;
                }
                // Take from the die with the most free blocks, spreading
                // frontier blocks across dies for parallelism.
                let Some(die) = (0..s.free.len()).max_by_key(|&d| s.free[d].len()) else {
                    continue;
                };
                let Some(block) = s.free[die].pop_front() else {
                    continue; // no free block anywhere
                };
                s.state[block.0 as usize] = if for_gc {
                    BlockState::OpenGc
                } else {
                    BlockState::OpenHost
                };
                let frontier = if for_gc {
                    &mut s.gc_frontiers[slot]
                } else {
                    &mut s.host_frontiers[slot]
                };
                *frontier = Some((block, 0));
            }
            let frontier = if for_gc {
                &mut s.gc_frontiers[slot]
            } else {
                &mut s.host_frontiers[slot]
            };
            let (block, next) = frontier.as_mut().expect("frontier just ensured");
            let page = PageAddr(block.0 * self.pages_per_block as u64 + *next as u64);
            *next += 1;
            if for_gc {
                s.gc_rr = (slot + 1) % width;
            } else {
                s.host_rr = (slot + 1) % width;
            }
            return Ok(page);
        }
        Err(IoError::NoSpace)
    }

    fn pick_victim(&self, s: &FtlState) -> Option<BlockAddr> {
        // Greedy: the Full block with the fewest valid pages.
        let mut best: Option<(u32, BlockAddr)> = None;
        for (i, st) in s.state.iter().enumerate() {
            if *st == BlockState::Full {
                let v = s.valid[i];
                if best.is_none_or(|(bv, _)| v < bv) {
                    best = Some((v, BlockAddr(i as u64)));
                    if v == 0 {
                        break;
                    }
                }
            }
        }
        best.map(|(_, b)| b)
    }

    /// Runs up to `budget` pages of GC migration at time `now`.
    ///
    /// Returns the number of pages migrated. GC I/O is scheduled on the
    /// dies immediately, so it delays any foreground I/O that lands on the
    /// same die afterwards — the tail-latency mechanism of regular SSDs.
    fn gc_step(&self, s: &mut FtlState, mut budget: u32, now: Nanos) -> IoResult<u32> {
        let mut moved = 0;
        while budget > 0 {
            let (victim, mut scan) = match s.victim.take() {
                Some(v) => v,
                None => match self.pick_victim(s) {
                    Some(b) => {
                        self.gc_victims.incr();
                        (b, 0)
                    }
                    None => break,
                },
            };
            while scan < self.pages_per_block && budget > 0 {
                let page = PageAddr(victim.0 * self.pages_per_block as u64 + scan as u64);
                if let Some(lba) = s.p2l[page.0 as usize] {
                    // Migrate this valid page by reference: the array
                    // charges the read and the program, no byte is copied.
                    let (data, _) = self
                        .array
                        .read_page_shared(page, now)
                        .map_err(|e| IoError::Device(e.to_string()))?;
                    let dst = self.alloc_page(s, true)?;
                    self.array
                        .program_page_shared(dst, &data, now)
                        .map_err(|e| IoError::Device(e.to_string()))?;
                    s.p2l[page.0 as usize] = None;
                    s.valid[victim.0 as usize] -= 1;
                    s.p2l[dst.0 as usize] = Some(lba);
                    s.l2p[lba as usize] = Some(dst);
                    let dst_block = dst.0 / self.pages_per_block as u64;
                    s.valid[dst_block as usize] += 1;
                    self.gc_pages_moved.incr();
                    moved += 1;
                    budget -= 1;
                }
                scan += 1;
            }
            if scan < self.pages_per_block {
                // Budget exhausted mid-victim; resume next step.
                s.victim = Some((victim, scan));
                return Ok(moved);
            }
            debug_assert_eq!(s.valid[victim.0 as usize], 0);
            self.array
                .erase_block(victim, now)
                .map_err(|e| IoError::Device(e.to_string()))?;
            s.state[victim.0 as usize] = BlockState::Free;
            let die = (victim.0 / self.blocks_per_die) as usize;
            s.free[die].push_back(victim);
            let total_free: usize = s.free.iter().map(VecDeque::len).sum();
            if total_free as u32 >= self.gc_high {
                break;
            }
        }
        Ok(moved)
    }

    /// Seals every open write-frontier block as Full so its already-dead
    /// pages become collectable. Needed to break a GC deadlock: when all
    /// invalid pages sit in partially-written frontier blocks, every Full
    /// block is 100% valid and collection makes no net progress.
    fn close_frontiers(&self, s: &mut FtlState) {
        for frontier in s.host_frontiers.iter_mut().chain(s.gc_frontiers.iter_mut()) {
            if let Some((block, _)) = frontier.take() {
                s.state[block.0 as usize] = BlockState::Full;
            }
        }
    }

    /// Ensures at least one free block exists, running emergency GC if the
    /// pool is empty.
    fn ensure_space(&self, s: &mut FtlState, now: Nanos) -> IoResult<()> {
        // Background trickle when below low water.
        let total_free = |s: &FtlState| s.free.iter().map(VecDeque::len).sum::<usize>() as u32;
        if total_free(s) < self.gc_low {
            self.gc_step(s, self.gc_quantum, now)?;
        }
        // Emergency: collect whole victims synchronously until the host
        // has a block above the GC reserve. `guard` counts rounds without
        // progress; frontier blocks are sealed once to expose their dead
        // pages, and only if the device is truly out of reclaimable space
        // do we fail.
        let mut guard = 0;
        let floor = self.gc_reserve;
        while total_free(s) <= floor {
            let before = total_free(s);
            self.gc_step(s, self.pages_per_block, now)?;
            if total_free(s) <= before.max(floor) {
                guard += 1;
                if guard == 3 {
                    self.close_frontiers(s);
                } else if guard > 16 {
                    return Err(IoError::NoSpace);
                }
            } else {
                guard = 0;
            }
        }
        Ok(())
    }

    fn write_one(&self, lba: u64, data: &[u8], now: Nanos) -> IoResult<Nanos> {
        let mut s = self.state.lock();
        self.ensure_space(&mut s, now)?;
        // Invalidate the previous version.
        if let Some(old) = s.l2p[lba as usize].take() {
            s.p2l[old.0 as usize] = None;
            let block = old.0 / self.pages_per_block as u64;
            s.valid[block as usize] -= 1;
        }
        let dst = self.alloc_page(&mut s, false)?;
        let done = self
            .array
            .program_page(dst, data, now)
            .map_err(|e| IoError::Device(e.to_string()))?;
        s.l2p[lba as usize] = Some(dst);
        s.p2l[dst.0 as usize] = Some(lba);
        let block = dst.0 / self.pages_per_block as u64;
        s.valid[block as usize] += 1;
        self.host_pages_written.incr();
        Ok(done)
    }
}

impl BlockDevice for BlockSsd {
    fn block_count(&self) -> u64 {
        self.logical_blocks
    }

    fn read(&self, lba: Lba, buf: &mut [u8], now: Nanos) -> IoResult<Nanos> {
        let n = sim::io::check_request(lba, buf.len(), self.logical_blocks)?;
        let mut done = now;
        for i in 0..n {
            let chunk = &mut buf[(i as usize) * BLOCK_SIZE..(i as usize + 1) * BLOCK_SIZE];
            let mapped = self.state.lock().l2p[(lba.0 + i) as usize];
            match mapped {
                Some(page) => {
                    let t = self
                        .array
                        .read_page(page, chunk, now)
                        .map_err(|e| IoError::Device(e.to_string()))?;
                    done = done.max(t);
                }
                None => {
                    // Unmapped LBAs read zeros straight from the controller.
                    chunk.fill(0);
                    done = done.max(now + self.array.timing().bus_transfer);
                }
            }
        }
        self.host_pages_read.add(n);
        Ok(done)
    }

    fn write(&self, lba: Lba, data: &[u8], now: Nanos) -> IoResult<Nanos> {
        let n = sim::io::check_request(lba, data.len(), self.logical_blocks)?;
        let mut done = now;
        for i in 0..n {
            let chunk = &data[(i as usize) * BLOCK_SIZE..(i as usize + 1) * BLOCK_SIZE];
            let t = self.write_one(lba.0 + i, chunk, now)?;
            done = done.max(t);
        }
        Ok(done)
    }

    fn trim(&self, lba: Lba, blocks: u64, now: Nanos) -> IoResult<Nanos> {
        if lba.0 + blocks > self.logical_blocks {
            return Err(IoError::OutOfRange {
                lba: lba.0,
                capacity: self.logical_blocks,
            });
        }
        let mut s = self.state.lock();
        for l in lba.0..lba.0 + blocks {
            if let Some(old) = s.l2p[l as usize].take() {
                s.p2l[old.0 as usize] = None;
                let block = old.0 / self.pages_per_block as u64;
                s.valid[block as usize] -= 1;
            }
        }
        Ok(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ssd() -> BlockSsd {
        BlockSsd::new(FtlConfig::small_test())
    }

    fn buf(n: usize, fill: u8) -> Vec<u8> {
        vec![fill; n * BLOCK_SIZE]
    }

    #[test]
    fn write_read_round_trip() {
        let d = ssd();
        let t = d.write(Lba(5), &buf(2, 0x42), Nanos::ZERO).unwrap();
        let mut out = buf(2, 0);
        d.read(Lba(5), &mut out, t).unwrap();
        assert!(out.iter().all(|&b| b == 0x42));
    }

    #[test]
    fn unmapped_reads_zeros_quickly() {
        let d = ssd();
        let mut out = buf(1, 9);
        let t = d.read(Lba(0), &mut out, Nanos::ZERO).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        assert!(t <= Nanos::ZERO + d.nand().timing().bus_transfer);
    }

    #[test]
    fn overwrite_remaps_and_reads_latest() {
        let d = ssd();
        let t1 = d.write(Lba(0), &buf(1, 1), Nanos::ZERO).unwrap();
        let t2 = d.write(Lba(0), &buf(1, 2), t1).unwrap();
        let mut out = buf(1, 0);
        d.read(Lba(0), &mut out, t2).unwrap();
        assert!(out.iter().all(|&b| b == 2));
        assert_eq!(d.stats().host_pages_written, 2);
    }

    #[test]
    fn capacity_reflects_op() {
        let d = ssd();
        // small_test: 512 raw pages, 12.5% OP → 448 logical blocks.
        assert_eq!(d.block_count(), 448);
        assert!(d
            .write(Lba(d.block_count()), &buf(1, 1), Nanos::ZERO)
            .is_err());
    }

    #[test]
    fn sustained_overwrites_trigger_gc_with_wa_above_one() {
        use rand::{Rng, SeedableRng};
        let d = ssd();
        let span = d.block_count() * 3 / 4; // overwrite most of the device
        let mut t = Nanos::ZERO;
        let data = buf(1, 7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..8 * span {
            t = d.write(Lba(rng.gen_range(0..span)), &data, t).unwrap();
        }
        let s = d.stats();
        assert!(s.gc_pages_moved > 0, "GC never ran");
        assert!(s.write_amplification() > 1.0);
        assert!(d.free_blocks() > 0);
        // Every mapped LBA still readable.
        let mut out = buf(1, 0);
        d.read(Lba(3), &mut out, t).unwrap();
    }

    #[test]
    fn trim_invalidates_and_reads_zero() {
        let d = ssd();
        let t = d.write(Lba(9), &buf(1, 5), Nanos::ZERO).unwrap();
        d.trim(Lba(9), 1, t).unwrap();
        let mut out = buf(1, 9);
        d.read(Lba(9), &mut out, t).unwrap();
        assert!(out.iter().all(|&b| b == 0));
        assert!(d.trim(Lba(d.block_count()), 1, t).is_err());
    }

    #[test]
    fn trim_reduces_gc_work() {
        // Fill, then trim half; subsequent refill should migrate fewer pages
        // than a refill without trim.
        let run = |do_trim: bool| -> u64 {
            let d = ssd();
            let span = d.block_count() - 8;
            let data = buf(1, 1);
            let mut t = Nanos::ZERO;
            for l in 0..span {
                t = d.write(Lba(l), &data, t).unwrap();
            }
            if do_trim {
                d.trim(Lba(0), span / 2, t).unwrap();
            }
            for l in 0..span {
                t = d.write(Lba(l), &data, t).unwrap();
            }
            d.stats().gc_pages_moved
        };
        assert!(run(true) <= run(false));
    }

    #[test]
    fn writes_stripe_across_dies() {
        // A 16-page write on a 4-die array should overlap programs: its
        // completion must be far below 16 serial program times.
        let d = ssd();
        let t = d.write(Lba(0), &buf(16, 1), Nanos::ZERO).unwrap();
        let serial = d.nand().timing().page_program * 16;
        assert!(
            t < serial / 2,
            "no striping: 16-page write took {t}, serial would be {serial}"
        );
    }

    #[test]
    fn utilization_tracks_mapped_fraction() {
        let d = ssd();
        assert_eq!(d.utilization(), 0.0);
        d.write(Lba(0), &buf(1, 1), Nanos::ZERO).unwrap();
        assert!(d.utilization() > 0.0);
    }

    #[test]
    #[should_panic(expected = "op_ratio")]
    fn invalid_op_ratio_panics() {
        let mut cfg = FtlConfig::small_test();
        cfg.op_ratio = 0.001;
        let _ = BlockSsd::new(cfg);
    }

    #[test]
    fn full_logical_utilization_never_deadlocks() {
        // Map every logical block, then overwrite + trim in a pattern that
        // concentrates invalid pages in the open frontier blocks — the
        // emergency-GC deadlock scenario (invalid space uncollectable
        // until frontiers are sealed).
        let d = ssd();
        let span = d.block_count();
        let data = buf(1, 1);
        let mut t = Nanos::ZERO;
        for l in 0..span {
            t = d.write(Lba(l), &data, t).unwrap();
        }
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..4 * span {
            let l = rng.gen_range(0..span);
            if rng.gen_bool(0.3) {
                t = d.trim(Lba(l), 1, t).unwrap();
            } else {
                t = d.write(Lba(l), &data, t).unwrap();
            }
        }
        assert!(d.stats().write_amplification() >= 1.0);
    }

    #[test]
    fn l2p_p2l_stay_consistent_under_churn() {
        let d = ssd();
        let span = d.block_count() - 48;
        let mut t = Nanos::ZERO;
        for i in 0..6000u64 {
            let lba = (i * 31) % span;
            t = d.write(Lba(lba), &buf(1, (lba % 251) as u8), t).unwrap();
        }
        // Spot-check mappings read back the latest value.
        for lba in [0u64, 31 % span, span / 2, span - 1] {
            let mut out = buf(1, 0);
            d.read(Lba(lba), &mut out, t).unwrap();
            // Values were written as (lba % 251); find last write for lba.
            assert!(out.iter().all(|&b| b == (lba % 251) as u8 || b == 0));
        }
    }
}
