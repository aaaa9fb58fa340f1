//! Main-area management: log heads, zone allocation, validity (SIT) and
//! block ownership (summary) tracking.
//!
//! The main area is the zoned device. Each [`LogType`] owns at most one
//! open zone and appends 4 KiB blocks into it; a zone whose capacity is
//! exhausted is finished and becomes *sealed* until the cleaner resets it.
//! Validity is tracked per block (the SIT role) and the owner of every live
//! block is recorded (the summary role) so the cleaner can relocate blocks
//! and fix the pointers that reference them.

use std::collections::VecDeque;
use std::sync::Arc;

use sim::{Nanos, BLOCK_SIZE};
use zns::{ZnsDevice, ZoneId, ZoneState};

use crate::types::{FsError, Ino, LogType, Mba};

/// Who a main-area block belongs to, recorded at append time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Owner {
    /// Owning file.
    pub ino: Ino,
    /// For data blocks: file block index. For node blocks: node index.
    pub index: u32,
    /// Whether this is a node (pointer) block.
    pub is_node: bool,
}

/// The zoned main area with per-log write heads.
pub struct MainArea {
    dev: Arc<ZnsDevice>,
    blocks_per_zone: u64,
    zones: u32,
    /// Open zone and next in-zone offset per log.
    heads: [Option<(ZoneId, u64)>; 3],
    free: VecDeque<ZoneId>,
    valid: Vec<bool>,
    valid_per_zone: Vec<u32>,
    summary: Vec<Option<Owner>>,
}

impl MainArea {
    /// Takes ownership of a freshly formatted device.
    ///
    /// # Panics
    ///
    /// Panics if the device cannot host the three log heads concurrently
    /// (needs `max_open_zones >= 3`) — a configuration bug.
    pub fn format(dev: Arc<ZnsDevice>) -> Self {
        assert!(
            dev.max_open_zones() >= 3,
            "f2fs-lite needs at least 3 open zones for its logs"
        );
        let zones = dev.num_zones();
        let blocks_per_zone = dev.zone_cap_blocks();
        let total_blocks = (zones as u64 * blocks_per_zone) as usize;
        MainArea {
            dev,
            blocks_per_zone,
            zones,
            heads: [None, None, None],
            free: (0..zones).map(ZoneId).collect(),
            valid: vec![false; total_blocks],
            valid_per_zone: vec![0; zones as usize],
            summary: vec![None; total_blocks],
        }
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<ZnsDevice> {
        &self.dev
    }

    /// Usable blocks per zone.
    pub fn blocks_per_zone(&self) -> u64 {
        self.blocks_per_zone
    }

    /// Total zones.
    pub fn zones(&self) -> u32 {
        self.zones
    }

    /// Zones ready for allocation.
    pub fn free_zones(&self) -> u32 {
        self.free.len() as u32
    }

    /// Total valid (live) blocks.
    pub fn total_valid(&self) -> u64 {
        self.valid_per_zone.iter().map(|&v| v as u64).sum()
    }

    fn log_slot(log: LogType) -> usize {
        match log {
            LogType::HotData => 0,
            LogType::ColdData => 1,
            LogType::Node => 2,
        }
    }

    /// The zones currently serving as log heads.
    pub fn head_zones(&self) -> Vec<ZoneId> {
        self.heads.iter().flatten().map(|&(z, _)| z).collect()
    }

    fn mba(&self, zone: ZoneId, off: u64) -> Mba {
        Mba((zone.0 as u64 * self.blocks_per_zone + off) as u32)
    }

    /// The zone containing a block.
    pub fn zone_of(&self, mba: Mba) -> ZoneId {
        ZoneId((mba.0 as u64 / self.blocks_per_zone) as u32)
    }

    fn in_zone_offset(&self, mba: Mba) -> u64 {
        mba.0 as u64 % self.blocks_per_zone
    }

    /// Reserves the next block of `log`, marking it valid and owned
    /// *before* the device write happens.
    ///
    /// This is the allocation half of an out-of-lock append: the caller
    /// holds the per-log append lock, reserves under the filesystem lock,
    /// then performs the device write with the filesystem lock released
    /// (the log lock keeps the zone's write pointer in reserve order).
    /// Marking the block valid eagerly means the cleaner can never reset
    /// a zone that still has a reservation in flight: the zone only
    /// becomes a victim candidate once Full, and by then the write that
    /// filled it has completed. The block's *publish* into the file table
    /// may still be pending at that point; the cleaner waits those out
    /// before it resets (`FileSystem::clean_one`).
    ///
    /// On device-write failure the caller must roll back with
    /// [`MainArea::unreserve`].
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] when no zone is free for a new head — the
    /// caller must clean first.
    pub fn reserve(&mut self, log: LogType, owner: Owner) -> Result<(ZoneId, u64, Mba), FsError> {
        let slot = Self::log_slot(log);
        if self.heads[slot].is_none() {
            let zone = self.next_free_zone()?;
            self.heads[slot] = Some((zone, 0));
        }
        let (zone, off) = self.heads[slot].expect("head just ensured");
        let mba = self.mba(zone, off);
        self.valid[mba.0 as usize] = true;
        self.valid_per_zone[zone.0 as usize] += 1;
        self.summary[mba.0 as usize] = Some(owner);
        let next = off + 1;
        if next == self.blocks_per_zone {
            // Zone exhausted: the write that lands at `off` seals it.
            self.heads[slot] = None;
        } else {
            self.heads[slot] = Some((zone, next));
        }
        Ok((zone, off, mba))
    }

    /// Pops the next usable zone from the free pool. A pooled zone can
    /// degrade to read-only/offline while parked; such zones are silently
    /// dropped — the pool shrinks with the media.
    fn next_free_zone(&mut self) -> Result<ZoneId, FsError> {
        while let Some(zone) = self.free.pop_front() {
            let state = self.dev.zone_state(zone)?;
            if matches!(state, ZoneState::ReadOnly | ZoneState::Offline) {
                continue;
            }
            debug_assert_eq!(state, ZoneState::Empty, "non-empty zone {zone} in free pool");
            return Ok(zone);
        }
        Err(FsError::NoSpace)
    }

    /// Drops `log`'s head after its zone degraded mid-append. The zone is
    /// *not* returned to the free pool: a read-only zone keeps serving its
    /// already-written blocks until the cleaner salvages them, an offline
    /// zone is simply lost. No-op if the head has already moved on.
    pub fn retire_head(&mut self, log: LogType, zone: ZoneId) {
        let slot = Self::log_slot(log);
        if self.heads[slot].is_some_and(|(z, _)| z == zone) {
            self.heads[slot] = None;
        }
    }

    /// Rolls back a [`MainArea::reserve`] whose device write failed.
    ///
    /// Only valid while the caller still holds the per-log append lock:
    /// the head is restored to point back at the reserved offset.
    pub fn unreserve(&mut self, log: LogType, zone: ZoneId, off: u64) {
        let mba = self.mba(zone, off);
        debug_assert!(self.valid[mba.0 as usize], "unreserve of unreserved {mba:?}");
        self.valid[mba.0 as usize] = false;
        self.summary[mba.0 as usize] = None;
        self.valid_per_zone[zone.0 as usize] -= 1;
        self.heads[Self::log_slot(log)] = Some((zone, off));
    }

    /// Returns a zone to the free pool after the caller reset it on the
    /// device *outside* the filesystem lock.
    ///
    /// # Panics
    ///
    /// Panics if the zone still holds valid blocks.
    pub fn release_reset_zone(&mut self, zone: ZoneId) {
        assert_eq!(
            self.valid_per_zone[zone.0 as usize], 0,
            "releasing {zone} with live blocks"
        );
        self.free.push_back(zone);
    }

    /// Appends one 4 KiB block to `log`, recording its owner.
    ///
    /// Returns the block's address and the completion time.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] when no zone is free for a new head — the
    /// caller must clean first.
    pub fn append(
        &mut self,
        log: LogType,
        data: &[u8],
        owner: Owner,
        now: Nanos,
    ) -> Result<(Mba, Nanos), FsError> {
        debug_assert_eq!(data.len(), BLOCK_SIZE);
        let slot = Self::log_slot(log);
        // Ensure the log has an open zone with room.
        if self.heads[slot].is_none() {
            let zone = self.next_free_zone()?;
            self.heads[slot] = Some((zone, 0));
        }
        let (zone, off) = self.heads[slot].expect("head just ensured");
        let done = self.dev.write(zone, data, now)?;
        let mba = self.mba(zone, off);
        self.valid[mba.0 as usize] = true;
        self.valid_per_zone[zone.0 as usize] += 1;
        self.summary[mba.0 as usize] = Some(owner);

        let next = off + 1;
        if next == self.blocks_per_zone {
            // Zone exhausted: seal it. The device marked it Full already
            // when the write hit capacity.
            self.heads[slot] = None;
        } else {
            self.heads[slot] = Some((zone, next));
        }
        Ok((mba, done))
    }

    /// Reads one 4 KiB block.
    ///
    /// # Errors
    ///
    /// [`FsError::Device`] for reads of never-written space, which would be
    /// a pointer-table bug.
    pub fn read(&self, mba: Mba, buf: &mut [u8], now: Nanos) -> Result<Nanos, FsError> {
        debug_assert_eq!(buf.len(), BLOCK_SIZE);
        let zone = self.zone_of(mba);
        let off = self.in_zone_offset(mba);
        Ok(self.dev.read(zone, off, buf, now)?)
    }

    /// Marks a block dead. Idempotence is a bug: each block must be
    /// invalidated exactly once.
    pub fn invalidate(&mut self, mba: Mba) {
        debug_assert!(self.valid[mba.0 as usize], "double invalidate of {mba:?}");
        self.valid[mba.0 as usize] = false;
        self.summary[mba.0 as usize] = None;
        let zone = self.zone_of(mba);
        self.valid_per_zone[zone.0 as usize] -= 1;
    }

    /// Whether a block is live.
    pub fn is_valid(&self, mba: Mba) -> bool {
        self.valid[mba.0 as usize]
    }

    /// Picks the sealed zone with the fewest valid blocks (greedy policy).
    ///
    /// Head zones and free zones are never candidates. Read-only zones
    /// that still hold live blocks take priority over any sealed zone:
    /// their media is dying and the cleaner should salvage them before
    /// they go offline entirely. Offline zones are never candidates
    /// (their blocks cannot be read back). Returns `None` when nothing
    /// is cleanable.
    pub fn pick_victim(&self) -> Option<ZoneId> {
        let heads: Vec<ZoneId> = self.head_zones();
        let mut best: Option<(u32, ZoneId)> = None;
        for z in 0..self.zones {
            let zone = ZoneId(z);
            if heads.contains(&zone) {
                continue;
            }
            // Sealed = Full state (written to cap or finished).
            match self.dev.zone_state(zone) {
                Ok(ZoneState::Full) => {}
                // A degraded-but-readable zone with live data is the most
                // urgent victim there is.
                Ok(ZoneState::ReadOnly) if self.valid_per_zone[z as usize] > 0 => {
                    return Some(zone);
                }
                _ => continue,
            }
            let v = self.valid_per_zone[z as usize];
            if best.is_none_or(|(bv, _)| v < bv) {
                best = Some((v, zone));
                if v == 0 {
                    break;
                }
            }
        }
        best.map(|(_, z)| z)
    }

    /// Live blocks of a zone with their owners, for migration.
    pub fn live_blocks(&self, zone: ZoneId) -> Vec<(Mba, Owner)> {
        let start = zone.0 as u64 * self.blocks_per_zone;
        (start..start + self.blocks_per_zone)
            .filter_map(|b| {
                let mba = Mba(b as u32);
                if self.valid[b as usize] {
                    Some((mba, self.summary[b as usize].expect("valid block has owner")))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Resets a fully-dead zone and returns it to the free pool.
    ///
    /// # Panics
    ///
    /// Panics if the zone still holds valid blocks — the cleaner must
    /// migrate them first.
    pub fn reset_zone(&mut self, zone: ZoneId, now: Nanos) -> Result<Nanos, FsError> {
        assert_eq!(
            self.valid_per_zone[zone.0 as usize], 0,
            "resetting {zone} with live blocks"
        );
        let done = self.dev.reset(zone, now)?;
        self.free.push_back(zone);
        Ok(done)
    }

    /// Valid-block count of one zone.
    pub fn zone_valid(&self, zone: ZoneId) -> u32 {
        self.valid_per_zone[zone.0 as usize]
    }

    /// Serializes allocator state for checkpointing (excluding device
    /// state, which lives in the device itself).
    pub(crate) fn snapshot(&self) -> MainAreaSnapshot {
        MainAreaSnapshot {
            heads: self.heads,
            free: self.free.iter().copied().collect(),
            valid: self.valid.clone(),
            valid_per_zone: self.valid_per_zone.clone(),
            summary: self.summary.clone(),
        }
    }

    /// Restores allocator state from a checkpoint.
    pub(crate) fn restore(dev: Arc<ZnsDevice>, snap: MainAreaSnapshot) -> Self {
        let zones = dev.num_zones();
        let blocks_per_zone = dev.zone_cap_blocks();
        MainArea {
            dev,
            blocks_per_zone,
            zones,
            heads: snap.heads,
            free: snap.free.into(),
            valid: snap.valid,
            valid_per_zone: snap.valid_per_zone,
            summary: snap.summary,
        }
    }
}

/// Serializable allocator state (internal to checkpointing).
pub(crate) struct MainAreaSnapshot {
    pub heads: [Option<(ZoneId, u64)>; 3],
    pub free: Vec<ZoneId>,
    pub valid: Vec<bool>,
    pub valid_per_zone: Vec<u32>,
    pub summary: Vec<Option<Owner>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use zns::ZnsConfig;

    fn area() -> MainArea {
        MainArea::format(Arc::new(ZnsDevice::new(ZnsConfig::small_test())))
    }

    fn owner(i: u32) -> Owner {
        Owner {
            ino: Ino(1),
            index: i,
            is_node: false,
        }
    }

    fn block(fill: u8) -> Vec<u8> {
        vec![fill; BLOCK_SIZE]
    }

    #[test]
    fn append_assigns_sequential_mbas_per_log() {
        let mut a = area();
        let (m1, t) = a
            .append(LogType::HotData, &block(1), owner(0), Nanos::ZERO)
            .unwrap();
        let (m2, _) = a.append(LogType::HotData, &block(2), owner(1), t).unwrap();
        assert_eq!(m2.0, m1.0 + 1);
        assert!(a.is_valid(m1) && a.is_valid(m2));
        assert_eq!(a.total_valid(), 2);
    }

    #[test]
    fn logs_use_distinct_zones() {
        let mut a = area();
        let (m1, _) = a
            .append(LogType::HotData, &block(1), owner(0), Nanos::ZERO)
            .unwrap();
        let (m2, _) = a
            .append(LogType::Node, &block(2), owner(0), Nanos::ZERO)
            .unwrap();
        assert_ne!(a.zone_of(m1), a.zone_of(m2));
        assert_eq!(a.head_zones().len(), 2);
    }

    #[test]
    fn read_back_appended_block() {
        let mut a = area();
        let (mba, t) = a
            .append(LogType::ColdData, &block(0x3c), owner(5), Nanos::ZERO)
            .unwrap();
        let mut out = block(0);
        a.read(mba, &mut out, t).unwrap();
        assert!(out.iter().all(|&b| b == 0x3c));
    }

    #[test]
    fn full_zone_seals_and_head_moves_on() {
        let mut a = area();
        let bpz = a.blocks_per_zone();
        let mut t = Nanos::ZERO;
        let mut last = None;
        for i in 0..=bpz {
            let (m, t2) = a
                .append(LogType::HotData, &block(1), owner(i as u32), t)
                .unwrap();
            t = t2;
            if i == bpz {
                // First block of a new zone.
                assert_ne!(a.zone_of(m), a.zone_of(last.unwrap()));
            }
            last = Some(m);
        }
    }

    #[test]
    fn victim_selection_prefers_least_valid_sealed_zone() {
        let mut a = area();
        let bpz = a.blocks_per_zone();
        let mut t = Nanos::ZERO;
        let mut first_zone_blocks = Vec::new();
        // Fill two zones via the hot log.
        for i in 0..2 * bpz {
            let (m, t2) = a
                .append(LogType::HotData, &block(1), owner(i as u32), t)
                .unwrap();
            t = t2;
            if i < bpz {
                first_zone_blocks.push(m);
            }
        }
        // Kill most of zone A.
        for &m in first_zone_blocks.iter().take(bpz as usize - 1) {
            a.invalidate(m);
        }
        let victim = a.pick_victim().expect("two sealed zones exist");
        assert_eq!(victim, a.zone_of(first_zone_blocks[0]));
        assert_eq!(a.zone_valid(victim), 1);
        assert_eq!(a.live_blocks(victim).len(), 1);
    }

    #[test]
    fn reset_returns_zone_to_free_pool() {
        let mut a = area();
        let bpz = a.blocks_per_zone();
        let before = a.free_zones();
        let mut t = Nanos::ZERO;
        let mut blocks = Vec::new();
        for i in 0..bpz {
            let (m, t2) = a.append(LogType::HotData, &block(1), owner(i as u32), t).unwrap();
            blocks.push(m);
            t = t2;
        }
        assert_eq!(a.free_zones(), before - 1);
        for m in blocks {
            a.invalidate(m);
        }
        let zone = a.pick_victim().unwrap();
        a.reset_zone(zone, t).unwrap();
        assert_eq!(a.free_zones(), before);
    }

    #[test]
    #[should_panic(expected = "live blocks")]
    fn reset_with_live_blocks_panics() {
        let mut a = area();
        let bpz = a.blocks_per_zone();
        let mut t = Nanos::ZERO;
        for i in 0..bpz {
            t = a.append(LogType::HotData, &block(1), owner(i as u32), t).unwrap().1;
        }
        let zone = a.pick_victim().unwrap();
        let _ = a.reset_zone(zone, t);
    }

    #[test]
    fn reserve_then_unreserve_restores_the_head() {
        let mut a = area();
        let (z1, o1, m1) = a.reserve(LogType::HotData, owner(0)).unwrap();
        assert!(a.is_valid(m1), "reserved blocks count as valid immediately");
        assert_eq!(a.zone_valid(z1), 1);
        a.unreserve(LogType::HotData, z1, o1);
        assert!(!a.is_valid(m1));
        assert_eq!(a.zone_valid(z1), 0);
        // The next reservation reuses the rolled-back slot.
        let (z2, o2, m2) = a.reserve(LogType::HotData, owner(0)).unwrap();
        assert_eq!((z2, o2, m2), (z1, o1, m1));
    }

    #[test]
    fn reserving_the_last_block_seals_the_head() {
        let mut a = area();
        let bpz = a.blocks_per_zone();
        let mut t = Nanos::ZERO;
        for i in 0..bpz - 1 {
            t = a.append(LogType::HotData, &block(1), owner(i as u32), t).unwrap().1;
        }
        let heads_before = a.head_zones();
        let (zone, off, _) = a.reserve(LogType::HotData, owner(99)).unwrap();
        assert_eq!(off, bpz - 1);
        assert!(a.head_zones().is_empty(), "sealing reservation drops the head");
        // Rolling back the sealing reservation restores the head.
        a.unreserve(LogType::HotData, zone, off);
        assert_eq!(a.head_zones(), heads_before);
    }

    #[test]
    fn release_reset_zone_requires_external_reset() {
        let mut a = area();
        let bpz = a.blocks_per_zone();
        let before = a.free_zones();
        let mut t = Nanos::ZERO;
        let mut blocks = Vec::new();
        for i in 0..bpz {
            let (m, t2) = a.append(LogType::HotData, &block(1), owner(i as u32), t).unwrap();
            blocks.push(m);
            t = t2;
        }
        for m in blocks {
            a.invalidate(m);
        }
        let zone = a.pick_victim().unwrap();
        // Device reset performed by the caller, outside the fs lock.
        a.device().clone().reset(zone, t).unwrap();
        a.release_reset_zone(zone);
        assert_eq!(a.free_zones(), before);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut a = area();
        let (m, _) = a
            .append(LogType::HotData, &block(1), owner(9), Nanos::ZERO)
            .unwrap();
        let dev = a.device().clone();
        let snap = a.snapshot();
        let b = MainArea::restore(dev, snap);
        assert!(b.is_valid(m));
        assert_eq!(b.total_valid(), 1);
        assert_eq!(b.head_zones(), a.head_zones());
    }
}
