//! The filesystem proper: files, pointer trees, cleaning, checkpoints.
//!
//! # Locking
//!
//! Device I/O is never performed while the filesystem's table lock
//! (`inner`) is held. Every main-area write goes through
//! [`FileSystem::append_block`]: a per-log append lock serializes the
//! zone's write pointer, a brief `inner` acquisition reserves the block
//! (marking it valid so the cleaner cannot reset the zone underneath
//! it), and the device write happens with `inner` released. The caller
//! then publishes the address into the file table under `inner`; until
//! it has, no file points at the block, so the cleaner can neither move
//! it nor reset its zone and waits the publish out (`clean_one`). Reads
//! translate under `inner`, read unlocked, then revalidate the pointer
//! — block addresses are write-once until their zone is reset, and only
//! the (serialized) cleaner resets zones, so an unchanged pointer
//! proves the unlocked read saw current data.
//!
//! Lock order: `cleaner` → `node_flush` → `log_locks[*]` → `inner`.
//! Each path takes a prefix of that chain; none takes them out of
//! order, so the hierarchy is deadlock-free.

use core::fmt;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use bytes::BufMut;
use nand::Payload;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use sim::trace::{self, EventKind};
use sim::{Nanos, RamDisk, BLOCK_SIZE};
use zns::{ZnsConfig, ZnsDevice, ZnsError, ZoneId, ZoneState};

use crate::alloc::{MainArea, Owner};
use crate::checkpoint::{self, CheckpointData, FileRecord};
use crate::types::{FsError, Ino, LogType, Mba};

/// Configuration for [`FileSystem::format`].
#[derive(Clone, Debug)]
pub struct FsConfig {
    /// The zoned main device.
    pub zns: ZnsConfig,
    /// Size of the conventional metadata device in 4 KiB blocks.
    pub meta_blocks: u64,
    /// Zones reserved for cleaning, invisible to user capacity — F2FS's
    /// over-provisioning (the paper cites ~20% for File-Cache).
    pub reserved_zones: u32,
    /// Foreground cleaning starts when free zones drop below this.
    pub min_free_zones: u32,
    /// Data pointers per node block (1024 fills a 4 KiB block; tests use
    /// small values to exercise multi-node files).
    pub node_fanout: u32,
    /// Dirty node blocks are flushed once this many accumulate.
    pub dirty_node_flush_threshold: u32,
    /// Automatic checkpoint every N data-block writes (0 = manual only).
    pub checkpoint_interval_blocks: u64,
}

impl FsConfig {
    /// Tiny filesystem for unit tests: 16 zones × 32 blocks, 3 reserved.
    pub fn small_test() -> Self {
        FsConfig {
            zns: ZnsConfig::small_test(),
            meta_blocks: 512,
            reserved_zones: 3,
            min_free_zones: 3,
            node_fanout: 8,
            dirty_node_flush_threshold: 4,
            checkpoint_interval_blocks: 0,
        }
    }
}

/// Point-in-time filesystem statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FsStatsSnapshot {
    /// Data blocks written on behalf of the user.
    pub data_blocks_written: u64,
    /// Node (pointer) blocks written.
    pub node_blocks_written: u64,
    /// Data blocks migrated by the cleaner.
    pub gc_data_moved: u64,
    /// Node blocks migrated by the cleaner.
    pub gc_node_moved: u64,
    /// Zones cleaned (migrate + reset cycles).
    pub zones_cleaned: u64,
    /// Zones permanently retired after degrading to read-only/offline:
    /// salvaged (if readable) and removed from circulation, never reset.
    pub zones_retired: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
}

impl FsStatsSnapshot {
    /// Filesystem-level write amplification: all main-area writes divided
    /// by user data writes. ≥ 1; grows with node churn and cleaning.
    pub fn write_amplification(&self) -> f64 {
        if self.data_blocks_written == 0 {
            return 1.0;
        }
        let total = self.data_blocks_written
            + self.node_blocks_written
            + self.gc_data_moved
            + self.gc_node_moved;
        total as f64 / self.data_blocks_written as f64
    }
}

#[derive(Clone, Debug)]
struct NodeSlot {
    addr: Option<Mba>,
    dirty: bool,
}

struct File {
    name: String,
    size: u64,
    ptrs: Vec<Option<Mba>>,
    nodes: Vec<NodeSlot>,
}

struct Inner {
    main: MainArea,
    files: HashMap<u32, File>,
    names: HashMap<String, u32>,
    next_ino: u32,
    dirty_nodes: BTreeSet<(u32, u32)>,
    data_since_ckpt: u64,
    /// Live user-data blocks (node blocks are carried by the reserve).
    live_data_blocks: u64,
    stats: FsStatsSnapshot,
}

/// A mounted `f2fs-lite` filesystem.
///
/// Internally locked; all methods take `&self`. See the
/// [crate docs](crate) for an example and the [module docs](self) for
/// the locking discipline.
pub struct FileSystem {
    meta: Arc<RamDisk>,
    /// The main device, reachable without taking `inner` so reads and
    /// the device half of appends run lock-free.
    dev: Arc<ZnsDevice>,
    blocks_per_zone: u64,
    node_fanout: u32,
    reserved_zones: u32,
    min_free_zones: u32,
    dirty_flush_threshold: u32,
    checkpoint_interval: u64,
    /// One append lock per log (hot data / cold data / node): holds the
    /// zone write pointer in reservation order across the unlocked
    /// device write.
    log_locks: [Mutex<()>; 3],
    /// Serializes node-block flushes so a claim (take old address) and
    /// its publish (install new address) are atomic against each other.
    node_flush: Mutex<()>,
    /// At most one cleaning pass at a time; foreground writers that hit
    /// the free floor while a pass runs just wait for it.
    cleaner: Mutex<()>,
    inner: Mutex<Inner>,
}

fn log_slot(log: LogType) -> usize {
    match log {
        LogType::HotData => 0,
        LogType::ColdData => 1,
        LogType::Node => 2,
    }
}

impl fmt::Debug for FileSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FileSystem")
            .field("stats", &self.stats())
            .finish()
    }
}

impl FileSystem {
    /// Formats fresh devices and mounts the filesystem.
    ///
    /// # Panics
    ///
    /// Panics on impossible configurations (reserve exceeding the device,
    /// fanout that cannot fit a node block) — startup bugs.
    pub fn format(config: FsConfig) -> Self {
        let dev = Arc::new(ZnsDevice::new(config.zns.clone()));
        let meta = Arc::new(RamDisk::new(config.meta_blocks));
        Self::format_on(dev, meta, &config)
    }

    /// Formats onto pre-built devices (shared with test harnesses).
    ///
    /// # Panics
    ///
    /// As [`FileSystem::format`].
    pub fn format_on(dev: Arc<ZnsDevice>, meta: Arc<RamDisk>, config: &FsConfig) -> Self {
        assert!(
            (config.reserved_zones as u64) < dev.num_zones() as u64,
            "reserved zones exceed the device"
        );
        assert!(
            config.node_fanout >= 1 && (config.node_fanout as usize) * 4 <= BLOCK_SIZE,
            "node fanout {} cannot fit one block",
            config.node_fanout
        );
        assert!(config.min_free_zones >= 2, "cleaning needs min_free_zones >= 2");
        checkpoint::write_fresh_superblock(&meta, Nanos::ZERO)
            .expect("fresh metadata device must accept a superblock");
        let blocks_per_zone = dev.zone_cap_blocks();
        let main = MainArea::format(Arc::clone(&dev));
        FileSystem {
            meta,
            dev,
            blocks_per_zone,
            node_fanout: config.node_fanout,
            reserved_zones: config.reserved_zones,
            min_free_zones: config.min_free_zones,
            dirty_flush_threshold: config.dirty_node_flush_threshold.max(1),
            checkpoint_interval: config.checkpoint_interval_blocks,
            log_locks: [Mutex::new(()), Mutex::new(()), Mutex::new(())],
            node_flush: Mutex::new(()),
            cleaner: Mutex::new(()),
            inner: Mutex::new(Inner {
                main,
                files: HashMap::new(),
                names: HashMap::new(),
                next_ino: 1,
                dirty_nodes: BTreeSet::new(),
                data_since_ckpt: 0,
                live_data_blocks: 0,
                stats: FsStatsSnapshot::default(),
            }),
        }
    }

    /// Mounts an existing filesystem from its devices, recovering state
    /// from the newest checkpoint.
    ///
    /// Data written after the last checkpoint is not recovered (f2fs-lite
    /// has no roll-forward log; durability is checkpoint-granular).
    ///
    /// # Errors
    ///
    /// [`FsError::BadSuperblock`] when the metadata device holds no valid
    /// filesystem or no checkpoint.
    pub fn mount(
        dev: Arc<ZnsDevice>,
        meta: Arc<RamDisk>,
        config: &FsConfig,
        now: Nanos,
    ) -> Result<(Self, Nanos), FsError> {
        let (payload, t) = checkpoint::read_checkpoint(&meta, now)?
            .ok_or_else(|| FsError::BadSuperblock("no checkpoint present".into()))?;
        let data = checkpoint::decode(&payload)?;
        let mut files = HashMap::new();
        let mut names = HashMap::new();
        for record in data.files {
            names.insert(record.name.clone(), record.ino.0);
            files.insert(
                record.ino.0,
                File {
                    name: record.name,
                    size: record.size,
                    ptrs: record.ptrs,
                    nodes: record
                        .nodes
                        .into_iter()
                        .map(|addr| NodeSlot { addr, dirty: false })
                        .collect(),
                },
            );
        }
        let live_data_blocks: u64 = files
            .values()
            .map(|f: &File| f.ptrs.iter().flatten().count() as u64)
            .sum();
        let blocks_per_zone = dev.zone_cap_blocks();
        let main = MainArea::restore(Arc::clone(&dev), data.main);
        let fs = FileSystem {
            meta,
            dev,
            blocks_per_zone,
            node_fanout: config.node_fanout,
            reserved_zones: config.reserved_zones,
            min_free_zones: config.min_free_zones,
            dirty_flush_threshold: config.dirty_node_flush_threshold.max(1),
            checkpoint_interval: config.checkpoint_interval_blocks,
            log_locks: [Mutex::new(()), Mutex::new(()), Mutex::new(())],
            node_flush: Mutex::new(()),
            cleaner: Mutex::new(()),
            inner: Mutex::new(Inner {
                main,
                files,
                names,
                next_ino: data.next_ino,
                dirty_nodes: BTreeSet::new(),
                data_since_ckpt: 0,
                live_data_blocks,
                stats: FsStatsSnapshot::default(),
            }),
        };
        Ok((fs, t))
    }

    /// User-visible capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        let zones = inner.main.zones() as u64;
        let usable = zones.saturating_sub(self.reserved_zones as u64);
        usable * inner.main.blocks_per_zone() * BLOCK_SIZE as u64
    }

    /// Filesystem statistics.
    pub fn stats(&self) -> FsStatsSnapshot {
        self.inner.lock().stats
    }

    /// The zoned main device (for device-level WA accounting).
    pub fn device(&self) -> Arc<ZnsDevice> {
        Arc::clone(&self.dev)
    }

    /// Creates an empty file.
    ///
    /// # Errors
    ///
    /// [`FsError::Exists`] for duplicate names.
    pub fn create(&self, name: &str, _now: Nanos) -> Result<Ino, FsError> {
        let mut inner = self.inner.lock();
        if inner.names.contains_key(name) {
            return Err(FsError::Exists { name: name.into() });
        }
        let ino = inner.next_ino;
        inner.next_ino += 1;
        inner.names.insert(name.to_string(), ino);
        inner.files.insert(
            ino,
            File {
                name: name.to_string(),
                size: 0,
                ptrs: Vec::new(),
                nodes: Vec::new(),
            },
        );
        Ok(Ino(ino))
    }

    /// Looks up a file by name.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`].
    pub fn open(&self, name: &str) -> Result<Ino, FsError> {
        self.inner
            .lock()
            .names
            .get(name)
            .map(|&i| Ino(i))
            .ok_or_else(|| FsError::NotFound { what: name.into() })
    }

    /// File size in bytes.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`].
    pub fn size(&self, ino: Ino) -> Result<u64, FsError> {
        let inner = self.inner.lock();
        inner
            .files
            .get(&ino.0)
            .map(|f| f.size)
            .ok_or_else(|| FsError::NotFound {
                what: ino.to_string(),
            })
    }

    /// Removes a file, invalidating all its blocks.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`].
    pub fn remove(&self, name: &str, _now: Nanos) -> Result<(), FsError> {
        let mut inner = self.inner.lock();
        let ino = inner
            .names
            .remove(name)
            .ok_or_else(|| FsError::NotFound { what: name.into() })?;
        let file = inner.files.remove(&ino).expect("name table had the ino");
        for mba in file.ptrs.into_iter().flatten() {
            inner.main.invalidate(mba);
            inner.live_data_blocks -= 1;
        }
        for node in file.nodes {
            if let Some(mba) = node.addr {
                inner.main.invalidate(mba);
            }
        }
        inner.dirty_nodes.retain(|&(i, _)| i != ino);
        Ok(())
    }

    fn user_block_limit(&self, inner: &Inner) -> u64 {
        let usable = inner.main.zones() as u64 - self.reserved_zones as u64;
        usable * inner.main.blocks_per_zone()
    }

    /// Serializes one node block's pointer window into a 4 KiB buffer.
    fn node_payload(&self, file: &File, node_idx: u32) -> Vec<u8> {
        let mut buf = Vec::with_capacity(BLOCK_SIZE);
        let start = (node_idx as usize) * self.node_fanout as usize;
        for i in start..start + self.node_fanout as usize {
            let v = file
                .ptrs
                .get(i)
                .copied()
                .flatten()
                .map_or(u32::MAX, |m| m.0);
            buf.put_u32_le(v);
        }
        buf.resize(BLOCK_SIZE, 0);
        buf
    }

    /// Appends one block to `log` with the table lock released across
    /// the device write (see the [module docs](self)). The block is bytes
    /// to copy, or a page read by reference (a migration), which the
    /// device stores without copying.
    fn append_block(
        &self,
        log: LogType,
        data: Payload<'_>,
        owner: Owner,
        now: Nanos,
    ) -> Result<(Mba, Nanos), FsError> {
        let _log = self.log_locks[log_slot(log)].lock();
        loop {
            let (zone, off, mba) = {
                let mut inner = self.inner.lock();
                inner.main.reserve(log, owner)?
            };
            // lock-ok: the per-head log lock exists precisely to serialize
            // device appends on this head — reservations hand out
            // sequential offsets, and a second writer slipping in between
            // reserve and write would tear the zone's write pointer.
            match self.dev_write(zone, data, now) {
                Ok(done) => return Ok((mba, done)),
                Err(ZnsError::ZoneDegraded { .. }) => {
                    // The head zone died under the append. Roll back the
                    // reservation, retire the head (its already-written
                    // blocks stay readable if the zone is merely
                    // read-only; the cleaner salvages them), and retry
                    // the same payload on a fresh zone — a migration
                    // reuses its page, it does not read the source again.
                    // Terminates: each pass retires one zone, and an empty
                    // free pool surfaces NoSpace from the reserve above.
                    let mut inner = self.inner.lock();
                    inner.main.unreserve(log, zone, off);
                    inner.main.retire_head(log, zone);
                    inner.stats.zones_retired += 1;
                }
                Err(e) => {
                    self.inner.lock().main.unreserve(log, zone, off);
                    return Err(e.into());
                }
            }
        }
    }

    /// The zone and in-zone offset of a main-area block.
    fn locate(&self, mba: Mba) -> (ZoneId, u64) {
        let zone = ZoneId((mba.0 as u64 / self.blocks_per_zone) as u32);
        (zone, mba.0 as u64 % self.blocks_per_zone)
    }

    /// Writes one block at `zone`'s write pointer, by copy or by reference.
    fn dev_write(&self, zone: ZoneId, data: Payload<'_>, now: Nanos) -> Result<Nanos, ZnsError> {
        match data {
            Payload::Bytes(bytes) => self.dev.write(zone, bytes, now),
            Payload::Page(page) => self.dev.write_shared(zone, page, now),
        }
    }

    /// Reads one main-area block without any filesystem lock. Safe for
    /// callers that revalidate the pointer afterwards (content at an
    /// address is immutable until its zone resets).
    fn dev_read_block(&self, mba: Mba, buf: &mut [u8], now: Nanos) -> Result<Nanos, FsError> {
        let (zone, off) = self.locate(mba);
        Ok(self.dev.read(zone, off, buf, now)?)
    }

    /// Writes out one dirty node block; returns its completion time.
    fn flush_node(&self, ino: u32, node_idx: u32, now: Nanos) -> Result<Nanos, FsError> {
        let _nf = self.node_flush.lock();
        // Claim: drop the dirty mark and the old address under the lock.
        let payload = {
            let mut inner = self.inner.lock();
            inner.dirty_nodes.remove(&(ino, node_idx));
            let Inner { files, main, .. } = &mut *inner;
            let Some(file) = files.get_mut(&ino) else {
                return Ok(now); // removed while queued
            };
            let Some(slot) = file.nodes.get_mut(node_idx as usize) else {
                return Ok(now);
            };
            if !slot.dirty {
                return Ok(now); // a racing flush already handled it
            }
            slot.dirty = false;
            if let Some(old_mba) = slot.addr.take() {
                main.invalidate(old_mba);
            }
            self.node_payload(files.get(&ino).expect("still present"), node_idx)
        };
        let owner = Owner { ino: Ino(ino), index: node_idx, is_node: true };
        // lock-ok: `node_flush` is held across the append on purpose — it
        // is what makes flush-vs-flush races impossible for a node block.
        let (mba, done) =
            self.append_block(LogType::Node, Payload::Bytes(&payload), owner, now)?;
        // Publish. The file can only have vanished (remove) meanwhile —
        // node_flush excludes competing flushes — so an absent file
        // means the new block is already garbage.
        let mut inner = self.inner.lock();
        inner.stats.node_blocks_written += 1;
        let Inner { files, main, .. } = &mut *inner;
        match files.get_mut(&ino) {
            Some(file) if (node_idx as usize) < file.nodes.len() => {
                file.nodes[node_idx as usize].addr = Some(mba);
            }
            _ => main.invalidate(mba),
        }
        Ok(done)
    }

    /// Flushes every dirty node block.
    fn flush_all_nodes(&self, now: Nanos) -> Result<Nanos, FsError> {
        let dirty: Vec<(u32, u32)> = {
            let mut inner = self.inner.lock();
            let d = inner.dirty_nodes.iter().copied().collect();
            inner.dirty_nodes.clear();
            d
        };
        let mut done = now;
        for (ino, node_idx) in dirty {
            done = done.max(self.flush_node(ino, node_idx, now)?);
        }
        Ok(done)
    }

    /// Migrates one live node block of a victim zone.
    fn migrate_node(&self, mba: Mba, owner: Owner, now: Nanos) -> Result<Nanos, FsError> {
        let _nf = self.node_flush.lock();
        let payload = {
            let inner = self.inner.lock();
            let Some(file) = inner.files.get(&owner.ino.0) else {
                return Ok(now); // file removed; block already dead
            };
            match file.nodes.get(owner.index as usize) {
                Some(slot) if slot.addr == Some(mba) => self.node_payload(file, owner.index),
                _ => return Ok(now), // superseded by a flush meanwhile
            }
        };
        // lock-ok: same `node_flush` exclusion as `flush_node` — the
        // migration is a flush and must not race one.
        let (new_mba, done) =
            self.append_block(LogType::Node, Payload::Bytes(&payload), owner, now)?;
        let mut inner = self.inner.lock();
        let Inner { files, main, stats, .. } = &mut *inner;
        let current = files
            .get_mut(&owner.ino.0)
            .and_then(|f| f.nodes.get_mut(owner.index as usize))
            .filter(|slot| slot.addr == Some(mba));
        match current {
            Some(slot) => {
                slot.addr = Some(new_mba);
                main.invalidate(mba);
                stats.gc_node_moved += 1;
            }
            // Removed while we wrote the copy: drop the copy instead.
            None => main.invalidate(new_mba),
        }
        Ok(done)
    }

    /// Migrates one live data block of a victim zone: read and copy
    /// outside the table lock, then publish only if the file still
    /// points at the old address (otherwise the copy is dropped). The
    /// block moves by reference: the device charges the read and the
    /// program, and the host copies no bytes.
    fn migrate_data(&self, mba: Mba, owner: Owner, now: Nanos) -> Result<Nanos, FsError> {
        let idx = owner.index as usize;
        {
            let inner = self.inner.lock();
            let file = inner.files.get(&owner.ino.0);
            if file.and_then(|f| f.ptrs.get(idx).copied().flatten()) != Some(mba) {
                // Overwritten/punched since the victim scan, or reserved
                // and written but not yet published: no copy either way
                // (`clean_one` waits the second kind out).
                return Ok(now);
            }
        }
        // Content at `mba` is immutable until its zone resets, and only
        // this (serialized) cleaner resets zones — unlocked read is safe.
        let (zone, off) = self.locate(mba);
        let (page, t_read) = self.dev.read_shared(zone, off, now)?;
        let (new_mba, t) =
            self.append_block(LogType::ColdData, Payload::Page(&page), owner, t_read)?;
        let mut inner = self.inner.lock();
        let Inner { files, main, stats, dirty_nodes, .. } = &mut *inner;
        let still_live = files
            .get_mut(&owner.ino.0)
            .filter(|f| f.ptrs.get(idx).copied().flatten() == Some(mba));
        match still_live {
            Some(file) => {
                main.invalidate(mba);
                file.ptrs[idx] = Some(new_mba);
                // The covering node must be rewritten to reference the
                // new location — the metadata cascade of filesystem GC.
                let node_idx = owner.index / self.node_fanout;
                file.nodes[node_idx as usize].dirty = true;
                dirty_nodes.insert((owner.ino.0, node_idx));
                stats.gc_data_moved += 1;
            }
            None => main.invalidate(new_mba),
        }
        Ok(t)
    }

    /// Cleans one victim zone: migrates live blocks, resets the zone.
    /// Caller holds the `cleaner` lock.
    ///
    /// `max_valid` caps how full a victim may be: a zone with more valid
    /// blocks than that is not worth cleaning at this urgency and the
    /// pass reports `Ok(None)` instead.
    fn clean_one(&self, max_valid: u64, now: Nanos) -> Result<Option<Nanos>, FsError> {
        let (victim, mut live) = {
            let inner = self.inner.lock();
            let victim = match inner.main.pick_victim() {
                Some(z) => z,
                None => return Ok(None),
            };
            // A read-only victim is a salvage, not a space reclaim: its
            // media is dying, so the victim-quality gate does not apply —
            // every live block must move off it regardless of occupancy.
            // lock-ok: the victim's health must be read atomically with
            // picking it from the mapping state, or a zone could degrade
            // between selection and the gate below.
            let salvage =
                matches!(self.dev.zone_state(victim), Ok(ZoneState::ReadOnly));
            if !salvage && inner.main.zone_valid(victim) as u64 > max_valid {
                return Ok(None);
            }
            (victim, inner.main.live_blocks(victim))
        };
        trace::emit(EventKind::CleanerVictim, now, victim.0 as u64, live.len() as u64);
        // Submit every migration at the pass start (a deep device queue),
        // not chained on the previous block's completion: block moves are
        // independent I/Os, and the device model already serializes each
        // die's programs. Chaining them serialized a zone's cleaning to
        // ~550us per block — tens of simulated seconds per pass — and
        // that serial tail, not foreground traffic, dominated File-Cache
        // makespans. The `IoHandle` keeps the submit/complete split
        // explicit: all commands go out at `now`, completions are reaped
        // afterwards.
        let mut io = sim::aio::IoPool::<FsError>::new().handle();
        let mut done = now;
        loop {
            for (mba, owner) in live {
                if owner.is_node {
                    io.submit(done, |t| self.migrate_node(mba, owner, t));
                } else {
                    io.submit(done, |t| self.migrate_data(mba, owner, t));
                }
            }
            // One linear reap: `done` is a max, so the order moves no
            // timestamp. Any error but a dead zone fails the pass.
            let mut victim_died = false;
            for reaped in io.reap_all() {
                match reaped {
                    Ok(c) => done = done.max(c.done),
                    Err((_, FsError::DeadZone { .. })) => {
                        // The victim went offline mid-salvage: its remaining
                        // blocks are unreadable and stay stranded (reads of
                        // them keep surfacing DeadZone). Retire it and report
                        // progress — failing the whole pass would couple an
                        // unrelated dead zone to foreground writes.
                        victim_died = true;
                    }
                    Err((_, e)) => return Err(e),
                }
            }
            if victim_died {
                self.inner.lock().stats.zones_retired += 1;
                return Ok(Some(done));
            }
            // Every block of the scan was either migrated (old copy
            // invalidated at publish) or invalidated by a racing
            // overwrite/punch/remove, and sealed zones never take new
            // writes. What can still be valid is a block a writer reserved
            // and wrote — its write is what sealed the zone — but has not
            // yet published into the file table: the file does not point at
            // it, so `migrate_data` had to leave it alone, and resetting the
            // zone now would lose that write. The publish needs only the
            // table lock, never the cleaner: let it land, then move it.
            let inner = self.inner.lock();
            if inner.main.zone_valid(victim) == 0 {
                break;
            }
            live = inner.main.live_blocks(victim);
            drop(inner);
            std::thread::yield_now();
        }
        match self.dev.reset(victim, done) {
            Ok(t) => {
                let mut inner = self.inner.lock();
                inner.main.release_reset_zone(victim);
                inner.stats.zones_cleaned += 1;
                Ok(Some(t))
            }
            Err(ZnsError::ZoneDegraded { .. }) => {
                // Degraded zones cannot be reset. Live data was migrated
                // above; retiring the zone (never returning it to the
                // free pool) is all that's left. Still `Some`: the pass
                // made progress, the loop may continue.
                self.inner.lock().stats.zones_retired += 1;
                Ok(Some(done))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Runs cleaning until `target_free` zones are free (or nothing is
    /// cleanable). One pass at a time; a caller arriving while another
    /// pass runs waits, re-checks, and usually finds the work done.
    fn clean_pass(&self, target_free: u32, foreground: bool, now: Nanos) -> Result<Nanos, FsError> {
        let _c = self.cleaner.lock();
        let free = self.inner.lock().main.free_zones();
        if free >= target_free {
            return Ok(now);
        }
        // Victim-quality gate, F2FS's background/foreground GC split. A
        // foreground pass (writer at the free floor) must make progress
        // and accepts any victim that frees at least one block. A
        // background pass refuses victims more than 7/8 valid: cleaning a
        // ~98%-valid zone rewrites a whole zone of data to reclaim a few
        // blocks, and the migrated data itself consumes a fresh zone — a
        // self-feeding spiral that once held measured WA at ~25x. Better
        // to leave free-space slack alone until overwrites have killed
        // enough blocks for cleaning to pay.
        let per_zone = self.inner.lock().main.blocks_per_zone();
        let max_valid = if foreground {
            per_zone - 1
        } else {
            per_zone / 8 * 7
        };
        trace::emit(EventKind::CleanerStart, now, free as u64, foreground as u64);
        let mut done = now;
        let mut cleaned = 0u64;
        while self.inner.lock().main.free_zones() < target_free {
            // lock-ok: the cleaner mutex serializes whole cleaning passes;
            // holding it across the migration I/O is the point — two
            // concurrent cleaners would fight over the same victims.
            match self.clean_one(max_valid, done)? {
                Some(t) => {
                    done = t;
                    cleaned += 1;
                }
                None => break,
            }
        }
        let free = self.inner.lock().main.free_zones();
        trace::emit(EventKind::CleanerStop, done, free as u64, cleaned);
        Ok(done)
    }

    /// Background cleaning entry point: cleans until the free pool sits
    /// one zone *above* the foreground floor, so writers only clean
    /// inline when the background pass has fallen behind.
    ///
    /// # Errors
    ///
    /// Propagates device errors from migration I/O.
    pub fn clean(&self, now: Nanos) -> Result<Nanos, FsError> {
        self.clean_pass(self.min_free_zones + 1, false, now)
    }

    /// Writes `data` at `offset`; both must be 4 KiB-aligned.
    ///
    /// Returns the completion time of the slowest block.
    ///
    /// # Errors
    ///
    /// [`FsError::Misaligned`], [`FsError::NotFound`], [`FsError::NoSpace`].
    pub fn pwrite(&self, ino: Ino, offset: u64, data: &[u8], now: Nanos) -> Result<Nanos, FsError> {
        if !offset.is_multiple_of(BLOCK_SIZE as u64) {
            return Err(FsError::Misaligned { value: offset });
        }
        if data.is_empty() || !data.len().is_multiple_of(BLOCK_SIZE) {
            return Err(FsError::Misaligned {
                value: data.len() as u64,
            });
        }
        let nblocks = (data.len() / BLOCK_SIZE) as u64;
        let first_fbi = offset / BLOCK_SIZE as u64;

        let mut done = now;
        for i in 0..nblocks {
            let fbi = (first_fbi + i) as usize;
            // Admission: grow tables and check capacity, briefly locked.
            {
                let mut inner = self.inner.lock();
                let limit = self.user_block_limit(&inner);
                let live = inner.live_data_blocks;
                let fanout = self.node_fanout as usize;
                let Some(file) = inner.files.get_mut(&ino.0) else {
                    return Err(FsError::NotFound { what: ino.to_string() });
                };
                if file.ptrs.len() <= fbi {
                    file.ptrs.resize(fbi + 1, None);
                }
                let nodes_needed = fbi / fanout + 1;
                if file.nodes.len() < nodes_needed {
                    file.nodes.resize(
                        nodes_needed,
                        NodeSlot {
                            addr: None,
                            dirty: false,
                        },
                    );
                }
                if file.ptrs[fbi].is_none() && live >= limit {
                    return Err(FsError::NoSpace);
                }
            }
            // Foreground cleaning only when the free pool hit the floor;
            // the background pass (`clean`) normally keeps it above.
            let t0 = if self.inner.lock().main.free_zones() < self.min_free_zones {
                self.clean_pass(self.min_free_zones, true, now)?
            } else {
                now
            };
            let chunk = &data[(i as usize) * BLOCK_SIZE..(i as usize + 1) * BLOCK_SIZE];
            let owner = Owner { ino, index: fbi as u32, is_node: false };
            let (mba, t) = self.append_block(LogType::HotData, Payload::Bytes(chunk), owner, t0)?;
            // Publish the new block.
            let flush_due = {
                let mut inner = self.inner.lock();
                let Inner {
                    files,
                    main,
                    dirty_nodes,
                    live_data_blocks,
                    stats,
                    data_since_ckpt,
                    ..
                } = &mut *inner;
                let Some(file) = files.get_mut(&ino.0) else {
                    // Removed while the write was in flight.
                    main.invalidate(mba);
                    return Err(FsError::NotFound { what: ino.to_string() });
                };
                let node_idx = (fbi as u32) / self.node_fanout;
                let old = file.ptrs[fbi].replace(mba);
                file.nodes[node_idx as usize].dirty = true;
                let end = (fbi as u64 + 1) * BLOCK_SIZE as u64;
                if end > file.size {
                    file.size = end;
                }
                dirty_nodes.insert((ino.0, node_idx));
                if let Some(old_mba) = old {
                    main.invalidate(old_mba);
                } else {
                    *live_data_blocks += 1;
                }
                stats.data_blocks_written += 1;
                *data_since_ckpt += 1;
                dirty_nodes.len() as u32 >= self.dirty_flush_threshold
            };
            done = done.max(t);
            if flush_due {
                done = done.max(self.flush_all_nodes(done)?);
            }
        }
        let ckpt_due = self.checkpoint_interval > 0
            && self.inner.lock().data_since_ckpt >= self.checkpoint_interval;
        if ckpt_due {
            done = done.max(self.do_checkpoint(done)?);
        }
        Ok(done)
    }

    /// Reads into `buf` from `offset`; both must be 4 KiB-aligned.
    ///
    /// Holes read as zeros.
    ///
    /// # Errors
    ///
    /// [`FsError::Misaligned`], [`FsError::NotFound`],
    /// [`FsError::BeyondEof`].
    pub fn pread(
        &self,
        ino: Ino,
        offset: u64,
        buf: &mut [u8],
        now: Nanos,
    ) -> Result<Nanos, FsError> {
        if !offset.is_multiple_of(BLOCK_SIZE as u64) {
            return Err(FsError::Misaligned { value: offset });
        }
        if buf.is_empty() || !buf.len().is_multiple_of(BLOCK_SIZE) {
            return Err(FsError::Misaligned {
                value: buf.len() as u64,
            });
        }
        {
            let inner = self.inner.lock();
            let file = inner.files.get(&ino.0).ok_or_else(|| FsError::NotFound {
                what: ino.to_string(),
            })?;
            if offset + buf.len() as u64 > file.size {
                return Err(FsError::BeyondEof {
                    offset,
                    size: file.size,
                });
            }
        }
        let first_fbi = offset / BLOCK_SIZE as u64;
        let nblocks = (buf.len() / BLOCK_SIZE) as u64;
        let mut done = now;
        for i in 0..nblocks {
            let fbi = (first_fbi + i) as usize;
            let chunk = &mut buf[(i as usize) * BLOCK_SIZE..(i as usize + 1) * BLOCK_SIZE];
            // Translate under the lock, read unlocked, then revalidate:
            // an unchanged pointer proves the address was not recycled
            // (recycling requires invalidation, which changes the
            // pointer first). A changed pointer or a read error from a
            // concurrently reset zone just retries with the new pointer.
            loop {
                let ptr = {
                    let inner = self.inner.lock();
                    let file = inner.files.get(&ino.0).ok_or_else(|| FsError::NotFound {
                        what: ino.to_string(),
                    })?;
                    file.ptrs.get(fbi).copied().flatten()
                };
                let Some(mba) = ptr else {
                    chunk.fill(0);
                    break;
                };
                let read = self.dev_read_block(mba, chunk, now);
                let still_current = {
                    let inner = self.inner.lock();
                    inner
                        .files
                        .get(&ino.0)
                        .is_some_and(|f| f.ptrs.get(fbi).copied().flatten() == Some(mba))
                };
                match read {
                    Ok(t) if still_current => {
                        done = done.max(t);
                        break;
                    }
                    Err(e) if still_current => return Err(e),
                    _ => {} // raced a migration; retry with the new pointer
                }
            }
        }
        Ok(done)
    }

    /// Deallocates (punches a hole in) a 4 KiB-aligned byte range: the
    /// blocks become holes that read zeros, and their storage is
    /// reclaimable by the cleaner without migration. The file size is
    /// unchanged, as with `fallocate(FALLOC_FL_PUNCH_HOLE)`.
    ///
    /// # Errors
    ///
    /// [`FsError::Misaligned`], [`FsError::NotFound`].
    pub fn punch_hole(
        &self,
        ino: Ino,
        offset: u64,
        len: u64,
        _now: Nanos,
    ) -> Result<(), FsError> {
        if !offset.is_multiple_of(BLOCK_SIZE as u64) {
            return Err(FsError::Misaligned { value: offset });
        }
        if len == 0 || !len.is_multiple_of(BLOCK_SIZE as u64) {
            return Err(FsError::Misaligned { value: len });
        }
        let mut inner = self.inner.lock();
        if !inner.files.contains_key(&ino.0) {
            return Err(FsError::NotFound {
                what: ino.to_string(),
            });
        }
        let first = offset / BLOCK_SIZE as u64;
        let nblocks = len / BLOCK_SIZE as u64;
        for fbi in first..first + nblocks {
            let (old, node_idx) = {
                let file = inner.files.get_mut(&ino.0).expect("checked");
                if fbi as usize >= file.ptrs.len() {
                    break;
                }
                let old = file.ptrs[fbi as usize].take();
                let node_idx = (fbi as u32) / self.node_fanout;
                if old.is_some() && !file.nodes[node_idx as usize].dirty {
                    file.nodes[node_idx as usize].dirty = true;
                }
                (old, node_idx)
            };
            if let Some(mba) = old {
                inner.main.invalidate(mba);
                inner.live_data_blocks -= 1;
                inner.dirty_nodes.insert((ino.0, node_idx));
            }
        }
        Ok(())
    }

    /// Free user-visible space in bytes (a `statfs`-style figure).
    pub fn free_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        let usable = inner.main.zones() as u64 - self.reserved_zones as u64;
        let limit = usable * inner.main.blocks_per_zone();
        limit.saturating_sub(inner.live_data_blocks) * BLOCK_SIZE as u64
    }

    /// Makes a file's pointer tree durable (flushes its dirty nodes).
    ///
    /// Full durability of f2fs-lite is checkpoint-granular; fsync bounds
    /// the node-flush backlog like F2FS's node writeback.
    ///
    /// # Errors
    ///
    /// [`FsError::NotFound`].
    pub fn fsync(&self, ino: Ino, now: Nanos) -> Result<Nanos, FsError> {
        let dirty: Vec<(u32, u32)> = {
            let inner = self.inner.lock();
            if !inner.files.contains_key(&ino.0) {
                return Err(FsError::NotFound {
                    what: ino.to_string(),
                });
            }
            inner
                .dirty_nodes
                .iter()
                .copied()
                .filter(|&(i, _)| i == ino.0)
                .collect()
        };
        let mut done = now;
        for (i, n) in dirty {
            done = done.max(self.flush_node(i, n, now)?);
        }
        Ok(done)
    }

    fn do_checkpoint(&self, now: Nanos) -> Result<Nanos, FsError> {
        let t = self.flush_all_nodes(now)?;
        // Encode a point-in-time snapshot under the lock; write it to
        // the metadata device with the lock released. Durability is
        // checkpoint-granular, so mutations racing the metadata write
        // simply land in the next checkpoint.
        let payload = {
            let inner = self.inner.lock();
            let files = inner
                .files
                .iter()
                .map(|(&ino, f)| FileRecord {
                    name: f.name.clone(),
                    ino: Ino(ino),
                    size: f.size,
                    ptrs: f.ptrs.clone(),
                    nodes: f.nodes.iter().map(|n| n.addr).collect(),
                })
                .collect();
            let data = CheckpointData {
                next_ino: inner.next_ino,
                files,
                main: inner.main.snapshot(),
            };
            checkpoint::encode(&data)
        };
        let done = checkpoint::write_checkpoint(&self.meta, &payload, t)?;
        let mut inner = self.inner.lock();
        inner.stats.checkpoints += 1;
        inner.data_since_ckpt = 0;
        Ok(done)
    }

    /// Writes a checkpoint: flushes dirty nodes, persists all tables to the
    /// metadata device.
    ///
    /// # Errors
    ///
    /// [`FsError::NoSpace`] if the metadata device is too small.
    pub fn checkpoint(&self, now: Nanos) -> Result<Nanos, FsError> {
        self.do_checkpoint(now)
    }

    /// Free zones currently available (diagnostic).
    pub fn free_zones(&self) -> u32 {
        self.inner.lock().main.free_zones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::fault::{FaultInjector, FaultMode, FaultSpec};

    fn fs() -> FileSystem {
        FileSystem::format(FsConfig::small_test())
    }

    fn bytes(nblocks: usize, fill: u8) -> Vec<u8> {
        vec![fill; nblocks * BLOCK_SIZE]
    }

    #[test]
    fn create_open_write_read() {
        let fs = fs();
        let ino = fs.create("a", Nanos::ZERO).unwrap();
        assert_eq!(fs.open("a").unwrap(), ino);
        let t = fs.pwrite(ino, 0, &bytes(3, 0x11), Nanos::ZERO).unwrap();
        assert_eq!(fs.size(ino).unwrap(), 3 * BLOCK_SIZE as u64);
        let mut out = bytes(3, 0);
        fs.pread(ino, 0, &mut out, t).unwrap();
        assert!(out.iter().all(|&b| b == 0x11));
    }

    #[test]
    fn duplicate_create_rejected() {
        let fs = fs();
        fs.create("a", Nanos::ZERO).unwrap();
        assert!(matches!(
            fs.create("a", Nanos::ZERO),
            Err(FsError::Exists { .. })
        ));
        assert!(matches!(fs.open("b"), Err(FsError::NotFound { .. })));
    }

    #[test]
    fn overwrite_returns_latest_data_and_logs_new_blocks() {
        let fs = fs();
        let ino = fs.create("a", Nanos::ZERO).unwrap();
        let t1 = fs.pwrite(ino, 0, &bytes(1, 1), Nanos::ZERO).unwrap();
        let t2 = fs.pwrite(ino, 0, &bytes(1, 2), t1).unwrap();
        let mut out = bytes(1, 0);
        fs.pread(ino, 0, &mut out, t2).unwrap();
        assert!(out.iter().all(|&b| b == 2));
        assert_eq!(fs.stats().data_blocks_written, 2);
    }

    #[test]
    fn holes_read_zero() {
        let fs = fs();
        let ino = fs.create("a", Nanos::ZERO).unwrap();
        // Write block 2 only; blocks 0–1 are holes.
        let t = fs
            .pwrite(ino, 2 * BLOCK_SIZE as u64, &bytes(1, 7), Nanos::ZERO)
            .unwrap();
        let mut out = bytes(3, 9);
        fs.pread(ino, 0, &mut out, t).unwrap();
        assert!(out[..2 * BLOCK_SIZE].iter().all(|&b| b == 0));
        assert!(out[2 * BLOCK_SIZE..].iter().all(|&b| b == 7));
    }

    #[test]
    fn misalignment_rejected() {
        let fs = fs();
        let ino = fs.create("a", Nanos::ZERO).unwrap();
        assert!(matches!(
            fs.pwrite(ino, 100, &bytes(1, 0), Nanos::ZERO),
            Err(FsError::Misaligned { value: 100 })
        ));
        assert!(fs.pwrite(ino, 0, &[0u8; 100], Nanos::ZERO).is_err());
        let mut buf = [0u8; 100];
        assert!(fs.pread(ino, 0, &mut buf, Nanos::ZERO).is_err());
    }

    #[test]
    fn read_beyond_eof_rejected() {
        let fs = fs();
        let ino = fs.create("a", Nanos::ZERO).unwrap();
        fs.pwrite(ino, 0, &bytes(1, 1), Nanos::ZERO).unwrap();
        let mut out = bytes(2, 0);
        assert!(matches!(
            fs.pread(ino, 0, &mut out, Nanos::ZERO),
            Err(FsError::BeyondEof { .. })
        ));
    }

    #[test]
    fn node_blocks_are_written_for_pointer_churn() {
        let fs = fs();
        let ino = fs.create("a", Nanos::ZERO).unwrap();
        // Enough writes to cross the dirty-node threshold (4).
        let mut t = Nanos::ZERO;
        for i in 0..40u64 {
            t = fs
                .pwrite(ino, (i % 40) * BLOCK_SIZE as u64, &bytes(1, i as u8), t)
                .unwrap();
        }
        assert!(fs.stats().node_blocks_written > 0, "no node churn recorded");
    }

    #[test]
    fn overwrite_churn_triggers_cleaning_and_stays_correct() {
        let fs = fs();
        let ino = fs.create("a", Nanos::ZERO).unwrap();
        // User capacity is (16-3)*32 = 416 blocks; work over 320 blocks and
        // overwrite heavily so zones fill and the cleaner must run.
        let span = 320u64;
        let mut t = Nanos::ZERO;
        for round in 0..6u64 {
            for b in 0..span {
                let fill = (round * span + b) as u8;
                t = fs
                    .pwrite(ino, b * BLOCK_SIZE as u64, &bytes(1, fill), t)
                    .unwrap();
            }
        }
        let s = fs.stats();
        assert!(s.zones_cleaned > 0, "cleaner never ran: {s:?}");
        assert!(s.write_amplification() > 1.0);
        // Every block reads back its final round value.
        for b in (0..span).step_by(17) {
            let mut out = bytes(1, 0);
            fs.pread(ino, b * BLOCK_SIZE as u64, &mut out, t).unwrap();
            let expect = (5 * span + b) as u8;
            assert!(out.iter().all(|&x| x == expect), "block {b} corrupt");
        }
    }

    #[test]
    fn capacity_limit_enforced() {
        let fs = fs();
        let ino = fs.create("a", Nanos::ZERO).unwrap();
        let limit_blocks = 416u64; // (16 - 3 reserved) * 32
        let mut t = Nanos::ZERO;
        let mut wrote = 0u64;
        for b in 0..limit_blocks + 8 {
            match fs.pwrite(ino, b * BLOCK_SIZE as u64, &bytes(1, 1), t) {
                Ok(t2) => {
                    t = t2;
                    wrote += 1;
                }
                Err(FsError::NoSpace) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(wrote < limit_blocks + 8, "NoSpace never surfaced");
        // Node blocks share the capacity pool (~1 per fanout=8 data
        // blocks), so NoSpace fires somewhat below the data-only limit.
        assert!(
            wrote >= limit_blocks - limit_blocks / 8 - 16,
            "gave up far too early: {wrote}"
        );
    }

    #[test]
    fn remove_reclaims_space() {
        let fs = fs();
        let ino = fs.create("a", Nanos::ZERO).unwrap();
        let t = fs.pwrite(ino, 0, &bytes(8, 1), Nanos::ZERO).unwrap();
        fs.remove("a", t).unwrap();
        assert!(matches!(fs.open("a"), Err(FsError::NotFound { .. })));
        // All space is reclaimable: a new file can use the full budget.
        let ino2 = fs.create("b", t).unwrap();
        let mut t2 = t;
        for b in 0..100u64 {
            t2 = fs.pwrite(ino2, b * BLOCK_SIZE as u64, &bytes(1, 2), t2).unwrap();
        }
    }

    #[test]
    fn fsync_flushes_only_that_files_nodes() {
        let fs = fs();
        let a = fs.create("a", Nanos::ZERO).unwrap();
        let b = fs.create("b", Nanos::ZERO).unwrap();
        fs.pwrite(a, 0, &bytes(1, 1), Nanos::ZERO).unwrap();
        fs.pwrite(b, 0, &bytes(1, 1), Nanos::ZERO).unwrap();
        let before = fs.stats().node_blocks_written;
        fs.fsync(a, Nanos::ZERO).unwrap();
        let after = fs.stats().node_blocks_written;
        assert_eq!(after - before, 1, "exactly a's one dirty node flushes");
    }

    #[test]
    fn checkpoint_mount_recovers_files() {
        let config = FsConfig::small_test();
        let dev = Arc::new(ZnsDevice::new(ZnsConfig::small_test()));
        let meta = Arc::new(RamDisk::new(config.meta_blocks));
        let fs1 = FileSystem::format_on(dev.clone(), meta.clone(), &config);
        let ino = fs1.create("persist", Nanos::ZERO).unwrap();
        let t = fs1.pwrite(ino, 0, &bytes(5, 0xee), Nanos::ZERO).unwrap();
        let t = fs1.checkpoint(t).unwrap();
        drop(fs1); // crash after checkpoint

        let (fs2, t) = FileSystem::mount(dev, meta, &config, t).unwrap();
        let ino2 = fs2.open("persist").unwrap();
        assert_eq!(fs2.size(ino2).unwrap(), 5 * BLOCK_SIZE as u64);
        let mut out = bytes(5, 0);
        fs2.pread(ino2, 0, &mut out, t).unwrap();
        assert!(out.iter().all(|&x| x == 0xee));
        // And the recovered fs keeps working.
        let t = fs2.pwrite(ino2, 0, &bytes(1, 0xdd), t).unwrap();
        let mut out = bytes(1, 0);
        fs2.pread(ino2, 0, &mut out, t).unwrap();
        assert!(out.iter().all(|&x| x == 0xdd));
    }

    #[test]
    fn mount_restores_live_data_accounting() {
        let config = FsConfig::small_test();
        let dev = Arc::new(ZnsDevice::new(ZnsConfig::small_test()));
        let meta = Arc::new(RamDisk::new(config.meta_blocks));
        let fs1 = FileSystem::format_on(dev.clone(), meta.clone(), &config);
        let ino = fs1.create("f", Nanos::ZERO).unwrap();
        let t = fs1.pwrite(ino, 0, &bytes(10, 1), Nanos::ZERO).unwrap();
        let free_before = fs1.free_bytes();
        let t = fs1.checkpoint(t).unwrap();
        drop(fs1);

        let (fs2, _t) = FileSystem::mount(dev, meta, &config, t).unwrap();
        // The quota must reflect the 10 live blocks, not reset to zero.
        assert_eq!(fs2.free_bytes(), free_before);
    }

    #[test]
    fn mount_without_checkpoint_fails() {
        let config = FsConfig::small_test();
        let dev = Arc::new(ZnsDevice::new(ZnsConfig::small_test()));
        let meta = Arc::new(RamDisk::new(config.meta_blocks));
        let _fs = FileSystem::format_on(dev.clone(), meta.clone(), &config);
        assert!(matches!(
            FileSystem::mount(dev, meta, &config, Nanos::ZERO),
            Err(FsError::BadSuperblock(_))
        ));
    }

    #[test]
    fn auto_checkpoint_fires_on_interval() {
        let mut config = FsConfig::small_test();
        config.checkpoint_interval_blocks = 10;
        let fs = FileSystem::format(config);
        let ino = fs.create("a", Nanos::ZERO).unwrap();
        let mut t = Nanos::ZERO;
        for b in 0..25u64 {
            t = fs.pwrite(ino, b * BLOCK_SIZE as u64, &bytes(1, 1), t).unwrap();
        }
        assert!(fs.stats().checkpoints >= 2);
    }

    #[test]
    fn punch_hole_reads_zero_and_reclaims_space() {
        let fs = fs();
        let ino = fs.create("a", Nanos::ZERO).unwrap();
        let t = fs.pwrite(ino, 0, &bytes(4, 9), Nanos::ZERO).unwrap();
        let free_before = fs.free_bytes();
        fs.punch_hole(ino, BLOCK_SIZE as u64, 2 * BLOCK_SIZE as u64, t).unwrap();
        // Size is unchanged; the punched blocks read zero.
        assert_eq!(fs.size(ino).unwrap(), 4 * BLOCK_SIZE as u64);
        let mut out = bytes(4, 1);
        fs.pread(ino, 0, &mut out, t).unwrap();
        assert!(out[..BLOCK_SIZE].iter().all(|&b| b == 9));
        assert!(out[BLOCK_SIZE..3 * BLOCK_SIZE].iter().all(|&b| b == 0));
        assert!(out[3 * BLOCK_SIZE..].iter().all(|&b| b == 9));
        assert_eq!(fs.free_bytes(), free_before + 2 * BLOCK_SIZE as u64);
        // Punching a hole twice (or over holes) is harmless.
        fs.punch_hole(ino, 0, 4 * BLOCK_SIZE as u64, t).unwrap();
        fs.punch_hole(ino, 0, 8 * BLOCK_SIZE as u64, t).unwrap();
    }

    #[test]
    fn punch_hole_validates_arguments() {
        let fs = fs();
        let ino = fs.create("a", Nanos::ZERO).unwrap();
        assert!(matches!(
            fs.punch_hole(ino, 3, 4096, Nanos::ZERO),
            Err(FsError::Misaligned { .. })
        ));
        assert!(matches!(
            fs.punch_hole(ino, 0, 0, Nanos::ZERO),
            Err(FsError::Misaligned { .. })
        ));
        assert!(matches!(
            fs.punch_hole(Ino(99), 0, 4096, Nanos::ZERO),
            Err(FsError::NotFound { .. })
        ));
    }

    #[test]
    fn capacity_bytes_excludes_reserve() {
        let fs = fs();
        assert_eq!(fs.capacity_bytes(), 416 * BLOCK_SIZE as u64);
    }

    #[test]
    fn background_clean_raises_free_zones_above_the_floor() {
        let fs = fs();
        let ino = fs.create("a", Nanos::ZERO).unwrap();
        // Churn until the free pool sits at (or near) the floor.
        let mut t = Nanos::ZERO;
        for round in 0..4u64 {
            for b in 0..200u64 {
                t = fs
                    .pwrite(ino, b * BLOCK_SIZE as u64, &bytes(1, (round + b) as u8), t)
                    .unwrap();
            }
        }
        let t = fs.clean(t).unwrap();
        assert!(
            fs.free_zones() > FsConfig::small_test().min_free_zones,
            "background clean left only {} free zones",
            fs.free_zones()
        );
        // Data survives cleaning.
        let mut out = bytes(1, 0);
        fs.pread(ino, 17 * BLOCK_SIZE as u64, &mut out, t).unwrap();
        assert!(out.iter().all(|&x| x == (3 + 17) as u8));
    }

    #[test]
    fn cleaner_waits_out_a_block_that_is_written_but_not_yet_published() {
        // `pwrite`'s window between `append_block` (block valid and on the
        // device) and the publish into the file table, held open by hand.
        // A writer preempted there long enough for its zone to seal and
        // everything else in it to die used to lose the write: the cleaner
        // could not move a block no file points at, and reset the zone
        // under it (debug builds tripped the zone_valid assert instead).
        let fs = Arc::new(fs());
        let ino = fs.create("f", Nanos::ZERO).unwrap();
        let mut t = fs.pwrite(ino, 0, &bytes(1, 1), Nanos::ZERO).unwrap();
        let owner = Owner { ino, index: 0, is_node: false };
        let (mba, _) = fs
            .append_block(LogType::HotData, Payload::Bytes(&bytes(1, 2)), owner, t)
            .unwrap();
        // Seal the zone behind it, then kill everything else in it.
        for _round in 0..2 {
            for b in 1..=30u64 {
                t = fs.pwrite(ino, b * BLOCK_SIZE as u64, &bytes(1, 3), t).unwrap();
            }
        }
        let zone = {
            let inner = fs.inner.lock();
            let zone = inner.main.zone_of(mba);
            assert_eq!(inner.main.pick_victim(), Some(zone));
            assert_eq!(inner.main.zone_valid(zone), 2, "old block 0 + the unpublished one");
            zone
        };
        std::thread::scope(|s| {
            let cleaner = s.spawn(|| fs.clean_one(u64::MAX, t));
            // The cleaner moves old block 0, then must wait for ours.
            while fs.stats().gc_data_moved == 0 && !cleaner.is_finished() {
                std::thread::yield_now();
            }
            assert_eq!(fs.stats().zones_cleaned, 0, "victim reset under an unpublished write");
            assert_eq!(fs.inner.lock().main.zone_valid(zone), 1);
            // Publish, as `pwrite` does.
            {
                let mut inner = fs.inner.lock();
                let Inner { files, main, .. } = &mut *inner;
                let old = files.get_mut(&ino.0).unwrap().ptrs[0].replace(mba);
                main.invalidate(old.unwrap());
            }
            assert!(cleaner.join().unwrap().unwrap().is_some());
        });
        assert_eq!(fs.stats().zones_cleaned, 1);
        assert_eq!(fs.stats().gc_data_moved, 2, "the late block moves once published");
        let mut out = bytes(1, 0);
        fs.pread(ino, 0, &mut out, t).unwrap();
        assert!(out.iter().all(|&x| x == 2), "the in-flight write was lost");
    }

    /// A filesystem on a fault-injected device whose first hot-data zone
    /// is sealed with only file blocks `32 - live..32` still valid there
    /// (block `b` holds the byte `b`): the zone the cleaner picks next.
    fn fs_with_victim(live: u64) -> (FileSystem, Ino, Arc<FaultInjector>, ZoneId, Nanos) {
        let config = FsConfig::small_test();
        let inj = Arc::new(FaultInjector::with_seed(1));
        let dev = ZnsDevice::new(config.zns.clone()).with_fault_injector(Arc::clone(&inj));
        let meta = Arc::new(RamDisk::new(config.meta_blocks));
        let fs = FileSystem::format_on(Arc::new(dev), meta, &config);
        let ino = fs.create("f", Nanos::ZERO).unwrap();
        let mut t = Nanos::ZERO;
        for b in 0..32u64 {
            t = fs.pwrite(ino, b * BLOCK_SIZE as u64, &bytes(1, b as u8), t).unwrap();
        }
        for b in 0..32 - live {
            t = fs.pwrite(ino, b * BLOCK_SIZE as u64, &bytes(1, 0xff), t).unwrap();
        }
        let victim = {
            let inner = fs.inner.lock();
            let victim = inner.main.pick_victim().expect("the sealed zone is a victim");
            assert_eq!(inner.main.zone_valid(victim) as u64, live);
            victim
        };
        (fs, ino, inj, victim, t)
    }

    /// Reads file block `b` back and checks it holds the byte `b`.
    fn block_holds_its_index(fs: &FileSystem, ino: Ino, b: u64, t: Nanos) -> Result<(), FsError> {
        let mut out = bytes(1, 0);
        fs.pread(ino, b * BLOCK_SIZE as u64, &mut out, t)?;
        assert!(out.iter().all(|&x| x == b as u8), "block {b} corrupt");
        Ok(())
    }

    /// The `skip`+1-th read from now on takes its zone offline.
    fn kill_on_read(skip: u64) -> FaultSpec {
        FaultSpec {
            reads: true,
            writes: false,
            trims: false,
            mode: FaultMode::DegradeOffline,
            probability: 1.0,
            skip,
            count: 1,
        }
    }

    #[test]
    fn victim_that_dies_mid_pass_is_retired_and_the_pass_reports_progress() {
        let (fs, ino, inj, victim, t) = fs_with_victim(6);
        // Two blocks move, then the third read takes the victim offline.
        inj.push(kill_on_read(2));
        assert!(fs.clean_one(u64::MAX, t).unwrap().is_some(), "a dead victim is progress");
        let s = fs.stats();
        assert_eq!((s.gc_data_moved, s.zones_retired, s.zones_cleaned), (2, 1, 0));
        assert_eq!(fs.dev.zone_state(victim).unwrap(), ZoneState::Offline);
        // What moved reads back; what did not is stranded on dead media.
        block_holds_its_index(&fs, ino, 26, t).unwrap();
        block_holds_its_index(&fs, ino, 27, t).unwrap();
        assert_eq!(
            block_holds_its_index(&fs, ino, 28, t),
            Err(FsError::DeadZone { zone: victim })
        );
        assert_ne!(fs.inner.lock().main.pick_victim(), Some(victim), "the cleaner moves on");
    }

    #[test]
    fn victim_death_beside_a_destination_error_fails_the_pass_with_that_error() {
        let (fs, _ino, inj, victim, t) = fs_with_victim(6);
        // The first block's copy fails on the destination; the second
        // block's read takes the victim offline.
        inj.push(FaultSpec::fail_writes(1));
        inj.push(kill_on_read(1));
        let err = fs.clean_one(u64::MAX, t).unwrap_err();
        assert!(
            matches!(&err, FsError::Device(msg) if msg.contains("zone write fault")),
            "{err}"
        );
        assert_eq!(fs.dev.zone_state(victim).unwrap(), ZoneState::Offline, "both faults fired");
        let s = fs.stats();
        assert_eq!((s.gc_data_moved, s.zones_retired, s.zones_cleaned), (0, 0, 0));
    }

    #[test]
    fn destination_that_degrades_under_a_migration_is_retried_on_a_fresh_zone() {
        let (fs, ino, inj, victim, t) = fs_with_victim(6);
        let reads = fs.dev.stats().host_blocks_read;
        // The first migration write retires the cold-data head zone.
        inj.push(FaultSpec::degrade_read_only_writes(1));
        assert!(fs.clean_one(u64::MAX, t).unwrap().is_some());
        let s = fs.stats();
        assert_eq!((s.gc_data_moved, s.zones_retired, s.zones_cleaned), (6, 1, 1));
        assert_eq!(
            fs.dev.stats().host_blocks_read - reads,
            6,
            "one read per migrated block: the retry reuses the page it read"
        );
        let dead: Vec<ZoneId> = fs
            .dev
            .report_zones()
            .into_iter()
            .filter(|z| z.state == ZoneState::ReadOnly)
            .map(|z| z.id)
            .collect();
        assert_eq!(dead.len(), 1);
        assert_ne!(dead[0], victim);
        for b in 26..32u64 {
            let mba = fs.inner.lock().files[&ino.0].ptrs[b as usize].unwrap();
            assert_ne!(fs.inner.lock().main.zone_of(mba), dead[0], "block {b} on the dead zone");
            block_holds_its_index(&fs, ino, b, t).unwrap();
        }
    }

    #[test]
    fn concurrent_writers_readers_and_cleaner_stay_consistent() {
        // 4 writers churn disjoint 64-block stripes of one file hard
        // enough to force cleaning, while a background thread runs the
        // cleaner and a reader verifies stripes it does not write.
        let fs = Arc::new(fs());
        let ino = fs.create("shared", Nanos::ZERO).unwrap();
        let stripe = 64u64;
        // Pre-fill so every stripe has a deterministic base value.
        let mut t = Nanos::ZERO;
        for w in 0..4u64 {
            for b in 0..stripe {
                t = fs
                    .pwrite(ino, (w * stripe + b) * BLOCK_SIZE as u64, &bytes(1, w as u8), t)
                    .unwrap();
            }
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..4u64)
                .map(|w| {
                    let fs = Arc::clone(&fs);
                    s.spawn(move || {
                        let mut t = Nanos::ZERO;
                        for round in 0..6u64 {
                            for b in 0..stripe {
                                let fill = (w * 50 + round) as u8;
                                t = fs
                                    .pwrite(
                                        ino,
                                        (w * stripe + b) * BLOCK_SIZE as u64,
                                        &bytes(1, fill),
                                        t,
                                    )
                                    .unwrap();
                            }
                        }
                    })
                })
                .collect();
            {
                let fs = Arc::clone(&fs);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    // relaxed-ok: test stop flag; no payload rides on it.
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        fs.clean(Nanos::ZERO).unwrap();
                        std::thread::yield_now();
                    }
                });
            }
            {
                let fs = Arc::clone(&fs);
                s.spawn(move || {
                    let mut out = bytes(1, 0);
                    for i in 0..500u64 {
                        let w = i % 4;
                        let b = (i * 7) % stripe;
                        fs.pread(ino, (w * stripe + b) * BLOCK_SIZE as u64, &mut out, Nanos::ZERO)
                            .unwrap();
                        let v = out[0];
                        // Either the pre-fill value or one of writer w's
                        // round values; never another stripe's bytes and
                        // never torn garbage.
                        assert!(
                            v == w as u8 || (v >= (w * 50) as u8 && v < (w * 50 + 6) as u8),
                            "stripe {w} block {b} read foreign value {v}"
                        );
                        assert!(out.iter().all(|&x| x == v), "torn block read");
                    }
                });
            }
            // Stop the cleaner loop before surfacing a writer's panic, or
            // the scope would wait for ever on a thread nobody stops.
            let joined: Vec<_> = writers.into_iter().map(|h| h.join()).collect();
            // relaxed-ok: test stop flag; no payload rides on it.
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            for r in joined {
                r.unwrap();
            }
        });
        let s = fs.stats();
        assert!(s.zones_cleaned > 0, "churn never triggered cleaning: {s:?}");
        // Final contents are each stripe's last round.
        let mut out = bytes(1, 0);
        for w in 0..4u64 {
            for b in (0..stripe).step_by(13) {
                fs.pread(ino, (w * stripe + b) * BLOCK_SIZE as u64, &mut out, Nanos::ZERO)
                    .unwrap();
                let expect = (w * 50 + 5) as u8;
                assert!(out.iter().all(|&x| x == expect), "stripe {w} block {b} corrupt");
            }
        }
    }
}
