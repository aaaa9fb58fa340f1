//! The ZNS device: zone state machine over the flash array.

use core::fmt;
use std::collections::VecDeque;
use std::sync::Arc;

use nand::{NandArray, NandConfig, NandError, PageAddr, Payload, SharedPage};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use sim::fault::{flip_bit, FaultInjector, FaultOp, Injection};
use sim::{Counter, Nanos, BLOCK_SIZE};

use crate::error::ZnsError;
use crate::mapping::ZoneLayout;
use crate::state_machine::{self, ZoneOp};
use crate::zone::{ZoneId, ZoneInfo, ZoneState};

/// Configuration for a [`ZnsDevice`].
#[derive(Clone, Debug)]
pub struct ZnsConfig {
    /// Underlying flash array.
    pub nand: NandConfig,
    /// Erase blocks per zone.
    pub zone_blocks: u32,
    /// Dies each zone stripes across.
    pub stripe_dies: u32,
    /// Maximum concurrently open zones (implicit + explicit).
    pub max_open_zones: u32,
    /// Maximum concurrently active zones (open + closed).
    pub max_active_zones: u32,
    /// Writable blocks per zone (`zone capacity`); `None` means the full
    /// zone size. Real devices commonly expose cap < size (e.g. the WD
    /// ZN540's 1077 MiB cap).
    pub zone_cap_blocks: Option<u64>,
}

impl ZnsConfig {
    /// Tiny device for unit tests: 8 zones of 32 blocks (4 KiB each).
    pub fn small_test() -> Self {
        ZnsConfig {
            nand: NandConfig::small_test(),
            zone_blocks: 4,
            stripe_dies: 2,
            max_open_zones: 4,
            max_active_zones: 6,
            zone_cap_blocks: None,
        }
    }
}

/// Service interval of one die during a zone append: the window in which
/// that die was busy programming pages of the command. Appends stripe
/// across dies, so a multi-die command reports one interval per die and
/// the intervals overlap in sim time — the parallelism evidence the event
/// trace surfaces during a region flush.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DieService {
    /// Flat die index in the array.
    pub die: u32,
    /// When the die started programming the first page of this command.
    pub start: Nanos,
    /// When the die finished programming its last page of this command.
    pub end: Nanos,
}

/// Point-in-time device statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ZnsStatsSnapshot {
    /// 4 KiB blocks written by the host.
    pub host_blocks_written: u64,
    /// 4 KiB blocks read by the host.
    pub host_blocks_read: u64,
    /// Zone resets issued.
    pub zone_resets: u64,
    /// Zone finish commands issued.
    pub zone_finishes: u64,
    /// Bytes physically programmed on the media.
    pub media_bytes_written: u64,
}

impl ZnsStatsSnapshot {
    /// Device-level write amplification. For a ZNS device this is 1.0
    /// whenever the host has written anything, by construction.
    pub fn write_amplification(&self) -> f64 {
        sim::stats::write_amplification(
            self.host_blocks_written * BLOCK_SIZE as u64,
            self.media_bytes_written,
        )
    }
}

#[derive(Clone, Copy, Debug)]
struct ZoneMeta {
    state: ZoneState,
    wp: u64,
    reset_count: u64,
}

struct DevState {
    zones: Vec<ZoneMeta>,
    /// Implicitly-open zones in open order; the front is auto-closed when
    /// open resources run out, as NVMe ZNS controllers do.
    implicit_lru: VecDeque<u32>,
    open_count: u32,
    active_count: u32,
}

/// An emulated Zoned Namespace SSD.
///
/// Shared via [`Arc`]; all methods take `&self`. See the
/// [crate docs](crate) for an example.
pub struct ZnsDevice {
    array: Arc<NandArray>,
    layout: ZoneLayout,
    cap_blocks: u64,
    max_open: u32,
    max_active: u32,
    state: Mutex<DevState>,
    host_blocks_written: Counter,
    host_blocks_read: Counter,
    zone_resets: Counter,
    zone_finishes: Counter,
    injector: Option<Arc<FaultInjector>>,
}

impl fmt::Debug for ZnsDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ZnsDevice")
            .field("zones", &self.layout.num_zones())
            .field("zone_size_blocks", &self.layout.zone_size_blocks())
            .field("cap_blocks", &self.cap_blocks)
            .finish()
    }
}

impl ZnsDevice {
    /// Builds the device.
    ///
    /// # Panics
    ///
    /// Panics if the zone layout does not fit the flash geometry or if the
    /// configured zone capacity exceeds the zone size; both are
    /// configuration bugs caught at startup.
    pub fn new(config: ZnsConfig) -> Self {
        let geometry = config.nand.geometry;
        let array = Arc::new(NandArray::new(config.nand));
        let layout = ZoneLayout::new(geometry, config.zone_blocks, config.stripe_dies)
            .expect("zone layout must fit the flash geometry");
        let cap_blocks = config.zone_cap_blocks.unwrap_or(layout.zone_size_blocks());
        assert!(
            cap_blocks > 0 && cap_blocks <= layout.zone_size_blocks(),
            "zone capacity {cap_blocks} outside (0, {}]",
            layout.zone_size_blocks()
        );
        let zones = vec![
            ZoneMeta {
                state: ZoneState::Empty,
                wp: 0,
                reset_count: 0,
            };
            layout.num_zones() as usize
        ];
        ZnsDevice {
            array,
            layout,
            cap_blocks,
            max_open: config.max_open_zones.max(1),
            max_active: config.max_active_zones.max(1),
            state: Mutex::new(DevState {
                zones,
                implicit_lru: VecDeque::new(),
                open_count: 0,
                active_count: 0,
            }),
            host_blocks_written: Counter::new(),
            host_blocks_read: Counter::new(),
            zone_resets: Counter::new(),
            zone_finishes: Counter::new(),
            injector: None,
        }
    }

    /// Attaches a fault plan consulted on every zone write, append, read,
    /// reset, and finish — the zoned counterpart of wrapping a block device
    /// in `sim::fault::FaultyDevice`. Torn zone writes persist a prefix of
    /// the payload and advance the write pointer only that far, exactly what
    /// a power loss mid-program leaves behind on real zoned hardware.
    pub fn with_fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The attached fault plan, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    fn decide(&self, op: FaultOp, payload_len: usize, now: Nanos) -> Injection {
        self.injector
            .as_ref()
            .map_or(Injection::None, |inj| inj.decide_at(op, payload_len, now))
    }

    /// Number of zones.
    pub fn num_zones(&self) -> u32 {
        self.layout.num_zones()
    }

    /// Zone size in 4 KiB blocks.
    pub fn zone_size_blocks(&self) -> u64 {
        self.layout.zone_size_blocks()
    }

    /// Writable capacity per zone in 4 KiB blocks.
    pub fn zone_cap_blocks(&self) -> u64 {
        self.cap_blocks
    }

    /// Writable capacity per zone in bytes.
    pub fn zone_cap_bytes(&self) -> u64 {
        self.cap_blocks * BLOCK_SIZE as u64
    }

    /// Total writable capacity in bytes (all zones).
    pub fn capacity_bytes(&self) -> u64 {
        self.zone_cap_bytes() * self.num_zones() as u64
    }

    /// Maximum concurrently open zones.
    pub fn max_open_zones(&self) -> u32 {
        self.max_open
    }

    /// Maximum concurrently active zones.
    pub fn max_active_zones(&self) -> u32 {
        self.max_active
    }

    /// The zone → flash layout.
    pub fn layout(&self) -> &ZoneLayout {
        &self.layout
    }

    /// The underlying flash array (shared with nothing else).
    pub fn nand(&self) -> &NandArray {
        &self.array
    }

    /// Device statistics.
    pub fn stats(&self) -> ZnsStatsSnapshot {
        ZnsStatsSnapshot {
            host_blocks_written: self.host_blocks_written.get(),
            host_blocks_read: self.host_blocks_read.get(),
            zone_resets: self.zone_resets.get(),
            zone_finishes: self.zone_finishes.get(),
            media_bytes_written: self.array.stats().bytes_programmed(),
        }
    }

    fn check_zone(&self, zone: ZoneId) -> Result<(), ZnsError> {
        if zone.0 >= self.layout.num_zones() {
            Err(ZnsError::NoSuchZone {
                zone: zone.0,
                zones: self.layout.num_zones(),
            })
        } else {
            Ok(())
        }
    }

    /// Current state of a zone.
    ///
    /// # Errors
    ///
    /// [`ZnsError::NoSuchZone`] for an invalid index.
    pub fn zone_state(&self, zone: ZoneId) -> Result<ZoneState, ZnsError> {
        self.check_zone(zone)?;
        Ok(self.state.lock().zones[zone.0 as usize].state)
    }

    /// Report-zones information for one zone.
    ///
    /// # Errors
    ///
    /// [`ZnsError::NoSuchZone`] for an invalid index.
    pub fn zone_info(&self, zone: ZoneId) -> Result<ZoneInfo, ZnsError> {
        self.check_zone(zone)?;
        let meta = self.state.lock().zones[zone.0 as usize];
        Ok(ZoneInfo {
            id: zone,
            state: meta.state,
            write_pointer: meta.wp,
            capacity: self.cap_blocks,
            reset_count: meta.reset_count,
        })
    }

    /// Report-zones for the whole device.
    pub fn report_zones(&self) -> Vec<ZoneInfo> {
        let state = self.state.lock();
        state
            .zones
            .iter()
            .enumerate()
            .map(|(i, meta)| ZoneInfo {
                id: ZoneId(i as u32),
                state: meta.state,
                write_pointer: meta.wp,
                capacity: self.cap_blocks,
                reset_count: meta.reset_count,
            })
            .collect()
    }

    /// Zones currently in [`ZoneState::Empty`].
    pub fn empty_zones(&self) -> u32 {
        self.state
            .lock()
            .zones
            .iter()
            .filter(|z| z.state == ZoneState::Empty)
            .count() as u32
    }

    /// Zones degraded to [`ZoneState::ReadOnly`].
    pub fn readonly_zones(&self) -> u32 {
        self.state
            .lock()
            .zones
            .iter()
            .filter(|z| z.state == ZoneState::ReadOnly)
            .count() as u32
    }

    /// Zones degraded to [`ZoneState::Offline`].
    pub fn offline_zones(&self) -> u32 {
        self.state
            .lock()
            .zones
            .iter()
            .filter(|z| z.state == ZoneState::Offline)
            .count() as u32
    }

    /// Writable capacity in bytes counting only non-degraded zones —
    /// the number eviction watermarks must track as the device dies.
    pub fn usable_capacity_bytes(&self) -> u64 {
        let dead = self
            .state
            .lock()
            .zones
            .iter()
            .filter(|z| z.state.is_degraded())
            .count() as u64;
        self.zone_cap_bytes() * (self.num_zones() as u64 - dead)
    }

    /// Acquires open/active resources so `zone` can accept writes.
    ///
    /// Holding the device lock, applies an *opening* op (`Write` or
    /// `Open`) through the [`crate::state_machine`] authority,
    /// auto-closing the oldest implicitly-open zone when open resources
    /// are exhausted — the behaviour NVMe mandates for implicit opens.
    fn acquire_open(
        state: &mut DevState,
        zone: ZoneId,
        op: ZoneOp,
        max_open: u32,
        max_active: u32,
    ) -> Result<(), ZnsError> {
        let meta = state.zones[zone.0 as usize];
        let cur = meta.state;
        let wp_zero = meta.wp == 0;
        // Plan the transition first: an illegal pair is a typed error
        // before any resource accounting is touched.
        let target = state_machine::transition(cur, op, wp_zero).map_err(|e| e.into_zns(zone))?;
        debug_assert!(target.is_open(), "acquire_open only serves opening ops");
        if cur == target {
            return Ok(());
        }
        if cur.is_open() {
            // Implicit → explicit keeps the same resources.
            if cur == ZoneState::ImplicitOpen {
                state.implicit_lru.retain(|&z| z != zone.0);
            }
            let next = state_machine::step(&mut state.zones[zone.0 as usize].state, op, wp_zero)
                .map_err(|e| e.into_zns(zone))?;
            if next == ZoneState::ImplicitOpen {
                state.implicit_lru.push_back(zone.0);
            }
            return Ok(());
        }
        // Need an active slot for Empty zones.
        if cur == ZoneState::Empty && state.active_count >= max_active {
            return Err(ZnsError::TooManyActiveZones { limit: max_active });
        }
        // Need an open slot; auto-close the oldest implicit-open if full.
        if state.open_count >= max_open {
            match state.implicit_lru.pop_front() {
                Some(victim) => {
                    let vm = &mut state.zones[victim as usize];
                    debug_assert_eq!(vm.state, ZoneState::ImplicitOpen);
                    let vm_wp_zero = vm.wp == 0;
                    let closed = state_machine::step(&mut vm.state, ZoneOp::Close, vm_wp_zero)
                        .map_err(|e| e.into_zns(ZoneId(victim)))?;
                    if closed == ZoneState::Empty {
                        state.active_count -= 1;
                    }
                    state.open_count -= 1;
                }
                None => {
                    // All opens are explicit; the host must close one.
                    return Err(ZnsError::TooManyActiveZones { limit: max_open });
                }
            }
        }
        if cur == ZoneState::Empty {
            state.active_count += 1;
        }
        state.open_count += 1;
        let next = state_machine::step(&mut state.zones[zone.0 as usize].state, op, wp_zero)
            .map_err(|e| e.into_zns(zone))?;
        if next == ZoneState::ImplicitOpen {
            state.implicit_lru.push_back(zone.0);
        }
        Ok(())
    }

    /// Applies a resource-releasing op (`Close`, `Finish`, `Reset`, or a
    /// zone-filling `Write`) through the state-machine authority and
    /// updates the open/active accounting. Returns the new state.
    fn release_zone(state: &mut DevState, zone: ZoneId, op: ZoneOp) -> Result<ZoneState, ZnsError> {
        let was = state.zones[zone.0 as usize].state;
        let wp_zero = state.zones[zone.0 as usize].wp == 0;
        let to = state_machine::step(&mut state.zones[zone.0 as usize].state, op, wp_zero)
            .map_err(|e| e.into_zns(zone))?;
        if was.is_open() {
            state.open_count -= 1;
            if was == ZoneState::ImplicitOpen {
                state.implicit_lru.retain(|&z| z != zone.0);
            }
        }
        if was.is_active() && !to.is_active() {
            state.active_count -= 1;
        } else if !was.is_active() && to.is_active() {
            state.active_count += 1;
        }
        Ok(to)
    }

    /// Applies a controller-initiated degradation through the state
    /// machine, fixing up resource accounting and emitting the matching
    /// trace event. Data below the write pointer is preserved: a
    /// Read-Only zone keeps serving reads at its frozen pointer.
    fn degrade_locked(
        &self,
        state: &mut DevState,
        zone: ZoneId,
        offline: bool,
        now: Nanos,
    ) -> Result<ZoneState, ZnsError> {
        let op = if offline {
            ZoneOp::DegradeOffline
        } else {
            ZoneOp::DegradeReadOnly
        };
        let resets = state.zones[zone.0 as usize].reset_count;
        let to = Self::release_zone(state, zone, op)?;
        let kind = if offline {
            sim::trace::EventKind::ZoneOffline
        } else {
            sim::trace::EventKind::ZoneReadOnly
        };
        sim::trace::emit(kind, now, zone.0 as u64, if offline { 0 } else { resets });
        #[cfg(debug_assertions)]
        self.debug_validate(state);
        Ok(to)
    }

    /// The error a command reports after its target zone degrades under
    /// it. If the zone was already at (or past) the requested state, the
    /// current state is reported instead — degradation never un-happens.
    fn degrade_error(
        &self,
        state: &mut DevState,
        zone: ZoneId,
        offline: bool,
        now: Nanos,
    ) -> ZnsError {
        match self.degrade_locked(state, zone, offline, now) {
            Ok(to) => ZnsError::ZoneDegraded { zone, state: to },
            Err(_) => ZnsError::ZoneDegraded {
                zone,
                state: state.zones[zone.0 as usize].state,
            },
        }
    }

    /// Forces a zone into a degraded terminal state (Read-Only, or
    /// Offline when `offline`), as wear-out scenarios and tests do
    /// directly. Returns the new state.
    ///
    /// # Errors
    ///
    /// [`ZnsError::NoSuchZone`]; [`ZnsError::InvalidState`] when the zone
    /// is already at or past the requested state.
    pub fn degrade(&self, zone: ZoneId, offline: bool, now: Nanos) -> Result<ZoneState, ZnsError> {
        self.check_zone(zone)?;
        let mut state = self.state.lock();
        self.degrade_locked(&mut state, zone, offline, now)
    }

    /// Debug-build invariant sweep over the whole device state:
    ///
    /// * `open_count` / `active_count` match a recount of zone states and
    ///   respect the configured limits;
    /// * every write pointer is within zone capacity, and `Empty` zones
    ///   sit exactly at zero (write-pointer monotonicity is asserted at
    ///   the write site, where the previous pointer is in hand);
    /// * the implicit-open LRU contains exactly the implicitly-open
    ///   zones, each once.
    ///
    /// Called after every state-mutating command; compiled out of
    /// release builds.
    #[cfg(debug_assertions)]
    fn debug_validate(&self, state: &DevState) {
        let open = state.zones.iter().filter(|z| z.state.is_open()).count() as u32;
        let active = state.zones.iter().filter(|z| z.state.is_active()).count() as u32;
        debug_assert_eq!(open, state.open_count, "open_count out of sync with zone states");
        debug_assert_eq!(active, state.active_count, "active_count out of sync with zone states");
        debug_assert!(open <= self.max_open, "open-zone limit violated: {open} > {}", self.max_open);
        debug_assert!(
            active <= self.max_active,
            "active-zone limit violated: {active} > {}",
            self.max_active
        );
        for (i, z) in state.zones.iter().enumerate() {
            debug_assert!(
                z.wp <= self.cap_blocks,
                "zone {i}: write pointer {} beyond capacity {}",
                z.wp,
                self.cap_blocks
            );
            if z.state == ZoneState::Empty {
                debug_assert_eq!(z.wp, 0, "zone {i}: Empty with an advanced write pointer");
            }
        }
        let mut lru: Vec<u32> = state.implicit_lru.iter().copied().collect();
        lru.sort_unstable();
        lru.dedup();
        debug_assert_eq!(lru.len(), state.implicit_lru.len(), "implicit LRU holds duplicates");
        for &z in &state.implicit_lru {
            debug_assert_eq!(
                state.zones[z as usize].state,
                ZoneState::ImplicitOpen,
                "implicit LRU holds zone {z} which is not implicitly open"
            );
        }
    }

    /// Writes `data` at the zone's write pointer, implicitly opening it.
    ///
    /// Returns the completion time.
    ///
    /// # Errors
    ///
    /// [`ZnsError::Misaligned`], [`ZnsError::InvalidState`] (full zone),
    /// [`ZnsError::ZoneBoundary`], [`ZnsError::TooManyActiveZones`].
    pub fn write(&self, zone: ZoneId, data: &[u8], now: Nanos) -> Result<Nanos, ZnsError> {
        self.write_at_wp(zone, Payload::Bytes(data), now)
    }

    /// Writes one block at the zone's write pointer by reference: the same
    /// command as [`Self::write`] (same checks, fault decision, schedule
    /// and counters), but the flash page keeps a reference to `page`
    /// instead of a copy. With [`Self::read_shared`] this is a block copy
    /// that moves no bytes. An injected bit flip stores a corrupted private
    /// copy and leaves `page` as it was.
    ///
    /// # Errors
    ///
    /// As [`Self::write`].
    pub fn write_shared(
        &self,
        zone: ZoneId,
        page: &SharedPage,
        now: Nanos,
    ) -> Result<Nanos, ZnsError> {
        self.write_at_wp(zone, Payload::Page(page), now)
    }

    fn write_at_wp(&self, zone: ZoneId, payload: Payload<'_>, now: Nanos) -> Result<Nanos, ZnsError> {
        let wp = {
            self.check_zone(zone)?;
            self.state.lock().zones[zone.0 as usize].wp
        };
        self.write_at_inner(zone, wp, payload, now, false, None)
    }

    /// Writes `data` at an explicit zone offset, which must equal the write
    /// pointer — the check that distinguishes zoned from block devices.
    ///
    /// # Errors
    ///
    /// As [`Self::write`], plus [`ZnsError::NotAtWritePointer`].
    pub fn write_at(
        &self,
        zone: ZoneId,
        offset_blocks: u64,
        data: &[u8],
        now: Nanos,
    ) -> Result<Nanos, ZnsError> {
        // A positioned write is a monolithic burst: the controller cannot
        // suspend it at page granularity, so reads landing on its dies pay
        // the full `read_suspend` fee (queued = false).
        self.write_at_inner(zone, offset_blocks, Payload::Bytes(data), now, false, None)
    }

    /// The one write path of every write and append command, whatever the
    /// payload: protocol checks, the fault decision, the write-pointer and
    /// state-machine update, the page programs and the host counter.
    fn write_at_inner(
        &self,
        zone: ZoneId,
        offset_blocks: u64,
        payload: Payload<'_>,
        now: Nanos,
        queued: bool,
        mut service: Option<&mut Vec<DieService>>,
    ) -> Result<Nanos, ZnsError> {
        self.check_zone(zone)?;
        if payload.is_empty() || !payload.len().is_multiple_of(BLOCK_SIZE) {
            return Err(ZnsError::Misaligned { len: payload.len() });
        }
        let nblocks = (payload.len() / BLOCK_SIZE) as u64;

        let start_offset;
        // Injected faults fire only after every protocol check passes:
        // a rejected command never reaches the media, so it must not
        // consume a fault credit either.
        let injection;
        let mut persist_blocks = nblocks;
        {
            let mut state = self.state.lock();
            let meta = state.zones[zone.0 as usize];
            if !meta.state.is_writable() {
                // A degraded zone is a media condition the host routes
                // around, not a protocol mistake it can correct.
                if meta.state.is_degraded() {
                    return Err(ZnsError::ZoneDegraded {
                        zone,
                        state: meta.state,
                    });
                }
                return Err(ZnsError::InvalidState {
                    zone,
                    state: meta.state,
                    op: "write",
                });
            }
            if offset_blocks != meta.wp {
                return Err(ZnsError::NotAtWritePointer {
                    zone,
                    write_pointer: meta.wp,
                    attempted: offset_blocks,
                });
            }
            if meta.wp + nblocks > self.cap_blocks {
                return Err(ZnsError::ZoneBoundary {
                    zone,
                    remaining: self.cap_blocks - meta.wp,
                    attempted: nblocks,
                });
            }
            injection = self.decide(FaultOp::Write, payload.len(), now);
            match injection {
                Injection::Fail => {
                    return Err(ZnsError::Injected(format!(
                        "zone write fault at {zone} offset {offset_blocks}"
                    )))
                }
                // A torn write programs a prefix and leaves the pointer
                // there; keep_blocks < nblocks, so the zone cannot fill.
                Injection::Torn { keep_blocks } => persist_blocks = keep_blocks,
                // The program failed so hard the controller retired the
                // zone: nothing persists, existing data stays readable
                // (Read-Only) or is gone with the zone (Offline).
                Injection::DegradeReadOnly => {
                    return Err(self.degrade_error(&mut state, zone, false, now))
                }
                Injection::DegradeOffline => {
                    return Err(self.degrade_error(&mut state, zone, true, now))
                }
                Injection::None | Injection::BitFlip { .. } => {}
            }
            Self::acquire_open(
                &mut state,
                zone,
                ZoneOp::Write { fills: false },
                self.max_open,
                self.max_active,
            )?;
            start_offset = meta.wp;
            state.zones[zone.0 as usize].wp += persist_blocks;
            let new_wp = state.zones[zone.0 as usize].wp;
            // Write-pointer monotonicity: a write may only advance the
            // pointer, and never past the zone capacity.
            debug_assert!(
                new_wp >= start_offset && new_wp <= self.cap_blocks,
                "{zone}: write pointer moved {start_offset} -> {new_wp} (cap {})",
                self.cap_blocks
            );
            if new_wp == self.cap_blocks {
                // NVMe full zones hold no open/active resources.
                Self::release_zone(&mut state, zone, ZoneOp::Write { fills: true })?;
            }
            #[cfg(debug_assertions)]
            self.debug_validate(&state);
        }

        // A bit flip corrupts a private copy; a shared source page stays
        // clean for everyone else holding it.
        let mut corrupted;
        let payload = match injection {
            Injection::BitFlip { bit } => {
                corrupted = payload.bytes().to_vec();
                flip_bit(&mut corrupted, bit);
                Payload::Bytes(&corrupted)
            }
            _ => payload,
        };

        // Program the pages; completion is the slowest page. Queued
        // (append-path) programs register page-granular suspend points on
        // their dies and report per-die service windows.
        let mut done = now;
        for i in 0..persist_blocks {
            let page = self.layout.page_of(zone, start_offset + i);
            let (start, t) = self
                .array
                .program(page, payload.block(i as usize, BLOCK_SIZE), now, queued)
                .map_err(nand_error)?;
            done = done.max(t);
            if let Some(service) = service.as_deref_mut() {
                let g = self.array.geometry();
                let die = g.die_of_block(g.block_of_page(page)).0;
                match service.iter_mut().find(|s| s.die == die) {
                    Some(s) => {
                        s.start = s.start.min(start);
                        s.end = s.end.max(t);
                    }
                    None => service.push(DieService {
                        die,
                        start,
                        end: t,
                    }),
                }
            }
        }
        self.host_blocks_written.add(persist_blocks);
        if let Injection::Torn { keep_blocks } = injection {
            return Err(ZnsError::Injected(format!(
                "torn zone write at {zone}: {keep_blocks} of {nblocks} blocks persisted"
            )));
        }
        Ok(done)
    }

    /// Zone append: writes at the pointer and returns the assigned offset
    /// (in 4 KiB blocks from zone start) along with the completion time.
    ///
    /// # Errors
    ///
    /// As [`Self::write`].
    pub fn append(
        &self,
        zone: ZoneId,
        data: &[u8],
        now: Nanos,
    ) -> Result<(u64, Nanos), ZnsError> {
        self.check_zone(zone)?;
        let wp = self.state.lock().zones[zone.0 as usize].wp;
        // Appends are issued as queued page programs: the controller can
        // suspend them at every page boundary, so reads on the same dies
        // pay the cheap `program_suspend` fee instead of `read_suspend`.
        let done = self.write_at_inner(zone, wp, Payload::Bytes(data), now, true, None)?;
        Ok((wp, done))
    }

    /// Zone append that also reports the per-die service intervals the
    /// command occupied — the raw material for the overlapped-per-die
    /// trace evidence during a region flush.
    ///
    /// # Errors
    ///
    /// As [`Self::write`].
    pub fn append_with_service(
        &self,
        zone: ZoneId,
        data: &[u8],
        now: Nanos,
    ) -> Result<(u64, Nanos, Vec<DieService>), ZnsError> {
        self.check_zone(zone)?;
        let wp = self.state.lock().zones[zone.0 as usize].wp;
        let mut service = Vec::new();
        let done =
            self.write_at_inner(zone, wp, Payload::Bytes(data), now, true, Some(&mut service))?;
        Ok((wp, done, service))
    }

    /// Reads `buf.len() / 4096` blocks starting at `offset_blocks`.
    ///
    /// # Errors
    ///
    /// [`ZnsError::ReadBeyondWritePointer`] when reading unwritten space,
    /// plus alignment/range errors.
    pub fn read(
        &self,
        zone: ZoneId,
        offset_blocks: u64,
        buf: &mut [u8],
        now: Nanos,
    ) -> Result<Nanos, ZnsError> {
        let (done, flip) = self.read_blocks(zone, offset_blocks, buf.len(), now, |i, page| {
            let chunk = &mut buf[i * BLOCK_SIZE..(i + 1) * BLOCK_SIZE];
            self.array.read_page(page, chunk, now)
        })?;
        if let Some(bit) = flip {
            // Media kept the data; the host's copy comes back corrupted.
            flip_bit(buf, bit);
        }
        Ok(done)
    }

    /// Reads one block by reference: the same command as a one-block
    /// [`Self::read`] (same checks, fault decision, schedule and counters),
    /// but the block comes back as a [`SharedPage`] instead of being copied
    /// out. An injected bit flip corrupts only the returned page, a private
    /// copy; the media keeps the data.
    ///
    /// # Errors
    ///
    /// As [`Self::read`].
    pub fn read_shared(
        &self,
        zone: ZoneId,
        offset_blocks: u64,
        now: Nanos,
    ) -> Result<(SharedPage, Nanos), ZnsError> {
        let mut shared = None;
        let (done, flip) = self.read_blocks(zone, offset_blocks, BLOCK_SIZE, now, |_, page| {
            let (read, t) = self.array.read_page_shared(page, now)?;
            shared = Some(read);
            Ok(t)
        })?;
        let mut page = shared.expect("a one-block read reads one page");
        if let Some(bit) = flip {
            let mut corrupted = page.to_vec();
            flip_bit(&mut corrupted, bit);
            page = SharedPage::from(corrupted);
        }
        Ok((page, done))
    }

    /// The one read path of both read commands: protocol checks, the fault
    /// decision, one `read_page` call per block in order, and the host
    /// counter. Returns the completion time and the bit an injected flip
    /// asks the caller to corrupt in the host's copy.
    fn read_blocks(
        &self,
        zone: ZoneId,
        offset_blocks: u64,
        len: usize,
        now: Nanos,
        mut read_page: impl FnMut(usize, PageAddr) -> Result<Nanos, NandError>,
    ) -> Result<(Nanos, Option<u64>), ZnsError> {
        self.check_zone(zone)?;
        if len == 0 || !len.is_multiple_of(BLOCK_SIZE) {
            return Err(ZnsError::Misaligned { len });
        }
        let nblocks = (len / BLOCK_SIZE) as u64;
        {
            let state = self.state.lock();
            let meta = state.zones[zone.0 as usize];
            // Offline zones serve nothing; Read-Only (and every healthy
            // state) keeps serving data below the frozen pointer.
            if !meta.state.is_readable() {
                return Err(ZnsError::ZoneDegraded {
                    zone,
                    state: meta.state,
                });
            }
            if offset_blocks + nblocks > meta.wp {
                return Err(ZnsError::ReadBeyondWritePointer {
                    zone,
                    write_pointer: meta.wp,
                    attempted: offset_blocks,
                });
            }
        }
        let flip = match self.decide(FaultOp::Read, len, now) {
            Injection::Fail | Injection::Torn { .. } => {
                return Err(ZnsError::Injected(format!(
                    "zone read fault at {zone} offset {offset_blocks}"
                )));
            }
            // The controller retired the zone on a failing read (read
            // disturb): this read fails, but a Read-Only zone still
            // serves the retry.
            Injection::DegradeReadOnly => {
                let mut state = self.state.lock();
                return Err(self.degrade_error(&mut state, zone, false, now));
            }
            Injection::DegradeOffline => {
                let mut state = self.state.lock();
                return Err(self.degrade_error(&mut state, zone, true, now));
            }
            Injection::BitFlip { bit } => Some(bit),
            Injection::None => None,
        };
        let mut done = now;
        for i in 0..nblocks {
            let page = self.layout.page_of(zone, offset_blocks + i);
            done = done.max(read_page(i as usize, page).map_err(nand_error)?);
        }
        self.host_blocks_read.add(nblocks);
        Ok((done, flip))
    }

    /// Resets a zone: erases its blocks, rewinds the pointer, state Empty.
    ///
    /// Returns the completion time of the slowest erase.
    ///
    /// # Errors
    ///
    /// [`ZnsError::NoSuchZone`].
    pub fn reset(&self, zone: ZoneId, now: Nanos) -> Result<Nanos, ZnsError> {
        self.check_zone(zone)?;
        match self.decide(FaultOp::Trim, 0, now) {
            Injection::None => {}
            // The erase failed permanently: wear-out. The zone keeps its
            // data and pointer but leaves service.
            Injection::DegradeReadOnly => {
                let mut state = self.state.lock();
                return Err(self.degrade_error(&mut state, zone, false, now));
            }
            Injection::DegradeOffline => {
                let mut state = self.state.lock();
                return Err(self.degrade_error(&mut state, zone, true, now));
            }
            _ => return Err(ZnsError::Injected(format!("zone reset fault at {zone}"))),
        }
        {
            let mut state = self.state.lock();
            let meta = state.zones[zone.0 as usize];
            if meta.state.is_degraded() {
                return Err(ZnsError::ZoneDegraded {
                    zone,
                    state: meta.state,
                });
            }
            Self::release_zone(&mut state, zone, ZoneOp::Reset)?;
            let meta = &mut state.zones[zone.0 as usize];
            meta.wp = 0;
            meta.reset_count += 1;
            #[cfg(debug_assertions)]
            self.debug_validate(&state);
        }
        let mut done = now;
        for block in self.layout.blocks_of(zone) {
            let t = self.array.erase_block(block, now).map_err(nand_error)?;
            done = done.max(t);
        }
        self.zone_resets.incr();
        sim::trace::emit(sim::trace::EventKind::ZoneReset, done, zone.0 as u64, 0);
        Ok(done)
    }

    /// Finishes a zone: marks it Full so it holds no resources and accepts
    /// no further writes until reset.
    ///
    /// # Errors
    ///
    /// [`ZnsError::InvalidState`] if the zone is already Full.
    pub fn finish(&self, zone: ZoneId, now: Nanos) -> Result<Nanos, ZnsError> {
        self.check_zone(zone)?;
        match self.decide(FaultOp::Trim, 0, now) {
            Injection::None => {}
            Injection::DegradeReadOnly => {
                let mut state = self.state.lock();
                return Err(self.degrade_error(&mut state, zone, false, now));
            }
            Injection::DegradeOffline => {
                let mut state = self.state.lock();
                return Err(self.degrade_error(&mut state, zone, true, now));
            }
            _ => return Err(ZnsError::Injected(format!("zone finish fault at {zone}"))),
        }
        let mut state = self.state.lock();
        {
            let meta = state.zones[zone.0 as usize];
            if meta.state.is_degraded() {
                return Err(ZnsError::ZoneDegraded {
                    zone,
                    state: meta.state,
                });
            }
        }
        // The state machine rejects finishing a Full zone with the same
        // typed error the manual check used to produce.
        Self::release_zone(&mut state, zone, ZoneOp::Finish)?;
        #[cfg(debug_assertions)]
        self.debug_validate(&state);
        drop(state);
        self.zone_finishes.incr();
        sim::trace::emit(sim::trace::EventKind::ZoneFinish, now, zone.0 as u64, 0);
        Ok(now)
    }

    /// Explicitly opens a zone, reserving open resources for the host.
    ///
    /// # Errors
    ///
    /// [`ZnsError::InvalidState`] on Full zones,
    /// [`ZnsError::TooManyActiveZones`] when resources are exhausted.
    pub fn open(&self, zone: ZoneId, _now: Nanos) -> Result<(), ZnsError> {
        self.check_zone(zone)?;
        let mut state = self.state.lock();
        // The state machine rejects opening a Full zone with the same
        // typed error the manual check used to produce.
        Self::acquire_open(&mut state, zone, ZoneOp::Open, self.max_open, self.max_active)?;
        #[cfg(debug_assertions)]
        self.debug_validate(&state);
        Ok(())
    }

    /// Closes an open zone, releasing its open (but not active) resources.
    ///
    /// A closed zone with an untouched pointer returns to Empty, per spec.
    ///
    /// # Errors
    ///
    /// [`ZnsError::InvalidState`] unless the zone is open.
    pub fn close(&self, zone: ZoneId, _now: Nanos) -> Result<(), ZnsError> {
        self.check_zone(zone)?;
        let mut state = self.state.lock();
        // Close is only legal from an open state, and lands in Empty or
        // Closed depending on the pointer — all encoded in the machine.
        Self::release_zone(&mut state, zone, ZoneOp::Close)?;
        #[cfg(debug_assertions)]
        self.debug_validate(&state);
        Ok(())
    }
}

/// A flash error under a zone command: a bug in the zone layer above the
/// array, surfaced as a typed device error.
fn nand_error(e: NandError) -> ZnsError {
    ZnsError::Nand(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> ZnsDevice {
        ZnsDevice::new(ZnsConfig::small_test())
    }

    fn blocks(n: usize, fill: u8) -> Vec<u8> {
        vec![fill; n * BLOCK_SIZE]
    }

    #[test]
    fn sequential_write_read_round_trip() {
        let d = dev();
        let t1 = d.write(ZoneId(0), &blocks(2, 0xaa), Nanos::ZERO).unwrap();
        let t2 = d.write(ZoneId(0), &blocks(1, 0xbb), t1).unwrap();
        let mut buf = blocks(3, 0);
        d.read(ZoneId(0), 0, &mut buf, t2).unwrap();
        assert!(buf[..2 * BLOCK_SIZE].iter().all(|&b| b == 0xaa));
        assert!(buf[2 * BLOCK_SIZE..].iter().all(|&b| b == 0xbb));
        assert_eq!(d.zone_info(ZoneId(0)).unwrap().write_pointer, 3);
    }

    #[test]
    fn write_off_pointer_rejected() {
        let d = dev();
        d.write(ZoneId(0), &blocks(1, 1), Nanos::ZERO).unwrap();
        let err = d
            .write_at(ZoneId(0), 5, &blocks(1, 1), Nanos::ZERO)
            .unwrap_err();
        assert!(matches!(err, ZnsError::NotAtWritePointer { write_pointer: 1, attempted: 5, .. }));
    }

    #[test]
    fn read_beyond_wp_rejected() {
        let d = dev();
        d.write(ZoneId(0), &blocks(1, 1), Nanos::ZERO).unwrap();
        let mut buf = blocks(2, 0);
        assert!(matches!(
            d.read(ZoneId(0), 0, &mut buf, Nanos::ZERO),
            Err(ZnsError::ReadBeyondWritePointer { .. })
        ));
    }

    #[test]
    fn zone_fills_to_full_and_rejects_then_reset_reopens() {
        let d = dev();
        let cap = d.zone_cap_blocks() as usize;
        let t = d.write(ZoneId(1), &blocks(cap, 3), Nanos::ZERO).unwrap();
        assert_eq!(d.zone_state(ZoneId(1)).unwrap(), ZoneState::Full);
        assert!(matches!(
            d.write(ZoneId(1), &blocks(1, 3), t),
            Err(ZnsError::InvalidState { op: "write", .. })
        ));
        let t = d.reset(ZoneId(1), t).unwrap();
        assert_eq!(d.zone_state(ZoneId(1)).unwrap(), ZoneState::Empty);
        assert_eq!(d.zone_info(ZoneId(1)).unwrap().reset_count, 1);
        d.write(ZoneId(1), &blocks(1, 4), t).unwrap();
        // Reset wiped the old data: reading block 0 now returns new data.
        let mut buf = blocks(1, 0);
        d.read(ZoneId(1), 0, &mut buf, t).unwrap();
        assert!(buf.iter().all(|&b| b == 4));
    }

    #[test]
    fn boundary_crossing_write_rejected_whole() {
        let d = dev();
        let cap = d.zone_cap_blocks() as usize;
        d.write(ZoneId(0), &blocks(cap - 1, 1), Nanos::ZERO).unwrap();
        let err = d.write(ZoneId(0), &blocks(2, 1), Nanos::ZERO).unwrap_err();
        assert!(matches!(err, ZnsError::ZoneBoundary { remaining: 1, attempted: 2, .. }));
        // Nothing was written.
        assert_eq!(d.zone_info(ZoneId(0)).unwrap().write_pointer, (cap - 1) as u64);
    }

    #[test]
    fn append_returns_assigned_offsets() {
        let d = dev();
        let (o1, t1) = d.append(ZoneId(2), &blocks(2, 7), Nanos::ZERO).unwrap();
        let (o2, _) = d.append(ZoneId(2), &blocks(1, 8), t1).unwrap();
        assert_eq!((o1, o2), (0, 2));
    }

    #[test]
    fn append_service_intervals_overlap_across_dies() {
        let d = dev(); // small_test stripes each zone over 2 dies
        let (off, done, service) = d
            .append_with_service(ZoneId(0), &blocks(2, 5), Nanos::ZERO)
            .unwrap();
        assert_eq!(off, 0);
        assert_eq!(service.len(), 2, "one interval per striped die");
        assert_ne!(service[0].die, service[1].die);
        for s in &service {
            assert!(s.start < s.end && s.end <= done);
        }
        // The dies program concurrently: each starts before the other ends.
        let (a, b) = (&service[0], &service[1]);
        assert!(
            a.start < b.end && b.start < a.end,
            "per-die service intervals must overlap: {a:?} vs {b:?}"
        );
    }

    #[test]
    fn implicit_open_limit_autocloses_oldest() {
        let d = dev(); // max_open = 4
        for z in 0..5 {
            d.write(ZoneId(z), &blocks(1, z as u8 + 1), Nanos::ZERO).unwrap();
        }
        // Zone 0 (oldest implicit open) was auto-closed.
        assert_eq!(d.zone_state(ZoneId(0)).unwrap(), ZoneState::Closed);
        assert_eq!(d.zone_state(ZoneId(4)).unwrap(), ZoneState::ImplicitOpen);
        // Closed zones can still be written at their pointer.
        d.write(ZoneId(0), &blocks(1, 9), Nanos::ZERO).unwrap();
        assert_eq!(d.zone_state(ZoneId(0)).unwrap(), ZoneState::ImplicitOpen);
    }

    #[test]
    fn active_zone_limit_enforced() {
        let d = dev(); // max_active = 6
        for z in 0..6 {
            d.write(ZoneId(z), &blocks(1, 1), Nanos::ZERO).unwrap();
        }
        let err = d.write(ZoneId(6), &blocks(1, 1), Nanos::ZERO).unwrap_err();
        assert!(matches!(err, ZnsError::TooManyActiveZones { .. }));
        // Finishing a zone frees an active slot.
        d.finish(ZoneId(0), Nanos::ZERO).unwrap();
        d.write(ZoneId(6), &blocks(1, 1), Nanos::ZERO).unwrap();
    }

    #[test]
    fn explicit_open_close_transitions() {
        let d = dev();
        d.open(ZoneId(3), Nanos::ZERO).unwrap();
        assert_eq!(d.zone_state(ZoneId(3)).unwrap(), ZoneState::ExplicitOpen);
        // Close with wp == 0 returns to Empty.
        d.close(ZoneId(3), Nanos::ZERO).unwrap();
        assert_eq!(d.zone_state(ZoneId(3)).unwrap(), ZoneState::Empty);
        // Open, write, close → Closed.
        d.open(ZoneId(3), Nanos::ZERO).unwrap();
        d.write(ZoneId(3), &blocks(1, 1), Nanos::ZERO).unwrap();
        d.close(ZoneId(3), Nanos::ZERO).unwrap();
        assert_eq!(d.zone_state(ZoneId(3)).unwrap(), ZoneState::Closed);
        assert!(matches!(
            d.close(ZoneId(3), Nanos::ZERO),
            Err(ZnsError::InvalidState { op: "close", .. })
        ));
    }

    #[test]
    fn finish_releases_resources_and_blocks_writes() {
        let d = dev();
        d.write(ZoneId(0), &blocks(1, 1), Nanos::ZERO).unwrap();
        d.finish(ZoneId(0), Nanos::ZERO).unwrap();
        assert_eq!(d.zone_state(ZoneId(0)).unwrap(), ZoneState::Full);
        assert!(d.write(ZoneId(0), &blocks(1, 1), Nanos::ZERO).is_err());
        assert!(matches!(
            d.finish(ZoneId(0), Nanos::ZERO),
            Err(ZnsError::InvalidState { op: "finish", .. })
        ));
        // Reads below the pointer still work on a finished zone.
        let mut buf = blocks(1, 0);
        d.read(ZoneId(0), 0, &mut buf, Nanos::ZERO).unwrap();
        assert!(buf.iter().all(|&b| b == 1));
    }

    #[test]
    fn device_wa_is_exactly_one() {
        let d = dev();
        let cap = d.zone_cap_blocks() as usize;
        let mut t = Nanos::ZERO;
        for z in 0..3 {
            t = d.write(ZoneId(z), &blocks(cap, 1), t).unwrap();
            t = d.reset(ZoneId(z), t).unwrap();
            t = d.write(ZoneId(z), &blocks(cap / 2, 2), t).unwrap();
        }
        let s = d.stats();
        assert_eq!(s.write_amplification(), 1.0);
        assert_eq!(s.zone_resets, 3);
        assert_eq!(
            s.media_bytes_written,
            s.host_blocks_written * BLOCK_SIZE as u64
        );
    }

    #[test]
    fn misaligned_and_out_of_range_rejected() {
        let d = dev();
        assert!(matches!(
            d.write(ZoneId(0), &[0u8; 100], Nanos::ZERO),
            Err(ZnsError::Misaligned { len: 100 })
        ));
        assert!(matches!(
            d.write(ZoneId(99), &blocks(1, 1), Nanos::ZERO),
            Err(ZnsError::NoSuchZone { .. })
        ));
        let mut buf = [0u8; 0];
        assert!(d.read(ZoneId(0), 0, &mut buf, Nanos::ZERO).is_err());
    }

    #[test]
    fn empty_zone_count_tracks_state() {
        let d = dev();
        let all = d.num_zones();
        assert_eq!(d.empty_zones(), all);
        d.write(ZoneId(0), &blocks(1, 1), Nanos::ZERO).unwrap();
        assert_eq!(d.empty_zones(), all - 1);
        d.reset(ZoneId(0), Nanos::ZERO).unwrap();
        assert_eq!(d.empty_zones(), all);
    }

    #[test]
    fn injected_write_fault_leaves_zone_untouched() {
        let inj = Arc::new(FaultInjector::default());
        let d = dev().with_fault_injector(Arc::clone(&inj));
        inj.push(sim::fault::FaultSpec::fail_writes(1));
        let err = d.write(ZoneId(0), &blocks(2, 1), Nanos::ZERO).unwrap_err();
        assert!(matches!(err, ZnsError::Injected(_)));
        // Nothing persisted: wp still 0, zone still Empty, credit consumed.
        assert_eq!(d.zone_info(ZoneId(0)).unwrap().write_pointer, 0);
        assert_eq!(d.zone_state(ZoneId(0)).unwrap(), ZoneState::Empty);
        d.write(ZoneId(0), &blocks(2, 1), Nanos::ZERO).unwrap();
    }

    #[test]
    fn torn_zone_write_persists_prefix_and_parks_wp() {
        let inj = Arc::new(FaultInjector::default());
        let d = dev().with_fault_injector(Arc::clone(&inj));
        inj.push(sim::fault::FaultSpec::torn_writes(1, 0.5));
        let err = d.write(ZoneId(0), &blocks(4, 0xcd), Nanos::ZERO).unwrap_err();
        assert!(matches!(err, ZnsError::Injected(_)), "{err}");
        // Half of the 4-block payload landed; the pointer sits after it.
        assert_eq!(d.zone_info(ZoneId(0)).unwrap().write_pointer, 2);
        let mut buf = blocks(2, 0);
        d.read(ZoneId(0), 0, &mut buf, Nanos::ZERO).unwrap();
        assert!(buf.iter().all(|&b| b == 0xcd));
        // The zone keeps accepting writes at the torn pointer.
        d.write(ZoneId(0), &blocks(1, 0xee), Nanos::ZERO).unwrap();
        assert_eq!(d.zone_info(ZoneId(0)).unwrap().write_pointer, 3);
    }

    #[test]
    fn injected_read_fault_then_recovers() {
        let inj = Arc::new(FaultInjector::default());
        let d = dev().with_fault_injector(Arc::clone(&inj));
        d.write(ZoneId(0), &blocks(1, 7), Nanos::ZERO).unwrap();
        inj.push(sim::fault::FaultSpec::fail_reads(1));
        let mut buf = blocks(1, 0);
        assert!(matches!(
            d.read(ZoneId(0), 0, &mut buf, Nanos::ZERO),
            Err(ZnsError::Injected(_))
        ));
        d.read(ZoneId(0), 0, &mut buf, Nanos::ZERO).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
    }

    #[test]
    fn corrupt_write_flips_one_bit_on_media() {
        let inj = Arc::new(FaultInjector::with_seed(9));
        let d = dev().with_fault_injector(Arc::clone(&inj));
        inj.push(sim::fault::FaultSpec::corrupt_writes(1));
        // The write itself succeeds — silent corruption.
        d.write(ZoneId(0), &blocks(2, 0xaa), Nanos::ZERO).unwrap();
        let mut buf = blocks(2, 0);
        d.read(ZoneId(0), 0, &mut buf, Nanos::ZERO).unwrap();
        let wrong = buf.iter().filter(|&&b| b != 0xaa).count();
        assert_eq!(wrong, 1, "exactly one byte should differ");
    }

    #[test]
    fn shared_read_bit_flip_corrupts_only_the_returned_page() {
        let inj = Arc::new(FaultInjector::with_seed(3));
        let d = dev().with_fault_injector(Arc::clone(&inj));
        d.write(ZoneId(0), &blocks(1, 0xaa), Nanos::ZERO).unwrap();
        inj.push(sim::fault::FaultSpec::corrupt_reads(1));
        let (page, _) = d.read_shared(ZoneId(0), 0, Nanos::ZERO).unwrap();
        assert_eq!(page.iter().filter(|&&b| b != 0xaa).count(), 1);
        assert_eq!(inj.injected(), 1);
        // The media kept the data: the source reads back clean either way.
        let (again, _) = d.read_shared(ZoneId(0), 0, Nanos::ZERO).unwrap();
        assert!(again.iter().all(|&b| b == 0xaa));
        let mut buf = blocks(1, 0);
        d.read(ZoneId(0), 0, &mut buf, Nanos::ZERO).unwrap();
        assert!(buf.iter().all(|&b| b == 0xaa));
    }

    #[test]
    fn shared_write_bit_flip_stores_a_corrupted_copy_and_leaves_the_source_clean() {
        let inj = Arc::new(FaultInjector::with_seed(9));
        let d = dev().with_fault_injector(Arc::clone(&inj));
        d.write(ZoneId(0), &blocks(1, 0x5a), Nanos::ZERO).unwrap();
        let (page, t) = d.read_shared(ZoneId(0), 0, Nanos::ZERO).unwrap();
        inj.push(sim::fault::FaultSpec::corrupt_writes(1));
        // The write itself succeeds — silent corruption.
        d.write_shared(ZoneId(1), &page, t).unwrap();
        assert!(page.iter().all(|&b| b == 0x5a), "the shared source page changed");
        let mut buf = blocks(1, 0);
        d.read(ZoneId(1), 0, &mut buf, t).unwrap();
        assert_eq!(buf.iter().filter(|&&b| b != 0x5a).count(), 1);
        d.read(ZoneId(0), 0, &mut buf, t).unwrap();
        assert!(buf.iter().all(|&b| b == 0x5a), "the source block changed");
    }

    /// Everything one read and one write of a one-block copy leave behind
    /// under a fault shape, by value or by reference: each command's
    /// outcome and the fault credits spent so far, then the zones, the
    /// counters, and what the destination holds.
    type CopyOutcome = (
        Result<(Vec<u8>, Nanos), ZnsError>,
        u64,
        Result<Nanos, ZnsError>,
        u64,
        Vec<ZoneInfo>,
        ZnsStatsSnapshot,
        Option<Vec<u8>>,
    );

    fn copy_under_fault(mode: sim::fault::FaultMode, shared: bool) -> CopyOutcome {
        let inj = Arc::new(FaultInjector::with_seed(5));
        let d = dev().with_fault_injector(Arc::clone(&inj));
        let src = blocks(1, 0x11);
        let t = d.write(ZoneId(0), &src, Nanos::ZERO).unwrap();
        // Two credits armed, so a command that consulted the plan twice
        // would show it.
        let arm = |reads: bool| {
            inj.clear();
            inj.push(sim::fault::FaultSpec {
                reads,
                writes: !reads,
                trims: false,
                mode,
                probability: 1.0,
                skip: 0,
                count: 2,
            });
        };
        arm(true);
        let read = if shared {
            d.read_shared(ZoneId(0), 0, t).map(|(page, t)| (page.to_vec(), t))
        } else {
            let mut buf = blocks(1, 0);
            d.read(ZoneId(0), 0, &mut buf, t).map(|t| (buf, t))
        };
        let read_credits = inj.injected();
        arm(false);
        let page = SharedPage::from(src.clone());
        let write = if shared {
            d.write_shared(ZoneId(1), &page, t)
        } else {
            d.write(ZoneId(1), &src, t)
        };
        assert_eq!(&*page, &src[..], "a shared source is never written through");
        let credits = inj.injected();
        inj.clear();
        let landed = (d.zone_info(ZoneId(1)).unwrap().write_pointer > 0).then(|| {
            let mut buf = blocks(1, 0);
            d.read(ZoneId(1), 0, &mut buf, t).unwrap();
            buf
        });
        (read, read_credits, write, credits, d.report_zones(), d.stats(), landed)
    }

    #[test]
    fn shared_commands_fail_tear_and_degrade_like_their_copying_twins() {
        use sim::fault::FaultMode;
        for mode in [
            FaultMode::Fail,
            FaultMode::Torn { fraction: 0.5 },
            FaultMode::BitFlip,
            FaultMode::DegradeReadOnly,
            FaultMode::DegradeOffline,
        ] {
            let by_value = copy_under_fault(mode, false);
            let by_ref = copy_under_fault(mode, true);
            assert_eq!(by_value.1, 1, "{mode:?}: the read took one credit");
            assert_eq!(by_value.3, 2, "{mode:?}: the write took one credit");
            assert!(by_value == by_ref, "{mode:?}: {by_value:?} != {by_ref:?}");
        }
    }

    #[test]
    fn reset_and_finish_consume_trim_faults() {
        let inj = Arc::new(FaultInjector::default());
        let d = dev().with_fault_injector(Arc::clone(&inj));
        d.write(ZoneId(0), &blocks(1, 1), Nanos::ZERO).unwrap();
        inj.push(sim::fault::FaultSpec::fail_trims(2));
        assert!(matches!(
            d.reset(ZoneId(0), Nanos::ZERO),
            Err(ZnsError::Injected(_))
        ));
        // Failed reset left the zone's data and pointer intact.
        assert_eq!(d.zone_info(ZoneId(0)).unwrap().write_pointer, 1);
        assert!(matches!(
            d.finish(ZoneId(0), Nanos::ZERO),
            Err(ZnsError::Injected(_))
        ));
        assert_ne!(d.zone_state(ZoneId(0)).unwrap(), ZoneState::Full);
        // Credits spent; both ops succeed now.
        d.finish(ZoneId(0), Nanos::ZERO).unwrap();
        d.reset(ZoneId(0), Nanos::ZERO).unwrap();
    }

    #[test]
    fn protocol_errors_do_not_consume_fault_credits() {
        let inj = Arc::new(FaultInjector::default());
        let d = dev().with_fault_injector(Arc::clone(&inj));
        inj.push(sim::fault::FaultSpec::fail_writes(1));
        // Misaligned + off-pointer writes are rejected before injection.
        assert!(matches!(
            d.write(ZoneId(0), &[0u8; 10], Nanos::ZERO),
            Err(ZnsError::Misaligned { .. })
        ));
        assert!(matches!(
            d.write_at(ZoneId(0), 5, &blocks(1, 1), Nanos::ZERO),
            Err(ZnsError::NotAtWritePointer { .. })
        ));
        assert_eq!(inj.injected(), 0);
        // The credit is still armed and fires on a valid write.
        assert!(d.write(ZoneId(0), &blocks(1, 1), Nanos::ZERO).is_err());
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn degrade_read_only_keeps_data_readable_blocks_writes_and_resets() {
        let d = dev();
        let t = d.write(ZoneId(0), &blocks(2, 0x5a), Nanos::ZERO).unwrap();
        d.degrade(ZoneId(0), false, t).unwrap();
        assert_eq!(d.zone_state(ZoneId(0)).unwrap(), ZoneState::ReadOnly);
        // Reads below the frozen pointer still work.
        let mut buf = blocks(2, 0);
        d.read(ZoneId(0), 0, &mut buf, t).unwrap();
        assert!(buf.iter().all(|&b| b == 0x5a));
        // Writes and resets are media errors now, not protocol errors.
        assert!(matches!(
            d.write(ZoneId(0), &blocks(1, 1), t),
            Err(ZnsError::ZoneDegraded { .. })
        ));
        assert!(matches!(d.reset(ZoneId(0), t), Err(ZnsError::ZoneDegraded { .. })));
        assert!(matches!(d.finish(ZoneId(0), t), Err(ZnsError::ZoneDegraded { .. })));
        assert_eq!(d.readonly_zones(), 1);
        assert_eq!(
            d.usable_capacity_bytes(),
            d.capacity_bytes() - d.zone_cap_bytes()
        );
    }

    #[test]
    fn offline_zone_serves_nothing_and_is_terminal() {
        let d = dev();
        let t = d.write(ZoneId(1), &blocks(1, 9), Nanos::ZERO).unwrap();
        d.degrade(ZoneId(1), true, t).unwrap();
        assert_eq!(d.zone_state(ZoneId(1)).unwrap(), ZoneState::Offline);
        let mut buf = blocks(1, 0);
        assert!(matches!(
            d.read(ZoneId(1), 0, &mut buf, t),
            Err(ZnsError::ZoneDegraded { .. })
        ));
        assert!(matches!(
            d.write(ZoneId(1), &blocks(1, 1), t),
            Err(ZnsError::ZoneDegraded { .. })
        ));
        assert_eq!(d.offline_zones(), 1);
        // Offline never un-happens — not even to Read-Only.
        assert!(d.degrade(ZoneId(1), false, t).is_err());
        assert!(d.degrade(ZoneId(1), true, t).is_err());
        // Read-Only can still fall further, to Offline.
        d.degrade(ZoneId(2), false, t).unwrap();
        d.degrade(ZoneId(2), true, t).unwrap();
        assert_eq!(d.zone_state(ZoneId(2)).unwrap(), ZoneState::Offline);
    }

    #[test]
    fn wear_out_fault_degrades_zone_on_reset_preserving_data() {
        let inj = Arc::new(FaultInjector::default());
        let d = dev().with_fault_injector(Arc::clone(&inj));
        inj.push(sim::fault::FaultSpec::wear_out_after(2));
        let mut t = Nanos::ZERO;
        // Two grace resets succeed.
        for z in 0..2u32 {
            t = d.write(ZoneId(z), &blocks(1, 1), t).unwrap();
            t = d.reset(ZoneId(z), t).unwrap();
        }
        // The third reset wears its zone out; data survives read-only.
        t = d.write(ZoneId(2), &blocks(1, 7), t).unwrap();
        let err = d.reset(ZoneId(2), t).unwrap_err();
        assert!(
            matches!(
                err,
                ZnsError::ZoneDegraded {
                    state: ZoneState::ReadOnly,
                    ..
                }
            ),
            "{err}"
        );
        let mut buf = blocks(1, 0);
        d.read(ZoneId(2), 0, &mut buf, t).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
        assert_eq!(d.zone_info(ZoneId(2)).unwrap().write_pointer, 1);
    }

    #[test]
    fn injected_write_degradation_retires_zone_and_persists_nothing() {
        let inj = Arc::new(FaultInjector::default());
        let d = dev().with_fault_injector(Arc::clone(&inj));
        d.write(ZoneId(0), &blocks(1, 3), Nanos::ZERO).unwrap();
        inj.push(sim::fault::FaultSpec::degrade_offline_writes(1));
        let err = d.write(ZoneId(0), &blocks(1, 4), Nanos::ZERO).unwrap_err();
        assert!(matches!(
            err,
            ZnsError::ZoneDegraded {
                state: ZoneState::Offline,
                ..
            }
        ));
        assert_eq!(d.zone_state(ZoneId(0)).unwrap(), ZoneState::Offline);
        assert_eq!(
            d.zone_info(ZoneId(0)).unwrap().write_pointer,
            1,
            "a failed program persists nothing"
        );
    }

    #[test]
    fn degrading_an_open_zone_releases_its_resources() {
        let d = dev(); // max_open = 4
        d.write(ZoneId(0), &blocks(1, 1), Nanos::ZERO).unwrap();
        assert_eq!(d.zone_state(ZoneId(0)).unwrap(), ZoneState::ImplicitOpen);
        d.degrade(ZoneId(0), false, Nanos::ZERO).unwrap();
        // The open slot came back: four more zones open without auto-close.
        for z in 1..=4u32 {
            d.write(ZoneId(z), &blocks(1, 1), Nanos::ZERO).unwrap();
        }
        assert_eq!(d.zone_state(ZoneId(1)).unwrap(), ZoneState::ImplicitOpen);
    }

    #[test]
    fn report_zones_covers_device() {
        let d = dev();
        d.write(ZoneId(1), &blocks(2, 1), Nanos::ZERO).unwrap();
        let report = d.report_zones();
        assert_eq!(report.len(), d.num_zones() as usize);
        assert_eq!(report[1].write_pointer, 2);
        assert_eq!(report[0].state, ZoneState::Empty);
    }
}
