//! Backing stores for page payloads.
//!
//! The timing/state model in [`crate::array`] is independent of whether page
//! *contents* are retained:
//!
//! * [`RamStore`] keeps real bytes — used by tests and examples that verify
//!   data integrity end to end.
//! * [`SparseStore`] keeps nothing and reads back zeros — used by large
//!   experiments where the host has far less DRAM than the simulated device
//!   (the cache's hit/miss behaviour is index-driven, so payload bytes do
//!   not affect any reported metric).
//!
//! Which pages have been written at all is tracked by the array itself (it
//! needs that for program-order enforcement), so stores only handle bytes.
//!
//! Payloads move in one of two ways. A host program hands the store bytes
//! ([`Payload::Bytes`]), which it copies into a buffer of its own. A page
//! copy inside the device (FTL or filesystem GC) reads the source page as a
//! [`SharedPage`] and programs that same page at the destination
//! ([`Payload::Page`]): both pages then refer to one immutable buffer, and
//! no byte is copied. Flash pages are write-once between erases, so a shared
//! buffer never needs to change.

use std::collections::HashSet;
use std::fmt;
use std::mem;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::geometry::{Geometry, PageAddr};

/// Selects a backing store implementation in configuration types.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StoreKind {
    /// Keep page payloads in memory ([`RamStore`]).
    #[default]
    Ram,
    /// Discard payloads, read back zeros ([`SparseStore`]).
    Sparse,
}

impl StoreKind {
    /// Instantiates the selected store for an array of this geometry.
    pub fn build(self, geometry: &Geometry) -> Box<dyn PageStore> {
        match self {
            StoreKind::Ram => Box::new(RamStore::new(geometry.total_pages())),
            StoreKind::Sparse => Box::new(SparseStore::new()),
        }
    }
}

/// An immutable page payload held by reference.
///
/// Cloning shares the buffer; nothing can write through it. A page read
/// with [`NandArray::read_page_shared`](crate::NandArray::read_page_shared)
/// and programmed elsewhere with
/// [`NandArray::program_page_shared`](crate::NandArray::program_page_shared)
/// moves no bytes.
#[derive(Clone)]
pub struct SharedPage(Arc<Box<[u8]>>);

impl SharedPage {
    /// One all-zero page (`sim::BLOCK_SIZE` bytes), shared by every caller:
    /// what an unwritten or discarded page reads back as.
    pub fn zeroed() -> SharedPage {
        static ZERO: OnceLock<SharedPage> = OnceLock::new();
        ZERO.get_or_init(|| SharedPage::from(vec![0u8; sim::BLOCK_SIZE]))
            .clone()
    }
}

impl From<Vec<u8>> for SharedPage {
    fn from(bytes: Vec<u8>) -> Self {
        SharedPage(Arc::new(bytes.into_boxed_slice()))
    }
}

impl Deref for SharedPage {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for SharedPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedPage").field("len", &self.len()).finish()
    }
}

/// What a program writes: bytes the store copies, or a page it shares.
#[derive(Clone, Copy, Debug)]
pub enum Payload<'a> {
    /// Bytes owned by the caller; the store keeps a copy.
    Bytes(&'a [u8]),
    /// A page read by reference; the store keeps a reference to it.
    Page(&'a SharedPage),
}

impl<'a> Payload<'a> {
    /// The payload bytes.
    pub fn bytes(self) -> &'a [u8] {
        match self {
            Payload::Bytes(bytes) => bytes,
            Payload::Page(page) => page,
        }
    }

    /// Payload length in bytes.
    pub fn len(self) -> usize {
        self.bytes().len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The `i`-th `size`-byte block of the payload. A page that is exactly
    /// one block stays shared; any other slice is bytes.
    ///
    /// # Panics
    ///
    /// Panics if the block lies beyond the payload.
    pub fn block(self, i: usize, size: usize) -> Payload<'a> {
        match self {
            Payload::Page(page) if i == 0 && page.len() == size => self,
            _ => Payload::Bytes(&self.bytes()[i * size..(i + 1) * size]),
        }
    }
}

/// Storage for page payloads.
///
/// Implementations are internally synchronized; the array calls them under
/// its own scheduling lock.
pub trait PageStore: Send + Sync {
    /// Stores one page: a copy of bytes, or a reference to a shared page.
    /// Replaces whatever the page held before.
    fn write(&self, addr: PageAddr, payload: Payload<'_>);

    /// Loads one page into `buf`; fills zeros if the payload was discarded.
    fn read(&self, addr: PageAddr, buf: &mut [u8]);

    /// Loads one page by reference; an all-zero page if the payload was
    /// discarded.
    fn read_shared(&self, addr: PageAddr) -> SharedPage;

    /// Drops payloads for a page range (called on block erase).
    fn discard(&self, first: PageAddr, pages: u64);

    /// Approximate resident payload bytes, for memory-budget reporting. A
    /// buffer that backs several pages counts once.
    fn resident_bytes(&self) -> u64;
}

/// One page's payload in a [`RamStore`].
enum Slot {
    Empty,
    /// Written by a host program; no other page refers to the buffer.
    Owned(Box<[u8]>),
    /// Read by reference at least once; other pages may share the buffer.
    Shared(SharedPage),
}

struct Pages {
    /// One slot per page, indexed by the flat page address.
    slots: Vec<Slot>,
    /// Buffers freed by erases, reused by the next host programs.
    pool: Vec<Box<[u8]>>,
}

impl Pages {
    /// A buffer holding a copy of `data`: a pooled one when its size fits.
    fn copy_of(&mut self, data: &[u8]) -> Box<[u8]> {
        match self.pool.pop() {
            Some(mut buf) if buf.len() == data.len() => {
                buf.copy_from_slice(data);
                buf
            }
            _ => data.into(),
        }
    }

    /// Returns a replaced slot's buffer to the pool unless another page
    /// still shares it.
    fn recycle(&mut self, slot: Slot) {
        match slot {
            Slot::Empty => {}
            Slot::Owned(buf) => self.pool.push(buf),
            Slot::Shared(page) => {
                if let Ok(buf) = Arc::try_unwrap(page.0) {
                    self.pool.push(buf);
                }
            }
        }
    }
}

/// A store that keeps real page payloads, one slot per page of the array.
///
/// A host program copies its bytes into a buffer taken from a pool of
/// buffers that erases freed, so steady-state churn allocates nothing. A
/// page stays the sole owner of its buffer until something reads it by
/// reference; only then does the buffer become shared (reference
/// counted), so host programs and host reads never pay for sharing.
///
/// # Example
///
/// ```
/// use nand::{PageAddr, PageStore, Payload, RamStore};
///
/// let s = RamStore::new(16);
/// s.write(PageAddr(7), Payload::Bytes(&[1, 2, 3]));
/// let mut buf = [0u8; 3];
/// s.read(PageAddr(7), &mut buf);
/// assert_eq!(buf, [1, 2, 3]);
///
/// // A copy by reference: page 9 shares page 7's buffer.
/// let page = s.read_shared(PageAddr(7));
/// s.write(PageAddr(9), Payload::Page(&page));
/// assert_eq!(s.resident_bytes(), 3);
/// ```
pub struct RamStore {
    pages: Mutex<Pages>,
}

impl RamStore {
    /// Creates an empty store for `pages` pages (addresses `0..pages`).
    pub fn new(pages: u64) -> Self {
        RamStore {
            pages: Mutex::new(Pages {
                slots: (0..pages).map(|_| Slot::Empty).collect(),
                pool: Vec::new(),
            }),
        }
    }
}

impl PageStore for RamStore {
    fn write(&self, addr: PageAddr, payload: Payload<'_>) {
        let mut p = self.pages.lock();
        let slot = match payload {
            Payload::Bytes(data) => Slot::Owned(p.copy_of(data)),
            Payload::Page(page) => Slot::Shared(page.clone()),
        };
        let old = mem::replace(&mut p.slots[addr.0 as usize], slot);
        p.recycle(old);
    }

    fn read(&self, addr: PageAddr, buf: &mut [u8]) {
        let p = self.pages.lock();
        let data: &[u8] = match &p.slots[addr.0 as usize] {
            Slot::Empty => &[],
            Slot::Owned(owned) => owned,
            Slot::Shared(page) => page,
        };
        let n = buf.len().min(data.len());
        buf[..n].copy_from_slice(&data[..n]);
        buf[n..].fill(0);
    }

    fn read_shared(&self, addr: PageAddr) -> SharedPage {
        let mut p = self.pages.lock();
        let slot = &mut p.slots[addr.0 as usize];
        // First read by reference: the owned buffer becomes shared. This
        // moves the buffer into a reference count; it copies no bytes.
        *slot = match mem::replace(slot, Slot::Empty) {
            Slot::Owned(buf) => Slot::Shared(SharedPage(Arc::new(buf))),
            other => other,
        };
        match slot {
            Slot::Shared(page) => page.clone(),
            _ => SharedPage::zeroed(),
        }
    }

    fn discard(&self, first: PageAddr, pages: u64) {
        let mut p = self.pages.lock();
        for i in first.0..first.0 + pages {
            let old = mem::replace(&mut p.slots[i as usize], Slot::Empty);
            p.recycle(old);
        }
    }

    fn resident_bytes(&self) -> u64 {
        let p = self.pages.lock();
        let mut shared = HashSet::new();
        p.slots
            .iter()
            .map(|slot| match slot {
                Slot::Empty => 0,
                Slot::Owned(buf) => buf.len() as u64,
                Slot::Shared(page) if shared.insert(Arc::as_ptr(&page.0)) => page.len() as u64,
                Slot::Shared(_) => 0,
            })
            .sum()
    }
}

/// A store that discards payloads; reads return zeros.
///
/// Used for multi-GiB experiments where only metadata (mappings, validity,
/// timing) matters.
#[derive(Debug, Default)]
pub struct SparseStore;

impl SparseStore {
    /// Creates the store.
    pub fn new() -> Self {
        SparseStore
    }
}

impl PageStore for SparseStore {
    fn write(&self, _addr: PageAddr, _payload: Payload<'_>) {}

    fn read(&self, _addr: PageAddr, buf: &mut [u8]) {
        buf.fill(0);
    }

    fn read_shared(&self, _addr: PageAddr) -> SharedPage {
        SharedPage::zeroed()
    }

    fn discard(&self, _first: PageAddr, _pages: u64) {}

    fn resident_bytes(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(fill: u8) -> Vec<u8> {
        vec![fill; sim::BLOCK_SIZE]
    }

    fn read(s: &RamStore, addr: u64) -> Vec<u8> {
        let mut buf = page(0xee);
        s.read(PageAddr(addr), &mut buf);
        buf
    }

    #[test]
    fn ram_store_round_trip_and_discard() {
        let s = RamStore::new(4);
        s.write(PageAddr(1), Payload::Bytes(&[9u8; 8]));
        s.write(PageAddr(2), Payload::Bytes(&[8u8; 8]));
        assert_eq!(s.resident_bytes(), 16);

        let mut buf = [0u8; 8];
        s.read(PageAddr(1), &mut buf);
        assert_eq!(buf, [9u8; 8]);

        s.discard(PageAddr(1), 1);
        s.read(PageAddr(1), &mut buf);
        assert_eq!(buf, [0u8; 8]);
        s.read(PageAddr(2), &mut buf);
        assert_eq!(buf, [8u8; 8]);
    }

    #[test]
    fn ram_store_short_payload_zero_fills() {
        let s = RamStore::new(1);
        s.write(PageAddr(0), Payload::Bytes(&[1u8; 4]));
        let mut buf = [7u8; 8];
        s.read(PageAddr(0), &mut buf);
        assert_eq!(buf, [1, 1, 1, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn erased_buffers_are_reused_by_later_programs() {
        let s = RamStore::new(4);
        s.write(PageAddr(0), Payload::Bytes(&page(1)));
        let first = s.pages.lock().slots[0].as_ptr();
        s.discard(PageAddr(0), 1);
        assert_eq!(s.pages.lock().pool.len(), 1);
        s.write(PageAddr(3), Payload::Bytes(&page(2)));
        assert_eq!(s.pages.lock().slots[3].as_ptr(), first, "pooled buffer reused");
        assert!(s.pages.lock().pool.is_empty());
        assert_eq!(read(&s, 3), page(2));
    }

    #[test]
    fn a_shared_page_outlives_its_source_and_is_never_written_through() {
        let s = RamStore::new(4);
        s.write(PageAddr(0), Payload::Bytes(&page(5)));
        let shared = s.read_shared(PageAddr(0));
        s.write(PageAddr(1), Payload::Page(&shared));
        drop(shared);
        assert_eq!(s.resident_bytes(), sim::BLOCK_SIZE as u64, "one buffer, counted once");
        // Erasing and reprogramming the source leaves the copy alone, and
        // the shared buffer does not go back to the pool while used.
        s.discard(PageAddr(0), 1);
        assert!(s.pages.lock().pool.is_empty());
        s.write(PageAddr(0), Payload::Bytes(&page(6)));
        assert_eq!(read(&s, 0), page(6));
        assert_eq!(read(&s, 1), page(5));
        // The last holder's erase returns the buffer.
        s.discard(PageAddr(1), 1);
        assert_eq!(s.pages.lock().pool.len(), 1);
        assert_eq!(read(&s, 1), page(0));
    }

    #[test]
    fn unwritten_pages_read_shared_as_zeros() {
        let s = RamStore::new(2);
        assert_eq!(&*s.read_shared(PageAddr(1)), &page(0)[..]);
        assert_eq!(&*SparseStore::new().read_shared(PageAddr(1)), &page(0)[..]);
        assert!(Arc::ptr_eq(&SharedPage::zeroed().0, &SharedPage::zeroed().0));
    }

    #[test]
    fn payload_blocks_keep_a_one_block_page_shared() {
        let shared = SharedPage::from(page(3));
        assert!(matches!(Payload::Page(&shared).block(0, sim::BLOCK_SIZE), Payload::Page(_)));
        let two = [1u8, 1, 2, 2];
        assert_eq!(Payload::Bytes(&two).block(1, 2).bytes(), &[2, 2]);
        let pair = SharedPage::from(two.to_vec());
        assert!(matches!(Payload::Page(&pair).block(1, 2), Payload::Bytes(&[2, 2])));
    }

    #[test]
    fn sparse_store_reads_zeros() {
        let s = SparseStore::new();
        s.write(PageAddr(0), Payload::Bytes(&[1u8; 8]));
        let mut buf = [7u8; 8];
        s.read(PageAddr(0), &mut buf);
        assert_eq!(buf, [0u8; 8]);
        assert_eq!(s.resident_bytes(), 0);
    }

    #[test]
    fn store_kind_builds() {
        let g = Geometry::new(1, 1, 1, 4);
        let r = StoreKind::Ram.build(&g);
        r.write(PageAddr(0), Payload::Bytes(&[1]));
        let mut b = [0u8; 1];
        r.read(PageAddr(0), &mut b);
        assert_eq!(b, [1]);

        let s = StoreKind::Sparse.build(&g);
        s.write(PageAddr(0), Payload::Bytes(&[1]));
        s.read(PageAddr(0), &mut b);
        assert_eq!(b, [0]);
    }

    impl Slot {
        fn as_ptr(&self) -> *const u8 {
            match self {
                Slot::Empty => std::ptr::null(),
                Slot::Owned(buf) => buf.as_ptr(),
                Slot::Shared(page) => page.as_ptr(),
            }
        }
    }
}
