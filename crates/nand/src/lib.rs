//! Discrete-event NAND flash model.
//!
//! Both SSD emulators in this workspace — the conventional page-mapped FTL
//! device (`ftl` crate) and the Zoned Namespace device (`zns` crate) — sit
//! on this shared model, mirroring the paper's "hardware-compatible" device
//! pair (a WD ZN540 ZNS SSD and an SN540 regular SSD built from the same
//! flash). The two emulators therefore see identical dies, channels, timing
//! and capacity; only the host interface differs.
//!
//! The model is *discrete-event*: each die and each channel keeps a
//! `busy_until` watermark, operations are scheduled against those watermarks
//! and return their completion time. Contention — a GC migration occupying
//! a die while a foreground read waits — emerges from the watermarks rather
//! than from any explicit queue simulation.
//!
//! NAND ordering rules are enforced: pages within a block must be programmed
//! sequentially and a block must be erased before it can be reprogrammed.
//! Violations are *bugs in the FTL/zone layer above*, so they return typed
//! errors that the upper layers treat as fatal.
//!
//! # Example
//!
//! ```
//! use nand::{NandArray, NandConfig, PageAddr};
//! use sim::Nanos;
//!
//! let array = NandArray::new(NandConfig::small_test());
//! let page = vec![0x5au8; array.geometry().page_size()];
//! let done = array.program_page(PageAddr(0), &page, Nanos::ZERO).unwrap();
//! let mut out = vec![0u8; array.geometry().page_size()];
//! array.read_page(PageAddr(0), &mut out, done).unwrap();
//! assert_eq!(out, page);
//! ```

pub mod array;
pub mod geometry;
pub mod store;
pub mod timing;

pub use array::{NandArray, NandConfig, NandError, NandStatsSnapshot};
pub use geometry::{BlockAddr, DieId, Geometry, PageAddr};
pub use store::{PageStore, Payload, RamStore, SharedPage, SparseStore, StoreKind};
pub use timing::NandTiming;
