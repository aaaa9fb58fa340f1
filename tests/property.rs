//! Randomized property tests over the core invariants: the cache behaves
//! like a map (modulo evictions), the zoned device enforces its contract
//! under arbitrary op streams, the FTL never loses acknowledged writes, the
//! filesystem is read-your-writes under random I/O, and a flash page copied
//! by reference is indistinguishable from one copied through a buffer.
//!
//! Each property runs against a battery of seeded random op streams (the
//! offline toolchain has no proptest, so shrinking is replaced by printing
//! the failing seed — rerun with that seed to reproduce).

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zns_cache_repro::f2fs_lite::{FileSystem, FsConfig};
use zns_cache_repro::ftl::{BlockSsd, FtlConfig};
use zns_cache_repro::nand::{BlockAddr, NandArray, NandConfig, PageAddr, Payload};
use zns_cache_repro::sim::{BlockDevice, Lba, Nanos, BLOCK_SIZE};
use zns_cache_repro::zns::{ZnsConfig, ZnsDevice, ZoneId};
use zns_cache_repro::zns_cache::backend::{MiddleConfig, MiddleLayerBackend};
use zns_cache_repro::zns_cache::{recovery, CacheConfig, LogCache};

const SEEDS: std::ops::Range<u64> = 0..12;

#[derive(Clone, Debug)]
enum CacheOp {
    Set(u8, Vec<u8>),
    Get(u8),
    Delete(u8),
}

fn cache_ops(rng: &mut StdRng, max_len: usize) -> Vec<CacheOp> {
    let n = rng.gen_range(1..max_len);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(0..256u64) as u8;
            match rng.gen_range(0..3u32) {
                0 => {
                    let len = rng.gen_range(1..300usize);
                    let v = (0..len).map(|_| rng.gen_range(0..256u64) as u8).collect();
                    CacheOp::Set(k, v)
                }
                1 => CacheOp::Get(k),
                _ => CacheOp::Delete(k),
            }
        })
        .collect()
}

/// A cache hit must always return the *latest* value for the key; a key
/// that was deleted (and not re-set) must never hit.
#[test]
fn cache_is_a_subset_of_a_map() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = cache_ops(&mut rng, 300);
        let dev = Arc::new(ZnsDevice::new(ZnsConfig::small_test()));
        let backend = Arc::new(MiddleLayerBackend::new(dev, MiddleConfig::small_test()));
        let cache = LogCache::new(backend, CacheConfig::small_test()).unwrap();
        let mut model: HashMap<u8, Option<Vec<u8>>> = HashMap::new();
        let mut t = Nanos::ZERO;
        for op in ops {
            match op {
                CacheOp::Set(k, v) => {
                    t = cache.set(&[k], &v, t).unwrap();
                    model.insert(k, Some(v));
                }
                CacheOp::Get(k) => {
                    let (got, t2) = cache.get(&[k], t).unwrap();
                    t = t2;
                    if let Some(got) = got {
                        match model.get(&k) {
                            Some(Some(expect)) => assert_eq!(
                                got.as_ref(),
                                expect.as_slice(),
                                "seed {seed}: stale value for key {k}"
                            ),
                            _ => panic!("seed {seed}: hit for a deleted/never-set key {k}"),
                        }
                    }
                }
                CacheOp::Delete(k) => {
                    t = cache.delete(&[k], t).unwrap().1;
                    model.insert(k, None);
                }
            }
        }
    }
}

/// Arbitrary zone op sequences never corrupt the device: every accepted
/// write is readable, every rejected op leaves state intact.
#[test]
fn zns_state_machine_is_sound() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let dev = ZnsDevice::new(ZnsConfig::small_test());
        let mut t = Nanos::ZERO;
        // Shadow write pointers per zone.
        let mut wp = vec![0u64; dev.num_zones() as usize];
        let mut full = vec![false; dev.num_zones() as usize];
        let n = rng.gen_range(1..200usize);
        for _ in 0..n {
            let zone = ZoneId(rng.gen_range(0..8u32) % dev.num_zones());
            let z = zone.0 as usize;
            match rng.gen_range(0..4u32) {
                0 => {
                    // write one block
                    let data = vec![zone.0 as u8; BLOCK_SIZE];
                    if let Ok(t2) = dev.write(zone, &data, t) {
                        t = t2;
                        assert!(!full[z], "seed {seed}: write accepted on full zone");
                        wp[z] += 1;
                        if wp[z] == dev.zone_cap_blocks() {
                            full[z] = true;
                        }
                    }
                }
                1 => {
                    t = dev.reset(zone, t).unwrap();
                    wp[z] = 0;
                    full[z] = false;
                }
                2 => {
                    if dev.finish(zone, t).is_ok() {
                        full[z] = true;
                    }
                }
                _ => {
                    // read below wp must succeed; at/above must fail
                    if wp[z] > 0 {
                        let mut buf = vec![0u8; BLOCK_SIZE];
                        assert!(dev.read(zone, wp[z] - 1, &mut buf, t).is_ok());
                    }
                    let mut buf = vec![0u8; BLOCK_SIZE];
                    assert!(dev.read(zone, wp[z], &mut buf, t).is_err());
                }
            }
            let info = dev.zone_info(zone).unwrap();
            assert_eq!(info.write_pointer, wp[z], "seed {seed}: wp diverged on {zone}");
        }
    }
}

/// The FTL is read-your-writes for every LBA under random overwrites and
/// trims, even while GC runs.
#[test]
fn ftl_read_your_writes() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let ssd = BlockSsd::new(FtlConfig::small_test());
        let mut model: HashMap<u64, Option<u8>> = HashMap::new();
        let mut t = Nanos::ZERO;
        let n = rng.gen_range(1..400usize);
        for _ in 0..n {
            let lba = rng.gen_range(0..200u64);
            let fill = rng.gen_range(0..256u64) as u8;
            if rng.gen_bool(0.5) {
                t = ssd.trim(Lba(lba), 1, t).unwrap();
                model.insert(lba, None);
            } else {
                let data = vec![fill; BLOCK_SIZE];
                t = ssd.write(Lba(lba), &data, t).unwrap();
                model.insert(lba, Some(fill));
            }
        }
        for (lba, expect) in model {
            let mut buf = vec![0u8; BLOCK_SIZE];
            t = ssd.read(Lba(lba), &mut buf, t).unwrap();
            let want = expect.unwrap_or(0);
            assert!(
                buf.iter().all(|&b| b == want),
                "seed {seed}: lba {lba} corrupt"
            );
        }
    }
}

/// Snapshot + recover is lossless: whatever a cache would serve before a
/// clean shutdown, the recovered cache serves identically.
#[test]
fn recovery_is_lossless() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = cache_ops(&mut rng, 150);
        let dev = Arc::new(ZnsDevice::new(ZnsConfig::small_test()));
        let backend = Arc::new(MiddleLayerBackend::new(dev, MiddleConfig::small_test()));
        let cache = LogCache::new(backend.clone(), CacheConfig::small_test()).unwrap();
        let mut t = Nanos::ZERO;
        for op in ops {
            match op {
                CacheOp::Set(k, v) => t = cache.set(&[k], &v, t).unwrap(),
                CacheOp::Get(k) => t = cache.get(&[k], t).unwrap().1,
                CacheOp::Delete(k) => t = cache.delete(&[k], t).unwrap().1,
            }
        }
        // What does the original serve right before shutdown?
        let (snap, t2) = recovery::snapshot(&cache, t).unwrap();
        let mut before: HashMap<u8, Option<Vec<u8>>> = HashMap::new();
        let mut t3 = t2;
        for k in 0..=255u8 {
            let (v, tn) = cache.get(&[k], t3).unwrap();
            t3 = tn;
            before.insert(k, v.map(|b| b.to_vec()));
        }
        drop(cache);
        let recovered = recovery::recover(backend, CacheConfig::small_test(), &snap).unwrap();
        for (k, expect) in before {
            let (v, tn) = recovered.get(&[k], t3).unwrap();
            t3 = tn;
            assert_eq!(
                v.map(|b| b.to_vec()),
                expect,
                "seed {seed}: key {k} diverged"
            );
        }
    }
}

/// The hybrid (BigHash + log-structured) engine agrees with a map under
/// mixed-size workloads, including objects crossing the size threshold
/// between updates.
#[test]
fn hybrid_engine_matches_map() {
    use zns_cache_repro::sim::RamDisk;
    use zns_cache_repro::zns_cache::backend::BlockBackend;
    use zns_cache_repro::zns_cache::bighash::{BigHash, HybridEngine};

    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let bucket_dev = Arc::new(RamDisk::new(16));
        let small = BigHash::new(bucket_dev, Lba(0), 16).unwrap();
        let region_dev = Arc::new(RamDisk::new(512));
        let backend = Arc::new(BlockBackend::new(region_dev, 16 * BLOCK_SIZE));
        let large = Arc::new(LogCache::new(backend, CacheConfig::small_test()).unwrap());
        let hybrid = HybridEngine::new(small, large, 256);

        let mut model: HashMap<u8, Option<Vec<u8>>> = HashMap::new();
        let mut t = Nanos::ZERO;
        let n = rng.gen_range(1..200usize);
        for _ in 0..n {
            let k = rng.gen_range(0..256u64) as u8;
            if rng.gen_bool(0.5) {
                t = hybrid.delete(&[k], t).unwrap().1;
                model.insert(k, None);
            } else {
                let len = rng.gen_range(0..3000usize);
                let v = vec![k ^ 0x5a; len];
                t = hybrid.set(&[k], &v, t).unwrap();
                model.insert(k, Some(v));
            }
        }
        for (k, expect) in model {
            let (got, t2) = hybrid.get(&[k], t).unwrap();
            t = t2;
            if let Some(got) = got {
                // The cache may evict, but a hit must be the latest value.
                assert_eq!(Some(got.to_vec()), expect, "seed {seed}: key {k} stale");
            }
        }
    }
}

/// The filesystem is read-your-writes at block granularity under random
/// writes to a file, across enough churn to trigger cleaning.
#[test]
fn f2fs_read_your_writes() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let fs = FileSystem::format(FsConfig::small_test());
        let ino = fs.create("f", Nanos::ZERO).unwrap();
        let mut model: HashMap<u64, u8> = HashMap::new();
        let mut t = Nanos::ZERO;
        let n = rng.gen_range(1..250usize);
        for _ in 0..n {
            let block = rng.gen_range(0..64u64);
            let fill = rng.gen_range(0..256u64) as u8;
            let data = vec![fill; BLOCK_SIZE];
            t = fs.pwrite(ino, block * BLOCK_SIZE as u64, &data, t).unwrap();
            model.insert(block, fill);
        }
        for (block, fill) in model {
            let mut buf = vec![0u8; BLOCK_SIZE];
            t = fs.pread(ino, block * BLOCK_SIZE as u64, &mut buf, t).unwrap();
            assert!(
                buf.iter().all(|&b| b == fill),
                "seed {seed}: block {block} corrupt"
            );
        }
    }
}

/// What a page is expected to hold: its bytes, and the id of the buffer
/// that holds them in the array that copies by reference.
type PageModel = Option<(Arc<Vec<u8>>, u64)>;

/// Two flash arrays driven by the same random programs (queued and not),
/// reads, erases and page copies agree in everything the model charges:
/// one copies pages through a host buffer (`read_page` + `program_page`),
/// the other by reference (`read_page_shared` + `program_page_shared`).
/// Every returned time and every counter is equal, every read returns the
/// same bytes, erasing or reprogramming a copy's source never changes its
/// destination, and a buffer shared by several pages is resident once.
#[test]
fn nand_copies_by_reference_match_copies_by_value() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let by_copy = NandArray::new(NandConfig::small_test());
        let by_ref = NandArray::new(NandConfig::small_test());
        let g = *by_copy.geometry();
        let ppb = g.pages_per_block as u64;
        let mut model: Vec<PageModel> = vec![None; g.total_pages() as usize];
        let mut copies: Vec<(u64, u64)> = Vec::new();
        let mut copied = 0;
        let mut next_id = 0u64;
        let mut t = Nanos::ZERO;

        // Reads one page from both arrays (by reference on request) and
        // checks them against each other and the model.
        let check = |addr: u64, shared: bool, t: Nanos, model: &[PageModel]| {
            let mut buf = vec![0u8; BLOCK_SIZE];
            let ta = by_copy.read_page(PageAddr(addr), &mut buf, t).unwrap();
            let (got, tb) = if shared {
                let (page, tb) = by_ref.read_page_shared(PageAddr(addr), t).unwrap();
                (page.to_vec(), tb)
            } else {
                let mut got = vec![0u8; BLOCK_SIZE];
                let tb = by_ref.read_page(PageAddr(addr), &mut got, t).unwrap();
                (got, tb)
            };
            assert_eq!(ta, tb, "seed {seed}: read of page {addr} timed differently");
            let want = model[addr as usize]
                .as_ref()
                .map_or_else(|| vec![0u8; BLOCK_SIZE], |(bytes, _)| bytes.to_vec());
            assert!(buf == want && got == want, "seed {seed}: page {addr} holds the wrong bytes");
        };

        for _ in 0..400 {
            t = Nanos(t.0 + rng.gen_range(0..50_000u64));
            let block = rng.gen_range(0..g.total_blocks());
            let wp = by_copy.write_pointer(BlockAddr(block)) as u64;
            assert_eq!(wp, by_ref.write_pointer(BlockAddr(block)) as u64);
            match rng.gen_range(0..20u32) {
                // Host program, queued or not.
                0..=7 if wp < ppb => {
                    let addr = block * ppb + wp;
                    let tag = rng.gen_range(0..u64::MAX);
                    let data: Vec<u8> =
                        (0..BLOCK_SIZE).map(|i| (tag >> (i % 8 * 8)) as u8 ^ i as u8).collect();
                    let queued = rng.gen_bool(0.3);
                    let ta = by_copy.program(PageAddr(addr), Payload::Bytes(&data), t, queued);
                    let tb = by_ref.program(PageAddr(addr), Payload::Bytes(&data), t, queued);
                    assert_eq!(ta, tb, "seed {seed}: program of page {addr} diverged");
                    model[addr as usize] = Some((Arc::new(data), next_id));
                    next_id += 1;
                    // Reprogramming a copy's source leaves the copy alone.
                    for &(src, dst) in &copies {
                        if src == addr {
                            check(dst, false, t, &model);
                        }
                    }
                }
                // Page copy from a written page into this block.
                8..=12 if wp < ppb => {
                    let written: Vec<u64> =
                        (0..g.total_pages()).filter(|&p| model[p as usize].is_some()).collect();
                    if written.is_empty() {
                        continue;
                    }
                    let src = written[rng.gen_range(0..written.len())];
                    let dst = block * ppb + wp;
                    let mut buf = vec![0u8; BLOCK_SIZE];
                    let ra = by_copy.read_page(PageAddr(src), &mut buf, t).unwrap();
                    let pa = by_copy.program_page(PageAddr(dst), &buf, t).unwrap();
                    let (page, rb) = by_ref.read_page_shared(PageAddr(src), t).unwrap();
                    let pb = by_ref.program_page_shared(PageAddr(dst), &page, t).unwrap();
                    assert_eq!((ra, pa), (rb, pb), "seed {seed}: copy {src} -> {dst} diverged");
                    model[dst as usize] = model[src as usize].clone();
                    copies.push((src, dst));
                    copied += 1;
                }
                // Erase; the copies of its pages that live elsewhere survive.
                13..=15 => {
                    let ta = by_copy.erase_block(BlockAddr(block), t);
                    let tb = by_ref.erase_block(BlockAddr(block), t);
                    assert_eq!(ta, tb, "seed {seed}: erase of block {block} diverged");
                    for p in block * ppb..(block + 1) * ppb {
                        model[p as usize] = None;
                    }
                    let in_block = |p: u64| p / ppb == block;
                    for &(src, dst) in &copies {
                        if in_block(src) && !in_block(dst) {
                            check(dst, rng.gen_bool(0.5), t, &model);
                        }
                    }
                    copies.retain(|&(src, dst)| !in_block(src) && !in_block(dst));
                }
                // Read, by value or by reference.
                _ => {
                    let addr = rng.gen_range(0..g.total_pages());
                    check(addr, rng.gen_bool(0.5), t, &model);
                }
            }
            assert_eq!(by_copy.stats(), by_ref.stats(), "seed {seed}: counters diverged");
            let live = model.iter().flatten().count() as u64;
            let buffers: std::collections::HashSet<u64> =
                model.iter().flatten().map(|(_, id)| *id).collect();
            assert_eq!(by_copy.resident_bytes(), live * BLOCK_SIZE as u64);
            assert_eq!(
                by_ref.resident_bytes(),
                buffers.len() as u64 * BLOCK_SIZE as u64,
                "seed {seed}: a shared buffer was not counted exactly once"
            );
        }
        for addr in 0..g.total_pages() {
            check(addr, addr % 2 == 0, t, &model);
        }
        assert!(copied >= 20, "seed {seed}: only {copied} copies exercised");
    }
}
