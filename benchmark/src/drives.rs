//! Layer drives: short timed calls into one layer's public functions on
//! a fresh instance, with the benchmark's geometry and I/O shapes. They
//! give each layer below the backend boundary a host-time figure of its
//! own, which spans from outside cannot.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use zns_cache_repro::f2fs_lite::FileSystem;
use zns_cache_repro::ftl::BlockSsd;
use zns_cache_repro::nand::{BlockAddr, NandArray, PageAddr};
use zns_cache_repro::sim::{BlockDevice, Lba, Nanos, BLOCK_SIZE};
use zns_cache_repro::zns::{ZnsDevice, ZoneId};
use zns_cache_repro::zns_cache::dram::{DramCache, DramEntry};
use zns_cache_repro::zns_cache::index::{Index, IndexEntry};
use zns_cache_repro::zns_cache::RegionId;
use zns_cache_repro::zns_cache_server::wire::{
    append_reply_frame, append_request_frame, decode_request_ref, split_frame, FrameSplit, Reply,
    Request,
};

use crate::config::{self, REGION_BYTES};
use crate::gen::{fill_value, OpGen};

/// Host nanoseconds per call of `calls` calls.
fn per_call_ns(calls: u64, run: impl FnOnce()) -> f64 {
    let start = Instant::now();
    run();
    start.elapsed().as_nanos() as f64 / calls as f64
}

fn hash_of(id: u64) -> u64 {
    id.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
}

/// `(program, read)` host ns per NAND page.
pub fn nand() -> (f64, f64) {
    let array = NandArray::new(config::nand_config());
    let page = vec![0x5au8; array.geometry().page_size()];
    let (blocks, pages) = (4, 4 * 512);
    let mut t = Nanos::ZERO;
    let program_all = |t: &mut Nanos| {
        for p in 0..pages {
            *t = array
                .program_page(PageAddr(p), &page, *t)
                .expect("programming an erased block in order");
        }
    };
    // Once untimed, so that the timed pass does not pay for the first
    // touch of the store's memory.
    program_all(&mut t);
    for b in 0..blocks {
        t = array
            .erase_block(BlockAddr(b), t)
            .expect("erasing a programmed block");
    }
    let program = per_call_ns(pages, || program_all(&mut t));
    let mut buf = page.clone();
    let read = per_call_ns(pages, || {
        for p in 0..pages {
            t = array
                .read_page(PageAddr(p), &mut buf, t)
                .expect("reading a programmed page");
        }
    });
    black_box(buf);
    (program, read)
}

/// `(append of one 128 KiB stripe in µs, 4 KiB read in ns)` host time.
pub fn zns() -> (f64, f64) {
    let dev = ZnsDevice::new(config::zns_config());
    let chunk = vec![0x5au8; 128 * 1024];
    let per_zone = config::ZONE_BYTES / chunk.len() as u64;
    let zones = 2u64;
    let mut t = Nanos::ZERO;
    let append_all = |t: &mut Nanos| {
        for zone in 0..zones {
            for _ in 0..per_zone {
                *t = dev
                    .append(ZoneId(zone as u32), &chunk, *t)
                    .expect("appending to an empty zone")
                    .1;
            }
        }
    };
    // Once untimed, as in `nand`.
    append_all(&mut t);
    for zone in 0..zones {
        t = dev
            .reset(ZoneId(zone as u32), t)
            .expect("resetting a full zone");
    }
    let append_ns = per_call_ns(zones * per_zone, || append_all(&mut t));
    let mut buf = vec![0u8; BLOCK_SIZE];
    let blocks = config::ZONE_BYTES / BLOCK_SIZE as u64;
    let read_ns = per_call_ns(blocks, || {
        for b in 0..blocks {
            // A stride co-prime with the zone spreads the reads over dies.
            t = dev
                .read(ZoneId(0), (b * 37) % blocks, &mut buf, t)
                .expect("reading below the write pointer");
        }
    });
    black_box(buf);
    (append_ns / 1e3, read_ns)
}

/// Host µs per region-sized write, over one and a half times the
/// logical space so that the second half pays for garbage collection.
pub fn ftl() -> f64 {
    let ssd = BlockSsd::new(config::ftl_config());
    let region = vec![0x5au8; REGION_BYTES];
    let region_blocks = (REGION_BYTES / BLOCK_SIZE) as u64;
    let regions = ssd.block_count() / region_blocks;
    let writes = regions * 3 / 2;
    let mut t = Nanos::ZERO;
    per_call_ns(writes, || {
        for w in 0..writes {
            t = ssd
                .write(Lba((w % regions) * region_blocks), &region, t)
                .expect("writing inside the logical space");
        }
    }) / 1e3
}

/// Host µs per region-sized `pwrite`, over one and a half times the
/// cache file so that the second half pays for cleaning.
pub fn f2fs() -> f64 {
    let fs = FileSystem::format(config::fs_config());
    let ino = fs
        .create("drive.data", Nanos::ZERO)
        .expect("creating a file on a fresh filesystem");
    let region = vec![0x5au8; REGION_BYTES];
    let regions = u64::from(config::file_regions());
    let writes = regions * 3 / 2;
    let mut t = Nanos::ZERO;
    per_call_ns(writes, || {
        for w in 0..writes {
            t = fs
                .pwrite(ino, (w % regions) * REGION_BYTES as u64, &region, t)
                .expect("writing inside the file");
        }
    }) / 1e3
}

/// Host ns per index lookup among `keys` entries.
pub fn index_lookup(keys: u64) -> f64 {
    let index = Index::new();
    for id in 0..keys {
        let entry = IndexEntry {
            region: RegionId((id % 384) as u32),
            offset: (id % 64) as u32 * 4096,
            key_len: 16,
            value_len: 4096,
            fingerprint: id as u32,
            expiry: Nanos::MAX,
            accessed: false,
        };
        index.insert(hash_of(id), entry);
    }
    let lookups = 1_000_000u64;
    let mut found = 0u64;
    let ns = per_call_ns(lookups, || {
        for i in 0..lookups {
            let id = (i * 7919) % keys;
            found += u64::from(index.lookup(hash_of(id), id as u32).is_some());
        }
    });
    assert_eq!(found, lookups, "the index lost an entry");
    ns
}

/// Host ns per DRAM-tier hit on one shard's worth of 4 KiB entries.
pub fn dram_get() -> f64 {
    let shard_bytes = config::default_dram_pool(zns_cache_repro::zns_cache::Scheme::Region) / 16;
    let mut cache = DramCache::new(shard_bytes);
    let entries = (shard_bytes / (config::SMALL_VALUE + 16)) as u64 - 1;
    let mut value = Vec::new();
    for id in 0..entries {
        fill_value(id, 0, config::SMALL_VALUE, &mut value);
        let key = Bytes::from(format!("key-{id:012}").into_bytes());
        cache.insert(
            hash_of(id),
            DramEntry {
                key,
                value: Bytes::from(value.clone()),
                expiry: Nanos::MAX,
                accessed: false,
            },
        );
    }
    let keys: Vec<Vec<u8>> = (0..entries)
        .map(|id| format!("key-{id:012}").into_bytes())
        .collect();
    let gets = 1_000_000u64;
    let mut found = 0u64;
    let ns = per_call_ns(gets, || {
        for i in 0..gets {
            let id = (i * 7919) % entries;
            found += u64::from(
                cache
                    .get(hash_of(id), &keys[id as usize], Nanos::ZERO)
                    .is_some(),
            );
        }
    });
    assert_eq!(found, gets, "the DRAM tier lost an entry it had room for");
    ns
}

/// `(decode ns per request frame, encode ns per reply)` for 4 KiB values.
pub fn wire() -> (f64, f64) {
    let mut value = Vec::new();
    fill_value(1, 1, config::SMALL_VALUE, &mut value);
    let mut frames = Vec::new();
    let per_pass = 64u64;
    for id in 0..per_pass {
        let req = if id % 2 == 0 {
            Request::Set {
                id,
                key: b"key-000000000001".to_vec(),
                value: value.clone(),
            }
        } else {
            Request::Get {
                id,
                key: b"key-000000000001".to_vec(),
            }
        };
        append_request_frame(&req, &mut frames);
    }
    let passes = 4_000u64;
    let mut bytes = 0usize;
    let decode = per_call_ns(passes * per_pass, || {
        for _ in 0..passes {
            let mut at = 0;
            while let Ok(FrameSplit::Frame { payload, advance }) = split_frame(&frames[at..]) {
                let req = decode_request_ref(&frames[at + payload.start..at + payload.end])
                    .expect("decoding a frame this drive encoded");
                bytes += req.owned_len();
                at += advance;
            }
        }
    });
    black_box(bytes);
    let reply = Reply::Value {
        id: 7,
        value: Bytes::from(value),
    };
    let mut out = Vec::with_capacity(per_pass as usize * (config::SMALL_VALUE + 32));
    let encode = per_call_ns(passes * per_pass, || {
        for _ in 0..passes {
            out.clear();
            for _ in 0..per_pass {
                append_reply_frame(&reply, &mut out);
            }
            black_box(&out);
        }
    });
    (decode, encode)
}

/// Host ns to draw one op of the workload's stream.
pub fn op_gen(keys: u64, get: f64, set: f64) -> f64 {
    let mut gen = OpGen::new(1, keys, get, set);
    let ops = 500_000u64;
    let mut sum = 0u64;
    let ns = per_call_ns(ops, || {
        for _ in 0..ops {
            sum = sum.wrapping_add(gen.next_op().1);
        }
    });
    black_box(sum);
    ns
}

/// The drives of the layers a workload's stack has, as `(metric, value)` pairs.
pub fn run(
    scheme: zns_cache_repro::zns_cache::Scheme,
    has_dram: bool,
    served: bool,
    keys: u64,
) -> Vec<(&'static str, f64)> {
    use zns_cache_repro::zns_cache::Scheme;
    let mut out = vec![("core.index_lookup_ns", index_lookup(keys))];
    if has_dram {
        out.push(("core.dram_get_ns", dram_get()));
    }
    let (program, read) = nand();
    out.push(("nand.program_wall_ns", program));
    out.push(("nand.read_wall_ns", read));
    if scheme != Scheme::Block {
        let (append, read4k) = zns();
        out.push(("zns.append_wall_us", append));
        out.push(("zns.read4k_wall_ns", read4k));
    }
    match scheme {
        Scheme::Block => out.push(("ftl.write_wall_us", ftl())),
        Scheme::File => out.push(("f2fs.pwrite_wall_us", f2fs())),
        Scheme::Zone | Scheme::Region => {}
    }
    if served {
        let (decode, encode) = wire();
        out.push(("wire.decode_ns_per_frame", decode));
        out.push(("wire.encode_ns_per_reply", encode));
    }
    out
}

/// Every drive, for `benchmark drives`.
pub fn run_all() -> Vec<(&'static str, f64)> {
    use zns_cache_repro::zns_cache::Scheme;
    let mut out = run(Scheme::File, true, true, config::CHURN_KEYS);
    out.push(("ftl.write_wall_us", ftl()));
    out.push((
        "workload.gen_ns_per_op",
        op_gen(config::CHURN_KEYS, config::CHURN_GET, config::CHURN_SET),
    ));
    out
}
