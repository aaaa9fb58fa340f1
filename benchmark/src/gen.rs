//! Inputs made from `--seed`: key tables, value synthesis and
//! verification, and the op stream.
//!
//! A value is a pure function of `(key id, version)`: little-endian words
//! `h(id, version) + i * STEP` for word index `i`. Every byte depends on
//! the key, the version and the position, so a stale version, another
//! key's bytes or a shifted read all fail verification, and verifying a
//! hit needs no copy of what was written.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use zns_cache_repro::workload::{value_len_for_key, Zipf};

const STEP: u64 = 0x9e37_79b9_7f4a_7c15;
const KEY_LEN: usize = 16;

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn first_word(id: u64, version: u32) -> u64 {
    mix(id.wrapping_mul(STEP) ^ (u64::from(version) << 40) ^ 0xA5A5_5A5A)
}

/// Overwrites `out` with the `len`-byte value of `(id, version)`.
pub fn fill_value(id: u64, version: u32, len: usize, out: &mut Vec<u8>) {
    out.clear();
    out.reserve(len + 8);
    let mut w = first_word(id, version);
    while out.len() < len {
        out.extend_from_slice(&w.to_le_bytes());
        w = w.wrapping_add(STEP);
    }
    out.truncate(len);
}

/// Whether `got` is byte-for-byte the `len`-byte value of `(id, version)`.
pub fn value_matches(id: u64, version: u32, len: usize, got: &[u8]) -> bool {
    if got.len() != len {
        return false;
    }
    let mut w = first_word(id, version);
    let mut words = got.chunks_exact(8);
    // Differences are or-ed together, not branched on, so the loop
    // vectorises: verification must stay cheap next to a DRAM hit.
    let mut diff = 0u64;
    for chunk in &mut words {
        diff |= u64::from_le_bytes(chunk.try_into().expect("chunks_exact(8) yields 8 bytes")) ^ w;
        w = w.wrapping_add(STEP);
    }
    let tail = words.remainder();
    diff == 0 && tail == &w.to_le_bytes()[..tail.len()]
}

/// Keys, value lengths and current versions of one workload's key space.
pub struct KeyTable {
    keys: Vec<u8>,
    lens: Vec<u32>,
    versions: Vec<u32>,
}

impl KeyTable {
    /// `fixed_len`: every value that long; `None`: four times the
    /// CacheLib size mixture of `workload::value_len_for_key` (256 B to
    /// 32 KiB, mean about 4.5 KiB).
    pub fn new(n: u64, fixed_len: Option<usize>) -> Self {
        let mut keys = Vec::with_capacity(n as usize * KEY_LEN);
        for id in 0..n {
            keys.extend_from_slice(format!("key-{id:012}").as_bytes());
        }
        let lens = (0..n)
            .map(|id| fixed_len.unwrap_or_else(|| 4 * value_len_for_key(id)) as u32)
            .collect();
        KeyTable {
            keys,
            lens,
            versions: vec![0; n as usize],
        }
    }

    pub fn key(&self, id: u64) -> &[u8] {
        &self.keys[id as usize * KEY_LEN..(id as usize + 1) * KEY_LEN]
    }

    pub fn len_of(&self, id: u64) -> usize {
        self.lens[id as usize] as usize
    }

    pub fn version(&self, id: u64) -> u32 {
        self.versions[id as usize]
    }

    pub fn bump(&mut self, id: u64) -> u32 {
        self.versions[id as usize] += 1;
        self.versions[id as usize]
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Get,
    Set,
    Del,
}

/// The op stream: Zipf-popular keys for GET and SET, uniform keys for
/// DEL (CacheBench drives invalidations from their own generator).
pub struct OpGen {
    rng: StdRng,
    zipf: Zipf,
    keys: u64,
    get: f64,
    set: f64,
}

impl OpGen {
    pub fn new(seed: u64, keys: u64, get: f64, set: f64) -> Self {
        OpGen {
            rng: StdRng::seed_from_u64(seed),
            zipf: Zipf::new(keys, crate::config::ZIPF),
            keys,
            get,
            set,
        }
    }

    pub fn next_op(&mut self) -> (OpKind, u64) {
        let id = self.zipf.sample(&mut self.rng);
        let roll: f64 = self.rng.gen();
        if roll < self.get {
            (OpKind::Get, id)
        } else if roll < self.get + self.set {
            (OpKind::Set, id)
        } else {
            (OpKind::Del, self.rng.gen_range(0..self.keys))
        }
    }

    /// An exponential gap of a Poisson process at `rate_per_ns`.
    pub fn poisson_gap_ns(&mut self, rate_per_ns: f64) -> f64 {
        let u: f64 = self.rng.gen();
        -(1.0 - u).max(1e-12).ln() / rate_per_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trip_and_every_byte_counts() {
        let mut v = Vec::new();
        for (id, version, len) in [
            (0, 0, 256),
            (7, 3, 4096),
            (49_999, 1, 32 * 1024),
            (5, 2, 13),
        ] {
            fill_value(id, version, len, &mut v);
            assert_eq!(v.len(), len);
            assert!(value_matches(id, version, len, &v));
            assert!(
                !value_matches(id, version + 1, len, &v),
                "stale version accepted"
            );
            assert!(
                !value_matches(id + 1, version, len, &v),
                "other key accepted"
            );
            assert!(
                !value_matches(id, version, len, &v[1..]),
                "short read accepted"
            );
            for at in [0, len / 2, len - 1] {
                v[at] ^= 1;
                assert!(
                    !value_matches(id, version, len, &v),
                    "flipped byte {at} accepted"
                );
                v[at] ^= 1;
            }
        }
        // A read shifted by one word is another value.
        fill_value(9, 1, 4096 + 8, &mut v);
        assert!(!value_matches(9, 1, 4096, &v[8..]));
    }

    #[test]
    fn op_stream_is_a_function_of_the_seed() {
        let draw = |seed| {
            let mut g = OpGen::new(seed, 1000, 0.5, 0.3);
            (0..200).map(|_| g.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let ops = draw(7);
        let gets = ops.iter().filter(|(k, _)| *k == OpKind::Get).count();
        assert!((70..130).contains(&gets), "{gets} gets of 200");
    }

    #[test]
    fn key_table_shapes() {
        let t = KeyTable::new(100, None);
        assert_eq!(t.key(42), b"key-000000000042");
        assert!((0..100).all(|id| (256..=32 * 1024).contains(&t.len_of(id))));
        let mut t = KeyTable::new(10, Some(4096));
        assert_eq!((t.len_of(3), t.version(3)), (4096, 0));
        assert_eq!(t.bump(3), 1);
    }
}
