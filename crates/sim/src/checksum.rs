//! CRC32 (IEEE 802.3, reflected 0xEDB88320) checksums.
//!
//! Used end-to-end by the cache layers: every on-flash object carries a
//! CRC over its key + value, and the recovery snapshot carries one over its
//! whole blob — so every set, demotion, verified read, scrub and snapshot
//! runs this pass over the full payload, and its speed is the engine's
//! per-byte host cost.
//!
//! The kernel is **slicing-by-16** (the slicing-by-8 scheme of Kounavis
//! and Berry, one step wider): sixteen 256-entry tables, built at compile
//! time, where `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
//! bytes. One step xors the 32-bit state into the first four of sixteen
//! input bytes and combines sixteen independent lookups, so the serial
//! dependency is one xor tree per 16 bytes instead of one lookup per byte;
//! a bytewise tail (`TABLES[0]`, the classic table) takes the last 0..=15
//! bytes. Sixteen measured about 10 % less host time per engine op than
//! eight on the churn benchmark, for 16 KiB of tables instead of 8 KiB.
//! Safe code only: no `unsafe`, no intrinsics, no runtime dispatch.
//!
//! The values are those of zlib's `crc32()` for every input (the bytewise
//! loop survives as the test oracle), so on-flash object headers, recovery
//! snapshots and golden vectors from any standard tool stay valid.
//! Hand-rolled because the offline build cannot fetch a crc crate.

/// One-shot CRC32 of `data`.
///
/// # Example
///
/// ```
/// use sim::checksum::crc32;
///
/// // Golden value from zlib / Python's binascii.crc32.
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// assert_eq!(crc32(b""), 0);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

/// Input bytes folded per step of the main loop (one table each).
const SLICES: usize = 16;

const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[k][b] = CRC of byte `b` followed by `k` zero bytes: one more
    // bytewise step over a zero byte per level.
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = build_tables();

/// Incremental CRC32, for checksumming data assembled in pieces (e.g. an
/// object header's key and value without concatenating them).
///
/// # Example
///
/// ```
/// use sim::checksum::{crc32, Crc32};
///
/// let mut c = Crc32::new();
/// c.update(b"1234");
/// c.update(b"56789");
/// assert_eq!(c.finalize(), crc32(b"123456789"));
/// ```
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Folds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        let mut chunks = data.chunks_exact(SLICES);
        for c in &mut chunks {
            // The state reaches only the first four bytes. The first byte
            // has the most bytes after it, so it takes the last table.
            let head = (crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]])).to_le_bytes();
            crc = head
                .iter()
                .chain(&c[4..])
                .zip(TABLES.iter().rev())
                .fold(0, |acc, (&b, table)| acc ^ table[b as usize]);
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Returns the finished checksum (the accumulator stays reusable).
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    use super::*;

    /// The bytewise loop the slicing kernel replaced, kept as the oracle:
    /// one `TABLES[0]` lookup per byte, continuing from `state`.
    fn oracle_update(state: u32, data: &[u8]) -> u32 {
        data.iter().fold(state, |crc, &b| {
            (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
        })
    }

    fn oracle(data: &[u8]) -> u32 {
        !oracle_update(!0, data)
    }

    fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        for chunk in buf.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes()[..chunk.len()]);
        }
        buf
    }

    #[test]
    fn matches_oracle_at_every_length_and_offset() {
        // Every length across several step boundaries (and the 256-entry
        // table size), at every start offset within a step.
        let mut rng = StdRng::seed_from_u64(0xC4C3_2001);
        let buf = random_bytes(&mut rng, 257 + SLICES);
        for offset in 0..SLICES {
            for len in 0..=257 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), oracle(data), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn incremental_splits_match_oracle() {
        // 1..=4 pieces at random cut points: the state carried between
        // `update` calls must be the oracle's state, whatever mix of
        // whole steps and tail bytes each piece took.
        let mut rng = StdRng::seed_from_u64(0xC4C3_2002);
        for _ in 0..2000 {
            let len = rng.gen_range(0usize..600);
            let data = random_bytes(&mut rng, len);
            let mut cuts: Vec<usize> =
                (0..rng.gen_range(0usize..4)).map(|_| rng.gen_range(0usize..len + 1)).collect();
            cuts.sort_unstable();
            cuts.push(len);
            let mut inc = Crc32::new();
            let mut at = 0;
            for cut in cuts {
                inc.update(&data[at..cut]);
                at = cut;
                assert_eq!(inc.state, oracle_update(!0, &data[..at]), "state after {at} of {len}");
            }
            assert_eq!(inc.finalize(), oracle(&data));
        }
    }

    #[test]
    fn large_buffers_match_oracle() {
        let mut rng = StdRng::seed_from_u64(0xC4C3_2003);
        for _ in 0..16 {
            let data = random_bytes(&mut rng, 64 * 1024);
            assert_eq!(crc32(&data), oracle(&data));
        }
    }

    #[test]
    fn golden_values() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = vec![0x5au8; 4096];
        let clean = crc32(&data);
        for bit in [0usize, 1, 8, 4095 * 8 + 7, 2048 * 8 + 3] {
            let mut corrupted = data.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&corrupted), clean, "bit {bit} undetected");
        }
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let mut inc = Crc32::new();
        for chunk in data.chunks(17) {
            inc.update(chunk);
        }
        assert_eq!(inc.finalize(), crc32(&data));
    }
}
