//! CRC32 (IEEE 802.3: reflected, polynomial `0xEDB88320`), the checksum
//! behind trace framing and snapshot sections.
//!
//! Slice-by-8: eight table lookups per 8-byte chunk instead of one per
//! byte, bit-identical to the classic byte-at-a-time loop (which still
//! handles the tail). Trace replay checks a CRC over every record body
//! and the daemon re-checksums snapshot sections on every absorb, so
//! the constant factor matters.

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][(t[k - 1][i] & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Incremental CRC32: [`update`](Crc32::update) over any number of
/// slices, then [`finish`](Crc32::finish). Splitting the input anywhere
/// gives the same checksum as one call over the whole.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A checksum over no bytes yet.
    pub fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut crc = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.0 = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(self) -> u32 {
        !self.0
    }
}

/// One-shot CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time definition the tables are built from.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    #[test]
    fn check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn split_updates_equal_one_shot() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + i / 5) as u8).collect();
        let whole = crc32(&data);
        assert_eq!(whole, bitwise(&data));
        for cut in 0..=data.len() {
            let mut c = Crc32::new();
            c.update(&data[..cut]);
            c.update(&data[cut..]);
            assert_eq!(c.finish(), whole, "split at {cut}");
        }
        // Odd-sized pieces keep every update off the 8-byte grid.
        let mut c = Crc32::new();
        for piece in data.chunks(3) {
            c.update(piece);
        }
        assert_eq!(c.finish(), whole);
    }

    /// The v1 fixture predates checksums; every v2 record body is
    /// checked against this kernel as the fixture loads.
    #[test]
    fn golden_fixtures_still_load() {
        for golden in [
            &include_bytes!("../../../samples/golden_v1.trace")[..],
            &include_bytes!("../../../samples/golden_v2.trace")[..],
        ] {
            crate::TraceReader::new(golden).expect("golden trace loads");
        }
    }
}
