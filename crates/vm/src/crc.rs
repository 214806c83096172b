//! CRC32 (IEEE 802.3: reflected, polynomial `0xEDB88320`), the checksum
//! behind trace framing and snapshot sections.
//!
//! Slice-by-16: sixteen independent table lookups per 16-byte chunk
//! instead of one dependent lookup per byte, bit-identical to the
//! classic byte-at-a-time loop (which still handles the tail). Trace
//! replay checks a CRC over every record body and the daemon
//! re-checksums snapshot sections on every absorb, so the constant
//! factor matters: before this the slice-by-8 loop was about 15% of an
//! open-and-replay pass.

/// Table `k` advances a byte that sits `k` bytes before the end of a
/// chunk: `t[k][b]` is the CRC state contribution of byte `b` followed
/// by `k` zero bytes.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
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
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][(t[k - 1][i] & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

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
        // Byte `i` of a 16-byte chunk goes through table `15 - i`;
        // `lanes(k, w)` folds the four bytes of `w`, which use tables `k`
        // down to `k - 3`.
        let lanes = |k: usize, w: u32| {
            t[k][(w & 0xFF) as usize]
                ^ t[k - 1][((w >> 8) & 0xFF) as usize]
                ^ t[k - 2][((w >> 16) & 0xFF) as usize]
                ^ t[k - 3][(w >> 24) as usize]
        };
        let mut crc = self.0;
        let mut chunks = bytes.chunks_exact(16);
        for c in &mut chunks {
            let le = |i: usize| u32::from_le_bytes([c[i], c[i + 1], c[i + 2], c[i + 3]]);
            crc = lanes(15, le(0) ^ crc) ^ lanes(11, le(4)) ^ lanes(7, le(8)) ^ lanes(3, le(12));
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

    /// The v1 fixture predates checksums; every v2 and v3 record body
    /// is checked against this kernel as the fixture loads.
    #[test]
    fn golden_fixtures_still_load() {
        for golden in [
            &include_bytes!("../../../samples/golden_v1.trace")[..],
            &include_bytes!("../../../samples/golden_v2.trace")[..],
            &include_bytes!("../../../samples/golden_v3.trace")[..],
        ] {
            crate::TraceReader::new(golden).expect("golden trace loads");
        }
    }
}
