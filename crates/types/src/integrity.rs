//! CRC32C (Castagnoli) integrity checksums.
//!
//! The BDRM snapshot format (and anything else that wants to detect
//! bit rot or torn writes) needs a checksum that is cheap, incremental,
//! and dependency-free. CRC32C is the storage-industry standard for
//! exactly this role (iSCSI, ext4, Btrfs, LevelDB); the reflected
//! polynomial `0x82F63B78` here matches every one of those
//! implementations, so the test vectors below are externally checkable.
//!
//! [`Crc32c`] is an incremental hasher: feed it section bytes as they
//! are produced and [`finalize`](Crc32c::finalize) when the section
//! closes. [`crc32c`] is the one-shot convenience over a slice.
//!
//! On x86-64 CPUs with SSE4.2 the hasher uses the `crc32` instruction,
//! which computes exactly this polynomial, 8 bytes per step; the choice
//! is made at run time. Elsewhere it falls back to a bytewise table
//! loop, which is also the reference the kernel is tested against.

/// Reflected CRC32C polynomial (Castagnoli).
const POLY: u32 = 0x82F6_3B78;

/// Byte-indexed lookup table, built at compile time.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Incremental CRC32C hasher.
///
/// # Examples
///
/// ```
/// use bdrmap_types::integrity::{crc32c, Crc32c};
///
/// let mut h = Crc32c::new();
/// h.update(b"1234");
/// h.update(b"56789");
/// assert_eq!(h.finalize(), crc32c(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Crc32c {
        Crc32c::new()
    }
}

impl Crc32c {
    /// A fresh hasher.
    pub fn new() -> Crc32c {
        Crc32c { state: !0 }
    }

    /// Feed `data` into the running checksum.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: the CPU supports SSE4.2, checked just above.
            self.state = unsafe { update_sse42(self.state, data) };
            return;
        }
        self.state = update_table(self.state, data);
    }

    /// The checksum over everything fed so far.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32C of a byte slice.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut h = Crc32c::new();
    h.update(data);
    h.finalize()
}

/// Bytewise table loop over a raw (pre-inverted) CRC state.
fn update_table(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// The SSE4.2 `crc32` instruction over a raw (pre-inverted) CRC state:
/// 8 bytes per step, then the tail a byte at a time.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn update_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = data.chunks_exact(8);
    let mut wide = u64::from(crc);
    for w in &mut words {
        let word = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        wide = _mm_crc32_u64(wide, word);
    }
    // The instruction leaves the 32-bit state in the low half.
    let mut crc = wide as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`Crc32c::update`] from a raw state: the SSE4.2 kernel where the
    /// CPU has it, else the table, so every CPU tests the path it runs.
    fn dispatched(state: u32, data: &[u8]) -> u32 {
        let mut h = Crc32c { state };
        h.update(data);
        h.state
    }

    /// Deterministic filler bytes (xorshift), so unaligned words differ.
    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Known-answer tests against the published CRC32C vectors (RFC
    /// 3720 appendix B.4 and the common check value), through the
    /// public entry point, the dispatched path and the table.
    #[test]
    fn known_answers() {
        let vectors: [(&[u8], u32); 6] = [
            (b"", 0),
            (b"123456789", 0xE306_9283),
            (b"a", 0xC1D0_4330),
            (b"The quick brown fox jumps over the lazy dog", 0x2262_0404),
            // 32 zero bytes (iSCSI test vector).
            (&[0u8; 32], 0x8A91_36AA),
            // 32 0xFF bytes.
            (&[0xFFu8; 32], 0x62A8_AB43),
        ];
        for (data, want) in vectors {
            assert_eq!(crc32c(data), want, "{data:?}");
            assert_eq!(!dispatched(!0, data), want, "dispatched: {data:?}");
            assert_eq!(!update_table(!0, data), want, "table: {data:?}");
        }
    }

    /// The dispatched path agrees with the table at every length up to
    /// a KB from every start alignment, on a multi-MB buffer, and across
    /// incremental splits.
    #[test]
    fn dispatched_path_agrees_with_the_table() {
        let data = noise(4 << 20);
        for off in 0..8 {
            for len in 0..=1024 {
                let s = &data[off..off + len];
                assert_eq!(
                    dispatched(!0, s),
                    update_table(!0, s),
                    "off {off} len {len}"
                );
            }
        }
        assert_eq!(dispatched(!0, &data), update_table(!0, &data), "4 MB");
        let whole = update_table(!0, &data[..5000]);
        for split in [0, 1, 3, 7, 8, 9, 2500, 4991, 4999, 5000] {
            let head = dispatched(!0, &data[..split]);
            assert_eq!(dispatched(head, &data[split..5000]), whole, "split {split}");
        }
    }

    /// Incremental hashing over arbitrary split points must equal the
    /// one-shot checksum.
    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let whole = crc32c(&data);
        for split in [0, 1, 7, 499, 999, 1000] {
            let mut h = Crc32c::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
        // Byte-at-a-time.
        let mut h = Crc32c::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), whole);
    }

    /// Any single-bit flip must change the checksum (the property the
    /// snapshot codec relies on to catch bit rot).
    #[test]
    fn single_bit_flips_are_detected() {
        let data = b"border maps must not rot on disk".to_vec();
        let clean = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), clean, "flip {byte}:{bit} undetected");
            }
        }
    }
}
