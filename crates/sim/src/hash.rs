//! A stable, platform-independent hasher for trace fingerprinting.
//!
//! [`std::collections::hash_map::DefaultHasher`] is explicitly allowed to
//! change between Rust releases, so determinism checks ("the same seed
//! produces the identical trace") need their own hash with a pinned
//! algorithm. [`StableHasher`] is 64-bit FNV-1a: tiny, allocation-free,
//! and byte-for-byte reproducible everywhere.
//!
//! Integer writes take a fast path that returns exactly what the byte
//! loop would. XOR with a zero byte is the identity, so a run of `k`
//! zero bytes only multiplies the state by `FNV_PRIME^k`. A small id's
//! high zero bytes therefore collapse into one multiply by a
//! precomputed power, instead of one dependent multiply per byte: a
//! one-byte id in a `usize` costs one multiply instead of eight.

use std::hash::Hasher;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `ZERO_RUN[k]` is `FNV_PRIME^k`: folding `k` zero bytes into the state
/// is one multiply by it.
const ZERO_RUN: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < powers.len() {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// A 64-bit FNV-1a [`Hasher`] with a stable, documented algorithm.
///
/// Feed it anything that implements [`std::hash::Hash`]; equal inputs
/// produce equal outputs on every platform and toolchain.
///
/// # Examples
///
/// ```
/// use asym_sim::StableHasher;
/// use std::hash::{Hash, Hasher};
///
/// let mut a = StableHasher::new();
/// let mut b = StableHasher::new();
/// (1u64, "trace").hash(&mut a);
/// (1u64, "trace").hash(&mut b);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StableHasher {
    state: u64,
}

impl StableHasher {
    /// Creates a hasher at the standard FNV offset basis.
    pub const fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Folds the `size` native-endian bytes of `v` (which must fit in
    /// them) exactly as [`Hasher::write`] would. On little-endian hosts
    /// the bytes above the highest nonzero one come last and fold as a
    /// single zero-run multiply; big-endian hosts take the byte loop.
    #[inline]
    fn write_word(&mut self, v: u64, size: usize) {
        if cfg!(target_endian = "big") {
            self.write(&v.to_ne_bytes()[8 - size..]);
            return;
        }
        // A zero value is one zero byte followed by a zero run.
        let significant = (u64::BITS - v.leading_zeros()).div_ceil(8).max(1) as usize;
        let mut state = self.state;
        let mut rest = v;
        for _ in 1..significant {
            state = (state ^ (rest & 0xff)).wrapping_mul(FNV_PRIME);
            rest >>= 8;
        }
        // The top significant byte's multiply merges with the run.
        self.state = (state ^ rest).wrapping_mul(ZERO_RUN[size - significant + 1]);
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.state
    }

    /// The reference byte loop; every `write_*` override below returns
    /// exactly what it would for the value's native-endian bytes.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.state = (self.state ^ u64::from(i)).wrapping_mul(FNV_PRIME);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_word(u64::from(i), 4);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.write_word(i, 8);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_word(i as u64, std::mem::size_of::<usize>());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn known_vectors() {
        // FNV-1a test vectors from the reference implementation.
        let hash = |bytes: &[u8]| {
            let mut h = StableHasher::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hash_trait_integration_is_deterministic() {
        let digest = |v: &[(u64, bool)]| {
            let mut h = StableHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        let data = vec![(1, true), (2, false)];
        assert_eq!(digest(&data), digest(&data));
        assert_ne!(digest(&data), digest(&[(1, true)]));
    }

    /// The byte loop's answer for `bytes`, continuing from `h`.
    fn by_bytes(mut h: StableHasher, bytes: &[u8]) -> u64 {
        h.write(bytes);
        h.finish()
    }

    /// Oracle values: for every significant-byte length 0..=8, seeded
    /// random values of exactly that length, the same with every other
    /// byte zeroed (interior zero runs), plus the extremes.
    fn oracle_values() -> Vec<u64> {
        let mut rng = crate::Rng::new(0x0fa5_7fa7);
        let mut values = vec![0, 1, 0xff, 0x100, u64::MAX, u64::MAX - 1, 1 << 63];
        for len in 0..=8u32 {
            for _ in 0..64 {
                let mask = if len == 8 {
                    u64::MAX
                } else {
                    (1u64 << (8 * len)) - 1
                };
                // Force the top byte nonzero so the length is exact.
                let top = if len == 0 { 0 } else { 1u64 << (8 * len - 1) };
                let v = (rng.next_u64() & mask) | top;
                values.push(v);
                values.push(v & 0xff00_ff00_ff00_ff00 | top);
                values.push(v & 0x00ff_00ff_00ff_00ff | top);
            }
        }
        values
    }

    #[test]
    fn word_writes_equal_the_byte_loop() {
        // Start mid-stream as well as fresh: the fast path must not
        // depend on the state it continues from.
        let mut primed = StableHasher::new();
        primed.write(b"prefix");
        for start in [StableHasher::new(), primed] {
            for v in oracle_values() {
                let mut h = start;
                h.write_u64(v);
                assert_eq!(h.finish(), by_bytes(start, &v.to_ne_bytes()), "u64 {v:#x}");

                let mut h = start;
                h.write_i64(v as i64);
                assert_eq!(h.finish(), by_bytes(start, &(v as i64).to_ne_bytes()));

                let u = v as usize;
                let mut h = start;
                h.write_usize(u);
                assert_eq!(
                    h.finish(),
                    by_bytes(start, &u.to_ne_bytes()),
                    "usize {u:#x}"
                );

                let mut h = start;
                h.write_isize(u as isize);
                assert_eq!(h.finish(), by_bytes(start, &(u as isize).to_ne_bytes()));

                for w in [v as u32, (v >> 32) as u32] {
                    let mut h = start;
                    h.write_u32(w);
                    assert_eq!(h.finish(), by_bytes(start, &w.to_ne_bytes()), "u32 {w:#x}");
                }

                let b = v as u8;
                let mut h = start;
                h.write_u8(b);
                assert_eq!(h.finish(), by_bytes(start, &[b]), "u8 {b:#x}");
            }
        }
    }

    #[test]
    fn mixed_write_sequence_equals_the_byte_loop() {
        let mut fast = StableHasher::new();
        let mut bytes = Vec::new();
        for (i, v) in oracle_values().into_iter().enumerate() {
            match i % 5 {
                0 => {
                    fast.write_u64(v);
                    bytes.extend_from_slice(&v.to_ne_bytes());
                }
                1 => {
                    fast.write_u32(v as u32);
                    bytes.extend_from_slice(&(v as u32).to_ne_bytes());
                }
                2 => {
                    fast.write_usize(v as usize);
                    bytes.extend_from_slice(&(v as usize).to_ne_bytes());
                }
                3 => {
                    fast.write_u8(v as u8);
                    bytes.push(v as u8);
                }
                _ => {
                    fast.write(&v.to_le_bytes()[..(i % 8)]);
                    bytes.extend_from_slice(&v.to_le_bytes()[..(i % 8)]);
                }
            }
        }
        assert_eq!(fast.finish(), by_bytes(StableHasher::new(), &bytes));
    }
}
