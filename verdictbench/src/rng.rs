//! The benchmark's seeded generator: problem order and concrete inputs are
//! a function of `--seed` alone.

/// SplitMix64 (Steele, Lea and Flood): small, fast, and good enough for
/// shuffles and test inputs.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator started at `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`), with negligible modulo bias for the
    /// small `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Mixes `parts` into one seed, so each pass and each problem gets its own
/// stream.
pub fn mix(parts: &[u64]) -> u64 {
    let mut rng = SplitMix64::new(0x5eed);
    let mut acc = 0;
    for &p in parts {
        rng = SplitMix64::new(rng.next_u64() ^ p);
        acc = rng.next_u64();
    }
    acc
}

/// A stable 64-bit hash of a string (FNV-1a), for per-problem seeds and the
/// source digest.
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
