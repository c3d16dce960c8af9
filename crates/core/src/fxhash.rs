//! Multiply-xor hashing (the FxHash construction) for crate-internal maps
//! keyed by small integers: the delta engine's route-memo refcounts, keyed
//! by `(region, /24, epoch)`, and the border collector's annotation memo,
//! keyed by hop address. Neither key is attacker-controlled, and both maps
//! sit on paths that run millions of times per study, where SipHash shows
//! up in the wall clock. No map built on this hasher may be iterated into
//! output: its order is no more meaningful than SipHash's.

/// The hasher state: one 64-bit word, folded per written integer.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

/// `BuildHasher` for maps keyed through [`FxHasher`].
pub(crate) type FxBuild = std::hash::BuildHasherDefault<FxHasher>;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl std::hash::Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}
