//! A tiny reproducible hasher shared across the workspace.
//!
//! Several layers need a *stable* 64-bit digest — target fingerprints
//! (artifact-store keys), module fingerprints (serving-layer deployment dedup),
//! result checksums (differential suites) — and none of them can use the
//! std hasher, whose values are randomized per process. They all speak
//! FNV-1a through this one implementation so the constants and the
//! byte-order discipline cannot silently diverge between copies.

/// Incremental 64-bit FNV-1a.
///
/// # Example
///
/// ```
/// use splitc_targets::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.write(b"abc");
/// assert_eq!(h.finish(), Fnv1a::hash(b"abc"));
/// assert_ne!(Fnv1a::hash(b"abc"), Fnv1a::hash(b"abd"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The FNV-1a offset basis.
    pub const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    /// The FNV-1a 64-bit prime.
    pub const PRIME: u64 = 0x100_0000_01b3;

    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Absorb `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// One-shot convenience: the digest of `bytes`.
    pub fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        // Reference values for the 64-bit FNV-1a parameters.
        assert_eq!(Fnv1a::hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::hash(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_writes_equal_one_shot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), Fnv1a::hash(b"foobar"));
        assert_eq!(Fnv1a::default().finish(), Fnv1a::new().finish());
    }
}
