//! Streaming FNV-1a digests.
//!
//! One 64-bit digest implementation shared by every consumer that needs a
//! stable, dependency-free content hash: the golden-digest regression tests
//! fold simulation observables through it, and the experiment matrix
//! (`experiments::expmatrix`) keys its on-disk result cache on the digest
//! of a canonicalized cell config. Keeping the primitive here means "what
//! the cache keys on" and "what the golden tests pin" are the same bytes
//! semantics, maintained in one place.
//!
//! FNV-1a is not cryptographic; it is used for content addressing among
//! trusted local artifacts where a 64-bit collision over a few thousand
//! entries is negligible (birthday bound ≈ n²/2⁶⁵).

use crate::json::{canonical, Value};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// Start a digest from the standard offset basis.
    pub fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    /// Fold raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold one `u64` (little-endian bytes, matching the golden tests'
    /// historical `fold`).
    pub fn write_u64(&mut self, x: u64) {
        self.write(&x.to_le_bytes());
    }

    /// Fold one `f64` by bit pattern (`-0.0 != 0.0`, NaNs distinct).
    pub fn write_f64(&mut self, x: f64) {
        self.write_u64(x.to_bits());
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest a byte slice in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Digest a JSON value via its canonical serialization: key order and
/// whitespace of the original document cannot affect the result, while any
/// value-level change does.
pub fn canonical_digest(v: &Value) -> u64 {
    fnv1a(canonical(v).as_bytes())
}

/// Fixed-width lower-hex rendering of a digest (16 chars), the cache's
/// on-disk entry-name format.
pub fn hex16(d: u64) -> String {
    format!("{d:016x}")
}

/// Parse the [`hex16`] rendering back to a digest.
pub fn from_hex16(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn matches_reference_vectors() {
        // Classic FNV-1a test vectors.
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn u64_folds_little_endian_bytes() {
        let mut a = Fnv1a::new();
        a.write_u64(0x0102_0304_0506_0708);
        let mut b = Fnv1a::new();
        b.write(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn canonical_digest_ignores_layout_not_values() {
        let a = json::parse(r#"{"b": 1, "a": {"y": true, "x": [1, 2]}}"#).unwrap();
        let b = json::parse("{\n  \"a\": {\"x\": [1,\t2], \"y\": true},\n  \"b\": 1\n}").unwrap();
        assert_eq!(canonical_digest(&a), canonical_digest(&b));
        let c = json::parse(r#"{"b": 1, "a": {"y": true, "x": [1, 3]}}"#).unwrap();
        assert_ne!(canonical_digest(&a), canonical_digest(&c));
    }

    #[test]
    fn hex16_round_trips() {
        let d = fnv1a(b"cell");
        assert_eq!(from_hex16(&hex16(d)), Some(d));
        assert_eq!(from_hex16("nope"), None);
        assert_eq!(from_hex16("zz00000000000000"), None);
    }
}
