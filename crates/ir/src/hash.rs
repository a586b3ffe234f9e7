//! Content hashing for compile-service cache keys.
//!
//! A [`Fnv64`] is a streaming FNV-1a 64-bit hasher. It is *not* a
//! `std::hash::Hasher` replacement for hash maps — it exists so that the
//! persistent compile service (`darm-serve`) can key its cross-run cache
//! by a **stable, platform-independent content hash** of (function IR ×
//! canonical pass spec). `std`'s `DefaultHasher` is explicitly documented
//! as unstable across releases and seeds per process, which would make
//! warm-vs-cold byte-identity untestable and any future on-disk cache
//! unusable; FNV-1a over the printed text is deterministic everywhere.
//!
//! The canonical content of a function is its printed textual form — the
//! same rendering that round-trips through the parser — streamed straight
//! into the hasher through [`Fnv64`]'s `fmt::Write` impl, so hashing a
//! function ([`Function::content_hash`](crate::Function::content_hash))
//! allocates nothing.

use std::fmt;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64-bit hasher (see the [module docs](self) for why
/// not `std::hash`).
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64::default()
    }

    /// Absorbs `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a single delimiter byte — used to keep concatenated fields
    /// (`spec` × `function text`) from colliding across field boundaries —
    /// and by `darm-serve`'s two-stream key hasher, byte by byte, which is
    /// why it must inline across the crate boundary.
    #[inline]
    pub fn write_u8(&mut self, byte: u8) {
        self.write(&[byte]);
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

impl crate::Function {
    /// Stable content hash of this function: FNV-1a 64 over the printed
    /// textual form (the canonical, parser-round-tripping rendering), so
    /// two functions hash equal iff they print identically. Allocation
    /// free — the printer streams into the hasher.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        self.write_to(&mut h).expect("Fnv64 sink never fails");
        h.finish()
    }
}

/// FNV-1a 64 of a byte slice in one call.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        // Test vectors from the FNV reference implementation.
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv64::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a_64(b"foobar"));
    }

    #[test]
    fn delimiters_separate_field_boundaries() {
        let key = |a: &str, b: &str| {
            let mut h = Fnv64::new();
            h.write(a.as_bytes());
            h.write_u8(0);
            h.write(b.as_bytes());
            h.finish()
        };
        assert_ne!(key("ab", "c"), key("a", "bc"));
    }
}
