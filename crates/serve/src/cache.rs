//! Cross-run compile cache keyed by content hash.
//!
//! Both of the daemon's maps are keyed by a 128-bit [`ContentKey`]: two
//! 64-bit digests of the same bytes from independent starting states, and
//! a hit needs both halves to match. The pass spec is canonicalised
//! (parsed and re-printed) so two spellings of the same pipeline share
//! entries. Each map hashes the text it has at hand the cheapest way:
//!
//! - The function cache ([`content_key`]) hashes `canonical_spec ∥ 0x00 ∥
//!   printed_function_ir` with two FNV-1a-64 streams, fed by
//!   `Function::write_to` piece by piece so the text never exists as a
//!   copy. The printer's pieces are a few bytes each, so a per-byte hash
//!   is what suits them: on the benchmark's `decline-big` functions, on a
//!   2-vCPU x86-64 Xeon, FNV streaming costs 49–52 ns per instruction, a
//!   word hasher fed the same pieces 106–110, and printing into a reused
//!   `String` to hash it by the word 58.
//! - The whole-request memo ([`raw_key`]) hashes the request's raw text,
//!   one contiguous `&str` of tens of kilobytes, so it absorbs a word per
//!   multiply: two lanes of a folded 64×64→128-bit multiply over
//!   little-endian `u64`s, the spec and the text absorbed as
//!   length-delimited parts, the total length last (0.27–0.29 ns/byte on
//!   the same machine and functions, where two FNV chains took 1.3).
//!
//! The two keys index different maps, so they need not agree, and they
//! do not. Both are pure functions of the bytes — the same on every
//! platform and in every process — and neither is cryptographic: a
//! *single* 64-bit digest of either admits constructible collisions, and
//! a colliding hit would silently serve another input's compiled IR,
//! since hits skip parse and verify. Requiring two independently started
//! digests to agree closes that hole for anything short of a deliberate
//! attack on both at once. Keying the function cache per *function*, not
//! per module, means a warm module that gained one new function only
//! compiles the newcomer.
//!
//! The cache holds both positive entries (optimized IR) and *negative*
//! entries: functions whose compilation failed deterministically (a
//! contained panic or pass error) are remembered as degraded, so a
//! repeat offender fails fast instead of re-tripping the same landmine
//! on every request.  Budget exhaustion (deadline/fuel) is *not*
//! negatively cached — those causes depend on per-request limits and
//! machine load, not on the input.
//!
//! Bounded by entry count and total payload bytes with LRU eviction.

use std::collections::HashMap;

use darm_ir::hash::Fnv64;
use darm_ir::Function;

/// A 128-bit content key: two 64-bit digests of the same bytes from
/// independent starting states ([`content_key`] and [`raw_key`] say how).
/// Both halves must match for a cache hit, so a collision in one 64-bit
/// hash alone cannot alias two different inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentKey {
    lo: u64,
    hi: u64,
}

/// Streams one byte sequence into both FNV halves of a [`content_key`].
struct WideHasher {
    lo: Fnv64,
    hi: Fnv64,
}

impl WideHasher {
    fn new() -> WideHasher {
        let lo = Fnv64::new();
        // Seed the second stream by absorbing a fixed tag byte: after
        // one FNV round its state is decorrelated from `lo`'s, so the
        // two digests of the same input are independent.
        let mut hi = Fnv64::new();
        hi.write_u8(0x9e);
        WideHasher { lo, hi }
    }

    /// One pass over `bytes`, both streams per byte: the two multiply
    /// chains overlap instead of running back to back.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lo.write_u8(b);
            self.hi.write_u8(b);
        }
    }

    fn finish(&self) -> ContentKey {
        ContentKey {
            lo: self.lo.finish(),
            hi: self.hi.finish(),
        }
    }
}

impl std::fmt::Write for WideHasher {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Compute the cache key for one function under a canonical spec.
pub fn content_key(canonical_spec: &str, func: &Function) -> ContentKey {
    let mut hasher = WideHasher::new();
    hasher.write(canonical_spec.as_bytes());
    hasher.write(&[0]);
    // Streams the printed IR through both hashers via `fmt::Write`.
    let _ = func.write_to(&mut hasher);
    hasher.finish()
}

/// The folded multiply of wyhash and foldhash: `x × multiplier` to 128
/// bits, the two halves xored. The low half alone is a bijection of `x`
/// (the multiplier is odd), but its bit `k` sees only bits `0..=k` of `x`;
/// the high half carries the upper bits down.
fn fold(x: u64, multiplier: u64) -> u64 {
    let product = u128::from(x) * u128::from(multiplier);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The two lanes of [`raw_key`]: 64-bit states from distinct starts
/// (digits of π), each absorbing every little-endian word as `state =
/// fold(state ^ word, multiplier)` under an odd multiplier of its own.
struct WordHasher {
    lo: u64,
    hi: u64,
}

impl WordHasher {
    fn new() -> WordHasher {
        WordHasher {
            lo: 0x243f_6a88_85a3_08d3,
            hi: 0x1319_8a2e_0370_7344,
        }
    }

    fn absorb(&mut self, word: u64) {
        self.lo = fold(self.lo ^ word, 0x9e37_79b9_7f4a_7c15);
        self.hi = fold(self.hi ^ word, 0xc2b2_ae3d_27d4_eb4f);
    }

    /// Absorbs `bytes` as one length-delimited part: its whole words, the
    /// tail zero-padded to a word, then its length — so no two splits of
    /// the same bytes into parts, and no two texts that differ only by
    /// trailing NULs, absorb the same words.
    fn part(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.absorb(u64::from_le_bytes(
                word.try_into().expect("an 8-byte chunk"),
            ));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut padded = [0; 8];
            padded[..tail.len()].copy_from_slice(tail);
            self.absorb(u64::from_le_bytes(padded));
        }
        self.absorb(bytes.len() as u64);
    }
}

/// Compute the whole-request key over the *raw* input text (before any
/// parse), for the engine's whole-request fast path.
pub fn raw_key(canonical_spec: &str, text: &str) -> ContentKey {
    raw_key_of_bytes(canonical_spec.as_bytes(), text.as_bytes())
}

/// [`raw_key`] over bytes, so a test can key texts that are not UTF-8.
fn raw_key_of_bytes(spec: &[u8], text: &[u8]) -> ContentKey {
    let mut hasher = WordHasher::new();
    hasher.part(spec);
    hasher.part(text);
    hasher.absorb(spec.len() as u64 + text.len() as u64);
    ContentKey {
        lo: hasher.lo,
        hi: hasher.hi,
    }
}

/// What the cache remembers about a function: the IR text it answers
/// with and, for a *negative* entry, why compilation failed — the function
/// is pinned to its baseline IR and the diagnostic is replayed verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedOutcome {
    pub ir: String,
    pub diagnostic: Option<String>,
}

impl CachedOutcome {
    pub fn is_degraded(&self) -> bool {
        self.diagnostic.is_some()
    }
}

struct Entry<V> {
    value: V,
    bytes: usize,
    last_used: u64,
}

/// [`ContentKey`] → payload under an entry bound and a payload-byte bound,
/// least recently used out first. The one bounded map of the daemon: the
/// function cache ([`CompileCache`]) and the engine's whole-request memo
/// are both this, each with its own bounds; what a hit or a miss *means*
/// (and so every counter) stays with the caller.
pub(crate) struct BoundedMap<V> {
    entries: HashMap<ContentKey, Entry<V>>,
    max_entries: usize,
    max_bytes: usize,
    bytes: usize,
    tick: u64,
}

impl<V> BoundedMap<V> {
    /// `max_entries == 0` disables the map: nothing is ever kept.
    pub(crate) fn new(max_entries: usize, max_bytes: usize) -> Self {
        BoundedMap {
            entries: HashMap::new(),
            max_entries,
            max_bytes,
            bytes: 0,
            tick: 0,
        }
    }

    /// Looks up a key, refreshing its LRU position on a hit.
    pub(crate) fn get(&mut self, key: ContentKey) -> Option<&V> {
        self.tick += 1;
        let entry = self.entries.get_mut(&key)?;
        entry.last_used = self.tick;
        Some(&entry.value)
    }

    /// Inserts (or replaces) an entry costing `bytes`, then evicts least
    /// recently used entries until both bounds hold again. Returns how many
    /// were evicted, or `None` when the entry was refused (map disabled, or
    /// a payload that would evict everything and still not fit).
    pub(crate) fn insert(&mut self, key: ContentKey, value: V, bytes: usize) -> Option<u64> {
        if self.max_entries == 0 || bytes > self.max_bytes {
            return None;
        }
        self.tick += 1;
        let entry = Entry {
            value,
            bytes,
            last_used: self.tick,
        };
        if let Some(old) = self.entries.insert(key, entry) {
            self.bytes -= old.bytes;
        }
        self.bytes += bytes;
        let mut evicted = 0;
        while self.entries.len() > self.max_entries || self.bytes > self.max_bytes {
            // O(n) LRU scan: entry counts are bounded by `max_entries`
            // (thousands), and eviction is off the hot lookup path.
            let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, entry)| entry.last_used)
            else {
                break;
            };
            if let Some(entry) = self.entries.remove(&victim) {
                self.bytes -= entry.bytes;
                evicted += 1;
            }
        }
        Some(evicted)
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Total payload bytes currently held.
    pub(crate) fn bytes(&self) -> usize {
        self.bytes
    }
}

/// Monotonic counters exposed through `stats` responses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    pub hits: u64,
    pub negative_hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
}

/// The per-function cache: a `BoundedMap` of [`CachedOutcome`]s plus the
/// counters that tell a positive hit from a negative one.
pub struct CompileCache {
    map: BoundedMap<CachedOutcome>,
    counters: CacheCounters,
}

impl CompileCache {
    /// `max_entries == 0` disables the cache entirely: every lookup
    /// misses and every insert is dropped.
    pub fn new(max_entries: usize, max_bytes: usize) -> Self {
        CompileCache {
            map: BoundedMap::new(max_entries, max_bytes),
            counters: CacheCounters::default(),
        }
    }

    /// Look up a key, refreshing its LRU position on a hit.
    ///
    /// The `serve::cache_lookup` fault site fires in the engine
    /// *before* the cache lock is taken, so an injected panic can
    /// never poison the cache mutex mid-mutation.
    pub fn lookup(&mut self, key: ContentKey) -> Option<CachedOutcome> {
        let found = self.map.get(key).cloned();
        match &found {
            Some(outcome) if outcome.is_degraded() => self.counters.negative_hits += 1,
            Some(_) => self.counters.hits += 1,
            None => self.counters.misses += 1,
        }
        found
    }

    /// Insert (or refresh) an entry, evicting least-recently-used
    /// entries until both bounds hold again.
    ///
    /// Like [`CompileCache::lookup`], the `serve::cache_insert` fault
    /// site fires before the lock, never under it.
    pub fn insert(&mut self, key: ContentKey, outcome: CachedOutcome) {
        let bytes = outcome.ir.len() + outcome.diagnostic.as_deref().map_or(0, str::len);
        if let Some(evicted) = self.map.insert(key, outcome, bytes) {
            self.counters.insertions += 1;
            self.counters.evictions += evicted;
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.len() == 0
    }

    /// Total payload bytes currently held — the RSS proxy the soak
    /// test asserts stays bounded.
    pub fn bytes(&self) -> usize {
        self.map.bytes()
    }

    pub fn counters(&self) -> CacheCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opt(ir: &str) -> CachedOutcome {
        CachedOutcome {
            ir: ir.into(),
            diagnostic: None,
        }
    }

    /// A synthetic key for bookkeeping tests that never touch hashing.
    fn key(n: u64) -> ContentKey {
        ContentKey { lo: n, hi: n }
    }

    #[test]
    fn hit_miss_and_negative_counters() {
        let mut cache = CompileCache::new(8, 1024);
        assert_eq!(cache.lookup(key(1)), None);
        cache.insert(key(1), opt("fn a() {}"));
        cache.insert(
            key(2),
            CachedOutcome {
                ir: "fn b() {}".into(),
                diagnostic: Some("pass panicked".into()),
            },
        );
        assert!(cache.lookup(key(1)).is_some());
        assert!(cache.lookup(key(2)).unwrap().is_degraded());
        let c = cache.counters();
        assert_eq!((c.hits, c.negative_hits, c.misses), (1, 1, 1));
        assert_eq!(
            cache.bytes(),
            "fn a() {}".len() + "fn b() {}pass panicked".len()
        );
    }

    #[test]
    fn lru_eviction_respects_entry_bound() {
        let mut cache = CompileCache::new(2, 1024);
        cache.insert(key(1), opt("a"));
        cache.insert(key(2), opt("b"));
        cache.lookup(key(1)); // refresh 1; 2 becomes LRU
        cache.insert(key(3), opt("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(key(1)).is_some());
        assert_eq!(cache.lookup(key(2)), None);
        assert!(cache.lookup(key(3)).is_some());
        assert_eq!(cache.counters().evictions, 1);
    }

    #[test]
    fn byte_bound_evicts_and_oversized_payloads_are_dropped() {
        let mut cache = CompileCache::new(64, 10);
        cache.insert(key(1), opt("aaaa")); // 4 bytes
        cache.insert(key(2), opt("bbbb")); // 8 bytes
        cache.insert(key(3), opt("cccc")); // would be 12 → evict LRU (1)
        assert_eq!(cache.bytes(), 8);
        assert_eq!(cache.lookup(key(1)), None);
        // A payload larger than the whole budget is refused outright.
        cache.insert(key(4), opt("ddddddddddddddd"));
        assert_eq!(cache.lookup(key(4)), None);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = CompileCache::new(0, 1024);
        cache.insert(key(1), opt("a"));
        assert_eq!(cache.lookup(key(1)), None);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn reinsert_replaces_bytes_accounting() {
        let mut cache = CompileCache::new(8, 1024);
        cache.insert(key(1), opt("aaaa"));
        cache.insert(key(1), opt("bb"));
        assert_eq!(cache.bytes(), 2);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn content_key_separates_spec_from_ir() {
        use darm_ir::parser::parse_module;
        let module = parse_module("fn @f() -> void {\nentry:\n  ret\n}").unwrap();
        let func = &module.functions()[0];
        let a = content_key("meld", func);
        let b = content_key("meld,simplify", func);
        assert_ne!(a, b);
        assert_eq!(a, content_key("meld", func));
        // The two halves are independently seeded streams over the same
        // bytes — equal halves would mean the widening is a no-op.
        assert_ne!(a.lo, a.hi);
        assert_eq!(raw_key("meld", "x"), raw_key("meld", "x"));
        assert_ne!(raw_key("meld", "x"), raw_key("meld", "y"));
    }

    /// The digests are part of the contract (stable across processes and
    /// platforms). The `content_key` pins are the values the two-pass
    /// `WideHasher` has always given: the function cache did not move. The
    /// `raw_key` pins moved on purpose when the memo key went from two FNV
    /// chains to two word lanes; the memo lives only as long as its
    /// process, so no stored key went stale.
    #[test]
    fn key_digests_are_pinned() {
        use darm_ir::parser::parse_module;
        let text = "fn @f() -> void {\nentry:\n  ret\n}\n";
        let module = parse_module(text).unwrap();
        let func = &module.functions()[0];
        let pinned = |lo, hi| ContentKey { lo, hi };
        // The printer reproduces `text`, so both keys see the same bytes —
        // and still differ: each map hashes its text its own way (a word
        // per multiply over the request, FNV over the printer's pieces).
        assert_eq!(
            content_key("meld", func),
            pinned(9534193116283496246, 2044103799884893890)
        );
        assert_ne!(raw_key("meld", text), content_key("meld", func));
        assert_eq!(
            raw_key("meld", text),
            pinned(13386119150298354034, 6639095125982223011)
        );
        assert_eq!(
            raw_key("meld,simplify", "x é\n"),
            pinned(11005892481972150802, 14566194011957144630)
        );
        assert_eq!(
            content_key("meld,simplify", func),
            pinned(2559302086931821479, 15862942141316031035)
        );
    }

    /// `raw_key` keeps apart what a per-part hash without lengths would
    /// not: a byte moved across the spec/text border, and trailing NULs
    /// (which pad the last word).
    #[test]
    fn raw_key_delimits_its_parts_and_counts_trailing_nuls() {
        assert_ne!(raw_key("ab", "c"), raw_key("a", "bc"));
        assert_ne!(raw_key("", "meld"), raw_key("meld", ""));
        let mut text = String::from("fn @f");
        let mut seen = vec![raw_key("meld", &text)];
        for _ in 0..17 {
            text.push('\0');
            let key = raw_key("meld", &text);
            assert!(!seen.contains(&key), "{} trailing NULs", seen.len());
            seen.push(key);
        }
    }

    /// No two of these texts share a `raw_key`, nor either half of one:
    /// every byte string of at most two bytes, and a function text with
    /// 10k seeded single-byte mutations.
    #[test]
    fn raw_key_has_no_collisions_on_short_texts_and_mutations() {
        let mut texts: Vec<Vec<u8>> = vec![Vec::new()];
        for a in 0..=u8::MAX {
            texts.push(vec![a]);
            for b in 0..=u8::MAX {
                texts.push(vec![a, b]);
            }
        }
        let function = b"fn @k(ptr(global) %arg0) -> void {\nentry:\n  %0 = tid.x\n  \
            %1 = and %0, 1\n  %2 = icmp eq %1, 0\n  br %2, t, e\nt:\n  %3 = mul %0, 3\n  \
            %4 = gep i32 %arg0, %0\n  store %3, %4\n  jump x\ne:\n  %5 = mul %0, 5\n  \
            %6 = gep i32 %arg0, %0\n  store %5, %6\n  jump x\nx:\n  ret\n}\n";
        texts.push(function.to_vec());
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..10_000 {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let mut mutant = function.to_vec();
            let at = (state % function.len() as u64) as usize;
            mutant[at] = (state >> 32) as u8;
            texts.push(mutant);
        }
        texts.sort();
        texts.dedup();
        let mut by_key = HashMap::new();
        let mut by_lo = HashMap::new();
        let mut by_hi = HashMap::new();
        for text in &texts {
            let key = raw_key_of_bytes(b"meld", text);
            assert_eq!(by_key.insert(key, text), None, "{text:?}");
            assert_eq!(by_lo.insert(key.lo, text), None, "{text:?}");
            assert_eq!(by_hi.insert(key.hi, text), None, "{text:?}");
        }
        assert!(texts.len() > 70_000);
    }
}
