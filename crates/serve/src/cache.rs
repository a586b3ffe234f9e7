//! Cross-run compile cache keyed by content hash.
//!
//! The key is a 128-bit [`ContentKey`]: two independently seeded
//! FNV-1a-64 streams over `canonical_spec ∥ 0x00 ∥ printed_function_ir`.
//! The pass spec is canonicalised (parsed and re-printed) so two
//! spellings of the same pipeline share entries, and the function text
//! is streamed through both hashers without materialising a copy.
//! FNV-1a is non-cryptographic, so a *single* 64-bit digest admits
//! constructible collisions — and a colliding hit would silently serve
//! another function's compiled IR, since hits skip parse and verify.
//! Requiring two independent 64-bit digests to agree closes that hole
//! for anything short of a deliberate attack on both seeds at once.
//! Keying is per *function*, not per module, so a warm module that
//! gained one new function only compiles the newcomer.
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

/// A 128-bit content key: two FNV-1a-64 digests of the same byte
/// stream from independent starting states. Both halves must match for
/// a cache hit, so a collision in one 64-bit hash alone cannot alias
/// two different inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentKey {
    lo: u64,
    hi: u64,
}

/// Streams one byte sequence into both halves of a [`ContentKey`].
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

/// Compute the whole-request key over the *raw* input text (before any
/// parse), for the engine's whole-request fast path.
pub fn raw_key(canonical_spec: &str, text: &str) -> ContentKey {
    let mut hasher = WideHasher::new();
    hasher.write(canonical_spec.as_bytes());
    hasher.write(&[0]);
    hasher.write(text.as_bytes());
    hasher.finish()
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
    /// platforms): these are the values the two-pass `WideHasher` gave.
    #[test]
    fn key_digests_are_pinned() {
        use darm_ir::parser::parse_module;
        let text = "fn @f() -> void {\nentry:\n  ret\n}\n";
        let module = parse_module(text).unwrap();
        let func = &module.functions()[0];
        let pinned = |lo, hi| ContentKey { lo, hi };
        // The printer reproduces `text`, so both keys see the same bytes.
        let same = pinned(9534193116283496246, 2044103799884893890);
        assert_eq!(raw_key("meld", text), same);
        assert_eq!(content_key("meld", func), same);
        assert_eq!(
            raw_key("meld,simplify", "x é\n"),
            pinned(10802175332304687412, 13091915592324491976)
        );
        assert_eq!(
            content_key("meld,simplify", func),
            pinned(2559302086931821479, 15862942141316031035)
        );
    }
}
