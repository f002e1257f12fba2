//! Serving-side eviction policies.
//!
//! A [`ServingPolicy`] is the online counterpart of [`minio::Policy`]: where
//! the simulation trait selects victims knowing the full future of a tree
//! traversal, a serving policy sees only the past — insertions, accesses and
//! removals streamed through its [`ServingSession`] — and must pick victims
//! when the core needs room.  Three policies are built in, all native online
//! implementations: recency LRU, size-aware GDSF and scan-resistant S3-FIFO.
//! The paper's heuristics (LSNF, First Fit, …) stay in
//! [`minio::PolicyRegistry`]: they rank files by a known next use, which an
//! online cache does not have.
//!
//! Contract notes, mirroring the simulator's:
//!
//! * `select` returns slot ids; the core drops duplicates, ignores ids
//!   outside the offered candidate list, and completes any shortfall in
//!   least-recently-used order, so arbitrary policies are safe to run.
//! * Sessions are long-lived (one per cache, not per decision) and always
//!   called under the cache lock, in a deterministic order — a policy that
//!   uses only the streamed events and the prompt is fully deterministic.

use std::collections::{HashMap, HashSet, VecDeque};

use treemem::registry::UnknownName;

/// Everything a policy may know about one resident entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryMeta {
    /// Stable id of the entry (unique for the cache's lifetime).
    pub slot: u64,
    /// FNV-1a fingerprint of the entry's key (stable across re-insertions —
    /// this is what ghost queues recognise returning keys by).
    pub fingerprint: u64,
    /// Byte footprint (at least 1).
    pub bytes: u64,
    /// Logical tick of the insertion.
    pub inserted_tick: u64,
    /// Logical tick of the most recent access.
    pub last_access_tick: u64,
    /// Hits served so far.
    pub hits: u64,
}

/// One eviction decision offered to a session.
#[derive(Debug)]
pub struct EvictionPrompt<'a> {
    /// The evictable entries (entries protected by another tenant's
    /// fair-share floor are already filtered out).
    pub candidates: &'a [EntryMeta],
    /// Bytes that must be freed.
    pub deficit_bytes: u64,
    /// The current logical tick.
    pub now_tick: u64,
    /// The cache's byte capacity (`u64::MAX` when unbounded).
    pub bytes_capacity: u64,
}

/// Per-cache state of a policy: observes the stream and selects victims.
pub trait ServingSession {
    /// A new entry became resident.
    fn on_insert(&mut self, _meta: &EntryMeta) {}
    /// An entry served a hit.
    fn on_access(&mut self, _slot: u64, _now_tick: u64) {}
    /// An entry left the cache (eviction, expiry, replacement or clear).
    fn on_remove(&mut self, _slot: u64) {}
    /// Select victims (slot ids) freeing at least `prompt.deficit_bytes`.
    fn select(&mut self, prompt: &EvictionPrompt<'_>) -> Vec<u64>;
}

/// A named factory of per-cache [`ServingSession`]s.
pub trait ServingPolicy: Send + Sync {
    /// Short stable identifier (CLI flag value, `/stats`, bench matrices).
    fn name(&self) -> String;
    /// One-line human description.
    fn description(&self) -> &'static str;
    /// Start a session for one cache.
    fn session(&self) -> Box<dyn ServingSession + Send>;
}

/// Recency LRU: evict the least-recently-accessed candidates until the
/// deficit is covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct CountLru;

struct CountLruSession;

impl ServingSession for CountLruSession {
    fn select(&mut self, prompt: &EvictionPrompt<'_>) -> Vec<u64> {
        let mut ordered: Vec<&EntryMeta> = prompt.candidates.iter().collect();
        ordered.sort_by_key(|m| (m.last_access_tick, m.slot));
        let mut freed = 0u64;
        let mut victims = Vec::new();
        for meta in ordered {
            if freed >= prompt.deficit_bytes {
                break;
            }
            freed = freed.saturating_add(meta.bytes);
            victims.push(meta.slot);
        }
        victims
    }
}

impl ServingPolicy for CountLru {
    fn name(&self) -> String {
        "LRU".to_string()
    }
    fn description(&self) -> &'static str {
        "least recently used"
    }
    fn session(&self) -> Box<dyn ServingSession + Send> {
        Box::new(CountLruSession)
    }
}

/// GreedyDual-Size-Frequency: every entry carries a priority
/// `H = L + frequency / size`; evictions take the lowest `H` and raise the
/// inflation `L` to it, so long-unused entries age out while small,
/// frequently-hit entries survive large cold ones — the size-aware policy the
/// cache-rs study found dominant on skewed, size-varied workloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gdsf;

/// Numerator scale for `frequency / size`: keeps priorities of byte-sized
/// entries in a comfortable float range.
const GDSF_SCALE: f64 = 1.0e6;

#[derive(Default)]
struct GdsfSession {
    /// The inflation value `L`: the priority of the last eviction.
    inflation: f64,
    /// Per-slot (bytes, frequency, priority).
    entries: HashMap<u64, (u64, u64, f64)>,
}

impl GdsfSession {
    fn priority(inflation: f64, bytes: u64, frequency: u64) -> f64 {
        inflation + GDSF_SCALE * frequency as f64 / bytes.max(1) as f64
    }
}

impl ServingSession for GdsfSession {
    fn on_insert(&mut self, meta: &EntryMeta) {
        let h = Self::priority(self.inflation, meta.bytes, 1);
        self.entries.insert(meta.slot, (meta.bytes, 1, h));
    }
    fn on_access(&mut self, slot: u64, _now_tick: u64) {
        if let Some((bytes, freq, h)) = self.entries.get_mut(&slot) {
            *freq += 1;
            *h = Self::priority(self.inflation, *bytes, *freq);
        }
    }
    fn on_remove(&mut self, slot: u64) {
        self.entries.remove(&slot);
    }
    fn select(&mut self, prompt: &EvictionPrompt<'_>) -> Vec<u64> {
        let mut ordered: Vec<(f64, &EntryMeta)> = prompt
            .candidates
            .iter()
            .map(|m| {
                let h = self
                    .entries
                    .get(&m.slot)
                    .map(|&(_, _, h)| h)
                    // An entry the session never saw (shouldn't happen):
                    // treat as freshly inserted.
                    .unwrap_or_else(|| Self::priority(self.inflation, m.bytes, 1));
                (h, m)
            })
            .collect();
        ordered.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.slot.cmp(&b.1.slot))
        });
        let mut freed = 0u64;
        let mut victims = Vec::new();
        for (h, meta) in ordered {
            if freed >= prompt.deficit_bytes {
                break;
            }
            freed = freed.saturating_add(meta.bytes);
            victims.push(meta.slot);
            // Classic GreedyDual ageing: L becomes the evicted priority.
            if h > self.inflation {
                self.inflation = h;
            }
        }
        victims
    }
}

impl ServingPolicy for Gdsf {
    fn name(&self) -> String {
        "GDSF".to_string()
    }
    fn description(&self) -> &'static str {
        "GreedyDual-Size-Frequency (size-aware, frequency-inflated priorities)"
    }
    fn session(&self) -> Box<dyn ServingSession + Send> {
        Box::new(GdsfSession::default())
    }
}

/// S3-FIFO: a small probationary FIFO absorbs one-hit wonders, survivors
/// promote into a main FIFO with lazy second chances, and a ghost queue of
/// evicted fingerprints routes quickly-returning keys straight into main —
/// the scan-resistant design of the S3-FIFO paper, online.
#[derive(Debug, Clone, Copy, Default)]
pub struct S3Fifo;

/// Fraction of the byte capacity reserved for the small queue (the paper's
/// 10%).
const S3_SMALL_FRACTION: u64 = 10;
/// Ghost queue length (evicted-key fingerprints remembered).
const S3_GHOST_LEN: usize = 4096;

#[derive(Default)]
struct S3FifoSession {
    small: VecDeque<u64>,
    main: VecDeque<u64>,
    /// Per-slot (bytes, frequency 0..=3, fingerprint, in_main).
    entries: HashMap<u64, (u64, u8, u64, bool)>,
    small_bytes: u64,
    ghost: VecDeque<u64>,
    ghost_set: HashSet<u64>,
}

impl S3FifoSession {
    fn remember_ghost(&mut self, fingerprint: u64) {
        if self.ghost_set.insert(fingerprint) {
            self.ghost.push_back(fingerprint);
            while self.ghost.len() > S3_GHOST_LEN {
                if let Some(old) = self.ghost.pop_front() {
                    self.ghost_set.remove(&old);
                }
            }
        }
    }
}

impl ServingSession for S3FifoSession {
    fn on_insert(&mut self, meta: &EntryMeta) {
        let returning = self.ghost_set.contains(&meta.fingerprint);
        self.entries
            .insert(meta.slot, (meta.bytes, 0, meta.fingerprint, returning));
        if returning {
            self.main.push_back(meta.slot);
        } else {
            self.small.push_back(meta.slot);
            self.small_bytes = self.small_bytes.saturating_add(meta.bytes);
        }
    }
    fn on_access(&mut self, slot: u64, _now_tick: u64) {
        if let Some((_, freq, _, _)) = self.entries.get_mut(&slot) {
            *freq = (*freq + 1).min(3);
        }
    }
    fn on_remove(&mut self, slot: u64) {
        // Queues are cleaned lazily (VecDeque removal is O(n)); only the
        // byte tally needs fixing here.
        if let Some((bytes, _, _, in_main)) = self.entries.remove(&slot) {
            if !in_main {
                self.small_bytes = self.small_bytes.saturating_sub(bytes);
            }
        }
    }
    fn select(&mut self, prompt: &EvictionPrompt<'_>) -> Vec<u64> {
        let evictable: HashSet<u64> = prompt.candidates.iter().map(|m| m.slot).collect();
        let small_target = if prompt.bytes_capacity == u64::MAX {
            0
        } else {
            prompt.bytes_capacity / S3_SMALL_FRACTION
        };
        let mut victims = Vec::new();
        let mut freed = 0u64;
        // Lazy queue cleanup makes single passes non-constant; bound the
        // total work and let the core's LRU completion cover any shortfall.
        let mut fuel = 4 * (self.small.len() + self.main.len()) + 8;
        while freed < prompt.deficit_bytes && fuel > 0 {
            fuel -= 1;
            let from_small = (self.small_bytes >= small_target && !self.small.is_empty())
                || self.main.is_empty();
            if from_small {
                let Some(slot) = self.small.pop_front() else {
                    if self.main.is_empty() {
                        break;
                    }
                    continue;
                };
                let Some(&(bytes, freq, fingerprint, in_main)) = self.entries.get(&slot) else {
                    continue; // removed earlier, lazily dropped now
                };
                if in_main {
                    continue; // promoted earlier, stale small entry
                }
                if freq > 1 {
                    // Survivor: promote into main.
                    if let Some(entry) = self.entries.get_mut(&slot) {
                        entry.1 = 0;
                        entry.3 = true;
                    }
                    self.small_bytes = self.small_bytes.saturating_sub(bytes);
                    self.main.push_back(slot);
                    continue;
                }
                if !evictable.contains(&slot) {
                    // Protected by a tenant floor: rotate, do not evict.
                    self.small.push_back(slot);
                    continue;
                }
                self.entries.remove(&slot);
                self.small_bytes = self.small_bytes.saturating_sub(bytes);
                self.remember_ghost(fingerprint);
                freed = freed.saturating_add(bytes);
                victims.push(slot);
            } else {
                let Some(slot) = self.main.pop_front() else {
                    continue;
                };
                let Some(&(bytes, freq, _, in_main)) = self.entries.get(&slot) else {
                    continue;
                };
                if !in_main {
                    continue;
                }
                if freq > 0 {
                    // Second chance.
                    if let Some(entry) = self.entries.get_mut(&slot) {
                        entry.1 = freq - 1;
                    }
                    self.main.push_back(slot);
                    continue;
                }
                if !evictable.contains(&slot) {
                    self.main.push_back(slot);
                    continue;
                }
                self.entries.remove(&slot);
                freed = freed.saturating_add(bytes);
                victims.push(slot);
            }
        }
        victims
    }
}

impl ServingPolicy for S3Fifo {
    fn name(&self) -> String {
        "S3FIFO".to_string()
    }
    fn description(&self) -> &'static str {
        "S3-FIFO (small/main FIFOs + ghost queue, scan-resistant)"
    }
    fn session(&self) -> Box<dyn ServingSession + Send> {
        Box::new(S3FifoSession::default())
    }
}

/// A name-indexed catalogue of serving policies, mirroring
/// [`minio::PolicyRegistry`].
pub struct ServingPolicyRegistry {
    policies: Vec<Box<dyn ServingPolicy>>,
}

impl ServingPolicyRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        ServingPolicyRegistry {
            policies: Vec::new(),
        }
    }

    /// The builtin catalogue: LRU, GDSF and S3FIFO.
    pub fn with_builtin() -> Self {
        let mut registry = ServingPolicyRegistry::empty();
        registry.register(Box::new(CountLru));
        registry.register(Box::new(Gdsf));
        registry.register(Box::new(S3Fifo));
        registry
    }

    /// Add a policy; same-named policies replace the old entry.
    pub fn register(&mut self, policy: Box<dyn ServingPolicy>) {
        let name = policy.name();
        if let Some(existing) = self.policies.iter_mut().find(|p| p.name() == name) {
            *existing = policy;
        } else {
            self.policies.push(policy);
        }
    }

    /// Look a policy up by name.
    pub fn get(&self, name: &str) -> Option<&dyn ServingPolicy> {
        self.policies
            .iter()
            .find(|p| p.name() == name)
            .map(|p| p.as_ref())
    }

    /// Look a policy up by name with a typed error listing the catalogue.
    pub fn get_or_err(&self, name: &str) -> Result<&dyn ServingPolicy, UnknownName> {
        treemem::registry::get_or_unknown("cache policy", name, self.get(name), || self.names())
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.policies.iter().map(|p| p.name()).collect()
    }

    /// Iterate over the policies in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn ServingPolicy> {
        self.policies.iter().map(|p| p.as_ref())
    }

    /// Number of registered policies.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }
}

impl Default for ServingPolicyRegistry {
    fn default() -> Self {
        Self::with_builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(slot: u64, bytes: u64, last_access: u64, hits: u64) -> EntryMeta {
        EntryMeta {
            slot,
            fingerprint: slot.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            bytes,
            inserted_tick: 0,
            last_access_tick: last_access,
            hits,
        }
    }

    #[test]
    fn builtin_catalogue_has_the_three_native_policies() {
        let registry = ServingPolicyRegistry::with_builtin();
        assert_eq!(registry.names(), vec!["LRU", "GDSF", "S3FIFO"]);
        assert!(registry.get_or_err("LRU").is_ok());
        // The simulation heuristics are not serving policies.
        assert!(registry.get_or_err("LSNF").is_err());
        assert!(registry.get_or_err("nope").is_err());
    }

    #[test]
    fn lru_evicts_least_recently_accessed() {
        let registry = ServingPolicyRegistry::with_builtin();
        let mut session = registry.get("LRU").unwrap().session();
        let candidates = vec![
            meta(1, 100, 30, 0),
            meta(2, 100, 10, 0),
            meta(3, 100, 20, 0),
        ];
        let prompt = EvictionPrompt {
            candidates: &candidates,
            deficit_bytes: 150,
            now_tick: 40,
            bytes_capacity: 1000,
        };
        assert_eq!(session.select(&prompt), vec![2, 3]);
    }

    #[test]
    fn gdsf_prefers_large_cold_victims_over_small_hot_ones() {
        let registry = ServingPolicyRegistry::with_builtin();
        let mut session = registry.get("GDSF").unwrap().session();
        // A big entry and a small entry, same frequency: the big one has the
        // lower H and goes first even though it was accessed more recently.
        let big = meta(1, 100_000, 50, 0);
        let small = meta(2, 100, 10, 0);
        session.on_insert(&big);
        session.on_insert(&small);
        let candidates = vec![big, small];
        let prompt = EvictionPrompt {
            candidates: &candidates,
            deficit_bytes: 1,
            now_tick: 60,
            bytes_capacity: 1_000_000,
        };
        assert_eq!(session.select(&prompt), vec![1]);
    }

    #[test]
    fn s3fifo_ghost_promotes_returning_keys_to_main() {
        let registry = ServingPolicyRegistry::with_builtin();
        let mut session = registry.get("S3FIFO").unwrap().session();
        let first = meta(1, 100, 1, 0);
        session.on_insert(&first);
        let candidates = vec![first];
        let prompt = EvictionPrompt {
            candidates: &candidates,
            deficit_bytes: 50,
            now_tick: 2,
            bytes_capacity: 1000,
        };
        assert_eq!(session.select(&prompt), vec![1]);
        // The same key returns (same fingerprint, new slot): it must go to
        // main and survive a scan of one-hit wonders through small.
        let back = EntryMeta { slot: 2, ..first };
        session.on_insert(&back);
        let scan = meta(3, 100, 3, 0);
        session.on_insert(&scan);
        let candidates = vec![back, scan];
        let prompt = EvictionPrompt {
            candidates: &candidates,
            deficit_bytes: 50,
            now_tick: 4,
            bytes_capacity: 1000,
        };
        assert_eq!(session.select(&prompt), vec![3]);
    }
}
