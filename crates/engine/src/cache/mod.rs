//! The serving cache layer: a byte-sized, policy-pluggable core shared by
//! the plan cache and the server's factor cache.
//!
//! * [`core`] — [`CacheCore`], a keyed cache of [`Arc`](std::sync::Arc)ed
//!   values with byte-accurate accounting, TTL expiry, per-tenant quotas and
//!   a fair-share floor, evicting through any registered serving policy.
//! * [`policy`] — the [`ServingPolicy`] abstraction and its three native
//!   online implementations: LRU, size-aware GDSF and S3-FIFO, catalogued
//!   by name in [`ServingPolicyRegistry::with_builtin`].  (The paper's
//!   MinIO heuristics live in [`minio::PolicyRegistry`]; they need the
//!   known future of a traversal, which a serving cache does not have.)
//! * [`plan`] — [`PlanCache`], the single-flight, TTL-aware plan cache
//!   built on the core.
//!
//! Capacity is expressed in **bytes** only (entry footprints are estimated
//! at insert time via `Plan::approx_heap_bytes` and friends); the defaults
//! are [`DEFAULT_PLAN_CACHE_BYTES`] and [`DEFAULT_FACTOR_CACHE_BYTES`] under
//! [`DEFAULT_CACHE_POLICY`].  Tenancy is cooperative: every operation names a tenant (default `"public"`), a
//! tenant over its byte quota makes room among its *own* entries, and the
//! fair-share floor keeps one tenant's cold scan from evicting another
//! tenant's hot working set — over-quota inserts are *admitted but
//! uncacheable* ([`Admission`]), never rejected.

pub mod core;
pub mod plan;
pub mod policy;

pub use self::core::{fingerprint64, Admission, CacheConfig, CacheCore};
pub use plan::{PlanCache, PlanCacheConfig, DEFAULT_TENANT};
pub use policy::{EntryMeta, EvictionPrompt, ServingPolicy, ServingPolicyRegistry, ServingSession};

/// Default eviction policy of the serving caches.
pub const DEFAULT_CACHE_POLICY: &str = "LRU";
/// Default byte budget of a plan cache: 1 GiB (64 plans of 16 MiB).
pub const DEFAULT_PLAN_CACHE_BYTES: u64 = 1 << 30;
/// Default byte budget of a factor cache: 512 MiB (8 factors of 64 MiB).
pub const DEFAULT_FACTOR_CACHE_BYTES: u64 = 512 << 20;

/// Point-in-time counters of a serving cache; see the field docs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing (or only an expired entry).
    pub misses: u64,
    /// Entries dropped to keep the cache within its capacity or a quota.
    pub evictions: u64,
    /// Entries dropped because they outlived the TTL.
    pub expirations: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Name of the eviction policy in charge.
    pub policy: String,
    /// Bytes currently resident.
    pub bytes_used: u64,
    /// Byte capacity (`u64::MAX` when unbounded).
    pub bytes_capacity: u64,
    /// Inserts admitted but not cached (too large, over quota, contended).
    pub uncacheable: u64,
    /// Per-tenant usage, sorted by tenant name.
    pub per_tenant: Vec<TenantUsage>,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One tenant's slice of a cache, reported inside [`CacheStats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantUsage {
    /// Tenant name (the `X-Tenant` header value; `"public"` by default).
    pub tenant: String,
    /// Bytes this tenant's entries occupy.
    pub bytes: u64,
    /// Number of resident entries charged to this tenant.
    pub entries: usize,
    /// Lookups by this tenant that hit.
    pub hits: u64,
    /// Lookups by this tenant that missed.
    pub misses: u64,
    /// This tenant's inserts that were admitted but not cached.
    pub uncacheable: u64,
}
