//! A byte-sized cache of computed Cholesky factors, keyed by
//! effective-config hash: the substrate of `POST /solve`.
//!
//! Every `/report` run with the numeric stage enabled deposits its
//! [`engine::FactorHandle`] here, and a later `/solve` resolves the hash to
//! the cached factor without re-running the factorization — that is the
//! whole point of the endpoint: the expensive part (ordering, symbolic
//! analysis, numeric factorization) happens once, the cheap part (two
//! triangular solves per right-hand side) happens per request.
//!
//! The cache is a thin wrapper over [`engine::CacheCore`]: capacity is a
//! **byte budget** sized from [`engine::FactorHandle::approx_heap_bytes`]
//! (a single 10⁶-node factor can dwarf hundreds of small ones, so counting
//! entries misrepresents pressure by orders of magnitude), eviction runs
//! through any registered serving policy, and deposits are charged to the
//! tenant that reported them.  [`FactorCache::default`] is LRU over
//! [`engine::DEFAULT_FACTOR_CACHE_BYTES`].  There is no TTL: a factor never
//! goes stale (the configuration hash pins problem, ordering, and kernel
//! bit-for-bit).

use std::sync::Arc;

use engine::cache::policy::CountLru;
use engine::cache::{Admission, CacheConfig, CacheCore, ServingPolicyRegistry};
use engine::{
    CacheStats, FactorHandle, DEFAULT_CACHE_POLICY, DEFAULT_FACTOR_CACHE_BYTES, DEFAULT_TENANT,
};
use treemem::registry::UnknownName;

/// Construction parameters for the factor cache.
#[derive(Debug, Clone)]
pub struct FactorCacheConfig {
    /// Eviction policy name (see
    /// [`ServingPolicyRegistry::with_builtin`]).
    pub policy: String,
    /// Byte budget for cached factors.
    pub bytes_capacity: u64,
    /// Per-tenant byte quota.
    pub tenant_quota_bytes: Option<u64>,
    /// Fair-share floor fraction in `[0, 1]`.
    pub tenant_floor: f64,
}

impl Default for FactorCacheConfig {
    /// LRU over [`DEFAULT_FACTOR_CACHE_BYTES`], no tenant limits.
    fn default() -> Self {
        FactorCacheConfig {
            policy: DEFAULT_CACHE_POLICY.to_string(),
            bytes_capacity: DEFAULT_FACTOR_CACHE_BYTES,
            tenant_quota_bytes: None,
            tenant_floor: 0.0,
        }
    }
}

impl FactorCacheConfig {
    fn core_config(self) -> CacheConfig {
        CacheConfig {
            policy: self.policy,
            bytes_capacity: self.bytes_capacity,
            ttl: None,
            tenant_quota_bytes: self.tenant_quota_bytes,
            tenant_floor: self.tenant_floor,
            lock_class: "factor-cache.inner",
        }
    }
}

/// The factor cache; see the module docs.
pub struct FactorCache {
    core: CacheCore<FactorHandle>,
}

impl Default for FactorCache {
    /// The cache of [`FactorCacheConfig::default`].
    fn default() -> Self {
        FactorCache {
            core: CacheCore::with_policy(FactorCacheConfig::default().core_config(), &CountLru),
        }
    }
}

impl FactorCache {
    /// A cache evicting via any registered policy.
    pub fn with_config(config: FactorCacheConfig) -> Result<Self, UnknownName> {
        let core = CacheCore::new(config.core_config(), &ServingPolicyRegistry::with_builtin())?;
        Ok(FactorCache { core })
    }

    /// Look up the factor of `config_hash`, marking it most recently used.
    pub fn get(&self, config_hash: &str) -> Option<Arc<FactorHandle>> {
        self.core.get(config_hash, DEFAULT_TENANT)
    }

    /// [`FactorCache::get`] on behalf of `tenant`.
    pub fn get_for(&self, config_hash: &str, tenant: &str) -> Option<Arc<FactorHandle>> {
        self.core.get(config_hash, tenant)
    }

    /// Cache `handle` under `config_hash` (replacing any previous factor of
    /// the same hash), evicting through the configured policy when space is
    /// needed.
    pub fn insert(&self, config_hash: &str, handle: Arc<FactorHandle>) {
        self.insert_for(config_hash, DEFAULT_TENANT, handle);
    }

    /// [`FactorCache::insert`] charged to `tenant`; the footprint comes
    /// from [`engine::FactorHandle::approx_heap_bytes`].  Returns the
    /// admission verdict (an over-quota deposit is served-but-uncached).
    pub fn insert_for(
        &self,
        config_hash: &str,
        tenant: &str,
        handle: Arc<FactorHandle>,
    ) -> Admission {
        let bytes = handle.approx_heap_bytes();
        self.core.insert(config_hash, tenant, handle, bytes)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        self.core.stats()
    }

    /// Audit the byte/tenant accounting; see
    /// [`engine::CacheCore::validate_accounting`].
    pub fn validate_accounting(&self) -> Result<(), String> {
        self.core.validate_accounting()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::prelude::*;

    fn sized_handle(seed: u64, n: usize) -> Arc<FactorHandle> {
        let engine = Engine::new();
        let config = EngineConfig::generated(sparsemat::gen::ProblemKind::Banded, n, seed)
            .with_numeric(true);
        let plan = engine.plan(&config).unwrap();
        let (_, handle) = plan
            .schedule(&engine)
            .unwrap()
            .execute_with_factor(&engine)
            .unwrap();
        Arc::new(handle.unwrap())
    }

    fn handle(seed: u64) -> Arc<FactorHandle> {
        sized_handle(seed, 12)
    }

    fn lru_with_budget(bytes_capacity: u64) -> FactorCache {
        FactorCache::with_config(FactorCacheConfig {
            bytes_capacity,
            ..FactorCacheConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn lru_evicts_the_coldest_factor() {
        let (a, b, c) = (handle(1), handle(2), handle(3));
        // One byte short of all three: any two fit, the third evicts one.
        let total = a.approx_heap_bytes() + b.approx_heap_bytes() + c.approx_heap_bytes();
        let cache = lru_with_budget(total - 1);
        cache.insert("a", a);
        cache.insert("b", b);
        assert!(cache.get("a").is_some()); // "b" is now coldest
        cache.insert("c", c);
        assert!(cache.get("b").is_none());
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 2);
        assert!(stats.bytes_used > 0, "factors carry byte footprints");
    }

    #[test]
    fn reinsertion_replaces_without_eviction() {
        let cache = FactorCache::default();
        cache.insert("a", handle(1));
        cache.insert("a", handle(4));
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn byte_budget_accounts_lopsided_factor_sizes() {
        // Regression for the count-based accounting: a 10× larger problem
        // yields a far heavier factor, and a byte-bounded cache must make
        // it displace several small ones — not count it as "one entry".
        let small: Vec<Arc<FactorHandle>> = (0..4).map(|s| sized_handle(s, 12)).collect();
        let big = sized_handle(9, 400);
        let small_bytes = small[0].approx_heap_bytes();
        let big_bytes = big.approx_heap_bytes();
        assert!(
            big_bytes > 4 * small_bytes,
            "a 400-unknown factor ({big_bytes}B) must dwarf a 12-unknown one ({small_bytes}B)"
        );
        // Budget: all four small factors fit; the big one fits only after
        // evicting more than one of them.
        let budget = 4 * small_bytes + big_bytes - 1;
        let cache = lru_with_budget(budget);
        for (i, h) in small.iter().enumerate() {
            cache.insert(&format!("small-{i}"), Arc::clone(h));
        }
        assert_eq!(cache.stats().entries, 4);
        cache.insert("big", Arc::clone(&big));
        let stats = cache.stats();
        assert!(cache.get("big").is_some());
        assert!(
            stats.evictions >= 1,
            "the big factor must evict by bytes, not slots"
        );
        assert!(stats.bytes_used <= budget, "byte budget respected");
        cache.validate_accounting().unwrap();
    }

    #[test]
    fn oversized_factor_is_served_but_not_cached() {
        let big = sized_handle(3, 400);
        let cache = lru_with_budget(big.approx_heap_bytes() / 2);
        assert!(!cache.insert_for("big", "public", big).is_cached());
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().uncacheable, 1);
    }

    #[test]
    fn concurrent_deposits_lookups_and_evictions_stay_consistent() {
        // The serving pattern under load: `/report` handlers depositing,
        // `/solve` handlers looking up, all racing the LRU eviction of a
        // deliberately tiny cache.  Every resolved factor must be usable
        // (solvable with a small residual), and the counters must balance.
        let handles: Vec<Arc<FactorHandle>> = (0..6).map(|seed| handle(seed as u64)).collect();
        // Room for about three of the six factors.
        let budget = 3 * handles.iter().map(|h| h.approx_heap_bytes()).max().unwrap();
        let cache = Arc::new(lru_with_budget(budget));
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let cache = Arc::clone(&cache);
                let handles = &handles;
                scope.spawn(move || {
                    for round in 0..200 {
                        let pick = (worker * 7 + round * 3) % handles.len();
                        let key = format!("factor-{pick}");
                        if (worker + round) % 3 == 0 {
                            cache.insert(&key, Arc::clone(&handles[pick]));
                        } else if let Some(factor) = cache.get(&key) {
                            let mut rhs = factor.generated_rhs(1, round as u64 + 1);
                            factor.solve_batch(&mut rhs).expect("cached factor solves");
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert!(
            stats.bytes_used <= budget,
            "over capacity: {}",
            stats.bytes_used
        );
        assert!(stats.evictions > 0, "the working set overflows the budget");
        assert!(stats.hits + stats.misses > 0);
        cache.validate_accounting().unwrap();
        // Every key that is still resident resolves to a working factor.
        for pick in 0..handles.len() {
            if let Some(factor) = cache.get(&format!("factor-{pick}")) {
                let rhs = factor.generated_rhs(1, 5);
                let mut solution = rhs.clone();
                factor
                    .solve_batch(&mut solution)
                    .expect("resident factor solves");
                assert!(factor.max_residual(&rhs, &solution) < 1e-8);
            }
        }
    }
}
