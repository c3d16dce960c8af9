//! Per-`(region, /24, epoch)` route memoization.
//!
//! [`RoutingTable::route_at`] is a pure function of its inputs, and — when
//! every prefix in the table is a /24 or shorter — its result is constant
//! across all addresses of one destination /24: the trie leaf is the same,
//! the churn draw keys on the egress interconnect only, and the final
//! flow-hash tie-break keys on `dest >> 8`. A probing campaign exploits
//! none of that: the §4.2 expansion round alone probes 253 addresses of
//! every CBI /24 from every region, re-running the same candidate scan and
//! path reconstruction each time.
//!
//! [`RouteMemo`] caches the selected [`Route`] (including negative results)
//! under `(source region, destination /24, epoch)`. Region identifiers are
//! globally unique across clouds, so one memo can safely front several
//! per-cloud tables as long as each lookup passes the table of the region's
//! own cloud. The cache is sharded to keep lock contention negligible under
//! the sharded campaign executor, and counts hits and misses so the
//! benchmark harness can report cache effectiveness.
//!
//! Exactness is checked, not assumed: [`RoutingTable::memo_exact`] reports
//! whether every stored prefix is /24 or shorter (true for all generated
//! topologies — announced blocks are /18../24). If a finer prefix ever
//! appears, the memo transparently degrades to pass-through lookups rather
//! than returning a neighbouring address's route.

use crate::rib::{Route, RoutingTable};
use cm_net::{stablehash, Ipv4};
use cm_topology::{Internet, RegionId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// `(source region, destination /24 base, epoch)` — the memo cache key.
pub type MemoKey = (RegionId, u32, u32);

/// Number of independent lock shards (power of two).
const SHARDS: usize = 64;

/// Cumulative hit/miss counters of a [`RouteMemo`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to [`RoutingTable::route_at`] (including
    /// pass-through lookups on tables where the memo is not exact).
    pub misses: u64,
}

impl MemoStats {
    /// Hits as a share of all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter delta since an earlier snapshot of the same memo.
    pub fn since(&self, earlier: MemoStats) -> MemoStats {
        MemoStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
        }
    }
}

/// A sharded, thread-safe cache of [`RoutingTable::route_at`] results.
pub struct RouteMemo {
    shards: Vec<RwLock<HashMap<MemoKey, Option<Arc<Route>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// When set, every exact-path lookup key is appended to `key_log`.
    /// Off by default: the longitudinal delta engine enables it to
    /// attribute the exact looked-up key set to each probe group (the
    /// ghost `route_memo_entries` accounting), and nothing else pays
    /// for it beyond one relaxed load per lookup.
    log_keys: AtomicBool,
    key_log: Mutex<Vec<MemoKey>>,
}

impl Default for RouteMemo {
    fn default() -> Self {
        RouteMemo::new()
    }
}

impl RouteMemo {
    /// An empty memo.
    pub fn new() -> Self {
        RouteMemo {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            log_keys: AtomicBool::new(false),
            key_log: Mutex::new(Vec::new()),
        }
    }

    /// Turns the lookup-key log on or off (off by default).
    pub fn set_key_log(&self, enabled: bool) {
        self.log_keys.store(enabled, Ordering::Relaxed);
    }

    /// Drains the lookup-key log accumulated since the last drain,
    /// sorted and deduplicated (the set of keys looked up, which for a
    /// single-threaded owner is exactly the keys the same lookups would
    /// insert into a fresh memo). The result is exact-size: callers keep
    /// it for a long time, and the log's capacity covers every logged
    /// lookup, not the few distinct keys.
    pub fn drain_key_log(&self) -> Box<[MemoKey]> {
        let mut log = match self.key_log.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let mut keys = std::mem::take(&mut *log);
        keys.sort_unstable();
        keys.dedup();
        keys.into_boxed_slice()
    }

    /// All cached keys, sorted (a deterministic set: which keys get
    /// looked up is a pure function of the campaign).
    pub fn keys(&self) -> Vec<MemoKey> {
        let mut keys: Vec<MemoKey> = self
            .shards
            .iter()
            .flat_map(|s| {
                match s.read() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                }
                .keys()
                .copied()
                .collect::<Vec<_>>()
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    fn shard(&self, key: &MemoKey) -> &RwLock<HashMap<MemoKey, Option<Arc<Route>>>> {
        let h = stablehash::mix(
            0x4EB0_CACE,
            &[u64::from(key.0 .0), u64::from(key.1), u64::from(key.2)],
        );
        &self.shards[(h as usize) & (SHARDS - 1)]
    }

    /// Memoized [`RoutingTable::route_at`].
    ///
    /// `table` must be the egress table of `src_region`'s own cloud; region
    /// identifiers are globally unique, so entries from different clouds
    /// never collide.
    ///
    /// The route is returned behind an [`Arc`]: the hit path — ~99.7% of
    /// expansion lookups — used to deep-copy the cached `Route` (its AS
    /// path `Vec` included) on every lookup, which at `small` scale meant
    /// millions of allocations that a reference-count bump now replaces.
    pub fn route_at(
        &self,
        table: &RoutingTable,
        inet: &Internet,
        dest: Ipv4,
        src_region: RegionId,
        epoch: u32,
    ) -> Option<Arc<Route>> {
        if !table.memo_exact() {
            // A finer-than-/24 prefix exists somewhere: a /24-keyed cache
            // would be approximate. Fall through (counted as misses so the
            // reported hit rate reflects the degradation).
            self.misses.fetch_add(1, Ordering::Relaxed);
            return table.route_at(inet, dest, src_region, epoch).map(Arc::new);
        }
        let key = (src_region, dest.slash24_base().to_u32(), epoch);
        if self.log_keys.load(Ordering::Relaxed) {
            match self.key_log.lock() {
                Ok(mut g) => g.push(key),
                Err(poisoned) => poisoned.into_inner().push(key),
            }
        }
        let shard = self.shard(&key);
        {
            let guard = match shard.read() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            if let Some(route) = guard.get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return route.clone();
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let route = table.route_at(inet, dest, src_region, epoch).map(Arc::new);
        let mut guard = match shard.write() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.entry(key).or_insert_with(|| route.clone());
        route
    }

    /// Counts one lookup answered without consulting the memo: the caller
    /// reuses the route an earlier [`RouteMemo::route_at`] call returned
    /// for the same key, so this lookup would have been a hit. Keeps the
    /// lookup total, which the deterministic registry exports, equal to
    /// the one the repeated lookups would have produced.
    pub fn replay_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Cumulative hit/miss counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Exports the memo's *order-invariant* quantities into an
    /// observability registry: total lookups (`route_memo_lookups_total`)
    /// and the entry count (`route_memo_entries` gauge). The hit/miss
    /// *split* is deliberately absent — two workers can both miss the
    /// same key before either populates it, so the split varies with the
    /// worker count and belongs in the flight recorder's nondeterministic
    /// section, never in the deterministic registry.
    pub fn export_obs(&self, registry: &cm_obs::Registry) {
        let stats = self.stats();
        registry.inc("route_memo_lookups_total", stats.hits + stats.misses);
        let entries = self.len() as i64;
        registry.set_gauge("route_memo_entries", entries);
        registry.set_gauge(
            "route_memo_bytes",
            entries.saturating_mul(RouteMemo::APPROX_ENTRY_BYTES as i64),
        );
    }

    /// Deterministic per-entry byte estimate behind the
    /// `route_memo_bytes` gauge: key + cached value slot. Accounting, not
    /// `malloc` truth — capacity slack and the shared `Arc<Route>` bodies
    /// are deliberately excluded so the gauge is a pure function of the
    /// entry count (which is itself worker-count invariant, unlike the
    /// hit/miss split). The delta engine's ghost accounting multiplies by
    /// the same constant so spliced and scratch runs export equal gauges.
    pub const APPROX_ENTRY_BYTES: u64 =
        (std::mem::size_of::<MemoKey>() + std::mem::size_of::<Option<Arc<Route>>>()) as u64;

    /// Number of cached `(region, /24, epoch)` entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| match s.read() {
                Ok(g) => g.len(),
                Err(poisoned) => poisoned.into_inner().len(),
            })
            .sum()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cm_topology::{CloudId, Internet, TopologyConfig};

    #[test]
    fn memo_matches_direct_lookup_and_counts() {
        let inet = Internet::generate(TopologyConfig::tiny(), 23);
        let table = RoutingTable::build(&inet, CloudId(0));
        assert!(table.memo_exact(), "generated prefixes are /24 or shorter");
        let memo = RouteMemo::new();
        let region = inet.primary_cloud().regions[0];
        let ic = inet.cloud_interconnects(CloudId(0)).next().unwrap();
        let base = inet.as_node(ic.peer).prefixes[0].base();
        for k in 0..8u32 {
            let dest = Ipv4(base.to_u32() + k + 1);
            for epoch in 0..3 {
                let direct = table.route_at(&inet, dest, region, epoch);
                let memoized = memo.route_at(&table, &inet, dest, region, epoch);
                assert_eq!(direct.as_ref(), memoized.as_deref());
            }
        }
        let stats = memo.stats();
        // All eight addresses share one /24: one miss per epoch.
        assert_eq!(stats.misses, 3, "one miss per (region, /24, epoch)");
        assert_eq!(stats.hits, 8 * 3 - 3);
        assert!(stats.hit_rate() > 0.85);
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn key_log_records_looked_up_keys_once_enabled() {
        let inet = Internet::generate(TopologyConfig::tiny(), 23);
        let table = RoutingTable::build(&inet, CloudId(0));
        let memo = RouteMemo::new();
        let region = inet.primary_cloud().regions[0];
        let ic = inet.cloud_interconnects(CloudId(0)).next().unwrap();
        let base = inet.as_node(ic.peer).prefixes[0].base();
        // Disabled: nothing is logged.
        memo.route_at(&table, &inet, Ipv4(base.to_u32() + 1), region, 0);
        assert!(memo.drain_key_log().is_empty());
        // Enabled: repeat lookups of one /24 collapse to one key.
        memo.set_key_log(true);
        for k in 0..5u32 {
            memo.route_at(&table, &inet, Ipv4(base.to_u32() + k + 1), region, 7);
        }
        let keys = memo.drain_key_log();
        assert_eq!(*keys, [(region, base.to_u32(), 7)]);
        assert!(memo.drain_key_log().is_empty(), "drain empties the log");
        // keys() enumerates the cached set, sorted.
        let cached = memo.keys();
        assert_eq!(cached.len(), memo.len());
        assert!(cached.windows(2).all(|w| w[0] < w[1]));
        assert!(cached.contains(&(region, base.to_u32(), 7)));
    }

    #[test]
    fn a_run_of_one_key_drains_to_exactly_one_key() {
        let inet = Internet::generate(TopologyConfig::tiny(), 23);
        let table = RoutingTable::build(&inet, CloudId(0));
        let memo = RouteMemo::new();
        memo.set_key_log(true);
        let region = inet.primary_cloud().regions[0];
        let ic = inet.cloud_interconnects(CloudId(0)).next().unwrap();
        let base = inet.as_node(ic.peer).prefixes[0].base().slash24_base();
        // One expansion run: every address of the /24 but .0, .1 and .255.
        for host in 2..255u32 {
            memo.route_at(&table, &inet, Ipv4(base.to_u32() + host), region, 0);
        }
        assert_eq!(memo.stats().hits + memo.stats().misses, 253);
        let keys = memo.drain_key_log();
        assert_eq!(keys.len(), 1, "253 lookups of one key drain to one key");
        assert_eq!(*keys, [(region, base.to_u32(), 0)]);
    }

    #[test]
    fn stats_delta_and_rates() {
        let a = MemoStats {
            hits: 10,
            misses: 40,
        };
        let b = MemoStats {
            hits: 90,
            misses: 50,
        };
        let d = b.since(a);
        assert_eq!(
            d,
            MemoStats {
                hits: 80,
                misses: 10
            }
        );
        assert!((d.hit_rate() - 80.0 / 90.0).abs() < 1e-12);
        assert_eq!(MemoStats::default().hit_rate(), 0.0);
    }
}
