//! The fleet resolver cache: positive answers, negative answers, and
//! delegations, each entry carrying its own `(insertion_time, ttl)` so
//! expiry is per-record — never a wall-clock bucket.
//!
//! One instance is shared by every resolver of a fleet (the paper's
//! observation that a provider's frontend fans queries into a common
//! cache layer), behind [`SharedCache`]'s mutex. All times are
//! microseconds on the simulation clock; live mode feeds wall-clock
//! micros instead — the cache only ever compares durations.

use dns_wire::name::Name;
use dns_wire::types::RType;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::net::IpAddr;
use std::sync::{Arc, Mutex};

/// What a cached negative answer asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Negative {
    /// The name does not exist (RFC 2308 type 1/2).
    NxDomain,
    /// The name exists but has no records of this type (type 3).
    NoData,
}

/// One entry: the value plus its insertion time and TTL. Expiry is
/// `inserted_us + ttl_us`, computed per lookup — entries inserted just
/// before a wall-hour tick survive into the next hour for their full
/// remaining TTL.
#[derive(Debug, Clone)]
struct Entry<V> {
    value: V,
    inserted_us: u64,
    ttl_us: u64,
}

impl<V> Entry<V> {
    fn expiry(&self) -> u64 {
        self.inserted_us.saturating_add(self.ttl_us)
    }

    fn live_at(&self, now_us: u64) -> bool {
        now_us < self.expiry()
    }
}

/// A bounded map whose entries each expire `ttl` after their own
/// insertion, with hit/miss accounting. When full, inserting a new key
/// evicts the entry expiring soonest; ties on expiry go to the smaller
/// stable key hash, so the victim never depends on insertion order or
/// map iteration order. Times are microseconds on any monotonic clock.
#[derive(Debug)]
pub struct TtlMap<K, V> {
    entries: HashMap<K, Entry<V>>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl<K: Hash + Eq + Clone, V> TtlMap<K, V> {
    /// An empty map holding up to `capacity` entries (at least one).
    pub fn with_capacity(capacity: usize) -> TtlMap<K, V> {
        TtlMap {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
        }
    }

    /// The live value for `key` at `now_us`, counting a hit or a miss.
    /// A stale entry is dropped on the way.
    pub fn get(&mut self, key: &K, now_us: u64) -> Option<&V> {
        let live = match self.entries.get(key) {
            Some(e) => e.live_at(now_us),
            None => {
                self.misses += 1;
                return None;
            }
        };
        if !live {
            self.entries.remove(key);
            self.misses += 1;
            return None;
        }
        self.hits += 1;
        self.entries.get(key).map(|e| &e.value)
    }

    /// The live value for `key` at `now_us`, without touching the
    /// counters or dropping stale entries.
    pub fn peek(&self, key: &K, now_us: u64) -> Option<&V> {
        self.entries
            .get(key)
            .filter(|e| e.live_at(now_us))
            .map(|e| &e.value)
    }

    /// Store `value` under `key`, live for `ttl_us` from `now_us`. A zero
    /// TTL stores nothing.
    pub fn insert(&mut self, key: K, value: V, now_us: u64, ttl_us: u64) {
        if ttl_us == 0 {
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            self.evict();
        }
        self.entries.insert(
            key,
            Entry {
                value,
                inserted_us: now_us,
                ttl_us,
            },
        );
    }

    /// Drop the entry with the smallest `(expiry, stable key hash)`. The
    /// scan compares by reference, hashes keys only to break expiry
    /// ties, and clones only the victim's key.
    fn evict(&mut self) {
        let victim = self
            .entries
            .iter()
            .min_by(|a, b| {
                a.1.expiry()
                    .cmp(&b.1.expiry())
                    .then_with(|| stable_hash(a.0).cmp(&stable_hash(b.0)))
            })
            .map(|(k, _)| k.clone());
        if let Some(k) = victim {
            self.entries.remove(&k);
        }
    }

    /// Lookups that found a live entry.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing live.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit fraction of lookups so far (0 when none yet).
    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits, self.misses)
    }

    /// Entries stored, live or stale.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn ratio(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// A hash that is the same in every run (unlike `HashMap`'s
/// per-process `RandomState`), for eviction tie-breaks.
fn stable_hash<K: Hash>(k: &K) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    k.hash(&mut h);
    h.finish()
}

/// The per-fleet resolver cache. Not thread-safe by itself — wrap in
/// [`SharedCache`] to share across concurrent resolvers.
#[derive(Debug)]
pub struct FleetCache {
    /// (qname, qtype) -> addresses.
    addresses: TtlMap<(Name, RType), Vec<IpAddr>>,
    /// (qname, qtype) -> cached denial.
    negatives: TtlMap<(Name, RType), Negative>,
    /// zone cut -> authoritative server addresses.
    delegations: TtlMap<Name, Vec<IpAddr>>,
}

/// Default per-map entry budget: sized for a provider-scale fleet at
/// simulation scale, small enough that eviction paths actually run.
pub const DEFAULT_CAPACITY: usize = 65_536;

const US_PER_SEC: u64 = 1_000_000;

impl FleetCache {
    /// An empty cache holding up to `capacity` entries per map.
    pub fn with_capacity(capacity: usize) -> FleetCache {
        FleetCache {
            addresses: TtlMap::with_capacity(capacity),
            negatives: TtlMap::with_capacity(capacity),
            delegations: TtlMap::with_capacity(capacity),
        }
    }

    /// Cached addresses for `(qname, qtype)`, honoring per-entry TTL.
    pub fn addresses(&mut self, qname: &Name, qtype: RType, now_us: u64) -> Option<Vec<IpAddr>> {
        self.addresses.get(&(qname.clone(), qtype), now_us).cloned()
    }

    /// Cache a positive answer.
    pub fn put_addresses(
        &mut self,
        qname: &Name,
        qtype: RType,
        addrs: Vec<IpAddr>,
        now_us: u64,
        ttl_secs: u32,
    ) {
        let ttl_us = u64::from(ttl_secs) * US_PER_SEC;
        self.addresses
            .insert((qname.clone(), qtype), addrs, now_us, ttl_us);
    }

    /// Cached denial for `(qname, qtype)`, if still live.
    pub fn negative(&mut self, qname: &Name, qtype: RType, now_us: u64) -> Option<Negative> {
        self.negatives.get(&(qname.clone(), qtype), now_us).copied()
    }

    /// Cache a denial under the zone's negative TTL.
    pub fn put_negative(
        &mut self,
        qname: &Name,
        qtype: RType,
        kind: Negative,
        now_us: u64,
        ttl_secs: u32,
    ) {
        let ttl_us = u64::from(ttl_secs) * US_PER_SEC;
        self.negatives
            .insert((qname.clone(), qtype), kind, now_us, ttl_us);
    }

    /// The deepest live delegation covering `name`: the first of
    /// `name`'s ancestors (itself included, root last) with a live cut.
    pub fn deepest_cut(&self, name: &Name, now_us: u64) -> Option<(Name, Vec<IpAddr>)> {
        let mut cut = name.clone();
        loop {
            if let Some(servers) = self.delegations.peek(&cut, now_us) {
                return Some((cut, servers.clone()));
            }
            if cut.is_root() {
                return None;
            }
            cut = cut.parent();
        }
    }

    /// Cache a learned zone cut.
    pub fn put_delegation(&mut self, cut: &Name, servers: Vec<IpAddr>, now_us: u64, ttl_secs: u32) {
        let ttl_us = u64::from(ttl_secs) * US_PER_SEC;
        self.delegations
            .insert(cut.clone(), servers, now_us, ttl_us);
    }

    /// Lookup hits since construction (positive + negative).
    pub fn hits(&self) -> u64 {
        self.addresses.hits() + self.negatives.hits()
    }

    /// Positive-lookup misses since construction.
    pub fn misses(&self) -> u64 {
        self.addresses.misses()
    }

    /// Hit fraction of positive lookups (0 when none yet).
    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits(), self.misses())
    }

    /// Total live-or-stale entries across the three maps.
    pub fn len(&self) -> usize {
        self.addresses.len() + self.negatives.len() + self.delegations.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A cheaply-clonable handle to a fleet-shared [`FleetCache`].
#[derive(Debug, Clone)]
pub struct SharedCache(Arc<Mutex<FleetCache>>);

impl SharedCache {
    /// A fresh shared cache with the given per-map capacity.
    pub fn with_capacity(capacity: usize) -> SharedCache {
        SharedCache(Arc::new(Mutex::new(FleetCache::with_capacity(capacity))))
    }

    /// Run `f` under the cache lock.
    pub fn with<R>(&self, f: impl FnOnce(&mut FleetCache) -> R) -> R {
        f(&mut self.0.lock().expect("fleet cache lock"))
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.with(|c| c.hits())
    }

    /// Positive-lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.with(|c| c.misses())
    }

    /// Hit fraction of lookups so far.
    pub fn hit_ratio(&self) -> f64 {
        self.with(|c| c.hit_ratio())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn addr(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    const HOUR_US: u64 = 3_600_000_000;

    #[test]
    fn expiry_is_insertion_plus_ttl_not_wall_bucket() {
        let mut c = FleetCache::with_capacity(16);
        // inserted one second before a wall-hour boundary, TTL 120s:
        // must survive well past the boundary and die at insertion+120s
        let t0 = HOUR_US - 1_000_000;
        c.put_addresses(&n("a.nl."), RType::A, vec![addr("192.0.2.1")], t0, 120);
        assert!(c.addresses(&n("a.nl."), RType::A, HOUR_US + 1).is_some());
        assert!(c
            .addresses(&n("a.nl."), RType::A, t0 + 119_000_000)
            .is_some());
        assert!(c
            .addresses(&n("a.nl."), RType::A, t0 + 120_000_000)
            .is_none());
    }

    #[test]
    fn negative_entries_expire_per_record_too() {
        let mut c = FleetCache::with_capacity(16);
        c.put_negative(&n("gone.nl."), RType::A, Negative::NxDomain, 0, 900);
        assert_eq!(
            c.negative(&n("gone.nl."), RType::A, 899_999_999),
            Some(Negative::NxDomain)
        );
        assert_eq!(c.negative(&n("gone.nl."), RType::A, 900_000_000), None);
    }

    #[test]
    fn deepest_live_cut_wins() {
        let mut c = FleetCache::with_capacity(16);
        c.put_delegation(&n("nl."), vec![addr("194.0.28.53")], 0, 3600);
        c.put_delegation(&n("x.nl."), vec![addr("192.0.2.10")], 0, 60);
        let (cut, _) = c.deepest_cut(&n("www.x.nl."), 0).unwrap();
        assert_eq!(cut, n("x.nl."));
        // after the child cut expires, the TLD cut covers again
        let (cut, _) = c.deepest_cut(&n("www.x.nl."), 61_000_000).unwrap();
        assert_eq!(cut, n("nl."));
    }

    #[test]
    fn capacity_evicts_earliest_expiry() {
        let mut c = FleetCache::with_capacity(2);
        c.put_addresses(&n("a.nl."), RType::A, vec![addr("192.0.2.1")], 0, 10);
        c.put_addresses(&n("b.nl."), RType::A, vec![addr("192.0.2.2")], 0, 1000);
        c.put_addresses(&n("c.nl."), RType::A, vec![addr("192.0.2.3")], 0, 500);
        assert!(c.addresses(&n("a.nl."), RType::A, 1).is_none(), "evicted");
        assert!(c.addresses(&n("b.nl."), RType::A, 1).is_some());
        assert!(c.addresses(&n("c.nl."), RType::A, 1).is_some());
    }

    #[test]
    fn hits_count_negatives_and_misses_count_positives_only() {
        let mut c = FleetCache::with_capacity(16);
        c.put_negative(&n("gone.nl."), RType::A, Negative::NxDomain, 0, 900);
        assert!(c.negative(&n("gone.nl."), RType::A, 1).is_some());
        assert!(c.negative(&n("other.nl."), RType::A, 1).is_none());
        assert!(c.addresses(&n("a.nl."), RType::A, 1).is_none());
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn shared_handle_counts_hits() {
        let shared = SharedCache::with_capacity(16);
        shared.with(|c| c.put_addresses(&n("a.nl."), RType::A, vec![addr("192.0.2.1")], 0, 60));
        let hit = shared.with(|c| c.addresses(&n("a.nl."), RType::A, 1).is_some());
        assert!(hit);
        assert_eq!(shared.hits(), 1);
        assert!(shared.hit_ratio() > 0.0);
    }

    const SEC: u64 = 1_000_000;

    #[test]
    fn ttl_map_miss_then_hit_then_expiry() {
        let mut m: TtlMap<u64, ()> = TtlMap::with_capacity(100);
        let t0 = 1000 * SEC;
        assert!(m.get(&1, t0).is_none());
        m.insert(1, (), t0, 60 * SEC);
        assert!(m.get(&1, t0 + 59 * SEC).is_some());
        assert!(m.get(&1, t0 + 60 * SEC).is_none(), "expiry is exclusive");
        assert_eq!((m.hits(), m.misses()), (1, 2));
        assert!(m.is_empty(), "the stale entry is dropped by the lookup");
    }

    #[test]
    fn ttl_map_qtype_distinguishes_entries() {
        let mut m = TtlMap::with_capacity(100);
        m.insert((n("a.nl."), RType::A), (), 0, 60 * SEC);
        assert!(m.get(&(n("a.nl."), RType::A), 0).is_some());
        assert!(m.get(&(n("a.nl."), RType::Aaaa), 0).is_none());
    }

    #[test]
    fn ttl_map_zero_ttl_not_stored() {
        let mut m: TtlMap<u64, ()> = TtlMap::with_capacity(10);
        m.insert(1, (), 0, 0);
        assert!(m.is_empty());
        assert!(m.get(&1, 0).is_none());
    }

    #[test]
    fn ttl_map_hit_ratio_accounting() {
        let mut m: TtlMap<u64, ()> = TtlMap::with_capacity(10);
        assert_eq!(m.hit_ratio(), 0.0);
        m.get(&1, 0); // miss
        m.insert(1, (), 0, 60 * SEC);
        m.get(&1, 0); // hit
        m.get(&1, 0); // hit
        assert!((m.hit_ratio() - 2.0 / 3.0).abs() < 1e-9);
        // peek reads without counting
        assert!(m.peek(&1, 0).is_some());
        assert_eq!((m.hits(), m.misses()), (2, 1));
    }

    /// Expiry is per-entry `inserted + ttl`, not a wall-clock bucket: an
    /// entry inserted one second before a wall-hour boundary with a
    /// 120 s TTL survives 119 s into the next hour and dies exactly at
    /// insertion + TTL.
    #[test]
    fn ttl_map_expiry_is_insertion_plus_ttl() {
        let mut m: TtlMap<u64, ()> = TtlMap::with_capacity(16);
        let t0 = HOUR_US - SEC;
        m.insert(7, (), t0, 120 * SEC);
        assert!(m.get(&7, HOUR_US + 60 * SEC).is_some());
        assert!(m.get(&7, t0 + 119 * SEC).is_some());
        assert!(m.get(&7, t0 + 120 * SEC).is_none());
    }

    #[test]
    fn ttl_map_capacity_evicts_soonest_expiry() {
        let mut m: TtlMap<u64, ()> = TtlMap::with_capacity(2);
        m.insert(1, (), 0, 10 * SEC);
        m.insert(2, (), 0, 100 * SEC);
        m.insert(2, (), 0, 90 * SEC); // replacing a key evicts nothing
        assert_eq!(m.len(), 2);
        m.insert(3, (), 0, 50 * SEC); // evicts 1
        assert_eq!(m.len(), 2);
        assert!(m.get(&1, 0).is_none());
        assert!(m.get(&2, 0).is_some());
        assert!(m.get(&3, 0).is_some());
    }

    /// Eviction ties (same expiry) go to the smaller stable key hash, so
    /// maps holding the same entries evict the same key whatever order
    /// the entries arrived in.
    #[test]
    fn ttl_map_tie_eviction_ignores_insertion_order() {
        let keys: Vec<u64> = (0..32).collect();
        let survivors = |order: &[u64]| {
            let mut m: TtlMap<u64, ()> = TtlMap::with_capacity(keys.len());
            for k in order {
                m.insert(*k, (), 0, 60 * SEC);
            }
            m.insert(1000, (), 0, 60 * SEC);
            let mut live: Vec<u64> = keys
                .iter()
                .copied()
                .filter(|k| m.peek(k, 0).is_some())
                .collect();
            live.sort_unstable();
            live
        };
        let forward = survivors(&keys);
        let reversed: Vec<u64> = keys.iter().rev().copied().collect();
        assert_eq!(forward.len(), keys.len() - 1, "exactly one victim");
        assert_eq!(forward, survivors(&reversed));
        let victim = keys.iter().find(|k| !forward.contains(k)).unwrap();
        let smallest = keys.iter().min_by_key(|k| stable_hash(*k)).unwrap();
        assert_eq!(victim, smallest);
    }

    /// Property: the map never serves an entry past its TTL.
    #[test]
    fn ttl_map_never_serves_expired() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut m: TtlMap<u64, ()> = TtlMap::with_capacity(50);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        let mut now = 0u64;
        for _ in 0..5000 {
            now += rng.gen_range(0..30u64) * SEC;
            let key = rng.gen_range(0..80u64);
            if rng.gen_bool(0.5) {
                let ttl = rng.gen_range(1..120u64) * SEC;
                m.insert(key, (), now, ttl);
                truth.insert(key, now + ttl);
            } else if m.get(&key, now).is_some() {
                let expiry = truth.get(&key).expect("hit implies inserted");
                assert!(*expiry > now, "served at {now} expired {expiry}");
            }
        }
    }
}
