//! The traffic-generation engine: drives fleets against the
//! authoritative model hour by hour, writing `.dnscap` records.
//!
//! Volumes are exact: each fleet's emitted query count equals its
//! `traffic_share` of the scaled dataset total (largest-remainder
//! apportioning over hourly slots with a diurnal/weekly load shape).
//! Demand above the emitted count is absorbed by resolver caches, just
//! as real vantage points only see the cache-miss shadow of user demand.
//!
//! The calibrated generator here samples each query from the fleet's
//! fitted distributions; the capture itself (slot plan, scheduler,
//! vantage recorder) is the traffic plane it shares with
//! [`crate::emerge`].

use crate::auth::Authoritative;
use crate::fleet::{sample_dist, splitmix, Fleet, Resolver};
use crate::plane::{self, incident_question, run_lanes, Lane, Part, Recorder, SlotPlan};
use crate::profile::FleetSpec;
use crate::ptr::PtrDb;
use crate::rrl::RateLimiter;
use crate::scenario::{DatasetSpec, Scale};
use asdb::synth::{InternetPlan, PlanConfig};
use dns_wire::name::Name;
use dns_wire::types::RType;
use netbase::capture::{CaptureWriter, RecordSink};
use netbase::flow::IpVersion;
use netbase::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resolver::cache::TtlMap;
use std::collections::HashMap;
use std::io::Write;
use zonedb::junk::JunkGenerator;
use zonedb::popularity::ZipfSampler;
use zonedb::zone::ZoneModel;

/// Per-resolver cache capacity (entries).
pub(crate) const CACHE_CAP: usize = 4096;
/// Softmax temperature for server preference, microseconds.
const SERVER_TAU_US: f64 = 30_000.0;
/// Logistic temperature for dual-stack family choice, microseconds.
const FAMILY_TAU_US: f64 = 15_000.0;

/// A simulated resolver's cache key: the case-folded name hash and the
/// record type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`name_key`] of the query name.
    pub domain: u64,
    /// Numeric record type.
    pub rtype: u16,
}

impl CacheKey {
    /// The key for `(qname, qtype)`.
    pub fn new(qname: &Name, qtype: RType) -> CacheKey {
        CacheKey {
            domain: name_key(qname),
            rtype: qtype.to_u16(),
        }
    }
}

/// One simulated resolver's cache: presence only, times in µs.
pub(crate) type ResolverCache = TtlMap<CacheKey, ()>;

/// Derive the synthetic-Internet plan configuration for a dataset, so
/// the generator and any later analyzer build byte-identical plans.
pub fn plan_config_for(spec: &DatasetSpec, scale: Scale, seed: u64) -> PlanConfig {
    PlanConfig {
        other_as_count: ((spec.as_count as f64 * scale.resolvers).ceil() as usize).max(50),
        isp_fraction: 0.45,
        v6_fraction: 0.35,
        seed: seed ^ 0x0a5_c0de,
    }
}

/// Counters the engine reports after generating a dataset.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct DatasetStats {
    /// Query-direction records written.
    pub queries: u64,
    /// Response-direction records written.
    pub responses: u64,
    /// UDP responses that carried the TC bit.
    pub truncated_udp: u64,
    /// Query records sent over TCP.
    pub tcp_queries: u64,
    /// Queries whose response was junk (non-NOERROR).
    pub junk_queries: u64,
    /// Demand events absorbed by resolver caches.
    pub cache_hits: u64,
    /// Responses replaced by RRL TC=1 slips (when RRL is enabled).
    pub rrl_slips: u64,
    /// Responses dropped by RRL.
    pub rrl_drops: u64,
    /// Per-fleet query counts, by fleet name.
    pub per_fleet: Vec<(String, u64)>,
}

impl DatasetStats {
    /// Fold a time slice's counters into this block. `per_fleet` is
    /// left untouched: slice merging tracks fleet counts positionally
    /// and attaches names once at the end.
    pub(crate) fn absorb(&mut self, other: &DatasetStats) {
        self.queries += other.queries;
        self.responses += other.responses;
        self.truncated_udp += other.truncated_udp;
        self.tcp_queries += other.tcp_queries;
        self.junk_queries += other.junk_queries;
        self.cache_hits += other.cache_hits;
        self.rrl_slips += other.rrl_slips;
        self.rrl_drops += other.rrl_drops;
    }

    /// Publish the run's `simnet_*` counters.
    pub(crate) fn publish(&self) {
        obs::counter(
            "simnet_queries_total",
            "query records generated by the simnet engine",
        )
        .add(self.queries);
        obs::counter(
            "simnet_responses_total",
            "response records generated by the simnet engine",
        )
        .add(self.responses);
        obs::counter(
            "simnet_cache_hits_total",
            "demand events absorbed by simulated resolver caches",
        )
        .add(self.cache_hits);
    }
}

/// RNG seed for one time slice: stable-hash the dataset seed with the
/// slot index, so any sharding of the slot range reproduces identical
/// per-slice streams.
pub(crate) fn slice_seed(seed: u64, slot: usize) -> u64 {
    splitmix((seed ^ 0xe46).wrapping_add((slot as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// The generation engine for one dataset.
pub struct Engine {
    spec: DatasetSpec,
    scale: Scale,
    seed: u64,
    zone: ZoneModel,
    pub(crate) auth: Authoritative,
    pub(crate) fleets: Vec<Fleet>,
    ptr: PtrDb,
    plan: InternetPlan,
    pub(crate) zipf: ZipfSampler,
    pub(crate) junk: JunkGenerator,
}

impl Engine {
    /// Materialize a dataset: zone, address plan, fleets, PTR zone.
    pub fn new(spec: DatasetSpec, scale: Scale, seed: u64) -> Engine {
        let zone = spec.zone.build();
        let plan = InternetPlan::build(&plan_config_for(&spec, scale, seed));
        let mut ptr = PtrDb::new();
        let server_count = spec.servers.len();
        let mut addr_offset = 0u64;
        let fleets: Vec<Fleet> = spec
            .fleets()
            .into_iter()
            .map(|mut f| {
                // dual-stack (sited) fleets keep enough resolvers per
                // site for the Figure 5 statistics to be meaningful
                let floor = if f.dual_stack {
                    (f.sites.len() as u32 * 8).max(2)
                } else {
                    2
                };
                f.resolver_count = ((f.resolver_count as f64 * scale.resolvers).ceil() as u32)
                    .max(floor)
                    .min(f.resolver_count.max(floor));
                let fleet =
                    Fleet::build_offset(f, &plan, server_count, seed, &mut ptr, addr_offset);
                addr_offset += fleet.spec.resolver_count as u64;
                fleet
            })
            .collect();
        let zipf = ZipfSampler::new(zone.domain_count().max(1), 0.95);
        let junk = JunkGenerator::new(zone.clone());
        let auth = Authoritative::new(zone.clone());
        Engine {
            spec,
            scale,
            seed,
            zone,
            auth,
            fleets,
            ptr,
            plan,
            zipf,
            junk,
        }
    }

    /// The dataset being generated.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }
    /// The reverse-DNS zone built alongside the fleets.
    pub fn ptr_db(&self) -> &PtrDb {
        &self.ptr
    }
    /// The synthetic Internet plan (for enrichment downstream).
    pub fn plan(&self) -> &InternetPlan {
        &self.plan
    }
    /// The zone model.
    pub fn zone(&self) -> &ZoneModel {
        &self.zone
    }
    /// Total queries after scaling.
    pub fn scaled_total(&self) -> u64 {
        (self.spec.total_queries as f64 * self.scale.queries) as u64
    }
    /// The dataset seed (fleet/live paths derive per-slot streams from it).
    pub fn seed(&self) -> u64 {
        self.seed
    }
    /// The scaling knobs in effect.
    pub fn scale(&self) -> Scale {
        self.scale
    }
    /// The materialized fleets, in spec order.
    pub fn fleets(&self) -> &[Fleet] {
        &self.fleets
    }
    /// The authoritative responder for the vantage zone.
    pub fn auth(&self) -> &Authoritative {
        &self.auth
    }
    /// The Zipf popularity sampler over the zone's registered domains.
    pub fn zipf(&self) -> &ZipfSampler {
        &self.zipf
    }
    /// The junk-name generator for this zone.
    pub fn junk_gen(&self) -> &JunkGenerator {
        &self.junk
    }

    /// Generate the dataset into a capture writer (single-threaded).
    pub fn generate<W: Write>(&self, out: &mut CaptureWriter<W>) -> std::io::Result<DatasetStats> {
        self.generate_sharded(out, 1)
    }

    /// Generate the dataset into any record sink, spread over `shards`
    /// worker threads.
    ///
    /// Time is sliced by hourly slot — each slice is driven by its own
    /// `StdRng` split from the dataset seed via [`splitmix`] stable
    /// hashing, with fresh per-slice resolver caches and RRL state.
    /// Shard `w` generates the slots `≡ w (mod shards)` as one lane of
    /// the shared slot scheduler, which merges slices in slot order, so the
    /// output is byte-identical for any shard count.
    pub fn generate_sharded<S: RecordSink>(
        &self,
        out: &mut S,
        shards: usize,
    ) -> std::io::Result<DatasetStats> {
        let plan = SlotPlan::new(self);
        let shards = shards.clamp(1, plan.slots().max(1));
        let lanes = (0..shards)
            .map(|shard| SliceLane {
                engine: self,
                plan: &plan,
                shard,
                shards,
            })
            .collect();
        let (stats, _) = run_lanes(self, "simnet.generate", lanes, shards, out)?;
        stats.publish();
        Ok(stats)
    }

    /// Generate one hourly time slice, self-contained: its own RNG
    /// stream, resolver caches, and RRL state, so slices can run on any
    /// thread in any order and still merge byte-identically.
    fn generate_slice(&self, slot: usize, plan: &SlotPlan) -> Part {
        let mut rec = Recorder::new(
            StdRng::seed_from_u64(slice_seed(self.seed, slot)),
            self.spec.rrl.map(RateLimiter::new),
        );
        let mut caches: Vec<HashMap<u32, ResolverCache>> =
            self.fleets.iter().map(|_| HashMap::new()).collect();
        let mut fleet_counts = vec![0u64; self.fleets.len()];
        for (fi, fleet) in self.fleets.iter().enumerate() {
            fleet_counts[fi] = plan.steer(fi, slot, |want_junk| {
                let t = plan.arrival(slot, &mut rec.rng);
                self.demand(fleet, t, want_junk, &mut caches[fi], &mut rec)
            });
        }
        // incident traffic (the Feb-2020 cyclic dependency): cache-defeating
        // A/AAAA floods from the incident fleet's resolvers
        let fleet = &self.fleets[self.incident_fleet()];
        for incident in &self.spec.incidents {
            for i in 0..plan.incident_quota(incident, slot).unwrap_or(0) {
                let t = plan.arrival(slot, &mut rec.rng);
                let resolver = &fleet.resolvers[fleet.pick(&mut rec.rng)];
                let (qname, qtype, signed) = incident_question(self, incident, i);
                self.emit_exchange(fleet, resolver, &qname, qtype, signed, t, &mut rec);
            }
        }
        rec.into_part(fleet_counts)
    }

    /// The fleet whose resolvers carry incident traffic: Google's public
    /// resolvers, else the first fleet.
    pub(crate) fn incident_fleet(&self) -> usize {
        self.fleets
            .iter()
            .position(|f| f.spec.name == "google-public")
            .unwrap_or(0)
    }

    /// One demand event; returns the number of query records emitted
    /// (0 when the resolver cache absorbed it).
    fn demand(
        &self,
        fleet: &Fleet,
        t: SimTime,
        is_junk: bool,
        caches: &mut HashMap<u32, ResolverCache>,
        rec: &mut Recorder,
    ) -> u64 {
        let spec = &fleet.spec;
        let r_idx = fleet.pick(&mut rec.rng);
        let resolver = &fleet.resolvers[r_idx];
        let cache = caches
            .entry(r_idx as u32)
            .or_insert_with(|| ResolverCache::with_capacity(CACHE_CAP));
        let now = t.as_micros();

        let (qname, qtype, signed, cacheable, _domain_idx) = pick_question_for(
            &self.zone,
            &self.zipf,
            &self.junk,
            spec,
            t,
            is_junk,
            &mut rec.rng,
        );

        let ckey = CacheKey::new(&qname, qtype);
        if cacheable && cache.get(&ckey, now).is_some() {
            rec.stats.cache_hits += 1;
            return 0;
        }

        let mut emitted = self.emit_exchange(fleet, resolver, &qname, qtype, signed, t, rec);
        if is_junk {
            rec.stats.junk_queries += emitted;
        }
        if cacheable {
            // the spec's TTL verbatim: entries decay per-record from
            // their own insertion instant (no whole-second rounding)
            cache.insert(ckey, (), now, spec.cache_ttl.as_micros());
        }

        // DNSSEC validation follow-ups
        if spec.validates
            && !is_junk
            && signed
            && qtype != RType::Ds
            && rec.rng.gen_bool(spec.ds_prob)
        {
            let delegation = self.zone.minimized_qname(&qname);
            let dkey = CacheKey::new(&delegation, RType::Ds);
            if cache.get(&dkey, now).is_none() {
                let at = t + SimDuration::from_millis(5);
                emitted +=
                    self.emit_exchange(fleet, resolver, &delegation, RType::Ds, true, at, rec);
                cache.insert(dkey, (), now, SimDuration::from_secs(3600).as_micros());
            }
        }
        if spec.validates && rec.rng.gen_bool(spec.dnskey_prob) {
            let apex = self.zone.apex().clone();
            let at = t + SimDuration::from_millis(8);
            emitted += self.emit_exchange(fleet, resolver, &apex, RType::Dnskey, true, at, rec);
        }
        emitted
    }

    /// Emit one query/response exchange through the vantage recorder.
    /// Returns query records written.
    #[allow(clippy::too_many_arguments)]
    fn emit_exchange(
        &self,
        fleet: &Fleet,
        resolver: &Resolver,
        qname: &Name,
        qtype: RType,
        signed: bool,
        t: SimTime,
        rec: &mut Recorder,
    ) -> u64 {
        let out = plane::outgoing(
            &self.spec.servers,
            &fleet.spec,
            resolver,
            qname,
            qtype,
            &mut rec.rng,
        );
        let answer = self.auth.respond(&out.query, signed);
        rec.exchange(&out.query, &answer.message, out.path, t, out.tcp_direct)
            .queries()
    }
}

/// One shard of the calibrated generator: the slots `≡ shard (mod
/// shards)`, each a self-contained slice; an empty part for the rest.
struct SliceLane<'a> {
    engine: &'a Engine,
    plan: &'a SlotPlan,
    shard: usize,
    shards: usize,
}

impl Lane for SliceLane<'_> {
    fn produce(&mut self, slot: usize) -> Part {
        if slot % self.shards == self.shard {
            self.engine.generate_slice(slot, self.plan)
        } else {
            Part::default()
        }
    }
}

/// The per-query qname/qtype decision chain, shared between the
/// offline engine and the live [`crate::drive::Driver`]: junk vs
/// Zipf-popular valid names, deep names under the delegation, Q-min
/// rewriting. Returns `(qname, qtype, signed, cacheable, domain_idx)`.
///
/// Deep names matter: hosts under the delegation (and NS lookups
/// clients ask about arbitrary hostnames) are what make the
/// minimized-qname evidence informative — without Q-min, a good share
/// of NS queries target deep names.
pub(crate) fn pick_question_for(
    zone: &ZoneModel,
    zipf: &ZipfSampler,
    junk: &JunkGenerator,
    spec: &FleetSpec,
    t: SimTime,
    is_junk: bool,
    rng: &mut StdRng,
) -> (Name, RType, bool, bool, u64) {
    if is_junk {
        let (name, _) = junk.sample(rng);
        let qt = if rng.gen_bool(0.9) {
            RType::A
        } else {
            RType::Aaaa
        };
        (name, qt, false, false, 0u64)
    } else {
        let idx = zipf.sample(rng);
        let base = zone.registered_domain(idx);
        let mut qt = pick_qtype(&spec.qtype_mix, rng);
        let mut qn = if matches!(qt, RType::A | RType::Aaaa | RType::Ns) && rng.gen_bool(0.55) {
            let sub: &[u8] =
                [&b"www"[..], b"mail", b"api", b"cdn", b"img"][rng.gen_range(0..5usize)];
            base.child(sub).unwrap_or(base)
        } else {
            base
        };
        if spec.qmin_active(t) && rng.gen_bool(spec.qmin_frac) {
            qn = zone.minimized_qname(&qn);
            qt = RType::Ns;
        }
        (qn, qt, zone.is_signed(idx), true, idx)
    }
}

/// Server and address-family choice.
///
/// Resolvers prefer lower-RTT authoritatives (Müller et al., ref [30] in
/// the paper) — softmax over per-server RTT. Dual-stack resolvers then
/// pick the family by a logistic in the v4-v6 RTT gap plus the fleet's
/// v6 bias: the mechanism the paper confirms at Facebook's sites.
pub(crate) fn choose_server_family(
    spec: &FleetSpec,
    resolver: &Resolver,
    server_count: usize,
    rng: &mut StdRng,
) -> (usize, IpVersion) {
    if spec.dual_stack {
        let mut weights = Vec::with_capacity(server_count);
        for s in 0..server_count {
            let best = resolver.rtt_v4_us[s].min(resolver.rtt_v6_us[s]) as f64;
            weights.push((-best / SERVER_TAU_US).exp());
        }
        let server = pick_weighted(&weights, rng);
        let gap = resolver.rtt_v4_us[server] as f64 - resolver.rtt_v6_us[server] as f64;
        let p_v6 = sigmoid(spec.v6_bias + gap / FAMILY_TAU_US);
        let family = if rng.gen_bool(p_v6.clamp(0.001, 0.999)) {
            IpVersion::V6
        } else {
            IpVersion::V4
        };
        (server, family)
    } else {
        let family = IpVersion::of(resolver.ip);
        let mut weights = Vec::with_capacity(server_count);
        for s in 0..server_count {
            let rtt = resolver.rtt_us(s, family) as f64;
            weights.push((-rtt / SERVER_TAU_US).exp());
        }
        (pick_weighted(&weights, rng), family)
    }
}

fn pick_weighted(weights: &[f64], rng: &mut StdRng) -> usize {
    let total: f64 = weights.iter().sum();
    let mut u = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Sample a qtype from the fleet mix.
pub(crate) fn pick_qtype(mix: &[(RType, f64)], rng: &mut StdRng) -> RType {
    let dist: Vec<(u16, f64)> = mix.iter().map(|(t, w)| (t.to_u16(), *w)).collect();
    RType::from_u16(sample_dist(&dist, rng.gen()))
}

/// Diurnal + weekly load shape (cf. "When the Internet Sleeps").
pub(crate) fn diurnal_weight(t: SimTime) -> f64 {
    let h = t.hour_of_day_f64();
    let day = t.weekday();
    let daily = 1.0 + 0.35 * ((h - 14.0) / 24.0 * std::f64::consts::TAU).cos();
    let weekly = if day >= 5 { 0.92 } else { 1.0 };
    daily * weekly
}

/// Apply 0x20 case randomization to a name's alphabetic octets.
pub(crate) fn mix_case_0x20(name: &Name, rng: &mut StdRng) -> Name {
    let labels: Vec<Vec<u8>> = name
        .labels()
        .map(|l| {
            l.iter()
                .map(|&b| {
                    if b.is_ascii_alphabetic() && rng.gen_bool(0.5) {
                        b ^ 0x20
                    } else {
                        b
                    }
                })
                .collect()
        })
        .collect();
    Name::from_labels(labels.iter().map(|l| l.as_slice())).expect("same shape as input")
}

/// Case-folded FNV key over a name's wire form (cache identity; also
/// the RRL positive-response class key, so a live authoritative built
/// on [`crate::rrl`] buckets identically to the offline engine).
pub fn name_key(name: &Name) -> u64 {
    name_key_wire(name.as_wire())
}

/// [`name_key`] over raw uncompressed wire bytes, for hot paths that
/// have the name's encoding but no parsed [`Name`] (e.g. the live
/// authoritative's zero-alloc respond cache). Must stay in lockstep
/// with [`name_key`] so both bucket identically.
pub fn name_key_wire(wire: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in wire {
        h = (h ^ b.to_ascii_lowercase() as u64).wrapping_mul(0x100_0000_01b3);
    }
    splitmix(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Vantage;
    use crate::scenario::{dataset, monthly_google, Scale};
    use dns_wire::message::Message;
    use netbase::capture::{CaptureReader, CaptureRecord, Direction};
    use netbase::flow::Transport;
    use std::net::IpAddr;

    fn generate(vantage: Vantage, year: u16) -> (Engine, Vec<CaptureRecord>, DatasetStats) {
        let engine = Engine::new(dataset(vantage, year), Scale::tiny(), 42);
        let mut buf = Vec::new();
        let stats = {
            let mut w = CaptureWriter::new(&mut buf).unwrap();
            let s = engine.generate(&mut w).unwrap();
            w.finish().unwrap();
            s
        };
        let records: Vec<CaptureRecord> = CaptureReader::new(&buf[..])
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        (engine, records, stats)
    }

    #[test]
    fn volume_tracks_scaled_target() {
        let (engine, records, stats) = generate(Vantage::Nl, 2020);
        let target = engine.scaled_total();
        // TCP retries and DS/DNSKEY follow-ups add a few percent
        assert!(
            stats.queries >= target && stats.queries < target + target / 4,
            "target {target}, got {}",
            stats.queries
        );
        assert_eq!(stats.queries + stats.responses, records.len() as u64);
        assert_eq!(stats.queries, stats.responses);
    }

    #[test]
    fn all_payloads_parse_as_dns() {
        let (_, records, _) = generate(Vantage::Nl, 2020);
        for rec in &records {
            // TCP payloads carry the RFC 1035 length prefix
            let wire = match rec.flow.transport {
                Transport::Tcp => {
                    let mut msgs = dns_wire::tcp::deframe_all(&rec.payload).expect("framed");
                    assert_eq!(msgs.len(), 1);
                    msgs.remove(0)
                }
                Transport::Udp => rec.payload.clone(),
            };
            let msg = Message::parse(&wire).expect("wire-valid payloads");
            match rec.direction {
                Direction::Query => assert!(!msg.header.response),
                Direction::Response => assert!(msg.header.response),
            }
        }
    }

    #[test]
    fn junk_fraction_tracks_table_3() {
        let (engine, _, stats) = generate(Vantage::Nl, 2020);
        let junk_target = 1.0 - engine.spec().valid_fraction; // 13.6%
        let got = stats.junk_queries as f64 / stats.queries as f64;
        assert!(
            (got - junk_target).abs() < 0.05,
            "junk {got} vs target {junk_target}"
        );
    }

    #[test]
    fn broot_is_mostly_junk() {
        let (_, _, stats) = generate(Vantage::BRoot, 2020);
        let got = stats.junk_queries as f64 / stats.queries as f64;
        assert!((0.70..0.90).contains(&got), "root junk {got}");
    }

    #[test]
    fn caches_absorb_demand() {
        let (_, _, stats) = generate(Vantage::Nl, 2020);
        assert!(stats.cache_hits > 0, "hot names must hit resolver caches");
    }

    #[test]
    fn tcp_and_truncation_present() {
        let (_, records, stats) = generate(Vantage::Nl, 2020);
        assert!(stats.tcp_queries > 0);
        assert!(stats.truncated_udp > 0);
        // every TCP record carries a measured RTT
        for rec in records
            .iter()
            .filter(|r| r.flow.transport == Transport::Tcp)
        {
            assert!(rec.tcp_rtt_us > 0, "TCP records carry handshake RTT");
        }
        // truncated UDP responses have the TC bit
        let mut tc = 0;
        for rec in &records {
            if rec.direction == Direction::Response && rec.flow.transport == Transport::Udp {
                let msg = Message::parse(&rec.payload).unwrap();
                if msg.header.truncated {
                    tc += 1;
                    assert!(
                        msg.answers.len() + msg.authorities.len() == 0 || rec.payload.len() <= 4096
                    );
                }
            }
        }
        assert_eq!(tc as u64, stats.truncated_udp);
    }

    #[test]
    fn records_are_slot_ordered() {
        let (_, records, _) = generate(Vantage::Nz, 2019);
        // within the stream, hour buckets never go backwards
        let mut last_hour = 0u64;
        for rec in &records {
            let hour = rec.timestamp.as_micros() / 3_600_000_000;
            assert!(hour >= last_hour, "slot order violated");
            last_hour = hour;
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let engine = Engine::new(dataset(Vantage::Nz, 2020), Scale::tiny(), 7);
            let mut buf = Vec::new();
            let mut w = CaptureWriter::new(&mut buf).unwrap();
            engine.generate(&mut w).unwrap();
            w.finish().unwrap();
            buf
        };
        assert_eq!(run(), run(), "same seed => byte-identical capture");
    }

    #[test]
    fn different_seed_differs() {
        let run = |seed| {
            let engine = Engine::new(dataset(Vantage::Nz, 2020), Scale::tiny(), seed);
            let mut buf = Vec::new();
            let mut w = CaptureWriter::new(&mut buf).unwrap();
            engine.generate(&mut w).unwrap();
            w.finish().unwrap();
            buf
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn queries_target_the_dataset_servers() {
        let (engine, records, _) = generate(Vantage::Nl, 2020);
        let servers: Vec<IpAddr> = engine
            .spec()
            .servers
            .iter()
            .flat_map(|s| [IpAddr::V4(s.v4), IpAddr::V6(s.v6)])
            .collect();
        for rec in &records {
            match rec.direction {
                Direction::Query => assert!(servers.contains(&rec.flow.dst)),
                Direction::Response => assert!(servers.contains(&rec.flow.src)),
            }
        }
        // both .nl servers see traffic
        let a_queries = records
            .iter()
            .filter(|r| {
                r.direction == Direction::Query
                    && (r.flow.dst == servers[0] || r.flow.dst == servers[1])
            })
            .count();
        let total_queries = records
            .iter()
            .filter(|r| r.direction == Direction::Query)
            .count();
        assert!(a_queries > 0 && a_queries < total_queries);
    }

    #[test]
    fn incident_floods_two_domains() {
        let spec = monthly_google(Vantage::Nz, 2020, 2);
        let engine = Engine::new(spec, Scale::tiny(), 9);
        let mut buf = Vec::new();
        let mut w = CaptureWriter::new(&mut buf).unwrap();
        let stats = engine.generate(&mut w).unwrap();
        w.finish().unwrap();
        // Compare against January: February must show a large A/AAAA bump.
        let jan = Engine::new(monthly_google(Vantage::Nz, 2020, 1), Scale::tiny(), 9);
        let mut jbuf = Vec::new();
        let mut jw = CaptureWriter::new(&mut jbuf).unwrap();
        let jstats = jan.generate(&mut jw).unwrap();
        jw.finish().unwrap();
        assert!(
            stats.queries as f64 > jstats.queries as f64 * 1.3,
            "feb {} vs jan {}",
            stats.queries,
            jstats.queries
        );
    }

    #[test]
    fn rrl_slips_and_drops_under_pressure() {
        let mut spec = dataset(Vantage::Nz, 2020);
        // draconian limits so the effect is unmistakable at tiny scale
        spec.rrl = Some(crate::rrl::RrlConfig {
            responses_per_second: 0,
            burst: 1,
            slip: 2,
            ..Default::default()
        });
        let engine = Engine::new(spec, Scale::tiny(), 5);
        let mut buf = Vec::new();
        let mut w = CaptureWriter::new(&mut buf).unwrap();
        let stats = engine.generate(&mut w).unwrap();
        w.finish().unwrap();
        assert!(stats.rrl_slips > 0, "slips under a 1 rps budget");
        assert!(stats.rrl_drops > 0, "drops too");
        assert!(
            stats.responses < stats.queries,
            "dropped responses leave queries unanswered"
        );
        // every slip forces a TCP retry, so TCP grows vs baseline
        let baseline = Engine::new(dataset(Vantage::Nz, 2020), Scale::tiny(), 5);
        let mut bbuf = Vec::new();
        let mut bw = CaptureWriter::new(&mut bbuf).unwrap();
        let bstats = baseline.generate(&mut bw).unwrap();
        bw.finish().unwrap();
        let tcp_ratio = |s: &DatasetStats| s.tcp_queries as f64 / s.queries as f64;
        assert!(
            tcp_ratio(&stats) > tcp_ratio(&bstats) * 1.5,
            "RRL drives TCP: {} vs {}",
            tcp_ratio(&stats),
            tcp_ratio(&bstats)
        );
    }

    #[test]
    fn case_randomization_applied_by_google_queries() {
        // Google/Cloudflare fleets apply 0x20 mixing; their qnames on
        // the wire should show mixed case, and everything downstream is
        // case-insensitive (the proptests in dns-wire cover equality).
        let (engine, records, _) = generate(Vantage::Nl, 2020);
        let plan = engine.plan();
        let mut mixed = 0usize;
        let mut google_queries = 0usize;
        for rec in records.iter().filter(|r| r.direction == Direction::Query) {
            if plan.mapper.is_public_dns(rec.flow.src) {
                let wire = match rec.flow.transport {
                    Transport::Tcp => dns_wire::tcp::deframe_all(&rec.payload).unwrap().remove(0),
                    Transport::Udp => rec.payload.clone(),
                };
                let msg = Message::parse(&wire).unwrap();
                let qname = msg.question().unwrap().qname.to_string();
                google_queries += 1;
                let has_upper = qname.bytes().any(|b| b.is_ascii_uppercase());
                let has_lower = qname.bytes().any(|b| b.is_ascii_lowercase());
                if has_upper && has_lower {
                    mixed += 1;
                }
            }
        }
        assert!(google_queries > 100, "enough samples: {google_queries}");
        let share = mixed as f64 / google_queries as f64;
        assert!(share > 0.9, "0x20 mixing visible: {share}");
    }

    #[test]
    fn per_fleet_counts_match_shares() {
        let (engine, _, stats) = generate(Vantage::Nl, 2019);
        let total: u64 = stats.per_fleet.iter().map(|(_, c)| c).sum();
        for (fleet, spec) in stats.per_fleet.iter().zip(engine.spec().fleets()) {
            let got = fleet.1 as f64 / total as f64;
            assert!(
                (got - spec.traffic_share).abs() < 0.05,
                "{}: got {got}, want {}",
                fleet.0,
                spec.traffic_share
            );
        }
    }
}
