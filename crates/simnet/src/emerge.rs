//! Emergent fleet generation: the algorithmic resolver fleet of the
//! `resolver` crate in the offline traffic loop.
//!
//! [`crate::engine::Engine::generate_sharded`] *calibrates* the vantage
//! stream — per-fleet qtype mixes, Q-min rewrite fractions and cache
//! absorption are sampled from distributions fitted to the paper. This
//! module replaces that per-query sampling with actual resolution:
//! every demand event is a client *stimulus* handed to an
//! [`IterativeResolver`] that walks root → vantage → leaf over a
//! three-tier [`SimTransport`]. Only the vantage tier is recorded, so
//! the capture is the cache-miss shadow the paper measures, and the
//! centralization signatures *emerge* from resolver algorithms instead
//! of being sampled:
//!
//! - The Dec-2019 Q-min flip (§4.2.1) is literally
//!   [`IterativeResolver::set_qmin`] toggling on the provider's rollout
//!   date — the NS-probe share at the vantage is the algorithm's
//!   output.
//! - The Feb-2020 `.nz` cyclic-dependency surge is the vantage handing
//!   out glueless mutually-dependent referrals inside the incident
//!   window; resolvers burn their query budget re-walking the cycle.
//! - Cloud shares stay pinned to Table 4 by the same quota steering the
//!   calibrated engine uses: a fleet's slot quota counts *recorded
//!   vantage queries*, so traffic shares match by construction while
//!   the per-query content is emergent.
//!
//! The capture itself goes through the traffic plane the calibrated
//! engine uses: the same slot plan and scheduler (one lane per fleet
//! plus the incident lane) and the same vantage recorder (UDP under the
//! EDNS limit, RRL, TC=1 → TCP retry). The two paths differ only in
//! what is asked and which resolver asks.
//!
//! ## Documented tolerances vs the calibrated engine
//!
//! The fleet path reproduces the calibrated headline series within the
//! tolerances the claims tests pin (see `tests/fleet_emergence.rs`),
//! with these known, accepted divergences:
//!
//! - **No DS/DNSKEY follow-ups** (`validate` stays off): shifts
//!   google-public's vantage mix by ≤ `ds_prob` ≈ 1.8 pp.
//! - **Per-fleet shared caches persist across slots** (calibrated
//!   rebuilds per-resolver caches each hourly slice), so absorption is
//!   higher; the quota pins volume, so only `cache_hits` accounting
//!   differs.
//! - **NoData negatives cache for 900 s** (RFC 2308 default) where the
//!   calibrated path caches NS terminals positively for 3600 s.
//! - **Server/family choice is the RTT selector's** (EWMA, emergent)
//!   rather than the calibrated softmax/logistic draw.
//! - **`.nz` Q-min walks probe twice** (`co.nz NS` + `label.co.nz NS`)
//!   where the calibrated rewrite emits one minimized probe.

use crate::auth::{Answer, Authoritative, ServerSpec};
use crate::engine::{mix_case_0x20, name_key, pick_qtype, slice_seed, DatasetStats, Engine};
use crate::fleet::Fleet;
use crate::plane::{
    self, incident_question, run_lanes, Delivery, Lane, Part, Path, Recorder, SlotPlan,
};
use crate::profile::FleetSpec;
use crate::rrl::RateLimiter;
use crate::scenario::Incident;
use dns_wire::builder::MessageBuilder;
use dns_wire::message::Message;
use dns_wire::name::Name;
use dns_wire::rdata::RData;
use dns_wire::types::{RType, Rcode};
use netbase::capture::RecordSink;
use netbase::flow::IpVersion;
use netbase::time::{SimDuration, SimTime};
use obs::Histogram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resolver::{Exchange, IterativeResolver, ResolverConfig, SharedCache, Transport};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::sync::Arc;
use zonedb::junk::JunkGenerator;
use zonedb::popularity::ZipfSampler;
use zonedb::zone::{Lookup, ZoneModel};

/// Synthetic root server addresses (the unrecorded tier above the
/// vantage zone; datasets whose vantage *is* the root skip this tier).
pub const ROOT_V4: IpAddr = IpAddr::V4(Ipv4Addr::new(198, 41, 0, 4));
/// See [`ROOT_V4`].
pub const ROOT_V6: IpAddr = IpAddr::V6(Ipv6Addr::new(0x2001, 0x503, 0xba3e, 0, 0, 0, 0x2, 0x30));
/// RTT to the (anycast) root, microseconds.
const ROOT_RTT_US: u64 = 18_000;
/// RTT to leaf (registrant) nameservers, microseconds.
const LEAF_RTT_US: u64 = 12_000;
/// Resolver think-time between walk hops, microseconds.
const HOP_GAP_US: u64 = 150;
/// Virtual-time cost of a timed-out exchange (RRL drop), microseconds.
const TIMEOUT_COST_US: u64 = 300_000;
/// TTL on the synthetic root's delegation of the vantage zone.
const ROOT_NS_TTL: u32 = 172_800;
/// Salt separating per-fleet RNG streams from the calibrated engine's.
const FLEET_SALT: u64 = 0xf1ee_7a55;
/// Salt for the incident stream's RNG.
const INCIDENT_SALT: u64 = 0x1_c1de;

/// One client demand event handed to a fleet resolver.
#[derive(Debug, Clone)]
pub struct Stimulus {
    /// Name the client asked for.
    pub qname: Name,
    /// Record type the client asked for.
    pub qtype: RType,
    /// True when this is junk demand (typo/misconfiguration traffic).
    pub junk: bool,
}

/// Sample one client stimulus for a fleet.
///
/// Deep names (hosts under the delegation) are drawn with probability
/// `spec.qmin_frac` *independent of time*: the client workload never
/// changes on the rollout date. What changes at the flip is purely the
/// resolver algorithm — with Q-min off a deep stimulus reaches the
/// vantage as `www.example.nl A`; with Q-min on the same stimulus
/// produces the minimized `example.nl NS` probe. Post-flip the vantage
/// NS share is therefore `qmin_frac + (1-qmin_frac)·mix_ns`, exactly
/// the calibrated engine's rewrite composition.
pub fn sample_stimulus(
    zone: &ZoneModel,
    zipf: &ZipfSampler,
    junk: &JunkGenerator,
    spec: &FleetSpec,
    is_junk: bool,
    rng: &mut StdRng,
) -> Stimulus {
    if is_junk {
        let (qname, _) = junk.sample(rng);
        let qtype = if rng.gen_bool(0.9) {
            RType::A
        } else {
            RType::Aaaa
        };
        return Stimulus {
            qname,
            qtype,
            junk: true,
        };
    }
    let idx = zipf.sample(rng);
    let base = zone.registered_domain(idx);
    let qtype = pick_qtype(&spec.qtype_mix, rng);
    let qname = if spec.qmin_frac > 0.0 && rng.gen_bool(spec.qmin_frac) {
        let sub: &[u8] = [&b"www"[..], b"mail", b"api", b"cdn", b"img"][rng.gen_range(0..5usize)];
        base.child(sub).unwrap_or(base)
    } else {
        base
    };
    Stimulus {
        qname,
        qtype,
        junk: false,
    }
}

/// The three-tier transport a fleet resolver walks.
///
/// - **root tier** (synthetic, unrecorded): refers everything to the
///   vantage zone, glue filtered to the resolver's address families.
/// - **vantage tier** (recorded): [`Authoritative::respond`] plus 0x20
///   case mixing, the direct-TCP draw and incident interception, written
///   by the same vantage recorder as the calibrated engine (EDNS
///   truncation with TCP retry, RRL).
/// - **leaf tier** (synthetic, unrecorded): registrant nameservers at
///   the referral glue addresses; positive answers carry the fleet's
///   `cache_ttl` so cache absorption matches the calibrated model.
pub struct SimTransport<'a> {
    zone: &'a ZoneModel,
    auth: &'a Authoritative,
    servers: &'a [ServerSpec],
    incidents: &'a [Incident],
    fleet: &'a Fleet,
    rtt_hists: &'a [Arc<Histogram>],
    cache_ttl_secs: u32,
    root_zone: bool,
    /// The slot's RNG stream, RRL state, records and counters.
    rec: Recorder,
    /// Vantage query records emitted by the current stimulus.
    pub emitted: u64,
    resolver_idx: usize,
    junk_stimulus: bool,
    start: SimTime,
    elapsed: SimDuration,
}

impl<'a> SimTransport<'a> {
    /// Build a transport for one fleet over one time slice, drawing
    /// from `rng` and rate-limiting with `rrl` when the dataset enables
    /// RRL.
    pub fn new(
        engine: &'a Engine,
        fleet: &'a Fleet,
        rtt_hists: &'a [Arc<Histogram>],
        rng: StdRng,
        rrl: Option<RateLimiter>,
    ) -> SimTransport<'a> {
        SimTransport {
            zone: engine.zone(),
            auth: engine.auth(),
            servers: &engine.spec().servers,
            incidents: &engine.spec().incidents,
            fleet,
            rtt_hists,
            cache_ttl_secs: fleet.spec.cache_ttl.as_secs().max(1) as u32,
            root_zone: engine.zone().is_root_zone(),
            rec: Recorder::new(rng, rrl),
            emitted: 0,
            resolver_idx: 0,
            junk_stimulus: false,
            start: SimTime(0),
            elapsed: SimDuration::ZERO,
        }
    }

    /// Arm the transport for one stimulus: which fleet resolver sends,
    /// when it starts, and whether the demand is junk (for accounting).
    pub fn begin(&mut self, resolver_idx: usize, start: SimTime, junk: bool) {
        self.resolver_idx = resolver_idx;
        self.start = start;
        self.junk_stimulus = junk;
        self.elapsed = SimDuration::ZERO;
        self.emitted = 0;
    }

    fn now(&self) -> SimTime {
        self.start + self.elapsed
    }

    fn families(&self) -> (bool, bool) {
        let r = &self.fleet.resolvers[self.resolver_idx];
        let has = |v: IpVersion| {
            IpVersion::of(r.ip) == v || r.alt_ip.map(|a| IpVersion::of(a) == v).unwrap_or(false)
        };
        (has(IpVersion::V4), has(IpVersion::V6))
    }

    /// The synthetic root's referral into the vantage zone. Glue is
    /// family-filtered: a v6-only resolver only learns v6 vantage
    /// addresses, so dual-stack preference stays emergent downstream.
    fn root_referral(&mut self, query: &Message) -> Exchange {
        let (v4, v6) = self.families();
        let message = synth_root_referral(self.zone, self.servers, v4, v6, query);
        self.elapsed = self.elapsed + SimDuration::from_micros(ROOT_RTT_US + HOP_GAP_US);
        Exchange::Answer {
            message,
            rtt_us: ROOT_RTT_US as u32,
        }
    }

    /// During an incident window the vantage answers queries for the
    /// affected domains with a *glueless* referral whose only NS host
    /// lives under the other affected domain — the mutual dependency
    /// that makes resolution cycle (Pappas et al. 2004).
    fn incident_referral(
        &self,
        qname: &Name,
        qtype: RType,
        t: SimTime,
        query: &Message,
    ) -> Option<Answer> {
        if qtype == RType::Ds {
            return None;
        }
        let idx = self.zone.delegation_index(qname)?;
        for incident in self.incidents {
            let Incident::CyclicDependency {
                start,
                end,
                domain_indices,
                ..
            } = incident;
            if t < *start || t >= *end {
                continue;
            }
            if let Some(pos) = domain_indices.iter().position(|d| *d == idx) {
                let other = self.zone.registered_domain(domain_indices[1 - pos]);
                let ns = other.child(b"ns").unwrap_or_else(|_| other.clone());
                let delegation = self.zone.minimized_qname(qname);
                let message = MessageBuilder::response(query, Rcode::NoError)
                    .authority(delegation, self.auth.delegation_ttl, RData::Ns(ns))
                    .build();
                return Some(Answer {
                    message,
                    rcode: Rcode::NoError,
                    cache_ttl_secs: self.auth.delegation_ttl,
                });
            }
        }
        None
    }

    /// One recorded exchange at the vantage, driven by the resolver's
    /// actual wire query. RNG draws, in order: 0x20 case mixing, direct
    /// TCP, then the recorder's.
    fn vantage_exchange(&mut self, si: usize, dst_ip: IpAddr, query: &Message) -> Exchange {
        let family = IpVersion::of(dst_ip);
        let fleet = self.fleet;
        let r = &fleet.resolvers[self.resolver_idx];
        let path = Path {
            src: r.addr_for(family),
            dst: dst_ip,
            rtt_us: r.rtt_us(si, family),
        };
        let Some(question) = query.question() else {
            return Exchange::Answer {
                message: MessageBuilder::response(query, Rcode::FormErr).build(),
                rtt_us: path.rtt_us,
            };
        };
        let qname = &question.qname;
        let t = self.now();
        let signed = self
            .zone
            .delegation_index(qname)
            .is_some_and(|i| self.zone.is_signed(i));
        let answer = match self.incident_referral(qname, question.qtype, t, query) {
            Some(a) => a,
            None => self.auth.respond(query, signed),
        };
        if let Some(h) = self.rtt_hists.get(si) {
            h.record(path.rtt_us as u64);
        }

        // The wire records carry the 0x20-mixed name; the resolver-side
        // message keeps the clean name so Name equality in the walk is
        // unaffected (real resolvers compare case-insensitively).
        let mixed = r.mix_case.then(|| {
            let wire_qname = mix_case_0x20(qname, &mut self.rec.rng);
            let mut q = query.clone();
            q.questions[0].qname = wire_qname.clone();
            let mut a = answer.message.clone();
            if let Some(aq) = a.questions.first_mut() {
                aq.qname = wire_qname;
            }
            (q, a)
        });
        let (rec_query, rec_resp) = match &mixed {
            Some((q, a)) => (q, a),
            None => (query, &answer.message),
        };
        let tcp = plane::tcp_direct(&fleet.spec, r, &mut self.rec.rng);
        let delivery = self.rec.exchange(rec_query, rec_resp, path, t, tcp);
        self.emitted += delivery.queries();
        if self.junk_stimulus {
            self.rec.stats.junk_queries += delivery.queries();
        }
        let rtt = path.rtt_us as u64;
        let cost = match delivery {
            Delivery::Tcp => 2 * rtt + HOP_GAP_US,
            Delivery::Udp => rtt + HOP_GAP_US,
            Delivery::Retried => 3 * rtt + 2000 + HOP_GAP_US,
            // the resolver sees silence and retries per its state machine
            Delivery::Dropped => TIMEOUT_COST_US,
        };
        self.elapsed = self.elapsed + SimDuration::from_micros(cost);
        match delivery {
            Delivery::Dropped => Exchange::Timeout,
            _ => Exchange::Answer {
                message: answer.message,
                rtt_us: path.rtt_us,
            },
        }
    }

    /// A leaf (registrant) nameserver's answer: synthetic, unrecorded.
    /// Positive answers carry the fleet's cache TTL so the shared
    /// cache absorbs repeat demand on the calibrated schedule.
    fn leaf_exchange(&mut self, query: &Message) -> Exchange {
        let message = synth_leaf_answer(self.zone, self.cache_ttl_secs, query);
        self.elapsed = self.elapsed + SimDuration::from_micros(LEAF_RTT_US + HOP_GAP_US);
        Exchange::Answer {
            message,
            rtt_us: LEAF_RTT_US as u32,
        }
    }
}

/// Build the synthetic root's referral into the vantage zone: one NS
/// per dataset server, glue filtered to the resolver's address
/// families. Shared by the offline [`SimTransport`] and the live
/// loadgen transport (`authd`), so priming behaves identically on both
/// paths.
pub fn synth_root_referral(
    zone: &ZoneModel,
    servers: &[ServerSpec],
    v4: bool,
    v6: bool,
    query: &Message,
) -> Message {
    let apex = zone.apex().clone();
    let mut b = MessageBuilder::response(query, Rcode::NoError);
    for (i, s) in servers.iter().enumerate() {
        let ns = apex
            .child(format!("ns{}", i + 1).as_bytes())
            .unwrap_or_else(|_| apex.clone());
        b = b.authority(apex.clone(), ROOT_NS_TTL, RData::Ns(ns.clone()));
        if v4 {
            b = b.additional(ns.clone(), ROOT_NS_TTL, RData::A(s.v4));
        }
        if v6 {
            b = b.additional(ns, ROOT_NS_TTL, RData::Aaaa(s.v6));
        }
    }
    b.build()
}

/// Build a leaf (registrant) nameserver's answer below the vantage
/// cut: deterministic addresses hashed from the qname, NS sets at the
/// delegation, NODATA/NXDOMAIN with a synthetic SOA otherwise.
/// Positive answers carry `cache_ttl_secs` so resolver caches absorb
/// repeat demand on the fleet's calibrated TTL. Shared by the offline
/// [`SimTransport`] and the live loadgen transport.
pub fn synth_leaf_answer(zone: &ZoneModel, cache_ttl_secs: u32, query: &Message) -> Message {
    let question = match query.question() {
        Some(q) => q.clone(),
        None => return MessageBuilder::response(query, Rcode::FormErr).build(),
    };
    let ttl = cache_ttl_secs;
    let leaf_nodata = |qname: &Name| {
        let cut = zone.minimized_qname(qname);
        MessageBuilder::response(query, Rcode::NoError)
            .authority(cut.clone(), 900, leaf_soa(&cut))
            .build()
    };
    match zone.classify(&question.qname) {
        Lookup::Delegated => {
            let h = name_key(&question.qname);
            match question.qtype {
                RType::A => MessageBuilder::response(query, Rcode::NoError)
                    .answer(
                        question.qname.clone(),
                        ttl,
                        RData::A(Ipv4Addr::new(203, 0, 113, (h % 254 + 1) as u8)),
                    )
                    .build(),
                RType::Aaaa => MessageBuilder::response(query, Rcode::NoError)
                    .answer(
                        question.qname.clone(),
                        ttl,
                        RData::Aaaa(Ipv6Addr::new(
                            0x2001,
                            0xdb8,
                            0x100,
                            0,
                            0,
                            0,
                            0,
                            (h % 65_535 + 1) as u16,
                        )),
                    )
                    .build(),
                RType::Ns => {
                    let cut = zone.minimized_qname(&question.qname);
                    let mut b = MessageBuilder::response(query, Rcode::NoError);
                    for i in 0..2u8 {
                        let ns = cut
                            .child(format!("ns{}", i + 1).as_bytes())
                            .unwrap_or_else(|_| cut.clone());
                        b = b.answer(question.qname.clone(), ttl, RData::Ns(ns));
                    }
                    b.build()
                }
                _ => leaf_nodata(&question.qname),
            }
        }
        Lookup::InZone => leaf_nodata(&question.qname),
        Lookup::NxDomain => {
            let cut = zone.minimized_qname(&question.qname);
            MessageBuilder::response(query, Rcode::NxDomain)
                .authority(cut.clone(), 900, leaf_soa(&cut))
                .build()
        }
    }
}

/// Per-nameserver RTT histograms (`resolver_ns_rtt_us_<server>`) in the
/// global metrics registry, one per dataset server in spec order. Both
/// the offline fleet generator and the live loadgen record into these,
/// so `/metrics` and `/flight.json` show the same series either way.
pub fn ns_rtt_histograms(servers: &[ServerSpec]) -> Vec<Arc<Histogram>> {
    servers
        .iter()
        .map(|s| {
            obs::histogram(
                &format!("resolver_ns_rtt_us_{}", metric_label(&s.name)),
                "RTT observed by fleet resolvers toward this nameserver (µs)",
            )
        })
        .collect()
}

/// Fold a server name into the metric-name charset (`[a-z0-9_:]`).
fn metric_label(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// A minimal SOA for leaf-tier negative answers.
fn leaf_soa(cut: &Name) -> RData {
    RData::Soa {
        mname: cut.child(b"ns1").unwrap_or_else(|_| cut.clone()),
        rname: cut.child(b"hostmaster").unwrap_or_else(|_| cut.clone()),
        serial: 2020020801,
        refresh: 3600,
        retry: 600,
        expire: 2_419_200,
        minimum: 900,
    }
}

impl Transport for SimTransport<'_> {
    fn exchange(&mut self, server: IpAddr, query: &Message) -> Exchange {
        if !self.root_zone && (server == ROOT_V4 || server == ROOT_V6) {
            return self.root_referral(query);
        }
        if let Some(si) = self
            .servers
            .iter()
            .position(|s| IpAddr::V4(s.v4) == server || IpAddr::V6(s.v6) == server)
        {
            return self.vantage_exchange(si, server, query);
        }
        self.leaf_exchange(query)
    }

    fn root_servers(&self) -> Vec<IpAddr> {
        let (v4, v6) = self.families();
        if self.root_zone {
            // the vantage *is* the root (B-Root datasets): priming goes
            // straight to the recorded servers
            let mut out = Vec::new();
            for s in self.servers {
                if v4 {
                    out.push(IpAddr::V4(s.v4));
                }
                if v6 {
                    out.push(IpAddr::V6(s.v6));
                }
            }
            return out;
        }
        let mut out = Vec::new();
        if v4 {
            out.push(ROOT_V4);
        }
        if v6 {
            out.push(ROOT_V6);
        }
        out
    }
}

/// End-of-run roll-up from one fleet's stream.
#[derive(Debug, Clone, Copy, Default)]
struct FleetSummary {
    cache_hits: u64,
    cache_misses: u64,
    retries: u64,
    timeouts: u64,
    instances: u64,
}

impl FleetSummary {
    fn add(self, o: FleetSummary) -> FleetSummary {
        FleetSummary {
            cache_hits: self.cache_hits + o.cache_hits,
            cache_misses: self.cache_misses + o.cache_misses,
            retries: self.retries + o.retries,
            timeouts: self.timeouts + o.timeouts,
            instances: self.instances + o.instances,
        }
    }
}

/// One fleet's stream of resolver walks: a lane of the slot scheduler.
/// The shared cache and the lazily materialized resolver instances
/// survive across slots, so TTL decay and RTT learning are continuous
/// over the dataset's whole window.
///
/// A demand stream resolves client stimuli until its slot quota of
/// recorded vantage queries is met (the calibrated engine's steering,
/// so Table 4 shares hold by construction). The incident stream runs
/// the incident fleet's resolvers against the cyclically dependent
/// domains for the incident's quota; its persistent cache never helps,
/// because cyclic failures are not cacheable.
struct FleetStream<'a> {
    engine: &'a Engine,
    plan: &'a SlotPlan,
    fi: usize,
    incident: bool,
    shared: SharedCache,
    resolvers: HashMap<usize, IterativeResolver>,
    rtt_hists: &'a [Arc<Histogram>],
}

impl<'a> FleetStream<'a> {
    fn new(
        engine: &'a Engine,
        plan: &'a SlotPlan,
        fi: usize,
        incident: bool,
        rtt_hists: &'a [Arc<Histogram>],
    ) -> FleetStream<'a> {
        FleetStream {
            engine,
            plan,
            fi,
            incident,
            shared: SharedCache::with_capacity(resolver::cache::DEFAULT_CAPACITY),
            resolvers: HashMap::new(),
            rtt_hists,
        }
    }

    /// Hand one stimulus at `t` to a fleet resolver; returns the vantage
    /// queries its walk recorded.
    #[allow(clippy::too_many_arguments)]
    fn resolve(
        &mut self,
        tr: &mut SimTransport<'_>,
        t: SimTime,
        qname: &Name,
        qtype: RType,
        junk: bool,
        qmin: bool,
    ) -> u64 {
        let fleet = &self.engine.fleets()[self.fi];
        let r_idx = fleet.pick(&mut tr.rec.rng);
        let shared = &self.shared;
        let res = self.resolvers.entry(r_idx).or_insert_with(|| {
            let prof = &fleet.resolvers[r_idx];
            let mut r = IterativeResolver::new(ResolverConfig {
                qmin,
                edns_size: prof.edns_size,
                do_bit: prof.do_bit,
                ..Default::default()
            });
            r.attach_shared_cache(shared.clone());
            r.set_log_enabled(false);
            r
        });
        res.set_qmin(qmin);
        res.set_now_micros(t.as_micros());
        tr.begin(r_idx, t, junk);
        let _ = res.resolve(tr, qname, qtype);
        tr.emitted
    }

    fn summary(&self) -> FleetSummary {
        // incident walks are not client demand: their cache lookups stay
        // out of the fleet cache-hit ratio
        let (cache_hits, cache_misses) = match self.incident {
            true => (0, 0),
            false => (self.shared.hits(), self.shared.misses()),
        };
        let mut s = FleetSummary {
            cache_hits,
            cache_misses,
            instances: self.resolvers.len() as u64,
            ..Default::default()
        };
        for r in self.resolvers.values() {
            s.retries += r.stats.retries;
            s.timeouts += r.stats.timeouts;
        }
        s
    }
}

impl Lane for FleetStream<'_> {
    fn produce(&mut self, slot: usize) -> Part {
        let (engine, plan) = (self.engine, self.plan);
        let fleet = &engine.fleets()[self.fi];
        let salt = match self.incident {
            true => INCIDENT_SALT,
            false => FLEET_SALT ^ self.fi as u64,
        };
        let rng = StdRng::seed_from_u64(slice_seed(engine.seed() ^ salt, slot));
        let rrl = engine.spec().rrl.map(RateLimiter::new);
        let mut tr = SimTransport::new(engine, fleet, self.rtt_hists, rng, rrl);
        let qmin = fleet.spec.qmin_active(plan.slot_start(slot));
        if self.incident {
            for incident in &engine.spec().incidents {
                let Some(quota) = plan.incident_quota(incident, slot) else {
                    continue;
                };
                // each resolve call burns several vantage queries on the
                // cycle, so the call cap never binds before the quota
                let (mut done, mut calls) = (0u64, 0u64);
                while done < quota && calls < quota.max(100) {
                    let t = plan.arrival(slot, &mut tr.rec.rng);
                    let (qname, qtype, _) = incident_question(engine, incident, calls);
                    calls += 1;
                    done += self.resolve(&mut tr, t, &qname, qtype, false, qmin);
                }
            }
            return tr.rec.into_part(Vec::new());
        }
        let done = plan.steer(self.fi, slot, |want_junk| {
            let t = plan.arrival(slot, &mut tr.rec.rng);
            let stim = sample_stimulus(
                engine.zone(),
                engine.zipf(),
                engine.junk_gen(),
                &fleet.spec,
                want_junk,
                &mut tr.rec.rng,
            );
            let emitted = self.resolve(&mut tr, t, &stim.qname, stim.qtype, stim.junk, qmin);
            if emitted == 0 {
                // the walk never reached the vantage: demand absorbed
                // by the shared cache (or leaf-only requery)
                tr.rec.stats.cache_hits += 1;
            }
            emitted
        });
        let mut counts = vec![0; self.fi + 1];
        counts[self.fi] = done;
        tr.rec.into_part(counts)
    }
}

impl Engine {
    /// Generate the dataset with the *algorithmic* resolver fleet: every
    /// record is produced by an [`IterativeResolver`] walking the
    /// three-tier [`SimTransport`], with only the vantage tier recorded.
    ///
    /// Each fleet's stream, plus the incident stream, is one lane of the
    /// slot scheduler the calibrated engine uses. A stream is stateful
    /// across slots (shared cache, RTT learning), so `workers` stripes
    /// whole streams across threads while the merger reassembles slots
    /// in order. Output is byte-identical for any worker count.
    pub fn generate_fleet<S: RecordSink>(
        &self,
        out: &mut S,
        workers: usize,
    ) -> std::io::Result<DatasetStats> {
        let plan = SlotPlan::new(self);
        // fleet observability: per-nameserver RTT histograms plus
        // cache/retry/timeout roll-ups published at the end
        let rtt_hists = ns_rtt_histograms(&self.spec().servers);
        let nfleets = self.fleets().len();
        let mut lanes: Vec<FleetStream> = (0..nfleets)
            .map(|fi| FleetStream::new(self, &plan, fi, false, &rtt_hists))
            .collect();
        lanes.push(FleetStream::new(
            self,
            &plan,
            self.incident_fleet(),
            true,
            &rtt_hists,
        ));
        let workers = workers.clamp(1, nfleets.max(1));
        let (mut stats, lanes) = run_lanes(self, "simnet.fleet", lanes, workers, out)?;

        let summary = lanes
            .iter()
            .map(FleetStream::summary)
            .fold(FleetSummary::default(), FleetSummary::add);
        stats.cache_hits = stats.cache_hits.max(summary.cache_hits);
        let lookups = summary.cache_hits + summary.cache_misses;
        obs::gauge(
            "resolver_fleet_cache_hit_ratio",
            "shared-cache hit ratio across all fleet resolvers",
        )
        .set(if lookups == 0 {
            0.0
        } else {
            summary.cache_hits as f64 / lookups as f64
        });
        obs::gauge(
            "resolver_fleet_instances",
            "resolver instances materialized across all fleets",
        )
        .set(summary.instances as f64);
        obs::counter(
            "resolver_retries_total",
            "fleet resolver query retransmissions",
        )
        .add(summary.retries);
        obs::counter(
            "resolver_timeouts_total",
            "fleet resolver exchanges that timed out",
        )
        .add(summary.timeouts);
        stats.publish();
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Vantage;
    use crate::scenario::{dataset, monthly_google, Scale};
    use netbase::capture::{CaptureReader, CaptureRecord, CaptureWriter, Direction};
    use netbase::flow::Transport as FlowTransport;

    fn generate_fleet_capture(
        spec: crate::scenario::DatasetSpec,
        seed: u64,
        workers: usize,
    ) -> (Engine, Vec<CaptureRecord>, DatasetStats) {
        let engine = Engine::new(spec, Scale::tiny(), seed);
        let mut buf = Vec::new();
        let stats = {
            let mut w = CaptureWriter::new(&mut buf).unwrap();
            let s = engine.generate_fleet(&mut w, workers).unwrap();
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
    fn fleet_volume_tracks_scaled_target() {
        let (engine, records, stats) = generate_fleet_capture(dataset(Vantage::Nl, 2020), 42, 2);
        let target = engine.scaled_total();
        assert!(
            stats.queries as f64 >= target as f64 * 0.95,
            "target {target}, got {}",
            stats.queries
        );
        assert!(
            (stats.queries as f64) < target as f64 * 1.3,
            "target {target}, got {}",
            stats.queries
        );
        assert_eq!(stats.queries + stats.responses, records.len() as u64);
        assert_eq!(
            stats.queries, stats.responses,
            "no RRL: every query answered"
        );
    }

    #[test]
    fn fleet_payloads_parse_and_target_dataset_servers() {
        let (engine, records, _) = generate_fleet_capture(dataset(Vantage::Nl, 2020), 42, 2);
        let servers: Vec<IpAddr> = engine
            .spec()
            .servers
            .iter()
            .flat_map(|s| [IpAddr::V4(s.v4), IpAddr::V6(s.v6)])
            .collect();
        for rec in &records {
            let wire = match rec.flow.transport {
                FlowTransport::Tcp => {
                    let mut msgs = dns_wire::tcp::deframe_all(&rec.payload).expect("framed");
                    assert_eq!(msgs.len(), 1);
                    msgs.remove(0)
                }
                FlowTransport::Udp => rec.payload.clone(),
            };
            let msg = Message::parse(&wire).expect("wire-valid payloads");
            match rec.direction {
                Direction::Query => {
                    assert!(!msg.header.response);
                    assert!(servers.contains(&rec.flow.dst), "only vantage recorded");
                }
                Direction::Response => {
                    assert!(msg.header.response);
                    assert!(servers.contains(&rec.flow.src));
                }
            }
        }
    }

    #[test]
    fn fleet_deterministic_for_any_worker_count() {
        let run = |workers: usize| {
            let engine = Engine::new(dataset(Vantage::Nl, 2020), Scale::tiny(), 7);
            let mut buf = Vec::new();
            let mut w = CaptureWriter::new(&mut buf).unwrap();
            engine.generate_fleet(&mut w, workers).unwrap();
            w.finish().unwrap();
            buf
        };
        let one = run(1);
        assert_eq!(one, run(3), "worker count must not change output");
        assert_eq!(one, run(8));
    }

    #[test]
    fn fleet_shares_emerge_close_to_table_4() {
        let (engine, _, stats) = generate_fleet_capture(dataset(Vantage::Nl, 2019), 42, 2);
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

    #[test]
    fn qmin_flip_emerges_from_the_algorithm() {
        // Google's fleet: Nov 2019 (Q-min off) vs Jan 2020 (Q-min on).
        // The client stimulus distribution is identical in both months;
        // only IterativeResolver::set_qmin differs — so a jump in the
        // vantage NS share is the resolver algorithm's own signature.
        let ns_share = |year: i32, month: u32| {
            let (_, records, _) =
                generate_fleet_capture(monthly_google(Vantage::Nl, year, month), 11, 2);
            let mut ns = 0usize;
            let mut total = 0usize;
            for rec in records.iter().filter(|r| r.direction == Direction::Query) {
                let wire = match rec.flow.transport {
                    FlowTransport::Tcp => {
                        dns_wire::tcp::deframe_all(&rec.payload).unwrap().remove(0)
                    }
                    FlowTransport::Udp => rec.payload.clone(),
                };
                let msg = Message::parse(&wire).unwrap();
                total += 1;
                if msg.question().unwrap().qtype == RType::Ns {
                    ns += 1;
                }
            }
            ns as f64 / total as f64
        };
        let pre = ns_share(2019, 11);
        let post = ns_share(2020, 1);
        assert!(pre < 0.15, "pre-flip NS share {pre}");
        assert!(post > 0.30, "post-flip NS share {post}");
    }

    #[test]
    fn incident_surges_fleet_traffic() {
        let feb = {
            let (_, _, stats) = generate_fleet_capture(monthly_google(Vantage::Nz, 2020, 2), 9, 2);
            stats.queries
        };
        let jan = {
            let (_, _, stats) = generate_fleet_capture(monthly_google(Vantage::Nz, 2020, 1), 9, 2);
            stats.queries
        };
        assert!(
            feb as f64 > jan as f64 * 1.3,
            "cyclic incident must surge: feb {feb} vs jan {jan}"
        );
    }

    #[test]
    fn absorption_comes_from_shared_caches() {
        let (_, _, stats) = generate_fleet_capture(dataset(Vantage::Nl, 2020), 42, 2);
        assert!(stats.cache_hits > 0, "hot names must be absorbed");
    }
}
