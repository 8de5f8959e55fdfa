//! Closed-loop load generator: calibrated replay or a live resolver
//! fleet, over one vantage client.
//!
//! Each worker thread owns one vantage client and runs one loop: until
//! the stop rule fires, take one step of its share of the query source.
//! There are two sources:
//!
//! - **calibrated** (`resolvers: None`): the workers share one
//!   [`simnet::drive::Driver`] behind a mutex; a step sends the next
//!   planned query — drawn from the same fleet materialization, qtype
//!   mixes, Q-min schedule, EDNS sizes and cache model the offline
//!   engine uses.
//! - **fleet** (`resolvers: Some(n)`): n [`IterativeResolver`] lanes,
//!   assigned to fleets by traffic share and dealt round-robin to the
//!   workers; a step resolves one client stimulus
//!   ([`sample_stimulus`]) on the worker's next lane. The walk's root
//!   and leaf tiers are answered in-process by [`Tiers`]; only vantage
//!   queries reach the client, with the offline [`vantage_draws`]
//!   (0x20 case mixing, direct TCP). It is the resolver code the
//!   offline fleet engine ([`simnet::emerge`]) runs: Q-min flips on
//!   the provider rollout date, one shared cache per fleet absorbs
//!   repeat demand, and the RTT selector learns measured latencies.
//!
//! The client prefixes every query with a [`Preamble`] carrying the
//! logical resolver/server addresses, so the server's capture tap
//! attributes traffic the way the offline analyzer expects. It drops
//! UDP replies whose DNS id is not the query's (stragglers from an
//! earlier timed-out exchange) and retries truncated (TC=1) answers
//! over TCP, as a real resolver does.

use crate::proxy::Preamble;
use crate::signal;
use crate::stats::Stats;
use dns_wire::message::Message;
use dns_wire::tcp::frame;
use netbase::flow::IpVersion;
use netbase::time::{SimDuration, SimTime};
use obs::{Gauge, Histogram};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use resolver::{Exchange, IterativeResolver, SharedCache, Transport};
use simnet::drive::Driver;
use simnet::emerge::{
    fleet_resolver, ns_rtt_histograms, sample_stimulus, vantage_draws, Tier, Tiers,
};
use simnet::engine::Engine;
use simnet::scenario::{DatasetSpec, Scale};
use std::io::{self, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-exchange response timeout.
const TIMEOUT: Duration = Duration::from_millis(500);

/// Nominal RTT credited to in-process root/leaf tiers (µs); only feeds
/// the resolver's per-host EWMA, never a capture record.
const SYNTH_TIER_RTT_US: u32 = 2_000;

/// Load generator parameters.
pub struct LoadgenConfig {
    /// Dataset whose fleets drive the traffic.
    pub spec: DatasetSpec,
    /// Fleet scale factor.
    pub scale: Scale,
    /// Seed — must match the analyzer's seed for live/offline parity.
    pub seed: u64,
    /// Server's UDP endpoint.
    pub server_udp: SocketAddr,
    /// Server's TCP endpoint.
    pub server_tcp: SocketAddr,
    /// Closed-loop worker threads.
    pub workers: usize,
    /// Run this many concurrent resolver instances (the fleet source)
    /// instead of replaying the calibrated driver.
    pub resolvers: Option<usize>,
    /// Stop after this many vantage sends, TCP retries included
    /// (None = unbounded). Workers start no new step once it is
    /// reached and finish the one in flight, so a run overshoots by at
    /// most what `workers` steps send: two per calibrated query (UDP
    /// plus a TCP retry), up to two per exchange of a fleet walk.
    pub max_queries: Option<u64>,
    /// Stop after this long (None = unbounded).
    pub duration: Option<Duration>,
}

impl LoadgenConfig {
    /// Calibrated replay with 4 workers and no stop condition.
    pub fn new(
        spec: DatasetSpec,
        scale: Scale,
        seed: u64,
        server_udp: SocketAddr,
        server_tcp: SocketAddr,
    ) -> LoadgenConfig {
        LoadgenConfig {
            spec,
            scale,
            seed,
            server_udp,
            server_tcp,
            workers: 4,
            resolvers: None,
            max_queries: None,
            duration: None,
        }
    }
}

/// What a load-generation run did.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadgenReport {
    /// Vantage queries sent, TCP retries included.
    pub sent: u64,
    /// Responses received and parsed.
    pub received: u64,
    /// Exchanges that timed out (includes RRL-dropped responses).
    pub timeouts: u64,
    /// TC=1 answers retried over TCP.
    pub tcp_fallbacks: u64,
    /// Wall-clock run time.
    pub elapsed: Duration,
    /// Fleet source: client stimuli handed to resolvers (0 otherwise).
    pub stimuli: u64,
    /// Fleet source: shared-cache hit ratio across all fleets.
    pub cache_hit_ratio: f64,
    /// Fleet source: resolver-level retransmissions.
    pub resolver_retries: u64,
    /// Fleet source: timeouts seen by the resolvers' walk state
    /// machines.
    pub resolver_timeouts: u64,
}

/// Run the closed loop until a stop condition (send count, duration, or
/// SIGINT via [`signal::triggered`]) is hit; workers finish their
/// in-flight step before returning.
pub fn run_loadgen(config: &LoadgenConfig, stats: &Stats) -> io::Result<LoadgenReport> {
    stats.publish("authd_loadgen");
    let fleet = match config.resolvers {
        Some(n) => Some(LiveFleet::new(
            Engine::new(config.spec.clone(), config.scale, config.seed),
            n.max(1),
        )?),
        None => None,
    };
    let driver;
    let works: Vec<Work> = match &fleet {
        Some(fleet) => fleet.deal(config.workers, config.seed),
        None => {
            driver = Mutex::new(Driver::new(config.spec.clone(), config.scale, config.seed));
            (0..config.workers.max(1))
                .map(|_| Work::Replay(&driver))
                .collect()
        }
    };
    let rtt_hists = ns_rtt_histograms(&config.spec.servers);
    let clients = (0..works.len())
        .map(|w| Client::new(config, stats, &rtt_hists, w))
        .collect::<io::Result<Vec<_>>>()?;

    let started = Instant::now();
    let deadline = config.duration.map(|d| started + d);
    let stopped = || {
        signal::triggered()
            || deadline.is_some_and(|d| Instant::now() >= d)
            || config.max_queries.is_some_and(|m| stats.sent.get() >= m)
    };
    let now = || config.spec.start + SimDuration::from_micros(started.elapsed().as_micros() as u64);
    let (stopped, now) = (&stopped, &now);
    let works: Vec<Work> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(works)
            .map(|(mut client, mut work)| {
                s.spawn(move || {
                    while !stopped() {
                        work.step(&mut client, now());
                    }
                    work
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen workers do not panic"))
            .collect()
    });

    let mut report = LoadgenReport {
        sent: stats.sent.get(),
        received: stats.responses.get(),
        timeouts: stats.timeouts.get(),
        tcp_fallbacks: stats.tcp_fallbacks.get(),
        elapsed: started.elapsed(),
        ..LoadgenReport::default()
    };
    if let Some(fleet) = &fleet {
        fleet.finish(&works, &mut report);
    }
    Ok(report)
}

/// One worker's share of the query source.
enum Work<'a> {
    /// Send the next planned query from the shared calibrated driver.
    Replay(&'a Mutex<Driver>),
    /// Resolve one stimulus on the next of this worker's lanes.
    Fleet {
        fleet: &'a LiveFleet,
        lanes: Vec<Lane>,
        next: usize,
        /// The 0x20 and direct-TCP draws.
        draws: StdRng,
    },
}

impl Work<'_> {
    fn step(&mut self, client: &mut Client, now: SimTime) {
        match self {
            Work::Replay(driver) => {
                let q = driver
                    .lock()
                    .expect("driver lock: a worker panicked mid-sample")
                    .sample(now);
                client.exchange(&q.wire, q.src, q.dst, q.tcp_direct);
            }
            Work::Fleet {
                fleet,
                lanes,
                next,
                draws,
            } => {
                let i = *next;
                *next = (i + 1) % lanes.len();
                fleet.resolve(&mut lanes[i], client, draws, now);
            }
        }
    }
}

/// One resolver lane: a persistent resolver instance bound to one
/// materialized fleet member.
struct Lane {
    fleet: usize,
    resolver_idx: usize,
    resolver: IterativeResolver,
    rng: StdRng,
}

/// What the fleet workers share: the materialized dataset, one cache
/// per fleet (as offline), and the live fleet gauges.
struct LiveFleet {
    engine: Engine,
    resolvers: usize,
    caches: Vec<SharedCache>,
    stimuli: AtomicU64,
    inflight: AtomicI64,
    inflight_gauge: Arc<Gauge>,
    hit_gauge: Arc<Gauge>,
}

impl LiveFleet {
    fn new(engine: Engine, resolvers: usize) -> io::Result<LiveFleet> {
        let nfleets = engine.fleets().len();
        if nfleets == 0 {
            return Err(io::Error::other("dataset has no fleets"));
        }
        Ok(LiveFleet {
            engine,
            resolvers,
            caches: (0..nfleets)
                .map(|_| SharedCache::with_capacity(resolver::cache::DEFAULT_CAPACITY))
                .collect(),
            stimuli: AtomicU64::new(0),
            inflight: AtomicI64::new(0),
            inflight_gauge: obs::gauge(
                "resolver_fleet_inflight",
                "fleet resolver stimuli currently mid-walk at the vantage",
            ),
            hit_gauge: obs::gauge(
                "resolver_fleet_cache_hit_ratio",
                "shared-cache hit ratio across all fleet resolvers",
            ),
        })
    }

    /// Materialize the resolver lanes and deal them round-robin to at
    /// most `workers` workers. Lane i of n takes the fleet whose
    /// cumulative traffic share covers (i + 0.5) / n.
    fn deal(&self, workers: usize, seed: u64) -> Vec<Work<'_>> {
        let resolvers = self.resolvers;
        let fleets = self.engine.fleets();
        let total_share: f64 = fleets
            .iter()
            .map(|f| f.spec.traffic_share)
            .sum::<f64>()
            .max(f64::MIN_POSITIVE);
        let start = self.engine.spec().start;
        let workers = workers.clamp(1, resolvers);
        let mut works: Vec<Work> = (0..workers)
            .map(|w| Work::Fleet {
                fleet: self,
                lanes: Vec::new(),
                next: 0,
                draws: StdRng::seed_from_u64(seed ^ 0x0d2a_5e7c ^ w as u64),
            })
            .collect();
        for i in 0..resolvers {
            let point = (i as f64 + 0.5) / resolvers as f64 * total_share;
            let mut acc = 0.0;
            let fi = fleets
                .iter()
                .position(|f| {
                    acc += f.spec.traffic_share;
                    point <= acc
                })
                .unwrap_or(fleets.len() - 1);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xf1ee_0000 ^ i as u64);
            let fleet = &fleets[fi];
            let resolver_idx = fleet.pick(&mut rng);
            let resolver = fleet_resolver(
                &fleet.resolvers[resolver_idx],
                fleet.spec.qmin_active(start),
                &self.caches[fi],
            );
            if let Work::Fleet { lanes, .. } = &mut works[i % workers] {
                lanes.push(Lane {
                    fleet: fi,
                    resolver_idx,
                    resolver,
                    rng,
                });
            }
        }
        obs::gauge(
            "resolver_fleet_instances",
            "resolver instances materialized across all fleets",
        )
        .set(resolvers as f64);
        works
    }

    /// Hand one client stimulus to `lane`'s resolver and let it walk.
    fn resolve(&self, lane: &mut Lane, client: &mut Client, draws: &mut StdRng, now: SimTime) {
        let fleet = &self.engine.fleets()[lane.fleet];
        let is_junk = lane.rng.gen_bool(fleet.spec.junk_ratio.clamp(0.0, 1.0));
        let stim = sample_stimulus(
            self.engine.zone(),
            self.engine.zipf(),
            self.engine.junk_gen(),
            &fleet.spec,
            is_junk,
            &mut lane.rng,
        );
        if self
            .stimuli
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(128)
        {
            // keep the hit-ratio gauge live for mid-run /metrics and
            // /flight scrapes
            self.hit_gauge.set(self.hit_ratio());
        }
        lane.resolver.set_qmin(fleet.spec.qmin_active(now));
        lane.resolver.set_now_micros(now.as_micros());
        let mut tr = FleetTransport {
            fleet: self,
            tiers: Tiers::new(&self.engine),
            spec: &fleet.spec,
            profile: &fleet.resolvers[lane.resolver_idx],
            client,
            draws,
        };
        let _ = lane.resolver.resolve(&mut tr, &stim.qname, stim.qtype);
    }

    fn hit_ratio(&self) -> f64 {
        let hits: u64 = self.caches.iter().map(|c| c.hits()).sum();
        let misses: u64 = self.caches.iter().map(|c| c.misses()).sum();
        match hits + misses {
            0 => 0.0,
            lookups => hits as f64 / lookups as f64,
        }
    }

    /// Fill the fleet tallies into `report` and publish the end-of-run
    /// fleet metrics.
    fn finish(&self, works: &[Work], report: &mut LoadgenReport) {
        for work in works {
            if let Work::Fleet { lanes, .. } = work {
                for lane in lanes {
                    report.resolver_retries += lane.resolver.stats.retries;
                    report.resolver_timeouts += lane.resolver.stats.timeouts;
                }
            }
        }
        report.stimuli = self.stimuli.load(Ordering::Relaxed);
        report.cache_hit_ratio = self.hit_ratio();
        self.hit_gauge.set(report.cache_hit_ratio);
        self.inflight_gauge.set(0.0);
        obs::counter(
            "resolver_retries_total",
            "fleet resolver query retransmissions",
        )
        .add(report.resolver_retries);
        obs::counter(
            "resolver_timeouts_total",
            "fleet resolver exchanges that timed out",
        )
        .add(report.resolver_timeouts);
    }
}

/// A fleet resolver's transport for one walk: root and leaf answered
/// in-process by [`Tiers`], the vantage through the worker's client.
struct FleetTransport<'w, 'c> {
    fleet: &'w LiveFleet,
    tiers: Tiers<'w>,
    spec: &'w simnet::FleetSpec,
    profile: &'w simnet::fleet::Resolver,
    client: &'w mut Client<'c>,
    draws: &'w mut StdRng,
}

impl FleetTransport<'_, '_> {
    fn vantage(&mut self, dst: IpAddr, query: &Message) -> Exchange {
        let src = self.profile.addr_for(IpVersion::of(dst));
        let (mixed, tcp_direct) = query.question().map_or((None, false), |q| {
            vantage_draws(self.spec, self.profile, &q.qname, self.draws)
        });
        let wire = match mixed {
            Some(qname) => {
                let mut q = query.clone();
                q.questions[0].qname = qname;
                q.encode()
            }
            None => query.encode(),
        };
        let Ok(wire) = wire else {
            return Exchange::Timeout;
        };
        let inflight = &self.fleet.inflight;
        let gauge = &self.fleet.inflight_gauge;
        gauge.set((inflight.fetch_add(1, Ordering::Relaxed) + 1) as f64);
        let answer = self.client.exchange(&wire, src, dst, tcp_direct);
        gauge.set((inflight.fetch_sub(1, Ordering::Relaxed) - 1) as f64);
        match answer {
            Some((message, rtt_us)) => Exchange::Answer { message, rtt_us },
            None => Exchange::Timeout,
        }
    }
}

impl Transport for FleetTransport<'_, '_> {
    fn exchange(&mut self, server: IpAddr, query: &Message) -> Exchange {
        let message = match self.tiers.route(server) {
            Tier::Root => self.tiers.root_referral(self.profile, query),
            Tier::Vantage(_) => return self.vantage(server, query),
            Tier::Leaf => self.tiers.leaf_answer(self.spec, query),
        };
        Exchange::Answer {
            message,
            rtt_us: SYNTH_TIER_RTT_US,
        }
    }

    fn root_servers(&self) -> Vec<IpAddr> {
        self.tiers.root_servers(self.profile)
    }
}

/// One worker's vantage client: a UDP socket toward the server, the
/// worker's own source-port draws, and the latency/RTT histograms.
struct Client<'a> {
    config: &'a LoadgenConfig,
    stats: &'a Stats,
    rtt_hists: &'a [Arc<Histogram>],
    sock: UdpSocket,
    buf: Vec<u8>,
    ports: StdRng,
}

impl<'a> Client<'a> {
    fn new(
        config: &'a LoadgenConfig,
        stats: &'a Stats,
        rtt_hists: &'a [Arc<Histogram>],
        worker: usize,
    ) -> io::Result<Client<'a>> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        sock.set_read_timeout(Some(TIMEOUT))?;
        Ok(Client {
            config,
            stats,
            rtt_hists,
            sock,
            buf: vec![0u8; 65_535],
            ports: StdRng::seed_from_u64(config.seed ^ 0x5eed_9097 ^ worker as u64),
        })
    }

    /// One vantage exchange of the encoded query `wire` on the logical
    /// flow `src` → `dst`: over UDP with a TCP retry on TC=1, or over
    /// TCP outright. Returns the answer and its measured RTT (µs), or
    /// None when no answer arrived.
    fn exchange(
        &mut self,
        wire: &[u8],
        src: IpAddr,
        dst: IpAddr,
        tcp_direct: bool,
    ) -> Option<(Message, u32)> {
        let src = SocketAddr::new(src, self.ports.gen_range(1024..u16::MAX));
        let dst = SocketAddr::new(dst, 53);
        self.stats.bump(&self.stats.sent);
        let answer = if tcp_direct {
            self.tcp(wire, src, dst)
        } else {
            match self.udp(wire, src, dst) {
                Some((msg, _)) if msg.header.truncated => {
                    // the TCP proof-of-path: retry the same question
                    self.stats.bump(&self.stats.tcp_fallbacks);
                    self.stats.bump(&self.stats.sent);
                    self.tcp(wire, src, dst)
                }
                other => other,
            }
        };
        if answer.is_none() {
            self.stats.bump(&self.stats.timeouts);
        }
        answer
    }

    fn udp(&mut self, wire: &[u8], src: SocketAddr, dst: SocketAddr) -> Option<(Message, u32)> {
        let mut datagram = Preamble {
            src,
            dst,
            rtt_us: 0,
        }
        .encode();
        datagram.extend_from_slice(wire);
        // the DNS header's id, which the answer must echo
        let id = u16::from_be_bytes([wire[0], wire[1]]);
        let sent_at = Instant::now();
        self.sock.send_to(&datagram, self.config.server_udp).ok()?;
        loop {
            // a read timeout, or an RRL drop that looks identical to one
            let n = self.sock.recv(&mut self.buf).ok()?;
            match Message::parse(&self.buf[..n]) {
                Ok(msg) if msg.header.id == id => return Some((msg, self.answered(sent_at, dst))),
                // a straggler from an earlier timed-out exchange
                Ok(_) => {}
                Err(_) => self.stats.bump(&self.stats.malformed),
            }
            if sent_at.elapsed() >= TIMEOUT {
                return None;
            }
        }
    }

    /// One query/response over a fresh TCP connection.
    fn tcp(&mut self, wire: &[u8], src: SocketAddr, dst: SocketAddr) -> Option<(Message, u32)> {
        let connect_at = Instant::now();
        let mut stream = TcpStream::connect_timeout(&self.config.server_tcp, TIMEOUT).ok()?;
        let rtt_us = connect_at.elapsed().as_micros().max(1) as u32;
        stream.set_read_timeout(Some(TIMEOUT)).ok()?;
        let _ = stream.set_nodelay(true);
        let mut out = Preamble { src, dst, rtt_us }.encode();
        out.extend_from_slice(&frame(wire).ok()?);
        stream.write_all(&out).ok()?;
        let sent_at = Instant::now();
        let mut len = [0u8; 2];
        stream.read_exact(&mut len).ok()?;
        let mut body = vec![0u8; u16::from_be_bytes(len) as usize];
        stream.read_exact(&mut body).ok()?;
        let rtt = self.answered(sent_at, dst);
        match Message::parse(&body) {
            Ok(msg) => Some((msg, rtt)),
            Err(_) => {
                self.stats.bump(&self.stats.malformed);
                None
            }
        }
    }

    /// Count an answer and record its latency, overall and toward its
    /// nameserver; returns the latency in µs.
    fn answered(&self, sent_at: Instant, dst: SocketAddr) -> u32 {
        let us = sent_at.elapsed().as_micros().max(1) as u64;
        self.stats.latency.record(us);
        self.stats.bump(&self.stats.responses);
        let ns = self
            .config
            .spec
            .servers
            .iter()
            .position(|s| IpAddr::V4(s.v4) == dst.ip() || IpAddr::V6(s.v6) == dst.ip());
        if let Some(h) = ns.and_then(|si| self.rtt_hists.get(si)) {
            h.record(us);
        }
        us.min(u32::MAX as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dns_wire::builder::MessageBuilder;
    use dns_wire::types::{RType, Rcode};
    use simnet::profile::Vantage;
    use simnet::scenario::dataset;

    /// A late reply to an earlier query must not pass for the current
    /// query's answer: the client skips the wrong-id datagram (here
    /// with TC=1, which would otherwise trigger a TCP retry) and
    /// returns the matching one.
    #[test]
    fn client_drops_replies_with_another_id() {
        let stub = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = stub.local_addr().unwrap();
        let spec = dataset(Vantage::Nl, 2020);
        let server = IpAddr::V4(spec.servers[0].v4);
        // no TCP listener behind `addr`: a TCP retry would fail
        let config = LoadgenConfig::new(spec, Scale::tiny(), 7, addr, addr);
        let query = MessageBuilder::query(0x1234, "example.nl".parse().unwrap(), RType::A).build();
        let wire = query.encode().unwrap();
        let replier = std::thread::spawn(move || {
            let mut buf = [0u8; 1024];
            let (n, from) = stub.recv_from(&mut buf).unwrap();
            let (_, skip) = Preamble::parse(&buf[..n]).expect("preamble first");
            let asked = Message::parse(&buf[skip..n]).unwrap();
            let mut stale = MessageBuilder::response(&asked, Rcode::NoError).build();
            stale.header.id = asked.header.id.wrapping_add(1);
            stale.header.truncated = true;
            let answer = MessageBuilder::response(&asked, Rcode::NoError).build();
            for reply in [stale, answer] {
                stub.send_to(&reply.encode().unwrap(), from).unwrap();
            }
        });

        let stats = Stats::new();
        let mut client = Client::new(&config, &stats, &[], 0).unwrap();
        let src = IpAddr::V4(std::net::Ipv4Addr::new(192, 0, 2, 1));
        let (answer, _) = client
            .exchange(&wire, src, server, false)
            .expect("the matching reply arrives");
        replier.join().unwrap();
        assert_eq!(answer.header.id, 0x1234);
        assert!(!answer.header.truncated);
        assert_eq!(stats.responses.get(), 1);
        assert_eq!(stats.sent.get(), 1);
        assert_eq!(stats.tcp_fallbacks.get(), 0);
        assert_eq!(stats.timeouts.get(), 0);
    }
}
