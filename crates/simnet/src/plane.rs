//! The offline traffic plane: everything between "a resolver sends a
//! query" and "the capture holds it", shared by the calibrated generator
//! ([`Engine::generate_sharded`]) and the emergent resolver fleet
//! ([`Engine::generate_fleet`]). The two differ only in *what* is asked
//! and *which* resolver asks; both write the vantage capture through:
//!
//! - [`outgoing`]: the resolver half of an exchange (server and family
//!   choice, 0x20 mixing, id, EDNS, the direct-TCP draw);
//! - [`Recorder`]: the vantage half (UDP under the EDNS limit, RRL
//!   respond/slip/drop, TC=1 → TCP retry, one TCP pair writer);
//! - [`SlotPlan`]: the hourly slot weights, per-fleet quotas and the
//!   junk lattice;
//! - [`run_lanes`]: the slot scheduler that runs stateful lanes on
//!   worker threads and merges each slot's parts in lane order.

use crate::auth::ServerSpec;
use crate::engine::{
    choose_server_family, diurnal_weight, mix_case_0x20, name_key, DatasetStats, Engine,
};
use crate::fleet::Resolver;
use crate::profile::FleetSpec;
use crate::rrl::{RateLimiter, ResponseClass, RrlAction};
use crate::scenario::Incident;
use dns_wire::builder::MessageBuilder;
use dns_wire::message::Message;
use dns_wire::name::Name;
use dns_wire::types::{RType, Rcode};
use netbase::capture::{CaptureRecord, Direction, RecordSink};
use netbase::flow::{FlowKey, IpVersion, Transport};
use netbase::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use std::net::IpAddr;

/// One hourly slot, microseconds.
const SLOT_US: u64 = 3_600_000_000;

/// Who talks to whom at the vantage, and over what round trip.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Path {
    pub src: IpAddr,
    pub dst: IpAddr,
    pub rtt_us: u32,
}

/// A resolver's query, ready for the vantage.
pub(crate) struct Outgoing {
    pub path: Path,
    /// The query as sent: 0x20-mixed name, fresh id, the resolver's EDNS.
    pub query: Message,
    /// The resolver sends this one over TCP outright.
    pub tcp_direct: bool,
}

/// The resolver half of one exchange for the calibrated generator and
/// the live driver. RNG draws, in order: server/family, 0x20 case
/// mixing, id, direct TCP.
pub(crate) fn outgoing(
    servers: &[ServerSpec],
    spec: &FleetSpec,
    resolver: &Resolver,
    qname: &Name,
    qtype: RType,
    rng: &mut StdRng,
) -> Outgoing {
    let (server, family) = choose_server_family(spec, resolver, servers.len(), rng);
    let src = resolver.addr_for(family);
    let dst = match family {
        IpVersion::V4 => IpAddr::V4(servers[server].v4),
        IpVersion::V6 => IpAddr::V6(servers[server].v6),
    };
    let rtt_us = resolver.rtt_us(server, family);
    let wire_qname = if resolver.mix_case {
        mix_case_0x20(qname, rng)
    } else {
        qname.clone()
    };
    let mut builder = MessageBuilder::query(rng.gen(), wire_qname, qtype);
    if resolver.edns_size > 0 {
        builder = builder.with_edns(resolver.edns_size, resolver.do_bit);
    }
    Outgoing {
        path: Path { src, dst, rtt_us },
        query: builder.build(),
        tcp_direct: tcp_direct(spec, resolver, rng),
    }
}

/// The per-site (else per-fleet) direct-TCP draw (Table 5): resolvers
/// probing TCP reachability send some queries over TCP outright.
pub(crate) fn tcp_direct(spec: &FleetSpec, resolver: &Resolver, rng: &mut StdRng) -> bool {
    let p = spec
        .sites
        .get(resolver.site as usize)
        .and_then(|s| s.tcp_extra)
        .unwrap_or(spec.tcp_extra);
    p > 0.0 && rng.gen_bool(p)
}

/// How the vantage answered one recorded exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// Straight over TCP.
    Tcp,
    /// Over UDP, whole or truncated to the EDNS limit without TC=1.
    Udp,
    /// Over UDP with TC=1 (truncation or an RRL slip), then retried over
    /// TCP.
    Retried,
    /// RRL dropped the UDP response: the query went unanswered.
    Dropped,
}

impl Delivery {
    /// Query records this exchange wrote.
    pub fn queries(self) -> u64 {
        match self {
            Delivery::Retried => 2,
            _ => 1,
        }
    }
}

/// The vantage recorder of one time slice: owns the slice's RNG stream,
/// RRL state, record buffer and counters, and turns each exchange into
/// capture records.
pub(crate) struct Recorder {
    pub rng: StdRng,
    rrl: Option<RateLimiter>,
    pub records: Vec<CaptureRecord>,
    pub stats: DatasetStats,
}

impl Recorder {
    /// A recorder drawing from `rng`, rate-limiting with `rrl` if set.
    pub fn new(rng: StdRng, rrl: Option<RateLimiter>) -> Recorder {
        Recorder {
            rng,
            rrl,
            records: Vec::new(),
            stats: DatasetStats::default(),
        }
    }

    /// Record one exchange at time `t`: `query` as the resolver sent it
    /// and `response` as the vantage answers it (same id and question).
    /// RNG draws, in order: over TCP jitter and port; over UDP port, then
    /// on TC=1 the retry id, jitter and port.
    pub fn exchange(
        &mut self,
        query: &Message,
        response: &Message,
        path: Path,
        t: SimTime,
        tcp_direct: bool,
    ) -> Delivery {
        let query_wire = query.encode().expect("queries encode");
        if tcp_direct {
            let resp_wire = response.encode().expect("responses encode");
            self.tcp_pair(query_wire, resp_wire, path, t);
            return Delivery::Tcp;
        }

        let limit = query
            .edns
            .as_ref()
            .map_or(512, |e| usize::from(e.udp_payload_size).max(512));
        // Response Rate Limiting at the authoritative (§4.4): under
        // pressure, a response may be replaced by a TC=1 slip (forcing
        // the TCP proof-of-path) or silently dropped.
        let action = match &mut self.rrl {
            Some(limiter) => {
                let class = match response.header.rcode {
                    Rcode::NoError => {
                        ResponseClass::Positive(query.question().map_or(0, |q| name_key(&q.qname)))
                    }
                    Rcode::NxDomain => ResponseClass::Negative,
                    _ => ResponseClass::Error,
                };
                limiter.check(path.src, class, t)
            }
            None => RrlAction::Respond,
        };
        let (resp_wire, truncated) = match action {
            RrlAction::Respond => response
                .encode_with_limit(limit)
                .expect("responses always fit after truncation"),
            RrlAction::Slip => {
                self.stats.rrl_slips += 1;
                let mut slip = response.clone();
                slip.answers.clear();
                slip.authorities.clear();
                slip.additionals.clear();
                slip.header.truncated = true;
                (slip.encode().expect("slip encodes"), true)
            }
            RrlAction::Drop => {
                self.stats.rrl_drops += 1;
                (Vec::new(), false)
            }
        };
        let flow = self.flow(path, Transport::Udp);
        let retry_query = truncated.then(|| query_wire.clone());
        self.push(t, Direction::Query, flow, 0, query_wire);
        self.stats.queries += 1;
        if action == RrlAction::Drop {
            return Delivery::Dropped;
        }
        let answered = t + SimDuration::from_micros(path.rtt_us as u64);
        self.push(answered, Direction::Response, flow.reversed(), 0, resp_wire);
        self.stats.responses += 1;
        let Some(mut retry_query) = retry_query else {
            return Delivery::Udp;
        };
        // TC=1: retry over TCP as a fresh transaction. The answer is the
        // full response under the retry's id.
        self.stats.truncated_udp += 1;
        let id: u16 = self.rng.gen();
        let mut retry_resp = response.encode().expect("responses encode");
        set_id(&mut retry_query, id);
        set_id(&mut retry_resp, id);
        let retry_at = answered + SimDuration::from_micros(2000);
        self.tcp_pair(retry_query, retry_resp, path, retry_at);
        Delivery::Retried
    }

    /// Write a TCP query/response pair carrying the measured handshake
    /// RTT (what the paper's Figure 5 derives its medians from).
    fn tcp_pair(&mut self, query_wire: Vec<u8>, resp_wire: Vec<u8>, path: Path, t: SimTime) {
        // the capture box measures SYN->SYNACK with small kernel jitter
        let measured = (path.rtt_us as f64 * self.rng.gen_range(0.97..1.03)) as u32;
        let flow = self.flow(path, Transport::Tcp);
        let rtt = SimDuration::from_micros(path.rtt_us as u64);
        let after_handshake = t + rtt;
        // DNS-over-TCP frames carry the RFC 1035 two-octet length prefix
        let query = dns_wire::tcp::frame(&query_wire).expect("queries fit TCP");
        let resp = dns_wire::tcp::frame(&resp_wire).expect("responses fit TCP");
        self.push(after_handshake, Direction::Query, flow, measured, query);
        self.push(
            after_handshake + rtt,
            Direction::Response,
            flow.reversed(),
            measured,
            resp,
        );
        self.stats.queries += 1;
        self.stats.responses += 1;
        self.stats.tcp_queries += 1;
    }

    /// A flow from a fresh ephemeral source port.
    fn flow(&mut self, path: Path, transport: Transport) -> FlowKey {
        FlowKey {
            src: path.src,
            src_port: self.rng.gen_range(1024..u16::MAX),
            dst: path.dst,
            dst_port: 53,
            transport,
        }
    }

    fn push(
        &mut self,
        timestamp: SimTime,
        direction: Direction,
        flow: FlowKey,
        tcp_rtt_us: u32,
        payload: Vec<u8>,
    ) {
        self.records.push(CaptureRecord {
            timestamp,
            direction,
            flow,
            tcp_rtt_us,
            payload,
        });
    }

    /// This recorder's output as one lane's part of a slot.
    pub fn into_part(self, fleet_counts: Vec<u64>) -> Part {
        Part {
            records: self.records,
            stats: self.stats,
            fleet_counts,
        }
    }
}

/// Overwrite the DNS id (the first two octets of an encoded message).
fn set_id(wire: &mut [u8], id: u16) {
    wire[..2].copy_from_slice(&id.to_be_bytes());
}

/// The dataset's hourly slot plan: a diurnal/weekly load shape, each
/// fleet's share of the scaled total, and the rounded cumulative quotas
/// that telescope exactly to those targets.
pub(crate) struct SlotPlan {
    start: SimTime,
    cum_weights: Vec<f64>,
    targets: Vec<u64>,
    junk_ratios: Vec<f64>,
    scale_queries: f64,
}

impl SlotPlan {
    pub fn new(engine: &Engine) -> SlotPlan {
        let spec = engine.spec();
        let slots = (spec.days as usize) * 24;
        let weights: Vec<f64> = (0..slots)
            .map(|s| diurnal_weight(spec.start + SimDuration::from_hours(s as u64)))
            .collect();
        let wsum: f64 = weights.iter().sum();
        let mut cum = 0.0;
        let cum_weights = weights
            .iter()
            .map(|w| {
                cum += w;
                cum / wsum
            })
            .collect();
        let total = engine.scaled_total();
        SlotPlan {
            start: spec.start,
            cum_weights,
            targets: engine
                .fleets()
                .iter()
                .map(|f| (f.spec.traffic_share * total as f64).round() as u64)
                .collect(),
            junk_ratios: engine.fleets().iter().map(|f| f.spec.junk_ratio).collect(),
            scale_queries: engine.scale().queries,
        }
    }

    pub fn slots(&self) -> usize {
        self.cum_weights.len()
    }

    pub fn slot_start(&self, slot: usize) -> SimTime {
        self.start + SimDuration::from_hours(slot as u64)
    }

    /// A uniform arrival time inside `slot`.
    pub fn arrival(&self, slot: usize, rng: &mut StdRng) -> SimTime {
        self.slot_start(slot) + SimDuration::from_micros(rng.gen_range(0..SLOT_US))
    }

    /// Drive fleet `fi` through `slot`: `demand(want_junk)` runs one
    /// demand event and returns the vantage queries it caused, until the
    /// slot's quota is met (or the attempt budget runs out). Junk demand
    /// is steered onto the exact integer lattice of the fleet's junk
    /// ratio, anchored at the slot's quota base, so the mix holds at the
    /// vantage without cross-slot state. Returns the queries emitted.
    pub fn steer(&self, fi: usize, slot: usize, mut demand: impl FnMut(bool) -> u64) -> u64 {
        let target = self.targets[fi] as f64;
        let due_now = (target * self.cum_weights[slot]).round() as u64;
        let due_prev = match slot {
            0 => 0,
            _ => (target * self.cum_weights[slot - 1]).round() as u64,
        };
        let quota = due_now.saturating_sub(due_prev);
        let ratio = self.junk_ratios[fi];
        let max_attempts = quota.saturating_mul(60).max(1000);
        let (mut done, mut attempts) = (0u64, 0u64);
        while done < quota && attempts < max_attempts {
            attempts += 1;
            let base = due_prev + done;
            let want_junk = (ratio * (base + 1) as f64).floor() > (ratio * base as f64).floor();
            done += demand(want_junk);
        }
        done
    }

    /// The incident's query quota in `slot`, spread evenly over the slots
    /// of its window; `None` when the slot lies outside the window.
    pub fn incident_quota(&self, incident: &Incident, slot: usize) -> Option<u64> {
        let Incident::CyclicDependency {
            start,
            end,
            total_queries,
            ..
        } = incident;
        let slot_start = self.slot_start(slot);
        if slot_start + SimDuration::from_micros(SLOT_US) <= *start || slot_start >= *end {
            return None;
        }
        let window_slots = ((end.as_micros() - start.as_micros()) / SLOT_US).max(1);
        Some((*total_queries as f64 * self.scale_queries) as u64 / window_slots)
    }
}

/// The `i`-th incident question: A and AAAA alternating over the two
/// cyclically dependent domains. Returns `(qname, qtype, signed)`.
pub(crate) fn incident_question(
    engine: &Engine,
    incident: &Incident,
    i: u64,
) -> (Name, RType, bool) {
    let Incident::CyclicDependency { domain_indices, .. } = incident;
    let idx = domain_indices[(i % 2) as usize];
    let qtype = if i.is_multiple_of(2) {
        RType::A
    } else {
        RType::Aaaa
    };
    (
        engine.zone().registered_domain(idx),
        qtype,
        engine.zone().is_signed(idx),
    )
}

/// One lane's output for one slot.
#[derive(Default)]
pub(crate) struct Part {
    pub records: Vec<CaptureRecord>,
    pub stats: DatasetStats,
    /// Vantage queries per fleet index (the quota currency); may be
    /// shorter than the fleet list.
    pub fleet_counts: Vec<u64>,
}

/// A stateful producer of one part per slot, in slot order.
pub(crate) trait Lane: Send {
    fn produce(&mut self, slot: usize) -> Part;
}

/// Run `lanes` over every slot of `engine`'s dataset into `out`.
///
/// Lane `i` runs on worker `i % workers` (inline when `workers` is 1);
/// a worker produces its lanes' parts slot by slot, each lane over its
/// own bounded channel. The merger takes each slot's parts in lane
/// order, sorts them by timestamp (stable) and emits the slot, so the
/// output is byte-identical for any worker count. Returns the merged
/// counters (per-fleet counts named) and the lanes, for their
/// end-of-run state.
pub(crate) fn run_lanes<L: Lane, S: RecordSink>(
    engine: &Engine,
    stage: &'static str,
    mut lanes: Vec<L>,
    workers: usize,
    out: &mut S,
) -> std::io::Result<(DatasetStats, Vec<L>)> {
    let spec = engine.spec();
    let slots = (spec.days as usize) * 24;
    let nlanes = lanes.len();
    let workers = workers.clamp(1, nlanes.max(1));
    let mut timer = obs::stage(stage);
    let mut merger = Merger {
        progress: obs::Progress::new(
            format!("{stage} {:?}-{}", spec.vantage, spec.year),
            Some(engine.scaled_total()),
        ),
        stats: DatasetStats::default(),
        counts: vec![0; engine.fleets().len()],
        buf: Vec::new(),
    };

    if workers == 1 {
        for slot in 0..slots {
            for lane in lanes.iter_mut() {
                merger.add(lane.produce(slot));
            }
            merger.flush(slot, out)?;
        }
    } else {
        lanes = crossbeam::thread::scope(|scope| -> std::io::Result<Vec<L>> {
            let mut rxs = Vec::with_capacity(nlanes);
            let mut shares: Vec<Vec<_>> = (0..workers).map(|_| Vec::new()).collect();
            for (i, lane) in lanes.into_iter().enumerate() {
                // room for two parts per lane of every worker, so a
                // worker whose lane skips most slots (empty parts) still
                // runs two real parts ahead of the merger
                let (tx, rx) = crossbeam::channel::bounded::<Part>(2 * nlanes);
                rxs.push(rx);
                shares[i % workers].push((i, lane, tx));
            }
            let handles: Vec<_> = shares
                .into_iter()
                .enumerate()
                .map(|(w, mut share)| {
                    scope.spawn(move |_| {
                        let mut timer = obs::stage_owned(format!("{stage}.shard{w}"));
                        'slots: for slot in 0..slots {
                            for (_, lane, tx) in share.iter_mut() {
                                let mut part = lane.produce(slot);
                                // pre-sorted runs make the merger's
                                // stable sort near-linear
                                part.records.sort_by_key(|r| r.timestamp);
                                timer.add_items(part.stats.queries + part.stats.responses);
                                if tx.send(part).is_err() {
                                    break 'slots; // merger gone (sink error)
                                }
                            }
                        }
                        share
                            .into_iter()
                            .map(|(i, lane, _)| (i, lane))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut merge = || -> std::io::Result<()> {
                for slot in 0..slots {
                    for rx in &rxs {
                        let part = rx
                            .recv()
                            .map_err(|_| std::io::Error::other("generator lane disconnected"))?;
                        merger.add(part);
                    }
                    merger.flush(slot, out)?;
                }
                Ok(())
            };
            let merged = merge();
            // dropping the receivers wakes any worker still blocked on a
            // full channel, so every worker returns
            drop(rxs);
            let mut back: Vec<(usize, L)> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("generator lanes do not panic"))
                .collect();
            back.sort_by_key(|(i, _)| *i);
            merged.map(|()| back.into_iter().map(|(_, lane)| lane).collect())
        })
        .expect("generator lanes do not panic")?;
    }

    let Merger {
        mut stats, counts, ..
    } = merger;
    stats.per_fleet = engine
        .fleets()
        .iter()
        .zip(counts)
        .map(|(f, c)| (f.spec.name.clone(), c))
        .collect();
    timer.add_items(stats.queries + stats.responses);
    Ok((stats, lanes))
}

/// The merger's running state: counters, progress and the slot buffer.
struct Merger {
    progress: obs::Progress,
    stats: DatasetStats,
    counts: Vec<u64>,
    buf: Vec<CaptureRecord>,
}

impl Merger {
    fn add(&mut self, part: Part) {
        self.progress.tick(part.stats.queries);
        self.stats.absorb(&part.stats);
        for (acc, c) in self.counts.iter_mut().zip(&part.fleet_counts) {
            *acc += c;
        }
        if self.buf.is_empty() {
            self.buf = part.records;
        } else {
            self.buf.extend(part.records);
        }
    }

    fn flush<S: RecordSink>(&mut self, slot: usize, out: &mut S) -> std::io::Result<()> {
        let mut buf = std::mem::take(&mut self.buf);
        buf.sort_by_key(|r| r.timestamp);
        for rec in buf {
            out.emit(rec)?;
        }
        out.slice_end(slot as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Vantage;
    use crate::scenario::{dataset, Scale};
    use netbase::flow::FlowKey;
    use std::collections::HashMap;

    fn dns_id(rec: &CaptureRecord) -> u16 {
        // TCP payloads carry the two-octet length prefix
        let wire = match rec.flow.transport {
            Transport::Tcp => &rec.payload[2..],
            Transport::Udp => &rec.payload[..],
        };
        u16::from_be_bytes([wire[0], wire[1]])
    }

    /// Responses that answer no query: matched by DNS id on the
    /// reversed flow, the way the ingest joins them.
    fn unmatched_responses(records: &[CaptureRecord]) -> usize {
        let mut open: HashMap<(FlowKey, u16), usize> = HashMap::new();
        let mut unmatched = 0;
        for rec in records {
            match rec.direction {
                Direction::Query => *open.entry((rec.flow, dns_id(rec))).or_default() += 1,
                Direction::Response => match open.get_mut(&(rec.flow.reversed(), dns_id(rec))) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => unmatched += 1,
                },
            }
        }
        unmatched
    }

    /// Every response of both generators, UDP and TCP (TC=1 retries
    /// included), carries the id of a query on the reversed flow.
    #[test]
    fn every_response_matches_a_query_on_both_generators() {
        for vantage in [Vantage::Nl, Vantage::Nz] {
            let engine = Engine::new(dataset(vantage, 2020), Scale::tiny(), 42);
            let mut calibrated: Vec<CaptureRecord> = Vec::new();
            let cal = engine.generate_sharded(&mut calibrated, 1).unwrap();
            let mut fleet: Vec<CaptureRecord> = Vec::new();
            let fl = engine.generate_fleet(&mut fleet, 2).unwrap();
            for (name, records, stats) in [("calibrated", &calibrated, cal), ("fleet", &fleet, fl)]
            {
                assert!(
                    stats.truncated_udp > 0,
                    "{vantage:?} {name}: TC=1 retries exercised"
                );
                assert_eq!(
                    unmatched_responses(records),
                    0,
                    "{vantage:?} {name}: responses without a query"
                );
            }
        }
    }
}
