//! The `serve` workload: a `dnscentral serve` child driven by one
//! harness thread, first open-loop over UDP at a fixed offered rate,
//! then closed-loop with `nproc` queries outstanding.
//!
//! Queries are pre-generated in set-up from `simnet::drive::Driver`,
//! each prefixed with its LPX1 preamble, so generation, ingest and the
//! warehouse are bypassed and the timed phases reach only authd's
//! recv → respond → tap path. Open-loop latency is timed from when each
//! query was due, not from when it was sent; a lost query counts as
//! missing every latency limit. TC=1 answers are retried over TCP.
//! The harness uses one thread, one UDP socket and one TCP connection.

use crate::proc::{self, Running};
use crate::trace::Recorder;
use crate::{Ctx, Outcome};
use authd::proxy::Preamble;
use authd::respond::{OutcomeRef, RespondScratch, Responder};
use authd::Tap;
use dns_wire::message::Message;
use netbase::capture::{Direction, RecordRef};
use netbase::flow::{FlowKey, Transport};
use simnet::drive::Driver;
use simnet::profile::Vantage;
use simnet::scenario::{dataset, DatasetSpec, Scale};
use std::hint::black_box;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Open-loop offered rate, queries/s: about a sixth of the UDP
/// saturation rate (~45k answered/s) on a 2-vCPU x86-64 VM. At half of
/// it (and at 16k/s) host stalls built backlogs the server could not
/// drain within `TIMEOUT`, and runs lost hundreds of queries.
pub const OPEN_LOOP_QPS: f64 = 8_000.0;
/// Share of `--seconds` spent in the open-loop phase; the rest runs
/// the closed loop.
const OPEN_SHARE: f64 = 0.5;
/// The recorded (not gated) latency limit on the open-loop p99.
const P99_LIMIT_US: f64 = 1_000.0;
/// A query unanswered after this long is lost.
const TIMEOUT: Duration = Duration::from_secs(1);
/// Throw-away server spawns per run (plus the measured server);
/// `setup_s` is the shortest spawn-to-first-answer time.
const SETUP_REPEATS: usize = 60;
/// How often a starting server is probed.
const PROBE_EVERY: Duration = Duration::from_micros(100);

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
}

/// Grow a socket's kernel receive buffer to `bytes` (capped by
/// `net.core.rmem_max`), so answers that arrive while the harness is
/// descheduled wait in the kernel instead of being dropped.
fn set_rcvbuf(sock: &UdpSocket, bytes: i32) {
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    // SAFETY: the fd is a live socket owned by `sock`, and the option
    // value is a live i32 of the length passed.
    unsafe {
        setsockopt(
            sock.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            (&bytes as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        );
    }
}

/// One pre-generated query.
struct Query {
    /// Preamble + DNS message, as sent over UDP.
    datagram: Vec<u8>,
    /// Offset of the DNS message inside `datagram`.
    dns_at: usize,
    /// End of the question section within the DNS message.
    qend: usize,
    src: SocketAddr,
    dst: SocketAddr,
}

impl Query {
    fn dns(&self) -> &[u8] {
        &self.datagram[self.dns_at..]
    }
}

/// End of the question section of a query message (uncompressed qname
/// at offset 12, then type and class).
fn question_end(msg: &[u8]) -> Option<usize> {
    let mut at = 12;
    loop {
        let len = *msg.get(at)? as usize;
        at += 1 + len;
        if len == 0 {
            break;
        }
        if len > 63 {
            return None;
        }
    }
    (at + 4 <= msg.len()).then_some(at + 4)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `n` queries from the dataset's fleets, timed as if offered at
/// `OPEN_LOOP_QPS` from the dataset's start.
fn generate(spec: &DatasetSpec, seed: u64, n: usize) -> Result<Vec<Query>, String> {
    let mut driver = Driver::new(spec.clone(), Scale::small(), seed);
    let mut ports = seed ^ 0x5eed_9097;
    let step_us = (1e6 / OPEN_LOOP_QPS) as u64;
    (0..n)
        .map(|i| {
            let t = spec.start + netbase::time::SimDuration::from_micros(i as u64 * step_us);
            let q = driver.sample(t);
            let port = 1024 + (splitmix(&mut ports) % (u16::MAX as u64 - 1024)) as u16;
            let src = SocketAddr::new(q.src, port);
            let dst = SocketAddr::new(q.dst, 53);
            let mut datagram = Preamble {
                src,
                dst,
                rtt_us: 0,
            }
            .encode();
            let dns_at = datagram.len();
            datagram.extend_from_slice(&q.wire);
            let qend = question_end(&q.wire).ok_or("driver produced a query with no question")?;
            Ok(Query {
                datagram,
                dns_at,
                qend,
                src,
                dst,
            })
        })
        .collect()
}

/// The server child plus its address (UDP and TCP share the port).
struct Server {
    child: Running,
    addr: SocketAddr,
    /// Probe exchanges the server answered (they are in its tap too).
    probes: u64,
}

/// A loopback port free for both UDP and TCP.
fn free_port() -> Result<u16, String> {
    for _ in 0..64 {
        let udp = UdpSocket::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let port = udp.local_addr().map_err(|e| e.to_string())?.port();
        if TcpListener::bind(("127.0.0.1", port)).is_ok() {
            return Ok(port);
        }
    }
    Err("no loopback port free for both UDP and TCP".into())
}

/// Spawn `serve` on a free port and probe it over UDP until it
/// answers. Returns the server and the spawn-to-first-answer time.
///
/// A probe sent before the server binds is dropped; one sent after
/// waits in the socket until a worker reads it, so the first answer
/// marks the moment the server can serve. With `count_probes` the
/// answers to the later probes are drained too, so `Server::probes`
/// is exactly the number of probe exchanges in the tap.
fn start_server(
    ctx: &Ctx,
    tap: &str,
    tag: &str,
    probe: &[u8],
    count_probes: bool,
) -> Result<(Server, f64), String> {
    let port = free_port()?;
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    let args = [
        "serve".to_string(),
        "nl".into(),
        "2020".into(),
        format!("--port={port}"),
        "--udp-workers=1".into(),
        "--tcp-workers=1".into(),
        format!("--out={tap}"),
        "--stats-interval=3600s".into(),
    ];
    let sock = UdpSocket::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    sock.set_nonblocking(true).map_err(|e| e.to_string())?;
    let mut buf = [0u8; 4096];
    let mut child = proc::spawn(&ctx.bin, &args, &ctx.work, tag)?;
    let mut last_probe: Option<Instant> = None;
    let mut sent = 0u64;
    // Spin instead of sleeping: on a VM a sleeping thread's wake-up can
    // take milliseconds, which would be measured as set-up.
    let setup = loop {
        if sock.recv(&mut buf).is_ok() {
            break child.started().elapsed().as_secs_f64();
        }
        if last_probe.is_none_or(|t| t.elapsed() >= PROBE_EVERY) {
            sock.send_to(probe, addr).map_err(|e| e.to_string())?;
            last_probe = Some(Instant::now());
            sent += 1;
            // every 10 ms, see whether the server died
            if sent.is_multiple_of(100) && matches!(child.sample(), Some('Z') | None) {
                let usage = child.wait(Duration::from_secs(1))?;
                return Err(format!(
                    "server exited before answering: {}",
                    usage.stderr.trim()
                ));
            }
            if child.started().elapsed() > Duration::from_secs(60) {
                return Err("server did not answer within 60 s".into());
            }
        }
        std::thread::yield_now();
    };
    let mut probes = 1;
    if count_probes {
        let quiet = Instant::now();
        while quiet.elapsed() < Duration::from_millis(100) {
            if sock.recv(&mut buf).is_ok() {
                probes += 1;
            }
            std::thread::yield_now();
        }
    }
    Ok((
        Server {
            child,
            addr,
            probes,
        },
        setup,
    ))
}

/// How the event loop paces its sends.
#[derive(Clone, Copy)]
enum Pacing {
    /// Query k is due `k / rate` seconds after the phase starts.
    Open { rate: f64 },
    /// Keep this many queries outstanding. A truncated answer counts as
    /// answered: this phase measures the UDP path's saturation.
    Closed { window: usize },
}

/// What one phase observed.
#[derive(Default)]
struct Phase {
    sent: u64,
    /// Exchanges answered: UDP answers (truncated ones included) plus
    /// TCP answers.
    exchanges: u64,
    answered: u64,
    udp_answers: u64,
    truncated: u64,
    lost: u64,
    malformed: u64,
    mismatched: u64,
    /// Per query, due-to-final-answer latency in ns (`u64::MAX` = lost).
    latencies: Vec<u64>,
    /// Per query, how late the sender put it on the wire, in ns.
    late: Vec<u64>,
    backlog_max: u64,
    /// From the phase's start until its last answer or loss.
    wall: Duration,
    /// The pool index of every query sent, in order.
    order: Vec<u32>,
}

/// An outstanding query: its pool index and when it was due.
#[derive(Clone, Copy)]
struct Pending {
    idx: u32,
    due: Instant,
}

struct Loop<'a> {
    pool: &'a [Query],
    server_udp: SocketAddr,
    udp: UdpSocket,
    /// Outstanding UDP queries, by DNS id.
    pending: Vec<Option<Pending>>,
    /// Outstanding TCP retries, by DNS id.
    tcp_pending: Vec<Option<Pending>>,
    outstanding: usize,
    /// One persistent connection the TCP retries are pipelined over
    /// (RFC 7766), so a retry costs the server one read, not an accept
    /// and a worker hand-off. It carries no preamble: the tap records
    /// these exchanges from the harness's own address.
    tcp: TcpStream,
    tcp_buf: Vec<u8>,
    /// Retry TC=1 answers over TCP (the open loop does, the closed
    /// loop does not).
    retry_tcp: bool,
    scratch: Vec<u8>,
}

impl<'a> Loop<'a> {
    fn new(pool: &'a [Query], server: &Server) -> Result<Loop<'a>, String> {
        let udp = UdpSocket::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        udp.set_nonblocking(true).map_err(|e| e.to_string())?;
        set_rcvbuf(&udp, 4 << 20);
        let tcp = TcpStream::connect(server.addr).map_err(|e| format!("tcp connect: {e}"))?;
        tcp.set_nodelay(true).map_err(|e| e.to_string())?;
        tcp.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Loop {
            pool,
            server_udp: server.addr,
            udp,
            pending: vec![None; 1 << 16],
            tcp_pending: vec![None; 1 << 16],
            outstanding: 0,
            tcp,
            tcp_buf: Vec::with_capacity(1 << 16),
            retry_tcp: true,
            scratch: Vec::with_capacity(2048),
        })
    }

    /// Does `resp` answer pool query `idx`? Its id is matched already:
    /// `idx` is the query outstanding under the response's id. Here
    /// the response must parse, be a response, and echo the question.
    fn answers(&self, idx: u32, resp: &[u8]) -> Result<bool, ()> {
        let q = &self.pool[idx as usize];
        if Message::parse(resp).is_err() {
            return Err(());
        }
        Ok(resp.len() >= q.qend && resp[2] & 0x80 != 0 && resp[12..q.qend] == q.dns()[12..q.qend])
    }

    fn finish(&mut self, phase: &mut Phase, due: Instant, now: Instant) {
        phase.answered += 1;
        phase
            .latencies
            .push(now.saturating_duration_since(due).as_nanos() as u64);
        self.outstanding -= 1;
    }

    fn lose(&mut self, phase: &mut Phase) {
        phase.lost += 1;
        phase.latencies.push(u64::MAX);
        self.outstanding -= 1;
    }

    fn send(&mut self, phase: &mut Phase, k: u64, due: Instant) -> Result<(), String> {
        let idx = (k % self.pool.len() as u64) as u32;
        let id = (k & 0xffff) as u16;
        for table in [&mut self.pending, &mut self.tcp_pending] {
            if table[id as usize].take().is_some() {
                // 65,536 sends later and still unanswered: lost
                phase.lost += 1;
                phase.latencies.push(u64::MAX);
                self.outstanding -= 1;
            }
        }
        let q = &self.pool[idx as usize];
        self.scratch.clear();
        self.scratch.extend_from_slice(&q.datagram);
        self.scratch[q.dns_at..q.dns_at + 2].copy_from_slice(&id.to_be_bytes());
        loop {
            match self.udp.send_to(&self.scratch, self.server_udp) {
                Ok(_) => break,
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) => return Err(format!("udp send: {e}")),
            }
        }
        self.pending[id as usize] = Some(Pending { idx, due });
        self.outstanding += 1;
        phase.sent += 1;
        phase.order.push(idx);
        Ok(())
    }

    /// Drain every UDP answer waiting on the socket.
    fn poll_udp(&mut self, phase: &mut Phase) {
        let mut buf = [0u8; 65_535];
        loop {
            let n = match self.udp.recv(&mut buf) {
                Ok(n) => n,
                Err(_) => return,
            };
            let now = Instant::now();
            let resp = &buf[..n];
            if n < 12 {
                phase.malformed += 1;
                continue;
            }
            let id = u16::from_be_bytes([resp[0], resp[1]]);
            let Some(p) = self.pending[id as usize].take() else {
                phase.mismatched += 1;
                continue;
            };
            phase.exchanges += 1;
            phase.udp_answers += 1;
            match self.answers(p.idx, resp) {
                Err(()) => {
                    phase.malformed += 1;
                    self.lose(phase);
                }
                Ok(false) => {
                    phase.mismatched += 1;
                    self.lose(phase);
                }
                Ok(true) if resp[2] & 0x02 != 0 => {
                    phase.truncated += 1;
                    if self.retry_tcp {
                        if self.retry(p.idx, id, p.due).is_err() {
                            self.lose(phase);
                        }
                    } else {
                        self.finish(phase, p.due, now);
                    }
                }
                Ok(true) => self.finish(phase, p.due, now),
            }
        }
    }

    /// Pipeline pool query `idx` (under id `id`) over the TCP
    /// connection.
    fn retry(&mut self, idx: u32, id: u16, due: Instant) -> Result<(), String> {
        let msg = self.pool[idx as usize].dns();
        self.scratch.clear();
        self.scratch
            .extend_from_slice(&(msg.len() as u16).to_be_bytes());
        self.scratch.extend_from_slice(msg);
        self.scratch[2..4].copy_from_slice(&id.to_be_bytes());
        let mut at = 0;
        while at < self.scratch.len() {
            match self.tcp.write(&self.scratch[at..]) {
                Ok(n) => at += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) => return Err(format!("tcp write: {e}")),
            }
        }
        self.tcp_pending[id as usize] = Some(Pending { idx, due });
        Ok(())
    }

    /// Drain every complete TCP answer.
    fn poll_tcp(&mut self, phase: &mut Phase) -> Result<(), String> {
        let mut chunk = [0u8; 16_384];
        match self.tcp.read(&mut chunk) {
            Ok(0) => return Err("server closed the TCP connection".into()),
            Ok(n) => self.tcp_buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) => return Err(format!("tcp read: {e}")),
        }
        let now = Instant::now();
        let mut at = 0;
        while self.tcp_buf.len() >= at + 2 {
            let len = u16::from_be_bytes([self.tcp_buf[at], self.tcp_buf[at + 1]]) as usize;
            if self.tcp_buf.len() < at + 2 + len {
                break;
            }
            let frame = at + 2..at + 2 + len;
            at = frame.end;
            if len < 12 {
                phase.malformed += 1;
                continue;
            }
            let id = u16::from_be_bytes([self.tcp_buf[frame.start], self.tcp_buf[frame.start + 1]]);
            let Some(p) = self.tcp_pending[id as usize].take() else {
                phase.mismatched += 1;
                continue;
            };
            phase.exchanges += 1;
            match self.answers(p.idx, &self.tcp_buf[frame]) {
                Ok(true) => self.finish(phase, p.due, now),
                Ok(false) => {
                    phase.mismatched += 1;
                    self.lose(phase);
                }
                Err(()) => {
                    phase.malformed += 1;
                    self.lose(phase);
                }
            }
        }
        self.tcp_buf.drain(..at);
        Ok(())
    }

    /// Expire queries unanswered for longer than `TIMEOUT`.
    fn expire(&mut self, phase: &mut Phase, now: Instant) {
        for slot in 0..1 << 16 {
            for table in [&mut self.pending, &mut self.tcp_pending] {
                if table[slot].is_some_and(|p| now.saturating_duration_since(p.due) > TIMEOUT) {
                    table[slot] = None;
                    phase.lost += 1;
                    phase.latencies.push(u64::MAX);
                    self.outstanding -= 1;
                }
            }
        }
    }

    /// Run one phase of `seconds`, numbering queries from `first`.
    fn run(&mut self, pacing: Pacing, seconds: f64, first: u64) -> Result<Phase, String> {
        let mut phase = Phase::default();
        self.retry_tcp = matches!(pacing, Pacing::Open { .. });
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(seconds);
        let mut k = 0u64;
        let mut last_expire = start;
        loop {
            let now = Instant::now();
            if now < end {
                match pacing {
                    Pacing::Open { rate } => {
                        let due_count = (now.duration_since(start).as_secs_f64() * rate) as u64 + 1;
                        while k < due_count {
                            let due = start + Duration::from_secs_f64(k as f64 / rate);
                            phase.backlog_max = phase.backlog_max.max(due_count - k);
                            self.send(&mut phase, first + k, due)?;
                            phase.late.push(
                                Instant::now().saturating_duration_since(due).as_nanos() as u64,
                            );
                            k += 1;
                        }
                    }
                    Pacing::Closed { window } => {
                        while self.outstanding < window {
                            self.send(&mut phase, first + k, Instant::now())?;
                            k += 1;
                        }
                    }
                }
            } else if self.outstanding == 0 {
                break;
            }
            self.poll_udp(&mut phase);
            self.poll_tcp(&mut phase)?;
            if now.duration_since(last_expire) > Duration::from_millis(100) {
                self.expire(&mut phase, now);
                last_expire = now;
            }
            if now > end + TIMEOUT + Duration::from_millis(200) {
                return Err(format!(
                    "{} queries still outstanding after the timeout",
                    self.outstanding
                ));
            }
            // Busy-wait, but hand the core to any runnable thread: on a
            // virtual machine a sleeping thread pays a slow vCPU wake-up
            // per answer, which would be measured as server latency.
            std::thread::yield_now();
        }
        phase.wall = start.elapsed();
        Ok(phase)
    }
}

/// The `q`-quantile of `values` (nearest rank), in µs; a lost query
/// (`u64::MAX`) reads as the timeout.
fn quantile_us(values: &mut [u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    match values[rank - 1] {
        u64::MAX => TIMEOUT.as_secs_f64() * 1e6,
        ns => ns as f64 / 1e3,
    }
}

/// Parse `inspect`'s "frames : F (Q queries, R responses)" and
/// "malformed : M" lines.
fn inspect_counts(text: &str) -> Option<(u64, u64, u64)> {
    let field = |key: &str| {
        text.lines()
            .find(|l| l.starts_with(key))
            .map(str::to_string)
    };
    let frames = field("frames")?;
    let nums: Vec<u64> = frames
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .filter_map(|s| s.parse().ok())
        .collect();
    let malformed = field("malformed")?
        .split(|c: char| !c.is_ascii_digit())
        .find(|s| !s.is_empty())?
        .parse()
        .ok()?;
    Some((*nums.get(1)?, *nums.get(2)?, malformed))
}

pub fn serve(ctx: &Ctx, rec: &mut Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let spec = dataset(Vantage::Nl, 2020);
    let open_s = ctx.seconds * OPEN_SHARE;
    let closed_s = ctx.seconds - open_s;
    let pool = generate(
        &spec,
        ctx.seed,
        (OPEN_LOOP_QPS * open_s).ceil() as usize + 1,
    )?;
    let probe = pool[0].dns().to_vec();

    // Set-up is timed on throw-away servers spread before, between and
    // after the measured phases, so one busy moment of the machine moves
    // few of the samples; the measured server is spawned after the first
    // batch.
    let mut setups = Vec::with_capacity(SETUP_REPEATS + 1);
    let probe_setups = |tag: &str, n: usize, setups: &mut Vec<f64>| -> Result<(), String> {
        for k in 0..n {
            let tap = ctx.work.join(format!("tap-{tag}{k}.dnscap"));
            let (s, setup) = start_server(
                ctx,
                &tap.display().to_string(),
                &format!("serve-{tag}{k}"),
                &probe,
                false,
            )?;
            setups.push(setup);
            // dropping a throw-away server kills and reaps it
            drop(s);
            let _ = std::fs::remove_file(&tap);
        }
        Ok(())
    };
    probe_setups("pre", SETUP_REPEATS / 3, &mut setups)?;
    let tap = ctx.work.join("tap.dnscap");
    let (mut server, setup) = start_server(ctx, &tap.display().to_string(), "serve", &probe, true)?;
    setups.push(setup);

    let nproc = std::thread::available_parallelism().map_or(2, |n| n.get());
    let mut lp = Loop::new(&pool, &server)?;
    let cpu0 = server.child.cpu();
    let open = lp.run(
        Pacing::Open {
            rate: OPEN_LOOP_QPS,
        },
        open_s,
        0,
    )?;
    let open_cpu = server.child.cpu() - cpu0;
    probe_setups("mid", SETUP_REPEATS / 3, &mut setups)?;
    let closed = lp.run(Pacing::Closed { window: nproc }, closed_s, open.sent)?;
    drop(lp);
    server.child.interrupt();
    let probes = server.probes;
    let usage = server.child.wait(Duration::from_secs(30))?;
    if !usage.status.success() {
        return Err(format!("server exited with {}", usage.status));
    }
    probe_setups("post", SETUP_REPEATS / 3, &mut setups)?;

    let phases = [&open, &closed];
    let sum = |f: fn(&Phase) -> u64| phases.iter().map(|p| f(p)).sum::<u64>();
    let (sent, answered, exchanges) = (sum(|p| p.sent), sum(|p| p.answered), sum(|p| p.exchanges));
    let (lost, malformed, mismatched) =
        (sum(|p| p.lost), sum(|p| p.malformed), sum(|p| p.mismatched));
    out.attempted = sent;
    out.failed = lost + malformed + mismatched;
    out.check(
        format!("every answer matches the query outstanding under its id by question bytes and parses ({mismatched} mismatched, {malformed} malformed)"),
        mismatched == 0 && malformed == 0,
    );
    let inspect = ctx.run(
        &["inspect".to_string(), tap.display().to_string()],
        "inspect",
    )?;
    let counts = inspect_counts(&inspect.stdout);
    let _ = std::fs::remove_file(&tap);
    // The last server also answered its start-up probes, and it may
    // have answered a query after the harness gave it up as lost.
    let pairs = exchanges + probes;
    out.check(
        format!(
            "tap holds one query/response pair per answered exchange ({pairs}, +{lost} lost) and 0 malformed: inspect {counts:?} (queries, responses, malformed)"
        ),
        counts.is_some_and(|(q, r, m)| q == r && (pairs..=pairs + lost).contains(&q) && m == 0),
    );

    let mut lat = open.latencies.clone();
    let p50 = quantile_us(&mut lat, 0.50);
    let p99 = quantile_us(&mut lat, 0.99);
    let mut late = open.late.clone();
    let late_p99 = quantile_us(&mut late, 0.99);
    // answered queries over the whole closed loop: every stall of the
    // server (or of the machine) counts against it
    let saturation = closed.answered as f64 / closed.wall.as_secs_f64();
    // the fastest spawn: host contention gives spawn-to-answer a heavy
    // right tail that moves the median by a quarter from run to run
    let setup_s = setups.iter().copied().fold(f64::INFINITY, f64::min);
    out.e2e("setup_s", setup_s, "s");
    out.e2e("queries_per_s", saturation, "1/s");
    out.e2e("peak_rss_mb", usage.peak_rss_mb(), "MB");
    println!(
        "serve: open loop {OPEN_LOOP_QPS} q/s for {open_s:.1} s, closed loop window {nproc} for {closed_s:.1} s"
    );
    println!(
        "  latency_p50_us {p50:.1} us, latency_p99_us {p99:.1} us over {} samples ({} beyond p99); p99 limit {P99_LIMIT_US} us {}",
        lat.len(),
        lat.len() / 100,
        if p99 <= P99_LIMIT_US { "met" } else { "missed" }
    );
    println!(
        "  saturation_qps {saturation:.1} answered/s ({} answered); sender late p99 {late_p99:.1} us, backlog max {}",
        closed.answered, open.backlog_max
    );
    println!("  {sent} sent, {answered} answered, {lost} lost, {exchanges} exchanges + {probes} probes in the tap");

    let udp_answers = sum(|p| p.udp_answers);
    out.layer(
        "authd.truncated_ratio",
        sum(|p| p.truncated) as f64 / udp_answers.max(1) as f64,
        "ratio",
    );
    let cpu_us = open_cpu.as_secs_f64() * 1e6 / open.answered.max(1) as f64;
    out.e2e("cpu_ms_per_kquery", cpu_us, "ms");
    out.layer("authd.cpu_us_per_query", cpu_us, "us");
    out.layer("loadgen.late_p99_us", late_p99, "us");
    out.layer("loadgen.backlog_max", open.backlog_max as f64, "count");
    if ctx.trace {
        let order: Vec<u32> = open.order.iter().chain(&closed.order).copied().collect();
        layers(ctx, rec, &spec, &pool, &order, cpu_us, &mut out)?;
    }
    Ok(out)
}

/// Queries the in-process pass replays: enough for stable per-query
/// figures at a second or so per round.
const INPROC_QUERIES: usize = 100_000;

/// The in-process respond → tap pass over the queries the server saw,
/// in the order it saw them (the first `INPROC_QUERIES` of them).
fn layers(
    ctx: &Ctx,
    rec: &mut Recorder,
    spec: &DatasetSpec,
    pool: &[Query],
    order: &[u32],
    server_cpu_us: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let order = &order[..order.len().min(INPROC_QUERIES)];
    let responder = Responder::for_spec(spec);
    let now = spec.start;
    let n = order.len() as u64;
    let per = |v: f64, n: u64| v / n.max(1) as f64;
    let respond = |scratch: &mut RespondScratch, i: u32| -> Result<usize, String> {
        let q = &pool[i as usize];
        match responder.handle_into(q.dns(), Transport::Udp, q.src.ip(), now, None, scratch) {
            OutcomeRef::Reply { bytes, .. } => Ok(bytes.len()),
            _ => Err("in-process responder did not answer a workload query".into()),
        }
    };

    // Untimed: the allocations of every hit and every miss in the
    // workload's order, and the responses the tap pass writes.
    let mut scratch = RespondScratch::new();
    let (mut hit_allocs, mut miss_allocs) = (0u64, 0u64);
    let mut hit_queries = Vec::new();
    let mut responses = Vec::with_capacity(order.len());
    for &i in order {
        let q = &pool[i as usize];
        let (allocs0, hits0) = (obs::alloc::totals().0, scratch.hits());
        let OutcomeRef::Reply { bytes, .. } =
            responder.handle_into(q.dns(), Transport::Udp, q.src.ip(), now, None, &mut scratch)
        else {
            return Err("in-process responder did not answer a workload query".into());
        };
        let allocs = obs::alloc::totals().0 - allocs0;
        responses.push(bytes.to_vec());
        if scratch.hits() > hits0 {
            hit_allocs += allocs;
            hit_queries.push(i);
        } else {
            miss_allocs += allocs;
        }
    }
    let (hits, misses) = (scratch.hits(), scratch.misses());

    // Steady state of the cached path: replay the queries that hit,
    // keeping those that still hit, until a whole pass misses nothing;
    // then count the allocations of one more pass.
    let mut scratch = RespondScratch::new();
    let mut steady = hit_queries;
    for _ in 0..8 {
        let before = scratch.misses();
        let mut kept = Vec::with_capacity(steady.len());
        for &i in &steady {
            let m = scratch.misses();
            respond(&mut scratch, i)?;
            if scratch.misses() == m {
                kept.push(i);
            }
        }
        let settled = scratch.misses() == before;
        steady = kept;
        if settled {
            break;
        }
    }
    let allocs0 = obs::alloc::totals().0;
    for &i in &steady {
        black_box(respond(&mut scratch, i)?);
    }
    let steady_allocs = obs::alloc::totals().0 - allocs0;

    // A warm-up round, then the pass untraced, traced and untraced: the
    // traced round against the mean of its untraced neighbours is the
    // recorder's overhead, with the machine's drift over the rounds
    // cancelled.
    let mut walls = [0.0f64; 4];
    for (round, wall) in walls.iter_mut().enumerate() {
        let mut quiet = Recorder::new(false);
        let r: &mut Recorder = if round == 2 { &mut *rec } else { &mut quiet };
        let tap_path = ctx.work.join(format!("tap-inproc-{round}.dnscap"));
        let tap = Tap::create(&tap_path).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let mut scratch = RespondScratch::new();
        r.span("authd.respond", |_| {
            for &i in order {
                let q = &pool[i as usize];
                black_box(responder.handle_into(
                    black_box(q.dns()),
                    Transport::Udp,
                    q.src.ip(),
                    now,
                    None,
                    &mut scratch,
                ));
            }
        });
        r.span("authd.tap", |_| -> Result<(), String> {
            for (&i, resp) in order.iter().zip(&responses) {
                let q = &pool[i as usize];
                let flow = FlowKey {
                    src: q.src.ip(),
                    src_port: q.src.port(),
                    dst: q.dst.ip(),
                    dst_port: q.dst.port(),
                    transport: Transport::Udp,
                };
                let query = RecordRef {
                    timestamp: now,
                    direction: Direction::Query,
                    flow,
                    tcp_rtt_us: 0,
                    payload: q.dns(),
                };
                let response = RecordRef {
                    timestamp: now,
                    direction: Direction::Response,
                    flow: flow.reversed(),
                    tcp_rtt_us: 0,
                    payload: resp,
                };
                tap.write_pair_ref(query, Some(response))
                    .map_err(|e| e.to_string())?;
            }
            tap.finish().map(|_| ()).map_err(|e| e.to_string())
        })?;
        // the query messages the server parses, on their own
        r.span("dns-wire.parse", |_| {
            for &i in order {
                black_box(Message::parse(black_box(pool[i as usize].dns())).is_ok());
            }
        });
        *wall = started.elapsed().as_secs_f64();
        let _ = std::fs::remove_file(&tap_path);
    }

    let all = rec.layers(None);
    let self_ns = |name: &str| all.get(name).map_or(0, |l| l.self_ns) as f64;
    let self_allocs = |name: &str| all.get(name).map_or(0, |l| l.self_allocs) as f64;
    out.layer(
        "authd.respond.ns_per_query",
        per(self_ns("authd.respond"), n),
        "ns",
    );
    out.layer(
        "authd.respond.allocs_per_query",
        per(steady_allocs as f64, steady.len() as u64),
        "count",
    );
    out.layer(
        "authd.respond.cache_hit_ratio",
        per(hits as f64, hits + misses),
        "ratio",
    );
    out.layer(
        "authd.tap.ns_per_record",
        per(self_ns("authd.tap"), 2 * n),
        "ns",
    );
    out.layer(
        "dns-wire.parse.ns_per_msg",
        per(self_ns("dns-wire.parse"), n),
        "ns",
    );
    out.layer(
        "dns-wire.parse.allocs_per_msg",
        per(self_allocs("dns-wire.parse"), n),
        "count",
    );
    let untraced = (walls[1] + walls[3]) / 2.0;
    out.layer("trace.overhead_ratio", walls[2] / untraced, "ratio");
    println!(
        "== in-process respond/tap/parse over {n} queries: {hits} hits, {misses} misses ==\n  \
         steady-state cached path: {steady_allocs} allocations over {} queries; in the workload's \
         order the hits made {:.4} allocations each and the misses {:.1}\n  traced pass {:.1} ms vs untraced {:.1} ms (mean of the rounds either side)",
        steady.len(),
        per(hit_allocs as f64, hits),
        per(miss_allocs as f64, misses),
        walls[2] * 1e3,
        untraced * 1e3
    );
    let respond_us = per(self_ns("authd.respond"), n) / 1e3;
    let tap_us = per(self_ns("authd.tap"), n) / 1e3;
    println!(
        "== ledger: in-process layers per query vs the server's CPU per query (open loop) ==\n  \
         authd.respond {respond_us:>8.2} us\n  authd.tap     {tap_us:>8.2} us (query + response record)\n  \
         sum           {:>8.2} us = {:.1}% of the server's {server_cpu_us:.2} us; the rest is the \
         socket path, wake-ups and the other server threads",
        respond_us + tap_us,
        100.0 * (respond_us + tap_us) / server_cpu_us
    );
    Ok(())
}
