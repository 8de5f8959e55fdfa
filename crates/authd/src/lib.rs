//! Live authoritative DNS serving over real sockets.
//!
//! The rest of the workspace studies DNS centralization *offline*: the
//! simulator writes a `.dnscap` capture, ENTRADA-style ingestion turns
//! it into rows, and the analysis crates reproduce the paper's
//! exhibits. This crate closes the loop over a real network path:
//!
//! - [`server`] — a multithreaded authoritative server speaking actual
//!   UDP and TCP (RFC 1035 length framing), synthesizing responses with
//!   [`simnet::auth::Authoritative`] and rate-limiting with a sharded
//!   [`simnet::rrl`] limiter whose decisions match the serial one.
//! - [`sockets`] — the socket plane under it: per-worker `SO_REUSEPORT`
//!   UDP shards with `recvmmsg`/`sendmmsg` batching on Linux (syscalls
//!   declared directly against the platform libc — no new crates), a
//!   portable `try_clone` fallback elsewhere, and a `poll(2)`-based
//!   readiness wait for the TCP accept loop.
//! - [`loadgen`] — the closed-loop load generator: worker threads, each
//!   with one vantage client (logical-address preamble, id-matched UDP,
//!   TCP retry on truncation), fed either by the calibrated
//!   [`simnet::drive::Driver`] (the offline engine's fleet profiles,
//!   qtype mixes, Q-min and EDNS sizes) or, with `--resolvers=N`, by N
//!   concurrent [`resolver::IterativeResolver`] instances walking the
//!   hierarchy — the same resolver code the offline fleet engine
//!   ([`simnet::emerge`]) runs in-process.
//! - [`tap`] — a capture tap mirroring every query/response the server
//!   handles into the same `.dnscap` format, so live traffic flows
//!   through the unchanged `entrada` → `core` analysis pipeline.
//! - [`proxy`] — a logical-address preamble that lets loopback traffic
//!   carry the resolver-fleet/server addresses the analyzer attributes
//!   cloud share by.
//! - [`stats`] — lock-free per-worker counters and latency histograms
//!   (p50/p99) for both sides.
//! - [`live`] — spawns server and load generator together over
//!   loopback for one-command end-to-end runs.
//!
//! No async runtime and no new dependencies: `std::net` blocking
//! sockets, one thread per worker, `crossbeam` channels in between.

pub mod live;
pub mod loadgen;
pub mod proxy;
pub mod respond;
pub mod server;
pub mod signal;
pub mod sockets;
pub mod stats;
pub mod tap;

pub use live::{run_live, LiveConfig, LiveReport};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenReport};
pub use obs::Histogram;
pub use respond::Responder;
pub use server::{Engine, Server, ServerConfig, WorkerState};
pub use stats::{Stats, StatsSnapshot};
pub use tap::Tap;
