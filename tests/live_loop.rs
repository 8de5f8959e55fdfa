//! End-to-end live loop: serve + loadgen over loopback, ingest the
//! live capture tap through the unchanged offline analysis, and check
//! that cloud attribution matches an offline generate+analyze run of
//! the same dataset within 2 percentage points absolute. The resolver
//! fleet's live capture must ingest as cleanly. Plus the RRL
//! evidence chain: a dropped response must leave a query-with-no-
//! response in the capture, which ingest classifies as unanswered.

use asdb::cloud::Provider;
use authd::{run_live, LiveConfig};
use dnscentral_core::experiments::{analyze_capture, run_dataset};
use simnet::profile::Vantage;
use simnet::scenario::{dataset, Scale};

const QUERIES: u64 = 10_000;
const TOLERANCE_PP: f64 = 0.02;

#[test]
fn live_capture_matches_offline_cloud_shares() {
    let spec = dataset(Vantage::Nl, 2020);
    let scale = Scale::tiny();
    let seed = 42;
    let dir = std::env::temp_dir().join("dnscentral-live-loop");
    std::fs::create_dir_all(&dir).unwrap();
    let capture = dir.join("live-loop.dnscap");

    let mut config = LiveConfig::new(spec.clone(), scale, seed, capture.clone());
    config.max_queries = Some(QUERIES);
    let report = run_live(&config).expect("live loop runs");
    assert!(
        report.loadgen.sent >= QUERIES,
        "sent {}",
        report.loadgen.sent
    );
    assert!(report.records > 0, "capture tap stayed empty");
    assert_eq!(
        report.loadgen.timeouts, 0,
        "loopback queries must not time out"
    );

    let (live, _dualstack, ingest) =
        analyze_capture(&spec, scale, seed, &capture).expect("live capture analyzes");
    assert_eq!(ingest.malformed, 0, "live tap wrote malformed frames");
    assert_eq!(ingest.unanswered_queries, 0, "unpaired query records");

    let offline = run_dataset(Vantage::Nl, 2020, scale, seed);
    let live_cloud = live.cloud_share();
    let offline_cloud = offline.analysis.cloud_share();
    assert!(
        (live_cloud - offline_cloud).abs() < TOLERANCE_PP,
        "total cloud share diverged: live {live_cloud:.4} vs offline {offline_cloud:.4}"
    );
    for provider in [
        Provider::Google,
        Provider::Amazon,
        Provider::Microsoft,
        Provider::Facebook,
        Provider::Cloudflare,
    ] {
        let l = live.provider_share(provider);
        let o = offline.analysis.provider_share(provider);
        assert!(
            (l - o).abs() < TOLERANCE_PP,
            "{provider:?} share diverged: live {l:.4} vs offline {o:.4}"
        );
    }

    std::fs::remove_file(&capture).ok();
}

/// Fleet mode (`resolvers`): real resolver walks over real sockets
/// leave a capture that ingests with every query answered, and the
/// resolvers' direct-TCP draws reach the server, which therefore serves
/// more TCP queries than the client's TC=1 retries account for.
#[test]
fn fleet_live_capture_ingests_cleanly_and_sends_direct_tcp() {
    // about 0.6% of the fleet's vantage exchanges at this seed go over
    // TCP outright, so 1,600 sends expect about 10 direct-TCP queries
    const FLEET_QUERIES: u64 = 1_600;
    let spec = dataset(Vantage::Nl, 2020);
    let scale = Scale::tiny();
    let seed = 42;
    let dir = std::env::temp_dir().join("dnscentral-live-loop");
    std::fs::create_dir_all(&dir).unwrap();
    let capture = dir.join("fleet-loop.dnscap");

    let mut config = LiveConfig::new(spec.clone(), scale, seed, capture.clone());
    config.max_queries = Some(FLEET_QUERIES);
    config.resolvers = Some(16);
    let report = run_live(&config).expect("fleet live loop runs");
    assert!(
        report.loadgen.sent >= FLEET_QUERIES,
        "sent {}",
        report.loadgen.sent
    );

    let (_live, _dualstack, ingest) =
        analyze_capture(&spec, scale, seed, &capture).expect("fleet capture analyzes");
    assert_eq!(ingest.malformed, 0, "fleet tap wrote malformed frames");
    assert_eq!(ingest.unanswered_queries, 0, "unpaired query records");
    assert!(
        report.server.tcp_queries > report.loadgen.tcp_fallbacks,
        "no direct TCP: server tcp {} vs client fallbacks {}",
        report.server.tcp_queries,
        report.loadgen.tcp_fallbacks
    );

    std::fs::remove_file(&capture).ok();
}

/// An RRL-dropped UDP query is not lost evidence: the tap records the
/// query with no response, and offline ingest classifies exactly those
/// records as unanswered queries.
#[test]
fn rrl_dropped_queries_surface_as_unanswered_in_ingest() {
    use dns_wire::builder::MessageBuilder;
    use dns_wire::types::RType;
    use simnet::rrl::RrlConfig;
    use std::time::{Duration, Instant};

    let spec = dataset(Vantage::Nl, 2020);
    let scale = Scale::tiny();
    let seed = 42;
    let dir = std::env::temp_dir().join("dnscentral-live-loop");
    std::fs::create_dir_all(&dir).unwrap();
    let capture = dir.join("rrl-drop.dnscap");

    let mut config = authd::ServerConfig::for_spec(&spec);
    let qname = config.zone.registered_domain(0).to_string();
    // pure-drop RRL with a one-response budget: hammering one bucket
    // from one source prefix drops everything after the first token
    config.rrl = Some(RrlConfig {
        responses_per_second: 1,
        burst: 1,
        slip: 0,
        ..RrlConfig::default()
    });
    config.tap = Some(authd::Tap::create(&capture).unwrap());
    let server = authd::Server::start(config).unwrap();
    let dropped = std::sync::Arc::clone(&server.stats().rrl_dropped);
    let responses = std::sync::Arc::clone(&server.stats().responses);

    let sock = std::net::UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.set_read_timeout(Some(Duration::from_millis(5)))
        .unwrap();
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut id = 0u16;
    while dropped.get() < 3 {
        assert!(Instant::now() < deadline, "RRL never dropped a response");
        let wire = MessageBuilder::query(id, qname.parse().unwrap(), RType::A)
            .with_edns(1232, false)
            .build()
            .encode()
            .unwrap();
        id = id.wrapping_add(1);
        sock.send_to(&wire, server.udp_addr()).unwrap();
        let _ = sock.recv_from(&mut buf); // drain replies, tolerate drops
    }
    // let in-flight datagrams finish before sealing the tap
    std::thread::sleep(Duration::from_millis(100));
    let records = server.shutdown().unwrap();
    let (final_dropped, final_responses) = (dropped.get(), responses.get());
    assert!(records > 0, "tap stayed empty");

    let (_analysis, _dualstack, ingest) =
        analyze_capture(&spec, scale, seed, &capture).expect("capture analyzes");
    assert_eq!(ingest.malformed, 0);
    assert_eq!(
        ingest.unanswered_queries, final_dropped,
        "every RRL drop must appear as a query with no response \
         (dropped {final_dropped}, responses {final_responses})"
    );
    assert!(ingest.unanswered_queries >= 3);
    assert_eq!(
        ingest.rows,
        final_dropped + final_responses,
        "one row per query"
    );

    std::fs::remove_file(&capture).ok();
}
