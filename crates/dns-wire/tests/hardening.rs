//! Hardening corpus: hand-crafted hostile wire inputs. Every case must
//! return a typed error (or a correct parse) — never panic, hang, or
//! over-allocate. Every input also goes through the header view
//! ([`Message::parse_header`]), which must agree with the full parse.

use dns_wire::error::WireError;
use dns_wire::header::Header;
use dns_wire::message::Message;
use dns_wire::name::Name;

/// [`Message::parse`], checking on the way that the header view agrees
/// with it: `Err` exactly when `parse` fails, else the same id, rcode
/// (extended bits merged) and TC.
fn parse(msg: &[u8]) -> Result<Message, WireError> {
    let full = Message::parse(msg);
    let view = Message::parse_header(msg);
    match (&full, &view) {
        (Ok(m), Ok(h)) => {
            assert_eq!(m.header.id, h.id, "{msg:02x?}");
            assert_eq!(m.header.rcode, h.rcode, "{msg:02x?}");
            assert_eq!(m.header.truncated, h.truncated, "{msg:02x?}");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{msg:02x?}"),
        _ => panic!("parse {full:?} vs header view {view:?} on {msg:02x?}"),
    }
    full
}

/// Build a raw message skeleton: header with given counts + body bytes.
fn raw(counts: [u16; 4], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    Header::request(0xdead).encode(counts, &mut out);
    out.extend_from_slice(body);
    out
}

#[test]
fn compression_pointer_self_loop() {
    // question name is a pointer to itself
    let msg = raw([1, 0, 0, 0], &[0xc0, 0x0c, 0x00, 0x01, 0x00, 0x01]);
    assert!(matches!(parse(&msg), Err(WireError::BadPointer { .. })));
}

#[test]
fn compression_pointer_two_hop_cycle() {
    // name at 12 points to 14; name at 14 points to 12
    let body = [0xc0, 14, 0xc0, 12, 0x00, 0x01, 0x00, 0x01];
    let msg = raw([1, 0, 0, 0], &body);
    assert!(parse(&msg).is_err());
}

#[test]
fn deep_pointer_chain_is_bounded() {
    // 200 chained pointers, each pointing 2 bytes back — must be refused
    // (hop limit), not walked forever.
    let mut body = vec![0x00]; // root name at offset 12
    for i in 0..200u16 {
        let target = 12 + i * 2;
        // each pointer points at the previous pointer
        body.push(0xc0 | ((target >> 8) as u8 & 0x3f));
        body.push(target as u8);
    }
    body.extend_from_slice(&[0x00, 0x01, 0x00, 0x01]);
    let msg = raw([1, 0, 0, 0], &body);
    let _ = parse(&msg); // any Err is fine; must terminate
}

#[test]
fn label_runs_past_end() {
    let msg = raw([1, 0, 0, 0], &[0x3f, b'a', b'b']);
    assert!(parse(&msg).is_err());
}

#[test]
fn name_exactly_at_255_limit() {
    // 3 labels of 63 + 1 label of 61 = 63*3+3 + 62 + 1 = 255 octets: legal
    let l63 = vec![b'x'; 63];
    let l61 = vec![b'y'; 61];
    let name = Name::from_labels([l63.as_slice(), &l63, &l63, &l61]).unwrap();
    assert_eq!(name.wire_len(), 255);
    // one more byte tips it over
    let l62 = vec![b'y'; 62];
    assert!(matches!(
        Name::from_labels([l63.as_slice(), &l63, &l63, &l62]),
        Err(WireError::NameTooLong(_))
    ));
}

#[test]
fn counts_larger_than_body() {
    for counts in [[100, 0, 0, 0], [1, 100, 0, 0], [0, 0, 0, 50]] {
        let msg = raw(counts, &[0x00, 0x00, 0x01, 0x00, 0x01]);
        assert!(parse(&msg).is_err(), "{counts:?}");
    }
}

#[test]
fn rdlength_overflowing_usize_arithmetic() {
    // record with rdlength 0xffff but 2 bytes of rdata
    let mut body = Vec::new();
    body.extend_from_slice(&[0x00]); // owner: root
    body.extend_from_slice(&[0x00, 0x01]); // type A
    body.extend_from_slice(&[0x00, 0x01]); // class IN
    body.extend_from_slice(&[0, 0, 0, 60]); // ttl
    body.extend_from_slice(&[0xff, 0xff]); // rdlength
    body.extend_from_slice(&[1, 2]);
    let msg = raw([0, 1, 0, 0], &body);
    assert!(matches!(parse(&msg), Err(WireError::Truncated { .. })));
}

#[test]
fn opt_with_truncated_option_tlv() {
    let mut body = Vec::new();
    body.push(0x00); // root owner
    body.extend_from_slice(&41u16.to_be_bytes()); // OPT
    body.extend_from_slice(&4096u16.to_be_bytes()); // class = size
    body.extend_from_slice(&[0, 0, 0, 0]); // ttl
    body.extend_from_slice(&6u16.to_be_bytes()); // rdlength
    body.extend_from_slice(&[0, 10, 0, 200, 1, 2]); // opt len 200, 2 bytes
    let msg = raw([0, 0, 0, 1], &body);
    assert!(parse(&msg).is_err());
}

#[test]
fn txt_with_zero_length_strings() {
    // TXT rdata of 3 zero-length character-strings is legal
    let mut body = Vec::new();
    body.push(0x00);
    body.extend_from_slice(&16u16.to_be_bytes()); // TXT
    body.extend_from_slice(&1u16.to_be_bytes());
    body.extend_from_slice(&[0, 0, 0, 60]);
    body.extend_from_slice(&3u16.to_be_bytes());
    body.extend_from_slice(&[0, 0, 0]);
    let msg = raw([0, 1, 0, 0], &body);
    let parsed = parse(&msg).expect("legal TXT");
    assert_eq!(parsed.answers.len(), 1);
}

#[test]
fn soa_name_crossing_rdata_boundary() {
    // SOA whose mname is a pointer to later bytes inside rdata but whose
    // declared rdlength cuts the fixed fields short
    let mut body = Vec::new();
    body.push(0x00);
    body.extend_from_slice(&6u16.to_be_bytes()); // SOA
    body.extend_from_slice(&1u16.to_be_bytes());
    body.extend_from_slice(&[0, 0, 0, 60]);
    body.extend_from_slice(&4u16.to_be_bytes()); // rdlength: way too short
    body.extend_from_slice(&[0x00, 0x00, 0x00, 0x00]);
    let msg = raw([0, 1, 0, 0], &body);
    assert!(parse(&msg).is_err());
}

#[test]
fn empty_and_header_only_inputs() {
    assert!(parse(&[]).is_err());
    assert!(parse(&[0u8; 11]).is_err());
    let ok = raw([0, 0, 0, 0], &[]);
    let parsed = parse(&ok).expect("header-only is a legal message");
    assert!(parsed.questions.is_empty());
}

#[test]
fn trailing_bytes_after_sections_are_tolerated() {
    // real captures contain padding; parser reads declared counts and
    // ignores the rest
    let mut msg = raw([1, 0, 0, 0], &[0x00, 0x00, 0x01, 0x00, 0x01]);
    msg.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
    assert!(parse(&msg).is_ok());
}

#[test]
fn tcp_deframer_hostile_lengths() {
    use dns_wire::tcp::Deframer;
    let mut d = Deframer::new();
    // claims 65535 bytes, delivers 3
    d.push(&[0xff, 0xff, 1, 2, 3]);
    assert_eq!(d.next_message(), None);
    assert_eq!(d.pending(), 5);
    // a zero-length frame mid-stream is fine
    let mut d = Deframer::new();
    d.push(&[0, 0, 0, 1, b'x']);
    assert_eq!(d.next_message(), Some(vec![]));
    assert_eq!(d.next_message(), Some(vec![b'x']));
}

#[test]
fn fuzz_smoke_random_blobs() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
    for _ in 0..20_000 {
        let len = rng.gen_range(0..160);
        let blob: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
        let _ = parse(&blob);
        let _ = Name::parse(&blob, 0);
        let _ = dns_wire::tcp::deframe_all(&blob);
    }
}

#[test]
fn header_view_agrees_with_parse_on_seeded_mutations() {
    use dns_wire::builder::MessageBuilder;
    use dns_wire::edns::Edns;
    use dns_wire::message::Record;
    use dns_wire::rdata::RData;
    use dns_wire::types::{RType, Rcode};
    use rand::{Rng, SeedableRng};

    let n = |s: &str| -> Name { s.parse().unwrap() };
    let query = MessageBuilder::query(7, n("www.example.nl"), RType::A)
        .with_edns(1232, true)
        .build();
    let mut referral = query.clone();
    referral.header.response = true;
    referral.header.rcode = Rcode::BadVers; // extended bits in the OPT
    referral.edns = Some(Edns::with_size(4096, true));
    for ns in ["ns1.example.nl", "ns2.example.nl"] {
        referral
            .authorities
            .push(Record::new(n("example.nl"), 3600, RData::Ns(n(ns))));
        referral.additionals.push(Record::new(
            n(ns),
            3600,
            RData::A("192.0.2.1".parse().unwrap()),
        ));
    }
    referral.authorities.push(Record::new(
        n("example.nl"),
        3600,
        RData::Ds {
            key_tag: 1,
            algorithm: 8,
            digest_type: 2,
            digest: vec![0xab; 32],
        },
    ));
    let mut nxdomain = query.clone();
    nxdomain.header.response = true;
    nxdomain.header.rcode = Rcode::NxDomain;
    nxdomain.authorities.push(Record::new(
        n("nl"),
        600,
        RData::Soa {
            mname: n("ns1.dns.nl"),
            rname: n("hostmaster.domain-registry.nl"),
            serial: 1,
            refresh: 2,
            retry: 3,
            expire: 4,
            minimum: 5,
        },
    ));
    let seeds: Vec<Vec<u8>> = [query, referral, nxdomain]
        .iter()
        .map(|m| m.encode().unwrap())
        .collect();

    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1eaf);
    let (mut ok, mut err) = (0, 0);
    for seed in &seeds {
        assert!(parse(seed).is_ok());
        for end in 0..seed.len() {
            let _ = parse(&seed[..end]);
        }
        for _ in 0..3000 {
            let mut m = seed.clone();
            for _ in 0..rng.gen_range(1..4) {
                let at = rng.gen_range(0..m.len());
                m[at] ^= rng.gen::<u8>() | 1;
            }
            match parse(&m) {
                Ok(_) => ok += 1,
                Err(_) => err += 1,
            }
        }
    }
    // the mutations reach both outcomes, so agreement is tested on each
    assert!(ok > 100 && err > 100, "ok {ok} err {err}");
}
