//! Full DNS messages: questions, records, parse and encode.

use crate::edns::Edns;
use crate::error::WireError;
use crate::header::{Header, HEADER_LEN};
use crate::name::{Name, NameEncoder, ReusableCompressor};
use crate::rdata::RData;
use crate::types::{RClass, RType, Rcode};
use std::cell::RefCell;

thread_local! {
    /// The compressor and output buffer behind [`Message::encode`] and
    /// [`Message::encode_with_limit`]: reused, so the only allocation of
    /// an encode is the returned `Vec`.
    static ENCODER: RefCell<(ReusableCompressor, Vec<u8>)> =
        RefCell::new((ReusableCompressor::new(), Vec::new()));
}

/// A question-section entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    /// Queried name.
    pub qname: Name,
    /// Queried type.
    pub qtype: RType,
    /// Queried class (almost always IN).
    pub qclass: RClass,
}

impl Question {
    /// A class-IN question.
    pub fn new(qname: Name, qtype: RType) -> Self {
        Question {
            qname,
            qtype,
            qclass: RClass::In,
        }
    }

    fn encode<C: NameEncoder>(&self, comp: &mut C, out: &mut Vec<u8>) {
        comp.encode_name(&self.qname, out);
        out.extend_from_slice(&self.qtype.to_u16().to_be_bytes());
        out.extend_from_slice(&self.qclass.to_u16().to_be_bytes());
    }
}

/// A resource record in the answer, authority or additional section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: Name,
    /// Class (IN except for OPT, which abuses the field).
    pub class: RClass,
    /// Time to live, seconds.
    pub ttl: u32,
    /// Typed record data.
    pub rdata: RData,
}

impl Record {
    /// A class-IN record.
    pub fn new(name: Name, ttl: u32, rdata: RData) -> Self {
        Record {
            name,
            class: RClass::In,
            ttl,
            rdata,
        }
    }

    /// The record type.
    pub fn rtype(&self) -> RType {
        self.rdata.rtype()
    }

    fn encode<C: NameEncoder>(&self, comp: &mut C, out: &mut Vec<u8>) -> Result<(), WireError> {
        comp.encode_name(&self.name, out);
        out.extend_from_slice(&self.rtype().to_u16().to_be_bytes());
        out.extend_from_slice(&self.class.to_u16().to_be_bytes());
        out.extend_from_slice(&self.ttl.to_be_bytes());
        let rdlen_at = out.len();
        out.extend_from_slice(&[0, 0]);
        let rdata_start = out.len();
        self.rdata.encode(comp, out)?;
        let rdlen = out.len() - rdata_start;
        out[rdlen_at] = (rdlen >> 8) as u8;
        out[rdlen_at + 1] = rdlen as u8;
        Ok(())
    }
}

/// A complete DNS message.
///
/// The OPT pseudo-record, if present, is lifted out of the additional
/// section into [`Message::edns`], and its extended-rcode bits are merged
/// into [`Header::rcode`] — matching how measurement pipelines reason
/// about messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Header (with merged extended rcode).
    pub header: Header,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section.
    pub authorities: Vec<Record>,
    /// Additional section, *excluding* the OPT record.
    pub additionals: Vec<Record>,
    /// EDNS(0) data, if an OPT record was present.
    pub edns: Option<Edns>,
}

impl Message {
    /// An empty message with the given header.
    pub fn new(header: Header) -> Self {
        Message {
            header,
            questions: Vec::new(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
            edns: None,
        }
    }

    /// Parse a message from wire bytes.
    pub fn parse(msg: &[u8]) -> Result<Message, WireError> {
        let mut questions = Vec::new();
        let mut sections: [Vec<Record>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut edns = None;
        let header = walk::<Build>(msg, |entry| match entry {
            Entry::Question(qname, qtype, qclass) => questions.push(Question {
                qname,
                qtype,
                qclass,
            }),
            Entry::Record(si, name, class, ttl, rdata) => sections[si].push(Record {
                name,
                class,
                ttl,
                rdata,
            }),
            Entry::Edns(e) => edns = Some(e),
        })?;
        let [answers, authorities, additionals] = sections;
        Ok(Message {
            header,
            questions,
            answers,
            authorities,
            additionals,
            edns,
        })
    }

    /// Read a message through its header: every check of
    /// [`Message::parse`] (so `Err` exactly when `parse` fails), but no
    /// name, record or option is built. Returns the header with the
    /// OPT's extended-rcode bits merged into `rcode`, as `parse` does —
    /// what a response contributes to a joined query row.
    pub fn parse_header(msg: &[u8]) -> Result<Header, WireError> {
        walk::<Check>(msg, |_| {})
    }

    /// Encode to wire bytes with name compression. No size limit — for
    /// TCP, or as the first step of [`Message::encode_with_limit`].
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        ENCODER.with(|cell| {
            let (comp, buf) = &mut *cell.borrow_mut();
            self.encode_into(comp, buf)?;
            Ok(buf.to_vec())
        })
    }

    /// Encode for UDP under a payload-size limit.
    ///
    /// If the full message does not fit, records are dropped (additional
    /// first, then authority, then answer — all-or-nothing per section is
    /// NOT used; we drop from the tail, matching common server behaviour)
    /// and the TC bit is set, telling the client to retry over TCP. This
    /// is the mechanism behind the paper's truncation-rate comparison
    /// (Facebook 17.16% vs Google 0.04%, §4.4).
    pub fn encode_with_limit(&self, limit: usize) -> Result<(Vec<u8>, bool), WireError> {
        ENCODER.with(|cell| {
            let (comp, buf) = &mut *cell.borrow_mut();
            self.encode_into(comp, buf)?;
            let truncated = self.fit_encoded(buf, limit)?;
            Ok((buf.to_vec(), truncated))
        })
    }

    /// Truncate `wire`, this message's encoding, to `limit` octets the
    /// way [`Message::encode_with_limit`] does, without encoding again:
    /// keep the longest run of records (answer, authority, additional
    /// order) that fits with the OPT record re-appended. Returns whether
    /// it truncated; [`WireError::WontFit`] when even the header,
    /// question and OPT exceed `limit`.
    pub fn fit_encoded(&self, wire: &mut Vec<u8>, limit: usize) -> Result<bool, WireError> {
        if wire.len() <= limit {
            return Ok(false);
        }
        let opt_len = self.edns.as_ref().map_or(0, Edns::encoded_len);
        let mut end = self.questions_end(wire);
        if end + opt_len > limit {
            return Err(WireError::WontFit { limit });
        }
        let mut keep = 0;
        loop {
            let next = skip_record(wire, end);
            if next + opt_len > limit {
                break;
            }
            end = next;
            keep += 1;
        }
        self.cut_at(wire, keep, end);
        Ok(true)
    }

    /// Cut `wire`, this message's encoding, to its first `keep` records
    /// (answer, authority, additional order) with the OPT record
    /// re-appended and TC set: the bytes of a copy of the message with
    /// the other records removed and `header.truncated` set, encoded.
    /// `keep = 0` is an RRL slip.
    pub fn truncate_encoded(&self, wire: &mut Vec<u8>, keep: usize) {
        let mut end = self.questions_end(wire);
        for _ in 0..keep {
            end = skip_record(wire, end);
        }
        self.cut_at(wire, keep, end);
    }

    /// End offset of the question section in this message's encoding.
    fn questions_end(&self, wire: &[u8]) -> usize {
        let mut pos = HEADER_LEN;
        for _ in &self.questions {
            pos = skip_encoded_name(wire, pos) + 4;
        }
        pos
    }

    /// Move the OPT record (the tail of `wire`) to `end`, where the
    /// first `keep` records end, then patch the counts and set TC.
    fn cut_at(&self, wire: &mut Vec<u8>, keep: usize, end: usize) {
        let opt_len = self.edns.as_ref().map_or(0, Edns::encoded_len);
        let opt_at = wire.len() - opt_len;
        wire.copy_within(opt_at.., end);
        wire.truncate(end + opt_len);
        let an = keep.min(self.answers.len());
        let ns = (keep - an).min(self.authorities.len());
        let ar = keep - an - ns + usize::from(self.edns.is_some());
        for (i, count) in [an, ns, ar].into_iter().enumerate() {
            wire[6 + 2 * i..8 + 2 * i].copy_from_slice(&(count as u16).to_be_bytes());
        }
        wire[2] |= 0x02; // TC
    }

    /// Encode into caller-owned buffers, reusing their capacity: `out`
    /// is cleared and `comp` reset first, so a hot loop that keeps both
    /// across messages performs zero heap allocations in steady state.
    /// Produces bytes identical to [`Message::encode`].
    pub fn encode_into(
        &self,
        comp: &mut ReusableCompressor,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        out.clear();
        comp.reset();
        self.encode_sections(comp, out)
    }

    /// Encode every section through `comp` (the oracle tests pass the
    /// reference compressor here).
    pub(crate) fn encode_sections<C: NameEncoder>(
        &self,
        comp: &mut C,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        let opt_count = usize::from(self.edns.is_some());
        self.header.encode(
            [
                self.questions.len() as u16,
                self.answers.len() as u16,
                self.authorities.len() as u16,
                (self.additionals.len() + opt_count) as u16,
            ],
            out,
        );
        for q in &self.questions {
            q.encode(comp, out);
        }
        for r in self
            .answers
            .iter()
            .chain(&self.authorities)
            .chain(&self.additionals)
        {
            r.encode(comp, out)?;
        }
        if let Some(edns) = &self.edns {
            edns.encode_with_rcode_bits((self.header.rcode.to_u16() >> 4) as u8, out);
        }
        Ok(())
    }

    /// The first question, if any — the common case for queries.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }
}

/// Position just past a name in well-formed encoder output.
fn skip_encoded_name(wire: &[u8], mut pos: usize) -> usize {
    loop {
        match wire[pos] {
            0 => return pos + 1,
            b if b & 0xc0 == 0xc0 => return pos + 2,
            b => pos += 1 + b as usize,
        }
    }
}

/// Position just past the record at `pos` in well-formed encoder output.
fn skip_record(wire: &[u8], pos: usize) -> usize {
    let p = skip_encoded_name(wire, pos);
    p + 10 + u16::from_be_bytes([wire[p + 8], wire[p + 9]]) as usize
}

/// How a section walk decodes what it visits: [`Build`] into owned
/// values for [`Message::parse`], [`Check`] into nothing for
/// [`Message::parse_header`]. Every check lives in [`walk`] and in the
/// `Name`/`RData`/`Edns` checks both decoders call, so the two accept
/// exactly the same inputs.
trait Decode {
    type Name;
    type RData;
    type Edns;
    fn name(msg: &[u8], pos: usize) -> Result<(Self::Name, usize), WireError>;
    fn is_root(name: &Self::Name) -> bool;
    fn rdata(
        rtype: RType,
        msg: &[u8],
        start: usize,
        rdlen: usize,
    ) -> Result<Self::RData, WireError>;
    fn edns(class_field: u16, ttl_field: u32, rdata: &[u8]) -> Result<Self::Edns, WireError>;
}

struct Build;

impl Decode for Build {
    type Name = Name;
    type RData = RData;
    type Edns = Edns;
    fn name(msg: &[u8], pos: usize) -> Result<(Name, usize), WireError> {
        Name::parse(msg, pos)
    }
    fn is_root(name: &Name) -> bool {
        name.is_root()
    }
    fn rdata(rtype: RType, msg: &[u8], start: usize, rdlen: usize) -> Result<RData, WireError> {
        RData::parse(rtype, msg, start, rdlen)
    }
    fn edns(class_field: u16, ttl_field: u32, rdata: &[u8]) -> Result<Edns, WireError> {
        Edns::from_record_fields(class_field, ttl_field, rdata)
    }
}

struct Check;

impl Decode for Check {
    /// The uncompressed wire length.
    type Name = usize;
    type RData = ();
    type Edns = ();
    fn name(msg: &[u8], pos: usize) -> Result<(usize, usize), WireError> {
        Name::skip(msg, pos)
    }
    fn is_root(wire_len: &usize) -> bool {
        *wire_len == 1
    }
    fn rdata(rtype: RType, msg: &[u8], start: usize, rdlen: usize) -> Result<(), WireError> {
        RData::check(rtype, msg, start, rdlen)
    }
    fn edns(_class_field: u16, _ttl_field: u32, rdata: &[u8]) -> Result<(), WireError> {
        Edns::check_options(rdata)
    }
}

/// One decoded section entry.
enum Entry<D: Decode> {
    Question(D::Name, RType, RClass),
    /// Section index (0 answer, 1 authority, 2 additional), owner,
    /// class, TTL, RDATA.
    Record(usize, D::Name, RClass, u32, D::RData),
    Edns(D::Edns),
}

/// Walk every section of `msg`, checking it and handing each entry to
/// `visit`. Returns the header with the OPT's extended-rcode bits merged
/// into `rcode` (RFC 6891 §6.1.3).
fn walk<D: Decode>(msg: &[u8], mut visit: impl FnMut(Entry<D>)) -> Result<Header, WireError> {
    let (mut header, counts) = Header::parse(msg)?;
    let mut pos = HEADER_LEN;

    for _ in 0..counts[0] {
        let (qname, p) = D::name(msg, pos).map_err(|e| section_err(e, "question"))?;
        if p + 4 > msg.len() {
            return Err(section_err(
                WireError::Truncated { offset: msg.len() },
                "question",
            ));
        }
        let qtype = RType::from_u16(u16::from_be_bytes([msg[p], msg[p + 1]]));
        let qclass = RClass::from_u16(u16::from_be_bytes([msg[p + 2], msg[p + 3]]));
        visit(Entry::Question(qname, qtype, qclass));
        pos = p + 4;
    }

    let mut seen_opt = false;
    for (si, count) in counts[1..].iter().enumerate() {
        let section_name = ["answer", "authority", "additional"][si];
        for _ in 0..*count {
            let (name, p) = D::name(msg, pos).map_err(|e| section_err(e, section_name))?;
            if p + 10 > msg.len() {
                return Err(WireError::Truncated { offset: msg.len() });
            }
            let rtype = RType::from_u16(u16::from_be_bytes([msg[p], msg[p + 1]]));
            let class_field = u16::from_be_bytes([msg[p + 2], msg[p + 3]]);
            let ttl_field = u32::from_be_bytes([msg[p + 4], msg[p + 5], msg[p + 6], msg[p + 7]]);
            let rdlen = u16::from_be_bytes([msg[p + 8], msg[p + 9]]) as usize;
            let rdata_start = p + 10;
            if rdata_start + rdlen > msg.len() {
                return Err(WireError::Truncated { offset: msg.len() });
            }
            if rtype == RType::Opt {
                if si != 2 || seen_opt || !D::is_root(&name) {
                    return Err(WireError::MalformedEdns);
                }
                let e = D::edns(
                    class_field,
                    ttl_field,
                    &msg[rdata_start..rdata_start + rdlen],
                )?;
                // Merge extended rcode: high 8 bits from OPT, low 4
                // from the header.
                let extended_rcode_bits = (ttl_field >> 24) as u16;
                if extended_rcode_bits != 0 {
                    let low = header.rcode.to_u16() & 0x0f;
                    header.rcode = Rcode::from_u16((extended_rcode_bits << 4) | low);
                }
                seen_opt = true;
                visit(Entry::Edns(e));
            } else {
                let rdata = D::rdata(rtype, msg, rdata_start, rdlen)?;
                visit(Entry::Record(
                    si,
                    name,
                    RClass::from_u16(class_field),
                    ttl_field,
                    rdata,
                ));
            }
            pos = rdata_start + rdlen;
        }
    }
    Ok(header)
}

fn section_err(e: WireError, section: &'static str) -> WireError {
    match e {
        WireError::Truncated { .. } => WireError::CountMismatch { section },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::Header;
    use crate::name::NameCompressor;
    use proptest::prelude::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn sample_response() -> Message {
        let mut msg = Message::new(Header::response_to(
            &Header::request(0xabcd),
            Rcode::NoError,
        ));
        msg.questions
            .push(Question::new(n("example.nl"), RType::Ns));
        msg.answers.push(Record::new(
            n("example.nl"),
            3600,
            RData::Ns(n("ns1.example.nl")),
        ));
        msg.answers.push(Record::new(
            n("example.nl"),
            3600,
            RData::Ns(n("ns2.example.nl")),
        ));
        msg.additionals.push(Record::new(
            n("ns1.example.nl"),
            3600,
            RData::A("192.0.2.53".parse().unwrap()),
        ));
        msg.additionals.push(Record::new(
            n("ns1.example.nl"),
            3600,
            RData::Aaaa("2001:db8::53".parse().unwrap()),
        ));
        msg.edns = Some(Edns::with_size(1232, true));
        msg
    }

    #[test]
    fn roundtrip_full_response() {
        let msg = sample_response();
        let bytes = msg.encode().unwrap();
        let parsed = Message::parse(&bytes).unwrap();
        assert_eq!(parsed, msg);
    }

    #[test]
    fn roundtrip_bare_query() {
        let mut msg = Message::new(Header::request(1));
        msg.questions.push(Question::new(n("nz"), RType::Soa));
        let bytes = msg.encode().unwrap();
        assert_eq!(bytes.len(), HEADER_LEN + 1 + 2 + 1 + 4);
        let parsed = Message::parse(&bytes).unwrap();
        assert_eq!(parsed, msg);
    }

    #[test]
    fn compression_shrinks_messages() {
        let msg = sample_response();
        let compressed = msg.encode().unwrap();
        // Rough check: the owner name "example.nl" appears many times; the
        // compressed form must be far below the naive sum.
        let naive: usize = 12
            + msg.questions.iter().map(|q| q.qname.wire_len() + 4).sum::<usize>()
            + 2 * (12 + 16) // two NS records, uncompressed estimate
            + 2 * (16 + 14)
            + 11;
        assert!(compressed.len() < naive, "{} !< {naive}", compressed.len());
    }

    #[test]
    fn encode_into_matches_encode_and_reuses_buffers() {
        let msg = sample_response();
        let fresh = msg.encode().unwrap();
        let mut comp = ReusableCompressor::new();
        let mut out = Vec::new();
        msg.encode_into(&mut comp, &mut out).unwrap();
        assert_eq!(out, fresh, "byte-identical to the allocating path");
        // reuse across different messages: stale state must not leak
        let mut other = Message::new(Header::request(7));
        other.questions.push(Question::new(n("x.nz"), RType::A));
        msg.encode_into(&mut comp, &mut out).unwrap();
        other.encode_into(&mut comp, &mut out).unwrap();
        assert_eq!(out, other.encode().unwrap());
        msg.encode_into(&mut comp, &mut out).unwrap();
        assert_eq!(out, fresh);
        // and the extended rcode merge behaves like encode()
        let mut ext = sample_response();
        ext.header.rcode = Rcode::BadVers;
        ext.encode_into(&mut comp, &mut out).unwrap();
        assert_eq!(out, ext.encode().unwrap());
        assert_eq!(Message::parse(&out).unwrap().header.rcode, Rcode::BadVers);
    }

    #[test]
    fn truncation_drops_and_sets_tc() {
        let msg = sample_response();
        let full = msg.encode().unwrap();
        let (bytes, truncated) = msg.encode_with_limit(full.len() - 1).unwrap();
        assert!(truncated);
        assert!(bytes.len() < full.len());
        let parsed = Message::parse(&bytes).unwrap();
        assert!(parsed.header.truncated);
        assert_eq!(parsed.questions, msg.questions, "question always kept");
    }

    #[test]
    fn no_truncation_when_it_fits() {
        let msg = sample_response();
        let full = msg.encode().unwrap();
        let (bytes, truncated) = msg.encode_with_limit(4096).unwrap();
        assert!(!truncated);
        assert_eq!(bytes, full);
    }

    #[test]
    fn truncation_to_empty_when_limit_tiny() {
        let msg = sample_response();
        // Enough for header+question+OPT only.
        let mut empty = msg.clone();
        empty.answers.clear();
        empty.authorities.clear();
        empty.additionals.clear();
        let floor = empty.encode().unwrap().len();
        let (bytes, truncated) = msg.encode_with_limit(floor).unwrap();
        assert!(truncated);
        let parsed = Message::parse(&bytes).unwrap();
        assert!(parsed.answers.is_empty());
        assert!(parsed.header.truncated);
    }

    #[test]
    fn wont_fit_when_question_alone_overflows() {
        let msg = sample_response();
        assert!(matches!(
            msg.encode_with_limit(10),
            Err(WireError::WontFit { .. })
        ));
    }

    #[test]
    fn opt_outside_additional_is_malformed() {
        let msg = sample_response();
        let bytes = msg.encode().unwrap();
        let parsed = Message::parse(&bytes).unwrap();
        assert!(parsed.edns.is_some());
        // craft: change answer count to claim OPT in answer section —
        // simpler: build a message whose answer section contains an OPT.
        let mut raw = Vec::new();
        Header::request(5).encode([0, 1, 0, 0], &mut raw);
        Edns::with_size(512, false).encode(&mut raw);
        assert_eq!(Message::parse(&raw), Err(WireError::MalformedEdns));
    }

    #[test]
    fn double_opt_is_malformed() {
        let mut raw = Vec::new();
        Header::request(5).encode([0, 0, 0, 2], &mut raw);
        Edns::with_size(512, false).encode(&mut raw);
        Edns::with_size(512, false).encode(&mut raw);
        assert_eq!(Message::parse(&raw), Err(WireError::MalformedEdns));
    }

    #[test]
    fn extended_rcode_merges() {
        // Header rcode low bits 0 + OPT extended bits 1 => rcode 16 (BADVERS)
        let mut raw = Vec::new();
        let mut h = Header::request(5);
        h.response = true;
        h.encode([0, 0, 0, 1], &mut raw);
        let e = Edns {
            extended_rcode_bits: 1,
            ..Edns::with_size(512, false)
        };
        e.encode(&mut raw);
        let parsed = Message::parse(&raw).unwrap();
        assert_eq!(parsed.header.rcode, Rcode::BadVers);
    }

    #[test]
    fn extended_rcode_reencodes() {
        let mut msg = Message::new(Header::request(9));
        msg.header.response = true;
        msg.header.rcode = Rcode::BadVers;
        msg.edns = Some(Edns::with_size(1232, false));
        let bytes = msg.encode().unwrap();
        let parsed = Message::parse(&bytes).unwrap();
        assert_eq!(parsed.header.rcode, Rcode::BadVers);
    }

    #[test]
    fn count_mismatch_detected() {
        let mut raw = Vec::new();
        Header::request(5).encode([2, 0, 0, 0], &mut raw); // claims 2 questions
        let mut comp = ReusableCompressor::new();
        Question::new(n("example.nl"), RType::A).encode(&mut comp, &mut raw);
        assert_eq!(
            Message::parse(&raw),
            Err(WireError::CountMismatch {
                section: "question"
            })
        );
    }

    /// The reference encoding: every section through [`NameCompressor`].
    fn oracle_encode(msg: &Message) -> Vec<u8> {
        let mut out = Vec::new();
        msg.encode_sections(&mut NameCompressor::new(), &mut out)
            .unwrap();
        out
    }

    /// The truncation [`Message::encode_with_limit`] replaced: clone the
    /// message, drop one record from the tail, set TC, re-encode; repeat
    /// until it fits.
    fn oracle_with_limit(msg: &Message, limit: usize) -> Result<(Vec<u8>, bool), WireError> {
        let full = oracle_encode(msg);
        if full.len() <= limit {
            return Ok((full, false));
        }
        let (mut an, mut ns, mut ar) = (
            msg.answers.len(),
            msg.authorities.len(),
            msg.additionals.len(),
        );
        loop {
            let last = an + ns + ar == 0;
            if ar > 0 {
                ar -= 1;
            } else if ns > 0 {
                ns -= 1;
            } else {
                an = an.saturating_sub(1);
            }
            let mut cut = msg.clone();
            cut.header.truncated = true;
            cut.answers.truncate(an);
            cut.authorities.truncate(ns);
            cut.additionals.truncate(ar);
            let bytes = oracle_encode(&cut);
            if bytes.len() <= limit {
                return Ok((bytes, true));
            }
            if last {
                return Err(WireError::WontFit { limit });
            }
        }
    }

    /// Labels drawn from a small pool so names share suffixes.
    const POOL: [&str; 8] = ["a", "ns1", "example", "nl", "nz", "co", "www", "b"];

    /// A name of up to four pooled labels, each octet's case flipped by
    /// the mask.
    fn pooled_name() -> impl Strategy<Value = Name> {
        prop::collection::vec((0usize..POOL.len(), any::<u64>()), 0..=4).prop_map(|labels| {
            let labels: Vec<Vec<u8>> = labels
                .iter()
                .map(|&(i, mask)| {
                    POOL[i]
                        .bytes()
                        .enumerate()
                        .map(|(j, b)| if mask >> j & 1 == 1 { b ^ 0x20 } else { b })
                        .collect()
                })
                .collect();
            Name::from_labels(labels.iter().map(|l| l.as_slice())).unwrap()
        })
    }

    fn pooled_record() -> impl Strategy<Value = Record> {
        let rdata = prop_oneof![
            any::<[u8; 4]>().prop_map(|o| RData::A(o.into())),
            pooled_name().prop_map(RData::Ns),
            (any::<u16>(), pooled_name()).prop_map(|(preference, exchange)| RData::Mx {
                preference,
                exchange
            }),
            (pooled_name(), pooled_name()).prop_map(|(mname, rname)| RData::Soa {
                mname,
                rname,
                serial: 1,
                refresh: 2,
                retry: 3,
                expire: 4,
                minimum: 5,
            }),
            // bulk that pushes later names past the 0x3FFF pointer range
            prop::collection::vec(prop::collection::vec(any::<u8>(), 255), 0..=24)
                .prop_map(RData::Txt),
        ];
        (pooled_name(), rdata).prop_map(|(name, rdata)| Record::new(name, 60, rdata))
    }

    fn pooled_message() -> impl Strategy<Value = Message> {
        (
            any::<u16>(),
            prop::collection::vec(pooled_name(), 0..=2),
            prop::collection::vec(pooled_record(), 0..=6),
            prop::collection::vec(pooled_record(), 0..=6),
            prop::collection::vec(pooled_record(), 0..=6),
            prop::option::of((512u16..=4096, 0u16..=2)),
        )
            .prop_map(|(id, qnames, answers, authorities, additionals, edns)| {
                let mut msg = Message::new(Header::request(id));
                msg.questions = qnames
                    .into_iter()
                    .map(|q| Question::new(q, RType::A))
                    .collect();
                msg.answers = answers;
                msg.authorities = authorities;
                msg.additionals = additionals;
                if let Some((size, options)) = edns {
                    let mut e = Edns::with_size(size, true);
                    e.options = (0..options).map(|c| (c, vec![c as u8; 3])).collect();
                    msg.edns = Some(e);
                }
                msg
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// `encode`, `encode_into` and `encode_with_limit` produce the
        /// reference compressor's bytes and the clone-and-re-encode
        /// truncation's output, at every limit from "too small for
        /// anything" to "fits whole".
        #[test]
        fn encoders_match_the_reference(msg in pooled_message(), cuts in prop::collection::vec(0usize..=100, 4)) {
            let expected = oracle_encode(&msg);
            prop_assert_eq!(&msg.encode().unwrap(), &expected);
            let mut comp = ReusableCompressor::new();
            let mut out = vec![0xff; 3];
            msg.encode_into(&mut comp, &mut out).unwrap();
            prop_assert_eq!(&out, &expected);
            for pct in cuts {
                let limit = expected.len() * pct / 100;
                prop_assert_eq!(msg.encode_with_limit(limit), oracle_with_limit(&msg, limit));
            }
        }
    }

    #[test]
    fn offsets_past_the_pointer_range_are_not_recorded() {
        // a record whose RDATA fills the first 16 KiB: later names must
        // not point into it, and must still match the reference
        let mut msg = sample_response();
        msg.answers.insert(
            0,
            Record::new(
                n("bulk.example.nl"),
                60,
                RData::Txt(vec![vec![b'x'; 255]; 70]),
            ),
        );
        msg.answers.push(Record::new(
            n("late.other.nz"),
            60,
            RData::Ns(n("ns.late.other.nz")),
        ));
        let bytes = msg.encode().unwrap();
        assert!(bytes.len() > 0x3fff);
        assert_eq!(bytes, oracle_encode(&msg));
        assert_eq!(Message::parse(&bytes).unwrap(), msg);
    }

    #[test]
    fn slip_is_the_record_free_truncation() {
        let msg = sample_response();
        let mut wire = msg.encode().unwrap();
        msg.truncate_encoded(&mut wire, 0);
        let mut slip = msg.clone();
        slip.answers.clear();
        slip.authorities.clear();
        slip.additionals.clear();
        slip.header.truncated = true;
        assert_eq!(wire, slip.encode().unwrap());
    }

    #[test]
    fn header_view_matches_parse() {
        let mut msg = sample_response();
        msg.header.rcode = Rcode::BadVers;
        msg.header.truncated = true;
        let bytes = msg.encode().unwrap();
        let view = Message::parse_header(&bytes).unwrap();
        assert_eq!(view, Message::parse(&bytes).unwrap().header);
        assert_eq!(view.rcode, Rcode::BadVers);
        assert!(view.truncated);
        assert_eq!(
            Message::parse_header(&bytes[..bytes.len() - 1]),
            Message::parse(&bytes[..bytes.len() - 1]).map(|m| m.header)
        );
    }

    #[test]
    fn garbage_never_panics() {
        // quick deterministic fuzz: parse every prefix of a valid message
        let bytes = sample_response().encode().unwrap();
        for end in 0..bytes.len() {
            let _ = Message::parse(&bytes[..end]);
        }
        // and a few byte-flips
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0xff;
            let _ = Message::parse(&b);
        }
    }
}
