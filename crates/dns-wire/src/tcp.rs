//! DNS-over-TCP framing (RFC 1035 §4.2.2 / RFC 7766): each message on a
//! TCP stream is preceded by a two-octet, big-endian length field.
//!
//! The simulator frames TCP payloads with [`frame`]; capture ingest
//! splits whole captured payloads with [`split_all`], and the live
//! server deframes with [`Deframer`], an incremental decoder — segments
//! may split anywhere, including inside the length prefix.

use crate::error::WireError;

/// Maximum DNS message size carried over TCP (the length field's range).
pub const MAX_TCP_MESSAGE: usize = 65_535;

/// Frame one message for a TCP stream.
///
/// # Errors
/// [`WireError::WontFit`] if the message exceeds 65 535 octets.
pub fn frame(message: &[u8]) -> Result<Vec<u8>, WireError> {
    if message.len() > MAX_TCP_MESSAGE {
        return Err(WireError::WontFit {
            limit: MAX_TCP_MESSAGE,
        });
    }
    let mut out = Vec::with_capacity(2 + message.len());
    out.extend_from_slice(&(message.len() as u16).to_be_bytes());
    out.extend_from_slice(message);
    Ok(out)
}

/// Frame several messages back-to-back (a persistent RFC 7766 stream).
pub fn frame_all<'a>(messages: impl IntoIterator<Item = &'a [u8]>) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    for m in messages {
        out.extend_from_slice(&frame(m)?);
    }
    Ok(out)
}

/// Incremental TCP-stream deframer.
///
/// Feed arbitrary segment chunks with [`Deframer::push`]; complete
/// messages come out of [`Deframer::next_message`].
#[derive(Debug, Default)]
pub struct Deframer {
    buf: Vec<u8>,
    pos: usize,
}

impl Deframer {
    /// Fresh deframer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append stream bytes.
    pub fn push(&mut self, chunk: &[u8]) {
        // compact lazily so long streams don't grow unboundedly
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Pop the next complete message, if one is buffered.
    pub fn next_message(&mut self) -> Option<Vec<u8>> {
        let avail = self.buf.len() - self.pos;
        if avail < 2 {
            return None;
        }
        let len = u16::from_be_bytes([self.buf[self.pos], self.buf[self.pos + 1]]) as usize;
        if avail < 2 + len {
            return None;
        }
        let start = self.pos + 2;
        let msg = self.buf[start..start + len].to_vec();
        self.pos = start + len;
        Some(msg)
    }

    /// Bytes buffered but not yet consumed (partial frame).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// One-shot deframe of a whole stream; errors on trailing garbage.
pub fn deframe_all(stream: &[u8]) -> Result<Vec<Vec<u8>>, WireError> {
    Ok(split_all(stream)?.map(<[u8]>::to_vec).collect())
}

/// [`deframe_all`] without copying: the stream's messages as borrowed
/// slices, after checking that it ends exactly at a frame boundary.
pub fn split_all(stream: &[u8]) -> Result<impl Iterator<Item = &[u8]>, WireError> {
    let frame_end = |pos: usize| {
        let prefix = stream.get(pos..pos + 2)?;
        let end = pos + 2 + u16::from_be_bytes([prefix[0], prefix[1]]) as usize;
        (end <= stream.len()).then_some(end)
    };
    let mut pos = 0;
    while pos < stream.len() {
        pos = frame_end(pos).ok_or(WireError::Truncated { offset: pos })?;
    }
    let mut pos = 0;
    Ok(std::iter::from_fn(move || {
        let end = frame_end(pos)?;
        let msg = &stream[pos + 2..end];
        pos = end;
        Some(msg)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single() {
        let msg = b"\x12\x34hello dns".to_vec();
        let framed = frame(&msg).unwrap();
        assert_eq!(framed.len(), msg.len() + 2);
        assert_eq!(deframe_all(&framed).unwrap(), vec![msg]);
    }

    #[test]
    fn roundtrip_stream_of_messages() {
        let msgs: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; i as usize * 7 + 1]).collect();
        let stream = frame_all(msgs.iter().map(|m| m.as_slice())).unwrap();
        assert_eq!(deframe_all(&stream).unwrap(), msgs);
    }

    #[test]
    fn empty_message_is_legal() {
        let framed = frame(b"").unwrap();
        assert_eq!(framed, vec![0, 0]);
        assert_eq!(deframe_all(&framed).unwrap(), vec![Vec::<u8>::new()]);
    }

    #[test]
    fn oversized_message_rejected() {
        let big = vec![0u8; MAX_TCP_MESSAGE + 1];
        assert!(matches!(frame(&big), Err(WireError::WontFit { .. })));
        let exact = vec![0u8; MAX_TCP_MESSAGE];
        assert!(frame(&exact).is_ok());
    }

    #[test]
    fn incremental_byte_by_byte() {
        let msgs: Vec<Vec<u8>> = vec![b"abc".to_vec(), b"defgh".to_vec()];
        let stream = frame_all(msgs.iter().map(|m| m.as_slice())).unwrap();
        let mut d = Deframer::new();
        let mut got = Vec::new();
        for &b in &stream {
            d.push(&[b]);
            while let Some(m) = d.next_message() {
                got.push(m);
            }
        }
        assert_eq!(got, msgs);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn split_inside_length_prefix() {
        let msg = b"xyzzy".to_vec();
        let framed = frame(&msg).unwrap();
        let mut d = Deframer::new();
        d.push(&framed[..1]); // half the length field
        assert_eq!(d.next_message(), None);
        d.push(&framed[1..3]);
        assert_eq!(d.next_message(), None, "length known, body incomplete");
        d.push(&framed[3..]);
        assert_eq!(d.next_message(), Some(msg));
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut stream = frame(b"ok").unwrap();
        stream.push(0xff); // half a length prefix
        assert!(matches!(
            deframe_all(&stream),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn compaction_keeps_working() {
        let msg = vec![7u8; 600];
        let framed = frame(&msg).unwrap();
        let mut d = Deframer::new();
        for _ in 0..50 {
            d.push(&framed);
            assert_eq!(d.next_message(), Some(msg.clone()));
        }
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn real_dns_message_roundtrips_through_tcp_framing() {
        use crate::builder::MessageBuilder;
        use crate::message::Message;
        use crate::types::RType;
        let q = MessageBuilder::query(9, "example.nl.".parse().unwrap(), RType::Soa)
            .with_edns(1232, true)
            .build();
        let wire = q.encode().unwrap();
        let framed = frame(&wire).unwrap();
        let messages = deframe_all(&framed).unwrap();
        assert_eq!(Message::parse(&messages[0]).unwrap(), q);
    }
}
