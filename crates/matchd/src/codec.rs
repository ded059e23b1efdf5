//! The length-prefixed binary wire format (DESIGN.md §13).
//!
//! Every frame on the wire — client→daemon requests, daemon→client
//! responses, and (with an epoch header added) WAL records — is
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC32 of payload][payload]
//! ```
//!
//! The payload's first byte is the frame tag; everything after it is
//! tag-specific, little-endian, with explicit counts before every list.
//! Three properties are load-bearing:
//!
//! * **Bounded**: the length prefix is checked against [`MAX_FRAME`]
//!   *before* any allocation, and every list count inside a payload is
//!   checked against the bytes actually remaining, so a hostile frame can
//!   neither over-read nor force an oversized allocation.
//! * **Checksummed**: the CRC32 (IEEE, reflected 0xEDB88320) rejects
//!   bit-flips before the payload parser ever runs — the same code path
//!   that makes WAL torn-tail detection possible.
//! * **Total**: decoding is a total function into `Result` — malformed
//!   input yields a structured [`CodecError`], never a panic
//!   (`tests/codec_robustness.rs` fuzzes this).

use owp_engine::EngineEvent;
use owp_graph::NodeId;
use std::io::{Read, Write};

/// Wire protocol version carried in `HELLO`/`WELCOME`.
pub const PROTO_VERSION: u32 = 1;

/// Hard ceiling on a frame payload (4 MiB). Anything larger is rejected
/// from the length prefix alone, before allocation.
pub const MAX_FRAME: u32 = 4 << 20;

/// Bytes of framing overhead per record: length + CRC.
pub const FRAME_HEADER: u64 = 8;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven. The
// table is computed at compile time — no runtime init, no dependency.
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 checksum of `bytes` (IEEE, the zlib/Ethernet polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Structured decode failure. Every malformed input maps to one of these;
/// the decoder never panics and never reads past the declared length.
#[derive(Debug)]
pub enum CodecError {
    /// The peer closed the connection at a frame boundary (clean EOF).
    Eof,
    /// An I/O error from the underlying stream.
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversized {
        /// Declared payload length.
        len: u32,
        /// The ceiling it violated.
        max: u32,
    },
    /// The payload does not match its CRC32.
    Corrupt {
        /// CRC from the header.
        expected: u32,
        /// CRC of the bytes actually read.
        got: u32,
    },
    /// The payload ended before a field it declared.
    Truncated {
        /// Which field was being read.
        what: &'static str,
    },
    /// Unknown frame or event tag byte.
    UnknownTag {
        /// The offending tag.
        tag: u8,
    },
    /// Structurally invalid payload (e.g. trailing bytes, bad count).
    Malformed {
        /// What was wrong.
        what: &'static str,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Eof => write!(f, "connection closed"),
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte ceiling")
            }
            CodecError::Corrupt { expected, got } => {
                write!(f, "payload CRC mismatch: header says {expected:#010x}, bytes hash to {got:#010x}")
            }
            CodecError::Truncated { what } => write!(f, "payload truncated reading {what}"),
            CodecError::UnknownTag { tag } => write!(f, "unknown tag byte {tag:#04x}"),
            CodecError::Malformed { what } => write!(f, "malformed payload: {what}"),
        }
    }
}

impl From<std::io::Error> for CodecError {
    fn from(e: std::io::Error) -> Self {
        CodecError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Every message of the matchd wire protocol, requests and responses.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client handshake: the protocol version it speaks.
    Hello {
        /// Client's [`PROTO_VERSION`].
        proto: u32,
    },
    /// Daemon handshake reply.
    Welcome {
        /// Daemon's [`PROTO_VERSION`].
        proto: u32,
        /// Published-view epoch at accept time.
        epoch: u64,
        /// Universe node count (so clients can validate node ids).
        nodes: u32,
    },
    /// A batch of engine events to ingest (the write path).
    Submit {
        /// Events, applied in order.
        events: Vec<EngineEvent>,
    },
    /// Submit succeeded: the batch is applied and WAL-appended.
    Accepted {
        /// Engine epoch whose state includes this submission.
        epoch: u64,
    },
    /// Admission control refused the submission: the bounded ingest queue
    /// is full. Retry after the hinted backoff.
    Busy {
        /// Suggested client backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// The engine refused the submission (validation error); the engine
    /// state is untouched by it.
    Rejected {
        /// The [`owp_engine::EngineError`] rendered as text.
        error: String,
    },
    /// Read query: a node's current matches.
    QueryMatches {
        /// The node asking.
        node: u32,
    },
    /// Reply to [`Frame::QueryMatches`], from the epoch-stamped view.
    Matches {
        /// View epoch the answer is consistent with.
        epoch: u64,
        /// Matched peer ids.
        peers: Vec<u32>,
    },
    /// Read query: a node's satisfaction `S_i`.
    QuerySatisfaction {
        /// The node asking.
        node: u32,
    },
    /// Reply to [`Frame::QuerySatisfaction`].
    Satisfaction {
        /// View epoch the answer is consistent with.
        epoch: u64,
        /// `S_i` (0 for inactive or unknown nodes).
        value: f64,
    },
    /// Read query: global view coordinates.
    QueryEpoch,
    /// Reply to [`Frame::QueryEpoch`].
    EpochInfo {
        /// View epoch.
        epoch: u64,
        /// ΣS over active peers.
        sigma_s: f64,
        /// Active node count.
        active: u32,
        /// Matched edge count.
        matched: u32,
    },
    /// Read query: a full metrics snapshot.
    QueryMetrics,
    /// Reply to [`Frame::QueryMetrics`]: `MetricsSnapshot::to_json()`.
    Metrics {
        /// The JSON document.
        json: String,
    },
    /// Administrative: flush, snapshot, and stop the daemon.
    Shutdown,
    /// Daemon acknowledges [`Frame::Shutdown`]; sent before exit.
    Bye {
        /// Final engine epoch.
        epoch: u64,
    },
}

impl Frame {
    /// Stable label for the slow-request ring and error messages.
    pub fn kind_label(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "HELLO",
            Frame::Welcome { .. } => "WELCOME",
            Frame::Submit { .. } => "SUBMIT",
            Frame::Accepted { .. } => "ACCEPTED",
            Frame::Busy { .. } => "BUSY",
            Frame::Rejected { .. } => "REJECTED",
            Frame::QueryMatches { .. } => "QUERY_MATCHES",
            Frame::Matches { .. } => "MATCHES",
            Frame::QuerySatisfaction { .. } => "QUERY_SAT",
            Frame::Satisfaction { .. } => "SAT",
            Frame::QueryEpoch => "QUERY_EPOCH",
            Frame::EpochInfo { .. } => "EPOCH",
            Frame::QueryMetrics => "QUERY_METRICS",
            Frame::Metrics { .. } => "METRICS",
            Frame::Shutdown => "SHUTDOWN",
            Frame::Bye { .. } => "BYE",
        }
    }
}

// Payload tag bytes. Requests are < 0x80, responses >= 0x80.
const T_HELLO: u8 = 0x01;
const T_SUBMIT: u8 = 0x02;
const T_QUERY_MATCHES: u8 = 0x03;
const T_QUERY_SAT: u8 = 0x04;
const T_QUERY_EPOCH: u8 = 0x05;
const T_QUERY_METRICS: u8 = 0x06;
const T_SHUTDOWN: u8 = 0x07;
const T_WELCOME: u8 = 0x81;
const T_ACCEPTED: u8 = 0x82;
const T_BUSY: u8 = 0x83;
const T_REJECTED: u8 = 0x84;
const T_MATCHES: u8 = 0x85;
const T_SAT: u8 = 0x86;
const T_EPOCH: u8 = 0x87;
const T_METRICS: u8 = 0x88;
const T_BYE: u8 = 0x89;

// Event tag bytes (shared with the WAL payload format).
const E_JOIN: u8 = 0;
const E_LEAVE: u8 = 1;
const E_EDGE_ADD: u8 = 2;
const E_EDGE_REMOVE: u8 = 3;
const E_QUOTA: u8 = 4;
const E_PREFS: u8 = 5;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends one event in the binary event format (also the WAL's).
pub(crate) fn put_event(buf: &mut Vec<u8>, ev: &EngineEvent) {
    match ev {
        EngineEvent::NodeJoin { node } => {
            buf.push(E_JOIN);
            put_u32(buf, node.0);
        }
        EngineEvent::NodeLeave { node } => {
            buf.push(E_LEAVE);
            put_u32(buf, node.0);
        }
        EngineEvent::EdgeAdd { u, v } => {
            buf.push(E_EDGE_ADD);
            put_u32(buf, u.0);
            put_u32(buf, v.0);
        }
        EngineEvent::EdgeRemove { u, v } => {
            buf.push(E_EDGE_REMOVE);
            put_u32(buf, u.0);
            put_u32(buf, v.0);
        }
        EngineEvent::QuotaChange { node, quota } => {
            buf.push(E_QUOTA);
            put_u32(buf, node.0);
            put_u32(buf, *quota);
        }
        EngineEvent::PreferenceUpdate { node, list } => {
            buf.push(E_PREFS);
            put_u32(buf, node.0);
            put_u32(buf, list.len() as u32);
            for p in list {
                put_u32(buf, p.0);
            }
        }
    }
}

/// Serializes a frame payload (tag + body, no length/CRC header).
pub fn encode_payload(frame: &Frame) -> Vec<u8> {
    let mut b = Vec::with_capacity(16);
    match frame {
        Frame::Hello { proto } => {
            b.push(T_HELLO);
            put_u32(&mut b, *proto);
        }
        Frame::Welcome { proto, epoch, nodes } => {
            b.push(T_WELCOME);
            put_u32(&mut b, *proto);
            put_u64(&mut b, *epoch);
            put_u32(&mut b, *nodes);
        }
        Frame::Submit { events } => {
            b.push(T_SUBMIT);
            put_u32(&mut b, events.len() as u32);
            for ev in events {
                put_event(&mut b, ev);
            }
        }
        Frame::Accepted { epoch } => {
            b.push(T_ACCEPTED);
            put_u64(&mut b, *epoch);
        }
        Frame::Busy { retry_after_ms } => {
            b.push(T_BUSY);
            put_u32(&mut b, *retry_after_ms);
        }
        Frame::Rejected { error } => {
            b.push(T_REJECTED);
            put_str(&mut b, error);
        }
        Frame::QueryMatches { node } => {
            b.push(T_QUERY_MATCHES);
            put_u32(&mut b, *node);
        }
        Frame::Matches { epoch, peers } => {
            b.push(T_MATCHES);
            put_u64(&mut b, *epoch);
            put_u32(&mut b, peers.len() as u32);
            for p in peers {
                put_u32(&mut b, *p);
            }
        }
        Frame::QuerySatisfaction { node } => {
            b.push(T_QUERY_SAT);
            put_u32(&mut b, *node);
        }
        Frame::Satisfaction { epoch, value } => {
            b.push(T_SAT);
            put_u64(&mut b, *epoch);
            put_f64(&mut b, *value);
        }
        Frame::QueryEpoch => b.push(T_QUERY_EPOCH),
        Frame::EpochInfo { epoch, sigma_s, active, matched } => {
            b.push(T_EPOCH);
            put_u64(&mut b, *epoch);
            put_f64(&mut b, *sigma_s);
            put_u32(&mut b, *active);
            put_u32(&mut b, *matched);
        }
        Frame::QueryMetrics => b.push(T_QUERY_METRICS),
        Frame::Metrics { json } => {
            b.push(T_METRICS);
            put_str(&mut b, json);
        }
        Frame::Shutdown => b.push(T_SHUTDOWN),
        Frame::Bye { epoch } => {
            b.push(T_BYE);
            put_u64(&mut b, *epoch);
        }
    }
    b
}

/// Wraps a payload in the on-wire header: `[len][crc][payload]`.
pub fn frame_bytes(frame: &Frame) -> Vec<u8> {
    let payload = encode_payload(frame);
    let mut out = Vec::with_capacity(payload.len() + FRAME_HEADER as usize);
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Writes one frame to `w` (header + payload, single `write_all`).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> std::io::Result<()> {
    w.write_all(&frame_bytes(frame))
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Bounds-checked cursor over a payload slice. Every read is checked
/// against the remaining bytes; nothing ever indexes past the end.
pub(crate) struct Cur<'a> {
    b: &'a [u8],
    p: usize,
}

impl<'a> Cur<'a> {
    pub(crate) fn new(b: &'a [u8]) -> Self {
        Cur { b, p: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.b.len() - self.p
    }

    pub(crate) fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated { what });
        }
        let s = &self.b[self.p..self.p + n];
        self.p += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, CodecError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, CodecError> {
        let s = self.take(4, what)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, CodecError> {
        let s = self.take(8, what)?;
        Ok(u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn str(&mut self, what: &'static str) -> Result<String, CodecError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Malformed { what })
    }

    /// A declared element count, sanity-checked against the bytes left
    /// (`min_elem` = smallest possible encoding of one element) so a
    /// hostile count can't force a huge allocation.
    pub(crate) fn count(
        &mut self,
        min_elem: usize,
        what: &'static str,
    ) -> Result<usize, CodecError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_elem) > self.remaining() {
            return Err(CodecError::Truncated { what });
        }
        Ok(n)
    }

    pub(crate) fn done(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::Malformed { what: "trailing bytes after frame" })
        }
    }
}

fn get_event(cur: &mut Cur<'_>) -> Result<EngineEvent, CodecError> {
    let tag = cur.u8("event tag")?;
    Ok(match tag {
        E_JOIN => EngineEvent::NodeJoin { node: NodeId(cur.u32("join node")?) },
        E_LEAVE => EngineEvent::NodeLeave { node: NodeId(cur.u32("leave node")?) },
        E_EDGE_ADD => EngineEvent::EdgeAdd {
            u: NodeId(cur.u32("edge endpoint")?),
            v: NodeId(cur.u32("edge endpoint")?),
        },
        E_EDGE_REMOVE => EngineEvent::EdgeRemove {
            u: NodeId(cur.u32("edge endpoint")?),
            v: NodeId(cur.u32("edge endpoint")?),
        },
        E_QUOTA => EngineEvent::QuotaChange {
            node: NodeId(cur.u32("quota node")?),
            quota: cur.u32("quota value")?,
        },
        E_PREFS => {
            let node = NodeId(cur.u32("prefs node")?);
            let n = cur.count(4, "preference list")?;
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                list.push(NodeId(cur.u32("preference entry")?));
            }
            EngineEvent::PreferenceUpdate { node, list }
        }
        tag => return Err(CodecError::UnknownTag { tag }),
    })
}

/// Decodes a batch of events (a `u32` count, then each event) at the
/// cursor — shared with the WAL record format. Leaves the cursor after the
/// last event; callers that need the payload fully consumed check
/// `Cur::done` themselves.
pub(crate) fn get_events(cur: &mut Cur<'_>) -> Result<Vec<EngineEvent>, CodecError> {
    let n = cur.count(1, "event count")?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(get_event(cur)?);
    }
    Ok(events)
}

/// Parses a payload (tag + body) into a [`Frame`]. Total: every failure
/// is a structured [`CodecError`].
pub fn decode_payload(payload: &[u8]) -> Result<Frame, CodecError> {
    let mut cur = Cur::new(payload);
    let tag = cur.u8("frame tag")?;
    let frame = match tag {
        T_HELLO => Frame::Hello { proto: cur.u32("proto")? },
        T_WELCOME => Frame::Welcome {
            proto: cur.u32("proto")?,
            epoch: cur.u64("epoch")?,
            nodes: cur.u32("nodes")?,
        },
        T_SUBMIT => Frame::Submit { events: get_events(&mut cur)? },
        T_ACCEPTED => Frame::Accepted { epoch: cur.u64("epoch")? },
        T_BUSY => Frame::Busy { retry_after_ms: cur.u32("retry_after_ms")? },
        T_REJECTED => Frame::Rejected { error: cur.str("error text")? },
        T_QUERY_MATCHES => Frame::QueryMatches { node: cur.u32("node")? },
        T_MATCHES => {
            let epoch = cur.u64("epoch")?;
            let n = cur.count(4, "peer list")?;
            let mut peers = Vec::with_capacity(n);
            for _ in 0..n {
                peers.push(cur.u32("peer id")?);
            }
            Frame::Matches { epoch, peers }
        }
        T_QUERY_SAT => Frame::QuerySatisfaction { node: cur.u32("node")? },
        T_SAT => Frame::Satisfaction { epoch: cur.u64("epoch")?, value: cur.f64("value")? },
        T_QUERY_EPOCH => Frame::QueryEpoch,
        T_EPOCH => Frame::EpochInfo {
            epoch: cur.u64("epoch")?,
            sigma_s: cur.f64("sigma_s")?,
            active: cur.u32("active")?,
            matched: cur.u32("matched")?,
        },
        T_QUERY_METRICS => Frame::QueryMetrics,
        T_METRICS => Frame::Metrics { json: cur.str("metrics json")? },
        T_SHUTDOWN => Frame::Shutdown,
        T_BYE => Frame::Bye { epoch: cur.u64("epoch")? },
        tag => return Err(CodecError::UnknownTag { tag }),
    };
    cur.done()?;
    Ok(frame)
}

/// Reads one frame off `r`: header, bounds check, CRC check, payload
/// parse. A clean EOF *at a frame boundary* is [`CodecError::Eof`]; an
/// EOF mid-frame is an I/O error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, CodecError> {
    let mut header = [0u8; 8];
    let mut filled = 0;
    while filled < 8 {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(CodecError::Eof),
            Ok(0) => {
                return Err(CodecError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(CodecError::Io(e)),
        }
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_FRAME {
        return Err(CodecError::Oversized { len, max: MAX_FRAME });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let got = crc32(&payload);
    if got != crc {
        return Err(CodecError::Corrupt { expected: crc, got });
    }
    decode_payload(&payload)
}

// Re-exported for the WAL, which frames its records identically but with
// its own payload schema.
pub(crate) use Cur as Cursor;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_frame_round_trips() {
        let frames = vec![
            Frame::Hello { proto: PROTO_VERSION },
            Frame::Welcome { proto: 1, epoch: 42, nodes: 1000 },
            Frame::Submit {
                events: vec![
                    EngineEvent::NodeLeave { node: NodeId(3) },
                    EngineEvent::NodeJoin { node: NodeId(3) },
                    EngineEvent::EdgeAdd { u: NodeId(1), v: NodeId(2) },
                    EngineEvent::EdgeRemove { u: NodeId(1), v: NodeId(2) },
                    EngineEvent::QuotaChange { node: NodeId(9), quota: 4 },
                    EngineEvent::PreferenceUpdate {
                        node: NodeId(7),
                        list: vec![NodeId(1), NodeId(5)],
                    },
                ],
            },
            Frame::Accepted { epoch: 7 },
            Frame::Busy { retry_after_ms: 3 },
            Frame::Rejected { error: "node 3 is not active".into() },
            Frame::QueryMatches { node: 11 },
            Frame::Matches { epoch: 8, peers: vec![1, 2, 3] },
            Frame::QuerySatisfaction { node: 11 },
            Frame::Satisfaction { epoch: 8, value: 0.75 },
            Frame::QueryEpoch,
            Frame::EpochInfo { epoch: 9, sigma_s: 123.5, active: 99, matched: 140 },
            Frame::QueryMetrics,
            Frame::Metrics { json: "{\"counters\":{}}".into() },
            Frame::Shutdown,
            Frame::Bye { epoch: 10 },
        ];
        for f in frames {
            let bytes = frame_bytes(&f);
            let mut cursor = std::io::Cursor::new(bytes);
            let back = read_frame(&mut cursor).expect("round trip");
            assert_eq!(back, f);
            assert_eq!(back.kind_label(), f.kind_label());
        }
    }

    #[test]
    fn eof_at_boundary_vs_mid_frame() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut empty), Err(CodecError::Eof)));
        let bytes = frame_bytes(&Frame::QueryEpoch);
        let mut cut = std::io::Cursor::new(bytes[..5].to_vec());
        assert!(matches!(read_frame(&mut cut), Err(CodecError::Io(_))));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut bytes = frame_bytes(&Frame::QueryEpoch);
        bytes[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(CodecError::Oversized { len: u32::MAX, .. })
        ));
    }

    #[test]
    fn bit_flip_fails_crc() {
        let mut bytes = frame_bytes(&Frame::Accepted { epoch: 1 });
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let mut cursor = std::io::Cursor::new(bytes);
        assert!(matches!(read_frame(&mut cursor), Err(CodecError::Corrupt { .. })));
    }

    #[test]
    fn hostile_count_is_truncated_not_alloc() {
        // A Submit claiming 2^31 events in a 9-byte payload.
        let mut payload = vec![T_SUBMIT];
        payload.extend_from_slice(&(1u32 << 31).to_le_bytes());
        payload.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            decode_payload(&payload),
            Err(CodecError::Truncated { .. })
        ));
    }
}
