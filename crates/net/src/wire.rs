//! Length-prefixed binary wire codec.
//!
//! Every frame is an 8-byte header followed by a body:
//!
//! ```text
//! +-------+---------+------+-------+--------------------+
//! | magic | version | kind | flags | body_len (u32 LE)  |
//! +-------+---------+------+-------+--------------------+
//! | body: body_len bytes                                |
//! +-----------------------------------------------------+
//! ```
//!
//! All multi-byte integers are little-endian. The `flags` byte is
//! reserved and must be zero. Bodies are capped at [`MAX_BODY`] so a
//! corrupt or hostile length prefix cannot make a reader allocate
//! unboundedly. Decoding is panic-free: every malformed input maps to a
//! typed [`CodecError`], and a short buffer maps to
//! [`CodecError::Truncated`] with the byte count the reader should wait
//! for — which is what makes the stream-reassembly loop in the TCP
//! reader a two-line match.

use gossip_sim::{CompactRumorSet, Round, RowBatch, RumorSet, StreamPayload};
use latency_graph::NodeId;

use crate::error::CodecError;

/// First byte of every frame.
pub const MAGIC: u8 = 0xA7;
/// Wire protocol version. Version 2 added the `to` field in
/// [`Frame::Hello`] (so one listener can accept connections for many
/// hosted nodes) and the [`Frame::Routed`] envelope. Version 3
/// added the `caps` capability bits to [`Frame::Hello`] and the
/// [`Frame::RequestDelta`]/[`Frame::ReplyDelta`] kinds.
pub const VERSION: u8 = 3;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 8;
/// Maximum body length the codec will emit or accept (1 MiB).
pub const MAX_BODY: u32 = 1 << 20;

/// Capability bit in [`Frame::Hello::caps`]: the sender runs in delta
/// payload mode — it maintains per-neighbor exchange bases, may send
/// [`Frame::RequestDelta`]/[`Frame::ReplyDelta`], and can decode them.
/// A sender must never emit a delta frame toward a peer that did not
/// advertise this bit; unknown bits are ignored, so a stale or missing
/// capability only costs bytes (snapshot fallback), never rumors.
pub const CAP_DELTA: u32 = 1;

const KIND_HELLO: u8 = 0;
const KIND_REQUEST: u8 = 1;
const KIND_REPLY: u8 = 2;
const KIND_DONE: u8 = 3;
const KIND_BYE: u8 = 4;
const KIND_ROUTED: u8 = 5;
const KIND_REQUEST_DELTA: u8 = 6;
const KIND_REPLY_DELTA: u8 = 7;

/// Body bytes of a [`Frame::Routed`] envelope before the inner frame:
/// `src` (u32) + `dst` (u32) + `release` (u64).
const ROUTED_PREFIX: usize = 16;

/// A protocol frame.
///
/// `Request`/`Reply` carry opaque payload bytes produced by
/// [`WirePayload`]; the codec does not interpret them beyond the length
/// cap, so any protocol payload can travel through unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Connection handshake: sent once by each side of a new connection.
    /// Both sides validate that `n` and `topology_hash` match their own
    /// view before exchanging any other frame, so two processes started
    /// against different topologies refuse to pair up.
    Hello {
        /// The sender's end of the edge a reactor link names: a node the
        /// dialing shard hosts (on a reactor's self link, the accepting
        /// reactor hosts it too).
        node: NodeId,
        /// The other end: a node the accepting reactor hosts, which
        /// checks the edge against its graph.
        to: NodeId,
        /// Number of nodes in the sender's topology.
        n: u32,
        /// [`latency_graph::Graph::topology_hash`] of the sender's graph.
        topology_hash: u64,
        /// Capability bits ([`CAP_DELTA`], …). Unknown bits are ignored
        /// by receivers, so new capabilities stay wire-compatible.
        caps: u32,
    },
    /// An exchange initiation: "here is my payload snapshot, taken at
    /// `round`; send me yours". `seq` is unique per initiator and echoed
    /// by the matching [`Frame::Reply`].
    Request {
        /// Initiator-local sequence number.
        seq: u64,
        /// The round the exchange was initiated.
        round: Round,
        /// Encoded payload snapshot.
        payload: Vec<u8>,
    },
    /// The responder's half of an exchange: its payload snapshot, taken
    /// when the request was answered (semantically, during the same
    /// round the request was sent — see DESIGN.md §11).
    Reply {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Echo of the request's initiation round.
        round: Round,
        /// Encoded payload snapshot.
        payload: Vec<u8>,
    },
    /// The sender's local done-predicate became true at `round`
    /// (distributed stop barrier, TCP runtime only).
    Done {
        /// Round at which the sender turned done.
        round: Round,
    },
    /// The sender is exiting; no further frames will follow. Initiations
    /// toward a departed peer are counted lost, not sent.
    Bye,
    /// A delta-coded exchange initiation: like [`Frame::Request`], but
    /// the payload bytes are a delta against a basis both sides can
    /// reconstruct. `basis_seq` names the completed exchange whose
    /// union is the basis (the sender's sequence number), or 0 for the
    /// empty basis. Only valid toward a peer that advertised
    /// [`CAP_DELTA`].
    RequestDelta {
        /// Initiator-local sequence number.
        seq: u64,
        /// The round the exchange was initiated.
        round: Round,
        /// Sequence number of the completed exchange whose merged
        /// payload is the delta basis; 0 means the empty basis.
        basis_seq: u64,
        /// Delta-encoded payload snapshot.
        payload: Vec<u8>,
    },
    /// The delta-coded responder half: like [`Frame::Reply`], but the
    /// payload is a delta against the *request's own payload*
    /// (`basis_seq` echoes the request `seq`) or the empty basis
    /// (`basis_seq` 0) — both of which the initiator holds.
    ReplyDelta {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Echo of the request's initiation round.
        round: Round,
        /// `seq` when the basis is the request's decoded payload, 0 for
        /// the empty basis.
        basis_seq: u64,
        /// Delta-encoded payload snapshot.
        payload: Vec<u8>,
    },
    /// A routed envelope: one hop of a multiplexed connection — a
    /// reactor's link to a peer reactor, or to itself — carrying traffic
    /// for many `(src, dst)` node pairs. `release` echoes the release
    /// round the sender passed to [`crate::Transport::send`]; the
    /// receiving reactor hands the inner frame over as soon as it is
    /// decoded, and the runner holds the exchange to its due round.
    /// Envelopes never nest.
    Routed {
        /// Originating node.
        src: NodeId,
        /// Destination node.
        dst: NodeId,
        /// Round by which the receiver needs the inner frame.
        release: Round,
        /// The wrapped frame (never itself `Routed`).
        inner: Box<Frame>,
    },
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => KIND_HELLO,
            Frame::Request { .. } => KIND_REQUEST,
            Frame::Reply { .. } => KIND_REPLY,
            Frame::Done { .. } => KIND_DONE,
            Frame::Bye => KIND_BYE,
            Frame::Routed { .. } => KIND_ROUTED,
            Frame::RequestDelta { .. } => KIND_REQUEST_DELTA,
            Frame::ReplyDelta { .. } => KIND_REPLY_DELTA,
        }
    }

    /// Exact body length of the frame's encoding, in bytes.
    fn body_len(&self) -> usize {
        match self {
            Frame::Hello { .. } => 24,
            Frame::Request { payload, .. } | Frame::Reply { payload, .. } => 16 + payload.len(),
            Frame::RequestDelta { payload, .. } | Frame::ReplyDelta { payload, .. } => {
                24 + payload.len()
            }
            Frame::Done { .. } => 8,
            Frame::Bye => 0,
            Frame::Routed { inner, .. } => ROUTED_PREFIX + HEADER_LEN + inner.body_len(),
        }
    }

    /// Serializes the frame, appending to `out`.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::FrameTooLarge`] if the body would exceed
    /// [`MAX_BODY`]; in that case nothing is appended to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), CodecError> {
        let payload = self.parts_into(out)?;
        out.extend_from_slice(payload);
        Ok(())
    }

    /// Serializes the frame into a fresh buffer.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::FrameTooLarge`] if the body would exceed
    /// [`MAX_BODY`].
    pub fn encode(&self) -> Result<Vec<u8>, CodecError> {
        let mut out = Vec::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Split encoding of a [`Frame::Routed`] envelope that borrows the
    /// inner frame instead of boxing it: clears `meta`, writes the outer
    /// header, routing prefix, and the inner frame's header + fixed
    /// fields into it, and returns the inner payload slice to write
    /// after it. This is the reactor's send path: one scratch buffer,
    /// zero allocation, zero payload copies per routed frame.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::FrameTooLarge`] if the enveloped body
    /// would exceed [`MAX_BODY`]; `meta` is left cleared in that case.
    ///
    /// # Panics
    ///
    /// Panics if `inner` is itself [`Frame::Routed`] (envelopes never
    /// nest).
    pub fn encode_routed_parts<'f>(
        src: NodeId,
        dst: NodeId,
        release: Round,
        inner: &'f Frame,
        meta: &mut Vec<u8>,
    ) -> Result<&'f [u8], CodecError> {
        assert!(
            !matches!(inner, Frame::Routed { .. }),
            "routed envelopes never nest"
        );
        meta.clear();
        let body_len = ROUTED_PREFIX + HEADER_LEN + inner.body_len();
        push_header(meta, KIND_ROUTED, body_len)?;
        meta.extend_from_slice(&u32::from(src).to_le_bytes());
        meta.extend_from_slice(&u32::from(dst).to_le_bytes());
        meta.extend_from_slice(&release.to_le_bytes());
        inner.parts_into(meta)
    }

    /// Appends the header and fixed fields to `meta` (without clearing)
    /// and returns the trailing payload slice. Errors with
    /// [`CodecError::FrameTooLarge`] before writing anything if the
    /// body would exceed [`MAX_BODY`].
    fn parts_into<'f>(&'f self, meta: &mut Vec<u8>) -> Result<&'f [u8], CodecError> {
        push_header(meta, self.kind(), self.body_len())?;
        Ok(match self {
            Frame::Hello {
                node,
                to,
                n,
                topology_hash,
                caps,
            } => {
                meta.extend_from_slice(&u32::from(*node).to_le_bytes());
                meta.extend_from_slice(&u32::from(*to).to_le_bytes());
                meta.extend_from_slice(&n.to_le_bytes());
                meta.extend_from_slice(&topology_hash.to_le_bytes());
                meta.extend_from_slice(&caps.to_le_bytes());
                &[]
            }
            Frame::Request {
                seq,
                round,
                payload,
            }
            | Frame::Reply {
                seq,
                round,
                payload,
            } => {
                meta.extend_from_slice(&seq.to_le_bytes());
                meta.extend_from_slice(&round.to_le_bytes());
                payload
            }
            Frame::RequestDelta {
                seq,
                round,
                basis_seq,
                payload,
            }
            | Frame::ReplyDelta {
                seq,
                round,
                basis_seq,
                payload,
            } => {
                meta.extend_from_slice(&seq.to_le_bytes());
                meta.extend_from_slice(&round.to_le_bytes());
                meta.extend_from_slice(&basis_seq.to_le_bytes());
                payload
            }
            Frame::Done { round } => {
                meta.extend_from_slice(&round.to_le_bytes());
                &[]
            }
            Frame::Bye => &[],
            Frame::Routed {
                src,
                dst,
                release,
                inner,
            } => {
                assert!(
                    !matches!(**inner, Frame::Routed { .. }),
                    "routed envelopes never nest"
                );
                meta.extend_from_slice(&u32::from(*src).to_le_bytes());
                meta.extend_from_slice(&u32::from(*dst).to_le_bytes());
                meta.extend_from_slice(&release.to_le_bytes());
                inner.parts_into(meta)?
            }
        })
    }

    /// Decodes one frame from the front of `buf`, returning the frame
    /// and the number of bytes consumed.
    ///
    /// A buffer holding a partial frame yields [`CodecError::Truncated`]
    /// whose `need` field says how many bytes would allow progress;
    /// stream readers accumulate until then and retry. Every other error
    /// is a permanent rejection of the stream.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), CodecError> {
        let (decoded, used) = decode_frame(buf, &mut <[u8]>::to_vec)?;
        Ok((decoded.into_frame(), used))
    }

    /// [`Frame::decode`] for the transports' receive paths: payload
    /// bytes land in a buffer taken from `pool`, and a routed envelope's
    /// inner frame comes back in place ([`Decoded::Routed`]) instead of
    /// behind a `Box`. Same bytes consumed, same errors.
    pub(crate) fn decode_with(
        buf: &[u8],
        pool: &mut BufPool,
    ) -> Result<(Decoded, usize), CodecError> {
        decode_frame(buf, &mut |bytes: &[u8]| pool.filled(bytes))
    }
}

/// What [`Frame::decode_with`] yields: a plain frame, or a routed
/// envelope with its inner frame held in place — the reactor's link
/// read path hands `inner` straight to its destination, and only
/// [`Frame::decode`] boxes it into a [`Frame::Routed`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Decoded {
    /// Any frame but a routed envelope.
    Frame(Frame),
    /// A [`Frame::Routed`] envelope, unboxed.
    Routed {
        src: NodeId,
        dst: NodeId,
        release: Round,
        inner: Frame,
    },
}

impl Decoded {
    /// The frame [`Frame::decode`] returns for the same bytes.
    pub(crate) fn into_frame(self) -> Frame {
        match self {
            Decoded::Frame(frame) => frame,
            Decoded::Routed {
                src,
                dst,
                release,
                inner,
            } => Frame::Routed {
                src,
                dst,
                release,
                inner: Box::new(inner),
            },
        }
    }
}

/// Validates the 8-byte header at the front of `buf` and returns the
/// frame's kind, a reader over its body and its encoded size.
fn split_frame(buf: &[u8]) -> Result<(u8, Reader<'_>, usize), CodecError> {
    if buf.len() < HEADER_LEN {
        return Err(CodecError::Truncated {
            need: HEADER_LEN,
            have: buf.len(),
        });
    }
    if buf[0] != MAGIC {
        return Err(CodecError::BadMagic(buf[0]));
    }
    if buf[1] != VERSION {
        return Err(CodecError::BadVersion(buf[1]));
    }
    if buf[3] != 0 {
        return Err(CodecError::BadBody("nonzero flags byte"));
    }
    let body_len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if body_len > MAX_BODY {
        return Err(CodecError::Oversized {
            len: body_len,
            max: MAX_BODY,
        });
    }
    let total = HEADER_LEN + body_len as usize;
    if buf.len() < total {
        return Err(CodecError::Truncated {
            need: total,
            have: buf.len(),
        });
    }
    Ok((buf[2], Reader::new(&buf[HEADER_LEN..total]), total))
}

/// The one frame parser behind [`Frame::decode`] and
/// [`Frame::decode_with`]: the header, then a routed envelope's 16-byte
/// routed prefix `(src, dst, release)` and exactly one inner frame
/// (which may not itself be an envelope), or any other kind's body.
/// `payload` copies a payload's bytes out — into a fresh `Vec`, or a
/// recycled one.
fn decode_frame(
    buf: &[u8],
    payload: &mut impl FnMut(&[u8]) -> Vec<u8>,
) -> Result<(Decoded, usize), CodecError> {
    let (kind, mut body, total) = split_frame(buf)?;
    let decoded = if kind == KIND_ROUTED {
        let src = NodeId::from(body.u32()?);
        let dst = NodeId::from(body.u32()?);
        let release = body.u64()?;
        let rest = body.rest();
        let (kind, mut inner_body, used) = match split_frame(rest) {
            Ok(ok) => ok,
            // The outer body is complete, so a short inner frame is
            // corruption, not a partial read.
            Err(CodecError::Truncated { .. }) => {
                return Err(CodecError::BadBody("routed inner frame truncated"))
            }
            Err(e) => return Err(e),
        };
        let inner = decode_body(kind, &mut inner_body, payload)?;
        inner_body.finish()?;
        if used != rest.len() {
            return Err(CodecError::BadBody("trailing bytes after routed inner"));
        }
        Decoded::Routed {
            src,
            dst,
            release,
            inner,
        }
    } else {
        Decoded::Frame(decode_body(kind, &mut body, payload)?)
    };
    body.finish()?;
    Ok((decoded, total))
}

/// Decodes the body of a frame of `kind` — any kind but a routed
/// envelope, which is only valid outermost — copying payloads out with
/// `payload`. The caller checks the body was consumed exactly.
fn decode_body(
    kind: u8,
    body: &mut Reader<'_>,
    payload: &mut impl FnMut(&[u8]) -> Vec<u8>,
) -> Result<Frame, CodecError> {
    Ok(match kind {
        KIND_HELLO => {
            let node = NodeId::from(body.u32()?);
            let to = NodeId::from(body.u32()?);
            let n = body.u32()?;
            let topology_hash = body.u64()?;
            let caps = body.u32()?;
            Frame::Hello {
                node,
                to,
                n,
                topology_hash,
                caps,
            }
        }
        KIND_REQUEST_DELTA | KIND_REPLY_DELTA => {
            let seq = body.u64()?;
            let round = body.u64()?;
            let basis_seq = body.u64()?;
            let payload = payload(body.rest());
            if kind == KIND_REQUEST_DELTA {
                Frame::RequestDelta {
                    seq,
                    round,
                    basis_seq,
                    payload,
                }
            } else {
                Frame::ReplyDelta {
                    seq,
                    round,
                    basis_seq,
                    payload,
                }
            }
        }
        KIND_REQUEST | KIND_REPLY => {
            let seq = body.u64()?;
            let round = body.u64()?;
            let payload = payload(body.rest());
            if kind == KIND_REQUEST {
                Frame::Request {
                    seq,
                    round,
                    payload,
                }
            } else {
                Frame::Reply {
                    seq,
                    round,
                    payload,
                }
            }
        }
        KIND_DONE => Frame::Done { round: body.u64()? },
        KIND_BYE => Frame::Bye,
        KIND_ROUTED => return Err(CodecError::BadBody("nested routed envelope")),
        other => return Err(CodecError::UnknownKind(other)),
    })
}

/// Retained capacity above which [`BufPool::put`] drops a buffer
/// instead of keeping it: 1 MiB, where a 1 024-node soak has about a
/// thousand payloads of at most 132 bytes in flight at once.
pub(crate) const POOL_BYTES: usize = 1 << 20;

/// A capped free list of frame buffers. A transport decodes each
/// payload into a buffer taken from its pool, and the runner hands the
/// buffer back ([`Transport::recycle`](crate::Transport::recycle)) once
/// it has decoded the payload, so a steady-state exchange allocates
/// nothing on the receive path. The list keeps at most [`POOL_BYTES`]
/// of capacity; what does not fit is dropped.
#[derive(Debug, Default)]
pub(crate) struct BufPool {
    free: Vec<Vec<u8>>,
    /// Total capacity of the buffers in `free`.
    bytes: usize,
}

impl BufPool {
    /// An empty buffer, recycled when the list has one.
    pub(crate) fn take(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(buf) => {
                self.bytes -= buf.capacity();
                buf
            }
            None => Vec::new(),
        }
    }

    /// A buffer holding a copy of `bytes`.
    fn filled(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut buf = self.take();
        buf.extend_from_slice(bytes);
        buf
    }

    /// Takes `buf` back, cleared, unless it would push the list past
    /// its cap (or has no allocation worth keeping).
    pub(crate) fn put(&mut self, mut buf: Vec<u8>) {
        let cap = buf.capacity();
        if cap > 0 && self.bytes + cap <= POOL_BYTES {
            buf.clear();
            self.bytes += cap;
            self.free.push(buf);
        }
    }

    /// Total capacity held, in bytes.
    #[cfg(test)]
    pub(crate) fn retained(&self) -> usize {
        self.bytes
    }
}

/// Appends an 8-byte frame header for `kind` with `body_len` body
/// bytes, refusing with [`CodecError::FrameTooLarge`] (writing nothing)
/// if the body exceeds [`MAX_BODY`].
fn push_header(out: &mut Vec<u8>, kind: u8, body_len: usize) -> Result<(), CodecError> {
    let encoded = u32::try_from(body_len)
        .ok()
        .filter(|&len| len <= MAX_BODY)
        .ok_or(CodecError::FrameTooLarge {
            len: body_len,
            max: MAX_BODY,
        })?;
    out.extend_from_slice(&[MAGIC, VERSION, kind, 0]);
    out.extend_from_slice(&encoded.to_le_bytes());
    Ok(())
}

/// Cursor over a frame body; every read is bounds-checked.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(len)
            .ok_or(CodecError::BadBody("body length overflow"))?;
        if end > self.buf.len() {
            return Err(CodecError::BadBody("body shorter than its kind requires"));
        }
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn rest(&mut self) -> &'a [u8] {
        let slice = &self.buf[self.pos..];
        self.pos = self.buf.len();
        slice
    }

    fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CodecError::BadBody("trailing bytes in body"))
        }
    }
}

/// Serialization of a protocol payload for `Request`/`Reply` bodies.
///
/// The encoding must be *lossless with respect to protocol semantics*:
/// decoding an encoded payload must yield a value that every protocol
/// callback treats identically to the original. That property is what
/// lets the loopback runtime reproduce simulator executions exactly even
/// though payloads make a round trip through bytes (DESIGN.md §11).
pub trait WirePayload: Sized {
    /// Appends the payload's encoding to `out`.
    fn encode_payload(&self, out: &mut Vec<u8>);

    /// Decodes a payload previously produced by
    /// [`encode_payload`](WirePayload::encode_payload). Malformed input
    /// yields a typed error, never a panic.
    fn decode_payload(bytes: &[u8]) -> Result<Self, CodecError>;

    /// Whether this payload type has a delta encoding. A runner only
    /// advertises [`CAP_DELTA`] (and only maintains per-neighbor bases)
    /// when this is `true`. Defaults to `false`: payload types without
    /// a delta form ride along unchanged.
    fn supports_delta() -> bool {
        false
    }

    /// Appends a delta encoding of `self` relative to `basis` (`None`
    /// is the empty basis) to `out`, returning `true` if one was
    /// written. Decoding the delta against the same basis must
    /// reconstruct `self` *exactly* — delta frames carry full snapshot
    /// semantics, just fewer bytes. The default writes nothing and
    /// returns `false`.
    fn encode_delta(&self, _basis: Option<&Self>, _out: &mut Vec<u8>) -> bool {
        false
    }

    /// Reconstructs the exact snapshot from a delta produced by
    /// [`encode_delta`](WirePayload::encode_delta) against the same
    /// basis. Malformed input yields a typed error, never a panic.
    fn decode_delta(_bytes: &[u8], _basis: Option<&Self>) -> Result<Self, CodecError> {
        Err(CodecError::BadBody("payload type has no delta form"))
    }

    /// Combines the two halves of a completed exchange into the basis
    /// both sides agree on (for rumor sets: the union). `None` means
    /// the type cannot form bases and the knowledge cache stays empty.
    fn merge_basis(&self, _other: &Self) -> Option<Self> {
        None
    }

    /// Exact byte length [`encode_payload`] would produce — the
    /// "snapshot-equivalent" size delta accounting compares against.
    /// The default encodes into a scratch buffer; implementors with a
    /// closed-form size should override it.
    ///
    /// [`encode_payload`]: WirePayload::encode_payload
    fn snapshot_len(&self) -> usize {
        let mut scratch = Vec::new();
        self.encode_payload(&mut scratch);
        scratch.len()
    }

    /// Rumor-payload units this snapshot carries under a streaming
    /// workload — what the per-rumor wire accounting
    /// ([`crate::WireAccounting::stream_units`]) sums. Non-streaming
    /// payload types report 0.
    fn stream_units(&self) -> u64 {
        0
    }

    /// The id universe this payload ranges over, if it only merges
    /// within one. A runner refuses a decoded payload whose universe is
    /// not its own node's: a codec can only check the one a body declares.
    fn wire_universe(&self) -> Option<usize> {
        None
    }
}

impl WirePayload for RumorSet {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        let universe = u32::try_from(self.universe()).expect("rumor universe fits u32");
        out.extend_from_slice(&universe.to_le_bytes());
        for word in self.as_words() {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }

    fn decode_payload(bytes: &[u8]) -> Result<RumorSet, CodecError> {
        let mut r = Reader::new(bytes);
        let universe = r.u32()? as usize;
        // `take` holds the header's claim against the body before it sizes anything.
        let body = r.take(8 * universe.div_ceil(64))?;
        r.finish()?;
        let le = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("chunk is 8 bytes"));
        let words = body.chunks_exact(8).map(le).collect();
        let bad = CodecError::BadBody("rumor words inconsistent with universe");
        RumorSet::from_words(universe, words).ok_or(bad)
    }

    fn supports_delta() -> bool {
        true
    }

    fn encode_delta(&self, basis: Option<&RumorSet>, out: &mut Vec<u8>) -> bool {
        // A soak's confirmed basis shares this payload's buffer: ∅, no scan.
        let delta = match basis {
            Some(b) => self.diff(b),
            None => CompactRumorSet::from_set(self),
        };
        crate::delta::encode_rumor_delta(&delta, out);
        true
    }

    fn decode_delta(bytes: &[u8], basis: Option<&RumorSet>) -> Result<RumorSet, CodecError> {
        crate::delta::decode_rumor_delta(bytes, basis)
    }

    fn merge_basis(&self, other: &RumorSet) -> Option<RumorSet> {
        let mut merged = self.clone();
        merged.union_with(other);
        Some(merged)
    }

    fn snapshot_len(&self) -> usize {
        4 + 8 * self.universe().div_ceil(64)
    }

    fn wire_universe(&self) -> Option<usize> {
        Some(self.universe())
    }
}

/// Body tag for the rumor-id flavor of a [`StreamPayload`] encoding.
const STREAM_TAG_IDS: u8 = 0;
/// Body tag for the coefficient-row flavor.
const STREAM_TAG_ROWS: u8 = 1;

/// The multi-rumor payload body, riding the delta codec's varint
/// machinery:
///
/// ```text
/// stream := 0 varint(count) { varint(id) }*          rumor-id batch
///         | 1 varint(k) varint(count) { row }*       coefficient rows
/// row    := ⌈k/64⌉ × u64 LE
/// ```
///
/// Ids stay in the sender's packing order (round-robin order is
/// protocol state), so encoding is exactly lossless: decode ∘ encode is
/// the identity on the payload value, not merely on its set semantics.
/// Decoding validates everything — id width, row width, and the tail
/// bits of each row beyond `k`, which is what keeps phantom rumors
/// unrepresentable on the wire.
impl WirePayload for StreamPayload {
    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            StreamPayload::Ids(ids) => {
                out.push(STREAM_TAG_IDS);
                crate::delta::push_varint(out, u64::try_from(ids.len()).expect("count fits u64"));
                for &id in ids.iter() {
                    crate::delta::push_varint(out, u64::from(id));
                }
            }
            StreamPayload::Rows(batch) => {
                out.push(STREAM_TAG_ROWS);
                crate::delta::push_varint(out, u64::try_from(batch.k()).expect("k fits u64"));
                crate::delta::push_varint(out, u64::try_from(batch.len()).expect("count fits u64"));
                for w in batch.words() {
                    out.extend_from_slice(&w.to_le_bytes());
                }
            }
        }
    }

    fn decode_payload(bytes: &[u8]) -> Result<StreamPayload, CodecError> {
        let mut cur = crate::delta::Cursor::new(bytes);
        let payload = match cur.varint()? {
            tag if tag == u64::from(STREAM_TAG_IDS) => {
                let count = usize::try_from(cur.varint()?)
                    .ok()
                    .filter(|&c| c <= cur.remaining())
                    .ok_or(CodecError::BadBody("stream id count exceeds body"))?;
                let mut ids = Vec::with_capacity(count);
                for _ in 0..count {
                    let id = u32::try_from(cur.varint()?)
                        .map_err(|_| CodecError::BadBody("stream rumor id exceeds u32"))?;
                    ids.push(id);
                }
                StreamPayload::Ids(ids.into())
            }
            tag if tag == u64::from(STREAM_TAG_ROWS) => {
                let k = u32::try_from(cur.varint()?)
                    .map_err(|_| CodecError::BadBody("stream universe exceeds u32"))?;
                let k = usize::try_from(k).expect("u32 fits usize");
                let words = k.div_ceil(64);
                let count = usize::try_from(cur.varint()?)
                    .ok()
                    .filter(|&c| {
                        // A zero-rumor universe has zero-byte rows; only
                        // the empty row list is representable for it.
                        (words > 0 || c == 0)
                            && c.checked_mul(words * 8)
                                .is_some_and(|total| total <= cur.remaining())
                    })
                    .ok_or(CodecError::BadBody("stream row count exceeds body"))?;
                // The row body goes straight into the batch's one buffer.
                let mut body = cur
                    .bytes(count * words * 8)?
                    .chunks_exact(8)
                    .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
                let batch = RowBatch::from_fn(k, count, |row| {
                    for (w, v) in row.iter_mut().zip(&mut body) {
                        *w = v;
                    }
                });
                let tail_bits = k % 64;
                if tail_bits != 0 && batch.rows().any(|row| row[words - 1] >> tail_bits != 0) {
                    return Err(CodecError::BadBody(
                        "stream row has coefficient bits beyond the universe",
                    ));
                }
                StreamPayload::Rows(batch)
            }
            _ => return Err(CodecError::BadBody("unknown stream payload tag")),
        };
        cur.finish()?;
        Ok(payload)
    }

    fn snapshot_len(&self) -> usize {
        let varint = |v: usize| crate::delta::varint_len(u64::try_from(v).expect("count fits u64"));
        match self {
            StreamPayload::Ids(ids) => {
                let id_bytes: usize = ids
                    .iter()
                    .map(|&id| crate::delta::varint_len(u64::from(id)))
                    .sum();
                1 + varint(ids.len()) + id_bytes
            }
            StreamPayload::Rows(batch) => {
                1 + varint(batch.k()) + varint(batch.len()) + 8 * batch.words().len()
            }
        }
    }

    fn stream_units(&self) -> u64 {
        self.units()
    }
}

/// The payload of protocols that exchange nothing but the contact
/// itself (discovery): zero bytes on the wire. The one impl that keeps
/// the trait's default [`snapshot_len`](WirePayload::snapshot_len).
impl WirePayload for () {
    fn encode_payload(&self, _out: &mut Vec<u8>) {}

    fn decode_payload(bytes: &[u8]) -> Result<(), CodecError> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(CodecError::BadBody("bytes in an empty payload"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                node: NodeId::new(3),
                to: NodeId::new(9),
                n: 64,
                topology_hash: 0xDEAD_BEEF_CAFE_F00D,
                caps: CAP_DELTA,
            },
            Frame::Request {
                seq: 1,
                round: 0,
                payload: vec![],
            },
            Frame::Reply {
                seq: u64::MAX,
                round: u64::MAX,
                payload: vec![0xFF; 129],
            },
            Frame::Done { round: 7 },
            Frame::Bye,
            Frame::RequestDelta {
                seq: 2,
                round: 3,
                basis_seq: 0,
                payload: vec![9, 9],
            },
            Frame::ReplyDelta {
                seq: 2,
                round: 3,
                basis_seq: 2,
                payload: vec![],
            },
            Frame::Routed {
                src: NodeId::new(11),
                dst: NodeId::new(4),
                release: 42,
                inner: Box::new(Frame::Request {
                    seq: 5,
                    round: 42,
                    payload: vec![1, 2, 3],
                }),
            },
        ]
    }

    #[test]
    fn frames_round_trip() {
        for frame in frames() {
            let bytes = frame.encode().expect("frame encodes");
            let (back, used) = Frame::decode(&bytes).expect("round trip decodes");
            assert_eq!(back, frame);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn stream_of_frames_reassembles() {
        let mut stream = Vec::new();
        for frame in frames() {
            frame.encode_into(&mut stream).expect("frame encodes");
        }
        let mut at = 0;
        let mut seen = Vec::new();
        while at < stream.len() {
            let (frame, used) = Frame::decode(&stream[at..]).expect("frame at offset decodes");
            seen.push(frame);
            at += used;
        }
        assert_eq!(seen, frames());
    }

    #[test]
    fn truncated_says_how_much_more() {
        let bytes = Frame::Done { round: 9 }.encode().expect("frame encodes");
        for cut in 0..bytes.len() {
            let err = Frame::decode(&bytes[..cut]).expect_err("partial frame rejected");
            let CodecError::Truncated { need, have } = err else {
                panic!("expected Truncated, got {err:?}");
            };
            assert_eq!(have, cut);
            assert!(need > cut && need <= bytes.len());
        }
    }

    #[test]
    fn garbage_is_typed_not_panicking() {
        assert_eq!(Frame::decode(&[0x00; 16]), Err(CodecError::BadMagic(0x00)));
        let mut bad_version = Frame::Bye.encode().expect("frame encodes");
        bad_version[1] = 9;
        assert_eq!(Frame::decode(&bad_version), Err(CodecError::BadVersion(9)));
        let mut bad_kind = Frame::Bye.encode().expect("frame encodes");
        bad_kind[2] = 77;
        assert_eq!(Frame::decode(&bad_kind), Err(CodecError::UnknownKind(77)));
        let mut oversized = Frame::Bye.encode().expect("frame encodes");
        oversized[4..8].copy_from_slice(&(MAX_BODY + 1).to_le_bytes());
        assert_eq!(
            Frame::decode(&oversized),
            Err(CodecError::Oversized {
                len: MAX_BODY + 1,
                max: MAX_BODY
            })
        );
        let mut flagged = Frame::Bye.encode().expect("frame encodes");
        flagged[3] = 1;
        assert!(matches!(
            Frame::decode(&flagged),
            Err(CodecError::BadBody(_))
        ));
    }

    #[test]
    fn short_or_long_bodies_rejected() {
        // A Done frame whose body claims 4 bytes: too short for a u64.
        let mut short = vec![MAGIC, VERSION, 3, 0, 4, 0, 0, 0];
        short.extend_from_slice(&[0; 4]);
        assert!(matches!(Frame::decode(&short), Err(CodecError::BadBody(_))));
        // A Bye frame with a nonempty body: trailing bytes.
        let mut long = vec![MAGIC, VERSION, 4, 0, 2, 0, 0, 0];
        long.extend_from_slice(&[0; 2]);
        assert!(matches!(Frame::decode(&long), Err(CodecError::BadBody(_))));
    }

    #[test]
    fn routed_parts_match_boxed_encode() {
        let inner = Frame::Reply {
            seq: 3,
            round: 8,
            payload: vec![7; 33],
        };
        let mut meta = Vec::new();
        let payload =
            Frame::encode_routed_parts(NodeId::new(1), NodeId::new(2), 9, &inner, &mut meta)
                .expect("routed frame encodes");
        let mut stitched = meta.clone();
        stitched.extend_from_slice(payload);
        let boxed = Frame::Routed {
            src: NodeId::new(1),
            dst: NodeId::new(2),
            release: 9,
            inner: Box::new(inner),
        };
        assert_eq!(stitched, boxed.encode().expect("frame encodes"));
        let (back, used) = Frame::decode(&stitched).expect("routed decodes");
        assert_eq!(back, boxed);
        assert_eq!(used, stitched.len());
    }

    #[test]
    fn nested_routed_envelope_rejected() {
        let once = Frame::Routed {
            src: NodeId::new(0),
            dst: NodeId::new(1),
            release: 0,
            inner: Box::new(Frame::Bye),
        };
        let mut bytes = once.encode().expect("frame encodes");
        // Hand-build a twice-wrapped envelope; the decoder must refuse.
        let mut outer = Vec::new();
        push_header(&mut outer, KIND_ROUTED, ROUTED_PREFIX + bytes.len()).expect("header fits");
        outer.extend_from_slice(&0u32.to_le_bytes());
        outer.extend_from_slice(&1u32.to_le_bytes());
        outer.extend_from_slice(&0u64.to_le_bytes());
        outer.append(&mut bytes);
        assert_eq!(
            Frame::decode(&outer),
            Err(CodecError::BadBody("nested routed envelope"))
        );
    }

    #[test]
    fn box_free_routed_decode_agrees_with_decode() {
        let mut pool = BufPool::default();
        let (src, dst, release) = (NodeId::new(6), NodeId::new(2), 17);
        let mut meta = Vec::new();
        for frame in frames() {
            let bytes = frame.encode().expect("frame encodes");
            let (decoded, used) = Frame::decode_with(&bytes, &mut pool).expect("frame decodes");
            assert_eq!((decoded.into_frame(), used), (frame.clone(), bytes.len()));
            if matches!(frame, Frame::Routed { .. }) {
                continue;
            }
            let payload = Frame::encode_routed_parts(src, dst, release, &frame, &mut meta)
                .expect("routed frame encodes");
            let mut wire = meta.clone();
            wire.extend_from_slice(payload);
            let (decoded, used) = Frame::decode_with(&wire, &mut pool).expect("envelope decodes");
            assert_eq!(used, wire.len());
            let unboxed = Decoded::Routed {
                src,
                dst,
                release,
                inner: frame.clone(),
            };
            assert_eq!(decoded, unboxed, "inner {frame:?}");
            assert_eq!(
                Frame::decode(&wire).expect("envelope decodes"),
                (unboxed.into_frame(), wire.len())
            );
        }

        // An envelope around `inner_bytes`, its outer length patched to fit.
        let envelope = |inner_bytes: &[u8]| {
            let mut out = Vec::new();
            push_header(&mut out, KIND_ROUTED, ROUTED_PREFIX + inner_bytes.len())
                .expect("header fits");
            out.extend_from_slice(&[0; ROUTED_PREFIX]);
            out.extend_from_slice(inner_bytes);
            out
        };
        let reply = Frame::Reply {
            seq: 1,
            round: 2,
            payload: vec![3; 5],
        }
        .encode()
        .expect("frame encodes");
        let nested = envelope(&envelope(&reply));
        let truncated = envelope(&reply[..reply.len() - 1]);
        let trailing = envelope(&[&reply[..], &[0]].concat());
        for (bad, why) in [
            (nested, "nested routed envelope"),
            (truncated, "routed inner frame truncated"),
            (trailing, "trailing bytes after routed inner"),
        ] {
            let err = CodecError::BadBody(why);
            assert_eq!(Frame::decode(&bad), Err(err.clone()));
            assert_eq!(Frame::decode_with(&bad, &mut pool), Err(err));
        }
    }

    #[test]
    fn encode_refuses_oversized_bodies_with_typed_error() {
        let cap = usize::try_from(MAX_BODY).expect("cap fits usize");
        // Exactly at the cap: a Request body is 16 fixed bytes + payload.
        let fits = Frame::Request {
            seq: 1,
            round: 0,
            payload: vec![0; cap - 16],
        };
        let bytes = fits.encode().expect("cap-sized frame encodes");
        assert_eq!(bytes.len(), HEADER_LEN + cap);
        assert!(Frame::decode(&bytes).is_ok());
        // One byte past the cap: typed error, nothing written.
        let over = Frame::Request {
            seq: 1,
            round: 0,
            payload: vec![0; cap - 15],
        };
        let mut out = vec![0xAB];
        let err = over.encode_into(&mut out).expect_err("oversized refused");
        assert_eq!(
            err,
            CodecError::FrameTooLarge {
                len: cap + 1,
                max: MAX_BODY
            }
        );
        assert_eq!(out, [0xAB], "failed encode must leave the buffer untouched");
        // The routed split path refuses the same way.
        let mut meta = Vec::new();
        assert!(matches!(
            Frame::encode_routed_parts(NodeId::new(0), NodeId::new(1), 0, &over, &mut meta),
            Err(CodecError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn rumor_payload_round_trips() {
        let mut set = RumorSet::singleton(100, NodeId::new(0));
        set.insert(NodeId::new(63));
        set.insert(NodeId::new(64));
        set.insert(NodeId::new(99));
        let mut bytes = Vec::new();
        set.encode_payload(&mut bytes);
        let back = RumorSet::decode_payload(&bytes).expect("payload decodes");
        assert_eq!(back, set);
    }

    /// A coefficient-row payload over `0..k`.
    fn rows(k: usize, rows: &[Vec<u64>]) -> StreamPayload {
        StreamPayload::Rows(RowBatch::from_rows(k, rows).expect("rows of one width"))
    }

    #[test]
    fn stream_payload_round_trips_both_flavors() {
        let cases = vec![
            StreamPayload::empty_ids(),
            StreamPayload::Ids(vec![7, 3, 300, 0].into()), // packing order preserved
            StreamPayload::empty_rows(130),
            rows(130, &[vec![0b101, 0, 1], vec![u64::MAX, u64::MAX, 0b11]]),
            rows(64, &[vec![u64::MAX]]),
        ];
        for p in cases {
            let mut bytes = Vec::new();
            p.encode_payload(&mut bytes);
            let back = StreamPayload::decode_payload(&bytes).expect("payload decodes");
            assert_eq!(back, p, "stream payload must round-trip exactly");
            assert_eq!(back.units(), p.units());
        }
    }

    #[test]
    fn stream_payload_rejects_malformed_bodies() {
        // Unknown tag.
        assert!(StreamPayload::decode_payload(&[9]).is_err());
        // Id count larger than the body could hold.
        assert!(StreamPayload::decode_payload(&[0, 200, 1]).is_err());
        // Row with coefficient bits beyond the declared universe.
        let mut tail = Vec::new();
        rows(3, &[vec![0b111]]).encode_payload(&mut tail);
        let last = tail.len() - 1;
        assert!(StreamPayload::decode_payload(&tail).is_ok());
        tail[last] = 0xFF; // bits 4..8 are outside k = 3
        assert!(StreamPayload::decode_payload(&tail).is_err());
        // Row count inconsistent with the body length.
        let mut short = Vec::new();
        rows(64, &[vec![5]]).encode_payload(&mut short);
        short.truncate(short.len() - 1);
        assert!(StreamPayload::decode_payload(&short).is_err());
        // Truncation anywhere is a typed error, never a panic.
        let mut full = Vec::new();
        StreamPayload::Ids(vec![1, 2, 700].into()).encode_payload(&mut full);
        for cut in 0..full.len() {
            assert!(StreamPayload::decode_payload(&full[..cut]).is_err());
        }
        // Trailing garbage.
        full.push(0);
        assert!(StreamPayload::decode_payload(&full).is_err());
    }

    #[test]
    fn stream_payload_advertises_caps_and_units() {
        let p = StreamPayload::Ids(vec![4, 9].into());
        assert_eq!(p.stream_units(), 2);
        assert_eq!(RumorSet::new(8).stream_units(), 0);
        assert!(!<StreamPayload as WirePayload>::supports_delta());
    }

    #[test]
    fn encode_delta_ignores_buffer_sharing() {
        let mut set = RumorSet::singleton(200, NodeId::new(3));
        set.insert(NodeId::new(150));
        let equal = RumorSet::from_words(200, set.as_words().to_vec()).expect("valid words");
        let (snap, mut shared, mut owned) = (set.snapshot(), Vec::new(), Vec::new());
        assert!(snap.ptr_eq(&set) && !equal.ptr_eq(&set));
        assert!(set.encode_delta(Some(&snap), &mut shared));
        assert!(set.encode_delta(Some(&equal), &mut owned));
        assert_eq!(shared, owned, "`diff`'s `ptr_eq` shortcut must not show");
    }

    #[test]
    fn rumor_payload_rejects_tail_bits_and_bad_lengths() {
        // universe 65 → 2 words; claim universe 1 → word-count mismatch.
        let mut bytes = Vec::new();
        RumorSet::full(65).encode_payload(&mut bytes);
        bytes[..4].copy_from_slice(&1u32.to_le_bytes());
        assert!(RumorSet::decode_payload(&bytes).is_err());
        // A set bit beyond the universe.
        let mut tail = Vec::new();
        RumorSet::new(3).encode_payload(&mut tail);
        let last = tail.len() - 1;
        tail[last] = 0x80;
        assert!(RumorSet::decode_payload(&tail).is_err());
        // A header claiming 2³²−1 ids over an empty body.
        assert!(RumorSet::decode_payload(&u32::MAX.to_le_bytes()).is_err());
    }
}
