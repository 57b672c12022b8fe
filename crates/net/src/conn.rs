//! Connection state machinery for the reactor, kept free of sockets so
//! it is unit-testable: handshake validation, capped exponential
//! reconnect backoff, and incremental frame reassembly.
//!
//! The wire protocol: a dialer sends [`Frame::Hello`] first, the
//! acceptor answers with its own `Hello` *before* validating (so a
//! mismatched dialer can read the answer, diagnose the topology
//! difference on its side, and fail fast instead of retrying a hopeless
//! connection), and both sides then refuse to exchange any other frame
//! until the handshake checks out.

use std::io::{self, Read};
use std::time::Duration;

use latency_graph::NodeId;

use crate::error::CodecError;
use crate::wire::{BufPool, Decoded, Frame};

/// Validates the topology half of a handshake: the peer's node count
/// and topology hash must equal ours. Returns the sender's node id,
/// the node it addressed (`Hello.to`), and the capability bits it
/// advertised; callers layer their own routing checks (is that me? a
/// neighbor? a hosted node?) on top.
///
/// # Errors
///
/// A non-`Hello` first frame or a topology mismatch yields a
/// human-readable description (the "topology mismatch" prefix is load-
/// bearing: peer-loss reports surface it to operators and tests).
pub fn validate_hello(
    frame: &Frame,
    n: u32,
    topology_hash: u64,
) -> Result<(NodeId, NodeId, u32), String> {
    let Frame::Hello {
        node,
        to,
        n: peer_n,
        topology_hash: peer_hash,
        caps,
    } = frame
    else {
        return Err("first frame was not a handshake".to_owned());
    };
    if *peer_n != n || *peer_hash != topology_hash {
        return Err(format!(
            "topology mismatch: peer has n={peer_n} hash={peer_hash:#x}, \
             local n={n} hash={topology_hash:#x}"
        ));
    }
    Ok((*node, *to, *caps))
}

/// Capped exponential reconnect backoff.
///
/// Attempt `k` (1-based; attempt 0 dials immediately) waits
/// `base · 2^k`, clamped to `cap`. The schedule is a pure function of
/// the attempt number; the reactor turns it into a link's redial instant.
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
}

impl Backoff {
    /// A schedule starting at `base` and clamped to `cap`.
    pub fn new(base: Duration, cap: Duration) -> Backoff {
        Backoff { base, cap }
    }

    /// The wait before dial attempt `attempt` (0 means dial now).
    pub fn delay(&self, attempt: u32) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        self.base
            .saturating_mul(1_u32 << attempt.min(16))
            .min(self.cap)
    }
}

/// Incremental frame reassembly over any byte stream.
///
/// Bytes are read in place as they arrive;
/// [`next_frame`](FrameReader::next_frame)
/// yields complete frames without re-scanning or shifting the buffer
/// per frame — decoded bytes are reclaimed only when a read runs short
/// of room, so a burst of small frames costs amortized O(bytes).
#[derive(Debug, Default)]
pub struct FrameReader {
    /// `buf[pos..end]` is received and not yet decoded; `buf[end..]` is
    /// initialised spare room a socket read fills in place.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
}

/// Least spare room offered to a read, and the buffer's first size.
const READ_MIN: usize = 4 * 1024;
/// The buffer doubles while reads fill their room, up to this (past it
/// only for a single frame that needs more).
const READ_MAX: usize = 256 * 1024;

impl FrameReader {
    /// An empty reassembly buffer.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Appends freshly received bytes (through the same path a socket
    /// read takes).
    pub fn extend(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            self.read_from(&mut bytes)
                .expect("reading a slice cannot fail");
        }
    }

    /// One `read` from `src` straight into the buffer's spare room (no
    /// intermediate copy, nothing zeroed per call). Returns the byte
    /// count; 0 is end of stream.
    ///
    /// # Errors
    ///
    /// Whatever `src.read` returns, `WouldBlock` and `Interrupted`
    /// included; nothing is appended then.
    pub(crate) fn read_from(&mut self, src: &mut impl Read) -> io::Result<usize> {
        if self.buf.len() - self.end < READ_MIN {
            // Short of room: reclaim the decoded prefix, and grow only
            // if what is left (one partial frame) still crowds the end.
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
            if self.buf.len() - self.end < READ_MIN {
                self.buf.resize(self.end + READ_MIN, 0);
            }
        }
        let room = self.buf.len() - self.end;
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        if n == room && self.buf.len() < READ_MAX {
            self.buf.resize(2 * self.buf.len(), 0);
        }
        Ok(n)
    }

    /// Whether the buffer is at a frame boundary (no partial frame
    /// pending) — the condition under which an EOF is clean.
    pub fn at_boundary(&self) -> bool {
        self.pos == self.end
    }

    /// Throws away everything buffered (a connection that is only being
    /// drained to close no longer cares about its bytes).
    pub fn discard(&mut self) {
        self.pos = 0;
        self.end = 0;
    }

    /// Decodes the next complete frame, if the buffer holds one.
    /// `Ok(None)` means "need more bytes". The `u64` is the frame's
    /// encoded size (for traffic counters).
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] other than `Truncated` is a permanent
    /// rejection of the stream.
    pub fn next_frame(&mut self) -> Result<Option<(Frame, u64)>, CodecError> {
        let next = self.next_decoded(&mut BufPool::default())?;
        Ok(next.map(|(decoded, used)| (decoded.into_frame(), used)))
    }

    /// [`next_frame`](FrameReader::next_frame) for the reactor: payloads
    /// fill buffers from `pool`, and a routed envelope's inner frame
    /// stays unboxed ([`Frame::decode_with`]).
    pub(crate) fn next_decoded(
        &mut self,
        pool: &mut BufPool,
    ) -> Result<Option<(Decoded, u64)>, CodecError> {
        match Frame::decode_with(&self.buf[self.pos..self.end], pool) {
            Ok((decoded, used)) => {
                self.pos += used;
                if self.pos == self.end {
                    self.discard();
                }
                let used = u64::try_from(used).expect("frame size fits u64");
                Ok(Some((decoded, used)))
            }
            Err(CodecError::Truncated { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_caps() {
        let b = Backoff::new(Duration::from_millis(25), Duration::from_millis(400));
        assert_eq!(b.delay(0), Duration::ZERO);
        assert_eq!(b.delay(1), Duration::from_millis(50));
        assert_eq!(b.delay(2), Duration::from_millis(100));
        assert_eq!(b.delay(4), Duration::from_millis(400));
        assert_eq!(b.delay(31), Duration::from_millis(400), "shift stays sane");
    }

    #[test]
    fn frame_reader_reassembles_byte_by_byte() {
        let frames = vec![
            Frame::Done { round: 3 },
            Frame::Request {
                seq: 1,
                round: 0,
                payload: vec![9; 100],
            },
            Frame::Bye,
        ];
        let mut stream = Vec::new();
        for f in &frames {
            f.encode_into(&mut stream).expect("frame encodes");
        }
        let mut reader = FrameReader::new();
        let mut seen = Vec::new();
        for byte in stream {
            reader.extend(&[byte]);
            while let Some((f, _)) = reader.next_frame().expect("stream is well-formed") {
                seen.push(f);
            }
        }
        assert_eq!(seen, frames);
        assert!(reader.at_boundary());
    }

    #[test]
    fn frame_reader_grows_to_its_cap_and_reclaims_under_large_reads() {
        // ~1.3 MiB in one slice: every read fills its room (so the
        // buffer doubles up to `READ_MAX`) and ends mid-frame (so the
        // next read has to reclaim the decoded prefix to find room).
        let frames: Vec<Frame> = (0..2500)
            .map(|seq| Frame::Request {
                seq,
                round: 1,
                payload: vec![seq as u8; 500],
            })
            .collect();
        let mut stream = Vec::new();
        for f in &frames {
            f.encode_into(&mut stream).expect("frame encodes");
        }
        let mut src = &stream[..];
        let mut reader = FrameReader::new();
        let mut seen = Vec::new();
        let mut widest = 0;
        while !src.is_empty() {
            widest = widest.max(reader.read_from(&mut src).expect("slice read"));
            while let Some((f, _)) = reader.next_frame().expect("stream is well-formed") {
                seen.push(f);
            }
        }
        assert_eq!(seen, frames);
        assert!(reader.at_boundary());
        assert_eq!(reader.buf.len(), READ_MAX, "doubled to the cap and stopped");
        assert!(widest > READ_MAX - 600, "all but a partial frame is room");
    }

    #[test]
    fn validate_hello_reports_mismatch() {
        let hello = Frame::Hello {
            node: NodeId::new(1),
            to: NodeId::new(0),
            n: 8,
            topology_hash: 0xAAAA,
            caps: crate::wire::CAP_DELTA,
        };
        assert_eq!(
            validate_hello(&hello, 8, 0xAAAA),
            Ok((NodeId::new(1), NodeId::new(0), crate::wire::CAP_DELTA))
        );
        let err = validate_hello(&hello, 8, 0xBBBB).expect_err("hash differs");
        assert!(err.contains("topology mismatch"), "{err}");
        let err = validate_hello(&Frame::Bye, 8, 0xAAAA).expect_err("not a hello");
        assert!(err.contains("handshake"), "{err}");
    }
}
