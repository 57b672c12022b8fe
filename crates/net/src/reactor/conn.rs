//! Per-connection buffer state machines for the reactor: a pooled,
//! vectored write queue and the connection roles the readiness loop
//! dispatches on.
//!
//! Instead of encoding every frame into a fresh `Vec` for a blocking
//! `write_all`, the reactor keeps two recycled scratch buffers per
//! queued frame — header+metadata and payload — and flushes them with
//! `write_vectored`, so a frame costs zero steady-state allocations and
//! one syscall can carry many frames.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::net::TcpStream;

use gossip_sim::Round;
use latency_graph::NodeId;

use crate::conn::FrameReader;
use crate::error::CodecError;
use crate::wire::Frame;

/// Cap on recycled scratch buffers kept per connection.
const POOL_CAP: usize = 64;
/// Max `IoSlice`s per `write_vectored` call (well under IOV_MAX).
const MAX_IOV: usize = 32;

/// What a registered connection is for; decides how readiness events
/// and decoded frames are handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ConnKind {
    /// Accepted, awaiting the dialer's `Hello`.
    Pending,
    /// Write side of trunk `idx` (our own dial to our own listener);
    /// carries `Frame::Routed` envelopes between hosted nodes.
    TrunkOut(usize),
    /// Read side of trunk `idx`.
    TrunkIn(usize),
    /// We dialed remote node `to` on behalf of hosted node `from`;
    /// awaiting the `Hello` answer.
    DialPending { from: NodeId, to: NodeId },
    /// Established outbound edge `from → to` (we write data frames).
    PeerOut { from: NodeId, to: NodeId },
    /// Established inbound edge `from → to` (remote `from` writes to
    /// hosted `to`; we only read after answering the handshake).
    PeerIn { from: NodeId, to: NodeId },
    /// Handshake answer still flushing to a rejected dialer; closed as
    /// soon as the write queue empties. Inbound bytes are discarded.
    Closing,
}

/// One queued frame: header+fixed fields in `meta`, payload bytes (if
/// any) in `payload`. Both come from / return to the pool.
struct OutBuf {
    meta: Vec<u8>,
    payload: Vec<u8>,
}

/// Pooled vectored write queue; front buffer may be partially written.
#[derive(Default)]
pub(crate) struct WriteQueue {
    bufs: VecDeque<OutBuf>,
    /// Bytes of the front buffer already on the wire.
    front_off: usize,
    pool: Vec<Vec<u8>>,
    queued: usize,
}

impl WriteQueue {
    fn take_buf(&mut self) -> Vec<u8> {
        self.pool
            .pop()
            .map(|mut v| {
                v.clear();
                v
            })
            .unwrap_or_default()
    }

    fn push_buf(&mut self, buf: OutBuf) {
        self.queued += buf.meta.len() + buf.payload.len();
        self.bufs.push_back(buf);
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        if self.pool.len() < POOL_CAP {
            self.pool.push(buf);
        }
    }

    /// Queues a plain frame (scratch-encoded; no allocation once the
    /// pool is warm). Returns its encoded size.
    ///
    /// # Errors
    ///
    /// [`CodecError::FrameTooLarge`] if the frame's body exceeds the
    /// wire cap; nothing is queued.
    pub(crate) fn push_frame(&mut self, frame: &Frame) -> Result<usize, CodecError> {
        let mut meta = self.take_buf();
        let mut payload = self.take_buf();
        match frame.encode_parts(&mut meta) {
            Ok(body) => payload.extend_from_slice(body),
            Err(e) => {
                self.recycle(meta);
                self.recycle(payload);
                return Err(e);
            }
        }
        let size = meta.len() + payload.len();
        self.push_buf(OutBuf { meta, payload });
        Ok(size)
    }

    /// Queues `inner` wrapped in a `Frame::Routed` envelope without
    /// boxing it. Returns the envelope's encoded size.
    ///
    /// # Errors
    ///
    /// [`CodecError::FrameTooLarge`] if the envelope's body exceeds the
    /// wire cap; nothing is queued.
    pub(crate) fn push_routed(
        &mut self,
        src: NodeId,
        dst: NodeId,
        release: Round,
        inner: &Frame,
    ) -> Result<usize, CodecError> {
        let mut meta = self.take_buf();
        let mut payload = self.take_buf();
        match Frame::encode_routed_parts(src, dst, release, inner, &mut meta) {
            Ok(body) => payload.extend_from_slice(body),
            Err(e) => {
                self.recycle(meta);
                self.recycle(payload);
                return Err(e);
            }
        }
        let size = meta.len() + payload.len();
        self.push_buf(OutBuf { meta, payload });
        Ok(size)
    }

    /// Queues pre-encoded bytes (wheel-released replies, edge backlog
    /// replayed after a reconnect).
    pub(crate) fn push_bytes(&mut self, bytes: Vec<u8>) {
        let payload = self.take_buf();
        self.push_buf(OutBuf {
            meta: bytes,
            payload,
        });
    }

    /// Whether everything queued has hit the wire.
    pub(crate) fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Unwritten byte count.
    pub(crate) fn queued_bytes(&self) -> usize {
        self.queued
    }

    /// Drains the queue as whole encoded frames — including the front
    /// frame from byte 0, so a frame cut by a connection loss is resent
    /// intact (receivers dedup by sequence number).
    pub(crate) fn drain_encoded(&mut self) -> Vec<Vec<u8>> {
        self.front_off = 0;
        self.queued = 0;
        self.bufs
            .drain(..)
            .map(|b| {
                let mut whole = b.meta;
                whole.extend_from_slice(&b.payload);
                whole
            })
            .collect()
    }

    /// Writes as much as the socket accepts. `Ok(true)` means the queue
    /// emptied; `Ok(false)` means the socket would block (keep
    /// `EPOLLOUT` armed).
    pub(crate) fn flush(&mut self, stream: &mut TcpStream) -> io::Result<bool> {
        loop {
            if self.bufs.is_empty() {
                return Ok(true);
            }
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_IOV);
            let mut skip = self.front_off;
            'fill: for buf in &self.bufs {
                for part in [&buf.meta, &buf.payload] {
                    if skip >= part.len() {
                        skip -= part.len();
                        continue;
                    }
                    slices.push(IoSlice::new(&part[skip..]));
                    skip = 0;
                    if slices.len() == MAX_IOV {
                        break 'fill;
                    }
                }
            }
            match stream.write_vectored(&slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.consume(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn consume(&mut self, mut n: usize) {
        self.queued -= n.min(self.queued);
        n += self.front_off;
        while let Some(front) = self.bufs.front() {
            let total = front.meta.len() + front.payload.len();
            if n < total {
                break;
            }
            n -= total;
            let done = self.bufs.pop_front().expect("front exists");
            for buf in [done.meta, done.payload] {
                if self.pool.len() < POOL_CAP {
                    self.pool.push(buf);
                }
            }
        }
        self.front_off = n;
    }
}

/// A registered connection: socket, role, reassembly buffer, write
/// queue, and the epoll interest currently armed for it.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) kind: ConnKind,
    pub(crate) reader: FrameReader,
    pub(crate) wq: WriteQueue,
    pub(crate) interest: u32,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, kind: ConnKind, interest: u32) -> Conn {
        Conn {
            stream,
            kind,
            reader: FrameReader::new(),
            wq: WriteQueue::default(),
            interest,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn vectored_flush_round_trips_frames() {
        let (mut tx, mut rx) = pair();
        let mut wq = WriteQueue::default();
        let frames = vec![
            Frame::Request {
                seq: 1,
                round: 0,
                payload: vec![7; 300],
            },
            Frame::Done { round: 4 },
            Frame::Bye,
        ];
        let mut expected = Vec::new();
        for f in &frames {
            f.encode_into(&mut expected).expect("frame encodes");
            match f {
                Frame::Routed { .. } => unreachable!("plain frames only"),
                _ => assert_eq!(
                    wq.push_frame(f).expect("frame fits"),
                    f.encode().expect("frame fits").len()
                ),
            }
        }
        assert_eq!(wq.queued_bytes(), expected.len());
        assert!(wq.flush(&mut tx).expect("flush"));
        assert!(wq.is_empty());
        assert_eq!(wq.queued_bytes(), 0);

        let mut got = vec![0_u8; expected.len()];
        rx.read_exact(&mut got).expect("read");
        assert_eq!(got, expected);
    }

    #[test]
    fn drain_encoded_resets_partial_front() {
        let (_tx, _rx) = pair();
        let mut wq = WriteQueue::default();
        let f = Frame::Request {
            seq: 9,
            round: 2,
            payload: vec![1, 2, 3],
        };
        wq.push_frame(&f).expect("frame fits");
        wq.push_bytes(Frame::Bye.encode().expect("frame fits"));
        // Simulate a partial write of the front frame.
        wq.front_off = 4;
        let drained = wq.drain_encoded();
        assert_eq!(drained.len(), 2);
        let encoded = f.encode().expect("frame fits");
        assert_eq!(drained[0], encoded, "front frame restarts from byte 0");
        assert_eq!(drained[1], Frame::Bye.encode().expect("frame fits"));
        assert!(wq.is_empty());
    }
}
