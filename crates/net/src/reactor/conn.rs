//! Per-connection buffer state machines for the reactor: a one-buffer
//! write queue and the connection roles the readiness loop dispatches
//! on.
//!
//! Frames are encoded back to back into one `Vec<u8>` per connection
//! and flushed with plain `write` from a single offset, so whatever a
//! round queued on a connection leaves in as few syscalls as the socket
//! buffer allows, and a flushed-empty queue keeps its allocation.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::TcpStream;

use gossip_sim::Round;
use latency_graph::NodeId;

use crate::conn::FrameReader;
use crate::error::CodecError;
use crate::wire::Frame;

/// What a registered connection is for; decides how readiness events
/// and decoded frames are handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ConnKind {
    /// Accepted, awaiting the dialer's `Hello`.
    Pending,
    /// Write side of link `idx` (one per peer reactor, and the self
    /// link to our own listener) — awaiting the `Hello` answer until the
    /// link is up, then carrying `Frame::Routed` envelopes to the nodes
    /// behind it.
    LinkOut(usize),
    /// Read side of a link into this reactor, a peer reactor's or our
    /// own (we only read after answering the handshake); `idx` is its
    /// seq mark's slot.
    LinkIn(usize),
    /// Handshake answer still flushing to a rejected dialer; closed as
    /// soon as the write queue empties. Inbound bytes are discarded.
    Closing,
}

/// Contiguous write queue: encoded frames back to back in `buf`, of
/// which `buf[..off]` is already on the wire.
#[derive(Default)]
pub(crate) struct WriteQueue {
    buf: Vec<u8>,
    off: usize,
    /// End offset in `buf` of every frame it holds, written or not —
    /// kept only so [`drain_encoded`](WriteQueue::drain_encoded) can
    /// find where the frame cut by `off` starts.
    ends: VecDeque<usize>,
    /// Scratch for a routed envelope's headers (`encode_routed_parts`
    /// clears its output, so it cannot append to `buf` directly).
    meta: Vec<u8>,
}

impl WriteQueue {
    /// Queues a plain frame, encoded in place at the tail. Returns its
    /// encoded size.
    ///
    /// # Errors
    ///
    /// [`CodecError::FrameTooLarge`] if the frame's body exceeds the
    /// wire cap; nothing is queued.
    pub(crate) fn push_frame(&mut self, frame: &Frame) -> Result<usize, CodecError> {
        let start = self.buf.len();
        frame.encode_into(&mut self.buf)?;
        self.ends.push_back(self.buf.len());
        Ok(self.buf.len() - start)
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
        let payload = Frame::encode_routed_parts(src, dst, release, inner, &mut self.meta)?;
        self.buf.extend_from_slice(&self.meta);
        self.buf.extend_from_slice(payload);
        self.ends.push_back(self.buf.len());
        Ok(self.meta.len() + payload.len())
    }

    /// Queues one pre-encoded frame (a link's backlog, replayed once
    /// its connection is up).
    pub(crate) fn push_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        self.ends.push_back(self.buf.len());
    }

    /// Whether everything queued has hit the wire.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.off == self.buf.len()
    }

    /// Unwritten byte count.
    pub(crate) fn queued_bytes(&self) -> usize {
        self.buf.len() - self.off
    }

    /// Empties the queue, returning every frame not yet fully on the
    /// wire as its own buffer — the frame cut by a partial write from
    /// byte 0, so a connection loss resends it intact (the receiving
    /// reactor drops a request it already delivered, by the link's seq
    /// mark).
    pub(crate) fn drain_encoded(&mut self) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        let mut start = 0;
        for end in self.ends.drain(..) {
            if end > self.off {
                frames.push(self.buf[start..end].to_vec());
            }
            start = end;
        }
        self.buf.clear();
        self.off = 0;
        frames
    }

    /// Writes as much as the socket accepts. `Ok(true)` means the queue
    /// emptied (and kept its buffer); `Ok(false)` means the socket
    /// would block (keep `EPOLLOUT` armed).
    pub(crate) fn flush(&mut self, stream: &mut impl Write) -> io::Result<bool> {
        while self.off < self.buf.len() {
            match stream.write(&self.buf[self.off..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.off += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.reclaim();
                    return Ok(false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.off = 0;
        self.ends.clear();
        Ok(true)
    }

    /// Drops the frames fully on the wire once they fill half the
    /// buffer, so a queue that never quite empties (a slow remote peer)
    /// holds its backlog, not everything it ever sent.
    fn reclaim(&mut self) {
        let written = self.ends.partition_point(|&end| end <= self.off);
        let head = written.checked_sub(1).map_or(0, |last| self.ends[last]);
        if head < self.buf.len() / 2 {
            return;
        }
        self.buf.drain(..head);
        self.ends.drain(..written);
        for end in &mut self.ends {
            *end -= head;
        }
        self.off -= head;
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
    /// Listed for the reactor's next `flush_dirty`, which clears it.
    pub(crate) dirty: bool,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, kind: ConnKind, interest: u32) -> Conn {
        Conn {
            stream,
            kind,
            reader: FrameReader::new(),
            wq: WriteQueue::default(),
            interest,
            dirty: false,
        }
    }

    /// Flags the connection as holding freshly queued bytes; `true` if
    /// it was not flagged already (the caller then lists it once).
    pub(crate) fn mark_dirty(&mut self) -> bool {
        !std::mem::replace(&mut self.dirty, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A socket stand-in that accepts `room` more bytes, then reports
    /// `WouldBlock`.
    struct Choked {
        room: usize,
        wire: Vec<u8>,
    }

    impl Write for Choked {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = bytes.len().min(self.room);
            self.wire.extend_from_slice(&bytes[..n]);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn choked(room: usize) -> Choked {
        Choked {
            room,
            wire: Vec::new(),
        }
    }

    fn request(seq: u64) -> Frame {
        Frame::Request {
            seq,
            round: 2,
            payload: vec![7; 300],
        }
    }

    #[test]
    fn flush_writes_frames_back_to_back_and_keeps_the_buffer() {
        let mut wq = WriteQueue::default();
        let mut expected = Vec::new();
        for f in [request(1), Frame::Done { round: 4 }, Frame::Bye] {
            f.encode_into(&mut expected).expect("frame encodes");
            let size = wq.push_frame(&f).expect("frame fits");
            assert_eq!(size, f.encode().expect("frame fits").len());
        }
        let (src, dst) = (NodeId::new(3), NodeId::new(5));
        let size = wq.push_routed(src, dst, 9, &request(8)).expect("fits");
        let routed = Frame::Routed {
            src,
            dst,
            release: 9,
            inner: Box::new(request(8)),
        };
        assert_eq!(size, routed.encode().expect("frame fits").len());
        routed.encode_into(&mut expected).expect("frame encodes");
        assert_eq!(wq.queued_bytes(), expected.len());

        let mut sock = choked(usize::MAX);
        assert!(wq.flush(&mut sock).expect("flush"));
        assert!(wq.is_empty());
        assert_eq!(wq.queued_bytes(), 0);
        assert_eq!(sock.wire, expected);

        let (ptr, cap) = (wq.buf.as_ptr(), wq.buf.capacity());
        wq.push_bytes(&expected[..8]);
        assert_eq!((wq.buf.as_ptr(), wq.buf.capacity()), (ptr, cap));
        assert_eq!(wq.ends, [8], "the flushed frames' ends are gone");
    }

    #[test]
    fn drain_encoded_after_a_partial_write_restarts_the_cut_frame() {
        let mut wq = WriteQueue::default();
        let first = request(9).encode().expect("frame fits");
        let bye = Frame::Bye.encode().expect("frame fits");
        let done = Frame::Done { round: 4 }.encode().expect("frame fits");
        wq.push_frame(&request(9)).expect("frame fits");
        wq.push_bytes(&bye);
        wq.push_frame(&Frame::Done { round: 4 })
            .expect("frame fits");
        // The first frame and half of the second reach the wire.
        assert!(!wq.flush(&mut choked(first.len() + 4)).expect("flush"));
        assert_eq!(wq.queued_bytes(), bye.len() - 4 + done.len());
        assert_eq!(
            wq.drain_encoded(),
            [bye, done],
            "written frame skipped, cut frame from byte 0, rest intact"
        );
        assert!(wq.is_empty());
    }

    #[test]
    fn choked_queue_holds_its_backlog_not_its_history() {
        let mut wq = WriteQueue::default();
        let mut sock = choked(0);
        let mut expected = Vec::new();
        let len = request(0).encode().expect("frame fits").len();
        // Each step queues two frames and the socket takes one and a
        // half, so the queue never empties.
        for seq in 0..200 {
            for f in [request(2 * seq), request(2 * seq + 1)] {
                f.encode_into(&mut expected).expect("frame encodes");
                wq.push_frame(&f).expect("frame fits");
            }
            sock.room = len + len / 2;
            assert!(!wq.flush(&mut sock).expect("flush"));
            assert!(wq.buf.len() <= 2 * wq.queued_bytes() + 2 * len);
        }
        assert_eq!(wq.queued_bytes(), expected.len() - sock.wire.len());
        sock.room = usize::MAX;
        assert!(wq.flush(&mut sock).expect("flush"));
        assert_eq!(sock.wire, expected, "reclaiming lost or moved no byte");
    }
}
