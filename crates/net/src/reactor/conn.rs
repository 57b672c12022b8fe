//! Buffer state machines for the reactor: a link's one-buffer write
//! queue and the connection roles the readiness loop dispatches on.
//!
//! A link's frames are encoded back to back into one `Vec<u8>` and
//! flushed with plain `write` from a single offset, so whatever a round
//! queued on the link leaves in as few syscalls as the socket buffer
//! allows, and a flushed-empty queue keeps its allocation. The queue
//! belongs to the link, not to a connection: it outlives the
//! connection that dies under it, and [`WriteQueue::rewind`] readies it
//! for the next one.

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
    /// link is up, then carrying the link's `Frame::Routed` envelopes to
    /// the nodes behind it.
    LinkOut(usize),
    /// Read side of a link into this reactor, a peer reactor's or our
    /// own (we only read after answering the handshake); `idx` is its
    /// seq mark's slot.
    LinkIn(usize),
}

/// Contiguous write queue: encoded frames back to back in `buf`, of
/// which `buf[..off]` is already on the wire.
#[derive(Default)]
pub(crate) struct WriteQueue {
    buf: Vec<u8>,
    off: usize,
    /// End offset in `buf` of every frame it holds, written or not —
    /// kept so a partial write's cut frame can be found again.
    ends: VecDeque<usize>,
    /// Scratch for a routed envelope's headers (`encode_routed_parts`
    /// clears its output, so it cannot append to `buf` directly).
    meta: Vec<u8>,
}

impl WriteQueue {
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

    /// Whether everything queued has hit the wire.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.off == self.buf.len()
    }

    /// Unwritten byte count.
    pub(crate) fn queued_bytes(&self) -> usize {
        self.buf.len() - self.off
    }

    /// Readies the queue for a new connection after its last one broke:
    /// the frames fully on the wire are dropped, and the frame a partial
    /// write cut restarts from byte 0, so the next connection resends it
    /// intact (the receiving reactor drops a request it already
    /// delivered, by the link's seq mark).
    pub(crate) fn rewind(&mut self) {
        self.drop_written(0);
        self.off = 0;
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
                    // A queue that never quite empties (a slow remote
                    // peer) holds its backlog, not everything it sent.
                    self.drop_written(self.buf.len() / 2);
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

    /// Drops the frames fully on the wire if they span at least `min`
    /// bytes; `off` then points into the first frame left.
    fn drop_written(&mut self, min: usize) {
        let written = self.ends.partition_point(|&end| end <= self.off);
        let head = written.checked_sub(1).map_or(0, |last| self.ends[last]);
        if head < min {
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

/// A registered connection: socket, role, reassembly buffer, and the
/// epoll interest currently armed for it. What it writes belongs to its
/// link.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    pub(crate) kind: ConnKind,
    pub(crate) reader: FrameReader,
    pub(crate) interest: u32,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, kind: ConnKind, interest: u32) -> Conn {
        Conn {
            stream,
            kind,
            reader: FrameReader::new(),
            interest,
        }
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

    /// Queues `inner` from node 3 to node 5 and returns the envelope's
    /// own encoding.
    fn push(wq: &mut WriteQueue, inner: Frame) -> Vec<u8> {
        let (src, dst) = (NodeId::new(3), NodeId::new(5));
        let size = wq.push_routed(src, dst, 9, &inner).expect("fits");
        let routed = Frame::Routed {
            src,
            dst,
            release: 9,
            inner: Box::new(inner),
        }
        .encode()
        .expect("frame fits");
        assert_eq!(size, routed.len());
        routed
    }

    #[test]
    fn flush_writes_frames_back_to_back_and_keeps_the_buffer() {
        let mut wq = WriteQueue::default();
        let mut expected = Vec::new();
        for f in [request(1), Frame::Done { round: 4 }, Frame::Bye] {
            expected.extend(push(&mut wq, f));
        }
        assert_eq!(wq.queued_bytes(), expected.len());

        let mut sock = choked(usize::MAX);
        assert!(wq.flush(&mut sock).expect("flush"));
        assert!(wq.is_empty());
        assert_eq!(wq.queued_bytes(), 0);
        assert_eq!(sock.wire, expected);

        let (ptr, cap) = (wq.buf.as_ptr(), wq.buf.capacity());
        let bye = push(&mut wq, Frame::Bye);
        assert_eq!((wq.buf.as_ptr(), wq.buf.capacity()), (ptr, cap));
        assert_eq!(wq.ends, [bye.len()], "the flushed frames' ends are gone");
    }

    #[test]
    fn rewind_after_a_partial_write_restarts_the_cut_frame() {
        let mut wq = WriteQueue::default();
        let first = push(&mut wq, request(9));
        let bye = push(&mut wq, Frame::Bye);
        let done = push(&mut wq, Frame::Done { round: 4 });
        // The first frame and half of the second reach the wire.
        assert!(!wq.flush(&mut choked(first.len() + 4)).expect("flush"));
        assert_eq!(wq.queued_bytes(), bye.len() - 4 + done.len());
        wq.rewind();
        let mut sock = choked(usize::MAX);
        assert!(wq.flush(&mut sock).expect("flush"));
        assert_eq!(
            sock.wire,
            [bye, done].concat(),
            "written frame skipped, cut frame from byte 0, rest intact"
        );
        assert!(wq.is_empty());
    }

    #[test]
    fn choked_queue_holds_its_backlog_not_its_history() {
        let mut wq = WriteQueue::default();
        let mut sock = choked(0);
        let mut expected = Vec::new();
        let len = push(&mut WriteQueue::default(), request(0)).len();
        // Each step queues two frames and the socket takes one and a
        // half, so the queue never empties.
        for seq in 0..200 {
            for f in [request(2 * seq), request(2 * seq + 1)] {
                expected.extend(push(&mut wq, f));
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
