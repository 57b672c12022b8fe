//! Reactor runtime: thousands of nodes per process over non-blocking
//! TCP (DESIGN.md §14) — the crate's one real-socket transport.
//!
//! **One** thread runs a single `epoll` readiness loop (`sys::Poller`)
//! hosting *every* connection of *many* nodes, with per-connection
//! read buffers (`conn::Conn`) and per-link write queues
//! (`conn::WriteQueue`) instead of blocking reader/writer threads, and
//! deadlines bounding `epoll_wait` instead of any `thread::sleep` (the
//! round target, the start budget, each link's redial instant). A reactor
//! hosting a single node is the one-node-per-process deployment;
//! nothing else changes. The reactor is the [`Transport`] of one shard:
//! the [`ShardRunner`] of its hosted nodes owns it.
//!
//! The reactor never holds a frame back by round: a decoded frame is
//! handed to the next poll of its destination, and the runner applies
//! it at `t + ℓ`. The `release` round of [`Transport::send`] is the
//! round by which the receiver needs the frame; drain pacing reads it
//! to decide when to pump.
//!
//! # Routed links
//!
//! File descriptors, not memory, bound per-edge sockets: a 4096-node
//! clique has ~8M directed edges. Every data connection is therefore a
//! **link** — one simplex TCP connection carrying [`Frame::Routed`]
//! envelopes `(src, dst, release)` for many node pairs — and the socket
//! count follows the reactors, not the edges. A link is FIFO, so
//! per-sender order holds; cross-sender interleave is harmless, as the
//! runner's hold canonicalizes application order by
//! `(initiated_at, initiator)`. Every link's handshake names one of its
//! edges, and its receiver admits an envelope only for an edge into its
//! shard from the dialer's side.
//!
//! * Toward nodes hosted *elsewhere*, frames ride one outbound link per
//!   peer reactor, keyed by the address [`Reactor::set_peer`] gave its
//!   nodes. The dialing side owns reconnection and loss accounting — a
//!   lost link surfaces one `PeerLost` per hosted–remote edge behind it
//!   — and stops sending to a node that said [`Frame::Bye`]: a departure
//!   is not a fault, and a link whose nodes have all departed retires
//!   without a loss. A link owns its write queue across its
//!   connections: what is sent while it is down waits there, and a
//!   reconnecting link resends the frame its dying connection cut, so
//!   the receiver keeps at-most-once delivery
//!   itself: a shard's request seqs rise in send order, so it drops a
//!   request at or below the highest seq already delivered over that
//!   inbound link.
//! * Between two nodes hosted *here*, frames ride the **self link**, the
//!   reactor's link to its own listener, planned only when two hosted
//!   nodes are adjacent. It is handshaken and counted in the start
//!   barrier like any other, but it never reconnects: it never repeats a
//!   frame (its seq mark is never consulted), drain pacing counts its
//!   envelopes exactly, and its failure is a hard error.
//!
//! # Pacing
//!
//! * [`Pacing::Drain`] — virtual time for single-process runs: frames
//!   are queued on the self link, and `poll(round)` pumps **when a due
//!   envelope is in flight** — one queued since the last pump with
//!   `release ≤ round` — until the reactor **quiesces** (the self link's
//!   write queue empty, every routed envelope decoded). A reply queued
//!   in round `t` is not wanted before round `t + 1` (ℓ ≥ 1), so a phase
//!   costs at most one pump — a few `write`s, `epoll_wait`s and `read`s
//!   on the one connection — however many frames it queued. With every
//!   node hosted, this reproduces the loopback transport's executions
//!   exactly — and hence the simulator's (DESIGN.md §11).
//! * [`Pacing::Wall`] — wall-clock rounds against a shared in-process
//!   epoch; every frame is written as soon as it is sent. This is the
//!   mode that interoperates across processes.

pub(crate) mod conn;
pub(crate) mod sys;

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::time::{Duration, Instant};

use gossip_sim::{Outcome, Protocol, Round, SimConfig};
use latency_graph::{Graph, NodeId};

use crate::conn::{validate_hello, Backoff};
use crate::error::{NetError, PeerLoss};
use crate::runner::{PayloadMode, ShardRunner, WireAccounting};
use crate::transport::{NetEvent, Transport, TransportStats};
use crate::wire::{BufPool, Decoded, Frame, WirePayload};

use conn::{Conn, ConnKind, WriteQueue};
use sys::{Poller, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};

/// How a reactor paces rounds; see the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pacing {
    /// Wall-clock rounds against a shared epoch (interop mode).
    Wall,
    /// Virtual time: pump-to-quiescence rounds. Requires every node of
    /// the graph to be hosted by this reactor.
    Drain,
}

/// Tuning knobs for the reactor runtime.
#[derive(Clone, Debug)]
pub struct ReactorConfig {
    /// Address to listen on; `127.0.0.1:0` picks an ephemeral port
    /// (read it back with [`Reactor::local_addr`]).
    pub listen: String,
    /// Wall-clock duration of one round ([`Pacing::Wall`] only).
    pub round: Duration,
    /// Round pacing mode.
    pub pacing: Pacing,
    /// Per-attempt connect timeout for links.
    pub connect_timeout: Duration,
    /// Budget for the start barrier: every link, the self link
    /// included, settled (up both ways, or conclusively lost), or
    /// [`NetError::StartTimeout`].
    pub start_timeout: Duration,
    /// First link reconnect backoff; doubles per attempt.
    pub retry_base: Duration,
    /// Backoff cap.
    pub retry_cap: Duration,
    /// Link dial attempts per outage before its peers are lost.
    pub max_retries: u32,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            listen: "127.0.0.1:0".to_owned(),
            round: Duration::from_millis(20),
            pacing: Pacing::Wall,
            connect_timeout: Duration::from_secs(1),
            start_timeout: Duration::from_secs(20),
            retry_base: Duration::from_millis(25),
            retry_cap: Duration::from_millis(400),
            max_retries: 5,
        }
    }
}

/// Epoll token of the listener (connections use their slab index).
const LISTENER_TOKEN: u64 = u64::MAX;
/// A drain pump that makes no progress for this long is declared
/// stalled (a bug escape hatch, not a tuning knob).
const DRAIN_STALL: Duration = Duration::from_secs(10);

/// An outbound link (we dial, we write) to one peer reactor, or the
/// self link to our own listener: every frame toward a node behind it
/// rides it in a routed envelope, queued on the link whether or not a
/// connection is up.
#[derive(Default)]
struct Link {
    /// The peer's listen address (`None`: no address was given).
    addr: Option<String>,
    /// The edge `(hosted, behind)` the link's `Hello` names.
    hello: (NodeId, NodeId),
    /// Connection slab index while dialing or established.
    conn: Option<usize>,
    /// Handshake answered (data may flow) — with `inbound`, the peer's
    /// link into this reactor answered, the start barrier.
    up: bool,
    inbound: bool,
    /// Conclusively lost (`PeerLost` delivered) or every node behind it
    /// departed: no more dials, and sends are dropped.
    retired: bool,
    /// Dial attempts in the current outage.
    attempts: u32,
    /// Capability bits the peer advertised in its handshake answer.
    caps: u32,
    /// Everything sent over the link and not yet on the wire, kept
    /// across its connections; written only while the link is up.
    wq: WriteQueue,
    /// When to dial next (`None`: no dial due).
    redial: Option<Instant>,
    /// Listed for the reactor's next `flush_dirty`, which clears it.
    dirty: bool,
}

impl Link {
    /// Connected both ways, or retired (a conclusive loss settles both
    /// directions).
    fn settled(&self) -> bool {
        self.retired || (self.up && self.inbound)
    }
}

/// A single-threaded reactor hosting one or more nodes of a graph: the
/// [`Transport`] of their shard.
///
/// Construct with [`Reactor::new`], supply remote neighbors' addresses
/// with [`Reactor::set_peer`], and hand it to the shard's runner. The
/// reactor is deliberately not `Send`: every connection, buffer, and
/// timer lives on one thread.
pub struct Reactor<'g> {
    /// The topology every hosted node runs on: sends are checked, and
    /// handshakes validated, against its adjacency rows.
    graph: &'g Graph,
    n: u32,
    hash: u64,
    cfg: ReactorConfig,
    backoff: Backoff,
    /// The hosted node ids.
    hosted: Range<usize>,
    /// The hosted nodes' traffic counters, in id order.
    stats: Vec<TransportStats>,
    /// Events the next `poll` returns, in arrival order. A poll into an
    /// empty inbox swaps the two buffers instead of moving the events.
    ready: Vec<NetEvent>,
    /// Capability bits the hosted nodes advertise in their handshakes
    /// ([`crate::wire::CAP_DELTA`]).
    caps: u32,
    peer_addrs: BTreeMap<NodeId, String>,
    /// One per peer reactor, planned by `start` from the peer addresses,
    /// and the self link.
    links: Vec<Link>,
    /// The link to our own listener, planned when two hosted nodes are
    /// adjacent.
    self_link: Option<usize>,
    /// Every remote neighbor of a hosted node: its link, and whether it
    /// said `Bye` (sends to it are dropped, its link's loss skips it).
    remotes: BTreeMap<NodeId, (usize, bool)>,
    /// Inbound links by the edge their `Hello` named (from a hosted node
    /// for the self link), each with the highest request seq delivered
    /// over it. A reconnecting link names the same edge, so the mark
    /// outlives its connections: a request at or below it is a replay
    /// and is dropped.
    marks: Vec<((NodeId, NodeId), u64)>,
    poller: Poller,
    listener: Option<TcpListener>,
    listen_addr: SocketAddr,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Links with freshly queued bytes, flushed each pump step.
    dirty: Vec<usize>,
    /// Routed envelopes queued / decoded. Under drain pacing every one
    /// rides the self link, which never repeats a frame, and both counts
    /// live in this single-threaded core, so equality — together with
    /// the self link's empty write queue — is an *exact* quiescence
    /// test.
    routed_enqueued: u64,
    routed_decoded: u64,
    /// Smallest `release` among the routed envelopes enqueued since the
    /// drain pump last quiesced (`Round::MAX` when there is none): a
    /// drain-paced poll of an earlier round has nothing to wait for.
    next_release: Round,
    epoch: Option<Instant>,
    started: bool,
    start_failed: bool,
    down: bool,
    events_scratch: Vec<(u64, u32)>,
    /// Payload buffers for decoding, refilled from what the runner
    /// hands back ([`Transport::recycle`]).
    pool: BufPool,
}

impl<'g> Reactor<'g> {
    /// Binds the listener and prepares to host the nodes `hosted` of
    /// `graph`.
    ///
    /// # Errors
    ///
    /// Fails if `hosted` is empty or out of range, the listen address
    /// is unusable, or the epoll instance cannot be created.
    pub fn new(
        graph: &'g Graph,
        hosted: Range<usize>,
        cfg: ReactorConfig,
    ) -> Result<Reactor<'g>, NetError> {
        if hosted.is_empty() || hosted.end > graph.node_count() {
            return Err(NetError::ProtocolViolation(format!(
                "reactor cannot host nodes {hosted:?}"
            )));
        }
        let listener = TcpListener::bind(&cfg.listen)?;
        listener.set_nonblocking(true)?;
        let listen_addr = listener.local_addr()?;
        let poller = Poller::new()?;
        {
            use std::os::fd::AsRawFd;
            poller.add(listener.as_raw_fd(), LISTENER_TOKEN, EPOLLIN)?;
        }
        let backoff = Backoff::new(cfg.retry_base, cfg.retry_cap);
        Ok(Reactor {
            graph,
            n: u32::try_from(graph.node_count()).expect("node count fits u32"),
            hash: graph.topology_hash(),
            cfg,
            backoff,
            stats: vec![TransportStats::default(); hosted.len()],
            hosted,
            ready: Vec::new(),
            caps: 0,
            peer_addrs: BTreeMap::new(),
            links: Vec::new(),
            self_link: None,
            remotes: BTreeMap::new(),
            marks: Vec::new(),
            poller,
            listener: Some(listener),
            listen_addr,
            conns: Vec::new(),
            free: Vec::new(),
            dirty: Vec::new(),
            routed_enqueued: 0,
            routed_decoded: 0,
            next_release: Round::MAX,
            epoch: None,
            started: false,
            start_failed: false,
            down: false,
            events_scratch: Vec::new(),
            pool: BufPool::default(),
        })
    }

    /// The bound listen address (`ip:port`), for exchanging with other
    /// shards.
    pub fn local_addr(&self) -> String {
        self.listen_addr.to_string()
    }

    /// Supplies the address of a remote (non-hosted) node; required for
    /// every remote neighbor before `start`. Nodes given the same
    /// address share one link.
    pub fn set_peer(&mut self, node: NodeId, addr: String) {
        self.peer_addrs.insert(node, addr);
    }

    fn register(&mut self, conn: Conn) -> Result<usize, NetError> {
        use std::os::fd::AsRawFd;
        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let token = u64::try_from(idx).expect("slab index fits u64");
        self.poller
            .add(conn.stream.as_raw_fd(), token, conn.interest)
            .map_err(NetError::Io)?;
        self.conns[idx] = Some(conn);
        Ok(idx)
    }

    fn close_conn(&mut self, idx: usize) {
        use std::os::fd::AsRawFd;
        if let Some(conn) = self.conns[idx].take() {
            // Best-effort: dropping the stream removes it from epoll
            // anyway.
            let _ = self.poller.remove(conn.stream.as_raw_fd());
            self.free.push(idx);
        }
    }

    /// Lists an up link for the next `flush_dirty`, once.
    fn mark_dirty(&mut self, link: usize) {
        let l = &mut self.links[link];
        if l.up && !std::mem::replace(&mut l.dirty, true) {
            self.dirty.push(link);
        }
    }

    // ---- start ------------------------------------------------------

    /// Groups the hosted nodes' remote neighbors into one link per
    /// peer address, each naming the first cross edge found behind it,
    /// and plans the self link on the first hosted–hosted edge.
    fn plan_links(&mut self) {
        let mut by_addr: BTreeMap<Option<&String>, usize> = BTreeMap::new();
        for u in self.hosted.clone().map(NodeId::new) {
            for &v in self.graph.neighbor_ids(u) {
                if self.hosted.contains(&v.index()) {
                    if self.self_link.is_none() {
                        self.links.push(Link {
                            addr: Some(self.listen_addr.to_string()),
                            hello: (u, v),
                            ..Link::default()
                        });
                        self.self_link = Some(self.links.len() - 1);
                    }
                    continue;
                }
                if self.remotes.contains_key(&v) {
                    continue;
                }
                let addr = self.peer_addrs.get(&v);
                let link = *by_addr.entry(addr).or_insert_with(|| {
                    self.links.push(Link {
                        addr: addr.cloned(),
                        hello: (u, v),
                        ..Link::default()
                    });
                    self.links.len() - 1
                });
                self.remotes.insert(v, (link, false));
            }
        }
    }

    /// The handshake frame naming the edge `(node, to)`.
    fn hello(&self, node: NodeId, to: NodeId) -> Vec<u8> {
        let hello = Frame::Hello {
            node,
            to,
            n: self.n,
            topology_hash: self.hash,
            caps: self.caps,
        };
        hello.encode().expect("hello frame fits")
    }

    /// Dials `addr` for `link`'s next connection and writes its `Hello`
    /// while the fresh socket still blocks.
    fn dial(&self, addr: &SocketAddr, link: usize) -> io::Result<Conn> {
        let mut stream = TcpStream::connect_timeout(addr, self.cfg.connect_timeout)?;
        stream.set_nodelay(true)?;
        let (node, to) = self.links[link].hello;
        stream.write_all(&self.hello(node, to))?;
        stream.set_nonblocking(true)?;
        Ok(Conn::new(stream, ConnKind::LinkOut(link), EPOLLIN))
    }

    fn barrier_holds(&self) -> bool {
        self.links.iter().all(Link::settled)
    }

    /// The remote neighbors behind the links still unsettled.
    fn barrier_waiting(&self) -> Vec<NodeId> {
        self.remotes
            .iter()
            .filter(|&(_, &(link, _))| !self.links[link].settled())
            .map(|(&v, _)| v)
            .collect()
    }

    // ---- pump -------------------------------------------------------

    /// One readiness step: wait up to `timeout` for events, handle them.
    fn poll_wait(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        let mut events = std::mem::take(&mut self.events_scratch);
        events.clear();
        self.poller
            .wait(timeout, &mut events)
            .map_err(NetError::Io)?;
        let mut result = Ok(());
        for &(token, ev) in &events {
            if let Err(e) = self.handle_event(token, ev) {
                result = Err(e);
                break;
            }
        }
        self.events_scratch = events;
        result
    }

    /// Dials, in link order, each link whose redial instant has passed.
    fn fire_timers(&mut self) -> Result<(), NetError> {
        let now = Instant::now();
        for link in 0..self.links.len() {
            if self.links[link].redial.is_some_and(|at| at <= now) {
                self.links[link].redial = None;
                self.dial_link(link)?;
            }
        }
        Ok(())
    }

    fn flush_dirty(&mut self) -> Result<(), NetError> {
        let dirty = std::mem::take(&mut self.dirty);
        for link in dirty {
            self.links[link].dirty = false;
            self.flush_link(link)?;
        }
        Ok(())
    }

    fn handle_event(&mut self, token: u64, ev: u32) -> Result<(), NetError> {
        if token == LISTENER_TOKEN {
            return self.accept_ready();
        }
        let Ok(idx) = usize::try_from(token) else {
            return Ok(());
        };
        if idx >= self.conns.len() || self.conns[idx].is_none() {
            return Ok(()); // stale event for a closed connection
        }
        if ev & (EPOLLIN | EPOLLERR | EPOLLHUP) != 0 {
            // Errors and hangups surface through read(): remaining
            // bytes first, then the EOF / error itself.
            self.read_conn(idx)?;
        }
        if ev & EPOLLOUT != 0 {
            if let Some(ConnKind::LinkOut(link)) = self.conns[idx].as_ref().map(|c| c.kind) {
                self.flush_link(link)?;
            }
        }
        Ok(())
    }

    fn accept_ready(&mut self) -> Result<(), NetError> {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return Ok(());
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
                        continue; // peer already gone; drop it
                    }
                    self.register(Conn::new(stream, ConnKind::Pending, EPOLLIN))?;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient per-connection accept failures (e.g. the
                // peer aborted while queued) must not kill the reactor.
                Err(_) => {}
            }
        }
    }

    fn read_conn(&mut self, idx: usize) -> Result<(), NetError> {
        loop {
            let Some(conn) = self.conns[idx].as_mut() else {
                return Ok(());
            };
            match conn.reader.read_from(&mut conn.stream) {
                Ok(0) => return self.conn_broken(idx, "connection closed by peer"),
                Ok(_) => self.dispatch_frames(idx)?,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return self.conn_broken(idx, &e.to_string()),
            }
        }
    }

    fn dispatch_frames(&mut self, idx: usize) -> Result<(), NetError> {
        loop {
            let Some(conn) = self.conns[idx].as_mut() else {
                return Ok(());
            };
            let kind = conn.kind;
            match conn.reader.next_decoded(&mut self.pool) {
                Ok(Some((decoded, used))) => self.handle_frame(idx, kind, decoded, used)?,
                Ok(None) => return Ok(()),
                Err(e) => return self.conn_broken(idx, &format!("codec error: {e}")),
            }
        }
    }

    /// Routes one decoded frame by the role of the connection it came
    /// in on. Data arrives only in routed envelopes, which stay
    /// unboxed: the inner frame goes straight to
    /// [`deliver`](Self::deliver).
    fn handle_frame(
        &mut self,
        idx: usize,
        kind: ConnKind,
        decoded: Decoded,
        used: u64,
    ) -> Result<(), NetError> {
        match kind {
            ConnKind::Pending => self.handle_handshake(idx, &decoded.into_frame()),
            ConnKind::LinkOut(link) if !self.links[link].up => {
                self.handle_dial_answer(idx, link, &decoded.into_frame())
            }
            ConnKind::LinkIn(mark) => {
                let Decoded::Routed {
                    src, dst, inner, ..
                } = decoded
                else {
                    return self.conn_broken(idx, "non-routed data frame");
                };
                // The envelope must name an edge into this shard from the
                // dialer's side: hosted on the self link, remote on a
                // peer reactor's.
                let self_link = self.on_self_link(kind);
                let admissible = self.hosted.contains(&dst.index())
                    && self.hosted.contains(&src.index()) == self_link
                    && self.graph.neighbor_index(dst, src).is_some();
                if !admissible {
                    return self.conn_broken(idx, "routed frame names no edge of its link");
                }
                self.routed_decoded += 1;
                // Only a peer reactor's link reconnects and replays.
                if self_link || self.admit(mark, src, &inner) {
                    self.deliver(src, dst, inner, used);
                }
                Ok(())
            }
            // Established links carry no inbound data; stray bytes are
            // ignored (EOF is what matters, and read_conn catches it).
            ConnKind::LinkOut(_) => Ok(()),
        }
    }

    /// Whether a frame off a peer reactor's inbound link `mark` is new:
    /// a reconnecting link replays what its dying connection cut, and a
    /// shard's request seqs rise in send order, so a request at or below
    /// the link's mark was delivered already. A `Bye` departs its sender.
    fn admit(&mut self, mark: usize, src: NodeId, frame: &Frame) -> bool {
        match *frame {
            Frame::Request { seq, .. } | Frame::RequestDelta { seq, .. } => {
                let delivered = &mut self.marks[mark].1;
                if seq <= *delivered {
                    return false;
                }
                *delivered = seq;
            }
            Frame::Bye => self.depart(src),
            // Replies are matched to their request by the runner; the
            // rest carry no seq.
            Frame::Reply { .. }
            | Frame::ReplyDelta { .. }
            | Frame::Done { .. }
            | Frame::Hello { .. }
            | Frame::Routed { .. } => {}
        }
        true
    }

    /// First frame on an accepted connection: a link's `Hello`, which
    /// names one edge `(node, to)` into this shard — from a remote node
    /// on a peer reactor's link, from a hosted one on the self link.
    fn handle_handshake(&mut self, idx: usize, frame: &Frame) -> Result<(), NetError> {
        let Frame::Hello { node, to, .. } = *frame else {
            // Garbage before a handshake is dropped without an answer.
            self.close_conn(idx);
            return Ok(());
        };
        // Answer before validating, so a mismatched dialer can read the
        // answer and fail fast on its side. The connection has carried
        // nothing yet, so one `write` takes the whole answer; a short one
        // fails the handshake, and the dialer retries.
        let answer = self.hello(to, node);
        let written = self.conns[idx]
            .as_mut()
            .map(|conn| conn.stream.write(&answer));
        let valid = validate_hello(frame, self.n, self.hash).is_ok()
            && self.hosted.contains(&to.index())
            && self.graph.neighbor_index(to, node).is_some();
        if !valid || !matches!(written, Some(Ok(len)) if len == answer.len()) {
            self.close_conn(idx);
            return Ok(());
        }
        // A reconnect names the same edge, and keeps its mark.
        let known = self.marks.iter().position(|&(edge, _)| edge == (node, to));
        let mark = known.unwrap_or_else(|| {
            self.marks.push(((node, to), 0));
            self.marks.len() - 1
        });
        if let Some(link) = self.link_of(node) {
            self.links[link].inbound = true;
        }
        if let Some(conn) = self.conns[idx].as_mut() {
            conn.kind = ConnKind::LinkIn(mark);
        }
        Ok(())
    }

    /// The `Hello` answer on a link we dialed.
    fn handle_dial_answer(
        &mut self,
        idx: usize,
        link: usize,
        frame: &Frame,
    ) -> Result<(), NetError> {
        let (from, to) = self.links[link].hello;
        let why = match validate_hello(frame, self.n, self.hash) {
            Ok((node, addressed, caps)) if node == to && addressed == from => {
                let l = &mut self.links[link];
                l.up = true;
                l.attempts = 0;
                l.caps = caps;
                // What was sent while the link was down goes out now.
                self.mark_dirty(link);
                return Ok(());
            }
            Ok((node, _, _)) => format!(
                "dialed node {} but node {} answered",
                to.index(),
                node.index()
            ),
            Err(why) => why,
        };
        // A wrong peer behind the address is as conclusive as a
        // topology mismatch.
        self.close_conn(idx);
        let attempts = self.links[link].attempts + 1;
        self.link_lost(link, attempts, why)
    }

    /// Hands a decoded data frame to hosted node `dst`'s next poll.
    fn deliver(&mut self, src: NodeId, dst: NodeId, frame: Frame, used: u64) {
        let stats = &mut self.stats[dst.index() - self.hosted.start];
        stats.frames_received += 1;
        stats.bytes_received += used;
        self.ready.push(NetEvent::Frame {
            from: src,
            to: dst,
            frame,
        });
    }

    /// The link `node` is reached over: the self link for a hosted node,
    /// its reactor's link for a remote one.
    fn link_of(&self, node: NodeId) -> Option<usize> {
        if self.hosted.contains(&node.index()) {
            self.self_link
        } else {
            self.remotes.get(&node).map(|&(link, _)| link)
        }
    }

    /// Whether a connection is either end of the self link.
    fn on_self_link(&self, kind: ConnKind) -> bool {
        match kind {
            ConnKind::LinkOut(link) => self.self_link == Some(link),
            ConnKind::LinkIn(mark) => self.hosted.contains(&self.marks[mark].0 .0.index()),
            ConnKind::Pending => false,
        }
    }

    /// The self link never redials: before teardown, any failure of it
    /// is a hard error.
    fn self_link_failed(why: &str) -> NetError {
        NetError::ProtocolViolation(format!("self link failed: {why}"))
    }

    fn conn_broken(&mut self, idx: usize, why: &str) -> Result<(), NetError> {
        let Some(kind) = self.conns[idx].as_ref().map(|c| c.kind) else {
            return Ok(());
        };
        if !self.down && self.on_self_link(kind) {
            return Err(Self::self_link_failed(why));
        }
        match kind {
            // An inbound connection: the dialing side owns reconnection
            // and loss accounting.
            ConnKind::Pending | ConnKind::LinkIn(_) => {
                self.close_conn(idx);
                Ok(())
            }
            ConnKind::LinkOut(link) if !self.links[link].up => {
                self.close_conn(idx);
                self.links[link].conn = None;
                self.link_dial_failed(link, format!("handshake failed: {why}"))
            }
            ConnKind::LinkOut(link) => {
                // Keep the queued frames (the cut one restarts from byte
                // 0; the receiving reactor drops a request it already
                // delivered, by the link's seq mark) and begin a fresh
                // outage.
                self.close_conn(idx);
                let l = &mut self.links[link];
                l.conn = None;
                l.up = false;
                l.attempts = 0;
                l.wq.rewind();
                l.redial = Some(Instant::now());
                Ok(())
            }
        }
    }

    /// Writes what an up link has queued, arming `EPOLLOUT` on its
    /// connection while bytes remain.
    fn flush_link(&mut self, link: usize) -> Result<(), NetError> {
        use std::os::fd::AsRawFd;
        let l = &mut self.links[link];
        let Some(idx) = l.conn.filter(|_| l.up) else {
            return Ok(());
        };
        let Some(conn) = self.conns[idx].as_mut() else {
            return Ok(());
        };
        match l.wq.flush(&mut conn.stream) {
            Ok(emptied) => {
                let desired = EPOLLIN | if emptied { 0 } else { EPOLLOUT };
                if conn.interest != desired {
                    let token = u64::try_from(idx).expect("slab index fits u64");
                    self.poller
                        .modify(conn.stream.as_raw_fd(), token, desired)
                        .map_err(NetError::Io)?;
                    conn.interest = desired;
                }
                Ok(())
            }
            Err(e) => self.conn_broken(idx, &e.to_string()),
        }
    }

    // ---- links ------------------------------------------------------

    fn dial_link(&mut self, link: usize) -> Result<(), NetError> {
        let l = &self.links[link];
        if self.down || l.retired || l.conn.is_some() {
            return Ok(()); // connected, retired, or torn down
        }
        let to = l.hello.1;
        let resolved = l.addr.as_ref().map(|a| a.to_socket_addrs().ok()?.next());
        let Some(Some(sockaddr)) = resolved else {
            let why = match &l.addr {
                Some(addr) => format!("bad address {addr}"),
                None => format!("no address for node {}", to.index()),
            };
            return self.link_lost(link, 0, why);
        };
        match self.dial(&sockaddr, link) {
            Ok(conn) => {
                let idx = self.register(conn)?;
                self.links[link].conn = Some(idx);
                Ok(())
            }
            Err(e) => self.link_dial_failed(link, e.to_string()),
        }
    }

    fn link_dial_failed(&mut self, link: usize, error: String) -> Result<(), NetError> {
        let l = &mut self.links[link];
        l.attempts += 1;
        let attempts = l.attempts;
        if attempts >= self.cfg.max_retries.max(1) || self.self_link == Some(link) {
            return self.link_lost(link, attempts, error);
        }
        l.redial = Some(Instant::now() + self.backoff.delay(attempts));
        Ok(())
    }

    /// Retires `link`: closes its connection, drops its write queue, and
    /// turns later dials and sends into no-ops. Returns whether this
    /// call did the retiring.
    fn retire_link(&mut self, link: usize) -> bool {
        let l = &mut self.links[link];
        if l.retired {
            return false;
        }
        l.retired = true;
        l.up = false;
        l.redial = None;
        l.wq = WriteQueue::default();
        if let Some(idx) = l.conn.take() {
            self.close_conn(idx);
        }
        true
    }

    /// Retires `link` as lost: one `PeerLost` per edge from a hosted
    /// node to a remote node behind it that has not departed. The self
    /// link is never retired: losing it is a hard error.
    fn link_lost(&mut self, link: usize, attempts: u32, error: String) -> Result<(), NetError> {
        if self.self_link == Some(link) {
            return Err(Self::self_link_failed(&error));
        }
        // Retiring happens once per link, so each loss surfaces once.
        if !self.retire_link(link) {
            return Ok(());
        }
        for (&peer, &(behind, departed)) in &self.remotes {
            if behind != link || departed {
                continue;
            }
            for &to in self.graph.neighbor_ids(peer) {
                if self.hosted.contains(&to.index()) {
                    self.ready.push(NetEvent::PeerLost {
                        to,
                        loss: PeerLoss {
                            peer,
                            attempts,
                            error: error.clone(),
                        },
                    });
                }
            }
        }
        Ok(())
    }

    /// Remote node `peer` said `Bye`: a graceful departure, not an
    /// outage. Its link is retired, with no loss, once every node
    /// behind it has departed — the sockets about to close behind them
    /// must not be re-dialled.
    fn depart(&mut self, peer: NodeId) {
        let Some((link, departed)) = self.remotes.get_mut(&peer).filter(|r| !r.1) else {
            return;
        };
        *departed = true;
        let link = *link;
        if !self.remotes.values().any(|&(l, gone)| l == link && !gone) {
            self.retire_link(link);
        }
    }

    // ---- drain and wall pacing --------------------------------------

    /// The self link's write queue empty and every routed envelope
    /// decoded: with all nodes hosted (drain's precondition) nothing is
    /// in flight.
    fn drain_quiesced(&self) -> bool {
        self.routed_enqueued == self.routed_decoded && self.self_backlog() == 0
    }

    /// Bytes queued on the self link, not yet written.
    fn self_backlog(&self) -> usize {
        self.self_link
            .map_or(0, |link| self.links[link].wq.queued_bytes())
    }

    fn pump_drain(&mut self) -> Result<(), NetError> {
        let mut stall_deadline = Instant::now() + DRAIN_STALL;
        loop {
            self.flush_dirty()?;
            if self.drain_quiesced() {
                return Ok(());
            }
            let before = (self.routed_decoded, self.self_backlog());
            self.poll_wait(Some(Duration::from_millis(50)))?;
            let now = Instant::now();
            if (self.routed_decoded, self.self_backlog()) != before {
                stall_deadline = now + DRAIN_STALL;
            } else if now >= stall_deadline {
                return Err(NetError::ProtocolViolation(
                    "reactor drain stalled: frames in flight but no progress".to_owned(),
                ));
            }
        }
    }

    /// Dials due links and pumps sockets until `done` holds (`Ok(true)`)
    /// or `deadline` passes (`Ok(false)`); the earliest redial bounds
    /// each wait.
    fn pump_until(&mut self, deadline: Instant, done: fn(&Self) -> bool) -> Result<bool, NetError> {
        loop {
            self.fire_timers()?;
            self.flush_dirty()?;
            if done(self) {
                return Ok(true);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(false);
            }
            let wake = self
                .links
                .iter()
                .filter_map(|l| l.redial)
                .fold(deadline, Instant::min);
            self.poll_wait(Some(wake.saturating_duration_since(now)))?;
        }
    }

    fn teardown(&mut self) {
        if self.down {
            return;
        }
        // Flush whatever is already queued (goodbyes, final replies) on
        // a best-effort basis before closing: one bounded pass, no
        // retries — peers that already left would stall a full drain.
        let _ = self.flush_dirty();
        self.down = true;
        for idx in 0..self.conns.len() {
            self.close_conn(idx);
        }
        self.listener = None;
        self.dirty.clear();
    }
}

impl Drop for Reactor<'_> {
    fn drop(&mut self) {
        self.teardown();
    }
}

impl Transport for Reactor<'_> {
    fn start(&mut self) -> Result<(), NetError> {
        if self.started {
            return Ok(());
        }
        if self.start_failed || self.down {
            return Err(NetError::ProtocolViolation(
                "reactor already failed or shut down".to_owned(),
            ));
        }
        // Cleared once the barrier holds: every early return fails it.
        self.start_failed = true;
        self.plan_links();
        if self.cfg.pacing == Pacing::Drain && !self.remotes.is_empty() {
            return Err(NetError::ProtocolViolation(
                "drain pacing requires hosting every node in one reactor".to_owned(),
            ));
        }
        let now = Instant::now();
        for link in &mut self.links {
            link.redial = Some(now);
        }
        if !self.pump_until(now + self.cfg.start_timeout, Self::barrier_holds)? {
            return Err(NetError::StartTimeout {
                waiting: self.barrier_waiting(),
            });
        }
        self.epoch = Some(Instant::now());
        self.started = true;
        self.start_failed = false;
        Ok(())
    }

    fn set_caps(&mut self, caps: u32) {
        self.caps = caps;
    }

    fn peer_caps(&self, peer: NodeId) -> u32 {
        self.link_of(peer).map_or(0, |link| self.links[link].caps)
    }

    /// Queues `frame` from hosted `src` toward its neighbor `to`, the
    /// `nth` entry of `src`'s adjacency row, in a routed envelope on the
    /// link `to` is reached over — the self link for a hosted `to`. It
    /// leaves with the link's next flush once the link is up.
    fn send(
        &mut self,
        src: NodeId,
        release: Round,
        to: NodeId,
        nth: usize,
        frame: &Frame,
    ) -> Result<(), NetError> {
        if self.down {
            return Ok(()); // teardown already reported whatever mattered
        }
        if !self.hosted.contains(&src.index()) {
            return Err(NetError::ProtocolViolation(format!(
                "send from node {}, which this reactor does not host",
                src.index()
            )));
        }
        // The row entry the runner's initiation (or answer) just read.
        if self.graph.neighbor_ids(src).get(nth) != Some(&to) {
            return Err(NetError::UnknownPeer(to));
        }
        // A departed peer, or one behind a retired link: sends are
        // silent no-ops.
        let departed = self.remotes.get(&to).is_some_and(|&(_, gone)| gone);
        let Some(link) = self
            .link_of(to)
            .filter(|&link| !departed && !self.links[link].retired)
        else {
            return Ok(());
        };
        let sent_bytes = self.links[link].wq.push_routed(src, to, release, frame)?;
        self.mark_dirty(link);
        self.routed_enqueued += 1;
        self.next_release = self.next_release.min(release);
        let stats = &mut self.stats[src.index() - self.hosted.start];
        stats.frames_sent += 1;
        stats.bytes_sent += u64::try_from(sent_bytes).expect("frame size fits u64");
        Ok(())
    }

    fn poll(&mut self, round: Round, out: &mut Vec<NetEvent>) -> Result<(), NetError> {
        if !self.started {
            return Err(NetError::ProtocolViolation("poll before start".to_owned()));
        }
        match self.cfg.pacing {
            // An envelope released after `round` can wait in its write
            // queue: latencies are ≥ 1 round, so a poll with nothing
            // due touches no socket.
            Pacing::Drain => {
                if self.next_release <= round {
                    self.pump_drain()?;
                    self.next_release = Round::MAX;
                }
            }
            Pacing::Wall => {
                let epoch = self
                    .epoch
                    .ok_or_else(|| NetError::ProtocolViolation("poll before start".to_owned()))?;
                // `round · Δ`, clamped to a day: past any round a
                // wall-paced run reaches.
                let offset = self.cfg.round.as_nanos().saturating_mul(u128::from(round));
                let offset = Duration::from_nanos(u64::try_from(offset).unwrap_or(u64::MAX));
                let target = epoch + offset.min(Duration::from_secs(86_400));
                self.pump_until(target, |_| false)?;
                // Non-blocking sweep so a same-round re-poll drains
                // whatever has already arrived.
                self.poll_wait(Some(Duration::ZERO))?;
                self.flush_dirty()?;
            }
        }
        if out.is_empty() {
            std::mem::swap(out, &mut self.ready);
        } else {
            out.append(&mut self.ready);
        }
        Ok(())
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        self.pool.put(buf);
    }

    fn stats(&self, node: NodeId) -> TransportStats {
        let slot = node.index().checked_sub(self.hosted.start);
        slot.and_then(|s| self.stats.get(s))
            .copied()
            .unwrap_or_default()
    }

    fn shutdown(&mut self) {
        self.teardown();
    }
}

/// [`crate::run_loopback_mode_with_stats`] over real sockets: the whole
/// cluster is one shard of one drain-paced reactor, whose self link
/// carries every frame. The outcome equals the loopback run's — and hence the
/// simulator's — in either payload mode; `tests/reactor_equivalence.rs`
/// checks that case by case.
///
/// # Panics
///
/// Panics if `config` asks for the blocking or capped model (see
/// [`ShardRunner::new`]), or if the reactor fails (socket exhaustion, a
/// stalled drain) — in a single-process run those are bugs or
/// environment limits, not recoverable protocol conditions.
pub fn run_reactor_mode_with_stats<P, F, S>(
    graph: &Graph,
    config: &SimConfig,
    mode: PayloadMode,
    factory: F,
    stop: S,
) -> (Outcome<P>, TransportStats, WireAccounting)
where
    P: Protocol,
    P::Payload: WirePayload,
    F: FnMut(NodeId, usize) -> P,
    S: FnMut(&[&P], Round) -> bool,
{
    let cfg = ReactorConfig {
        pacing: Pacing::Drain,
        ..ReactorConfig::default()
    };
    let n = graph.node_count();
    let reactor =
        Reactor::new(graph, 0..n, cfg).unwrap_or_else(|e| panic!("reactor setup failed: {e}"));
    ShardRunner::new(graph, 0..n, config, mode, factory, reactor).run_until(stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::POOL_BYTES;
    use latency_graph::generators;
    use std::io::Write;

    fn drain_cfg() -> ReactorConfig {
        ReactorConfig {
            pacing: Pacing::Drain,
            ..ReactorConfig::default()
        }
    }

    fn poll(reactor: &mut Reactor<'_>, round: Round) -> Vec<NetEvent> {
        let mut out = Vec::new();
        reactor.poll(round, &mut out).expect("poll");
        out
    }

    /// Connections registered with the poller, either end of a link.
    fn registered(reactor: &Reactor<'_>) -> usize {
        reactor.conns.iter().flatten().count()
    }

    #[test]
    fn a_reactor_opens_a_self_link_only_for_adjacent_hosted_nodes() {
        use std::sync::{mpsc, Barrier};

        // Two one-node reactors over a path, one thread each: a link out
        // and the peer's link in, and no self link.
        let g = generators::path(2);
        let both_started = Barrier::new(2);
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..2).map(|_| mpsc::channel::<String>()).unzip();
        let held: Vec<(bool, usize)> = std::thread::scope(|s| {
            let handles: Vec<_> = rxs
                .into_iter()
                .enumerate()
                .map(|(k, rx)| {
                    let (g, both_started, announce) = (&g, &both_started, txs[1 - k].clone());
                    s.spawn(move || {
                        let mut reactor =
                            Reactor::new(g, k..k + 1, ReactorConfig::default()).expect("reactor");
                        announce.send(reactor.local_addr()).expect("announce");
                        let other = rx
                            .recv_timeout(Duration::from_secs(10))
                            .expect("the other reactor announces");
                        reactor.set_peer(NodeId::new(1 - k), other);
                        reactor.start().expect("start");
                        let held = (reactor.self_link.is_some(), registered(&reactor));
                        // Neither tears down before both barriers hold.
                        both_started.wait();
                        held
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reactor thread"))
                .collect()
        });
        assert_eq!(held, [(false, 2), (false, 2)]);

        // A drain reactor hosting a whole path: the self link's two ends.
        let g = generators::path(3);
        let mut reactor = Reactor::new(&g, 0..3, drain_cfg()).expect("reactor");
        reactor.start().expect("start");
        assert!(reactor.self_link.is_some());
        assert_eq!(registered(&reactor), 2);
    }

    #[test]
    fn a_failed_self_link_is_a_hard_error() {
        let g = generators::path(2);
        let mut reactor = Reactor::new(&g, 0..2, drain_cfg()).expect("reactor");
        reactor.start().expect("start");
        let accepted = reactor
            .conns
            .iter()
            .flatten()
            .find(|c| matches!(c.kind, ConnKind::LinkIn(_)))
            .expect("the self link's accepted end");
        accepted
            .stream
            .shutdown(std::net::Shutdown::Both)
            .expect("shutdown");
        reactor
            .send(NodeId::new(0), 1, NodeId::new(1), 0, &Frame::Bye)
            .expect("send");
        let mut out = Vec::new();
        let err = reactor.poll(1, &mut out).expect_err("the self link failed");
        assert!(
            matches!(&err, NetError::ProtocolViolation(why) if why.contains("self link")),
            "unexpected error: {err}"
        );
        assert!(out.is_empty(), "no PeerLost: {out:?}");
    }

    #[test]
    fn frames_flow_between_hosted_nodes_once_a_poll_is_due() {
        let g = generators::path(2);
        let mut reactor = Reactor::new(&g, 0..2, drain_cfg()).expect("reactor");
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        reactor.start().expect("start");
        reactor.start().expect("start is idempotent");
        let req = Frame::Request {
            seq: 1,
            round: 0,
            payload: vec![1, 2, 3],
        };
        reactor.send(a, 2, b, 0, &req).expect("send");
        assert!(
            poll(&mut reactor, 1).is_empty(),
            "release 2 is not due at round 1: no pump"
        );
        assert!(reactor.self_backlog() > 0, "nothing due: no socket touched");
        assert_eq!(reactor.routed_decoded, 0);
        let events = poll(&mut reactor, 2);
        assert_eq!(reactor.self_backlog(), 0);
        assert_eq!(events.len(), 1);
        match &events[0] {
            NetEvent::Frame { from, to, frame } => {
                assert_eq!((*from, *to), (a, b));
                assert_eq!(*frame, req);
            }
            NetEvent::PeerLost { loss, .. } => panic!("unexpected loss: {loss}"),
        }
        let s = reactor.stats(a);
        assert_eq!(s.frames_sent, 1);
        assert!(s.bytes_sent > 0, "envelope bytes counted");
        assert_eq!(reactor.stats(b).frames_received, 1);
    }

    #[test]
    fn the_self_link_delivers_a_burst_larger_than_the_socket_buffers() {
        let g = generators::path(2);
        let mut reactor = Reactor::new(&g, 0..2, drain_cfg()).expect("reactor");
        reactor.start().expect("start");
        // Queue frames due at round 1, at least 4 MiB and until a flush
        // leaves bytes behind (`WouldBlock`): from there the pump has to
        // alternate `EPOLLOUT` writes with reads of the same link.
        let mut sent = 0;
        loop {
            for seq in sent..sent + 2048 {
                for (from, to) in [(0, 1), (1, 0)] {
                    let frame = Frame::Request {
                        seq,
                        round: 0,
                        payload: vec![from as u8; 512],
                    };
                    reactor
                        .send(NodeId::new(from), 1, NodeId::new(to), 0, &frame)
                        .expect("send");
                }
            }
            sent += 2048;
            reactor.flush_dirty().expect("flush");
            if sent >= 4096 && reactor.self_backlog() > 0 {
                break;
            }
            assert!(sent < 1 << 17, "loopback socket swallowed 128 MiB");
        }
        let mut seqs = [Vec::new(), Vec::new()];
        for event in poll(&mut reactor, 1) {
            match event {
                NetEvent::Frame {
                    from,
                    to,
                    frame: Frame::Request { seq, payload, .. },
                } => {
                    assert_eq!(payload, vec![from.index() as u8; 512]);
                    seqs[to.index()].push(seq);
                }
                other => panic!("unexpected event: {other:?}"),
            }
        }
        for seqs in seqs {
            assert_eq!(seqs, (0..sent).collect::<Vec<u64>>(), "per-sender order");
        }
        assert_eq!(reactor.self_backlog(), 0);
    }

    #[test]
    fn payload_buffers_are_recycled_and_the_free_list_stays_capped() {
        let g = generators::path(2);
        let mut reactor = Reactor::new(&g, 0..2, drain_cfg()).expect("reactor");
        reactor.start().expect("start");
        let payload_of_next = |reactor: &mut Reactor<'_>, round| {
            let request = Frame::Request {
                seq: round + 1,
                round,
                payload: vec![9; 64],
            };
            let (a, b) = (NodeId::new(0), NodeId::new(1));
            reactor.send(a, round, b, 0, &request).expect("send");
            match poll(reactor, round).pop() {
                Some(NetEvent::Frame {
                    frame: Frame::Request { payload, .. },
                    ..
                }) => (payload, reactor.stats(b).frames_received),
                other => panic!("expected the request, got {other:?}"),
            }
        };
        let (first, _) = payload_of_next(&mut reactor, 0);
        let recycled = first.as_ptr();
        reactor.recycle(first);
        let (second, received) = payload_of_next(&mut reactor, 1);
        assert_eq!(received, 2);
        assert_eq!(second, [9; 64]);
        assert_eq!(
            second.as_ptr(),
            recycled,
            "decoded into the recycled buffer"
        );
        // Handing back far more than the cap keeps at most the cap.
        for _ in 0..2 * POOL_BYTES / 4096 {
            reactor.recycle(Vec::with_capacity(4096));
        }
        let retained = reactor.pool.retained();
        assert!(retained <= POOL_BYTES && retained > POOL_BYTES - 4096);
    }

    #[test]
    fn drain_pacing_rejects_remote_edges() {
        let g = generators::path(3);
        let mut reactor = Reactor::new(&g, 0..2, drain_cfg()).expect("reactor");
        let err = reactor.start().expect_err("node 2 is not hosted");
        assert!(
            err.to_string().contains("drain pacing"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn sending_to_a_non_neighbor_is_rejected() {
        let g = generators::path(3);
        let mut reactor = Reactor::new(&g, 0..3, drain_cfg()).expect("reactor");
        reactor.start().expect("start");
        let err = reactor
            .send(NodeId::new(0), 0, NodeId::new(2), 0, &Frame::Bye)
            .expect_err("0 and 2 are not adjacent on a path");
        assert!(matches!(err, NetError::UnknownPeer(v) if v == NodeId::new(2)));
        reactor.shutdown();
    }

    #[test]
    fn send_position_must_name_the_peer() {
        // Node 1 of a path has the row [0, 2]: position 0 names the
        // other neighbor, position 2 is past the row.
        let g = generators::path(3);
        let mut reactor = Reactor::new(&g, 0..3, drain_cfg()).expect("reactor");
        reactor.start().expect("start");
        let me = NodeId::new(1);
        for nth in [0, 2] {
            let err = reactor
                .send(me, 1, NodeId::new(2), nth, &Frame::Bye)
                .expect_err("position does not name node 2");
            assert!(matches!(err, NetError::UnknownPeer(v) if v == NodeId::new(2)));
        }
        assert_eq!(reactor.stats(me).frames_sent, 0);
        assert_eq!(reactor.routed_enqueued, 0, "nothing queued");
        assert_eq!(reactor.self_backlog(), 0);
    }

    #[test]
    fn a_request_replayed_on_a_reconnected_link_surfaces_once() {
        use std::io::Read;
        use std::sync::mpsc;

        // Node 0 is hosted; node 1 is a remote peer reactor driven by
        // hand over raw sockets, so it can do what a reconnecting link
        // does: send a request, lose the connection, and replay it.
        let g = generators::path(2);
        let (me, peer) = (NodeId::new(0), NodeId::new(1));
        let hello = Frame::Hello {
            node: peer,
            to: me,
            n: 2,
            topology_hash: g.topology_hash(),
            caps: crate::wire::CAP_DELTA,
        }
        .encode()
        .expect("hello fits");
        let routed = |inner| {
            Frame::Routed {
                src: peer,
                dst: me,
                release: 0,
                inner: Box::new(inner),
            }
            .encode()
            .expect("fits")
        };
        let request = |seq| {
            routed(Frame::Request {
                seq,
                round: 0,
                payload: Vec::new(),
            })
        };
        let delta = |seq| {
            routed(Frame::RequestDelta {
                seq,
                round: 0,
                basis_seq: 0,
                payload: Vec::new(),
            })
        };
        let peer_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let cfg = ReactorConfig {
            round: Duration::from_millis(2),
            ..ReactorConfig::default()
        };
        let mut reactor = Reactor::new(&g, 0..1, cfg).expect("reactor");
        reactor.set_peer(peer, peer_listener.local_addr().expect("addr").to_string());
        let reactor_addr = reactor.local_addr();
        let (step_tx, step_rx) = mpsc::channel::<()>();
        let wire = [request(5), request(6), delta(6), delta(7)];
        let first = request(5);
        let remote = std::thread::spawn(move || {
            let handshake = |conn: &mut TcpStream| {
                conn.write_all(&hello).expect("hello");
                let mut answer = vec![0u8; hello.len()];
                conn.read_exact(&mut answer).expect("hello answer");
            };
            // Answer the reactor's link dial, which names the edge
            // 0 → 1 (its `Hello` is as long as ours), and keep it open.
            let (mut outbound, _) = peer_listener.accept().expect("reactor dials");
            handshake(&mut outbound);
            let dial = || {
                let mut conn = TcpStream::connect(&reactor_addr).expect("dial");
                handshake(&mut conn);
                conn
            };
            let mut conn = dial();
            conn.write_all(&first).expect("first request");
            if step_rx.recv().is_err() {
                return;
            }
            // The connection dies; the reconnect names the same edge,
            // replays seq 5, then sends on — and repeats seq 6 as a
            // delta request.
            drop(conn);
            let mut conn = dial();
            for bytes in &wire {
                conn.write_all(bytes).expect("request");
            }
            let _ = step_rx.recv();
        });
        reactor.start().expect("the link is up both ways");
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut round = 0;
        let mut seen = Vec::new();
        let mut poll_until = |seen: &mut Vec<NetEvent>, want: usize| {
            while seen.len() < want {
                assert!(Instant::now() < deadline, "stalled at {seen:?}");
                reactor.poll(round, seen).expect("poll");
                round += 1;
            }
        };
        poll_until(&mut seen, 1);
        step_tx.send(()).expect("remote waits");
        // Per-connection FIFO: once seq 7 is out, every frame before it
        // on the replaying connection has been handled.
        poll_until(&mut seen, 3);
        step_tx.send(()).expect("remote waits");
        remote.join().expect("remote peer");
        let got: Vec<(bool, u64)> = seen
            .iter()
            .map(|event| match event {
                NetEvent::Frame {
                    from,
                    frame: Frame::Request { seq, .. },
                    ..
                } if *from == peer => (false, *seq),
                NetEvent::Frame {
                    from,
                    frame: Frame::RequestDelta { seq, .. },
                    ..
                } if *from == peer => (true, *seq),
                other => panic!("unexpected event: {other:?}"),
            })
            .collect();
        assert_eq!(got, [(false, 5), (false, 6), (true, 7)]);
        assert_eq!(
            reactor.marks,
            [((peer, me), 7)],
            "one mark per inbound link"
        );
        reactor.shutdown();
    }

    #[test]
    fn frames_sent_while_a_peer_link_redials_go_out_once_in_order() {
        use std::io::Read;
        use std::sync::mpsc;

        // Node 0 is hosted; node 1 is a peer reactor driven by hand. It
        // reads one request over the reactor's link, drops the link, and
        // holds back its answer to the redial while two more requests
        // are sent: those must come out once, in send order, after it.
        let g = generators::path(2);
        let (me, peer) = (NodeId::new(0), NodeId::new(1));
        let hello = |node, to, caps| Frame::Hello {
            node,
            to,
            n: 2,
            topology_hash: g.topology_hash(),
            caps,
        };
        let (ours, theirs) = (hello(peer, me, 0), hello(me, peer, 0));
        let request = |seq: u64| Frame::Request {
            seq,
            round: 0,
            payload: vec![u8::try_from(seq).expect("small seq"); 3],
        };
        let routed = |seq| {
            Frame::Routed {
                src: me,
                dst: peer,
                release: 1,
                inner: Box::new(request(seq)),
            }
            .encode()
            .expect("fits")
        };
        let (first, later) = (routed(1), [routed(2), routed(3)].concat());
        let peer_listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let cfg = ReactorConfig {
            round: Duration::from_millis(2),
            ..ReactorConfig::default()
        };
        let mut reactor = Reactor::new(&g, 0..1, cfg).expect("reactor");
        reactor.set_peer(peer, peer_listener.local_addr().expect("addr").to_string());
        let reactor_addr = reactor.local_addr();
        let (note_tx, note_rx) = mpsc::channel::<&'static str>();
        let (answer_tx, answer_rx) = mpsc::channel::<()>();
        let remote = std::thread::spawn(move || {
            let read_frame = |conn: &mut TcpStream, len| {
                let mut bytes = vec![0u8; len];
                conn.read_exact(&mut bytes).expect("frame");
                bytes
            };
            let ours = ours.encode().expect("hello fits");
            let accept = || {
                let (mut conn, _) = peer_listener.accept().expect("reactor dials");
                let (dialed, _) =
                    Frame::decode(&read_frame(&mut conn, ours.len())).expect("hello decodes");
                assert_eq!(dialed, theirs, "the dial names the edge 0 → 1");
                conn
            };
            let mut outbound = accept();
            outbound.write_all(&ours).expect("answer");
            // Our link into the reactor, kept open throughout.
            let mut inbound = TcpStream::connect(&reactor_addr).expect("dial");
            inbound.write_all(&ours).expect("hello");
            read_frame(&mut inbound, ours.len());
            assert_eq!(read_frame(&mut outbound, first.len()), first);
            drop(outbound);
            note_tx.send("dropped").expect("test polls");
            let mut outbound = accept();
            note_tx.send("redialed").expect("test polls");
            answer_rx.recv().expect("the test sent on");
            outbound.write_all(&ours).expect("answer");
            assert_eq!(read_frame(&mut outbound, later.len()), later);
            outbound
                .set_read_timeout(Some(Duration::from_millis(200)))
                .expect("timeout");
            let mut more = [0u8; 1];
            match outbound.read(&mut more) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                other => panic!("more bytes after the two requests: {other:?}"),
            }
            note_tx.send("checked").expect("test polls");
            let _ = answer_rx.recv();
            drop(inbound);
        });
        reactor.start().expect("the link is up both ways");
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut round = 0;
        let mut poll_until = |reactor: &mut Reactor<'_>, note: &str| loop {
            assert!(Instant::now() < deadline, "stalled before {note:?}");
            assert!(poll(reactor, round).is_empty(), "no event expected");
            round += 1;
            match note_rx.try_recv() {
                Ok(got) => {
                    assert_eq!(got, note);
                    return;
                }
                Err(mpsc::TryRecvError::Empty) => {}
                Err(mpsc::TryRecvError::Disconnected) => panic!("remote peer failed"),
            }
        };
        reactor.send(me, 1, peer, 0, &request(1)).expect("send");
        poll_until(&mut reactor, "dropped");
        poll_until(&mut reactor, "redialed");
        for seq in [2, 3] {
            reactor.send(me, 1, peer, 0, &request(seq)).expect("send");
        }
        answer_tx.send(()).expect("remote waits");
        poll_until(&mut reactor, "checked");
        reactor.shutdown();
        let _ = answer_tx.send(());
        remote.join().expect("remote peer");
        assert_eq!(reactor.stats(me).frames_sent, 3);
    }
}
