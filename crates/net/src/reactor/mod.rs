//! Reactor runtime: thousands of nodes per process over non-blocking
//! TCP (DESIGN.md §14) — the crate's one real-socket transport.
//!
//! **One** thread runs a single `epoll` readiness loop (`sys::Poller`)
//! hosting *every* connection of *many* nodes, with per-connection
//! read/write buffer state machines (`conn::Conn`) instead of blocking
//! reader/writer threads and a deadline wheel (`wheel::Wheel`) instead
//! of any `thread::sleep` (round pacing, reconnect backoff). A reactor
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
//! # Trunk multiplexing
//!
//! The file-descriptor budget, not memory, is what bounds per-edge
//! sockets: a 4096-node clique has ~8M directed edges. Traffic between
//! two nodes hosted by the *same* reactor therefore rides a small fixed
//! set of **trunks** — simplex TCP self-connections through the kernel
//! loopback — with each frame wrapped in a [`Frame::Routed`] envelope
//! carrying `(src, dst, release)`. A directed edge `u → v` always maps
//! to the same trunk (a deterministic hash), so per-sender FIFO is
//! preserved; a trunk never reconnects, so it never repeats a frame.
//! Cross-sender interleave is harmless: the runner's hold
//! canonicalizes application order by `(initiated_at, initiator)`.
//!
//! Edges to nodes hosted *elsewhere* (another reactor, in this process
//! or another) use one directed connection per edge with the standard
//! handshake: the dialing side owns reconnection and loss accounting,
//! and stops both once the peer has said [`Frame::Bye`] — a departed
//! peer's closing sockets are not a fault. A reconnecting dialer
//! replays the frame its dying connection cut, so the receiving side
//! keeps the [`Transport`] promise of at-most-once delivery itself: it
//! drops a request whose seq is at or below the highest one already
//! delivered over that edge.
//!
//! # Pacing
//!
//! * [`Pacing::Drain`] — virtual time for single-process runs: frames
//!   are queued on their trunk, and `poll(round)` pumps **when a due
//!   envelope is in flight** — one queued since the last pump with
//!   `release ≤ round` — until the reactor **quiesces** (all write
//!   queues empty, every routed envelope decoded). A reply queued in
//!   round `t` is not wanted before round `t + 1` (ℓ ≥ 1), so a phase
//!   costs at most one pump — a `write`, an `epoll_wait` and a few
//!   `read`s per trunk — however many frames it queued. With every node
//!   hosted, this reproduces the loopback transport's executions
//!   exactly — and hence the simulator's (DESIGN.md §11).
//! * [`Pacing::Wall`] — wall-clock rounds against a shared in-process
//!   epoch; every frame is written as soon as it is sent. This is the
//!   mode that interoperates across processes.

pub(crate) mod conn;
pub(crate) mod sys;
pub(crate) mod wheel;

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::time::{Duration, Instant};

use gossip_sim::{Outcome, Protocol, Round, SimConfig};
use latency_graph::{Graph, NodeId};

use crate::conn::{round_offset, validate_hello, Backoff};
use crate::error::{NetError, PeerLoss};
use crate::runner::{PayloadMode, ShardRunner, WireAccounting};
use crate::transport::{NetEvent, Transport, TransportStats};
use crate::wire::{BufPool, Decoded, Frame, WirePayload};

use conn::{Conn, ConnKind};
use sys::{Poller, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT};
use wheel::Wheel;

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
    /// Per-attempt connect timeout for outbound edges and trunks.
    pub connect_timeout: Duration,
    /// Budget for the start barrier: every trunk and every remote edge
    /// settled (connected both ways, or conclusively lost), or
    /// [`NetError::StartTimeout`].
    pub start_timeout: Duration,
    /// First reconnect backoff; doubles per attempt.
    pub retry_base: Duration,
    /// Backoff cap.
    pub retry_cap: Duration,
    /// Connection attempts per outage before a peer is declared lost.
    pub max_retries: u32,
    /// Trunk self-connections multiplexing hosted↔hosted traffic.
    pub trunks: usize,
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
            trunks: 4,
        }
    }
}

/// Sender id carried by trunk handshakes; outside the node id space.
const TRUNK_NODE: u32 = u32::MAX;
/// Epoll token of the listener (connections use their slab index).
const LISTENER_TOKEN: u64 = u64::MAX;
/// Deadline-wheel granularity.
const WHEEL_GRANULARITY: Duration = Duration::from_millis(1);
/// A drain pump that makes no progress for this long is declared
/// stalled (a bug escape hatch, not a tuning knob).
const DRAIN_STALL: Duration = Duration::from_secs(10);

/// A directed edge from a hosted node to a remote one (we dial, we
/// write).
#[derive(Default)]
struct EdgeOut {
    /// Connection slab index while dialing or established.
    conn: Option<usize>,
    /// Handshake completed (data may flow).
    up: bool,
    /// Completed at least once — the start barrier's outbound half.
    established: bool,
    /// Retired: conclusively lost (`PeerLost` has been delivered) or
    /// departed (the peer said `Bye`). No more dials; sends are dropped.
    lost: bool,
    /// Dial attempts in the current outage.
    attempts: u32,
    /// Encoded frames awaiting a live connection.
    pending: VecDeque<Vec<u8>>,
}

/// Wheel entries: everything a blocking transport would sleep for.
enum Timer {
    /// Re-dial the edge `from → to`.
    Redial { from: NodeId, to: NodeId },
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
    edges: BTreeMap<(NodeId, NodeId), EdgeOut>,
    /// Inbound directed edges `(remote, hosted)` whose handshake has
    /// completed — the start barrier's inbound half — each with the
    /// highest request seq delivered over it. The mark outlives the
    /// edge's connections: a request at or below it is a reconnect's
    /// replay and is dropped (at-most-once delivery).
    in_up: BTreeMap<(NodeId, NodeId), u64>,
    /// Capability bits remote nodes advertised in their handshakes
    /// (either direction; a node's caps are the same on every edge).
    remote_caps: BTreeMap<NodeId, u32>,
    poller: Poller,
    wheel: Wheel<Timer>,
    listener: Option<TcpListener>,
    listen_addr: SocketAddr,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Connections with freshly queued bytes, flushed each pump step.
    dirty: Vec<usize>,
    /// Slab index of each trunk's write side.
    trunk_out: Vec<usize>,
    /// Trunk read sides accepted so far.
    trunks_in: usize,
    /// Routed envelopes queued on trunks / decoded off trunks. Both
    /// live in this single-threaded core, so equality — together with
    /// empty trunk write queues — is an *exact* quiescence test.
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
    timers_scratch: Vec<Timer>,
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
        let mut edges = BTreeMap::new();
        for u in hosted.clone().map(NodeId::new) {
            for &v in graph.neighbor_ids(u) {
                if !hosted.contains(&v.index()) {
                    edges.insert((u, v), EdgeOut::default());
                }
            }
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
            edges,
            in_up: BTreeMap::new(),
            remote_caps: BTreeMap::new(),
            poller,
            wheel: Wheel::new(Instant::now(), WHEEL_GRANULARITY),
            listener: Some(listener),
            listen_addr,
            conns: Vec::new(),
            free: Vec::new(),
            dirty: Vec::new(),
            trunk_out: Vec::new(),
            trunks_in: 0,
            routed_enqueued: 0,
            routed_decoded: 0,
            next_release: Round::MAX,
            epoch: None,
            started: false,
            start_failed: false,
            down: false,
            events_scratch: Vec::new(),
            timers_scratch: Vec::new(),
            pool: BufPool::default(),
        })
    }

    /// The bound listen address (`ip:port`), for exchanging with other
    /// shards.
    pub fn local_addr(&self) -> String {
        self.listen_addr.to_string()
    }

    /// Supplies the address of a remote (non-hosted) node; required for
    /// every remote neighbor before `start`.
    pub fn set_peer(&mut self, node: NodeId, addr: String) {
        self.peer_addrs.insert(node, addr);
    }

    /// The deterministic trunk for directed edge `src → dst` (fmix64 of
    /// the packed pair) — per-sender FIFO depends on this being stable.
    fn trunk_of(&self, src: NodeId, dst: NodeId) -> usize {
        let mut x = (u64::from(u32::from(src)) << 32) | u64::from(u32::from(dst));
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^= x >> 33;
        usize::try_from(x % self.cfg.trunks.max(1) as u64).expect("trunk index fits usize")
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

    fn mark_dirty(&mut self, idx: usize) {
        if self.conns[idx].as_mut().is_some_and(Conn::mark_dirty) {
            self.dirty.push(idx);
        }
    }

    // ---- start ------------------------------------------------------

    fn dial_trunks(&mut self) -> Result<(), NetError> {
        for t in 0..self.cfg.trunks {
            let stream = TcpStream::connect_timeout(&self.listen_addr, self.cfg.connect_timeout)
                .map_err(NetError::Io)?;
            stream.set_nodelay(true).map_err(NetError::Io)?;
            // The trunk handshake is a 28-byte blocking write into an
            // empty socket buffer; it cannot block meaningfully.
            let hello = Frame::Hello {
                node: NodeId::from(TRUNK_NODE),
                to: NodeId::new(t),
                n: self.n,
                topology_hash: self.hash,
                caps: 0,
            };
            let hello_bytes = hello.encode().expect("hello frame fits");
            let mut stream = stream;
            stream.write_all(&hello_bytes).map_err(NetError::Io)?;
            stream.set_nonblocking(true).map_err(NetError::Io)?;
            let idx = self.register(Conn::new(stream, ConnKind::TrunkOut(t), EPOLLIN))?;
            self.trunk_out.push(idx);
        }
        Ok(())
    }

    fn edge_settled(&self, from: NodeId, to: NodeId) -> bool {
        let Some(edge) = self.edges.get(&(from, to)) else {
            return true;
        };
        if edge.lost {
            // A conclusive loss settles both directions.
            return true;
        }
        edge.established && self.in_up.contains_key(&(to, from))
    }

    fn barrier_holds(&self) -> bool {
        self.trunks_in == self.cfg.trunks
            && self
                .edges
                .keys()
                .all(|&(from, to)| self.edge_settled(from, to))
    }

    fn barrier_waiting(&self) -> Vec<NodeId> {
        let waiting: BTreeSet<NodeId> = self
            .edges
            .keys()
            .filter(|&&(from, to)| !self.edge_settled(from, to))
            .map(|&(_, to)| to)
            .collect();
        waiting.into_iter().collect()
    }

    // ---- pump -------------------------------------------------------

    /// One readiness step: fire due timers, flush dirty write queues,
    /// wait up to `timeout` for events, handle them.
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

    fn fire_timers(&mut self) -> Result<(), NetError> {
        if self.wheel.len() == 0 {
            return Ok(());
        }
        let mut timers = std::mem::take(&mut self.timers_scratch);
        timers.clear();
        self.wheel.pop_due(Instant::now(), &mut timers);
        let mut result = Ok(());
        for timer in timers.drain(..) {
            let Timer::Redial { from, to } = timer;
            if let Err(e) = self.dial_edge(from, to) {
                result = Err(e);
                break;
            }
        }
        self.timers_scratch = timers;
        result
    }

    fn flush_dirty(&mut self) -> Result<(), NetError> {
        let dirty = std::mem::take(&mut self.dirty);
        for idx in dirty {
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.dirty = false;
                self.flush_conn(idx)?;
            }
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
        if ev & EPOLLOUT != 0 && self.conns[idx].is_some() {
            self.flush_conn(idx)?;
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
                Ok(0) => return self.conn_eof(idx),
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
            if kind == ConnKind::Closing {
                // Only the handshake answer is in flight; inbound bytes
                // are discarded until the peer reads it and goes away.
                conn.reader.discard();
                return Ok(());
            }
            match conn.reader.next_decoded(&mut self.pool) {
                Ok(Some((decoded, used))) => self.handle_frame(idx, kind, decoded, used)?,
                Ok(None) => return Ok(()),
                Err(e) => return self.conn_broken(idx, &format!("codec error: {e}")),
            }
        }
    }

    /// Routes one decoded frame by the role of the connection it came
    /// in on. Only a trunk envelope stays unboxed: its inner frame goes
    /// straight to [`deliver`](Self::deliver).
    fn handle_frame(
        &mut self,
        idx: usize,
        kind: ConnKind,
        decoded: Decoded,
        used: u64,
    ) -> Result<(), NetError> {
        match kind {
            ConnKind::Pending => self.handle_handshake(idx, &decoded.into_frame()),
            ConnKind::TrunkIn(_) => match decoded {
                Decoded::Routed {
                    src, dst, inner, ..
                } => {
                    self.routed_decoded += 1;
                    self.deliver(src, dst, inner, used)
                }
                Decoded::Frame(other) => Err(NetError::ProtocolViolation(format!(
                    "non-routed frame on a trunk: {other:?}"
                ))),
            },
            ConnKind::PeerIn { from, to } => {
                let frame = decoded.into_frame();
                match frame {
                    Frame::Request { seq, .. } | Frame::RequestDelta { seq, .. } => {
                        // A reconnecting dialer replays whatever its
                        // dying connection had not finished writing;
                        // per-edge seqs only grow, so a request at or
                        // below the mark was delivered already.
                        let delivered = self.in_up.entry((from, to)).or_insert(0);
                        if seq <= *delivered {
                            return Ok(());
                        }
                        *delivered = seq;
                    }
                    Frame::Bye => {
                        // A graceful departure, not an outage: the
                        // sockets about to close behind it must not be
                        // re-dialled.
                        self.retire_edge(to, from);
                    }
                    // Replies are matched to their request by the
                    // runner; the rest carry no seq.
                    Frame::Reply { .. }
                    | Frame::ReplyDelta { .. }
                    | Frame::Done { .. }
                    | Frame::Hello { .. }
                    | Frame::Routed { .. } => {}
                }
                self.deliver(from, to, frame, used)
            }
            ConnKind::DialPending { from, to } => {
                self.handle_dial_answer(idx, from, to, &decoded.into_frame())
            }
            // Established outbound edges and trunk write sides carry no
            // inbound data; stray bytes are ignored (EOF is what
            // matters, and read_conn catches it).
            ConnKind::TrunkOut(_) | ConnKind::PeerOut { .. } | ConnKind::Closing => Ok(()),
        }
    }

    /// First frame on an accepted connection: a trunk's self-handshake
    /// or a remote dialer's `Hello`.
    fn handle_handshake(&mut self, idx: usize, frame: &Frame) -> Result<(), NetError> {
        let Frame::Hello {
            node,
            to,
            n: peer_n,
            topology_hash: peer_hash,
            caps,
        } = *frame
        else {
            // Garbage before a handshake is dropped without an answer.
            self.close_conn(idx);
            return Ok(());
        };
        if u32::from(node) == TRUNK_NODE {
            if to.index() < self.cfg.trunks && peer_n == self.n && peer_hash == self.hash {
                if let Some(conn) = self.conns[idx].as_mut() {
                    conn.kind = ConnKind::TrunkIn(to.index());
                }
                self.trunks_in += 1;
            } else {
                self.close_conn(idx); // stray dialer using our sentinel
            }
            return Ok(());
        }
        // Answer before validating, so a mismatched dialer can read the
        // answer and fail fast on its side.
        let answer = Frame::Hello {
            node: to,
            to: node,
            n: self.n,
            topology_hash: self.hash,
            caps: self.caps,
        };
        if let Some(conn) = self.conns[idx].as_mut() {
            conn.wq.push_frame(&answer).expect("hello frame fits");
        }
        self.mark_dirty(idx);
        let valid = validate_hello(frame, self.n, self.hash).is_ok()
            && self.hosted.contains(&to.index())
            && self.graph.neighbor_index(to, node).is_some();
        if let Some(conn) = self.conns[idx].as_mut() {
            if valid {
                conn.kind = ConnKind::PeerIn { from: node, to };
                // A reconnect keeps the edge's mark.
                self.in_up.entry((node, to)).or_insert(0);
                self.remote_caps.insert(node, caps);
            } else {
                // Let the answer flush, then close.
                conn.kind = ConnKind::Closing;
            }
        }
        Ok(())
    }

    /// The `Hello` answer on an edge we dialed.
    fn handle_dial_answer(
        &mut self,
        idx: usize,
        from: NodeId,
        to: NodeId,
        frame: &Frame,
    ) -> Result<(), NetError> {
        let why = match validate_hello(frame, self.n, self.hash) {
            Ok((node, addressed, caps)) if node == to && addressed == from => {
                self.remote_caps.insert(node, caps);
                if let Some(conn) = self.conns[idx].as_mut() {
                    conn.kind = ConnKind::PeerOut { from, to };
                }
                if let Some(edge) = self.edges.get_mut(&(from, to)) {
                    edge.up = true;
                    edge.established = true;
                    edge.attempts = 0;
                    if let Some(conn) = self.conns[idx].as_mut() {
                        for bytes in edge.pending.drain(..) {
                            conn.wq.push_bytes(&bytes);
                        }
                    }
                    self.mark_dirty(idx);
                }
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
        let attempts = self.edges.get(&(from, to)).map_or(0, |e| e.attempts) + 1;
        self.edge_lost(from, to, attempts, why);
        Ok(())
    }

    /// Hands a decoded data frame to hosted node `dst`'s next poll.
    fn deliver(
        &mut self,
        src: NodeId,
        dst: NodeId,
        frame: Frame,
        used: u64,
    ) -> Result<(), NetError> {
        let slot = dst.index().checked_sub(self.hosted.start);
        let Some(stats) = slot.and_then(|s| self.stats.get_mut(s)) else {
            return Err(NetError::ProtocolViolation(format!(
                "frame for node {}, which this reactor does not host",
                dst.index()
            )));
        };
        stats.frames_received += 1;
        stats.bytes_received += used;
        self.ready.push(NetEvent::Frame {
            from: src,
            to: dst,
            frame,
        });
        Ok(())
    }

    fn conn_eof(&mut self, idx: usize) -> Result<(), NetError> {
        self.conn_broken(idx, "connection closed by peer")
    }

    fn conn_broken(&mut self, idx: usize, why: &str) -> Result<(), NetError> {
        let Some(conn) = self.conns[idx].as_mut() else {
            return Ok(());
        };
        match conn.kind {
            ConnKind::TrunkIn(_) | ConnKind::TrunkOut(_) => {
                if self.down {
                    self.close_conn(idx);
                    Ok(())
                } else {
                    Err(NetError::ProtocolViolation(format!(
                        "trunk connection failed: {why}"
                    )))
                }
            }
            ConnKind::Pending | ConnKind::Closing | ConnKind::PeerIn { .. } => {
                // Inbound edges carry no retry obligation: the dialing
                // side owns reconnection and loss accounting.
                self.close_conn(idx);
                Ok(())
            }
            ConnKind::DialPending { from, to } => {
                self.close_conn(idx);
                if let Some(edge) = self.edges.get_mut(&(from, to)) {
                    edge.conn = None;
                }
                self.edge_dial_failed(from, to, format!("handshake failed: {why}"));
                Ok(())
            }
            ConnKind::PeerOut { from, to } => {
                // Preserve queued frames (the in-flight one restarts
                // from byte 0; the receiving reactor drops a request it
                // already delivered, by the edge's seq mark) and begin a
                // fresh outage.
                let drained = self.conns[idx]
                    .as_mut()
                    .map(|c| c.wq.drain_encoded())
                    .unwrap_or_default();
                self.close_conn(idx);
                if let Some(edge) = self.edges.get_mut(&(from, to)) {
                    edge.conn = None;
                    edge.up = false;
                    edge.attempts = 0;
                    for bytes in drained {
                        edge.pending.push_back(bytes);
                    }
                }
                self.wheel
                    .schedule(Instant::now(), Timer::Redial { from, to });
                Ok(())
            }
        }
    }

    fn flush_conn(&mut self, idx: usize) -> Result<(), NetError> {
        use std::os::fd::AsRawFd;
        let Some(conn) = self.conns[idx].as_mut() else {
            return Ok(());
        };
        let kind = conn.kind;
        let stream = &mut conn.stream;
        match conn.wq.flush(stream) {
            Ok(emptied) => {
                if emptied && kind == ConnKind::Closing {
                    self.close_conn(idx);
                    return Ok(());
                }
                let desired = EPOLLIN | if emptied { 0 } else { EPOLLOUT };
                let Some(conn) = self.conns[idx].as_mut() else {
                    return Ok(());
                };
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

    // ---- edges ------------------------------------------------------

    fn dial_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), NetError> {
        if self.down {
            return Ok(());
        }
        let Some(edge) = self.edges.get(&(from, to)) else {
            return Ok(());
        };
        if edge.lost || edge.conn.is_some() {
            return Ok(()); // stale timer
        }
        let Some(addr) = self.peer_addrs.get(&to) else {
            self.edge_lost(from, to, 0, format!("no address for node {}", to.index()));
            return Ok(());
        };
        let Some(sockaddr) = addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut addrs| addrs.next())
        else {
            let addr = addr.clone();
            self.edge_lost(from, to, 0, format!("bad address {addr}"));
            return Ok(());
        };
        match TcpStream::connect_timeout(&sockaddr, self.cfg.connect_timeout) {
            Ok(stream) => {
                if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
                    self.edge_dial_failed(from, to, "socket setup failed".to_owned());
                    return Ok(());
                }
                let mut conn = Conn::new(
                    stream,
                    ConnKind::DialPending { from, to },
                    EPOLLIN | EPOLLOUT,
                );
                conn.wq
                    .push_frame(&Frame::Hello {
                        node: from,
                        to,
                        n: self.n,
                        topology_hash: self.hash,
                        caps: self.caps,
                    })
                    .expect("hello frame fits");
                let idx = self.register(conn)?;
                self.mark_dirty(idx);
                if let Some(edge) = self.edges.get_mut(&(from, to)) {
                    edge.conn = Some(idx);
                }
                Ok(())
            }
            Err(e) => {
                self.edge_dial_failed(from, to, e.to_string());
                Ok(())
            }
        }
    }

    fn edge_dial_failed(&mut self, from: NodeId, to: NodeId, error: String) {
        let Some(edge) = self.edges.get_mut(&(from, to)) else {
            return;
        };
        edge.attempts += 1;
        let attempts = edge.attempts;
        if attempts >= self.cfg.max_retries.max(1) {
            self.edge_lost(from, to, attempts, error);
        } else {
            let delay = self.backoff.delay(attempts);
            self.wheel
                .schedule(Instant::now() + delay, Timer::Redial { from, to });
        }
    }

    /// Retires the edge `from → to`: closes its connection, drops its
    /// backlog, and turns later dials and sends into no-ops. Returns
    /// whether this call did the retiring.
    fn retire_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        let Some(edge) = self.edges.get_mut(&(from, to)) else {
            return false;
        };
        if edge.lost {
            return false;
        }
        edge.lost = true;
        edge.up = false;
        edge.pending.clear();
        if let Some(idx) = edge.conn.take() {
            self.close_conn(idx);
        }
        true
    }

    fn edge_lost(&mut self, from: NodeId, to: NodeId, attempts: u32, error: String) {
        // Retiring happens once per edge, so the loss surfaces once.
        if self.retire_edge(from, to) {
            self.ready.push(NetEvent::PeerLost {
                to: from,
                loss: PeerLoss {
                    peer: to,
                    attempts,
                    error,
                },
            });
        }
    }

    // ---- drain and wall pacing --------------------------------------

    /// Trunk write queues empty and every routed envelope decoded: with
    /// all nodes hosted (drain's precondition) nothing is in flight.
    fn drain_quiesced(&self) -> bool {
        self.routed_enqueued == self.routed_decoded
            && self
                .trunk_out
                .iter()
                .all(|&idx| self.conns[idx].as_ref().is_none_or(|c| c.wq.is_empty()))
    }

    fn trunk_backlog(&self) -> usize {
        self.trunk_out
            .iter()
            .filter_map(|&idx| self.conns[idx].as_ref())
            .map(|c| c.wq.queued_bytes())
            .sum()
    }

    fn pump_drain(&mut self) -> Result<(), NetError> {
        let mut stall_deadline = Instant::now() + DRAIN_STALL;
        loop {
            self.fire_timers()?;
            self.flush_dirty()?;
            if self.drain_quiesced() {
                return Ok(());
            }
            let before = (self.routed_decoded, self.trunk_backlog());
            self.poll_wait(Some(Duration::from_millis(50)))?;
            let now = Instant::now();
            if (self.routed_decoded, self.trunk_backlog()) != before {
                stall_deadline = now + DRAIN_STALL;
            } else if now >= stall_deadline {
                return Err(NetError::ProtocolViolation(
                    "reactor drain stalled: frames in flight but no progress".to_owned(),
                ));
            }
        }
    }

    fn pump_until(&mut self, target: Instant) -> Result<(), NetError> {
        loop {
            self.fire_timers()?;
            self.flush_dirty()?;
            let now = Instant::now();
            if now >= target {
                // Non-blocking sweep so a same-round re-poll drains
                // whatever has already arrived.
                self.poll_wait(Some(Duration::ZERO))?;
                self.flush_dirty()?;
                return Ok(());
            }
            let wake = match self.wheel.next_deadline() {
                Some(t) => t.min(target),
                None => target,
            };
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
        if self.cfg.pacing == Pacing::Drain && !self.edges.is_empty() {
            return Err(NetError::ProtocolViolation(
                "drain pacing requires hosting every node in one reactor".to_owned(),
            ));
        }
        self.dial_trunks()?;
        let now = Instant::now();
        let edge_keys: Vec<(NodeId, NodeId)> = self.edges.keys().copied().collect();
        for (from, to) in edge_keys {
            self.wheel.schedule(now, Timer::Redial { from, to });
        }
        let deadline = now + self.cfg.start_timeout;
        loop {
            self.fire_timers()?;
            self.flush_dirty()?;
            if self.barrier_holds() {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::StartTimeout {
                    waiting: self.barrier_waiting(),
                });
            }
            let wake = match self.wheel.next_deadline() {
                Some(t) => t.min(deadline),
                None => deadline,
            };
            self.poll_wait(Some(wake.saturating_duration_since(now)))?;
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
        // A hosted peer never handshakes with us (trunk traffic skips
        // the Hello exchange): it advertises the shard's own caps.
        if self.hosted.contains(&peer.index()) {
            self.caps
        } else {
            self.remote_caps.get(&peer).copied().unwrap_or(0)
        }
    }

    /// Queues `frame` from hosted `src` toward its neighbor `to`, the
    /// `nth` entry of `src`'s adjacency row: on `to`'s trunk (hosted) or
    /// on the edge `src → to` (remote; its outage backlog while the
    /// connection is down).
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
        let sent_bytes = if self.hosted.contains(&to.index()) {
            let trunk = self.trunk_of(src, to);
            let idx = self.trunk_out[trunk];
            let Some(conn) = self.conns[idx].as_mut() else {
                return Err(NetError::ProtocolViolation("trunk is down".to_owned()));
            };
            let size = conn.wq.push_routed(src, to, release, frame)?;
            self.routed_enqueued += 1;
            self.next_release = self.next_release.min(release);
            if conn.mark_dirty() {
                self.dirty.push(idx);
            }
            size
        } else {
            // A retired edge's peer is lost or departed: sends are
            // silent no-ops.
            let Some(edge) = self.edges.get_mut(&(src, to)).filter(|e| !e.lost) else {
                return Ok(());
            };
            let live = edge.conn.filter(|_| edge.up);
            if let Some((idx, conn)) = live.and_then(|i| Some((i, self.conns[i].as_mut()?))) {
                let size = conn.wq.push_frame(frame)?;
                if conn.mark_dirty() {
                    self.dirty.push(idx);
                }
                size
            } else {
                let bytes = frame.encode()?;
                let size = bytes.len();
                edge.pending.push_back(bytes);
                size
            }
        };
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
                let target = epoch + round_offset(self.cfg.round, u128::from(round));
                self.pump_until(target)?;
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
/// cluster is one shard of one drain-paced reactor, whose trunks carry
/// every frame. The outcome equals the loopback run's — and hence the
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

    fn drain_cfg() -> ReactorConfig {
        ReactorConfig {
            pacing: Pacing::Drain,
            trunks: 2,
            ..ReactorConfig::default()
        }
    }

    fn poll(reactor: &mut Reactor<'_>, round: Round) -> Vec<NetEvent> {
        let mut out = Vec::new();
        reactor.poll(round, &mut out).expect("poll");
        out
    }

    #[test]
    fn trunk_hash_is_deterministic_and_directed() {
        let g = generators::clique(8);
        let core = Reactor::new(
            &g,
            0..8,
            ReactorConfig {
                trunks: 4,
                ..drain_cfg()
            },
        )
        .expect("core");
        let a = core.trunk_of(NodeId::new(1), NodeId::new(5));
        assert_eq!(a, core.trunk_of(NodeId::new(1), NodeId::new(5)));
        assert!(a < 4);
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
        assert!(
            reactor.trunk_backlog() > 0,
            "nothing due: no socket touched"
        );
        assert_eq!(reactor.routed_decoded, 0);
        let events = poll(&mut reactor, 2);
        assert_eq!(reactor.trunk_backlog(), 0);
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
    fn one_trunk_delivers_a_burst_larger_than_the_socket_buffers() {
        let g = generators::path(2);
        let cfg = ReactorConfig {
            trunks: 1,
            ..drain_cfg()
        };
        let mut reactor = Reactor::new(&g, 0..2, cfg).expect("reactor");
        reactor.start().expect("start");
        // Queue frames due at round 1, at least 4 MiB and until a flush
        // leaves bytes behind (`WouldBlock`): from there the pump has to
        // alternate `EPOLLOUT` writes with reads of the same trunk.
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
            if sent >= 4096 && reactor.trunk_backlog() > 0 {
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
        assert_eq!(reactor.trunk_backlog(), 0);
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
        assert_eq!(reactor.trunk_backlog(), 0);
    }

    #[test]
    fn a_request_replayed_on_a_reconnected_remote_edge_surfaces_once() {
        use std::io::Read;
        use std::sync::mpsc;

        // Node 0 is hosted; node 1 is a remote peer driven by hand over
        // raw sockets, so it can do what a reconnecting dialer does:
        // send a request, lose the connection, and replay it.
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
        let request = |seq| Frame::Request {
            seq,
            round: 0,
            payload: Vec::new(),
        };
        let delta = |seq| Frame::RequestDelta {
            seq,
            round: 0,
            basis_seq: 0,
            payload: Vec::new(),
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
        let wire = [request(5), request(6), delta(6), delta(7)].map(|f| f.encode().expect("fits"));
        let first = request(5).encode().expect("fits");
        let remote = std::thread::spawn(move || {
            let handshake = |conn: &mut TcpStream| {
                conn.write_all(&hello).expect("hello");
                let mut answer = vec![0u8; hello.len()];
                conn.read_exact(&mut answer).expect("hello answer");
            };
            // Answer the reactor's dial of 0 → 1 (its `Hello` is as
            // long as ours) and keep that edge open.
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
            // The connection dies; the reconnect replays seq 5, then
            // sends on — and repeats seq 6 as a delta request.
            drop(conn);
            let mut conn = dial();
            for bytes in &wire {
                conn.write_all(bytes).expect("request");
            }
            let _ = step_rx.recv();
        });
        reactor.start().expect("both edges up");
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
        assert_eq!(reactor.in_up[&(peer, me)], 7);
        reactor.shutdown();
    }
}
