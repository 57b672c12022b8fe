//! Error types for the network runtime.

use std::fmt;

use latency_graph::NodeId;

/// A wire-codec failure. Decoding never panics: every malformed input
/// maps to one of these variants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ends before the frame does. `need` is the total number
    /// of bytes required to make progress; callers doing stream
    /// reassembly treat this as "read more".
    Truncated {
        /// Bytes required to decode the next frame.
        need: usize,
        /// Bytes currently available.
        have: usize,
    },
    /// The first byte was not [`crate::wire::MAGIC`].
    BadMagic(u8),
    /// The version byte did not match [`crate::wire::VERSION`].
    BadVersion(u8),
    /// The kind byte named no known frame type.
    UnknownKind(u8),
    /// The declared body length exceeds [`crate::wire::MAX_BODY`].
    Oversized {
        /// Declared body length.
        len: u32,
        /// The codec's cap.
        max: u32,
    },
    /// The body was present but malformed (wrong length for its kind,
    /// trailing bytes, or an inconsistent payload encoding).
    BadBody(&'static str),
    /// An *encode* was refused because the frame body would exceed
    /// [`crate::wire::MAX_BODY`]. The encode path returns this typed
    /// error instead of panicking so senders can chunk or fall back
    /// (e.g. a runner switching to a delta frame) rather than abort.
    FrameTooLarge {
        /// Body length the frame would have needed.
        len: usize,
        /// The codec's cap.
        max: u32,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { need, have } => {
                write!(f, "truncated frame: need {need} bytes, have {have}")
            }
            CodecError::BadMagic(b) => write!(f, "bad magic byte {b:#04x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            CodecError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            CodecError::Oversized { len, max } => {
                write!(f, "frame body of {len} bytes exceeds cap {max}")
            }
            CodecError::BadBody(why) => write!(f, "malformed frame body: {why}"),
            CodecError::FrameTooLarge { len, max } => {
                write!(f, "refusing to encode a {len}-byte frame body (cap {max})")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A peer that the transport gave up on: its connection failed and every
/// reconnect attempt within the configured retry budget failed too.
#[derive(Clone, Debug)]
pub struct PeerLoss {
    /// The unreachable peer.
    pub peer: NodeId,
    /// Connection attempts made before giving up.
    pub attempts: u32,
    /// Human-readable description of the final error.
    pub error: String,
}

impl fmt::Display for PeerLoss {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "peer {} lost after {} attempts: {}",
            self.peer.index(),
            self.attempts,
            self.error
        )
    }
}

/// A failure of the network runtime.
#[derive(Debug)]
pub enum NetError {
    /// A frame failed to encode or decode.
    Codec(CodecError),
    /// A socket operation failed outside any per-peer retry path.
    Io(std::io::Error),
    /// The start barrier expired before every neighbor was connected in
    /// both directions.
    StartTimeout {
        /// Neighbors still missing when the deadline passed.
        waiting: Vec<NodeId>,
    },
    /// A frame was addressed to, or arrived from, a node that is not a
    /// neighbor in the topology.
    UnknownPeer(NodeId),
    /// A peer violated the framing protocol (e.g. a reply with no
    /// matching request, or a mid-stream handshake).
    ProtocolViolation(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Codec(e) => write!(f, "codec error: {e}"),
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::StartTimeout { waiting } => {
                let ids: Vec<usize> = waiting.iter().map(|v| v.index()).collect();
                write!(f, "start barrier timed out waiting for peers {ids:?}")
            }
            NetError::UnknownPeer(v) => write!(f, "node {} is not a neighbor", v.index()),
            NetError::ProtocolViolation(why) => write!(f, "protocol violation: {why}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Codec(e) => Some(e),
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> NetError {
        NetError::Codec(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e)
    }
}
