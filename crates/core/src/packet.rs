//! The packet model and the messages exchanged between network components.

use bytes::Bytes;
use tsbus_des::ComponentId;

/// A monotonically increasing per-source packet sequence number.
pub(crate) type PacketSeq = u64;

/// A simulated network packet.
///
/// `size_bytes` is the *wire* size used for serialization-delay math; the
/// `payload` carries application bytes and may be smaller (headers) or empty
/// (pure load packets, like the paper's 1-byte CBR probes where the wire
/// size is what matters).
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use tsbus_des::ComponentId;
/// use tsbus_core::Packet;
///
/// let p = Packet::new(
///     ComponentId::from_raw(0),
///     ComponentId::from_raw(1),
///     64,
///     Bytes::from_static(b"hello"),
/// );
/// assert_eq!(p.size_bytes, 64);
/// assert_eq!(&p.payload[..], b"hello");
/// ```
#[derive(Debug, Clone)]
pub struct Packet {
    /// Source endpoint (the component that originated the packet).
    pub(crate) src: ComponentId,
    /// Destination endpoint (the component meant to consume it).
    pub(crate) dst: ComponentId,
    /// Wire size in bytes, used for serialization delay.
    pub size_bytes: u32,
    /// Application payload (may be empty).
    pub payload: Bytes,
    /// Per-source sequence number.
    pub(crate) seq: PacketSeq,
}

impl Packet {
    /// Creates a packet with sequence number 0 (senders overwrite it).
    #[must_use]
    pub fn new(src: ComponentId, dst: ComponentId, size_bytes: u32, payload: Bytes) -> Self {
        Packet {
            src,
            dst,
            size_bytes,
            payload,
            seq: 0,
        }
    }
}

/// Message: hand a packet to a [`Link`](crate::Link) for transmission.
///
/// `from` must be one of the link's two endpoints; the link forwards to the
/// other one.
#[derive(Debug)]
pub struct Transmit {
    /// The endpoint handing the packet over.
    pub from: ComponentId,
    /// The packet to carry.
    pub packet: Packet,
}

/// Message: a link delivers a packet to an endpoint.
#[derive(Debug)]
pub(crate) struct Deliver {
    /// The packet arriving at the endpoint.
    pub(crate) packet: Packet,
}
