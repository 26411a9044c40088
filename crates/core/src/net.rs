//! The transport-neutral message layer between application agents and
//! their transport endpoints.
//!
//! Application agents (the tuplespace client and server) never talk to a
//! bus or a TCP link directly; they exchange [`NetSend`] / [`NetDeliver`]
//! messages with an *endpoint* component ([`TpwireEndpoint`] or
//! [`TcpEndpoint`]). Swapping the transport under an unchanged application
//! is exactly the estimation methodology the paper builds.
//!
//! [`TpwireEndpoint`]: crate::TpwireEndpoint
//! [`TcpEndpoint`]: crate::tcp::TcpEndpoint

use bytes::{Bytes, BytesMut};
use tsbus_tpwire::NodeId;

/// Application → endpoint: send one whole message to the peer at `to`.
///
/// Node ids double as transport-neutral addresses: on TpWIRE they are the
/// daisy-chain node ids; on the TCP baseline they are station ids.
#[derive(Debug)]
pub struct NetSend {
    /// Destination address.
    pub to: NodeId,
    /// The complete message payload (an XML protocol document).
    pub payload: Bytes,
}

/// Endpoint → application: one whole message arrived from `from`.
#[derive(Debug)]
pub struct NetDeliver {
    /// Source address.
    pub from: NodeId,
    /// The complete message payload.
    pub payload: Bytes,
}

/// Endpoint → application: the transport gave up on a message.
#[derive(Debug)]
pub struct NetError {
    /// Destination the message was addressed to.
    pub to: NodeId,
    /// Human-readable reason.
    pub(crate) reason: String,
    /// Whether the bus fast-failed the message (destination quarantined by
    /// a circuit breaker) instead of exhausting its retry schedule. Fast
    /// failures arrive much sooner and cost no wire time.
    pub fast: bool,
}

/// Reassembles chunked transport deliveries into whole messages.
///
/// The TpWIRE bus delivers stream payloads in service-slot-sized chunks
/// with an end-of-message marker; this accumulator turns those back into
/// the messages the application layer sent.
///
/// # Examples
///
/// ```
/// use bytes::Bytes;
/// use tsbus_core::MessageAssembler;
///
/// let mut asm = MessageAssembler::new();
/// assert_eq!(asm.push(Bytes::from_static(b"hel"), false), None);
/// let whole = asm.push(Bytes::from_static(b"lo"), true).expect("complete");
/// assert_eq!(&whole[..], b"hello");
/// ```
#[derive(Debug, Default)]
pub struct MessageAssembler {
    buffer: BytesMut,
}

impl MessageAssembler {
    /// Creates an empty assembler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one chunk; returns the completed message when `end_of_message`
    /// is set.
    pub fn push(&mut self, chunk: Bytes, end_of_message: bool) -> Option<Bytes> {
        self.buffer.extend_from_slice(&chunk);
        if end_of_message {
            Some(std::mem::take(&mut self.buffer).freeze())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assembler_accumulates_until_eom() {
        let mut asm = MessageAssembler::new();
        assert!(asm.push(Bytes::from_static(b"ab"), false).is_none());
        assert_eq!(asm.buffer.len(), 2);
        assert!(asm.push(Bytes::from_static(b"cd"), false).is_none());
        let whole = asm.push(Bytes::from_static(b"e"), true).expect("done");
        assert_eq!(&whole[..], b"abcde");
        assert_eq!(asm.buffer.len(), 0);
    }

    #[test]
    fn empty_message_completes_immediately() {
        let mut asm = MessageAssembler::new();
        let whole = asm.push(Bytes::new(), true).expect("empty message");
        assert!(whole.is_empty());
    }

    #[test]
    fn messages_do_not_bleed_into_each_other() {
        let mut asm = MessageAssembler::new();
        let a = asm.push(Bytes::from_static(b"one"), true).expect("first");
        let b = asm.push(Bytes::from_static(b"two"), true).expect("second");
        assert_eq!(&a[..], b"one");
        assert_eq!(&b[..], b"two");
    }
}
