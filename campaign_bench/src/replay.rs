//! Host-time the pure-library layers by replaying a traced pass's
//! recorded message stream through their public calls: every delivered
//! message is decoded and re-encoded in its own wire format (`xmlwire`),
//! and every server's request stream is re-applied to a fresh `Space`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use tsbus_des::SimDuration;
use tsbus_tuplespace::{Lease, Space};
use tsbus_xmlwire::{
    request_envelope_from_wire, server_message_from_wire, EncodeScratch, Request, RequestEnvelope,
    ServerMessage, WireFormat, BINARY_MAGIC,
};

use crate::stack::Delivered;

/// Replay totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Messages replayed.
    pub messages: u64,
    /// Of those, requests (one per operation attempt).
    pub requests: u64,
    /// Their wire bytes (requests, replies and pushed events).
    pub bytes: u64,
    /// Host nanoseconds decoding them.
    pub decode_ns: u64,
    /// Host nanoseconds re-encoding them.
    pub encode_ns: u64,
    /// `Space` operations re-applied.
    pub space_ops: u64,
    /// Host nanoseconds inside those `Space` calls.
    pub space_ns: u64,
}

impl std::ops::AddAssign for Replay {
    fn add_assign(&mut self, o: Replay) {
        self.messages += o.messages;
        self.requests += o.requests;
        self.bytes += o.bytes;
        self.decode_ns += o.decode_ns;
        self.encode_ns += o.encode_ns;
        self.space_ops += o.space_ops;
        self.space_ns += o.space_ns;
    }
}

enum Decoded {
    Request(RequestEnvelope, WireFormat),
    Server(ServerMessage, WireFormat),
}

fn lease(now: tsbus_des::SimTime, lease_ns: Option<u64>) -> Lease {
    lease_ns.map_or(Lease::Forever, |ns| {
        Lease::for_duration(now, SimDuration::from_nanos(ns))
    })
}

/// Replays `stream` (one traced pass, in delivery order).
pub fn replay(stream: &[Delivered]) -> Replay {
    let mut out = Replay::default();
    let format_of = |bytes: &[u8]| {
        if bytes.first() == Some(&BINARY_MAGIC) {
            WireFormat::Binary
        } else {
            WireFormat::Xml
        }
    };

    // Faulty buses can deliver damaged bytes; the server rejects those,
    // and so does the replay (their decode attempt is still timed).
    let started = Instant::now();
    let decoded: Vec<Option<Decoded>> = stream
        .iter()
        .map(|d| {
            if d.to_server {
                let (envelope, format) = request_envelope_from_wire(&d.payload).ok()?;
                Some(Decoded::Request(envelope, format))
            } else {
                let message = server_message_from_wire(&d.payload).ok()?;
                Some(Decoded::Server(message, format_of(&d.payload)))
            }
        })
        .collect();
    out.decode_ns = started.elapsed().as_nanos() as u64;
    out.messages = stream.len() as u64;
    out.requests = stream.iter().filter(|d| d.to_server).count() as u64;
    out.bytes = stream.iter().map(|d| d.payload.len() as u64).sum();

    let mut scratch = EncodeScratch::new();
    let started = Instant::now();
    for message in decoded.iter().flatten() {
        let bytes = match message {
            Decoded::Request(envelope, format) => scratch.request_envelope(envelope, *format).len(),
            Decoded::Server(ServerMessage::Response { re, response }, format) => {
                scratch.correlated_response(*re, response, *format).len()
            }
            Decoded::Server(ServerMessage::Event(event), format) => {
                scratch.event(event, *format).len()
            }
        };
        black_box(bytes);
    }
    out.encode_ns = started.elapsed().as_nanos() as u64;

    // One fresh space per (trial, server), fed that server's requests.
    let mut spaces: BTreeMap<(usize, usize), Space> = BTreeMap::new();
    let started = Instant::now();
    for (d, message) in stream.iter().zip(&decoded) {
        let Some(Decoded::Request(envelope, _)) = message else {
            continue;
        };
        let space = spaces.entry((d.trial, d.to.index())).or_default();
        let now = d.at;
        match &envelope.request {
            Request::Write { tuple, lease_ns } => {
                black_box(space.write(tuple.clone(), lease(now, *lease_ns), now));
            }
            Request::Read { template, .. } | Request::ReadIfExists { template } => {
                black_box(space.read(template, now));
            }
            Request::Take { template, .. } | Request::TakeIfExists { template } => {
                black_box(space.take(template, now));
            }
            Request::Count { template } => {
                black_box(space.count(template, now));
            }
            Request::Renew { template, lease_ns } => {
                black_box(space.renew(template, lease(now, *lease_ns), now));
            }
            Request::Subscribe { template, kinds } => {
                black_box(space.subscribe(template.clone(), kinds.iter().copied()));
            }
            Request::Unsubscribe { .. } => continue,
        }
        black_box(space.drain_notifications());
        out.space_ops += 1;
    }
    out.space_ns = started.elapsed().as_nanos() as u64;
    out
}
