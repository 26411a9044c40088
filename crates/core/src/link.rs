//! Point-to-point duplex links with serialization delay, propagation delay
//! and drop-tail queueing — the NS-2 `duplex-link` analog, and the
//! substrate of the §4.3 Ethernet/TCP baseline
//! ([`TcpEndpoint`](crate::tcp::TcpEndpoint)). The TpWIRE bus itself lives in
//! `tsbus-tpwire`: it is a master/slave polled bus, not a packet-switched
//! link.
//!
//! ## Example: one packet over a 1 Mb/s link
//!
//! ```
//! use bytes::Bytes;
//! use tsbus_core::{Link, LinkSpec, Packet, Transmit};
//! use tsbus_des::{Component, Context, Message, SimDuration, SimTime, Simulator};
//!
//! /// Counts the packets a link delivers to it.
//! #[derive(Default)]
//! struct Endpoint {
//!     received: u64,
//! }
//!
//! impl Component for Endpoint {
//!     fn handle(&mut self, _ctx: &mut Context<'_>, _msg: Box<dyn Message>) {
//!         self.received += 1;
//!     }
//! }
//!
//! let mut sim = Simulator::new();
//! let a = sim.add_component("a", Endpoint::default());
//! let b = sim.add_component("b", Endpoint::default());
//! let spec = LinkSpec::new(1_000_000.0, SimDuration::from_micros(10), 64);
//! let link = sim.add_component("link", Link::new(spec, a, b));
//! sim.with_context(|ctx| {
//!     let packet = Packet::new(a, b, 125, Bytes::new());
//!     ctx.send(link, Transmit { from: a, packet });
//! });
//! // 125 bytes at 1 Mb/s take 1 ms to serialize, plus 10 µs propagation.
//! sim.run_until(SimTime::from_micros(1_009));
//! assert_eq!(sim.component::<Endpoint>(b).expect("registered").received, 0);
//! sim.run_until(SimTime::from_micros(1_010));
//! assert_eq!(sim.component::<Endpoint>(b).expect("registered").received, 1);
//! ```

use std::collections::VecDeque;

use tsbus_des::{Component, ComponentId, Context, Message, MessageExt, SimDuration};

use crate::packet::{Deliver, Packet, Transmit};

/// Transmission parameters of one link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Channel bit rate in bits per second.
    pub(crate) bandwidth_bps: f64,
    /// One-way propagation delay.
    pub(crate) delay: SimDuration,
    /// Maximum packets queued per direction before drop-tail discards.
    pub(crate) queue_limit: usize,
}

impl LinkSpec {
    /// A convenience constructor.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not positive and finite or `queue_limit`
    /// is zero.
    #[must_use]
    pub fn new(bandwidth_bps: f64, delay: SimDuration, queue_limit: usize) -> Self {
        assert!(
            bandwidth_bps.is_finite() && bandwidth_bps > 0.0,
            "link bandwidth must be positive and finite"
        );
        assert!(
            queue_limit > 0,
            "queue limit must allow at least one packet"
        );
        LinkSpec {
            bandwidth_bps,
            delay,
            queue_limit,
        }
    }

    /// Time to clock `bytes` onto the wire at this bandwidth.
    #[must_use]
    pub(crate) fn serialization_delay(&self, bytes: u32) -> SimDuration {
        let bits = f64::from(bytes) * 8.0;
        SimDuration::from_secs_f64(bits / self.bandwidth_bps)
    }
}

/// Per-direction transmitter state: a FIFO of waiting packets and a busy
/// flag.
#[derive(Debug)]
struct Direction {
    queue: VecDeque<Packet>,
    busy: bool,
}

impl Direction {
    fn new() -> Self {
        Direction {
            queue: VecDeque::new(),
            busy: false,
        }
    }
}

/// Internal timer: serialization of the head packet finished on a direction.
#[derive(Debug)]
struct TxDone {
    /// 0 = a→b, 1 = b→a.
    dir: usize,
    packet: Packet,
}

/// A duplex point-to-point link between two endpoint components.
///
/// Endpoints send [`Transmit`] messages to the link; the link clocks each
/// packet out for `size_bytes × 8 / bandwidth`, then delivers it to the
/// opposite endpoint as a `Deliver` message after the propagation delay.
/// Each direction has an independent transmitter and a drop-tail FIFO.
///
/// # Examples
///
/// See the [crate-level example](crate) for a packet sent over a link.
#[derive(Debug)]
pub struct Link {
    spec: LinkSpec,
    endpoint_a: ComponentId,
    endpoint_b: ComponentId,
    directions: [Direction; 2],
}

impl Link {
    /// Creates a link between `endpoint_a` and `endpoint_b`.
    #[must_use]
    pub fn new(spec: LinkSpec, endpoint_a: ComponentId, endpoint_b: ComponentId) -> Self {
        Link {
            spec,
            endpoint_a,
            endpoint_b,
            directions: [Direction::new(), Direction::new()],
        }
    }

    fn dir_of(&self, from: ComponentId) -> Option<usize> {
        if from == self.endpoint_a {
            Some(0)
        } else if from == self.endpoint_b {
            Some(1)
        } else {
            None
        }
    }

    fn receiver_of(&self, dir: usize) -> ComponentId {
        if dir == 0 {
            self.endpoint_b
        } else {
            self.endpoint_a
        }
    }

    fn start_transmission(&mut self, ctx: &mut Context<'_>, dir: usize, packet: Packet) {
        let tx_time = self.spec.serialization_delay(packet.size_bytes);
        self.directions[dir].busy = true;
        ctx.schedule_self_in(tx_time, TxDone { dir, packet });
    }
}

impl Component for Link {
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        let msg = match msg.downcast::<Transmit>() {
            Ok(transmit) => {
                let Transmit { from, packet } = *transmit;
                let Some(dir) = self.dir_of(from) else {
                    panic!("Transmit from {from} which is not an endpoint of this link");
                };
                if self.directions[dir].busy {
                    if self.directions[dir].queue.len() < self.spec.queue_limit {
                        self.directions[dir].queue.push_back(packet);
                    }
                } else {
                    self.start_transmission(ctx, dir, packet);
                }
                return;
            }
            Err(original) => original,
        };
        let done = msg
            .downcast::<TxDone>()
            .expect("links receive only Transmit and TxDone");
        let TxDone { dir, packet } = *done;
        ctx.schedule_in(self.spec.delay, self.receiver_of(dir), Deliver { packet });
        match self.directions[dir].queue.pop_front() {
            Some(next) => self.start_transmission(ctx, dir, next),
            None => self.directions[dir].busy = false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use tsbus_des::{SimTime, Simulator};

    /// Endpoint that records delivery times.
    #[derive(Default)]
    struct Endpoint {
        deliveries: Vec<(SimTime, u64)>,
    }

    impl Component for Endpoint {
        fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
            let deliver = msg.downcast::<Deliver>().expect("endpoint gets Deliver");
            self.deliveries.push((ctx.now(), deliver.packet.seq));
        }
    }

    fn packet(src: ComponentId, dst: ComponentId, size: u32, seq: u64) -> Packet {
        let mut p = Packet::new(src, dst, size, Bytes::new());
        p.seq = seq;
        p
    }

    /// 1000 bytes at 8 Mb/s = 1 ms serialization, + 2 ms propagation = 3 ms.
    #[test]
    fn delivery_time_is_serialization_plus_propagation() {
        let mut sim = Simulator::new();
        let a = sim.add_component("a", Endpoint::default());
        let b = sim.add_component("b", Endpoint::default());
        let spec = LinkSpec::new(8_000_000.0, SimDuration::from_millis(2), 16);
        let link = sim.add_component("link", Link::new(spec, a, b));
        sim.with_context(|ctx| {
            ctx.send(
                link,
                Transmit {
                    from: a,
                    packet: packet(a, b, 1000, 1),
                },
            );
        });
        sim.run(100);
        let ep: &Endpoint = sim.component(b).expect("registered");
        assert_eq!(ep.deliveries, vec![(SimTime::from_nanos(3_000_000), 1)]);
    }

    #[test]
    fn back_to_back_packets_queue_behind_transmitter() {
        let mut sim = Simulator::new();
        let a = sim.add_component("a", Endpoint::default());
        let b = sim.add_component("b", Endpoint::default());
        // 1 byte / 8 bit/s = 1 s serialization; no propagation.
        let spec = LinkSpec::new(8.0, SimDuration::ZERO, 16);
        let link = sim.add_component("link", Link::new(spec, a, b));
        sim.with_context(|ctx| {
            for seq in 1..=3 {
                ctx.send(
                    link,
                    Transmit {
                        from: a,
                        packet: packet(a, b, 1, seq),
                    },
                );
            }
        });
        sim.run(100);
        let ep: &Endpoint = sim.component(b).expect("registered");
        assert_eq!(
            ep.deliveries,
            vec![
                (SimTime::from_secs(1), 1),
                (SimTime::from_secs(2), 2),
                (SimTime::from_secs(3), 3),
            ]
        );
    }

    #[test]
    fn drop_tail_discards_beyond_queue_limit() {
        let mut sim = Simulator::new();
        let a = sim.add_component("a", Endpoint::default());
        let b = sim.add_component("b", Endpoint::default());
        let spec = LinkSpec::new(8.0, SimDuration::ZERO, 1);
        let link = sim.add_component("link", Link::new(spec, a, b));
        sim.with_context(|ctx| {
            for seq in 1..=4 {
                ctx.send(
                    link,
                    Transmit {
                        from: a,
                        packet: packet(a, b, 1, seq),
                    },
                );
            }
        });
        sim.run(100);
        // seq 1 transmits, seq 2 queues, seq 3 and 4 drop.
        let ep: &Endpoint = sim.component(b).expect("registered");
        assert_eq!(
            ep.deliveries,
            vec![(SimTime::from_secs(1), 1), (SimTime::from_secs(2), 2)]
        );
    }

    #[test]
    fn directions_are_independent() {
        let mut sim = Simulator::new();
        let a = sim.add_component("a", Endpoint::default());
        let b = sim.add_component("b", Endpoint::default());
        let spec = LinkSpec::new(8.0, SimDuration::ZERO, 16);
        let link = sim.add_component("link", Link::new(spec, a, b));
        sim.with_context(|ctx| {
            ctx.send(
                link,
                Transmit {
                    from: a,
                    packet: packet(a, b, 1, 1),
                },
            );
            ctx.send(
                link,
                Transmit {
                    from: b,
                    packet: packet(b, a, 1, 2),
                },
            );
        });
        sim.run(100);
        // Both directions complete at 1 s — no head-of-line coupling.
        let ea: &Endpoint = sim.component(a).expect("registered");
        let eb: &Endpoint = sim.component(b).expect("registered");
        assert_eq!(ea.deliveries, vec![(SimTime::from_secs(1), 2)]);
        assert_eq!(eb.deliveries, vec![(SimTime::from_secs(1), 1)]);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn transmit_from_stranger_panics() {
        let mut sim = Simulator::new();
        let a = sim.add_component("a", Endpoint::default());
        let b = sim.add_component("b", Endpoint::default());
        let stranger = sim.add_component("s", Endpoint::default());
        let spec = LinkSpec::new(8.0, SimDuration::ZERO, 16);
        let link = sim.add_component("link", Link::new(spec, a, b));
        sim.with_context(|ctx| {
            ctx.send(
                link,
                Transmit {
                    from: stranger,
                    packet: packet(stranger, b, 1, 1),
                },
            );
        });
        sim.run(100);
    }
}
