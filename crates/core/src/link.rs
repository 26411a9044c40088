//! Point-to-point duplex links with serialization delay, propagation delay
//! and drop-tail queueing — the NS-2 `duplex-link` analog, and the
//! substrate of the §4.3 Ethernet/TCP baseline
//! ([`TcpEndpoint`](crate::TcpEndpoint)). The TpWIRE bus itself lives in
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
//!     let packet = Packet::new(a, b, 125, Bytes::new(), ctx.now());
//!     ctx.send(link, Transmit { from: a, packet });
//! });
//! // 125 bytes at 1 Mb/s take 1 ms to serialize, plus 10 µs propagation.
//! sim.run_until(SimTime::from_micros(1_009));
//! assert_eq!(sim.component::<Endpoint>(b).expect("registered").received, 0);
//! sim.run_until(SimTime::from_micros(1_010));
//! assert_eq!(sim.component::<Endpoint>(b).expect("registered").received, 1);
//! ```

use std::collections::VecDeque;

use tsbus_des::{Component, ComponentId, Context, Message, MessageExt, SimDuration, SimTime};
use tsbus_faults::LinkFaults;
use tsbus_obs::{CounterId, LinkEffect, Registry, Snapshot, TraceEvent, Tracer, UtilizationId};

use crate::packet::{Deliver, Packet, Transmit};

/// Transmission parameters of one link direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Channel bit rate in bits per second.
    pub bandwidth_bps: f64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Maximum packets queued per direction before drop-tail discards.
    pub queue_limit: usize,
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
    pub fn serialization_delay(&self, bytes: u32) -> SimDuration {
        let bits = f64::from(bytes) * 8.0;
        SimDuration::from_secs_f64(bits / self.bandwidth_bps)
    }
}

/// Per-direction transmitter state: a FIFO of waiting packets and a busy
/// flag. All counting lives in the link's registry.
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

/// Registry handles for one direction's instruments.
#[derive(Debug)]
struct DirInstruments {
    forwarded: CounterId,
    dropped: CounterId,
    lost: CounterId,
    duplicated: CounterId,
    reordered: CounterId,
    utilization: UtilizationId,
}

impl DirInstruments {
    fn new(registry: &mut Registry, prefix: &str) -> Self {
        DirInstruments {
            forwarded: registry.counter(&format!("{prefix}/forwarded")),
            dropped: registry.counter(&format!("{prefix}/dropped")),
            lost: registry.counter(&format!("{prefix}/lost")),
            duplicated: registry.counter(&format!("{prefix}/duplicated")),
            reordered: registry.counter(&format!("{prefix}/reordered")),
            utilization: registry.utilization(&format!("{prefix}/utilization"), SimTime::ZERO),
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

/// Aggregate statistics of one link direction, harvested after a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkStats {
    /// Packets fully transmitted.
    pub forwarded: u64,
    /// Packets discarded by drop-tail.
    pub dropped: u64,
    /// Packets lost to injected wire faults (after transmission).
    pub lost: u64,
    /// Extra deliveries created by injected duplication.
    pub duplicated: u64,
    /// Packets held back by injected reordering.
    pub reordered: u64,
    /// Fraction of time the transmitter was busy, in `[0, 1]`.
    pub utilization: f64,
}

/// A duplex point-to-point link between two endpoint components.
///
/// Endpoints send [`Transmit`] messages to the link; the link clocks each
/// packet out for `size_bytes × 8 / bandwidth`, then delivers it to the
/// opposite endpoint as a [`Deliver`] message after the propagation delay.
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
    faults: [LinkFaults; 2],
    registry: Registry,
    obs: [DirInstruments; 2],
    tracer: Tracer<TraceEvent>,
}

impl Link {
    /// Creates a link between `endpoint_a` and `endpoint_b`.
    #[must_use]
    pub fn new(spec: LinkSpec, endpoint_a: ComponentId, endpoint_b: ComponentId) -> Self {
        let mut registry = Registry::new();
        let obs = [
            DirInstruments::new(&mut registry, "a2b"),
            DirInstruments::new(&mut registry, "b2a"),
        ];
        Link {
            spec,
            endpoint_a,
            endpoint_b,
            directions: [Direction::new(), Direction::new()],
            faults: [LinkFaults::NONE; 2],
            registry,
            obs,
            tracer: Tracer::disabled(),
        }
    }

    /// Applies the same fault matrix to both directions (builder style).
    /// All effects draw from the link component's seeded RNG stream, so the
    /// same master seed replays the identical fault trace.
    #[must_use]
    pub fn with_faults(mut self, faults: LinkFaults) -> Self {
        self.faults = [faults; 2];
        self
    }

    /// Applies a fault matrix to one direction only (0 = a→b, 1 = b→a).
    ///
    /// # Panics
    ///
    /// Panics if `dir > 1`.
    #[must_use]
    pub fn with_direction_faults(mut self, dir: usize, faults: LinkFaults) -> Self {
        self.faults[dir] = faults;
        self
    }

    /// The link's transmission parameters.
    #[must_use]
    pub fn spec(&self) -> &LinkSpec {
        &self.spec
    }

    /// The fault matrix of one direction (0 = a→b, 1 = b→a).
    ///
    /// # Panics
    ///
    /// Panics if `dir > 1`.
    #[must_use]
    pub fn faults(&self, dir: usize) -> &LinkFaults {
        &self.faults[dir]
    }

    /// Statistics for the a→b (`0`) or b→a (`1`) direction at instant `now`.
    ///
    /// # Panics
    ///
    /// Panics if `dir > 1`.
    #[must_use]
    pub fn stats(&self, dir: usize, now: SimTime) -> LinkStats {
        let d = &self.obs[dir];
        LinkStats {
            forwarded: self.registry.count(d.forwarded),
            dropped: self.registry.count(d.dropped),
            lost: self.registry.count(d.lost),
            duplicated: self.registry.count(d.duplicated),
            reordered: self.registry.count(d.reordered),
            utilization: self.registry.fraction_busy(d.utilization, now),
        }
    }

    /// Captures the link's registry (paths under `a2b/` and `b2a/`) at
    /// instant `now`.
    #[must_use]
    pub fn snapshot(&self, now: SimTime) -> Snapshot {
        self.registry.snapshot(now)
    }

    /// Replaces the typed trace collector (e.g. with a bounded ring to
    /// record fault effects).
    pub fn set_tracer(&mut self, tracer: Tracer<TraceEvent>) {
        self.tracer = tracer;
    }

    /// The recorded [`TraceEvent::Link`] events, oldest first.
    #[must_use]
    pub fn trace(&self) -> &Tracer<TraceEvent> {
        &self.tracer
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
        self.registry.set_busy(self.obs[dir].utilization, ctx.now());
        ctx.schedule_self_in(tx_time, TxDone { dir, packet });
    }

    /// Schedules delivery of a fully transmitted packet, applying this
    /// direction's fault matrix: loss kills it, jitter and reorder-hold
    /// stretch its propagation, duplication schedules a second copy.
    fn deliver(&mut self, ctx: &mut Context<'_>, dir: usize, packet: Packet) {
        let receiver = self.receiver_of(dir);
        let faults = self.faults[dir];
        if faults.is_none() {
            ctx.schedule_in(self.spec.delay, receiver, Deliver { packet });
            return;
        }
        if faults.loss() > 0.0 && ctx.rng().chance(faults.loss()) {
            self.registry.inc(self.obs[dir].lost);
            self.tracer.emit(TraceEvent::Link {
                at: ctx.now(),
                effect: LinkEffect::Loss,
                seq: packet.seq,
            });
            return;
        }
        let mut delay = self.spec.delay;
        if faults.jitter > SimDuration::ZERO {
            let extra = ctx.rng().below(faults.jitter.as_nanos() + 1);
            delay += SimDuration::from_nanos(extra);
        }
        if faults.reorder() > 0.0 && ctx.rng().chance(faults.reorder()) {
            self.registry.inc(self.obs[dir].reordered);
            self.tracer.emit(TraceEvent::Link {
                at: ctx.now(),
                effect: LinkEffect::Reorder,
                seq: packet.seq,
            });
            delay += faults.reorder_hold;
        }
        if faults.duplicate() > 0.0 && ctx.rng().chance(faults.duplicate()) {
            self.registry.inc(self.obs[dir].duplicated);
            self.tracer.emit(TraceEvent::Link {
                at: ctx.now(),
                effect: LinkEffect::Duplicate,
                seq: packet.seq,
            });
            ctx.schedule_in(
                delay,
                receiver,
                Deliver {
                    packet: packet.clone(),
                },
            );
        }
        ctx.schedule_in(delay, receiver, Deliver { packet });
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
                    if self.directions[dir].queue.len() >= self.spec.queue_limit {
                        self.registry.inc(self.obs[dir].dropped);
                        self.tracer.emit(TraceEvent::Link {
                            at: ctx.now(),
                            effect: LinkEffect::QueueDrop,
                            seq: packet.seq,
                        });
                    } else {
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
        self.registry.inc(self.obs[dir].forwarded);
        self.deliver(ctx, dir, packet);
        match self.directions[dir].queue.pop_front() {
            Some(next) => self.start_transmission(ctx, dir, next),
            None => {
                self.directions[dir].busy = false;
                self.registry.set_idle(self.obs[dir].utilization, ctx.now());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use tsbus_des::Simulator;

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
        let mut p = Packet::new(src, dst, size, Bytes::new(), SimTime::ZERO);
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
        assert_eq!(ep.deliveries.len(), 2);
        let link_ref: &Link = sim.component(link).expect("registered");
        let stats = link_ref.stats(0, sim.now());
        assert_eq!(stats.forwarded, 2);
        assert_eq!(stats.dropped, 2);
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
    fn utilization_reflects_busy_time() {
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
        });
        sim.run_until(SimTime::from_secs(2));
        let link_ref: &Link = sim.component(link).expect("registered");
        let stats = link_ref.stats(0, sim.now());
        assert!((stats.utilization - 0.5).abs() < 1e-9);
    }

    fn faulty_link(
        sim: &mut Simulator,
        faults: LinkFaults,
        count: u64,
    ) -> (ComponentId, ComponentId) {
        let a = sim.add_component("a", Endpoint::default());
        let b = sim.add_component("b", Endpoint::default());
        let spec = LinkSpec::new(8_000_000.0, SimDuration::from_millis(1), 1024);
        let link = sim.add_component("link", Link::new(spec, a, b).with_faults(faults));
        sim.with_context(|ctx| {
            for seq in 0..count {
                ctx.send(
                    link,
                    Transmit {
                        from: a,
                        packet: packet(a, b, 100, seq),
                    },
                );
            }
        });
        (link, b)
    }

    #[test]
    fn total_loss_delivers_nothing() {
        let mut sim = Simulator::with_seed(7);
        let (link, b) = faulty_link(&mut sim, LinkFaults::new().with_loss(1.0), 5);
        sim.run_until(SimTime::from_secs(1));
        let ep: &Endpoint = sim.component(b).expect("registered");
        assert!(ep.deliveries.is_empty(), "loss=1.0 must drop everything");
        let link_ref: &Link = sim.component(link).expect("registered");
        let stats = link_ref.stats(0, sim.now());
        assert_eq!(stats.forwarded, 5, "loss happens after transmission");
        assert_eq!(stats.lost, 5);
        assert_eq!(stats.dropped, 0, "wire loss is not queue drop");
    }

    #[test]
    fn certain_duplication_doubles_deliveries() {
        let mut sim = Simulator::with_seed(7);
        let (link, b) = faulty_link(&mut sim, LinkFaults::new().with_duplication(1.0), 4);
        sim.run_until(SimTime::from_secs(1));
        let ep: &Endpoint = sim.component(b).expect("registered");
        assert_eq!(ep.deliveries.len(), 8, "every packet arrives twice");
        let link_ref: &Link = sim.component(link).expect("registered");
        assert_eq!(link_ref.stats(0, sim.now()).duplicated, 4);
    }

    #[test]
    fn reordering_lets_later_packets_overtake() {
        let faults = LinkFaults::new().with_reordering(0.5, SimDuration::from_millis(50));
        let mut sim = Simulator::with_seed(11);
        let (link, b) = faulty_link(&mut sim, faults, 20);
        sim.run_until(SimTime::from_secs(1));
        let ep: &Endpoint = sim.component(b).expect("registered");
        assert_eq!(ep.deliveries.len(), 20, "reordering delays, never drops");
        let inversions = ep.deliveries.windows(2).filter(|w| w[1].1 < w[0].1).count();
        assert!(inversions > 0, "held packets must be overtaken");
        let link_ref: &Link = sim.component(link).expect("registered");
        let reordered = link_ref.stats(0, sim.now()).reordered;
        assert!(reordered > 0 && reordered < 20, "p=0.5 holds some, not all");
    }

    #[test]
    fn jitter_is_bounded_and_seed_deterministic() {
        let jitter = SimDuration::from_micros(50);
        let run = |seed| {
            let mut sim = Simulator::with_seed(seed);
            let (_, b) = faulty_link(&mut sim, LinkFaults::new().with_jitter(jitter), 10);
            sim.run_until(SimTime::from_secs(1));
            let ep: &Endpoint = sim.component(b).expect("registered");
            ep.deliveries.clone()
        };
        let first = run(3);
        assert_eq!(first, run(3), "same seed, same fault trace");
        assert_ne!(first, run(4), "different seed, different jitter draws");
        // Every delivery lands within [propagation, propagation + jitter]
        // of its serialization end (100 B at 8 Mb/s = 100 µs each).
        for (i, &(at, seq)) in first.iter().enumerate() {
            assert_eq!(seq, i as u64, "jitter below serialization gap keeps order");
            let tx_end = SimDuration::from_micros(100 * (seq + 1));
            let earliest = SimTime::ZERO + tx_end + SimDuration::from_millis(1);
            assert!(at >= earliest, "delivery {seq} too early: {at}");
            assert!(at <= earliest + jitter, "delivery {seq} too late: {at}");
        }
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
