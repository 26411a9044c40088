//! Constant-bit-rate traffic over the TpWIRE bus — the background load of
//! the paper's experiments (a CBR generator on one slave sending 1-byte
//! packets to a receiver on another slave).

use bytes::Bytes;
use tsbus_des::{Component, ComponentId, Context, Message, MessageExt, SimDuration, SimTime};
use tsbus_tpwire::{NodeId, SendStream, StreamDelivered, StreamEndpoint};

/// Internal timer: emit the next packet.
#[derive(Debug)]
struct Emit;

/// A CBR source attached directly to a bus slave: sends one
/// `packet_size`-byte stream message to `dst` every `packet_size / rate`
/// seconds (rate counts payload bytes; each message also costs the 3-byte
/// relay header on the wire, exactly as the paper's CBR frames carry
/// protocol overhead).
///
/// A rate of `0.0` produces no traffic (the "CBR 0 B/s" row of Table 4).
#[derive(Debug)]
pub struct BusCbrSource {
    bus: ComponentId,
    src: NodeId,
    dst: NodeId,
    rate_bytes_per_sec: f64,
    packet_size: u32,
    /// Messages still to send in burst mode (`None` = continuous).
    burst_remaining: Option<u64>,
    sent_messages: u64,
}

impl BusCbrSource {
    /// Creates a continuous CBR source starting at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bytes_per_sec` is negative/non-finite or
    /// `packet_size` is zero.
    #[must_use]
    pub fn new(
        bus: ComponentId,
        src: NodeId,
        dst: NodeId,
        rate_bytes_per_sec: f64,
        packet_size: u32,
    ) -> Self {
        assert!(
            rate_bytes_per_sec.is_finite() && rate_bytes_per_sec >= 0.0,
            "CBR rate must be non-negative and finite"
        );
        assert!(packet_size > 0, "packet size must be positive");
        BusCbrSource {
            bus,
            src,
            dst,
            rate_bytes_per_sec,
            packet_size,
            burst_remaining: None,
            sent_messages: 0,
        }
    }

    /// Limits the source to `n` messages, emitted back-to-back as fast as
    /// the period allows (the Fig. 6 validation workload).
    #[must_use]
    pub fn burst(mut self, n: u64) -> Self {
        self.burst_remaining = Some(n);
        self
    }

    /// Messages handed to the bus so far.
    #[must_use]
    pub fn sent_messages(&self) -> u64 {
        self.sent_messages
    }

    fn period(&self) -> Option<SimDuration> {
        if self.rate_bytes_per_sec <= 0.0 {
            None
        } else {
            Some(SimDuration::from_secs_f64(
                f64::from(self.packet_size) / self.rate_bytes_per_sec,
            ))
        }
    }

    fn emit(&mut self, ctx: &mut Context<'_>) {
        self.sent_messages += 1;
        if let Some(n) = &mut self.burst_remaining {
            *n -= 1;
        }
        let bus = self.bus;
        let from = self.src;
        let to = StreamEndpoint::Slave(self.dst);
        let payload = Bytes::from(vec![0u8; self.packet_size as usize]);
        ctx.send(bus, SendStream { from, to, payload });
    }
}

impl Component for BusCbrSource {
    fn start(&mut self, ctx: &mut Context<'_>) {
        if self.period().is_some() {
            let target = ctx.self_id();
            ctx.schedule_at(ctx.now(), target, Emit);
        }
    }

    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        if !msg.is::<Emit>() {
            return;
        }
        if self.burst_remaining == Some(0) {
            return;
        }
        self.emit(ctx);
        if self.burst_remaining == Some(0) {
            return;
        }
        let period = self.period().expect("Emit only scheduled for nonzero rate");
        ctx.schedule_self_in(period, Emit);
    }
}

/// A byte-counting receiver attached directly to a bus slave.
#[derive(Debug, Default)]
pub struct BusCbrSink {
    bytes: u64,
    messages: u64,
    first_arrival: Option<SimTime>,
    last_arrival: Option<SimTime>,
}

impl BusCbrSink {
    /// Creates an empty sink.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Payload bytes received.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Complete messages received.
    #[must_use]
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// First delivery instant.
    #[must_use]
    pub fn first_arrival(&self) -> Option<SimTime> {
        self.first_arrival
    }

    /// Most recent delivery instant.
    #[must_use]
    pub fn last_arrival(&self) -> Option<SimTime> {
        self.last_arrival
    }
}

impl Component for BusCbrSink {
    fn handle(&mut self, ctx: &mut Context<'_>, msg: Box<dyn Message>) {
        if let Ok(delivered) = msg.downcast::<StreamDelivered>() {
            self.bytes += delivered.bytes.len() as u64;
            if delivered.end_of_message {
                self.messages += 1;
            }
            self.first_arrival.get_or_insert(ctx.now());
            self.last_arrival = Some(ctx.now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsbus_des::Simulator;
    use tsbus_tpwire::{BusParams, TpWireBus};

    fn node(id: u8) -> NodeId {
        NodeId::new(id).expect("valid")
    }

    #[test]
    fn burst_sends_exactly_n_messages() {
        let mut sim = Simulator::new();
        let sink = sim.add_component("sink", BusCbrSink::new());
        let bus_id = ComponentId::from_raw(2);
        let src_id = sim.add_component(
            "cbr",
            BusCbrSource::new(bus_id, node(1), node(2), 1_000_000.0, 1).burst(5),
        );
        let mut bus = TpWireBus::new(BusParams::theseus_default(), vec![node(1), node(2)]);
        bus.attach(node(2), sink);
        sim.add_component("bus", bus);
        sim.run_until(SimTime::from_secs(1));
        let src: &BusCbrSource = sim.component(src_id).expect("registered");
        assert_eq!(src.sent_messages(), 5);
        let sink_ref: &BusCbrSink = sim.component(sink).expect("registered");
        assert_eq!(sink_ref.messages(), 5);
        assert_eq!(sink_ref.bytes(), 5);
    }

    #[test]
    fn continuous_rate_is_roughly_honoured() {
        let mut sim = Simulator::new();
        let sink = sim.add_component("sink", BusCbrSink::new());
        let bus_id = ComponentId::from_raw(2);
        sim.add_component(
            "cbr",
            BusCbrSource::new(bus_id, node(1), node(2), 100.0, 10),
        );
        let mut bus = TpWireBus::new(BusParams::theseus_default(), vec![node(1), node(2)]);
        bus.attach(node(2), sink);
        sim.add_component("bus", bus);
        sim.run_until(SimTime::from_secs(10));
        let sink_ref: &BusCbrSink = sim.component(sink).expect("registered");
        let rate = sink_ref.bytes() as f64 / 10.0;
        assert!(
            (90.0..=110.0).contains(&rate),
            "observed CBR payload rate {rate} B/s"
        );
    }

    #[test]
    fn zero_rate_is_silent() {
        let mut sim = Simulator::new();
        let sink = sim.add_component("sink", BusCbrSink::new());
        let bus_id = ComponentId::from_raw(2);
        sim.add_component("cbr", BusCbrSource::new(bus_id, node(1), node(2), 0.0, 1));
        let mut bus = TpWireBus::new(BusParams::theseus_default(), vec![node(1), node(2)]);
        bus.attach(node(2), sink);
        sim.add_component("bus", bus);
        sim.run_until(SimTime::from_secs(2));
        let sink_ref: &BusCbrSink = sim.component(sink).expect("registered");
        assert_eq!(sink_ref.messages(), 0);
    }
}
