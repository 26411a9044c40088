//! The TpWIRE slave device model: registers, selection, command execution,
//! self-reset, and the memory-mapped stream FIFO used by the master relay.
//!
//! A [`SlaveDevice`] is a plain state machine; the bus model (one per
//! simulated chain) owns a vector of them and drives them with decoded
//! [`TxFrame`]s. Timing lives entirely in the bus/analytic layers — the
//! slave only answers *what* it replies, never *when*.
//!
//! ## The stream FIFO convention
//!
//! Pointer address [`STREAM_ADDR`] (0xFF) in the memory space is a
//! memory-mapped FIFO rather than a RAM cell: `READ_DATA` there pops the
//! slave's outbound stream (bytes its attached device wants relayed), and
//! `WRITE_DATA` there pushes onto the inbound stream (bytes delivered to the
//! attached device). Reads/writes at 0xFF do not auto-increment the pointer,
//! so a block transfer is `SELECT`, `SET_POINTER 0xFF`, then N data frames.
//! This concretizes the "memory mapped I/O register set" the specification
//! mentions; see `DESIGN.md` §5.

use std::collections::VecDeque;

use bytes::Bytes;
use tsbus_des::{SimDuration, SimTime};

use crate::frame::{Command, RxFrame, RxType, TxFrame};
use crate::node::{AddressSpace, NodeId, SystemReg};
use crate::wiring::BusParams;

/// The memory-space pointer value that addresses the stream FIFO.
pub(crate) const STREAM_ADDR: u8 = 0xFF;

/// The self-reset watchdog of a slave's line interfaces, as durations at
/// one bus's bit rate. The bus converts them once and hands them to every
/// frame the slaves observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Watchdog {
    /// Idle time after which an interface resets itself
    /// ([`BusParams::reset_timeout`]).
    pub(crate) reset_timeout: SimDuration,
    /// How long the reset pulse holds the interface
    /// ([`BusParams::reset_active`]).
    pub(crate) reset_active: SimDuration,
}

impl Watchdog {
    /// The watchdog durations at `params`' bit rate.
    #[must_use]
    pub(crate) fn new(params: &BusParams) -> Self {
        Watchdog {
            reset_timeout: params.reset_timeout(),
            reset_active: params.reset_active(),
        }
    }
}

/// Size of the byte-addressable memory space (pointer is 8 bits; the last
/// address is the stream FIFO).
pub(crate) const MEMORY_BYTES: usize = 256;

/// Per-line interface state of a slave. In multi-bus (`ParallelBuses`)
/// wirings each slave has one independent interface per line, each with its
/// own selection latch, pointer, alternating-bit read port and reset
/// watchdog; memory, system registers and the stream FIFOs are shared.
#[derive(Debug, Clone)]
struct Port {
    /// `Some(space)` while this slave is the selected one on this line.
    selected: Option<AddressSpace>,
    pointer: u8,
    /// Alternating-bit state of the stream FIFO read port: the toggle of
    /// the last serviced `READ_DATA` and the byte it returned. A repeated
    /// read with the same toggle (a master retry after a corrupted RX)
    /// returns the latched byte instead of popping a fresh one.
    stream_toggle: Option<bool>,
    stream_latch: u8,
    /// Instant of the last valid TX frame observed (for the self-reset
    /// timeout).
    last_valid_tx: SimTime,
    /// While set, this interface is holding its reset active and ignores
    /// frames.
    reset_until: Option<SimTime>,
}

impl Port {
    fn new() -> Self {
        Port {
            selected: None,
            pointer: 0,
            stream_toggle: None,
            stream_latch: 0,
            last_valid_tx: SimTime::ZERO,
            reset_until: None,
        }
    }
}

/// A TpWIRE slave: registers, daisy-chain position and stream FIFOs.
#[derive(Debug, Clone)]
pub struct SlaveDevice {
    node: NodeId,
    ports: Vec<Port>,
    memory: Box<[u8; MEMORY_BYTES]>,
    command_reg: u8,
    dma_counter: u8,
    spi: u8,
    outbound: VecDeque<u8>,
    inbound: VecDeque<u8>,
    resets: u64,
}

impl SlaveDevice {
    /// Creates a powered-on slave with cleared registers.
    ///
    /// # Panics
    ///
    /// Panics if `node` is the broadcast id — broadcast is virtual, no
    /// physical slave carries it.
    #[must_use]
    pub(crate) fn new(node: NodeId) -> Self {
        assert!(
            !node.is_broadcast(),
            "the broadcast node id cannot be instantiated as a device"
        );
        SlaveDevice {
            node,
            ports: vec![Port::new()],
            memory: Box::new([0; MEMORY_BYTES]),
            command_reg: 0,
            dma_counter: 0,
            spi: 0,
            outbound: VecDeque::new(),
            inbound: VecDeque::new(),
            resets: 0,
        }
    }

    /// Gives the slave `n` independent line interfaces (for `ParallelBuses`
    /// wirings). Must be called before the first frame is processed.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub(crate) fn set_port_count(&mut self, n: usize) {
        assert!(n > 0, "a slave needs at least one bus interface");
        self.ports = vec![Port::new(); n];
    }

    /// This slave's node id.
    #[must_use]
    pub(crate) fn node(&self) -> NodeId {
        self.node
    }

    /// Whether the slave currently has a pending interrupt (it raises one
    /// whenever its outbound stream is non-empty).
    #[must_use]
    pub(crate) fn pending_interrupt(&self) -> bool {
        !self.outbound.is_empty()
    }

    /// Number of self-resets the slave has performed.
    #[must_use]
    pub fn reset_count(&self) -> u64 {
        self.resets
    }

    /// Bytes waiting in the outbound stream (queued by the attachment, not
    /// yet read by the master).
    #[must_use]
    pub fn outbound_len(&self) -> usize {
        self.outbound.len()
    }

    /// Queues attachment bytes for the master to collect.
    pub(crate) fn push_outbound(&mut self, bytes: impl IntoIterator<Item = u8>) {
        self.outbound.extend(bytes);
    }

    /// Drains bytes the master has written for the attachment, `None` if
    /// there are none. The FIFO keeps its buffer for the next bytes.
    #[must_use]
    pub(crate) fn take_inbound(&mut self) -> Option<Bytes> {
        if self.inbound.is_empty() {
            return None;
        }
        let bytes = Bytes::copy_from_slice(self.inbound.make_contiguous());
        self.inbound.clear();
        Some(bytes)
    }

    /// The command register's current value (last `WRITE_COMMAND` or
    /// broadcast command received).
    #[must_use]
    pub fn command_reg(&self) -> u8 {
        self.command_reg
    }

    /// The flags register image: bit 0 = pending interrupt, bit 1 = inbound
    /// stream non-empty, bit 2 = outbound stream non-empty.
    #[must_use]
    pub(crate) fn flags(&self) -> u8 {
        u8::from(self.pending_interrupt())
            | (u8::from(!self.inbound.is_empty()) << 1)
            | (u8::from(!self.outbound.is_empty()) << 2)
    }

    /// Performs the self-reset of one line interface: clears its selection
    /// and pointer, and clears the shared command/DMA registers. Stream
    /// FIFOs and memory survive (they belong to the attachment side).
    fn reset(&mut self, port: usize, now: SimTime, watchdog: Watchdog) {
        self.command_reg = 0;
        self.dma_counter = 0;
        self.resets += 1;
        let p = &mut self.ports[port];
        p.selected = None;
        p.pointer = 0;
        let until = now + watchdog.reset_active;
        p.reset_until = Some(until);
        // The watchdog restarts once the reset pulse ends (otherwise an
        // idle slave would reset in a tight loop).
        p.last_valid_tx = until;
    }

    /// Forces an immediate hardware reset of every line interface, as if
    /// the watchdog fired on each: selection, pointers and the alternating-
    /// bit read latches revert to power-on state, and every interface holds
    /// its reset active for the spec's pulse length starting at `now`.
    /// Used by fault injection; counts once per interface in
    /// [`reset_count`](Self::reset_count).
    pub(crate) fn force_reset(&mut self, now: SimTime, watchdog: Watchdog) {
        for port in 0..self.ports.len() {
            self.reset(port, now, watchdog);
            let p = &mut self.ports[port];
            p.stream_toggle = None;
            p.stream_latch = 0;
        }
    }

    /// Checks the reset timeout against `now`, possibly entering or leaving
    /// the reset state. Returns `true` if this interface is currently
    /// holding reset (and therefore ignores the incoming frame).
    fn poll_reset(&mut self, port: usize, now: SimTime, watchdog: Watchdog) -> bool {
        if let Some(until) = self.ports[port].reset_until {
            if now < until {
                return true;
            }
            self.ports[port].reset_until = None;
        }
        let idle = now.saturating_duration_since(self.ports[port].last_valid_tx);
        if idle >= watchdog.reset_timeout {
            // The reset fired at timeout expiry; it may already be over.
            let fired_at = self.ports[port].last_valid_tx + watchdog.reset_timeout;
            self.reset(port, fired_at, watchdog);
            let until = self.ports[port].reset_until.expect("reset just set");
            if now < until {
                return true;
            }
            self.ports[port].reset_until = None;
        }
        false
    }

    /// Processes one valid TX frame observed on the chain at instant `now`.
    ///
    /// Every slave on the chain sees every TX frame (selection state is
    /// updated by `SELECT_NODE` in all of them); only the selected slave
    /// executes data commands and replies. Returns the RX reply this slave
    /// produces, if any — without the INT bit, which the bus computes from
    /// the chain path.
    pub(crate) fn on_tx(
        &mut self,
        frame: &TxFrame,
        port: usize,
        now: SimTime,
        watchdog: Watchdog,
    ) -> Option<RxFrame> {
        assert!(port < self.ports.len(), "no such bus interface: {port}");
        if self.poll_reset(port, now, watchdog) {
            return None;
        }
        self.ports[port].last_valid_tx = now;
        if frame.cmd == Command::SelectNode {
            let target = frame.data & 0x7F;
            let space = if frame.data & 0x80 != 0 {
                AddressSpace::System
            } else {
                AddressSpace::Memory
            };
            let broadcast = target == NodeId::BROADCAST.raw();
            if target == self.node.raw() || broadcast {
                self.ports[port].selected = Some(space);
                if broadcast {
                    return None; // broadcast selections are not acknowledged
                }
                return Some(RxFrame::status_ack(
                    self.node,
                    self.pending_interrupt(),
                    false,
                ));
            }
            self.ports[port].selected = None;
            return None;
        }
        let Some(space) = self.ports[port].selected else {
            return None; // not selected on this line: observe, stay quiet
        };
        let reply = match frame.cmd {
            Command::SelectNode => unreachable!("handled above"),
            Command::Status => RxFrame::status_ack(self.node, self.pending_interrupt(), false),
            Command::WriteData => {
                self.write_data(port, space, frame.data);
                RxFrame::status_ack(self.node, self.pending_interrupt(), false)
            }
            Command::ReadData => {
                let value = self.read_data(port, space, frame.data);
                RxFrame::new(false, RxType::Data, value)
            }
            Command::ReadFlags => RxFrame::new(false, RxType::Flags, self.flags()),
            Command::WriteCommand => {
                self.command_reg = frame.data;
                RxFrame::status_ack(self.node, self.pending_interrupt(), false)
            }
            Command::ReadSpi => RxFrame::new(false, RxType::Spi, self.spi),
            Command::SetPointer => {
                self.ports[port].pointer = frame.data;
                RxFrame::status_ack(self.node, self.pending_interrupt(), false)
            }
        };
        Some(reply)
    }

    /// Observes someone else's DMA burst passing through on `port`: the
    /// arming select addressed another node, so this interface deselects,
    /// and the frames feed its reset watchdog. Mirrors what `on_tx` does
    /// for non-addressed slaves on the per-frame path.
    pub(crate) fn observe_burst(&mut self, port: usize, now: SimTime, watchdog: Watchdog) {
        if self.poll_reset(port, now, watchdog) {
            return;
        }
        self.ports[port].last_valid_tx = now;
        self.ports[port].selected = None;
    }

    /// Applies a DMA burst write of `bytes` into the stream FIFO through
    /// port `port` (the master armed the DMA counter and streamed the block
    /// back-to-back). Returns `false` without applying anything if the
    /// interface is holding reset.
    ///
    /// Side effects mirror the real sequence: the interface ends up
    /// selected in memory space with its pointer at the stream FIFO and the
    /// DMA counter run down to zero.
    pub(crate) fn dma_burst_write(
        &mut self,
        port: usize,
        bytes: &[u8],
        now: SimTime,
        watchdog: Watchdog,
    ) -> bool {
        if self.poll_reset(port, now, watchdog) {
            return false;
        }
        self.ports[port].last_valid_tx = now;
        self.ports[port].selected = Some(AddressSpace::Memory);
        self.ports[port].pointer = STREAM_ADDR;
        self.dma_counter = 0;
        self.inbound.extend(bytes.iter().copied());
        true
    }

    /// Serves a DMA burst read of up to `k` stream bytes through port
    /// `port`. Returns `None` without popping anything if the interface is
    /// holding reset; otherwise exactly `min(k, queued)` bytes.
    pub(crate) fn dma_burst_read(
        &mut self,
        port: usize,
        k: usize,
        now: SimTime,
        watchdog: Watchdog,
    ) -> Option<Vec<u8>> {
        if self.poll_reset(port, now, watchdog) {
            return None;
        }
        self.ports[port].last_valid_tx = now;
        self.ports[port].selected = Some(AddressSpace::Memory);
        self.ports[port].pointer = STREAM_ADDR;
        self.dma_counter = 0;
        let take = k.min(self.outbound.len());
        Some(self.outbound.drain(..take).collect())
    }

    fn write_data(&mut self, port: usize, space: AddressSpace, value: u8) {
        let pointer = self.ports[port].pointer;
        match space {
            AddressSpace::Memory => {
                if pointer == STREAM_ADDR {
                    self.inbound.push_back(value);
                } else {
                    self.memory[usize::from(pointer)] = value;
                    self.ports[port].pointer = pointer.wrapping_add(1);
                }
            }
            AddressSpace::System => {
                match SystemReg::from_offset(pointer) {
                    SystemReg::Command => self.command_reg = value,
                    SystemReg::Flags => {} // flags are read-only
                    SystemReg::DmaCounter => self.dma_counter = value,
                    SystemReg::Spi => self.spi = value,
                }
                self.ports[port].pointer = pointer.wrapping_add(1);
            }
        }
    }

    fn read_data(&mut self, port: usize, space: AddressSpace, request_data: u8) -> u8 {
        let pointer = self.ports[port].pointer;
        match space {
            AddressSpace::Memory => {
                if pointer == STREAM_ADDR {
                    // Alternating-bit read port: DATA[0] of the request is
                    // the toggle. A repeated toggle is a retry and returns
                    // the latched byte; see the module docs.
                    let toggle = request_data & 1 == 1;
                    if self.ports[port].stream_toggle == Some(toggle) {
                        return self.ports[port].stream_latch;
                    }
                    let byte = self.outbound.pop_front().unwrap_or(0);
                    self.ports[port].stream_toggle = Some(toggle);
                    self.ports[port].stream_latch = byte;
                    byte
                } else {
                    let value = self.memory[usize::from(pointer)];
                    self.ports[port].pointer = pointer.wrapping_add(1);
                    value
                }
            }
            AddressSpace::System => {
                let value = match SystemReg::from_offset(pointer) {
                    SystemReg::Command => self.command_reg,
                    SystemReg::Flags => self.flags(),
                    SystemReg::DmaCounter => self.dma_counter,
                    SystemReg::Spi => self.spi,
                };
                self.ports[port].pointer = pointer.wrapping_add(1);
                value
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsbus_des::SimDuration;

    fn slave(id: u8) -> SlaveDevice {
        SlaveDevice::new(NodeId::new(id).expect("valid test id"))
    }

    fn watchdog() -> Watchdog {
        Watchdog::new(&BusParams::theseus_default())
    }

    fn select(dev: &mut SlaveDevice, id: u8, system: bool, now: SimTime) -> Option<RxFrame> {
        let node = NodeId::new(id).expect("valid");
        dev.on_tx(&TxFrame::select(node, system), 0, now, watchdog())
    }

    #[test]
    fn selection_targets_one_node() {
        let mut a = slave(1);
        let mut b = slave(2);
        let t = SimTime::from_nanos(100);
        let frame = TxFrame::select(NodeId::new(1).expect("valid"), false);
        let reply_a = a.on_tx(&frame, 0, t, watchdog());
        let reply_b = b.on_tx(&frame, 0, t, watchdog());
        assert!(reply_a.is_some(), "selected slave acknowledges");
        assert!(reply_b.is_none(), "other slaves stay quiet");
        // The ack carries the node id.
        assert_eq!(reply_a.expect("ack").data >> 1, 1);
    }

    #[test]
    fn broadcast_selects_everyone_silently() {
        let mut a = slave(1);
        let mut b = slave(2);
        let t = SimTime::from_nanos(100);
        let frame = TxFrame::select(NodeId::BROADCAST, false);
        assert!(a.on_tx(&frame, 0, t, watchdog()).is_none());
        assert!(b.on_tx(&frame, 0, t, watchdog()).is_none());
        // Both now execute data commands (but in a real broadcast write the
        // master gets no ack; here we drive them individually).
        let w = TxFrame::new(Command::WriteData, 0xAB);
        let _ = a.on_tx(&w, 0, t, watchdog());
        let _ = b.on_tx(&w, 0, t, watchdog());
        assert_eq!(a.memory[0], 0xAB);
        assert_eq!(b.memory[0], 0xAB);
    }

    #[test]
    fn unselected_slaves_ignore_data_commands() {
        let mut dev = slave(3);
        let t = SimTime::from_nanos(10);
        let reply = dev.on_tx(&TxFrame::new(Command::WriteData, 0xFF), 0, t, watchdog());
        assert!(reply.is_none());
        assert_eq!(dev.memory[0], 0);
    }

    #[test]
    fn memory_write_read_roundtrip_with_autoincrement() {
        let mut dev = slave(1);
        let t = SimTime::from_nanos(10);
        select(&mut dev, 1, false, t);
        dev.on_tx(&TxFrame::new(Command::SetPointer, 0x10), 0, t, watchdog());
        for (i, byte) in [0xDE, 0xAD, 0xBE, 0xEF].iter().enumerate() {
            dev.on_tx(&TxFrame::new(Command::WriteData, *byte), 0, t, watchdog());
            assert_eq!(dev.memory[0x10 + i], *byte);
        }
        dev.on_tx(&TxFrame::new(Command::SetPointer, 0x10), 0, t, watchdog());
        let reads: Vec<u8> = (0..4)
            .map(|_| {
                dev.on_tx(&TxFrame::new(Command::ReadData, 0), 0, t, watchdog())
                    .expect("selected read replies")
                    .data
            })
            .collect();
        assert_eq!(reads, vec![0xDE, 0xAD, 0xBE, 0xEF]);
    }

    #[test]
    fn stream_fifo_pops_without_autoincrement() {
        let mut dev = slave(1);
        let t = SimTime::from_nanos(10);
        dev.push_outbound([10, 20, 30]);
        assert!(dev.pending_interrupt(), "outbound bytes raise INT");
        select(&mut dev, 1, false, t);
        dev.on_tx(
            &TxFrame::new(Command::SetPointer, STREAM_ADDR),
            0,
            t,
            watchdog(),
        );
        let mut reads = Vec::new();
        for i in 0..3u8 {
            // Stream reads must alternate the DATA[0] toggle to pop fresh
            // bytes (alternating-bit read port).
            let r = dev
                .on_tx(&TxFrame::new(Command::ReadData, i & 1), 0, t, watchdog())
                .expect("read replies");
            assert_eq!(r.rtype, RxType::Data);
            reads.push(r.data);
        }
        assert_eq!(reads, vec![10, 20, 30]);
        assert!(!dev.pending_interrupt(), "drained queue clears INT");
        // A repeated toggle is a retry: it returns the latched byte again.
        let r = dev
            .on_tx(&TxFrame::new(Command::ReadData, 0), 0, t, watchdog())
            .expect("read replies");
        assert_eq!(r.data, 30, "same toggle replays the latched byte");
        // A fresh toggle on an empty FIFO underflows to 0.
        let r = dev
            .on_tx(&TxFrame::new(Command::ReadData, 1), 0, t, watchdog())
            .expect("read replies");
        assert_eq!(r.data, 0);
    }

    #[test]
    fn stream_fifo_accepts_inbound_writes() {
        let mut dev = slave(1);
        let t = SimTime::from_nanos(10);
        select(&mut dev, 1, false, t);
        dev.on_tx(
            &TxFrame::new(Command::SetPointer, STREAM_ADDR),
            0,
            t,
            watchdog(),
        );
        for byte in [1, 2, 3] {
            dev.on_tx(&TxFrame::new(Command::WriteData, byte), 0, t, watchdog());
        }
        assert_eq!(dev.inbound.len(), 3);
        assert_eq!(dev.take_inbound().as_deref(), Some(&[1, 2, 3][..]));
        assert_eq!(dev.inbound.len(), 0);
        assert_eq!(dev.take_inbound(), None);
    }

    #[test]
    fn system_space_reaches_registers() {
        let mut dev = slave(1);
        let t = SimTime::from_nanos(10);
        select(&mut dev, 1, true, t);
        dev.on_tx(
            &TxFrame::new(Command::SetPointer, SystemReg::DmaCounter as u8),
            0,
            t,
            watchdog(),
        );
        dev.on_tx(&TxFrame::new(Command::WriteData, 42), 0, t, watchdog());
        dev.on_tx(
            &TxFrame::new(Command::SetPointer, SystemReg::DmaCounter as u8),
            0,
            t,
            watchdog(),
        );
        let r = dev
            .on_tx(&TxFrame::new(Command::ReadData, 0), 0, t, watchdog())
            .expect("read replies");
        assert_eq!(r.data, 42);
    }

    #[test]
    fn read_flags_reports_stream_state() {
        let mut dev = slave(1);
        let t = SimTime::from_nanos(10);
        select(&mut dev, 1, false, t);
        let r = dev
            .on_tx(&TxFrame::new(Command::ReadFlags, 0), 0, t, watchdog())
            .expect("flags reply");
        assert_eq!(r.rtype, RxType::Flags);
        assert_eq!(r.data, 0);
        dev.push_outbound([9]);
        let r = dev
            .on_tx(&TxFrame::new(Command::ReadFlags, 0), 0, t, watchdog())
            .expect("flags reply");
        assert_eq!(r.data & 0b101, 0b101, "INT + outbound bits set");
    }

    #[test]
    fn idle_slave_resets_after_2048_bit_periods() {
        let mut dev = slave(1);
        let p = BusParams::theseus_default();
        let wd = Watchdog::new(&p);
        let t0 = SimTime::from_nanos(100);
        select(&mut dev, 1, false, t0);
        dev.on_tx(&TxFrame::new(Command::SetPointer, 0x20), 0, t0, wd);
        // Arrive shortly after the reset fires: the slave is mid-reset and
        // ignores the frame.
        let during_reset = t0 + p.reset_timeout() + p.bits_to_time(5);
        let reply = dev.on_tx(&TxFrame::new(Command::Status, 0), 0, during_reset, wd);
        assert!(reply.is_none(), "slave in reset ignores frames");
        assert_eq!(dev.reset_count(), 1);
        // After the 33-bit reset pulse, the slave is alive but deselected.
        let after = during_reset + p.reset_active();
        let reply = dev.on_tx(&TxFrame::new(Command::Status, 0), 0, after, wd);
        assert!(reply.is_none(), "reset cleared the selection");
        let reply = select(&mut dev, 1, false, after + p.bits_to_time(1));
        assert!(reply.is_some(), "reselect succeeds after reset");
        assert_eq!(dev.reset_count(), 1, "no second reset while traffic flows");
    }

    #[test]
    fn steady_traffic_prevents_reset() {
        let mut dev = slave(1);
        let p = BusParams::theseus_default();
        let wd = Watchdog::new(&p);
        let mut t = SimTime::from_nanos(100);
        select(&mut dev, 1, false, t);
        for _ in 0..10 {
            t = t + p.reset_timeout() - SimDuration::from_nanos(1);
            let reply = dev.on_tx(&TxFrame::new(Command::Status, 0), 0, t, wd);
            assert!(reply.is_some(), "slave alive at {t}");
        }
        assert_eq!(dev.reset_count(), 0);
    }

    #[test]
    #[should_panic(expected = "broadcast node id cannot be instantiated")]
    fn broadcast_device_rejected() {
        let _ = SlaveDevice::new(NodeId::BROADCAST);
    }
}
