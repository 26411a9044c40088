//! Bit-exact TX and RX frame encoding (paper Tables 1 and 2).
//!
//! Both frames are 16 bits, transmitted start bit first:
//!
//! ```text
//! TX:  0 | CMD[2:0]       | DATA[7:0] | CRC[3:0]
//! RX:  0 | INT | TYPE[1:0] | DATA[7:0] | CRC[3:0]
//! ```
//!
//! The in-memory representation packs the start bit into bit 15 and the CRC
//! into bits 3–0, so `wire & 0x8000 == 0` for every valid frame. CRC-4
//! (x⁴ + x + 1) covers `CMD`+`DATA` for TX and `TYPE`+`DATA` for RX.

use core::fmt;

use crate::crc;
use crate::node::NodeId;

/// Number of bit periods one frame occupies on a single line.
pub const FRAME_BITS: u32 = 16;

/// The 3-bit TX command set (our concretization; see `DESIGN.md` §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// Poll the selected node's status (RX carries node id + INT flag).
    Status = 0,
    /// Write `DATA` to the selected node at its current pointer
    /// (auto-increment).
    WriteData = 1,
    /// Read a byte from the selected node at its current pointer
    /// (auto-increment); RX `DATA` carries the byte.
    ReadData = 2,
    /// Select the node in `DATA[6:0]`; `DATA[7]` picks the address space
    /// (0 = memory, 1 = system registers).
    SelectNode = 3,
    /// Read the selected node's flags register.
    ReadFlags = 4,
    /// Write `DATA` to the selected node's command register.
    WriteCommand = 5,
    /// Read the selected node's SPI data register.
    ReadSpi = 6,
    /// Set the selected node's pointer register to `DATA`.
    SetPointer = 7,
}

impl Command {
    /// All commands in opcode order.
    pub(crate) const ALL: [Command; 8] = [
        Command::Status,
        Command::WriteData,
        Command::ReadData,
        Command::SelectNode,
        Command::ReadFlags,
        Command::WriteCommand,
        Command::ReadSpi,
        Command::SetPointer,
    ];

    /// The 3-bit opcode.
    #[must_use]
    pub(crate) fn opcode(self) -> u8 {
        self as u8
    }

    /// Decodes a 3-bit opcode.
    ///
    /// # Panics
    ///
    /// Panics if `opcode > 7` (callers mask to 3 bits first).
    #[must_use]
    pub(crate) fn from_opcode(opcode: u8) -> Command {
        assert!(opcode < 8, "command opcodes are 3 bits");
        Self::ALL[usize::from(opcode)]
    }
}

impl fmt::Display for Command {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Command::Status => "STATUS",
            Command::WriteData => "WRITE_DATA",
            Command::ReadData => "READ_DATA",
            Command::SelectNode => "SELECT_NODE",
            Command::ReadFlags => "READ_FLAGS",
            Command::WriteCommand => "WRITE_COMMAND",
            Command::ReadSpi => "READ_SPI",
            Command::SetPointer => "SET_POINTER",
        };
        write!(f, "{name}")
    }
}

/// The 2-bit RX response type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum RxType {
    /// Generic acknowledge: `DATA[7:1]` = node id, `DATA[0]` = pending
    /// interrupt.
    Status = 0,
    /// Response to `READ_DATA`: `DATA` is the byte read.
    Data = 1,
    /// Response to `READ_FLAGS`: `DATA` is the flags register.
    Flags = 2,
    /// Response to `READ_SPI`: `DATA` is the SPI register.
    Spi = 3,
}

/// A decoded TX frame (master → slaves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxFrame {
    /// The command opcode.
    pub(crate) cmd: Command,
    /// The 8-bit data field (ignored by slaves for read commands).
    pub data: u8,
}

/// A decoded RX frame (slave → master).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct RxFrame {
    /// Set when any slave the frame passed through (including the sender)
    /// has a pending interrupt.
    pub(crate) int: bool,
    /// The response type.
    pub(crate) rtype: RxType,
    /// The 8-bit data field.
    pub(crate) data: u8,
}

/// Why a 16-bit word failed to decode as a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeFrameError {
    /// The start bit was 1 (must be 0).
    StartBit,
    /// The CRC did not match the payload.
    Crc {
        /// The checksum carried by the frame.
        received: u8,
        /// The checksum recomputed over the payload.
        computed: u8,
    },
}

impl fmt::Display for DecodeFrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeFrameError::StartBit => write!(f, "invalid start bit"),
            DecodeFrameError::Crc { received, computed } => write!(
                f,
                "crc mismatch: frame carries {received:#x}, computed {computed:#x}"
            ),
        }
    }
}

impl std::error::Error for DecodeFrameError {}

impl TxFrame {
    /// Builds a frame for `cmd` carrying `data`.
    #[must_use]
    pub fn new(cmd: Command, data: u8) -> Self {
        TxFrame { cmd, data }
    }

    /// The `SELECT_NODE` frame for `node`, with `system_space` choosing the
    /// second node address (system registers).
    #[must_use]
    pub(crate) fn select(node: NodeId, system_space: bool) -> Self {
        let data = node.raw() | if system_space { 0x80 } else { 0 };
        TxFrame::new(Command::SelectNode, data)
    }

    /// Encodes to the 16-bit wire word (start bit in bit 15).
    ///
    /// # Examples
    ///
    /// ```
    /// use tsbus_tpwire::{Command, TxFrame};
    ///
    /// let frame = TxFrame::new(Command::WriteData, 0xA5);
    /// let wire = frame.encode();
    /// assert_eq!(wire & 0x8000, 0); // start bit is 0
    /// assert_eq!(TxFrame::decode(wire)?, frame);
    /// # Ok::<(), tsbus_tpwire::DecodeFrameError>(())
    /// ```
    #[must_use]
    pub fn encode(&self) -> u16 {
        let cmd = u16::from(self.cmd.opcode());
        let data = u16::from(self.data);
        let crc = u16::from(crc::tx_crc(self.cmd.opcode(), self.data));
        (cmd << 12) | (data << 4) | crc
    }

    /// Decodes a 16-bit wire word.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeFrameError`] if the start bit is set or the CRC does
    /// not match.
    pub fn decode(wire: u16) -> Result<Self, DecodeFrameError> {
        if wire & 0x8000 != 0 {
            return Err(DecodeFrameError::StartBit);
        }
        let cmd = ((wire >> 12) & 0x7) as u8;
        let data = ((wire >> 4) & 0xFF) as u8;
        let received = (wire & 0xF) as u8;
        let computed = crc::tx_crc(cmd, data);
        if received != computed {
            return Err(DecodeFrameError::Crc { received, computed });
        }
        Ok(TxFrame {
            cmd: Command::from_opcode(cmd),
            data,
        })
    }
}

impl RxFrame {
    /// Builds a response frame.
    #[must_use]
    pub(crate) fn new(int: bool, rtype: RxType, data: u8) -> Self {
        RxFrame { int, rtype, data }
    }

    /// The standard status acknowledge: node id in `DATA[7:1]`, pending
    /// interrupt in `DATA[0]`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is the broadcast node (broadcast never replies).
    #[must_use]
    pub(crate) fn status_ack(node: NodeId, pending_interrupt: bool, int: bool) -> Self {
        assert!(
            !node.is_broadcast(),
            "the broadcast node never sends RX frames"
        );
        let data = (node.raw() << 1) | u8::from(pending_interrupt);
        RxFrame::new(int, RxType::Status, data)
    }

    /// For [`RxType::Status`] frames: the responder's pending-interrupt bit.
    #[must_use]
    pub(crate) fn status_pending_interrupt(&self) -> bool {
        self.rtype == RxType::Status && self.data & 1 == 1
    }
}

impl fmt::Display for TxFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TX[{} data={:#04x}]", self.cmd, self.data)
    }
}

impl fmt::Display for RxFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RX[{:?} data={:#04x}{}]",
            self.rtype,
            self.data,
            if self.int { " INT" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn tx_layout_matches_table_1() {
        let frame = TxFrame::new(Command::SetPointer, 0xFF);
        let wire = frame.encode();
        assert_eq!(wire >> 15, 0, "start bit");
        assert_eq!((wire >> 12) & 0x7, 0b111, "CMD field");
        assert_eq!((wire >> 4) & 0xFF, 0xFF, "DATA field");
        assert_eq!(wire & 0xF, u16::from(crc::tx_crc(0b111, 0xFF)), "CRC field");
    }

    #[test]
    fn select_frame_packs_space_bit() {
        let node = NodeId::new(0x2A).expect("valid");
        assert_eq!(TxFrame::select(node, false).data, 0x2A);
        assert_eq!(TxFrame::select(node, true).data, 0xAA);
    }

    #[test]
    fn status_ack_roundtrips_node_and_interrupt() {
        let node = NodeId::new(42).expect("valid");
        let ack = RxFrame::status_ack(node, true, false);
        assert!(ack.status_pending_interrupt());
        let ack2 = RxFrame::status_ack(node, false, true);
        assert!(!ack2.status_pending_interrupt());
        assert!(ack2.int);
    }

    #[test]
    #[should_panic(expected = "broadcast node never sends")]
    fn broadcast_cannot_ack() {
        let _ = RxFrame::status_ack(NodeId::BROADCAST, false, false);
    }

    #[test]
    fn decode_rejects_start_bit() {
        assert_eq!(TxFrame::decode(0x8000), Err(DecodeFrameError::StartBit));
    }

    #[test]
    fn decode_rejects_bad_crc() {
        let wire = TxFrame::new(Command::Status, 0).encode() ^ 0x0010; // flip a DATA bit
        assert!(matches!(
            TxFrame::decode(wire),
            Err(DecodeFrameError::Crc { .. })
        ));
    }

    #[test]
    fn data_frames_do_not_expose_status_accessors() {
        let frame = RxFrame::new(false, RxType::Data, 0xFF);
        assert!(!frame.status_pending_interrupt());
    }

    proptest! {
        #[test]
        fn tx_roundtrip(cmd in 0u8..8, data in any::<u8>()) {
            let frame = TxFrame::new(Command::from_opcode(cmd), data);
            prop_assert_eq!(TxFrame::decode(frame.encode()), Ok(frame));
        }

        /// Flipping any CRC-covered bit of a TX frame breaks decoding.
        #[test]
        fn tx_single_bit_errors_detected(
            cmd in 0u8..8,
            data in any::<u8>(),
            bit in 4u8..15, // CMD[14:12] and DATA[11:4]
        ) {
            let wire = TxFrame::new(Command::from_opcode(cmd), data).encode();
            let corrupted = wire ^ (1 << bit);
            prop_assert!(TxFrame::decode(corrupted).is_err());
        }

        /// Flipping any CRC bit of a TX frame breaks decoding too.
        #[test]
        fn tx_crc_field_errors_detected(cmd in 0u8..8, data in any::<u8>(), bit in 0u8..4) {
            let wire = TxFrame::new(Command::from_opcode(cmd), data).encode();
            prop_assert!(TxFrame::decode(wire ^ (1 << bit)).is_err());
        }

        /// The decoders are total: any 16-bit word either decodes or
        /// returns a structured error — never a panic, and decode∘encode
        /// is the identity on the accepted set.
        #[test]
        fn decoders_are_total(wire in any::<u16>()) {
            if let Ok(frame) = TxFrame::decode(wire) {
                prop_assert_eq!(frame.encode(), wire);
            }
        }
    }
}
