//! Node addressing: 7-bit node ids (0–126), the broadcast node (127), the
//! two per-node address spaces, and the system register set.

use core::fmt;

/// The raw id of the virtual broadcast node.
pub(crate) const BROADCAST_RAW: u8 = 127;

/// A validated TpWIRE node id.
///
/// Normal slaves are numbered 0–126; id 127 is the virtual *broadcast* node
/// that addresses all slaves simultaneously (broadcast commands elicit no RX
/// reply).
///
/// # Examples
///
/// ```
/// use tsbus_tpwire::NodeId;
///
/// let n = NodeId::new(5)?;
/// assert_eq!(n.raw(), 5);
/// assert!(!n.is_broadcast());
/// assert!(NodeId::BROADCAST.is_broadcast());
/// assert!(NodeId::new(200).is_err());
/// # Ok::<(), tsbus_tpwire::InvalidNodeId>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u8);

/// Error: a raw node id outside 0–127.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidNodeId(pub u8);

impl fmt::Display for InvalidNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node id {} out of range 0..=127", self.0)
    }
}

impl std::error::Error for InvalidNodeId {}

impl NodeId {
    /// The virtual broadcast node (id 127).
    pub const BROADCAST: NodeId = NodeId(BROADCAST_RAW);

    /// Validates a raw id.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidNodeId`] if `raw > 127`.
    pub fn new(raw: u8) -> Result<Self, InvalidNodeId> {
        if raw <= BROADCAST_RAW {
            Ok(NodeId(raw))
        } else {
            Err(InvalidNodeId(raw))
        }
    }

    /// The raw 7-bit id.
    #[must_use]
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// Whether this is the virtual broadcast node.
    #[must_use]
    pub const fn is_broadcast(self) -> bool {
        self.0 == BROADCAST_RAW
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_broadcast() {
            write!(f, "node[*]")
        } else {
            write!(f, "node[{}]", self.0)
        }
    }
}

impl TryFrom<u8> for NodeId {
    type Error = InvalidNodeId;

    fn try_from(raw: u8) -> Result<Self, Self::Error> {
        NodeId::new(raw)
    }
}

/// A map keyed by raw node id with one slot per 7-bit id, so a lookup is an
/// array index rather than a hash.
#[derive(Debug, Clone)]
pub(crate) struct NodeTable<T>([Option<T>; BROADCAST_RAW as usize + 1]);

impl<T: Copy> NodeTable<T> {
    pub(crate) fn new() -> Self {
        NodeTable([None; BROADCAST_RAW as usize + 1])
    }

    /// The value stored for `raw`; `None` for an unset id and for a raw
    /// value outside the 7-bit id range.
    pub(crate) fn get(&self, raw: u8) -> Option<T> {
        self.0.get(usize::from(raw)).copied().flatten()
    }

    /// Stores `value` for `node`, returning the value it replaces.
    pub(crate) fn insert(&mut self, node: NodeId, value: T) -> Option<T> {
        self.0[usize::from(node.raw())].replace(value)
    }
}

/// The two address spaces each node exposes.
///
/// The first node address reaches memory and memory-mapped I/O; the second
/// reaches the system register set (command, flags, DMA counter, SPI). In
/// our concretization the space is selected by `DATA[7]` of the `SelectNode`
/// command (see `DESIGN.md` §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) enum AddressSpace {
    /// Memory and memory-mapped I/O registers.
    #[default]
    Memory,
    /// System registers: command, flags, DMA counter, SPI.
    System,
}

impl fmt::Display for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressSpace::Memory => write!(f, "mem"),
            AddressSpace::System => write!(f, "sys"),
        }
    }
}

/// The system register set named by the specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SystemReg {
    /// Command register (written to trigger node-level actions).
    Command,
    /// Flags register (status bits; bit 0 mirrors the pending-interrupt
    /// flag in this model).
    Flags,
    /// DMA transfer counter (remaining bytes of a block transfer).
    DmaCounter,
    /// SPI data register (pass-through to the node's SPI peripheral).
    Spi,
}

impl SystemReg {
    /// All system registers in pointer order (the system address space is
    /// laid out `[Command, Flags, DmaCounter, Spi]` at offsets 0–3).
    pub(crate) const ALL: [SystemReg; 4] = [
        SystemReg::Command,
        SystemReg::Flags,
        SystemReg::DmaCounter,
        SystemReg::Spi,
    ];

    /// The register at pointer offset `offset & 0x3`.
    #[must_use]
    pub(crate) fn from_offset(offset: u8) -> SystemReg {
        Self::ALL[usize::from(offset & 0x3)]
    }
}

impl fmt::Display for SystemReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SystemReg::Command => "command",
            SystemReg::Flags => "flags",
            SystemReg::DmaCounter => "dma_counter",
            SystemReg::Spi => "spi",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_validate_range() {
        assert!(NodeId::new(0).is_ok());
        assert!(NodeId::new(126).is_ok());
        assert_eq!(NodeId::new(127), Ok(NodeId::BROADCAST));
        assert_eq!(NodeId::new(128), Err(InvalidNodeId(128)));
        assert_eq!(NodeId::new(255), Err(InvalidNodeId(255)));
    }

    #[test]
    fn broadcast_is_special() {
        assert!(NodeId::BROADCAST.is_broadcast());
        assert!(!NodeId::new(126).expect("valid").is_broadcast());
        assert_eq!(NodeId::BROADCAST.to_string(), "node[*]");
        assert_eq!(NodeId::new(9).expect("valid").to_string(), "node[9]");
    }

    #[test]
    fn try_from_matches_new() {
        assert_eq!(NodeId::try_from(5), NodeId::new(5));
        assert!(NodeId::try_from(200).is_err());
        let err = NodeId::try_from(200).expect_err("out of range");
        assert!(err.to_string().contains("200"));
    }

    #[test]
    fn system_registers_roundtrip_offsets() {
        for reg in SystemReg::ALL {
            assert_eq!(SystemReg::from_offset(reg as u8), reg);
        }
        // Offsets wrap modulo 4.
        assert_eq!(SystemReg::from_offset(4), SystemReg::Command);
        assert_eq!(SystemReg::from_offset(7), SystemReg::Spi);
    }
}
