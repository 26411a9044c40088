//! CRC-4 with generator polynomial x⁴ + x + 1, as specified for TpWIRE
//! frames.
//!
//! The checksum covers the 11 payload bits of a frame — `CMD[2:0]` +
//! `DATA[7:0]` for TX frames, `TYPE[1:0]` + `DATA[7:0]` (plus the INT bit by
//! our convention, making it also 11 bits… no: TYPE is 2 bits, so RX covers
//! 10 bits) — see [`crc4_bits`] which takes an explicit bit count so both
//! frame layouts share one implementation.

/// The generator polynomial x⁴ + x + 1, written without the leading x⁴ term
/// (0b0011) as used by the shift-register formulation below.
pub(crate) const POLY: u8 = 0b0011;

/// Computes the CRC-4 remainder of the `nbits` least-significant bits of
/// `data`, processed most-significant bit first.
///
/// This is the plain long-division formulation: shift the message through a
/// 4-bit register, XOR-ing in the polynomial whenever a 1 falls off the top.
///
/// # Panics
///
/// Panics if `nbits` is zero or greater than 16.
///
/// # Examples
///
/// ```
/// use tsbus_tpwire::crc::crc4_bits;
///
/// // CRC of an all-zero message is zero.
/// assert_eq!(crc4_bits(0, 11), 0);
/// // Any single-bit message has a nonzero CRC (the code detects all
/// // single-bit errors).
/// assert_ne!(crc4_bits(1 << 5, 11), 0);
/// ```
#[must_use]
pub fn crc4_bits(data: u16, nbits: u8) -> u8 {
    assert!(
        (1..=16).contains(&nbits),
        "crc4_bits handles 1..=16 bits, got {nbits}"
    );
    let mut reg: u8 = 0;
    for i in (0..nbits).rev() {
        let incoming = ((data >> i) & 1) as u8;
        let top = (reg >> 3) & 1;
        reg = (reg << 1) & 0x0F;
        if top ^ incoming == 1 {
            reg ^= POLY;
        }
    }
    reg
}

/// Computes the TX-frame CRC: over `CMD[2:0]` then `DATA[7:0]`, MSB first.
///
/// # Examples
///
/// ```
/// use tsbus_tpwire::crc::tx_crc;
///
/// let crc = tx_crc(0b101, 0xA5);
/// assert!(crc < 16);
/// ```
#[must_use]
pub fn tx_crc(cmd: u8, data: u8) -> u8 {
    debug_assert!(cmd < 8, "CMD is a 3-bit field");
    let message = (u16::from(cmd) << 8) | u16::from(data);
    crc4_bits(message, 11)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Long-division reference: append 4 zero bits and reduce modulo
    /// x⁴ + x + 1 (0b10011) over GF(2).
    fn crc4_reference(data: u16, nbits: u8) -> u8 {
        let mut dividend = u32::from(data) << 4;
        let generator = 0b10011u32;
        for i in (4..(u32::from(nbits) + 4)).rev() {
            if (dividend >> i) & 1 == 1 {
                dividend ^= generator << (i - 4);
            }
        }
        (dividend & 0x0F) as u8
    }

    #[test]
    fn matches_reference_for_all_11_bit_messages() {
        for message in 0u16..(1 << 11) {
            assert_eq!(
                crc4_bits(message, 11),
                crc4_reference(message, 11),
                "message {message:#013b}"
            );
        }
    }

    #[test]
    fn zero_message_has_zero_crc() {
        assert_eq!(crc4_bits(0, 11), 0);
        assert_eq!(crc4_bits(0, 10), 0);
    }

    #[test]
    fn tx_and_rx_crc_cover_their_fields() {
        // Flipping any covered bit must change the checksum relative to the
        // baseline (CRCs detect all single-bit errors).
        let base = tx_crc(0b010, 0x3C);
        for bit in 0..11 {
            let flipped = ((u16::from(0b010u8) << 8) | 0x3C) ^ (1 << bit);
            let cmd = ((flipped >> 8) & 0x7) as u8;
            let data = (flipped & 0xFF) as u8;
            assert_ne!(tx_crc(cmd, data), base, "bit {bit} flip undetected");
        }
        let rx_crc = |rtype: u8, data: u8| crc4_bits((u16::from(rtype) << 8) | u16::from(data), 10);
        let base = rx_crc(0b01, 0x3C);
        for bit in 0..10 {
            let flipped = ((u16::from(0b01u8) << 8) | 0x3C) ^ (1 << bit);
            let rtype = ((flipped >> 8) & 0x3) as u8;
            let data = (flipped & 0xFF) as u8;
            assert_ne!(rx_crc(rtype, data), base, "bit {bit} flip undetected");
        }
    }

    #[test]
    #[should_panic(expected = "1..=16 bits")]
    fn rejects_zero_bits() {
        let _ = crc4_bits(0, 0);
    }

    proptest! {
        /// x⁴+x+1 divides x¹⁵+1, so CRC-4 detects every single-bit error in
        /// messages up to 11 data bits (codeword length 15).
        #[test]
        fn detects_all_single_bit_errors(message in 0u16..(1 << 11), bit in 0u8..11) {
            let crc = crc4_bits(message, 11);
            let corrupted = message ^ (1 << bit);
            prop_assert!(crc4_bits(corrupted, 11) != crc);
        }

        /// Any burst error of length ≤ 4 is detected (degree-4 generator).
        #[test]
        fn detects_short_bursts(
            message in 0u16..(1 << 11),
            start in 0u8..8,
            pattern in 1u16..16,
        ) {
            let burst = pattern << start;
            prop_assume!(burst < (1 << 11));
            let crc = crc4_bits(message, 11);
            prop_assert!(crc4_bits(message ^ burst, 11) != crc);
        }
    }
}
