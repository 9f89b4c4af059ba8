//! CRC-8 link-layer protection for ring flits.
//!
//! Each sequence-numbered chunk the reliable all-reduce moves carries an
//! 8-bit CRC (polynomial `x⁸ + x² + x + 1`, i.e. `0x07` — the CRC-8/SMBUS
//! generator) over its payload bytes. The receiver recomputes the CRC on
//! delivery; a mismatch turns silent corruption into a detected loss that
//! the existing ack/retransmit machinery repairs, exactly like a dropped
//! flit but without waiting out the timeout (the receiver nacks at once).
//!
//! Coverage of an 8-bit CRC: **all** single-bit errors, all double-bit
//! errors within the protected span (the generator has a primitive factor),
//! all odd-weight errors (factor `x + 1`), and every burst of ≤ 8 bits —
//! random multi-bit damage escapes with probability 2⁻⁸. The fault
//! injector flips exactly one payload bit per corruption event, so within
//! this model detection is certain; the escape probability is charged to
//! the analytical protection-tax model in `rapid-arch` instead. The link
//! simulation therefore never computes the CRC; this module's tests check
//! the coverage claims above on the bytes a chunk carries.

/// The CRC-8 generator polynomial (x⁸ + x² + x + 1), MSB-first.
pub const CRC8_POLY: u8 = 0x07;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// Computes the CRC-8 (poly `0x07`, init `0x00`, no reflection, no
    /// final XOR — CRC-8/SMBUS) of a byte stream.
    fn crc8(bytes: &[u8]) -> u8 {
        let mut crc = 0u8;
        for &b in bytes {
            crc ^= b;
            for _ in 0..8 {
                crc = if crc & 0x80 != 0 { (crc << 1) ^ CRC8_POLY } else { crc << 1 };
            }
        }
        crc
    }

    /// CRC-8 of an `f32` payload, as the link layer sees it: little-endian
    /// byte order, element order preserved.
    fn crc8_f32(payload: &[f32]) -> u8 {
        let bytes: Vec<u8> = payload.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        crc8(&bytes)
    }

    #[test]
    fn matches_the_smbus_check_value() {
        // The standard CRC-8/SMBUS check: crc("123456789") == 0xF4.
        assert_eq!(crc8(b"123456789"), 0xF4);
        assert_eq!(crc8(&[]), 0x00);
    }

    #[test]
    fn detects_every_single_bit_flip_in_a_chunk() {
        let payload: Vec<f32> = (0..64).map(|i| (i as f32) * 0.37 - 11.0).collect();
        let good = crc8_f32(&payload);
        for elem in 0..payload.len() {
            for bit in 0..32 {
                let mut damaged = payload.clone();
                damaged[elem] = f32::from_bits(damaged[elem].to_bits() ^ (1 << bit));
                assert_ne!(
                    crc8_f32(&damaged),
                    good,
                    "single-bit flip at elem {elem} bit {bit} escaped"
                );
            }
        }
    }

    #[test]
    fn detects_double_bit_and_odd_weight_errors() {
        let payload: Vec<f32> = (0..16).map(|i| (i as f32).sin()).collect();
        let good = crc8_f32(&payload);
        // A sample of double-bit patterns across element boundaries.
        for (e1, b1, e2, b2) in [(0, 0, 15, 31), (3, 7, 3, 8), (5, 12, 9, 12), (0, 31, 1, 0)] {
            let mut damaged = payload.clone();
            damaged[e1] = f32::from_bits(damaged[e1].to_bits() ^ (1 << b1));
            damaged[e2] = f32::from_bits(damaged[e2].to_bits() ^ (1 << b2));
            assert_ne!(crc8_f32(&damaged), good, "double flip ({e1},{b1})+({e2},{b2}) escaped");
        }
        // Odd-weight: three flips in one element.
        let mut damaged = payload.clone();
        damaged[7] = f32::from_bits(damaged[7].to_bits() ^ 0b111);
        assert_ne!(crc8_f32(&damaged), good);
    }

    #[test]
    fn clean_payload_verifies() {
        let payload: Vec<f32> = (0..1024).map(|i| (i as f32) * 1e-3).collect();
        assert_eq!(crc8_f32(&payload), crc8_f32(&payload.clone()));
    }
}
