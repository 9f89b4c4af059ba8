//! SECDED(39,32) error-correcting code for scratchpad words.
//!
//! Classic extended Hamming: 32 data bits are spread over codeword
//! positions `1..=38`, six check bits sit at the power-of-two positions
//! (`1, 2, 4, 8, 16, 32`), and position `0` holds an overall parity bit.
//! The decoder computes the 6-bit syndrome `s` (the XOR of the position
//! indices of all set bits) and the overall parity `P`:
//!
//! | `s`    | `P`  | meaning                       | action            |
//! |--------|------|-------------------------------|-------------------|
//! | 0      | even | clean                         | deliver           |
//! | any    | odd  | single-bit error at pos `s`   | flip + deliver    |
//! | ≠ 0    | even | double-bit error              | escalate (DED)    |
//!
//! Single Error Correct, Double Error Detect — every 1-bit upset is
//! repaired transparently on read, every 2-bit upset is *detected* and
//! escalated instead of silently delivered. Storage overhead is 7 bits
//! per 32-bit word
//! ([`SECDED_STORAGE_OVERHEAD`](rapid_arch::protection::SECDED_STORAGE_OVERHEAD)
//! ≈ 21.9 %), the figure the `rapid-arch` protection-tax model charges.

pub use rapid_arch::protection::SECDED_CODEWORD_BITS as CODEWORD_BITS;

/// Check-bit positions (powers of two) within the codeword.
const CHECK_POSITIONS: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// Returns masks `MASK[j]` selecting every codeword position `p` in
/// `1..=38` with bit `j` of `p` set — the parity groups.
const fn parity_masks() -> [u64; 6] {
    let mut masks = [0u64; 6];
    let mut j = 0;
    while j < 6 {
        let mut p = 1u32;
        while p <= 38 {
            if p & (1 << j) != 0 {
                masks[j] |= 1 << p;
            }
            p += 1;
        }
        j += 1;
    }
    masks
}

const PARITY_MASKS: [u64; 6] = parity_masks();

/// Whether codeword position `p` (1..=38) holds a data bit.
#[inline]
fn is_data_position(p: u32) -> bool {
    (1..=38).contains(&p) && !p.is_power_of_two()
}

/// Encodes 32 data bits into a 39-bit SECDED codeword (bit `i` of the
/// result is codeword position `i`).
pub fn encode(data: u32) -> u64 {
    let mut cw = 0u64;
    let mut di = 0u32;
    let mut p = 1u32;
    while p <= 38 {
        if is_data_position(p) {
            if (data >> di) & 1 == 1 {
                cw |= 1 << p;
            }
            di += 1;
        }
        p += 1;
    }
    for (j, mask) in PARITY_MASKS.iter().enumerate() {
        if (cw & mask).count_ones() % 2 == 1 {
            cw |= 1 << CHECK_POSITIONS[j];
        }
    }
    if cw.count_ones() % 2 == 1 {
        cw |= 1; // overall parity at position 0
    }
    cw
}

/// Extracts the 32 data bits from a codeword (no checking).
pub fn data_of(cw: u64) -> u32 {
    let mut data = 0u32;
    let mut di = 0u32;
    let mut p = 1u32;
    while p <= 38 {
        if is_data_position(p) {
            if (cw >> p) & 1 == 1 {
                data |= 1 << di;
            }
            di += 1;
        }
        p += 1;
    }
    data
}

/// Outcome of decoding one stored codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// Syndrome zero, parity even: the stored data is intact.
    Clean,
    /// A single data-bit upset was corrected; the payload is the repaired
    /// data word.
    CorrectedData(u32),
    /// A single check-bit or parity-bit upset was corrected; the data was
    /// never wrong.
    CorrectedCheck,
    /// Two bits upset: detectable, not correctable. The data cannot be
    /// trusted and must be escalated.
    DoubleError,
}

/// Decodes a 39-bit codeword: SEC corrects, DED escalates.
pub fn decode(cw: u64) -> Decoded {
    let mut syndrome = 0u32;
    for (j, mask) in PARITY_MASKS.iter().enumerate() {
        if (cw & mask).count_ones() % 2 == 1 {
            syndrome |= 1 << j;
        }
    }
    let parity_odd = cw.count_ones() % 2 == 1;
    match (syndrome, parity_odd) {
        (0, false) => Decoded::Clean,
        (0, true) => Decoded::CorrectedCheck, // the parity bit itself flipped
        (s, true) => {
            if is_data_position(s) {
                Decoded::CorrectedData(data_of(cw ^ (1u64 << s)))
            } else {
                Decoded::CorrectedCheck
            }
        }
        (_, false) => Decoded::DoubleError,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn clean_round_trip_every_pattern_class() {
        for data in [0u32, u32::MAX, 0xDEAD_BEEF, 1, 0x8000_0000, 0x5555_5555, 0xAAAA_AAAA] {
            let cw = encode(data);
            assert_eq!(data_of(cw), data);
            assert_eq!(decode(cw), Decoded::Clean, "{data:#x}");
            assert!(cw < (1 << 39));
        }
    }

    #[test]
    fn every_single_bit_flip_is_corrected() {
        for data in [0u32, 0xDEAD_BEEF, 0x0F0F_0F0F, u32::MAX] {
            let cw = encode(data);
            for bit in 0..CODEWORD_BITS {
                let damaged = cw ^ (1u64 << bit);
                match decode(damaged) {
                    Decoded::CorrectedData(d) => {
                        assert_eq!(d, data, "bit {bit} of {data:#x}")
                    }
                    Decoded::CorrectedCheck => {
                        // Check/parity-bit flip: the data bits are intact.
                        assert_eq!(data_of(damaged), data, "bit {bit}");
                    }
                    other => panic!("bit {bit} of {data:#x}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_double_bit_flip_is_detected_never_miscorrected() {
        let data = 0xCAFE_F00Du32;
        let cw = encode(data);
        for b1 in 0..CODEWORD_BITS {
            for b2 in (b1 + 1)..CODEWORD_BITS {
                let damaged = cw ^ (1u64 << b1) ^ (1u64 << b2);
                assert_eq!(
                    decode(damaged),
                    Decoded::DoubleError,
                    "flips at {b1}+{b2} must be DED"
                );
            }
        }
    }

    #[test]
    fn overhead_constant_matches_geometry() {
        assert_eq!(CODEWORD_BITS, 32 + 6 + 1);
    }
}
