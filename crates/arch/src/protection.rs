//! Area/energy/bandwidth accounting for the end-to-end data-protection
//! machinery: SECDED scratchpads, CRC-protected ring flits, and ABFT
//! checksummed GEMM.
//!
//! The paper's chip targets datacenter training, where silent data
//! corruption is a first-order concern; this module carries the "tax" each
//! protection mechanism charges so `rapid-model` can report protected
//! throughput/efficiency honestly:
//!
//! | mechanism     | tax                                            |
//! |---------------|------------------------------------------------|
//! | SECDED(39,32) | +7 bits per 32-bit word of scratchpad storage, |
//! |               | encode/decode energy uplift per access         |
//! | CRC-8 / flit  | +1 byte per link chunk of payload              |
//! | ABFT GEMM     | +2(mk + kn + mn) MACs on an `m×k×n` GEMM       |
//! | Redundancy-3  | ×3 compute (majority voting)                   |
//!
//! ABFT's overhead vanishes as matrices grow (O(m+n+k) per output tile vs
//! O(mkn) base work) — the reason it beats modular redundancy for GEMM —
//! while SECDED and CRC are flat rates on capacity and bandwidth.

// The RaPiD configuration: SECDED(39,32) on the L1 words, one CRC-8 byte
// per 256-byte ring chunk, ~8% access-energy uplift for the ECC logic
// (representative of published 7 nm SRAM macro figures).

/// Bits in a SECDED codeword: 32 data + 6 check + 1 overall parity.
pub const SECDED_CODEWORD_BITS: u32 = 39;

/// Data bits a SECDED codeword carries.
const SECDED_DATA_BITS: u32 = 32;

/// Extra scratchpad bits per data bit for SECDED(39,32): 7/32.
pub const SECDED_STORAGE_OVERHEAD: f64 =
    (SECDED_CODEWORD_BITS - SECDED_DATA_BITS) as f64 / SECDED_DATA_BITS as f64;

/// Energy uplift per protected scratchpad access (encode or
/// decode+correct logic switching relative to the raw array access).
pub const SECDED_ENERGY_UPLIFT: f64 = 0.08;

/// CRC bytes appended to each link chunk.
const CRC_BYTES_PER_CHUNK: f64 = 1.0;

/// Payload bytes per protected link chunk (the reliable-allreduce chunk
/// the CRC covers).
const CRC_CHUNK_PAYLOAD_BYTES: f64 = 256.0;

/// Effective link-bandwidth derate from the CRC byte: payload over
/// payload+CRC (< 1.0).
pub fn crc_bandwidth_factor() -> f64 {
    CRC_CHUNK_PAYLOAD_BYTES / (CRC_CHUNK_PAYLOAD_BYTES + CRC_BYTES_PER_CHUNK)
}

/// Compute overhead of triple modular redundancy relative to the
/// unprotected run: two extra executions.
pub const REDUNDANCY3_OVERHEAD_RATIO: f64 = 2.0;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn secded_storage_matches_codec_geometry() {
        // SECDED(39,32): 7 check bits per 32-bit data word.
        let (codeword_bits, data_bits) = (39.0, 32.0);
        assert_eq!(SECDED_STORAGE_OVERHEAD, (codeword_bits - data_bits) / data_bits);
    }

    #[test]
    fn crc_derate_is_under_half_a_percent() {
        let f = crc_bandwidth_factor();
        assert!(f < 1.0 && f > 0.995, "factor {f}");
    }

    #[test]
    fn redundancy_is_linear_in_r() {
        // r-way redundancy runs r - 1 extra copies; r = 3 votes.
        let r = 3u32;
        assert_eq!(REDUNDANCY3_OVERHEAD_RATIO, f64::from(r - 1));
    }
}
