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
//! | Redundancy-r  | ×r compute (majority voting)                   |
//!
//! ABFT's overhead vanishes as matrices grow (O(m+n+k) per output tile vs
//! O(mkn) base work) — the reason it beats modular redundancy for GEMM —
//! while SECDED and CRC are flat rates on capacity and bandwidth.

// The RaPiD configuration: SECDED(39,32) on the L1 words, one CRC-8 byte
// per 256-byte ring chunk, ~8% access-energy uplift for the ECC logic
// (representative of published 7 nm SRAM macro figures).

/// Extra scratchpad bits per data bit for SECDED(39,32): 7/32.
pub const SECDED_STORAGE_OVERHEAD: f64 = 7.0 / 32.0;

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

/// Compute overhead of `r`-way modular redundancy relative to the
/// unprotected run (`r - 1` extra executions).
pub fn redundancy_overhead_ratio(r: u32) -> f64 {
    f64::from(r.max(1)) - 1.0
}

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
        assert_eq!(redundancy_overhead_ratio(1), 0.0);
        assert_eq!(redundancy_overhead_ratio(3), 2.0);
        assert_eq!(redundancy_overhead_ratio(0), 0.0, "r clamps to 1");
    }
}
