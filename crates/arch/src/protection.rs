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

/// Parameters of the protection machinery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtectionParams {
    /// Extra scratchpad bits per data bit for SECDED(39,32): 7/32.
    pub secded_storage_overhead: f64,
    /// Energy uplift per protected scratchpad access (encode or
    /// decode+correct logic switching relative to the raw array access).
    pub secded_energy_uplift: f64,
    /// CRC bytes appended to each link chunk.
    pub crc_bytes_per_chunk: f64,
    /// Payload bytes per protected link chunk (the reliable-allreduce
    /// chunk the CRC covers).
    pub crc_chunk_payload_bytes: f64,
}

impl ProtectionParams {
    /// The RaPiD configuration: SECDED(39,32) on the L1 words, one CRC-8
    /// byte per 256-byte ring chunk, ~8% access-energy uplift for the
    /// ECC logic (representative of published 7 nm SRAM macro figures).
    pub fn rapid() -> Self {
        Self {
            secded_storage_overhead: 7.0 / 32.0,
            secded_energy_uplift: 0.08,
            crc_bytes_per_chunk: 1.0,
            crc_chunk_payload_bytes: 256.0,
        }
    }

    /// Effective link-bandwidth derate from the CRC byte: payload over
    /// payload+CRC (< 1.0).
    pub fn crc_bandwidth_factor(&self) -> f64 {
        self.crc_chunk_payload_bytes / (self.crc_chunk_payload_bytes + self.crc_bytes_per_chunk)
    }

    /// Checksum MACs ABFT adds to an `m×k×n` GEMM: one input-side row-sum
    /// and reference pass each (`2mk + 2kn`) plus the output row/col sums
    /// (`2mn`).
    pub fn abft_checksum_macs(&self, m: u64, k: u64, n: u64) -> f64 {
        2.0 * (m * k + k * n + m * n) as f64
    }

    /// ABFT compute overhead relative to the base GEMM's `mkn` MACs.
    pub fn abft_overhead_ratio(&self, m: u64, k: u64, n: u64) -> f64 {
        let base = (m * k * n) as f64;
        if base == 0.0 { 0.0 } else { self.abft_checksum_macs(m, k, n) / base }
    }

    /// Compute overhead of `r`-way modular redundancy relative to the
    /// unprotected run (`r - 1` extra executions).
    pub fn redundancy_overhead_ratio(&self, r: u32) -> f64 {
        f64::from(r.max(1)) - 1.0
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn secded_storage_matches_codec_geometry() {
        let p = ProtectionParams::rapid();
        assert!((p.secded_storage_overhead - 7.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn crc_derate_is_under_half_a_percent() {
        let p = ProtectionParams::rapid();
        let f = p.crc_bandwidth_factor();
        assert!(f < 1.0 && f > 0.995, "factor {f}");
    }

    #[test]
    fn abft_overhead_shrinks_as_gemms_grow() {
        let p = ProtectionParams::rapid();
        let small = p.abft_overhead_ratio(16, 16, 16);
        let large = p.abft_overhead_ratio(1024, 1024, 1024);
        assert!(small > large, "{small} vs {large}");
        assert!(large < 0.01, "large-GEMM ABFT tax {large}");
        // And ABFT always beats triplication by a wide margin past toy sizes.
        assert!(small < p.redundancy_overhead_ratio(3));
        assert_eq!(p.abft_overhead_ratio(0, 5, 5), 0.0);
    }

    #[test]
    fn redundancy_is_linear_in_r() {
        let p = ProtectionParams::rapid();
        assert_eq!(p.redundancy_overhead_ratio(1), 0.0);
        assert_eq!(p.redundancy_overhead_ratio(3), 2.0);
        assert_eq!(p.redundancy_overhead_ratio(0), 0.0, "r clamps to 1");
    }
}
