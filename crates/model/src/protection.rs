//! The protection tax: what end-to-end data protection costs a workload.
//!
//! Composes [`rapid_arch::protection`]'s rates with a network's
//! shapes into one report: ABFT checksum MACs vs base MACs (the compute
//! tax), the SECDED scratchpad storage factor (the capacity tax), and the
//! CRC link-bandwidth derate (the communication tax). The headline
//! comparison — ABFT vs 3-way modular redundancy — is what the
//! `protection_sweep` bench measures empirically; this module is the
//! analytical counterpart.

use rapid_arch::protection::{
    crc_bandwidth_factor, REDUNDANCY3_OVERHEAD_RATIO, SECDED_ENERGY_UPLIFT,
    SECDED_STORAGE_OVERHEAD,
};
use rapid_workloads::graph::Network;

/// Aggregate protection overheads for one network at one batch size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtectionTax {
    /// Unprotected MACs across all compute layers (×batch ×repeat).
    pub base_macs: f64,
    /// Checksum MACs ABFT adds: two passes over each layer's input,
    /// weight, and output tensors.
    pub abft_checksum_macs: f64,
    /// ABFT compute overhead relative to the base MACs.
    pub abft_overhead_ratio: f64,
    /// 3-way modular redundancy's compute overhead (the alternative ABFT
    /// replaces): always 2.0.
    pub redundancy3_overhead_ratio: f64,
    /// Physical-over-logical scratchpad capacity with SECDED (≥ 1).
    pub l1_storage_factor: f64,
    /// Effective link bandwidth with CRC bytes, relative to raw (≤ 1).
    pub link_bandwidth_factor: f64,
    /// Per-access scratchpad energy uplift from the ECC logic.
    pub spad_energy_uplift: f64,
}

impl ProtectionTax {
    /// How many times cheaper ABFT's compute tax is than triplication
    /// (the ISSUE's headline ratio; `inf`-safe for zero-MAC networks).
    pub fn abft_advantage(&self) -> f64 {
        if self.abft_overhead_ratio > 0.0 {
            self.redundancy3_overhead_ratio / self.abft_overhead_ratio
        } else {
            f64::INFINITY
        }
    }
}

/// Computes the protection tax for a network at a batch size.
pub fn protection_tax(net: &Network, batch: u64) -> ProtectionTax {
    let mut base = 0.0f64;
    let mut checksum = 0.0f64;
    for layer in &net.layers {
        if !layer.op.is_compute() {
            continue;
        }
        let rep = layer.repeat as f64 * batch as f64;
        base += layer.op.macs() as f64 * rep;
        // Row/column checksum passes touch each operand tensor twice
        // (sum + reference), the direct analog of 2(mk + kn + mn) on a
        // plain GEMM.
        checksum += 2.0
            * (layer.op.input_elems() + layer.op.weight_elems() + layer.op.output_elems()) as f64
            * rep;
    }
    ProtectionTax {
        base_macs: base,
        abft_checksum_macs: checksum,
        abft_overhead_ratio: if base > 0.0 { checksum / base } else { 0.0 },
        redundancy3_overhead_ratio: REDUNDANCY3_OVERHEAD_RATIO,
        l1_storage_factor: 1.0 + SECDED_STORAGE_OVERHEAD,
        link_bandwidth_factor: crc_bandwidth_factor(),
        spad_energy_uplift: SECDED_ENERGY_UPLIFT,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_workloads::graph::{Domain, Layer, Op, PrecisionClass};
    use rapid_workloads::suite::benchmark;

    /// A one-layer network running an `m×k×n` GEMM.
    fn gemm_net(m: u64, k: u64, n: u64) -> Network {
        let layer = Layer {
            name: "gemm".to_string(),
            op: Op::Gemm { m, k, n, weighted: true },
            class: PrecisionClass::Quantizable,
            repeat: 1,
            pruned_sparsity: 0.0,
        };
        Network { name: "gemm".to_string(), domain: Domain::NaturalLanguage, layers: vec![layer] }
    }

    #[test]
    fn abft_overhead_shrinks_as_gemms_grow() {
        let small = protection_tax(&gemm_net(16, 16, 16), 1);
        let large = protection_tax(&gemm_net(1024, 1024, 1024), 1);
        // Checksums cost 2(mk + kn + mn) MACs on an m×k×n GEMM.
        assert_eq!(small.abft_checksum_macs, 2.0 * 3.0 * 256.0);
        assert!(small.abft_overhead_ratio > large.abft_overhead_ratio);
        let large_tax = large.abft_overhead_ratio;
        assert!(large_tax < 0.01, "large-GEMM ABFT tax {large_tax}");
        // And ABFT always beats triplication by a wide margin past toy sizes.
        assert!(small.abft_overhead_ratio < small.redundancy3_overhead_ratio);
        assert_eq!(protection_tax(&gemm_net(0, 5, 5), 1).abft_overhead_ratio, 0.0);
    }

    #[test]
    fn resnet_abft_tax_is_pennies_next_to_triplication() {
        let net = benchmark("resnet50").expect("suite has resnet50");
        let tax = protection_tax(&net, 1);
        assert!(tax.base_macs > 1e9, "resnet50 has billions of MACs");
        assert!(tax.abft_overhead_ratio > 0.0);
        assert!(
            tax.abft_overhead_ratio < 0.1,
            "ABFT tax should be well under 10%, got {}",
            tax.abft_overhead_ratio
        );
        assert!(tax.abft_advantage() >= 2.0, "advantage {}", tax.abft_advantage());
        assert!((tax.redundancy3_overhead_ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_and_bandwidth_taxes_are_flat_rates() {
        let net = benchmark("mobilenetv1").expect("suite has mobilenetv1");
        let tax = protection_tax(&net, 4);
        assert!((tax.l1_storage_factor - (1.0 + 7.0 / 32.0)).abs() < 1e-12);
        assert!(tax.link_bandwidth_factor < 1.0 && tax.link_bandwidth_factor > 0.99);
        assert!(tax.spad_energy_uplift > 0.0 && tax.spad_energy_uplift < 0.5);
    }

    #[test]
    fn batch_scales_both_sides_leaving_the_ratio_fixed() {
        let net = benchmark("resnet50").expect("suite has resnet50");
        let b1 = protection_tax(&net, 1);
        let b8 = protection_tax(&net, 8);
        assert!((b8.base_macs / b1.base_macs - 8.0).abs() < 1e-9);
        assert!((b8.abft_overhead_ratio - b1.abft_overhead_ratio).abs() < 1e-12);
    }
}
