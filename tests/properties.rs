//! Property-based tests on cross-crate invariants (proptest).

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design

use proptest::prelude::*;
use rapid::arch::geometry::CoreletConfig;
use rapid::arch::isa::MpeInstr;
use rapid::arch::power::{effective_frequency_ghz, throttle_rate, F_MAX_GHZ};
use rapid::arch::precision::Precision;
use rapid::compiler::mapping::map_layer;
use rapid::numerics::format::FpFormat;
use rapid::numerics::int::{IntFormat, QuantParams, Signedness};
use rapid::ring::sim::{unicast, RingSim};
use rapid::workloads::graph::Op;

proptest! {
    /// Quantization to any RaPiD float format is idempotent and monotone.
    #[test]
    fn float_quantization_idempotent_and_monotone(
        x in -1e6f32..1e6,
        y in -1e6f32..1e6,
    ) {
        for fmt in [
            FpFormat::fp16(),
            FpFormat::fp8_e4m3(),
            FpFormat::fp8_e5m2(),
            FpFormat::fp9(),
        ] {
            let qx = fmt.quantize(x);
            prop_assert_eq!(fmt.quantize(qx), qx, "idempotence in {}", fmt);
            let qy = fmt.quantize(y);
            if x <= y {
                prop_assert!(qx <= qy, "monotonicity in {}: q({x})={qx} > q({y})={qy}", fmt);
            }
        }
    }

    /// Quantization error is bounded by half a ulp at the value's scale
    /// (within range, normal numbers).
    #[test]
    fn float_quantization_error_bound(x in 0.001f32..100.0) {
        let fmt = FpFormat::fp8_e4m3();
        let q = fmt.quantize(x);
        let ulp = 2f32.powi(x.log2().floor() as i32) * fmt.epsilon();
        prop_assert!((q - x).abs() <= ulp / 2.0 + 1e-9, "q({x})={q}, ulp {ulp}");
    }

    /// Programmable bias is exactly a power-of-two rescaling.
    #[test]
    fn bias_change_is_power_of_two_scaling(x in -400.0f32..400.0, shift in -3i32..=3) {
        let base = FpFormat::fp8_e4m3();
        let shifted = FpFormat::fp8_e4m3_with_bias(7 + shift).unwrap();
        // Raising the bias by s scales the whole value set by 2^-s:
        // q_{b+s}(x · 2^-s) == q_b(x) · 2^-s, saturation included.
        let scale = 2f32.powi(-shift);
        let lhs = base.quantize(x) * scale;
        let rhs = shifted.quantize(x * scale);
        prop_assert_eq!(lhs, rhs);
    }

    /// Integer quantization round-trips every code and clamps the rest.
    #[test]
    fn int_quantize_bounds(x in -1e4f32..1e4, scale in 0.001f32..10.0) {
        let q = QuantParams::with_scale(IntFormat::Int4, Signedness::Signed, scale).unwrap();
        let code = q.quantize(x);
        prop_assert!((-7..=7).contains(&i32::from(code)));
        // Error within half a step unless clamped.
        let v = q.dequantize(code);
        if x.abs() < 7.0 * scale {
            prop_assert!((v - x).abs() <= scale / 2.0 + 1e-6);
        }
    }

    /// The dataflow mapping never reports more than 100% utilization and
    /// never loses work, for arbitrary GEMM shapes and precisions.
    #[test]
    fn mapping_invariants(
        m in 1u64..300,
        k in 1u64..1200,
        n in 1u64..1200,
        pi in 0usize..4,
        corelets in 1u32..16,
    ) {
        let p = Precision::MPE_PRECISIONS[pi];
        let op = Op::Gemm { m, k, n, weighted: true };
        let cost = map_layer(&op, p, 1, &CoreletConfig::default(), corelets);
        prop_assert!(cost.utilization() <= 1.0 + 1e-9);
        prop_assert!(cost.utilization() > 0.0);
        prop_assert!(cost.overhead_cycles() >= 0.0);
        prop_assert!(cost.total_cycles() + 1e-9 >= cost.ideal_cycles);
        // Compute cycles alone can never beat the ideal MAC bound.
        prop_assert!(cost.compute_cycles + 1e-9 >= cost.ideal_cycles);
    }

    /// More corelets never increase mapped cycles.
    #[test]
    fn mapping_monotone_in_corelets(
        m in 1u64..128,
        k in 1u64..512,
        n in 1u64..512,
    ) {
        let op = Op::Gemm { m, k, n, weighted: true };
        let c2 = map_layer(&op, Precision::Fp16, 1, &CoreletConfig::default(), 2);
        let c8 = map_layer(&op, Precision::Fp16, 1, &CoreletConfig::default(), 8);
        prop_assert!(c8.total_cycles() <= c2.total_cycles() * 1.001);
    }

    /// MPE instruction words decode back to themselves.
    #[test]
    fn isa_roundtrip(lrf in 0u8..=255, vecs in 0u8..=255, cycles in 0u16..=u16::MAX) {
        for i in [
            MpeInstr::BlockLoad { lrf_base: lrf, words: vecs },
            MpeInstr::Nop { cycles },
        ] {
            prop_assert_eq!(MpeInstr::decode(i.encode()), Some(i));
        }
    }

    /// Throttle rate falls monotonically with sparsity and stays in [0,1).
    #[test]
    fn throttle_monotone(s1 in 0.0f64..1.0, s2 in 0.0f64..1.0) {
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        prop_assert!(throttle_rate(lo) >= throttle_rate(hi) - 1e-12);
        prop_assert!((0.0..1.0).contains(&throttle_rate(lo)));
        prop_assert!(effective_frequency_ghz(hi) <= F_MAX_GHZ + 1e-12);
    }

    /// Chunked dot products commute with input permutation of whole chunks
    /// (the hierarchical accumulation is order-sensitive only within a
    /// chunk).
    #[test]
    fn chunk_accumulation_stable_under_chunk_swap(
        a in proptest::collection::vec(-1.0f32..1.0, 128),
        b in proptest::collection::vec(-1.0f32..1.0, 128),
    ) {
        use rapid::numerics::accumulate::dot_chunked;
        use rapid::numerics::fma::FmaMode;
        use rapid::numerics::format::FpFormat;
        let fmt = FpFormat::fp16();
        let qa: Vec<f32> = a.iter().map(|&x| fmt.quantize(x)).collect();
        let qb: Vec<f32> = b.iter().map(|&x| fmt.quantize(x)).collect();
        let direct = dot_chunked(FmaMode::Fp16, &qa, &qb, 64);
        // Swap the two 64-element chunks wholesale.
        let mut pa = qa[64..].to_vec();
        pa.extend_from_slice(&qa[..64]);
        let mut pb = qb[64..].to_vec();
        pb.extend_from_slice(&qb[..64]);
        let swapped = dot_chunked(FmaMode::Fp16, &pa, &pb, 64);
        // The outer accumulation is FP32 addition of two chunk sums:
        // commutative for two addends.
        prop_assert_eq!(direct, swapped);
    }

    /// The ring conserves bytes and always drains for arbitrary transfer
    /// sets (no deadlock, no loss).
    #[test]
    fn ring_transfers_conserve_bytes(
        transfers in proptest::collection::vec(
            (0usize..4, 0usize..4, 1u32..4096),
            1..6,
        ),
    ) {
        let mut sim = RingSim::new(4, 5);
        let mut expected = [0u64; 4];
        let mut tag = 1u16;
        for &(src, dst, bytes) in &transfers {
            if src == dst {
                continue;
            }
            unicast(&mut sim, tag, src, dst, bytes);
            expected[dst] += u64::from(bytes);
            tag += 1;
        }
        let drained = sim.run_until_idle(2_000_000);
        prop_assert!(drained.is_ok(), "ring deadlocked: {drained:?}");
        for (node, &want) in expected.iter().enumerate() {
            prop_assert_eq!(sim.received_bytes(node), want, "node {}", node);
        }
    }

    /// The fault-free reliable ring brackets the bandwidth law the training
    /// model prices the chip-to-chip exchange with: never below
    /// `(n−1)/n · elems · 3 B` (FP16 gradients plus 8-bit weights) over the
    /// link bytes per cycle of `SystemConfig::training_4x32()`, and above
    /// it by at most two step latencies plus one gradient chunk and one
    /// weight chunk per ring step.
    #[test]
    fn reliable_ring_brackets_the_exchange_law(chips in 2usize..17, elems in 1usize..100_000) {
        use rapid::arch::geometry::SystemConfig;
        use rapid::ring::reliable::{CHUNK_ELEMS, STEP_LATENCY_CYCLES};
        use rapid::ring::{reliable_allreduce, ReliableConfig};
        let sys = SystemConfig::training_4x32();
        let link_bytes_per_cycle = sys.link_bw_gbps / sys.chip.freq_ghz;
        let n = chips as f64;
        let law = (n - 1.0) / n * elems as f64 * 3.0 / link_bytes_per_cycle;
        let chunk =
            |elem_bytes: f64| (CHUNK_ELEMS as f64 * elem_bytes / link_bytes_per_cycle).ceil();
        let slack = (n - 1.0) * (2.0 * STEP_LATENCY_CYCLES as f64 + chunk(2.0) + chunk(1.0));
        let inputs = vec![vec![1.0f32; elems]; chips];
        let (_, health) =
            reliable_allreduce(&inputs, &ReliableConfig::rapid_training(), None, None).unwrap();
        let cycles = health.cycles as f64;
        prop_assert!(
            law <= cycles,
            "{} chips, {} elems: {} cycles below the law {}", chips, elems, cycles, law
        );
        prop_assert!(
            cycles <= law + slack,
            "{} chips, {} elems: {} cycles above the law {} + {}", chips, elems, cycles, law, slack
        );
        prop_assert_eq!(health.cycles, health.ideal_cycles);
    }
}
