//! The simulator computes no arithmetic of its own: every value and
//! zero-gated count it reports comes from the `rapid-numerics` kernels run
//! on the operands its MPE arrays received. These properties pin that on
//! random shapes crossing the LRF depth (`ci_lrf`), the 64-column co-tile
//! and the row split a core takes when it has fewer tiles than corelets.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests panic on failure by design

use proptest::prelude::*;
use rapid_arch::geometry::CoreConfig;
use rapid_arch::precision::Precision;
use rapid_numerics::fma::FmaMode;
use rapid_numerics::gemm::{matmul_emulated, matmul_int, GemmStats};
use rapid_numerics::int::{IntFormat, QuantParams, Signedness};
use rapid_numerics::Tensor;
use rapid_sim::{try_run_chip_gemm_with, ChipGemmJob, CoreSim, CoreletReport, GemmJob};

const PRECISIONS: [Precision; 4] =
    [Precision::Fp16, Precision::Hfp8, Precision::Int4, Precision::Int2];

/// Seeded operands; sparse ones zero about half of A and a quarter of B.
fn operands(m: usize, k: usize, n: usize, seed: u64, sparse: bool) -> (Tensor, Tensor) {
    let mut a = Tensor::random_uniform(vec![m, k], -1.0, 1.0, seed);
    let mut b = Tensor::random_uniform(vec![k, n], -1.0, 1.0, seed + 1);
    if sparse {
        a.map_inplace(|v| if v.abs() < 0.5 { 0.0 } else { v });
        b.map_inplace(|v| if v.abs() < 0.25 { 0.0 } else { v });
    }
    (a, b)
}

/// The numerics kernel the simulator's datapath stands for, at its chunk.
fn kernel(a: &Tensor, b: &Tensor, p: Precision, cfg: &CoreConfig) -> (Tensor, GemmStats) {
    let ci_lrf = cfg.corelet.ci_lrf_max(p) as usize;
    match p {
        Precision::Fp16 => matmul_emulated(FmaMode::Fp16, a, b, ci_lrf),
        Precision::Hfp8 => matmul_emulated(FmaMode::hfp8_fwd_default(), a, b, ci_lrf),
        Precision::Int4 | Precision::Int2 => {
            let fmt = if p == Precision::Int4 { IntFormat::Int4 } else { IntFormat::Int2 };
            let qa = QuantParams::from_abs_max(fmt, Signedness::Signed, a.max_abs());
            let qb = QuantParams::from_abs_max(fmt, Signedness::Signed, b.max_abs());
            matmul_int(a, b, qa, qb, 64)
        }
        Precision::Fp32 => unreachable!("the MPE array runs no FP32 GEMM"),
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `(macs, zero_gated)` summed over corelet reports.
fn counted<'a>(reports: impl IntoIterator<Item = &'a CoreletReport>) -> (u64, u64) {
    reports.into_iter().fold((0, 0), |(m, z), r| (m + r.macs, z + r.zero_gated))
}

proptest! {
    /// A core's values are bit-equal to the kernel and its MAC and
    /// zero-gated counts equal the kernel's statistics exactly.
    #[test]
    fn core_values_and_counts_are_the_kernels(
        m in 1usize..=40,
        k in 1usize..=300,
        n in 1usize..=200,
        (pi, sparse, seed) in (0usize..4, 0u8..2, 0u64..1_000_000),
    ) {
        let p = PRECISIONS[pi];
        let (a, b) = operands(m, k, n, seed, sparse == 1);
        let core = CoreSim::rapid();
        let r = core.run_gemm(&GemmJob { a: a.clone(), b: b.clone(), precision: p });
        let (c, stats) = kernel(&a, &b, p, core.config());
        let ctx = format!("{p} m={m} k={k} n={n} sparse={sparse} seed={seed}");
        prop_assert_eq!(bits(&r.c), bits(&c), "{}", ctx);
        prop_assert_eq!(counted(&r.corelets), (stats.macs, stats.zero_gated), "{}", ctx);
    }

    /// The same holds across a chip with one to four cores and, on
    /// multi-core chips, one core masked out. Each surviving core runs an
    /// equal column slice of B as its own GEMM, so the INT datapaths scale
    /// each slice by its own maximum: the reference runs the kernel per
    /// slice too.
    #[test]
    fn chip_values_and_counts_are_the_kernels(
        (m, k, n) in (1usize..=40, 1usize..=300, 1usize..=200),
        (pi, sparse, seed) in (0usize..4, 0u8..2, 0u64..1_000_000),
        (n_cores, dead) in (1usize..=4, 0usize..4),
    ) {
        let p = PRECISIONS[pi];
        let (a, b) = operands(m, k, n, seed, sparse == 1);
        let cfg = CoreConfig::default();
        let failed_mask = if n_cores > 1 { 1u64 << (dead % n_cores) } else { 0 };
        let job = ChipGemmJob { a: a.clone(), b: b.clone(), precision: p };
        let r = try_run_chip_gemm_with(&job, cfg, n_cores, failed_mask, None, None).unwrap();
        let survivors = n_cores - failed_mask.count_ones() as usize;
        let mut c = Tensor::zeros(vec![m, n]);
        let mut stats = GemmStats::default();
        for c0 in (0..n).step_by(n.div_ceil(survivors)) {
            let cols = n.div_ceil(survivors).min(n - c0);
            let slice = b.as_slice().chunks_exact(n).flat_map(|row| &row[c0..c0 + cols]);
            let b_slice = Tensor::from_vec(vec![k, cols], slice.copied().collect());
            let (c_slice, s) = kernel(&a, &b_slice, p, &cfg);
            stats.merge(s);
            let rows = c.as_mut_slice().chunks_exact_mut(n).zip(c_slice.as_slice().chunks_exact(cols));
            for (dst, src) in rows {
                dst[c0..c0 + cols].copy_from_slice(src);
            }
        }
        let ctx = format!("{p} m={m} k={k} n={n} cores={n_cores} mask={failed_mask:#x}");
        prop_assert_eq!(bits(&r.c), bits(&c), "{}", ctx);
        let reports = r.cores.iter().flat_map(|core| &core.corelets);
        prop_assert_eq!(counted(reports), (stats.macs, stats.zero_gated), "{}", ctx);
    }
}
