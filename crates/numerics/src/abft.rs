//! Algorithm-based fault tolerance (ABFT) for the emulated GEMM kernels.
//!
//! Huang & Abraham's checksum scheme (IEEE ToC 1984): augment `C = A·B`
//! with a reference row-sum vector `R[i] = Σ_j C[i][j]` and column-sum
//! vector `S[j] = Σ_i C[i][j]`, both computable from the *inputs* in
//! O(m·k + k·n) — without materializing a second product. A fault in
//! output element `(i, j)` perturbs `R[i]` and `S[j]`; the intersection of
//! the disagreeing row and column locates it, and a clean recompute of the
//! located element repairs it. The overhead is one extra dot product per
//! output row and column plus the occasional O(k) repair — a small
//! fraction of the 3× tax modular redundancy pays for the same single-
//! fault coverage.
//!
//! Two format families, two contracts:
//!
//! * **Integer paths (INT4, INT2)** — everything is exact. Checksums run
//!   in `i64` over the quantized codes, the faulty product's integer dot
//!   values are recovered exactly from the `f32` output (the legal-chunk
//!   precondition keeps them small), residuals are exactly zero fault-free,
//!   and any flagged element is repaired **bit-exactly** by a clean
//!   [`IntAccumulator`] recompute.
//! * **Float paths (FP16, both FP8s)** — the emulated datapath accumulates
//!   with FP16 roundings, so observed and reference sums legitimately
//!   disagree by accumulated roundoff. The detector uses an
//!   accumulation-bound-derived tolerance (see [`fp_tolerance_factor`]):
//!   residuals within the bound are indistinguishable from rounding and
//!   pass; residuals beyond it flag the row/column and the flagged
//!   elements are repaired bit-exactly by a clean [`ChunkAccumulator`]
//!   recompute. Sub-tolerance upsets (a low mantissa bit of one operand)
//!   are *by construction* smaller than the datapath's own rounding noise.
//!
//! Checksums themselves run in `f64`/`i64` host arithmetic — modeling the
//! hardened, higher-precision checksum unit an ABFT-protected accelerator
//! dedicates to the job (the unit is tiny: one FMA per column per cycle).

use crate::accumulate::ChunkAccumulator;
use crate::error::NumericsError;
use crate::fma::FmaMode;
use crate::gemm::{matmul_emulated_with, matmul_int_with, Exec, GemmStats};
use crate::guard::GuardPolicy;
use crate::int::{IntAccumulator, QuantParams};
use crate::tensor::Tensor;
use rapid_fault::FaultPlan;

/// Unit roundoff of the FP16 (1,6,9) accumulator: 9 explicit mantissa bits
/// ⇒ half-ulp relative error `2⁻¹⁰` per rounding.
const FP16_UNIT_ROUNDOFF: f64 = 1.0 / 1024.0;

/// Safety margin over the worst-case accumulation bound. The bound itself
/// is already conservative (it charges every rounding the worst case);
/// the margin absorbs the difference between the f64 checksum reference
/// and the FP16-rounded datapath on pathological cancellation patterns.
const FP_TOLERANCE_MARGIN: f64 = 4.0;

/// What one ABFT-protected GEMM observed: the cost of the checksums, what
/// the detector flagged, and how much repair work was done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbftReport {
    /// MACs issued by the protected (faulty) product itself.
    pub base_macs: u64,
    /// Checksum-unit operations (input checksum dots + output row/column
    /// sums), the fixed price of protection.
    pub checksum_macs: u64,
    /// MACs spent recomputing flagged elements cleanly.
    pub recompute_macs: u64,
    /// Output rows whose checksum residual exceeded tolerance.
    pub detected_rows: u64,
    /// Output columns whose checksum residual exceeded tolerance.
    pub detected_cols: u64,
    /// Output elements overwritten with a clean recompute.
    pub corrections: u64,
}

impl AbftReport {
    /// Total compute relative to the unprotected product:
    /// `(base + checksum + recompute) / base`. Redundancy-3 voting costs
    /// 3.0 on the same scale.
    pub fn overhead_ratio(&self) -> f64 {
        if self.base_macs == 0 {
            return 1.0;
        }
        (self.base_macs + self.checksum_macs + self.recompute_macs) as f64
            / self.base_macs as f64
    }

    /// Folds another report into this one (per-layer reports → per-run).
    pub fn merge(&mut self, other: AbftReport) {
        self.base_macs += other.base_macs;
        self.checksum_macs += other.checksum_macs;
        self.recompute_macs += other.recompute_macs;
        self.detected_rows += other.detected_rows;
        self.detected_cols += other.detected_cols;
        self.corrections += other.corrections;
    }

    /// Accumulates the report into a metrics registry under `<prefix>.*`.
    pub fn record_into(&self, reg: &mut rapid_telemetry::MetricsRegistry, prefix: &str) {
        reg.add(&format!("{prefix}.base_macs"), self.base_macs);
        reg.add(&format!("{prefix}.checksum_macs"), self.checksum_macs);
        reg.add(&format!("{prefix}.recompute_macs"), self.recompute_macs);
        reg.add(&format!("{prefix}.detected_rows"), self.detected_rows);
        reg.add(&format!("{prefix}.detected_cols"), self.detected_cols);
        reg.add(&format!("{prefix}.corrections"), self.corrections);
    }

    /// Reads back a report written by [`AbftReport::record_into`].
    pub fn from_registry(reg: &rapid_telemetry::MetricsRegistry, prefix: &str) -> Self {
        Self {
            base_macs: reg.counter(&format!("{prefix}.base_macs")),
            checksum_macs: reg.counter(&format!("{prefix}.checksum_macs")),
            recompute_macs: reg.counter(&format!("{prefix}.recompute_macs")),
            detected_rows: reg.counter(&format!("{prefix}.detected_rows")),
            detected_cols: reg.counter(&format!("{prefix}.detected_cols")),
            corrections: reg.counter(&format!("{prefix}.corrections")),
        }
    }
}

/// Worst-case relative accumulation error of the chunked FP16 datapath for
/// a length-`k` dot product: every MAC rounds once, every chunk boundary
/// rounds once, plus the final write-back. Multiplied by the sum of
/// absolute products it bounds `|emulated − exact|`.
pub fn fp_tolerance_factor(k: usize, chunk_len: usize) -> f64 {
    let roundings = k + k / chunk_len.max(1) + 2;
    FP_TOLERANCE_MARGIN * FP16_UNIT_ROUNDOFF * roundings as f64
}

/// The cells the locator selects for repair: every cell of every flagged
/// row plus every cell of every flagged column (a union, deduplicated).
///
/// The union — not the flagged-rows × flagged-cols intersection — is
/// deliberate: with multiple faults, the errors in one row can cancel in
/// that row's sum while each still flags its column (and vice versa), so
/// an intersection repair would skip exactly the cells that need it. The
/// union costs O(f·(m+n)) recomputes for f flagged lines, preserving the
/// O(m+n) overhead contract.
fn repair_cells(
    rows: &[usize],
    cols: &[usize],
    m: usize,
    n: usize,
) -> Vec<(usize, usize)> {
    let mut cells = std::collections::BTreeSet::new();
    for &i in rows {
        for j in 0..n {
            cells.insert((i, j));
        }
    }
    for &j in cols {
        for i in 0..m {
            cells.insert((i, j));
        }
    }
    cells.into_iter().collect()
}

/// Whether a checksum residual breaks its rounding bound. A NaN residual
/// is incomparable — and a fault that poisoned the sums must still flag —
/// so "not provably within bound" counts as exceeding it.
fn residual_exceeds(residual: f64, bound: f64) -> bool {
    use std::cmp::Ordering;
    !matches!(residual.partial_cmp(&bound), Some(Ordering::Less | Ordering::Equal))
}

/// ABFT-protected emulated float GEMM (FP16 / HFP8 modes).
///
/// Runs the fault-injectable datapath under [`GuardPolicy::Propagate`] (a
/// protected unit wants faults to *reach the checksums*, not trap), then
/// verifies row/column checksums against input-derived references and
/// repairs every flagged element with a clean scalar recompute. With
/// `faults == None` the product is the bit-exact fast path and the
/// checksums merely confirm it.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] on incompatible operands.
///
/// # Panics
///
/// Panics if `chunk_len == 0` (a configuration bug, not a data error).
pub fn abft_matmul_emulated(
    mode: FmaMode,
    a: &Tensor,
    b: &Tensor,
    chunk_len: usize,
    faults: Option<&mut FaultPlan>,
) -> Result<(Tensor, GemmStats, AbftReport), NumericsError> {
    let exec = Exec { guard: GuardPolicy::Propagate, faults, ..Exec::default() };
    let (mut out, stats) = matmul_emulated_with(mode, a, b, chunk_len, exec)?;
    let (m, n) = (out.shape()[0], out.shape()[1]);
    let k = a.shape()[1];
    let mut report = AbftReport { base_macs: stats.macs, ..AbftReport::default() };

    // Quantized operand lattices — identical to what the datapath used.
    let (fa, fb) = mode.operand_formats();
    let qa: Vec<f64> = a.as_slice().iter().map(|&x| f64::from(fa.quantize(x))).collect();
    let qb: Vec<f64> = b.as_slice().iter().map(|&x| f64::from(fb.quantize(x))).collect();

    // Input-side checksum references, f64 checksum unit:
    //   row_ref[i] = Σ_p qa[i][p] · (Σ_j qb[p][j])   (m·k MACs after k·n adds)
    //   col_ref[j] = Σ_p (Σ_i qa[i][p]) · qb[p][j]   (k·n MACs after m·k adds)
    // plus per-element |·| envelopes for the rounding tolerance.
    let mut row_sum_b = vec![0.0f64; k];
    let mut abs_row_sum_b = vec![0.0f64; k];
    for p in 0..k {
        for j in 0..n {
            let v = qb[p * n + j];
            row_sum_b[p] += v;
            abs_row_sum_b[p] += v.abs();
        }
    }
    let mut col_sum_a = vec![0.0f64; k];
    let mut abs_col_sum_a = vec![0.0f64; k];
    for i in 0..m {
        for p in 0..k {
            let v = qa[i * k + p];
            col_sum_a[p] += v;
            abs_col_sum_a[p] += v.abs();
        }
    }
    let tol = fp_tolerance_factor(k, chunk_len);
    let mut flagged_rows = Vec::new();
    for i in 0..m {
        let mut reference = 0.0f64;
        let mut envelope = 0.0f64;
        for p in 0..k {
            reference += qa[i * k + p] * row_sum_b[p];
            envelope += qa[i * k + p].abs() * abs_row_sum_b[p];
        }
        let observed: f64 = out.as_slice()[i * n..(i + 1) * n].iter().map(|&v| f64::from(v)).sum();
        if residual_exceeds((observed - reference).abs(), tol * envelope) {
            flagged_rows.push(i);
        }
    }
    let mut flagged_cols = Vec::new();
    for j in 0..n {
        let mut reference = 0.0f64;
        let mut envelope = 0.0f64;
        for p in 0..k {
            reference += col_sum_a[p] * qb[p * n + j];
            envelope += abs_col_sum_a[p] * qb[p * n + j].abs();
        }
        let observed: f64 =
            (0..m).map(|i| f64::from(out.as_slice()[i * n + j])).sum();
        if residual_exceeds((observed - reference).abs(), tol * envelope) {
            flagged_cols.push(j);
        }
    }
    report.checksum_macs = (2 * m * k + 2 * k * n + 2 * m * n) as u64;
    report.detected_rows = flagged_rows.len() as u64;
    report.detected_cols = flagged_cols.len() as u64;

    // Repair: clean scalar recompute of the located cells. The scalar
    // datapath is bit-exact vs the fast path, so a repaired element is
    // indistinguishable from a fault-free one.
    let qa32: Vec<f32> = qa.iter().map(|&x| x as f32).collect();
    let qb32: Vec<f32> = qb.iter().map(|&x| x as f32).collect();
    let od = out.as_mut_slice();
    for (i, j) in repair_cells(&flagged_rows, &flagged_cols, m, n) {
        let mut acc = ChunkAccumulator::new(mode, chunk_len);
        for p in 0..k {
            acc.mac(qa32[i * k + p], qb32[p * n + j]);
        }
        let clean = acc.finish();
        report.recompute_macs += k as u64;
        if od[i * n + j].to_bits() != clean.to_bits() {
            report.corrections += 1;
        }
        od[i * n + j] = clean;
    }
    Ok((out, stats, report))
}

/// ABFT-protected integer GEMM (INT4 / INT2 through the FXU pipeline).
///
/// Checksums are exact `i64` arithmetic over the quantized codes, so the
/// residual of a fault-free product is exactly zero and *any* injected
/// fault that changes an output element is detected — and repaired
/// bit-exactly by a clean [`IntAccumulator`] recompute.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] on incompatible operands.
///
/// # Panics
///
/// Panics if `chunk_len == 0`, or if the (chunk length, format) pair
/// permits clean-path INT16 chunk saturation or an integer dot beyond
/// `f32`'s exact range — both configuration bugs: ABFT's exact-residual
/// contract requires a hardware-legal configuration.
pub fn abft_matmul_int(
    a: &Tensor,
    b: &Tensor,
    qa: QuantParams,
    qb: QuantParams,
    chunk_len: usize,
    faults: Option<&mut FaultPlan>,
) -> Result<(Tensor, GemmStats, AbftReport), NumericsError> {
    let exec = Exec { guard: GuardPolicy::Propagate, faults, ..Exec::default() };
    let (mut out, stats) = matmul_int_with(a, b, qa, qb, chunk_len, exec)?;
    let (m, n) = (out.shape()[0], out.shape()[1]);
    let k = a.shape()[1];
    let worst = |p: QuantParams| {
        let (lo, hi) = p.code_range();
        i64::from(lo.unsigned_abs().max(hi.unsigned_abs()))
    };
    let window = chunk_len.min(k.max(1)) as i64;
    assert!(
        window * worst(qa) * worst(qb) <= i64::from(i16::MAX),
        "ABFT INT requires a hardware-legal chunk length (no clean-path saturation)"
    );
    assert!(
        (k as i64) * worst(qa) * worst(qb) < (1i64 << 24),
        "ABFT INT requires dot products within f32's exact integer range"
    );
    let mut report = AbftReport { base_macs: stats.macs, ..AbftReport::default() };

    let ca: Vec<i8> = a.as_slice().iter().map(|&x| qa.quantize(x)).collect();
    let cb: Vec<i8> = b.as_slice().iter().map(|&x| qb.quantize(x)).collect();
    let out_scale = qa.scale() * qb.scale();

    // Recover each output element's integer dot exactly: the clean value
    // is `dot as f32 * out_scale`, and dot is within f32's exact range.
    // A faulty element may recover to a wrong (or non-integral) dot —
    // that is precisely what the exact residual catches.
    let dot_of = |v: f32| -> i64 { (f64::from(v) / f64::from(out_scale)).round() as i64 };

    let mut row_sum_b = vec![0i64; k];
    for p in 0..k {
        for j in 0..n {
            row_sum_b[p] += i64::from(cb[p * n + j]);
        }
    }
    let mut col_sum_a = vec![0i64; k];
    for i in 0..m {
        for p in 0..k {
            col_sum_a[p] += i64::from(ca[i * k + p]);
        }
    }
    let mut flagged_rows = Vec::new();
    for i in 0..m {
        let reference: i64 =
            (0..k).map(|p| i64::from(ca[i * k + p]) * row_sum_b[p]).sum();
        let observed: i64 = out.as_slice()[i * n..(i + 1) * n]
            .iter()
            .map(|&v| if v.is_finite() { dot_of(v) } else { i64::MAX / 4 })
            .sum();
        if observed != reference {
            flagged_rows.push(i);
        }
    }
    let mut flagged_cols = Vec::new();
    for j in 0..n {
        let reference: i64 = (0..k).map(|p| col_sum_a[p] * i64::from(cb[p * n + j])).sum();
        let observed: i64 = (0..m)
            .map(|i| {
                let v = out.as_slice()[i * n + j];
                if v.is_finite() {
                    dot_of(v)
                } else {
                    i64::MAX / 4
                }
            })
            .sum();
        if observed != reference {
            flagged_cols.push(j);
        }
    }
    report.checksum_macs = (2 * m * k + 2 * k * n + 2 * m * n) as u64;
    report.detected_rows = flagged_rows.len() as u64;
    report.detected_cols = flagged_cols.len() as u64;

    let od = out.as_mut_slice();
    for (i, j) in repair_cells(&flagged_rows, &flagged_cols, m, n) {
        let mut acc = IntAccumulator::new(chunk_len);
        for p in 0..k {
            acc.mac(ca[i * k + p], cb[p * n + j]);
        }
        let clean = acc.finish() as f32 * out_scale;
        report.recompute_macs += k as u64;
        if od[i * n + j].to_bits() != clean.to_bits() {
            report.corrections += 1;
        }
        od[i * n + j] = clean;
    }
    Ok((out, stats, report))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::gemm::{matmul_emulated, matmul_int};
    use crate::int::{IntFormat, Signedness};
    use rapid_fault::FaultConfig;

    fn tensors(m: usize, k: usize, n: usize, seed: u64) -> (Tensor, Tensor) {
        let a = Tensor::random_uniform(vec![m, k], -2.0, 2.0, seed);
        let b = Tensor::random_uniform(vec![k, n], -2.0, 2.0, seed ^ 0xABCD);
        (a, b)
    }

    #[test]
    fn fault_free_fp_product_is_untouched() {
        for mode in [FmaMode::Fp16, FmaMode::hfp8_fwd_default(), FmaMode::hfp8_bwd_default()] {
            let (a, b) = tensors(9, 17, 11, 3);
            let (clean, _) = matmul_emulated(mode, &a, &b, 4);
            let (c, _, rep) = abft_matmul_emulated(mode, &a, &b, 4, None).unwrap();
            assert_eq!(c.as_slice(), clean.as_slice(), "{mode:?}");
            assert_eq!(rep.corrections, 0);
            assert_eq!(rep.detected_rows, 0, "{mode:?}: false positive rows");
            assert_eq!(rep.detected_cols, 0, "{mode:?}: false positive cols");
            assert!(rep.overhead_ratio() < 2.0, "{}", rep.overhead_ratio());
        }
    }

    #[test]
    fn fault_free_int_product_is_untouched() {
        for fmt in [IntFormat::Int4, IntFormat::Int2] {
            let (a, b) = tensors(8, 16, 10, 5);
            let p = QuantParams::from_abs_max(fmt, Signedness::Signed, 2.0);
            let (clean, _) = matmul_int(&a, &b, p, p, 4);
            let (c, _, rep) = abft_matmul_int(&a, &b, p, p, 4, None).unwrap();
            assert_eq!(c.as_slice(), clean.as_slice(), "{fmt:?}");
            assert_eq!(rep.corrections + rep.detected_rows + rep.detected_cols, 0);
        }
    }

    #[test]
    fn injected_fp_faults_are_repaired() {
        let mode = FmaMode::hfp8_fwd_default();
        let (a, b) = tensors(12, 24, 12, 11);
        let (clean, _) = matmul_emulated(mode, &a, &b, 4);
        let mut plan = FaultPlan::new(FaultConfig {
            seed: 99,
            mac_acc_rate: 2e-3,
            mac_operand_rate: 1e-3,
            ..FaultConfig::default()
        });
        let (c, _, rep) =
            abft_matmul_emulated(mode, &a, &b, 4, Some(&mut plan)).unwrap();
        assert!(plan.counts().mac_acc_flips + plan.counts().mac_operand_flips > 0);
        assert!(rep.base_macs > 0 && rep.checksum_macs > 0);
        // Contract: every element is either bit-exact clean or within the
        // datapath's own rounding envelope of it.
        let tol = fp_tolerance_factor(24, 4);
        for (idx, (&got, &want)) in c.as_slice().iter().zip(clean.as_slice()).enumerate() {
            let envelope = tol * f64::from(want.abs()).max(1.0) * 24.0;
            assert!(
                got.to_bits() == want.to_bits()
                    || f64::from((got - want).abs()) <= envelope,
                "element {idx}: got {got}, clean {want}"
            );
        }
    }

    #[test]
    fn injected_int_faults_are_repaired_bit_exactly() {
        for fmt in [IntFormat::Int4, IntFormat::Int2] {
            let (a, b) = tensors(10, 20, 10, 13);
            let p = QuantParams::from_abs_max(fmt, Signedness::Signed, 2.0);
            let (clean, _) = matmul_int(&a, &b, p, p, 4);
            let mut plan = FaultPlan::new(FaultConfig {
                seed: 7,
                mac_operand_rate: 2e-3,
                mac_acc_rate: 2e-3,
                ..FaultConfig::default()
            });
            let (c, _, rep) = abft_matmul_int(&a, &b, p, p, 4, Some(&mut plan)).unwrap();
            assert!(plan.counts().int_code_flips + plan.counts().int_chunk_flips > 0);
            assert_eq!(c.as_slice(), clean.as_slice(), "{fmt:?}: repair must be bit-exact");
            assert!(rep.corrections > 0 || c.as_slice() == clean.as_slice());
        }
    }

    #[test]
    fn overhead_is_linear_not_triplicate() {
        let (a, b) = tensors(32, 32, 32, 1);
        let (_, _, rep) =
            abft_matmul_emulated(FmaMode::Fp16, &a, &b, 8, None).unwrap();
        // Checksums are O(mk + kn + mn) vs the O(mkn) product: far below
        // the 2.0 extra-cost of triplication at any nontrivial size.
        assert!(rep.overhead_ratio() < 1.5, "{}", rep.overhead_ratio());
        assert!(rep.overhead_ratio() > 1.0);
    }

    #[test]
    fn report_registry_round_trip() {
        let rep =
            AbftReport { base_macs: 100, checksum_macs: 20, corrections: 3, ..Default::default() };
        let mut reg = rapid_telemetry::MetricsRegistry::new();
        rep.record_into(&mut reg, "abft");
        assert_eq!(AbftReport::from_registry(&reg, "abft"), rep);
        assert_eq!(reg.counter("abft.corrections"), 3);
    }
}
