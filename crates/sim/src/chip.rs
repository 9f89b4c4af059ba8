//! Chip-level simulation: a GEMM partitioned across the chip's cores with
//! the operand distribution carried over the bidirectional ring — the
//! composition the 4-core chip of Fig 9 performs, with the MNI multicast
//! of Fig 8 broadcasting the shared operand.
//!
//! This stitches the two timing simulators together: `rapid-ring` times
//! the weight/input distribution phase, `rapid-sim`'s cores time the
//! compute, and double-buffering overlaps the next core-group transfer
//! with the current compute as the paper's software stack does (§III-E).

use crate::error::SimError;
use crate::gemm::{CoreSim, GemmJob, SimResult};
use crate::sfu::{SfuStage, SfuUnit};
use rapid_arch::geometry::CoreConfig;
use rapid_arch::precision::Precision;
use rapid_fault::FaultPlan;
use rapid_numerics::int::{IntFormat, QuantParams, Signedness};
use rapid_numerics::{NumericsError, Tensor};
use rapid_ring::sim::{memory_read, RingSim};
use rapid_telemetry::{Telemetry, TraceSink};

/// Chrome-trace process id the SFU pool's track lives under (cores use
/// their ids, the ring uses [`rapid_ring::RING_TRACE_PID`]).
pub const SFU_TRACE_PID: u32 = 1001;

/// A chip-level GEMM job.
#[derive(Debug, Clone)]
pub struct ChipGemmJob {
    /// Left operand `[m, k]` — broadcast to every core (shared input).
    pub a: Tensor,
    /// Right operand `[k, n]` — column-partitioned across cores.
    pub b: Tensor,
    /// Execution precision.
    pub precision: Precision,
}

/// Result of a chip-level simulated GEMM.
#[derive(Debug, Clone)]
pub struct ChipSimResult {
    /// The assembled result `[m, n]`.
    pub c: Tensor,
    /// Ring cycles to distribute the operands (memory → cores, with the
    /// shared input multicast).
    pub distribution_cycles: u64,
    /// Compute cycles of the slowest core.
    pub compute_cycles: u64,
    /// End-to-end cycles with distribution overlapped against compute via
    /// double buffering (`max` composition plus the first-tile fill).
    pub total_cycles: u64,
    /// Per-core GEMM results.
    pub cores: Vec<SimResult>,
}

/// Simulates a GEMM across `n_cores` healthy cores of a chip, with a
/// fault-free ring and no instrumentation.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for `n_cores == 0`,
/// [`SimError::Numerics`] for incompatible operand shapes,
/// [`SimError::Ring`] if the distribution phase fails to drain, and
/// propagates any core-simulation error.
pub fn try_run_chip_gemm(
    job: &ChipGemmJob,
    core_cfg: CoreConfig,
    n_cores: usize,
) -> Result<ChipSimResult, SimError> {
    try_run_chip_gemm_with(job, core_cfg, n_cores, 0, None, None)
}

/// [`try_run_chip_gemm`] with every execution option explicit — the single
/// full entry point of the chip simulation.
///
/// * `failed_mask` — bit `i` marks core `i` out of service: permanently
///   dead (the mask a [`rapid_fault::FaultConfig::core_failed_mask`]
///   carries) or quarantined by the health monitor (pass a
///   `rapid_health::CoreMap`'s `cores()` and `failed_mask()`, consulted
///   between batches). Masked cores take no work — their column partitions
///   are remapped across the survivors — while the ring keeps its full
///   node count (the physical interconnect is intact; a dead core's
///   station just forwards). Because every output element is an
///   independent chunked accumulation along `k`, the remap changes only
///   *which core* computes each column, never the value: the degraded
///   result is bit-identical to the healthy chip's, and only
///   `compute_cycles`/`total_cycles` pay for the loss.
/// * `ring_faults` — a fault plan applied to the operand-distribution ring
///   (drops, duplicates, slot delays). The compute phase is unaffected;
///   ring faults show up as distribution-cycle inflation, never as value
///   corruption (dropped flits are retransmitted).
/// * `tele` — with `Some`, distribution/compute/total cycle counters and
///   ring transport statistics accumulate under `chip.*`, every core
///   contributes its `sim.core<id>.*` counters, and — when the bundle
///   carries a trace sink — the trace gains the per-core sequencer/array
///   tracks, a `ring` track group with per-node flit events, and an `sfu`
///   track timing the operand quantization that runs on the SFU arrays.
///   `None` is the byte-for-byte uninstrumented path.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] when every core is masked out; otherwise
/// the same contract as [`try_run_chip_gemm`].
pub fn try_run_chip_gemm_with(
    job: &ChipGemmJob,
    core_cfg: CoreConfig,
    n_cores: usize,
    failed_mask: u64,
    ring_faults: Option<FaultPlan>,
    mut tele: Option<&mut Telemetry>,
) -> Result<ChipSimResult, SimError> {
    if n_cores == 0 {
        return Err(SimError::InvalidConfig("need at least one core".to_string()));
    }
    let active: Vec<usize> =
        (0..n_cores).filter(|&i| i >= 64 || failed_mask & (1 << i) == 0).collect();
    if active.is_empty() {
        return Err(SimError::InvalidConfig(format!(
            "all {n_cores} cores marked failed (mask {failed_mask:#x})"
        )));
    }
    if job.a.shape().len() != 2
        || job.b.shape().len() != 2
        || job.a.shape()[1] != job.b.shape()[0]
    {
        return Err(SimError::Numerics(NumericsError::ShapeMismatch {
            expected: "a [m, k] × b [k, n]".to_string(),
            actual: format!("a {:?} × b {:?}", job.a.shape(), job.b.shape()),
        }));
    }
    let (m, k) = (job.a.shape()[0], job.a.shape()[1]);
    let n = job.b.shape()[1];

    // --- Distribution phase on the ring -------------------------------
    // Every surviving core needs the whole A (multicast from memory); each
    // needs only its own remapped column slice of B (unicast reads).
    let elem_bytes = job.precision.bytes();
    let mut ring = RingSim::try_new(n_cores, 50)?;
    if let Some(plan) = ring_faults {
        ring.set_fault_plan(plan);
    }
    if tele.as_deref().is_some_and(Telemetry::tracing) {
        ring.set_trace_sink(TraceSink::new());
    }
    let a_bytes = (m * k) as f64 * elem_bytes;
    memory_read(&mut ring, 1, &active, a_bytes.ceil() as u32);
    let cols_per_core = n.div_ceil(active.len());
    for (slot, &core) in active.iter().enumerate() {
        let cols = cols_per_core.min(n.saturating_sub(slot * cols_per_core));
        if cols == 0 {
            continue;
        }
        let b_bytes = (k * cols) as f64 * elem_bytes;
        memory_read(&mut ring, 2 + core as u16, &[core], b_bytes.ceil() as u32);
    }
    let distribution_cycles = ring.run_until_idle(100_000_000)?;
    if let Some(t) = tele.as_deref_mut() {
        ring.record_metrics(&mut t.registry, "chip.ring");
        if let (Some(ring_trace), Some(sink)) = (ring.take_trace_sink(), t.trace.as_mut()) {
            sink.merge(ring_trace);
        }
        // The operand quantization that produced the distributed tensors
        // runs on the SFU arrays: time it honestly at the SFU's quantize
        // throughput and give it its own track (the cost estimate depends
        // only on element counts and lane count, never on values).
        let sfu = SfuUnit::new(core_cfg.corelet.sfu_lanes);
        let q = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 1.0);
        let (_, a_cycles) = sfu.apply(&SfuStage::Quantize(q), &job.a);
        let (_, b_cycles) = sfu.apply(&SfuStage::Quantize(q), &job.b);
        t.registry.add("chip.sfu.quantize_cycles", a_cycles + b_cycles);
        if let Some(sink) = t.trace.as_mut() {
            sink.track(SFU_TRACE_PID, 0, "sfu", "quantize");
            sink.complete(SFU_TRACE_PID, 0, "sfu", "quantize(A)", 0, a_cycles);
            sink.complete(SFU_TRACE_PID, 0, "sfu", "quantize(B)", a_cycles, b_cycles);
        }
    }

    // --- Compute phase on the surviving cores ---------------------------
    let mut c = Tensor::zeros(vec![m, n]);
    let mut cores = Vec::new();
    let mut compute_cycles = 0u64;
    for (slot, &core_id) in active.iter().enumerate() {
        let c0 = slot * cols_per_core;
        if c0 >= n {
            break;
        }
        let cols = cols_per_core.min(n - c0);
        // Slice B's columns for this core.
        let mut b_slice = Tensor::zeros(vec![k, cols]);
        for r in 0..k {
            for cc in 0..cols {
                b_slice.set(&[r, cc], job.b.get(&[r, c0 + cc]));
            }
        }
        let sim = CoreSim::new(core_cfg).with_core_id(core_id as u32);
        let r = sim.try_run_gemm(
            &GemmJob { a: job.a.clone(), b: b_slice, precision: job.precision },
            None,
            tele.as_deref_mut(),
        )?;
        for row in 0..m {
            for cc in 0..cols {
                c.set(&[row, c0 + cc], r.c.get(&[row, cc]));
            }
        }
        compute_cycles = compute_cycles.max(r.cycles);
        cores.push(r);
    }

    // Double buffering: the next tile's distribution hides under this
    // tile's compute; one initial fill is exposed. For a single tile the
    // exposure is the smaller of the two phases.
    let total_cycles = compute_cycles.max(distribution_cycles)
        + compute_cycles.min(distribution_cycles).min(distribution_cycles / 8);
    if let Some(t) = tele {
        t.registry.add("chip.distribution_cycles", distribution_cycles);
        t.registry.add("chip.compute_cycles", compute_cycles);
        t.registry.add("chip.total_cycles", total_cycles);
        t.registry.counter_max("chip.cores_active", active.len() as u64);
    }
    Ok(ChipSimResult { c, distribution_cycles, compute_cycles, total_cycles, cores })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_numerics::fma::FmaMode;
    use rapid_numerics::gemm::matmul_emulated;

    fn job(m: usize, k: usize, n: usize, p: Precision) -> ChipGemmJob {
        ChipGemmJob {
            a: Tensor::random_uniform(vec![m, k], -1.0, 1.0, 90),
            b: Tensor::random_uniform(vec![k, n], -1.0, 1.0, 91),
            precision: p,
        }
    }

    #[test]
    fn chip_gemm_is_bitexact_vs_emulated() {
        let j = job(8, 128, 256, Precision::Fp16);
        let r = try_run_chip_gemm(&j, CoreConfig::default(), 4).unwrap();
        let ci_lrf = CoreConfig::default().corelet.ci_lrf_max(Precision::Fp16) as usize;
        let (expect, _) = matmul_emulated(FmaMode::Fp16, &j.a, &j.b, ci_lrf);
        assert_eq!(r.c, expect);
    }

    #[test]
    fn more_cores_cut_compute_cycles() {
        let j = job(16, 256, 512, Precision::Fp16);
        let one = try_run_chip_gemm(&j, CoreConfig::default(), 1).unwrap();
        let four = try_run_chip_gemm(&j, CoreConfig::default(), 4).unwrap();
        assert!(
            four.compute_cycles * 3 < one.compute_cycles,
            "4-core {} vs 1-core {}",
            four.compute_cycles,
            one.compute_cycles
        );
        assert_eq!(one.c, four.c, "partitioning must not change values");
    }

    #[test]
    fn distribution_overlaps_with_compute() {
        let j = job(16, 256, 256, Precision::Fp16);
        let r = try_run_chip_gemm(&j, CoreConfig::default(), 4).unwrap();
        assert!(r.total_cycles < r.compute_cycles + r.distribution_cycles);
        assert!(r.total_cycles >= r.compute_cycles.max(r.distribution_cycles));
    }

    #[test]
    fn try_run_chip_gemm_rejects_bad_jobs() {
        let j = job(4, 16, 16, Precision::Fp16);
        assert!(matches!(
            try_run_chip_gemm(&j, CoreConfig::default(), 0),
            Err(SimError::InvalidConfig(_))
        ));
        let bad = ChipGemmJob { b: Tensor::zeros(vec![17, 16]), ..j };
        assert!(matches!(
            try_run_chip_gemm(&bad, CoreConfig::default(), 2),
            Err(SimError::Numerics(_))
        ));
    }

    #[test]
    fn ring_faults_inflate_distribution_but_never_values() {
        use rapid_fault::{FaultConfig, FaultPlan};
        let j = job(8, 128, 128, Precision::Fp16);
        let clean = try_run_chip_gemm(&j, CoreConfig::default(), 4).unwrap();
        let plan = FaultPlan::new(FaultConfig {
            seed: 11,
            ring_drop_rate: 0.02,
            ring_delay_rate: 0.01,
            ..FaultConfig::default()
        });
        let faulty = try_run_chip_gemm_with(&j, CoreConfig::default(), 4, 0, Some(plan), None)
            .expect("drops are retransmitted, not lost");
        assert_eq!(faulty.c, clean.c, "ring faults must not corrupt values");
        assert!(
            faulty.distribution_cycles >= clean.distribution_cycles,
            "faulty {} vs clean {}",
            faulty.distribution_cycles,
            clean.distribution_cycles
        );
    }

    #[test]
    fn degraded_chip_keeps_values_and_pays_cycles() {
        let j = job(8, 128, 256, Precision::Fp16);
        let healthy = try_run_chip_gemm(&j, CoreConfig::default(), 4).unwrap();
        // Core 2 dead: work remaps across cores {0, 1, 3}.
        let degraded =
            try_run_chip_gemm_with(&j, CoreConfig::default(), 4, 0b0100, None, None).unwrap();
        assert_eq!(degraded.c, healthy.c, "remap must not change values");
        assert_eq!(degraded.cores.len(), 3);
        assert!(
            degraded.compute_cycles > healthy.compute_cycles,
            "3 survivors {} should be slower than 4 cores {}",
            degraded.compute_cycles,
            healthy.compute_cycles
        );
        // All cores dead is a configuration error, not a panic.
        assert!(matches!(
            try_run_chip_gemm_with(&j, CoreConfig::default(), 4, 0b1111, None, None),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn shared_input_multicast_beats_replicated_reads() {
        // The distribution phase multicasts A once; four replicated reads
        // of the same bytes serialize at the memory port.
        let a_bytes = 64 * 256 * 2u32;
        let mut mc = RingSim::new(4, 50);
        memory_read(&mut mc, 1, &[0, 1, 2, 3], a_bytes);
        let t_mc = mc.run_until_idle(10_000_000).expect("drains");
        let mut uc = RingSim::new(4, 50);
        for (tag, core) in [(1u16, 0usize), (2, 1), (3, 2), (4, 3)] {
            memory_read(&mut uc, tag, &[core], a_bytes);
        }
        let t_uc = uc.run_until_idle(10_000_000).expect("drains");
        // One multicast stream vs four serialized streams: ~3-4x faster
        // (bubble flow control costs the multicast a little headroom).
        assert!(
            (t_mc as f64) * 2.5 < t_uc as f64,
            "multicast {t_mc} should be much faster than replicated reads {t_uc}"
        );
    }
}
