//! The core-level GEMM driver: lowers `C = A×B` onto a RaPiD core's two
//! corelets, generates the data-sequencing programs, and runs the
//! cycle-tick simulation to produce both numeric results and cycle counts.

use crate::array::{ArrayJob, Datapath, MpeArray, TOKEN_BLOCK_FREE};
use crate::error::SimError;
use crate::seq::{Link, Scratchpad, Sequencer};
use crate::token::TokenFile;
use crate::watchdog::{Watchdog, DEFAULT_WATCHDOG_WINDOW};
use rapid_arch::geometry::CoreConfig;
use rapid_arch::isa::SeqInstr;
use rapid_arch::precision::Precision;
use rapid_fault::FaultPlan;
use rapid_numerics::fma::FmaMode;
use rapid_numerics::int::{IntFormat, QuantParams, Signedness};
use rapid_numerics::{NumericsError, Tensor};
use rapid_telemetry::{MetricsRegistry, SpanCoalescer, Telemetry};

/// The stable label a [`Precision`] carries in telemetry metric names
/// (`sim.macs.fp16`, ...).
pub(crate) fn precision_label(p: Precision) -> &'static str {
    match p {
        Precision::Fp32 => "fp32",
        Precision::Fp16 => "fp16",
        Precision::Hfp8 => "hfp8",
        Precision::Int4 => "int4",
        Precision::Int2 => "int2",
    }
}

/// A GEMM job for the core simulator.
#[derive(Debug, Clone)]
pub struct GemmJob {
    /// Left operand `[m, k]` (activations; FP8 (1,4,3) side in HFP8).
    pub a: Tensor,
    /// Right operand `[k, n]` (weights; stationary in the LRFs).
    pub b: Tensor,
    /// Execution precision (FP16, HFP8 or INT4/INT2).
    pub precision: Precision,
}

/// Per-corelet execution report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreletReport {
    /// Total cycles to drain this corelet.
    pub cycles: u64,
    /// Cycles per phase: `[blockload, fill, stream, input-starved]`.
    pub phase_cycles: [u64; 4],
    /// MACs issued.
    pub macs: u64,
    /// Zero-gated MACs.
    pub zero_gated: u64,
    /// Cycles the weight sequencer stalled on the block-free token.
    pub weight_stalls: u64,
}

/// Result of a simulated GEMM.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// The numeric result `[m, n]`, bit-exact per the emulated pipelines.
    pub c: Tensor,
    /// Wall cycles (max over corelets; they run concurrently).
    pub cycles: u64,
    /// Per-corelet reports.
    pub corelets: Vec<CoreletReport>,
}

/// A RaPiD core (two corelets sharing the L1, each with its own
/// 128 B/cycle port, §III-D).
#[derive(Debug, Clone)]
pub struct CoreSim {
    cfg: CoreConfig,
    core_id: u32,
}

impl CoreSim {
    /// Creates a simulator for a core configuration. Scratchpads are
    /// SECDED-protected (the RaPiD L1 arrays carry ECC).
    pub(crate) fn new(cfg: CoreConfig) -> Self {
        Self { cfg, core_id: 0 }
    }

    /// Sets the core id used to label this core's telemetry (metric name
    /// prefixes and trace track groups). Chip-level runs number their
    /// cores; a standalone core is core 0.
    pub(crate) fn with_core_id(mut self, core_id: u32) -> Self {
        self.core_id = core_id;
        self
    }

    /// The default RaPiD core.
    pub fn rapid() -> Self {
        Self::new(CoreConfig::default())
    }

    /// The core configuration this simulator models.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Runs a GEMM on the core, splitting output-column tiles across the
    /// corelets.
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes are incompatible or `precision` is
    /// [`Precision::Fp32`] (SFU-only). Use [`CoreSim::try_run_gemm`] to get
    /// an error instead.
    // Infallible wrapper: the only failures are the validated job shape
    // and precision; the watchdog cannot trip without fault injection.
    #[allow(clippy::expect_used)]
    pub fn run_gemm(&self, job: &GemmJob) -> SimResult {
        self.try_run_gemm(job, None, None).expect("invalid GEMM job")
    }

    /// Runs a GEMM on the core, returning an error for malformed jobs
    /// (non-matrix operands, mismatched inner dimensions, or the SFU-only
    /// FP32 precision) instead of panicking — the single full entry point
    /// of the core simulation.
    ///
    /// * `faults` — when a plan with a non-zero `seq_stall_rate` is
    ///   supplied, the corelet sequencers randomly lose their token-grant
    ///   slot for a burst of cycles, and the run-loop watchdog converts any
    ///   resulting wedge into a structured [`SimError::Deadlock`]. `None`
    ///   (or an all-zero-rate plan) is the bit-exact fast path.
    /// * `tele` — when `Some`, per-corelet counters (cycles by phase, MACs,
    ///   zero-gated MACs, sequencer stalls and elements moved) accumulate
    ///   into the registry under `sim.core<id>.c<corelet>.*`, and — when
    ///   the bundle carries a trace sink — every corelet contributes three
    ///   Chrome-trace tracks (weight sequencer, input sequencer, array
    ///   phases). `None` is byte-for-byte the uninstrumented path.
    ///
    /// On a watchdog deadlock the partial counters collected up to the
    /// failure cycle are flushed into the registry (plus a
    /// `sim.watchdog.deadlocks` increment and a `deadlock` trace instant)
    /// before the error returns, so stall diagnostics carry the counter
    /// snapshot at the failure cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Numerics`] wrapping
    /// [`NumericsError::ShapeMismatch`] when the operands are not
    /// `[m, k] × [k, n]` matrices or [`NumericsError::InvalidFormat`] when
    /// `precision` is [`Precision::Fp32`] (which the MPE array cannot run),
    /// and [`SimError::Deadlock`] if the watchdog sees no forward progress
    /// for its whole window.
    pub fn try_run_gemm(
        &self,
        job: &GemmJob,
        mut faults: Option<&mut FaultPlan>,
        mut tele: Option<&mut Telemetry>,
    ) -> Result<SimResult, SimError> {
        if job.a.shape().len() != 2
            || job.b.shape().len() != 2
            || job.a.shape()[1] != job.b.shape()[0]
        {
            return Err(SimError::Numerics(NumericsError::ShapeMismatch {
                expected: "a [m, k] × b [k, n]".to_string(),
                actual: format!("a {:?} × b {:?}", job.a.shape(), job.b.shape()),
            }));
        }
        if job.precision == Precision::Fp32 {
            return Err(SimError::Numerics(NumericsError::InvalidFormat(
                "FP32 GEMMs do not execute on the MPE array (SFU-only precision)".to_string(),
            )));
        }
        let (m, k) = (job.a.shape()[0] as u64, job.a.shape()[1] as u64);
        let n = job.b.shape()[1] as u64;

        // Quantize operands once, as they would be stored in the L1.
        let (qa_t, qb_t, datapath) = prepare_operands(job);

        // Partition: output-column tiles round-robin across the corelets;
        // when there are fewer tiles than corelets, replicate the weights
        // and split the streaming rows instead (the compiler's Spatial
        // split, Fig 5 discussion).
        let co_tile = u64::from(self.cfg.corelet.co_tile());
        let tiles: Vec<(u64, u64)> = (0..n.div_ceil(co_tile))
            .map(|t| (t * co_tile, co_tile.min(n - t * co_tile)))
            .collect();
        let n_corelets = self.cfg.corelets as usize;
        // (row_start, row_count, tiles) per corelet.
        type Share = (u64, u64, Vec<(u64, u64)>);
        let mut shares: Vec<Share> = Vec::new();
        if tiles.len() >= n_corelets {
            let mut per: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_corelets];
            for (i, t) in tiles.iter().enumerate() {
                per[i % n_corelets].push(*t);
            }
            shares.extend(per.into_iter().filter(|t| !t.is_empty()).map(|t| (0, m, t)));
        } else {
            let group = n_corelets / tiles.len();
            let rows = m.div_ceil(group as u64);
            for t in &tiles {
                let mut r0 = 0u64;
                while r0 < m {
                    let rc = rows.min(m - r0);
                    shares.push((r0, rc, vec![*t]));
                    r0 += rc;
                }
            }
        }

        let mut c = Tensor::zeros(vec![m as usize, n as usize]);
        let mut reports = Vec::new();
        let mut wall = 0u64;
        for (idx, (row0, rows, tiles)) in shares.into_iter().enumerate() {
            let (outputs, report) = self.run_corelet(
                &qa_t,
                &qb_t,
                row0,
                rows,
                k,
                n,
                &tiles,
                job.precision,
                datapath.clone(),
                faults.as_deref_mut(),
                idx as u32,
                tele.as_deref_mut(),
            )?;
            let out = c.as_mut_slice();
            for (r, cc, v) in outputs {
                out[((row0 + r) * n + cc) as usize] = v;
            }
            wall = wall.max(report.cycles);
            reports.push(report);
        }
        if let Some(t) = tele {
            let reg = &mut t.registry;
            reg.incr("sim.gemm.runs");
            reg.add("sim.gemm.wall_cycles", wall);
            let macs: u64 = reports.iter().map(|r| r.macs).sum();
            let gated: u64 = reports.iter().map(|r| r.zero_gated).sum();
            reg.add(&format!("sim.macs.{}", precision_label(job.precision)), macs);
            reg.add("sim.macs.zero_gated", gated);
            for r in &reports {
                reg.observe("sim.corelet_cycles", r.cycles);
            }
        }
        Ok(SimResult { c, cycles: wall, corelets: reports })
    }

    /// Runs one corelet's share and returns its outputs and report.
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn run_corelet(
        &self,
        a: &Tensor,
        b: &Tensor,
        row0: u64,
        m: u64,
        k: u64,
        n: u64,
        tiles: &[(u64, u64)],
        precision: Precision,
        datapath: Datapath,
        mut faults: Option<&mut FaultPlan>,
        corelet_idx: u32,
        mut tele: Option<&mut Telemetry>,
    ) -> Result<(Vec<(u64, u64, f32)>, CoreletReport), SimError> {
        let corelet = self.cfg.corelet;
        let ci_lrf = u64::from(corelet.ci_lrf_max(precision));
        let n_blocks = k.div_ceil(ci_lrf);
        let total_m = a.shape()[0] as u64;
        let b_off = (total_m * k) as usize;

        // Scratchpad image: the whole A at 0, B at b_off
        // (element-addressed); this corelet reads rows [row0, row0+m).
        let mut spad = Scratchpad::new((total_m * k + k * n) as usize).with_ecc();
        spad.store_slice(0, a.as_slice());
        spad.store_slice(b_off, b.as_slice());

        // Weight program: wait for the LRF to be free, then stream the
        // stationary block row by row (ci-major within the block).
        let mut wprog = Vec::new();
        for &(col, width) in tiles {
            for blk in 0..n_blocks {
                let ci0 = blk * ci_lrf;
                let ci_b = (k - ci0).min(ci_lrf);
                wprog.push(SeqInstr::WaitToken { token: TOKEN_BLOCK_FREE, count: 1 });
                for ci in 0..ci_b {
                    wprog.push(SeqInstr::Read {
                        addr: (b_off as u64 + (ci0 + ci) * n + col) as u32,
                        len: width as u32,
                        stride: 1,
                    });
                }
            }
        }

        // Input program: for each (tile, block), replay every position's
        // slice of A (reuse across columns happens inside the array).
        let mut iprog = Vec::new();
        for _ in tiles {
            for blk in 0..n_blocks {
                let ci0 = blk * ci_lrf;
                let ci_b = (k - ci0).min(ci_lrf);
                for row in row0..row0 + m {
                    iprog.push(SeqInstr::Read {
                        addr: (row * k + ci0) as u32,
                        len: ci_b as u32,
                        stride: 1,
                    });
                }
            }
        }

        let elem_bytes = precision.bytes();
        let mut wseq = Sequencer::new(wprog, elem_bytes);
        let mut iseq = Sequencer::new(iprog, elem_bytes);
        let mut wlink = Link::new(16 * 1024);
        let mut ilink = Link::new(1024);
        let mut tokens = TokenFile::new(2);
        tokens.signal(TOKEN_BLOCK_FREE); // the first block may load at once

        let job = ArrayJob { m, k, tiles: tiles.to_vec(), precision };
        let mut array = MpeArray::try_new(corelet, job, datapath)?;

        let mut cycles = 0u64;
        let port = f64::from(corelet.l1_bw_bytes_per_cycle);
        // Watchdog: a change-detector over the machine's progress counters
        // replaces the old hard cycle cap, so a wedge surfaces as a
        // structured deadlock report in bounded time.
        let mut dog = Watchdog::new(DEFAULT_WATCHDOG_WINDOW);
        // Fault-injected sequencer stalls: remaining burst cycles per
        // sequencer (a stalled sequencer loses its port turn entirely).
        let (mut wstall, mut istall) = (0u32, 0u32);

        // Trace plumbing: three tracks per corelet (weight sequencer,
        // input sequencer, array phases). Per-cycle labels are derived by
        // diffing the machine's own counters, so the trace is a pure
        // observer — nothing here feeds back into the simulation.
        let pid = self.core_id;
        let tid = corelet_idx * 3;
        let tracing = tele.as_deref().is_some_and(Telemetry::tracing);
        let mut spans = if tracing {
            if let Some(sink) = tele.as_deref_mut().and_then(|t| t.trace.as_mut()) {
                let p = format!("core{}", self.core_id);
                sink.track(pid, tid, &p, &format!("corelet{corelet_idx}.wseq"));
                sink.track(pid, tid + 1, &p, &format!("corelet{corelet_idx}.iseq"));
                sink.track(pid, tid + 2, &p, &format!("corelet{corelet_idx}.array"));
            }
            Some((
                SpanCoalescer::new(pid, tid, "seq"),
                SpanCoalescer::new(pid, tid + 1, "seq"),
                SpanCoalescer::new(pid, tid + 2, "array"),
            ))
        } else {
            None
        };

        let mut failure = None;
        while !array.is_done() {
            if let Some(plan) = faults.as_deref_mut().filter(|p| p.seq_enabled()) {
                if wstall == 0 {
                    wstall = plan.seq_stall().unwrap_or(0);
                }
                if istall == 0 {
                    istall = plan.seq_stall().unwrap_or(0);
                }
            }
            // Particle strikes on the scratchpad array: at most one bit
            // per cycle, uniformly over the stored words.
            if let Some(plan) = faults.as_deref_mut().filter(|p| p.spad_enabled()) {
                if let Some((addr, bit)) = plan.spad_flip(spad.len() as u64) {
                    spad.inject_flip(addr as usize, bit);
                }
            }
            let before = spans.as_ref().map(|_| {
                (
                    array.phase_cycles,
                    wseq.stall_cycles,
                    wseq.elems_moved,
                    wseq.waiting_on(),
                    iseq.stall_cycles,
                    iseq.elems_moved,
                )
            });
            let mut budget = port;
            // The L1 port serves the weight stream first (block loads are
            // the critical path), then input streaming.
            if wstall > 0 {
                wstall -= 1;
                wseq.stall_cycles += 1;
            } else {
                wseq.tick(&spad, &mut wlink, &mut tokens, &mut budget);
            }
            if istall > 0 {
                istall -= 1;
                iseq.stall_cycles += 1;
            } else {
                iseq.tick(&spad, &mut ilink, &mut tokens, &mut budget);
            }
            array.tick(&mut wlink, &mut ilink, &mut tokens);
            if let (Some((wsc, isc, asc)), Some(b)) = (spans.as_mut(), before) {
                if let Some(sink) = tele.as_deref_mut().and_then(|t| t.trace.as_mut()) {
                    let (phases, wst, wel, wwait, ist, iel) = b;
                    asc.observe(sink, cycles, phase_delta_label(phases, array.phase_cycles));
                    wsc.observe(sink, cycles, seq_cycle_label(&wseq, wst, wel));
                    isc.observe(sink, cycles, seq_cycle_label(&iseq, ist, iel));
                    // A sequencer that was parked on a WaitToken and moved
                    // on this cycle just had its token granted.
                    if wwait.is_some() && wseq.waiting_on() != wwait {
                        sink.instant(pid, tid, "seq", "token_grant", cycles);
                    }
                }
            }
            cycles += 1;
            // A read hit a double-bit upset this cycle: SECDED detected
            // it but the delivered word was corrupt. Escalate instead of
            // computing on poisoned data.
            if let Some(addr) = spad.take_uncorrectable() {
                failure = Some(SimError::EccUncorrectable { cycle: cycles, addr });
                break;
            }
            let marker = array
                .progress_marker()
                .wrapping_add(wseq.elems_moved)
                .wrapping_add(iseq.elems_moved)
                .wrapping_add(wseq.pc() as u64)
                .wrapping_add(iseq.pc() as u64);
            if dog.observe(cycles, marker) {
                failure = Some(SimError::Deadlock {
                    cycle: cycles,
                    sequencer_states: vec![
                        wseq.snapshot("weights".to_string()),
                        iseq.snapshot("inputs".to_string()),
                    ],
                    waiting_tokens: tokens.snapshot(),
                });
                break;
            }
        }
        // The one exit: every run, failed or not, flushes the corelet's
        // counters and closes its three trace tracks at the last cycle, so
        // a failure's diagnosis carries the counter snapshot it died with.
        if let Some(t) = tele {
            let event = match &failure {
                Some(SimError::EccUncorrectable { .. }) => {
                    t.registry.incr("sim.ecc.uncorrectable");
                    Some("ecc_uncorrectable")
                }
                Some(SimError::Deadlock { .. }) => {
                    t.registry.incr("sim.watchdog.deadlocks");
                    t.registry.counter_max("sim.watchdog.deadlock_cycle", cycles);
                    Some("deadlock")
                }
                _ => None,
            };
            record_corelet_counters(
                &mut t.registry,
                self.core_id,
                corelet_idx,
                cycles,
                &array,
                &wseq,
                &iseq,
                &spad,
            );
            if let (Some((mut wsc, mut isc, mut asc)), Some(sink)) =
                (spans.take(), t.trace.as_mut())
            {
                wsc.finish(sink, cycles);
                isc.finish(sink, cycles);
                asc.finish(sink, cycles);
                if let Some(name) = event {
                    sink.instant(pid, tid + 2, "array", name, cycles);
                }
            }
        }
        if let Some(e) = failure {
            return Err(e);
        }
        let report = CoreletReport {
            cycles,
            phase_cycles: array.phase_cycles,
            macs: array.macs,
            zero_gated: array.zero_gated,
            weight_stalls: wseq.stall_cycles,
        };
        Ok((array.outputs, report))
    }
}

/// Which array phase consumed the cycle, from the phase-counter delta.
fn phase_delta_label(before: [u64; 4], after: [u64; 4]) -> Option<&'static str> {
    const LABELS: [&str; 4] = ["blockload", "fill", "stream", "starved"];
    (0..4).find(|&i| after[i] > before[i]).map(|i| LABELS[i])
}

/// What a sequencer did this cycle, from its own counters.
fn seq_cycle_label(seq: &Sequencer, stalls_before: u64, elems_before: u64) -> Option<&'static str> {
    if seq.stall_cycles > stalls_before {
        Some("stall")
    } else if seq.elems_moved > elems_before {
        Some("stream")
    } else {
        None
    }
}

/// Accumulates one corelet's end-of-run (or failure-cycle) counters into
/// the registry under `sim.core<id>.c<corelet>.*`, plus the chip-wide
/// `sim.ecc.{sec,ded}` protection counters.
#[allow(clippy::too_many_arguments)]
fn record_corelet_counters(
    reg: &mut MetricsRegistry,
    core_id: u32,
    corelet_idx: u32,
    cycles: u64,
    array: &MpeArray,
    wseq: &Sequencer,
    iseq: &Sequencer,
    spad: &Scratchpad,
) {
    reg.add("sim.ecc.sec", spad.ecc_sec());
    reg.add("sim.ecc.ded", spad.ecc_ded());
    let p = format!("sim.core{core_id}.c{corelet_idx}");
    reg.add(&format!("{p}.cycles"), cycles);
    for (label, v) in
        ["blockload", "fill", "stream", "starved"].iter().zip(array.phase_cycles.iter())
    {
        reg.add(&format!("{p}.{label}_cycles"), *v);
    }
    reg.add(&format!("{p}.macs"), array.macs);
    reg.add(&format!("{p}.zero_gated"), array.zero_gated);
    reg.add(&format!("{p}.wseq_stall_cycles"), wseq.stall_cycles);
    reg.add(&format!("{p}.iseq_stall_cycles"), iseq.stall_cycles);
    reg.add(&format!("{p}.wseq_elems"), wseq.elems_moved);
    reg.add(&format!("{p}.iseq_elems"), iseq.elems_moved);
}

/// Quantizes the operands for storage and picks the array datapath.
/// Float values are [`FpFormat::quantize`]'s; INT codes
/// come from the vector quantizer, element-wise identical to
/// [`QuantParams::fake_quantize`]'s once dequantized.
///
/// [`FpFormat::quantize`]: rapid_numerics::FpFormat::quantize
fn prepare_operands(job: &GemmJob) -> (Tensor, Tensor, Datapath) {
    let float = |mode: FmaMode| {
        let (fa, fb) = mode.operand_formats();
        (job.a.map(|v| fa.quantize(v)), job.b.map(|v| fb.quantize(v)), Datapath::Float { mode })
    };
    match job.precision {
        Precision::Fp16 => float(FmaMode::Fp16),
        Precision::Hfp8 => float(FmaMode::hfp8_fwd_default()),
        Precision::Int4 | Precision::Int2 => {
            let fmt =
                if job.precision == Precision::Int4 { IntFormat::Int4 } else { IntFormat::Int2 };
            let qa = QuantParams::from_abs_max(fmt, Signedness::Signed, job.a.max_abs());
            let qb = QuantParams::from_abs_max(fmt, Signedness::Signed, job.b.max_abs());
            // Store the dequantized grid values; the FXU re-derives codes.
            let mut codes = Vec::new();
            let mut grid = |t: &Tensor, q: QuantParams| {
                q.quantize_slice_into(t.as_slice(), &mut codes);
                let values = codes.iter().map(|&c| q.dequantize(c)).collect();
                Tensor::from_vec(t.shape().to_vec(), values)
            };
            (grid(&job.a, qa), grid(&job.b, qb), Datapath::Int { qa, qb })
        }
        // try_run_gemm rejects FP32 before operands are prepared.
        Precision::Fp32 => unreachable!("FP32 rejected by try_run_gemm"),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_numerics::gemm::{matmul_emulated, matmul_int};

    fn job(m: usize, k: usize, n: usize, p: Precision, seed: u64) -> GemmJob {
        GemmJob {
            a: Tensor::random_uniform(vec![m, k], -1.0, 1.0, seed),
            b: Tensor::random_uniform(vec![k, n], -1.0, 1.0, seed + 1),
            precision: p,
        }
    }

    #[test]
    fn fp16_simulation_matches_emulated_gemm_bitexactly() {
        let core = CoreSim::rapid();
        let j = job(16, 200, 96, Precision::Fp16, 50);
        let r = core.run_gemm(&j);
        let ci_lrf = core.cfg.corelet.ci_lrf_max(Precision::Fp16) as usize;
        let (expect, _) = matmul_emulated(FmaMode::Fp16, &j.a, &j.b, ci_lrf);
        assert_eq!(r.c, expect, "simulated values must be bit-exact");
    }

    #[test]
    fn hfp8_simulation_matches_emulated_gemm_bitexactly() {
        let core = CoreSim::rapid();
        let j = job(8, 130, 70, Precision::Hfp8, 52);
        let r = core.run_gemm(&j);
        let ci_lrf = core.cfg.corelet.ci_lrf_max(Precision::Hfp8) as usize;
        let (expect, _) = matmul_emulated(FmaMode::hfp8_fwd_default(), &j.a, &j.b, ci_lrf);
        assert_eq!(r.c, expect);
    }

    #[test]
    fn int4_simulation_matches_emulated_int_gemm() {
        let core = CoreSim::rapid();
        let j = job(4, 96, 64, Precision::Int4, 54);
        let r = core.run_gemm(&j);
        let qa = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, j.a.max_abs());
        let qb = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, j.b.max_abs());
        let (expect, _) = matmul_int(&j.a, &j.b, qa, qb, 64);
        assert_eq!(r.c, expect);
    }

    #[test]
    fn int2_simulation_matches_emulated_int_gemm() {
        // The double-pumped INT2 path (future work in the paper; the
        // engines exist in the FXU).
        let core = CoreSim::rapid();
        let j = job(4, 64, 64, Precision::Int2, 55);
        let r = core.run_gemm(&j);
        let qa = QuantParams::from_abs_max(IntFormat::Int2, Signedness::Signed, j.a.max_abs());
        let qb = QuantParams::from_abs_max(IntFormat::Int2, Signedness::Signed, j.b.max_abs());
        let (expect, _) = matmul_int(&j.a, &j.b, qa, qb, 64);
        assert_eq!(r.c, expect);
        // INT2 streams 128 channels/cycle: positions complete in 1 cycle.
        let ri = core.run_gemm(&job(4, 64, 64, Precision::Int4, 55));
        assert!(r.corelets[0].phase_cycles[2] <= ri.corelets[0].phase_cycles[2]);
    }

    #[test]
    fn try_run_gemm_rejects_bad_jobs() {
        let core = CoreSim::rapid();
        let bad_shape = GemmJob {
            a: Tensor::zeros(vec![2, 3]),
            b: Tensor::zeros(vec![4, 2]),
            precision: Precision::Fp16,
        };
        assert!(matches!(
            core.try_run_gemm(&bad_shape, None, None),
            Err(SimError::Numerics(NumericsError::ShapeMismatch { .. }))
        ));
        let fp32 = GemmJob {
            a: Tensor::zeros(vec![2, 3]),
            b: Tensor::zeros(vec![3, 2]),
            precision: Precision::Fp32,
        };
        assert!(matches!(
            core.try_run_gemm(&fp32, None, None),
            Err(SimError::Numerics(NumericsError::InvalidFormat(_)))
        ));
    }

    #[test]
    fn seq_stall_faults_slow_the_run_but_stay_bit_exact() {
        use rapid_fault::{FaultConfig, FaultPlan};
        let core = CoreSim::rapid();
        let j = job(8, 128, 64, Precision::Fp16, 64);
        let clean = core.run_gemm(&j);
        let mut plan = FaultPlan::new(FaultConfig {
            seq_stall_rate: 0.01,
            seq_stall_cycles: 16,
            ..FaultConfig::default()
        });
        let faulty = core.try_run_gemm(&j, Some(&mut plan), None).expect("stalls only delay");
        // Sequencer stalls delay data movement but never corrupt it.
        assert_eq!(faulty.c, clean.c, "values must survive stall faults");
        assert!(faulty.cycles > clean.cycles, "stalls must cost cycles");
        assert!(plan.counts().seq_stalls > 0, "injector must have fired");
    }

    #[test]
    fn ecc_corrects_injected_spad_flips_bit_exactly() {
        use rapid_fault::{FaultConfig, FaultPlan};
        let core = CoreSim::rapid();
        let j = job(8, 128, 64, Precision::Fp16, 71);
        let clean = core.run_gemm(&j);
        let mut plan = FaultPlan::new(FaultConfig {
            spad_flip_rate: 0.004,
            seed: 3,
            ..FaultConfig::default()
        });
        let mut tele = rapid_telemetry::Telemetry::new();
        let faulty = core
            .try_run_gemm(&j, Some(&mut plan), Some(&mut tele))
            .expect("SEC absorbs single flips");
        assert_eq!(faulty.c, clean.c, "ECC must deliver bit-exact data");
        assert!(plan.counts().spad_flips > 0, "injector must have fired");
        assert!(
            tele.registry.counter("sim.ecc.sec") > 0,
            "at least one flip must be corrected on read"
        );
        assert_eq!(tele.registry.counter("sim.ecc.ded"), 0);
    }

    #[test]
    fn double_spad_flips_escalate_to_a_structured_error() {
        use rapid_fault::{FaultConfig, FaultPlan};
        let core = CoreSim::rapid();
        // A flip every cycle; two strikes landing in one word before a
        // read are a matter of time, and SECDED must then refuse to
        // deliver. Scan a few deterministic seeds so the test does not
        // hinge on one stream's collision luck.
        let j = job(8, 128, 512, Precision::Fp16, 73);
        let escalated = (0..16u64).any(|seed| {
            let mut plan = FaultPlan::new(FaultConfig {
                spad_flip_rate: 1.0,
                seed,
                ..FaultConfig::default()
            });
            match core.try_run_gemm(&j, Some(&mut plan), None) {
                Err(SimError::EccUncorrectable { cycle, .. }) => {
                    assert!(cycle > 0);
                    true
                }
                Ok(_) => false,
                other => panic!("expected EccUncorrectable or Ok, got {other:?}"),
            }
        });
        assert!(escalated, "no seed produced a double-bit upset on a live word");
    }

    #[test]
    fn corelets_split_tiles_and_run_concurrently() {
        let core = CoreSim::rapid();
        // n = 256 -> 4 tiles -> 2 per corelet.
        let j = job(8, 64, 256, Precision::Fp16, 56);
        let r = core.run_gemm(&j);
        assert_eq!(r.corelets.len(), 2);
        // Wall cycles ≈ per-corelet cycles, not their sum.
        let sum: u64 = r.corelets.iter().map(|c| c.cycles).sum();
        assert!(r.cycles < sum, "corelets must overlap");
    }

    #[test]
    fn int4_streams_faster_than_fp16() {
        let core = CoreSim::rapid();
        let jf = job(32, 256, 64, Precision::Fp16, 58);
        let ji = job(32, 256, 64, Precision::Int4, 58);
        let rf = core.run_gemm(&jf);
        let ri = core.run_gemm(&ji);
        // INT4 consumes 64 channels/cycle vs FP16's 8: stream cycles drop
        // by ~8x, though block-load costs dilute the end-to-end gain.
        let sf = rf.corelets[0].phase_cycles[2];
        let si = ri.corelets[0].phase_cycles[2];
        assert!(si * 6 < sf, "int4 stream {si} vs fp16 {sf}");
        assert!(ri.cycles < rf.cycles);
    }

    #[test]
    fn zero_gating_visible_in_sparse_inputs() {
        let core = CoreSim::rapid();
        let mut j = job(8, 64, 64, Precision::Fp16, 60);
        for (i, v) in j.a.as_mut_slice().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let r = core.run_gemm(&j);
        let gated: u64 = r.corelets.iter().map(|c| c.zero_gated).sum();
        let macs: u64 = r.corelets.iter().map(|c| c.macs).sum();
        let frac = gated as f64 / macs as f64;
        assert!((frac - 0.5).abs() < 0.05, "gated fraction {frac}");
    }

    /// Operand values that stress the quantizers: ±0, NaN, ±inf, values
    /// beyond every format's range, exact round-to-nearest-even ties on the
    /// FP16 and FP8 grids and on a unit INT grid, padded to `len` with
    /// random bit patterns and random values in `[-8, 8)`.
    fn edge_values(seed: u64, len: usize) -> Vec<f32> {
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};
        let mut v = vec![0.0, -0.0, f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        v.extend([65520.0, -65520.0, 1e30, -1e30, 248.0, -464.0, 100.0, -7.5]);
        v.extend((-8..8).map(|c| c as f32 + 0.5));
        for (e, man_bits) in [(-14, 10), (-1, 10), (0, 10), (15, 10), (-6, 3), (0, 3), (7, 3)] {
            let half_ulp = 2f32.powi(-man_bits - 1);
            for odd in [1.0, 3.0] {
                let tie = 2f32.powi(e) * (1.0 + odd * half_ulp);
                v.extend([tie, -tie]);
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        while v.len() < len {
            let bits = (rng.next_u64() >> 32) as u32;
            v.push(if bits & 1 == 0 { f32::from_bits(bits) } else { rng.gen_range(-8.0..8.0) });
        }
        v
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn prepare_operands_matches_qtensor_and_fake_quantize_bitwise() {
        // 287 and 205 elements: the vector quantizer's 8-lane body and tail.
        let (m, k, n) = (7, 41, 5);
        for p in [Precision::Fp16, Precision::Hfp8, Precision::Int4, Precision::Int2] {
            // INT scales come from abs-max. `a` holds ±inf, so its scale is
            // 1: its ties are exact and 100.0 saturates. `b` is finite and
            // gets exact ties on its own grid, plus ±0 and NaN.
            let fmt = if p == Precision::Int2 { IntFormat::Int2 } else { IntFormat::Int4 };
            let mut b = Tensor::random_uniform(vec![k, n], -1.0, 1.0, 90);
            b.as_mut_slice()[..3].copy_from_slice(&[0.0, -0.0, f32::NAN]);
            let b_scale = QuantParams::from_abs_max(fmt, Signedness::Signed, b.max_abs());
            let half_step = b_scale.dequantize(1) * 0.5;
            b.as_mut_slice()[3..5].copy_from_slice(&[half_step, -half_step]);
            for seed in 0..4 {
                let a = Tensor::from_vec(vec![m, k], edge_values(seed, m * k));
                let job = GemmJob { a, b: b.clone(), precision: p };
                let (qa_t, qb_t, datapath) = prepare_operands(&job);
                let (expect_a, expect_b) = match (p, datapath) {
                    (Precision::Fp16 | Precision::Hfp8, Datapath::Float { mode }) => {
                        let (fa, fb) = mode.operand_formats();
                        (job.a.map(|v| fa.quantize(v)), job.b.map(|v| fb.quantize(v)))
                    }
                    (Precision::Int4 | Precision::Int2, Datapath::Int { qa, qb }) => {
                        assert_eq!(qa.scale(), 1.0);
                        assert_eq!(qb, b_scale);
                        (job.a.map(|v| qa.fake_quantize(v)), job.b.map(|v| qb.fake_quantize(v)))
                    }
                    (p, d) => panic!("{p}: unexpected datapath {d:?}"),
                };
                assert_eq!(qa_t.shape(), job.a.shape());
                assert_eq!(qb_t.shape(), job.b.shape());
                assert_eq!(bits(&qa_t), bits(&expect_a), "{p} A, seed {seed}");
                assert_eq!(bits(&qb_t), bits(&expect_b), "{p} B, seed {seed}");
            }
        }
    }

    /// E9: the analytical model calibration. The paper claims its model is
    /// within 1% of silicon; we require the analytical mapping to land
    /// within a few percent of the cycle simulation.
    #[test]
    fn analytical_model_calibrates_to_simulation() {
        use rapid_compiler::mapping::map_layer;
        use rapid_workloads::graph::Op;
        let core = CoreSim::rapid();
        for (m, k, n, p) in [
            (32usize, 256usize, 128usize, Precision::Fp16),
            (16, 512, 128, Precision::Hfp8),
            (64, 256, 64, Precision::Int4),
        ] {
            let j = job(m, k, n, p, 62);
            let r = core.run_gemm(&j);
            let op = Op::Gemm { m: m as u64, k: k as u64, n: n as u64, weighted: true };
            let cost = map_layer(&op, p, 1, &core.cfg.corelet, core.cfg.corelets);
            let predicted = cost.total_cycles();
            let err = (predicted - r.cycles as f64).abs() / r.cycles as f64;
            assert!(
                err < 0.05,
                "{p}: predicted {predicted:.0} vs simulated {} ({:.1}% off)",
                r.cycles,
                err * 100.0
            );
        }
    }
}
