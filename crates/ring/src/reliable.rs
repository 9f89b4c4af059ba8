//! End-to-end reliable all-reduce: sequence-numbered chunks with
//! ack/retransmit over the chip-to-chip ring.
//!
//! This module is the simulator of the paper's chip-to-chip exchange
//! (§IV-A, §V-F): chips joined into an outer ring ring-all-reduce their
//! FP16 gradients (reduce-scatter), then broadcast updated 8-bit HFP8
//! weights (all-gather). Each phase takes `n − 1` steps, every step
//! moving one shard per link at the training system's link bandwidth
//! plus a fixed step latency. The exchange carries values and survives
//! the delivery faults a [`FaultPlan`] injects — drops, duplicates and
//! slot holds — and reports what surviving them cost in a [`RingHealth`].
//! Fault-free, it takes [`RingHealth::ideal_cycles`]: never less than
//! `model::training`'s bandwidth law `(n − 1)/n · elems · 3 B / bw`, and
//! more by at most `(n − 1) · (2 · step latency + one gradient chunk + one
//! weight chunk)`.
//!
//! Protocol (per link, per phase step):
//!
//! ```text
//!   sender                              receiver
//!     │ ── chunk(seq=s) ───────────────▶ │   deliver: ack(s)
//!     │ ◀─────────────────────── ack(s) ─┤
//!     │ ── chunk(seq=s+1) ──────────X    │   dropped: no ack
//!     │    …timeout·2^r cycles…          │
//!     │ ── chunk(seq=s+1) [retry] ─────▶ │   deliver: ack(s+1)
//!     │ ── chunk(seq=s+2) ═══════════▶▶ │   duplicated: second copy
//!     │                                  │   discarded by seq dedupe
//! ```
//!
//! * every chunk carries a sequence number; the receiver acknowledges each
//!   delivered chunk and **discards duplicates by sequence number**, so a
//!   [`DeliveryFault::Duplicate`] can never double-accumulate a shard;
//! * an unacknowledged chunk is retransmitted after a timeout that backs
//!   off exponentially (`timeout · 2^retries`, capped), bounding the
//!   retransmit queue; a chunk that exhausts [`MAX_RETRIES`] fails the
//!   exchange — the documented fault-rate ceiling;
//! * acknowledgements are single control flits on the reverse direction of
//!   the bidirectional ring and are modeled lossless (the fault plan's
//!   delivery stream applies to data chunks only), matching how the MNI
//!   treats request flits;
//! * a phase step's shard is accumulated only after every chunk is acked,
//!   so the **addition order is fixed by the ring topology** regardless of
//!   fault timing — the reduced values are bit-identical to the fault-free
//!   run at any survivable fault rate.

use rapid_arch::geometry::SystemConfig;
use rapid_fault::{DeliveryFault, FaultPlan};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Gradient elements per sequence-numbered chunk.
pub const CHUNK_ELEMS: usize = 1024;

/// Fixed per-step message latency in cycles (link + protocol).
pub const STEP_LATENCY_CYCLES: u64 = 500;

/// Retransmits allowed per chunk before the exchange fails. With
/// independent drop probability `p` the chance a chunk exhausts them is
/// `p^(MAX_RETRIES + 1)`; 8 makes that < 1e-16 at the documented 1 %
/// ceiling.
pub const MAX_RETRIES: u32 = 8;

/// Reduce-scatter element width in bytes (FP16 gradients).
pub(crate) const GRAD_BYTES: f64 = 2.0;

/// All-gather element width in bytes (8-bit HFP8 weight broadcasts).
const WEIGHT_BYTES: f64 = 1.0;

/// Cycles before an unacknowledged chunk is first retransmitted.
const TIMEOUT_CYCLES: u64 = 600;

/// Cap on the backoff exponent (backoff = `TIMEOUT_CYCLES ·
/// 2^min(retries, BACKOFF_CAP)`).
const BACKOFF_CAP: u32 = 5;

/// Configuration of the reliable chunked exchange. The ring has one chip
/// per input vector; its links run at
/// [`SystemConfig::training_4x32`]'s chip-to-chip bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliableConfig {
    /// Whether chunks carry a CRC-8 over their payload (see
    /// [`crate::crc`]). With CRC on, an in-transit payload corruption is
    /// detected on delivery and the chunk retransmitted immediately (no
    /// timeout wait — the receiver nacks); with CRC off the damaged
    /// payload is **silently delivered** and lands in the reduced values.
    pub crc: bool,
}

impl ReliableConfig {
    /// The paper's HFP8 training links with CRC-protected chunks.
    pub fn rapid_training() -> Self {
        Self { crc: true }
    }
}

/// Link cycles to carry one chunk of `elem_bytes`-wide elements (at least
/// one), at the training system's link bandwidth over its chip clock
/// (128 GB/s at 1.5 GHz ≈ 85 B/cycle).
pub(crate) fn chunk_cycles(elem_bytes: f64) -> u64 {
    let sys = SystemConfig::training_4x32();
    let bytes = CHUNK_ELEMS as f64 * elem_bytes;
    (bytes / (sys.link_bw_gbps / sys.chip.freq_ghz)).ceil().max(1.0) as u64
}

/// Fault-free cycles of one exchange of `elems` elements over `n` chips:
/// `n − 1` reduce-scatter steps of gradient chunks, then `n − 1`
/// all-gather steps of weight chunks, each paying the step latency.
/// [`reliable_allreduce`] reports this as [`RingHealth::ideal_cycles`].
pub(crate) fn ideal_exchange_cycles(n: usize, elems: usize) -> u64 {
    if n <= 1 {
        return 0;
    }
    let chunks = elems.div_ceil(n).div_ceil(CHUNK_ELEMS) as u64;
    let steps = n as u64 - 1;
    steps * (chunks * chunk_cycles(GRAD_BYTES) + STEP_LATENCY_CYCLES)
        + steps * (chunks * chunk_cycles(WEIGHT_BYTES) + STEP_LATENCY_CYCLES)
}

/// Observability report of one reliable exchange.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RingHealth {
    /// Distinct sequence-numbered chunks the exchange carried.
    pub chunks: u64,
    /// Chunk transmissions, including retries and duplicate deliveries.
    pub transmissions: u64,
    /// Chunks retransmitted after a drop timeout.
    pub retransmits: u64,
    /// Duplicate deliveries discarded by sequence-number dedupe.
    pub duplicates_discarded: u64,
    /// Deliveries held late by slot faults.
    pub holds: u64,
    /// Chunks whose payload CRC mismatched on delivery and were
    /// retransmitted (CRC protection on).
    pub crc_retransmits: u64,
    /// Corrupted payloads delivered without detection (CRC protection
    /// off). Nonzero means the reduced values are damaged.
    pub silent_corruptions: u64,
    /// Largest backoff any chunk waited, in cycles.
    pub max_backoff_cycles: u64,
    /// Cycles the exchange took under faults.
    pub cycles: u64,
    /// Cycles the identical exchange takes fault-free.
    pub ideal_cycles: u64,
}

impl RingHealth {
    /// Fraction of the fault-free bandwidth the exchange retained.
    pub fn bandwidth_retention(&self) -> f64 {
        if self.cycles == 0 {
            return 1.0;
        }
        self.ideal_cycles as f64 / self.cycles as f64
    }

    /// Accumulates this report into a metrics registry under `<prefix>.*`
    /// (counters add across exchanges; `max_backoff_cycles` keeps the
    /// high-water mark) — the unified-telemetry form of this struct.
    pub(crate) fn record_into(&self, reg: &mut rapid_telemetry::MetricsRegistry, prefix: &str) {
        reg.add(&format!("{prefix}.chunks"), self.chunks);
        reg.add(&format!("{prefix}.transmissions"), self.transmissions);
        reg.add(&format!("{prefix}.retransmits"), self.retransmits);
        reg.add(&format!("{prefix}.duplicates_discarded"), self.duplicates_discarded);
        reg.add(&format!("{prefix}.holds"), self.holds);
        reg.add(&format!("{prefix}.crc_retransmits"), self.crc_retransmits);
        reg.add(&format!("{prefix}.silent_corruptions"), self.silent_corruptions);
        reg.counter_max(&format!("{prefix}.max_backoff_cycles"), self.max_backoff_cycles);
        reg.add(&format!("{prefix}.cycles"), self.cycles);
        reg.add(&format!("{prefix}.ideal_cycles"), self.ideal_cycles);
    }

    /// Reconstructs the struct from registry counters written by
    /// [`RingHealth::record_into`] with the same prefix: the reader the
    /// round-trip test checks the writer against.
    #[cfg(test)]
    pub(crate) fn from_registry(reg: &rapid_telemetry::MetricsRegistry, prefix: &str) -> Self {
        Self {
            chunks: reg.counter(&format!("{prefix}.chunks")),
            transmissions: reg.counter(&format!("{prefix}.transmissions")),
            retransmits: reg.counter(&format!("{prefix}.retransmits")),
            duplicates_discarded: reg.counter(&format!("{prefix}.duplicates_discarded")),
            holds: reg.counter(&format!("{prefix}.holds")),
            crc_retransmits: reg.counter(&format!("{prefix}.crc_retransmits")),
            silent_corruptions: reg.counter(&format!("{prefix}.silent_corruptions")),
            max_backoff_cycles: reg.counter(&format!("{prefix}.max_backoff_cycles")),
            cycles: reg.counter(&format!("{prefix}.cycles")),
            ideal_cycles: reg.counter(&format!("{prefix}.ideal_cycles")),
        }
    }
}

/// Why a reliable exchange could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReliableError {
    /// A construction parameter is out of the supported range.
    InvalidConfig(String),
    /// A chunk exhausted its retransmit budget — the fault rate is above
    /// the protocol's documented ceiling.
    RetriesExhausted {
        /// Sequence number of the undeliverable chunk.
        seq: u64,
        /// Retries attempted.
        retries: u32,
    },
}

impl std::fmt::Display for ReliableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidConfig(why) => write!(f, "invalid reliable-allreduce config: {why}"),
            Self::RetriesExhausted { seq, retries } => write!(
                f,
                "chunk seq {seq} undelivered after {retries} retries (fault rate above ceiling)"
            ),
        }
    }
}

impl std::error::Error for ReliableError {}

/// Times one link moving `chunks` sequence-numbered chunks through the
/// fault plan's delivery stream. Returns the cycle the last chunk's ack
/// lands.
fn simulate_link(
    chunks: u64,
    chunk_cycles: u64,
    cfg: &ReliableConfig,
    faults: &mut Option<&mut FaultPlan>,
    health: &mut RingHealth,
    silent: &mut Vec<(u64, u32, u32)>,
) -> Result<u64, ReliableError> {
    // Min-heap of (ready_at, seq, retries): fresh chunks are ready at 0 in
    // sequence order; retransmits re-enter with their backoff deadline.
    let mut pending: BinaryHeap<Reverse<(u64, u64, u32)>> =
        (0..chunks).map(|seq| Reverse((0u64, seq, 0u32))).collect();
    let mut link_free = 0u64;
    let mut done_at = 0u64;
    while let Some(Reverse((ready_at, seq, retries))) = pending.pop() {
        let start = link_free.max(ready_at);
        let mut end = start + chunk_cycles;
        health.transmissions += 1;
        let fate = faults.as_mut().and_then(|p| p.ring_delivery());
        match fate {
            Some(DeliveryFault::Drop) => {
                let next = retries + 1;
                if next > MAX_RETRIES {
                    return Err(ReliableError::RetriesExhausted { seq, retries: next });
                }
                let backoff = TIMEOUT_CYCLES << next.min(BACKOFF_CAP);
                health.retransmits += 1;
                health.max_backoff_cycles = health.max_backoff_cycles.max(backoff);
                pending.push(Reverse((start + backoff, seq, next)));
            }
            Some(DeliveryFault::Duplicate) => {
                // Both copies cross the link; the receiver acks the first
                // and discards the second by sequence number.
                end += chunk_cycles;
                health.transmissions += 1;
                health.duplicates_discarded += 1;
                done_at = done_at.max(end);
            }
            None => {
                // The flit crossed the link; its payload may still have
                // been damaged in transit. CRC on: the receiver detects
                // the mismatch and nacks — an immediate retransmit, no
                // timeout wait. CRC off: the damage is silently delivered.
                let corrupt =
                    faults.as_mut().and_then(|p| p.ring_corrupt(CHUNK_ELEMS as u32));
                if let Some((elem, bit)) = corrupt {
                    if cfg.crc {
                        let next = retries + 1;
                        if next > MAX_RETRIES {
                            return Err(ReliableError::RetriesExhausted { seq, retries: next });
                        }
                        health.crc_retransmits += 1;
                        pending.push(Reverse((end, seq, next)));
                        link_free = end;
                        continue;
                    }
                    health.silent_corruptions += 1;
                    silent.push((seq, elem, bit));
                }
                let hold = faults.as_mut().and_then(|p| p.ring_hold()).unwrap_or(0);
                if hold > 0 {
                    health.holds += 1;
                }
                done_at = done_at.max(end + u64::from(hold));
            }
        }
        link_free = end;
    }
    Ok(done_at)
}

/// Runs a value-carrying ring all-reduce of `inputs` (one gradient vector
/// per chip, all the same length; the ring has `inputs.len()` chips)
/// under the optional fault plan.
///
/// Returns the reduced vector — the element-wise sum every chip ends up
/// holding, **bit-identical to the fault-free run** because delivery is
/// exactly-once and in fixed ring order — plus the [`RingHealth`] report.
/// With `tele = Some` the report also accumulates into the bundle under
/// `ring.reliable.*` (plus a `ring.reliable.exchanges` call counter).
///
/// # Errors
///
/// [`ReliableError::InvalidConfig`] when `inputs` is empty or lengths
/// differ;
/// [`ReliableError::RetriesExhausted`] when the fault
/// rate exceeds the retransmit budget's ceiling.
pub fn reliable_allreduce(
    inputs: &[Vec<f32>],
    cfg: &ReliableConfig,
    mut faults: Option<&mut FaultPlan>,
    tele: Option<&mut rapid_telemetry::Telemetry>,
) -> Result<(Vec<f32>, RingHealth), ReliableError> {
    let n = inputs.len();
    if n == 0 {
        return Err(ReliableError::InvalidConfig("need at least one chip".to_string()));
    }
    let elems = inputs[0].len();
    if inputs.iter().any(|v| v.len() != elems) {
        return Err(ReliableError::InvalidConfig("input lengths differ".to_string()));
    }

    // ---- values: fixed-order reduction ------------------------------
    // Shard j is accumulated hop by hop around the ring starting at chip
    // (j+1) mod n; exactly-once in-order delivery means the sum order is
    // a function of topology alone, never of fault timing.
    let mut reduced = vec![0.0f32; elems];
    let shard_len = elems.div_ceil(n);
    for j in 0..n {
        let lo = j * shard_len;
        let hi = ((j + 1) * shard_len).min(elems);
        for step in 0..n {
            let chip = (j + 1 + step) % n;
            for (out, inp) in reduced[lo..hi].iter_mut().zip(&inputs[chip][lo..hi]) {
                *out += *inp;
            }
        }
    }

    // ---- timing: chunked ack/retransmit per link --------------------
    // A single chip has no ring steps: both phases run zero times.
    let mut health = RingHealth::default();
    let max_shard = elems.div_ceil(n);
    let chunks_per_shard = (max_shard.div_ceil(CHUNK_ELEMS)) as u64;
    let phases: [(u64, u64); 2] = [
        (n as u64 - 1, chunk_cycles(GRAD_BYTES)),   // reduce-scatter
        (n as u64 - 1, chunk_cycles(WEIGHT_BYTES)), // all-gather
    ];
    let mut total = 0u64;
    let mut scratch: Vec<(u64, u32, u32)> = Vec::new();
    for (steps, per_chunk) in phases {
        for step in 0..steps {
            // All n links move one shard concurrently; the step completes
            // when the slowest link's last ack lands. Link `l` carries
            // shard `(l + step) mod n` this step — a fixed rotation, so a
            // silently corrupted chunk maps to a deterministic span of the
            // reduced vector.
            let mut slowest = 0u64;
            for link in 0..n {
                scratch.clear();
                let t = simulate_link(
                    chunks_per_shard,
                    per_chunk,
                    cfg,
                    &mut faults,
                    &mut health,
                    &mut scratch,
                )?;
                slowest = slowest.max(t);
                let shard = (link + step as usize) % n;
                let lo = shard * shard_len;
                let hi = ((shard + 1) * shard_len).min(elems);
                for &(seq, elem, bit) in &scratch {
                    let idx = lo + seq as usize * CHUNK_ELEMS + elem as usize;
                    if idx < hi {
                        reduced[idx] = f32::from_bits(reduced[idx].to_bits() ^ (1 << bit));
                    }
                }
            }
            health.chunks += chunks_per_shard * n as u64;
            total += slowest + STEP_LATENCY_CYCLES;
        }
    }
    health.cycles = total;
    health.ideal_cycles = ideal_exchange_cycles(n, elems);
    if let Some(t) = tele {
        health.record_into(&mut t.registry, "ring.reliable");
        t.registry.incr("ring.reliable.exchanges");
    }
    Ok((reduced, health))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rapid_fault::FaultConfig;

    fn gradients(chips: usize, elems: usize) -> Vec<Vec<f32>> {
        (0..chips)
            .map(|c| {
                (0..elems)
                    .map(|i| ((i * 31 + c * 7 + 1) % 97) as f32 * 0.017 - 0.8)
                    .collect()
            })
            .collect()
    }

    fn faulty_plan(seed: u64, drop: f64, dup: f64, delay: f64) -> FaultPlan {
        FaultPlan::new(FaultConfig {
            seed,
            ring_drop_rate: drop,
            ring_dup_rate: dup,
            ring_delay_rate: delay,
            ..FaultConfig::default()
        })
    }

    #[test]
    fn fault_free_matches_elementwise_sum() {
        let inputs = gradients(4, 1000);
        let cfg = ReliableConfig::rapid_training();
        let (out, health) = reliable_allreduce(&inputs, &cfg, None, None).unwrap();
        for (i, &v) in out.iter().enumerate() {
            // Shard j of 250 elements is summed in ring order, starting at
            // chip (j + 1) mod 4.
            let j = i / 250;
            let mut acc = 0.0f32;
            for step in 0..4 {
                acc += inputs[(j + 1 + step) % 4][i];
            }
            assert_eq!(v, acc);
        }
        assert_eq!(health.retransmits, 0);
        assert_eq!(health.cycles, health.ideal_cycles);
    }

    #[test]
    fn values_are_bit_identical_under_faults() {
        let inputs = gradients(4, 65_536);
        let cfg = ReliableConfig::rapid_training();
        let (clean, _) = reliable_allreduce(&inputs, &cfg, None, None).unwrap();
        let mut plan = faulty_plan(17, 0.05, 0.02, 0.02);
        let (dirty, health) = reliable_allreduce(&inputs, &cfg, Some(&mut plan), None).unwrap();
        assert_eq!(clean, dirty, "faults must never change reduced values");
        assert!(health.retransmits > 0, "expected drops at 1%: {health:?}");
        assert!(health.duplicates_discarded > 0, "expected dupes: {health:?}");
        assert!(health.cycles > health.ideal_cycles);
        assert!(health.bandwidth_retention() < 1.0);
    }

    #[test]
    fn crc_turns_corruption_into_retransmits_not_damage() {
        let inputs = gradients(4, 32_768);
        let cfg = ReliableConfig::rapid_training();
        assert!(cfg.crc, "training links default to CRC protection");
        let (clean, _) = reliable_allreduce(&inputs, &cfg, None, None).unwrap();
        let mut plan = FaultPlan::new(FaultConfig {
            seed: 23,
            ring_corrupt_rate: 0.03,
            ..FaultConfig::default()
        });
        let (out, health) = reliable_allreduce(&inputs, &cfg, Some(&mut plan), None).unwrap();
        assert_eq!(out, clean, "CRC-protected corruption must never reach the values");
        assert!(health.crc_retransmits > 0, "3% corruption must fire: {health:?}");
        assert_eq!(health.silent_corruptions, 0);
        assert!(plan.counts().ring_corruptions > 0);
    }

    #[test]
    fn without_crc_corruption_is_silently_delivered() {
        let inputs = gradients(4, 32_768);
        let cfg = ReliableConfig { crc: false };
        let (clean, _) = reliable_allreduce(&inputs, &cfg, None, None).unwrap();
        let mut plan = FaultPlan::new(FaultConfig {
            seed: 23,
            ring_corrupt_rate: 0.03,
            ..FaultConfig::default()
        });
        let (out, health) = reliable_allreduce(&inputs, &cfg, Some(&mut plan), None).unwrap();
        assert!(health.silent_corruptions > 0, "{health:?}");
        assert_eq!(health.crc_retransmits, 0);
        assert_ne!(out, clean, "silent corruption must be visible in the reduced values");
        // Timing is unaffected: a silently delivered chunk costs nothing
        // extra, which is exactly why it is dangerous.
        assert_eq!(health.retransmits, 0);
    }

    #[test]
    fn retransmit_cost_scales_with_drop_rate() {
        let inputs = gradients(4, 8192);
        let cfg = ReliableConfig::rapid_training();
        let mut mild = faulty_plan(5, 0.002, 0.0, 0.0);
        let mut harsh = faulty_plan(5, 0.02, 0.0, 0.0);
        let (_, h_mild) = reliable_allreduce(&inputs, &cfg, Some(&mut mild), None).unwrap();
        let (_, h_harsh) = reliable_allreduce(&inputs, &cfg, Some(&mut harsh), None).unwrap();
        assert!(h_harsh.retransmits > h_mild.retransmits);
        assert!(h_harsh.cycles >= h_mild.cycles);
    }

    #[test]
    fn catastrophic_drop_rate_exhausts_retries() {
        let inputs = gradients(2, 512);
        let cfg = ReliableConfig::rapid_training();
        let mut plan = faulty_plan(3, 0.95, 0.0, 0.0);
        let err = reliable_allreduce(&inputs, &cfg, Some(&mut plan), None).unwrap_err();
        match err {
            ReliableError::RetriesExhausted { retries, .. } => assert_eq!(retries, MAX_RETRIES + 1),
            other => panic!("expected exhausted retries, got {other}"),
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let cfg = ReliableConfig::rapid_training();
        assert!(matches!(
            reliable_allreduce(&[], &cfg, None, None),
            Err(ReliableError::InvalidConfig(_))
        ));
        let ragged = vec![vec![0.0; 8], vec![0.0; 9], vec![0.0; 8], vec![0.0; 8]];
        assert!(matches!(
            reliable_allreduce(&ragged, &cfg, None, None),
            Err(ReliableError::InvalidConfig(_))
        ));
    }

    #[test]
    fn single_chip_is_free_and_identity() {
        let inputs = gradients(1, 64);
        let cfg = ReliableConfig::rapid_training();
        let (out, health) = reliable_allreduce(&inputs, &cfg, None, None).unwrap();
        assert_eq!(out, inputs[0]);
        assert_eq!(health.cycles, 0);
    }
}
