//! Emulated GEMM and convolution kernels for every RaPiD precision.
//!
//! These kernels compute what the MPE array computes — including input
//! quantization, on-the-fly operand conversion, chunked accumulation and
//! zero-gating — and report datapath statistics used by the power model.
//! They are *functional* models; timing lives in `rapid-model` (analytical)
//! and `rapid-sim` (cycle-approximate).
//!
//! # Fast path vs. scalar reference
//!
//! Each emulated kernel exists twice: a fast path (the default entry
//! points) and a scalar reference (`matmul_emulated_scalar`,
//! `matmul_int_scalar`, …) that drives the accumulator structs one FMA at a
//! time. The float kernels stage each operand in one pass: every element
//! is quantized to its format and converted to the multiplier operand (the
//! FP16 lattice value, or the FP9 value HFP8 converts to on the fly). A
//! keeps its row-major layout; B is read in its native `[k, n]` layout
//! and written into 16-column groups, the last one zero-padded, one
//! 16×16 tile at a time.
//! A GEMV (m = 1) stages no groups: it streams B's rows once each through
//! an n-wide buffer into per-column chunk registers. The same pass counts the
//! quantized zeros at each k-position, so zero-gating statistics are a
//! count per k-position rather than a test per MAC. Staging does not call
//! `FpFormat::quantize` per element: a private lane quantizer does the
//! same rounding, flush, saturation and NaN handling with integer selects
//! (composed with the FP9 conversion for HFP8), so the pass vectorizes.
//! It runs as an AVX2 clone exactly when the band loop does (one
//! `dispatch::use_simd` decision per call; `RAPID_SIMD=off` stages
//! with the portable body). Either HFP8 format may sit on either port
//! ([`FmaMode::Hfp8`]), so no role mapping needs a transposed operand.
//! One band loop then runs every other float GEMM over the groups, B panels
//! outside and A rows inside, 16 or 64 columns per sweep to overlap the
//! serial FP16 rounding chains. The vector chunk step rounds with 4 ops
//! instead of the exact rounder's 11. Where the operand formats and chunk
//! length prove every chunk sum free of underflow and overflow
//! (`chunk_sums_in_range`), that is all it does. Everywhere else (FP16,
//! (1,5,2) × (1,5,2), long chunks) it also keeps a sticky per-lane test
//! of the rounder's domain, and a chunk in which a register left it is
//! replayed with the exact rounder (`simd` module docs; counted by
//! [`chunk_replays`]); the band loop proves the overflow half of that test
//! unneeded per B panel from the operands' largest magnitudes, so most
//! calls test underflow only. Every kernel fans rows out
//! across threads. A float convolution runs the same product core with
//! whichever of `co` and `ho·wo` is larger on the output columns: per
//! image, the weights as A and the image lowered into `[ci·kh·kw, ho·wo]`
//! B rows; or, when `co > ho·wo`, the whole batch's im2col matrix as A
//! and the weights as B ([`conv2d_emulated_with_simd`]).
//!
//! The fast path is required to be *bit-exact* against the scalar
//! reference — same output bits, same [`GemmStats`] — which
//! `tests/fastpath_bitexact.rs` verifies property-style; the merge of
//! per-band statistics is deterministic regardless of thread count. NaN
//! operands are the exception: the fast loops add `NaN × 0` where the
//! reference gates it, unless the zero is on the A port, whose zero
//! k-steps they skip, and they round a NaN chunk sum to `MAX` where the
//! reference keeps NaN. The fast backends still agree with each other,
//! and with the reference's statistics. A convolution's orientation
//! comes from its shape alone, so the backends agree there too; but a
//! NaN weight meets a zero pixel as `NaN × 0` on the per-image path,
//! where the weights sit on the A port, and is skipped on the
//! small-spatial path, where they sit on the B port: which `NaN × 0`
//! products a fast convolution adds depends on its shape.

use crate::accumulate::ChunkAccumulator;
use crate::dispatch::{self, SimdMode};
use crate::fma::FmaMode;
use crate::format::FpFormat;
use crate::guard::{saturate_f32, GuardPolicy};
use crate::int::{IntAccumulator, QuantParams, Signedness};
use crate::simd::{self, ChunkStep};
use crate::tensor::Tensor;
use crate::NumericsError;
use rapid_fault::FaultPlan;
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

/// Datapath statistics gathered while executing an emulated kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GemmStats {
    /// Total multiply-accumulate operations issued.
    pub macs: u64,
    /// MACs bypassed by the zero-gating logic.
    pub zero_gated: u64,
    /// INT16 chunk-register saturations (integer modes only; zero for
    /// hardware-legal chunk lengths).
    pub saturations: u64,
    /// Accumulators clamped by [`GuardPolicy::Saturate`]: corrupted chunk
    /// values (non-finite floats, out-of-bound integer chunks) replaced at
    /// the guard stage instead of propagating. Zero under every other
    /// policy — the count is how much bounded damage training absorbed.
    pub guard_clamps: u64,
}

impl GemmStats {
    /// Fraction of MACs that were zero-gated.
    pub fn gated_fraction(&self) -> f64 {
        if self.macs == 0 {
            0.0
        } else {
            self.zero_gated as f64 / self.macs as f64
        }
    }

    /// Merges statistics from another kernel invocation.
    pub fn merge(&mut self, other: GemmStats) {
        self.macs += other.macs;
        self.zero_gated += other.zero_gated;
        self.saturations += other.saturations;
        self.guard_clamps += other.guard_clamps;
    }

    /// Accumulates these statistics into a metrics registry under
    /// `<prefix>.{macs, zero_gated, saturations, guard_clamps}` — the
    /// unified-telemetry form of this struct.
    pub fn record_into(&self, reg: &mut rapid_telemetry::MetricsRegistry, prefix: &str) {
        reg.add(&format!("{prefix}.macs"), self.macs);
        reg.add(&format!("{prefix}.zero_gated"), self.zero_gated);
        reg.add(&format!("{prefix}.saturations"), self.saturations);
        reg.add(&format!("{prefix}.guard_clamps"), self.guard_clamps);
    }

    /// Reconstructs the struct as a thin view over registry counters
    /// written by [`GemmStats::record_into`] with the same prefix.
    pub fn from_registry(reg: &rapid_telemetry::MetricsRegistry, prefix: &str) -> Self {
        Self {
            macs: reg.counter(&format!("{prefix}.macs")),
            zero_gated: reg.counter(&format!("{prefix}.zero_gated")),
            saturations: reg.counter(&format!("{prefix}.saturations")),
            guard_clamps: reg.counter(&format!("{prefix}.guard_clamps")),
        }
    }
}

fn check_matmul_shapes(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize), NumericsError> {
    if a.shape().len() != 2 || b.shape().len() != 2 || a.shape()[1] != b.shape()[0] {
        return Err(NumericsError::ShapeMismatch {
            expected: "a [m,k] × b [k,n]".to_string(),
            actual: format!("a {:?} × b {:?}", a.shape(), b.shape()),
        });
    }
    Ok((a.shape()[0], a.shape()[1], b.shape()[1]))
}

/// Number of worker threads the row-parallel kernels fan out across.
///
/// Reads the `RAPID_THREADS` environment variable (any integer ≥ 1);
/// otherwise uses the machine's available parallelism. Results are
/// bit-identical for every thread count — threading only partitions output
/// rows.
pub fn num_threads() -> usize {
    std::env::var("RAPID_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Kernels stay single-threaded below this many MACs; thread spawn latency
/// would dominate smaller problems.
const PAR_MIN_MACS: usize = 1 << 18;

/// FP16 (1,6,9) constants of the accumulation rounder as f32 bit patterns:
/// the smallest normal `2^-30` and the largest finite `(2 − 2^-9)·2^32`.
pub(crate) const FP16_MIN_NORMAL: u32 = ((-30 + 127) as u32) << 23;
pub(crate) const FP16_MAX: u32 = ((32 + 127) as u32) << 23 | (((1u32 << 9) - 1) << 14);
/// Added to a magnitude's exponent field to form the rounding constant
/// `c = 2^(E+14)`: one f32 ulp of `|x| + c` is one FP16 ulp at `|x|`.
pub(crate) const ROUND_EXP: u32 = 14 << 23;
/// The rounding constant below `FP16_MIN_NORMAL`: `c = 2^-7` has an f32
/// ulp of `2^-30`, so `|x| + c` rounds to `{0, MIN_NORMAL}`, ties to zero.
pub(crate) const TINY_C: u32 = 120 << 23;

/// FP16 (DLFloat) rounding of an in-kernel accumulation sum: round to
/// nearest even onto the 9-bit-mantissa lattice, flush below the smallest
/// normal (no subnormals; ties to zero), saturate to `±MAX`. Agrees with
/// [`crate::format::fp16_round`] on every f32 except NaN, which maps to `±MAX`.
///
/// f32's own round-to-nearest-even does the rounding: adding the magic
/// constant `c = 2^(E+14)` (E the exponent of `|x|`) to `|x|` leaves
/// exactly the FP16 mantissa bits in the sum, and subtracting `c` back is
/// exact. Only two integer ops pick `c`, so the lane-wise twin in `simd`
/// runs the same sequence without selects. Two details depend on the exact
/// form: for `E ≥ 115` the exponent add carries into the sign bit and the
/// signed max turns `c` into `+0` (at `E = 114`, `c = ∞` and `r` is NaN),
/// and the final min returns `MAX` for a NaN `r`, so both cases saturate.
/// `simd`'s `lane_rounder_matches_the_quantizer_near_every_edge` and its
/// ignored exhaustive sweep pin both rounders over the whole domain.
#[inline(always)]
pub(crate) fn fp16_round_sum(x: f32) -> f32 {
    let bits = x.to_bits();
    let mag = bits & 0x7fff_ffff;
    let tiny = if mag < FP16_MIN_NORMAL { TINY_C as i32 } else { 0 };
    let c = f32::from_bits((((bits & 0x7f80_0000) + ROUND_EXP) as i32).max(tiny) as u32);
    let r = (f32::from_bits(mag) + c) - c;
    let max = f32::from_bits(FP16_MAX);
    let r = if r < max { r } else { max };
    f32::from_bits(r.to_bits() | (bits ^ mag))
}

/// Whether every chunk sum of a float GEMM in `mode` at `chunk_len` is
/// provably `±0` or of magnitude in `[2^-30, FP16_MAX]`: the domain where
/// `simd`'s 4-op `round_lanes_ranged` equals the exact rounder, as
/// nothing can flush or saturate there. When it holds the chunk step runs
/// that rounder alone ([`ChunkStep::Ranged`]); otherwise it runs it under
/// a domain test with exact replay ([`ChunkStep::Checked`]).
///
/// Only HFP8 ports whose formats pass through the FP9 conversion unchanged
/// qualify; each port's multiplier values are then multiples of its
/// quantum (the ulp at its smallest normal). Products, f32 sums and FP16
/// roundings of multiples of the power of two `Q = quantum_a · quantum_b`
/// stay multiples of `Q`, so with `Q ≥ 2^-30` a nonzero sum never falls
/// below the FP16 minimum normal. Each FP16 rounding grows a sum by at most
/// a factor `1 + 2^-10`, so a chunk of `chunk_len` products of magnitude at
/// most `max_a · max_b` stays below `chunk_len · max_a · max_b ·
/// (1 + 2^-10)^chunk_len`. Requiring that to be at most `FP16_MAX/2`
/// leaves a factor of 2 for the f32 rounding inside each step (at most
/// `1 + 2^-24` per step, under 2 for any chunk length the growth term
/// lets through), so no sum or rounding passes `FP16_MAX`. FP16 operands
/// fail the quantum test (`Q = 2^-78`), as does (1,5,2) × (1,5,2)
/// (`Q = 2^-32`); the default HFP8 pairs pass at chunk 64.
fn chunk_sums_in_range(mode: FmaMode, chunk_len: usize) -> bool {
    if mode == FmaMode::Fp16 {
        return false;
    }
    let fp9 = FpFormat::fp9();
    // (quantum, max) of one port's multiplier values.
    let port = |f: FpFormat| {
        let (min, max) = (f.min_normal(), f.max_value());
        let unchanged = f.man_bits() <= fp9.man_bits()
            && fp9.quantize(min) == min
            && fp9.quantize(max) == max;
        let quantum = f64::from(min) * 2f64.powi(-(f.man_bits() as i32));
        unchanged.then_some((quantum, f64::from(max)))
    };
    let (fa, fb) = mode.operand_formats();
    let (Some((qa, ma)), Some((qb, mb))) = (port(fa), port(fb)) else {
        return false;
    };
    qa * qb >= 2f64.powi(-30) && chunk_sums_below_max(chunk_len, ma, mb)
}

/// Whether no chunk sum of `chunk_len` products of magnitude at most
/// `max_a · max_b` can pass `FP16_MAX`: the growth bound of
/// [`chunk_sums_in_range`], `chunk_len · max_a · max_b · (1 + 2^-10)^chunk_len
/// ≤ FP16_MAX/2`. False for a NaN or infinite bound.
fn chunk_sums_below_max(chunk_len: usize, max_a: f64, max_b: f64) -> bool {
    let growth = (1.0 + 2f64.powi(-10)).powi(i32::try_from(chunk_len).unwrap_or(i32::MAX));
    let bound = chunk_len as f64 * max_a * max_b * growth;
    bound <= f64::from(f32::from_bits(FP16_MAX)) / 2.0
}

/// The largest magnitude in `v`, NaN if `v` holds one: the maximum is
/// taken over the magnitude bits, where every NaN sorts above ∞ (a float
/// `max` would drop it).
fn max_magnitude(v: &[f32]) -> f64 {
    f64::from(f32::from_bits(v.iter().fold(0, |m, x| m.max(x.to_bits() & 0x7fff_ffff))))
}

/// Chunks the AVX2 kernels replayed with the exact rounder since the
/// process started ([`chunk_replays`]).
static CHUNK_REPLAYS: AtomicU64 = AtomicU64::new(0);

/// Counts one replayed chunk (`simd`'s checked chunk step).
pub(crate) fn note_replay() {
    CHUNK_REPLAYS.fetch_add(1, Ordering::Relaxed);
}

/// How many chunks the float kernels have replayed with the exact
/// rounder since the process started, over all threads. A chunk step
/// without a static range proof (FP16, (1,5,2) × (1,5,2), long chunks)
/// rounds with the 4-op rounder under a domain test, and a chunk in which
/// some register left that rounder's domain (an underflow, a sum past
/// `FP16_MAX`, a NaN) is recomputed exactly: the count shows how often a
/// workload pays for that. Outputs and [`GemmStats`] do not depend on it.
pub fn chunk_replays() -> u64 {
    CHUNK_REPLAYS.load(Ordering::Relaxed)
}

/// Statistics of an `m × n` product over `za.len()` k-positions, from
/// per-k zero counts: `za[p]` zeros in A's column `p`, `zb[p]` in B's row
/// `p`.
///
/// The datapath gates a MAC when either operand is zero. At k-position
/// `p` the gated MACs are `za·n + (m − za)·zb`: a zero A element gates all
/// `n` MACs it feeds, any other A element gates B's zeros. Summed over
/// `p`, that is the per-MAC count in O(k) instead of O(m·n·k).
fn gated_stats(za: &[u64], zb: &[u64], m: usize, n: usize) -> GemmStats {
    let (m, n) = (m as u64, n as u64);
    let zero_gated = za.iter().zip(zb).map(|(&za, &zb)| za * n + (m - za) * zb).sum();
    GemmStats { macs: m * n * za.len() as u64, zero_gated, ..GemmStats::default() }
}

/// Zero codes in each of the `k` columns of row-major `[rows, k]` codes.
/// Blocks of up to 255 rows count in `u8` lanes, so the loop vectorizes
/// 16 or 32 columns wide, before each block folds into the totals.
fn column_zeros(codes: &[i8], k: usize) -> Vec<u64> {
    let mut zeros = vec![0u64; k];
    let mut counts = vec![0u8; k];
    for block in codes.chunks(255 * k.max(1)) {
        for row in block.chunks_exact(k.max(1)) {
            for (z, &c) in counts.iter_mut().zip(row) {
                *z += u8::from(c == 0);
            }
        }
        for (z, c) in zeros.iter_mut().zip(&mut counts) {
            *z += u64::from(std::mem::take(c));
        }
    }
    zeros
}

/// Zero codes in each row of row-major `[k, n]` codes, `n > 0`.
fn row_zeros(codes: &[i8], n: usize) -> Vec<u64> {
    let zeros = |row: &[i8]| row.iter().map(|&c| u32::from(c == 0)).sum::<u32>();
    codes.chunks_exact(n).map(|row| u64::from(zeros(row))).collect()
}

/// Runs `work` over horizontal bands of the row-major `m × n` output in
/// parallel. `work(row0, band)` fills rows `row0 ..` and returns its
/// statistics; bands merge in row order so the total is deterministic.
fn par_rows(
    od: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    work: &(impl Fn(usize, &mut [f32]) -> GemmStats + Sync),
) -> GemmStats {
    let threads = num_threads().min(m);
    if threads <= 1 || m.saturating_mul(n).saturating_mul(k) < PAR_MIN_MACS {
        return work(0, od);
    }
    let rows_per = m.div_ceil(threads);
    let mut stats = GemmStats::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = od
            .chunks_mut(rows_per * n)
            .enumerate()
            .map(|(t, band)| s.spawn(move || work(t * rows_per, band)))
            .collect();
        for h in handles {
            #[allow(clippy::expect_used)] // re-raise a worker panic on the caller
            stats.merge(h.join().expect("gemm worker thread panicked"));
        }
    });
    stats
}

/// Transposes a row-major `[rows, cols]` slice into `[cols, rows]` panels so
/// dot products walk both operands contiguously.
fn transposed_panels<T: Copy + Default>(src: &[T], rows: usize, cols: usize) -> Vec<T> {
    let mut dst = vec![T::default(); src.len()];
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
    dst
}

/// Reference FP32 matrix multiply `[m,k] × [k,n] → [m,n]`.
///
/// # Panics
///
/// Panics if the shapes are not compatible rank-2 matrices.
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn matmul_f32(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_f32_checked(a, b).expect("incompatible matmul shapes")
}

/// Reference FP32 matrix multiply, returning an error on bad shapes.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] if the operands are not
/// `[m,k]` and `[k,n]` matrices.
pub fn matmul_f32_checked(a: &Tensor, b: &Tensor) -> Result<Tensor, NumericsError> {
    let (m, k, n) = check_matmul_shapes(a, b)?;
    let mut out = Tensor::zeros(vec![m, n]);
    if m == 0 || n == 0 {
        return Ok(out);
    }
    let ad = a.as_slice();
    let bt = transposed_panels(b.as_slice(), k, n);
    let work = |row0: usize, band: &mut [f32]| -> GemmStats {
        let rows = band.len() / n;
        for r in 0..rows {
            let arow = &ad[(row0 + r) * k..(row0 + r + 1) * k];
            for j in 0..n {
                let bcol = &bt[j * k..(j + 1) * k];
                let mut acc = 0.0f64;
                for (&x, &y) in arow.iter().zip(bcol) {
                    acc += f64::from(x) * f64::from(y);
                }
                band[r * n + j] = acc as f32;
            }
        }
        GemmStats::default()
    };
    par_rows(out.as_mut_slice(), m, n, k, &work);
    Ok(out)
}

/// How a fallible GEMM entry point executes: the vectorization policy,
/// the numeric guard, and an optional fault plan. The three are the knobs
/// the datapath model takes as control inputs; the precision and operands
/// stay explicit arguments.
///
/// [`Exec::default`] reads the vectorization policy from `RAPID_SIMD`
/// ([`SimdMode::from_env`]) — not `SimdMode::Auto` — so default callers keep
/// honoring the environment knob. Pin a backend with
/// `Exec { simd: SimdMode::Off, ..Exec::default() }`.
#[derive(Debug)]
pub struct Exec<'a> {
    /// Vector-kernel selection policy.
    pub simd: SimdMode,
    /// What to do when an accumulator is detected corrupted.
    pub guard: GuardPolicy,
    /// Fault plan driving MAC-level injection; `None` (or a plan whose MAC
    /// injectors are disabled) runs the bit-exact fast path.
    pub faults: Option<&'a mut FaultPlan>,
}

impl Default for Exec<'_> {
    fn default() -> Self {
        Self { simd: SimdMode::from_env(), guard: GuardPolicy::default(), faults: None }
    }
}

/// Emulated floating-point matrix multiply through the MPE FPU pipeline:
/// inputs are quantized to the mode's operand formats, multiplied through
/// the internal representation, and chunk-accumulated.
///
/// `chunk_len` is the MPE-level accumulation chunk (64 matches the
/// dataflow's LRF reload interval).
///
/// # Panics
///
/// Panics if the shapes are not compatible or `chunk_len == 0`. Use
/// [`matmul_emulated_with`] for a structured error.
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn matmul_emulated(mode: FmaMode, a: &Tensor, b: &Tensor, chunk_len: usize) -> (Tensor, GemmStats) {
    matmul_emulated_with(mode, a, b, chunk_len, Exec::default())
        .expect("incompatible matmul shapes")
}

/// The float GEMM's product core: staged A rows `sa` (`k > 0`) times
/// row-major `[k, n]` B, staged with `st`, into the row-major `[m, n]`
/// `out` (`+0.0`). The GEMM and the per-image convolution run it. A
/// single A row takes the row-streamed [`gemv`]; more take B's staged
/// groups through [`grouped_product`].
fn staged_product(
    sa: &Staged,
    b: &[f32],
    n: usize,
    chunk_len: usize,
    st: Stager,
    kernel: BandKernel,
    out: &mut [f32],
) -> GemmStats {
    let k = sa.zeros.len();
    let m = sa.vals.len() / k;
    if m == 1 {
        let zb = gemv(sa, b, n, chunk_len, st, kernel, out);
        return gated_stats(&sa.zeros, &zb, m, n);
    }
    grouped_product(sa, &Staged::groups(b, k, n, st), n, chunk_len, kernel, out)
}

/// [`staged_product`] with B already staged into `n` columns of groups
/// (`sb`), for any number of A rows: [`staged_band`] over row bands in
/// parallel.
fn grouped_product(
    sa: &Staged,
    sb: &Staged,
    n: usize,
    chunk_len: usize,
    kernel: BandKernel,
    out: &mut [f32],
) -> GemmStats {
    let k = sa.zeros.len();
    let m = sa.vals.len() / k;
    let work = |row0: usize, band: &mut [f32]| -> GemmStats {
        staged_band(&sa.vals, sb, n, row0, chunk_len, kernel, band);
        GemmStats::default()
    };
    par_rows(out, m, n, k, &work);
    gated_stats(&sa.zeros, &sb.zeros, m, n)
}

/// Branch-free quantizer for one saturating, subnormal-free format (every
/// staged operand format): [`FpFormat::quantize`]'s round-to-nearest-even,
/// flush to `{0, min_normal}`, saturation and NaN as integer selects on the
/// f32 bits, so a staging loop over it vectorizes. The bit patterns are
/// precomputed once per operand. Scalar callers keep `FpFormat::quantize`,
/// whose early exits are cheaper one value at a time.
#[derive(Debug, Clone, Copy)]
struct LaneQuant {
    /// Dropped mantissa bits, `23 - man_bits`.
    shift: u32,
    min_normal: u32,
    half_min: u32,
    max: u32,
}

impl LaneQuant {
    fn new(f: FpFormat) -> Self {
        assert!(
            f.saturates() && !f.has_subnormals() && f.man_bits() < 23,
            "lane quantizer needs a saturating, subnormal-free format, got {f}"
        );
        Self {
            shift: 23 - f.man_bits(),
            min_normal: f.min_normal().to_bits(),
            half_min: (f.min_normal() * 0.5).to_bits(),
            max: f.max_value().to_bits(),
        }
    }

    /// `f.quantize(f32::from_bits(bits)).to_bits()`. Magnitudes and
    /// thresholds are below 2³¹, so the compares are signed (`vpcmpgtd`).
    #[inline(always)]
    fn apply(self, bits: u32) -> u32 {
        let mag = bits & 0x7fff_ffff;
        let lsb = 1u32 << self.shift;
        // RNE: add lsb/2 − 1 plus the kept LSB, truncate; a mantissa carry
        // moves into the next binade, infinity stays put.
        let rounded = (mag + (lsb >> 1) - 1 + ((mag >> self.shift) & 1)) & !(lsb - 1);
        // Below min-normal, flush to {0, min_normal} (ties to zero): the
        // rounded value is cleared and the max picks `flushed`. Above it,
        // `flushed` is min_normal, at most `rounded`. This compiles to
        // `vpandn` + `vpmaxsd` instead of a `vblendvps`, 5–9% faster per
        // staged element on a 2-vCPU AVX2 Xeon.
        let flushed = if mag as i32 > self.half_min as i32 { self.min_normal } else { 0 };
        let kept = if (mag as i32) < self.min_normal as i32 { 0 } else { rounded };
        let r = (kept as i32).max(flushed as i32) as u32;
        let r = if r as i32 > self.max as i32 { self.max } else { r };
        if mag as i32 > 0x7f80_0000 {
            0x7fc0_0000 // f32::NAN, as `quantize` returns
        } else {
            (bits & 0x8000_0000) | r
        }
    }
}

/// How one float operand is staged: quantized to its format and, for
/// HFP8, converted to the FP9 value the FPU multiplies
/// (`fp9().quantize ∘ quantize`; FP16 multiplies lattice values as they
/// are). The loop runs as an AVX2 clone when the band kernel does, so
/// `SimdMode::Off` runs the portable body end to end.
#[derive(Debug, Clone, Copy)]
struct Stager {
    fmt: LaneQuant,
    fp9: Option<LaneQuant>,
    simd: bool,
}

impl Stager {
    fn new(mode: FmaMode, fmt: FpFormat, simd: bool) -> Self {
        let fp9 = (mode != FmaMode::Fp16).then(|| LaneQuant::new(FpFormat::fp9()));
        Self { fmt: LaneQuant::new(fmt), fp9, simd: simd && dispatch::simd_available() }
    }

    /// Writes the multiplier operand of each `src` element to `dst` and
    /// counts its quantized zeros: per position into `zeros[i]` when
    /// `PER_ELEMENT`, else all into `zeros[0]`. The counts are u32, which
    /// keeps the loop 8 lanes wide (u64 halves it); callers fold them into
    /// u64 totals every [`FOLD`] rows or elements, before they can wrap.
    fn run<const PER_ELEMENT: bool>(self, src: &[f32], dst: &mut [f32], zeros: &mut [u32]) {
        #[cfg(target_arch = "x86_64")]
        if self.simd {
            // SAFETY: `simd` is only set when AVX2 is available.
            return unsafe { self.run_avx2::<PER_ELEMENT>(src, dst, zeros) };
        }
        self.run_body::<PER_ELEMENT>(src, dst, zeros);
    }

    /// [`Self::run_body`] compiled for AVX2.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_avx2<const PER_ELEMENT: bool>(
        self,
        src: &[f32],
        dst: &mut [f32],
        zeros: &mut [u32],
    ) {
        self.run_body::<PER_ELEMENT>(src, dst, zeros);
    }

    /// Stages one B row into `dst` and returns its quantized zeros, the
    /// u32 count folded every [`FOLD`] elements.
    fn row(self, src: &[f32], dst: &mut [f32]) -> u64 {
        let mut zeros = 0;
        for (piece, ops) in src.chunks(FOLD).zip(dst.chunks_mut(FOLD)) {
            let mut count = [0u32];
            self.run::<false>(piece, ops, &mut count);
            zeros += u64::from(count[0]);
        }
        zeros
    }

    /// Stages a block of up to 16 rows of row-major `[k, n]` B (`block`,
    /// rows `p0 ..` of B) into the `n.div_ceil(16)` groups of
    /// [`Staged::groups`]: the block's 16×16 tile of each group goes
    /// straight from B to row `p0` of that group, where its rows are
    /// contiguous. Adds each row's quantized zeros to `zeros[r]`.
    fn run_tiles(self, block: &[f32], n: usize, groups: &mut [f32], p0: usize, zeros: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        if self.simd {
            // SAFETY: `simd` is only set when AVX2 is available.
            return unsafe { self.run_tiles_avx2(block, n, groups, p0, zeros) };
        }
        self.tiles_body(block, n, groups, p0, zeros);
    }

    /// [`Self::tiles_body`] compiled for AVX2.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn run_tiles_avx2(
        self,
        block: &[f32],
        n: usize,
        groups: &mut [f32],
        p0: usize,
        zeros: &mut [u64],
    ) {
        self.tiles_body(block, n, groups, p0, zeros);
    }

    #[inline(always)]
    fn tiles_body(self, block: &[f32], n: usize, groups: &mut [f32], p0: usize, zeros: &mut [u64]) {
        const G: usize = simd::GROUP;
        let gsz = groups.len() / n.div_ceil(G);
        for (g, group) in groups.chunks_exact_mut(gsz).enumerate() {
            let j = g * G;
            let tile = group[p0 * G..].chunks_exact_mut(G);
            for ((row, dst), z) in block.chunks_exact(n).zip(tile).zip(&mut *zeros) {
                let mut count = [0u32];
                // A whole group's row is a fixed 16 lanes, so the loop
                // unrolls into two vectors; the last group may be ragged.
                match row[j..].first_chunk::<G>() {
                    Some(src) => self.run_body::<false>(src, dst, &mut count),
                    None => self.run_body::<false>(&row[j..], &mut dst[..n - j], &mut count),
                }
                *z += u64::from(count[0]);
            }
        }
    }

    #[inline(always)]
    fn run_body<const PER_ELEMENT: bool>(self, src: &[f32], dst: &mut [f32], zeros: &mut [u32]) {
        let fmt = self.fmt;
        match self.fp9 {
            None => stage_loop::<PER_ELEMENT>(src, dst, zeros, |x| {
                let q = fmt.apply(x);
                (q, q)
            }),
            Some(fp9) => stage_loop::<PER_ELEMENT>(src, dst, zeros, |x| {
                let q = fmt.apply(x);
                (q, fp9.apply(q))
            }),
        }
    }
}

/// The loop of [`Stager::run`]: `op` maps input bits to the (quantized,
/// operand) bit pair.
#[inline(always)]
fn stage_loop<const PER_ELEMENT: bool>(
    src: &[f32],
    dst: &mut [f32],
    zeros: &mut [u32],
    op: impl Fn(u32) -> (u32, u32),
) {
    let is_zero = |q: u32| u32::from(q & 0x7fff_ffff == 0);
    if PER_ELEMENT {
        for ((&x, d), z) in src.iter().zip(dst).zip(zeros) {
            let (q, o) = op(x.to_bits());
            *z += is_zero(q);
            *d = f32::from_bits(o);
        }
    } else {
        let mut count = 0u32;
        for (&x, d) in src.iter().zip(dst) {
            let (q, o) = op(x.to_bits());
            count += is_zero(q);
            *d = f32::from_bits(o);
        }
        zeros[0] += count;
    }
}

/// Rows (or elements) staged between folds of the u32 zero counts.
const FOLD: usize = 1 << 16;

/// Adds the u32 zero counts into the u64 totals and clears them.
fn fold_zeros(zeros: &mut [u64], counts: &mut [u32]) {
    for (z, c) in zeros.iter_mut().zip(counts) {
        *z += u64::from(std::mem::take(c));
    }
}

/// One float GEMM operand, staged in a single pass: every element
/// quantized to its format and converted to the multiplier operand, with
/// the quantized zeros at each k-position counted on the way.
struct Staged {
    /// Multiplier operands, laid out for the band loop.
    vals: Vec<f32>,
    /// Quantized zeros at each k-position (per column of A, per row of B),
    /// for [`gated_stats`]. The scalar datapath gates a MAC when either
    /// *quantized* operand is zero (`fma_prequantized`); an operand whose
    /// FP9 conversion underflows is multiplied, not gated.
    zeros: Vec<u64>,
}

impl Staged {
    /// Stages row-major `[m, k]` A in place.
    fn rows(a: &[f32], k: usize, st: Stager) -> Self {
        let mut vals = vec![0.0f32; a.len()];
        let mut zeros = vec![0u64; k];
        let mut counts = vec![0u32; k];
        for (i, (arow, orow)) in a.chunks_exact(k).zip(vals.chunks_exact_mut(k)).enumerate() {
            st.run::<true>(arow, orow, &mut counts);
            if i % FOLD == FOLD - 1 {
                fold_zeros(&mut zeros, &mut counts);
            }
        }
        fold_zeros(&mut zeros, &mut counts);
        Self { vals, zeros }
    }

    /// Stages row-major `[k, n]` B into `n.div_ceil(16)` groups of
    /// `k × 16`: group `g` holds, for each k-position `p`, columns
    /// `16g .. 16g + 16` contiguously. Lanes past column `n` in the last
    /// group are zero and their results are discarded. One pass over B in
    /// blocks of 16 rows, each 16×16 tile quantized straight into its
    /// group ([`Stager::run_tiles`]), so every write lands in a contiguous
    /// 1 KiB tile rather than 64 bytes every `k·16` floats.
    fn groups(b: &[f32], k: usize, n: usize, st: Stager) -> Self {
        const G: usize = simd::GROUP;
        let gsz = k * G;
        let mut vals = vec![0.0f32; n.div_ceil(G) * gsz];
        let mut zeros = vec![0u64; k];
        for (t, (block, z)) in b.chunks(G * n).zip(zeros.chunks_mut(G)).enumerate() {
            st.run_tiles(block, n, &mut vals, t * G, z);
        }
        Self { vals, zeros }
    }

    /// Moves `n` staged rows of length `k` (from [`Self::rows`]) into the
    /// groups of their transpose, the `[k, n]` B of [`Self::groups`]. The
    /// per-k zero counts of the rows are B's per-row counts as they stand,
    /// so a convolution's weights, staged as rows, become its B operand
    /// without a transposed copy. Each group is written in order and read
    /// 16 rows at a time.
    fn into_groups(self, n: usize) -> Self {
        const G: usize = simd::GROUP;
        let k = self.zeros.len();
        let mut vals = vec![0.0f32; n.div_ceil(G) * k * G];
        for (rows, group) in self.vals.chunks(G * k).zip(vals.chunks_exact_mut(k * G)) {
            let lanes = rows.len() / k;
            for (p, dst) in group.chunks_exact_mut(G).enumerate() {
                for (j, d) in dst[..lanes].iter_mut().enumerate() {
                    *d = rows[j * k + p];
                }
            }
        }
        Self { vals, zeros: self.zeros }
    }
}

/// The loops [`staged_band`] and [`gemv`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BandKernel {
    /// The portable loops, [`dot_staged_group`] and [`axpy_exact`].
    Portable,
    /// The AVX2 kernels with their chunk step: the 4-op rounder where
    /// [`chunk_sums_in_range`] proves it exact for the operand formats,
    /// else the 4-op rounder under a domain test with exact replay.
    Avx2 { step: ChunkStep },
}

impl BandKernel {
    fn new(use_simd: bool, mode: FmaMode, chunk_len: usize) -> Self {
        if !use_simd {
            Self::Portable
        } else if chunk_sums_in_range(mode, chunk_len) {
            Self::Avx2 { step: ChunkStep::Ranged }
        } else {
            Self::Avx2 { step: ChunkStep::Checked { below_only: false } }
        }
    }

    /// The chunk step for a B panel: a checked step tests only the
    /// underflow edge when the panel's and the A rows' largest magnitudes
    /// (`a_max`, NaN-propagating) prove that no chunk sum passes
    /// `FP16_MAX` ([`chunk_sums_below_max`]).
    fn step_for(step: ChunkStep, chunk_len: usize, a_max: f64, panel: &[f32]) -> ChunkStep {
        match step {
            ChunkStep::Checked { .. } => ChunkStep::Checked {
                below_only: chunk_sums_below_max(chunk_len, a_max, max_magnitude(panel)),
            },
            step => step,
        }
    }
}

/// Fills one row band of an `n`-column float GEMM from staged operands:
/// `av` holds the A rows, `sb` the staged B groups (see [`Staged::groups`]).
///
/// Every output column runs the scalar reference's chunk-accumulation
/// chain in k order. The operands are the exact factors the datapath
/// multiplies, so `x * y` is the exact product of two FP9 operands (or of
/// two FP16 lattice values). A zero product is added like any other:
/// it leaves a nonzero chunk register unchanged, and on a zero register it
/// can only change the sign of that zero, which no output can observe (see
/// [`dot_staged_group`]).
///
/// The B panels are the outer loop and the band's rows the inner one, so
/// each panel (up to 64 columns × k) is streamed from memory once and
/// stays cache-resident while every row of the band sweeps it. Each
/// output's op sequence does not depend on the loop order. A checked
/// chunk step gets its overflow proof per panel ([`BandKernel::step_for`]).
fn staged_band(
    av: &[f32],
    sb: &Staged,
    n: usize,
    row0: usize,
    chunk_len: usize,
    kernel: BandKernel,
    band: &mut [f32],
) {
    let k = sb.zeros.len();
    let gsz = k * simd::GROUP;
    let ngroups = n.div_ceil(simd::GROUP);
    let arow = |r: usize| &av[(row0 + r) * k..(row0 + r + 1) * k];
    let mut g = 0;
    if let BandKernel::Avx2 { step } = kernel {
        let a_band = &av[row0 * k..(row0 + band.len() / n) * k];
        let a_max = if step == ChunkStep::Ranged { 0.0 } else { max_magnitude(a_band) };
        // Four groups per k sweep (8 independent chains keep the vector
        // ports busy past the FMA+round latency); single groups clean up.
        let mut wres = [0.0f32; simd::WIDE];
        while g + simd::WIDE_GROUPS <= ngroups {
            let bw = &sb.vals[g * gsz..(g + simd::WIDE_GROUPS) * gsz];
            let step = BandKernel::step_for(step, chunk_len, a_max, bw);
            let j = g * simd::GROUP;
            let lanes = simd::WIDE.min(n - j);
            for (r, orow) in band.chunks_exact_mut(n).enumerate() {
                simd::dot_fp16_groups_wide(arow(r), bw, chunk_len, step, &mut wres);
                orow[j..j + lanes].copy_from_slice(&wres[..lanes]);
            }
            g += simd::WIDE_GROUPS;
        }
        while g < ngroups {
            let bg = &sb.vals[g * gsz..(g + 1) * gsz];
            let step = BandKernel::step_for(step, chunk_len, a_max, bg);
            let j = g * simd::GROUP;
            let lanes = simd::GROUP.min(n - j);
            let mut res = [0.0f32; simd::GROUP];
            for (r, orow) in band.chunks_exact_mut(n).enumerate() {
                simd::dot_fp16_group16(arow(r), bg, chunk_len, step, &mut res);
                orow[j..j + lanes].copy_from_slice(&res[..lanes]);
            }
            g += 1;
        }
        return;
    }
    while g < ngroups {
        let bg = &sb.vals[g * gsz..(g + 1) * gsz];
        let j = g * simd::GROUP;
        let lanes = simd::GROUP.min(n - j);
        for (r, orow) in band.chunks_exact_mut(n).enumerate() {
            let res = dot_staged_group(arow(r), bg, chunk_len);
            orow[j..j + lanes].copy_from_slice(&res[..lanes]);
        }
        g += 1;
    }
}

/// Portable twin of `simd::dot_fp16_group16`: chunk-accumulated dot
/// products of one A row against one staged 16-column group, with the
/// same op sequence per column.
///
/// The chunk update uses a plain f32 add where the scalar reference
/// computes `(f64(acc) + f64(prod)) as f32`: double rounding through f64 is
/// innocuous for the sum of two f32 values (53 ≥ 2·24 + 2), so the results
/// are bit-identical. Where the reference gates a zero operand, this loop
/// adds the zero product. The two differ only in the sign of a zero chunk
/// register (a gated MAC keeps a `-0.0` from a flushed negative sum, while
/// `-0.0 + 0.0` is `+0.0`), and that sign never reaches an output: the
/// outer sum starts at `+0.0`, `+0.0 + ±0.0` is `+0.0` and exact
/// cancellation gives `+0.0`, so `outer + chunk` is never `-0.0` and a
/// zero chunk register adds nothing. A k-step whose A operand is zero is
/// skipped, as in the vector kernel: every product is `±0.0`, which leaves
/// an FP16-lattice chunk register unchanged through the re-round (up to
/// that sign).
fn dot_staged_group(arow: &[f32], group: &[f32], chunk_len: usize) -> [f32; simd::GROUP] {
    const G: usize = simd::GROUP;
    let mut outer = [0.0f32; G];
    let mut chunk = [0.0f32; G];
    let mut in_chunk = 0usize;
    for (&x, bv) in arow.iter().zip(group.chunks_exact(G)) {
        if x != 0.0 {
            for (c, &y) in chunk.iter_mut().zip(bv) {
                *c = fp16_round_sum(*c + x * y);
            }
        }
        in_chunk += 1;
        if in_chunk == chunk_len {
            for (o, c) in outer.iter_mut().zip(&mut chunk) {
                *o += *c;
                *c = 0.0;
            }
            in_chunk = 0;
        }
    }
    std::array::from_fn(|t| fp16_round_sum(outer[t] + chunk[t]))
}

/// The m = 1 float GEMM, with B streamed instead of staged whole: every B
/// element is used exactly once, so staging all of B into groups would
/// be a full write and re-read that buys nothing. `sa` holds the staged A
/// row; `out` (n wide, `+0.0`) is the outer sum. Returns B's quantized
/// zeros per k-position for [`gated_stats`].
///
/// B's rows are walked in k order. Each is staged once into a reusable
/// buffer and, unless A's operand at that position is zero, added into
/// per-column chunk registers, `chunk[j] = round(chunk[j] + x·b[j])`
/// (`simd::axpy_fp16`, or its portable twin below); chunk boundaries and
/// the epilogue follow. Each column thus runs [`staged_band`]'s op
/// sequence, zero-step skip included, so the results are bit-identical.
/// A checked chunk step that left its domain in any column replays the
/// chunk's rows ([`replay_gemv_chunk`]) before the chunk is added out.
fn gemv(
    sa: &Staged,
    b: &[f32],
    n: usize,
    chunk_len: usize,
    st: Stager,
    kernel: BandKernel,
    out: &mut [f32],
) -> Vec<u64> {
    // Whole vectors: the padded lanes stay zero and are never read back.
    let width = n.next_multiple_of(simd::GROUP);
    let (mut brow, mut chunk) = (vec![0.0f32; width], vec![0.0f32; width]);
    let k = sa.zeros.len();
    let mut zeros = vec![0u64; k];
    let mut in_chunk = 0usize;
    let mut left = false;
    for (p, ((row, z), &x)) in b.chunks_exact(n).zip(&mut zeros).zip(&sa.vals).enumerate() {
        *z = st.row(row, &mut brow[..n]);
        if x != 0.0 {
            match kernel {
                BandKernel::Avx2 { step } => left |= simd::axpy_fp16(x, &brow, &mut chunk, step),
                BandKernel::Portable => axpy_exact(x, &brow, &mut chunk),
            }
        }
        in_chunk += 1;
        if in_chunk == chunk_len {
            if std::mem::take(&mut left) {
                let p0 = p + 1 - chunk_len;
                let (xs, rows) = (&sa.vals[p0..=p], &b[p0 * n..(p + 1) * n]);
                replay_gemv_chunk(xs, rows, st, &mut brow, &mut chunk);
            }
            for (o, c) in out.iter_mut().zip(&mut chunk) {
                *o += *c;
                *c = 0.0;
            }
            in_chunk = 0;
        }
    }
    if left {
        let p0 = k - in_chunk;
        replay_gemv_chunk(&sa.vals[p0..], &b[p0 * n..], st, &mut brow, &mut chunk);
    }
    for (o, &c) in out.iter_mut().zip(&chunk) {
        *o = fp16_round_sum(*o + c);
    }
    zeros
}

/// The portable GEMV chunk step, `chunk[j] = fp16_round_sum(chunk[j] +
/// x·b[j])`: `simd::axpy_fp16`'s op sequence with the exact rounder.
fn axpy_exact(x: f32, b: &[f32], chunk: &mut [f32]) {
    for (c, &y) in chunk.iter_mut().zip(b) {
        *c = fp16_round_sum(*c + x * y);
    }
}

/// Recomputes one GEMV chunk with the exact rounder, from `+0` as every
/// chunk starts: `xs` are its A operands and `rows` its B rows, re-staged
/// one at a time into `brow` (their zeros were counted the first time).
#[cold]
fn replay_gemv_chunk(xs: &[f32], rows: &[f32], st: Stager, brow: &mut [f32], chunk: &mut [f32]) {
    note_replay();
    chunk.fill(0.0);
    let n = rows.len() / xs.len();
    for (row, &x) in rows.chunks_exact(n).zip(xs) {
        if x != 0.0 {
            st.row(row, &mut brow[..n]);
            axpy_exact(x, brow, chunk);
        }
    }
}

/// Scalar reference for [`matmul_emulated`]: drives a [`ChunkAccumulator`]
/// one FMA at a time, exactly as the MPE datapath model does. The fast path
/// must reproduce its output and statistics bit-for-bit.
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn matmul_emulated_scalar(
    mode: FmaMode,
    a: &Tensor,
    b: &Tensor,
    chunk_len: usize,
) -> (Tensor, GemmStats) {
    float_datapath(mode, a, b, chunk_len, GuardPolicy::Propagate, None)
        .expect("incompatible matmul shapes")
}

/// The float datapath model: a [`ChunkAccumulator`] per output, driven
/// one FMA at a time. With a `plan`, each quantized operand and then the
/// chunk register pass through it; a checking `policy` applies whenever
/// the chunk register or an output goes non-finite. Under
/// [`GuardPolicy::Propagate`] without a plan this is the scalar reference.
fn float_datapath(
    mode: FmaMode,
    a: &Tensor,
    b: &Tensor,
    chunk_len: usize,
    policy: GuardPolicy,
    mut plan: Option<&mut FaultPlan>,
) -> Result<(Tensor, GemmStats), NumericsError> {
    let (m, k, n) = check_matmul_shapes(a, b)?;
    assert!(chunk_len > 0, "chunk length must be positive");
    let (fa, fb) = mode.operand_formats();
    let qa: Vec<f32> = a.as_slice().iter().map(|&x| fa.quantize(x)).collect();
    let qb: Vec<f32> = b.as_slice().iter().map(|&x| fb.quantize(x)).collect();
    let mut out = Tensor::zeros(vec![m, n]);
    let od = out.as_mut_slice();
    let mut stats = GemmStats::default();
    // A non-finite `v` at output (row, col): clamped and counted under
    // `Saturate`, reported under `Error`.
    let guard = |v: f32, row: usize, col: usize, stats: &mut GemmStats| match policy {
        GuardPolicy::Saturate => {
            stats.guard_clamps += 1;
            Ok(saturate_f32(v))
        }
        _ => Err(NumericsError::NonFinite { row, col, bits: v.to_bits() }),
    };
    for i in 0..m {
        for j in 0..n {
            let mut acc = ChunkAccumulator::new(mode, chunk_len);
            for p in 0..k {
                let (mut x, mut y) = (qa[i * k + p], qb[p * n + j]);
                if let Some(plan) = plan.as_deref_mut() {
                    x = plan.mac_operand(x);
                    y = plan.mac_operand(y);
                }
                acc.mac(x, y);
                if let Some(plan) = plan.as_deref_mut() {
                    acc.corrupt_chunk(|v| plan.mac_accumulator(v));
                }
                if policy.checks() && !acc.chunk_value().is_finite() {
                    let v = guard(acc.chunk_value(), i, j, &mut stats)?;
                    acc.corrupt_chunk(|_| v);
                }
            }
            stats.macs += acc.macs();
            stats.zero_gated += acc.zero_gated();
            let mut v = acc.finish();
            if policy.checks() && !v.is_finite() {
                v = guard(v, i, j, &mut stats)?;
            }
            od[i * n + j] = v;
        }
    }
    Ok((out, stats))
}

/// [`matmul_emulated`] under explicit execution options: the single
/// fallible entry point of the float GEMM.
///
/// With `exec.faults == None` (or a plan whose MAC injectors are disabled)
/// this runs the bit-exact fast path under `exec.simd` — the hook costs
/// nothing when off. With an active plan it drives the scalar datapath
/// model one FMA at a time, corrupting operands and the chunk register per
/// the plan, and applies `exec.guard` whenever the chunk register goes
/// non-finite.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] on incompatible operands, and
/// [`NumericsError::NonFinite`] under [`GuardPolicy::Error`] when a
/// corrupted accumulator is detected.
///
/// # Panics
///
/// Panics if `chunk_len == 0` (a configuration bug, not a data error).
pub fn matmul_emulated_with(
    mode: FmaMode,
    a: &Tensor,
    b: &Tensor,
    chunk_len: usize,
    exec: Exec<'_>,
) -> Result<(Tensor, GemmStats), NumericsError> {
    let Exec { simd, guard: policy, faults } = exec;
    if let Some(plan) = faults.filter(|p| p.mac_enabled()) {
        return float_datapath(mode, a, b, chunk_len, policy, Some(plan));
    }
    let (m, k, n) = check_matmul_shapes(a, b)?;
    assert!(chunk_len > 0, "chunk length must be positive");
    let mut out = Tensor::zeros(vec![m, n]);
    if m == 0 || n == 0 || k == 0 {
        return Ok((out, GemmStats::default()));
    }
    let (fa, fb) = mode.operand_formats();
    let use_simd = dispatch::use_simd(simd, (m * n * k) as u64);
    let sa = Staged::rows(a.as_slice(), k, Stager::new(mode, fa, use_simd));
    let stager_b = Stager::new(mode, fb, use_simd);
    let kernel = BandKernel::new(use_simd, mode, chunk_len);
    let od = out.as_mut_slice();
    let stats = staged_product(&sa, b.as_slice(), n, chunk_len, stager_b, kernel, od);
    // The clean kernels saturate at FP16 write-back and cannot emit
    // non-finite values; the scan is defense in depth for checking
    // policies and costs O(m·n) only when asked for.
    if policy.checks() {
        for (idx, &v) in out.as_slice().iter().enumerate() {
            if !v.is_finite() {
                return Err(NumericsError::NonFinite {
                    row: idx / n,
                    col: idx % n,
                    bits: v.to_bits(),
                });
            }
        }
    }
    Ok((out, stats))
}

/// Quantized integer matrix multiply through the FXU pipeline: inputs are
/// quantized with the given per-tensor parameters, multiplied as integer
/// codes with INT16-chunk/INT32 accumulation, and the result dequantized by
/// the product of scales.
///
/// # Panics
///
/// Panics if the shapes are not compatible or `chunk_len == 0`. Use
/// [`matmul_int_with`] for a structured error.
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn matmul_int(
    a: &Tensor,
    b: &Tensor,
    qa: QuantParams,
    qb: QuantParams,
    chunk_len: usize,
) -> (Tensor, GemmStats) {
    matmul_int_with(a, b, qa, qb, chunk_len, Exec::default()).expect("incompatible matmul shapes")
}

/// Whether an INT16 chunk register could saturate for these quantization
/// parameters at reduction depth `k`: the worst-case magnitude of a chunk
/// window exceeds `i16::MAX`. When it cannot, the windowed tiled sum
/// equals the plain exact dot product (order-independent integer
/// addition), which is what licenses the whole-k expanding kernel to
/// ignore chunk boundaries while staying bit-exact.
pub(crate) fn int_saturation_possible(
    qa: QuantParams,
    qb: QuantParams,
    k: usize,
    chunk_len: usize,
) -> bool {
    int_chunk_bound(qa, qb, k, chunk_len) > i64::from(i16::MAX)
}

/// Worst-case magnitude of one chunk window's exact integer sum: the
/// legal bound a guarded INT kernel checks the chunk register against.
fn int_chunk_bound(qa: QuantParams, qb: QuantParams, k: usize, chunk_len: usize) -> i64 {
    let worst = |p: QuantParams| {
        let (lo, hi) = p.code_range();
        i64::from(lo.unsigned_abs().max(hi.unsigned_abs()))
    };
    let window = chunk_len.min(k.max(1)) as i64;
    window * worst(qa) * worst(qb)
}

/// The integer GEMM's product core over quantized codes: row-major
/// `[m, k]` A codes in `qa` times row-major `[k, n]` B codes in `qb`. Built
/// once per call (the kernel choice, A's zeros per k-position, and the
/// expanding kernel's A rows and reused B operand), then run for each B
/// operand: the GEMM's one, or one per image of a convolution.
struct IntProduct<'a> {
    ca: &'a [i8],
    dims: [usize; 3],
    q: (QuantParams, QuantParams),
    chunk_len: usize,
    /// A's zero codes per k-position; empty on the saturating path, whose
    /// datapath counts its own statistics.
    zeros: Vec<u64>,
    kernel: IntPath<'a>,
}

/// The kernel an [`IntProduct`] runs.
enum IntPath<'a> {
    /// INT16 saturation is possible for the chunk length, so the
    /// saturating accumulator is modeled ([`int_datapath`]).
    Saturating,
    /// Portable windowed dot products ([`dot_int_windows`]).
    Tiled,
    /// The AVX2 expanding kernel over A's packed rows, with the B
    /// operand's pack reused across runs.
    Expanding(IntRows<'a>, IntCols),
}

impl<'a> IntProduct<'a> {
    /// Chooses the kernel for a call of `macs` MACs under `simd_mode`. The
    /// windowed and expanding kernels sum exactly, which equals the
    /// chunked sum only when no chunk register can saturate.
    fn new(
        ca: &'a [i8],
        [m, k, n]: [usize; 3],
        (qa, qb): (QuantParams, QuantParams),
        chunk_len: usize,
        simd_mode: SimdMode,
        macs: u64,
    ) -> Self {
        let kernel = if int_saturation_possible(qa, qb, k, chunk_len) {
            IntPath::Saturating
        } else {
            match dispatch::int_kernel(simd_mode, macs, k) {
                dispatch::IntKernel::Tiled => IntPath::Tiled,
                dispatch::IntKernel::Expanding => IntPath::Expanding(
                    IntRows::pack(ca, m, k, IntCols::bias(qb)),
                    IntCols::new(k, n),
                ),
            }
        };
        let zeros = match kernel {
            IntPath::Saturating => Vec::new(),
            _ => column_zeros(ca, k),
        };
        Self { ca, dims: [m, k, n], q: (qa, qb), chunk_len, zeros, kernel }
    }

    /// Fills the row-major `[m, n]` `out` (zeroed) with A × `cb`.
    fn run(&mut self, cb: &[i8], out: &mut [f32]) -> GemmStats {
        let Self { ca, dims: [m, k, n], q: (qa, qb), chunk_len, ref zeros, ref mut kernel } = *self;
        if out.is_empty() || k == 0 {
            return GemmStats::default();
        }
        let out_scale = qa.scale() * qb.scale();
        match kernel {
            IntPath::Saturating => {
                let plain = (GuardPolicy::Propagate, None);
                #[allow(clippy::expect_used)] // an unchecked, fault-free loop cannot fail
                return int_datapath(ca, cb, [m, k, n], (qa, qb), chunk_len, plain, out)
                    .expect("the plain datapath reports no error");
            }
            IntPath::Tiled => {
                // The i32 window sums cannot overflow (no saturation), and a
                // gated MAC contributes a zero product, so only the statistics
                // need the gate: `gated_stats` counts those per k-position.
                let cbt = transposed_panels(cb, k, n);
                let work = |row0: usize, band: &mut [f32]| -> GemmStats {
                    for (r, orow) in band.chunks_exact_mut(n).enumerate() {
                        let arow = &ca[(row0 + r) * k..(row0 + r + 1) * k];
                        for (j, o) in orow.iter_mut().enumerate() {
                            let dot = dot_int_windows(arow, &cbt[j * k..(j + 1) * k], chunk_len);
                            *o = dot as f32 * out_scale;
                        }
                    }
                    GemmStats::default()
                };
                par_rows(out, m, n, k, &work);
            }
            IntPath::Expanding(pa, pb) => {
                pb.pack(cb, qb);
                let (pa, pb) = (&*pa, &*pb);
                let work = |row0: usize, band: &mut [f32]| -> GemmStats {
                    pa.band(pb, row0, out_scale, band);
                    GemmStats::default()
                };
                par_rows(out, m, n, k, &work);
            }
        }
        gated_stats(zeros, &row_zeros(cb, n), m, n)
    }
}

/// Scalar reference for [`matmul_int`]: drives an [`IntAccumulator`] per
/// output element, including its saturating INT16 chunk register.
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn matmul_int_scalar(
    a: &Tensor,
    b: &Tensor,
    qa: QuantParams,
    qb: QuantParams,
    chunk_len: usize,
) -> (Tensor, GemmStats) {
    let (m, k, n) = check_matmul_shapes(a, b).expect("incompatible matmul shapes");
    let ca: Vec<i8> = a.as_slice().iter().map(|&x| qa.quantize(x)).collect();
    let cb: Vec<i8> = b.as_slice().iter().map(|&x| qb.quantize(x)).collect();
    let mut out = Tensor::zeros(vec![m, n]);
    let plain = (GuardPolicy::Propagate, None);
    let stats = int_datapath(&ca, &cb, [m, k, n], (qa, qb), chunk_len, plain, out.as_mut_slice())
        .expect("the plain datapath reports no error");
    (out, stats)
}

/// [`matmul_int`] under explicit execution options: the single fallible
/// entry point of the integer GEMM.
///
/// With `exec.faults == None` (or a plan whose MAC injectors are disabled)
/// this runs the bit-exact fast path under `exec.simd`, except that
/// [`GuardPolicy::Error`] forces the scalar datapath model whenever INT16
/// saturation is possible for the requested chunk length, so the first
/// overflow can be located. With an active plan it corrupts integer codes
/// and the chunk register per the plan and applies `exec.guard` when the
/// chunk register saturates or is pushed past the legal worst-case bound.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] on incompatible operands, and
/// [`NumericsError::Overflow`] under [`GuardPolicy::Error`] when the chunk
/// register overflows.
///
/// # Panics
///
/// Panics if `chunk_len == 0` (a configuration bug, not a data error).
pub fn matmul_int_with(
    a: &Tensor,
    b: &Tensor,
    qa: QuantParams,
    qb: QuantParams,
    chunk_len: usize,
    exec: Exec<'_>,
) -> Result<(Tensor, GemmStats), NumericsError> {
    let Exec { simd, guard: policy, faults } = exec;
    let (m, k, n) = check_matmul_shapes(a, b)?;
    assert!(chunk_len > 0, "chunk length must be positive");
    let (mut ca, mut cb) = (Vec::new(), Vec::new());
    qa.quantize_slice_into(a.as_slice(), &mut ca);
    qb.quantize_slice_into(b.as_slice(), &mut cb);
    let mut out = Tensor::zeros(vec![m, n]);
    let od = out.as_mut_slice();
    let plan = faults.filter(|p| p.mac_enabled());
    let stats = if plan.is_some()
        || (policy == GuardPolicy::Error && int_saturation_possible(qa, qb, k, chunk_len))
    {
        int_datapath(&ca, &cb, [m, k, n], (qa, qb), chunk_len, (policy, plan), od)?
    } else {
        let macs = (m * n * k) as u64;
        IntProduct::new(&ca, [m, k, n], (qa, qb), chunk_len, simd, macs).run(&cb, od)
    };
    Ok((out, stats))
}

/// The integer datapath model: an [`IntAccumulator`] per output of
/// row-major `[m, k]` codes `ca` times `[k, n]` codes `cb`, written to
/// `od`. With a plan, each code and then the chunk register pass through
/// it; a checking policy applies when the chunk register saturates or
/// leaves the legal worst-case bound. Under [`GuardPolicy::Propagate`]
/// without a plan this is the scalar reference.
fn int_datapath(
    ca: &[i8],
    cb: &[i8],
    [m, k, n]: [usize; 3],
    (qa, qb): (QuantParams, QuantParams),
    chunk_len: usize,
    (policy, mut plan): (GuardPolicy, Option<&mut FaultPlan>),
    od: &mut [f32],
) -> Result<GemmStats, NumericsError> {
    let out_scale = qa.scale() * qb.scale();
    let bound = int_chunk_bound(qa, qb, k, chunk_len).min(i64::from(i16::MAX)) as i16;
    let (bits_a, bits_b) = (qa.format().bits(), qb.format().bits());
    let mut stats = GemmStats::default();
    for i in 0..m {
        for j in 0..n {
            let mut acc = IntAccumulator::new(chunk_len);
            let mut sats_seen = 0u64;
            for p in 0..k {
                let (mut x, mut y) = (ca[i * k + p], cb[p * n + j]);
                if let Some(plan) = plan.as_deref_mut() {
                    x = plan.int_code(x, bits_a);
                    y = plan.int_code(y, bits_b);
                }
                acc.mac(x, y);
                if let Some(plan) = plan.as_deref_mut() {
                    acc.corrupt_chunk(|v| plan.int_chunk(v));
                }
                if policy.checks() {
                    let breached = acc.saturations() > sats_seen
                        || acc.chunk_value().unsigned_abs() > bound.unsigned_abs();
                    sats_seen = acc.saturations();
                    if breached {
                        match policy {
                            GuardPolicy::Saturate => {
                                stats.guard_clamps += 1;
                                acc.corrupt_chunk(|v| v.clamp(-bound, bound));
                            }
                            _ => {
                                return Err(NumericsError::Overflow {
                                    row: i,
                                    col: j,
                                    saturations: acc.saturations(),
                                })
                            }
                        }
                    }
                }
            }
            stats.macs += acc.macs();
            stats.zero_gated += acc.zero_gated();
            stats.saturations += acc.saturations();
            od[i * n + j] = acc.finish() as f32 * out_scale;
        }
    }
    Ok(stats)
}

/// The A operand of the expanding integer kernel ([`simd::int_tiles`]):
/// codes row-major with each row zero-padded to `k4` (a multiple of 4),
/// so the kernel reads 4-code quads as one broadcast i32, and each row's
/// correction for the column operand's bias.
struct IntRows<'a> {
    codes: Cow<'a, [i8]>,
    k4: usize,
    /// `bias · Σ_p a[r][p]` per row.
    corr: Vec<i32>,
}

impl<'a> IntRows<'a> {
    /// Packs row-major `[rows, k]` codes for a column operand biased by
    /// `bias` ([`IntCols::bias`]). Rows whose length is already a
    /// multiple of 4 are borrowed as they are.
    fn pack(codes: &'a [i8], rows: usize, k: usize, bias: i8) -> Self {
        let k4 = k.div_ceil(4) * 4;
        let codes = if k4 == k {
            Cow::Borrowed(codes)
        } else {
            let mut packed = vec![0i8; rows * k4];
            for r in 0..rows {
                packed[r * k4..r * k4 + k].copy_from_slice(&codes[r * k..(r + 1) * k]);
            }
            Cow::Owned(packed)
        };
        let corr = if bias == 0 {
            vec![0; rows]
        } else {
            let sum = |row: &[i8]| row.iter().map(|&c| i32::from(c)).sum::<i32>();
            (0..rows).map(|r| i32::from(bias) * sum(&codes[r * k4..(r + 1) * k4])).collect()
        };
        Self { codes, k4, corr }
    }

    /// Fills a row band (rows `row0 ..` of this operand) of the product
    /// with `cols`.
    fn band(&self, cols: &IntCols, row0: usize, out_scale: f32, band: &mut [f32]) {
        let rows = band.len() / cols.n;
        let a = &self.codes[row0 * self.k4..(row0 + rows) * self.k4];
        let corr = &self.corr[row0..row0 + rows];
        simd::int_tiles(a, self.k4, corr, &cols.bytes, cols.n, out_scale, band);
    }
}

/// The column operand of the expanding integer kernel: `k × n` codes in
/// 16-column tiles of 4-deep k-quads (see [`simd`]), each code biased
/// into `u8` range. Cells past `k` multiply the zero pad of the A rows
/// and cells past `n` feed discarded lanes, so their contents never
/// matter.
struct IntCols {
    bytes: Vec<u8>,
    k4: usize,
    n: usize,
}

impl IntCols {
    /// The bias a column operand in `q` is stored with: `2^(bits−1)` for
    /// signed codes, which lifts them into the unsigned operand of
    /// `vpmaddubsw`; zero for unsigned codes.
    fn bias(q: QuantParams) -> i8 {
        match q.signedness() {
            Signedness::Signed => 1 << (q.format().bits() - 1),
            Signedness::Unsigned => 0,
        }
    }

    /// Space for a `k × n` operand.
    fn new(k: usize, n: usize) -> Self {
        let k4 = k.div_ceil(4) * 4;
        Self { bytes: vec![0; n.div_ceil(simd::INT_TILE) * k4 * simd::INT_TILE], k4, n }
    }

    /// Packs row-major `[k, n]` codes in `q`.
    fn pack(&mut self, rows: &[i8], q: QuantParams) {
        simd::pack_int_cols(rows, self.n, Self::bias(q), self.k4, &mut self.bytes);
    }
}

/// Chunk-windowed integer dot product over `i8` codes: i32 sums per
/// chunk window (saturation-free by the caller's guard), i64 outer
/// accumulation. The window sums are plain multiply-adds the compiler can
/// vectorize.
#[inline]
fn dot_int_windows(a: &[i8], b: &[i8], chunk_len: usize) -> i64 {
    let mut outer = 0i64;
    let mut p0 = 0usize;
    let k = a.len();
    while p0 < k {
        let len = chunk_len.min(k - p0);
        let sum: i32 = a[p0..p0 + len]
            .iter()
            .zip(&b[p0..p0 + len])
            .map(|(&x, &y)| i32::from(x) * i32::from(y))
            .sum();
        outer += i64::from(sum);
        p0 += len;
    }
    outer
}

/// Convolution geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding in both spatial dimensions.
    pub pad: usize,
}

impl ConvSpec {
    /// Output spatial size for an input of size `h` and kernel `k`: 0 when
    /// the kernel does not fit the padded input or the stride is 0.
    pub fn out_dim(&self, h: usize, k: usize) -> usize {
        (h + 2 * self.pad)
            .checked_sub(k)
            .and_then(|span| span.checked_div(self.stride))
            .map_or(0, |steps| steps + 1)
    }
}

/// Lowers an `[n, ci, h, w]` input into the `[n*ho*wo, ci*kh*kw]` im2col
/// matrix for a `[co, ci, kh, kw]` kernel — the transformation RaPiD's
/// dataflow performs implicitly when streaming H×W innermost (Fig 5).
///
/// # Panics
///
/// Panics if `input` is not rank 4.
pub fn im2col(input: &Tensor, kh: usize, kw: usize, spec: ConvSpec) -> Tensor {
    let mut out = Tensor::default();
    im2col_into(input, kh, kw, spec, &mut out);
    out
}

/// [`im2col`] into a caller-provided tensor, reusing its allocation. `out`
/// is resized and fully overwritten; layer loops can pass the same scratch
/// tensor every iteration to avoid the per-call allocation.
///
/// # Panics
///
/// Panics if `input` is not rank 4.
pub fn im2col_into(input: &Tensor, kh: usize, kw: usize, spec: ConvSpec, out: &mut Tensor) {
    assert_eq!(input.shape().len(), 4, "im2col expects [n, c, h, w]");
    let s = input.shape();
    let lw = Lowering::new([s[1], s[2], s[3]], kh, kw, spec);
    let (hw, cols) = (lw.ho * lw.wo, lw.cols());
    out.reset(vec![s[0] * hw, cols]);
    let od = out.as_mut_slice();
    for (ni, img) in lw.images(input.as_slice(), s[0]).enumerate() {
        let rows = &mut od[ni * hw * cols..(ni + 1) * hw * cols];
        lw.rows_into(img, rows);
    }
}

/// The im2col index walk of one convolution geometry, shared by
/// [`im2col_into`] and both fast convolutions so the index math exists
/// once.
#[derive(Debug, Clone, Copy)]
struct Lowering {
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    ho: usize,
    wo: usize,
    spec: ConvSpec,
}

impl Lowering {
    fn new([c, h, w]: [usize; 3], kh: usize, kw: usize, spec: ConvSpec) -> Self {
        let (ho, wo) = (spec.out_dim(h, kh), spec.out_dim(w, kw));
        Self { c, h, w, kh, kw, ho, wo, spec }
    }

    /// Columns of the lowered matrix: `c · kh · kw`.
    fn cols(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// The `n` `[c, h, w]` images of an `[n, c, h, w]` buffer.
    fn images<'a, T>(&self, data: &'a [T], n: usize) -> impl Iterator<Item = &'a [T]> {
        let len = self.c * self.h * self.w;
        (0..n).map(move |i| &data[i * len..(i + 1) * len])
    }

    /// Walks one `[c, h, w]` image in runs: `put(j, p, xs, stride)` says
    /// that the lowered matrix holds `xs[0], xs[stride], …` (every
    /// `stride`-th element of `xs`, starting with the first and ending
    /// with the last) in column `p` (`(ci·kh + ky)·kw + kx`) of rows
    /// `j, j + 1, …` (output positions `oy·wo + ox`). A run is one output
    /// row's in-bounds span of one k-position. Padding positions are
    /// skipped: callers pre-fill them with zero.
    #[inline(always)]
    fn walk<T: Copy>(&self, img: &[T], mut put: impl FnMut(usize, usize, &[T], usize)) {
        let (stride, pad) = (self.spec.stride, self.spec.pad);
        // Per kernel column: the output columns `ox_lo..ox_hi` whose input
        // column `ox·stride + kx − pad` lies inside the image.
        let spans: Vec<(usize, usize)> = (0..self.kw)
            .map(|kx| {
                let lo = pad.saturating_sub(kx).div_ceil(stride);
                let hi = (self.w + pad).saturating_sub(kx).div_ceil(stride).min(self.wo);
                (lo, hi.max(lo))
            })
            .collect();
        for oy in 0..self.ho {
            for ci in 0..self.c {
                for ky in 0..self.kh {
                    let Some(iy) = (oy * stride + ky).checked_sub(pad) else { continue };
                    if iy >= self.h {
                        continue;
                    }
                    let irow = &img[(ci * self.h + iy) * self.w..][..self.w];
                    for (kx, &(lo, hi)) in spans.iter().enumerate() {
                        if lo < hi {
                            let first = lo * stride + kx - pad;
                            let xs = &irow[first..=first + (hi - lo - 1) * stride];
                            put(oy * self.wo + lo, (ci * self.kh + ky) * self.kw + kx, xs, stride);
                        }
                    }
                }
            }
        }
    }

    /// Writes one image's lowered matrix into `out`, `[ho·wo, c·kh·kw]`
    /// row-major (the im2col layout). Padding cells keep their contents.
    fn rows_into<T: Copy>(&self, img: &[T], out: &mut [T]) {
        let cols = self.cols();
        self.walk(img, |j, p, xs, stride| {
            for (row, &x) in out[j * cols..].chunks_mut(cols).zip(xs.iter().step_by(stride)) {
                row[p] = x;
            }
        });
    }

    /// Writes one image's lowered matrix transposed into `out`,
    /// `[c·kh·kw, ho·wo]` row-major: the rows of the `[k, n]` column
    /// operand. Padding cells keep their contents.
    fn cols_into<T: Copy>(&self, img: &[T], out: &mut [T]) {
        let n = self.ho * self.wo;
        self.walk(img, |j, p, xs, stride| {
            let row = &mut out[p * n + j..];
            if stride == 1 {
                row[..xs.len()].copy_from_slice(xs);
            } else {
                row.iter_mut().zip(xs.iter().step_by(stride)).for_each(|(d, &x)| *d = x);
            }
        });
    }

    /// Runs a convolution image by image over the `n` images of `data`:
    /// `product(rows, band)` gets one image lowered by [`Self::cols_into`]
    /// into a reused buffer (padding zero) and that image's share of the
    /// nonempty `[n, co, ho, wo]` `out`. Returns the merged statistics.
    fn per_image<T: Copy + Default>(
        &self,
        data: &[T],
        n: usize,
        out: &mut [f32],
        mut product: impl FnMut(&[T], &mut [f32]) -> GemmStats,
    ) -> GemmStats {
        let mut rows = vec![T::default(); self.cols() * self.ho * self.wo];
        let mut stats = GemmStats::default();
        for (img, band) in self.images(data, n).zip(out.chunks_exact_mut(out.len() / n)) {
            rows.fill(T::default());
            self.cols_into(img, &mut rows);
            stats.merge(product(&rows, band));
        }
        stats
    }
}

/// Validates conv operands: `(n, co, lowering)` of an `[n, ci, h, w]`
/// input and a `[co, ci, kh, kw]` weight.
fn check_conv_shapes(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
) -> Result<(usize, usize, Lowering), NumericsError> {
    let (s, ws) = (input.shape(), weight.shape());
    if s.len() != 4
        || ws.len() != 4
        || s[1] != ws[1]
        || spec.stride == 0
        || ws[2] > s[2] + 2 * spec.pad
        || ws[3] > s[3] + 2 * spec.pad
    {
        return Err(NumericsError::ShapeMismatch {
            expected: "input [n,ci,h,w] × weight [co,ci,kh,kw], the kernel within the padded \
                       input and stride > 0"
                .to_string(),
            actual: format!("input {s:?} × weight {ws:?}, {spec:?}"),
        });
    }
    Ok((s[0], ws[0], Lowering::new([s[1], s[2], s[3]], ws[2], ws[3], spec)))
}

/// Reference FP32 convolution the emulated convolutions' tests compare
/// against: input `[n, ci, h, w]`, weight `[co, ci, kh, kw]` → output
/// `[n, co, ho, wo]`.
///
/// # Panics
///
/// Panics if the operand ranks or channel counts are inconsistent.
#[cfg(test)]
#[allow(clippy::expect_used)] // documented panic on bad shapes
fn conv2d_f32(input: &Tensor, weight: &Tensor, spec: ConvSpec) -> Tensor {
    conv2d_via_gemm(input, weight, spec, |cols, wmat| {
        Ok((matmul_f32(cols, wmat), GemmStats::default()))
    })
    .expect("inconsistent conv operand shapes")
    .0
}

/// Emulated floating-point convolution through the FPU pipeline.
///
/// # Panics
///
/// Panics if the operand ranks or channel counts are inconsistent or
/// `chunk_len == 0`. Use [`conv2d_emulated_with_simd`] for a structured
/// error.
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn conv2d_emulated(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    mode: FmaMode,
    chunk_len: usize,
) -> (Tensor, GemmStats) {
    conv2d_emulated_with_simd(input, weight, spec, mode, chunk_len, SimdMode::from_env())
        .expect("inconsistent conv operand shapes")
}

/// [`conv2d_emulated`] under an explicit vectorization policy — the
/// single fallible conv entry point.
///
/// The product runs the float GEMM's core in whichever orientation puts
/// the larger of `co` and `ho·wo` on the output columns, which fill the
/// kernels' 16-lane groups. The shape alone picks it, never `simd_mode`:
///
/// - `co > ho·wo` (the deep, small-spatial layers): the pixels are A. All
///   `n` images are lowered into one `[n·ho·wo, ci·kh·kw]` im2col matrix,
///   and `× weightsᵀ [ci·kh·kw, co]` is one band product for the whole
///   batch, scattered into `[n, co, ho, wo]`. This is the scalar
///   reference's own orientation. The weights, staged as rows, move into
///   B's 16-column groups (`Staged::into_groups`); no f32 transpose is
///   made, so even `n·ho·wo = 1` takes the band kernels, not the GEMV,
///   which would need B's rows.
/// - Otherwise the weights are A. Each image runs `weights [co,
///   ci·kh·kw] × rows`, where `rows` is the image lowered straight into
///   `[ci·kh·kw, ho·wo]` (the im2col matrix transposed), so the product
///   is the image's `[co, ho, wo]` output as it stands.
///
/// Either way the weights are staged once per call as `[co, ci·kh·kw]`
/// rows, in the format the scalar reference gives them (its B port), and
/// the pixels in the other. FP9 and lattice products are exact and
/// commute, the chunked accumulation walks the same k order and the
/// gating count is symmetric, so every backend (`simd_mode` picks the
/// AVX2 or the portable kernels, as for the GEMM) reproduces the scalar
/// convolution bit for bit in both orientations; NaN operands are the
/// exception the module docs describe.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] on inconsistent operands.
///
/// # Panics
///
/// Panics if `chunk_len == 0` (a configuration bug, not a data error).
pub fn conv2d_emulated_with_simd(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    mode: FmaMode,
    chunk_len: usize,
    simd_mode: SimdMode,
) -> Result<(Tensor, GemmStats), NumericsError> {
    assert!(chunk_len > 0, "chunk length must be positive");
    let (n, co, lw) = check_conv_shapes(input, weight, spec)?;
    let (hw, k) = (lw.ho * lw.wo, lw.cols());
    let mut out = Tensor::zeros(vec![n, co, lw.ho, lw.wo]);
    if out.as_slice().is_empty() || k == 0 {
        return Ok((out, GemmStats::default()));
    }
    let (fa, fb) = mode.operand_formats();
    let use_simd = dispatch::use_simd(simd_mode, (n * co * hw * k) as u64);
    let (stage_a, stage_b) = (Stager::new(mode, fa, use_simd), Stager::new(mode, fb, use_simd));
    let kernel = BandKernel::new(use_simd, mode, chunk_len);
    let sw = Staged::rows(weight.as_slice(), k, stage_b);
    if co > hw {
        let sa = Staged::rows(im2col(input, lw.kh, lw.kw, spec).as_slice(), k, stage_a);
        let mut flat = vec![0.0f32; n * hw * co];
        let stats = grouped_product(&sa, &sw.into_groups(co), co, chunk_len, kernel, &mut flat);
        scatter_pixel_rows(&flat, co, hw, out.as_mut_slice());
        return Ok((out, stats));
    }
    let stats = lw.per_image(input.as_slice(), n, out.as_mut_slice(), |rows, band| {
        staged_product(&sw, rows, hw, chunk_len, stage_a, kernel, band)
    });
    Ok((out, stats))
}

/// Scalar reference for [`conv2d_emulated`] (scalar GEMM underneath); the
/// fast convolution must match it bit-for-bit.
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn conv2d_emulated_scalar(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    mode: FmaMode,
    chunk_len: usize,
) -> (Tensor, GemmStats) {
    conv2d_via_gemm(input, weight, spec, |cols, wmat| {
        Ok(matmul_emulated_scalar(mode, cols, wmat, chunk_len))
    })
    .expect("inconsistent conv operand shapes")
}

/// Emulated integer convolution through the FXU pipeline.
///
/// # Panics
///
/// Panics if the operand ranks or channel counts are inconsistent or
/// `chunk_len == 0`. Use [`conv2d_int_with_simd`] for a structured error.
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn conv2d_int(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    qa: QuantParams,
    qw: QuantParams,
    chunk_len: usize,
) -> (Tensor, GemmStats) {
    conv2d_int_with_simd(input, weight, spec, qa, qw, chunk_len, SimdMode::from_env())
        .expect("inconsistent conv operand shapes")
}

/// [`conv2d_int`] under an explicit vectorization policy — the single
/// fallible conv entry point.
///
/// The weights and the input are quantized once per call, and each
/// image's codes are lowered straight into `[ci·kh·kw, ho·wo]` code rows
/// (padding is code 0, which `quantize(0.0)` gives in every format) for
/// the integer GEMM's product core, with the weights as A as on
/// [`conv2d_emulated_with_simd`]'s per-image path, for every shape. The
/// core picks its kernel once per call: the saturating accumulator when
/// the chunk length makes INT16 saturation possible, else the windowed or
/// the expanding kernel.
/// Integer products, the saturating accumulator and the gating count are
/// symmetric in the operands, so every backend reproduces the scalar
/// convolution bit for bit.
///
/// # Errors
///
/// Returns [`NumericsError::ShapeMismatch`] on inconsistent operands.
///
/// # Panics
///
/// Panics if `chunk_len == 0` (a configuration bug, not a data error).
#[allow(clippy::too_many_arguments)]
pub fn conv2d_int_with_simd(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    qa: QuantParams,
    qw: QuantParams,
    chunk_len: usize,
    simd_mode: SimdMode,
) -> Result<(Tensor, GemmStats), NumericsError> {
    assert!(chunk_len > 0, "chunk length must be positive");
    let (n, co, lw) = check_conv_shapes(input, weight, spec)?;
    let (hw, k) = (lw.ho * lw.wo, lw.cols());
    let mut out = Tensor::zeros(vec![n, co, lw.ho, lw.wo]);
    if out.as_slice().is_empty() {
        return Ok((out, GemmStats::default()));
    }
    let (mut cw, mut cx) = (Vec::new(), Vec::new());
    qw.quantize_slice_into(weight.as_slice(), &mut cw);
    qa.quantize_slice_into(input.as_slice(), &mut cx);
    let macs = (n * co * hw * k) as u64;
    let mut core = IntProduct::new(&cw, [co, k, hw], (qw, qa), chunk_len, simd_mode, macs);
    let stats = lw.per_image(&cx, n, out.as_mut_slice(), |rows, band| core.run(rows, band));
    Ok((out, stats))
}

/// Scalar reference for [`conv2d_int`] (scalar GEMM underneath).
#[allow(clippy::expect_used)] // documented panic on bad shapes
pub fn conv2d_int_scalar(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    qa: QuantParams,
    qw: QuantParams,
    chunk_len: usize,
) -> (Tensor, GemmStats) {
    conv2d_via_gemm(input, weight, spec, |cols, wmat| {
        Ok(matmul_int_scalar(cols, wmat, qa, qw, chunk_len))
    })
    .expect("inconsistent conv operand shapes")
}

/// The reference convolutions' lowering: `mm(im2col, weightsᵀ)` as one
/// `[n·ho·wo, co]` GEMM, rearranged into `[n, co, ho, wo]`.
fn conv2d_via_gemm(
    input: &Tensor,
    weight: &Tensor,
    spec: ConvSpec,
    mm: impl Fn(&Tensor, &Tensor) -> Result<(Tensor, GemmStats), NumericsError>,
) -> Result<(Tensor, GemmStats), NumericsError> {
    let (n, co, lw) = check_conv_shapes(input, weight, spec)?;
    let cols = im2col(input, lw.kh, lw.kw, spec);
    #[allow(clippy::expect_used)] // reshape cannot fail: same element count
    let wmat = weight
        .clone()
        .reshape(vec![co, lw.cols()])
        .expect("weight reshape is size-preserving")
        .transposed();
    let (flat, stats) = mm(&cols, &wmat)?;
    let mut out = Tensor::zeros(vec![n, co, lw.ho, lw.wo]);
    scatter_pixel_rows(flat.as_slice(), co, lw.ho * lw.wo, out.as_mut_slice());
    Ok((out, stats))
}

/// Rearranges a convolution's `[n·ho·wo, co]` product (one row per output
/// pixel) into the `[n, co, ho, wo]` `out`, writing each output plane in
/// order (a read stride of `co` is cheaper than a write stride of `ho·wo`).
fn scatter_pixel_rows(flat: &[f32], co: usize, hw: usize, out: &mut [f32]) {
    // An empty output leaves both slices empty; `max(1)` only keeps the
    // chunking legal.
    let image = (hw * co).max(1);
    for (pixels, planes) in flat.chunks_exact(image).zip(out.chunks_exact_mut(image)) {
        for (c, plane) in planes.chunks_exact_mut(hw).enumerate() {
            for (s, d) in plane.iter_mut().enumerate() {
                *d = pixels[s * co + c];
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::fma::Fp8;
    use crate::format::fp16_round;
    use crate::int::IntFormat;

    fn rand_mat(m: usize, n: usize, seed: u64) -> Tensor {
        Tensor::random_uniform(vec![m, n], -1.0, 1.0, seed)
    }

    #[test]
    fn f32_matmul_identity() {
        let a = rand_mat(4, 4, 1);
        let eye = Tensor::from_fn(vec![4, 4], |i| if i % 5 == 0 { 1.0 } else { 0.0 });
        assert_eq!(matmul_f32(&a, &eye), a);
    }

    #[test]
    fn emulated_fp16_close_to_f32() {
        let a = rand_mat(8, 32, 2);
        let b = rand_mat(32, 8, 3);
        let exact = matmul_f32(&a, &b);
        let (got, stats) = matmul_emulated(FmaMode::Fp16, &a, &b, 64);
        assert_eq!(stats.macs, 8 * 32 * 8);
        assert!(got.max_rel_diff(&exact) < 5e-3, "diff {}", got.max_rel_diff(&exact));
    }

    #[test]
    fn emulated_hfp8_close_to_f32() {
        let a = rand_mat(8, 64, 4);
        let b = rand_mat(64, 8, 5);
        let exact = matmul_f32(&a, &b);
        let (fwd, _) = matmul_emulated(FmaMode::hfp8_fwd_default(), &a, &b, 64);
        let (bwd, _) = matmul_emulated(FmaMode::hfp8_bwd_default(), &a, &b, 64);
        // 3-bit / 2-bit mantissas: coarse but correlated.
        assert!(fwd.max_rel_diff(&exact) < 0.08, "fwd diff {}", fwd.max_rel_diff(&exact));
        assert!(bwd.max_rel_diff(&exact) < 0.15, "bwd diff {}", bwd.max_rel_diff(&exact));
    }

    #[test]
    fn int4_matmul_close_to_f32_for_uniform_data() {
        let a = rand_mat(8, 64, 6);
        let b = rand_mat(64, 8, 7);
        let qa = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, a.max_abs());
        let qb = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, b.max_abs());
        let exact = matmul_f32(&a, &b);
        let (got, stats) = matmul_int(&a, &b, qa, qb, 64);
        assert_eq!(stats.saturations, 0);
        assert!(got.max_rel_diff(&exact) < 0.25, "diff {}", got.max_rel_diff(&exact));
    }

    #[test]
    fn zero_gating_stats_reflect_sparsity() {
        let mut a = rand_mat(4, 32, 8);
        // Zero half of A's entries.
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let b = rand_mat(32, 4, 9);
        let (_, stats) = matmul_emulated(FmaMode::Fp16, &a, &b, 64);
        let frac = stats.gated_fraction();
        assert!((frac - 0.5).abs() < 0.05, "gated fraction {frac}");
    }

    /// The row-count gating identity: a zero A element gates all `n` MACs
    /// it feeds, any other gates the zeros of its B row. B has all-zero
    /// rows and columns, A an all-zero row; elsewhere the operands are
    /// bounded away from zero so every format keeps them nonzero. With
    /// `bias_b: 124` every quantized B value is nonzero but its FP9
    /// operand underflows to zero, which must not count as gated.
    #[test]
    fn zero_gating_counts_zero_rows_and_columns() {
        let (m, k, n) = (4, 9, 21);
        let (zero_a_row, zero_b_rows, zero_b_cols) = (2, [1, 4], [0, 7]);
        let a = Tensor::from_fn(vec![m, k], |i| {
            if i / k == zero_a_row {
                0.0
            } else {
                0.5 + (i % 7) as f32 * 0.05
            }
        });
        let b = Tensor::from_fn(vec![k, n], |i| {
            if zero_b_rows.contains(&(i / n)) || zero_b_cols.contains(&(i % n)) {
                0.0
            } else {
                -0.25 - (i % 11) as f32 * 0.03
            }
        });
        let row_zeros = |p| if zero_b_rows.contains(&p) { n } else { zero_b_cols.len() };
        let expect: usize = (0..m)
            .map(|r| (0..k).map(|p| if r == zero_a_row { n } else { row_zeros(p) }).sum::<usize>())
            .sum();
        for mode in [
            FmaMode::Fp16,
            FmaMode::hfp8_fwd_default(),
            FmaMode::hfp8_bwd_default(),
            FmaMode::Hfp8 { a: Fp8::E4m3 { bias: 7 }, b: Fp8::E4m3 { bias: 124 } },
        ] {
            let (_, scalar) = matmul_emulated_scalar(mode, &a, &b, 4);
            assert_eq!(scalar.zero_gated, expect as u64, "{mode:?} reference");
            for simd in [SimdMode::Force, SimdMode::Off] {
                let exec = Exec { simd, ..Exec::default() };
                let (_, fast) = matmul_emulated_with(mode, &a, &b, 4, exec).unwrap();
                assert_eq!(fast, scalar, "{mode:?} {simd:?}");
            }
        }
    }

    /// An empty reduction (`k == 0`, no im2col columns) writes zeros and
    /// issues no MACs, as the scalar reference does.
    #[test]
    fn empty_reduction_matches_scalar() {
        let (a, b) = (Tensor::zeros(vec![3, 0]), Tensor::zeros(vec![0, 5]));
        for simd in [SimdMode::Force, SimdMode::Off] {
            let exec = Exec { simd, ..Exec::default() };
            let (fast, fs) = matmul_emulated_with(FmaMode::Fp16, &a, &b, 4, exec).unwrap();
            let (scalar, ss) = matmul_emulated_scalar(FmaMode::Fp16, &a, &b, 4);
            assert_bits_eq(&fast, &scalar);
            assert_eq!(fs, ss);
        }
        let (input, weight) = (Tensor::zeros(vec![1, 0, 4, 4]), Tensor::zeros(vec![2, 0, 1, 1]));
        let mode = FmaMode::hfp8_fwd_default();
        let (fast, fs) =
            conv2d_emulated_with_simd(&input, &weight, ConvSpec { stride: 1, pad: 0 }, mode, 4, SimdMode::Force)
                .unwrap();
        let (scalar, ss) = conv2d_emulated_scalar(&input, &weight, ConvSpec { stride: 1, pad: 0 }, mode, 4);
        assert_bits_eq(&fast, &scalar);
        assert_eq!(fs, ss);
    }

    #[test]
    fn checked_matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4, 5]);
        assert!(matmul_f32_checked(&a, &b).is_err());
        assert!(matmul_emulated_with(FmaMode::Fp16, &a, &b, 64, Exec::default()).is_err());
        let q = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 1.0);
        assert!(matmul_int_with(&a, &b, q, q, 64, Exec::default()).is_err());
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn fast_rounder_matches_general_quantizer() {
        // The kernel rounder must agree with FpFormat::fp16() quantization
        // on every finite f32 (NaN alone differs) — sampled densely across
        // the exponent range plus edge cases.
        let check = |x: f32| {
            let general = fp16_round(x);
            assert_eq!(fp16_round_sum(x).to_bits(), general.to_bits(), "x = {x:e}");
        };
        for exp in 0u32..=254 {
            for man in [0u32, 1, 0x1fff, 0x2000, 0x2001, 0x3fff, 0x7fffff] {
                let bits = (exp << 23) | man;
                check(f32::from_bits(bits));
                check(f32::from_bits(bits | 0x8000_0000));
            }
        }
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..1_000_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let x = f32::from_bits((state >> 32) as u32);
            if x.is_finite() {
                check(x);
            }
        }
    }

    /// Both stager bodies — the AVX2 clone and the portable loop — must
    /// reproduce `FpFormat::quantize` (composed with the FP9 conversion
    /// for HFP8) bit for bit on every staged format, and count exactly
    /// its quantized zeros.
    #[test]
    fn stager_matches_quantize_on_every_staged_format() {
        let fp9 = FpFormat::fp9();
        let mut formats: Vec<FpFormat> =
            (-111..=124).map(|b| FpFormat::fp8_e4m3_with_bias(b).unwrap()).collect();
        formats.extend([FpFormat::fp8_e5m2(), FpFormat::fp16()]);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let random: Vec<f32> = (0..100_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                f32::from_bits((state >> 32) as u32)
            })
            .collect();
        let bodies: &[bool] = if dispatch::simd_available() { &[false, true] } else { &[false] };
        for &f in &formats {
            let (half, mn, mx) = (f.min_normal() * 0.5, f.min_normal(), f.max_value());
            let half_ulp = 1u32 << (22 - f.man_bits());
            let mut xs = vec![
                0.0,
                f32::INFINITY,
                f32::NAN,
                f32::from_bits(0x7f80_0001),
                f32::from_bits(0x7fff_ffff),
                f32::MAX,
                f32::from_bits(1),
                half,
                f32::from_bits(half.to_bits() - 1),
                f32::from_bits(half.to_bits() + 1),
                mn,
                f32::from_bits(mn.to_bits() - 1),
                mx,
                // max's mantissa is odd, so the tie above it rounds up past max.
                f32::from_bits(mx.to_bits() + half_ulp),
                f32::from_bits(mx.to_bits() + half_ulp - 1),
                mx * 4.0,
            ];
            xs.extend(xs.clone().iter().map(|x| -x));
            xs.extend(&random);
            for &simd in bodies {
                for mode in [FmaMode::Fp16, FmaMode::hfp8_fwd_default()] {
                    let st = Stager::new(mode, f, simd);
                    assert_eq!(st.simd, simd);
                    let mut ops = vec![0.0f32; xs.len()];
                    let mut zeros = vec![0u32; xs.len()];
                    st.run::<true>(&xs, &mut ops, &mut zeros);
                    let mut total_ops = vec![0.0f32; xs.len()];
                    let mut total = [0u32];
                    st.run::<false>(&xs, &mut total_ops, &mut total);
                    let mut want_total = 0;
                    for (i, &x) in xs.iter().enumerate() {
                        let q = f.quantize(x);
                        let want = if mode == FmaMode::Fp16 { q } else { fp9.quantize(q) };
                        let got = (ops[i].to_bits(), total_ops[i].to_bits(), zeros[i]);
                        let expect = (want.to_bits(), want.to_bits(), u32::from(q == 0.0));
                        let bits = x.to_bits();
                        assert_eq!(got, expect, "{f} {mode:?} simd={simd} x={x:e} ({bits:#x})");
                        want_total += u32::from(q == 0.0);
                    }
                    assert_eq!(total[0], want_total, "{f} {mode:?} simd={simd}");
                }
            }
        }
        // Exhaustively over the 256 codes of every 8-bit format, the staged
        // operand is the code's FP9 conversion: the exact factor the HFP8
        // multiply takes.
        for &fmt in &formats[..formats.len() - 1] {
            for &simd in bodies {
                let codes: Vec<f32> = (0..256).map(|c| fmt.decode(c)).collect();
                let mut ops = vec![0.0f32; 256];
                let st = Stager::new(FmaMode::hfp8_fwd_default(), fmt, simd);
                st.run::<true>(&codes, &mut ops, &mut [0; 256]);
                for (c, (o, &x)) in ops.iter().zip(&codes).enumerate() {
                    let want = fp9.quantize(x);
                    assert_eq!(o.to_bits(), want.to_bits(), "{fmt} code {c:#04x} simd={simd}");
                }
            }
        }
    }

    #[test]
    fn fast_path_matches_scalar_all_float_modes() {
        // Shapes chosen to exercise the JR remainder columns and partial
        // final chunks; sparsity exercises gating counts.
        let mut a = rand_mat(7, 35, 30);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
        }
        let b = rand_mat(35, 11, 31);
        for mode in [
            FmaMode::Fp16,
            FmaMode::hfp8_fwd_default(),
            FmaMode::hfp8_bwd_default(),
            FmaMode::Hfp8 { a: Fp8::E4m3 { bias: 5 }, b: Fp8::E4m3 { bias: 9 } },
        ] {
            for chunk_len in [1, 3, 35, 64] {
                let (fast, fs) = matmul_emulated(mode, &a, &b, chunk_len);
                let (scalar, ss) = matmul_emulated_scalar(mode, &a, &b, chunk_len);
                assert_bits_eq(&fast, &scalar);
                assert_eq!(fs, ss, "{mode:?} chunk {chunk_len}");
            }
        }
    }

    /// The range proof's verdicts, and the chunk step each one selects:
    /// the 4-op rounder where the proof holds, else the checked step,
    /// which starts out testing both domain edges. The default HFP8 pairs
    /// pass at chunk 64 in either port order; FP16 and (1,5,2) × (1,5,2)
    /// never do. Each condition's edge is pinned: the quantum test between
    /// (1,4,3) biases 12 and 13 against (1,5,2), and the growth bound
    /// between chunks 72 and 73 (and 2192 and 2193 for (1,4,3) × (1,4,3)).
    /// A bias whose format the FP9 conversion would change is rejected.
    #[test]
    fn chunk_range_proof_verdicts() {
        let e4 = |bias| Fp8::E4m3 { bias };
        let hfp8 = |a, b| FmaMode::Hfp8 { a, b };
        let (fwd, bwd) = (FmaMode::hfp8_fwd_default(), FmaMode::hfp8_bwd_default());
        let cases = [
            (fwd, 64, true),
            (bwd, 64, true),
            (hfp8(Fp8::E5m2, e4(7)), 64, true),
            (hfp8(e4(5), e4(9)), 64, true),
            (hfp8(Fp8::E5m2, Fp8::E5m2), 1, false),
            (hfp8(Fp8::E5m2, Fp8::E5m2), 64, false),
            (FmaMode::Fp16, 1, false),
            (FmaMode::Fp16, 64, false),
            (hfp8(e4(12), Fp8::E5m2), 1, true),
            (hfp8(Fp8::E5m2, e4(13)), 1, false),
            (bwd, 72, true),
            (hfp8(Fp8::E5m2, e4(7)), 73, false),
            (fwd, 2192, true),
            (fwd, 2193, false),
            (fwd, 4096, false),
            (fwd, usize::MAX, false),
            (hfp8(e4(7), e4(124)), 1, false),
            (hfp8(e4(-111), e4(7)), 1, false),
        ];
        for (mode, chunk_len, want) in cases {
            assert_eq!(chunk_sums_in_range(mode, chunk_len), want, "{mode:?} chunk {chunk_len}");
            let step =
                if want { ChunkStep::Ranged } else { ChunkStep::Checked { below_only: false } };
            assert_eq!(BandKernel::new(true, mode, chunk_len), BandKernel::Avx2 { step });
            assert_eq!(BandKernel::new(false, mode, chunk_len), BandKernel::Portable);
        }
    }

    /// The per-panel overflow proof of the checked step: it holds up to
    /// `chunk_len · max_a · max_b · (1 + 2^-10)^chunk_len = FP16_MAX/2`
    /// and fails past it, and a NaN or infinite operand (whose magnitude
    /// a float `max` would drop or keep) always fails it, so the step
    /// keeps the overflow half of its test. A proven step stays as it is.
    #[test]
    fn checked_step_overflow_proof() {
        let checked = |below_only| ChunkStep::Checked { below_only };
        let step = |a: &[f32], b: &[f32], chunk_len| {
            BandKernel::step_for(checked(false), chunk_len, max_magnitude(a), b)
        };
        let half_max = f64::from(f32::from_bits(FP16_MAX)) / 2.0;
        let edge = (half_max / (64.0 * (1.0 + 2f64.powi(-10)).powi(64))).sqrt() as f32;
        let (below, above) = (edge * (1.0 - 1e-6), edge * (1.0 + 1e-6));
        assert_eq!(step(&[0.0, -below], &[below, 1.0], 64), checked(true));
        assert_eq!(step(&[-above, 0.0], &[above], 64), checked(false));
        assert_eq!(step(&[1.0, -4.0], &[2.0, 0.5], 64), checked(true));
        assert_eq!(step(&[1.0], &[2.0, 0.5], 1 << 20), checked(false));
        for bad in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert_eq!(step(&[1.0, bad, 0.0], &[1.0], 64), checked(false), "{bad}");
            assert_eq!(step(&[1.0], &[bad, 2.0], 64), checked(false), "{bad}");
        }
        assert!(max_magnitude(&[1.0, f32::NAN, f32::INFINITY]).is_nan());
        assert_eq!(max_magnitude(&[]), 0.0);
        let ranged = BandKernel::step_for(ChunkStep::Ranged, 64, f64::NAN, &[f32::NAN]);
        assert_eq!(ranged, ChunkStep::Ranged);
    }

    #[test]
    fn fast_int_matches_scalar_across_formats() {
        let a = rand_mat(6, 40, 32);
        let b = rand_mat(40, 9, 33);
        for (fmt, signedness) in [
            (IntFormat::Int4, Signedness::Signed),
            (IntFormat::Int4, Signedness::Unsigned),
            (IntFormat::Int2, Signedness::Signed),
            (IntFormat::Int2, Signedness::Unsigned),
        ] {
            let qa = QuantParams::from_abs_max(fmt, signedness, a.max_abs());
            let qb = QuantParams::from_abs_max(fmt, Signedness::Signed, b.max_abs());
            for chunk_len in [1, 7, 64] {
                let (fast, fs) = matmul_int(&a, &b, qa, qb, chunk_len);
                let (scalar, ss) = matmul_int_scalar(&a, &b, qa, qb, chunk_len);
                assert_bits_eq(&fast, &scalar);
                assert_eq!(fs, ss, "{fmt:?} {signedness:?} chunk {chunk_len}");
            }
        }
    }

    #[test]
    fn saturating_chunk_lengths_fall_back_to_scalar_semantics() {
        // chunk_len 1024 × worst product 49 exceeds i16::MAX: saturation is
        // possible, so the fast path must defer to the saturating reference.
        let a = Tensor::from_fn(vec![2, 2048], |_| 1.0);
        let b = Tensor::from_fn(vec![2048, 2], |_| 1.0);
        let qa = QuantParams::with_scale(IntFormat::Int4, Signedness::Signed, 1.0 / 7.0).unwrap();
        let (fast, fs) = matmul_int(&a, &b, qa, qa, 1024);
        let (scalar, ss) = matmul_int_scalar(&a, &b, qa, qa, 1024);
        assert!(ss.saturations > 0, "test should exercise saturation");
        assert_bits_eq(&fast, &scalar);
        assert_eq!(fs, ss);
    }

    #[test]
    fn conv_matches_direct_computation() {
        // 1x1x3x3 input, 1x1x2x2 kernel, stride 1 pad 0.
        let input = Tensor::from_vec(vec![1, 1, 3, 3], (1..=9).map(|x| x as f32).collect());
        let weight = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let out = conv2d_f32(&input, &weight, ConvSpec { stride: 1, pad: 0 });
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        // out[y][x] = in[y][x] + in[y+1][x+1]
        assert_eq!(out.get(&[0, 0, 0, 0]), 1.0 + 5.0);
        assert_eq!(out.get(&[0, 0, 0, 1]), 2.0 + 6.0);
        assert_eq!(out.get(&[0, 0, 1, 0]), 4.0 + 8.0);
        assert_eq!(out.get(&[0, 0, 1, 1]), 5.0 + 9.0);
    }

    /// A kernel larger than the padded input, or a zero stride, has no
    /// output positions: `out_dim` says 0, every fallible conv entry point
    /// returns `ShapeMismatch` and every panicking one panics, instead of
    /// computing a phantom output from the in-bounds taps.
    #[test]
    fn conv_rejects_unfitting_kernel_and_zero_stride() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        assert_eq!(ConvSpec { stride: 1, pad: 0 }.out_dim(2, 3), 0);
        assert_eq!(ConvSpec { stride: 1, pad: 1 }.out_dim(2, 3), 2);
        assert_eq!(ConvSpec { stride: 0, pad: 0 }.out_dim(4, 3), 0);
        let input = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let (qa, qw) = (
            QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 4.0),
            QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 1.0),
        );
        let cases = [
            (Tensor::from_fn(vec![1, 1, 3, 3], |_| 1.0), ConvSpec { stride: 1, pad: 0 }),
            (Tensor::from_fn(vec![1, 1, 1, 3], |_| 1.0), ConvSpec { stride: 1, pad: 0 }),
            (Tensor::from_fn(vec![1, 1, 1, 1], |_| 1.0), ConvSpec { stride: 0, pad: 0 }),
        ];
        for (weight, spec) in &cases {
            for simd in [SimdMode::Auto, SimdMode::Force, SimdMode::Off] {
                let fp = conv2d_emulated_with_simd(&input, weight, *spec, FmaMode::Fp16, 64, simd);
                assert!(matches!(fp, Err(NumericsError::ShapeMismatch { .. })), "{spec:?}");
                let int = conv2d_int_with_simd(&input, weight, *spec, qa, qw, 64, simd);
                assert!(matches!(int, Err(NumericsError::ShapeMismatch { .. })), "{spec:?}");
            }
            let (w, s) = (weight, *spec);
            let panicking: [&dyn Fn(); 5] = [
                &|| drop(conv2d_f32(&input, w, s)),
                &|| drop(conv2d_emulated(&input, w, s, FmaMode::Fp16, 64)),
                &|| drop(conv2d_emulated_scalar(&input, w, s, FmaMode::Fp16, 64)),
                &|| drop(conv2d_int(&input, w, s, qa, qw, 64)),
                &|| drop(conv2d_int_scalar(&input, w, s, qa, qw, 64)),
            ];
            for (i, conv) in panicking.iter().enumerate() {
                assert!(catch_unwind(AssertUnwindSafe(conv)).is_err(), "entry {i}, {spec:?}");
            }
        }
    }

    #[test]
    fn conv_with_padding_and_stride() {
        let input = Tensor::random_uniform(vec![2, 3, 8, 8], -1.0, 1.0, 10);
        let weight = Tensor::random_uniform(vec![4, 3, 3, 3], -0.5, 0.5, 11);
        let spec = ConvSpec { stride: 2, pad: 1 };
        let out = conv2d_f32(&input, &weight, spec);
        assert_eq!(out.shape(), &[2, 4, 4, 4]);
    }

    #[test]
    fn emulated_conv_tracks_reference() {
        let input = Tensor::random_uniform(vec![1, 4, 6, 6], -1.0, 1.0, 12);
        let weight = Tensor::random_uniform(vec![8, 4, 3, 3], -0.5, 0.5, 13);
        let exact = conv2d_f32(&input, &weight, ConvSpec { stride: 1, pad: 0 });
        let (fp16, stats) = conv2d_emulated(&input, &weight, ConvSpec { stride: 1, pad: 0 }, FmaMode::Fp16, 64);
        assert_eq!(stats.macs as usize, 8 * 4 * 4 * 3 * 3 * 4);
        assert!(fp16.max_rel_diff(&exact) < 1e-2);
    }

    #[test]
    fn int_conv_runs_without_saturation() {
        let input = Tensor::random_uniform(vec![1, 8, 6, 6], 0.0, 1.0, 14);
        let weight = Tensor::random_uniform(vec![8, 8, 3, 3], -0.5, 0.5, 15);
        let qa = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Unsigned, 1.0);
        let qw = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 0.5);
        let (out, stats) = conv2d_int(&input, &weight, ConvSpec { stride: 1, pad: 0 }, qa, qw, 64);
        assert_eq!(out.shape(), &[1, 8, 4, 4]);
        assert_eq!(stats.saturations, 0);
        let exact = conv2d_f32(&input, &weight, ConvSpec { stride: 1, pad: 0 });
        assert!(out.max_rel_diff(&exact) < 0.3);
    }

    #[test]
    fn fast_conv_matches_scalar_conv() {
        let input = Tensor::random_uniform(vec![1, 3, 6, 6], -1.0, 1.0, 50);
        let weight = Tensor::random_uniform(vec![4, 3, 3, 3], -0.5, 0.5, 51);
        let spec = ConvSpec { stride: 1, pad: 1 };
        let mode = FmaMode::hfp8_bwd_default();
        let (fast, fs) = conv2d_emulated(&input, &weight, spec, mode, 16);
        let (scalar, ss) = conv2d_emulated_scalar(&input, &weight, spec, mode, 16);
        assert_bits_eq(&fast, &scalar);
        assert_eq!(fs, ss);
        let qa = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 1.0);
        let (ifast, ifs) = conv2d_int(&input, &weight, spec, qa, qa, 16);
        let (iscalar, iss) = conv2d_int_scalar(&input, &weight, spec, qa, qa, 16);
        assert_bits_eq(&ifast, &iscalar);
        assert_eq!(ifs, iss);
    }

    #[test]
    fn exec_default_honors_the_simd_env_knob() {
        assert_eq!(Exec::default().simd, SimdMode::from_env());
    }

    #[test]
    fn guarded_kernels_without_active_faults_are_bit_exact() {
        use rapid_fault::FaultPlan;
        let a = rand_mat(5, 33, 70);
        let b = rand_mat(33, 6, 71);
        let mode = FmaMode::hfp8_fwd_default();
        let (base, bs) = matmul_emulated(mode, &a, &b, 64);
        for faults in [None, Some(&mut FaultPlan::disabled())] {
            let exec = Exec { guard: GuardPolicy::Error, faults, ..Exec::default() };
            let (got, gs) = matmul_emulated_with(mode, &a, &b, 64, exec).unwrap();
            assert_bits_eq(&base, &got);
            assert_eq!(bs, gs);
        }
        let q = QuantParams::from_abs_max(IntFormat::Int4, Signedness::Signed, 1.0);
        let (bi, bis) = matmul_int(&a, &b, q, q, 64);
        let mut plan = FaultPlan::disabled();
        let exec = Exec { guard: GuardPolicy::Error, faults: Some(&mut plan), ..Exec::default() };
        let (gi, gis) = matmul_int_with(&a, &b, q, q, 64, exec).unwrap();
        assert_bits_eq(&bi, &gi);
        assert_eq!(bis, gis);
    }

    #[test]
    fn error_policy_catches_injected_exponent_upsets() {
        use rapid_fault::{FaultConfig, FaultPlan};
        let a = rand_mat(4, 256, 72);
        let b = rand_mat(256, 4, 73);
        let mut caught = 0;
        for seed in 0..8 {
            let cfg = FaultConfig {
                seed,
                mac_acc_rate: 0.02,
                exponent_share: 1.0,
                ..FaultConfig::default()
            };
            let mut plan = FaultPlan::new(cfg);
            let r = matmul_emulated_with(
                FmaMode::Fp16,
                &a,
                &b,
                64,
                Exec { guard: GuardPolicy::Error, faults: Some(&mut plan), ..Exec::default() },
            );
            if let Err(e) = r {
                assert!(matches!(e, NumericsError::NonFinite { .. }), "unexpected {e:?}");
                caught += 1;
            }
        }
        assert!(caught > 0, "no seed out of 8 produced a non-finite accumulator");
    }

    #[test]
    fn saturate_policy_keeps_faulty_output_finite() {
        use rapid_fault::{FaultConfig, FaultPlan};
        let a = rand_mat(4, 256, 74);
        let b = rand_mat(256, 4, 75);
        let cfg = FaultConfig {
            seed: 5,
            mac_operand_rate: 0.01,
            mac_acc_rate: 0.01,
            exponent_share: 1.0,
            ..FaultConfig::default()
        };
        let mut plan = FaultPlan::new(cfg);
        let (out, _) = matmul_emulated_with(
            FmaMode::Fp16,
            &a,
            &b,
            64,
            Exec { guard: GuardPolicy::Saturate, faults: Some(&mut plan), ..Exec::default() },
        )
        .unwrap();
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        assert!(plan.counts().mac_operand_flips + plan.counts().mac_acc_flips > 0);
    }

    #[test]
    fn saturate_policy_counts_every_clamp() {
        // Whatever the Error policy would abort on, Saturate must clamp —
        // and report. Replay the same fault stream under both policies.
        use rapid_fault::{FaultConfig, FaultPlan};
        let a = rand_mat(4, 256, 72);
        let b = rand_mat(256, 4, 73);
        let mut total_clamps = 0u64;
        for seed in 0..8 {
            let cfg = FaultConfig {
                seed,
                mac_acc_rate: 0.02,
                exponent_share: 1.0,
                ..FaultConfig::default()
            };
            let errored = matmul_emulated_with(
                FmaMode::Fp16,
                &a,
                &b,
                64,
                Exec {
                    guard: GuardPolicy::Error,
                    faults: Some(&mut FaultPlan::new(cfg)),
                    ..Exec::default()
                },
            )
            .is_err();
            let (out, stats) = matmul_emulated_with(
                FmaMode::Fp16,
                &a,
                &b,
                64,
                Exec {
                    guard: GuardPolicy::Saturate,
                    faults: Some(&mut FaultPlan::new(cfg)),
                    ..Exec::default()
                },
            )
            .unwrap();
            assert!(out.as_slice().iter().all(|v| v.is_finite()));
            if errored {
                assert!(stats.guard_clamps > 0, "seed {seed}: abort implies a clamp");
            }
            total_clamps += stats.guard_clamps;
        }
        assert!(total_clamps > 0, "no seed out of 8 needed a clamp");
    }

    #[test]
    fn int_guard_locates_chunk_overflow() {
        // chunk_len 1024 × worst product 49 exceeds i16::MAX: saturation
        // occurs, and the Error policy pinpoints the first overflow.
        let a = Tensor::from_fn(vec![2, 2048], |_| 1.0);
        let b = Tensor::from_fn(vec![2048, 2], |_| 1.0);
        let qa = QuantParams::with_scale(IntFormat::Int4, Signedness::Signed, 1.0 / 7.0).unwrap();
        let exec = Exec { guard: GuardPolicy::Error, ..Exec::default() };
        let err = matmul_int_with(&a, &b, qa, qa, 1024, exec).unwrap_err();
        assert!(
            matches!(err, NumericsError::Overflow { row: 0, col: 0, .. }),
            "unexpected {err:?}"
        );
        // Saturate matches the hardware register's native behavior.
        let exec = Exec { guard: GuardPolicy::Saturate, ..Exec::default() };
        let (sat, stats) = matmul_int_with(&a, &b, qa, qa, 1024, exec).unwrap();
        let (scalar, _) = matmul_int_scalar(&a, &b, qa, qa, 1024);
        assert!(stats.saturations > 0);
        assert_bits_eq(&sat, &scalar);
    }

    #[test]
    fn same_seed_reproduces_identical_faulty_output() {
        use rapid_fault::{FaultConfig, FaultPlan};
        let a = rand_mat(4, 64, 76);
        let b = rand_mat(64, 4, 77);
        let cfg = FaultConfig { seed: 9, mac_operand_rate: 0.05, ..FaultConfig::default() };
        let run = || {
            let mut plan = FaultPlan::new(cfg);
            let (out, _) = matmul_emulated_with(
                FmaMode::hfp8_fwd_default(),
                &a,
                &b,
                64,
                Exec { faults: Some(&mut plan), ..Exec::default() },
            )
            .unwrap();
            (out, plan.trace().to_vec(), plan.counts())
        };
        let (o1, t1, c1) = run();
        let (o2, t2, c2) = run();
        assert_bits_eq(&o1, &o2);
        assert_eq!(t1, t2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn im2col_into_reuses_allocation() {
        let input = Tensor::random_uniform(vec![1, 2, 5, 5], -1.0, 1.0, 60);
        let spec = ConvSpec { stride: 1, pad: 1 };
        let fresh = im2col(&input, 3, 3, spec);
        let mut scratch = Tensor::zeros(vec![7, 7]); // wrong shape, dirty data
        scratch.map_inplace(|_| 9.0);
        im2col_into(&input, 3, 3, spec, &mut scratch);
        assert_eq!(fresh, scratch);
    }
}
