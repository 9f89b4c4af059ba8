//! AVX2 vector kernels for the emulated GEMM fast paths.
//!
//! Three inner-loop families, selected by [`crate::dispatch`]:
//!
//! * [`dot_fp16_groups_wide`] / [`dot_fp16_group16`] — the float MAC loop
//!   over staged 16-column B groups: broadcast the A value, one
//!   `vfmadd231ps` adds its products with the contiguous group into the
//!   chunk registers, and the chunk step rounds to DLFloat16 with a magic
//!   constant. The exact rounder, the sequence of `gemm::fp16_round_sum`,
//!   costs 11 lane ops, almost all for underflow flush, saturation and the
//!   sign. The 4-op signed rounder agrees with it on its domain, `±0` and
//!   magnitudes in `[FP16_MIN_NORMAL, FP16_MAX]`, and every chunk step
//!   runs it ([`ChunkStep`], a const-generic choice per call):
//!   - *Ranged*: `gemm::chunk_sums_in_range` proves that no chunk sum can
//!     leave the domain (the default HFP8 pairs at chunk 64).
//!   - *Checked*: everything else — FP16, (1,5,2) × (1,5,2), long chunks.
//!     Each rounded register also feeds a sticky per-lane test, "is it
//!     `+0` or of magnitude in `[MIN_NORMAL, MAX]`?" (the 4-op rounder
//!     never returns `-0.0`). At each chunk boundary and at the epilogue
//!     a set test replays that chunk with the exact rounder. Chunk
//!     registers restart at `+0` at every boundary, so the replay reruns
//!     only that chunk's k range and needs no saved state. Testing the
//!     rounded register suffices: a sum outside the domain either rounds
//!     to a value the test flags, or to the exact rounder's result
//!     (`MIN_NORMAL` from just below, `MAX` from just above), and a NaN
//!     stays NaN. The test costs 4 ops per vector (abs, −1, unsigned min
//!     for the underflow edge, signed max for the overflow edge); the band
//!     loop drops the max when the panel's operands prove the overflow
//!     edge unreachable (`gemm::BandKernel::step_for`), leaving 3.
//!
//!   The epilogue always rounds exactly. The same kernel serves every
//!   float mode: FP16 runs on lattice values, and HFP8 on the **FP9
//!   operand values** both operands are converted to when staged: the
//!   product of two FP9 values is exact in f32, so one multiply is the
//!   HFP8 product. A variant that gathered
//!   products from a 64K-entry table (`vpgatherdps`) was tried first; at
//!   ~3 cycles per 8-lane gather it was strictly slower than the multiply.
//! * [`axpy_fp16`] — the row-streamed GEMV's chunk step (`gemm::gemv`,
//!   every float GEMM with m = 1). B is not staged into groups there:
//!   each B element is used exactly once, so the GEMV stages one B row at
//!   a time into an n-wide buffer and this kernel adds `x·b[j]` into
//!   per-column chunk registers held in an n-wide array, rounding each
//!   with the group kernels' chunk step. It is one k step of their op
//!   sequence, applied to a whole row; a checked step reports whether any
//!   column left the domain, and the GEMV then re-stages the chunk's B
//!   rows and replays it with the portable twin, a `fp16_round_sum` loop.
//! * [`int_tiles`] — the expanding integer kernel, RaPiD's INT4 engine
//!   on the host: 4-bit codes multiply into 16-bit pair sums that widen
//!   into 32-bit accumulators. The column operand is packed in 4-deep
//!   k-quads × 8 columns (32 bytes, one `u8` code per byte, zero-padded
//!   to whole 16-column tiles and whole quads); each A row is padded to a
//!   multiple of 4 codes and each quad is read as one broadcast i32. A
//!   tile of 4 rows × 16 columns keeps 8 accumulators of 8 i32 lanes;
//!   each k-quad step is `vpmaddubsw` (packed operand unsigned, A signed),
//!   `vpmaddwd` by ones and `vpaddd`, so no tile needs a horizontal
//!   reduction. A signed column operand is biased by `2^(bits−1)` into
//!   the unsigned range and each row subtracts `bias·Σ_p a_p` once: exact,
//!   and a pair sum is at most `2·15·15 = 450`, so the i16 step cannot
//!   saturate. Each output converts its exact integer sum once and
//!   multiplies by the scale, the scalar reference's two IEEE operations.
//!   Only called when the chunk guard rules out INT16 saturation, where
//!   the windowed sum equals the plain dot product exactly
//!   (order-independent integer addition), so the result is bit-identical.
//!
//! The wide float kernel's speed is set by the rounder's lane ops first
//! and by where B sits second. On a 2-vCPU x86-64 Xeon (2 MB L2 per
//! core), one thread, chunk 64, median of 21 paired rounds in one
//! process, FP16 at 64×768×768 took 1.31–1.36× HFP8's time with the 3-op
//! checked step, against 1.52–1.74× with the exact rounder (HFP8 itself
//! ran at 7–9 GMAC/s). A replay hands its registers back by value, so the
//! chunk registers never have their address taken and stay in vector
//! registers, and a checked step keeps its outer sums in `out`, which
//! leaves the 16 vector registers to the chunk registers, constants and
//! test; with the outer sums in registers the ratio read 1.40–1.43. The
//! caller
//! (`gemm::staged_band`) walks B panels outside and A rows inside, so
//! each 64-column panel (k × 64 f32, 196 KiB at k = 768) is read from
//! memory once per row band and from cache by every other row. Each chunk register still advances
//! serially per k step (the order is the bit-exactness contract, so it
//! cannot be reassociated), so the `_wide` variants walk [`WIDE_GROUPS`]
//! column groups per k sweep — 8 independent accumulation chains, enough
//! to cover the FMA + rounding latency; the 16-column variants clean up
//! the remainder. k steps whose broadcast A value is exactly zero skip the
//! whole FMA+round sweep: every product is `±0.0`, and both rounders are
//! idempotent on their own outputs (a lattice value plus its own magic
//! constant is exact), so the chunk registers come back unchanged up to
//! the sign of a zero register, which no output observes (see
//! `gemm::dot_staged_group`); the GEMV skips a zero A value's row the
//! same way. The GEMV kernel needs no interleaving: its n chunk registers
//! are n independent chains, so it is throughput-bound. Staging each B
//! row (quantizing it to the operand format) costs more than the MAC step
//! itself: 0.12 against 0.08 ms for a 256×1024 FP16 B, best of 30, on the
//! host above. The integer kernel is throughput-bound:
//! its accumulators are exact and independent, and one call computes a
//! whole row band.
//!
//! Bit-exactness of the float kernels rests on three facts: `vaddps` /
//! `vsubps` / `vminps` are IEEE single ops identical to scalar `f32`
//! arithmetic; an FP9×FP9 or FP16×FP16 product is exact in f32, so the
//! fused multiply-add rounds once exactly where `vmulps` + `vaddps` would;
//! and the exact lane rounder runs the op sequence of the scalar
//! `fp16_round_sum`, while the 4-op one agrees with it on its domain (up
//! to a zero's sign), where the range proof puts every chunk sum and
//! outside of which the checked step replays the chunk exactly.
//! `lane_rounder_matches_the_quantizer_near_every_edge` pins all three
//! rounders to `format::fp16_round` at every edge of their domains, and
//! the ignored `lane_rounder_matches_the_quantizer_on_every_f32` on all
//! 2^32 patterns. Chain count never changes results: each column's
//! accumulation chain is independent in every variant, exactly as in the
//! scalar reference.
//!
//! On non-`x86_64` targets the dispatcher never selects these kernels;
//! the stubs here only satisfy the type checker.

/// Columns per staged B group — two AVX2 f32 vectors.
pub(crate) const GROUP: usize = 16;

/// Column groups the wide float kernels process per k sweep. Four groups
/// give 8 concurrent FMA+round chains, enough to saturate the vector
/// ports; more would spill the accumulator registers.
pub(crate) const WIDE_GROUPS: usize = 4;

/// Columns per wide-kernel call.
pub(crate) const WIDE: usize = GROUP * WIDE_GROUPS;

/// Columns per tile of the packed integer column operand: two 8-column
/// blocks of 4-code quads, 64 bytes per k-quad.
pub(crate) const INT_TILE: usize = 16;

/// How the AVX2 float kernels round their chunk step (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkStep {
    /// The 4-op rounder, where `gemm::chunk_sums_in_range` proves every
    /// chunk sum in its domain.
    Ranged,
    /// The 4-op rounder under a sticky per-lane domain test; a chunk that
    /// left the domain is replayed with the exact rounder. `below_only`
    /// when the caller proved that no chunk sum passes `FP16_MAX`, so only
    /// the underflow edge is tested.
    Checked { below_only: bool },
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{ChunkStep, GROUP, INT_TILE, WIDE, WIDE_GROUPS};
    use crate::gemm::{FP16_MAX, FP16_MIN_NORMAL, ROUND_EXP, TINY_C};
    use std::arch::x86_64::*;

    /// Lane-wise `fp16_round_sum` (see `gemm`): DLFloat16 RNE with
    /// underflow flush and saturation, through a magic constant per lane.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) unsafe fn round_lanes(x: __m256) -> __m256 {
        let bits = _mm256_castps_si256(x);
        let mag = _mm256_and_si256(bits, _mm256_set1_epi32(0x7fff_ffff));
        let exp = _mm256_and_si256(bits, _mm256_set1_epi32(0x7f80_0000));
        let c = _mm256_add_epi32(exp, _mm256_set1_epi32(ROUND_EXP as i32));
        let tiny = _mm256_cmpgt_epi32(_mm256_set1_epi32(FP16_MIN_NORMAL as i32), mag);
        let c = _mm256_max_epi32(c, _mm256_and_si256(tiny, _mm256_set1_epi32(TINY_C as i32)));
        let c = _mm256_castsi256_ps(c);
        let r = _mm256_sub_ps(_mm256_add_ps(_mm256_castsi256_ps(mag), c), c);
        // `vminps` returns its second operand when the first is NaN.
        let r = _mm256_min_ps(r, _mm256_castsi256_ps(_mm256_set1_epi32(FP16_MAX as i32)));
        _mm256_or_ps(r, _mm256_castsi256_ps(_mm256_xor_si256(bits, mag)))
    }

    /// [`round_lanes`] on the range-proven domain: lanes that are `±0` or
    /// of magnitude in `[FP16_MIN_NORMAL, FP16_MAX]`, where there is
    /// nothing to flush or saturate. The magic constant keeps the lane's
    /// sign, `c = ±2^(E+14)`, so `(x + c) − c` rounds the signed value
    /// directly: 4 ops instead of 11. Equal to [`round_lanes`] on that
    /// domain except that `-0.0` comes back `+0.0`, a zero sign no output
    /// observes (module docs).
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub(super) unsafe fn round_lanes_ranged(x: __m256) -> __m256 {
        let sign_exp = _mm256_set1_epi32(0xff80_0000u32 as i32);
        let c = _mm256_and_si256(_mm256_castps_si256(x), sign_exp);
        let c = _mm256_castsi256_ps(_mm256_add_epi32(c, _mm256_set1_epi32(ROUND_EXP as i32)));
        _mm256_sub_ps(_mm256_add_ps(x, c), c)
    }

    /// [`ChunkStep`] as the kernels' const parameter, plus the exact
    /// rounder that replays run.
    const EXACT: u8 = 0;
    const RANGED: u8 = 1;
    const CHECKED: u8 = 2;
    const CHECKED_BELOW: u8 = 3;

    const fn checked(step: u8) -> bool {
        step == CHECKED || step == CHECKED_BELOW
    }

    /// The chunk step's rounder: [`round_lanes`] for `EXACT`, else
    /// [`round_lanes_ranged`].
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn chunk_round<const STEP: u8>(x: __m256) -> __m256 {
        if STEP == EXACT {
            round_lanes(x)
        } else {
            round_lanes_ranged(x)
        }
    }

    /// The sticky domain test of the checked chunk step: whether any
    /// rounded chunk register since the last [`Sticky::new`] left
    /// [`round_lanes_ranged`]'s domain, `+0` or a magnitude in
    /// `[FP16_MIN_NORMAL, FP16_MAX]` (the rounder never returns `-0.0`).
    /// `below` keeps the lane-wise unsigned minimum of `|r| − 1`, which
    /// wraps to `u32::MAX` for `+0`, so a nonzero magnitude under the
    /// minimum normal shows as a value under `FP16_MIN_NORMAL − 1`; `above`
    /// keeps the lane-wise maximum of `|r|`, which NaN and ∞ also pass.
    #[derive(Clone, Copy)]
    struct Sticky {
        below: __m256i,
        above: __m256i,
    }

    impl Sticky {
        /// # Safety
        ///
        /// Requires AVX2.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn new() -> Self {
            Self { below: _mm256_set1_epi32(-1), above: _mm256_setzero_si256() }
        }

        /// Folds one vector of rounded registers into the test: 3 ops for
        /// the underflow edge, plus 1 for the overflow edge unless
        /// `STEP == CHECKED_BELOW`; nothing unless the step is checked.
        ///
        /// # Safety
        ///
        /// Requires AVX2.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn note<const STEP: u8>(&mut self, r: __m256) {
            if checked(STEP) {
                let mag = _mm256_and_si256(_mm256_castps_si256(r), _mm256_set1_epi32(0x7fff_ffff));
                let less = _mm256_sub_epi32(mag, _mm256_set1_epi32(1));
                self.below = _mm256_min_epu32(self.below, less);
                if STEP == CHECKED {
                    self.above = _mm256_max_epi32(self.above, mag);
                }
            }
        }

        /// Whether any lane left the domain; always false unless the
        /// step is checked.
        ///
        /// # Safety
        ///
        /// Requires AVX2.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn left<const STEP: u8>(self) -> bool {
            if !checked(STEP) {
                return false;
            }
            let limit = _mm256_set1_epi32((FP16_MIN_NORMAL - 2) as i32);
            let low = _mm256_cmpeq_epi32(_mm256_min_epu32(self.below, limit), self.below);
            let high = _mm256_cmpgt_epi32(self.above, _mm256_set1_epi32(FP16_MAX as i32));
            _mm256_movemask_epi8(_mm256_or_si256(low, high)) != 0
        }
    }

    /// One k step of [`fp16_groups`]: `x` times row `p` of each of the `G`
    /// groups added into the chunk registers and rounded.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA; `bgroups` holds `G` groups of `gsz` values
    /// with `p * GROUP + GROUP <= gsz`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn group_step<const G: usize, const STEP: u8>(
        x: f32,
        bgroups: &[f32],
        gsz: usize,
        p: usize,
        lo: &mut [__m256; G],
        hi: &mut [__m256; G],
        sticky: &mut Sticky,
    ) {
        let xa = _mm256_set1_ps(x);
        for t in 0..G {
            let b0 = _mm256_loadu_ps(bgroups.as_ptr().add(t * gsz + p * GROUP));
            let b1 = _mm256_loadu_ps(bgroups.as_ptr().add(t * gsz + p * GROUP + 8));
            lo[t] = chunk_round::<STEP>(_mm256_fmadd_ps(xa, b0, lo[t]));
            hi[t] = chunk_round::<STEP>(_mm256_fmadd_ps(xa, b1, hi[t]));
            sticky.note::<STEP>(lo[t]);
            sticky.note::<STEP>(hi[t]);
        }
    }

    /// The chunk registers of the chunk over `arow[p0..p1]`, recomputed
    /// with the exact rounder from `+0` as every chunk starts: the replay
    /// of a checked chunk that left the domain. The zero-step skip is
    /// [`fp16_groups`]'s, so the op sequence is the exact kernel's. The
    /// registers come back by value, so the caller's never have their
    /// address taken and stay in vector registers.
    ///
    /// # Safety
    ///
    /// As [`group_step`], for every `p` in `p0..p1`.
    #[target_feature(enable = "avx2,fma")]
    #[cold]
    #[inline(never)]
    unsafe fn replay_groups<const G: usize>(
        arow: &[f32],
        bgroups: &[f32],
        (p0, p1): (usize, usize),
    ) -> ([__m256; G], [__m256; G]) {
        crate::gemm::note_replay();
        let gsz = arow.len() * GROUP;
        let mut lo = [_mm256_setzero_ps(); G];
        let mut hi = [_mm256_setzero_ps(); G];
        let mut unused = Sticky::new();
        for (p, &x) in arow.iter().enumerate().take(p1).skip(p0) {
            if x != 0.0 {
                group_step::<G, EXACT>(x, bgroups, gsz, p, &mut lo, &mut hi, &mut unused);
            }
        }
        (lo, hi)
    }

    /// The float MAC loop over `G` staged 16-column groups laid out
    /// back to back in `bgroups` (`G * k * 16` values). `2G` independent
    /// accumulation chains advance per k step; each column's chain
    /// performs exactly the scalar kernel's op sequence, so `G` is
    /// performance-only. Steps with a zero A value are skipped whole —
    /// bit-exact by rounder idempotence (module docs). `STEP` picks the
    /// chunk step's rounder and domain test ([`ChunkStep`]); a checked
    /// chunk that left the domain is replayed exactly at its boundary
    /// ([`replay_groups`]). The epilogue always runs the exact rounder,
    /// since the outer sum has no range proof.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA; `bgroups.len() == G * arow.len() * GROUP`,
    /// `out.len() == G * GROUP`.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn fp16_groups<const G: usize, const STEP: u8>(
        arow: &[f32],
        bgroups: &[f32],
        chunk_len: usize,
        out: &mut [f32],
    ) {
        let gsz = arow.len() * GROUP;
        let zero = _mm256_setzero_ps();
        // A checked step keeps the outer sums in `out`, not in registers:
        // they change once per chunk, and the domain test needs the room.
        let out = out.as_mut_ptr();
        let mut outer_lo = [zero; G];
        let mut outer_hi = [zero; G];
        if checked(STEP) {
            for t in 0..2 * G {
                _mm256_storeu_ps(out.add(8 * t), zero);
            }
        }
        let mut chunk_lo = [zero; G];
        let mut chunk_hi = [zero; G];
        let mut sticky = Sticky::new();
        let mut in_chunk = 0usize;
        for (p, &x) in arow.iter().enumerate() {
            // A zero broadcast value makes every product ±0 and
            // `round_lanes(chunk ± 0.0)` is `chunk` up to the sign of a
            // zero, so the whole sweep is skipped; only the chunk-boundary
            // bookkeeping below still runs.
            if x != 0.0 {
                let (lo, hi) = (&mut chunk_lo, &mut chunk_hi);
                group_step::<G, STEP>(x, bgroups, gsz, p, lo, hi, &mut sticky);
            }
            in_chunk += 1;
            if in_chunk == chunk_len {
                if sticky.left::<STEP>() {
                    (chunk_lo, chunk_hi) = replay_groups(arow, bgroups, (p + 1 - chunk_len, p + 1));
                    sticky = Sticky::new();
                }
                for t in 0..G {
                    if checked(STEP) {
                        let (lo, hi) = (out.add(t * GROUP), out.add(t * GROUP + 8));
                        _mm256_storeu_ps(lo, _mm256_add_ps(_mm256_loadu_ps(lo), chunk_lo[t]));
                        _mm256_storeu_ps(hi, _mm256_add_ps(_mm256_loadu_ps(hi), chunk_hi[t]));
                    } else {
                        outer_lo[t] = _mm256_add_ps(outer_lo[t], chunk_lo[t]);
                        outer_hi[t] = _mm256_add_ps(outer_hi[t], chunk_hi[t]);
                    }
                    chunk_lo[t] = zero;
                    chunk_hi[t] = zero;
                }
                in_chunk = 0;
            }
        }
        if sticky.left::<STEP>() {
            let k = arow.len();
            (chunk_lo, chunk_hi) = replay_groups(arow, bgroups, (k - in_chunk, k));
        }
        // The epilogue: `fp16_round_sum(outer + chunk)` per lane.
        for t in 0..G {
            let (lo, hi) = (out.add(t * GROUP), out.add(t * GROUP + 8));
            if checked(STEP) {
                (outer_lo[t], outer_hi[t]) = (_mm256_loadu_ps(lo), _mm256_loadu_ps(hi));
            }
            _mm256_storeu_ps(lo, round_lanes(_mm256_add_ps(outer_lo[t], chunk_lo[t])));
            _mm256_storeu_ps(hi, round_lanes(_mm256_add_ps(outer_hi[t], chunk_hi[t])));
        }
    }

    /// The GEMV's chunk step over one staged B row (`gemm::gemv`):
    /// `chunk[j] = chunk_round(x·b[j] + chunk[j])` for every column, 8
    /// lanes per step. Each column's op sequence is [`fp16_groups`]'s for
    /// one k step; the columns are independent chains, so the loop is
    /// throughput-bound and needs no interleaving. Returns whether a
    /// checked step left the domain in any column.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA; `b.len() == chunk.len()`, a multiple of 8.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn axpy<const STEP: u8>(x: f32, b: &[f32], chunk: &mut [f32]) -> bool {
        let xa = _mm256_set1_ps(x);
        let mut sticky = Sticky::new();
        let (b, c) = (b.as_ptr(), chunk.as_mut_ptr());
        for j in (0..chunk.len()).step_by(8) {
            let v = _mm256_fmadd_ps(xa, _mm256_loadu_ps(b.add(j)), _mm256_loadu_ps(c.add(j)));
            let r = chunk_round::<STEP>(v);
            sticky.note::<STEP>(r);
            _mm256_storeu_ps(c.add(j), r);
        }
        sticky.left::<STEP>()
    }

    /// One band of the expanding integer kernel for `R` A rows: every
    /// 16-column tile of `cols` accumulates in `2R` registers of eight i32
    /// lanes (see the module docs), then each lane is corrected, converted
    /// once and scaled into `out`.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `arows.len() == R * k4`, `corr.len() == R`,
    /// `cols.len() == n.div_ceil(INT_TILE) * k4 * INT_TILE`,
    /// `out.len() == R * n`, `k4 % 4 == 0`, and `k4 <= MADD_MAX_K`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn int_rows<const R: usize>(
        arows: &[i8],
        k4: usize,
        corr: &[i32],
        cols: &[u8],
        n: usize,
        out_scale: f32,
        out: &mut [f32],
    ) {
        let ones = _mm256_set1_epi16(1);
        let scale = _mm256_set1_ps(out_scale);
        let quads = k4 / 4;
        let a = arows.as_ptr();
        for t in 0..n.div_ceil(INT_TILE) {
            let tile = cols.as_ptr().add(t * k4 * INT_TILE);
            let mut acc = [[_mm256_setzero_si256(); 2]; R];
            for q in 0..quads {
                let b0 = _mm256_loadu_si256(tile.add(q * 64).cast());
                let b1 = _mm256_loadu_si256(tile.add(q * 64 + 32).cast());
                for (r, acc) in acc.iter_mut().enumerate() {
                    let quad = a.add(r * k4 + 4 * q).cast::<i32>().read_unaligned();
                    let av = _mm256_set1_epi32(quad);
                    let p0 = _mm256_madd_epi16(_mm256_maddubs_epi16(b0, av), ones);
                    let p1 = _mm256_madd_epi16(_mm256_maddubs_epi16(b1, av), ones);
                    acc[0] = _mm256_add_epi32(acc[0], p0);
                    acc[1] = _mm256_add_epi32(acc[1], p1);
                }
            }
            let j0 = t * INT_TILE;
            let lanes = INT_TILE.min(n - j0);
            for (r, acc) in acc.iter().enumerate() {
                let c = _mm256_set1_epi32(corr[r]);
                let mut vals = [0.0f32; INT_TILE];
                for (h, &v) in acc.iter().enumerate() {
                    let v = _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_sub_epi32(v, c)), scale);
                    _mm256_storeu_ps(vals.as_mut_ptr().add(8 * h), v);
                }
                out[r * n + j0..r * n + j0 + lanes].copy_from_slice(&vals[..lanes]);
            }
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 and the extents [`int_tiles`] asserts.
    #[target_feature(enable = "avx2")]
    unsafe fn int_tiles_avx2(
        a: &[i8],
        k4: usize,
        corr: &[i32],
        cols: &[u8],
        n: usize,
        out_scale: f32,
        band: &mut [f32],
    ) {
        let rows = corr.len();
        let mut r = 0;
        while r < rows {
            let take = (rows - r).min(4);
            let (ar, cr) = (&a[r * k4..(r + take) * k4], &corr[r..r + take]);
            let out = &mut band[r * n..(r + take) * n];
            match take {
                4 => int_rows::<4>(ar, k4, cr, cols, n, out_scale, out),
                3 => int_rows::<3>(ar, k4, cr, cols, n, out_scale, out),
                2 => int_rows::<2>(ar, k4, cr, cols, n, out_scale, out),
                _ => int_rows::<1>(ar, k4, cr, cols, n, out_scale, out),
            }
            r += take;
        }
    }

    /// Safe wrapper: chunk-accumulated FP16 lattice dot products of one
    /// A-row against [`WIDE_GROUPS`] consecutive staged groups, the chunk
    /// step rounded as `step` says.
    pub(crate) fn dot_fp16_groups_wide(
        arow: &[f32],
        bgroups: &[f32],
        chunk_len: usize,
        step: ChunkStep,
        out: &mut [f32; WIDE],
    ) {
        assert!(crate::dispatch::simd_available(), "SIMD kernel selected without AVX2/FMA");
        assert_eq!(bgroups.len(), WIDE_GROUPS * arow.len() * GROUP);
        // SAFETY: AVX2 and FMA presence and slice extents asserted above.
        unsafe {
            match step {
                ChunkStep::Ranged => {
                    fp16_groups::<WIDE_GROUPS, RANGED>(arow, bgroups, chunk_len, out)
                }
                ChunkStep::Checked { below_only: false } => {
                    fp16_groups::<WIDE_GROUPS, CHECKED>(arow, bgroups, chunk_len, out)
                }
                ChunkStep::Checked { below_only: true } => {
                    fp16_groups::<WIDE_GROUPS, CHECKED_BELOW>(arow, bgroups, chunk_len, out)
                }
            }
        }
    }

    /// Safe wrapper: chunk-accumulated FP16 lattice dot products of one
    /// A-row against a single staged 16-column B group (`step` as in
    /// [`dot_fp16_groups_wide`]).
    pub(crate) fn dot_fp16_group16(
        arow: &[f32],
        bgroup: &[f32],
        chunk_len: usize,
        step: ChunkStep,
        out: &mut [f32; GROUP],
    ) {
        assert!(crate::dispatch::simd_available(), "SIMD kernel selected without AVX2/FMA");
        assert_eq!(bgroup.len(), arow.len() * GROUP);
        // SAFETY: AVX2 and FMA presence and slice extents asserted above.
        unsafe {
            match step {
                ChunkStep::Ranged => fp16_groups::<1, RANGED>(arow, bgroup, chunk_len, out),
                ChunkStep::Checked { below_only: false } => {
                    fp16_groups::<1, CHECKED>(arow, bgroup, chunk_len, out)
                }
                ChunkStep::Checked { below_only: true } => {
                    fp16_groups::<1, CHECKED_BELOW>(arow, bgroup, chunk_len, out)
                }
            }
        }
    }

    /// Safe wrapper: the GEMV's chunk step, `x` times one staged B row
    /// `b` added into the chunk registers `chunk` and rounded as `step`
    /// says; returns whether a checked step left the domain, in which
    /// case the caller replays the chunk with the portable exact step.
    /// Both slices are padded to whole vectors.
    pub(crate) fn axpy_fp16(x: f32, b: &[f32], chunk: &mut [f32], step: ChunkStep) -> bool {
        assert!(crate::dispatch::simd_available(), "SIMD kernel selected without AVX2/FMA");
        assert!(b.len() == chunk.len() && chunk.len().is_multiple_of(8));
        // SAFETY: AVX2 and FMA presence and slice extents asserted above.
        unsafe {
            match step {
                ChunkStep::Ranged => axpy::<RANGED>(x, b, chunk),
                ChunkStep::Checked { below_only: false } => axpy::<CHECKED>(x, b, chunk),
                ChunkStep::Checked { below_only: true } => axpy::<CHECKED_BELOW>(x, b, chunk),
            }
        }
    }

    /// # Safety
    ///
    /// Requires AVX2 and the extents [`pack_int_cols`] asserts.
    #[target_feature(enable = "avx2")]
    unsafe fn pack_int_cols_avx2(rows: &[i8], n: usize, bias: i8, k4: usize, out: &mut [u8]) {
        let bias = _mm_set1_epi8(bias);
        for (quad, dst) in out.chunks_exact_mut(64).take(k4 / 4).enumerate() {
            let dst = dst.as_mut_ptr();
            for t in 0..n.div_ceil(INT_TILE) {
                let (j0, width) = (t * INT_TILE, INT_TILE.min(n - t * INT_TILE));
                // Rows past `k` and columns past `n` read as code 0.
                let [r0, r1, r2, r3] = std::array::from_fn(|i| {
                    let mut lanes = [0i8; INT_TILE];
                    let at = (4 * quad + i) * n + j0;
                    if let Some(row) = rows.get(at..at + width) {
                        lanes[..width].copy_from_slice(row);
                    }
                    _mm_add_epi8(_mm_loadu_si128(lanes.as_ptr().cast()), bias)
                });
                // Byte pairs, then word pairs: each column's 4 codes end up
                // adjacent, columns 0–3, 4–7, 8–11, 12–15 in turn.
                let (lo01, lo23) = (_mm_unpacklo_epi8(r0, r1), _mm_unpacklo_epi8(r2, r3));
                let (hi01, hi23) = (_mm_unpackhi_epi8(r0, r1), _mm_unpackhi_epi8(r2, r3));
                let tile = dst.add(t * k4 * INT_TILE);
                _mm_storeu_si128(tile.cast(), _mm_unpacklo_epi16(lo01, lo23));
                _mm_storeu_si128(tile.add(16).cast(), _mm_unpackhi_epi16(lo01, lo23));
                _mm_storeu_si128(tile.add(32).cast(), _mm_unpacklo_epi16(hi01, hi23));
                _mm_storeu_si128(tile.add(48).cast(), _mm_unpackhi_epi16(hi01, hi23));
            }
        }
    }

    /// Safe wrapper: packs row-major `[k, n]` codes, each plus `bias`,
    /// into the integer column operand of depth `k4` (see the module
    /// docs): the layout [`int_tiles`] reads.
    pub(crate) fn pack_int_cols(rows: &[i8], n: usize, bias: i8, k4: usize, out: &mut [u8]) {
        assert!(crate::dispatch::simd_available(), "SIMD kernel selected without AVX2");
        assert!(k4.is_multiple_of(4) && rows.len() <= k4 * n);
        assert_eq!(out.len(), n.div_ceil(INT_TILE) * k4 * INT_TILE);
        // SAFETY: AVX2 presence and the output extent asserted above.
        unsafe { pack_int_cols_avx2(rows, n, bias, k4, out) }
    }

    /// Safe wrapper: one row band of the expanding integer GEMM. `a`
    /// holds the band's A rows, each `k4` codes (a multiple of 4,
    /// zero-padded), `corr[r]` the row's bias correction and `cols` the
    /// packed column operand (see the module docs); writes
    /// `band[r·n + j] = (Σ_p a[r][p]·cols[p][j] − corr[r]) · out_scale`.
    pub(crate) fn int_tiles(
        a: &[i8],
        k4: usize,
        corr: &[i32],
        cols: &[u8],
        n: usize,
        out_scale: f32,
        band: &mut [f32],
    ) {
        assert!(crate::dispatch::simd_available(), "SIMD kernel selected without AVX2");
        assert!(k4.is_multiple_of(4) && k4 <= crate::dispatch::MADD_MAX_K, "bad k4 {k4}");
        assert_eq!(a.len(), corr.len() * k4);
        assert_eq!(band.len(), corr.len() * n);
        assert_eq!(cols.len(), n.div_ceil(INT_TILE) * k4 * INT_TILE);
        // SAFETY: AVX2 presence and slice extents asserted above.
        unsafe { int_tiles_avx2(a, k4, corr, cols, n, out_scale, band) }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::{
    axpy_fp16, dot_fp16_group16, dot_fp16_groups_wide, int_tiles, pack_int_cols,
};

#[cfg(not(target_arch = "x86_64"))]
mod fallback {
    use super::{ChunkStep, GROUP, WIDE};

    /// Unreachable on this target: the dispatcher reports
    /// `simd_available() == false` and never selects the AVX2 kernels.
    pub(crate) fn dot_fp16_groups_wide(
        _arow: &[f32],
        _bgroups: &[f32],
        _chunk_len: usize,
        _step: ChunkStep,
        _out: &mut [f32; WIDE],
    ) {
        unreachable!("SIMD kernel selected on a non-x86_64 target");
    }

    /// Unreachable on this target (see [`dot_fp16_groups_wide`]).
    pub(crate) fn dot_fp16_group16(
        _arow: &[f32],
        _bgroup: &[f32],
        _chunk_len: usize,
        _step: ChunkStep,
        _out: &mut [f32; GROUP],
    ) {
        unreachable!("SIMD kernel selected on a non-x86_64 target");
    }

    /// Unreachable on this target (see [`dot_fp16_groups_wide`]).
    pub(crate) fn axpy_fp16(_x: f32, _b: &[f32], _chunk: &mut [f32], _step: ChunkStep) -> bool {
        unreachable!("SIMD kernel selected on a non-x86_64 target");
    }

    /// Unreachable on this target (see [`dot_fp16_groups_wide`]).
    pub(crate) fn int_tiles(
        _a: &[i8],
        _k4: usize,
        _corr: &[i32],
        _cols: &[u8],
        _n: usize,
        _out_scale: f32,
        _band: &mut [f32],
    ) {
        unreachable!("SIMD kernel selected on a non-x86_64 target");
    }

    /// Unreachable on this target (see [`dot_fp16_groups_wide`]).
    pub(crate) fn pack_int_cols(_rows: &[i8], _n: usize, _bias: i8, _k4: usize, _out: &mut [u8]) {
        unreachable!("SIMD kernel selected on a non-x86_64 target");
    }
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) use fallback::{
    axpy_fp16, dot_fp16_group16, dot_fp16_groups_wide, int_tiles, pack_int_cols,
};

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::format::fp16_round;
    use crate::gemm::{fp16_round_sum, FP16_MAX, FP16_MIN_NORMAL};
    use std::arch::x86_64::*;

    /// What both rounders must return for `x`: the quantizer's value,
    /// except that NaN saturates to `±MAX` like any other out-of-range sum.
    fn rounded(x: f32) -> u32 {
        if x.is_nan() {
            (x.to_bits() & 0x8000_0000) | FP16_MAX
        } else {
            fp16_round(x).to_bits()
        }
    }

    /// The exact and the range-proven lane rounder on `xs`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn round_lanes_of(xs: [f32; 8]) -> ([f32; 8], [f32; 8]) {
        let (mut exact, mut ranged) = ([0.0f32; 8], [0.0f32; 8]);
        let x = _mm256_loadu_ps(xs.as_ptr());
        _mm256_storeu_ps(exact.as_mut_ptr(), avx2::round_lanes(x));
        _mm256_storeu_ps(ranged.as_mut_ptr(), avx2::round_lanes_ranged(x));
        (exact, ranged)
    }

    /// Runs the lane rounder and the scalar `fp16_round_sum` over `xs`
    /// against [`rounded`], and the range-proven lane rounder over the
    /// `xs` in its domain (`±0` and magnitudes in `[MIN_NORMAL, MAX]`),
    /// where it must agree too, except that it returns `+0.0` for `-0.0`.
    /// The caller checks `simd_available()`.
    fn assert_rounders_exact(xs: &[f32]) {
        let in_range = |x: f32| (FP16_MIN_NORMAL..=FP16_MAX).contains(&(x.to_bits() & 0x7fff_ffff));
        for chunk in xs.chunks(8) {
            let mut lanes = [0.0f32; 8];
            lanes[..chunk.len()].copy_from_slice(chunk);
            // SAFETY: AVX2 presence is the caller's precondition.
            let (got, ranged) = unsafe { round_lanes_of(lanes) };
            for ((&x, g), r) in chunk.iter().zip(got).zip(ranged) {
                let (want, scalar) = (rounded(x), fp16_round_sum(x).to_bits());
                let bits = x.to_bits();
                assert_eq!(g.to_bits(), want, "lanes({bits:#010x}) = {:#010x}", g.to_bits());
                assert_eq!(scalar, want, "scalar({bits:#010x}) = {scalar:#010x}");
                if x == 0.0 || in_range(x) {
                    let want = if x == 0.0 { 0 } else { want };
                    assert_eq!(r.to_bits(), want, "ranged({bits:#010x}) = {:#010x}", r.to_bits());
                }
            }
        }
    }

    /// All three rounders against the quantizer at every edge of their
    /// domains, both signs: 4096 f32 ulps either side of every binade edge
    /// from 2^-40 to 2^40 and of ∞ (the largest finites and NaN payloads),
    /// the FP16 rounding midpoints nearest each edge (ties both ways,
    /// carries into the next binade), the flush threshold `HALF_MIN`,
    /// `MIN_NORMAL`, `MAX` (also the top of the range-proven domain) and
    /// the saturating tie above it, the binades where the magic
    /// constant becomes ∞ (`E = 114`) and carries into the sign bit
    /// (`E = 115`), and the zeros and subnormals.
    #[test]
    fn lane_rounder_matches_the_quantizer_near_every_edge() {
        if !crate::dispatch::simd_available() {
            return;
        }
        let binade = |e: i32| ((e + 127) as u32) << 23;
        let mut edges: Vec<u32> = (-40..=40).chain([114, 115]).map(binade).collect();
        let half_min = binade(-31);
        edges.extend([0, half_min, FP16_MIN_NORMAL, FP16_MAX, FP16_MAX | 0x2000, 0x7f80_0000]);
        let mut xs = Vec::new();
        let mut around = |at: u32, d: u32| {
            for bits in at.saturating_sub(d)..=at.saturating_add(d) {
                xs.extend([f32::from_bits(bits), f32::from_bits(bits | 0x8000_0000)]);
            }
        };
        for &edge in &edges {
            around(edge, 4096);
            // FP16 midpoints (low 14 bits 0x2000) on either side of the edge.
            for j in [-3i32, -1, 1, 3] {
                around(edge.wrapping_add_signed(j * 0x2000), 2);
            }
        }
        assert_rounders_exact(&xs);
    }

    /// All three rounders against the quantizer on all 2^32 f32 bit
    /// patterns (the range-proven one on its domain), split across
    /// threads. Run with `-- --ignored` in release.
    #[test]
    #[ignore = "exhaustive 2^32 sweep; run in release with --ignored"]
    fn lane_rounder_matches_the_quantizer_on_every_f32() {
        if !crate::dispatch::simd_available() {
            return;
        }
        const BLOCK: u64 = 1 << 16;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let blocks = (1u64 << 32) / BLOCK;
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let mut xs = vec![0.0f32; BLOCK as usize];
                    for b in (t..blocks).step_by(threads as usize) {
                        for (i, x) in xs.iter_mut().enumerate() {
                            *x = f32::from_bits((b * BLOCK) as u32 + i as u32);
                        }
                        assert_rounders_exact(&xs);
                    }
                });
            }
        });
    }

    /// The expanding kernel against a plain i64 dot product: every row
    /// count of a 4-row tile plus tail, ragged 16-column tiles, depths
    /// padded to whole quads, and column operands biased the way a signed
    /// operand is (the correction must cancel the bias exactly).
    #[test]
    fn int_tiles_match_reference() {
        if !crate::dispatch::simd_available() {
            return;
        }
        // (rows, k, n, column bias)
        let shapes: [(usize, usize, usize, i32); 6] = [
            (1, 1, 1, 0),
            (4, 4, 16, 0),
            (5, 9, 17, 8),
            (7, 37, 33, 2),
            (3, 130, 5, 8),
            (9, 0, 3, 8),
        ];
        for (rows, k, n, bias) in shapes {
            let k4 = k.div_ceil(4) * 4;
            let code = |i: usize, m: usize| ((i * m + 3) % 23) as i8 - 7; // -7..=15
            let a: Vec<i8> = (0..rows * k).map(|i| code(i, 7)).collect();
            // Unsigned INT4 when unbiased, else signed INT4 (bias 8) or INT2 (bias 2).
            let (lo, hi) = if bias == 0 { (0, 15) } else { (1 - bias as i8, bias as i8 - 1) };
            let b: Vec<i8> = (0..k * n).map(|i| code(i, 13).clamp(lo, hi)).collect();
            let mut pa = vec![0i8; rows * k4];
            for (dst, src) in pa.chunks_exact_mut(k4.max(1)).zip(a.chunks_exact(k.max(1))) {
                dst[..k].copy_from_slice(&src[..k]);
            }
            let row_sum = |r: usize| a[r * k..(r + 1) * k].iter().map(|&x| i32::from(x));
            let corr: Vec<i32> = (0..rows).map(|r| bias * row_sum(r).sum::<i32>()).collect();
            let mut cols = vec![0u8; n.div_ceil(INT_TILE) * k4 * INT_TILE];
            for p in 0..k {
                for j in 0..n {
                    let tile = (j / 16) * k4 * 16;
                    let off = tile + (p / 4) * 64 + (j % 16 / 8) * 32 + (j % 8) * 4 + p % 4;
                    cols[off] = (i32::from(b[p * n + j]) + bias) as u8;
                }
            }
            let scale = 0.375f32;
            let mut band = vec![f32::NAN; rows * n];
            int_tiles(&pa, k4, &corr, &cols, n, scale, &mut band);
            for r in 0..rows {
                for j in 0..n {
                    let dot: i64 =
                        (0..k).map(|p| i64::from(a[r * k + p]) * i64::from(b[p * n + j])).sum();
                    let want = dot as f32 * scale;
                    let got = band[r * n + j];
                    assert_eq!(got.to_bits(), want.to_bits(), "rows={rows} k={k} n={n} ({r},{j})");
                }
            }
        }
    }
}
