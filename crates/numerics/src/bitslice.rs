//! Bit-sliced INT2 GEMM: popcount over packed bit-planes.
//!
//! An INT2 code is two bits. Splitting each operand row into two `u64`
//! bit-planes — plane 0 holds bit 0, plane 1 holds bit 1, LSB-first within
//! each word — turns a 64-element dot product into four AND+popcount word
//! operations:
//!
//! ```text
//! value(code) = bit0 + c · bit1          c = -2 (signed, two's complement)
//!                                        c = +2 (unsigned)
//! dot(a, b)   = P00 + c_b·P01 + c_a·P10 + c_a·c_b·P11
//! P_xy        = Σ_words popcount(a_plane_x & b_plane_y)
//! ```
//!
//! Signed INT2 quantization only emits codes in {-1, 0, +1} (the -2
//! pattern `0b10` is clamped away), but the identity above is exact for
//! every 2-bit pattern, so the kernel never depends on that.
//!
//! The kernel is plain portable Rust — `u64::count_ones` — with an
//! `x86_64` `popcnt`-enabled clone so the baseline build (which may not
//! assume SSE4.2) still emits hardware popcounts when the CPU has them.
//! It is exact integer arithmetic, so as with the expanding kernel the
//! result is bit-identical to the tiled windowed sum whenever the chunk
//! guard rules out INT16 saturation.

use crate::int::Signedness;

/// Two bit-planes for a row-major code matrix, one pair of `u64` words per
/// 64 columns, rows padded to whole words (pad bits are zero).
pub(crate) struct BitPlanes {
    p0: Vec<u64>,
    p1: Vec<u64>,
    /// Words per row.
    words: usize,
    /// Contribution coefficient of plane 1: -2 if signed, +2 if unsigned.
    coeff: i64,
}

impl BitPlanes {
    /// Packs `rows` rows of `k` codes each.
    pub(crate) fn pack(codes: &[i8], rows: usize, k: usize, signedness: Signedness) -> Self {
        let words = k.div_ceil(64);
        let mut p0 = vec![0u64; rows * words];
        let mut p1 = vec![0u64; rows * words];
        for r in 0..rows {
            let row = &codes[r * k..(r + 1) * k];
            let base = r * words;
            for (i, &code) in row.iter().enumerate() {
                p0[base + i / 64] |= u64::from(code as u8 & 1) << (i % 64);
                p1[base + i / 64] |= u64::from((code as u8 >> 1) & 1) << (i % 64);
            }
        }
        let coeff = if signedness == Signedness::Signed { -2 } else { 2 };
        Self { p0, p1, words, coeff }
    }

    /// Plane-0 words of row `r`.
    pub(crate) fn row0(&self, r: usize) -> &[u64] {
        &self.p0[r * self.words..(r + 1) * self.words]
    }

    /// Plane-1 words of row `r`.
    pub(crate) fn row1(&self, r: usize) -> &[u64] {
        &self.p1[r * self.words..(r + 1) * self.words]
    }

    /// The plane-1 coefficient for this operand's signedness.
    pub(crate) fn coeff(&self) -> i64 {
        self.coeff
    }
}

/// The four plane-intersection popcounts, combined per the module formula.
macro_rules! planes_dot_body {
    ($a0:ident, $a1:ident, $b0:ident, $b1:ident, $ca:ident, $cb:ident) => {{
        let mut p00 = 0u64;
        let mut p01 = 0u64;
        let mut p10 = 0u64;
        let mut p11 = 0u64;
        for (((&x0, &x1), &y0), &y1) in $a0.iter().zip($a1).zip($b0).zip($b1) {
            p00 += u64::from((x0 & y0).count_ones());
            p01 += u64::from((x0 & y1).count_ones());
            p10 += u64::from((x1 & y0).count_ones());
            p11 += u64::from((x1 & y1).count_ones());
        }
        p00 as i64 + $cb * p01 as i64 + $ca * p10 as i64 + $ca * $cb * p11 as i64
    }};
}

/// One A row against every B row, scaled into `orow` — the whole-row body
/// shared by the portable and `popcnt`-enabled clones, so the per-element
/// dot never pays a call or feature-dispatch per output.
macro_rules! planes_row_body {
    ($a:ident, $ar:ident, $b:ident, $out_scale:ident, $orow:ident) => {{
        let a0 = $a.row0($ar);
        let a1 = $a.row1($ar);
        let (ca, cb) = ($a.coeff(), $b.coeff());
        for (j, o) in $orow.iter_mut().enumerate() {
            let b0 = $b.row0(j);
            let b1 = $b.row1(j);
            let dot = planes_dot_body!(a0, a1, b0, b1, ca, cb);
            *o = dot as f32 * $out_scale;
        }
    }};
}

#[cfg(test)]
fn dot_planes_portable(a0: &[u64], a1: &[u64], b0: &[u64], b1: &[u64], ca: i64, cb: i64) -> i64 {
    planes_dot_body!(a0, a1, b0, b1, ca, cb)
}

/// # Safety
///
/// Requires the `popcnt` CPU feature.
#[cfg(all(test, target_arch = "x86_64"))]
#[target_feature(enable = "popcnt")]
unsafe fn dot_planes_popcnt(a0: &[u64], a1: &[u64], b0: &[u64], b1: &[u64], ca: i64, cb: i64) -> i64 {
    planes_dot_body!(a0, a1, b0, b1, ca, cb)
}

fn dot_planes_row_portable(a: &BitPlanes, ar: usize, b: &BitPlanes, out_scale: f32, orow: &mut [f32]) {
    planes_row_body!(a, ar, b, out_scale, orow)
}

/// # Safety
///
/// Requires the `popcnt` CPU feature; `orow.len() <= b` row count.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn dot_planes_row_popcnt(
    a: &BitPlanes,
    ar: usize,
    b: &BitPlanes,
    out_scale: f32,
    orow: &mut [f32],
) {
    planes_row_body!(a, ar, b, out_scale, orow)
}

/// Exact whole-k INT2 dot product from bit-planes (test-only pin for the
/// row-level kernel).
#[cfg(test)]
pub(crate) fn dot_planes(a: &BitPlanes, ar: usize, b: &BitPlanes, br: usize) -> i64 {
    let (a0, a1) = (a.row0(ar), a.row1(ar));
    let (b0, b1) = (b.row0(br), b.row1(br));
    let (ca, cb) = (a.coeff(), b.coeff());
    #[cfg(target_arch = "x86_64")]
    if crate::dispatch::popcnt_available() {
        // SAFETY: popcnt presence checked on the line above.
        return unsafe { dot_planes_popcnt(a0, a1, b0, b1, ca, cb) };
    }
    dot_planes_portable(a0, a1, b0, b1, ca, cb)
}

/// Whole output row of scaled INT2 dot products: row `ar` of `a` against
/// the first `orow.len()` rows of `b` (`orow[j] = dot · out_scale`). One
/// feature dispatch per row instead of per element.
pub(crate) fn dot_planes_row(
    a: &BitPlanes,
    ar: usize,
    b: &BitPlanes,
    out_scale: f32,
    orow: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if crate::dispatch::popcnt_available() {
        // SAFETY: popcnt presence checked on the line above.
        return unsafe { dot_planes_row_popcnt(a, ar, b, out_scale, orow) };
    }
    dot_planes_row_portable(a, ar, b, out_scale, orow)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn reference_dot(a: &[i8], b: &[i8]) -> i64 {
        a.iter().zip(b).map(|(&x, &y)| i64::from(x) * i64::from(y)).sum()
    }

    #[test]
    fn plane_dot_matches_reference_all_sign_combos() {
        for k in [1usize, 3, 63, 64, 65, 128, 200] {
            let signed: Vec<i8> = (0..k).map(|i| [(-1i8), 0, 1][(i * 7 + 1) % 3]).collect();
            let unsigned: Vec<i8> = (0..k).map(|i| ((i * 5 + 2) % 4) as i8).collect();
            for (sa, avals) in [(Signedness::Signed, &signed), (Signedness::Unsigned, &unsigned)] {
                for (sb, bvals) in
                    [(Signedness::Signed, &signed), (Signedness::Unsigned, &unsigned)]
                {
                    let pa = BitPlanes::pack(avals, 1, k, sa);
                    let pb = BitPlanes::pack(bvals, 1, k, sb);
                    assert_eq!(
                        dot_planes(&pa, 0, &pb, 0),
                        reference_dot(avals, bvals),
                        "k={k} sa={sa:?} sb={sb:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_kernel_matches_per_element() {
        let (k, n) = (130usize, 7usize);
        let a: Vec<i8> = (0..k).map(|i| [(-1i8), 0, 1][(i * 5 + 2) % 3]).collect();
        let bt: Vec<i8> = (0..k * n).map(|i| [(-1i8), 0, 0, 1][(i * 3 + 1) % 4]).collect();
        let pa = BitPlanes::pack(&a, 1, k, Signedness::Signed);
        let pb = BitPlanes::pack(&bt, n, k, Signedness::Signed);
        let scale = 0.25f32;
        let mut row = vec![0.0f32; n];
        dot_planes_row(&pa, 0, &pb, scale, &mut row);
        for (j, got) in row.iter().enumerate() {
            let want = dot_planes(&pa, 0, &pb, j) as f32 * scale;
            assert_eq!(got.to_bits(), want.to_bits(), "column {j}");
        }
    }
}
