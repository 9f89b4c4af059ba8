//! Special Function Unit arithmetic (paper §III-B): the SFU provides both
//! *accurate* and *fast* versions of a spectrum of non-linear functions —
//! `sqrt`, `exp`, `ln`, `tanh`, `sigmoid` and `reciprocal` are "realized
//! using approximations".
//!
//! The fast variants here use the classic hardware recipes (bit-twiddled
//! initial guesses plus one or two Newton–Raphson steps, range-reduced
//! polynomial exponentials); the accurate variants add refinement
//! iterations. Results land in FP16 either way — the tests bound the
//! relative error of each variant and verify the accurate one is at least
//! as good.

use crate::format::FpFormat;

/// Which SFU pipeline variant executes the function (fast = fewer
/// iterations, 1 result/lane/cycle; accurate = refined, lower throughput).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SfuAccuracy {
    /// Single-pass approximation.
    Fast,
    /// Refined approximation (extra Newton / polynomial terms).
    Accurate,
}

fn to_fp16(x: f32) -> f32 {
    FpFormat::fp16().quantize(x)
}

/// Fast inverse via the exponent-negation initial guess plus
/// Newton–Raphson steps: `r ← r (2 − x r)`.
pub fn reciprocal(x: f32, acc: SfuAccuracy) -> f32 {
    if x == 0.0 {
        return f32::INFINITY.copysign(x);
    }
    // Initial guess from the floating-point encoding (classic hack).
    let i = 0x7EEF_1AA0u32.wrapping_sub(x.abs().to_bits());
    let mut r = f32::from_bits(i).copysign(x);
    let steps = match acc {
        SfuAccuracy::Fast => 2,
        SfuAccuracy::Accurate => 4,
    };
    for _ in 0..steps {
        r = r * (2.0 - x * r);
    }
    to_fp16(r)
}

/// Square root via the inverse-square-root initial guess and Newton steps
/// on `y ← y (1.5 − 0.5 x y²)`, then `√x = x · rsqrt(x)`.
pub fn sqrt(x: f32, acc: SfuAccuracy) -> f32 {
    if x < 0.0 {
        return f32::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    let i = 0x5F37_59DFu32.wrapping_sub(x.to_bits() >> 1);
    let mut y = f32::from_bits(i);
    let steps = match acc {
        SfuAccuracy::Fast => 2,
        SfuAccuracy::Accurate => 4,
    };
    for _ in 0..steps {
        y *= 1.5 - 0.5 * x * y * y;
    }
    to_fp16(x * y)
}

/// Exponential via range reduction `x = k·ln2 + r` and a short polynomial
/// in `r ∈ [−ln2/2, ln2/2]`.
pub fn exp(x: f32, acc: SfuAccuracy) -> f32 {
    let (p, k) = exp_reduced(x, acc);
    to_fp16(p * pow2(k))
}

/// The two factors of [`exp`]: `e^r` by its polynomial and the integer
/// `k` of `2^k`, `k ∈ [−24, 24]` (NaN for a NaN `x`).
fn exp_reduced(x: f32, acc: SfuAccuracy) -> (f32, f32) {
    const LN2: f32 = std::f32::consts::LN_2;
    // Clamp to the FP16-representable exponent range.
    let x = x.clamp(-24.0 * LN2, 24.0 * LN2);
    let k = (x / LN2).round();
    let r = x - k * LN2;
    // Polynomial for e^r: fast = degree 3, accurate = degree 5.
    let p = match acc {
        SfuAccuracy::Fast => 1.0 + r * (1.0 + r * (0.5 + r * (1.0 / 6.0))),
        SfuAccuracy::Accurate => {
            1.0 + r
                * (1.0
                    + r * (0.5 + r * (1.0 / 6.0 + r * (1.0 / 24.0 + r * (1.0 / 120.0)))))
        }
    };
    (p, k)
}

/// `2^k` for an integral `k ∈ [−24, 24]`, written straight into the
/// exponent field: the value `k.exp2()` returns, without the libm call.
/// A NaN `k` gives 1, and the NaN `p` beside it still makes [`exp`] NaN.
fn pow2(k: f32) -> f32 {
    f32::from_bits(((k as i32 + 127) as u32) << 23)
}

/// Natural logarithm via the exponent split `x = 2^e · m, m ∈ [1, 2)` and
/// an atanh-based polynomial in `s = (m−1)/(m+1)`.
pub fn ln(x: f32, acc: SfuAccuracy) -> f32 {
    if x < 0.0 {
        return f32::NAN;
    }
    if x == 0.0 {
        return f32::NEG_INFINITY;
    }
    let bits = x.to_bits();
    let e = ((bits >> 23) as i32 - 127) as f32;
    let m = f32::from_bits((bits & 0x007F_FFFF) | 0x3F80_0000); // [1, 2)
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    let poly = match acc {
        SfuAccuracy::Fast => 2.0 * s * (1.0 + s2 / 3.0),
        SfuAccuracy::Accurate => 2.0 * s * (1.0 + s2 * (1.0 / 3.0 + s2 * (0.2 + s2 / 7.0))),
    };
    to_fp16(e * std::f32::consts::LN_2 + poly)
}

/// Sigmoid via the exponential: `1 / (1 + e^-x)` with a hard clamp where
/// FP16 saturates anyway.
pub fn sigmoid(x: f32, acc: SfuAccuracy) -> f32 {
    if x > 12.0 {
        return 1.0;
    }
    if x < -12.0 {
        return 0.0;
    }
    let e = exp(-x, acc);
    reciprocal_exact_enough(1.0 + e, acc)
}

/// Tanh via the sigmoid identity `tanh(x) = 2σ(2x) − 1`.
pub fn tanh(x: f32, acc: SfuAccuracy) -> f32 {
    to_fp16(2.0 * sigmoid(2.0 * x, acc) - 1.0)
}

fn reciprocal_exact_enough(x: f32, acc: SfuAccuracy) -> f32 {
    reciprocal(x, acc)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn max_rel_err(f: impl Fn(f32) -> f32, g: impl Fn(f32) -> f32, xs: &[f32]) -> f64 {
        xs.iter()
            .map(|&x| {
                let (a, b) = (f64::from(f(x)), f64::from(g(x)));
                if b.abs() < 1e-6 {
                    (a - b).abs()
                } else {
                    ((a - b) / b).abs()
                }
            })
            .fold(0.0, f64::max)
    }

    fn grid(lo: f32, hi: f32, n: usize) -> Vec<f32> {
        (0..n).map(|i| lo + (hi - lo) * i as f32 / (n - 1) as f32).collect()
    }

    #[test]
    fn reciprocal_error_bounds() {
        let xs = grid(0.05, 50.0, 500);
        let fast = max_rel_err(|x| reciprocal(x, SfuAccuracy::Fast), |x| 1.0 / x, &xs);
        let accu = max_rel_err(|x| reciprocal(x, SfuAccuracy::Accurate), |x| 1.0 / x, &xs);
        assert!(fast < 0.02, "fast reciprocal err {fast}");
        assert!(accu < 0.002, "accurate reciprocal err {accu}");
        assert!(accu <= fast);
    }

    #[test]
    fn reciprocal_handles_negatives_and_zero() {
        assert!((reciprocal(-4.0, SfuAccuracy::Accurate) + 0.25).abs() < 1e-3);
        assert_eq!(reciprocal(0.0, SfuAccuracy::Fast), f32::INFINITY);
    }

    #[test]
    fn sqrt_error_bounds() {
        let xs = grid(0.01, 100.0, 500);
        let fast = max_rel_err(|x| sqrt(x, SfuAccuracy::Fast), |x| x.sqrt(), &xs);
        let accu = max_rel_err(|x| sqrt(x, SfuAccuracy::Accurate), |x| x.sqrt(), &xs);
        assert!(fast < 0.01, "fast sqrt err {fast}");
        assert!(accu < 0.002, "accurate sqrt err {accu}");
        assert!(sqrt(-1.0, SfuAccuracy::Fast).is_nan());
        assert_eq!(sqrt(0.0, SfuAccuracy::Fast), 0.0);
    }

    #[test]
    fn exp_error_bounds() {
        let xs = grid(-8.0, 8.0, 500);
        let fast = max_rel_err(|x| exp(x, SfuAccuracy::Fast), |x| x.exp(), &xs);
        let accu = max_rel_err(|x| exp(x, SfuAccuracy::Accurate), |x| x.exp(), &xs);
        assert!(fast < 0.01, "fast exp err {fast}");
        assert!(accu < 0.002, "accurate exp err {accu}");
    }

    /// [`exp`] against its libm form `to_fp16(p * k.exp2())`, bit for
    /// bit: 64 f32 ulps either side of every rounding boundary of `k`,
    /// `(k ± ½)·ln2` for `k` across the clamp range, of the clamp edges and
    /// of zero, both accuracies, plus NaN and the infinities.
    #[test]
    fn exp_matches_the_libm_form_at_every_k_boundary() {
        let ln2 = std::f32::consts::LN_2;
        let mut edges: Vec<f32> = (-25..=24).map(|k| (k as f32 + 0.5) * ln2).collect();
        edges.extend([-24.0 * ln2, 24.0 * ln2, 0.0]);
        let mut xs = vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for e in edges {
            let near = |d: u32| f32::from_bits(e.to_bits().wrapping_add(d).wrapping_sub(64));
            xs.extend((0..=128u32).map(near));
        }
        assert_exp_matches_libm_form(&xs);
    }

    /// The same over every f32 in the clamp range `[−24·ln2, 24·ln2]`.
    /// Run with `-- --ignored` in release.
    #[test]
    #[ignore = "exhaustive sweep of the clamp range; run in release with --ignored"]
    fn exp_matches_the_libm_form_on_the_whole_clamp_range() {
        let top = (24.0 * std::f32::consts::LN_2).to_bits();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
        std::thread::scope(|s| {
            for t in 0..threads {
                s.spawn(move || {
                    let mut xs = Vec::with_capacity(1 << 16);
                    for bits in (t..=top).step_by(threads as usize) {
                        let x = f32::from_bits(bits);
                        xs.extend([x, -x]);
                        if xs.len() >= 1 << 16 {
                            assert_exp_matches_libm_form(&xs);
                            xs.clear();
                        }
                    }
                    assert_exp_matches_libm_form(&xs);
                });
            }
        });
    }

    fn assert_exp_matches_libm_form(xs: &[f32]) {
        for &x in xs {
            for acc in [SfuAccuracy::Fast, SfuAccuracy::Accurate] {
                let (p, k) = exp_reduced(x, acc);
                let (got, want) = (exp(x, acc), to_fp16(p * k.exp2()));
                let bits = x.to_bits();
                assert!(
                    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                    "exp({bits:#010x}, {acc:?}) = {got:e}, libm form {want:e}"
                );
            }
        }
    }

    #[test]
    fn ln_error_bounds() {
        let xs = grid(0.05, 100.0, 500);
        let fast = max_rel_err(|x| ln(x, SfuAccuracy::Fast), |x| x.ln(), &xs);
        let accu = max_rel_err(|x| ln(x, SfuAccuracy::Accurate), |x| x.ln(), &xs);
        assert!(fast < 0.02, "fast ln err {fast}");
        assert!(accu < 0.003, "accurate ln err {accu}");
        assert!(ln(-1.0, SfuAccuracy::Fast).is_nan());
    }

    #[test]
    fn sigmoid_and_tanh_shape() {
        for acc in [SfuAccuracy::Fast, SfuAccuracy::Accurate] {
            assert!((sigmoid(0.0, acc) - 0.5).abs() < 2e-3);
            assert_eq!(sigmoid(20.0, acc), 1.0);
            assert_eq!(sigmoid(-20.0, acc), 0.0);
            assert!((tanh(0.0, acc)).abs() < 4e-3);
            assert!((tanh(1.0, acc) - 0.7616).abs() < 0.01);
            // Monotone on a grid.
            let mut prev = -1.0f32;
            for x in grid(-6.0, 6.0, 100) {
                let y = tanh(x, acc);
                assert!(y >= prev - 2e-3, "tanh not monotone at {x}");
                prev = y;
            }
        }
    }

    #[test]
    fn results_are_fp16_representable() {
        let fmt = FpFormat::fp16();
        for x in grid(0.1, 10.0, 50) {
            for v in [
                reciprocal(x, SfuAccuracy::Fast),
                sqrt(x, SfuAccuracy::Accurate),
                exp(x * 0.3, SfuAccuracy::Fast),
                ln(x, SfuAccuracy::Accurate),
                sigmoid(x, SfuAccuracy::Fast),
                tanh(x, SfuAccuracy::Accurate),
            ] {
                assert!(fmt.is_representable(v), "{v} not fp16");
            }
        }
    }
}
