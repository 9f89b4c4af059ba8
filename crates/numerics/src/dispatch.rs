//! Runtime kernel-backend selection for the emulated GEMM/conv fast paths.
//!
//! The tiled fast paths are portable scalar Rust; this module decides,
//! per call and per format, whether the crate-private `simd` AVX2 kernels
//! run instead:
//!
//! * the `RAPID_SIMD` environment knob (`auto` | `force` | `off`) — `auto`
//!   (the default) uses vector kernels only when the CPU supports them and
//!   the problem is large enough to amortize setup; `force` uses them
//!   whenever the CPU supports them; `off` pins the portable tiled paths;
//! * capability detection — the float and integer vector kernels need
//!   AVX2, and the float one FMA too (`x86_64` only, checked at runtime);
//!   INT4 and INT2 share the one expanding integer kernel;
//! * bit-exactness is *not* a selection concern: every backend reproduces
//!   the scalar references bit-for-bit (`tests/fastpath_bitexact.rs` runs
//!   the whole suite under `force` and `off`), so selection is purely a
//!   performance decision.
//!
//! [`kernel_matrix`] reports the decision per RaPiD format, with the
//! reason, for telemetry (`numerics_validation` prints it and stamps it
//! into `rapid-bench-v1` records).

use crate::int::{IntFormat, QuantParams, Signedness};

/// Vectorization policy, normally read from `RAPID_SIMD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdMode {
    /// Vector kernels when supported and the problem is large enough.
    #[default]
    Auto,
    /// Vector kernels whenever the CPU supports them, regardless of size.
    Force,
    /// Portable tiled fast paths only.
    Off,
}

impl SimdMode {
    /// Parses `RAPID_SIMD` (`auto` | `force` | `off`, case-insensitive;
    /// unset or unrecognized values mean `auto`).
    pub fn from_env() -> Self {
        match std::env::var("RAPID_SIMD").ok().as_deref().map(str::trim) {
            Some(s) if s.eq_ignore_ascii_case("force") => SimdMode::Force,
            Some(s) if s.eq_ignore_ascii_case("off") || s == "0" => SimdMode::Off,
            _ => SimdMode::Auto,
        }
    }

    /// The knob value as it would be spelled in the environment.
    pub fn as_str(self) -> &'static str {
        match self {
            SimdMode::Auto => "auto",
            SimdMode::Force => "force",
            SimdMode::Off => "off",
        }
    }
}

impl std::fmt::Display for SimdMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Whether the AVX2 vector kernels can run on this machine (the float
/// kernel also needs FMA).
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Below this many MACs, `auto` keeps the portable paths: per-call vector
/// setup (operand packing, the `#[target_feature]` call boundary) only
/// amortizes on reasonably sized problems.
pub(crate) const AUTO_MIN_MACS: u64 = 4096;

/// Beyond this reduction depth an i32 lane of the expanding INT kernel
/// could overflow, so `auto` and `force` both fall back to the tiled path.
/// A lane sums one k-quad per step, at most `4·15·15 = 900` in magnitude
/// with a biased column operand (INT4; INT2's biased codes are at most 3),
/// so `k/4` steps stay below `225·k`, and `225 · 2^23 < 2^31`. Far beyond
/// any model layer.
pub(crate) const MADD_MAX_K: usize = 1 << 23;

/// Whether a GEMM of `macs` total MACs should take the AVX2 kernels.
pub(crate) fn use_simd(mode: SimdMode, macs: u64) -> bool {
    match mode {
        SimdMode::Off => false,
        SimdMode::Force => simd_available(),
        SimdMode::Auto => simd_available() && macs >= AUTO_MIN_MACS,
    }
}

/// Integer kernel choice for a (non-saturating) quantized GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IntKernel {
    /// Portable windowed dot products over `i8` codes.
    Tiled,
    /// AVX2 expanding multiply-add over register tiles.
    Expanding,
}

/// Selects the integer kernel for every INT format pair: the AVX2
/// expanding kernel when the policy wants vector kernels, the CPU has
/// AVX2 and `k` fits its i32 lanes; tiled otherwise.
pub(crate) fn int_kernel(mode: SimdMode, macs: u64, k: usize) -> IntKernel {
    if use_simd(mode, macs) && k <= MADD_MAX_K {
        IntKernel::Expanding
    } else {
        IntKernel::Tiled
    }
}

/// Which implementation family actually computes a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Accumulator-driven reference loop (selected only when the INT16
    /// chunk guard makes saturation possible, so it must be modeled).
    Scalar,
    /// Portable tiled + register-blocked fast path.
    Tiled,
    /// AVX2 vector kernel (16-lane float MAC / expanding integer tiles).
    Simd,
}

impl std::fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Tiled => "tiled",
            KernelBackend::Simd => "simd",
        })
    }
}

/// One row of the kernel-selection matrix: which backend a format's GEMM
/// takes at a given shape, and why.
#[derive(Debug, Clone)]
pub struct KernelChoice {
    /// Format label (`fp16`, `hfp8_fwd`, `hfp8_bwd`, `int4`, `int2`).
    pub format: &'static str,
    /// Selected backend.
    pub backend: KernelBackend,
    /// Human-readable selection rationale.
    pub reason: String,
}

fn float_choice(format: &'static str, mode: SimdMode, macs: u64) -> KernelChoice {
    let (backend, reason) = if use_simd(mode, macs) {
        let how = if format == "fp16" {
            "avx2+fma 16-lane FP16 MAC, magic-constant DLFloat rounding"
        } else {
            "avx2+fma 16-lane MAC on staged FP9 operands, magic-constant DLFloat rounding"
        };
        (KernelBackend::Simd, format!("{how} (RAPID_SIMD={mode})"))
    } else {
        (KernelBackend::Tiled, fallback_reason(mode))
    };
    KernelChoice { format, backend, reason }
}

fn fallback_reason(mode: SimdMode) -> String {
    match mode {
        SimdMode::Off => "RAPID_SIMD=off pins the portable tiled path".to_string(),
        _ if !simd_available() => format!("AVX2/FMA unavailable on this CPU (RAPID_SIMD={mode})"),
        _ => format!("below the {AUTO_MIN_MACS}-MAC auto threshold (RAPID_SIMD={mode})"),
    }
}

fn int_choice(
    format: &'static str,
    fmt: IntFormat,
    mode: SimdMode,
    k: usize,
    chunk_len: usize,
    macs: u64,
) -> KernelChoice {
    let q = QuantParams::from_abs_max(fmt, Signedness::Signed, 1.0);
    if crate::gemm::int_saturation_possible(q, q, k, chunk_len) {
        return KernelChoice {
            format,
            backend: KernelBackend::Scalar,
            reason: format!(
                "chunk_len={chunk_len} makes INT16 saturation possible: saturating scalar accumulator"
            ),
        };
    }
    let (backend, reason) = match int_kernel(mode, macs, k) {
        IntKernel::Expanding => (
            KernelBackend::Simd,
            format!(
                "avx2 expanding vpmaddubsw u8×i8→i16→i32, 4×16 register tiles (RAPID_SIMD={mode})"
            ),
        ),
        IntKernel::Tiled => (KernelBackend::Tiled, fallback_reason(mode)),
    };
    KernelChoice { format, backend, reason }
}

/// Kernel-selection matrix at the canonical 128³ / chunk-64 benchmark
/// shape, honoring the current `RAPID_SIMD` environment.
pub fn kernel_matrix() -> Vec<KernelChoice> {
    kernel_matrix_at(SimdMode::from_env(), 128, 64)
}

/// Kernel-selection matrix for a cube GEMM of side `dim` with the given
/// accumulation chunk, under an explicit mode.
pub fn kernel_matrix_at(mode: SimdMode, dim: usize, chunk_len: usize) -> Vec<KernelChoice> {
    let macs = (dim * dim * dim) as u64;
    vec![
        float_choice("fp16", mode, macs),
        float_choice("hfp8_fwd", mode, macs),
        float_choice("hfp8_bwd", mode, macs),
        int_choice("int4", IntFormat::Int4, mode, dim, chunk_len, macs),
        int_choice("int2", IntFormat::Int2, mode, dim, chunk_len, macs),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_pins_tiled() {
        for c in kernel_matrix_at(SimdMode::Off, 128, 64) {
            assert_eq!(c.backend, KernelBackend::Tiled, "{}: {}", c.format, c.reason);
        }
    }

    #[test]
    fn int2_selects_int4_backend_under_force() {
        let m = kernel_matrix_at(SimdMode::Force, 128, 64);
        let backend = |f: &str| m.iter().find(|c| c.format == f).map(|c| c.backend);
        let want = if simd_available() { KernelBackend::Simd } else { KernelBackend::Tiled };
        assert_eq!(backend("int4"), Some(want));
        assert_eq!(backend("int2"), Some(want));
    }

    #[test]
    fn saturating_chunk_reports_scalar() {
        // INT4 signed worst product 49; window 1024 → 50_176 > i16::MAX.
        let m = kernel_matrix_at(SimdMode::Force, 1024, 1024);
        let int4 = m.iter().find(|c| c.format == "int4");
        assert_eq!(int4.map(|c| c.backend), Some(KernelBackend::Scalar));
    }

    #[test]
    fn auto_respects_size_threshold() {
        let m = kernel_matrix_at(SimdMode::Auto, 4, 64);
        for c in m {
            assert_ne!(c.backend, KernelBackend::Simd, "{}: {}", c.format, c.reason);
        }
    }

    #[test]
    fn mode_parses_roundtrip() {
        assert_eq!(SimdMode::default(), SimdMode::Auto);
        assert_eq!(SimdMode::Force.as_str(), "force");
        assert_eq!(format!("{}", SimdMode::Off), "off");
    }
}
