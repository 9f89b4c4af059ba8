//! Exhaustive lookup tables for 8-bit float operands.
//!
//! An 8-bit format has only 256 codes, so every per-element operation the
//! emulated HFP8 pipeline performs — decode, FP9 conversion, and the f32
//! operand product — can be precomputed exhaustively. A [`ProductLut`] holds
//! all 65 536 pairwise products for an (A-format, B-format) pair: the
//! exhaustive statement of the HFP8 multiply. The emulated kernels compute
//! the same products by multiplying FP9-converted operands staged once per
//! call; the table's operand factors pin that staging code by code (see the
//! stager test in `gemm`). Tables are built once per format pair and cached
//! process-wide (256 KiB each).

use crate::format::FpFormat;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Decoded values of all 256 codes of an 8-bit float format.
#[derive(Debug, Clone)]
pub struct DecodeLut {
    values: [f32; 256],
}

impl DecodeLut {
    /// Builds the table for an 8-bit format.
    ///
    /// # Panics
    ///
    /// Panics if `fmt` is not 8 bits wide.
    pub fn new(fmt: FpFormat) -> Self {
        assert_eq!(fmt.total_bits(), 8, "decode LUT requires an 8-bit format, got {fmt}");
        let mut values = [0.0f32; 256];
        for (code, v) in values.iter_mut().enumerate() {
            *v = fmt.decode(code as u32);
        }
        Self { values }
    }

    /// The value of `code`.
    #[inline]
    pub fn decode(&self, code: u8) -> f32 {
        self.values[code as usize]
    }

    /// All 256 decoded values, indexed by code.
    pub fn values(&self) -> &[f32; 256] {
        &self.values
    }
}

/// Whether an 8-bit code decodes to zero (positive or negative).
///
/// Zero is the all-zero magnitude code in every constructible 8-bit format
/// (exponent code 0 with a non-zero mantissa decodes to a non-zero value in
/// subnormal-free formats), so the zero-gating predicate of the MPE datapath
/// reduces to a mask test on the raw code.
#[inline(always)]
pub fn is_zero_code(code: u8) -> bool {
    code & 0x7f == 0
}

/// All 65 536 operand products of an FP8×FP8 format pair, after both
/// operands pass through the FP9 internal representation — exactly the value
/// the emulated FMA pipeline multiplies before accumulation.
#[derive(Debug, Clone)]
pub struct ProductLut {
    products: Box<[f32]>,
    /// FP9-converted A-operand values, indexed by code — the exact left
    /// factors the product table was built from.
    a_operands: [f32; 256],
    /// FP9-converted B-operand values, indexed by code.
    b_operands: [f32; 256],
}

impl ProductLut {
    /// Builds the table for A-operands in `fa` and B-operands in `fb`.
    ///
    /// # Panics
    ///
    /// Panics if either format is not 8 bits wide.
    pub fn new(fa: FpFormat, fb: FpFormat) -> Self {
        let da = DecodeLut::new(fa);
        let db = DecodeLut::new(fb);
        let fp9 = FpFormat::fp9();
        // FP9 conversion of each operand is per-code, so precompute 2×256
        // then take the outer product. The multiply is exact in f32 (3-bit
        // mantissas), matching the pipeline's error-free product.
        let ia: Vec<f32> = da.values().iter().map(|&v| fp9.quantize(v)).collect();
        let ib: Vec<f32> = db.values().iter().map(|&v| fp9.quantize(v)).collect();
        let mut products = vec![0.0f32; 1 << 16].into_boxed_slice();
        for (ca, &a9) in ia.iter().enumerate() {
            for (cb, &b9) in ib.iter().enumerate() {
                products[(ca << 8) | cb] = a9 * b9;
            }
        }
        let mut a_operands = [0.0f32; 256];
        a_operands.copy_from_slice(&ia);
        let mut b_operands = [0.0f32; 256];
        b_operands.copy_from_slice(&ib);
        Self { products, a_operands, b_operands }
    }

    /// The product for A-code `ca` and B-code `cb`.
    #[inline]
    pub fn product(&self, ca: u8, cb: u8) -> f32 {
        self.products[(usize::from(ca) << 8) | usize::from(cb)]
    }

    /// The full 64K product table, indexed by `(ca << 8) | cb`.
    pub fn products(&self) -> &[f32] {
        &self.products
    }

    /// The 256 FP9-converted A-operand values, indexed by code.
    ///
    /// These are the exact left factors of [`Self::products`]:
    /// `product(ca, cb) == a_operands()[ca] * b_operands()[cb]` holds
    /// bit-for-bit, because the table entry *is* that f32 multiply and
    /// IEEE multiplication is deterministic. Vector kernels exploit the
    /// identity to trade the per-step table gather for a multiply of
    /// pre-decoded operands.
    pub fn a_operands(&self) -> &[f32; 256] {
        &self.a_operands
    }

    /// The 256 FP9-converted B-operand values, indexed by code (see
    /// [`Self::a_operands`]).
    pub fn b_operands(&self) -> &[f32; 256] {
        &self.b_operands
    }
}

/// Returns the cached [`ProductLut`] for a format pair, building it on first
/// use. Tables are never evicted; a sweep touches a handful of (format, bias)
/// pairs, each costing 256 KiB.
pub fn product_lut(fa: FpFormat, fb: FpFormat) -> Arc<ProductLut> {
    type Cache = Mutex<HashMap<(FpFormat, FpFormat), Arc<ProductLut>>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    Arc::clone(map.entry((fa, fb)).or_insert_with(|| Arc::new(ProductLut::new(fa, fb))))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn decode_lut_matches_decode() {
        for fmt in [FpFormat::fp8_e4m3(), FpFormat::fp8_e5m2()] {
            let lut = DecodeLut::new(fmt);
            for code in 0..=255u8 {
                assert_eq!(lut.decode(code).to_bits(), fmt.decode(u32::from(code)).to_bits());
            }
        }
    }

    #[test]
    fn zero_code_predicate_matches_decoded_zero() {
        for fmt in [
            FpFormat::fp8_e4m3(),
            FpFormat::fp8_e5m2(),
            FpFormat::fp8_e4m3_with_bias(-3).unwrap(),
            FpFormat::fp8_e4m3_with_bias(11).unwrap(),
        ] {
            let lut = DecodeLut::new(fmt);
            for code in 0..=255u8 {
                assert_eq!(is_zero_code(code), lut.decode(code) == 0.0, "{fmt} code {code:#04x}");
            }
        }
    }

    #[test]
    fn product_lut_matches_fp9_pipeline() {
        let fa = FpFormat::fp8_e4m3();
        let fb = FpFormat::fp8_e5m2();
        let lut = ProductLut::new(fa, fb);
        let fp9 = FpFormat::fp9();
        for ca in (0..=255u8).step_by(7) {
            for cb in 0..=255u8 {
                let expect =
                    fp9.quantize(fa.decode(u32::from(ca))) * fp9.quantize(fb.decode(u32::from(cb)));
                assert_eq!(lut.product(ca, cb).to_bits(), expect.to_bits());
            }
        }
    }

    /// Every table entry factors bit-exactly into the exposed operand
    /// tables — the identity the vector kernels' decode-and-multiply path
    /// rests on.
    #[test]
    fn products_factor_into_operand_tables() {
        for (fa, fb) in [
            (FpFormat::fp8_e4m3(), FpFormat::fp8_e5m2()),
            (FpFormat::fp8_e4m3_with_bias(11).unwrap(), FpFormat::fp8_e4m3()),
        ] {
            let lut = ProductLut::new(fa, fb);
            let (ia, ib) = (lut.a_operands(), lut.b_operands());
            for ca in 0..=255u8 {
                for cb in 0..=255u8 {
                    let expect = ia[usize::from(ca)] * ib[usize::from(cb)];
                    assert_eq!(lut.product(ca, cb).to_bits(), expect.to_bits());
                }
            }
        }
    }

    #[test]
    fn cache_keys_on_format_including_bias() {
        let a = product_lut(FpFormat::fp8_e4m3(), FpFormat::fp8_e4m3());
        let b = product_lut(FpFormat::fp8_e4m3(), FpFormat::fp8_e4m3());
        assert!(Arc::ptr_eq(&a, &b));
        let c = product_lut(FpFormat::fp8_e4m3_with_bias(9).unwrap(), FpFormat::fp8_e4m3());
        assert!(!Arc::ptr_eq(&a, &c));
    }
}
