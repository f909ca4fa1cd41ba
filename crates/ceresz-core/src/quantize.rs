//! Pre-quantization (stage ① of the paper, §3).
//!
//! Converts floating-point values into integers relative to twice the error
//! bound: `p_i = round(e_i / 2ε)`. The paper implements the division as a
//! multiplication with the reciprocal of `2ε`, and `round` as `+0.5` followed
//! by `floor` — the same decomposition we mirror here because it is what the
//! sub-stage split in §4.2 (Table 2) is based on. This is the only lossy step:
//! `|p_i · 2ε − e_i| ≤ ε` by construction.

use crate::QUANT_MAX;

/// Errors detectable during quantization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantizeError {
    /// The input contained a NaN or infinity, which cannot be bounded.
    NonFinite {
        /// Index of the offending value.
        index: usize,
    },
    /// `|round(e / 2ε)|` exceeded [`QUANT_MAX`]; the error bound is too small
    /// relative to the data magnitude for the 32-bit integer pipeline.
    Overflow {
        /// Index of the offending value.
        index: usize,
    },
}

impl std::fmt::Display for QuantizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            QuantizeError::NonFinite { index } => {
                write!(f, "non-finite input value at index {index}")
            }
            QuantizeError::Overflow { index } => write!(
                f,
                "quantized magnitude at index {index} exceeds 2^30-1; \
                 use a larger error bound"
            ),
        }
    }
}

impl std::error::Error for QuantizeError {}

/// Multiplication sub-stage: `e_i · (1 / 2ε)`.
///
/// Kept separate from [`round_sub_stage`] because the pipeline mapper may
/// place the two sub-stages on different PEs (§4.2, Table 2).
#[inline]
pub fn mul_sub_stage(input: &[f32], eps: f64, out: &mut [f64]) {
    debug_assert_eq!(input.len(), out.len());
    let recip = 1.0 / (2.0 * eps);
    for (o, &v) in out.iter_mut().zip(input) {
        *o = f64::from(v) * recip;
    }
}

/// Addition/floor sub-stage: `floor(x + 0.5)` (round-half-up).
#[inline]
pub fn round_sub_stage(scaled: &[f64], out: &mut [i64]) {
    debug_assert_eq!(scaled.len(), out.len());
    for (o, &x) in out.iter_mut().zip(scaled) {
        *o = (x + 0.5).floor() as i64;
    }
}

/// `1.5 · 2^52`: adding it to a `|y| ≤ 2^51` lands in `[2^52, 2^53)`, where
/// the spacing of `f64` is 1, so the sum is `y` rounded to an integer, held
/// in the low mantissa bits.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;

/// `floor(y)` for `|y| ≤ 2^51` without the libm call `f64::floor` compiles
/// to on baseline x86-64, in arithmetic that vectorises: round to the
/// nearest integer with [`ROUND_MAGIC`], read it from the bits, and step
/// down by one where rounding went up. Larger `|y|` give garbage.
#[inline]
fn floor_small(y: f64) -> i64 {
    let z = y + ROUND_MAGIC;
    let nearest = (z.to_bits() as i64).wrapping_sub(ROUND_MAGIC.to_bits() as i64);
    nearest.wrapping_sub(i64::from(z - ROUND_MAGIC > y))
}

/// Quantize a slice in one pass, checking finiteness and overflow.
///
/// `out` must have the same length as `input`; on error its contents are
/// unspecified. The arithmetic is performed in `f64` so the bound
/// `|p·2ε − e| ≤ ε` holds for every representable `f32` input (an `f32`
/// reciprocal could lose the guarantee near the rounding boundary).
///
/// The loop has no branch and no libm call. `floor(x + 0.5)` lies within
/// `±QUANT_MAX` exactly when `x + 0.5 ∈ [−QUANT_MAX, QUANT_MAX + 1)`, and a
/// non-finite input scales to NaN or ±∞, which is never in that range, so
/// one OR-accumulated flag covers both checks. When it is raised, a cold
/// rescan finds the first failing index and its kind.
pub fn quantize(input: &[f32], eps: f64, out: &mut [i64]) -> Result<(), QuantizeError> {
    assert_eq!(input.len(), out.len(), "output length mismatch");
    let recip = 1.0 / (2.0 * eps);
    let lo = -(QUANT_MAX as f64);
    let hi = (QUANT_MAX + 1) as f64;
    let mut bad = false;
    for (o, &v) in out.iter_mut().zip(input) {
        let y = f64::from(v) * recip + 0.5;
        bad |= !((y >= lo) & (y < hi));
        *o = floor_small(y);
    }
    if bad {
        return quantize_checked(input, recip, out);
    }
    Ok(())
}

/// [`quantize`] one element at a time, stopping at the first failure.
#[cold]
#[inline(never)]
fn quantize_checked(input: &[f32], recip: f64, out: &mut [i64]) -> Result<(), QuantizeError> {
    for (i, (o, &v)) in out.iter_mut().zip(input).enumerate() {
        if !v.is_finite() {
            return Err(QuantizeError::NonFinite { index: i });
        }
        // The cast saturates for |scaled| beyond the i64 range (e.g. f32::MAX
        // at a tiny ε lands on i64::MIN), so the magnitude check must not use
        // `abs()`, which panics on i64::MIN.
        let p = (f64::from(v) * recip + 0.5).floor() as i64;
        if p.unsigned_abs() > QUANT_MAX as u64 {
            return Err(QuantizeError::Overflow { index: i });
        }
        *o = p;
    }
    Ok(())
}

/// Reconstruct floating-point values from quantized integers: `e'_i = p_i · 2ε`.
#[inline]
pub fn dequantize(quantized: &[i64], eps: f64, out: &mut [f32]) {
    debug_assert_eq!(quantized.len(), out.len());
    let scale = 2.0 * eps;
    for (o, &p) in out.iter_mut().zip(quantized) {
        *o = (p as f64 * scale) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_running_example() {
        // Paper §3: ε = 0.01 in the worked formula (the text's block shows
        // round(0.83/0.02) = 42 ≈ "4" typo; we verify the real arithmetic).
        let mut out = [0i64];
        quantize(&[0.83], 0.01, &mut out).unwrap();
        // 0.83/0.02 = 41.5 exactly in reals, but 0.83f32 < 0.83, so the
        // boundary resolves to 41; either neighbor honors the bound.
        assert!(out[0] == 41 || out[0] == 42);
        let mut rec = [0f32];
        dequantize(&out, 0.01, &mut rec);
        // Half-ulp slack: 0.83 is not exactly representable in f32.
        assert!((f64::from(rec[0]) - 0.83).abs() <= 0.01 + 1e-7);
    }

    #[test]
    fn bound_holds_for_grid_of_values() {
        let eps = 1e-3;
        let data: Vec<f32> = (-2000..2000).map(|i| i as f32 * 0.001_7).collect();
        let mut q = vec![0i64; data.len()];
        quantize(&data, eps, &mut q).unwrap();
        let mut rec = vec![0f32; data.len()];
        dequantize(&q, eps, &mut rec);
        for (a, b) in data.iter().zip(&rec) {
            let slack = f64::from(f32::EPSILON) * (1.0 + f64::from(a.abs()));
            assert!(
                (f64::from(*a) - f64::from(*b)).abs() <= eps + slack,
                "{a} vs {b}"
            );
        }
    }

    #[test]
    fn sub_stages_compose_to_quantize() {
        let data: Vec<f32> = vec![0.83, -1.4, 0.0, 7.25];
        let eps = 0.01;
        let mut scaled = vec![0f64; data.len()];
        mul_sub_stage(&data, eps, &mut scaled);
        let mut rounded = vec![0i64; data.len()];
        round_sub_stage(&scaled, &mut rounded);
        let mut direct = vec![0i64; data.len()];
        quantize(&data, eps, &mut direct).unwrap();
        assert_eq!(rounded, direct);
    }

    #[test]
    fn nan_is_rejected() {
        let mut out = [0i64; 2];
        let err = quantize(&[1.0, f32::NAN], 1e-3, &mut out).unwrap_err();
        assert_eq!(err, QuantizeError::NonFinite { index: 1 });
    }

    #[test]
    fn overflow_is_rejected() {
        let mut out = [0i64];
        let err = quantize(&[1.0e30], 1e-6, &mut out).unwrap_err();
        assert_eq!(err, QuantizeError::Overflow { index: 0 });
    }

    /// Deterministic xorshift64* for the bound-holds sweeps below (the
    /// vendored proptest has no float strategies; a seeded sweep is
    /// reproducible by construction).
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    #[test]
    fn bound_holds_for_denormals() {
        // Denormal inputs (down to f32::MIN_POSITIVE * 2^-23) must quantize
        // without losing the error-bound guarantee, at bounds both far above
        // and comparable to the denormal magnitude.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        for eps in [1e-3f64, 1e-20, 1e-38, 1e-42] {
            let data: Vec<f32> = (0..512)
                .map(|i| {
                    let bits = (xorshift(&mut s) as u32) & 0x007F_FFFF; // denormal: zero exponent
                    let v = f32::from_bits(bits);
                    if i % 2 == 0 {
                        v
                    } else {
                        -v
                    }
                })
                .collect();
            let mut q = vec![0i64; data.len()];
            quantize(&data, eps, &mut q).unwrap();
            let mut rec = vec![0f32; data.len()];
            dequantize(&q, eps, &mut rec);
            for (a, b) in data.iter().zip(&rec) {
                let slack = f64::from(f32::EPSILON) * (1.0 + f64::from(a.abs()));
                assert!(
                    (f64::from(*a) - f64::from(*b)).abs() <= eps + slack,
                    "{a:e} vs {b:e} at eps {eps:e}"
                );
            }
        }
    }

    #[test]
    fn bound_holds_near_quant_max() {
        // Values that quantize just below QUANT_MAX must roundtrip within ε;
        // one step beyond must be a typed overflow, never wraparound.
        let eps = 0.5; // 2ε = 1, so p == round(e)
        let mut s = 0xDEAD_BEEF_CAFE_F00Du64;
        for _ in 0..2048 {
            let p = (QUANT_MAX as u64 - (xorshift(&mut s) % 4096)) as i64;
            let v = (p as f64) as f32; // representable f32 near p
            let mut q = [0i64];
            match quantize(&[v], eps, &mut q) {
                Ok(()) => {
                    assert!(q[0].abs() <= QUANT_MAX);
                    let mut rec = [0f32];
                    dequantize(&q, eps, &mut rec);
                    let slack = f64::from(f32::EPSILON) * (1.0 + f64::from(v.abs()));
                    assert!((f64::from(v) - f64::from(rec[0])).abs() <= eps + slack);
                }
                // f32 rounding of p may land past QUANT_MAX: typed, not UB.
                Err(e) => assert_eq!(e, QuantizeError::Overflow { index: 0 }),
            }
        }
        // Exactly one past the cap in exact arithmetic.
        let mut q = [0i64];
        let over = (QUANT_MAX + 1) as f64;
        assert_eq!(
            quantize(&[over as f32], eps, &mut q),
            Err(QuantizeError::Overflow { index: 0 })
        );
    }

    #[test]
    fn i64_saturating_magnitudes_are_typed_overflow() {
        // f32::MAX at a tiny ε scales past the i64 range; the cast saturates
        // to i64::MIN / i64::MAX, which the overflow check must survive
        // (i64::MIN.abs() panics — found by the conformance fuzzer).
        let mut out = [0i64];
        for v in [f32::MAX, -f32::MAX, 3.3e38, -2.78e38, 1e30, -1e30] {
            assert_eq!(
                quantize(&[v], 1e-6, &mut out),
                Err(QuantizeError::Overflow { index: 0 }),
                "{v:e}"
            );
        }
    }

    #[test]
    fn infinities_are_rejected() {
        let mut out = [0i64; 2];
        assert_eq!(
            quantize(&[f32::INFINITY, 0.0], 1e-3, &mut out),
            Err(QuantizeError::NonFinite { index: 0 })
        );
        assert_eq!(
            quantize(&[0.0, f32::NEG_INFINITY], 1e-3, &mut out),
            Err(QuantizeError::NonFinite { index: 1 })
        );
    }

    #[test]
    fn negative_rounding_is_half_up() {
        // floor(x + 0.5) rounds -0.5 to 0 and -0.6 to -1 with eps=0.5 (2ε=1).
        let mut out = [0i64; 3];
        quantize(&[-0.5, -0.6, -1.5], 0.5, &mut out).unwrap();
        assert_eq!(out, [0, -1, -1]);
        // Every reconstruction is still within ε.
        let mut rec = [0f32; 3];
        dequantize(&out, 0.5, &mut rec);
        for (a, b) in [-0.5f32, -0.6, -1.5].iter().zip(&rec) {
            assert!((a - b).abs() <= 0.5);
        }
    }
}
