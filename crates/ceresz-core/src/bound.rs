//! Error-bound specification.
//!
//! The paper evaluates every compressor with a *value-range-based relative*
//! (REL) error bound (§5.1.3): for a dataset with value range `r`, `REL λ`
//! means every reconstructed point must lie within `λ·r` of the original.
//! Internally the pipeline always works with an absolute `ε`, so a REL bound
//! is resolved against the data before compression.

/// A user-facing error-bound specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBound {
    /// Absolute bound: `|e_i − e'_i| ≤ ε` for every element.
    Abs(f64),
    /// Value-range-based relative bound: `|e_i − e'_i| ≤ λ · (max − min)`.
    Rel(f64),
}

impl ErrorBound {
    /// Resolve this bound to an absolute `ε` for the given data.
    ///
    /// For [`ErrorBound::Abs`] the data is not inspected. For
    /// [`ErrorBound::Rel`] the value range is computed in one pass; non-finite
    /// values are ignored when computing the range (they are rejected later by
    /// the compressor anyway). A constant field (range 0) resolves to an `ε`
    /// of `λ` times the magnitude of the constant, or `λ` itself for an
    /// all-zero field, so that compression of constant data still succeeds.
    #[must_use]
    pub fn resolve(&self, data: &[f32]) -> f64 {
        match *self {
            ErrorBound::Abs(eps) => eps,
            ErrorBound::Rel(lambda) => {
                let (min, max) = value_range(data);
                let range = f64::from(max) - f64::from(min);
                if range > 0.0 {
                    lambda * range
                } else {
                    let mag = f64::from(max.abs());
                    if mag > 0.0 {
                        lambda * mag
                    } else {
                        lambda
                    }
                }
            }
        }
    }

    /// The raw numeric parameter (ε or λ).
    #[must_use]
    pub fn value(&self) -> f64 {
        match *self {
            ErrorBound::Abs(v) | ErrorBound::Rel(v) => v,
        }
    }

    /// True if the bound parameter is finite and strictly positive.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        let v = self.value();
        v.is_finite() && v > 0.0
    }
}

/// Minimum and maximum of the finite values in `data`.
///
/// Returns `(0.0, 0.0)` for an empty slice or a slice with no finite values.
/// When the extreme is a zero, its sign depends on the order of the data;
/// the `ε` [`ErrorBound::resolve`] derives from it does not.
#[must_use]
pub fn value_range(data: &[f32]) -> (f32, f32) {
    // Eight independent lanes, each a compare-and-select with non-finite
    // values mapped to the identity (±∞), so the loop vectorizes.
    let mut lo = [f32::INFINITY; 8];
    let mut hi = [f32::NEG_INFINITY; 8];
    let (chunks, rest) = data.as_chunks::<8>();
    for c in chunks {
        for ((l, h), &v) in lo.iter_mut().zip(&mut hi).zip(c) {
            min_max_step(l, h, v);
        }
    }
    for &v in rest {
        min_max_step(&mut lo[0], &mut hi[0], v);
    }
    let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
    for v in lo.into_iter().chain(hi) {
        min_max_step(&mut min, &mut max, v);
    }
    if min > max {
        (0.0, 0.0)
    } else {
        (min, max)
    }
}

/// Fold `v` into a running `(lo, hi)` unless it is NaN or infinite.
#[inline(always)]
fn min_max_step(lo: &mut f32, hi: &mut f32, v: f32) {
    let finite = v.abs() < f32::INFINITY;
    let l = if finite { v } else { f32::INFINITY };
    let h = if finite { v } else { f32::NEG_INFINITY };
    *lo = if l < *lo { l } else { *lo };
    *hi = if h > *hi { h } else { *hi };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abs_resolves_to_itself() {
        assert_eq!(ErrorBound::Abs(1e-3).resolve(&[1.0, 2.0]), 1e-3);
    }

    #[test]
    fn rel_scales_by_range() {
        let data = [-2.0_f32, 0.0, 6.0];
        let eps = ErrorBound::Rel(1e-2).resolve(&data);
        assert!((eps - 0.08).abs() < 1e-12);
    }

    #[test]
    fn rel_constant_field_uses_magnitude() {
        let data = [5.0_f32; 16];
        let eps = ErrorBound::Rel(1e-2).resolve(&data);
        assert!((eps - 0.05).abs() < 1e-12);
    }

    #[test]
    fn rel_all_zero_field_uses_lambda() {
        let data = [0.0_f32; 16];
        let eps = ErrorBound::Rel(1e-2).resolve(&data);
        assert!((eps - 1e-2).abs() < 1e-15);
    }

    #[test]
    fn rel_ignores_non_finite() {
        let data = [f32::NAN, 1.0, f32::INFINITY, 3.0];
        assert_eq!(value_range(&data), (1.0, 3.0));
    }

    #[test]
    fn empty_range_is_zero() {
        assert_eq!(value_range(&[]), (0.0, 0.0));
    }

    #[test]
    fn validity() {
        assert!(ErrorBound::Abs(1e-4).is_valid());
        assert!(!ErrorBound::Abs(0.0).is_valid());
        assert!(!ErrorBound::Rel(-1.0).is_valid());
        assert!(!ErrorBound::Abs(f64::NAN).is_valid());
    }
}
