//! Checked numeric conversions for cycle/byte accounting.
//!
//! The accounting modules (see `v10-lint` rule **D3**) may not use bare
//! `as` casts: a silent truncation or precision loss there drifts golden
//! figures without any diagnostic. These helpers make every conversion's
//! contract explicit:
//!
//! * integer → `f64` is **exact** below 2^53 (every cycle/byte count this
//!   simulator produces) and `debug_assert`s that bound, so a violation
//!   surfaces in test builds instead of silently rounding;
//! * `f64` → integer **saturates** at the type bounds and maps NaN to 0,
//!   so no input can panic or wrap.
//!
//! For `u8`/`u16`/`u32` → `f64`, prefer `f64::from` (lossless by type);
//! for integer → integer, prefer `TryFrom`. These helpers exist for the
//! conversions the standard library refuses to make infallible.

/// Largest integer magnitude `f64` represents exactly (2^53).
pub const F64_EXACT_MAX: u64 = 1 << 53;

/// Exact `u64` → `f64`. Debug-asserts the value fits in the 53-bit
/// mantissa; release builds convert unconditionally (the assert documents
/// the invariant, it does not guard unreachable code).
#[inline]
#[must_use]
pub fn u64_to_f64(x: u64) -> f64 {
    debug_assert!(
        x <= F64_EXACT_MAX,
        "u64 -> f64 conversion of {x} is not exact (> 2^53)"
    );
    x as f64
}

/// Exact `usize` → `f64`; see [`u64_to_f64`].
#[inline]
#[must_use]
pub fn usize_to_f64(x: usize) -> f64 {
    u64_to_f64(u64_from_usize(x))
}

/// Saturating `f64` → `u64`: truncates toward zero, clamps negatives to 0
/// and overflow to `u64::MAX`, maps NaN to 0.
#[inline]
#[must_use]
pub fn f64_to_u64(x: f64) -> u64 {
    if x.is_nan() {
        return 0;
    }
    // `as` from f64 to an integer type is itself saturating since Rust
    // 1.45, so the clamp semantics documented above hold exactly.
    x as u64
}

/// [`f64_to_u64`] after rounding half-away-from-zero, the rounding mode
/// the cycle accounting uses everywhere.
#[inline]
#[must_use]
pub fn f64_to_u64_round(x: f64) -> u64 {
    f64_to_u64(x.round())
}

/// Saturating `f64` → `usize`; see [`f64_to_u64`].
#[inline]
#[must_use]
pub fn f64_to_usize(x: f64) -> usize {
    if x.is_nan() {
        return 0;
    }
    x as usize
}

/// `usize` → `u64`, saturating on (hypothetical) 128-bit targets; lossless
/// on every target this simulator supports.
#[inline]
#[must_use]
pub fn u64_from_usize(x: usize) -> u64 {
    u64::try_from(x).unwrap_or(u64::MAX)
}

/// `u64` → `usize`, saturating on 32-bit targets.
#[inline]
#[must_use]
pub fn usize_from_u64(x: u64) -> usize {
    usize::try_from(x).unwrap_or(usize::MAX)
}

/// `usize` → `u32`, saturating at `u32::MAX` — callers that assert tighter
/// bounds (register indices, tile widths) still get a deterministic value
/// instead of a wrapped one if the assertion is ever relaxed.
#[inline]
#[must_use]
pub fn u32_from_usize(x: usize) -> u32 {
    u32::try_from(x).unwrap_or(u32::MAX)
}

/// `u32` → `usize`, lossless on every target with at least 32-bit pointers.
#[inline]
#[must_use]
pub fn usize_from_u32(x: u32) -> usize {
    usize::try_from(x).unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_to_f64_is_exact_in_range() {
        assert_eq!(u64_to_f64(0), 0.0);
        assert_eq!(u64_to_f64(F64_EXACT_MAX), 9_007_199_254_740_992.0);
        assert_eq!(usize_to_f64(123_456), 123_456.0);
    }

    #[test]
    fn f64_to_int_saturates_and_absorbs_nan() {
        assert_eq!(f64_to_u64(-1.5), 0);
        assert_eq!(f64_to_u64(f64::NAN), 0);
        assert_eq!(f64_to_u64(f64::INFINITY), u64::MAX);
        assert_eq!(f64_to_u64(1e300), u64::MAX);
        assert_eq!(f64_to_u64(42.9), 42);
        assert_eq!(f64_to_u64_round(42.5), 43);
        assert_eq!(f64_to_usize(7.2), 7);
        assert_eq!(f64_to_usize(f64::NAN), 0);
    }

    #[test]
    fn usize_u64_round_trip() {
        assert_eq!(u64_from_usize(usize::MAX) as u128, usize::MAX as u128);
        assert_eq!(usize_from_u64(17), 17);
        assert_eq!(usize_from_u64(u64::MAX), usize::MAX);
    }

    #[test]
    fn usize_u32_conversions_saturate() {
        assert_eq!(u32_from_usize(99), 99);
        assert_eq!(u32_from_usize(usize::MAX), u32::MAX);
        assert_eq!(usize_from_u32(u32::MAX), u32::MAX as usize);
    }
}
