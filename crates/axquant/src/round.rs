//! Rounding modes applied during quantization.

use serde::{Deserialize, Serialize};

/// How a real quotient is rounded to an integer during quantization.
///
/// The paper lists the "requested round mode" among the extra inputs of the
/// approximate convolutional layer; hardware quantizers commonly implement
/// one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum RoundMode {
    /// Round half to even (IEEE default; TensorFlow's choice).
    #[default]
    NearestEven,
    /// Round half away from zero (classic `round()`).
    NearestAway,
    /// Round toward negative infinity.
    Floor,
    /// Round toward positive infinity.
    Ceil,
    /// Round toward zero (truncation).
    TowardZero,
}

/// Half-width of the rounding window: [`RoundMode::round`] first clamps
/// its argument to `±2²²`.
///
/// Adding `1.5·2²³` to an f32 of magnitude at most `2²²` lands in
/// `[2²³, 2²⁴]`, where the f32 spacing is exactly 1. That addition is
/// therefore one correctly rounded (half-to-even) step to an integer, and
/// the sum's bit pattern counts integers from `1.5·2²³` on. So
/// round-half-even is an add and an integer subtract — no out-of-line
/// `roundf` call, no tie branch, no float-to-int conversion — and the
/// other modes are that result corrected by one comparison. The window
/// is also narrow enough that the rounded value plus the zero-point of
/// any [`crate::QuantRange`] (at most `2²²` steps wide) stays far inside
/// `i32`.
pub const ROUND_WINDOW: f32 = 4_194_304.0;

/// `1.5·2²³`: adding it to any `|x| ≤ 2²²` rounds `x` to the nearest
/// integer, ties to even, under the default IEEE rounding.
const ROUND_MAGIC: f32 = 12_582_912.0;

impl RoundMode {
    /// Round a real value to an integer under this mode.
    ///
    /// `x` is clamped to `±`[`ROUND_WINDOW`] first, so values beyond
    /// `2²²` in magnitude saturate there; NaN rounds to 0. Inside the
    /// window the result is exact for every mode, and every mode is
    /// branch-free, so a loop over a slice vectorizes. Because each mode
    /// is monotone and fixes integers, clamping before rounding equals
    /// rounding before clamping for any integer bounds — which is why
    /// [`crate::QuantParams::quantize`] may clamp to its quantized range
    /// afterwards and still match the unwindowed formula exactly.
    #[inline(always)]
    #[must_use]
    pub fn round(self, x: f32) -> i32 {
        let x = if x.is_nan() {
            0.0
        } else {
            x.clamp(-ROUND_WINDOW, ROUND_WINDOW)
        };
        let shifted = x + ROUND_MAGIC;
        let nearest = shifted.to_bits() as i32 - ROUND_MAGIC.to_bits() as i32;
        // Exact: `x` and its nearest integer are within 0.5 of each other
        // and share `x`'s (at most unit) spacing.
        let diff = x - (shifted - ROUND_MAGIC);
        let (above, below) = (diff > 0.0, diff < 0.0);
        let (positive, negative) = (x > 0.0, x < 0.0);
        match self {
            RoundMode::NearestEven => nearest,
            RoundMode::NearestAway => {
                nearest + i32::from((diff == 0.5) & positive) - i32::from((diff == -0.5) & negative)
            }
            RoundMode::Floor => nearest - i32::from(below),
            RoundMode::Ceil => nearest + i32::from(above),
            RoundMode::TowardZero => {
                nearest - i32::from(below & positive) + i32::from(above & negative)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_even_ties() {
        let m = RoundMode::NearestEven;
        assert_eq!(m.round(0.5), 0);
        assert_eq!(m.round(1.5), 2);
        assert_eq!(m.round(2.5), 2);
        assert_eq!(m.round(-0.5), 0);
        assert_eq!(m.round(-1.5), -2);
        assert_eq!(m.round(1.2), 1);
        assert_eq!(m.round(1.8), 2);
    }

    #[test]
    fn nearest_away_ties() {
        let m = RoundMode::NearestAway;
        assert_eq!(m.round(0.5), 1);
        assert_eq!(m.round(-0.5), -1);
        assert_eq!(m.round(2.5), 3);
    }

    #[test]
    fn floor_ceil_trunc() {
        assert_eq!(RoundMode::Floor.round(1.9), 1);
        assert_eq!(RoundMode::Floor.round(-1.1), -2);
        assert_eq!(RoundMode::Ceil.round(1.1), 2);
        assert_eq!(RoundMode::Ceil.round(-1.9), -1);
        assert_eq!(RoundMode::TowardZero.round(1.9), 1);
        assert_eq!(RoundMode::TowardZero.round(-1.9), -1);
    }

    #[test]
    fn window_saturates_and_nan_rounds_to_zero() {
        for m in [
            RoundMode::NearestEven,
            RoundMode::NearestAway,
            RoundMode::Floor,
            RoundMode::Ceil,
            RoundMode::TowardZero,
        ] {
            assert_eq!(m.round(1e9), 1 << 22, "{m:?}");
            assert_eq!(m.round(f32::NEG_INFINITY), -(1 << 22), "{m:?}");
            assert_eq!(m.round(f32::NAN), 0, "{m:?}");
            assert_eq!(m.round(-0.0), 0, "{m:?}");
        }
        // Ties at the window's edge still round exactly.
        assert_eq!(RoundMode::NearestEven.round(4_194_302.5), 4_194_302);
        assert_eq!(RoundMode::NearestAway.round(-4_194_302.5), -4_194_303);
    }

    #[test]
    fn integers_unchanged_under_all_modes() {
        for m in [
            RoundMode::NearestEven,
            RoundMode::NearestAway,
            RoundMode::Floor,
            RoundMode::Ceil,
            RoundMode::TowardZero,
        ] {
            for v in [-3f32, -1.0, 0.0, 2.0, 7.0] {
                assert_eq!(m.round(v), v as i32, "{m:?} on {v}");
            }
        }
    }
}
