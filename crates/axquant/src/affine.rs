//! The `(scale, zero_point)` pair and its computation from a value range.

use crate::round::ROUND_WINDOW;
use crate::RoundMode;
use serde::{Deserialize, Serialize};

/// The integer range quantized values live in.
///
/// The paper: "expected range of the quantized values (\[-128, 127\] for
/// signed, \[0, 255\] for unsigned multipliers)".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QuantRange {
    qmin: i32,
    qmax: i32,
}

impl QuantRange {
    /// Signed 8-bit range `[-128, 127]`.
    #[must_use]
    pub fn i8() -> Self {
        QuantRange {
            qmin: -128,
            qmax: 127,
        }
    }

    /// Unsigned 8-bit range `[0, 255]`.
    #[must_use]
    pub fn u8() -> Self {
        QuantRange { qmin: 0, qmax: 255 }
    }

    /// An arbitrary custom range (e.g. for reduced-width studies).
    ///
    /// # Panics
    ///
    /// Panics unless `qmin < qmax`, the range contains 0, and it is at
    /// most `2²²` steps wide (the rounding window of
    /// [`crate::RoundMode::round`], which keeps
    /// [`QuantParams::quantize`] exact and overflow-free).
    #[must_use]
    pub fn custom(qmin: i32, qmax: i32) -> Self {
        assert!(qmin < qmax, "empty quantized range");
        assert!(
            qmin <= 0 && 0 <= qmax,
            "range must contain 0 for an exact zero-point"
        );
        assert!(
            f64::from(qmax) - f64::from(qmin) <= f64::from(ROUND_WINDOW),
            "quantized range wider than 2^22 steps"
        );
        QuantRange { qmin, qmax }
    }

    /// Smallest representable integer.
    #[must_use]
    pub fn qmin(&self) -> i32 {
        self.qmin
    }

    /// Largest representable integer.
    #[must_use]
    pub fn qmax(&self) -> i32 {
        self.qmax
    }

    /// Number of quantization steps (`qmax − qmin`).
    #[must_use]
    pub fn steps(&self) -> i32 {
        self.qmax - self.qmin
    }
}

impl Default for QuantRange {
    fn default() -> Self {
        QuantRange::i8()
    }
}

/// Affine quantization parameters: `r = scale · (i − zero_point)`.
///
/// Constructed from a real value range via [`QuantParams::from_range`] —
/// the paper's `ComputeCoeffs(range)` — which guarantees real 0 maps to an
/// exact integer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    scale: f32,
    zero_point: i32,
    range: QuantRange,
    round: RoundMode,
}

impl QuantParams {
    /// Compute `(α, β)` from the observed real range `[min, max]`
    /// (Algorithm 1's `ComputeCoeffs`).
    ///
    /// The range is first widened to include 0 (so zero is exactly
    /// representable); a degenerate range collapses to scale 1. The
    /// zero-point is the integer nearest to `qmin − min/α`, clamped into
    /// the quantized range.
    #[must_use]
    pub fn from_range(min: f32, max: f32, range: QuantRange, round: RoundMode) -> Self {
        // Widen to include zero.
        let min = min.min(0.0);
        let max = max.max(0.0);
        let span = max - min;
        let scale = if span > 0.0 {
            span / range.steps() as f32
        } else {
            1.0
        };
        // Choose β so that real min maps near qmin; then 0 maps to β exactly.
        let zp_real = range.qmin() as f32 - min / scale;
        let zero_point = (zp_real.round() as i32).clamp(range.qmin(), range.qmax());
        QuantParams {
            scale,
            zero_point,
            range,
            round,
        }
    }

    /// Construct directly from known `(α, β)` (e.g. loaded from a model).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive or the zero-point lies
    /// outside the quantized range.
    #[must_use]
    pub fn from_parts(scale: f32, zero_point: i32, range: QuantRange, round: RoundMode) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        assert!(
            (range.qmin()..=range.qmax()).contains(&zero_point),
            "zero-point outside quantized range"
        );
        QuantParams {
            scale,
            zero_point,
            range,
            round,
        }
    }

    /// The scale `α`.
    #[must_use]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The zero-point `β`.
    #[must_use]
    pub fn zero_point(&self) -> i32 {
        self.zero_point
    }

    /// The quantized integer range.
    #[must_use]
    pub fn range(&self) -> QuantRange {
        self.range
    }

    /// The rounding mode used by [`QuantParams::quantize`].
    #[must_use]
    pub fn round_mode(&self) -> RoundMode {
        self.round
    }

    /// Quantize a real value: `i = clamp(round(r/α) + β)`.
    ///
    /// [`RoundMode::round`] clamps `r/α` into its `±2²²` window before
    /// rounding. A quantized range is at most `2²²` steps wide and
    /// contains `β`, so any `r/α` beyond the window clamps to the range
    /// end anyway: the result equals the formula evaluated in unbounded
    /// integers for every input (`±inf` included; NaN quantizes to `β`,
    /// like 0), and `round(r/α) + β` cannot overflow. Branch-free;
    /// [`QuantParams::quantize_into`] runs it as a vectorized slice loop.
    #[inline]
    #[must_use]
    pub fn quantize(&self, r: f32) -> i32 {
        self.quantize_under(self.round, r)
    }

    #[inline(always)]
    fn quantize_under(&self, mode: RoundMode, r: f32) -> i32 {
        let q = mode.round(r / self.scale) + self.zero_point;
        q.clamp(self.range.qmin(), self.range.qmax())
    }

    /// Dequantize an integer: `r = α · (i − β)` (Eq. 1).
    #[inline]
    #[must_use]
    pub fn dequantize(&self, i: i32) -> f32 {
        self.scale * (i - self.zero_point) as f32
    }

    /// Resolve one `(α, β)` pair per segment from per-segment bounds —
    /// the segmented form of `ComputeCoeffs`, paired with
    /// [`crate::range::segment_bounds`]. Each pair is exactly
    /// [`QuantParams::from_range`] of that segment's bounds, so a fused
    /// batch quantizes every segment precisely as a solo run would.
    ///
    /// Bounds must be finite (an all-empty segment's `(0.0, 0.0)` is
    /// fine); callers validate NaN ranges *before* resolving params, as
    /// the solo path does.
    #[must_use]
    pub fn for_segments(
        bounds: &[(f32, f32)],
        range: QuantRange,
        round: RoundMode,
    ) -> Vec<QuantParams> {
        bounds
            .iter()
            .map(|&(lo, hi)| QuantParams::from_range(lo, hi, range, round))
            .collect()
    }

    /// Quantize a slice into logical integer values: `out[i]` is
    /// [`QuantParams::quantize`] of `xs[i]`. The round mode is resolved
    /// once, outside the loop, so the loop body is branch-free and
    /// vectorizes.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn quantize_into(&self, xs: &[f32], out: &mut [i32]) {
        assert_eq!(xs.len(), out.len(), "one output per input");
        macro_rules! under {
            ($mode:expr) => {
                for (slot, &x) in out.iter_mut().zip(xs) {
                    *slot = self.quantize_under($mode, x);
                }
            };
        }
        match self.round {
            RoundMode::NearestEven => under!(RoundMode::NearestEven),
            RoundMode::NearestAway => under!(RoundMode::NearestAway),
            RoundMode::Floor => under!(RoundMode::Floor),
            RoundMode::Ceil => under!(RoundMode::Ceil),
            RoundMode::TowardZero => under!(RoundMode::TowardZero),
        }
    }

    /// Quantize a slice directly to 8-bit byte patterns (two's-complement
    /// for signed ranges) — the format the LUT-indexed GEMM consumes.
    #[must_use]
    pub fn quantize_slice_to_bytes(&self, xs: &[f32]) -> Vec<u8> {
        xs.iter()
            .map(|&x| (self.quantize(x) & 0xFF) as u8)
            .collect()
    }
}

impl Default for QuantParams {
    fn default() -> Self {
        QuantParams::from_range(-1.0, 1.0, QuantRange::default(), RoundMode::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_exactly_representable() {
        for (lo, hi) in [(-1.0f32, 1.0f32), (0.1, 2.0), (-5.0, -0.2), (0.0, 0.0)] {
            for range in [QuantRange::i8(), QuantRange::u8()] {
                let p = QuantParams::from_range(lo, hi, range, RoundMode::NearestEven);
                let q0 = p.quantize(0.0);
                assert_eq!(p.dequantize(q0), 0.0, "range [{lo}, {hi}] {range:?}");
            }
        }
    }

    #[test]
    fn roundtrip_error_bounded_by_scale() {
        let p = QuantParams::from_range(-3.0, 5.0, QuantRange::i8(), RoundMode::NearestEven);
        for i in 0..=100 {
            let r = -3.0 + 8.0 * (i as f32) / 100.0;
            let back = p.dequantize(p.quantize(r));
            assert!(
                (back - r).abs() <= 0.5 * p.scale() + 1e-6,
                "r={r} back={back} scale={}",
                p.scale()
            );
        }
    }

    #[test]
    fn extremes_map_inside_range() {
        let p = QuantParams::from_range(-1.0, 1.0, QuantRange::i8(), RoundMode::NearestEven);
        assert!(p.quantize(-1.0) >= -128);
        assert!(p.quantize(1.0) <= 127);
        // Out-of-range reals clamp.
        assert_eq!(p.quantize(1e6), 127);
        assert_eq!(p.quantize(-1e6), -128);
    }

    #[test]
    fn unsigned_range_for_nonnegative_data() {
        let p = QuantParams::from_range(0.0, 4.0, QuantRange::u8(), RoundMode::NearestEven);
        assert_eq!(p.zero_point(), 0);
        assert_eq!(p.quantize(4.0), 255);
        // 2 / (4/255) ≈ 127.5; either neighbour is acceptable in f32.
        let mid = p.quantize(2.0);
        assert!(mid == 127 || mid == 128, "got {mid}");
    }

    #[test]
    fn degenerate_range_uses_unit_scale() {
        let p = QuantParams::from_range(0.0, 0.0, QuantRange::i8(), RoundMode::NearestEven);
        assert_eq!(p.scale(), 1.0);
        assert_eq!(p.quantize(0.0), p.zero_point());
    }

    #[test]
    fn range_not_containing_zero_is_widened() {
        // All-positive data still gets an exact zero.
        let p = QuantParams::from_range(2.0, 6.0, QuantRange::i8(), RoundMode::NearestEven);
        assert_eq!(p.dequantize(p.quantize(0.0)), 0.0);
        // And the top of the range is still representable reasonably.
        let back = p.dequantize(p.quantize(6.0));
        assert!((back - 6.0).abs() <= p.scale());
    }

    #[test]
    fn bytes_encoding_two_complement() {
        let p = QuantParams::from_range(-1.0, 1.0, QuantRange::i8(), RoundMode::NearestEven);
        let bytes = p.quantize_slice_to_bytes(&[-1.0, 0.0, 1.0]);
        assert_eq!(bytes.len(), 3);
        assert_eq!(bytes[1], (p.zero_point() & 0xFF) as u8);
        assert_eq!(bytes[0] as i8 as i32, p.quantize(-1.0));
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn from_parts_validates_scale() {
        let _ = QuantParams::from_parts(0.0, 0, QuantRange::i8(), RoundMode::NearestEven);
    }

    #[test]
    #[should_panic(expected = "range must contain 0")]
    fn custom_range_must_contain_zero() {
        let _ = QuantRange::custom(1, 10);
    }

    #[test]
    fn custom_range_steps() {
        let r = QuantRange::custom(-8, 7);
        assert_eq!(r.steps(), 15);
    }

    /// The per-mode rounding from before the rounding window, widened to
    /// `i64` (saturating only beyond `±2⁶³`).
    fn old_round(p: &QuantParams, r: f32) -> i64 {
        let x = r / p.scale();
        match p.round_mode() {
            RoundMode::NearestEven => {
                if (x - x.trunc()).abs() == 0.5 {
                    let down = x.floor();
                    if (down as i64) % 2 == 0 {
                        down as i64
                    } else {
                        x.ceil() as i64
                    }
                } else {
                    x.round() as i64
                }
            }
            RoundMode::NearestAway => x.round() as i64,
            RoundMode::Floor => x.floor() as i64,
            RoundMode::Ceil => x.ceil() as i64,
            RoundMode::TowardZero => x.trunc() as i64,
        }
    }

    /// The quantizer before the rounding window, computed in `i64` so
    /// that adding the zero-point cannot wrap: the exact formula
    /// `clamp(round(r/α) + β)` for every input.
    fn oracle(p: &QuantParams, r: f32) -> i32 {
        let (lo, hi) = (p.range().qmin(), p.range().qmax());
        old_round(p, r)
            .saturating_add(i64::from(p.zero_point()))
            .clamp(i64::from(lo), i64::from(hi)) as i32
    }

    const MODES: [RoundMode; 5] = [
        RoundMode::NearestEven,
        RoundMode::NearestAway,
        RoundMode::Floor,
        RoundMode::Ceil,
        RoundMode::TowardZero,
    ];

    /// i8 and u8 parameter sets: observed ranges (zero-point at either
    /// end and inside) and explicit parts, including power-of-two scales
    /// under which `r/α` hits every tie exactly, and scales tiny or huge
    /// enough that ordinary inputs leave the rounding window.
    fn param_sets() -> Vec<QuantParams> {
        let mut sets = Vec::new();
        for mode in MODES {
            for (lo, hi, range) in [
                (-1.0f32, 1.0f32, QuantRange::i8()),
                (-1.0, 0.0, QuantRange::i8()),
                (0.0, 3.0, QuantRange::i8()),
                (0.0, 4.0, QuantRange::u8()),
                (-3.0, 5.0, QuantRange::u8()),
                (-0.1, 0.0, QuantRange::u8()),
            ] {
                sets.push(QuantParams::from_range(lo, hi, range, mode));
            }
            for (scale, zp, range) in [
                (1.0f32, 0, QuantRange::i8()),
                (0.25, -5, QuantRange::i8()),
                (0.5, 127, QuantRange::i8()),
                (2.0, 200, QuantRange::u8()),
                (0.37, 3, QuantRange::u8()),
                (1e-30, -128, QuantRange::i8()),
                (1e30, 255, QuantRange::u8()),
            ] {
                sets.push(QuantParams::from_parts(scale, zp, range, mode));
            }
        }
        sets
    }

    fn assert_matches_oracle(p: &QuantParams, r: f32) {
        assert_eq!(
            p.quantize(r),
            oracle(p, r),
            "r = {r:e} ({:#010x}) under {p:?}",
            r.to_bits()
        );
    }

    /// Step `ulps` representable f32s away from `r` (across zero too).
    fn ulp_step(r: f32, ulps: i32) -> f32 {
        // Map the bit patterns onto one monotone integer line.
        let bits = r.to_bits() as i32;
        let line = if bits < 0 { i32::MIN - bits } else { bits };
        let moved = line.saturating_add(ulps);
        f32::from_bits((if moved < 0 { i32::MIN - moved } else { moved }) as u32)
    }

    #[test]
    fn quantize_matches_oracle_around_every_tie() {
        for p in param_sets() {
            let (lo, hi) = (p.range().qmin(), p.range().qmax());
            // Every half-integer `k + 0.5` of the quantized window in
            // `r/α` units, one step past each end included.
            for k in (lo - p.zero_point() - 1)..=(hi - p.zero_point()) {
                let tie = (k as f32 + 0.5) * p.scale();
                for ulps in -64..=64 {
                    assert_matches_oracle(&p, ulp_step(tie, ulps));
                }
            }
        }
    }

    #[test]
    fn quantize_matches_oracle_on_special_values() {
        let mut specials = vec![
            0.0f32,
            f32::from_bits(1),
            f32::from_bits(0x007F_FFFF),
            f32::MIN_POSITIVE,
            f32::EPSILON,
            0.5,
            1.0,
            4_194_303.5,
            4_194_304.0,
            4_194_304.5,
            8_388_608.0,
            2_147_483_648.0,
            1e9,
            1e30,
            f32::MAX,
            f32::INFINITY,
        ];
        specials.extend(specials.clone().iter().map(|v| -v));
        specials.push(f32::NAN);
        specials.push(-f32::NAN);
        for p in param_sets() {
            for &r in &specials {
                assert_matches_oracle(&p, r);
            }
            assert_eq!(p.quantize(f32::NAN), p.zero_point(), "{p:?}");
            assert_eq!(p.quantize(f32::INFINITY), p.range().qmax(), "{p:?}");
            assert_eq!(p.quantize(f32::NEG_INFINITY), p.range().qmin(), "{p:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn quantize_matches_oracle_on_random_bit_patterns(bits in 0u32..u32::MAX) {
            let r = f32::from_bits(bits);
            for p in param_sets() {
                assert_matches_oracle(&p, r);
            }
        }
    }

    #[test]
    fn huge_quotients_clamp_instead_of_wrapping() {
        // zero-point 127: before the rounding window, `round(1e9)`
        // saturated to i32::MAX and `+ 127` wrapped to −128 in release
        // (and panicked in debug).
        let p = QuantParams::from_range(-1.0, 0.0, QuantRange::i8(), RoundMode::NearestEven);
        assert_eq!(p.zero_point(), 127);
        assert_eq!(p.quantize(1e9), 127);
        assert_eq!(p.quantize(f32::MAX), 127);
        assert_eq!(p.quantize(-1e9), -128);
        let u = QuantParams::from_range(-0.1, 0.0, QuantRange::u8(), RoundMode::NearestEven);
        assert_eq!(u.zero_point(), 255);
        assert_eq!(u.quantize(1e10), 255);
        assert_eq!(u.quantize(-1e10), 0);
    }

    /// Every f32 bit pattern through three parameter sets, against the
    /// oracle — about a minute per set on two cores in release, so run on
    /// demand:
    /// `cargo test --release -p axquant -- --ignored --nocapture`.
    /// Prints, per set, how many inputs the pre-window i32 formula got
    /// wrong (its `+ β` overflowed) next to the mismatches of
    /// [`QuantParams::quantize`], which must be 0.
    #[test]
    #[ignore = "exhaustive 2^32 scan; run on demand in release"]
    fn quantize_matches_oracle_on_every_bit_pattern() {
        let sets = [
            QuantParams::from_range(-1.0, 0.0, QuantRange::i8(), RoundMode::NearestEven),
            QuantParams::from_range(-1.0, 1.0, QuantRange::i8(), RoundMode::NearestEven),
            QuantParams::from_range(-0.1, 0.0, QuantRange::u8(), RoundMode::NearestEven),
        ];
        for p in sets {
            let scan = |hi_bits: std::ops::Range<u32>| {
                let (mut mismatches, mut wrapped) = (0u64, 0u64);
                for hi in hi_bits {
                    for lo in 0..=u16::MAX as u32 {
                        let r = f32::from_bits(hi << 16 | lo);
                        let expect = oracle(&p, r);
                        mismatches += u64::from(p.quantize(r) != expect);
                        // The pre-window formula: saturate to i32, then
                        // add β (wrapping, as a release build did).
                        let k = old_round(&p, r).clamp(i64::from(i32::MIN), i64::from(i32::MAX));
                        let old = (k as i32)
                            .wrapping_add(p.zero_point())
                            .clamp(p.range().qmin(), p.range().qmax());
                        wrapped += u64::from(old != expect);
                    }
                }
                (mismatches, wrapped)
            };
            let (a, b) = std::thread::scope(|s| {
                let first = s.spawn(|| scan(0..0x8000));
                let second = scan(0x8000..0x1_0000);
                let first = first.join().expect("scan thread");
                (first.0 + second.0, first.1 + second.1)
            });
            println!(
                "{p:?}: 2^32 inputs, {a} mismatches, {b} inputs wrong under the old i32 formula"
            );
            assert_eq!(a, 0, "{p:?}");
        }
    }

    #[test]
    #[should_panic(expected = "wider than 2^22 steps")]
    fn custom_range_is_bounded_by_the_rounding_window() {
        let _ = QuantRange::custom(0, i32::MAX);
    }

    #[test]
    fn for_segments_is_from_range_per_segment() {
        let bounds = [(-1.0f32, 3.0f32), (0.0, 0.0), (-5.0, -0.2)];
        let ps = QuantParams::for_segments(&bounds, QuantRange::i8(), RoundMode::NearestEven);
        assert_eq!(ps.len(), bounds.len());
        for (p, &(lo, hi)) in ps.iter().zip(&bounds) {
            assert_eq!(
                *p,
                QuantParams::from_range(lo, hi, QuantRange::i8(), RoundMode::NearestEven)
            );
        }
    }
}
