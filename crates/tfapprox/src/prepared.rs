//! The prepared-execution plan: layer-invariant quantization done once.
//!
//! Every backend needs the same filter-side artifacts on every forward
//! call — the per-channel `(α₂, β₂)` parameters, the quantized filter
//! bank (as logical integers for the direct path and as byte patterns for
//! the LUT-indexed GEMMs), and the per-channel column sums `Sf` of the
//! Eq. 4 correction. None of it depends on the input batch, yet the
//! pre-refactor backends recomputed all of it per call (and `run_gpusim`
//! even re-quantized per *chunk*). [`PreparedFilter`] hoists that work
//! into a plan built once per layer: [`crate::AxConv2D`] and
//! [`crate::AxDense`] build it lazily on first forward and reuse it for
//! every subsequent call, so repeated inference performs filter
//! quantization exactly once.

use axquant::{FilterQuantization, QuantParams};
use axtensor::{Filter, Matrix};
use gpusim::EventCounts;

/// Everything about a filter bank that is invariant across forward calls.
///
/// Layout invariant: all flat buffers are `K × c_out` row-major (`K` the
/// patch length), matching both the HWCF flat order of [`Filter`] and the
/// `[in, out]` row-major weights of a dense layer — column `c` is output
/// channel `c`, i.e. flat index `i` belongs to channel `i % c_out`.
#[derive(Debug, Clone)]
pub struct PreparedFilter {
    k: usize,
    c_out: usize,
    /// Per-output-channel quantization parameters (per-tensor sets are
    /// broadcast so backends never branch on the quantization flavour).
    col_q: Vec<QuantParams>,
    /// Logical quantized values, `K × c_out` row-major — the operand
    /// format of the nested-loop (ALWANN-style) backends.
    q_logical: Vec<i32>,
    /// 8-bit byte patterns (two's complement for signed LUTs), `K × c_out`
    /// row-major — the operand format of the simulated-GPU GEMM.
    f_bytes: Vec<u8>,
    /// The same bytes transposed to `c_out × K` (one contiguous run per
    /// output channel) — the operand format of the host GEMM's inner loop,
    /// where a per-channel dot product walks the whole patch.
    f_bytes_by_channel: Vec<u8>,
    /// Per-output-channel logical sums `Sf` of the Eq. 4 correction.
    sf: Vec<i64>,
}

impl PreparedFilter {
    /// Prepare a convolution filter bank under the given quantization.
    #[must_use]
    pub fn from_filter(filter: &Filter, quant: &FilterQuantization) -> Self {
        Self::from_matrix(filter.to_matrix(), quant)
    }

    /// Prepare a `K × c_out` weight matrix (the dense-layer and raw-GEMM
    /// entry point).
    ///
    /// # Panics
    ///
    /// Panics if a per-channel quantization set does not cover exactly
    /// `fmat.cols()` channels.
    #[must_use]
    pub fn from_matrix(fmat: Matrix<f32>, quant: &FilterQuantization) -> Self {
        let k = fmat.rows();
        let c_out = fmat.cols();
        let col_q = quant.resolve(c_out);
        let mut q_logical = vec![0i32; k * c_out];
        let mut f_bytes = vec![0u8; k * c_out];
        let mut f_bytes_by_channel = vec![0u8; k * c_out];
        let mut sf = vec![0i64; c_out];
        for r in 0..k {
            for c in 0..c_out {
                let q = col_q[c].quantize(fmat.at(r, c));
                q_logical[r * c_out + c] = q;
                let byte = (q & 0xFF) as u8;
                f_bytes[r * c_out + c] = byte;
                f_bytes_by_channel[c * k + r] = byte;
                sf[c] += i64::from(q);
            }
        }
        // The f32 matrix itself is deliberately not retained: every
        // backend consumes the quantized forms above, so storing it would
        // only duplicate the layer's weights.
        PreparedFilter {
            k,
            c_out,
            col_q,
            q_logical,
            f_bytes,
            f_bytes_by_channel,
            sf,
        }
    }

    /// Patch length `K` (rows of the filter matrix).
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output channel count (columns of the filter matrix).
    #[must_use]
    pub fn c_out(&self) -> usize {
        self.c_out
    }

    /// Per-output-channel quantization parameters.
    #[must_use]
    pub fn col_q(&self) -> &[QuantParams] {
        &self.col_q
    }

    /// Logical quantized filter values, `K × c_out` row-major (HWCF flat
    /// order: index with [`axtensor::FilterShape::index`]).
    #[must_use]
    pub fn q_logical(&self) -> &[i32] {
        &self.q_logical
    }

    /// Quantized byte patterns, `K × c_out` row-major.
    #[must_use]
    pub fn f_bytes(&self) -> &[u8] {
        &self.f_bytes
    }

    /// The contiguous quantized bytes of one output channel's filter.
    ///
    /// # Panics
    ///
    /// Panics if `c >= c_out`.
    #[inline]
    #[must_use]
    pub fn channel_bytes(&self, c: usize) -> &[u8] {
        &self.f_bytes_by_channel[c * self.k..(c + 1) * self.k]
    }

    /// Per-output-channel logical sums `Sf`.
    #[must_use]
    pub fn sf(&self) -> &[i64] {
        &self.sf
    }

    /// The modeled device work of quantizing this filter bank once — what
    /// the simulated-GPU backend charges at preparation time instead of
    /// per chunk (one quantize chain and one 4-byte weight read per tap).
    #[must_use]
    pub fn quant_events(&self) -> EventCounts {
        let taps = (self.k * self.c_out) as u64;
        let mut ev = EventCounts::new();
        ev.quant_ops = taps;
        ev.global_read_bytes = taps * 4;
        ev
    }

    /// Precompute the Eq. 4 epilogue constants for a *segmented* GEMM:
    /// one set per `(segment, channel)` pair, resolved once so the fused
    /// kernel's per-element epilogue is a table lookup rather than a
    /// per-element re-derivation.
    ///
    /// For segment `s` (input params `(α₁ₛ, β₁ₛ)`) and channel `c`
    /// (filter params `(α₂_c, β₂_c)`, correction sum `Sf_c`), this holds
    /// the input-side correction `K·β₁ₛ·β₂_c − β₁ₛ·Sf_c` and the
    /// dequantization scale `α₁ₛ·α₂_c`. The correction is an exact
    /// regrouping of the reference epilogue's `i64` terms and the scale
    /// is the same `f64` product in the same order, so
    /// [`SegmentEpilogue::dequantize`] is bit-identical to the
    /// unsegmented epilogue fed that segment's params alone.
    #[must_use]
    pub fn segment_epilogue(&self, seg_q: &[QuantParams]) -> SegmentEpilogue {
        let c_out = self.c_out;
        let k = self.k as i64;
        let b2: Vec<i64> = self
            .col_q
            .iter()
            .map(|q| i64::from(q.zero_point()))
            .collect();
        let mut corr = Vec::with_capacity(seg_q.len() * c_out);
        let mut scale = Vec::with_capacity(seg_q.len() * c_out);
        for q1 in seg_q {
            let b1 = i64::from(q1.zero_point());
            let a1 = f64::from(q1.scale());
            for (&b2_c, (&sf_c, col)) in b2.iter().zip(self.sf.iter().zip(&self.col_q)) {
                corr.push(k * b1 * b2_c - b1 * sf_c);
                scale.push(a1 * f64::from(col.scale()));
            }
        }
        SegmentEpilogue {
            c_out,
            b2,
            corr,
            scale,
        }
    }
}

/// Precomputed per-`(segment, channel)` Eq. 4 constants — the fused
/// kernel's dequantization epilogue (see
/// [`PreparedFilter::segment_epilogue`]).
#[derive(Debug, Clone)]
pub struct SegmentEpilogue {
    c_out: usize,
    /// Per-channel filter zero-point `β₂` (segment-invariant).
    b2: Vec<i64>,
    /// Per `(segment, channel)`: `K·β₁ₛ·β₂_c − β₁ₛ·Sf_c`, row-major by
    /// segment.
    corr: Vec<i64>,
    /// Per `(segment, channel)`: `α₁ₛ·α₂_c`.
    scale: Vec<f64>,
}

impl SegmentEpilogue {
    /// Segments covered.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.corr.len().checked_div(self.c_out).unwrap_or(0)
    }

    /// Apply the Eq. 4 correction and dequantize one raw accumulator of
    /// segment `s`, channel `c`, with per-row patch sum `sp`:
    /// `α₁ₛα₂_c · (acc − β₂_c·sp + corr[s][c])`. Bit-identical to the
    /// unsegmented epilogue under that segment's input params (`i64`
    /// additions regroup exactly; the `f64` multiply order is preserved).
    ///
    /// # Panics
    ///
    /// Panics (slice bounds) if `s` or `c` is out of range.
    #[inline]
    #[must_use]
    pub fn dequantize(&self, s: usize, c: usize, acc: i64, sp: i64) -> f32 {
        let idx = s * self.c_out + c;
        let corrected = acc - self.b2[c] * sp + self.corr[idx];
        (self.scale[idx] * corrected as f64) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axquant::{QuantRange, RoundMode};
    use axtensor::{rng, FilterShape};

    fn per_tensor() -> FilterQuantization {
        QuantParams::from_range(-0.5, 0.5, QuantRange::i8(), RoundMode::NearestEven).into()
    }

    #[test]
    fn matches_direct_quantization() {
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 4), 3, -0.5, 0.5);
        let fq = per_tensor();
        let plan = PreparedFilter::from_filter(&filter, &fq);
        assert_eq!(plan.k(), 18);
        assert_eq!(plan.c_out(), 4);
        let q = fq.for_channel(0);
        for (i, &w) in filter.as_slice().iter().enumerate() {
            assert_eq!(plan.q_logical()[i], q.quantize(w), "tap {i}");
            assert_eq!(plan.f_bytes()[i], (q.quantize(w) & 0xFF) as u8);
        }
    }

    #[test]
    fn channel_bytes_are_transposed_columns() {
        let filter = rng::uniform_filter(FilterShape::new(2, 2, 3, 5), 7, -0.5, 0.5);
        let plan = PreparedFilter::from_filter(&filter, &per_tensor());
        for c in 0..plan.c_out() {
            let col = plan.channel_bytes(c);
            assert_eq!(col.len(), plan.k());
            for (r, &b) in col.iter().enumerate() {
                assert_eq!(b, plan.f_bytes()[r * plan.c_out() + c]);
            }
        }
    }

    #[test]
    fn sf_sums_columns() {
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 1, 2), 9, -0.5, 0.5);
        let plan = PreparedFilter::from_filter(&filter, &per_tensor());
        for c in 0..2 {
            let expect: i64 = (0..plan.k())
                .map(|r| i64::from(plan.q_logical()[r * 2 + c]))
                .sum();
            assert_eq!(plan.sf()[c], expect);
        }
    }

    #[test]
    fn quant_events_cover_every_tap() {
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 4), 11, -0.5, 0.5);
        let plan = PreparedFilter::from_filter(&filter, &per_tensor());
        let ev = plan.quant_events();
        assert_eq!(ev.quant_ops, 18 * 4);
        assert_eq!(ev.global_read_bytes, 18 * 4 * 4);
    }
}
