//! The approximate fully-connected layer.
//!
//! DNN accelerators route dense (fully-connected) layers through the same
//! integer MAC array as convolutions, so the same LUT emulation applies.
//! `AxDense` mirrors [`crate::AxConv2D`]'s algebra on a `[n, 1, 1, in]`
//! feature tensor: quantize per Eq. 1, multiply through the LUT,
//! dequantize with the Eq. 4 correction (a dense layer is the `K = in`,
//! one-patch-per-batch-row special case of the GEMM formulation).

use crate::prepared::PreparedFilter;
use crate::{backend, EmuContext, EmuError};
use axmult::{MulLut, Signedness};
use axnn::layer::{check_arity, Layer};
use axnn::NnError;
use axquant::{segment_bounds, QuantParams, QuantRange, RoundMode};
use axtensor::{ops, Matrix, SegmentTable, Shape4, Tensor};
use gpusim::{Phase, PhaseProfile};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Approximate dense layer: `[n, 1, 1, in] → [n, 1, 1, out]` with LUT
/// multiplications.
#[derive(Debug, Clone)]
pub struct AxDense {
    /// Row-major `[in, out]` weights.
    weights: Vec<f32>,
    bias: Vec<f32>,
    in_features: usize,
    out_features: usize,
    lut: MulLut,
    round: RoundMode,
    weight_range: (f32, f32),
    ctx: Arc<EmuContext>,
    /// The prepared weight plan (quantized weights + `Sf`), built lazily
    /// on first forward — a dense layer is the `K = in`, per-tensor
    /// special case of [`PreparedFilter`].
    plan: OnceLock<Arc<PreparedFilter>>,
}

impl AxDense {
    /// Create from row-major `[in, out]` weights and a bias of length
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer sizes are inconsistent.
    #[must_use]
    pub fn new(
        in_features: usize,
        out_features: usize,
        weights: Vec<f32>,
        bias: Vec<f32>,
        lut: MulLut,
        ctx: Arc<EmuContext>,
    ) -> Self {
        assert_eq!(weights.len(), in_features * out_features);
        assert_eq!(bias.len(), out_features);
        let weight_range = ops::min_max_slice(&weights);
        AxDense {
            weights,
            bias,
            in_features,
            out_features,
            lut,
            round: RoundMode::NearestEven,
            weight_range,
            ctx,
            plan: OnceLock::new(),
        }
    }

    /// Build the approximate variant of an accurate dense layer.
    #[must_use]
    pub fn from_dense(
        dense: &axnn::layers::Dense,
        mult: &axmult::AxMultiplier,
        ctx: Arc<EmuContext>,
    ) -> Self {
        AxDense::new(
            dense.in_features(),
            dense.out_features(),
            dense.weights().to_vec(),
            dense.bias().to_vec(),
            mult.lut().clone(),
            ctx,
        )
    }

    fn quant_range(&self) -> QuantRange {
        match self.lut.signedness() {
            Signedness::Signed => QuantRange::i8(),
            Signedness::Unsigned => QuantRange::u8(),
        }
    }

    fn weight_quant(&self) -> QuantParams {
        QuantParams::from_range(
            self.weight_range.0,
            self.weight_range.1,
            self.quant_range(),
            self.round,
        )
    }

    /// The cached prepared weight plan, building it if necessary. The
    /// second element carries the one-off build cost (`None` after the
    /// first call).
    fn plan(&self) -> (Arc<PreparedFilter>, Option<PhaseProfile>) {
        let mut built = None;
        let plan = self.plan.get_or_init(|| {
            let t0 = Instant::now();
            let wmat = Matrix::from_vec(self.in_features, self.out_features, self.weights.clone())
                .expect("weight buffer sized in constructor");
            let plan = PreparedFilter::from_matrix(wmat, &self.weight_quant().into());
            let mut profile = PhaseProfile::new();
            profile.add(Phase::Quantization, t0.elapsed().as_secs_f64());
            built = Some(profile);
            Arc::new(plan)
        });
        (Arc::clone(plan), built)
    }

    /// Whether the prepared weight plan has been built.
    #[must_use]
    pub fn is_prepared(&self) -> bool {
        self.plan.get().is_some()
    }

    /// Eagerly build the prepared weight plan (normally built lazily on
    /// the first forward), recording its one-off quantization cost into
    /// the context profile. Idempotent — the dense counterpart of
    /// [`crate::AxConv2D::prepare`], for callers that want lazy
    /// first-forward failures (e.g. non-finite weights) surfaced early.
    /// (The session graph transform only rewrites convolutions, so a
    /// hand-built `AxDense` must be prepared by its owner.)
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::Config`] if the weights are non-finite (the
    /// same guard the forward path enforces).
    pub fn prepare(&self) -> Result<(), EmuError> {
        if !self.weight_range.0.is_finite() || !self.weight_range.1.is_finite() {
            return Err(EmuError::Config(
                "dense weights contain non-finite values".to_owned(),
            ));
        }
        let (_, built) = self.plan();
        if let Some(profile) = built {
            self.ctx.record(&profile);
        }
        Ok(())
    }

    /// Run the approximate dense computation (ranges computed per batch)
    /// — the one-segment case of [`Self::compute_segmented`].
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::Config`] if the input feature count mismatches
    /// or the input contains non-finite values.
    pub fn compute(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, EmuError> {
        self.compute_segmented(input, &SegmentTable::single(input.shape().n))
    }

    /// Run the approximate dense computation over a (possibly fused
    /// multi-request) batch, resolving one input range per segment (a
    /// dense row is one image, so [`segment_bounds`] observes each
    /// request's rows exactly as a solo call would).
    ///
    /// Bit-identical to computing each segment alone and concatenating:
    /// every output row depends only on its own features and its
    /// segment's `(α₁, β₁)`. Zero rows compute (and charge) nothing — not
    /// even the one-off plan build — so zero-image runs report exactly
    /// like runs with no batches (see `AxConv2D`).
    ///
    /// # Errors
    ///
    /// Returns [`EmuError::Config`] if the input feature count mismatches,
    /// the weights are non-finite, any segment's input contains
    /// non-finite values, or the segment table does not cover exactly the
    /// batch.
    pub fn compute_segmented(
        &self,
        input: &Tensor<f32>,
        segments: &SegmentTable,
    ) -> Result<Tensor<f32>, EmuError> {
        let s = input.shape();
        if s.h * s.w * s.c != self.in_features {
            return Err(EmuError::Config(format!(
                "input features {} != {}",
                s.h * s.w * s.c,
                self.in_features
            )));
        }
        // `weight_range` comes from the NaN-propagating min/max scan: one
        // O(1) check rejects non-finite weights before they are baked
        // into a cached plan.
        if !self.weight_range.0.is_finite() || !self.weight_range.1.is_finite() {
            return Err(EmuError::Config(
                "dense weights contain non-finite values".to_owned(),
            ));
        }
        if segments.total() != s.n {
            return Err(EmuError::Config(format!(
                "segment table covers {} images but the fused batch holds {}",
                segments.total(),
                s.n
            )));
        }
        let bounds = segment_bounds(input.as_slice(), &segments.counts(), self.in_features);
        for &(lo, hi) in &bounds {
            backend::validate_range(lo, hi)?;
        }
        if s.n == 0 {
            return Ok(Tensor::zeros(Shape4::new(0, 1, 1, self.out_features)));
        }
        let seg_q = QuantParams::for_segments(&bounds, self.quant_range(), self.round);
        let weight_q = self.weight_quant();
        let (plan, built) = self.plan();

        let mut profile = PhaseProfile::new();
        if let Some(build_profile) = built {
            profile.merge(&build_profile);
        }
        // Per-row quantization under the owning segment's params.
        let t0 = Instant::now();
        let data = input.as_slice();
        let mut q_in = vec![0i32; data.len()];
        for (seg, (start, end)) in segments.iter().enumerate() {
            let q = seg_q[seg];
            let span = start * self.in_features..end * self.in_features;
            for (dst, &v) in q_in[span.clone()].iter_mut().zip(&data[span]) {
                *dst = q.quantize(v);
            }
        }
        profile.add(Phase::Quantization, t0.elapsed().as_secs_f64());
        let q_w = plan.q_logical();
        let sf = plan.sf();

        let t1 = Instant::now();
        let b2 = i64::from(weight_q.zero_point());
        let k = self.in_features as i64;
        let row_seg = segments.element_segments();
        // Per-segment epilogue constants, in the exact expression shape of
        // the solo path (`a1 * a2` as one f64 product).
        let b1s: Vec<i64> = seg_q.iter().map(|q| i64::from(q.zero_point())).collect();
        let a1a2s: Vec<f64> = seg_q
            .iter()
            .map(|q| f64::from(q.scale()) * f64::from(weight_q.scale()))
            .collect();
        let n = s.n;
        let mut out = Tensor::<f32>::zeros(Shape4::new(n, 1, 1, self.out_features));
        for b in 0..n {
            let seg = row_seg[b] as usize;
            let (b1, a1a2) = (b1s[seg], a1a2s[seg]);
            let row = &q_in[b * self.in_features..(b + 1) * self.in_features];
            let sp: i64 = row.iter().map(|&q| i64::from(q)).sum();
            for o in 0..self.out_features {
                let mut acc = 0i64;
                for (i, &iv) in row.iter().enumerate() {
                    acc += i64::from(self.lut.product(iv, q_w[i * self.out_features + o]));
                }
                let corrected = acc - b2 * sp - b1 * sf[o] + k * b1 * b2;
                *out.at_mut(b, 0, 0, o) = (a1a2 * corrected as f64) as f32 + self.bias[o];
            }
        }
        profile.add(Phase::LutLookup, t1.elapsed().as_secs_f64());
        self.ctx.record(&profile);
        Ok(out)
    }
}

impl Layer for AxDense {
    fn op_name(&self) -> &str {
        "AxDense"
    }

    fn output_shape(&self, inputs: &[Shape4]) -> Result<Shape4, NnError> {
        check_arity(self.op_name(), inputs, 1)?;
        let s = inputs[0];
        if s.h * s.w * s.c != self.in_features {
            return Err(NnError::Layer {
                layer: self.op_name().to_owned(),
                message: format!(
                    "input features {} != layer in_features {}",
                    s.h * s.w * s.c,
                    self.in_features
                ),
            });
        }
        Ok(Shape4::new(s.n, 1, 1, self.out_features))
    }

    fn forward(&self, inputs: &[&Tensor<f32>]) -> Result<Tensor<f32>, NnError> {
        check_arity(self.op_name(), inputs, 1)?;
        self.compute(inputs[0]).map_err(|e| NnError::Layer {
            layer: "AxDense".to_owned(),
            message: e.to_string(),
        })
    }

    /// The fused-batch forward: per-segment range resolution via
    /// [`Self::compute_segmented`].
    fn forward_segmented(
        &self,
        inputs: &[&Tensor<f32>],
        segments: &SegmentTable,
    ) -> Result<Tensor<f32>, NnError> {
        check_arity(self.op_name(), inputs, 1)?;
        self.compute_segmented(inputs[0], segments)
            .map_err(|e| NnError::Layer {
                layer: "AxDense".to_owned(),
                message: e.to_string(),
            })
    }

    fn mac_count(&self, inputs: &[Shape4]) -> Result<u64, NnError> {
        check_arity(self.op_name(), inputs, 1)?;
        Ok((inputs[0].n * self.in_features * self.out_features) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;
    use axnn::layers::Dense;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_parts(seed: u64) -> (Vec<f32>, Vec<f32>, Tensor<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f32> = (0..64 * 10).map(|_| rng.gen_range(-0.3..0.3)).collect();
        let bias: Vec<f32> = (0..10).map(|_| rng.gen_range(-0.1..0.1)).collect();
        let input = Tensor::from_fn(Shape4::new(3, 1, 1, 64), |_, _, _, _| {
            rng.gen_range(-1.0..1.0)
        });
        (weights, bias, input)
    }

    #[test]
    fn exact_lut_tracks_float_dense() {
        let (weights, bias, input) = random_parts(1);
        let float_layer = Dense::new(64, 10, weights.clone(), bias.clone());
        let float_out = float_layer.forward(&[&input]).unwrap();
        let ctx = Arc::new(EmuContext::new(Backend::CpuDirect));
        let ax = AxDense::new(
            64,
            10,
            weights,
            bias,
            MulLut::exact(Signedness::Signed),
            ctx,
        );
        let ax_out = ax.compute(&input).unwrap();
        // 64-term dot product of 8-bit-quantized values.
        let diff = ax_out.max_abs_diff(&float_out).unwrap();
        assert!(diff < 0.2, "diff {diff}");
    }

    #[test]
    fn layer_contract() {
        let (weights, bias, input) = random_parts(2);
        let ctx = Arc::new(EmuContext::new(Backend::CpuDirect));
        let ax = AxDense::new(
            64,
            10,
            weights,
            bias,
            MulLut::exact(Signedness::Signed),
            ctx,
        );
        let out = ax.forward(&[&input]).unwrap();
        assert_eq!(out.shape(), Shape4::new(3, 1, 1, 10));
        assert_eq!(ax.mac_count(&[input.shape()]).unwrap(), 3 * 64 * 10);
        assert_eq!(ax.op_name(), "AxDense");
    }

    #[test]
    fn feature_mismatch_rejected() {
        let (weights, bias, _) = random_parts(3);
        let ctx = Arc::new(EmuContext::new(Backend::CpuDirect));
        let ax = AxDense::new(
            64,
            10,
            weights,
            bias,
            MulLut::exact(Signedness::Signed),
            ctx,
        );
        let bad = Tensor::<f32>::zeros(Shape4::new(1, 1, 1, 32));
        assert!(ax.compute(&bad).is_err());
    }

    #[test]
    fn approximate_lut_shifts_output() {
        let (weights, bias, input) = random_parts(4);
        let ctx = Arc::new(EmuContext::new(Backend::CpuDirect));
        let exact = AxDense::new(
            64,
            10,
            weights.clone(),
            bias.clone(),
            MulLut::exact(Signedness::Signed),
            Arc::clone(&ctx),
        );
        let bam = axmult::catalog::by_name("mul8s_bam_v8h0").unwrap();
        let approx = AxDense::new(64, 10, weights, bias, bam.lut().clone(), ctx);
        let a = exact.compute(&input).unwrap();
        let b = approx.compute(&input).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() > 0.0);
    }

    #[test]
    fn weight_plan_built_once_and_results_stable() {
        let (weights, bias, input) = random_parts(6);
        let ctx = Arc::new(EmuContext::new(Backend::CpuDirect));
        let ax = AxDense::new(
            64,
            10,
            weights,
            bias,
            MulLut::exact(Signedness::Signed),
            ctx,
        );
        assert!(!ax.is_prepared());
        let first = ax.compute(&input).unwrap();
        assert!(ax.is_prepared());
        let second = ax.compute(&input).unwrap();
        assert_eq!(first, second, "cached plan must be bit-identical");
    }

    #[test]
    fn prepare_is_eager_and_idempotent() {
        let (weights, bias, input) = random_parts(10);
        let ctx = Arc::new(EmuContext::new(Backend::CpuDirect));
        let ax = AxDense::new(
            64,
            10,
            weights,
            bias,
            MulLut::exact(Signedness::Signed),
            Arc::clone(&ctx),
        );
        assert!(!ax.is_prepared());
        ax.prepare().unwrap();
        assert!(ax.is_prepared());
        let quant_after_prepare = ctx.profile().seconds(Phase::Quantization);
        assert!(quant_after_prepare > 0.0);
        ax.prepare().unwrap(); // no-op
        assert_eq!(
            ctx.profile().seconds(Phase::Quantization),
            quant_after_prepare
        );
        let out = ax.compute(&input).unwrap();
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn prepare_rejects_non_finite_weights() {
        let (mut weights, bias, _) = random_parts(11);
        weights[0] = f32::NAN;
        let ctx = Arc::new(EmuContext::new(Backend::CpuDirect));
        let ax = AxDense::new(
            64,
            10,
            weights,
            bias,
            MulLut::exact(Signedness::Signed),
            ctx,
        );
        let err = ax.prepare().unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
        assert!(!ax.is_prepared());
    }

    #[test]
    fn non_finite_weights_are_rejected() {
        let (mut weights, bias, input) = random_parts(9);
        weights[17] = f32::INFINITY;
        let ctx = Arc::new(EmuContext::new(Backend::CpuDirect));
        let ax = AxDense::new(
            64,
            10,
            weights,
            bias,
            MulLut::exact(Signedness::Signed),
            ctx,
        );
        let err = ax.compute(&input).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn non_finite_input_is_an_error() {
        let (weights, bias, _) = random_parts(7);
        let ctx = Arc::new(EmuContext::new(Backend::CpuDirect));
        let ax = AxDense::new(
            64,
            10,
            weights,
            bias,
            MulLut::exact(Signedness::Signed),
            ctx,
        );
        let mut bad = Tensor::<f32>::zeros(Shape4::new(1, 1, 1, 64));
        bad.as_mut_slice()[3] = f32::NAN;
        assert!(ax.compute(&bad).is_err());
    }

    #[test]
    fn zero_batch_dense_returns_empty_output() {
        let (weights, bias, _) = random_parts(8);
        let ctx = Arc::new(EmuContext::new(Backend::CpuDirect));
        let ax = AxDense::new(
            64,
            10,
            weights,
            bias,
            MulLut::exact(Signedness::Signed),
            ctx,
        );
        let empty = Tensor::<f32>::zeros(Shape4::new(0, 1, 1, 64));
        let out = ax.compute(&empty).unwrap();
        assert_eq!(out.shape(), Shape4::new(0, 1, 1, 10));
        assert!(out.as_slice().is_empty());
    }

    #[test]
    fn segmented_compute_matches_solo_chained() {
        let (weights, bias, _) = random_parts(12);
        let mut rng = StdRng::seed_from_u64(13);
        let input = Tensor::from_fn(Shape4::new(5, 1, 1, 64), |_, _, _, _| {
            rng.gen_range(-1.0..1.0)
        });
        let ctx = Arc::new(EmuContext::new(Backend::CpuDirect));
        let ax = AxDense::new(
            64,
            10,
            weights,
            bias,
            MulLut::exact(Signedness::Signed),
            ctx,
        );
        let segments = SegmentTable::from_counts(&[2, 0, 1, 2]);
        let fused = ax.compute_segmented(&input, &segments).unwrap();
        let mut parts = Vec::new();
        for (start, end) in segments.iter() {
            parts.push(ax.compute(&input.batch_slice(start, end - start)).unwrap());
        }
        let chained = Tensor::concat_batch(&parts).unwrap();
        assert_eq!(fused, chained);
    }

    #[test]
    fn segmented_compute_rejects_nan_and_bad_tables() {
        let (weights, bias, _) = random_parts(14);
        let ctx = Arc::new(EmuContext::new(Backend::CpuDirect));
        let ax = AxDense::new(
            64,
            10,
            weights,
            bias,
            MulLut::exact(Signedness::Signed),
            ctx,
        );
        let mut input = Tensor::<f32>::zeros(Shape4::new(2, 1, 1, 64));
        assert!(ax
            .compute_segmented(&input, &SegmentTable::from_counts(&[1]))
            .is_err());
        input.as_mut_slice()[70] = f32::NAN; // poison image 1 only
        let err = ax
            .compute_segmented(&input, &SegmentTable::from_counts(&[1, 1]))
            .unwrap_err();
        assert!(err.to_string().contains("invalid input range"), "{err}");
    }

    #[test]
    fn profile_records_lut_phase() {
        let (weights, bias, input) = random_parts(5);
        let ctx = Arc::new(EmuContext::new(Backend::CpuDirect));
        let ax = AxDense::new(
            64,
            10,
            weights,
            bias,
            MulLut::exact(Signedness::Signed),
            Arc::clone(&ctx),
        );
        let _ = ax.compute(&input).unwrap();
        assert!(ctx.profile().seconds(Phase::LutLookup) > 0.0);
    }
}
