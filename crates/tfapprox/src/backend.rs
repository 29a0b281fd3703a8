//! The three emulation backends of the approximate convolution.
//!
//! All backends compute the same function — the quantized convolution of
//! Eq. 4 with products taken from the multiplier LUT — and are
//! cross-validated in tests. They differ in *how*:
//!
//! - [`run_cpu_direct_prepared`]: nested loops (ALWANN \[12\]), `i64`
//!   accumulation, no intermediate patch matrix;
//! - [`run_cpu_gemm_prepared`]: Algorithm 1 on host threads — the
//!   quantizing im2col and one segmented LUT GEMM per chunk, both on the
//!   context's persistent worker pool, Eq. 4 correction;
//! - [`run_gpusim_prepared`]: Algorithm 1 on the simulated device — the
//!   paper's kernels with texture-cache LUT fetches and analytic cycle
//!   accounting.
//!
//! Each backend has exactly one runner, and every runner consumes a
//! [`PreparedFilter`] plan (all layer-invariant quantization hoisted out —
//! what [`crate::AxConv2D`] builds once and caches). The host-GEMM runner
//! takes a whole fused batch with one input quantization per segment; the
//! other two run one segment per call, which [`crate::AxConv2D`] loops
//! over. A solo request is the one-segment case either way.

use crate::accumulator::Accumulator;
use crate::kernel;
use crate::pool::WorkerPool;
use crate::prepared::PreparedFilter;
use crate::{EmuContext, EmuError};
use axmult::MulLut;
use axquant::QuantParams;
use axtensor::{ops::Filter, ConvGeometry, FilterShape, Matrix, SegmentTable, Shape4, Tensor};
use gpusim::kernels::gemm::approx_gemm_prepared;
use gpusim::kernels::im2col::{
    gather_patches, im2col_quant, quantize_pixels, PatchGeometry, PatchSumStrategy,
};
use gpusim::kernels::minmax::reduction_events;
use gpusim::{Phase, PhaseProfile};
use std::ops::Range;
use std::time::Instant;

/// The layer-invariant half of one approximate convolution: everything a
/// backend needs besides the input, its quantization and the plan.
#[derive(Debug, Clone)]
pub struct ConvSpec<'a> {
    /// The filter bank (f32; its quantized form comes from the plan).
    pub filter: &'a Filter,
    /// Stride/dilation/padding.
    pub geometry: ConvGeometry,
    /// Optional per-output-channel bias, added after dequantization.
    pub bias: Option<&'a [f32]>,
    /// The approximate multiplier's truth table.
    pub lut: &'a MulLut,
    /// Accumulator model of the emulated MAC (CPU backends; the GPU
    /// kernel accumulates in f32 like the paper's).
    pub accumulator: Accumulator,
}

/// Validate an input range before it feeds `ComputeCoeffs`: both ends
/// finite and not inverted. NaNs (from e.g. a poisoned activation tensor)
/// and `lo > hi` would otherwise flow silently into [`QuantParams`] and
/// produce garbage scales.
///
/// # Errors
///
/// Returns [`EmuError::Config`] for non-finite or inverted ranges.
pub fn validate_range(lo: f32, hi: f32) -> Result<(), EmuError> {
    if !lo.is_finite() || !hi.is_finite() || lo > hi {
        return Err(EmuError::Config(format!(
            "invalid input range [{lo}, {hi}]: bounds must be finite with lo <= hi"
        )));
    }
    Ok(())
}

fn apply_bias(mut out: Tensor<f32>, bias: Option<&[f32]>) -> Tensor<f32> {
    if let Some(b) = bias {
        let c = out.shape().c;
        // NHWC invariant: the channel is the fastest-varying dimension, so
        // flat index i belongs to channel i % c. Tensor construction
        // guarantees len == n*h*w*c, but the bias length is caller data —
        // guard it so a mis-sized bias cannot silently rotate through the
        // wrong channels.
        assert_eq!(
            b.len(),
            c,
            "bias length {} != output channel count {c}",
            b.len()
        );
        debug_assert!(
            out.as_slice().len().is_multiple_of(c.max(1)),
            "non-NHWC buffer"
        );
        for (i, v) in out.as_mut_slice().iter_mut().enumerate() {
            *v += b[i % c];
        }
    }
    out
}

/// Concatenate per-chunk or per-segment outputs along the batch axis. A
/// single part — every chunk of a solo call — is returned as it is,
/// without a copy.
pub(crate) fn concat_parts(mut parts: Vec<Tensor<f32>>) -> Result<Tensor<f32>, EmuError> {
    if parts.len() == 1 {
        return Ok(parts.pop().expect("one part"));
    }
    Ok(Tensor::concat_batch(&parts)?)
}

/// Direct nested-loop emulation (the paper's approximate-CPU baseline)
/// of one segment quantized under `input_q`. Only the input side is
/// quantized per call; the filter side comes from `plan`, which must have
/// been built from `spec.filter`.
///
/// # Errors
///
/// Propagates shape errors.
pub fn run_cpu_direct_prepared(
    input: &Tensor<f32>,
    spec: &ConvSpec<'_>,
    input_q: QuantParams,
    plan: &PreparedFilter,
) -> Result<(Tensor<f32>, PhaseProfile), EmuError> {
    let fs = spec.filter.shape();
    let out_shape = spec.geometry.output_shape(input.shape(), fs)?;
    let (pad_h, pad_w) = spec.geometry.pad_before(input.shape(), fs);
    let shape = input.shape();
    let mut profile = PhaseProfile::new();

    // --- Input quantization (logical values); the filter side comes
    // pre-quantized from the plan.
    let t0 = Instant::now();
    let q_in: Vec<i32> = input
        .as_slice()
        .iter()
        .map(|&v| input_q.quantize(v))
        .collect();
    let zero_q = input_q.quantize(0.0);
    profile.add(Phase::Quantization, t0.elapsed().as_secs_f64());
    let col_q = plan.col_q();
    let q_f = plan.q_logical();
    let sf = plan.sf();

    // --- The convolution loops.
    let t1 = Instant::now();
    let b1 = i64::from(input_q.zero_point());
    let a1 = f64::from(input_q.scale());
    let n_taps = fs.patch_len() as i64;
    let mut out = Tensor::<f32>::zeros(out_shape);
    for n in 0..out_shape.n {
        for oy in 0..out_shape.h {
            for ox in 0..out_shape.w {
                // Patch sum Sp for this output position.
                let mut sp = 0i64;
                let mut taps: Vec<i32> = Vec::with_capacity(fs.patch_len());
                for ky in 0..fs.h {
                    let iy = (oy * spec.geometry.stride.0 + ky * spec.geometry.dilation.0) as isize
                        - pad_h as isize;
                    for kx in 0..fs.w {
                        let ix = (ox * spec.geometry.stride.1 + kx * spec.geometry.dilation.1)
                            as isize
                            - pad_w as isize;
                        let inside = iy >= 0
                            && (iy as usize) < shape.h
                            && ix >= 0
                            && (ix as usize) < shape.w;
                        for ci in 0..fs.c_in {
                            let q = if inside {
                                q_in[shape.index(n, iy as usize, ix as usize, ci)]
                            } else {
                                zero_q
                            };
                            sp += i64::from(q);
                            taps.push(q);
                        }
                    }
                }
                for co in 0..fs.c_out {
                    let b2 = i64::from(col_q[co].zero_point());
                    let a1a2 = a1 * f64::from(col_q[co].scale());
                    let mut acc = 0i64;
                    let mut tap = 0usize;
                    for ky in 0..fs.h {
                        for kx in 0..fs.w {
                            for ci in 0..fs.c_in {
                                let i_val = taps[tap];
                                tap += 1;
                                let f_val = q_f[fs.index(ky, kx, ci, co)];
                                let prod = i64::from(spec.lut.product(i_val, f_val));
                                acc = spec.accumulator.add(acc, prod);
                            }
                        }
                    }
                    let corrected = acc - b2 * sp - b1 * sf[co] + n_taps * b1 * b2;
                    *out.at_mut(n, oy, ox, co) = (a1a2 * corrected as f64) as f32;
                }
            }
        }
    }
    // The monolithic loop interleaves lookup and accumulation; attribute
    // it all to the LUT phase.
    profile.add(Phase::LutLookup, t1.elapsed().as_secs_f64());
    Ok((apply_bias(out, spec.bias), profile))
}

/// Call `piece(segment, lo, hi)` for every non-empty intersection
/// `lo..hi` of `range` with a segment of `table`, in order.
fn for_each_piece(
    table: &SegmentTable,
    range: Range<usize>,
    mut piece: impl FnMut(usize, usize, usize),
) {
    for (s, (a, b)) in table.iter().enumerate() {
        let (lo, hi) = (a.max(range.start), b.min(range.end));
        if lo < hi {
            piece(s, lo, hi);
        }
    }
}

/// Run `work(first, bytes, sums)` on the pool over contiguous per-thread
/// spans of items — the GEMM's row partition — where item `i` owns
/// `bytes[i * width..(i + 1) * width]` and `sums[i]`, and `first` is the
/// span's first item.
fn on_spans(
    pool: &WorkerPool,
    width: usize,
    bytes: &mut [u8],
    sums: &mut [i64],
    work: impl Fn(usize, &mut [u8], &mut [i64]) + Sync,
) {
    let span = sums.len().div_ceil(pool.threads()).max(1);
    let work = &work;
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = bytes
        .chunks_mut((span * width).max(1))
        .zip(sums.chunks_mut(span))
        .enumerate()
        .map(|(t, (bytes, sums))| {
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || work(t * span, bytes, sums));
            job
        })
        .collect();
    pool.run(jobs);
}

/// Phase (i) of Algorithm 1 for a whole fused batch, run on the worker
/// pool: every input pixel is quantized once under its segment's
/// parameters, and each chunk's patch rows are then gathered from those
/// bytes. Both passes split their work into the pool's contiguous spans
/// and cut each span at segment boundaries. Every byte and sum depends
/// only on its own pixel or row, so the result is the serial
/// [`im2col_quant`] of each segment's images, for any thread count and
/// segment layout.
struct QuantizedInput<'a> {
    geometry: PatchGeometry,
    segments: &'a SegmentTable,
    zero_q: Vec<i32>,
    bytes: Vec<u8>,
    pixel_sums: Vec<i64>,
}

impl<'a> QuantizedInput<'a> {
    /// Quantize `input`, whose images `segments` partitions and whose
    /// segment `s` quantizes under `seg_q[s]`.
    fn new(
        input: &Tensor<f32>,
        filter: FilterShape,
        geom: ConvGeometry,
        segments: &'a SegmentTable,
        seg_q: &[QuantParams],
        pool: &WorkerPool,
    ) -> Result<Self, EmuError> {
        let shape = input.shape();
        let geometry = PatchGeometry::new(shape, filter, geom)?;
        let c = shape.c;
        let pixel_segments = segments.scaled(shape.h * shape.w);
        let src = input.as_slice();
        let mut bytes = vec![0u8; src.len()];
        let mut pixel_sums = vec![0i64; pixel_segments.total()];
        on_spans(pool, c, &mut bytes, &mut pixel_sums, |p0, bytes, sums| {
            for_each_piece(&pixel_segments, p0..p0 + sums.len(), |s, lo, hi| {
                quantize_pixels(
                    &src[lo * c..hi * c],
                    c,
                    seg_q[s],
                    &mut bytes[(lo - p0) * c..(hi - p0) * c],
                    &mut sums[lo - p0..hi - p0],
                );
            });
        });
        Ok(QuantizedInput {
            geometry,
            segments,
            zero_q: seg_q.iter().map(|q| q.quantize(0.0)).collect(),
            bytes,
            pixel_sums,
        })
    }

    /// The patch matrix and `Sp` sums of `images`, gathered on the pool.
    fn patches(&self, images: Range<usize>, pool: &WorkerPool) -> (Matrix<u8>, Vec<i64>) {
        let per_image = self.geometry.rows_per_image();
        let k = self.geometry.cols();
        let first = images.start * per_image;
        let rows = images.len() * per_image;
        let mut data = vec![0u8; rows * k];
        let mut sums = vec![0i64; rows];
        let row_segments = self.segments.scaled(per_image);
        on_spans(pool, k, &mut data, &mut sums, |r, data, sums| {
            let r0 = first + r;
            for_each_piece(&row_segments, r0..r0 + sums.len(), |s, lo, hi| {
                gather_patches(
                    &self.geometry,
                    &self.bytes,
                    &self.pixel_sums,
                    self.zero_q[s],
                    lo,
                    &mut data[(lo - r0) * k..(hi - r0) * k],
                    &mut sums[lo - r0..hi - r0],
                );
            });
        });
        (Matrix::from_vec(rows, k, data).expect("sized above"), sums)
    }
}

/// Optimized host-side Algorithm 1 over a (possibly fused multi-request)
/// batch: quantizing im2col and one tiled LUT GEMM per chunk, both on the
/// context's persistent worker pool, the GEMM on the context's kernel
/// arm, Eq. 4 correction. Chunk size, tiles and pool come from `ctx`; the
/// filter bytes, `Sf` sums and per-channel parameters come from `plan`,
/// which must have been built from `spec.filter`.
///
/// `segments` partitions the batch axis into request spans and `seg_q`
/// gives each span its own input quantization (from its own observers); a
/// solo call passes [`SegmentTable::single`] and one parameter set. Every
/// input pixel is quantized once under its segment's params; each chunk's
/// patch rows are gathered into one matrix, and the chunk runs as **one**
/// GEMM whose epilogue picks the owning segment's Eq. 4 constants per
/// row. Since every output row depends only on its own patch bytes, its
/// segment's params, and the fixed ascending-`k` fold order, the result
/// is bit-identical to running each request alone and concatenating, for
/// any chunk size, tile shape, thread count, and accumulator model.
///
/// A zero-batch input returns a correctly-shaped empty output.
///
/// # Errors
///
/// Returns [`EmuError::Config`] if the segment table does not cover
/// exactly the batch or `seg_q` does not cover exactly the segments;
/// propagates shape errors.
pub fn run_cpu_gemm_prepared(
    input: &Tensor<f32>,
    spec: &ConvSpec<'_>,
    seg_q: &[QuantParams],
    segments: &SegmentTable,
    plan: &PreparedFilter,
    ctx: &EmuContext,
) -> Result<(Tensor<f32>, PhaseProfile), EmuError> {
    let fs = spec.filter.shape();
    let mut profile = PhaseProfile::new();
    let out_shape = spec.geometry.output_shape(input.shape(), fs)?;
    let n = input.shape().n;
    if segments.total() != n || seg_q.len() != segments.len() {
        return Err(EmuError::Config(format!(
            "fused batch of {n} images: segment table covers {} images with {} \
             segments but {} input-quantization sets were supplied",
            segments.total(),
            segments.len(),
            seg_q.len()
        )));
    }
    if n == 0 {
        return Ok((apply_bias(Tensor::zeros(out_shape), spec.bias), profile));
    }

    let t0 = Instant::now();
    let quantized = QuantizedInput::new(input, fs, spec.geometry, segments, seg_q, ctx.pool())?;
    profile.add(Phase::Other, t0.elapsed().as_secs_f64());

    let chunk_size = ctx.chunk_size();
    let rows_per_image = out_shape.h * out_shape.w;
    let mut parts: Vec<Tensor<f32>> = Vec::with_capacity(n.div_ceil(chunk_size));
    let mut start = 0usize;
    while start < n {
        let count = chunk_size.min(n - start);

        let t1 = Instant::now();
        let (matrix, sums) = quantized.patches(start..start + count, ctx.pool());
        profile.add(Phase::Other, t1.elapsed().as_secs_f64());

        // The chunk's pieces — its intersections with the request spans —
        // each dequantize under their own segment's params.
        let mut piece_q = Vec::new();
        let mut piece_rows = Vec::new();
        for_each_piece(segments, start..start + count, |s, lo, hi| {
            piece_q.push(seg_q[s]);
            piece_rows.push((hi - lo) * rows_per_image);
        });

        // One blocked LUT GEMM for the whole chunk, on the context's
        // kernel arm (bit-identical whichever arm runs).
        let t2 = Instant::now();
        let out_buf = kernel::dispatch::lut_gemm_dispatch(
            ctx.kernel(),
            &matrix,
            &sums,
            plan,
            &piece_q,
            &SegmentTable::from_counts(&piece_rows),
            spec.lut,
            spec.accumulator,
            ctx.tile_config(),
            ctx.pool(),
        );
        profile.add(Phase::LutLookup, t2.elapsed().as_secs_f64());

        parts.push(Tensor::from_vec(
            Shape4::new(count, out_shape.h, out_shape.w, out_shape.c),
            out_buf,
        )?);
        start += count;
    }
    Ok((apply_bias(concat_parts(parts)?, spec.bias), profile))
}

/// Algorithm 1 on the simulated GPU — the paper's proposal — over one
/// segment quantized under `input_q`.
///
/// Functional results come from the [`gpusim`] kernels; the profile holds
/// *modeled* seconds derived from the kernels' event counts under the
/// context's device calibration. The min/max reductions the transformed
/// graph performs per batch are also charged here (they run on the device
/// in the paper's implementation). The device kernels consume the plan's
/// quantized filter bytes directly, so no chunk re-quantizes the filter
/// bank; `plan` must have been built from `spec.filter`.
///
/// A zero-batch input returns a correctly-shaped empty output.
///
/// # Errors
///
/// Propagates shape errors.
pub fn run_gpusim_prepared(
    input: &Tensor<f32>,
    spec: &ConvSpec<'_>,
    input_q: QuantParams,
    plan: &PreparedFilter,
    ctx: &EmuContext,
) -> Result<(Tensor<f32>, PhaseProfile), EmuError> {
    let fs = spec.filter.shape();
    let dev = ctx.device();
    let mut profile = PhaseProfile::new();

    // Min/max reductions over the input (the inserted Min/Max nodes).
    profile.add(
        Phase::Quantization,
        dev.seconds(&reduction_events(input.shape().len())),
    );

    let out_shape = spec.geometry.output_shape(input.shape(), fs)?;
    let n = input.shape().n;
    if n == 0 {
        return Ok((apply_bias(Tensor::zeros(out_shape), spec.bias), profile));
    }

    let mut parts: Vec<Tensor<f32>> = Vec::new();
    let mut start = 0usize;
    while start < n {
        let count = ctx.chunk_size().min(n - start);
        let chunk = input.batch_slice(start, count);

        let im2col = im2col_quant(
            &chunk,
            fs,
            spec.geometry,
            input_q,
            PatchSumStrategy::PrefixScan,
        )?;
        for (phase, ev) in &im2col.events {
            profile.add(*phase, dev.seconds(ev));
            ctx.record_events(ev);
        }
        let patches = im2col.output;

        let gemm = ctx.with_cache(|cache| {
            approx_gemm_prepared(
                &patches.matrix,
                &patches.patch_sums,
                plan.f_bytes(),
                plan.sf(),
                plan.col_q(),
                input_q,
                spec.lut,
                cache,
            )
        })?;
        for (phase, ev) in &gemm.events {
            profile.add(*phase, dev.seconds(ev));
            ctx.record_events(ev);
        }
        parts.push(Tensor::from_vec(patches.out_shape, gemm.output.into_vec())?);
        start += count;
    }
    Ok((apply_bias(concat_parts(parts)?, spec.bias), profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;
    use axmult::Signedness;
    use axquant::{FilterQuantization, QuantRange, RoundMode};
    use axtensor::{rng, FilterShape, Padding};

    fn spec<'a>(filter: &'a Filter, lut: &'a MulLut, geom: ConvGeometry) -> ConvSpec<'a> {
        ConvSpec {
            filter,
            geometry: geom,
            bias: None,
            lut,
            accumulator: Accumulator::Exact,
        }
    }

    fn input_q() -> QuantParams {
        QuantParams::from_range(-1.0, 1.0, QuantRange::i8(), RoundMode::NearestEven)
    }

    fn plan_for(filter: &Filter) -> PreparedFilter {
        let fq: FilterQuantization =
            QuantParams::from_range(-0.5, 0.5, QuantRange::i8(), RoundMode::NearestEven).into();
        PreparedFilter::from_filter(filter, &fq)
    }

    /// The host-GEMM runner on one segment covering the whole batch — a
    /// solo call.
    fn gemm_solo(
        input: &Tensor<f32>,
        s: &ConvSpec<'_>,
        q: QuantParams,
        plan: &PreparedFilter,
        ctx: &EmuContext,
    ) -> Tensor<f32> {
        let single = SegmentTable::single(input.shape().n);
        run_cpu_gemm_prepared(input, s, &[q], &single, plan, ctx)
            .unwrap()
            .0
    }

    /// Quantize → exact integer convolution → dequantize: what
    /// TensorFlow's fake-quant path computes. With an exact LUT the LUT
    /// product equals `i·f`, so the direct runner under the exact table of
    /// the same signedness is that reference. `AxConv2D` with an **exact**
    /// LUT must match it up to accumulator rounding; the paper: "the
    /// accuracy is the same as if we use the quantization followed by
    /// dequantization available in TensorFlow".
    fn quantized_reference(
        input: &Tensor<f32>,
        s: &ConvSpec<'_>,
        q: QuantParams,
        plan: &PreparedFilter,
    ) -> Tensor<f32> {
        let exact = MulLut::exact(s.lut.signedness());
        let spec_exact = ConvSpec {
            lut: &exact,
            ..s.clone()
        };
        run_cpu_direct_prepared(input, &spec_exact, q, plan)
            .unwrap()
            .0
    }

    fn close(a: &Tensor<f32>, b: &Tensor<f32>, tol: f32) -> bool {
        a.max_abs_diff(b).unwrap() <= tol
    }

    #[test]
    fn all_backends_agree_with_exact_lut() {
        let input = rng::uniform(Shape4::new(3, 7, 6, 3), 1, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 3, 5), 2, -0.5, 0.5);
        let plan = plan_for(&filter);
        let lut = MulLut::exact(Signedness::Signed);
        for geom in [
            ConvGeometry::default(),
            ConvGeometry::default().with_stride(2),
            ConvGeometry::default().with_padding(Padding::Valid),
        ] {
            let s = spec(&filter, &lut, geom);
            let (direct, _) = run_cpu_direct_prepared(&input, &s, input_q(), &plan).unwrap();
            let gemm_ctx = EmuContext::new(Backend::CpuGemm)
                .with_chunk_size(2)
                .unwrap();
            let gemm = gemm_solo(&input, &s, input_q(), &plan, &gemm_ctx);
            let ctx = EmuContext::new(Backend::GpuSim).with_chunk_size(2).unwrap();
            let (gpu, _) = run_gpusim_prepared(&input, &s, input_q(), &plan, &ctx).unwrap();
            assert!(close(&direct, &gemm, 1e-4), "direct vs gemm, {geom:?}");
            assert!(close(&direct, &gpu, 1e-2), "direct vs gpu, {geom:?}");
        }
    }

    #[test]
    fn backends_agree_with_approximate_lut() {
        let input = rng::uniform(Shape4::new(2, 6, 6, 2), 3, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 4), 4, -0.5, 0.5);
        let plan = plan_for(&filter);
        let bam = axmult::catalog::by_name("mul8s_bam_v8h0").unwrap();
        let s = spec(&filter, bam.lut(), ConvGeometry::default());
        let (direct, _) = run_cpu_direct_prepared(&input, &s, input_q(), &plan).unwrap();
        let gemm_ctx = EmuContext::new(Backend::CpuGemm)
            .with_chunk_size(1)
            .unwrap();
        let gemm = gemm_solo(&input, &s, input_q(), &plan, &gemm_ctx);
        let ctx = EmuContext::new(Backend::GpuSim);
        let (gpu, _) = run_gpusim_prepared(&input, &s, input_q(), &plan, &ctx).unwrap();
        assert!(close(&direct, &gemm, 1e-4));
        assert!(close(&direct, &gpu, 1e-2));
    }

    #[test]
    fn zero_batch_returns_shaped_empty_output() {
        let input = Tensor::<f32>::zeros(Shape4::new(0, 6, 6, 2));
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 4), 19, -0.5, 0.5);
        let plan = plan_for(&filter);
        let lut = MulLut::exact(Signedness::Signed);
        let bias = [0.5f32, -0.5, 1.0, 0.0];
        let mut s = spec(&filter, &lut, ConvGeometry::default());
        s.bias = Some(&bias);
        let expect = Shape4::new(0, 6, 6, 4);

        let (direct, _) = run_cpu_direct_prepared(&input, &s, input_q(), &plan).unwrap();
        assert_eq!(direct.shape(), expect);
        assert!(direct.as_slice().is_empty());

        let ctx = EmuContext::new(Backend::CpuGemm);
        let gemm = gemm_solo(&input, &s, input_q(), &plan, &ctx);
        assert_eq!(gemm.shape(), expect);
        assert!(gemm.as_slice().is_empty());

        let gctx = EmuContext::new(Backend::GpuSim);
        let (gpu, _) = run_gpusim_prepared(&input, &s, input_q(), &plan, &gctx).unwrap();
        assert_eq!(gpu.shape(), expect);
        assert!(gpu.as_slice().is_empty());
    }

    #[test]
    fn fused_gemm_is_per_request_runs_chained() {
        // The runner over a multi-segment batch must be bit-identical to
        // running each segment alone (with its own params) and
        // concatenating — across chunk sizes that split requests and
        // accumulator models, with an empty segment in the mix.
        let input = rng::uniform(Shape4::new(7, 6, 6, 2), 51, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 3), 52, -0.5, 0.5);
        let plan = plan_for(&filter);
        let lut = MulLut::exact(Signedness::Signed);
        let segments = SegmentTable::from_counts(&[2, 0, 4, 1]);
        let seg_q: Vec<QuantParams> = segments
            .iter()
            .map(|(a, b)| {
                let (lo, hi) = axtensor::ops::min_max(&input.batch_slice(a, b - a));
                QuantParams::from_range(lo, hi, QuantRange::i8(), RoundMode::NearestEven)
            })
            .collect();
        let bias = [0.25f32, -0.5, 0.125];
        for accumulator in [Accumulator::Exact, Accumulator::Saturating(12)] {
            for chunk in [1, 3, 16] {
                let ctx = EmuContext::new(Backend::CpuGemm)
                    .with_chunk_size(chunk)
                    .unwrap();
                let mut s = spec(&filter, &lut, ConvGeometry::default());
                s.bias = Some(&bias);
                s.accumulator = accumulator;
                let (fused, _) =
                    run_cpu_gemm_prepared(&input, &s, &seg_q, &segments, &plan, &ctx).unwrap();
                let parts: Vec<Tensor<f32>> = segments
                    .iter()
                    .enumerate()
                    .map(|(i, (a, b))| {
                        gemm_solo(&input.batch_slice(a, b - a), &s, seg_q[i], &plan, &ctx)
                    })
                    .collect();
                let chained = Tensor::concat_batch(&parts).unwrap();
                assert_eq!(fused, chained, "{accumulator:?} chunk {chunk}");
            }
        }
    }

    #[test]
    fn pooled_im2col_is_serial_im2col_per_segment() {
        // The pooled passes split pixel and row spans mid-image and
        // mid-segment; every chunk's matrix must still be the serial
        // kernel's output on each of its segment pieces, stacked.
        let cases = [
            (1, FilterShape::new(3, 3, 1, 2), ConvGeometry::default()),
            (
                3,
                FilterShape::new(3, 3, 3, 2),
                ConvGeometry::default().with_stride(2),
            ),
            (
                64,
                FilterShape::new(3, 3, 64, 2),
                ConvGeometry::default().with_padding(Padding::Valid),
            ),
            (
                3,
                FilterShape::new(3, 3, 3, 2),
                ConvGeometry::default()
                    .with_dilation(2)
                    .with_padding(Padding::Valid),
            ),
        ];
        let layouts: [&[usize]; 5] = [&[5], &[2, 0, 3], &[1, 1, 1, 1, 1], &[0, 5, 0], &[4, 1]];
        for (case, &(c_in, fs, geom)) in cases.iter().enumerate() {
            let input = rng::uniform(Shape4::new(5, 6, 7, c_in), 60 + case as u64, -1.0, 1.0);
            for counts in layouts {
                let segments = SegmentTable::from_counts(counts);
                let seg_q: Vec<QuantParams> = (0..segments.len())
                    .map(|s| {
                        let hi = 0.5 + s as f32 * 0.3;
                        let range = if s % 2 == 0 {
                            QuantRange::i8()
                        } else {
                            QuantRange::u8()
                        };
                        QuantParams::from_range(-hi, hi, range, RoundMode::NearestEven)
                    })
                    .collect();
                for threads in 1..=4 {
                    let pool = WorkerPool::new(threads);
                    let quantized =
                        QuantizedInput::new(&input, fs, geom, &segments, &seg_q, &pool).unwrap();
                    for chunk in [1, 2, 5] {
                        for start in (0..5).step_by(chunk) {
                            let end = (start + chunk).min(5);
                            let (matrix, sums) = quantized.patches(start..end, &pool);
                            let mut want_bytes = Vec::new();
                            let mut want_sums = Vec::new();
                            for_each_piece(&segments, start..end, |s, lo, hi| {
                                let serial = im2col_quant(
                                    &input.batch_slice(lo, hi - lo),
                                    fs,
                                    geom,
                                    seg_q[s],
                                    PatchSumStrategy::PrefixScan,
                                )
                                .unwrap()
                                .output;
                                want_bytes.extend_from_slice(serial.matrix.as_slice());
                                want_sums.extend_from_slice(&serial.patch_sums);
                            });
                            let at = format!(
                                "c_in {c_in}, {geom:?}, segments {counts:?}, \
                                 {threads} threads, images {start}..{end}"
                            );
                            assert_eq!(matrix.cols(), fs.patch_len(), "{at}");
                            assert_eq!(matrix.as_slice(), &want_bytes[..], "{at}");
                            assert_eq!(sums, want_sums, "{at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_gemm_rejects_mismatched_segments() {
        let input = rng::uniform(Shape4::new(3, 6, 6, 2), 53, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 3), 54, -0.5, 0.5);
        let plan = plan_for(&filter);
        let lut = MulLut::exact(Signedness::Signed);
        let s = spec(&filter, &lut, ConvGeometry::default());
        let ctx = EmuContext::new(Backend::CpuGemm);
        let err = run_cpu_gemm_prepared(
            &input,
            &s,
            &[input_q()],
            &SegmentTable::from_counts(&[2]),
            &plan,
            &ctx,
        )
        .unwrap_err();
        assert!(matches!(err, EmuError::Config(_)), "{err}");
    }

    #[test]
    fn range_validation_rejects_nan_and_inverted() {
        assert!(validate_range(-1.0, 1.0).is_ok());
        assert!(validate_range(0.0, 0.0).is_ok());
        assert!(validate_range(f32::NAN, 1.0).is_err());
        assert!(validate_range(-1.0, f32::NAN).is_err());
        assert!(validate_range(f32::NEG_INFINITY, 1.0).is_err());
        assert!(validate_range(-1.0, f32::INFINITY).is_err());
        assert!(validate_range(1.0, -1.0).is_err());
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn mis_sized_bias_is_rejected() {
        let out = Tensor::<f32>::zeros(Shape4::new(1, 2, 2, 3));
        let bias = [1.0f32, 2.0]; // 2 entries for 3 channels
        let _ = apply_bias(out, Some(&bias));
    }

    #[test]
    fn exact_lut_matches_quantized_reference() {
        let input = rng::uniform(Shape4::new(2, 8, 8, 3), 5, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 3, 4), 6, -0.5, 0.5);
        let plan = plan_for(&filter);
        let lut = MulLut::exact(Signedness::Signed);
        let s = spec(&filter, &lut, ConvGeometry::default());
        let ctx = EmuContext::new(Backend::CpuGemm);
        let out = gemm_solo(&input, &s, input_q(), &plan, &ctx);
        let reference = quantized_reference(&input, &s, input_q(), &plan);
        assert!(close(&out, &reference, 1e-5));
    }

    #[test]
    fn quantization_error_bounded_vs_float_conv() {
        // The approximate layer "produces a single floating-point output
        // which has the same range as ... the original convolutional
        // layer"; with an exact LUT the only deviation is quantization
        // noise.
        let input = rng::uniform(Shape4::new(1, 8, 8, 3), 7, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 3, 4), 8, -0.5, 0.5);
        let plan = plan_for(&filter);
        let lut = MulLut::exact(Signedness::Signed);
        let s = spec(&filter, &lut, ConvGeometry::default());
        let (out, _) = run_cpu_direct_prepared(&input, &s, input_q(), &plan).unwrap();
        let float_ref = axtensor::ops::conv2d_direct(&input, &filter, s.geometry).unwrap();
        // 27-tap dot product of 8-bit quantized values: error stays well
        // below the combined quantization steps.
        let filter_scale = plan.col_q()[0].scale();
        let bound = 27.0 * (input_q().scale() + filter_scale);
        assert!(
            out.max_abs_diff(&float_ref).unwrap() < bound,
            "diff {} vs bound {bound}",
            out.max_abs_diff(&float_ref).unwrap()
        );
    }

    #[test]
    fn chunking_is_transparent() {
        let input = rng::uniform(Shape4::new(5, 6, 6, 2), 9, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 3), 10, -0.5, 0.5);
        let plan = plan_for(&filter);
        let lut = MulLut::exact(Signedness::Signed);
        let s = spec(&filter, &lut, ConvGeometry::default());
        let one_ctx = EmuContext::new(Backend::CpuGemm)
            .with_chunk_size(5)
            .unwrap();
        let one = gemm_solo(&input, &s, input_q(), &plan, &one_ctx);
        let many_ctx = EmuContext::new(Backend::CpuGemm)
            .with_chunk_size(1)
            .unwrap();
        let many = gemm_solo(&input, &s, input_q(), &plan, &many_ctx);
        assert_eq!(one, many);
    }

    #[test]
    fn single_part_concat_is_the_part_itself() {
        let part = rng::uniform(Shape4::new(2, 3, 3, 4), 12, -1.0, 1.0);
        let ptr = part.as_slice().as_ptr();
        let out = concat_parts(vec![part]).unwrap();
        assert_eq!(
            out.as_slice().as_ptr(),
            ptr,
            "a single part must not be copied"
        );
        let a = rng::uniform(Shape4::new(1, 3, 3, 4), 13, -1.0, 1.0);
        let b = rng::uniform(Shape4::new(2, 3, 3, 4), 14, -1.0, 1.0);
        let both = concat_parts(vec![a.clone(), b.clone()]).unwrap();
        assert_eq!(both, Tensor::concat_batch(&[a, b]).unwrap());
    }

    #[test]
    fn bias_applied_after_dequantization() {
        let input = Tensor::<f32>::zeros(Shape4::new(1, 2, 2, 1));
        let filter = rng::uniform_filter(FilterShape::new(1, 1, 1, 2), 11, -0.5, 0.5);
        let plan = plan_for(&filter);
        let lut = MulLut::exact(Signedness::Signed);
        let bias = [1.0f32, -2.0];
        let mut s = spec(&filter, &lut, ConvGeometry::default());
        s.bias = Some(&bias);
        let (out, _) = run_cpu_direct_prepared(&input, &s, input_q(), &plan).unwrap();
        for px in out.as_slice().chunks(2) {
            assert!((px[0] - 1.0).abs() < 1e-6);
            assert!((px[1] + 2.0).abs() < 1e-6);
        }
    }

    #[test]
    fn gpusim_profile_attributes_lut_phase() {
        let input = rng::uniform(Shape4::new(1, 6, 6, 2), 13, -1.0, 1.0);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 4), 14, -0.5, 0.5);
        let plan = plan_for(&filter);
        let lut = MulLut::exact(Signedness::Signed);
        let s = spec(&filter, &lut, ConvGeometry::default());
        let ctx = EmuContext::new(Backend::GpuSim);
        let (_, profile) = run_gpusim_prepared(&input, &s, input_q(), &plan, &ctx).unwrap();
        assert!(profile.seconds(Phase::LutLookup) > 0.0);
        assert!(profile.seconds(Phase::Quantization) > 0.0);
        assert!(profile.seconds(Phase::Other) > 0.0);
    }
}
