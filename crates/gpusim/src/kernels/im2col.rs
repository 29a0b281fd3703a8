//! The quantizing image-to-columns kernel (phase (i) of Algorithm 1).
//!
//! "Each chunk is converted to a matrix of 8-bit integer values Mp, in
//! which each row (patch) corresponds to single position of the convolution
//! kernel. At the same time, the dequantization sum for each patch is also
//! computed and stored as a vector Sp."
//!
//! Two patch-sum strategies are modeled, matching the paper's discussion:
//!
//! - [`PatchSumStrategy::PrefixScan`]: the paper's choice — a fixed block
//!   size independent of the patch length; partial sums are extracted with
//!   a shared-memory prefix scan and combined with `atomicAdd`, "as the
//!   rest of the patch may be processed by other thread blocks".
//! - [`PatchSumStrategy::PerPatchThread`]: the rejected alternative — one
//!   thread per patch, which serializes the sum and makes global reads
//!   uncoalesced.

use super::{KernelRun, BLOCK_SIZE};
use crate::{EventCounts, Phase};
use axquant::QuantParams;
use axtensor::{ConvGeometry, FilterShape, Matrix, Shape4, Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// How per-patch dequantization sums are accumulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PatchSumStrategy {
    /// Shared-memory prefix scan + `atomicAdd` (the paper's solution).
    #[default]
    PrefixScan,
    /// One thread per patch (limits parallelism, uncoalesced reads).
    PerPatchThread,
}

/// The quantized patch matrix and its side products.
#[derive(Debug, Clone)]
pub struct QuantPatches {
    /// `rows × patch_len` matrix of 8-bit byte patterns (two's complement
    /// for signed quantization).
    pub matrix: Matrix<u8>,
    /// Per-row sums of the *logical* quantized values (`Σ ī`), the paper's
    /// vector `Sp`.
    pub patch_sums: Vec<i64>,
    /// Shape of the convolution output these patches produce.
    pub out_shape: Shape4,
}

/// The shape algebra of one quantizing im2col: which input pixels each
/// row of the patch matrix reads. Rows run image by image, then output
/// row, then output column — `n · out_h · out_w` of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchGeometry {
    input: Shape4,
    filter: FilterShape,
    geom: ConvGeometry,
    out: Shape4,
    pad: (usize, usize),
}

impl PatchGeometry {
    /// The geometry of `filter` under `geom` sliding over `input`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from [`ConvGeometry::output_shape`].
    pub fn new(
        input: Shape4,
        filter: FilterShape,
        geom: ConvGeometry,
    ) -> Result<Self, TensorError> {
        let out = geom.output_shape(input, filter)?;
        Ok(PatchGeometry {
            input,
            filter,
            geom,
            out,
            pad: geom.pad_before(input, filter),
        })
    }

    /// Shape of the convolution output these patches produce.
    #[must_use]
    pub fn out_shape(&self) -> Shape4 {
        self.out
    }

    /// Patch rows per image (`out_h · out_w`).
    #[must_use]
    pub fn rows_per_image(&self) -> usize {
        self.out.h * self.out.w
    }

    /// Patch length (`kh · kw · c_in`), the column count of the matrix.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.filter.patch_len()
    }
}

/// Elements [`quantize_pixels`] quantizes per block: small enough for its
/// `i32` values to stay in L1 between the passes over them.
const QUANT_BLOCK: usize = 2048;

/// Quantize a run of whole NHWC pixels once: `bytes[i]` receives the
/// 8-bit pattern of `src[i]` under `q` (two's complement for signed
/// ranges), and `sums[p]` the sum of the logical values of pixel `p`'s
/// `channels` elements — the channel run [`gather_patches`] copies into
/// a patch and folds into its `Sp`.
///
/// Works through blocks of whole pixels, quantizing each block with the
/// vectorized [`QuantParams::quantize_into`] before packing the bytes and
/// sums.
///
/// # Panics
///
/// Panics unless `bytes` matches `src` in length and `sums` holds one
/// slot per pixel.
pub fn quantize_pixels(
    src: &[f32],
    channels: usize,
    q: QuantParams,
    bytes: &mut [u8],
    sums: &mut [i64],
) {
    assert_eq!(src.len(), bytes.len(), "one byte per element");
    assert_eq!(src.len(), sums.len() * channels, "one sum per pixel");
    if channels == 0 {
        sums.fill(0);
        return;
    }
    let block = (QUANT_BLOCK / channels).max(1) * channels;
    let mut values = vec![0i32; block.min(src.len())];
    for ((src, bytes), sums) in src
        .chunks(block)
        .zip(bytes.chunks_mut(block))
        .zip(sums.chunks_mut(block / channels))
    {
        let values = &mut values[..src.len()];
        q.quantize_into(src, values);
        for (byte, &v) in bytes.iter_mut().zip(values.iter()) {
            *byte = v as u8;
        }
        for (sum, pixel) in sums.iter_mut().zip(values.chunks_exact(channels)) {
            *sum = pixel.iter().map(|&v| i64::from(v)).sum();
        }
    }
}

/// Gather patch rows `first_row .. first_row + sums.len()` of `geometry`
/// from pixels already quantized by [`quantize_pixels`] (`qbytes` and
/// `pixel_sums` cover the whole input of `geometry`): `rows` receives the
/// rows' bytes and `sums` their `Sp` sums. Out-of-bounds taps read real
/// 0, i.e. the zero-point `zero_q`.
///
/// Each row depends only on its own input pixels, so gathering any
/// partition of the rows — in any order, on any thread — assembles the
/// same matrix. Returns the number of in-bounds element reads.
///
/// # Panics
///
/// Panics unless `rows` holds `sums.len()` whole rows inside the matrix.
pub fn gather_patches(
    geometry: &PatchGeometry,
    qbytes: &[u8],
    pixel_sums: &[i64],
    zero_q: i32,
    first_row: usize,
    rows: &mut [u8],
    sums: &mut [i64],
) -> u64 {
    let PatchGeometry {
        input: shape,
        filter,
        geom,
        out,
        pad: (pad_h, pad_w),
    } = *geometry;
    let cols = geometry.cols();
    let c = shape.c;
    assert_eq!(rows.len(), sums.len() * cols, "whole rows");
    assert!(
        first_row + sums.len() <= out.n * geometry.rows_per_image(),
        "rows past the patch matrix"
    );
    if cols == 0 {
        sums.fill(0);
        return 0;
    }
    let zero_byte = zero_q as u8;
    let zero_run = i64::from(zero_q) * c as i64;
    let mut in_bounds_reads = 0u64;
    let run_len = filter.w * c;
    for (i, (row, sum_slot)) in rows.chunks_exact_mut(cols).zip(sums).enumerate() {
        let r = first_row + i;
        let (ox, oy, n) = (r % out.w, (r / out.w) % out.h, r / (out.w * out.h));
        let ix0 = (ox * geom.stride.1) as isize - pad_w as isize;
        // A patch row that lies wholly inside the input reads `filter.w`
        // consecutive pixels (undilated) — one copy per kernel row.
        let inner = geom.dilation.1 == 1 && ix0 >= 0 && ix0 as usize + filter.w <= shape.w;
        let mut sum = 0i64;
        for (ky, run) in row.chunks_exact_mut(run_len).enumerate() {
            let iy = (oy * geom.stride.0 + ky * geom.dilation.0) as isize - pad_h as isize;
            if iy < 0 || iy as usize >= shape.h {
                run.fill(zero_byte);
                sum += zero_run * filter.w as i64;
                continue;
            }
            // NHWC: the channel run of one (n, y, x) pixel is contiguous —
            // copy its pre-quantized bytes and fold its precomputed run
            // sum (the real kernel's coalesced read).
            let line = (n * shape.h + iy as usize) * shape.w;
            if inner {
                let first = line + ix0 as usize;
                in_bounds_reads += run_len as u64;
                run.copy_from_slice(&qbytes[first * c..(first + filter.w) * c]);
                sum += pixel_sums[first..first + filter.w].iter().sum::<i64>();
                continue;
            }
            for (kx, tap) in run.chunks_exact_mut(c).enumerate() {
                let ix = ix0 + (kx * geom.dilation.1) as isize;
                if ix >= 0 && (ix as usize) < shape.w {
                    let pixel = line + ix as usize;
                    in_bounds_reads += c as u64;
                    tap.copy_from_slice(&qbytes[pixel * c..(pixel + 1) * c]);
                    sum += pixel_sums[pixel];
                } else {
                    tap.fill(zero_byte);
                    sum += zero_run;
                }
            }
        }
        *sum_slot = sum;
    }
    in_bounds_reads
}

/// Run the quantizing im2col over one input chunk: [`quantize_pixels`]
/// over the whole chunk, then [`gather_patches`] over every row.
///
/// Out-of-bounds taps quantize real 0, which the affine scheme represents
/// exactly as the zero-point — so padding contributes `β₁` to `Sp` and is
/// cancelled exactly by the Eq. 4 correction.
///
/// Each input element is quantized exactly once, although overlapping
/// patches re-read the same pixel up to `filter.h × filter.w` times;
/// copying the precomputed byte (plus folding the per-pixel channel-run
/// sum, an exact i64 regrouping) is bit-identical to quantizing in place.
/// The modeled GPU event counts stay on the per-element-read accounting
/// of the real kernel.
///
/// # Errors
///
/// Propagates shape errors from [`ConvGeometry::output_shape`].
pub fn im2col_quant(
    chunk: &Tensor<f32>,
    filter: FilterShape,
    geom: ConvGeometry,
    input_q: QuantParams,
    strategy: PatchSumStrategy,
) -> Result<KernelRun<QuantPatches>, TensorError> {
    let geometry = PatchGeometry::new(chunk.shape(), filter, geom)?;
    let shape = chunk.shape();
    let rows = shape.n * geometry.rows_per_image();
    let cols = geometry.cols();

    let mut qbytes = vec![0u8; chunk.as_slice().len()];
    let mut pixel_sums = vec![0i64; shape.n * shape.h * shape.w];
    quantize_pixels(
        chunk.as_slice(),
        shape.c,
        input_q,
        &mut qbytes,
        &mut pixel_sums,
    );
    let mut data = vec![0u8; rows * cols];
    let mut sums = vec![0i64; rows];
    let in_bounds_reads = gather_patches(
        &geometry,
        &qbytes,
        &pixel_sums,
        input_q.quantize(0.0),
        0,
        &mut data,
        &mut sums,
    );

    let elements = (rows * cols) as u64;
    // Quantization work: one divide/round/clamp chain per element.
    let mut quant_ev = EventCounts::new();
    quant_ev.quant_ops = elements;

    // Patch extraction / data movement.
    let mut move_ev = EventCounts::new();
    move_ev.global_write_bytes = elements; // Mp is 1 byte/element
    move_ev.global_write_bytes += (rows * 8) as u64; // Sp vector
    match strategy {
        PatchSumStrategy::PrefixScan => {
            // Coalesced reads, one per in-bounds element.
            move_ev.global_read_bytes = in_bounds_reads * 4;
            // Prefix scan: stage + 2·log2(B) sweep accesses per element
            // amortize to ~3 shared ops per element.
            move_ev.shared_ops = elements * 3;
            // One atomicAdd per (block, patch) overlap: a block of
            // BLOCK_SIZE consecutive elements spans ceil(B/patch_len)+1
            // patch boundaries.
            let blocks = (rows * cols).div_ceil(BLOCK_SIZE) as u64;
            let per_block = (BLOCK_SIZE as u64).div_ceil(cols as u64) + 1;
            move_ev.atomic_ops = blocks * per_block;
        }
        PatchSumStrategy::PerPatchThread => {
            // One thread walks a whole patch: reads are uncoalesced; a
            // warp touches scattered addresses, so effective DRAM traffic
            // inflates (×4, a typical uncoalesced penalty).
            move_ev.global_read_bytes = in_bounds_reads * 4 * 4;
            // The serial per-thread sum is plain ALU work.
            move_ev.alu_ops = elements;
        }
    }

    Ok(KernelRun {
        output: QuantPatches {
            matrix: Matrix::from_vec(rows, cols, data).expect("sized above"),
            patch_sums: sums,
            out_shape: geometry.out_shape(),
        },
        events: vec![(Phase::Quantization, quant_ev), (Phase::Other, move_ev)],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use axquant::{QuantRange, RoundMode};
    use axtensor::{rng, Padding};

    fn qparams(lo: f32, hi: f32) -> QuantParams {
        QuantParams::from_range(lo, hi, QuantRange::i8(), RoundMode::NearestEven)
    }

    #[test]
    fn bytes_match_host_quantization() {
        let t = rng::uniform(Shape4::new(1, 4, 4, 2), 9, -1.0, 1.0);
        let q = qparams(-1.0, 1.0);
        let run = im2col_quant(
            &t,
            FilterShape::new(1, 1, 2, 3),
            ConvGeometry::default(),
            q,
            PatchSumStrategy::PrefixScan,
        )
        .unwrap();
        // 1x1 kernel: patch r equals pixel r; check quantized bytes.
        for (i, &v) in t.as_slice().iter().enumerate() {
            let expect = (q.quantize(v) & 0xFF) as u8;
            assert_eq!(run.output.matrix.as_slice()[i], expect);
        }
    }

    #[test]
    fn matches_quantized_f32_im2col_across_geometries() {
        // The f32 reference im2col pads with real 0, which quantizes to
        // the zero-point: quantizing its matrix element by element must
        // give the same bytes and row sums, on interior and border rows.
        let geoms = [
            ConvGeometry::default(),
            ConvGeometry::default().with_stride(2),
            ConvGeometry::default().with_padding(Padding::Valid),
            ConvGeometry::default()
                .with_dilation(2)
                .with_padding(Padding::Valid),
            ConvGeometry::default().with_dilation(2),
        ];
        for c in [1, 3, 64] {
            let t = rng::uniform(Shape4::new(2, 7, 6, c), c as u64, -1.0, 2.0);
            let q = qparams(-1.0, 2.0);
            for geom in geoms {
                for filter in [FilterShape::new(3, 3, c, 2), FilterShape::new(1, 2, c, 2)] {
                    let run =
                        im2col_quant(&t, filter, geom, q, PatchSumStrategy::PrefixScan).unwrap();
                    let reference = axtensor::im2col(&t, filter, geom).unwrap().matrix;
                    let bytes: Vec<u8> = reference
                        .as_slice()
                        .iter()
                        .map(|&v| q.quantize(v) as u8)
                        .collect();
                    assert_eq!(run.output.matrix.as_slice(), &bytes[..], "{geom:?} c={c}");
                    for (r, &sum) in run.output.patch_sums.iter().enumerate() {
                        let want: i64 = reference
                            .row(r)
                            .iter()
                            .map(|&v| i64::from(q.quantize(v)))
                            .sum();
                        assert_eq!(sum, want, "row {r}, {geom:?} c={c}");
                    }
                }
            }
        }
    }

    #[test]
    fn patch_sums_are_logical_sums() {
        let t = rng::uniform(Shape4::new(1, 3, 3, 1), 4, -2.0, 2.0);
        let q = qparams(-2.0, 2.0);
        let run = im2col_quant(
            &t,
            FilterShape::new(3, 3, 1, 1),
            ConvGeometry::default().with_padding(Padding::Valid),
            q,
            PatchSumStrategy::PrefixScan,
        )
        .unwrap();
        let expect: i64 = t.as_slice().iter().map(|&v| i64::from(q.quantize(v))).sum();
        assert_eq!(run.output.patch_sums, vec![expect]);
    }

    #[test]
    fn padding_contributes_zero_point() {
        let t = Tensor::<f32>::full(Shape4::new(1, 1, 1, 1), 1.0);
        let q = qparams(-1.0, 1.0);
        let run = im2col_quant(
            &t,
            FilterShape::new(3, 3, 1, 1),
            ConvGeometry::default(), // SAME: 8 padded taps
            q,
            PatchSumStrategy::PrefixScan,
        )
        .unwrap();
        let zp = i64::from(q.quantize(0.0));
        let center = i64::from(q.quantize(1.0));
        assert_eq!(run.output.patch_sums[0], center + 8 * zp);
    }

    #[test]
    fn strategies_agree_functionally() {
        let t = rng::uniform(Shape4::new(2, 5, 5, 3), 1, -1.0, 1.0);
        let q = qparams(-1.0, 1.0);
        let a = im2col_quant(
            &t,
            FilterShape::new(3, 3, 3, 4),
            ConvGeometry::default(),
            q,
            PatchSumStrategy::PrefixScan,
        )
        .unwrap();
        let b = im2col_quant(
            &t,
            FilterShape::new(3, 3, 3, 4),
            ConvGeometry::default(),
            q,
            PatchSumStrategy::PerPatchThread,
        )
        .unwrap();
        assert_eq!(a.output.matrix, b.output.matrix);
        assert_eq!(a.output.patch_sums, b.output.patch_sums);
    }

    #[test]
    fn per_patch_strategy_reads_more_dram() {
        let t = rng::uniform(Shape4::new(1, 8, 8, 4), 2, -1.0, 1.0);
        let q = qparams(-1.0, 1.0);
        let scan = im2col_quant(
            &t,
            FilterShape::new(3, 3, 4, 8),
            ConvGeometry::default(),
            q,
            PatchSumStrategy::PrefixScan,
        )
        .unwrap()
        .total_events();
        let per = im2col_quant(
            &t,
            FilterShape::new(3, 3, 4, 8),
            ConvGeometry::default(),
            q,
            PatchSumStrategy::PerPatchThread,
        )
        .unwrap()
        .total_events();
        assert!(per.global_read_bytes > scan.global_read_bytes);
        assert_eq!(per.atomic_ops, 0);
        assert!(scan.atomic_ops > 0);
    }

    #[test]
    fn shape_errors_propagate() {
        let t = Tensor::<f32>::zeros(Shape4::new(1, 2, 2, 3));
        let q = qparams(-1.0, 1.0);
        assert!(im2col_quant(
            &t,
            FilterShape::new(3, 3, 4, 8), // channel mismatch
            ConvGeometry::default(),
            q,
            PatchSumStrategy::PrefixScan,
        )
        .is_err());
    }
}
