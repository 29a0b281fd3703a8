//! Image-to-columns: phase (i) of the paper's GEMM-based convolution.
//!
//! "The patch matrix in which each row corresponds to a single position of
//! the kernel is constructed (the image-to-columns phase)." Each row of the
//! produced matrix is one flattened receptive field; multiplying it with
//! the `patch_len × c_out` filter matrix yields the convolution output.

use crate::ops::Matrix;
use crate::{ConvGeometry, FilterShape, Shape4, Tensor, TensorError};

/// The patch matrix produced by [`im2col`], together with the output
/// spatial shape it corresponds to.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchMatrix {
    /// `rows = n·out_h·out_w`, `cols = kh·kw·c_in`; row-major.
    pub matrix: Matrix<f32>,
    /// Shape of the convolution output this patch matrix produces
    /// (channels = `c_out` once multiplied with a filter matrix).
    pub out_shape: Shape4,
}

/// Extract the patch matrix of `input` for the given filter geometry.
///
/// Out-of-bounds taps (from `SAME` padding) read as zero, which the
/// quantization scheme's exact-zero-point requirement exists to keep
/// error-free.
///
/// # Errors
///
/// Propagates the shape errors of [`ConvGeometry::output_shape`].
pub fn im2col(
    input: &Tensor<f32>,
    filter: FilterShape,
    geom: ConvGeometry,
) -> Result<PatchMatrix, TensorError> {
    let out = geom.output_shape(input.shape(), filter)?;
    let (pad_h, pad_w) = geom.pad_before(input.shape(), filter);
    let rows = out.n * out.h * out.w;
    let cols = filter.patch_len();
    let mut data = vec![0f32; rows * cols];
    let shape = input.shape();
    let src = input.as_slice();
    let mut row = 0usize;
    for n in 0..out.n {
        for oy in 0..out.h {
            for ox in 0..out.w {
                let base = row * cols;
                let mut col = 0usize;
                for ky in 0..filter.h {
                    let iy = (oy * geom.stride.0 + ky * geom.dilation.0) as isize - pad_h as isize;
                    for kx in 0..filter.w {
                        let ix =
                            (ox * geom.stride.1 + kx * geom.dilation.1) as isize - pad_w as isize;
                        if iy >= 0 && (iy as usize) < shape.h && ix >= 0 && (ix as usize) < shape.w
                        {
                            let from = shape.index(n, iy as usize, ix as usize, 0);
                            data[base + col..base + col + shape.c]
                                .copy_from_slice(&src[from..from + shape.c]);
                        }
                        // else: leave zeros (padding)
                        col += shape.c;
                    }
                }
                row += 1;
            }
        }
    }
    Ok(PatchMatrix {
        matrix: Matrix::from_vec(rows, cols, data).expect("sized above"),
        out_shape: Shape4::new(out.n, out.h, out.w, filter.c_out),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Padding;

    #[test]
    fn identity_kernel_patches_are_pixels() {
        let input = Tensor::from_fn(Shape4::new(1, 2, 2, 1), |_, h, w, _| (h * 2 + w) as f32);
        let pm = im2col(
            &input,
            FilterShape::new(1, 1, 1, 1),
            ConvGeometry::default(),
        )
        .unwrap();
        assert_eq!(pm.matrix.rows(), 4);
        assert_eq!(pm.matrix.cols(), 1);
        assert_eq!(pm.matrix.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn same_padding_reads_zeros_at_border() {
        let input = Tensor::<f32>::full(Shape4::new(1, 2, 2, 1), 1.0);
        let pm = im2col(
            &input,
            FilterShape::new(3, 3, 1, 1),
            ConvGeometry::default(),
        )
        .unwrap();
        // Top-left patch: 4 in-bounds ones, 5 padded zeros.
        let first: f32 = pm.matrix.as_slice()[..9].iter().sum();
        assert_eq!(first, 4.0);
    }

    #[test]
    fn valid_padding_no_zeros() {
        let input = Tensor::<f32>::full(Shape4::new(1, 4, 4, 2), 1.0);
        let pm = im2col(
            &input,
            FilterShape::new(3, 3, 2, 1),
            ConvGeometry::default().with_padding(Padding::Valid),
        )
        .unwrap();
        assert_eq!(pm.matrix.rows(), 4);
        assert!(pm.matrix.as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn stride_skips_positions() {
        let input = Tensor::from_fn(Shape4::new(1, 4, 4, 1), |_, h, w, _| (h * 4 + w) as f32);
        let pm = im2col(
            &input,
            FilterShape::new(1, 1, 1, 1),
            ConvGeometry::default().with_stride(2),
        )
        .unwrap();
        assert_eq!(pm.matrix.as_slice(), &[0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn channels_stay_contiguous_in_patch() {
        let input = Tensor::from_fn(Shape4::new(1, 1, 2, 3), |_, _, w, c| (w * 10 + c) as f32);
        let pm = im2col(
            &input,
            FilterShape::new(1, 2, 3, 1),
            ConvGeometry::default().with_padding(Padding::Valid),
        )
        .unwrap();
        assert_eq!(pm.matrix.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn out_shape_carries_filter_count() {
        let input = Tensor::<f32>::zeros(Shape4::new(2, 8, 8, 3));
        let pm = im2col(
            &input,
            FilterShape::new(3, 3, 3, 16),
            ConvGeometry::default(),
        )
        .unwrap();
        assert_eq!(pm.out_shape, Shape4::new(2, 8, 8, 16));
        assert_eq!(pm.matrix.rows(), 2 * 8 * 8);
        assert_eq!(pm.matrix.cols(), 27);
    }
}
