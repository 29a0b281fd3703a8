//! NHWC 4D tensor substrate for the TFApprox reproduction.
//!
//! The paper's `AxConv2D` operator consumes the same tensor contract as
//! TensorFlow's `Conv2D`: a batch of 3D images in **NHWC** layout
//! (Batch × Height × Width × Channels, channels fastest) and a filter bank
//! in **HWCF** layout (Height × Width × InChannels × OutChannels). This
//! crate provides those containers plus the geometry and reference
//! kernels every backend is tested against:
//!
//! - [`Shape4`] / [`FilterShape`] / [`ConvGeometry`]: shape algebra with
//!   stride, dilation, and `SAME`/`VALID` padding,
//! - [`Tensor`]: a dense generic 4D tensor,
//! - [`mod@im2col`]: the image-to-columns transform (phase (i) of the paper's
//!   GEMM-based convolution),
//! - [`ops`]: reference f32 matmul, direct convolution, element-wise ops
//!   and min/max reductions (the paper's inserted `Min`/`Max` nodes),
//! - [`rng`]: deterministic tensor fills for reproducible experiments.
//!
//! # Example
//!
//! ```
//! use axtensor::{ConvGeometry, FilterShape, Padding, Shape4, Tensor};
//!
//! # fn main() -> Result<(), axtensor::TensorError> {
//! let input = Tensor::<f32>::zeros(Shape4::new(1, 32, 32, 3));
//! let filter = FilterShape::new(3, 3, 3, 16);
//! let geom = ConvGeometry::default().with_padding(Padding::Same);
//! let out = geom.output_shape(input.shape(), filter)?;
//! assert_eq!(out, Shape4::new(1, 32, 32, 16));
//! # Ok(())
//! # }
//! ```

pub mod im2col;
pub mod ops;
pub mod rng;
pub mod segment;
pub mod shape;
pub mod tensor;

mod error;

pub use error::TensorError;
pub use im2col::{im2col, PatchMatrix};
pub use ops::{Filter, Matrix};
pub use segment::SegmentTable;
pub use shape::{ConvGeometry, FilterShape, Padding, Shape4};
pub use tensor::Tensor;
