//! Affine quantization for integer-arithmetic-only inference.
//!
//! Implements the quantization scheme the paper adopts from Jacob et al.
//! (Eq. 1): a real `r` maps to an integer `i` such that
//!
//! ```text
//! r = α · (i − β)
//! ```
//!
//! where `α` (*scale*) is a positive real and `β` (*zero-point*) an integer
//! of the same type as `i`, chosen so that real 0 is **exactly**
//! representable — critical because zero padding and many computations
//! produce exact zeros that must not inject quantization error.
//!
//! Provided here:
//!
//! - [`QuantParams`]: the `(α, β)` pair plus the quantized integer range,
//!   with `quantize` / `dequantize`,
//! - [`QuantRange`]: `[-128, 127]` (signed) or `[0, 255]` (unsigned), the
//!   "expected range of the quantized values" the paper passes to its
//!   approximate layer,
//! - [`RoundMode`]: the "requested round mode for the rounding applied
//!   during the quantization" — exact and branch-free inside a `±2²²`
//!   window ([`round::ROUND_WINDOW`]), which every quantized range fits
//!   in, so quantizing a slice vectorizes and never overflows,
//! - [`RangeTracker`]: the min/max observers inserted into the graph
//!   (Fig. 1) and evaluated once per batch.
//!
//! # Example
//!
//! ```
//! use axquant::{QuantParams, QuantRange, RoundMode};
//!
//! let p = QuantParams::from_range(-1.0, 3.0, QuantRange::i8(), RoundMode::NearestEven);
//! assert_eq!(p.quantize(0.0), p.zero_point()); // exact zero
//! let r = p.dequantize(p.quantize(2.5));
//! assert!((r - 2.5).abs() < p.scale());
//! ```

pub mod affine;
pub mod perchannel;
pub mod range;
pub mod round;

pub use affine::{QuantParams, QuantRange};
pub use perchannel::FilterQuantization;
pub use range::{segment_bounds, RangeTracker};
pub use round::RoundMode;
