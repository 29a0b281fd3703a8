//! **tfapprox** — fast emulation of DNN approximate hardware accelerators.
//!
//! A Rust reproduction of Vaverka, Mrazek, Vasicek, Sekanina: *TFApprox:
//! Towards a Fast Emulation of DNN Approximate Hardware Accelerators on
//! GPU* (DATE 2020). The paper's problem: evaluating a candidate
//! approximate multiplier inside a DNN accelerator requires emulating it in
//! software, which is 2–3 orders of magnitude slower than native float
//! inference. Its solution: express the quantized convolution through the
//! affine-quantization algebra (Eq. 1–4), emulate the 8×8 multiplier as a
//! 256×256 look-up table, and run a GEMM-formulated convolution on a GPU
//! with the LUT in texture memory.
//!
//! The crate's entry point is the **compiled-session API**:
//!
//! - [`SessionBuilder`]: owns every emulation knob — [`Backend`], device,
//!   chunk size, threads, and the multiplier [`Assignment`] (uniform, or
//!   per-layer in the ALWANN style),
//! - [`Session`]: the compiled model — the Fig. 1 graph transform applied
//!   once, every layer's [`PreparedFilter`] plan built **eagerly** (so
//!   configuration mistakes fail at compile time, not on the first
//!   forward), with [`Session::infer`], [`Session::infer_batches`]
//!   (returning the `tinit + tcomp` [`EmulationReport`]), and
//!   [`Session::reassign`] — the design-space hot path that recompiles
//!   while reusing the cached plans of unchanged layers,
//! - [`Error`]: the one error type every session operation returns,
//! - [`compile`]: bring-your-own multipliers — the [`axcompile`]
//!   circuit-to-LUT pipeline sharded over the session [`WorkerPool`], so a
//!   gate-level netlist compiles into a registered multiplier addressable
//!   by name everywhere a built-in is,
//! - [`serve`]: the multi-tenant serving tier — a [`SessionRegistry`]
//!   holds many compiled sessions behind an LRU (compile-on-miss via
//!   [`Session::reassign`] plan transplant), and a [`ServeEngine`]
//!   coalesces keyed submissions into per-tenant micro-batches with
//!   event-driven shard wakeup, SLO deadline shedding, explicit
//!   backpressure, p50/p95/p99 latency stats, and
//!   bit-identical-to-solo responses,
//! - [`prelude`]: one `use tfapprox::prelude::*` for all of the above.
//!
//! Underneath sits one execution path — session → transformed graph →
//! operator → one runner per backend → segmented kernel — with no hidden
//! legacy surface beside it:
//!
//! - [`AxConv2D`] / [`AxDense`]: the approximate operators — quantize per
//!   Eq. 1, multiply through the LUT, accumulate, dequantize with the
//!   Eq. 4 correction. Each runs a batch as segments with their own input
//!   ranges; a solo call is the one-segment case of the fused-batch path,
//! - [`Backend`]: `CpuDirect` (the nested-loop approach of ALWANN
//!   \[12\]), `CpuGemm` (im2col + GEMM on host threads), or `GpuSim`
//!   (Algorithm 1 on the simulated CUDA-capable device from [`gpusim`]),
//!   each with exactly one runner in [`backend`],
//! - [`PreparedFilter`] and [`WorkerPool`]: the prepared-execution engine,
//! - [`kernel`]: the tiled, thread-sharded LUT-GEMM microkernel behind
//!   `CpuGemm` — cache-blocked per [`TileConfig`], with LUT rows hoisted
//!   out of the inner loop,
//! - [`perfmodel`]: the calibrated extrapolation that regenerates Table I
//!   and Fig. 2 at the paper's full 10⁴-image scale.
//!
//! # Quickstart
//!
//! ```
//! use tfapprox::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A trained model and a candidate approximate multiplier.
//! let graph = axnn::resnet::ResNetConfig::with_depth(8)?.build(42)?;
//! let mult = axmult::catalog::by_name("mul8s_bam_v8h0")?;
//!
//! // Compile once: Conv2D -> AxConv2D (Fig. 1), every filter plan built
//! // eagerly, on the simulated GPU.
//! let session = Session::builder()
//!     .backend(Backend::GpuSim)
//!     .multiplier(&mult)
//!     .compile(&graph)?;
//! assert_eq!(session.replaced_layers(), 7);
//!
//! // Run many cheap inferences against the compiled model.
//! let input = axtensor::rng::uniform(axnn::resnet::cifar_input_shape(2), 1, -1.0, 1.0);
//! let (outputs, report) = session.infer_batches(std::slice::from_ref(&input))?;
//! assert_eq!(outputs[0].shape().c, 10);
//! assert_eq!(report.images, 2);
//!
//! // Move to the next design-space candidate: unchanged layers keep
//! // their prepared plans.
//! let precise = axmult::catalog::by_name("mul8s_exact")?;
//! let next = session.reassign(&Assignment::uniform(mult).with_layer(0, precise))?;
//! assert_eq!(next.multipliers()[0].name(), "mul8s_exact");
//! # Ok(())
//! # }
//! ```

pub mod accumulator;
pub mod assignment;
pub mod axconv2d;
pub mod axdense;
pub mod backend;
pub mod compile;
pub mod context;
pub mod kernel;
pub mod perfmodel;
pub mod pool;
pub mod prepared;
pub mod serve;
pub mod session;
pub mod sweep;

mod error;

pub use accumulator::Accumulator;
pub use assignment::Assignment;
pub use axconv2d::AxConv2D;
pub use axdense::AxDense;
pub use context::{Backend, EmuContext};
pub use error::{EmuError, Error};
pub use kernel::{auto_kernel, available_kernels, KernelKind, TileConfig};
pub use pool::WorkerPool;
pub use prepared::PreparedFilter;
pub use serve::{
    LatencyHistogram, RegistryStats, ServeConfig, ServeEngine, ServeError, ServeStats, SessionKey,
    SessionRegistry, TenantServeStats, Ticket,
};
pub use session::{EmulationReport, Session, SessionBuilder};
pub use sweep::sweep_uniform;

/// Everything a session-driven caller needs, in one import.
///
/// ```
/// use tfapprox::prelude::*;
/// let _ = Session::builder().backend(Backend::CpuGemm);
/// ```
pub mod prelude {
    pub use crate::accumulator::Accumulator;
    pub use crate::assignment::Assignment;
    pub use crate::compile::{compile_netlist, CompileRequest, CompiledMultiplier};
    pub use crate::context::{Backend, EmuContext};
    pub use crate::error::Error;
    pub use crate::kernel::{available_kernels, KernelKind, TileConfig};
    pub use crate::pool::WorkerPool;
    pub use crate::serve::{
        ServeConfig, ServeEngine, ServeError, ServeStats, SessionKey, SessionRegistry,
        TenantServeStats, Ticket,
    };
    pub use crate::session::{EmulationReport, Session, SessionBuilder};
    pub use crate::sweep::sweep_uniform;
    pub use axmult::{AxMultiplier, Signedness};
}
