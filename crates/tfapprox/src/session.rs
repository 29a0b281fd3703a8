//! The compiled-model entry point: build once, infer many times.
//!
//! [`Session::infer_batches`] also produces Table I's `tinit + tcomp`
//! decomposition: a constant initialization (context creation,
//! allocation, data transfer) plus a computation time that grows linearly
//! with the number of MACs, in an [`EmulationReport`].

#![deny(missing_docs)]

use crate::kernel::KernelKind;
use crate::{Accumulator, Assignment, AxConv2D, Backend, EmuContext, Error, TileConfig};
use axmult::AxMultiplier;
use axnn::Graph;
use axtensor::{SegmentTable, Tensor};
use gpusim::{DeviceConfig, Phase, PhaseProfile};
use std::sync::Arc;
use std::time::Instant;

/// Modeled constant CPU-side initialization (framework start-up, weight
/// loading) — Table I's CPU `tinit` is 0.2–0.3 s and flat.
pub const CPU_INIT_S: f64 = 0.25;

/// Result of one emulated inference run.
#[derive(Debug, Clone, Copy)]
pub struct EmulationReport {
    /// The backend that executed the run.
    pub backend: Backend,
    /// Initialization seconds (constant for a given dataset).
    pub tinit: f64,
    /// Computation seconds (linear in MACs).
    pub tcomp: f64,
    /// Phase breakdown of `tinit + tcomp` (Fig. 2).
    pub profile: PhaseProfile,
    /// Images processed.
    pub images: usize,
    /// The LUT-GEMM kernel arm that executed the host GEMM (a
    /// [`KernelKind`] name), or `"none"` for backends that never enter
    /// the host LUT-GEMM (direct CPU loops, the simulated GPU).
    pub kernel: &'static str,
}

impl EmulationReport {
    /// Total time `tinit + tcomp`.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.tinit + self.tcomp
    }

    /// Emulated-inference throughput, `images / (tinit + tcomp)` — the
    /// figure of merit the paper's speedup columns compare.
    ///
    /// Returns an explicit 0.0 — never a division by zero or a NaN — for
    /// degenerate runs: zero images (zero-batch inputs are legal and flow
    /// through every backend) or zero total time.
    #[must_use]
    pub fn images_per_second(&self) -> f64 {
        let total = self.total();
        if self.images == 0 || total <= 0.0 {
            0.0
        } else {
            self.images as f64 / total
        }
    }
}

/// Modeled `tinit` for the simulated GPU: context creation plus PCIe
/// transfer of the dataset and the 128 kB LUT (weights are comparatively
/// negligible for the CIFAR ResNets).
#[must_use]
pub fn gpu_init_seconds(dev: &DeviceConfig, dataset_bytes: u64) -> f64 {
    dev.context_init_s + dev.transfer_seconds(dataset_bytes + axmult::lut::LUT_BYTES as u64)
}

/// Configures and compiles a [`Session`].
///
/// The builder owns every emulation knob — backend, simulated device,
/// Algorithm-1 chunk size, host worker threads, and the multiplier
/// [`Assignment`] — so a compiled session is fully determined by one
/// `compile` call and the graph it transformed.
///
/// # Example
///
/// ```
/// use tfapprox::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = axnn::resnet::ResNetConfig::with_depth(8)?.build(42)?;
/// let mult = axmult::catalog::by_name("mul8s_exact")?;
/// let session = Session::builder()
///     .backend(Backend::CpuGemm)
///     .chunk_size(4)
///     .multiplier(&mult)
///     .compile(&graph)?;
/// assert_eq!(session.replaced_layers(), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    backend: Backend,
    device: Option<DeviceConfig>,
    chunk_size: Option<usize>,
    threads: Option<usize>,
    tiles: Option<TileConfig>,
    kernel: Option<KernelKind>,
    assignment: Option<Assignment>,
    /// A multiplier name to resolve at compile time (catalog, then the
    /// process-wide registry). Mutually exclusive with `assignment`;
    /// whichever was set last wins.
    named_multiplier: Option<String>,
    accumulator: Accumulator,
}

impl SessionBuilder {
    /// A builder with the default backend ([`Backend::GpuSim`]) and
    /// device, and no multiplier assigned yet.
    #[must_use]
    pub fn new() -> Self {
        SessionBuilder {
            backend: Backend::default(),
            device: None,
            chunk_size: None,
            threads: None,
            tiles: None,
            kernel: None,
            assignment: None,
            named_multiplier: None,
            accumulator: Accumulator::default(),
        }
    }

    /// Select where the emulation runs.
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Use an explicit simulated-device configuration (default:
    /// GTX-1080-class).
    #[must_use]
    pub fn device(mut self, device: DeviceConfig) -> Self {
        self.device = Some(device);
        self
    }

    /// Override the Algorithm-1 chunk size (images per chunk). Validated
    /// at [`SessionBuilder::compile`]: zero is a compile error, not a
    /// runtime misbehaviour.
    #[must_use]
    pub fn chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = Some(chunk_size);
        self
    }

    /// Override the host worker-thread count (default: available
    /// parallelism). Validated at [`SessionBuilder::compile`].
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Override the cache-blocking panel sizes of the tiled host LUT-GEMM
    /// (the [`Backend::CpuGemm`] hot path); zero-sized panels are already
    /// rejected by [`TileConfig::new`].
    #[must_use]
    pub fn tile_config(mut self, tiles: TileConfig) -> Self {
        self.tiles = Some(tiles);
        self
    }

    /// Force a specific LUT-GEMM kernel arm for the host GEMM backend
    /// instead of the process-wide automatic choice
    /// ([`crate::kernel::auto_kernel`]). [`KernelKind::ScalarTiled`] is
    /// the always-available forced-scalar escape hatch; every arm is
    /// bit-identical, so this knob can only change speed, never results.
    /// Validated at [`SessionBuilder::compile`]: an arm this host cannot
    /// execute is a compile error, not a silent downgrade.
    #[must_use]
    pub fn kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = Some(kernel);
        self
    }

    /// Set the MAC accumulator model of every emulated convolution (CPU
    /// backends; the simulated GPU accumulates in 32-bit float like the
    /// paper's kernel and ignores this knob). Default:
    /// [`Accumulator::Exact`].
    #[must_use]
    pub fn accumulator(mut self, accumulator: Accumulator) -> Self {
        self.accumulator = accumulator;
        self
    }

    /// Emulate one multiplier in every convolution layer — shorthand for
    /// [`SessionBuilder::assignment`] with [`Assignment::uniform`].
    #[must_use]
    pub fn multiplier(self, mult: &AxMultiplier) -> Self {
        self.assignment(Assignment::uniform(mult.clone()))
    }

    /// Emulate one multiplier in every convolution layer, resolved *by
    /// name* at [`SessionBuilder::compile`] — built-in catalog entries
    /// first, then the process-wide [`axmult::registry`], so multipliers
    /// compiled at runtime (see [`crate::compile`]) work exactly like
    /// built-ins. An unknown name is a compile-time [`Error`] carrying the
    /// usual "did you mean" suggestion.
    #[must_use]
    pub fn multiplier_named(mut self, name: impl Into<String>) -> Self {
        self.assignment = None;
        self.named_multiplier = Some(name.into());
        self
    }

    /// Use a per-layer multiplier [`Assignment`] (the ALWANN use case).
    #[must_use]
    pub fn assignment(mut self, assignment: Assignment) -> Self {
        self.assignment = Some(assignment);
        self.named_multiplier = None;
        self
    }

    /// Validate the configuration and build the shared emulation context.
    fn build_context(&self) -> Result<Arc<EmuContext>, Error> {
        let mut ctx = match &self.device {
            Some(dev) => EmuContext::with_device(self.backend, dev.clone()),
            None => EmuContext::new(self.backend),
        };
        if let Some(chunk) = self.chunk_size {
            ctx = ctx.with_chunk_size(chunk)?;
        }
        if let Some(threads) = self.threads {
            ctx = ctx.with_threads(threads)?;
        }
        if let Some(tiles) = self.tiles {
            ctx = ctx.with_tile_config(tiles);
        }
        if let Some(kernel) = self.kernel {
            ctx = ctx.with_kernel(kernel)?;
        }
        Ok(Arc::new(ctx))
    }

    /// Transform `graph` (Conv2D → `AxConv2D` with `Min`/`Max` observers,
    /// Fig. 1) and **eagerly** build every layer's prepared-execution
    /// plan, so anything that would previously fail lazily on the first
    /// forward — non-finite weights, a bad configuration — fails here.
    ///
    /// # Errors
    ///
    /// - [`Error::Config`] if no multiplier/assignment was set, the chunk
    ///   size or thread count is zero, or the assignment does not match
    ///   the graph's convolution-layer count.
    /// - Propagates graph-transform and plan-build failures.
    pub fn compile(&self, graph: &Graph) -> Result<Session, Error> {
        let assignment = match (&self.assignment, &self.named_multiplier) {
            (Some(a), _) => a.clone(),
            (None, Some(name)) => Assignment::uniform_named(name)?,
            (None, None) => {
                return Err(Error::Config(
                    "no multiplier assigned: call .multiplier(..), .multiplier_named(..) or \
                     .assignment(..) before compile"
                        .to_owned(),
                ))
            }
        };
        let ctx = self.build_context()?;
        let mults = assignment.resolve(graph.conv_layer_count())?;
        let accumulator = self.accumulator;
        let (transformed, layers, replaced) = rewrite_with_mults(graph, &mults, |conv, mult| {
            Arc::new(
                AxConv2D::from_conv2d(conv, mult, Arc::clone(&ctx)).with_accumulator(accumulator),
            )
        })?;
        let session = Session {
            source: graph.clone(),
            graph: transformed,
            layers,
            mults,
            ctx,
            accumulator,
            replaced,
        };
        session.prepare_all()?;
        Ok(session)
    }
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Rewrite `graph`'s convolutions, producing one layer per resolved
/// multiplier via `make`, and collect the concrete `AxConv2D` handles so
/// the session can prepare and later reuse their plans.
fn rewrite_with_mults(
    graph: &Graph,
    mults: &[AxMultiplier],
    mut make: impl FnMut(&axnn::layers::Conv2D, &AxMultiplier) -> Arc<AxConv2D>,
) -> Result<(Graph, Vec<Arc<AxConv2D>>, usize), Error> {
    let mut layers: Vec<Arc<AxConv2D>> = Vec::with_capacity(mults.len());
    let (transformed, replaced) = graph.rewrite_convs(|conv| {
        let mult = &mults[layers.len()];
        let ax = make(conv, mult);
        layers.push(Arc::clone(&ax));
        ax
    })?;
    // `conv_layer_count` counts every `*Conv2D` op (the paper's `L`),
    // but only accurate `Conv2D` nodes are rewritable — compiling an
    // already-transformed graph would silently keep its old multipliers.
    if replaced != mults.len() {
        return Err(Error::Config(format!(
            "graph has {} convolution layers but only {replaced} are rewritable Conv2D \
             nodes — was it already transformed (e.g. a Session's own graph)?",
            mults.len()
        )));
    }
    Ok((transformed, layers, replaced))
}

/// A compiled approximate model: the transformed graph, the shared
/// emulation context, and every layer's eagerly-built prepared-execution
/// plan.
///
/// A session is the unit of the design-space loop: compile once, call
/// [`Session::infer`] / [`Session::infer_batches`] many times, and move
/// to the next candidate with [`Session::reassign`] — which recompiles
/// while reusing the cached plans of every layer whose multiplier did not
/// change.
///
/// # Example
///
/// ```
/// use tfapprox::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = axnn::resnet::ResNetConfig::with_depth(8)?.build(42)?;
/// let mult = axmult::catalog::by_name("mul8s_bam_v8h0")?;
/// let session = Session::builder().multiplier(&mult).compile(&graph)?;
///
/// let input = axtensor::rng::uniform(axnn::resnet::cifar_input_shape(2), 1, -1.0, 1.0);
/// let probs = session.infer(&input)?;
/// assert_eq!(probs.shape().c, 10);
///
/// let (outputs, report) = session.infer_batches(std::slice::from_ref(&input))?;
/// assert_eq!(outputs.len(), 1);
/// assert_eq!(report.images, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Session {
    /// The untransformed source graph, kept so `reassign` can rewrite it
    /// again without the caller holding on to it.
    source: Graph,
    /// The transformed (approximate) graph.
    graph: Graph,
    /// The `AxConv2D` nodes of `graph`, in topological order.
    layers: Vec<Arc<AxConv2D>>,
    /// The resolved multiplier of each layer, same order as `layers`.
    mults: Vec<AxMultiplier>,
    ctx: Arc<EmuContext>,
    /// The MAC accumulator model every layer was compiled with.
    accumulator: Accumulator,
    replaced: usize,
}

impl Session {
    /// Start configuring a session.
    #[must_use]
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// Eagerly build every layer's prepared plan (idempotent per layer).
    fn prepare_all(&self) -> Result<(), Error> {
        for layer in &self.layers {
            layer.prepare()?;
        }
        Ok(())
    }

    /// Run one inference batch through the compiled graph.
    ///
    /// # Errors
    ///
    /// Propagates graph execution failures.
    pub fn infer(&self, input: &Tensor<f32>) -> Result<Tensor<f32>, Error> {
        Ok(self.graph.forward(input)?)
    }

    /// Run several independent requests through the compiled graph as
    /// **one fused batch** — one graph sweep, one segmented LUT-GEMM per
    /// layer chunk — and split the outputs back per request.
    ///
    /// The requests are concatenated along the batch axis with a
    /// [`SegmentTable`] marking their spans; every range-observing node
    /// resolves its quantization *per segment*, so the result is
    /// **bit-identical** to calling [`Session::infer`] on each request
    /// alone, for every backend, accumulator model, and batch
    /// composition (zero-image requests included). This is what makes
    /// serve-tier micro-batching profitable: the per-layer dispatch,
    /// worker-pool synchronization, and GEMM setup are paid once per
    /// fused batch instead of once per request.
    ///
    /// An empty request list produces an empty output list.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the requests disagree on `h`/`w`/`c`;
    /// propagates graph execution failures.
    pub fn infer_fused(&self, requests: &[Tensor<f32>]) -> Result<Vec<Tensor<f32>>, Error> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let counts: Vec<usize> = requests.iter().map(|t| t.shape().n).collect();
        let segments = SegmentTable::from_counts(&counts);
        let fused = Tensor::concat_batch(requests)?;
        let out = self.graph.forward_segmented(&fused, &segments)?;
        Ok(segments
            .iter()
            .map(|(start, end)| out.batch_slice(start, end - start))
            .collect())
    }

    /// Run the compiled graph over evaluation batches, producing the
    /// per-batch outputs and the `tinit + tcomp` [`EmulationReport`]
    /// (Table I's decomposition; the profile carries the Fig. 2 phase
    /// split).
    ///
    /// For CPU backends `tcomp` is real measured wall-clock, with the
    /// time outside the convolution layers charged to `Other`; for the
    /// simulated GPU it is the modeled time the layers accumulate in the
    /// context's profile plus a DRAM charge for the non-convolution
    /// layers. Every plan was built at compile time, so no report carries
    /// a one-off filter-quantization charge: every call reports the
    /// steady state.
    ///
    /// Exactly one output tensor is produced per input batch. Zero-image
    /// runs are legal in both shapes — an empty `batches` list and
    /// zero-image batch tensors (which yield shaped-empty outputs) — and
    /// report identically: `images == 0`, an explicit 0.0 throughput,
    /// `tinit` still charged (on the modeled GPU backend the two shapes
    /// produce bit-identical reports; on CPU backends `tcomp` is
    /// wall-clock and differs only by measurement noise).
    ///
    /// # Errors
    ///
    /// Propagates graph execution failures.
    pub fn infer_batches(
        &self,
        batches: &[Tensor<f32>],
    ) -> Result<(Vec<Tensor<f32>>, EmulationReport), Error> {
        let ctx = &self.ctx;
        ctx.reset_profile();
        let mut outputs = Vec::with_capacity(batches.len());
        let mut images = 0usize;
        let mut dataset_bytes = 0u64;
        let wall = Instant::now();
        for batch in batches {
            images += batch.shape().n;
            dataset_bytes += batch.shape().len() as u64 * 4;
            outputs.push(self.graph.forward(batch)?);
        }
        let wall_s = wall.elapsed().as_secs_f64();

        let mut profile = ctx.profile();
        let (tinit, tcomp) = match ctx.backend() {
            Backend::CpuDirect | Backend::CpuGemm => {
                // Real measured time; phases inside the conv layers were
                // measured too. Attribute the non-conv remainder to Other.
                let remainder = (wall_s - profile.total()).max(0.0);
                profile.add(Phase::Other, remainder);
                (CPU_INIT_S, wall_s)
            }
            Backend::GpuSim => {
                // Modeled conv time is in the profile; charge the
                // element-wise layers (BN, ReLU, Add, pooling) as DRAM
                // traffic.
                let elementwise_bytes = dataset_bytes * 8; // read+write few passes
                profile.add(
                    Phase::Other,
                    elementwise_bytes as f64 / ctx.device().dram_bytes_per_s,
                );
                (
                    gpu_init_seconds(ctx.device(), dataset_bytes),
                    profile.total(),
                )
            }
        };
        profile.add(Phase::Init, tinit);
        let kernel = match ctx.backend() {
            Backend::CpuGemm => ctx.kernel().name(),
            Backend::CpuDirect | Backend::GpuSim => "none",
        };
        let report = EmulationReport {
            backend: ctx.backend(),
            tinit,
            tcomp,
            profile,
            images,
            kernel,
        };
        Ok((outputs, report))
    }

    /// Recompile with a new multiplier [`Assignment`], **reusing the
    /// cached prepared plan** of every layer whose multiplier is
    /// unchanged — and, for changed layers of the same signedness,
    /// transplanting the plan outright (the plan depends on the filter
    /// and the quantized range, not on the LUT contents). This makes the
    /// ALWANN design-space loop's per-candidate cost input-side only.
    ///
    /// The new session shares this session's emulation context (backend,
    /// device, texture cache, worker pool); this session stays usable.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] if the assignment does not resolve
    /// against the graph's convolution-layer count; propagates
    /// graph-transform and plan-build failures.
    pub fn reassign(&self, assignment: &Assignment) -> Result<Session, Error> {
        let mults = assignment.resolve(self.mults.len())?;
        let mut index = 0usize;
        let (transformed, layers, replaced) =
            rewrite_with_mults(&self.source, &mults, |conv, mult| {
                let i = index;
                index += 1;
                let old_layer = &self.layers[i];
                let old_mult = &self.mults[i];
                if mult.lut() == old_mult.lut() {
                    // Unchanged multiplier: the whole layer (and its
                    // cached plan) is reusable as-is.
                    return Arc::clone(old_layer);
                }
                let fresh = AxConv2D::from_conv2d(conv, mult, Arc::clone(&self.ctx))
                    .with_accumulator(self.accumulator);
                if mult.signedness() == old_mult.signedness() {
                    if let Some(plan) = old_layer.cached_plan() {
                        fresh.seed_plan(plan);
                    }
                }
                Arc::new(fresh)
            })?;
        let session = Session {
            source: self.source.clone(),
            graph: transformed,
            layers,
            mults,
            ctx: Arc::clone(&self.ctx),
            accumulator: self.accumulator,
            replaced,
        };
        session.prepare_all()?;
        Ok(session)
    }

    /// The backend this session emulates on.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.ctx.backend()
    }

    /// The MAC accumulator model every convolution layer was compiled
    /// with.
    #[must_use]
    pub fn accumulator(&self) -> Accumulator {
        self.accumulator
    }

    /// The shared emulation context (profiles, events, texture cache).
    #[must_use]
    pub fn context(&self) -> &Arc<EmuContext> {
        &self.ctx
    }

    /// The LUT-GEMM kernel arm this session's host GEMM dispatches to
    /// (selected at compile; see [`SessionBuilder::kernel`]).
    #[must_use]
    pub fn kernel(&self) -> KernelKind {
        self.ctx.kernel()
    }

    /// The transformed (approximate) graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// How many `Conv2D` layers were replaced by `AxConv2D` — the
    /// paper's `L`.
    #[must_use]
    pub fn replaced_layers(&self) -> usize {
        self.replaced
    }

    /// The resolved multiplier of each convolution layer, in topological
    /// order.
    #[must_use]
    pub fn multipliers(&self) -> &[AxMultiplier] {
        &self.mults
    }

    /// Names of the convolution layers, in topological order — the
    /// indices an [`Assignment`] addresses.
    #[must_use]
    pub fn conv_layer_names(&self) -> Vec<&str> {
        self.source.conv_layers().map(|(_, name)| name).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axnn::resnet::{cifar_input_shape, ResNetConfig};
    use axtensor::rng;

    fn exact() -> AxMultiplier {
        axmult::catalog::by_name("mul8s_exact").unwrap()
    }

    fn rough() -> AxMultiplier {
        axmult::catalog::by_name("mul8s_bam_v8h0").unwrap()
    }

    #[test]
    fn compile_requires_a_multiplier() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(1).unwrap();
        let err = Session::builder().compile(&graph).unwrap_err();
        assert!(err.to_string().contains("no multiplier"), "{err}");
    }

    #[test]
    fn compile_resolves_named_multipliers() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(1).unwrap();

        // A catalog name resolves identically to passing the multiplier.
        let named = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier_named("mul8s_exact")
            .compile(&graph)
            .unwrap();
        assert!(named
            .multipliers()
            .iter()
            .all(|m| m.name() == "mul8s_exact"));

        // A registered (bring-your-own) name resolves the same way.
        axmult::registry::register(AxMultiplier::new(
            "ses_test_registered",
            "registry entry for session test",
            axmult::MulLut::exact(axmult::Signedness::Signed),
            None,
        ))
        .unwrap();
        let custom = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier_named("ses_test_registered")
            .compile(&graph)
            .unwrap();
        assert!(custom
            .multipliers()
            .iter()
            .all(|m| m.name() == "ses_test_registered"));
        axmult::registry::unregister("ses_test_registered");

        // Typos fail at compile time with the did-you-mean treatment.
        let err = Session::builder()
            .multiplier_named("mul8s_exakt")
            .compile(&graph)
            .unwrap_err();
        assert!(err.to_string().contains("did you mean"), "{err}");

        // Whichever of name/assignment was set last wins.
        let last_wins = Session::builder()
            .multiplier(&rough())
            .multiplier_named("mul8s_exact")
            .compile(&graph)
            .unwrap();
        assert!(last_wins
            .multipliers()
            .iter()
            .all(|m| m.name() == "mul8s_exact"));
    }

    #[test]
    fn compile_rejects_zero_chunk_and_threads() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(1).unwrap();
        let err = Session::builder()
            .multiplier(&exact())
            .chunk_size(0)
            .compile(&graph)
            .unwrap_err();
        assert!(err.to_string().contains("chunk size"), "{err}");
        let err = Session::builder()
            .multiplier(&exact())
            .threads(0)
            .compile(&graph)
            .unwrap_err();
        assert!(err.to_string().contains("thread count"), "{err}");
    }

    #[test]
    fn kernel_override_is_honored_and_defaults_to_auto() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(1).unwrap();
        let auto = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .compile(&graph)
            .unwrap();
        assert_eq!(auto.kernel(), crate::kernel::auto_kernel());
        let forced = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .kernel(KernelKind::ScalarTiled)
            .compile(&graph)
            .unwrap();
        assert_eq!(forced.kernel(), KernelKind::ScalarTiled);
    }

    #[test]
    fn compile_is_eager_lazy_failures_surface_at_compile_time() {
        // A graph whose conv weights are non-finite used to fail on the
        // first forward; with the session API it cannot even compile.
        use axnn::layers::Conv2D;
        use axtensor::{ConvGeometry, Filter, FilterShape};
        let mut g = Graph::new();
        let x = g.input();
        let mut w = vec![0.1f32; 9];
        w[4] = f32::NAN;
        let conv = Conv2D::new(
            Filter::from_vec(FilterShape::new(3, 3, 1, 1), w).unwrap(),
            ConvGeometry::default(),
        );
        let c = g.add("bad", Arc::new(conv), &[x]).unwrap();
        g.set_output(c).unwrap();
        let err = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .compile(&g)
            .unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }

    #[test]
    fn compile_rejects_an_already_transformed_graph() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(1).unwrap();
        let session = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .compile(&graph)
            .unwrap();
        // The transformed graph's AxConv2D nodes are not rewritable:
        // recompiling it must fail loudly, not keep the old multipliers.
        let err = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&rough())
            .compile(session.graph())
            .unwrap_err();
        assert!(err.to_string().contains("already transformed"), "{err}");
    }

    #[test]
    fn compile_prepares_every_layer() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(2).unwrap();
        let session = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .compile(&graph)
            .unwrap();
        assert_eq!(session.replaced_layers(), 7);
        assert_eq!(session.conv_layer_names().len(), 7);
        assert!(session.layers.iter().all(|l| l.is_prepared()));
    }

    #[test]
    fn infer_matches_direct_graph_forward() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(3).unwrap();
        let session = Session::builder()
            .backend(Backend::CpuGemm)
            .chunk_size(2)
            .multiplier(&rough())
            .compile(&graph)
            .unwrap();
        let input = rng::uniform(cifar_input_shape(2), 7, -1.0, 1.0);
        let a = session.infer(&input).unwrap();
        let b = session.graph().forward(&input).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn infer_batches_reports_images() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(4).unwrap();
        let session = Session::builder()
            .backend(Backend::GpuSim)
            .chunk_size(2)
            .multiplier(&exact())
            .compile(&graph)
            .unwrap();
        let batches = vec![
            rng::uniform(cifar_input_shape(2), 1, -1.0, 1.0),
            rng::uniform(cifar_input_shape(2), 2, -1.0, 1.0),
        ];
        let (outputs, report) = session.infer_batches(&batches).unwrap();
        assert_eq!(outputs.len(), 2);
        assert_eq!(report.images, 4);
        assert!(report.total() > 0.0);
    }

    #[test]
    fn infer_batches_empty_shapes_agree() {
        // Regression (PR 5): both zero-image shapes flow through the
        // session API with one output per input batch and a zero-image,
        // zero-throughput report — with tinit still charged, so the
        // throughput is an explicit 0.0, not 0/0 or images/0.
        let graph = ResNetConfig::with_depth(8).unwrap().build(4).unwrap();
        let session = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .compile(&graph)
            .unwrap();
        let (outputs, report) = session.infer_batches(&[]).unwrap();
        assert!(outputs.is_empty());
        assert_eq!(report.images, 0);
        assert_eq!(report.images_per_second(), 0.0);
        assert_eq!(report.tinit, CPU_INIT_S);

        let zero = rng::uniform(cifar_input_shape(0), 1, -1.0, 1.0);
        let (outputs, report) = session.infer_batches(std::slice::from_ref(&zero)).unwrap();
        assert_eq!(outputs.len(), 1);
        assert_eq!(outputs[0].shape().n, 0);
        assert_eq!(outputs[0].shape().c, 10, "shaped-empty, not just empty");
        assert_eq!(report.images, 0);
        assert!(report.total() > 0.0, "tinit must still be charged");
        assert_eq!(report.images_per_second(), 0.0);
    }

    #[test]
    fn empty_batch_list_matches_zero_batch_tensor_on_gpusim() {
        // The modeled GPU backend is deterministic, so the two zero-image
        // shapes must report bit-identically, phase by phase.
        let (session, _) = tiny(Backend::GpuSim);
        let (_, none) = session.infer_batches(&[]).unwrap();
        let zero = Tensor::<f32>::zeros(cifar_input_shape(0));
        let (_, zeroed) = session.infer_batches(std::slice::from_ref(&zero)).unwrap();
        assert!(none.tinit > 0.0, "tinit still charged");
        assert_eq!(none.tinit, zeroed.tinit);
        assert_eq!(none.tcomp, zeroed.tcomp);
        for p in Phase::all() {
            assert_eq!(
                none.profile.seconds(p),
                zeroed.profile.seconds(p),
                "phase {p:?} differs between empty-list and zero-tensor"
            );
        }
    }

    /// A ResNet-8 session on `backend` (chunk 2, exact multiplier) and two
    /// 2-image batches.
    fn tiny(backend: Backend) -> (Session, Vec<Tensor<f32>>) {
        let graph = ResNetConfig::with_depth(8).unwrap().build(1).unwrap();
        let session = Session::builder()
            .backend(backend)
            .chunk_size(2)
            .multiplier(&exact())
            .compile(&graph)
            .unwrap();
        let batches = vec![
            rng::uniform(cifar_input_shape(2), 1, -1.0, 1.0),
            rng::uniform(cifar_input_shape(2), 2, -1.0, 1.0),
        ];
        (session, batches)
    }

    #[test]
    fn cpu_infer_batches_measures_wall_clock_and_names_the_kernel() {
        let (session, batches) = tiny(Backend::CpuGemm);
        let (outputs, report) = session.infer_batches(&batches).unwrap();
        assert_eq!(outputs.len(), 2);
        assert_eq!(report.images, 4);
        assert!(report.tcomp > 0.0);
        assert_eq!(report.tinit, CPU_INIT_S);
        assert!(report.total() > report.tcomp);
        assert_eq!(report.kernel, session.kernel().name());
        let (direct, _) = tiny(Backend::CpuDirect);
        assert_eq!(direct.infer_batches(&batches).unwrap().1.kernel, "none");
    }

    #[test]
    fn gpusim_infer_batches_reports_modeled_time() {
        let (session, batches) = tiny(Backend::GpuSim);
        let (_, report) = session.infer_batches(&batches).unwrap();
        // Modeled seconds present in every phase.
        assert!(report.profile.seconds(Phase::LutLookup) > 0.0);
        assert!(report.profile.seconds(Phase::Quantization) > 0.0);
        assert!(report.tinit > session.context().device().context_init_s);
        // Tiny workload: modeled comp far below init.
        assert!(report.tcomp < report.tinit);
        assert_eq!(report.kernel, "none");
        // The phase fractions form a distribution…
        let sum: f64 = Phase::all()
            .iter()
            .map(|&p| report.profile.fraction(p))
            .sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // …and the throughput is images over the total.
        let ips = report.images_per_second();
        assert!((ips - report.images as f64 / report.total()).abs() < 1e-12);
        let empty = EmulationReport {
            images: 0,
            ..report
        };
        assert_eq!(empty.images_per_second(), 0.0);
    }

    #[test]
    fn infer_batches_reports_steady_state_from_the_first_call() {
        // Every plan is built at compile time, so even the first call
        // carries no one-off filter-quantization charge: on the modeled
        // (deterministic) GPU backend every call reports the same
        // Quantization seconds.
        let (session, batches) = tiny(Backend::GpuSim);
        let q = |r: &EmulationReport| r.profile.seconds(Phase::Quantization);
        let (_, first) = session.infer_batches(&batches).unwrap();
        let (_, second) = session.infer_batches(&batches).unwrap();
        assert_eq!(q(&first), q(&second));
    }

    #[test]
    fn transform_inserts_observers_and_preserves_macs() {
        let graph = ResNetConfig::with_depth(14).unwrap().build(7).unwrap();
        let session = Session::builder()
            .backend(Backend::CpuDirect)
            .multiplier(&exact())
            .compile(&graph)
            .unwrap();
        let ax = session.graph();
        let layers = session.replaced_layers();
        assert_eq!(ax.ops().filter(|(_, op)| *op == "Min").count(), layers);
        assert_eq!(ax.ops().filter(|(_, op)| *op == "Max").count(), layers);
        assert!(ax.ops().all(|(_, op)| op != "Conv2D"));
        let shape = cifar_input_shape(1);
        assert_eq!(
            graph.mac_count(shape).unwrap(),
            ax.mac_count(shape).unwrap()
        );
    }

    #[test]
    fn per_layer_assignment_differs_from_both_uniform_ones() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(4).unwrap();
        let input = rng::uniform(cifar_input_shape(2), 15, -1.0, 1.0);
        let infer = |assignment: Assignment| {
            Session::builder()
                .backend(Backend::CpuGemm)
                .assignment(assignment)
                .compile(&graph)
                .unwrap()
                .infer(&input)
                .unwrap()
        };
        // Exact stem, rough everywhere else: strictly between the two
        // uniform assignments.
        let mixed = infer(Assignment::uniform(rough()).with_layer(0, exact()));
        let rough_out = infer(Assignment::uniform(rough()));
        let exact_out = infer(Assignment::uniform(exact()));
        assert!(mixed.max_abs_diff(&rough_out).unwrap() > 0.0);
        assert!(mixed.max_abs_diff(&exact_out).unwrap() > 0.0);
    }

    #[test]
    fn infer_fused_is_bit_identical_to_solo_infer() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(9).unwrap();
        for backend in [Backend::CpuDirect, Backend::CpuGemm, Backend::GpuSim] {
            let session = Session::builder()
                .backend(backend)
                .chunk_size(3)
                .multiplier(&rough())
                .compile(&graph)
                .unwrap();
            let requests = vec![
                rng::uniform(cifar_input_shape(2), 31, -1.0, 1.0),
                rng::uniform(cifar_input_shape(0), 32, -1.0, 1.0),
                rng::uniform(cifar_input_shape(1), 33, -1.0, 1.0),
                rng::uniform(cifar_input_shape(4), 34, -1.0, 1.0),
            ];
            let fused = session.infer_fused(&requests).unwrap();
            assert_eq!(fused.len(), requests.len());
            for (request, out) in requests.iter().zip(&fused) {
                assert_eq!(out, &session.infer(request).unwrap(), "{backend:?}");
            }
        }
    }

    #[test]
    fn infer_fused_edge_shapes() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(10).unwrap();
        let session = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .compile(&graph)
            .unwrap();
        assert!(session.infer_fused(&[]).unwrap().is_empty());
        // A single request degenerates to solo inference.
        let one = rng::uniform(cifar_input_shape(2), 41, -1.0, 1.0);
        let fused = session.infer_fused(std::slice::from_ref(&one)).unwrap();
        assert_eq!(fused[0], session.infer(&one).unwrap());
        // Mismatched spatial shapes are a typed error, not a panic.
        let odd = rng::uniform(axtensor::Shape4::new(1, 8, 8, 3), 42, -1.0, 1.0);
        assert!(session.infer_fused(&[one, odd]).is_err());
    }

    #[test]
    fn accumulator_knob_applies_to_every_layer() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(7).unwrap();
        let input = rng::uniform(cifar_input_shape(2), 13, -1.0, 1.0);
        let wide = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .compile(&graph)
            .unwrap();
        assert_eq!(wide.accumulator(), Accumulator::Exact);
        // A narrow saturating accumulator must change the network output
        // (ResNet conv sums overflow 10 bits easily)…
        let narrow = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .accumulator(Accumulator::Saturating(10))
            .compile(&graph)
            .unwrap();
        assert_eq!(narrow.accumulator(), Accumulator::Saturating(10));
        let a = wide.infer(&input).unwrap();
        let b = narrow.infer(&input).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() > 0.0, "10-bit sat must bite");
        // …and survive a reassign: the new session keeps the model.
        let renarrow = narrow.reassign(&Assignment::uniform(rough())).unwrap();
        assert_eq!(renarrow.accumulator(), Accumulator::Saturating(10));
    }

    #[test]
    fn reassign_reuses_unchanged_layers() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(5).unwrap();
        let session = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&rough())
            .compile(&graph)
            .unwrap();
        // Protect the stem, keep everything else.
        let next = session
            .reassign(&Assignment::uniform(rough()).with_layer(0, exact()))
            .unwrap();
        assert!(Arc::ptr_eq(&session.layers[1], &next.layers[1]));
        assert!(!Arc::ptr_eq(&session.layers[0], &next.layers[0]));
        assert_eq!(next.multipliers()[0].name(), "mul8s_exact");
        assert_eq!(next.multipliers()[1].name(), "mul8s_bam_v8h0");
        // Both sessions still run.
        let input = rng::uniform(cifar_input_shape(1), 9, -1.0, 1.0);
        let a = session.infer(&input).unwrap();
        let b = next.infer(&input).unwrap();
        assert!(a.max_abs_diff(&b).unwrap() > 0.0, "stem change must show");
    }

    #[test]
    fn reassign_identical_assignment_is_all_reuse() {
        let graph = ResNetConfig::with_depth(8).unwrap().build(6).unwrap();
        let session = Session::builder()
            .backend(Backend::CpuGemm)
            .multiplier(&exact())
            .compile(&graph)
            .unwrap();
        let next = session.reassign(&Assignment::uniform(exact())).unwrap();
        for (a, b) in session.layers.iter().zip(&next.layers) {
            assert!(Arc::ptr_eq(a, b));
        }
    }
}
