//! Property tests of the prepared-execution engine: a layer's cached plan
//! must be indistinguishable — bit for bit — from building a fresh plan
//! per call, across convolution geometries, signednesses, quantization
//! flavours, and all three backends.

use axmult::{AxMultiplier, MulLut, Signedness};
use axquant::{QuantParams, QuantRange, RoundMode};
use axtensor::{rng, ConvGeometry, FilterShape, Matrix, Padding, SegmentTable, Shape4, Tensor};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use tfapprox::kernel::{lut_gemm_reference, lut_gemm_tiled, TileConfig};
use tfapprox::{Accumulator, AxConv2D, Backend, EmuContext, PreparedFilter, WorkerPool};

/// The full multiplier catalog, built once for the whole suite (the
/// circuit-backed entries are expensive to regenerate per proptest case).
fn catalog() -> &'static [AxMultiplier] {
    static CATALOG: OnceLock<Vec<AxMultiplier>> = OnceLock::new();
    CATALOG.get_or_init(|| axmult::catalog().expect("catalog builds"))
}

fn geometry(stride: usize, dilation: usize, valid: bool) -> ConvGeometry {
    let mut geom = ConvGeometry::default().with_stride(stride);
    // Dilation only combines with Valid padding in this suite (matching
    // the reference-op tests); Same padding is exercised undilated.
    if dilation > 1 || valid {
        geom = geom.with_dilation(dilation).with_padding(Padding::Valid);
    }
    geom
}

fn layer(
    filter: &axtensor::Filter,
    geom: ConvGeometry,
    lut: &MulLut,
    backend: Backend,
    per_channel: bool,
) -> AxConv2D {
    let ctx = Arc::new(EmuContext::new(backend).with_chunk_size(2).unwrap());
    let l = AxConv2D::new(filter.clone(), geom, lut.clone(), ctx);
    if per_channel {
        l.with_per_channel_filter_quant()
    } else {
        l
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cached-plan results are bit-identical to fresh-plan results and
    /// stable across repeated calls, for every backend.
    #[test]
    fn cached_plan_is_bit_identical_to_fresh_plan(
        seed in 0u64..1000,
        stride in 1usize..3,
        dilation in 1usize..3,
        valid in any::<bool>(),
        one_by_one in any::<bool>(),
        signed in any::<bool>(),
        per_channel in any::<bool>(),
    ) {
        let signedness = if signed { Signedness::Signed } else { Signedness::Unsigned };
        let lut = MulLut::exact(signedness);
        let ksize = if one_by_one { 1 } else { 3 };
        let filter = rng::uniform_filter(FilterShape::new(ksize, ksize, 2, 3), seed ^ 7, -0.5, 0.5);
        let input = rng::uniform(Shape4::new(3, 6, 6, 2), seed, -1.0, 1.0);
        let geom = geometry(stride, dilation, valid);

        for backend in [Backend::CpuDirect, Backend::CpuGemm, Backend::GpuSim] {
            // `cached` reuses one plan across calls; `fresh` is an
            // identically-built layer whose first (plan-building) call is
            // the reference.
            let cached = layer(&filter, geom, &lut, backend, per_channel);
            let fresh = layer(&filter, geom, &lut, backend, per_channel);
            let first = cached.convolve(&input).unwrap();
            let second = cached.convolve(&input).unwrap();
            let reference = fresh.convolve(&input).unwrap();
            prop_assert_eq!(&first, &second, "repeat drifted on {:?}", backend);
            prop_assert_eq!(&first, &reference, "cached != fresh on {:?}", backend);
        }
    }

    /// The tiled, thread-sharded LUT-GEMM is bit-identical to the untiled
    /// reference kernel on **every multiplier in the catalog** — signed
    /// and unsigned, circuit-backed and behavioral — across patch
    /// contents, tile shapes and pool sizes.
    #[test]
    fn tiled_kernel_bit_identical_to_untiled_on_whole_catalog(
        seed in 0u64..1000,
        rows in 1usize..40,
        small_tiles in any::<bool>(),
        threads in 1usize..5,
    ) {
        let fs = FilterShape::new(3, 3, 2, 3);
        let k = fs.patch_len();
        let bytes: Vec<u8> = (0..rows * k)
            .map(|i| ((i as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u8)
            .collect();
        let patches = Matrix::from_vec(rows, k, bytes).unwrap();
        let sums: Vec<i64> = (0..rows)
            .map(|r| patches.row(r).iter().map(|&b| i64::from(b as i8)).sum())
            .collect();
        let input_q = [QuantParams::from_range(-1.0, 1.0, QuantRange::i8(), RoundMode::NearestEven)];
        let single = SegmentTable::single(rows);
        let filter = rng::uniform_filter(fs, seed ^ 5, -0.5, 0.5);
        let plan = PreparedFilter::from_filter(
            &filter,
            &QuantParams::from_range(-0.5, 0.5, QuantRange::i8(), RoundMode::NearestEven).into(),
        );
        let tiles = if small_tiles {
            TileConfig::new(3, 7, 2).unwrap()
        } else {
            TileConfig::default()
        };
        let pool = WorkerPool::new(threads);
        for mult in catalog() {
            let reference = lut_gemm_reference(
                &patches, &sums, &plan, &input_q, &single, mult.lut(), Accumulator::Exact,
            );
            let tiled = lut_gemm_tiled(
                &patches, &sums, &plan, &input_q, &single, mult.lut(), Accumulator::Exact,
                tiles, &pool,
            );
            prop_assert_eq!(tiled, reference, "tiled != untiled on {}", mult.name());
        }
    }

    /// Multi-threaded determinism of the prepared CpuGemm path: for both
    /// a signed and an unsigned catalog multiplier, the convolution is
    /// bit-identical across `threads ∈ {1, 2, 4}` and across repeated
    /// runs of the same context (no accumulation-order drift).
    #[test]
    fn cpu_gemm_prepared_is_bit_identical_across_thread_counts(
        seed in 0u64..1000,
        unsigned in any::<bool>(),
        chunk in 1usize..4,
    ) {
        let name = if unsigned { "mul8u_bam_v8h0" } else { "mul8s_bam_v8h0" };
        let mult = catalog().iter().find(|m| m.name() == name).unwrap();
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 5), seed ^ 3, -0.5, 0.5);
        let input = rng::uniform(Shape4::new(3, 6, 6, 2), seed, -1.0, 1.0);
        let run = |threads: usize| -> (Tensor<f32>, Tensor<f32>) {
            let ctx = Arc::new(
                EmuContext::new(Backend::CpuGemm)
                    .with_chunk_size(chunk)
                    .unwrap()
                    .with_threads(threads)
                    .unwrap(),
            );
            let layer = AxConv2D::new(filter.clone(), ConvGeometry::default(), mult.lut().clone(), ctx);
            (layer.convolve(&input).unwrap(), layer.convolve(&input).unwrap())
        };
        let (reference, repeat) = run(1);
        prop_assert_eq!(&reference, &repeat, "repeated run drifted at threads=1");
        for threads in [2usize, 4] {
            let (out, again) = run(threads);
            prop_assert_eq!(&out, &again, "repeated run drifted at threads={}", threads);
            prop_assert_eq!(&out, &reference, "threads={} != threads=1 ({})", threads, name);
        }
    }

    /// The three backends stay in numerical agreement when driven through
    /// their prepared plans (exact LUT; direct is the golden model).
    #[test]
    fn prepared_backends_agree(seed in 0u64..1000, stride in 1usize..3) {
        let lut = MulLut::exact(Signedness::Signed);
        let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 3), seed ^ 13, -0.5, 0.5);
        let input = rng::uniform(Shape4::new(2, 6, 6, 2), seed, -1.0, 1.0);
        let geom = ConvGeometry::default().with_stride(stride);
        let run = |backend: Backend| -> Tensor<f32> {
            let l = layer(&filter, geom, &lut, backend, false);
            l.prepare().unwrap();
            l.convolve(&input).unwrap()
        };
        let direct = run(Backend::CpuDirect);
        let gemm = run(Backend::CpuGemm);
        let gpu = run(Backend::GpuSim);
        prop_assert!(direct.max_abs_diff(&gemm).unwrap() < 1e-4);
        prop_assert!(direct.max_abs_diff(&gpu).unwrap() < 1e-2);
    }
}

/// Zero-batch inputs flow through every backend as correctly-shaped empty
/// outputs (regression: `concat_batch(&[])` used to panic).
#[test]
fn zero_batch_graph_level_regression() {
    let lut = MulLut::exact(Signedness::Signed);
    let filter = rng::uniform_filter(FilterShape::new(3, 3, 2, 4), 5, -0.5, 0.5);
    let empty = Tensor::<f32>::zeros(Shape4::new(0, 6, 6, 2));
    for backend in [Backend::CpuDirect, Backend::CpuGemm, Backend::GpuSim] {
        let l = layer(&filter, ConvGeometry::default(), &lut, backend, false);
        let out = l.convolve(&empty).unwrap();
        assert_eq!(out.shape(), Shape4::new(0, 6, 6, 4), "{backend:?}");
        assert!(out.as_slice().is_empty(), "{backend:?}");
    }
}
