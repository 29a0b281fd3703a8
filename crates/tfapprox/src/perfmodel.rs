//! Calibrated performance model for Table-I-scale workloads.
//!
//! A simulator running on a CPU cannot be faster than that CPU, so the
//! 10⁴-image runs of Table I cannot be *measured* here. Instead:
//!
//! - **GPU columns** come from the [`gpusim`] cost model: a small sample
//!   of images is executed *functionally* (every kernel, every LUT fetch,
//!   the real texture-cache behaviour), its modeled `tcomp` is then scaled
//!   linearly to the full image count — the linearity the paper itself
//!   reports ("tcomp increases linearly with increasing the number of
//!   MACs").
//! - **CPU columns** come from [`CpuModel`], throughput constants
//!   calibrated against the paper's Xeon E5-2620 baseline. Accurate
//!   inference sustains a constant ≈ 4.8 × 10¹⁰ MAC/s across all ten rows
//!   of Table I; the approximate (LUT-emulated) path converges to
//!   ≈ 4 × 10⁸ MAC/s on the deeper models.
//!
//! The point of the reproduction is the **shape**: the GPU wins by 2–10×
//! when both are accurate, by >100–200× when both emulate the approximate
//! multiplier, the gap grows with depth, and the approximate overhead is
//! crippling on CPU but mild on GPU.

use crate::session::{gpu_init_seconds, CPU_INIT_S};
use crate::{Backend, Error, Session};
use axmult::AxMultiplier;
use axnn::dataset::SyntheticCifar10;
use axnn::resnet::{cifar_input_shape, ResNetConfig};
use gpusim::{DeviceConfig, EventCounts, Phase, PhaseProfile};
use std::time::Instant;

/// Throughput model of a Xeon-class CPU host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Constant initialization seconds.
    pub init_s: f64,
    /// Sustained MAC/s of native f32 inference (vectorized).
    pub accurate_mac_per_s: f64,
    /// Sustained MAC/s when every multiplication is a LUT emulation.
    pub approx_mac_per_s: f64,
    /// Share of approximate `tcomp` spent in LUT lookups (Fig. 2, CPU).
    pub lut_share: f64,
    /// Share of approximate `tcomp` spent in quantization (Fig. 2, CPU).
    pub quant_share: f64,
}

impl CpuModel {
    /// Calibration against the paper's Intel Xeon E5-2620 numbers.
    #[must_use]
    pub fn xeon_e5_2620() -> Self {
        CpuModel {
            init_s: CPU_INIT_S,
            accurate_mac_per_s: 4.77e10,
            approx_mac_per_s: 4.0e8,
            lut_share: 0.28,
            quant_share: 0.07,
        }
    }
}

impl Default for CpuModel {
    fn default() -> Self {
        Self::xeon_e5_2620()
    }
}

/// `tinit + tcomp` of one Table I configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ConfigTimes {
    /// Initialization seconds.
    pub tinit: f64,
    /// Computation seconds.
    pub tcomp: f64,
}

impl ConfigTimes {
    /// Total seconds.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.tinit + self.tcomp
    }
}

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Network depth (ResNet-`depth`).
    pub depth: usize,
    /// Number of 2D convolution layers (`L`).
    pub l: usize,
    /// MACs per image.
    pub macs_per_image: u64,
    /// Accurate Conv2D on the CPU model.
    pub cpu_accurate: ConfigTimes,
    /// Accurate Conv2D on the simulated GPU.
    pub gpu_accurate: ConfigTimes,
    /// Approximate AxConv2D on the CPU model.
    pub cpu_approx: ConfigTimes,
    /// Approximate AxConv2D on the simulated GPU.
    pub gpu_approx: ConfigTimes,
    /// GPU-side Fig. 2 phase profile (scaled to the full run).
    pub gpu_profile: PhaseProfile,
}

impl Table1Row {
    /// Approximation overhead on CPU: `approx.total − accurate.total`.
    #[must_use]
    pub fn approx_overhead_cpu(&self) -> f64 {
        self.cpu_approx.total() - self.cpu_accurate.total()
    }

    /// Approximation overhead on GPU.
    #[must_use]
    pub fn approx_overhead_gpu(&self) -> f64 {
        self.gpu_approx.total() - self.gpu_accurate.total()
    }

    /// GPU-vs-CPU speedup with accurate layers.
    #[must_use]
    pub fn speedup_accurate(&self) -> f64 {
        self.cpu_accurate.total() / self.gpu_accurate.total()
    }

    /// GPU-vs-CPU speedup with approximate layers — the paper's headline
    /// (~200× on the deep ResNets).
    #[must_use]
    pub fn speedup_approx(&self) -> f64 {
        self.cpu_approx.total() / self.gpu_approx.total()
    }
}

/// Bytes of the evaluation dataset on the wire (`images` CIFAR frames as
/// f32).
#[must_use]
pub fn dataset_bytes(images: usize) -> u64 {
    (images * 32 * 32 * 3 * 4) as u64
}

/// CPU-model times for a workload of `total_macs`.
#[must_use]
pub fn cpu_times(model: &CpuModel, total_macs: u64, accurate: bool) -> ConfigTimes {
    let rate = if accurate {
        model.accurate_mac_per_s
    } else {
        model.approx_mac_per_s
    };
    ConfigTimes {
        tinit: model.init_s,
        tcomp: total_macs as f64 / rate,
    }
}

/// Analytic accurate-GPU times: a dense-GEMM roofline over the total MACs
/// plus the PCIe transfer of the dataset.
#[must_use]
pub fn gpu_accurate_times(dev: &DeviceConfig, total_macs: u64, images: usize) -> ConfigTimes {
    let mut ev = EventCounts::new();
    ev.fma_ops = total_macs;
    // Activations stream through DRAM roughly twice per conv layer; the
    // FMA term dominates for 3×3 convolutions, so a coarse charge is fine.
    ev.global_read_bytes = dataset_bytes(images) * 4;
    ConfigTimes {
        tinit: dev.context_init_s + dev.transfer_seconds(dataset_bytes(images)),
        tcomp: dev.seconds(&ev),
    }
}

/// Fig. 2 CPU profile from the model shares.
#[must_use]
pub fn cpu_fig2_profile(model: &CpuModel, total_macs: u64) -> PhaseProfile {
    let t = cpu_times(model, total_macs, false);
    let mut p = PhaseProfile::new();
    p.add(Phase::Init, t.tinit);
    p.add(Phase::LutLookup, t.tcomp * model.lut_share);
    p.add(Phase::Quantization, t.tcomp * model.quant_share);
    p.add(
        Phase::Other,
        t.tcomp * (1.0 - model.lut_share - model.quant_share),
    );
    p
}

/// Functionally execute `sample_images` of the approximate network on the
/// simulated GPU and scale the modeled computation to `images`.
///
/// The sample runs through a compiled [`Session`], whose filter plans are
/// built once at compile time: the scaled `tcomp` is `images /
/// sample_images` times the sample's steady-state `tcomp`, with no
/// one-off plan build multiplied in.
///
/// # Errors
///
/// Propagates build/execution failures.
pub fn gpu_approx_times(
    cfg: ResNetConfig,
    mult: &AxMultiplier,
    dev: &DeviceConfig,
    images: usize,
    sample_images: usize,
    seed: u64,
) -> Result<(ConfigTimes, PhaseProfile), Error> {
    let sample = sample_images.max(1);
    let session = Session::builder()
        .backend(Backend::GpuSim)
        .device(dev.clone())
        .chunk_size(sample)
        .multiplier(mult)
        .compile(&cfg.build(seed)?)?;
    let batch = SyntheticCifar10::new(seed).batch_sized(0, sample);
    let (_, report) = session.infer_batches(&[batch])?;

    // Scale the comp phases; re-add init for the full dataset.
    let mut comp_only = PhaseProfile::new();
    for phase in [Phase::Quantization, Phase::LutLookup, Phase::Other] {
        comp_only.add(phase, report.profile.seconds(phase));
    }
    let mut profile = comp_only.scaled_comp(images as f64 / sample as f64);
    let tinit = gpu_init_seconds(dev, dataset_bytes(images));
    profile.add(Phase::Init, tinit);
    Ok((
        ConfigTimes {
            tinit,
            tcomp: profile.total() - tinit,
        },
        profile,
    ))
}

/// Produce one full Table I row.
///
/// # Errors
///
/// Propagates build/execution failures.
pub fn table1_row(
    depth: usize,
    mult: &AxMultiplier,
    dev: &DeviceConfig,
    cpu: &CpuModel,
    images: usize,
    sample_images: usize,
    seed: u64,
) -> Result<Table1Row, Error> {
    let cfg = ResNetConfig::with_depth(depth)?;
    let macs_per_image = cfg.build(seed)?.mac_count(cifar_input_shape(1))?;
    let total_macs = macs_per_image * images as u64;
    let (gpu_approx, gpu_profile) = gpu_approx_times(cfg, mult, dev, images, sample_images, seed)?;
    Ok(Table1Row {
        depth,
        l: cfg.conv_layers(),
        macs_per_image,
        cpu_accurate: cpu_times(cpu, total_macs, true),
        gpu_accurate: gpu_accurate_times(dev, total_macs, images),
        cpu_approx: cpu_times(cpu, total_macs, false),
        gpu_approx,
        gpu_profile,
    })
}

/// A measured (not modeled) comparison of the real Rust backends on this
/// host, scaled from `sample_images` to `images` — the supplementary
/// "measured shape" experiment.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    /// Network depth.
    pub depth: usize,
    /// MACs per image.
    pub macs_per_image: u64,
    /// Images the estimate is scaled to.
    pub images: usize,
    /// Measured-and-scaled seconds of the accurate f32 graph.
    pub accurate_cpu_s: f64,
    /// Measured-and-scaled seconds of the `CpuDirect` LUT emulation.
    pub cpu_direct_s: f64,
    /// Measured-and-scaled seconds of the `CpuGemm` LUT emulation.
    pub cpu_gemm_s: f64,
}

impl MeasuredRow {
    /// Real speedup of the GEMM formulation over the direct loops.
    #[must_use]
    pub fn gemm_speedup(&self) -> f64 {
        self.cpu_direct_s / self.cpu_gemm_s
    }

    /// Real emulation slowdown versus native f32 inference.
    #[must_use]
    pub fn emulation_slowdown(&self) -> f64 {
        self.cpu_direct_s / self.accurate_cpu_s
    }
}

/// Measure the real backends on `sample_images` and scale: the accurate
/// f32 graph is one timed `Graph::forward`, each emulated backend one
/// compiled [`Session`]'s measured `tcomp`.
///
/// # Errors
///
/// Propagates build/execution failures.
pub fn measured_row(
    depth: usize,
    mult: &AxMultiplier,
    images: usize,
    sample_images: usize,
    seed: u64,
) -> Result<MeasuredRow, Error> {
    let cfg = ResNetConfig::with_depth(depth)?;
    let graph = cfg.build(seed)?;
    let macs_per_image = graph.mac_count(cifar_input_shape(1))?;
    let batch = SyntheticCifar10::new(seed).batch_sized(0, sample_images);
    let factor = images as f64 / sample_images as f64;

    let wall = Instant::now();
    graph.forward(&batch)?;
    let accurate_s = wall.elapsed().as_secs_f64();

    let emulated_s = |backend: Backend| -> Result<f64, Error> {
        let session = Session::builder()
            .backend(backend)
            .chunk_size(sample_images)
            .multiplier(mult)
            .compile(&graph)?;
        let (_, report) = session.infer_batches(std::slice::from_ref(&batch))?;
        Ok(report.tcomp)
    };

    Ok(MeasuredRow {
        depth,
        macs_per_image,
        images,
        accurate_cpu_s: accurate_s * factor,
        cpu_direct_s: emulated_s(Backend::CpuDirect)? * factor,
        cpu_gemm_s: emulated_s(Backend::CpuGemm)? * factor,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_model_reproduces_paper_accurate_column() {
        let cpu = CpuModel::xeon_e5_2620();
        // Paper ResNet-8: 21e6 MACs/image, 1e4 images -> 4.4 s.
        let t = cpu_times(&cpu, 21_000_000 * 10_000, true);
        assert!((t.tcomp - 4.4).abs() < 0.5, "tcomp = {}", t.tcomp);
        // Paper ResNet-62: 148e6 -> 31.1 s.
        let t = cpu_times(&cpu, 148_000_000 * 10_000, true);
        assert!((t.tcomp - 31.1).abs() < 2.0, "tcomp = {}", t.tcomp);
    }

    #[test]
    fn cpu_model_approx_column_in_regime() {
        let cpu = CpuModel::xeon_e5_2620();
        // Paper ResNet-62 approximate: 3796 s.
        let t = cpu_times(&cpu, 148_000_000 * 10_000, false);
        assert!((3000.0..4800.0).contains(&t.tcomp), "tcomp = {}", t.tcomp);
    }

    #[test]
    fn gpu_accurate_in_regime() {
        let dev = DeviceConfig::gtx1080();
        // Paper ResNet-8 accurate GPU: 1.8 + 0.2 s.
        let t = gpu_accurate_times(&dev, 21_000_000 * 10_000, 10_000);
        assert!((0.1..0.5).contains(&t.tcomp), "tcomp = {}", t.tcomp);
        assert!((1.5..2.5).contains(&t.tinit), "tinit = {}", t.tinit);
    }

    #[test]
    fn fig2_cpu_profile_fractions() {
        let cpu = CpuModel::xeon_e5_2620();
        let p = cpu_fig2_profile(&cpu, 148_000_000 * 10_000);
        // Deep network: init below 1%, LUT near 28%.
        assert!(p.fraction(Phase::Init) < 0.01);
        let lut = p.fraction(Phase::LutLookup);
        assert!((0.2..0.35).contains(&lut), "lut share {lut}");
    }

    #[test]
    fn table1_row_shape_for_resnet8() {
        let mult = axmult::catalog::by_name("mul8s_exact").unwrap();
        let dev = DeviceConfig::gtx1080();
        let cpu = CpuModel::xeon_e5_2620();
        let row = table1_row(8, &mult, &dev, &cpu, 10_000, 1, 42).unwrap();
        assert_eq!(row.l, 7);
        // Who wins: GPU beats CPU in both modes; approximate overhead is
        // crippling on CPU, mild on GPU.
        assert!(row.speedup_accurate() > 1.0);
        assert!(row.speedup_approx() > 30.0, "{}", row.speedup_approx());
        assert!(row.approx_overhead_cpu() > 10.0 * row.approx_overhead_gpu());
    }

    #[test]
    fn gpu_tcomp_scales_the_steady_state_sample() {
        // The scaled computation time is exactly images × the 1-image
        // sample's tcomp as a freshly compiled session reports it: the
        // one-off filter-plan build is paid at compile time and never
        // multiplied by the scale factor.
        let mult = axmult::catalog::by_name("mul8s_bam_v8h0").unwrap();
        let dev = DeviceConfig::gtx1080();
        let cfg = ResNetConfig::with_depth(8).unwrap();
        let images = 10_000;
        let (times, _) = gpu_approx_times(cfg, &mult, &dev, images, 1, 42).unwrap();

        let session = Session::builder()
            .backend(Backend::GpuSim)
            .device(dev.clone())
            .chunk_size(1)
            .multiplier(&mult)
            .compile(&cfg.build(42).unwrap())
            .unwrap();
        let batch = SyntheticCifar10::new(42).batch_sized(0, 1);
        let (_, sample) = session.infer_batches(&[batch]).unwrap();
        let expected = images as f64 * sample.tcomp;
        let rel = (times.tcomp - expected).abs() / expected;
        assert!(
            rel < 1e-9,
            "tcomp {} vs {images} x sample {} (rel {rel})",
            times.tcomp,
            sample.tcomp
        );
    }

    #[test]
    fn measured_row_orders_backends() {
        let mult = axmult::catalog::by_name("mul8s_exact").unwrap();
        let row = measured_row(8, &mult, 100, 1, 3).unwrap();
        // The direct nested-loop emulation is the slowest path.
        assert!(row.cpu_direct_s > 0.0);
        assert!(row.gemm_speedup() > 0.5, "gemm not catastrophically slow");
        assert!(row.emulation_slowdown() > 1.0, "emulation costs something");
    }
}
