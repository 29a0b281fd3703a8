//! Regenerate Fig. 2 of the TFApprox paper: the distribution of the total
//! computational time `tinit + tcomp` over Initialization / Other /
//! Quantization / LUT-lookup phases, for the CPU and GPU implementations
//! of the approximate convolution, on ResNet-8/32/50/62.
//!
//! GPU percentages come from the functional simulation's phase-attributed
//! cost model; CPU percentages from the Xeon-calibrated share model. The
//! paper's published bars are printed alongside. Pass `--probe` to also
//! measure on this host how much slower the LUT-emulated ResNet-8
//! (`cpu-direct`, compile included) runs than the native f32 graph, and
//! `--sweep-threads` to run the tiled CpuGemm backend at 1/2/4 host
//! worker threads and print the measured throughput of each point.
//!
//! Usage: `fig2 [--images N] [--sample N] [--probe] [--sweep-threads]`

use axnn::dataset::SyntheticCifar10;
use axnn::resnet::{cifar_input_shape, ResNetConfig};
use gpusim::{DeviceConfig, Phase};
use tfapprox::perfmodel::{self, CpuModel};
use tfapprox::prelude::*;
use tfapprox_bench::{arg_value, has_flag, PAPER_FIG2_CPU, PAPER_FIG2_GPU};

const DEPTHS: [usize; 4] = [8, 32, 50, 62];

fn print_bar(label: &str, fractions: [f64; 4]) {
    println!(
        "{label:<14} init {:>5.1}%   other {:>5.1}%   quant {:>5.1}%   LUT {:>5.1}%",
        fractions[0] * 100.0,
        fractions[1] * 100.0,
        fractions[2] * 100.0,
        fractions[3] * 100.0
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let images: usize = arg_value(&args, "--images")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let sample: usize = arg_value(&args, "--sample")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let mult = axmult::catalog::by_name("mul8s_bam_v8h0").expect("catalog entry");
    let dev = DeviceConfig::gtx1080();
    let cpu = CpuModel::xeon_e5_2620();

    println!("FIG. 2 — distribution of total time tinit + tcomp ({images} images)");
    println!();
    println!("GPU implementation:");
    for depth in DEPTHS {
        let cfg = ResNetConfig::with_depth(depth).expect("6n+2 depth");
        let (_, profile) =
            perfmodel::gpu_approx_times(cfg, &mult, &dev, images, sample, 42).expect("gpu run");
        print_bar(
            &format!("ResNet-{depth}"),
            [
                profile.fraction(Phase::Init),
                profile.fraction(Phase::Other),
                profile.fraction(Phase::Quantization),
                profile.fraction(Phase::LutLookup),
            ],
        );
        if let Some((_, p)) = PAPER_FIG2_GPU.iter().find(|(d, _)| *d == depth) {
            print_bar(
                "  (paper)",
                [p[0] / 100.0, p[1] / 100.0, p[2] / 100.0, p[3] / 100.0],
            );
        }
    }

    println!();
    println!("CPU implementation:");
    for depth in DEPTHS {
        let cfg = ResNetConfig::with_depth(depth).expect("6n+2 depth");
        let macs = cfg.mac_count().expect("mac count") * images as u64;
        let profile = perfmodel::cpu_fig2_profile(&cpu, macs);
        print_bar(
            &format!("ResNet-{depth}"),
            [
                profile.fraction(Phase::Init),
                profile.fraction(Phase::Other),
                profile.fraction(Phase::Quantization),
                profile.fraction(Phase::LutLookup),
            ],
        );
        if let Some((_, p)) = PAPER_FIG2_CPU.iter().find(|(d, _)| *d == depth) {
            print_bar(
                "  (paper)",
                [p[0] / 100.0, p[1] / 100.0, p[2] / 100.0, p[3] / 100.0],
            );
        }
    }

    if has_flag(&args, "--sweep-threads") {
        // The tiled LUT-GEMM shards output rows across the context's
        // worker pool; this prints how throughput scales with the pool
        // size on this host (bit-identical outputs at every point).
        println!();
        println!(
            "CpuGemm host-thread sweep (ResNet-8, {} image(s)):",
            sample.max(1)
        );
        let graph = ResNetConfig::with_depth(8)
            .expect("depth")
            .build(42)
            .expect("build");
        let batch = SyntheticCifar10::new(42).batch_sized(0, sample.max(1));
        for threads in [1usize, 2, 4] {
            let session = Session::builder()
                .backend(Backend::CpuGemm)
                .threads(threads)
                .multiplier(&mult)
                .compile(&graph)
                .expect("compile");
            let (_, report) = session
                .infer_batches(std::slice::from_ref(&batch))
                .expect("infer");
            println!(
                "  threads {threads}: {:>7.2} images/s  (tcomp {:.3} s)",
                report.images_per_second(),
                report.tcomp
            );
        }
    }

    if has_flag(&args, "--probe") {
        // Emulation slowdown on this host: the transformed ResNet-8 on
        // the nested-loop backend against the accurate float graph. The
        // session compile builds the filter plans, so it stays inside the
        // timed region.
        println!();
        println!("CPU emulation probe (this host, ResNet-8, {sample} image(s)):");
        let graph = ResNetConfig::with_depth(8)
            .expect("depth")
            .build(42)
            .expect("build");
        let data = SyntheticCifar10::new(42);
        let batch = data.batch_sized(0, sample.max(1));
        assert_eq!(batch.shape(), cifar_input_shape(sample.max(1)));

        let time_backend = |emulated: bool| -> f64 {
            let t = std::time::Instant::now();
            if emulated {
                let session = Session::builder()
                    .backend(Backend::CpuDirect)
                    .multiplier(&mult)
                    .compile(&graph)
                    .expect("compile");
                let _ = session.infer(&batch).expect("infer");
            } else {
                let _ = graph.forward(&batch).expect("forward");
            }
            t.elapsed().as_secs_f64()
        };
        let with_lut = time_backend(true);
        let float_native = time_backend(false);
        println!(
            "  emulated (LUT) {with_lut:.3}s vs native f32 {float_native:.3}s -> slowdown {:.1}x",
            with_lut / float_native
        );
    }
}
