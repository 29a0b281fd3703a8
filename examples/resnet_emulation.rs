//! A miniature Table I: one ResNet depth, all four configurations
//! (accurate/approximate × CPU/GPU) on a reduced workload, with the
//! phase breakdown of the simulated GPU run.
//!
//! Run: `cargo run --release --example resnet_emulation -- [depth] [images]`

use axnn::dataset::SyntheticCifar10;
use axnn::resnet::ResNetConfig;
use gpusim::DeviceConfig;
use tfapprox::perfmodel::{self, CpuModel};
use tfapprox::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let depth: usize = args.first().and_then(|v| v.parse().ok()).unwrap_or(20);
    let images: usize = args.get(1).and_then(|v| v.parse().ok()).unwrap_or(4);

    let cfg = ResNetConfig::with_depth(depth)?;
    let graph = cfg.build(42)?;
    let mult = axmult::catalog::by_name("mul8s_bam_v8h0")?;
    let data = SyntheticCifar10::new(42);
    let batch = data.batch_sized(0, images);

    println!("ResNet-{depth}, {images} images (reduced workload, measured on this host)");

    // Accurate f32 on the host.
    let wall = std::time::Instant::now();
    graph.forward(&batch)?;
    let accurate_s = wall.elapsed().as_secs_f64();
    println!("accurate f32 (host):        tcomp {accurate_s:.3}s");

    // Approximate on both CPU backends.
    for backend in [Backend::CpuDirect, Backend::CpuGemm] {
        let session = Session::builder()
            .backend(backend)
            .chunk_size(images)
            .multiplier(&mult)
            .compile(&graph)?;
        let (_, rep) = session.infer_batches(std::slice::from_ref(&batch))?;
        println!(
            "approximate {:<14} tcomp {:.3}s  ({:.1}x slower than f32)",
            format!("({backend}):"),
            rep.tcomp,
            rep.tcomp / accurate_s
        );
    }

    // Approximate on the simulated GPU (modeled seconds).
    let session = Session::builder()
        .backend(Backend::GpuSim)
        .chunk_size(images)
        .multiplier(&mult)
        .compile(&graph)?;
    let (_, rep) = session.infer_batches(&[batch])?;
    println!(
        "approximate (gpu-sim):      tinit {:.2}s + tcomp {:.4}s (modeled GTX-1080-class)",
        rep.tinit, rep.tcomp
    );
    for phase in gpusim::Phase::all() {
        println!(
            "  {phase:<28} {:>6.2}%",
            rep.profile.fraction(phase) * 100.0
        );
    }

    // And the full Table-I-scale projection for this depth.
    let row = perfmodel::table1_row(
        depth,
        &mult,
        &DeviceConfig::gtx1080(),
        &CpuModel::xeon_e5_2620(),
        10_000,
        1,
        42,
    )?;
    println!();
    println!("projected to 10,000 images (Table I scale):");
    println!(
        "  accurate   CPU {:.1}s | GPU {:.1}s   approximate   CPU {:.0}s | GPU {:.1}s",
        row.cpu_accurate.total(),
        row.gpu_accurate.total(),
        row.cpu_approx.total(),
        row.gpu_approx.total()
    );
    println!(
        "  GPU-vs-CPU speedup: accurate {:.1}x, approximate {:.1}x",
        row.speedup_accurate(),
        row.speedup_approx()
    );
    Ok(())
}
