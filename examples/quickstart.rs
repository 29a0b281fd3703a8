//! Quickstart: emulate an approximate multiplier inside a ResNet.
//!
//! The three-step workflow of the paper's design flow:
//! 1. load/build a trained model,
//! 2. pick a candidate approximate multiplier (here from the catalog),
//! 3. compile a `Session` (Conv2D → AxConv2D with Min/Max observers,
//!    Fig. 1, every filter plan built eagerly) and run inference to
//!    quantify the multiplier's impact.
//!
//! Run: `cargo run --release --example quickstart`

use axnn::dataset::{top1_agreement, SyntheticCifar10};
use axnn::resnet::ResNetConfig;
use tfapprox::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A "trained" CIFAR-10 ResNet-8 (deterministic synthetic weights).
    let graph = ResNetConfig::with_depth(8)?.build(42)?;
    println!(
        "built ResNet-8: {} conv layers, {:.1}M MACs/image",
        graph.conv_layer_count(),
        graph.mac_count(axnn::resnet::cifar_input_shape(1))? as f64 / 1e6
    );

    // 2. A candidate approximate multiplier: a signed broken-array
    //    multiplier from the catalog (stand-in for EvoApprox8b entries).
    let mult = axmult::catalog::by_name("mul8s_bam_v8h0")?;
    let metrics = mult.metrics();
    println!(
        "multiplier {}: MAE {:.1}, worst-case error {}, error rate {:.1}%",
        mult.name(),
        metrics.mae,
        metrics.wce,
        metrics.error_rate * 100.0
    );

    // 3. Compile the session on the simulated GPU and run.
    let session = Session::builder()
        .backend(Backend::GpuSim)
        .multiplier(&mult)
        .compile(&graph)?;
    println!(
        "compiled session: replaced {} Conv2D layers with AxConv2D (+ Min/Max observers)",
        session.replaced_layers()
    );

    let data = SyntheticCifar10::new(7);
    let batch = data.batch_sized(0, 16);
    let (outputs, report) = session.infer_batches(std::slice::from_ref(&batch))?;

    // Compare predictions against the accurate float network.
    let float_out = graph.forward(&batch)?;
    let agreement = top1_agreement(&float_out, &outputs[0]);
    println!(
        "top-1 agreement with the accurate network: {:.1}% over {} images",
        agreement * 100.0,
        report.images
    );
    println!(
        "(a broken-array multiplier with break level 8 is aggressive — low \
         agreement is the *finding*; try mul8s_drum4 for a near-lossless one)"
    );
    println!(
        "modeled device time: tinit {:.2}s + tcomp {:.4}s ({:.0} images/s)",
        report.tinit,
        report.tcomp,
        report.images_per_second()
    );
    for phase in gpusim::Phase::all() {
        println!(
            "  {phase:<28} {:>6.2}%",
            report.profile.fraction(phase) * 100.0
        );
    }
    println!(
        "report: backend {}, kernel {}, {} images, total {:.4}s",
        report.backend,
        report.kernel,
        report.images,
        report.total()
    );
    Ok(())
}
