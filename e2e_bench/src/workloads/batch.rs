//! `batch-resnet20`: ResNet-20 in batches of 32 on the CPU GEMM backend
//! with `mul8s_bam_v8h0` and the exact accumulator, then the accurate f32
//! `Graph::forward` over the same images.

use super::{finish_trace, repeat_setup, trace_network, APPROX_MULT, MODEL_SEED};
use crate::trace::TracedModel;
use crate::util::{latency_summary, median, rate, same_bits, secs, timed, RATE_QUANTILE};
use crate::{BoxError, Config, Outcome};
use axnn::dataset::SyntheticCifar10;
use axnn::resnet::ResNetConfig;
use axnn::Graph;
use axtensor::Tensor;
use std::slice;
use std::time::Instant;
use tfapprox::{Accumulator, Backend, KernelKind, Session};

/// Images per `infer_batches` call.
const BATCH: usize = 32;
/// Distinct input batches the measured loop cycles through.
const DISTINCT: usize = 4;
/// Images of the cpu-direct reference sample.
const DIRECT_IMAGES: usize = 2;

fn infer(session: &Session, x: &Tensor<f32>) -> Result<Tensor<f32>, BoxError> {
    let (mut outs, _) = session.infer_batches(slice::from_ref(x))?;
    Ok(outs.remove(0))
}

/// Run the workload.
///
/// # Errors
///
/// Propagates failures of the program under test.
pub fn run(cfg: &Config, out: &mut Outcome) -> Result<(), BoxError> {
    let (batch, distinct) = if cfg.quick { (4, 1) } else { (BATCH, DISTINCT) };
    let mut compile_s = Vec::new();
    let (graph, session) = repeat_setup(cfg, out, || {
        let graph = ResNetConfig::with_depth(20)?.build(MODEL_SEED)?;
        let (session, dt) = timed(|| {
            Session::builder()
                .backend(Backend::CpuGemm)
                .multiplier_named(APPROX_MULT)
                .compile(&graph)
        });
        compile_s.push(dt);
        Ok((graph, session?))
    })?;
    let data = SyntheticCifar10::new(cfg.seed);
    let inputs: Vec<Tensor<f32>> = (0..distinct).map(|i| data.batch_sized(i, batch)).collect();
    // Warm-up: the worker pool spawns on first use.
    infer(&session, &inputs[0])?;
    graph.forward(&inputs[0])?;

    if cfg.trace {
        out.report.set("session.compile_s", median(&compile_s));
        return trace(cfg, out, &graph, &session, &inputs);
    }

    let mut approx_s = Vec::new();
    let mut accurate_s = Vec::new();
    let mut approx_ref: Vec<Option<Tensor<f32>>> = vec![None; distinct];
    let mut accurate_ref: Vec<Option<Tensor<f32>>> = vec![None; distinct];
    let start = Instant::now();
    let mut i = 0;
    while i < 2 || secs(start) < cfg.seconds {
        let slot = i % distinct;
        let x = &inputs[slot];
        let (y, dt) = timed(|| infer(&session, x));
        approx_s.push(dt);
        check_repeat(out, &mut approx_ref[slot], y?, "approximate", i);
        let (y, dt) = timed(|| graph.forward(x));
        accurate_s.push(dt);
        check_repeat(out, &mut accurate_ref[slot], y?, "accurate", i);
        i += 1;
    }
    out.report.attempted = (i * batch) as u64;

    // Every kernel arm is bit-identical: re-run a sample on the scalar arm.
    let scalar = Session::builder()
        .backend(Backend::CpuGemm)
        .multiplier_named(APPROX_MULT)
        .kernel(KernelKind::ScalarTiled)
        .compile(&graph)?;
    let want = approx_ref[0].as_ref().expect("batch 0 ran");
    out.report
        .check(same_bits(&infer(&scalar, &inputs[0])?, want), || {
            format!(
                "scalar-tiled output differs from the {} arm",
                session.kernel()
            )
        });

    let r = &mut out.report;
    r.set("items_per_s", rate(batch as f64, &approx_s));
    r.set("accurate_images_per_s", rate(batch as f64, &accurate_s));
    out.note(format!(
        "approx_images_per_s = {:.3} 1/s from the p{:.0} call of {batch} images ({} arm, {} \
         threads); call latency: {}",
        rate(batch as f64, &approx_s),
        RATE_QUANTILE * 100.0,
        session.kernel(),
        session.context().pool().threads(),
        latency_summary(&approx_s),
    ));
    Ok(())
}

/// The first output of each input batch is its reference; later passes
/// over the same batch must repeat it bit for bit.
fn check_repeat(
    out: &mut Outcome,
    slot: &mut Option<Tensor<f32>>,
    y: Tensor<f32>,
    what: &str,
    i: usize,
) {
    match slot {
        Some(want) => out.report.check(same_bits(&y, want), || {
            format!("{what} output of call {i} differs from an earlier call on the same batch")
        }),
        None => {
            out.report
                .check(y.as_slice().iter().all(|v| v.is_finite()), || {
                    format!("{what} output of call {i} is not finite")
                });
            *slot = Some(y);
        }
    }
}

fn trace(
    cfg: &Config,
    out: &mut Outcome,
    graph: &Graph,
    session: &Session,
    inputs: &[Tensor<f32>],
) -> Result<(), BoxError> {
    let mult = axmult::catalog::by_name(APPROX_MULT)?;
    let mut traced = TracedModel::compile(graph, &mult, Accumulator::Exact)?;
    trace_network(out, &mut traced, inputs, 3, cfg.seconds, |x| {
        infer(session, x)
    })?;

    // Reference baselines, with their bases.
    let batch = inputs[0].shape().n;
    let approx_s: Vec<f64> = (0..3)
        .map(|_| timed(|| infer(session, &inputs[0])).1 / batch as f64)
        .collect();
    let accurate_s: Vec<f64> = (0..3)
        .map(|_| timed(|| graph.forward(&inputs[0])).1 / batch as f64)
        .collect();
    let direct = Session::builder()
        .backend(Backend::CpuDirect)
        .multiplier_named(APPROX_MULT)
        .compile(graph)?;
    let sample = inputs[0].batch_slice(0, DIRECT_IMAGES.min(batch));
    let (y, direct_s) = timed(|| infer(&direct, &sample));
    y?;
    let direct_s = direct_s / sample.shape().n as f64;
    let speedup = direct_s / median(&approx_s);
    let overhead = median(&approx_s) / median(&accurate_s);
    out.report.set("ref.speedup_vs_cpu_direct", speedup);
    out.report.set("ref.overhead_vs_accurate", overhead);
    out.note(format!(
        "ref.speedup_vs_cpu_direct = {speedup:.2}x: cpu-gemm {:.2} ms/image (batches of {batch}) \
         vs cpu-direct {:.2} ms/image ({} images)",
        median(&approx_s) * 1e3,
        direct_s * 1e3,
        sample.shape().n,
    ));
    out.note(format!(
        "ref.overhead_vs_accurate = {overhead:.3}x: cpu-gemm {:.2} ms/image vs accurate f32 \
         Graph::forward {:.2} ms/image (batches of {batch})",
        median(&approx_s) * 1e3,
        median(&accurate_s) * 1e3,
    ));
    out.note(
        "not used: EmulationReport::images_per_second (adds the modeled 0.25 s CPU_INIT_S) and \
         the cpu-gemm phase_fractions (quantization is always 0, im2col lands in other)",
    );
    let spans = traced.to_json();
    finish_trace(
        cfg,
        out,
        session.kernel().name(),
        session.context().pool().threads(),
        Some(spans),
    );
    Ok(())
}
