//! `design-sweep`: ResNet-8 over the whole catalog plus the committed
//! `mul8u_trunc3` netlist (compiled and registered in set-up), under the
//! exact, saturating-12 and wrapping-16 accumulators, via `sweep_uniform`.
//! Its traced run also serves two of the candidates through a
//! `ServeEngine` (see [`super::serve`]).

use super::{finish_trace, repeat_setup, trace_network, MODEL_SEED};
use crate::trace::TracedModel;
use crate::util::{
    digest, latency_summary, median, quantile, rate, same_bits, secs, timed, RATE_QUANTILE,
};
use crate::{BoxError, Config, Outcome};
use axmult::{AxMultiplier, Signedness};
use axnn::dataset::SyntheticCifar10;
use axnn::resnet::ResNetConfig;
use axtensor::Tensor;
use std::slice;
use std::time::Instant;
use tfapprox::compile::compile_netlist;
use tfapprox::{sweep_uniform, Accumulator, Backend, Session, WorkerPool};

/// The netlist compiled in set-up.
const NETLIST: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../docs/netlists/mul8u_trunc3.nl"
));
/// The name it is registered under.
const COMPILED: &str = "mul8u_trunc3";
/// The exact anchor every sweep starts from.
const ANCHOR: &str = "mul8s_exact";
/// Images per design point.
const IMAGES: usize = 4;
/// Accurate f32 passes per round.
const ACCURATE_REPS: usize = 16;
/// The accumulator thirds of a round, with their per-layer metric.
const ACCUMULATORS: [(Accumulator, &str); 3] = [
    (Accumulator::Exact, "sweep.exact_s"),
    (Accumulator::Saturating(12), "sweep.saturating_s"),
    (Accumulator::Wrapping(16), "sweep.wrapping_s"),
];

/// Per-point timings of one `sweep_uniform` call.
#[derive(Debug, Default)]
struct Third {
    wall: f64,
    reassign: Vec<f64>,
    infer: Vec<f64>,
    outputs: Vec<Tensor<f32>>,
}

fn sweep(base: &Session, mults: &[AxMultiplier], x: &Tensor<f32>) -> Result<Third, BoxError> {
    let mut third = Third::default();
    let start = Instant::now();
    let mut prev = start;
    sweep_uniform(base, mults, |_, session| {
        let t0 = Instant::now();
        let (mut y, _) = session.infer_batches(slice::from_ref(x))?;
        let t1 = Instant::now();
        third.reassign.push((t0 - prev).as_secs_f64());
        third.infer.push((t1 - t0).as_secs_f64());
        third.outputs.push(y.remove(0));
        prev = t1;
        Ok(())
    })?;
    third.wall = secs(start);
    Ok(third)
}

/// Run the workload.
///
/// # Errors
///
/// Propagates failures of the program under test.
pub fn run(cfg: &Config, out: &mut Outcome) -> Result<(), BoxError> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut netlist_s = Vec::new();
    let mut compile_s = Vec::new();
    let (graph, bases) = repeat_setup(cfg, out, || {
        let graph = ResNetConfig::with_depth(8)?.build(MODEL_SEED)?;
        let (compiled, dt) = timed(|| -> Result<_, BoxError> {
            let netlist = axcircuit::text::parse(NETLIST)?;
            let pool = WorkerPool::new(threads);
            Ok(compile_netlist(
                &netlist,
                COMPILED,
                Signedness::Unsigned,
                &pool,
            )?)
        });
        netlist_s.push(dt);
        axmult::registry::unregister(COMPILED);
        compiled?.register()?;
        let mut bases = Vec::new();
        for (acc, _) in ACCUMULATORS {
            let (base, dt) = timed(|| {
                Session::builder()
                    .backend(Backend::CpuGemm)
                    .multiplier_named(ANCHOR)
                    .accumulator(acc)
                    .compile(&graph)
            });
            compile_s.push(dt);
            bases.push(base?);
        }
        Ok((graph, bases))
    })?;
    let mults: Vec<AxMultiplier> = if cfg.quick {
        [ANCHOR, "mul8s_bam_v8h0", COMPILED]
            .iter()
            .map(|n| axmult::catalog::by_name(n))
            .collect::<Result<_, _>>()?
    } else {
        let mut all = axmult::catalog::catalog()?;
        all.push(axmult::catalog::by_name(COMPILED)?);
        all
    };
    let images = if cfg.quick { 2 } else { IMAGES };
    let x = SyntheticCifar10::new(cfg.seed).batch_sized(0, images);
    // Warm-up: the worker pool spawns on first use.
    bases[0].infer_batches(slice::from_ref(&x))?;
    graph.forward(&x)?;

    let mut rounds: Vec<Vec<Third>> = Vec::new();
    let mut accurate_s = Vec::new();
    let start = Instant::now();
    while rounds.is_empty() || secs(start) < cfg.seconds {
        let round = bases
            .iter()
            .map(|base| sweep(base, &mults, &x))
            .collect::<Result<Vec<_>, _>>()?;
        for _ in 0..ACCURATE_REPS {
            let (y, dt) = timed(|| graph.forward(&x));
            y?;
            accurate_s.push(dt);
        }
        rounds.push(round);
    }
    let points = rounds.len() * ACCUMULATORS.len() * mults.len();
    out.report.attempted = points as u64;

    // Every round must repeat the first one's outputs bit for bit.
    for (k, round) in rounds.iter().enumerate().skip(1) {
        for (third, first) in round.iter().zip(&rounds[0]) {
            for (p, (y, want)) in third.outputs.iter().zip(&first.outputs).enumerate() {
                out.report.check(same_bits(y, want), || {
                    format!("round {k}: point {} differs from round 0", mults[p].name())
                });
            }
        }
    }
    // The exact anchor reached via reassign equals a cold compile.
    let cold = Session::builder()
        .backend(Backend::CpuGemm)
        .multiplier_named(ANCHOR)
        .compile(&graph)?;
    let (cold_y, _) = cold.infer_batches(slice::from_ref(&x))?;
    let anchor = mults
        .iter()
        .position(|m| m.name() == ANCHOR)
        .expect("anchor is swept");
    out.report
        .check(same_bits(&rounds[0][0].outputs[anchor], &cold_y[0]), || {
            "the exact anchor reached via reassign differs from a cold-compiled session".to_owned()
        });
    let digests: Vec<String> = rounds[0]
        .iter()
        .zip(ACCUMULATORS)
        .map(|(third, (acc, _))| {
            let d = third
                .outputs
                .iter()
                .fold(0u64, |h, y| h.rotate_left(7) ^ digest(y));
            format!("{acc:?}={d:016x}")
        })
        .collect();
    out.note(format!("sweep digests: {}", digests.join(" ")));

    // Per-point latency: reassign plus infer.
    let latency: Vec<f64> = rounds
        .iter()
        .flatten()
        .flat_map(|t| t.reassign.iter().zip(&t.infer).map(|(r, i)| r + i))
        .collect();
    // A round's time: each design point at its rate quantile over the
    // rounds, summed. Points differ in cost, so they are not pooled.
    let round_s: f64 = (0..ACCUMULATORS.len())
        .flat_map(|k| (0..mults.len()).map(move |p| (k, p)))
        .map(|(k, p)| {
            let point: Vec<f64> = rounds
                .iter()
                .map(|round| round[k].reassign[p] + round[k].infer[p])
                .collect();
            quantile(&point, RATE_QUANTILE)
        })
        .sum();
    let points_per_s = (ACCUMULATORS.len() * mults.len()) as f64 / round_s;
    if cfg.trace {
        return trace(
            cfg, out, &graph, &bases[0], &x, &rounds, &netlist_s, &compile_s,
        );
    }
    let r = &mut out.report;
    r.set("items_per_s", points_per_s);
    r.set("accurate_images_per_s", rate(images as f64, &accurate_s));
    out.note(format!(
        "sweep_points_per_s = {points_per_s:.3} 1/s from each point's p{:.0} over {} rounds of {} \
         multipliers x {} accumulators, {images} images per point; point latency (reassign + \
         infer): {}",
        RATE_QUANTILE * 100.0,
        rounds.len(),
        mults.len(),
        ACCUMULATORS.len(),
        latency_summary(&latency),
    ));
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn trace(
    cfg: &Config,
    out: &mut Outcome,
    graph: &axnn::Graph,
    anchor: &Session,
    x: &Tensor<f32>,
    rounds: &[Vec<Third>],
    netlist_s: &[f64],
    compile_s: &[f64],
) -> Result<(), BoxError> {
    let per_point = |f: &dyn Fn(&Third) -> f64| -> f64 {
        let (sum, n) = rounds
            .iter()
            .flatten()
            .fold((0.0, 0usize), |(s, n), t| (s + f(t), n + t.infer.len()));
        sum / n as f64
    };
    let r = &mut out.report;
    r.set(
        "session.reassign_s",
        per_point(&|t| t.reassign.iter().sum()),
    );
    r.set("sweep.infer_s", per_point(&|t| t.infer.iter().sum()));
    for (k, (_, name)) in ACCUMULATORS.iter().enumerate() {
        let walls: Vec<f64> = rounds
            .iter()
            .map(|round| round[k].wall / round[k].infer.len() as f64)
            .collect();
        r.set(name, median(&walls));
    }
    r.set("compile.netlist_s", median(netlist_s));
    r.set("session.compile_s", median(compile_s));

    // Layer rows of one exact-anchor point.
    let mult = axmult::catalog::by_name(ANCHOR)?;
    let mut traced = TracedModel::compile(graph, &mult, Accumulator::Exact)?;
    trace_network(out, &mut traced, slice::from_ref(x), 8, 0.0, |x| {
        let (mut y, _) = anchor.infer_batches(slice::from_ref(x))?;
        Ok(y.remove(0))
    })?;
    out.note(format!(
        "per point: reassign {:.3} ms + infer {:.3} ms; network layers are of the exact anchor \
         only (saturating and wrapping points run the scalar arm)",
        out.report.get("session.reassign_s").unwrap_or(0.0) * 1e3,
        out.report.get("sweep.infer_s").unwrap_or(0.0) * 1e3,
    ));
    super::serve::measure(cfg, out, graph)?;
    let spans = traced.to_json();
    finish_trace(
        cfg,
        out,
        anchor.kernel().name(),
        anchor.context().pool().threads(),
        Some(spans),
    );
    Ok(())
}
