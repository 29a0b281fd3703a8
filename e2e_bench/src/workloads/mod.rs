//! The workloads, the serving stage, and what they share.

pub mod batch;
pub mod gpusim;
pub mod serve;
pub mod sweep;

use crate::trace::{LayerRows, TracedModel, SPAN_SUM_TOLERANCE};
use crate::util::{host_descriptor, median, same_bits, secs, timed};
use crate::{BoxError, Config, Outcome};
use axtensor::Tensor;
use std::time::Instant;
use tfapprox_bench::json;

/// Weight seed of every model.
pub const MODEL_SEED: u64 = 42;

/// The approximate multiplier of the single-multiplier workloads.
pub const APPROX_MULT: &str = "mul8s_bam_v8h0";

/// Run `setup` as often as `cfg.setup_budget()` asks; keep the last
/// result and record the median wall time as `setup_s`.
pub fn repeat_setup<T>(
    cfg: &Config,
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<T, BoxError>,
) -> Result<T, BoxError> {
    let (min_reps, min_seconds) = cfg.setup_budget();
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < min_reps || secs(start) < min_seconds {
        let (built, dt) = timed(&mut setup);
        last = Some(built?);
        times.push(dt);
    }
    out.report.set("setup_s", median(&times));
    Ok(last.expect("at least one set-up"))
}

/// Alternate untraced and traced passes over `inputs` (at least
/// `min_pairs`, and until `seconds` have passed), check that both give
/// the same bits and that every pass's spans add up, and record the
/// network-layer rows and the tracing overhead.
///
/// `untraced` runs one batch through the public session API and returns
/// its output.
pub fn trace_network(
    out: &mut Outcome,
    traced: &mut TracedModel,
    inputs: &[Tensor<f32>],
    min_pairs: usize,
    seconds: f64,
    mut untraced: impl FnMut(&Tensor<f32>) -> Result<Tensor<f32>, BoxError>,
) -> Result<(), BoxError> {
    // One unrecorded pass of each, so both start warm.
    untraced(&inputs[0])?;
    traced.forward(&inputs[0])?;
    let warm = traced.passes().len();
    let mut untraced_s = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < min_pairs || secs(start) < seconds {
        let x = &inputs[i % inputs.len()];
        let (want, dt) = timed(|| untraced(x));
        let want = want?;
        untraced_s.push(dt / x.shape().n as f64);
        out.report.attempted += x.shape().n as u64;
        let got = traced.forward(x)?;
        out.report.check(same_bits(&got, &want), || {
            format!("traced pass {i} differs from the session's output")
        });
        i += 1;
    }
    let passes = &traced.passes()[warm..];
    for (j, pass) in passes.iter().enumerate() {
        out.report.check(pass.is_consistent(), || {
            format!("traced pass {j}: conv spans and gaps do not add up to the pass wall")
        });
    }
    let rows = LayerRows::from_passes(traced.nodes(), passes);
    let r = &mut out.report;
    r.set("graph.nonconv_s", rows.nonconv);
    r.set("axconv2d.busy_s", rows.busy);
    r.set("axconv2d.other_s", rows.conv_other());
    r.set("backend.im2col_quant_s", rows.im2col);
    r.set("kernel.gemm_s", rows.gemm);
    for (bucket, v) in &rows.gemm_by_bucket {
        r.set(&format!("kernel.gemm_s.{bucket}"), *v);
    }
    r.set("kernel.gmacs_per_s", rows.gmacs_per_s);
    // Tracing overhead: median traced over median untraced pass time.
    let traced_s: Vec<f64> = passes.iter().map(|p| p.wall() / p.images as f64).collect();
    let overhead = median(&traced_s) / median(&untraced_s) - 1.0;
    r.set("trace.overhead_share", overhead);
    out.note(format!(
        "trace: {} pass pairs; per image (mean): nonconv {:.3} ms + conv {:.3} ms = traced wall \
         {:.3} ms (spans + gaps = pass wall within {SPAN_SUM_TOLERANCE} in every pass); median \
         traced {:.3} ms vs untraced {:.3} ms: overhead {:+.2}%",
        passes.len(),
        rows.nonconv * 1e3,
        rows.busy * 1e3,
        rows.wall * 1e3,
        median(&traced_s) * 1e3,
        median(&untraced_s) * 1e3,
        overhead * 100.0,
    ));
    Ok(())
}

/// Record the host descriptor and build the traced run's document:
/// workload, seed, host, notes and spans.
pub fn finish_trace(
    cfg: &Config,
    out: &mut Outcome,
    kernel: &str,
    threads: usize,
    spans: Option<String>,
) {
    let host = host_descriptor(kernel, threads);
    out.note(format!("host: {host}"));
    let notes: Vec<String> = out.notes.iter().map(|n| json::string(n)).collect();
    out.trace_doc = Some(json::object(&[
        ("schema", json::string("tfapprox-e2e-trace/1")),
        ("workload", json::string(cfg.workload.name())),
        ("seed", json::integer(cfg.seed)),
        ("host", host),
        ("notes", json::array(&notes)),
        ("spans", spans.unwrap_or_else(|| "null".to_owned())),
    ]));
}
