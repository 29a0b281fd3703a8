//! `gpusim-resnet8`: ResNet-8 with `mul8s_bam_v8h0` on the simulated GPU.
//! Host time is measured; the simulated statistics must repeat exactly.
//!
//! The modeled texture cache keeps its state between calls, so the first
//! calls see a colder cache than later ones. Calls are discarded until
//! one repeats the previous call's outputs and modeled statistics
//! exactly; from then on every call must repeat them.

use super::{finish_trace, repeat_setup, APPROX_MULT, MODEL_SEED};
use crate::util::{
    digest, latency_summary, median, quantile, rate, same_bits, secs, timed, RATE_QUANTILE,
};
use crate::{BoxError, Config, Outcome};
use axnn::dataset::SyntheticCifar10;
use axnn::resnet::ResNetConfig;
use gpusim::EventCounts;
use std::slice;
use std::time::Instant;
use tfapprox::{Backend, Session};

/// Images per `infer_batches` call.
const IMAGES: usize = 2;
/// Most calls discarded while the modeled cache settles.
const MAX_WARMUP: usize = 10;
/// Accurate f32 passes after each simulated call. The first pass after a
/// call meets caches the simulator has evicted; with several passes per
/// call the rate quantile measures warm passes.
const ACCURATE_REPS: usize = 8;

/// What one simulated call produced: output digest, modeled seconds and
/// the call's own modeled events (`infer_batches` resets the context's
/// counters on entry, so `events()` after the call holds only this call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Modeled {
    output: u64,
    tcomp_bits: u64,
    events: EventCounts,
}

/// Run the workload.
///
/// # Errors
///
/// Propagates failures of the program under test.
pub fn run(cfg: &Config, out: &mut Outcome) -> Result<(), BoxError> {
    let mut compile_s = Vec::new();
    let (graph, session) = repeat_setup(cfg, out, || {
        let graph = ResNetConfig::with_depth(8)?.build(MODEL_SEED)?;
        let (session, dt) = timed(|| {
            Session::builder()
                .backend(Backend::GpuSim)
                .multiplier_named(APPROX_MULT)
                .compile(&graph)
        });
        compile_s.push(dt);
        Ok((graph, session?))
    })?;
    let images = if cfg.quick { 1 } else { IMAGES };
    let x = SyntheticCifar10::new(cfg.seed).batch_sized(0, images);
    let call = || -> Result<(Modeled, f64), BoxError> {
        let (res, dt) = timed(|| session.infer_batches(slice::from_ref(&x)));
        let (outs, report) = res?;
        let modeled = Modeled {
            output: digest(&outs[0]),
            tcomp_bits: report.tcomp.to_bits(),
            events: session.context().events(),
        };
        Ok((modeled, dt))
    };

    let mut prev = call()?.0;
    let mut discarded = 1;
    loop {
        let (now, _) = call()?;
        discarded += 1;
        if now == prev {
            break;
        }
        if discarded >= MAX_WARMUP {
            return Err(
                format!("modeled statistics did not settle within {MAX_WARMUP} calls").into(),
            );
        }
        prev = now;
    }
    let steady = prev;
    let accurate_ref = graph.forward(&x)?;

    let mut host_s = Vec::new();
    let mut accurate_s = Vec::new();
    let start = Instant::now();
    while host_s.len() < 2 || secs(start) < cfg.seconds {
        let (modeled, dt) = call()?;
        out.report.check(modeled == steady, || {
            format!(
                "call {} changed the outputs or modeled statistics",
                host_s.len()
            )
        });
        host_s.push(dt);
        for _ in 0..ACCURATE_REPS {
            let (y, dt) = timed(|| graph.forward(&x));
            accurate_s.push(dt);
            out.report.check(same_bits(&y?, &accurate_ref), || {
                format!(
                    "accurate output after call {} differs from the first pass",
                    host_s.len()
                )
            });
        }
    }
    out.report.attempted = (host_s.len() * images) as u64;
    out.note(format!(
        "modeled texture cache starts warm: {discarded} calls discarded until the statistics \
         repeated; gpusim digest {:016x}",
        steady.output ^ steady.tcomp_bits.rotate_left(17) ^ steady.events.tex_hits.rotate_left(31)
    ));

    let host = quantile(&host_s, RATE_QUANTILE);
    if cfg.trace {
        let ev = steady.events;
        let per_image = |v: f64| v / images as f64;
        let r = &mut out.report;
        r.set("session.compile_s", median(&compile_s));
        r.set(
            "gpusim.modeled_tcomp_s",
            per_image(f64::from_bits(steady.tcomp_bits)),
        );
        r.set("gpusim.tex_fetches", per_image(ev.tex_fetches() as f64));
        r.set(
            "gpusim.tex_hit_ratio",
            ev.tex_hits as f64 / ev.tex_fetches() as f64,
        );
        r.set(
            "gpusim.host_ns_per_fetch",
            host * 1e9 / ev.tex_fetches() as f64,
        );
        out.note(format!(
            "gpusim: per call of {images} images: modeled tcomp {:.6} s (modeled, not measured), \
             {} texture fetches, {} hits; host {:.3} s (p{:.0} call)",
            f64::from_bits(steady.tcomp_bits),
            ev.tex_fetches(),
            ev.tex_hits,
            host,
            RATE_QUANTILE * 100.0,
        ));
        // The simulator runs on the calling thread and no host LUT-GEMM arm.
        finish_trace(cfg, out, "none", 1, None);
        return Ok(());
    }
    let r = &mut out.report;
    r.set("items_per_s", images as f64 / host);
    r.set("accurate_images_per_s", rate(images as f64, &accurate_s));
    out.note(format!(
        "gpusim_host_images_per_s = {:.4} 1/s from the p{:.0} call of {images} images; call \
         latency: {}",
        images as f64 / host,
        RATE_QUANTILE * 100.0,
        latency_summary(&host_s),
    ));
    Ok(())
}
