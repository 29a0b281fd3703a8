//! The serving stage of design-sweep's traced run: open-loop Poisson
//! arrivals of 1-image requests to a default `ServeEngine` (one shard)
//! over ResNet-8 on the CPU GEMM backend, with two registry tenants,
//! `mul8s_bam_v8h0` (hot) and `mul8s_exact` (cold), 3:1.
//!
//! It reports per-layer metrics only. Its latencies are not end-to-end
//! metrics: on a 2-vCPU virtual machine they are dominated by thread
//! wake-ups and moved by 25–45% (interquartile share) between runs of
//! the same code.

use super::APPROX_MULT;
use crate::util::{median, quantile, same_bits, timed, Rng};
use crate::{BoxError, Config, Outcome};
use axnn::dataset::SyntheticCifar10;
use axnn::Graph;
use axtensor::Tensor;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use tfapprox::{
    Assignment, Backend, Error, ServeConfig, ServeEngine, Session, SessionKey, SessionRegistry,
    Ticket,
};

/// The cold tenant's multiplier.
const COLD_MULT: &str = "mul8s_exact";
/// Share of requests sent to the hot tenant.
const HOT_SHARE: f64 = 0.75;
/// Offered load, requests per second.
const RATE: f64 = 40.0;
/// Requests of the open loop: p99 has ten samples beyond it.
const REQUESTS: usize = 1000;
/// Model name in the registry.
const MODEL: &str = "resnet8";

/// One answered (or refused) request.
struct Answer {
    request: usize,
    done: Instant,
    result: Result<Tensor<f32>, Error>,
}

/// Wait on one tenant's tickets in order: a tenant's micro-batches run in
/// submission order on the single shard, so each wait returns as soon as
/// that response exists.
fn collect(rx: mpsc::Receiver<(usize, Ticket)>) -> Vec<Answer> {
    rx.into_iter()
        .map(|(request, ticket)| {
            let result = ticket.wait();
            Answer {
                request,
                done: Instant::now(),
                result,
            }
        })
        .collect()
}

/// Submit request `i` at `due[i]` after a common start, and gather every
/// answer. Returns the start, each submission's lag behind its due time,
/// and the answers in request order.
fn drive(
    engine: &ServeEngine,
    keys: &[SessionKey; 2],
    inputs: &[Tensor<f32>],
    hot: &[bool],
    due: &[Duration],
) -> (Instant, Vec<Duration>, Vec<Answer>) {
    let (hot_tx, hot_rx) = mpsc::channel();
    let (cold_tx, cold_rx) = mpsc::channel();
    let start = Instant::now() + Duration::from_millis(5);
    let mut lag = Vec::with_capacity(due.len());
    let mut answers = std::thread::scope(|s| {
        let hot_c = s.spawn(move || collect(hot_rx));
        let cold_c = s.spawn(move || collect(cold_rx));
        let mut refused = Vec::new();
        for (i, &at) in due.iter().enumerate() {
            let input = inputs[i].clone();
            let due_at = start + at;
            let now = Instant::now();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            let sent = Instant::now();
            lag.push(sent - due_at);
            let (key, tx) = if hot[i] {
                (&keys[0], &hot_tx)
            } else {
                (&keys[1], &cold_tx)
            };
            match engine.submit_to(key, input) {
                Ok(ticket) => tx.send((i, ticket)).expect("collector alive"),
                Err(e) => refused.push(Answer {
                    request: i,
                    done: sent,
                    result: Err(e),
                }),
            }
        }
        drop((hot_tx, cold_tx));
        let mut all = hot_c.join().expect("hot collector");
        all.extend(cold_c.join().expect("cold collector"));
        all.extend(refused);
        all
    });
    answers.sort_by_key(|a| a.request);
    (start, lag, answers)
}

/// Run the serving stage on `graph` and record the serve-layer metrics.
///
/// # Errors
///
/// Propagates failures of the program under test.
pub fn measure(cfg: &Config, out: &mut Outcome, graph: &Graph) -> Result<(), BoxError> {
    let anchor = Session::builder()
        .backend(Backend::CpuGemm)
        .multiplier_named(APPROX_MULT)
        .compile(graph)?;
    let registry = Arc::new(SessionRegistry::new(4)?);
    let hot_key = registry.install(MODEL, Arc::new(anchor))?;
    let cold_key = registry.admit(MODEL, &Assignment::uniform_named(COLD_MULT)?)?;
    let keys = [hot_key.clone(), cold_key];
    let engine = ServeEngine::with_registry(registry, hot_key, ServeConfig::new())?;

    let n = if cfg.quick { 40 } else { REQUESTS };
    let data = SyntheticCifar10::new(cfg.seed);
    // Batch indices past the sweep's, so the requests are new images.
    let inputs: Vec<Tensor<f32>> = (0..n).map(|i| data.batch_sized(i + 1, 1)).collect();
    let mut rng = Rng::new(cfg.seed);
    let hot: Vec<bool> = (0..n).map(|_| rng.unit() < HOT_SHARE).collect();
    let mut at = Duration::ZERO;
    let arrivals: Vec<Duration> = (0..n)
        .map(|_| {
            at += Duration::from_secs_f64(rng.exponential(RATE));
            at
        })
        .collect();
    let sessions = [
        engine.registry().session_for(&keys[0])?,
        engine.registry().session_for(&keys[1])?,
    ];
    // Warm-up: each tenant's worker pool spawns on first use.
    for key in &keys {
        engine.infer_to(key, inputs[0].clone())?;
    }

    let before = engine.stats();
    let (origin, lag, answers) = drive(&engine, &keys, &inputs, &hot, &arrivals);
    let after = engine.stats();
    let registry = engine.registry().stats();

    // Every response equals a solo `Session::infer` on its tenant's session.
    let mut solo_s = Vec::with_capacity(n);
    let mut failed = 0u64;
    for a in &answers {
        let session = &sessions[usize::from(!hot[a.request])];
        let (want, dt) = timed(|| session.infer(&inputs[a.request]));
        let want = want?;
        solo_s.push(dt);
        match &a.result {
            Ok(y) => out.report.check(same_bits(y, &want), || {
                format!(
                    "response to request {} differs from solo Session::infer",
                    a.request
                )
            }),
            Err(e) => {
                failed += 1;
                out.note(format!("request {} failed: {e}", a.request));
            }
        }
    }
    out.report.attempted += answers.len() as u64;
    out.report.failed += failed;

    // Latency from each request's due time; a failure misses every limit.
    let mut latency = [Vec::new(), Vec::new()];
    for a in &answers {
        let due = origin + arrivals[a.request];
        let l = match a.result {
            Ok(_) => a.done.saturating_duration_since(due).as_secs_f64(),
            Err(_) => f64::INFINITY,
        };
        latency[usize::from(!hot[a.request])].push(l);
    }
    let all: Vec<f64> = latency.concat();
    let (p50, p99) = (median(&all), quantile(&all, 0.99));
    let batches = after.batches - before.batches;
    let lag: Vec<f64> = lag.iter().map(Duration::as_secs_f64).collect();
    let r = &mut out.report;
    r.set("serve.solo_ms", median(&solo_s) * 1e3);
    r.set("serve.queue_ms", (p50 - median(&solo_s)) * 1e3);
    r.set("serve.batches", batches as f64);
    r.set(
        "serve.fused_batches",
        (after.fused_batches - before.fused_batches) as f64,
    );
    r.set(
        "serve.mean_occupancy",
        (after.requests - before.requests) as f64 / batches.max(1) as f64,
    );
    r.set("serve.failed", failed as f64);
    r.set("registry.hits", registry.hits as f64);
    r.set("registry.misses", registry.misses as f64);
    r.set("serve.tenant.hot.p99_ms", quantile(&latency[0], 0.99) * 1e3);
    r.set(
        "serve.tenant.cold.p99_ms",
        quantile(&latency[1], 0.99) * 1e3,
    );
    r.set("loadgen.lag_p99_ms", quantile(&lag, 0.99) * 1e3);
    out.note(format!(
        "serving stage: serve_p50_ms = {:.3} ms, serve_p99_ms = {:.3} ms over {n} requests at \
         {RATE} req/s (open loop, Poisson, timed from due time; hot:cold 3:1, {} shard)",
        p50 * 1e3,
        p99 * 1e3,
        engine.config().shards(),
    ));
    Ok(())
}
