//! Order statistics, output digests, the seeded generator and the host
//! descriptor.

use axtensor::Tensor;
use std::time::Instant;
use tfapprox_bench::json;

/// Linearly interpolated quantile of `values` (`q` in `[0, 1]`); NaN for
/// an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The quantile of per-call times that every end-to-end rate is taken at.
///
/// On a shared host each vCPU intermittently runs about 1.6x slower for
/// seconds at a time (other tenants' load on the same physical core), so
/// per-call times mix an uncontended and a contended mode. The median
/// jumps between the two as the contended share of a run crosses one
/// half; the tenth percentile stays in the uncontended mode as long as a
/// tenth of the run is uncontended.
pub const RATE_QUANTILE: f64 = 0.1;

/// `items` per [`RATE_QUANTILE`] of `call_s`, the per-call seconds.
#[must_use]
pub fn rate(items: f64, call_s: &[f64]) -> f64 {
    items / quantile(call_s, RATE_QUANTILE)
}

/// The highest quantile, at most 0.99, with at least ten samples beyond
/// it; the median when there are fewer than twenty samples.
#[must_use]
pub fn tail_q(samples: usize) -> f64 {
    (1.0 - 10.0 / samples as f64).clamp(0.5, 0.99)
}

/// `median X ms, pQ Y ms of n`: a timing as its median and its highest
/// percentile with at least ten samples beyond it.
#[must_use]
pub fn latency_summary(samples_s: &[f64]) -> String {
    let q = tail_q(samples_s.len());
    format!(
        "median {:.3} ms, p{:.0} {:.3} ms of {}",
        median(samples_s) * 1e3,
        q * 100.0,
        quantile(samples_s, q) * 1e3,
        samples_s.len()
    )
}

/// Seconds since `t`.
#[must_use]
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}

/// Whether two tensors have the same shape and the same bits.
#[must_use]
pub fn same_bits(a: &Tensor<f32>, b: &Tensor<f32>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// FNV-1a digest of a tensor's shape and bits.
#[must_use]
pub fn digest(t: &Tensor<f32>) -> u64 {
    let s = t.shape();
    let words = [s.n, s.h, s.w, s.c].map(|d| d as u32);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words
        .into_iter()
        .chain(t.as_slice().iter().map(|x| x.to_bits()))
    {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// SplitMix64: the load generator's seeded source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given rate.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Where `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// The host descriptor: kernel arm, threads, CPU features, CPUs, compiler.
#[must_use]
pub fn host_descriptor(kernel: &str, threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    json::object(&[
        ("kernel", json::string(kernel)),
        ("threads", json::integer(threads as u64)),
        ("nproc", json::integer(nproc as u64)),
        (
            "cpu_features",
            json::array(
                &cpu_features()
                    .iter()
                    .map(|f| json::string(f))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("rustc", json::string(env!("E2E_BENCH_RUSTC"))),
    ])
}

fn cpu_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut out = Vec::new();
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::arch::is_x86_feature_detected!($f) {
                    out.push($f);
                }
            )*};
        }
        probe!(
            "sse4.2",
            "avx",
            "avx2",
            "fma",
            "avx512f",
            "avx512bw",
            "avx512vl",
            "avx512vbmi"
        );
        out
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn rate_uses_the_fast_tenth() {
        let calls: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(rate(4.0, &calls), 2.0);
        // A contended majority does not move it.
        let mixed = [1.0, 1.0, 1.0, 1.0, 1.6, 1.6, 1.6, 1.6, 1.6, 1.6];
        assert_eq!(rate(1.0, &mixed), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_q(10), 0.5);
        assert_eq!(tail_q(100), 0.9);
        assert_eq!(tail_q(1000), 0.99);
        assert_eq!(tail_q(5000), 0.99);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(3), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(3), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..4)
            .scan(Rng::new(4), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(9);
        let mean = (0..20_000).map(|_| r.exponential(50.0)).sum::<f64>() / 20_000.0;
        assert!((mean - 0.02).abs() < 0.001, "{mean}");
    }

    #[test]
    fn digest_sees_shape_and_bits() {
        let a = Tensor::from_vec(axtensor::Shape4::new(1, 1, 1, 2), vec![1.0, -0.0]).unwrap();
        let b = Tensor::from_vec(axtensor::Shape4::new(1, 1, 1, 2), vec![1.0, 0.0]).unwrap();
        let c = Tensor::from_vec(axtensor::Shape4::new(1, 1, 2, 1), vec![1.0, -0.0]).unwrap();
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
        assert!(same_bits(&a, &a.clone()) && !same_bits(&a, &b));
    }
}
