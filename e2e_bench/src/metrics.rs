//! The benchmark's metric catalogue and the result line it prints.
//!
//! `BENCHMARK.json` at the repository root lists the same names and
//! units; the package tests keep the two in step.

use std::collections::BTreeMap;
use tfapprox_bench::json;

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics every workload reports with `--trace 0`. A work item is an
/// emulated image (batch-resnet20, gpusim-resnet8) or a design point
/// (design-sweep). Every workload is a batch job, so its figure of merit
/// is work done per second; call latencies are printed as notes.
pub const END_TO_END: &[Metric] = &[
    m("items_per_s", "1/s", Higher),
    m("accurate_images_per_s", "1/s", Higher),
    m("setup_s", "s", Lower),
    m("peak_rss_mb", "MB", Lower),
];

/// Metrics every workload reports with `--trace 1`. A layer that a
/// workload does not run reads 0 there. Network-layer seconds are per
/// image; sweep seconds are per design point.
pub const PER_LAYER: &[Metric] = &[
    m("graph.nonconv_s", "s", Lower),
    m("axconv2d.busy_s", "s", Lower),
    m("axconv2d.other_s", "s", Lower),
    m("backend.im2col_quant_s", "s", Lower),
    m("kernel.gemm_s", "s", Lower),
    m("kernel.gemm_s.27x16", "s", Lower),
    m("kernel.gemm_s.144x16", "s", Lower),
    m("kernel.gemm_s.144x32", "s", Lower),
    m("kernel.gemm_s.288x32", "s", Lower),
    m("kernel.gemm_s.288x64", "s", Lower),
    m("kernel.gemm_s.576x64", "s", Lower),
    m("kernel.gmacs_per_s", "GMAC/s", Higher),
    m("session.compile_s", "s", Lower),
    m("session.reassign_s", "s", Lower),
    m("sweep.infer_s", "s", Lower),
    m("sweep.exact_s", "s", Lower),
    m("sweep.saturating_s", "s", Lower),
    m("sweep.wrapping_s", "s", Lower),
    m("compile.netlist_s", "s", Lower),
    m("serve.solo_ms", "ms", Lower),
    m("serve.queue_ms", "ms", Lower),
    m("serve.mean_occupancy", "req/batch", Higher),
    m("serve.batches", "count", Lower),
    m("serve.fused_batches", "count", Higher),
    m("serve.failed", "count", Lower),
    m("registry.hits", "count", Higher),
    m("registry.misses", "count", Lower),
    m("serve.tenant.hot.p99_ms", "ms", Lower),
    m("serve.tenant.cold.p99_ms", "ms", Lower),
    m("loadgen.lag_p99_ms", "ms", Lower),
    m("gpusim.modeled_tcomp_s", "s", Lower),
    m("gpusim.tex_fetches", "count", Lower),
    m("gpusim.tex_hit_ratio", "ratio", Higher),
    m("gpusim.host_ns_per_fetch", "ns", Lower),
    m("trace.overhead_share", "ratio", Lower),
    m("ref.speedup_vs_cpu_direct", "x", Higher),
    m("ref.overhead_vs_accurate", "x", Lower),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted in the measured region.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Record `name`, which must be in [`END_TO_END`] or [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// On a name outside both tables: that is a bug in a workload.
    pub fn set(&mut self, name: &str, value: f64) {
        let metric = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.values.insert(metric.name, value);
    }

    /// A recorded value.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Record a correctness check; a failed one makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Failed checks, in the order they were made.
    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of the selected table. Per-layer metrics a workload does not
    /// measure read 0.
    ///
    /// # Errors
    ///
    /// If an end-to-end metric is missing or any value is not finite.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(table.len());
        for metric in table {
            let value = match (self.get(metric.name), trace) {
                (Some(v), _) => v,
                (None, true) => 0.0,
                (None, false) => return Err(format!("metric {} was not measured", metric.name)),
            };
            if !value.is_finite() {
                return Err(format!("metric {} is not finite ({value})", metric.name));
            }
            let entry = json::object(&[
                ("value", json::number(value)),
                ("unit", json::string(metric.unit)),
            ]);
            fields.push((metric.name, entry));
        }
        let line = json::object(&[
            ("correct", json::boolean(self.failures.is_empty())),
            ("attempted", json::integer(self.attempted)),
            ("failed", json::integer(self.failed)),
            ("metrics", json::object(&fields)),
        ]);
        json::validate(&line)?;
        Ok(line)
    }

    /// `name = value unit` lines for every recorded metric of the table.
    #[must_use]
    pub fn human_lines(&self, trace: bool) -> Vec<String> {
        let table = if trace { PER_LAYER } else { END_TO_END };
        table
            .iter()
            .map(|m| match self.get(m.name) {
                Some(v) => format!("{} = {v:.6} {}", m.name, m.unit),
                None => format!("{} = 0 {} (not run by this workload)", m.name, m.unit),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64 && m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut r = Report::default();
        for m in END_TO_END {
            r.set(m.name, 1.5);
        }
        r.attempted = 7;
        let line = r.result_line(false).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        // Per-layer metrics nobody measured read 0; end-to-end ones may not be missing.
        assert!(r
            .result_line(true)
            .unwrap()
            .contains("\"kernel.gemm_s\": {\"value\": 0.0"));
        let mut missing = Report::default();
        missing.set("setup_s", 1.0);
        assert!(missing.result_line(false).is_err());
        r.check(false, || "broken".to_owned());
        assert!(r
            .result_line(false)
            .unwrap()
            .starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_is_a_bug() {
        Report::default().set("no.such_metric", 1.0);
    }
}
