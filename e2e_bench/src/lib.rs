//! End-to-end and per-layer benchmark of the TFApprox reproduction.
//!
//! One command runs one named workload through the public `Session`,
//! `sweep_uniform` and `ServeEngine` API, checks its outputs and prints
//! its metrics; see `README.md` in this directory for the workloads and
//! what each metric means.

pub mod metrics;
pub mod trace;
pub mod util;
pub mod workloads;

use metrics::Report;
use std::path::PathBuf;

/// A boxed error: the benchmark stops on the first one.
pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ResNet-20 in batches of 32, approximate and accurate.
    BatchResnet20,
    /// ResNet-8 over 17 multipliers x 3 accumulators via `sweep_uniform`.
    DesignSweep,
    /// ResNet-8 on the simulated GPU.
    GpusimResnet8,
}

/// Every workload with its command-line name.
pub const WORKLOADS: &[(&str, Workload)] = &[
    ("batch-resnet20", Workload::BatchResnet20),
    ("design-sweep", Workload::DesignSweep),
    ("gpusim-resnet8", Workload::GpusimResnet8),
];

impl Workload {
    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed")
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long the measured region lasts.
    pub seconds: f64,
    /// Run the traced variant and report per-layer metrics.
    pub trace: bool,
    /// Small inputs, for smoke tests.
    pub quick: bool,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

impl Config {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>
    /// [--quick] [--out <dir>]`.
    ///
    /// # Errors
    ///
    /// On a missing, unknown or malformed argument.
    pub fn from_args(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut quick = false;
        let mut out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .cloned()
            };
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
                    workload = Some(
                        WORKLOADS
                            .iter()
                            .find(|(n, _)| *n == v)
                            .map(|(_, w)| *w)
                            .ok_or_else(|| format!("unknown workload {v:?}; one of {names:?}"))?,
                    );
                }
                "--seed" => {
                    let v = value()?;
                    seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v:?}: {e}"))?);
                }
                "--seconds" => {
                    let v = value()?;
                    let s = v
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds {v:?}: {e}"))?;
                    if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds must be in (0, 600], got {v}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                    };
                }
                "--quick" => quick = true,
                "--out" => out_dir = PathBuf::from(value()?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Config {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            quick,
            out_dir,
        })
    }

    /// Set-up is repeated at least this many times and for at least this
    /// many seconds; `setup_s` is the median. Three seconds of set-ups
    /// span more than one of a shared host's slow or fast spells, which
    /// last one to a few seconds.
    #[must_use]
    pub fn setup_budget(&self) -> (usize, f64) {
        if self.quick {
            (1, 0.0)
        } else {
            (11, 3.0)
        }
    }
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics, counts and check results.
    pub report: Report,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// The traced run's document: spans, host descriptor and notes.
    pub trace_doc: Option<String>,
}

impl Outcome {
    /// Add a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// Run the configured workload.
///
/// # Errors
///
/// On any failure of the program under test that is not an output
/// mismatch (those are recorded as failed checks instead).
pub fn run(cfg: &Config) -> Result<Outcome, BoxError> {
    let mut out = Outcome::default();
    match cfg.workload {
        Workload::BatchResnet20 => workloads::batch::run(cfg, &mut out)?,
        Workload::DesignSweep => workloads::sweep::run(cfg, &mut out)?,
        Workload::GpusimResnet8 => workloads::gpusim::run(cfg, &mut out)?,
    }
    if !cfg.trace {
        out.report.set("peak_rss_mb", util::peak_rss_mb()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let cfg = Config::from_args(&args(
            "--workload design-sweep --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(cfg.workload, Workload::DesignSweep);
        assert_eq!(
            (cfg.seed, cfg.seconds, cfg.trace, cfg.quick),
            (7, 10.0, true, false)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload design-sweep --seed x --seconds 1 --trace 0",
            "--workload design-sweep --seed 1 --seconds 0 --trace 0",
            "--workload design-sweep --seed 1 --seconds 1 --trace 2",
            "--workload design-sweep --seconds 1 --trace 0",
            "--workload design-sweep --seed 1 --seconds 1 --trace 0 --bogus",
            "--workload",
        ] {
            assert!(Config::from_args(&args(bad)).is_err(), "accepted {bad}");
        }
    }
}
