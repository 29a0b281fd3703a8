//! The traced run: per-conv spans recorded from outside the program.
//!
//! [`TracedModel`] builds its graph the way `SessionBuilder::compile`
//! does — `Graph::rewrite_convs` with `AxConv2D::from_conv2d`, then
//! `prepare()` — except that each approximate layer is wrapped in a
//! timing layer. Around every call the wrapper diffs its own context's
//! `EmuContext::profile()`: on the CPU GEMM backend the `LutLookup` phase
//! is the LUT-GEMM and `Other` is the quantizing im2col. The context
//! belongs to the traced graph alone, so nothing resets it between calls
//! and the diffs cannot underflow. Spans stay in memory until the run
//! ends.

use crate::util::secs;
use axmult::AxMultiplier;
use axnn::{layers::Conv2D, Graph, Layer, NnError};
use axtensor::{Shape4, Tensor};
use gpusim::Phase;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tfapprox::{Accumulator, AxConv2D, EmuContext};
use tfapprox_bench::json;

/// Largest allowed `|conv spans + gaps - pass wall| / pass wall`: the
/// spans and the pass share one clock, so only rounding may differ.
pub const SPAN_SUM_TOLERANCE: f64 = 1e-3;

/// One approximate convolution call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into [`TracedModel::nodes`].
    pub node: usize,
    /// Start, seconds since the model's epoch.
    pub start: f64,
    /// End, seconds since the model's epoch.
    pub end: f64,
    /// LUT-GEMM seconds inside the span.
    pub gemm_s: f64,
    /// Quantizing-im2col seconds inside the span.
    pub im2col_s: f64,
    /// Multiply-accumulates of the call.
    pub macs: u64,
}

/// One traced `Graph::forward` and the conv spans it caused.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Images in the pass.
    pub images: usize,
    /// Start, seconds since the model's epoch.
    pub start: f64,
    /// End, seconds since the model's epoch.
    pub end: f64,
    /// The conv spans, in call order.
    pub spans: Vec<Span>,
}

impl Pass {
    /// Wall seconds of the pass.
    #[must_use]
    pub fn wall(&self) -> f64 {
        self.end - self.start
    }

    /// Seconds between the pass boundaries and the conv spans: the
    /// non-conv nodes, including the Min/Max observers.
    #[must_use]
    pub fn gaps(&self) -> f64 {
        let mut cursor = self.start;
        let mut gaps = 0.0;
        for s in &self.spans {
            gaps += s.start - cursor;
            cursor = s.end;
        }
        gaps + (self.end - cursor)
    }

    /// Sum of conv span durations.
    #[must_use]
    pub fn busy(&self) -> f64 {
        self.spans.iter().map(|s| s.end - s.start).sum()
    }

    /// Whether spans are ordered, disjoint, inside the pass, hold their
    /// phases, and add up with the gaps to the pass wall.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        let mut cursor = self.start;
        for s in &self.spans {
            if s.start < cursor
                || s.end < s.start
                || s.gemm_s + s.im2col_s > (s.end - s.start) * 1.001
            {
                return false;
            }
            cursor = s.end;
        }
        cursor <= self.end
            && ((self.busy() + self.gaps()) - self.wall()).abs() <= SPAN_SUM_TOLERANCE * self.wall()
    }
}

/// A traced conv node.
#[derive(Debug, Clone)]
pub struct ConvNode {
    /// Graph node name.
    pub name: String,
    /// GEMM depth `kh * kw * c_in`.
    pub k: usize,
    /// Output channels.
    pub c_out: usize,
}

impl ConvNode {
    /// The `K x c_out` shape bucket.
    #[must_use]
    pub fn bucket(&self) -> String {
        format!("{}x{}", self.k, self.c_out)
    }
}

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

#[derive(Debug)]
struct TimedConv {
    inner: AxConv2D,
    node: usize,
    ctx: Arc<EmuContext>,
    rec: Arc<Recorder>,
}

impl Layer for TimedConv {
    fn op_name(&self) -> &str {
        self.inner.op_name()
    }

    fn arity(&self) -> usize {
        self.inner.arity()
    }

    fn output_shape(&self, inputs: &[Shape4]) -> Result<Shape4, NnError> {
        self.inner.output_shape(inputs)
    }

    fn mac_count(&self, inputs: &[Shape4]) -> Result<u64, NnError> {
        self.inner.mac_count(inputs)
    }

    fn forward(&self, inputs: &[&Tensor<f32>]) -> Result<Tensor<f32>, NnError> {
        let shapes: Vec<Shape4> = inputs.iter().map(|t| t.shape()).collect();
        let macs = self.inner.mac_count(&shapes)?;
        let before = self.ctx.profile();
        let start = secs(self.rec.epoch);
        let out = self.inner.forward(inputs)?;
        let end = secs(self.rec.epoch);
        let after = self.ctx.profile();
        let delta = |p: Phase| after.seconds(p) - before.seconds(p);
        self.rec.spans.lock().expect("span recorder").push(Span {
            node: self.node,
            start,
            end,
            gemm_s: delta(Phase::LutLookup),
            im2col_s: delta(Phase::Other),
            macs,
        });
        Ok(out)
    }
}

/// An approximate model whose conv layers record spans.
#[derive(Debug)]
pub struct TracedModel {
    graph: Graph,
    nodes: Vec<ConvNode>,
    rec: Arc<Recorder>,
    passes: Vec<Pass>,
}

impl TracedModel {
    /// Transform `source` with one multiplier on the CPU GEMM backend,
    /// with the session defaults (threads, kernel arm, chunk size), and
    /// build every plan.
    ///
    /// # Errors
    ///
    /// Propagates graph-rewrite and plan-build failures.
    pub fn compile(
        source: &Graph,
        mult: &AxMultiplier,
        accumulator: Accumulator,
    ) -> Result<Self, tfapprox::Error> {
        let ctx = Arc::new(EmuContext::new(tfapprox::Backend::CpuGemm));
        let rec = Arc::new(Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        });
        let names: Vec<String> = source.conv_layers().map(|(_, n)| n.to_owned()).collect();
        let mut nodes = Vec::new();
        let mut layers = Vec::new();
        let (graph, _) = source.rewrite_convs(|conv: &Conv2D| {
            let fs = conv.filter().shape();
            let node = nodes.len();
            nodes.push(ConvNode {
                name: names.get(node).cloned().unwrap_or_default(),
                k: fs.h * fs.w * fs.c_in,
                c_out: fs.c_out,
            });
            let layer = Arc::new(TimedConv {
                inner: AxConv2D::from_conv2d(conv, mult, Arc::clone(&ctx))
                    .with_accumulator(accumulator),
                node,
                ctx: Arc::clone(&ctx),
                rec: Arc::clone(&rec),
            });
            layers.push(Arc::clone(&layer));
            layer
        })?;
        for layer in &layers {
            layer.inner.prepare()?;
        }
        Ok(TracedModel {
            graph,
            nodes,
            rec,
            passes: Vec::new(),
        })
    }

    /// The traced conv nodes, in call order.
    #[must_use]
    pub fn nodes(&self) -> &[ConvNode] {
        &self.nodes
    }

    /// Run one traced pass and keep its spans.
    ///
    /// # Errors
    ///
    /// Propagates graph execution failures.
    pub fn forward(&mut self, input: &Tensor<f32>) -> Result<Tensor<f32>, NnError> {
        let start = secs(self.rec.epoch);
        let out = self.graph.forward(input)?;
        let end = secs(self.rec.epoch);
        let spans = std::mem::take(&mut *self.rec.spans.lock().expect("span recorder"));
        self.passes.push(Pass {
            images: input.shape().n,
            start,
            end,
            spans,
        });
        Ok(out)
    }

    /// Every pass so far.
    #[must_use]
    pub fn passes(&self) -> &[Pass] {
        &self.passes
    }

    /// The spans as one JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let nodes: Vec<String> = self
            .nodes
            .iter()
            .map(|n| {
                json::object(&[
                    ("name", json::string(&n.name)),
                    ("bucket", json::string(&n.bucket())),
                ])
            })
            .collect();
        let passes: Vec<String> = self
            .passes
            .iter()
            .map(|p| {
                let spans: Vec<String> = p
                    .spans
                    .iter()
                    .map(|s| {
                        json::object(&[
                            ("node", json::integer(s.node as u64)),
                            ("start_s", json::number(s.start)),
                            ("end_s", json::number(s.end)),
                            ("gemm_s", json::number(s.gemm_s)),
                            ("im2col_quant_s", json::number(s.im2col_s)),
                            ("macs", json::integer(s.macs)),
                        ])
                    })
                    .collect();
                json::object(&[
                    ("images", json::integer(p.images as u64)),
                    ("start_s", json::number(p.start)),
                    ("end_s", json::number(p.end)),
                    ("spans", json::array(&spans)),
                ])
            })
            .collect();
        json::object(&[
            ("nodes", json::array(&nodes)),
            ("passes", json::array(&passes)),
        ])
    }
}

/// Per-image layer seconds over a set of traced passes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerRows {
    /// Traced wall seconds per image.
    pub wall: f64,
    /// Non-conv seconds per image (the gaps between conv spans).
    pub nonconv: f64,
    /// Conv span seconds per image.
    pub busy: f64,
    /// Quantizing-im2col seconds per image.
    pub im2col: f64,
    /// LUT-GEMM seconds per image.
    pub gemm: f64,
    /// LUT-GEMM seconds per image by `K x c_out` bucket.
    pub gemm_by_bucket: Vec<(String, f64)>,
    /// Conv multiply-accumulates per LUT-GEMM second, in 1e9.
    pub gmacs_per_s: f64,
}

impl LayerRows {
    /// Attribute `passes` of a model with conv `nodes`.
    #[must_use]
    pub fn from_passes(nodes: &[ConvNode], passes: &[Pass]) -> Self {
        let images: usize = passes.iter().map(|p| p.images).sum();
        let per = |v: f64| v / images.max(1) as f64;
        let spans = || passes.iter().flat_map(|p| &p.spans);
        let mut buckets: Vec<(String, f64)> = Vec::new();
        for s in spans() {
            let bucket = nodes[s.node].bucket();
            match buckets.iter_mut().find(|(b, _)| *b == bucket) {
                Some((_, v)) => *v += s.gemm_s,
                None => buckets.push((bucket, s.gemm_s)),
            }
        }
        let gemm: f64 = spans().map(|s| s.gemm_s).sum();
        let macs: u64 = spans().map(|s| s.macs).sum();
        LayerRows {
            wall: per(passes.iter().map(Pass::wall).sum()),
            nonconv: per(passes.iter().map(Pass::gaps).sum()),
            busy: per(passes.iter().map(Pass::busy).sum()),
            im2col: per(spans().map(|s| s.im2col_s).sum()),
            gemm: per(gemm),
            gemm_by_bucket: buckets.into_iter().map(|(b, v)| (b, per(v))).collect(),
            gmacs_per_s: if gemm > 0.0 {
                macs as f64 / gemm / 1e9
            } else {
                0.0
            },
        }
    }

    /// Conv time outside im2col and GEMM: validation, plan lookup,
    /// concatenation and bias.
    #[must_use]
    pub fn conv_other(&self) -> f64 {
        self.busy - self.im2col - self.gemm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(node: usize, start: f64, end: f64) -> Span {
        Span {
            node,
            start,
            end,
            gemm_s: (end - start) * 0.5,
            im2col_s: (end - start) * 0.25,
            macs: 1_000,
        }
    }

    fn nodes() -> Vec<ConvNode> {
        vec![
            ConvNode {
                name: "a".into(),
                k: 27,
                c_out: 16,
            },
            ConvNode {
                name: "b".into(),
                k: 144,
                c_out: 16,
            },
        ]
    }

    #[test]
    fn rows_reconcile_with_the_pass_wall() {
        let pass = Pass {
            images: 2,
            start: 1.0,
            end: 2.0,
            spans: vec![span(0, 1.1, 1.3), span(1, 1.5, 1.9)],
        };
        assert!(pass.is_consistent());
        assert!((pass.gaps() - 0.4).abs() < 1e-12);
        let rows = LayerRows::from_passes(&nodes(), &[pass]);
        assert!((rows.wall - 0.5).abs() < 1e-12);
        assert!((rows.busy - 0.3).abs() < 1e-12);
        assert!((rows.nonconv - 0.2).abs() < 1e-12);
        assert!((rows.gemm - 0.15).abs() < 1e-12);
        assert!((rows.conv_other() - 0.075).abs() < 1e-12);
        assert!((rows.nonconv + rows.busy - rows.wall).abs() < 1e-12);
        let bucket_sum: f64 = rows.gemm_by_bucket.iter().map(|(_, v)| v).sum();
        assert!((bucket_sum - rows.gemm).abs() < 1e-12);
        assert_eq!(rows.gemm_by_bucket[0].0, "27x16");
    }

    #[test]
    fn overlapping_or_overfull_spans_are_inconsistent() {
        let overlap = Pass {
            images: 1,
            start: 0.0,
            end: 1.0,
            spans: vec![span(0, 0.1, 0.5), span(1, 0.4, 0.6)],
        };
        assert!(!overlap.is_consistent());
        let mut overfull = span(0, 0.1, 0.2);
        overfull.gemm_s = 0.5;
        let pass = Pass {
            images: 1,
            start: 0.0,
            end: 1.0,
            spans: vec![overfull],
        };
        assert!(!pass.is_consistent());
    }
}
