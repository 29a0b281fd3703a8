//! The benchmark's own contract: `BENCHMARK.json` matches the metric
//! catalogue, every workload prints a well-formed result line with every
//! metric and its unit, the traced run reconciles, and outputs repeat per
//! seed. Run with `cargo test --release --manifest-path e2e_bench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::{Mutex, PoisonError};
use tfapprox_e2e_bench::metrics::{END_TO_END, PER_LAYER};
use tfapprox_e2e_bench::WORKLOADS;

/// A parsed JSON value (test-side reader for the writer's output).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(src: &str) -> Json {
        tfapprox_bench::json::validate(src).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{src}"));
        let mut p = Parser {
            b: src.as_bytes(),
            i: 0,
        };
        p.value()
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => {
                let found: Vec<&Json> = fields
                    .iter()
                    .filter(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .collect();
                assert_eq!(found.len(), 1, "key {key} must appear exactly once");
                found[0]
            }
            other => panic!("not an object: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(v) => *v,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                loop {
                    self.ws();
                    if self.b[self.i] == b'}' {
                        self.i += 1;
                        return Json::Obj(fields);
                    }
                    let Json::Str(k) = self.value() else {
                        unreachable!()
                    };
                    self.ws();
                    self.i += 1; // ':'
                    fields.push((k, self.value()));
                    self.ws();
                    if self.b[self.i] == b',' {
                        self.i += 1;
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                loop {
                    self.ws();
                    if self.b[self.i] == b']' {
                        self.i += 1;
                        return Json::Arr(items);
                    }
                    items.push(self.value());
                    self.ws();
                    if self.b[self.i] == b',' {
                        self.i += 1;
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut s = String::new();
                while self.b[self.i] != b'"' {
                    if self.b[self.i] == b'\\' {
                        self.i += 1;
                    }
                    s.push(char::from(self.b[self.i]));
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(s)
            }
            b't' | b'f' | b'n' => {
                let word: String = self.b[self.i..]
                    .iter()
                    .take_while(|c| c.is_ascii_alphabetic())
                    .map(|&c| char::from(c))
                    .collect();
                self.i += word.len();
                match word.as_str() {
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    _ => Json::Null,
                }
            }
            _ => {
                let start = self.i;
                while self
                    .b
                    .get(self.i)
                    .is_some_and(|c| b"+-.eE0123456789".contains(c))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii");
                Json::Num(text.parse().expect("number"))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let doc = benchmark_json();
    assert_eq!(
        doc.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let names: Vec<&str> = doc
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, ours);
    for w in doc.get("workloads").arr() {
        assert_eq!(w.keys(), ["name", "why"]);
        assert!(w.get("why").str().len() <= 200);
    }
    for (key, table, bounded) in [
        ("end_to_end", END_TO_END, true),
        ("per_layer", PER_LAYER, false),
    ] {
        let rows = doc.get(key).arr();
        assert_eq!(rows.len(), table.len(), "{key}");
        for (row, m) in rows.iter().zip(table) {
            assert_eq!(row.get("name").str(), m.name);
            assert_eq!(row.get("unit").str(), m.unit, "{}", m.name);
            assert_eq!(row.get("better").str(), m.better.as_str(), "{}", m.name);
            if bounded {
                assert_eq!(row.keys(), ["name", "unit", "better", "bound"]);
                let b = row.get("bound").num();
                assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
            } else {
                assert_eq!(row.keys(), ["name", "unit", "better"]);
            }
        }
    }
    let setup = doc
        .get("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").str() == "setup_s");
    let setup_bound = setup
        .expect("setup_s is an end-to-end metric")
        .get("bound")
        .num();
    assert!(doc
        .get("end_to_end")
        .arr()
        .iter()
        .all(|m| m.get("bound").num() <= setup_bound));
    let paths: Vec<&str> = doc.get("paths").arr().iter().map(Json::str).collect();
    assert_eq!(paths, ["e2e_bench"]);
}

/// Run the benchmark binary in quick mode; return its stdout lines and
/// the parsed result line.
fn run(workload: &str, seed: u64, trace: bool) -> (Vec<String>, Json) {
    // One benchmark process at a time: concurrent runs would time each other.
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let out_dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/e2e_bench_spans");
    let out = Command::new(env!("CARGO_BIN_EXE_e2e_bench"))
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args([
            "--trace",
            if trace { "1" } else { "0" },
            "--quick",
            "--out",
            out_dir,
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = stdout.lines().map(str::to_owned).collect();
    let result = Json::parse(lines.last().expect("a result line"));
    (lines, result)
}

fn metric_values(
    result: &Json,
    table: &[tfapprox_e2e_bench::metrics::Metric],
) -> BTreeMap<String, f64> {
    assert_eq!(result.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0);
    let metrics = result.get("metrics");
    let names: Vec<&str> = table.iter().map(|m| m.name).collect();
    assert_eq!(metrics.keys(), names);
    table
        .iter()
        .map(|m| {
            let entry = metrics.get(m.name);
            assert_eq!(entry.keys(), ["value", "unit"]);
            assert_eq!(entry.get("unit").str(), m.unit);
            (m.name.to_owned(), entry.get("value").num())
        })
        .collect()
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for (name, _) in WORKLOADS {
        let (lines, result) = run(name, 3, false);
        let values = metric_values(&result, END_TO_END);
        for (metric, v) in &values {
            assert!(*v > 0.0 && v.is_finite(), "{name}: {metric} = {v}");
        }
        for m in END_TO_END {
            assert!(
                lines
                    .iter()
                    .any(|l| l.starts_with(&format!("# {} = ", m.name))),
                "{name}: no human line for {}",
                m.name
            );
        }
    }
}

#[test]
fn traced_runs_reconcile_and_name_their_host() {
    for (name, _) in WORKLOADS {
        let (lines, result) = run(name, 3, true);
        let v = metric_values(&result, PER_LAYER);
        assert!(
            lines.iter().any(|l| l.starts_with("# host: {")),
            "{name}: no host line"
        );
        if *name == "gpusim-resnet8" {
            assert!(v["gpusim.tex_fetches"] > 0.0 && v["gpusim.modeled_tcomp_s"] > 0.0);
            assert!(v["gpusim.tex_hit_ratio"] > 0.0 && v["gpusim.tex_hit_ratio"] < 1.0);
            continue;
        }
        // Conv time holds its phases; the buckets add up to the GEMM total.
        let phases = v["backend.im2col_quant_s"] + v["kernel.gemm_s"];
        assert!(
            v["axconv2d.busy_s"] > 0.0 && v["graph.nonconv_s"] > 0.0,
            "{name}"
        );
        assert!(
            phases <= v["axconv2d.busy_s"] * 1.001,
            "{name}: phases exceed conv time"
        );
        let buckets: f64 = v
            .iter()
            .filter(|(k, _)| k.starts_with("kernel.gemm_s."))
            .map(|(_, x)| x)
            .sum();
        assert!(
            (buckets - v["kernel.gemm_s"]).abs() <= 1e-9 * v["kernel.gemm_s"].max(1.0),
            "{name}"
        );
        assert!(
            lines.iter().any(|l| l.starts_with("# trace: ")),
            "{name}: no reconciliation line"
        );
        let spans = lines
            .iter()
            .find_map(|l| l.strip_prefix("# spans written to "))
            .expect("span file path");
        let doc = Json::parse(&std::fs::read_to_string(spans).expect("span file"));
        assert_eq!(doc.get("workload").str(), *name);
        assert!(!doc.get("spans").get("passes").arr().is_empty());
    }
}

fn note<'a>(lines: &'a [String], prefix: &str) -> &'a str {
    lines
        .iter()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no line starting with {prefix:?}"))
}

#[test]
fn outputs_and_modeled_statistics_repeat_per_seed() {
    for (workload, prefix) in [
        ("design-sweep", "# sweep digests: "),
        ("gpusim-resnet8", "# modeled texture cache starts warm: "),
    ] {
        let (a, _) = run(workload, 5, false);
        let (b, _) = run(workload, 5, false);
        let (c, _) = run(workload, 6, false);
        assert_eq!(
            note(&a, prefix),
            note(&b, prefix),
            "{workload}: same seed, same outputs"
        );
        assert_ne!(
            note(&a, prefix),
            note(&c, prefix),
            "{workload}: the seed reaches the inputs"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e_bench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
