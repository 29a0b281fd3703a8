//! Bench-smoke: the conv-engine, serve, and pareto harnesses run end to
//! end in quick mode and their JSON reports are well-formed and
//! structurally complete.

use tfapprox_bench::{conv_engine, json, pareto, serve_bench};

#[test]
fn quick_suite_emits_well_formed_json() {
    let reports = conv_engine::run_suite(true);
    // One exact case plus the approximate-LUT rerun of the primary case.
    assert_eq!(reports.len(), 2);
    let kernels = tfapprox::available_kernels();
    for report in &reports {
        // CpuDirect + one CpuGemm sample per (kernel arm, thread count)
        // point + GpuSim.
        assert_eq!(
            report.samples.len(),
            2 + kernels.len() * conv_engine::THREAD_SWEEP.len(),
            "one sample per backend/kernel/thread point"
        );
        for sample in &report.samples {
            assert!(sample.threads >= 1);
            assert!(sample.mean_s > 0.0, "{:?} measured nothing", sample.backend);
            assert!(
                sample.first_call_quant_s > 0.0,
                "{:?} first call must include the plan build",
                sample.backend
            );
            let fraction_sum: f64 = sample.phase_fractions.iter().sum();
            assert!(
                (fraction_sum - 1.0).abs() < 1e-6,
                "{:?} phase fractions sum to {fraction_sum}",
                sample.backend
            );
        }
        for kernel in &kernels {
            let gemm_threads: Vec<usize> = report
                .samples
                .iter()
                .filter(|s| s.backend == tfapprox::Backend::CpuGemm && s.kernel == kernel.name())
                .map(|s| s.threads)
                .collect();
            assert_eq!(
                gemm_threads,
                conv_engine::THREAD_SWEEP.to_vec(),
                "kernel {kernel} must be swept over every thread count"
            );
        }
        for s in &report.samples {
            match s.backend {
                tfapprox::Backend::CpuGemm => {
                    assert!(kernels.iter().any(|k| k.name() == s.kernel))
                }
                _ => assert_eq!(s.kernel, "none", "{:?} never enters the GEMM", s.backend),
            }
        }
        assert!(report.macs > 0);
        assert!(report.speedup_gemm_vs_direct().is_finite());
        // Hosts without SIMD arms report NaN, with them a real ratio.
        assert_eq!(
            report.speedup_best_simd_vs_scalar().is_finite(),
            kernels.len() > 1
        );
    }
    // The primary case carries the tile sweep; its points all measured.
    assert!(!reports[0].tile_sweep.is_empty());
    assert!(reports[0].tile_sweep.iter().all(|t| t.mean_s > 0.0));
    assert!(reports[1].tile_sweep.is_empty());

    let doc = conv_engine::report_json(&reports, true);
    json::validate(&doc).expect("BENCH_conv.json must be well-formed JSON");
    for needle in [
        "\"schema\": \"tfapprox-bench-conv/2\"",
        "\"kernel\": \"scalar-tiled\"",
        "\"kernel\": \"none\"",
        "\"speedup_best_simd_vs_scalar\"",
        "\"mode\": \"quick\"",
        "\"cpu-direct\"",
        "\"cpu-gemm\"",
        "\"gpu-sim\"",
        "\"threads\": 4",
        "\"tile_sweep\"",
        "\"kc\"",
        "\"speedup_cpu_gemm_vs_cpu_direct\"",
        "\"steady_quantization_s\"",
        "\"phase_fractions\"",
    ] {
        assert!(doc.contains(needle), "missing {needle} in report");
    }
}

#[test]
fn quick_serve_suite_emits_well_formed_json() {
    let report = serve_bench::run_suite(true);
    assert_eq!(
        report.samples.len(),
        serve_bench::CLIENT_SWEEP.len() * serve_bench::BUDGET_SWEEP.len() * 2,
        "one fused + one unfused sample per (clients, budget) point"
    );
    assert!(report.serial.images_per_second > 0.0);
    for s in &report.samples {
        assert_eq!(s.requests_shed, 0, "sweep queue must be deep enough");
        assert!(s.requests > 0 && s.images == s.requests * serve_bench::IMAGES_PER_REQUEST as u64);
        assert!(s.batches >= 1 && s.batches <= s.requests);
        assert!(s.images_per_second > 0.0);
        assert!(s.mean_occupancy >= 1.0);
        if s.max_batch_images == 1 {
            // Budget 1 forces one batch per request (the single-request
            // serving baseline the batched points are compared to) — so
            // nothing can fuse there either.
            assert_eq!(s.batches, s.requests);
            assert!((s.mean_occupancy - 1.0).abs() < 1e-9);
            assert_eq!(s.fused_batches, 0);
        }
        if !s.fused {
            assert_eq!(s.fused_batches, 0, "fusion off must never fuse");
        }
        assert!(s.fused_batches <= s.batches);
    }
    // Every sweep point must appear as an A/B pair: fused and unfused.
    for &clients in &serve_bench::CLIENT_SWEEP {
        for &budget in &serve_bench::BUDGET_SWEEP {
            for fused in [true, false] {
                assert!(
                    report.samples.iter().any(|s| s.clients == clients
                        && s.max_batch_images == budget
                        && s.fused == fused),
                    "missing (clients {clients}, budget {budget}, fused {fused}) sample"
                );
            }
        }
    }
    // Coalescing must actually happen somewhere in the sweep: at least
    // one batched point with occupancy above 1.
    assert!(
        report
            .samples
            .iter()
            .any(|s| s.max_batch_images > 1 && s.mean_occupancy > 1.0),
        "no point in the sweep ever coalesced"
    );
    // A coalesced fused point must actually have fused: every
    // multi-request micro-batch of this single-shape sweep is eligible.
    for s in &report.samples {
        if s.fused && s.batches < s.requests {
            assert!(
                s.fused_batches >= 1,
                "point (clients {}, budget {}) coalesced but never fused",
                s.clients,
                s.max_batch_images
            );
        }
    }

    // The multi-tenant sweep: one sample per (tenants, clients) point,
    // with a populated latency tail and zero shed everywhere.
    assert_eq!(
        report.tenant_samples.len(),
        serve_bench::TENANT_SWEEP.len() * serve_bench::CLIENT_SWEEP.len(),
        "one sample per (tenants, clients) point"
    );
    for t in &report.tenant_samples {
        assert!(serve_bench::TENANT_SWEEP.contains(&t.tenants));
        assert_eq!(t.requests_shed, 0, "sweep queue must be deep enough");
        assert!(t.requests > 0 && t.images == t.requests * serve_bench::IMAGES_PER_REQUEST as u64);
        assert!(t.batches >= 1 && t.batches <= t.requests);
        assert!(t.images_per_second > 0.0);
        assert!(t.p50_s > 0.0, "latency histogram must populate");
        assert!(t.p50_s <= t.p95_s && t.p95_s <= t.p99_s);
        // Tenants beyond the anchor were admitted -> compile-on-miss.
        assert!(t.registry_misses >= (t.tenants - 1) as u64);
        assert_eq!(t.registry_evictions, 0, "capacity covers every tenant");
    }
    assert!(
        report.tenant_samples.iter().any(|t| t.tenants >= 2),
        "the sweep must include a multi-tenant case"
    );

    let doc = serve_bench::report_json(&report, true);
    json::validate(&doc).expect("BENCH_serve.json must be well-formed JSON");
    for needle in [
        "\"schema\": \"tfapprox-bench-serve/3\"",
        "\"mode\": \"quick\"",
        "\"serial\"",
        "\"cases\"",
        "\"tenant_cases\"",
        "\"tenants\"",
        "\"max_batch_images\"",
        "\"fused\": true",
        "\"fused\": false",
        "\"fused_batches\"",
        "\"mean_occupancy\"",
        "\"requests_shed\"",
        "\"images_per_second\"",
        "\"p50_s\"",
        "\"p95_s\"",
        "\"p99_s\"",
        "\"registry_misses\"",
        "\"speedup_vs_single_request\"",
    ] {
        assert!(doc.contains(needle), "missing {needle} in report");
    }
}

#[test]
fn quick_pareto_suite_emits_well_formed_json() {
    let report = pareto::run_suite(true, None).expect("quick pareto sweep");
    // Every quick-subset multiplier appears under every accumulator.
    assert_eq!(
        report.points.len(),
        pareto::QUICK_MULTIPLIERS.len() * pareto::ACCUMULATORS.len()
    );
    for &name in &pareto::QUICK_MULTIPLIERS {
        for (label, _) in pareto::ACCUMULATORS {
            assert!(
                report
                    .points
                    .iter()
                    .any(|p| p.multiplier == name && p.accumulator == label),
                "missing ({name}, {label}) point"
            );
        }
    }
    // The acceptance invariants: agreements in range, exact multipliers
    // at 1.0 by construction, no flagged point dominated.
    pareto::check_invariants(&report).expect("pareto invariants");
    for p in &report.points {
        assert_eq!(p.images, pareto::QUICK_IMAGES);
        assert!(p.wall_s > 0.0, "{} measured nothing", p.multiplier);
        assert_eq!(
            p.disagreements == 0,
            p.agreement == 1.0,
            "{}/{}: disagreements {} vs agreement {}",
            p.multiplier,
            p.accumulator,
            p.disagreements,
            p.agreement
        );
        // Anchors are same-signedness exact multipliers.
        match p.signedness {
            axmult::Signedness::Signed => assert_eq!(p.anchor, "mul8s_exact"),
            axmult::Signedness::Unsigned => assert_eq!(p.anchor, "mul8u_exact"),
        }
        if p.multiplier == pareto::COMPILED_NAME {
            assert_eq!(p.source, "compiled");
            assert!(p.cost.is_some(), "compiled entries carry a cost column");
        } else {
            assert_eq!(p.source, "builtin");
        }
    }
    // The sweep genuinely exercises approximation: some point must
    // disagree with its anchor.
    assert!(
        report.points.iter().any(|p| p.agreement < 1.0),
        "no approximate point ever disagreed"
    );
    // At least one point sits on the accuracy/power frontier.
    assert!(report.points.iter().any(|p| p.pareto_frontier));

    let doc = pareto::report_json(&report, true);
    json::validate(&doc).expect("BENCH_pareto.json must be well-formed JSON");
    for needle in [
        "\"schema\": \"tfapprox-bench-pareto/1\"",
        "\"mode\": \"quick\"",
        "\"anchor_policy\"",
        "\"accumulators\": [\"exact\", \"saturating-12\", \"wrapping-16\"]",
        "\"points\"",
        "\"multiplier\": \"mul8s_exact\"",
        "\"multiplier\": \"mul8u_trunc3\"",
        "\"source\": \"compiled\"",
        "\"accumulator\": \"wrapping-16\"",
        "\"agreement\": 1.0",
        "\"disagreements\"",
        "\"mae\"",
        "\"wce\"",
        "\"power\"",
        "\"pdp\"",
        "\"pareto_frontier\": true",
    ] {
        assert!(doc.contains(needle), "missing {needle} in report");
    }
}

#[test]
fn session_report_json_is_well_formed() {
    // `json::session_report` renders a session's report as a document the
    // same strict validator accepts, so session runs can append to a
    // `BENCH_*.json` trajectory exactly like the conv bench does.
    use tfapprox::prelude::*;
    let graph = axnn::resnet::ResNetConfig::with_depth(8)
        .expect("cfg")
        .build(1)
        .expect("graph");
    let mult = axmult::catalog::by_name("mul8s_exact").expect("catalog");
    let session = Session::builder()
        .backend(Backend::GpuSim)
        .chunk_size(2)
        .multiplier(&mult)
        .compile(&graph)
        .expect("compile");
    let batches = [
        axnn::dataset::SyntheticCifar10::new(3).batch_sized(0, 2),
        axnn::dataset::SyntheticCifar10::new(4).batch_sized(0, 2),
    ];
    let (_, report) = session.infer_batches(&batches).expect("run");
    let doc = json::session_report(&report);
    json::validate(&doc).expect("session report must be well-formed JSON");
    for needle in [
        "\"schema\": \"tfapprox-session-report/2\"",
        "\"backend\": \"gpu-sim\"",
        // The modeled-GPU backend never enters the host GEMM, so the
        // report pins its kernel to the "none" sentinel.
        "\"kernel\": \"none\"",
        "\"tinit_s\"",
        "\"tcomp_s\"",
        "\"total_s\"",
        "\"images\": 4",
        "\"images_per_second\"",
        "\"phase_seconds\"",
        "\"phase_fractions\"",
        "\"lutlookup\"",
    ] {
        assert!(doc.contains(needle), "missing {needle} in {doc}");
    }
    assert!((report.images_per_second() - 4.0 / report.total()).abs() < 1e-9);

    // Both zero-image shapes render identically on the deterministic
    // modeled backend, with an explicit 0.0 throughput (never NaN/null).
    let (_, none) = session.infer_batches(&[]).expect("empty list");
    let zero = axtensor::Tensor::<f32>::zeros(axnn::resnet::cifar_input_shape(0));
    let (_, zeroed) = session
        .infer_batches(std::slice::from_ref(&zero))
        .expect("zero tensor");
    let none_doc = json::session_report(&none);
    assert_eq!(none_doc, json::session_report(&zeroed));
    assert!(none_doc.contains("\"images\": 0"), "{none_doc}");
    assert!(
        none_doc.contains("\"images_per_second\": 0.0"),
        "{none_doc}"
    );

    // The host-GEMM backend names its active kernel arm in the report.
    let session = Session::builder()
        .backend(Backend::CpuGemm)
        .multiplier(&mult)
        .compile(&graph)
        .expect("compile");
    let (_, report) = session.infer_batches(&batches[..1]).expect("run");
    assert_eq!(report.kernel, session.kernel().name());
    assert!(json::session_report(&report)
        .contains(&format!("\"kernel\": \"{}\"", session.kernel().name())));
}

#[test]
fn session_report_json_is_pinned_byte_for_byte() {
    // The exact rendering of schema `tfapprox-session-report/2`: field
    // order, separators, lowercase phase keys, floats always with a
    // fraction, the image count as an integer.
    use gpusim::{Phase, PhaseProfile};
    use tfapprox::{Backend, EmulationReport};
    let mut profile = PhaseProfile::new();
    profile.add(Phase::Init, 1.5);
    profile.add(Phase::Other, 0.25);
    profile.add(Phase::Quantization, 0.125);
    profile.add(Phase::LutLookup, 0.125);
    let report = EmulationReport {
        backend: Backend::GpuSim,
        tinit: 1.5,
        tcomp: 0.5,
        profile,
        images: 4,
        kernel: "none",
    };
    assert_eq!(
        json::session_report(&report),
        "{\"schema\": \"tfapprox-session-report/2\", \"backend\": \"gpu-sim\", \
         \"kernel\": \"none\", \"tinit_s\": 1.5, \"tcomp_s\": 0.5, \"total_s\": 2.0, \
         \"images\": 4, \"images_per_second\": 2.0, \"phase_seconds\": {\"init\": 1.5, \
         \"other\": 0.25, \"quantization\": 0.125, \"lutlookup\": 0.125}, \
         \"phase_fractions\": {\"init\": 0.75, \"other\": 0.125, \"quantization\": 0.0625, \
         \"lutlookup\": 0.0625}}"
    );
    let empty = EmulationReport {
        backend: Backend::CpuGemm,
        tinit: 0.25,
        tcomp: 0.1,
        profile: PhaseProfile::new(),
        images: 0,
        kernel: "avx512-vbmi",
    };
    assert_eq!(
        json::session_report(&empty),
        "{\"schema\": \"tfapprox-session-report/2\", \"backend\": \"cpu-gemm\", \
         \"kernel\": \"avx512-vbmi\", \"tinit_s\": 0.25, \"tcomp_s\": 0.1, \"total_s\": 0.35, \
         \"images\": 0, \"images_per_second\": 0.0, \"phase_seconds\": {\"init\": 0.0, \
         \"other\": 0.0, \"quantization\": 0.0, \"lutlookup\": 0.0}, \"phase_fractions\": \
         {\"init\": 0.0, \"other\": 0.0, \"quantization\": 0.0, \"lutlookup\": 0.0}}"
    );
}

#[test]
fn prepared_engine_first_call_pays_more_quantization() {
    // Steady-state quantization is input-only; the first call adds the
    // one-off plan build. On the modeled GPU backend both numbers are
    // deterministic, so the comparison is exact.
    let reports = conv_engine::run_suite(true);
    let gpu = reports[0]
        .samples
        .iter()
        .find(|s| s.backend == tfapprox::Backend::GpuSim)
        .expect("gpu sample");
    assert!(
        gpu.steady_quant_s < gpu.first_call_quant_s,
        "steady {} !< first {}",
        gpu.steady_quant_s,
        gpu.first_call_quant_s
    );
}
