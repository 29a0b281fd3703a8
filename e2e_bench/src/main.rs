//! `e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one `# name = value unit` line per metric, then, as the last
//! line, the JSON result. Exits 0 when every check passed, 1 when a check
//! failed, 2 when the run could not complete.

use std::process::ExitCode;
use tfapprox_e2e_bench::{run, Config};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match Config::from_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&cfg) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("e2e_bench: {} failed: {e}", cfg.workload.name());
            return ExitCode::from(2);
        }
    };
    for line in outcome
        .notes
        .iter()
        .chain(&outcome.report.human_lines(cfg.trace))
    {
        println!("# {line}");
    }
    if let Some(doc) = &outcome.trace_doc {
        let path = cfg.out_dir.join(format!(
            "{}-seed{}.trace.json",
            cfg.workload.name(),
            cfg.seed
        ));
        let written =
            std::fs::create_dir_all(&cfg.out_dir).and_then(|()| std::fs::write(&path, doc));
        if let Err(e) = written {
            eprintln!("e2e_bench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("# spans written to {}", path.display());
    }
    for failure in outcome.report.failures() {
        eprintln!("e2e_bench: check failed: {failure}");
    }
    match outcome.report.result_line(cfg.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            return ExitCode::from(2);
        }
    }
    if outcome.report.failures().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
