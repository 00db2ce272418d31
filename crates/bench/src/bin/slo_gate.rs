//! `slo-gate` — checks the result line of a `servebench --workload all`
//! run against the collapse ceilings in `results/SLO.toml` and fails CI
//! when the run was incorrect or a workload's `fresh_p90_ms` collapsed.
//!
//! ```text
//! slo-gate --bench PATH [--slo PATH]
//! ```
//!
//! `--bench` is a file holding servebench's standard output; the gate
//! reads its last non-empty line. `--slo` defaults to
//! `results/SLO.toml`. On failure it prints one line per violation,
//! each naming the workload and the metric, plus the local repro
//! command, and exits 1. Usage errors exit 2, unreadable/invalid
//! inputs exit 74.

use cs_bench::slo::{self, METRIC, WORKLOADS};
use std::path::PathBuf;
use telemetry::json::Json;

fn fail_usage(msg: &str) -> ! {
    eprintln!("slo-gate: {msg}");
    eprintln!("usage: slo-gate --bench PATH [--slo PATH]");
    std::process::exit(2);
}

fn fail_io(msg: &str) -> ! {
    eprintln!("slo-gate: {msg}");
    std::process::exit(74);
}

fn main() {
    let mut bench = None;
    let mut slo_path = PathBuf::from("results/SLO.toml");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val =
            |name: &str| it.next().unwrap_or_else(|| fail_usage(&format!("{name} needs a value")));
        match flag.as_str() {
            "--bench" => bench = Some(PathBuf::from(val("--bench"))),
            "--slo" => slo_path = PathBuf::from(val("--slo")),
            "--help" | "-h" => fail_usage("help"),
            other => fail_usage(&format!("unknown flag '{other}'")),
        }
    }
    let bench = bench.unwrap_or_else(|| fail_usage("--bench is required"));

    let slo = slo::load_slo(&slo_path).unwrap_or_else(|e| fail_io(&e.to_string()));
    let text = std::fs::read_to_string(&bench)
        .unwrap_or_else(|e| fail_io(&format!("cannot read {}: {e}", bench.display())));
    let last = text.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("");
    let result = Json::parse(last).unwrap_or_else(|e| {
        fail_io(&format!("last line of {} is not valid JSON: {e:?}", bench.display()))
    });

    let violations = slo::gate(&slo, &result);
    if violations.is_empty() {
        let summary: Vec<String> = WORKLOADS
            .iter()
            .zip(&slo.fresh_p90_ms)
            .map(|(w, ceiling)| {
                let v = slo::fresh_p90_ms(&result, w).unwrap_or_default();
                format!("{w}/{METRIC} {v:.3} ms (ceiling {ceiling:.3})")
            })
            .collect();
        println!("slo-gate: PASS — correct, {}", summary.join(", "));
        return;
    }
    eprintln!("slo-gate: FAIL — {} violation(s) against {}:", violations.len(), slo_path.display());
    for v in &violations {
        eprintln!("  - {v}");
    }
    eprintln!(
        "reproduce locally: cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
         --workload all --seed 1 --seconds 3 --trace 0 > run.txt && \
         cargo run --release -p cs-bench --bin slo-gate -- --bench run.txt"
    );
    std::process::exit(1);
}
