//! The `slo-gate` binary over servebench-shaped output: it passes a
//! correct run under its ceilings and exits 1 on a ceiling breach, a
//! missing `<workload>/fresh_p90_ms` and `"correct": false`, naming the
//! workload and the metric on stderr.

use std::process::Command;

const SLO: &str = "schema = \"cs-traffic-slo/v2\"\n\
                   [dense-core]\nfresh_p90_ms = 100\n\
                   [metro-sparse]\nfresh_p90_ms = 50\n\
                   [wire-mixed]\nfresh_p90_ms = 80\n";

/// servebench's standard output for a `--workload all` run: the run
/// record, then the result line with `correct` and the given
/// `metro-sparse/fresh_p90_ms` (left out when `None`).
fn servebench_output(correct: bool, metro_p90: Option<f64>) -> String {
    let mut metrics = vec![
        r#""dense-core/fresh_p90_ms":{"value":10.8,"unit":"ms"}"#.to_string(),
        r#""wire-mixed/fresh_p90_ms":{"value":8.0,"unit":"ms"}"#.to_string(),
    ];
    if let Some(v) = metro_p90 {
        metrics.push(format!(r#""metro-sparse/fresh_p90_ms":{{"value":{v},"unit":"ms"}}"#));
    }
    format!(
        "metro-sparse seed 1: 4 episodes\n  verdict correct\n\
         {{\"correct\":{correct},\"attempted\":10,\"failed\":0,\"metrics\":{{{}}}}}\n",
        metrics.join(",")
    )
}

#[test]
fn slo_gate_exits_one_naming_the_workload_and_metric() {
    let dir = std::env::temp_dir().join(format!("cs-slo-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let slo = dir.join("SLO.toml");
    std::fs::write(&slo, SLO).unwrap();
    let run = |output: String| {
        let bench = dir.join("run.txt");
        std::fs::write(&bench, output).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_slo-gate"))
            .arg("--bench")
            .arg(&bench)
            .arg("--slo")
            .arg(&slo)
            .output()
            .unwrap();
        (out.status.code(), String::from_utf8(out.stderr).unwrap())
    };

    let (code, stderr) = run(servebench_output(true, Some(5.5)));
    assert_eq!(code, Some(0), "{stderr}");

    let cases = [
        (servebench_output(true, Some(51.0)), "metro-sparse/fresh_p90_ms: 51.000 ms exceeds"),
        (servebench_output(true, None), "metro-sparse/fresh_p90_ms: missing"),
        (
            servebench_output(false, Some(5.5)),
            "dense-core, metro-sparse, wire-mixed: correct is not true",
        ),
    ];
    for (output, named) in cases {
        let (code, stderr) = run(output);
        assert_eq!(code, Some(1), "{stderr}");
        assert!(stderr.contains(named), "stderr should name {named:?}: {stderr}");
    }

    // Output without a result line is invalid input, not a verdict.
    let (code, stderr) = run("servebench: usage error\n".into());
    assert_eq!(code, Some(74), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
